//! # turb-players — behavioural models of the two streaming systems
//!
//! The paper's subjects, rebuilt as simulated applications:
//!
//! * [`wmp_server`] / [`wmp_client`] — Windows MediaPlayer 7.1: CBR
//!   application frames every 100 ms (fragmenting above the MTU),
//!   buffer-at-playout-rate, and the client-side 1 s interleave
//!   batcher (MediaTracker instrumentation included).
//! * [`real_server`] / [`real_client`] — RealPlayer (RealOne):
//!   variable sub-MTU packets, jittered pacing, a buffering burst at
//!   up to 3× the playout rate, and a playback rate slightly above the
//!   encoding rate (RealTracker instrumentation included).
//! * [`calibration`] — every constant in the models, each annotated
//!   with the paper sentence that pins it, plus the encoding tiers a
//!   fleet session draws its rate from.
//! * [`stats`] — the tracker log schema (per-second stats, per-packet
//!   network events, interleave batches) and the derived metrics the
//!   figures use (average playback rate, frame rate, buffering ratio).
//! * [`spawn`] — helpers to install a session into a
//!   [`turb_netsim::Simulation`].

pub mod calibration;
pub mod client_core;
pub mod config;
pub mod real_client;
pub mod real_server;
pub mod spawn;
pub mod stats;
pub mod telemetry;
pub mod wmp_client;
pub mod wmp_server;

pub use config::StreamConfig;
pub use real_client::RealClient;
pub use real_server::RealServer;
pub use spawn::{spawn_stream, StreamHandles};
pub use stats::{AppBatch, AppStatsLog, NetEvent, SecondStats};
pub use wmp_client::WmpClient;
pub use wmp_server::WmpServer;

/// Session id the Real stream's rollup is recorded under when a pair
/// run enables session observability: the servers stamp it on every
/// outgoing media datagram via `Ctx::session_packetize`. Fixed small
/// ids (not ports) because the session table is a dense array.
pub const REAL_SESSION_ID: u32 = 0;
/// Session id of the MediaPlayer stream's rollup (see
/// [`REAL_SESSION_ID`]).
pub const WMP_SESSION_ID: u32 = 1;
