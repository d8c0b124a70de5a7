//! # turbulence — the experiment harness
//!
//! Reproduces "MediaPlayer™ versus RealPlayer™ — A Comparison of
//! Network Turbulence" (Li, Claypool, Kinicki; WPI / IMC 2002) on top
//! of the workspace's substrates:
//!
//! * [`experiment`] — one *pair run*: ping/tracert before, stream the
//!   Real + WMP encodings of a clip pair simultaneously with a sniffer
//!   at the client, ping/tracert after (§2's methodology).
//! * [`runner`] — the full 26-clip corpus, sequential or fanned across
//!   a worker pool.
//! * [`parallel`] — the dependency-free worker pool behind the corpus
//!   runner: deterministic fan-out/merge over std scoped threads.
//! * [`population`] — fleet-scale session populations: Poisson/MMPP
//!   arrivals with heavy-tailed lifetimes multiplexed over the scale
//!   ring, rendered into heavy-traffic figures.
//! * [`analysis`] — per-stream views over a run's capture (sizes,
//!   interarrivals, fragment groups, tracker logs).
//! * [`figures`] — `fig01` … `fig15` plus `sec4`: the exact rows and
//!   series each figure of the paper plots.
//! * [`tables`] — Table 1, static and with measured rates.
//! * [`report`] — plain-text rendering for the CLI.
//! * [`telemetry`] — per-run observability harvest ([`RunTelemetry`]):
//!   run report, metrics registry, and the observer dumps.
//!
//! ```no_run
//! use turbulence::{figures, runner};
//!
//! let corpus = runner::run_corpus_parallel(42, 4);
//! let rtt = figures::fig01_rtt_cdf(&corpus);
//! println!("median RTT: {:.1} ms", rtt.median().unwrap());
//! ```

pub mod analysis;
pub mod experiment;
pub mod figures;
pub mod followup;
pub mod parallel;
pub mod population;
pub mod report;
pub mod runner;
pub mod scale;
pub mod tables;
pub mod telemetry;

pub use experiment::{run_pair, PairRunConfig, PairRunResult};
pub use population::{
    generate_sessions, run_fleet, ArrivalProcess, DurationDist, FleetRunConfig, FleetRunResult,
};
pub use runner::{run_corpus, run_corpus_parallel, CorpusResult};
pub use scale::{run_scale, ScaleRunConfig, ScaleRunResult};
pub use telemetry::RunTelemetry;
