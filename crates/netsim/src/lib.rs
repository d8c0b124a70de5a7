//! # turb-netsim — a deterministic discrete-event network simulator
//!
//! The substrate standing in for the 2002 Internet of the paper's
//! measurement study. Sans-IO and deterministic: a run is a pure
//! function of (topology, applications, seed), so every experiment in
//! the workspace is bit-reproducible — including under the optional
//! sharded engine, which partitions one simulation across worker
//! threads behind conservative lookahead barriers without changing a
//! single result byte.
//!
//! * [`time`] — nanosecond [`SimTime`]/[`SimDuration`] clock.
//! * [`rng`] — embedded xoshiro256** [`SimRng`] with forkable
//!   sub-streams.
//! * [`link`] — simplex links with serialisation delay, propagation,
//!   and drop-tail queues; duplex = a pair.
//! * [`node`] — hosts (reassembly, UDP port table, ICMP listeners) and
//!   routers (TTL, forwarding, ICMP time-exceeded).
//! * [`fault`] — Bernoulli / Gilbert-Elliott loss and jitter injection.
//! * [`fluid`] — max-min fair fluid engine: background flows modelled
//!   as rates over link routes, recomputed only at demand breakpoints;
//!   the packet path sees them as reduced residual link capacity.
//! * [`sim`] — the engine: event queue, [`Application`] trait,
//!   [`Ctx`] capability handle, sniffer [`Tap`]s. The simulation owns
//!   its apps and taps; [`Simulation::take_app`] hands one back.
//! * [`ObserverDumps`] — what a run's observers (lineage, time
//!   series, session rollups) recorded, from
//!   [`Simulation::finish_observers`]; one observer set per shard
//!   domain, merged once.
//! * [`wheel`] — deterministic hierarchical timing wheel backing the
//!   default event queue ([`SchedulerKind::Heap`] keeps the old heap
//!   as the equivalence tests' reference).
//! * [`shard`] — conservative parallel engine: the topology is
//!   partitioned into per-thread domains, lookahead = the minimum
//!   propagation over cut links, and cross-domain packets transit
//!   through canonical-order exchange queues at barriers. Selected
//!   with [`ShardKind::Sharded`]; byte-identical to sequential.
//! * [`topology`] — the paper's client-to-six-sites scenario with
//!   hop-count and RTT distributions calibrated to Figures 1–2, plus
//!   the replicated-client [`topology::ScaleScenario`] used to bench
//!   the shard engine on 10⁴–10⁵ pending events.
//! * [`tools`] — `ping` and `tracert` as simulated applications.
//! * [`tcp`] — a sans-IO Reno TCP (handshake, retransmission, fast
//!   recovery) for the paper's §VI TCP-friendliness follow-up.
//! * [`fleet`] — session-population multiplexing over the scale ring:
//!   one driver app per group walks a table of compact
//!   [`fleet::SessionSpec`] rows, so 10⁵–10⁶ churning sessions cost a
//!   few dozen bytes each instead of a host and an app.
//!
//! ```
//! use turb_netsim::prelude::*;
//!
//! let mut sim = Simulation::new(7);
//! let mut rng = SimRng::new(7);
//! let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
//! let ping = tools::spawn_ping(
//!     &mut sim,
//!     scenario.client,
//!     scenario.sites[0].server_addr,
//!     4,
//!     SimDuration::from_secs(1),
//!     SimDuration::ZERO,
//!     &mut rng,
//! );
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
//! let report = sim.take_app::<tools::PingApp>(ping).report;
//! assert_eq!(report.received, 4);
//! ```

pub mod fault;
pub mod fleet;
pub mod fluid;
pub mod link;
pub mod node;
mod observers;
pub mod red;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod tcp;
pub mod tcp_apps;
pub mod time;
pub mod tools;
pub mod topology;
pub mod wheel;

pub use fault::{FaultInjector, JitterModel, LossModel};
pub use fleet::{FleetLedger, FleetScenario, SessionSpec, FLEET_WINDOW_NS};
pub use fluid::{EngineKind, FlowClass, FluidDiag, FluidFlow, RateSchedule};
pub use link::{Link, LinkConfig, LinkId, LinkStats, NodeId};
pub use node::{AppId, Node, NodeKind, NodeStats};
pub use observers::ObserverDumps;
pub use red::RedQueue;
pub use rng::SimRng;
pub use shard::{ShardDiag, ShardDomainStats, ShardKind};
pub use sim::{
    Application, Ctx, Direction, SchedulerKind, SimCore, SimStats, Simulation, Tap, TapEvent, TapId,
};
pub use time::{SimDuration, SimTime};
// Lineage vocabulary re-exported so apps built on `Ctx` don't need a
// direct `turb-obs` edge just to describe their packets.
pub use topology::{InternetScenario, ScenarioConfig, SitePath};
pub use turb_obs::lineage::{DropCause, LineageDump, PacketizeMeta, SpanOutcome, Stage};
pub use wheel::{SchedStats, TimingWheel};

/// Convenient glob import for simulation consumers.
pub mod prelude {
    pub use crate::fault::{FaultInjector, JitterModel, LossModel};
    pub use crate::fluid::{EngineKind, FlowClass, FluidDiag, FluidFlow, RateSchedule};
    pub use crate::link::{LinkConfig, LinkId, NodeId};
    pub use crate::node::AppId;
    pub use crate::rng::SimRng;
    pub use crate::shard::{ShardDiag, ShardDomainStats, ShardKind};
    pub use crate::sim::{
        Application, Ctx, Direction, SchedulerKind, Simulation, Tap, TapEvent, TapId,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::tools;
    pub use crate::topology::{InternetScenario, ScenarioConfig};
    pub use turb_obs::lineage::PacketizeMeta;
}
