//! Assembling per-run telemetry: the [`RunReport`] and the merged
//! metrics registry for one pair run.
//!
//! Harvesting happens once, after the simulation has finished — it
//! reads counters the components keep anyway, so whether telemetry is
//! collected can never affect what the simulation computed.

use turb_capture::Capture;
use turb_netsim::{FluidDiag, LineageDump, SchedStats, SchedulerKind, ShardDiag, Simulation};
use turb_obs::{FragReport, LinkReport, MetricsRegistry, RunReport, SeriesDump, SessionDump};
use turb_players::telemetry::player_report;
use turb_players::AppStatsLog;

/// Everything observability-related measured during one pair run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The headline summary (rendered by `turbulence pair`).
    pub report: RunReport,
    /// Every metric, for Prometheus-style exposition.
    pub metrics: MetricsRegistry,
    /// Which event-queue engine ran the simulation.
    pub scheduler: SchedulerKind,
    /// Scheduler-internal diagnostics (slots touched, cascades,
    /// overflow entries; all zero for the heap). Kept separate from
    /// `report`/`metrics` deliberately: those two are asserted
    /// byte-identical across schedulers, while these describe
    /// the engine itself.
    pub sched: SchedStats,
    /// Per-packet lifecycle spans, when the run recorded lineage
    /// ([`crate::PairRunConfig::with_lineage`]). Like `scheduler`/
    /// `sched`, this sits outside the byte-identity set: the identity
    /// tests assert `report`/`metrics` are unchanged by turning
    /// lineage on, not that the dump itself exists.
    pub lineage: Option<LineageDump>,
    /// Windowed time-series over the run, when it was recorded
    /// ([`crate::PairRunConfig::with_timeseries`]). Outside the
    /// byte-identity set for the same reason as `lineage`.
    pub series: Option<SeriesDump>,
    /// Per-session QoE rollups (one for the real stream, one for the
    /// wmp stream), when the run recorded them
    /// ([`crate::PairRunConfig::with_sessions`]). Outside the
    /// byte-identity set for the same reason as `lineage`.
    pub sessions: Option<SessionDump>,
    /// Shard-engine diagnostics (lookahead, barriers, exchanged
    /// transits, per-domain event counts) when the run was partitioned
    /// ([`crate::PairRunConfig::with_shards`]); `None` for sequential
    /// runs. Outside the byte-identity set — the identity tests assert
    /// `report`/`metrics` are unchanged by sharding, not
    /// that the partition looks any particular way.
    pub shards: Option<ShardDiag>,
    /// Fluid-solver diagnostics when the run carried hybrid-engine
    /// background flows ([`crate::PairRunConfig::with_engine`]);
    /// `None` otherwise. Outside the byte-identity set — the identity
    /// tests assert the hybrid engine with zero background flows
    /// changes nothing, not that the solver ran.
    pub fluid: Option<FluidDiag>,
}

/// Harvest a finished simulation into a [`RunTelemetry`].
pub fn harvest(
    label: &str,
    sim: &Simulation,
    capture: &Capture,
    real: &AppStatsLog,
    wmp: &AppStatsLog,
    wall_ns: u64,
) -> RunTelemetry {
    let stats = sim.sim_stats();

    let elapsed_secs = sim.now().as_nanos() as f64 / 1e9;
    let mut links = Vec::with_capacity(sim.link_count());
    let mut fault_losses = 0u64;
    let mut fault_delayed = 0u64;
    for i in 0..sim.link_count() {
        let link = sim.link(turb_netsim::LinkId(i));
        let s = link.stats;
        let f = link.fault.stats();
        fault_losses += f.dropped;
        fault_delayed += f.delayed;
        let busy_secs = s.tx_bytes as f64 * 8.0 / link.config.rate_bps as f64;
        links.push(LinkReport {
            component: link.trace_component.clone(),
            tx_packets: s.tx_packets,
            tx_bytes: s.tx_bytes,
            dropped_queue: s.dropped_queue,
            dropped_red: s.dropped_red,
            dropped_fault: s.dropped_fault,
            utilization: if elapsed_secs > 0.0 {
                (busy_secs / elapsed_secs).min(1.0)
            } else {
                0.0
            },
        });
    }

    let mut frag = FragReport {
        fragmented_datagrams: stats.fragmented_datagrams,
        fragments_sent: stats.fragments_sent,
        ..FragReport::default()
    };
    for i in 0..sim.node_count() {
        let r = sim.node(turb_netsim::NodeId(i)).reassembler.stats();
        frag.fragments_received += r.fragments_received;
        frag.reassembled += r.reassembled;
        frag.passthrough += r.passthrough;
        frag.timed_out += r.timed_out;
        frag.duplicates += r.duplicates;
        frag.invalid += r.invalid;
    }

    let report = RunReport {
        label: label.to_string(),
        wall_ns,
        // One pair run is always a single simulation on one thread; the
        // corpus aggregate overrides this with the pool width.
        threads: 1,
        sim_events_processed: stats.events_processed,
        sim_events_scheduled: stats.events_scheduled,
        transit_fastpath: stats.transit_fastpath,
        transit_slowpath: stats.transit_slowpath,
        fault_induced_losses: fault_losses,
        fault_delayed,
        capture_records: capture.len() as u64,
        links,
        frag,
        players: vec![
            player_report("player:real", real),
            player_report("player:wmp", wmp),
        ],
    };

    let mut metrics = MetricsRegistry::new();
    sim.collect_metrics(&mut metrics);
    capture.collect_metrics("client", &mut metrics);
    turb_players::telemetry::collect_metrics("player:real", real, &mut metrics);
    turb_players::telemetry::collect_metrics("player:wmp", wmp, &mut metrics);
    metrics.log_observe("pair_run_wall_ns", label, wall_ns);

    RunTelemetry {
        report,
        metrics,
        scheduler: sim.scheduler(),
        sched: sim.sched_stats(),
        // Filled in by `run_pair` after harvesting (detaching the dumps
        // needs `&mut Simulation`; everything here reads shared refs).
        lineage: None,
        series: None,
        sessions: None,
        shards: sim.shard_diag(),
        fluid: sim.fluid_diag(),
    }
}
