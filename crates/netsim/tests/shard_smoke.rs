//! Fast byte-identity check for the sharded engine: the calibrated
//! Internet scenario with ping traffic must produce identical metrics,
//! lineage, and time-series whether it runs sequentially or
//! partitioned across shard domains. The exhaustive sweep lives in
//! the workspace-level `shard_equivalence` suite; this one exists so a
//! broken exchange protocol fails in seconds, inside this crate.

use turb_netsim::prelude::*;
use turb_obs::{LineageDump, MetricsRegistry, SeriesDump};

/// Everything a run can externalise, gathered from one simulation.
struct RunOutput {
    metrics: String,
    lineage: Option<LineageDump>,
    series: Option<SeriesDump>,
    events_processed: u64,
    events_scheduled: u64,
    ping_received: Vec<u32>,
}

fn run(seed: u64, shards: ShardKind) -> RunOutput {
    let mut sim = Simulation::new(seed);
    let mut rng = SimRng::new(seed);
    sim.enable_lineage();
    sim.enable_timeseries(0);
    sim.set_shards(shards);
    let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
    let pings: Vec<_> = scenario
        .sites
        .iter()
        .map(|site| {
            tools::spawn_ping(
                &mut sim,
                scenario.client,
                site.server_addr,
                20,
                SimDuration::from_millis(250),
                SimDuration::ZERO,
                &mut rng,
            )
        })
        .collect();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let stats = sim.sim_stats();
    let dumps = sim.finish_observers();
    RunOutput {
        metrics: registry.render_text(),
        lineage: dumps.lineage,
        series: dumps.series,
        events_processed: stats.events_processed,
        events_scheduled: stats.events_scheduled,
        ping_received: pings
            .iter()
            .map(|&id| sim.take_app::<tools::PingApp>(id).report.received)
            .collect(),
    }
}

fn assert_identical(seed: u64, n: u16) {
    let seq = run(seed, ShardKind::Sequential);
    let shd = run(seed, ShardKind::Sharded(n));
    assert!(
        seq.ping_received.iter().any(|&r| r > 0),
        "seed {seed}: no traffic flowed — test is vacuous"
    );
    assert_eq!(
        seq.ping_received, shd.ping_received,
        "seed {seed} shards {n}: ping deliveries diverge"
    );
    assert_eq!(
        seq.events_processed, shd.events_processed,
        "seed {seed} shards {n}: events_processed diverges"
    );
    assert_eq!(
        seq.events_scheduled, shd.events_scheduled,
        "seed {seed} shards {n}: events_scheduled diverges"
    );
    assert_eq!(
        seq.metrics, shd.metrics,
        "seed {seed} shards {n}: metrics diverge"
    );
    assert_eq!(
        seq.lineage, shd.lineage,
        "seed {seed} shards {n}: lineage diverges"
    );
    assert_eq!(
        seq.series, shd.series,
        "seed {seed} shards {n}: time-series diverge"
    );
}

#[test]
fn two_domains_match_sequential() {
    assert_identical(7, 2);
}

#[test]
fn four_domains_match_sequential() {
    assert_identical(7, 4);
}

#[test]
fn one_domain_partition_matches_sequential() {
    // Sharded(1) exercises the full partition/exchange machinery with
    // zero cut links — a degenerate case worth pinning.
    assert_identical(7, 1);
}

#[test]
fn other_seed_matches_too() {
    assert_identical(1902, 2);
}

#[test]
fn scale_scenario_matches_sequential() {
    use turb_netsim::topology::{ScaleConfig, ScaleScenario};
    let run = |shards: ShardKind| {
        let mut sim = Simulation::new(11);
        sim.set_shards(shards);
        let scenario = ScaleScenario::build(
            &mut sim,
            &ScaleConfig {
                groups: 4,
                clients_per_group: 16,
                packets_per_client: 8,
                send_interval: SimDuration::from_millis(25),
                payload_bytes: 300,
                ..ScaleConfig::default()
            },
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(30));
        let mut registry = MetricsRegistry::new();
        sim.collect_metrics(&mut registry);
        (
            scenario.take_totals(&mut sim).0,
            sim.sim_stats().events_processed,
            registry.render_text(),
        )
    };
    let seq = run(ShardKind::Sequential);
    for n in [2u16, 4, 8] {
        let shd = run(ShardKind::Sharded(n));
        assert_eq!(seq.0, shd.0, "shards {n}: sink totals diverge");
        assert_eq!(seq.1, shd.1, "shards {n}: events diverge");
        assert_eq!(seq.2, shd.2, "shards {n}: metrics diverge");
    }
    assert!(seq.0.datagrams > 0);
}

#[test]
fn isolated_node_at_max_shards_yields_an_empty_domain_without_stalling() {
    // A shard count is accepted up to the node count. At exactly the
    // node count with an isolated (link-less, app-less) node, that
    // node becomes a shard domain that never has a single event: its
    // mailbox publishes no next_time at every barrier and must simply
    // be skipped by the coordinator — no stall, no lookahead collapse,
    // and results byte-identical to a sequential run.
    use std::net::Ipv4Addr;
    let b_addr = Ipv4Addr::new(10, 0, 0, 2);
    let run = |shards: ShardKind| {
        let mut sim = Simulation::new(13);
        let mut rng = SimRng::new(13);
        sim.set_shards(shards);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", b_addr);
        // Positive propagation so the cut has real lookahead.
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(2)));
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);
        // The isolated node: no links, no apps, never any events.
        sim.add_host("island", Ipv4Addr::new(10, 0, 0, 3));
        let ping = tools::spawn_ping(
            &mut sim,
            a,
            b_addr,
            8,
            SimDuration::from_millis(50),
            SimDuration::ZERO,
            &mut rng,
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(5));
        let mut registry = MetricsRegistry::new();
        sim.collect_metrics(&mut registry);
        let received = sim.take_app::<tools::PingApp>(ping).report.received;
        (
            received,
            sim.sim_stats().events_processed,
            registry.render_text(),
            sim.shard_diag(),
        )
    };
    let seq = run(ShardKind::Sequential);
    assert_eq!(seq.0, 8, "all pings must come back");
    // 3 shards over 3 nodes: a, b, and the island each get a domain.
    let shd = run(ShardKind::Sharded(3));
    assert_eq!(seq.0, shd.0, "ping deliveries diverge");
    assert_eq!(seq.1, shd.1, "events_processed diverges");
    assert_eq!(seq.2, shd.2, "metrics diverge");
    let diag = shd.3.expect("sharded run must expose diagnostics");
    assert_eq!(diag.per_domain.len(), 3);
    assert!(
        diag.lookahead_ns >= 2_000_000,
        "cut lookahead is the 2 ms link"
    );
    let empties = diag
        .per_domain
        .iter()
        .filter(|d| d.events_processed == 0)
        .count();
    assert_eq!(empties, 1, "exactly the island domain sees zero events");
    assert!(diag.transits > 0, "pings cross the a↔b cut");
}

/// A one-node app that just burns a chain of timers — no network.
struct TickApp {
    remaining: u32,
    fired: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Application for TickApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            ctx.set_timer_after(SimDuration::from_millis(10), 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.fired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_timer_after(SimDuration::from_millis(10), 0);
        }
    }
}

#[test]
fn linkless_partition_with_unbounded_lookahead_terminates() {
    // No links at all: every node is its own domain, nothing is cut,
    // and the lookahead is unbounded (u64::MAX). The window must clamp
    // to the run horizon instead of overflowing or spinning, and
    // domains whose node has no app stay empty throughout.
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let run = |shards: ShardKind| {
        let mut sim = Simulation::new(17);
        sim.set_shards(shards);
        let fired = Arc::new(AtomicU64::new(0));
        for i in 0..4u8 {
            let node = sim.add_host(&format!("n{i}"), Ipv4Addr::new(10, 1, 0, i + 1));
            // Nodes 0 and 2 tick; 1 and 3 are entirely idle domains.
            if i % 2 == 0 {
                sim.add_app(
                    node,
                    Box::new(TickApp {
                        remaining: 20,
                        fired: fired.clone(),
                    }),
                    None,
                    false,
                );
            }
        }
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(5));
        (
            fired.load(Ordering::Relaxed),
            sim.sim_stats().events_processed,
            sim.shard_diag(),
        )
    };
    let seq = run(ShardKind::Sequential);
    assert_eq!(seq.0, 40, "both tickers run to completion");
    let shd = run(ShardKind::Sharded(4));
    assert_eq!(seq.0, shd.0);
    assert_eq!(seq.1, shd.1, "events_processed diverges");
    let diag = shd.2.expect("sharded run must expose diagnostics");
    assert_eq!(diag.per_domain.len(), 4);
    assert_eq!(
        diag.lookahead_ns,
        u64::MAX,
        "no cut links means unbounded lookahead"
    );
    assert_eq!(diag.transits, 0);
    let empties = diag
        .per_domain
        .iter()
        .filter(|d| d.events_processed == 0)
        .count();
    assert_eq!(empties, 2, "app-less nodes are zero-event domains");
}

#[test]
fn diag_reports_the_partition() {
    let mut sim = Simulation::new(7);
    let mut rng = SimRng::new(7);
    let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
    sim.set_shards(ShardKind::Sharded(2));
    // Ping every site: whatever the 2-way partition, some path must
    // cross the cut.
    for site in &scenario.sites {
        tools::spawn_ping(
            &mut sim,
            scenario.client,
            site.server_addr,
            4,
            SimDuration::from_millis(100),
            SimDuration::ZERO,
            &mut rng,
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    let diag = sim
        .shard_diag()
        .expect("sharded run must expose diagnostics");
    assert_eq!(diag.shards, 2);
    assert_eq!(diag.per_domain.len(), 2);
    assert!(diag.lookahead_ns > 0);
    assert!(diag.barriers > 0, "run should cross at least one barrier");
    assert!(
        diag.transits > 0,
        "ping crosses the cut, so transits must flow"
    );
    let total: u64 = diag.per_domain.iter().map(|d| d.events_processed).sum();
    assert_eq!(total, sim.sim_stats().events_processed);
    assert_eq!(
        diag.exchange_reallocs, 0,
        "steady state must not reallocate exchange buffers"
    );
    assert!(diag.per_domain.iter().all(|d| d.parks <= diag.barriers + 1));
    // Sequential runs report no diagnostics.
    let mut seq = Simulation::new(7);
    assert!(seq.shard_diag().is_none());
    seq.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    assert!(seq.shard_diag().is_none());
}

#[test]
fn barrier_timing_is_attributed_and_stays_outside_the_identity_set() {
    let run = || {
        let mut sim = Simulation::new(7);
        let mut rng = SimRng::new(7);
        let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
        sim.set_shards(ShardKind::Sharded(2));
        for site in &scenario.sites {
            tools::spawn_ping(
                &mut sim,
                scenario.client,
                site.server_addr,
                20,
                SimDuration::from_millis(100),
                SimDuration::ZERO,
                &mut rng,
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        sim.shard_diag()
            .expect("sharded run must expose diagnostics")
    };
    let first = run();
    for d in &first.per_domain {
        assert!(
            d.busy_ns > 0,
            "domain {} ran windows but reports no busy time",
            d.domain
        );
    }
    // Timing varies run to run; everything else is a function of the
    // seed.
    let deterministic = |mut diag: ShardDiag| {
        for d in &mut diag.per_domain {
            d.busy_ns = 0;
            d.wait_ns = 0;
            d.parks = 0;
        }
        diag
    };
    assert_eq!(deterministic(first), deterministic(run()));
}
