//! Fluid-engine equivalence: the hybrid engine is an execution
//! strategy for *background* traffic, never a modelling change for the
//! foreground. Two claims are enforced here (DESIGN.md §5):
//!
//! 1. With zero background flows, `--engine hybrid` is byte-identical
//!    to the packet engine — same figures, same telemetry counters,
//!    same reports, same lineage and time-series dumps
//!    — for every seed and every shard count. The fluid path must cost
//!    nothing when it carries nothing.
//! 2. With background flows, a hybrid run is still deterministic: the
//!    same seed produces the same digest sequentially and at every
//!    shard count, because rate-change events travel the same
//!    conservative exchange queues as packets.

use turb_netsim::topology::ScaleConfig;
use turb_netsim::{EngineKind, ShardKind, SimDuration};
use turbulence::runner::{self, CorpusResult};
use turbulence::scale::{run_scale, ScaleRunConfig, ScaleRunResult};

/// Set 2 (the fastest full pair run) with every recorder on.
fn subset(seed: u64, engine: EngineKind, shards: ShardKind) -> CorpusResult {
    let mut configs = runner::corpus_configs_for_sets(seed, &[2]);
    for c in &mut configs {
        *c = c.clone().with_lineage().with_timeseries(0);
        c.shards = shards;
        c.engine = engine;
        // Deliberately zero: the claim is that an idle fluid path
        // changes nothing, not that background traffic is invisible.
        c.background_flows = 0;
    }
    runner::run_configs(&configs)
}

/// Everything but wall clock and engine diagnostics must match.
fn assert_identical(packet: &CorpusResult, hybrid: &CorpusResult, what: &str) {
    let counters = |c: &CorpusResult| -> Vec<(String, String, u64)> {
        c.aggregate_metrics()
            .counters()
            .map(|(n, comp, v)| (n.to_string(), comp.to_string(), v))
            .collect()
    };
    assert_eq!(
        counters(packet),
        counters(hybrid),
        "telemetry counters diverged ({what})"
    );
    for (a, b) in packet.runs.iter().zip(&hybrid.runs) {
        assert_eq!(a.real.bytes_total, b.real.bytes_total, "{what}");
        assert_eq!(a.wmp.bytes_total, b.wmp.bytes_total, "{what}");
        assert_eq!(a.capture.len(), b.capture.len(), "{what}");
        let (Some(ta), Some(tb)) = (&a.telemetry, &b.telemetry) else {
            panic!("telemetry was requested for every run ({what})");
        };
        let mut ra = ta.report.clone();
        let mut rb = tb.report.clone();
        ra.wall_ns = 0;
        rb.wall_ns = 0;
        assert_eq!(ra, rb, "reports diverged ({what})");
        assert_eq!(ta.lineage, tb.lineage, "lineage dumps diverged ({what})");
        assert_eq!(ta.series, tb.series, "time-series diverged ({what})");
        // An idle fluid path must not even report diagnostics.
        assert!(tb.fluid.is_none(), "idle hybrid run grew a solver ({what})");
    }
}

#[test]
fn hybrid_with_zero_background_is_byte_identical_for_every_seed_and_shard_count() {
    for seed in [42u64, 7, 1003] {
        let packet = subset(seed, EngineKind::Packet, ShardKind::Sequential);
        let hybrid = subset(seed, EngineKind::Hybrid, ShardKind::Sequential);
        assert_identical(&packet, &hybrid, &format!("seed {seed}, sequential"));
        for n in [1u16, 2, 4] {
            let sharded = subset(seed, EngineKind::Hybrid, ShardKind::Sharded(n));
            assert_identical(&packet, &sharded, &format!("seed {seed}, {n} shards"));
        }
    }
}

/// A small scale scenario that still exercises every ring link.
fn scale_scenario(engine: EngineKind, background: usize) -> ScaleConfig {
    ScaleConfig {
        groups: 8,
        clients_per_group: 24,
        packets_per_client: 10,
        send_interval: SimDuration::from_millis(30),
        payload_bytes: 300,
        background_flows: background,
        engine,
    }
}

fn scale_run(
    seed: u64,
    engine: EngineKind,
    background: usize,
    shards: ShardKind,
) -> ScaleRunResult {
    run_scale(&ScaleRunConfig {
        seed,
        scenario: scale_scenario(engine, background),
        shards,
        progress: false,
    })
}

#[test]
fn scale_hybrid_with_zero_background_matches_packet_exactly() {
    for seed in [42u64, 7, 1003] {
        let packet = scale_run(seed, EngineKind::Packet, 0, ShardKind::Sequential);
        let hybrid = scale_run(seed, EngineKind::Hybrid, 0, ShardKind::Sequential);
        assert!(packet.datagrams > 0);
        assert_eq!(packet.digest, hybrid.digest, "seed {seed}");
        assert_eq!(packet.events_processed, hybrid.events_processed);
        assert_eq!(packet.datagrams, hybrid.datagrams);
        assert!(
            hybrid.fluid.is_none(),
            "idle hybrid scale run grew a solver"
        );
    }
}

#[test]
fn scale_hybrid_background_digest_is_stable_across_shard_counts() {
    for seed in [42u64, 7, 1003] {
        let seq = scale_run(seed, EngineKind::Hybrid, 48, ShardKind::Sequential);
        let diag = seq.fluid.expect("background run exposes fluid diagnostics");
        assert_eq!(diag.flows, 48, "seed {seed}");
        assert!(diag.updates_applied > 0, "seed {seed}");
        for n in [1u16, 2, 4] {
            let shd = scale_run(seed, EngineKind::Hybrid, 48, ShardKind::Sharded(n));
            assert_eq!(
                seq.digest, shd.digest,
                "hybrid digests diverged (seed {seed}, {n} shards)"
            );
            assert_eq!(seq.events_processed, shd.events_processed);
            assert_eq!(seq.datagrams, shd.datagrams);
            let sharded_diag = shd
                .fluid
                .expect("sharded background run exposes fluid diagnostics");
            assert_eq!(
                diag.updates_applied, sharded_diag.updates_applied,
                "rate updates lost or duplicated crossing domains (seed {seed}, {n} shards)"
            );
        }
    }
}

#[test]
fn background_pressure_actually_reaches_the_foreground() {
    // Not an identity test: the point of the background population is
    // to squeeze the ring, and the digest must reflect that — a fluid
    // engine that never touched the packet path would pass every
    // equivalence test above while modelling nothing.
    let calm = scale_run(42, EngineKind::Hybrid, 0, ShardKind::Sequential);
    let squeezed = scale_run(42, EngineKind::Hybrid, 48, ShardKind::Sequential);
    assert_ne!(
        calm.digest, squeezed.digest,
        "48 background flows left no trace on the foreground"
    );
}
