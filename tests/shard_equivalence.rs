//! Shard equivalence: a simulation partitioned into N shard domains
//! must be byte-identical to the sequential engine — same figures,
//! same telemetry counters, same reports, same lineage and
//! time-series dumps — for every shard count and every seed.
//! Sharding is an execution strategy (conservative parallel
//! discrete-event simulation with lookahead barriers, DESIGN.md §5);
//! it may only change wall-clock time, never a single result byte.

use turb_netsim::ShardKind;
use turbulence::figures;
use turbulence::runner::{self, CorpusResult};
use turbulence::scale::{run_scale, ScaleRunConfig};

/// Per-run measurements that must not depend on the execution strategy.
fn run_digest(c: &CorpusResult) -> Vec<(u8, String, u64, u64, u64, u32, usize)> {
    c.runs
        .iter()
        .map(|r| {
            (
                r.set_id,
                format!("{:?}", r.class),
                r.seed,
                r.real.bytes_total,
                r.wmp.bytes_total,
                r.real.packets_lost + r.wmp.packets_lost,
                r.capture.len(),
            )
        })
        .collect()
}

/// Telemetry counters (never wall-clock histograms) across the corpus.
fn counter_digest(c: &CorpusResult) -> Vec<(String, String, u64)> {
    c.aggregate_metrics()
        .counters()
        .map(|(n, comp, v)| (n.to_string(), comp.to_string(), v))
        .collect()
}

/// Set 2 (the fastest full pair run) with every recorder on.
fn subset(seed: u64, shards: ShardKind) -> CorpusResult {
    let mut configs = runner::corpus_configs_for_sets(seed, &[2]);
    for c in &mut configs {
        *c = c.clone().with_lineage().with_timeseries(0);
        c.shards = shards;
    }
    runner::run_configs(&configs)
}

/// Assert two equally-shaped corpus results are byte-identical in
/// everything but wall clock and engine diagnostics.
fn assert_identical(seq: &CorpusResult, shd: &CorpusResult, what: &str) {
    // `full_digest` covers Figures 1, 2, 3, 5, 11 and 14 (all fifteen
    // are pinned in `tests/figures_golden.rs`), and Figure 3's
    // polynomial fits need more runs than one set has, so only digest
    // complete corpora.
    if seq.runs.len() == 13 {
        assert_eq!(
            figures::full_digest(seq),
            figures::full_digest(shd),
            "figures diverged ({what})"
        );
    }
    assert_eq!(
        run_digest(seq),
        run_digest(shd),
        "run measurements diverged ({what})"
    );
    assert_eq!(
        counter_digest(seq),
        counter_digest(shd),
        "telemetry counters diverged ({what})"
    );
    for (a, b) in seq.runs.iter().zip(&shd.runs) {
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
    }
}

#[test]
fn sharded_matches_sequential_with_all_recorders_for_every_seed() {
    for seed in [42u64, 7, 1003] {
        let seq = subset(seed, ShardKind::Sequential);
        for n in [1u16, 2, 4, 8] {
            let shd = subset(seed, ShardKind::Sharded(n));
            assert_identical(&seq, &shd, &format!("seed {seed}, {n} shards"));
        }
    }
}

#[test]
fn sharded_matches_sequential_on_the_full_corpus() {
    let seed = 42u64;
    let run = |shards: ShardKind| {
        let mut configs = runner::corpus_configs(seed);
        for c in &mut configs {
            c.telemetry = true;
            c.shards = shards;
        }
        runner::run_configs(&configs)
    };
    let seq = run(ShardKind::Sequential);
    assert_eq!(seq.runs.len(), 13);
    for n in [2u16, 4] {
        let shd = run(ShardKind::Sharded(n));
        assert_identical(&seq, &shd, &format!("full corpus, {n} shards"));
    }
}

#[test]
fn sharded_matches_sequential_on_the_scale_scenario_for_every_seed() {
    use turb_netsim::topology::ScaleConfig;
    use turb_netsim::SimDuration;
    let scenario = ScaleConfig {
        groups: 8,
        clients_per_group: 24,
        packets_per_client: 10,
        send_interval: SimDuration::from_millis(30),
        payload_bytes: 300,
        ..ScaleConfig::default()
    };
    for seed in [42u64, 7, 1003] {
        let seq = run_scale(&ScaleRunConfig {
            seed,
            scenario: scenario.clone(),
            shards: ShardKind::Sequential,
            progress: false,
        });
        assert!(seq.datagrams > 0);
        for n in [1u16, 2, 4, 8] {
            let shd = run_scale(&ScaleRunConfig {
                seed,
                scenario: scenario.clone(),
                shards: ShardKind::Sharded(n),
                progress: false,
            });
            assert_eq!(
                seq.digest, shd.digest,
                "scale digests diverged (seed {seed}, {n} shards)"
            );
            assert_eq!(seq.events_processed, shd.events_processed);
            assert_eq!(seq.datagrams, shd.datagrams);
            let diag = shd.diag.expect("sharded run exposes diagnostics");
            assert_eq!(diag.shards, n);
            assert_eq!(
                diag.exchange_reallocs, 0,
                "steady-state exchange must not reallocate (seed {seed}, {n} shards)"
            );
        }
    }
}

#[test]
fn shard_diagnostics_identify_the_partition() {
    let seq = &subset(11, ShardKind::Sequential).runs[0];
    let shd = &subset(11, ShardKind::Sharded(4)).runs[0];
    assert!(seq.telemetry.as_ref().unwrap().shards.is_none());
    let diag = shd
        .telemetry
        .as_ref()
        .unwrap()
        .shards
        .as_ref()
        .expect("sharded run reports diagnostics");
    assert_eq!(diag.shards, 4);
    assert_eq!(diag.per_domain.len(), 4);
    assert!(diag.barriers > 0);
    assert!(diag.lookahead_ns > 0);
    // Domain event counts sum to the engine total.
    let total: u64 = diag.per_domain.iter().map(|d| d.events_processed).sum();
    assert_eq!(
        total,
        shd.telemetry.as_ref().unwrap().report.sim_events_processed
    );
}

#[test]
fn more_shards_than_nodes_is_rejected_loudly() {
    let result = std::panic::catch_unwind(|| {
        run_scale(&ScaleRunConfig {
            seed: 1,
            scenario: turb_netsim::topology::ScaleConfig {
                groups: 2,
                clients_per_group: 1,
                packets_per_client: 1,
                send_interval: turb_netsim::SimDuration::from_millis(10),
                payload_bytes: 100,
                ..turb_netsim::topology::ScaleConfig::default()
            },
            // 2 groups x (1 client + router + server) = 6 nodes.
            shards: ShardKind::Sharded(500),
            progress: false,
        })
    });
    let message = match result {
        Ok(_) => panic!("oversharding must panic"),
        Err(panic) => panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    };
    assert!(
        message.contains("shard count must not exceed the node count"),
        "unhelpful panic message: {message:?}"
    );
}
