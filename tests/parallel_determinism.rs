//! Determinism under parallelism: `run_corpus_parallel` must be
//! byte-identical to the sequential runner for every thread count and
//! seed — the pool only changes wall-clock time, never results.
//!
//! Why this holds (see DESIGN.md): every pair run derives its own seed
//! from (base seed, set, class), owns its whole simulation and metrics
//! registry, and results merge back in canonical Table-1 order
//! regardless of which worker finished first.

use turbulence::runner::{self, CorpusResult};
use turbulence::{figures, PairRunConfig};

/// The figures that work on a corpus of any size, as one comparable
/// string. Debug formatting is exact for f64, so equal digests mean
/// byte-identical figure data.
fn figure_digest(c: &CorpusResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        figures::fig01_rtt_cdf(c),
        figures::fig02_hops_cdf(c),
        figures::fig05_fragmentation(c),
        figures::fig11_buffering_ratio(c),
    )
}

/// The figures that need the whole 13-run corpus (polynomial fits).
fn full_figure_digest(c: &CorpusResult) -> String {
    format!(
        "{}|{:?}|{:?}",
        figure_digest(c),
        figures::fig03_playback_vs_encoding(c),
        figures::fig14_framerate_vs_encoding(c),
    )
}

/// Per-run measurements that must not depend on scheduling.
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

fn telemetry_configs(seed: u64) -> Vec<PairRunConfig> {
    // Set 2 is the fastest full pair run; both classes, telemetry on.
    let mut configs = runner::corpus_configs_for_sets(seed, &[2]);
    for c in &mut configs {
        c.telemetry = true;
    }
    configs
}

#[test]
fn parallel_matches_sequential_for_every_thread_count_and_seed() {
    for seed in [42u64, 7, 1003] {
        let configs = telemetry_configs(seed);
        let sequential = runner::run_configs(&configs);
        let seq_figures = figure_digest(&sequential);
        let seq_runs = run_digest(&sequential);
        let seq_counters = counter_digest(&sequential);

        for threads in [1usize, 2, 8] {
            let parallel = runner::run_configs_parallel(&configs, threads);
            assert_eq!(
                seq_figures,
                figure_digest(&parallel),
                "figures diverged (seed {seed}, {threads} threads)"
            );
            assert_eq!(
                seq_runs,
                run_digest(&parallel),
                "run measurements diverged (seed {seed}, {threads} threads)"
            );
            assert_eq!(
                seq_counters,
                counter_digest(&parallel),
                "telemetry counters diverged (seed {seed}, {threads} threads)"
            );
            // Reports agree everywhere except wall clock (inherently
            // nondeterministic) and the descriptive thread count.
            for (a, b) in sequential.runs.iter().zip(&parallel.runs) {
                let (Some(ta), Some(tb)) = (&a.telemetry, &b.telemetry) else {
                    panic!("telemetry was requested for every run");
                };
                let mut ra = ta.report.clone();
                let mut rb = tb.report.clone();
                ra.wall_ns = 0;
                rb.wall_ns = 0;
                assert_eq!(ra, rb, "reports diverged (seed {seed}, {threads} threads)");
            }
        }
    }
}

#[test]
fn full_corpus_is_identical_across_the_pool() {
    // The whole 26-clip corpus once, sequential vs 8 workers. The
    // per-seed matrix above covers more thread counts on a subset;
    // this covers every data set and rate class.
    let sequential = runner::run_corpus(42);
    let parallel = runner::run_corpus_parallel(42, 8);
    assert_eq!(sequential.runs.len(), 13);
    assert_eq!(parallel.runs.len(), 13);
    assert_eq!(
        full_figure_digest(&sequential),
        full_figure_digest(&parallel)
    );
    assert_eq!(run_digest(&sequential), run_digest(&parallel));
}

#[test]
fn zero_threads_and_tiny_corpora_degrade_to_sequential() {
    let configs = runner::corpus_configs_for_sets(5, &[2]);
    // --threads 0 is auto: min(available cores, runs), so the pool
    // never spawns idle workers and the count depends on the host.
    let zero = runner::run_configs_parallel(&configs, 0);
    assert_eq!(
        zero.threads,
        turbulence::parallel::effective_threads(0, configs.len())
    );
    // A single-config corpus caps the pool at one worker.
    let single = runner::run_configs_parallel(&configs[..1], 8);
    assert_eq!(single.threads, 1);
    assert_eq!(single.runs.len(), 1);
    // An empty corpus is fine too.
    let empty = runner::run_configs_parallel(&[], 4);
    assert!(empty.runs.is_empty());
    assert_eq!(empty.threads, 1);
}

#[test]
fn aggregated_series_are_identical_across_thread_counts() {
    // Windowed time-series on for every run: the per-run dumps and the
    // corpus-wide aggregate (what `turbulence watch --corpus` renders
    // and exports) must be byte-identical however many workers ran the
    // corpus.
    let mut configs = telemetry_configs(42);
    for c in &mut configs {
        c.timeseries = true;
    }
    let sequential = runner::run_configs(&configs);
    let seq_dump = sequential.aggregate_series().expect("series were recorded");
    assert!(!seq_dump.is_empty());

    for threads in [2usize, 4, 8] {
        let parallel = runner::run_configs_parallel(&configs, threads);
        for (a, b) in sequential.runs.iter().zip(&parallel.runs) {
            assert_eq!(
                a.telemetry.as_ref().unwrap().series,
                b.telemetry.as_ref().unwrap().series,
                "per-run series diverged ({threads} threads)"
            );
        }
        let par_dump = parallel.aggregate_series().expect("series were recorded");
        assert_eq!(
            seq_dump, par_dump,
            "aggregated series diverged ({threads} threads)"
        );
        assert_eq!(seq_dump.to_jsonl(), par_dump.to_jsonl());
        assert_eq!(seq_dump.to_csv(), par_dump.to_csv());
    }
}
