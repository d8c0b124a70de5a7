//! Scheduler equivalence: the timing wheel must be byte-identical to
//! the binary heap it replaced — same figures, same telemetry
//! counters, same reports — for every seed. The wheel
//! only changes how fast the next event is found, never which event
//! is next.
//!
//! Why this holds (see DESIGN.md §5): both engines pop events in
//! strict `(time, insertion seq)` order. The wheel quantises *when* a
//! tick's events become current, but a per-tick heap restores the
//! exact sub-tick order, so the pop sequence is the heap's pop
//! sequence, event for event.

use turb_netsim::SchedulerKind;
use turbulence::runner::{self, CorpusResult};
use turbulence::{figures, PairRunConfig};

/// Per-run measurements that must not depend on the event queue.
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

/// The full 13-run corpus with telemetry on, under one engine.
fn full_corpus(seed: u64, scheduler: SchedulerKind) -> CorpusResult {
    let mut configs = runner::corpus_configs(seed);
    for c in &mut configs {
        c.telemetry = true;
        c.scheduler = scheduler;
    }
    runner::run_configs(&configs)
}

/// Set 2 only (the fastest full pair run), telemetry on.
fn subset_configs(seed: u64, scheduler: SchedulerKind) -> Vec<PairRunConfig> {
    let mut configs = runner::corpus_configs_for_sets(seed, &[2]);
    for c in &mut configs {
        c.telemetry = true;
        c.scheduler = scheduler;
    }
    configs
}

#[test]
fn wheel_matches_heap_on_the_full_corpus_for_every_seed() {
    for seed in [42u64, 7, 1003] {
        let wheel = full_corpus(seed, SchedulerKind::Wheel);
        let heap = full_corpus(seed, SchedulerKind::Heap);
        assert_eq!(wheel.runs.len(), 13);

        assert_eq!(
            figures::full_digest(&wheel),
            figures::full_digest(&heap),
            "figures diverged (seed {seed})"
        );
        assert_eq!(
            run_digest(&wheel),
            run_digest(&heap),
            "run measurements diverged (seed {seed})"
        );
        assert_eq!(
            counter_digest(&wheel),
            counter_digest(&heap),
            "telemetry counters diverged (seed {seed})"
        );
        for (a, b) in wheel.runs.iter().zip(&heap.runs) {
            let (Some(ta), Some(tb)) = (&a.telemetry, &b.telemetry) else {
                panic!("telemetry was requested for every run");
            };
            // Reports agree everywhere except wall clock (inherently
            // nondeterministic).
            let mut ra = ta.report.clone();
            let mut rb = tb.report.clone();
            ra.wall_ns = 0;
            rb.wall_ns = 0;
            assert_eq!(ra, rb, "reports diverged (seed {seed})");
        }
    }
}

#[test]
fn scheduler_diagnostics_identify_the_engine() {
    let wheel = &runner::run_configs(&subset_configs(11, SchedulerKind::Wheel)).runs[0];
    let heap = &runner::run_configs(&subset_configs(11, SchedulerKind::Heap)).runs[0];
    let tw = wheel.telemetry.as_ref().unwrap();
    let th = heap.telemetry.as_ref().unwrap();
    assert_eq!(tw.scheduler, SchedulerKind::Wheel);
    assert_eq!(th.scheduler, SchedulerKind::Heap);
    // The wheel reports its internal activity; the heap has none to
    // report. Neither shows up in the byte-identical artefacts above.
    assert!(tw.sched.slots_touched > 0, "{:?}", tw.sched);
    assert_eq!(th.sched, turb_netsim::SchedStats::default());
    // Both engines took the same transit paths.
    assert_eq!(tw.report.transit_fastpath, th.report.transit_fastpath);
    assert_eq!(tw.report.transit_slowpath, th.report.transit_slowpath);
    assert!(
        tw.report.transit_fastpath > 0,
        "streaming traffic fits the MTU and must use the fast path"
    );
}

#[test]
fn parallel_runs_respect_the_configured_scheduler() {
    // The pool path and the sequential path must hand the scheduler
    // choice through unchanged.
    let configs = subset_configs(3, SchedulerKind::Heap);
    let pooled = runner::run_configs_parallel(&configs, 2);
    for run in &pooled.runs {
        let t = run.telemetry.as_ref().unwrap();
        assert_eq!(t.scheduler, SchedulerKind::Heap);
        assert_eq!(t.sched, turb_netsim::SchedStats::default());
    }
}
