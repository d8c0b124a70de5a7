//! # turb-obs — deterministic telemetry for the turbulence workspace
//!
//! Zero dependencies, a handful of pieces:
//!
//! * [`Interner`]/[`SymbolId`] — the shared symbol table: component
//!   labels and metric keys are interned once and the hot paths deal
//!   in `u32` handles, never per-event `String` clones.
//! * [`MetricsRegistry`] — counters, gauges and mergeable
//!   [`LogHistogram`] latency sketches keyed by a `&'static str`
//!   metric name plus an interned component label, rendered
//!   Prometheus-style by [`MetricsRegistry::render_text`].
//! * [`TimeSeriesRecorder`] — fixed simulated-time windows (default
//!   1 s) over counters and gauges, ring-buffered per series, exported
//!   as a [`SeriesDump`] for `turbulence watch` and plotting.
//! * [`ScopeTimer`] — wall-clock scopes that observe their duration
//!   into a log-bucket sketch when finished.
//!
//! ## The no-perturbation invariant
//!
//! Telemetry must never change simulation results. Nothing in this
//! crate draws randomness, schedules events, or inspects simulator
//! state; recording a metric is a pure integer/float update on the
//! side. Instrumented components keep counters that are always on
//! (plain `u64` increments, present whether or not anyone reads
//! them), and each recorder (lineage, time series, session rollups)
//! is switched on on its own, so a run with every recorder on is
//! bit-identical to the same seed with all of them off. The workspace
//! `tests/telemetry.rs` suite asserts this end to end.

pub mod intern;
pub mod lineage;
mod loghist;
mod metrics;
pub mod progress;
mod report;
pub mod session;
pub mod timeseries;

pub use intern::{Interner, SymbolId};
pub use lineage::{
    DropCause, EventLog, LineageDump, LineageEvent, LineagePart, LineageRecorder, PacketizeMeta,
    PostMortem, SpanEvents, SpanOrigin, SpanOutcome, SpanTimeline, Stage, StageSamples,
    SPAN_DOMAIN_SHIFT, SPAN_LOCAL_MASK,
};
pub use loghist::LogHistogram;
pub use metrics::{MetricKey, MetricsRegistry};
pub use progress::ProgressMeter;
pub use report::{CheckReport, FragReport, LinkReport, PlayerReport, PropCheckReport, RunReport};
pub use session::{
    BadnessKey, SessionDump, SessionRecorder, SessionRollup, SessionSampler, SessionTotals,
    DEFAULT_SESSION_SAMPLE_PERMILLE, SESSION_ROLLUP_BYTES,
};
pub use timeseries::{
    SeriesData, SeriesDump, SeriesId, SeriesKind, TimeSeriesRecorder, DEFAULT_WINDOW_CAP,
    DEFAULT_WINDOW_NS,
};

use std::time::Instant;

/// A wall-clock profiling scope. Create with [`ScopeTimer::start`],
/// then call [`ScopeTimer::finish`] to observe the
/// elapsed nanoseconds into `<name>` in a registry's log-bucket
/// sketch, or [`ScopeTimer::elapsed_ns`] to just read the clock.
///
/// Wall-clock time is inherently nondeterministic, so it is kept out
/// of anything that feeds figure data — it only ever lands in
/// telemetry sketches.
#[derive(Debug)]
pub struct ScopeTimer {
    name: &'static str,
    component: String,
    started: Instant,
}

impl ScopeTimer {
    /// Start timing now.
    pub fn start(name: &'static str, component: &str) -> ScopeTimer {
        ScopeTimer {
            name,
            component: component.to_string(),
            started: Instant::now(),
        }
    }

    /// Nanoseconds since the scope started (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stop timing and observe the duration into `registry` under
    /// `<name>` (a log-bucket sketch) with the scope's component
    /// label. Returns the elapsed nanoseconds.
    pub fn finish(self, registry: &mut MetricsRegistry) -> u64 {
        let elapsed = self.elapsed_ns();
        registry.log_observe(self.name, &self.component, elapsed);
        elapsed
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is
/// unavailable. Host-machine state like wall-clock time: progress
/// reporting only, never part of figure data.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // The progress heartbeat reports this; on any Linux host it must
        // read a real high-water mark.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn scope_timer_lands_in_log_sketch() {
        let mut reg = MetricsRegistry::new();
        let timer = ScopeTimer::start("pair_run_wall_ns", "set1/high");
        std::hint::black_box(0u64);
        let elapsed = timer.finish(&mut reg);
        let hist = reg.log_histogram("pair_run_wall_ns", "set1/high").unwrap();
        assert_eq!(hist.count(), 1);
        let _ = elapsed;
    }
}
