//! # turb-obs — deterministic telemetry for the turbulence workspace
//!
//! Zero dependencies, a handful of pieces:
//!
//! * [`Interner`]/[`SymbolId`] — the shared symbol table: component
//!   labels and metric keys are interned once and the hot paths deal
//!   in `u32` handles, never per-event `String` clones.
//! * [`MetricsRegistry`] — counters, gauges, fixed-bucket histograms,
//!   and mergeable [`LogHistogram`] latency sketches keyed by a
//!   `&'static str` metric name plus an interned component label,
//!   rendered Prometheus-style by [`MetricsRegistry::render_text`].
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
//! side. Instrumented components either keep counters that are always
//! on (plain `u64` increments, present whether or not anyone reads
//! them) or gate recording on [`Obs::enabled`], so a run with
//! telemetry on is bit-identical to the same seed with telemetry off.
//! The workspace `tests/telemetry.rs` suite asserts this end to end.

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
pub use metrics::{Histogram, MetricKey, MetricsRegistry, SCOPE_NS_BUCKETS};
pub use progress::ProgressMeter;
pub use report::{CheckReport, FragReport, LinkReport, PlayerReport, PropCheckReport, RunReport};
pub use session::{
    BadnessKey, SessionDump, SessionRecorder, SessionRollup, SessionSampler, SessionTotals,
    DEFAULT_SESSION_SAMPLE_PERMILLE, SESSION_ROLLUP_BYTES,
};
pub use timeseries::{
    SeriesData, SeriesDump, SeriesKind, TimeSeriesRecorder, DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_NS,
};

use std::time::Instant;

/// The telemetry context a component threads through a run: a metrics
/// registry (owning the shared symbol table) with a master switch.
///
/// When `enabled` is false every helper is a cheap no-op.
/// The interner inside [`Obs::metrics`] is live even while disabled,
/// so components can pre-intern their labels at construction time and
/// other observers (lineage, time-series) can share the table.
#[derive(Debug, Default)]
pub struct Obs {
    /// Master switch. Off means helpers do nothing.
    pub enabled: bool,
    /// Metrics recorded so far; also owns the shared [`Interner`].
    pub metrics: MetricsRegistry,
}

impl Obs {
    /// A disabled context (all recording is a no-op).
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// An enabled context.
    pub fn enabled() -> Obs {
        Obs {
            enabled: true,
            ..Obs::default()
        }
    }

    /// Intern a component label in the shared table. Works whether or
    /// not recording is enabled — construction-time interning must not
    /// depend on the telemetry switch, or ids would differ between
    /// instrumented and plain runs.
    pub fn intern(&mut self, component: &str) -> SymbolId {
        self.metrics.intern(component)
    }

    /// The shared symbol table.
    pub fn interner(&self) -> &Interner {
        self.metrics.interner()
    }

    /// Add to a counter when enabled.
    pub fn counter_add(&mut self, name: &'static str, component: &str, delta: u64) {
        if self.enabled {
            self.metrics.counter_add(name, component, delta);
        }
    }

    /// Set a gauge when enabled.
    pub fn gauge_set(&mut self, name: &'static str, component: &str, value: f64) {
        if self.enabled {
            self.metrics.gauge_set(name, component, value);
        }
    }

    /// Raise a high-water gauge when enabled.
    pub fn gauge_max(&mut self, name: &'static str, component: &str, value: f64) {
        if self.enabled {
            self.metrics.gauge_max(name, component, value);
        }
    }

    /// Observe a fixed-bucket histogram value when enabled.
    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        component: &str,
        bounds: &'static [f64],
        value: f64,
    ) {
        if self.enabled {
            self.metrics
                .histogram_observe(name, component, bounds, value);
        }
    }

    /// Observe a latency-class value into a log-bucket sketch when
    /// enabled.
    pub fn log_observe(&mut self, name: &'static str, component: &str, value: u64) {
        if self.enabled {
            self.metrics.log_observe(name, component, value);
        }
    }

    /// A context for one shard domain of a partitioned simulation:
    /// same switch, an *empty* metrics registry sharing the interner
    /// (so every construction-time [`SymbolId`] stays valid in every
    /// domain without double-counting pre-partition values at merge).
    /// The partitioner hands the original `Obs` to domain 0 and one of
    /// these to each of the rest.
    pub fn shard_clone(&self) -> Obs {
        Obs {
            enabled: self.enabled,
            metrics: self.metrics.fork_interner(),
        }
    }

    /// Start a wall-clock scope. Always measures (the cost is one
    /// `Instant::now`); whether the result lands in the registry is
    /// decided when the scope is finished.
    pub fn scope(&self, name: &'static str, component: &str) -> ScopeTimer {
        ScopeTimer::start(name, component)
    }
}

/// A wall-clock profiling scope. Create with [`ScopeTimer::start`] (or
/// [`Obs::scope`]), then call [`ScopeTimer::finish`] to observe the
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
    fn disabled_obs_records_nothing() {
        let mut obs = Obs::disabled();
        obs.counter_add("c_total", "x", 1);
        obs.gauge_max("g", "x", 2.0);
        obs.histogram_observe("h", "x", SCOPE_NS_BUCKETS, 3.0);
        obs.log_observe("l_ns", "x", 4);
        assert!(obs.metrics.is_empty());
    }

    #[test]
    fn enabled_obs_records() {
        let mut obs = Obs::enabled();
        obs.counter_add("c_total", "x", 2);
        assert_eq!(obs.metrics.counter("c_total", "x"), 2);
    }

    #[test]
    fn interning_works_while_disabled() {
        let mut obs = Obs::disabled();
        let a = obs.intern("link:0");
        let b = obs.intern("link:0");
        assert_eq!(a, b);
        assert_eq!(obs.interner().resolve(a), "link:0");
    }

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
