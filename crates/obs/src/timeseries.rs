//! Windowed time-series over simulated time.
//!
//! End-of-run aggregates say *how much* turbulence a run saw; the
//! fleet-scale ROADMAP items need to see *when* — offered vs delivered
//! bandwidth, per-cause loss, queue depth, and buffer occupancy as
//! curves over simulated time. A [`TimeSeriesRecorder`] buckets
//! integer samples into fixed simulated-time windows (default 1 s),
//! ring-buffered per series so memory stays bounded however long a
//! simulation runs.
//!
//! ## The no-perturbation invariant, again
//!
//! Recording follows the same discipline as lineage: hooks fire at
//! event time with values the simulator already computed, draw no
//! randomness, schedule no events, and never feed anything back — a
//! run with the recorder on is byte-identical to the same seed with it
//! off. Simulated time is monotone, so appends only ever touch the
//! newest window; there is no reordering and no timer.
//!
//! Series keys are `(&'static str, SymbolId)` pairs against the shared
//! [`Interner`]. A series is created by its first sample, given by
//! name ([`TimeSeriesRecorder::counter_add`],
//! [`TimeSeriesRecorder::gauge_max`]), which returns a [`SeriesId`];
//! a hot hook keeps that handle and records every later sample through
//! [`TimeSeriesRecorder::record`]. Each series keeps its open (newest)
//! window apart from its ring, so a sample inside it is one compare
//! against the window's end and one add — no name lookup, no division,
//! no ring access. The ring, the zero-fill of idle windows and the
//! eviction run once per series per window, when a sample opens a
//! later one. An idle gap zero-fills at most one ring's worth of
//! windows; the rest of the gap is counted as evicted without being
//! materialised, so memory is bounded by the ring however long the
//! gap. [`TimeSeriesRecorder::finish`]
//! resolves the symbols into a self-contained [`SeriesDump`] that can
//! be exported (JSONL/CSV), merged across runs, and rendered by
//! `turbulence watch`.

use crate::intern::{Interner, SymbolId};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::num::NonZeroU32;

/// Default window width: 1 simulated second.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000_000;

/// Default ring capacity per series, in windows. At the 1 s default
/// width this covers more than an hour of simulated time per series
/// before the oldest windows are evicted.
pub const DEFAULT_WINDOW_CAP: usize = 4096;

/// How samples combine within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Deltas sum within a window (bytes, drops, packets).
    Counter,
    /// The window keeps the maximum sample (queue depth, buffer fill).
    Gauge,
}

impl SeriesKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }

    /// `sample` folded into a window holding `window`.
    fn combine(self, window: u64, sample: u64) -> u64 {
        match self {
            SeriesKind::Counter => window + sample,
            SeriesKind::Gauge => window.max(sample),
        }
    }
}

/// A handle on one series of a [`TimeSeriesRecorder`], returned by the
/// sample that created the series and valid for that recorder only.
/// It carries the series' kind, so recording through it reads nothing
/// but the open window. `Option<SeriesId>` is 4 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(NonZeroU32);

/// The handle bit marking a gauge.
const GAUGE_BIT: u32 = 1 << 31;

impl SeriesId {
    fn new(index: usize, kind: SeriesKind) -> SeriesId {
        let raw = u32::try_from(index + 1)
            .ok()
            .filter(|&raw| raw < GAUGE_BIT)
            .expect("series count fits 31 bits");
        let kind_bit = match kind {
            SeriesKind::Counter => 0,
            SeriesKind::Gauge => GAUGE_BIT,
        };
        SeriesId(NonZeroU32::new(raw | kind_bit).expect("raw is at least 1"))
    }

    fn index(self) -> usize {
        ((self.0.get() & !GAUGE_BIT) - 1) as usize
    }

    fn kind(self) -> SeriesKind {
        if self.0.get() & GAUGE_BIT == 0 {
            SeriesKind::Counter
        } else {
            SeriesKind::Gauge
        }
    }
}

/// A series' open (newest) window. Kept in a dense table of its own,
/// apart from the ring of closed windows, so a sample inside it touches
/// nothing else.
#[derive(Debug, Clone, Copy)]
struct OpenWindow {
    /// Exclusive end, in ns: every sample before it combines into
    /// `value`. Saturates at `u64::MAX`.
    end: u64,
    /// The window's value so far.
    value: u64,
}

/// One live series inside the recorder, less its open window.
#[derive(Debug, Clone)]
struct SeriesBuf {
    kind: SeriesKind,
    /// Window index of the open window.
    open_window: u64,
    /// Closed windows up to the open one, oldest first; at most
    /// `capacity - 1` of them.
    closed: VecDeque<u64>,
    /// Windows evicted from the front of the ring.
    evicted: u64,
    /// Lifetime total of every closed window (counters) — survives
    /// eviction, so reconciliation against always-on counters never
    /// depends on ring capacity. For gauges this is the maximum.
    closed_total: u64,
    name: &'static str,
    comp: SymbolId,
}

/// The recorder: a set of ring-buffered windowed series fed at event
/// time.
#[derive(Debug, Clone)]
pub struct TimeSeriesRecorder {
    window_ns: u64,
    capacity: usize,
    /// Indexed by [`SeriesId::index`], like `series`.
    open: Vec<OpenWindow>,
    series: Vec<SeriesBuf>,
    /// Indexed by `SymbolId::index()`: the component's series names and
    /// their handles. Read only to resolve a sample given by name.
    by_comp: Vec<Vec<(&'static str, SeriesId)>>,
}

impl TimeSeriesRecorder {
    /// A recorder with `window_ns`-wide windows (0 is coerced to the
    /// default) and the default ring capacity.
    pub fn new(window_ns: u64) -> TimeSeriesRecorder {
        TimeSeriesRecorder::with_capacity(window_ns, DEFAULT_WINDOW_CAP)
    }

    /// A recorder with an explicit per-series ring capacity.
    pub fn with_capacity(window_ns: u64, capacity: usize) -> TimeSeriesRecorder {
        TimeSeriesRecorder {
            window_ns: if window_ns == 0 {
                DEFAULT_WINDOW_NS
            } else {
                window_ns
            },
            capacity: capacity.max(1),
            open: Vec::new(),
            series: Vec::new(),
            by_comp: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The configured per-series ring capacity, in windows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Retained windows summed over every series.
    pub fn window_count(&self) -> usize {
        self.series.iter().map(|s| s.closed.len() + 1).sum()
    }

    /// Add `delta` to the counter series `(name, comp)` in the window
    /// containing `time_ns`, creating the series on its first sample.
    /// Returns the series' handle for later [`Self::record`] calls.
    pub fn counter_add(
        &mut self,
        time_ns: u64,
        name: &'static str,
        comp: SymbolId,
        delta: u64,
    ) -> SeriesId {
        self.record_named(SeriesKind::Counter, time_ns, name, comp, delta)
    }

    /// Raise the gauge series `(name, comp)` to `value` in the window
    /// containing `time_ns` if the window is below it, creating the
    /// series on its first sample. Returns the series' handle.
    pub fn gauge_max(
        &mut self,
        time_ns: u64,
        name: &'static str,
        comp: SymbolId,
        value: u64,
    ) -> SeriesId {
        self.record_named(SeriesKind::Gauge, time_ns, name, comp, value)
    }

    /// Find `(name, comp)` or create it with this first sample, then
    /// record through its handle.
    fn record_named(
        &mut self,
        kind: SeriesKind,
        time_ns: u64,
        name: &'static str,
        comp: SymbolId,
        value: u64,
    ) -> SeriesId {
        if comp.index() >= self.by_comp.len() {
            self.by_comp.resize_with(comp.index() + 1, Vec::new);
        }
        let slots = &mut self.by_comp[comp.index()];
        // Pointer equality is the fast path; the content compare keeps
        // one literal with two addresses (across codegen units) on one
        // series.
        if let Some(&(_, id)) = slots
            .iter()
            .find(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            assert_eq!(id.kind(), kind, "series {name} recorded with mixed kinds");
            self.record(id, time_ns, value);
            return id;
        }
        let id = SeriesId::new(self.series.len(), kind);
        let window = time_ns / self.window_ns;
        self.open.push(OpenWindow {
            end: window_end(window, self.window_ns),
            value,
        });
        self.series.push(SeriesBuf {
            kind,
            open_window: window,
            closed: VecDeque::new(),
            evicted: 0,
            closed_total: 0,
            name,
            comp,
        });
        slots.push((name, id));
        id
    }

    /// Record `value` at `time_ns` into the series behind `id`: a
    /// counter adds it to the window, a gauge raises the window to it.
    /// Within the open window this is one compare and one add; the
    /// ring is touched only when a sample opens a later window.
    #[inline]
    pub fn record(&mut self, id: SeriesId, time_ns: u64, value: u64) {
        let open = &mut self.open[id.index()];
        if time_ns < open.end {
            debug_assert!(
                time_ns / self.window_ns >= self.series[id.index()].open_window,
                "simulated time went backwards in series {}",
                self.series[id.index()].name
            );
            open.value = id.kind().combine(open.value, value);
        } else {
            self.open_window(id, time_ns, value);
        }
    }

    /// Close the open window of `id` and open the one holding
    /// `time_ns` with `value`. Idle windows between the two are
    /// zero-filled; at most `capacity - 1` of them can be retained
    /// behind the new window, so when the gap is longer everything
    /// older is evicted and the excess is counted, not pushed.
    #[cold]
    fn open_window(&mut self, id: SeriesId, time_ns: u64, value: u64) {
        let cap = self.capacity as u64;
        let window_ns = self.window_ns;
        let open = &mut self.open[id.index()];
        let s = &mut self.series[id.index()];
        let w = time_ns / window_ns;
        if w <= s.open_window {
            // The open window reaches past `u64::MAX` ns.
            debug_assert_eq!(w, s.open_window, "simulated time went backwards");
            open.value = s.kind.combine(open.value, value);
            return;
        }
        s.closed_total = s.kind.combine(s.closed_total, open.value);
        s.closed.push_back(open.value);
        let gap = w - s.open_window - 1;
        let kept = gap.min(cap - 1);
        if kept < gap {
            s.evicted += gap - kept + s.closed.len() as u64;
            s.closed.clear();
        }
        s.closed.extend(std::iter::repeat_n(0, kept as usize));
        while s.closed.len() as u64 >= cap {
            s.closed.pop_front();
            s.evicted += 1;
        }
        s.open_window = w;
        *open = OpenWindow {
            end: window_end(w, window_ns),
            value,
        };
    }

    /// Resolve the symbols through `interner` and snapshot every
    /// series into a self-contained dump, sorted canonically by
    /// `(metric, component)`.
    pub fn finish(&self, interner: &Interner) -> SeriesDump {
        let mut series: Vec<SeriesData> = self
            .series
            .iter()
            .zip(&self.open)
            .map(|(s, open)| SeriesData {
                metric: s.name.to_string(),
                component: interner.resolve(s.comp).to_string(),
                kind: s.kind,
                first_window: s.open_window - s.closed.len() as u64,
                values: s.closed.iter().copied().chain([open.value]).collect(),
                evicted: s.evicted,
                total: s.kind.combine(s.closed_total, open.value),
            })
            .collect();
        series.sort_by(|a, b| (&a.metric, &a.component).cmp(&(&b.metric, &b.component)));
        SeriesDump {
            window_ns: self.window_ns,
            series,
        }
    }
}

/// Exclusive end, in ns, of window `window`, saturating at `u64::MAX`.
fn window_end(window: u64, window_ns: u64) -> u64 {
    window.saturating_add(1).saturating_mul(window_ns)
}

/// One exported series: resolved labels plus the windowed values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesData {
    /// Metric name.
    pub metric: String,
    /// Component label.
    pub component: String,
    /// How samples combined within windows.
    pub kind: SeriesKind,
    /// Window index of `values[0]` (absolute: simulated time zero is
    /// window 0 regardless of eviction).
    pub first_window: u64,
    /// One value per window, contiguous from `first_window`.
    pub values: Vec<u64>,
    /// Windows evicted because the ring was full.
    pub evicted: u64,
    /// Lifetime counter total (or all-time gauge maximum) — unaffected
    /// by eviction.
    pub total: u64,
}

impl SeriesData {
    /// Sum of the retained windows.
    pub fn retained_sum(&self) -> u64 {
        self.values.iter().sum()
    }
}

/// A self-contained snapshot of every series in a run, in canonical
/// `(metric, component)` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDump {
    /// Window width shared by every series.
    pub window_ns: u64,
    /// The series, sorted by `(metric, component)`.
    pub series: Vec<SeriesData>,
}

impl SeriesDump {
    /// An empty dump with the given window width.
    pub fn empty(window_ns: u64) -> SeriesDump {
        SeriesDump {
            window_ns,
            series: Vec::new(),
        }
    }

    /// True when no series were recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Retained windows summed over every series.
    pub fn window_count(&self) -> usize {
        self.series.iter().map(|s| s.values.len()).sum()
    }

    /// Approximate retained memory: 8 bytes per window plus the label
    /// strings. Bench telemetry tracks this so window-count growth is
    /// visible in the perf trajectory.
    pub fn memory_bytes(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.values.len() * 8 + s.metric.len() + s.component.len() + 64)
            .sum()
    }

    /// Lifetime total of `metric` summed across components (counters).
    pub fn total_of(&self, metric: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.metric == metric)
            .map(|s| s.total)
            .sum()
    }

    /// The series for `(metric, component)` if present.
    pub fn series_for(&self, metric: &str, component: &str) -> Option<&SeriesData> {
        self.series
            .binary_search_by(|s| {
                (s.metric.as_str(), s.component.as_str()).cmp(&(metric, component))
            })
            .ok()
            .map(|i| &self.series[i])
    }

    /// Merge another dump (e.g. from another run of a corpus) into
    /// this one: counter windows add, gauge windows take the max,
    /// aligned on absolute window indices. Canonical regardless of
    /// merge order for counters; panics on mismatched window widths.
    pub fn merge(&mut self, other: &SeriesDump) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge dumps with different window widths"
        );
        for s in &other.series {
            match self.series.binary_search_by(|e| {
                (e.metric.as_str(), e.component.as_str())
                    .cmp(&(s.metric.as_str(), s.component.as_str()))
            }) {
                Err(pos) => self.series.insert(pos, s.clone()),
                Ok(pos) => {
                    let e = &mut self.series[pos];
                    assert_eq!(e.kind, s.kind, "kind mismatch merging {}", s.metric);
                    // Re-base both onto the smaller first_window.
                    let first = e.first_window.min(s.first_window);
                    let last = (e.first_window + e.values.len() as u64)
                        .max(s.first_window + s.values.len() as u64);
                    let mut values = vec![0u64; (last - first) as usize];
                    for (i, v) in e.values.iter().enumerate() {
                        values[(e.first_window - first) as usize + i] = *v;
                    }
                    for (i, v) in s.values.iter().enumerate() {
                        let slot = &mut values[(s.first_window - first) as usize + i];
                        match e.kind {
                            SeriesKind::Counter => *slot += v,
                            SeriesKind::Gauge => *slot = (*slot).max(*v),
                        }
                    }
                    e.first_window = first;
                    e.values = values;
                    e.evicted += s.evicted;
                    e.total = match e.kind {
                        SeriesKind::Counter => e.total + s.total,
                        SeriesKind::Gauge => e.total.max(s.total),
                    };
                }
            }
        }
    }

    /// JSON Lines export: one object per series, values inline, in
    /// canonical order. Deterministic byte-for-byte for a given dump.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let _ = write!(
                out,
                "{{\"metric\":\"{}\",\"component\":\"{}\",\"kind\":\"{}\",\"window_ns\":{},\"first_window\":{},\"evicted\":{},\"total\":{},\"values\":[",
                s.metric,
                s.component,
                s.kind.label(),
                self.window_ns,
                s.first_window,
                s.evicted,
                s.total,
            );
            for (i, v) in s.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Long-format CSV export for plotting:
    /// `window_start_s,metric,component,value`, rows sorted by
    /// `(window, metric, component)`. Deterministic byte-for-byte.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<(u64, &str, &str, u64)> = Vec::new();
        for s in &self.series {
            for (i, v) in s.values.iter().enumerate() {
                rows.push((s.first_window + i as u64, &s.metric, &s.component, *v));
            }
        }
        rows.sort();
        let mut out = String::from("window_start_s,metric,component,value\n");
        for (w, metric, component, v) in rows {
            let start_s = (w * self.window_ns) as f64 / 1e9;
            let _ = writeln!(out, "{start_s},{metric},{component},{v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> (TimeSeriesRecorder, Interner, SymbolId) {
        let mut interner = Interner::new();
        let sym = interner.intern("link:0");
        (TimeSeriesRecorder::new(DEFAULT_WINDOW_NS), interner, sym)
    }

    const S: u64 = DEFAULT_WINDOW_NS;

    #[test]
    fn counters_sum_within_windows_and_zero_fill_gaps() {
        let (mut ts, interner, sym) = rec();
        ts.counter_add(0, "tx_bytes", sym, 10);
        ts.counter_add(S / 2, "tx_bytes", sym, 5);
        ts.counter_add(3 * S + 1, "tx_bytes", sym, 7);
        let dump = ts.finish(&interner);
        let s = dump.series_for("tx_bytes", "link:0").unwrap();
        assert_eq!(s.first_window, 0);
        assert_eq!(s.values, vec![15, 0, 0, 7]);
        assert_eq!(s.total, 22);
        assert_eq!(s.retained_sum(), 22);
    }

    #[test]
    fn gauges_keep_the_window_maximum() {
        let (mut ts, interner, sym) = rec();
        ts.gauge_max(0, "queue_depth", sym, 4);
        ts.gauge_max(1, "queue_depth", sym, 9);
        ts.gauge_max(2, "queue_depth", sym, 6);
        ts.gauge_max(S, "queue_depth", sym, 2);
        let dump = ts.finish(&interner);
        let s = dump.series_for("queue_depth", "link:0").unwrap();
        assert_eq!(s.values, vec![9, 2]);
        assert_eq!(s.total, 9, "gauge total is the all-time maximum");
    }

    #[test]
    fn ring_evicts_oldest_windows_but_totals_survive() {
        let mut interner = Interner::new();
        let sym = interner.intern("c");
        let mut ts = TimeSeriesRecorder::with_capacity(S, 3);
        for w in 0..10u64 {
            ts.counter_add(w * S, "n", sym, 1);
        }
        let dump = ts.finish(&interner);
        let s = dump.series_for("n", "c").unwrap();
        assert_eq!(s.values.len(), 3);
        assert_eq!(s.first_window, 7);
        assert_eq!(s.evicted, 7);
        assert_eq!(s.total, 10, "lifetime total ignores eviction");
    }

    #[test]
    fn series_start_at_their_first_event_window() {
        let (mut ts, interner, sym) = rec();
        ts.counter_add(5 * S, "late", sym, 1);
        let dump = ts.finish(&interner);
        let s = dump.series_for("late", "link:0").unwrap();
        assert_eq!(s.first_window, 5);
        assert_eq!(s.values, vec![1]);
    }

    #[test]
    fn dump_is_sorted_and_exports_are_deterministic() {
        let mut interner = Interner::new();
        let b = interner.intern("b");
        let a = interner.intern("a");
        let mut ts = TimeSeriesRecorder::new(S);
        ts.counter_add(0, "z_metric", b, 1);
        ts.counter_add(0, "a_metric", b, 2);
        ts.counter_add(S, "a_metric", a, 3);
        let dump = ts.finish(&interner);
        let keys: Vec<(&str, &str)> = dump
            .series
            .iter()
            .map(|s| (s.metric.as_str(), s.component.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("a_metric", "a"), ("a_metric", "b"), ("z_metric", "b")]
        );
        assert_eq!(dump.to_jsonl(), ts.finish(&interner).to_jsonl());
        assert_eq!(dump.to_csv(), ts.finish(&interner).to_csv());
        assert!(dump.to_jsonl().contains(
            "{\"metric\":\"a_metric\",\"component\":\"b\",\"kind\":\"counter\",\"window_ns\":1000000000,\"first_window\":0,\"evicted\":0,\"total\":2,\"values\":[2]}"
        ));
        let csv = dump.to_csv();
        assert!(csv.starts_with("window_start_s,metric,component,value\n"));
        assert!(csv.contains("1,a_metric,a,3"));
    }

    #[test]
    fn merge_aligns_absolute_windows() {
        let mut interner = Interner::new();
        let sym = interner.intern("x");
        let mut r1 = TimeSeriesRecorder::new(S);
        r1.counter_add(0, "m", sym, 1);
        r1.counter_add(S, "m", sym, 2);
        let mut r2 = TimeSeriesRecorder::new(S);
        r2.counter_add(S, "m", sym, 10);
        r2.counter_add(2 * S, "m", sym, 20);
        let mut dump = r1.finish(&interner);
        dump.merge(&r2.finish(&interner));
        let s = dump.series_for("m", "x").unwrap();
        assert_eq!(s.values, vec![1, 12, 20]);
        assert_eq!(s.total, 33);
    }

    #[test]
    fn a_huge_idle_gap_is_evicted_without_being_materialised() {
        let mut interner = Interner::new();
        let sym = interner.intern("c");
        let mut ts = TimeSeriesRecorder::with_capacity(1, 4);
        ts.counter_add(0, "n", sym, 3);
        ts.counter_add(1, "n", sym, 4);
        let w = 1u64 << 40;
        ts.counter_add(w, "n", sym, 5);
        let dump = ts.finish(&interner);
        let s = dump.series_for("n", "c").unwrap();
        assert_eq!(s.first_window, w - 3);
        assert_eq!(s.evicted, w - 3);
        assert_eq!(s.values, vec![0, 0, 0, 5]);
        assert_eq!(s.total, 12);
    }

    /// The recorder's original path: push every window of the gap, then
    /// trim the ring to `cap`. Returns `(first_window, evicted, values)`.
    fn push_then_trim(cap: usize, samples: &[(u64, u64)]) -> (u64, u64, Vec<u64>) {
        let (mut first, mut evicted) = (samples[0].0, 0);
        let mut values: VecDeque<u64> = VecDeque::new();
        for &(w, v) in samples {
            let end = first + values.len() as u64;
            if w < end {
                *values.back_mut().unwrap() += v;
            } else {
                values.extend(std::iter::repeat_n(0, (w - end) as usize));
                values.push_back(v);
            }
            while values.len() > cap {
                values.pop_front();
                first += 1;
                evicted += 1;
            }
        }
        (first, evicted, values.into())
    }

    #[test]
    fn gaps_around_capacity_match_push_then_trim() {
        let mut interner = Interner::new();
        let sym = interner.intern("c");
        let cap = 5usize;
        for gap in [cap - 1, cap, cap + 1] {
            for lead in 1..=cap as u64 + 1 {
                let mut samples: Vec<(u64, u64)> = (0..lead).map(|w| (w, w + 1)).collect();
                let after = lead + gap as u64;
                samples.extend([(after, 100), (after, 1), (after + 2, 7)]);
                let mut ts = TimeSeriesRecorder::with_capacity(1, cap);
                for &(w, v) in &samples {
                    ts.counter_add(w, "n", sym, v);
                }
                let dump = ts.finish(&interner);
                let s = dump.series_for("n", "c").unwrap();
                assert_eq!(
                    (s.first_window, s.evicted, s.values.clone()),
                    push_then_trim(cap, &samples),
                    "gap {gap}, {lead} leading windows"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "recorded with mixed kinds")]
    fn a_series_recorded_under_two_kinds_panics() {
        let (mut ts, _interner, sym) = rec();
        ts.counter_add(0, "depth", sym, 1);
        ts.gauge_max(0, "depth", sym, 2);
    }

    #[test]
    fn zero_window_width_is_coerced_to_default() {
        let ts = TimeSeriesRecorder::new(0);
        assert_eq!(ts.window_ns(), DEFAULT_WINDOW_NS);
    }
}
