//! The metrics registry: counters, gauges and log-bucket latency
//! sketches, keyed by a static metric name plus an interned
//! per-instance component label.
//!
//! Keys are `(&'static str, SymbolId)` pairs — the component string is
//! interned once per registry and every later record is a hash lookup
//! plus a binary search, no allocation. Entries are kept sorted by
//! `(metric name, component name)` at insertion time, so reads,
//! [`MetricsRegistry::counters`], and [`MetricsRegistry::render_text`]
//! iterate in canonical order without ever re-sorting. Everything is
//! deterministic: no operation draws randomness or perturbs caller
//! state, and [`MetricsRegistry::merge`] resolves symbols back to
//! strings, so per-worker registries with differently-ordered
//! interners combine into byte-identical results.

use crate::intern::{Interner, SymbolId};
use crate::loghist::LogHistogram;
use std::cmp::Ordering;
use std::fmt::Write as _;

/// A metric instance key: static metric name + interned component
/// label (e.g. `("link_dropped_queue_total", sym("link:3"))`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKey {
    /// Static metric name.
    pub name: &'static str,
    /// Interned component label (relative to the owning registry).
    pub comp: SymbolId,
}

/// The registry of all metrics recorded during a run.
///
/// Each store is a `Vec` kept sorted by `(name, component string)`;
/// the interner maps component labels to the `SymbolId`s inside
/// [`MetricKey`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    interner: Interner,
    counters: Vec<(MetricKey, u64)>,
    gauges: Vec<(MetricKey, f64)>,
    log_histograms: Vec<(MetricKey, LogHistogram)>,
}

/// Locate `(name, comp)` in a sorted store.
fn find<T>(
    entries: &[(MetricKey, T)],
    interner: &Interner,
    name: &str,
    comp: &str,
) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| match k.name.cmp(name) {
        Ordering::Equal => interner.resolve(k.comp).cmp(comp),
        ord => ord,
    })
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Intern a component label, returning an id usable with the
    /// `*_sym` fast paths and the other observers.
    pub fn intern(&mut self, component: &str) -> SymbolId {
        self.interner.intern(component)
    }

    /// Add `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &'static str, component: &str, delta: u64) {
        let comp = self.interner.intern(component);
        match find(&self.counters, &self.interner, name, component) {
            Ok(pos) => self.counters[pos].1 += delta,
            Err(pos) => self.counters.insert(pos, (MetricKey { name, comp }, delta)),
        }
    }

    /// [`MetricsRegistry::counter_add`] with a pre-interned component.
    pub fn counter_add_sym(&mut self, name: &'static str, comp: SymbolId, delta: u64) {
        let component = self.interner.resolve(comp);
        match self
            .counters
            .binary_search_by(|(k, _)| match k.name.cmp(name) {
                Ordering::Equal => self.interner.resolve(k.comp).cmp(component),
                ord => ord,
            }) {
            Ok(pos) => self.counters[pos].1 += delta,
            Err(pos) => self.counters.insert(pos, (MetricKey { name, comp }, delta)),
        }
    }

    /// Set a gauge to `value`.
    pub fn gauge_set(&mut self, name: &'static str, component: &str, value: f64) {
        let comp = self.interner.intern(component);
        match find(&self.gauges, &self.interner, name, component) {
            Ok(pos) => self.gauges[pos].1 = value,
            Err(pos) => self.gauges.insert(pos, (MetricKey { name, comp }, value)),
        }
    }

    /// Raise a gauge to `value` if it is below it (high-water marks).
    pub fn gauge_max(&mut self, name: &'static str, component: &str, value: f64) {
        let comp = self.interner.intern(component);
        match find(&self.gauges, &self.interner, name, component) {
            Ok(pos) => {
                if value > self.gauges[pos].1 {
                    self.gauges[pos].1 = value;
                }
            }
            Err(pos) => self.gauges.insert(pos, (MetricKey { name, comp }, value)),
        }
    }

    /// Observe `value` into a log-bucket latency sketch (created empty
    /// on first use). This is the home for every latency-class metric;
    /// sketches merge exactly across registries.
    pub fn log_observe(&mut self, name: &'static str, component: &str, value: u64) {
        let comp = self.interner.intern(component);
        match find(&self.log_histograms, &self.interner, name, component) {
            Ok(pos) => self.log_histograms[pos].1.observe(value),
            Err(pos) => {
                let mut h = LogHistogram::new();
                h.observe(value);
                self.log_histograms
                    .insert(pos, (MetricKey { name, comp }, h));
            }
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str, component: &str) -> u64 {
        match find(&self.counters, &self.interner, name, component) {
            Ok(pos) => self.counters[pos].1,
            Err(_) => 0,
        }
    }

    /// Sum of a counter over every component. The store is sorted by
    /// name first, so this is a binary search plus a bounded scan.
    pub fn counter_total(&self, name: &str) -> u64 {
        let start = self.counters.partition_point(|(k, _)| k.name < name);
        self.counters[start..]
            .iter()
            .take_while(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str, component: &str) -> Option<f64> {
        match find(&self.gauges, &self.interner, name, component) {
            Ok(pos) => Some(self.gauges[pos].1),
            Err(_) => None,
        }
    }

    /// Read a log-bucket sketch.
    pub fn log_histogram(&self, name: &str, component: &str) -> Option<&LogHistogram> {
        match find(&self.log_histograms, &self.interner, name, component) {
            Ok(pos) => Some(&self.log_histograms[pos].1),
            Err(_) => None,
        }
    }

    /// All counters in deterministic (name, component) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &str, u64)> + '_ {
        self.counters
            .iter()
            .map(|(k, v)| (k.name, self.interner.resolve(k.comp), *v))
    }

    /// All log-bucket sketches in deterministic (name, component)
    /// order.
    pub fn log_histograms(&self) -> impl Iterator<Item = (&'static str, &str, &LogHistogram)> + '_ {
        self.log_histograms
            .iter()
            .map(|(k, v)| (k.name, self.interner.resolve(k.comp), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.log_histograms.is_empty()
    }

    /// Whether every store is in canonical `(name, component)` order.
    /// Always true by construction; the unit tests below assert it so
    /// a regression to sort-on-render is caught immediately.
    pub fn keys_are_sorted(&self) -> bool {
        fn sorted<T>(entries: &[(MetricKey, T)], interner: &Interner) -> bool {
            entries.windows(2).all(|w| {
                let a = (w[0].0.name, interner.resolve(w[0].0.comp));
                let b = (w[1].0.name, interner.resolve(w[1].0.comp));
                a < b
            })
        }
        sorted(&self.counters, &self.interner)
            && sorted(&self.gauges, &self.interner)
            && sorted(&self.log_histograms, &self.interner)
    }

    /// Merge every metric from `other` into this registry (counters
    /// and sketches add; gauges take the max, which suits
    /// high-water marks — the only gauges the pipeline records).
    /// Symbols are resolved through `other`'s interner and re-interned
    /// here, so registries built by different workers merge canonically
    /// regardless of intern order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.counter_add(k.name, other.interner.resolve(k.comp), *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k.name, other.interner.resolve(k.comp), *v);
        }
        for (k, h) in &other.log_histograms {
            let component = other.interner.resolve(k.comp);
            let comp = self.interner.intern(component);
            match find(&self.log_histograms, &self.interner, k.name, component) {
                Ok(pos) => self.log_histograms[pos].1.merge(h),
                Err(pos) => self
                    .log_histograms
                    .insert(pos, (MetricKey { name: k.name, comp }, h.clone())),
            }
        }
    }

    /// Prometheus-style text exposition. The stores are already in
    /// canonical order, so this is a single pass — no sorting.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, value) in &self.counters {
            let (name, component) = (k.name, self.interner.resolve(k.comp));
            let _ = writeln!(out, "{name}{{component=\"{component}\"}} {value}");
        }
        for (k, value) in &self.gauges {
            let (name, component) = (k.name, self.interner.resolve(k.comp));
            let _ = writeln!(out, "{name}{{component=\"{component}\"}} {value}");
        }
        for (k, hist) in &self.log_histograms {
            let (name, component) = (k.name, self.interner.resolve(k.comp));
            let mut cumulative = 0u64;
            for (_, upper, count) in hist.buckets() {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{component=\"{component}\",le=\"{upper}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{component=\"{component}\",le=\"+Inf\"}} {cumulative}"
            );
            let _ = writeln!(
                out,
                "{name}_sum{{component=\"{component}\"}} {}",
                hist.sum()
            );
            let _ = writeln!(
                out,
                "{name}_count{{component=\"{component}\"}} {}",
                hist.count()
            );
        }
        out
    }
}

/// Equality compares resolved `(name, component, value)` entries, so
/// two registries that interned the same labels in different orders
/// still compare equal.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        fn same<T: PartialEq>(
            a: &[(MetricKey, T)],
            ai: &Interner,
            b: &[(MetricKey, T)],
            bi: &Interner,
        ) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
                    ka.name == kb.name && ai.resolve(ka.comp) == bi.resolve(kb.comp) && va == vb
                })
        }
        let (ai, bi) = (&self.interner, &other.interner);
        same(&self.counters, ai, &other.counters, bi)
            && same(&self.gauges, ai, &other.gauges, bi)
            && same(&self.log_histograms, ai, &other.log_histograms, bi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_component() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("drops_total", "link:0", 2);
        reg.counter_add("drops_total", "link:0", 3);
        reg.counter_add("drops_total", "link:1", 7);
        assert_eq!(reg.counter("drops_total", "link:0"), 5);
        assert_eq!(reg.counter("drops_total", "link:1"), 7);
        assert_eq!(reg.counter_total("drops_total"), 12);
        assert_eq!(reg.counter("missing", "x"), 0);
    }

    #[test]
    fn sym_fast_path_matches_string_path() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let sym = a.intern("link:0");
        a.counter_add_sym("drops_total", sym, 4);
        a.counter_add_sym("drops_total", sym, 1);
        b.counter_add("drops_total", "link:0", 5);
        assert_eq!(a, b);
    }

    #[test]
    fn gauge_max_keeps_high_water() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_max("queue_high_water", "sim", 5.0);
        reg.gauge_max("queue_high_water", "sim", 3.0);
        reg.gauge_max("queue_high_water", "sim", 9.0);
        assert_eq!(reg.gauge("queue_high_water", "sim"), Some(9.0));
    }

    #[test]
    fn log_histograms_render_and_merge() {
        let mut reg = MetricsRegistry::new();
        reg.log_observe("scope_ns", "pair", 1000);
        reg.log_observe("scope_ns", "pair", 2000);
        let h = reg.log_histogram("scope_ns", "pair").unwrap();
        assert_eq!(h.count(), 2);
        let text = reg.render_text();
        assert!(text.contains("scope_ns_count{component=\"pair\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn render_text_is_deterministic_and_never_resorts() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.counter_add("b_total", "z", 1);
            reg.counter_add("a_total", "y", 2);
            reg.gauge_set("g", "x", 1.25);
            reg.log_observe("l_ns", "v", 9);
            assert!(reg.keys_are_sorted(), "insertion keeps canonical order");
            reg.render_text()
        };
        assert_eq!(build(), build());
        // Sorted by (name, component), counters first.
        let text = build();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c_total", "x", 1);
        b.counter_add("c_total", "x", 2);
        b.counter_add("d_total", "y", 4);
        a.gauge_max("hw", "s", 3.0);
        b.gauge_max("hw", "s", 5.0);
        a.log_observe("l_ns", "p", 10);
        b.log_observe("l_ns", "p", 20);
        a.merge(&b);
        assert_eq!(a.counter("c_total", "x"), 3);
        assert_eq!(a.counter("d_total", "y"), 4);
        assert_eq!(a.gauge("hw", "s"), Some(5.0));
        assert_eq!(a.log_histogram("l_ns", "p").unwrap().count(), 2);
        assert!(a.keys_are_sorted());
    }

    #[test]
    fn merge_is_canonical_across_intern_orders() {
        // Two workers intern the same labels in opposite orders; merged
        // into fresh registries in either order, the result is equal
        // and renders identically.
        let mut w1 = MetricsRegistry::new();
        w1.counter_add("t_total", "b", 1);
        w1.counter_add("t_total", "a", 2);
        let mut w2 = MetricsRegistry::new();
        w2.counter_add("t_total", "a", 10);
        w2.counter_add("t_total", "b", 20);

        let mut m12 = MetricsRegistry::new();
        m12.merge(&w1);
        m12.merge(&w2);
        let mut m21 = MetricsRegistry::new();
        m21.merge(&w2);
        m21.merge(&w1);
        assert_eq!(m12, m21);
        assert_eq!(m12.render_text(), m21.render_text());
        assert_eq!(m12.counter("t_total", "a"), 12);
        assert_eq!(m12.counter("t_total", "b"), 21);
    }
}
