//! Property test for the [`TimeSeriesRecorder`] against a naive
//! reference model.
//!
//! Random counter and gauge records at monotone times — repeated
//! windows, short idle gaps, and gaps just below, at and past the ring
//! capacity — go into a recorder with a capacity of 1 to 8 windows.
//! The reference keeps every window of every series in full, then
//! applies the ring capacity once at the end; the recorder's
//! [`TimeSeriesRecorder::finish`] dump must equal it field by field.
//! The name pool holds content-equal names at different addresses, so
//! a series lookup that matches names by pointer alone splits a series
//! in two. A second property drives the handle path
//! ([`TimeSeriesRecorder::record`]) the engine's hooks use.

use proptest::prelude::*;
use std::collections::BTreeMap;
use turb_obs::{Interner, SeriesKind, TimeSeriesRecorder};

/// Component labels; a few filler symbols are interned between them so
/// component ids are sparse.
const COMPS: [&str; 3] = ["link:0", "node:client", "tap:2"];

/// The series name pool: `(name, kind)`. The last two entries are
/// content-equal copies of the first two at different addresses.
fn names() -> Vec<(&'static str, SeriesKind)> {
    let copy = |s: &str| -> &'static str { Box::leak(String::from(s).into_boxed_str()) };
    let pool = vec![
        ("tx_bytes", SeriesKind::Counter),
        ("queue_depth", SeriesKind::Gauge),
        ("drops", SeriesKind::Counter),
        (copy("tx_bytes"), SeriesKind::Counter),
        (copy("queue_depth"), SeriesKind::Gauge),
    ];
    assert!(!std::ptr::eq(pool[0].0, pool[3].0));
    assert!(!std::ptr::eq(pool[1].0, pool[4].0));
    pool
}

/// One reference series: every window from `first` on, none evicted.
struct RefSeries {
    kind: SeriesKind,
    first: u64,
    values: Vec<u64>,
    total: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recorder_matches_the_keep_everything_reference(
        cap in 1usize..=8,
        window_ns in 1u64..20,
        ops in proptest::collection::vec((0usize..5, 0usize..3, 0usize..8, 0u64..20, 0u64..1000), 0..80),
    ) {
        let pool = names();
        let mut interner = Interner::new();
        let comps: Vec<_> = COMPS
            .iter()
            .enumerate()
            .map(|(i, c)| {
                for f in 0..i * 3 {
                    interner.intern(&format!("filler:{i}:{f}"));
                }
                interner.intern(c)
            })
            .collect();

        // Window jumps: stay in the window, step to the next, or skip
        // an idle gap of `cap - 1`, `cap`, `cap + 1` or far more
        // windows (a jump of `j` leaves `j - 1` idle windows behind the
        // newest window in use).
        let jumps = [0, 0, 1, 2, cap as u64, cap as u64 + 1, cap as u64 + 2, 3 * cap as u64 + 5];

        let mut ts = TimeSeriesRecorder::with_capacity(window_ns, cap);
        let mut reference: BTreeMap<(String, String), RefSeries> = BTreeMap::new();
        let (mut now, mut window) = (0u64, 0u64);
        for (name_i, comp_i, jump_i, offset, value) in ops {
            let (name, kind) = pool[name_i];
            let offset = offset % window_ns;
            let jump = jumps[jump_i];
            now = if jump == 0 {
                now.max(window * window_ns + offset)
            } else {
                (window + jump) * window_ns + offset
            };
            window = now / window_ns;

            match kind {
                SeriesKind::Counter => ts.counter_add(now, name, comps[comp_i], value),
                SeriesKind::Gauge => ts.gauge_max(now, name, comps[comp_i], value),
            };
            let r = reference
                .entry((name.to_string(), COMPS[comp_i].to_string()))
                .or_insert(RefSeries { kind, first: window, values: Vec::new(), total: 0 });
            let slot = (window - r.first) as usize;
            if r.values.len() <= slot {
                r.values.resize(slot + 1, 0);
            }
            match kind {
                SeriesKind::Counter => {
                    r.values[slot] += value;
                    r.total += value;
                }
                SeriesKind::Gauge => {
                    r.values[slot] = r.values[slot].max(value);
                    r.total = r.total.max(value);
                }
            }
        }

        let dump = ts.finish(&interner);
        prop_assert_eq!(dump.window_ns, window_ns);
        prop_assert_eq!(dump.series.len(), reference.len());
        prop_assert_eq!(ts.series_count(), reference.len());
        for (got, ((metric, component), want)) in dump.series.iter().zip(&reference) {
            let evicted = want.values.len().saturating_sub(cap);
            prop_assert_eq!(&got.metric, metric);
            prop_assert_eq!(&got.component, component);
            prop_assert_eq!(got.kind, want.kind, "{}/{}", metric, component);
            prop_assert_eq!(got.first_window, want.first + evicted as u64, "{}/{}", metric, component);
            prop_assert_eq!(got.evicted, evicted as u64, "{}/{}", metric, component);
            prop_assert_eq!(&got.values[..], &want.values[evicted..], "{}/{}", metric, component);
            prop_assert_eq!(got.total, want.total, "{}/{}", metric, component);
        }
    }
}

/// Series names for the handle-path property: three counters, three
/// gauges.
const HANDLE_NAMES: [(&str, SeriesKind); 6] = [
    ("link_tx_bytes_total", SeriesKind::Counter),
    ("node_rx_bytes_total", SeriesKind::Counter),
    ("link_dropped_fault_total", SeriesKind::Counter),
    ("link_queue_depth_bytes", SeriesKind::Gauge),
    ("reassembly_backlog_groups", SeriesKind::Gauge),
    ("player_buffer_ms", SeriesKind::Gauge),
];

/// A reference series kept sparse: every window ever touched, none
/// evicted.
struct Sparse {
    kind: SeriesKind,
    windows: BTreeMap<u64, u64>,
}

impl Sparse {
    fn combine(&self, a: u64, b: u64) -> u64 {
        match self.kind {
            SeriesKind::Counter => a + b,
            SeriesKind::Gauge => a.max(b),
        }
    }

    /// What a recorder with ring capacity `cap` retains:
    /// `(first_window, evicted, values, total)`.
    fn expect(&self, cap: usize) -> (u64, u64, Vec<u64>, u64) {
        let first = *self.windows.keys().next().expect("a series has a sample");
        let last = *self
            .windows
            .keys()
            .next_back()
            .expect("a series has a sample");
        let kept_from = first.max((last + 1).saturating_sub(cap as u64));
        let values = (kept_from..=last)
            .map(|w| self.windows.get(&w).copied().unwrap_or(0))
            .collect();
        let total = self.windows.values().fold(0, |t, &v| self.combine(t, v));
        (kept_from, kept_from - first, values, total)
    }
}

type Expected = BTreeMap<(String, String), (SeriesKind, u64, u64, Vec<u64>, u64)>;

/// `SeriesDump::merge` by hand: align absolute windows, combine where
/// both retain one, sum evictions, combine totals.
fn merge_expected(a: &Expected, b: &Expected) -> Expected {
    let mut out = a.clone();
    for (key, bs) in b {
        let Some(asr) = out.get(key).cloned() else {
            out.insert(key.clone(), bs.clone());
            continue;
        };
        let (kind, a_first, a_ev, a_vals, a_total) = asr;
        let (_, b_first, b_ev, b_vals, b_total) = bs;
        let first = a_first.min(*b_first);
        let end = (a_first + a_vals.len() as u64).max(b_first + b_vals.len() as u64);
        let mut values = vec![0u64; (end - first) as usize];
        let combine = |x: u64, y: u64| match kind {
            SeriesKind::Counter => x + y,
            SeriesKind::Gauge => x.max(y),
        };
        for (i, v) in a_vals.iter().enumerate() {
            values[(a_first - first) as usize + i] = *v;
        }
        for (i, v) in b_vals.iter().enumerate() {
            let slot = &mut values[(b_first - first) as usize + i];
            *slot = combine(*slot, *v);
        }
        out.insert(
            key.clone(),
            (kind, first, a_ev + b_ev, values, combine(a_total, *b_total)),
        );
    }
    out
}

fn expected(reference: &BTreeMap<(String, String), Sparse>, cap: usize) -> Expected {
    reference
        .iter()
        .map(|(key, r)| {
            let (first, evicted, values, total) = r.expect(cap);
            (key.clone(), (r.kind, first, evicted, values, total))
        })
        .collect()
}

fn dumped(dump: &turb_obs::SeriesDump) -> Expected {
    dump.series
        .iter()
        .map(|s| {
            (
                (s.metric.clone(), s.component.clone()),
                (s.kind, s.first_window, s.evicted, s.values.clone(), s.total),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The handle path against a sparse `BTreeMap` reference: up to 48
    /// series interleaved over two recorders (two runs, each with its
    /// own clock), 1-ns windows among the widths, gaps up to 1,000
    /// windows past a ring of 1–6, samples given by handle or by name,
    /// and `finish` taken mid-window while recording goes on. The two
    /// dumps must then merge to the merged reference.
    #[test]
    fn handles_match_the_reference_through_finish_and_merge(
        cap in 1usize..=6,
        width_i in 0usize..4,
        ops in proptest::collection::vec(
            (0usize..2, 0usize..6, 0usize..8, 0usize..9, 0u64..1_000_000, 0u64..16),
            0..200,
        ),
    ) {
        let window_ns = [1, 1, 7, 1_000_000_000][width_i];
        let jumps = [0, 0, 1, 2, cap as u64 - 1, cap as u64, cap as u64 + 1, 3 * cap as u64 + 5, 1000];
        let mut interner = Interner::new();
        let comps: Vec<_> = (0..8).map(|i| interner.intern(&format!("comp:{i}"))).collect();
        let mut recs = [
            TimeSeriesRecorder::with_capacity(window_ns, cap),
            TimeSeriesRecorder::with_capacity(window_ns, cap),
        ];
        let mut handles: [BTreeMap<(usize, usize), turb_obs::SeriesId>; 2] = Default::default();
        let mut reference: [BTreeMap<(String, String), Sparse>; 2] = Default::default();
        let (mut now, mut window) = ([0u64; 2], [0u64; 2]);
        for (part, name_i, comp_i, jump_i, offset, flags) in ops {
            let (name, kind) = HANDLE_NAMES[name_i];
            let jump = jumps[jump_i];
            let offset = offset % window_ns;
            now[part] = if jump == 0 {
                now[part].max(window[part] * window_ns + offset)
            } else {
                (window[part] + jump) * window_ns + offset
            };
            window[part] = now[part] / window_ns;
            let value = flags * 37 % 101;

            let rec = &mut recs[part];
            match handles[part].get(&(name_i, comp_i)) {
                // Now and then a known series is sampled by name: both
                // paths must reach the same series.
                Some(&id) if flags % 4 != 0 => rec.record(id, now[part], value),
                _ => {
                    let id = match kind {
                        SeriesKind::Counter => rec.counter_add(now[part], name, comps[comp_i], value),
                        SeriesKind::Gauge => rec.gauge_max(now[part], name, comps[comp_i], value),
                    };
                    let first = *handles[part].entry((name_i, comp_i)).or_insert(id);
                    prop_assert_eq!(first, id, "a series keeps its handle");
                }
            }
            let r = reference[part]
                .entry((name.to_string(), format!("comp:{comp_i}")))
                .or_insert(Sparse { kind, windows: BTreeMap::new() });
            let old = r.windows.get(&window[part]).copied().unwrap_or(0);
            let new = r.combine(old, value);
            r.windows.insert(window[part], new);

            // Finish mid-window, then keep recording.
            if flags == 15 {
                let want = expected(&reference[part], cap);
                prop_assert_eq!(dumped(&recs[part].finish(&interner)), want);
            }
        }

        let mut merged = None;
        for part in 0..2 {
            let want = expected(&reference[part], cap);
            let dump = recs[part].finish(&interner);
            prop_assert_eq!(dump.window_ns, window_ns);
            prop_assert_eq!(recs[part].series_count(), want.len());
            prop_assert_eq!(
                recs[part].window_count(),
                want.values().map(|s| s.3.len()).sum::<usize>()
            );
            prop_assert_eq!(dumped(&dump), want);
            match merged.as_mut() {
                None => merged = Some(dump),
                Some(m) => m.merge(&dump),
            }
        }
        let want = merge_expected(&expected(&reference[0], cap), &expected(&reference[1], cap));
        prop_assert_eq!(dumped(&merged.expect("two parts")), want);
    }
}
