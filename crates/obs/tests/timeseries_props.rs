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
//! in two.

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
            }
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
