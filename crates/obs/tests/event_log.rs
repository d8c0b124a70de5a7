//! Property test for the span-major [`EventLog`] a merged
//! [`LineageDump`] holds.
//!
//! Random multi-domain recordings — spans born in one domain and
//! recorded in another, equal timestamps inside a span and across
//! parts, recorders that hit their capacity — are merged, and every
//! span's decoded timeline is compared with a naive reference: remap
//! the parts' events into one flat list, stable-sort it by
//! `(time, span)`, then bucket it per span.

use std::collections::BTreeMap;
use turb_obs::lineage::{
    DropCause, EventLog, LineageDump, LineageEvent, LineagePart, LineageRecorder, SpanOrigin,
    Stage, SPAN_DOMAIN_SHIFT, SPAN_LOCAL_MASK,
};
use turb_obs::{Interner, SymbolId};

/// splitmix64: a tiny deterministic generator for the cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every stage: the ten lifecycle stages, then one per drop cause.
fn all_stages() -> Vec<Stage> {
    let mut stages = vec![
        Stage::Sent,
        Stage::Fragmented,
        Stage::LinkTx,
        Stage::Arrived,
        Stage::Sniffed,
        Stage::ReasmHeld,
        Stage::Reassembled,
        Stage::Delivered,
        Stage::Buffered,
        Stage::Played,
    ];
    stages.extend(DropCause::ALL.map(Stage::Dropped));
    stages
}

const NAMES: [&str; 6] = ["link:0", "link:1", "node:a", "node:b", "node:c", "node:d"];

/// One random recording split over up to three domains.
fn random_parts(rng: &mut Rng) -> Vec<LineagePart> {
    let stages = all_stages();
    let domains = 1 + rng.below(3) as usize;
    let mut interners = Vec::new();
    let mut comps: Vec<Vec<SymbolId>> = Vec::new();
    let mut recorders = Vec::new();
    for d in 0..domains {
        // Each domain interns its own subset of names, in its own
        // order, so component ids disagree across parts.
        let mut interner = Interner::new();
        let mut ids = Vec::new();
        let first = rng.below(NAMES.len() as u64) as usize;
        for k in 0..1 + rng.below(NAMES.len() as u64) as usize {
            ids.push(interner.intern(NAMES[(first + k) % NAMES.len()]));
        }
        interners.push(interner);
        comps.push(ids);
        // Some recorders are small enough to evict.
        let capacity = if rng.below(3) == 0 {
            1 + rng.below(40) as usize
        } else {
            10_000
        };
        let mut rec = LineageRecorder::with_capacity(capacity);
        rec.set_span_base((d as u64) << SPAN_DOMAIN_SHIFT);
        recorders.push(rec);
    }

    // Each domain keeps its own clock, so a span recorded by two
    // domains interleaves out of time order across their parts. Small
    // steps make equal timestamps common.
    let mut clocks = vec![0u64; domains];
    let mut spans: Vec<u64> = Vec::new();
    for _ in 0..rng.below(300) {
        let d = rng.below(domains as u64) as usize;
        clocks[d] += rng.below(3);
        let comp = comps[d][rng.below(comps[d].len() as u64) as usize];
        if spans.is_empty() || rng.below(4) == 0 {
            spans.push(recorders[d].begin_span(clocks[d], comp, None, rng.below(2000) as u32));
        } else {
            let span = spans[rng.below(spans.len() as u64) as usize];
            let stage = stages[rng.below(stages.len() as u64) as usize];
            recorders[d].record(span, clocks[d], comp, stage, rng.next() as u32);
        }
    }
    recorders
        .into_iter()
        .zip(&interners)
        .map(|(rec, interner)| rec.finish(interner))
        .collect()
}

/// The merge as it was before the log went span-major: remap every
/// event into one flat list, stable-sort it by `(time, span)`, bucket
/// per span.
fn reference(parts: &[LineagePart]) -> (Vec<SpanOrigin>, Vec<String>, Vec<Vec<LineageEvent>>) {
    let mut components: Vec<String> = parts
        .iter()
        .flat_map(|p| p.components.iter().cloned())
        .collect();
    components.sort();
    components.dedup();
    let comp_map = |part: usize, id: SymbolId| {
        let name = &parts[part].components[id.index()];
        SymbolId(components.binary_search(name).unwrap() as u32)
    };
    let mut order = Vec::new();
    for (part, p) in parts.iter().enumerate() {
        for (local, origin) in p.origins.iter().enumerate() {
            order.push((origin.time_ns, comp_map(part, origin.comp), part, local));
        }
    }
    order.sort_by_key(|&(t, c, part, _)| (t, c, part));
    let mut span_maps: Vec<Vec<u64>> = parts.iter().map(|p| vec![0; p.origins.len()]).collect();
    let mut origins = Vec::new();
    for (new_id, &(_, comp, part, local)) in order.iter().enumerate() {
        span_maps[part][local] = new_id as u64;
        origins.push(SpanOrigin {
            comp,
            ..parts[part].origins[local]
        });
    }
    let mut flat = Vec::new();
    for (part, p) in parts.iter().enumerate() {
        for ev in &p.events {
            let origin_part = (ev.span >> SPAN_DOMAIN_SHIFT) as usize;
            let local = (ev.span & SPAN_LOCAL_MASK) as usize;
            flat.push(LineageEvent {
                span: span_maps[origin_part][local],
                comp: comp_map(part, ev.comp),
                ..*ev
            });
        }
    }
    flat.sort_by_key(|ev| (ev.time_ns, ev.span));
    let mut buckets = vec![Vec::new(); origins.len()];
    for ev in flat {
        buckets[ev.span as usize].push(ev);
    }
    (origins, components, buckets)
}

fn check(parts: Vec<LineagePart>, case: u64) {
    let (origins, components, buckets) = reference(&parts);
    let total: usize = parts.iter().map(|p| p.events.len()).sum();
    let dropped: u64 = parts.iter().map(|p| p.dropped).sum();
    let dump = LineageDump::merge_domains(parts);

    assert_eq!(dump.origins, origins, "case {case}: origins");
    assert_eq!(dump.components, components, "case {case}: components");
    assert_eq!(dump.dropped, dropped, "case {case}: dropped");
    let log: &EventLog = &dump.events;
    assert_eq!(log.len(), total, "case {case}: event count");
    assert_eq!(log.spans(), origins.len(), "case {case}: span count");
    for (span, want) in buckets.iter().enumerate() {
        let got: Vec<LineageEvent> = log.span(span).iter().collect();
        assert_eq!(&got, want, "case {case}: span {span} timeline");
        let timeline = dump.timeline(span);
        assert_eq!(
            timeline.events.len(),
            want.len(),
            "case {case}: span {span}"
        );
        assert_eq!(timeline.events.first(), want.first().copied());
    }
    let flat: Vec<LineageEvent> = log.iter().collect();
    assert_eq!(
        flat,
        buckets.concat(),
        "case {case}: the whole log iterates span by span"
    );
    assert_eq!(log.iter().len(), total);
}

#[test]
fn merged_log_matches_the_flat_sort_reference() {
    let mut rng = Rng(0x5eed_1065);
    for case in 0..400 {
        check(random_parts(&mut rng), case);
    }
}

/// The generator exercises what the property is about: cross-domain
/// spans whose parts interleave out of time order, ties, evictions
/// and spans left with no event.
#[test]
fn generator_covers_the_hard_cases() {
    let mut rng = Rng(0x5eed_1065);
    let (mut unsorted, mut evicted, mut empty, mut ties) = (0, 0, 0, 0);
    for _ in 0..400 {
        let parts = random_parts(&mut rng);
        evicted += parts.iter().filter(|p| p.dropped > 0).count();
        // Each span's times in part-then-recording order, keyed by the
        // domain-tagged id: the order the counting sort leaves them in.
        let mut by_span: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for ev in parts.iter().flat_map(|p| &p.events) {
            by_span.entry(ev.span).or_default().push(ev.time_ns);
        }
        unsorted += by_span.values().filter(|times| !times.is_sorted()).count();
        ties += by_span
            .values()
            .map(|times| times.windows(2).filter(|w| w[0] == w[1]).count())
            .sum::<usize>();
        let spans: usize = parts.iter().map(|p| p.origins.len()).sum();
        empty += spans - by_span.len();
    }
    assert!(unsorted > 10, "only {unsorted} out-of-order spans");
    assert!(evicted > 10, "only {evicted} evicting recorders");
    assert!(empty > 10, "only {empty} spans without events");
    assert!(ties > 100, "only {ties} equal-time neighbours");
}

/// Every stage and drop cause survives the packed tag, at every
/// component id the merge hands out.
#[test]
fn every_stage_round_trips_through_the_packed_tag() {
    let stages = all_stages();
    let mut interner = Interner::new();
    let comps: Vec<SymbolId> = NAMES.iter().map(|n| interner.intern(n)).collect();
    let mut rec = LineageRecorder::default();
    let span = rec.begin_span(0, comps[0], None, 0);
    for (i, &stage) in stages.iter().enumerate() {
        let comp = comps[i % comps.len()];
        rec.record(span, 1 + i as u64, comp, stage, u32::MAX - i as u32);
    }
    let part = rec.finish(&interner);
    let want: Vec<(Stage, &str, u32)> = part
        .events
        .iter()
        .map(|e| (e.stage, NAMES[e.comp.index()], e.aux))
        .collect();
    let dump = LineageDump::merge_domains(vec![part]);
    let got: Vec<(Stage, &str, u32)> = dump
        .events
        .iter()
        .map(|e| (e.stage, dump.component(e.comp), e.aux))
        .collect();
    assert_eq!(got, want);
    assert_eq!(got.len(), 1 + stages.len());
}
