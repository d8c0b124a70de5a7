//! Property test for the span-major [`EventLog`] a merged
//! [`LineageDump`] holds.
//!
//! Random multi-domain recordings — spans born in one domain and
//! recorded in another, equal timestamps inside a span and across
//! parts, recorders that hit their capacity, events too late or with an
//! aux too wide for a packed row, component tables on either side of a
//! power of two — are merged, and every span's decoded timeline is
//! compared with a naive reference: remap the parts' events into one
//! flat list, stable-sort it by `(time, span)`, then bucket it per
//! span. Each part's staged events must first decode back to exactly
//! the calls its recorder took, so the reference does not inherit a
//! staging bug.

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

/// Component-table sizes the generator draws from: 1, and `2^k` and
/// `2^k + 1` for each `k` in 1..=6.
const TABLE_SIZES: [usize; 13] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65];

/// Bits a packed row leaves for `aux` when the merged table holds
/// `components` names: 32, less 5 stage bits, less the bits of the
/// largest component id.
fn aux_bits(components: usize) -> u32 {
    27 - (usize::BITS - (components - 1).leading_zeros())
}

/// Nanoseconds past which an event no longer fits a packed row's
/// offset from its span's birth.
const FAR: u64 = 1 << 32;

/// One random recording split over up to three domains, over a merged
/// table of `TABLE_SIZES` names, checked against the calls each
/// recorder took.
fn random_parts(rng: &mut Rng) -> Vec<LineagePart> {
    let (parts, calls) = random_recording(rng);
    for (d, (part, want)) in parts.iter().zip(&calls).enumerate() {
        let got: Vec<LineageEvent> = part.events().collect();
        assert_eq!(&got, want, "domain {d}: staged events decode to the calls");
    }
    parts
}

/// [`random_parts`] unchecked, with each recorder's kept calls as the
/// events they should decode to.
fn random_recording(rng: &mut Rng) -> (Vec<LineagePart>, Vec<Vec<LineageEvent>>) {
    let stages = all_stages();
    let n = TABLE_SIZES[rng.below(TABLE_SIZES.len() as u64) as usize];
    let names: Vec<String> = (0..n).map(|i| format!("comp:{i:02}")).collect();
    let wide = aux_bits(n);
    let domains = 1 + rng.below(3) as usize;
    let mut interners = Vec::new();
    let mut comps: Vec<Vec<SymbolId>> = Vec::new();
    let mut recorders = Vec::new();
    for d in 0..domains {
        // Each domain interns its own run of names, from its own
        // starting point, so component ids disagree across parts.
        // Domain 0 interns them all, so the union has exactly `n`.
        let mut interner = Interner::new();
        let mut ids = Vec::new();
        let first = rng.below(n as u64) as usize;
        let count = if d == 0 {
            n
        } else {
            1 + rng.below(n as u64) as usize
        };
        for k in 0..count {
            ids.push(interner.intern(&names[(first + k) % n]));
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
    // steps make equal timestamps common; a rare jump puts a span's
    // later events more than `u32::MAX` ns after its birth.
    let mut clocks = vec![0u64; domains];
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut calls: Vec<Vec<LineageEvent>> = vec![Vec::new(); domains];
    for _ in 0..rng.below(300) {
        let d = rng.below(domains as u64) as usize;
        clocks[d] += match rng.below(40) {
            0 => FAR + rng.below(3),
            _ => rng.below(3),
        };
        let comp = comps[d][rng.below(comps[d].len() as u64) as usize];
        let kept = recorders[d].len();
        let call = if spans.is_empty() || rng.below(4) == 0 {
            let aux = rng.below(2000) as u32;
            let span = recorders[d].begin_span(clocks[d], comp, None, aux);
            spans.push((span, clocks[d]));
            LineageEvent {
                span,
                time_ns: clocks[d],
                comp,
                stage: Stage::Sent,
                aux,
            }
        } else {
            let (span, born) = spans[rng.below(spans.len() as u64) as usize];
            let stage = stages[rng.below(stages.len() as u64) as usize];
            // Offsets on either side of the packed row's limit.
            let time_ns = match rng.below(20) {
                0 => born + FAR - 1 + rng.below(2),
                _ => clocks[d],
            };
            // Aux at, and one past, the widest value a row packs.
            let aux = match rng.below(6) {
                0 => (1 << wide) - 1,
                1 => 1 << wide,
                2 => rng.next() as u32,
                _ => rng.below(1 << 10) as u32,
            };
            recorders[d].record(span, time_ns, comp, stage, aux);
            LineageEvent {
                span,
                time_ns,
                comp,
                stage,
                aux,
            }
        };
        if recorders[d].len() > kept {
            calls[d].push(call);
        }
    }
    let parts = recorders
        .into_iter()
        .zip(&interners)
        .map(|(rec, interner)| rec.finish(interner))
        .collect();
    (parts, calls)
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
        for ev in p.events() {
            let origin_part = (ev.span >> SPAN_DOMAIN_SHIFT) as usize;
            let local = (ev.span & SPAN_LOCAL_MASK) as usize;
            flat.push(LineageEvent {
                span: span_maps[origin_part][local],
                comp: comp_map(part, ev.comp),
                ..ev
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
    let total: usize = parts.iter().map(|p| p.events().count()).sum();
    let dropped: u64 = parts.iter().map(|p| p.dropped).sum();
    let dump = LineageDump::merge_domains(parts);

    assert_eq!(dump.origins, origins, "case {case}: origins");
    assert_eq!(dump.components, components, "case {case}: components");
    assert_eq!(dump.dropped, dropped, "case {case}: dropped");
    let log: &EventLog = &dump.events;
    assert_eq!(log.len(), total, "case {case}: event count");
    assert_eq!(log.spans(), origins.len(), "case {case}: span count");
    for (span, want) in buckets.iter().enumerate() {
        let events = log.span(span);
        let got: Vec<LineageEvent> = events.iter().collect();
        assert_eq!(&got, want, "case {case}: span {span} timeline");
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(
                events.get(i),
                Some(*ev),
                "case {case}: span {span} get({i})"
            );
        }
        assert_eq!(events.get(got.len()), None);
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
/// spans whose parts interleave out of time order, ties, evictions,
/// spans left with no event, and every reason an event spills out of
/// a packed row.
#[test]
fn generator_covers_the_hard_cases() {
    let mut rng = Rng(0x5eed_1065);
    let (mut unsorted, mut evicted, mut empty, mut ties) = (0, 0, 0, 0);
    let (mut far, mut at_limit, mut aux_full, mut aux_over) = (0, 0, 0, 0);
    let mut foreign = 0;
    let mut table_sizes = BTreeMap::new();
    for _ in 0..400 {
        let parts = random_parts(&mut rng);
        evicted += parts.iter().filter(|p| p.dropped > 0).count();
        let mut names: Vec<&String> = parts.iter().flat_map(|p| &p.components).collect();
        names.sort();
        names.dedup();
        *table_sizes.entry(names.len()).or_insert(0) += 1;
        let wide = aux_bits(names.len());
        // Each span's times in part-then-recording order, keyed by the
        // domain-tagged id: the order the counting sort leaves them in.
        let mut by_span: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (d, ev) in parts
            .iter()
            .enumerate()
            .flat_map(|(d, p)| p.events().map(move |ev| (d, ev)))
        {
            by_span.entry(ev.span).or_default().push(ev.time_ns);
            foreign += usize::from((ev.span >> SPAN_DOMAIN_SHIFT) as usize != d);
            let part = &parts[(ev.span >> SPAN_DOMAIN_SHIFT) as usize];
            let born = part.origins[(ev.span & SPAN_LOCAL_MASK) as usize].time_ns;
            match ev.time_ns.checked_sub(born) {
                Some(offset) if offset >= FAR => far += 1,
                Some(offset) if offset == FAR - 1 => at_limit += 1,
                _ => {}
            }
            aux_full += usize::from(ev.aux == (1 << wide) - 1);
            aux_over += usize::from(ev.aux == 1 << wide);
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
    assert!(far > 100, "only {far} events 2^32 ns or more after birth");
    assert!(
        foreign > 100,
        "only {foreign} events of another domain's span"
    );
    assert!(at_limit > 10, "only {at_limit} events at the offset limit");
    assert!(
        aux_full > 100,
        "only {aux_full} aux values filling the field"
    );
    assert!(
        aux_over > 100,
        "only {aux_over} aux values one past the field"
    );
    for n in TABLE_SIZES {
        assert!(
            table_sizes.get(&n).is_some_and(|&cases| cases > 5),
            "table of {n} names drawn in too few cases: {table_sizes:?}"
        );
    }
}

/// Every way a staged event leaves the 16-B form — a span born in
/// another domain, a time 2^32 ns or more after birth or before it —
/// and an aux too wide for the merged row, next to events that stage
/// and pack whole: each part decodes to the calls its recorder took,
/// and the merged timelines match the reference.
#[test]
fn staged_spills_decode_to_the_recorded_events() {
    let mut interner = Interner::new();
    let (a, b) = (interner.intern("node:a"), interner.intern("node:b"));
    let mut d0 = LineageRecorder::default();
    let mut d1 = LineageRecorder::default();
    d1.set_span_base(1 << SPAN_DOMAIN_SHIFT);
    let born = 1_000;
    let span = d0.begin_span(born, a, None, 1_400);
    let local = d1.begin_span(born + 5, b, None, 64);
    let far = born + u64::from(u32::MAX);
    let mut calls: [Vec<LineageEvent>; 2] = [Vec::new(), Vec::new()];
    let ev = |span, time_ns, comp, stage, aux| LineageEvent {
        span,
        time_ns,
        comp,
        stage,
        aux,
    };
    calls[0].push(ev(span, born, a, Stage::Sent, 1_400));
    calls[1].push(ev(local, born + 5, b, Stage::Sent, 64));
    for (d, event) in [
        (0, ev(span, born, a, Stage::LinkTx, 0)),
        (0, ev(span, far, a, Stage::Arrived, 185)),
        (0, ev(span, far + 1, a, Stage::Buffered, 60_000)),
        (0, ev(span, born + 7, a, Stage::Delivered, u32::MAX)),
        (0, ev(span, born - 1, a, Stage::Sniffed, 3)),
        (1, ev(span, born + 9, b, Stage::Arrived, 0)),
        (1, ev(span, far + 9, b, Stage::Played, u32::MAX)),
        (1, ev(local, far + 5, b, Stage::Arrived, 0)),
        (1, ev(local, far + 6, b, Stage::Delivered, 1 << 30)),
    ] {
        let rec = if d == 0 { &mut d0 } else { &mut d1 };
        rec.record(
            event.span,
            event.time_ns,
            event.comp,
            event.stage,
            event.aux,
        );
        calls[d].push(event);
    }
    let parts = vec![d0.finish(&interner), d1.finish(&interner)];
    for (part, want) in parts.iter().zip(&calls) {
        assert_eq!(&part.events().collect::<Vec<_>>(), want);
    }
    check(parts, 0);
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
        .events()
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
