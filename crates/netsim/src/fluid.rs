//! Fluid-flow engine: background traffic as rates, not packets.
//!
//! The scale regime the ROADMAP aims at — thousands of long-lived bulk
//! flows sharing a bottleneck — does not need per-packet fidelity for
//! the *background* population. What the measured foreground flows
//! feel is only the bandwidth the background occupies. This module
//! models each background flow as a fluid: a demand in bits per second
//! over a fixed route of existing [`Link`]s, resolved to an actual
//! rate by a max-min fair-share solver (progressive filling). Rates
//! change only at flow arrival/departure/demand breakpoints, so a
//! 10k-flow population costs O(rate recomputations), not O(packets).
//!
//! The packet path feels the fluid through *residual capacity*: each
//! link's serialisation delay and queue drain are computed against
//! `capacity − fluid_share` (see [`Link::effective_rate_bps`]). With
//! zero background flows the fluid engine schedules nothing and every
//! link's fluid share stays zero, so a hybrid run is byte-identical to
//! a packet run — the property `tests/fluid_equivalence.rs` holds the
//! engine to.
//!
//! Determinism under sharding: rate changes are plain events
//! (`Event::FluidUpdate`) precomputed at seal time and
//! scheduled through the ordinary queue, so the sharded engine
//! redistributes them to the domain owning each link's live copy the
//! same way it redistributes `AppStart`s — they are data riding the
//! existing exchange machinery, not messages that could race.
//!
//! Only one update per link waits in the queue at a time. Seal time
//! reserves one sequence number per future update, in plan order, and
//! files the rest in [`FluidChains`], one chain per link; applying an
//! update queues the next one of its link under its reserved number.
//! A link's updates are in `(time, seq)` order, so every update still
//! chained sorts after its link's queued one, and the queue pops
//! exactly the sequence it would pop with every update queued at once.

use crate::link::LinkId;
use crate::time::SimTime;

/// Which link engine a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Every flow is simulated packet-by-packet; the default.
    #[default]
    Packet,
    /// Background flows run as fluids on the max-min solver; foreground
    /// flows keep full packet-level fidelity.
    Hybrid,
}

impl EngineKind {
    /// CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Packet => "packet",
            EngineKind::Hybrid => "hybrid",
        }
    }

    /// Parse a CLI-facing name.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "packet" => Some(EngineKind::Packet),
            "hybrid" => Some(EngineKind::Hybrid),
            _ => None,
        }
    }
}

/// Whether a flow is measured (packet-level) or ambient (fluid-eligible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowClass {
    /// A measured flow: always simulated packet-by-packet.
    #[default]
    Foreground,
    /// Ambient traffic: lowered to a [`FluidFlow`] under
    /// [`EngineKind::Hybrid`], simulated as packets under
    /// [`EngineKind::Packet`].
    Background,
}

/// A piecewise-constant demand curve: `(from, bps)` points sorted by
/// time, each holding until the next point. Demand before the first
/// point is zero; a zero-bps point models departure (or a pause).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RateSchedule {
    points: Vec<(SimTime, u64)>,
}

impl RateSchedule {
    /// A flow that arrives at `start` with constant `bps` demand and
    /// departs at `end`.
    pub fn constant(start: SimTime, end: SimTime, bps: u64) -> RateSchedule {
        assert!(start < end, "a fluid flow must depart after it arrives");
        RateSchedule {
            points: vec![(start, bps), (end, 0)],
        }
    }

    /// Build from raw `(from, bps)` points. Must be strictly
    /// time-sorted.
    pub fn from_points(points: Vec<(SimTime, u64)>) -> RateSchedule {
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "rate schedule points must be strictly time-sorted"
        );
        RateSchedule { points }
    }

    /// Demand at instant `t` (0 before the first point).
    pub fn demand_at(&self, t: SimTime) -> u64 {
        match self.points.partition_point(|&(from, _)| from <= t) {
            0 => 0,
            i => self.points[i - 1].1,
        }
    }

    /// The instants at which demand changes.
    pub fn breakpoints(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.points.iter().map(|&(t, _)| t)
    }

    /// True when the schedule never demands any bandwidth.
    pub fn is_empty(&self) -> bool {
        self.points.iter().all(|&(_, bps)| bps == 0)
    }
}

/// One background flow registered with the fluid engine: a demand
/// curve over a fixed route of links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FluidFlow {
    /// The links this flow occupies, in path order.
    pub route: Vec<LinkId>,
    /// Demand over time.
    pub schedule: RateSchedule,
}

/// A flow as the solver sees it: a route (link indices into the
/// capacity slice) and an instantaneous demand. Kept independent of
/// [`LinkId`] so `turb-check` can solve over synthetic topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FluidDemand {
    /// Links traversed (indices into the capacity slice).
    pub route: Vec<usize>,
    /// Instantaneous demand in bits per second.
    pub demand_bps: u64,
}

/// Max-min fair rate allocation by progressive filling.
///
/// Raises all unfrozen flows' rates by a common increment until a flow
/// meets its demand or a link saturates; saturated links freeze every
/// flow crossing them at the current level. Pure u64 arithmetic
/// (floor division), no RNG, and flows are treated symmetrically, so
/// the allocation is a function of the flow *multiset* — independent
/// of insertion order — which is what keeps hybrid runs deterministic
/// under sharding. Returns one rate per flow, index-aligned.
///
/// Invariants (checked by the `fluid_fairness` property):
/// * Σ of rates over any link ≤ its capacity (floor division never
///   overshoots).
/// * No flow exceeds its demand.
/// * Every demand-unsatisfied flow crosses a bottleneck link: one with
///   less slack than flows, on which it has the maximal rate.
pub fn max_min_rates(capacities: &[u64], flows: &[FluidDemand]) -> Vec<u64> {
    for f in flows {
        for &l in &f.route {
            assert!(l < capacities.len(), "flow route names unknown link {l}");
        }
    }
    let mut rates = vec![0u64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut remaining: Vec<u64> = capacities.to_vec();
    let mut active = vec![0u64; capacities.len()];
    loop {
        // Freeze to fixpoint: flows at demand, then flows on links too
        // saturated to give every crosser one more bit per second.
        loop {
            let mut changed = false;
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] && rates[i] >= f.demand_bps {
                    frozen[i] = true;
                    changed = true;
                }
            }
            active.iter_mut().for_each(|a| *a = 0);
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] {
                    for &l in &f.route {
                        active[l] += 1;
                    }
                }
            }
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] && f.route.iter().any(|&l| remaining[l] < active[l]) {
                    frozen[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
        // The common increment: the tightest link's equal share, or
        // the nearest demand, whichever binds first. Both minima are
        // ≥ 1 here (zero-share links and zero-gap flows just froze).
        let mut inc = u64::MAX;
        for (&rem, &act) in remaining.iter().zip(&active) {
            if let Some(share) = rem.checked_div(act) {
                inc = inc.min(share);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                inc = inc.min(f.demand_bps - rates[i]);
            }
        }
        debug_assert!((1..u64::MAX).contains(&inc));
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                rates[i] += inc;
                for &l in &f.route {
                    remaining[l] -= inc;
                }
            }
        }
    }
    rates
}

/// Fluid-engine diagnostics for one run. Like
/// [`crate::shard::ShardDiag`], these live *outside* the byte-identity
/// set — they describe how the engine ran, not what the simulated
/// network did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FluidDiag {
    /// Background flows registered.
    pub flows: u64,
    /// Distinct demand breakpoints across all schedules.
    pub breakpoints: u64,
    /// Solver invocations (≤ breakpoints; the whole population is
    /// re-solved per breakpoint).
    pub recomputes: u64,
    /// `FluidUpdate` events scheduled (per-link share *changes* only).
    pub updates_scheduled: u64,
    /// `FluidUpdate` events applied by the event loop(s).
    pub updates_applied: u64,
    /// Largest total fluid occupancy seen on any single link, in bits
    /// per second.
    pub peak_link_fluid_bps: u64,
}

/// Precomputed rate trajectory: for each breakpoint where some link's
/// total fluid share changes, the new per-link shares. Built by
/// [`plan_updates`]; the simulation turns each `(time, link, bps)`
/// into a `FluidUpdate` event.
pub struct FluidPlan {
    /// `(time, link, new total fluid bps)` in time-major, link-minor
    /// order.
    pub updates: Vec<(SimTime, LinkId, u64)>,
    /// Engine statistics for the planning phase.
    pub diag: FluidDiag,
}

/// Solve the whole population at every demand breakpoint and emit the
/// per-link share *deltas* as a time-ordered update plan.
///
/// `capacity_of` maps a link id to its configured rate. Runs entirely
/// at seal time (before the first event is processed), so the event
/// loop — sequential or sharded — only ever applies precomputed
/// numbers.
pub fn plan_updates(flows: &[FluidFlow], capacity_of: impl Fn(LinkId) -> u64) -> FluidPlan {
    let mut diag = FluidDiag {
        flows: flows.len() as u64,
        ..FluidDiag::default()
    };
    if flows.is_empty() {
        return FluidPlan {
            updates: Vec::new(),
            diag,
        };
    }

    // The set of links any fluid touches, in id order, and a dense
    // index for the solver.
    let mut link_ids: Vec<LinkId> = flows.iter().flat_map(|f| f.route.iter().copied()).collect();
    link_ids.sort_unstable();
    link_ids.dedup();
    let dense: std::collections::BTreeMap<LinkId, usize> = link_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let capacities: Vec<u64> = link_ids.iter().map(|&id| capacity_of(id)).collect();

    // All breakpoints, deduped, time order.
    let mut times: Vec<SimTime> = flows
        .iter()
        .flat_map(|f| f.schedule.breakpoints())
        .collect();
    times.sort_unstable();
    times.dedup();
    diag.breakpoints = times.len() as u64;

    let mut demands: Vec<FluidDemand> = flows
        .iter()
        .map(|f| FluidDemand {
            route: f.route.iter().map(|id| dense[id]).collect(),
            demand_bps: 0,
        })
        .collect();

    let mut shares = vec![0u64; link_ids.len()];
    let mut updates = Vec::new();
    for &t in &times {
        for (d, f) in demands.iter_mut().zip(flows) {
            d.demand_bps = f.schedule.demand_at(t);
        }
        let rates = max_min_rates(&capacities, &demands);
        diag.recomputes += 1;
        let mut next = vec![0u64; link_ids.len()];
        for (d, &r) in demands.iter().zip(&rates) {
            for &l in &d.route {
                next[l] += r;
            }
        }
        for (l, (&old, &new)) in shares.iter().zip(&next).enumerate() {
            if old != new {
                updates.push((t, link_ids[l], new));
                diag.peak_link_fluid_bps = diag.peak_link_fluid_bps.max(new);
            }
        }
        shares = next;
    }
    diag.updates_scheduled = updates.len() as u64;
    FluidPlan { updates, diag }
}

/// Planned updates not yet in the event queue, one chain per link in
/// `(time, seq)` order. The owning engine queues each chain's first
/// update and, as each is applied, the next one of its link (see the
/// module docs).
#[derive(Debug, Default)]
pub(crate) struct FluidChains {
    /// `(time, seq, bps)` of every chained update, grouped by link.
    updates: Vec<(SimTime, u64, u64)>,
    /// Per link id: the range of `updates` not yet taken.
    pending: Vec<(u32, u32)>,
}

impl FluidChains {
    /// Chain `planned` `(time, seq, link, bps)` updates, given in
    /// `(time, seq)` order, by link.
    pub(crate) fn new(planned: &[(SimTime, u64, LinkId, u64)]) -> FluidChains {
        assert!(
            u32::try_from(planned.len()).is_ok(),
            "over 2^32 - 1 fluid updates planned"
        );
        let links = planned.iter().map(|u| u.2 .0 + 1).max().unwrap_or(0);
        let mut pending = vec![(0u32, 0u32); links];
        for &(_, _, link, _) in planned {
            pending[link.0].1 += 1;
        }
        let mut start = 0;
        for range in &mut pending {
            let count = range.1;
            *range = (start, start);
            start += count;
        }
        let mut updates = vec![(SimTime::ZERO, 0, 0); planned.len()];
        for &(time, seq, link, bps) in planned {
            let end = &mut pending[link.0].1;
            updates[*end as usize] = (time, seq, bps);
            *end += 1;
        }
        FluidChains { updates, pending }
    }

    /// One past the highest link id with a chain.
    pub(crate) fn links(&self) -> usize {
        self.pending.len()
    }

    /// Take `link`'s next update off its chain.
    pub(crate) fn next(&mut self, link: LinkId) -> Option<(SimTime, u64, u64)> {
        let (next, end) = self.pending.get_mut(link.0)?;
        (*next < *end).then(|| {
            *next += 1;
            self.updates[*next as usize - 1]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn flow(route: &[usize], demand: u64) -> FluidDemand {
        FluidDemand {
            route: route.to_vec(),
            demand_bps: demand,
        }
    }

    #[test]
    fn single_flow_gets_min_of_demand_and_capacity() {
        assert_eq!(max_min_rates(&[10_000], &[flow(&[0], 4_000)]), vec![4_000]);
        assert_eq!(
            max_min_rates(&[10_000], &[flow(&[0], 25_000)]),
            vec![10_000]
        );
    }

    #[test]
    fn equal_demands_share_a_bottleneck_equally() {
        let rates = max_min_rates(
            &[9_000],
            &[flow(&[0], 9_000), flow(&[0], 9_000), flow(&[0], 9_000)],
        );
        assert_eq!(rates, vec![3_000, 3_000, 3_000]);
    }

    #[test]
    fn small_demand_frees_capacity_for_the_others() {
        // Classic max-min: demands 1k, 10k, 10k on a 9k link →
        // 1k, 4k, 4k.
        let rates = max_min_rates(
            &[9_000],
            &[flow(&[0], 1_000), flow(&[0], 10_000), flow(&[0], 10_000)],
        );
        assert_eq!(rates, vec![1_000, 4_000, 4_000]);
    }

    #[test]
    fn multi_link_flow_is_bound_by_its_tightest_link() {
        // Flow 0 crosses both links; flow 1 only link 1. Link 0 caps
        // flow 0 at 2k, leaving flow 1 the rest of link 1.
        let rates = max_min_rates(
            &[2_000, 10_000],
            &[flow(&[0, 1], 10_000), flow(&[1], 10_000)],
        );
        assert_eq!(rates, vec![2_000, 8_000]);
    }

    #[test]
    fn indivisible_remainder_stays_unallocated() {
        // 10 bps over 3 flows: each gets 3, 1 bps is left over —
        // conservation (Σ ≤ capacity) beats exhaustion.
        let rates = max_min_rates(&[10], &[flow(&[0], 100), flow(&[0], 100), flow(&[0], 100)]);
        assert_eq!(rates, vec![3, 3, 3]);
    }

    #[test]
    fn zero_demand_and_empty_route_edge_cases() {
        let rates = max_min_rates(&[1_000], &[flow(&[0], 0), flow(&[], 7_777)]);
        // Zero demand → zero rate; empty route → unconstrained demand.
        assert_eq!(rates, vec![0, 7_777]);
    }

    #[test]
    fn allocation_is_insertion_order_independent() {
        let caps = [5_000, 3_000, 8_000];
        let flows = [
            flow(&[0, 1], 4_000),
            flow(&[1], 2_500),
            flow(&[0, 2], 6_000),
            flow(&[2], 500),
        ];
        let base = max_min_rates(&caps, &flows);
        // Reversed insertion order must produce the reversed rates.
        let rev: Vec<FluidDemand> = flows.iter().rev().cloned().collect();
        let mut rates_rev = max_min_rates(&caps, &rev);
        rates_rev.reverse();
        assert_eq!(base, rates_rev);
    }

    #[test]
    fn conservation_holds_on_every_link() {
        let caps = [4_000, 6_000, 2_000];
        let flows = [
            flow(&[0, 1, 2], 9_000),
            flow(&[0], 3_500),
            flow(&[1, 2], 1_200),
            flow(&[1], 9_999),
        ];
        let rates = max_min_rates(&caps, &flows);
        for (l, &cap) in caps.iter().enumerate() {
            let used: u64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.route.contains(&l))
                .map(|(_, &r)| r)
                .sum();
            assert!(used <= cap, "link {l}: {used} > {cap}");
        }
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r <= f.demand_bps);
        }
    }

    #[test]
    fn schedule_demand_lookup() {
        let s = RateSchedule::constant(SimTime(100), SimTime(300), 5_000);
        assert_eq!(s.demand_at(SimTime(99)), 0);
        assert_eq!(s.demand_at(SimTime(100)), 5_000);
        assert_eq!(s.demand_at(SimTime(299)), 5_000);
        assert_eq!(s.demand_at(SimTime(300)), 0);
        assert_eq!(s.breakpoints().count(), 2);
        assert!(!s.is_empty());
        assert!(RateSchedule::default().is_empty());
    }

    #[test]
    fn plan_emits_only_share_changes() {
        // Two flows on one 10k link, staggered; the plan carries the
        // share at each distinct total: 4k, 8k (4k+4k), 4k, 0.
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let flows = vec![
            FluidFlow {
                route: vec![LinkId(3)],
                schedule: RateSchedule::constant(t(1), t(4), 4_000),
            },
            FluidFlow {
                route: vec![LinkId(3)],
                schedule: RateSchedule::constant(t(2), t(3), 4_000),
            },
        ];
        let plan = plan_updates(&flows, |id| {
            assert_eq!(id, LinkId(3));
            10_000
        });
        assert_eq!(
            plan.updates,
            vec![
                (t(1), LinkId(3), 4_000),
                (t(2), LinkId(3), 8_000),
                (t(3), LinkId(3), 4_000),
                (t(4), LinkId(3), 0),
            ]
        );
        assert_eq!(plan.diag.flows, 2);
        assert_eq!(plan.diag.breakpoints, 4);
        assert_eq!(plan.diag.recomputes, 4);
        assert_eq!(plan.diag.updates_scheduled, 4);
        assert_eq!(plan.diag.peak_link_fluid_bps, 8_000);
    }

    #[test]
    fn contended_plan_shares_fairly_over_time() {
        // Two 8k-demand flows on a 10k link: alone each would take 8k,
        // together they split 5k/5k.
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let flows = vec![
            FluidFlow {
                route: vec![LinkId(0)],
                schedule: RateSchedule::constant(t(0), t(10), 8_000),
            },
            FluidFlow {
                route: vec![LinkId(0)],
                schedule: RateSchedule::constant(t(5), t(15), 8_000),
            },
        ];
        let plan = plan_updates(&flows, |_| 10_000);
        assert_eq!(
            plan.updates,
            vec![
                (t(0), LinkId(0), 8_000),
                (t(5), LinkId(0), 10_000),
                (t(10), LinkId(0), 8_000),
                (t(15), LinkId(0), 0),
            ]
        );
    }

    #[test]
    fn empty_population_plans_nothing() {
        let plan = plan_updates(&[], |_| unreachable!());
        assert!(plan.updates.is_empty());
        assert_eq!(plan.diag, FluidDiag::default());
    }

    #[test]
    fn engine_kind_names_round_trip() {
        for kind in [EngineKind::Packet, EngineKind::Hybrid] {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::parse("quantum"), None);
        assert_eq!(EngineKind::default(), EngineKind::Packet);
        assert_eq!(FlowClass::default(), FlowClass::Foreground);
    }
}
