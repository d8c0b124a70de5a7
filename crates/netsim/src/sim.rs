//! The discrete-event simulation engine.
//!
//! Architecture (sans-IO, smoltcp-style): the engine owns all network
//! state ([`SimCore`]: nodes, links, event queue, RNG) plus a slab of
//! boxed [`Application`]s. Applications interact with the network only
//! through a [`Ctx`] handed to their callbacks — sending UDP/ICMP,
//! setting timers, drawing random numbers — so every run is a pure
//! function of (topology, applications, seed).
//!
//! Event ordering is `(time, insertion sequence)`: simultaneous events
//! fire in the order they were scheduled, which keeps runs
//! deterministic and independent of heap internals.

use crate::link::{Link, LinkConfig, LinkId, NodeId, TxOutcome};
use crate::node::{AppId, Node, NodeKind, NodeStats};
use crate::observers::{
    EngineSeries, LineageState, ObserverDumps, Observers, SeriesState, SessionState,
};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{SchedStats, TimingWheel};
use bytes::Bytes;
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use turb_obs::lineage::{DropCause, LineageRecorder, PacketizeMeta, Stage};
use turb_obs::timeseries::TimeSeriesRecorder;
use turb_obs::{MetricsRegistry, ProgressMeter, SessionRecorder, SessionSampler, SymbolId};
use turb_wire::icmp::IcmpMessage;
use turb_wire::ipv4::{IpProtocol, Ipv4Packet, SessionTag, IPV4_HEADER_LEN};
use turb_wire::tcp::TcpSegment;
use turb_wire::udp::UdpDatagram;

/// Which way a tapped packet was travelling relative to the tapped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Leaving the node.
    Tx,
    /// Arriving at the node.
    Rx,
}

/// A packet observation delivered to a tap (the sniffer hook).
#[derive(Debug)]
pub struct TapEvent<'a> {
    /// Observation instant.
    pub time: SimTime,
    /// The node the tap is attached to.
    pub node: NodeId,
    /// Travel direction relative to that node.
    pub direction: Direction,
    /// The link the packet was on.
    pub link: LinkId,
    /// The IP packet (post-fragmentation: what the wire carries).
    pub packet: &'a Ipv4Packet,
}

/// Hands a boxed [`Application`] or [`Tap`] back as its concrete type;
/// implemented for every `Send + 'static` type.
pub trait IntoAny: Any + Send {
    /// The concrete type's name, and the box as `dyn Any`.
    fn into_any(self: Box<Self>) -> (&'static str, Box<dyn Any + Send>);
}

impl<T: Any + Send> IntoAny for T {
    fn into_any(self: Box<Self>) -> (&'static str, Box<dyn Any + Send>) {
        (std::any::type_name::<T>(), self)
    }
}

/// A sniffer hook: sees every packet leaving or arriving at the tapped
/// node. [`Simulation::take_tap`] hands it back after the run.
pub trait Tap: IntoAny {
    /// One packet crossed the tapped node.
    fn observe(&mut self, event: &TapEvent<'_>);
}

/// A tap's id, from [`Simulation::add_tap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapId(pub usize);

/// An app or tap and the node it runs on. The slot stays, empty, once
/// what it held is taken, so ids keep indexing.
pub(crate) struct Slot<T: ?Sized> {
    pub(crate) node: NodeId,
    pub(crate) held: Option<Box<T>>,
}

impl<T: ?Sized + IntoAny> Slot<T> {
    /// Take what the slot holds as a `U`, or panic naming `what`.
    fn take<U: Any>(&mut self, what: std::fmt::Arguments<'_>) -> U {
        let held = self.held.take().map(IntoAny::into_any);
        let (name, any) = held.unwrap_or_else(|| panic!("{what} was already taken"));
        match any.downcast::<U>() {
            Ok(taken) => *taken,
            Err(_) => panic!("{what} is a {name}, not a {}", std::any::type_name::<U>()),
        }
    }
}

/// Callbacks implemented by simulated applications (players, trackers,
/// ping, traceroute, traffic generators). [`Simulation::take_app`]
/// hands one back after the run, with what it recorded.
#[allow(unused_variables)]
pub trait Application: IntoAny {
    /// Called once when the simulation starts (or when the app is added
    /// to a running simulation).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {}
    /// A UDP datagram arrived on a port this app is bound to.
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: (Ipv4Addr, u16), dst_port: u16, payload: Bytes) {}
    /// An ICMP message arrived at this node (echo replies, time
    /// exceeded, destination unreachable). Echo *requests* are answered
    /// by the node itself and not surfaced here.
    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, msg: IcmpMessage) {}
    /// A TCP segment arrived on a port this app is bound to (see
    /// [`Simulation::bind_tcp_port`]); the connection state machine in
    /// [`crate::tcp`] consumes these.
    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, segment: TcpSegment) {}
    /// A timer set through [`Ctx::set_timer_after`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {}
}

#[derive(Debug)]
pub(crate) enum Event {
    AppStart(AppId),
    Timer {
        app: AppId,
        token: u64,
    },
    Arrival {
        link: LinkId,
        packet: Ipv4Packet,
    },
    /// The fluid engine's precomputed share of `link` changes to
    /// `bps` (see [`crate::fluid`]). Planned entirely at seal time;
    /// applying one only writes the link's `fluid_bps` field.
    FluidUpdate {
        link: LinkId,
        bps: u64,
    },
}

/// One scheduled key: the exact `(time, seq)` order plus the slab
/// slot holding its event. The queue orders these keys, not events —
/// an event is written into the slab once when scheduled and read out
/// once when popped, however often the wheel re-files its key. Kept at
/// 24 B by the `scheduled_key_is_24_bytes` test.
#[derive(Debug)]
pub(crate) struct Scheduled {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Which event-queue implementation drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel (see [`crate::wheel`]); the default.
    #[default]
    Wheel,
    /// A plain binary heap: the reference the equivalence tests hold
    /// the wheel to. No command selects it.
    Heap,
}

impl SchedulerKind {
    /// Stable lowercase name, as printed in run reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Wheel => "wheel",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// The two interchangeable key orders. Both pop in exactly
/// `(time, seq)` order — `tests/scheduler_equivalence.rs` proves full
/// runs byte-identical, which is what lets the wheel be the default.
enum Order {
    Heap(BinaryHeap<Scheduled>),
    // Boxed: the wheel carries its occupancy bitmaps inline and would
    // otherwise dwarf the heap variant.
    Wheel(Box<TimingWheel<u32>>),
}

/// An [`Event`] that carries no packet, as the small slab stores it:
/// 16 B of payload plus a tag, so a pending timer does not pay for an
/// `Ipv4Packet`'s worth of slot.
#[derive(Debug)]
enum SmallEvent {
    AppStart(AppId),
    Timer { app: AppId, token: u64 },
    FluidUpdate { link: LinkId, bps: u64 },
}

/// One event-payload slab: slots of `Option<T>` plus a free list of
/// slot ids. Freed slots are reused last-in first-out, so the slab
/// never outgrows the deepest its kind has been pending and the slots
/// in use stay warm in cache.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Store `value`, returning its slot id (below [`SMALL_SLAB`]).
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot < SMALL_SLAB)
                    .expect("over 2^31 pending events of one kind");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("a queued key's slot holds its event");
        self.free.push(slot);
        value
    }

    /// Reserved bytes: slot and free-list capacity.
    fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// The key's slot id names its slab by this top bit: clear for the
/// packet slab, set for the small slab.
const SMALL_SLAB: u32 = 1 << 31;

/// The engine's pending events: an [`Order`] of small keys over two
/// payload slabs sized by what an event carries. `Event::Arrival`'s
/// link and packet go in the packet slab; timers, app starts and fluid
/// updates go in the small slab, so a pending timer costs a 24-B slot
/// instead of a packet-sized one.
pub(crate) struct EventQueue {
    order: Order,
    packets: Slab<(LinkId, Ipv4Packet)>,
    small: Slab<SmallEvent>,
}

impl EventQueue {
    /// `capacity` pre-sizes the order and the packet slab; the small
    /// slab gets four times as many slots, about the same bytes. At
    /// the engine's 2048 both slabs reserve more than glibc's 128 KiB
    /// mmap threshold (see [`Simulation::with_scheduler`]).
    pub(crate) fn with_capacity(kind: SchedulerKind, capacity: usize) -> EventQueue {
        let order = match kind {
            SchedulerKind::Heap => Order::Heap(BinaryHeap::with_capacity(capacity)),
            SchedulerKind::Wheel => Order::Wheel(Box::new(TimingWheel::with_capacity(capacity))),
        };
        EventQueue {
            order,
            packets: Slab::with_capacity(capacity),
            small: Slab::with_capacity(4 * capacity),
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, seq: u64, event: Event) {
        let slot = match event {
            Event::Arrival { link, packet } => self.packets.insert((link, packet)),
            Event::AppStart(app) => SMALL_SLAB | self.small.insert(SmallEvent::AppStart(app)),
            Event::Timer { app, token } => {
                SMALL_SLAB | self.small.insert(SmallEvent::Timer { app, token })
            }
            Event::FluidUpdate { link, bps } => {
                SMALL_SLAB | self.small.insert(SmallEvent::FluidUpdate { link, bps })
            }
        };
        match &mut self.order {
            Order::Heap(heap) => heap.push(Scheduled { time, seq, slot }),
            Order::Wheel(wheel) => wheel.push(time, seq, slot),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (time, slot) = match &mut self.order {
            Order::Heap(heap) => heap.pop().map(|s| (s.time, s.slot)),
            Order::Wheel(wheel) => wheel.pop().map(|(time, _seq, slot)| (time, slot)),
        }?;
        let event = if slot & SMALL_SLAB == 0 {
            let (link, packet) = self.packets.take(slot);
            Event::Arrival { link, packet }
        } else {
            match self.small.take(slot & !SMALL_SLAB) {
                SmallEvent::AppStart(app) => Event::AppStart(app),
                SmallEvent::Timer { app, token } => Event::Timer { app, token },
                SmallEvent::FluidUpdate { link, bps } => Event::FluidUpdate { link, bps },
            }
        };
        Some((time, event))
    }

    /// Bytes the queue has reserved: both slabs' slots and free lists,
    /// plus the order's keys (for the wheel, its node arena and slot
    /// heads too).
    /// Capacities never shrink, so read after a run this is the
    /// queue's high-water footprint.
    pub(crate) fn memory_bytes(&self) -> usize {
        let order = match &self.order {
            Order::Heap(heap) => heap.capacity() * std::mem::size_of::<Scheduled>(),
            Order::Wheel(wheel) => std::mem::size_of::<TimingWheel<u32>>() + wheel.memory_bytes(),
        };
        order + self.packets.memory_bytes() + self.small.memory_bytes()
    }

    /// Earliest pending time. `&mut` because the wheel may advance
    /// its internal cursor to surface it.
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        match &mut self.order {
            Order::Heap(heap) => heap.peek().map(|s| s.time),
            Order::Wheel(wheel) => wheel.next_time(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.order {
            Order::Heap(heap) => heap.len(),
            Order::Wheel(wheel) => wheel.len(),
        }
    }

    pub(crate) fn kind(&self) -> SchedulerKind {
        match self.order {
            Order::Heap(_) => SchedulerKind::Heap,
            Order::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    fn sched_stats(&self) -> SchedStats {
        match &self.order {
            Order::Heap(_) => SchedStats::default(),
            Order::Wheel(wheel) => wheel.stats(),
        }
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::ProptestConfig;
    use std::collections::BTreeMap;

    /// The wheel's geometry, so the jumps below straddle its levels
    /// and its overflow heap.
    use crate::wheel::{HORIZON_NS, TICK_NS};

    #[test]
    fn scheduled_key_is_24_bytes() {
        // The queue orders keys, not events: every push, cascade,
        // drain and sift moves a `Scheduled` (or the wheel's
        // `(time, seq, u32)` entry), while the event itself stays in
        // its slab slot. A field added to `Event` or `Ipv4Packet` must
        // not widen every scheduler step again.
        assert_eq!(std::mem::size_of::<Scheduled>(), 24);
    }

    #[test]
    fn small_slab_entry_is_at_most_24_bytes() {
        // Every pending timer costs one small-slab slot, so a field
        // added to `SmallEvent` is paid once per live fleet session.
        assert!(std::mem::size_of::<Option<SmallEvent>>() <= 24);
    }

    #[test]
    fn engine_capacity_maps_both_slabs() {
        // Below glibc's 128 KiB mmap threshold a slab is carved from
        // the heap, and dropping it moves the trim threshold: each of
        // a corpus's back-to-back simulations then re-faults its heap.
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let queue = EventQueue::with_capacity(kind, 2048);
            let packets = queue.packets.slots.capacity()
                * std::mem::size_of::<Option<(LinkId, Ipv4Packet)>>();
            let small = queue.small.slots.capacity() * std::mem::size_of::<Option<SmallEvent>>();
            assert!(
                packets >= 128 << 10,
                "{kind:?} packet slab reserves {packets} B"
            );
            assert!(small >= 128 << 10, "{kind:?} small slab reserves {small} B");
        }
    }

    #[test]
    fn pending_timer_costs_at_most_76_bytes() {
        // 10^5 timers pending at once, spread over the wheel's first
        // three levels. Each costs a 24-B slot, a 24-B key (the
        // heap's `Scheduled`, or a node in the wheel's arena) and a
        // 4-B free-list entry once popped: 52 B.
        // Vectors grow by doubling, so 10^5 entries reserve 2^17 and
        // the queue reports 70.3 B a timer under the heap order and
        // 70.8 B under the wheel, whose 4-KiB slot heads and current-
        // tick heap come on top. In a packet-sized 104-B slot a timer
        // cost 132 B by the same arithmetic, 173 B as reserved.
        const TIMERS: usize = 100_000;
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let mut queue = EventQueue::with_capacity(kind, 2048);
            let mut rng = SimRng::new(42);
            for seq in 0..TIMERS as u64 {
                let at = SimTime(rng.next_u64() % ((1 << 24) * TICK_NS));
                queue.push(
                    at,
                    seq,
                    Event::Timer {
                        app: AppId(0),
                        token: seq,
                    },
                );
            }
            while queue.pop().is_some() {}
            let per_timer = queue.memory_bytes() as f64 / TIMERS as f64;
            assert!(
                per_timer <= 76.0,
                "{kind:?}: {per_timer:.1} B per pending timer"
            );
        }
    }

    /// A jump past `now` drawn from `r`: the same instant (ties),
    /// sub-tick, level 0, levels 1-2, anywhere in level 3, or beyond
    /// the horizon. Returns the jump and whether it is the latter.
    fn jump(r: u64) -> (u64, bool) {
        let x = r >> 3;
        match r % 6 {
            0 => (0, false),
            1 => (x % TICK_NS, false),
            2 => (x % (256 * TICK_NS), false),
            3 => (x % ((1 << 24) * TICK_NS), false),
            4 => (
                (1 << 24) * TICK_NS + x % (HORIZON_NS - (1 << 24) * TICK_NS),
                false,
            ),
            _ => (HORIZON_NS + x % HORIZON_NS, true),
        }
    }

    /// The event pushed with `token`: one of the four kinds, an
    /// arrival carrying a small packet distinct per token.
    fn event_of(token: u64) -> Event {
        let id = (token >> 2) as usize % 1000;
        match token % 4 {
            0 => Event::Timer {
                app: AppId(id),
                token,
            },
            1 => Event::AppStart(AppId(id)),
            2 => Event::FluidUpdate {
                link: LinkId(id),
                bps: token,
            },
            _ => Event::Arrival {
                link: LinkId(id),
                packet: Ipv4Packet::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    IpProtocol::Udp,
                    token as u16,
                    Bytes::copy_from_slice(&token.to_le_bytes()),
                ),
            },
        }
    }

    /// An event as a comparable value: kind, id, scalar, packet.
    fn view(event: Event) -> (u8, usize, u64, Option<Ipv4Packet>) {
        match event {
            Event::Timer { app, token } => (0, app.0, token, None),
            Event::AppStart(app) => (1, app.0, 0, None),
            Event::FluidUpdate { link, bps } => (2, link.0, bps, None),
            Event::Arrival { link, packet } => (3, link.0, 0, Some(packet)),
        }
    }

    /// Drives `kind` through `fill` pushes from `seed`, then `ops`,
    /// then a full drain, holding every pop, `len` and `next_time` to
    /// a `BTreeMap<(time, seq), token>` reference. Pushes mix all four
    /// event kinds, and each popped event must equal the pushed one.
    /// Some ops reserve a block of seqs and later push under them, as
    /// a fleet driver arms its start timers: a reserved seq is below
    /// keys pushed since, often at the same instant.
    fn check_against_reference(kind: SchedulerKind, seed: u64, fill: usize, ops: &[(u8, u64)]) {
        let mut queue = EventQueue::with_capacity(kind, 16);
        let mut reference = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut next_seq = 0u64;
        // Reserved seqs not yet pushed, oldest first.
        let mut reserved = std::collections::VecDeque::new();
        let mut overflowed = 0u64;
        // Pending arrivals and others (indexed by `slab_of`).
        let mut pending = [0usize; 2];
        let slab_of = |token: u64| usize::from(token % 4 != 3);
        let push = |queue: &mut EventQueue,
                    reference: &mut BTreeMap<(SimTime, u64), u64>,
                    pending: &mut [usize; 2],
                    time: SimTime,
                    seq: u64| {
            let token = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            queue.push(time, seq, event_of(token));
            reference.insert((time, seq), token);
            pending[slab_of(token)] += 1;
        };
        let mut fresh = || {
            next_seq += 1;
            next_seq - 1
        };
        let pop = |queue: &mut EventQueue,
                   reference: &mut BTreeMap<(SimTime, u64), u64>,
                   pending: &mut [usize; 2]| {
            let got = queue.pop().map(|(time, event)| (time, view(event)));
            let want = reference.pop_first().map(|((time, _), token)| {
                pending[slab_of(token)] -= 1;
                (time, view(event_of(token)))
            });
            prop_assert_eq!(&got, &want, "{kind:?}");
            want.map(|(time, _)| time)
        };

        let mut rng = SimRng::new(seed);
        for _ in 0..fill {
            let (ns, beyond) = jump(rng.next_u64());
            overflowed += beyond as u64;
            push(
                &mut queue,
                &mut reference,
                &mut pending,
                SimTime(ns),
                fresh(),
            );
        }
        // The most of each kind pending at once.
        let mut high_water = pending;
        for &(op, r) in ops {
            match op {
                0..=4 => push(
                    &mut queue,
                    &mut reference,
                    &mut pending,
                    SimTime(now.0 + jump(r).0),
                    fresh(),
                ),
                5 => {
                    let at = SimTime(now.0 + jump(r >> 6).0);
                    for _ in 0..=(r % 64) {
                        push(&mut queue, &mut reference, &mut pending, at, fresh());
                    }
                }
                10 => {
                    for _ in 0..=(r % 8) {
                        reserved.push_back(fresh());
                    }
                }
                11 => {
                    // The oldest reserved seq, at the instant of the
                    // latest queued key (a tie it must win) or ahead.
                    if let Some(seq) = reserved.pop_front() {
                        let at = match reference.keys().next_back() {
                            Some(&(time, _)) if r % 2 == 0 => time,
                            _ => SimTime(now.0 + jump(r >> 1).0),
                        };
                        push(&mut queue, &mut reference, &mut pending, at, seq);
                    }
                }
                6..=8 => {
                    if let Some(time) = pop(&mut queue, &mut reference, &mut pending) {
                        now = time;
                    }
                }
                _ => {
                    let want = reference.keys().next().map(|&(time, _)| time);
                    prop_assert_eq!(queue.next_time(), want);
                }
            }
            for (hw, &now_pending) in high_water.iter_mut().zip(&pending) {
                *hw = (*hw).max(now_pending);
            }
            prop_assert_eq!(queue.len(), reference.len());
        }
        while pop(&mut queue, &mut reference, &mut pending).is_some() {}
        prop_assert_eq!(queue.len(), 0);
        prop_assert_eq!(queue.next_time(), None);
        // Freed slots are reused before a slab grows, so each slab
        // holds exactly as many slots as its kind ever had pending.
        prop_assert_eq!(queue.packets.slots.len(), high_water[0]);
        prop_assert_eq!(queue.packets.free.len(), high_water[0]);
        prop_assert_eq!(queue.small.slots.len(), high_water[1]);
        prop_assert_eq!(queue.small.free.len(), high_water[1]);
        if kind == SchedulerKind::Wheel {
            prop_assert!(queue.sched_stats().overflow_events >= overflowed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn both_orders_pop_time_seq_order_and_reuse_slots(
            seed in any::<u64>(),
            fill in 0usize..10_000,
            ops in proptest::collection::vec((0u8..12, any::<u64>()), 0..600),
        ) {
            for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
                check_against_reference(kind, seed, fill, &ops);
            }
        }
    }
}

/// A pending delivery to an application, produced while network state
/// is mutably borrowed and dispatched afterwards.
pub(crate) enum Delivery {
    Udp {
        app: AppId,
        from: (Ipv4Addr, u16),
        dst_port: u16,
        payload: Bytes,
    },
    Icmp {
        app: AppId,
        from: Ipv4Addr,
        msg: IcmpMessage,
    },
    Tcp {
        app: AppId,
        from: Ipv4Addr,
        segment: TcpSegment,
    },
}

/// Event-loop counters kept by the engine. Always on: plain integer
/// updates with no observable effect on simulation behaviour, so the
/// cost of keeping them is one add per event and telemetry on/off
/// cannot perturb a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events pushed onto the queue.
    pub events_scheduled: u64,
    /// Events popped and dispatched.
    pub events_processed: u64,
    /// Maximum queue length observed.
    pub queue_high_water: u64,
    /// Datagrams the sender had to split (send-side fragmentation).
    pub fragmented_datagrams: u64,
    /// Fragments produced by send-side fragmentation (counts only
    /// fragments of split datagrams, not whole packets).
    pub fragments_sent: u64,
    /// Packets put on the wire through the zero-copy fast path: they
    /// fit the link MTU, so the same refcounted buffer is forwarded
    /// with no fragmentation `Vec` and no re-encode.
    pub transit_fastpath: u64,
    /// Packets that went through the allocate-and-fragment path.
    pub transit_slowpath: u64,
}

/// All network state: everything an [`Application`] can touch through
/// its [`Ctx`].
pub struct SimCore {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) seq: u64,
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) taps: Vec<Slot<dyn Tap>>,
    pub(crate) rng: SimRng,
    pub(crate) stats: SimStats,
    /// The symbol table and the optional recorders; see
    /// [`crate::observers`].
    pub(crate) obs: Observers,
    /// Present only inside one domain of a sharded run (see
    /// [`crate::shard`]): tells the transmit path which nodes are
    /// foreign so cross-domain deliveries are diverted into the
    /// domain's outbox instead of its own event queue.
    pub(crate) shard: Option<Box<crate::shard::ShardCtx>>,
    /// `FluidUpdate` events applied by this core's event loop. Kept
    /// out of [`SimStats`]: it is fluid-engine diagnostics
    /// ([`crate::fluid::FluidDiag`]), not simulated-network state.
    pub(crate) fluid_applied: u64,
    /// Planned fluid updates of this core's links not yet queued; each
    /// link's next one is queued as its last one is applied.
    pub(crate) fluid: crate::fluid::FluidChains,
}

/// The component a drop is charged to: the node that discarded the
/// packet, or the link that lost it.
#[derive(Debug, Clone, Copy)]
enum Site {
    Node(NodeId),
    Link(LinkId),
}

impl SimCore {
    /// Record a lineage stage for `span` at an explicit time, labelled
    /// with `node`'s component. No-op unless lineage tracing is on.
    fn lineage_record_at(&mut self, node: NodeId, span: u64, time_ns: u64, stage: Stage, aux: u32) {
        let comp = self.nodes[node.0].comp;
        let Some(lin) = self.obs.lineage.as_deref_mut() else {
            return;
        };
        lin.rec.record(span, time_ns, comp, stage, aux);
    }

    /// Record into `comp`'s windowed `series` at the current sim time.
    /// No-op unless time-series recording is on.
    fn ts_record(&mut self, series: EngineSeries, comp: SymbolId, value: u64) {
        if let Some(ts) = self.obs.timeseries.as_deref_mut() {
            ts.record(series, comp, self.now.as_nanos(), value);
        }
    }

    /// The one way a packet drop reaches the observers, so all four
    /// reconcile 1:1 by construction. Bumps the always-on node counter
    /// for the five node-owned causes (links and reassemblers count
    /// their own), then the cause's windowed series, the session
    /// rollup, and lineage when the packet has a span.
    fn drop_packet(
        &mut self,
        at: Site,
        cause: DropCause,
        session: Option<SessionTag>,
        span: Option<u64>,
        aux: u32,
    ) {
        let comp = match at {
            Site::Node(node) => {
                let stats = &mut self.nodes[node.0].stats;
                match cause {
                    DropCause::NoRoute => stats.no_route += 1,
                    DropCause::TtlExpired => stats.ttl_expired += 1,
                    DropCause::DecodeError => stats.decode_errors += 1,
                    DropCause::UdpUnreachable => stats.udp_unreachable += 1,
                    DropCause::TcpUnreachable => stats.tcp_unreachable += 1,
                    _ => {}
                }
                self.nodes[node.0].comp
            }
            Site::Link(link) => self.links[link.0].comp,
        };
        self.ts_record(EngineSeries::Dropped(cause), comp, 1);
        if let (Some(sess), Some(tag)) = (self.obs.sessions.as_deref(), session) {
            let mut rec = sess
                .shared
                .lock()
                .expect("no domain panics holding the recorder");
            rec.record_drop(tag.id, cause);
        }
        if let (Some(lin), Some(span)) = (self.obs.lineage.as_deref_mut(), span) {
            lin.rec
                .record(span, self.now.as_nanos(), comp, Stage::Dropped(cause), aux);
        }
    }

    /// The one way a local delivery reaches the observers: the node's
    /// UDP/TCP delivery counter, the session rollup, and lineage.
    /// ICMP is consumed by the protocol layer and has no counter.
    fn deliver_packet(&mut self, node: NodeId, packet: &Ipv4Packet, aux: u32, payload_len: usize) {
        let stats = &mut self.nodes[node.0].stats;
        match packet.protocol {
            IpProtocol::Udp => stats.udp_delivered += 1,
            IpProtocol::Tcp => stats.tcp_delivered += 1,
            _ => {}
        }
        if let (Some(sess), Some(tag)) = (self.obs.sessions.as_deref(), packet.session) {
            let mut rec = sess
                .shared
                .lock()
                .expect("no domain panics holding the recorder");
            rec.record_delivery(tag.id, payload_len as u32, self.now.as_nanos(), tag.born_ns);
        }
        self.lineage_node_event(node, packet.lineage, Stage::Delivered, aux);
    }

    /// Whether a packet with this session tag should get a lineage
    /// span. With no sampler (or sessions off) every packet qualifies;
    /// with a sampler, only packets of admitted sessions do — untagged
    /// traffic records no lineage at all, which is what bounds the
    /// recorder at fleet scale.
    fn session_lineage_admits(&self, tag: Option<SessionTag>) -> bool {
        match self.obs.sessions.as_deref().and_then(|s| s.sampler) {
            Some(sampler) => tag.is_some_and(|t| sampler.admits(t.id)),
            None => true,
        }
    }

    /// Record a lineage stage at the current sim time against a node.
    fn lineage_node_event(&mut self, node: NodeId, span: Option<u64>, stage: Stage, aux: u32) {
        if self.obs.lineage.is_some() {
            if let Some(span) = span {
                let now_ns = self.now.as_nanos();
                self.lineage_record_at(node, span, now_ns, stage, aux);
            }
        }
    }

    /// Record a lineage stage at the current sim time against a link.
    fn lineage_link_event(&mut self, link: LinkId, span: Option<u64>, stage: Stage, aux: u32) {
        let comp = self.links[link.0].comp;
        let Some(lin) = self.obs.lineage.as_deref_mut() else {
            return;
        };
        let Some(span) = span else {
            return;
        };
        lin.rec.record(span, self.now.as_nanos(), comp, stage, aux);
    }

    /// Apply a precomputed fluid-share change: the packet path on this
    /// link now sees `capacity − bps` residual. Pure state write plus
    /// an (optional) series sample — no RNG, no scheduling — so with
    /// zero background flows none of these ever exist and hybrid runs
    /// stay byte-identical to packet runs.
    pub(crate) fn apply_fluid_update(&mut self, link: LinkId, bps: u64) {
        self.links[link.0].fluid_bps = bps;
        self.fluid_applied += 1;
        let comp = self.links[link.0].comp;
        self.ts_record(EngineSeries::LinkFluidBps, comp, bps);
    }

    /// Make `chains` this core's planned fluid updates and queue each
    /// link's first. They were counted in `events_scheduled` when the
    /// plan was sealed.
    pub(crate) fn arm_fluid(&mut self, chains: crate::fluid::FluidChains) {
        self.fluid = chains;
        for link in 0..self.fluid.links() {
            self.queue_next_fluid(LinkId(link));
        }
    }

    /// Queue `link`'s next planned update, if any, under its reserved
    /// seq.
    fn queue_next_fluid(&mut self, link: LinkId) {
        if let Some((time, seq, bps)) = self.fluid.next(link) {
            self.enqueue(time, seq, Event::FluidUpdate { link, bps });
        }
    }

    pub(crate) fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.reserve_seqs(1);
        self.schedule_reserved(time, seq, event);
    }

    /// Take `n` consecutive sequence numbers off the insertion counter
    /// and return the first. An event scheduled later with one of them
    /// breaks ties at its instant exactly as if it had been scheduled
    /// now; only [`Self::schedule_reserved`] counts it.
    pub(crate) fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.seq;
        self.seq += n;
        base
    }

    /// Schedule `event` under a sequence number taken earlier from
    /// [`Self::reserve_seqs`]. The caller uses each reserved number at
    /// most once, so keys stay unique.
    pub(crate) fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: Event) {
        self.stats.events_scheduled += 1;
        self.enqueue(time, seq, event);
    }

    /// Queue `event` under a reserved `seq` without counting it in
    /// `events_scheduled`: for an event counted when it was planned.
    fn enqueue(&mut self, time: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        let time = time.max(self.now);
        self.queue.push(time, seq, event);
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_high_water {
            self.stats.queue_high_water = depth;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine RNG (components wanting isolation should
    /// [`SimRng::fork`] their own stream at setup).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Event-loop counters (always on).
    pub fn sim_stats(&self) -> SimStats {
        self.stats
    }

    /// Which scheduler implementation drives the event queue.
    pub fn scheduler(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Scheduler-internal diagnostics (all zero for the heap). These
    /// describe the engine, not the simulated network, so they stay
    /// outside the cross-scheduler identity set (see DESIGN.md).
    pub fn sched_stats(&self) -> SchedStats {
        self.queue.sched_stats()
    }

    /// Bytes the event queue has reserved (see
    /// [`Simulation::queue_memory_bytes`]).
    pub fn queue_memory_bytes(&self) -> u64 {
        self.queue.memory_bytes() as u64
    }

    /// Harvest every component's counters into `registry`: engine
    /// event-loop stats, per-link transmit/drop/fault counters and
    /// utilisation, per-node delivery and reassembly counters. Pure
    /// read of state the simulator keeps anyway, so it can be called
    /// whether or not `obs` is enabled.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        collect_sim_metrics(&self.stats, registry);
        let elapsed_secs = self.now.as_nanos() as f64 / 1e9;
        for link in &self.links {
            collect_link_metrics(link, elapsed_secs, registry);
        }
        for node in &self.nodes {
            collect_node_metrics(node, registry);
        }
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable link access.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    fn run_taps(&mut self, direction: Direction, node: NodeId, link: LinkId, packet: &Ipv4Packet) {
        if self.taps.is_empty() {
            return;
        }
        let ev_time = self.now;
        let mut observed = false;
        for slot in &mut self.taps {
            if slot.node == node {
                observed = true;
                let tap = slot.held.as_deref_mut().expect("a tap was taken mid-run");
                tap.observe(&TapEvent {
                    time: ev_time,
                    node,
                    direction,
                    link,
                    packet,
                });
            }
        }
        if observed {
            self.ts_record(EngineSeries::Sniffed, self.nodes[node.0].comp, 1);
            self.lineage_node_event(
                node,
                packet.lineage,
                Stage::Sniffed,
                u32::from(packet.fragment_offset),
            );
        }
    }

    /// Originate an IP packet at `node`, then route and transmit it.
    /// Every packet the simulation creates enters here (player media,
    /// pings, traceroute probes, and router-generated ICMP errors
    /// alike), so this is the one place a send is observed.
    pub fn send_ip(&mut self, node: NodeId, mut packet: Ipv4Packet) {
        // A pending `session_packetize` attribution is consumed by the
        // first originated datagram, before the routing decision, so
        // packets that drop on NoRoute still count as sent. A packet
        // that already carries a tag keeps it.
        if self.obs.sessions.is_some() && packet.session.is_none() {
            let now_ns = self.now.as_nanos();
            let sess = self.obs.sessions.as_deref_mut().expect("checked above");
            if let Some((id, bytes)) = sess.pending.take() {
                packet.session = Some(SessionTag {
                    id,
                    born_ns: now_ns,
                });
                sess.shared.lock().unwrap().record_send(id, bytes, now_ns);
            }
        }
        // Lineage spans are born here too. With session sampling
        // active, only admitted sessions get spans — but the staged
        // packetize metadata is consumed either way so it cannot leak
        // onto a later packet.
        let sampled = self.session_lineage_admits(packet.session);
        if let Some(lin) = self.obs.lineage.as_deref_mut() {
            if packet.lineage.is_none() {
                let comp = self.nodes[node.0].comp;
                let meta = lin.pending_meta.take();
                if sampled {
                    let span = lin.rec.begin_span(
                        self.now.as_nanos(),
                        comp,
                        meta,
                        packet.payload.len() as u32,
                    );
                    packet.lineage = Some(span);
                }
            }
        }
        self.route_and_transmit(node, packet);
    }

    /// Route a packet from `node`, fragment it to the link MTU if
    /// needed, and put every resulting packet on the wire. `forward`
    /// enters here directly: a forwarded packet keeps the session tag
    /// and span its origin gave it.
    fn route_and_transmit(&mut self, node: NodeId, packet: Ipv4Packet) {
        let Some(link_id) = self.nodes[node.0].route(packet.dst) else {
            self.drop_packet(
                Site::Node(node),
                DropCause::NoRoute,
                packet.session,
                packet.lineage,
                u32::from(packet.fragment_offset),
            );
            return;
        };
        let mtu = self.links[link_id.0].config.mtu;
        // Zero-copy fast path: a packet that already fits the MTU is
        // forwarded as-is — same refcounted payload, no fragmentation
        // `Vec`. The tiny-MTU guard keeps the error path identical:
        // `fragment` rejects any MTU below header + 8, even for
        // packets that would fit it.
        if packet.total_len() <= mtu && mtu >= IPV4_HEADER_LEN + 8 {
            self.stats.transit_fastpath += 1;
            self.transmit_packet(node, link_id, packet);
            return;
        }
        let span = packet.lineage;
        let sess_tag = packet.session;
        let fragments = match turb_wire::frag::fragment(packet, mtu) {
            Ok(f) => f,
            Err(_) => {
                // DF set and too big (or unusable MTU): unroutable.
                self.drop_packet(Site::Node(node), DropCause::NoRoute, sess_tag, span, 0);
                return;
            }
        };
        if fragments.len() > 1 {
            self.stats.fragmented_datagrams += 1;
            self.stats.fragments_sent += fragments.len() as u64;
            self.lineage_node_event(node, span, Stage::Fragmented, fragments.len() as u32);
        }
        self.stats.transit_slowpath += fragments.len() as u64;
        for frag in fragments {
            self.transmit_packet(node, link_id, frag);
        }
    }

    /// Put one MTU-sized packet on `link_id`'s wire: count, tap,
    /// transmit, schedule the arrival. Shared by the zero-copy fast
    /// path and the fragmentation path.
    fn transmit_packet(&mut self, node: NodeId, link_id: LinkId, packet: Ipv4Packet) {
        self.nodes[node.0].stats.tx_packets += 1;
        self.run_taps(Direction::Tx, node, link_id, &packet);
        let bytes = packet.total_len();
        let offset = u32::from(packet.fragment_offset);
        self.lineage_link_event(link_id, packet.lineage, Stage::LinkTx, offset);
        let outcome = self.links[link_id.0].transmit(self.now, bytes);
        let link_comp = self.links[link_id.0].comp;
        if self.obs.timeseries.is_some() {
            // Faulted packets consumed transmit bandwidth before being
            // lost, so they count toward tx bytes exactly as the
            // always-on `LinkStats` do; the windowed series must agree
            // with those counters to reconcile.
            if !matches!(outcome, TxOutcome::QueueFull | TxOutcome::Red) {
                self.ts_record(EngineSeries::LinkTxBytes, link_comp, bytes as u64);
            }
            let backlog = self.links[link_id.0].backlog_bytes(self.now) as u64;
            self.ts_record(EngineSeries::LinkQueueDepth, link_comp, backlog);
        }
        match outcome {
            TxOutcome::Deliver { arrival } => {
                // Sharded runs divert deliveries whose receiving node
                // lives in another domain into the outbox; the barrier
                // exchange schedules them over there (which is also
                // where `events_scheduled` counts them, matching the
                // sequential totals when domains are summed).
                let to = self.links[link_id.0].to;
                if let Some(shard) = self.shard.as_deref_mut() {
                    if shard.node_domain[to.0] != shard.domain {
                        shard.outbox.push(crate::shard::Transit {
                            time: arrival,
                            link: link_id,
                            packet,
                        });
                        return;
                    }
                }
                self.schedule(
                    arrival,
                    Event::Arrival {
                        link: link_id,
                        packet,
                    },
                );
            }
            TxOutcome::QueueFull | TxOutcome::Red | TxOutcome::Faulted => {
                let cause = match outcome {
                    TxOutcome::Faulted => DropCause::Fault,
                    TxOutcome::Red => DropCause::RedEarly,
                    _ => DropCause::QueueFull,
                };
                let (session, span) = (packet.session, packet.lineage);
                self.drop_packet(Site::Link(link_id), cause, session, span, offset);
            }
        }
    }

    /// Build and send a UDP datagram from `node`: encode it, then
    /// [`Self::send_udp_encoded`].
    pub fn send_udp_from(
        &mut self,
        node: NodeId,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
        ttl: u8,
    ) {
        let src = self.nodes[node.0].addr;
        let udp = UdpDatagram::new(src_port, dst_port, payload)
            .encode(src, dst)
            .expect("UDP payload within size limits");
        self.send_udp_encoded(node, dst, udp, ttl);
    }

    /// Send an already-encoded UDP datagram (header, pseudo-header
    /// checksum and payload, as [`UdpDatagram::encode`] returns it for
    /// `node`'s address and `dst`) in an IPv4 packet with a fresh
    /// ident and `ttl`. Every UDP send ends here. The bytes are not
    /// checked on the way out: the receiver verifies the checksum on
    /// every delivery, so a datagram encoded for another address pair,
    /// or corrupted, drops there as a decode error.
    pub fn send_udp_encoded(&mut self, node: NodeId, dst: Ipv4Addr, udp: Bytes, ttl: u8) {
        let src = self.nodes[node.0].addr;
        let ident = self.nodes[node.0].next_ident();
        let mut packet = Ipv4Packet::new(src, dst, IpProtocol::Udp, ident, udp);
        packet.ttl = ttl;
        self.send_ip(node, packet);
    }

    /// Build and send an ICMP message from `node`.
    pub fn send_icmp_from(&mut self, node: NodeId, dst: Ipv4Addr, msg: IcmpMessage) {
        let src = self.nodes[node.0].addr;
        let ident = self.nodes[node.0].next_ident();
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Icmp, ident, msg.encode());
        self.send_ip(node, packet);
    }

    /// First 28 bytes (IP header + 8) of a packet, for ICMP error bodies.
    fn icmp_original(packet: &Ipv4Packet) -> Bytes {
        let encoded = packet.encode().expect("in-flight packet is encodable");
        encoded.slice(..encoded.len().min(28))
    }

    /// Handle a packet coming off a link, appending any resulting
    /// application deliveries to `out`. The caller owns `out` so the
    /// per-event `Vec` can be reused across the whole event loop
    /// instead of being reallocated for every arrival.
    fn handle_arrival(&mut self, link_id: LinkId, packet: Ipv4Packet, out: &mut Vec<Delivery>) {
        let node_id = self.links[link_id.0].to;
        {
            let node = &mut self.nodes[node_id.0];
            node.stats.rx_packets += 1;
            node.stats.rx_bytes += packet.total_len() as u64;
        }
        self.ts_record(
            EngineSeries::NodeRxBytes,
            self.nodes[node_id.0].comp,
            packet.total_len() as u64,
        );
        self.lineage_node_event(
            node_id,
            packet.lineage,
            Stage::Arrived,
            u32::from(packet.fragment_offset),
        );
        self.run_taps(Direction::Rx, node_id, link_id, &packet);

        let local = packet.dst == self.nodes[node_id.0].addr;
        if !local {
            if self.nodes[node_id.0].kind == NodeKind::Router {
                self.forward(node_id, packet);
            } else {
                // Hosts silently drop transit traffic.
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::NoRoute,
                    packet.session,
                    packet.lineage,
                    u32::from(packet.fragment_offset),
                );
            }
            return;
        }

        // Local delivery: reassemble first. Expiry cannot borrow
        // `self`, so it collects each timed-out group's template and
        // the drops are reported once the reassembler is released.
        let now_ns = self.now.as_nanos();
        let span = packet.lineage;
        let sess_tag = packet.session;
        let offset = u32::from(packet.fragment_offset);
        let was_fragment = packet.is_fragment();
        let mut expired = Vec::new();
        let reassembler = &mut self.nodes[node_id.0].reassembler;
        reassembler.expire_with(now_ns, |t| {
            expired.push((t.session, t.lineage, u32::from(t.fragment_offset)))
        });
        let before = reassembler.stats();
        let whole = reassembler.push(packet, now_ns);
        let after = reassembler.stats();
        let backlog = reassembler.pending() as u64;
        let at = Site::Node(node_id);
        for (session, span, offset) in expired {
            self.drop_packet(at, DropCause::ReasmTimeout, session, span, offset);
        }
        // One push rejects or duplicates at most one fragment.
        let invalid = after.invalid > before.invalid;
        if invalid {
            self.drop_packet(at, DropCause::ReasmInvalid, sess_tag, span, offset);
        } else if after.duplicates > before.duplicates {
            self.drop_packet(at, DropCause::ReasmDuplicate, sess_tag, span, offset);
        }
        let node_comp = self.nodes[node_id.0].comp;
        self.ts_record(EngineSeries::ReasmBacklog, node_comp, backlog);
        if was_fragment && whole.is_none() && !invalid {
            self.lineage_node_event(node_id, span, Stage::ReasmHeld, offset);
        }
        let Some(packet) = whole else {
            return;
        };
        if was_fragment {
            self.lineage_node_event(node_id, packet.lineage, Stage::Reassembled, 0);
        }
        if let Some(lin) = self.obs.lineage.as_deref_mut() {
            // Applications read the delivering packet's span through
            // `Ctx::lineage_current_span` while `out` is dispatched.
            lin.current_span = packet.lineage;
        }
        match packet.protocol {
            IpProtocol::Icmp => self.deliver_icmp(node_id, packet, out),
            IpProtocol::Udp => self.deliver_udp(node_id, packet, out),
            IpProtocol::Tcp => self.deliver_tcp(node_id, packet, out),
            _ => {}
        }
    }

    fn forward(&mut self, node_id: NodeId, mut packet: Ipv4Packet) {
        if packet.ttl <= 1 {
            self.drop_packet(
                Site::Node(node_id),
                DropCause::TtlExpired,
                packet.session,
                packet.lineage,
                u32::from(packet.fragment_offset),
            );
            // Never generate ICMP errors about ICMP errors.
            let is_icmp_error = packet.protocol == IpProtocol::Icmp
                && matches!(
                    IcmpMessage::decode_shared(&packet.payload),
                    Ok(IcmpMessage::TimeExceeded { .. })
                        | Ok(IcmpMessage::DestinationUnreachable { .. })
                );
            if !is_icmp_error {
                let msg = IcmpMessage::TimeExceeded {
                    original: Self::icmp_original(&packet),
                };
                self.send_icmp_from(node_id, packet.src, msg);
            }
            return;
        }
        packet.ttl -= 1;
        self.route_and_transmit(node_id, packet);
    }

    fn deliver_icmp(&mut self, node_id: NodeId, packet: Ipv4Packet, out: &mut Vec<Delivery>) {
        let msg = match IcmpMessage::decode_shared(&packet.payload) {
            Ok(m) => m,
            Err(_) => {
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::DecodeError,
                    packet.session,
                    packet.lineage,
                    0,
                );
                return;
            }
        };
        // The protocol layer consumed the message either way (echo
        // requests are answered, everything else fans out to whatever
        // listeners exist): the span terminated by delivery.
        self.deliver_packet(node_id, &packet, 0, packet.payload.len());
        if let Some(reply) = msg.reply_to() {
            // Echo request: the node answers itself (hosts and routers).
            self.send_icmp_from(node_id, packet.src, reply);
            return;
        }
        // Listeners are read, never mutated, while fanning out, so
        // index rather than clone the listener list; the message is
        // moved, not cloned, into the last delivery, so the common
        // single-listener node never clones at all.
        let listeners = self.nodes[node_id.0].icmp_listeners.len();
        let mut msg = Some(msg);
        for i in 0..listeners {
            let app = self.nodes[node_id.0].icmp_listeners[i];
            let msg = if i + 1 == listeners {
                msg.take().expect("taken only on the last listener")
            } else {
                msg.as_ref()
                    .expect("taken only on the last listener")
                    .clone()
            };
            out.push(Delivery::Icmp {
                app,
                from: packet.src,
                msg,
            });
        }
    }

    fn deliver_udp(&mut self, node_id: NodeId, packet: Ipv4Packet, out: &mut Vec<Delivery>) {
        let datagram = match UdpDatagram::decode_shared(&packet.payload, packet.src, packet.dst) {
            Ok(d) => d,
            Err(_) => {
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::DecodeError,
                    packet.session,
                    packet.lineage,
                    0,
                );
                return;
            }
        };
        match self.nodes[node_id.0].ports.get(&datagram.dst_port).copied() {
            Some(app) => {
                let (port, len) = (datagram.dst_port, datagram.payload.len());
                self.deliver_packet(node_id, &packet, u32::from(port), len);
                out.push(Delivery::Udp {
                    app,
                    from: (packet.src, datagram.src_port),
                    dst_port: datagram.dst_port,
                    payload: datagram.payload,
                });
            }
            None => {
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::UdpUnreachable,
                    packet.session,
                    packet.lineage,
                    u32::from(datagram.dst_port),
                );
                let msg = IcmpMessage::DestinationUnreachable {
                    code: 3, // port unreachable
                    original: Self::icmp_original(&packet),
                };
                self.send_icmp_from(node_id, packet.src, msg);
            }
        }
    }
}

impl SimCore {
    fn deliver_tcp(&mut self, node_id: NodeId, packet: Ipv4Packet, out: &mut Vec<Delivery>) {
        let segment = match TcpSegment::decode(&packet.payload, packet.src, packet.dst) {
            Ok(s) => s,
            Err(_) => {
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::DecodeError,
                    packet.session,
                    packet.lineage,
                    0,
                );
                return;
            }
        };
        match self.nodes[node_id.0]
            .tcp_ports
            .get(&segment.dst_port)
            .copied()
        {
            Some(app) => {
                let (port, len) = (segment.dst_port, segment.payload.len());
                self.deliver_packet(node_id, &packet, u32::from(port), len);
                out.push(Delivery::Tcp {
                    app,
                    from: packet.src,
                    segment,
                });
            }
            None => {
                // A real stack would answer RST; nothing in the
                // workspace needs that, so just count it.
                self.drop_packet(
                    Site::Node(node_id),
                    DropCause::TcpUnreachable,
                    packet.session,
                    packet.lineage,
                    u32::from(segment.dst_port),
                );
            }
        }
    }

    /// Build and send a TCP segment from `node`.
    pub fn send_tcp_from(&mut self, node: NodeId, dst: Ipv4Addr, segment: &TcpSegment) {
        let src = self.nodes[node.0].addr;
        let bytes = segment
            .encode(src, dst)
            .expect("segment within size limits");
        let ident = self.nodes[node.0].next_ident();
        let mut packet = Ipv4Packet::new(src, dst, IpProtocol::Tcp, ident, bytes);
        packet.ttl = 128;
        self.send_ip(node, packet);
    }
}

/// Engine event-loop counters into `registry`. Intentionally excludes
/// `queue_high_water`: it describes one engine's queue, and a sharded
/// run splits the queue across domains, so it lives in diagnostics
/// ([`crate::shard::ShardDiag`]) rather than the identity-checked
/// metrics. `SimStats` fields other than it sum exactly across shard
/// domains, which is what keeps this collection partition-independent.
pub(crate) fn collect_sim_metrics(stats: &SimStats, registry: &mut MetricsRegistry) {
    registry.counter_add("sim_events_scheduled_total", "sim", stats.events_scheduled);
    registry.counter_add("sim_events_processed_total", "sim", stats.events_processed);
    registry.counter_add(
        "sim_fragmented_datagrams_total",
        "sim",
        stats.fragmented_datagrams,
    );
    registry.counter_add("sim_fragments_sent_total", "sim", stats.fragments_sent);
    registry.counter_add("sim_transit_fastpath_total", "sim", stats.transit_fastpath);
    registry.counter_add("sim_transit_slowpath_total", "sim", stats.transit_slowpath);
}

/// One link's counters and utilisation into `registry`.
pub(crate) fn collect_link_metrics(link: &Link, elapsed_secs: f64, registry: &mut MetricsRegistry) {
    let component = link.trace_component.as_str();
    let s = link.stats;
    registry.counter_add("link_tx_packets_total", component, s.tx_packets);
    registry.counter_add("link_tx_bytes_total", component, s.tx_bytes);
    registry.counter_add("link_dropped_queue_total", component, s.dropped_queue);
    registry.counter_add("link_dropped_red_total", component, s.dropped_red);
    registry.counter_add("link_dropped_fault_total", component, s.dropped_fault);
    let f = link.fault.stats();
    registry.counter_add("fault_offered_total", component, f.offered);
    registry.counter_add("fault_dropped_total", component, f.dropped);
    registry.counter_add("fault_delayed_total", component, f.delayed);
    if elapsed_secs > 0.0 {
        let busy_secs = s.tx_bytes as f64 * 8.0 / link.config.rate_bps as f64;
        registry.gauge_set(
            "link_utilization",
            component,
            (busy_secs / elapsed_secs).min(1.0),
        );
    }
}

/// One node's delivery and reassembly counters into `registry`.
pub(crate) fn collect_node_metrics(node: &Node, registry: &mut MetricsRegistry) {
    let component = node.trace_component.as_str();
    let s = node.stats;
    registry.counter_add("node_rx_packets_total", component, s.rx_packets);
    registry.counter_add("node_rx_bytes_total", component, s.rx_bytes);
    registry.counter_add("node_tx_packets_total", component, s.tx_packets);
    registry.counter_add("node_ttl_expired_total", component, s.ttl_expired);
    registry.counter_add("node_no_route_total", component, s.no_route);
    registry.counter_add("node_udp_delivered_total", component, s.udp_delivered);
    registry.counter_add("node_udp_unreachable_total", component, s.udp_unreachable);
    registry.counter_add("node_tcp_delivered_total", component, s.tcp_delivered);
    registry.counter_add("node_tcp_unreachable_total", component, s.tcp_unreachable);
    registry.counter_add("node_decode_errors_total", component, s.decode_errors);
    let r = node.reassembler.stats();
    registry.counter_add(
        "reassembly_fragments_received_total",
        component,
        r.fragments_received,
    );
    registry.counter_add("reassembly_passthrough_total", component, r.passthrough);
    registry.counter_add("reassembly_reassembled_total", component, r.reassembled);
    registry.counter_add("reassembly_timed_out_total", component, r.timed_out);
    registry.counter_add("reassembly_duplicates_total", component, r.duplicates);
    registry.counter_add("reassembly_invalid_total", component, r.invalid);
}

/// The application-facing handle: everything an app may do during a
/// callback.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    app: AppId,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This application's id.
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// The node this application runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The node's IPv4 address.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.core.nodes[self.node.0].addr
    }

    /// This node's private random stream. Per-node (not engine-wide)
    /// so the draw sequence each application sees is a function of its
    /// own node's behaviour alone — a prerequisite for sharded runs
    /// being byte-identical to sequential ones.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.nodes[self.node.0].rng
    }

    /// Send a UDP datagram with the default TTL (128, matching the
    /// Windows senders of the study).
    pub fn send_udp(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: Bytes) {
        self.core
            .send_udp_from(self.node, src_port, dst, dst_port, payload, 128);
    }

    /// Send a UDP datagram of `payload_len` payload bytes that `fill`
    /// writes in place (see [`UdpDatagram::encode_with`]), with the
    /// default TTL. Media senders write header and filler straight
    /// into the buffer the network carries.
    pub fn send_udp_with(
        &mut self,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        let src = self.local_addr();
        let udp = UdpDatagram::encode_with(src_port, dst_port, payload_len, src, dst, fill)
            .expect("UDP payload within size limits");
        self.core.send_udp_encoded(self.node, dst, udp, 128);
    }

    /// Send a UDP datagram that is already encoded for this node's
    /// address and `dst` (see [`SimCore::send_udp_encoded`]), with the
    /// default TTL. A sender that repeats one datagram encodes it once
    /// and sends refcounted clones.
    pub fn send_udp_encoded(&mut self, dst: Ipv4Addr, udp: Bytes) {
        self.core.send_udp_encoded(self.node, dst, udp, 128);
    }

    /// Send a UDP datagram with an explicit TTL (traceroute probes).
    pub fn send_udp_ttl(
        &mut self,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
        ttl: u8,
    ) {
        self.core
            .send_udp_from(self.node, src_port, dst, dst_port, payload, ttl);
    }

    /// Stop delivering this node's incoming ICMP to this application
    /// (undoes `listen_icmp` at [`Simulation::add_app`]). A tool that
    /// has finished calls it, so later traffic's ICMP no longer
    /// reaches it and it can be taken back while the run goes on.
    pub fn stop_listening_icmp(&mut self) {
        let app = self.app;
        self.core.nodes[self.node.0]
            .icmp_listeners
            .retain(|&listener| listener != app);
    }

    /// Send an ICMP message (e.g. an echo request for ping).
    pub fn send_icmp(&mut self, dst: Ipv4Addr, msg: IcmpMessage) {
        self.core.send_icmp_from(self.node, dst, msg);
    }

    /// Send a TCP segment.
    pub fn send_tcp(&mut self, dst: Ipv4Addr, segment: &TcpSegment) {
        self.core.send_tcp_from(self.node, dst, segment);
    }

    /// Schedule [`Application::on_timer`] with `token` after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) {
        let at = self.core.now + delay;
        self.core.schedule(
            at,
            Event::Timer {
                app: self.app,
                token,
            },
        );
    }

    /// Schedule [`Application::on_timer`] with `token` at absolute time
    /// `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        self.core.schedule(
            at,
            Event::Timer {
                app: self.app,
                token,
            },
        );
    }

    /// Reserve `n` consecutive timer sequence numbers and return the
    /// first. A timer armed later with one of them through
    /// [`Ctx::set_timer_reserved`] ties at its instant as if it had
    /// been armed now. The pop order is the same as arming them all
    /// now, provided each is armed before the engine pops any event
    /// that sorts after it.
    pub fn reserve_timer_seqs(&mut self, n: usize) -> u64 {
        self.core.reserve_seqs(n as u64)
    }

    /// Schedule [`Application::on_timer`] with `token` at absolute time
    /// `at` (clamped to now) under `seq`, one of the numbers from
    /// [`Ctx::reserve_timer_seqs`]. Arm each reserved number at most
    /// once.
    pub fn set_timer_reserved(&mut self, at: SimTime, seq: u64, token: u64) {
        self.core.schedule_reserved(
            at,
            seq,
            Event::Timer {
                app: self.app,
                token,
            },
        );
    }

    /// Whether packet-lineage tracing is on. Apps use this to skip the
    /// (cheap but non-free) metadata bookkeeping on untraced runs.
    pub fn lineage_enabled(&self) -> bool {
        self.core.obs.lineage.is_some()
    }

    /// Whether session-rollup recording is on. Apps use this to skip
    /// the attribution call on un-instrumented runs.
    pub fn sessions_enabled(&self) -> bool {
        self.core.obs.sessions.is_some()
    }

    /// Attribute the next `send_*` call's datagram to session `id`
    /// carrying `bytes` of application payload. Consumed by the first
    /// originated packet (the tag then rides every fragment) and
    /// ignored entirely when session recording is off.
    pub fn session_packetize(&mut self, id: u32, bytes: u32) {
        if let Some(sess) = self.core.obs.sessions.as_deref_mut() {
            sess.pending = Some((id, bytes));
        }
    }

    /// Add to a windowed counter series labelled with `component`,
    /// at the current sim time. The label is interned whether or not
    /// recording is on — the symbol table must not depend on which
    /// observers are enabled, or otherwise-identical runs would
    /// resolve different ids. No-op (beyond interning) when
    /// time-series recording is off.
    pub fn ts_counter(&mut self, name: &'static str, component: &str, delta: u64) {
        let comp = self.core.obs.interner.intern(component);
        let now_ns = self.core.now.as_nanos();
        if let Some(ts) = self.core.obs.timeseries.as_deref_mut() {
            ts.rec.counter_add(now_ns, name, comp, delta);
        }
    }

    /// Raise a windowed high-water gauge labelled with `component` at
    /// the current sim time; interning behaves as in
    /// [`Ctx::ts_counter`].
    pub fn ts_gauge(&mut self, name: &'static str, component: &str, value: u64) {
        let comp = self.core.obs.interner.intern(component);
        let now_ns = self.core.now.as_nanos();
        if let Some(ts) = self.core.obs.timeseries.as_deref_mut() {
            ts.rec.gauge_max(now_ns, name, comp, value);
        }
    }

    /// Describe the media frame behind the next `send_*` call. The
    /// span born for that datagram records this metadata; it is
    /// consumed by the first send and ignored entirely when lineage
    /// tracing is off.
    pub fn lineage_packetize(&mut self, meta: PacketizeMeta) {
        if let Some(lin) = self.core.obs.lineage.as_deref_mut() {
            lin.pending_meta = Some(meta);
        }
    }

    /// Span of the packet being delivered by the current callback
    /// (`on_udp` / `on_icmp` / `on_tcp`), `None` for timer callbacks or
    /// when lineage tracing is off.
    pub fn lineage_current_span(&self) -> Option<u64> {
        self.core
            .obs
            .lineage
            .as_deref()
            .and_then(|l| l.current_span)
    }

    /// Record that `span`'s payload entered this node's playback
    /// buffer; `media_time_ms` is its presentation timestamp.
    pub fn lineage_buffered(&mut self, span: u64, media_time_ms: u32) {
        self.core
            .lineage_node_event(self.node, Some(span), Stage::Buffered, media_time_ms);
    }

    /// Record that `span`'s payload was played out at `time_ns` (the
    /// playout deadline, which may lag the callback that flushes it).
    pub fn lineage_played(&mut self, span: u64, time_ns: u64, media_time_ms: u32) {
        self.core
            .lineage_record_at(self.node, span, time_ns, Stage::Played, media_time_ms);
    }
}

/// How many events the sequential loop processes between heartbeat
/// checks. The wall-clock rate limiting lives in the meter itself;
/// this just keeps the `Instant::now` call off the per-event path.
const PROGRESS_EVENT_STRIDE: u64 = 1 << 16;

/// The simulation: network core plus applications.
pub struct Simulation {
    pub(crate) core: SimCore,
    pub(crate) apps: Vec<Slot<dyn Application>>,
    /// Reusable delivery buffer for the event loop: arrivals are the
    /// hot path, and a fresh `Vec` per event showed up in profiles.
    pub(crate) deliveries: Vec<Delivery>,
    /// How [`Simulation::run_until`]-family calls execute: on this
    /// thread ([`ShardKind::Sequential`], the default) or partitioned
    /// across domains with one worker each. Set via
    /// [`Simulation::set_shards`] before the first run call.
    pub(crate) shards: crate::shard::ShardKind,
    /// The live partition, built lazily at the first run call when
    /// `shards` asks for one. Once present, the topology/state above
    /// has been moved into the engine's per-domain simulations and
    /// every public method dispatches there.
    pub(crate) sharded: Option<Box<crate::shard::ShardedEngine>>,
    /// Background flows registered through
    /// [`Simulation::add_fluid_flow`], solved at seal time.
    pub(crate) fluid_flows: Vec<crate::fluid::FluidFlow>,
    /// Whether the fluid population has been solved and its updates
    /// scheduled (the first `run_*` call seals; flows are immutable
    /// afterwards).
    pub(crate) fluid_sealed: bool,
    /// Planning-phase diagnostics, filled at seal time.
    pub(crate) fluid_diag: crate::fluid::FluidDiag,
    /// Live-run heartbeat, `None` unless [`Simulation::set_progress`]
    /// was called. Lives on `Simulation` (not [`SimCore`]) so it
    /// survives partitioning; it writes only to stderr on wall-clock
    /// cadence and is entirely outside the byte-identity set.
    pub(crate) progress: Option<Box<ProgressMeter>>,
}

impl Simulation {
    /// Create an empty simulation with the given RNG seed and the
    /// default scheduler (the timing wheel).
    pub fn new(seed: u64) -> Self {
        Self::with_scheduler(seed, SchedulerKind::default())
    }

    /// Like [`Simulation::new`] with an explicit event-queue engine:
    /// the equivalence tests run the heap as the wheel's reference.
    pub fn with_scheduler(seed: u64, scheduler: SchedulerKind) -> Self {
        Simulation {
            core: SimCore {
                now: SimTime::ZERO,
                // Streaming runs keep thousands of in-flight events;
                // pre-size the queue so warm-up doesn't regrow it. At
                // 2048 packet slots (208 KiB) and 8192 small slots
                // (192 KiB) both slabs are above glibc's 128 KiB mmap
                // threshold, so each untouched reservation is mapped
                // rather than carved from the heap. Served from the
                // heap, a slab left the heap top above the trim
                // threshold whenever a simulation dropped, and each
                // back-to-back construction paid a trim and re-faults.
                queue: EventQueue::with_capacity(scheduler, 2048),
                seq: 0,
                nodes: Vec::new(),
                links: Vec::new(),
                taps: Vec::new(),
                rng: SimRng::new(seed),
                stats: SimStats::default(),
                obs: Observers::default(),
                shard: None,
                fluid_applied: 0,
                fluid: crate::fluid::FluidChains::default(),
            },
            apps: Vec::new(),
            deliveries: Vec::new(),
            shards: crate::shard::ShardKind::Sequential,
            sharded: None,
            fluid_flows: Vec::new(),
            fluid_sealed: false,
            fluid_diag: crate::fluid::FluidDiag::default(),
            progress: None,
        }
    }

    /// Choose how runs execute (see [`crate::shard::ShardKind`]).
    /// Must be called before the first `run_*` call; the partition is
    /// built lazily when the simulation first runs, so all topology
    /// and observer setup happens on the un-partitioned state.
    pub fn set_shards(&mut self, shards: crate::shard::ShardKind) {
        assert!(
            self.sharded.is_none(),
            "set_shards must be called before the simulation first runs"
        );
        self.shards = shards;
    }

    /// Build the partition on first run when one was requested.
    fn ensure_partitioned(&mut self) {
        if self.sharded.is_some() {
            return;
        }
        let crate::shard::ShardKind::Sharded(n) = self.shards else {
            return;
        };
        let scheduler = self.core.queue.kind();
        let core = std::mem::replace(
            &mut self.core,
            SimCore {
                now: SimTime::ZERO,
                queue: EventQueue::with_capacity(scheduler, 0),
                seq: 0,
                nodes: Vec::new(),
                links: Vec::new(),
                taps: Vec::new(),
                rng: SimRng::new(0),
                stats: SimStats::default(),
                obs: Observers::default(),
                shard: None,
                fluid_applied: 0,
                fluid: crate::fluid::FluidChains::default(),
            },
        );
        let apps = std::mem::take(&mut self.apps);
        let deliveries = std::mem::take(&mut self.deliveries);
        self.sharded = Some(Box::new(crate::shard::ShardedEngine::partition(
            core, apps, deliveries, n as usize,
        )));
    }

    /// Panic unless the simulation is still un-partitioned: observer
    /// and topology setup must happen before the first run call of a
    /// sharded simulation.
    fn assert_unpartitioned(&self, what: &str) {
        assert!(
            self.sharded.is_none(),
            "{what} must happen before a sharded simulation first runs"
        );
    }

    /// Has no effect. Every counter a run reports is always on and
    /// every observer has its own `enable_*` call; this stays only so
    /// existing callers keep compiling.
    pub fn enable_telemetry(&mut self) {}

    /// Turn on per-packet lifecycle tracing. Lineage recording never
    /// draws randomness, never schedules events, and never changes
    /// control flow, so a traced run is byte-identical to an untraced
    /// one. Idempotent.
    pub fn enable_lineage(&mut self) {
        self.assert_unpartitioned("enable_lineage");
        if self.core.obs.lineage.is_none() {
            self.core.obs.lineage = Some(Box::new(LineageState {
                rec: LineageRecorder::default(),
                pending_meta: None,
                current_span: None,
            }));
        }
    }

    /// Turn on session-rollup recording into `recorder`, and
    /// optionally restrict lineage span creation to sessions `sampler`
    /// admits. [`Simulation::finish_observers`] hands the finished
    /// table back. Like lineage, the hooks never draw randomness, never
    /// schedule events, and never change control flow, so an
    /// instrumented run is byte-identical to a plain one. Idempotent;
    /// the first recorder wins.
    pub fn enable_sessions(&mut self, recorder: SessionRecorder, sampler: Option<SessionSampler>) {
        self.assert_unpartitioned("enable_sessions");
        if self.core.obs.sessions.is_none() {
            self.core.obs.sessions = Some(Box::new(SessionState {
                shared: Arc::new(Mutex::new(recorder)),
                pending: None,
                sampler,
            }));
        }
    }

    /// Install a live-run heartbeat: a periodic stderr line with
    /// simulated time, event rate, live/done sessions, RSS and ETA.
    /// Wall-clock-paced and write-only, so it cannot perturb a run.
    pub fn set_progress(&mut self, meter: ProgressMeter) {
        self.progress = Some(Box::new(meter));
    }

    /// Turn on windowed time-series recording with `window_ns`-wide
    /// windows (0 selects the 1 s default). Like lineage, the recorder
    /// never draws randomness, never schedules events, and never
    /// changes control flow, so a recorded run is byte-identical to an
    /// unrecorded one. Idempotent; the first window width wins.
    pub fn enable_timeseries(&mut self, window_ns: u64) {
        self.assert_unpartitioned("enable_timeseries");
        if self.core.obs.timeseries.is_none() {
            self.core.obs.timeseries = Some(Box::new(SeriesState::new(TimeSeriesRecorder::new(
                window_ns,
            ))));
        }
    }

    /// Detach and finish every observer, leaving them all off: lineage,
    /// time series and session rollups, each `None` when it was never
    /// enabled. A sharded run merges its domains' parts in domain
    /// order and a sequential run is a merge of one part, so both
    /// engines produce byte-identical dumps.
    pub fn finish_observers(&mut self) -> ObserverDumps {
        match self.sharded.as_deref_mut() {
            Some(sh) => Observers::merge(sh.domains.iter_mut().map(|sim| &mut sim.core.obs)),
            None => Observers::merge([&mut self.core.obs]),
        }
    }

    /// Event-loop counters (always on). For a sharded run the counters
    /// are summed across domains (`queue_high_water` takes the max —
    /// each domain has its own queue).
    pub fn sim_stats(&self) -> SimStats {
        match self.sharded.as_deref() {
            Some(sh) => sh.sim_stats(),
            None => self.core.sim_stats(),
        }
    }

    /// Which scheduler drives this run.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.sharded.as_deref() {
            Some(sh) => sh.scheduler(),
            None => self.core.scheduler(),
        }
    }

    /// Scheduler-internal diagnostics (all zero for the heap; summed
    /// across domains for a sharded run).
    pub fn sched_stats(&self) -> SchedStats {
        match self.sharded.as_deref() {
            Some(sh) => sh.sched_stats(),
            None => self.core.sched_stats(),
        }
    }

    /// Bytes the event queue has reserved: both payload slabs, their
    /// free lists and the order's keys (the wheel's node arena and
    /// slot heads), summed over shard domains.
    /// Capacities never shrink, so read after a run this is the
    /// queue's high-water footprint. Engine memory, not simulated
    /// state: outside every digest, like [`SchedStats`].
    pub fn queue_memory_bytes(&self) -> u64 {
        match self.sharded.as_deref() {
            Some(sh) => sh
                .domains
                .iter()
                .map(|sim| sim.core.queue_memory_bytes())
                .sum(),
            None => self.core.queue_memory_bytes(),
        }
    }

    /// Harvest component counters into `registry`; see
    /// [`SimCore::collect_metrics`]. A sharded run harvests each
    /// component from its owning domain in global id order, so the
    /// registry comes out byte-identical to a sequential run's.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        match self.sharded.as_deref() {
            Some(sh) => sh.collect_metrics(registry),
            None => self.core.collect_metrics(registry),
        }
    }

    /// Shard-engine diagnostics (barriers, exchanged transits,
    /// per-domain event counts); `None` for sequential runs or before
    /// a sharded simulation first runs. Like [`SchedStats`], these
    /// describe the engine, not the simulated network, so they stay
    /// outside the byte-identity set.
    pub fn shard_diag(&self) -> Option<crate::shard::ShardDiag> {
        self.sharded.as_deref().map(|sh| sh.diag())
    }

    /// Register a background flow with the fluid engine (hybrid runs;
    /// see [`crate::fluid`]). Must be called after the route's links
    /// exist and before the simulation first runs: the first `run_*`
    /// call *seals* the population — solves the max-min allocation at
    /// every demand breakpoint and schedules the per-link share
    /// changes as ordinary events.
    pub fn add_fluid_flow(&mut self, flow: crate::fluid::FluidFlow) {
        self.assert_unpartitioned("add_fluid_flow");
        assert!(
            !self.fluid_sealed,
            "add_fluid_flow must happen before the simulation first runs"
        );
        for link in &flow.route {
            assert!(
                link.0 < self.core.links.len(),
                "fluid flow routed over unknown link {}",
                link.0
            );
        }
        self.fluid_flows.push(flow);
    }

    /// Solve the fluid population and schedule its rate-change events.
    /// Runs once, at the first `run_*` call (before partitioning, so a
    /// sharded run redistributes the updates to the domains owning
    /// each link's live copy). A run with no fluid flows schedules
    /// nothing — the zero-background identity guarantee.
    ///
    /// Every future update gets its seq now, in plan order: the seqs
    /// `schedule` would stamp if it queued them all. Only each link's
    /// first is queued; the rest wait in [`crate::fluid::FluidChains`]
    /// (see the [`crate::fluid`] module docs for why the pop order is
    /// unchanged). `events_scheduled` counts them all here, so it
    /// does not depend on how many a run reaches.
    fn seal_fluid(&mut self) {
        if self.fluid_sealed {
            return;
        }
        self.fluid_sealed = true;
        if self.fluid_flows.is_empty() {
            return;
        }
        let plan = crate::fluid::plan_updates(&self.fluid_flows, |id| {
            self.core.links[id.0].config.rate_bps
        });
        self.fluid_diag = plan.diag;
        let now = self.core.now;
        let (due, future): (Vec<_>, Vec<_>) = plan
            .updates
            .into_iter()
            .partition(|&(time, _, _)| time <= now);
        for (_, link, bps) in due {
            // Shares already in force when the run starts apply
            // directly: ambient background is present from the first
            // instant, ahead of any same-time app event.
            self.core.apply_fluid_update(link, bps);
        }
        let base = self.core.reserve_seqs(future.len() as u64);
        let planned: Vec<_> = (base..)
            .zip(future)
            .map(|(seq, (time, link, bps))| (time, seq, link, bps))
            .collect();
        self.core.stats.events_scheduled += planned.len() as u64;
        self.core
            .arm_fluid(crate::fluid::FluidChains::new(&planned));
    }

    /// Fluid-engine diagnostics; `None` when no background flows were
    /// registered. Like [`Simulation::shard_diag`], these describe the
    /// engine, not the simulated network, so they stay outside the
    /// byte-identity set.
    pub fn fluid_diag(&self) -> Option<crate::fluid::FluidDiag> {
        if self.fluid_diag.flows == 0 {
            return None;
        }
        let mut diag = self.fluid_diag;
        diag.updates_applied = match self.sharded.as_deref() {
            Some(sh) => sh.fluid_applied(),
            None => self.core.fluid_applied,
        };
        Some(diag)
    }

    /// Add an end host.
    pub fn add_host(&mut self, name: &str, addr: Ipv4Addr) -> NodeId {
        self.add_node(name, addr, NodeKind::Host)
    }

    /// Add a router.
    pub fn add_router(&mut self, name: &str, addr: Ipv4Addr) -> NodeId {
        self.add_node(name, addr, NodeKind::Router)
    }

    fn add_node(&mut self, name: &str, addr: Ipv4Addr, kind: NodeKind) -> NodeId {
        self.assert_unpartitioned("add_node");
        let id = NodeId(self.core.nodes.len());
        assert!(
            !self.core.nodes.iter().any(|n| n.addr == addr),
            "duplicate node address {addr}"
        );
        let mut node = Node::new(id, name.to_string(), addr, kind);
        // Intern the component label once, at construction time, so
        // every observer shares one id and the symbol table is a pure
        // function of topology construction order.
        node.comp = self.core.obs.interner.intern(&node.trace_component);
        // Per-node stream forked off the seed, so application draws
        // depend on the seed (unlike the construction-time fallback
        // seeding in `Node::new`) but not on other nodes' behaviour.
        node.rng = self.core.rng.fork((2u64 << 32) | id.0 as u64);
        self.core.nodes.push(node);
        id
    }

    /// Add a simplex link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        self.assert_unpartitioned("add_link");
        let id = LinkId(self.core.links.len());
        let mut link = Link::new(id, from, to, config);
        link.comp = self.core.obs.interner.intern(&link.trace_component);
        // Per-link stream, same reasoning as the per-node fork above
        // (fault injection and RED draws stay seed-dependent but
        // independent of every other component's traffic).
        link.rng = self.core.rng.fork((1u64 << 32) | id.0 as u64);
        self.core.links.push(link);
        id
    }

    /// Add a duplex link (two simplex links with the same config).
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        (self.add_link(a, b, config), self.add_link(b, a, config))
    }

    /// Install an application on `node`. `udp_port` binds the app to a
    /// UDP port; `listen_icmp` subscribes it to incoming ICMP. The
    /// app's `on_start` fires when the simulation next runs.
    pub fn add_app(
        &mut self,
        node: NodeId,
        app: Box<dyn Application>,
        udp_port: Option<u16>,
        listen_icmp: bool,
    ) -> AppId {
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.add_app(node, app, udp_port, listen_icmp);
        }
        let id = AppId(self.apps.len());
        self.apps.push(Slot {
            node,
            held: Some(app),
        });
        if let Some(port) = udp_port {
            let previous = self.core.nodes[node.0].ports.insert(port, id);
            assert!(previous.is_none(), "UDP port {port} already bound");
        }
        if listen_icmp {
            self.core.nodes[node.0].icmp_listeners.push(id);
        }
        let now = self.core.now;
        self.core.schedule(now, Event::AppStart(id));
        id
    }

    /// Bind an application to a TCP port on its node (raw segment
    /// delivery).
    pub fn bind_tcp_port(&mut self, node: NodeId, port: u16, app: AppId) {
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.bind_tcp_port(node, port, app);
        }
        let previous = self.core.nodes[node.0].tcp_ports.insert(port, app);
        assert!(previous.is_none(), "TCP port {port} already bound");
    }

    /// Attach a sniffer tap to `node`; it observes every packet the
    /// node sends or receives (both directions, like Ethereal on the
    /// client machine). Read what it recorded after the run through
    /// [`Simulation::take_tap`].
    pub fn add_tap(&mut self, node: NodeId, tap: Box<dyn Tap>) -> TapId {
        self.assert_unpartitioned("add_tap");
        self.core.taps.push(Slot {
            node,
            held: Some(tap),
        });
        TapId(self.core.taps.len() - 1)
    }

    /// Take app `id` back as its concrete type `T`, with what it
    /// recorded (in a sharded run, from its node's domain). An event
    /// still addressed to it then panics. Panics, naming both types,
    /// unless the app is a `T` not yet taken.
    pub fn take_app<T: Application>(&mut self, id: AppId) -> T {
        let slot = match self.sharded.as_deref_mut() {
            Some(sh) => sh.app_slot(id),
            None => &mut self.apps[id.0],
        };
        slot.take(format_args!("app {}", id.0))
    }

    /// [`Simulation::take_app`] for taps: a packet crossing the node
    /// afterwards panics.
    pub fn take_tap<T: Tap>(&mut self, id: TapId) -> T {
        let slot = match self.sharded.as_deref_mut() {
            Some(sh) => sh.tap_slot(id),
            None => &mut self.core.taps[id.0],
        };
        slot.take(format_args!("tap {}", id.0))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match self.sharded.as_deref() {
            Some(sh) => sh.now(),
            None => self.core.now,
        }
    }

    /// Access the network core (topology, stats, RNG). Panics once a
    /// sharded simulation has partitioned — the core has been split
    /// into per-domain state; use the [`Simulation`]-level accessors
    /// ([`Simulation::link`], [`Simulation::node`],
    /// [`Simulation::collect_metrics`], ...) which work in both modes.
    pub fn core(&self) -> &SimCore {
        assert!(
            self.sharded.is_none(),
            "core() is unavailable after a sharded simulation partitions"
        );
        &self.core
    }

    /// Mutable access to the network core. Panics once a sharded
    /// simulation has partitioned; see [`Simulation::core`].
    pub fn core_mut(&mut self) -> &mut SimCore {
        assert!(
            self.sharded.is_none(),
            "core_mut() is unavailable after a sharded simulation partitions"
        );
        &mut self.core
    }

    /// Number of nodes. Works in both modes.
    pub fn node_count(&self) -> usize {
        match self.sharded.as_deref() {
            Some(sh) => sh.node_count(),
            None => self.core.nodes.len(),
        }
    }

    /// Number of links. Works in both modes.
    pub fn link_count(&self) -> usize {
        match self.sharded.as_deref() {
            Some(sh) => sh.link_count(),
            None => self.core.links.len(),
        }
    }

    /// A node by id — the owning domain's copy in a sharded run, so
    /// counters and reassembler state are the live ones.
    pub fn node(&self, id: NodeId) -> &Node {
        match self.sharded.as_deref() {
            Some(sh) => sh.node(id),
            None => &self.core.nodes[id.0],
        }
    }

    /// A link by id — the transmitting domain's copy in a sharded run,
    /// so stats and fault-injector counters are the live ones.
    pub fn link(&self, id: LinkId) -> &Link {
        match self.sharded.as_deref() {
            Some(sh) => sh.link(id),
            None => &self.core.links[id.0],
        }
    }

    /// Convenience: a node's stats.
    pub fn node_stats(&self, id: NodeId) -> NodeStats {
        self.node(id).stats
    }

    fn dispatch(&mut self, app_id: AppId, f: impl FnOnce(&mut dyn Application, &mut Ctx<'_>)) {
        let node = self.apps[app_id.0].node;
        let Some(mut app) = self.apps[app_id.0].held.take() else {
            panic!("app {} got an event after it was taken", app_id.0);
        };
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                app: app_id,
                node,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apps[app_id.0].held = Some(app);
    }

    /// Process one event. Returns `false` when the queue is empty.
    /// Single-stepping a partitioned simulation is not supported (the
    /// conservative engine advances in lookahead windows); panics once
    /// sharded.
    pub fn step(&mut self) -> bool {
        assert!(
            self.sharded.is_none(),
            "step() is unavailable on a partitioned simulation; use run_until/run_for"
        );
        let Some((time, event)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.core.now, "time must not run backwards");
        self.core.now = time;
        self.core.stats.events_processed += 1;
        if let Some(lin) = self.core.obs.lineage.as_deref_mut() {
            // Timers and app starts are not caused by a packet; only an
            // arrival (below, via `handle_arrival`) sets the span that
            // apps read through `Ctx::lineage_current_span`.
            lin.current_span = None;
        }
        match event {
            Event::AppStart(app) => self.dispatch(app, |a, ctx| a.on_start(ctx)),
            Event::Timer { app, token } => self.dispatch(app, |a, ctx| a.on_timer(ctx, token)),
            Event::Arrival { link, packet } => {
                // Reuse one buffer across all arrivals; take/put so the
                // borrow of `self` is released for dispatch below.
                let mut deliveries = std::mem::take(&mut self.deliveries);
                deliveries.clear();
                self.core.handle_arrival(link, packet, &mut deliveries);
                for delivery in deliveries.drain(..) {
                    match delivery {
                        Delivery::Udp {
                            app,
                            from,
                            dst_port,
                            payload,
                        } => self.dispatch(app, |a, ctx| a.on_udp(ctx, from, dst_port, payload)),
                        Delivery::Icmp { app, from, msg } => {
                            self.dispatch(app, |a, ctx| a.on_icmp(ctx, from, msg))
                        }
                        Delivery::Tcp { app, from, segment } => {
                            self.dispatch(app, |a, ctx| a.on_tcp(ctx, from, segment))
                        }
                    }
                }
                self.deliveries = deliveries;
            }
            Event::FluidUpdate { link, bps } => {
                self.core.apply_fluid_update(link, bps);
                self.core.queue_next_fluid(link);
            }
        }
        true
    }

    /// Process every event up to and including `limit`, then advance
    /// the clock to `limit`. Returns the final simulated time (`limit`,
    /// unless the clock was already past it).
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        self.seal_fluid();
        self.ensure_partitioned();
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.run(limit, true, self.progress.as_deref_mut());
        }
        while let Some(next) = self.core.queue.next_time() {
            if next > limit {
                break;
            }
            self.step();
            self.tick_progress();
        }
        if self.core.now < limit {
            self.core.now = limit;
        }
        self.core.now
    }

    /// Run for a further `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) -> SimTime {
        let limit = self.now() + duration;
        self.run_until(limit)
    }

    /// Run until there are no events left at or before `limit` (a
    /// runaway guard), without force-advancing the clock. Returns the
    /// time of the last processed event.
    pub fn run_to_idle(&mut self, limit: SimTime) -> SimTime {
        self.seal_fluid();
        self.ensure_partitioned();
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.run(limit, false, self.progress.as_deref_mut());
        }
        while let Some(next) = self.core.queue.next_time() {
            if next > limit {
                break;
            }
            self.step();
            self.tick_progress();
        }
        self.core.now
    }

    /// Offer the heartbeat a chance to emit. Checked only every
    /// [`PROGRESS_EVENT_STRIDE`] events so the sequential hot loop
    /// pays one masked compare per event when a meter is installed.
    fn tick_progress(&mut self) {
        if self.progress.is_some()
            && self.core.stats.events_processed & (PROGRESS_EVENT_STRIDE - 1) == 0
        {
            let now_ns = self.core.now.as_nanos();
            let events = self.core.stats.events_processed;
            if let Some(p) = self.progress.as_deref_mut() {
                p.tick(now_ns, events);
            }
        }
    }

    /// Drain every event strictly before `end_ns`. The conservative
    /// parallel engine's per-window worker loop: events exactly at
    /// `end_ns` belong to the next window (cross-domain transits from
    /// this window may land there).
    pub(crate) fn run_window(&mut self, end_ns: u64) {
        while let Some(next) = self.core.queue.next_time() {
            if next.as_nanos() >= end_ns {
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts(seed: u64) -> (Simulation, NodeId, NodeId) {
        let mut sim = Simulation::new(seed);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", Ipv4Addr::new(10, 0, 0, 2));
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(1)));
        sim.core_mut()
            .node_mut(a)
            .add_route(Ipv4Addr::new(10, 0, 0, 2), ab);
        sim.core_mut()
            .node_mut(b)
            .add_route(Ipv4Addr::new(10, 0, 0, 1), ba);
        (sim, a, b)
    }

    /// App that sends one datagram at start and records what it receives.
    struct Echoer {
        peer: Ipv4Addr,
        send_at_start: bool,
        received: Vec<(SimTime, Bytes)>,
    }

    impl Application for Echoer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.send_at_start {
                ctx.send_udp(5000, self.peer, 6000, Bytes::from_static(b"ping over udp"));
            }
        }
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            from: (Ipv4Addr, u16),
            _dst_port: u16,
            payload: Bytes,
        ) {
            // Echo it back once, then record the payload by move.
            if payload.as_ref() == b"ping over udp" {
                ctx.send_udp(6000, from.0, from.1, Bytes::from_static(b"pong"));
            }
            self.received.push((ctx.now(), payload));
        }
    }

    /// A pinging [`Echoer`] on `a` (port 5000) and an answering one on
    /// `b` (port 6000), between the hosts of [`two_hosts`].
    fn echo_pair(sim: &mut Simulation, a: NodeId, b: NodeId) -> (AppId, AppId) {
        let mut add = |node, peer, port, send_at_start| {
            let app = Echoer {
                peer,
                send_at_start,
                received: Vec::new(),
            };
            sim.add_app(node, Box::new(app), Some(port), false)
        };
        (
            add(a, Ipv4Addr::new(10, 0, 0, 2), 5000, true),
            add(b, Ipv4Addr::new(10, 0, 0, 1), 6000, false),
        )
    }

    /// What [`Echoer`] `id` received, taken back from `sim`.
    fn received(sim: &mut Simulation, id: AppId) -> Vec<(SimTime, Bytes)> {
        sim.take_app::<Echoer>(id).received
    }

    #[test]
    fn udp_roundtrip_between_hosts() {
        let (mut sim, a, b) = two_hosts(1);
        let (ping, pong) = echo_pair(&mut sim, a, b);
        sim.run_until(SimTime(10_000_000_000));
        let b_rx = received(&mut sim, pong);
        assert_eq!(b_rx.len(), 1, "b received the ping");
        assert_eq!(received(&mut sim, ping).len(), 1, "a received the pong");
        // Latency sanity: one-way ≥ propagation (1 ms).
        assert!(b_rx[0].0 >= SimTime(1_000_000));
    }

    #[test]
    fn lineage_tracks_udp_roundtrip() {
        let (mut sim, a, b) = two_hosts(1);
        sim.enable_lineage();
        let (ping, pong) = echo_pair(&mut sim, a, b);
        sim.run_until(SimTime(10_000_000_000));
        let dump = sim.finish_observers().lineage.expect("lineage was enabled");
        dump.validate().expect("dump is well-formed");
        assert_eq!(dump.origins.len(), 2, "ping and pong each get a span");
        for tl in dump.reconstruct() {
            assert!(matches!(tl.outcome, turb_obs::SpanOutcome::Completed));
            let stages: Vec<_> = tl.events.iter().map(|e| e.stage).collect();
            use turb_obs::Stage as S;
            assert!(stages.contains(&S::Sent));
            assert!(stages.contains(&S::LinkTx));
            assert!(stages.contains(&S::Arrived));
            assert!(stages.iter().any(|s| matches!(s, S::Delivered)));
        }
        // Tracing never perturbs the run itself.
        assert_eq!(received(&mut sim, pong).len(), 1);
        assert_eq!(received(&mut sim, ping).len(), 1);
    }

    #[test]
    fn lineage_does_not_perturb_the_run() {
        let run = |trace: bool| {
            let (mut sim, a, b) = two_hosts(9);
            if trace {
                sim.enable_lineage();
            }
            let (_, pong) = echo_pair(&mut sim, a, b);
            sim.run_until(SimTime(10_000_000_000));
            let arrivals: Vec<SimTime> = received(&mut sim, pong).iter().map(|(t, _)| *t).collect();
            (sim.sim_stats(), arrivals)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn lineage_records_fragmentation_and_packetize_meta() {
        struct BigSender {
            peer: Ipv4Addr,
        }
        impl Application for BigSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                assert!(ctx.lineage_enabled());
                ctx.lineage_packetize(PacketizeMeta {
                    player: 7,
                    sequence: 42,
                    media_time_ms: 1234,
                });
                ctx.send_udp(5000, self.peer, 6000, Bytes::from(vec![0u8; 4000]));
            }
        }
        #[derive(Default)]
        struct Sink {
            got: Vec<Option<u64>>,
        }
        impl Application for Sink {
            fn on_udp(
                &mut self,
                ctx: &mut Ctx<'_>,
                _from: (Ipv4Addr, u16),
                _dst_port: u16,
                _payload: Bytes,
            ) {
                self.got.push(ctx.lineage_current_span());
            }
        }
        let (mut sim, a, b) = two_hosts(4);
        sim.enable_lineage();
        sim.add_app(
            a,
            Box::new(BigSender {
                peer: Ipv4Addr::new(10, 0, 0, 2),
            }),
            Some(5000),
            false,
        );
        let sink = sim.add_app(b, Box::new(Sink::default()), Some(6000), false);
        sim.run_until(SimTime(10_000_000_000));
        let dump = sim.finish_observers().lineage.unwrap();
        dump.validate().unwrap();
        assert_eq!(dump.origins.len(), 1);
        // The receiving app saw the span of the reassembled datagram.
        assert_eq!(sim.take_app::<Sink>(sink).got, [Some(0)]);
        let meta = dump.origins[0].meta.expect("packetize meta recorded");
        assert_eq!(
            (meta.player, meta.sequence, meta.media_time_ms),
            (7, 42, 1234)
        );
        use turb_obs::Stage as S;
        let tl = dump.timeline(0);
        let frag = tl
            .events
            .iter()
            .find(|e| matches!(e.stage, S::Fragmented))
            .expect("4000B over a 1500B MTU fragments");
        assert_eq!(frag.aux, 3, "three fragments");
        assert!(tl.events.iter().any(|e| matches!(e.stage, S::Reassembled)));
        assert_eq!(
            tl.events
                .iter()
                .filter(|e| matches!(e.stage, S::LinkTx))
                .count(),
            3,
            "each fragment records its own link transmission"
        );
    }

    #[test]
    fn unbound_port_triggers_port_unreachable() {
        struct Prober {
            peer: Ipv4Addr,
            unreachable: u32,
        }
        impl Application for Prober {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp(4000, self.peer, 33434, Bytes::from_static(b"probe"));
            }
            fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4Addr, msg: IcmpMessage) {
                if matches!(msg, IcmpMessage::DestinationUnreachable { code: 3, .. }) {
                    self.unreachable += 1;
                }
            }
        }
        let (mut sim, a, _b) = two_hosts(2);
        let prober = sim.add_app(
            a,
            Box::new(Prober {
                peer: Ipv4Addr::new(10, 0, 0, 2),
                unreachable: 0,
            }),
            Some(4000),
            true,
        );
        sim.run_until(SimTime(5_000_000_000));
        assert_eq!(sim.take_app::<Prober>(prober).unreachable, 1);
    }

    #[test]
    fn router_forwards_and_ttl_expiry_generates_time_exceeded() {
        // a --- r --- b; probe with ttl 1 dies at r.
        let mut sim = Simulation::new(3);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let r = sim.add_router("r", Ipv4Addr::new(10, 0, 0, 254));
        let b = sim.add_host("b", Ipv4Addr::new(10, 0, 1, 1));
        let cfg = LinkConfig::ethernet_10m(SimDuration::from_millis(1));
        let (ar, ra) = sim.add_duplex(a, r, cfg);
        let (rb, br) = sim.add_duplex(r, b, cfg);
        let addr_a = Ipv4Addr::new(10, 0, 0, 1);
        let addr_b = Ipv4Addr::new(10, 0, 1, 1);
        sim.core_mut().node_mut(a).default_route = Some(ar);
        sim.core_mut().node_mut(r).add_route(addr_a, ra);
        sim.core_mut().node_mut(r).add_route(addr_b, rb);
        sim.core_mut().node_mut(b).default_route = Some(br);

        struct TtlProbe {
            dst: Ipv4Addr,
            ttl: u8,
            time_exceeded_from: Vec<Ipv4Addr>,
        }
        impl Application for TtlProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_udp_ttl(4000, self.dst, 33434, Bytes::from_static(b"p"), self.ttl);
            }
            fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, from: Ipv4Addr, msg: IcmpMessage) {
                if matches!(msg, IcmpMessage::TimeExceeded { .. }) {
                    self.time_exceeded_from.push(from);
                }
            }
        }
        let probe = |ttl| TtlProbe {
            dst: addr_b,
            ttl,
            time_exceeded_from: Vec::new(),
        };
        let probe1 = sim.add_app(a, Box::new(probe(1)), Some(4000), true);
        sim.run_until(SimTime(5_000_000_000));
        assert_eq!(sim.node_stats(r).ttl_expired, 1);
        // With ttl 2 the probe reaches b and comes back port-unreachable,
        // so neither probe records a new time-exceeded.
        let probe2 = sim.add_app(a, Box::new(probe(2)), Some(4001), true);
        sim.run_until(SimTime(10_000_000_000));
        assert_eq!(sim.node_stats(b).udp_unreachable, 1);
        assert_eq!(
            sim.take_app::<TtlProbe>(probe1).time_exceeded_from,
            [Ipv4Addr::new(10, 0, 0, 254)]
        );
        assert!(sim
            .take_app::<TtlProbe>(probe2)
            .time_exceeded_from
            .is_empty());
    }

    #[test]
    fn hosts_answer_ping() {
        struct Pinger {
            dst: Ipv4Addr,
            rtt: Option<SimDuration>,
            sent_at: SimTime,
        }
        impl Application for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.sent_at = ctx.now();
                ctx.send_icmp(
                    self.dst,
                    IcmpMessage::EchoRequest {
                        ident: 77,
                        seq: 0,
                        payload: Bytes::from_static(&[0u8; 32]),
                    },
                );
            }
            fn on_icmp(&mut self, ctx: &mut Ctx<'_>, _from: Ipv4Addr, msg: IcmpMessage) {
                if let IcmpMessage::EchoReply { ident: 77, .. } = msg {
                    self.rtt = Some(ctx.now().since(self.sent_at));
                }
            }
        }
        let (mut sim, a, _b) = two_hosts(4);
        let pinger = sim.add_app(
            a,
            Box::new(Pinger {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                rtt: None,
                sent_at: SimTime::ZERO,
            }),
            None,
            true,
        );
        sim.run_until(SimTime(5_000_000_000));
        let rtt = sim
            .take_app::<Pinger>(pinger)
            .rtt
            .expect("got an echo reply");
        // ≥ 2 × 1 ms propagation.
        assert!(rtt >= SimDuration::from_millis(2));
        assert!(rtt < SimDuration::from_millis(5));
    }

    #[test]
    fn large_datagram_fragments_and_reassembles_end_to_end() {
        struct BigSender {
            peer: Ipv4Addr,
        }
        impl Application for BigSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // 4 KiB payload: 3 fragments at MTU 1500.
                ctx.send_udp(5000, self.peer, 6000, Bytes::from(vec![0xabu8; 4096]));
            }
        }
        #[derive(Default)]
        struct Sink {
            got: Vec<usize>,
        }
        impl Application for Sink {
            fn on_udp(
                &mut self,
                _ctx: &mut Ctx<'_>,
                _from: (Ipv4Addr, u16),
                _dst_port: u16,
                payload: Bytes,
            ) {
                self.got.push(payload.len());
            }
        }
        let (mut sim, a, b) = two_hosts(5);
        sim.add_app(
            a,
            Box::new(BigSender {
                peer: Ipv4Addr::new(10, 0, 0, 2),
            }),
            None,
            false,
        );
        let sink = sim.add_app(b, Box::new(Sink::default()), Some(6000), false);

        // Tap the receiver to count on-the-wire fragments.
        let frames = sim.add_tap(b, Box::new(RxCount::default()));
        sim.run_until(SimTime(5_000_000_000));
        assert_eq!(sim.take_app::<Sink>(sink).got, [4096]);
        assert_eq!(
            sim.take_tap::<RxCount>(frames).0,
            3,
            "4 KiB + UDP header = 3 fragments"
        );
    }

    /// Counts the packets arriving at its node.
    #[derive(Default)]
    struct RxCount(usize);

    impl Tap for RxCount {
        fn observe(&mut self, ev: &TapEvent<'_>) {
            if ev.direction == Direction::Rx {
                self.0 += 1;
            }
        }
    }

    /// Counts the timers it set itself, one per millisecond, `left` of
    /// them.
    struct Ticker {
        left: u32,
        ticks: u32,
    }

    impl Application for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.ticks += 1;
            if self.ticks < self.left {
                ctx.set_timer_after(SimDuration::from_millis(1), 0);
            }
        }
    }

    struct Quiet;
    impl Application for Quiet {}

    #[test]
    #[should_panic(expected = "app 0 is a turb_netsim::sim::tests::Ticker, \
                               not a turb_netsim::sim::tests::Quiet")]
    fn a_take_of_the_wrong_type_names_both() {
        let (mut sim, a, _) = two_hosts(1);
        let id = sim.add_app(a, Box::new(Ticker { left: 1, ticks: 0 }), None, false);
        sim.run_until(SimTime(1_000_000_000));
        sim.take_app::<Quiet>(id);
    }

    #[test]
    #[should_panic(expected = "app 0 was already taken")]
    fn an_app_is_taken_once() {
        let (mut sim, a, _) = two_hosts(1);
        let id = sim.add_app(a, Box::new(Ticker { left: 1, ticks: 0 }), None, false);
        sim.take_app::<Ticker>(id);
        sim.take_app::<Ticker>(id);
    }

    #[test]
    #[should_panic(expected = "app 0 got an event after it was taken")]
    fn an_event_for_a_taken_app_panics() {
        let (mut sim, a, _) = two_hosts(1);
        let id = sim.add_app(a, Box::new(Ticker { left: 3, ticks: 0 }), None, false);
        sim.run_until(SimTime(1_500_000));
        sim.take_app::<Ticker>(id);
        sim.run_until(SimTime(1_000_000_000));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<(SimTime, Bytes)> {
            let (mut sim, a, b) = two_hosts(seed);
            let (_, pong) = echo_pair(&mut sim, a, b);
            sim.run_until(SimTime(10_000_000_000));
            received(&mut sim, pong)
        }
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "duplicate node address")]
    fn duplicate_addresses_are_rejected() {
        let mut sim = Simulation::new(0);
        sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        sim.add_host("b", Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_port_binding_is_rejected() {
        struct Nop;
        impl Application for Nop {}
        let (mut sim, a, _b) = two_hosts(0);
        sim.add_app(a, Box::new(Nop), Some(5000), false);
        sim.add_app(a, Box::new(Nop), Some(5000), false);
    }

    #[test]
    fn run_for_advances_clock_without_events() {
        let (mut sim, _a, _b) = two_hosts(0);
        // No apps: queue is empty, but the window still passes and the
        // clock lands exactly on the limit.
        let t = sim.run_for(SimDuration::from_secs(1));
        assert_eq!(t, SimTime(1_000_000_000));
    }

    /// One Echoer ping/pong, optionally under a fluid background flow
    /// occupying most of both access links.
    fn fluid_run(fluid: bool) -> (SimTime, SimStats, Option<crate::fluid::FluidDiag>) {
        let (mut sim, a, b) = two_hosts(6);
        if fluid {
            // 9 of 10 Mbit/s on both directions for the whole run.
            for link in [LinkId(0), LinkId(1)] {
                sim.add_fluid_flow(crate::fluid::FluidFlow {
                    route: vec![link],
                    schedule: crate::fluid::RateSchedule::constant(
                        SimTime::ZERO,
                        SimTime(20_000_000_000),
                        9_000_000,
                    ),
                });
            }
        }
        let (_, pong) = echo_pair(&mut sim, a, b);
        sim.run_until(SimTime(10_000_000_000));
        let arrival = received(&mut sim, pong)[0].0;
        (arrival, sim.sim_stats(), sim.fluid_diag())
    }

    #[test]
    fn fluid_background_slows_the_foreground_packet_path() {
        let (clean, _, no_diag) = fluid_run(false);
        let (contended, _, diag) = fluid_run(true);
        assert!(no_diag.is_none(), "packet run reports no fluid diag");
        let diag = diag.expect("hybrid run reports fluid diag");
        assert_eq!(diag.flows, 2);
        // Each link: share rises at t=0 and falls at t=20 s, but the
        // fall lies beyond the run limit, so only 2 of 4 apply.
        assert_eq!(diag.updates_scheduled, 4);
        assert_eq!(diag.updates_applied, 2);
        assert_eq!(diag.peak_link_fluid_bps, 9_000_000);
        // 10× less residual capacity → serialisation takes 10× longer;
        // the ping must arrive later under contention.
        assert!(contended > clean, "{contended:?} vs {clean:?}");
    }

    #[test]
    fn queue_holds_one_fluid_update_per_link() {
        // Two links with `n` planned share changes each: however many
        // are planned, one per link waits in the queue at a time, and
        // each is counted once in `events_scheduled`.
        let run = |n: u64| {
            let (mut sim, _a, _b) = two_hosts(6);
            for link in [LinkId(0), LinkId(1)] {
                let points = (1..=n)
                    .map(|i| (SimTime(i * 1_000_000), 1_000_000 * (1 + i % 2)))
                    .collect();
                sim.add_fluid_flow(crate::fluid::FluidFlow {
                    route: vec![link],
                    schedule: crate::fluid::RateSchedule::from_points(points),
                });
            }
            sim.run_until(SimTime((n + 1) * 1_000_000));
            let diag = sim.fluid_diag().expect("hybrid run reports fluid diag");
            assert_eq!(diag.updates_scheduled, 2 * n);
            assert_eq!(diag.updates_applied, 2 * n);
            let stats = sim.sim_stats();
            assert_eq!(stats.events_scheduled, 2 * n);
            stats.queue_high_water
        };
        assert_eq!(run(10), 2);
        assert_eq!(run(1_000), 2);
    }

    #[test]
    fn zero_fluid_flows_do_not_perturb_a_run() {
        // Byte-for-byte: a hybrid-eligible run that registers no fluid
        // flows schedules no events and counts nothing extra.
        let (ta, sa, _) = fluid_run(false);
        let (tb, sb, _) = fluid_run(false);
        assert_eq!((ta, sa), (tb, sb));
    }
}
