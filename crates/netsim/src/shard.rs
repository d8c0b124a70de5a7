//! Conservative parallel discrete-event execution: one simulation
//! sharded across cores.
//!
//! [`ShardedEngine`] partitions a [`Simulation`]'s topology into
//! *domains* — disjoint sets of nodes, each with its own event queue,
//! clock, and observer set — and advances them on one worker thread
//! per domain. Correctness rests on the classic conservative-lookahead
//! argument (Chandy/Misra/Bryant): the only way one domain can affect
//! another is a packet crossing a *cut link*, and a packet put on a
//! cut link at time `t` cannot arrive before `t + L`, where `L` is the
//! minimum propagation delay over all cut links. So if every domain's
//! next pending event is at or after `t_min`, all domains may safely
//! process events in the window `[t_min, t_min + L)` without hearing
//! from each other; cross-domain packets emitted during the window are
//! exchanged at the barrier that ends it, always landing at or beyond
//! the next window's start.
//!
//! Determinism (the reason this engine can exist at all — see
//! DESIGN.md §5): domains only share state at barriers, transits are
//! routed in canonical source-domain-major order, per-entity RNG
//! streams make random draws a function of each node/link's own
//! traffic, and per-domain observer output is merged canonically
//! afterwards. `tests/shard_equivalence.rs` holds the engine to
//! byte-identical reports, metrics, lineage, and series
//! against the sequential engine at every shard count.
//!
//! The barrier itself ([`Barrier`]) is a generation counter, a window
//! end and a done count in atomics. A window holds only a few dozen
//! events, so a waiter first spins a bounded budget and parks on a
//! condvar only when that runs out; a waker enters the kernel only when
//! someone is parked. Spinning pays only while every domain has a core
//! to itself: with more domains than cores, spinners steal the time
//! slices their peers need, so the budget drops to zero and every wait
//! parks at once (DESIGN.md §5).

use crate::link::{Link, LinkId, NodeId};
use crate::node::{AppId, Node};
use crate::sim::{
    collect_link_metrics, collect_node_metrics, collect_sim_metrics, Application, Delivery, Event,
    EventQueue, SchedulerKind, SimCore, SimStats, Simulation, Slot, Tap, TapId,
};
use crate::time::SimTime;
use crate::wheel::SchedStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;
use turb_obs::{MetricsRegistry, ProgressMeter};

/// How a [`Simulation`]'s `run_*` calls execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKind {
    /// One event loop on the calling thread; the default.
    #[default]
    Sequential,
    /// Partition the topology into this many domains and run them on
    /// one worker thread each, synchronised by lookahead barriers.
    /// `Sharded(1)` exercises the full barrier engine with a single
    /// domain — useful for isolating engine overhead.
    Sharded(u16),
}

/// A packet in flight between domains: the arrival the transmitting
/// domain would have scheduled locally, diverted at the cut.
pub(crate) struct Transit {
    /// Arrival instant at the far end of the link.
    pub(crate) time: SimTime,
    /// The cut link the packet travelled.
    pub(crate) link: LinkId,
    /// The packet itself.
    pub(crate) packet: turb_wire::ipv4::Ipv4Packet,
}

/// Per-domain sharding context, installed into each domain's
/// [`SimCore`] so the transmit path can divert cross-domain
/// deliveries into the outbox instead of the local event queue.
pub(crate) struct ShardCtx {
    /// Which domain this core is.
    pub(crate) domain: u16,
    /// Global node id → owning domain.
    pub(crate) node_domain: Arc<Vec<u16>>,
    /// Cross-domain packets emitted during the current window, in
    /// emission order; drained at the barrier.
    pub(crate) outbox: Vec<Transit>,
}

/// Engine diagnostics for one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDomainStats {
    /// Domain index.
    pub domain: u16,
    /// Nodes assigned to this domain.
    pub nodes: u32,
    /// Events this domain's loop processed.
    pub events_processed: u64,
    /// High-water mark of this domain's event queue.
    pub max_queue_depth: u64,
    /// This domain's scheduler-internal diagnostics.
    pub sched: SchedStats,
    /// Wall time spent running windows.
    pub busy_ns: u64,
    /// Wall time spent at the barrier: waiting, exchanging mail and,
    /// for domain 0, routing transits as the coordinator.
    pub wait_ns: u64,
    /// Barrier waits that outlasted the spin budget and parked.
    pub parks: u64,
}

/// Diagnostics of a sharded run: how the partition ran, not what the
/// simulated network did. Like [`SchedStats`], these live *outside*
/// the byte-identity set (they vary with shard count by nature).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDiag {
    /// Number of domains.
    pub shards: u16,
    /// Conservative lookahead: minimum propagation over cut links
    /// (`u64::MAX` when no link is cut).
    pub lookahead_ns: u64,
    /// Lookahead windows executed (= barrier synchronisations).
    pub barriers: u64,
    /// Packets exchanged across domains over the whole run.
    pub transits: u64,
    /// Largest single-barrier batch routed into one domain.
    pub max_exchange_depth: u64,
    /// Times an exchange buffer outgrew its pre-sized capacity. Stays
    /// zero in steady state — the buffers ping-pong by `mem::swap` and
    /// are never shrunk — and the shard tests assert that.
    pub exchange_reallocs: u64,
    /// Per-domain breakdown.
    pub per_domain: Vec<ShardDomainStats>,
}

/// Pre-sized capacity of every exchange buffer (inboxes, outboxes,
/// routing stage). Generously above any per-window cross-domain batch
/// the workspace scenarios produce, so steady-state exchange does no
/// allocation.
const EXCHANGE_CAP: usize = 1024;

/// Window sentinel telling workers to drain their inbox and exit.
const STOP: u64 = u64::MAX;

/// Mail slot between the coordinator and one domain's worker.
struct Mailbox {
    /// Transits routed to this domain, scheduled by the worker at the
    /// start of the next window.
    inbox: Vec<Transit>,
    /// The domain's published outbox, swapped out by the worker at the
    /// end of each window and drained by the coordinator's router.
    outbox: Vec<Transit>,
    /// The domain's next pending event time after its last window.
    next_time: Option<u64>,
    /// Events this domain has processed so far, refreshed at each
    /// publish. Read only by the coordinator's heartbeat — diagnostics
    /// outside the byte-identity set.
    events: u64,
}

/// Spin iterations a barrier wait burns before it parks, when every
/// domain has a core to itself. Enough to outlast a typical window (the
/// 1e5-session fleet's take ~9 µs of work each), so a peer that is
/// still running is usually caught without entering the kernel: that
/// fleet parks in fewer than 1 of 100 waits on 2 CPUs.
const SPIN_BUDGET: u32 = 1024;

/// The spin budget for a run with `domains` threads: [`SPIN_BUDGET`]
/// when each can have its own core, else 0 (spinners would steal the
/// time slices of the peers they wait for).
fn spin_budget(domains: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if domains <= cores {
        SPIN_BUDGET
    } else {
        0
    }
}

/// One direction of the barrier handshake: a condvar that waiters park
/// on only after spinning out, and that a waker touches only when
/// someone is parked.
#[derive(Default)]
struct Gate {
    /// Waiters registered to park on `cv`.
    sleepers: AtomicUsize,
    /// Orders a waiter's last check before a waker's notify. It guards
    /// no data, so a lock poisoned by a panicking peer is still good.
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    /// Return once `ready()` holds: spin up to `spin` iterations, then
    /// park. Returns whether the wait parked.
    ///
    /// No lost wakeup: the waiter registers in `sleepers` and then
    /// checks `ready()`; the waker publishes its state and then reads
    /// `sleepers`, all `SeqCst`. In the single total order either the
    /// waiter's check comes after the publish (and sees it), or the
    /// waker's read comes after the registration (and it notifies,
    /// taking the lock the waiter holds until it sleeps).
    fn wait(&self, spin: u32, ready: impl Fn() -> bool) -> bool {
        for _ in 0..spin {
            if ready() {
                return false;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, SeqCst);
        let mut parked = false;
        while !ready() {
            parked = true;
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
        parked
    }

    /// Wake every parked waiter. The caller has already published the
    /// state change `ready()` tests, with a `SeqCst` write.
    fn wake(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }
}

/// The lookahead barrier shared by the coordinator and all workers.
pub(crate) struct Barrier {
    /// Generation counter; workers run one window per bump.
    gen: AtomicU64,
    /// End (exclusive) of the current window, or [`STOP`].
    window_end: AtomicU64,
    /// Workers done with the current generation.
    done: AtomicUsize,
    /// Workers the coordinator waits for: every domain but domain 0,
    /// which the coordinator runs inline.
    workers: usize,
    /// Spin iterations before a wait parks.
    spin: u32,
    /// Coordinator → workers: a new generation was published.
    to_workers: Gate,
    /// Workers → coordinator: a domain finished the generation.
    to_coord: Gate,
}

impl Barrier {
    /// A barrier for `domains` domains whose waits spin `spin`
    /// iterations before parking.
    pub(crate) fn with_spin(domains: usize, spin: u32) -> Barrier {
        Barrier {
            gen: AtomicU64::new(0),
            window_end: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            workers: domains - 1,
            spin,
            to_workers: Gate::default(),
            to_coord: Gate::default(),
        }
    }

    /// Coordinator: open the next generation with this window end (or
    /// [`STOP`]).
    fn open(&self, window_end: u64) {
        self.done.store(0, SeqCst);
        self.window_end.store(window_end, SeqCst);
        self.gen.fetch_add(1, SeqCst);
        self.to_workers.wake();
    }

    /// Worker: wait for the generation after `seen`. Returns it, its
    /// window end, and whether the wait parked. The generation cannot
    /// move again until this worker [`arrive`](Barrier::arrive)s.
    fn next(&self, seen: u64) -> (u64, u64, bool) {
        let parked = self
            .to_workers
            .wait(self.spin, || self.gen.load(SeqCst) != seen);
        (self.gen.load(SeqCst), self.window_end.load(SeqCst), parked)
    }

    /// Worker: done with the current generation.
    fn arrive(&self) {
        self.done.fetch_add(1, SeqCst);
        self.to_coord.wake();
    }

    /// Coordinator: wait until every worker has arrived. Returns
    /// whether the wait parked.
    fn wait_all(&self) -> bool {
        self.to_coord
            .wait(self.spin, || self.done.load(SeqCst) == self.workers)
    }
}

/// One domain's barrier timing over a run; see [`ShardDomainStats`].
#[derive(Debug, Clone, Copy, Default)]
struct DomainTiming {
    busy_ns: u64,
    wait_ns: u64,
    parks: u64,
}

impl DomainTiming {
    /// Run one window, timing it as busy.
    fn run_window(&mut self, sim: &mut Simulation, window_end: u64) {
        let start = Instant::now();
        sim.run_window(window_end);
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }

    /// Close the books on a loop entered at `entered`: whatever was
    /// not busy was barrier time.
    fn finish(mut self, entered: Instant) -> Self {
        self.wait_ns = (entered.elapsed().as_nanos() as u64).saturating_sub(self.busy_ns);
        self
    }

    fn add(&mut self, other: DomainTiming) {
        self.busy_ns += other.busy_ns;
        self.wait_ns += other.wait_ns;
        self.parks += other.parks;
    }
}

/// The conservative parallel engine: one [`Simulation`] per domain
/// plus the exchange machinery. Owned by the outer [`Simulation`] once
/// it partitions; see [`Simulation::set_shards`].
pub struct ShardedEngine {
    /// One inner simulation per domain (each `ShardKind::Sequential`,
    /// so the outer dispatch never recurses).
    pub(crate) domains: Vec<Simulation>,
    /// Global node id → owning domain.
    node_domain: Arc<Vec<u16>>,
    /// Global link id → domain owning the live copy (the transmitting
    /// node's domain: that's where `transmit` mutates stats and RNG).
    link_src_domain: Vec<u16>,
    /// Global link id → domain of the receiving node.
    link_dst_domain: Vec<u16>,
    /// Conservative lookahead in nanoseconds.
    lookahead: u64,
    /// Global clock: `limit` after a forced run, else the latest
    /// domain clock.
    now: SimTime,
    mailboxes: Vec<Mutex<Mailbox>>,
    /// Coordinator-side routing stage, one slot per destination
    /// domain; persists across runs so routing does no allocation.
    staging: Vec<Vec<Transit>>,
    /// Remembered buffer capacities, for realloc detection.
    buffer_caps: Vec<usize>,
    /// Barrier spin budget, fixed at partition; see [`spin_budget`].
    spin: u32,
    /// Per-domain barrier timing, summed over runs.
    timing: Vec<DomainTiming>,
    barriers: u64,
    transits: u64,
    max_exchange_depth: u64,
    exchange_reallocs: u64,
}

/// Union-find with path halving.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Partition nodes into `n` domains by greedily contracting the
/// cheapest cut first: repeatedly merge the two components joined by
/// the cross-component link with the smallest `(propagation, combined
/// size, link id)` key until `n` components remain. Minimum-latency
/// links vanish into domains (they would otherwise bound the
/// lookahead), and the size term keeps domains balanced. Returns the
/// node → domain map, with domains numbered by their smallest member
/// node id so the assignment is independent of merge order.
fn assign_domains(links: &[Link], node_count: usize, n: usize) -> Vec<u16> {
    assert!(n >= 1, "a sharded simulation needs at least one domain");
    assert!(
        n <= node_count,
        "cannot split {node_count} nodes into {n} shard domains; \
         shard count must not exceed the node count"
    );
    let mut parent: Vec<usize> = (0..node_count).collect();
    let mut size = vec![1usize; node_count];
    let mut components = node_count;
    while components > n {
        // The cheapest cross-component link, by (propagation,
        // combined component size, link id).
        let mut best: Option<((u64, usize, usize), usize, usize)> = None;
        for link in links {
            let a = uf_find(&mut parent, link.from.0);
            let b = uf_find(&mut parent, link.to.0);
            if a == b {
                continue;
            }
            let key = (link.config.propagation.0, size[a] + size[b], link.id.0);
            if best.as_ref().is_none_or(|(k, _, _)| key < *k) {
                best = Some((key, a, b));
            }
        }
        let Some((_, a, b)) = best else {
            break; // disconnected topology: no cross-component links left
        };
        let (root, child) = if size[a] >= size[b] { (a, b) } else { (b, a) };
        parent[child] = root;
        size[root] += size[child];
        components -= 1;
    }
    // Disconnected leftovers: merge the smallest components first
    // (ties by smallest member id) until n remain.
    while components > n {
        let mut roots: Vec<usize> = (0..node_count)
            .filter(|&i| uf_find(&mut parent, i) == i)
            .collect();
        roots.sort_by_key(|&r| (size[r], r));
        let (a, b) = (roots[0], roots[1]);
        parent[a] = b;
        size[b] += size[a];
        components -= 1;
    }
    // Renumber components as domains ordered by smallest member node.
    let mut root_domain = vec![u16::MAX; node_count];
    let mut next = 0u16;
    let mut node_domain = vec![0u16; node_count];
    for (i, slot) in node_domain.iter_mut().enumerate() {
        let r = uf_find(&mut parent, i);
        if root_domain[r] == u16::MAX {
            root_domain[r] = next;
            next += 1;
        }
        *slot = root_domain[r];
    }
    debug_assert_eq!(next as usize, components);
    node_domain
}

/// Schedule everything in this domain's inbox. No sort: the event
/// queue orders by time, and for equal arrival times the inbox's
/// source-domain-major order is the canonical tie-break.
fn drain_inbox(sim: &mut Simulation, mailbox: &Mutex<Mailbox>) {
    let mut mb = mailbox.lock().unwrap();
    for t in mb.inbox.drain(..) {
        sim.core.schedule(
            t.time,
            Event::Arrival {
                link: t.link,
                packet: t.packet,
            },
        );
    }
}

/// Publish a domain's window results: swap the freshly filled outbox
/// into the mailbox (buffer ping-pong — no allocation) and expose the
/// next pending event time.
fn publish(sim: &mut Simulation, mailbox: &Mutex<Mailbox>) {
    let mut mb = mailbox.lock().unwrap();
    let ctx = sim
        .core
        .shard
        .as_deref_mut()
        .expect("domain core has a shard context");
    std::mem::swap(&mut mb.outbox, &mut ctx.outbox);
    mb.next_time = sim.core.queue.next_time().map(SimTime::as_nanos);
    mb.events = sim.core.stats.events_processed;
}

/// One domain's worker loop: wait for a window, absorb the inbox, run
/// the window, publish, repeat — until the [`STOP`] sentinel.
fn worker(sim: &mut Simulation, mailbox: &Mutex<Mailbox>, barrier: &Barrier) -> DomainTiming {
    let entered = Instant::now();
    let mut timing = DomainTiming::default();
    let mut seen_gen = 0u64;
    loop {
        let (gen, window_end, parked) = barrier.next(seen_gen);
        seen_gen = gen;
        timing.parks += u64::from(parked);
        // Inbox first, in both cases: on STOP the drained arrivals lie
        // beyond the run limit and must survive into the next run call.
        drain_inbox(sim, mailbox);
        let stopping = window_end == STOP;
        if !stopping {
            timing.run_window(sim, window_end);
            publish(sim, mailbox);
        }
        barrier.arrive();
        if stopping {
            return timing.finish(entered);
        }
    }
}

/// Domain `d`'s copy of a full-length app or tap vector: the slots on
/// its own nodes move here, every other slot stays empty, so ids index
/// alike in every domain.
fn own_slots<T: ?Sized>(slots: &mut [Slot<T>], node_domain: &[u16], d: usize) -> Vec<Slot<T>> {
    let own = |s: &mut Slot<T>| Slot {
        node: s.node,
        held: s.held.take_if(|_| node_domain[s.node.0] as usize == d),
    };
    slots.iter_mut().map(own).collect()
}

impl ShardedEngine {
    /// Split a fully built simulation into `n` domains. Called lazily
    /// by the outer [`Simulation`] on its first `run_*` call, so all
    /// topology, application, and observer setup is already in place.
    pub(crate) fn partition(
        mut core: SimCore,
        mut apps: Vec<Slot<dyn Application>>,
        deliveries: Vec<Delivery>,
        n: usize,
    ) -> ShardedEngine {
        let node_count = core.nodes.len();
        let node_domain = Arc::new(assign_domains(&core.links, node_count, n));
        let n = *node_domain.iter().max().unwrap_or(&0) as usize + 1;
        debug_assert!(n >= 1);

        let link_src_domain: Vec<u16> = core.links.iter().map(|l| node_domain[l.from.0]).collect();
        let link_dst_domain: Vec<u16> = core.links.iter().map(|l| node_domain[l.to.0]).collect();

        // Conservative lookahead: the minimum propagation over cut
        // links. A zero-propagation cut would make windows empty.
        let mut lookahead = u64::MAX;
        for link in &core.links {
            if node_domain[link.from.0] != node_domain[link.to.0] {
                assert!(
                    link.config.propagation.0 > 0,
                    "cut link {} has zero propagation delay: no conservative \
                     lookahead exists for this partition",
                    link.id.0
                );
                lookahead = lookahead.min(link.config.propagation.0);
            }
        }

        let scheduler = core.queue.kind();
        let now = core.now;

        // Per-domain observers. Domain 0 inherits the originals (with
        // any pre-partition recordings); the rest get forks.
        let mut forks = (1..n)
            .map(|d| core.obs.fork(d as u16))
            .collect::<Vec<_>>()
            .into_iter();

        // Dismember the core. Nodes, links, taps, and the original
        // observers move to their owning domains; every domain keeps
        // full-length node/link/app/tap vectors (placeholders in
        // foreign slots) so global ids index directly everywhere.
        let mut nodes: Vec<Option<Node>> = core.nodes.into_iter().map(Some).collect();
        let mut links: Vec<Option<Link>> = core.links.into_iter().map(Some).collect();

        // Lightweight per-entity metadata for placeholder construction.
        let node_meta: Vec<(
            String,
            std::net::Ipv4Addr,
            crate::node::NodeKind,
            turb_obs::SymbolId,
        )> = nodes
            .iter()
            .map(|node| {
                let node = node.as_ref().unwrap();
                (node.name.clone(), node.addr, node.kind, node.comp)
            })
            .collect();
        let link_meta: Vec<(NodeId, NodeId, crate::link::LinkConfig, turb_obs::SymbolId)> = links
            .iter()
            .map(|link| {
                let link = link.as_ref().unwrap();
                (link.from, link.to, link.config, link.comp)
            })
            .collect();

        let mut domains: Vec<Simulation> = (0..n)
            .map(|d| {
                let domain_nodes: Vec<Node> = (0..node_count)
                    .map(|i| {
                        if node_domain[i] as usize == d {
                            nodes[i].take().unwrap()
                        } else {
                            let (name, addr, kind, comp) = &node_meta[i];
                            let mut ph = Node::new(NodeId(i), name.clone(), *addr, *kind);
                            ph.comp = *comp;
                            ph
                        }
                    })
                    .collect();
                let domain_links: Vec<Link> = (0..link_meta.len())
                    .map(|i| {
                        if link_src_domain[i] as usize == d {
                            links[i].take().unwrap()
                        } else {
                            // The receiving domain's arrival path only
                            // reads `to` (and observers read `comp`);
                            // stats and RNG live in the sender's copy.
                            let (from, to, config, comp) = link_meta[i];
                            let mut ph = Link::new(LinkId(i), from, to, config);
                            ph.comp = comp;
                            ph
                        }
                    })
                    .collect();
                Simulation {
                    core: SimCore {
                        now,
                        queue: EventQueue::with_capacity(scheduler, 1024),
                        seq: 0,
                        nodes: domain_nodes,
                        links: domain_links,
                        taps: own_slots(&mut core.taps, &node_domain, d),
                        // Never drawn mid-run: every mid-run draw goes
                        // through a per-node or per-link stream.
                        rng: core.rng.clone(),
                        stats: if d == 0 {
                            core.stats
                        } else {
                            SimStats::default()
                        },
                        obs: if d == 0 {
                            std::mem::take(&mut core.obs)
                        } else {
                            forks.next().unwrap()
                        },
                        shard: Some(Box::new(ShardCtx {
                            domain: d as u16,
                            node_domain: Arc::clone(&node_domain),
                            outbox: Vec::with_capacity(EXCHANGE_CAP),
                        })),
                        fluid_applied: if d == 0 { core.fluid_applied } else { 0 },
                        fluid: crate::fluid::FluidChains::default(),
                    },
                    apps: own_slots(&mut apps, &node_domain, d),
                    deliveries: if d == 0 {
                        deliveries.clone_capacity()
                    } else {
                        Vec::new()
                    },
                    shards: ShardKind::Sequential,
                    sharded: None,
                    // The outer simulation sealed the fluid population
                    // before partitioning; domains only apply the
                    // already-scheduled updates.
                    fluid_flows: Vec::new(),
                    fluid_sealed: true,
                    fluid_diag: crate::fluid::FluidDiag::default(),
                    progress: None,
                }
            })
            .collect();

        // Redistribute pending events (AppStarts from setup, possibly
        // timers) to their owning domains, preserving (time, seq)
        // order: pops come out in canonical order and each domain
        // re-sequences locally. Raw queue pushes — the events were
        // already counted in `events_scheduled` when first scheduled.
        // Chained fluid updates join the queue first, so they take
        // their local seqs in the same order; each domain then chains
        // its own links' updates again.
        let mut queue = core.queue;
        for link in 0..core.fluid.links() {
            let link = LinkId(link);
            while let Some((time, seq, bps)) = core.fluid.next(link) {
                queue.push(time, seq, Event::FluidUpdate { link, bps });
            }
        }
        let mut fluid: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        while let Some((time, event)) = queue.pop() {
            let owner = match &event {
                Event::Arrival { link, .. } => link_dst_domain[link.0],
                Event::AppStart(app) | Event::Timer { app, .. } => {
                    node_domain[domains[0].apps[app.0].node.0]
                }
                // Fluid shares are read by `transmit`, which runs in
                // the domain owning the link's live copy (the
                // transmitting node's domain).
                Event::FluidUpdate { link, .. } => link_src_domain[link.0],
            } as usize;
            let domain_core = &mut domains[owner].core;
            let seq = domain_core.reserve_seqs(1);
            match event {
                Event::FluidUpdate { link, bps } => fluid[owner].push((time, seq, link, bps)),
                event => domain_core.queue.push(time, seq, event),
            }
        }
        for (sim, planned) in domains.iter_mut().zip(fluid) {
            sim.core.arm_fluid(crate::fluid::FluidChains::new(&planned));
            // Each domain's high water starts from its own queue, not
            // the outer one's that domain 0's copied counters carry.
            sim.core.stats.queue_high_water = sim.core.queue.len() as u64;
        }

        let mailboxes = (0..n)
            .map(|_| {
                Mutex::new(Mailbox {
                    inbox: Vec::with_capacity(EXCHANGE_CAP),
                    outbox: Vec::with_capacity(EXCHANGE_CAP),
                    next_time: None,
                    events: 0,
                })
            })
            .collect();
        let staging: Vec<Vec<Transit>> = (0..n).map(|_| Vec::with_capacity(EXCHANGE_CAP)).collect();
        // inbox, outbox, staging, per-domain shard outbox: 4 buffers
        // per domain, all pre-sized.
        let buffer_caps = vec![EXCHANGE_CAP; n * 4];

        ShardedEngine {
            domains,
            node_domain,
            link_src_domain,
            link_dst_domain,
            lookahead,
            now,
            mailboxes,
            staging,
            buffer_caps,
            spin: spin_budget(n),
            timing: vec![DomainTiming::default(); n],
            barriers: 0,
            transits: 0,
            max_exchange_depth: 0,
            exchange_reallocs: 0,
        }
    }

    /// Run all domains to `limit`. With `force_advance` every clock is
    /// advanced to `limit` afterwards (the `run_until` contract);
    /// without, clocks rest on their last processed event
    /// (`run_to_idle`).
    pub(crate) fn run(
        &mut self,
        limit: SimTime,
        force_advance: bool,
        mut progress: Option<&mut ProgressMeter>,
    ) -> SimTime {
        // Windows are end-exclusive; events exactly at `limit` are in.
        let end_ns = limit.as_nanos().saturating_add(1);
        let n = self.domains.len();

        // Publish every domain's next pending time; workers keep these
        // fresh from here on.
        for (sim, mailbox) in self.domains.iter_mut().zip(&self.mailboxes) {
            mailbox.lock().unwrap().next_time = sim.core.queue.next_time().map(SimTime::as_nanos);
        }

        let barrier = Barrier::with_spin(n, self.spin);
        let mut barriers = 0u64;
        let mut transits = 0u64;
        let mut max_depth = self.max_exchange_depth;

        {
            let (d0, rest) = self.domains.split_first_mut().unwrap();
            let mailboxes = &self.mailboxes;
            let (mb0, mb_rest) = mailboxes.split_first().unwrap();
            let staging = &mut self.staging;
            let link_dst_domain = &self.link_dst_domain;
            let lookahead = self.lookahead;
            let barrier = &barrier;
            let timing = &mut self.timing;
            std::thread::scope(|scope| {
                let workers: Vec<_> = rest
                    .iter_mut()
                    .zip(mb_rest.iter())
                    .map(|(sim, mailbox)| scope.spawn(move || worker(sim, mailbox, barrier)))
                    .collect();
                let entered = Instant::now();
                let mut coord_timing = DomainTiming::default();
                // Coordinator: route, open a window, run domain 0
                // inline, wait for the others.
                loop {
                    let mut t_min: Option<u64> = None;
                    let mut events_total = 0u64;
                    for mailbox in mailboxes.iter() {
                        let mut mb = mailbox.lock().unwrap();
                        events_total += mb.events;
                        if let Some(t) = mb.next_time {
                            t_min = Some(t_min.map_or(t, |m: u64| m.min(t)));
                        }
                        for t in mb.outbox.drain(..) {
                            let arrival = t.time.as_nanos();
                            t_min = Some(t_min.map_or(arrival, |m: u64| m.min(arrival)));
                            staging[link_dst_domain[t.link.0] as usize].push(t);
                        }
                    }
                    // Heartbeat at the barrier: the coordinator already
                    // holds all the state (frontier time, event totals)
                    // and the meter rate-limits itself on wall clock.
                    if let (Some(p), Some(t)) = (progress.as_deref_mut(), t_min) {
                        p.tick(t, events_total);
                    }
                    for (dst, stage) in staging.iter_mut().enumerate() {
                        if stage.is_empty() {
                            continue;
                        }
                        transits += stage.len() as u64;
                        max_depth = max_depth.max(stage.len() as u64);
                        let mut mb = mailboxes[dst].lock().unwrap();
                        mb.inbox.append(stage);
                    }
                    let stop = t_min.is_none_or(|t| t >= end_ns);
                    let window_end = if stop {
                        STOP
                    } else {
                        t_min.unwrap().saturating_add(lookahead).min(end_ns)
                    };
                    barrier.open(window_end);
                    drain_inbox(d0, mb0);
                    if !stop {
                        coord_timing.run_window(d0, window_end);
                        publish(d0, mb0);
                        barriers += 1;
                    }
                    coord_timing.parks += u64::from(barrier.wait_all());
                    if stop {
                        break;
                    }
                }
                timing[0].add(coord_timing.finish(entered));
                for (slot, handle) in timing[1..].iter_mut().zip(workers) {
                    slot.add(handle.join().expect("shard worker panicked"));
                }
            });
        }

        self.barriers += barriers;
        self.transits += transits;
        self.max_exchange_depth = max_depth;
        self.note_reallocs();

        if force_advance {
            for sim in &mut self.domains {
                if sim.core.now < limit {
                    sim.core.now = limit;
                }
            }
            if self.now < limit {
                self.now = limit;
            }
        } else {
            let latest = self
                .domains
                .iter()
                .map(|sim| sim.core.now)
                .max()
                .unwrap_or(self.now);
            self.now = self.now.max(latest);
        }
        self.now
    }

    /// Record exchange-buffer capacity growth since the last run (or
    /// since partition). Steady state keeps this at zero: the buffers
    /// are pre-sized and ping-ponged, never reallocated.
    fn note_reallocs(&mut self) {
        let n = self.domains.len();
        for d in 0..n {
            let mb = self.mailboxes[d].lock().unwrap();
            let shard_out = self.domains[d]
                .core
                .shard
                .as_deref()
                .map_or(0, |ctx| ctx.outbox.capacity());
            for (slot, cap) in [
                (d * 4, mb.inbox.capacity()),
                (d * 4 + 1, mb.outbox.capacity()),
                (d * 4 + 2, self.staging[d].capacity()),
                (d * 4 + 3, shard_out),
            ] {
                if cap > self.buffer_caps[slot] {
                    self.exchange_reallocs += 1;
                    self.buffer_caps[slot] = cap;
                }
            }
        }
    }

    /// Global clock (see [`ShardedEngine::run`]).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    fn owner_of_node(&self, id: NodeId) -> &Simulation {
        &self.domains[self.node_domain[id.0] as usize]
    }

    /// The owning domain's live copy of a node.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.owner_of_node(id).core.nodes[id.0]
    }

    /// The transmitting domain's live copy of a link.
    pub(crate) fn link(&self, id: LinkId) -> &Link {
        &self.domains[self.link_src_domain[id.0] as usize].core.links[id.0]
    }

    pub(crate) fn node_count(&self) -> usize {
        self.domains[0].core.nodes.len()
    }

    pub(crate) fn link_count(&self) -> usize {
        self.domains[0].core.links.len()
    }

    /// App `id`'s live slot: the one in its node's domain.
    pub(crate) fn app_slot(&mut self, id: AppId) -> &mut Slot<dyn Application> {
        let owner = self.node_domain[self.domains[0].apps[id.0].node.0] as usize;
        &mut self.domains[owner].apps[id.0]
    }

    /// Tap `id`'s live slot: the one in its node's domain.
    pub(crate) fn tap_slot(&mut self, id: TapId) -> &mut Slot<dyn Tap> {
        let owner = self.node_domain[self.domains[0].core.taps[id.0].node.0] as usize;
        &mut self.domains[owner].core.taps[id.0]
    }

    /// Add an application mid-run: the live slot goes to the owning
    /// domain, every other domain gets a placeholder so [`AppId`]s
    /// stay globally consistent.
    pub(crate) fn add_app(
        &mut self,
        node: NodeId,
        app: Box<dyn Application>,
        udp_port: Option<u16>,
        listen_icmp: bool,
    ) -> AppId {
        let id = AppId(self.domains[0].apps.len());
        let owner = self.node_domain[node.0] as usize;
        let mut app = Some(app);
        for (d, sim) in self.domains.iter_mut().enumerate() {
            sim.apps.push(Slot {
                node,
                held: if d == owner { app.take() } else { None },
            });
        }
        let start = self.now;
        let sim = &mut self.domains[owner];
        if let Some(port) = udp_port {
            let previous = sim.core.nodes[node.0].ports.insert(port, id);
            assert!(previous.is_none(), "UDP port {port} already bound");
        }
        if listen_icmp {
            sim.core.nodes[node.0].icmp_listeners.push(id);
        }
        sim.core.schedule(start, Event::AppStart(id));
        id
    }

    pub(crate) fn bind_tcp_port(&mut self, node: NodeId, port: u16, app: AppId) {
        let owner = self.node_domain[node.0] as usize;
        let previous = self.domains[owner].core.nodes[node.0]
            .tcp_ports
            .insert(port, app);
        assert!(previous.is_none(), "TCP port {port} already bound");
    }

    /// Event-loop counters summed across domains; `queue_high_water`
    /// takes the max (each domain has its own queue, so the sum would
    /// be meaningless — and unlike the sums it is *not* comparable to
    /// the sequential engine's figure).
    pub(crate) fn sim_stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for sim in &self.domains {
            let s = sim.core.sim_stats();
            total.events_scheduled += s.events_scheduled;
            total.events_processed += s.events_processed;
            total.queue_high_water = total.queue_high_water.max(s.queue_high_water);
            total.fragmented_datagrams += s.fragmented_datagrams;
            total.fragments_sent += s.fragments_sent;
            total.transit_fastpath += s.transit_fastpath;
            total.transit_slowpath += s.transit_slowpath;
        }
        total
    }

    pub(crate) fn scheduler(&self) -> SchedulerKind {
        self.domains[0].core.scheduler()
    }

    /// `FluidUpdate` events applied, summed across domains.
    pub(crate) fn fluid_applied(&self) -> u64 {
        self.domains.iter().map(|sim| sim.core.fluid_applied).sum()
    }

    pub(crate) fn sched_stats(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for sim in &self.domains {
            let s = sim.core.sched_stats();
            total.slots_touched += s.slots_touched;
            total.cascades += s.cascades;
            total.overflow_events += s.overflow_events;
        }
        total
    }

    /// Harvest metrics byte-identically to a sequential run: summed
    /// engine counters, then every link and node from its owning
    /// domain in global id order, with elapsed time from the global
    /// clock.
    pub(crate) fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        collect_sim_metrics(&self.sim_stats(), registry);
        let elapsed_secs = self.now.as_nanos() as f64 / 1e9;
        for id in 0..self.link_count() {
            collect_link_metrics(self.link(LinkId(id)), elapsed_secs, registry);
        }
        for id in 0..self.node_count() {
            collect_node_metrics(self.node(NodeId(id)), registry);
        }
    }

    /// Engine diagnostics; see [`ShardDiag`].
    pub(crate) fn diag(&self) -> ShardDiag {
        ShardDiag {
            shards: self.domains.len() as u16,
            lookahead_ns: self.lookahead,
            barriers: self.barriers,
            transits: self.transits,
            max_exchange_depth: self.max_exchange_depth,
            exchange_reallocs: self.exchange_reallocs,
            per_domain: self
                .domains
                .iter()
                .enumerate()
                .zip(&self.timing)
                .map(|((d, sim), timing)| ShardDomainStats {
                    domain: d as u16,
                    nodes: self
                        .node_domain
                        .iter()
                        .filter(|&&owner| owner as usize == d)
                        .count() as u32,
                    events_processed: sim.core.stats.events_processed,
                    max_queue_depth: sim.core.stats.queue_high_water,
                    sched: sim.core.sched_stats(),
                    busy_ns: timing.busy_ns,
                    wait_ns: timing.wait_ns,
                    parks: timing.parks,
                })
                .collect(),
        }
    }
}

/// `Vec::with_capacity(v.capacity())` as a method, so the partition
/// hands domain 0 a delivery buffer as warm as the one it took.
trait CloneCapacity {
    fn clone_capacity(&self) -> Self;
}

impl CloneCapacity for Vec<Delivery> {
    fn clone_capacity(&self) -> Self {
        Vec::with_capacity(self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Ctx, Direction, TapEvent};
    use crate::time::SimDuration;

    fn link(id: usize, from: usize, to: usize, prop_ms: u64) -> Link {
        Link::new(
            LinkId(id),
            NodeId(from),
            NodeId(to),
            LinkConfig::ethernet_10m(SimDuration::from_millis(prop_ms)),
        )
    }

    #[test]
    fn assign_domains_cuts_the_slowest_links() {
        // Two clusters of two nodes joined by a slow pair of links:
        // 0-1 (fast), 2-3 (fast), 1-2 (slow).
        let links = vec![
            link(0, 0, 1, 1),
            link(1, 1, 0, 1),
            link(2, 2, 3, 1),
            link(3, 3, 2, 1),
            link(4, 1, 2, 50),
            link(5, 2, 1, 50),
        ];
        let domains = assign_domains(&links, 4, 2);
        assert_eq!(domains, vec![0, 0, 1, 1]);
    }

    #[test]
    fn assign_domains_single_domain_is_trivial() {
        let links = vec![link(0, 0, 1, 1)];
        assert_eq!(assign_domains(&links, 3, 1), vec![0, 0, 0]);
    }

    #[test]
    fn assign_domains_numbers_by_smallest_member() {
        // {2,3} merges before {0,1}, but domains come out renumbered
        // by their smallest member node id.
        let links = vec![link(0, 2, 3, 1), link(1, 0, 1, 30)];
        let domains = assign_domains(&links, 4, 2);
        assert_eq!(domains, vec![0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "must not exceed the node count")]
    fn assign_domains_rejects_more_shards_than_nodes() {
        assign_domains(&[], 2, 3);
    }

    /// An application whose only event is its `AppStart`.
    struct Idle;
    impl Application for Idle {}

    #[test]
    fn each_domain_reports_its_own_queue_high_water() {
        // 16 hosts in a line; host i runs i + 1 idle apps, so 136
        // `AppStart`s wait in the outer queue when it is split into 8
        // domains and nothing is queued after. Each domain's high
        // water is then exactly the starts it owns; domain 0 must not
        // report the outer queue's 136.
        let mut sim = Simulation::new(1);
        sim.set_shards(ShardKind::Sharded(8));
        let hosts: Vec<NodeId> = (0..16u8)
            .map(|i| sim.add_host(&format!("h{i}"), std::net::Ipv4Addr::new(10, 0, 0, i + 1)))
            .collect();
        for (i, pair) in hosts.windows(2).enumerate() {
            let prop_ms = 1 + (i as u64 * 7) % 5;
            sim.add_duplex(
                pair[0],
                pair[1],
                LinkConfig::ethernet_10m(SimDuration::from_millis(prop_ms)),
            );
        }
        for (i, &host) in hosts.iter().enumerate() {
            for _ in 0..=i {
                sim.add_app(host, Box::new(Idle), None, false);
            }
        }
        assert_eq!(sim.sim_stats().queue_high_water, 136);
        let domain_of = assign_domains(&sim.core().links, hosts.len(), 8);
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(1));

        let mut own = [0u64; 8];
        for (i, &d) in domain_of.iter().enumerate() {
            own[d as usize] += i as u64 + 1;
        }
        let diag = sim.shard_diag().expect("sharded run");
        let reported: Vec<u64> = diag.per_domain.iter().map(|d| d.max_queue_depth).collect();
        assert_eq!(reported, own);
        assert_eq!(sim.sim_stats().events_processed, 136);
    }

    /// Sends `left` 100-byte datagrams to `peer`:6000, one a
    /// millisecond.
    struct Sender {
        peer: std::net::Ipv4Addr,
        left: u32,
    }
    impl Application for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_udp(5000, self.peer, 6000, bytes::Bytes::from(vec![0u8; 100]));
            self.left -= 1;
            if self.left > 0 {
                ctx.set_timer_after(SimDuration::from_millis(1), 0);
            }
        }
    }

    /// The arrival time of every datagram it receives.
    #[derive(Default)]
    struct Arrivals(Vec<SimTime>);
    impl Application for Arrivals {
        fn on_udp(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: (std::net::Ipv4Addr, u16),
            _port: u16,
            _payload: bytes::Bytes,
        ) {
            self.0.push(ctx.now());
        }
    }

    /// Packets crossing its node, by direction.
    #[derive(Debug, Default, PartialEq)]
    struct Crossings {
        rx: u32,
        tx: u32,
    }
    impl Tap for Crossings {
        fn observe(&mut self, ev: &TapEvent<'_>) {
            match ev.direction {
                Direction::Rx => self.rx += 1,
                Direction::Tx => self.tx += 1,
            }
        }
    }

    /// Two hosts 3 ms apart; `a` sends 20 datagrams to `b`, which
    /// records them in an app and a tap. Returns the simulation, run to
    /// idle, and the ids of both.
    fn run_into_b(shards: ShardKind) -> (Simulation, AppId, TapId) {
        let mut sim = Simulation::new(3);
        sim.set_shards(shards);
        let b_addr = std::net::Ipv4Addr::new(10, 0, 0, 2);
        let a = sim.add_host("a", std::net::Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", b_addr);
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(3)));
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);
        assert_eq!(assign_domains(&sim.core().links, 2, 2), [0, 1]);
        sim.add_app(
            a,
            Box::new(Sender {
                peer: b_addr,
                left: 20,
            }),
            None,
            false,
        );
        let arrivals = sim.add_app(b, Box::new(Arrivals::default()), Some(6000), false);
        let tap = sim.add_tap(b, Box::new(Crossings::default()));
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(1));
        (sim, arrivals, tap)
    }

    #[test]
    fn apps_and_taps_come_back_from_the_domain_that_owns_them() {
        let (mut seq, app, tap) = run_into_b(ShardKind::Sequential);
        let (mut shd, shd_app, shd_tap) = run_into_b(ShardKind::Sharded(2));
        assert!(shd.shard_diag().is_some(), "the run was partitioned");
        let arrivals = seq.take_app::<Arrivals>(app).0;
        assert_eq!(arrivals.len(), 20);
        assert_eq!(shd.take_app::<Arrivals>(shd_app).0, arrivals);
        let crossings = seq.take_tap::<Crossings>(tap);
        assert_eq!(crossings, Crossings { rx: 20, tx: 0 });
        assert_eq!(shd.take_tap::<Crossings>(shd_tap), crossings);
    }

    #[test]
    #[should_panic(expected = "app 1 is a turb_netsim::shard::tests::Arrivals, \
                               not a turb_netsim::shard::tests::Idle")]
    fn a_sharded_take_of_the_wrong_type_names_both() {
        let (mut sim, app, _) = run_into_b(ShardKind::Sharded(2));
        sim.take_app::<Idle>(app);
    }

    /// Drive the barrier the way `ShardedEngine::run` does, with no
    /// simulation behind it: a coordinator and three workers over 10⁴
    /// generations, then STOP.
    fn drive_barrier(spin: u32) {
        const DOMAINS: usize = 4;
        const GENERATIONS: u64 = 10_000;
        let workers = DOMAINS as u64 - 1;
        let barrier = Barrier::with_spin(DOMAINS, spin);
        let arrivals = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..DOMAINS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        let mut gen = 0;
                        loop {
                            let (next, window_end, _) = barrier.next(gen);
                            gen = next;
                            seen.push(gen);
                            let stopping = window_end == STOP;
                            if !stopping {
                                assert_eq!(
                                    window_end,
                                    gen * 10,
                                    "window end torn from its generation"
                                );
                            }
                            arrivals.fetch_add(1, SeqCst);
                            barrier.arrive();
                            if stopping {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            for gen in 1..=GENERATIONS + 1 {
                barrier.open(if gen > GENERATIONS { STOP } else { gen * 10 });
                barrier.wait_all();
                assert_eq!(barrier.done.load(SeqCst), DOMAINS - 1);
                assert_eq!(
                    arrivals.load(SeqCst),
                    gen * workers,
                    "coordinator left generation {gen} before every worker arrived"
                );
            }
            for handle in handles {
                let seen = handle.join().unwrap();
                assert!(
                    seen.iter().copied().eq(1..=GENERATIONS + 1),
                    "a worker skipped or repeated a generation"
                );
            }
        });
    }

    #[test]
    fn barrier_parking_only_sees_every_generation_once() {
        drive_barrier(0);
    }

    #[test]
    fn barrier_spinning_sees_every_generation_once() {
        drive_barrier(SPIN_BUDGET);
    }

    #[test]
    fn spin_budget_is_zero_when_domains_outnumber_cores() {
        assert_eq!(spin_budget(1), SPIN_BUDGET);
        assert_eq!(spin_budget(usize::MAX), 0);
    }

    #[test]
    fn disconnected_leftovers_merge_smallest_first() {
        // Four isolated nodes, two domains: pairwise merges by size
        // then id.
        let domains = assign_domains(&[], 4, 2);
        assert_eq!(domains.iter().filter(|&&d| d == 0).count(), 2);
        assert_eq!(domains.iter().filter(|&&d| d == 1).count(), 2);
    }
}
