//! A deterministic hierarchical timing wheel for the event queue.
//!
//! The simulator's original scheduler was a `BinaryHeap` ordered by
//! `(time, insertion sequence)`. That order is the engine's contract:
//! earlier sim-time first, and FIFO among events scheduled for the
//! same instant. The wheel reproduces that order *exactly* — pop for
//! pop — while making the common case (events scheduled a short,
//! bounded distance into the future) O(1) amortised instead of
//! O(log n).
//!
//! ## Layout
//!
//! Absolute sim-time is quantised to ticks of `2^TICK_SHIFT`
//! nanoseconds (131 µs). Four levels of 256 slots each cover
//! `256^4 = 2^32` ticks (2^49 ns, ~6.5 simulated days):
//!
//! * level 0: one tick per slot,
//! * level `l`: `256^l` ticks per slot,
//! * anything at or beyond the horizon waits in a far-future
//!   `BinaryHeap` and is swept in when the wheel's range catches up.
//!
//! The tick is sized to the spacing of the events, not to the clock.
//! A pair run's queue holds ~23 entries whose deadlines lie
//! milliseconds apart (media pacing, client stats ticks, link
//! arrivals). A tick much finer than that spacing leaves most level-0
//! slots empty, so each pop pays for bitmap scans and era cascades
//! that find nothing: at 2^13 ns (8.2 µs, a 2.1-ms era) the seed-42
//! corpus cascaded 290,424 times, at 2^17 ns (a 33.5-ms era) 24,007
//! times. A much coarser tick piles a deep queue's entries into the
//! current-tick heap, where they cost O(log n) again. DESIGN.md §5
//! has the scan. The tick never changes the pop order, only the work
//! to reach it.
//!
//! Every entry strictly after the current tick lives in exactly one
//! slot (or the overflow heap). Entries **at or before** the current
//! tick live in `current`: a small binary heap ordered by the exact
//! `(time, seq)` key. Sub-tick ordering therefore never depends on
//! the wheel geometry — the wheel only decides *when a tick's events
//! become current*, and the heap restores the total order within it.
//! That is what makes the wheel bit-identical to the old scheduler
//! instead of merely "close enough" (see DESIGN.md §5).
//!
//! ## Advancing
//!
//! When `current` drains, the wheel scans level 0's occupancy bitmap
//! for the next non-empty slot in the current 256-tick era. At an era
//! boundary it cascades the next level-1 slot (re-dispatching each
//! entry, which now lands in level 0 or `current`), and likewise for
//! deeper levels at their `256^l`-aligned boundaries. When level 0 is
//! empty it does not step era by era: it jumps straight to the
//! earliest boundary of any occupied slot (or the horizon rollover,
//! while far-future entries wait), since every boundary in between
//! would cascade an empty slot. If the whole
//! wheel is empty it jumps straight to the earliest far-future entry.
//! Each entry is touched at most `LEVELS` times total, and slot
//! scans are 4 × `u64` bitmap words per level — no per-slot walk.
//!
//! ## Storage
//!
//! Slot entries live in one arena of nodes shared by all 1,024 slots.
//! Each slot is an intrusive singly linked list: `heads` holds one
//! node index per `(level, slot)`, and each node holds the index of
//! the next node in its slot. Freed nodes go on a free list threaded
//! through the same link. Filing an entry takes a free node and links
//! it at its slot's head; draining a slot walks its list and frees
//! each node before it re-files the entry, so a cascade reuses the
//! nodes it empties. The arena therefore grows with the most entries
//! ever filed at once, not with the sum of every slot's peak, as
//! per-slot buffers that keep their capacity would.
//!
//! A list pops its entries last-in first-out, so a slot holds an
//! unordered set. That never reaches a pop: every drain re-files each
//! entry, and a level-0 drain puts it into `current`, which restores
//! the exact `(time, seq)` order.
//!
//! ## Payload
//!
//! The engine instantiates `TimingWheel<u32>`: the payload is a slot
//! id into one of `sim::EventQueue`'s two event slabs (its top bit
//! names which), so an entry is 24 B, and so is a node with its link.
//! Every dispatch, cascade and drain moves a key, never an event.
//! `turb-bench`'s hold model drives `TimingWheel<()>` (16-B entries,
//! 24-B nodes): like the engine's, a key with no event behind it.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of nanoseconds per tick: 2^17 ns ≈ 131 µs.
const TICK_SHIFT: u32 = 17;
/// Nanoseconds per tick; tests place deadlines with it.
#[cfg(test)]
pub(crate) const TICK_NS: u64 = 1 << TICK_SHIFT;
/// log2 of slots per level.
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Bitmask selecting a slot index within a level.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels; together they span `2^(BITS * LEVELS)` ticks.
const LEVELS: usize = 4;
/// Ticks covered by all wheel levels; beyond this is overflow.
const HORIZON_TICKS: u64 = 1 << (BITS * LEVELS as u32);
/// Nanoseconds covered by all wheel levels; tests place deadlines
/// with it.
#[cfg(test)]
pub(crate) const HORIZON_NS: u64 = HORIZON_TICKS * TICK_NS;
/// u64 words in one level's occupancy bitmap.
const BITMAP_WORDS: usize = SLOTS / 64;
/// The end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// Scheduler-internal diagnostics. These describe the *engine*, not
/// the simulated network, so they are reported alongside telemetry
/// but never folded into the cross-scheduler identity set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Occupied slots drained into the current heap (level 0).
    pub slots_touched: u64,
    /// Occupied higher-level slots re-dispatched downward.
    pub cascades: u64,
    /// Entries that landed in the far-future overflow heap.
    pub overflow_events: u64,
}

/// One scheduled item: the exact `(time, seq)` key plus its payload.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

// Manual impls: ordering ignores the payload entirely. Reversed so
// that `BinaryHeap` (a max-heap) pops the earliest (time, seq) first.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One filed entry in the arena, plus the index of the next node in
/// its slot's list (or in the free list, once freed).
struct Node<T> {
    time: SimTime,
    seq: u64,
    value: T,
    next: u32,
}

/// Deterministic hierarchical timing wheel. See the module docs for
/// the layout and the determinism argument.
pub struct TimingWheel<T> {
    /// The wheel has conceptually advanced to this tick: every slot
    /// entry is strictly after it, everything at or before it is in
    /// `current`. Monotone; only moves when `current` is empty.
    current_tick: u64,
    /// Entries at or before `current_tick`, exact `(time, seq)` order.
    current: BinaryHeap<Entry<T>>,
    /// `LEVELS × SLOTS` list heads into `nodes`, flat-indexed
    /// `level * SLOTS + slot`; `NIL` when the slot is empty.
    heads: Vec<u32>,
    /// Every slot entry, linked into its slot's list; freed nodes are
    /// linked into the free list instead.
    nodes: Vec<Node<T>>,
    /// First node of the free list, or `NIL`.
    free: u32,
    /// Per-level occupancy bitmaps; bit set ⇔ slot non-empty.
    occupied: [[u64; BITMAP_WORDS]; LEVELS],
    /// Entries at least `HORIZON_TICKS` past `current_tick` at insert.
    overflow: BinaryHeap<Entry<T>>,
    /// Total entries across current + slots + overflow.
    len: usize,
    stats: SchedStats,
}

impl<T: Copy> TimingWheel<T> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// `capacity` pre-sizes the current-tick heap and the node arena,
    /// the stand-ins for the old scheduler's pre-sized `BinaryHeap`.
    pub fn with_capacity(capacity: usize) -> Self {
        TimingWheel {
            current_tick: 0,
            current: BinaryHeap::with_capacity(capacity),
            heads: vec![NIL; LEVELS * SLOTS],
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            occupied: [[0u64; BITMAP_WORDS]; LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
            stats: SchedStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Heap bytes reserved for entries: the current-tick heap, the
    /// node arena, the slot heads and the overflow heap. Capacities
    /// never shrink, so this is the wheel's high-water footprint; the
    /// arena's share follows the most entries ever filed at once.
    pub fn memory_bytes(&self) -> usize {
        (self.current.capacity() + self.overflow.capacity()) * std::mem::size_of::<Entry<T>>()
            + self.nodes.capacity() * std::mem::size_of::<Node<T>>()
            + self.heads.capacity() * std::mem::size_of::<u32>()
    }

    fn tick_of(time: SimTime) -> u64 {
        time.as_nanos() >> TICK_SHIFT
    }

    /// Schedule `value` at `(time, seq)`. The caller guarantees `seq`
    /// is unique and that `time` is never before an already-popped
    /// instant. Seqs need not arrive in increasing order: ties within
    /// a tick are ordered by the current-tick heap, whatever the order
    /// they were pushed in.
    pub fn push(&mut self, time: SimTime, seq: u64, value: T) {
        self.len += 1;
        self.dispatch(Entry { time, seq, value });
    }

    /// Earliest pending `(time, seq, value)`, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        while self.current.is_empty() {
            self.advance();
        }
        self.len -= 1;
        self.current.pop().map(|e| (e.time, e.seq, e.value))
    }

    /// Time of the earliest pending entry without removing it. Takes
    /// `&mut self` because it may advance the wheel to surface it.
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        while self.current.is_empty() {
            self.advance();
        }
        self.current.peek().map(|e| e.time)
    }

    /// Route one entry to the current heap, a wheel slot, or overflow.
    /// Does not touch `len` — internal moves reuse it unchanged.
    fn dispatch(&mut self, entry: Entry<T>) {
        let tick = Self::tick_of(entry.time);
        if tick <= self.current_tick {
            self.current.push(entry);
            return;
        }
        let delta = tick - self.current_tick;
        if delta >= HORIZON_TICKS {
            self.stats.overflow_events += 1;
            self.overflow.push(entry);
            return;
        }
        let mut level = 0usize;
        while delta >= 1u64 << (BITS * (level as u32 + 1)) {
            level += 1;
        }
        let slot = ((tick >> (BITS * level as u32)) & SLOT_MASK) as usize;
        self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
        let head = &mut self.heads[level * SLOTS + slot];
        let node = Node {
            time: entry.time,
            seq: entry.seq,
            value: entry.value,
            next: *head,
        };
        *head = if self.free == NIL {
            let id = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&id| id != NIL)
                .expect("over 2^32 - 1 entries filed in the wheel");
            self.nodes.push(node);
            id
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        };
    }

    /// First occupied slot of `level` at index ≥ `from`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let bitmap = &self.occupied[level];
        let mut word = from / 64;
        let mut bits = bitmap[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == BITMAP_WORDS {
                return None;
            }
            bits = bitmap[word];
        }
    }

    fn all_levels_empty(&self) -> bool {
        self.occupied
            .iter()
            .all(|bitmap| bitmap.iter().all(|&w| w == 0))
    }

    /// Move every entry out of `(level, slot)` and re-route it. For
    /// level 0 every entry lands in `current` (its tick equals the
    /// new `current_tick`); for higher levels entries spread across
    /// lower levels and `current`. Each node is freed before its entry
    /// is re-filed, so a cascade re-files into the nodes it empties.
    fn drain_slot(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        let index = level * SLOTS + slot;
        let mut id = std::mem::replace(&mut self.heads[index], NIL);
        while id != NIL {
            let node = &mut self.nodes[id as usize];
            let entry = Entry {
                time: node.time,
                seq: node.seq,
                value: node.value,
            };
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = id;
            id = next;
            self.dispatch(entry);
        }
        // A level-`l` drain dispatches only below level `l`.
        debug_assert!(
            self.heads[index] == NIL,
            "draining level {level} slot {slot} re-filed into it"
        );
    }

    /// Precondition: `current` empty, `len > 0`. Postcondition holds
    /// eventually (the loop runs until `current` is non-empty).
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty() && self.len > 0);
        if self.all_levels_empty() {
            // Everything pending is far-future: jump straight to the
            // earliest overflow tick and sweep in what now fits.
            let target = self
                .overflow
                .peek()
                .map(|e| Self::tick_of(e.time))
                .expect("len > 0 with empty wheel implies overflow entries");
            self.current_tick = target;
            self.sweep_overflow();
            // The earliest entry has tick == current_tick, so it is
            // in `current` now.
            return;
        }
        loop {
            let cursor = (self.current_tick & SLOT_MASK) as usize;
            if let Some(slot) = self.next_occupied(0, cursor + 1) {
                // Jump within the current 256-tick era.
                self.current_tick = (self.current_tick & !SLOT_MASK) | slot as u64;
                self.stats.slots_touched += 1;
                self.drain_slot(0, slot);
                return; // the slot was non-empty ⇒ current is too
            }
            // Era exhausted: jump to the next era boundary where work
            // is filed and cascade every level whose slot boundary
            // lands there. The boundaries jumped over would each have
            // cascaded an empty slot, so this matches a walk.
            let next_era = self.next_boundary();
            self.current_tick = next_era;
            for level in 1..LEVELS {
                if next_era & ((1u64 << (BITS * level as u32)) - 1) != 0 {
                    break;
                }
                let slot = ((next_era >> (BITS * level as u32)) & SLOT_MASK) as usize;
                if self.occupied[level][slot / 64] & (1u64 << (slot % 64)) != 0 {
                    self.stats.cascades += 1;
                    self.drain_slot(level, slot);
                }
            }
            if next_era & (HORIZON_TICKS - 1) == 0 {
                // The wheel's range rolled over; far-future entries
                // may fit now.
                self.sweep_overflow();
            }
            // Entries exactly at the boundary tick were filed in
            // level 0 slot 0 (delta < 256 at insert) — cascaded ones
            // went straight to `current` above.
            if self.occupied[0][0] & 1 != 0 {
                self.stats.slots_touched += 1;
                self.drain_slot(0, 0);
            }
            if !self.current.is_empty() {
                return;
            }
        }
    }

    /// The first era boundary after `current_tick` at which `advance`
    /// has work: the next era when level 0 holds entries (all of them
    /// lie in it), else the earliest boundary of an occupied slot in a
    /// higher level, or the horizon rollover while overflow entries
    /// wait. An entry in level `l` slot `s` is filed less than
    /// `256^(l+1)` ticks ahead, so its boundary is the first
    /// `256^l`-aligned tick past `current_tick` with level index `s`.
    fn next_boundary(&self) -> u64 {
        let next_era = (self.current_tick | SLOT_MASK) + 1;
        if self.occupied[0].iter().any(|&w| w != 0) {
            return next_era;
        }
        let mut best = if self.overflow.is_empty() {
            u64::MAX
        } else {
            (self.current_tick | (HORIZON_TICKS - 1)) + 1
        };
        for level in 1..LEVELS {
            let shift = BITS * level as u32;
            let cursor = ((self.current_tick >> shift) & SLOT_MASK) as usize;
            let round = self.current_tick >> (shift + BITS) << (shift + BITS);
            let boundary = match self.next_occupied(level, cursor + 1) {
                Some(slot) => round | (slot as u64) << shift,
                // Every occupied slot at or before the cursor belongs
                // to the next round of this level.
                None => match self.next_occupied(level, 0) {
                    Some(slot) => round + (1u64 << (shift + BITS)) + ((slot as u64) << shift),
                    None => continue,
                },
            };
            best = best.min(boundary);
        }
        // Monotone: a boundary at or before the cursor would re-cascade
        // slots out of turn and change `SchedStats::cascades`.
        debug_assert!(
            best != u64::MAX && best > self.current_tick,
            "no boundary past the cursor"
        );
        best
    }

    /// Re-dispatch overflow entries that now fall inside the horizon.
    fn sweep_overflow(&mut self) {
        while let Some(head) = self.overflow.peek() {
            let tick = Self::tick_of(head.time);
            if tick > self.current_tick && tick - self.current_tick >= HORIZON_TICKS {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            self.dispatch(entry);
        }
    }
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(wheel: &mut TimingWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = wheel.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    /// Reference order: exactly what `BinaryHeap<Scheduled>` produced.
    fn heap_order(mut items: Vec<(u64, u64, u32)>) -> Vec<(u64, u64, u32)> {
        items.sort_by_key(|&(t, s, _)| (t, s));
        items
    }

    #[test]
    fn same_tick_fifo_ordering() {
        // Several events inside one tick, pushed out of seq order:
        // pops must follow (time, seq) exactly, like the heap.
        let mut wheel = TimingWheel::new();
        let base = 100 * TICK_NS;
        let items = [
            (base + 5, 3u64, 0u32),
            (base + 5, 1, 1),
            (base, 2, 2),
            (base + 7, 0, 3),
            (base, 4, 4),
        ];
        for &(t, s, v) in &items {
            wheel.push(SimTime(t), s, v);
        }
        assert_eq!(wheel.len(), 5);
        assert_eq!(drain(&mut wheel), heap_order(items.to_vec()));
    }

    #[test]
    fn slot_zero_and_era_boundaries_cascade_correctly() {
        // Entries sitting exactly on 256-tick era boundaries (slot 0
        // of level 0) and just before/after them.
        let mut wheel = TimingWheel::new();
        let mut items = Vec::new();
        let mut seq = 0u64;
        for era in [1u64, 2, 3] {
            for offset in [-1i64, 0, 1] {
                let tick = (era * 256) as i64 + offset;
                let t = tick as u64 * TICK_NS;
                items.push((t, seq, seq as u32));
                seq += 1;
            }
        }
        for &(t, s, v) in &items {
            wheel.push(SimTime(t), s, v);
        }
        assert_eq!(drain(&mut wheel), heap_order(items));
    }

    #[test]
    fn exact_horizon_goes_to_overflow_and_comes_back() {
        let mut wheel = TimingWheel::new();
        // delta == HORIZON_TICKS must overflow; one tick less fits in
        // the top level.
        let inside = (HORIZON_TICKS - 1) * TICK_NS;
        let at_horizon = HORIZON_NS;
        wheel.push(SimTime(at_horizon), 0, 0);
        wheel.push(SimTime(inside), 1, 1);
        assert_eq!(wheel.stats().overflow_events, 1);
        assert_eq!(drain(&mut wheel), vec![(inside, 1, 1), (at_horizon, 0, 0)]);
    }

    #[test]
    fn far_future_overflow_pops_in_order() {
        let mut wheel = TimingWheel::new();
        let far = 3 * HORIZON_NS + 12_345;
        let farther = 7 * HORIZON_NS;
        let near = 2 * TICK_NS;
        wheel.push(SimTime(farther), 0, 0);
        wheel.push(SimTime(far), 1, 1);
        wheel.push(SimTime(near), 2, 2);
        assert_eq!(wheel.stats().overflow_events, 2);
        assert_eq!(
            drain(&mut wheel),
            vec![(near, 2, 2), (far, 1, 1), (farther, 0, 0)]
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn double_insert_at_the_horizon_boundary_keeps_heap_order() {
        // Two events beyond the 4-level horizon at the *same* instant,
        // landing exactly on the horizon-aligned tick boundary. Both
        // take the overflow heap; the (time, seq) tie must break the
        // same way the reference heap breaks it, on both paths that
        // bring overflow entries back:
        //
        // 1. The empty-wheel jump (`advance` with all levels empty).
        let boundary = HORIZON_NS;
        for flip in [false, true] {
            let mut wheel = TimingWheel::new();
            let mut items = vec![(boundary, 0u64, 0u32), (boundary, 1, 1)];
            if flip {
                items.reverse();
            }
            for &(t, s, v) in &items {
                wheel.push(SimTime(t), s, v);
            }
            assert_eq!(wheel.stats().overflow_events, 2);
            assert_eq!(drain(&mut wheel), heap_order(items), "flip = {flip}");
        }

        // 2. The era-rollover sweep: the wheel advances (levels still
        //    occupied) to a horizon-aligned boundary and sweeps the
        //    pair back in there.
        let mut wheel = TimingWheel::new();
        let mut items = Vec::new();
        // Seed entry moves current_tick off zero so later pushes can
        // file wheel entries beyond the first horizon multiple.
        items.push((300 * TICK_NS, 0u64, 0u32));
        wheel.push(SimTime(300 * TICK_NS), 0, 0);
        assert_eq!(wheel.pop(), Some((SimTime(300 * TICK_NS), 0, 0)));
        // A wheel-resident entry past the boundary keeps the levels
        // occupied, forcing the era advance (not the empty-wheel
        // jump) onto it...
        let in_wheel = (HORIZON_TICKS + 100) * TICK_NS;
        // ...while the duplicate-time pair sits exactly one horizon
        // away from current_tick: delta == HORIZON_TICKS overflows.
        let pair_at = (HORIZON_TICKS + 300) * TICK_NS;
        let tail = [(in_wheel, 1u64, 1u32), (pair_at, 2, 2), (pair_at, 3, 3)];
        for &(t, s, v) in &tail {
            wheel.push(SimTime(t), s, v);
        }
        items.extend_from_slice(&tail);
        assert_eq!(wheel.stats().overflow_events, 2);
        let mut expected = heap_order(items);
        expected.remove(0); // the seed was already popped
        assert_eq!(drain(&mut wheel), expected);

        // Degenerate duplicate: the engine guarantees unique seqs, but
        // a literal (time, seq) collision at the boundary must still
        // surface both entries with the right key.
        let mut wheel = TimingWheel::new();
        wheel.push(SimTime(boundary), 7, 10u32);
        wheel.push(SimTime(boundary), 7, 11);
        let popped = drain(&mut wheel);
        assert_eq!(popped.len(), 2);
        for &(t, s, _) in &popped {
            assert_eq!((t, s), (boundary, 7));
        }
        let mut values: Vec<u32> = popped.iter().map(|&(_, _, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![10, 11]);
    }

    #[test]
    fn interleaved_push_pop_preserves_heap_order() {
        // Mimic the simulator: pop one event, schedule a few more
        // relative to it, repeat. Compare against a real BinaryHeap.
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Entry<u32>> = BinaryHeap::new();
        let mut rng = SimRng::new(99);
        let mut seq = 0u64;
        fn push_both(
            wheel: &mut TimingWheel<u32>,
            heap: &mut BinaryHeap<Entry<u32>>,
            t: u64,
            seq: &mut u64,
        ) {
            let v = *seq as u32;
            wheel.push(SimTime(t), *seq, v);
            heap.push(Entry {
                time: SimTime(t),
                seq: *seq,
                value: v,
            });
            *seq += 1;
        }
        for t in [0u64, 1, TICK_NS, 5 * TICK_NS] {
            push_both(&mut wheel, &mut heap, t, &mut seq);
        }
        for _ in 0..2_000 {
            let from_wheel = wheel.pop();
            let from_heap = heap.pop().map(|e| (e.time, e.seq, e.value));
            assert_eq!(from_wheel, from_heap);
            let Some((now, _, _)) = from_wheel else {
                break;
            };
            // Schedule 0-2 follow-ups at assorted distances, from
            // sub-tick to beyond the horizon.
            for _ in 0..rng.index(3) {
                let jump = match rng.index(5) {
                    0 => rng.range_u64(0, TICK_NS),
                    1 => rng.range_u64(0, 256 * TICK_NS),
                    2 => rng.range_u64(0, 65_536 * TICK_NS),
                    3 => rng.range_u64(0, HORIZON_NS / 8),
                    _ => HORIZON_NS + rng.range_u64(0, TICK_NS * 1_000),
                };
                push_both(&mut wheel, &mut heap, now.as_nanos() + jump, &mut seq);
            }
        }
        assert_eq!(wheel.len(), heap.len());
        while let Some(e) = heap.pop() {
            assert_eq!(wheel.pop(), Some((e.time, e.seq, e.value)));
        }
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn lone_deep_entries_jump_and_cascade_once_per_level() {
        // A lone entry deep in level 3, up to ~2^32 ticks out: the
        // wheel must jump to its boundaries instead of stepping up to
        // 2^24 eras, and still cascade it once per level whose digit
        // of its tick is set (level 3 always; 2 and 1 when non-zero).
        for (l3, l2, l1, l0, cascades) in [
            (200u64, 123u64, 45u64, 7u64, 3u64),
            (255, 0, 0, 0, 1),
            (255, 0, 9, 0, 2),
            (1, 255, 255, 255, 3),
        ] {
            let mut wheel = TimingWheel::new();
            let t = (l3 << 24 | l2 << 16 | l1 << 8 | l0) * TICK_NS + 3;
            wheel.push(SimTime(t), 0, 0u32);
            assert_eq!(wheel.pop(), Some((SimTime(t), 0, 0)));
            assert_eq!(
                wheel.stats().cascades,
                cascades,
                "tick digits {l3} {l2} {l1} {l0}"
            );
        }
    }

    #[test]
    fn jump_stops_at_the_horizon_rollover_for_overflow() {
        // An overflow entry filed early can be due before the boundary
        // of a level-3 entry filed later. The jump past the horizon
        // rollover must stop there to sweep it in, or it pops late.
        let mut wheel = TimingWheel::new();
        let at = |tick: u64| SimTime(tick * TICK_NS);
        wheel.push(at(300), 0, 0u32);
        assert_eq!(wheel.pop(), Some((at(300), 0, 0)));
        let overflowed = at(HORIZON_TICKS + 300);
        wheel.push(overflowed, 1, 1);
        assert_eq!(wheel.stats().overflow_events, 1);
        wheel.push(at(1 << 25), 2, 2);
        assert_eq!(wheel.pop(), Some((at(1 << 25), 2, 2)));
        // Level 3, slot 1 of the next round: its boundary is past the
        // rollover, and past the overflow entry.
        let late = at((1 << 25) + HORIZON_TICKS - 1);
        wheel.push(late, 3, 3);
        assert_eq!(
            drain(&mut wheel),
            vec![(overflowed.as_nanos(), 1, 1), (late.as_nanos(), 3, 3)]
        );
    }

    #[test]
    fn memory_follows_what_is_pending() {
        // K entries pending at once, all in one slot: filed in level 3,
        // then cascaded through levels 2, 1 and 0 into `current`. Each
        // round files them in a different slot of every level. Buffers
        // that kept each slot's peak would end up holding K entries in
        // hundreds of slots; the arena holds K nodes.
        const K: usize = 32;
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let bound = wheel.memory_bytes() + 4 * K * std::mem::size_of::<Node<u32>>();
        let mut seq = 0u64;
        for round in 0..100u64 {
            // Level 3 digit 2r+2, so the gap from the last round's
            // target is over 2^24 ticks; the lower digits are non-zero,
            // so every level below cascades it too.
            let digit = |mult: u64| (round * mult) % 255 + 1;
            let tick = (2 * round + 2) << 24 | digit(37) << 16 | digit(91) << 8 | digit(13);
            let at = SimTime(tick * TICK_NS + round);
            for _ in 0..K {
                wheel.push(at, seq, seq as u32);
                seq += 1;
            }
            let cascades = wheel.stats().cascades;
            for k in (0..K as u64).rev() {
                assert_eq!(wheel.pop(), Some((at, seq - 1 - k, (seq - 1 - k) as u32)));
                assert!(
                    wheel.memory_bytes() <= bound,
                    "round {round}: {} B for {K} pending entries",
                    wheel.memory_bytes()
                );
            }
            assert_eq!(wheel.stats().cascades - cascades, 3, "round {round}");
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_time_matches_pop_and_len_tracks() {
        let mut wheel = TimingWheel::new();
        assert_eq!(wheel.next_time(), None);
        wheel.push(SimTime(500 * TICK_NS), 0, 7u32);
        wheel.push(SimTime(3), 1, 8);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.next_time(), Some(SimTime(3)));
        assert_eq!(wheel.pop(), Some((SimTime(3), 1, 8)));
        assert_eq!(wheel.next_time(), Some(SimTime(500 * TICK_NS)));
        assert_eq!(wheel.len(), 1);
        assert!(wheel.stats().slots_touched > 0);
    }
}
