//! Exact allocation counts of a pair run and a fleet run.
//!
//! This binary installs a counting global allocator whose counters are
//! thread-local, so the tests running beside each pin do not leak into
//! its numbers. Counts depend only on what the program allocates, not
//! on the host, so the pins carry no tolerance: a rise fails, and a
//! fall is printed so the change that caused it can lower the pin.
//! Each pin is read on a second, warmed run: the first run also pays
//! one-time initialisation (thread-local keys and the like).
//!
//! `alloc`, `alloc_zeroed` and `realloc` each count as one allocation;
//! bytes are the sizes requested (the new size, for `realloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use turbulence::runner::corpus_configs;
use turbulence::{run_fleet, run_pair, FleetRunConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised `Cell`s with no destructor, so touching them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes `f` makes on this thread, results dropped.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    drop(f());
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Run `f` twice and hold the second run's counts to the pins.
fn assert_pinned<R>(what: &str, pin: (u64, u64), f: impl Fn() -> R) {
    counted(&f);
    let got = counted(&f);
    assert!(
        got.0 <= pin.0 && got.1 <= pin.1,
        "{what}: allocations rose: {} allocations / {} B, pinned {} / {}",
        got.0,
        got.1,
        pin.0,
        pin.1
    );
    if got != pin {
        println!(
            "{what}: allocations fell to {} / {} B from the pinned {} / {}; lower the pin",
            got.0, got.1, pin.0, pin.1
        );
    }
}

#[test]
fn pair_run_allocations_are_pinned() {
    let config = corpus_configs(42).remove(0);
    assert_pinned(
        "run_pair(corpus_configs(42)[0])",
        (30_549, 42_546_237),
        || run_pair(&config),
    );
}

#[test]
fn pair_run_allocations_are_pinned_at_seed_7() {
    let config = corpus_configs(7).remove(0);
    assert_pinned(
        "run_pair(corpus_configs(7)[0])",
        (30_337, 42_538_996),
        || run_pair(&config),
    );
}

#[test]
fn fleet_run_allocations_are_pinned() {
    let config = FleetRunConfig {
        sessions: 10_000,
        ..FleetRunConfig::new(42)
    };
    assert_pinned(
        "10k-session run_fleet at seed 42",
        (11_648, 8_366_308),
        || run_fleet(&config),
    );
}

#[test]
fn fleet_run_allocations_are_pinned_at_seed_7() {
    let config = FleetRunConfig {
        sessions: 10_000,
        ..FleetRunConfig::new(7)
    };
    assert_pinned(
        "10k-session run_fleet at seed 7",
        (11_572, 8_379_946),
        || run_fleet(&config),
    );
}
