//! Heap gate for `sampling::select` at census scale: drawing 512 of 10⁶
//! units may cost memory in proportion to the population only where the
//! design needs it (the stratified members buffer, RSS's bitmap), and the
//! returned `Selection` holds the sample, not the population.
//!
//! The counts are exact for this fixed input. Everything runs in one test
//! function, so no other test thread allocates while it counts.

use pv_stats::sampling::{select, Selection, Strategy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator tracking live bytes and their peak.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the move's worst case: old and new blocks both live.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `select` and returns its peak extra heap and the bytes the
/// returned selection still holds, both over the live bytes before it.
fn measure(strategy: Strategy, aux: &[f64]) -> (usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let selection: Selection = select(strategy, aux, 512, 7, 3).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let held = LIVE.load(Ordering::Relaxed) - base;
    assert_eq!(selection.indices.len(), 512, "{strategy:?}");
    drop(selection);
    (peak, held)
}

#[test]
fn selecting_512_of_a_million_costs_memory_in_proportion_to_the_sample() {
    const POPULATION: usize = 1_000_000;
    const MB: usize = 1_000_000;
    // The 8 MB of grades exist before counting starts: they are the
    // caller's, not the selection's.
    let aux: Vec<f64> = (0..POPULATION)
        .map(|i| 0.05 + 0.9 * i as f64 / (POPULATION - 1) as f64)
        .collect();
    let limits = [
        (Strategy::Stratified, 8 * MB),
        (Strategy::Srs, 3 * MB / 2),
        (Strategy::Rss, 3 * MB / 2),
    ];
    for (strategy, peak_limit) in limits {
        let (peak, held) = measure(strategy, &aux);
        eprintln!("{strategy:?}: peak extra heap {peak} B, selection holds {held} B");
        assert!(
            peak <= peak_limit,
            "{strategy:?}: select peaked at {peak} B over its input (limit {peak_limit} B)"
        );
        assert!(
            held <= 64 * 1024,
            "{strategy:?}: the selection holds {held} B (limit 64 KiB)"
        );
    }
}
