//! Heap allocations of a recorded trace's JSON. The paper job renders the
//! fig 4/5 timelines (thousands of samples) as one document, so what one
//! sample's object allocates is what that document grows by per sample.
//! Object keys written by `impl_to_json!` are borrowed from the binary, so
//! a sample allocates only its field vector and its two per-cluster
//! arrays.
//!
//! The counts are exact for this code: a change that moves one is either
//! a regression or an intended change that re-records it here.

use pv_json::{Json, ToJson};
use pv_soc::catalog;
use pv_soc::device::{CpuDemand, FrequencyMode};
use pv_soc::trace::{Trace, TraceSample};
use pv_units::Seconds;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

/// Pass-through allocator counting, per thread, the allocations made, so
/// tests on other threads of the test runner do not disturb the counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// destructor-free thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by `f` on this thread, with what `f` returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

/// One busy step of a two-cluster Pixel, as a trace sample.
fn pixel_sample() -> TraceSample {
    let mut device = catalog::pixel(0.5, "pixel-00001").unwrap();
    let report = device
        .step(
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        )
        .unwrap();
    let sample = report.to_sample(Seconds(0.1));
    assert_eq!(sample.cluster_freqs.len(), 2, "a Pixel has two clusters");
    sample
}

#[test]
fn a_sample_allocates_only_its_values() {
    // The ten-entry field vector and the two per-cluster arrays
    // (frequencies, active cores); no key is allocated.
    let sample = pixel_sample();
    let (_, allocs) = allocations(|| sample.to_json());
    assert_eq!(allocs, 3, "allocations of one Pixel sample's JSON");
}

#[test]
fn a_trace_allocates_three_per_sample() {
    // Beyond its samples, a trace's object holds its one-entry field
    // vector and the samples array.
    let sample = pixel_sample();
    for k in [1, 2, 10] {
        let trace: Trace = std::iter::repeat_n(sample.clone(), k).collect();
        let (_, allocs) = allocations(|| trace.to_json());
        assert_eq!(
            allocs,
            2 + 3 * k as u64,
            "allocations of a {k}-sample trace"
        );
    }
}

#[test]
fn a_parsed_document_owns_its_keys_and_equals_the_built_one() {
    let trace: Trace = std::iter::repeat_n(pixel_sample(), 3).collect();
    let built = trace.to_json();
    let parsed = Json::from_str(&built.to_string_compact()).unwrap();
    assert_eq!(parsed, built);

    let keys = |doc: &Json| -> Vec<bool> {
        let Json::Object(entries) = &doc["samples"][0] else {
            panic!("a sample is not an object");
        };
        entries
            .iter()
            .map(|(k, _)| matches!(k, Cow::Borrowed(_)))
            .collect()
    };
    assert!(keys(&built).iter().all(|&borrowed| borrowed));
    assert!(keys(&parsed).iter().all(|&borrowed| !borrowed));
    assert_eq!(keys(&parsed).len(), 10);
}
