//! Heap footprint of a simulated unit. A fleet holds one device per unit,
//! so what a unit allocates is what a sweep's resident set grows by per
//! device. Everything a model's units share — the spec, the nominal RBCPR
//! ladders, the thermal topology — is built once per model, so building or
//! cloning a unit allocates only the unit's own state.
//!
//! The counts are exact for this code: a change that moves one is either
//! a regression or an intended change that re-records it here.

use pv_power::Monsoon;
use pv_silicon::binning::BinId;
use pv_silicon::DieSample;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Watts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator counting, per thread, the allocations made and
/// the bytes still live, so tests on other threads of the test runner do
/// not disturb the counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// destructor-free thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made, and heap bytes still live, by `f` on this
/// thread, with what `f` returns.
fn footprint<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let value = f();
    (
        value,
        ALLOCS.with(Cell::get) - allocs,
        LIVE.with(Cell::get) - live,
    )
}

/// (allocations, live bytes) of building one unit with `build` and of
/// cloning it. A first unit is built beforehand, so the model the catalog
/// shares is already in place.
fn unit_footprint(build: impl Fn() -> Device) -> [(u64, i64); 2] {
    drop(build());
    let (device, build_allocs, build_bytes) = footprint(&build);
    let (copy, clone_allocs, clone_bytes) = footprint(|| device.clone());
    assert!(
        std::ptr::eq(device.spec(), copy.spec()),
        "a clone copied the spec"
    );
    [(build_allocs, build_bytes), (clone_allocs, clone_bytes)]
}

#[test]
fn a_pixel_owns_only_its_state() {
    // The 11-byte label, the 24-byte Monsoon, and the network's
    // temperatures, heat vector and derivative buffer (4 nodes × 8 bytes
    // each).
    let [build, clone] = unit_footprint(|| catalog::pixel(0.5, "pixel-00001").unwrap());
    assert_eq!(build, (5, 131), "building a Pixel (allocations, bytes)");
    assert_eq!(clone, (5, 131), "cloning a Pixel (allocations, bytes)");
}

#[test]
fn a_nexus5_owns_only_its_state_and_its_binned_table() {
    // As a Pixel, plus the one-cluster table binned from the die: the
    // outer vector and the table's points. Its `format!`ed label has 3
    // spare bytes its clone does not.
    let [build, clone] = unit_footprint(|| catalog::nexus5(BinId(2)).unwrap());
    assert_eq!(build, (7, 232), "building a Nexus 5 (allocations, bytes)");
    assert_eq!(clone, (7, 229), "cloning a Nexus 5 (allocations, bytes)");
}

#[test]
fn units_of_one_model_share_one_spec() {
    let a = catalog::pixel(0.24, "device-488").unwrap();
    let b = catalog::pixel(0.76, "device-653").unwrap();
    assert!(std::ptr::eq(a.spec(), b.spec()));
    let fleet = catalog::fleet::pixel_study().unwrap();
    assert!(fleet.iter().all(|d| std::ptr::eq(d.spec(), a.spec())));
    // Two models never share.
    let n5 = catalog::nexus5(BinId(0)).unwrap();
    assert!(!std::ptr::eq(n5.spec(), a.spec()));
}

#[test]
fn a_modified_spec_neither_shares_nor_alters_the_catalog_model() {
    let shared = catalog::nexus5(BinId(1)).unwrap();
    let mut spec = catalog::nexus5_spec().unwrap();
    spec.idle_power = Watts(0.5);
    let die = DieSample::from_grade(spec.soc.node, 0.5).unwrap();
    let supply = Box::new(Monsoon::new(spec.nominal_battery_voltage).unwrap());
    let ablated = Device::new(spec, die, supply, "ablated", 1).unwrap();

    assert!(!std::ptr::eq(ablated.spec(), shared.spec()));
    assert_eq!(ablated.spec().idle_power, Watts(0.5));
    let after = catalog::nexus5(BinId(1)).unwrap();
    assert!(std::ptr::eq(after.spec(), shared.spec()));
    assert_eq!(*after.spec(), catalog::nexus5_spec().unwrap());
}
