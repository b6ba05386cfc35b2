//! Allocation tests for fault reporting: a fault window that perturbs
//! every step logs one report, and the steps after that first report must
//! not touch the heap — the report's description is built only when the
//! report is fresh. The fast path's power table is held to the same rule:
//! allocated once, then filled, evicted and cleared in place.

use pv_faults::{FaultEvent, FaultHandle, FaultKind, FaultPlan};
use pv_power::meter::FaultyMeter;
use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Dut, FrequencyMode, StepReport};
use pv_soc::faulty::FaultyDevice;
use pv_thermal::network::Integrator;
use pv_units::{Seconds, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator counting allocations per thread, so tests on
/// other threads of the test runner do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// destructor-free thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A handle armed with one long window of `kind` starting at `at`.
fn window(kind: FaultKind, at: f64) -> FaultHandle {
    FaultHandle::armed(FaultPlan::empty().with_event(FaultEvent {
        at,
        duration: 1_000.0,
        kind,
        magnitude: 0.05,
    }))
}

#[test]
fn throttle_glitch_steps_after_the_first_report_allocate_nothing() {
    const DT: f64 = 0.1;
    let handle = window(FaultKind::ThrottleGlitch, 200.0);
    let device = catalog::pixel(0.5, "pixel-alloc").unwrap();
    let mut dut = FaultyDevice::new(device, handle.clone());
    let mut report = StepReport::empty();
    let mut step = |dut: &mut FaultyDevice| {
        dut.step_into(
            Seconds(DT),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
            &mut report,
        )
        .unwrap();
        handle.advance(DT);
    };
    // Warm the device's own buffers and caches, then step into the
    // window: that step reports.
    while handle.now() < 200.0 {
        step(&mut dut);
    }
    step(&mut dut);
    assert_eq!(handle.report_count(), 1, "the window's first step reports");

    let before = allocs();
    for _ in 0..500 {
        step(&mut dut);
    }
    assert_eq!(allocs() - before, 0, "steps inside the window allocated");
    assert_eq!(handle.report_count(), 1, "one report per window");
}

#[test]
fn meter_gain_drift_records_after_the_first_report_allocate_nothing() {
    const DT: f64 = 0.1;
    let handle = window(FaultKind::MeterGainDrift, 0.0);
    let mut meter = FaultyMeter::new(handle.clone());
    meter.record(Watts(2.0), Seconds(DT)).unwrap();
    handle.advance(DT);
    assert_eq!(
        handle.report_count(),
        1,
        "the window's first sample reports"
    );

    let before = allocs();
    for _ in 0..1_000 {
        meter.record(Watts(2.0), Seconds(DT)).unwrap();
        handle.advance(DT);
    }
    assert_eq!(allocs() - before, 0, "samples inside the window allocated");
    assert_eq!(handle.report_count(), 1, "one report per window");
}

#[test]
fn fast_path_steps_after_the_first_allocate_nothing() {
    let mut device = catalog::pixel(0.5, "pixel-table-alloc").unwrap();
    device.set_integrator(Integrator::Exponential);
    let mut report = StepReport::empty();
    // One dt throughout, so the network needs only the propagator the
    // first step builds.
    let dt = Seconds(0.1);
    device
        .step_into(
            dt,
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
            &mut report,
        )
        .unwrap();

    let before = allocs();
    // Steps that start in a temperature bin other than the last step's.
    let (mut last_bin, mut new_bins) = (i64::MIN, 0);
    for step in 0..5_000 {
        // Two re-pins empty the table mid-run, as every harness iteration
        // does.
        if step == 2_500 || step == 4_000 {
            device.set_integrator(Integrator::Exponential);
        }
        // A cold busy ramp (a new temperature bin, so a miss, on most
        // steps), an idle stretch, then busy again.
        let demand = if (2_000..3_500).contains(&step) {
            CpuDemand::Idle
        } else {
            CpuDemand::busy()
        };
        let bin = (device.die_temp().value() * 10.0).round() as i64;
        new_bins += usize::from(bin != last_bin);
        last_bin = bin;
        device
            .step_into(dt, demand, FrequencyMode::Unconstrained, &mut report)
            .unwrap();
    }
    assert_eq!(allocs() - before, 0, "fast-path steps allocated");
    assert!(
        new_bins > 500,
        "only {new_bins} step(s) started in a new temperature bin"
    );
}
