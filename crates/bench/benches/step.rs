//! Per-device step throughput: Euler / RK4 reference vs the exponential
//! fast path.
//!
//! Three measurements per integrator, written to `BENCH_step.json` in
//! the `pv-bench-report/v1` schema for `benchdiff`'s regression gate:
//!
//! * **thermal step-rate** — `ThermalNetwork::step` throughput on the
//!   catalog Pixel RC topology at the protocol's busy cadence. The
//!   derived `thermal_speedup_exp_vs_rk4` metric is the one the ≥ 5×
//!   floor reads: the exponential propagator replaces RK4's four
//!   derivative sweeps with one dense mat-vec pair;
//! * a **raw device-step loop** on one Pixel (`ns/step`), with a
//!   counting global allocator snapshotted around the measured region —
//!   steady-state stepping must make **zero** heap allocations once
//!   caches are warm, recorded as the `steady_state_allocs_zero` check;
//! * **full sessions** at *default protocol settings* (3 min warmup,
//!   cooldown, 5 min workload) through the real harness, one timed
//!   sample per session. The session ratio is reported honestly: probe
//!   sampling, battery accounting and throttle bookkeeping are
//!   integrator-independent, so the end-to-end ratio is smaller than
//!   the thermal step-rate ratio (Amdahl; see DESIGN.md §11).
//!
//! Sampling discipline (DESIGN.md §14): iteration counts are **pinned**
//! (`--steps` per sample; one session per sample), each loop takes
//! `--samples` timed samples on clean state (fresh device per sample
//! for the raw loop), and every metric carries robust p50/p90/MAD
//! statistics with a `noisy` relative-spread guardrail — min-of-N
//! best-case numbers are gone.
//!
//! Samples are collected in **interleaved rounds** (round *i* times
//! euler, then rk4, then exponential) rather than one contiguous block
//! per integrator. A multi-second host slowdown therefore lands on all
//! integrators instead of silently biasing whichever one owned that
//! window, and each integrator's samples span the whole run so the
//! reported spread honestly includes host drift. Speedup ratios are
//! computed **per round** (rk4ᵢ/expᵢ) and summarised with the same
//! robust statistics: common-mode drift cancels in the per-round
//! quotient, giving ratios a real spread estimate instead of a
//! propagated guess.
//!
//! ```text
//! cargo bench -p pv-bench --bench step -- --steps 200000
//! ```
//!
//! Flags: `--steps N` (pinned iterations per raw/thermal sample,
//! default 200000), `--samples N` (timed samples per loop, default 10),
//! `--sessions N` (session samples, default 60), `--out PATH` (default
//! `BENCH_step.json`), `--test` (libtest smoke mode: short loops so
//! `cargo bench -- --test` stays fast).

use accubench::harness::{Ambient, Harness};
use accubench::protocol::Protocol;
use pv_bench::report::{BenchReport, Check, Metric};
use pv_bench::stats::{robust, RobustStats, DEFAULT_NOISE_THRESHOLD};
use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Device, FrequencyMode, StepReport};
use pv_thermal::network::{Integrator, NodeId, ThermalNetwork, ThermalNetworkBuilder};
use pv_units::{Celsius, Seconds, ThermalCapacitance, ThermalResistance, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pass-through allocator that counts every allocation, so the bench can
/// prove the fast path's steady state touches the heap zero times.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const INTEGRATORS: [Integrator; 3] = [Integrator::Euler, Integrator::Rk4, Integrator::Exponential];

struct Options {
    steps: usize,
    samples: usize,
    sessions: usize,
    out: String,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cargo bench -p pv-bench --bench step -- \
         [--steps N] [--samples N] [--sessions N] [--out PATH] [--test]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        steps: 200_000,
        samples: 10,
        sessions: 60,
        out: "BENCH_step.json".to_owned(),
        smoke: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--steps" => {
                i += 1;
                opts.steps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--samples" => {
                i += 1;
                opts.samples = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--sessions" => {
                i += 1;
                opts.sessions = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                opts.out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            // `cargo bench -- --test` forwards libtest smoke flags to
            // every bench binary; shrink to a sanity-check run. (`--bench`
            // itself is cargo's routine marker — not smoke mode.)
            "--test" => opts.smoke = true,
            "--bench" => {}
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            // Ignore bare libtest filter strings.
            _ => {}
        }
        i += 1;
    }
    if opts.smoke {
        opts.steps = opts.steps.min(2_000);
        opts.samples = opts.samples.min(3);
        opts.sessions = opts.sessions.min(4);
    }
    opts
}

fn device() -> Device {
    catalog::pixel(0.5, "pixel-step-bench").unwrap()
}

/// The catalog Pixel RC topology (die/package/case chain to an ambient
/// boundary), built standalone so the thermal step-rate is measured on
/// exactly the network every Pixel device steps.
fn pixel_network(integrator: Integrator) -> (ThermalNetwork, NodeId) {
    let mut b = ThermalNetworkBuilder::new();
    let die = b
        .add_node("die", ThermalCapacitance(2.4), Celsius(26.0))
        .unwrap();
    let pkg = b
        .add_node("package", ThermalCapacitance(6.8), Celsius(26.0))
        .unwrap();
    let case = b
        .add_node("case", ThermalCapacitance(4.0), Celsius(26.0))
        .unwrap();
    let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
    b.connect(die, pkg, ThermalResistance(3.0)).unwrap();
    b.connect(pkg, case, ThermalResistance(2.8)).unwrap();
    b.connect(case, amb, ThermalResistance(9.0)).unwrap();
    let mut network = b.build().unwrap();
    network.set_integrator(integrator);
    (network, die)
}

/// One interleaved measurement: per-integrator sample vectors (in
/// [`INTEGRATORS`] order, round-major — `samples[k][i]` is integrator
/// `k`'s round-`i` sample) plus the allocations seen inside the timed
/// regions.
struct InterleavedRun {
    samples: [Vec<f64>; 3],
    allocs: u64,
}

/// Thermal step-rate: `ThermalNetwork::step` alone on the Pixel topology
/// at the busy cadence, heat held constant. One persistent network per
/// integrator, each warmed 500 steps to settle the propagator cache;
/// every round then times `steps` pinned iterations on each network in
/// turn.
fn thermal_interleaved(steps: usize, samples: usize) -> InterleavedRun {
    let dt = Seconds(0.1);
    let mut networks: Vec<(ThermalNetwork, NodeId)> =
        INTEGRATORS.iter().map(|&i| pixel_network(i)).collect();
    for (network, die) in &mut networks {
        let heat = [(*die, Watts(2.5))];
        for _ in 0..500 {
            network.step(dt, &heat).unwrap();
        }
    }
    // Reserve sample storage BEFORE the allocator snapshot — the vectors
    // themselves must not count against the zero-alloc budget.
    let mut out: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(samples));
    let before = alloc_count();
    for _ in 0..samples {
        for (k, (network, die)) in networks.iter_mut().enumerate() {
            let heat = [(*die, Watts(2.5))];
            let start = Instant::now();
            for _ in 0..steps {
                network.step(dt, &heat).unwrap();
            }
            out[k].push(start.elapsed().as_secs_f64() * 1e9 / steps as f64);
        }
    }
    let allocs = alloc_count() - before;
    for (network, die) in &networks {
        std::hint::black_box(network.temperature(*die));
    }
    InterleavedRun {
        samples: out,
        allocs,
    }
}

/// Busy-steps one device `steps` times per sample at the protocol's busy
/// cadence. Clean state per sample: a fresh device (so the battery never
/// drains across samples) warmed 500 steps to settle the
/// propagator/OPP/power caches; the allocator is read only around the
/// timed loop. Each round times all three integrators back to back.
fn raw_interleaved(steps: usize, samples: usize) -> InterleavedRun {
    let dt = Seconds(0.1);
    let demand = CpuDemand::busy();
    let mode = FrequencyMode::Unconstrained;
    let mut out: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(samples));
    let mut allocs = 0;
    for _ in 0..samples {
        for (k, &integrator) in INTEGRATORS.iter().enumerate() {
            let mut d = device();
            d.set_integrator(integrator);
            let mut report = StepReport::empty();
            for _ in 0..500 {
                d.step_into(dt, demand, mode, &mut report).unwrap();
            }
            let before = alloc_count();
            let start = Instant::now();
            for _ in 0..steps {
                d.step_into(dt, demand, mode, &mut report).unwrap();
            }
            out[k].push(start.elapsed().as_secs_f64() * 1e9 / steps as f64);
            allocs += alloc_count() - before;
        }
    }
    InterleavedRun {
        samples: out,
        allocs,
    }
}

/// Runs `samples` full sessions at **default protocol settings** through
/// the real harness, one timed sample per session: the honest
/// end-to-end number. Rounds interleave the three integrators.
fn sessions_interleaved(samples: usize) -> [Vec<f64>; 3] {
    let mut out: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (k, &integrator) in INTEGRATORS.iter().enumerate() {
            let protocol = Protocol::unconstrained().with_integrator(integrator);
            let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0))).unwrap();
            let mut d = device();
            let start = Instant::now();
            let session = harness.run_session(&mut d, 1).expect("session");
            out[k].push(start.elapsed().as_secs_f64() * 1e3);
            assert!(
                session.performance_summary().is_ok(),
                "session produced no surviving iterations"
            );
        }
    }
    out
}

fn stats_of(samples: &[f64]) -> RobustStats {
    robust(samples, DEFAULT_NOISE_THRESHOLD).expect("sample count is always >= 1")
}

/// Index of `which` in [`INTEGRATORS`].
fn slot(which: Integrator) -> usize {
    INTEGRATORS.iter().position(|&i| i == which).unwrap()
}

fn main() {
    let opts = parse_args();
    let mut report = BenchReport::new("step", opts.samples);
    let mut steady_allocs = 0u64;

    let thermal = thermal_interleaved(opts.steps, opts.samples);
    for (k, integrator) in INTEGRATORS.iter().enumerate() {
        let stats = stats_of(&thermal.samples[k]);
        eprintln!(
            "thermal/{:<12} {:9.1} ns/step p50  spread {:4.1}%{}",
            integrator.as_str(),
            stats.p50,
            stats.rel_spread * 100.0,
            if stats.noisy { " NOISY" } else { "" },
        );
        report.metrics.push(Metric::from_stats(
            format!("thermal_ns_per_step/{}", integrator.as_str()),
            "ns/step",
            false,
            &stats,
            opts.steps as u64,
        ));
    }
    steady_allocs += thermal.allocs;
    eprintln!(
        "thermal loops: {} alloc(s) in timed regions",
        thermal.allocs
    );

    let raw = raw_interleaved(opts.steps, opts.samples);
    for (k, integrator) in INTEGRATORS.iter().enumerate() {
        let stats = stats_of(&raw.samples[k]);
        eprintln!(
            "device/{:<12}  {:9.1} ns/step p50  spread {:4.1}%{}",
            integrator.as_str(),
            stats.p50,
            stats.rel_spread * 100.0,
            if stats.noisy { " NOISY" } else { "" },
        );
        report.metrics.push(Metric::from_stats(
            format!("device_ns_per_step/{}", integrator.as_str()),
            "ns/step",
            false,
            &stats,
            opts.steps as u64,
        ));
    }
    steady_allocs += raw.allocs;
    eprintln!("device loops:  {} alloc(s) in timed regions", raw.allocs);

    let sessions = sessions_interleaved(opts.sessions);
    for (k, integrator) in INTEGRATORS.iter().enumerate() {
        let stats = stats_of(&sessions[k]);
        eprintln!(
            "session/{:<12} {:8.3} ms p50 over {} session(s)  spread {:4.1}%{}",
            integrator.as_str(),
            stats.p50,
            opts.sessions,
            stats.rel_spread * 100.0,
            if stats.noisy { " NOISY" } else { "" },
        );
        report.metrics.push(Metric::from_stats(
            format!("session_ms/{}", integrator.as_str()),
            "ms",
            false,
            &stats,
            1,
        ));
    }

    // Per-round speedup ratios (lower-is-better components, so exp-vs-rk4
    // speedup in round i is rk4ᵢ/expᵢ): common-mode host drift cancels in
    // each quotient, and the robust summary over the per-round ratios
    // gives the ratio a real spread/noisy verdict of its own.
    let mut ratio = |name: &str, num: &[f64], den: &[f64]| {
        let per_round: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        let stats = stats_of(&per_round);
        report
            .metrics
            .push(Metric::from_stats(name, "x", true, &stats, 1));
        stats.p50
    };
    let exp_t = &thermal.samples[slot(Integrator::Exponential)];
    let thermal_speedup_vs_rk4 = ratio(
        "thermal_speedup_exp_vs_rk4",
        &thermal.samples[slot(Integrator::Rk4)],
        exp_t,
    );
    let thermal_speedup_vs_euler = ratio(
        "thermal_speedup_exp_vs_euler",
        &thermal.samples[slot(Integrator::Euler)],
        exp_t,
    );
    let exp_s = &sessions[slot(Integrator::Exponential)];
    let session_speedup_vs_rk4 = ratio(
        "session_speedup_exp_vs_rk4",
        &sessions[slot(Integrator::Rk4)],
        exp_s,
    );
    let session_speedup_vs_euler = ratio(
        "session_speedup_exp_vs_euler",
        &sessions[slot(Integrator::Euler)],
        exp_s,
    );
    report.checks.push(Check {
        name: "steady_state_allocs_zero".to_owned(),
        ok: steady_allocs == 0,
    });
    report.write(&opts.out).expect("write BENCH_step.json");

    println!(
        "step/thermal step-rate: exponential {thermal_speedup_vs_rk4:.2}x vs rk4, \
         {thermal_speedup_vs_euler:.2}x vs euler"
    );
    println!(
        "step/session wall-clock: exponential {session_speedup_vs_rk4:.2}x vs rk4, \
         {session_speedup_vs_euler:.2}x vs euler"
    );
    println!("wrote {}", opts.out);
    if steady_allocs != 0 {
        eprintln!(
            "FATAL: steady-state stepping made {steady_allocs} heap allocation(s) \
             (must be zero for every integrator)"
        );
        std::process::exit(1);
    }
}
