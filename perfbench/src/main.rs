//! End-to-end benchmark of the four user jobs — `crowd`, `durable`,
//! `paper` and `census` — with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crowd --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! With `--trace 0` the job is set up and run back to back for `--seconds`
//! on [`Workload::workers`] threads, and every end-to-end timing is the
//! fastest tenth ([`FAST_DECILE`]) of those runs. With `--trace 1` sweeps run on a pool of
//! [`POOL`] workers: the job runs once through the library, once through the
//! traced rebuild of its sweep engine (whose outputs must match bit for
//! bit), and a representative session is replayed through each lower
//! layer; the per-layer metrics come from those. The last line of stdout
//! is the result as one JSON object. See `perfbench/README.md`.

mod layers;
mod measure;
mod sweep;
mod trace;
mod workloads;

use measure::{cpu_seconds, peak_rss_mb, quantile, Fingerprint};
use pv_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{SelfTime, Trace};
use workloads::{Input, Output, Sizes, Workload};

/// Worker threads of the traced sweeps and of the self-test, one per vCPU
/// of the 2-vCPU host the benchmark was written on: the executor's queue
/// and reorder waits, the worker accounting and `executor.speedup_t2` need
/// a pool. The measured jobs use [`Workload::workers`].
const POOL: usize = 2;
/// Fewest untraced repetitions a run reports its timings over.
const MIN_REPS: usize = 3;
/// The quantile of a run's repetitions its timings report: the fastest
/// tenth. Every job is deterministic, so other tenants of a shared host can
/// only add time to it, and they do so in bursts of seconds to tens of
/// seconds. On the 2-vCPU host the benchmark was tuned on, the median of a
/// 30 s run moved with the share of it such a burst covered, while the
/// fastest tenth stayed on the uncontended cost.
const FAST_DECILE: f64 = 0.1;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload crowd|durable|paper|census --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --self-test"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    Some(Args {
        workload: Workload::parse(value("--workload")?)?,
        seed: value("--seed")?.parse().ok()?,
        seconds: value("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)?,
        trace: match value("--trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        },
    })
}

/// A metric as printed: value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn main() -> ExitCode {
    // Backtraces go into journal notes when enabled, which would make the
    // library's journal differ from the traced rebuild's.
    std::env::remove_var("RUST_BACKTRACE");
    std::env::remove_var("RUST_LIB_BACKTRACE");
    // glibc raises its mmap threshold the first time it frees a large
    // mmapped block. Whether that happens before or during the measured
    // set-ups varies from process to process and made set-up times bimodal
    // (every large buffer mmapped and faulted in anew, or not). Freeing one
    // 16 MiB block first starts every run in the same state. The block is
    // never written, so it adds nothing to the resident set.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20)));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let Some(args) = parse_args(&args) else {
        return usage();
    };
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    match result {
        Ok(r) => {
            println!("{}", r.to_json().to_string_compact());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                for p in &r.problems {
                    eprintln!("check failed: {p}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    problems: Vec<String>,
}

impl RunResult {
    fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for (name, (value, unit)) in &self.metrics {
            let mut m = Json::object();
            m.insert("value", Json::Number(*value));
            m.insert("unit", Json::String((*unit).to_owned()));
            metrics.insert(name.clone(), m);
        }
        let mut obj = Json::object();
        obj.insert("correct", Json::Bool(self.correct));
        obj.insert("attempted", Json::Number(self.attempted as f64));
        obj.insert("failed", Json::Number(self.failed as f64));
        obj.insert("metrics", metrics);
        obj
    }
}

/// Fails unless `fp` matches the reference, setting it on first use.
fn same_fingerprint(
    reference: &mut Option<String>,
    fp: &Fingerprint,
    what: &str,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(fp.hex());
            Ok(())
        }
        Some(r) if *r == fp.hex() => Ok(()),
        Some(r) => Err(format!(
            "fingerprint {} differs from {r} ({what})",
            fp.hex()
        )),
    }
}

/// Shortest time spent on set-ups before each job: a cheap set-up is
/// repeated, and its time is the mean over the repeats, so that a
/// microsecond set-up is not read off a single clock interval.
const SETUP_FLOOR_S: f64 = 0.02;

/// Sets up and runs the job once, returning the output, the set-up time,
/// and the job's wall time and CPU time, in seconds.
fn timed_job(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    threads: usize,
    traced: bool,
) -> Result<(Output, f64, f64, f64), String> {
    let (mut setup_total, mut setups) = (0.0, 0u32);
    let input: Input = loop {
        let start = Instant::now();
        let input = workloads::setup(workload, seed, sizes).map_err(|e| e.to_string())?;
        setup_total += start.elapsed().as_secs_f64();
        setups += 1;
        if setup_total >= SETUP_FLOOR_S {
            break input;
        }
    };
    let setup_s = setup_total / f64::from(setups);
    let cpu = cpu_seconds();
    let start = Instant::now();
    let out = workloads::run(input, threads, traced, false).map_err(|e| e.to_string())?;
    let job_s = start.elapsed().as_secs_f64();
    Ok((out, setup_s, job_s, cpu_seconds() - cpu))
}

/// The environment record printed with every result. The fingerprint lets
/// two commits be compared for changed output bits.
fn env_record(
    args: &Args,
    threads: usize,
    attempted: usize,
    reps: usize,
    fingerprint: &str,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env = Json::object();
    env.insert("workload", Json::String(args.workload.name().to_owned()));
    env.insert("seed", Json::Number(args.seed as f64));
    env.insert("nproc", Json::Number(nproc as f64));
    env.insert("threads", Json::Number(threads as f64));
    env.insert("rustc", Json::String(env!("PERFBENCH_RUSTC").to_owned()));
    env.insert("commit", Json::String(commit()));
    env.insert("devices_per_job", Json::Number(attempted as f64));
    env.insert("jobs", Json::Number(reps as f64));
    env.insert("speedup_t2_informational", Json::Bool(nproc < 2));
    env.insert("fingerprint", Json::String(fingerprint.to_owned()));
    env
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn untraced_run(args: &Args) -> Result<RunResult, String> {
    let sizes = Sizes::full();
    let started = Instant::now();
    let (mut setups, mut jobs, mut cpus, mut rates) = (vec![], vec![], vec![], vec![]);
    let mut reference = None;
    let mut problems = Vec::new();
    let (mut attempted, mut holes) = (0usize, 0usize);
    // Jobs run back to back while the next one, as long as the last, still
    // ends within `--seconds`. The first warms caches, the allocator and the
    // shared propagator cache; it is checked but not measured.
    let (mut last_s, mut warm) = (0.0, false);
    let threads = args.workload.workers();
    while jobs.len() < MIN_REPS || started.elapsed().as_secs_f64() + last_s <= args.seconds {
        let rep = Instant::now();
        let (out, setup_s, job_s, cpu_s) =
            timed_job(args.workload, args.seed, &sizes, threads, false)?;
        last_s = rep.elapsed().as_secs_f64();
        if let Err(e) = same_fingerprint(&mut reference, &out.fingerprint, "two runs of one seed") {
            problems.push(e);
        }
        problems.extend(out.problems.iter().cloned());
        if !warm {
            warm = true;
            continue;
        }
        setups.push(setup_s);
        jobs.push(job_s);
        cpus.push(cpu_s);
        rates.push(out.attempted as f64 / job_s);
        attempted = out.attempted;
        holes = out.holes;
    }
    let env = env_record(
        args,
        threads,
        attempted,
        jobs.len(),
        &reference.unwrap_or_default(),
    );
    eprintln!("env: {}", env.to_string_compact());
    eprintln!("job_s per run: {jobs:.4?}");
    eprintln!("cpu_s per run: {cpus:.4?}");
    eprintln!("setup_s per run: {setups:.5?}");
    let mut metrics = Metrics::new();
    metrics.insert("job_s".into(), (quantile(&jobs, FAST_DECILE), "s"));
    metrics.insert(
        "devices_per_s".into(),
        (quantile(&rates, 1.0 - FAST_DECILE), "1/s"),
    );
    metrics.insert("cpu_s".into(), (quantile(&cpus, FAST_DECILE), "s"));
    metrics.insert("setup_s".into(), (quantile(&setups, FAST_DECILE), "s"));
    metrics.insert("peak_rss_mb".into(), (peak_rss_mb(), "MiB"));
    metrics.insert(
        "completed_frac".into(),
        ((attempted - holes) as f64 / attempted as f64, "frac"),
    );
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: attempted * jobs.len(),
        failed: 0,
        metrics,
        problems,
    })
}

/// Units of the per-layer metrics, in the order `BENCHMARK.json` lists
/// them. Every traced run reports all of them; a layer the workload does
/// not exercise reads 0.
fn layer_units() -> Vec<(String, &'static str)> {
    let mut units: Vec<(String, &'static str)> = Vec::new();
    let mut timing = |stem: &str, unit: &'static str, tail: &str| {
        units.push((format!("{stem}.p50"), unit));
        units.push((format!("{stem}.{tail}"), unit));
    };
    for stem in [
        "thermal.network.step_ns.exp",
        "thermal.network.step_ns.euler",
        "thermal.probe.read_ns",
        "thermal.thermabox.step_ns",
        "soc.device.step_ns",
        "soc.throttle.update_ns",
        "silicon.power.total_power_ns",
    ] {
        timing(stem, "ns", "p99");
    }
    timing("soc.catalog.build_us", "us", "p99");
    timing("harness.session_ms", "ms", "p90");
    timing("executor.queue_wait_us", "us", "p90");
    timing("executor.reorder_wait_us", "us", "p90");
    timing("journal.append_us", "us", "p90");
    timing("aggregate.fold_ns", "ns", "p90");
    timing("crowd_db.submit_ns", "ns", "p90");
    for (name, unit) in [
        ("soc.device.steps", "count"),
        ("harness.self_frac", "frac"),
        ("harness.retries", "count"),
        ("harness.quarantined", "count"),
        ("executor.speedup_t2", "x"),
        ("crowd.holes.panicked", "count"),
        ("crowd.holes.timed_out", "count"),
        ("crowd.holes.failed", "count"),
        ("crowd.holes.quarantined", "count"),
        ("journal.bytes_per_device", "B"),
        ("journal.retries", "count"),
        ("journal.rotations", "count"),
        ("journal.replay_ms", "ms"),
        ("aggregate.merge_us.p50", "us"),
        ("aggregate.bytes", "B"),
        ("crowd_db.render_ms", "ms"),
        ("stats.sampling.select_ms", "ms"),
        ("stats.sampling.estimate_ms", "ms"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_frac", "frac"),
        ("trace.unattributed_frac", "frac"),
    ] {
        units.push((name.to_owned(), unit));
    }
    for (name, _) in workloads::paper_artifacts() {
        units.push((format!("experiments.{name}_ms"), "ms"));
    }
    units
}

fn traced_run(args: &Args) -> Result<RunResult, String> {
    let sizes = Sizes::full();
    let w = args.workload;
    let mut problems = Vec::new();
    let mut reference = None;

    // A first job warms caches and the allocator; it is not measured.
    timed_job(w, args.seed, &sizes, POOL, false)?;
    // The library's job, untraced: the fingerprint and time to compare to.
    let (lib, _, untraced_s, _) = timed_job(w, args.seed, &sizes, POOL, false)?;
    same_fingerprint(&mut reference, &lib.fingerprint, "library").ok();
    problems.extend(lib.problems.iter().cloned());

    // The traced rebuild: spans around every layer call.
    Trace::take();
    let (out, _, traced_s, _) = timed_job(w, args.seed, &sizes, POOL, true)?;
    let mut collected = Trace::take();
    if let Err(e) = same_fingerprint(
        &mut reference,
        &out.fingerprint,
        "traced rebuild vs library",
    ) {
        problems.push(e);
    }
    problems.extend(out.problems.iter().cloned());

    // One worker: the same outputs, and the base of the scaling ratio.
    let mut speedup = 0.0;
    if w.is_sweep() {
        let (one, _, serial_s, _) = timed_job(w, args.seed, &sizes, 1, false)?;
        if let Err(e) = same_fingerprint(&mut reference, &one.fingerprint, "1 vs 2 workers") {
            problems.push(e);
        }
        speedup = serial_s / untraced_s;
    }

    // A representative session, replayed through each lower layer. For
    // `paper` its sessions are also the device-step sample, since the
    // artifacts' own sessions run inside the library.
    let input = workloads::setup(w, args.seed, &sizes).map_err(|e| e.to_string())?;
    let rep = workloads::representative(&input).map_err(|e| e.to_string())?;
    drop(input);
    let session_trace = Trace::take();
    if w == Workload::Paper {
        collected.spans.extend(session_trace.spans);
        collected.steps.merge(&session_trace.steps);
        collected.counts = session_trace.counts;
    }
    let replay = layers::replay(&rep.spec, &rep.die, &rep.steps, rep.integrator, rep.chamber)
        .map_err(|e| e.to_string())?;
    let catalog = layers::catalog_build_us(1500);

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put_timing = |stem: &str, samples: &[f64], tail: f64, tail_name: &str| {
        m.insert(format!("{stem}.p50"), quantile(samples, 0.5));
        m.insert(format!("{stem}.{tail_name}"), quantile(samples, tail));
    };
    for (stem, samples) in &replay {
        put_timing(stem, samples, 0.99, "p99");
    }
    put_timing("soc.catalog.build_us", &catalog, 0.99, "p99");
    for stem in [
        "executor.queue_wait_us",
        "executor.reorder_wait_us",
        "journal.append_us",
        "aggregate.fold_ns",
        "crowd_db.submit_ns",
    ] {
        let samples = collected.samples.get(stem).map_or(&[][..], Vec::as_slice);
        put_timing(stem, samples, 0.9, "p90");
    }
    let sessions: Vec<f64> = collected
        .spans
        .iter()
        .filter(|s| s.name == "harness.session")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    put_timing("harness.session_ms", &sessions, 0.9, "p90");
    m.insert(
        "soc.device.step_ns.p50".into(),
        collected.steps.quantile(0.5),
    );
    m.insert(
        "soc.device.step_ns.p99".into(),
        collected.steps.quantile(0.99),
    );
    if let Some(merges) = collected.samples.get("aggregate.merge_us") {
        m.insert("aggregate.merge_us.p50".into(), quantile(merges, 0.5));
    }
    for (name, v) in &collected.counts {
        m.insert((*name).to_owned(), *v);
    }
    let table = trace::self_time(&collected.spans);
    let session = table.get("harness.session").cloned().unwrap_or_default();
    if session.total_ns > 0 {
        m.insert(
            "harness.self_frac".into(),
            session.self_ns as f64 / session.total_ns as f64,
        );
    }
    m.insert("executor.speedup_t2".into(), speedup);
    for (i, status) in ["panicked", "timed_out", "failed"].iter().enumerate() {
        m.insert(
            format!("crowd.holes.{status}"),
            out.holes_by_status[i] as f64,
        );
    }
    m.insert("crowd.holes.quarantined".into(), out.holes as f64);
    for (name, v) in &out.layer {
        m.insert(name.clone(), *v);
    }
    m.insert("trace.overhead_s".into(), traced_s - untraced_s);
    let accounted = if w.is_sweep() {
        trace::worker_accounting(&collected.spans, POOL).map(|a| {
            let s = |ns: u64| ns as f64 / 1e9;
            eprintln!(
                "accounting: worker layer self time {:.3} s + idle {:.3} s = {:.3} s of {POOL} × wall {:.3} s; \
                 unattributed (task and device grouping spans) {:.3} s",
                s(a.layers),
                s(a.idle),
                s(a.layers + a.idle),
                s(a.whole),
                s(a.unattributed),
            );
            m.insert(
                "trace.unattributed_frac".into(),
                a.unattributed as f64 / a.whole as f64,
            );
            a.accounted_frac()
        })
    } else {
        table.get("job").map(|job| {
            let artifacts: u64 = table
                .iter()
                .filter(|(k, _)| k.starts_with("experiments."))
                .map(|(_, v)| v.total_ns)
                .sum();
            artifacts as f64 / job.total_ns as f64
        })
    };
    let accounted = accounted.unwrap_or(0.0);
    m.insert("trace.accounted_frac".into(), accounted);
    if w.is_sweep() && (accounted - 1.0).abs() > 0.10 {
        problems.push(format!(
            "layer self times + idle account for {:.1}% of workers × wall",
            accounted * 100.0
        ));
    }

    print_self_time(w, &table, traced_s);
    let threads = if w.is_sweep() { POOL } else { w.workers() };
    let env = env_record(
        args,
        threads,
        out.attempted,
        1,
        &reference.unwrap_or_default(),
    );
    eprintln!("env: {}", env.to_string_compact());
    eprintln!(
        "tracing overhead: traced job {traced_s:.3} s − untraced {untraced_s:.3} s = {:.3} s",
        traced_s - untraced_s
    );
    if let Err(e) = write_trace(args, env, &collected, &table) {
        problems.push(format!("writing the trace: {e}"));
    }

    let mut metrics = Metrics::new();
    for (name, unit) in layer_units() {
        metrics.insert(name.clone(), (m.get(&name).copied().unwrap_or(0.0), unit));
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: lib.attempted + out.attempted,
        failed: 0,
        metrics,
        problems,
    })
}

fn print_self_time(w: Workload, table: &BTreeMap<String, SelfTime>, wall_s: f64) {
    let mut rows: Vec<(&String, &SelfTime)> = table.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    eprintln!(
        "self time, {} (traced job wall {wall_s:.3} s):\n  {:<32} {:>9} {:>11} {:>11}",
        w.name(),
        "span",
        "calls",
        "total ms",
        "self ms"
    );
    for (name, t) in rows {
        eprintln!(
            "  {name:<32} {:>9} {:>11.2} {:>11.2}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Writes every span and the self-time table as JSON.
fn write_trace(
    args: &Args,
    env: Json,
    trace: &Trace,
    table: &BTreeMap<String, SelfTime>,
) -> std::io::Result<()> {
    let num = |v: f64| Json::Number(v);
    let mut spans = Vec::with_capacity(trace.spans.len());
    for s in &trace.spans {
        let mut o = Json::object();
        o.insert("id", num(f64::from(s.id)));
        o.insert("name", Json::String(s.name.clone()));
        o.insert("start_ns", num(s.start as f64));
        o.insert("end_ns", num(s.end as f64));
        o.insert("parent", s.parent.map_or(Json::Null, |p| num(f64::from(p))));
        o.insert("device", s.device.map_or(Json::Null, |d| num(d as f64)));
        o.insert("thread", num(f64::from(s.thread)));
        o.insert("aggregate", Json::Bool(s.aggregate));
        spans.push(o);
    }
    let mut self_time = Json::object();
    for (name, t) in table {
        let mut o = Json::object();
        o.insert("calls", num(t.calls as f64));
        o.insert("total_ns", num(t.total_ns as f64));
        o.insert("self_ns", num(t.self_ns as f64));
        self_time.insert(name.clone(), o);
    }
    let mut doc = Json::object();
    doc.insert("env", env);
    doc.insert("self_time", self_time);
    doc.insert("spans", Json::Array(spans));
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!(
        "{TRACE_DIR}/trace-{}-{}.json",
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, doc.to_string_compact())?;
    eprintln!("trace: {path}");
    Ok(())
}

/// Tiny versions of every job: each must repeat its fingerprint, match at
/// 1 and 2 workers and through the traced rebuild, and emit every metric
/// `BENCHMARK.json` names; a perturbed output must trip the check.
fn self_test() -> ExitCode {
    let sizes = Sizes::smoke();
    let mut failures = Vec::new();
    for w in Workload::ALL {
        let mut reference = None;
        for (threads, traced, what) in [
            (POOL, false, "library"),
            (POOL, false, "second run of one seed"),
            (1, false, "1 worker"),
            (POOL, true, "traced rebuild"),
        ] {
            if !w.is_sweep() && threads == 1 {
                continue;
            }
            match timed_job(w, 7, &sizes, threads, traced) {
                Ok((out, ..)) => {
                    if let Err(e) = same_fingerprint(&mut reference, &out.fingerprint, what) {
                        failures.push(format!("{}: {e}", w.name()));
                    }
                    failures.extend(out.problems.iter().map(|p| format!("{}: {p}", w.name())));
                }
                Err(e) => failures.push(format!("{}: {what}: {e}", w.name())),
            }
        }
        // The job with one output changed before it is hashed must not
        // pass as the same.
        let perturbed = workloads::setup(w, 7, &sizes)
            .and_then(|input| workloads::run(input, POOL, false, true));
        match perturbed {
            Ok(out) => {
                if same_fingerprint(&mut reference, &out.fingerprint, "perturbed").is_ok() {
                    failures.push(format!("{}: a perturbed output passed the check", w.name()));
                }
            }
            Err(e) => failures.push(format!("{}: perturbed: {e}", w.name())),
        }
        eprintln!("self-test {}: done", w.name());
    }
    Trace::take();

    // Every metric named in BENCHMARK.json is emitted.
    let emitted: Vec<String> = [
        "job_s",
        "devices_per_s",
        "cpu_s",
        "setup_s",
        "peak_rss_mb",
        "completed_frac",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain(layer_units().into_iter().map(|(n, _)| n))
    .collect();
    match std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Json::from_str(&t).ok())
    {
        Some(doc) => {
            for key in ["end_to_end", "per_layer"] {
                for m in doc.get(key).and_then(Json::as_array).unwrap_or(&[]) {
                    let name = m.get("name").and_then(Json::as_str).unwrap_or("");
                    if !emitted.iter().any(|e| e == name) {
                        failures.push(format!("metric {name} is never emitted"));
                    }
                }
            }
            let named = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_array)
                    .map_or(0, <[Json]>::len)
            };
            if named("end_to_end") + named("per_layer") != emitted.len() {
                failures.push(format!(
                    "BENCHMARK.json names {} metrics, the benchmark emits {}",
                    named("end_to_end") + named("per_layer"),
                    emitted.len()
                ));
            }
        }
        None => failures.push("BENCHMARK.json not found in the working directory".into()),
    }
    if failures.is_empty() {
        eprintln!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("self-test: {f}");
        }
        ExitCode::FAILURE
    }
}
