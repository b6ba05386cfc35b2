//! In-memory spans, counters and timing samples for the traced run.
//!
//! A span is opened with [`span`] around a call into one layer and closed
//! when its guard drops (also during a panic unwind). Spans nest through a
//! per-thread stack, so each records its parent; nothing is written until
//! the run ends and [`Trace::take`] drains the collector.
//!
//! Device steps are too frequent to keep as spans: [`Timed`] sums their
//! time per session and records it as one *aggregate* child span of the
//! session, plus a log-bucketed histogram of single-step times.

use crate::measure::now_ns;
use pv_soc::device::{CpuDemand, Dut, FrequencyMode, StepReport};
use pv_soc::SocError;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, Seconds};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub device: Option<usize>,
    pub thread: u32,
    /// The summed time of many short calls, laid out from `start`; not one
    /// contiguous interval.
    pub aggregate: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything the traced run collected.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub steps: LogHist,
}

static TRACE: Mutex<Option<Trace>> = Mutex::new(None);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Locks the collector. A panic while it is held (none is expected) cannot
/// leave a span half-written, so a poisoned lock is recovered.
fn collector() -> MutexGuard<'static, Option<Trace>> {
    TRACE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn with_trace(f: impl FnOnce(&mut Trace)) {
    f(collector().get_or_insert_with(Trace::default));
}

impl Trace {
    /// Drains everything recorded so far.
    pub fn take() -> Trace {
        collector().take().unwrap_or_default()
    }
}

pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

fn current_parent() -> Option<u32> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; closed and recorded on drop.
pub struct Guard {
    id: u32,
    parent: Option<u32>,
    name: String,
    start: u64,
    device: Option<usize>,
}

pub fn span(name: impl Into<String>, device: Option<usize>) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_parent();
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name: name.into(),
        start: now_ns(),
        device,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start: self.start,
            end,
            device: self.device,
            thread: thread_id(),
            aggregate: false,
        };
        with_trace(|t| t.spans.push(span));
    }
}

/// Adds `v` to the named counter.
pub fn count(name: &'static str, v: f64) {
    with_trace(|t| *t.counts.entry(name).or_insert(0.0) += v);
}

/// Records one timing sample of the named layer call.
pub fn sample(name: &'static str, v: f64) {
    with_trace(|t| t.samples.entry(name).or_default().push(v));
}

/// Times `f` as one sample of `name`, in nanoseconds divided by `per`.
pub fn timed<R>(name: &'static str, per: f64, f: impl FnOnce() -> R) -> R {
    let t = now_ns();
    let r = f();
    sample(name, (now_ns() - t) as f64 / per);
    r
}

/// Histogram with 16 buckets per power of two (about 4 % resolution).
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    pub total: u64,
    pub sum: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; 64 * 16],
            total: 0,
            sum: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        let v = v.max(1);
        let e = 63 - v.leading_zeros() as usize;
        let m = if e >= 4 {
            (v >> (e - 4)) & 15
        } else {
            (v << (4 - e)) & 15
        };
        e * 16 + m as usize
    }

    pub fn add(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Midpoint of the bucket holding the `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (e, m) = (i / 16, (i % 16) as f64);
                let lo = 2f64.powi(e as i32) * (1.0 + m / 16.0);
                return lo * (1.0 + 1.0 / 32.0);
            }
        }
        0.0
    }
}

/// The inputs and outputs of one device step, kept so the layer replay can
/// drive each lower layer with the workload's own operating points.
#[derive(Debug, Clone)]
pub struct StepRecord {
    pub dt: Seconds,
    pub report: StepReport,
}

/// Most steps a [`Timed`] wrapper keeps for replay.
pub const REPLAY_STEPS: usize = 40_000;

/// A timing [`Dut`] wrapper: forwards every call to the wrapped device
/// unchanged and sums the time spent inside it.
pub struct Timed<D: Dut> {
    inner: D,
    session: Option<u32>,
    start: u64,
    dut_ns: u64,
    device: Option<usize>,
    hist: LogHist,
    attempts: u64,
    record: Option<Vec<StepRecord>>,
}

impl<D: Dut> Timed<D> {
    /// Wraps `inner` inside the currently open session span.
    pub fn new(inner: D, device: Option<usize>, record: bool) -> Self {
        Timed {
            inner,
            session: current_parent(),
            start: now_ns(),
            dut_ns: 0,
            device,
            hist: LogHist::default(),
            attempts: 0,
            record: record.then(Vec::new),
        }
    }

    /// Iteration attempts started: `Harness::run_iteration` pins the
    /// integrator once at the start of every attempt.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    pub fn take_record(&mut self) -> Vec<StepRecord> {
        self.record.take().unwrap_or_default()
    }

    fn clocked<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let t = now_ns();
        let r = f(&mut self.inner);
        self.dut_ns += now_ns() - t;
        r
    }
}

impl<D: Dut> Drop for Timed<D> {
    fn drop(&mut self) {
        let span = Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: self.session,
            name: "soc.device".to_owned(),
            start: self.start,
            end: self.start + self.dut_ns,
            device: self.device,
            thread: thread_id(),
            aggregate: true,
        };
        let hist = std::mem::take(&mut self.hist);
        with_trace(|t| {
            t.spans.push(span);
            t.steps.merge(&hist);
            *t.counts.entry("soc.device.steps").or_insert(0.0) += hist.total as f64;
        });
    }
}

impl<D: Dut> Dut for Timed<D> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn die_temp(&self) -> Celsius {
        self.inner.die_temp()
    }

    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.clocked(|d| d.set_ambient(ambient))
    }

    fn try_read_sensor(&mut self) -> Result<Celsius, SocError> {
        self.clocked(|d| d.try_read_sensor())
    }

    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        let mut out = StepReport::empty();
        self.step_into(dt, demand, mode, &mut out)?;
        Ok(out)
    }

    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        let t = now_ns();
        let r = self.inner.step_into(dt, demand, mode, out);
        let ns = now_ns() - t;
        self.dut_ns += ns;
        self.hist.add(ns);
        if let (Ok(()), Some(rec)) = (&r, &mut self.record) {
            if rec.len() < REPLAY_STEPS {
                rec.push(StepRecord {
                    dt,
                    report: out.clone(),
                });
            }
        }
        r
    }

    fn set_integrator(&mut self, integrator: Integrator) {
        self.attempts += 1;
        self.clocked(|d| d.set_integrator(integrator));
    }
}

/// Per-name totals of a span set: calls, wall time and self time (wall
/// time minus the time its child spans cover), in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_time(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.dur();
        }
    }
    let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = table.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.total_ns += s.dur();
        e.self_ns += s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    table
}

/// Spans that only group a worker's calls into layers. Their self time is
/// work no layer span covers, so it counts as unattributed, not as layer
/// time.
const GROUPING: [&str; 2] = ["executor.task", "crowd.device"];

/// How the executor's worker threads spent the traced map window, in
/// nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Accounting {
    /// Self time of the layer spans.
    pub layers: u64,
    /// Self time of the [`GROUPING`] spans.
    pub unattributed: u64,
    /// Time before, between and after tasks.
    pub idle: u64,
    /// Workers × the map call's wall time.
    pub whole: u64,
}

impl Accounting {
    /// Share of the whole that layer spans and idle time account for.
    pub fn accounted_frac(&self) -> f64 {
        (self.layers + self.idle) as f64 / self.whole as f64
    }
}

/// Splits the worker threads' time over the map window into layer self
/// time, unattributed time and idle time. Idle time is measured
/// independently of the spans' contents, from the gaps between consecutive
/// tasks on each worker.
pub fn worker_accounting(spans: &[Span], workers: usize) -> Option<Accounting> {
    let map = spans.iter().find(|s| s.name == "executor.map")?;
    let mut by_thread: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "executor.task") {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let window = map.dur();
    let mut idle = window * workers.saturating_sub(by_thread.len()) as u64;
    for tasks in by_thread.values_mut() {
        tasks.sort_by_key(|s| s.start);
        let mut cursor = map.start;
        for t in tasks.iter() {
            idle += t.start.saturating_sub(cursor);
            cursor = cursor.max(t.end);
        }
        idle += map.end.saturating_sub(cursor);
    }
    let table = self_time(
        &spans
            .iter()
            .filter(|s| by_thread.contains_key(&s.thread) && s.start >= map.start)
            .cloned()
            .collect::<Vec<_>>(),
    );
    let (mut layers, mut unattributed) = (0, 0);
    for (name, e) in &table {
        if GROUPING.contains(&name.as_str()) {
            unattributed += e.self_ns;
        } else {
            layers += e.self_ns;
        }
    }
    Some(Accounting {
        layers,
        unattributed,
        idle,
        whole: window * workers as u64,
    })
}
