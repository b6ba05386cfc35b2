//! Work-stealing parallel executor for fleet sweeps.
//!
//! The paper's §VI crowdsourcing vision only pays off at fleet scale, and
//! every device session is already an independent, deterministically seeded
//! simulation — embarrassingly parallel work that the serial sweep loop
//! left on the table. This module fans such indexed task batches out
//! across a small `std::thread` pool (no external dependencies; the
//! workspace builds offline) while keeping the *observable* result
//! bit-identical to the serial loop:
//!
//! * **Work stealing.** Tasks start in a shared injector queue; each
//!   worker drains batches of it into a private deque and, when both run
//!   dry, steals the back half of a sibling's deque. Uneven per-device
//!   costs (faulty devices retry and backoff, clean ones finish early)
//!   therefore cannot idle a core while work remains.
//! * **Canonical-order merge.** Workers hand each completed result to the
//!   caller's thread — the single writer — which buffers out-of-order
//!   completions and invokes the sink strictly in task order 0, 1, 2, ….
//!   Any order-sensitive state behind the sink (journal appends,
//!   [`CrowdDatabase`](crate::crowd::CrowdDatabase) submissions) observes
//!   exactly the serial schedule, regardless of thread count or OS
//!   scheduling.
//! * **Cooperative cancellation.** Workers poll the [`CancelToken`]
//!   between tasks: once flipped, in-flight tasks finish, nothing new is
//!   claimed, and the merge step flushes the contiguous finished prefix.
//!   Results past the first unfinished index are discarded — they are
//!   deterministic, so a resume recomputes them bit-identically.
//!
//! Determinism does **not** come from the pool (scheduling is arbitrary);
//! it comes from tasks being pure functions of their index plus the
//! ordered merge. The pool only decides *when* work happens, never *what*
//! the sink observes. See DESIGN.md §10.
//!
//! [`map_supervised`] layers **panic isolation** on top: every task runs
//! under `catch_unwind`, a panic becomes a typed
//! [`TaskOutcome::Panicked`] carrying a [`PanicSummary`], and the summary
//! flows through the same canonical-order merge — so a crashing task is
//! just another result, bit-identical at every thread count. See
//! DESIGN.md §12.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::journal::CancelToken;
use std::any::Any;
use std::backtrace::{Backtrace, BacktraceStatus};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, Once, PoisonError};

/// Worker count that `--threads` defaults to: the host's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Locks a mutex, recovering the guard from a poisoned lock — a worker
/// panic must not wedge its siblings or the writer.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a worker's claim attempt produced.
enum Claim<T> {
    /// A task to run.
    Task(T),
    /// Nothing visible right now, but unclaimed tasks exist (e.g. mid
    /// transfer between queues) — yield and retry.
    Retry,
    /// Every task has been claimed; the worker can exit.
    Drained,
}

/// Shared injector queue plus per-worker deques of task indices, and the
/// tasks' items, each taken by the worker that claims its index. The
/// queues move only indices, so a large item (a whole device) is never
/// copied from queue to queue.
struct Pool<T> {
    items: Mutex<Vec<Option<T>>>,
    injector: Mutex<VecDeque<usize>>,
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks not yet claimed for execution (they may sit in the injector,
    /// a local deque, or be mid-transfer). Workers only exit on zero, so a
    /// task can never be stranded in a deque nobody will revisit.
    unclaimed: AtomicUsize,
    /// How many tasks a worker moves from the injector per refill.
    batch: usize,
}

impl<T> Pool<T> {
    fn new(items: Vec<T>, threads: usize) -> Self {
        let total = items.len();
        Pool {
            items: Mutex::new(items.into_iter().map(Some).collect()),
            injector: Mutex::new((0..total).collect()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            unclaimed: AtomicUsize::new(total),
            batch: total.div_ceil(threads * 2).max(1),
        }
    }

    /// Claims the next task for worker `who`: own deque first, then a
    /// batch from the injector, then the back half of a sibling's deque.
    /// At most one lock is held at a time, so claims cannot deadlock.
    fn try_claim(&self, who: usize) -> Claim<usize> {
        if let Some(task) = lock(&self.locals[who]).pop_front() {
            self.unclaimed.fetch_sub(1, Ordering::SeqCst);
            return Claim::Task(task);
        }
        let refill: VecDeque<usize> = {
            let mut injector = lock(&self.injector);
            let take = self.batch.min(injector.len());
            injector.drain(..take).collect()
        };
        if let Some(task) = self.adopt(who, refill) {
            return Claim::Task(task);
        }
        for victim in (0..self.locals.len()).filter(|&v| v != who) {
            let stolen = {
                let mut deque = lock(&self.locals[victim]);
                // Leave the front half with its owner; take the rest.
                let keep = deque.len().div_ceil(2);
                deque.split_off(keep)
            };
            if let Some(task) = self.adopt(who, stolen) {
                return Claim::Task(task);
            }
        }
        if self.unclaimed.load(Ordering::SeqCst) == 0 {
            Claim::Drained
        } else {
            Claim::Retry
        }
    }

    /// Moves `tasks` into `who`'s deque and claims the first of them.
    fn adopt(&self, who: usize, tasks: VecDeque<usize>) -> Option<usize> {
        if tasks.is_empty() {
            return None;
        }
        let mut local = lock(&self.locals[who]);
        local.extend(tasks);
        let task = local.pop_front();
        if task.is_some() {
            self.unclaimed.fetch_sub(1, Ordering::SeqCst);
        }
        task
    }

    /// Takes the item of a claimed task. Each index is claimed exactly
    /// once, so the item is always still there.
    fn take(&self, index: usize) -> Option<T> {
        lock(&self.items).get_mut(index).and_then(Option::take)
    }
}

/// Runs `worker` over every `(index, item)` across `threads` workers and
/// feeds the results to `sink` **in strictly increasing index order** on
/// the calling thread, buffering out-of-order completions. Returns how
/// many items were sunk — the contiguous completed prefix.
///
/// * `threads` is clamped to `1..=items.len()`. With one thread everything
///   runs inline on the caller — that *is* the serial reference path, and
///   the parallel path is bit-identical to it whenever `worker` is a pure
///   function of `(index, item)`.
/// * `cancel` is polled before every claim: a cancelled run finishes
///   in-flight work, sinks the contiguous prefix, and returns short.
///   Computed results beyond the first gap are discarded.
/// * A `sink` error aborts the run: workers stop claiming, and the error
///   is returned after in-flight tasks drain.
pub fn map_ordered<T, R, E, W, S>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    worker: W,
    mut sink: S,
) -> Result<usize, E>
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, R) -> Result<(), E>,
{
    let total = items.len();
    if total == 0 {
        return Ok(0);
    }
    let threads = threads.clamp(1, total);
    if threads == 1 {
        let mut done = 0usize;
        for (index, item) in items.into_iter().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            sink(index, worker(index, item))?;
            done += 1;
        }
        return Ok(done);
    }

    let pool = Pool::new(items, threads);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|who| {
                let tx = tx.clone();
                let (pool, abort, worker) = (&pool, &abort, &worker);
                scope.spawn(move || loop {
                    if cancel.is_cancelled() || abort.load(Ordering::SeqCst) {
                        break;
                    }
                    match pool.try_claim(who) {
                        Claim::Task(index) => {
                            let Some(item) = pool.take(index) else {
                                continue;
                            };
                            // Send fails only when the writer already
                            // returned (sink error); nothing left to do
                            // either way.
                            if tx.send((index, worker(index, item))).is_err() {
                                break;
                            }
                        }
                        Claim::Retry => std::thread::yield_now(),
                        Claim::Drained => break,
                    }
                })
            })
            .collect();
        drop(tx);

        // Single-writer merge: buffer out-of-order completions, sink the
        // canonical prefix as it becomes contiguous.
        let merged = 'merge: {
            let mut buffered: BTreeMap<usize, R> = BTreeMap::new();
            let mut next = 0usize;
            while let Ok((index, result)) = rx.recv() {
                buffered.insert(index, result);
                while let Some(result) = buffered.remove(&next) {
                    if let Err(e) = sink(next, result) {
                        abort.store(true, Ordering::SeqCst);
                        break 'merge Err(e);
                    }
                    next += 1;
                }
            }
            Ok(next)
        };

        // Join every worker thread before returning. The scope alone waits
        // only for the worker closures, not for the threads to exit; a
        // thread still exiting has not yet handed its malloc arena back,
        // so the next map's workers would open fresh arenas and resident
        // memory would creep up across repeated maps.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        merged
    })
}

/// Prefix that marks a panic as *deliberately injected* (a
/// [`pv_faults::FaultKind::SessionPanic`] event firing). The panic hook
/// suppresses the default stderr report for these — a chaos sweep that
/// panics five devices on purpose should not spray five panic dumps over
/// the progress output — while real panics keep their full report.
pub const INJECTED_PANIC_MARKER: &str = "injected session panic";

thread_local! {
    /// `(location, backtrace)` of the most recent panic on this thread,
    /// captured by the hook and consumed by [`PanicSummary::from_payload`].
    static LAST_PANIC_CONTEXT: RefCell<Option<(Option<String>, Option<String>)>> =
        const { RefCell::new(None) };
}

static PANIC_HOOK: Once = Once::new();

/// Best-effort view of a panic payload as text. `panic!` with a literal
/// yields `&'static str`; with a format string, `String`; anything else
/// (a `panic_any` value) has no portable rendering.
fn payload_str(payload: &dyn Any) -> Option<&str> {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// Installs (once, process-wide) a panic hook that records the panic's
/// source location — and, when `RUST_BACKTRACE` requests it, a backtrace —
/// into a thread-local for [`PanicSummary`] to pick up. The previous hook
/// is chained for every panic except marker-prefixed injected ones.
fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let location = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()));
            // `Backtrace::capture` honours RUST_BACKTRACE / RUST_LIB_BACKTRACE;
            // unset means `Disabled` and we store nothing.
            let bt = Backtrace::capture();
            let backtrace = if bt.status() == BacktraceStatus::Captured {
                Some(bt.to_string())
            } else {
                None
            };
            LAST_PANIC_CONTEXT.with(|slot| *slot.borrow_mut() = Some((location, backtrace)));
            let injected =
                payload_str(info.payload()).is_some_and(|s| s.starts_with(INJECTED_PANIC_MARKER));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A summarized panic: what a supervised sweep journals instead of dying.
#[derive(Debug, Clone, PartialEq)]
pub struct PanicSummary {
    /// The panic message (or a placeholder for non-string payloads).
    pub payload: String,
    /// `file:line` of the panic site. Deterministic — the same injected
    /// panic reports the same location at every thread count.
    pub location: Option<String>,
    /// Rendered backtrace, present only when `RUST_BACKTRACE` (or
    /// `RUST_LIB_BACKTRACE`) enables capture. **Not** deterministic across
    /// thread counts (worker stacks differ from the caller's), which is
    /// why it goes into free-form journal notes, never into digested
    /// state; the bit-identical-journal guarantee assumes backtraces off.
    pub backtrace: Option<String>,
}

impl PanicSummary {
    /// Converts the payload `catch_unwind` returned, consuming the
    /// context the hook stashed for this thread.
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let text = payload_str(payload.as_ref())
            .unwrap_or("non-string panic payload")
            .to_string();
        let (location, backtrace) = LAST_PANIC_CONTEXT
            .with(|slot| slot.borrow_mut().take())
            .unwrap_or((None, None));
        Self {
            payload: text,
            location,
            backtrace,
        }
    }

    /// Whether this panic was deliberately injected by a
    /// [`pv_faults::FaultKind::SessionPanic`] fault.
    pub fn injected(&self) -> bool {
        self.payload.starts_with(INJECTED_PANIC_MARKER)
    }

    /// One-line deterministic rendering (payload + location, no
    /// backtrace) — safe to embed in journaled outcomes.
    ///
    /// An [injected](PanicSummary::injected) panic's headline carries no
    /// location: it is always the same `panic!` in the harness, and its
    /// `file:line` would tie journal bytes to the build path and to the
    /// line numbers of that file.
    pub fn headline(&self) -> String {
        match &self.location {
            Some(loc) if !self.injected() => format!("panic: {} (at {loc})", self.payload),
            _ => format!("panic: {}", self.payload),
        }
    }
}

impl std::fmt::Display for PanicSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.headline())
    }
}

/// What one supervised task produced.
#[derive(Debug)]
pub enum TaskOutcome<R> {
    /// The task returned normally.
    Completed(R),
    /// The task panicked; the unwind was caught and summarized.
    Panicked(PanicSummary),
}

/// Runs `task` under `catch_unwind` with the summary hook installed,
/// turning a panic into an `Err(PanicSummary)`.
///
/// The `AssertUnwindSafe` is a real promise the *caller* makes: state the
/// closure mutated before panicking may be torn, so callers must discard
/// it (the sweep supervisor retries on a pristine clone of the device,
/// never the one that panicked).
pub fn run_caught<R>(task: impl FnOnce() -> R) -> Result<R, PanicSummary> {
    install_panic_hook();
    catch_unwind(AssertUnwindSafe(task)).map_err(PanicSummary::from_payload)
}

/// [`map_ordered`] with panic isolation: the sink receives a
/// [`TaskOutcome`] per item, in canonical index order, with panics
/// converted to [`TaskOutcome::Panicked`] instead of unwinding the pool.
///
/// The catch wraps the task *closure*, inside the worker loop, so a panic
/// never unwinds a worker thread: the worker simply sends the summarized
/// outcome and claims the next task. No thread respawn is needed — the
/// only poisoning a panic could cause is of the pool's own mutexes, and
/// every lock site already recovers from poison (see `lock`). The serial
/// `threads == 1` path runs the *same* wrapped closure inline, so a
/// panicking task yields byte-identical sink input at every thread count
/// (backtrace capture off; see [`PanicSummary::backtrace`]).
pub fn map_supervised<T, R, E, W, S>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    worker: W,
    sink: S,
) -> Result<usize, E>
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, TaskOutcome<R>) -> Result<(), E>,
{
    install_panic_hook();
    map_ordered(
        items,
        threads,
        cancel,
        |index, item| match run_caught(|| worker(index, item)) {
            Ok(result) => TaskOutcome::Completed(result),
            Err(summary) => TaskOutcome::Panicked(summary),
        },
        sink,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let done: Result<usize, ()> = map_ordered(
            Vec::<u32>::new(),
            8,
            &CancelToken::new(),
            |_, x| x,
            |_, _| panic!("sink must not run"),
        );
        assert_eq!(done, Ok(0));
    }

    #[test]
    fn sink_sees_canonical_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let mut seen = Vec::new();
            let done: Result<usize, ()> = map_ordered(
                (0..100u64).collect(),
                threads,
                &CancelToken::new(),
                |i, x| (i as u64) * 1000 + x,
                |i, r| {
                    seen.push((i, r));
                    Ok(())
                },
            );
            assert_eq!(done, Ok(100), "threads={threads}");
            let expect: Vec<(usize, u64)> = (0..100).map(|i| (i, (i as u64) * 1001)).collect();
            assert_eq!(seen, expect, "threads={threads}");
        }
    }

    #[test]
    fn uneven_task_costs_do_not_perturb_sink_order() {
        // Early tasks are slow, late ones fast: with stealing, late tasks
        // finish first and must be buffered until the prefix lands.
        let mut seen = Vec::new();
        let done: Result<usize, ()> = map_ordered(
            (0..40u64).collect(),
            4,
            &CancelToken::new(),
            |i, x| {
                if i < 8 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                x * 2
            },
            |i, r| {
                seen.push((i, r));
                Ok(())
            },
        );
        assert_eq!(done, Ok(40));
        assert!(seen
            .iter()
            .enumerate()
            .all(|(k, &(i, r))| k == i && r == i as u64 * 2));
    }

    #[test]
    fn sink_error_aborts_with_contiguous_prefix() {
        let mut sunk = Vec::new();
        let result = map_ordered(
            (0..64u64).collect(),
            4,
            &CancelToken::new(),
            |_, x| x,
            |i, _| {
                if i == 5 {
                    return Err("boom");
                }
                sunk.push(i);
                Ok(())
            },
        );
        assert_eq!(result, Err("boom"));
        assert_eq!(sunk, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pre_cancelled_run_claims_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        for threads in [1, 4] {
            let done: Result<usize, ()> = map_ordered(
                (0..32u64).collect(),
                threads,
                &cancel,
                |_, x| x,
                |_, _| panic!("nothing may reach the sink"),
            );
            assert_eq!(done, Ok(0), "threads={threads}");
        }
    }

    #[test]
    fn mid_run_cancellation_stops_short_and_keeps_order() {
        let cancel = CancelToken::new();
        let mut seen = Vec::new();
        let done: Result<usize, ()> = map_ordered(
            (0..64u64).collect(),
            4,
            &cancel,
            |_, x| {
                std::thread::sleep(Duration::from_millis(1));
                x
            },
            |i, _| {
                if i == 0 {
                    cancel.cancel();
                }
                seen.push(i);
                Ok(())
            },
        );
        let done = done.unwrap();
        assert!(done >= 1, "the in-flight prefix still lands");
        assert!(done < 64, "cancellation stopped the run early");
        assert_eq!(seen, (0..done).collect::<Vec<_>>());
    }

    /// Renders a supervised run as comparable, deterministic strings
    /// (headline and captured location; no backtrace).
    fn supervised_trace(total: u64, threads: usize) -> Vec<String> {
        let mut trace = Vec::new();
        let done: Result<usize, ()> = map_supervised(
            (0..total).collect(),
            threads,
            &CancelToken::new(),
            |i, x| {
                if i % 5 == 3 {
                    panic!("{INJECTED_PANIC_MARKER}: task {i} crashed");
                }
                x * 2
            },
            |i, outcome| {
                trace.push(match outcome {
                    TaskOutcome::Completed(r) => format!("{i}:ok:{r}"),
                    TaskOutcome::Panicked(p) => {
                        format!("{i}:panic:{} @{:?}", p.headline(), p.location)
                    }
                });
                Ok(())
            },
        );
        assert_eq!(done, Ok(total as usize));
        trace
    }

    #[test]
    fn panics_become_typed_outcomes_in_canonical_order() {
        let trace = supervised_trace(40, 4);
        assert_eq!(trace.len(), 40);
        for (i, line) in trace.iter().enumerate() {
            if i % 5 == 3 {
                assert!(line.contains("panic:"), "{line}");
                assert!(line.contains(&format!("task {i} crashed")), "{line}");
                assert!(line.contains("executor.rs"), "location captured: {line}");
                assert!(
                    !line.contains(" (at "),
                    "injected headline has a location: {line}"
                );
            } else {
                assert_eq!(line, &format!("{i}:ok:{}", i * 2));
            }
        }
    }

    #[test]
    fn supervised_serial_and_parallel_traces_are_identical() {
        let reference = supervised_trace(30, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                supervised_trace(30, threads),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panicking_tasks_do_not_poison_their_siblings() {
        // Every task panics; the pool must still deliver every outcome.
        let mut panicked = 0;
        let done: Result<usize, ()> = map_supervised(
            (0..64u64).collect(),
            4,
            &CancelToken::new(),
            |i, _| -> u64 { panic!("{INJECTED_PANIC_MARKER}: {i}") },
            |_, outcome| {
                if let TaskOutcome::Panicked(p) = outcome {
                    assert!(p.injected());
                    panicked += 1;
                }
                Ok(())
            },
        );
        assert_eq!(done, Ok(64));
        assert_eq!(panicked, 64);
    }

    #[test]
    fn real_panics_are_not_marked_injected() {
        let err = run_caught(|| -> u32 { panic!("plain bug") }).unwrap_err();
        assert!(!err.injected());
        assert_eq!(err.payload, "plain bug");
        assert!(err
            .location
            .as_deref()
            .unwrap_or("")
            .contains("executor.rs"));
        assert!(
            err.headline().starts_with("panic: plain bug (at ")
                && err.headline().contains("executor.rs"),
            "a real panic's headline keeps its location: {}",
            err.headline()
        );
        assert_eq!(run_caught(|| 41 + 1), Ok(42));
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let mut seen = Vec::new();
        let done: Result<usize, ()> = map_ordered(
            vec![7u64, 8, 9],
            1000,
            &CancelToken::new(),
            |_, x| x + 1,
            |i, r| {
                seen.push((i, r));
                Ok(())
            },
        );
        assert_eq!(done, Ok(3));
        assert_eq!(seen, vec![(0, 8), (1, 9), (2, 10)]);
    }
}
