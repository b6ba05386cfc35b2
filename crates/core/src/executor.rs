//! Index-order parallel executor for fleet sweeps.
//!
//! The paper's §VI crowdsourcing vision only pays off at fleet scale, and
//! every device session is already an independent, deterministically seeded
//! simulation — embarrassingly parallel work that the serial sweep loop
//! left on the table. This module fans such indexed task batches out
//! across a small `std::thread` pool (no external dependencies; the
//! workspace builds offline) while keeping the *observable* result
//! bit-identical to the serial loop:
//!
//! * **Index-order claims.** Workers claim tasks one at a time from a
//!   single atomic next-index counter, so tasks start in index order and
//!   the claimed indices always form a prefix `0..k`. Taking one task at
//!   a time is dynamic scheduling: uneven per-device costs (faulty devices
//!   retry and backoff, clean ones finish early) cannot idle a core while
//!   work remains.
//! * **Canonical-order merge.** Workers hand each completed result to the
//!   caller's thread — the single writer — which buffers out-of-order
//!   completions and invokes the sink strictly in task order 0, 1, 2, ….
//!   Any order-sensitive state behind the sink (journal appends,
//!   [`CrowdDatabase`](crate::crowd::CrowdDatabase) submissions) observes
//!   exactly the serial schedule, regardless of thread count or OS
//!   scheduling.
//! * **Cooperative cancellation.** Workers poll the [`CancelToken`]
//!   before every claim: once flipped, in-flight tasks finish and nothing
//!   new is claimed. Because the claimed indices form a prefix, the merge
//!   step then sinks every task the run started — a cancelled sweep
//!   journals every device it simulated, and a resume recomputes only the
//!   devices that never ran.
//!
//! Determinism does **not** come from the schedule (completion order is
//! arbitrary); it comes from tasks being pure functions of their index
//! plus the ordered merge. The workers only decide *when* work happens,
//! never *what* the sink observes. See DESIGN.md §10.
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
use std::collections::BTreeMap;
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

/// Runs `worker` over every `(index, item)` across `threads` workers and
/// feeds the results to `sink` **in strictly increasing index order** on
/// the calling thread, buffering out-of-order completions. Returns how
/// many items were sunk.
///
/// * `threads` is clamped to `1..=items.len()`. With one thread everything
///   runs inline on the caller — that *is* the serial reference path, and
///   the parallel path is bit-identical to it whenever `worker` is a pure
///   function of `(index, item)`.
/// * Workers claim indices in increasing order from one shared counter, so
///   the claimed indices always form a prefix and no finished result is
///   ever left behind a gap.
/// * `cancel` is polled before every claim: a cancelled run finishes
///   in-flight work, sinks every task it started, and returns short.
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

    // One lock over all items, not one per item: the in-place collect
    // reuses the caller's allocation, so a fleet's devices exist once.
    let items = Mutex::new(items.into_iter().map(Some).collect::<Vec<_>>());
    let claimed = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (items, claimed, abort, worker) = (&items, &claimed, &abort, &worker);
                scope.spawn(move || {
                    while !cancel.is_cancelled() && !abort.load(Ordering::SeqCst) {
                        let index = claimed.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = lock(items).get_mut(index).and_then(Option::take) else {
                            break;
                        };
                        // Send fails only when the writer already returned
                        // (sink error); nothing left to do either way.
                        if tx.send((index, worker(index, item))).is_err() {
                            break;
                        }
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
        // Early tasks are slow, late ones fast: the workers that claim the
        // late tasks finish them first, so they must be buffered until
        // the prefix lands.
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
        let ran = AtomicUsize::new(0);
        let mut seen = Vec::new();
        let done: Result<usize, ()> = map_ordered(
            (0..64u64).collect(),
            4,
            &cancel,
            |_, x| {
                std::thread::sleep(Duration::from_millis(1));
                ran.fetch_add(1, Ordering::SeqCst);
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
        assert_eq!(
            done,
            ran.load(Ordering::SeqCst),
            "every task the run started is sunk"
        );
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
