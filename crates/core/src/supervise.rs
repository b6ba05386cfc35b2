//! Supervision primitives for fleet sweeps: watchdog budgets, escalation
//! policy, and deterministic session chaos.
//!
//! A fleet sweep must *always terminate* with an explicit account of every
//! device, even when individual sessions panic or wedge. This module holds
//! the pieces the sweep supervisor in [`crate::crowd`] is built from:
//!
//! - [`Watchdog`] — per-session budgets (simulated time and wall clock)
//!   charged at cooperative checkpoints in the harness step loop;
//! - [`SupervisionPolicy`] / [`OnFailure`] — how many attempts a device
//!   gets and what a final failure does to the fleet;
//! - [`DeviceStatus`] — the per-device outcome taxonomy that the journal
//!   and crowd database record;
//! - [`SessionChaos`] — a seeded spec that panics exactly N and stalls
//!   exactly M devices of a fleet, so the whole supervision path is
//!   deterministically testable end to end.
//!
//! # Honest limitation: supervision is cooperative
//!
//! Rust (deliberately) has no way to kill a thread. The watchdog is
//! enforced at *checkpoints* — once per simulated device step — using the
//! same polling discipline as [`crate::journal::CancelToken`]. A task that
//! livelocks between checkpoints (a bug in the simulator itself, not a
//! simulated fault) cannot be reclaimed; the wall-clock budget exists so
//! such a task is at least *detected* the next time it reaches a
//! checkpoint, and the process-level escape hatch is the second-SIGINT
//! hard exit in the CLIs. Simulated-time budgets, by contrast, are fully
//! deterministic: the same fleet, seed, and policy trips them at exactly
//! the same step on every run and at every thread count.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

use crate::BenchError;
use pv_faults::{FaultEvent, FaultKind};
use pv_json::{FromJson, Json, ToJson};
use pv_rng::{Rng, SeedableRng, StdRng};

/// Effectively-unbounded fault window used for injected session chaos: the
/// session never outlives it, so only a watchdog budget (or the end of the
/// sweep's patience) terminates the device. A large finite value rather
/// than `f64::INFINITY` so every serialization path stays valid JSON.
pub const STALL_FOREVER: f64 = 1.0e18;

/// How often (in charged checkpoints) the watchdog consults the wall
/// clock. Checkpoints fire once per simulated step (~tens of nanoseconds
/// of real time), so even amortized 256× the deadline is caught within
/// microseconds of real time — without putting `Instant::now()` in the
/// hot path.
const WALL_CHECK_INTERVAL: u32 = 256;

/// A supervision failure. Never transient (see
/// [`crate::BenchError::is_transient`]): watchdog trips bypass the
/// harness's iteration retry loop and surface at the device level, where
/// the sweep's escalation policy decides between retry, quarantine, and
/// fleet abort.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisionError {
    /// The session consumed its simulated-time budget. Deterministic: the
    /// same sweep trips this at the same simulated step on every run.
    SimBudget {
        /// The budget that was exceeded, in simulated seconds.
        limit_s: f64,
    },
    /// The session exceeded its wall-clock deadline. *Not* deterministic
    /// across machines or runs — a last-resort guard for runaway tasks,
    /// off by default in sweeps that promise bit-identical journals.
    WallClock {
        /// The deadline that was exceeded, in real seconds.
        limit_s: f64,
    },
    /// The session was killed from outside. No watchdog raises it; it
    /// classifies as [`DeviceStatus::TimedOut`] for callers that do.
    Killed,
    /// The sweep's escalation policy is [`OnFailure::Abort`] and a device
    /// exhausted its attempts, so the whole fleet run stopped.
    FleetAborted {
        /// Label of the device that triggered the abort.
        device: String,
        /// Attempts the device was given before the abort.
        attempts: u32,
        /// Final failure, rendered.
        detail: String,
    },
}

impl fmt::Display for SupervisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisionError::SimBudget { limit_s } => {
                write!(f, "session exceeded simulated-time budget of {limit_s} s")
            }
            SupervisionError::WallClock { limit_s } => {
                write!(f, "session exceeded wall-clock deadline of {limit_s} s")
            }
            SupervisionError::Killed => write!(f, "session killed by supervisor"),
            SupervisionError::FleetAborted {
                device,
                attempts,
                detail,
            } => write!(
                f,
                "fleet aborted: device {device} failed after {attempts} attempt(s): {detail}"
            ),
        }
    }
}

impl std::error::Error for SupervisionError {}

/// Per-session budgets, charged at cooperative checkpoints.
///
/// Construct one per attempt (budgets do not carry across retries), attach
/// it to a [`crate::harness::Harness`] via
/// [`with_watchdog`](crate::harness::Harness::with_watchdog), and the
/// harness charges every simulated step against it.
#[derive(Debug)]
pub struct Watchdog {
    max_sim: Option<f64>,
    sim_elapsed: f64,
    max_wall: Option<f64>,
    started: Instant,
    checks_until_wall: u32,
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchdog {
    /// A watchdog with no budgets armed — every charge succeeds.
    pub fn new() -> Self {
        Self {
            max_sim: None,
            sim_elapsed: 0.0,
            max_wall: None,
            started: Instant::now(),
            checks_until_wall: WALL_CHECK_INTERVAL,
        }
    }

    /// Arms a simulated-time budget: the session may consume at most
    /// `seconds` of simulated time across its whole run (all iterations,
    /// retries, and backoff waits included). Deterministic.
    pub fn with_sim_budget(mut self, seconds: f64) -> Self {
        self.max_sim = Some(seconds);
        self
    }

    /// Arms a wall-clock deadline measured from construction. Checked
    /// every `WALL_CHECK_INTERVAL` charges; see the module docs for why
    /// this is a guard, not a determinism mechanism.
    pub fn with_wall_limit(mut self, seconds: f64) -> Self {
        self.max_wall = Some(seconds);
        self
    }

    /// Charges `dt` simulated seconds against the budgets.
    ///
    /// # Errors
    ///
    /// Returns the matching [`SupervisionError`] when a budget is
    /// exhausted.
    pub fn charge(&mut self, dt: f64) -> Result<(), SupervisionError> {
        self.sim_elapsed += dt;
        if let Some(limit) = self.max_sim {
            if self.sim_elapsed > limit {
                return Err(SupervisionError::SimBudget { limit_s: limit });
            }
        }
        if let Some(limit) = self.max_wall {
            self.checks_until_wall -= 1;
            if self.checks_until_wall == 0 {
                self.checks_until_wall = WALL_CHECK_INTERVAL;
                if self.started.elapsed().as_secs_f64() > limit {
                    return Err(SupervisionError::WallClock { limit_s: limit });
                }
            }
        }
        Ok(())
    }
}

/// What happens to the fleet when one device exhausts its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnFailure {
    /// Record the device as quarantined and keep sweeping — the sweep
    /// completes `Degraded` with explicit hole accounting.
    Quarantine,
    /// Journal the failing device, then stop the whole sweep with
    /// [`SupervisionError::FleetAborted`].
    Abort,
}

impl OnFailure {
    /// Stable name used by CLI flags and config digests.
    pub fn as_str(self) -> &'static str {
        match self {
            OnFailure::Quarantine => "quarantine",
            OnFailure::Abort => "abort",
        }
    }

    /// Inverse of [`OnFailure::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quarantine" => Some(OnFailure::Quarantine),
            "abort" => Some(OnFailure::Abort),
            _ => None,
        }
    }
}

impl fmt::Display for OnFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a supervised sweep treats a misbehaving device.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionPolicy {
    /// Session attempts per device before escalation (≥ 1). Each retry
    /// runs on a pristine clone of the device with a fresh watchdog.
    pub max_attempts: u32,
    /// What a device's final failure does to the fleet.
    pub on_failure: OnFailure,
    /// Per-attempt wall-clock deadline in real seconds (the CLI's
    /// `--max-task-seconds`). `None` leaves wall time unbounded, which is
    /// the default because wall trips are nondeterministic.
    pub max_wall_seconds: Option<f64>,
    /// Per-attempt simulated-time budget. `None` means the sweep derives a
    /// generous deterministic default from the protocol (see
    /// [`crate::crowd::SweepConfig`]), so even a wedged session always
    /// terminates.
    pub max_sim_seconds: Option<f64>,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            on_failure: OnFailure::Quarantine,
            max_wall_seconds: None,
            max_sim_seconds: None,
        }
    }
}

impl SupervisionPolicy {
    /// Stable serialization folded into sweep config digests, so resuming
    /// a journal under a different policy is refused loudly.
    pub fn digest_string(&self) -> String {
        let fmt_opt = |v: &Option<f64>| match v {
            Some(x) => format!("{x}"),
            None => "none".to_string(),
        };
        format!(
            "attempts={},on-failure={},wall={},sim={}",
            self.max_attempts,
            self.on_failure,
            fmt_opt(&self.max_wall_seconds),
            fmt_opt(&self.max_sim_seconds),
        )
    }
}

/// Final supervision status of one device in a sweep.
///
/// `Completed` covers both accepted and (PR 1 style) quality-quarantined
/// sessions — the session *ran to the end* and produced a verdict. The
/// other three are supervision holes: the device contributed no verdict
/// and is excluded from fleet statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceStatus {
    /// The session ran to completion (its verdict may still be Quarantine
    /// on quality grounds — see `SweepOutcome::verdict`).
    Completed,
    /// Every attempt panicked; the payload is summarized in the outcome.
    Panicked,
    /// Every attempt tripped a watchdog budget.
    TimedOut,
    /// Every attempt failed with a fatal (non-panic) session error.
    Failed,
}

impl DeviceStatus {
    /// Stable name used in journals and JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceStatus::Completed => "completed",
            DeviceStatus::Panicked => "panicked",
            DeviceStatus::TimedOut => "timed-out",
            DeviceStatus::Failed => "failed",
        }
    }

    /// Final status of a session that ended in `error`: a tripped watchdog
    /// budget or a kill is [`DeviceStatus::TimedOut`], anything else
    /// [`DeviceStatus::Failed`].
    pub fn of_error(error: &BenchError) -> Self {
        match error {
            BenchError::Supervision(
                SupervisionError::SimBudget { .. }
                | SupervisionError::WallClock { .. }
                | SupervisionError::Killed,
            ) => DeviceStatus::TimedOut,
            _ => DeviceStatus::Failed,
        }
    }

    /// Inverse of [`DeviceStatus::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(DeviceStatus::Completed),
            "panicked" => Some(DeviceStatus::Panicked),
            "timed-out" => Some(DeviceStatus::TimedOut),
            "failed" => Some(DeviceStatus::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for DeviceStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for DeviceStatus {
    fn to_json(&self) -> Json {
        Json::String(self.as_str().to_string())
    }
}

impl FromJson for DeviceStatus {
    fn from_json(value: &Json) -> Option<Self> {
        DeviceStatus::parse(value.as_str()?)
    }
}

/// A seeded chaos spec: panic exactly `panic_devices` and stall exactly
/// `stall_devices` devices of a fleet, chosen pseudo-randomly but
/// deterministically from `seed`.
///
/// Victims are sampled without replacement (panic victims first, then
/// stall victims from the remainder), so the two sets are disjoint and a
/// chaos sweep quarantines *exactly* `panic_devices + stall_devices`
/// devices — the property the acceptance tests pin down.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionChaos {
    /// Seed for victim selection.
    pub seed: u64,
    /// Number of devices whose sessions panic.
    pub panic_devices: usize,
    /// Number of devices whose sessions wedge until a budget expires.
    pub stall_devices: usize,
    /// When (on the session's fault clock, in simulated seconds) the
    /// injected misbehaviour begins.
    pub at: f64,
}

impl SessionChaos {
    /// A chaos spec striking `at` 60 simulated seconds — early enough to
    /// hit every session's first iteration.
    pub fn new(seed: u64, panic_devices: usize, stall_devices: usize) -> Self {
        Self {
            seed,
            panic_devices,
            stall_devices,
            at: 60.0,
        }
    }

    /// Overrides the strike time.
    pub fn striking_at(mut self, at: f64) -> Self {
        self.at = at;
        self
    }

    /// The victim sets for a fleet of `fleet` devices: `(panic victims,
    /// stall victims)`, disjoint, deterministic in `seed`.
    pub fn victims(&self, fleet: usize) -> (BTreeSet<usize>, BTreeSet<usize>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let want_panic = self.panic_devices.min(fleet);
        let want_stall = self.stall_devices.min(fleet - want_panic);
        let mut taken = BTreeSet::new();
        let mut panics = BTreeSet::new();
        while panics.len() < want_panic {
            let i = rng.gen_range(0..fleet);
            if taken.insert(i) {
                panics.insert(i);
            }
        }
        let mut stalls = BTreeSet::new();
        while stalls.len() < want_stall {
            let i = rng.gen_range(0..fleet);
            if taken.insert(i) {
                stalls.insert(i);
            }
        }
        (panics, stalls)
    }

    /// Draws the victim sets for a fleet of `fleet` devices once, so a
    /// sweep looks each device up instead of redrawing them per attempt.
    pub(crate) fn resolve(&self, fleet: usize) -> ChaosVictims {
        let (panics, stalls) = self.victims(fleet);
        ChaosVictims {
            panics,
            stalls,
            at: self.at,
        }
    }

    /// The chaos events to splice into device `index`'s fault plan (empty
    /// for non-victims). Windows are effectively unbounded
    /// ([`STALL_FOREVER`]), so only supervision ends a victim's session.
    ///
    /// Each call draws the victim sets afresh; the sweep engine draws them
    /// once per sweep and looks every device up in them.
    pub fn events_for(&self, index: usize, fleet: usize) -> Vec<FaultEvent> {
        self.resolve(fleet).events_for(index)
    }

    /// Stable serialization folded into sweep config digests.
    pub fn digest_string(&self) -> String {
        format!(
            "seed={},panic={},stall={},at={}",
            self.seed, self.panic_devices, self.stall_devices, self.at
        )
    }
}

/// A [`SessionChaos`] resolved against one fleet size: its victim sets,
/// drawn once by [`SessionChaos::resolve`].
#[derive(Debug)]
pub(crate) struct ChaosVictims {
    panics: BTreeSet<usize>,
    stalls: BTreeSet<usize>,
    at: f64,
}

impl ChaosVictims {
    /// [`SessionChaos::events_for`] on the resolved victim sets.
    pub(crate) fn events_for(&self, index: usize) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        if self.panics.contains(&index) {
            events.push(FaultEvent {
                at: self.at,
                duration: STALL_FOREVER,
                kind: FaultKind::SessionPanic,
                magnitude: 0.0,
            });
        }
        if self.stalls.contains(&index) {
            events.push(FaultEvent {
                at: self.at,
                duration: STALL_FOREVER,
                kind: FaultKind::SessionStall,
                magnitude: 0.0,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_watchdog_never_trips() {
        let mut w = Watchdog::new();
        for _ in 0..10_000 {
            w.charge(1.0e6).unwrap();
        }
    }

    #[test]
    fn sim_budget_trips_deterministically() {
        let mut w = Watchdog::new().with_sim_budget(10.0);
        for _ in 0..10 {
            w.charge(1.0).unwrap();
        }
        assert_eq!(
            w.charge(0.5),
            Err(SupervisionError::SimBudget { limit_s: 10.0 })
        );
        assert!(w.sim_elapsed > 10.0);
    }

    #[test]
    fn wall_limit_trips_within_the_check_interval() {
        // A deadline in the past must trip within WALL_CHECK_INTERVAL
        // charges, never later.
        let mut w = Watchdog::new().with_wall_limit(-1.0);
        let mut tripped = 0;
        for _ in 0..WALL_CHECK_INTERVAL {
            if w.charge(0.1).is_err() {
                tripped += 1;
            }
        }
        assert_eq!(tripped, 1);
    }

    #[test]
    fn status_and_policy_names_round_trip() {
        for s in [
            DeviceStatus::Completed,
            DeviceStatus::Panicked,
            DeviceStatus::TimedOut,
            DeviceStatus::Failed,
        ] {
            assert_eq!(DeviceStatus::parse(s.as_str()), Some(s));
            assert_eq!(DeviceStatus::from_json(&s.to_json()), Some(s));
        }
        for p in [OnFailure::Quarantine, OnFailure::Abort] {
            assert_eq!(OnFailure::parse(p.as_str()), Some(p));
        }
        assert_eq!(DeviceStatus::parse("nope"), None);
        assert_eq!(OnFailure::parse("nope"), None);
    }

    #[test]
    fn watchdog_trips_are_timeouts_and_other_errors_failures() {
        let status = |e: SupervisionError| DeviceStatus::of_error(&e.into());
        assert_eq!(status(SupervisionError::Killed), DeviceStatus::TimedOut);
        let wall = SupervisionError::WallClock { limit_s: 1.0 };
        assert_eq!(status(wall), DeviceStatus::TimedOut);
        let protocol = BenchError::InvalidProtocol("bad");
        assert_eq!(DeviceStatus::of_error(&protocol), DeviceStatus::Failed);
    }

    #[test]
    fn chaos_victims_are_exact_disjoint_and_deterministic() {
        let chaos = SessionChaos::new(0xC4A05, 5, 3);
        let (p1, s1) = chaos.victims(1000);
        let (p2, s2) = chaos.victims(1000);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        assert_eq!(p1.len(), 5);
        assert_eq!(s1.len(), 3);
        assert!(p1.is_disjoint(&s1));
        let hit: usize = (0..1000)
            .map(|i| usize::from(!chaos.events_for(i, 1000).is_empty()))
            .sum();
        assert_eq!(hit, 8);
    }

    #[test]
    fn chaos_clamps_to_the_fleet() {
        let chaos = SessionChaos::new(1, 10, 10);
        let (p, s) = chaos.victims(4);
        assert_eq!(p.len(), 4);
        assert_eq!(s.len(), 0);
        let (p, s) = SessionChaos::new(2, 0, 0).victims(0);
        assert!(p.is_empty() && s.is_empty());
    }

    #[test]
    fn digest_strings_cover_every_field() {
        let a = SupervisionPolicy::default().digest_string();
        let b = SupervisionPolicy {
            max_attempts: 2,
            ..SupervisionPolicy::default()
        }
        .digest_string();
        assert_ne!(a, b);
        let c = SessionChaos::new(1, 2, 3).digest_string();
        let d = SessionChaos::new(1, 2, 3).striking_at(99.0).digest_string();
        assert_ne!(c, d);
    }
}
