//! Deterministic fault injection for benchmark sessions.
//!
//! Real measurement campaigns fail in mundane ways: a thermocouple reads a
//! stuck value, a power meter drops off the USB bus, the chamber controller
//! wedges, a big core hot-unplugs mid-workload. This crate models those
//! failures as *seeded, schedulable plans* so the resilience machinery in
//! the harness (retry, quarantine, quality gates) can be exercised — and
//! regression-tested — fully deterministically.
//!
//! The moving parts:
//!
//! - [`FaultKind`] — the taxonomy of injectable failures.
//! - [`FaultEvent`] — one failure window: start time, duration, kind, and a
//!   kind-specific magnitude.
//! - [`FaultPlan`] — a seed plus a sorted list of events. Plans can be
//!   written by hand, parsed from a small TOML subset, or generated
//!   pseudo-randomly from a seed (same seed ⇒ same plan, always).
//! - [`FaultHandle`] — the runtime side. Wrappers around the probe, meter,
//!   chamber, and device share one cloneable handle, ask it "is fault X
//!   active now?", and log a [`FaultReport`] whenever a fault actually
//!   perturbed an observation.
//!
//! A disarmed handle ([`FaultHandle::disarmed`]) answers "no" to every
//! query without consuming randomness or doing arithmetic, so wrapped
//! components are bit-identical to bare ones when no plan is armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use pv_json::{Json, ToJson};
use pv_rng::{Rng, SeedableRng, StdRng};

/// Every failure mode the injector knows how to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Temperature probe repeats its last reading regardless of the plant.
    ProbeStuck,
    /// Temperature probe returns nothing (sample lost).
    ProbeDropout,
    /// Temperature probe adds a large transient offset to one reading.
    ProbeSpike,
    /// Energy meter silently skips samples (under-counts energy).
    MeterMissedSample,
    /// Energy meter drops off the bus entirely for the window.
    MeterDisconnect,
    /// Energy meter gain drifts by a multiplicative factor.
    MeterGainDrift,
    /// Chamber air temperature is pushed outside its control band.
    ChamberBandExcursion,
    /// Chamber controller stops actuating (holds last heater/cooler mode).
    ChamberControllerStall,
    /// Governor glitch: device is forced to its lowest frequency.
    ThrottleGlitch,
    /// A core cluster hot-unplugs and replugs; reads during the window fail.
    HotplugFlap,
    /// The benchmark session itself panics at the next cooperative
    /// checkpoint inside the window — a crashed runner process, injected
    /// to exercise the sweep supervisor's `catch_unwind` isolation.
    SessionPanic,
    /// The benchmark session wedges: simulated time keeps passing but the
    /// protocol makes no progress until the window ends (or a watchdog
    /// budget expires). Injected to exercise `TimedOut` supervision.
    SessionStall,
    /// Storage: writes fail with `ENOSPC` (disk full) inside the window.
    /// Shrinking truncates and fsyncs still succeed, so a journal can seal
    /// its prefix and degrade gracefully.
    StorageEnospc,
    /// Storage: operations fail with a *transient* `EIO` inside the
    /// window — a retry after the window clears succeeds.
    StorageEioTransient,
    /// Storage: operations fail with a *persistent* `EIO` from the window
    /// start onward, forever — the medium is gone. Retries never help;
    /// only rotation to a fresh segment (a different "disk region") or
    /// degradation can.
    StorageEioPersistent,
    /// Storage: a write persists only a prefix of its buffer, then errors.
    /// Transient — but retrying blindly would duplicate the prefix, so the
    /// writer must repair its tail first.
    StorageShortWrite,
    /// Storage: `fsync` reports success without making anything durable.
    /// Invisible until a crash; the torture harness pairs it with a
    /// simulated power cycle.
    StorageFsyncLie,
    /// Storage: the unsynced tail written before a crash lands torn and
    /// bit-corrupted. Injected at *crash* time (see the crash-simulating
    /// in-memory backend), not on the live I/O path.
    StorageTornWrite,
}

/// The *instrument* fault kinds, in a stable order (used by plan
/// generation and tests). The session-level chaos kinds
/// ([`FaultKind::SessionPanic`], [`FaultKind::SessionStall`]) are
/// deliberately excluded: random instrument faults model a flaky lab,
/// while session chaos is injected explicitly by supervision tests.
pub const ALL_KINDS: [FaultKind; 10] = [
    FaultKind::ProbeStuck,
    FaultKind::ProbeDropout,
    FaultKind::ProbeSpike,
    FaultKind::MeterMissedSample,
    FaultKind::MeterDisconnect,
    FaultKind::MeterGainDrift,
    FaultKind::ChamberBandExcursion,
    FaultKind::ChamberControllerStall,
    FaultKind::ThrottleGlitch,
    FaultKind::HotplugFlap,
];

/// The session-level chaos kinds, in a stable order. These terminate (or
/// wedge) the *session task* rather than perturbing an instrument, so they
/// are injected deliberately — never drawn by [`FaultPlan::generate`] unless
/// a caller asks for them by name.
pub const SESSION_KINDS: [FaultKind; 2] = [FaultKind::SessionPanic, FaultKind::SessionStall];

/// The storage fault kinds, in a stable order. These bite the durability
/// layer (journal, exporter) rather than an instrument or the session
/// task, and their events run on an *operation-index* clock: `at` is the
/// ordinal of the first affected storage operation and `duration` a count
/// of operations, not seconds. Like [`SESSION_KINDS`] they are excluded
/// from [`FaultPlan::generate`] unless asked for by name.
pub const STORAGE_KINDS: [FaultKind; 6] = [
    FaultKind::StorageEnospc,
    FaultKind::StorageEioTransient,
    FaultKind::StorageEioPersistent,
    FaultKind::StorageShortWrite,
    FaultKind::StorageFsyncLie,
    FaultKind::StorageTornWrite,
];

impl FaultKind {
    /// How many fault kinds there are: the length of a table indexed by
    /// [`FaultKind::index`].
    pub const COUNT: usize = 18;

    /// Dense index in `0..FaultKind::COUNT`, in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name used in TOML plans and JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ProbeStuck => "probe-stuck",
            FaultKind::ProbeDropout => "probe-dropout",
            FaultKind::ProbeSpike => "probe-spike",
            FaultKind::MeterMissedSample => "meter-missed-sample",
            FaultKind::MeterDisconnect => "meter-disconnect",
            FaultKind::MeterGainDrift => "meter-gain-drift",
            FaultKind::ChamberBandExcursion => "chamber-band-excursion",
            FaultKind::ChamberControllerStall => "chamber-controller-stall",
            FaultKind::ThrottleGlitch => "throttle-glitch",
            FaultKind::HotplugFlap => "hotplug-flap",
            FaultKind::SessionPanic => "session-panic",
            FaultKind::SessionStall => "session-stall",
            FaultKind::StorageEnospc => "storage-enospc",
            FaultKind::StorageEioTransient => "storage-eio-transient",
            FaultKind::StorageEioPersistent => "storage-eio-persistent",
            FaultKind::StorageShortWrite => "storage-short-write",
            FaultKind::StorageFsyncLie => "storage-fsync-lie",
            FaultKind::StorageTornWrite => "storage-torn-write",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        ALL_KINDS
            .iter()
            .chain(SESSION_KINDS.iter())
            .chain(STORAGE_KINDS.iter())
            .copied()
            .find(|k| k.as_str() == s)
    }

    /// Whether this kind targets the storage layer (see [`STORAGE_KINDS`]).
    pub fn is_storage(self) -> bool {
        STORAGE_KINDS.contains(&self)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for FaultKind {
    fn to_json(&self) -> Json {
        Json::String(self.as_str().to_string())
    }
}

/// One scheduled failure window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Start time, seconds from session start.
    pub at: f64,
    /// Window length in seconds; must be positive. On the storage
    /// operation clock, `duration = 1` covers exactly operation `at`. A
    /// window of zero length covers nothing, so it never fires.
    pub duration: f64,
    /// What fails.
    pub kind: FaultKind,
    /// Kind-specific severity. For gain drift this is the multiplicative
    /// error (e.g. `0.05` ⇒ ×1.05); for spikes, the offset in kelvin; for
    /// band excursions, the push in kelvin; kinds that are purely on/off
    /// ignore it.
    pub magnitude: f64,
}

impl FaultEvent {
    /// Whether the window covers time `t` (half-open, `[at, at+duration)`).
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.at && t < self.at + self.duration
    }

    /// Whether the window can fire: a finite `at >= 0`, a finite
    /// `duration > 0` and a finite `magnitude`. Any other window covers no
    /// time, or perturbs with a non-number, so it would be armed in vain.
    pub fn can_fire(&self) -> bool {
        self.at.is_finite()
            && self.at >= 0.0
            && self.duration.is_finite()
            && self.duration > 0.0
            && self.magnitude.is_finite()
    }
}

pv_json::impl_to_json!(FaultEvent {
    at,
    duration,
    kind,
    magnitude
});

/// A complete, deterministic schedule of faults for one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed recorded for provenance (and used by [`FaultPlan::generate`]).
    pub seed: u64,
    /// Events, kept sorted by start time.
    pub events: Vec<FaultEvent>,
}

pv_json::impl_to_json!(FaultPlan { seed, events });

impl FaultPlan {
    /// An empty plan: nothing ever fails.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds one event, keeping the schedule sorted by start time.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self.events
            .sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        self
    }

    /// Generates a plan pseudo-randomly: fault arrivals follow an
    /// exponential inter-arrival process with mean `mean_interval_s`
    /// seconds over `[0, horizon_s)`, each drawing a kind uniformly from
    /// `kinds`, a duration in `[1, 30)` s, and a magnitude in `[0, 1)`.
    ///
    /// The same `(seed, horizon_s, mean_interval_s, kinds)` always yields
    /// the same plan.
    pub fn generate(seed: u64, horizon_s: f64, mean_interval_s: f64, kinds: &[FaultKind]) -> Self {
        assert!(mean_interval_s > 0.0, "mean interval must be positive");
        assert!(!kinds.is_empty(), "need at least one fault kind");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0;
        loop {
            // Inverse-CDF exponential gap; u in [0,1) so 1-u in (0,1].
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() * mean_interval_s;
            if t >= horizon_s {
                break;
            }
            events.push(FaultEvent {
                at: t,
                duration: rng.gen_range(1.0..30.0),
                kind: kinds[rng.gen_range(0..kinds.len())],
                magnitude: rng.gen_range(0.0..1.0),
            });
        }
        Self { seed, events }
    }

    /// Parses a small TOML subset:
    ///
    /// ```toml
    /// seed = 42
    ///
    /// [[event]]
    /// at = 120.0
    /// duration = 10.0
    /// kind = "probe-dropout"
    /// magnitude = 0.0
    /// ```
    ///
    /// Comments (`#`) and blank lines are ignored. Unknown keys, unknown
    /// kinds, and malformed lines are errors, and so is a number that is
    /// not finite, a negative `at` or a `duration` that is not positive:
    /// such a window could never fire.
    pub fn from_toml_str(input: &str) -> Result<Self, PlanParseError> {
        #[derive(Default)]
        struct Partial {
            at: Option<f64>,
            duration: Option<f64>,
            kind: Option<FaultKind>,
            magnitude: Option<f64>,
        }
        fn finish(p: Partial, line: usize) -> Result<FaultEvent, PlanParseError> {
            let err = |what: &str| PlanParseError {
                line,
                message: format!("event is missing `{what}`"),
            };
            Ok(FaultEvent {
                at: p.at.ok_or_else(|| err("at"))?,
                duration: p.duration.ok_or_else(|| err("duration"))?,
                kind: p.kind.ok_or_else(|| err("kind"))?,
                magnitude: p.magnitude.unwrap_or(0.0),
            })
        }

        let mut plan = FaultPlan::empty();
        let mut current: Option<(Partial, usize)> = None;
        for (idx, raw) in input.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[event]]" {
                if let Some((partial, opened)) = current.take() {
                    plan.events.push(finish(partial, opened)?);
                }
                current = Some((Partial::default(), lineno));
                continue;
            }
            if line.starts_with('[') {
                return Err(PlanParseError {
                    line: lineno,
                    message: format!("unknown section `{line}`"),
                });
            }
            let (key, value) = line.split_once('=').ok_or_else(|| PlanParseError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            let num = |v: &str, valid: fn(f64) -> bool, what: &str| {
                let err = |message| PlanParseError {
                    line: lineno,
                    message,
                };
                match v.parse::<f64>() {
                    Ok(x) if x.is_finite() && valid(x) => Ok(x),
                    Ok(_) => Err(err(format!("`{key}` must be {what}, not `{v}`"))),
                    Err(_) => Err(err(format!("`{key}` is not a number: `{v}`"))),
                }
            };
            match (&mut current, key) {
                (None, "seed") => {
                    plan.seed = value.parse::<u64>().map_err(|_| PlanParseError {
                        line: lineno,
                        message: format!("`seed` is not an unsigned integer: `{value}`"),
                    })?;
                }
                (None, _) => {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("unknown top-level key `{key}`"),
                    });
                }
                (Some((partial, _)), "at") => {
                    partial.at = Some(num(value, |x| x >= 0.0, "a finite number >= 0")?)
                }
                (Some((partial, _)), "duration") => {
                    partial.duration = Some(num(value, |x| x > 0.0, "a finite number > 0")?)
                }
                (Some((partial, _)), "magnitude") => {
                    partial.magnitude = Some(num(value, |_| true, "a finite number")?)
                }
                (Some((partial, _)), "kind") => {
                    let name = value.trim_matches('"');
                    partial.kind = Some(FaultKind::parse(name).ok_or_else(|| PlanParseError {
                        line: lineno,
                        message: format!("unknown fault kind `{name}`"),
                    })?);
                }
                (Some(_), _) => {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("unknown event key `{key}`"),
                    });
                }
            }
        }
        if let Some((partial, opened)) = current.take() {
            plan.events.push(finish(partial, opened)?);
        }
        plan.events
            .sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        Ok(plan)
    }
}

/// Error from [`FaultPlan::from_toml_str`], carrying the 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

/// One record of a fault actually perturbing the session.
///
/// Reports are appended by the wrapper that applied the fault, in
/// simulation-time order, so for a fixed plan and workload the report
/// sequence is exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Simulation time (seconds from session start) the fault bit.
    pub at: f64,
    /// Which failure mode.
    pub kind: FaultKind,
    /// Magnitude of the scheduled event that caused it.
    pub magnitude: f64,
    /// What the wrapper did about it.
    pub detail: String,
}

pv_json::impl_to_json!(FaultReport {
    at,
    kind,
    magnitude,
    detail
});

/// Runtime state: the armed plan indexed by kind, the simulation clock,
/// and the report log.
#[derive(Debug)]
struct Injector {
    /// The plan's events, stably sorted by kind, so each kind's events
    /// keep their plan order.
    events: Vec<FaultEvent>,
    /// Kind `k`'s events are `events[by_kind[k]..by_kind[k + 1]]`.
    by_kind: [usize; FaultKind::COUNT + 1],
    now: f64,
    reports: Vec<FaultReport>,
    reported: HashSet<(FaultKind, u64)>,
}

impl Injector {
    fn new(plan: FaultPlan) -> Self {
        let mut events = plan.events;
        events.sort_by_key(|e| e.kind.index());
        let mut by_kind = [0; FaultKind::COUNT + 1];
        for e in &events {
            by_kind[e.kind.index() + 1] += 1;
        }
        for k in 0..FaultKind::COUNT {
            by_kind[k + 1] += by_kind[k];
        }
        Self {
            events,
            by_kind,
            now: 0.0,
            reports: Vec::new(),
            reported: HashSet::new(),
        }
    }

    /// The first event of `kind`, in plan order, covering the current
    /// time. Every event of the kind is examined: [`FaultPlan::events`] is
    /// public, so a hand-built plan need not be sorted by start time.
    fn active(&self, kind: FaultKind) -> Option<FaultEvent> {
        let k = kind.index();
        self.events[self.by_kind[k]..self.by_kind[k + 1]]
            .iter()
            .find(|e| e.active_at(self.now))
            .cloned()
    }
}

/// Cloneable handle shared by every fault-aware wrapper in a session.
///
/// All wrappers (probe, meter, chamber, device) hold clones of one handle,
/// so they agree on the simulation clock and append to a single report log.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    inner: Option<Rc<RefCell<Injector>>>,
}

impl FaultHandle {
    /// A handle with no plan: every query is a cheap `None`, nothing is
    /// recorded, and wrapped components behave bit-identically to bare
    /// ones.
    pub fn disarmed() -> Self {
        Self { inner: None }
    }

    /// Arms a plan. The clock starts at zero. The plan's events are
    /// grouped by kind once here, so each [`FaultHandle::active`] query
    /// scans only the events of the kind it asks about.
    ///
    /// # Panics
    ///
    /// Panics if an event cannot fire ([`FaultEvent::can_fire`]). A plan
    /// read by [`FaultPlan::from_toml_str`] never holds one.
    pub fn armed(plan: FaultPlan) -> Self {
        for e in &plan.events {
            assert!(e.can_fire(), "fault event can never fire: {e:?}");
        }
        Self {
            inner: Some(Rc::new(RefCell::new(Injector::new(plan)))),
        }
    }

    /// Whether a plan is armed.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the shared simulation clock by `dt` seconds.
    pub fn advance(&self, dt: f64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now += dt;
        }
    }

    /// Current simulation time in seconds (zero when disarmed).
    pub fn now(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.borrow().now)
    }

    /// The first scheduled event of `kind` (in plan order) covering the
    /// current time, if any. Disarmed handles always return `None`.
    ///
    /// Inlined so the disarmed check costs wrapped components no call.
    #[inline]
    pub fn active(&self, kind: FaultKind) -> Option<FaultEvent> {
        self.inner.as_ref()?.borrow().active(kind)
    }

    /// Records that `event` actually perturbed the session, with a short
    /// description of the effect. No-op when disarmed.
    pub fn report(&self, event: &FaultEvent, detail: impl Into<String>) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let at = inner.now;
            inner.reports.push(FaultReport {
                at,
                kind: event.kind,
                magnitude: event.magnitude,
                detail: detail.into(),
            });
        }
    }

    /// Like [`FaultHandle::report`], but deduplicated per scheduled event:
    /// the first call for a given `(kind, at)` logs and returns `true`,
    /// repeats (e.g. one fault window perturbing thousands of samples, or
    /// the same window biting several retry attempts) return `false`
    /// silently. Keeps report logs bounded and replay-comparable.
    ///
    /// `detail` runs only for a fresh report, so a window perturbing every
    /// step formats its description once, not once per step.
    pub fn report_once(&self, event: &FaultEvent, detail: impl FnOnce() -> String) -> bool {
        if let Some(inner) = &self.inner {
            let fresh = inner
                .borrow_mut()
                .reported
                .insert((event.kind, event.at.to_bits()));
            if fresh {
                self.report(event, detail());
            }
            fresh
        } else {
            false
        }
    }

    /// Snapshot of the report log so far.
    pub fn reports(&self) -> Vec<FaultReport> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().reports.clone())
    }

    /// Number of reports logged so far (cheaper than [`FaultHandle::reports`]).
    pub fn report_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().reports.len())
    }
}

impl Default for FaultHandle {
    fn default() -> Self {
        Self::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ALL_KINDS
            .iter()
            .chain(SESSION_KINDS.iter())
            .chain(STORAGE_KINDS.iter())
            .copied()
        {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }

    #[test]
    fn kind_indices_are_dense_and_distinct() {
        let mut seen = [false; FaultKind::COUNT];
        for kind in ALL_KINDS
            .iter()
            .chain(SESSION_KINDS.iter())
            .chain(STORAGE_KINDS.iter())
        {
            assert!(!seen[kind.index()], "{kind} shares an index");
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every index names a kind");
    }

    #[test]
    fn session_kinds_stay_out_of_the_instrument_list() {
        for kind in SESSION_KINDS {
            assert!(!ALL_KINDS.contains(&kind));
        }
    }

    #[test]
    fn storage_kinds_stay_out_of_the_instrument_list() {
        for kind in STORAGE_KINDS {
            assert!(!ALL_KINDS.contains(&kind));
            assert!(kind.is_storage());
        }
        for kind in ALL_KINDS.iter().chain(SESSION_KINDS.iter()) {
            assert!(!kind.is_storage());
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(9, 3600.0, 120.0, &ALL_KINDS);
        let b = FaultPlan::generate(9, 3600.0, 120.0, &ALL_KINDS);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = FaultPlan::generate(10, 3600.0, 120.0, &ALL_KINDS);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_events_are_sorted_and_in_horizon() {
        let plan = FaultPlan::generate(3, 1800.0, 60.0, &ALL_KINDS);
        for pair in plan.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in &plan.events {
            assert!(e.at >= 0.0 && e.at < 1800.0);
            assert!(e.duration >= 1.0 && e.duration < 30.0);
        }
    }

    #[test]
    fn toml_round_trip() {
        let plan = FaultPlan::generate(17, 900.0, 90.0, &ALL_KINDS);
        let mut toml = format!("seed = {}\n", plan.seed);
        for e in &plan.events {
            toml.push_str(&format!(
                "\n[[event]]\nat = {}\nduration = {}\nkind = \"{}\"\nmagnitude = {}\n",
                e.at,
                e.duration,
                e.kind.as_str(),
                e.magnitude
            ));
        }
        let parsed = FaultPlan::from_toml_str(&toml).unwrap();
        assert_eq!(plan.seed, parsed.seed);
        assert_eq!(plan.events.len(), parsed.events.len());
        for (a, b) in plan.events.iter().zip(&parsed.events) {
            assert_eq!(a.kind, b.kind);
            assert!((a.at - b.at).abs() < 1e-9);
            assert!((a.duration - b.duration).abs() < 1e-9);
            assert!((a.magnitude - b.magnitude).abs() < 1e-9);
        }
    }

    #[test]
    fn toml_parse_errors_carry_line_numbers() {
        let err = FaultPlan::from_toml_str("seed = x").unwrap_err();
        assert_eq!(err.line, 1);
        let err = FaultPlan::from_toml_str("seed = 1\n\n[[event]]\nat = 0\n").unwrap_err();
        assert_eq!(err.line, 3, "missing keys reported at the section header");
        let err = FaultPlan::from_toml_str("[[event]]\nat = 0\nduration = 1\nkind = \"bogus\"\n")
            .unwrap_err();
        assert_eq!(err.line, 4);
        // Windows that could never fire are refused on their own line.
        for (key, value) in [
            ("duration", "0"),
            ("duration", "-1"),
            ("duration", "nan"),
            ("duration", "inf"),
            ("at", "-0.5"),
            ("at", "inf"),
            ("at", "NaN"),
            ("magnitude", "nan"),
            ("magnitude", "-inf"),
        ] {
            let text = format!(
                "seed = 1\n[[event]]\nat = 1\nduration = 1\nkind = \"probe-spike\"\n{key} = {value}\n"
            );
            let err = FaultPlan::from_toml_str(&text).unwrap_err();
            assert_eq!(err.line, 6, "{key} = {value}: {err}");
            assert!(err.message.contains(key), "{key} = {value}: {err}");
            // Each refused value fails `can_fire` too.
            let mut e = FaultEvent {
                at: 1.0,
                duration: 1.0,
                kind: FaultKind::ProbeSpike,
                magnitude: 0.0,
            };
            let x: f64 = value.parse().unwrap();
            match key {
                "at" => e.at = x,
                "duration" => e.duration = x,
                _ => e.magnitude = x,
            }
            assert!(!e.can_fire(), "{key} = {value}");
        }
    }

    #[test]
    #[should_panic(expected = "fault event can never fire")]
    fn armed_handle_refuses_a_window_that_cannot_fire() {
        let _ = FaultHandle::armed(FaultPlan::empty().with_event(FaultEvent {
            at: 10.0,
            duration: 0.0,
            kind: FaultKind::MeterDisconnect,
            magnitude: 0.0,
        }));
    }

    #[test]
    fn toml_accepts_comments_and_unquoted_kind() {
        let text =
            "# plan\nseed = 5 # trailing\n[[event]]\nat = 1.5\nduration = 2\nkind = probe-spike\n";
        let plan = FaultPlan::from_toml_str(text).unwrap();
        assert_eq!(plan.seed, 5);
        assert_eq!(plan.events[0].kind, FaultKind::ProbeSpike);
        assert_eq!(plan.events[0].magnitude, 0.0);
    }

    #[test]
    fn disarmed_handle_is_inert() {
        let h = FaultHandle::disarmed();
        assert!(!h.is_armed());
        h.advance(100.0);
        assert_eq!(h.now(), 0.0);
        assert_eq!(h.active(FaultKind::ProbeStuck), None);
        let e = FaultEvent {
            at: 0.0,
            duration: 1.0,
            kind: FaultKind::ProbeStuck,
            magnitude: 0.0,
        };
        h.report(&e, "ignored");
        assert!(h.reports().is_empty());
    }

    #[test]
    fn armed_handle_activates_events_in_window() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 10.0,
            duration: 5.0,
            kind: FaultKind::MeterDisconnect,
            magnitude: 0.0,
        });
        let h = FaultHandle::armed(plan);
        assert_eq!(h.active(FaultKind::MeterDisconnect), None);
        h.advance(10.0);
        let e = h.active(FaultKind::MeterDisconnect).expect("in window");
        assert_eq!(h.active(FaultKind::ProbeStuck), None, "kind-scoped");
        h.report(&e, "meter offline");
        h.advance(5.0);
        assert_eq!(h.active(FaultKind::MeterDisconnect), None, "window closed");
        let reports = h.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].at, 10.0);
        assert_eq!(reports[0].kind, FaultKind::MeterDisconnect);
    }

    #[test]
    fn clones_share_clock_and_log() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 1.0,
            duration: 1.0,
            kind: FaultKind::HotplugFlap,
            magnitude: 0.5,
        });
        let a = FaultHandle::armed(plan);
        let b = a.clone();
        a.advance(1.0);
        let e = b.active(FaultKind::HotplugFlap).expect("shared clock");
        b.report(&e, "flap");
        assert_eq!(a.report_count(), 1);
    }
}
