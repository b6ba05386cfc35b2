//! Crowd database and device ranking — the paper's §VI vision.
//!
//! "Our goal would be to gather sufficient data from devices of various
//! smartphone models via crowdsourcing and then using this data to rank
//! other devices, thereby helping users and researchers determine the
//! characteristics of their smartphone and how it compares to other
//! smartphones of the same model."
//!
//! [`CrowdDatabase`] collects per-device ACCUBENCH scores with the "strict
//! filters" the paper prescribes (submissions with high iteration-to-
//! iteration RSD are rejected as thermally uncontrolled), and answers the
//! two §VI questions: *where does my device rank within its model?* and
//! *how wide is the spread for this model?*
//!
//! Fleet sweeps run under the **supervision layer** (DESIGN.md §12): every
//! device session is isolated with `catch_unwind`, budgeted by a
//! [`Watchdog`], escalated per [`SupervisionPolicy`], and journaled with a
//! typed [`DeviceStatus`] — so a sweep always terminates with an explicit,
//! deterministic account of every device.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::executor::{self, TaskOutcome};
use crate::harness::{Ambient, Harness};
use crate::journal::{
    fnv64, journal_outcome, prepare_journal, AttemptFailure, CancelToken, Journal, JournalError,
    JournaledOutcome, Record, Replay,
};
use crate::protocol::{CooldownTarget, Protocol};
use crate::report::TextTable;
use crate::session::{Session, Verdict};
use crate::storage::StorageEscalation;
use crate::supervise::{
    ChaosVictims, DeviceStatus, OnFailure, SessionChaos, SupervisionError, SupervisionPolicy,
    Watchdog,
};
use crate::BenchError;
use core::fmt;
use core::fmt::Write as _;
use pv_faults::{FaultHandle, FaultKind, FaultPlan};
use pv_soc::device::{Device, FrequencyMode};
use pv_soc::faulty::FaultyDevice;
use pv_stats::bootstrap::{bootstrap_mean_ci, ConfidenceInterval};
use pv_stats::Summary;
use pv_units::{Celsius, Seconds};
use std::collections::BTreeMap;

/// One accepted crowd submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdScore {
    /// Device model (`"Nexus 5"` …). Scores only compare within a model.
    pub model: String,
    /// Submitting device's label/id.
    pub device: String,
    /// Mean ACCUBENCH performance (iterations per workload window).
    pub score: f64,
    /// Iteration-to-iteration RSD (%) of the submission.
    pub rsd: f64,
}

/// A crowdsourced score database with admission filtering.
///
/// This is the exact, full-fleet **reference oracle**: it retains every
/// accepted submission, so memory grows O(devices). Large sweeps use the
/// streaming [`crate::aggregate::ScoreAggregate`] path instead (same
/// admission rule, O(bins + K) memory) and keep this path behind
/// `repro sweep --oracle` for cross-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdDatabase {
    max_rsd: f64,
    scores: Vec<CrowdScore>,
    rejected: usize,
    /// Per-model accepted scores in submission order, maintained on
    /// `submit` so statistics never re-scan the whole database.
    index: BTreeMap<String, Vec<f64>>,
}

impl CrowdDatabase {
    /// Creates a database that rejects submissions with RSD above
    /// `max_rsd_percent` — the paper's "strict filters" against
    /// measurements taken without thermal control.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for a non-positive filter.
    pub fn new(max_rsd_percent: f64) -> Result<Self, BenchError> {
        if !(max_rsd_percent > 0.0 && max_rsd_percent.is_finite()) {
            return Err(BenchError::InvalidProtocol("max_rsd must be > 0"));
        }
        Ok(Self {
            max_rsd: max_rsd_percent,
            scores: Vec::new(),
            rejected: 0,
            index: BTreeMap::new(),
        })
    }

    /// Submits a score. Returns `true` if accepted, `false` if filtered.
    ///
    /// The accept/reject *decision* is order-independent: each submission
    /// is judged only against the fixed RSD filter, never against earlier
    /// submissions, so the final [`rejected`](Self::rejected) count is the
    /// same however a batch is permuted. The database's *contents* are
    /// order-sensitive, though — [`scores`](Self::scores) preserves
    /// submission order, and the JSON serialisation embeds it. Fleet
    /// sweeps therefore commit submissions in **canonical device order**
    /// (index 0, 1, 2, …) behind the executor's single-writer merge step
    /// (see [`populate_parallel`]), which keeps databases, reports and
    /// journals bit-identical regardless of thread count.
    pub fn submit(&mut self, score: CrowdScore) -> bool {
        if !score.score.is_finite() || score.score <= 0.0 {
            self.rejected += 1;
            return false;
        }
        if !score.rsd.is_finite() || score.rsd > self.max_rsd {
            self.rejected += 1;
            return false;
        }
        self.index
            .entry(score.model.clone())
            .or_default()
            .push(score.score);
        self.scores.push(score);
        true
    }

    /// Accepted submissions.
    pub fn scores(&self) -> &[CrowdScore] {
        &self.scores
    }

    /// Number of filtered-out submissions.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// All accepted scores for one model, in submission order. Borrowed
    /// from the per-model index — no per-call collection.
    pub fn model_scores(&self, model: &str) -> &[f64] {
        self.index.get(model).map_or(&[], Vec::as_slice)
    }

    /// Percentile (0–100) of `score` within its model's accepted scores:
    /// the fraction of submissions it beats. Returns `None` when the model
    /// has no data.
    pub fn percentile(&self, model: &str, score: f64) -> Option<f64> {
        let scores = self.model_scores(model);
        if scores.is_empty() {
            return None;
        }
        let beaten = scores.iter().filter(|&&s| s < score).count();
        Some(beaten as f64 / scores.len() as f64 * 100.0)
    }

    /// Peak-to-peak performance spread (%) of a model's accepted scores —
    /// the §VI "range of quality for a particular device model". `None`
    /// with fewer than two submissions.
    pub fn model_spread_percent(&self, model: &str) -> Option<f64> {
        let scores = self.model_scores(model);
        if scores.len() < 2 {
            return None;
        }
        Summary::from_slice(scores)
            .ok()
            .map(|s| s.spread_percent_of_max())
    }

    /// Submissions of `model`, best first.
    pub fn ranking(&self, model: &str) -> Vec<&CrowdScore> {
        let mut rows: Vec<&CrowdScore> = self.scores.iter().filter(|s| s.model == model).collect();
        // Admission filtering guarantees finiteness, but a total order keeps
        // ranking panic-free even against future invariant slips.
        rows.sort_by(|a, b| b.score.total_cmp(&a.score));
        rows
    }

    /// Renders a model's leaderboard.
    ///
    /// Percentiles come from a single walk over the descending ranking
    /// (rows in a tie block share a percentile; each block beats exactly
    /// the rows after it), replacing the per-row linear scan that made
    /// rendering O(n²).
    pub fn render_model(&self, model: &str) -> String {
        let ranked = self.ranking(model);
        let n = ranked.len();
        let mut pct = vec![0.0f64; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && ranked[j + 1].score == ranked[i].score {
                j += 1;
            }
            let beaten = (n - j - 1) as f64 / n as f64 * 100.0;
            for p in &mut pct[i..=j] {
                *p = beaten;
            }
            i = j + 1;
        }
        let mut t = TextTable::new(vec!["rank", "device", "score", "RSD", "percentile"]);
        for (i, s) in ranked.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                s.device.clone(),
                format!("{:.1}", s.score),
                format!("{:.2}%", s.rsd),
                format!("{:.0}", pct[i]),
            ]);
        }
        format!(
            "{model}: {} submissions ({} rejected), spread {}\n{}",
            n,
            self.rejected,
            self.model_spread_percent(model)
                .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.1}%")),
            t
        )
    }
}

impl fmt::Display for CrowdDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crowd database: {} accepted, {} rejected (filter {:.1}% RSD)",
            self.scores.len(),
            self.rejected,
            self.max_rsd
        )
    }
}

pv_json::impl_to_json!(CrowdScore {
    model,
    device,
    score,
    rsd
});
pv_json::impl_to_json!(CrowdDatabase {
    max_rsd,
    scores,
    rejected
});
pv_json::impl_to_json!(SweepOutcome {
    device,
    verdict,
    accepted,
    quarantined,
    fault_reports,
    error,
    status,
    attempts
});
pv_json::impl_to_json!(SweepReport { outcomes });

impl pv_json::FromJson for SweepOutcome {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        Some(SweepOutcome {
            device: String::from_json(value.get("device")?)?,
            verdict: <Option<Verdict>>::from_json(value.get("verdict")?)?,
            accepted: bool::from_json(value.get("accepted")?)?,
            quarantined: usize::from_json(value.get("quarantined")?)?,
            fault_reports: usize::from_json(value.get("fault_reports")?)?,
            error: <Option<String>>::from_json(value.get("error")?)?,
            status: DeviceStatus::from_json(value.get("status")?)?,
            attempts: u32::from_json(value.get("attempts")?)?,
        })
    }
}

/// Configuration of a resilient crowd-population sweep
/// ([`populate_parallel`], [`populate_streamed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Protocol each device runs.
    pub protocol: Protocol,
    /// Iterations requested per device session.
    pub iterations: usize,
    /// Idealised fixed ambient each device sits in (a crowd of phones is
    /// not a crowd of thermal chambers).
    pub ambient: Celsius,
    /// When `Some`, each device `i` gets a pseudo-random fault plan seeded
    /// `seed.wrapping_add(i)` — deterministic per device, diverse across
    /// the fleet. `None` runs the sweep fault-free.
    pub fault_seed: Option<u64>,
    /// Mean interval between injected faults on each device.
    pub fault_mean_interval: Seconds,
    /// Which fault kinds the per-device plans draw from.
    pub fault_kinds: Vec<FaultKind>,
    /// Escalation policy for misbehaving devices (attempts, abort vs
    /// quarantine, watchdog limits).
    pub supervision: SupervisionPolicy,
    /// When `Some`, injects seeded session-level chaos: exactly
    /// `panic_devices` sessions panic and `stall_devices` wedge. Used by
    /// the chaos tests and `repro sweep --chaos`.
    pub chaos: Option<SessionChaos>,
    /// What to do when the journal's own retry/rotation budgets are
    /// exhausted mid-sweep (persistent ENOSPC/EIO): keep sweeping without
    /// durability ([`StorageEscalation::Degrade`], the default) or fail
    /// the sweep ([`StorageEscalation::Abort`]). Deliberately **not** part
    /// of [`SweepConfig::digest`]: it changes failure handling, never the
    /// simulated outcomes, so resuming under a different escalation is
    /// safe.
    pub storage_escalation: StorageEscalation,
    /// When `Some`, this sweep runs a *subsample* of a larger virtual
    /// population: the CLI selected the device list with
    /// [`pv_stats::sampling::select`] under this plan. Sampling changes
    /// the simulated outcome set, so the plan **is** digested — a journal
    /// written for one subsample can never resume as another (or as a
    /// full-fleet sweep).
    pub sampling: Option<SamplePlan>,
}

/// The subsampling design a sampled sweep was selected under; carried in
/// [`SweepConfig`] so it enters the config digest and the journal header.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// Virtual population size the sample was drawn from.
    pub population: usize,
    /// Number of devices selected for simulation.
    pub n: usize,
    /// Sampling design.
    pub strategy: pv_stats::sampling::Strategy,
    /// Selection seed.
    pub seed: u64,
}

impl SweepConfig {
    /// A fault-free sweep of `iterations` per device at 26 °C.
    pub fn clean(protocol: Protocol, iterations: usize) -> Self {
        Self {
            protocol,
            iterations,
            ambient: Celsius(26.0),
            fault_seed: None,
            fault_mean_interval: Seconds(600.0),
            fault_kinds: pv_faults::ALL_KINDS.to_vec(),
            supervision: SupervisionPolicy::default(),
            chaos: None,
            storage_escalation: StorageEscalation::Degrade,
            sampling: None,
        }
    }

    /// Arms per-device pseudo-random fault plans.
    #[must_use]
    pub fn with_faults(mut self, seed: u64, mean_interval: Seconds, kinds: Vec<FaultKind>) -> Self {
        self.fault_seed = Some(seed);
        self.fault_mean_interval = mean_interval;
        self.fault_kinds = kinds;
        self
    }

    /// Replaces the supervision policy.
    #[must_use]
    pub fn with_supervision(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = policy;
        self
    }

    /// Arms seeded session chaos.
    #[must_use]
    pub fn with_chaos(mut self, chaos: SessionChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Replaces the storage escalation policy.
    #[must_use]
    pub fn with_storage_escalation(mut self, escalation: StorageEscalation) -> Self {
        self.storage_escalation = escalation;
        self
    }

    /// Records the sampling plan the device list was selected under.
    #[must_use]
    pub fn with_sampling(mut self, plan: SamplePlan) -> Self {
        self.sampling = Some(plan);
        self
    }

    /// Simulated-time horizon fault plans must cover: every requested
    /// iteration at full length, times the retry budget, with slack.
    fn fault_horizon(&self) -> f64 {
        let per_iteration = self.protocol.warmup.value()
            + self.protocol.cooldown_timeout.value()
            + self.protocol.workload.value();
        per_iteration * self.iterations as f64 * 4.0
    }

    /// The per-attempt simulated-time budget every supervised session runs
    /// under: the policy's explicit budget, or the fault horizon — a bound
    /// no healthy session (including its full retry/backoff budget)
    /// approaches, so arming it by default costs nothing while
    /// guaranteeing that even an infinitely wedged session terminates
    /// deterministically.
    fn sim_budget(&self) -> f64 {
        self.supervision
            .max_sim_seconds
            .unwrap_or_else(|| self.fault_horizon())
    }

    /// Hex [`fnv64`] digest over every field that determines the sweep's
    /// simulated outcome — protocol, iterations, ambient, fault plan
    /// parameters, model name and the device labels, with floats hashed by
    /// their exact bit patterns. `--resume` refuses a journal whose header
    /// digest differs, so a crashed sweep can never silently continue
    /// under a different configuration.
    pub fn digest(&self, model: &str, device_labels: &[String]) -> String {
        let mut s = String::new();
        let bits = |s: &mut String, v: f64| {
            let _ = write!(s, "{:016x}/", v.to_bits());
        };
        // v4: the sampling plan joined the digested fields (v3 added
        // supervision policy and session chaos). Each version bump makes
        // every pre-existing journal digest mismatch loudly instead of
        // resuming under a silently different scheme.
        let _ = write!(s, "v4|model={model}|");
        s.push_str(self.protocol.integrator.as_str());
        s.push('|');
        bits(&mut s, self.protocol.warmup.value());
        bits(&mut s, self.protocol.cooldown_poll.value());
        match self.protocol.cooldown_target {
            CooldownTarget::Absolute(t) => {
                s.push_str("abs:");
                bits(&mut s, t.value());
            }
            CooldownTarget::AboveAmbient(d) => {
                s.push_str("rel:");
                bits(&mut s, d.value());
            }
        }
        bits(&mut s, self.protocol.cooldown_timeout.value());
        bits(&mut s, self.protocol.workload.value());
        bits(&mut s, self.protocol.busy_dt.value());
        bits(&mut s, self.protocol.idle_dt.value());
        match self.protocol.mode {
            FrequencyMode::Unconstrained => s.push_str("unconstrained"),
            FrequencyMode::Fixed(f) => {
                s.push_str("fixed:");
                bits(&mut s, f.value());
            }
        }
        let _ = write!(
            s,
            "|trace={}|iters={}|",
            self.protocol.record_trace, self.iterations
        );
        bits(&mut s, self.ambient.value());
        match self.fault_seed {
            Some(seed) => {
                let _ = write!(s, "|seed={seed:016x}|");
                bits(&mut s, self.fault_mean_interval.value());
                for k in &self.fault_kinds {
                    s.push_str(k.as_str());
                    s.push(',');
                }
            }
            None => s.push_str("|clean|"),
        }
        let _ = write!(s, "|supervision:{}", self.supervision.digest_string());
        match &self.chaos {
            Some(chaos) => {
                let _ = write!(s, "|chaos:{}", chaos.digest_string());
            }
            None => s.push_str("|no-chaos"),
        }
        // Sampling selects which devices exist at all, so it must be
        // digested even though the selected labels are digested too — two
        // plans can select the same subset yet imply different estimator
        // weights.
        match &self.sampling {
            Some(plan) => {
                let _ = write!(
                    s,
                    "|sampling:pop={},n={},strategy={},seed={:016x}",
                    plan.population,
                    plan.n,
                    plan.strategy.as_str(),
                    plan.seed
                );
            }
            None => s.push_str("|unsampled"),
        }
        for label in device_labels {
            let _ = write!(s, "|{label}");
        }
        format!("{:016x}", fnv64(s.as_bytes()))
    }
}

/// What happened to one device of a crowd sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The device's label.
    pub device: String,
    /// The session's quality-gate verdict; `None` if the session died on a
    /// fatal error before finishing.
    pub verdict: Option<Verdict>,
    /// Whether the database accepted the submission.
    pub accepted: bool,
    /// Iteration slots lost to exhausted retries.
    pub quarantined: usize,
    /// Fault occurrences logged against this device.
    pub fault_reports: usize,
    /// Fatal error text, when the session did not finish.
    pub error: Option<String>,
    /// Supervision status: anything but [`DeviceStatus::Completed`] means
    /// the device is a quarantined *hole* in the fleet — it contributed no
    /// verdict and is excluded from survivor statistics.
    pub status: DeviceStatus,
    /// Session attempts the supervisor gave this device (≥ 1).
    pub attempts: u32,
}

impl SweepOutcome {
    /// Whether this device is a supervision hole (every attempt panicked,
    /// timed out, or failed fatally).
    pub fn is_hole(&self) -> bool {
        self.status != DeviceStatus::Completed
    }
}

/// Fleet-level verdict of a supervised sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetVerdict {
    /// Every device completed its session (verdicts may still vary).
    Clean,
    /// At least one device was quarantined by supervision; survivor
    /// statistics should be quoted with the bootstrap interval from
    /// [`SweepReport::survivor_ci`].
    Degraded,
    /// The journal's storage failed persistently mid-sweep and the
    /// escalation policy was [`StorageEscalation::Degrade`]: the sweep ran
    /// to completion and the in-memory report is whole, but only the
    /// journaled prefix survives a crash. Only
    /// [`JournaledSweep::fleet_verdict`] produces this — a report alone
    /// cannot know its journal died.
    StorageDegraded,
}

impl fmt::Display for FleetVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetVerdict::Clean => "clean",
            FleetVerdict::Degraded => "degraded",
            FleetVerdict::StorageDegraded => "storage-degraded",
        })
    }
}

/// Fleet-level result of a [`populate_parallel`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-device outcomes, in input order.
    pub outcomes: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Reconstructs a report purely from journal records: the outcome
    /// records, sorted by device index. A sweep that crashed and was never
    /// resumed reconstructs to its completed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingHeader`] when the records do not
    /// start with a sweep header.
    pub fn from_journal(records: &[Record]) -> Result<Self, JournalError> {
        let replay = Replay::from_records(records)?;
        Ok(SweepReport {
            outcomes: replay.outcomes.into_values().map(|j| j.outcome).collect(),
        })
    }

    /// Devices whose session finished (with any verdict).
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.verdict.is_some()).count()
    }

    /// Devices whose submission the database accepted.
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.accepted).count()
    }

    /// Holes whose final status was [`DeviceStatus::Failed`]: the session
    /// died on a fatal error. Panicked and timed-out holes also carry an
    /// error but count under [`panicked`](Self::panicked) and
    /// [`timed_out`](Self::timed_out) instead.
    pub fn failed(&self) -> usize {
        self.count_status(DeviceStatus::Failed)
    }

    /// Devices quarantined by supervision (status ≠ `Completed`) — the
    /// sweep's explicit holes.
    pub fn quarantined_devices(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_hole()).count()
    }

    /// Holes whose final status was [`DeviceStatus::Panicked`].
    pub fn panicked(&self) -> usize {
        self.count_status(DeviceStatus::Panicked)
    }

    /// Holes whose final status was [`DeviceStatus::TimedOut`].
    pub fn timed_out(&self) -> usize {
        self.count_status(DeviceStatus::TimedOut)
    }

    fn count_status(&self, status: DeviceStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// The fleet verdict: [`FleetVerdict::Degraded`] iff supervision
    /// quarantined at least one device.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.quarantined_devices() > 0 {
            FleetVerdict::Degraded
        } else {
            FleetVerdict::Clean
        }
    }

    /// Bootstrap 95 % confidence interval for the mean accepted score of
    /// `model`'s *survivors* — what a degraded sweep quotes instead of
    /// pretending the holes never existed (ranked-set subsampling theory
    /// licenses survivor statistics, but only with honest uncertainty).
    /// Deterministic: fixed resample count and seed. Reads the database's
    /// per-model index — no per-call score collection.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::UnknownModel`] when the model has no accepted
    /// scores (previously a silent `None`), and [`BenchError::Stats`] if
    /// the bootstrap itself fails.
    pub fn survivor_ci(
        &self,
        db: &CrowdDatabase,
        model: &str,
    ) -> Result<ConfidenceInterval, BenchError> {
        let scores = db.model_scores(model);
        if scores.is_empty() {
            return Err(BenchError::UnknownModel(model.to_owned()));
        }
        Ok(bootstrap_mean_ci(scores, 0.95, 2000, SURVIVOR_CI_SEED)?)
    }
}

/// Fixed seed for [`SweepReport::survivor_ci`], so every rendering of the
/// same database quotes the same interval.
const SURVIVOR_CI_SEED: u64 = 0x05EE_D0C1;

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_sweep(
            f,
            [self.outcomes.len(), self.completed(), self.accepted()],
            self.outcomes.iter().filter(|o| o.is_hole()),
            &self.outcomes,
        )
    }
}

/// Writes the lines both sweep reports print, so they cannot drift: the
/// `crowd sweep:` headline over `devices`, `completed` and `accepted`
/// counts, the `fleet degraded:` breakdown of `holes` when there are any,
/// and one line per `listed` device.
fn write_sweep<'a>(
    f: &mut fmt::Formatter<'_>,
    [devices, completed, accepted]: [usize; 3],
    holes: impl Iterator<Item = &'a SweepOutcome> + Clone,
    listed: impl IntoIterator<Item = &'a SweepOutcome>,
) -> fmt::Result {
    let count = |status: DeviceStatus| holes.clone().filter(|o| o.status == status).count();
    let failed = count(DeviceStatus::Failed);
    writeln!(
        f,
        "crowd sweep: {devices} devices, {completed} completed, {accepted} accepted, {failed} failed",
    )?;
    let quarantined = holes.clone().count();
    if quarantined > 0 {
        writeln!(
            f,
            "  fleet degraded: {quarantined} device(s) quarantined ({} panicked, {} timed out, {failed} failed)",
            count(DeviceStatus::Panicked),
            count(DeviceStatus::TimedOut),
        )?;
    }
    for o in listed {
        let verdict = o
            .verdict
            .map_or_else(|| o.status.to_string(), |v| v.to_string());
        write!(
            f,
            "  {}: {verdict}, {} quarantined, {} faults",
            o.device, o.quarantined, o.fault_reports
        )?;
        if o.attempts > 1 {
            write!(f, ", {} attempts", o.attempts)?;
        }
        if let Some(e) = &o.error {
            write!(f, " ({e})")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Populates `db` with one supervised session per device — the §VI
/// crowdsourcing vision under real-world conditions, where some fraction
/// of the fleet hits sensor dropouts, meter disconnects and scheduler
/// glitches mid-measurement — fanned out across a thread pool that claims
/// devices in index order (`crate::executor`). This is the exact
/// **reference oracle** behind `repro sweep --oracle`.
///
/// Each device runs a full session through the harness's retry/quarantine
/// machinery. Sessions that finish with a non-[`Verdict::Invalid`] verdict
/// submit their score (admission filtering still applies); fatal per-device
/// errors are recorded in the [`SweepReport`] and the sweep continues — a
/// crowd campaign never aborts because one handset bricked.
///
/// Device sessions are independent, deterministically seeded simulations,
/// so workers may run them in any order on any thread; the calling thread
/// is the **single writer** that merges completed outcomes back in
/// canonical device order, submits scores to `db`, and appends to the
/// journal. The resulting [`SweepReport`], database contents, and journal
/// bytes are therefore **bit-identical** for every thread count and OS
/// schedule. `threads` is clamped to `1..=devices.len()`; `1` runs every
/// session inline with no thread spawned.
///
/// With a [`Journal`]:
///
/// * a fresh journal gets a [`Record::Header`] carrying the
///   [`SweepConfig::digest`] before any device runs;
/// * a journal with recovered records must lead with a header whose digest
///   matches the requested sweep — otherwise
///   [`JournalError::DigestMismatch`] is returned and *nothing* runs;
/// * the journal's contiguous restored prefix is replayed on the caller
///   before any worker spawns: its outcomes (and crowd-database
///   submissions, via the journaled scores) are restored instead of
///   re-simulated. Because every device session is seeded independently
///   (`fault_seed + index`), the resumed tail is bit-identical to what an
///   uninterrupted run would have computed;
/// * each finished device stages its [`Record::Outcome`] (plus a
///   [`Record::Note`] when it hit faults or quarantines) in canonical
///   order, and the merge step commits the staged records once per
///   [`STREAM_GROUP`] of device indices — one write and one fsync per
///   group, when the next device index lands on the grid or the fleet
///   ends. A kill can lose at most the open group (up to
///   [`STREAM_GROUP`] finished devices plus the in-flight ones), which a
///   resume re-simulates bit-identically. Group boundaries depend on the
///   device index alone, so the journal bytes and the storage-op
///   sequence are the same at every thread count;
/// * when the last device lands, a [`Record::Complete`] marker seals the
///   journal;
/// * journal storage that fails persistently mid-sweep (past the
///   journal's own retry and segment-rotation budgets) is handled per
///   [`SweepConfig::storage_escalation`]: `degrade` (the default) stops
///   journaling, keeps sweeping, and reports the loss via
///   [`JournaledSweep::storage_degraded`]; `abort` fails the sweep with
///   the underlying I/O error.
///
/// Workers poll the [`CancelToken`] before every claim: in-flight sessions
/// finish, and because devices are claimed in index order the writer
/// commits every device the run started (the open group included). The
/// function returns with `complete = false`, and a later resume simulates
/// only the devices that never ran. An abort-on-hole or a sink error
/// commits the open group the same way before the error is returned.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] for an invalid protocol,
/// iteration count or attempt budget, [`BenchError::Journal`] for digest
/// mismatches or journal I/O failures, and [`BenchError::Supervision`]
/// when [`OnFailure::Abort`] meets a quarantined device. Other per-device
/// simulation failures are *not* errors; they land in the report.
pub fn populate_parallel(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
) -> Result<JournaledSweep, BenchError> {
    let sink = DatabaseSink {
        db,
        model,
        outcomes: Vec::with_capacity(devices.len()),
    };
    sweep(sink, model, devices, cfg, journal, cancel, threads)
}

/// Result of a journaled (and possibly interrupted or resumed) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledSweep {
    /// Per-device outcomes journaled so far, in device order. For a
    /// `complete` sweep this is identical to what the uninterrupted,
    /// unjournaled run would have produced.
    pub report: SweepReport,
    /// Whether every device ran. `false` means the sweep was cancelled
    /// cooperatively; re-run with the same journal to resume.
    pub complete: bool,
    /// Devices whose outcome was restored from the journal instead of
    /// being re-simulated.
    pub resumed: usize,
    /// `Some(detail)` when the journal's storage failed persistently
    /// mid-sweep under [`StorageEscalation::Degrade`]: journaling stopped
    /// at the named device (the first of the group whose commit failed),
    /// the sweep kept running, and the journal holds only the prefix
    /// committed before the failure. `None` for a
    /// fully journaled (or unjournaled) sweep.
    pub storage_degraded: Option<String>,
}

impl JournaledSweep {
    /// The fleet verdict, accounting for journal-storage loss:
    /// [`FleetVerdict::StorageDegraded`] when journaling died mid-sweep,
    /// otherwise the report's own verdict.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.storage_degraded.is_some() {
            FleetVerdict::StorageDegraded
        } else {
            self.report.fleet_verdict()
        }
    }
}

/// Result of simulating one device, before the canonical-order merge step
/// submits it to the sink and journals it.
struct DeviceRun {
    /// The device's outcome and submitted score, as the journal records
    /// them.
    result: JournaledOutcome,
    /// `false` when the outcome was replayed from the journal instead of
    /// being re-simulated (replays are never re-journaled).
    fresh: bool,
    /// Per-attempt supervision failures (including failed attempts that a
    /// later retry recovered from), journaled as `Record::Supervision`.
    failures: Vec<AttemptFailure>,
}

impl DeviceRun {
    /// A freshly simulated device.
    fn fresh(result: JournaledOutcome, failures: Vec<AttemptFailure>) -> Self {
        Self {
            result,
            fresh: true,
            failures,
        }
    }
}

impl JournaledOutcome {
    /// The result of a session that finished on attempt `attempts`: its
    /// verdict, and the submitted score and RSD unless the verdict is
    /// [`Verdict::Invalid`]. A session without a performance summary is a
    /// [`DeviceStatus::Failed`] hole. `accepted` is left `false`: whoever
    /// admits the score stamps it.
    pub fn finished(
        device: String,
        session: &Session,
        fault_reports: usize,
        attempts: u32,
    ) -> Self {
        let summary = (session.verdict != Verdict::Invalid).then(|| session.performance_summary());
        let (score, rsd, error) = match summary {
            Some(Ok(perf)) => (Some(perf.mean()), Some(perf.rsd_percent()), None),
            Some(Err(e)) => (None, None, Some(e.to_string())),
            None => (None, None, None),
        };
        Self {
            outcome: SweepOutcome {
                device,
                verdict: error.is_none().then_some(session.verdict),
                accepted: false,
                quarantined: session.quarantined_count(),
                fault_reports,
                status: if error.is_none() {
                    DeviceStatus::Completed
                } else {
                    DeviceStatus::Failed
                },
                error,
                attempts,
            },
            score,
            rsd,
        }
    }

    /// A supervision hole: every attempt in `failures` failed, and the last
    /// one's status and detail describe the device.
    pub fn hole(device: String, fault_reports: usize, failures: &[AttemptFailure]) -> Self {
        let last = failures.last();
        Self {
            outcome: SweepOutcome {
                device,
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports,
                error: last.map(|f| f.detail.clone()),
                status: last.map_or(DeviceStatus::Failed, |f| f.status),
                attempts: failures.len() as u32,
            },
            score: None,
            rsd: None,
        }
    }
}

/// Builds device `index`'s fault handle: the seeded instrument plan (when
/// armed) spliced with any session-chaos events targeting this device.
fn fault_handle_for(cfg: &SweepConfig, index: usize, chaos: Option<&ChaosVictims>) -> FaultHandle {
    let mut plan = match cfg.fault_seed {
        Some(seed) => FaultPlan::generate(
            seed.wrapping_add(index as u64),
            cfg.fault_horizon(),
            cfg.fault_mean_interval.value(),
            &cfg.fault_kinds,
        ),
        None => FaultPlan::empty(),
    };
    let mut armed = cfg.fault_seed.is_some();
    if let Some(chaos) = chaos {
        for event in chaos.events_for(index) {
            plan = plan.with_event(event);
            armed = true;
        }
    }
    if armed {
        FaultHandle::armed(plan)
    } else {
        FaultHandle::disarmed()
    }
}

/// Runs attempt `attempt` of one session on a pristine clone of `device`
/// under a fresh fault handle and watchdog, with `catch_unwind` isolation.
/// Returns the finished session (whose verdict may still be anything) or
/// the typed failure, plus the fault-report count (which survives panics:
/// the handle lives outside the unwind boundary).
fn run_attempt(
    cfg: &SweepConfig,
    index: usize,
    chaos: Option<&ChaosVictims>,
    device: &Device,
    attempt: u32,
) -> (Result<Session, AttemptFailure>, usize) {
    let handle = fault_handle_for(cfg, index, chaos);
    let fresh = device.clone();
    let session_handle = handle.clone();
    let caught = executor::run_caught(move || -> Result<Session, BenchError> {
        let mut gated = FaultyDevice::new(fresh, session_handle.clone());
        let mut watchdog = Watchdog::new().with_sim_budget(cfg.sim_budget());
        if let Some(wall) = cfg.supervision.max_wall_seconds {
            watchdog = watchdog.with_wall_limit(wall);
        }
        let mut harness = Harness::new(cfg.protocol, Ambient::Fixed(cfg.ambient))?
            .with_faults(session_handle.clone())
            .with_watchdog(watchdog);
        harness.run_session(&mut gated, cfg.iterations)
    });
    let result = match caught {
        Ok(Ok(session)) => Ok(session),
        Ok(Err(e)) => Err(AttemptFailure::of_error(attempt, &e)),
        Err(panic) => Err(AttemptFailure::of_panic(attempt, panic)),
    };
    (result, handle.report_count())
}

/// Supervises one device session — the parallel-safe unit of work. It
/// clones its device per attempt, builds per-attempt fault handles,
/// watchdogs and harnesses, and touches no shared state, so its result is
/// a pure function of `(cfg, index, chaos, device)` regardless of which
/// worker thread runs it. Infallible by construction: every failure mode
/// (panic, watchdog trip, fatal session error) folds into the returned
/// outcome, and escalation beyond quarantine is the *sink's* decision.
/// The returned outcome's `accepted` flag is a placeholder; the sink
/// stamps it.
fn supervise_device(
    cfg: &SweepConfig,
    index: usize,
    chaos: Option<&ChaosVictims>,
    device: &Device,
) -> DeviceRun {
    let label = device.label().to_owned();
    let mut failures: Vec<AttemptFailure> = Vec::new();
    let mut reports = 0usize;
    for attempt in 1..=cfg.supervision.max_attempts.max(1) {
        let (result, fault_reports) = run_attempt(cfg, index, chaos, device, attempt);
        reports = fault_reports;
        match result {
            Ok(session) => {
                let result = JournaledOutcome::finished(label, &session, reports, attempt);
                return DeviceRun::fresh(result, failures);
            }
            Err(failure) => failures.push(failure),
        }
    }
    // Every attempt failed: the device is a supervision hole. Injected
    // faults are deterministic, so retries fail identically — but real
    // fleets retry against nondeterministic hardware, which is what
    // `max_attempts > 1` models.
    DeviceRun::fresh(JournaledOutcome::hole(label, reports, &failures), failures)
}

/// Runs device `index`: replays its journaled outcome when the journal has
/// one past the contiguous prefix (possible only in a hand-assembled
/// journal), and supervises a fresh session otherwise.
fn run_device(
    cfg: &SweepConfig,
    chaos: Option<&ChaosVictims>,
    index: usize,
    device: &Device,
    journaled: &BTreeMap<usize, JournaledOutcome>,
) -> DeviceRun {
    match journaled.get(&index) {
        Some(result) => DeviceRun {
            result: result.clone(),
            fresh: false,
            failures: Vec::new(),
        },
        None => supervise_device(cfg, index, chaos, device),
    }
}

/// Defense-in-depth when a device task itself panics (the supervision
/// machinery crashed, not the session): the device becomes a quarantined
/// hole carrying the panic headline.
fn panicked_run(label: String, panic: executor::PanicSummary) -> DeviceRun {
    let failures = vec![AttemptFailure::of_panic(1, panic)];
    DeviceRun::fresh(JournaledOutcome::hole(label, 0, &failures), failures)
}

/// The sweep's journal writer: stages each fresh device's records and
/// commits them once per [`STREAM_GROUP`] of device indices — one write and
/// one fsync per group — applying the storage escalation when a commit
/// fails past the journal's own retry and rotation budgets.
struct GroupWriter<'j> {
    journal: Option<&'j mut Journal>,
    escalation: StorageEscalation,
    /// Records of the open group, in canonical device order.
    staged: Vec<Record>,
    /// First device staged into the open group.
    first: usize,
    /// Armed the first time a commit fails under
    /// [`StorageEscalation::Degrade`]: journaling stops (the committed
    /// prefix stays valid), the sweep keeps running, and the verdict
    /// downgrades to storage-degraded.
    degraded: Option<String>,
}

impl GroupWriter<'_> {
    /// Stages device `index`'s records unless there is no journal or
    /// journaling already stopped.
    fn stage(&mut self, index: usize, run: &DeviceRun) {
        if self.journal.is_none() || self.degraded.is_some() {
            return;
        }
        if self.staged.is_empty() {
            self.first = index;
        }
        journal_outcome(&mut self.staged, index, &run.result, &run.failures);
    }

    /// Commits the open group with a single append; a no-op when nothing
    /// is staged.
    ///
    /// # Errors
    ///
    /// The journal error, under [`StorageEscalation::Abort`].
    fn commit(&mut self) -> Result<(), BenchError> {
        let staged = core::mem::take(&mut self.staged);
        let first = self.first;
        self.append(&staged, |e| {
            format!("journaling stopped at device {first}: {e}")
        })
    }

    /// Appends the [`Record::Complete`] seal as its own commit.
    ///
    /// # Errors
    ///
    /// The journal error, under [`StorageEscalation::Abort`].
    fn seal(&mut self, devices: usize) -> Result<(), BenchError> {
        self.append(&[Record::Complete { devices }], |e| {
            format!("journal seal failed: {e}")
        })
    }

    /// One fsynced append, unless there is nothing to write, no journal,
    /// or journaling already stopped. A failure fails the sweep under
    /// [`StorageEscalation::Abort`] and stops journaling with `detail`
    /// under [`StorageEscalation::Degrade`].
    fn append(
        &mut self,
        records: &[Record],
        detail: impl FnOnce(&JournalError) -> String,
    ) -> Result<(), BenchError> {
        if records.is_empty() || self.degraded.is_some() {
            return Ok(());
        }
        let Some(j) = self.journal.as_deref_mut() else {
            return Ok(());
        };
        if let Err(e) = j.append_all(records) {
            if self.escalation == StorageEscalation::Abort {
                return Err(e.into());
            }
            self.degraded = Some(detail(&e));
        }
        Ok(())
    }
}

/// Where a sweep's per-device results go — everything that differs between
/// the exact [`CrowdDatabase`] oracle and the streamed
/// [`crate::aggregate::ScoreAggregate`]. The engine ([`sweep`]) owns the
/// rest: validation, digest and journal preparation, prefix replay, the
/// supervised executor, journaling with storage escalation, abort-on-hole
/// and the `Complete` seal. Every method runs on the calling thread only,
/// in canonical device order.
trait SweepSink {
    /// The sweep's result.
    type Output;

    /// Submits device `index` (replayed or fresh) and sets its `accepted`
    /// flag. Runs before the device is journaled.
    ///
    /// # Errors
    ///
    /// Sink-specific merge failures.
    fn submit(&mut self, index: usize, result: &mut JournaledOutcome) -> Result<(), BenchError>;

    /// Takes ownership of a submitted device's outcome.
    fn keep(&mut self, outcome: SweepOutcome);

    /// Builds the result.
    ///
    /// # Errors
    ///
    /// Sink-specific merge failures.
    fn finish(self, end: SweepEnd) -> Result<Self::Output, BenchError>;
}

/// The engine's account of a finished (or cancelled) sweep.
struct SweepEnd {
    devices: usize,
    processed: usize,
    complete: bool,
    resumed: usize,
    storage_degraded: Option<String>,
}

/// The one sweep engine behind [`populate_parallel`] and
/// [`populate_streamed`]; see [`populate_parallel`] for the journal,
/// resume, cancellation and escalation contract both share.
fn sweep<S: SweepSink>(
    mut sink: S,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    mut journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
) -> Result<S::Output, BenchError> {
    cfg.protocol.validate()?;
    if cfg.iterations == 0 {
        return Err(BenchError::InvalidProtocol("iterations must be >= 1"));
    }
    if cfg.supervision.max_attempts == 0 {
        return Err(BenchError::InvalidProtocol(
            "supervision.max_attempts must be >= 1",
        ));
    }
    let labels: Vec<String> = devices.iter().map(|d| d.label().to_owned()).collect();
    let digest = cfg.digest(model, &labels);
    let total = devices.len();
    let mut replay = match journal.as_deref_mut() {
        Some(j) => prepare_journal(j, model, digest, total)?,
        None => Replay::default(),
    };
    let mut resumed = 0usize;

    // Replay the journal's contiguous restored prefix on the caller — no
    // simulation, no cancellation gate. Replaying the submission keeps the
    // sink identical to the uninterrupted run; admission filtering is
    // deterministic in the score alone, so `accepted` cannot diverge.
    let mut prefix = 0usize;
    while let Some(mut result) = replay.outcomes.remove(&prefix) {
        sink.submit(prefix, &mut result)?;
        sink.keep(result.outcome);
        resumed += 1;
        prefix += 1;
    }

    // Fan the unsimulated tail out, one task per device: task `k` is
    // device `prefix + k`. The worker is a pure function of the device
    // index; the merge closure below runs on this thread only, in
    // canonical device order.
    let mut tail = devices;
    tail.drain(..prefix);
    let chaos = cfg.chaos.as_ref().map(|c| c.resolve(total));
    let chaos = chaos.as_ref();
    let journaled = &replay.outcomes;
    let mut writer = GroupWriter {
        journal,
        escalation: cfg.storage_escalation,
        staged: Vec::new(),
        first: 0,
        degraded: None,
    };
    // Devices the merge step processed past the restored prefix.
    let mut sunk = 0usize;
    let ran = executor::map_supervised(
        tail,
        threads,
        cancel,
        |k, device: Device| run_device(cfg, chaos, prefix + k, &device, journaled),
        |k, caught| -> Result<(), BenchError> {
            let index = prefix + k;
            // `supervise_device` is infallible — panics inside a session
            // are caught per attempt — so a panicked task means the
            // supervision machinery itself crashed: the device becomes a
            // quarantined hole instead of tearing the sweep down.
            let mut run = match caught {
                TaskOutcome::Completed(run) => run,
                TaskOutcome::Panicked(panic) => panicked_run(labels[index].clone(), panic),
            };
            sink.submit(index, &mut run.result)?;
            if run.fresh {
                writer.stage(index, &run);
            } else {
                resumed += 1;
            }
            sunk += 1;
            let outcome = run.result.outcome;
            // Escalation: under `abort`, a supervision hole fails the
            // whole sweep — but only *after* its outcome is journaled (the
            // early-stop commit below), so a resume replays the hole
            // instead of aborting on it again and picks up right after
            // the device that tripped the policy.
            if outcome.is_hole() && cfg.supervision.on_failure == OnFailure::Abort {
                return Err(SupervisionError::FleetAborted {
                    device: outcome.device,
                    attempts: outcome.attempts,
                    detail: outcome.error.unwrap_or_else(|| "unknown".into()),
                }
                .into());
            }
            sink.keep(outcome);
            // Group boundaries depend on the device index alone, so the
            // commit (and storage-op) sequence is the same at every
            // thread count.
            if (index + 1).is_multiple_of(STREAM_GROUP) || index + 1 == total {
                writer.commit()?;
            }
            Ok(())
        },
    );
    // Cancellation, abort-on-hole and sink errors stop the executor inside
    // a group: commit what the merge step already sank, exactly once.
    writer.commit()?;
    ran?;

    let complete = prefix + sunk == total;
    if complete && !replay.sealed {
        writer.seal(total)?;
    }
    sink.finish(SweepEnd {
        devices: total,
        processed: prefix + sunk,
        complete,
        resumed,
        storage_degraded: writer.degraded,
    })
}

/// The exact oracle sink: every accepted score submitted to a
/// [`CrowdDatabase`], every outcome kept.
struct DatabaseSink<'a> {
    db: &'a mut CrowdDatabase,
    model: &'a str,
    outcomes: Vec<SweepOutcome>,
}

impl SweepSink for DatabaseSink<'_> {
    type Output = JournaledSweep;

    fn submit(&mut self, _: usize, result: &mut JournaledOutcome) -> Result<(), BenchError> {
        if let (Some(score), Some(rsd)) = (result.score, result.rsd) {
            result.outcome.accepted = self.db.submit(CrowdScore {
                model: self.model.to_owned(),
                device: result.outcome.device.clone(),
                score,
                rsd,
            });
        }
        Ok(())
    }

    fn keep(&mut self, outcome: SweepOutcome) {
        self.outcomes.push(outcome);
    }

    fn finish(self, end: SweepEnd) -> Result<JournaledSweep, BenchError> {
        Ok(JournaledSweep {
            report: SweepReport {
                outcomes: self.outcomes,
            },
            complete: end.complete,
            resumed: end.resumed,
            storage_degraded: end.storage_degraded,
        })
    }
}

/// The fixed streaming-aggregation and journal-commit grid: the merge step
/// folds device scores, in ascending device order, into a fresh partial
/// aggregate per group of this many consecutive devices, aligned to
/// absolute device index 0, and merges each partial into the fleet
/// aggregate as its group closes. The grid is independent of `--threads`
/// and the resume prefix, which is what makes a streamed sweep's
/// aggregate byte-identical across thread counts and kill+resume (see
/// `pv_stats::stream` for the underlying floating-point argument).
///
/// Both sinks also commit the sweep journal on this grid: one write and
/// one fsync per group instead of per device (see [`populate_parallel`]).
pub const STREAM_GROUP: usize = 64;

/// Result of a streaming ([`populate_streamed`]) sweep: constant-size
/// aggregate statistics plus the exceptional per-device records (holes,
/// and — when requested — the retained sampled scores). Healthy devices
/// leave no per-device trace in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedSweep {
    /// Model the sweep ran.
    pub model: String,
    /// The merged fleet aggregate (moments, histogram, leaderboard).
    pub aggregate: crate::aggregate::ScoreAggregate,
    /// Outcomes of quarantined devices only — the fleet's explicit holes.
    pub holes: Vec<SweepOutcome>,
    /// Fleet size the sweep was asked to run.
    pub devices: usize,
    /// Devices processed so far (restored prefix + freshly sunk).
    pub processed: usize,
    /// Devices whose session finished with a verdict.
    pub completed: usize,
    /// Whether every device ran; `false` means cancelled — re-run with the
    /// same journal to resume.
    pub complete: bool,
    /// Devices replayed from the journal instead of re-simulated.
    pub resumed: usize,
    /// As [`JournaledSweep::storage_degraded`].
    pub storage_degraded: Option<String>,
    /// `(device index, accepted score)` pairs, retained only when the
    /// caller asked (sampled sweeps need raw scores for the stratified
    /// estimators; bounded by the sample size).
    pub retained: Vec<(usize, f64)>,
}

impl StreamedSweep {
    /// The fleet verdict, accounting for journal-storage loss.
    pub fn fleet_verdict(&self) -> FleetVerdict {
        if self.storage_degraded.is_some() {
            FleetVerdict::StorageDegraded
        } else if self.holes.is_empty() {
            FleetVerdict::Clean
        } else {
            FleetVerdict::Degraded
        }
    }

    /// 95 % confidence interval for the survivors' mean score, from the
    /// streaming moments (normal approximation `mean ± 1.96·se`). The
    /// oracle path quotes a bootstrap interval instead — it has the raw
    /// scores; the streaming path deliberately does not. Degenerate
    /// (zero-width) with a single survivor.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::UnknownModel`] when nothing was accepted.
    pub fn survivor_ci(&self) -> Result<ConfidenceInterval, BenchError> {
        let m = self.aggregate.moments();
        if m.count() == 0 {
            return Err(BenchError::UnknownModel(self.model.clone()));
        }
        let mean = m.mean()?;
        let half = m.standard_error().map_or(0.0, |se| 1.96 * se);
        Ok(ConfidenceInterval {
            lo: mean - half,
            hi: mean + half,
            point: mean,
            level: 0.95,
        })
    }
}

impl fmt::Display for StreamedSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the holes get per-device lines — a million healthy devices
        // print nothing. Capped so a pathological fleet stays readable.
        const MAX_HOLE_LINES: usize = 32;
        write_sweep(
            f,
            [
                self.devices,
                self.completed,
                self.aggregate.accepted() as usize,
            ],
            self.holes.iter(),
            self.holes.iter().take(MAX_HOLE_LINES),
        )?;
        if self.holes.len() > MAX_HOLE_LINES {
            writeln!(f, "  … {} more hole(s)", self.holes.len() - MAX_HOLE_LINES)?;
        }
        Ok(())
    }
}

/// The streaming, memory-bounded sweep engine — `repro sweep`'s default
/// path, and the only one that scales to 10⁶-device (sampled) fleets.
///
/// Semantics match [`populate_parallel`] exactly — same validation, journal
/// header/digest/healing, resume replay, supervision, chaos, storage
/// escalation and cancellation, producing byte-identical journals — but
/// instead of funneling every score through a [`CrowdDatabase`], the
/// single-writer merge step folds each device into its group's partial
/// [`crate::aggregate::ScoreAggregate`] and merges the partials in
/// ascending group order. Memory is O(bins + K + holes (+ retained
/// sample)), independent of fleet size.
///
/// Groups lie on the absolute [`STREAM_GROUP`] grid, so the aggregate's
/// fold/merge order — and hence its bits — depends only on the grid.
///
/// `agg` must be freshly constructed (it is the merge identity); pass
/// `retain_scores = true` to also collect `(index, score)` for every
/// accepted submission — sampled sweeps need the raw scores for their
/// estimators, and the acceptance contract allows retention *within* the
/// sampled set only.
///
/// `_batch` is ignored. It is kept only so existing callers compile, and
/// goes away with the next change to the benchmark that calls it.
///
/// # Errors
///
/// As [`populate_parallel`].
#[allow(clippy::too_many_arguments)]
pub fn populate_streamed(
    agg: &mut crate::aggregate::ScoreAggregate,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    _batch: usize,
    retain_scores: bool,
) -> Result<StreamedSweep, BenchError> {
    let open = agg.fresh_partial();
    let sink = AggregateSink {
        agg,
        model,
        open,
        holes: Vec::new(),
        retained: Vec::new(),
        completed: 0,
        retain_scores,
    };
    sweep(sink, model, devices, cfg, journal, cancel, threads)
}

/// The streamed sink: the merge step folds every device, replayed or
/// fresh, into the open group partial in ascending device order, and
/// merges each [`STREAM_GROUP`] group into the fleet aggregate as the
/// group closes. Only holes (and requested retained scores) are kept per
/// device.
struct AggregateSink<'a> {
    agg: &'a mut crate::aggregate::ScoreAggregate,
    model: &'a str,
    /// The partial of the group currently being filled on the merge side.
    open: crate::aggregate::ScoreAggregate,
    holes: Vec<SweepOutcome>,
    retained: Vec<(usize, f64)>,
    completed: usize,
    retain_scores: bool,
}

impl AggregateSink<'_> {
    /// Merges the open group into the fleet aggregate and starts a fresh
    /// one. Merging an empty partial leaves the aggregate's bits as they
    /// were, so a flush at a boundary no device reached is harmless.
    fn flush(&mut self) -> Result<(), BenchError> {
        self.agg.merge(&self.open)?;
        self.open = self.agg.fresh_partial();
        Ok(())
    }
}

impl SweepSink for AggregateSink<'_> {
    type Output = StreamedSweep;

    fn submit(&mut self, index: usize, result: &mut JournaledOutcome) -> Result<(), BenchError> {
        if let (Some(s), Some(r)) = (result.score, result.rsd) {
            result.outcome.accepted = self.open.fold(&result.outcome.device, s, r);
            if self.retain_scores && result.outcome.accepted {
                self.retained.push((index, s));
            }
        }
        // Close the group on the grid the journal commits on, so groups
        // merge in ascending order whatever the resume prefix was.
        if (index + 1).is_multiple_of(STREAM_GROUP) {
            self.flush()?;
        }
        Ok(())
    }

    fn keep(&mut self, outcome: SweepOutcome) {
        if outcome.verdict.is_some() {
            self.completed += 1;
        }
        if outcome.is_hole() {
            self.holes.push(outcome);
        }
    }

    fn finish(mut self, end: SweepEnd) -> Result<StreamedSweep, BenchError> {
        // Merge the still-open group: the fleet's last, short group, or
        // the part of a group a cancelled sweep reached.
        self.flush()?;
        Ok(StreamedSweep {
            model: self.model.to_owned(),
            aggregate: self.agg.clone(),
            holes: self.holes,
            devices: end.devices,
            processed: end.processed,
            completed: self.completed,
            complete: end.complete,
            resumed: end.resumed,
            storage_degraded: end.storage_degraded,
            retained: self.retained,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn score(model: &str, device: &str, value: f64, rsd: f64) -> CrowdScore {
        CrowdScore {
            model: model.to_owned(),
            device: device.to_owned(),
            score: value,
            rsd,
        }
    }

    fn seeded_db() -> CrowdDatabase {
        let mut db = CrowdDatabase::new(2.0).unwrap();
        for (d, v) in [("a", 100.0), ("b", 95.0), ("c", 90.0), ("d", 86.0)] {
            assert!(db.submit(score("Nexus 5", d, v, 0.5)));
        }
        assert!(db.submit(score("Pixel", "p1", 1200.0, 0.3)));
        db
    }

    #[test]
    fn filters_noisy_and_invalid_submissions() {
        let mut db = CrowdDatabase::new(2.0).unwrap();
        assert!(!db.submit(score("Nexus 5", "hot-car", 80.0, 9.0)));
        assert!(!db.submit(score("Nexus 5", "nan", f64::NAN, 0.1)));
        assert!(!db.submit(score("Nexus 5", "zero", 0.0, 0.1)));
        assert!(db.submit(score("Nexus 5", "ok", 100.0, 1.9)));
        assert_eq!(db.rejected(), 3);
        assert_eq!(db.scores().len(), 1);
    }

    #[test]
    fn submission_order_shapes_contents_not_admission() {
        // The admission decision is pointwise: permuting a batch changes
        // which slots scores land in (contents), never what is accepted or
        // the rejected count. This is the property that lets the parallel
        // sweep replay submissions in canonical order without changing
        // which devices are admitted.
        let batch = [
            score("Nexus 5", "a", 100.0, 0.5),
            score("Nexus 5", "noisy", 80.0, 9.0),
            score("Nexus 5", "b", 95.0, 1.9),
            score("Nexus 5", "bad", f64::NAN, 0.1),
            score("Nexus 5", "c", 90.0, 0.2),
        ];
        let admit = |order: &[usize]| {
            let mut db = CrowdDatabase::new(2.0).unwrap();
            let verdicts: BTreeMap<&str, bool> = order
                .iter()
                .map(|&i| (batch[i].device.as_str(), db.submit(batch[i].clone())))
                .collect();
            (verdicts, db.rejected(), db.scores().len())
        };
        let forward = admit(&[0, 1, 2, 3, 4]);
        let reversed = admit(&[4, 3, 2, 1, 0]);
        let shuffled = admit(&[2, 0, 4, 1, 3]);
        assert_eq!(forward, reversed);
        assert_eq!(forward, shuffled);
        assert_eq!(forward.1, 2, "noisy + NaN rejected in every order");
        // Contents ARE order-sensitive: submission order is preserved.
        let mut db = CrowdDatabase::new(2.0).unwrap();
        db.submit(batch[2].clone());
        db.submit(batch[0].clone());
        let labels: Vec<&str> = db.scores().iter().map(|s| s.device.as_str()).collect();
        assert_eq!(labels, ["b", "a"]);
    }

    #[test]
    fn percentile_is_fraction_beaten() {
        let db = seeded_db();
        assert_eq!(db.percentile("Nexus 5", 100.0), Some(75.0));
        assert_eq!(db.percentile("Nexus 5", 86.0), Some(0.0));
        assert_eq!(db.percentile("Nexus 5", 9999.0), Some(100.0));
        assert_eq!(db.percentile("Galaxy", 100.0), None);
    }

    #[test]
    fn spread_matches_paper_metric() {
        let db = seeded_db();
        // (100-86)/100 = 14%, the paper's Nexus 5 performance spread.
        assert!((db.model_spread_percent("Nexus 5").unwrap() - 14.0).abs() < 1e-9);
        assert_eq!(db.model_spread_percent("Pixel"), None);
    }

    #[test]
    fn ranking_is_best_first_and_model_scoped() {
        let db = seeded_db();
        let ranked = db.ranking("Nexus 5");
        assert_eq!(ranked.len(), 4);
        assert_eq!(ranked[0].device, "a");
        assert_eq!(ranked[3].device, "d");
        assert_eq!(db.ranking("Pixel").len(), 1);
    }

    #[test]
    fn renders_leaderboard() {
        let db = seeded_db();
        let s = db.render_model("Nexus 5");
        assert!(s.contains("spread 14.0%"));
        assert!(s.contains("rank"));
        assert!(!format!("{db}").is_empty());
    }

    #[test]
    fn invalid_filter_rejected() {
        assert!(CrowdDatabase::new(0.0).is_err());
        assert!(CrowdDatabase::new(f64::NAN).is_err());
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let labels = vec!["a".to_owned(), "b".to_owned()];
        let cfg = SweepConfig::clean(Protocol::unconstrained(), 5);
        let base = cfg.digest("Pixel", &labels);
        assert_eq!(base, cfg.digest("Pixel", &labels), "digest must be stable");
        assert_eq!(base.len(), 16);
        // Every knob that changes the simulated outcome changes the digest.
        assert_ne!(base, cfg.digest("Nexus 5", &labels));
        assert_ne!(base, cfg.digest("Pixel", &labels[..1]));
        let mut other = cfg.clone();
        other.iterations = 4;
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.ambient = Celsius(27.0);
        assert_ne!(base, other.digest("Pixel", &labels));
        let other = cfg
            .clone()
            .with_faults(7, Seconds(600.0), pv_faults::ALL_KINDS.to_vec());
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.protocol = Protocol::fixed_frequency(pv_units::MegaHertz(960.0));
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg.clone();
        other.protocol = other
            .protocol
            .with_integrator(pv_thermal::network::Integrator::Exponential);
        assert_ne!(base, other.digest("Pixel", &labels));
        let mut other = cfg;
        other.protocol = other.protocol.with_workload(Seconds(299.0));
        assert_ne!(base, other.digest("Pixel", &labels));
    }

    #[test]
    fn report_reconstructs_from_journal_records() {
        let outcome = |d: &str| SweepOutcome {
            device: d.to_owned(),
            verdict: Some(Verdict::Valid),
            accepted: true,
            quarantined: 0,
            fault_reports: 0,
            error: None,
            status: DeviceStatus::Completed,
            attempts: 1,
        };
        let records = vec![
            Record::Header {
                model: "Pixel".into(),
                digest: "x".into(),
                devices: 2,
            },
            // Out of order on purpose: reconstruction sorts by index.
            Record::Outcome {
                index: 1,
                outcome: outcome("b"),
                score: Some(2.0),
                rsd: Some(0.1),
            },
            Record::Note {
                index: 1,
                text: "noise".into(),
            },
            Record::Outcome {
                index: 0,
                outcome: outcome("a"),
                score: Some(1.0),
                rsd: Some(0.1),
            },
            Record::Complete { devices: 2 },
        ];
        let report = SweepReport::from_journal(&records).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.outcomes[0].device, "a");
        assert_eq!(report.outcomes[1].device, "b");
        // No header ⇒ hard error, not a silent empty report.
        assert!(matches!(
            SweepReport::from_journal(&records[1..]),
            Err(JournalError::MissingHeader)
        ));
        assert!(matches!(
            SweepReport::from_journal(&[]),
            Err(JournalError::MissingHeader)
        ));
    }

    #[test]
    fn headline_failed_count_matches_the_hole_breakdown() {
        let hole = |device: &str, status: DeviceStatus| SweepOutcome {
            device: device.to_owned(),
            verdict: None,
            accepted: false,
            quarantined: 0,
            fault_reports: 0,
            error: Some(format!("{status}")),
            status,
            attempts: 1,
        };
        let report = SweepReport {
            outcomes: vec![
                hole("crashed", DeviceStatus::Panicked),
                hole("stuck", DeviceStatus::TimedOut),
                hole("dead", DeviceStatus::Failed),
            ],
        };
        assert_eq!(report.failed(), 1);
        let text = report.to_string();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("crowd sweep: 3 devices, 0 completed, 0 accepted, 1 failed")
        );
        assert_eq!(
            lines.next(),
            Some("  fleet degraded: 3 device(s) quarantined (1 panicked, 1 timed out, 1 failed)")
        );
    }

    #[test]
    fn sweep_outcome_round_trips_through_json() {
        use pv_json::{FromJson, ToJson};
        for o in [
            SweepOutcome {
                device: "ok".into(),
                verdict: Some(Verdict::Degraded),
                accepted: true,
                quarantined: 1,
                fault_reports: 4,
                error: None,
                status: DeviceStatus::Completed,
                attempts: 1,
            },
            SweepOutcome {
                device: "dead".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 2,
                error: Some("device: hotplug flap".into()),
                status: DeviceStatus::Failed,
                attempts: 1,
            },
            SweepOutcome {
                device: "crashed".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 1,
                error: Some("panic: injected session panic".into()),
                status: DeviceStatus::Panicked,
                attempts: 2,
            },
            SweepOutcome {
                device: "stuck".into(),
                verdict: None,
                accepted: false,
                quarantined: 0,
                fault_reports: 1,
                error: Some("session exceeded simulated-time budget of 100 s".into()),
                status: DeviceStatus::TimedOut,
                attempts: 1,
            },
        ] {
            let back = SweepOutcome::from_json(&o.to_json()).unwrap();
            assert_eq!(back, o);
        }
    }
}
