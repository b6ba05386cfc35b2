//! The measurement harness: runs the ACCUBENCH protocol on a device inside
//! a (real or idealised) thermal environment.
//!
//! The harness mirrors the paper's automated app: it first confirms the
//! chamber is within its target band, then executes warmup → cooldown →
//! workload, metering energy over exactly the workload window, and repeats
//! for back-to-back iterations. Device waste heat feeds back into the
//! chamber, whose controller compensates — the same closed loop as the
//! physical THERMABOX.
//!
//! # Resilience
//!
//! Real measurement campaigns lose iterations to flaky sensors, dropped
//! meter connections and hung chamber controllers. The harness therefore
//! runs every session through a resilience layer:
//!
//! * a shared [`pv_faults::FaultHandle`] gates the chamber, the energy
//!   meter, and (when the caller wraps its device in a
//!   [`pv_soc::faulty::FaultyDevice`]) the device itself. Disarmed — the
//!   default — every path is a bit-identical pass-through;
//! * retry: an iteration that fails with a *transient* error
//!   ([`BenchError::is_transient`]) is retried, up to 3 attempts, after an
//!   idle backoff wait in simulated time, so fault windows genuinely pass;
//! * iteration slots that exhaust their retry budget are **quarantined**
//!   ([`crate::session::QuarantinedIteration`]) rather than aborting the
//!   session, and never contribute to summary statistics;
//! * fixed quality gates judge the finished session into a
//!   [`Verdict`]: too few surviving iterations ⇒
//!   [`Verdict::Invalid`]; quarantines, cooldown timeouts, chamber-band
//!   excursions or excessive spread ⇒ [`Verdict::Degraded`].
//!
//! # Supervision
//!
//! Above the per-iteration retry layer sits the *session* supervision
//! layer (DESIGN.md §12). Every successful coupled step passes through a
//! cooperative checkpoint that (a) charges an optional
//! [`Watchdog`] with the step's simulated
//! time and (b) fires any armed session-level fault:
//! [`FaultKind::SessionPanic`] panics the task (caught and summarized by
//! the sweep executor), and [`FaultKind::SessionStall`] wedges the session
//! — simulated time keeps passing with no protocol progress — until the
//! fault window ends or a watchdog budget trips. Watchdog errors are
//! **not** transient, so they bypass the retry loop and surface to the
//! sweep's escalation policy.

use crate::protocol::Protocol;
use crate::session::{Event, Iteration, QuarantinedIteration, Session, Verdict};
use crate::supervise::Watchdog;
use crate::BenchError;
use pv_faults::{FaultHandle, FaultKind};
use pv_power::FaultyMeter;
use pv_soc::device::{CpuDemand, Dut, FrequencyMode, StepReport};
use pv_soc::trace::Trace;
use pv_stats::Summary;
use pv_thermal::thermabox::{FaultyThermaBox, ThermaBox, ThermaBoxConfig};
use pv_units::{Celsius, Seconds, Watts};
use pv_workload::CYCLES_PER_ITERATION;

/// The thermal environment the device sits in.
#[derive(Debug)]
pub enum Ambient {
    /// An idealised fixed ambient (infinite, perfectly-regulated air).
    Fixed(Celsius),
    /// A simulated THERMABOX whose controller holds the target band while
    /// the device dumps heat into it. Wrapped in a fault gate that is a
    /// pure pass-through until a plan is armed.
    Chamber(Box<FaultyThermaBox>),
}

impl Ambient {
    /// The paper's chamber: 26 ± 0.5 °C THERMABOX.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Thermal`] if the default chamber configuration
    /// is rejected (it never is).
    pub fn paper_chamber() -> Result<Self, BenchError> {
        Ok(Ambient::Chamber(Box::new(FaultyThermaBox::new(
            ThermaBox::new(ThermaBoxConfig::default())?,
            FaultHandle::disarmed(),
        ))))
    }

    /// Current air temperature around the device.
    pub fn current(&self) -> Celsius {
        match self {
            Ambient::Fixed(t) => *t,
            Ambient::Chamber(b) => b.air_temp(),
        }
    }

    /// Whether the environment is inside its acceptance band right now.
    /// An idealised fixed ambient is always in band.
    pub fn in_band(&self) -> bool {
        match self {
            Ambient::Fixed(_) => true,
            Ambient::Chamber(b) => b.is_stable(),
        }
    }

    fn set_faults(&mut self, faults: FaultHandle) {
        if let Ambient::Chamber(b) = self {
            b.set_faults(faults);
        }
    }

    fn step(&mut self, dt: Seconds, device_heat: Watts) -> Result<(), BenchError> {
        if let Ambient::Chamber(b) = self {
            b.step(dt, device_heat)?;
        }
        Ok(())
    }

    fn settle(&mut self) -> Result<(), BenchError> {
        if let Ambient::Chamber(b) = self {
            if !b.is_stable() {
                b.settle(Seconds::from_minutes(120.0))?;
            }
        }
        Ok(())
    }
}

/// How a session retries iterations that fail with transient errors.
///
/// Backoff is exponential in *simulated* time: attempt `n` waits
/// `backoff_base · backoff_factor^(n−1)`, capped at `backoff_max`, idling
/// the device (and advancing the fault clock) so injected fault windows
/// actually pass before the retry.
struct RetryPolicy {
    /// Total attempts per iteration slot (first try included). An
    /// iteration that fails transiently this many times is quarantined.
    max_attempts: u32,
    /// Idle wait before the first retry.
    backoff_base: Seconds,
    /// Multiplier applied to the wait after each further failure.
    backoff_factor: f64,
    /// Ceiling on any single backoff wait.
    backoff_max: Seconds,
}

/// Three attempts with 30 s → 60 s waits, capped at 8 minutes.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    backoff_base: Seconds(30.0),
    backoff_factor: 2.0,
    backoff_max: Seconds(480.0),
};

impl RetryPolicy {
    /// The idle wait before retrying after `failed_attempts` failures.
    fn backoff_for(&self, failed_attempts: u32) -> Seconds {
        let exp = failed_attempts.saturating_sub(1);
        let wait = self.backoff_base.value() * self.backoff_factor.powi(exp as i32);
        Seconds(wait.min(self.backoff_max.value()))
    }
}

/// Acceptance thresholds that judge a finished session into a [`Verdict`].
struct QualityGates {
    /// Minimum iterations that must survive (clamped to the number
    /// requested) for the session to be usable at all.
    min_valid_iterations: usize,
    /// Ceiling on the performance relative standard deviation before the
    /// session is flagged degraded (the paper's repeatability bar).
    max_rsd_percent: f64,
    /// Minimum fraction of each workload window the ambient must spend
    /// inside its acceptance band.
    min_band_occupancy: f64,
}

/// At least 3 surviving iterations, ≤ 5 % RSD, ≥ 80 % band occupancy.
const GATES: QualityGates = QualityGates {
    min_valid_iterations: 3,
    max_rsd_percent: 5.0,
    min_band_occupancy: 0.8,
};

/// Runs [`Protocol`]s against devices.
///
/// # Examples
///
/// ```no_run
/// use accubench::harness::{Ambient, Harness};
/// use accubench::protocol::Protocol;
/// use pv_silicon::binning::BinId;
/// use pv_soc::catalog;
///
/// let mut device = catalog::nexus5(BinId(2))?;
/// let mut harness = Harness::new(Protocol::unconstrained(), Ambient::paper_chamber()?)?;
/// let iteration = harness.run_iteration(&mut device)?;
/// println!("{:.0} iterations, {:.0}", iteration.iterations_completed, iteration.energy);
/// # Ok::<(), accubench::BenchError>(())
/// ```
#[derive(Debug)]
pub struct Harness {
    protocol: Protocol,
    ambient: Ambient,
    faults: FaultHandle,
    watchdog: Option<Watchdog>,
}

impl Harness {
    /// Creates a harness after validating the protocol. Faults start
    /// disarmed.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for invalid protocol fields.
    pub fn new(protocol: Protocol, ambient: Ambient) -> Result<Self, BenchError> {
        protocol.validate()?;
        Ok(Self {
            protocol,
            ambient,
            faults: FaultHandle::disarmed(),
            watchdog: None,
        })
    }

    /// Arms (or disarms) fault injection. The handle is shared with the
    /// chamber and the energy meter; pass a clone of the same handle to a
    /// [`pv_soc::faulty::FaultyDevice`] to gate the device on the same
    /// clock. The harness owns that clock: it advances it once per
    /// successful coupled step.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.ambient.set_faults(faults.clone());
        self.faults = faults;
        self
    }

    /// Arms a session watchdog. Budgets are charged at every coupled-step
    /// checkpoint (including stall and backoff waits); build a fresh
    /// watchdog per session attempt, since budgets do not reset.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Current ambient temperature around the device.
    pub fn ambient_temp(&self) -> Celsius {
        self.ambient.current()
    }

    /// One device step with the chamber coupled: the device sees the chamber
    /// air as its ambient, and its supply draw heats the chamber. The fault
    /// clock advances with every successful step — the single place
    /// simulated time maps onto the fault timeline. Fills a caller-owned
    /// report so the session loop reuses one allocation for all telemetry.
    fn coupled_step<D: Dut>(
        &mut self,
        device: &mut D,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        report: &mut StepReport,
    ) -> Result<(), BenchError> {
        device.set_ambient(self.ambient.current())?;
        device.step_into(dt, demand, mode, report)?;
        self.ambient.step(dt, report.supply_power)?;
        self.faults.advance(dt.value());
        self.checkpoint(dt)
    }

    /// The cooperative supervision checkpoint, reached after every
    /// successful coupled step: charge the watchdog, then fire any armed
    /// session-level fault. Everything here runs on *simulated* time, so
    /// injected panics, stalls, and sim-budget trips are deterministic —
    /// the same session hits them at the same step on every run.
    fn checkpoint(&mut self, dt: Seconds) -> Result<(), BenchError> {
        if let Some(watchdog) = &mut self.watchdog {
            watchdog.charge(dt.value())?;
        }
        if self.faults.is_armed() {
            if let Some(event) = self.faults.active(FaultKind::SessionPanic) {
                self.faults
                    .report_once(&event, || "session task panicked (injected)".into());
                // Caught by the sweep executor's `catch_unwind` and
                // summarized into a `TaskOutcome::Panicked`; the message is
                // deterministic (simulated fault-clock time, not wall time).
                panic!(
                    "{}: device wedged and crashed at fault-clock t={:.1}s",
                    crate::executor::INJECTED_PANIC_MARKER,
                    self.faults.now(),
                );
            }
            if let Some(event) = self.faults.active(FaultKind::SessionStall) {
                self.stall_through(event)?;
            }
        }
        Ok(())
    }

    /// Wedges the session for the duration of a [`FaultKind::SessionStall`]
    /// window: simulated time elapses in idle-step quanta with **no**
    /// protocol or device progress, exactly like a hung benchmark process.
    /// The only exits are the end of the window or a watchdog budget trip —
    /// which is why sweeps always arm a simulated-time budget by default
    /// (chaos stall windows are effectively infinite).
    fn stall_through(&mut self, event: pv_faults::FaultEvent) -> Result<(), BenchError> {
        self.faults
            .report_once(&event, || "session wedged (injected stall)".into());
        let quantum = self.protocol.idle_dt.value();
        while self.faults.active(FaultKind::SessionStall).is_some() {
            self.faults.advance(quantum);
            if let Some(watchdog) = &mut self.watchdog {
                watchdog.charge(quantum)?;
            }
        }
        Ok(())
    }

    /// Idles the device for `duration` of simulated time — the retry
    /// backoff. Fault windows keep elapsing, so a transient fault active
    /// when an iteration failed is typically gone by the retry.
    fn idle_wait<D: Dut>(&mut self, device: &mut D, duration: Seconds) -> Result<(), BenchError> {
        let mut remaining = duration.value();
        let mut report = StepReport::empty();
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(self.protocol.idle_dt.value()));
            self.coupled_step(device, dt, CpuDemand::Idle, self.protocol.mode, &mut report)?;
            remaining -= dt.value();
        }
        Ok(())
    }

    /// Runs one full ACCUBENCH iteration on `device`.
    ///
    /// The device is *not* thermally reset first: back-to-back iterations
    /// genuinely start warm, which is exactly the effect the warmup phase
    /// neutralises.
    ///
    /// # Errors
    ///
    /// Returns a wrapped substrate error if the device or chamber fails
    /// mid-run.
    pub fn run_iteration<D: Dut>(&mut self, device: &mut D) -> Result<Iteration, BenchError> {
        // Pin the protocol's integration scheme on the DUT. Idempotent and
        // cheap; doing it per iteration keeps retried/quarantined slots and
        // directly driven iterations on the recorded configuration.
        device.set_integrator(self.protocol.integrator);

        // "The app first communicates with the THERMABOX and confirms that
        // it is within the target temperature range."
        self.ambient.settle()?;

        let mode = self.protocol.mode;
        let mut t = Seconds::ZERO;
        let record = self.protocol.record_trace;
        // A recorded trace is sized for its busy phases up front: one large
        // allocation instead of a doubling chain that may start in a small
        // block another thread freed, and so grow in that thread's arena.
        let busy_steps = |phase: Seconds| {
            if record {
                (phase.value() / self.protocol.busy_dt.value()).ceil() as usize
            } else {
                0
            }
        };
        let workload_steps = busy_steps(self.protocol.workload);
        let mut full_trace =
            Trace::with_capacity(busy_steps(self.protocol.warmup) + workload_steps);
        let mut events: Vec<(Seconds, Event)> = Vec::new();
        // One report reused for every step of the iteration: with
        // `Device::step_into` this keeps the steady-state loop off the heap.
        let mut report = StepReport::empty();
        // Running peak die temperature over all three phases, folded the
        // way `Trace::peak_die_temp` folds a recorded trace, so traced and
        // untraced iterations report the same peak.
        let mut peak: Option<Celsius> = None;
        let mut raise_peak = |t: Celsius| peak = Some(peak.map_or(t, |p| p.max(t)));

        // --- Warmup: wakelock held, all cores busy. ---
        events.push((t, Event::WakelockAcquired));
        let mut remaining = self.protocol.warmup.value();
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(self.protocol.busy_dt.value()));
            self.coupled_step(device, dt, CpuDemand::busy(), mode, &mut report)?;
            t += dt;
            raise_peak(report.die_temp);
            if record {
                full_trace.push(report.to_sample(t));
            }
            remaining -= dt.value();
        }

        // --- Cooldown: wakelock released; poll the sensor every 5 s. ---
        events.push((t, Event::WakelockReleased));
        let mut cooldown_elapsed = 0.0;
        let mut since_poll = f64::INFINITY; // poll immediately
        let mut timed_out = true;
        while cooldown_elapsed < self.protocol.cooldown_timeout.value() {
            if since_poll >= self.protocol.cooldown_poll.value() {
                since_poll = 0.0;
                match device.try_read_sensor() {
                    Ok(reading) => {
                        events.push((t, Event::CooldownPoll(reading)));
                        let target = self
                            .protocol
                            .cooldown_target
                            .resolve(self.ambient.current());
                        if reading < target {
                            timed_out = false;
                            break;
                        }
                    }
                    Err(e) => {
                        // A dropped poll is not fatal to the protocol: the
                        // device just keeps sleeping until the next poll.
                        let e = BenchError::from(e);
                        if !e.is_transient() {
                            return Err(e);
                        }
                        events.push((t, Event::CooldownPollMissed));
                    }
                }
            }
            let dt = Seconds(
                self.protocol
                    .idle_dt
                    .value()
                    .min(self.protocol.cooldown_poll.value()),
            );
            self.coupled_step(device, dt, CpuDemand::Idle, mode, &mut report)?;
            t += dt;
            cooldown_elapsed += dt.value();
            since_poll += dt.value();
            raise_peak(report.die_temp);
            if record {
                full_trace.push(report.to_sample(t));
            }
        }
        let cooldown_duration = Seconds(cooldown_elapsed);
        events.push((
            t,
            if timed_out && self.protocol.cooldown_timeout.value() > 0.0 {
                Event::CooldownTimedOut
            } else {
                Event::WorkloadStarted
            },
        ));

        // --- Workload: metered window. ---
        let mut meter = FaultyMeter::new(self.faults.clone());
        let mut workload_trace = Trace::with_capacity(workload_steps);
        let mut work_cycles = 0.0;
        let mut temp_weighted = 0.0;
        let mut freq_weighted: Vec<f64> = Vec::new();
        let mut throttled_time = 0.0;
        let mut workload_time = 0.0;
        let mut band_time = 0.0;
        let mut remaining = self.protocol.workload.value();
        while remaining > 0.0 {
            let dt = Seconds(remaining.min(self.protocol.busy_dt.value()));
            self.coupled_step(device, dt, CpuDemand::busy(), mode, &mut report)?;
            t += dt;
            meter.record(report.supply_power, dt)?;
            raise_peak(report.die_temp);
            work_cycles += report.work_cycles;
            temp_weighted += report.die_temp.value() * dt.value();
            if freq_weighted.is_empty() {
                freq_weighted = vec![0.0; report.cluster_freqs.len()];
            }
            for (acc, f) in freq_weighted.iter_mut().zip(&report.cluster_freqs) {
                *acc += f.value() * dt.value();
            }
            workload_time += dt.value();
            if report.throttled {
                throttled_time += dt.value();
            }
            if self.ambient.in_band() {
                band_time += dt.value();
            }
            if record {
                let sample = report.to_sample(t);
                full_trace.push(sample.clone());
                workload_trace.push(sample);
            }
            remaining -= dt.value();
        }

        events.push((t, Event::WorkloadEnded));
        let workload_secs = workload_time.max(f64::MIN_POSITIVE);
        let peak_temp = peak.unwrap_or_else(|| device.die_temp());
        Ok(Iteration {
            iterations_completed: work_cycles / CYCLES_PER_ITERATION,
            energy: meter.energy(),
            cooldown_duration,
            cooldown_timed_out: timed_out && self.protocol.cooldown_timeout.value() > 0.0,
            workload_mean_freqs: freq_weighted
                .iter()
                .map(|w| pv_units::MegaHertz(w / workload_secs))
                .collect(),
            workload_mean_temp: Celsius(temp_weighted / workload_secs),
            peak_temp,
            throttled_fraction: throttled_time / workload_secs,
            band_occupancy: band_time / workload_secs,
            full_trace,
            workload_trace,
            events,
        })
    }

    /// Judges a finished session against the quality gates.
    fn judge(
        &self,
        runs: &[Iteration],
        quarantined: &[QuarantinedIteration],
        requested: usize,
    ) -> Verdict {
        let need = GATES.min_valid_iterations.min(requested).max(1);
        if runs.len() < need {
            return Verdict::Invalid;
        }
        let mut degraded = !quarantined.is_empty()
            || runs.iter().any(|it| it.cooldown_timed_out)
            || runs
                .iter()
                .any(|it| it.band_occupancy < GATES.min_band_occupancy);
        if runs.len() >= 2 {
            if let Ok(perf) = Summary::from_iter(runs.iter().map(|i| i.iterations_completed)) {
                degraded |= perf.rsd_percent() > GATES.max_rsd_percent;
            }
        }
        if degraded {
            Verdict::Degraded
        } else {
            Verdict::Valid
        }
    }

    /// Runs `iterations` back-to-back iterations — the paper ran 5 per
    /// device per workload.
    ///
    /// Each iteration slot is retried, up to 3 attempts, when it fails
    /// with a *transient* error (injected probe dropouts, meter
    /// disconnects, chamber stalls, hotplug flaps), idling the device
    /// through an exponential backoff between attempts. Slots that exhaust
    /// their budget are quarantined, not fatal; the session's
    /// [`Verdict`] reports what survived.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] for zero iterations, or the
    /// first *fatal* (non-transient) error from any attempt.
    pub fn run_session<D: Dut>(
        &mut self,
        device: &mut D,
        iterations: usize,
    ) -> Result<Session, BenchError> {
        if iterations == 0 {
            return Err(BenchError::InvalidProtocol("iterations must be >= 1"));
        }
        let mut runs = Vec::with_capacity(iterations);
        let mut quarantined = Vec::new();
        for index in 0..iterations {
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                match self.run_iteration(device) {
                    Ok(it) => {
                        runs.push(it);
                        break;
                    }
                    Err(e) if e.is_transient() => {
                        if attempts < RETRY.max_attempts {
                            self.idle_wait(device, RETRY.backoff_for(attempts))?;
                        } else {
                            quarantined.push(QuarantinedIteration {
                                index,
                                attempts,
                                reason: e.to_string(),
                            });
                            break;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        let verdict = self.judge(&runs, &quarantined, iterations);
        Ok(Session {
            device_label: device.label().to_owned(),
            iterations: runs,
            quarantined,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CooldownTarget;
    use pv_faults::{FaultEvent, FaultKind, FaultPlan};
    use pv_silicon::binning::BinId;
    use pv_soc::catalog;
    use pv_soc::device::Device;
    use pv_soc::faulty::FaultyDevice;
    use pv_units::{MegaHertz, TempDelta};

    /// Shortened protocol so unit tests stay fast; the integration tests
    /// and benches run the full-length paper protocol.
    fn quick(mode_freq: Option<MegaHertz>) -> Protocol {
        let base = match mode_freq {
            None => Protocol::unconstrained(),
            Some(f) => Protocol::fixed_frequency(f),
        };
        base.with_warmup(Seconds(40.0)).with_workload(Seconds(60.0))
    }

    #[test]
    fn iteration_produces_work_and_energy() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0))).unwrap();
        let it = harness.run_iteration(&mut device).unwrap();
        assert!(
            it.iterations_completed > 10.0,
            "{}",
            it.iterations_completed
        );
        assert!(it.energy.value() > 10.0, "{}", it.energy);
        assert!(!it.cooldown_timed_out);
        assert!(it.cooldown_duration.value() > 0.0);
        assert_eq!(it.band_occupancy, 1.0); // fixed ambient is always in band
    }

    #[test]
    fn cooldown_actually_cools_to_target() {
        let mut device = catalog::nexus5(BinId(3)).unwrap();
        let mut harness = Harness::new(
            quick(None).with_cooldown_target(CooldownTarget::AboveAmbient(TempDelta(6.0))),
            Ambient::Fixed(Celsius(26.0)),
        )
        .unwrap();
        // Heat the device first so cooldown has work to do.
        for _ in 0..400 {
            device
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
        }
        let it = harness.run_iteration(&mut device).unwrap();
        assert!(!it.cooldown_timed_out);
        // After cooldown the workload started below ~36 °C die temperature,
        // so the workload-phase mean can't be wildly high right at start.
        assert!(it.cooldown_duration.value() >= 5.0);
    }

    #[test]
    fn back_to_back_iterations_are_consistent() {
        // The whole point of the methodology: iteration 1 (cold start) and
        // iteration 3 (warm start) agree within a couple percent.
        let mut device = catalog::nexus5(BinId(1)).unwrap();
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0))).unwrap();
        let session = harness.run_session(&mut device, 3).unwrap();
        let perf = session.performance_summary().unwrap();
        assert!(
            perf.rsd_percent() < 3.0,
            "session RSD {:.2}% too high",
            perf.rsd_percent()
        );
        assert_eq!(session.verdict, Verdict::Valid);
        assert!(session.quarantined.is_empty());
    }

    #[test]
    fn fixed_frequency_never_throttles_and_is_stable() {
        let mut device = catalog::nexus5(BinId(3)).unwrap();
        let mut harness =
            Harness::new(quick(Some(MegaHertz(960.0))), Ambient::Fixed(Celsius(26.0))).unwrap();
        let session = harness.run_session(&mut device, 3).unwrap();
        for it in &session.iterations {
            assert_eq!(it.throttled_fraction, 0.0);
            assert!(
                (it.workload_mean_freqs[0].value() - 960.0).abs() < 1e-6,
                "mean freq {}",
                it.workload_mean_freqs[0]
            );
        }
        // Fixed work rate ⇒ sub-percent performance variation.
        let perf = session.performance_summary().unwrap();
        assert!(perf.rsd_percent() < 0.5, "RSD {}", perf.rsd_percent());
    }

    #[test]
    fn tracing_captures_all_phases() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut harness =
            Harness::new(quick(None).with_trace(), Ambient::Fixed(Celsius(26.0))).unwrap();
        let it = harness.run_iteration(&mut device).unwrap();
        assert!(!it.full_trace.is_empty());
        assert!(!it.workload_trace.is_empty());
        assert!(it.full_trace.len() > it.workload_trace.len());
        // Trace duration covers warmup + cooldown + workload.
        let d = it.full_trace.duration().value();
        assert!(
            (d - (40.0 + it.cooldown_duration.value() + 60.0)).abs() < 1.0,
            "trace duration {d}"
        );
    }

    #[test]
    fn peak_temp_does_not_depend_on_tracing() {
        // The peak is reached under load, well before the iteration ends
        // cool, so the final die temperature is not a stand-in for it.
        let session = |protocol: Protocol| {
            let mut device = catalog::nexus5(BinId(0)).unwrap();
            let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0))).unwrap();
            harness.run_session(&mut device, 2).unwrap()
        };
        let plain = session(quick(None));
        let traced = session(quick(None).with_trace());
        assert_eq!(plain.iterations.len(), traced.iterations.len());
        for (p, t) in plain.iterations.iter().zip(&traced.iterations) {
            assert!(p.full_trace.is_empty());
            assert_eq!(Some(t.peak_temp), t.full_trace.peak_die_temp());
            assert_eq!(p.peak_temp, t.peak_temp);
        }
    }

    #[test]
    fn chamber_coupling_keeps_ambient_in_band() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut harness = Harness::new(quick(None), Ambient::paper_chamber().unwrap()).unwrap();
        let it = harness.run_iteration(&mut device).unwrap();
        let ambient = harness.ambient_temp();
        assert!(
            (ambient.value() - 26.0).abs() < 1.0,
            "chamber drifted to {ambient}"
        );
        assert!(it.band_occupancy > 0.9, "occupancy {}", it.band_occupancy);
    }

    #[test]
    fn unreachable_cooldown_times_out_gracefully() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut p = quick(None).with_cooldown_target(CooldownTarget::Absolute(Celsius(0.0)));
        p.cooldown_timeout = Seconds(30.0);
        let mut harness = Harness::new(p, Ambient::Fixed(Celsius(26.0))).unwrap();
        let it = harness.run_iteration(&mut device).unwrap();
        assert!(it.cooldown_timed_out);
        assert!(it.iterations_completed > 0.0); // workload still ran
    }

    #[test]
    fn protocol_events_are_logged_in_order() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0))).unwrap();
        let it = harness.run_iteration(&mut device).unwrap();
        use crate::session::Event;
        let kinds: Vec<&Event> = it.events.iter().map(|(_, e)| e).collect();
        assert_eq!(kinds.first(), Some(&&Event::WakelockAcquired));
        assert!(matches!(kinds[1], Event::WakelockReleased));
        assert!(kinds.iter().any(|e| matches!(e, Event::CooldownPoll(_))));
        assert!(kinds.iter().any(|e| matches!(e, Event::WorkloadStarted)));
        assert_eq!(kinds.last(), Some(&&Event::WorkloadEnded));
        // Timestamps are non-decreasing.
        for w in it.events.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // Wakelock released exactly at the end of warmup.
        assert!((it.events[1].0.value() - 40.0).abs() < 0.2);
    }

    #[test]
    fn zero_iterations_rejected() {
        let mut device = catalog::nexus5(BinId(0)).unwrap();
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0))).unwrap();
        assert!(harness.run_session(&mut device, 0).is_err());
    }

    #[test]
    fn ambient_constructors() {
        assert_eq!(Ambient::Fixed(Celsius(30.0)).current(), Celsius(30.0));
        assert!(Ambient::Fixed(Celsius(30.0)).in_band());
        let chamber = Ambient::paper_chamber().unwrap();
        assert!(matches!(chamber, Ambient::Chamber(_)));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(RETRY.backoff_for(1), Seconds(30.0));
        assert_eq!(RETRY.backoff_for(2), Seconds(60.0));
        assert_eq!(RETRY.backoff_for(5), Seconds(480.0)); // capped
    }

    /// A session whose device drops its sensor briefly mid-cooldown still
    /// completes every iteration and stays Valid: missed polls just wait.
    #[test]
    fn transient_sensor_dropout_survives_as_valid() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 45.0, // inside the first cooldown (warmup is 40 s)
            duration: 8.0,
            kind: FaultKind::ProbeDropout,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(catalog::nexus5(BinId(0)).unwrap(), handle.clone());
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0)))
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 3).unwrap();
        assert_eq!(session.iterations.len(), 3);
        assert_eq!(session.verdict, Verdict::Valid);
        assert!(session.quarantined.is_empty());
        // The dropout was hit and logged.
        assert!(handle.report_count() >= 1);
        let missed = session.iterations[0]
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::CooldownPollMissed))
            .count();
        assert!(missed >= 1, "expected at least one missed poll");
    }

    /// A hotplug flap during the workload fails the attempt; the retry
    /// (after an idle backoff that outlasts the window) succeeds, so the
    /// session completes with no quarantine but a Degraded-free verdict.
    #[test]
    fn transient_workload_fault_is_retried() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 100.0, // inside the first workload window
            duration: 20.0,
            kind: FaultKind::HotplugFlap,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(catalog::nexus5(BinId(0)).unwrap(), handle.clone());
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0)))
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 2).unwrap();
        assert_eq!(session.iterations.len(), 2);
        assert!(session.quarantined.is_empty());
        assert_eq!(session.verdict, Verdict::Valid);
    }

    /// A fault window longer than the whole retry budget quarantines the
    /// slot instead of aborting, and the verdict degrades (or invalidates
    /// when too few iterations survive).
    #[test]
    fn exhausted_retries_quarantine_and_degrade() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 0.0,
            duration: 1e9, // never clears
            kind: FaultKind::HotplugFlap,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(catalog::nexus5(BinId(0)).unwrap(), handle.clone());
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0)))
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 2).unwrap();
        assert!(session.iterations.is_empty());
        assert_eq!(session.quarantined.len(), 2);
        assert_eq!(session.quarantined[0].attempts, 3);
        assert_eq!(session.verdict, Verdict::Invalid);
    }

    /// Fatal (non-transient) errors are never retried or quarantined.
    #[test]
    fn fatal_errors_abort_the_session() {
        struct BrokenDut(Device);
        impl Dut for BrokenDut {
            fn label(&self) -> &str {
                self.0.label()
            }
            fn die_temp(&self) -> Celsius {
                self.0.die_temp()
            }
            fn set_ambient(&mut self, ambient: Celsius) -> Result<(), pv_soc::SocError> {
                self.0.set_ambient(ambient)
            }
            fn try_read_sensor(&mut self) -> Result<Celsius, pv_soc::SocError> {
                Ok(self.0.read_sensor())
            }
            fn step(
                &mut self,
                _dt: Seconds,
                _demand: CpuDemand,
                _mode: FrequencyMode,
            ) -> Result<pv_soc::device::StepReport, pv_soc::SocError> {
                Err(pv_soc::SocError::InvalidStep("broken"))
            }
        }
        let mut device = BrokenDut(catalog::nexus5(BinId(0)).unwrap());
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0))).unwrap();
        let err = harness.run_session(&mut device, 2).unwrap_err();
        assert!(!err.is_transient());
    }

    /// Disarmed fault plumbing is bit-identical to the pre-fault harness:
    /// wrapping the device changes nothing.
    #[test]
    fn disarmed_faults_do_not_perturb_results() {
        let mut plain = catalog::nexus5(BinId(2)).unwrap();
        let mut h1 = Harness::new(quick(None), Ambient::paper_chamber().unwrap()).unwrap();
        let s1 = h1.run_session(&mut plain, 2).unwrap();

        let mut gated =
            FaultyDevice::new(catalog::nexus5(BinId(2)).unwrap(), FaultHandle::disarmed());
        let mut h2 = Harness::new(quick(None), Ambient::paper_chamber().unwrap())
            .unwrap()
            .with_faults(FaultHandle::disarmed());
        let s2 = h2.run_session(&mut gated, 2).unwrap();
        assert_eq!(s1, s2);
    }

    /// Quarantined slots never leak into summary statistics.
    #[test]
    fn quarantined_iterations_never_reach_summaries() {
        // Measure how long one clean iteration takes in simulated time so
        // the permanent fault can be placed just after the first slot.
        let mut probe_dev = catalog::nexus5(BinId(0)).unwrap();
        let clock = FaultHandle::armed(FaultPlan::empty());
        let mut probe_h = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0)))
            .unwrap()
            .with_faults(clock.clone());
        probe_h.run_iteration(&mut probe_dev).unwrap();
        let first_iteration_ends = clock.now();

        let plan = FaultPlan::empty().with_event(FaultEvent {
            // Kill everything after the first iteration completes.
            at: first_iteration_ends + 1.0,
            duration: 1e9,
            kind: FaultKind::HotplugFlap,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(catalog::nexus5(BinId(0)).unwrap(), handle.clone());
        let mut harness = Harness::new(quick(None), Ambient::Fixed(Celsius(26.0)))
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 3).unwrap();
        assert_eq!(session.iterations.len(), 1);
        assert_eq!(session.quarantined.len(), 2);
        let perf = session.performance_summary().unwrap();
        assert_eq!(perf.n(), session.iterations.len());
        assert_eq!(session.verdict, Verdict::Invalid); // < 3 survived of 3 requested
    }
}
