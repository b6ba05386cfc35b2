//! Results of ACCUBENCH iterations and sessions.

use crate::BenchError;
use core::fmt;
use pv_soc::trace::Trace;
use pv_stats::Summary;
use pv_units::{Celsius, Joules, MegaHertz, Seconds};

/// A protocol event, as the paper's app logs them (Fig 4 annotates the
/// timeline with exactly these transitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Wakelock acquired; warmup begins.
    WakelockAcquired,
    /// Warmup finished; wakelock released; device enters sleep.
    WakelockReleased,
    /// A cooldown wakeup polled the sensor and read this temperature.
    CooldownPoll(Celsius),
    /// A cooldown wakeup tried to poll the sensor but got no reading
    /// (transient probe dropout); the loop keeps waiting.
    CooldownPollMissed,
    /// Cooldown target reached; workload begins.
    WorkloadStarted,
    /// Cooldown gave up; workload begins warm.
    CooldownTimedOut,
    /// Workload window complete.
    WorkloadEnded,
}

impl pv_json::ToJson for Event {
    /// Unit variants render as their name, `CooldownPoll` as a
    /// single-entry object tagging the polled temperature.
    fn to_json(&self) -> pv_json::Json {
        match self {
            Event::CooldownPoll(t) => {
                let mut obj = pv_json::Json::object();
                obj.insert("CooldownPoll", pv_json::ToJson::to_json(t));
                obj
            }
            other => pv_json::Json::String(format!("{other:?}")),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::WakelockAcquired => write!(f, "wakelock acquired, warmup start"),
            Event::WakelockReleased => write!(f, "wakelock released, cooldown start"),
            Event::CooldownPoll(t) => write!(f, "cooldown poll: {t:.1}"),
            Event::CooldownPollMissed => write!(f, "cooldown poll missed (sensor dropout)"),
            Event::WorkloadStarted => write!(f, "workload start"),
            Event::CooldownTimedOut => write!(f, "cooldown timed out"),
            Event::WorkloadEnded => write!(f, "workload end"),
        }
    }
}

/// Result of one ACCUBENCH iteration (warmup → cooldown → workload).
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// π-loop iterations completed during the workload window — the paper's
    /// performance metric.
    pub iterations_completed: f64,
    /// Energy drawn from the supply during the workload window only.
    pub energy: Joules,
    /// How long the cooldown phase took.
    pub cooldown_duration: Seconds,
    /// Whether cooldown gave up before reaching the target (the workload
    /// then started warm; the paper would discard such iterations).
    pub cooldown_timed_out: bool,
    /// Time-weighted mean frequency of each cluster during the workload.
    pub workload_mean_freqs: Vec<MegaHertz>,
    /// Time-weighted mean die temperature during the workload.
    pub workload_mean_temp: Celsius,
    /// Peak die temperature over the whole iteration.
    pub peak_temp: Celsius,
    /// Fraction of workload time any throttle was engaged.
    pub throttled_fraction: f64,
    /// Fraction of workload time the ambient was inside its acceptance band
    /// (1.0 under an idealised fixed ambient). The paper's methodology is
    /// only valid while the chamber holds its band; quality gates reject
    /// iterations measured during excursions.
    pub band_occupancy: f64,
    /// Full per-step trace of the whole iteration (empty unless the protocol
    /// enabled tracing).
    pub full_trace: Trace,
    /// Trace restricted to the workload phase (empty unless tracing).
    pub workload_trace: Trace,
    /// Protocol events with their timestamps (wakelock transitions,
    /// cooldown polls, phase boundaries) — the annotations of Fig 4.
    pub events: Vec<(Seconds, Event)>,
}

impl fmt::Display for Iteration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} iters, {:.1}, cooldown {:.0}{}",
            self.iterations_completed,
            self.energy,
            self.cooldown_duration,
            if self.cooldown_timed_out {
                " (timed out)"
            } else {
                ""
            }
        )
    }
}

/// How much a finished session can be trusted.
///
/// Produced by the harness's quality gates: a session that lost iterations
/// to faults, timed out a cooldown, measured through a chamber excursion,
/// or spread beyond the RSD ceiling is flagged rather than silently mixed
/// into clean data — the paper's "strict filters" applied at the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Every requested iteration completed cleanly and all gates passed.
    #[default]
    Valid,
    /// Usable but impaired: some iterations were quarantined, a cooldown
    /// timed out, the chamber left its band, or the spread exceeds the RSD
    /// ceiling. Downstream consumers should weigh it accordingly.
    Degraded,
    /// Too few valid iterations survived to trust any summary statistic.
    Invalid,
}

impl Verdict {
    /// Stable lowercase name (used in JSON and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Valid => "valid",
            Verdict::Degraded => "degraded",
            Verdict::Invalid => "invalid",
        }
    }

    /// Inverse of [`Verdict::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        [Verdict::Valid, Verdict::Degraded, Verdict::Invalid]
            .into_iter()
            .find(|v| v.as_str() == s)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl pv_json::ToJson for Verdict {
    fn to_json(&self) -> pv_json::Json {
        pv_json::Json::String(self.as_str().to_owned())
    }
}

impl pv_json::FromJson for Verdict {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        Verdict::parse(value.as_str()?)
    }
}

/// Record of an iteration slot that was abandoned after exhausting its
/// retry budget. Quarantined slots never contribute to session summaries —
/// they are kept only so reports can account for every requested iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedIteration {
    /// Zero-based index of the iteration slot that was abandoned.
    pub index: usize,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// Human-readable description of the last failure.
    pub reason: String,
}

impl fmt::Display for QuarantinedIteration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} quarantined after {} attempts: {}",
            self.index, self.attempts, self.reason
        )
    }
}

/// A back-to-back sequence of iterations on one device (the paper ran 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Label of the device measured.
    pub device_label: String,
    /// The iterations that completed, in run order. Quarantined slots are
    /// *not* here — summaries never see them.
    pub iterations: Vec<Iteration>,
    /// Iteration slots abandoned after exhausting their retry budget.
    pub quarantined: Vec<QuarantinedIteration>,
    /// The quality-gate verdict for the whole session.
    pub verdict: Verdict,
}

// Sessions are produced on worker threads during parallel fleet sweeps and
// handed to the merge thread; keep them (and what they contain) `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<Iteration>();
    assert_send::<Verdict>();
};

impl Session {
    /// Summary statistics of the performance metric across iterations.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] for an empty session.
    pub fn performance_summary(&self) -> Result<Summary, BenchError> {
        Ok(Summary::from_iter(
            self.iterations.iter().map(|i| i.iterations_completed),
        )?)
    }

    /// Summary statistics of workload energy across iterations.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] for an empty session.
    pub fn energy_summary(&self) -> Result<Summary, BenchError> {
        Ok(Summary::from_iter(
            self.iterations.iter().map(|i| i.energy.value()),
        )?)
    }

    /// Whether any iteration started its workload warm.
    pub fn any_cooldown_timed_out(&self) -> bool {
        self.iterations.iter().any(|i| i.cooldown_timed_out)
    }

    /// Iteration slots that were requested but abandoned to faults.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

impl fmt::Display for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session [{}]: {} iterations, {}",
            self.device_label,
            self.iterations.len(),
            self.verdict
        )?;
        for (i, it) in self.iterations.iter().enumerate() {
            writeln!(f, "  #{i}: {it}")?;
        }
        for q in &self.quarantined {
            writeln!(f, "  {q}")?;
        }
        Ok(())
    }
}

pv_json::impl_to_json!(Iteration {
    iterations_completed,
    energy,
    cooldown_duration,
    cooldown_timed_out,
    workload_mean_freqs,
    workload_mean_temp,
    peak_temp,
    throttled_fraction,
    band_occupancy,
    full_trace,
    workload_trace,
    events
});
pv_json::impl_to_json!(QuarantinedIteration {
    index,
    attempts,
    reason
});
pv_json::impl_to_json!(Session {
    device_label,
    iterations,
    quarantined,
    verdict
});

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(perf: f64, energy: f64) -> Iteration {
        Iteration {
            iterations_completed: perf,
            energy: Joules(energy),
            cooldown_duration: Seconds(120.0),
            cooldown_timed_out: false,
            workload_mean_freqs: vec![MegaHertz(2000.0)],
            workload_mean_temp: Celsius(60.0),
            peak_temp: Celsius(78.0),
            throttled_fraction: 0.4,
            band_occupancy: 1.0,
            full_trace: Trace::new(),
            workload_trace: Trace::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn session_summaries() {
        let s = Session {
            device_label: "bin-0".into(),
            iterations: vec![
                iteration(1000.0, 500.0),
                iteration(1010.0, 505.0),
                iteration(990.0, 495.0),
            ],
            quarantined: Vec::new(),
            verdict: Verdict::Valid,
        };
        let perf = s.performance_summary().unwrap();
        assert!((perf.mean() - 1000.0).abs() < 1e-9);
        assert!(perf.rsd_percent() < 2.0);
        let energy = s.energy_summary().unwrap();
        assert!((energy.mean() - 500.0).abs() < 1e-9);
        assert!(!s.any_cooldown_timed_out());
    }

    #[test]
    fn empty_session_summaries_error() {
        let s = Session {
            device_label: "x".into(),
            iterations: vec![],
            quarantined: Vec::new(),
            verdict: Verdict::Invalid,
        };
        assert!(s.performance_summary().is_err());
        assert!(s.energy_summary().is_err());
    }

    #[test]
    fn timed_out_flag_propagates() {
        let mut it = iteration(1.0, 1.0);
        it.cooldown_timed_out = true;
        let s = Session {
            device_label: "x".into(),
            iterations: vec![it],
            quarantined: Vec::new(),
            verdict: Verdict::Degraded,
        };
        assert!(s.any_cooldown_timed_out());
        assert!(format!("{s}").contains("timed out"));
    }

    #[test]
    fn events_render() {
        assert!(format!("{}", Event::WakelockAcquired).contains("warmup"));
        assert!(format!("{}", Event::CooldownPoll(Celsius(31.0))).contains("31.0"));
        assert!(format!("{}", Event::WorkloadEnded).contains("end"));
    }

    #[test]
    fn displays_are_informative() {
        let it = iteration(42.0, 10.0);
        assert!(format!("{it}").contains("42.0 iters"));
        let s = Session {
            device_label: "bin-3".into(),
            iterations: vec![it],
            quarantined: Vec::new(),
            verdict: Verdict::Valid,
        };
        assert!(format!("{s}").contains("bin-3"));
        assert!(format!("{s}").contains("valid"));
    }

    #[test]
    fn verdict_names_and_json() {
        use pv_json::{FromJson, ToJson};
        assert_eq!(Verdict::Valid.as_str(), "valid");
        assert_eq!(Verdict::Degraded.as_str(), "degraded");
        assert_eq!(Verdict::Invalid.as_str(), "invalid");
        assert_eq!(Verdict::default(), Verdict::Valid);
        assert_eq!(
            Verdict::Degraded.to_json().to_string_compact(),
            "\"degraded\""
        );
        for v in [Verdict::Valid, Verdict::Degraded, Verdict::Invalid] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
            assert_eq!(Verdict::from_json(&v.to_json()), Some(v));
        }
        assert_eq!(Verdict::parse("bogus"), None);
    }

    #[test]
    fn quarantined_slots_render_and_serialize() {
        use pv_json::ToJson;
        let q = QuarantinedIteration {
            index: 2,
            attempts: 3,
            reason: "chamber: controller stalled".into(),
        };
        assert!(format!("{q}").contains("#2"));
        assert!(format!("{q}").contains("3 attempts"));
        let s = Session {
            device_label: "x".into(),
            iterations: vec![iteration(10.0, 5.0)],
            quarantined: vec![q],
            verdict: Verdict::Degraded,
        };
        assert_eq!(s.quarantined_count(), 1);
        let json = s.to_json().to_string_compact();
        assert!(json.contains("\"quarantined\""));
        assert!(json.contains("\"verdict\":\"degraded\""));
        assert!(format!("{s}").contains("quarantined after"));
    }
}
