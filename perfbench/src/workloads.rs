//! The four user jobs: set-up from a seed, the job itself (through the
//! library's entry points, or through the traced rebuild in
//! [`crate::sweep`]), and the output fingerprint each job is checked by.

use crate::measure::{now_ns, Fingerprint};
use crate::sweep;
use crate::trace::{span, StepRecord, Timed};
use accubench::aggregate::{ScoreAggregate, DEFAULT_TOP_K};
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, SamplePlan, SweepConfig, SweepOutcome,
    SweepReport,
};
use accubench::experiments::{self, study, ExperimentConfig};
use accubench::harness::{Ambient, Harness};
use accubench::journal::{CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::storage::{FaultyStorage, Storage};
use accubench::supervise::{DeviceStatus, SessionChaos};
use accubench::BenchError;
use pv_faults::{FaultEvent, FaultKind, FaultPlan};
use pv_json::ToJson;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_silicon::binning::{nexus5::N_BINS, BinId};
use pv_silicon::DieSample;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_soc::spec::DeviceSpec;
use pv_stats::sampling::{self, Selection, Strategy, StratumSample};
use pv_thermal::network::Integrator;
use pv_units::Seconds;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Device model every sweep runs.
const MODEL: &str = "Pixel";
/// The crowd database's admission filter (RSD %), as `repro sweep` uses.
const MAX_RSD: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Crowd,
    Durable,
    Paper,
    Census,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Crowd,
        Workload::Durable,
        Workload::Paper,
        Workload::Census,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Crowd => "crowd",
            Workload::Durable => "durable",
            Workload::Paper => "paper",
            Workload::Census => "census",
        }
    }

    /// Whether the job is a sweep, run on the executor's worker pool.
    pub fn is_sweep(self) -> bool {
        self != Workload::Paper
    }

    /// Worker threads of the measured job. The compute-bound jobs run on
    /// one: on the 2-vCPU host the benchmark was written on, two busy
    /// workers made `crowd`'s job time spread 23 % between runs, one worker
    /// 7 %. `durable` keeps two, so that one worker's journal fsync
    /// overlaps the other's session, as in a journaled `repro sweep`.
    pub fn workers(self) -> usize {
        match self {
            Workload::Durable => 2,
            _ => 1,
        }
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::smoke`] is the self-test's tiny version of every job.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub crowd_devices: usize,
    pub durable_devices: usize,
    pub census_population: usize,
    pub census_sample: usize,
    pub census_scale: f64,
    /// `None` runs the paper at `ExperimentConfig::paper()`.
    pub paper: Option<ExperimentConfig>,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            crowd_devices: 1024,
            durable_devices: 2048,
            census_population: 1_000_000,
            census_sample: 512,
            census_scale: 0.5,
            paper: None,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            crowd_devices: 16,
            durable_devices: 24,
            census_population: 20_000,
            census_sample: 16,
            census_scale: 0.1,
            paper: Some(ExperimentConfig::quick()),
        }
    }
}

/// A temporary directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<Self, BenchError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(BenchError::Io)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the root too once no run uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Where journals are written, relative to the working directory.
pub const WORK_ROOT: &str = ".perfbench-work";

/// A set-up job, ready to run. Only one exists at a time, so the size
/// difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Input {
    Crowd {
        devices: Vec<Device>,
        cfg: SweepConfig,
    },
    Durable {
        devices: Vec<Device>,
        resume_devices: Vec<Device>,
        cfg: SweepConfig,
        journal: Journal,
        path: PathBuf,
        dir: WorkDir,
    },
    Paper {
        cfg: ExperimentConfig,
        seed: u64,
    },
    Census {
        devices: Vec<Device>,
        cfg: SweepConfig,
        selection: Selection,
        seed: u64,
        /// Wall time of `sampling::select`, in seconds.
        select_s: f64,
    },
}

/// What a job produced and how it is judged.
pub struct Output {
    pub fingerprint: Fingerprint,
    /// Devices simulated (artifacts regenerated, for `paper`).
    pub attempted: usize,
    /// Supervision holes (experiments that failed, for `paper`).
    pub holes: usize,
    /// Holes by status: panicked, timed out, failed.
    pub holes_by_status: [usize; 3],
    /// Failed correctness checks other than the fingerprint.
    pub problems: Vec<String>,
    /// Layer figures only the job itself can see (journal bytes, artifact
    /// times …), keyed by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Kept alive until after the job is timed, then dropped.
    pub _scratch: Option<WorkDir>,
}

impl Output {
    fn new(attempted: usize) -> Self {
        Output {
            fingerprint: Fingerprint::new(),
            attempted,
            holes: 0,
            holes_by_status: [0; 3],
            problems: Vec::new(),
            layer: BTreeMap::new(),
            _scratch: None,
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn count_holes<'a>(&mut self, holes: impl IntoIterator<Item = &'a SweepOutcome>) {
        for h in holes {
            self.holes += 1;
            match h.status {
                DeviceStatus::Panicked => self.holes_by_status[0] += 1,
                DeviceStatus::TimedOut => self.holes_by_status[1] += 1,
                _ => self.holes_by_status[2] += 1,
            }
        }
    }
}

/// Seeded grades in `[0.05, 0.95]`, evenly spread with per-device jitter,
/// in a seeded order.
fn graded_fleet(n: usize, rng: &mut StdRng, tag: &str) -> Result<Vec<Device>, BenchError> {
    let mut grades: Vec<f64> = (0..n)
        .map(|i| 0.05 + 0.9 * (i as f64 + rng.gen_range(0.0..1.0)) / n as f64)
        .collect();
    for i in (1..n).rev() {
        grades.swap(i, rng.gen_range(0..i + 1));
    }
    grades
        .iter()
        .enumerate()
        .map(|(i, &g)| catalog::pixel(g, format!("pixel-{tag}-{i:04}")).map_err(BenchError::from))
        .collect()
}

fn aggregate() -> Result<ScoreAggregate, BenchError> {
    // The `repro sweep` histogram layout.
    ScoreAggregate::with_layout(MAX_RSD, 0.0, 2000.0, 200, DEFAULT_TOP_K)
}

/// Protocol of the `durable` sweep: short sessions, so journal appends are
/// a large share of each device's time.
fn durable_protocol() -> Protocol {
    Protocol::unconstrained()
        .with_warmup(Seconds(3.0))
        .with_workload(Seconds(3.0))
        .with_integrator(Integrator::Exponential)
}

/// Chaos victims of the `durable` sweep: (panicking, stalling) devices.
fn durable_chaos(devices: usize) -> (usize, usize) {
    (devices.div_ceil(64), devices.div_ceil(128))
}

/// Transient storage faults on the journal's operation clock: one EIO or
/// short write every 20–40 operations, each clearing after one operation.
fn storage_plan(seed: u64, ops: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5707_a6e0);
    let mut plan = FaultPlan::empty();
    let mut at = 8usize;
    while at < ops {
        let kind = if rng.gen_bool(0.5) {
            FaultKind::StorageEioTransient
        } else {
            FaultKind::StorageShortWrite
        };
        plan = plan.with_event(FaultEvent {
            at: at as f64,
            duration: 1.0,
            kind,
            magnitude: 0.0,
        });
        at += rng.gen_range(20usize..41);
    }
    plan
}

/// Builds the job's inputs from `seed`: fleets, selection, journal and
/// configuration — everything up to the first simulated step.
pub fn setup(workload: Workload, seed: u64, sizes: &Sizes) -> Result<Input, BenchError> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(match workload {
        Workload::Crowd => Input::Crowd {
            devices: graded_fleet(sizes.crowd_devices, &mut rng, "crowd")?,
            cfg: SweepConfig::clean(
                Protocol::unconstrained().with_integrator(Integrator::Exponential),
                1,
            ),
        },
        Workload::Durable => {
            let n = sizes.durable_devices;
            let devices = graded_fleet(n, &mut rng, "durable")?;
            let resume_devices = devices.clone();
            let (panics, stalls) = durable_chaos(n);
            let cfg = SweepConfig::clean(durable_protocol(), 2)
                .with_faults(seed, Seconds(200.0), pv_faults::ALL_KINDS.to_vec())
                // Strikes inside every session's first warmup.
                .with_chaos(SessionChaos::new(seed, panics, stalls).striking_at(1.0));
            let dir = WorkDir::new("durable")?;
            let path = dir.0.join("sweep.journal");
            let storage = Storage::new(Arc::new(FaultyStorage::new(
                Storage::os(),
                &storage_plan(seed, 4 * n),
            )));
            let journal = Journal::open_with(storage, &path)?;
            Input::Durable {
                devices,
                resume_devices,
                cfg,
                journal,
                path,
                dir,
            }
        }
        Workload::Paper => {
            // Catalog and harness construction: every fleet the artifacts
            // simulate, and the paper's chamber.
            for fleet in [
                catalog::fleet::nexus5_all_bins,
                catalog::fleet::nexus6_study,
                catalog::fleet::nexus6p_study,
                catalog::fleet::lg_g5_study,
                catalog::fleet::pixel_study,
                catalog::fleet::pixel2_forecast,
            ] {
                std::hint::black_box(fleet()?);
            }
            let cfg = sizes.paper.unwrap_or_else(ExperimentConfig::paper);
            std::hint::black_box(Harness::new(
                cfg.scaled(Protocol::unconstrained()),
                Ambient::paper_chamber()?,
            )?);
            Input::Paper { cfg, seed }
        }
        Workload::Census => {
            let pop = sizes.census_population;
            let aux: Vec<f64> = (0..pop)
                .map(|i| {
                    let g = 0.05 + 0.9 * i as f64 / (pop - 1) as f64;
                    (g + rng.gen_range(-0.01..0.01)).clamp(0.05, 0.95)
                })
                .collect();
            let start = now_ns();
            let selection = sampling::select(
                Strategy::Stratified,
                &aux,
                sizes.census_sample,
                N_BINS as usize,
                seed,
            )?;
            let select_s = (now_ns() - start) as f64 / 1e9;
            let devices = selection
                .indices
                .iter()
                .map(|&i| catalog::pixel(aux[i], format!("pixel-census-{i:07}")))
                .collect::<Result<Vec<_>, _>>()?;
            let protocol = ExperimentConfig {
                scale: sizes.census_scale,
                iterations: 1,
                integrator: Integrator::Exponential,
            }
            .scaled(Protocol::unconstrained());
            let cfg = SweepConfig::clean(protocol, 1).with_sampling(SamplePlan {
                population: pop,
                n: sizes.census_sample,
                strategy: Strategy::Stratified,
                seed,
            });
            Input::Census {
                devices,
                cfg,
                selection,
                seed,
                select_s,
            }
        }
    })
}

/// Fingerprint parts of a streamed sweep.
fn add_streamed(
    fp: &mut Fingerprint,
    agg: &ScoreAggregate,
    holes: &[SweepOutcome],
    completed: usize,
    retained: &[(usize, f64)],
) {
    fp.add_str(&agg.to_json().to_string_compact());
    for h in holes {
        fp.add_str(&h.to_json().to_string_compact());
    }
    fp.add(&completed.to_le_bytes());
    for (i, s) in retained {
        fp.add(&i.to_le_bytes());
        fp.add(&s.to_bits().to_le_bytes());
    }
}

/// The bytes of every journal segment, in chain order.
fn read_segments(segments: &[PathBuf]) -> Result<Vec<u8>, BenchError> {
    let mut bytes = Vec::new();
    for seg in segments {
        bytes.extend(std::fs::read(seg).map_err(BenchError::Io)?);
    }
    Ok(bytes)
}

/// Runs the job. `traced` swaps the library's sweep engines for the traced
/// rebuild and opens a span around each layer call. `perturb` changes one
/// output just before it is hashed — an aggregate score, a retained score,
/// a journal byte or a character of an artifact's JSON — so the self-test
/// can show that the fingerprint covers it.
pub fn run(
    input: Input,
    threads: usize,
    traced: bool,
    perturb: bool,
) -> Result<Output, BenchError> {
    let _job = traced.then(|| span("job", None));
    let cancel = CancelToken::new();
    match input {
        Input::Crowd { devices, cfg } => {
            let mut out = Output::new(devices.len());
            let mut agg = aggregate()?;
            let (holes, completed) = if traced {
                let s = sweep::streamed(&mut agg, devices, &cfg, threads, false)?;
                (s.holes, s.completed)
            } else {
                let s = populate_streamed(
                    &mut agg, MODEL, devices, &cfg, None, &cancel, threads, 1, false,
                )?;
                out.check(s.complete, || "crowd sweep incomplete".into());
                (s.holes, s.completed)
            };
            if perturb {
                agg.fold("perturbed", 1000.0, 1.0);
            }
            add_streamed(&mut out.fingerprint, &agg, &holes, completed, &[]);
            out.count_holes(&holes);
            out.check(holes.is_empty(), || {
                format!("{} unexpected holes", holes.len())
            });
            out.layer
                .insert("aggregate.bytes".into(), agg.approx_bytes() as f64);
            Ok(out)
        }
        Input::Census {
            devices,
            cfg,
            selection,
            seed,
            select_s,
        } => {
            let mut out = Output::new(devices.len());
            let mut agg = aggregate()?;
            let (holes, completed, mut retained) = if traced {
                let s = sweep::streamed(&mut agg, devices, &cfg, threads, true)?;
                (s.holes, s.completed, s.retained)
            } else {
                let s = populate_streamed(
                    &mut agg, MODEL, devices, &cfg, None, &cancel, threads, 1, true,
                )?;
                out.check(s.complete, || "census sweep incomplete".into());
                (s.holes, s.completed, s.retained)
            };
            // Group the retained scores back into the selection's strata.
            let start = now_ns();
            let estimates = {
                let _estimate = traced.then(|| span("stats.sampling.estimate", None));
                let by_pop: HashMap<usize, f64> = retained
                    .iter()
                    .map(|&(idx, score)| (selection.indices[idx], score))
                    .collect();
                let groups: Vec<StratumSample> = selection
                    .groups
                    .iter()
                    .map(|g| StratumSample {
                        weight: g.weight,
                        values: g
                            .indices
                            .iter()
                            .filter_map(|i| by_pop.get(i).copied())
                            .collect(),
                    })
                    .collect();
                sampling::estimate(&groups, 0.95, 1000, seed)?
            };
            out.layer.insert(
                "stats.sampling.estimate_ms".into(),
                (now_ns() - start) as f64 / 1e6,
            );
            out.layer
                .insert("stats.sampling.select_ms".into(), select_s * 1e3);
            if let (true, Some(first)) = (perturb, retained.first_mut()) {
                first.1 += 1.0;
            }
            add_streamed(&mut out.fingerprint, &agg, &holes, completed, &retained);
            out.fingerprint
                .add_str(&estimates.to_json().to_string_compact());
            out.count_holes(&holes);
            out.check(holes.is_empty(), || {
                format!("{} unexpected holes", holes.len())
            });
            out.check(estimates.mean.lo <= estimates.mean.hi, || {
                "inverted mean CI".into()
            });
            out.layer
                .insert("aggregate.bytes".into(), agg.approx_bytes() as f64);
            Ok(out)
        }
        Input::Durable {
            devices,
            resume_devices,
            cfg,
            mut journal,
            path,
            dir,
        } => {
            let n = devices.len();
            let mut out = Output::new(n);
            let mut db = CrowdDatabase::new(MAX_RSD)?;
            let report = if traced {
                let outcomes =
                    sweep::journaled(&mut db, MODEL, devices, &cfg, &mut journal, threads)?;
                SweepReport { outcomes }
            } else {
                let s = populate_parallel(
                    &mut db,
                    MODEL,
                    devices,
                    &cfg,
                    Some(&mut journal),
                    &cancel,
                    threads,
                )?;
                out.check(s.complete && s.storage_degraded.is_none(), || {
                    format!(
                        "durable sweep incomplete or degraded: {:?}",
                        s.storage_degraded
                    )
                });
                s.report
            };
            let health = journal.health().clone();
            let segments = journal.segments().to_vec();
            let mut bytes = read_segments(&segments)?;
            drop(journal);

            // Resume the sealed journal: a pure read and replay.
            let start = now_ns();
            let (resumed, db2) = {
                let _replay = traced.then(|| span("journal.replay", None));
                let mut reopened = Journal::open_with(Storage::os(), &path)?;
                let mut db2 = CrowdDatabase::new(MAX_RSD)?;
                let resumed = populate_parallel(
                    &mut db2,
                    MODEL,
                    resume_devices,
                    &cfg,
                    Some(&mut reopened),
                    &cancel,
                    threads,
                )?;
                (resumed, db2)
            };
            out.layer
                .insert("journal.replay_ms".into(), (now_ns() - start) as f64 / 1e6);
            let render_start = now_ns();
            let rendered = {
                let _render = traced.then(|| span("crowd_db.render", None));
                db.render_model(MODEL)
            };
            out.layer.insert(
                "crowd_db.render_ms".into(),
                (now_ns() - render_start) as f64 / 1e6,
            );

            let (panics, stalls) = durable_chaos(n);
            out.check(resumed.resumed == n, || {
                format!("resume replayed {} of {n}", resumed.resumed)
            });
            out.check(resumed.report == report, || "resumed report differs".into());
            out.check(db2 == db, || "resumed crowd database differs".into());
            out.check(read_segments(&segments)? == bytes, || {
                "resume rewrote the sealed journal".into()
            });
            out.count_holes(report.outcomes.iter().filter(|o| o.is_hole()));
            let by_status = out.holes_by_status;
            out.check(by_status == [panics, stalls, 0], || {
                format!("holes {by_status:?}, expected [{panics}, {stalls}, 0]")
            });
            if let (true, Some(last)) = (perturb, bytes.last_mut()) {
                *last ^= 1;
            }
            let fp = &mut out.fingerprint;
            fp.add_str(&report.to_json().to_string_compact());
            fp.add_str(&db.to_json().to_string_compact());
            fp.add(&bytes);
            fp.add_str(&rendered);
            out.layer.insert(
                "journal.bytes_per_device".into(),
                bytes.len() as f64 / n as f64,
            );
            out.layer
                .insert("journal.retries".into(), health.retries as f64);
            out.layer
                .insert("journal.rotations".into(), f64::from(health.rotations));
            out._scratch = Some(dir);
            Ok(out)
        }
        Input::Paper { cfg, seed } => {
            let artifacts = paper_artifacts();
            let mut out = Output::new(artifacts.len());
            for (i, (name, artifact)) in artifacts.into_iter().enumerate() {
                let start = now_ns();
                let result = {
                    let _s = traced.then(|| span(format!("experiments.{name}"), None));
                    artifact(&cfg, seed)
                };
                out.layer.insert(
                    format!("experiments.{name}_ms"),
                    (now_ns() - start) as f64 / 1e6,
                );
                match result {
                    Ok(json) => {
                        let mut text = json.to_string_compact().into_bytes();
                        if perturb && i == 0 {
                            let mid = text.len() / 2;
                            text[mid] ^= 1;
                        }
                        out.fingerprint.add_str(name);
                        out.fingerprint.add(&text);
                    }
                    Err(e) => {
                        out.holes += 1;
                        out.holes_by_status[2] += 1;
                        out.problems.push(format!("{name}: {e}"));
                    }
                }
            }
            Ok(out)
        }
    }
}

type Artifact = fn(&ExperimentConfig, u64) -> Result<pv_json::Json, BenchError>;

/// Every artifact `repro all` regenerates, once each (`repro` prints fig4
/// and fig5 from one run, and fig11 and fig12 from another). The seeded
/// artifacts take the workload seed.
pub fn paper_artifacts() -> Vec<(&'static str, Artifact)> {
    fn j<T: ToJson>(r: Result<T, BenchError>) -> Result<pv_json::Json, BenchError> {
        r.map(|v| v.to_json())
    }
    vec![
        ("table1", |_, _| j(experiments::table1::run())),
        ("fig1", |c, _| j(experiments::fig1::run(c))),
        ("fig2", |c, _| j(experiments::fig2::run(c))),
        ("fig3", |c, _| j(experiments::fig3::run(c))),
        ("fig45", |c, _| j(experiments::fig45::run(c))),
        ("fig6", |c, _| j(study::plans::nexus5(c))),
        ("fig7", |c, _| j(study::plans::nexus6p(c))),
        ("fig8", |c, _| j(study::plans::lg_g5(c))),
        ("fig9", |c, _| j(study::plans::pixel(c))),
        ("fig10", |c, _| j(experiments::fig10::run(c))),
        ("fig1112", |c, _| j(experiments::fig1112::run(c))),
        ("fig13", |c, _| j(experiments::fig13::run(c))),
        ("table2", |c, _| j(experiments::table2::run(c))),
        ("rsd", |c, _| j(experiments::rsd::run_with_faults(c, None))),
        ("cluster", |c, s| j(experiments::cluster::run(c, 30, 4, s))),
        ("ablation", |c, _| j(experiments::ablation::run(c))),
        ("ambient", |c, _| j(experiments::ambient_estimate::run(c))),
        ("ranking", |c, s| j(experiments::ranking::run(c, 20, s))),
        ("lowerbound", |c, s| {
            j(experiments::lowerbound::run(c, 500, 40, s))
        }),
        ("forecast", |c, _| j(experiments::forecast::run(c))),
        ("load", |c, _| j(experiments::load_sensitivity::run(c))),
        ("skin", |c, _| j(experiments::skin::run(c))),
        ("aging", |c, _| j(experiments::aging::run(c))),
        ("governor", |c, _| j(experiments::governor_study::run(c))),
    ]
}

/// A recorded session and the layers it ran on, for the layer replay.
pub struct Representative {
    pub spec: DeviceSpec,
    pub die: DieSample,
    pub steps: Vec<StepRecord>,
    /// The thermal integrator of the workload's protocol.
    pub integrator: Integrator,
    /// Whether the sessions run in the paper's ThermaBox chamber.
    pub chamber: bool,
}

/// One session representative of the workload, run on a [`Timed`] device
/// that keeps its steps for the layer replay: the first fleet device under
/// the sweep's protocol, or for `paper` each Nexus 5 bin under the paper
/// protocol in the paper's chamber.
pub fn representative(input: &Input) -> Result<Representative, BenchError> {
    let (devices, protocol, ambient, iterations): (
        Vec<Device>,
        Protocol,
        Option<pv_units::Celsius>,
        usize,
    ) = match input {
        Input::Crowd { devices, cfg }
        | Input::Durable { devices, cfg, .. }
        | Input::Census { devices, cfg, .. } => (
            devices.iter().take(1).cloned().collect(),
            cfg.protocol,
            Some(cfg.ambient),
            cfg.iterations,
        ),
        Input::Paper { cfg, .. } => (
            (0..N_BINS)
                .map(|b| catalog::nexus5(BinId(b)))
                .collect::<Result<_, _>>()?,
            cfg.scaled(Protocol::unconstrained()),
            None,
            cfg.iterations,
        ),
    };
    let mut steps = Vec::new();
    let mut first: Option<(DeviceSpec, DieSample)> = None;
    for (b, device) in devices.into_iter().enumerate() {
        first.get_or_insert_with(|| (device.spec().clone(), *device.die()));
        let _session = span("harness.session", Some(b));
        let ambient = match ambient {
            Some(t) => Ambient::Fixed(t),
            None => Ambient::paper_chamber()?,
        };
        let mut timed = Timed::new(device, Some(b), steps.is_empty());
        Harness::new(protocol, ambient)?.run_session(&mut timed, iterations)?;
        if steps.is_empty() {
            steps = timed.take_record();
        }
    }
    let (spec, die) = first.ok_or(BenchError::InvalidProtocol("no representative device"))?;
    Ok(Representative {
        spec,
        die,
        steps,
        integrator: protocol.integrator,
        chamber: ambient.is_none(),
    })
}
