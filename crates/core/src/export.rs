//! Plot-ready data export with atomic writes and a checksum manifest.
//!
//! Regenerating a paper's figures ends with plotting. This module writes
//! the experiment results as whitespace-separated `.dat` files (the format
//! gnuplot, matplotlib and friends ingest directly), one file per figure
//! panel, into a chosen directory. The `repro` binary exposes it as
//! `--export <dir>`.
//!
//! # Crash safety
//!
//! A killed export must never leave a half-written `.dat` file that a
//! downstream plotting script silently ingests. Every file is therefore
//! written to a hidden temp name, fsynced, then atomically renamed into
//! place — readers observe either the old complete file or the new
//! complete file, never a torn one. After each write the exporter also
//! refreshes `MANIFEST.json` (itself written atomically): a map from file
//! name to FNV-64 content checksum that [`FigureExporter::verify`] checks,
//! so plotting pipelines can prove an export directory is whole before
//! trusting it (`repro verify <dir>` on the command line).
//!
//! All I/O goes through the [`crate::storage`] seam, so the same fault
//! plans that torture the journal can bite the exporter: transient write
//! errors are retried (bounded, in place — the atomic temp+rename
//! protocol makes a retry always safe), persistent ones surface as
//! [`BenchError::Io`].

use crate::experiments::fig1112::Fig1112;
use crate::experiments::fig2::Fig2;
use crate::experiments::fig45::{Fig45, PhaseTimeline};
use crate::experiments::study::SocStudy;
use crate::journal::fnv64;
use crate::storage::{classify, FaultClass, Storage};
use crate::BenchError;
use pv_json::{Json, ToJson};
use pv_stats::histogram::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// File name of the checksum manifest kept beside the exported data.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Transient-failure attempts per atomic write. The temp+rename protocol
/// leaves nothing partial behind a failed attempt (the temp file is
/// removed), so retrying is always safe.
const WRITE_ATTEMPTS: u32 = 3;

/// Writes figure data files into one directory.
#[derive(Debug, Clone)]
pub struct FigureExporter {
    dir: PathBuf,
    storage: Storage,
    manifest: RefCell<BTreeMap<String, String>>,
}

impl FigureExporter {
    /// Creates the exporter, creating `dir` (and parents) if needed. An
    /// existing manifest in `dir` is loaded so re-exports extend it.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] if `dir` exists but is not a directory
    /// (rejected up front, instead of letting individual writes fail
    /// confusingly later), if it cannot be created, or if an existing
    /// manifest is unreadable.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, BenchError> {
        Self::new_with(Storage::os(), dir)
    }

    /// [`FigureExporter::new`] over an arbitrary storage backend (the
    /// chaos tests inject storage faults through it).
    ///
    /// # Errors
    ///
    /// As [`FigureExporter::new`].
    pub fn new_with(storage: Storage, dir: impl AsRef<Path>) -> Result<Self, BenchError> {
        let dir = dir.as_ref();
        if storage.exists(dir) && !storage.is_dir(dir) {
            return Err(BenchError::Io(std::io::Error::new(
                std::io::ErrorKind::NotADirectory,
                format!(
                    "export path {} exists and is not a directory",
                    dir.display()
                ),
            )));
        }
        storage.create_dir_all(dir).map_err(BenchError::Io)?;
        let manifest = match storage.read_to_string(&dir.join(MANIFEST_NAME)) {
            Ok(text) => parse_manifest(&text).ok_or_else(|| {
                BenchError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt manifest in {}", dir.display()),
                ))
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(BenchError::Io(e)),
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            storage,
            manifest: RefCell::new(manifest),
        })
    }

    /// Verifies every file listed in `dir`'s manifest against its recorded
    /// checksum, returning how many files were checked.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] when the manifest is missing or corrupt,
    /// a listed file cannot be read, or a checksum does not match — each
    /// naming the offending file's full path, and mismatches quoting both
    /// the expected (manifest) and actual (computed) checksum.
    pub fn verify(dir: impl AsRef<Path>) -> Result<usize, BenchError> {
        Self::verify_with(&Storage::os(), dir)
    }

    /// [`FigureExporter::verify`] over an arbitrary storage backend.
    ///
    /// # Errors
    ///
    /// As [`FigureExporter::verify`].
    pub fn verify_with(storage: &Storage, dir: impl AsRef<Path>) -> Result<usize, BenchError> {
        let dir = dir.as_ref();
        let text = storage
            .read_to_string(&dir.join(MANIFEST_NAME))
            .map_err(|e| {
                BenchError::Io(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", dir.join(MANIFEST_NAME).display()),
                ))
            })?;
        let manifest = parse_manifest(&text).ok_or_else(|| {
            BenchError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt manifest in {}", dir.display()),
            ))
        })?;
        for (name, recorded) in &manifest {
            let path = dir.join(name);
            let bytes = storage.read(&path).map_err(|e| {
                BenchError::Io(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", path.display()),
                ))
            })?;
            let actual = format!("{:016x}", fnv64(&bytes));
            if actual != *recorded {
                return Err(BenchError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: checksum mismatch: expected {recorded} (manifest), actual {actual}",
                        path.display()
                    ),
                )));
            }
        }
        Ok(manifest.len())
    }

    /// Writes `bytes` to `dir/name` atomically: temp file in the same
    /// directory, fsync, rename. A crash at any point leaves either no
    /// file or the previous complete file — never a torn one. Transient
    /// storage errors get a bounded number of fresh attempts; each failed
    /// attempt removes its temp file first, so no half-written temp can
    /// ever be renamed into place.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, BenchError> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let mut last_err = None;
        for _ in 0..WRITE_ATTEMPTS {
            let result = (|| {
                let mut f = self.storage.create(&tmp)?;
                f.write_all(bytes)?;
                f.sync_data()?;
                self.storage.rename(&tmp, &path)
            })();
            match result {
                Ok(()) => return Ok(path),
                Err(e) => {
                    let _ = self.storage.remove_file(&tmp);
                    if classify(&e) != FaultClass::Transient {
                        return Err(BenchError::Io(e));
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(BenchError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::other("atomic write failed with no recorded error")
        })))
    }

    fn write(&self, name: &str, contents: &str) -> Result<PathBuf, BenchError> {
        let path = self.write_atomic(name, contents.as_bytes())?;
        self.manifest.borrow_mut().insert(
            name.to_owned(),
            format!("{:016x}", fnv64(contents.as_bytes())),
        );
        let mut manifest_json = Json::object();
        for (k, v) in self.manifest.borrow().iter() {
            manifest_json.insert(k.clone(), v.to_json());
        }
        self.write_atomic(MANIFEST_NAME, manifest_json.to_string_pretty().as_bytes())?;
        Ok(path)
    }

    /// Writes one timeline (Fig 4 or Fig 5): columns
    /// `t_s die_c sensor_c case_c freq_mhz throttled`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] on write failure.
    pub fn export_timeline(&self, timeline: &PhaseTimeline) -> Result<PathBuf, BenchError> {
        let mut out = String::from("# t_s die_c sensor_c case_c freq_mhz throttled\n");
        let _ = writeln!(
            out,
            "# phases: warmup 0-{:.0}s, cooldown -{:.0}s, workload -{:.0}s",
            timeline.warmup_end.value(),
            timeline.workload_start.value(),
            timeline.workload_end.value()
        );
        for s in timeline.trace.samples() {
            let _ = writeln!(
                out,
                "{:.2} {:.3} {:.3} {:.3} {:.0} {}",
                s.t.value(),
                s.die_temp.value(),
                s.sensor_temp.value(),
                s.case_temp.value(),
                s.cluster_freqs.first().map_or(0.0, |f| f.value()),
                u8::from(s.throttled),
            );
        }
        self.write(&format!("{}.dat", timeline.name), &out)
    }

    /// Writes both ACCUBENCH timelines (`fig4.dat`, `fig5.dat`).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] on write failure.
    pub fn export_fig45(&self, fig: &Fig45) -> Result<Vec<PathBuf>, BenchError> {
        Ok(vec![
            self.export_timeline(&fig.unconstrained)?,
            self.export_timeline(&fig.fixed)?,
        ])
    }

    /// Writes the Fig 2 ambient sweep: columns
    /// `ambient_c energy_j energy_norm time_s`, one file per device.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] on write failure.
    pub fn export_fig2(&self, fig: &Fig2) -> Result<Vec<PathBuf>, BenchError> {
        let mut paths = Vec::new();
        for sweep in &fig.sweeps {
            let base = sweep.points.first().map_or(1.0, |p| p.energy.value());
            let mut out = String::from("# ambient_c energy_j energy_norm time_s\n");
            for p in &sweep.points {
                let _ = writeln!(
                    out,
                    "{:.1} {:.2} {:.4} {:.1}",
                    p.ambient.value(),
                    p.energy.value(),
                    p.energy.value() / base,
                    p.time.value(),
                );
            }
            paths.push(self.write(&format!("fig2_{}.dat", sweep.label), &out)?);
        }
        Ok(paths)
    }

    /// Writes one histogram: columns `bin_lo bin_hi weight fraction`.
    fn histogram_dat(hist: &Histogram) -> String {
        let mut out = String::from("# bin_lo bin_hi weight fraction\n");
        let fractions = hist.fractions();
        for (i, (&count, fraction)) in hist.counts().iter().zip(&fractions).enumerate() {
            let _ = writeln!(
                out,
                "{:.2} {:.2} {:.3} {:.5}",
                hist.bin_edge(i),
                hist.bin_edge(i + 1),
                count,
                fraction,
            );
        }
        out
    }

    /// Writes the Fig 11/12 distributions: frequency and temperature
    /// histograms per device, eight files total.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] on write failure.
    pub fn export_fig1112(&self, fig: &Fig1112) -> Result<Vec<PathBuf>, BenchError> {
        let mut paths = Vec::new();
        for pair in [&fig.pixel, &fig.nexus5] {
            for d in &pair.devices {
                paths.push(self.write(
                    &format!("{}_{}_freq.dat", pair.name, d.label),
                    &Self::histogram_dat(&d.freq_hist),
                )?);
                paths.push(self.write(
                    &format!("{}_{}_temp.dat", pair.name, d.label),
                    &Self::histogram_dat(&d.temp_hist),
                )?);
            }
        }
        Ok(paths)
    }

    /// Writes a per-SoC study as the paper's normalized bar chart data:
    /// columns `index label perf_norm perf_rsd energy_norm energy_rsd`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] on write failure, or a stats error for an
    /// empty study.
    pub fn export_study(&self, name: &str, study: &SocStudy) -> Result<PathBuf, BenchError> {
        let perf = study.perf_normalized()?;
        let energy = study.energy_normalized()?;
        let mut out =
            String::from("# index label perf_norm perf_rsd_pct energy_norm energy_rsd_pct\n");
        for (i, ((row, p), e)) in study.rows.iter().zip(&perf).zip(&energy).enumerate() {
            let _ = writeln!(
                out,
                "{i} {} {:.4} {:.3} {:.4} {:.3}",
                row.label, p, row.perf_rsd, e, row.energy_rsd,
            );
        }
        self.write(&format!("{name}.dat"), &out)
    }
}

/// Parses a manifest object (`{"name": "checksum", ...}`) into a map.
/// Returns `None` for anything that is not an all-string JSON object.
fn parse_manifest(text: &str) -> Option<BTreeMap<String, String>> {
    let Ok(Json::Object(entries)) = Json::from_str(text) else {
        return None;
    };
    let mut map = BTreeMap::new();
    for (name, value) in entries {
        map.insert(name.into_owned(), value.as_str()?.to_owned());
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig1112, fig2, fig45, study, ExperimentConfig};
    use crate::storage::{FaultyStorage, MemStorage, TempDir};
    use pv_faults::{FaultEvent, FaultKind, FaultPlan};

    /// Unique per-test export directory inside a [`TempDir`] (cleaned up
    /// on drop, so a failing test cannot poison a later run).
    fn tmp_dir(tag: &str) -> (TempDir, PathBuf) {
        let tmp = TempDir::new("export");
        let dir = tmp.file(tag);
        (tmp, dir)
    }

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.12,
            iterations: 1,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn exports_timelines_with_phase_header() {
        let (_tmp, dir) = tmp_dir("fig45");
        let exporter = FigureExporter::new(&dir).unwrap();
        let fig = fig45::run(&quick()).unwrap();
        let paths = exporter.export_fig45(&fig).unwrap();
        assert_eq!(paths.len(), 2);
        let fig4 = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(fig4.starts_with("# t_s die_c"));
        assert!(fig4.contains("# phases: warmup"));
        // One data row per trace sample.
        let data_rows = fig4.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(data_rows, fig.unconstrained.trace.len());
    }

    #[test]
    fn exports_fig2_per_device() {
        let (_tmp, dir) = tmp_dir("fig2");
        let exporter = FigureExporter::new(&dir).unwrap();
        let fig = fig2::run(&quick()).unwrap();
        let paths = exporter.export_fig2(&fig).unwrap();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 6);
            // First row normalizes to 1.
            let first = text.lines().nth(1).unwrap();
            assert!(first.contains("1.0000"));
        }
    }

    #[test]
    fn exports_distributions_and_study() {
        let (_tmp, dir) = tmp_dir("dist");
        let exporter = FigureExporter::new(&dir).unwrap();

        let fig = fig1112::run(&quick()).unwrap();
        let paths = exporter.export_fig1112(&fig).unwrap();
        assert_eq!(paths.len(), 8);
        let sample = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(sample.starts_with("# bin_lo"));

        let s = study::plans::nexus5(&quick()).unwrap();
        let path = exporter.export_study("fig6", &s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 4);
        assert!(text.contains("bin-0"));
    }

    #[test]
    fn rejects_export_path_that_is_a_file() {
        let (tmp, _) = tmp_dir("notadir");
        let file = tmp.file("occupied");
        std::fs::write(&file, "data").unwrap();
        let err = FigureExporter::new(&file).unwrap_err();
        assert!(format!("{err}").contains("not a directory"), "{err}");
        // The file must be left untouched.
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "data");
    }

    #[test]
    fn manifest_tracks_checksums_and_verify_passes() {
        let (_tmp, dir) = tmp_dir("manifest");
        let exporter = FigureExporter::new(&dir).unwrap();
        let s = study::plans::nexus5(&quick()).unwrap();
        exporter.export_study("fig6", &s).unwrap();
        exporter.export_study("fig7", &s).unwrap();
        assert_eq!(FigureExporter::verify(&dir).unwrap(), 2);

        // No temp files left behind.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().contains(".tmp"), "{name:?}");
        }

        // Re-opening the same directory loads the manifest.
        let reopened = FigureExporter::new(&dir).unwrap();
        reopened.export_study("fig8", &s).unwrap();
        assert_eq!(FigureExporter::verify(&dir).unwrap(), 3);
    }

    #[test]
    fn verify_flags_tampered_file_with_path_and_both_checksums() {
        let (_tmp, dir) = tmp_dir("tamper");
        let exporter = FigureExporter::new(&dir).unwrap();
        let s = study::plans::nexus5(&quick()).unwrap();
        let path = exporter.export_study("fig6", &s).unwrap();
        std::fs::write(&path, "truncated garbage").unwrap();
        let err = FigureExporter::verify(&dir).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("checksum"), "{err}");
        // The error names the offending file's full path and quotes both
        // the manifest's expectation and the computed reality.
        assert!(text.contains(&path.display().to_string()), "{err}");
        let actual = format!("{:016x}", fnv64(b"truncated garbage"));
        assert!(text.contains(&actual), "{err}");
        assert!(text.contains("expected"), "{err}");
    }

    #[test]
    fn verify_reports_missing_or_corrupt_manifest() {
        let (tmp, _) = tmp_dir("nomanifest");
        let dir = tmp.path();
        assert!(FigureExporter::verify(dir).is_err());
        std::fs::write(dir.join(MANIFEST_NAME), "not json at all").unwrap();
        let err = FigureExporter::verify(dir).unwrap_err();
        assert!(format!("{err}").contains("corrupt"), "{err}");
        // A corrupt manifest also blocks opening an exporter over it.
        assert!(FigureExporter::new(dir).is_err());
    }

    #[test]
    fn transient_storage_faults_are_retried_through_atomic_writes() {
        let mem = MemStorage::new();
        // Two transient-EIO windows biting separate write attempts; each
        // failed attempt cleans its temp file and tries again.
        let plan = FaultPlan::empty()
            .with_event(FaultEvent {
                at: 2.0,
                duration: 1.0,
                kind: FaultKind::StorageEioTransient,
                magnitude: 0.0,
            })
            .with_event(FaultEvent {
                at: 5.0,
                duration: 1.0,
                kind: FaultKind::StorageShortWrite,
                magnitude: 0.0,
            });
        let faulty = FaultyStorage::new(Storage::new(std::sync::Arc::new(mem.clone())), &plan);
        let storage = Storage::new(std::sync::Arc::new(faulty));
        let dir = PathBuf::from("figs");
        let exporter = FigureExporter::new_with(storage.clone(), &dir).unwrap();
        let path = exporter.write("a.dat", "# data\n1 2 3\n").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"# data\n1 2 3\n");
        // Manifest landed and verifies despite the injected faults, and no
        // temp file survived the retries.
        assert_eq!(FigureExporter::verify_with(&storage, &dir).unwrap(), 1);
        assert!(!storage.exists(&dir.join(".a.dat.tmp")));
    }

    #[test]
    fn persistent_storage_faults_surface_and_leave_no_temp() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 1.0,
            duration: 1.0,
            kind: FaultKind::StorageEioPersistent,
            magnitude: 0.0,
        });
        let faulty =
            FaultyStorage::new(Storage::new(std::sync::Arc::new(MemStorage::new())), &plan);
        let storage = Storage::new(std::sync::Arc::new(faulty));
        let dir = PathBuf::from("figs");
        let exporter = FigureExporter::new_with(storage.clone(), &dir).unwrap();
        let err = exporter.write("a.dat", "data").unwrap_err();
        assert!(format!("{err}").contains("persistent"), "{err}");
        assert!(!storage.exists(&dir.join("a.dat")));
    }
}
