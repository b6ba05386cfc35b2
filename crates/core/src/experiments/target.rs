//! Every artifact `repro` regenerates, run from one table.
//!
//! [`Target`] names the artifacts and [`run`] runs a selection of them.
//! Each target has one arm: it runs its experiment once, exports the
//! result when an exporter is given, and renders that same value as JSON
//! or as text, whichever was asked for. Results that several targets
//! share are computed at most once per [`run`]: fig4 and fig5 read one
//! run, fig11 and fig12 another, and when `table2` is among the targets
//! its five per-SoC studies also serve fig6–fig9 and fig13.

use super::study::{plans, SocStudy};
use super::*;
use crate::export::FigureExporter;
use crate::BenchError;
use pv_faults::FaultPlan;
use pv_json::ToJson;
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::io::Write;
use std::path::PathBuf;

macro_rules! targets {
    ($($variant:ident => $name:literal,)*) => {
        /// One artifact `repro` can regenerate.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Target {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        impl Target {
            /// Every target, in the order `all` runs them.
            pub const ALL: &'static [Target] = &[$(Target::$variant),*];

            /// The target's command-line name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Target::$variant => $name,)*
                }
            }
        }
    };
}

targets! {
    Table1 => "table1",
    Fig1 => "fig1",
    Fig2 => "fig2",
    Fig3 => "fig3",
    Fig4 => "fig4",
    Fig5 => "fig5",
    Fig6 => "fig6",
    Fig7 => "fig7",
    Fig8 => "fig8",
    Fig9 => "fig9",
    Fig10 => "fig10",
    Fig11 => "fig11",
    Fig12 => "fig12",
    Fig13 => "fig13",
    Table2 => "table2",
    Rsd => "rsd",
    Cluster => "cluster",
    Ablation => "ablation",
    Ambient => "ambient",
    Ranking => "ranking",
    Lowerbound => "lowerbound",
    Forecast => "forecast",
    Load => "load",
    Skin => "skin",
    Aging => "aging",
    Governor => "governor",
}

impl Target {
    /// The targets a command-line name selects: `all` selects every
    /// target, a target's name that target alone. `None` for any other
    /// name.
    pub fn select(name: &str) -> Option<&'static [Target]> {
        if name == "all" {
            return Some(Self::ALL);
        }
        let index = Self::ALL.iter().position(|t| t.name() == name)?;
        Some(&Self::ALL[index..=index])
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `targets` in order. Each writes a `==== name ====` heading and
/// then its result to `out`: pretty JSON when `json`, else the text
/// tables with the paper's numbers beside them. `faults` arms the `rsd`
/// sessions; every other target runs clean. With an `exporter`, the
/// figure targets also write their plot-ready files.
///
/// Returns the number of files exported.
///
/// # Errors
///
/// Stops at the first target that fails, and returns it with its error
/// (a write to `out` that fails is [`BenchError::Io`]).
pub fn run(
    targets: &[Target],
    cfg: &ExperimentConfig,
    faults: Option<&FaultPlan>,
    exporter: Option<&FigureExporter>,
    json: bool,
    out: &mut dyn Write,
) -> Result<usize, (Target, BenchError)> {
    let runner = Runner {
        cfg,
        faults,
        exporter,
        json,
        share_studies: targets.contains(&Target::Table2),
        fig45: OnceCell::new(),
        fig1112: OnceCell::new(),
        table2: OnceCell::new(),
        exported: Cell::new(0),
    };
    for &target in targets {
        writeln!(out, "==== {target} ====")
            .map_err(BenchError::Io)
            .and_then(|()| runner.run(target, out))
            .map_err(|e| (target, e))?;
    }
    Ok(runner.exported.get())
}

/// One [`run`]: its options and the results its targets share.
struct Runner<'a> {
    cfg: &'a ExperimentConfig,
    faults: Option<&'a FaultPlan>,
    exporter: Option<&'a FigureExporter>,
    json: bool,
    /// Whether study targets read `table2`'s studies instead of running
    /// their own.
    share_studies: bool,
    fig45: OnceCell<fig45::Fig45>,
    fig1112: OnceCell<fig1112::Fig1112>,
    table2: OnceCell<table2::Table2>,
    exported: Cell<usize>,
}

impl Runner<'_> {
    /// Runs one target's arm.
    fn run(&self, target: Target, out: &mut dyn Write) -> Result<(), BenchError> {
        let cfg = self.cfg;
        match target {
            Target::Table1 => self.emit(out, &table1::run()?, |t| {
                let worst = t.worst_deviation_mv();
                noted(t.render(), format!("worst model-vs-kernel deviation: {worst} mV"))
            }),
            Target::Fig1 => self.emit(out, &fig1::run(cfg)?, |f| {
                Ok(format!(
                    "{}\npaper: bin-4 ≈ +20% energy, ≈ +18-20% time vs bin-0; core shutdown at 80 °C\n\
                     measured: worst-vs-best energy +{:.0}%, time +{:.0}%\n",
                    f.render(),
                    f.energy_excess_fraction() * 100.0,
                    f.time_excess_fraction() * 100.0
                ))
            }),
            Target::Fig2 => {
                let fig = fig2::run(cfg)?;
                self.export(|x| x.export_fig2(&fig))?;
                self.emit(out, &fig, |f| {
                    let mut text = format!("{}\n", f.render());
                    for s in &f.sweeps {
                        text += &format!(
                            "{}: energy growth cool→hot {:.0}% (paper: 25-30%+)\n",
                            s.label,
                            s.energy_growth_fraction() * 100.0
                        );
                    }
                    Ok(text)
                })
            }
            Target::Fig3 => self.emit(out, &fig3::run(cfg)?, |f| {
                noted(f.render(), "paper: holds 26 ± 0.5 °C")
            }),
            Target::Fig4 => self.emit(out, &self.fig45()?.unconstrained, |t| Ok(t.render())),
            Target::Fig5 => self.emit(out, &self.fig45()?.fixed, |t| Ok(t.render())),
            Target::Fig6 => self.study(out, target, 0, plans::nexus5, (14.0, 19.0)),
            Target::Fig7 => self.study(out, target, 2, plans::nexus6p, (10.0, 12.0)),
            Target::Fig8 => self.study(out, target, 3, plans::lg_g5, (4.0, 10.0)),
            Target::Fig9 => self.study(out, target, 4, plans::pixel, (5.0, 9.0)),
            Target::Fig10 => self.emit(out, &fig10::run(cfg)?, |f| {
                Ok(format!(
                    "{}\npaper: nominal-voltage Monsoon ≈ 20% throttled; 4.4 V ≈ battery\n\
                     measured: nominal/battery {:.3}, max/battery {:.3}\n",
                    f.render(),
                    f.nominal_vs_battery(),
                    f.max_vs_battery()
                ))
            }),
            Target::Fig11 => self.emit(out, &self.fig1112()?.pixel, |p| {
                noted(p.render(), "paper: 7% perf gap matching the mean-frequency gap")
            }),
            Target::Fig12 => self.emit(out, &self.fig1112()?.nexus5, |p| {
                noted(p.render(), "paper: 11% perf gap matching the mean-frequency gap")
            }),
            Target::Fig13 => {
                let fig = if self.share_studies {
                    fig13::from_studies(&self.table2()?.studies)
                } else {
                    fig13::run(cfg)?
                };
                self.emit(out, &fig, |f| {
                    Ok(format!(
                        "{}\nSD-805 dip (paper: present): {}; efficiency trend slope: {:+.3}/gen\n",
                        f.render(),
                        f.sd805_dip(),
                        f.trend()?.slope
                    ))
                })
            }
            Target::Table2 => self.emit(out, self.table2()?, |t| Ok(t.render())),
            Target::Rsd => self.emit(out, &rsd::run_with_faults(cfg, self.faults)?, |r| {
                noted(r.render(), "paper: average 1.1% RSD over ~300 iterations")
            }),
            Target::Cluster => {
                self.emit(out, &cluster::run(cfg, 30, 4, 2024)?, |c| Ok(c.render()))
            }
            Target::Ablation => self.emit(out, &ablation::run(cfg)?, |a| Ok(a.render())),
            Target::Ambient => self.emit(out, &ambient_estimate::run(cfg)?, |a| {
                let paper = "paper (§VI): cooldown-based ambient estimation called 'encouraging'";
                noted(a.render(), paper)
            }),
            Target::Ranking => self.emit(out, &ranking::run(cfg, 20, 2024)?, |r| Ok(r.render())),
            Target::Lowerbound => self.emit(out, &lowerbound::run(cfg, 500, 40, 31337)?, |m| {
                noted(m.render()?, "paper (§VII): Table II spreads are minimum lower bounds")
            }),
            Target::Forecast => self.emit(out, &forecast::run(cfg)?, |f| f.render()),
            Target::Load => self.emit(out, &load_sensitivity::run(cfg)?, |l| Ok(l.render())),
            Target::Skin => self.emit(out, &skin::run(cfg)?, |s| Ok(s.render())),
            Target::Aging => self.emit(out, &aging::run(cfg)?, |a| {
                let paper = "paper (§IV-C): input-voltage throttling \
                             'reminiscent of old iPhones being throttled'";
                noted(a.render(), paper)
            }),
            Target::Governor => {
                self.emit(out, &governor_study::run(cfg)?, |g| Ok(g.render()))
            }
        }
    }

    /// One per-SoC study target: study `index` of `table2` when the studies
    /// are shared, else `alone` runs just this one. `paper` is the paper's
    /// (perf %, energy %) variation.
    fn study(
        &self,
        out: &mut dyn Write,
        target: Target,
        index: usize,
        alone: fn(&ExperimentConfig) -> Result<SocStudy, BenchError>,
        paper: (f64, f64),
    ) -> Result<(), BenchError> {
        let own;
        let study = if self.share_studies {
            &self.table2()?.studies[index]
        } else {
            own = alone(self.cfg)?;
            &own
        };
        self.export(|x| Ok(vec![x.export_study(target.name(), study)?]))?;
        self.emit(out, study, |s| {
            Ok(format!(
                "{}\npaper: perf variation {:.0}%, energy variation {:.0}% | measured: perf {:.1}%, energy {:.1}%\n",
                s.render()?,
                paper.0,
                paper.1,
                s.perf_spread_percent()?,
                s.energy_spread_percent()?
            ))
        })
    }

    /// Writes `value` to `out` as pretty JSON, or as the text `render`
    /// makes of it; only the format asked for is built.
    fn emit<T: ToJson>(
        &self,
        out: &mut dyn Write,
        value: &T,
        render: impl FnOnce(&T) -> Result<String, BenchError>,
    ) -> Result<(), BenchError> {
        let text = if self.json {
            value.to_json().to_string_pretty()
        } else {
            render(value)?
        };
        writeln!(out, "{text}").map_err(BenchError::Io)
    }

    /// Runs `write` on the exporter, if there is one, and counts its files.
    fn export(
        &self,
        write: impl FnOnce(&FigureExporter) -> Result<Vec<PathBuf>, BenchError>,
    ) -> Result<(), BenchError> {
        if let Some(exporter) = self.exporter {
            let files = write(exporter)?.len();
            self.exported.set(self.exported.get() + files);
        }
        Ok(())
    }

    /// Figs 4/5, run and exported on first use.
    fn fig45(&self) -> Result<&fig45::Fig45, BenchError> {
        cached(&self.fig45, || {
            let fig = fig45::run(self.cfg)?;
            self.export(|x| x.export_fig45(&fig))?;
            Ok(fig)
        })
    }

    /// Figs 11/12, run and exported on first use.
    fn fig1112(&self) -> Result<&fig1112::Fig1112, BenchError> {
        cached(&self.fig1112, || {
            let fig = fig1112::run(self.cfg)?;
            self.export(|x| x.export_fig1112(&fig))?;
            Ok(fig)
        })
    }

    /// Table II and its five studies, run on first use.
    fn table2(&self) -> Result<&table2::Table2, BenchError> {
        cached(&self.table2, || table2::run(self.cfg))
    }
}

/// A target's text: its table, then a line on what the paper reports.
fn noted(table: String, paper: impl fmt::Display) -> Result<String, BenchError> {
    Ok(format!("{table}\n{paper}\n"))
}

/// The value in `cell`, computed by `compute` on first use.
fn cached<T>(
    cell: &OnceCell<T>,
    compute: impl FnOnce() -> Result<T, BenchError>,
) -> Result<&T, BenchError> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = compute()?;
    Ok(cell.get_or_init(|| value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_select_their_target_and_all_selects_every_one() {
        for &target in Target::ALL {
            assert_eq!(Target::select(target.name()), Some(&[target][..]));
        }
        assert_eq!(Target::select("all"), Some(Target::ALL));
        assert_eq!(Target::select("nosuch"), None);
        assert_eq!(Target::select("list"), None);
    }

    #[test]
    fn text_and_json_render_the_same_run() {
        let cfg = ExperimentConfig::quick();
        let render = |target: Target, json| {
            let mut out = Vec::new();
            run(&[target], &cfg, None, None, json, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let fig45 = fig45::run(&cfg).unwrap();
        let fig1112 = fig1112::run(&cfg).unwrap();
        // Each target's text carries `marker`; its JSON is `expected`.
        let cases = [
            (
                Target::Table1,
                "worst model-vs-kernel deviation".to_owned(),
                table1::run().unwrap().to_json(),
            ),
            (
                Target::Fig4,
                fig45.unconstrained.render(),
                fig45.unconstrained.to_json(),
            ),
            (
                Target::Fig12,
                fig1112.nexus5.render(),
                fig1112.nexus5.to_json(),
            ),
        ];
        for (target, marker, expected) in cases {
            let header = format!("==== {} ====\n", target.name());
            let text = render(target, false);
            assert!(text.starts_with(&header), "{text}");
            assert!(text.contains(&marker), "{text}");
            let json = render(target, true);
            let body = json.strip_prefix(&header).unwrap();
            assert_eq!(body, format!("{}\n", expected.to_string_pretty()));
        }
    }
}
