//! Table II — summary of energy-performance variations across all SoCs.
//!
//! | Chipset | Model | # Devices | Perf variation | Energy variation |
//! |---------|-------|-----------|----------------|------------------|
//! | SD-800 | Nexus 5 | 4 | 14 % | 19 % |
//! | SD-805 | Nexus 6 | 3 | 2 % | 2 % |
//! | SD-810 | Nexus 6P | 3 | 10 % | 12 % |
//! | SD-820 | LG G5 | 5 | 4 % | 10 % |
//! | SD-821 | Google Pixel | 3 | 5 % | 9 % |
//!
//! The paper notes these are *lower bounds*: with 3–5 devices per SoC, the
//! true population spread can only be larger.

use crate::experiments::study::{plans, run_soc_studies, SocStudy};
use crate::experiments::ExperimentConfig;
use crate::report::TextTable;
use crate::BenchError;

/// One summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// SoC name.
    pub soc: &'static str,
    /// Handset model.
    pub model: &'static str,
    /// Number of devices in the study.
    pub devices: usize,
    /// Peak-to-peak performance variation (%).
    pub perf_variation: f64,
    /// Peak-to-peak energy variation (%).
    pub energy_variation: f64,
}

/// The regenerated Table II plus the per-SoC studies it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Summary rows in the paper's order.
    pub rows: Vec<SummaryRow>,
    /// The underlying studies (reused by Fig 13).
    pub studies: Vec<SocStudy>,
}

impl Table2 {
    /// The paper's reported values for side-by-side comparison:
    /// (soc, devices, perf %, energy %).
    pub const PAPER_VALUES: [(&'static str, usize, f64, f64); 5] = [
        ("SD-800", 4, 14.0, 19.0),
        ("SD-805", 3, 2.0, 2.0),
        ("SD-810", 3, 10.0, 12.0),
        ("SD-820", 5, 4.0, 10.0),
        ("SD-821", 3, 5.0, 9.0),
    ];

    /// Renders measured-vs-paper variation percentages.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "chipset",
            "model",
            "#devices",
            "perf var (measured)",
            "perf var (paper)",
            "energy var (measured)",
            "energy var (paper)",
        ]);
        for (row, paper) in self.rows.iter().zip(Self::PAPER_VALUES) {
            t.row(vec![
                row.soc.to_owned(),
                row.model.to_owned(),
                row.devices.to_string(),
                format!("{:.1}%", row.perf_variation),
                format!("{:.0}%", paper.2),
                format!("{:.1}%", row.energy_variation),
                format!("{:.0}%", paper.3),
            ]);
        }
        format!("Table II: summary of energy-performance variations\n{t}")
    }
}

/// Runs all five studies in one fan-out and assembles the summary.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Table2, BenchError> {
    let studies = run_soc_studies(plans::build(&plans::PAPER)?, cfg)?;
    let mut rows = Vec::with_capacity(studies.len());
    for s in &studies {
        rows.push(SummaryRow {
            soc: s.soc,
            model: s.model,
            devices: s.rows.len(),
            perf_variation: s.perf_spread_percent()?,
            energy_variation: s.energy_spread_percent()?,
        });
    }
    Ok(Table2 { rows, studies })
}

pv_json::impl_to_json!(SummaryRow {
    soc,
    model,
    devices,
    perf_variation,
    energy_variation
});
pv_json::impl_to_json!(Table2 { rows, studies });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reproduces_paper_orderings() {
        let t2 = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(t2.rows.len(), 5);
        let by_soc = |soc: &str| t2.rows.iter().find(|r| r.soc == soc).unwrap();

        // Device counts match the paper exactly.
        for (soc, n, _, _) in Table2::PAPER_VALUES {
            assert_eq!(by_soc(soc).devices, n, "{soc} device count");
        }

        // Qualitative orderings the paper reports:
        // SD-800 has the largest spreads of the study.
        let sd800 = by_soc("SD-800");
        for soc in ["SD-805", "SD-810", "SD-820", "SD-821"] {
            let other = by_soc(soc);
            assert!(
                sd800.energy_variation >= other.energy_variation,
                "SD-800 energy spread should dominate {soc}"
            );
        }
        // SD-805 is the negligible-variation outlier (≈2 %).
        let sd805 = by_soc("SD-805");
        assert!(
            sd805.perf_variation < 5.0,
            "SD-805 perf spread {:.1}% should be negligible",
            sd805.perf_variation
        );
        // Newer FinFET parts still show real (≥ several %) energy spreads.
        for soc in ["SD-820", "SD-821"] {
            let r = by_soc(soc);
            assert!(
                r.energy_variation > 3.0,
                "{soc} energy variation {:.1}% should persist",
                r.energy_variation
            );
        }

        let rendered = t2.render();
        assert!(rendered.contains("Table II"));
        assert!(rendered.contains("Google Pixel"));
    }
}
