//! CPU binning: speed binning and voltage binning.
//!
//! The paper (§II) distinguishes the two industry techniques:
//!
//! * **Speed binning** sorts chips by the highest frequency they pass timing
//!   at, and sells them at different speeds/prices — the desktop model.
//! * **Voltage binning** keeps the *frequency ladder identical* across all
//!   chips and trims each bin's supply voltage instead: slow silicon gets a
//!   *higher* voltage so it can keep up; fast (leaky) silicon gets a lower
//!   voltage to rein in its leakage. This is what smartphone SoCs do, and is
//!   why two phones of the same model look identical but heat differently.
//!
//! The Nexus 5 kernel's voltage/frequency table (the paper's Table I) is
//! embedded verbatim as [`nexus5::REFERENCE_BINS`], and
//! [`voltage_bin_table`] regenerates tables of the same shape for arbitrary
//! dies by interpolating between the slowest (bin-0) and fastest (bin-6)
//! ladders.

use crate::{DieSample, SiliconError};
use core::fmt;
use pv_units::{MegaHertz, MilliVolts, Volts};

/// Identifier of a voltage/speed bin. Bin 0 holds the slowest silicon
/// (highest voltage); higher bins hold faster, leakier silicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BinId(pub u8);

impl BinId {
    /// The raw bin index.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for BinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bin-{}", self.0)
    }
}

/// One operating point: a frequency and the supply voltage trimmed for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Operating frequency.
    pub freq: MegaHertz,
    /// Trimmed supply voltage at that frequency.
    pub voltage: MilliVolts,
}

/// A validated voltage/frequency table: strictly increasing frequencies with
/// non-decreasing voltages.
///
/// # Examples
///
/// ```
/// use pv_silicon::binning::{nexus5, BinId};
/// let t = nexus5::reference_table(BinId(0)).unwrap();
/// assert_eq!(t.max_freq().value(), 2265.0);
/// assert_eq!(t.voltage_for(pv_units::MegaHertz(2265.0)).unwrap().value(), 1100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    points: Vec<VfPoint>,
}

impl VfTable {
    /// Builds a table after validating its invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidTable`] if the table is empty,
    /// frequencies are not strictly increasing/finite/positive, or voltages
    /// decrease as frequency rises.
    pub fn new(points: Vec<VfPoint>) -> Result<Self, SiliconError> {
        if points.is_empty() {
            return Err(SiliconError::InvalidTable("empty table"));
        }
        for p in &points {
            if !(p.freq.value() > 0.0 && p.freq.is_finite()) {
                return Err(SiliconError::InvalidTable("non-positive frequency"));
            }
            if p.voltage.value() == 0 {
                return Err(SiliconError::InvalidTable("zero voltage"));
            }
        }
        for w in points.windows(2) {
            if w[1].freq.value() <= w[0].freq.value() {
                return Err(SiliconError::InvalidTable(
                    "frequencies must be strictly increasing",
                ));
            }
            if w[1].voltage < w[0].voltage {
                return Err(SiliconError::InvalidTable(
                    "voltage must not decrease with frequency",
                ));
            }
        }
        Ok(Self { points })
    }

    /// The operating points, ascending by frequency.
    pub fn points(&self) -> &[VfPoint] {
        &self.points
    }

    /// All frequencies in the ladder, ascending.
    pub fn freqs(&self) -> impl Iterator<Item = MegaHertz> + '_ {
        self.points.iter().map(|p| p.freq)
    }

    /// The lowest operating frequency.
    pub fn min_freq(&self) -> MegaHertz {
        self.points[0].freq
    }

    /// The highest operating frequency.
    pub fn max_freq(&self) -> MegaHertz {
        self.points[self.points.len() - 1].freq
    }

    /// Exact-match lookup of the trimmed voltage for `freq`.
    pub fn voltage_for(&self, freq: MegaHertz) -> Option<MilliVolts> {
        self.points
            .iter()
            .find(|p| (p.freq.value() - freq.value()).abs() < 1e-9)
            .map(|p| p.voltage)
    }

    /// Voltage for an arbitrary frequency: exact points return their trim;
    /// frequencies between points linearly interpolate; frequencies outside
    /// the ladder clamp to the end points.
    pub fn voltage_at(&self, freq: MegaHertz) -> Volts {
        let f = freq.value();
        if f <= self.points[0].freq.value() {
            return self.points[0].voltage.to_volts();
        }
        let last = &self.points[self.points.len() - 1];
        if f >= last.freq.value() {
            return last.voltage.to_volts();
        }
        for w in self.points.windows(2) {
            let (f0, f1) = (w[0].freq.value(), w[1].freq.value());
            if f >= f0 && f <= f1 {
                let (v0, v1) = (
                    w[0].voltage.to_volts().value(),
                    w[1].voltage.to_volts().value(),
                );
                let t = (f - f0) / (f1 - f0);
                return Volts(v0 + t * (v1 - v0));
            }
        }
        unreachable!("frequency bracketed by construction")
    }

    /// The highest ladder frequency that does not exceed `cap`; `None` if
    /// even the lowest point exceeds the cap.
    pub fn highest_freq_at_or_below(&self, cap: MegaHertz) -> Option<MegaHertz> {
        self.points
            .iter()
            .rev()
            .find(|p| p.freq.value() <= cap.value() + 1e-9)
            .map(|p| p.freq)
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl fmt::Display for VfTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:.0}@{}", p.freq.value(), p.voltage)?;
        }
        Ok(())
    }
}

/// Assigns a die to one of `n_bins` equal-quantile speed bins.
///
/// Bin 0 receives the slowest dies (grade near 0) and bin `n_bins − 1` the
/// fastest — the paper's convention where "bin-0 has the slowest transistors
/// while bin-6 transistors leak the most".
///
/// # Errors
///
/// Returns [`SiliconError::InvalidParameter`] if `n_bins == 0`.
pub fn assign_bin(die: &DieSample, n_bins: u8) -> Result<BinId, SiliconError> {
    if n_bins == 0 {
        return Err(SiliconError::InvalidParameter("n_bins must be >= 1"));
    }
    let idx = (die.grade() * f64::from(n_bins)).floor() as u8;
    Ok(BinId(idx.min(n_bins - 1)))
}

/// Generates a voltage-binned table for a die by interpolating between the
/// ladder for the slowest silicon (`slow`, bin-0 style: high voltage) and
/// the fastest (`fast`, bin-max style: low voltage).
///
/// A die at grade 0 gets exactly `slow`; at grade 1 exactly `fast`;
/// intermediate grades interpolate per-frequency and round to the nearest
/// 5 mV step (matching kernel table granularity).
///
/// # Errors
///
/// Returns [`SiliconError::InvalidTable`] if the two ladders do not share an
/// identical frequency list, or if `slow` has a lower voltage than `fast`
/// anywhere (voltage binning gives slow silicon *more* volts, never fewer).
pub fn voltage_bin_table(
    slow: &VfTable,
    fast: &VfTable,
    die: &DieSample,
) -> Result<VfTable, SiliconError> {
    if slow.len() != fast.len() {
        return Err(SiliconError::InvalidTable("ladder length mismatch"));
    }
    let mut points = Vec::with_capacity(slow.len());
    for (s, f) in slow.points().iter().zip(fast.points()) {
        if (s.freq.value() - f.freq.value()).abs() > 1e-9 {
            return Err(SiliconError::InvalidTable("ladder frequency mismatch"));
        }
        if s.voltage < f.voltage {
            return Err(SiliconError::InvalidTable(
                "slow ladder must not be below fast ladder",
            ));
        }
        let hi = f64::from(s.voltage.value());
        let lo = f64::from(f.voltage.value());
        let v = hi - die.grade() * (hi - lo);
        let stepped = ((v / 5.0).round() * 5.0) as u32;
        points.push(VfPoint {
            freq: s.freq,
            voltage: MilliVolts(stepped),
        });
    }
    VfTable::new(points)
}

/// The Nexus 5 (Snapdragon 800) reference data from the paper's Table I.
pub mod nexus5 {
    use super::*;

    /// The SD-800 frequency ladder used in Table I, in MHz.
    pub const FREQS_MHZ: [f64; 5] = [300.0, 729.0, 960.0, 1574.0, 2265.0];

    /// Number of voltage bins on the Nexus 5.
    pub const N_BINS: u8 = 7;

    /// Table I verbatim: per-bin voltage (mV) for each ladder frequency.
    /// Row = bin (0 slowest … 6 fastest/leakiest), column = frequency.
    pub const REFERENCE_BINS: [[u32; 5]; 7] = [
        [800, 835, 865, 965, 1100], // bin-0
        [800, 820, 850, 945, 1075], // bin-1
        [775, 805, 835, 925, 1050], // bin-2
        [775, 790, 820, 910, 1025], // bin-3
        [775, 780, 810, 895, 1000], // bin-4
        [750, 770, 800, 880, 975],  // bin-5
        [750, 760, 790, 870, 950],  // bin-6
    ];

    /// Builds the verbatim Table I ladder for `bin`.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] for bins ≥ 7.
    pub fn reference_table(bin: BinId) -> Result<VfTable, SiliconError> {
        let row = REFERENCE_BINS
            .get(usize::from(bin.index()))
            .ok_or(SiliconError::InvalidParameter("Nexus 5 bin out of range"))?;
        let points = FREQS_MHZ
            .iter()
            .zip(row)
            .map(|(&f, &mv)| VfPoint {
                freq: MegaHertz(f),
                voltage: MilliVolts(mv),
            })
            .collect();
        VfTable::new(points)
    }

    /// All seven reference ladders, bin-0 first.
    ///
    /// # Panics
    ///
    /// Never panics; the embedded data is valid by construction.
    pub fn all_reference_tables() -> Vec<VfTable> {
        (0..N_BINS)
            .map(|b| reference_table(BinId(b)).expect("embedded table is valid"))
            .collect()
    }

    /// Representative die grade for the centre of a Nexus 5 bin.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] for bins ≥ 7.
    pub fn bin_center_grade(bin: BinId) -> Result<f64, SiliconError> {
        if bin.index() >= N_BINS {
            return Err(SiliconError::InvalidParameter("Nexus 5 bin out of range"));
        }
        Ok((f64::from(bin.index()) + 0.5) / f64::from(N_BINS))
    }
}

pv_json::impl_to_json!(VfPoint { freq, voltage });
pv_json::impl_to_json!(VfTable { points });

impl pv_json::ToJson for BinId {
    /// Bin ids serialize as transparent numbers.
    fn to_json(&self) -> pv_json::Json {
        pv_json::Json::Number(f64::from(self.0))
    }
}

impl pv_json::FromJson for BinId {
    fn from_json(value: &pv_json::Json) -> Option<Self> {
        let n = value.as_f64()?;
        if n.is_finite() && (0.0..=f64::from(u8::MAX)).contains(&n) && n.fract() == 0.0 {
            Some(Self(n as u8))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessNode;

    fn mk_table(rows: &[(f64, u32)]) -> Result<VfTable, SiliconError> {
        VfTable::new(
            rows.iter()
                .map(|&(f, mv)| VfPoint {
                    freq: MegaHertz(f),
                    voltage: MilliVolts(mv),
                })
                .collect(),
        )
    }

    #[test]
    fn table_validation_rejects_bad_shapes() {
        assert!(mk_table(&[]).is_err());
        assert!(mk_table(&[(100.0, 800), (100.0, 850)]).is_err()); // duplicate freq
        assert!(mk_table(&[(200.0, 800), (100.0, 850)]).is_err()); // decreasing freq
        assert!(mk_table(&[(100.0, 900), (200.0, 850)]).is_err()); // voltage drops
        assert!(mk_table(&[(0.0, 800)]).is_err()); // zero freq
        assert!(mk_table(&[(100.0, 0)]).is_err()); // zero voltage
        assert!(mk_table(&[(100.0, 800), (200.0, 800)]).is_ok()); // flat voltage ok
    }

    #[test]
    fn reference_table_matches_paper_exactly() {
        let bin0 = nexus5::reference_table(BinId(0)).unwrap();
        assert_eq!(bin0.voltage_for(MegaHertz(300.0)), Some(MilliVolts(800)));
        assert_eq!(bin0.voltage_for(MegaHertz(2265.0)), Some(MilliVolts(1100)));
        let bin6 = nexus5::reference_table(BinId(6)).unwrap();
        assert_eq!(bin6.voltage_for(MegaHertz(2265.0)), Some(MilliVolts(950)));
        assert_eq!(bin6.voltage_for(MegaHertz(960.0)), Some(MilliVolts(790)));
        assert!(nexus5::reference_table(BinId(7)).is_err());
    }

    #[test]
    fn reference_bins_are_monotone_across_bins() {
        // At every frequency, voltage decreases (weakly) as bin index rises:
        // slow silicon gets more volts.
        let tables = nexus5::all_reference_tables();
        for fi in 0..nexus5::FREQS_MHZ.len() {
            let f = MegaHertz(nexus5::FREQS_MHZ[fi]);
            for w in tables.windows(2) {
                assert!(w[0].voltage_for(f).unwrap() >= w[1].voltage_for(f).unwrap());
            }
        }
    }

    #[test]
    fn voltage_interpolation_and_clamping() {
        let t = nexus5::reference_table(BinId(0)).unwrap();
        // Exact point.
        assert!((t.voltage_at(MegaHertz(960.0)).value() - 0.865).abs() < 1e-9);
        // Midpoint of 300→729 at (800+835)/2 = 817.5 mV.
        let mid = t.voltage_at(MegaHertz((300.0 + 729.0) / 2.0));
        assert!((mid.value() - 0.8175).abs() < 1e-9);
        // Clamping outside range.
        assert!((t.voltage_at(MegaHertz(100.0)).value() - 0.800).abs() < 1e-9);
        assert!((t.voltage_at(MegaHertz(9999.0)).value() - 1.100).abs() < 1e-9);
    }

    #[test]
    fn highest_freq_at_or_below() {
        let t = nexus5::reference_table(BinId(3)).unwrap();
        assert_eq!(
            t.highest_freq_at_or_below(MegaHertz(1000.0)),
            Some(MegaHertz(960.0))
        );
        assert_eq!(
            t.highest_freq_at_or_below(MegaHertz(2265.0)),
            Some(MegaHertz(2265.0))
        );
        assert_eq!(t.highest_freq_at_or_below(MegaHertz(200.0)), None);
    }

    #[test]
    fn bin_assignment_covers_range() {
        let node = ProcessNode::PLANAR_28NM;
        let slow = DieSample::from_grade(node, 0.01).unwrap();
        let fast = DieSample::from_grade(node, 0.99).unwrap();
        let mid = DieSample::from_grade(node, 0.5).unwrap();
        assert_eq!(assign_bin(&slow, 7).unwrap(), BinId(0));
        assert_eq!(assign_bin(&fast, 7).unwrap(), BinId(6));
        assert_eq!(assign_bin(&mid, 7).unwrap(), BinId(3));
        assert!(assign_bin(&mid, 0).is_err());
    }

    #[test]
    fn bin_assignment_is_monotone_in_grade() {
        let node = ProcessNode::PLANAR_28NM;
        let mut last = 0u8;
        for i in 1..100 {
            let die = DieSample::from_grade(node, f64::from(i) / 100.0).unwrap();
            let bin = assign_bin(&die, 7).unwrap();
            assert!(bin.index() >= last);
            last = bin.index();
        }
        assert_eq!(last, 6);
    }

    #[test]
    fn voltage_bin_table_interpolates_between_extremes() {
        let slow = nexus5::reference_table(BinId(0)).unwrap();
        let fast = nexus5::reference_table(BinId(6)).unwrap();
        let node = ProcessNode::PLANAR_28NM;

        // Near-slow die gets near bin-0 voltages.
        let die = DieSample::from_grade(node, 0.01).unwrap();
        let t = voltage_bin_table(&slow, &fast, &die).unwrap();
        assert_eq!(t.voltage_for(MegaHertz(2265.0)), Some(MilliVolts(1100)));

        // Near-fast die gets near bin-6 voltages.
        let die = DieSample::from_grade(node, 0.99).unwrap();
        let t = voltage_bin_table(&slow, &fast, &die).unwrap();
        assert_eq!(t.voltage_for(MegaHertz(2265.0)), Some(MilliVolts(950)));

        // Median die lands midway, on a 5 mV step.
        let die = DieSample::from_grade(node, 0.5).unwrap();
        let t = voltage_bin_table(&slow, &fast, &die).unwrap();
        let v = t.voltage_for(MegaHertz(2265.0)).unwrap().value();
        assert_eq!(v, 1025);
        assert_eq!(v % 5, 0);
    }

    #[test]
    fn voltage_bin_table_regenerates_paper_shape() {
        // Generated tables must preserve the two Table I monotonicities:
        // voltage rises with frequency within a die, and falls with grade
        // across dies at fixed frequency.
        let slow = nexus5::reference_table(BinId(0)).unwrap();
        let fast = nexus5::reference_table(BinId(6)).unwrap();
        let node = ProcessNode::PLANAR_28NM;
        let mut prev: Option<VfTable> = None;
        for i in 1..10 {
            let die = DieSample::from_grade(node, f64::from(i) / 10.0).unwrap();
            let t = voltage_bin_table(&slow, &fast, &die).unwrap();
            if let Some(p) = &prev {
                for f in nexus5::FREQS_MHZ {
                    assert!(
                        t.voltage_for(MegaHertz(f)).unwrap()
                            <= p.voltage_for(MegaHertz(f)).unwrap()
                    );
                }
            }
            prev = Some(t);
        }
        // A table generated at a bin-centre grade lies closest, in total
        // millivolts, to that bin's Table I row.
        let distance = |a: &VfTable, b: &VfTable| -> u32 {
            a.points()
                .iter()
                .zip(b.points())
                .map(|(x, y)| x.voltage.value().abs_diff(y.voltage.value()))
                .sum()
        };
        for b in [0u8, 3, 6] {
            let grade = nexus5::bin_center_grade(BinId(b)).unwrap();
            let die = DieSample::from_grade(node, grade).unwrap();
            let t = voltage_bin_table(&slow, &fast, &die).unwrap();
            let nearest = (0..nexus5::N_BINS)
                .min_by_key(|&r| distance(&t, &nexus5::reference_table(BinId(r)).unwrap()));
            assert_eq!(nearest, Some(b), "bin-{b}");
        }
    }

    #[test]
    fn voltage_bin_table_rejects_mismatched_ladders() {
        let slow = nexus5::reference_table(BinId(0)).unwrap();
        let short = mk_table(&[(300.0, 800)]).unwrap();
        let die = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.5).unwrap();
        assert!(voltage_bin_table(&slow, &short, &die).is_err());

        let shifted = mk_table(&[
            (301.0, 750),
            (729.0, 760),
            (960.0, 790),
            (1574.0, 870),
            (2265.0, 950),
        ])
        .unwrap();
        assert!(voltage_bin_table(&slow, &shifted, &die).is_err());

        // Fast above slow is nonsense.
        let fast = nexus5::reference_table(BinId(6)).unwrap();
        assert!(voltage_bin_table(&fast, &slow, &die).is_err());
    }

    #[test]
    fn bin_center_grades_are_ordered() {
        let mut last = 0.0;
        for b in 0..nexus5::N_BINS {
            let g = nexus5::bin_center_grade(BinId(b)).unwrap();
            assert!(g > last && g < 1.0);
            last = g;
        }
        assert!(nexus5::bin_center_grade(BinId(9)).is_err());
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", BinId(4)), "bin-4");
        let t = nexus5::reference_table(BinId(0)).unwrap();
        let s = format!("{t}");
        assert!(s.contains("2265@1100 mV"));
    }
}
