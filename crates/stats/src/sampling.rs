//! Population subsampling for crowd-scale sweeps.
//!
//! The paper's crowd statistics (mean ACCUBENCH score, RSD, percentiles) are
//! population-level claims. Simulating every device in a 10⁶-unit fleet is
//! infeasible, but the silicon generator already knows each die's process
//! grade *before* any expensive thermal simulation runs — a cheap auxiliary
//! variable that is strongly correlated with the final score. This module
//! exploits that with three designs:
//!
//! - **SRS** — simple random sampling without replacement; the unbiased
//!   baseline with no use of the auxiliary variable.
//! - **RSS** — ranked set sampling: draw candidate sets, rank them by the
//!   auxiliary grade, and measure one unit per rank. More efficient than SRS
//!   whenever ranking correlates with the response.
//! - **Stratified** — two-phase stratified sampling: phase one assigns every
//!   unit to a stratum from its silicon-grade bin (the same `floor(grade·H)`
//!   rule the binning layer uses), phase two draws a proportional SRS within
//!   each stratum with deterministic largest-remainder allocation.
//!
//! All selection is deterministic for a fixed seed, and every estimate
//! carries a percentile-bootstrap confidence interval (resampling within
//! strata so stratification survives the resample).

use crate::bootstrap::ConfidenceInterval;
use crate::StatsError;
use pv_rng::rngs::StdRng;
use pv_rng::{Rng, SeedableRng};
use std::collections::HashMap;

/// Subsampling design for a crowd sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Simple random sampling without replacement.
    Srs,
    /// Ranked set sampling on the auxiliary variable.
    Rss,
    /// Two-phase stratified sampling with proportional allocation.
    Stratified,
}

impl Strategy {
    /// Parses a CLI strategy name (`srs`, `rss`, `stratified`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, StatsError> {
        match name {
            "srs" => Ok(Self::Srs),
            "rss" => Ok(Self::Rss),
            "stratified" => Ok(Self::Stratified),
            _ => Err(StatsError::InvalidParameter(
                "unknown sampling strategy (expected srs, rss, or stratified)",
            )),
        }
    }

    /// Canonical CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Srs => "srs",
            Self::Rss => "rss",
            Self::Stratified => "stratified",
        }
    }
}

/// One group of selected units sharing an estimation weight.
///
/// SRS and RSS selections produce a single group; stratified selections
/// produce one group per non-empty stratum with `weight = N_h / N`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionGroup {
    /// Relative population weight of the group (normalized at estimation).
    pub weight: f64,
    /// Population indices selected into this group, ascending.
    pub indices: Vec<usize>,
}

/// The result of a sampling design: which population indices to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Design that produced the selection.
    pub strategy: Strategy,
    /// All selected population indices, ascending and distinct.
    pub indices: Vec<usize>,
    /// Weighted groups for estimation (partition of `indices`).
    pub groups: Vec<SelectionGroup>,
}

/// Selects `n` of the `aux.len()` population units using `strategy`.
///
/// `aux` is the auxiliary ranking variable (silicon grade in `[0, 1]`);
/// `strata` is the stratum/rank-set count (the silicon bin count). The
/// selection is deterministic for a fixed `seed`.
///
/// Memory beyond `aux` and the returned `n` indices: stratified selection
/// holds 4 bytes per population unit while it runs (vector growth may
/// reserve up to twice that), SRS O(n), and RSS one byte per unit (its
/// `measured` bitmap). The [`Selection`] keeps only the selected indices.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `n` is zero or exceeds the
/// population, `strata == 0`, or the population exceeds `u32::MAX` units;
/// [`StatsError::NonFiniteValue`] when any auxiliary value is non-finite.
pub fn select(
    strategy: Strategy,
    aux: &[f64],
    n: usize,
    strata: usize,
    seed: u64,
) -> Result<Selection, StatsError> {
    if n == 0 {
        return Err(StatsError::InvalidParameter("zero sample size"));
    }
    if n > aux.len() {
        return Err(StatsError::InvalidParameter(
            "sample size exceeds population",
        ));
    }
    if strata == 0 {
        return Err(StatsError::InvalidParameter("zero strata"));
    }
    if u32::try_from(aux.len()).is_err() {
        return Err(StatsError::InvalidParameter(
            "population exceeds u32::MAX units",
        ));
    }
    if aux.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteValue);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let indices = match strategy {
        Strategy::Srs => {
            let mut indices = srs_indices(&mut rng, aux.len(), n);
            indices.sort_unstable();
            indices
        }
        Strategy::Rss => rss_indices(&mut rng, aux, n, strata),
        Strategy::Stratified => return stratified_selection(&mut rng, aux, n, strata),
    };
    Ok(Selection {
        strategy,
        groups: vec![SelectionGroup {
            weight: 1.0,
            indices: indices.clone(),
        }],
        indices,
    })
}

/// Partial Fisher–Yates: `n` distinct indices from `0..pop`, unsorted.
/// Only the positions a swap displaced are stored, so memory is O(n); the
/// draws and the result are those of the shuffle over a `(0..pop)` pool.
fn srs_indices(rng: &mut StdRng, pop: usize, n: usize) -> Vec<usize> {
    // `displaced[&j]` is the unit at position `j` when it is not `j`.
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(n);
    (0..n)
        .map(|i| {
            let j = rng.gen_range(i..pop);
            let at_j = displaced.remove(&j).unwrap_or(j);
            if j != i {
                // Position `i` is never read again; `j` takes its unit.
                let at_i = displaced.remove(&i).unwrap_or(i);
                displaced.insert(j, at_i);
            }
            at_j
        })
        .collect()
}

/// Ranked set sampling with set size `m`: cycle over ranks, draw `m`
/// candidates per quantified unit, rank by `aux`, keep the unit holding the
/// current rank. Candidates never include already-measured units, so the
/// measured sample is without replacement.
fn rss_indices(rng: &mut StdRng, aux: &[f64], n: usize, m: usize) -> Vec<usize> {
    let pop = aux.len();
    let m = m.min(pop).max(1);
    let mut measured = vec![false; pop];
    let mut out = Vec::with_capacity(n);
    let mut candidates: Vec<usize> = Vec::with_capacity(m);
    for draw in 0..n {
        let rank = draw % m;
        candidates.clear();
        // Draw up to m distinct un-measured candidates; fall back to fewer
        // when the un-measured pool runs low (n close to the population).
        let available = pop - out.len();
        let want = m.min(available);
        let mut guard = 0usize;
        while candidates.len() < want && guard < pop * 4 {
            let c = rng.gen_range(0..pop);
            guard += 1;
            if !measured[c] && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        if candidates.is_empty() {
            // Degenerate fallback: linear scan for any free unit.
            if let Some(c) = measured.iter().position(|&u| !u) {
                candidates.push(c);
            } else {
                break;
            }
        }
        // Rank candidates by the auxiliary variable (ties by index so the
        // choice is deterministic).
        candidates.sort_unstable_by(|&a, &b| {
            aux[a]
                .partial_cmp(&aux[b])
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let pick = candidates[rank.min(candidates.len() - 1)];
        measured[pick] = true;
        out.push(pick);
    }
    out.sort_unstable();
    out
}

/// Two-phase stratified selection: assign strata from the auxiliary grade,
/// allocate proportionally (largest remainder, ties to the lower stratum),
/// then SRS within each stratum.
///
/// Each stratum's members are `u32` population indices, built in one pass
/// over `aux`; the SRS shuffles them in place and copies out only the
/// units it keeps.
fn stratified_selection(
    rng: &mut StdRng,
    aux: &[f64],
    n: usize,
    strata: usize,
) -> Result<Selection, StatsError> {
    // Phase one: stratum membership from the grade bin, matching the
    // silicon layer's `floor(grade · H)` rule with the top edge clamped.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); strata];
    for (i, &g) in aux.iter().enumerate() {
        let h = ((g.max(0.0) * strata as f64) as usize).min(strata - 1);
        // `select` caps the population at `u32::MAX` units.
        members[h].push(i as u32);
    }
    let pop = aux.len() as f64;
    // Proportional allocation via largest remainder.
    let mut alloc: Vec<usize> = Vec::with_capacity(strata);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(strata);
    let mut assigned = 0usize;
    for (h, m) in members.iter().enumerate() {
        let quota = n as f64 * m.len() as f64 / pop;
        let base = quota.floor() as usize;
        alloc.push(base.min(m.len()));
        assigned += alloc[h];
        remainders.push((h, quota - base as f64));
    }
    // Hand out the remaining draws by descending fractional remainder,
    // ties broken toward the lower stratum index.
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut cursor = 0usize;
    while assigned < n {
        let (h, _) = remainders[cursor % remainders.len()];
        cursor += 1;
        if alloc[h] < members[h].len() {
            alloc[h] += 1;
            assigned += 1;
        }
        if cursor > strata * (n + 1) {
            return Err(StatsError::InvalidParameter(
                "stratified allocation failed to converge",
            ));
        }
    }
    // Every non-empty stratum should contribute at least one unit when the
    // budget allows; otherwise its weight would silently vanish from the
    // estimator.
    let nonempty = members.iter().filter(|m| !m.is_empty()).count();
    if n >= nonempty {
        while let Some(starved) = (0..strata).find(|&h| !members[h].is_empty() && alloc[h] == 0) {
            let donor = (0..strata)
                .filter(|&h| alloc[h] > 1)
                .max_by_key(|&h| (alloc[h], core::cmp::Reverse(h)))
                .ok_or(StatsError::InvalidParameter(
                    "stratified allocation cannot cover all strata",
                ))?;
            alloc[donor] -= 1;
            alloc[starved] += 1;
        }
    }
    // Phase two: SRS within each stratum, in ascending stratum order so the
    // RNG consumption (and hence the selection) is deterministic.
    let mut groups = Vec::new();
    let mut indices = Vec::with_capacity(n);
    for (h, pool) in members.iter_mut().enumerate() {
        if pool.is_empty() || alloc[h] == 0 {
            continue;
        }
        for i in 0..alloc[h] {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let mut chosen: Vec<usize> = pool[..alloc[h]].iter().map(|&u| u as usize).collect();
        chosen.sort_unstable();
        indices.extend_from_slice(&chosen);
        groups.push(SelectionGroup {
            weight: pool.len() as f64 / pop,
            indices: chosen,
        });
    }
    indices.sort_unstable();
    Ok(Selection {
        strategy: Strategy::Stratified,
        indices,
        groups,
    })
}

/// Measured responses for one selection group.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSample {
    /// Relative population weight (normalized over all groups).
    pub weight: f64,
    /// Observed responses for the group's units.
    pub values: Vec<f64>,
}

/// Point estimates with bootstrap confidence intervals for the crowd
/// statistics a sweep reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimates {
    /// Total measured units across all groups.
    pub n: usize,
    /// Population mean estimate.
    pub mean: ConfidenceInterval,
    /// Population relative standard deviation (percent of mean, plug-in
    /// `√(E[y²] − mean²)` — the population σ, not the n−1 sample σ).
    pub rsd_percent: ConfidenceInterval,
    /// Median estimate (weighted empirical quantile).
    pub p50: ConfidenceInterval,
    /// 90th-percentile estimate (weighted empirical quantile).
    pub p90: ConfidenceInterval,
}

pv_json::impl_to_json!(Estimates {
    n,
    mean,
    rsd_percent,
    p50,
    p90
});

/// Computes weighted point estimates over `groups` and percentile-bootstrap
/// confidence intervals by resampling *within* each group (so a stratified
/// design stays stratified across resamples). Deterministic for a fixed
/// `seed`.
///
/// Costs one sort of the n measured values, then O(resamples · n): each
/// replicate counts its draws per unit and walks the value order once per
/// quantile, in O(n) memory.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] when no group holds a value,
/// [`StatsError::NonFiniteValue`] on non-finite responses or weights, and
/// [`StatsError::InvalidParameter`] on a bad level/resample count or
/// non-positive weight.
pub fn estimate(
    groups: &[StratumSample],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Result<Estimates, StatsError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidParameter("level outside (0,1)"));
    }
    if resamples == 0 {
        return Err(StatsError::InvalidParameter("zero resamples"));
    }
    let live: Vec<&StratumSample> = groups.iter().filter(|g| !g.values.is_empty()).collect();
    if live.is_empty() {
        return Err(StatsError::EmptySample);
    }
    for g in &live {
        if !g.weight.is_finite() || g.weight <= 0.0 {
            return Err(StatsError::InvalidParameter("non-positive group weight"));
        }
        if g.values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteValue);
        }
    }
    let ranked = Ranked::new(&live);
    let n = ranked.order.len();
    let values: Vec<&[f64]> = live.iter().map(|g| g.values.as_slice()).collect();
    // The point estimate draws every unit once, in unit order.
    let mut counts = vec![1usize; n];
    let point = ranked.statistics(&values, &counts)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut boots: [Vec<f64>; 4] = [
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
        Vec::with_capacity(resamples),
    ];
    let mut draws: Vec<Vec<f64>> = live.iter().map(|g| vec![0.0; g.values.len()]).collect();
    for _ in 0..resamples {
        counts.fill(0);
        let mut first = 0;
        for (dst, src) in draws.iter_mut().zip(&values) {
            for slot in dst.iter_mut() {
                let unit = rng.gen_range(0..src.len());
                *slot = src[unit];
                counts[first + unit] += 1;
            }
            first += src.len();
        }
        let p = ranked.statistics(&draws, &counts)?;
        for (boot, stat) in boots.iter_mut().zip(p) {
            boot.push(stat);
        }
    }
    let alpha = (1.0 - level) / 2.0;
    let ci = |stat: &[f64], point: f64| -> Result<ConfidenceInterval, StatsError> {
        Ok(ConfidenceInterval {
            lo: crate::quantile(stat, alpha)?,
            hi: crate::quantile(stat, 1.0 - alpha)?,
            point,
            level,
        })
    };
    Ok(Estimates {
        n,
        mean: ci(&boots[0], point[0])?,
        rsd_percent: ci(&boots[1], point[1])?,
        p50: ci(&boots[2], point[2])?,
        p90: ci(&boots[3], point[3])?,
    })
}

/// The measured units of the live groups, sorted by value once for every
/// weighted quantile a bootstrap asks of them.
///
/// A replicate's quantile walks this order and adds a unit's per-draw
/// weight once per draw. That adds the weights a stable sort of the
/// replicate's `(value, weight)` pairs would, in the same order: values
/// that tie keep group order, and within one group every draw weighs the
/// same, so only how many draws a group has at a value matters.
struct Ranked {
    /// Group weights, in group order.
    weights: Vec<f64>,
    /// Sum of `weights`.
    wsum: f64,
    /// Weight of one draw in each group: `W_h / ΣW / n_h`.
    per_draw: Vec<f64>,
    /// `(value, group, unit)` for every unit, stably sorted by value;
    /// `unit` counts units across groups in group order.
    order: Vec<(f64, usize, usize)>,
}

impl Ranked {
    fn new(live: &[&StratumSample]) -> Self {
        let weights: Vec<f64> = live.iter().map(|g| g.weight).collect();
        let wsum: f64 = weights.iter().sum();
        let per_draw = live
            .iter()
            .map(|g| g.weight / wsum / g.values.len() as f64)
            .collect();
        let mut order: Vec<(f64, usize, usize)> = live
            .iter()
            .enumerate()
            .flat_map(|(h, g)| g.values.iter().map(move |&v| (v, h)))
            .enumerate()
            .map(|(unit, (v, h))| (v, h, unit))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
        Self {
            weights,
            wsum,
            per_draw,
            order,
        }
    }

    /// `[mean, rsd_percent, p50, p90]` of one draw of the groups: `draws`
    /// holds each group's drawn values in draw order, and `counts` how
    /// many times each unit was drawn.
    fn statistics(
        &self,
        draws: &[impl AsRef<[f64]>],
        counts: &[usize],
    ) -> Result<[f64; 4], StatsError> {
        let mut mean = 0.0;
        let mut mean_sq = 0.0;
        for (&weight, values) in self.weights.iter().zip(draws) {
            let values = values.as_ref();
            let w = weight / self.wsum;
            let gn = values.len() as f64;
            let gm: f64 = values.iter().sum::<f64>() / gn;
            let gm2: f64 = values.iter().map(|v| v * v).sum::<f64>() / gn;
            mean += w * gm;
            mean_sq += w * gm2;
        }
        let var = (mean_sq - mean * mean).max(0.0);
        let rsd = if mean != 0.0 {
            var.sqrt() / mean.abs() * 100.0
        } else {
            return Err(StatsError::InvalidParameter("zero mean"));
        };
        let p50 = self.quantile(draws, counts, 0.50);
        let p90 = self.quantile(draws, counts, 0.90);
        Ok([mean, rsd, p50, p90])
    }

    /// Weighted empirical quantile of a draw: the smallest value whose
    /// cumulative weight reaches `q`.
    fn quantile(&self, draws: &[impl AsRef<[f64]>], counts: &[usize], q: f64) -> f64 {
        let mut acc = 0.0;
        let mut last = (0, 0);
        for (pos, &(_, h, unit)) in self.order.iter().enumerate() {
            for k in 0..counts[unit] {
                acc += self.per_draw[h];
                last = (pos, k);
                if acc >= q - 1e-12 {
                    return self.value_of(draws, counts, pos, k);
                }
            }
        }
        self.value_of(draws, counts, last.0, last.1)
    }

    /// The value of the `k`-th draw of the unit at `order[pos]`. A nonzero
    /// value has one bit pattern, but 0.0 and -0.0 tie: a zero is read from
    /// the group's draws, whose zeros a stable sort keeps in draw order.
    fn value_of(&self, draws: &[impl AsRef<[f64]>], counts: &[usize], pos: usize, k: usize) -> f64 {
        let (v, h, _) = self.order[pos];
        if v != 0.0 {
            return v;
        }
        let before: usize = self.order[..pos]
            .iter()
            .filter(|&&(w, g, _)| w == 0.0 && g == h)
            .map(|&(_, _, unit)| counts[unit])
            .sum();
        let mut zeros = draws[h].as_ref().iter().filter(|&&d| d == 0.0);
        zeros.nth(before + k).copied().unwrap_or(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_rng::RngCore;

    fn grades(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n.max(2) - 1) as f64).collect()
    }

    #[test]
    fn strategy_parse_round_trips() {
        for s in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            assert_eq!(Strategy::parse(s.as_str()).unwrap(), s);
        }
        assert!(Strategy::parse("bogus").is_err());
    }

    #[test]
    fn selection_is_deterministic_and_distinct() {
        let aux = grades(5000);
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let a = select(strategy, &aux, 200, 7, 42).unwrap();
            let b = select(strategy, &aux, 200, 7, 42).unwrap();
            assert_eq!(a, b, "{strategy:?}");
            assert_eq!(a.indices.len(), 200, "{strategy:?}");
            let mut sorted = a.indices.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 200, "{strategy:?} produced duplicates");
            assert!(a.indices.windows(2).all(|w| w[0] < w[1]));
            let c = select(strategy, &aux, 200, 7, 43).unwrap();
            assert_ne!(a.indices, c.indices, "{strategy:?} ignores the seed");
        }
    }

    #[test]
    fn selection_groups_partition_indices() {
        let aux = grades(1000);
        let sel = select(Strategy::Stratified, &aux, 100, 7, 1).unwrap();
        let mut from_groups: Vec<usize> = sel
            .groups
            .iter()
            .flat_map(|g| g.indices.iter().copied())
            .collect();
        from_groups.sort_unstable();
        assert_eq!(from_groups, sel.indices);
        // Proportional allocation: every stratum of a uniform population
        // gets a near-equal share.
        for g in &sel.groups {
            assert!(g.indices.len() >= 100 / 7, "starved stratum");
        }
    }

    #[test]
    fn stratified_covers_every_nonempty_stratum() {
        // Heavily skewed population: stratum 6 holds two units only.
        let mut aux = vec![0.05; 500];
        aux.push(0.99);
        aux.push(0.98);
        let sel = select(Strategy::Stratified, &aux, 50, 7, 9).unwrap();
        assert_eq!(sel.groups.len(), 2);
        assert!(sel.indices.contains(&500) || sel.indices.contains(&501));
    }

    #[test]
    fn selection_validates_inputs() {
        let aux = grades(10);
        assert!(select(Strategy::Srs, &aux, 0, 7, 1).is_err());
        assert!(select(Strategy::Srs, &aux, 11, 7, 1).is_err());
        assert!(select(Strategy::Stratified, &aux, 2, 0, 1).is_err());
        assert!(select(Strategy::Srs, &[f64::NAN; 4], 2, 7, 1).is_err());
    }

    #[test]
    fn full_census_selects_everyone() {
        let aux = grades(64);
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let sel = select(strategy, &aux, 64, 7, 3).unwrap();
            assert_eq!(sel.indices, (0..64).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn estimates_recover_known_population() {
        // Synthetic response linear in grade: y = 30 + 20·g over a uniform
        // population → mean 40, p50 ≈ 40, p90 ≈ 48.
        let aux = grades(20_000);
        let y: Vec<f64> = aux.iter().map(|g| 30.0 + 20.0 * g).collect();
        for strategy in [Strategy::Srs, Strategy::Rss, Strategy::Stratified] {
            let sel = select(strategy, &aux, 500, 7, 11).unwrap();
            let groups: Vec<StratumSample> = sel
                .groups
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g.indices.iter().map(|&i| y[i]).collect(),
                })
                .collect();
            let est = estimate(&groups, 0.95, 500, 99).unwrap();
            assert_eq!(est.n, 500);
            assert!(
                (est.mean.point - 40.0).abs() < 1.0,
                "{strategy:?} mean {:?}",
                est.mean
            );
            assert!(est.mean.contains(est.mean.point));
            assert!((est.p50.point - 40.0).abs() < 2.0, "{strategy:?}");
            assert!((est.p90.point - 48.0).abs() < 2.0, "{strategy:?}");
            // Population RSD of U(30,50): σ = 20/√12 ≈ 5.77 → ~14.4%.
            assert!(
                (est.rsd_percent.point - 14.4).abs() < 2.0,
                "{strategy:?} rsd {:?}",
                est.rsd_percent
            );
        }
    }

    #[test]
    fn stratified_beats_srs_variance_on_correlated_response() {
        let aux = grades(50_000);
        let y: Vec<f64> = aux.iter().map(|g| 30.0 + 20.0 * g).collect();
        let width = |strategy| {
            let sel = select(strategy, &aux, 400, 7, 5).unwrap();
            let groups: Vec<StratumSample> = sel
                .groups
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g.indices.iter().map(|&i| y[i]).collect(),
                })
                .collect();
            estimate(&groups, 0.95, 400, 17).unwrap().mean.width()
        };
        assert!(width(Strategy::Stratified) < width(Strategy::Srs));
    }

    #[test]
    fn estimate_is_deterministic() {
        let groups = [StratumSample {
            weight: 1.0,
            values: (0..50).map(|i| 40.0 + (i % 7) as f64).collect(),
        }];
        let a = estimate(&groups, 0.95, 300, 4).unwrap();
        let b = estimate(&groups, 0.95, 300, 4).unwrap();
        assert_eq!(a, b);
        let c = estimate(&groups, 0.95, 300, 5).unwrap();
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn estimate_validates_inputs() {
        let ok = [StratumSample {
            weight: 1.0,
            values: vec![1.0, 2.0],
        }];
        assert!(estimate(&ok, 0.0, 100, 1).is_err());
        assert!(estimate(&ok, 0.95, 0, 1).is_err());
        assert!(estimate(&[], 0.95, 100, 1).is_err());
        let bad_w = [StratumSample {
            weight: -1.0,
            values: vec![1.0],
        }];
        assert!(estimate(&bad_w, 0.95, 100, 1).is_err());
        let bad_v = [StratumSample {
            weight: 1.0,
            values: vec![f64::NAN],
        }];
        assert!(estimate(&bad_v, 0.95, 100, 1).is_err());
    }

    #[test]
    fn weighted_quantile_respects_weights() {
        // Two strata: 90% of weight at value 10, 10% at value 100.
        let groups = [
            StratumSample {
                weight: 0.9,
                values: vec![10.0; 9],
            },
            StratumSample {
                weight: 0.1,
                values: vec![100.0; 9],
            },
        ];
        let refs: Vec<&StratumSample> = groups.iter().collect();
        let ranked = Ranked::new(&refs);
        let values: Vec<&[f64]> = groups.iter().map(|g| g.values.as_slice()).collect();
        let counts = [1; 18];
        assert_eq!(ranked.quantile(&values, &counts, 0.5), 10.0);
        assert_eq!(ranked.quantile(&values, &counts, 0.95), 100.0);
        // A unit drawn twice weighs twice: 7 of 9 draws in the first group
        // land on value 10, so 0.9 · 7/9 = 0.7 of the weight sits there.
        let mut counts = [0; 18];
        counts[0] = 7;
        counts[9] = 2;
        counts[10] = 7;
        assert_eq!(ranked.quantile(&values, &counts, 0.7), 10.0);
        assert_eq!(ranked.quantile(&values, &counts, 0.71), 100.0);
    }

    #[test]
    fn zero_quantiles_keep_the_sign_the_draw_order_gives() {
        // 0.0 and -0.0 tie, so the quantile returns whichever zero the
        // resampled draws put at the crossing.
        let groups = [StratumSample {
            weight: 1.0,
            values: vec![0.0, -0.0, 1.0],
        }];
        let refs: Vec<&StratumSample> = groups.iter().collect();
        let ranked = Ranked::new(&refs);
        let draws = [[-0.0, 0.0, 0.0]];
        let q = ranked.quantile(&draws, &[2, 1, 0], 0.2);
        assert_eq!(q.to_bits(), (-0.0f64).to_bits());
        let draws = [[0.0, -0.0, -0.0]];
        let q = ranked.quantile(&draws, &[1, 2, 0], 0.2);
        assert_eq!(q.to_bits(), 0.0f64.to_bits());
    }

    /// Reference selection and estimation, as first written: the
    /// `(0..pop)` pool shuffles, and the bootstrap that sorts
    /// `(value, weight)` pairs afresh for every replicate.
    mod oracle {
        use super::super::*;

        pub fn srs_indices(rng: &mut StdRng, pop: usize, n: usize) -> Vec<usize> {
            let mut pool: Vec<usize> = (0..pop).collect();
            for i in 0..n {
                let j = rng.gen_range(i..pop);
                pool.swap(i, j);
            }
            pool.truncate(n);
            pool
        }

        pub fn stratified_selection(
            rng: &mut StdRng,
            aux: &[f64],
            n: usize,
            strata: usize,
        ) -> Result<Selection, StatsError> {
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); strata];
            for (i, &g) in aux.iter().enumerate() {
                let h = ((g.max(0.0) * strata as f64) as usize).min(strata - 1);
                members[h].push(i);
            }
            let pop = aux.len() as f64;
            let mut alloc: Vec<usize> = Vec::with_capacity(strata);
            let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(strata);
            let mut assigned = 0usize;
            for (h, m) in members.iter().enumerate() {
                let quota = n as f64 * m.len() as f64 / pop;
                let base = quota.floor() as usize;
                alloc.push(base.min(m.len()));
                assigned += alloc[h];
                remainders.push((h, quota - base as f64));
            }
            remainders.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(core::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            let mut cursor = 0usize;
            while assigned < n {
                let (h, _) = remainders[cursor % remainders.len()];
                cursor += 1;
                if alloc[h] < members[h].len() {
                    alloc[h] += 1;
                    assigned += 1;
                }
                if cursor > strata * (n + 1) {
                    return Err(StatsError::InvalidParameter(
                        "stratified allocation failed to converge",
                    ));
                }
            }
            let nonempty = members.iter().filter(|m| !m.is_empty()).count();
            if n >= nonempty {
                while let Some(starved) =
                    (0..strata).find(|&h| !members[h].is_empty() && alloc[h] == 0)
                {
                    let donor = (0..strata)
                        .filter(|&h| alloc[h] > 1)
                        .max_by_key(|&h| (alloc[h], core::cmp::Reverse(h)))
                        .ok_or(StatsError::InvalidParameter(
                            "stratified allocation cannot cover all strata",
                        ))?;
                    alloc[donor] -= 1;
                    alloc[starved] += 1;
                }
            }
            let mut groups = Vec::new();
            let mut indices = Vec::with_capacity(n);
            for (h, m) in members.iter().enumerate() {
                if m.is_empty() || alloc[h] == 0 {
                    continue;
                }
                let mut pool = m.clone();
                for i in 0..alloc[h] {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(alloc[h]);
                pool.sort_unstable();
                indices.extend_from_slice(&pool);
                groups.push(SelectionGroup {
                    weight: m.len() as f64 / pop,
                    indices: pool,
                });
            }
            indices.sort_unstable();
            Ok(Selection {
                strategy: Strategy::Stratified,
                indices,
                groups,
            })
        }

        pub fn estimate(
            groups: &[StratumSample],
            level: f64,
            resamples: usize,
            seed: u64,
        ) -> Result<Estimates, StatsError> {
            if !(level > 0.0 && level < 1.0) {
                return Err(StatsError::InvalidParameter("level outside (0,1)"));
            }
            if resamples == 0 {
                return Err(StatsError::InvalidParameter("zero resamples"));
            }
            let live: Vec<&StratumSample> =
                groups.iter().filter(|g| !g.values.is_empty()).collect();
            if live.is_empty() {
                return Err(StatsError::EmptySample);
            }
            for g in &live {
                if !g.weight.is_finite() || g.weight <= 0.0 {
                    return Err(StatsError::InvalidParameter("non-positive group weight"));
                }
                if g.values.iter().any(|v| !v.is_finite()) {
                    return Err(StatsError::NonFiniteValue);
                }
            }
            let n: usize = live.iter().map(|g| g.values.len()).sum();
            let mut pairs = Vec::with_capacity(n);
            let point = point_estimates(&live, &mut pairs)?;

            let mut rng = StdRng::seed_from_u64(seed);
            let mut boots: [Vec<f64>; 4] = [
                Vec::with_capacity(resamples),
                Vec::with_capacity(resamples),
                Vec::with_capacity(resamples),
                Vec::with_capacity(resamples),
            ];
            let mut resampled: Vec<StratumSample> = live
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: vec![0.0; g.values.len()],
                })
                .collect();
            for _ in 0..resamples {
                for (dst, src) in resampled.iter_mut().zip(&live) {
                    for slot in dst.values.iter_mut() {
                        *slot = src.values[rng.gen_range(0..src.values.len())];
                    }
                }
                let refs: Vec<&StratumSample> = resampled.iter().collect();
                let p = point_estimates(&refs, &mut pairs)?;
                boots[0].push(p[0]);
                boots[1].push(p[1]);
                boots[2].push(p[2]);
                boots[3].push(p[3]);
            }
            let alpha = (1.0 - level) / 2.0;
            let ci = |stat: &[f64], point: f64| -> Result<ConfidenceInterval, StatsError> {
                Ok(ConfidenceInterval {
                    lo: crate::quantile(stat, alpha)?,
                    hi: crate::quantile(stat, 1.0 - alpha)?,
                    point,
                    level,
                })
            };
            Ok(Estimates {
                n,
                mean: ci(&boots[0], point[0])?,
                rsd_percent: ci(&boots[1], point[1])?,
                p50: ci(&boots[2], point[2])?,
                p90: ci(&boots[3], point[3])?,
            })
        }

        fn point_estimates(
            groups: &[&StratumSample],
            pairs: &mut Vec<(f64, f64)>,
        ) -> Result<[f64; 4], StatsError> {
            let wsum: f64 = groups.iter().map(|g| g.weight).sum();
            let mut mean = 0.0;
            let mut mean_sq = 0.0;
            for g in groups {
                let w = g.weight / wsum;
                let gn = g.values.len() as f64;
                let gm: f64 = g.values.iter().sum::<f64>() / gn;
                let gm2: f64 = g.values.iter().map(|v| v * v).sum::<f64>() / gn;
                mean += w * gm;
                mean_sq += w * gm2;
            }
            let var = (mean_sq - mean * mean).max(0.0);
            let rsd = if mean != 0.0 {
                var.sqrt() / mean.abs() * 100.0
            } else {
                return Err(StatsError::InvalidParameter("zero mean"));
            };
            sort_weighted(groups, wsum, pairs)?;
            let p50 = weighted_quantile(pairs, 0.50);
            let p90 = weighted_quantile(pairs, 0.90);
            Ok([mean, rsd, p50, p90])
        }

        fn sort_weighted(
            groups: &[&StratumSample],
            wsum: f64,
            pairs: &mut Vec<(f64, f64)>,
        ) -> Result<(), StatsError> {
            pairs.clear();
            for g in groups {
                let per = g.weight / wsum / g.values.len() as f64;
                pairs.extend(g.values.iter().map(|&v| (v, per)));
            }
            if pairs.is_empty() {
                return Err(StatsError::EmptySample);
            }
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(core::cmp::Ordering::Equal));
            Ok(())
        }

        fn weighted_quantile(sorted: &[(f64, f64)], q: f64) -> f64 {
            let mut acc = 0.0;
            for &(v, w) in sorted {
                acc += w;
                if acc >= q - 1e-12 {
                    return v;
                }
            }
            sorted[sorted.len() - 1].0
        }
    }

    /// Every field of `e` as bits, so 0.0 and -0.0 differ.
    fn bits(e: &Result<Estimates, StatsError>) -> Result<Vec<u64>, StatsError> {
        let e = e.as_ref().map_err(Clone::clone)?;
        let cis = [&e.mean, &e.rsd_percent, &e.p50, &e.p90];
        let fields = cis.iter().flat_map(|c| [c.lo, c.hi, c.point, c.level]);
        Ok([e.n as u64]
            .into_iter()
            .chain(fields.map(f64::to_bits))
            .collect())
    }

    #[test]
    fn selection_and_estimates_equal_the_reference_code() {
        let mut cases = StdRng::seed_from_u64(0x5E1EC7);
        for case in 0..300 {
            let pop = match case % 4 {
                0 => cases.gen_range(1..13usize),
                1 => cases.gen_range(1..201usize),
                _ => cases.gen_range(1..5001usize),
            };
            let strata = cases.gen_range(1..11usize);
            let n = match case % 3 {
                0 => pop,
                _ => cases.gen_range(1..pop + 1),
            };
            // Grades from a few repeated levels, a sub-range that leaves
            // strata empty, or a spread beyond [0, 1].
            let levels: Vec<f64> = (0..cases.gen_range(1..5usize))
                .map(|_| cases.gen_range(0.0..1.0))
                .collect();
            let (lo, hi) = [(0.0, 1.0), (0.3, 0.45), (-0.5, 1.5)][case % 3];
            let aux: Vec<f64> = (0..pop)
                .map(|_| match cases.gen_range(0..3usize) {
                    0 => levels[cases.gen_range(0..levels.len())],
                    _ => lo + (hi - lo) * cases.gen_range(0.0..1.0),
                })
                .collect();
            let seed = cases.next_u64();
            let what = format!("case {case}: pop {pop}, n {n}, strata {strata}");

            let mut rng = StdRng::seed_from_u64(seed);
            let expected = oracle::stratified_selection(&mut rng, &aux, n, strata);
            let selected = select(Strategy::Stratified, &aux, n, strata, seed);
            assert_eq!(selected, expected, "{what}");
            let mut new_rng = StdRng::seed_from_u64(seed);
            let mut old_rng = StdRng::seed_from_u64(seed);
            let srs = srs_indices(&mut new_rng, pop, n);
            assert_eq!(srs, oracle::srs_indices(&mut old_rng, pop, n), "{what}");
            assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{what}");

            // Responses on a few levels tie within and across groups;
            // zeros of both signs tie with each other.
            let palette = [-0.0, 0.0, 1.0, 2.5, 2.5, -3.0, 40.0, 41.25];
            let spread = cases.gen_range(1..palette.len() + 1);
            let mut groups: Vec<StratumSample> = expected
                .map(|sel| sel.groups)
                .unwrap_or_default()
                .iter()
                .map(|g| StratumSample {
                    weight: g.weight,
                    values: g
                        .indices
                        .iter()
                        .map(|_| palette[cases.gen_range(0..spread)])
                        .collect(),
                })
                .collect();
            // An empty group is skipped.
            groups.push(StratumSample {
                weight: 0.5,
                values: Vec::new(),
            });
            let resamples = cases.gen_range(1..41usize);
            let est_seed = cases.next_u64();
            assert_eq!(
                bits(&estimate(&groups, 0.9, resamples, est_seed)),
                bits(&oracle::estimate(&groups, 0.9, resamples, est_seed)),
                "{what}, resamples {resamples}"
            );
        }
    }
}
