//! A demand-driven DVFS governor beyond the paper's two modes.
//!
//! The paper measures with the governor pinned (UNCONSTRAINED = always-max,
//! FIXED-FREQUENCY = pinned low). Real phones run demand-driven governors,
//! and process variation is visible under them too — a leaky die throttles
//! even when `ondemand` would otherwise have kept it at max. [`Ondemand`]
//! produces a *target* frequency each tick; feed it to
//! [`FrequencyMode::Fixed`](crate::device::FrequencyMode::Fixed) (the device
//! snaps to the ladder and still applies thermal caps on top, exactly like
//! cpufreq sitting below the thermal engine).

use crate::SocError;
use core::fmt;
use pv_silicon::binning::VfTable;
use pv_units::MegaHertz;

/// Linux-`ondemand`-style governor: jump to maximum when utilisation
/// crosses the up-threshold, otherwise scale frequency proportionally to
/// the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ondemand {
    up_threshold: f64,
    current: MegaHertz,
}

impl Ondemand {
    /// Creates an `ondemand` governor starting from `initial` with the
    /// given up-threshold (Linux default: 0.80).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] unless `0 < up_threshold <= 1`.
    pub fn new(up_threshold: f64, initial: MegaHertz) -> Result<Self, SocError> {
        if !(up_threshold > 0.0 && up_threshold <= 1.0) {
            return Err(SocError::InvalidSpec("up_threshold not in (0,1]"));
        }
        Ok(Self {
            up_threshold,
            current: initial,
        })
    }

    /// Next target frequency given the cluster's ladder and the utilisation
    /// observed over the last sampling period.
    pub fn target(&mut self, table: &VfTable, util: f64) -> MegaHertz {
        let util = util.clamp(0.0, 1.0);
        let target = if util >= self.up_threshold {
            table.max_freq()
        } else {
            // Scale so the next period would run at ~up_threshold load.
            let wanted = self.current.value() * util / self.up_threshold;
            table
                .highest_freq_at_or_below(MegaHertz(wanted))
                .unwrap_or_else(|| table.min_freq())
        };
        self.current = target;
        target
    }
}

impl fmt::Display for Ondemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ondemand(up={:.0}%, at {:.0})",
            self.up_threshold * 100.0,
            self.current
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_silicon::binning::{nexus5, BinId};

    fn ladder() -> VfTable {
        nexus5::reference_table(BinId(0)).unwrap()
    }

    #[test]
    fn ondemand_jumps_to_max_on_high_load() {
        let t = ladder();
        let mut g = Ondemand::new(0.8, t.min_freq()).unwrap();
        assert_eq!(g.target(&t, 1.0), MegaHertz(2265.0));
        assert_eq!(g.current, MegaHertz(2265.0));
    }

    #[test]
    fn ondemand_scales_down_proportionally() {
        let t = ladder();
        let mut g = Ondemand::new(0.8, t.max_freq()).unwrap();
        // 20% load from 2265 → wants 2265·0.2/0.8 ≈ 566 → snaps to 300.
        assert_eq!(g.target(&t, 0.2), MegaHertz(300.0));
        // Fully idle pins the floor.
        assert_eq!(g.target(&t, 0.0), MegaHertz(300.0));
    }

    #[test]
    fn ondemand_settles_at_a_sustainable_step() {
        let t = ladder();
        let mut g = Ondemand::new(0.8, t.max_freq()).unwrap();
        // Constant 60% load: first step down, then stable.
        let mut f = MegaHertz(0.0);
        for _ in 0..10 {
            f = g.target(&t, 0.6);
        }
        assert!(f >= t.min_freq() && f < t.max_freq());
        let settled = g.target(&t, 0.6);
        // May oscillate between adjacent steps at worst; never jumps to max.
        assert!(settled < t.max_freq());
    }

    #[test]
    fn validation() {
        let f = MegaHertz(300.0);
        assert!(Ondemand::new(0.0, f).is_err());
        assert!(Ondemand::new(1.5, f).is_err());
    }

    #[test]
    fn displays() {
        let t = ladder();
        let mut g = Ondemand::new(0.8, t.min_freq()).unwrap();
        g.target(&t, 1.0);
        assert!(format!("{g}").contains("ondemand"));
    }

    #[test]
    fn governor_driven_device_runs_cooler_at_partial_load() {
        // Integration: a device driven by ondemand at 50% load stays cooler
        // than one pinned at max with the same load.
        use crate::catalog;
        use crate::device::{CpuDemand, FrequencyMode};
        use pv_units::Seconds;

        let mut pinned = catalog::nexus5(BinId(2)).unwrap();
        let mut governed = catalog::nexus5(BinId(2)).unwrap();
        let table = governed.tables()[0].clone();
        let mut gov = Ondemand::new(0.8, table.min_freq()).unwrap();
        for _ in 0..1200 {
            pinned
                .step(
                    Seconds(0.1),
                    CpuDemand::Busy { util: 0.5 },
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            let target = gov.target(&table, 0.5);
            governed
                .step(
                    Seconds(0.1),
                    CpuDemand::Busy { util: 0.5 },
                    FrequencyMode::Fixed(target),
                )
                .unwrap();
        }
        assert!(
            governed.die_temp() < pinned.die_temp(),
            "governed {} vs pinned {}",
            governed.die_temp(),
            pinned.die_temp()
        );
    }
}
