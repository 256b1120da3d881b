//! Activity-based relative power model.
//!
//! In the overlapped (steady-state) engine every stage processes a variable
//! every cycle, so dynamic power is proportional to the *activity-weighted
//! area* of the switching logic. Activity factors are first-order
//! assumptions, documented here and calibrated once against the Table IV
//! power column:
//!
//! | Class              | α    | Rationale                                  |
//! |--------------------|------|--------------------------------------------|
//! | ALU logic          | 1.00 | switches every cycle in steady state       |
//! | ROM (LUT kernels)  | 0.30 | read energy ≪ arithmetic switching         |
//! | Registers          | 0.20 | mostly holding state; sparse writes        |
//! | Common/control     | 0.50 | sequencing + clock distribution            |
//! | Tree sampler logic | 0.70 | traverse half idles while TreeSum settles  |

/// Activity factor for combinational ALU logic.
pub const ALPHA_ALU: f64 = 1.0;
/// Activity factor for ROM lookups.
pub const ALPHA_ROM: f64 = 0.3;
/// Activity factor for register files.
pub const ALPHA_REG: f64 = 0.2;
/// Activity factor for common control and clocking.
pub const ALPHA_COMMON: f64 = 0.5;
/// Activity factor for tree-sampler logic (TreeSum + TraverseTree).
pub const ALPHA_TREE: f64 = 0.7;

/// A power contribution: activity-weighted area in arbitrary units
/// (µm²-equivalents); ratios are what the model reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerEstimate {
    /// Activity-weighted area total.
    pub weighted_area: f64,
}

impl PowerEstimate {
    /// Start an empty estimate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a block of `area` µm² switching with activity `alpha`.
    pub fn add(&mut self, area_um2: f64, alpha: f64) -> &mut Self {
        assert!(
            area_um2 >= 0.0 && (0.0..=1.0).contains(&alpha),
            "invalid power inputs"
        );
        self.weighted_area += area_um2 * alpha;
        self
    }

    /// Power of `self` relative to `baseline` (1.0 = equal).
    pub fn relative_to(&self, baseline: &PowerEstimate) -> f64 {
        assert!(
            baseline.weighted_area > 0.0,
            "baseline power must be positive"
        );
        self.weighted_area / baseline.weighted_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_power_is_ratio_of_weighted_areas() {
        let mut a = PowerEstimate::new();
        a.add(1000.0, 1.0);
        let mut b = PowerEstimate::new();
        b.add(500.0, 1.0).add(1000.0, 0.5);
        assert_eq!(b.relative_to(&a), 1.0);
    }

    #[test]
    fn rom_contributes_less_than_alu_per_area() {
        let mut rom = PowerEstimate::new();
        rom.add(100.0, ALPHA_ROM);
        let mut alu = PowerEstimate::new();
        alu.add(100.0, ALPHA_ALU);
        assert!(rom.weighted_area < alu.weighted_area);
    }

    #[test]
    #[should_panic(expected = "invalid power inputs")]
    fn activity_above_one_panics() {
        PowerEstimate::new().add(1.0, 1.5);
    }
}
