//! Modeled parallel-PG-unit (batched) datapath configuration.
//!
//! The chromatic engine's batch stride (up to `DEFAULT_BATCH_ROWS` rows
//! per `generate_rows_into` call) models an accelerator that replicates
//! the PG datapath into `pg_units` independent units, each evaluating one
//! variable's label vector per issue slot. A color-class stride of `rows`
//! same-shape variables then costs `ceil(rows / pg_units)` back-to-back
//! unit passes plus one class-barrier synchronisation — the closed form
//! the schedule verifier in `coopmc-analyze` re-derives from a dependence
//! DAG. Cycles per class shrink by up to `pg_units`× minus the amortized
//! barrier.

use crate::cycles::{PgTiming, SYNC_CYCLES};

/// A bank of `pg_units` replicated PG datapaths evaluating one color
/// class in strides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgUnitConfig {
    /// Timing variant of each replicated unit.
    pub timing: PgTiming,
    /// Number of parallel PG units (the batch width the hardware can
    /// retire per pass). The software batch stride maps 1:1 onto this.
    pub pg_units: u64,
    /// Labels per variable in the modeled workload.
    pub n_labels: usize,
    /// Additive factor accumulations per label (workload shape).
    pub factor_ops: u64,
}

impl PgUnitConfig {
    /// Cycles for one unit to evaluate one variable's label vector.
    pub fn per_call_cycles(&self) -> u64 {
        self.timing.cycles(self.n_labels, self.factor_ops)
    }

    /// Cycles to evaluate a `rows`-variable stride: `ceil(rows/units)`
    /// serialized unit passes plus the class-barrier synchronisation.
    ///
    /// # Panics
    ///
    /// Panics if `pg_units == 0`.
    pub fn class_cycles(&self, rows: u64) -> u64 {
        assert!(self.pg_units > 0, "need at least one PG unit");
        if rows == 0 {
            return 0;
        }
        rows.div_ceil(self.pg_units) * self.per_call_cycles() + SYNC_CYCLES
    }

    /// Cycle-count speedup of this bank over a single unit evaluating the
    /// same `rows` serially (with the same single barrier). Saturates at
    /// `pg_units` for full strides and degrades on ragged tails.
    pub fn speedup(&self, rows: u64) -> f64 {
        if rows == 0 {
            return 1.0;
        }
        let single = rows * self.per_call_cycles() + SYNC_CYCLES;
        single as f64 / self.class_cycles(rows) as f64
    }

    /// Fraction of unit-issue slots doing useful work over the stride:
    /// `rows / (passes × units)`. 1.0 when `rows % pg_units == 0`.
    pub fn utilization(&self, rows: u64) -> f64 {
        if rows == 0 {
            return 1.0;
        }
        let slots = rows.div_ceil(self.pg_units) * self.pg_units;
        rows as f64 / slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(units: u64) -> PgUnitConfig {
        PgUnitConfig {
            timing: PgTiming::CoopMc { pipelines: 8 },
            pg_units: units,
            n_labels: 8,
            factor_ops: 5,
        }
    }

    #[test]
    fn one_unit_matches_serial_evaluation() {
        let b = bank(1);
        assert_eq!(b.class_cycles(13), 13 * b.per_call_cycles() + SYNC_CYCLES);
        assert!((b.speedup(13) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_strides_divide_cycles_by_the_unit_count() {
        let b = bank(8);
        assert_eq!(b.class_cycles(64), 8 * b.per_call_cycles() + SYNC_CYCLES);
        assert!((b.utilization(64) - 1.0).abs() < 1e-12);
        // The barrier keeps speedup strictly below 8, but amortization
        // brings it arbitrarily close for long classes.
        assert!(b.speedup(64) > 7.5 && b.speedup(64) < 8.0);
    }

    #[test]
    fn ragged_tails_round_up_to_a_whole_pass() {
        let b = bank(8);
        assert_eq!(b.class_cycles(9), 2 * b.per_call_cycles() + SYNC_CYCLES);
        assert!((b.utilization(9) - 9.0 / 16.0).abs() < 1e-12);
        assert!(b.speedup(9) < b.speedup(16));
    }

    #[test]
    fn empty_strides_are_free() {
        let b = bank(4);
        assert_eq!(b.class_cycles(0), 0);
        assert_eq!(b.speedup(0), 1.0);
        assert_eq!(b.utilization(0), 1.0);
    }

    #[test]
    fn table_iii_style_ratios_extend_to_the_vector_datapath() {
        // Doubling the units at most doubles throughput (cycles halve for
        // full strides).
        let one = bank(4);
        let two = bank(8);
        let rows = 64;
        let ratio = one.class_cycles(rows) as f64 / two.class_cycles(rows) as f64;
        assert!(ratio > 1.9 && ratio <= 2.0, "cycle ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one PG unit")]
    fn zero_units_panics() {
        bank(0).class_cycles(8);
    }
}
