//! Per-operation latency constants for the datapath cycle models.
//!
//! These are the latencies the paper uses in its §III-C argument ("Using a
//! single DSP unit, a 32-bit multiplication needs four cycles, but only 1
//! cycle for 32-bit addition. Even accounting for log and exp conversions
//! (2 cycles), log-domain computation is still faster.") plus documented
//! assumptions for the components the paper does not quote directly.

/// Latency of a fixed-point addition or subtraction (paper §III-C).
pub const ADD_CYCLES: u64 = 1;

/// Latency of a 32-bit fixed-point multiplication on a DSP-style datapath
/// (paper §III-C: "a 32-bit multiplication needs four cycles").
pub const MUL_CYCLES: u64 = 4;

/// Latency of the pipelined 32-bit divider baseline.
///
/// Assumption: a radix-4 SRT divider resolving 2 quotient bits/cycle over a
/// 32-bit quotient. The paper only reports the divider's *area* (Table III);
/// this latency choice is recorded in `DESIGN.md` and only affects the
/// baseline (non-LogFusion) datapath.
pub const DIV_CYCLES: u64 = 16;

/// Latency of one read-only-memory lookup (TableExp / TableLog).
pub const LUT_CYCLES: u64 = 1;

/// Latency of the approximation-based exponential ALU of previous
/// accelerators.
///
/// Assumption: range reduction + degree-4 polynomial evaluated with two
/// pipelined multiply stages (2 × [`MUL_CYCLES`]). Consistent with the
/// paper's "(2 cycles)" for a log+exp *conversion pair* applying to the LUT
/// variants, with the approximation-based ALU being the slow/expensive one
/// that TableExp replaces.
pub const EXP_APPROX_CYCLES: u64 = 8;

/// Latency of the approximation-based logarithm ALU (same structure as the
/// approximation-based exp).
pub const LOG_APPROX_CYCLES: u64 = 8;

/// Latency of one comparator layer in NormTree / one tree layer in
/// TreeSampler.
pub const TREE_LAYER_CYCLES: u64 = 1;

/// Cycles for the bare ThresholdGen multiply (total-sum × uniform draw).
///
/// The uniform draw is a narrow PRNG word, so the threshold product is a
/// single-cycle narrow multiply, not a full [`MUL_CYCLES`] DSP multiply.
/// The *sequential* sampler consumes the product combinationally in its
/// scan FSM (its `2N + 1` latency contains exactly this one cycle); the
/// tree samplers latch it into a pipeline stage register first, which is
/// where [`THRESHOLD_GEN_CYCLES`]'s second cycle comes from.
pub const THRESHOLD_MUL_CYCLES: u64 = 1;

/// Cycles for one pipeline stage register boundary (a plain flop stage).
pub const STAGE_REG_CYCLES: u64 = 1;

/// Cycles for the ThresholdGen unit of the tree samplers: the narrow
/// multiply plus the stage register that launches the TraverseTree walk.
pub const THRESHOLD_GEN_CYCLES: u64 = THRESHOLD_MUL_CYCLES + STAGE_REG_CYCLES;

/// Cycles for the Parameter Update stage: write the label, update the
/// neighbour/count bookkeeping. The engine's run statistics and the
/// hardware model both price PU with this one constant.
pub const PU_CYCLES: u64 = 4;

/// An additive tally of datapath operations, used by the instrumented
/// pipelines to report how many of each primitive they executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions and subtractions.
    pub add: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// LUT lookups (TableExp + TableLog).
    pub lut: u64,
    /// Approximation-based exp/log ALU invocations.
    pub approx: u64,
    /// Comparator operations (NormTree, samplers).
    pub cmp: u64,
}

impl OpCounts {
    /// No operations.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tally's cycles per fused-PG stage, `[normalize, dynorm, exp]`:
    /// accumulator add/mul/div, NormTree comparators, and TableExp/TableLog
    /// lookups plus approximation-ALU calls.
    pub fn stage_cycles(&self) -> [u64; 3] {
        [
            self.add * ADD_CYCLES + self.mul * MUL_CYCLES + self.div * DIV_CYCLES,
            self.cmp * TREE_LAYER_CYCLES,
            self.lut * LUT_CYCLES + self.approx * EXP_APPROX_CYCLES,
        ]
    }

    /// Total latency in cycles if every operation executed sequentially on a
    /// single shared ALU of each kind (the worst-case, used for the
    /// software-model sanity checks; the hw crate models real pipelining):
    /// the sum of [`OpCounts::stage_cycles`].
    pub fn sequential_cycles(&self) -> u64 {
        self.stage_cycles().iter().sum()
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        self.add += other.add;
        self.mul += other.mul;
        self.div += other.div;
        self.lut += other.lut;
        self.approx += other.approx;
        self.cmp += other.cmp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_cycles_weights_ops() {
        let c = OpCounts {
            add: 2,
            mul: 1,
            div: 0,
            lut: 3,
            approx: 0,
            cmp: 0,
        };
        assert_eq!(
            c.sequential_cycles(),
            2 * ADD_CYCLES + MUL_CYCLES + 3 * LUT_CYCLES
        );
    }

    #[test]
    fn stage_cycles_split_the_tally_by_pg_stage() {
        let c = OpCounts {
            add: 3,
            mul: 2,
            div: 1,
            lut: 5,
            approx: 4,
            cmp: 7,
        };
        assert_eq!(
            c.stage_cycles(),
            [
                3 * ADD_CYCLES + 2 * MUL_CYCLES + DIV_CYCLES,
                7 * TREE_LAYER_CYCLES,
                5 * LUT_CYCLES + 4 * EXP_APPROX_CYCLES,
            ]
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OpCounts {
            add: 1,
            ..OpCounts::new()
        };
        let b = OpCounts {
            add: 2,
            mul: 5,
            ..OpCounts::new()
        };
        a.merge(&b);
        assert_eq!(a.add, 3);
        assert_eq!(a.mul, 5);
    }

    #[test]
    fn log_domain_beats_direct_for_mult_sequences() {
        // The §III-C argument: n multiplications cost 4n cycles directly,
        // but n additions + 2 conversion cycles in the log domain.
        for n in 2..20u64 {
            let direct = n * MUL_CYCLES;
            let fused = n * ADD_CYCLES + 2 * LUT_CYCLES;
            assert!(fused < direct, "log domain must win for n = {n}");
        }
    }
}
