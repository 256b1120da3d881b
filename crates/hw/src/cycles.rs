//! Per-stage cycle composition for the PG → SD → PU flow.
//!
//! The model: a compute core processes one random variable at a time.
//! Each stage's cycle count per variable:
//!
//! - **PG** streams the label vector through `pipelines` parallel pipelines
//!   at one label per pipeline per cycle once the pipeline is full, plus the
//!   fill latency of the datapath. A DyNorm datapath is two-phase (all
//!   scores must exist before the max is known), adding the NormTree
//!   reduction and a second streaming pass through the exp kernel.
//! - **SD** is the sampler latency from `coopmc-sampler`.
//! - **PU** writes the label and updates counters, a small constant.
//!
//! The paper's end-to-end numbers come from a core that overlaps stages
//! across consecutive variables where dependencies allow (chromatic /
//! Hogwild-style scheduling relaxes the PU ordering), so the steady-state
//! cost per variable is the *bottleneck* stage ([`CoreTiming::pipelined`]);
//! the non-overlapped latency ([`CoreTiming::sequential`]) is the sum.

use coopmc_kernels::cost::{
    ADD_CYCLES, DIV_CYCLES, EXP_APPROX_CYCLES, LOG_APPROX_CYCLES, LUT_CYCLES, MUL_CYCLES,
    PU_CYCLES, STAGE_REG_CYCLES, THRESHOLD_MUL_CYCLES, TREE_LAYER_CYCLES,
};
use coopmc_sampler::{PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};

use crate::area::SamplerKind;

/// Inter-variable synchronisation overhead of the core's sequencer.
pub const SYNC_CYCLES: u64 = 2;

/// PG datapath timing variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PgTiming {
    /// Baseline 32-bit datapath: per-label adds + β-multiply + the
    /// approximation-based exp, streamed one label/cycle/pipeline after the
    /// fill latency.
    Baseline {
        /// Parallel PG pipelines.
        pipelines: usize,
    },
    /// CoopMC datapath: LogFusion adds + DyNorm (two-phase) + TableExp.
    CoopMc {
        /// Parallel PG pipelines.
        pipelines: usize,
    },
}

impl PgTiming {
    /// Cycles to generate an `n_labels` probability vector, assuming
    /// `factor_ops` additive factor accumulations per label (e.g. data cost
    /// + 4 smooth costs = 5 for a 4-connected MRF).
    pub fn cycles(&self, n_labels: usize, factor_ops: u64) -> u64 {
        match *self {
            PgTiming::Baseline { pipelines } => {
                assert!(pipelines > 0);
                let stream = n_labels.div_ceil(pipelines) as u64;
                // Fill: factor adds, the β multiply, the approx exp.
                let fill = factor_ops * ADD_CYCLES + MUL_CYCLES + EXP_APPROX_CYCLES;
                stream + fill
            }
            PgTiming::CoopMc { pipelines } => {
                assert!(pipelines > 0);
                let stream = n_labels.div_ceil(pipelines) as u64;
                // Phase 1: accumulate log-domain scores (factor adds).
                let fill1 = factor_ops * ADD_CYCLES + LUT_CYCLES;
                // NormTree reduction across the streamed vector.
                let norm = (pipelines.next_power_of_two().trailing_zeros() as u64).max(1) + 1;
                // Phase 2: subtract + TableExp lookup, streamed again.
                let fill2 = ADD_CYCLES + LUT_CYCLES;
                stream + fill1 + norm + stream + fill2
            }
        }
    }
}

/// The per-primitive latencies every closed-form cycle model in this crate
/// is built from, gathered into one introspectable value.
///
/// The static schedule verifier (`coopmc-analyze`'s schedule pass) rebuilds
/// the PG/SD dependence DAGs from this table and checks the closed-form
/// latencies ([`PgTiming::cycles`], the sampler `latency_cycles` formulas)
/// against list-scheduled critical paths — so the table is the single
/// source of truth linking the paper's §III-C latency assumptions to the
/// verified pipeline schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Fixed-point add/subtract (one comparator-or-adder cycle).
    pub add: u64,
    /// 32-bit DSP multiply.
    pub mul: u64,
    /// Pipelined 32-bit divide.
    pub div: u64,
    /// ROM lookup (TableExp / TableLog).
    pub lut: u64,
    /// Approximation-based exp ALU.
    pub exp_approx: u64,
    /// Approximation-based log ALU.
    pub log_approx: u64,
    /// One NormTree / TreeSampler comparator or adder layer.
    pub tree_layer: u64,
    /// The narrow ThresholdGen multiply (total × uniform draw).
    pub threshold_mul: u64,
    /// One pipeline stage register boundary.
    pub stage_reg: u64,
}

impl LatencyTable {
    /// The reference table: the §III-C constants from
    /// [`coopmc_kernels::cost`].
    pub fn reference() -> Self {
        Self {
            add: ADD_CYCLES,
            mul: MUL_CYCLES,
            div: DIV_CYCLES,
            lut: LUT_CYCLES,
            exp_approx: EXP_APPROX_CYCLES,
            log_approx: LOG_APPROX_CYCLES,
            tree_layer: TREE_LAYER_CYCLES,
            threshold_mul: THRESHOLD_MUL_CYCLES,
            stage_reg: STAGE_REG_CYCLES,
        }
    }

    /// All entries as `(name, cycles)` pairs, for reports and diagnostics.
    pub fn entries(&self) -> [(&'static str, u64); 9] {
        [
            ("add", self.add),
            ("mul", self.mul),
            ("div", self.div),
            ("lut", self.lut),
            ("exp-approx", self.exp_approx),
            ("log-approx", self.log_approx),
            ("tree-layer", self.tree_layer),
            ("threshold-mul", self.threshold_mul),
            ("stage-reg", self.stage_reg),
        ]
    }
}

/// Sampler stage timing.
pub fn sd_cycles(kind: SamplerKind, n_labels: usize) -> u64 {
    match kind {
        SamplerKind::Sequential => SequentialSampler::new().latency_cycles(n_labels),
        SamplerKind::Tree => TreeSampler::new().latency_cycles(n_labels),
        SamplerKind::PipeTree => PipeTreeSampler::new().latency_cycles(n_labels),
    }
}

/// Full-core timing for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTiming {
    /// PG stage cycles per variable.
    pub pg: u64,
    /// SD stage cycles per variable.
    pub sd: u64,
    /// PU stage cycles per variable.
    pub pu: u64,
}

impl CoreTiming {
    /// Compose the stage costs for an `n_labels` workload.
    pub fn new(
        pg_timing: PgTiming,
        sampler: SamplerKind,
        n_labels: usize,
        factor_ops: u64,
    ) -> Self {
        Self {
            pg: pg_timing.cycles(n_labels, factor_ops),
            sd: sd_cycles(sampler, n_labels),
            pu: PU_CYCLES,
        }
    }

    /// Non-overlapped cycles per variable (latency through all stages).
    pub fn sequential(&self) -> u64 {
        self.pg + self.sd + self.pu + SYNC_CYCLES
    }

    /// Steady-state cycles per variable when stages overlap across
    /// consecutive variables: the bottleneck stage plus sequencing overhead.
    pub fn pipelined(&self) -> u64 {
        self.pg.max(self.sd).max(self.pu) + SYNC_CYCLES
    }

    /// Fraction of non-overlapped time spent in each stage `(pg, sd, pu)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = (self.pg + self.sd + self.pu) as f64;
        (
            self.pg as f64 / total,
            self.sd as f64 / total,
            self.pu as f64 / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_pg_scales_with_labels_over_pipelines() {
        let t1 = PgTiming::Baseline { pipelines: 1 }.cycles(64, 5);
        let t4 = PgTiming::Baseline { pipelines: 4 }.cycles(64, 5);
        assert_eq!(t1, 64 + 5 + 4 + 8);
        assert_eq!(t4, 16 + 5 + 4 + 8);
    }

    #[test]
    fn coopmc_pg_is_two_phase() {
        let t = PgTiming::CoopMc { pipelines: 1 }.cycles(64, 5);
        // 64 + (5+1) + (log2(1)->1 + 1) + 64 + (1+1)
        assert_eq!(t, 64 + 6 + 2 + 64 + 2);
    }

    #[test]
    fn sd_cycles_match_sampler_crate() {
        assert_eq!(sd_cycles(SamplerKind::Sequential, 64), 129);
        assert_eq!(sd_cycles(SamplerKind::Tree, 64), 15);
        assert_eq!(sd_cycles(SamplerKind::PipeTree, 64), 15);
    }

    #[test]
    fn pipelined_is_bottleneck_bound() {
        let t = CoreTiming {
            pg: 81,
            sd: 129,
            pu: 4,
        };
        assert_eq!(t.pipelined(), 129 + SYNC_CYCLES);
        assert_eq!(t.sequential(), 81 + 129 + 4 + SYNC_CYCLES);
    }

    #[test]
    fn tree_sampler_shifts_bottleneck_to_pg() {
        let base = CoreTiming::new(
            PgTiming::Baseline { pipelines: 1 },
            SamplerKind::Sequential,
            64,
            5,
        );
        let ts = CoreTiming::new(
            PgTiming::Baseline { pipelines: 1 },
            SamplerKind::Tree,
            64,
            5,
        );
        assert!(base.pipelined() > ts.pipelined());
        assert_eq!(ts.pipelined(), ts.pg + SYNC_CYCLES);
    }

    #[test]
    fn fractions_sum_to_one() {
        let t = CoreTiming::new(
            PgTiming::Baseline { pipelines: 2 },
            SamplerKind::Sequential,
            16,
            5,
        );
        let (a, b, c) = t.fractions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
    }
}
