//! **Ablation**: saturating versus wrapping accumulator arithmetic in the
//! log-domain PG datapath.
//!
//! The CoopMC datapaths saturate on overflow. The cheaper alternative — a
//! plain two's-complement adder that wraps — silently *inverts* the
//! ordering of overflowing scores, which is fatal for a sampler that only
//! cares about relative probabilities. This harness runs the same MRF
//! inference with both accumulator behaviours on a deliberately narrow
//! accumulator and reports converged quality.

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_bench::seeds;
use coopmc_core::experiments::mrf_golden;
use coopmc_core::pipeline::{PgBatch, ProbabilityPipeline};
use coopmc_fixed::{Fixed, QFormat, Rounding};
use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::{ExpKernel, TableExp};
use coopmc_models::metrics::normalized_mse;
use coopmc_models::mrf::image_restoration;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{Sampler, TreeSampler};

/// A PG pipeline with a configurable-overflow accumulator: quantizes the
/// incoming log-domain score onto a narrow grid with either saturating or
/// wrapping semantics, then DyNorm + TableExp.
struct NarrowAccPipeline {
    fmt: QFormat,
    wrap: bool,
    table: TableExp,
}

impl NarrowAccPipeline {
    fn new(int_bits: u32, frac_bits: u32, wrap: bool) -> Self {
        Self {
            fmt: QFormat::new(int_bits, frac_bits).expect("valid accumulator format"),
            wrap,
            table: TableExp::new(64, 8),
        }
    }
}

impl NarrowAccPipeline {
    /// One log-domain score on the narrow accumulator.
    fn accumulate(&self, v: f64) -> f64 {
        if self.wrap {
            // Model the wrapped accumulation: quantize at full width, then
            // discard the high bits two's-complement style (what a narrow
            // adder without saturation logic leaves in its register).
            let wide = Fixed::from_f64(
                v,
                QFormat::new(15, self.fmt.frac_bits()).unwrap(),
                Rounding::Nearest,
            );
            let width = self.fmt.total_bits();
            let modulus = 1i64 << width;
            let mut raw = wide.raw().rem_euclid(modulus);
            if raw >= modulus / 2 {
                raw -= modulus;
            }
            raw as f64 * self.fmt.resolution()
        } else {
            Fixed::from_f64(v, self.fmt, Rounding::Nearest).to_f64()
        }
    }
}

impl ProbabilityPipeline for NarrowAccPipeline {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        out.clear();
        let logs = rows.logs().expect("the ablation runs log-domain MRF rows");
        for row in logs.chunks_exact(rows.width().max(1)) {
            let mut log_scores: Vec<f64> = row.iter().map(|&v| self.accumulate(v)).collect();
            dynorm_apply(&mut log_scores, 1);
            out.probs
                .extend(log_scores.iter().map(|&s| self.table.exp(s)));
            out.ops.push(OpCounts::new());
        }
    }

    fn name(&self) -> String {
        format!("narrow-{}", if self.wrap { "wrap" } else { "saturate" })
    }
}

fn run(
    pipeline: &dyn ProbabilityPipeline,
    app: &coopmc_models::mrf::MrfApp,
    golden: &[usize],
) -> f64 {
    let untrained = app.mrf.labels();
    let mut model = app.mrf.clone();
    let sampler = TreeSampler::new();
    let mut rng = SplitMix64::new(seeds::CHAIN);
    let (mut rows, mut pg) = (ScoreRows::new(), PgBatch::new());
    let mut tail = Vec::new();
    for sweep in 0..25 {
        for var in 0..model.num_variables() {
            rows.clear();
            model.row_into(var, &mut rows);
            pipeline.generate_rows_into(&rows, &mut pg);
            let label = sampler.sample(&pg.probs, &mut rng).label;
            model.update(var, label);
        }
        if sweep >= 18 {
            tail.push(normalized_mse(&model.labels(), golden, &untrained));
        }
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn main() {
    let mut report = Report::new(
        "ablation_saturation",
        "Ablation",
        "saturating vs wrapping accumulator on 64-label restoration",
    );
    let app = image_restoration(32, 24, seeds::WORKLOAD);
    let golden = mrf_golden(&app, 60, seeds::GOLDEN);

    let mut table = Table::new(&["accumulator", "converged NMSE"]);
    // Restoration scores reach ~ -beta * (16 + 4*8*1.5) ≈ -32: a Q6.4
    // accumulator holds them, Q4.4 wraps once, Q3.4 wraps repeatedly.
    for (int_bits, label) in [
        (6u32, "Q6.4 (headroom)"),
        (4, "Q4.4 (single wrap)"),
        (3, "Q3.4 (multiple wraps)"),
    ] {
        for wrap in [false, true] {
            let p = NarrowAccPipeline::new(int_bits, 4, wrap);
            let nmse = run(&p, &app, &golden);
            table.row(vec![
                Cell::text(format!(
                    "{label} {}",
                    if wrap { "wrap" } else { "saturate" }
                )),
                Cell::num(nmse, 3),
            ]);
        }
    }
    report.push(table);
    report.note(
        "Design-choice ablation (DESIGN.md §4): with headroom the two are \
         identical. Under overflow, saturation degrades *predictably* \
         (overflowing labels tie at the clip value); wraparound is \
         *erratic* — its aliased score ordering can happen to work on one \
         configuration and scramble another (see the kernel-level \
         ordering-inversion unit test in coopmc-fixed). Predictability \
         under overflow is why probability datapaths saturate.",
    );
    report.finish();
}
