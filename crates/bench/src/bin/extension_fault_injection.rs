//! **Extension**: fault-injection study — how much ProbReg corruption can
//! Gibbs inference absorb before quality degrades?
//!
//! The paper's introduction grounds the co-design in the "robustness of the
//! algorithm against noise or errors introduced"; §III-B argues "adding
//! some additional error into the system should not significantly influence
//! the sampling result". This harness measures that claim directly by
//! flipping bits in the sampled probability vectors at increasing rates.

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_bench::seeds;
use coopmc_core::experiments::mrf_golden;
use coopmc_core::pipeline::{PgBatch, PipelineConfig, ProbabilityPipeline};
use coopmc_fixed::QFormat;
use coopmc_kernels::faults::{FaultInjector, FaultModel};
use coopmc_models::metrics::normalized_mse;
use coopmc_models::mrf::stereo_matching;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{Sampler, TreeSampler};

/// Run Gibbs with faults injected into every probability vector between PG
/// and SD; returns the converged normalized MSE.
fn run_with_faults(
    model_src: &coopmc_models::mrf::GridMrf,
    golden: &[usize],
    injector: Option<FaultInjector>,
) -> f64 {
    let untrained = model_src.labels();
    let mut model = model_src.clone();
    let pipeline = PipelineConfig::coopmc(64, 8).build();
    let sampler = TreeSampler::new();
    let mut rng = SplitMix64::new(seeds::CHAIN);
    let mut fault_rng = SplitMix64::new(seeds::CHAIN ^ 0xFA17);
    let (mut rows, mut pg, mut probs) = (ScoreRows::new(), PgBatch::new(), Vec::new());
    let mut tail = Vec::new();
    for sweep in 0..30 {
        for var in 0..model.num_variables() {
            rows.clear();
            model.row_into(var, &mut rows);
            pipeline.generate_rows_into(&rows, &mut pg);
            // The ProbReg holds the row's probabilities: the ROM codes'
            // exact images.
            probs.clear();
            probs.extend(pg.weights().images());
            if let Some(inj) = &injector {
                inj.corrupt_vector(&mut probs, &mut fault_rng);
            }
            let label = sampler.sample(&probs, &mut rng).label;
            model.update(var, label);
        }
        if sweep >= 22 {
            tail.push(normalized_mse(&model.labels(), golden, &untrained));
        }
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

fn main() {
    let mut report = Report::new(
        "extension_fault_injection",
        "Fault injection",
        "ProbReg corruption tolerance of Gibbs inference",
    );
    let app = stereo_matching(40, 28, seeds::WORKLOAD);
    let golden = mrf_golden(&app, 60, seeds::GOLDEN);
    let fmt = QFormat::probability(16).expect("valid probability format");

    let mut table = Table::new(&["fault model", "converged NMSE"]);
    let fault_free = run_with_faults(&app.mrf, &golden, None);
    table.row(vec![
        Cell::text("none (reference)"),
        Cell::num(fault_free, 3),
    ]);
    for rate in [1e-4, 1e-3, 1e-2, 1e-1, 0.5] {
        let inj = FaultInjector::new(FaultModel::BitFlip { rate }, fmt);
        let nmse = run_with_faults(&app.mrf, &golden, Some(inj));
        table.row(vec![
            Cell::text(format!("bit-flip rate {rate:>7}")),
            Cell::num(nmse, 3),
        ]);
    }
    for bit in [0u32, 8, 15] {
        let inj = FaultInjector::new(FaultModel::StuckAtOne { bit }, fmt);
        let nmse = run_with_faults(&app.mrf, &golden, Some(inj));
        table.row(vec![
            Cell::text(format!("stuck-at-1 bit {bit}")),
            Cell::num(nmse, 3),
        ]);
    }
    report.push(table);
    report.note(
        "§I / §III-B robustness claim. Expect: low flip rates (<=1e-3) are \
         absorbed with no visible quality loss; high rates and stuck-at \
         faults in significant bits degrade inference — the robustness has \
         a measurable edge, which is what makes the low-precision co-design \
         safe inside it.",
    );
    report.finish();
}
