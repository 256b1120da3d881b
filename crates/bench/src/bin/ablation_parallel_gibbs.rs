//! **Ablation**: CoopMC composed with the PU-step parallelization of prior
//! accelerators (\[15\], \[16\]) — chromatic and Hogwild scheduling.
//!
//! The paper positions its PG/SD optimizations as orthogonal to parallel
//! Parameter Update schemes ("our design can be used in conjunction with
//! the previous hardware approaches"). This harness runs both schedulers
//! with the full CoopMC datapath and reports wall time and solution energy
//! versus the sequential engine.

use std::time::Instant;

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_bench::seeds;
use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::{hogwild_mrf_sweeps, ChromaticEngine};
use coopmc_core::pipeline::{CoopMcPipeline, PipelineConfig};
use coopmc_models::mrf::stereo_matching;
use coopmc_obs::TraceRecorder;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

fn main() {
    let mut report = Report::new(
        "ablation_parallel_gibbs",
        "Ablation",
        "CoopMC datapath under sequential / chromatic / Hogwild PU",
    );
    let app = stereo_matching(96, 64, seeds::WORKLOAD);
    let sweeps = 20u64;
    let mut table = Table::titled(
        &format!("workload: stereo matching 96x64 (6144 variables), {sweeps} sweeps"),
        &["scheduler", "time (ms)", "final energy"],
    );

    // Sequential reference.
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        SplitMix64::new(seeds::CHAIN),
    );
    let t0 = Instant::now();
    engine.run(&mut model, sweeps);
    table.row(vec![
        Cell::text("sequential"),
        Cell::num(t0.elapsed().as_secs_f64() * 1e3, 1),
        Cell::num(model.energy(), 1),
    ]);

    // Each chromatic run records into its own recorder, so its counters and
    // pool gauges describe that pool size alone. The last (8-thread) run's
    // metrics are embedded in the report JSON below.
    let mut metrics = None;
    for threads in [2usize, 4, 8] {
        let recorder = TraceRecorder::new();
        let mut model = app.mrf.clone();
        let engine = ChromaticEngine::with_recorder(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            threads,
            seeds::CHAIN,
            &recorder,
        );
        let t0 = Instant::now();
        engine.run(&mut model, sweeps);
        table.row(vec![
            Cell::text(format!("chromatic x{threads}")),
            Cell::num(t0.elapsed().as_secs_f64() * 1e3, 1),
            Cell::num(model.energy(), 1),
        ]);
        metrics = Some(recorder.metrics());
    }

    for threads in [2usize, 4, 8] {
        let mut model = app.mrf.clone();
        let pipeline = CoopMcPipeline::new(64, 8);
        let t0 = Instant::now();
        hogwild_mrf_sweeps(&mut model, &pipeline, sweeps, threads, seeds::CHAIN);
        table.row(vec![
            Cell::text(format!("hogwild x{threads}")),
            Cell::num(t0.elapsed().as_secs_f64() * 1e3, 1),
            Cell::num(model.energy(), 1),
        ]);
    }
    report.push(table);
    report.attach_metrics(&metrics.expect("three chromatic runs"));
    report.note(
        "§V / [16]: chromatic and Hogwild PU parallelism compose with the \
         CoopMC PG/SD datapath. Expect all schedulers to land in the same \
         energy band, with wall time dropping as threads increase.",
    );
    report.note(
        "the report JSON's metrics are the chromatic x8 run's alone; each \
         chromatic run records into its own TraceRecorder.",
    );
    report.finish();
}
