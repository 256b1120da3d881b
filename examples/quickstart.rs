//! Quickstart: the three-step CoopMC flow on a small image-segmentation
//! MRF, comparing a float32 datapath with the full CoopMC datapath
//! (DyNorm + TableExp + LogFusion) and the TreeSampler.
//!
//! Run with: `cargo run --release --example quickstart`

use coopmc::core::engine::GibbsEngine;
use coopmc::core::experiments::{mrf_converged_nmse, mrf_golden};
use coopmc::core::pipeline::PipelineConfig;
use coopmc::models::mrf::image_segmentation;
use coopmc::obs::journal::phase_percent;
use coopmc::obs::TraceRecorder;
use coopmc::rng::SplitMix64;
use coopmc::sampler::{Sampler, TreeSampler};

fn main() {
    // 1. Build a workload: a 48x32 foreground/background segmentation MRF.
    let app = image_segmentation(48, 32, 42);
    println!(
        "workload: {} ({} variables, {} labels)",
        app.name,
        48 * 32,
        2
    );

    // 2. Produce the golden reference with the vanilla float algorithm.
    let golden = mrf_golden(&app, 60, 999);

    // 3. Run the same inference on three datapaths and compare quality.
    println!("\n{:<22} {:>16}", "datapath", "normalized MSE");
    for config in [
        PipelineConfig::float32(),
        PipelineConfig::fixed(8),        // plain 8-bit fixed point: degrades
        PipelineConfig::fixed_dynorm(8), // DyNorm rescues it
        PipelineConfig::coopmc(64, 8),   // full CoopMC: LUT-based kernels
    ] {
        let nmse = mrf_converged_nmse(&app, config, 30, 7, &golden);
        println!("{:<22} {:>16.4}", config.build().name(), nmse);
    }

    // 4. Peek under the hood: a journaling recorder times PG/SD/PU.
    let mut model = app.mrf.clone();
    let journal = TraceRecorder::new();
    let mut engine = GibbsEngine::with_recorder(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        SplitMix64::new(1),
        &journal,
    );
    engine.run(&mut model, 10);
    let (pg, sd, pu) = phase_percent(&journal.sweeps()).expect("journaled sweeps");
    println!("\nruntime breakdown over 10 sweeps: PG {pg:.1}%  SD {sd:.1}%  PU {pu:.1}%");
    println!(
        "sampler latency: {} cycles per 2-label draw (tree) vs {} (sequential)",
        TreeSampler::new().latency_cycles(2),
        coopmc::sampler::SequentialSampler::new().latency_cycles(2),
    );
}
