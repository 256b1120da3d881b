//! Render the image-restoration workload end to end: writes the corrupted
//! input, the CoopMC restoration and the float32 restoration as PGM images
//! you can open in any viewer, plus an annealed MAP variant.
//!
//! Run with: `cargo run --release --example denoise_to_image`
//! Outputs: `target/denoise_*.pgm`

use std::fs;
use std::io::Write as _;

use coopmc::core::anneal::{anneal_mrf, AnnealingSchedule};
use coopmc::core::engine::GibbsEngine;
use coopmc::core::pipeline::PipelineConfig;
use coopmc::models::metrics::mse;
use coopmc::models::mrf::{image_restoration, GridMrf};
use coopmc::models::GibbsModel;
use coopmc::rng::SplitMix64;
use coopmc::sampler::TreeSampler;

/// Write a label field as a binary PGM (levels scaled to 0..=255).
fn write_pgm(path: &str, labels: &[usize], width: usize, height: usize, n_labels: usize) {
    let mut buf = format!("P5\n{width} {height}\n255\n").into_bytes();
    buf.extend(labels.iter().map(|&l| (l * 255 / (n_labels - 1)) as u8));
    fs::File::create(path)
        .and_then(|mut f| f.write_all(&buf))
        .expect("failed to write PGM");
}

fn restore(mrf: &GridMrf, config: PipelineConfig, sweeps: u64) -> Vec<usize> {
    let mut model = mrf.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(7));
    engine.run(&mut model, sweeps);
    model.labels()
}

fn main() {
    let (w, h, n_labels) = (96, 64, 64);
    let app = image_restoration(w, h, 2024);
    fs::create_dir_all("target").expect("target dir");

    write_pgm("target/denoise_clean.pgm", &app.clean, w, h, n_labels);
    write_pgm(
        "target/denoise_noisy.pgm",
        &app.mrf.labels(),
        w,
        h,
        n_labels,
    );

    println!("{:<26} {:>14}", "variant", "MSE vs clean");
    println!(
        "{:<26} {:>14.1}",
        "corrupted input",
        mse(&app.mrf.labels(), &app.clean)
    );

    let float = restore(&app.mrf, PipelineConfig::float32(), 120);
    write_pgm("target/denoise_float32.pgm", &float, w, h, n_labels);
    println!("{:<26} {:>14.1}", "float32 Gibbs", mse(&float, &app.clean));

    let coop = restore(&app.mrf, PipelineConfig::coopmc(64, 8), 120);
    write_pgm("target/denoise_coopmc.pgm", &coop, w, h, n_labels);
    println!(
        "{:<26} {:>14.1}",
        "CoopMC 64x8 Gibbs",
        mse(&coop, &app.clean)
    );

    // Annealed MAP: sharper restoration of the piecewise-smooth scene.
    let mut annealed = app.mrf.clone();
    let schedule = AnnealingSchedule {
        beta0: 0.2,
        rate: 1.08,
        beta_max: 3.0,
    };
    let energy = anneal_mrf(
        &mut annealed,
        PipelineConfig::coopmc(64, 8).build(),
        schedule,
        120,
        SplitMix64::new(7),
    );
    write_pgm(
        "target/denoise_annealed.pgm",
        &annealed.labels(),
        w,
        h,
        n_labels,
    );
    println!(
        "{:<26} {:>14.1}   (final energy {energy:.0})",
        "CoopMC annealed MAP",
        mse(&annealed.labels(), &app.clean)
    );

    println!("\nwrote target/denoise_{{clean,noisy,float32,coopmc,annealed}}.pgm");
}
