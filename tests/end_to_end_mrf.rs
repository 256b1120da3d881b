//! End-to-end MRF integration: the Fig. 2 / Fig. 10 claims across crates —
//! model → pipeline → sampler → metrics.

use coopmc::core::experiments::{mrf_converged_nmse, mrf_golden, mrf_trace};
use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::{CoopMcPipeline, PipelineConfig};
use coopmc::models::mrf::{
    image_restoration, image_segmentation, sound_source_separation, stereo_matching, Connectivity,
    GridMrf,
};

/// Fig. 2: at 64 labels, a 4-bit exp kernel without DyNorm cannot converge
/// (the sampler degenerates to uniform choice), while the same kernel with
/// DyNorm matches float32.
#[test]
fn dynorm_rescues_low_precision_restoration() {
    let app = image_restoration(32, 24, 21);
    let golden = mrf_golden(&app, 50, 500);

    let float = mrf_converged_nmse(&app, PipelineConfig::float32(), 25, 9, &golden);
    let fixed4 = mrf_converged_nmse(&app, PipelineConfig::fixed(4), 25, 9, &golden);
    let fixed4_dn = mrf_converged_nmse(&app, PipelineConfig::fixed_dynorm(4), 25, 9, &golden);
    let fixed8_dn = mrf_converged_nmse(&app, PipelineConfig::fixed_dynorm(8), 25, 9, &golden);

    assert!(
        fixed4 > 10.0 * float.max(0.05),
        "4-bit without DyNorm must fail: {fixed4} vs float {float}"
    );
    assert!(
        fixed4_dn < 2.0 * float.max(0.05),
        "4-bit with DyNorm must track float: {fixed4_dn} vs {float}"
    );
    assert!(
        (fixed8_dn - float).abs() < 0.15,
        "8-bit with DyNorm must match float: {fixed8_dn} vs {float}"
    );
}

/// Fig. 7: on stereo matching, the full CoopMC datapath with a modest LUT
/// (size 32, 8-bit) reaches float-level quality.
#[test]
fn coopmc_lut_matches_float_on_stereo() {
    let app = stereo_matching(32, 24, 31);
    let golden = mrf_golden(&app, 50, 501);

    let float = mrf_converged_nmse(&app, PipelineConfig::float32(), 25, 3, &golden);
    let coop = mrf_converged_nmse(&app, PipelineConfig::coopmc(32, 8), 25, 3, &golden);
    let coop_big = mrf_converged_nmse(&app, PipelineConfig::coopmc(1024, 32), 25, 3, &golden);

    assert!(
        (coop - float).abs() < 0.15,
        "lut32x8 {coop} vs float {float}"
    );
    assert!(
        (coop_big - float).abs() < 0.15,
        "lut1024x32 {coop_big} vs float {float}"
    );
}

/// A tiny LUT (size 4) cannot resolve the cost structure and must be
/// measurably worse than the float reference — the left edge of Fig. 7.
#[test]
fn tiny_lut_degrades_quality() {
    let app = stereo_matching(32, 24, 41);
    let golden = mrf_golden(&app, 50, 502);
    let float = mrf_converged_nmse(&app, PipelineConfig::float32(), 25, 5, &golden);
    let tiny = mrf_converged_nmse(&app, PipelineConfig::coopmc(4, 2), 25, 5, &golden);
    assert!(
        tiny > float + 0.05,
        "size-4 LUT should degrade: {tiny} vs {float}"
    );
}

/// Convergence is monotone-ish: the normalized MSE at iteration 20 must be
/// well below iteration 1 for every viable datapath.
#[test]
fn traces_descend_for_viable_datapaths() {
    let app = stereo_matching(24, 24, 51);
    let golden = mrf_golden(&app, 40, 503);
    for config in [
        PipelineConfig::float32(),
        PipelineConfig::fixed_dynorm(8),
        PipelineConfig::coopmc(64, 8),
    ] {
        let trace = mrf_trace(&app, config, 20, 1, &golden);
        let early = trace.samples()[1].1;
        let late = trace.last_value().unwrap();
        assert!(late < early, "{:?}: {early} -> {late}", config);
    }
}

/// `energy()` is every MRF run's per-sweep statistic (early stop, chain
/// health, the benchmark's timed phase), so its bits are pinned: on the
/// initial labels and after 3 chromatic sweeps, for the four MRF
/// applications — restoration with its masked occlusion boxes, 8-connected
/// stereo, segmentation and sound separation.
#[test]
fn mrf_energies_match_their_goldens() {
    let apps: [(&str, GridMrf); 4] = [
        ("restoration", image_restoration(40, 26, 2022).mrf),
        (
            "stereo-8",
            stereo_matching(48, 32, 5)
                .mrf
                .with_connectivity(Connectivity::Eight),
        ),
        ("segmentation", image_segmentation(48, 40, 3).mrf),
        ("sound", sound_source_separation(24, 32, 4).mrf),
    ];
    let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 2, 909);
    let got: Vec<(&str, u64, u64)> = apps
        .into_iter()
        .map(|(name, mut mrf)| {
            let initial = mrf.energy().to_bits();
            engine.run(&mut mrf, 3);
            (name, initial, mrf.energy().to_bits())
        })
        .collect();
    assert_eq!(
        got,
        [
            ("restoration", 0x40c7_6bb6_ce7c_d4a1, 0x40bd_14ac_bf2e_679e),
            ("stereo-8", 0x40c3_ba92_08c5_41c2, 0x40aa_029e_74ea_f2b8),
            ("segmentation", 0x408e_6ee8_5f52_2824, 0x4071_ef95_05bf_1299),
            ("sound", 0x4076_24d9_3160_47b5, 0x406b_30a9_4d9a_e85c),
        ]
    );
}
