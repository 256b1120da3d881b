//! Integration tests for the extension subsystems: parallel scheduling,
//! ICM, diagnostics, alias sampling and the missing-data (inpainting)
//! path — all exercised through the public facade.

use coopmc::core::anneal::icm_sweep;
use coopmc::core::engine::{GibbsEngine, RunStats};
use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::{CoopMcPipeline, FloatPipeline, PipelineConfig};
use coopmc::models::bn::{cancer, sprinkler};
use coopmc::models::coloring::{verify_coloring, ChromaticModel};
use coopmc::models::diagnostics::{
    effective_sample_size, empirical_distribution, gelman_rubin, total_variation,
};
use coopmc::models::mrf::image_restoration;
use coopmc::models::GibbsModel;
use coopmc::rng::SplitMix64;
use coopmc::sampler::{AliasSampler, Sampler, TreeSampler};

/// The chromatic engine with the CoopMC datapath converges to the same
/// quality as the sequential engine on a 64-label workload with missing
/// data (the hardest MRF configuration in the suite).
#[test]
fn chromatic_coopmc_matches_sequential_on_restoration() {
    let app = image_restoration(32, 24, 99);
    let mut seq = app.mrf.clone();
    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        SplitMix64::new(1),
    );
    engine.run(&mut seq, 25);

    let mut par = app.mrf.clone();
    ChromaticEngine::new(CoopMcPipeline::new(64, 8), 4, 1).run(&mut par, 25);

    let e_seq = seq.energy();
    let e_par = par.energy();
    let rel = (e_seq - e_par).abs() / e_seq.max(1.0);
    assert!(rel < 0.1, "sequential {e_seq} vs chromatic {e_par}");
}

/// BN colorings from the moral graph are valid chromatic partitions for
/// every network in the suite.
#[test]
fn bn_moral_colorings_are_valid() {
    use coopmc::models::bn::{asia, earthquake, survey};
    for net in [asia(), earthquake(), survey(), cancer(), sprinkler()] {
        let classes = net.color_classes();
        // Build the moral adjacency the same way the impl does and verify
        // class validity against it.
        let n = net.num_variables();
        let mut adjacency = vec![std::collections::BTreeSet::new(); n];
        for (i, node) in net.nodes().iter().enumerate() {
            for &p in &node.parents {
                adjacency[i].insert(p);
                adjacency[p].insert(i);
                for &q in &node.parents {
                    if q != p {
                        adjacency[p].insert(q);
                    }
                }
            }
        }
        let adjacency: Vec<Vec<usize>> = adjacency
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        assert!(verify_coloring(&adjacency, &classes));
    }
}

/// ICM through the float pipeline is a strict energy descent that the
/// missing-data path does not break.
#[test]
fn icm_descends_with_missing_data() {
    let mut app = image_restoration(24, 20, 5);
    let pipeline = FloatPipeline::new();
    let e0 = app.mrf.energy();
    let mut sweeps = 0;
    while icm_sweep(&mut app.mrf, &pipeline) > 0 && sweeps < 100 {
        sweeps += 1;
    }
    assert!(app.mrf.energy() < e0);
    assert!(sweeps < 100, "ICM must reach a fixed point");
}

/// Diagnostics flag a deliberately broken chain and pass a healthy one.
#[test]
fn diagnostics_separate_healthy_from_broken_chains() {
    // Healthy: four float chains on the same workload.
    let chain = |seed: u64| {
        let app = image_restoration(16, 12, 3);
        let mut model = app.mrf.clone();
        let mut engine = GibbsEngine::new(
            PipelineConfig::float32().build(),
            TreeSampler::new(),
            SplitMix64::new(seed),
        );
        let mut stats = RunStats::default();
        let mut out = Vec::new();
        for _ in 0..70 {
            engine.sweep(&mut model, &mut stats);
            out.push(model.energy());
        }
        out[20..].to_vec()
    };
    let healthy: Vec<Vec<f64>> = (0..4).map(chain).collect();
    let r_healthy = gelman_rubin(&healthy);
    assert!(r_healthy < 1.3, "healthy R-hat {r_healthy}");
    assert!(effective_sample_size(&healthy[0]) >= 1.0);

    // Broken: chains pinned at different constants (a stuck sampler).
    let broken = vec![vec![1.0; 20], vec![5.0; 20], vec![9.0; 20]];
    assert!(gelman_rubin(&broken).is_infinite());
}

/// The alias sampler is statistically interchangeable with the tree
/// sampler (total variation of empirical distributions is small).
#[test]
fn alias_and_tree_samplers_are_statistically_equal() {
    let probs = [2.0, 1.0, 4.0, 3.0];
    let draws = 30_000;
    let run = |sampler: &dyn Sampler, seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let samples: Vec<usize> = (0..draws)
            .map(|_| sampler.sample(&probs, &mut rng).label)
            .collect();
        empirical_distribution(&samples, 4)
    };
    let tree = run(&TreeSampler::new(), 11);
    let alias = run(&AliasSampler::new(), 12);
    let tv = total_variation(&tree, &alias);
    assert!(tv < 0.02, "samplers must agree: TV {tv}");
}

/// Missing-data restoration actually inpaints: masked pixels end up closer
/// to the clean image than the black observations they started from.
#[test]
fn restoration_inpaints_masked_boxes() {
    let app = image_restoration(40, 30, 77);
    let masked: Vec<usize> = (0..app.mrf.num_variables())
        .filter(|&i| !app.mrf.data_mask()[i])
        .collect();
    assert!(!masked.is_empty(), "workload must contain occlusion boxes");
    let se = |labels: &[usize]| -> f64 {
        masked
            .iter()
            .map(|&i| (labels[i] as f64 - app.clean[i] as f64).powi(2))
            .sum::<f64>()
            / masked.len() as f64
    };
    let initial = se(&app.mrf.labels());
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        SplitMix64::new(8),
    );
    engine.run(&mut model, 80);
    let restored = se(&model.labels());
    assert!(
        restored < initial / 2.0,
        "inpainting must recover masked pixels: {initial} -> {restored}"
    );
}
