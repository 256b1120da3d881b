//! Run *actual inference* on the structural circuits: the netlist-level PG
//! core and TreeSampler drive a real Gibbs chain on a real workload, and
//! the chain behaves exactly like the behavioral engine's.
//!
//! This is the strongest end-to-end statement the reproduction makes: the
//! same labels fall out whether the computation runs through the behavioral
//! models or gate-by-gate through the structural netlists.

use coopmc::kernels::exp::{ExpKernel, TableExp};
use coopmc::models::mrf::image_segmentation;
use coopmc::models::{GibbsModel, LabelScore};
use coopmc::rng::{HwRng, SplitMix64};
use coopmc::sampler::{Sampler, TreeSampler};
use coopmc::sim::circuits::{PgCoreCircuit, TreeSamplerCircuit};

/// One Gibbs sweep where PG runs on the structural core and SD on the
/// structural sampler. Returns the labels chosen.
#[allow(clippy::too_many_arguments)]
fn structural_sweep(
    model: &mut dyn GibbsModel,
    pg: &mut PgCoreCircuit,
    sd: &mut TreeSamplerCircuit,
    rng: &mut SplitMix64,
) {
    let mut scores: Vec<LabelScore> = Vec::new();
    for var in 0..model.num_variables() {
        model.scores_into(var, &mut scores);
        // Pack each label's log-domain score into a single-factor lane.
        let factors: Vec<Vec<f64>> = scores
            .iter()
            .map(|s| match s {
                LabelScore::LogDomain(v) => vec![*v],
                _ => unreachable!("MRF scores are log-domain"),
            })
            .collect();
        let probs = pg.evaluate(&factors);
        let total: f64 = probs.iter().sum();
        let label = if total == 0.0 {
            rng.uniform_index(probs.len())
        } else {
            let t = total * rng.next_f64();
            sd.sample(&probs, t)
        };
        model.update(var, label);
    }
}

/// The behavioral reference for the same chain: identical RNG consumption
/// pattern (one uniform per variable), identical kernels.
fn behavioral_sweep(model: &mut dyn GibbsModel, rng: &mut SplitMix64) {
    let table = TableExp::new(64, 8);
    let sampler = TreeSampler::new();
    let mut scores: Vec<LabelScore> = Vec::new();
    for var in 0..model.num_variables() {
        model.scores_into(var, &mut scores);
        let mut logs: Vec<f64> = scores
            .iter()
            .map(|s| match s {
                LabelScore::LogDomain(v) => *v,
                _ => unreachable!(),
            })
            .collect();
        let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for l in &mut logs {
            *l -= max;
        }
        let probs: Vec<f64> = logs.iter().map(|&x| table.exp(x)).collect();
        let total: f64 = probs.iter().sum();
        let label = if total == 0.0 {
            rng.uniform_index(probs.len())
        } else {
            let t = total * rng.next_f64();
            sampler.sample_with_threshold(&probs, t).label
        };
        model.update(var, label);
    }
}

#[test]
fn structural_and_behavioral_chains_are_bit_identical() {
    let app = image_segmentation(12, 10, 23);

    let mut structural_model = app.mrf.clone();
    let mut pg = PgCoreCircuit::new(2, 1, 64, 8);
    let mut sd = TreeSamplerCircuit::new(2);
    let mut rng_a = SplitMix64::new(55);
    for _ in 0..5 {
        structural_sweep(&mut structural_model, &mut pg, &mut sd, &mut rng_a);
    }

    let mut behavioral_model = app.mrf.clone();
    let mut rng_b = SplitMix64::new(55);
    for _ in 0..5 {
        behavioral_sweep(&mut behavioral_model, &mut rng_b);
    }

    assert_eq!(
        structural_model.labels(),
        behavioral_model.labels(),
        "the gate-level and behavioral chains must be the same chain"
    );
}

#[test]
fn structural_chain_reduces_energy() {
    let app = image_segmentation(12, 10, 29);
    let before = app.mrf.energy();
    let mut model = app.mrf.clone();
    let mut pg = PgCoreCircuit::new(2, 1, 64, 8);
    let mut sd = TreeSamplerCircuit::new(2);
    let mut rng = SplitMix64::new(3);
    for _ in 0..8 {
        structural_sweep(&mut model, &mut pg, &mut sd, &mut rng);
    }
    assert!(model.energy() < before, "{before} -> {}", model.energy());
}
