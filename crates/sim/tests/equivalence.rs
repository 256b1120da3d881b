//! Property-based equivalence: the structural circuits compute exactly what
//! the behavioral models compute, for any input (deterministic generator
//! harness from `coopmc-testkit`).

use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::{ExpKernel, TableExp};
use coopmc_sampler::{Sampler, SequentialSampler, TreeSampler, Weights};
use coopmc_sim::circuits::{NormTreeCircuit, PgCoreCircuit, TreeSamplerCircuit};
use coopmc_testkit::check;

#[test]
fn tree_sampler_circuit_equivalence() {
    check("tree_sampler_circuit_equivalence", 256, |g| {
        let probs = g.vec_f64(2, 40, 0.0, 8.0);
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            return;
        }
        let t = g.f64_in(0.0, 0.9999) * total;
        let mut circuit = TreeSamplerCircuit::new(probs.len());
        let structural = circuit.sample(&probs, t);
        let tree = TreeSampler::new().sample_with_threshold(&probs, t).label;
        let seq = SequentialSampler::new()
            .sample_with_threshold(&probs, t)
            .label;
        assert_eq!(structural, tree);
        assert_eq!(structural, seq);
    });
}

#[test]
fn pg_core_circuit_equivalence() {
    check("pg_core_circuit_equivalence", 128, |g| {
        let lanes = 1usize << g.u32_in(1, 4);
        let factors: Vec<Vec<f64>> = (0..lanes)
            .map(|_| (0..3).map(|_| g.f64_in(-8.0, 0.0)).collect())
            .collect();
        let size = 1usize << g.u32_in(3, 8);
        let bits = g.u32_in(2, 17);
        let mut core = PgCoreCircuit::new(lanes, 3, size, bits);
        let structural = core.evaluate(&factors);
        let mut scores: Vec<f64> = factors.iter().map(|f| f.iter().sum()).collect();
        dynorm_apply(&mut scores, lanes);
        let table = TableExp::new(size, bits);
        let behavioral: Vec<f64> = scores.iter().map(|&s| table.exp(s)).collect();
        assert_eq!(structural, behavioral);
    });
}

#[test]
fn normtree_streaming_equivalence() {
    check("normtree_streaming_equivalence", 128, |g| {
        let width = 1usize << g.u32_in(1, 5);
        let n_vectors = g.usize_in(3, 10);
        let vectors: Vec<Vec<f64>> = (0..n_vectors)
            .map(|_| g.vec_f64(width, width + 1, -100.0, 100.0))
            .collect();
        let mut circuit = NormTreeCircuit::new(width);
        let depth = circuit.depth();
        let mut outputs = Vec::new();
        for v in &vectors {
            outputs.push(circuit.step(v));
        }
        // flush the pipeline
        for _ in 0..depth {
            outputs.push(circuit.step(&vec![f64::MIN; width]));
        }
        for (k, v) in vectors.iter().enumerate() {
            let want = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let got = outputs[k + depth - 1];
            assert_eq!(got, want, "vector {k} mismatched");
        }
    });
}

/// The structural TreeSampler's adder census equals the count the hw area
/// model charges for TreeSum, across sizes.
#[test]
fn structural_census_tracks_area_model() {
    for n in [2usize, 4, 8, 16, 32, 64, 128] {
        let circuit = TreeSamplerCircuit::new(n);
        let census = circuit.descriptor().census();
        let padded = n.next_power_of_two();
        let depth = padded.trailing_zeros() as usize;
        // TreeSum adders (padded-1) + per-level traverse subtractor +
        // per-level label adder.
        assert_eq!(census.adders, (padded - 1) + 2 * depth, "n={n}");
        assert_eq!(census.comparators, depth, "n={n}");
    }
}

/// Driving the structural pipeline end to end: PG core feeding the sampler
/// circuit reproduces the label the behavioral engine draws from the PG
/// core's outputs as integer ROM codes (`p · 2^8`, exact), at 8 and 64
/// labels.
#[test]
fn pg_to_sampler_structural_path() {
    for labels in [8usize, 64] {
        let mut core = PgCoreCircuit::new(labels, 2, 64, 8);
        let factors: Vec<Vec<f64>> = (0..labels)
            .map(|i| vec![-(i as f64) * 0.7 / (labels / 8) as f64, -0.3])
            .collect();
        let probs = core.evaluate(&factors);
        let codes: Vec<u64> = probs.iter().map(|&p| (p * 256.0) as u64).collect();
        let image: Vec<f64> = codes.iter().map(|&c| c as f64 / 256.0).collect();
        assert_eq!(
            image, probs,
            "{labels} labels: PG outputs sit on the 2^-8 grid"
        );
        let total = [codes.iter().sum::<u64>()];
        let weights = Weights::from_codes(&codes, &total, 8);
        assert!(weights.codes().is_some(), "{labels} labels");
        let total: f64 = probs.iter().sum();
        let mut sampler = TreeSamplerCircuit::new(labels);
        let behavioral = TreeSampler::new();
        for k in 0..50 {
            let t = total * (k as f64 + 0.5) / 50.5;
            assert_eq!(
                sampler.sample(&probs, t),
                behavioral.sample_with_threshold(weights, t).label,
                "{labels} labels, t = {t}"
            );
        }
    }
}
