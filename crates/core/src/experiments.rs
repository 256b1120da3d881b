//! Shared experiment harness helpers.
//!
//! The paper's algorithmic figures all follow the same recipe: run a
//! workload under a datapath configuration, track a quality metric per
//! iteration, and compare against a float golden reference. These helpers
//! centralize that recipe for the examples, integration tests and the
//! table/figure benches.

use coopmc_models::bn::{exact_marginal, BayesNet, MarginalCounter};
use coopmc_models::lda::Lda;
use coopmc_models::metrics::{normalized_mse, Trace};
use coopmc_models::mrf::MrfApp;
use coopmc_models::GibbsModel;
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

use crate::engine::GibbsEngine;
use crate::pipeline::PipelineConfig;

/// Produce the golden label field for an MRF app: the vanilla float
/// algorithm run for `iterations` sweeps (paper §II-B: "a vanilla
/// floating-point inference algorithm for an excessively large number of
/// iterations").
pub fn mrf_golden(app: &MrfApp, iterations: u64, seed: u64) -> Vec<usize> {
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(
        PipelineConfig::float32().build(),
        TreeSampler::new(),
        SplitMix64::new(seed),
    );
    engine.run(&mut model, iterations);
    model.labels()
}

/// Run an MRF app under `config`, recording the normalized MSE against
/// `golden` after every sweep. The normalization baseline is the app's
/// initial (untrained) label field.
pub fn mrf_trace(
    app: &MrfApp,
    config: PipelineConfig,
    iterations: u64,
    seed: u64,
    golden: &[usize],
) -> Trace {
    let untrained = app.mrf.labels();
    let mut model = app.mrf.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(seed));
    let mut trace = Trace::new();
    trace.push(0, normalized_mse(&untrained, golden, &untrained));
    let mut stats = crate::engine::RunStats::default();
    for _ in 0..iterations {
        engine.sweep(&mut model, &mut stats);
        let nmse = normalized_mse(&model.labels(), golden, &untrained);
        trace.push(engine.journal_iteration(), nmse);
    }
    trace
}

/// Converged normalized MSE of an MRF app under `config`: the mean of the
/// final quarter of the trace.
pub fn mrf_converged_nmse(
    app: &MrfApp,
    config: PipelineConfig,
    iterations: u64,
    seed: u64,
    golden: &[usize],
) -> f64 {
    let trace = mrf_trace(app, config, iterations, seed, golden);
    let k = (trace.samples().len() / 4).max(1);
    trace.tail_mean(k)
}

/// Run Gibbs on a Bayesian network under `config` and return the MSE of the
/// estimated posterior marginals against exact variable-elimination
/// posteriors (the paper's BN metric, with an exact golden).
pub fn bn_marginal_mse(
    net: &BayesNet,
    config: PipelineConfig,
    iterations: u64,
    burn_in: u64,
    seed: u64,
) -> f64 {
    assert!(burn_in < iterations, "burn-in must leave samples");
    let exact: Vec<Vec<f64>> = (0..net.num_variables())
        .map(|v| {
            if net.evidence()[v].is_some() {
                // Clamped nodes contribute nothing to the metric.
                vec![0.0; net.num_labels(v)]
            } else {
                exact_marginal(net, v)
            }
        })
        .collect();
    let mut model = net.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(seed));
    let mut counter = MarginalCounter::new(&model);
    let mut stats = crate::engine::RunStats::default();
    for it in 0..iterations {
        engine.sweep(&mut model, &mut stats);
        if it >= burn_in {
            counter.record(&model);
        }
    }
    counter.mse_against(&exact, &model)
}

/// Run collapsed-Gibbs LDA under `config`, recording the corpus
/// log-likelihood after every sweep.
pub fn lda_trace(lda: &Lda, config: PipelineConfig, iterations: u64, seed: u64) -> Trace {
    let mut model = lda.clone();
    let mut engine = GibbsEngine::new(config.build(), TreeSampler::new(), SplitMix64::new(seed));
    let mut trace = Trace::new();
    trace.push(0, model.log_likelihood());
    let mut stats = crate::engine::RunStats::default();
    for it in 1..=iterations {
        engine.sweep(&mut model, &mut stats);
        trace.push(it, model.log_likelihood());
    }
    trace
}

/// Converged LDA log-likelihood: mean of the final quarter of the trace.
pub fn lda_converged_loglik(lda: &Lda, config: PipelineConfig, iterations: u64, seed: u64) -> f64 {
    let trace = lda_trace(lda, config, iterations, seed);
    let k = (trace.samples().len() / 4).max(1);
    trace.tail_mean(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_models::lda::{synthetic_corpus, CorpusSpec};
    use coopmc_models::mrf::image_segmentation;

    #[test]
    fn float_mrf_converges_toward_golden() {
        let app = image_segmentation(16, 16, 11);
        let golden = mrf_golden(&app, 40, 99);
        let trace = mrf_trace(&app, PipelineConfig::float32(), 20, 7, &golden);
        let first = trace.samples()[0].1;
        let last = trace.last_value().unwrap();
        assert!(last < first, "normalized MSE must drop: {first} -> {last}");
        assert!(
            last < 0.5,
            "float run should approach the golden result: {last}"
        );
    }

    #[test]
    fn coopmc_matches_float_on_segmentation() {
        let app = image_segmentation(16, 16, 12);
        let golden = mrf_golden(&app, 40, 99);
        let float = mrf_converged_nmse(&app, PipelineConfig::float32(), 16, 5, &golden);
        let coop = mrf_converged_nmse(&app, PipelineConfig::coopmc(64, 8), 16, 5, &golden);
        assert!(
            (coop - float).abs() < 0.25,
            "8-bit CoopMC ({coop}) must track float ({float})"
        );
    }

    #[test]
    fn bn_gibbs_approaches_exact_marginals() {
        let net = coopmc_models::bn::earthquake();
        let mse = bn_marginal_mse(&net, PipelineConfig::float32(), 4000, 400, 13);
        assert!(mse < 5e-3, "Gibbs marginal MSE too high: {mse}");
    }

    #[test]
    fn lda_loglik_improves_from_random_init() {
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 12,
            n_vocab: 48,
            n_topics: 4,
            doc_len: 30,
            topics_per_doc: 2,
            seed: 3,
        });
        let mut lda = Lda::new(&corpus, 4, 1.0, 0.05);
        lda.randomize_topics(8);
        let trace = lda_trace(&lda, PipelineConfig::float32(), 15, 21);
        let first = trace.samples()[0].1;
        let last = trace.last_value().unwrap();
        assert!(
            last > first,
            "log-likelihood must improve: {first} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "burn-in")]
    fn bad_burn_in_panics() {
        let net = coopmc_models::bn::earthquake();
        let _ = bn_marginal_mse(&net, PipelineConfig::float32(), 10, 10, 1);
    }
}
