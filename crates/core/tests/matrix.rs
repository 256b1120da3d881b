//! Compatibility matrix: every pipeline runs with every sampler on every
//! model family — the composability contract of the three-step abstraction.

use coopmc_core::engine::GibbsEngine;
use coopmc_core::pipeline::PipelineConfig;
use coopmc_models::bn::earthquake;
use coopmc_models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc_models::mrf::image_segmentation;
use coopmc_models::GibbsModel;
use coopmc_rng::{HwRng, SplitMix64};
use coopmc_sampler::{AliasSampler, PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};

fn pipelines() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::float32(),
        PipelineConfig::fixed(8),
        PipelineConfig::fixed_dynorm(8),
        PipelineConfig::coopmc(64, 8),
        PipelineConfig::coopmc(1024, 32),
    ]
}

fn samplers() -> Vec<Box<dyn Sampler>> {
    vec![
        Box::new(SequentialSampler::new()),
        Box::new(TreeSampler::new()),
        Box::new(PipeTreeSampler::new()),
        Box::new(AliasSampler::new()),
    ]
}

/// Every (pipeline, sampler) pair drives an MRF chain that updates every
/// variable and keeps labels in range.
#[test]
fn full_matrix_on_mrf() {
    for config in pipelines() {
        for sampler in samplers() {
            let mut app = image_segmentation(10, 8, 3);
            let mut engine = GibbsEngine::new(config.build(), sampler, SplitMix64::new(1));
            let stats = engine.run(&mut app.mrf, 2);
            assert_eq!(stats.updates, 2 * 80, "{config:?}");
            assert!(app.mrf.labels().iter().all(|&l| l < 2));
        }
    }
}

/// Every (pipeline, sampler) pair drives a BN chain respecting evidence.
#[test]
fn full_matrix_on_bn() {
    for config in pipelines() {
        for sampler in samplers() {
            let mut net = earthquake();
            net.set_evidence(2, 0);
            let mut engine = GibbsEngine::new(config.build(), sampler, SplitMix64::new(2));
            let stats = engine.run(&mut net, 20);
            assert_eq!(stats.updates, 20 * 4, "{config:?}");
            assert_eq!(net.label(2), 0);
        }
    }
}

/// Every (pipeline, sampler) pair drives a collapsed LDA chain conserving
/// counts.
#[test]
fn full_matrix_on_lda() {
    let corpus = synthetic_corpus(&CorpusSpec {
        n_docs: 6,
        n_vocab: 24,
        n_topics: 3,
        doc_len: 10,
        topics_per_doc: 1,
        seed: 4,
    });
    for config in pipelines() {
        for sampler in samplers() {
            let mut lda = Lda::new(&corpus, 3, 0.5, 0.05);
            lda.randomize_topics(5);
            let mut engine = GibbsEngine::new(config.build(), sampler, SplitMix64::new(3));
            engine.run(&mut lda, 3);
            let total: u32 = (0..3).map(|k| lda.topic_total(k)).sum();
            assert_eq!(total, 60, "{config:?}");
        }
    }
}

/// A counter-based generator local to this test: word `i` of stream `key`
/// is a fixed mix of `key` and `i`, so its only state is the counter.
struct CounterRng {
    key: u64,
    counter: u64,
}

impl HwRng for CounterRng {
    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        let mut z = self.key ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The engine is RNG-generic: a counter stream other than `SplitMix64`
/// drives the same machinery.
#[test]
fn engine_accepts_counter_based_rng() {
    let mut app = image_segmentation(8, 8, 6);
    let before = app.mrf.energy();
    let mut engine = GibbsEngine::new(
        PipelineConfig::coopmc(64, 8).build(),
        TreeSampler::new(),
        CounterRng {
            key: 42,
            counter: 0,
        },
    );
    engine.run(&mut app.mrf, 10);
    assert!(app.mrf.energy() < before);
}
