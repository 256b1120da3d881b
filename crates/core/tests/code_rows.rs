//! The engines hand PG's integer ROM codes to SD. Under the CoopMC datapath
//! on bus words (`coopmc:64x8`) every draw of either engine reads a row
//! that carries codes; under the float reference none does.

use std::sync::atomic::{AtomicU64, Ordering};

use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{CoopMcPipeline, FloatPipeline, ProbabilityPipeline};
use coopmc_models::bn::asia;
use coopmc_models::mrf::image_restoration;
use coopmc_obs::NoopRecorder;
use coopmc_rng::{HwRng, SplitMix64};
use coopmc_sampler::{SampleScratch, Sampler, TreeSampler, Weights};

/// The tree sampler, counting the rows it draws from and those of them
/// that carried usable codes.
#[derive(Debug, Default)]
struct CodeCounter {
    rows: AtomicU64,
    code_rows: AtomicU64,
}

impl CodeCounter {
    /// `(rows, code rows)` drawn from so far.
    fn counts(&self) -> (u64, u64) {
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (read(&self.rows), read(&self.code_rows))
    }
}

impl Sampler for &CodeCounter {
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize {
        TreeSampler::new().select(probs, t, scratch)
    }

    fn draw(
        &self,
        weights: Weights<'_>,
        total: f64,
        rng: &mut dyn HwRng,
        scratch: &mut SampleScratch,
    ) -> usize {
        self.rows.fetch_add(1, Ordering::Relaxed);
        if weights.codes().is_some() {
            self.code_rows.fetch_add(1, Ordering::Relaxed);
        }
        TreeSampler::new().draw(weights, total, rng, scratch)
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        TreeSampler::new().latency_cycles(n)
    }

    fn name(&self) -> &'static str {
        "code-counter"
    }
}

/// `(draws, rows drawn from, code rows)` of a sequential run on the
/// 64-label restoration MRF and on BN-ASIA's factor rows, then of a
/// 2-thread chromatic run on the MRF.
fn counts(pipeline: impl Fn() -> Box<dyn ProbabilityPipeline>) -> [(u64, u64, u64); 3] {
    let gibbs_mrf = CodeCounter::default();
    let mut app = image_restoration(12, 10, 5);
    let mut engine = GibbsEngine::new(pipeline(), &gibbs_mrf, SplitMix64::new(9));
    let mrf_draws = engine.run(&mut app.mrf, 2).updates;

    let gibbs_bn = CodeCounter::default();
    let mut net = asia();
    let mut engine = GibbsEngine::new(pipeline(), &gibbs_bn, SplitMix64::new(9));
    let bn_draws = engine.run(&mut net, 20).updates;

    let chromatic = CodeCounter::default();
    let mut app = image_restoration(12, 10, 5);
    let engine = ChromaticEngine::with_recorder(pipeline(), &chromatic, 2, 9, NoopRecorder);
    let chromatic_draws = engine.run(&mut app.mrf, 2) as u64;

    let with = |draws: u64, counter: &CodeCounter| {
        let (rows, code_rows) = counter.counts();
        (draws, rows, code_rows)
    };
    [
        with(mrf_draws, &gibbs_mrf),
        with(bn_draws, &gibbs_bn),
        with(chromatic_draws, &chromatic),
    ]
}

#[test]
fn every_coopmc_draw_reads_a_code_row() {
    for (run, (draws, rows, code_rows)) in counts(|| Box::new(CoopMcPipeline::new(64, 8)))
        .into_iter()
        .enumerate()
    {
        // DyNorm maps each row's maximum to the entry 1.0, so no draw falls
        // back and every draw reaches `Sampler::draw`.
        assert!(draws > 0, "run {run}");
        assert_eq!((rows, code_rows), (draws, draws), "run {run}");
    }
}

#[test]
fn no_float_draw_reads_a_code_row() {
    for (run, (draws, rows, code_rows)) in counts(|| Box::new(FloatPipeline::new()))
        .into_iter()
        .enumerate()
    {
        assert!(draws > 0 && rows > 0, "run {run}");
        assert_eq!(code_rows, 0, "run {run}");
    }
}
