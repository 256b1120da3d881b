//! Thread-count independence of the pooled chromatic engine.
//!
//! The worker pool must be invisible in the chain: every draw's RNG depends
//! only on `(seed, iteration, var)` and commits happen behind a per-class
//! barrier, so 1-thread and 8-thread runs produce bit-identical label
//! sequences.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{
    CoopMcPipeline, FixedPipeline, FloatPipeline, PgBatch, ProbabilityPipeline,
};
use coopmc_models::mrf::image_segmentation;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_obs::journal::validate_journal;
use coopmc_obs::{HealthConfig, TraceRecorder};
use coopmc_sampler::TreeSampler;

#[test]
fn pooled_chromatic_chain_is_identical_at_1_and_8_threads() {
    let run = |threads: usize| {
        let mut app = image_segmentation(24, 24, 31);
        let engine = ChromaticEngine::new(FixedPipeline::new(8, true), threads, 2024);
        let updated = engine.run(&mut app.mrf, 6);
        (updated, app.mrf.labels())
    };
    let (updated_1, labels_1) = run(1);
    let (updated_8, labels_8) = run(8);
    assert_eq!(updated_1, updated_8);
    assert_eq!(labels_1, labels_8, "thread count leaked into the chain");
}

#[test]
fn pooled_chromatic_determinism_holds_per_pipeline() {
    // The guarantee is pipeline-independent: any Sync pipeline through the
    // same pooled dispatch gives the same chain at any thread count.
    fn chain<P: coopmc_core::pipeline::ProbabilityPipeline + Sync>(
        pipeline: P,
        threads: usize,
    ) -> Vec<usize> {
        let mut app = image_segmentation(16, 12, 5);
        ChromaticEngine::new(pipeline, threads, 99).run(&mut app.mrf, 4);
        app.mrf.labels()
    }
    assert_eq!(
        chain(FloatPipeline::new(), 1),
        chain(FloatPipeline::new(), 8)
    );
    assert_eq!(
        chain(CoopMcPipeline::new(64, 8), 1),
        chain(CoopMcPipeline::new(64, 8), 8)
    );
}

#[test]
fn repeated_runs_on_one_engine_share_the_pool() {
    // Re-running on the same engine must reuse the persistent workers and
    // stay reproducible run over run (iteration indices restart at 0).
    let engine = ChromaticEngine::new(FloatPipeline::new(), 4, 7);
    let mut a = image_segmentation(12, 12, 3);
    let mut b = image_segmentation(12, 12, 3);
    engine.run(&mut a.mrf, 3);
    engine.run(&mut b.mrf, 3);
    assert_eq!(a.mrf.labels(), b.mrf.labels());
    assert_eq!(engine.n_threads(), 4);
}

#[test]
fn repeated_journaling_runs_keep_one_valid_journal() {
    // The journal numbers sweeps across runs while each run's draws restart
    // at iteration 0, so both runs still produce the same chain.
    let recorder = TraceRecorder::new();
    let engine =
        ChromaticEngine::with_recorder(FloatPipeline::new(), TreeSampler::new(), 2, 7, &recorder);
    let mut a = image_segmentation(12, 12, 3);
    let mut b = image_segmentation(12, 12, 3);
    engine.run(&mut a.mrf, 3);
    engine.run(&mut b.mrf, 3);
    assert_eq!(a.mrf.labels(), b.mrf.labels());
    let iterations: Vec<u64> = recorder.sweeps().iter().map(|s| s.iteration).collect();
    assert_eq!(iterations, [1, 2, 3, 4, 5, 6]);
    assert_eq!(
        validate_journal(&recorder.journal_jsonl(&HealthConfig::default())),
        Ok(6)
    );
}

/// The float datapath, except that its first evaluation emits a NaN weight.
struct NanOnce(AtomicBool);

impl ProbabilityPipeline for NanOnce {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        FloatPipeline::new().generate_rows_into(rows, out);
        if !self.0.swap(true, Ordering::Relaxed) {
            out.probs[0] = f64::NAN;
        }
    }

    fn name(&self) -> String {
        "nan-once".to_owned()
    }
}

#[test]
fn a_caught_worker_panic_leaves_the_engine_usable() {
    for threads in [1, 2, 4] {
        let engine = ChromaticEngine::new(NanOnce(AtomicBool::new(false)), threads, 5);
        let mut app = image_segmentation(12, 12, 3);
        let first = catch_unwind(AssertUnwindSafe(|| engine.sweep(&mut app.mrf, 0)));
        let payload = first.expect_err("the NaN weight must trip the sampler");
        // The sampler's own message reaches the caller at every thread count.
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert!(
            message.is_some_and(|m| m.starts_with("invalid weight NaN at index ")),
            "{threads} threads: {message:?}"
        );
        assert_eq!(engine.sweep(&mut app.mrf, 1), 144, "{threads} threads");
    }
}
