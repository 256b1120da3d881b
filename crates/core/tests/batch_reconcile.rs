//! Ties a *batched* chromatic run's journal back to the hardware model.
//!
//! A `TraceRecorder`-instrumented `ChromaticEngine` run, which evaluates
//! its rows in batch strides, must produce journal cycle totals that
//! `coopmc_hw::reconcile` accepts against the closed-form model — batching
//! reorganizes the evaluation, so per-row cycle accounting has to come out
//! identical to per-row scalar evaluation. The `pg_batches` /
//! `pg_batch_rows` journal fields are cross-checked against the engine's
//! stride, and the rendered journal must still validate.

use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{CoopMcPipeline, PgBatch, PgOutput, ProbabilityPipeline};
use coopmc_hw::area::SamplerKind;
use coopmc_hw::batch::PgUnitConfig;
use coopmc_hw::cycles::PgTiming;
use coopmc_hw::reconcile::reconcile;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::mrf::image_segmentation;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_obs::journal::validate_journal;
use coopmc_obs::{HealthConfig, TraceRecorder};
use coopmc_sampler::TreeSampler;

#[test]
fn batched_runs_reconcile_against_the_cycle_model() {
    let sweeps = 4u64;
    let mut app = image_segmentation(16, 12, 5);
    let n_vars = 16 * 12;
    let engine = ChromaticEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        2,
        42,
        TraceRecorder::new(),
    );
    engine.run(&mut app.mrf, sweeps);

    let recorded = engine.recorder().sweeps();
    assert_eq!(recorded.len(), sweeps as usize);
    let r = reconcile(&recorded, SamplerKind::Tree, 2)
        .expect("batched journal must reconcile with the closed-form model");
    assert_eq!(r.updates, sweeps * n_vars);

    // Every variable's scores are 2-label log-domain, so every update goes
    // through a batch stride; strides are at most 8 rows and at least
    // ceil(rows/8) per chunk.
    for s in &recorded {
        assert_eq!(s.pg_batch_rows, s.updates, "all rows batched");
        assert!(s.pg_batches >= s.updates.div_ceil(8), "stride cap of 8");
        assert!(s.pg_batches <= s.updates, "at least one row per stride");
    }

    // The modeled parallel-unit bank agrees with the stride shape: a full
    // 8-row stride is one pass of an 8-unit bank.
    let bank = PgUnitConfig {
        timing: PgTiming::CoopMc { pipelines: 8 },
        pg_units: 8,
        n_labels: 2,
        factor_ops: 5,
    };
    assert_eq!(
        bank.class_cycles(8),
        bank.per_call_cycles() + coopmc_hw::cycles::SYNC_CYCLES
    );

    let journal = engine.recorder().journal_jsonl(&HealthConfig::default());
    assert_eq!(validate_journal(&journal).unwrap(), sweeps as usize);
    assert!(journal.contains("\"pg_batches\":"));
    assert!(journal.contains("\"pg_batch_rows\":"));
}

/// A pipeline evaluated one row at a time: each row of a stride goes
/// through its own `generate_into` call.
struct RowByRow(CoopMcPipeline);

impl ProbabilityPipeline for RowByRow {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        let (mut scores, mut pg) = (Vec::new(), PgOutput::new());
        out.probs.clear();
        out.ops.clear();
        out.telemetry = PgTelemetry::new();
        for row in 0..rows.len() {
            rows.label_scores_into(row, &mut scores);
            self.0.generate_into(&scores, &mut pg);
            out.probs.extend_from_slice(&pg.probs);
            out.ops.push(pg.ops);
            out.telemetry.merge(&pg.telemetry);
        }
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

#[test]
fn scalar_and_batched_journals_carry_identical_cycle_totals() {
    fn run(pipeline: impl ProbabilityPipeline) -> (Vec<coopmc_obs::SweepSample>, Vec<usize>) {
        let mut app = image_segmentation(12, 12, 9);
        let engine = ChromaticEngine::with_recorder(
            pipeline,
            TreeSampler::new(),
            1,
            7,
            TraceRecorder::new(),
        );
        engine.run(&mut app.mrf, 3);
        (engine.recorder().sweeps(), app.mrf.labels())
    }
    let (scalar, scalar_labels) = run(RowByRow(CoopMcPipeline::new(64, 8)));
    let (batched, batched_labels) = run(CoopMcPipeline::new(64, 8));
    assert_eq!(
        scalar_labels, batched_labels,
        "chains must be bit-identical"
    );
    for (s, b) in scalar.iter().zip(&batched) {
        assert_eq!(s.pg_cycles, b.pg_cycles, "sweep {}", s.iteration);
        assert_eq!(s.sd_cycles, b.sd_cycles, "sweep {}", s.iteration);
        assert_eq!(s.pu_cycles, b.pu_cycles, "sweep {}", s.iteration);
        assert_eq!(s.flips, b.flips, "sweep {}", s.iteration);
        assert_eq!(
            (s.norm_max, s.exp_in_min, s.exp_in_max),
            (b.norm_max, b.exp_in_min, b.exp_in_max)
        );
        assert_eq!(s.pg_batches, b.pg_batches, "one stride shape either way");
        assert!(b.pg_batches > 0, "strides must report batches");
    }
}
