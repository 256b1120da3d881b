//! Property tests: the batched PG datapath is bit-exact with the scalar
//! one for every in-tree datapath configuration.
//!
//! For each [`in_tree_configs`] pipeline shape, random same-width score
//! strides — log-domain rows, LDA-shaped factor rows (two numerators, one
//! denominator) and BN-shaped factor rows (numerators only, one to four of
//! them by row, so a stride holds several arities), with row
//! counts on either side of the engine's 8-row stride, 64-label rows, and
//! `LOG_ZERO`, NaN and infinite scores and zero factors — must produce
//! **bit-identical** probabilities, per-row op counts and merged telemetry
//! whether evaluated row-by-row through the `LabelScore` wrapper
//! `generate_into`, in one `generate_batch_into` call, or in place with
//! `generate_rows_into`, with the stage accumulator detached or attached.
//! Where a datapath reads its ROM on bus words, the probabilities a stride
//! hands SD are its codes' exact images.

use coopmc_analyze::contracts::in_tree_configs;
use coopmc_core::pipeline::{CoopMcPipeline, PgBatch, PgOutput, ProbabilityPipeline};
use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::fusion::StagePhases;
use coopmc_kernels::log::LOG_ZERO;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{LabelScore, ScoreRows};
use coopmc_rng::{HwRng, SplitMix64};

/// Random log-domain scores spanning the useful DyNorm input range, with a
/// few exact ties and deep-negative outliers mixed in, and now and then a
/// `LOG_ZERO`, NaN or infinite score: rows where a row's min/max telemetry
/// could part from per-score observation.
fn random_scores(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let specials = [LOG_ZERO, f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
    (0..n)
        .map(|i| {
            let u = rng.next_f64();
            match i % 7 {
                0 => 0.0,
                1 => -40.0 * u,
                _ if i % 11 == 3 => specials[rng.uniform_index(specials.len())],
                _ => -8.0 * u,
            }
        })
        .collect()
}

/// Random factor labels for `rows` rows of `width`, one arity per row:
/// LDA-shaped (`(DT+α)(VT+β) / (ΣVT+βV)`) or, with `lda == false`,
/// BN-shaped (one to four CPT entries by row, now and then zero).
fn random_factors(
    rng: &mut SplitMix64,
    rows: usize,
    width: usize,
    lda: bool,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..rows * width)
        .map(|i| {
            if lda {
                let count = |rng: &mut SplitMix64, max: usize| rng.uniform_index(max) as f64;
                let numerators = vec![count(rng, 40) + 0.1, count(rng, 12) + 0.01];
                (numerators, vec![count(rng, 400) + 2.56])
            } else {
                let numerators = (0..1 + i / width % 4).map(|_| match rng.uniform_index(9) {
                    0 => 0.0,
                    _ => rng.next_f64(),
                });
                (numerators.collect(), Vec::new())
            }
        })
        .collect()
}

/// Factor labels, one arity per row, as `LabelScore`s and as a stride of
/// `width`-label rows of columns.
fn factor_inputs(labels: Vec<(Vec<f64>, Vec<f64>)>, width: usize) -> (Vec<LabelScore>, ScoreRows) {
    let mut stride = ScoreRows::new();
    for row in labels.chunks_exact(width) {
        let columns = stride.push_factor_row(width, row[0].0.len(), row[0].1.len());
        for (l, (numerators, denominators)) in row.iter().enumerate() {
            for (c, &x) in numerators.iter().chain(denominators).enumerate() {
                columns[c * width + l] = x;
            }
        }
    }
    let scores = labels
        .into_iter()
        .map(|(numerators, denominators)| LabelScore::Factors {
            numerators,
            denominators,
        });
    (scores.collect(), stride)
}

/// Log-domain `values` as `LabelScore`s and as a stride of `width`-label
/// rows.
fn log_inputs(values: &[f64], width: usize) -> (Vec<LabelScore>, ScoreRows) {
    let mut stride = ScoreRows::new();
    for row in values.chunks_exact(width) {
        stride.push_log_row(width).copy_from_slice(row);
    }
    let scores = values.iter().map(|&v| LabelScore::LogDomain(v));
    (scores.collect(), stride)
}

/// Batch outputs reused across every call: one with the stage accumulator
/// detached, one with it attached.
fn reused_batches() -> [PgBatch; 2] {
    let mut attached = PgBatch::new();
    attached.phases = Some(StagePhases::default());
    [PgBatch::new(), attached]
}

/// Leave contents in `out` that no evaluation may read.
fn stale(out: &mut PgBatch) {
    out.probs.push(7.0);
    out.ops.push(OpCounts {
        add: 99,
        ..OpCounts::new()
    });
    out.telemetry.observe_norm_max(1e300);
    out.telemetry.observe_exp_input(-1e300);
}

/// Evaluate the width-`width` rows of `scores` / `stride` (one input in
/// two forms) through both stride entry points into each of `outs`, and
/// require the row-by-row `generate_into` result bit for bit: the
/// probabilities SD reads (the codes' images on bus words), per-row ops
/// and merged telemetry, and from `generate_batch_into` the same
/// probabilities in `probs`.
fn assert_rows_bit_exact(
    pipeline: &CoopMcPipeline,
    (scores, stride): &(Vec<LabelScore>, ScoreRows),
    width: usize,
    outs: &mut [PgBatch; 2],
    what: &str,
) {
    let (mut scalar, mut probs, mut ops) = (PgOutput::new(), Vec::new(), Vec::new());
    let mut merged = PgTelemetry::new();
    for row in scores.chunks_exact(width) {
        pipeline.generate_into(row, &mut scalar);
        probs.extend_from_slice(&scalar.probs);
        ops.push(scalar.ops);
        merged.merge(&scalar.telemetry);
    }
    let check = |out: &PgBatch, path: &str, attached: bool| {
        let at = format!("{path} (phases attached: {attached}): {what}");
        let images: Vec<f64> = out.weights().images().collect();
        assert_eq!(images, probs, "probs diverge: {at}");
        assert_eq!(out.ops, ops, "ops diverge: {at}");
        assert_eq!(out.telemetry, merged, "telemetry diverges: {at}");
        assert_eq!(out.phases.is_some(), attached, "{at}");
    };
    for out in outs.iter_mut() {
        let attached = out.phases.is_some();
        stale(out);
        pipeline.generate_batch_into(scores, width, out);
        check(out, "generate_batch_into", attached);
        assert_eq!(out.probs, probs, "generate_batch_into probs: {what}");
        stale(out);
        pipeline.generate_rows_into(stride, out);
        check(out, "generate_rows_into", attached);
    }
}

#[test]
fn batched_pg_is_bit_exact_for_every_in_tree_config() {
    // Dedupe the sweep configs by pipeline shape; the batch path only
    // depends on (size_lut, bit_lut).
    let mut shapes: Vec<(usize, u32)> = in_tree_configs()
        .iter()
        .map(|c| (c.size_lut, c.bit_lut.min(46)))
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    assert!(shapes.len() >= 5, "expected the full in-tree config sweep");

    let mut rng = SplitMix64::new(0xC0DE_2026);
    let mut outs = reused_batches();
    for &(size_lut, bit_lut) in &shapes {
        let pipeline = CoopMcPipeline::new(size_lut, bit_lut);
        // Ragged row counts: tails of every residue class mod 8, and
        // 64-label rows.
        for &(rows, width) in &[
            (1, 2),
            (3, 4),
            (5, 3),
            (8, 4),
            (11, 2),
            (13, 5),
            (16, 8),
            (3, 64),
            (8, 64),
        ] {
            for _seed_round in 0..4 {
                let what = format!("lut{size_lut}x{bit_lut} rows={rows} width={width}");
                let log = log_inputs(&random_scores(&mut rng, rows * width), width);
                assert_rows_bit_exact(&pipeline, &log, width, &mut outs, &what);
                for lda in [true, false] {
                    let labels = random_factors(&mut rng, rows, width, lda);
                    let what = format!("{what} factors (lda: {lda})");
                    let factors = factor_inputs(labels, width);
                    assert_rows_bit_exact(&pipeline, &factors, width, &mut outs, &what);
                }
            }
        }
    }
}

#[test]
fn batched_pg_survives_flush_regime_inputs() {
    // Scores far outside the LUT range drive the TableExp flush-to-zero
    // path; the batched read must flush exactly where the per-row read
    // does, bit for bit, including all-zero rows (which the sampler later
    // resolves with its uniform fallback). Factor rows spanning hundreds
    // of nats between labels flush the same way after DyNorm.
    let pipeline = CoopMcPipeline::new(64, 8);
    let mut rng = SplitMix64::new(0xF1u64);
    let mut outs = reused_batches();
    for (rows, width) in [(9, 4), (9, 64), (5, 2)] {
        let scores: Vec<f64> = (0..rows * width)
            .map(|_| -500.0 - 100.0 * rng.next_f64())
            .collect();
        let what = format!("flush rows={rows} width={width}");
        assert_rows_bit_exact(
            &pipeline,
            &log_inputs(&scores, width),
            width,
            &mut outs,
            &what,
        );
        for lda in [true, false] {
            let labels = (0..rows * width).map(|i| {
                let tiny = |rng: &mut SplitMix64| (-250.0 - 50.0 * rng.next_f64()).exp();
                let first = if i % width == 0 { 1.0 } else { tiny(&mut rng) };
                if lda {
                    (
                        vec![first, tiny(&mut rng)],
                        vec![1.0 + 9.0 * rng.next_f64()],
                    )
                } else {
                    (vec![first], Vec::new())
                }
            });
            let factors = factor_inputs(labels.collect(), width);
            let what = format!("{what} factors (lda: {lda})");
            assert_rows_bit_exact(&pipeline, &factors, width, &mut outs, &what);
        }
    }
}
