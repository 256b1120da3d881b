//! A count row is its `f64` image to every pipeline: a stride of count
//! rows and the same rows as `f64` factor rows (each count plus its
//! column's constant) give identical probabilities, codes, op tallies and
//! telemetry, bit for bit, through the CoopMC datapath on bus words
//! (`coopmc:64x8`), with float log reads and the `f64` finish
//! (`coopmc:100x8`), with float log reads and the word finish
//! (`coopmc:64x20`), through the direct fixed-point datapath
//! (`fixed+dn:8`) and through the float reference. One batch driven
//! through every configuration in turn keeps each datapath's count tables
//! apart.

use std::fmt::Debug;

use coopmc_core::pipeline::{
    CoopMcPipeline, FixedPipeline, FloatPipeline, PgBatch, ProbabilityPipeline,
};
use coopmc_models::{CountColumn, RowForm, ScoreRows};
use coopmc_rng::{HwRng, SplitMix64};

/// The pipeline configurations of the CLI this test covers.
fn pipelines() -> [Box<dyn ProbabilityPipeline>; 5] {
    [
        Box::new(CoopMcPipeline::new(64, 8)),
        Box::new(CoopMcPipeline::new(100, 8)),
        Box::new(CoopMcPipeline::new(64, 20)),
        Box::new(FixedPipeline::new(8, true)),
        Box::new(FloatPipeline::new()),
    ]
}

/// A stride of `rows` random count rows of `width` labels and the same
/// rows as `f64` factor rows. Each row has up to three numerator and two
/// denominator columns. Constants are zero (count 0 reads LOG_ZERO), LDA's
/// α, β and βV, a subnormal, or +∞ (which saturates the bus); counts are
/// 0, the column's bound or between.
fn random_stride(rng: &mut SplitMix64, rows: usize, width: usize) -> (ScoreRows, ScoreRows) {
    let constants = [0.0, 50.0 / 16.0, 0.01, 2.56, 5e-324, f64::INFINITY];
    let bounds = [0, 1, 80, 600];
    let (mut counts, mut image) = (ScoreRows::new(), ScoreRows::new());
    for _ in 0..rows {
        let (n, d) = (rng.uniform_index(4), rng.uniform_index(3));
        let columns: Vec<CountColumn> = (0..n + d)
            .map(|_| CountColumn {
                constant: constants[rng.uniform_index(constants.len())],
                bound: bounds[rng.uniform_index(bounds.len())],
            })
            .collect();
        let cells: Vec<u32> = (columns.iter())
            .flat_map(|c| std::iter::repeat_n(c.bound, width))
            .map(|bound| match rng.uniform_index(3) {
                0 => 0,
                1 => bound,
                _ => rng.uniform_index(bound as usize + 1) as u32,
            })
            .collect();
        let values = (columns.iter())
            .flat_map(|c| std::iter::repeat_n(c.constant, width))
            .zip(&cells)
            .map(|(constant, &count)| f64::from(count) + constant);
        counts
            .push_count_row(width, &columns[..n], &columns[n..])
            .copy_from_slice(&cells);
        let row = image.push_factor_row(width, n, d);
        row.iter_mut().zip(values).for_each(|(v, x)| *v = x);
    }
    (counts, image)
}

/// A batch's probabilities, codes, tallies and telemetry as bits, so NaN
/// and the sign of zero compare too.
fn outputs(batch: &PgBatch) -> impl PartialEq + Debug {
    let probs: Vec<u64> = batch.probs.iter().map(|p| p.to_bits()).collect();
    let codes = batch
        .weights()
        .codes()
        .map(|(codes, bits)| (codes.to_vec(), bits));
    let t = &batch.telemetry;
    let telemetry = [t.norm_max, t.exp_in_min, t.exp_in_max].map(|v| v.map(f64::to_bits));
    (probs, codes, batch.ops.clone(), telemetry)
}

#[test]
fn count_rows_and_their_images_give_identical_outputs_through_every_pipeline() {
    let mut rng = SplitMix64::new(0xC0DE);
    let pipelines = pipelines();
    let mut shared = PgBatch::new();
    for width in [1, 2, 3, 16, 128] {
        for rows in [1, 3, 8] {
            let (counts, image) = random_stride(&mut rng, rows, width);
            assert_eq!(counts.form(), RowForm::Counts);
            for p in &pipelines {
                let at = format!("{} {rows}x{width}", p.name());
                let mut fresh = PgBatch::new();
                p.generate_rows_into(&image, &mut fresh);
                let want = outputs(&fresh);
                p.generate_rows_into(&counts, &mut fresh);
                assert_eq!(outputs(&fresh), want, "{at}");
                // The shared batch last evaluated another configuration.
                p.generate_rows_into(&counts, &mut shared);
                assert_eq!(outputs(&shared), want, "{at} after another pipeline");
                assert_eq!(shared.rows(width), rows, "{at}");
            }
        }
    }
}

#[test]
fn count_rows_read_as_label_scores_read_as_their_images() {
    let mut rng = SplitMix64::new(7);
    let (counts, image) = random_stride(&mut rng, 4, 3);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for row in 0..4 {
        counts.label_scores_into(row, &mut got);
        image.label_scores_into(row, &mut want);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "row {row}");
    }
}
