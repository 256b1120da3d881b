//! Probability Generation pipelines.
//!
//! A pipeline evaluates a stride of score rows ([`ScoreRows`]: log-domain
//! rows or factor rows) into unnormalized probabilities, modelling one of
//! the paper's PG datapath variants. The configuration axes mirror §III:
//! arithmetic precision, DyNorm on/off, exp-kernel implementation
//! (approximation vs LUT), and direct vs log-domain (LogFusion) factor
//! evaluation.

use coopmc_fixed::QFormat;
use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::{ExpKernel, FixedExp, TableExp};
use coopmc_kernels::fusion::{CountTables, DirectDatapath, LogFusion, RowCodes, StagePhases};
use coopmc_kernels::log::TableLog;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{factor_value, RowForm, ScoreRows};
use coopmc_sampler::Weights;

/// Output of one PG evaluation of a single label-score row, through
/// [`ProbabilityPipeline::generate_into`].
#[derive(Debug, Clone, Default)]
pub struct PgOutput {
    /// Unnormalized probabilities, one per label.
    pub probs: Vec<f64>,
    /// Primitive-operation tally.
    pub ops: OpCounts,
    /// DyNorm/exp-kernel observations from this evaluation (stack-only; the
    /// engine merges it into the sweep aggregate when a recorder is
    /// enabled). `None` fields mean the datapath produced no such value —
    /// e.g. the direct baseline has no NormTree maximum.
    pub telemetry: PgTelemetry,
    /// Per-stage wall-time accumulator for the kernel profiler. `None` (the
    /// default) reads no stage clock; `Some` makes a fused datapath add
    /// each evaluation's stage times here, across calls, without changing
    /// the result. Datapaths without a stage decomposition leave it as is.
    pub phases: Option<StagePhases>,
    /// The one-row batch the evaluation runs through.
    batch: PgBatch,
}

impl PgOutput {
    /// An empty output whose buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Equal evaluations: the buffers an evaluation runs through do not count.
impl PartialEq for PgOutput {
    fn eq(&self, other: &Self) -> bool {
        (&self.probs, self.ops, self.telemetry, self.phases)
            == (&other.probs, other.ops, other.telemetry, other.phases)
    }
}

/// Output of one PG evaluation over a stride of same-width score rows.
///
/// `probs` is row-major: row `r` of a width-`w` stride occupies
/// `probs[r*w .. (r+1)*w]`. `ops` carries one tally per row (a row's tally
/// does not depend on the rows evaluated with it, so modeled cycle totals
/// are batching-invariant), and `telemetry` is the merge of every row's
/// observations. The batch also owns the datapaths' working memory, so a
/// warm evaluation allocates nothing. SD reads the batch through
/// [`PgBatch::weights`].
///
/// Where the CoopMC datapath reads its ROM on bus words, the batch carries
/// each row's integer ROM codes and their total instead: there
/// [`ProbabilityPipeline::generate_rows_into`] leaves `probs` empty, and
/// the weights are the codes. The label-score entry points
/// ([`ProbabilityPipeline::generate_into`],
/// [`ProbabilityPipeline::generate_batch_into`]) also write the codes'
/// exact images `code · 2^-bit_lut` into `probs`; a caller that edits
/// them must draw from `probs` itself, not from the weights.
///
/// The batch keeps the CoopMC datapath's count-indexed log words
/// ([`CountTables`]) across evaluations, keyed by datapath, so one batch
/// may serve several pipelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PgBatch {
    /// Row-major unnormalized probabilities.
    pub probs: Vec<f64>,
    /// Per-row primitive-operation tallies.
    pub ops: Vec<OpCounts>,
    /// Merged DyNorm/exp-kernel observations across all rows.
    pub telemetry: PgTelemetry,
    /// Per-stage wall-time accumulator; same contract as
    /// [`PgOutput::phases`].
    pub phases: Option<StagePhases>,
    /// The CoopMC datapath's bus words and, after an evaluation on them,
    /// its codes and row totals.
    stage: RowCodes,
    /// The rows the label-score entry points convert their input to.
    label_rows: ScoreRows,
    /// The log words of count rows' columns, by count.
    count_tables: CountTables,
    /// A count row's `f64` image, for the pipelines that read factor rows
    /// as `f64` columns.
    image: Vec<f64>,
}

impl PgBatch {
    /// An empty batch whose buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the batch's outputs, `probs`, `ops`, `telemetry` and any
    /// codes, keeping its memory. A pipeline defined outside this crate
    /// starts its [`ProbabilityPipeline::generate_rows_into`] here, so that
    /// [`PgBatch::weights`] reads the `probs` it writes, not the codes of
    /// an earlier word-path evaluation.
    pub fn clear(&mut self) {
        self.probs.clear();
        self.ops.clear();
        self.telemetry = PgTelemetry::new();
        self.stage.forget();
    }

    /// Number of rows in the batch given its row width.
    pub fn rows(&self, width: usize) -> usize {
        self.weights().len() / width.max(1)
    }

    /// The row-major weights as SD reads them: the integer ROM codes and
    /// each row's total where the last evaluation wrote codes, otherwise
    /// `probs`.
    pub fn weights(&self) -> Weights<'_> {
        match self.stage.codes() {
            Some((codes, totals, bits)) => Weights::from_codes(codes, totals, bits),
            None => Weights::from(&self.probs),
        }
    }

    /// Where the last evaluation wrote codes, write their exact images
    /// into `probs`, as the label-score entry points hand them back.
    fn write_images(&mut self) {
        if let Some((codes, totals, bits)) = self.stage.codes() {
            self.probs.clear();
            self.probs
                .extend(Weights::from_codes(codes, totals, bits).images());
        }
    }

    /// Evaluate `rows` one row at a time, as the float and fixed pipelines
    /// do: `row_into(row, probs, telemetry)` appends a row's probabilities
    /// and returns its op tally, the row given as its log scores or its
    /// `f64` factor columns (a count row's image). Each row observes into a
    /// fresh telemetry that is then merged into the batch's.
    fn per_row(
        &mut self,
        rows: &ScoreRows,
        mut row_into: impl FnMut(Row<'_>, &mut Vec<f64>, &mut PgTelemetry) -> OpCounts,
    ) {
        self.clear();
        for row in 0..rows.len() {
            let row = match rows.log_row(row) {
                Some(logs) => Row::Log(logs),
                None => Row::Factors(rows.factor_columns(row, &mut self.image)),
            };
            let mut telemetry = PgTelemetry::new();
            self.ops
                .push(row_into(row, &mut self.probs, &mut telemetry));
            self.telemetry.merge(&telemetry);
        }
    }
}

/// One row as the float and fixed pipelines read it.
enum Row<'a> {
    /// A log row's scores.
    Log(&'a [f64]),
    /// A factor row's numerator and denominator columns.
    Factors((&'a [f64], &'a [f64])),
}

/// A Probability Generation datapath.
///
/// `Sync` because both engines share one pipeline across worker threads;
/// the datapaths' working memory lives in the caller's [`PgBatch`].
pub trait ProbabilityPipeline: Sync {
    /// Evaluate every row of `rows` into `out`, overwriting its previous
    /// contents: `out.ops` holds one tally per row, `out.telemetry` the
    /// merge of every row's observations, and [`PgBatch::weights`] the
    /// concatenated per-row weights. Those are `out.probs`, except on the
    /// CoopMC word path, which writes each row's ROM codes and their total
    /// and leaves `out.probs` empty (see [`PgBatch`]). A pipeline defined
    /// outside this crate writes `out.probs`, after [`PgBatch::clear`].
    ///
    /// Each row's result is **bit-identical** whichever rows it is
    /// evaluated with: implementations may fuse work across rows (the
    /// CoopMC pipeline evaluates a whole stride in one LogFusion call) but
    /// must preserve per-row results exactly. An empty stride has width 0
    /// and leaves `out` empty. The built-in pipelines keep their working
    /// memory in `out`, so a warm call performs **zero heap allocations** —
    /// the property the engines' hot path is built on. When `out.phases` is
    /// attached, fused datapaths also accumulate their stage times there
    /// (the result is bit-identical either way).
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch);

    /// Evaluate one row of label scores into `out`, overwriting its
    /// previous contents: the row, converted as
    /// [`ScoreRows::push_label_scores`] converts it, through
    /// [`ProbabilityPipeline::generate_batch_into`], so `out.probs` holds
    /// the row's probabilities on every datapath. Allocation-free once
    /// `out` is warm.
    fn generate_into(&self, scores: &[coopmc_models::LabelScore], out: &mut PgOutput) {
        let batch = &mut out.batch;
        batch.phases = out.phases;
        // An empty row is a batch of no rows (of any positive width).
        self.generate_batch_into(scores, scores.len().max(1), batch);
        std::mem::swap(&mut out.probs, &mut batch.probs);
        out.ops = batch.ops.first().copied().unwrap_or_default();
        out.telemetry = batch.telemetry;
        out.phases = batch.phases;
    }

    /// Evaluate a batch of same-width label-score rows: `scores` is
    /// row-major, `scores.len() / width` rows of `width` labels each,
    /// converted as [`ScoreRows::push_label_scores`] converts them and
    /// evaluated by one [`ProbabilityPipeline::generate_rows_into`] call.
    /// Where that call writes codes, their exact images are written into
    /// `out.probs` too. Allocation-free once `out` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `scores.len()` is not a multiple of
    /// `width`.
    fn generate_batch_into(
        &self,
        scores: &[coopmc_models::LabelScore],
        width: usize,
        out: &mut PgBatch,
    ) {
        let mut rows = std::mem::take(&mut out.label_rows);
        rows.clear();
        rows.push_label_scores(scores, width);
        // Only codes this evaluation writes may overwrite its `probs`.
        out.stage.forget();
        self.generate_rows_into(&rows, out);
        out.label_rows = rows;
        out.write_images();
    }

    /// Short human-readable name for reports.
    fn name(&self) -> String;
}

/// Full-precision float reference (the paper's "Float32" curves).
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatPipeline;

impl FloatPipeline {
    /// Create the reference pipeline.
    pub fn new() -> Self {
        Self
    }
}

/// Append one row's float probabilities, given its labels' log values.
///
/// Numerically stable reference: shift *every* value by the row's maximum
/// before exponentiation (the mathematical identity DyNorm exploits —
/// exact at float precision, Eq. 8).
fn float_row_into(
    logs: impl Iterator<Item = f64> + Clone,
    probs: &mut Vec<f64>,
    telemetry: &mut PgTelemetry,
) {
    let max_log = logs.clone().fold(f64::NEG_INFINITY, f64::max);
    if max_log == f64::NEG_INFINITY {
        // Every label carries zero mass (or there are none); emit a
        // well-defined all-zero row (samplers treat it as the
        // uniform-fallback regime).
        probs.extend(logs.map(|_| 0.0));
        return;
    }
    telemetry.observe_norm_max(max_log);
    probs.extend(logs.map(|lv| {
        if lv == f64::NEG_INFINITY {
            0.0
        } else {
            telemetry.observe_exp_input(lv - max_log);
            (lv - max_log).exp()
        }
    }));
}

impl ProbabilityPipeline for FloatPipeline {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        // A factor label enters through the log of its `factor_value`
        // (`-∞` for zero or negative mass), read down the row's columns.
        let w = rows.width();
        out.per_row(rows, |row, probs, telemetry| {
            match row {
                Row::Log(logs) => float_row_into(logs.iter().copied(), probs, telemetry),
                Row::Factors((nums, dens)) => {
                    let logs = (0..w).map(|l| {
                        let [n, d] = [nums, dens].map(|c| c.iter().skip(l).step_by(w).product());
                        match factor_value(n, d) {
                            value if value > 0.0 => value.ln(),
                            _ => f64::NEG_INFINITY,
                        }
                    });
                    float_row_into(logs, probs, telemetry)
                }
            }
            OpCounts::new()
        });
    }

    fn name(&self) -> String {
        "float32".to_owned()
    }
}

/// Plain fixed-point datapath: the prior-accelerator baseline that Fig. 2
/// and Fig. 10 show failing at low precision, with DyNorm optionally
/// switched on to rescue it.
#[derive(Debug, Clone, Copy)]
pub struct FixedPipeline {
    exp: FixedExp,
    fmt: QFormat,
    direct: DirectDatapath,
    dynorm: bool,
}

impl FixedPipeline {
    /// A datapath with `frac_bits` fractional bits; `dynorm` selects whether
    /// Dynamic Normalization precedes the exp kernel.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits` is 0 or wider than 46.
    pub fn new(frac_bits: u32, dynorm: bool) -> Self {
        assert!((1..=46).contains(&frac_bits), "frac_bits must be in 1..=46");
        let fmt = QFormat::new(15, frac_bits).expect("valid datapath format");
        Self {
            exp: FixedExp::new(frac_bits),
            fmt,
            direct: DirectDatapath::new(fmt),
            dynorm,
        }
    }

    /// Append one log-domain row's probabilities from the exp ALU:
    /// quantize the values onto the datapath format, normalize them when
    /// DyNorm is on, then exponentiate each in place.
    fn log_row_into(
        &self,
        row: &[f64],
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        let start = probs.len();
        probs.extend(row.iter().map(|&v| self.fmt.requantize_nearest(v)));
        let scores = &mut probs[start..];
        if self.dynorm {
            let report = dynorm_apply(scores, 1);
            ops.cmp += report.comparisons;
            ops.add += scores.len() as u64;
            telemetry.observe_norm_max(report.max);
        }
        for s in scores.iter_mut() {
            ops.approx += 1;
            telemetry.observe_exp_input(*s);
            *s = self.exp.exp(*s);
        }
        ops
    }
}

impl ProbabilityPipeline for FixedPipeline {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        // Split evaluation: log-domain rows run through the exp ALU
        // (optionally normalized); factor rows run the direct
        // multiplier/divider datapath (no NormTree, no exp kernel —
        // nothing to observe).
        out.per_row(rows, |row, probs, telemetry| match row {
            Row::Log(logs) => self.log_row_into(logs, probs, telemetry),
            Row::Factors(columns) => {
                self.direct
                    .evaluate_factors_into(columns, rows.width(), probs)
            }
        });
    }

    fn name(&self) -> String {
        format!(
            "fixed{}{}",
            self.fmt.frac_bits(),
            if self.dynorm { "+dynorm" } else { "" }
        )
    }
}

/// The full CoopMC datapath: LogFusion + DyNorm + TableExp (with a TableLog
/// for linear-domain factors), one [`LogFusion`] call per stride.
#[derive(Debug, Clone)]
pub struct CoopMcPipeline {
    fusion: LogFusion<TableLog, TableExp>,
    size_lut: usize,
    bit_lut: u32,
}

impl CoopMcPipeline {
    /// Build the datapath with the given TableExp parameters; the TableLog
    /// uses the same size/precision (its entry bits capped at 46), and the
    /// log-domain accumulator bus is the paper's Q15.16.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is outside `1..=52`.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        let fusion = LogFusion::new(
            TableLog::new(size_lut, bit_lut.min(46)),
            TableExp::new(size_lut, bit_lut),
            QFormat::baseline32(),
        );
        Self {
            fusion,
            size_lut,
            bit_lut,
        }
    }
}

impl ProbabilityPipeline for CoopMcPipeline {
    /// One [`LogFusion`] call per stride, whatever its row count, on the
    /// path the row form picks: log rows skip the log kernels, factor rows
    /// go TableLog → LogFusion, and count rows read their factors' log
    /// words by count from the batch's tables. On bus words the ROM read
    /// writes the batch's codes and row totals, and no probabilities.
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        let (fusion, width) = (&self.fusion, rows.width());
        let (stage, probs) = (&mut out.stage, &mut out.probs);
        let (ops, telemetry, phases) = (&mut out.ops, &mut out.telemetry, out.phases.as_mut());
        *telemetry = PgTelemetry::new();
        match rows.form() {
            RowForm::Log => fusion.evaluate_log_score_rows_into(
                rows.logs().unwrap_or_default(),
                width,
                stage,
                probs,
                ops,
                telemetry,
                phases,
            ),
            RowForm::Factors => fusion.evaluate_factor_rows_into(
                rows.factor_rows(),
                width,
                stage,
                probs,
                ops,
                telemetry,
                phases,
            ),
            RowForm::Counts => {
                let count_rows = rows.count_rows().map(|row| {
                    let columns = row.columns.iter().map(|c| (c.constant, c.bound));
                    (row.counts, row.numerators, columns)
                });
                fusion.evaluate_count_rows_into(
                    count_rows,
                    width,
                    &mut out.count_tables,
                    stage,
                    probs,
                    ops,
                    telemetry,
                    phases,
                )
            }
        }
    }

    fn name(&self) -> String {
        format!("coopmc-lut{}x{}", self.size_lut, self.bit_lut)
    }
}

/// Named pipeline configurations used across examples, tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineConfig {
    /// Full-precision float reference.
    Float32,
    /// Plain fixed point with `frac_bits`, optionally with DyNorm.
    Fixed {
        /// Fractional bits of the datapath.
        frac_bits: u32,
        /// Whether DyNorm precedes the exp kernel.
        dynorm: bool,
    },
    /// Full CoopMC datapath with the given TableExp parameters.
    CoopMc {
        /// TableExp entries.
        size_lut: usize,
        /// TableExp entry bits.
        bit_lut: u32,
    },
}

impl PipelineConfig {
    /// The float reference configuration.
    pub fn float32() -> Self {
        PipelineConfig::Float32
    }

    /// Plain fixed point (no DyNorm) — the prior-art baseline.
    pub fn fixed(frac_bits: u32) -> Self {
        PipelineConfig::Fixed {
            frac_bits,
            dynorm: false,
        }
    }

    /// Fixed point with DyNorm.
    pub fn fixed_dynorm(frac_bits: u32) -> Self {
        PipelineConfig::Fixed {
            frac_bits,
            dynorm: true,
        }
    }

    /// The full CoopMC datapath.
    pub fn coopmc(size_lut: usize, bit_lut: u32) -> Self {
        PipelineConfig::CoopMc { size_lut, bit_lut }
    }

    /// Build the configured pipeline.
    pub fn build(self) -> Box<dyn ProbabilityPipeline> {
        match self {
            PipelineConfig::Float32 => Box::new(FloatPipeline::new()),
            PipelineConfig::Fixed { frac_bits, dynorm } => {
                Box::new(FixedPipeline::new(frac_bits, dynorm))
            }
            PipelineConfig::CoopMc { size_lut, bit_lut } => {
                Box::new(CoopMcPipeline::new(size_lut, bit_lut))
            }
        }
    }
}

impl<P: ProbabilityPipeline + ?Sized> ProbabilityPipeline for Box<P> {
    fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
        (**self).generate_rows_into(rows, out)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use super::*;
    use coopmc_kernels::log::LOG_ZERO;
    use coopmc_models::LabelScore;

    fn log_scores(vals: &[f64]) -> Vec<LabelScore> {
        vals.iter().map(|&v| LabelScore::LogDomain(v)).collect()
    }

    /// One evaluation into a fresh output.
    fn generate(p: &(impl ProbabilityPipeline + ?Sized), scores: &[LabelScore]) -> PgOutput {
        let mut out = PgOutput::new();
        p.generate_into(scores, &mut out);
        out
    }

    #[test]
    fn float_pipeline_matches_softmax_ratios() {
        let p = FloatPipeline::new();
        let out = generate(&p, &log_scores(&[-3.0, -1.0, -2.0]));
        let r = out.probs[1] / out.probs[0];
        assert!((r - (2.0f64).exp()).abs() < 1e-12);
        assert_eq!(
            out.probs[1], 1.0,
            "max score maps to 1 after the stability shift"
        );
    }

    #[test]
    fn fixed_low_precision_without_dynorm_flushes() {
        // The Fig. 2 failure mode: large negative scores, 4-bit exp kernel.
        let p = FixedPipeline::new(4, false);
        let out = generate(&p, &log_scores(&[-20.0, -18.0, -19.0]));
        assert!(out.probs.iter().all(|&x| x == 0.0), "{:?}", out.probs);
    }

    #[test]
    fn fixed_low_precision_with_dynorm_recovers() {
        let p = FixedPipeline::new(4, true);
        let out = generate(&p, &log_scores(&[-20.0, -18.0, -19.0]));
        assert_eq!(out.probs[1], 1.0);
        assert!(out.probs[0] < out.probs[2] && out.probs[2] < out.probs[1]);
    }

    #[test]
    fn coopmc_pipeline_handles_both_score_forms() {
        let p = CoopMcPipeline::new(128, 16);
        let log_out = generate(&p, &log_scores(&[-9.0, -8.0]));
        assert_eq!(log_out.probs[1], 1.0);
        let factor_out = generate(
            &p,
            &[
                LabelScore::Factors {
                    numerators: vec![0.2, 0.5],
                    denominators: vec![0.8],
                },
                LabelScore::Factors {
                    numerators: vec![0.4, 0.5],
                    denominators: vec![0.8],
                },
            ],
        );
        assert!(factor_out.probs[1] > factor_out.probs[0]);
    }

    /// Factor label scores, one `(numerators, denominators)` pair per label.
    fn factor_scores(labels: &[(&[f64], &[f64])]) -> Vec<LabelScore> {
        let score = |&(n, d): &(&[f64], &[f64])| LabelScore::Factors {
            numerators: n.to_vec(),
            denominators: d.to_vec(),
        };
        labels.iter().map(score).collect()
    }

    #[test]
    fn factor_rows_match_probs_recorded_before_rows_were_columns() {
        // A stride of 3-label rows of one arity each: single numerators
        // (what a mixed row's log entries used to become), LDA's two
        // numerators over one denominator, three numerators, and one
        // numerator over two denominators. Recorded before factor rows were
        // stored as columns.
        let (a, b) = ((-1.3f64).exp(), (-0.4f64).exp());
        let stride = [
            factor_scores(&[(&[a], &[]), (&[b], &[]), (&[0.75], &[])]),
            factor_scores(&[
                (&[0.2, 0.5], &[0.8]),
                (&[0.4, 0.5], &[0.8]),
                (&[12.5, 1.0], &[40.0]),
            ]),
            factor_scores(&[
                (&[0.7, 3.25, 0.01], &[]),
                (&[0.5; 3], &[]),
                (&[1.0, 0.2, 0.3], &[]),
            ]),
            factor_scores(&[
                (&[12.5], &[40.0, 0.3]),
                (&[1.0], &[2.0, 0.5]),
                (&[0.3], &[0.3, 0.3]),
            ]),
        ]
        .concat();
        let fused = |factors: u64| OpCounts {
            add: factors + 3,
            lut: factors + 3,
            cmp: 3,
            ..OpCounts::new()
        };
        let direct = |mul: u64, div: u64| OpCounts {
            mul,
            div,
            ..OpCounts::new()
        };
        let fused = [fused(3), fused(9), fused(9), fused(9)];
        let direct = [direct(3, 0), direct(6, 3), direct(9, 0), direct(3, 6)];
        type Case = (Box<dyn ProbabilityPipeline>, [f64; 12], [OpCounts; 4]);
        let cases: [Case; 4] = [
            (
                Box::new(CoopMcPipeline::new(64, 8)),
                [
                    0.3671875, 1.0, 1.0, 0.47265625, 1.0, 1.0, 0.22265625, 1.0, 0.47265625,
                    0.3671875, 0.3671875, 1.0,
                ],
                fused,
            ),
            (
                Box::new(CoopMcPipeline::new(1024, 24)),
                [
                    0.3678794503211975,
                    0.8963941931724548,
                    1.0,
                    0.4040365219116211,
                    0.8035225868225098,
                    1.0,
                    0.18211352825164795,
                    1.0,
                    0.47980523109436035,
                    0.31466394662857056,
                    0.3002544641494751,
                    1.0,
                ],
                fused,
            ),
            (
                Box::new(FixedPipeline::new(8, true)),
                [
                    0.2734375, 0.671875, 0.75, 0.12109375, 0.24609375, 0.3125, 0.0234375, 0.125,
                    0.05859375, 1.03515625, 1.0, 3.32421875,
                ],
                direct,
            ),
            (
                Box::new(FixedPipeline::new(24, false)),
                [
                    0.27253180742263794,
                    0.6703200340270996,
                    0.75,
                    0.12499994039535522,
                    0.24999994039535522,
                    0.3125,
                    0.02274996042251587,
                    0.125,
                    0.059999942779541016,
                    1.041666567325592,
                    1.0,
                    3.333333194255829,
                ],
                direct,
            ),
        ];
        for (p, probs, ops) in &cases {
            let mut batch = PgBatch::new();
            p.generate_batch_into(&stride, 3, &mut batch);
            assert_eq!(batch.probs, probs, "{}", p.name());
            assert_eq!(batch.ops, ops, "{}", p.name());
        }
    }

    #[test]
    fn config_builds_expected_variants() {
        assert_eq!(PipelineConfig::float32().build().name(), "float32");
        assert_eq!(PipelineConfig::fixed(8).build().name(), "fixed8");
        assert_eq!(
            PipelineConfig::fixed_dynorm(8).build().name(),
            "fixed8+dynorm"
        );
        assert_eq!(
            PipelineConfig::coopmc(64, 8).build().name(),
            "coopmc-lut64x8"
        );
    }

    #[test]
    fn pipelines_agree_on_argmax_for_moderate_scores() {
        let scores = log_scores(&[-4.0, -2.5, -3.1, -6.0]);
        let argmax = |probs: &[f64]| {
            probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        let f = generate(&FloatPipeline::new(), &scores);
        let x = generate(&FixedPipeline::new(8, true), &scores);
        let c = generate(&CoopMcPipeline::new(64, 8), &scores);
        assert_eq!(argmax(&f.probs), 1);
        assert_eq!(argmax(&x.probs), 1);
        assert_eq!(argmax(&c.probs), 1);
    }

    #[test]
    fn float_pipeline_mixed_scores_share_one_scale() {
        // Regression: labels whose mass comes from different factors (a
        // numerator product, a denominator, a numerator alone) must be
        // shifted by the SAME constant, or their relative weights distort.
        let p = FloatPipeline::new();
        let out = generate(
            &p,
            &factor_scores(&[
                (&[0.5, 0.5], &[1.0]),
                (&[0.5, 1.0], &[2.0]),
                (&[0.5, 1.0], &[1.0]),
            ]),
        );
        // The labels carry probability 0.25/0.25/0.5 — equal scores must
        // come out equal regardless of which factors carry them.
        assert!(
            (out.probs[0] - out.probs[1]).abs() < 1e-12,
            "{:?}",
            out.probs
        );
        assert!((out.probs[2] / out.probs[0] - 2.0).abs() < 1e-12);
        assert_eq!(out.probs[2], 1.0, "max score maps to 1 after the shift");
    }

    #[test]
    fn float_pipeline_degenerate_cases_are_well_defined() {
        let p = FloatPipeline::new();
        assert!(generate(&p, &[]).probs.is_empty());
        // All labels carry zero mass (a zero numerator, a zero denominator):
        // emit zeros (uniform-fallback regime), never NaN.
        let out = generate(&p, &factor_scores(&[(&[0.0], &[1.0]), (&[1.0], &[0.0])]));
        assert_eq!(out.probs, vec![0.0, 0.0]);
        // A zero-mass factor label among live ones stays exactly zero.
        let out = generate(
            &p,
            &factor_scores(&[(&[0.0], &[]), (&[(-1.0f64).exp()], &[])]),
        );
        assert_eq!(out.probs[0], 0.0);
        assert_eq!(out.probs[1], 1.0);
    }

    #[test]
    fn empty_strides_are_empty_for_every_pipeline() {
        // CoopMC on bus words (64x8) and on the f64 path (48x8); the batch
        // starts with stale contents that no call may leave behind.
        let pipelines: [Box<dyn ProbabilityPipeline>; 5] = [
            Box::new(FloatPipeline::new()),
            Box::new(FixedPipeline::new(8, true)),
            Box::new(FixedPipeline::new(8, false)),
            Box::new(CoopMcPipeline::new(64, 8)),
            Box::new(CoopMcPipeline::new(48, 8)),
        ];
        for p in &pipelines {
            let mut out = PgBatch::new();
            out.probs.push(7.0);
            out.ops.push(OpCounts::new());
            out.telemetry.observe_norm_max(1e300);
            p.generate_rows_into(&ScoreRows::new(), &mut out);
            assert!(out.probs.is_empty(), "{}", p.name());
            assert!(out.ops.is_empty(), "{}", p.name());
            assert_eq!(out.telemetry, PgTelemetry::default(), "{}", p.name());
        }
    }

    #[test]
    fn reused_and_phased_outputs_are_bit_identical_for_all_pipelines() {
        let log = log_scores(&[-4.0, -2.5, -3.1, -0.7]);
        let factors = vec![
            LabelScore::Factors {
                numerators: vec![0.2, 0.5],
                denominators: vec![0.8],
            },
            LabelScore::Factors {
                numerators: vec![0.4, 0.5],
                denominators: vec![0.8],
            },
        ];
        let pipelines: Vec<Box<dyn ProbabilityPipeline>> = vec![
            Box::new(FloatPipeline::new()),
            Box::new(FixedPipeline::new(8, true)),
            Box::new(FixedPipeline::new(8, false)),
            Box::new(CoopMcPipeline::new(64, 8)),
        ];
        // One dirty reused output across pipelines and score forms, and one
        // with the stage accumulator attached.
        let mut out = PgOutput::new();
        let mut phased = PgOutput {
            phases: Some(StagePhases::default()),
            ..PgOutput::new()
        };
        for p in &pipelines {
            for scores in [&log, &factors] {
                let fresh = generate(p, scores);
                p.generate_into(scores, &mut out);
                assert_eq!(fresh, out, "{} diverged on reuse", p.name());
                p.generate_into(scores, &mut phased);
                assert_eq!(fresh.probs, phased.probs, "{} diverged phased", p.name());
                assert_eq!(fresh.ops, phased.ops);
                assert_eq!(fresh.telemetry, phased.telemetry);
            }
        }
        // CoopMC decomposes into stages; the float reference does not.
        assert_ne!(phased.phases, Some(StagePhases::default()));
        let mut float = PgOutput {
            phases: Some(StagePhases::default()),
            ..PgOutput::new()
        };
        FloatPipeline::new().generate_into(&log, &mut float);
        assert_eq!(float.phases, Some(StagePhases::default()));

        // The batched path agrees too, for both score forms.
        let p = CoopMcPipeline::new(64, 8);
        for scores in [&log, &factors] {
            let mut batch = PgBatch::new();
            let mut pbatch = PgBatch {
                phases: Some(StagePhases::default()),
                ..PgBatch::new()
            };
            p.generate_batch_into(scores, 2, &mut batch);
            p.generate_batch_into(scores, 2, &mut pbatch);
            assert_eq!(batch.probs, pbatch.probs);
            assert_eq!(batch.ops, pbatch.ops);
            assert_eq!(batch.telemetry, pbatch.telemetry);
            assert_ne!(pbatch.phases, Some(StagePhases::default()));
        }
    }

    #[test]
    fn op_counts_reported_for_fixed_path() {
        let p = FixedPipeline::new(8, true);
        let out = generate(&p, &log_scores(&[-1.0, -2.0, -3.0]));
        assert_eq!(out.ops.approx, 3, "one exp ALU call per label");
        assert!(out.ops.cmp > 0, "DyNorm comparators must be counted");
    }

    /// `rows` factor rows of `width` labels, one arity per row, each label
    /// a `(numerators, denominators)` pair: shaped like LDA's (two
    /// numerators, one denominator) or, with `lda == false`, like a BN
    /// Markov blanket's (one to three numerators by row, some of them zero,
    /// no denominator).
    fn factor_labels(rows: usize, width: usize, lda: bool) -> Vec<(Vec<f64>, Vec<f64>)> {
        (0..rows * width)
            .map(|i| {
                let u = |k: usize| (((i * 7 + k * 13) % 23) as f64 + 0.5) / 23.0;
                if lda {
                    (
                        vec![40.0 * u(0) + 0.1, 9.0 * u(1) + 0.01],
                        vec![300.0 * u(2) + 2.5],
                    )
                } else {
                    let zero = |k: usize| (i + k).is_multiple_of(11);
                    let numerators =
                        (0..1 + i / width % 3).map(|k| if zero(k) { 0.0 } else { u(k) });
                    (numerators.collect(), Vec::new())
                }
            })
            .collect()
    }

    /// A stride's probabilities, tallies and telemetry as bits, so NaN
    /// and the sign of zero compare too.
    fn as_bits(probs: &[f64], ops: &[OpCounts], tel: &PgTelemetry) -> impl PartialEq + Debug {
        let probs: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        let tel = [tel.norm_max, tel.exp_in_min, tel.exp_in_max].map(|v| v.map(f64::to_bits));
        (probs, ops.to_vec(), tel)
    }

    /// The probabilities a batch hands SD, as `f64`s: `probs`, or the
    /// codes' exact images where the last evaluation wrote codes.
    fn images(batch: &PgBatch) -> Vec<f64> {
        batch.weights().images().collect()
    }

    /// Require the weights `batch.weights()` hands SD for each
    /// `width`-label row: codes with one total per row and no `f64`
    /// weights when the pipeline reads its ROM at `bits` fraction bits,
    /// read as codes only while `bits + ⌈log₂ width⌉ ≤ 53`; `f64` weights
    /// otherwise.
    fn assert_codes(batch: &PgBatch, width: usize, bits: Option<u32>, at: &str) {
        let depth = width.next_power_of_two().trailing_zeros();
        let exact = bits.filter(|&b| b + depth <= 53);
        for (row, weights) in batch.weights().rows(width).enumerate() {
            assert_eq!(weights.probs().is_none(), bits.is_some(), "{at} row {row}");
            assert_eq!(weights.codes().map(|(_, b)| b), exact, "{at} row {row}");
        }
    }

    #[test]
    fn batch_generate_is_bit_identical_to_scalar_for_all_pipelines() {
        // CoopMC on bus words (64x8, 1024x24, and 64x52, whose 64-label
        // rows are too wide for exact code sums) and on the f64 path
        // (48x8), each with the fraction bits of the codes it reads.
        let pipelines: Vec<(Box<dyn ProbabilityPipeline>, Option<u32>)> = vec![
            (Box::new(FloatPipeline::new()), None),
            (Box::new(FixedPipeline::new(8, true)), None),
            (Box::new(FixedPipeline::new(8, false)), None),
            (Box::new(CoopMcPipeline::new(64, 8)), Some(8)),
            (Box::new(CoopMcPipeline::new(1024, 24)), Some(24)),
            (Box::new(CoopMcPipeline::new(64, 52)), Some(52)),
            (Box::new(CoopMcPipeline::new(48, 8)), None),
        ];
        // One batch reused across pipelines, shapes, row forms and both
        // stride entry points, with the stage accumulator detached and
        // attached, and left with stale contents that no call may read:
        // another datapath's codes and totals among them.
        let mut other_rows = ScoreRows::new();
        other_rows
            .push_log_row(3)
            .copy_from_slice(&[-1.0, -7.0, -2.5]);
        let stale = |batch: &mut PgBatch| {
            CoopMcPipeline::new(16, 4).generate_rows_into(&other_rows, batch);
            batch.probs.push(7.0);
            batch.ops.push(OpCounts {
                add: 99,
                ..OpCounts::new()
            });
            batch.telemetry.observe_norm_max(1e300);
            batch.telemetry.observe_exp_input(-1e300);
        };
        let mut attached = PgBatch::new();
        attached.phases = Some(StagePhases::default());
        let mut outs = [PgBatch::new(), attached];
        // Row counts on either side of the 8-row stride, several widths,
        // and 64-label rows.
        for (rows, width) in [
            (1usize, 2usize),
            (3, 2),
            (7, 3),
            (8, 2),
            (9, 5),
            (16, 4),
            (3, 64),
            (8, 64),
        ] {
            // Now and then a LOG_ZERO, NaN or infinite score, where a row's
            // min/max telemetry could part from per-score observation.
            let specials = [LOG_ZERO, f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
            let values: Vec<f64> = (0..rows * width)
                .map(|i| match i % 13 {
                    5 => specials[(i / 13) % specials.len()],
                    _ => -(((i * 7) % 23) as f64) * 0.43 - 0.1,
                })
                .collect();
            // Each form as label scores and as a stride gathered natively.
            let mut log_rows = ScoreRows::new();
            for row in values.chunks_exact(width) {
                log_rows.push_log_row(width).copy_from_slice(row);
            }
            let mut inputs = vec![(log_scores(&values), log_rows)];
            for lda in [true, false] {
                let labels = factor_labels(rows, width, lda);
                let mut stride = ScoreRows::new();
                for row in labels.chunks_exact(width) {
                    let (n, d) = (row[0].0.len(), row[0].1.len());
                    let columns = stride.push_factor_row(width, n, d);
                    for (l, (nums, dens)) in row.iter().enumerate() {
                        for (c, &x) in nums.iter().chain(dens).enumerate() {
                            columns[c * width + l] = x;
                        }
                    }
                }
                let scores =
                    labels
                        .into_iter()
                        .map(|(numerators, denominators)| LabelScore::Factors {
                            numerators,
                            denominators,
                        });
                inputs.push((scores.collect(), stride));
            }
            for (flat, stride) in &inputs {
                for (p, bits) in &pipelines {
                    let (mut probs, mut ops, mut merged) =
                        (Vec::new(), Vec::new(), PgTelemetry::new());
                    for row_scores in flat.chunks_exact(width) {
                        let scalar = generate(p, row_scores);
                        probs.extend_from_slice(&scalar.probs);
                        ops.push(scalar.ops);
                        merged.merge(&scalar.telemetry);
                    }
                    let want = as_bits(&probs, &ops, &merged);
                    let got = |b: &PgBatch| as_bits(&images(b), &b.ops, &b.telemetry);
                    for batch in &mut outs {
                        let attached = batch.phases.is_some();
                        let log = stride.logs().is_some();
                        let at = format!("{} {rows}x{width} log {log} phases {attached}", p.name());
                        stale(batch);
                        p.generate_batch_into(flat, width, batch);
                        assert_eq!(batch.rows(width), rows, "{at}");
                        assert_eq!(got(batch), want, "{at}");
                        // The label-score entry point writes the images.
                        let to_bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                        assert_eq!(to_bits(&batch.probs), to_bits(&images(batch)), "{at}");
                        assert_codes(batch, width, *bits, &at);
                        stale(batch);
                        p.generate_rows_into(stride, batch);
                        assert_eq!(got(batch), want, "{at} rows");
                        // On bus words the row entry point writes no probs.
                        assert_eq!(batch.probs.is_empty(), bits.is_some(), "{at} rows");
                        assert_codes(batch, width, *bits, &format!("{at} rows"));
                        assert_eq!(batch.phases.is_some(), attached, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_arity_factor_strides_match_recorded_bits() {
        // A stride of LDA-shaped rows (numerators and denominators) and one
        // of BN-shaped rows (numerators only): one arity per row, several
        // per stride, with zero, subnormal, NaN and infinite factors and
        // rows of no factors at all. Each pipeline's FNV-1a digest of the
        // probability bits (the codes' images on bus words), codes, op
        // tallies and telemetry was recorded before factor rows were stored
        // as columns.
        let value = |i: usize| match i % 19 {
            4 => 0.0,
            9 => f64::MIN_POSITIVE / 8.0,
            13 if i.is_multiple_of(3) => f64::NAN,
            16 if i.is_multiple_of(2) => f64::INFINITY,
            _ => ((i * 7919) % 997) as f64 / 61.0 + 0.01,
        };
        let stride = |width: usize, arities: &[(usize, usize)]| {
            let mut next = (0..).map(value);
            let mut rows = ScoreRows::new();
            for &(n, d) in arities {
                let row: Vec<LabelScore> = (0..width)
                    .map(|_| LabelScore::Factors {
                        numerators: next.by_ref().take(n).collect(),
                        denominators: next.by_ref().take(d).collect(),
                    })
                    .collect();
                rows.push_label_scores(&row, width);
            }
            rows
        };
        let lda = stride(5, &[(2, 1), (2, 1), (1, 2), (3, 1), (0, 1), (2, 0)]);
        let bn = stride(3, &[(2, 0), (1, 0), (3, 0), (1, 0), (0, 0), (4, 0)]);
        let digest = |b: &PgBatch| {
            let t = &b.telemetry;
            let tel = [t.norm_max, t.exp_in_min, t.exp_in_max]
                .into_iter()
                .flat_map(|v| [v.is_some() as u64, v.map_or(0, f64::to_bits)]);
            let ops = b
                .ops
                .iter()
                .flat_map(|o| [o.add, o.mul, o.div, o.lut, o.approx, o.cmp]);
            let codes = b.stage.codes();
            (images(b).into_iter().map(f64::to_bits))
                .chain(codes.into_iter().flat_map(|(c, _, _)| c.iter().copied()))
                .chain(codes.map(|(_, _, bits)| u64::from(bits)))
                .chain(ops)
                .chain(tel)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                    (h ^ w).wrapping_mul(0x100_0000_01b3)
                })
        };
        let recorded: [(Box<dyn ProbabilityPipeline>, [u64; 2]); 7] = [
            (
                Box::new(FloatPipeline::new()),
                [0x7bae_4a2b_f4d4_d26d, 0xafc2_b71d_5dea_fa13],
            ),
            (
                Box::new(FixedPipeline::new(8, true)),
                [0x77dd_3405_02fe_5427, 0x6b04_9cd9_6821_677c],
            ),
            (
                Box::new(FixedPipeline::new(8, false)),
                [0x77dd_3405_02fe_5427, 0x6b04_9cd9_6821_677c],
            ),
            (
                Box::new(CoopMcPipeline::new(64, 8)),
                [0xc923_ffbf_2e05_4368, 0x85f8_75ee_4cc0_4e00],
            ),
            (
                Box::new(CoopMcPipeline::new(1024, 24)),
                [0xcce3_6c5b_f4be_c6c5, 0x83f8_7089_3082_5d39],
            ),
            (
                Box::new(CoopMcPipeline::new(64, 52)),
                [0xc960_7fcd_29c9_3b69, 0xda86_40a9_34d8_146b],
            ),
            (
                Box::new(CoopMcPipeline::new(48, 8)),
                [0xd08f_16a3_704f_42f8, 0x71c1_966a_c02c_e6d6],
            ),
        ];
        for (p, want) in &recorded {
            let got = [&lda, &bn].map(|rows| {
                let mut batch = PgBatch::new();
                p.generate_rows_into(rows, &mut batch);
                digest(&batch)
            });
            assert_eq!(&got, want, "{}", p.name());
        }
    }

    /// A pipeline written as one outside this crate writes it, through the
    /// batch's public fields: each label's probability is the exp of its
    /// log score, written after a [`PgBatch::clear`] when `clears` is set.
    struct Outside {
        clears: bool,
    }

    impl ProbabilityPipeline for Outside {
        fn generate_rows_into(&self, rows: &ScoreRows, out: &mut PgBatch) {
            if self.clears {
                out.clear();
            }
            out.probs.clear();
            out.probs
                .extend(rows.logs().unwrap_or_default().iter().map(|s| s.exp()));
            out.ops.clear();
            out.ops.resize(rows.len(), OpCounts::new());
        }

        fn name(&self) -> String {
            "outside".to_owned()
        }
    }

    #[test]
    fn batches_the_word_path_filled_serve_pipelines_defined_elsewhere() {
        let scores = [-1.0, -2.0, -0.5, -3.0];
        let want: Vec<f64> = scores.iter().map(|s: &f64| s.exp()).collect();
        let word_path = CoopMcPipeline::new(64, 8);
        let (mut batch, mut out) = (PgBatch::new(), PgOutput::new());
        // The label-score entry points write no earlier call's codes over
        // the probabilities, whether or not the pipeline clears the batch.
        for clears in [false, true] {
            let p = Outside { clears };
            word_path.generate_batch_into(&log_scores(&scores), 2, &mut batch);
            assert!(batch.weights().probs().is_none(), "word-path codes");
            p.generate_batch_into(&log_scores(&scores), 2, &mut batch);
            assert_eq!(batch.probs, want, "batch, clears {clears}");
            assert_eq!(images(&batch), want, "batch weights, clears {clears}");
            word_path.generate_into(&log_scores(&scores), &mut out);
            p.generate_into(&log_scores(&scores), &mut out);
            assert_eq!(out.probs, want, "one row, clears {clears}");
        }
        // Through the row entry point, a pipeline that starts from `clear`
        // hands SD its own probabilities.
        let mut rows = ScoreRows::new();
        for row in scores.chunks_exact(2) {
            rows.push_log_row(2).copy_from_slice(row);
        }
        word_path.generate_rows_into(&rows, &mut batch);
        assert!(batch.weights().probs().is_none(), "word-path codes");
        Outside { clears: true }.generate_rows_into(&rows, &mut batch);
        assert_eq!(batch.weights().probs(), Some(&want[..]));
    }

    #[test]
    fn batch_generate_handles_factor_rows_via_scalar_fallback() {
        // Factor rows run as one stride, each row as it would alone.
        let p = CoopMcPipeline::new(128, 16);
        let rows: Vec<LabelScore> = (0..6)
            .map(|i| LabelScore::Factors {
                numerators: vec![0.2 + 0.1 * i as f64, 0.5],
                denominators: vec![0.8],
            })
            .collect();
        let mut batch = PgBatch::new();
        p.generate_batch_into(&rows, 2, &mut batch);
        for (r, row_scores) in rows.chunks_exact(2).enumerate() {
            let scalar = generate(&p, row_scores);
            assert_eq!(batch.probs[r * 2..(r + 1) * 2], scalar.probs[..], "row {r}");
            assert_eq!(batch.ops[r], scalar.ops, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the row width")]
    fn batch_generate_rejects_ragged_input() {
        let p = CoopMcPipeline::new(64, 8);
        let mut batch = PgBatch::new();
        p.generate_batch_into(&log_scores(&[-1.0, -2.0, -3.0]), 2, &mut batch);
    }
}
