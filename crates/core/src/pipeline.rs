//! Probability Generation pipelines.
//!
//! A pipeline evaluates a vector of [`LabelScore`]s, or a flat stride of
//! log-domain rows, into unnormalized probabilities, modelling one of the
//! paper's PG datapath variants. The configuration axes mirror §III:
//! arithmetic precision, DyNorm on/off, exp-kernel implementation
//! (approximation vs LUT), and direct vs log-domain (LogFusion) factor
//! evaluation.

use std::cell::RefCell;

use coopmc_fixed::QFormat;
use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::{ExpKernel, FixedExp, TableExp};
use coopmc_kernels::fusion::{DirectDatapath, LogFusion, StagePhases};
use coopmc_kernels::log::TableLog;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::LabelScore;

/// Output of one PG evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
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
}

impl PgOutput {
    /// An empty output whose buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Output of one batched PG evaluation over several same-width score rows.
///
/// `probs` is row-major: row `r` of a width-`w` batch occupies
/// `probs[r*w .. (r+1)*w]`. `ops` carries one tally per row (identical to
/// what a scalar [`ProbabilityPipeline::generate_into`] call on that row
/// would report, so modeled cycle totals are batching-invariant), and
/// `telemetry` is the merge of every row's observations.
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
    /// Scalar scratch reused by the row-loop fallback path.
    row: PgOutput,
}

impl PgBatch {
    /// An empty batch whose buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in the batch given its row width.
    pub fn rows(&self, width: usize) -> usize {
        self.probs.len() / width.max(1)
    }

    /// The probability slice of row `row` for a width-`width` batch.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range.
    pub fn probs_row(&self, row: usize, width: usize) -> &[f64] {
        &self.probs[row * width..(row + 1) * width]
    }
}

/// Check that `len` scores split into whole rows of `width`.
fn assert_rows(len: usize, width: usize) {
    assert!(width > 0, "row width must be positive");
    assert_eq!(
        len % width,
        0,
        "batch length must be a multiple of the row width"
    );
}

/// Shared row-loop fallback: evaluate each row through the scalar
/// `generate_into` path. Bit-identical by construction; used as the default
/// `generate_batch_into` and by pipelines for score forms their fused batch
/// path does not cover.
fn batch_rows_via_scalar<P: ProbabilityPipeline + ?Sized>(
    pipeline: &P,
    scores: &[LabelScore],
    width: usize,
    out: &mut PgBatch,
) {
    assert_rows(scores.len(), width);
    out.probs.clear();
    out.ops.clear();
    out.telemetry = PgTelemetry::new();
    out.row.phases = out.phases;
    for row in scores.chunks_exact(width) {
        pipeline.generate_into(row, &mut out.row);
        out.probs.extend_from_slice(&out.row.probs);
        out.ops.push(out.row.ops);
        out.telemetry.merge(&out.row.telemetry);
    }
    out.phases = out.row.phases;
}

/// Evaluate a flat stride of log-domain rows one row at a time with
/// `row_into`, which appends the row's probabilities and returns its op
/// tally. Each row's telemetry is merged as [`batch_rows_via_scalar`]
/// merges it, so a pipeline whose `row_into` is its scalar log-domain
/// kernel keeps the batch contract.
fn log_rows_via(
    scores: &[f64],
    width: usize,
    out: &mut PgBatch,
    mut row_into: impl FnMut(&[f64], &mut Vec<f64>, &mut PgTelemetry) -> OpCounts,
) {
    assert_rows(scores.len(), width);
    out.probs.clear();
    out.ops.clear();
    out.telemetry = PgTelemetry::new();
    for row in scores.chunks_exact(width) {
        let mut telemetry = PgTelemetry::new();
        out.ops.push(row_into(row, &mut out.probs, &mut telemetry));
        out.telemetry.merge(&telemetry);
    }
}

/// The row's values if every entry is [`LabelScore::LogDomain`].
fn log_values(scores: &[LabelScore]) -> Option<impl Iterator<Item = f64> + '_> {
    let all_log = scores.iter().all(|s| matches!(s, LabelScore::LogDomain(_)));
    all_log.then(|| {
        scores.iter().map(|s| match s {
            LabelScore::LogDomain(v) => *v,
            LabelScore::Factors { .. } => unreachable!("every entry is log-domain"),
        })
    })
}

/// Per-thread working memory shared by the pipeline implementations.
///
/// Living in a `thread_local` (rather than inside each pipeline) keeps the
/// pipelines `Sync` — the parallel engines share one pipeline across worker
/// threads — while still letting every thread's hot path reuse warm buffers.
#[derive(Debug, Default)]
struct PgScratch {
    /// Quantized/accumulated log-domain scores, or the `v.exp()` numerators
    /// a factor datapath reads for a row's `LogDomain` entries.
    log_scores: Vec<f64>,
    /// Secondary work buffer handed to the fused kernels.
    work: Vec<f64>,
}

thread_local! {
    static PG_SCRATCH: RefCell<PgScratch> = RefCell::new(PgScratch::default());
}

/// Every label's `(numerators, denominators)` row, read where `scores`
/// keeps it. A `LogDomain(v)` entry enters as the single numerator
/// `v.exp()`, staged in `exps`.
fn factor_rows<'a>(
    scores: &'a [LabelScore],
    exps: &'a mut Vec<f64>,
) -> impl Iterator<Item = (&'a [f64], &'a [f64])> {
    exps.clear();
    exps.extend(scores.iter().map(|s| match s {
        LabelScore::LogDomain(v) => v.exp(),
        LabelScore::Factors { .. } => 0.0,
    }));
    scores.iter().zip(exps.iter()).map(|(s, e)| match s {
        LabelScore::Factors {
            numerators,
            denominators,
        } => (numerators.as_slice(), denominators.as_slice()),
        LabelScore::LogDomain(_) => (std::slice::from_ref(e), &[][..]),
    })
}

/// A Probability Generation datapath.
///
/// `Sync` because both engines share one pipeline across worker threads;
/// the built-in datapaths keep their working memory in per-thread scratch.
pub trait ProbabilityPipeline: Sync {
    /// Evaluate the label scores into a caller-owned [`PgOutput`],
    /// overwriting its previous contents.
    ///
    /// The built-in pipelines reuse `out.probs` and per-thread scratch
    /// buffers, so a warm steady-state call performs **zero heap
    /// allocations** — the property the Gibbs engine's hot path is built
    /// on. When `out.phases` is attached, fused datapaths also accumulate
    /// their stage times there (the result is bit-identical either way).
    fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput);

    /// Evaluate a whole batch of same-width score rows in one call.
    ///
    /// `scores` is row-major: `scores.len() / width` rows of exactly
    /// `width` labels each. The result is **bit-identical** to calling
    /// [`ProbabilityPipeline::generate_into`] once per row — `out.probs`
    /// holds the concatenated per-row probability vectors and `out.ops`
    /// one tally per row. Implementations may fuse work across rows (the
    /// CoopMC pipeline batches its quantize pass, NormTree reduction and
    /// lane-packed TableExp gather) but must preserve per-row results
    /// exactly; the default implementation is the plain row loop.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `scores.len()` is not a multiple of
    /// `width`.
    fn generate_batch_into(&self, scores: &[LabelScore], width: usize, out: &mut PgBatch) {
        batch_rows_via_scalar(self, scores, width, out);
    }

    /// Evaluate a flat stride of log-domain rows, read where they lie.
    ///
    /// `scores` is row-major like [`generate_batch_into`]'s input, holding
    /// each row's log-domain values directly. The result — probs, per-row
    /// ops, merged telemetry and the attached phases — is
    /// **bit-identical** to `generate_batch_into` over the same rows as
    /// [`LabelScore::LogDomain`] entries. The default wraps the rows into
    /// a fresh `LabelScore` buffer and makes that call, so it allocates;
    /// the built-in pipelines evaluate the rows in place and do not.
    ///
    /// [`generate_batch_into`]: ProbabilityPipeline::generate_batch_into
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `scores.len()` is not a multiple of
    /// `width`.
    fn generate_log_rows_into(&self, scores: &[f64], width: usize, out: &mut PgBatch) {
        let rows: Vec<LabelScore> = scores.iter().map(|&v| LabelScore::LogDomain(v)).collect();
        self.generate_batch_into(&rows, width, out);
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

/// Common log-domain value of a score: `LogDomain` scores directly, factor
/// scores via the log of their reference value (`-∞` for zero/negative).
fn score_log_value(s: &LabelScore) -> f64 {
    match s {
        LabelScore::LogDomain(v) => *v,
        factors => {
            let r = factors.reference_value();
            if r > 0.0 {
                r.ln()
            } else {
                f64::NEG_INFINITY
            }
        }
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
    fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput) {
        // Factor scores participate through the log of their reference
        // value, so mixed log/factor vectors keep a single consistent
        // scale — shifting only the log-domain entries would distort their
        // weight relative to the factor entries.
        out.ops = OpCounts::new();
        out.probs.clear();
        out.telemetry = PgTelemetry::new();
        let logs = scores.iter().map(score_log_value);
        float_row_into(logs, &mut out.probs, &mut out.telemetry);
    }

    fn generate_log_rows_into(&self, scores: &[f64], width: usize, out: &mut PgBatch) {
        log_rows_via(scores, width, out, |row, probs, telemetry| {
            float_row_into(row.iter().copied(), probs, telemetry);
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

    /// Fractional bits of the datapath.
    pub fn frac_bits(&self) -> u32 {
        self.fmt.frac_bits()
    }

    /// Append one non-empty log-domain row's probabilities from the exp
    /// ALU: quantize the values onto the datapath format in `quantized`,
    /// normalize them when DyNorm is on, then exponentiate each.
    fn log_row_into(
        &self,
        row: impl Iterator<Item = f64>,
        quantized: &mut Vec<f64>,
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        quantized.clear();
        quantized.extend(row.map(|v| self.fmt.requantize_nearest(v)));
        if self.dynorm {
            let report = dynorm_apply(quantized, 1);
            ops.cmp += report.comparisons;
            ops.add += quantized.len() as u64;
            telemetry.observe_norm_max(report.max);
        }
        probs.extend(quantized.iter().map(|&s| {
            ops.approx += 1;
            telemetry.observe_exp_input(s);
            self.exp.exp(s)
        }));
        ops
    }
}

impl ProbabilityPipeline for FixedPipeline {
    fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput) {
        PG_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            out.telemetry = PgTelemetry::new();
            // Split evaluation: log-domain scores run through the exp ALU
            // (optionally normalized); factor scores run the direct
            // multiplier/divider datapath.
            out.ops = match log_values(scores) {
                Some(values) if !scores.is_empty() => {
                    out.probs.clear();
                    let telemetry = &mut out.telemetry;
                    self.log_row_into(values, &mut scratch.log_scores, &mut out.probs, telemetry)
                }
                // Factor form: direct fixed-point multiply/divide (no
                // NormTree, no exp kernel — nothing to observe).
                _ => {
                    let rows = factor_rows(scores, &mut scratch.log_scores);
                    self.direct.evaluate_factors_into(rows, &mut out.probs)
                }
            };
        });
    }

    fn generate_log_rows_into(&self, scores: &[f64], width: usize, out: &mut PgBatch) {
        PG_SCRATCH.with(|cell| {
            let quantized = &mut cell.borrow_mut().log_scores;
            log_rows_via(scores, width, out, |row, probs, telemetry| {
                self.log_row_into(row.iter().copied(), quantized, probs, telemetry)
            });
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
/// for linear-domain factors).
#[derive(Debug, Clone)]
pub struct CoopMcPipeline {
    fusion: LogFusion<TableLog, TableExp>,
    size_lut: usize,
    bit_lut: u32,
}

impl CoopMcPipeline {
    /// Build the datapath with the given TableExp parameters; the TableLog
    /// uses the same size/precision, and the log-domain accumulator bus is
    /// the paper's Q15.16.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is outside `1..=46`.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        Self::with_pipelines(size_lut, bit_lut, 4)
    }

    /// As [`CoopMcPipeline::new`] with an explicit parallel-pipeline count
    /// for the shared NormTree.
    pub fn with_pipelines(size_lut: usize, bit_lut: u32, pipelines: usize) -> Self {
        let fusion = LogFusion::new(
            TableLog::new(size_lut, bit_lut.min(46)),
            TableExp::new(size_lut, bit_lut),
            QFormat::baseline32(),
            pipelines,
        );
        Self {
            fusion,
            size_lut,
            bit_lut,
        }
    }

    /// TableExp entries.
    pub fn size_lut(&self) -> usize {
        self.size_lut
    }

    /// TableExp entry bits.
    pub fn bit_lut(&self) -> u32 {
        self.bit_lut
    }

    /// The batched log-domain datapath over a flat stride of rows, with
    /// `work` as the quantized-score buffer.
    fn log_rows_into(&self, scores: &[f64], width: usize, work: &mut Vec<f64>, out: &mut PgBatch) {
        out.telemetry = PgTelemetry::new();
        self.fusion.evaluate_log_score_rows_into(
            scores,
            width,
            work,
            &mut out.probs,
            &mut out.ops,
            &mut out.telemetry,
            out.phases.as_mut(),
        );
    }
}

impl ProbabilityPipeline for CoopMcPipeline {
    fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput) {
        PG_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            out.telemetry = PgTelemetry::new();
            out.ops = match log_values(scores) {
                Some(values) => {
                    scratch.log_scores.clear();
                    scratch.log_scores.extend(values);
                    self.fusion.evaluate_log_scores_into(
                        &scratch.log_scores,
                        &mut scratch.work,
                        &mut out.probs,
                        &mut out.telemetry,
                        out.phases.as_mut(),
                    )
                }
                None => self.fusion.evaluate_factors_into(
                    factor_rows(scores, &mut scratch.log_scores),
                    &mut scratch.work,
                    &mut out.probs,
                    &mut out.telemetry,
                    out.phases.as_mut(),
                ),
            };
        });
    }

    fn generate_batch_into(&self, scores: &[LabelScore], width: usize, out: &mut PgBatch) {
        let Some(values) = log_values(scores) else {
            // Factor rows keep the per-row path (still bit-identical).
            batch_rows_via_scalar(self, scores, width, out);
            return;
        };
        PG_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.log_scores.clear();
            scratch.log_scores.extend(values);
            self.log_rows_into(&scratch.log_scores, width, &mut scratch.work, out);
        });
    }

    fn generate_log_rows_into(&self, scores: &[f64], width: usize, out: &mut PgBatch) {
        PG_SCRATCH.with(|cell| self.log_rows_into(scores, width, &mut cell.borrow_mut().work, out));
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
    fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput) {
        (**self).generate_into(scores, out)
    }

    fn generate_batch_into(&self, scores: &[LabelScore], width: usize, out: &mut PgBatch) {
        (**self).generate_batch_into(scores, width, out)
    }

    fn generate_log_rows_into(&self, scores: &[f64], width: usize, out: &mut PgBatch) {
        (**self).generate_log_rows_into(scores, width, out)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn mixed_rows_match_probs_recorded_before_rows_were_read_in_place() {
        // Recorded while both pipelines still copied every row into a
        // `FactorExpr`; the factor rows are now read where they are. A
        // `LogDomain` entry enters as the single numerator `v.exp()`.
        let mixed = [
            LabelScore::LogDomain(-1.3),
            LabelScore::Factors {
                numerators: vec![0.2, 0.5],
                denominators: vec![0.8],
            },
            LabelScore::LogDomain(-0.4),
            LabelScore::Factors {
                numerators: vec![0.7, 3.25, 0.01],
                denominators: vec![],
            },
            LabelScore::Factors {
                numerators: vec![12.5],
                denominators: vec![40.0, 0.3],
            },
        ];
        let fused = OpCounts {
            add: 16,
            lut: 16,
            cmp: 5,
            ..OpCounts::new()
        };
        let direct = OpCounts {
            mul: 8,
            div: 3,
            ..OpCounts::new()
        };
        let cases: [(Box<dyn ProbabilityPipeline>, Vec<f64>, OpCounts); 4] = [
            (
                Box::new(CoopMcPipeline::new(64, 8)),
                vec![0.28515625, 0.13671875, 0.77734375, 0.0234375, 1.0],
                fused,
            ),
            (
                Box::new(CoopMcPipeline::new(1024, 24)),
                vec![
                    0.26497364044189453,
                    0.12131375074386597,
                    0.6456485390663147,
                    0.022092878818511963,
                    1.0,
                ],
                fused,
            ),
            (
                Box::new(FixedPipeline::new(8, true)),
                vec![0.2734375, 0.12109375, 0.671875, 0.0234375, 1.03515625],
                direct,
            ),
            (
                Box::new(FixedPipeline::new(24, false)),
                vec![
                    0.27253180742263794,
                    0.12499994039535522,
                    0.6703200340270996,
                    0.02274996042251587,
                    1.041666567325592,
                ],
                direct,
            ),
        ];
        for (p, probs, ops) in &cases {
            let out = generate(p, &mixed);
            assert_eq!(&out.probs, probs, "{}", p.name());
            assert_eq!(&out.ops, ops, "{}", p.name());
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
        // Regression: log-domain and factor scores in one vector must be
        // shifted by the SAME constant, or their relative weights distort.
        let p = FloatPipeline::new();
        let out = generate(
            &p,
            &[
                LabelScore::LogDomain(0.25_f64.ln()),
                LabelScore::Factors {
                    numerators: vec![0.5, 0.5],
                    denominators: vec![],
                },
                LabelScore::LogDomain(0.5_f64.ln()),
            ],
        );
        // All three labels carry probability 0.25/0.25/0.5 — equal scores
        // must come out equal regardless of representation.
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
        // All labels carry zero mass: emit zeros (uniform-fallback regime),
        // never NaN.
        let out = generate(
            &p,
            &[
                LabelScore::Factors {
                    numerators: vec![0.0],
                    denominators: vec![],
                },
                LabelScore::LogDomain(f64::NEG_INFINITY),
            ],
        );
        assert_eq!(out.probs, vec![0.0, 0.0]);
        // A zero-mass factor label among live ones stays exactly zero.
        let out = generate(
            &p,
            &[
                LabelScore::Factors {
                    numerators: vec![0.0],
                    denominators: vec![],
                },
                LabelScore::LogDomain(-1.0),
            ],
        );
        assert_eq!(out.probs[0], 0.0);
        assert_eq!(out.probs[1], 1.0);
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

    /// A pipeline that overrides only `generate_into`, so both batched
    /// entry points take the trait's defaults.
    struct ScalarOnly(FixedPipeline);

    impl ProbabilityPipeline for ScalarOnly {
        fn generate_into(&self, scores: &[LabelScore], out: &mut PgOutput) {
            self.0.generate_into(scores, out);
        }

        fn name(&self) -> String {
            format!("scalar-only {}", self.0.name())
        }
    }

    #[test]
    fn batch_generate_is_bit_identical_to_scalar_for_all_pipelines() {
        let pipelines: Vec<Box<dyn ProbabilityPipeline>> = vec![
            Box::new(FloatPipeline::new()),
            Box::new(FixedPipeline::new(8, true)),
            Box::new(FixedPipeline::new(8, false)),
            Box::new(CoopMcPipeline::new(64, 8)),
            Box::new(CoopMcPipeline::with_pipelines(1024, 24, 8)),
            Box::new(ScalarOnly(FixedPipeline::new(8, true))),
        ];
        // One batch reused across pipelines, shapes and both batched entry
        // points, with the stage accumulator detached and attached, and
        // left with stale contents that no call may read.
        let stale = |batch: &mut PgBatch| {
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
        // Ragged row counts around the 8-lane packing, several widths, and
        // 64-label rows.
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
            let values: Vec<f64> = (0..rows * width)
                .map(|i| -(((i * 7) % 23) as f64) * 0.43 - 0.1)
                .collect();
            let flat = log_scores(&values);
            for p in &pipelines {
                let (mut probs, mut ops, mut merged) = (Vec::new(), Vec::new(), PgTelemetry::new());
                for row_scores in flat.chunks_exact(width) {
                    let scalar = generate(p, row_scores);
                    probs.extend_from_slice(&scalar.probs);
                    ops.push(scalar.ops);
                    merged.merge(&scalar.telemetry);
                }
                for batch in &mut outs {
                    let attached = batch.phases.is_some();
                    let at = format!("{} {rows}x{width} phases {attached}", p.name());
                    stale(batch);
                    p.generate_batch_into(&flat, width, batch);
                    assert_eq!(batch.rows(width), rows, "{at}");
                    assert_eq!(batch.probs, probs, "{at}");
                    assert_eq!(batch.ops, ops, "{at} ops");
                    assert_eq!(batch.telemetry, merged, "{at} telemetry");
                    stale(batch);
                    p.generate_log_rows_into(&values, width, batch);
                    assert_eq!(batch.probs, probs, "{at} log rows");
                    assert_eq!(batch.ops, ops, "{at} log-row ops");
                    assert_eq!(batch.telemetry, merged, "{at} log-row telemetry");
                    assert_eq!(batch.phases.is_some(), attached, "{at}");
                }
            }
        }
    }

    #[test]
    fn batch_generate_handles_factor_rows_via_scalar_fallback() {
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
            assert_eq!(batch.probs_row(r, 2), &scalar.probs[..], "row {r}");
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
