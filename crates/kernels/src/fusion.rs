//! Log-Domain Kernel Fusion (LogFusion) and the direct multiply/divide
//! baseline datapath.
//!
//! LogFusion (paper §III-C, Eq. 11) evaluates
//!
//! ```text
//!   Π a_i / Π b_j  =  exp( Σ log a_i  −  Σ log b_j )
//! ```
//!
//! replacing `#num + #denom` multiplications/divisions with the same number
//! of additions/subtractions, one log conversion per factor and one exp
//! conversion per output — and, crucially, eliminating the divider from the
//! PG datapath entirely. DyNorm sits between the accumulation and the exp
//! kernel so the exp inputs are always in range.
//!
//! Every score reaches the accumulator bus as a raw integer word. Where the
//! configuration allows, the words stay integers through DyNorm and the
//! TableExp address (see [`LogFusion::new`]); every other configuration
//! runs DyNorm and the exp kernel on the words' `f64` images.

use std::time::Instant;

use coopmc_fixed::{Fixed, QFormat, Rounding};

use crate::cost::OpCounts;
use crate::dynorm::dynorm_apply;
use crate::exp::{DistanceRom, ExpKernel};
use crate::log::{LogKernel, LogTables};
use crate::telemetry::PgTelemetry;

/// Per-stage wall times of fused PG evaluations, for the kernel profiler.
///
/// Stage names follow the datapath order: `normalize` is the
/// accumulator-bus arithmetic/requantization feeding the bus, `dynorm`
/// the NormTree max-shift, `exp` the TableExp lookup. Every `LogFusion`
/// evaluation takes an `Option<&mut StagePhases>`: `None` reads no clock,
/// `Some` adds each stage's time, so one accumulator can cover a whole
/// sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagePhases {
    /// Accumulator-bus arithmetic / requantization, ns.
    pub normalize_ns: u64,
    /// DyNorm NormTree max-shift, ns.
    pub dynorm_ns: u64,
    /// Exp-kernel evaluation, ns.
    pub exp_ns: u64,
}

impl StagePhases {
    /// Add another accumulator's stage times to this one.
    pub fn merge(&mut self, other: &StagePhases) {
        self.normalize_ns += other.normalize_ns;
        self.dynorm_ns += other.dynorm_ns;
        self.exp_ns += other.exp_ns;
    }
}

/// Stage clock of one evaluation: reads `Instant::now` only when a
/// [`StagePhases`] accumulator is attached, holding it with the last
/// reading.
struct StageClock<'a>(Option<(&'a mut StagePhases, Instant)>);

// `#[inline]` with a cold timing body: the evaluations are instantiated in
// other crates, and an untimed stage must cost one branch, not a call.
impl<'a> StageClock<'a> {
    #[inline]
    fn start(phases: Option<&'a mut StagePhases>) -> Self {
        Self(phases.map(|p| (p, Instant::now())))
    }

    /// Close the current stage, adding its time to the field `stage` picks.
    #[inline]
    fn lap(&mut self, stage: fn(&mut StagePhases) -> &mut u64) {
        if let Some((phases, last)) = &mut self.0 {
            Self::record(phases, last, stage);
        }
    }

    #[cold]
    fn record(
        phases: &mut StagePhases,
        last: &mut Instant,
        stage: fn(&mut StagePhases) -> &mut u64,
    ) {
        let now = Instant::now();
        *stage(phases) += now.duration_since(*last).as_nanos() as u64;
        *last = now;
    }
}

/// The fused log-domain PG datapath: log kernels → fixed-point
/// accumulation → DyNorm → exp kernel.
#[derive(Debug, Clone)]
pub struct LogFusion<L, E> {
    log: L,
    exp: E,
    acc_fmt: QFormat,
    pipelines: usize,
    dynorm: bool,
    /// The log kernel's integer tables on the bus, kept only while the
    /// datapath runs on bus words.
    log_tables: Option<LogTables>,
}

impl<L: LogKernel, E: ExpKernel> LogFusion<L, E> {
    /// Build a fused datapath.
    ///
    /// * `log`, `exp` — the conversion kernels (typically
    ///   [`crate::log::TableLog`] and [`crate::exp::TableExp`]).
    /// * `acc_fmt` — the fixed-point format of the log-domain accumulator
    ///   bus (the paper's DN+LF design uses Q15.16).
    /// * `pipelines` — number of parallel PG pipelines sharing the NormTree.
    ///
    /// The configuration chooses how the bus words flow. With DyNorm on, a
    /// bus of at most 52 bits (so every word and every difference of two
    /// words is exact in `f64`) and an exp kernel with a
    /// [`ExpKernel::distance_rom`] — a [`crate::exp::TableExp::new`] table
    /// of power-of-two size, up to `2^20` entries on Q15.16 — the words
    /// stay integers: DyNorm is an integer max and subtract, and TableExp
    /// reads its ROM at `distance >> shift`. The log kernel's
    /// [`LogKernel::bus_tables`], when it has them, then read each factor's
    /// log as a word. Every other configuration runs DyNorm and the exp
    /// kernel on the words' `f64` images. Both give the same result bit
    /// for bit; the `f64` path is the reference the word path is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `pipelines == 0`.
    pub fn new(log: L, exp: E, acc_fmt: QFormat, pipelines: usize) -> Self {
        assert!(pipelines > 0, "pipeline count must be positive");
        let mut fusion = Self {
            log,
            exp,
            acc_fmt,
            pipelines,
            dynorm: true,
            log_tables: None,
        };
        if fusion.distance_rom().is_some() {
            fusion.log_tables = fusion.log.bus_tables(acc_fmt);
        }
        fusion
    }

    /// Disable DyNorm (used by the ablation showing LogFusion alone fails at
    /// low precision — the co-dependence the paper's intro stresses). The
    /// datapath then runs on `f64` images of the bus words.
    pub fn without_dynorm(mut self) -> Self {
        self.dynorm = false;
        self.log_tables = None;
        self
    }

    /// The TableExp ROM the word stage reads, when this configuration runs
    /// on bus words (see [`LogFusion::new`]).
    #[inline]
    fn distance_rom(&self) -> Option<DistanceRom<'_>> {
        let fmt = self.acc_fmt;
        let exact = fmt.int_bits() + fmt.frac_bits() < f64::MANTISSA_DIGITS;
        if self.dynorm && exact {
            self.exp.distance_rom(fmt.frac_bits())
        } else {
            None
        }
    }

    /// Evaluate a label vector of factor rows (Eq. 11) into caller-owned
    /// buffers.
    ///
    /// `rows` yields one borrowed `(numerators, denominators)` pair per
    /// label, read where the caller keeps them. Each factor's log is read
    /// onto the accumulator bus as a raw word — from the log kernel's
    /// integer tables where it has them, otherwise by quantizing the
    /// kernel's `f64` log once — and summed as a raw integer that
    /// saturates after every add and subtract, exactly as a `Fixed`
    /// accumulator would. `words` (cleared first) holds each label's
    /// accumulated word between accumulation and the exp stage; the output
    /// vector is appended to `probs`. With warmed buffers the evaluation
    /// is allocation-free.
    /// `telemetry` collects the DyNorm/exp-kernel observations for the run
    /// journal (a handful of comparisons, no allocation); `phases`, when
    /// attached, accumulates per-stage wall times for the kernel profiler.
    /// Neither changes the result.
    pub fn evaluate_factors_into<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
        words: &mut Vec<i64>,
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
        phases: Option<&mut StagePhases>,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        let mut clock = StageClock::start(phases);
        let fmt = self.acc_fmt;
        let float_read = |x: f64| fmt.quantize_nearest_raw(self.log.log(x));
        words.clear();
        match &self.log_tables {
            Some(tables) => {
                let read = |x: f64| tables.word(x).unwrap_or_else(|| float_read(x));
                accumulate_into(rows, fmt, read, words, &mut ops);
            }
            None => accumulate_into(rows, fmt, float_read, words, &mut ops),
        }
        clock.lap(|p| &mut p.normalize_ns);
        self.finish_into(words, probs, &mut ops, telemetry, clock);
        ops
    }

    /// Evaluate a label vector whose scores are already in the log domain
    /// (e.g. MRF energies `-β·TC`), skipping the log kernels: each score is
    /// quantized once onto the bus. Same buffer, telemetry and phase
    /// contract as [`LogFusion::evaluate_factors_into`].
    #[inline]
    pub fn evaluate_log_scores_into(
        &self,
        scores: &[f64],
        words: &mut Vec<i64>,
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
        phases: Option<&mut StagePhases>,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        let mut clock = StageClock::start(phases);
        self.quantize_into(scores, words);
        clock.lap(|p| &mut p.normalize_ns);
        self.finish_into(words, probs, &mut ops, telemetry, clock);
        ops
    }

    /// Evaluate a whole batch of same-width log-domain score rows in one
    /// call: the vector datapath behind `generate_rows_into`.
    ///
    /// `scores` is row-major (`scores.len() / width` rows of exactly
    /// `width` labels). The result is **bit-identical** to calling
    /// [`LogFusion::evaluate_log_scores_into`] once per row. On bus words
    /// the rows share one quantize pass, one DyNorm sweep and one
    /// [`DistanceRom`] read over the contiguous buffer; on the `f64` path
    /// each row is evaluated in turn.
    ///
    /// `probs` receives the concatenated per-row probability vectors and
    /// `ops_per_row` one tally per row (matching the scalar path's
    /// per-call [`OpCounts`] exactly, so modeled cycle totals are
    /// batching-invariant). All output buffers are cleared first; with
    /// warmed buffers the evaluation is allocation-free. `telemetry` and
    /// `phases` follow [`LogFusion::evaluate_factors_into`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `scores.len()` is not a multiple of
    /// `width`.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_log_score_rows_into(
        &self,
        scores: &[f64],
        width: usize,
        words: &mut Vec<i64>,
        probs: &mut Vec<f64>,
        ops_per_row: &mut Vec<OpCounts>,
        telemetry: &mut PgTelemetry,
        mut phases: Option<&mut StagePhases>,
    ) {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            scores.len() % width,
            0,
            "batch length must be a multiple of the row width"
        );
        ops_per_row.clear();
        probs.clear();
        let Some(rom) = self.distance_rom() else {
            for row in scores.chunks_exact(width) {
                let phases = phases.as_deref_mut();
                ops_per_row
                    .push(self.evaluate_log_scores_into(row, words, probs, telemetry, phases));
            }
            return;
        };
        let mut clock = StageClock::start(phases);
        self.quantize_into(scores, words);
        clock.lap(|p| &mut p.normalize_ns);
        if !words.is_empty() {
            let row_ops = |ops| ops_per_row.push(ops);
            self.finish_words(rom, words, width, probs, telemetry, clock, row_ops);
        }
    }

    /// The accumulator-bus quantization of log-domain scores: one raw word
    /// per score, into `words` (cleared first).
    #[inline]
    fn quantize_into(&self, scores: &[f64], words: &mut Vec<i64>) {
        words.clear();
        words.extend(scores.iter().map(|&s| self.acc_fmt.quantize_nearest_raw(s)));
    }

    /// DyNorm and the exp kernel over one label vector of bus words,
    /// appended to `probs`: the word stage where the configuration runs on
    /// words, otherwise the `f64` stage on the words' images.
    // Inlined, like `evaluate_log_scores_into`, so an untimed scalar
    // evaluation keeps its stage clock out of memory.
    #[inline]
    fn finish_into(
        &self,
        words: &mut [i64],
        probs: &mut Vec<f64>,
        ops: &mut OpCounts,
        telemetry: &mut PgTelemetry,
        mut clock: StageClock<'_>,
    ) {
        if words.is_empty() {
            return;
        }
        if let Some(rom) = self.distance_rom() {
            let width = words.len();
            let row_ops = |row: OpCounts| ops.merge(&row);
            self.finish_words(rom, words, width, probs, telemetry, clock, row_ops);
            return;
        }
        let res = self.acc_fmt.resolution();
        let start = probs.len();
        probs.extend(words.iter().map(|&w| w as f64 * res));
        let scores = &mut probs[start..];
        if self.dynorm {
            let report = dynorm_apply(scores, self.pipelines);
            ops.cmp += report.comparisons;
            ops.add += scores.len() as u64; // the broadcast subtraction
            telemetry.observe_norm_max(report.max);
        }
        for &s in scores.iter() {
            telemetry.observe_exp_input(s);
        }
        clock.lap(|p| &mut p.dynorm_ns);
        for s in scores.iter_mut() {
            ops.lut += 1;
            *s = self.exp.exp(*s);
        }
        clock.lap(|p| &mut p.exp_ns);
    }

    /// The word stage over the `width`-word rows of `words`: DyNorm as an
    /// integer max and subtract, which leaves each word's distance below
    /// its row's maximum, then one `rom` read of every distance, appended
    /// to `probs`. Each row's telemetry comes from its minimum and maximum
    /// word, and `row_ops` receives each row's tally of the stage: one
    /// comparison, one subtraction and one ROM read per label, as on the
    /// `f64` path.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn finish_words(
        &self,
        rom: DistanceRom<'_>,
        words: &mut [i64],
        width: usize,
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
        mut clock: StageClock<'_>,
        mut row_ops: impl FnMut(OpCounts),
    ) {
        let res = self.acc_fmt.resolution();
        let n = width as u64;
        for row in words.chunks_exact_mut(width) {
            let (lo, hi) = row
                .iter()
                .fold((i64::MAX, i64::MIN), |(lo, hi), &w| (lo.min(w), hi.max(w)));
            for w in row.iter_mut() {
                *w = hi - *w;
            }
            telemetry.observe_norm_max(hi as f64 * res);
            telemetry.observe_exp_input((lo - hi) as f64 * res);
            telemetry.observe_exp_input(0.0);
            row_ops(OpCounts {
                add: n,
                lut: n,
                cmp: n,
                ..OpCounts::new()
            });
        }
        clock.lap(|p| &mut p.dynorm_ns);
        let start = probs.len();
        probs.resize(start + words.len(), 0.0);
        rom.read_into(words, &mut probs[start..]);
        clock.lap(|p| &mut p.exp_ns);
    }
}

/// Sum each label's factor logs on the bus `fmt`: `log_raw` reads one
/// factor's log as a raw word, and the accumulator saturates after every
/// add and subtract, as a `Fixed` accumulator would. One word per label is
/// appended to `words`, and the log reads and adds are tallied in `ops`.
#[inline]
fn accumulate_into<'r>(
    rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
    fmt: QFormat,
    log_raw: impl Fn(f64) -> i64,
    words: &mut Vec<i64>,
    ops: &mut OpCounts,
) {
    let (min, max) = (fmt.min_raw(), fmt.max_raw());
    // Both operands lie within ±2^62, so neither the sum nor the
    // difference can overflow before the clamp saturates it.
    for (numerators, denominators) in rows {
        let mut acc = 0i64;
        for &a in numerators {
            acc = (acc + log_raw(a)).clamp(min, max);
        }
        for &b in denominators {
            acc = (acc - log_raw(b)).clamp(min, max);
        }
        let factors = (numerators.len() + denominators.len()) as u64;
        ops.lut += factors;
        ops.add += factors;
        words.push(acc);
    }
}

/// The direct (non-fused) baseline datapath: fixed-point multiplier and
/// divider chains, as in previous accelerators.
#[derive(Debug, Clone, Copy)]
pub struct DirectDatapath {
    fmt: QFormat,
}

impl DirectDatapath {
    /// A direct datapath on a fixed-point bus of format `fmt`
    /// (the paper's baseline is 32-bit, [`QFormat::baseline32`]).
    pub fn new(fmt: QFormat) -> Self {
        Self { fmt }
    }

    /// Bus format.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// Evaluate a label vector of factor rows (Eq. 11's numerators `a_i`
    /// and denominators `b_j`) with explicit multiply/divide sequences.
    /// `rows` yields one borrowed `(numerators, denominators)` pair per
    /// label; the output vector is appended to `probs`, allocation-free
    /// once it has capacity for every row.
    pub fn evaluate_factors_into<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
        probs: &mut Vec<f64>,
    ) -> OpCounts {
        let mut ops = OpCounts::new();
        for (numerators, denominators) in rows {
            let mut acc = Fixed::one(self.fmt);
            for &a in numerators {
                acc = acc * Fixed::from_f64(a, self.fmt, Rounding::Nearest);
                ops.mul += 1;
            }
            for &b in denominators {
                acc = acc / Fixed::from_f64(b, self.fmt, Rounding::Nearest);
                ops.div += 1;
            }
            probs.push(acc.to_f64().max(0.0));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    use crate::exp::{FloatExp, TableExp};
    use crate::log::{FloatLog, TableLog, LOG_ZERO};

    fn acc() -> QFormat {
        QFormat::baseline32()
    }

    /// A factor row: borrowed numerators and denominators.
    type Row<'a> = (&'a [f64], &'a [f64]);

    /// Borrow owned factor rows.
    fn borrow(rows: &[(Vec<f64>, Vec<f64>)]) -> Vec<Row<'_>> {
        rows.iter().map(|(n, d)| (&n[..], &d[..])).collect()
    }

    /// One unphased factor-row evaluation into fresh buffers.
    fn factors<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
    ) -> (Vec<f64>, OpCounts) {
        let (mut work, mut probs, mut tel) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let rows = rows.iter().copied();
        let ops = fusion.evaluate_factors_into(rows, &mut work, &mut probs, &mut tel, None);
        (probs, ops)
    }

    /// One direct-datapath evaluation into a fresh buffer.
    fn direct_factors(direct: &DirectDatapath, rows: &[Row]) -> (Vec<f64>, OpCounts) {
        let mut probs = Vec::new();
        let ops = direct.evaluate_factors_into(rows.iter().copied(), &mut probs);
        (probs, ops)
    }

    /// One unphased log-score evaluation into fresh buffers.
    fn log_scores<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        scores: &[f64],
    ) -> (Vec<f64>, OpCounts, PgTelemetry) {
        let (mut work, mut probs, mut tel) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let ops = fusion.evaluate_log_scores_into(scores, &mut work, &mut probs, &mut tel, None);
        (probs, ops, tel)
    }

    /// The `Fixed` accumulation loop the raw accumulator replaced: one
    /// `Fixed` quantization of the kernel's `f64` log and saturating
    /// add/sub per factor.
    fn fixed_loop<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
    ) -> (Vec<f64>, OpCounts, PgTelemetry) {
        let fmt = fusion.acc_fmt;
        let mut ops = OpCounts::new();
        let mut words = Vec::new();
        for &(numerators, denominators) in rows {
            let mut acc = Fixed::zero(fmt);
            for &a in numerators {
                ops.lut += 1;
                acc = acc + Fixed::from_f64(fusion.log.log(a), fmt, Rounding::Nearest);
                ops.add += 1;
            }
            for &b in denominators {
                ops.lut += 1;
                acc = acc - Fixed::from_f64(fusion.log.log(b), fmt, Rounding::Nearest);
                ops.add += 1;
            }
            words.push(acc.raw());
        }
        let (mut probs, mut tel) = (Vec::new(), PgTelemetry::new());
        fusion.finish_into(
            &mut words,
            &mut probs,
            &mut ops,
            &mut tel,
            StageClock::start(None),
        );
        (probs, ops, tel)
    }

    /// Assert `fusion`'s raw accumulator reproduces [`fixed_loop`] bit for
    /// bit: probabilities, op tallies and telemetry.
    fn assert_matches_fixed_loop<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
        what: &str,
    ) {
        let (want, want_ops, want_tel) = fixed_loop(fusion, rows);
        let (mut work, mut probs, mut tel) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let it = rows.iter().copied();
        let ops = fusion.evaluate_factors_into(it, &mut work, &mut probs, &mut tel, None);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&probs), bits(&want), "{what}: probs");
        assert_eq!(ops, want_ops, "{what}: ops");
        assert_eq!(tel, want_tel, "{what}: telemetry");
    }

    #[test]
    fn raw_accumulator_matches_the_fixed_loop_on_saturating_rows_and_wide_buses() {
        // Rows that saturate a narrow bus on the first factor, walk back
        // from saturation (so per-add clamping shows), carry a zero factor
        // (LOG_ZERO) or non-finite factors, plus LDA-shaped
        // `(DT+α)(VT+β)/(ΣVT+βV)` rows.
        let mut owned = vec![
            (vec![1e300; 4], vec![1e300; 4]),
            (vec![1e-300; 3], vec![1e-300, 1e-300]),
            (vec![0.0, 1e300], vec![1e-300]),
            (vec![f64::INFINITY, 0.5], vec![f64::NAN]),
            (vec![3.0e4, 7.0e4], vec![2.5e-5]),
            (vec![0.75], vec![]),
            (vec![], vec![]),
        ];
        let mut state = 0x5EED_F00Du64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let dt = (state >> 40) % 90;
            let vt = (state >> 20) % 400;
            let total = 400 + (state >> 8) % 6000;
            owned.push((
                vec![dt as f64 + 50.0 / 16.0, vt as f64 + 0.01],
                vec![total as f64 + 0.01 * 256.0],
            ));
        }
        let exprs = borrow(&owned);
        let formats = [
            QFormat::new(1, 4).unwrap(),
            QFormat::new(5, 10).unwrap(),
            QFormat::baseline32(),
            QFormat::new(31, 31).unwrap(),
            QFormat::new(15, 46).unwrap(),
            QFormat::new(3, 58).unwrap(),
            QFormat::new(0, 62).unwrap(),
            QFormat::new(61, 1).unwrap(),
        ];
        for fmt in formats {
            let float = LogFusion::new(FloatLog::new(), FloatExp::new(), fmt, 4);
            assert_matches_fixed_loop(&float, &exprs, &format!("float-log {fmt}"));
            // Saturate upward from a negative sum, then walk back to just
            // above zero: a saturated word one step off survives to the
            // row's value (and to the NormTree maximum) on 55+-bit buses.
            // Buses wider than Q15 would need millions of factors.
            if fmt.int_bits() <= 15 {
                let mut walk_back = Vec::new();
                let mut rest = fmt.max_value() + 0.5f64.ln() - 1e-3;
                while rest > 700.0 {
                    walk_back.push(1e300);
                    rest -= 1e300f64.ln();
                }
                walk_back.push(rest.exp());
                let rows: [Row; 2] = [(&[0.5, f64::INFINITY], &walk_back), (&[1e-3], &[])];
                let what = format!("walk-back {fmt}");
                assert_matches_fixed_loop(&float, &rows, &what);
                assert_matches_fixed_loop(&float.clone().without_dynorm(), &rows, &what);
            }
            for (size, bit) in [(64, 8), (1024, 24), (48, 16)] {
                let table =
                    LogFusion::new(TableLog::new(size, bit), TableExp::new(size, bit), fmt, 4);
                let what = format!("table-log {size}x{bit} {fmt}");
                assert_matches_fixed_loop(&table, &exprs, &what);
                assert_matches_fixed_loop(&table.without_dynorm(), &exprs, &what);
            }
        }
    }

    /// One datapath on bus words and on the `f64` path: a `with_range`
    /// TableExp holds the same ROM as `new` but has no distance address.
    fn words_and_reference(size: usize, bit: u32) -> [LogFusion<TableLog, TableExp>; 2] {
        let fusion = |exp| LogFusion::new(TableLog::new(size, bit.min(46)), exp, acc(), 4);
        let words = fusion(TableExp::new(size, bit));
        let reference = fusion(TableExp::with_range(size, bit, 16.0));
        assert!(words.distance_rom().is_some(), "{size}x{bit}");
        assert_eq!(words.log_tables.is_some(), bit <= 16, "{size}x{bit}");
        assert!(reference.distance_rom().is_none() && reference.log_tables.is_none());
        [words, reference]
    }

    /// Probabilities, tallies and telemetry as bits, so NaN and the sign of
    /// zero compare too.
    fn as_bits(probs: &[f64], ops: &[OpCounts], tel: &PgTelemetry) -> impl PartialEq + Debug {
        let probs: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        let tel = [tel.norm_max, tel.exp_in_min, tel.exp_in_max].map(|v| v.map(f64::to_bits));
        (probs, ops.to_vec(), tel)
    }

    #[test]
    fn word_path_matches_the_f64_reference_bit_for_bit() {
        // Log rows with LOG_ZERO, NaN and ±∞ scores, ties and deep
        // flushes; factor rows shaped like LDA's and BN's, with zero,
        // subnormal, negative, NaN and ±∞ factors.
        let log_rows = [
            [-3.2, -1.0, -7.75, -1.0],
            [LOG_ZERO, -2.5, f64::NAN, 0.0],
            [f64::NEG_INFINITY, f64::INFINITY, -1e9, 3.0],
            [LOG_ZERO; 4],
            [-500.0, -600.5, -499.99, -515.0],
            [0.1, 0.1, 0.1 + 1e-6, -15.999],
        ];
        let flat: Vec<f64> = log_rows.concat();
        let owned = [
            (vec![12.5, 3.01], vec![402.56]),
            (vec![0.0, 0.5], vec![]),
            (vec![f64::MIN_POSITIVE / 3.0, 2.0], vec![1.0]),
            (vec![-0.25, 0.75], vec![f64::NAN]),
            (vec![f64::INFINITY], vec![0.5]),
            (vec![1e-300, 1e300], vec![f64::NEG_INFINITY]),
            (vec![0.999_999, 1.0, 2.0 - 1e-15], vec![1.5]),
            (vec![], vec![]),
        ];
        let factor_rows = borrow(&owned);
        let sizes = [
            (1, 8),
            (2, 1),
            (16, 4),
            (64, 8),
            (256, 16),
            (1024, 24),
            (1 << 20, 8),
        ];
        for (size, bit) in sizes {
            let [words, reference] = words_and_reference(size, bit);
            let run = |f: &LogFusion<TableLog, TableExp>| {
                let (mut w, mut tel) = (Vec::new(), PgTelemetry::new());
                let mut out = Vec::new();
                let mut probs = Vec::new();
                for row in &log_rows {
                    let ops = f.evaluate_log_scores_into(row, &mut w, &mut probs, &mut tel, None);
                    out.push(ops);
                }
                let it = factor_rows.iter().copied();
                let ops = f.evaluate_factors_into(it, &mut w, &mut probs, &mut tel, None);
                out.push(ops);
                let single = as_bits(&probs, &out, &tel);
                let (mut batched, mut ops_rows, mut tel) =
                    (Vec::new(), Vec::new(), PgTelemetry::new());
                f.evaluate_log_score_rows_into(
                    &flat,
                    4,
                    &mut w,
                    &mut batched,
                    &mut ops_rows,
                    &mut tel,
                    None,
                );
                (single, as_bits(&batched, &ops_rows, &tel))
            };
            assert_eq!(run(&words), run(&reference), "{size}x{bit}");
        }
    }

    #[test]
    fn other_configs_keep_the_f64_path() {
        let fusion = |log, exp, fmt| LogFusion::new(log, exp, fmt, 4);
        let words = fusion(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        assert!(words.distance_rom().is_some() && words.log_tables.is_some());
        let plain = words.without_dynorm();
        assert!(plain.distance_rom().is_none() && plain.log_tables.is_none());
        let f64_paths = [
            fusion(
                TableLog::new(64, 8),
                TableExp::with_range(64, 8, 16.0),
                acc(),
            ),
            fusion(TableLog::new(48, 8), TableExp::new(48, 8), acc()),
            // Words of more than 52 bits are not exact in f64.
            fusion(
                TableLog::new(64, 8),
                TableExp::new(64, 8),
                QFormat::new(15, 38).unwrap(),
            ),
        ];
        for f in &f64_paths {
            assert!(f.distance_rom().is_none() && f.log_tables.is_none());
        }
        // A size whose step is finer than a bus word; checked on a narrow
        // bus rather than with a table of 2^21 entries.
        let fine = fusion(
            TableLog::new(256, 8),
            TableExp::new(256, 8),
            QFormat::new(15, 3).unwrap(),
        );
        assert!(fine.distance_rom().is_none());
        let float = LogFusion::new(FloatLog::new(), TableExp::new(64, 8), acc(), 4);
        assert!(float.distance_rom().is_some() && float.log_tables.is_none());
    }

    #[test]
    fn fused_float_kernels_match_reference_ratios() {
        // With float log/exp kernels the fused result must match the direct
        // ratio up to accumulator quantization.
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 4);
        let rows: [Row; 2] = [(&[0.5, 0.8], &[0.9]), (&[0.3, 0.6], &[0.9])];
        let (probs, _) = factors(&fusion, &rows);
        // DyNorm rescales both by the same constant: ratios are preserved.
        let got = probs[0] / probs[1];
        let value = |(n, d): Row| n.iter().product::<f64>() / d.iter().product::<f64>();
        let want = value(rows[0]) / value(rows[1]);
        assert!((got - want).abs() / want < 1e-3, "got {got} want {want}");
    }

    #[test]
    fn fused_lut_kernels_preserve_argmax_and_ordering() {
        let fusion = LogFusion::new(TableLog::new(128, 16), TableExp::new(128, 16), acc(), 4);
        let owned = [0.02, 0.5, 0.1, 0.31].map(|p| (vec![p, 0.7], vec![]));
        let (probs, _) = factors(&fusion, &borrow(&owned));
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 1);
        assert!(probs[3] > probs[2]);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    fn dynorm_pins_best_label_at_one_through_table_exp() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        // Tiny probabilities that would all flush to zero without DyNorm.
        let owned = [1e-6, 3e-6, 2e-6].map(|p| (vec![p], vec![]));
        let (probs, _) = factors(&fusion, &borrow(&owned));
        assert_eq!(probs[1], 1.0, "best label must map to exp(0) = 1");
        assert!(probs.iter().all(|&p| p > 0.0), "{probs:?}");
    }

    #[test]
    fn without_dynorm_low_precision_flushes_everything() {
        let fusion =
            LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4).without_dynorm();
        let owned = [1e-6, 3e-6, 2e-6].map(|p| (vec![p], vec![]));
        let (probs, _) = factors(&fusion, &borrow(&owned));
        assert!(
            probs.iter().all(|&p| p == 0.0),
            "tiny probs must flush without DyNorm: {probs:?}"
        );
    }

    #[test]
    fn log_scores_path_skips_log_kernels() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 2);
        let (probs, ops, _) = log_scores(&fusion, &[-10.0, -9.0, -12.0]);
        assert_eq!(probs[1], 1.0);
        // one lut per exp, none per log
        assert_eq!(ops.lut, 3);
    }

    #[test]
    fn op_counts_match_factor_structure() {
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        let (_, ops) = factors(&fusion, &[(&[0.5, 0.5, 0.5], &[0.25, 0.75])]);
        // 5 log lookups + 1 exp lookup, 5 adds + 1 dynorm subtract
        assert_eq!(ops.lut, 6);
        assert_eq!(ops.add, 6);
    }

    #[test]
    fn direct_datapath_matches_reference_for_benign_values() {
        let direct = DirectDatapath::new(acc());
        let (probs, ops) = direct_factors(&direct, &[(&[0.5, 0.5], &[0.125])]);
        assert!((probs[0] - 2.0).abs() < 1e-3);
        assert_eq!(ops.mul, 2);
        assert_eq!(ops.div, 1);
    }

    #[test]
    fn direct_datapath_underflows_on_long_products() {
        // §III-C: long multiply sequences underflow in fixed point; this is
        // what LogFusion fixes.
        let direct = DirectDatapath::new(acc());
        let rows: [Row; 1] = [(&[1e-3; 6], &[])];
        let (probs, _) = direct_factors(&direct, &rows);
        assert_eq!(probs[0], 0.0, "product of six 1e-3 must underflow Q15.16");
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        let (fused, _) = factors(&fusion, &rows);
        assert!(fused[0] > 0.0, "LogFusion+DyNorm must not underflow");
    }

    #[test]
    fn zero_factor_yields_zero_probability() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 2);
        let (probs, _) = factors(&fusion, &[(&[0.0, 0.5], &[]), (&[0.5, 0.5], &[])]);
        assert_eq!(probs[0], 0.0, "a zero factor must kill the label");
        assert!(probs[1] > 0.0);
    }

    #[test]
    fn empty_vector_is_empty() {
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc(), 1);
        assert!(factors(&fusion, &[]).0.is_empty());
        assert!(log_scores(&fusion, &[]).0.is_empty());
    }

    #[test]
    fn batched_rows_are_bit_identical_to_per_row_scalar_calls() {
        // Cover a small (64) and a large (1024) exp table, several widths
        // and pipeline counts (multi-pass NormTree folds included).
        for (size, bit) in [(64u32, 8u32), (1024, 24)] {
            for (width, pipelines) in [(1usize, 4usize), (2, 4), (3, 1), (8, 4), (13, 4)] {
                let fusion = LogFusion::new(
                    TableLog::new(size as usize, bit),
                    TableExp::new(size as usize, bit),
                    acc(),
                    pipelines,
                );
                let rows = 7;
                let flat: Vec<f64> = (0..rows * width)
                    .map(|i| -(((i * 13) % 29) as f64) * 0.61 - 0.01)
                    .collect();
                let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
                let mut batched_tel = PgTelemetry::new();
                fusion.evaluate_log_score_rows_into(
                    &flat,
                    width,
                    &mut work,
                    &mut probs,
                    &mut ops_rows,
                    &mut batched_tel,
                    None,
                );
                assert_eq!(probs.len(), rows * width);
                assert_eq!(ops_rows.len(), rows);
                let mut scalar_tel = PgTelemetry::new();
                for (row, chunk) in flat.chunks_exact(width).enumerate() {
                    let (p, ops, tel) = log_scores(&fusion, chunk);
                    scalar_tel.merge(&tel);
                    assert_eq!(
                        probs[row * width..(row + 1) * width],
                        p[..],
                        "{size}x{bit} width {width} row {row}"
                    );
                    assert_eq!(
                        ops_rows[row], ops,
                        "{size}x{bit} width {width} row {row} ops"
                    );
                }
                assert_eq!(
                    batched_tel, scalar_tel,
                    "{size}x{bit} width {width} telemetry"
                );
            }
        }
    }

    #[test]
    fn batched_rows_without_dynorm_match_scalar_too() {
        let fusion =
            LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4).without_dynorm();
        let width = 4;
        let flat: Vec<f64> = (0..width * 3).map(|i| -(i as f64) * 0.9).collect();
        let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
        let mut tel = PgTelemetry::new();
        fusion.evaluate_log_score_rows_into(
            &flat,
            width,
            &mut work,
            &mut probs,
            &mut ops_rows,
            &mut tel,
            None,
        );
        for (row, chunk) in flat.chunks_exact(width).enumerate() {
            let (p, ops, _) = log_scores(&fusion, chunk);
            assert_eq!(probs[row * width..(row + 1) * width], p[..]);
            assert_eq!(ops_rows[row], ops);
        }
    }

    #[test]
    fn phased_evaluation_is_bit_identical_and_fills_phases() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        let scores = [-10.0, -9.0, -12.0, -11.5];
        let (p1, ops1, tel1) = log_scores(&fusion, &scores);

        let (mut w2, mut p2, mut tel2) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let mut phases = StagePhases::default();
        let ops2 = fusion.evaluate_log_scores_into(
            &scores,
            &mut w2,
            &mut p2,
            &mut tel2,
            Some(&mut phases),
        );
        assert_eq!(p1, p2);
        assert_eq!(ops1, ops2);
        assert_eq!(tel1, tel2);
        assert_ne!(phases, StagePhases::default(), "phases must accumulate");

        // The batched rows path agrees too.
        let (mut wb, mut pb, mut opsb, mut telb) =
            (Vec::new(), Vec::new(), Vec::new(), PgTelemetry::new());
        let mut bphases = StagePhases::default();
        fusion.evaluate_log_score_rows_into(
            &scores,
            scores.len(),
            &mut wb,
            &mut pb,
            &mut opsb,
            &mut telb,
            Some(&mut bphases),
        );
        assert_eq!(p1, pb);
        assert_eq!(vec![ops1], opsb);
        assert_ne!(bphases, StagePhases::default());

        // Factor rows fill phases through the same plumbing.
        let rows: [Row; 1] = [(&[0.5, 0.7], &[])];
        let (mut wf, mut pf, mut telf) = (Vec::new(), Vec::new(), PgTelemetry::new());
        let mut fphases = StagePhases::default();
        let fops =
            fusion.evaluate_factors_into(rows, &mut wf, &mut pf, &mut telf, Some(&mut fphases));
        assert_eq!((pf, fops), factors(&fusion, &rows));
        assert_ne!(fphases, StagePhases::default());
        let before = fphases;
        fphases.merge(&bphases);
        assert_eq!(fphases.exp_ns, before.exp_ns + bphases.exp_ns);
    }

    #[test]
    fn batched_rows_reuse_dirty_buffers_correctly() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc(), 4);
        let (mut work, mut probs, mut ops_rows) = (Vec::new(), Vec::new(), Vec::new());
        let mut tel = PgTelemetry::new();
        // A big first batch leaves stale content behind...
        let big: Vec<f64> = (0..40).map(|i| -(i as f64)).collect();
        fusion.evaluate_log_score_rows_into(
            &big,
            8,
            &mut work,
            &mut probs,
            &mut ops_rows,
            &mut tel,
            None,
        );
        // ...which a smaller second batch must fully overwrite.
        let small = [-1.0, -2.0, -3.0, -4.0];
        let mut tel2 = PgTelemetry::new();
        fusion.evaluate_log_score_rows_into(
            &small,
            2,
            &mut work,
            &mut probs,
            &mut ops_rows,
            &mut tel2,
            None,
        );
        assert_eq!(probs.len(), 4);
        assert_eq!(ops_rows.len(), 2);
        assert_eq!(probs[..2], log_scores(&fusion, &small[..2]).0[..]);
    }
}
