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
//! `LogFusion` evaluates a stride of same-width rows per call, one entry
//! point per row form. Every score reaches the accumulator bus as a raw
//! integer word. Where the configuration allows, the words stay integers
//! through DyNorm and the TableExp read, which hands each row's ROM codes
//! and their total to SD ([`RowCodes`]; see [`LogFusion::new`]); every
//! other configuration runs DyNorm and the exp kernel on the words' `f64`
//! images.
//!
//! Factor rows whose factors are integer counts plus a constant (LDA's)
//! read each factor's log word from a table indexed by count
//! ([`CountTables`]), the software memo of the TableLog read the hardware
//! makes per factor.

use std::time::Instant;

use coopmc_fixed::{Fixed, QFormat, Rounding};

use crate::cost::OpCounts;
use crate::dynorm::dynorm_apply;
use crate::exp::{DistanceRom, ExpKernel};
use crate::log::{LogKernel, LogKey, LogTables};
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
/// accumulation → DyNorm → exp kernel, evaluated one stride of same-width
/// rows at a time.
#[derive(Debug, Clone)]
pub struct LogFusion<L, E> {
    log: L,
    exp: E,
    acc_fmt: QFormat,
    /// The TableExp ROM the word stage reads, kept only while the datapath
    /// runs on bus words.
    rom: Option<DistanceRom>,
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
    ///
    /// The configuration chooses how the bus words flow. With a bus of at
    /// most 52 bits (so every word and every difference of two words is
    /// exact in `f64`) and an exp kernel with a
    /// [`ExpKernel::distance_rom`] — a [`crate::exp::TableExp::new`] table
    /// of power-of-two size, up to `2^20` entries on Q15.16 — the words
    /// stay integers: DyNorm is an integer max per row, and TableExp reads
    /// its ROM at `(max − word) >> shift` into each label's integer code
    /// and the row's code total ([`LogFusion::code_bits`]). The log
    /// kernel's [`LogKernel::bus_tables`], when it has them, then read each
    /// factor's log as a word. Every other configuration runs DyNorm and
    /// the exp kernel on the words' `f64` images, row by row, into
    /// probabilities. The codes' images `code · 2^-code_bits` are those
    /// probabilities bit for bit; the `f64` path is the reference the word
    /// path is tested against. The path is chosen here, once.
    pub fn new(log: L, exp: E, acc_fmt: QFormat) -> Self {
        let exact = acc_fmt.int_bits() + acc_fmt.frac_bits() < f64::MANTISSA_DIGITS;
        let rom = exact
            .then(|| exp.distance_rom(acc_fmt.frac_bits()))
            .flatten();
        let log_tables = rom.as_ref().and_then(|_| log.bus_tables(acc_fmt));
        Self {
            log,
            exp,
            acc_fmt,
            rom,
            log_tables,
        }
    }

    /// Fraction bits of the integer codes an evaluation writes, when this
    /// configuration runs on bus words: each code `c` stands for the
    /// probability `c · 2^-code_bits`, the ROM's output word. `None` on the
    /// `f64` path, which writes probabilities and no codes.
    pub fn code_bits(&self) -> Option<u32> {
        self.rom.as_ref().map(DistanceRom::code_bits)
    }

    /// Evaluate a stride of same-width factor rows (Eq. 11) into
    /// caller-owned buffers.
    ///
    /// `rows` yields each row's numerator and denominator columns, `width`
    /// values to a column; rows may differ in arity. Each factor's log is
    /// read onto the accumulator bus as a raw word — from the log kernel's
    /// integer tables where it has them, otherwise by quantizing the
    /// kernel's `f64` log once — and added column by column as a raw
    /// integer that saturates after every add and subtract, exactly as a
    /// `Fixed` accumulator would, each label in its factors' order.
    ///
    /// `out` holds each label's accumulated word and receives, on the word
    /// path, the rows' ROM codes and each row's code total
    /// ([`RowCodes::codes`]); `probs` receives the row-major probability
    /// vectors on the `f64` path and is left empty on the word path (see
    /// [`LogFusion::code_bits`]); `ops_per_row` receives one tally per row.
    /// A row's result does not depend on the rows evaluated with it, so
    /// modeled cycle totals are batching-invariant. Every buffer is
    /// overwritten; with warmed buffers the evaluation is allocation-free.
    /// `telemetry` collects the DyNorm/exp-kernel observations for the run
    /// journal (a handful of comparisons, no allocation); `phases`, when
    /// attached, accumulates per-stage wall times for the kernel profiler.
    /// Neither changes the result.
    ///
    /// # Panics
    ///
    /// Panics if a row's columns are not whole columns of `width`. Only an
    /// empty stride may have width 0.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_factor_rows_into<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
        width: usize,
        out: &mut RowCodes,
        probs: &mut Vec<f64>,
        ops_per_row: &mut Vec<OpCounts>,
        telemetry: &mut PgTelemetry,
        phases: Option<&mut StagePhases>,
    ) {
        let mut clock = StageClock::start(phases);
        let fmt = self.acc_fmt;
        let float_read = |x: f64| fmt.quantize_nearest_raw(self.log.log(x));
        let words = &mut out.words;
        words.clear();
        ops_per_row.clear();
        match &self.log_tables {
            Some(tables) => {
                let read = |x: f64| tables.word(x).unwrap_or_else(|| float_read(x));
                accumulate_into(rows, width, fmt, read, words, ops_per_row);
            }
            None => accumulate_into(rows, width, fmt, float_read, words, ops_per_row),
        }
        clock.lap(|p| &mut p.normalize_ns);
        self.finish_into(out, width, probs, telemetry, clock);
    }

    /// Evaluate a stride of same-width factor rows whose factors are
    /// integer counts plus a constant, bit for bit as
    /// [`LogFusion::evaluate_factor_rows_into`] evaluates their `f64`
    /// images.
    ///
    /// `rows` yields each row's counts (`width` to a column, numerator
    /// columns first), its number of numerator columns, and each column's
    /// `(constant, bound)`: the column's value for a count `n` is
    /// `f64::from(n) + constant`, and its counts run up to `bound`. Each
    /// factor's log word is read from `tables` by count: the word the `f64`
    /// path reads for that value on this datapath (see [`CountTables`]).
    /// The words are accumulated column by column with a clamp after every
    /// add and subtract, then finished by DyNorm and the exp kernel, as on
    /// the `f64` path.
    ///
    /// Same buffer, telemetry and phase contract as
    /// [`LogFusion::evaluate_factor_rows_into`]; with warmed buffers and
    /// tables the evaluation is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 32 bits, if a row's counts are not
    /// whole columns of `width`, one per `(constant, bound)` pair, or if a
    /// count exceeds its column's bound and every bound given for that
    /// column's constant before. Only an empty stride may have width 0.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_count_rows_into<'r, C: IntoIterator<Item = (f64, u32)>>(
        &self,
        rows: impl IntoIterator<Item = (&'r [u32], usize, C)>,
        width: usize,
        tables: &mut CountTables,
        out: &mut RowCodes,
        probs: &mut Vec<f64>,
        ops_per_row: &mut Vec<OpCounts>,
        telemetry: &mut PgTelemetry,
        phases: Option<&mut StagePhases>,
    ) {
        let fmt = self.acc_fmt;
        assert!(
            fmt.total_bits() <= i32::BITS,
            "count rows need a bus of at most 32 bits"
        );
        let mut clock = StageClock::start(phases);
        // The read the f64 path makes: the bus tables' word where there is
        // one, else the kernel's log quantized onto the bus.
        let read = |x: f64| {
            let float_read = || fmt.quantize_nearest_raw(self.log.log(x));
            match &self.log_tables {
                Some(tables) => tables.word(x).unwrap_or_else(float_read),
                None => float_read(),
            }
        };
        out.words.clear();
        ops_per_row.clear();
        let set = tables.datapath((self.log.key(), fmt));
        accumulate_counts_into(rows, width, fmt, set, read, &mut out.words, ops_per_row);
        clock.lap(|p| &mut p.normalize_ns);
        self.finish_into(out, width, probs, telemetry, clock);
    }

    /// Evaluate a stride of same-width rows whose scores are already in the
    /// log domain (e.g. MRF energies `-β·TC`), skipping the log kernels:
    /// each score is quantized once onto the bus. `scores` is row-major,
    /// `width` labels to a row. Same buffer, telemetry, phase and panic
    /// contract as [`LogFusion::evaluate_factor_rows_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_log_score_rows_into(
        &self,
        scores: &[f64],
        width: usize,
        out: &mut RowCodes,
        probs: &mut Vec<f64>,
        ops_per_row: &mut Vec<OpCounts>,
        telemetry: &mut PgTelemetry,
        phases: Option<&mut StagePhases>,
    ) {
        ops_per_row.clear();
        ops_per_row.resize(whole_chunks(scores.len(), width), finish_ops(width));
        let mut clock = StageClock::start(phases);
        out.words.clear();
        self.acc_fmt
            .quantize_nearest_raw_into(scores, &mut out.words);
        clock.lap(|p| &mut p.normalize_ns);
        self.finish_into(out, width, probs, telemetry, clock);
    }

    /// DyNorm and the exp kernel over the `width`-word rows of `out`'s
    /// words, into `probs` on the `f64` path or `out`'s codes and totals on
    /// the word path; the other outputs are left empty. Each row's tally of
    /// these stages is [`finish_ops`] on either path.
    ///
    /// On the word path, DyNorm folds each row's minimum and maximum word
    /// and keeps the maximum; the exp stage then reads every row in one
    /// pass from its words to its codes, `ROM[min((max − word) >> shift,
    /// size_lut)]`, summing them into the row's total. Each row's
    /// telemetry comes from its minimum and maximum word. Every other
    /// configuration runs the `f64` stage on the words' images, row by row.
    #[inline]
    fn finish_into(
        &self,
        out: &mut RowCodes,
        width: usize,
        probs: &mut Vec<f64>,
        telemetry: &mut PgTelemetry,
        mut clock: StageClock<'_>,
    ) {
        let RowCodes {
            words,
            codes,
            totals,
            code_bits,
        } = out;
        probs.clear();
        *code_bits = self.code_bits();
        let res = self.acc_fmt.resolution();
        // Only an empty stride has width 0.
        let width = width.max(1);
        let Some(rom) = &self.rom else {
            codes.clear();
            totals.clear();
            for row in words.chunks_exact(width) {
                let start = probs.len();
                probs.extend(row.iter().map(|&w| w as f64 * res));
                let scores = &mut probs[start..];
                // The NormTree's width sets only its latency, which is not
                // modeled here.
                telemetry.observe_norm_max(dynorm_apply(scores, width).max);
                for &s in scores.iter() {
                    telemetry.observe_exp_input(s);
                }
                clock.lap(|p| &mut p.dynorm_ns);
                for s in scores.iter_mut() {
                    *s = self.exp.exp(*s);
                }
                clock.lap(|p| &mut p.exp_ns);
            }
            return;
        };
        // Growth alone is filled: a warm buffer's slots are overwritten in
        // place. Each row's maximum waits in its total's slot for the read.
        let rows = words.len() / width;
        totals.resize(rows, 0);
        for (slot, row) in totals.iter_mut().zip(words.chunks_exact(width)) {
            let (lo, hi) = min_max(row);
            *slot = hi as u64;
            telemetry.observe_norm_max(hi as f64 * res);
            telemetry.observe_exp_input((lo - hi) as f64 * res);
            telemetry.observe_exp_input(0.0);
        }
        clock.lap(|p| &mut p.dynorm_ns);
        codes.resize(words.len(), 0);
        let reads = words.chunks_exact(width).zip(codes.chunks_exact_mut(width));
        for ((row, codes), slot) in reads.zip(totals.iter_mut()) {
            *slot = rom.read_row(row, *slot as i64, codes);
        }
        clock.lap(|p| &mut p.exp_ns);
    }
}

/// A row's minimum and maximum word, folded over two independent lanes:
/// a single running min/max is one serial chain of compares (there is no
/// packed 64-bit min/max on baseline x86-64), two chains overlap.
#[inline]
fn min_max(row: &[i64]) -> (i64, i64) {
    let (mut lo, mut hi) = ([i64::MAX; 2], [i64::MIN; 2]);
    let mut pairs = row.chunks_exact(2);
    for pair in &mut pairs {
        for lane in 0..2 {
            lo[lane] = lo[lane].min(pair[lane]);
            hi[lane] = hi[lane].max(pair[lane]);
        }
    }
    for &w in pairs.remainder() {
        lo[0] = lo[0].min(w);
        hi[0] = hi[0].max(w);
    }
    (lo[0].min(lo[1]), hi[0].max(hi[1]))
}

/// The word stage's memory and output for a stride of rows, owned by the
/// caller so that warm evaluations allocate nothing.
///
/// On the word path ([`LogFusion::code_bits`]) an evaluation leaves here
/// each label's ROM code and each row's code total: the `bit_lut`-bit words
/// TableExp hands TreeSum, and TreeSum's sum. On the `f64` path it leaves
/// no codes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowCodes {
    /// The rows' accumulator-bus words.
    words: Vec<i64>,
    /// Row-major ROM codes.
    codes: Vec<u64>,
    /// Each row's code sum, wrapping only past 2^64.
    totals: Vec<u64>,
    /// Fraction bits of the codes, while there are codes.
    code_bits: Option<u32>,
}

impl RowCodes {
    /// Empty buffers that grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last evaluation's row-major codes, each row's code total and the
    /// codes' fraction bits; `None` after an evaluation on the `f64` path or
    /// a [`RowCodes::forget`].
    pub fn codes(&self) -> Option<(&[u64], &[u64], u32)> {
        let bits = self.code_bits?;
        Some((&self.codes, &self.totals, bits))
    }

    /// Forget the codes, for a caller whose next output may come from
    /// another datapath: [`RowCodes::codes`] reads `None` until the next
    /// word-path evaluation, which overwrites the buffers in place.
    pub fn forget(&mut self) {
        self.code_bits = None;
    }
}

/// The DyNorm and exp stages' tally for one `width`-label row: one
/// comparison, one subtraction and one exp read per label.
fn finish_ops(width: usize) -> OpCounts {
    let n = width as u64;
    OpCounts {
        add: n,
        lut: n,
        cmp: n,
        ..OpCounts::new()
    }
}

/// The number of `width`-value rows or columns that `len` values fill.
/// Panics unless they fill whole ones; only an empty stride has width 0.
fn whole_chunks(len: usize, width: usize) -> usize {
    let chunks = len.checked_div(width).unwrap_or(0);
    assert_eq!(
        chunks * width,
        len,
        "batch length must be a multiple of the row width"
    );
    chunks
}

/// Sum each label's factor logs on the bus `fmt`, one `width`-value column
/// at a time: `log_raw` reads one factor's log as a raw word, and the
/// accumulator saturates after every add and subtract, as a `Fixed`
/// accumulator would. One word per label is appended to `words`, and one
/// tally per row to `ops_per_row`: its log reads and adds plus its
/// [`finish_ops`].
#[inline]
fn accumulate_into<'r>(
    rows: impl IntoIterator<Item = (&'r [f64], &'r [f64])>,
    width: usize,
    fmt: QFormat,
    log_raw: impl Fn(f64) -> i64,
    words: &mut Vec<i64>,
    ops_per_row: &mut Vec<OpCounts>,
) {
    let (min, max) = (fmt.min_raw(), fmt.max_raw());
    for (numerators, denominators) in rows {
        let start = words.len();
        words.resize(start + width, 0);
        let acc = &mut words[start..];
        // Numerator columns add and denominator columns subtract. Both
        // operands lie within ±2^62, so neither the sum nor the difference
        // can overflow before the clamp saturates it.
        for (columns, sign) in [(numerators, 1), (denominators, -1)] {
            whole_chunks(columns.len(), width);
            for column in columns.chunks_exact(width) {
                for (w, &x) in acc.iter_mut().zip(column) {
                    *w = (*w + sign * log_raw(x)).clamp(min, max);
                }
            }
        }
        let (mut ops, factors) = (finish_ops(width), numerators.len() + denominators.len());
        ops.lut += factors as u64;
        ops.add += factors as u64;
        ops_per_row.push(ops);
    }
}

/// Sum each label's count-column log words on the bus `fmt`, one column at
/// a time, as [`accumulate_into`] sums factor logs: numerator columns add
/// and denominator columns subtract, saturating after each. A column's
/// words come from `set`'s table for its constant, built with `read` up to
/// the column's bound when it holds fewer counts. One word per label is
/// appended to `words`, and one tally per row to `ops_per_row`.
#[inline]
fn accumulate_counts_into<'r, C: IntoIterator<Item = (f64, u32)>>(
    rows: impl IntoIterator<Item = (&'r [u32], usize, C)>,
    width: usize,
    fmt: QFormat,
    set: &mut TableSet,
    read: impl Fn(f64) -> i64,
    words: &mut Vec<i64>,
    ops_per_row: &mut Vec<OpCounts>,
) {
    let (min, max) = (fmt.min_raw(), fmt.max_raw());
    for (counts, numerators, columns) in rows {
        let start = words.len();
        let mut columns = columns.into_iter();
        let one_each = "a count row holds one (constant, bound) per column";
        for (c, counts) in counts.chunks(width.max(1)).enumerate() {
            assert_eq!(
                counts.len(),
                width,
                "batch length must be a multiple of the row width"
            );
            let (constant, bound) = columns.next().expect(one_each);
            let table = count_table(set, constant, bound, &read);
            let column = counts.iter().map(|&n| i64::from(table[n as usize]));
            match (c == 0, c < numerators) {
                // The first column starts each label's word from zero.
                (true, true) => words.extend(column.map(|w: i64| w.clamp(min, max))),
                (true, false) => words.extend(column.map(|w: i64| (-w).clamp(min, max))),
                (false, add) => {
                    let acc = words[start..].iter_mut().zip(column);
                    if add {
                        acc.for_each(|(w, x)| *w = (*w + x).clamp(min, max));
                    } else {
                        acc.for_each(|(w, x)| *w = (*w - x).clamp(min, max));
                    }
                }
            }
        }
        assert!(columns.next().is_none(), "{one_each}");
        // A row of no columns sums to zero.
        words.resize(start + width, 0);
        let (mut ops, factors) = (finish_ops(width), counts.len() as u64);
        ops.lut += factors;
        ops.add += factors;
        ops_per_row.push(ops);
    }
}

/// `set`'s table for the column constant `constant`, holding at least the
/// counts `0..=bound`: found, or built with `read` on first use, and
/// extended when `bound` is larger than before.
#[inline]
fn count_table(set: &mut TableSet, constant: f64, bound: u32, read: impl Fn(f64) -> i64) -> &[i32] {
    let bits = constant.to_bits();
    let index = match set.iter().position(|(c, _)| *c == bits) {
        Some(index) => index,
        None => {
            set.push((bits, Vec::new()));
            set.len() - 1
        }
    };
    let table = &mut set[index].1;
    let len = bound as usize + 1;
    if table.len() < len {
        let word = |n: usize| {
            let word = read(f64::from(n as u32) + constant);
            i32::try_from(word).expect("a word of a bus of at most 32 bits")
        };
        table.extend((table.len()..len).map(word));
    }
    table
}

/// Count-indexed log words: the caller-owned memory of
/// [`LogFusion::evaluate_count_rows_into`].
///
/// A table holds the bus words `table[n] = read(f64::from(n) + constant)`
/// for `n` in `0..=bound`, where `read` is the read the `f64` path makes on
/// the datapath: the log kernel's [`LogKernel::bus_tables`] word or its log
/// quantized onto the bus. Tables are kept per datapath, keyed by
/// everything their words depend on: the log kernel ([`LogKey`]) and the
/// bus format, then the column constant. So one `CountTables` serves any
/// number of datapaths and never reads another datapath's words. A table
/// is built on first use, up to its column's bound, and extended only when
/// a later bound is larger, so warm evaluations allocate nothing. Words are
/// stored as `i32`: count rows run on buses of at most 32 bits.
///
/// The tables are a software memo of TableLog: the hardware model still
/// prices one TableLog read per factor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountTables {
    /// Each datapath's tables.
    sets: Vec<((LogKey, QFormat), TableSet)>,
}

/// One datapath's tables: `(constant bits, words)` per column constant,
/// `words[n]` the word of count `n`.
type TableSet = Vec<(u64, Vec<i32>)>;

impl CountTables {
    /// No tables yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tables of `datapath`, the log kernel and the bus they are read
    /// for; none yet on first use.
    #[inline]
    fn datapath(&mut self, datapath: (LogKey, QFormat)) -> &mut TableSet {
        let index = match self.sets.iter().position(|(d, _)| *d == datapath) {
            Some(index) => index,
            None => {
                self.sets.push((datapath, TableSet::new()));
                self.sets.len() - 1
            }
        };
        &mut self.sets[index].1
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

    /// Evaluate one factor row of `width` labels (Eq. 11's numerator and
    /// denominator columns) with explicit multiply/divide sequences, each
    /// label in its factors' order. The row's probabilities are appended
    /// to `probs`, allocation-free once it has the capacity.
    pub fn evaluate_factors_into(
        &self,
        (numerators, denominators): (&[f64], &[f64]),
        width: usize,
        probs: &mut Vec<f64>,
    ) -> OpCounts {
        let bus = |x: f64| Fixed::from_f64(x, self.fmt, Rounding::Nearest);
        for label in 0..width {
            let mut acc = Fixed::one(self.fmt);
            for &a in numerators.iter().skip(label).step_by(width) {
                acc = acc * bus(a);
            }
            for &b in denominators.iter().skip(label).step_by(width) {
                acc = acc / bus(b);
            }
            probs.push(acc.to_f64().max(0.0));
        }
        OpCounts {
            mul: numerators.len() as u64,
            div: denominators.len() as u64,
            ..OpCounts::new()
        }
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

    /// Borrowed numerators and denominators: one label's factors, or one
    /// factor row's columns.
    type Row<'a> = (&'a [f64], &'a [f64]);

    /// Borrow owned factor pairs.
    fn borrow(rows: &[(Vec<f64>, Vec<f64>)]) -> Vec<Row<'_>> {
        rows.iter().map(|(n, d)| (&n[..], &d[..])).collect()
    }

    /// Lay out `labels`, one `(numerators, denominators)` pair per label,
    /// all of one arity, as a factor row's columns.
    fn columns(labels: &[Row]) -> (Vec<f64>, Vec<f64>) {
        let (n, d) = labels.first().map_or((0, 0), |(n, d)| (n.len(), d.len()));
        let arities = labels.iter().map(|(ln, ld)| (ln.len(), ld.len()));
        assert!(
            arities.into_iter().all(|a| a == (n, d)),
            "one arity per row"
        );
        let nums = (0..n).flat_map(|c| labels.iter().map(move |l| l.0[c]));
        let dens = (0..d).flat_map(|c| labels.iter().map(move |l| l.1[c]));
        (nums.collect(), dens.collect())
    }

    /// The probabilities an evaluation of `width`-label rows stands for:
    /// its `f64` probabilities on the `f64` path, which writes no codes, or
    /// its codes' images `code · 2^-code_bits` on the word path, which must
    /// write no `f64` probability and give every row its code sum as its
    /// total.
    fn probabilities<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        out: &RowCodes,
        probs: &[f64],
        width: usize,
    ) -> Vec<f64> {
        match (fusion.code_bits(), out.codes()) {
            (Some(bits), Some((codes, totals, got))) => {
                assert_eq!(got, bits, "the codes' fraction bits");
                assert!(probs.is_empty(), "the word path wrote f64 probabilities");
                let sums: Vec<u64> = (codes.chunks(width.max(1)))
                    .map(|row| row.iter().sum())
                    .collect();
                assert_eq!(totals, sums, "every total is its row's code sum");
                let scale = (1u64 << bits) as f64;
                codes.iter().map(|&c| c as f64 / scale).collect()
            }
            (None, None) => probs.to_vec(),
            (bits, codes) => panic!("code bits {bits:?}, but codes {codes:?}"),
        }
    }

    /// One unphased evaluation of a stride of `width`-label factor rows,
    /// given as columns, into fresh buffers.
    fn factor_stride<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
        width: usize,
    ) -> (Vec<f64>, Vec<OpCounts>, PgTelemetry) {
        let (mut out, mut probs, mut ops) = (RowCodes::new(), vec![7.0], Vec::new());
        let mut tel = PgTelemetry::new();
        let rows = rows.iter().copied();
        fusion
            .evaluate_factor_rows_into(rows, width, &mut out, &mut probs, &mut ops, &mut tel, None);
        (probabilities(fusion, &out, &probs, width), ops, tel)
    }

    /// One unphased evaluation of a stride of `width`-label log rows into
    /// fresh buffers.
    fn log_stride<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        scores: &[f64],
        width: usize,
    ) -> (Vec<f64>, Vec<OpCounts>, PgTelemetry) {
        let (mut out, mut probs, mut ops) = (RowCodes::new(), vec![7.0], Vec::new());
        let mut tel = PgTelemetry::new();
        fusion.evaluate_log_score_rows_into(
            scores, width, &mut out, &mut probs, &mut ops, &mut tel, None,
        );
        (probabilities(fusion, &out, &probs, width), ops, tel)
    }

    /// One factor row holding every label of `labels`.
    fn factors<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        labels: &[Row],
    ) -> (Vec<f64>, OpCounts) {
        let (n, d) = columns(labels);
        let (probs, ops, _) = factor_stride(fusion, &[(&n, &d)], labels.len());
        (probs, ops.first().copied().unwrap_or_default())
    }

    /// One log row holding every score of `scores`.
    fn log_scores<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        scores: &[f64],
    ) -> (Vec<f64>, OpCounts, PgTelemetry) {
        let (probs, ops, tel) = log_stride(fusion, scores, scores.len());
        (probs, ops.first().copied().unwrap_or_default(), tel)
    }

    /// One direct-datapath evaluation of one row holding every label of
    /// `labels`, into a fresh buffer.
    fn direct_factors(direct: &DirectDatapath, labels: &[Row]) -> (Vec<f64>, OpCounts) {
        let ((n, d), mut probs) = (columns(labels), Vec::new());
        let ops = direct.evaluate_factors_into((&n, &d), labels.len(), &mut probs);
        (probs, ops)
    }

    /// The `Fixed` accumulation loop the raw accumulator replaced, label by
    /// label over a stride of `width`-label factor rows: one `Fixed`
    /// quantization of the kernel's `f64` log and saturating add/sub per
    /// factor.
    fn fixed_loop<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
        width: usize,
    ) -> (Vec<f64>, Vec<OpCounts>, PgTelemetry) {
        let fmt = fusion.acc_fmt;
        let read = |x: f64| Fixed::from_f64(fusion.log.log(x), fmt, Rounding::Nearest);
        let (mut words, mut ops) = (Vec::new(), Vec::new());
        for &(numerators, denominators) in rows {
            let mut row_ops = finish_ops(width);
            for label in 0..width {
                let mut acc = Fixed::from_raw(0, fmt);
                for &a in numerators.iter().skip(label).step_by(width) {
                    row_ops.lut += 1;
                    acc = acc + read(a);
                    row_ops.add += 1;
                }
                for &b in denominators.iter().skip(label).step_by(width) {
                    row_ops.lut += 1;
                    acc = acc - read(b);
                    row_ops.add += 1;
                }
                words.push(acc.raw());
            }
            ops.push(row_ops);
        }
        let mut out = RowCodes {
            words,
            ..RowCodes::new()
        };
        let (mut probs, mut tel) = (Vec::new(), PgTelemetry::new());
        let clock = StageClock::start(None);
        fusion.finish_into(&mut out, width, &mut probs, &mut tel, clock);
        (probabilities(fusion, &out, &probs, width), ops, tel)
    }

    /// Assert `fusion`'s raw accumulator reproduces [`fixed_loop`] bit for
    /// bit on a stride of `width`-label factor rows: probabilities, op
    /// tallies and telemetry.
    fn assert_matches_fixed_loop<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[Row],
        width: usize,
        what: &str,
    ) {
        let (want, want_ops, want_tel) = fixed_loop(fusion, rows, width);
        let (probs, ops, tel) = factor_stride(fusion, rows, width);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&probs), bits(&want), "{what}: probs");
        assert_eq!(ops, want_ops, "{what}: ops");
        assert_eq!(tel, want_tel, "{what}: telemetry");
    }

    #[test]
    fn raw_accumulator_matches_the_fixed_loop_on_saturating_rows_and_wide_buses() {
        // Rows of one arity each that saturate a narrow bus on the first
        // factor, carry a zero factor (LOG_ZERO), non-finite factors or no
        // factors at all, each as a stride of its own and all as one stride
        // of several arities; plus strides of LDA-shaped
        // `(DT+α)(VT+β)/(ΣVT+βV)` rows.
        let (big, tiny, inf) = (1e300, 1e-300, f64::INFINITY);
        let owned = [
            columns(&[
                (&[big; 4], &[big; 4]),
                (&[tiny; 4], &[big; 4]),
                (&[big; 4], &[tiny; 4]),
            ]),
            columns(&[
                (&[tiny; 3], &[tiny; 2]),
                (&[big; 3], &[tiny; 2]),
                (&[0.5; 3], &[2.0; 2]),
            ]),
            columns(&[
                (&[0.0, big], &[tiny]),
                (&[inf, 0.5], &[f64::NAN]),
                (&[3.0e4, 7.0e4], &[2.5e-5]),
            ]),
            columns(&[(&[0.75], &[]), (&[1e-3], &[]), (&[0.5], &[])]),
            columns(&[(&[][..], &[][..]); 3]),
        ];
        let edges = borrow(&owned);
        let mut lda = Vec::new();
        let mut state = 0x5EED_F00Du64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let dt = (state >> 40) % 90;
            let vt = (state >> 20) % 400;
            let total = 400 + (state >> 8) % 6000;
            lda.push((
                vec![dt as f64 + 50.0 / 16.0, vt as f64 + 0.01],
                vec![total as f64 + 0.01 * 256.0],
            ));
        }
        let lda: Vec<_> = borrow(&lda).chunks(16).map(columns).collect();
        let lda = borrow(&lda);
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
        // Every edge row alone, the edge rows as one stride, and the LDA
        // stride.
        fn check<L: LogKernel, E: ExpKernel>(
            fusion: &LogFusion<L, E>,
            edges: &[Row],
            lda: &[Row],
            what: &str,
        ) {
            for (i, row) in edges.iter().enumerate() {
                let at = format!("{what} edge row {i}");
                assert_matches_fixed_loop(fusion, std::slice::from_ref(row), 3, &at);
            }
            assert_matches_fixed_loop(fusion, edges, 3, &format!("{what} edge stride"));
            assert_matches_fixed_loop(fusion, lda, 16, &format!("{what} lda stride"));
        }
        for fmt in formats {
            let float = LogFusion::new(FloatLog::new(), FloatExp::new(), fmt);
            check(&float, &edges, &lda, &format!("float-log {fmt}"));
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
                let ones = vec![1.0; walk_back.len()];
                let (n, d) = columns(&[(&[0.5, inf], &walk_back), (&[1e-3, 1.0], &ones)]);
                let what = format!("walk-back {fmt}");
                assert_matches_fixed_loop(&float, &[(&n, &d)], 2, &what);
            }
            for (size, bit) in [(64, 8), (1024, 24), (48, 16)] {
                let table = LogFusion::new(TableLog::new(size, bit), TableExp::new(size, bit), fmt);
                check(
                    &table,
                    &edges,
                    &lda,
                    &format!("table-log {size}x{bit} {fmt}"),
                );
            }
        }
    }

    /// One datapath on bus words and on the `f64` path: a `with_range`
    /// TableExp holds the same ROM as `new` but has no distance address.
    fn words_and_reference(size: usize, bit: u32) -> [LogFusion<TableLog, TableExp>; 2] {
        let fusion = |exp| LogFusion::new(TableLog::new(size, bit.min(46)), exp, acc());
        let words = fusion(TableExp::new(size, bit));
        let reference = fusion(TableExp::with_range(size, bit, 16.0));
        assert!(words.rom.is_some(), "{size}x{bit}");
        assert_eq!(words.log_tables.is_some(), bit <= 16, "{size}x{bit}");
        assert!(reference.rom.is_none() && reference.log_tables.is_none());
        [words, reference]
    }

    /// Probabilities, tallies and telemetry as bits, so NaN and the sign of
    /// zero compare too.
    fn as_bits(
        (probs, ops, tel): &(Vec<f64>, Vec<OpCounts>, PgTelemetry),
    ) -> impl PartialEq + Debug {
        let probs: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        let tel = [tel.norm_max, tel.exp_in_min, tel.exp_in_max].map(|v| v.map(f64::to_bits));
        (probs, ops.clone(), tel)
    }

    #[test]
    fn word_path_matches_the_f64_reference_bit_for_bit() {
        // Log rows with LOG_ZERO, NaN and ±∞ scores, ties and deep
        // flushes; factor rows of one arity each, shaped like LDA's and
        // BN's, with zero, subnormal, negative, NaN and ±∞ factors, and a
        // row of no factors.
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
            columns(&[
                (&[12.5, 3.01], &[402.56]),
                (&[0.0, 0.5], &[1.0]),
                (&[f64::MIN_POSITIVE / 3.0, 2.0], &[1.0]),
                (&[-0.25, 0.75], &[f64::NAN]),
            ]),
            columns(&[
                (&[1e-300, 1e300], &[f64::NEG_INFINITY]),
                (&[f64::INFINITY, 1.0], &[0.5]),
                (&[3.0, 0.25], &[0.5]),
                (&[1.0, 1.0], &[1.0]),
            ]),
            columns(&[
                (&[0.999_999, 1.0, 2.0 - 1e-15], &[1.5]),
                (&[1.0; 3], &[1.5]),
                (&[0.5, 2.0, 0.25], &[1.0]),
                (&[0.0, 1.0, 1.0], &[1.0]),
            ]),
            columns(&[(&[0.75], &[]), (&[0.5], &[]), (&[1e-9], &[]), (&[0.0], &[])]),
            columns(&[(&[][..], &[][..]); 4]),
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
            // Each row alone and every row of a form as one stride.
            let run = |f: &LogFusion<TableLog, TableExp>| {
                let mut out: Vec<_> = log_rows
                    .iter()
                    .map(|row| as_bits(&log_stride(f, row, 4)))
                    .collect();
                out.push(as_bits(&log_stride(f, &flat, 4)));
                for row in &factor_rows {
                    out.push(as_bits(&factor_stride(f, std::slice::from_ref(row), 4)));
                }
                out.push(as_bits(&factor_stride(f, &factor_rows, 4)));
                out
            };
            assert_eq!(run(&words), run(&reference), "{size}x{bit}");
        }
    }

    /// A count row: its counts, `width` to a column, its number of
    /// numerator columns, and each column's `(constant, bound)`.
    type CountRow = (Vec<u32>, usize, Vec<(f64, u32)>);

    /// `rows` random count rows of `width` labels: up to three numerator
    /// and two denominator columns each, with constants among zero (count
    /// 0 reads LOG_ZERO), LDA's and +∞ (which saturates the bus), and
    /// counts of 0, of the column's bound and between.
    fn random_count_rows(state: &mut u64, rows: usize, width: usize) -> Vec<CountRow> {
        let mut next = |n: u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) % n
        };
        let constants = [0.0, 50.0 / 16.0, 0.01, 2.56, 0.39, f64::INFINITY];
        let bounds = [0, 1, 80, 600];
        (0..rows)
            .map(|_| {
                let (n, d) = (next(4) as usize, next(3) as usize);
                let columns: Vec<(f64, u32)> = (0..n + d)
                    .map(|_| {
                        let c = constants[next(constants.len() as u64) as usize];
                        (c, bounds[next(bounds.len() as u64) as usize])
                    })
                    .collect();
                let counts = columns
                    .iter()
                    .flat_map(|&(_, bound)| {
                        (0..width)
                            .map(|_| match next(3) {
                                0 => 0,
                                1 => bound,
                                _ => next(u64::from(bound) + 1) as u32,
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                (counts, n, columns)
            })
            .collect()
    }

    /// A count row's `f64` image: its numerator and denominator columns.
    fn image((counts, n, columns): &CountRow, width: usize) -> (Vec<f64>, Vec<f64>) {
        let values = counts
            .chunks(width)
            .zip(columns)
            .flat_map(|(counts, &(c, _))| counts.iter().map(move |&count| f64::from(count) + c));
        let mut values: Vec<f64> = values.collect();
        let denominators = values.split_off(n * width);
        (values, denominators)
    }

    /// Every output of one count-path evaluation: its accumulated words,
    /// probabilities, codes with each row's total, tallies and telemetry.
    type Evaluation = (
        Vec<i64>,
        Vec<f64>,
        Option<(Vec<u64>, Vec<u64>, u32)>,
        Vec<OpCounts>,
        PgTelemetry,
    );

    /// An evaluation's codes, each row's total and their fraction bits, as
    /// owned values.
    fn owned_codes(out: &RowCodes) -> Option<(Vec<u64>, Vec<u64>, u32)> {
        out.codes()
            .map(|(codes, totals, bits)| (codes.to_vec(), totals.to_vec(), bits))
    }

    /// One count-path evaluation of `rows` through `tables`. Its words are
    /// accumulated once more from the tables the evaluation left, and must
    /// be the words the evaluation finished.
    fn count_stride<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[CountRow],
        width: usize,
        tables: &mut CountTables,
    ) -> Evaluation {
        let mut out = RowCodes {
            words: vec![9],
            codes: vec![9],
            totals: vec![9],
            ..RowCodes::new()
        };
        let (mut probs, mut ops, mut tel) = (vec![9.0], Vec::new(), PgTelemetry::new());
        let borrowed = || {
            rows.iter()
                .map(|(counts, n, columns)| (&counts[..], *n, columns.iter().copied()))
        };
        fusion.evaluate_count_rows_into(
            borrowed(),
            width,
            tables,
            &mut out,
            &mut probs,
            &mut ops,
            &mut tel,
            None,
        );
        let probs = probabilities(fusion, &out, &probs, width);
        let set = tables.datapath((fusion.log.key(), fusion.acc_fmt));
        let built = |_| unreachable!("the evaluation built every table");
        let mut words = Vec::new();
        accumulate_counts_into(
            borrowed(),
            width,
            fusion.acc_fmt,
            set,
            built,
            &mut words,
            &mut Vec::new(),
        );
        assert_eq!(words, out.words, "the words the evaluation finished");
        (words, probs, owned_codes(&out), ops, tel)
    }

    /// The same outputs for the count rows' images on the factor path; the
    /// words are the accumulation's.
    fn image_stride<L: LogKernel, E: ExpKernel>(
        fusion: &LogFusion<L, E>,
        rows: &[CountRow],
        width: usize,
    ) -> Evaluation {
        let images: Vec<_> = rows.iter().map(|row| image(row, width)).collect();
        let images = borrow(&images);
        let fmt = fusion.acc_fmt;
        let float_read = |x: f64| fmt.quantize_nearest_raw(fusion.log.log(x));
        let read = |x: f64| {
            let word = fusion.log_tables.as_ref().and_then(|t| t.word(x));
            word.unwrap_or_else(|| float_read(x))
        };
        let (mut words, mut ops) = (Vec::new(), Vec::new());
        accumulate_into(
            images.iter().copied(),
            width,
            fmt,
            read,
            &mut words,
            &mut ops,
        );
        let (mut out, mut probs, mut tel) = (RowCodes::new(), Vec::new(), PgTelemetry::new());
        fusion.evaluate_factor_rows_into(
            images, width, &mut out, &mut probs, &mut ops, &mut tel, None,
        );
        let probs = probabilities(fusion, &out, &probs, width);
        (words, probs, owned_codes(&out), ops, tel)
    }

    /// An evaluation as bits, so NaN and the sign of zero compare too.
    fn evaluation_bits((words, probs, codes, ops, tel): &Evaluation) -> impl PartialEq + Debug {
        let probs: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        let tel = [tel.norm_max, tel.exp_in_min, tel.exp_in_max].map(|v| v.map(f64::to_bits));
        (words.clone(), probs, codes.clone(), ops.clone(), tel)
    }

    #[test]
    fn count_rows_evaluate_as_their_images_bit_for_bit() {
        // Every CoopMC table configuration on the Q15.16 bus (64x8 reads
        // the bus tables and finishes on words, 100x8 reads float logs and
        // finishes in f64, 64x20 reads float logs and finishes on words),
        // float kernels and a narrow Q5.10 bus. One CountTables serves them
        // all, each stride after a stride of another datapath.
        let (bus, narrow) = (acc(), QFormat::new(5, 10).unwrap());
        let table = |size, bit, fmt| {
            LogFusion::new(TableLog::new(size, bit), TableExp::new(size, bit), fmt)
        };
        let tables = [
            table(64, 8, bus),
            table(100, 8, bus),
            table(64, 20, bus),
            table(64, 8, narrow),
        ];
        let float = LogFusion::new(FloatLog::new(), FloatExp::new(), bus);
        assert!(tables[0].log_tables.is_some() && tables[1].log_tables.is_none());
        assert!(tables[2].log_tables.is_none() && tables[2].rom.is_some());
        let mut shared = CountTables::new();
        let mut state = 0xC0DE_5EED_u64;
        for width in [1, 2, 3, 16, 128] {
            for _ in 0..3 {
                let rows = random_count_rows(&mut state, 4, width);
                for fusion in &tables {
                    let want = evaluation_bits(&image_stride(fusion, &rows, width));
                    let fresh = count_stride(fusion, &rows, width, &mut CountTables::new());
                    assert_eq!(evaluation_bits(&fresh), want, "{width} fresh");
                    let reused = count_stride(fusion, &rows, width, &mut shared);
                    assert_eq!(evaluation_bits(&reused), want, "{width} reused");
                }
                let want = evaluation_bits(&image_stride(&float, &rows, width));
                let got = count_stride(&float, &rows, width, &mut shared);
                assert_eq!(evaluation_bits(&got), want, "{width} float");
            }
        }
        // One table set per datapath; each table holds its bounds' counts.
        assert_eq!(shared.sets.len(), tables.len() + 1);
        for (_, set) in &shared.sets {
            let lens: Vec<usize> = set.iter().map(|(_, w)| w.len()).collect();
            assert!(
                lens.iter().all(|&len| [1, 2, 81, 601].contains(&len)),
                "{lens:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a bus of at most 32 bits")]
    fn count_rows_on_a_wider_bus_are_refused() {
        let wide = QFormat::new(31, 31).unwrap();
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), wide);
        let rows = [(vec![1, 2], 1, vec![(0.5, 9)])];
        count_stride(&fusion, &rows, 2, &mut CountTables::new());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_count_above_its_bound_is_refused() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let rows = [(vec![3, 4], 1, vec![(0.5, 3)])];
        count_stride(&fusion, &rows, 2, &mut CountTables::new());
    }

    #[test]
    #[should_panic(expected = "one (constant, bound) per column")]
    fn a_count_row_needs_a_constant_per_column() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let rows = [(vec![1, 2, 3, 4], 1, vec![(0.5, 9)])];
        count_stride(&fusion, &rows, 2, &mut CountTables::new());
    }

    #[test]
    fn other_configs_keep_the_f64_path() {
        let words = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        assert!(words.rom.is_some() && words.log_tables.is_some());
        assert_eq!(words.code_bits(), Some(8));
        let f64_paths = [
            LogFusion::new(
                TableLog::new(64, 8),
                TableExp::with_range(64, 8, 16.0),
                acc(),
            ),
            LogFusion::new(TableLog::new(48, 8), TableExp::new(48, 8), acc()),
            // Words of more than 52 bits are not exact in f64.
            LogFusion::new(
                TableLog::new(64, 8),
                TableExp::new(64, 8),
                QFormat::new(15, 38).unwrap(),
            ),
        ];
        for f in &f64_paths {
            assert!(f.rom.is_none() && f.log_tables.is_none());
            assert_eq!(f.code_bits(), None);
        }
        // A size whose step is finer than a bus word; checked on a narrow
        // bus rather than with a table of 2^21 entries.
        let fine = LogFusion::new(
            TableLog::new(256, 8),
            TableExp::new(256, 8),
            QFormat::new(15, 3).unwrap(),
        );
        assert!(fine.rom.is_none());
        let float = LogFusion::new(FloatLog::new(), TableExp::new(64, 8), acc());
        assert!(float.rom.is_some() && float.log_tables.is_none());
    }

    #[test]
    fn fused_float_kernels_match_reference_ratios() {
        // With float log/exp kernels the fused result must match the direct
        // ratio up to accumulator quantization.
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc());
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
        let fusion = LogFusion::new(TableLog::new(128, 16), TableExp::new(128, 16), acc());
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
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        // Tiny probabilities that would all flush to zero without DyNorm.
        let owned = [1e-6, 3e-6, 2e-6].map(|p| (vec![p], vec![]));
        let (probs, _) = factors(&fusion, &borrow(&owned));
        assert_eq!(probs[1], 1.0, "best label must map to exp(0) = 1");
        assert!(probs.iter().all(|&p| p > 0.0), "{probs:?}");
    }

    #[test]
    fn log_scores_path_skips_log_kernels() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let (probs, ops, _) = log_scores(&fusion, &[-10.0, -9.0, -12.0]);
        assert_eq!(probs[1], 1.0);
        // one lut per exp, none per log
        assert_eq!(ops.lut, 3);
    }

    #[test]
    fn op_counts_match_factor_structure() {
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc());
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
        let fusion = LogFusion::new(FloatLog::new(), FloatExp::new(), acc());
        let (fused, _) = factors(&fusion, &rows);
        assert!(fused[0] > 0.0, "LogFusion+DyNorm must not underflow");
    }

    #[test]
    fn zero_factor_yields_zero_probability() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let (probs, _) = factors(&fusion, &[(&[0.0, 0.5], &[]), (&[0.5, 0.5], &[])]);
        assert_eq!(probs[0], 0.0, "a zero factor must kill the label");
        assert!(probs[1] > 0.0);
    }

    #[test]
    fn empty_vector_is_empty() {
        // An empty stride has width 0, on the f64 path and on bus words.
        let float = LogFusion::new(FloatLog::new(), FloatExp::new(), acc());
        let words = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let empty = (Vec::new(), Vec::new(), PgTelemetry::new());
        assert_eq!(factor_stride(&float, &[], 0), empty);
        assert_eq!(log_stride(&float, &[], 0), empty);
        assert_eq!(factor_stride(&words, &[], 0), empty);
        assert_eq!(log_stride(&words, &[], 0), empty);
    }

    #[test]
    #[should_panic(expected = "multiple of the row width")]
    fn ragged_factor_strides_are_refused() {
        // Three numerators do not fill whole columns of two labels.
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        factor_stride(&fusion, &[(&[0.5; 3], &[])], 2);
    }

    #[test]
    fn batched_rows_are_bit_identical_to_per_row_scalar_calls() {
        // Cover a small (64) and a large (1024) exp table on bus words and
        // a 48-entry one on the f64 path, several widths, and log strides
        // and factor strides of LDA-shaped and BN-shaped rows: every row of
        // a stride must equal that row evaluated alone.
        for (size, bit) in [(64, 8), (1024, 24), (48, 8)] {
            let fusion = LogFusion::new(TableLog::new(size, bit), TableExp::new(size, bit), acc());
            for width in [1usize, 2, 3, 8, 13] {
                let rows = 7;
                let flat: Vec<f64> = (0..rows * width)
                    .map(|i| -(((i * 13) % 29) as f64) * 0.61 - 0.01)
                    .collect();
                let owned: Vec<_> = (0..rows * width)
                    .map(|i| {
                        let u = ((i * 13) % 29) as f64;
                        match i / width % 3 {
                            0 => (vec![u + 0.1, 0.5 * u + 0.01], vec![40.0 + 7.0 * u]),
                            1 => (vec![u / 29.0 + 0.01], vec![]),
                            _ => (vec![0.5, u / 29.0, 0.25], vec![]),
                        }
                    })
                    .collect();
                let owned: Vec<_> = borrow(&owned).chunks(width).map(columns).collect();
                let labels = borrow(&owned);
                let log = log_stride(&fusion, &flat, width);
                let factor = factor_stride(&fusion, &labels, width);
                assert_eq!(log.0.len(), rows * width);
                assert_eq!(log.1.len(), rows);
                let mut log_alone = (Vec::new(), Vec::new(), PgTelemetry::new());
                let mut factor_alone = log_alone.clone();
                for row in 0..rows {
                    let cols = row * width..(row + 1) * width;
                    for (alone, (probs, ops, tel)) in [
                        (
                            &mut log_alone,
                            log_stride(&fusion, &flat[cols.clone()], width),
                        ),
                        (
                            &mut factor_alone,
                            factor_stride(&fusion, &labels[row..row + 1], width),
                        ),
                    ] {
                        alone.0.extend(probs);
                        alone.1.extend(ops);
                        alone.2.merge(&tel);
                    }
                }
                let at = format!("{size}x{bit} width {width}");
                assert_eq!(as_bits(&log), as_bits(&log_alone), "{at} log");
                assert_eq!(as_bits(&factor), as_bits(&factor_alone), "{at} factors");
            }
        }
    }

    #[test]
    fn phased_evaluation_is_bit_identical_and_fills_phases() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        assert!(fusion.code_bits().is_some(), "a word-path stride");
        let scores = [-10.0, -9.0, -12.0, -11.5];
        // Two one-label factor rows of different arities.
        let rows: [Row; 2] = [(&[0.5, 0.7], &[]), (&[0.25], &[0.5])];
        let (mut out, mut probs, mut ops) = (RowCodes::new(), Vec::new(), Vec::new());

        let (mut tel, mut log_phases) = (PgTelemetry::new(), StagePhases::default());
        fusion.evaluate_log_score_rows_into(
            &scores,
            2,
            &mut out,
            &mut probs,
            &mut ops,
            &mut tel,
            Some(&mut log_phases),
        );
        assert_eq!(
            (probabilities(&fusion, &out, &probs, 2), ops.clone(), tel),
            log_stride(&fusion, &scores, 2)
        );
        // The fold and the code pass are timed as separate stages.
        assert_ne!(log_phases.dynorm_ns, 0, "DyNorm's fold must be timed");
        assert_ne!(log_phases.exp_ns, 0, "the code pass must be timed");

        // Factor rows fill phases through the same plumbing.
        let (mut tel, mut factor_phases) = (PgTelemetry::new(), StagePhases::default());
        fusion.evaluate_factor_rows_into(
            rows,
            1,
            &mut out,
            &mut probs,
            &mut ops,
            &mut tel,
            Some(&mut factor_phases),
        );
        let got = (probabilities(&fusion, &out, &probs, 1), ops, tel);
        assert_eq!(got, factor_stride(&fusion, &rows, 1));
        assert_ne!(factor_phases.dynorm_ns, 0);
        assert_ne!(factor_phases.exp_ns, 0);
        let before = factor_phases;
        factor_phases.merge(&log_phases);
        assert_eq!(factor_phases.exp_ns, before.exp_ns + log_phases.exp_ns);
    }

    #[test]
    fn batched_rows_reuse_dirty_buffers_correctly() {
        let fusion = LogFusion::new(TableLog::new(64, 8), TableExp::new(64, 8), acc());
        let (mut out, mut probs, mut ops_rows) = (RowCodes::new(), Vec::new(), Vec::new());
        let mut tel = PgTelemetry::new();
        // A big first batch leaves stale content behind...
        let big: Vec<f64> = (0..40).map(|i| -(i as f64)).collect();
        fusion.evaluate_log_score_rows_into(
            &big,
            8,
            &mut out,
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
            &mut out,
            &mut probs,
            &mut ops_rows,
            &mut tel2,
            None,
        );
        let (codes, totals, _) = out.codes().expect("a word-path stride");
        assert!(probs.is_empty());
        assert_eq!(codes.len(), 4);
        assert_eq!(totals.len(), 2);
        assert_eq!(ops_rows.len(), 2);
        let images = probabilities(&fusion, &out, &probs, 2);
        assert_eq!(images[..2], log_scores(&fusion, &small[..2]).0[..]);
    }
}
