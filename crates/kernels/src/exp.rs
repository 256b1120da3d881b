//! Exponential kernels.
//!
//! Probability Generation turns log-domain scores into (unnormalized)
//! probabilities through an exponential kernel. The paper compares three
//! implementations:
//!
//! - a float reference ([`FloatExp`]),
//! - the 32-bit (or narrower) fixed-point approximation-based ALU used by
//!   previous accelerators ([`FixedExp`]), and
//! - the LUT-based [`TableExp`] enabled by DyNorm (Eq. 10).

use coopmc_fixed::{quantize_unsigned, QFormat};

/// An exponential kernel mapping a (log-domain) score to `e^x`.
///
/// Implementations model a hardware datapath: they quantize their input
/// and/or output exactly as the modelled circuit would. Inputs are expected
/// to be `<= 0` in normal operation (DyNorm guarantees this); implementations
/// define their own saturation behaviour for positive inputs.
pub trait ExpKernel {
    /// Evaluate the kernel on `x`.
    fn exp(&self, x: f64) -> f64;

    /// Latency of one evaluation in cycles.
    fn latency_cycles(&self) -> u64;

    /// Short human-readable kernel name for reports.
    fn name(&self) -> &'static str;

    /// The kernel's ROM as DyNorm distance words with `frac_bits` fraction
    /// bits address it ([`DistanceRom`]). `None`, the default, means the
    /// kernel has no such address: its inputs go through
    /// [`ExpKernel::exp`] as `f64`.
    fn distance_rom(&self, frac_bits: u32) -> Option<DistanceRom> {
        let _ = frac_bits;
        None
    }
}

/// Full-precision reference exponential (the "Float32" baseline curves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatExp;

impl FloatExp {
    /// Create the reference kernel.
    pub fn new() -> Self {
        Self
    }
}

impl ExpKernel for FloatExp {
    fn exp(&self, x: f64) -> f64 {
        x.exp()
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::EXP_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "float-exp"
    }
}

/// The approximation-based fixed-point exponential ALU of previous
/// accelerator designs.
///
/// The input is quantized onto a fixed-point grid with `frac_bits`
/// fractional bits, the exponential is evaluated by range reduction
/// (`e^x = 2^k · e^r`) plus a degree-4 polynomial on the reduced argument —
/// the classic shift-and-polynomial hardware structure — and the output is
/// re-quantized to `frac_bits` fractional bits. With few fractional bits,
/// outputs below `2^-frac_bits` flush to zero: exactly the failure mode
/// Fig. 2 demonstrates for un-normalized inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedExp {
    in_fmt: QFormat,
    out_frac_bits: u32,
}

impl FixedExp {
    /// A kernel with `frac_bits` fractional bits on both input and output,
    /// and 15 integer bits on the input (the paper's Q15.16-style split).
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits` is 0 or `frac_bits + 15` exceeds 62.
    pub fn new(frac_bits: u32) -> Self {
        let in_fmt = QFormat::new(15, frac_bits).expect("valid exp input format");
        Self {
            in_fmt,
            out_frac_bits: frac_bits,
        }
    }

    /// Fractional bits of the output grid.
    pub fn frac_bits(&self) -> u32 {
        self.out_frac_bits
    }

    /// The polynomial approximation on the range-reduced argument
    /// `r ∈ [-ln2/2, ln2/2]`: a degree-4 minimax-style expansion.
    fn poly(r: f64) -> f64 {
        // Taylor around 0; |error| < 6e-5 on the reduced range, far below
        // the output quantization for every precision the paper sweeps.
        1.0 + r + r * r / 2.0 + r * r * r / 6.0 + r * r * r * r / 24.0
    }
}

impl ExpKernel for FixedExp {
    fn exp(&self, x: f64) -> f64 {
        // Input quantization (the value arriving on the input bus).
        let xq = self.in_fmt.requantize_nearest(x);
        // Range reduction: x = k*ln2 + r.
        let k = (xq / std::f64::consts::LN_2).round();
        let r = xq - k * std::f64::consts::LN_2;
        let val = Self::poly(r) * (k as i32 as f64).exp2();
        // Output quantization: unsigned, max 2^15 to mirror the Q15.16 bus.
        let max_raw = (1u64 << self.out_frac_bits) << 15;
        quantize_unsigned(val, self.out_frac_bits, max_raw)
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::EXP_APPROX_CYCLES
    }

    fn name(&self) -> &'static str {
        "fixed-approx-exp"
    }
}

/// The paper's LUT-based exponential kernel (Eq. 10).
///
/// Inputs must be non-positive (DyNorm guarantees this). A negative input
/// `x` quantizes to `k = floor(-x / step_lut)`; the output is the ROM entry
/// `exp(-k·step_lut)` quantized to `bit_lut` fractional bits, or zero when
/// `k >= size_lut`. The default `step_lut` is `16 / size_lut` (the paper's
/// choice: inputs rarely fall below −16 after DyNorm).
///
/// [`ExpKernel::exp`] takes the input as an `f64`. A table built by
/// [`TableExp::new`] at a power-of-two size has a step of `2^(4 − n)` for
/// `size_lut = 2^n`, so on a bus with `f` fraction bits `k` is a right
/// shift of the DyNorm distance word by `f + 4 − n`: its
/// [`ExpKernel::distance_rom`] reads the ROM that way when the shift is
/// non-negative (every size up to `2^20` on the Q15.16 bus).
/// [`TableExp::with_range`] tables, and other sizes, have no distance
/// address.
#[derive(Debug, Clone, PartialEq)]
pub struct TableExp {
    /// The ROM's `size_lut` entries, then the flush code's zero.
    entries: Vec<f64>,
    step: f64,
    bit_lut: u32,
    /// `log2(step_lut)` for a [`TableExp::new`] table of power-of-two
    /// size; `None` for every other table.
    step_log2: Option<i32>,
}

impl TableExp {
    /// Build a table with `size_lut` entries of `bit_lut` fractional bits
    /// each, with the default step `16 / size_lut`.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0` or `bit_lut` is 0 or above 52.
    pub fn new(size_lut: usize, bit_lut: u32) -> Self {
        // 16 / 2^n = 2^(4 - n), exactly.
        let step_log2 = size_lut
            .is_power_of_two()
            .then(|| 4 - size_lut.trailing_zeros() as i32);
        Self {
            step_log2,
            ..Self::with_range(size_lut, bit_lut, 16.0)
        }
    }

    /// Build a table covering inputs down to `-range` (i.e.
    /// `step_lut = range / size_lut`). Used by the step-size ablation.
    ///
    /// # Panics
    ///
    /// Panics if `size_lut == 0`, `bit_lut` is 0 or above 52, or `range` is
    /// not strictly positive.
    pub fn with_range(size_lut: usize, bit_lut: u32, range: f64) -> Self {
        assert!(size_lut > 0, "size_lut must be positive");
        assert!((1..=52).contains(&bit_lut), "bit_lut must be in 1..=52");
        assert!(range > 0.0, "range must be positive");
        let step = range / size_lut as f64;
        let max_raw = 1u64 << bit_lut; // entries are in (0, 1]
        let entries: Vec<f64> = (0..size_lut)
            .map(|k| quantize_unsigned((-(k as f64) * step).exp(), bit_lut, max_raw))
            .chain([0.0])
            .collect();
        Self {
            entries,
            step,
            bit_lut,
            step_log2: None,
        }
    }

    /// Number of ROM entries.
    pub fn size_lut(&self) -> usize {
        self.entries.len() - 1
    }

    /// Fractional bits per ROM entry.
    pub fn bit_lut(&self) -> u32 {
        self.bit_lut
    }

    /// Quantization step between adjacent inputs.
    pub fn step_lut(&self) -> f64 {
        self.step
    }

    /// Total ROM capacity in bits (drives the area model).
    pub fn rom_bits(&self) -> u64 {
        self.size_lut() as u64 * self.bit_lut as u64
    }

    /// Read entry `k` directly (`None` past the end — hardware returns 0).
    pub fn entry(&self, k: usize) -> Option<f64> {
        self.entries[..self.size_lut()].get(k).copied()
    }

    /// The input coverage of the ROM: inputs in `(-lut_range, 0]` resolve
    /// to an entry, anything below flushes to zero. Equals
    /// `step_lut · size_lut`.
    pub fn lut_range(&self) -> f64 {
        self.step * self.size_lut() as f64
    }

    /// Output-grid step of the ROM entries, `2^-bit_lut`.
    pub fn output_ulp(&self) -> f64 {
        coopmc_fixed::unsigned_resolution(self.bit_lut)
    }

    /// Worst-case error from quantizing an ideal entry value onto the
    /// `bit_lut`-bit output grid (round-to-nearest: half an ulp).
    pub fn output_quantization_error(&self) -> f64 {
        coopmc_fixed::unsigned_rounding_error(self.bit_lut)
    }

    /// Worst-case *absolute* error of the step (floor-index) addressing
    /// against the true exponential, before output quantization:
    /// `sup_{x ≤ 0} |e^{-⌊-x/step⌋·step} - e^x| = 1 - e^{-step}`,
    /// attained as `x` approaches the first knot from below.
    pub fn step_error_bound(&self) -> f64 {
        -(-self.step).exp_m1()
    }

    /// Worst-case *relative* step error against the true exponential:
    /// the selected entry over-reads `e^x` by at most the factor
    /// `e^step - 1` (`entry/e^x - 1 ≤ e^step - 1`). The error-propagation
    /// pass scales this by each label's probability mass, which is what
    /// makes the end-to-end total-variation bound independent of how many
    /// labels carry negligible mass.
    pub fn step_error_factor(&self) -> f64 {
        self.step.exp_m1()
    }

    /// Probability mass at the flush-to-zero edge: inputs below
    /// `-lut_range` read 0 while the true exponential still carries up to
    /// `e^-lut_range`.
    pub fn flush_tail_mass(&self) -> f64 {
        (-self.lut_range()).exp()
    }

    /// Worst-case absolute error of the full kernel against `e^x` over all
    /// `x ≤ 0`: the step error plus output quantization inside the domain,
    /// or the discarded tail mass beyond it (the flushed output 0 is
    /// on-grid, so no quantization error applies there).
    pub fn worst_case_abs_error(&self) -> f64 {
        (self.step_error_bound() + self.output_quantization_error()).max(self.flush_tail_mass())
    }
}

impl ExpKernel for TableExp {
    fn exp(&self, x: f64) -> f64 {
        if x >= 0.0 {
            // DyNorm pins the maximum input at exactly 0; positive inputs
            // cannot occur in-circuit, so saturate at entry 0.
            return self.entries[0];
        }
        let k = (-x / self.step).floor();
        if k >= self.size_lut() as f64 {
            0.0
        } else {
            self.entries[k as usize]
        }
    }

    fn latency_cycles(&self) -> u64 {
        crate::cost::LUT_CYCLES
    }

    fn name(&self) -> &'static str {
        "table-exp"
    }

    fn distance_rom(&self, frac_bits: u32) -> Option<DistanceRom> {
        // k = ⌊d·2^-f / 2^s⌋ = d >> (f + s) while f + s is non-negative.
        let shift = u32::try_from(frac_bits as i32 + self.step_log2?).ok()?;
        let scale = (1u64 << self.bit_lut) as f64;
        (shift < u64::BITS).then(|| DistanceRom {
            codes: self.entries.iter().map(|&e| (e * scale) as u64).collect(),
            shift,
            code_bits: self.bit_lut,
        })
    }
}

/// A [`TableExp`] ROM addressed by DyNorm distance words (§III-B), holding
/// each entry as the integer code the ROM outputs in hardware.
///
/// After DyNorm every bus word `w` of a row sits `d = max − w ≥ 0` words
/// below the row's maximum, and its exp input is `−d·2^−f` on a bus with
/// `f` fraction bits. With `step_lut = 2^s`, the paper's address
/// `k = ⌊−x/step_lut⌋` is then `d >> (f + s)`, and the read is
/// `ROM[min(k, size_lut)]`, where address `size_lut` is the flush code
/// that reads zero. A code is its entry times `2^code_bits`, so its image
/// `code · 2^-code_bits` is the entry [`ExpKernel::exp`] reads for the
/// input `−d·2^−f`, bit for bit, wherever `d` is exact in `f64`; SD sums
/// the codes exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRom {
    /// The entries' codes, then the flush code's zero.
    codes: Vec<u64>,
    /// Right shift from a distance word to a ROM address.
    shift: u32,
    /// Fraction bits of the codes (the table's `bit_lut`).
    code_bits: u32,
}

impl DistanceRom {
    /// Fraction bits of the codes [`DistanceRom::read_row`] writes.
    pub(crate) fn code_bits(&self) -> u32 {
        self.code_bits
    }

    /// Read one row's codes straight from its bus words: `codes[i]` is the
    /// code at `min((hi − words[i]) >> shift, size_lut)`, zero at the flush
    /// code, where `hi` is the row's maximum word. Returns the codes' sum,
    /// which wraps only for rows too wide to sum exactly in `f64` anyway.
    ///
    /// # Panics
    ///
    /// Panics unless `codes` is as long as `words`.
    #[inline]
    pub(crate) fn read_row(&self, words: &[i64], hi: i64, codes: &mut [u64]) -> u64 {
        assert_eq!(
            codes.len(),
            words.len(),
            "a row read requires matching input/output lengths"
        );
        let flush = self.codes.len() - 1;
        let rom = &self.codes[..=flush];
        let mut total = 0u64;
        for (c, &w) in codes.iter_mut().zip(words) {
            *c = rom[((hi - w) as u64 >> self.shift).min(flush as u64) as usize];
            total = total.wrapping_add(*c);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_exp_is_reference() {
        let k = FloatExp::new();
        assert_eq!(k.exp(0.0), 1.0);
        assert!((k.exp(-1.0) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn fixed_exp_flushes_small_outputs_to_zero() {
        // 4 fractional bits: anything below 2^-5 rounds to 0.
        let k = FixedExp::new(4);
        assert_eq!(k.exp(-6.0), 0.0, "exp(-6) ~ 2.5e-3 < 2^-5 must flush");
        assert!(k.exp(-1.0) > 0.0);
    }

    #[test]
    fn fixed_exp_accurate_at_high_precision() {
        let k = FixedExp::new(24);
        for x in [-10.0, -3.2, -0.5, 0.0] {
            let err = (k.exp(x) - x.exp()).abs();
            assert!(err < 1e-4, "x={x} err={err}");
        }
    }

    #[test]
    fn fixed_exp_output_is_on_grid() {
        let k = FixedExp::new(8);
        let y = k.exp(-2.345);
        let scaled = y * 256.0;
        assert_eq!(scaled, scaled.round(), "output must sit on the 2^-8 grid");
    }

    #[test]
    fn table_exp_matches_eq_10() {
        let t = TableExp::new(1024, 32);
        let step = 16.0 / 1024.0;
        assert_eq!(t.step_lut(), step);
        // k = floor(-x / step); entry = exp(-k*step)
        let x = -0.5;
        let k = (0.5 / step).floor();
        let expected = (-(k * step)).exp();
        assert!((t.exp(x) - expected).abs() < 1e-9);
    }

    #[test]
    fn table_exp_zero_beyond_table() {
        let t = TableExp::new(64, 8);
        assert_eq!(t.exp(-16.0), 0.0);
        assert_eq!(t.exp(-100.0), 0.0);
    }

    #[test]
    fn table_exp_positive_inputs_saturate_to_first_entry() {
        let t = TableExp::new(64, 8);
        assert_eq!(t.exp(0.0), 1.0);
        assert_eq!(t.exp(0.5), 1.0);
    }

    #[test]
    fn table_exp_is_monotone_nonincreasing() {
        let t = TableExp::new(128, 16);
        let mut prev = f64::INFINITY;
        let mut x = 0.0;
        while x > -17.0 {
            let y = t.exp(x);
            assert!(y <= prev + 1e-12, "non-monotone at x={x}");
            prev = y;
            x -= 0.037;
        }
    }

    #[test]
    fn table_exp_entries_quantized_to_bit_lut() {
        let t = TableExp::new(16, 4);
        for k in 0..16 {
            let e = t.entry(k).unwrap();
            let scaled = e * 16.0;
            assert_eq!(scaled, scaled.round(), "entry {k} off-grid");
        }
        // The flush slot past the last entry is no entry.
        assert_eq!(t.entry(16), None);
        assert_eq!(t.size_lut(), 16);
    }

    #[test]
    fn error_model_constants_are_consistent() {
        let t = TableExp::new(1024, 32);
        assert_eq!(t.lut_range(), 16.0);
        assert_eq!(t.output_ulp(), (2.0f64).powi(-32));
        assert_eq!(t.output_quantization_error(), t.output_ulp() / 2.0);
        // 1 - e^-step < step < e^step - 1: the absolute bound is tighter
        // than the raw step, the relative factor looser.
        assert!(t.step_error_bound() < t.step_lut());
        assert!(t.step_error_factor() > t.step_error_bound());
        assert!((t.flush_tail_mass() - (-16.0f64).exp()).abs() < 1e-22);
        assert_eq!(
            t.worst_case_abs_error(),
            t.step_error_bound() + t.output_quantization_error()
        );
    }

    #[test]
    fn worst_case_error_switches_to_tail_mass_for_narrow_ranges() {
        // A range-2 table discards e^-2 ≈ 0.135 of mass at the flush edge,
        // which dwarfs its fine step error.
        let t = TableExp::with_range(1024, 32, 2.0);
        assert_eq!(t.worst_case_abs_error(), t.flush_tail_mass());
    }

    #[test]
    fn rom_bits_scale_with_parameters() {
        assert_eq!(TableExp::new(1024, 32).rom_bits(), 32768);
        assert_eq!(TableExp::new(64, 8).rom_bits(), 512);
    }

    #[test]
    fn low_precision_table_collapses_small_probabilities() {
        // 1 fractional bit: only 0, 0.5 and 1.0 are representable.
        let t = TableExp::new(64, 1);
        let vals: Vec<f64> = (0..40).map(|i| t.exp(-(i as f64) * 0.25)).collect();
        for v in &vals {
            assert!([0.0, 0.5, 1.0].contains(v), "unexpected value {v}");
        }
    }

    #[test]
    #[should_panic(expected = "bit_lut")]
    fn zero_bit_lut_panics() {
        let _ = TableExp::new(16, 0);
    }

    /// Fraction bits of the paper's Q15.16 accumulator bus.
    const BUS_FRAC: u32 = 16;

    /// The exp input a Q15.16 distance word stands for.
    fn dequantized(d: i64) -> f64 {
        (-d) as f64 / (1i64 << BUS_FRAC) as f64
    }

    /// Read `distances` through `t`'s distance ROM, as one row of words
    /// that far below its maximum, and require, word by word, a code that
    /// is the entry [`ExpKernel::exp`] reads for the dequantized input
    /// times `2^bit_lut`, and the codes' sum as the row's total.
    fn assert_reads_match_exp(t: &TableExp, distances: &[i64]) {
        let rom = t.distance_rom(BUS_FRAC).expect("a distance address");
        let hi = 3 << 40;
        let words: Vec<i64> = distances.iter().map(|&d| hi - d).collect();
        let mut codes = vec![u64::MAX; distances.len()];
        let total = rom.read_row(&words, hi, &mut codes);
        let scale = (1u64 << rom.code_bits()) as f64;
        assert_eq!(rom.code_bits(), t.bit_lut());
        for (&d, &c) in distances.iter().zip(&codes) {
            let want = t.exp(dequantized(d));
            let size = t.size_lut();
            let image = c as f64 / scale;
            assert_eq!(image.to_bits(), want.to_bits(), "size {size} distance {d}");
        }
        assert_eq!(total, codes.iter().sum::<u64>(), "size {}", t.size_lut());
    }

    /// Distances exercising every address regime: zero, one word either
    /// side of the first and last knots, the flush edge, the knots 254–256
    /// around the largest 8-bit address and the deepest Q15.16 distance,
    /// plus a dense sweep across the table.
    fn batch_probe_distances(t: &TableExp) -> Vec<i64> {
        let shift = t.distance_rom(BUS_FRAC).expect("a distance address").shift;
        let knot = |k: i64| k << shift;
        let size = t.size_lut() as i64;
        let mut ds = vec![
            0,
            1,
            knot(1) - 1,
            knot(1),
            knot(1) + 1,
            knot(size - 1),
            knot(size) - 1,
            knot(size),
            knot(size) + 1,
            knot(254) + knot(1) / 2,
            knot(255),
            knot(256),
            u32::MAX as i64,
        ];
        for i in 0..61 {
            ds.push(i * knot(size) / 37);
        }
        ds
    }

    #[test]
    fn exp_batch_is_bit_identical_to_scalar_across_table_sizes() {
        for (size, bit) in [(16, 4), (64, 8), (128, 8), (256, 16), (1024, 32)] {
            let t = TableExp::new(size, bit);
            assert_reads_match_exp(&t, &batch_probe_distances(&t));
        }
    }

    #[test]
    fn exp_batch_matches_scalar_on_narrow_range_tables() {
        // Distances far past a small table's range: most addresses clamp
        // to the flush code, interleaved with live ones.
        let t = TableExp::new(32, 6);
        let ds: Vec<i64> = (0..80).map(|i| i * (1 << 15)).collect();
        assert_reads_match_exp(&t, &ds);
        // A `with_range` table keeps the f64 path, whatever its step.
        assert!(TableExp::with_range(32, 6, 2.0)
            .distance_rom(BUS_FRAC)
            .is_none());
        assert!(TableExp::with_range(64, 8, 16.0)
            .distance_rom(BUS_FRAC)
            .is_none());
    }

    #[test]
    fn exp_batch_handles_empty_and_sub_lane_batches() {
        let t = TableExp::new(64, 8);
        let rom = t.distance_rom(BUS_FRAC).unwrap();
        assert_eq!(rom.read_row(&[], 0, &mut []), 0);
        assert_reads_match_exp(&t, &[65536, 131072, 196608]);
    }

    #[test]
    #[should_panic(expected = "matching input/output lengths")]
    fn exp_batch_rejects_length_mismatch() {
        let t = TableExp::new(64, 8);
        t.distance_rom(BUS_FRAC)
            .unwrap()
            .read_row(&[65536], 65536, &mut [0; 2]);
    }

    #[test]
    fn distance_address_reads_what_exp_reads_at_every_power_of_two_size() {
        // Every knot of every power-of-two size up to 2^20, one word either
        // side of it, the flush edge and a deep-flush word.
        for n in 0..=20 {
            let t = TableExp::new(1 << n, 8);
            let shift = t.distance_rom(BUS_FRAC).unwrap().shift;
            assert_eq!(shift, 20 - n, "2^{n}");
            let mut ds = vec![u32::MAX as i64];
            for k in 0..=t.size_lut() as i64 {
                ds.extend([(k << shift) - 1, k << shift, (k << shift) + 1]);
            }
            ds.retain(|&d| d >= 0);
            assert_reads_match_exp(&t, &ds);
        }
        // Every distance word of the CLI default up to one knot past the
        // flush edge; beyond it every word flushes.
        let t = TableExp::new(64, 8);
        let flush = 64i64 << t.distance_rom(BUS_FRAC).unwrap().shift;
        let ds: Vec<i64> = (0..=flush + (1 << 14)).collect();
        assert_reads_match_exp(&t, &ds);
    }

    #[test]
    fn other_tables_have_no_distance_address() {
        // Sizes that are not powers of two, and sizes whose step is finer
        // than a bus word (2^20 entries on a 15-fraction-bit bus is one).
        assert!(TableExp::new(48, 8).distance_rom(BUS_FRAC).is_none());
        assert!(TableExp::new(255, 8).distance_rom(BUS_FRAC).is_none());
        assert!(TableExp::new(1 << 20, 8).distance_rom(15).is_none());
        assert!(FloatExp::new().distance_rom(BUS_FRAC).is_none());
        assert!(FixedExp::new(16).distance_rom(BUS_FRAC).is_none());
    }
}
