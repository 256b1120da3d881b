//! Fixed-point number formats.

use std::fmt;

/// Error returned when constructing an invalid [`QFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatError {
    int_bits: u32,
    frac_bits: u32,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fixed-point format Q{}.{}: int_bits + frac_bits must be in 1..=62",
            self.int_bits, self.frac_bits
        )
    }
}

impl std::error::Error for FormatError {}

/// Rounding mode applied when quantizing a real value onto the fixed-point
/// grid.
///
/// Hardware datapaths typically truncate (drop low bits); round-to-nearest
/// costs an extra adder. Both appear in the CoopMC datapath variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to the nearest representable value (ties away from zero).
    #[default]
    Nearest,
    /// Round toward negative infinity (arithmetic shift right).
    Floor,
    /// Round toward zero (drop fractional bits of the magnitude).
    Truncate,
}

/// A signed two's-complement fixed-point format `Q<int_bits>.<frac_bits>`.
///
/// The format has one implicit sign bit, `int_bits` integer bits and
/// `frac_bits` fractional bits, for a total width of
/// `1 + int_bits + frac_bits` bits. Representable values are
/// `[-2^int_bits, 2^int_bits - 2^-frac_bits]` on a grid of `2^-frac_bits`.
///
/// `int_bits + frac_bits` must be in `1..=62` so raw values fit in an `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Create a format with `int_bits` integer and `frac_bits` fractional
    /// bits (plus an implicit sign bit).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if `int_bits + frac_bits` is 0 or exceeds 62.
    pub fn new(int_bits: u32, frac_bits: u32) -> Result<Self, FormatError> {
        let total = int_bits.checked_add(frac_bits).ok_or(FormatError {
            int_bits,
            frac_bits,
        })?;
        if total == 0 || total > 62 {
            return Err(FormatError {
                int_bits,
                frac_bits,
            });
        }
        Ok(Self {
            int_bits,
            frac_bits,
        })
    }

    /// The paper's 32-bit baseline datapath format: Q15.16
    /// ("16 bits each, for the integer and fractional parts" plus sign).
    pub fn baseline32() -> Self {
        Self {
            int_bits: 15,
            frac_bits: 16,
        }
    }

    /// A probability format with `frac_bits` fractional bits and a single
    /// integer bit, covering `[-2, 2)`: enough for DyNorm-normalized
    /// probabilities, which live in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if `frac_bits + 1` exceeds 62.
    pub fn probability(frac_bits: u32) -> Result<Self, FormatError> {
        Self::new(1, frac_bits)
    }

    /// Number of integer bits (excluding the sign bit).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total storage width in bits, including the sign bit.
    pub fn total_bits(&self) -> u32 {
        1 + self.int_bits + self.frac_bits
    }

    /// Smallest positive representable increment, `2^-frac_bits`.
    #[inline]
    pub fn resolution(&self) -> f64 {
        1.0 / (1i64 << self.frac_bits) as f64
    }

    /// Worst-case absolute quantization error `mode` can introduce on an
    /// in-range value: half a grid step for [`Rounding::Nearest`], a full
    /// step for the directed modes. Saturation error (values outside
    /// [`QFormat::range`]) is unbounded and not covered — pair this with a
    /// range proof, as `coopmc-analyze`'s error-propagation pass does.
    pub fn rounding_error_bound(&self, mode: Rounding) -> f64 {
        match mode {
            Rounding::Nearest => self.resolution() / 2.0,
            Rounding::Floor | Rounding::Truncate => self.resolution(),
        }
    }

    /// Largest representable value, `2^int_bits - 2^-frac_bits`.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Smallest (most negative) representable value, `-2^int_bits`.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Largest raw (integer) representation: `2^(int+frac) - 1`.
    #[inline]
    pub fn max_raw(&self) -> i64 {
        (1i64 << (self.int_bits + self.frac_bits)) - 1
    }

    /// Smallest raw (integer) representation: `-2^(int+frac)`.
    #[inline]
    pub fn min_raw(&self) -> i64 {
        -(1i64 << (self.int_bits + self.frac_bits))
    }

    /// Clamp a raw value into the representable range (hardware saturation).
    #[inline]
    pub fn saturate_raw(&self, raw: i128) -> i64 {
        let max = self.max_raw() as i128;
        let min = self.min_raw() as i128;
        raw.clamp(min, max) as i64
    }

    /// Snap `x` onto this format's grid with round-to-nearest (ties away
    /// from zero) and saturation, returning the dequantized `f64`.
    ///
    /// Bit-identical to
    /// `Fixed::from_f64(x, fmt, Rounding::Nearest).to_f64()` — same NaN→0
    /// contract, same rounding, same saturation — but fused entirely in
    /// `f64` arithmetic: no `i128` widening, no `Fixed` round-trip. This is
    /// the form the PG datapaths' accumulator-bus quantization loops use;
    /// the fused version is what keeps the batched quantize pass to a few
    /// nanoseconds per score.
    ///
    /// The `f64` clamp is exact even for formats whose `max_raw` is not
    /// `f64`-representable (55+ total bits): the rounded value and the
    /// saturated raw value always convert to the same `f64`, because no
    /// integral `f64` lies strictly between `max_raw` and its rounded
    /// conversion.
    #[inline]
    pub fn requantize_nearest(&self, x: f64) -> f64 {
        const LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
        let scaled = (x * (1i64 << self.frac_bits) as f64).clamp(-LIMIT, LIMIT);
        // NaN survives the clamp and maps to 0 inside `round_ties_away`,
        // matching `Fixed::from_f64`'s NaN-quantizes-to-zero contract.
        let r = crate::round_ties_away(scaled);
        r.clamp(self.min_raw() as f64, self.max_raw() as f64) * self.resolution()
    }

    /// Snap `x` onto this format's grid with round-to-nearest (ties away
    /// from zero) and saturation, returning the raw integer.
    ///
    /// Equal to `Fixed::from_f64(x, fmt, Rounding::Nearest).raw()` — same
    /// NaN→0 contract, same rounding, same saturation — without building a
    /// `Fixed` or widening to `i128`. This is the quantizer in front of an
    /// integer accumulator bus. Scaling [`QFormat::requantize_nearest`]'s
    /// `f64` back up by `2^frac_bits` is not: where `max_raw` is not
    /// `f64`-representable (55+ total bits) it rounds to `max_raw + 1`.
    #[inline]
    pub fn quantize_nearest_raw(&self, x: f64) -> i64 {
        const LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
        let scaled = (x * (1i64 << self.frac_bits) as f64).clamp(-LIMIT, LIMIT);
        // `round_ties_away` in integers: the saturating cast truncates
        // (NaN to 0), the fraction is exact, and the adjustment is added
        // branch-free. At or beyond ±2^52 every `f64` is integral, so the
        // fraction is 0 and `t ± 1` cannot overflow; the clamp below
        // absorbs the cast's saturation at 2^63.
        let t = scaled as i64;
        let f = scaled - t as f64;
        let rounded = t + (f >= 0.5) as i64 - (f <= -0.5) as i64;
        rounded.clamp(self.min_raw(), self.max_raw())
    }

    /// Append [`QFormat::quantize_nearest_raw`] of every value in `xs` to
    /// `words`, word for word.
    ///
    /// On formats of at most 51 bits besides the sign (Q15.16 has 31) the
    /// pass stays in `f64` lanes, with no `f64 → i64` conversion, so it
    /// vectorizes on the baseline target. Each scaled value `s` is mapped
    /// NaN to 0 and clamped to the raw range, which is exact in `f64`
    /// there. Then `m = s + 1.5·2^52` lies in `[2^52, 2^53)`, whose `f64`
    /// grid is the integers: the add rounds `s` to nearest-even, and `m`'s
    /// bits less those of `1.5·2^52` are the rounded word. `s` less the
    /// rounded value is exact, so an exact tie is seen as a remainder of
    /// ±½ and moved one step away from zero. Clamping before rounding
    /// gives the same word, since both bounds are integers. Wider formats
    /// quantize value by value.
    pub fn quantize_nearest_raw_into(&self, xs: &[f64], words: &mut Vec<i64>) {
        if self.int_bits + self.frac_bits > 51 {
            words.extend(xs.iter().map(|&x| self.quantize_nearest_raw(x)));
            return;
        }
        const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
        let scale = (1i64 << self.frac_bits) as f64;
        let (min, max) = (self.min_raw() as f64, self.max_raw() as f64);
        words.extend(xs.iter().map(|&x| {
            let s = x * scale;
            let s = if s.is_nan() { 0.0 } else { s }.clamp(min, max);
            let m = s + ROUND;
            let word = m.to_bits() as i64 - ROUND.to_bits() as i64;
            let d = s - (m - ROUND);
            word + i64::from(d == 0.5 && s > 0.0) - i64::from(d == -0.5 && s < 0.0)
        }));
    }

    /// The closed representable interval `[min_value, max_value]`.
    ///
    /// This is the contract a wire annotated with this format promises to
    /// the static range analyzer: every value it can carry lies inside.
    pub fn range(&self) -> (f64, f64) {
        (self.min_value(), self.max_value())
    }

    /// True if `x` lies inside the representable range (grid membership is
    /// not required — a mid-grid value still *fits* the format).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.min_value() && x <= self.max_value()
    }

    /// True if the whole closed interval `[lo, hi]` is representable, i.e.
    /// a datapath of this format never saturates on values from it.
    pub fn covers(&self, lo: f64, hi: f64) -> bool {
        self.contains(lo) && self.contains(hi)
    }

    /// Fraction of the representable span actually used by `[lo, hi]`
    /// (0 for an empty/backwards interval). Low occupancy means the
    /// saturation logic is unreachable and integer bits are wasted — the
    /// analyzer reports it as an over-provisioning note.
    pub fn occupancy(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        let reach = lo.abs().max(hi.abs());
        (reach / self.max_value().abs().max(self.min_value().abs())).min(1.0)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_and_oversized_formats() {
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(40, 30).is_err());
        assert!(QFormat::new(31, 31).is_ok());
        assert!(QFormat::new(0, 62).is_ok());
    }

    #[test]
    fn range_matches_twos_complement() {
        let q = QFormat::new(3, 2).unwrap(); // 6-bit: [-8, 7.75]
        assert_eq!(q.total_bits(), 6);
        assert_eq!(q.max_value(), 7.75);
        assert_eq!(q.min_value(), -8.0);
        assert_eq!(q.resolution(), 0.25);
    }

    #[test]
    fn saturate_raw_clamps_both_ends() {
        let q = QFormat::new(3, 2).unwrap();
        assert_eq!(q.saturate_raw(1000), q.max_raw());
        assert_eq!(q.saturate_raw(-1000), q.min_raw());
        assert_eq!(q.saturate_raw(5), 5);
    }

    #[test]
    fn baseline32_is_q15_16() {
        let q = QFormat::baseline32();
        assert_eq!(q.total_bits(), 32);
        assert_eq!(q.frac_bits(), 16);
    }

    #[test]
    fn range_helpers_agree_with_bounds() {
        let q = QFormat::new(3, 2).unwrap(); // [-8, 7.75]
        assert_eq!(q.range(), (-8.0, 7.75));
        assert!(q.contains(7.75) && q.contains(-8.0) && q.contains(0.1));
        assert!(!q.contains(7.76) && !q.contains(-8.25));
        assert!(q.covers(-8.0, 7.75));
        assert!(!q.covers(-8.0, 8.0));
        assert!(q.occupancy(-8.0, 0.0) > 0.99);
        assert!(q.occupancy(-0.5, 0.5) < 0.1);
        assert_eq!(q.occupancy(1.0, 0.0), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(QFormat::new(8, 8).unwrap().to_string(), "Q8.8");
        assert!(!format!("{:?}", QFormat::baseline32()).is_empty());
    }

    #[test]
    fn rounding_error_bound_is_half_or_full_step() {
        let q = QFormat::new(4, 3).unwrap(); // grid 0.125
        assert_eq!(q.rounding_error_bound(Rounding::Nearest), 0.0625);
        assert_eq!(q.rounding_error_bound(Rounding::Floor), 0.125);
        assert_eq!(q.rounding_error_bound(Rounding::Truncate), 0.125);
    }

    #[test]
    fn requantize_nearest_is_bit_identical_to_fixed_round_trip() {
        // `quantize_nearest_raw` and the slice quantizer ride along: each
        // must equal `Fixed`'s raw word everywhere, saturation on the
        // 55+-bit formats included. The slice quantizer runs packed up to
        // 51 bits besides the sign (Q20.31) and value by value above it
        // (Q20.32 on); the probes hit every tie near zero and both
        // saturation points, and ties at random magnitudes, each with its
        // neighbouring `f64`s.
        use crate::Fixed;
        // Narrow, standard and near-maximal formats — including ones whose
        // max_raw exceeds 2^53 and is not f64-representable.
        let formats = [
            QFormat::new(0, 1).unwrap(),
            QFormat::new(1, 4).unwrap(),
            QFormat::new(8, 8).unwrap(),
            QFormat::baseline32(),
            QFormat::new(40, 0).unwrap(),
            QFormat::new(20, 31).unwrap(),
            QFormat::new(20, 32).unwrap(),
            QFormat::new(31, 31).unwrap(),
            QFormat::new(15, 46).unwrap(),
            QFormat::new(3, 58).unwrap(),
            QFormat::new(0, 62).unwrap(),
        ];
        let ulps = |t: f64| {
            [
                t,
                f64::from_bits(t.to_bits() + 1),
                f64::from_bits(t.to_bits().wrapping_sub(1)),
            ]
        };
        let mut words = vec![-7];
        for fmt in formats {
            let res = fmt.resolution();
            let (min, max) = (fmt.min_raw() as f64, fmt.max_raw() as f64);
            let mut probes = vec![
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                fmt.max_value(),
                fmt.min_value(),
                fmt.max_value() + res,
                fmt.min_value() - res,
                res * 0.5, // exact grid-halfway tie
                -res * 0.5,
                res * 0.49999,
                1.0e-320, // subnormal
            ];
            for k in -2048i64..=2048 {
                probes.extend(ulps((k as f64 + 0.5) * res));
                probes.extend(ulps((max + k as f64 / 2.0) * res));
                probes.extend(ulps((min + k as f64 / 2.0) * res));
            }
            let mut state = 0x0DDB_1A5Eu64;
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                for scale in [res, 1.0, fmt.max_value(), fmt.max_value() * 4.0] {
                    probes.push(u * scale);
                }
                probes.extend(ulps(((state >> (state % 64)) as f64 + 0.5) * res));
            }
            words.truncate(1);
            fmt.quantize_nearest_raw_into(&probes, &mut words);
            assert_eq!(words.len(), 1 + probes.len(), "{fmt}: one word per value");
            for (&x, &word) in probes.iter().zip(&words[1..]) {
                let fixed = Fixed::from_f64(x, fmt, Rounding::Nearest);
                let (want, got) = (fixed.to_f64(), fmt.requantize_nearest(x));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{fmt:?} x={x:e}: got {got:e} want {want:e}"
                );
                let raw = fmt.quantize_nearest_raw(x);
                assert_eq!(raw, fixed.raw(), "{fmt:?} x={x:e}: raw");
                assert_eq!(word, fixed.raw(), "{fmt:?} x={x:e}: slice word");
            }
        }
    }
}
