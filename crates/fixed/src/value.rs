//! The [`Fixed`] value type and its saturating arithmetic.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::{QFormat, Rounding};

/// A signed fixed-point value carrying its [`QFormat`] at runtime.
///
/// Arithmetic between two `Fixed` values requires identical formats (the two
/// operands share one physical ALU); mixing formats panics, mirroring a wiring
/// error in RTL. Use [`Fixed::rescale`] to move a value between formats the
/// way a hardware shifter would.
///
/// All operations saturate rather than wrap, which is the standard choice for
/// probability datapaths (a wrapped probability is catastrophically wrong; a
/// saturated one is merely clipped).
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    raw: i64,
    fmt: QFormat,
}

impl Fixed {
    /// Quantize an `f64` into format `fmt` using rounding mode `mode`,
    /// saturating out-of-range values. NaN quantizes to zero.
    #[inline]
    pub fn from_f64(x: f64, fmt: QFormat, mode: Rounding) -> Self {
        if x.is_nan() {
            return Self { raw: 0, fmt };
        }
        // 2^63 as an f64 constant; `powi` is not reliably const-folded.
        const LIMIT: f64 = 9_223_372_036_854_775_808.0;
        let scaled = x * (1i64 << fmt.frac_bits()) as f64;
        // Clamp in f64 space first so the cast below cannot overflow i128.
        let scaled = scaled.clamp(-LIMIT, LIMIT);
        let raw = match mode {
            Rounding::Nearest => crate::round_ties_away(scaled),
            Rounding::Floor => scaled.floor(),
            Rounding::Truncate => scaled.trunc(),
        };
        Self {
            raw: fmt.saturate_raw(raw as i128),
            fmt,
        }
    }

    /// Build from a raw two's-complement integer representation.
    ///
    /// The raw value is saturated into the representable range of `fmt`.
    #[inline]
    pub fn from_raw(raw: i64, fmt: QFormat) -> Self {
        Self {
            raw: fmt.saturate_raw(raw as i128),
            fmt,
        }
    }

    /// One in format `fmt` (saturates if 1.0 is not representable).
    pub fn one(fmt: QFormat) -> Self {
        Self::from_raw(1i64 << fmt.frac_bits(), fmt)
    }

    /// The largest representable value of `fmt`.
    pub fn max(fmt: QFormat) -> Self {
        Self {
            raw: fmt.max_raw(),
            fmt,
        }
    }

    /// The smallest (most negative) representable value of `fmt`.
    pub fn min(fmt: QFormat) -> Self {
        Self {
            raw: fmt.min_raw(),
            fmt,
        }
    }

    /// Convert back to `f64` (exact: every fixed-point value is a dyadic
    /// rational well within `f64` range).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.fmt.resolution()
    }

    /// The raw two's-complement representation.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format this value is stored in.
    pub fn format(self) -> QFormat {
        self.fmt
    }

    /// Move the value into another format, shifting the binary point and
    /// saturating, exactly as a hardware barrel shifter + clamp would.
    pub fn rescale(self, fmt: QFormat, mode: Rounding) -> Self {
        let from = self.fmt.frac_bits();
        let to = fmt.frac_bits();
        let raw = if to >= from {
            (self.raw as i128) << (to - from)
        } else {
            let shift = from - to;
            let r = self.raw as i128;
            match mode {
                Rounding::Floor => r >> shift,
                Rounding::Truncate => {
                    if r >= 0 {
                        r >> shift
                    } else {
                        -((-r) >> shift)
                    }
                }
                Rounding::Nearest => {
                    let half = 1i128 << (shift - 1);
                    if r >= 0 {
                        (r + half) >> shift
                    } else {
                        -(((-r) + half) >> shift)
                    }
                }
            }
        };
        Self {
            raw: fmt.saturate_raw(raw),
            fmt,
        }
    }

    /// Saturating addition. Panics on format mismatch.
    pub fn saturating_add(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "add");
        Self {
            raw: self.fmt.saturate_raw(self.raw as i128 + rhs.raw as i128),
            fmt: self.fmt,
        }
    }

    /// Saturating subtraction. Panics on format mismatch.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "sub");
        Self {
            raw: self.fmt.saturate_raw(self.raw as i128 - rhs.raw as i128),
            fmt: self.fmt,
        }
    }

    /// Saturating multiplication with truncation of the low product bits
    /// (the standard single-rounding hardware multiplier). Panics on format
    /// mismatch.
    pub fn saturating_mul(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "mul");
        let prod = self.raw as i128 * rhs.raw as i128;
        let shifted = prod >> self.fmt.frac_bits();
        Self {
            raw: self.fmt.saturate_raw(shifted),
            fmt: self.fmt,
        }
    }

    /// Saturating division. Division by zero saturates to the signed extreme
    /// (matching the clamped behaviour of a hardware divider with a
    /// zero-detect bypass). Panics on format mismatch.
    pub fn saturating_div(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "div");
        if rhs.raw == 0 {
            let raw = if self.raw >= 0 {
                self.fmt.max_raw()
            } else {
                self.fmt.min_raw()
            };
            return Self { raw, fmt: self.fmt };
        }
        let num = (self.raw as i128) << self.fmt.frac_bits();
        Self {
            raw: self.fmt.saturate_raw(num / rhs.raw as i128),
            fmt: self.fmt,
        }
    }

    /// Two's-complement **wrapping** addition — what a datapath without
    /// saturation logic does on overflow. Exists for the
    /// saturation-vs-wraparound design ablation; probability datapaths
    /// should use [`Fixed::saturating_add`].
    pub fn wrapping_add(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "wrapping_add");
        Self {
            raw: self.wrap(self.raw as i128 + rhs.raw as i128),
            fmt: self.fmt,
        }
    }

    /// Two's-complement wrapping subtraction.
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "wrapping_sub");
        Self {
            raw: self.wrap(self.raw as i128 - rhs.raw as i128),
            fmt: self.fmt,
        }
    }

    /// Two's-complement wrapping multiplication (low product bits kept).
    pub fn wrapping_mul(self, rhs: Self) -> Self {
        self.check_fmt(rhs, "wrapping_mul");
        let prod = (self.raw as i128 * rhs.raw as i128) >> self.fmt.frac_bits();
        Self {
            raw: self.wrap(prod),
            fmt: self.fmt,
        }
    }

    /// Reduce a wide raw value into the format's range by discarding high
    /// bits (two's-complement wraparound).
    fn wrap(&self, raw: i128) -> i64 {
        let width = self.fmt.total_bits();
        let modulus = 1i128 << width;
        let mut r = raw.rem_euclid(modulus);
        if r >= modulus / 2 {
            r -= modulus;
        }
        r as i64
    }

    /// Absolute value (saturating: `|min|` clamps to `max`).
    pub fn abs(self) -> Self {
        if self.raw >= 0 {
            self
        } else {
            Self {
                raw: self.fmt.saturate_raw(-(self.raw as i128)),
                fmt: self.fmt,
            }
        }
    }

    /// The quantization error `|x - quantize(x)|` that format `fmt` incurs on
    /// the real value `x`, including saturation error.
    pub fn quantization_error(x: f64, fmt: QFormat, mode: Rounding) -> f64 {
        (x - Self::from_f64(x, fmt, mode).to_f64()).abs()
    }

    fn check_fmt(self, rhs: Self, op: &str) {
        assert_eq!(
            self.fmt, rhs.fmt,
            "fixed-point format mismatch in {op}: {} vs {}",
            self.fmt, rhs.fmt
        );
    }
}

impl PartialEq for Fixed {
    fn eq(&self, other: &Self) -> bool {
        self.fmt == other.fmt && self.raw == other.raw
    }
}

impl Eq for Fixed {}

impl PartialOrd for Fixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.fmt == other.fmt {
            Some(self.raw.cmp(&other.raw))
        } else {
            None
        }
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl Mul for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl Div for Fixed {
    type Output = Fixed;
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Self {
        Self {
            raw: self.fmt.saturate_raw(-(self.raw as i128)),
            fmt: self.fmt,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.fmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32, f: u32) -> QFormat {
        QFormat::new(i, f).unwrap()
    }

    #[test]
    fn round_trip_on_grid_values_is_exact() {
        let fmt = q(8, 8);
        for x in [-3.5, 0.0, 0.00390625, 1.0, 100.25] {
            let v = Fixed::from_f64(x, fmt, Rounding::Nearest);
            assert_eq!(v.to_f64(), x, "round-trip failed for {x}");
        }
    }

    #[test]
    fn rounding_modes_differ_as_specified() {
        let fmt = q(4, 1); // grid of 0.5
        assert_eq!(Fixed::from_f64(0.74, fmt, Rounding::Nearest).to_f64(), 0.5);
        assert_eq!(Fixed::from_f64(0.76, fmt, Rounding::Nearest).to_f64(), 1.0);
        assert_eq!(Fixed::from_f64(-0.3, fmt, Rounding::Floor).to_f64(), -0.5);
        assert_eq!(Fixed::from_f64(-0.3, fmt, Rounding::Truncate).to_f64(), 0.0);
    }

    #[test]
    fn add_saturates_at_max() {
        let fmt = q(2, 2); // max 3.75
        let a = Fixed::from_f64(3.0, fmt, Rounding::Nearest);
        assert_eq!((a + a).to_f64(), fmt.max_value());
    }

    #[test]
    fn sub_saturates_at_min() {
        let fmt = q(2, 2); // min -4.0
        let a = Fixed::from_f64(-3.0, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(3.0, fmt, Rounding::Nearest);
        assert_eq!((a - b).to_f64(), fmt.min_value());
    }

    #[test]
    fn mul_truncates_low_bits() {
        let fmt = q(4, 2); // grid 0.25
        let a = Fixed::from_f64(0.75, fmt, Rounding::Nearest);
        // 0.75 * 0.75 = 0.5625 -> raw 3*3=9 >> 2 = 2 -> 0.5
        assert_eq!((a * a).to_f64(), 0.5);
    }

    #[test]
    fn div_matches_reference_on_exact_cases() {
        let fmt = q(8, 8);
        let a = Fixed::from_f64(3.0, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(1.5, fmt, Rounding::Nearest);
        assert_eq!((a / b).to_f64(), 2.0);
    }

    #[test]
    fn div_by_zero_saturates_signed() {
        let fmt = q(4, 4);
        let a = Fixed::from_f64(2.0, fmt, Rounding::Nearest);
        let z = Fixed::from_raw(0, fmt);
        assert_eq!((a / z).to_f64(), fmt.max_value());
        assert_eq!(((-a) / z).to_f64(), fmt.min_value());
    }

    #[test]
    fn neg_of_min_saturates_to_max() {
        let fmt = q(2, 2);
        assert_eq!((-Fixed::min(fmt)).to_f64(), fmt.max_value());
        assert_eq!(Fixed::min(fmt).abs().to_f64(), fmt.max_value());
    }

    #[test]
    fn rescale_widens_exactly_and_narrows_with_rounding() {
        let narrow = q(4, 2);
        let wide = q(8, 8);
        let v = Fixed::from_f64(1.25, narrow, Rounding::Nearest);
        assert_eq!(v.rescale(wide, Rounding::Nearest).to_f64(), 1.25);
        let w = Fixed::from_f64(1.3125, wide, Rounding::Nearest);
        assert_eq!(w.rescale(narrow, Rounding::Nearest).to_f64(), 1.25);
        assert_eq!(w.rescale(narrow, Rounding::Floor).to_f64(), 1.25);
    }

    #[test]
    fn rescale_nearest_is_symmetric_for_negatives() {
        let wide = q(8, 8);
        let narrow = q(8, 1);
        let x = Fixed::from_f64(-0.75, wide, Rounding::Nearest);
        // -0.75 rounds away from zero to -1.0 on the 0.5 grid
        assert_eq!(x.rescale(narrow, Rounding::Nearest).to_f64(), -1.0);
    }

    #[test]
    fn one_saturates_when_unrepresentable() {
        // Q0.4 covers [-1, 0.9375]; one() must clamp.
        let fmt = q(0, 4);
        assert_eq!(Fixed::one(fmt).to_f64(), 0.9375);
    }

    #[test]
    fn wrapping_add_overflows_to_negative() {
        let fmt = q(2, 2); // range [-4, 3.75], width 5 bits
        let a = Fixed::from_f64(3.0, fmt, Rounding::Nearest);
        // 3 + 3 = 6 -> wraps to 6 - 8 = -2 in a 5-bit two's complement.
        assert_eq!(a.wrapping_add(a).to_f64(), -2.0);
        // The saturating path clamps instead.
        assert_eq!(a.saturating_add(a).to_f64(), 3.75);
    }

    #[test]
    fn wrapping_matches_saturating_in_range() {
        let fmt = q(8, 8);
        let a = Fixed::from_f64(1.5, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(-2.25, fmt, Rounding::Nearest);
        assert_eq!(a.wrapping_add(b), a.saturating_add(b));
        assert_eq!(a.wrapping_sub(b), a.saturating_sub(b));
        assert_eq!(a.wrapping_mul(b), a.saturating_mul(b));
    }

    #[test]
    fn wrapping_sub_underflows_to_positive() {
        let fmt = q(2, 2);
        let a = Fixed::from_f64(-3.0, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(3.0, fmt, Rounding::Nearest);
        // -6 wraps to +2 in 5 bits.
        assert_eq!(a.wrapping_sub(b).to_f64(), 2.0);
    }

    #[test]
    fn wraparound_inverts_probability_ordering() {
        // The design-choice ablation in miniature: two large accumulated
        // log-scores that overflow. Saturation keeps their order; wraparound
        // *inverts* it, which is why probability datapaths saturate.
        let fmt = q(3, 2);
        let big = Fixed::from_f64(6.0, fmt, Rounding::Nearest);
        let bigger = Fixed::from_f64(7.5, fmt, Rounding::Nearest);
        let inc = Fixed::from_f64(1.0, fmt, Rounding::Nearest);
        let sat = (big.saturating_add(inc), bigger.saturating_add(inc));
        assert!(sat.1 >= sat.0, "saturation preserves ordering");
        // 7.5 + 1 overflows and wraps negative while 6 + 1 stays positive.
        let wrap = (big.wrapping_add(inc), bigger.wrapping_add(inc));
        assert!(wrap.1 < wrap.0, "wraparound inverts ordering: {wrap:?}");
    }

    #[test]
    #[should_panic(expected = "format mismatch")]
    fn mixing_formats_panics() {
        let a = Fixed::from_raw(0, q(4, 4));
        let b = Fixed::from_raw(0, q(4, 8));
        let _ = a + b;
    }

    #[test]
    fn nan_quantizes_to_zero() {
        assert_eq!(
            Fixed::from_f64(f64::NAN, q(4, 4), Rounding::Nearest).raw(),
            0
        );
    }

    #[test]
    fn ordering_within_format() {
        let fmt = q(4, 4);
        let a = Fixed::from_f64(1.0, fmt, Rounding::Nearest);
        let b = Fixed::from_f64(2.0, fmt, Rounding::Nearest);
        assert!(a < b);
        assert_eq!(a.partial_cmp(&Fixed::from_raw(0, q(4, 8))), None);
    }

    #[test]
    fn quantization_error_accounts_for_saturation() {
        let fmt = q(2, 2);
        assert_eq!(
            Fixed::quantization_error(100.0, fmt, Rounding::Nearest),
            100.0 - 3.75
        );
        assert!(Fixed::quantization_error(1.25, fmt, Rounding::Nearest) == 0.0);
    }
}
