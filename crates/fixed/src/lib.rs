//! Bit-true fixed-point arithmetic for modelling CoopMC accelerator datapaths.
//!
//! Every precision experiment in the CoopMC paper (HPCA 2022) reduces to the
//! question *"what happens when this value flows through a `b`-bit fixed-point
//! ALU?"*. This crate answers that question exactly: a [`Fixed`] value carries
//! a runtime [`QFormat`] (integer/fraction bit split) and all arithmetic
//! saturates and quantizes the way a signed two's-complement hardware datapath
//! would.
//!
//! # Example
//!
//! ```
//! use coopmc_fixed::{Fixed, QFormat, Rounding};
//!
//! # fn main() -> Result<(), coopmc_fixed::FormatError> {
//! let q8_8 = QFormat::new(8, 8)?;
//! let a = Fixed::from_f64(1.5, q8_8, Rounding::Nearest);
//! let b = Fixed::from_f64(2.25, q8_8, Rounding::Nearest);
//! assert_eq!((a + b).to_f64(), 3.75);
//! // Values outside the representable range saturate instead of wrapping.
//! let big = Fixed::from_f64(1.0e9, q8_8, Rounding::Nearest);
//! assert_eq!(big.to_f64(), q8_8.max_value());
//! # Ok(())
//! # }
//! ```

mod format;
mod value;

pub use format::{FormatError, QFormat, Rounding};
pub use value::Fixed;

/// Round to the nearest integer, ties away from zero — the same value
/// [`f64::round`] produces (up to the sign of zero), but computed with an
/// integer truncation and a fractional-part compare instead of a libm
/// call. On baseline targets (x86-64 without SSE4.1) `f64::round` lowers
/// to a function call, which dominates the quantization stage of the
/// batched PG datapath; this form keeps the quantize loop inlinable.
///
/// The truncation `x as i64` is exact for `|x| < 2^63` and saturating
/// beyond, and `x - trunc(x)` is always exact in f64, so the adjustment
/// compare reproduces round-half-away-from-zero bit for bit. The
/// adjustment is added as a number, not chosen by a branch: the fraction's
/// side of ±0.5 is data, and a branch on it mispredicts about every other
/// score. Callers must reject NaN themselves (a NaN input returns 0).
#[inline]
pub fn round_ties_away(x: f64) -> f64 {
    let t = x as i64 as f64;
    let f = x - t;
    t + ((f >= 0.5) as i64 - (f <= -0.5) as i64) as f64
}

/// Quantize `x` to an unsigned value with `frac_bits` fractional bits,
/// saturating into `[0, max_raw * 2^-frac_bits]`.
///
/// This is the quantization applied to read-only lookup-table entries
/// (TableExp / TableLog ROM contents), which are unsigned by construction.
/// Non-finite or negative inputs quantize to zero.
///
/// ```
/// let q = coopmc_fixed::quantize_unsigned(0.625, 3, 7);
/// assert_eq!(q, 0.625); // 5 / 8
/// ```
pub fn quantize_unsigned(x: f64, frac_bits: u32, max_raw: u64) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return 0.0;
    }
    let scale = (1u64 << frac_bits) as f64;
    let raw = round_ties_away(x * scale) as u64;
    let raw = raw.min(max_raw);
    raw as f64 / scale
}

/// Absolute quantization step of an unsigned format with `frac_bits`
/// fractional bits.
pub fn unsigned_resolution(frac_bits: u32) -> f64 {
    1.0 / (1u64 << frac_bits) as f64
}

/// Worst-case absolute error of [`quantize_unsigned`]'s round-to-nearest
/// grid snap for non-saturating inputs: half of [`unsigned_resolution`].
///
/// ROM-entry error bounds (TableExp/TableLog output quantization) are built
/// from this single constant rather than re-deriving `2^-frac_bits / 2`
/// at each use site.
pub fn unsigned_rounding_error(frac_bits: u32) -> f64 {
    unsigned_resolution(frac_bits) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ties_away_matches_f64_round() {
        // Edge cases: halfway points, just-below-half fractions that a
        // naive `+0.5; trunc` would mis-round, huge and tiny magnitudes.
        let probes = [
            0.0,
            -0.0,
            0.25,
            0.5,
            0.75,
            1.5,
            2.5,
            -0.5,
            -1.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            4503599627370495.5, // 2^52 - 0.5: largest f64 with a fraction
            -4503599627370495.5,
            9.2e18, // near 2^63 (the from_f64 clamp boundary)
            -9.2e18,
            1e-300,
            -1e-300,
        ];
        for x in probes {
            assert_eq!(round_ties_away(x), x.round(), "x = {x}");
        }
        // A pseudo-random sweep over mixed magnitudes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            for scale in [1.0, 1e3, 1e9, 1e15] {
                let x = (u - 0.5) * scale;
                assert_eq!(round_ties_away(x), x.round(), "x = {x}");
            }
        }
    }

    #[test]
    fn quantize_unsigned_rounds_to_grid() {
        assert_eq!(quantize_unsigned(0.5, 2, 15), 0.5);
        assert_eq!(quantize_unsigned(0.55, 2, 15), 0.5);
        assert_eq!(quantize_unsigned(0.65, 2, 15), 0.75);
    }

    #[test]
    fn quantize_unsigned_saturates_at_max_raw() {
        // max_raw = 3 with 2 frac bits => max value 0.75
        assert_eq!(quantize_unsigned(10.0, 2, 3), 0.75);
    }

    #[test]
    fn quantize_unsigned_clamps_negative_and_nan() {
        assert_eq!(quantize_unsigned(-1.0, 4, 100), 0.0);
        assert_eq!(quantize_unsigned(f64::NAN, 4, 100), 0.0);
    }

    #[test]
    fn unsigned_resolution_is_power_of_two() {
        assert_eq!(unsigned_resolution(0), 1.0);
        assert_eq!(unsigned_resolution(3), 0.125);
    }

    #[test]
    fn unsigned_rounding_error_bounds_the_grid_snap() {
        assert_eq!(unsigned_rounding_error(3), 0.0625);
        // Every in-range quantization stays within the bound.
        for i in 0..100 {
            let x = 0.005 + i as f64 * 0.01;
            let err = (quantize_unsigned(x, 3, 1 << 3) - x).abs();
            assert!(err <= unsigned_rounding_error(3));
        }
    }
}
