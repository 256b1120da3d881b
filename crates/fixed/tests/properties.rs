//! Property-based tests for the fixed-point substrate (deterministic
//! generator harness from `coopmc-testkit`).

use coopmc_fixed::{Fixed, QFormat, Rounding};
use coopmc_testkit::{check, Gen};

fn arb_format(g: &mut Gen) -> QFormat {
    loop {
        let i = g.u32_in(0, 17);
        let f = g.u32_in(0, 25);
        if i + f > 0 {
            return QFormat::new(i, f).unwrap();
        }
    }
}

fn arb_raw(g: &mut Gen, fmt: QFormat) -> i64 {
    g.i64_in(i32::MIN as i64, i32::MAX as i64 + 1)
        .clamp(fmt.min_raw(), fmt.max_raw())
}

#[test]
fn from_f64_stays_in_range() {
    check("from_f64_stays_in_range", 256, |g| {
        let fmt = arb_format(g);
        let x = g.f64_in(-1.0e12, 1.0e12);
        let mode = [Rounding::Nearest, Rounding::Floor, Rounding::Truncate][g.index(3)];
        let v = Fixed::from_f64(x, fmt, mode);
        assert!(v.to_f64() <= fmt.max_value());
        assert!(v.to_f64() >= fmt.min_value());
    });
}

#[test]
fn nearest_error_bounded() {
    check("nearest_error_bounded", 256, |g| {
        let fmt = arb_format(g);
        let frac = g.f64_in(-0.999, 0.999);
        let x = frac * fmt.max_value().min(1.0e9);
        let err = Fixed::quantization_error(x, fmt, Rounding::Nearest);
        assert!(err <= fmt.resolution() / 2.0 + 1e-12, "err {err} > res/2");
    });
}

#[test]
fn grid_round_trip() {
    check("grid_round_trip", 256, |g| {
        let fmt = arb_format(g);
        let raw = arb_raw(g, fmt);
        let v = Fixed::from_raw(raw, fmt);
        let back = Fixed::from_f64(v.to_f64(), fmt, Rounding::Nearest);
        assert_eq!(v, back);
    });
}

#[test]
fn add_commutative_with_identity() {
    check("add_commutative_with_identity", 256, |g| {
        let fmt = arb_format(g);
        let a = Fixed::from_raw(arb_raw(g, fmt), fmt);
        let b = Fixed::from_raw(arb_raw(g, fmt), fmt);
        assert_eq!(a + b, b + a);
        assert_eq!(a + Fixed::from_raw(0, fmt), a);
    });
}

#[test]
fn sub_self_is_zero() {
    check("sub_self_is_zero", 256, |g| {
        let fmt = arb_format(g);
        let raw = arb_raw(g, fmt);
        let x = Fixed::from_raw(raw, fmt);
        assert_eq!((x - x).raw(), 0);
        if raw != fmt.min_raw() {
            assert_eq!((x + (-x)).raw(), 0);
        }
    });
}

#[test]
fn mul_truncation_bound() {
    check("mul_truncation_bound", 512, |g| {
        let fmt = arb_format(g);
        if fmt.frac_bits() < 2 || fmt.int_bits() < 2 {
            return;
        }
        let a = Fixed::from_raw(g.i64_in(-100, 100).clamp(fmt.min_raw(), fmt.max_raw()), fmt);
        let b = Fixed::from_raw(g.i64_in(-100, 100).clamp(fmt.min_raw(), fmt.max_raw()), fmt);
        let exact = a.to_f64() * b.to_f64();
        if exact.abs() >= fmt.max_value() {
            return;
        }
        let got = (a * b).to_f64();
        assert!(
            (exact - got).abs() <= fmt.resolution(),
            "exact {exact} got {got}"
        );
    });
}

#[test]
fn rescale_round_trip() {
    check("rescale_round_trip", 256, |g| {
        let narrow = QFormat::new(8, 4).unwrap();
        let wide = QFormat::new(16, 16).unwrap();
        let raw = g
            .i64_in(i16::MIN as i64, i16::MAX as i64 + 1)
            .clamp(narrow.min_raw(), narrow.max_raw());
        let v = Fixed::from_raw(raw, narrow);
        let back = v
            .rescale(wide, Rounding::Nearest)
            .rescale(narrow, Rounding::Nearest);
        assert_eq!(v, back);
    });
}

#[test]
fn add_matches_reference_in_range() {
    check("add_matches_reference_in_range", 256, |g| {
        let fmt = arb_format(g);
        let a = Fixed::from_raw(
            g.i64_in(-1000, 1000).clamp(fmt.min_raw(), fmt.max_raw()),
            fmt,
        );
        let b = Fixed::from_raw(
            g.i64_in(-1000, 1000).clamp(fmt.min_raw(), fmt.max_raw()),
            fmt,
        );
        let exact = a.to_f64() + b.to_f64();
        if exact > fmt.max_value() || exact < fmt.min_value() {
            return;
        }
        assert_eq!((a + b).to_f64(), exact);
    });
}

#[test]
fn div_mul_round_trip() {
    check("div_mul_round_trip", 256, |g| {
        let fmt = QFormat::new(12, 12).unwrap();
        let a = Fixed::from_raw(g.i64_in(1, 500) << 12, fmt); // integer values
        let b = Fixed::from_raw(g.i64_in(1, 500) << 12, fmt);
        let q = a / b;
        let back = q * b;
        let err = (back.to_f64() - a.to_f64()).abs();
        // one step from the division truncation amplified by |b|
        assert!(err <= b.to_f64() * fmt.resolution() + fmt.resolution());
    });
}
