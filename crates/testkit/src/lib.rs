//! A tiny, fully deterministic property-testing harness.
//!
//! The workspace builds in hermetic environments with no access to
//! crates.io, so it cannot depend on `proptest`. This crate provides the
//! small subset the test suites actually need: a seeded case generator and
//! a driver that runs a property over many generated inputs, reporting the
//! case seed on failure so any counterexample is reproducible with
//! [`check_seeded`].
//!
//! Properties are plain closures over a [`Gen`]; assertions are the
//! standard `assert!`/`assert_eq!` macros. There is no shrinking — cases
//! are small by construction (callers bound their own sizes), and the
//! printed seed replays the exact failing case.
//!
//! [`assert_golden`] pins a rendered artifact (a schematic, a report) byte
//! for byte against a committed golden file.
//!
//! # Example
//!
//! ```
//! use coopmc_testkit::check;
//!
//! check("addition commutes", 64, |g| {
//!     let (a, b) = (g.i64_in(-100, 100), g.i64_in(-100, 100));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::path::Path;

use coopmc_rng::{HwRng, SplitMix64};

/// Default number of cases run by [`check`]'s convenience wrappers.
pub const DEFAULT_CASES: usize = 128;

/// A deterministic random-input generator for one property-test case.
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// A generator seeded for one case.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.rng.next_f64()
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "bad range [{lo}, {hi})");
        lo + self.rng.uniform_index(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.usize_in(lo as usize, hi as usize) as u32
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "bad range [{lo}, {hi})");
        lo + self.rng.uniform_index((hi - lo) as usize) as i64
    }

    /// An index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty collection");
        self.rng.uniform_index(len)
    }

    /// A `Vec<f64>` with a length drawn from `[min_len, max_len)` and
    /// elements drawn from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if either range is empty.
    pub fn vec_f64(&mut self, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

/// Run `property` over `cases` generated inputs. Each case gets its own
/// seeded [`Gen`]; on a panic the failing case seed is printed so the case
/// can be replayed with [`check_seeded`].
pub fn check(name: &str, cases: usize, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(name, case as u64);
        let mut g = Gen::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut g)));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed on case {case} — replay with \
                 coopmc_testkit::check_seeded({seed:#x}, ..)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Replay a single property case from the seed printed by a failed
/// [`check`] run.
pub fn check_seeded(seed: u64, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen::new(seed);
    property(&mut g);
}

/// Compare `rendered` with the golden file `dir/name`, or rewrite that file
/// when the `COOPMC_BLESS` environment variable is set.
///
/// # Panics
///
/// Panics when the golden is missing or differs from `rendered`.
pub fn assert_golden(dir: &Path, name: &str, rendered: &str) {
    let path = dir.join(name);
    if std::env::var("COOPMC_BLESS").is_ok() {
        std::fs::create_dir_all(dir).expect("golden dir");
        std::fs::write(&path, rendered).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with COOPMC_BLESS=1"));
    assert_eq!(
        rendered, want,
        "{name} drifted from its golden; rerun with COOPMC_BLESS=1 if the change is intentional"
    );
}

/// Derive a decorrelated per-case seed from the property name and index.
fn case_seed(name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index through SplitMix64's
    // finalizer so consecutive cases are decorrelated.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)).derive()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_respected() {
        check("ranges", 256, |g| {
            let x = g.f64_in(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&x));
            let n = g.usize_in(2, 9);
            assert!((2..9).contains(&n));
            let v = g.vec_f64(1, 5, 0.0, 1.0);
            assert!(!v.is_empty() && v.len() < 5);
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        check("det", 8, |g| first.push(g.u64()));
        let mut second = Vec::new();
        check("det", 8, |g| second.push(g.u64()));
        assert_eq!(first, second);
        let mut other = Vec::new();
        check("det2", 8, |g| other.push(g.u64()));
        assert_ne!(
            first, other,
            "distinct properties must see distinct streams"
        );
    }

    #[test]
    fn failing_case_reports_replayable_seed() {
        let seed = case_seed("will-fail", 0);
        let direct = Gen::new(seed).u64();
        let mut replayed = 0;
        check_seeded(seed, |g| replayed = g.u64());
        assert_eq!(direct, replayed);
    }
}
