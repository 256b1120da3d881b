//! The pseudo-random number generator behind every chain.
//!
//! The CoopMC sampler (§III-D of the paper) draws its threshold from "a
//! hardware Pseudo-random Number Generator (PRNG)". Every chain here draws
//! from [`SplitMix64`] through the [`HwRng`] trait, the seam a test fakes a
//! generator through.
//!
//! The generator is deterministic given a seed, which is what makes the
//! paper's experiments reproducible here.
//!
//! # Example
//!
//! ```
//! use coopmc_rng::{HwRng, SplitMix64};
//!
//! let mut rng = SplitMix64::new(42);
//! let u = rng.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

mod splitmix;

pub use splitmix::SplitMix64;

/// A deterministic hardware-style random number generator.
///
/// The trait is object-safe so heterogeneous sampler configurations can share
/// a `&mut dyn HwRng`.
pub trait HwRng {
    /// Produce the next 64 raw bits of generator output.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits, the mantissa width of f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_index requires n > 0");
        // Floating-point scaling; bias is negligible for the label counts
        // used here (n is at most a few thousand).
        (self.next_f64() * n as f64) as usize % n
    }
}

impl<R: HwRng + ?Sized> HwRng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: HwRng + ?Sized> HwRng for Box<R> {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let mut rng: Box<dyn HwRng> = Box::new(SplitMix64::new(1));
        let _ = rng.next_u64();
        let _ = rng.next_f64();
    }

    #[test]
    fn next_f64_in_unit_interval_for_all_generators() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn uniform_index_covers_range() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.uniform_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..8 should appear");
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn uniform_index_zero_panics() {
        SplitMix64::new(1).uniform_index(0);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut rng = SplitMix64::new(9);
        let direct = SplitMix64::new(9).next_u64();
        let via_ref = HwRng::next_u64(&mut &mut rng);
        assert_eq!(direct, via_ref);
    }
}
