//! SplitMix64 generator.

use crate::HwRng;

/// SplitMix64: a counter-based generator with a strong finalizer.
///
/// Every chain draws from it, the reference (float32) runs included, and
/// the workload generators seed from it: every state is reachable, so there
/// is no bad-seed handling at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from `seed`. All seeds are valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive an independent child seed (handy for per-chain seeding).
    pub fn derive(&mut self) -> u64 {
        self.next_u64()
    }
}

impl HwRng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_first_outputs() {
        // Reference values from the canonical splitmix64.c with seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derive_gives_distinct_seeds() {
        let mut rng = SplitMix64::new(5);
        let a = rng.derive();
        let b = rng.derive();
        assert_ne!(a, b);
    }

    #[test]
    fn chi_square_uniformity_16_bins() {
        let mut rng = SplitMix64::new(31337);
        let bins = 16usize;
        let draws = 32_000usize;
        let mut counts = vec![0usize; bins];
        for _ in 0..draws {
            counts[(rng.next_f64() * bins as f64) as usize] += 1;
        }
        let expected = draws as f64 / bins as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        // 15 degrees of freedom; 0.999 quantile ~ 37.7. Generous bound to
        // stay deterministic and non-flaky.
        assert!(chi2 < 45.0, "chi-square {chi2} too large");
    }
}
