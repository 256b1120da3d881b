//! The prior-art sequential cumulative-scan sampler.

use crate::{SampleScratch, Sampler};

/// The iterative sampler of previous Gibbs accelerator designs (§III-D).
///
/// Hardware structure: one accumulator register, one adder and one
/// comparator. The probability vector streams past the accumulator once to
/// form the total (N cycles), ThresholdGen multiplies by a uniform draw
/// (1 cycle), then the vector streams past again accumulating until the
/// running sum exceeds the threshold (up to N cycles) — `2N + 1` cycles per
/// sample, the paper's quoted cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialSampler;

impl SequentialSampler {
    /// Create a sequential sampler.
    pub fn new() -> Self {
        Self
    }
}

impl Sampler for SequentialSampler {
    /// The second pass: accumulate until the running sum exceeds `t`.
    fn select(&self, probs: &[f64], t: f64, _scratch: &mut SampleScratch) -> usize {
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if acc > t {
                return i;
            }
        }
        probs.len() - 1
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        2 * n as u64 + 1
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_2n_plus_1() {
        let s = SequentialSampler::new();
        assert_eq!(s.latency_cycles(2), 5);
        assert_eq!(s.latency_cycles(64), 129);
        assert_eq!(s.latency_cycles(128), 257);
    }

    #[test]
    fn picks_first_bucket_exceeding_threshold() {
        let s = SequentialSampler::new();
        let probs = [0.25, 0.25, 0.5];
        assert_eq!(s.sample_with_threshold(&probs, 0.24).label, 0);
        assert_eq!(s.sample_with_threshold(&probs, 0.26).label, 1);
        assert_eq!(s.sample_with_threshold(&probs, 0.75).label, 2);
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn threshold_at_total_panics() {
        let s = SequentialSampler::new();
        let _ = s.sample_with_threshold(&[0.5, 0.5], 1.0);
    }
}
