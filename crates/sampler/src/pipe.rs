//! The pipelined TreeSampler (PipeTreeSampler).

use coopmc_rng::HwRng;

use crate::{SampleScratch, Sampler, TreeSampler};

/// TreeSampler with shift registers between corresponding TreeSum and
/// TraverseTree layers (paper §III-D, last paragraph).
///
/// The shift registers let a new probability vector enter TreeSum every
/// cycle while earlier vectors are still traversing: latency per sample is
/// unchanged versus [`TreeSampler`], and so is the label each draw selects,
/// but steady-state throughput rises to **one sample per cycle**. The batch
/// API models a full pipeline: `k` samples complete in
/// `latency + (k − 1)` cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeTreeSampler;

impl PipeTreeSampler {
    /// Create a pipelined tree sampler.
    pub fn new() -> Self {
        Self
    }

    /// Sample one label from each distribution in `batch`, modelling the
    /// pipeline: total cycles are `latency + (batch.len() − 1)`.
    ///
    /// Returns the labels and the total cycle count.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or any distribution is invalid.
    pub fn sample_batch(&self, batch: &[&[f64]], rng: &mut dyn HwRng) -> (Vec<usize>, u64) {
        assert!(!batch.is_empty(), "batch must be non-empty");
        let mut scratch = SampleScratch::new();
        let labels: Vec<usize> = batch
            .iter()
            .map(|probs| self.sample_into(probs, rng, &mut scratch).label)
            .collect();
        let n_max = batch.iter().map(|p| p.len()).max().unwrap();
        let cycles = self.latency_cycles(n_max) + (batch.len() as u64 - 1);
        (labels, cycles)
    }
}

impl Sampler for PipeTreeSampler {
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize {
        TreeSampler.select(probs, t, scratch)
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        TreeSampler.latency_cycles(n)
    }

    /// One sample per cycle in steady state.
    fn throughput(&self, _n: usize) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "pipe-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_rng::SplitMix64;

    #[test]
    fn batch_cycles_are_latency_plus_k_minus_1() {
        let pipe = PipeTreeSampler::new();
        let probs = vec![0.25; 64];
        let batch: Vec<&[f64]> = (0..10).map(|_| probs.as_slice()).collect();
        let mut rng = SplitMix64::new(3);
        let (labels, cycles) = pipe.sample_batch(&batch, &mut rng);
        assert_eq!(labels.len(), 10);
        assert_eq!(cycles, pipe.latency_cycles(64) + 9);
    }

    #[test]
    fn pipelined_beats_unpipelined_on_batches() {
        let pipe = PipeTreeSampler::new();
        let tree = TreeSampler::new();
        let k = 100u64;
        let unpipelined = k * tree.latency_cycles(64);
        let pipelined = pipe.latency_cycles(64) + (k - 1);
        assert!(pipelined * 5 < unpipelined, "{pipelined} vs {unpipelined}");
    }

    #[test]
    fn same_latency_as_tree_sampler() {
        let pipe = PipeTreeSampler::new();
        let tree = TreeSampler::new();
        for n in [2usize, 7, 16, 64, 128] {
            assert_eq!(pipe.latency_cycles(n), tree.latency_cycles(n));
        }
    }

    #[test]
    fn identical_labels_to_tree_sampler_with_same_threshold() {
        let pipe = PipeTreeSampler::new();
        let tree = TreeSampler::new();
        let probs = [0.1, 0.4, 0.2, 0.3];
        for k in 0..50 {
            let t = 0.999 * k as f64 / 50.0;
            assert_eq!(
                pipe.sample_with_threshold(&probs, t).label,
                tree.sample_with_threshold(&probs, t).label
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = PipeTreeSampler::new().sample_batch(&[], &mut rng);
    }
}
