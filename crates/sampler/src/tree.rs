//! The TreeSampler micro-architecture (paper Fig. 8).

use crate::{SampleScratch, Sampler};

/// The *TreeSum* module: a binary adder tree holding the partial sums of a
/// distribution's weights.
///
/// Level 0 is the leaves (the weights zero-padded to the next power of
/// two, exactly as the hardware ties off unused leaves); level `d` holds
/// sums of `2^d` consecutive leaves; the root is the total mass. Node
/// `(level, i)` sums leaves `[i·2^level, (i+1)·2^level)`.
///
/// All nodes live in **one flat buffer** in heap order: the root at 1, the
/// children of node `j` at `2j` and `2j + 1`, so level `d` starts at
/// `padded >> d`. A tree can be [`TreeSum::rebuild`]-ed over new weights
/// without touching the allocator — the hot-path requirement of the Gibbs
/// inner loop. A default-constructed `TreeSum` is empty and must be
/// `rebuild`-ed before use.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeSum {
    /// Heap-ordered nodes: `2·padded` slots, slot 0 unused.
    nodes: Vec<f64>,
    /// Number of physical leaf slots. Zero only for the empty default
    /// tree.
    padded: usize,
}

impl TreeSum {
    /// Build the adder tree over `leaves`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn build(leaves: &[f64]) -> Self {
        let mut tree = TreeSum::default();
        tree.rebuild(leaves);
        tree
    }

    /// Recompute the tree over new leaves, reusing the node buffer.
    /// Allocates only when `leaves` needs a larger padded size than any
    /// vector seen before.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn rebuild(&mut self, leaves: &[f64]) {
        assert!(!leaves.is_empty(), "TreeSum requires at least one leaf");
        let padded = leaves.len().next_power_of_two();
        self.padded = padded;
        self.nodes.resize(2 * padded, 0.0);
        let (live, ties) = self.nodes[padded..].split_at_mut(leaves.len());
        live.copy_from_slice(leaves);
        ties.fill(0.0);
        // Two levels per pass from the leaves: each block of four nodes
        // of the level at `width` sums into two nodes of the level at
        // `width / 2` and one of the level at `width / 4`.
        let mut width = padded;
        while width >= 4 {
            let (upper, level) = self.nodes[width / 4..2 * width].split_at_mut(width - width / 4);
            let (sums, pairs) = upper.split_at_mut(width / 4);
            let blocks = level.chunks_exact(4).zip(pairs.chunks_exact_mut(2));
            for (sum, (quad, pair)) in sums.iter_mut().zip(blocks) {
                pair[0] = quad[0] + quad[1];
                pair[1] = quad[2] + quad[3];
                *sum = pair[0] + pair[1];
            }
            width /= 4;
        }
        if width == 2 {
            self.nodes[1] = self.nodes[2] + self.nodes[3];
        }
    }

    /// Total mass (the root node).
    ///
    /// # Panics
    ///
    /// Panics on an empty (default-constructed, never rebuilt) tree.
    pub fn total(&self) -> f64 {
        *self.nodes.get(1).expect("empty TreeSum")
    }

    /// Number of tree levels above the leaves (`⌈log₂ N⌉`).
    pub fn depth(&self) -> usize {
        self.padded.trailing_zeros() as usize
    }

    /// Number of physical leaf slots (padded size).
    pub fn leaf_count(&self) -> usize {
        self.padded
    }

    /// Number of adder nodes (`leaf_count - 1`).
    pub fn adder_count(&self) -> usize {
        self.leaf_count() - 1
    }

    /// Partial sum at `(level, index)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `index` is out of range.
    pub fn node(&self, level: usize, index: usize) -> f64 {
        assert!(level <= self.depth(), "level {level} out of range");
        assert!(
            index < self.padded >> level,
            "index {index} out of range at level {level}"
        );
        self.nodes[(self.padded >> level) + index]
    }

    /// The *TraverseTree* walk: descend from the root comparing the carried
    /// threshold against the left child; go left if `t < left`, otherwise
    /// subtract `left` and go right (Fig. 8). Returns the selected leaf.
    pub fn traverse(&self, mut t: f64) -> usize {
        let mut j = 1;
        while j < self.padded {
            let left = self.nodes[2 * j];
            let right = t >= left;
            if right {
                t -= left;
            }
            j = 2 * j + usize::from(right);
        }
        j - self.padded
    }
}

/// The paper's TreeSampler: TreeSum + ThresholdGen + TraverseTree. It
/// walks `f64` weights; the draw skeleton inverts code rows itself.
///
/// Latency: `⌈log₂N⌉` cycles for the adder tree to settle, the
/// ThresholdGen multiply, and `⌈log₂N⌉` cycles for the comparator walk —
/// `2⌈log₂N⌉ + 3` in total (the constant covering threshold generation and
/// output registration). At 64 labels this is 15 cycles against the
/// sequential sampler's 129, the ≈8.7× speedup of §IV-C.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeSampler;

impl TreeSampler {
    /// Create a tree sampler.
    pub fn new() -> Self {
        Self
    }
}

impl Sampler for TreeSampler {
    /// TreeSum, then the TraverseTree walk. The tree's sums can round apart
    /// from the serial sums `t` was drawn under, so the walk can end on a
    /// zero weight or the padding; it then takes the last positive weight
    /// before that leaf.
    #[inline]
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize {
        scratch.tree.rebuild(probs);
        let leaf = scratch.tree.traverse(t).min(probs.len() - 1);
        (0..=leaf).rev().find(|&i| probs[i] > 0.0).unwrap_or(leaf)
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        let depth = (n.next_power_of_two().trailing_zeros()) as u64;
        2 * depth.max(1) + 3
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_rng::{HwRng, SplitMix64};

    #[test]
    fn tree_sum_totals_and_structure() {
        let t = TreeSum::build(&[0.1, 0.2, 0.3, 0.4]);
        assert!((t.total() - 1.0).abs() < 1e-12);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.adder_count(), 3);
        assert!((t.node(1, 0) - 0.3).abs() < 1e-12);
        assert!((t.node(1, 1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn padding_to_power_of_two() {
        let t = TreeSum::build(&[1.0, 2.0, 3.0]);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.node(0, 3), 0.0);
        assert_eq!(t.total(), 6.0);
    }

    #[test]
    fn rebuild_reuses_buffer_and_matches_build() {
        let mut tree = TreeSum::build(&[0.5; 64]);
        let cap = {
            tree.rebuild(&[1.0, 2.0, 3.0, 4.0, 5.0]);
            tree.nodes.capacity()
        };
        // A same-or-smaller vector must not grow the buffer.
        tree.rebuild(&[0.2, 0.3, 0.5]);
        assert_eq!(tree.nodes.capacity(), cap);
        assert_eq!(tree, TreeSum::build(&[0.2, 0.3, 0.5]));
    }

    #[test]
    fn single_leaf_tree() {
        let t = TreeSum::build(&[3.5]);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.total(), 3.5);
        assert_eq!(t.traverse(1.0), 0);
    }

    #[test]
    fn traverse_implements_cdf_inverse() {
        let t = TreeSum::build(&[0.2, 0.3, 0.5]);
        assert_eq!(t.traverse(0.0), 0);
        assert_eq!(t.traverse(0.19), 0);
        assert_eq!(t.traverse(0.2), 1);
        assert_eq!(t.traverse(0.49), 1);
        assert_eq!(t.traverse(0.5), 2);
        assert_eq!(t.traverse(0.99), 2);
    }

    #[test]
    fn traverse_never_lands_on_padding() {
        // Padding leaves carry zero mass: any t < total avoids them.
        let probs = [0.5, 0.25, 0.25];
        let tree = TreeSum::build(&probs);
        for k in 0..100 {
            let t = 0.999999 * (k as f64) / 100.0;
            assert!(tree.traverse(t) < 3, "landed on padding for t={t}");
        }
    }

    #[test]
    fn sample_into_agrees_with_threshold_core() {
        let probs = [0.05, 0.3, 0.15, 0.25, 0.25];
        let sampler = TreeSampler::new();
        let mut scratch = SampleScratch::new();
        let mut rng_a = SplitMix64::new(99);
        let mut rng_b = SplitMix64::new(99);
        for _ in 0..100 {
            let a = sampler.sample(&probs, &mut rng_a);
            let b = sampler.sample_into(&probs, &mut rng_b, &mut scratch);
            assert_eq!(a, b);
        }
    }

    /// Labels 0–3 of this row sum one ulp lower in the tree than in
    /// `validate`'s serial scan, so at the threshold a draw makes from the
    /// largest `next_f64`, `1 − 2^-53`, the walk passes label 3 into the
    /// zero weight. Both tree samplers take label 3, as the scan does.
    /// Through `sample`, `Top` makes that draw.
    #[test]
    fn a_walk_onto_a_zero_weight_takes_the_last_positive_weight() {
        struct Top;
        impl HwRng for Top {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let probs = [
            0.762280082457942,
            0.0021060533511106927,
            0.4453871940548014,
            0.7215400323407826,
            0.0,
        ];
        let total = crate::validate(&probs);
        assert_eq!(total, 1.9313133622046368);
        assert_eq!(TreeSum::build(&probs).total(), 1.9313133622046366);
        let t = total * Top.next_f64();
        assert_eq!(t, 1.9313133622046366);
        let samplers: [Box<dyn Sampler>; 3] = [
            Box::new(crate::SequentialSampler::new()),
            Box::new(TreeSampler::new()),
            Box::new(crate::PipeTreeSampler::new()),
        ];
        for s in samplers {
            assert_eq!(s.sample_with_threshold(&probs, t).label, 3, "{}", s.name());
            assert_eq!(s.sample(&probs, &mut Top).label, 3, "{}", s.name());
        }
    }

    #[test]
    fn latency_is_2logn_plus_3() {
        let s = TreeSampler::new();
        assert_eq!(s.latency_cycles(2), 5);
        assert_eq!(s.latency_cycles(64), 15);
        assert_eq!(s.latency_cycles(128), 17);
        // non-power-of-two rounds the depth up
        assert_eq!(s.latency_cycles(65), 17);
    }

    #[test]
    fn speedup_at_64_labels_matches_paper() {
        // 129 / 15 = 8.6 — the paper's "8.7x" headline at 64 labels.
        let seq = crate::SequentialSampler::new();
        let tree = TreeSampler::new();
        let speedup = seq.latency_cycles(64) as f64 / tree.latency_cycles(64) as f64;
        assert!((speedup - 8.6).abs() < 0.1);
    }

    #[test]
    fn step_function_speedup_between_powers_of_two() {
        // §IV-C: between two powers of two the tree latency is constant.
        let tree = TreeSampler::new();
        assert_eq!(tree.latency_cycles(65), tree.latency_cycles(128));
        assert_eq!(tree.latency_cycles(33), tree.latency_cycles(64));
    }
}
