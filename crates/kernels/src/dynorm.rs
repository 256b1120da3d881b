//! Dynamic Normalization (DyNorm) and the NormTree maximum-finding tree.
//!
//! DyNorm (paper §III-A) subtracts the runtime maximum from every exp-kernel
//! input so the largest input is always 0 and the largest output is always 1
//! (Eq. 8–9). Dividing numerator and denominator of the softmax by `exp(C)`
//! leaves the distribution unchanged, so DyNorm is *exactly* invariant in
//! infinite precision — its entire effect is to keep low-precision kernels in
//! their useful activation range.
//!
//! The hardware that finds the maximum is the **NormTree** (Fig. 3): a binary
//! tree of comparators across the parallel PG pipelines, with latency
//! `ceil(log2(n)) + 1` cycles and `n - 1` comparators for `n` inputs.

/// Result of running a vector through DyNorm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyNormReport {
    /// The normalization constant `C` (the maximum input) that was
    /// subtracted.
    pub max: f64,
    /// Latency of the NormTree reduction plus the subtraction layer.
    pub cycles: u64,
    /// Comparators visited (equals `len - 1` for a full reduction).
    pub comparisons: u64,
}

/// A binary comparator tree that finds the maximum of an input array.
///
/// `width` is the number of physical leaf ports (one per parallel PG
/// pipeline). Longer inputs are folded through the tree in `ceil(len/width)`
/// passes with a running maximum, exactly like hardware streaming more labels
/// than it has pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormTree {
    width: usize,
}

impl NormTree {
    /// A tree with `width` leaf ports.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "NormTree width must be positive");
        Self { width }
    }

    /// Number of leaf ports.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth of the physical tree in layers.
    pub fn depth(&self) -> u32 {
        usize::BITS - (self.width - 1).leading_zeros()
    }

    /// Find the maximum of `values`, reporting the reduction latency.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn max(&self, values: &[f64]) -> (f64, u64, u64) {
        assert!(!values.is_empty(), "NormTree requires at least one input");
        let mut best = f64::NEG_INFINITY;
        let mut comparisons = 0u64;
        let mut passes = 0u64;
        for chunk in values.chunks(self.width) {
            // One tree pass. The physical tree performs `len - 1` pairwise
            // comparator visits plus one merge with the running-maximum
            // register — `len` comparisons per pass. A linear fold visits
            // the same maxima in a different association order, which is
            // irrelevant for max, so no per-layer buffers are needed: this
            // runs on the Gibbs engine's allocation-free hot path.
            let mut pass_best = f64::NEG_INFINITY;
            for &v in chunk {
                if v > pass_best {
                    pass_best = v;
                }
            }
            comparisons += chunk.len() as u64;
            if pass_best > best {
                best = pass_best;
            }
            passes += 1;
        }
        // Latency: each pass costs depth layers; +1 cycle for the final
        // broadcast/subtract enable (the "+1" of §III-A).
        let cycles = passes * self.depth() as u64 * crate::cost::TREE_LAYER_CYCLES + 1;
        (best, cycles, comparisons)
    }
}

/// Apply DyNorm in place: subtract the maximum of `values` from every
/// element, so `max(values) == 0` afterwards (Eq. 9).
///
/// `pipelines` is the number of parallel PG pipelines feeding the physical
/// NormTree, which determines the reduction latency.
///
/// # Panics
///
/// Panics if `values` is empty or `pipelines == 0`.
pub fn dynorm_apply(values: &mut [f64], pipelines: usize) -> DyNormReport {
    let tree = NormTree::new(pipelines);
    let (max, tree_cycles, comparisons) = tree.max(values);
    for v in values.iter_mut() {
        *v -= max;
    }
    // The subtraction is one add-layer across all pipelines (parallel).
    let cycles = tree_cycles + crate::cost::ADD_CYCLES;
    DyNormReport {
        max,
        cycles,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_after_dynorm_is_zero() {
        let mut v = vec![-5.0, -2.5, -9.75, -2.5];
        let r = dynorm_apply(&mut v, 4);
        assert_eq!(r.max, -2.5);
        assert_eq!(v.iter().cloned().fold(f64::NEG_INFINITY, f64::max), 0.0);
    }

    #[test]
    fn dynorm_preserves_pairwise_differences() {
        let orig = [-3.0, -1.0, -8.5];
        let mut v = orig.to_vec();
        dynorm_apply(&mut v, 2);
        for i in 0..v.len() {
            for j in 0..v.len() {
                assert!(((v[i] - v[j]) - (orig[i] - orig[j])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn normtree_finds_max_regardless_of_position() {
        let tree = NormTree::new(8);
        for pos in 0..13 {
            let mut v = vec![-10.0; 13];
            v[pos] = -1.0;
            let (m, _, _) = tree.max(&v);
            assert_eq!(m, -1.0, "missed max at position {pos}");
        }
    }

    #[test]
    fn normtree_depth_and_comparators() {
        let t = NormTree::new(8);
        assert_eq!(t.depth(), 3);
        let t2 = NormTree::new(5);
        assert_eq!(t2.depth(), 3); // ceil(log2 5)
    }

    #[test]
    fn latency_scales_logarithmically_with_width() {
        // One full-width pass: depth(log2 w) + 1 cycles.
        let v16: Vec<f64> = (0..16).map(|i| -(i as f64)).collect();
        let (_, c16, _) = NormTree::new(16).max(&v16);
        assert_eq!(c16, 4 + 1);
        let v64: Vec<f64> = (0..64).map(|i| -(i as f64)).collect();
        let (_, c64, _) = NormTree::new(64).max(&v64);
        assert_eq!(c64, 6 + 1);
    }

    #[test]
    fn folding_more_labels_than_width_takes_multiple_passes() {
        let v: Vec<f64> = (0..32).map(|i| -(i as f64)).collect();
        let (m, cycles, _) = NormTree::new(8).max(&v);
        assert_eq!(m, 0.0);
        // 4 passes of depth 3 + 1 final cycle.
        assert_eq!(cycles, 4 * 3 + 1);
    }

    #[test]
    fn single_input_works() {
        let mut v = vec![-4.0];
        let r = dynorm_apply(&mut v, 1);
        assert_eq!(r.max, -4.0);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_input_panics() {
        NormTree::new(4).max(&[]);
    }

    #[test]
    fn softmax_is_invariant_under_dynorm() {
        // The mathematical identity of Eq. 8: softmax(x) == softmax(x - C).
        let orig = [-20.0, -18.5, -23.0, -19.0];
        let softmax = |v: &[f64]| {
            let z: f64 = v.iter().map(|x| x.exp()).sum();
            v.iter().map(|x| x.exp() / z).collect::<Vec<_>>()
        };
        let before = softmax(&orig);
        let mut shifted = orig.to_vec();
        dynorm_apply(&mut shifted, 4);
        let after = softmax(&shifted);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
    }
}
