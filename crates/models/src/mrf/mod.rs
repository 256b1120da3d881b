//! Grid Markov random fields (paper §II-B).
//!
//! A [`GridMrf`] is a 4-connected grid of discrete variables. The posterior
//! of a node is `exp(-β · TC)` where the total cost `TC` is a data cost
//! (agreement with the observation) plus smooth costs against the four
//! neighbours (Eq. 3–4). The Gibbs scores are therefore produced directly in
//! the log domain.

mod apps;

pub use apps::{
    image_restoration, image_segmentation, sound_source_separation, stereo_matching, MrfApp,
};

use crate::{GibbsModel, ScoreRows};

/// A pairwise/unary cost function family used by the MRF energy (Eq. 3).
///
/// Every family is a function of `a − b` alone. [`GridMrf`] relies on it:
/// it tabulates the smooth cost once per label difference, and for integer
/// labels below 2^53 the difference is exact in `f64`, so a table read is
/// bit-identical to [`CostFn::cost`]. A new family must keep that form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostFn {
    /// `min(|a - b|, trunc)` — the classic truncated-linear cost.
    TruncatedLinear {
        /// Saturation point of the cost.
        trunc: f64,
    },
    /// `min((a - b)², trunc)` — truncated quadratic.
    TruncatedQuadratic {
        /// Saturation point of the cost.
        trunc: f64,
    },
    /// `0` if equal, `penalty` otherwise — the Potts model.
    Potts {
        /// Disagreement penalty.
        penalty: f64,
    },
}

impl CostFn {
    /// Evaluate the cost between two label values.
    pub fn cost(&self, a: f64, b: f64) -> f64 {
        match *self {
            CostFn::TruncatedLinear { trunc } => (a - b).abs().min(trunc),
            CostFn::TruncatedQuadratic { trunc } => ((a - b) * (a - b)).min(trunc),
            CostFn::Potts { penalty } => {
                if a == b {
                    0.0
                } else {
                    penalty
                }
            }
        }
    }
}

/// Grid neighbourhood system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Connectivity {
    /// 4-connectivity (the paper's MRF definition: "every node is
    /// correlated to four neighbors surrounding it").
    #[default]
    Four,
    /// 8-connectivity (adds the diagonals), common in the stereo/
    /// segmentation literature for smoother boundaries.
    Eight,
}

/// A grid MRF (4- or 8-connected).
#[derive(Debug, Clone, PartialEq)]
pub struct GridMrf {
    width: usize,
    height: usize,
    connectivity: Connectivity,
    n_labels: usize,
    /// Observed value per node (the `y_i` of Eq. 1), in label units.
    observed: Vec<f64>,
    /// Per-node observation validity: `false` marks missing data (e.g. an
    /// occluded pixel), which drops the node's data-cost term so the label
    /// is inferred purely from the smoothness prior (inpainting).
    data_mask: Vec<bool>,
    /// Current label per node.
    labels: Vec<usize>,
    data_cost: CostFn,
    smooth_cost: CostFn,
    /// `smooth_cost.cost(j, n_labels − 1)` for `j` in `0..2·n_labels − 1`:
    /// the smooth cost of every label difference `j + 1 − n_labels`, so
    /// `cost(a, b)` is `smooth[n_labels − 1 + a − b]`.
    smooth: Vec<f64>,
    beta: f64,
    /// Weight of the smoothness term relative to the data term.
    lambda: f64,
}

impl GridMrf {
    /// Build a grid MRF.
    ///
    /// * `observed` — one observation per node in row-major order, already
    ///   scaled to label units.
    /// * `beta` — the inverse temperature of Eq. 4.
    /// * `lambda` — smoothness weight multiplying the pairwise costs.
    ///
    /// Initial labels are the observations clamped onto `[0, n_labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are zero, `observed` has the wrong length,
    /// `n_labels < 2`, or `beta <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        width: usize,
        height: usize,
        n_labels: usize,
        observed: Vec<f64>,
        data_cost: CostFn,
        smooth_cost: CostFn,
        beta: f64,
        lambda: f64,
    ) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert_eq!(
            observed.len(),
            width * height,
            "observation field size mismatch"
        );
        assert!(n_labels >= 2, "need at least two labels");
        assert!(beta > 0.0, "beta must be positive");
        let labels = observed
            .iter()
            .map(|&y| (y.round().max(0.0) as usize).min(n_labels - 1))
            .collect();
        let data_mask = vec![true; width * height];
        let top = (n_labels - 1) as f64;
        let smooth = (0..2 * n_labels - 1)
            .map(|j| smooth_cost.cost(j as f64, top))
            .collect();
        Self {
            width,
            height,
            connectivity: Connectivity::Four,
            n_labels,
            observed,
            data_mask,
            labels,
            data_cost,
            smooth_cost,
            smooth,
            beta,
            lambda,
        }
    }

    /// Switch the neighbourhood system (builder-style). 8-connectivity adds
    /// the four diagonal neighbours to every smooth-cost sum.
    pub fn with_connectivity(mut self, connectivity: Connectivity) -> Self {
        self.connectivity = connectivity;
        self
    }

    /// The neighbourhood system in use.
    pub fn connectivity(&self) -> Connectivity {
        self.connectivity
    }

    /// Mark which nodes have valid observations; `false` entries lose their
    /// data-cost term entirely (missing data / inpainting).
    ///
    /// # Panics
    ///
    /// Panics if `mask` has the wrong length.
    pub fn set_data_mask(&mut self, mask: Vec<bool>) {
        assert_eq!(mask.len(), self.data_mask.len(), "mask size mismatch");
        self.data_mask = mask;
    }

    /// The observation-validity mask.
    pub fn data_mask(&self) -> &[bool] {
        &self.data_mask
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Inverse temperature β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Set the inverse temperature (used by annealing schedules for MAP
    /// inference).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not strictly positive.
    pub fn set_beta(&mut self, beta: f64) {
        assert!(beta > 0.0, "beta must be positive");
        self.beta = beta;
    }

    /// The observation field.
    pub fn observed(&self) -> &[f64] {
        &self.observed
    }

    /// Overwrite the current label field (e.g. to randomize the initial
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `labels` has the wrong length or contains an out-of-range
    /// label.
    pub fn set_labels(&mut self, labels: Vec<usize>) {
        assert_eq!(labels.len(), self.labels.len(), "label field size mismatch");
        assert!(
            labels.iter().all(|&l| l < self.n_labels),
            "label out of range"
        );
        self.labels = labels;
    }

    /// Neighbour indices of node `i` under the configured connectivity.
    pub fn neighbours(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (x, y) = (i % self.width, i / self.width);
        let w = self.width;
        let h = self.height;
        let diag = self.connectivity == Connectivity::Eight;
        [
            (x > 0).then(|| i - 1),
            (x + 1 < w).then(|| i + 1),
            (y > 0).then(|| i - w),
            (y + 1 < h).then(|| i + w),
            (diag && x > 0 && y > 0).then(|| i - w - 1),
            (diag && x + 1 < w && y > 0).then(|| i - w + 1),
            (diag && x > 0 && y + 1 < h).then(|| i + w - 1),
            (diag && x + 1 < w && y + 1 < h).then(|| i + w + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// Total cost `TC_i(l)` of node `i` taking label `l` (Eq. 3): the
    /// per-label reference [`GridMrf::log_row_into`] reproduces bit for bit.
    /// It evaluates [`CostFn::cost`] directly, not the smooth-cost table.
    pub fn total_cost(&self, i: usize, l: usize) -> f64 {
        let dc = if self.data_mask[i] {
            self.data_cost.cost(l as f64, self.observed[i])
        } else {
            0.0
        };
        let sc: f64 = self
            .neighbours(i)
            .map(|j| self.smooth_cost.cost(l as f64, self.labels[j] as f64))
            .sum();
        dc + self.lambda * sc
    }

    /// Write node `i`'s Gibbs score row, `-β · TC_i(l)` for every label
    /// `l`, into `out[l]`, with neighbour labels read through `read`.
    ///
    /// The neighbour labels, the data mask and the observation are read
    /// once per row, not once per label. A neighbour labelled `b` adds its
    /// smooth costs for labels `0..n` as one slice of the smooth-cost
    /// table, `smooth[n − 1 − b..][..n]`, which holds the same `f64`s as
    /// `smooth_cost.cost(l, b)` (see [`CostFn`]). Every score then takes
    /// [`GridMrf::total_cost`]'s float operations in the same order — the
    /// neighbour costs summed from `Iterator::sum`'s start value, then
    /// `dc + λ·Σ`, then `-β·tc` — so it is bit-identical to
    /// `-β · total_cost(i, l)` when `read` returns the model's own labels.
    /// The loops run neighbour by neighbour over all labels, which lets
    /// them vectorize. The Hogwild engine passes its shared atomic labels
    /// as `read`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the label count.
    pub fn log_row_into(&self, i: usize, read: impl Fn(usize) -> usize, out: &mut [f64]) {
        let n = self.n_labels;
        assert_eq!(out.len(), n, "one score per label");
        let mut neighbours = [0; 8];
        let mut k = 0;
        for j in self.neighbours(i) {
            neighbours[k] = read(j);
            k += 1;
        }
        let observed = self.data_mask[i].then(|| self.observed[i]);
        // Labels count in `u32`, whose conversion to `f64` vectorizes.
        let labels = 0..u32::try_from(n).expect("label count fits in u32");
        // `total_cost`'s `sum()` folds its neighbour costs from this value.
        out.fill(std::iter::empty::<f64>().sum());
        for &b in &neighbours[..k] {
            for (s, &c) in out.iter_mut().zip(&self.smooth[n - 1 - b..][..n]) {
                *s += c;
            }
        }
        for (l, s) in labels.zip(out.iter_mut()) {
            let dc = observed.map_or(0.0, |y| self.data_cost.cost(f64::from(l), y));
            *s = -self.beta * (dc + self.lambda * *s);
        }
    }

    /// Total energy of the current configuration (for convergence
    /// tracking). Pairwise terms are counted once per edge, each read from
    /// the smooth-cost table, which gives [`CostFn::cost`]'s bits.
    pub fn energy(&self) -> f64 {
        let top = self.n_labels - 1;
        let smooth = |a: usize, b: usize| self.smooth[top + a - b];
        let mut e = 0.0;
        for i in 0..self.labels.len() {
            let a = self.labels[i];
            if self.data_mask[i] {
                e += self.data_cost.cost(a as f64, self.observed[i]);
            }
            let (x, y) = (i % self.width, i / self.width);
            if x + 1 < self.width {
                e += self.lambda * smooth(a, self.labels[i + 1]);
            }
            if y + 1 < self.height {
                e += self.lambda * smooth(a, self.labels[i + self.width]);
            }
            if self.connectivity == Connectivity::Eight && y + 1 < self.height {
                // Count each diagonal edge once via the down-left and
                // down-right directions.
                if x > 0 {
                    e += self.lambda * smooth(a, self.labels[i + self.width - 1]);
                }
                if x + 1 < self.width {
                    e += self.lambda * smooth(a, self.labels[i + self.width + 1]);
                }
            }
        }
        e
    }
}

impl crate::coloring::ChromaticModel for GridMrf {
    /// 4-connectivity: the classic red–black checkerboard (`(x + y) % 2`).
    /// 8-connectivity: the 2×2 block pattern (`x % 2 + 2·(y % 2)`), since
    /// every horizontal, vertical or diagonal step flips at least one
    /// parity bit.
    fn color_classes(&self) -> Vec<Vec<usize>> {
        let n_classes = match self.connectivity {
            Connectivity::Four => 2,
            Connectivity::Eight => 4,
        };
        let mut classes = vec![Vec::new(); n_classes];
        for i in 0..self.labels.len() {
            let (x, y) = (i % self.width, i / self.width);
            let c = match self.connectivity {
                Connectivity::Four => (x + y) % 2,
                Connectivity::Eight => x % 2 + 2 * (y % 2),
            };
            classes[c].push(i);
        }
        classes
    }

    /// Grid adjacency: the 4- or 8-connected neighbourhood of every pixel.
    fn dependency_graph(&self) -> Vec<Vec<usize>> {
        (0..self.labels.len())
            .map(|i| self.neighbours(i).collect())
            .collect()
    }
}

impl GibbsModel for GridMrf {
    fn num_variables(&self) -> usize {
        self.labels.len()
    }

    fn num_labels(&self, _var: usize) -> usize {
        self.n_labels
    }

    fn row_into(&self, var: usize, rows: &mut ScoreRows) {
        self.log_row_into(var, |j| self.labels[j], rows.push_log_row(self.n_labels));
    }

    fn update(&mut self, var: usize, label: usize) {
        assert!(label < self.n_labels, "label {label} out of range");
        self.labels[var] = label;
    }

    fn label(&self, var: usize) -> usize {
        self.labels[var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelScore;

    fn small_mrf() -> GridMrf {
        GridMrf::new(
            3,
            3,
            4,
            vec![0.0, 1.0, 2.0, 1.0, 2.0, 3.0, 2.0, 3.0, 3.0],
            CostFn::TruncatedLinear { trunc: 2.0 },
            CostFn::TruncatedLinear { trunc: 2.0 },
            1.0,
            1.0,
        )
    }

    #[test]
    fn cost_functions() {
        assert_eq!(CostFn::TruncatedLinear { trunc: 2.0 }.cost(5.0, 1.0), 2.0);
        assert_eq!(CostFn::TruncatedLinear { trunc: 2.0 }.cost(1.5, 1.0), 0.5);
        assert_eq!(
            CostFn::TruncatedQuadratic { trunc: 5.0 }.cost(3.0, 1.0),
            4.0
        );
        assert_eq!(
            CostFn::TruncatedQuadratic { trunc: 3.0 }.cost(3.0, 0.0),
            3.0
        );
        assert_eq!(CostFn::Potts { penalty: 1.5 }.cost(2.0, 2.0), 0.0);
        assert_eq!(CostFn::Potts { penalty: 1.5 }.cost(2.0, 1.0), 1.5);
    }

    #[test]
    fn neighbour_topology() {
        let m = small_mrf();
        // corner
        let n0: Vec<usize> = m.neighbours(0).collect();
        assert_eq!(n0, vec![1, 3]);
        // center
        let mut n4: Vec<usize> = m.neighbours(4).collect();
        n4.sort_unstable();
        assert_eq!(n4, vec![1, 3, 5, 7]);
        // edge
        let mut n5: Vec<usize> = m.neighbours(5).collect();
        n5.sort_unstable();
        assert_eq!(n5, vec![2, 4, 8]);
    }

    #[test]
    fn initial_labels_follow_observations() {
        let m = small_mrf();
        assert_eq!(m.label(0), 0);
        assert_eq!(m.label(8), 3);
    }

    #[test]
    fn scores_are_negative_beta_times_cost() {
        // The appended row and its `LabelScore` form must equal the
        // per-label reference bit for bit, on every node (corners, edges, a
        // masked one) and label, for every cost family as data and as
        // smooth cost, under both connectivities, at 2, 4, 64 and 70
        // labels. The labels reach both ends of the range, so the rows read
        // both ends of the smooth-cost table. `energy()` must equal a sum
        // of `CostFn::cost` over the edges, each edge once, in its order.
        let costs = [
            CostFn::TruncatedLinear { trunc: 2.5 },
            CostFn::TruncatedQuadratic { trunc: 5.0 },
            CostFn::Potts { penalty: 1.5 },
        ];
        let observed = vec![0.0, 1.3, 2.0, 3.7, 1.0, 2.2, 0.4, 3.0, 2.9, 1.1, 0.0, 3.0];
        let (mut rows, mut scores) = (ScoreRows::new(), Vec::new());
        for n_labels in [2, 4, 64, 70] {
            let labels: Vec<usize> = [3, 0, 2, 1, 1, 3, 0, 2, 2, 0, 3, 1]
                .iter()
                .map(|l| l * (n_labels - 1) / 3)
                .collect();
            for data_cost in costs {
                for smooth_cost in costs {
                    for connectivity in [Connectivity::Four, Connectivity::Eight] {
                        let mut m = GridMrf::new(
                            4,
                            3,
                            n_labels,
                            observed.clone(),
                            data_cost,
                            smooth_cost,
                            0.7,
                            1.3,
                        )
                        .with_connectivity(connectivity);
                        let mut mask = vec![true; 12];
                        mask[5] = false;
                        m.set_data_mask(mask.clone());
                        m.set_labels(labels.clone());
                        let mut energy = 0.0;
                        for i in 0..12 {
                            let a = labels[i] as f64;
                            if mask[i] {
                                energy += data_cost.cost(a, observed[i]);
                            }
                            for j in m.neighbours(i).filter(|&j| j > i) {
                                energy += 1.3 * smooth_cost.cost(a, labels[j] as f64);
                            }
                        }
                        assert_eq!(m.energy().to_bits(), energy.to_bits(), "energy");
                        for var in 0..12 {
                            rows.clear();
                            rows.push_log_row(n_labels).fill(-9.0);
                            m.row_into(var, &mut rows);
                            let logs = rows.logs().expect("rows are log-domain");
                            assert_eq!(logs[0], -9.0, "rows are appended");
                            m.scores_into(var, &mut scores);
                            assert_eq!((logs.len(), scores.len()), (2 * n_labels, n_labels));
                            for l in 0..n_labels {
                                let want = (-m.beta() * m.total_cost(var, l)).to_bits();
                                assert_eq!(logs[n_labels + l].to_bits(), want, "{var}/{l}");
                                let LabelScore::LogDomain(v) = scores[l] else {
                                    panic!("MRF must produce log-domain scores");
                                };
                                assert_eq!(v.to_bits(), want, "{var}/{l}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matching_label_minimizes_cost_on_uniform_field() {
        let m = GridMrf::new(
            2,
            2,
            4,
            vec![2.0; 4],
            CostFn::TruncatedLinear { trunc: 3.0 },
            CostFn::TruncatedLinear { trunc: 3.0 },
            1.0,
            1.0,
        );
        let costs: Vec<f64> = (0..4).map(|l| m.total_cost(0, l)).collect();
        let argmin = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmin, 2);
    }

    #[test]
    fn energy_decreases_when_fixing_an_outlier() {
        let mut m = GridMrf::new(
            3,
            3,
            4,
            vec![1.0; 9],
            CostFn::TruncatedLinear { trunc: 3.0 },
            CostFn::TruncatedLinear { trunc: 3.0 },
            1.0,
            1.0,
        );
        let e_clean = m.energy();
        m.update(4, 3); // plant an outlier at the center
        let e_dirty = m.energy();
        assert!(e_dirty > e_clean);
        m.update(4, 1);
        assert_eq!(m.energy(), e_clean);
    }

    #[test]
    fn energy_counts_each_edge_once() {
        // 1x2 grid with distinct labels: exactly one pairwise term.
        let mut m = GridMrf::new(
            2,
            1,
            2,
            vec![0.0, 0.0],
            CostFn::Potts { penalty: 0.0 },
            CostFn::Potts { penalty: 1.0 },
            1.0,
            1.0,
        );
        m.set_labels(vec![0, 1]);
        assert_eq!(m.energy(), 1.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn set_labels_validates_range() {
        small_mrf().set_labels(vec![9; 9]);
    }

    #[test]
    fn eight_connectivity_adds_diagonals() {
        let m = small_mrf().with_connectivity(Connectivity::Eight);
        let mut n4: Vec<usize> = m.neighbours(4).collect();
        n4.sort_unstable();
        assert_eq!(n4, vec![0, 1, 2, 3, 5, 6, 7, 8], "center touches all 8");
        let mut n0: Vec<usize> = m.neighbours(0).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3, 4], "corner gets one diagonal");
    }

    #[test]
    fn eight_connectivity_energy_counts_diagonal_edges_once() {
        // 2x2 grid, Potts penalty 1, labels all distinct: 4-conn has 4
        // edges; 8-conn adds the two diagonals.
        let build = |conn| {
            let mut m = GridMrf::new(
                2,
                2,
                4,
                vec![0.0; 4],
                CostFn::Potts { penalty: 0.0 },
                CostFn::Potts { penalty: 1.0 },
                1.0,
                1.0,
            )
            .with_connectivity(conn);
            m.set_labels(vec![0, 1, 2, 3]);
            m
        };
        assert_eq!(build(Connectivity::Four).energy(), 4.0);
        assert_eq!(build(Connectivity::Eight).energy(), 6.0);
    }

    #[test]
    fn eight_connectivity_coloring_is_valid() {
        use crate::coloring::{verify_coloring, ChromaticModel};
        let m = GridMrf::new(
            5,
            4,
            2,
            vec![0.0; 20],
            CostFn::Potts { penalty: 1.0 },
            CostFn::Potts { penalty: 1.0 },
            1.0,
            1.0,
        )
        .with_connectivity(Connectivity::Eight);
        let classes = m.color_classes();
        assert_eq!(classes.len(), 4);
        let adjacency: Vec<Vec<usize>> = (0..20).map(|i| m.neighbours(i).collect()).collect();
        assert!(verify_coloring(&adjacency, &classes));
    }

    #[test]
    fn masked_nodes_drop_data_cost() {
        let mut m = small_mrf();
        let dc_before = m.total_cost(4, 0);
        let mut mask = vec![true; 9];
        mask[4] = false;
        m.set_data_mask(mask);
        let dc_after = m.total_cost(4, 0);
        // node 4 observes 2.0, so label 0 had data cost 2.0
        assert!((dc_before - dc_after - 2.0).abs() < 1e-12);
        // energy also excludes the masked data term once the label
        // disagrees with the (masked) observation
        m.update(4, 0);
        let e = m.energy();
        let mut unmasked = small_mrf();
        unmasked.set_labels(m.labels());
        assert!(unmasked.energy() > e);
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn wrong_mask_length_panics() {
        small_mrf().set_data_mask(vec![true; 3]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_observation_length_panics() {
        let _ = GridMrf::new(
            2,
            2,
            2,
            vec![0.0; 3],
            CostFn::Potts { penalty: 1.0 },
            CostFn::Potts { penalty: 1.0 },
            1.0,
            1.0,
        );
    }
}
