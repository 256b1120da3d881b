//! Bayesian model substrates for CoopMC: Markov random fields, Bayesian
//! networks and latent Dirichlet allocation.
//!
//! The paper evaluates its accelerator optimizations on ten workloads over
//! three model families (Table I). This crate implements all three model
//! families from scratch, each exposing its Gibbs-sampling structure through
//! the [`GibbsModel`] trait so the engine in `coopmc-core` can drive any of
//! them through any Probability Generation datapath:
//!
//! - [`mrf`] — 4-connected grid Markov random fields with pluggable
//!   data/smooth cost functions and the paper's four applications
//!   (image restoration, stereo matching, image segmentation, sound source
//!   separation).
//! - [`bn`] — discrete Bayesian networks with evidence, the three published
//!   benchmark networks (ASIA, EARTHQUAKE, SURVEY), and exact inference by
//!   variable elimination for golden references.
//! - [`lda`] — collapsed-Gibbs latent Dirichlet allocation with synthetic
//!   corpora shaped like the paper's NIPS / Enron / RNA workloads.
//! - [`workloads`] — the Table I registry mapping every paper workload to a
//!   scaled, reproducible configuration.
//! - [`metrics`] — the evaluation metrics of §II-A (normalized MSE,
//!   convergence traces).

pub mod bn;
pub mod coloring;
pub mod diagnostics;
pub mod lda;
pub mod metrics;
pub mod mrf;
pub mod workloads;

/// The per-label input handed from a model to the Probability Generation
/// step.
///
/// MRFs produce scores already in the log domain (`-β · TotalCost`, Eq. 4);
/// Bayesian networks and LDA produce products/ratios of linear-domain
/// factors (Eq. 5, Eq. 6). The PG pipeline decides how to evaluate either
/// form (directly, or fused in the log domain).
#[derive(Debug, Clone, PartialEq)]
pub enum LabelScore {
    /// The score is `log p` (natural log), e.g. a negated, scaled MRF
    /// energy.
    LogDomain(f64),
    /// The score is `Π numerators / Π denominators` of linear-domain
    /// factors.
    Factors {
        /// Numerator factors `a_i` of Eq. 11.
        numerators: Vec<f64>,
        /// Denominator factors `b_j` of Eq. 11.
        denominators: Vec<f64>,
    },
}

impl LabelScore {
    /// Exact (float) probability value of this score.
    pub fn reference_value(&self) -> f64 {
        match self {
            LabelScore::LogDomain(s) => s.exp(),
            LabelScore::Factors {
                numerators,
                denominators,
            } => {
                let num: f64 = numerators.iter().product();
                let den: f64 = denominators.iter().product();
                if den == 0.0 {
                    0.0
                } else {
                    num / den
                }
            }
        }
    }
}

/// Refill `out` with `n` factor rows, reusing each slot's vectors:
/// `fill(label, numerators, denominators)` receives them cleared.
pub(crate) fn fill_factors(
    out: &mut Vec<LabelScore>,
    n: usize,
    mut fill: impl FnMut(usize, &mut Vec<f64>, &mut Vec<f64>),
) {
    let empty = || LabelScore::Factors {
        numerators: Vec::new(),
        denominators: Vec::new(),
    };
    out.truncate(n);
    out.resize_with(n, empty);
    for (label, slot) in out.iter_mut().enumerate() {
        if let LabelScore::LogDomain(_) = slot {
            *slot = empty();
        }
        let LabelScore::Factors {
            numerators,
            denominators,
        } = slot
        else {
            unreachable!()
        };
        numerators.clear();
        denominators.clear();
        fill(label, numerators, denominators);
    }
}

/// A model that can be trained by single-site Gibbs sampling through the
/// three-step PG → SD → PU flow of the paper (§III, Fig. 1).
pub trait GibbsModel {
    /// Number of random variables in the model.
    fn num_variables(&self) -> usize;

    /// Number of labels variable `var` can take.
    fn num_labels(&self, var: usize) -> usize;

    /// True if `var` is clamped (e.g. Bayesian-network evidence) and must
    /// not be resampled.
    fn is_clamped(&self, var: usize) -> bool {
        let _ = var;
        false
    }

    /// Prepare to resample `var`: remove its current assignment from any
    /// sufficient statistics (collapsed samplers need this; default no-op).
    fn begin_resample(&mut self, var: usize) {
        let _ = var;
    }

    /// Fill `out` with one [`LabelScore`] per label of `var`, given the
    /// current state of every other variable (the PG input).
    ///
    /// `out` may hold anything a previous call left in it, from any
    /// variable or model, and the result must not depend on it. Models
    /// recycle those contents — in particular the inner
    /// numerator/denominator vectors of [`LabelScore::Factors`] entries —
    /// so a gather into the engines' long-lived buffers is allocation-free
    /// in steady state.
    fn scores_into(&self, var: usize, out: &mut Vec<LabelScore>);

    /// Append `var`'s score row to `out` as flat log-domain values, one
    /// `f64` per label, and return `true` — bit-identical to the
    /// [`LabelScore::LogDomain`] row [`GibbsModel::scores_into`] gives.
    ///
    /// Models whose rows are factor rows keep the default, which writes
    /// nothing and returns `false`; the engines then gather through
    /// `scores_into`. Rows are appended, not overwritten, so an engine can
    /// gather several variables' rows into one contiguous stride.
    fn log_scores_into(&self, var: usize, out: &mut Vec<f64>) -> bool {
        let _ = (var, out);
        false
    }

    /// Commit the sampled label for `var` (the PU step).
    fn update(&mut self, var: usize, label: usize);

    /// Current label of `var`.
    fn label(&self, var: usize) -> usize;

    /// Snapshot of all labels.
    fn labels(&self) -> Vec<usize> {
        (0..self.num_variables()).map(|v| self.label(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_score_reference_values() {
        assert!((LabelScore::LogDomain(0.0).reference_value() - 1.0).abs() < 1e-15);
        let f = LabelScore::Factors {
            numerators: vec![0.5, 0.5],
            denominators: vec![0.25],
        };
        assert!((f.reference_value() - 1.0).abs() < 1e-15);
        let z = LabelScore::Factors {
            numerators: vec![1.0],
            denominators: vec![0.0],
        };
        assert_eq!(z.reference_value(), 0.0);
    }

    #[test]
    fn factor_row_models_write_no_log_rows() {
        let mut out = vec![-1.0];
        assert!(!bn::asia().log_scores_into(0, &mut out));
        let corpus = lda::Corpus {
            n_docs: 1,
            n_vocab: 2,
            tokens: vec![(0, 0), (0, 1)],
        };
        assert!(!lda::Lda::new(&corpus, 2, 0.1, 0.01).log_scores_into(0, &mut out));
        assert_eq!(out, [-1.0]);
    }
}
