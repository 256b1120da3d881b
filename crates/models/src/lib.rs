//! Bayesian model substrates for CoopMC: Markov random fields, Bayesian
//! networks and latent Dirichlet allocation.
//!
//! The paper evaluates its accelerator optimizations on ten workloads over
//! three model families (Table I). This crate implements all three model
//! families from scratch, each exposing its Gibbs-sampling structure through
//! the [`GibbsModel`] trait so the engine in `coopmc-core` can drive any of
//! them through any Probability Generation datapath. A model gathers each
//! variable's scores as one row of a [`ScoreRows`] stride, the form every
//! datapath reads:
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
mod rows;
pub mod workloads;

use std::cell::Cell;

pub use rows::{CountColumn, CountRow, RowForm, ScoreRows};

/// One label's score as a standalone value: the boundary form of a
/// [`ScoreRows`] entry, for callers that still pass rows label by label
/// ([`GibbsModel::scores_into`] and the PG pipelines' `LabelScore` entry
/// points).
///
/// MRFs produce scores already in the log domain (`-β · TotalCost`, Eq. 4);
/// Bayesian networks and LDA produce products/ratios of linear-domain
/// factors (Eq. 5, Eq. 6).
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
            } => factor_value(numerators.iter().product(), denominators.iter().product()),
        }
    }
}

/// Exact (float) value of a factor label, `num / den`, from its numerator
/// product `num` and denominator product `den`; 0 if `den` is 0.
pub fn factor_value(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
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

    /// Append `var`'s score row to `rows`, given the current state of
    /// every other variable (the PG input): one entry per label, as a log
    /// row or a factor row (see [`ScoreRows`]).
    ///
    /// Rows are appended, so an engine can gather several variables' rows
    /// into one stride; the result must not depend on the rows already
    /// there.
    fn row_into(&self, var: usize, rows: &mut ScoreRows);

    /// Refill `out` with `var`'s row as one [`LabelScore`] per label: the
    /// [`GibbsModel::row_into`] row, converted. A warm call allocates
    /// nothing: the row is gathered into a per-thread [`ScoreRows`], and
    /// `out`'s factor vectors are reused.
    fn scores_into(&self, var: usize, out: &mut Vec<LabelScore>) {
        thread_local! {
            static ROWS: Cell<ScoreRows> = const { Cell::new(ScoreRows::new()) };
        }
        let mut rows = ROWS.take();
        rows.clear();
        self.row_into(var, &mut rows);
        rows.label_scores_into(0, out);
        ROWS.set(rows);
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
    fn factor_row_models_append_factor_rows() {
        // ASIA's node 0 has one child: a CPT column and the child's,
        // appended to a stride after a filled row.
        let mut rows = ScoreRows::new();
        rows.push_factor_row(2, 1, 0).fill(0.5);
        bn::asia().row_into(0, &mut rows);
        assert_eq!(
            (rows.len(), rows.form(), rows.logs()),
            (2, RowForm::Factors, None)
        );
        assert_eq!(rows.factor_row(0), (&[0.5, 0.5][..], &[][..]));
        let (n, d) = rows.factor_row(1);
        assert_eq!((n.len() / 2, d.len() / 2), (2, 0));
        // An LDA token appends a count row: two numerator columns and one
        // denominator column, bounded by the longest document, the most
        // frequent word and the token count, whose image is `DT + α`,
        // `VT + β` and `ΣVT + βV`. Both tokens start in topic 0.
        let corpus = lda::Corpus {
            n_docs: 1,
            n_vocab: 2,
            tokens: vec![(0, 0), (0, 1)],
        };
        let (alpha, beta) = (0.1, 0.01);
        let model = lda::Lda::new(&corpus, 2, alpha, beta);
        rows.clear();
        model.row_into(0, &mut rows);
        model.row_into(1, &mut rows);
        assert_eq!(
            (rows.len(), rows.form(), rows.logs()),
            (2, RowForm::Counts, None)
        );
        assert_eq!(rows.factor_rows().count(), 0);
        let row = rows.count_rows().next().expect("a count row");
        assert_eq!((row.numerators, row.counts), (2, &[2, 0, 1, 0, 2, 0][..]));
        let beta_v = beta * 2.0;
        let column = |constant, bound| CountColumn { constant, bound };
        assert_eq!(
            row.columns,
            [column(alpha, 2), column(beta, 1), column(beta_v, 2)]
        );
        let mut image = Vec::new();
        let (nums, dens) = rows.factor_columns(0, &mut image);
        assert_eq!(nums, [2.0 + alpha, alpha, 1.0 + beta, beta]);
        assert_eq!(dens, [2.0 + beta_v, beta_v]);
    }
}
