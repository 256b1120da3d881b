//! SparseLDA bucket-decomposition sampling (Yao, Mimno & McCallum, KDD'09 —
//! the paper's reference \[29\]).
//!
//! The collapsed-Gibbs topic score factors exactly into three buckets:
//!
//! ```text
//!   P(k) ∝ (n_dk + α)(n_wk + β) / (n_k + βV)
//!        =  αβ / (n_k + βV)                    — smoothing bucket  s
//!        +  n_dk · β / (n_k + βV)              — document bucket   r
//!        +  (n_dk + α) · n_wk / (n_k + βV)     — topic-word bucket q
//! ```
//!
//! `r` is nonzero only for the topics present in the document and `q` only
//! for the topics the word has been seen under, so a draw usually touches
//! a handful of topics instead of all `K` — the software counterpart of
//! the paper's hardware SD optimization. The decomposition here is *exact*
//! (verified against the dense Eq. 6 score in the tests).

use coopmc_rng::HwRng;

use super::Lda;

/// The three-bucket decomposition of one token's topic distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketDecomposition {
    /// Total smoothing mass `Σ_k αβ/(n_k + βV)`.
    pub s_total: f64,
    /// Document bucket: `(topic, mass)` for topics with `n_dk > 0`.
    pub r: Vec<(usize, f64)>,
    /// Topic-word bucket: `(topic, mass)` for topics with `n_wk > 0`.
    pub q: Vec<(usize, f64)>,
    /// Per-topic smoothing masses (needed to finish an `s`-bucket draw).
    pub s: Vec<f64>,
}

impl BucketDecomposition {
    /// Total mass across all buckets.
    pub fn total(&self) -> f64 {
        self.s_total
            + self.r.iter().map(|&(_, m)| m).sum::<f64>()
            + self.q.iter().map(|&(_, m)| m).sum::<f64>()
    }

    /// The dense per-topic mass implied by the buckets (test oracle).
    pub fn dense(&self, n_topics: usize) -> Vec<f64> {
        let mut out = self.s.clone();
        out.resize(n_topics, 0.0);
        for &(k, m) in &self.r {
            out[k] += m;
        }
        for &(k, m) in &self.q {
            out[k] += m;
        }
        out
    }
}

/// Compute the exact bucket decomposition for `token` (which must already
/// be removed from the counts via
/// [`GibbsModel::begin_resample`](crate::GibbsModel::begin_resample)).
pub fn decompose(lda: &Lda, token: usize) -> BucketDecomposition {
    let (doc, word) = lda.token(token);
    let k_count = lda.n_topics();
    let v = lda.n_vocab() as f64;
    let (alpha, beta) = (lda.alpha(), lda.beta());
    let mut s = Vec::with_capacity(k_count);
    let mut s_total = 0.0;
    let mut r = Vec::new();
    let mut q = Vec::new();
    for k in 0..k_count {
        let denom = lda.topic_total(k) as f64 + beta * v;
        let s_k = alpha * beta / denom;
        s.push(s_k);
        s_total += s_k;
        let n_dk = lda.dt(doc, k) as f64;
        if n_dk > 0.0 {
            r.push((k, n_dk * beta / denom));
        }
        let n_wk = lda.vt(k, word) as f64;
        if n_wk > 0.0 {
            q.push((k, (n_dk + alpha) * n_wk / denom));
        }
    }
    BucketDecomposition { s_total, r, q, s }
}

/// Draw a topic for `token` by bucket sampling: check the cheap `q` and `r`
/// buckets first, falling through to the smoothing bucket — the SparseLDA
/// fast path.
///
/// The caller must have called `begin_resample(token)`; the caller commits
/// the returned topic with `update(token, k)`.
pub fn sample_token(lda: &Lda, token: usize, rng: &mut dyn HwRng) -> usize {
    let b = decompose(lda, token);
    let mut u = rng.next_f64() * b.total();
    // q bucket (usually the largest mass, checked first).
    for &(k, m) in &b.q {
        if u < m {
            return k;
        }
        u -= m;
    }
    for &(k, m) in &b.r {
        if u < m {
            return k;
        }
        u -= m;
    }
    for (k, &m) in b.s.iter().enumerate() {
        if u < m {
            return k;
        }
        u -= m;
    }
    // Floating residue: the last topic.
    lda.n_topics() - 1
}

/// One full SparseLDA sweep over every token.
pub fn sparse_sweep(lda: &mut Lda, rng: &mut dyn HwRng) {
    use crate::GibbsModel;
    for token in 0..lda.num_variables() {
        lda.begin_resample(token);
        let k = sample_token(lda, token, rng);
        lda.update(token, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::{synthetic_corpus, CorpusSpec};
    use crate::{GibbsModel, LabelScore};
    use coopmc_rng::SplitMix64;

    fn model() -> Lda {
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 10,
            n_vocab: 40,
            n_topics: 5,
            doc_len: 20,
            topics_per_doc: 2,
            seed: 6,
        });
        let mut lda = Lda::new(&corpus, 5, 0.4, 0.05);
        lda.randomize_topics(3);
        lda
    }

    #[test]
    fn buckets_sum_exactly_to_dense_scores() {
        let mut lda = model();
        for token in [0usize, 7, 53, 120, 199] {
            lda.begin_resample(token);
            let b = decompose(&lda, token);
            let dense_from_buckets = b.dense(5);
            let mut scores = Vec::new();
            lda.scores_into(token, &mut scores);
            for (k, s) in scores.iter().enumerate() {
                let want = match s {
                    LabelScore::Factors { .. } => s.reference_value(),
                    _ => unreachable!(),
                };
                assert!(
                    (dense_from_buckets[k] - want).abs() < 1e-12,
                    "token {token} topic {k}: bucket {} dense {want}",
                    dense_from_buckets[k]
                );
            }
            lda.update(token, 0);
        }
    }

    #[test]
    fn bucket_sparsity_holds() {
        let mut lda = model();
        lda.begin_resample(0);
        let b = decompose(&lda, 0);
        // r has at most as many entries as topics in the document, q at
        // most as many as topics of the word — both at most K.
        assert!(b.r.len() <= 5 && b.q.len() <= 5);
        assert!(b.s_total > 0.0);
        lda.update(0, 0);
    }

    #[test]
    fn sparse_sampler_matches_dense_distribution_statistically() {
        let mut lda = model();
        lda.begin_resample(11);
        let b = decompose(&lda, 11);
        let dense = b.dense(5);
        let total: f64 = dense.iter().sum();
        let mut rng = SplitMix64::new(12);
        let draws = 40_000;
        let mut counts = vec![0u64; 5];
        for _ in 0..draws {
            counts[sample_token(&lda, 11, &mut rng)] += 1;
        }
        let chi2: f64 = dense
            .iter()
            .zip(&counts)
            .map(|(&p, &c)| {
                let e = draws as f64 * p / total;
                (c as f64 - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 20.0, "chi2 {chi2}, counts {counts:?}");
        lda.update(11, 0);
    }

    #[test]
    fn sparse_sweeps_improve_loglik_like_dense() {
        let mut lda = model();
        let ll0 = lda.log_likelihood();
        let mut rng = SplitMix64::new(4);
        for _ in 0..20 {
            sparse_sweep(&mut lda, &mut rng);
        }
        let ll = lda.log_likelihood();
        assert!(ll > ll0, "SparseLDA must converge: {ll0} -> {ll}");
        // Count conservation after many sweeps.
        let total: u32 = (0..5).map(|k| lda.topic_total(k)).sum();
        assert_eq!(total, 200);
    }
}
