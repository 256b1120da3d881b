//! Latent Dirichlet Allocation with collapsed Gibbs sampling
//! (paper §II-D, Eq. 6).
//!
//! Each token is a random variable whose label is its topic. The collapsed
//! sampler maintains the Document–Topic (DT) and Vocabulary–Topic (VT) count
//! tables; resampling token `i` removes it from the counts, scores every
//! topic with
//!
//! ```text
//!   P(k) ∝ (DT[d][k] + α) · (VT[k][v] + β) / (Σ_v VT[k][v] + βV)
//! ```
//!
//! and re-adds it under the sampled topic — a multiply/divide factor
//! expression, the LogFusion showcase.

mod corpus;
pub mod sparse;

pub use corpus::{synthetic_corpus, Corpus, CorpusSpec};

use crate::{CountColumn, GibbsModel, ScoreRows};

/// A collapsed-Gibbs LDA model over a fixed corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Lda {
    n_docs: usize,
    n_vocab: usize,
    n_topics: usize,
    alpha: f64,
    beta: f64,
    /// `(doc, word)` per token.
    tokens: Vec<(u32, u32)>,
    /// Topic assignment per token.
    z: Vec<u32>,
    /// `dt[d * n_topics + k]`.
    dt: Vec<u32>,
    /// `vt[v * n_topics + k]`, word-major: a word's topic counts are one
    /// contiguous slice.
    vt: Vec<u32>,
    /// `topic_total[k] = Σ_v vt[k][v]`.
    topic_total: Vec<u32>,
    /// The count columns of a token's row: `DT + α` up to the longest
    /// document, `VT + β` up to the most frequent word, and `ΣVT + βV` up
    /// to the token count.
    columns: [CountColumn; 3],
    /// `ln_gamma(n + β) − ln_gamma(β)` for every count `n` a `vt` cell can
    /// hold: [`Lda::log_likelihood`]'s per-cell term.
    ln_gamma_vt: Vec<f64>,
}

impl Lda {
    /// Build a model over `corpus` with `n_topics` topics and symmetric
    /// Dirichlet hyper-parameters `alpha` (doc–topic) and `beta`
    /// (topic–word). All tokens start in topic 0; call
    /// [`Lda::randomize_topics`] for the usual random initialization.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty, `n_topics < 2`, or the
    /// hyper-parameters are not positive.
    pub fn new(corpus: &Corpus, n_topics: usize, alpha: f64, beta: f64) -> Self {
        assert!(!corpus.tokens.is_empty(), "corpus must contain tokens");
        assert!(n_topics >= 2, "need at least two topics");
        assert!(
            alpha > 0.0 && beta > 0.0,
            "hyper-parameters must be positive"
        );
        let mut model = Self {
            n_docs: corpus.n_docs,
            n_vocab: corpus.n_vocab,
            n_topics,
            alpha,
            beta,
            tokens: corpus.tokens.clone(),
            z: vec![0; corpus.tokens.len()],
            dt: vec![0; corpus.n_docs * n_topics],
            vt: vec![0; n_topics * corpus.n_vocab],
            topic_total: vec![0; n_topics],
            columns: [CountColumn {
                constant: 0.0,
                bound: 0,
            }; 3],
            ln_gamma_vt: Vec::new(),
        };
        for i in 0..model.tokens.len() {
            model.add_token(i);
        }
        // Every token is in topic 0, so topic 0's counts are each
        // document's length and each word's frequency: no count ever
        // exceeds them.
        let most = |counts: &[u32]| counts.iter().step_by(n_topics).copied().max();
        let column = |constant, bound: Option<u32>| CountColumn {
            constant,
            bound: bound.unwrap_or(0),
        };
        let beta_v = beta * corpus.n_vocab as f64;
        let word = column(beta, most(&model.vt));
        model.columns = [
            column(alpha, most(&model.dt)),
            word,
            column(beta_v, Some(model.topic_total[0])),
        ];
        let ln_gamma_beta = ln_gamma(beta);
        model.ln_gamma_vt = (0..=word.bound)
            .map(|n| ln_gamma(f64::from(n) + beta) - ln_gamma_beta)
            .collect();
        model
    }

    /// Assign every token a deterministic pseudo-random topic (hash of its
    /// index), the usual Gibbs initialization.
    pub fn randomize_topics(&mut self, seed: u64) {
        use coopmc_rng::{HwRng, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        for i in 0..self.tokens.len() {
            self.remove_token(i);
            self.z[i] = rng.uniform_index(self.n_topics) as u32;
            self.add_token(i);
        }
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Vocabulary size.
    pub fn n_vocab(&self) -> usize {
        self.n_vocab
    }

    /// Document–Topic count.
    pub fn dt(&self, doc: usize, topic: usize) -> u32 {
        self.dt[doc * self.n_topics + topic]
    }

    /// Vocabulary–Topic count.
    pub fn vt(&self, topic: usize, word: usize) -> u32 {
        self.vt[word * self.n_topics + topic]
    }

    /// Total tokens currently assigned to `topic`.
    pub fn topic_total(&self, topic: usize) -> u32 {
        self.topic_total[topic]
    }

    /// The `(document, word)` of token `i`.
    pub fn token(&self, i: usize) -> (usize, usize) {
        let (d, v) = self.tokens[i];
        (d as usize, v as usize)
    }

    /// The document–topic hyper-parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The topic–word hyper-parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    fn add_token(&mut self, i: usize) {
        let (d, v) = self.tokens[i];
        let k = self.z[i] as usize;
        self.dt[d as usize * self.n_topics + k] += 1;
        self.vt[v as usize * self.n_topics + k] += 1;
        self.topic_total[k] += 1;
    }

    fn remove_token(&mut self, i: usize) {
        let (d, v) = self.tokens[i];
        let k = self.z[i] as usize;
        self.dt[d as usize * self.n_topics + k] -= 1;
        self.vt[v as usize * self.n_topics + k] -= 1;
        self.topic_total[k] -= 1;
    }

    /// Corpus log-likelihood `log P(w | z)` (Griffiths & Steyvers 2004):
    /// the standard LDA quality metric — higher is better. Each non-zero
    /// `vt` cell's term comes from a table by count, built with the model.
    pub fn log_likelihood(&self) -> f64 {
        let v = self.n_vocab as f64;
        let mut ll = self.n_topics as f64 * (ln_gamma(v * self.beta) - v * ln_gamma(self.beta));
        for k in 0..self.n_topics {
            for n in self.vt[k..].iter().step_by(self.n_topics) {
                if *n > 0 {
                    ll += self.ln_gamma_vt[*n as usize];
                }
            }
            ll -= ln_gamma(self.topic_total[k] as f64 + v * self.beta) - ln_gamma(v * self.beta);
        }
        ll
    }
}

impl GibbsModel for Lda {
    fn num_variables(&self) -> usize {
        self.tokens.len()
    }

    fn num_labels(&self, _var: usize) -> usize {
        self.n_topics
    }

    fn begin_resample(&mut self, var: usize) {
        self.remove_token(var);
    }

    /// A count row: columns `DT + α` and `VT + β` over `ΣVT + βV`, one
    /// entry per topic, copied from the token's document, word and topic
    /// totals.
    fn row_into(&self, var: usize, rows: &mut ScoreRows) {
        let (k, (d, v)) = (self.n_topics, self.tokens[var]);
        let [doc, word, total] = self.columns;
        let counts = rows.push_count_row(k, &[doc, word], &[total]);
        let (d, v) = (d as usize * k, v as usize * k);
        counts[..k].copy_from_slice(&self.dt[d..d + k]);
        counts[k..2 * k].copy_from_slice(&self.vt[v..v + k]);
        counts[2 * k..].copy_from_slice(&self.topic_total);
    }

    fn update(&mut self, var: usize, label: usize) {
        assert!(label < self.n_topics, "topic out of range");
        self.z[var] = label as u32;
        self.add_token(var);
    }

    fn label(&self, var: usize) -> usize {
        self.z[var] as usize
    }
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~1e-13 over the positive reals used here. Implemented
/// locally because the approved dependency set has no special-functions
/// crate.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps small arguments accurate.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9_f64;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        // 2 docs, 4 vocab words, 8 tokens.
        Corpus {
            n_docs: 2,
            n_vocab: 4,
            tokens: vec![
                (0, 0),
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (1, 3),
                (1, 3),
            ],
        }
    }

    #[test]
    fn counts_are_consistent_after_construction() {
        let lda = Lda::new(&tiny_corpus(), 2, 0.1, 0.01);
        // everything starts in topic 0
        assert_eq!(lda.topic_total(0), 8);
        assert_eq!(lda.topic_total(1), 0);
        assert_eq!(lda.dt(0, 0), 4);
        assert_eq!(lda.vt(0, 3), 3);
    }

    #[test]
    fn count_conservation_through_resampling() {
        let mut lda = Lda::new(&tiny_corpus(), 3, 0.1, 0.01);
        lda.randomize_topics(9);
        let total: u32 = (0..3).map(|k| lda.topic_total(k)).sum();
        assert_eq!(total, 8);
        lda.begin_resample(5);
        let total_mid: u32 = (0..3).map(|k| lda.topic_total(k)).sum();
        assert_eq!(total_mid, 7);
        lda.update(5, 2);
        let total_after: u32 = (0..3).map(|k| lda.topic_total(k)).sum();
        assert_eq!(total_after, 8);
        assert_eq!(lda.label(5), 2);
    }

    #[test]
    fn scores_match_eq_6() {
        let mut lda = Lda::new(&tiny_corpus(), 2, 0.5, 0.1);
        lda.begin_resample(0);
        let mut out = Vec::new();
        lda.scores_into(0, &mut out);
        let v = 4.0;
        // token 0: doc 0, word 0. After removal: dt(0,0)=3, vt(0,0)=1, total=7
        let expect0 = (3.0 + 0.5) * (1.0 + 0.1) / (7.0 + 0.1 * v);
        assert!((out[0].reference_value() - expect0).abs() < 1e-12);
        let expect1 = 0.5 * 0.1 / (0.1 * v);
        assert!((out[1].reference_value() - expect1).abs() < 1e-12);
        lda.update(0, 0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn log_likelihood_improves_when_topics_separate() {
        // Clustered assignment (doc0->topic0, doc1->topic1) must beat the
        // everything-in-one-topic assignment for this separable corpus.
        let corpus = tiny_corpus();
        let lumped = Lda::new(&corpus, 2, 0.1, 0.01);
        let mut split = Lda::new(&corpus, 2, 0.1, 0.01);
        for i in 4..8 {
            split.begin_resample(i);
            split.update(i, 1);
        }
        assert!(split.log_likelihood() > lumped.log_likelihood());
    }

    #[test]
    fn log_likelihood_matches_the_lanczos_sum_bit_for_bit() {
        // The per-cell terms come from a table by count; the sum, in the
        // same order, must equal evaluating ln_gamma for every cell.
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 12,
            n_vocab: 40,
            n_topics: 5,
            doc_len: 30,
            topics_per_doc: 2,
            seed: 4,
        });
        let mut lda = Lda::new(&corpus, 5, 0.3, 0.02);
        for seed in 0..3 {
            lda.randomize_topics(seed);
            let (v, k, beta) = (lda.n_vocab() as f64, lda.n_topics(), lda.beta());
            let mut want = k as f64 * (ln_gamma(v * beta) - v * ln_gamma(beta));
            for topic in 0..k {
                for word in 0..lda.n_vocab() {
                    let n = lda.vt(topic, word) as f64;
                    if n > 0.0 {
                        want += ln_gamma(n + beta) - ln_gamma(beta);
                    }
                }
                want -= ln_gamma(lda.topic_total(topic) as f64 + v * beta) - ln_gamma(v * beta);
            }
            assert_eq!(
                lda.log_likelihood().to_bits(),
                want.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_token_row_copies_its_counts() {
        let mut lda = Lda::new(&tiny_corpus(), 3, 0.5, 0.1);
        lda.randomize_topics(5);
        lda.begin_resample(6);
        let mut rows = ScoreRows::new();
        lda.row_into(6, &mut rows);
        let row = rows.count_rows().next().expect("a count row");
        let (d, v) = lda.token(6);
        let dt = (0..3).map(|k| lda.dt(d, k));
        let vt = (0..3).map(|k| lda.vt(k, v));
        let totals = (0..3).map(|k| lda.topic_total(k));
        let want: Vec<u32> = dt.chain(vt).chain(totals).collect();
        assert_eq!((row.counts, row.numerators), (&want[..], 2));
        // The longest document holds 4 tokens, the most frequent word
        // occurs 3 times, and the corpus holds 8.
        let bounds: Vec<u32> = row.columns.iter().map(|c| c.bound).collect();
        assert_eq!(bounds, [4, 3, 8]);
        lda.update(6, 1);
    }

    #[test]
    fn randomize_topics_is_deterministic_and_spreads() {
        let corpus = tiny_corpus();
        let mut a = Lda::new(&corpus, 4, 0.1, 0.01);
        let mut b = Lda::new(&corpus, 4, 0.1, 0.01);
        a.randomize_topics(3);
        b.randomize_topics(3);
        assert_eq!(a, b);
        let used = (0..4).filter(|&k| a.topic_total(k) > 0).count();
        assert!(used >= 2, "random init must use multiple topics");
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }
}
