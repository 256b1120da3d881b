//! Trained-model inference for LDA (paper §II-D: "Once trained, these
//! tables may be used to infer the distribution of topics for new
//! documents").
//!
//! [`TopicModel`] freezes the Vocabulary–Topic statistics of a trained
//! [`Lda`](super::Lda) into per-topic word distributions; new documents are
//! folded in by Gibbs sampling against the frozen topics, and model fit is
//! summarized by held-out perplexity.

use coopmc_rng::HwRng;

use super::Lda;

/// A frozen topic model: smoothed per-topic word distributions
/// `φ[t][v] = (VT[t][v] + β) / (Σ_v VT[t][v] + βV)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicModel {
    phi: Vec<Vec<f64>>,
    alpha: f64,
    n_vocab: usize,
}

impl TopicModel {
    /// Freeze the topic–word distributions of a trained model, keeping the
    /// training `alpha` for fold-in smoothing.
    pub fn from_trained(lda: &Lda, alpha: f64) -> Self {
        let v = lda.n_vocab();
        let phi = (0..lda.n_topics())
            .map(|t| {
                let denom = lda.topic_total(t) as f64 + 0.01 * v as f64;
                (0..v)
                    .map(|w| (lda.vt(t, w) as f64 + 0.01) / denom)
                    .collect()
            })
            .collect();
        Self {
            phi,
            alpha,
            n_vocab: v,
        }
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.phi.len()
    }

    /// The word distribution of `topic`.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is out of range.
    pub fn phi(&self, topic: usize) -> &[f64] {
        &self.phi[topic]
    }

    /// The `k` highest-probability words of `topic`, best first.
    ///
    /// # Panics
    ///
    /// Panics if `topic` is out of range.
    pub fn top_words(&self, topic: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n_vocab).collect();
        idx.sort_by(|&a, &b| self.phi[topic][b].partial_cmp(&self.phi[topic][a]).unwrap());
        idx.truncate(k);
        idx
    }

    /// Infer the topic mixture `θ` of a new document by fold-in Gibbs:
    /// the document's token–topic assignments are resampled for
    /// `iterations` sweeps against the frozen `φ`, then `θ` is read off the
    /// smoothed assignment counts.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or contains an out-of-vocabulary word.
    pub fn infer_document(
        &self,
        words: &[usize],
        iterations: u64,
        rng: &mut dyn HwRng,
    ) -> Vec<f64> {
        assert!(!words.is_empty(), "document must contain words");
        assert!(
            words.iter().all(|&w| w < self.n_vocab),
            "word out of vocabulary"
        );
        let k = self.n_topics();
        let mut z: Vec<usize> = words.iter().map(|_| rng.uniform_index(k)).collect();
        let mut counts = vec![0usize; k];
        for &t in &z {
            counts[t] += 1;
        }
        let mut probs = vec![0.0; k];
        for _ in 0..iterations {
            for (i, &w) in words.iter().enumerate() {
                counts[z[i]] -= 1;
                for t in 0..k {
                    probs[t] = (counts[t] as f64 + self.alpha) * self.phi[t][w];
                }
                let total: f64 = probs.iter().sum();
                let mut threshold = rng.next_f64() * total;
                let mut new_t = k - 1;
                for (t, &p) in probs.iter().enumerate() {
                    if threshold < p {
                        new_t = t;
                        break;
                    }
                    threshold -= p;
                }
                z[i] = new_t;
                counts[new_t] += 1;
            }
        }
        let denom = words.len() as f64 + self.alpha * k as f64;
        counts
            .iter()
            .map(|&c| (c as f64 + self.alpha) / denom)
            .collect()
    }

    /// Held-out perplexity of a set of documents:
    /// `exp(− Σ_dw log Σ_t θ_d[t]·φ_t[w] / N)`. Lower is better.
    ///
    /// # Panics
    ///
    /// Panics if `docs` is empty or any document is empty.
    pub fn perplexity(&self, docs: &[Vec<usize>], iterations: u64, rng: &mut dyn HwRng) -> f64 {
        assert!(!docs.is_empty(), "need at least one document");
        let mut log_sum = 0.0;
        let mut n_words = 0usize;
        for doc in docs {
            let theta = self.infer_document(doc, iterations, rng);
            for &w in doc {
                let p: f64 = theta
                    .iter()
                    .enumerate()
                    .map(|(t, &th)| th * self.phi[t][w])
                    .sum();
                log_sum += p.max(1e-300).ln();
                n_words += 1;
            }
        }
        (-log_sum / n_words as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::{synthetic_corpus, CorpusSpec};
    use crate::GibbsModel;
    use coopmc_rng::SplitMix64;

    fn trained_model() -> (TopicModel, usize) {
        let spec = CorpusSpec {
            n_docs: 30,
            n_vocab: 60,
            n_topics: 3,
            doc_len: 50,
            topics_per_doc: 1,
            seed: 2,
        };
        let corpus = synthetic_corpus(&spec);
        let mut lda = Lda::new(&corpus, 3, 0.5, 0.01);
        lda.randomize_topics(4);
        // quick in-crate training loop with float math
        let mut rng = SplitMix64::new(6);
        let mut scores = Vec::new();
        for _ in 0..40 {
            for i in 0..lda.num_variables() {
                lda.begin_resample(i);
                lda.scores_into(i, &mut scores);
                let probs: Vec<f64> = scores.iter().map(|s| s.reference_value()).collect();
                let total: f64 = probs.iter().sum();
                let mut t = rng.next_f64() * total;
                let mut label = probs.len() - 1;
                for (k, &p) in probs.iter().enumerate() {
                    if t < p {
                        label = k;
                        break;
                    }
                    t -= p;
                }
                lda.update(i, label);
            }
        }
        (TopicModel::from_trained(&lda, 0.5), spec.n_vocab)
    }

    #[test]
    fn phi_rows_are_distributions() {
        let (model, _) = trained_model();
        for t in 0..model.n_topics() {
            let sum: f64 = model.phi(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "phi[{t}] sums to {sum}");
        }
    }

    #[test]
    fn top_words_stay_within_a_band() {
        // Planted topics concentrate on vocabulary bands of width 20; a
        // trained topic's top words should mostly share one band.
        let (model, n_vocab) = trained_model();
        let band = n_vocab / 3;
        for t in 0..model.n_topics() {
            let top = model.top_words(t, 8);
            let mut per_band = [0usize; 3];
            for w in top {
                per_band[(w / band).min(2)] += 1;
            }
            let max = *per_band.iter().max().unwrap();
            assert!(max >= 6, "topic {t} top words scattered: {per_band:?}");
        }
    }

    #[test]
    fn inferred_theta_matches_document_band() {
        let (model, n_vocab) = trained_model();
        let band = n_vocab / 3;
        let mut rng = SplitMix64::new(8);
        // A document drawn purely from the middle band.
        let doc: Vec<usize> = (0..40).map(|i| band + (i % band)).collect();
        let theta = model.infer_document(&doc, 30, &mut rng);
        assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let best = theta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(*best.1 > 0.6, "dominant topic weight {:?}", theta);
        // the dominant topic's top words should live in the same band
        let top = model.top_words(best.0, 5);
        assert!(
            top.iter().filter(|&&w| w / band == 1).count() >= 4,
            "{top:?}"
        );
    }

    #[test]
    fn perplexity_prefers_in_distribution_documents() {
        let (model, n_vocab) = trained_model();
        let band = n_vocab / 3;
        let mut rng = SplitMix64::new(10);
        let in_dist: Vec<Vec<usize>> = (0..4)
            .map(|d| (0..30).map(|i| ((d + i) % band) + band).collect())
            .collect();
        // scrambled documents: uniform over vocabulary
        let mut rng2 = SplitMix64::new(11);
        let scrambled: Vec<Vec<usize>> = (0..4)
            .map(|_| (0..30).map(|_| rng2.uniform_index(n_vocab)).collect())
            .collect();
        let p_in = model.perplexity(&in_dist, 25, &mut rng);
        let p_out = model.perplexity(&scrambled, 25, &mut rng);
        assert!(
            p_in < p_out,
            "in-distribution perplexity {p_in} must beat scrambled {p_out}"
        );
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_word_panics() {
        let (model, n_vocab) = trained_model();
        let mut rng = SplitMix64::new(1);
        let _ = model.infer_document(&[n_vocab + 5], 5, &mut rng);
    }
}
