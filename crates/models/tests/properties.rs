//! Property-based tests for the model substrates (deterministic generator
//! harness from `coopmc-testkit`).

use coopmc_models::coloring::{greedy_coloring, verify_coloring, ChromaticModel};
use coopmc_models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc_models::mrf::{CostFn, GridMrf};
use coopmc_models::{GibbsModel, LabelScore, ScoreRows};
use coopmc_testkit::{check, Gen};

fn arb_grid(g: &mut Gen) -> GridMrf {
    let w = g.usize_in(2, 12);
    let h = g.usize_in(2, 12);
    let l = g.usize_in(2, 8);
    let observed: Vec<f64> = (0..w * h).map(|_| g.index(l) as f64).collect();
    GridMrf::new(
        w,
        h,
        l,
        observed,
        CostFn::TruncatedLinear { trunc: 3.0 },
        CostFn::TruncatedLinear { trunc: 2.0 },
        1.0,
        1.0,
    )
}

#[test]
fn mrf_neighbours_symmetric() {
    check("mrf_neighbours_symmetric", 64, |g| {
        let mrf = arb_grid(g);
        let n = mrf.num_variables();
        for i in 0..n {
            for j in mrf.neighbours(i) {
                assert!(j < n);
                assert!(mrf.neighbours(j).any(|k| k == i), "asymmetric edge {i}-{j}");
            }
        }
    });
}

#[test]
fn mrf_coloring_is_valid() {
    check("mrf_coloring_is_valid", 64, |g| {
        let mrf = arb_grid(g);
        let classes = mrf.color_classes();
        let adjacency: Vec<Vec<usize>> = (0..mrf.num_variables())
            .map(|i| mrf.neighbours(i).collect())
            .collect();
        assert!(verify_coloring(&adjacency, &classes));
        assert!(classes.len() <= 2);
    });
}

#[test]
fn mrf_energy_consistent_under_updates() {
    check("mrf_energy_consistent_under_updates", 64, |g| {
        let mut mrf = arb_grid(g);
        for _ in 0..g.usize_in(1, 20) {
            let var = g.index(mrf.num_variables());
            let label = g.index(mrf.num_labels(0));
            let before = mrf.energy();
            let old = mrf.label(var);
            mrf.update(var, label);
            let after = mrf.energy();
            // Reverting must restore the exact energy.
            mrf.update(var, old);
            assert!((mrf.energy() - before).abs() < 1e-9);
            mrf.update(var, label);
            assert!((mrf.energy() - after).abs() < 1e-9);
        }
    });
}

#[test]
fn mrf_scores_are_valid_log_domain() {
    check("mrf_scores_are_valid_log_domain", 128, |g| {
        let mrf = arb_grid(g);
        let var = g.index(mrf.num_variables());
        let mut out = Vec::new();
        mrf.scores_into(var, &mut out);
        assert_eq!(out.len(), mrf.num_labels(var));
        for s in &out {
            match s {
                LabelScore::LogDomain(v) => {
                    assert!(v.is_finite());
                    assert!(*v <= 0.0, "MRF scores are -beta*cost <= 0");
                }
                _ => panic!("MRF must emit log-domain scores"),
            }
        }
    });
}

#[test]
fn greedy_coloring_is_proper() {
    check("greedy_coloring_is_proper", 128, |g| {
        let n = 20;
        let mut adjacency = vec![std::collections::BTreeSet::new(); n];
        for _ in 0..g.usize_in(0, 60) {
            let a = g.index(n);
            let b = g.index(n);
            if a != b {
                adjacency[a].insert(b);
                adjacency[b].insert(a);
            }
        }
        let adjacency: Vec<Vec<usize>> = adjacency
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        let classes = greedy_coloring(&adjacency).expect("indices in range");
        assert!(verify_coloring(&adjacency, &classes));
        let max_degree = adjacency.iter().map(|a| a.len()).max().unwrap_or(0);
        assert!(classes.len() <= max_degree + 1);
    });
}

#[test]
fn lda_counts_conserved() {
    check("lda_counts_conserved", 32, |g| {
        let seed = g.u64();
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 5,
            n_vocab: 20,
            n_topics: 3,
            doc_len: 10,
            topics_per_doc: 2,
            seed,
        });
        let mut lda = Lda::new(&corpus, 3, 0.5, 0.1);
        lda.randomize_topics(seed ^ 1);
        let n_tokens = corpus.tokens.len() as u32;
        for _ in 0..g.usize_in(1, 40) {
            let tok = g.index(lda.num_variables());
            let topic = g.index(lda.n_topics());
            lda.begin_resample(tok);
            lda.update(tok, topic);
            let total: u32 = (0..3).map(|k| lda.topic_total(k)).sum();
            assert_eq!(total, n_tokens);
            assert_eq!(lda.label(tok), topic);
        }
        // Per-topic VT column sums must equal topic totals.
        for k in 0..3 {
            let vt_sum: u32 = (0..20).map(|v| lda.vt(k, v)).sum();
            assert_eq!(vt_sum, lda.topic_total(k));
        }
    });
}

/// Gathers recycle their buffers without letting the old contents leak: for
/// every model family, a row appended to a stride whose buffers last held
/// rows of other forms and widths, after a stale row of another variable,
/// equals the same row gathered into a fresh stride; and `scores_into`,
/// into a buffer dirtied the same way, returns exactly that row.
#[test]
fn scores_into_matches_scores() {
    check("scores_into_matches_scores", 48, |g| {
        let mrf = arb_grid(g);
        let bn = coopmc_models::bn::asia();
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 4,
            n_vocab: 16,
            n_topics: 3,
            doc_len: 8,
            topics_per_doc: 2,
            seed: g.u64(),
        });
        let mut lda = Lda::new(&corpus, 3, 0.5, 0.1);
        lda.randomize_topics(g.u64());
        let models: Vec<&dyn GibbsModel> = vec![&mrf, &bn, &lda];
        // One reused (deliberately dirty) stride and buffer across all
        // models and variables.
        let (mut stale, mut recycled) = (ScoreRows::new(), Vec::new());
        for m in models {
            for _ in 0..6 {
                let var = g.index(m.num_variables());
                let mut fresh = ScoreRows::new();
                m.row_into(var, &mut fresh);
                assert_eq!((fresh.len(), fresh.width()), (1, m.num_labels(var)));
                let other = g.index(m.num_variables());
                stale.clear();
                if m.num_labels(other) == m.num_labels(var) {
                    m.row_into(other, &mut stale);
                }
                m.row_into(var, &mut stale);
                let (mut want, mut got) = (Vec::new(), Vec::new());
                fresh.label_scores_into(0, &mut want);
                stale.label_scores_into(stale.len() - 1, &mut got);
                assert_eq!(want, got);
                m.scores_into(var, &mut recycled);
                assert_eq!(want, recycled);
            }
        }
    });
}

#[test]
fn lda_scores_are_positive_factors() {
    check("lda_scores_are_positive_factors", 64, |g| {
        let corpus = synthetic_corpus(&CorpusSpec {
            n_docs: 4,
            n_vocab: 16,
            n_topics: 4,
            doc_len: 8,
            topics_per_doc: 2,
            seed: g.u64(),
        });
        let mut lda = Lda::new(&corpus, 4, 0.5, 0.1);
        let tok = g.index(lda.num_variables());
        lda.begin_resample(tok);
        let mut out = Vec::new();
        lda.scores_into(tok, &mut out);
        lda.update(tok, 0);
        assert_eq!(out.len(), 4);
        for s in &out {
            let v = s.reference_value();
            assert!(v.is_finite() && v > 0.0, "score {v}");
        }
    });
}
