//! Discrete Bayesian networks (paper §II-C).
//!
//! A [`BayesNet`] is a DAG of discrete nodes with conditional probability
//! tables. Gibbs sampling updates each non-evidence node from its Markov
//! blanket (Eq. 5): the product of its own CPT row and the CPT rows of its
//! children — a pure product of linear-domain factors, which is exactly the
//! multiply sequence LogFusion targets.

mod exact;
mod networks;

pub use exact::exact_marginal;
pub use networks::{asia, cancer, earthquake, sprinkler, survey};

use crate::{GibbsModel, ScoreRows};

/// One node of a Bayesian network.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node name (for reports).
    pub name: &'static str,
    /// Cardinality (number of labels).
    pub card: usize,
    /// Parent node indices (must precede this node).
    pub parents: Vec<usize>,
    /// CPT in row-major order: `cpt[parent_combo * card + label]`, where
    /// `parent_combo` counts parent assignments in mixed radix with the
    /// *first* parent most significant.
    pub cpt: Vec<f64>,
}

/// A discrete Bayesian network with optional evidence, sampled by Gibbs.
#[derive(Debug, Clone, PartialEq)]
pub struct BayesNet {
    nodes: Vec<Node>,
    children: Vec<Vec<usize>>,
    labels: Vec<usize>,
    evidence: Vec<Option<usize>>,
}

impl BayesNet {
    /// Build a network from nodes in topological order.
    ///
    /// # Panics
    ///
    /// Panics if a parent index does not precede its child, a CPT has the
    /// wrong size, or any CPT row does not sum to ≈1.
    pub fn new(nodes: Vec<Node>) -> Self {
        let mut children = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.card >= 2,
                "node {} needs at least two labels",
                node.name
            );
            let mut combos = 1usize;
            for &p in &node.parents {
                assert!(
                    p < i,
                    "parents must precede node {} (topological order)",
                    node.name
                );
                combos *= nodes[p].card;
                children[p].push(i);
            }
            assert_eq!(
                node.cpt.len(),
                combos * node.card,
                "CPT size mismatch for node {}",
                node.name
            );
            for row in node.cpt.chunks(node.card) {
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "CPT row of {} sums to {sum}, expected 1",
                    node.name
                );
                assert!(
                    row.iter().all(|&p| (0.0..=1.0).contains(&p)),
                    "invalid probability"
                );
            }
        }
        let labels = vec![0; nodes.len()];
        let evidence = vec![None; nodes.len()];
        Self {
            nodes,
            children,
            labels,
            evidence,
        }
    }

    /// The nodes, in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Find a node index by name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Clamp `var` to `label` as observed evidence.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn set_evidence(&mut self, var: usize, label: usize) {
        assert!(label < self.nodes[var].card, "evidence label out of range");
        self.evidence[var] = Some(label);
        self.labels[var] = label;
    }

    /// Current evidence assignment.
    pub fn evidence(&self) -> &[Option<usize>] {
        &self.evidence
    }

    /// CPT row index for node `var` under the current assignment, with
    /// `var`'s own label overridden to `label_override` when `var ==
    /// override_var`.
    fn parent_combo(&self, var: usize, override_var: usize, label_override: usize) -> usize {
        let mut idx = 0usize;
        for &p in &self.nodes[var].parents {
            let lp = if p == override_var {
                label_override
            } else {
                self.labels[p]
            };
            idx = idx * self.nodes[p].card + lp;
        }
        idx
    }

    /// `P(var = label | parents(var))` under the current assignment.
    pub fn local_prob(&self, var: usize, label: usize) -> f64 {
        let combo = self.parent_combo(var, usize::MAX, 0);
        self.nodes[var].cpt[combo * self.nodes[var].card + label]
    }

    /// `P(child = its current label | parents(child))` with `var`
    /// hypothetically set to `label`.
    pub fn child_prob_given(&self, child: usize, var: usize, label: usize) -> f64 {
        let combo = self.parent_combo(child, var, label);
        self.nodes[child].cpt[combo * self.nodes[child].card + self.labels[child]]
    }

    /// Joint probability of the current full assignment (reference tool for
    /// tests).
    pub fn joint_prob(&self) -> f64 {
        (0..self.nodes.len())
            .map(|v| self.local_prob(v, self.labels[v]))
            .product()
    }

    /// Overwrite the full assignment (evidence nodes keep their clamped
    /// values).
    ///
    /// # Panics
    ///
    /// Panics on length or range mismatch.
    pub fn set_labels(&mut self, labels: Vec<usize>) {
        assert_eq!(
            labels.len(),
            self.labels.len(),
            "label vector size mismatch"
        );
        for (v, &l) in labels.iter().enumerate() {
            assert!(l < self.nodes[v].card, "label out of range for node {v}");
            if self.evidence[v].is_none() {
                self.labels[v] = l;
            }
        }
    }
}

impl crate::coloring::ChromaticModel for BayesNet {
    /// Color the *moral graph* (parents married, edges undirected): a
    /// variable's conditional distribution depends exactly on its Markov
    /// blanket, so any proper coloring of the moral graph yields
    /// conditionally independent classes.
    fn color_classes(&self) -> Vec<Vec<usize>> {
        crate::coloring::greedy_coloring(&self.dependency_graph())
            .expect("moral-graph adjacency indices are node indices by construction")
    }

    /// The moral graph as an adjacency list.
    fn dependency_graph(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut adjacency = vec![std::collections::BTreeSet::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &p in &node.parents {
                adjacency[i].insert(p);
                adjacency[p].insert(i);
                // "marry" co-parents
                for &q in &node.parents {
                    if q != p {
                        adjacency[p].insert(q);
                    }
                }
            }
        }
        adjacency
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect()
    }
}

impl GibbsModel for BayesNet {
    fn num_variables(&self) -> usize {
        self.nodes.len()
    }

    fn num_labels(&self, var: usize) -> usize {
        self.nodes[var].card
    }

    fn is_clamped(&self, var: usize) -> bool {
        self.evidence[var].is_some()
    }

    /// Columns of the Markov-blanket product: `var`'s own CPT entries, then
    /// one column per child.
    fn row_into(&self, var: usize, rows: &mut ScoreRows) {
        let (card, children) = (self.nodes[var].card, &self.children[var]);
        let columns = rows.push_factor_row(card, 1 + children.len(), 0);
        let (local, blanket) = columns.split_at_mut(card);
        for (label, slot) in local.iter_mut().enumerate() {
            *slot = self.local_prob(var, label);
        }
        for (&child, column) in children.iter().zip(blanket.chunks_exact_mut(card)) {
            for (label, slot) in column.iter_mut().enumerate() {
                *slot = self.child_prob_given(child, var, label);
            }
        }
    }

    fn update(&mut self, var: usize, label: usize) {
        assert!(label < self.nodes[var].card, "label out of range");
        if self.evidence[var].is_none() {
            self.labels[var] = label;
        }
    }

    fn label(&self, var: usize) -> usize {
        self.labels[var]
    }
}

/// Accumulates per-node label frequencies over Gibbs iterations to estimate
/// posterior marginals (the paper's BN evaluation procedure).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalCounter {
    counts: Vec<Vec<u64>>,
    samples: u64,
}

impl MarginalCounter {
    /// A counter shaped for `net`.
    pub fn new(net: &BayesNet) -> Self {
        Self {
            counts: net.nodes.iter().map(|n| vec![0; n.card]).collect(),
            samples: 0,
        }
    }

    /// Record the current assignment of `net`.
    pub fn record(&mut self, net: &BayesNet) {
        for (v, c) in self.counts.iter_mut().enumerate() {
            c[net.labels[v]] += 1;
        }
        self.samples += 1;
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Estimated marginal distribution of node `var`.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn marginal(&self, var: usize) -> Vec<f64> {
        assert!(self.samples > 0, "no samples recorded");
        self.counts[var]
            .iter()
            .map(|&c| c as f64 / self.samples as f64)
            .collect()
    }

    /// Mean-square error of all non-evidence marginals against exact
    /// posteriors.
    pub fn mse_against(&self, exact: &[Vec<f64>], net: &BayesNet) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (v, exact_row) in exact.iter().enumerate() {
            if net.evidence[v].is_some() {
                continue;
            }
            let est = self.marginal(v);
            for (a, b) in est.iter().zip(exact_row) {
                sum += (a - b) * (a - b);
                n += 1;
            }
        }
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny chain A -> B used across tests.
    fn chain() -> BayesNet {
        BayesNet::new(vec![
            Node {
                name: "A",
                card: 2,
                parents: vec![],
                cpt: vec![0.7, 0.3],
            },
            Node {
                name: "B",
                card: 2,
                parents: vec![0],
                cpt: vec![0.9, 0.1, 0.2, 0.8],
            },
        ])
    }

    #[test]
    fn local_and_child_probabilities() {
        let mut net = chain();
        assert_eq!(net.local_prob(0, 1), 0.3);
        net.set_labels(vec![1, 1]);
        assert_eq!(net.local_prob(1, 1), 0.8);
        // P(B=1 | A=0) = 0.1
        assert_eq!(net.child_prob_given(1, 0, 0), 0.1);
    }

    #[test]
    fn joint_probability() {
        let mut net = chain();
        net.set_labels(vec![0, 0]);
        assert!((net.joint_prob() - 0.7 * 0.9).abs() < 1e-12);
        net.set_labels(vec![1, 0]);
        assert!((net.joint_prob() - 0.3 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn scores_follow_markov_blanket() {
        let mut net = chain();
        net.set_labels(vec![0, 1]);
        let mut out = Vec::new();
        net.scores_into(0, &mut out);
        // score(A=a) = P(A=a) * P(B=1 | A=a)
        let v0 = out[0].reference_value();
        let v1 = out[1].reference_value();
        assert!((v0 - 0.7 * 0.1).abs() < 1e-12);
        assert!((v1 - 0.3 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn evidence_clamps_updates() {
        let mut net = chain();
        net.set_evidence(1, 1);
        assert!(net.is_clamped(1));
        net.update(1, 0);
        assert_eq!(net.label(1), 1, "evidence must not be overwritten");
    }

    #[test]
    fn marginal_counter_normalizes() {
        let mut net = chain();
        let mut counter = MarginalCounter::new(&net);
        net.set_labels(vec![0, 0]);
        counter.record(&net);
        net.set_labels(vec![1, 0]);
        counter.record(&net);
        assert_eq!(counter.samples(), 2);
        assert_eq!(counter.marginal(0), vec![0.5, 0.5]);
        assert_eq!(counter.marginal(1), vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_parent_reference_panics() {
        let _ = BayesNet::new(vec![Node {
            name: "X",
            card: 2,
            parents: vec![1],
            cpt: vec![0.5, 0.5, 0.5, 0.5],
        }]);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn unnormalized_cpt_panics() {
        let _ = BayesNet::new(vec![Node {
            name: "X",
            card: 2,
            parents: vec![],
            cpt: vec![0.6, 0.6],
        }]);
    }
}
