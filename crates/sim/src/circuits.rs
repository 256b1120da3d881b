//! Structural circuits for the paper's micro-architecture diagrams.

use std::rc::Rc;

use coopmc_kernels::exp::{ExpKernel, TableExp};

use crate::descriptor::{CircuitDescriptor, DescriptorBuilder};
use crate::netlist::{LutSpec, Netlist, Wire};

/// Recursive binary mux selecting one of `candidates` by `bits`
/// (most-significant selector first). `candidates.len()` must be
/// `2^bits.len()`.
fn mux_select(n: &mut Netlist, candidates: &[Wire], bits: &[Wire]) -> Wire {
    assert_eq!(candidates.len(), 1 << bits.len(), "mux arity mismatch");
    if bits.is_empty() {
        return candidates[0];
    }
    let half = candidates.len() / 2;
    let lo = mux_select(n, &candidates[..half], &bits[1..]);
    let hi = mux_select(n, &candidates[half..], &bits[1..]);
    n.mux(bits[0], lo, hi)
}

/// Pairwise reduction tree over `leaves` (a power-of-two count): one
/// descriptor child `{prefix}{level}` of `kind` per level, carrying its
/// `pairs` count, whose nodes combine neighbours with `op` and, when
/// `registered`, latch the result in a register. Returns every level,
/// leaves first and the root level last.
fn pairwise_tree(
    n: &mut Netlist,
    b: &mut DescriptorBuilder,
    leaves: &[Wire],
    prefix: &str,
    kind: &'static str,
    registered: bool,
    op: fn(&mut Netlist, Wire, Wire) -> Wire,
) -> Vec<Vec<Wire>> {
    let mut levels = vec![leaves.to_vec()];
    while levels[levels.len() - 1].len() > 1 {
        let prev = &levels[levels.len() - 1];
        b.begin(n, format!("{prefix}{}", levels.len() - 1), kind);
        b.param("pairs", prev.len() / 2);
        let next: Vec<Wire> = prev
            .chunks(2)
            .map(|p| {
                let w = op(n, p[0], p[1]);
                delay(n, w, usize::from(registered))
            })
            .collect();
        b.end(n);
        levels.push(next);
    }
    levels
}

/// The NormTree: a comparator tree over `scores` (a power-of-two count) on
/// the innermost open descriptor node, with a register after every node
/// when `registered`. Returns the maximum and the tree depth.
fn norm_tree(
    n: &mut Netlist,
    b: &mut DescriptorBuilder,
    scores: &[Wire],
    registered: bool,
) -> (Wire, usize) {
    let levels = pairwise_tree(n, b, scores, "layer", "max-layer", registered, Netlist::max);
    let depth = levels.len() - 1;
    let max = levels[depth][0];
    b.pin_out("max", max);
    b.param("width", scores.len());
    b.param("depth", depth);
    (max, depth)
}

/// Delay `w` by `stages` registers (none: `w` itself).
fn delay(n: &mut Netlist, mut w: Wire, stages: usize) -> Wire {
    for _ in 0..stages {
        w = n.register(w);
    }
    w
}

/// The pipelined NormTree (Fig. 3): a comparator tree with a register after
/// every layer. A new input vector can enter every cycle; the maximum
/// appears `depth` cycles later.
#[derive(Debug)]
pub struct NormTreeCircuit {
    netlist: Netlist,
    inputs: Vec<Wire>,
    output: Wire,
    depth: usize,
    descriptor: CircuitDescriptor,
}

impl NormTreeCircuit {
    /// Build a tree over `width` inputs (must be a power of two ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two or is below 2.
    pub fn new(width: usize) -> Self {
        assert!(
            width >= 2 && width.is_power_of_two(),
            "width must be a power of two >= 2"
        );
        let mut n = Netlist::new();
        let mut b = DescriptorBuilder::new(&n, format!("norm-tree-{width}"), "norm-tree");
        let inputs: Vec<Wire> = (0..width).map(|_| n.input()).collect();
        for (i, &w) in inputs.iter().enumerate() {
            b.pin_in(format!("in{i}"), w);
        }
        let (output, depth) = norm_tree(&mut n, &mut b, &inputs, true);
        let descriptor = b.finish(&n);
        Self {
            netlist: n,
            inputs,
            output,
            depth,
            descriptor,
        }
    }

    /// Pipeline depth in cycles.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The underlying netlist (read-only, for static analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The leaf input wires.
    pub fn input_wires(&self) -> &[Wire] {
        &self.inputs
    }

    /// The registered root (maximum) wire.
    pub fn output_wire(&self) -> Wire {
        self.output
    }

    /// The netlist-derived structural descriptor (one `max-layer` child per
    /// pipeline stage). Its census *is* the circuit's component census.
    pub fn descriptor(&self) -> &CircuitDescriptor {
        &self.descriptor
    }

    /// Clock one cycle with a fresh input vector; returns the tree output
    /// registered this cycle (valid for the vector fed `depth` cycles ago).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong width.
    pub fn step(&mut self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.inputs.len(), "input width mismatch");
        let inputs: Vec<(Wire, f64)> = self
            .inputs
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect();
        self.netlist.step(&inputs);
        self.netlist.value(self.output)
    }
}

/// The fused PG core (Fig. 6): per-lane factor adder chains, the shared
/// NormTree, the broadcast subtract and the TableExp ROMs — combinational,
/// for output-equivalence against the behavioral `LogFusion` datapath.
#[derive(Debug)]
pub struct PgCoreCircuit {
    netlist: Netlist,
    factor_inputs: Vec<Vec<Wire>>,
    outputs: Vec<Wire>,
    descriptor: CircuitDescriptor,
}

impl PgCoreCircuit {
    /// Build a core with `lanes` parallel pipelines (power of two ≥ 2),
    /// `factors` log-domain factor inputs per lane, and the given TableExp
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a power of two ≥ 2 or `factors == 0`.
    pub fn new(lanes: usize, factors: usize, size_lut: usize, bit_lut: u32) -> Self {
        assert!(
            lanes >= 2 && lanes.is_power_of_two(),
            "lanes must be a power of two >= 2"
        );
        assert!(factors > 0, "need at least one factor per lane");
        let table = Rc::new(TableExp::new(size_lut, bit_lut));
        let mut n = Netlist::new();
        let mut b = DescriptorBuilder::new(
            &n,
            format!("pg-core-{lanes}x{factors}-{size_lut}x{bit_lut}"),
            "pg-core",
        );
        let mut factor_inputs = Vec::with_capacity(lanes);
        let mut scores = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            b.begin(&n, format!("lane{lane}"), "factor-chain");
            b.param("factors", factors);
            let ins: Vec<Wire> = (0..factors).map(|_| n.input()).collect();
            for (k, &w) in ins.iter().enumerate() {
                b.pin_in(format!("f{k}"), w);
            }
            // Adder chain accumulating the lane's log-domain factors.
            let mut acc = ins[0];
            for &w in &ins[1..] {
                acc = n.add(acc, w);
            }
            b.pin_out("score", acc);
            b.end(&n);
            scores.push(acc);
            factor_inputs.push(ins);
        }
        // NormTree (combinational here; the pipelined variant is the
        // standalone NormTreeCircuit).
        b.begin(&n, "norm", "norm-tree");
        let (max, _) = norm_tree(&mut n, &mut b, &scores, false);
        b.end(&n);
        // Broadcast subtract + TableExp per lane.
        b.begin(&n, "exp", "exp-stage");
        b.param("lanes", lanes);
        let outputs: Vec<Wire> = scores
            .iter()
            .map(|&s| {
                let shifted = n.sub(s, max);
                let t = Rc::clone(&table);
                n.lut(
                    shifted,
                    LutSpec::new("table-exp", size_lut, bit_lut, Rc::new(move |x| t.exp(x))),
                )
            })
            .collect();
        b.end(&n);
        for (i, &w) in outputs.iter().enumerate() {
            b.pin_out(format!("p{i}"), w);
        }
        b.param("lanes", lanes);
        b.param("factors", factors);
        b.param("size-lut", size_lut);
        b.param("bit-lut", bit_lut as usize);
        let descriptor = b.finish(&n);
        Self {
            netlist: n,
            factor_inputs,
            outputs,
            descriptor,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.outputs.len()
    }

    /// The underlying netlist (read-only, for static analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Per-lane factor input wires.
    pub fn factor_wires(&self) -> &[Vec<Wire>] {
        &self.factor_inputs
    }

    /// Per-lane unnormalized-probability output wires.
    pub fn output_wires(&self) -> &[Wire] {
        &self.outputs
    }

    /// The netlist-derived structural descriptor: per-lane `factor-chain`
    /// children, a nested `norm-tree`, and the `exp-stage` holding the
    /// broadcast subtractors and the named `table-exp` ROMs.
    pub fn descriptor(&self) -> &CircuitDescriptor {
        &self.descriptor
    }

    /// Evaluate one probability vector: `factors[lane][k]` are the
    /// log-domain factor values. Returns the unnormalized probabilities.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn evaluate(&mut self, factors: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(
            factors.len(),
            self.factor_inputs.len(),
            "lane count mismatch"
        );
        let mut inputs = Vec::new();
        for (lane, vals) in self.factor_inputs.iter().zip(factors) {
            assert_eq!(lane.len(), vals.len(), "factor count mismatch");
            inputs.extend(lane.iter().copied().zip(vals.iter().copied()));
        }
        self.netlist.step(&inputs);
        self.outputs
            .iter()
            .map(|&w| self.netlist.value(w))
            .collect()
    }
}

/// The TreeSampler datapath (Fig. 8): TreeSum adder tree plus the
/// TraverseTree comparator walk, built structurally with explicit muxes.
///
/// [`TreeSamplerCircuit::new`] builds it combinational: each
/// [`TreeSamplerCircuit::sample`] selects the label of its own
/// `(probs, threshold)` pair. [`TreeSamplerCircuit::pipelined`] builds the
/// PipeTreeSampler of §III-D the same way, with register stages inserted:
/// a register after every TreeSum node, shift registers carrying
/// each level's sums and the threshold to the traverse step that consumes
/// them, and a registered remainder and decision bit per step, so a new
/// pair can enter **every cycle** through [`TreeSamplerCircuit::step`].
///
/// Pipelined stage timing, counting the cycle a pair enters as stage 0:
/// the level-`L` sums are valid at stage `L`; traverse step `k`, which
/// consumes the level `depth-1-k` sums, computes at stage `depth + k`, so
/// those sums ride `2k + 1` shift-register stages and the threshold rides
/// `depth` of them; the label decoder reads every bit re-timed to stage
/// `2·depth`. Latency: `2·depth` cycles.
///
/// The threshold is an external input (in the real design it comes from
/// ThresholdGen = total × PRNG draw), which makes the circuit exactly
/// comparable against the behavioral samplers' `sample_with_threshold`.
#[derive(Debug)]
pub struct TreeSamplerCircuit {
    netlist: Netlist,
    leaves: Vec<Wire>,
    threshold: Wire,
    label_out: Wire,
    total_out: Wire,
    n_labels: usize,
    latency: usize,
    descriptor: CircuitDescriptor,
}

impl TreeSamplerCircuit {
    /// Build a combinational sampler over `n_labels` leaves (padded to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_labels < 2`.
    pub fn new(n_labels: usize) -> Self {
        Self::build(n_labels, false)
    }

    /// Build the pipelined sampler (the PipeTreeSampler) over `n_labels`
    /// leaves: one label per cycle after a latency of `2·⌈log₂ n_labels⌉`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_labels < 2`.
    pub fn pipelined(n_labels: usize) -> Self {
        Self::build(n_labels, true)
    }

    fn build(n_labels: usize, pipelined: bool) -> Self {
        assert!(n_labels >= 2, "need at least two labels");
        let padded = n_labels.next_power_of_two();
        let depth = padded.trailing_zeros() as usize;
        // Registers per pipeline stage: none when combinational.
        let r = usize::from(pipelined);
        let mut n = Netlist::new();
        let kind = if pipelined {
            "pipe-tree-sampler"
        } else {
            "tree-sampler"
        };
        let mut b = DescriptorBuilder::new(&n, format!("{kind}-{n_labels}"), kind);
        let leaves: Vec<Wire> = (0..n_labels).map(|_| n.input()).collect();
        for (i, &w) in leaves.iter().enumerate() {
            b.pin_in(format!("leaf{i}"), w);
        }
        let zero = n.constant(0.0);
        let mut padded_leaves = leaves.clone();
        padded_leaves.resize(padded, zero);

        // TreeSum: sums[level][i] = sum of the 2^level-leaf block at i<<level.
        b.begin(&n, "sum", "tree-sum");
        b.param("padded", padded);
        b.param("depth", depth);
        let sums = pairwise_tree(
            &mut n,
            &mut b,
            &padded_leaves,
            "level",
            "sum-layer",
            pipelined,
            Netlist::add,
        );
        let total = sums[depth][0];
        b.pin_out("total", total);
        b.end(&n);
        let threshold = n.input();
        b.pin_in("threshold", threshold);

        // TraverseTree: walk from the root, selecting the left-child sum
        // through a mux tree addressed by the bits chosen so far.
        b.begin(&n, "traverse", "tree-traverse");
        b.param("depth", depth);
        let mut t = delay(&mut n, threshold, r * depth);
        let mut bits: Vec<Wire> = Vec::with_capacity(depth);
        for k in 0..depth {
            let level = depth - 1 - k; // children level of the current node
            b.begin(&n, format!("step{k}"), "traverse-step");
            b.param("candidates", 1 << k);
            // Left children of the 2^k candidate nodes: even indices.
            let candidates: Vec<Wire> = (0..(1 << k))
                .map(|j| delay(&mut n, sums[level][2 * j], r * (2 * k + 1)))
                .collect();
            // Previously chosen bits, re-timed to this stage (bit i is
            // already registered once at stage depth+i+1).
            let bits_here: Vec<Wire> = bits
                .iter()
                .enumerate()
                .map(|(i, &bit)| delay(&mut n, bit, r * (k - i - 1)))
                .collect();
            let left = mux_select(&mut n, &candidates, &bits_here);
            let go_right = n.ge(t, left);
            let t_minus = n.sub(t, left);
            let t_next = n.mux(go_right, t, t_minus);
            t = delay(&mut n, t_next, r);
            let bit = delay(&mut n, go_right, r);
            b.pin_out("bit", bit);
            b.end(&n);
            bits.push(bit);
        }
        b.pin_out("remainder", t);
        b.end(&n);
        // Label = Σ bit_k · 2^(depth-1-k), every bit re-timed to the last
        // stage.
        b.begin(&n, "label", "label-decode");
        b.param("bits", depth);
        let mut label = zero;
        for (k, &bit) in bits.iter().enumerate() {
            let aligned = delay(&mut n, bit, r * (depth - 1 - k));
            let weight = n.constant((1usize << (depth - 1 - k)) as f64);
            let contrib = n.mux(aligned, zero, weight);
            label = n.add(label, contrib);
        }
        b.end(&n);
        b.pin_out("label", label);
        let latency = r * 2 * depth;
        b.param("labels", n_labels);
        b.param("padded", padded);
        b.param("depth", depth);
        if pipelined {
            b.param("latency", latency);
        }
        let descriptor = b.finish(&n);
        Self {
            netlist: n,
            leaves,
            threshold,
            label_out: label,
            total_out: total,
            n_labels,
            latency,
            descriptor,
        }
    }

    /// Pipeline latency in cycles from input to label (0 when
    /// combinational).
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// The underlying netlist (read-only, for static analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The probability leaf input wires.
    pub fn leaf_wires(&self) -> &[Wire] {
        &self.leaves
    }

    /// The external threshold input wire.
    pub fn threshold_wire(&self) -> Wire {
        self.threshold
    }

    /// The selected-label output wire.
    pub fn label_wire(&self) -> Wire {
        self.label_out
    }

    /// The total-mass (TreeSum root) wire.
    pub fn total_wire(&self) -> Wire {
        self.total_out
    }

    /// The netlist-derived structural descriptor: `tree-sum` levels,
    /// `traverse-step`s (each exporting its decision `bit` pin) and the
    /// `label-decode` stage; a pipelined circuit's registers are owned by
    /// the stages that instantiate them.
    pub fn descriptor(&self) -> &CircuitDescriptor {
        &self.descriptor
    }

    /// Evaluate the combinational circuit: select the label for `probs`
    /// under threshold `t`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is pipelined, `probs` has the wrong length or
    /// `t` is outside `[0, total)`.
    pub fn sample(&mut self, probs: &[f64], t: f64) -> usize {
        assert_eq!(self.latency, 0, "a pipelined sampler streams through step");
        let label = self.step(probs, t);
        assert!(t >= 0.0 && t < self.total(), "threshold out of range");
        label
    }

    /// Clock one cycle with a fresh `(probs, threshold)` pair; returns the
    /// label wire's current value: the label of the pair fed
    /// [`Self::latency`] steps earlier (this pair's own label when
    /// combinational).
    ///
    /// # Panics
    ///
    /// Panics if `probs` has the wrong length.
    pub fn step(&mut self, probs: &[f64], t: f64) -> usize {
        assert_eq!(probs.len(), self.n_labels, "distribution size mismatch");
        let mut inputs: Vec<(Wire, f64)> = self
            .leaves
            .iter()
            .copied()
            .zip(probs.iter().copied())
            .collect();
        inputs.push((self.threshold, t));
        self.netlist.step(&inputs);
        (self.netlist.value(self.label_out) as usize).min(self.n_labels - 1)
    }

    /// Total probability mass on the TreeSum root wire after the last
    /// step.
    pub fn total(&self) -> f64 {
        self.netlist.value(self.total_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_kernels::dynorm::dynorm_apply;
    use coopmc_sampler::{Sampler, TreeSampler};

    #[test]
    fn normtree_pipeline_streams_maxima() {
        let mut tree = NormTreeCircuit::new(4);
        assert_eq!(tree.depth(), 2);
        let vectors = [
            [1.0, 5.0, 2.0, 3.0],
            [9.0, 0.0, 1.0, 2.0],
            [4.0, 4.0, 8.0, 7.0],
            [0.0; 4],
            [0.0; 4],
        ];
        let mut outputs = Vec::new();
        for v in &vectors {
            outputs.push(tree.step(v));
        }
        // `step` returns the post-edge value: after `depth` clock edges the
        // first vector's maximum is registered at the root, so the reading
        // taken at step k corresponds to the vector fed at step k-(depth-1).
        assert_eq!(outputs[1], 5.0);
        assert_eq!(outputs[2], 9.0);
        assert_eq!(outputs[3], 8.0);
    }

    #[test]
    fn normtree_census_matches_structure() {
        let tree = NormTreeCircuit::new(8);
        let c = tree.descriptor().census();
        assert_eq!(c.comparators, 7, "n-1 max units");
        assert_eq!(c.registers, 7, "one register per tree node");
        // The descriptor-derived census is a genuine netlist walk.
        assert_eq!(c, tree.netlist().census());
        // Hierarchy: one max-layer child per pipeline stage.
        let layers = tree.descriptor().children_of_kind("max-layer");
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].counts.comparators, 4);
        assert_eq!(layers[2].counts.comparators, 1);
    }

    #[test]
    fn pg_core_matches_behavioral_dynorm_tableexp() {
        let mut core = PgCoreCircuit::new(4, 3, 64, 8);
        let factors = vec![
            vec![-1.0, -2.0, -0.5],
            vec![-0.25, -3.0, -1.5],
            vec![-2.0, -2.0, -2.0],
            vec![-0.5, -0.5, -0.5],
        ];
        let structural = core.evaluate(&factors);
        // Behavioral reference: sum, DyNorm, TableExp.
        let mut scores: Vec<f64> = factors.iter().map(|f| f.iter().sum()).collect();
        dynorm_apply(&mut scores, 4);
        let table = TableExp::new(64, 8);
        let behavioral: Vec<f64> = scores.iter().map(|&s| table.exp(s)).collect();
        assert_eq!(structural, behavioral);
        // the best lane is pinned at 1.0 by DyNorm
        assert!(structural.contains(&1.0));
    }

    #[test]
    fn pg_core_census() {
        let core = PgCoreCircuit::new(4, 3, 64, 8);
        let c = core.descriptor().census();
        // 4 lanes x 2 chain adders + 4 broadcast subtractors = 12 adders;
        // 3 max units; 4 LUTs.
        assert_eq!(c.adders, 12);
        assert_eq!(c.comparators, 3);
        assert_eq!(c.luts, 4);
    }

    #[test]
    fn tree_sampler_circuit_matches_behavioral_sampler() {
        let probs = [0.05, 0.3, 0.0, 0.15, 0.25, 0.25];
        let behavioral = TreeSampler::new();
        let mut circuit = TreeSamplerCircuit::new(probs.len());
        let total: f64 = probs.iter().sum();
        for k in 0..100 {
            let t = total * (k as f64 + 0.5) / 100.5;
            let want = behavioral.sample_with_threshold(&probs, t).label;
            let got = circuit.sample(&probs, t);
            assert_eq!(got, want, "mismatch at t={t}");
        }
    }

    #[test]
    fn tree_sampler_census_matches_area_model_counts() {
        // The structural netlist and the hw area model must agree on the
        // number of TreeSum adders for the same label count.
        let circuit = TreeSamplerCircuit::new(64);
        let census = circuit.descriptor().census();
        // TreeSum: 63 adders. Traverse: 6 subtractors (one per level).
        // Label reconstruction: 6 adders.
        assert_eq!(census.adders, 63 + 6 + 6);
        // Traverse comparators: one per level.
        assert_eq!(census.comparators, 6);
    }

    #[test]
    fn pipelined_sampler_streams_one_label_per_cycle() {
        // Feed a *different* distribution + threshold every cycle; every
        // label must match the behavioral sampler for its own pair.
        let n_labels = 8usize;
        let mut circuit = TreeSamplerCircuit::pipelined(n_labels);
        let behavioral = TreeSampler::new();
        let latency = circuit.latency();
        assert_eq!(latency, 6, "depth-3 tree: 2*depth cycles");

        let pairs: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|k| {
                let probs: Vec<f64> = (0..n_labels)
                    .map(|i| 0.5 + ((i * 7 + k * 3) % 11) as f64)
                    .collect();
                let total: f64 = probs.iter().sum();
                (probs, total * ((k * 13 % 17) as f64 + 0.5) / 17.5)
            })
            .collect();

        let mut outputs = Vec::new();
        for (probs, t) in &pairs {
            outputs.push(circuit.step(probs, *t));
        }
        // Flush with copies of the last pair.
        let (lp, lt) = pairs.last().unwrap().clone();
        for _ in 0..latency {
            outputs.push(circuit.step(&lp, lt));
        }
        for (k, (probs, t)) in pairs.iter().enumerate() {
            let want = behavioral.sample_with_threshold(probs, *t).label;
            assert_eq!(outputs[k + latency], want, "pair {k} mismatched");
        }
    }

    #[test]
    fn pipelined_sampler_has_more_registers_than_combinational() {
        let pipe = TreeSamplerCircuit::pipelined(64);
        let comb = TreeSamplerCircuit::new(64);
        let pc = pipe.descriptor().census();
        let cc = comb.descriptor().census();
        assert!(pc.registers > 0);
        assert_eq!(cc.registers, 0);
        // Same arithmetic structure: adders and comparators match.
        assert_eq!(pc.comparators, cc.comparators);
    }

    #[test]
    fn tree_sampler_total_is_exposed() {
        let mut circuit = TreeSamplerCircuit::new(3);
        let _ = circuit.sample(&[1.0, 2.0, 3.0], 0.5);
        assert_eq!(circuit.total(), 6.0);
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn threshold_at_total_panics() {
        let mut circuit = TreeSamplerCircuit::new(2);
        let _ = circuit.sample(&[0.5, 0.5], 1.0);
    }

    #[test]
    #[should_panic(expected = "streams through step")]
    fn pipelined_sampler_refuses_a_combinational_sample() {
        let mut circuit = TreeSamplerCircuit::pipelined(2);
        let _ = circuit.sample(&[0.5, 0.5], 0.25);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_normtree_width_panics() {
        let _ = NormTreeCircuit::new(6);
    }
}
