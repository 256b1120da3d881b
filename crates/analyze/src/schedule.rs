//! Static pipeline schedule and hazard verification.
//!
//! Every closed-form latency in the tree — the sampler `latency_cycles`
//! formulas, [`PgTiming::cycles`], the NormTree reduction term — is a
//! claim about a schedule: that the PG/SD datapath, built from the
//! primitive latencies of [`LatencyTable`], can actually finish in that
//! many cycles with the resources the circuit instantiates. This module
//! rebuilds the dependence DAGs those formulas summarize, list-schedules
//! them under unit-capacity resources, and compares:
//!
//! - a formula **under-claiming** the computed critical path is a hard
//!   verifier error (the hardware cannot meet the advertised latency);
//! - over-claiming is a warning (the formula is pessimistic, not unsound);
//! - the pipelined sampler must sustain **II = 1**: no resource may be
//!   busy more than one cycle per sample, and list scheduling must find no
//!   structural hazard on shared comparators;
//! - the in-netlist register depth of the DAG must equal the latency of
//!   the actual pipelined sampler netlist
//!   ([`coopmc_sim::circuits::TreeSamplerCircuit::pipelined`]);
//! - the steady-state cycles-per-variable of every case-study core must
//!   stay compute-bound on the paper's SRAM roofline.
//!
//! # The schedule model
//!
//! [`DepDag`] ops carry a latency, an optional unit-capacity resource and
//! their predecessors (construction order is topological by construction).
//! ASAP scheduling ignores resources and yields the critical path; list
//! scheduling (longest-path-to-sink priority) adds resource exclusivity
//! and reports every op it had to delay as a [`Hazard`]. The minimum
//! initiation interval is the busiest resource's total occupancy per
//! sample — for the pipelined tree sampler every layer owns a dedicated
//! comparator, so II = 1; sharing one traverse comparator across layers
//! (the `--demo-broken` scenario) drives II up to the tree depth.
//!
//! The sampler formulas decompose over [`LatencyTable`] as:
//!
//! - sequential `2n+1` = `n` accumulate adds + 1 ThresholdGen multiply +
//!   `n` scan compares (a serial FSM: no stage registers);
//! - tree `2⌈log₂ n⌉+3` = `d` TreeSum layers + ThresholdGen (multiply +
//!   stage register) + `d` traverse layers + 1 output register;
//! - the pipelined tree keeps the same critical path and its *in-netlist*
//!   depth (`2d` register stages) matches the structural circuit.

use coopmc_hw::accel::case_study_table;
use coopmc_hw::batch::PgUnitConfig;
use coopmc_hw::cycles::{LatencyTable, PgTiming, SYNC_CYCLES};
use coopmc_hw::pgpipe::{self, PipeKind};
use coopmc_hw::roofline::roofline;
use coopmc_sampler::{PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};
use coopmc_sim::CircuitDescriptor;

use crate::descriptor::sampler_circuit;
use crate::netcheck::Severity;

/// Index of an op inside a [`DepDag`].
pub type OpId = usize;

/// One operation in a dependence DAG.
#[derive(Debug, Clone)]
pub struct Op {
    /// Display name (for critical-path provenance).
    pub name: String,
    /// Cycles the op occupies its resource.
    pub latency: u64,
    /// Unit-capacity resource the op executes on (`None` = dedicated,
    /// never contended).
    pub resource: Option<String>,
    /// True if the op is a registered stage of the structural netlist
    /// (counts toward the circuit's input-to-output register depth).
    pub in_netlist: bool,
    preds: Vec<OpId>,
}

/// The critical path of a DAG: its length and the op chain realizing it.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Total latency along the path.
    pub length: u64,
    /// The ops on the path, source first.
    pub ops: Vec<OpId>,
}

/// A structural hazard found by list scheduling: `op` had to start
/// `delay` cycles after its dependences were ready because `resource`
/// was occupied.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// The contended resource.
    pub resource: String,
    /// The delayed op.
    pub op: OpId,
    /// Cycles lost waiting for the resource.
    pub delay: u64,
}

/// A resource-constrained schedule.
#[derive(Debug, Clone)]
pub struct ListSchedule {
    /// Start cycle of each op.
    pub start: Vec<u64>,
    /// Completion time of the whole DAG.
    pub makespan: u64,
    /// Every op that lost cycles to resource contention.
    pub hazards: Vec<Hazard>,
}

/// A dependence DAG over latency-annotated ops.
#[derive(Debug, Default)]
pub struct DepDag {
    ops: Vec<Op>,
}

impl DepDag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an op. Predecessors must already exist, which makes the op
    /// vector topologically ordered by construction.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is not yet allocated.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        latency: u64,
        resource: Option<String>,
        in_netlist: bool,
        preds: &[OpId],
    ) -> OpId {
        let id = self.ops.len();
        for &p in preds {
            assert!(p < id, "predecessor {p} of op {id} does not exist yet");
        }
        self.ops.push(Op {
            name: name.into(),
            latency,
            resource,
            in_netlist,
            preds: preds.to_vec(),
        });
        id
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the DAG has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops, in topological order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// ASAP start times (resources ignored).
    pub fn asap(&self) -> Vec<u64> {
        let mut start = vec![0u64; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            start[i] = op
                .preds
                .iter()
                .map(|&p| start[p] + self.ops[p].latency)
                .max()
                .unwrap_or(0);
        }
        start
    }

    /// The critical (longest) path through the DAG.
    pub fn critical_path(&self) -> CriticalPath {
        assert!(!self.ops.is_empty(), "empty DAG has no critical path");
        let start = self.asap();
        let mut best: Vec<Option<OpId>> = vec![None; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            best[i] = op
                .preds
                .iter()
                .copied()
                .max_by_key(|&p| start[p] + self.ops[p].latency);
        }
        let sink = (0..self.ops.len())
            .max_by_key(|&i| start[i] + self.ops[i].latency)
            .expect("non-empty");
        let mut ops = vec![sink];
        while let Some(p) = best[*ops.last().expect("non-empty path")] {
            ops.push(p);
        }
        ops.reverse();
        CriticalPath {
            length: start[sink] + self.ops[sink].latency,
            ops,
        }
    }

    /// Render a path as provenance lines (`name (latency N) @ start`).
    pub fn describe(&self, path: &CriticalPath) -> Vec<String> {
        let start = self.asap();
        path.ops
            .iter()
            .map(|&i| {
                format!(
                    "{} (latency {}) @ cycle {}",
                    self.ops[i].name, self.ops[i].latency, start[i]
                )
            })
            .collect()
    }

    /// List-schedule under unit-capacity resources: ops become ready when
    /// all predecessors finish, ties broken by longest path to sink, and
    /// an op whose resource is busy waits — each such wait is a
    /// [`Hazard`].
    pub fn list_schedule(&self) -> ListSchedule {
        let n = self.ops.len();
        // Longest path from each op to a sink (its scheduling priority).
        let mut height = vec![0u64; n];
        for i in (0..n).rev() {
            height[i] = self.ops[i].latency;
        }
        for i in (0..n).rev() {
            for &p in &self.ops[i].preds {
                height[p] = height[p].max(self.ops[p].latency + height[i]);
            }
        }

        let mut start = vec![u64::MAX; n];
        let mut scheduled = vec![false; n];
        // Busy intervals `[start, end)` per resource name.
        let mut busy: std::collections::BTreeMap<&str, Vec<(u64, u64)>> = Default::default();
        let mut hazards = Vec::new();
        let mut makespan = 0u64;
        for _ in 0..n {
            // Highest-priority op whose predecessors are all scheduled.
            let next = (0..n)
                .filter(|&i| !scheduled[i] && self.ops[i].preds.iter().all(|&p| scheduled[p]))
                .max_by_key(|&i| height[i])
                .expect("DAG is acyclic by construction");
            let ready = self.ops[next]
                .preds
                .iter()
                .map(|&p| start[p] + self.ops[p].latency)
                .max()
                .unwrap_or(0);
            let lat = self.ops[next].latency;
            let mut t = ready;
            if let Some(res) = self.ops[next].resource.as_deref() {
                let intervals = busy.entry(res).or_default();
                // Earliest slot at or after `ready` with no overlap.
                while let Some(&(_, e)) = intervals.iter().find(|&&(s, e)| t < e && t + lat > s) {
                    t = e;
                }
                intervals.push((t, t + lat));
                if t > ready {
                    hazards.push(Hazard {
                        resource: res.to_string(),
                        op: next,
                        delay: t - ready,
                    });
                }
            }
            start[next] = t;
            scheduled[next] = true;
            makespan = makespan.max(t + lat);
        }
        ListSchedule {
            start,
            makespan,
            hazards,
        }
    }

    /// Minimum initiation interval a pipelined implementation can sustain:
    /// the busiest resource's total latency per traversal of the DAG.
    /// Resource-free ops never constrain the II.
    pub fn min_initiation_interval(&self) -> u64 {
        let mut load: std::collections::BTreeMap<&str, u64> = Default::default();
        for op in &self.ops {
            if let Some(res) = op.resource.as_deref() {
                *load.entry(res).or_default() += op.latency;
            }
        }
        load.values().copied().max().unwrap_or(0).max(1)
    }

    /// Register depth of the structural netlist along the critical path:
    /// the longest chain counting only `in_netlist` ops' latencies.
    pub fn netlist_depth(&self) -> u64 {
        let mut depth = vec![0u64; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            let own = if op.in_netlist { op.latency } else { 0 };
            depth[i] = op.preds.iter().map(|&p| depth[p]).max().unwrap_or(0) + own;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Padded tree depth for an `n`-leaf reduction (min 1, as in the sampler
/// and circuit crates).
fn tree_depth(n: usize) -> usize {
    (n.next_power_of_two().trailing_zeros() as usize).max(1)
}

/// The sequential sampler's FSM as a DAG: `n` serial accumulate adds, the
/// ThresholdGen multiply, then `n` serial scan compares — all on three
/// shared functional units.
pub fn sequential_sampler_dag(n: usize, lt: &LatencyTable) -> DepDag {
    assert!(n >= 1, "need at least one label");
    let mut d = DepDag::new();
    let mut prev: Option<OpId> = None;
    for i in 0..n {
        let preds: Vec<OpId> = prev.into_iter().collect();
        prev = Some(d.add(
            format!("acc{i}"),
            lt.add,
            Some("acc-adder".into()),
            true,
            &preds,
        ));
    }
    let mut chain = d.add(
        "threshold-mul",
        lt.threshold_mul,
        Some("threshold-mul".into()),
        false,
        &[prev.expect("n >= 1")],
    );
    for i in 0..n {
        chain = d.add(
            format!("scan{i}"),
            lt.tree_layer,
            Some("scan-comparator".into()),
            true,
            &[chain],
        );
    }
    d
}

/// The tree sampler's datapath as a DAG: `d` TreeSum adder layers,
/// ThresholdGen (multiply + stage register), `d` traverse comparator
/// layers and the output register.
///
/// With `shared_traverse_comparator` every traverse layer contends for one
/// comparator instead of a dedicated one per layer — the deliberately
/// broken structure used to demonstrate II/hazard detection.
pub fn tree_sampler_dag(n: usize, lt: &LatencyTable, shared_traverse_comparator: bool) -> DepDag {
    assert!(n >= 2, "need at least two labels");
    let depth = tree_depth(n);
    let padded = n.next_power_of_two().max(2);
    let mut d = DepDag::new();

    // TreeSum: levels[l] holds the adder ops of layer l (leaves are
    // external inputs, not ops).
    let mut levels: Vec<Vec<OpId>> = Vec::with_capacity(depth);
    let mut width = padded / 2;
    for l in 0..depth {
        let mut layer = Vec::with_capacity(width);
        for i in 0..width {
            let preds: Vec<OpId> = if l == 0 {
                vec![]
            } else {
                vec![levels[l - 1][2 * i], levels[l - 1][2 * i + 1]]
            };
            layer.push(d.add(
                format!("sum-l{l}-{i}"),
                lt.add,
                Some(format!("sum-adder-l{l}-{i}")),
                true,
                &preds,
            ));
        }
        levels.push(layer);
        width /= 2;
    }
    let root = levels[depth - 1][0];

    // ThresholdGen: total × uniform draw, registered into the traverser.
    let mul = d.add(
        "threshold-mul",
        lt.threshold_mul,
        Some("threshold-mul".into()),
        false,
        &[root],
    );
    let mut chain = d.add("threshold-reg", lt.stage_reg, None, false, &[mul]);

    // Traverse: step k consumes the layer-(depth-1-k) sums (step depth-1
    // reads the leaves, which are inputs).
    for k in 0..depth {
        let mut preds = vec![chain];
        if k + 2 <= depth {
            preds.push(levels[depth - 2 - k][0]);
        }
        let resource = if shared_traverse_comparator {
            "traverse-comparator".to_string()
        } else {
            format!("traverse-comparator-l{k}")
        };
        chain = d.add(
            format!("traverse{k}"),
            lt.tree_layer,
            Some(resource),
            true,
            &preds,
        );
    }
    d.add("label-reg", lt.stage_reg, None, false, &[chain]);
    d
}

/// The NormTree reduction as a DAG: `⌈log₂ width⌉` comparator layers (min
/// 1) plus the output register — the `norm` term of the CoopMC PG formula.
pub fn normtree_dag(width: usize, lt: &LatencyTable) -> DepDag {
    assert!(width >= 1, "need at least one lane");
    let padded = width.next_power_of_two().max(2);
    let depth = padded.trailing_zeros() as usize;
    let mut d = DepDag::new();
    let mut levels: Vec<Vec<OpId>> = Vec::with_capacity(depth);
    let mut w = padded / 2;
    for l in 0..depth {
        let mut layer = Vec::with_capacity(w);
        for i in 0..w {
            let preds: Vec<OpId> = if l == 0 {
                vec![]
            } else {
                vec![levels[l - 1][2 * i], levels[l - 1][2 * i + 1]]
            };
            layer.push(d.add(
                format!("cmp-l{l}-{i}"),
                lt.tree_layer,
                Some(format!("comparator-l{l}-{i}")),
                true,
                &preds,
            ));
        }
        levels.push(layer);
        w /= 2;
    }
    let root = levels[depth - 1][0];
    d.add("max-reg", lt.stage_reg, None, false, &[root]);
    d
}

/// The per-label fill (issue-to-writeback) chain of one PG lane.
fn pg_fill_dag(kind: PipeKind, phase: usize, factor_ops: u64, lt: &LatencyTable) -> DepDag {
    let mut d = DepDag::new();
    let mut prev: Option<OpId> = None;
    let mut chain = |d: &mut DepDag, name: String, lat: u64| {
        let preds: Vec<OpId> = prev.into_iter().collect();
        prev = Some(d.add(name, lat, None, true, &preds));
    };
    match (kind, phase) {
        (PipeKind::Baseline, _) => {
            for i in 0..factor_ops {
                chain(&mut d, format!("factor-add{i}"), lt.add);
            }
            chain(&mut d, "beta-mul".into(), lt.mul);
            chain(&mut d, "exp-approx".into(), lt.exp_approx);
        }
        (PipeKind::CoopMc, 1) => {
            for i in 0..factor_ops {
                chain(&mut d, format!("factor-add{i}"), lt.add);
            }
            chain(&mut d, "log-lut".into(), lt.lut);
        }
        (PipeKind::CoopMc, _) => {
            chain(&mut d, "dynorm-sub".into(), lt.add);
            chain(&mut d, "table-exp-lut".into(), lt.lut);
        }
    }
    d
}

/// Cycles for one PG invocation, derived from the DAG critical paths of
/// the fill chains and the NormTree plus the streaming passes (one label
/// per lane per cycle at II = 1).
pub fn pg_invocation_cycles(
    kind: PipeKind,
    pipelines: usize,
    n_labels: usize,
    factor_ops: u64,
    lt: &LatencyTable,
) -> u64 {
    assert!(pipelines > 0, "need at least one lane");
    let stream = n_labels.div_ceil(pipelines) as u64;
    match kind {
        PipeKind::Baseline => stream + pg_fill_dag(kind, 1, factor_ops, lt).critical_path().length,
        PipeKind::CoopMc => {
            let fill1 = pg_fill_dag(kind, 1, factor_ops, lt).critical_path().length;
            let norm = normtree_dag(pipelines, lt).critical_path().length;
            let fill2 = pg_fill_dag(kind, 2, factor_ops, lt).critical_path().length;
            stream + fill1 + norm + stream + fill2
        }
    }
}

/// The batched parallel-PG-unit bank as a dependence DAG: `rows` whole-
/// variable PG evaluations round-robined across `pg_units` unit-capacity
/// resources (`pg-unit-{u}`), joined by the class-barrier sync op. List
/// scheduling this DAG must reproduce
/// [`coopmc_hw::batch::PgUnitConfig::class_cycles`] exactly: each unit
/// serializes its `ceil(rows / pg_units)` passes, the barrier waits for
/// the slowest unit.
pub fn batched_pg_dag(rows: u64, pg_units: u64, per_call_cycles: u64, sync_cycles: u64) -> DepDag {
    assert!(pg_units > 0, "need at least one PG unit");
    assert!(rows > 0, "need at least one row");
    let mut d = DepDag::new();
    let mut evals = Vec::with_capacity(rows as usize);
    for r in 0..rows {
        evals.push(d.add(
            format!("pg-row{r}"),
            per_call_cycles,
            Some(format!("pg-unit-{}", r % pg_units)),
            false,
            &[],
        ));
    }
    d.add("class-barrier", sync_cycles, None, false, &evals);
    d
}

/// Derive a dependence DAG from a circuit's typed [`CircuitDescriptor`].
///
/// The hand-built `*_dag` constructors above encode what the closed-form
/// latency formulas *claim*; this builder reads the structure the netlist
/// actually has — one op per comparator/adder/ROM counted in the
/// descriptor's netlist-derived slices. The `descriptor-drift` verify
/// section cross-checks the two: a circuit that silently grows or loses a
/// component diverges here first, with the offending layer named in the
/// op list.
///
/// Supported kinds: `norm-tree`, `tree-sampler`, `pipe-tree-sampler`,
/// `pg-core`.
///
/// # Panics
///
/// Panics on a descriptor kind this builder does not know.
pub fn dag_from_descriptor(desc: &CircuitDescriptor, lt: &LatencyTable) -> DepDag {
    let mut d = DepDag::new();
    match desc.kind {
        "norm-tree" => {
            let levels = max_layer_ops(&mut d, desc, &[], lt);
            let root = *levels
                .last()
                .and_then(|l| l.first())
                .expect("norm tree descriptor has at least one comparator");
            d.add("max-reg", lt.stage_reg, None, false, &[root]);
        }
        "tree-sampler" | "pipe-tree-sampler" => tree_sampler_ops(&mut d, desc, lt),
        "pg-core" => pg_core_ops(&mut d, desc, lt),
        other => panic!("no DAG builder for descriptor kind {other:?}"),
    }
    d
}

/// Add one comparator op per comparator each `max-layer` child owns,
/// wired as a binary reduction. Layer 0 reads `base` (empty = external
/// inputs). Returns the ops per layer.
fn max_layer_ops(
    d: &mut DepDag,
    tree: &CircuitDescriptor,
    base: &[OpId],
    lt: &LatencyTable,
) -> Vec<Vec<OpId>> {
    let mut levels: Vec<Vec<OpId>> = Vec::new();
    for (l, layer) in tree.children_of_kind("max-layer").into_iter().enumerate() {
        let prev: &[OpId] = if l == 0 { base } else { &levels[l - 1] };
        let mut ops = Vec::with_capacity(layer.counts.comparators);
        for i in 0..layer.counts.comparators {
            let preds: Vec<OpId> = prev
                .get(2 * i)
                .into_iter()
                .chain(prev.get(2 * i + 1))
                .copied()
                .collect();
            ops.push(d.add(
                format!("cmp-l{l}-{i}"),
                lt.tree_layer,
                Some(format!("comparator-l{l}-{i}")),
                true,
                &preds,
            ));
        }
        levels.push(ops);
    }
    levels
}

/// Ops of a (pipelined or combinational) tree sampler descriptor: the
/// `sum` child's adder layers, ThresholdGen, the `traverse` child's
/// comparator steps (with the same sum-level cross-links as
/// [`tree_sampler_dag`]) and the output register.
fn tree_sampler_ops(d: &mut DepDag, desc: &CircuitDescriptor, lt: &LatencyTable) {
    let sum = desc
        .child("sum")
        .expect("tree sampler descriptor has a sum stage");
    let mut levels: Vec<Vec<OpId>> = Vec::new();
    for (l, level) in sum.children_of_kind("sum-layer").into_iter().enumerate() {
        let mut ops = Vec::with_capacity(level.counts.adders);
        for i in 0..level.counts.adders {
            let preds: Vec<OpId> = if l == 0 {
                vec![]
            } else {
                levels[l - 1]
                    .get(2 * i)
                    .into_iter()
                    .chain(levels[l - 1].get(2 * i + 1))
                    .copied()
                    .collect()
            };
            ops.push(d.add(
                format!("sum-l{l}-{i}"),
                lt.add,
                Some(format!("sum-adder-l{l}-{i}")),
                true,
                &preds,
            ));
        }
        levels.push(ops);
    }
    let depth = levels.len();
    let root = *levels
        .last()
        .and_then(|l| l.first())
        .expect("sum stage has at least one adder");
    let mul = d.add(
        "threshold-mul",
        lt.threshold_mul,
        Some("threshold-mul".into()),
        false,
        &[root],
    );
    let mut chain = d.add("threshold-reg", lt.stage_reg, None, false, &[mul]);
    let traverse = desc
        .child("traverse")
        .expect("tree sampler descriptor has a traverse stage");
    for (k, step) in traverse
        .children_of_kind("traverse-step")
        .into_iter()
        .enumerate()
    {
        // One serial op per comparator the step actually owns: a step that
        // silently gains one lengthens the chain and fails the cross-check.
        for c in 0..step.counts.comparators {
            let mut preds = vec![chain];
            if c == 0 && k + 2 <= depth {
                preds.push(levels[depth - 2 - k][0]);
            }
            let name = if c == 0 {
                format!("traverse{k}")
            } else {
                format!("traverse{k}+{c}")
            };
            chain = d.add(
                name,
                lt.tree_layer,
                Some(format!("traverse-comparator-l{k}")),
                true,
                &preds,
            );
        }
    }
    d.add("label-reg", lt.stage_reg, None, false, &[chain]);
}

/// Ops of a combinational PG core descriptor: per-lane factor adder
/// chains, the shared `norm` max tree over the lane scores, then the
/// broadcast subtract and TableExp ROM per lane.
fn pg_core_ops(d: &mut DepDag, desc: &CircuitDescriptor, lt: &LatencyTable) {
    let mut tails: Vec<OpId> = Vec::new();
    for (lane, chain) in desc
        .children_of_kind("factor-chain")
        .into_iter()
        .enumerate()
    {
        let mut prev: Option<OpId> = None;
        for k in 0..chain.counts.adders {
            let preds: Vec<OpId> = prev.into_iter().collect();
            prev = Some(d.add(format!("lane{lane}-add{k}"), lt.add, None, true, &preds));
        }
        // A one-factor lane has no adders; its score is an external input.
        tails.extend(prev);
    }
    let norm = desc
        .child("norm")
        .expect("pg core descriptor has a norm tree");
    let levels = max_layer_ops(d, norm, &tails, lt);
    let root = *levels
        .last()
        .and_then(|l| l.first())
        .expect("norm tree has at least one comparator");
    let exp = desc
        .child("exp")
        .expect("pg core descriptor has an exp stage");
    for i in 0..exp.counts.luts.max(exp.counts.adders) {
        let mut sub_preds = vec![root];
        sub_preds.extend(tails.get(i));
        let mut prev = root;
        if i < exp.counts.adders {
            prev = d.add(format!("shift{i}"), lt.add, None, true, &sub_preds);
        }
        if i < exp.counts.luts {
            d.add(format!("exp{i}"), lt.lut, None, true, &[prev]);
        }
    }
}

/// One finding of the schedule verifier.
#[derive(Debug, Clone)]
pub struct ScheduleFinding {
    /// Stable identifier of the violated check.
    pub check: &'static str,
    /// What was being checked (sampler/core/config name).
    pub subject: String,
    /// Errors fail the gate.
    pub severity: Severity,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
    /// The claimed value under check, when the check compares quantities.
    pub claimed: Option<u64>,
    /// The statically computed value, when the check compares quantities.
    pub computed: Option<u64>,
    /// Critical-path or schedule provenance lines.
    pub provenance: Vec<String>,
}

/// Compare a closed-form claim against a DAG-computed value. Under-claims
/// (formula promises fewer cycles than the schedule needs) are hard
/// errors; over-claims are warnings.
pub fn check_claim(
    check: &'static str,
    subject: &str,
    claimed: u64,
    computed: u64,
    provenance: Vec<String>,
) -> Option<ScheduleFinding> {
    if claimed == computed {
        return None;
    }
    let (severity, verdict) = if claimed < computed {
        (Severity::Error, "under-claims")
    } else {
        (Severity::Warning, "over-claims")
    };
    Some(ScheduleFinding {
        check,
        subject: subject.to_string(),
        severity,
        message: format!(
            "closed-form latency {verdict} the list-scheduled critical path: \
             claimed {claimed} cycles, computed {computed}"
        ),
        claimed: Some(claimed),
        computed: Some(computed),
        provenance,
    })
}

/// Verify every closed-form schedule claim in the tree against the
/// reference [`LatencyTable`]. Returns the number of checks performed and
/// the findings (empty on a clean tree).
pub fn verify_schedules(lt: &LatencyTable) -> (usize, Vec<ScheduleFinding>) {
    let mut checks = 0usize;
    let mut out: Vec<ScheduleFinding> = Vec::new();

    // Sampler latency formulas, including non-power-of-two label counts.
    for n in [2usize, 3, 6, 8, 16, 64, 65, 128, 1000] {
        let seq = sequential_sampler_dag(n, lt);
        let sched = seq.list_schedule();
        checks += 1;
        out.extend(check_claim(
            "sequential-latency",
            &format!("SequentialSampler({n})"),
            SequentialSampler::new().latency_cycles(n),
            sched.makespan,
            seq.describe(&seq.critical_path()),
        ));

        let tree = tree_sampler_dag(n, lt, false);
        let tree_sched = tree.list_schedule();
        checks += 1;
        out.extend(check_claim(
            "tree-latency",
            &format!("TreeSampler({n})"),
            TreeSampler::new().latency_cycles(n),
            tree_sched.makespan,
            tree.describe(&tree.critical_path()),
        ));
        checks += 1;
        for h in &tree_sched.hazards {
            out.push(ScheduleFinding {
                check: "structural-hazard",
                subject: format!("TreeSampler({n})"),
                severity: Severity::Error,
                message: format!(
                    "op {} lost {} cycles contending for {}",
                    tree.ops()[h.op].name,
                    h.delay,
                    h.resource
                ),
                claimed: None,
                computed: None,
                provenance: vec![],
            });
        }
        checks += 1;
        out.extend(check_claim(
            "pipe-tree-latency",
            &format!("PipeTreeSampler({n})"),
            PipeTreeSampler::new().latency_cycles(n),
            tree_sched.makespan,
            tree.describe(&tree.critical_path()),
        ));
        checks += 1;
        let ii = tree.min_initiation_interval();
        if ii != 1 {
            out.push(ScheduleFinding {
                check: "pipe-tree-ii",
                subject: format!("PipeTreeSampler({n})"),
                severity: Severity::Error,
                message: format!(
                    "pipelined sampler cannot sustain II = 1: busiest resource needs {ii} \
                     cycles per sample"
                ),
                claimed: Some(1),
                computed: Some(ii),
                provenance: vec![],
            });
        }
    }

    // The DAG's in-netlist register depth must match the structural
    // pipelined-sampler circuit exactly.
    for n in [4usize, 8, 16, 64] {
        checks += 1;
        let (subject, circuit) = sampler_circuit(n, true);
        let dag = tree_sampler_dag(n, lt, false);
        out.extend(check_claim(
            "pipe-tree-netlist-latency",
            &subject,
            circuit.latency() as u64,
            dag.netlist_depth(),
            dag.describe(&dag.critical_path()),
        ));
    }

    // PG closed forms over every pgpipe reference configuration.
    for cfg in pgpipe::reference_configs() {
        checks += 1;
        let formula = match cfg.kind {
            PipeKind::Baseline => PgTiming::Baseline {
                pipelines: cfg.pipelines,
            },
            PipeKind::CoopMc => PgTiming::CoopMc {
                pipelines: cfg.pipelines,
            },
        }
        .cycles(cfg.n_labels, cfg.factor_ops);
        let computed =
            pg_invocation_cycles(cfg.kind, cfg.pipelines, cfg.n_labels, cfg.factor_ops, lt);
        out.extend(check_claim(
            "pg-latency",
            &format!(
                "PgTiming::{:?}({} lanes, {} labels, {} factors)",
                cfg.kind, cfg.pipelines, cfg.n_labels, cfg.factor_ops
            ),
            formula,
            computed,
            vec![],
        ));
    }

    // Batched parallel-PG-unit bank: the closed form of
    // `coopmc_hw::batch::PgUnitConfig::class_cycles` must equal the
    // list-scheduled makespan of the round-robin DAG for full, ragged and
    // sub-width strides; and within one pass every lane group must issue
    // exactly one row (II = 1 row per unit per pass — the batch width the
    // engine may legally claim).
    for (units, rows) in [
        (1u64, 5u64),
        (4, 4),
        (8, 8),
        (8, 64),
        (8, 9),
        (8, 3),
        (16, 50),
    ] {
        let bank = PgUnitConfig {
            timing: PgTiming::CoopMc {
                pipelines: units as usize,
            },
            pg_units: units,
            n_labels: 8,
            factor_ops: 5,
        };
        let dag = batched_pg_dag(rows, units, bank.per_call_cycles(), SYNC_CYCLES);
        let sched = dag.list_schedule();
        checks += 1;
        out.extend(check_claim(
            "batched-pg-latency",
            &format!("PgUnitConfig({units} units, {rows} rows)"),
            bank.class_cycles(rows),
            sched.makespan,
            dag.describe(&dag.critical_path()),
        ));
        checks += 1;
        if rows <= units {
            // A stride no wider than the bank must schedule hazard-free
            // with each unit busy for exactly one pass.
            let passes = dag.min_initiation_interval() / bank.per_call_cycles();
            if passes != 1 || !sched.hazards.is_empty() {
                out.push(ScheduleFinding {
                    check: "batched-pg-ii",
                    subject: format!("PgUnitConfig({units} units, {rows} rows)"),
                    severity: Severity::Error,
                    message: format!(
                        "lane groups cannot sustain II = 1 row per pass: busiest unit \
                         needs {passes} passes with {} hazards",
                        sched.hazards.len()
                    ),
                    claimed: Some(1),
                    computed: Some(passes),
                    provenance: vec![],
                });
            }
        }
    }

    // Roofline: every case-study core must stay compute-bound — its
    // verified cycles-per-variable must not demand more SRAM bandwidth
    // than the paper's interface provides.
    for (report, _, _, _) in case_study_table() {
        checks += 1;
        let rl = roofline(report.cycles_per_variable);
        if !rl.compute_bound {
            out.push(ScheduleFinding {
                check: "roofline-bandwidth",
                subject: report.config.name.to_string(),
                severity: Severity::Error,
                message: format!(
                    "{} cycles/variable needs {:.1} bits/cycle, above the {:.1} bits/cycle \
                     the SRAM interface provides: the verified schedule is memory-bound",
                    rl.cycles_per_variable,
                    rl.threshold_bits_per_cycle,
                    rl.available_bits_per_cycle
                ),
                claimed: None,
                computed: None,
                provenance: vec![],
            });
        }
    }

    (checks, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt() -> LatencyTable {
        LatencyTable::reference()
    }

    #[test]
    fn the_tree_schedules_verify_clean() {
        let (checks, findings) = verify_schedules(&lt());
        assert!(checks > 40, "expected a substantive sweep, got {checks}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn sequential_dag_matches_2n_plus_1() {
        for n in [1usize, 2, 7, 64, 129] {
            let d = sequential_sampler_dag(n, &lt());
            assert_eq!(d.critical_path().length, 2 * n as u64 + 1);
            // The serial chain never loses cycles to its shared units.
            assert!(d.list_schedule().hazards.is_empty());
        }
    }

    #[test]
    fn tree_dag_matches_2d_plus_3_and_pipelines_at_ii_1() {
        for (n, depth) in [(2usize, 1u64), (8, 3), (64, 6), (65, 7), (1000, 10)] {
            let d = tree_sampler_dag(n, &lt(), false);
            assert_eq!(d.critical_path().length, 2 * depth + 3, "n = {n}");
            assert_eq!(d.min_initiation_interval(), 1);
            assert_eq!(d.netlist_depth(), 2 * depth);
        }
    }

    #[test]
    fn shared_traverse_comparator_breaks_the_ii() {
        let d = tree_sampler_dag(64, &lt(), true);
        // Six traverse layers contending for one comparator.
        assert_eq!(d.min_initiation_interval(), 6);
        // The serial traverse chain masks the contention within one
        // sample, so the latency itself is unchanged...
        assert_eq!(d.critical_path().length, 15);
        // ...which is exactly why II analysis (not hazard counting on a
        // single sample) must catch it.
        assert!(d.list_schedule().hazards.is_empty());
    }

    #[test]
    fn under_claimed_formula_is_a_hard_error() {
        let d = tree_sampler_dag(64, &lt(), false);
        let computed = d.list_schedule().makespan;
        let finding = check_claim(
            "tree-latency",
            "demo",
            computed - 1,
            computed,
            d.describe(&d.critical_path()),
        )
        .expect("under-claim must produce a finding");
        assert_eq!(finding.severity, Severity::Error);
        assert!(finding.message.contains("under-claims"));
        assert!(!finding.provenance.is_empty());
        // Over-claiming is only a warning.
        let warn = check_claim("tree-latency", "demo", computed + 1, computed, vec![]).unwrap();
        assert_eq!(warn.severity, Severity::Warning);
        // Agreement produces nothing.
        assert!(check_claim("tree-latency", "demo", computed, computed, vec![]).is_none());
    }

    #[test]
    fn list_scheduler_detects_contention_across_parallel_chains() {
        // Two independent 4-cycle multiplies on one multiplier: the second
        // must wait, and the makespan doubles over the critical path.
        let mut d = DepDag::new();
        d.add("mul0", 4, Some("mul".into()), false, &[]);
        d.add("mul1", 4, Some("mul".into()), false, &[]);
        assert_eq!(d.critical_path().length, 4);
        let s = d.list_schedule();
        assert_eq!(s.makespan, 8);
        assert_eq!(s.hazards.len(), 1);
        assert_eq!(s.hazards[0].delay, 4);
        assert_eq!(d.min_initiation_interval(), 8);
    }

    #[test]
    fn pg_invocation_matches_the_closed_forms() {
        let table = lt();
        for cfg in pgpipe::reference_configs() {
            let formula = match cfg.kind {
                PipeKind::Baseline => PgTiming::Baseline {
                    pipelines: cfg.pipelines,
                },
                PipeKind::CoopMc => PgTiming::CoopMc {
                    pipelines: cfg.pipelines,
                },
            }
            .cycles(cfg.n_labels, cfg.factor_ops);
            assert_eq!(
                pg_invocation_cycles(
                    cfg.kind,
                    cfg.pipelines,
                    cfg.n_labels,
                    cfg.factor_ops,
                    &table
                ),
                formula,
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn normtree_dag_matches_the_norm_term() {
        let table = lt();
        for lanes in [1usize, 2, 4, 8, 16] {
            let expected = (lanes.next_power_of_two().trailing_zeros() as u64).max(1) + 1;
            assert_eq!(
                normtree_dag(lanes, &table).critical_path().length,
                expected,
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn batched_pg_dag_reproduces_the_closed_form() {
        for (units, rows) in [(1u64, 7u64), (4, 4), (8, 64), (8, 9), (8, 3), (16, 50)] {
            let bank = PgUnitConfig {
                timing: PgTiming::CoopMc {
                    pipelines: units as usize,
                },
                pg_units: units,
                n_labels: 8,
                factor_ops: 5,
            };
            let dag = batched_pg_dag(rows, units, bank.per_call_cycles(), SYNC_CYCLES);
            assert_eq!(
                dag.list_schedule().makespan,
                bank.class_cycles(rows),
                "{units} units, {rows} rows"
            );
        }
    }

    #[test]
    fn over_claimed_batch_width_is_caught_as_an_under_claim() {
        // Hardware with 4 physical units cannot meet the latency an 8-unit
        // claim advertises: the 8-unit closed form under-claims the
        // 4-unit schedule, which is a hard error.
        let claimed_bank = PgUnitConfig {
            timing: PgTiming::CoopMc { pipelines: 8 },
            pg_units: 8,
            n_labels: 8,
            factor_ops: 5,
        };
        let dag = batched_pg_dag(64, 4, claimed_bank.per_call_cycles(), SYNC_CYCLES);
        let finding = check_claim(
            "batched-pg-latency",
            "overclaimed-batch-width",
            claimed_bank.class_cycles(64),
            dag.list_schedule().makespan,
            dag.describe(&dag.critical_path()),
        )
        .expect("the over-claimed width must surface");
        assert_eq!(finding.severity, Severity::Error);
        assert!(finding.message.contains("under-claims"));
    }

    #[test]
    fn descriptor_dags_agree_with_the_hand_built_claims() {
        use coopmc_sim::circuits::{NormTreeCircuit, TreeSamplerCircuit};
        let table = lt();
        for width in [2usize, 4, 16] {
            let hand = normtree_dag(width, &table);
            let derived = dag_from_descriptor(NormTreeCircuit::new(width).descriptor(), &table);
            assert_eq!(derived.len(), hand.len(), "width={width}");
            assert_eq!(
                derived.critical_path().length,
                hand.critical_path().length,
                "width={width}"
            );
            assert_eq!(derived.netlist_depth(), hand.netlist_depth());
        }
        for n in [4usize, 8, 64] {
            let hand = tree_sampler_dag(n, &table, false);
            let derived = dag_from_descriptor(TreeSamplerCircuit::new(n).descriptor(), &table);
            assert_eq!(derived.len(), hand.len(), "n={n}");
            assert_eq!(derived.critical_path().length, hand.critical_path().length);
            assert_eq!(derived.netlist_depth(), hand.netlist_depth());
            assert_eq!(derived.min_initiation_interval(), 1);
        }
        let pipe = dag_from_descriptor(TreeSamplerCircuit::pipelined(16).descriptor(), &table);
        let hand = tree_sampler_dag(16, &table, false);
        assert_eq!(pipe.critical_path().length, hand.critical_path().length);
    }

    #[test]
    fn pg_core_descriptor_dag_has_one_op_per_component() {
        use coopmc_sim::circuits::PgCoreCircuit;
        let core = PgCoreCircuit::new(4, 5, 64, 8);
        let d = dag_from_descriptor(core.descriptor(), &lt());
        let census = core.descriptor().census();
        assert_eq!(
            d.len(),
            census.adders + census.comparators + census.luts,
            "one op per adder/comparator/ROM"
        );
    }

    #[test]
    fn critical_path_provenance_names_every_stage() {
        let d = tree_sampler_dag(8, &lt(), false);
        let desc = d.describe(&d.critical_path());
        let joined = desc.join("\n");
        assert!(joined.contains("sum-l0"));
        assert!(joined.contains("threshold-mul"));
        assert!(joined.contains("traverse2"));
        assert!(joined.contains("label-reg"));
    }
}
