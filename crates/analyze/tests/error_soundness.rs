//! Soundness of the error-propagation and schedule verifiers against the
//! executable model, with zero tolerance:
//!
//! - the measured total-variation distance between the quantized
//!   DyNorm → TableExp pipeline and the float reference must stay under
//!   the statically derived [`ErrorBudget`] on random workloads;
//! - the wire-level error analysis must dominate the observed output
//!   perturbation of random netlists when inputs move within their
//!   declared error bounds;
//! - the cycle counts the samplers report and the pipelined sampler
//!   circuit's streaming behaviour must match the verified schedules
//!   exactly.

use std::rc::Rc;

use coopmc_analyze::errprop::{analyze_errors, propagate_datapath, LutErrorModel, LutKey};
use coopmc_analyze::interval::Interval;
use coopmc_analyze::netcheck::analyze;
use coopmc_analyze::schedule::{sequential_sampler_dag, tree_sampler_dag};
use coopmc_analyze::DatapathConfig;
use coopmc_hw::cycles::LatencyTable;
use coopmc_kernels::exp::{ExpKernel, TableExp};
use coopmc_sampler::{Sampler, SequentialSampler, TreeSampler};
use coopmc_sim::circuits::TreeSamplerCircuit;
use coopmc_sim::{LutSpec, Netlist, Wire};
use coopmc_testkit::{check, Gen};

/// Round onto the fixed-point grid of `resolution` (round-to-nearest, the
/// mode the budget assumes).
fn quantize(x: f64, resolution: f64) -> f64 {
    (x / resolution).round() * resolution
}

#[test]
fn empirical_tv_stays_under_the_static_budget() {
    check("errprop_tv_soundness", 64, |g| {
        let (size_lut, bit_lut) = [(64usize, 8u32), (256, 16), (1024, 32)][g.index(3)];
        let cfg = DatapathConfig::coopmc("soundness", size_lut, bit_lut);
        let table = TableExp::with_range(size_lut, bit_lut, cfg.lut_range);
        let n_labels = g.usize_in(4, 64);
        let factor_ops = g.usize_in(1, 5);
        let budget = propagate_datapath(&cfg, n_labels, factor_ops as u64);
        let res = cfg.acc.resolution();

        // True scores and their once-quantized fixed-point counterparts.
        // The factor range reaches past the LUT edge after the DyNorm
        // shift, so the flush-to-zero tail term is exercised too.
        let mut exact = Vec::with_capacity(n_labels);
        let mut fixed = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            let mut s = 0.0;
            let mut s_hat = 0.0;
            for _ in 0..factor_ops {
                let f = g.f64_in(-8.0, 0.0);
                s += f;
                s_hat += quantize(f, res);
            }
            exact.push(s);
            fixed.push(s_hat);
        }
        let max_exact = exact.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let max_fixed = fixed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        // Reference: float softmax. Model: DyNorm shift + TableExp.
        let y: Vec<f64> = exact.iter().map(|&s| (s - max_exact).exp()).collect();
        let y_hat: Vec<f64> = fixed.iter().map(|&s| table.exp(s - max_fixed)).collect();
        let total: f64 = y.iter().sum();
        let total_hat: f64 = y_hat.iter().sum();
        assert!(total_hat >= 1.0, "DyNorm pins the best label at unity");
        let p: Vec<f64> = y.iter().map(|v| v / total).collect();
        let p_hat: Vec<f64> = y_hat.iter().map(|v| v / total_hat).collect();

        let tv: f64 = 0.5
            * p.iter()
                .zip(&p_hat)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(
            tv <= budget.tv_bound,
            "measured TV {tv} exceeds static bound {} ({size_lut}x{bit_lut}, \
             {n_labels} labels, {factor_ops} factors)",
            budget.tv_bound
        );
        let linf = p
            .iter()
            .zip(&p_hat)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            linf <= budget.per_label_abs,
            "per-label error {linf} exceeds static bound {}",
            budget.per_label_abs
        );

        // Argmax agreement whenever float32 separates the top labels by
        // more than twice the per-label bound.
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap()
        };
        let best = argmax(&p);
        let second = p
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &v)| v)
            .fold(0.0, f64::max);
        if p[best] - second > 2.0 * budget.per_label_abs {
            assert_eq!(argmax(&p_hat), best, "argmax must agree above the margin");
        }
    });
}

const GRID: f64 = 64.0;

/// A dyadic grid point in `[lo, hi]` — exact in `f64` through add, sub,
/// max, mux and halving, so perturbation differences carry no float noise.
fn grid_point(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) * GRID) as i64;
    if steps <= 0 {
        return lo;
    }
    lo + g.i64_in(0, steps) as f64 / GRID
}

/// One step of a netlist-building recipe: operator code, operand indices
/// into the wire list so far, and a constant payload.
type RecipeOp = (usize, usize, usize, f64);

/// Draw a random netlist recipe (operator mix as in the range-soundness
/// tests, with halving LUTs whose reference semantics are the netlist's
/// own) plus input enclosures and declared per-input error bounds.
fn random_recipe(g: &mut Gen) -> (usize, Vec<RecipeOp>, Vec<Interval>, Vec<f64>) {
    let n_inputs = g.usize_in(2, 4);
    let mut enclosures = Vec::new();
    let mut declared = Vec::new();
    for _ in 0..n_inputs {
        let a = g.i64_in(-512, 512) as f64 / GRID;
        let b = g.i64_in(-512, 512) as f64 / GRID;
        enclosures.push(Interval::new(a.min(b), a.max(b)));
        declared.push(g.i64_in(0, 32) as f64 / GRID);
    }
    let n_ops = g.usize_in(3, 20);
    let mut ops = Vec::new();
    for n_wires in n_inputs..n_inputs + n_ops {
        let kind = g.index(8);
        ops.push((
            kind,
            g.index(n_wires),
            g.index(n_wires),
            g.i64_in(-256, 256) as f64 / GRID,
        ));
    }
    (n_inputs, ops, enclosures, declared)
}

/// Materialize a recipe as a netlist; calling twice yields two netlists
/// with identical structure and independent register state.
fn build_recipe(n_inputs: usize, ops: &[RecipeOp]) -> (Netlist, Vec<Wire>) {
    let mut n = Netlist::new();
    let inputs: Vec<Wire> = (0..n_inputs).map(|_| n.input()).collect();
    let mut wires = inputs.clone();
    for &(kind, ai, bi, cval) in ops {
        let a = wires[ai];
        let b = wires[bi];
        let w = match kind {
            0 => n.add(a, b),
            1 => n.sub(a, b),
            2 => n.max(a, b),
            3 => n.ge(a, b),
            4 => {
                let sel = n.ge(a, b);
                n.mux(sel, a, b)
            }
            5 => n.lut(a, LutSpec::opaque("halve", Rc::new(|x: f64| 0.5 * x))),
            6 => n.register(a),
            _ => n.constant(cval),
        };
        wires.push(w);
    }
    (n, inputs)
}

#[test]
fn wire_level_errors_dominate_observed_perturbations() {
    check("errprop_wire_soundness", 96, |g| {
        let (n_inputs, ops, enclosures, declared) = random_recipe(g);
        let (mut reference, in_wires) = build_recipe(n_inputs, &ops);
        let (mut perturbed, _) = build_recipe(n_inputs, &ops);
        let input_ivs: Vec<(Wire, Interval)> =
            in_wires.iter().copied().zip(enclosures.clone()).collect();
        let input_errs: Vec<(Wire, f64)> = in_wires.iter().copied().zip(declared.clone()).collect();
        let ra = analyze(&reference, &input_ivs);
        // One id-keyed declaration covers every "halve" ROM in the recipe.
        let lut_models = [(LutKey::Id("halve"), LutErrorModel::Lipschitz(0.5))];
        let ea = analyze_errors(&reference, &ra, &input_errs, &lut_models);

        // Reference run on x, perturbed run on x + δ with |δ| within the
        // declared bound and both values inside the enclosure.
        for _ in 0..8 {
            let mut ref_inputs = Vec::new();
            let mut pert_inputs = Vec::new();
            for ((&w, iv), &e) in in_wires.iter().zip(&enclosures).zip(&declared) {
                let x = grid_point(g, iv.lo, iv.hi);
                let d = grid_point(g, -e, e);
                let x_hat = (x + d).clamp(iv.lo, iv.hi);
                ref_inputs.push((w, x));
                pert_inputs.push((w, x_hat));
            }
            reference.step(&ref_inputs);
            perturbed.step(&pert_inputs);
            for w in 0..reference.n_wires() {
                let diff = (perturbed.value(w) - reference.value(w)).abs();
                assert!(
                    diff <= ea.error(w),
                    "wire {w} drifted by {diff}, above predicted {}\n{}",
                    ea.error(w),
                    ea.provenance(&reference, w, 4).join("\n")
                );
            }
        }
    });
}

#[test]
fn reported_sampler_cycles_match_the_verified_schedules() {
    let lt = LatencyTable::reference();
    for n in [2usize, 3, 6, 8, 16, 64, 65, 128] {
        let probs = vec![1.0; n];
        let t = 0.5 * n as f64;
        let seq = SequentialSampler::new().sample_with_threshold(&probs, t);
        assert_eq!(
            seq.cycles,
            sequential_sampler_dag(n, &lt).list_schedule().makespan,
            "sequential sampler cycle count diverges from the schedule at n={n}"
        );
        let tree = TreeSampler::new().sample_with_threshold(&probs, t);
        let dag = tree_sampler_dag(n, &lt, false);
        assert_eq!(
            tree.cycles,
            dag.list_schedule().makespan,
            "tree sampler cycle count diverges from the schedule at n={n}"
        );
        assert_eq!(tree.cycles, dag.critical_path().length);
    }
}

#[test]
fn streamed_pipe_tree_matches_the_verified_latency_at_full_rate() {
    let lt = LatencyTable::reference();
    check("pipe_tree_schedule_soundness", 32, |g| {
        // Most label counts are not powers of two, so the zero-constant
        // leaves that pad the tree are streamed too.
        let n = g.usize_in(2, 66);
        let dag = tree_sampler_dag(n, &lt, false);
        let mut circuit = TreeSamplerCircuit::pipelined(n);
        // The verified in-netlist depth is the circuit's latency, 2·⌈log₂ n⌉,
        // and the verified II is 1 — so a fresh draw every cycle must come
        // out correct every cycle, `latency` cycles later.
        let depth = n.next_power_of_two().trailing_zeros() as usize;
        assert_eq!(circuit.latency(), 2 * depth, "n={n}");
        assert_eq!(circuit.latency() as u64, dag.netlist_depth());
        assert_eq!(dag.min_initiation_interval(), 1);

        let latency = circuit.latency();
        let reference = TreeSampler::new();
        let mut expected = std::collections::VecDeque::new();
        for cycle in 0..(latency + 24) {
            let probs: Vec<f64> = (0..n).map(|_| g.f64_in(0.01, 1.0)).collect();
            let total: f64 = probs.iter().sum();
            let t = g.f64_in(0.0, 0.999) * total;
            expected.push_back(reference.sample_with_threshold(&probs, t).label);
            let label = circuit.step(&probs, t);
            if cycle >= latency {
                let want = expected.pop_front().unwrap();
                assert_eq!(
                    label, want,
                    "streamed label diverged at cycle {cycle} (n={n})"
                );
            }
        }
    });
}
