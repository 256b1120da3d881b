//! Soundness properties of the static analyzer, checked against the
//! executable model: every value the simulator ever produces must lie
//! inside the statically predicted interval, on random netlists and on the
//! real in-tree circuits; and the race detector must accept every coloring
//! an in-tree model produces while rejecting adversarial perturbations.
//!
//! Generated wire values live on a coarse dyadic grid with bounded
//! magnitude, so the `f64` arithmetic the simulator performs is exact and
//! interval containment is checked without tolerance.

use std::rc::Rc;

use coopmc_analyze::interval::Interval;
use coopmc_analyze::netcheck::analyze;
use coopmc_analyze::races::{check_chromatic, check_classes, ChromaticError};
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::{image_segmentation, Connectivity};
use coopmc_sim::circuits::{NormTreeCircuit, PgCoreCircuit};
use coopmc_sim::{LutSpec, Netlist, Wire};
use coopmc_testkit::{check, Gen};

const GRID: f64 = 64.0;

/// A random dyadic grid point in `[lo, hi]` (both grid members).
fn grid_point(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) * GRID) as i64;
    lo + g.i64_in(0, steps.max(0)) as f64 / GRID
}

/// A random dyadic interval with magnitude <= 16.
fn grid_interval(g: &mut Gen) -> Interval {
    let a = g.i64_in(-1024, 1024) as f64 / GRID;
    let b = g.i64_in(-1024, 1024) as f64 / GRID;
    Interval::new(a.min(b), a.max(b))
}

/// Build a random netlist plus the input enclosures used to analyze it.
fn random_netlist(g: &mut Gen) -> (Netlist, Vec<(Wire, Interval)>) {
    let mut n = Netlist::new();
    let n_inputs = g.usize_in(2, 5);
    let inputs: Vec<(Wire, Interval)> = (0..n_inputs)
        .map(|_| (n.input(), grid_interval(g)))
        .collect();
    let mut wires: Vec<Wire> = inputs.iter().map(|&(w, _)| w).collect();
    // Component-count cap keeps worst-case magnitudes exactly representable
    // (each Add/Sub at most doubles the reach).
    for _ in 0..g.usize_in(3, 25) {
        let a = wires[g.index(wires.len())];
        let b = wires[g.index(wires.len())];
        let w = match g.index(8) {
            0 => n.add(a, b),
            1 => n.sub(a, b),
            2 => n.max(a, b),
            3 => n.ge(a, b),
            4 => {
                let sel = n.ge(a, b);
                n.mux(sel, a, b)
            }
            5 => {
                let table = coopmc_kernels::exp::TableExp::new(64, 8);
                n.lut(
                    a,
                    LutSpec::new("table-exp", 64, 8, {
                        use coopmc_kernels::exp::ExpKernel;
                        Rc::new(move |x| table.exp(x))
                    }),
                )
            }
            6 => n.register(a),
            _ => n.constant(g.i64_in(-256, 256) as f64 / GRID),
        };
        wires.push(w);
    }
    (n, inputs)
}

#[test]
fn simulated_values_stay_inside_predicted_intervals() {
    check("analyzer_soundness_random_netlists", 96, |g| {
        let (mut netlist, enclosures) = random_netlist(g);
        let ra = analyze(&netlist, &enclosures);
        for _ in 0..12 {
            let inputs: Vec<(Wire, f64)> = enclosures
                .iter()
                .map(|&(w, iv)| (w, grid_point(g, iv.lo, iv.hi)))
                .collect();
            netlist.step(&inputs);
            for w in 0..netlist.n_wires() {
                let v = netlist.value(w);
                let iv = ra.interval(w);
                assert!(
                    iv.contains(v),
                    "wire {w} carries {v}, outside predicted {iv}\n{}",
                    ra.provenance(&netlist, w, 4).join("\n")
                );
            }
        }
    });
}

#[test]
fn pg_core_outputs_stay_inside_predicted_intervals() {
    check("analyzer_soundness_pg_core", 24, |g| {
        let lanes = [2usize, 4, 8][g.index(3)];
        let factors = g.usize_in(1, 4);
        let mut core = PgCoreCircuit::new(lanes, factors, 64, 8);
        let per_factor = Interval::new(-64.0, 0.0);
        let enclosures: Vec<(Wire, Interval)> = core
            .factor_wires()
            .iter()
            .flatten()
            .map(|&w| (w, per_factor))
            .collect();
        let ra = analyze(core.netlist(), &enclosures);
        let out_wires: Vec<Wire> = core.output_wires().to_vec();
        for _ in 0..8 {
            let factor_values: Vec<Vec<f64>> = (0..lanes)
                .map(|_| (0..factors).map(|_| grid_point(g, -64.0, 0.0)).collect())
                .collect();
            let outs = core.evaluate(&factor_values);
            for (&w, &v) in out_wires.iter().zip(&outs) {
                let iv = ra.interval(w);
                assert!(iv.contains(v), "output {v} outside {iv}");
                assert!((0.0..=1.0).contains(&v), "probabilities are in [0, 1]");
            }
        }
    });
}

#[test]
fn normtree_stream_stays_inside_predicted_intervals() {
    check("analyzer_soundness_normtree", 24, |g| {
        let width = [2usize, 4, 8, 16][g.index(4)];
        let mut tree = NormTreeCircuit::new(width);
        let env = Interval::new(-128.0, 32.0);
        let enclosures: Vec<(Wire, Interval)> =
            tree.input_wires().iter().map(|&w| (w, env)).collect();
        let ra = analyze(tree.netlist(), &enclosures);
        let out = tree.output_wire();
        for _ in 0..10 {
            let v: Vec<f64> = (0..width).map(|_| grid_point(g, env.lo, env.hi)).collect();
            let m = tree.step(&v);
            assert!(
                ra.interval(out).contains(m),
                "max {m} outside {}",
                ra.interval(out)
            );
        }
    });
}

#[test]
fn race_detector_accepts_every_in_tree_coloring() {
    check("race_detector_accepts_in_tree", 24, |g| {
        let w = g.usize_in(2, 10);
        let h = g.usize_in(2, 10);
        let seed = g.u64();
        let mut mrf = image_segmentation(w, h, seed).mrf;
        if g.bool() {
            mrf = mrf.with_connectivity(Connectivity::Eight);
        }
        let audit = check_chromatic(&mrf).expect("in-tree colorings are race-free");
        assert_eq!(audit.n_variables, w * h);
    });
}

#[test]
fn race_detector_rejects_adversarial_merges() {
    check("race_detector_rejects_merges", 24, |g| {
        let w = g.usize_in(2, 8);
        let h = g.usize_in(2, 8);
        let mrf = image_segmentation(w, h, g.u64()).mrf;
        let graph = mrf.dependency_graph();
        let mut classes = mrf.color_classes();
        // Move one variable into the other class: on a grid every variable
        // has a neighbour of the opposite color, so this must race.
        let donor = g.index(classes.len());
        let receiver = (donor + 1) % classes.len();
        let victim_pos = g.index(classes[donor].len());
        let victim = classes[donor].remove(victim_pos);
        classes[receiver].push(victim);
        let err = check_classes(&graph, &classes).unwrap_err();
        match err {
            ChromaticError::Race { var_a, var_b, .. } => {
                assert!(
                    graph[var_a].contains(&var_b),
                    "reported pair ({var_a}, {var_b}) must be a real dependency edge"
                );
                assert!(var_a == victim || var_b == victim);
            }
            other => panic!("expected a race, got {other}"),
        }
    });
}
