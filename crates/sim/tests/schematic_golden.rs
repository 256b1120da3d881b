//! Golden-file tests for the descriptor schematic exports, plus the
//! property that descriptor censuses tile random netlists exactly.
//!
//! The `.dot`/`.json` goldens under `tests/golden/` pin the export format:
//! a format change is a reviewable diff, not a silent drift. Regenerate
//! them with `COOPMC_BLESS=1 cargo test -p coopmc-sim --test
//! schematic_golden`.

use std::path::PathBuf;
use std::rc::Rc;

use coopmc_sim::circuits::{NormTreeCircuit, PgCoreCircuit, TreeSamplerCircuit};
use coopmc_sim::{CircuitDescriptor, DescriptorBuilder, LutSpec, Netlist};
use coopmc_testkit::{assert_golden, check, Gen};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn norm_tree_schematic_matches_golden() {
    let d = NormTreeCircuit::new(4).descriptor().clone();
    assert_golden(&golden_dir(), "norm-tree-4.dot", &d.to_dot());
    assert_golden(&golden_dir(), "norm-tree-4.json", &d.to_json());
}

#[test]
fn pg_core_schematic_matches_golden() {
    let d = PgCoreCircuit::new(2, 2, 16, 8).descriptor().clone();
    assert_golden(&golden_dir(), "pg-core-2x2-16x8.dot", &d.to_dot());
    assert_golden(&golden_dir(), "pg-core-2x2-16x8.json", &d.to_json());
}

#[test]
fn tree_sampler_schematic_matches_golden() {
    let d = TreeSamplerCircuit::new(4).descriptor().clone();
    assert_golden(&golden_dir(), "tree-sampler-4.dot", &d.to_dot());
    assert_golden(&golden_dir(), "tree-sampler-4.json", &d.to_json());
}

/// A random netlist with random (possibly nested) descriptor brackets:
/// whatever slices the builder carves out, own + children counts must
/// tile the whole netlist with nothing dropped or double-counted.
fn random_marked_netlist(g: &mut Gen) -> (Netlist, CircuitDescriptor) {
    let mut n = Netlist::new();
    let mut b = DescriptorBuilder::new(&n, "prop", "prop");
    let mut wires = vec![n.input(), n.input(), n.input()];
    let mut open = 0usize;
    for i in 0..g.usize_in(5, 40) {
        if open < 3 && g.bool() {
            b.begin(&n, format!("c{i}"), "blk");
            open += 1;
        }
        let a = wires[g.index(wires.len())];
        let c = wires[g.index(wires.len())];
        let w = match g.index(7) {
            0 => n.add(a, c),
            1 => n.sub(a, c),
            2 => n.max(a, c),
            3 => n.ge(a, c),
            4 => {
                let sel = n.ge(a, c);
                n.mux(sel, a, c)
            }
            5 => n.register(a),
            _ => n.lut(a, LutSpec::opaque("t", Rc::new(|x: f64| x))),
        };
        wires.push(w);
        if open > 0 && g.bool() {
            b.end(&n);
            open -= 1;
        }
    }
    while open > 0 {
        b.end(&n);
        open -= 1;
    }
    let d = b.finish(&n);
    (n, d)
}

#[test]
fn descriptor_census_tiles_random_netlists() {
    check("descriptor_census_tiles_random_netlists", 128, |g| {
        let (n, d) = random_marked_netlist(g);
        // The subtree census must equal the whole-netlist walk...
        assert_eq!(d.census(), n.census());
        // ...and the per-node owned counts must tile it exactly (no
        // component claimed by two nodes, none orphaned).
        let tiled: usize = d
            .flatten()
            .iter()
            .map(|(_, node)| node.counts.total())
            .sum();
        assert_eq!(tiled, n.census().total());
    });
}
