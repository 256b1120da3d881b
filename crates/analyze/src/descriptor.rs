//! The `descriptor-drift` verify section: one derived source of truth,
//! cross-checked four ways.
//!
//! Every structural circuit in `coopmc-sim` carries a typed
//! [`CircuitDescriptor`] whose counts are derived from its own netlist
//! (see `coopmc_sim::descriptor`). This module closes the loop by checking
//! that everything *else* derived from that descriptor stays consistent:
//!
//! 1. **census** — the descriptor subtree census must equal the whole
//!    netlist census, wire for wire;
//! 2. **schedule** — the dependence DAG derived from the descriptor
//!    ([`crate::schedule::dag_from_descriptor`]) must agree with the
//!    hand-built closed-form DAGs on critical path, register depth and op
//!    count — and for the combinational PG core, with the netlist's own
//!    combinational depth;
//! 3. **area** — the structural price of the descriptor census
//!    ([`coopmc_hw::structural`]) must reproduce the closed-form Table III
//!    anchors (TreeSum adders, DyNorm comparators, per-lane EXP ROMs);
//! 4. **lint** — every driven wire must be read or declared as a pin
//!    (dead-wire warnings), and every declared pin must bond to a real
//!    wire of the right direction.
//!
//! [`verify_descriptors`] walks every [`in_tree_configs`] point plus the
//! standalone circuit sweeps; [`broken_descriptor_demo`] runs the same
//! checks against a descriptor whose comparator count silently diverged,
//! producing findings with path- and pin-level provenance.
//! [`export_schematics`] writes the canonical circuits' graphviz/JSON
//! schematics for `coopmc verify --export-schematic`.

use std::path::{Path, PathBuf};

use coopmc_hw::area::{
    add_area, dynorm_amortized_area, pg_alu_area, sampler_area, PgAluDesign, SamplerKind,
    DYNORM_MUX_UM2,
};
use coopmc_hw::cycles::LatencyTable;
use coopmc_hw::structural::census_area;
use coopmc_sim::circuits::{NormTreeCircuit, PgCoreCircuit, TreeSamplerCircuit};
use coopmc_sim::{CircuitDescriptor, Component, Netlist, PinDir};

use crate::contracts::in_tree_configs;
use crate::netcheck::Severity;
use crate::schedule::{dag_from_descriptor, normtree_dag, tree_sampler_dag};
use crate::verify::Finding;

/// Factor accumulations per label of the reference workload (data cost +
/// four smoothness costs of a 4-connected MRF) — the PG core geometry the
/// in-tree configuration sweep instantiates.
const WORKLOAD_FACTOR_OPS: usize = 5;

/// Datapath width the area anchors are stated for.
const AREA_BITS: u32 = 32;

/// Absolute tolerance for the closed-form area comparisons (both sides are
/// exact products of the same anchors, so this only absorbs float
/// association).
const AREA_EPS: f64 = 1e-9;

fn finding(severity: Severity, check: &str, message: String, provenance: Vec<String>) -> Finding {
    Finding {
        severity,
        check: check.into(),
        message,
        provenance,
        bound: None,
        limit: None,
    }
}

/// The all-ones latency table: critical paths degenerate to component
/// hops, directly comparable to [`comb_depth`].
fn unit_lt() -> LatencyTable {
    LatencyTable {
        add: 1,
        mul: 1,
        div: 1,
        lut: 1,
        exp_approx: 1,
        log_approx: 1,
        tree_layer: 1,
        threshold_mul: 1,
        stage_reg: 1,
    }
}

/// Combinational depth of a netlist in component hops: the longest chain
/// of non-constant components between inputs/register outputs and any
/// wire. Registers cut paths (their `q` side restarts at depth 0).
pub fn comb_depth(netlist: &Netlist) -> u64 {
    let mut depth = vec![0u64; netlist.n_wires()];
    for comp in netlist.components() {
        depth[comp.out()] = match comp {
            Component::Const { .. } => 0,
            _ => comp.operands().iter().map(|&w| depth[w]).max().unwrap_or(0) + 1,
        };
    }
    depth.into_iter().max().unwrap_or(0)
}

/// One provenance line per descriptor node: its path, declared pins and
/// owned counts — the trail a census drift is traced with.
fn provenance_lines(desc: &CircuitDescriptor) -> Vec<String> {
    desc.flatten()
        .into_iter()
        .map(|(path, node)| {
            let pins: Vec<String> = node
                .pins
                .iter()
                .map(|p| {
                    let dir = match p.dir {
                        PinDir::Input => "in",
                        PinDir::Output => "out",
                    };
                    format!("{}({dir} w{})", p.name, p.wire)
                })
                .collect();
            let c = node.counts;
            let pin_part = if pins.is_empty() {
                String::new()
            } else {
                format!(" [{}]", pins.join(" "))
            };
            format!(
                "{path}{pin_part}: add {} cmp {} mux {} lut {} reg {}",
                c.adders, c.comparators, c.muxes, c.luts, c.registers
            )
        })
        .collect()
}

/// Dead-wire / unconnected-pin lint. Warnings only: a driven wire nothing
/// reads is suspicious unless the descriptor declares it as a pin, and a
/// declared pin must bond to a wire that exists (input pins to actual
/// netlist inputs — those are hard errors, the descriptor lies about its
/// interface).
pub fn lint_descriptor(
    name: &str,
    netlist: &Netlist,
    desc: &CircuitDescriptor,
    checks: &mut usize,
    findings: &mut Vec<Finding>,
) {
    let n_wires = netlist.n_wires();
    let mut read = vec![false; n_wires];
    for comp in netlist.components() {
        for w in comp.operands() {
            read[w] = true;
        }
    }
    for &(d, _) in netlist.registers() {
        read[d] = true;
    }
    let declared: std::collections::BTreeSet<usize> =
        desc.all_pins().into_iter().map(|(_, p)| p.wire).collect();

    // Every driven wire: read somewhere, or declared as a pin.
    let mut driven: Vec<(usize, String)> = netlist
        .components()
        .iter()
        .map(|c| (c.out(), c.label()))
        .collect();
    driven.extend(
        netlist
            .registers()
            .iter()
            .map(|&(_, q)| (q, "Register".to_string())),
    );
    for (w, label) in driven {
        *checks += 1;
        if !read[w] && !declared.contains(&w) {
            findings.push(finding(
                Severity::Warning,
                "dead-wire",
                format!(
                    "{name}: wire w{w} driven by {label} is never read and is not a declared pin"
                ),
                vec![],
            ));
        }
    }

    // Every declared pin: bonded to a real wire, inputs to real inputs.
    for (path, pin) in desc.all_pins() {
        *checks += 1;
        if pin.wire >= n_wires {
            findings.push(finding(
                Severity::Error,
                "pin-binding",
                format!(
                    "{name}: pin {path}:{} bonds to wire w{} but the netlist has {n_wires} wires",
                    pin.name, pin.wire
                ),
                vec![],
            ));
        } else if pin.dir == PinDir::Input && !netlist.inputs().contains(&pin.wire) {
            findings.push(finding(
                Severity::Error,
                "pin-binding",
                format!(
                    "{name}: input pin {path}:{} bonds to w{}, which is not a netlist input",
                    pin.name, pin.wire
                ),
                vec![],
            ));
        } else if pin.dir == PinDir::Input && !read[pin.wire] {
            findings.push(finding(
                Severity::Warning,
                "unconnected-pin",
                format!(
                    "{name}: input pin {path}:{} (w{}) is never read inside the circuit",
                    pin.name, pin.wire
                ),
                vec![],
            ));
        }
    }
}

/// Run every drift check for one circuit: census, schedule, area and the
/// lint. `desc` is taken separately from the netlist so the broken demo
/// can feed a tampered copy against the genuine netlist.
fn drift_checks(
    name: &str,
    netlist: &Netlist,
    desc: &CircuitDescriptor,
    lt: &LatencyTable,
    checks: &mut usize,
    findings: &mut Vec<Finding>,
) {
    // 1. Census: the descriptor subtree must tile the netlist exactly.
    *checks += 1;
    let dc = desc.census();
    let nc = netlist.census();
    if dc != nc {
        findings.push(finding(
            Severity::Error,
            "census-drift",
            format!(
                "{name}: descriptor census (add {} cmp {} mux {} lut {} reg {}) disagrees with \
                 the netlist census (add {} cmp {} mux {} lut {} reg {})",
                dc.adders,
                dc.comparators,
                dc.muxes,
                dc.luts,
                dc.registers,
                nc.adders,
                nc.comparators,
                nc.muxes,
                nc.luts,
                nc.registers
            ),
            provenance_lines(desc),
        ));
    }

    // 2. Schedule: the descriptor-derived DAG versus the closed-form claim.
    match desc.kind {
        "norm-tree" => {
            let width = desc.param("width").expect("norm-tree declares width");
            let hand = normtree_dag(width, lt);
            let derived = dag_from_descriptor(desc, lt);
            *checks += 1;
            if derived.len() != hand.len()
                || derived.critical_path().length != hand.critical_path().length
                || derived.netlist_depth() != hand.netlist_depth()
            {
                findings.push(finding(
                    Severity::Error,
                    "schedule-drift",
                    format!(
                        "{name}: descriptor-derived DAG ({} ops, critical path {}, depth {}) \
                         disagrees with the closed-form NormTree DAG ({} ops, critical path {}, \
                         depth {})",
                        derived.len(),
                        derived.critical_path().length,
                        derived.netlist_depth(),
                        hand.len(),
                        hand.critical_path().length,
                        hand.netlist_depth()
                    ),
                    derived.describe(&derived.critical_path()),
                ));
            }
        }
        "tree-sampler" | "pipe-tree-sampler" => {
            let labels = desc.param("labels").expect("sampler declares labels");
            let hand = tree_sampler_dag(labels, lt, false);
            let derived = dag_from_descriptor(desc, lt);
            *checks += 1;
            if derived.len() != hand.len()
                || derived.critical_path().length != hand.critical_path().length
                || derived.netlist_depth() != hand.netlist_depth()
            {
                findings.push(finding(
                    Severity::Error,
                    "schedule-drift",
                    format!(
                        "{name}: descriptor-derived DAG ({} ops, critical path {}, depth {}) \
                         disagrees with the closed-form tree-sampler DAG ({} ops, critical path \
                         {}, depth {})",
                        derived.len(),
                        derived.critical_path().length,
                        derived.netlist_depth(),
                        hand.len(),
                        hand.critical_path().length,
                        hand.netlist_depth()
                    ),
                    derived.describe(&derived.critical_path()),
                ));
            }
            *checks += 1;
            let ii = derived.min_initiation_interval();
            if ii != 1 {
                findings.push(finding(
                    Severity::Error,
                    "descriptor-ii",
                    format!(
                        "{name}: descriptor-derived schedule cannot sustain II = 1 (busiest \
                         resource needs {ii} cycles per sample)"
                    ),
                    vec![],
                ));
            }
        }
        "pg-core" => {
            let unit = unit_lt();
            let derived = dag_from_descriptor(desc, &unit);
            let dag_depth = derived.critical_path().length;
            let net_depth = comb_depth(netlist);
            *checks += 1;
            if dag_depth != net_depth {
                findings.push(finding(
                    Severity::Error,
                    "comb-depth-drift",
                    format!(
                        "{name}: descriptor-derived combinational depth {dag_depth} disagrees \
                         with the netlist's {net_depth} component hops"
                    ),
                    derived.describe(&derived.critical_path()),
                ));
            }
            *checks += 1;
            if derived.len() != nc.adders + nc.comparators + nc.luts {
                findings.push(finding(
                    Severity::Error,
                    "schedule-drift",
                    format!(
                        "{name}: descriptor-derived DAG has {} ops but the netlist holds {} \
                         adders + {} comparators + {} ROMs",
                        derived.len(),
                        nc.adders,
                        nc.comparators,
                        nc.luts
                    ),
                    vec![],
                ));
            }
        }
        _ => {}
    }

    // 3. Area: the structural price of the descriptor census must
    //    reproduce the closed-form Table III anchors.
    match desc.kind {
        "norm-tree" => {
            let width = desc.param("width").expect("norm-tree declares width");
            *checks += 1;
            let structural = census_area(&dc, AREA_BITS, None);
            // dynorm_amortized_area charges cmp·(p−1)/p per lane; over all
            // lanes that is exactly the tree's comparator total.
            let closed_form = (dynorm_amortized_area(width, AREA_BITS)
                - add_area(AREA_BITS) / 2.0
                - DYNORM_MUX_UM2)
                * width as f64;
            let got = structural.component("CMP").unwrap_or(0.0);
            if (got - closed_form).abs() > AREA_EPS {
                findings.push(finding(
                    Severity::Error,
                    "area-drift",
                    format!(
                        "{name}: structural comparator area {got:.3} µm² disagrees with the \
                         DyNorm amortization {closed_form:.3} µm²"
                    ),
                    provenance_lines(desc),
                ));
            }
        }
        "tree-sampler" | "pipe-tree-sampler" => {
            let labels = desc.param("labels").expect("sampler declares labels");
            if let Some(sum) = desc.child("sum") {
                *checks += 1;
                let structural = census_area(&sum.census(), AREA_BITS, None);
                let formula = sampler_area(SamplerKind::Tree, labels, AREA_BITS);
                let got = structural.component("ADD").unwrap_or(0.0);
                let want = formula.component("TreeSum").unwrap_or(f64::NAN);
                if (got - want).abs() > AREA_EPS {
                    findings.push(finding(
                        Severity::Error,
                        "area-drift",
                        format!(
                            "{name}: structural TreeSum adder area {got:.3} µm² disagrees with \
                             the closed-form sampler area {want:.3} µm²"
                        ),
                        provenance_lines(sum),
                    ));
                }
            }
        }
        "pg-core" => {
            let lanes = desc.param("lanes").expect("pg-core declares lanes");
            let size_lut = desc.param("size-lut").expect("pg-core declares size-lut");
            let bit_lut = desc.param("bit-lut").expect("pg-core declares bit-lut") as u32;
            if let Some(exp) = desc.child("exp") {
                *checks += 1;
                let mut rom_census = exp.census();
                rom_census.adders = 0; // the exp stage also owns the broadcast subs
                let structural = census_area(&rom_census, AREA_BITS, Some((size_lut, bit_lut)));
                let formula = pg_alu_area(PgAluDesign::DynormLogFusionTableExp {
                    bits: AREA_BITS,
                    pipelines: lanes,
                    size_lut,
                    bit_lut,
                });
                // Table III prices EXP per pipeline; the circuit holds one
                // ROM per lane.
                let per_lane = structural.component("ROM").unwrap_or(0.0) / lanes as f64;
                let want = formula.component("EXP").unwrap_or(f64::NAN);
                if (per_lane - want).abs() > AREA_EPS {
                    findings.push(finding(
                        Severity::Error,
                        "area-drift",
                        format!(
                            "{name}: per-lane ROM area {per_lane:.3} µm² disagrees with the \
                             Table III EXP entry {want:.3} µm²"
                        ),
                        provenance_lines(exp),
                    ));
                }
            }
        }
        _ => {}
    }

    // 4. Lint.
    lint_descriptor(name, netlist, desc, checks, findings);
}

/// The tree sampler over `n` labels, pipelined or combinational, with the
/// subject its findings name it by.
pub(crate) fn sampler_circuit(n: usize, pipelined: bool) -> (String, TreeSamplerCircuit) {
    let (name, circuit) = if pipelined {
        ("PipeTreeSamplerCircuit", TreeSamplerCircuit::pipelined(n))
    } else {
        ("TreeSamplerCircuit", TreeSamplerCircuit::new(n))
    };
    (format!("{name}({n})"), circuit)
}

/// Walk every in-tree circuit — the standalone structural sweeps plus the
/// PG core of every [`in_tree_configs`] point — and run the full drift
/// check battery. Returns `(checks performed, findings)`; a clean tree
/// produces no findings.
pub fn verify_descriptors() -> (usize, Vec<Finding>) {
    let lt = LatencyTable::reference();
    let mut checks = 0usize;
    let mut findings = Vec::new();

    for width in [2usize, 4, 8, 16, 64] {
        let c = NormTreeCircuit::new(width);
        drift_checks(
            &format!("NormTreeCircuit({width})"),
            c.netlist(),
            c.descriptor(),
            &lt,
            &mut checks,
            &mut findings,
        );
    }
    for (n, pipelined) in [
        (4usize, false),
        (6, false),
        (64, false),
        (8, true),
        (16, true),
    ] {
        let (subject, c) = sampler_circuit(n, pipelined);
        drift_checks(
            &subject,
            c.netlist(),
            c.descriptor(),
            &lt,
            &mut checks,
            &mut findings,
        );
    }
    for cfg in in_tree_configs() {
        if cfg.pipelines < 2 || !cfg.pipelines.is_power_of_two() {
            continue;
        }
        let core = PgCoreCircuit::new(
            cfg.pipelines,
            WORKLOAD_FACTOR_OPS,
            cfg.size_lut,
            cfg.bit_lut,
        );
        drift_checks(
            &format!("PgCoreCircuit[{}]", cfg.name),
            core.netlist(),
            core.descriptor(),
            &lt,
            &mut checks,
            &mut findings,
        );
    }
    (checks, findings)
}

/// The `--demo-broken` scenario: a tree-sampler descriptor whose traverse
/// step silently lost a comparator (the hand-kept-count failure mode the
/// derived descriptors exist to prevent). The census and schedule checks
/// must both fail, with the tampered node's path and pins in the
/// provenance.
pub fn broken_descriptor_demo() -> (usize, Vec<Finding>) {
    let circuit = TreeSamplerCircuit::new(64);
    let mut tampered = circuit.descriptor().clone();
    let step = tampered
        .children
        .iter_mut()
        .find(|c| c.name == "traverse")
        .expect("tree sampler has a traverse stage")
        .children
        .iter_mut()
        .find(|c| c.name == "step3")
        .expect("depth-6 traverse has a step3");
    step.counts.comparators -= 1;
    let lt = LatencyTable::reference();
    let mut checks = 0usize;
    let mut findings = Vec::new();
    drift_checks(
        "TreeSamplerCircuit(64) [tampered step3]",
        circuit.netlist(),
        &tampered,
        &lt,
        &mut checks,
        &mut findings,
    );
    (checks, findings)
}

/// The circuits `--export-schematic` renders: one representative instance
/// of each structural circuit family.
fn canonical_descriptors() -> Vec<CircuitDescriptor> {
    vec![
        NormTreeCircuit::new(8).descriptor().clone(),
        PgCoreCircuit::new(4, WORKLOAD_FACTOR_OPS, 64, 8)
            .descriptor()
            .clone(),
        TreeSamplerCircuit::new(64).descriptor().clone(),
        TreeSamplerCircuit::pipelined(16).descriptor().clone(),
    ]
}

/// Write the canonical circuits' schematics (`<name>.dot` and
/// `<name>.json`) into `dir`, creating it if needed. Returns the paths
/// written, in order.
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn export_schematics(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for desc in canonical_descriptors() {
        let dot = dir.join(format!("{}.dot", desc.name));
        std::fs::write(&dot, desc.to_dot())?;
        written.push(dot);
        let json = dir.join(format!("{}.json", desc.name));
        std::fs::write(&json, desc.to_json())?;
        written.push(json);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_sim::{DescriptorBuilder, LutSpec, Netlist};
    use std::rc::Rc;

    #[test]
    fn the_tree_has_no_descriptor_drift() {
        let (checks, findings) = verify_descriptors();
        assert!(checks > 200, "expected a substantive sweep, got {checks}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn broken_demo_names_the_tampered_step_and_its_pin() {
        let (_, findings) = broken_descriptor_demo();
        let errors: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(
            errors.iter().any(|f| f.check == "census-drift"),
            "{findings:?}"
        );
        assert!(
            errors.iter().any(|f| f.check == "schedule-drift"),
            "{findings:?}"
        );
        let census = errors
            .iter()
            .find(|f| f.check == "census-drift")
            .expect("census drift");
        // Path- and pin-level provenance: the tampered node and its pin.
        assert!(
            census
                .provenance
                .iter()
                .any(|l| l.contains("traverse/step3") && l.contains("bit(out")),
            "{:?}",
            census.provenance
        );
    }

    #[test]
    fn orphaned_wire_is_flagged_and_pins_silence_it() {
        // An add whose output nothing reads and no pin declares.
        let mut n = Netlist::new();
        let mut b = DescriptorBuilder::new(&n, "orphan", "toy");
        let a = n.input();
        let c = n.input();
        b.pin_in("a", a);
        b.pin_in("c", c);
        let dead = n.add(a, c);
        let live = n.max(a, c);
        b.pin_out("live", live);
        let d = b.finish(&n);

        let mut checks = 0;
        let mut findings = Vec::new();
        lint_descriptor("orphan", &n, &d, &mut checks, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].check, "dead-wire");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(findings[0].message.contains(&format!("w{dead}")));

        // Declaring the wire as a pin silences the lint.
        let mut n2 = Netlist::new();
        let mut b2 = DescriptorBuilder::new(&n2, "declared", "toy");
        let a2 = n2.input();
        let c2 = n2.input();
        b2.pin_in("a", a2);
        b2.pin_in("c", c2);
        let out = n2.add(a2, c2);
        b2.pin_out("out", out);
        let d2 = b2.finish(&n2);
        let mut checks2 = 0;
        let mut findings2 = Vec::new();
        lint_descriptor("declared", &n2, &d2, &mut checks2, &mut findings2);
        assert!(findings2.is_empty(), "{findings2:?}");
    }

    #[test]
    fn bogus_pin_bindings_are_hard_errors() {
        let mut n = Netlist::new();
        let mut b = DescriptorBuilder::new(&n, "bogus", "toy");
        let a = n.input();
        let l = n.lut(a, LutSpec::opaque("id", Rc::new(|x: f64| x)));
        b.pin_out("out", l);
        // An "input" pin on an internal wire, and a pin past the netlist.
        b.pin_in("fake-in", l);
        b.pin_out("beyond", 999);
        let d = b.finish(&n);
        let mut checks = 0;
        let mut findings = Vec::new();
        lint_descriptor("bogus", &n, &d, &mut checks, &mut findings);
        let errors: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 2, "{findings:?}");
        assert!(errors.iter().all(|f| f.check == "pin-binding"));
    }

    #[test]
    fn comb_depth_counts_component_hops_and_registers_cut() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.add(a, a);
        let c = n.add(b, a);
        assert_eq!(comb_depth(&n), 2);
        let q = n.register(c);
        let _ = n.add(q, a);
        // The register restarts the chain: one hop after the cut.
        assert_eq!(comb_depth(&n), 2);
    }

    #[test]
    fn schematics_export_all_four_circuits() {
        let dir = std::env::temp_dir().join("coopmc-schematic-test");
        let written = export_schematics(&dir).expect("export");
        assert_eq!(written.len(), 8);
        for p in &written {
            let body = std::fs::read_to_string(p).expect("written file");
            assert!(!body.is_empty());
        }
        let dot = std::fs::read_to_string(dir.join("tree-sampler-64.dot")).expect("dot");
        assert!(dot.contains("digraph \"tree-sampler-64\""));
        assert!(dot.contains("traverse/step3"));
        let json = std::fs::read_to_string(dir.join("pg-core-4x5-64x8.json")).expect("json");
        assert!(json.contains("\"kind\": \"factor-chain\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
