//! Static verification for the CoopMC accelerator model.
//!
//! Everything in this crate analyzes the hardware model *without executing
//! it*:
//!
//! - [`interval`] — the abstract domain: closed `f64` intervals with the
//!   outward-rounding arithmetic the analyzer propagates.
//! - [`netcheck`] — abstract interpretation of a [`coopmc_sim::Netlist`]:
//!   every wire gets a sound `[lo, hi]` enclosure of the values it can ever
//!   carry, which is then checked against the wire's intended
//!   [`coopmc_fixed::QFormat`] (overflow, precision loss, unreachable
//!   saturation), with component-level provenance traces. Its one
//!   interpreter (register fixpoint, driving-component index, provenance
//!   walker) also runs [`errprop`]'s error domain.
//! - [`contracts`] — closed-form checks of the paper's datapath invariants
//!   for any (accumulator format, TableExp geometry, DyNorm) combination:
//!   the DyNorm output range must sit inside the LUT domain, the LogFusion
//!   `LOG_ZERO` sentinel must still flush after the exp stage, and the
//!   NormTree comparator bus must span the workload envelope.
//! - [`errprop`] — static quantization-error propagation: per-wire
//!   `(range, worst_case_abs_error)` pairs through the netlist, plus the
//!   closed-form DyNorm → TableExp error budget composing rounding, LUT
//!   step, output quantization and flush-tail contributions into a
//!   total-variation bound on the sampled distribution, checked against
//!   declared per-configuration quality contracts.
//! - [`races`] — the chromatic race detector: a
//!   [`coopmc_models::coloring::ChromaticModel`]'s color classes must be
//!   independent sets of its dependency graph, else two "parallel"
//!   variables race under chromatic scheduling.
//! - [`schedule`] — static dependence-DAG schedule verification: rebuild
//!   the PG/SD pipelines from the [`coopmc_hw::cycles::LatencyTable`]
//!   primitives, list-schedule them under unit-capacity resources and
//!   check every closed-form latency formula, the pipelined sampler's
//!   II = 1 claim and the SRAM roofline.
//! - [`descriptor`] — the `descriptor-drift` gate: every circuit's typed
//!   [`coopmc_sim::CircuitDescriptor`] is cross-checked against its
//!   netlist census, the closed-form schedule DAGs, the structural area
//!   anchors and a dead-wire/unconnected-pin lint, and the canonical
//!   circuits' schematics are exported as graphviz/JSON.
//! - [`words`] — the `pg-words` gate: the fused quantizers the PG datapath
//!   applies to every score, checked against the `Fixed` round-trip and a
//!   half-away-from-zero reference, the row isolation of the batched PG
//!   pass on bus words, and count rows' count-indexed log words against
//!   their `f64` images.
//! - [`verify`] — the full in-tree sweep behind the `coopmc-verify` binary
//!   and the `coopmc verify` CLI subcommand, and the one argument parser
//!   both share ([`VerifyArgs`]); exits nonzero on any error.

pub mod contracts;
pub mod descriptor;
pub mod errprop;
pub mod interval;
pub mod netcheck;
pub mod races;
pub mod schedule;
pub mod verify;
pub mod words;

pub use contracts::{check_datapath, in_tree_configs, ContractViolation, DatapathConfig};
pub use descriptor::{
    broken_descriptor_demo, comb_depth, export_schematics, lint_descriptor, verify_descriptors,
};
pub use errprop::{
    analyze_errors, check_quality, declared_contract, propagate_datapath, ErrorAnalysis,
    ErrorBudget, LutErrorModel, QualityContract,
};
pub use interval::Interval;
pub use netcheck::{RangeAnalysis, Severity, WireDiagnostic};
pub use races::{check_chromatic, check_classes, ChromaticError, ColoringAudit};
pub use schedule::{
    check_claim, dag_from_descriptor, normtree_dag, pg_invocation_cycles, sequential_sampler_dag,
    tree_sampler_dag, verify_schedules, DepDag, ScheduleFinding,
};
pub use verify::{
    run_all, run_broken_demo, run_sections, VerifyArgs, VerifyReport, JSON_SCHEMA_VERSION,
    SECTION_TITLES,
};
