//! The full in-tree verification sweep behind `coopmc-verify`.
//!
//! [`run_all`] runs eight sections and collects their findings into a
//! [`VerifyReport`]; [`run_sections`] runs a single named section (the
//! `--only` flag):
//!
//! 1. **netlist-ranges** — abstract interpretation of every structural
//!    circuit the tree instantiates (NormTree, PG core, TreeSampler,
//!    PipeTreeSampler) under the default workload envelope, checking each
//!    wire against the fixed-point format of the bus it models.
//! 2. **datapath-contracts** — the closed-form DyNorm/TableExp/LogFusion
//!    invariants for every in-tree configuration.
//! 3. **pgpipe-configs** — the same contracts for the lane counts used by
//!    `coopmc-hw::pgpipe`'s reference configurations.
//! 4. **error-propagation** — the static quantization-error budgets of
//!    [`crate::errprop`]: every in-tree configuration's total-variation
//!    bound against its declared quality contract, plus the wire-level
//!    error pass over the PG core netlists cross-checked against the
//!    closed form.
//! 5. **pipeline-schedules** — the dependence-DAG schedule checks of
//!    [`crate::schedule`]: sampler/PG latency formulas versus
//!    list-scheduled critical paths, II = 1 for the pipelined sampler,
//!    structural-hazard freedom and the SRAM roofline.
//! 6. **descriptor-drift** — the typed-descriptor cross-checks of
//!    [`crate::descriptor`]: every circuit's descriptor-derived census,
//!    schedule DAG and structural area against the netlist and the
//!    closed forms, plus the dead-wire/unconnected-pin lint.
//! 7. **pg-words** — the checks of [`crate::words`]: the fused quantizers
//!    against the `Fixed` round-trip and a half-away-from-zero reference,
//!    the row isolation of the batched PG pass on bus words, and count
//!    rows' count-indexed log words against their `f64` images.
//! 8. **chromatic-schedules** — the race detector over every in-tree
//!    [`ChromaticModel`].
//!
//! Errors fail the gate (nonzero exit); warnings and notes never do.
//! [`VerifyReport::to_json`] renders the same findings as a machine-readable
//! document (contract name, bound versus limit, wire provenance) for the CI
//! artifact; its layout is documented in DESIGN.md §13 and versioned by the
//! leading `schema_version` field ([`JSON_SCHEMA_VERSION`]).
//!
//! [`VerifyArgs`] parses the flags of the `coopmc-verify` binary and the
//! `coopmc verify` subcommand, and [`VerifyArgs::run`] is the body both
//! entry points run. Both print through [`coopmc_obs::print_stdout`], as
//! every binary of the workspace does.

use coopmc_fixed::{QFormat, Rounding};
use coopmc_hw::cycles::LatencyTable;
use coopmc_hw::pgpipe::{self, PipeKind};
use coopmc_kernels::exp::TableExp;
use coopmc_models::bn;
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::{self as mrf, Connectivity};
use coopmc_obs::{json, print_stderr, print_stdout};
use coopmc_sim::circuits::{NormTreeCircuit, PgCoreCircuit};
use coopmc_sim::{Component, Netlist, Wire};

use crate::contracts::{check_datapath, in_tree_configs, ContractViolation, DatapathConfig};
use crate::descriptor::sampler_circuit;
use crate::errprop::{
    analyze_errors, check_quality, declared_contract, ErrorAnalysis, LutErrorModel, LutKey,
};
use crate::interval::Interval;
use crate::netcheck::{analyze, DiagnosticKind, Severity};
use crate::races::check_chromatic;
use crate::schedule::{check_claim, tree_sampler_dag, verify_schedules};

/// Labels per variable of the reference workload (the §IV MRF case study)
/// the error budgets are stated for.
const WORKLOAD_LABELS: usize = 64;

/// Factor accumulations per label of the reference workload (data cost +
/// four smoothness costs of a 4-connected MRF).
const WORKLOAD_FACTOR_OPS: u64 = 5;

/// Version of the `--json` report layout (see DESIGN.md §13). Bumped on
/// any structural change so downstream tooling can gate on it.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// Stable section names in execution order — the vocabulary accepted by
/// [`run_sections`] and the `--only` flag.
pub const SECTION_TITLES: [&str; 8] = [
    "netlist-ranges",
    "datapath-contracts",
    "pgpipe-configs",
    "error-propagation",
    "pipeline-schedules",
    "descriptor-drift",
    "pg-words",
    "chromatic-schedules",
];

/// One structured finding of a verification section.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Errors fail the gate; warnings and notes never do.
    pub severity: Severity,
    /// Stable identifier of the violated check/contract.
    pub check: String,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
    /// Wire-level or critical-path provenance lines (may be empty).
    pub provenance: Vec<String>,
    /// The computed bound, for checks that compare a bound to a limit.
    pub bound: Option<f64>,
    /// The declared limit, for checks that compare a bound to a limit.
    pub limit: Option<f64>,
}

/// The findings of one verification section.
#[derive(Debug, Default)]
pub struct SectionReport {
    /// Section name (stable, used in CI logs).
    pub title: String,
    /// Number of individual checks performed.
    pub checks: usize,
    /// Structured findings (errors and warnings).
    pub findings: Vec<Finding>,
    /// Informational findings (reported as a count only).
    pub notes: usize,
}

impl SectionReport {
    fn new(title: &str) -> Self {
        Self {
            title: title.into(),
            ..Default::default()
        }
    }

    /// The gate-failing findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// The non-failing suspicious findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    fn push(&mut self, finding: Finding) {
        match finding.severity {
            Severity::Note => self.notes += 1,
            _ => self.findings.push(finding),
        }
    }

    fn error(&mut self, check: &str, message: String) {
        self.push(Finding {
            severity: Severity::Error,
            check: check.into(),
            message,
            provenance: vec![],
            bound: None,
            limit: None,
        });
    }

    fn absorb_violation(&mut self, v: ContractViolation, provenance: Vec<String>) {
        self.push(Finding {
            severity: v.severity,
            check: v.contract.into(),
            message: v.to_string(),
            provenance,
            bound: None,
            limit: None,
        });
    }
}

/// The aggregated result of a verification run.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// One report per section, in execution order.
    pub sections: Vec<SectionReport>,
}

impl VerifyReport {
    /// True if any section recorded an error (the gate must fail).
    pub fn has_errors(&self) -> bool {
        self.sections.iter().any(|s| s.errors().next().is_some())
    }

    /// Render the report as the text `coopmc-verify` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut checks = 0;
        let mut errors = 0;
        let mut warnings = 0;
        for s in &self.sections {
            let n_err = s.errors().count();
            let n_warn = s.warnings().count();
            checks += s.checks;
            errors += n_err;
            warnings += n_warn;
            let status = if n_err > 0 {
                "FAIL"
            } else if n_warn > 0 {
                "warn"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "[{status}] {} — {} checks, {} errors, {} warnings, {} notes\n",
                s.title, s.checks, n_err, n_warn, s.notes
            ));
            for f in s.errors().chain(s.warnings()) {
                let label = if f.severity == Severity::Error {
                    "error"
                } else {
                    "warning"
                };
                out.push_str(&format!("  {label}: {}\n", f.message));
                for line in &f.provenance {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{}: {checks} checks, {errors} errors, {warnings} warnings\n",
            if errors > 0 { "FAILED" } else { "PASSED" }
        ));
        out
    }

    /// Render the report as a JSON document (the `--json` output and the
    /// CI artifact): overall status plus, per section, every finding with
    /// its check identifier, bound versus limit and provenance trace.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let checks: usize = self.sections.iter().map(|s| s.checks).sum();
        let errors: usize = self.sections.iter().map(|s| s.errors().count()).sum();
        let warnings: usize = self.sections.iter().map(|s| s.warnings().count()).sum();
        let notes: usize = self.sections.iter().map(|s| s.notes).sum();
        out.push_str(&format!(
            "\"schema_version\":{JSON_SCHEMA_VERSION},\"status\":\"{}\",\"checks\":{checks},\
             \"errors\":{errors},\"warnings\":{warnings},\"notes\":{notes},\"sections\":[",
            if errors > 0 { "failed" } else { "passed" }
        ));
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"title\":");
            json::write_str(&mut out, &s.title);
            out.push_str(&format!(
                ",\"checks\":{},\"notes\":{},\"findings\":[",
                s.checks, s.notes
            ));
            for (j, f) in s.findings.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let severity = match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Note => "note",
                };
                out.push_str(&format!("{{\"severity\":\"{severity}\",\"check\":"));
                json::write_str(&mut out, &f.check);
                out.push_str(",\"message\":");
                json::write_str(&mut out, &f.message);
                out.push_str(",\"bound\":");
                json::write_opt_num(&mut out, f.bound);
                out.push_str(",\"limit\":");
                json::write_opt_num(&mut out, f.limit);
                out.push_str(",\"provenance\":[");
                for (k, line) in f.provenance.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    json::write_str(&mut out, line);
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Sort findings from a list of wire diagnostics into a section.
fn absorb_diagnostics(
    section: &mut SectionReport,
    circuit: &str,
    diags: Vec<crate::netcheck::WireDiagnostic>,
) {
    for d in diags {
        let check = match d.kind {
            DiagnosticKind::Overflow => "wire-overflow",
            DiagnosticKind::Unbounded => "wire-unbounded",
            DiagnosticKind::PrecisionLoss => "wire-precision-loss",
            DiagnosticKind::UnreachableSaturation => "wire-occupancy",
        };
        section.push(Finding {
            severity: d.severity,
            check: check.into(),
            message: format!("{circuit}: w{}: {}", d.wire, d.message),
            provenance: d.trace,
            bound: None,
            limit: None,
        });
    }
}

/// Format checks for a score-domain netlist: arithmetic wires against the
/// accumulator bus, LUT outputs against the probability grid.
fn score_domain_checks(
    netlist: &Netlist,
    acc: QFormat,
    prob: QFormat,
    extra_inputs: &[Wire],
) -> Vec<(Wire, QFormat)> {
    let mut checks: Vec<(Wire, QFormat)> = extra_inputs.iter().map(|&w| (w, acc)).collect();
    for comp in netlist.components() {
        match comp {
            Component::Add { out, .. }
            | Component::Sub { out, .. }
            | Component::Max { out, .. }
            | Component::Mux { out, .. } => checks.push((*out, acc)),
            Component::Lut { out, .. } => checks.push((*out, prob)),
            Component::Const { .. } | Component::Ge { .. } => {}
        }
    }
    checks
}

/// Section 1: abstract interpretation of the structural circuits.
fn netlist_ranges(envelope: Interval) -> SectionReport {
    let mut section = SectionReport::new("netlist-ranges");
    let acc = QFormat::baseline32();
    let prob = QFormat::probability(16).expect("valid probability format");

    // NormTree: score maxima must stay on the accumulator bus.
    for width in [2usize, 4, 8, 16, 64] {
        let tree = NormTreeCircuit::new(width);
        let inputs: Vec<(Wire, Interval)> =
            tree.input_wires().iter().map(|&w| (w, envelope)).collect();
        let ra = analyze(tree.netlist(), &inputs);
        let checks = score_domain_checks(tree.netlist(), acc, prob, tree.input_wires());
        section.checks += checks.len();
        absorb_diagnostics(
            &mut section,
            &format!("NormTreeCircuit({width})"),
            ra.check_wires(tree.netlist(), &checks),
        );
        if ra.widened() {
            section.error(
                "analysis-widened",
                format!("NormTreeCircuit({width}): register analysis widened"),
            );
        }
    }

    // PG core: factor sums, the DyNorm subtract and the TableExp outputs.
    for (lanes, factors, size_lut, bit_lut) in [(4usize, 3usize, 64usize, 8u32), (8, 5, 128, 16)] {
        let core = PgCoreCircuit::new(lanes, factors, size_lut, bit_lut);
        // Per-factor envelope chosen so lane sums span the full score
        // envelope: factors of the per-label score.
        let per_factor = Interval::new(envelope.lo / factors as f64, envelope.hi / factors as f64);
        let inputs: Vec<(Wire, Interval)> = core
            .factor_wires()
            .iter()
            .flatten()
            .map(|&w| (w, per_factor))
            .collect();
        let ra = analyze(core.netlist(), &inputs);
        let flat: Vec<Wire> = core.factor_wires().iter().flatten().copied().collect();
        let lane_prob = QFormat::probability(bit_lut).expect("valid probability format");
        let checks = score_domain_checks(core.netlist(), acc, lane_prob, &flat);
        section.checks += checks.len();
        absorb_diagnostics(
            &mut section,
            &format!("PgCoreCircuit({lanes}x{factors},{size_lut}x{bit_lut})"),
            ra.check_wires(core.netlist(), &checks),
        );
        // The exp-stage inputs must have a provably non-positive range —
        // this is DyNorm's invariant, visible only through the relational
        // (max-dominance) refinement.
        for comp in core.netlist().components() {
            if let Component::Lut { input, .. } = comp {
                section.checks += 1;
                let iv = ra.interval(*input);
                if iv.hi > 0.0 {
                    section.error(
                        "dynorm-nonpositive",
                        format!(
                            "PgCoreCircuit({lanes}x{factors}): exp input w{input} has range {iv}; \
                             DyNorm must pin it at <= 0"
                        ),
                    );
                }
            }
        }
    }

    // TreeSampler (combinational + pipelined): probability sums, the
    // traverse walk and the label reconstruction on a Q8.16 sampler bus.
    let sampler_fmt = QFormat::new(8, 16).expect("valid sampler format");
    for (n_labels, pipelined) in [(6usize, false), (64, false), (8, true), (16, true)] {
        let (subject, tree) = sampler_circuit(n_labels, pipelined);
        let mut inputs: Vec<(Wire, Interval)> = tree
            .leaf_wires()
            .iter()
            .map(|&w| (w, Interval::new(0.0, 1.0)))
            .collect();
        inputs.push((tree.threshold_wire(), Interval::new(0.0, n_labels as f64)));
        let ra = analyze(tree.netlist(), &inputs);
        let checks: Vec<(Wire, QFormat)> = tree
            .netlist()
            .components()
            .iter()
            .filter(|c| !matches!(c, Component::Const { .. } | Component::Ge { .. }))
            .map(|c| (c.out(), sampler_fmt))
            .collect();
        section.checks += checks.len();
        absorb_diagnostics(
            &mut section,
            &subject,
            ra.check_wires(tree.netlist(), &checks),
        );
        if ra.widened() {
            section.error(
                "analysis-widened",
                format!("{subject}: register analysis widened"),
            );
        }
    }
    section
}

/// Absorb contract violations for a list of configs into a section.
fn contract_section(title: &str, configs: &[DatapathConfig]) -> SectionReport {
    let mut section = SectionReport::new(title);
    for cfg in configs {
        // check_datapath runs 7 contract families per config.
        section.checks += 7;
        for v in check_datapath(cfg) {
            section.absorb_violation(v, vec![]);
        }
    }
    section
}

/// Section 3: contracts for the PG-pipe reference lane counts.
fn pgpipe_section() -> SectionReport {
    let configs: Vec<DatapathConfig> = pgpipe::reference_configs()
        .into_iter()
        .filter(|c| c.kind == PipeKind::CoopMc)
        .map(|c| {
            let mut cfg = DatapathConfig::coopmc(
                format!("pgpipe:{}lanes-{}labels", c.pipelines, c.n_labels),
                64,
                8,
            );
            cfg.pipelines = c.pipelines;
            cfg
        })
        .collect();
    contract_section("pgpipe-configs", &configs)
}

/// Section 4: static quantization-error budgets and the wire-level error
/// pass over the PG core netlists.
fn errprop_section() -> SectionReport {
    let mut section = SectionReport::new("error-propagation");

    // Closed-form budgets against declared quality contracts. Sweep
    // configurations deliberately explore broken geometries and declare no
    // contract; their budgets are computed but only counted as notes.
    for cfg in in_tree_configs() {
        section.checks += 1;
        match declared_contract(&cfg.name) {
            Some(contract) => {
                let (budget, violations) =
                    check_quality(&cfg, &contract, WORKLOAD_LABELS, WORKLOAD_FACTOR_OPS);
                for (v, bound, limit) in violations {
                    let severity = v.severity;
                    let check = v.contract;
                    section.push(Finding {
                        severity,
                        check: check.into(),
                        message: v.to_string(),
                        provenance: budget.trace(),
                        bound: Some(bound),
                        limit: Some(limit),
                    });
                }
            }
            None => section.notes += 1,
        }
    }

    // Wire-level pass: propagate per-factor quantization errors through
    // the actual PG core netlists and require the per-output error to stay
    // inside the closed-form per-label bound (the two models must agree).
    for (lanes, factors, size_lut, bit_lut) in [(4usize, 3usize, 64usize, 8u32), (8, 5, 128, 16)] {
        let core = PgCoreCircuit::new(lanes, factors, size_lut, bit_lut);
        let cfg = DatapathConfig::coopmc(
            format!("pgcore-netlist:{lanes}x{factors},{size_lut}x{bit_lut}"),
            size_lut,
            bit_lut,
        );
        let ea = pg_core_errors(&core, &cfg);
        let budget = crate::errprop::propagate_datapath(&cfg, WORKLOAD_LABELS, factors as u64);
        let closed_form = budget.rel_factor + budget.abs_floor;
        for &out in core.output_wires() {
            section.checks += 1;
            let wire_err = ea.error(out);
            if wire_err > closed_form || wire_err.is_nan() {
                section.push(Finding {
                    severity: Severity::Error,
                    check: "errprop-wire-vs-closed-form".into(),
                    message: format!(
                        "[{}] wire-level error {wire_err:.3e} on output w{out} exceeds the \
                         closed-form per-label bound {closed_form:.3e}",
                        cfg.name
                    ),
                    provenance: ea.provenance(core.netlist(), out, 4),
                    bound: Some(wire_err),
                    limit: Some(closed_form),
                });
            }
        }
        section.checks += 1;
        if ea.widened() {
            section.error(
                "analysis-widened",
                format!("[{}] error analysis widened", cfg.name),
            );
        }
    }
    section
}

/// The wire-level error pass over a PG core built for `cfg`: each factor
/// input spans its share of the score envelope and carries one
/// accumulator-grid rounding, and one id-keyed declaration covers every
/// "table-exp" ROM instance.
fn pg_core_errors(core: &PgCoreCircuit, cfg: &DatapathConfig) -> ErrorAnalysis {
    let factors = core.factor_wires()[0].len() as f64;
    let per_factor = Interval::new(cfg.score_floor / factors, cfg.score_ceiling / factors);
    let q = cfg.acc.rounding_error_bound(Rounding::Nearest);
    let wires = core.factor_wires().iter().flatten();
    let inputs: Vec<(Wire, Interval)> = wires.clone().map(|&w| (w, per_factor)).collect();
    let input_errors: Vec<(Wire, f64)> = wires.map(|&w| (w, q)).collect();
    let ra = analyze(core.netlist(), &inputs);
    let table = TableExp::with_range(cfg.size_lut, cfg.bit_lut, cfg.lut_range);
    let lut_models = [(LutKey::Id("table-exp"), LutErrorModel::TableExp(table))];
    analyze_errors(core.netlist(), &ra, &input_errors, &lut_models)
}

/// Section 5: schedule/hazard verification against the reference latency
/// table.
fn schedule_section() -> SectionReport {
    let mut section = SectionReport::new("pipeline-schedules");
    let lt = LatencyTable::reference();
    let (checks, findings) = verify_schedules(&lt);
    section.checks = checks;
    for f in findings {
        section.push(Finding {
            severity: f.severity,
            check: f.check.into(),
            message: format!("[{}] {}", f.subject, f.message),
            provenance: f.provenance,
            bound: f.computed.map(|c| c as f64),
            limit: f.claimed.map(|c| c as f64),
        });
    }
    section
}

/// Section 6: descriptor drift — every circuit's typed descriptor against
/// its netlist census, the closed-form schedule DAGs, the structural area
/// anchors and the dead-wire lint.
fn descriptor_section() -> SectionReport {
    let mut section = SectionReport::new("descriptor-drift");
    let (checks, findings) = crate::descriptor::verify_descriptors();
    section.checks = checks;
    for f in findings {
        section.push(f);
    }
    section
}

/// Section 7: the fused-quantizer, row-isolation and count-word checks of
/// the PG datapath's bus words.
fn pg_words_section() -> SectionReport {
    let mut section = SectionReport::new("pg-words");
    let (checks, findings) = crate::words::verify_pg_words();
    section.checks = checks;
    for f in findings {
        section.push(f);
    }
    section
}

/// Section 8: race-detect every in-tree chromatic model.
fn chromatic_section() -> SectionReport {
    let mut section = SectionReport::new("chromatic-schedules");
    let seed = 7u64;
    let four = mrf::image_segmentation(16, 12, seed).mrf;
    let eight = mrf::image_restoration(12, 10, seed)
        .mrf
        .with_connectivity(Connectivity::Eight);
    let stereo = mrf::stereo_matching(14, 10, seed).mrf;
    let sound = mrf::sound_source_separation(12, 10, seed).mrf;
    let models: Vec<(&str, &dyn ChromaticModel)> = vec![
        ("mrf-segmentation-4conn", &four),
        ("mrf-restoration-8conn", &eight),
        ("mrf-stereo-4conn", &stereo),
        ("mrf-soundsep-4conn", &sound),
    ];
    let nets = [
        ("bn-asia", bn::asia()),
        ("bn-earthquake", bn::earthquake()),
        ("bn-survey", bn::survey()),
        ("bn-cancer", bn::cancer()),
        ("bn-sprinkler", bn::sprinkler()),
    ];
    for (name, model) in models
        .into_iter()
        .chain(nets.iter().map(|(n, m)| (*n, m as &dyn ChromaticModel)))
    {
        section.checks += 1;
        match check_chromatic(model) {
            Ok(audit) => {
                if audit.n_classes > audit.n_variables {
                    section.push(Finding {
                        severity: Severity::Warning,
                        check: "chromatic-degenerate".into(),
                        message: format!("{name}: degenerate coloring ({audit:?})"),
                        provenance: vec![],
                        bound: None,
                        limit: None,
                    });
                }
            }
            Err(e) => section.error("chromatic-race", format!("{name}: {e}")),
        }
    }
    section
}

/// Run every verification section over the in-tree circuits, configs and
/// models. The default workload envelope (scores in `[-1024, 64]`) matches
/// [`DatapathConfig::coopmc`].
pub fn run_all() -> VerifyReport {
    run_sections(None).expect("a run without a section filter cannot fail")
}

/// Run the verification sweep, optionally restricted to one named section
/// (`--only`). An unknown section name is an error listing the valid
/// vocabulary ([`SECTION_TITLES`]).
pub fn run_sections(only: Option<&str>) -> Result<VerifyReport, String> {
    if let Some(name) = only {
        if !SECTION_TITLES.contains(&name) {
            return Err(format!(
                "unknown section {name:?}; valid sections: {}",
                SECTION_TITLES.join(", ")
            ));
        }
    }
    let wanted = |title: &str| only.is_none() || only == Some(title);
    let envelope = Interval::new(-1024.0, 64.0);
    let mut sections = Vec::new();
    if wanted("netlist-ranges") {
        sections.push(netlist_ranges(envelope));
    }
    if wanted("datapath-contracts") {
        sections.push(contract_section("datapath-contracts", &in_tree_configs()));
    }
    if wanted("pgpipe-configs") {
        sections.push(pgpipe_section());
    }
    if wanted("error-propagation") {
        sections.push(errprop_section());
    }
    if wanted("pipeline-schedules") {
        sections.push(schedule_section());
    }
    if wanted("descriptor-drift") {
        sections.push(descriptor_section());
    }
    if wanted("pg-words") {
        sections.push(pg_words_section());
    }
    if wanted("chromatic-schedules") {
        sections.push(chromatic_section());
    }
    Ok(VerifyReport { sections })
}

/// Run the sweep with deliberately broken configurations injected — the
/// `coopmc-verify --demo-broken` mode CI uses to prove the gate actually
/// fails:
///
/// - a TableExp whose range covers a fraction of the DyNorm output range,
/// - an accumulator too narrow for the `LOG_ZERO` sentinel,
/// - a 4-entry LUT whose error budget blows the paper-tolerance quality
///   contract (the finding names the dominant error source with a
///   wire-level provenance trace), and
/// - a sampler latency formula under-claiming its critical path, plus a
///   shared traverse comparator that breaks the II = 1 claim, and
/// - a batched-PG bank claiming 8 parallel units when the modeled hardware
///   round-robins its rows over only 4 (an over-claimed batch width), and
/// - a tree-sampler descriptor whose traverse-step comparator count
///   silently diverged from the netlist (the descriptor-drift gate fails
///   with the tampered node's path and pins in the provenance).
pub fn run_broken_demo() -> VerifyReport {
    let mut broken = DatapathConfig::coopmc("demo-broken:64x8-range2", 64, 8);
    broken.lut_range = 2.0;
    let mut narrow = DatapathConfig::coopmc("demo-broken:narrow-acc", 1024, 16);
    narrow.acc = QFormat::new(5, 10).expect("valid format");

    // Error-propagation demo: a 4-entry LUT (step 4.0) against the paper's
    // quality contract, with the wire-level trace of a matching PG core.
    let mut errsec = SectionReport::new("error-propagation");
    let coarse = DatapathConfig::coopmc("demo-broken:4-entry-lut", 4, 8);
    let contract = crate::errprop::QualityContract::paper_tolerance();
    errsec.checks += 1;
    let (budget, violations) =
        check_quality(&coarse, &contract, WORKLOAD_LABELS, WORKLOAD_FACTOR_OPS);
    let core = PgCoreCircuit::new(4, 3, coarse.size_lut, coarse.bit_lut);
    let ea = pg_core_errors(&core, &coarse);
    let worst = core
        .output_wires()
        .iter()
        .copied()
        .max_by(|&a, &b| ea.error(a).total_cmp(&ea.error(b)))
        .expect("core has outputs");
    for (v, bound, limit) in violations {
        let mut provenance = budget.trace();
        provenance.extend(ea.provenance(core.netlist(), worst, 4));
        let severity = v.severity;
        let check = v.contract;
        errsec.push(Finding {
            severity,
            check: check.into(),
            message: v.to_string(),
            provenance,
            bound: Some(bound),
            limit: Some(limit),
        });
    }

    // Schedule demo: a formula that under-claims the tree sampler's
    // critical path by one cycle, and a shared traverse comparator that
    // cannot sustain II = 1.
    let mut schedsec = SectionReport::new("pipeline-schedules");
    let lt = LatencyTable::reference();
    let dag = tree_sampler_dag(64, &lt, false);
    let computed = dag.list_schedule().makespan;
    schedsec.checks += 1;
    if let Some(f) = check_claim(
        "tree-latency",
        "demo-broken:underclaimed-formula",
        computed - 1,
        computed,
        dag.describe(&dag.critical_path()),
    ) {
        schedsec.push(Finding {
            severity: f.severity,
            check: f.check.into(),
            message: format!("[{}] {}", f.subject, f.message),
            provenance: f.provenance,
            bound: f.computed.map(|c| c as f64),
            limit: f.claimed.map(|c| c as f64),
        });
    }
    // Over-claimed batch width: the engine claims the 8-unit closed form
    // while the modeled bank has only 4 physical PG units, so the claimed
    // class latency under-claims the list-scheduled round-robin DAG.
    schedsec.checks += 1;
    let claimed_bank = coopmc_hw::batch::PgUnitConfig {
        timing: coopmc_hw::cycles::PgTiming::CoopMc { pipelines: 8 },
        pg_units: 8,
        n_labels: WORKLOAD_LABELS,
        factor_ops: WORKLOAD_FACTOR_OPS,
    };
    let physical = crate::schedule::batched_pg_dag(
        64,
        4,
        claimed_bank.per_call_cycles(),
        coopmc_hw::cycles::SYNC_CYCLES,
    );
    if let Some(f) = check_claim(
        "batched-pg-latency",
        "demo-broken:overclaimed-batch-width",
        claimed_bank.class_cycles(64),
        physical.list_schedule().makespan,
        physical.describe(&physical.critical_path()),
    ) {
        schedsec.push(Finding {
            severity: f.severity,
            check: f.check.into(),
            message: format!("[{}] {}", f.subject, f.message),
            provenance: f.provenance,
            bound: f.computed.map(|c| c as f64),
            limit: f.claimed.map(|c| c as f64),
        });
    }
    schedsec.checks += 1;
    let shared = tree_sampler_dag(64, &lt, true);
    let ii = shared.min_initiation_interval();
    if ii != 1 {
        schedsec.push(Finding {
            severity: Severity::Error,
            check: "pipe-tree-ii".into(),
            message: format!(
                "[demo-broken:shared-traverse-comparator] pipelined sampler cannot sustain \
                 II = 1: the shared comparator is busy {ii} cycles per sample"
            ),
            provenance: vec![],
            bound: Some(ii as f64),
            limit: Some(1.0),
        });
    }

    // Descriptor-drift demo: a comparator count that silently diverged.
    let mut descsec = SectionReport::new("descriptor-drift");
    let (checks, findings) = crate::descriptor::broken_descriptor_demo();
    descsec.checks = checks;
    for f in findings {
        descsec.push(f);
    }

    VerifyReport {
        sections: vec![
            contract_section("datapath-contracts", &[broken, narrow]),
            errsec,
            schedsec,
            descsec,
        ],
    }
}

/// The flags of the `coopmc-verify` binary and the `coopmc verify`
/// subcommand. Both entry points parse them with [`VerifyArgs::parse`] and
/// run them with [`VerifyArgs::run`].
#[derive(Debug, Default, PartialEq)]
pub struct VerifyArgs {
    /// `--demo-broken`: verify the seeded defects of [`run_broken_demo`]
    /// instead of the tree; `only` is then ignored.
    demo_broken: bool,
    /// `--json`: print [`VerifyReport::to_json`] instead of the text report.
    json: bool,
    /// `--only SECTION`: run one section of [`SECTION_TITLES`].
    only: Option<String>,
    /// `--export-schematic DIR`: first write the canonical circuits'
    /// graphviz/JSON schematics into `DIR`.
    export_schematic: Option<String>,
}

impl VerifyArgs {
    /// Parse a verify argument list (the flags only, without the program
    /// or subcommand name). An unknown flag, or a flag missing its value,
    /// is an error that names it.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--demo-broken" => out.demo_broken = true,
                "--json" => out.json = true,
                "--only" => {
                    let name = it.next().ok_or_else(|| {
                        format!(
                            "--only needs a section name (one of: {})",
                            SECTION_TITLES.join(", ")
                        )
                    })?;
                    out.only = Some(name.clone());
                }
                "--export-schematic" => {
                    let dir = it
                        .next()
                        .ok_or("--export-schematic needs a directory argument")?;
                    out.export_schematic = Some(dir.clone());
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(out)
    }

    /// Write the schematics if asked, then run the sweep and print its
    /// report on stdout. The error is the message for stderr: a failed
    /// export, an unknown section, or a report with errors (the gate
    /// fails).
    pub fn run(&self) -> Result<(), String> {
        if let Some(dir) = &self.export_schematic {
            let written = crate::descriptor::export_schematics(std::path::Path::new(dir))
                .map_err(|e| format!("schematic export failed: {e}"))?;
            for p in written {
                print_stderr(&format!("wrote {}\n", p.display()));
            }
        }
        let report = if self.demo_broken {
            run_broken_demo()
        } else {
            run_sections(self.only.as_deref())?
        };
        if self.json {
            print_stdout(&format!("{}\n", report.to_json()))?;
        } else {
            print_stdout(&report.render())?;
        }
        if report.has_errors() {
            Err("static verification failed".to_owned())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_verifies_clean() {
        let report = run_all();
        assert!(
            !report.has_errors(),
            "in-tree configuration must verify:\n{}",
            report.render()
        );
        let total: usize = report.sections.iter().map(|s| s.checks).sum();
        assert!(total > 150, "expected a substantive sweep, got {total}");
        let titles: Vec<&str> = report.sections.iter().map(|s| s.title.as_str()).collect();
        assert_eq!(titles, SECTION_TITLES.to_vec());
    }

    #[test]
    fn only_filter_runs_one_section_and_rejects_unknown_names() {
        let report = run_sections(Some("pg-words")).expect("valid section");
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.sections[0].title, "pg-words");
        assert!(!report.has_errors(), "{}", report.render());
        let err = run_sections(Some("no-such-section")).unwrap_err();
        assert!(err.contains("no-such-section"));
        assert!(err.contains("pg-words"), "must list the vocabulary");
    }

    #[test]
    fn broken_demo_fails_with_wire_level_diagnostics() {
        let report = run_broken_demo();
        assert!(report.has_errors());
        let rendered = report.render();
        assert!(rendered.contains("lut-covers-dynorm-range"));
        assert!(rendered.contains("log-zero-survives-exp"));
        assert!(rendered.contains("error-tv-bound"));
        assert!(rendered.contains("lut-step"));
        assert!(rendered.contains("under-claims"));
        assert!(rendered.contains("II = 1"));
        assert!(rendered.contains("demo-broken:overclaimed-batch-width"));
        assert!(rendered.contains("FAILED"));
        // The error-propagation finding carries a wire-level trace.
        let errsec = report
            .sections
            .iter()
            .find(|s| s.title == "error-propagation")
            .expect("section present");
        let tv = errsec
            .errors()
            .find(|f| f.check == "error-tv-bound")
            .expect("tv finding present");
        assert!(tv.provenance.iter().any(|l| l.starts_with("lut-step")));
        // The wire-level trace names the ROM by its LutSpec id.
        assert!(tv.provenance.iter().any(|l| l.contains("Lut[table-exp](")));
        assert!(tv.bound.unwrap() > tv.limit.unwrap());
        // The argmax finding carries its own numbers: the needed margin
        // (2 × the per-label bound) against the declared margin.
        let argmax = errsec
            .errors()
            .find(|f| f.check == "error-argmax-margin")
            .expect("argmax finding present");
        assert_eq!((argmax.bound, argmax.limit), (Some(2.0), Some(0.1)));
        // The descriptor-drift demo fails with path+pin provenance.
        let descsec = report
            .sections
            .iter()
            .find(|s| s.title == "descriptor-drift")
            .expect("descriptor section present");
        let census = descsec
            .errors()
            .find(|f| f.check == "census-drift")
            .expect("census drift present");
        assert!(census
            .provenance
            .iter()
            .any(|l| l.contains("traverse/step3") && l.contains("bit(out")));
    }

    #[test]
    fn json_report_is_well_formed_and_structured() {
        let report = run_broken_demo();
        let json = report.to_json();
        // Structural sanity without a JSON parser: balanced braces and
        // brackets outside string literals, and the structured fields
        // present.
        let skeleton: String = {
            let mut out = String::new();
            let mut in_str = false;
            let mut esc = false;
            for c in json.chars() {
                match (in_str, esc, c) {
                    (true, true, _) => esc = false,
                    (true, false, '\\') => esc = true,
                    (true, false, '"') => in_str = false,
                    (true, false, _) => {}
                    (false, _, '"') => in_str = true,
                    (false, _, c) => out.push(c),
                }
            }
            out
        };
        let balance = |open: char, close: char| {
            skeleton.chars().filter(|&c| c == open).count()
                == skeleton.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(json.starts_with("{\"schema_version\":1,\"status\":\"failed\""));
        assert!(json.contains("\"check\":\"error-tv-bound\""));
        assert!(json.contains("\"bound\":"));
        assert!(json.contains("\"limit\":0.02"));
        assert!(json.contains("\"provenance\":["));
        // The layout DESIGN.md §13 documents: a section's `notes` is a
        // count, a finding without a bound or limit writes `null`, and the
        // argmax finding carries its own margins.
        assert!(json
            .contains("{\"title\":\"error-propagation\",\"checks\":1,\"notes\":0,\"findings\":[{"));
        assert!(json.contains("\"bound\":null,\"limit\":null,\"provenance\":["));
        assert!(json.contains("\"bound\":2,\"limit\":0.1,\"provenance\":["));
        // No raw control characters survive escaping.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));

        let clean = run_all().to_json();
        assert!(clean.starts_with("{\"schema_version\":1,\"status\":\"passed\""));
        assert!(clean.contains("{\"title\":\"pg-words\",\"checks\":4,\"notes\":0,\"findings\":[]}"));
    }

    #[test]
    fn verify_args_parse_and_refuse_missing_values() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let all = [
            "--json",
            "--demo-broken",
            "--only",
            "lanes",
            "--export-schematic",
            "d",
        ];
        let parsed = VerifyArgs::parse(&to_vec(&all)).unwrap();
        let want = VerifyArgs {
            demo_broken: true,
            json: true,
            only: Some("lanes".to_owned()),
            export_schematic: Some("d".to_owned()),
        };
        assert_eq!(parsed, want);
        assert_eq!(VerifyArgs::parse(&[]), Ok(VerifyArgs::default()));
        for bad in [&["--only"][..], &["--export-schematic"], &["--jsn"]] {
            assert!(VerifyArgs::parse(&to_vec(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        let mut section = SectionReport::new("a\"b");
        section.push(Finding {
            severity: Severity::Error,
            check: "c\\d".into(),
            message: "line\nbreak".into(),
            provenance: vec!["p\"q".into()],
            bound: Some(0.25),
            limit: Some(f64::INFINITY),
        });
        let json = VerifyReport {
            sections: vec![section],
        }
        .to_json();
        assert!(json.contains(r#"{"title":"a\"b","#), "{json}");
        assert!(
            json.contains(
                r#""check":"c\\d","message":"line\nbreak","bound":0.25,"limit":null,"provenance":["p\"q"]"#
            ),
            "{json}"
        );
        assert!(json::parse(&json).is_ok(), "{json}");
    }
}
