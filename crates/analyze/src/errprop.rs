//! Static quantization-error propagation: from per-wire rounding errors to
//! an end-to-end bound on the sampled distribution.
//!
//! The range analysis ([`crate::netcheck`]) proves values *fit*; this pass
//! proves they are *accurate*. It carries a `(range, worst_case_abs_error)`
//! pair per wire — the range from the interval domain, the error a sound
//! bound on `|fixed-point value − real-valued reference|` — and composes
//! the per-stage contributions of the DyNorm → TableExp datapath into a
//! bound on how far the fixed-point probability vector `P_x` can drift
//! from the float32 one.
//!
//! # The error lattice
//!
//! Errors live in `[0, +∞]` ordered by `≤`; every transfer function is
//! monotone, so the register fixpoint is the same ascent the range analysis
//! performs, run by its interpreter ([`crate::netcheck`]). Composition
//! rules:
//!
//! - `add`/`sub`: errors add (`|a±b − (a'±b')| ≤ e_a + e_b`).
//! - `max`: errors max (`|max(a,b) − max(a',b')| ≤ max(e_a, e_b)`).
//! - `ge`: 0 if the statically known operand gap exceeds the combined
//!   operand error (the comparison provably cannot flip), else 1.
//! - `mux`: the selected branch's error, plus the spread between the two
//!   branch ranges when the select could flip.
//! - TableExp `lut`: input error amplified through `exp` (derivative
//!   `e^x`), plus the floor-addressing step error
//!   ([`TableExp::step_error_factor`]), the ROM output quantization
//!   ([`TableExp::output_quantization_error`]) and the flush-to-zero tail
//!   ([`TableExp::flush_tail_mass`]) — every constant taken from the
//!   kernel itself, never re-derived here.
//!
//! # From per-label error to a distribution bound
//!
//! With DyNorm the true shifted scores satisfy `max_i x_i = 0`, so the
//! true unnormalized mass `Y = Σ e^{x_i} ≥ 1`, and the fixed-point best
//! label reads ROM entry 0 = 1.0 exactly (the `dynorm-pins-unity`
//! contract), so `Ŷ ≥ 1` too. For nonnegative vectors,
//! `TV(p̂, p) ≤ ‖ŷ − y‖₁ / max(Y, Ŷ)`, and the per-label error splits into
//! a *relative* part `y_i·ρ` (step error and exp amplification scale with
//! the label's own mass) and an *absolute* floor `κ` (output quantization,
//! flush tail), giving `TV ≤ ρ + N·κ` — independent of how the mass is
//! distributed. [`ErrorBudget`] records each named contribution so a
//! failing configuration can report its dominant error source.

use coopmc_fixed::Rounding;
use coopmc_kernels::exp::TableExp;
use coopmc_sim::{Component, Netlist, Wire};

use crate::contracts::{ContractViolation, DatapathConfig};
use crate::netcheck::{application, interpret, Interpretation, RangeAnalysis, Severity};

/// One named contribution to the end-to-end error budget.
#[derive(Debug, Clone)]
pub struct ErrorContribution {
    /// Stable identifier of the error source.
    pub source: &'static str,
    /// The contribution's share of the total-variation bound.
    pub amount: f64,
    /// Human-readable derivation with the concrete numbers.
    pub detail: String,
}

/// The statically derived error budget of one DyNorm → TableExp datapath
/// configuration, for an `n_labels` workload.
#[derive(Debug, Clone)]
pub struct ErrorBudget {
    /// The configuration's name.
    pub config: String,
    /// Labels per probability vector the bound is stated for.
    pub n_labels: usize,
    /// Additive factor accumulations per label score.
    pub factor_ops: u64,
    /// Worst-case error on the exp-stage input (post-DyNorm shifted score).
    pub input_error: f64,
    /// Relative error factor `ρ`: `|ŷ_i − y_i| ≤ y_i·ρ + κ`.
    pub rel_factor: f64,
    /// Absolute per-label error floor `κ`.
    pub abs_floor: f64,
    /// End-to-end total-variation bound on the categorical draw.
    pub tv_bound: f64,
    /// Per-label absolute error bound on the normalized `P_x` entries
    /// (`‖p̂ − p‖∞ ≤ ‖p̂ − p‖₁ = 2·TV`).
    pub per_label_abs: f64,
    /// The named contributions, in pipeline order.
    pub contributions: Vec<ErrorContribution>,
}

impl ErrorBudget {
    /// The largest single contribution — what a failing configuration
    /// should fix first.
    pub fn dominant(&self) -> &ErrorContribution {
        self.contributions
            .iter()
            .max_by(|a, b| a.amount.total_cmp(&b.amount))
            .expect("budget always has contributions")
    }

    /// Relative error bound for any label whose true probability is at
    /// least `p` (e.g. `1/n_labels` for the uniform-mass floor).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly positive.
    pub fn per_label_rel_at(&self, p: f64) -> f64 {
        assert!(p > 0.0, "probability floor must be positive");
        self.per_label_abs / p
    }

    /// The error budget as provenance lines, one per contribution,
    /// dominant first.
    pub fn trace(&self) -> Vec<String> {
        let mut sorted: Vec<&ErrorContribution> = self.contributions.iter().collect();
        sorted.sort_by(|a, b| b.amount.total_cmp(&a.amount));
        sorted
            .iter()
            .map(|c| format!("{} ≤ {:.3e}: {}", c.source, c.amount, c.detail))
            .collect()
    }
}

/// Propagate worst-case quantization errors through the behavioral
/// pipeline (factor quantization → fixed accumulation → DyNorm subtract →
/// TableExp) for one configuration.
///
/// Assumes the range contracts hold (no accumulator saturation) — exactly
/// what [`crate::contracts::check_datapath`] and the netlist range section
/// prove; the `coopmc-verify` sweep always runs both.
pub fn propagate_datapath(cfg: &DatapathConfig, n_labels: usize, factor_ops: u64) -> ErrorBudget {
    assert!(n_labels > 0, "need at least one label");
    assert!(factor_ops > 0, "need at least one factor accumulation");
    let table = TableExp::with_range(cfg.size_lut, cfg.bit_lut, cfg.lut_range);
    let q = cfg.acc.rounding_error_bound(Rounding::Nearest);

    // Accumulation: each factor is quantized once onto the accumulator
    // grid; the fixed-point adds themselves are exact (no saturation by
    // the range proof).
    let score_err = factor_ops as f64 * q;
    // DyNorm: max of on-grid values is exact, the broadcast subtract is
    // exact on-grid, but the *reference* shift differs — the shifted score
    // carries the label's own error plus the argmax label's.
    let input_error = 2.0 * score_err;

    // Relative part ρ: exp amplification of the input error plus the
    // amplified LUT step error.
    let amp = input_error.exp();
    let c_amp = input_error.exp_m1();
    let c_step = amp * table.step_error_factor();
    let rel_factor = c_amp + c_step;

    // Absolute floor κ: ROM output quantization plus the flush tail
    // (widened by the input error: a label can be pushed past the edge).
    let c_quant = table.output_quantization_error();
    let c_tail = amp * table.flush_tail_mass();
    let abs_floor = c_quant + c_tail;

    // TV ≤ ρ + N·κ (and never above 1).
    let tv_bound = (rel_factor + n_labels as f64 * abs_floor).min(1.0);
    let per_label_abs = (2.0 * tv_bound).min(1.0);

    let contributions = vec![
        ErrorContribution {
            source: "score-quantization",
            amount: c_amp,
            detail: format!(
                "{factor_ops} factor quantizations of ±{q:.3e} on {}, doubled by the DyNorm \
                 subtract and amplified through exp",
                cfg.acc
            ),
        },
        ErrorContribution {
            source: "lut-step",
            amount: c_step,
            detail: format!(
                "floor-addressed step {:.3e} over-reads e^x by up to the factor e^step−1 = {:.3e}",
                table.step_lut(),
                table.step_error_factor()
            ),
        },
        ErrorContribution {
            source: "lut-output-quantization",
            amount: n_labels as f64 * c_quant,
            detail: format!(
                "{n_labels} labels × half-ulp {:.3e} of the {}-bit ROM output grid",
                c_quant,
                table.bit_lut()
            ),
        },
        ErrorContribution {
            source: "lut-flush-tail",
            amount: n_labels as f64 * c_tail,
            detail: format!(
                "{n_labels} labels × e^-{} = {:.3e} mass discarded at the flush-to-zero edge",
                cfg.lut_range,
                table.flush_tail_mass()
            ),
        },
    ];

    ErrorBudget {
        config: cfg.name.clone(),
        n_labels,
        factor_ops,
        input_error,
        rel_factor,
        abs_floor,
        tv_bound,
        per_label_abs,
        contributions,
    }
}

/// A declared accuracy contract for one datapath configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityContract {
    /// Maximum admissible total-variation bound against float32.
    pub tv_limit: f64,
    /// Float32 probability margin (best minus runner-up label) above which
    /// argmax agreement must be *guaranteed*; `None` for area-optimized
    /// points that make no argmax claim.
    pub argmax_margin: Option<f64>,
}

impl QualityContract {
    /// The paper's Table III quality claim: TableExp inference is
    /// indistinguishable from float32 — TV within 2%, argmax guaranteed
    /// whenever float32 separates the top labels by at least 10%.
    pub fn paper_tolerance() -> Self {
        Self {
            tv_limit: 0.02,
            argmax_margin: Some(0.10),
        }
    }

    /// The area-optimized 64×8 PG-core point: the coarse step dominates,
    /// so only a loose TV bound is claimed and no argmax guarantee.
    pub fn area_optimized() -> Self {
        Self {
            tv_limit: 0.5,
            argmax_margin: None,
        }
    }
}

/// The quality contract declared for a configuration of
/// [`crate::contracts::in_tree_configs`], by name. Figure-sweep points
/// deliberately span broken geometries and make no quality claim (`None`).
pub fn declared_contract(name: &str) -> Option<QualityContract> {
    if name.starts_with("table3-area")
        || name.starts_with("ablation-logfusion")
        || name.starts_with("ablation-dynorm-sharing")
    {
        Some(QualityContract::paper_tolerance())
    } else if name.starts_with("pgcore-default")
        || name.starts_with("cli-default")
        || name.starts_with("pgpipe:")
    {
        Some(QualityContract::area_optimized())
    } else {
        None
    }
}

/// Check one configuration's statically derived [`ErrorBudget`] against a
/// declared [`QualityContract`]. Each violation comes with the two numbers
/// its check compared, `(bound, limit)`: the total-variation bound against
/// the TV limit, or the margin argmax agreement needs (`2 ×
/// per_label_abs`) against the declared argmax margin. Violations carry
/// the budget's dominant error source in their message.
pub fn check_quality(
    cfg: &DatapathConfig,
    contract: &QualityContract,
    n_labels: usize,
    factor_ops: u64,
) -> (ErrorBudget, Vec<(ContractViolation, f64, f64)>) {
    let budget = propagate_datapath(cfg, n_labels, factor_ops);
    let mut out = Vec::new();
    if budget.tv_bound > contract.tv_limit {
        let violation = ContractViolation {
            config: cfg.name.clone(),
            contract: "error-tv-bound",
            severity: Severity::Error,
            message: format!(
                "static total-variation bound {:.3e} exceeds the declared limit {:.3e} \
                 ({} labels, {} factor ops); dominant error source: {} ({:.3e})",
                budget.tv_bound,
                contract.tv_limit,
                n_labels,
                factor_ops,
                budget.dominant().source,
                budget.dominant().amount
            ),
        };
        out.push((violation, budget.tv_bound, contract.tv_limit));
    }
    if let Some(margin) = contract.argmax_margin {
        let needed = 2.0 * budget.per_label_abs;
        if needed > margin {
            let violation = ContractViolation {
                config: cfg.name.clone(),
                contract: "error-argmax-margin",
                severity: Severity::Error,
                message: format!(
                    "argmax agreement needs a float32 margin of {needed:.3e} \
                     (2 × per-label bound {:.3e}), above the declared margin {margin:.3e}",
                    budget.per_label_abs
                ),
            };
            out.push((violation, needed, margin));
        }
    }
    (budget, out)
}

/// Per-LUT error model for the wire-level pass. Undeclared LUT components
/// get an unbounded (infinite) output error — the pass is sound by
/// default and forces callers to state what each ROM computes.
#[derive(Debug, Clone)]
pub enum LutErrorModel {
    /// The LUT is a [`TableExp`] ROM; its reference function is `e^x`.
    TableExp(TableExp),
    /// The LUT computes its netlist function exactly; input error is
    /// amplified by this declared Lipschitz bound.
    Lipschitz(f64),
}

/// How a [`LutErrorModel`] is attached to the netlist's LUT instances.
///
/// Since LUTs carry a named [`coopmc_sim::LutSpec`], the natural key is the
/// ROM id — one declaration covers every instance of the same table (all
/// `lanes` copies of `"table-exp"` in a PG core). Index keys remain for
/// pinpointing a single component when two same-id ROMs need different
/// models. A LUT matched by *neither* key is undeclared and propagates
/// `+∞`, exactly as before ids existed — soundness never hinges on a ROM
/// merely having a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LutKey {
    /// Match the component at this index in [`Netlist::components`].
    Index(usize),
    /// Match every LUT whose [`coopmc_sim::LutSpec::id`] equals this id.
    Id(&'static str),
}

impl LutKey {
    fn matches(&self, index: usize, comp: &Component) -> bool {
        match self {
            LutKey::Index(i) => *i == index,
            LutKey::Id(id) => comp.lut_spec().is_some_and(|s| s.id == *id),
        }
    }
}

/// The per-wire worst-case errors of one netlist.
#[derive(Debug)]
pub struct ErrorAnalysis {
    state: Interpretation<f64>,
}

impl ErrorAnalysis {
    /// Sound upper bound on `|fixed wire value − reference value|`.
    pub fn error(&self, wire: Wire) -> f64 {
        self.state.values[wire]
    }

    /// True if the register error fixpoint did not converge and register
    /// errors were widened to `+∞`.
    pub fn widened(&self) -> bool {
        self.state.widened
    }

    /// Provenance trace for `wire`: the chain of driving components with
    /// their error bounds, innermost first, up to `depth` operand levels.
    pub fn provenance(&self, netlist: &Netlist, wire: Wire, depth: usize) -> Vec<String> {
        self.state
            .provenance(netlist, wire, depth, |w, comp| match comp {
                Some(c) => format!(
                    "w{w} = {} err ≤ {:.3e}",
                    application(&c.label(), c),
                    self.error(w)
                ),
                None => format!("w{w} err ≤ {:.3e}", self.error(w)),
            })
    }
}

/// Worst-case output error of a [`TableExp`] LUT given its *fixed-point*
/// input range `[lo, hi]` and input error `e_in` against the reference
/// `e^x` — the single transfer function both the wire-level pass and its
/// tests share.
fn table_exp_error(table: &TableExp, lo: f64, hi: f64, e_in: f64) -> f64 {
    if !e_in.is_finite() || !lo.is_finite() || !hi.is_finite() {
        return f64::INFINITY;
    }
    // Input perturbation through exp: |e^x̂ − e^x| ≤ e^x̂·(e^{e_in} − 1).
    let perturb = hi.exp() * e_in.exp_m1();
    // Kernel-vs-exp error at the fixed input x̂, branch by where x̂ lands.
    let mut kernel = table
        .step_error_bound()
        .min(hi.min(0.0).exp() * table.step_error_factor())
        + table.output_quantization_error();
    if hi > 0.0 {
        // Saturation branch: entry 0 versus e^{x̂} for x̂ ∈ (0, hi].
        kernel = kernel.max(hi.exp_m1());
    }
    if lo < -table.lut_range() {
        // Flush branch: output 0 versus e^{x̂} ≤ the tail mass.
        kernel = kernel.max(table.flush_tail_mass());
    }
    perturb + kernel
}

/// Run the error propagation over `netlist`, reusing the interval
/// enclosures of a prior [`crate::netcheck::analyze`] run on the *same*
/// netlist and inputs.
///
/// `input_errors` declares the worst-case error already present on each
/// input wire (e.g. one accumulator-grid rounding per quantized factor);
/// undeclared inputs are exact. `lut_models` attaches [`LutErrorModel`]s by
/// [`LutKey`] — ROM id or component index; undeclared LUTs propagate `+∞`.
/// Register errors that still grow after
/// [`crate::netcheck::MAX_PASSES`] passes are widened to `+∞`.
pub fn analyze_errors(
    netlist: &Netlist,
    ranges: &RangeAnalysis,
    input_errors: &[(Wire, f64)],
    lut_models: &[(LutKey, LutErrorModel)],
) -> ErrorAnalysis {
    let mut err = vec![0.0f64; netlist.n_wires()];
    for &(w, e) in input_errors {
        assert!(e >= 0.0, "input error bounds must be nonnegative");
        err[w] = e;
    }

    let transfer = |c: usize, comp: &Component, err: &[f64]| match *comp {
        Component::Const { .. } => 0.0,
        Component::Add { a, b, .. } | Component::Sub { a, b, .. } => err[a] + err[b],
        Component::Max { a, b, .. } => err[a].max(err[b]),
        Component::Ge { a, b, .. } => {
            // The comparison flips only if the operand gap can be bridged
            // by the combined operand error.
            let gap = ranges.interval(a) - ranges.interval(b);
            let slack = err[a] + err[b];
            if gap.lo > slack || gap.hi < -slack {
                0.0
            } else {
                1.0
            }
        }
        Component::Mux { sel, lo, hi, .. } => {
            let mut e = err[lo].max(err[hi]);
            if err[sel] > 0.0 {
                // A flipped select swaps branches: add the spread between
                // the two branch ranges.
                e += ranges.interval(lo).hull(ranges.interval(hi)).width();
            }
            e
        }
        Component::Lut { input, .. } => {
            let model = lut_models.iter().find(|(key, _)| key.matches(c, comp));
            let iv = ranges.interval(input);
            match model {
                Some((_, LutErrorModel::TableExp(t))) => {
                    table_exp_error(t, iv.lo, iv.hi, err[input])
                }
                Some((_, LutErrorModel::Lipschitz(l))) => l * err[input],
                None => f64::INFINITY,
            }
        }
    };
    // A register's error rises only where its input's error is larger
    // (not `f64::max`, so a NaN input error leaves the register as is).
    let join = |q: f64, d: f64| if d > q { d } else { q };
    ErrorAnalysis {
        state: interpret(netlist, err, f64::INFINITY, transfer, join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::netcheck::analyze;
    use coopmc_sim::LutSpec;

    fn cfg(name: &str, size: usize, bit: u32) -> DatapathConfig {
        DatapathConfig::coopmc(name, size, bit)
    }

    #[test]
    fn table3_budget_proves_the_paper_tolerance() {
        let (budget, violations) = check_quality(
            &cfg("table3", 1024, 32),
            &QualityContract::paper_tolerance(),
            64,
            5,
        );
        assert!(violations.is_empty(), "{violations:?}");
        assert!(budget.tv_bound < 0.02, "tv {}", budget.tv_bound);
        assert!(2.0 * budget.per_label_abs < 0.10);
        assert_eq!(budget.dominant().source, "lut-step");
    }

    #[test]
    fn four_entry_lut_breaks_the_contract_blaming_the_step() {
        let (budget, violations) = check_quality(
            &cfg("broken-4-entry", 4, 8),
            &QualityContract::paper_tolerance(),
            64,
            5,
        );
        assert!(violations
            .iter()
            .any(|(v, ..)| v.contract == "error-tv-bound" && v.severity == Severity::Error));
        assert_eq!(budget.dominant().source, "lut-step");
        assert!(violations[0].0.message.contains("lut-step"));
        // The trace leads with the dominant source.
        assert!(budget.trace()[0].starts_with("lut-step"));
    }

    #[test]
    fn budget_scales_with_factor_count_and_labels() {
        let c = cfg("scales", 1024, 16);
        let small = propagate_datapath(&c, 8, 1);
        let big = propagate_datapath(&c, 512, 9);
        assert!(big.input_error > small.input_error);
        assert!(big.tv_bound > small.tv_bound);
        assert!(small.tv_bound <= 1.0 && big.tv_bound <= 1.0);
    }

    #[test]
    fn rel_bound_at_uniform_floor_is_consistent() {
        let b = propagate_datapath(&cfg("rel", 1024, 32), 64, 5);
        let rel = b.per_label_rel_at(1.0 / 64.0);
        assert!((rel - b.per_label_abs * 64.0).abs() < 1e-15);
    }

    #[test]
    fn wire_errors_add_through_adders_and_max() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let s = n.add(a, b);
        let m = n.max(a, b);
        let d = n.sub(s, m);
        let ra = analyze(
            &n,
            &[(a, Interval::new(0.0, 1.0)), (b, Interval::new(0.0, 1.0))],
        );
        let ea = analyze_errors(&n, &ra, &[(a, 0.25), (b, 0.5)], &[]);
        assert_eq!(ea.error(s), 0.75);
        assert_eq!(ea.error(m), 0.5);
        assert_eq!(ea.error(d), 1.25);
        assert!(!ea.widened());
    }

    #[test]
    fn decided_comparisons_carry_no_error() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let g = n.ge(a, b);
        let ra = analyze(
            &n,
            &[(a, Interval::new(5.0, 6.0)), (b, Interval::new(0.0, 1.0))],
        );
        // Gap [4, 6] >> combined slack 0.2: cannot flip.
        let ea = analyze_errors(&n, &ra, &[(a, 0.1), (b, 0.1)], &[]);
        assert_eq!(ea.error(g), 0.0);
        // Slack 6.0 bridges the gap: the comparison may flip.
        let ea = analyze_errors(&n, &ra, &[(a, 3.0), (b, 3.0)], &[]);
        assert_eq!(ea.error(g), 1.0);
    }

    #[test]
    fn undeclared_luts_are_unbounded() {
        let mut n = Netlist::new();
        let a = n.input();
        let l = n.lut(a, LutSpec::opaque("identity", std::rc::Rc::new(|x: f64| x)));
        let ra = analyze(&n, &[(a, Interval::new(0.0, 1.0))]);
        // No model at all: the ROM's output error is unbounded.
        let ea = analyze_errors(&n, &ra, &[(a, 0.0)], &[]);
        assert!(ea.error(l).is_infinite());
        // A model keyed to a *different* id must not attach either.
        let miss = [(LutKey::Id("table-exp"), LutErrorModel::Lipschitz(1.0))];
        let ea = analyze_errors(&n, &ra, &[(a, 0.0)], &miss);
        assert!(ea.error(l).is_infinite());
        // Keyed by index or by the right id, the Lipschitz model applies.
        for key in [LutKey::Index(0), LutKey::Id("identity")] {
            let hit = [(key, LutErrorModel::Lipschitz(1.0))];
            let ea = analyze_errors(&n, &ra, &[(a, 0.25)], &hit);
            assert_eq!(ea.error(l), 0.25);
        }
    }

    #[test]
    fn table_exp_wire_transfer_is_sound_pointwise() {
        // Brute-force the transfer function: for every (x̂, x) pair with
        // |x − x̂| ≤ e_in inside the declared range, the modelled error
        // must dominate the actual kernel-vs-reference error.
        use coopmc_kernels::exp::ExpKernel;
        let t = TableExp::new(64, 8);
        let (lo, hi, e_in) = (-20.0, 0.0, 0.01);
        let bound = table_exp_error(&t, lo, hi, e_in);
        let mut worst: f64 = 0.0;
        for i in 0..=2000 {
            let xf = lo + (hi - lo) * i as f64 / 2000.0;
            for d in [-e_in, 0.0, e_in, -e_in / 3.0] {
                let x = xf + d;
                worst = worst.max((t.exp(xf) - x.exp()).abs());
            }
        }
        assert!(worst <= bound, "worst {worst} > bound {bound}");
    }

    #[test]
    fn provenance_names_the_driving_chain() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.add(a, a);
        let ra = analyze(&n, &[(a, Interval::new(0.0, 1.0))]);
        let ea = analyze_errors(&n, &ra, &[(a, 0.125)], &[]);
        let p = ea.provenance(&n, b, 3);
        assert!(p[0].contains("Add"));
        assert!(p.iter().any(|l| l.contains("2.500e-1")));
    }

    #[test]
    fn register_error_fixpoint_converges_and_widens() {
        let mut n = Netlist::new();
        let a = n.input();
        let q = n.register(a);
        let ra = analyze(&n, &[(a, Interval::new(0.0, 1.0))]);
        let ea = analyze_errors(&n, &ra, &[(a, 0.5)], &[]);
        assert_eq!(ea.error(q), 0.5);
        assert!(!ea.widened());

        // A register chain deeper than the iteration cap keeps raising
        // errors every pass and must widen rather than hang.
        let mut n = Netlist::new();
        let a = n.input();
        let mut w = a;
        for _ in 0..80 {
            let r = n.register(w);
            w = n.add(r, a);
        }
        let ra = analyze(&n, &[(a, Interval::new(0.0, 0.0))]);
        let ea = analyze_errors(&n, &ra, &[(a, 1.0)], &[]);
        assert!(ea.widened());
        assert!(ea.error(w).is_infinite());
    }
}
