//! Abstract interpretation of a [`Netlist`]: static wire ranges and
//! fixed-point format checks.
//!
//! [`analyze`] walks the same structure [`Netlist::step`] executes —
//! components in topological build order, then a register latch — but over
//! the [`Interval`] domain instead of concrete values. Register outputs
//! start at the reset value `[0, 0]` and grow by hull with their `d`-input
//! interval until a fixed point is reached; because the abstract state only
//! ever grows, the iteration is a monotone ascent and converges in at most
//! one pass per pipeline stage. Circuits that do not converge within
//! [`MAX_PASSES`] passes are *widened* (registers jump to `(-∞, ∞)`),
//! which keeps the result sound at the cost of precision.
//!
//! The error pass ([`crate::errprop::analyze_errors`]) runs over the same
//! interpreter with its own domain: one register fixpoint, one index of
//! driving components and one provenance walker serve both.
//!
//! # Relational refinement for DyNorm
//!
//! A pure interval domain cannot see that the broadcast subtract
//! `s - max(s, …)` of the DyNorm datapath is never positive, and would
//! report a spurious positive range for the exp-stage input. The analyzer
//! therefore tracks one relational fact alongside the intervals: for every
//! `Max` component, the set of wires its output structurally dominates
//! (is `>=` of) within the current cycle. A `Sub` whose subtrahend
//! dominates its minuend gets the exact upper bound `0`, which is
//! precisely the DyNorm invariant "the best label maps to `exp(0)`".

use std::collections::BTreeSet;

use coopmc_fixed::QFormat;
use coopmc_sim::{Component, Netlist, Wire};

use crate::interval::Interval;

/// Register fixpoint passes before a still-growing register loop is
/// widened to top.
pub const MAX_PASSES: usize = 64;

/// Interior sample count used to bound LUT transfer functions.
const LUT_SAMPLES: usize = 256;

/// One abstract value per wire, as a netlist fixpoint leaves them, with
/// the index of each wire's driving component for provenance.
#[derive(Debug)]
pub(crate) struct Interpretation<T> {
    pub(crate) values: Vec<T>,
    driven_by: Vec<Option<usize>>,
    pub(crate) passes: usize,
    pub(crate) widened: bool,
}

/// The netlist interpreter both passes share. Starting from `values`, it
/// sets every component's output to `transfer(index, component, values)`
/// in build order, then joins each register's `q` with its `d` through
/// `join(q, d)`, and repeats until no register changes. After
/// [`MAX_PASSES`] passes every `q` is set to `top` and the components run
/// once more.
pub(crate) fn interpret<T: Copy + PartialEq>(
    netlist: &Netlist,
    mut values: Vec<T>,
    top: T,
    transfer: impl Fn(usize, &Component, &[T]) -> T,
    join: impl Fn(T, T) -> T,
) -> Interpretation<T> {
    let propagate = |values: &mut Vec<T>| {
        for (c, comp) in netlist.components().iter().enumerate() {
            values[comp.out()] = transfer(c, comp, values);
        }
    };
    let mut passes = 0;
    let mut widened = false;
    loop {
        propagate(&mut values);
        passes += 1;
        let mut changed = false;
        for &(d, q) in netlist.registers() {
            let joined = join(values[q], values[d]);
            if joined != values[q] {
                values[q] = joined;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if passes >= MAX_PASSES {
            for &(_, q) in netlist.registers() {
                values[q] = top;
            }
            propagate(&mut values);
            widened = true;
            break;
        }
    }
    let mut driven_by = vec![None; netlist.n_wires()];
    for (c, comp) in netlist.components().iter().enumerate() {
        driven_by[comp.out()] = Some(c);
    }
    Interpretation {
        values,
        driven_by,
        passes,
        widened,
    }
}

impl<T> Interpretation<T> {
    /// Provenance trace for `wire`: one `line(wire, driving component)`
    /// per wire of the driving chain, up to `depth` levels of operands,
    /// innermost first. No component drives an input or a register.
    pub(crate) fn provenance(
        &self,
        netlist: &Netlist,
        wire: Wire,
        depth: usize,
        line: impl Fn(Wire, Option<&Component>) -> String,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let mut frontier = vec![wire];
        let mut seen = BTreeSet::new();
        for _ in 0..depth {
            let mut next = Vec::new();
            for w in frontier {
                if !seen.insert(w) {
                    continue;
                }
                let comp = self.driven_by[w].map(|c| &netlist.components()[c]);
                out.push(line(w, comp));
                next.extend(comp.map_or_else(Vec::new, Component::operands));
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }
}

/// `Name(wA, wB)`: a component applied to its operand wires.
pub(crate) fn application(name: &str, comp: &Component) -> String {
    let ops: Vec<String> = comp.operands().iter().map(|o| format!("w{o}")).collect();
    format!("{name}({})", ops.join(", "))
}

/// Severity of a diagnostic. Only [`Severity::Error`] fails the
/// `coopmc-verify` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing wrong, but the configuration is wasteful.
    Note,
    /// Suspicious but not unsound (e.g. precision loss).
    Warning,
    /// A violated range or bit-width contract.
    Error,
}

/// What a [`WireDiagnostic`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// The wire's value range escapes its format: hardware would saturate
    /// (or wrap) on reachable values.
    Overflow,
    /// The analyzer could not bound the wire (widened register loop).
    Unbounded,
    /// The wire's whole reachable range collapses onto one or two grid
    /// points of its format — the fractional bits cannot distinguish
    /// reachable values.
    PrecisionLoss,
    /// The wire uses a small fraction of its format's span: saturation
    /// logic is unreachable and integer bits are over-provisioned.
    UnreachableSaturation,
}

/// A finding about one wire, with provenance.
#[derive(Debug, Clone)]
pub struct WireDiagnostic {
    /// The offending wire.
    pub wire: Wire,
    /// What kind of finding.
    pub kind: DiagnosticKind,
    /// How bad it is.
    pub severity: Severity,
    /// The statically inferred range of the wire.
    pub interval: Interval,
    /// The format the wire was checked against.
    pub format: QFormat,
    /// Human-readable explanation.
    pub message: String,
    /// Provenance: the driving components of the wire, innermost first
    /// (`wN = Kind(operands) ∈ interval` lines).
    pub trace: Vec<String>,
}

impl std::fmt::Display for WireDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}: {}", self.wire, self.message)?;
        for line in &self.trace {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// The result of analyzing one netlist.
#[derive(Debug)]
pub struct RangeAnalysis {
    state: Interpretation<Interval>,
}

impl RangeAnalysis {
    /// The inferred enclosure of `wire`.
    pub fn interval(&self, wire: Wire) -> Interval {
        self.state.values[wire]
    }

    /// Register fixed-point iterations performed.
    pub fn iterations(&self) -> usize {
        self.state.passes
    }

    /// True if the register fixed point did not converge and the analysis
    /// fell back to `(-∞, ∞)` register bounds.
    pub fn widened(&self) -> bool {
        self.state.widened
    }

    /// Provenance trace for `wire`: the chain of driving components, up to
    /// `depth` levels of operands, innermost first.
    pub fn provenance(&self, netlist: &Netlist, wire: Wire, depth: usize) -> Vec<String> {
        self.state.provenance(netlist, wire, depth, |w, comp| {
            let source = match comp {
                Some(c) => application(c.kind(), c),
                None if netlist.inputs().contains(&w) => "input".to_string(),
                None if netlist.registers().iter().any(|&(_, q)| q == w) => "register".to_string(),
                None => "floating".to_string(),
            };
            format!("w{w} = {source} ∈ {}", self.interval(w))
        })
    }

    /// Check wires against their intended formats, producing diagnostics.
    ///
    /// Every `(wire, format)` pair yields at most one diagnostic: overflow
    /// and unboundedness are errors, precision loss is a warning,
    /// unreachable saturation (occupancy below 25% of the format's span)
    /// is a note.
    pub fn check_wires(
        &self,
        netlist: &Netlist,
        checks: &[(Wire, QFormat)],
    ) -> Vec<WireDiagnostic> {
        let mut out = Vec::new();
        for &(wire, format) in checks {
            let iv = self.interval(wire);
            let diag = |kind, severity, message| WireDiagnostic {
                wire,
                kind,
                severity,
                interval: iv,
                format,
                message,
                trace: self.provenance(netlist, wire, 3),
            };
            if !iv.is_finite() {
                out.push(diag(
                    DiagnosticKind::Unbounded,
                    Severity::Error,
                    format!("range {iv} is unbounded (register loop was widened); cannot prove {format} safe"),
                ));
            } else if !format.covers(iv.lo, iv.hi) {
                let (flo, fhi) = format.range();
                out.push(diag(
                    DiagnosticKind::Overflow,
                    Severity::Error,
                    format!(
                        "range {iv} escapes {format} = [{flo}, {fhi}]: reachable values saturate"
                    ),
                ));
            } else if iv.width() > 0.0 && iv.width() < format.resolution() {
                out.push(diag(
                    DiagnosticKind::PrecisionLoss,
                    Severity::Warning,
                    format!(
                        "range {iv} is narrower than one {format} grid step ({}): all reachable values collapse",
                        format.resolution()
                    ),
                ));
            } else {
                let occ = format.occupancy(iv.lo, iv.hi);
                if occ < 0.25 {
                    out.push(diag(
                        DiagnosticKind::UnreachableSaturation,
                        Severity::Note,
                        format!(
                            "range {iv} occupies {:.1}% of {format}: saturation is unreachable, integer bits are over-provisioned",
                            occ * 100.0
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Run the range analysis over `netlist` with the given input enclosures.
///
/// Inputs not named in `inputs` keep the simulator's initial value `[0, 0]`
/// (the same behaviour as never driving them in [`Netlist::step`]).
pub fn analyze(netlist: &Netlist, inputs: &[(Wire, Interval)]) -> RangeAnalysis {
    let n = netlist.n_wires();
    let mut iv = vec![Interval::point(0.0); n];
    for &(w, i) in inputs {
        iv[w] = i;
    }

    // Structural dominance: dom[w] = wires that w is provably >= of,
    // within one combinational cycle. Only Max components create facts.
    let mut dom: Vec<BTreeSet<Wire>> = vec![BTreeSet::new(); n];
    for comp in netlist.components() {
        if let Component::Max { a, b, out } = *comp {
            let mut d: BTreeSet<Wire> = [a, b].into();
            d.extend(dom[a].iter().copied());
            d.extend(dom[b].iter().copied());
            dom[out] = d;
        }
    }

    let transfer = |_: usize, comp: &Component, iv: &[Interval]| match *comp {
        Component::Const { value, .. } => Interval::point(value),
        Component::Add { a, b, .. } => iv[a] + iv[b],
        Component::Sub { a, b, .. } => {
            let mut r = iv[a] - iv[b];
            // Relational refinement: b >= a structurally (b is a max over
            // a set containing a) pins the upper bound, and symmetrically
            // for the lower bound.
            if a == b || dom[b].contains(&a) {
                r.hi = r.hi.min(0.0);
                r.lo = r.lo.min(r.hi);
            }
            if dom[a].contains(&b) {
                r.lo = r.lo.max(0.0);
                r.hi = r.hi.max(r.lo);
            }
            r
        }
        Component::Max { a, b, .. } => iv[a].max(iv[b]),
        Component::Ge { a, b, .. } => iv[a].ge(iv[b]),
        Component::Mux { sel, lo, hi, .. } => Interval::mux(iv[sel], iv[lo], iv[hi]),
        Component::Lut {
            input, ref spec, ..
        } => iv[input].lut(&*spec.f, LUT_SAMPLES),
    };
    // Latch: register outputs grow by hull with their d-interval.
    let state = interpret(netlist, iv, Interval::top(), transfer, Interval::hull);
    RangeAnalysis { state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_sim::LutSpec;
    use std::rc::Rc;

    #[test]
    fn combinational_ranges_are_exact() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let s = n.add(a, b);
        let c = n.constant(10.0);
        let t = n.sub(c, s);
        let ra = analyze(
            &n,
            &[(a, Interval::new(-1.0, 2.0)), (b, Interval::new(0.0, 3.0))],
        );
        assert_eq!(ra.interval(s), Interval::new(-1.0, 5.0));
        assert_eq!(ra.interval(t), Interval::new(5.0, 11.0));
        assert!(!ra.widened());
    }

    #[test]
    fn dynorm_subtract_gets_zero_upper_bound() {
        // s0, s1 -> max -> s0 - max: plain intervals would say [-8, 8];
        // the dominance refinement proves <= 0.
        let mut n = Netlist::new();
        let s0 = n.input();
        let s1 = n.input();
        let m = n.max(s0, s1);
        let sh = n.sub(s0, m);
        let ra = analyze(
            &n,
            &[
                (s0, Interval::new(-8.0, 0.0)),
                (s1, Interval::new(-8.0, 0.0)),
            ],
        );
        assert_eq!(ra.interval(sh), Interval::new(-8.0, 0.0));
    }

    #[test]
    fn register_fixpoint_converges_for_shift_registers() {
        let mut n = Netlist::new();
        let a = n.input();
        let q1 = n.register(a);
        let q2 = n.register(q1);
        let ra = analyze(&n, &[(a, Interval::new(-3.0, 5.0))]);
        // Reset value 0 is reachable, so the hull includes it.
        assert_eq!(ra.interval(q2), Interval::new(-3.0, 5.0));
        assert!(!ra.widened());
    }

    #[test]
    fn slow_register_chains_widen_instead_of_hanging() {
        // A +1-per-stage chain much deeper than the iteration cap keeps
        // growing the hull every iteration; the analysis must widen to top
        // rather than loop to the true (distant) fixed point.
        let mut n = Netlist::new();
        let one = n.constant(1.0);
        let mut w = one;
        for _ in 0..80 {
            let r = n.register(w);
            w = n.add(r, one);
        }
        let ra = analyze(&n, &[]);
        assert!(ra.widened());
        assert!(!ra.interval(w).is_finite());
    }

    #[test]
    fn lut_component_is_bounded_by_sampling() {
        let mut n = Netlist::new();
        let a = n.input();
        let e = n.lut(a, LutSpec::opaque("exp", Rc::new(|x: f64| x.exp())));
        let ra = analyze(&n, &[(a, Interval::new(-2.0, 0.0))]);
        let iv = ra.interval(e);
        assert!(iv.contains(1.0) && iv.contains((-2.0f64).exp()));
        assert!(iv.hi <= 1.0 + 1e-12);
    }

    #[test]
    fn check_wires_reports_overflow_with_provenance() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let s = n.add(a, b);
        let ra = analyze(
            &n,
            &[(a, Interval::new(0.0, 6.0)), (b, Interval::new(0.0, 6.0))],
        );
        let fmt = QFormat::new(3, 2).unwrap(); // [-8, 7.75]
        let diags = ra.check_wires(&n, &[(s, fmt)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::Overflow);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].trace.iter().any(|l| l.contains("Add")));
    }

    #[test]
    fn check_wires_notes_overprovisioned_formats() {
        let mut n = Netlist::new();
        let a = n.input();
        let s = n.add(a, a);
        let ra = analyze(&n, &[(a, Interval::new(0.0, 0.5))]);
        let wide = QFormat::baseline32();
        let diags = ra.check_wires(&n, &[(s, wide)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::UnreachableSaturation);
        assert_eq!(diags[0].severity, Severity::Note);
    }
}
