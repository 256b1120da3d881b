//! Reconcile run-journal cycle totals against the closed-form cycle model.
//!
//! Every journal line carries the sweep's modeled PG/SD/PU cycles as
//! accumulated by the engine while the chain actually ran. This module
//! checks those totals against this crate's closed-form model — PU priced
//! at [`coopmc_kernels::cost::PU_CYCLES`] per update, SD at the sampler's
//! `latency_cycles` formula — so a traced run is evidence that the engine
//! accounting and the hardware model agree, not two models drifting apart.

use coopmc_kernels::cost::PU_CYCLES;
use coopmc_obs::journal::SweepSample;
use coopmc_obs::profile::Kernel;
use coopmc_obs::KernelReport;

use crate::area::SamplerKind;
use crate::cycles::sd_cycles;

/// Outcome of reconciling a journal against the cycle model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReconciliation {
    /// Total variable updates across the reconciled sweeps.
    pub updates: u64,
    /// Journal PG cycle total (engine-side op tally, priced per op).
    pub pg_actual: u64,
    /// Journal SD cycle total.
    pub sd_actual: u64,
    /// Closed-form SD total: `latency_cycles(n_labels) × updates`.
    pub sd_expected: u64,
    /// Journal PU cycle total.
    pub pu_actual: u64,
    /// Closed-form PU total: `PU_CYCLES × updates`.
    pub pu_expected: u64,
}

impl CycleReconciliation {
    /// One-line human-readable summary.
    pub fn report(&self) -> String {
        format!(
            "updates={} pg={} sd={}/{} pu={}/{}",
            self.updates,
            self.pg_actual,
            self.sd_actual,
            self.sd_expected,
            self.pu_actual,
            self.pu_expected
        )
    }
}

/// Reconcile recorded sweeps against the closed-form model for a workload
/// whose every draw is over `n_labels` labels with sampler `kind`.
///
/// SD and PU totals must match the closed-form products **exactly** (both
/// sides are integer cycle counts — there is nothing to round); PG must be
/// positive whenever updates happened (its op mix is workload-dependent, so
/// no closed form exists per sweep).
pub fn reconcile(
    sweeps: &[SweepSample],
    kind: SamplerKind,
    n_labels: usize,
) -> Result<CycleReconciliation, String> {
    if sweeps.is_empty() {
        return Err("no sweeps to reconcile".to_owned());
    }
    let updates: u64 = sweeps.iter().map(|s| s.updates).sum();
    let pg_actual: u64 = sweeps.iter().map(|s| s.pg_cycles).sum();
    let sd_actual: u64 = sweeps.iter().map(|s| s.sd_cycles).sum();
    let pu_actual: u64 = sweeps.iter().map(|s| s.pu_cycles).sum();
    let sd_expected = sd_cycles(kind, n_labels) * updates;
    let pu_expected = PU_CYCLES * updates;
    let r = CycleReconciliation {
        updates,
        pg_actual,
        sd_actual,
        sd_expected,
        pu_actual,
        pu_expected,
    };
    if sd_actual != sd_expected {
        return Err(format!("SD cycles diverge from the model: {}", r.report()));
    }
    if pu_actual != pu_expected {
        return Err(format!("PU cycles diverge from the model: {}", r.report()));
    }
    if updates > 0 && pg_actual == 0 {
        return Err(format!("PG cycles missing: {}", r.report()));
    }
    Ok(r)
}

/// Where a kernel's modeled-cycle figure comes from, and whether the ledger
/// gates on it (`false` = host-side work the hardware model deliberately
/// does not price).
fn kernel_provenance(kernel: Kernel) -> (&'static str, bool) {
    match kernel {
        Kernel::PgNormalize => (
            "accumulator add/mul/div tally priced by coopmc_kernels::cost",
            true,
        ),
        Kernel::PgDynorm => ("NormTree comparator tally at TREE_LAYER_CYCLES", true),
        Kernel::PgExpBatch => (
            "TableExp/TableLog lookups at LUT_CYCLES plus approximation ALUs at EXP_APPROX_CYCLES",
            true,
        ),
        Kernel::SdSampleRows => ("sampler latency_cycles tally (coopmc_hw::cycles)", true),
        Kernel::PuUpdate => (
            "PU_CYCLES per committed update (coopmc_kernels::cost)",
            true,
        ),
        Kernel::Sweep => (
            "unmodeled host-side sweep orchestration (self time outside instrumented kernels)",
            false,
        ),
        Kernel::PgGather => (
            "unmodeled host-side score gather (model memory traversal)",
            false,
        ),
        Kernel::PoolDispatch => ("unmodeled host-side pool job dispatch", false),
        Kernel::PoolJoin => ("unmodeled host-side pool barrier wait", false),
    }
}

/// One kernel row of the modeled-vs-measured divergence ledger.
#[derive(Debug, Clone)]
pub struct KernelDivergence {
    /// Kernel name (the `coopmc-profile/1` vocabulary).
    pub kernel: &'static str,
    /// Engine phase the kernel belongs to.
    pub phase: &'static str,
    /// Measured exclusive wall time, summed across lanes, nanoseconds.
    pub measured_ns: u64,
    /// Modeled hardware cycles attributed to the kernel, across lanes.
    pub modeled_cycles: u64,
    /// Share of measured time — over the *modeled* kernels for gated rows
    /// (so the two share columns are comparable), over all rows otherwise.
    pub measured_share: f64,
    /// Share of modeled cycles over the modeled kernels (0 for ungated).
    pub modeled_share: f64,
    /// `|measured_share − modeled_share|` for gated rows, 0 otherwise.
    pub divergence: f64,
    /// Where the modeled figure comes from.
    pub provenance: &'static str,
    /// Whether [`DivergenceLedger::check`] gates on this row.
    pub gated: bool,
}

/// The modeled-vs-measured attribution ledger for one profiled run.
///
/// For every kernel the hardware model prices, the ledger compares the
/// kernel's share of measured self time against its share of modeled
/// cycles. A perfectly faithful model would give identical shares; the
/// tolerance declares how much of the run's shape the model is allowed to
/// miss before [`check`](Self::check) fails. Host-side kernels the model
/// deliberately does not price (gather, pool traffic, orchestration) appear
/// with `gated = false`, so the ledger still accounts for 100% of the
/// measured time without pretending the model covers it.
#[derive(Debug, Clone)]
pub struct DivergenceLedger {
    /// One row per kernel that measured time or attributed cycles.
    pub entries: Vec<KernelDivergence>,
    /// Maximum allowed per-kernel share divergence (0..1).
    pub tolerance: f64,
    /// Measured self time across every row, nanoseconds.
    pub total_measured_ns: u64,
    /// Modeled cycles across the gated rows.
    pub total_modeled_cycles: u64,
}

impl DivergenceLedger {
    /// Fail if any gated kernel's share divergence exceeds the tolerance.
    pub fn check(&self) -> Result<(), String> {
        let mut over: Vec<String> = Vec::new();
        for e in self.entries.iter().filter(|e| e.gated) {
            if e.divergence > self.tolerance {
                over.push(format!(
                    "{}: measured {:.1}% vs modeled {:.1}% (divergence {:.3} > tolerance {:.3})",
                    e.kernel,
                    100.0 * e.measured_share,
                    100.0 * e.modeled_share,
                    e.divergence,
                    self.tolerance
                ));
            }
        }
        if over.is_empty() {
            Ok(())
        } else {
            Err(format!("divergence ledger failed: {}", over.join("; ")))
        }
    }

    /// Human-readable table, one kernel per line.
    pub fn report(&self) -> String {
        let mut out = format!(
            "divergence ledger (tolerance {:.3}, measured {} ns, modeled {} cycles)\n",
            self.tolerance, self.total_measured_ns, self.total_modeled_cycles
        );
        out.push_str(&format!(
            "{:<16} {:<6} {:>14} {:>16} {:>7} {:>7} {:>7}  provenance\n",
            "kernel", "phase", "measured_ns", "modeled_cycles", "meas%", "model%", "div"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<16} {:<6} {:>14} {:>16} {:>6.1}% {:>6.1}% {:>7.3}  {}{}\n",
                e.kernel,
                e.phase,
                e.measured_ns,
                e.modeled_cycles,
                100.0 * e.measured_share,
                100.0 * e.modeled_share,
                e.divergence,
                e.provenance,
                if e.gated { "" } else { " [not gated]" },
            ));
        }
        out
    }
}

/// Build the divergence ledger from a profiled run's kernel reports.
///
/// Reports are summed across lanes per kernel. Errors when the reports are
/// empty, and when a kernel carries modeled cycles but zero measured time —
/// that means the cycle attribution ran without its timing leaves (e.g. a
/// pipeline that exposes no stage phases), so a share comparison would be
/// meaningless rather than merely divergent.
pub fn divergence_ledger(
    kernels: &[KernelReport],
    tolerance: f64,
) -> Result<DivergenceLedger, String> {
    if kernels.is_empty() {
        return Err("no kernel reports to reconcile".to_owned());
    }
    let mut measured = [0u64; coopmc_obs::profile::N_KERNELS];
    let mut modeled = [0u64; coopmc_obs::profile::N_KERNELS];
    for r in kernels {
        measured[r.kernel as usize] += r.self_ns;
        modeled[r.kernel as usize] += r.modeled_cycles;
    }
    let gated_measured: u64 = coopmc_obs::profile::KERNELS
        .iter()
        .filter(|k| kernel_provenance(**k).1)
        .map(|k| measured[*k as usize])
        .sum();
    let total_measured: u64 = measured.iter().sum();
    let total_modeled: u64 = coopmc_obs::profile::KERNELS
        .iter()
        .filter(|k| kernel_provenance(**k).1)
        .map(|k| modeled[*k as usize])
        .sum();
    let mut entries = Vec::new();
    for &k in coopmc_obs::profile::KERNELS.iter() {
        let (m_ns, m_cy) = (measured[k as usize], modeled[k as usize]);
        if m_ns == 0 && m_cy == 0 {
            continue;
        }
        let (provenance, gated) = kernel_provenance(k);
        if gated && m_cy > 0 && m_ns == 0 {
            return Err(format!(
                "kernel {} carries {} modeled cycles but no measured time — \
                 its timing leaves never fired ({provenance})",
                k.name(),
                m_cy
            ));
        }
        let (measured_share, modeled_share) = if gated {
            (
                if gated_measured == 0 {
                    0.0
                } else {
                    m_ns as f64 / gated_measured as f64
                },
                if total_modeled == 0 {
                    0.0
                } else {
                    m_cy as f64 / total_modeled as f64
                },
            )
        } else {
            (
                if total_measured == 0 {
                    0.0
                } else {
                    m_ns as f64 / total_measured as f64
                },
                0.0,
            )
        };
        entries.push(KernelDivergence {
            kernel: k.name(),
            phase: k.phase(),
            measured_ns: m_ns,
            modeled_cycles: m_cy,
            measured_share,
            modeled_share,
            divergence: if gated {
                (measured_share - modeled_share).abs()
            } else {
                0.0
            },
            provenance,
            gated,
        });
    }
    if entries.is_empty() {
        return Err("kernel reports carry no time or cycles".to_owned());
    }
    Ok(DivergenceLedger {
        entries,
        tolerance,
        total_measured_ns: total_measured,
        total_modeled_cycles: total_modeled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(updates: u64, n_labels: usize) -> SweepSample {
        SweepSample {
            iteration: 1,
            updates,
            pg_cycles: 100 * updates,
            sd_cycles: sd_cycles(SamplerKind::Tree, n_labels) * updates,
            pu_cycles: PU_CYCLES * updates,
            ..SweepSample::default()
        }
    }

    #[test]
    fn consistent_journal_reconciles() {
        let sweeps = vec![sweep(64, 8), sweep(64, 8)];
        let r = reconcile(&sweeps, SamplerKind::Tree, 8).unwrap();
        assert_eq!(r.updates, 128);
        assert_eq!(r.sd_actual, r.sd_expected);
        assert_eq!(r.pu_actual, r.pu_expected);
    }

    #[test]
    fn diverging_sd_total_is_reported() {
        let mut bad = sweep(64, 8);
        bad.sd_cycles += 1;
        let err = reconcile(&[bad], SamplerKind::Tree, 8).unwrap_err();
        assert!(err.contains("SD cycles diverge"), "{err}");
    }

    #[test]
    fn diverging_pu_total_is_reported() {
        let mut bad = sweep(10, 4);
        bad.pu_cycles = 3 * bad.updates;
        let err = reconcile(&[bad], SamplerKind::Tree, 4).unwrap_err();
        assert!(err.contains("PU cycles diverge"), "{err}");
    }

    #[test]
    fn empty_journal_is_an_error() {
        assert!(reconcile(&[], SamplerKind::Tree, 4).is_err());
    }

    fn report(kernel: Kernel, self_ns: u64, modeled_cycles: u64) -> KernelReport {
        KernelReport {
            worker: 0,
            kernel,
            calls: u64::from(self_ns > 0),
            total_ns: self_ns,
            self_ns,
            modeled_cycles,
            spans_dropped: 0,
            unclosed: 0,
        }
    }

    /// A run whose measured shares match its modeled shares exactly.
    fn aligned_reports() -> Vec<KernelReport> {
        vec![
            report(Kernel::Sweep, 1000, 0),
            report(Kernel::PgGather, 500, 0),
            report(Kernel::PgNormalize, 4000, 400),
            report(Kernel::PgDynorm, 1000, 100),
            report(Kernel::PgExpBatch, 2000, 200),
            report(Kernel::SdSampleRows, 2000, 200),
            report(Kernel::PuUpdate, 1000, 100),
        ]
    }

    #[test]
    fn aligned_ledger_passes_even_tight_tolerances() {
        let ledger = divergence_ledger(&aligned_reports(), 1e-9).unwrap();
        ledger.check().unwrap();
        assert_eq!(ledger.total_modeled_cycles, 1000);
        assert_eq!(ledger.total_measured_ns, 11_500);
        let text = ledger.report();
        for name in [
            "sweep",
            "pg.gather",
            "pg.normalize",
            "pg.dynorm",
            "pg.exp_batch",
            "sd.sample_rows",
            "pu.update",
        ] {
            assert!(text.contains(name), "report must list {name}:\n{text}");
        }
        assert!(text.contains("[not gated]"), "{text}");
    }

    #[test]
    fn ledger_sums_lanes_before_comparing_shares() {
        // Split the aligned pg.normalize row across three lanes: the ledger
        // must still see the aligned totals.
        let mut reports = aligned_reports();
        reports.retain(|r| r.kernel != Kernel::PgNormalize);
        for (lane, (ns, cy)) in [(1, (1000, 100)), (2, (1000, 100)), (3, (2000, 200))] {
            let mut r = report(Kernel::PgNormalize, ns, cy);
            r.worker = lane;
            reports.push(r);
        }
        divergence_ledger(&reports, 1e-9).unwrap().check().unwrap();
    }

    #[test]
    fn skewed_ledger_fails_a_tight_tolerance_but_passes_a_loose_one() {
        let mut reports = aligned_reports();
        // Inflate sd.sample_rows' measured time 4×: its measured share rises
        // well above its modeled share.
        for r in &mut reports {
            if r.kernel == Kernel::SdSampleRows {
                r.self_ns *= 4;
                r.total_ns *= 4;
            }
        }
        let tight = divergence_ledger(&reports, 0.01).unwrap();
        let err = tight.check().unwrap_err();
        assert!(err.contains("sd.sample_rows"), "{err}");
        assert!(err.contains("tolerance"), "{err}");
        divergence_ledger(&reports, 0.5).unwrap().check().unwrap();
    }

    #[test]
    fn modeled_cycles_without_measured_time_is_a_structural_error() {
        let mut reports = aligned_reports();
        for r in &mut reports {
            if r.kernel == Kernel::PgDynorm {
                r.self_ns = 0;
                r.total_ns = 0;
                r.calls = 0;
            }
        }
        let err = divergence_ledger(&reports, 0.5).unwrap_err();
        assert!(err.contains("pg.dynorm"), "{err}");
        assert!(err.contains("no measured time"), "{err}");
    }

    #[test]
    fn empty_kernel_reports_are_an_error() {
        assert!(divergence_ledger(&[], 0.5).is_err());
        // Rows that carry neither time nor cycles are dropped, and an
        // all-dropped input is as empty as no input.
        assert!(divergence_ledger(&[report(Kernel::Sweep, 0, 0)], 0.5).is_err());
    }

    #[test]
    fn ungated_rows_never_fail_the_check() {
        // Host-side kernels may dominate wall time without tripping the
        // gate: only modeled kernels are compared.
        let reports = vec![
            report(Kernel::Sweep, 1_000_000, 0),
            report(Kernel::PoolDispatch, 500_000, 0),
            report(Kernel::PoolJoin, 500_000, 0),
            report(Kernel::PgNormalize, 100, 400),
            report(Kernel::PgDynorm, 25, 100),
            report(Kernel::PgExpBatch, 50, 200),
            report(Kernel::SdSampleRows, 50, 200),
            report(Kernel::PuUpdate, 25, 100),
        ];
        divergence_ledger(&reports, 1e-6).unwrap().check().unwrap();
    }
}
