//! Convergence targets: the CLI's early-stop rule and the benchmark's
//! log-likelihood plateau rule.

use coopmc_obs::health::{ChainHealth, ConvergenceController, Decision, EarlyStop, HealthConfig};

/// R-hat threshold of the CLI's early stop (`coopmc run --early-stop-*`).
pub const STOP_RHAT: f64 = 1.01;
/// ESS budget of the CLI's early stop.
pub const STOP_ESS: f64 = 100.0;

/// The CLI's early-stop controller with its default thresholds and health
/// configuration.
pub fn cli_early_stop() -> EarlyStop<'static> {
    EarlyStop::new(
        ChainHealth::new(0, HealthConfig::default()),
        STOP_RHAT,
        STOP_ESS,
    )
}

/// Plateau rule over a per-sweep statistic: it holds at sweep `s ≥ 2W`
/// when the mean of the last `W` values differs from the mean of the `W`
/// before them by at most `tol` times the distance the statistic has
/// travelled from its initial value. It needs no knowledge of the final
/// level, so a chain that is still climbing at the end of its budget
/// misses it.
#[derive(Debug, Clone)]
pub struct Plateau {
    window: usize,
    tol: f64,
    initial: f64,
    history: Vec<f64>,
}

/// Window of the log-likelihood plateau rule, in sweeps.
pub const PLATEAU_WINDOW: usize = 32;
/// Tolerance of the log-likelihood plateau rule. On LDA-NIPS at 2× CI
/// scale it fired at sweeps 80, 82 and 82 on seeds 1–3; `EarlyStop` never
/// fires on LDA.
pub const PLATEAU_TOL: f64 = 0.01;

impl Plateau {
    /// A rule of window `window` and tolerance `tol`, starting from the
    /// statistic's value before the first sweep.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, tol: f64, initial: f64) -> Self {
        assert!(window > 0, "plateau window must be positive");
        Self {
            window,
            tol,
            initial,
            history: Vec::new(),
        }
    }

    /// Feed the statistic after one sweep; true when the rule holds.
    pub fn observe(&mut self, value: f64) -> bool {
        self.history.push(value);
        let (w, n) = (self.window, self.history.len());
        if n < 2 * w {
            return false;
        }
        let mean = |s: &[f64]| s.iter().sum::<f64>() / w as f64;
        let recent = mean(&self.history[n - w..]);
        let before = mean(&self.history[n - 2 * w..n - w]);
        (recent - before).abs() <= self.tol * (recent - self.initial).abs()
    }
}

/// Which rule decides a workload's target.
#[derive(Debug)]
pub enum Target {
    /// The CLI's early stop on the statistic (MRF energy).
    EarlyStop,
    /// The plateau rule on the statistic (LDA log-likelihood).
    Plateau(Plateau),
}

/// Convergence bookkeeping of one chain: feeds every sweep to the CLI's
/// early stop (so the run pays what an early-stop user pays) and records
/// the first sweep at which the workload's target holds, without ever
/// stopping the chain — the sweep budget is fixed.
#[derive(Debug)]
pub struct TargetWatch {
    early: EarlyStop<'static>,
    target: Target,
    /// First sweep at which `EarlyStop` said stop.
    pub early_stop_sweep: Option<u64>,
    /// First sweep at which the workload's target held.
    pub target_sweep: Option<u64>,
}

impl TargetWatch {
    /// Watch a chain whose target is `target`.
    pub fn new(target: Target) -> Self {
        Self {
            early: cli_early_stop(),
            target,
            early_stop_sweep: None,
            target_sweep: None,
        }
    }
}

impl ConvergenceController for TargetWatch {
    fn observe_sweep(
        &mut self,
        iteration: u64,
        updates: u64,
        flips: u64,
        uniform_fallbacks: u64,
        stat: Option<f64>,
    ) -> Decision {
        let stop = self
            .early
            .observe_sweep(iteration, updates, flips, uniform_fallbacks, stat)
            == Decision::Stop;
        if stop && self.early_stop_sweep.is_none() {
            self.early_stop_sweep = Some(iteration);
        }
        let holds = match &mut self.target {
            Target::EarlyStop => stop,
            Target::Plateau(rule) => stat.is_some_and(|v| rule.observe(v)),
        };
        if holds && self.target_sweep.is_none() {
            self.target_sweep = Some(iteration);
        }
        Decision::Continue
    }
}
