//! Streaming chain-health diagnostics: online ESS / R-hat / MCSE over a
//! fixed ring buffer, anomaly detectors, and an early-stop convergence
//! controller.
//!
//! The post-hoc diagnostics in `coopmc_models::diagnostics` rescan the full
//! statistic series; this module maintains the same quantities
//! *incrementally* so they can steer a running chain:
//!
//! - **Welford moments** — running mean/variance of the whole chain, O(1)
//!   per sweep, no storage beyond three scalars.
//! - **Windowed ESS** — effective sample size over the last `window`
//!   statistics via the autocorrelation sum with Geyer's initial-monotone
//!   truncation (initial-positive pair sums, additionally forced
//!   non-increasing). The ring buffer is fixed at construction, so the
//!   per-refresh cost is bounded by the window, never the chain length.
//! - **Split R-hat** — the potential scale reduction factor over the two
//!   halves of the window, both classic (on raw values, numerically
//!   identical to `gelman_rubin` on the same split) and **rank-normalized**
//!   (values replaced by normal scores of their in-window ranks, the
//!   Vehtari et al. 2021 robustification; clamped to ≥ 1).
//! - **MCSE** — Monte-Carlo standard error `sqrt(window variance / ESS)`.
//! - **Anomaly detectors** — stuck-chain/flatline (no label flips over a
//!   window of sweeps), flip-rate drift (fast EWMA diverging from slow
//!   EWMA), and uniform-fallback spikes — each counted once per excursion
//!   in the [`HealthRecord`]'s `events_*` field of its
//!   [`HealthEventKind`]. No event log is kept.
//!
//! All state is preallocated at construction ([`ChainHealth::new`]): the
//! ring and the rank/ESS scratch. A warm [`ChainHealth::observe_sweep`]
//! therefore performs **zero heap allocations** — proven by the
//! counting-allocator test in `coopmc-core` (`tests/alloc_free_health.rs`)
//! — and never touches the chain's RNG or labels, so health-on and
//! health-off chains are bit-identical (pinned by `tests/health.rs` at the
//! workspace root).
//!
//! A [`ChainHealth`] is a reducer over a chain's sweep counts and
//! statistic, the one source of its convergence diagnostics. It runs in
//! two places on the same inputs: inside [`EarlyStop`], which decides while
//! the chain runs, and inside
//! [`TraceRecorder::journal_jsonl`](crate::TraceRecorder::journal_jsonl),
//! which replays it over every journal's sweeps to write its health lines.
//!
//! The [`ConvergenceController`] trait is the hook the engines consult
//! between sweeps (`run_controlled`): [`NoControl`] statically dispatches
//! into nothing, [`EarlyStop`] stops the chain once rank-normalized R-hat
//! falls to the threshold *and* windowed ESS reaches the budget — exactly
//! the progress/early-stop signal the planned `coopmc-serve` needs.

use std::marker::PhantomData;

use crate::metrics::Exposition;

/// Diagnostics refresh and detector tuning for one [`ChainHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Ring-buffer capacity: diagnostics cover the last `window` statistic
    /// observations. Must be ≥ 8 (split R-hat needs 4 per half).
    pub window: usize,
    /// Recompute ESS/R-hat/MCSE every `refresh_stride` statistic
    /// observations. Per-sweep cost is O(window·log window / stride)
    /// amortized; 1 refreshes every sweep.
    pub refresh_stride: u64,
    /// Sweeps with zero label flips before a [`HealthEventKind::StuckChain`]
    /// event fires.
    pub flatline_window: u64,
    /// Absolute divergence between the fast and slow flip-rate EWMAs that
    /// triggers [`HealthEventKind::FlipRateDrift`].
    pub drift_tolerance: f64,
    /// Fraction of a sweep's updates hitting the uniform fallback that
    /// triggers [`HealthEventKind::FallbackSpike`].
    pub fallback_spike: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            window: 256,
            refresh_stride: 8,
            flatline_window: 32,
            drift_tolerance: 0.25,
            fallback_spike: 0.05,
        }
    }
}

/// The anomaly classes the detectors can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEventKind {
    /// No label flip for [`HealthConfig::flatline_window`] consecutive
    /// sweeps: the chain is stuck (or fully frozen at a mode).
    StuckChain,
    /// The fast flip-rate EWMA diverged from the slow one by more than
    /// [`HealthConfig::drift_tolerance`]: acceptance behaviour changed
    /// mid-run.
    FlipRateDrift,
    /// One sweep's uniform-fallback draws exceeded
    /// [`HealthConfig::fallback_spike`] of its updates (the Fig. 2 flush
    /// regime spiking).
    FallbackSpike,
}

impl HealthEventKind {
    /// Stable snake_case name used in metrics labels and journal lines.
    pub fn name(self) -> &'static str {
        match self {
            Self::StuckChain => "stuck_chain",
            Self::FlipRateDrift => "flip_rate_drift",
            Self::FallbackSpike => "fallback_spike",
        }
    }
}

/// A snapshot of every streaming diagnostic for one chain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthRecord {
    /// Chain identifier.
    pub chain: u64,
    /// 1-based sweep iteration of the snapshot.
    pub iteration: u64,
    /// Total statistic observations since construction (Welford count).
    pub samples: u64,
    /// Statistic observations currently in the ring window.
    pub window: u64,
    /// Running mean of the whole chain (Welford).
    pub mean: f64,
    /// Running sample variance of the whole chain (Welford).
    pub variance: f64,
    /// Windowed effective sample size (Geyer initial-monotone); `None`
    /// until the window holds ≥ 4 samples. Always ≤ `window`.
    pub ess: Option<f64>,
    /// Rank-normalized split R-hat over the window, clamped to ≥ 1;
    /// `None` until the window holds ≥ 8 samples.
    pub rhat: Option<f64>,
    /// Classic (raw-value) split R-hat over the same window split,
    /// unclamped — numerically the quantity `gelman_rubin` reports.
    pub rhat_split: Option<f64>,
    /// Monte-Carlo standard error `sqrt(window variance / ESS)`.
    pub mcse: Option<f64>,
    /// Fast flip-rate EWMA (flips / updates per sweep).
    pub flip_rate: f64,
    /// Cumulative [`HealthEventKind::StuckChain`] events.
    pub events_stuck: u64,
    /// Cumulative [`HealthEventKind::FlipRateDrift`] events.
    pub events_drift: u64,
    /// Cumulative [`HealthEventKind::FallbackSpike`] events.
    pub events_fallback: u64,
}

/// The window diagnostics [`ChainHealth::metrics`] reports as gauges, as
/// of the last refresh. A diagnostic that was `None` at a refresh keeps its
/// previous value; all read 0 before the first.
#[derive(Debug, Default)]
struct Gauges {
    rhat: f64,
    rhat_split: f64,
    ess: f64,
    mcse: f64,
}

/// Incremental chain-health state: engine-owned, all buffers preallocated,
/// warm [`observe_sweep`](Self::observe_sweep) calls allocation-free.
#[derive(Debug)]
pub struct ChainHealth {
    cfg: HealthConfig,
    // Welford moments over the full chain.
    count: u64,
    mean: f64,
    m2: f64,
    // Fixed ring buffer of the last `cfg.window` statistics.
    ring: Vec<f64>,
    head: usize,
    filled: usize,
    since_refresh: u64,
    // Preallocated refresh scratch: chronological copy, rank permutation,
    // normal scores.
    chrono: Vec<f64>,
    ranks: Vec<u32>,
    zscores: Vec<f64>,
    // Detector state.
    sweeps: u64,
    flip_fast: f64,
    flip_slow: f64,
    ewma_primed: bool,
    zero_flip_run: u64,
    stuck_latched: bool,
    drift_latched: bool,
    fallback_latched: bool,
    // Outputs.
    record: HealthRecord,
    gauges: Gauges,
}

/// Fast EWMA smoothing for the flip-rate detector (≈ 8-sweep memory).
const FLIP_FAST_ALPHA: f64 = 0.25;
/// Slow EWMA smoothing (≈ 64-sweep memory), the drift reference.
const FLIP_SLOW_ALPHA: f64 = 1.0 / 32.0;

impl ChainHealth {
    /// Preallocate every buffer. No further allocation happens on the
    /// observe path.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window < 8`, `cfg.refresh_stride == 0` or
    /// `cfg.flatline_window == 0`.
    pub fn new(chain: u64, cfg: HealthConfig) -> Self {
        assert!(cfg.window >= 8, "health window must hold >= 8 samples");
        assert!(cfg.refresh_stride > 0, "refresh stride must be positive");
        assert!(cfg.flatline_window > 0, "flatline window must be positive");
        Self {
            ring: Vec::with_capacity(cfg.window),
            chrono: Vec::with_capacity(cfg.window),
            ranks: Vec::with_capacity(cfg.window),
            zscores: Vec::with_capacity(cfg.window),
            record: HealthRecord {
                chain,
                ..HealthRecord::default()
            },
            cfg,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            head: 0,
            filled: 0,
            since_refresh: 0,
            sweeps: 0,
            flip_fast: 0.0,
            flip_slow: 0.0,
            ewma_primed: false,
            zero_flip_run: 0,
            stuck_latched: false,
            drift_latched: false,
            fallback_latched: false,
            gauges: Gauges::default(),
        }
    }

    /// The latest diagnostics snapshot (fields are `None`/zero until enough
    /// sweeps have been observed).
    pub fn record(&self) -> &HealthRecord {
        &self.record
    }

    /// Observe one completed sweep. `stat` is the chain's scalar statistic
    /// for the sweep (model energy, log joint, log-likelihood) when the
    /// caller tracks one; flip/fallback detectors run either way.
    ///
    /// Returns `true` when the diagnostics were refreshed this call (the
    /// moment to export a [`HealthRecord`] snapshot).
    pub fn observe_sweep(
        &mut self,
        iteration: u64,
        updates: u64,
        flips: u64,
        uniform_fallbacks: u64,
        stat: Option<f64>,
    ) -> bool {
        self.sweeps += 1;
        self.record.iteration = iteration;
        self.detect(updates, flips, uniform_fallbacks);
        let mut refreshed = false;
        if let Some(v) = stat {
            self.push_stat(v);
            self.since_refresh += 1;
            if self.since_refresh >= self.cfg.refresh_stride {
                self.refresh();
                refreshed = true;
            }
        }
        self.record.samples = self.count;
        self.record.window = self.filled as u64;
        self.record.mean = self.mean;
        self.record.variance = self.variance();
        self.record.flip_rate = self.flip_fast;
        if refreshed {
            self.publish();
        }
        refreshed
    }

    /// Welford update + ring push for one statistic observation.
    fn push_stat(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        if self.ring.len() < self.cfg.window {
            self.ring.push(v);
        } else {
            self.ring[self.head] = v;
        }
        self.head = (self.head + 1) % self.cfg.window;
        self.filled = self.ring.len();
    }

    /// Running sample variance of the whole chain.
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Run the anomaly detectors for one sweep. Each detector is
    /// edge-triggered: it counts once when its condition first holds and
    /// re-arms when the condition clears.
    fn detect(&mut self, updates: u64, flips: u64, fallbacks: u64) {
        let flip_rate = if updates == 0 {
            0.0
        } else {
            flips as f64 / updates as f64
        };
        if self.ewma_primed {
            self.flip_fast += FLIP_FAST_ALPHA * (flip_rate - self.flip_fast);
            self.flip_slow += FLIP_SLOW_ALPHA * (flip_rate - self.flip_slow);
        } else {
            self.flip_fast = flip_rate;
            self.flip_slow = flip_rate;
            self.ewma_primed = true;
        }

        // Stuck chain: a run of flip-free sweeps.
        if flips == 0 && updates > 0 {
            self.zero_flip_run += 1;
        } else {
            self.zero_flip_run = 0;
            self.stuck_latched = false;
        }
        if self.zero_flip_run >= self.cfg.flatline_window && !self.stuck_latched {
            self.stuck_latched = true;
            self.record.events_stuck += 1;
        }

        // Flip-rate drift: fast EWMA diverging from the slow reference.
        // Only meaningful once the slow EWMA has some memory behind it.
        let divergence = (self.flip_fast - self.flip_slow).abs();
        if self.sweeps > 8 && divergence > self.cfg.drift_tolerance {
            if !self.drift_latched {
                self.drift_latched = true;
                self.record.events_drift += 1;
            }
        } else if divergence < self.cfg.drift_tolerance / 2.0 {
            self.drift_latched = false;
        }

        // Uniform-fallback spike.
        let fallback_frac = if updates == 0 {
            0.0
        } else {
            fallbacks as f64 / updates as f64
        };
        if fallback_frac > self.cfg.fallback_spike {
            if !self.fallback_latched {
                self.fallback_latched = true;
                self.record.events_fallback += 1;
            }
        } else if fallback_frac <= self.cfg.fallback_spike / 2.0 {
            self.fallback_latched = false;
        }
    }

    /// Recompute ESS / R-hat / MCSE over the current window using only the
    /// preallocated scratch buffers.
    fn refresh(&mut self) {
        self.since_refresh = 0;
        let n = self.filled;
        // Chronological copy of the ring (oldest first).
        self.chrono.clear();
        if self.ring.len() < self.cfg.window {
            self.chrono.extend_from_slice(&self.ring);
        } else {
            self.chrono.extend_from_slice(&self.ring[self.head..]);
            self.chrono.extend_from_slice(&self.ring[..self.head]);
        }
        debug_assert_eq!(self.chrono.len(), n);

        // The window's mean and population variance, which ESS and MCSE
        // share.
        let moments = (n >= 4).then(|| window_moments(&self.chrono));
        self.record.ess = moments.map(|moments| windowed_ess(&self.chrono, moments));
        if n >= 8 {
            let split = split_rhat(&self.chrono);
            self.record.rhat_split = split.is_finite().then_some(split);
            self.record.rhat = Some(rank_normalized_split_rhat(
                &self.chrono,
                &mut self.ranks,
                &mut self.zscores,
            ));
        } else {
            self.record.rhat = None;
            self.record.rhat_split = None;
        }
        self.record.mcse = match (self.record.ess, moments) {
            (Some(ess), Some((_, var))) if ess > 0.0 => Some((var / ess).sqrt()),
            _ => None,
        };
    }

    /// Keep the refreshed snapshot's diagnostics as the gauge values.
    fn publish(&mut self) {
        let (r, g) = (&self.record, &mut self.gauges);
        g.rhat = r.rhat.unwrap_or(g.rhat);
        g.rhat_split = r.rhat_split.unwrap_or(g.rhat_split);
        g.ess = r.ess.unwrap_or(g.ess);
        g.mcse = r.mcse.unwrap_or(g.mcse);
    }

    /// This chain's Prometheus series, labelled `chain`: the rank-normalized
    /// and classic split R-hat, ESS and MCSE gauges as of the last refresh
    /// (each keeps its last value across refreshes where it is `None`), the
    /// flip-rate gauge as of the latest sweep ([`HealthRecord::flip_rate`]),
    /// and `coopmc_health_events_total` per detector kind.
    pub fn metrics(&self) -> Exposition {
        let chain = self.record.chain.to_string();
        let labels = [("chain", chain.as_str())];
        let g = &self.gauges;
        let mut out = Exposition::new();
        for (name, value) in [
            ("coopmc_health_rhat", g.rhat),
            ("coopmc_health_rhat_split", g.rhat_split),
            ("coopmc_health_ess", g.ess),
            ("coopmc_health_mcse", g.mcse),
            ("coopmc_health_flip_rate", self.record.flip_rate),
        ] {
            out.set_gauge(name, &labels, value);
        }
        let r = &self.record;
        for (kind, count) in [
            (HealthEventKind::StuckChain, r.events_stuck),
            (HealthEventKind::FlipRateDrift, r.events_drift),
            (HealthEventKind::FallbackSpike, r.events_fallback),
        ] {
            let labels = [("chain", chain.as_str()), ("kind", kind.name())];
            out.set_counter("coopmc_health_events_total", &labels, count);
        }
        out
    }
}

/// A window's mean and population variance.
fn window_moments(series: &[f64]) -> (f64, f64) {
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var = series.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var)
}

/// Windowed effective sample size: the `effective_sample_size` estimator of
/// `coopmc_models::diagnostics` (initial-positive pair sums) with Geyer's
/// *initial-monotone* strengthening — each pair sum is additionally clamped
/// to be no larger than its predecessor. For series whose autocorrelation
/// decays monotonically the two truncations agree exactly (a unit test
/// pins that). Result is capped at `n`. `(mean, var)` are the series'
/// [`window_moments`].
///
/// # Panics
///
/// Panics on series shorter than 4 samples.
fn windowed_ess(series: &[f64], (mean, var): (f64, f64)) -> f64 {
    let n = series.len();
    assert!(n >= 4, "series must have at least 4 samples");
    if var == 0.0 {
        // A constant window carries one effective observation.
        return 1.0;
    }
    let autocov = |lag: usize| -> f64 {
        (0..n - lag)
            .map(|i| (series[i] - mean) * (series[i + lag] - mean))
            .sum::<f64>()
            / n as f64
    };
    let mut rho_sum = 0.0;
    let mut prev_pair = f64::INFINITY;
    let mut lag = 1usize;
    while lag + 1 < n {
        let mut pair = (autocov(lag) + autocov(lag + 1)) / var;
        if pair <= 0.0 {
            break;
        }
        // Initial-monotone: the pair-sum sequence may never increase.
        pair = pair.min(prev_pair);
        prev_pair = pair;
        rho_sum += pair;
        lag += 2;
    }
    (n as f64 / (1.0 + 2.0 * rho_sum)).min(n as f64)
}

/// Classic split R-hat over one window: the first `2·(n/2)` samples are
/// split into two half-chains and run through the Gelman–Rubin formula (an
/// odd-length window drops its last sample). May be `inf` for
/// constant-but-different halves and slightly below 1 for well-mixed
/// windows; not clamped.
///
/// # Panics
///
/// Panics on windows shorter than 8 samples.
fn split_rhat(window: &[f64]) -> f64 {
    let half = window.len() / 2;
    assert!(half >= 4, "split R-hat needs at least 8 samples");
    let a = &window[..half];
    let b = &window[half..half * 2];
    let n = half as f64;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let grand = (ma + mb) / 2.0;
    // Between-chain variance over m = 2 chains.
    let bvar = n * ((ma - grand).powi(2) + (mb - grand).powi(2));
    let svar = |s: &[f64], mu: f64| s.iter().map(|&x| (x - mu).powi(2)).sum::<f64>() / (n - 1.0);
    let w = (svar(a, ma) + svar(b, mb)) / 2.0;
    if w == 0.0 {
        return if bvar == 0.0 { 1.0 } else { f64::INFINITY };
    }
    let var_plus = (n - 1.0) / n * w + bvar / n;
    (var_plus / w).sqrt()
}

/// Rank-normalized split R-hat: window values are replaced by normal scores
/// of their in-window ranks (`Φ⁻¹((r − 3/8) / (n + 1/4))`, ties broken by
/// arrival order) and the classic split R-hat is computed on the scores.
/// Robust to heavy tails and non-Gaussian statistics; clamped to ≥ 1.
///
/// `ranks` and `zscores` are caller-provided scratch (cleared and refilled;
/// no allocation beyond their existing capacity).
///
/// # Panics
///
/// Panics on windows shorter than 8 samples.
fn rank_normalized_split_rhat(window: &[f64], ranks: &mut Vec<u32>, zscores: &mut Vec<f64>) -> f64 {
    let n = window.len();
    assert!(
        n >= 8,
        "rank-normalized split R-hat needs at least 8 samples"
    );
    ranks.clear();
    ranks.extend(0..n as u32);
    ranks.sort_unstable_by(|&a, &b| {
        window[a as usize]
            .partial_cmp(&window[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    zscores.clear();
    zscores.resize(n, 0.0);
    for (pos, &idx) in ranks.iter().enumerate() {
        // Fractional rank → normal score (Blom's offset).
        let p = (pos as f64 + 1.0 - 0.375) / (n as f64 + 0.25);
        zscores[idx as usize] = inverse_normal_cdf(p);
    }
    split_rhat(zscores).max(1.0)
}

/// Acklam's rational approximation of the standard normal quantile
/// function Φ⁻¹, accurate to ~1.15e-9 over (0, 1) — far below the
/// resolution any rank statistic needs.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// The verdict a [`ConvergenceController`] hands back between sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep sampling.
    Continue,
    /// Convergence criteria met — the engine stops the run.
    Stop,
}

/// The between-sweep hook the engines consult (`run_controlled`). The
/// default implementation, [`NoControl`], statically dispatches into
/// nothing and keeps the controlled path identical to the plain `run`.
pub trait ConvergenceController {
    /// Observe one completed sweep and decide whether to keep running.
    fn observe_sweep(
        &mut self,
        iteration: u64,
        updates: u64,
        flips: u64,
        uniform_fallbacks: u64,
        stat: Option<f64>,
    ) -> Decision;
}

/// The zero-cost disabled controller: never stops, observes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoControl;

impl ConvergenceController for NoControl {
    #[inline]
    fn observe_sweep(&mut self, _: u64, _: u64, _: u64, _: u64, _: Option<f64>) -> Decision {
        Decision::Continue
    }
}

/// Why (and where) an [`EarlyStop`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StopInfo {
    /// The controller stopped the run before the sweep budget ran out.
    pub stopped_early: bool,
    /// Last observed 1-based sweep iteration.
    pub iteration: u64,
    /// Rank-normalized R-hat at the decision point.
    pub rhat: Option<f64>,
    /// Windowed ESS at the decision point.
    pub ess: Option<f64>,
}

/// Early-stop convergence controller: wraps a [`ChainHealth`] and stops the
/// chain once rank-normalized split R-hat ≤ `rhat_threshold` **and**
/// windowed ESS ≥ `ess_budget`. It only decides; a journal replays the same
/// diagnostics from its own sweep records
/// ([`TraceRecorder::journal_jsonl`](crate::TraceRecorder::journal_jsonl)).
#[derive(Debug)]
pub struct EarlyStop<'a> {
    health: ChainHealth,
    rhat_threshold: f64,
    ess_budget: f64,
    info: StopInfo,
    /// Sweeps this controller has observed; the journal iteration it is
    /// handed keeps counting across an engine's `run` calls.
    sweeps: u64,
    /// No reference lives here: the lifetime parameter stays only because
    /// gibbsbench, whose signatures are pinned, names `EarlyStop<'static>`.
    lifetime: PhantomData<&'a ()>,
}

/// Minimum sweeps a controller observes before an early stop may trigger
/// (diagnostics over a near-empty window are noise).
const MIN_SWEEPS: u64 = 16;

impl EarlyStop<'_> {
    /// A controller around `health` with the given convergence criteria.
    /// Pass `f64::INFINITY` as `ess_budget` (or `0.0` as `rhat_threshold`)
    /// to monitor without ever stopping.
    pub fn new(health: ChainHealth, rhat_threshold: f64, ess_budget: f64) -> Self {
        Self {
            health,
            rhat_threshold,
            ess_budget,
            info: StopInfo::default(),
            sweeps: 0,
            lifetime: PhantomData,
        }
    }

    /// A monitor-only controller: streams diagnostics, never stops.
    pub fn monitor(health: ChainHealth) -> Self {
        Self::new(health, 0.0, f64::INFINITY)
    }

    /// The wrapped health state.
    pub fn health(&self) -> &ChainHealth {
        &self.health
    }

    /// Where the run ended and the diagnostics at that point.
    pub fn stop_info(&self) -> StopInfo {
        self.info
    }
}

impl ConvergenceController for EarlyStop<'_> {
    fn observe_sweep(
        &mut self,
        iteration: u64,
        updates: u64,
        flips: u64,
        uniform_fallbacks: u64,
        stat: Option<f64>,
    ) -> Decision {
        self.health
            .observe_sweep(iteration, updates, flips, uniform_fallbacks, stat);
        let record = self.health.record();
        self.info.iteration = iteration;
        self.info.rhat = record.rhat;
        self.info.ess = record.ess;
        self.sweeps += 1;
        if self.sweeps >= MIN_SWEEPS {
            if let (Some(rhat), Some(ess)) = (record.rhat, record.ess) {
                if rhat <= self.rhat_threshold && ess >= self.ess_budget {
                    self.info.stopped_early = true;
                    return Decision::Stop;
                }
            }
        }
        Decision::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_models::diagnostics::{effective_sample_size, gelman_rubin};

    /// A deterministic AR(1)-flavoured series with smoothly decaying
    /// autocorrelation (pair sums monotone, so initial-positive and
    /// initial-monotone truncations coincide).
    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = coopmc_rng_stub(seed);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + rng();
                x
            })
            .collect()
    }

    /// Tiny splitmix-style generator so this crate's tests stay dependency-
    /// free (coopmc-rng is not a dependency of coopmc-obs).
    fn coopmc_rng_stub(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn observe_series(h: &mut ChainHealth, series: &[f64]) {
        for (i, &v) in series.iter().enumerate() {
            h.observe_sweep(i as u64 + 1, 100, 30, 0, Some(v));
        }
    }

    #[test]
    fn windowed_ess_matches_full_series_estimator_when_window_covers_it() {
        let series = ar1_series(200, 0.8, 42);
        let old = effective_sample_size(&series);
        let new = windowed_ess(&series, window_moments(&series));
        assert!(
            (old - new).abs() < 1e-9,
            "windowed {new} vs full-series {old}"
        );
        // Sticky chains keep a small ESS, iid-ish chains a large one.
        assert!(new < 100.0, "AR(0.8) ESS must be well below n: {new}");
        let iid = ar1_series(200, 0.0, 7);
        assert!(windowed_ess(&iid, window_moments(&iid)) > 100.0);
    }

    #[test]
    fn split_rhat_matches_gelman_rubin_on_the_same_split() {
        let series = ar1_series(64, 0.5, 9);
        let half = series.len() / 2;
        let expected = gelman_rubin(&[series[..half].to_vec(), series[half..].to_vec()]);
        let got = split_rhat(&series);
        assert!((expected - got).abs() < 1e-12, "{expected} vs {got}");
    }

    #[test]
    fn rank_normalized_rhat_flags_drift_and_clears_on_mixing() {
        let (mut ranks, mut z) = (Vec::new(), Vec::new());
        let mixed = ar1_series(128, 0.1, 3);
        let r = rank_normalized_split_rhat(&mixed, &mut ranks, &mut z);
        assert!((1.0..1.1).contains(&r), "well-mixed window: {r}");
        // A strongly drifting window: halves occupy disjoint rank ranges.
        let drift: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let r = rank_normalized_split_rhat(&drift, &mut ranks, &mut z);
        assert!(r > 2.0, "drifting window must be flagged: {r}");
    }

    #[test]
    fn rank_normalization_is_robust_to_heavy_tails() {
        // One enormous outlier wrecks the classic estimator's variance but
        // moves a rank statistic by a single rank.
        let mut series = ar1_series(128, 0.1, 11);
        series[64] = 1e12;
        let (mut ranks, mut z) = (Vec::new(), Vec::new());
        let rank = rank_normalized_split_rhat(&series, &mut ranks, &mut z);
        assert!(rank < 1.1, "rank R-hat must shrug off the outlier: {rank}");
    }

    #[test]
    fn inverse_normal_cdf_round_trips_known_points() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(1e-6) + 4.753424).abs() < 1e-4);
        // Antisymmetric up to the rounding of `p - 0.5`.
        assert!((inverse_normal_cdf(0.8) + inverse_normal_cdf(0.2)).abs() < 1e-12);
    }

    #[test]
    fn welford_moments_match_batch_computation() {
        let series = ar1_series(300, 0.6, 5);
        let mut h = ChainHealth::new(0, HealthConfig::default());
        observe_series(&mut h, &series);
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let var = series.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let rec = h.record();
        assert_eq!(rec.samples, 300);
        assert!((rec.mean - mean).abs() < 1e-9);
        assert!((rec.variance - var).abs() < 1e-9);
        assert_eq!(rec.window, 256, "ring caps at the configured window");
    }

    #[test]
    fn ring_window_tracks_only_recent_samples() {
        let mut h = ChainHealth::new(
            0,
            HealthConfig {
                window: 16,
                refresh_stride: 1,
                ..HealthConfig::default()
            },
        );
        // 100 early samples around 0, then 16 late samples around 50: the
        // windowed diagnostics must only see the recent regime.
        for i in 0..100u64 {
            h.observe_sweep(i + 1, 10, 5, 0, Some((i % 3) as f64));
        }
        for i in 0..16u64 {
            h.observe_sweep(101 + i, 10, 5, 0, Some(50.0 + (i % 4) as f64));
        }
        let rec = h.record();
        assert_eq!(rec.window, 16);
        let mcse = rec.mcse.unwrap();
        // Window values sit in [50, 53], so a window-derived MCSE is small.
        assert!(mcse < 4.0, "windowed MCSE {mcse}");
        assert!(rec.mean < 10.0, "Welford mean still covers the full chain");
    }

    #[test]
    fn stuck_chain_event_fires_once_per_flatline() {
        let mut h = ChainHealth::new(
            3,
            HealthConfig {
                flatline_window: 5,
                ..HealthConfig::default()
            },
        );
        let counts: Vec<u64> = (1..=20)
            .map(|it| {
                h.observe_sweep(it, 64, 0, 0, Some(1.0));
                h.record().events_stuck
            })
            .collect();
        // The fifth flip-free sweep completes the flatline window.
        assert_eq!(counts[..5], [0, 0, 0, 0, 1]);
        assert!(
            counts[5..].iter().all(|&c| c == 1),
            "latched after first firing"
        );
        assert_eq!(h.record().chain, 3);
        // Flips resume, then flatline again: a second event.
        h.observe_sweep(21, 64, 10, 0, Some(2.0));
        for i in 0..6u64 {
            h.observe_sweep(22 + i, 64, 0, 0, Some(1.0));
        }
        assert_eq!(h.record().events_stuck, 2);
    }

    #[test]
    fn flip_rate_drift_event_fires_on_regime_change() {
        let mut h = ChainHealth::new(
            0,
            HealthConfig {
                drift_tolerance: 0.2,
                ..HealthConfig::default()
            },
        );
        for i in 0..40u64 {
            h.observe_sweep(i + 1, 100, 60, 0, Some(i as f64));
        }
        assert_eq!(h.record().events_drift, 0, "stable regime: no drift");
        // Collapse the flip rate: fast EWMA dives, slow EWMA lags.
        for i in 0..20u64 {
            h.observe_sweep(41 + i, 100, 0, 0, Some(i as f64));
        }
        assert_eq!(h.record().events_drift, 1);
    }

    #[test]
    fn fallback_spike_event_is_edge_triggered() {
        let mut h = ChainHealth::new(
            0,
            HealthConfig {
                fallback_spike: 0.05,
                ..HealthConfig::default()
            },
        );
        // 0 %, then a 20 % spike, 19 % (still high: latched), 0 % (clears)
        // and a second spike at 30 %.
        let counts: Vec<u64> = [0, 20, 19, 0, 30]
            .into_iter()
            .zip(1..)
            .map(|(fallbacks, it)| {
                h.observe_sweep(it, 100, 50, fallbacks, None);
                h.record().events_fallback
            })
            .collect();
        assert_eq!(counts, [0, 1, 1, 1, 2]);
    }

    #[test]
    fn early_stop_controller_stops_on_converged_mixed_chain() {
        let health = ChainHealth::new(
            0,
            HealthConfig {
                window: 64,
                refresh_stride: 4,
                ..HealthConfig::default()
            },
        );
        let mut ctl = EarlyStop::new(health, 1.05, 30.0);
        let series = ar1_series(400, 0.1, 77);
        let mut stopped_at = None;
        for (i, &v) in series.iter().enumerate() {
            let it = i as u64 + 1;
            if ctl.observe_sweep(it, 100, 40, 0, Some(v)) == Decision::Stop {
                stopped_at = Some(it);
                break;
            }
        }
        let at = stopped_at.expect("a well-mixed chain must converge");
        assert!(at < 200, "stopped at {at}, expected < 50% of budget");
        let info = ctl.stop_info();
        assert!(info.stopped_early);
        assert_eq!(info.iteration, at);
        assert!(info.rhat.unwrap() <= 1.05);
        assert!(info.ess.unwrap() >= 30.0);
    }

    #[test]
    fn early_stop_controller_never_stops_a_drifting_chain() {
        let health = ChainHealth::new(
            0,
            HealthConfig {
                window: 64,
                refresh_stride: 4,
                ..HealthConfig::default()
            },
        );
        let mut ctl = EarlyStop::new(health, 1.05, 30.0);
        for i in 0..300u64 {
            // A monotone drifting statistic: R-hat stays far above 1.
            let d = ctl.observe_sweep(i + 1, 100, 40, 0, Some(i as f64));
            assert_eq!(d, Decision::Continue, "drifting chain stopped at {i}");
        }
        assert!(!ctl.stop_info().stopped_early);
        assert!(ctl.stop_info().rhat.unwrap() > 1.5);
    }

    #[test]
    fn early_stop_counts_the_sweeps_it_observed() {
        // Engines keep the journal iteration monotone across `run` calls,
        // so a controller may first see iteration 1,001; the minimum-sweep
        // guard must still wait for 16 observed sweeps.
        let stop_after = |first: u64| {
            let mut ctl = EarlyStop::new(ChainHealth::new(0, HealthConfig::default()), 1.5, 4.0);
            let series = ar1_series(64, 0.1, 5);
            (first..)
                .zip(&series)
                .position(|(it, &v)| ctl.observe_sweep(it, 100, 40, 0, Some(v)) == Decision::Stop)
                .map(|i| i + 1)
        };
        assert_eq!(stop_after(1), Some(MIN_SWEEPS as usize));
        assert_eq!(stop_after(1_001), Some(MIN_SWEEPS as usize));
    }

    #[test]
    fn no_control_always_continues() {
        let mut ctl = NoControl;
        for i in 0..10 {
            assert_eq!(
                ctl.observe_sweep(i + 1, 1, 0, 0, Some(0.0)),
                Decision::Continue
            );
        }
    }

    #[test]
    fn monitor_mode_never_stops_but_tracks_diagnostics() {
        let health = ChainHealth::new(0, HealthConfig::default());
        let mut ctl = EarlyStop::monitor(health);
        let series = ar1_series(100, 0.1, 5);
        for (i, &v) in series.iter().enumerate() {
            assert_eq!(
                ctl.observe_sweep(i as u64 + 1, 100, 40, 0, Some(v)),
                Decision::Continue
            );
        }
        assert!(ctl.health().record().ess.is_some());
        assert!(ctl.health().record().rhat.is_some());
    }

    #[test]
    fn published_metrics_surface_in_the_exposition() {
        let mut h = ChainHealth::new(
            91,
            HealthConfig {
                refresh_stride: 1,
                ..HealthConfig::default()
            },
        );
        let series = ar1_series(32, 0.2, 13);
        observe_series(&mut h, &series);
        let text = h.metrics().render();
        let rec = h.record();
        let line = |name: &str, v: f64| format!("{name}{{chain=\"91\"}} {v}\n");
        assert!(text.contains(&line("coopmc_health_rhat", rec.rhat.unwrap())));
        assert!(text.contains(&line("coopmc_health_ess", rec.ess.unwrap())));
        assert!(text.contains("coopmc_health_events_total{chain=\"91\",kind=\"stuck_chain\"} 0\n"));
        assert_eq!(text.matches("# TYPE").count(), 6);
    }

    /// The window gauges are what the last refresh published: a
    /// diagnostic that is `None` at a refresh keeps its last value. The
    /// flip rate is the latest sweep's, not the refresh's.
    #[test]
    fn gauges_hold_the_last_refresh() {
        let gauge = |h: &ChainHealth, name: &str| {
            let text = h.metrics().render();
            let series = format!("{name}{{chain=\"0\"}} ");
            let line = text.lines().find(|l| l.starts_with(&series)).unwrap();
            line[series.len()..].parse::<f64>().unwrap()
        };
        let cfg = HealthConfig {
            window: 8,
            refresh_stride: 1,
            ..HealthConfig::default()
        };
        let mut h = ChainHealth::new(0, cfg);
        assert_eq!(gauge(&h, "coopmc_health_rhat_split"), 0.0);
        // The window [1, 0, 0, 0, 0, 1, 1, 1] has a finite split R-hat; one
        // more 1 makes it [0, 0, 0, 0, 1, 1, 1, 1], two constant halves
        // with different values, whose split R-hat is infinite.
        let series = [0., 1., 0., 1., 0., 1., 0., 1., 0., 0., 0., 0., 1., 1., 1.];
        for (i, &v) in series.iter().enumerate() {
            h.observe_sweep(i as u64 + 1, 10, 5, 0, Some(v));
        }
        let finite = h.record().rhat_split.expect("finite split R-hat");
        h.observe_sweep(16, 10, 5, 0, Some(1.0));
        assert_eq!(h.record().rhat_split, None);
        assert_eq!(gauge(&h, "coopmc_health_rhat_split"), finite);

        // Sweeps without a statistic refresh nothing but move the flip-rate
        // EWMA, and its gauge with it.
        let refreshed = h.record().flip_rate;
        h.observe_sweep(17, 10, 0, 0, None);
        assert!(h.record().flip_rate < refreshed);
        assert_eq!(gauge(&h, "coopmc_health_flip_rate"), h.record().flip_rate);
        assert_eq!(gauge(&h, "coopmc_health_rhat_split"), finite);
    }

    #[test]
    #[should_panic(expected = "window must hold")]
    fn tiny_window_panics() {
        let _ = ChainHealth::new(
            0,
            HealthConfig {
                window: 4,
                ..HealthConfig::default()
            },
        );
    }
}
