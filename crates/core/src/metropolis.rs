//! Alternative MCMC and optimization drivers: Metropolis–Hastings, iterated
//! conditional modes, and simulated annealing.
//!
//! The paper scopes its methods to "any MCMC algorithm with a discrete
//! sampling process" (§II). This module makes that claim executable beyond
//! Gibbs: a Metropolis–Hastings driver whose acceptance test consumes the
//! same PG pipeline outputs (so DyNorm/TableExp/LogFusion precision effects
//! apply identically), plus the two classic non-sampling baselines used in
//! the MRF literature — ICM (greedy) and annealed Gibbs.

use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_rng::HwRng;

use crate::engine::RunStats;
use crate::pipeline::{PgBatch, ProbabilityPipeline};

/// Metropolis–Hastings single-site driver.
///
/// For each variable, a new label is proposed uniformly and accepted with
/// probability `min(1, p(new) / p(old))`, where both probabilities come out
/// of the configured PG pipeline — i.e. the acceptance ratio sees exactly
/// the quantized values the hardware would produce.
#[derive(Debug, Clone)]
pub struct MetropolisEngine<P, R> {
    pipeline: P,
    rng: R,
    rows: ScoreRows,
    pg: PgBatch,
}

impl<P: ProbabilityPipeline, R: HwRng> MetropolisEngine<P, R> {
    /// Assemble a driver from a pipeline and an RNG.
    pub fn new(pipeline: P, rng: R) -> Self {
        Self {
            pipeline,
            rng,
            rows: ScoreRows::new(),
            pg: PgBatch::new(),
        }
    }

    /// One MH update of `var`; returns true if the proposal was accepted.
    pub fn step(&mut self, model: &mut dyn GibbsModel, var: usize, stats: &mut RunStats) -> bool {
        if model.is_clamped(var) {
            return false;
        }
        let n = model.num_labels(var);
        let current = model.label(var);
        let proposal = self.rng.uniform_index(n);
        if proposal == current {
            return false;
        }
        model.begin_resample(var);
        self.rows.clear();
        model.row_into(var, &mut self.rows);
        self.pipeline.generate_rows_into(&self.rows, &mut self.pg);
        let pg = &self.pg;
        stats.ops.merge(&pg.ops[0]);
        let p_cur = pg.probs[current];
        let p_new = pg.probs[proposal];
        // Accept with min(1, p_new / p_cur); an all-zero pair falls back to
        // rejection (keeps the chain lazy rather than undefined).
        let accept = if p_new >= p_cur {
            p_new > 0.0
        } else if p_cur > 0.0 {
            self.rng.next_f64() < p_new / p_cur
        } else {
            false
        };
        let label = if accept { proposal } else { current };
        model.update(var, label);
        stats.updates += 1;
        accept
    }

    /// One full sweep; returns the acceptance rate.
    pub fn sweep(&mut self, model: &mut dyn GibbsModel, stats: &mut RunStats) -> f64 {
        let n = model.num_variables();
        let mut accepted = 0usize;
        for var in 0..n {
            if self.step(model, var, stats) {
                accepted += 1;
            }
        }
        stats.iterations += 1;
        accepted as f64 / n as f64
    }

    /// Run `iterations` sweeps; returns the mean acceptance rate.
    pub fn run(&mut self, model: &mut dyn GibbsModel, iterations: u64) -> (RunStats, f64) {
        let mut stats = RunStats::default();
        let mut acc = 0.0;
        for _ in 0..iterations {
            acc += self.sweep(model, &mut stats);
        }
        (stats, acc / iterations as f64)
    }
}

/// Iterated conditional modes: the deterministic greedy baseline — each
/// variable takes its argmax label under the pipeline's probabilities.
/// Converges fast to a local optimum; returns the number of label changes.
pub fn icm_sweep<P: ProbabilityPipeline>(model: &mut dyn GibbsModel, pipeline: &P) -> usize {
    let (mut rows, mut pg) = (ScoreRows::new(), PgBatch::new());
    let mut changes = 0usize;
    for var in 0..model.num_variables() {
        if model.is_clamped(var) {
            continue;
        }
        model.begin_resample(var);
        rows.clear();
        model.row_into(var, &mut rows);
        pipeline.generate_rows_into(&rows, &mut pg);
        let best = pg
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(model.label(var));
        if best != model.label(var) {
            changes += 1;
        }
        model.update(var, best);
    }
    changes
}

/// A geometric annealing schedule for `GridMrf` MAP inference: multiply β by
/// `rate` after each sweep, from `beta0` up to `beta_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingSchedule {
    /// Initial inverse temperature.
    pub beta0: f64,
    /// Multiplicative increase per sweep (> 1).
    pub rate: f64,
    /// Cap on β.
    pub beta_max: f64,
}

impl AnnealingSchedule {
    /// β after `sweep` sweeps.
    pub fn beta_at(&self, sweep: u64) -> f64 {
        (self.beta0 * self.rate.powi(sweep as i32)).min(self.beta_max)
    }
}

/// Annealed Gibbs MAP inference on a grid MRF: runs `sweeps` Gibbs sweeps,
/// raising β per `schedule` before each one, then finishes with ICM to the
/// nearest local optimum. Returns the final energy.
pub fn anneal_mrf<P: ProbabilityPipeline, R: HwRng>(
    mrf: &mut coopmc_models::mrf::GridMrf,
    pipeline: P,
    schedule: AnnealingSchedule,
    sweeps: u64,
    rng: R,
) -> f64 {
    let mut engine =
        crate::engine::GibbsEngine::new(pipeline, coopmc_sampler::TreeSampler::new(), rng);
    let mut stats = RunStats::default();
    for sweep in 0..sweeps {
        mrf.set_beta(schedule.beta_at(sweep));
        engine.sweep(mrf, &mut stats);
    }
    mrf.set_beta(schedule.beta_max);
    while icm_sweep(mrf, engine.pipeline()) > 0 {}
    mrf.energy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GibbsEngine;
    use crate::pipeline::{CoopMcPipeline, FloatPipeline};
    use coopmc_models::bn::earthquake;
    use coopmc_models::mrf::image_segmentation;
    use coopmc_rng::SplitMix64;
    use coopmc_sampler::TreeSampler;

    #[test]
    fn metropolis_reduces_mrf_energy() {
        let mut app = image_segmentation(20, 16, 3);
        let before = app.mrf.energy();
        let mut mh = MetropolisEngine::new(FloatPipeline::new(), SplitMix64::new(1));
        let (_, acc) = mh.run(&mut app.mrf, 20);
        assert!(app.mrf.energy() < before);
        assert!(acc > 0.0 && acc < 1.0, "acceptance {acc}");
    }

    #[test]
    fn metropolis_matches_gibbs_marginals_on_bn() {
        // Both kernels target the same stationary distribution: the label-0
        // frequency of the alarm node must agree between MH and Gibbs.
        let frequency = |use_mh: bool| {
            let mut net = earthquake();
            let mut count = 0u64;
            let sweeps = 30_000u64;
            if use_mh {
                let mut mh = MetropolisEngine::new(FloatPipeline::new(), SplitMix64::new(5));
                let mut stats = RunStats::default();
                for _ in 0..sweeps {
                    mh.sweep(&mut net, &mut stats);
                    count += u64::from(net.label(2) == 0);
                }
            } else {
                let mut g =
                    GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(5));
                let mut stats = RunStats::default();
                for _ in 0..sweeps {
                    g.sweep(&mut net, &mut stats);
                    count += u64::from(net.label(2) == 0);
                }
            }
            count as f64 / sweeps as f64
        };
        let mh = frequency(true);
        let gibbs = frequency(false);
        assert!(
            (mh - gibbs).abs() < 0.01,
            "MH {mh} and Gibbs {gibbs} must share a stationary distribution"
        );
    }

    #[test]
    fn metropolis_composes_with_coopmc_pipeline() {
        let mut app = image_segmentation(16, 16, 4);
        let before = app.mrf.energy();
        let mut mh = MetropolisEngine::new(CoopMcPipeline::new(64, 8), SplitMix64::new(2));
        mh.run(&mut app.mrf, 15);
        assert!(app.mrf.energy() < before);
    }

    #[test]
    fn metropolis_skips_clamped_variables() {
        let mut net = earthquake();
        net.set_evidence(0, 1);
        let mut mh = MetropolisEngine::new(FloatPipeline::new(), SplitMix64::new(3));
        let mut stats = RunStats::default();
        for _ in 0..50 {
            mh.sweep(&mut net, &mut stats);
        }
        assert_eq!(net.label(0), 1);
    }

    #[test]
    fn icm_is_deterministic_and_monotone() {
        let mut app = image_segmentation(24, 20, 6);
        let pipeline = FloatPipeline::new();
        let mut prev = app.mrf.energy();
        loop {
            let changes = icm_sweep(&mut app.mrf, &pipeline);
            let e = app.mrf.energy();
            assert!(
                e <= prev + 1e-9,
                "ICM must never raise energy: {prev} -> {e}"
            );
            prev = e;
            if changes == 0 {
                break;
            }
        }
        // Fixed point reached: another sweep changes nothing.
        assert_eq!(icm_sweep(&mut app.mrf, &pipeline), 0);
    }

    #[test]
    fn annealing_beats_fixed_temperature_map() {
        // Annealed Gibbs + ICM should find an energy no worse than plain
        // Gibbs at fixed beta followed by nothing.
        let app = image_segmentation(24, 20, 7);
        let mut annealed = app.mrf.clone();
        let schedule = AnnealingSchedule {
            beta0: 0.3,
            rate: 1.25,
            beta_max: 6.0,
        };
        let e_anneal = anneal_mrf(
            &mut annealed,
            FloatPipeline::new(),
            schedule,
            20,
            SplitMix64::new(8),
        );
        let mut plain = app.mrf.clone();
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
        engine.run(&mut plain, 20);
        let e_plain = plain.energy();
        assert!(
            e_anneal <= e_plain + 1e-9,
            "annealing+ICM ({e_anneal}) must not lose to plain Gibbs ({e_plain})"
        );
    }

    #[test]
    fn annealing_schedule_is_monotone_and_capped() {
        let s = AnnealingSchedule {
            beta0: 0.5,
            rate: 1.2,
            beta_max: 4.0,
        };
        let mut prev = 0.0;
        for sweep in 0..40 {
            let b = s.beta_at(sweep);
            assert!(b >= prev);
            assert!(b <= 4.0);
            prev = b;
        }
        assert_eq!(s.beta_at(100), 4.0);
    }
}
