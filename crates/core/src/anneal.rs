//! MAP drivers over the Gibbs machinery: iterated conditional modes and
//! simulated annealing, the two classic non-sampling baselines of the MRF
//! literature. Both read the configured PG pipeline's probabilities, so
//! DyNorm/TableExp/LogFusion precision effects apply to them as to the
//! sampler.

use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_rng::HwRng;

use crate::engine::RunStats;
use crate::pipeline::{PgBatch, ProbabilityPipeline};

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
            .weights()
            .images()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
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
    use crate::pipeline::FloatPipeline;
    use coopmc_models::mrf::image_segmentation;
    use coopmc_rng::SplitMix64;
    use coopmc_sampler::TreeSampler;

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
