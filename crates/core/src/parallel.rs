//! Parallel Gibbs scheduling: chromatic and Hogwild engines.
//!
//! Previous accelerators (paper references \[15\], \[16\]) parallelize the
//! Parameter Update step with *chromatic* scheduling (sample a whole
//! conditionally-independent color class concurrently) or *asynchronous*
//! ("Hogwild!") updates that tolerate stale neighbour reads. CoopMC's PG/SD
//! optimizations are orthogonal and compose with both — which this module
//! demonstrates executably: both engines accept any
//! [`ProbabilityPipeline`].
//!
//! The chromatic engine is **deterministic regardless of thread count**:
//! every variable draw uses an RNG seeded by `(seed, iteration, variable)`,
//! so a 1-thread and an 8-thread run produce identical chains — a strong
//! correctness handle that the tests exploit.

use coopmc_kernels::fusion::StagePhases;
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::GridMrf;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_obs::journal::ColorSample;
use coopmc_obs::profile::Kernel;
use coopmc_obs::{metrics, NoopRecorder, Recorder};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler, TreeSampler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::Tally;
use crate::pipeline::{PgBatch, PgOutput, ProbabilityPipeline};
use crate::pool::WorkerPool;

/// Default batch stride of the chromatic engine: one lane-packed word of
/// the fixed-8 datapath per `generate_batch_into` call.
pub const DEFAULT_BATCH_ROWS: usize = coopmc_fixed::lane::LANES;

/// Derive the per-variable RNG for a chromatic draw. SplitMix64's finalizer
/// decorrelates the structured seeds.
fn draw_rng(seed: u64, iteration: u64, var: usize) -> SplitMix64 {
    let mut mixer = SplitMix64::new(
        seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (var as u64).wrapping_mul(0xDEAD_BEEF_CAFE_F00D),
    );
    SplitMix64::new(mixer.derive())
}

/// Per-worker-slot hot-path buffers for the chromatic engine. Each dispatch
/// slot keeps its own, so steady-state sweeps reuse warm memory.
#[derive(Debug, Default)]
struct SweepScratch {
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd: SampleScratch,
    /// `(var, label)` draws of this slot's chunk, committed after the class
    /// barrier.
    out: Vec<(usize, usize)>,
    /// Batched PG output shared by every stride this slot evaluates.
    batch: PgBatch,
    /// Gathered same-width rows awaiting the next `generate_batch_into`.
    batch_scores: Vec<LabelScore>,
    /// Variables owning each gathered row, in gather order.
    batch_vars: Vec<usize>,
    /// Per-row draws of the current stride.
    draws: Vec<SampleResult>,
    /// This slot's chunk, merged into the sweep after the class barrier.
    tally: Tally,
}

impl SweepScratch {
    /// Empty buffers, with the PG stage accumulators attached when
    /// profiling.
    fn new(profiling: bool) -> Self {
        let mut scratch = Self::default();
        scratch.pg.phases = profiling.then(StagePhases::default);
        scratch.batch.phases = scratch.pg.phases;
        scratch
    }
}

/// Chromatic parallel Gibbs engine.
///
/// Worker threads are spawned **once** (at construction) into a persistent
/// [`WorkerPool`] and fed one job per chunk per color class — no per-sweep
/// thread spawning. Despite the pool, the engine stays deterministic
/// independent of thread count: every draw's RNG is derived from
/// `(seed, iteration, var)` alone, and draws of a class are committed only
/// after the whole class finishes, so neither chunking nor scheduling order
/// can leak into the chain. Recording (the `Rec` parameter, default
/// [`NoopRecorder`] = compiled out, no clock read) observes the chain
/// without touching the draw path, so recorded and unrecorded runs are
/// **bit-identical** — a property the observability tests assert across
/// thread counts.
#[derive(Debug)]
pub struct ChromaticEngine<P, Rec = NoopRecorder> {
    pipeline: P,
    n_threads: usize,
    seed: u64,
    chain: u64,
    batch_rows: usize,
    recorder: Rec,
    pool: WorkerPool,
    scratch: Vec<Mutex<SweepScratch>>,
}

impl<P: ProbabilityPipeline> ChromaticEngine<P> {
    /// Build an engine running `n_threads` persistent worker threads, with
    /// recording disabled.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(pipeline: P, n_threads: usize, seed: u64) -> Self {
        Self::with_recorder(pipeline, n_threads, seed, NoopRecorder)
    }
}

impl<P: ProbabilityPipeline, Rec: Recorder> ChromaticEngine<P, Rec> {
    /// Build an engine that reports every sweep (and per-color worker-pool
    /// utilization) to `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn with_recorder(pipeline: P, n_threads: usize, seed: u64, recorder: Rec) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        let scratch = (0..n_threads)
            .map(|_| Mutex::new(SweepScratch::new(recorder.prof_enabled())))
            .collect();
        Self {
            pipeline,
            n_threads,
            seed,
            chain: 0,
            batch_rows: DEFAULT_BATCH_ROWS,
            recorder,
            pool: WorkerPool::new(n_threads),
            scratch,
        }
    }

    /// Set the chain identifier stamped into journal records.
    pub fn with_chain(mut self, chain: u64) -> Self {
        self.chain = chain;
        self
    }

    /// Set the batch stride: how many same-width log-domain rows each
    /// worker gathers per `generate_batch_into` call (`1` restores the
    /// scalar per-variable path). The chain is **bit-identical** for every
    /// stride — each row still sees its own `(seed, iteration, var)` RNG
    /// and the batched kernels are bit-exact with their scalar forms — so
    /// the stride only trades call overhead against gather-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "batch stride must be positive");
        self.batch_rows = rows;
        self
    }

    /// The configured batch stride.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.recorder
    }

    /// Cumulative busy time across the pool's workers, in nanoseconds.
    ///
    /// Inline work (single-thread engines, or classes small enough to skip
    /// the dispatch round-trip) runs on the coordinator and is *not*
    /// counted here — this is the pool's own job accounting, exposed so
    /// scaling studies can compute utilization without a recorder.
    pub fn pool_busy_ns(&self) -> u64 {
        self.pool.total_busy_ns()
    }

    /// One full sweep: each color class is resampled concurrently from the
    /// same snapshot, then committed before the next class starts.
    ///
    /// Returns the number of variables updated.
    pub fn sweep<M: ChromaticModel + Sync>(&self, model: &mut M, iteration: u64) -> usize {
        let classes = model.color_classes();
        self.sweep_classes(model, &classes, iteration).updates as usize
    }

    /// Resample one chunk of a color class against an immutable snapshot,
    /// then report the chunk to the profiler on `lane`.
    ///
    /// With `batch_rows > 1` the chunk is processed in batch strides: runs
    /// of same-width log-domain score rows are gathered and evaluated with
    /// one `generate_batch_into` + one `sample_rows_into` per stride.
    /// Factor-domain (or empty) rows, and every row at stride 1, take the
    /// per-variable path. Draw order within `out` is irrelevant — commits
    /// happen after the class barrier and each variable appears once — so
    /// grouping cannot change the chain.
    fn resample_chunk<M: ChromaticModel>(
        &self,
        model: &M,
        vars: &[usize],
        iteration: u64,
        scratch: &mut SweepScratch,
        lane: usize,
    ) {
        scratch.out.clear();
        scratch.batch_scores.clear();
        scratch.batch_vars.clear();
        scratch.tally = Tally::default();
        let mut width = 0usize;
        let mut t = self.recorder.now_ns();
        for &var in vars {
            if model.is_clamped(var) {
                continue;
            }
            model.scores_into(var, &mut scratch.scores);
            let t_gather = self.recorder.now_ns();
            scratch.tally.gather_ns += t_gather - t;
            t = t_gather;
            let batchable = self.batch_rows > 1
                && !scratch.scores.is_empty()
                && scratch
                    .scores
                    .iter()
                    .all(|s| matches!(s, LabelScore::LogDomain(_)));
            if !batchable {
                t = self.draw_one(var, iteration, scratch, t);
                continue;
            }
            let w = scratch.scores.len();
            if !scratch.batch_vars.is_empty() && w != width {
                t = self.flush_batch(width, iteration, scratch, t);
            }
            width = w;
            scratch.batch_scores.extend(scratch.scores.iter().cloned());
            scratch.batch_vars.push(var);
            if scratch.batch_vars.len() == self.batch_rows {
                t = self.flush_batch(width, iteration, scratch, t);
            }
        }
        self.flush_batch(width, iteration, scratch, t);
        let tally = &mut scratch.tally;
        tally.take_phases(&mut scratch.pg.phases);
        tally.take_phases(&mut scratch.batch.phases);
        tally.flush_profile(&self.recorder, lane);
    }

    /// Scalar PG + SD for one variable whose scores are already gathered in
    /// `scratch.scores`, starting at clock reading `t`; returns the reading
    /// after its draw.
    fn draw_one(&self, var: usize, iteration: u64, scratch: &mut SweepScratch, t: u64) -> u64 {
        self.pipeline
            .generate_into(&scratch.scores, &mut scratch.pg);
        let t_pg = self.recorder.now_ns();
        let mut rng = draw_rng(self.seed, iteration, var);
        let sample = TreeSampler::new().sample_into(&scratch.pg.probs, &mut rng, &mut scratch.sd);
        let t_sd = self.recorder.now_ns();
        scratch.out.push((var, sample.label));
        let tally = &mut scratch.tally;
        tally.pg_ns += t_pg - t;
        tally.sd_ns += t_sd - t_pg;
        tally.draw(&scratch.pg.ops, &sample);
        if self.recorder.enabled() {
            tally.telemetry.merge(&scratch.pg.telemetry);
        }
        t_sd
    }

    /// Evaluate the gathered stride, starting at clock reading `t`: one
    /// `generate_batch_into` call, then one draw per row with the row's own
    /// `(seed, iteration, var)` RNG — exactly the RNG the scalar path would
    /// have used, which is what makes batching invisible to the chain.
    /// Returns the reading after the draws.
    fn flush_batch(&self, width: usize, iteration: u64, scratch: &mut SweepScratch, t: u64) -> u64 {
        if scratch.batch_vars.is_empty() {
            return t;
        }
        self.pipeline
            .generate_batch_into(&scratch.batch_scores, width, &mut scratch.batch);
        let t_pg = self.recorder.now_ns();
        let seed = self.seed;
        let row_vars = &scratch.batch_vars;
        TreeSampler::new().sample_rows_into(
            &scratch.batch.probs,
            width,
            |row| draw_rng(seed, iteration, row_vars[row]),
            &mut scratch.draws,
            &mut scratch.sd,
        );
        let t_sd = self.recorder.now_ns();
        let tally = &mut scratch.tally;
        tally.pg_ns += t_pg - t;
        tally.sd_ns += t_sd - t_pg;
        tally.pg_batches += 1;
        tally.pg_batch_rows += row_vars.len() as u64;
        for ((&var, sample), ops) in row_vars.iter().zip(&scratch.draws).zip(&scratch.batch.ops) {
            scratch.out.push((var, sample.label));
            tally.draw(ops, sample);
        }
        if self.recorder.enabled() {
            tally.telemetry.merge(&scratch.batch.telemetry);
        }
        scratch.batch_scores.clear();
        scratch.batch_vars.clear();
        t_sd
    }

    /// Sweep with precomputed color classes (lets `run` compute them once);
    /// returns the sweep's tally.
    fn sweep_classes<M: ChromaticModel + Sync>(
        &self,
        model: &mut M,
        classes: &[Vec<usize>],
        iteration: u64,
    ) -> Tally {
        let rec = &self.recorder;
        rec.prof_begin(0, Kernel::Sweep);
        let sweep_start = rec.now_ns();
        let mut sweep = Tally::default();
        // The coordinator's own chunk: the commits after each barrier.
        let mut commit = Tally::default();
        let mut colors = Vec::new();
        for (class_idx, class) in classes.iter().enumerate() {
            let class_start = rec.now_ns();
            let busy_before = self.pool.total_busy_ns();
            let chunk = class.len().div_ceil(self.n_threads).max(1);
            let inline = self.n_threads == 1 || class.len() <= chunk;
            let n_slots = if inline {
                // Single chunk: run inline, skip the dispatch round-trip.
                // Inline work executes on the coordinator, hence lane 0.
                let scratch = &mut *self.scratch[0].lock().unwrap();
                self.resample_chunk(&*model, class, iteration, scratch, 0);
                1
            } else {
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = class
                    .chunks(chunk)
                    .zip(&self.scratch)
                    .enumerate()
                    .map(|(slot_idx, (vars, slot))| {
                        let model_ref: &M = &*model;
                        Box::new(move || {
                            let scratch = &mut *slot.lock().unwrap();
                            // Profiler lane i + 1 is pool worker slot i.
                            self.resample_chunk(model_ref, vars, iteration, scratch, slot_idx + 1);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                let n_jobs = jobs.len();
                self.pool.execute_with(jobs, rec);
                n_jobs
            };
            // The class barrier ends here; the commits below are the PU
            // phase. Commit order is irrelevant to the chain (each var
            // appears once), so chunking cannot change the result.
            let barrier_end = rec.now_ns();
            for slot in &self.scratch[..n_slots] {
                let scratch = slot.lock().unwrap();
                for &(var, label) in &scratch.out {
                    commit.flips += u64::from(model.label(var) != label);
                    model.update(var, label);
                }
                commit.updates += scratch.out.len() as u64;
                sweep.merge(&scratch.tally);
            }
            commit.pu_ns += rec.now_ns() - barrier_end;
            if rec.enabled() {
                let barrier_ns = barrier_end - class_start;
                // Worker busy time inside the barrier; the inline path runs
                // on the calling thread, so busy == wall by construction.
                let busy_ns = if inline {
                    barrier_ns
                } else {
                    self.pool.total_busy_ns().saturating_sub(busy_before)
                };
                let capacity = barrier_ns.saturating_mul(n_slots as u64);
                let utilization = if capacity == 0 {
                    1.0
                } else {
                    (busy_ns as f64 / capacity as f64).clamp(0.0, 1.0)
                };
                colors.push(ColorSample {
                    class: class_idx as u64,
                    wall_ns: barrier_ns,
                    busy_ns,
                    utilization,
                });
                rec.span(
                    &format!("color {class_idx}"),
                    "pool",
                    class_start,
                    barrier_ns,
                    self.chain,
                );
            }
        }
        commit.flush_profile(rec, 0);
        rec.prof_end(0, Kernel::Sweep);
        sweep.merge(&commit);
        if rec.enabled() {
            for c in &colors {
                metrics::gauge_with(
                    "coopmc_pool_color_utilization",
                    &[("color", &c.class.to_string())],
                )
                .set(c.utilization);
            }
            for (i, w) in self.pool.worker_stats().iter().enumerate() {
                let worker = i.to_string();
                metrics::gauge_with("coopmc_pool_worker_busy_ns", &[("worker", &worker)])
                    .set(w.busy_ns as f64);
                metrics::gauge_with("coopmc_pool_worker_jobs", &[("worker", &worker)])
                    .set(w.jobs as f64);
            }
            sweep.end_sweep(rec, self.chain, iteration + 1, sweep_start, colors);
        }
        sweep
    }

    /// Run `iterations` sweeps. Color classes are computed once and reused
    /// across all sweeps.
    pub fn run<M: ChromaticModel + Sync>(&self, model: &mut M, iterations: u64) -> usize {
        let classes = model.color_classes();
        (0..iterations)
            .map(|it| self.sweep_classes(model, &classes, it).updates as usize)
            .sum()
    }

    /// Run up to `max_sweeps` sweeps, consulting `controller` after each
    /// with the sweep's update/flip/fallback counts and the statistic
    /// `stat_fn` extracts from the model. Stops early when the controller
    /// returns [`Decision::Stop`]; returns total variables updated.
    ///
    /// The controller only *observes* the chain (counts and a derived
    /// statistic) — it never touches the `(seed, iteration, var)` draw
    /// path, so controlled and plain runs are bit-identical for the sweeps
    /// they share, across any thread count.
    pub fn run_controlled<M: ChromaticModel + Sync>(
        &self,
        model: &mut M,
        max_sweeps: u64,
        mut stat_fn: impl FnMut(&M) -> Option<f64>,
        controller: &mut (impl ConvergenceController + ?Sized),
    ) -> usize {
        let classes = model.color_classes();
        let mut updated = 0;
        for it in 0..max_sweeps {
            let sweep = self.sweep_classes(model, &classes, it);
            updated += sweep.updates as usize;
            let stat = stat_fn(model);
            if let (true, Some(v)) = (self.recorder.enabled(), stat) {
                self.recorder.observe_stat(self.chain, it + 1, v);
            }
            let decision = controller.observe_sweep(
                it + 1,
                sweep.updates,
                sweep.flips,
                sweep.uniform_fallbacks,
                stat,
            );
            if decision == Decision::Stop {
                break;
            }
        }
        updated
    }
}

/// Asynchronous ("Hogwild!") Gibbs sweeps over a grid MRF.
///
/// Worker threads own interleaved stripes of the grid and update shared
/// atomic labels without any synchronisation barrier: neighbour reads may
/// be one update stale, which is exactly the relaxation the paper's
/// reference \[16\] exploits for near-linear PU scaling. Convergence is
/// preserved in practice (and verified in the tests) because stale reads
/// only perturb the chain, not its stationary tendency toward low energy.
///
/// Runs `sweeps` full passes and writes the final labels back into `mrf`.
pub fn hogwild_mrf_sweeps<P: ProbabilityPipeline>(
    mrf: &mut GridMrf,
    pipeline: &P,
    sweeps: u64,
    n_threads: usize,
    seed: u64,
) {
    assert!(n_threads > 0, "need at least one thread");
    let shared: Vec<AtomicUsize> = mrf.labels().into_iter().map(AtomicUsize::new).collect();
    let n = shared.len();
    let n_labels = mrf.num_labels(0);

    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let shared = &shared;
            let mrf_ref: &GridMrf = &*mrf;
            scope.spawn(move || {
                // All hot-path buffers live for the whole worker: steady-
                // state iterations allocate nothing.
                let sampler = TreeSampler::new();
                let mut probs_in: Vec<LabelScore> = Vec::with_capacity(n_labels);
                let mut pg = PgOutput::new();
                let mut sd = SampleScratch::new();
                for it in 0..sweeps {
                    let mut var = t;
                    while var < n {
                        probs_in.clear();
                        for l in 0..n_labels {
                            let cost = mrf_ref
                                .total_cost_at(var, l, |j| shared[j].load(Ordering::Relaxed));
                            probs_in.push(LabelScore::LogDomain(-mrf_ref.beta() * cost));
                        }
                        pipeline.generate_into(&probs_in, &mut pg);
                        let mut rng = draw_rng(seed ^ 0x5150, it, var);
                        let label = sampler.sample_into(&pg.probs, &mut rng, &mut sd).label;
                        shared[var].store(label, Ordering::Relaxed);
                        var += n_threads;
                    }
                }
            });
        }
    });

    let labels: Vec<usize> = shared.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    mrf.set_labels(labels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GibbsEngine, PU_CYCLES};
    use crate::pipeline::{CoopMcPipeline, FloatPipeline};
    use coopmc_models::bn::earthquake;
    use coopmc_models::mrf::image_segmentation;

    #[test]
    fn chromatic_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let mut app = image_segmentation(20, 16, 8);
            let engine = ChromaticEngine::new(FloatPipeline::new(), threads, 77);
            engine.run(&mut app.mrf, 5);
            app.mrf.labels()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(7));
    }

    #[test]
    fn chromatic_reduces_energy_like_sequential() {
        let mut app = image_segmentation(24, 24, 9);
        let before = app.mrf.energy();
        let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 4, 3);
        engine.run(&mut app.mrf, 10);
        let after = app.mrf.energy();
        assert!(
            after < before,
            "chromatic sweeps must lower energy: {before} -> {after}"
        );
    }

    #[test]
    fn chromatic_updates_every_unclamped_variable() {
        let mut net = earthquake();
        net.set_evidence(2, 0);
        let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 5);
        let updated = engine.sweep(&mut net, 0);
        assert_eq!(updated, 4, "5 nodes minus 1 evidence");
    }

    #[test]
    fn chromatic_and_sequential_reach_similar_quality() {
        // Not bitwise-identical chains (different RNG usage), but the same
        // stationary behaviour: compare final energies.
        let app = image_segmentation(24, 20, 10);
        let mut seq_model = app.mrf.clone();
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(3));
        engine.run(&mut seq_model, 15);
        let mut par_model = app.mrf.clone();
        let par = ChromaticEngine::new(FloatPipeline::new(), 4, 3);
        par.run(&mut par_model, 15);
        let e_seq = seq_model.energy();
        let e_par = par_model.energy();
        let rel = (e_seq - e_par).abs() / e_seq.abs().max(1.0);
        assert!(
            rel < 0.1,
            "energies should agree within 10%: {e_seq} vs {e_par}"
        );
    }

    #[test]
    fn hogwild_converges_and_respects_label_range() {
        let mut app = image_segmentation(24, 24, 11);
        let before = app.mrf.energy();
        hogwild_mrf_sweeps(&mut app.mrf, &FloatPipeline::new(), 10, 4, 9);
        let after = app.mrf.energy();
        assert!(
            after < before,
            "hogwild must lower energy: {before} -> {after}"
        );
        assert!(app.mrf.labels().iter().all(|&l| l < 2));
    }

    #[test]
    fn hogwild_parallel_quality_stays_in_band() {
        // Stale reads add sampling noise, so the parallel equilibrium is a
        // little hotter than the single-threaded one — but both must land
        // far below the initial energy and within the same band (the
        // "minimal added bias" claim of the Hogwild literature the paper
        // builds on).
        let app = image_segmentation(20, 20, 12);
        let initial = app.mrf.energy();
        let mut one = app.mrf.clone();
        hogwild_mrf_sweeps(&mut one, &FloatPipeline::new(), 12, 1, 4);
        let mut eight = app.mrf.clone();
        hogwild_mrf_sweeps(&mut eight, &FloatPipeline::new(), 12, 8, 4);
        let e1 = one.energy();
        let e8 = eight.energy();
        assert!(
            e1 < 0.7 * initial,
            "1-thread must converge: {initial} -> {e1}"
        );
        assert!(
            e8 < 0.7 * initial,
            "8-thread must converge: {initial} -> {e8}"
        );
        let rel = (e1 - e8).abs() / e1.abs().max(1.0);
        assert!(rel < 0.6, "equilibria should share a band: {e1} vs {e8}");
    }

    #[test]
    fn hogwild_composes_with_coopmc_pipeline() {
        let mut app = image_segmentation(20, 20, 13);
        let before = app.mrf.energy();
        hogwild_mrf_sweeps(&mut app.mrf, &CoopMcPipeline::new(64, 8), 10, 4, 5);
        assert!(app.mrf.energy() < before);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ChromaticEngine::new(FloatPipeline::new(), 0, 1);
    }

    #[test]
    fn batched_chains_are_bit_identical_to_scalar_chains() {
        // The tentpole acceptance criterion: any batch stride (including
        // ragged tails, strides wider than a class chunk, and the scalar
        // stride 1) must produce the exact same chain.
        let run = |rows: usize, threads: usize| {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), threads, 909)
                .with_batch_rows(rows);
            engine.run(&mut app.mrf, 6);
            app.mrf.labels()
        };
        let scalar = run(1, 1);
        for rows in [2, 5, 8, 32] {
            assert_eq!(scalar, run(rows, 1), "stride {rows}, 1 thread");
            assert_eq!(scalar, run(rows, 3), "stride {rows}, 3 threads");
        }
    }

    #[test]
    fn batched_chains_match_scalar_on_factor_fallback_models() {
        // Bayesian-network scores are factor-domain, so every row takes the
        // scalar fallback inside the batched path — chains must still match.
        let run = |rows: usize| {
            let mut net = earthquake();
            net.set_evidence(2, 0);
            let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 31).with_batch_rows(rows);
            engine.run(&mut net, 8);
            (0..5).map(|v| net.label(v)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn controlled_chromatic_run_matches_plain_run_across_threads() {
        use coopmc_obs::health::NoControl;
        let plain = {
            let mut app = image_segmentation(16, 12, 33);
            let engine = ChromaticEngine::new(FloatPipeline::new(), 1, 55);
            engine.run(&mut app.mrf, 4);
            app.mrf.labels()
        };
        for threads in [1, 3] {
            let mut app = image_segmentation(16, 12, 33);
            let engine = ChromaticEngine::new(FloatPipeline::new(), threads, 55);
            engine.run_controlled(&mut app.mrf, 4, |_| None, &mut NoControl);
            assert_eq!(plain, app.mrf.labels(), "{threads} threads");
        }
    }

    #[test]
    fn controlled_chromatic_run_reports_counts_and_stops() {
        use coopmc_obs::health::{ConvergenceController, Decision};
        #[derive(Default)]
        struct Probe {
            sweeps: u64,
            updates: u64,
            stats: Vec<f64>,
        }
        impl ConvergenceController for Probe {
            fn observe_sweep(
                &mut self,
                it: u64,
                updates: u64,
                flips: u64,
                _fallbacks: u64,
                stat: Option<f64>,
            ) -> Decision {
                self.sweeps = it;
                self.updates += updates;
                assert!(flips <= updates);
                self.stats.push(stat.unwrap());
                if it >= 3 {
                    Decision::Stop
                } else {
                    Decision::Continue
                }
            }
        }
        let mut app = image_segmentation(14, 10, 34);
        let engine = ChromaticEngine::new(FloatPipeline::new(), 2, 8);
        let mut probe = Probe::default();
        let updated = engine.run_controlled(&mut app.mrf, 50, |m| Some(m.energy()), &mut probe);
        assert_eq!(probe.sweeps, 3, "stopped by the controller");
        assert_eq!(probe.updates as usize, updated);
        assert_eq!(updated, 3 * 14 * 10, "every variable, every sweep");
        assert_eq!(probe.stats.len(), 3);
        assert!(probe.stats.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn profiled_chromatic_run_is_chain_invisible_and_covers_worker_lanes() {
        use coopmc_obs::SpanProfiler;
        let base = {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 3, 909);
            engine.run(&mut app.mrf, 4);
            app.mrf.labels()
        };
        let prof = SpanProfiler::new(4);
        let (labels, updated) = {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::with_recorder(CoopMcPipeline::new(64, 8), 3, 909, &prof);
            let updated = engine.run(&mut app.mrf, 4);
            (app.mrf.labels(), updated)
        };
        assert_eq!(base, labels, "profiling must be chain-invisible");

        let reports = prof.kernel_reports();
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep && r.worker == 0)
            .expect("lane-0 sweep span");
        assert_eq!(sweep.calls, 4);
        assert_eq!(sweep.unclosed, 0);
        // 320 vars over 2 color classes and 3 threads: every class is
        // chunked across the pool, so worker lanes must carry PG/SD leaves
        // and the coordinator the dispatch/join/commit ones.
        for k in [Kernel::PoolDispatch, Kernel::PoolJoin, Kernel::PuUpdate] {
            assert!(
                reports.iter().any(|r| r.kernel == k && r.worker == 0),
                "missing coordinator {} leaf",
                k.name()
            );
        }
        for lane in 1..=3 {
            for k in [Kernel::PgGather, Kernel::PgNormalize, Kernel::SdSampleRows] {
                assert!(
                    reports.iter().any(|r| r.kernel == k && r.worker == lane),
                    "missing {} on worker lane {lane}",
                    k.name()
                );
            }
        }
        // PU cycles follow the sweep's update count.
        let pu: u64 = reports
            .iter()
            .filter(|r| r.kernel == Kernel::PuUpdate)
            .map(|r| r.modeled_cycles)
            .sum();
        assert_eq!(pu, PU_CYCLES * updated as u64);
    }

    #[test]
    fn default_batch_stride_is_one_packed_word() {
        let engine = ChromaticEngine::new(FloatPipeline::new(), 1, 1);
        assert_eq!(engine.batch_rows(), DEFAULT_BATCH_ROWS);
        assert_eq!(DEFAULT_BATCH_ROWS, 8);
    }

    #[test]
    #[should_panic(expected = "batch stride must be positive")]
    fn zero_batch_stride_panics() {
        let _ = ChromaticEngine::new(FloatPipeline::new(), 1, 1).with_batch_rows(0);
    }
}
