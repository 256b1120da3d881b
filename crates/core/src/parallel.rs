//! Parallel Gibbs scheduling: chromatic and Hogwild engines.
//!
//! Previous accelerators (paper references \[15\], \[16\]) parallelize the
//! Parameter Update step with *chromatic* scheduling (sample a whole
//! conditionally-independent color class concurrently) or *asynchronous*
//! ("Hogwild!") updates that tolerate stale neighbour reads. CoopMC's PG/SD
//! optimizations are orthogonal and compose with both — which this module
//! demonstrates executably: both engines accept any
//! [`ProbabilityPipeline`], and the chromatic engine any [`Sampler`].
//!
//! The chromatic engine is **deterministic regardless of thread count**:
//! every variable draw uses an RNG seeded by `(seed, iteration, variable)`,
//! so a 1-thread and an 8-thread run produce identical chains — a strong
//! correctness handle that the tests exploit.

use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::GridMrf;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_obs::health::{ConvergenceController, NoControl};
use coopmc_obs::journal::{ColorSample, SweepSample};
use coopmc_obs::{NoopRecorder, Recorder};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleScratch, Sampler, TreeSampler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::engine::{Chain, Lane, Tally};
use crate::pipeline::{PgBatch, ProbabilityPipeline};
use crate::pool::WorkerPool;

/// The chromatic engine's stride: a chunk of a color class is gathered and
/// evaluated up to this many variables per `generate_rows_into` call.
pub const DEFAULT_BATCH_ROWS: usize = 8;

/// Derive the per-variable RNG for a chromatic draw. SplitMix64's finalizer
/// decorrelates the structured seeds.
fn draw_rng(seed: u64, iteration: u64, var: usize) -> SplitMix64 {
    let mut mixer = SplitMix64::new(
        seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (var as u64).wrapping_mul(0xDEAD_BEEF_CAFE_F00D),
    );
    SplitMix64::new(mixer.derive())
}

/// Lock a lane, recovering one a panicked chunk poisoned: every chunk
/// resets what it reads when it begins.
fn lock(lane: &Mutex<Lane>) -> MutexGuard<'_, Lane> {
    lane.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Chromatic parallel Gibbs engine.
///
/// Worker threads are spawned **once** (at construction) into a persistent
/// [`WorkerPool`]; each color class is one broadcast in which slot `s` (the
/// caller is slot 0) draws the class's `s`-th chunk — no per-sweep thread
/// spawning, no per-class allocation. The engine stays deterministic
/// independent of thread count: every draw's RNG is derived from
/// `(seed, iteration, var)` alone, and draws of a class are committed only
/// after the whole class finishes, so neither chunking nor scheduling order
/// can leak into the chain. Each chunk evaluates its rows in
/// [`DEFAULT_BATCH_ROWS`] strides, which the batched kernels make
/// bit-identical to per-row evaluation. Recording (the `Rec` parameter,
/// default [`NoopRecorder`] = compiled out, no clock read) observes the
/// chain without touching the draw path, so recorded and unrecorded runs
/// are **bit-identical** — a property the observability tests assert
/// across thread counts.
#[derive(Debug)]
pub struct ChromaticEngine<P, S = TreeSampler, Rec = NoopRecorder> {
    pipeline: P,
    sampler: S,
    seed: u64,
    chain: Chain<Rec>,
    pool: WorkerPool,
    /// One per pool slot; lane 0 belongs to the calling thread.
    lanes: Vec<Mutex<Lane>>,
}

impl<P: ProbabilityPipeline> ChromaticEngine<P> {
    /// Build an engine on `n_threads` threads (the caller and `n_threads − 1`
    /// persistent workers) that draws with the [`TreeSampler`], unrecorded.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(pipeline: P, n_threads: usize, seed: u64) -> Self {
        Self::with_recorder(pipeline, TreeSampler::new(), n_threads, seed, NoopRecorder)
    }
}

impl<P: ProbabilityPipeline, S: Sampler + Sync, Rec: Recorder> ChromaticEngine<P, S, Rec> {
    /// Build an engine that draws with `sampler` and reports every sweep
    /// (and per-color worker-pool utilization) to `recorder`.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn with_recorder(
        pipeline: P,
        sampler: S,
        n_threads: usize,
        seed: u64,
        recorder: Rec,
    ) -> Self {
        Self {
            pipeline,
            sampler,
            seed,
            pool: WorkerPool::new(n_threads),
            lanes: (0..n_threads)
                .map(|_| Mutex::new(Lane::new(recorder.profiling())))
                .collect(),
            chain: Chain::new(recorder),
        }
    }

    /// Number of threads, the calling one included.
    pub fn n_threads(&self) -> usize {
        self.pool.n_threads()
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.chain.recorder
    }

    /// Cumulative busy time across the pool's slots, in nanoseconds.
    ///
    /// Slot 0, the calling thread, is counted like every worker, so this
    /// covers every chunk of every class at any thread count. It is the
    /// pool's own accounting, the one clock the pool always reads, exposed
    /// so scaling studies can compute utilization without a recorder.
    pub fn pool_busy_ns(&self) -> u64 {
        self.pool.total_busy_ns()
    }

    /// One full sweep with `iteration`'s draw RNGs (the journal numbers
    /// sweeps itself): each color class is resampled concurrently from the
    /// same snapshot, then committed before the next class starts. Returns
    /// the number of variables updated.
    pub fn sweep<M: ChromaticModel + Sync>(&self, model: &mut M, iteration: u64) -> usize {
        let classes = model.color_classes();
        let sweep = |m: &mut M, _| self.sweep_classes(m, &classes, iteration);
        self.chain.sweep(model, sweep, |_| None).0.updates as usize
    }

    /// Resample every class in turn, one pool broadcast per class in which
    /// slot `s` draws the class's `s`-th chunk on lane `s`, then commit the
    /// draws on the calling thread. Returns the sweep's tally and, when
    /// journaling, a journal record holding only the per-color samples and
    /// the pool's slot totals.
    fn sweep_classes<M: ChromaticModel + Sync>(
        &self,
        model: &mut M,
        classes: &[Vec<usize>],
        iteration: u64,
    ) -> (Tally, SweepSample) {
        let rec = &self.chain.recorder;
        let mut sweep = Tally::default();
        // The coordinator's own chunk: the commits after each barrier.
        let mut commit = Tally::default();
        let mut commit_end = 0;
        let mut pool = SweepSample::default();
        for (class_idx, class) in classes.iter().enumerate() {
            let class_start = rec.now_ns();
            let busy_before = self.pool.total_busy_ns();
            let chunk = class.len().div_ceil(self.lanes.len()).max(1);
            let slots = class.len().div_ceil(chunk).max(1);
            let resample = |slot: usize| {
                let lane = &mut *lock(&self.lanes[slot]);
                let vars = class.chunks(chunk).nth(slot).unwrap_or_default();
                let rng = |var| draw_rng(self.seed, iteration, var);
                lane.strides(&*model, vars, &self.pipeline, &self.sampler, rng, rec);
                lane.finish(rec, slot);
            };
            self.pool.broadcast(slots, &resample, rec);
            // The class barrier ends here; the commits below are the PU
            // phase. Commit order is irrelevant to the chain (each var
            // appears once), so chunking cannot change the result.
            let barrier_end = rec.now_ns();
            for lane in &self.lanes[..slots] {
                let lane = lock(lane);
                for &(var, label) in &lane.out {
                    commit.flips += u64::from(model.label(var) != label);
                    model.update(var, label);
                }
                commit.updates += lane.out.len() as u64;
                sweep.merge(&lane.tally);
            }
            commit_end = rec.now_ns();
            commit.pu_ns += commit_end - barrier_end;
            if rec.enabled() {
                let wall_ns = barrier_end - class_start;
                let busy_ns = self.pool.total_busy_ns().saturating_sub(busy_before);
                let capacity = wall_ns.saturating_mul(slots as u64);
                let utilization = if capacity == 0 {
                    1.0
                } else {
                    (busy_ns as f64 / capacity as f64).clamp(0.0, 1.0)
                };
                pool.colors.push(ColorSample {
                    class: class_idx as u64,
                    start_ns: class_start,
                    wall_ns,
                    busy_ns,
                    utilization,
                });
            }
        }
        commit.flush_profile(rec, 0, commit_end);
        sweep.merge(&commit);
        if rec.enabled() {
            pool.slots = self.pool.worker_stats();
        }
        (sweep, pool)
    }

    /// Run `iterations` sweeps. Color classes are computed once and reused
    /// across all sweeps.
    pub fn run<M: ChromaticModel + Sync>(&self, model: &mut M, iterations: u64) -> usize {
        self.run_controlled(model, iterations, |_| None, &mut NoControl)
    }

    /// Run up to `max_sweeps` sweeps, consulting `controller` after each
    /// with the sweep's update/flip/fallback counts and the statistic
    /// `stat_fn` extracts from the model. Stops early when the controller
    /// returns [`coopmc_obs::health::Decision::Stop`]; returns total
    /// variables updated.
    ///
    /// The controller only *observes* the chain (counts and a derived
    /// statistic) — it never touches the `(seed, iteration, var)` draw
    /// path, so controlled and plain runs are bit-identical for the sweeps
    /// they share, across any thread count.
    pub fn run_controlled<M: ChromaticModel + Sync>(
        &self,
        model: &mut M,
        max_sweeps: u64,
        stat_fn: impl FnMut(&M) -> Option<f64>,
        controller: &mut (impl ConvergenceController + ?Sized),
    ) -> usize {
        let classes = model.color_classes();
        let sweep = |m: &mut M, it, _| self.sweep_classes(m, &classes, it);
        let stats = self
            .chain
            .drive(model, max_sweeps, sweep, stat_fn, controller);
        stats.updates as usize
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
                let mut rows = ScoreRows::new();
                let mut pg = PgBatch::new();
                let mut sd = SampleScratch::new();
                for it in 0..sweeps {
                    let mut var = t;
                    while var < n {
                        let read = |j: usize| shared[j].load(Ordering::Relaxed);
                        rows.clear();
                        mrf_ref.log_row_into(var, read, rows.push_log_row(n_labels));
                        pipeline.generate_rows_into(&rows, &mut pg);
                        let mut rng = draw_rng(seed ^ 0x5150, it, var);
                        let label = sampler.sample_into(pg.weights(), &mut rng, &mut sd).label;
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
    use crate::pipeline::{CoopMcPipeline, FloatPipeline, PgOutput};
    use coopmc_models::bn::earthquake;
    use coopmc_models::mrf::image_segmentation;
    use coopmc_obs::profile::Kernel;

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

    /// The chromatic chain computed one row at a time: scalar
    /// `generate_into` and `sample_into` per variable with the engine's
    /// per-variable RNG, each class committed after all its draws.
    fn scalar_chain<M: ChromaticModel>(
        model: &mut M,
        pipeline: &impl ProbabilityPipeline,
        seed: u64,
        sweeps: u64,
    ) {
        let (mut scores, mut pg, mut sd) = (Vec::new(), PgOutput::new(), SampleScratch::new());
        for it in 0..sweeps {
            for class in model.color_classes() {
                let mut draws = Vec::new();
                for &var in class.iter().filter(|&&v| !model.is_clamped(v)) {
                    model.scores_into(var, &mut scores);
                    pipeline.generate_into(&scores, &mut pg);
                    let mut rng = draw_rng(seed, it, var);
                    let sample = TreeSampler::new().sample_into(&pg.probs, &mut rng, &mut sd);
                    draws.push((var, sample.label));
                }
                for (var, label) in draws {
                    model.update(var, label);
                }
            }
        }
    }

    #[test]
    fn batched_chains_are_bit_identical_to_scalar_chains() {
        // Strided evaluation, ragged tails and chunking across threads
        // included, must reproduce the row-at-a-time chain exactly.
        let app = image_segmentation(20, 16, 21);
        let mut scalar = app.mrf.clone();
        scalar_chain(&mut scalar, &CoopMcPipeline::new(64, 8), 909, 6);
        for threads in [1, 3] {
            let mut mrf = app.mrf.clone();
            ChromaticEngine::new(CoopMcPipeline::new(64, 8), threads, 909).run(&mut mrf, 6);
            assert_eq!(scalar.labels(), mrf.labels(), "{threads} threads");
        }
    }

    #[test]
    fn batched_chains_match_scalar_on_factor_fallback_models() {
        // Bayesian-network rows are factor rows, which the float pipeline
        // evaluates row by row inside `generate_rows_into` — chains must
        // still match the row-at-a-time chain.
        let mut net = earthquake();
        net.set_evidence(2, 0);
        let mut scalar = net.clone();
        scalar_chain(&mut scalar, &FloatPipeline::new(), 31, 8);
        ChromaticEngine::new(FloatPipeline::new(), 2, 31).run(&mut net, 8);
        assert_eq!(scalar.labels(), net.labels());
    }

    #[test]
    fn earthquake_strides_mix_row_arities_and_keep_their_count() {
        // Color class 0 is {burglary, johncalls, marycalls}. At 2 threads
        // slot 0's stride holds burglary's row (its CPT entry and alarm's:
        // 2 factors per label) beside johncalls' (its CPT entry: 1 factor
        // per label). earthquake and alarm are classes of their own, so a
        // sweep runs 4 strides over 5 rows.
        let mut net = earthquake();
        let class: Vec<_> = net.color_classes()[0]
            .iter()
            .map(|&v| net.nodes()[v].name)
            .collect();
        assert_eq!(class, ["burglary", "johncalls", "marycalls"]);
        let recorder = coopmc_obs::TraceRecorder::new();
        let pipeline = CoopMcPipeline::new(64, 8);
        ChromaticEngine::with_recorder(pipeline, TreeSampler::new(), 2, 5, &recorder)
            .run(&mut net, 3);
        for sweep in recorder.sweeps() {
            assert_eq!((sweep.pg_batches, sweep.pg_batch_rows), (4, 5));
        }
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
        let prof = SpanProfiler::new(3);
        let (labels, updated) = {
            let mut app = image_segmentation(20, 16, 21);
            let engine = ChromaticEngine::with_recorder(
                CoopMcPipeline::new(64, 8),
                TreeSampler::new(),
                3,
                909,
                &prof,
            );
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
        // chunked across the pool's three slots, so every lane carries PG/SD
        // leaves and the coordinator the dispatch/join/commit ones too.
        for k in [Kernel::PoolDispatch, Kernel::PoolJoin, Kernel::PuUpdate] {
            assert!(
                reports.iter().any(|r| r.kernel == k && r.worker == 0),
                "missing coordinator {} leaf",
                k.name()
            );
        }
        for lane in 0..3 {
            for k in [Kernel::PgGather, Kernel::PgNormalize, Kernel::SdSampleRows] {
                assert!(
                    reports.iter().any(|r| r.kernel == k && r.worker == lane),
                    "missing {} on lane {lane}",
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
    fn default_batch_stride_is_eight_rows() {
        assert_eq!(DEFAULT_BATCH_ROWS, 8);
        // At one thread each class is one chunk, cut into full strides
        // plus a ragged tail.
        let recorder = coopmc_obs::TraceRecorder::new();
        let mut app = image_segmentation(12, 10, 3);
        let strides: u64 = app
            .mrf
            .color_classes()
            .iter()
            .map(|c| c.len().div_ceil(DEFAULT_BATCH_ROWS) as u64)
            .sum();
        ChromaticEngine::with_recorder(FloatPipeline::new(), TreeSampler::new(), 1, 1, &recorder)
            .run(&mut app.mrf, 1);
        let sweep = &recorder.sweeps()[0];
        assert_eq!((sweep.pg_batches, sweep.pg_batch_rows), (strides, 120));
    }

    /// One variable without labels: a zero-width row.
    struct NoLabels;

    impl GibbsModel for NoLabels {
        fn num_variables(&self) -> usize {
            1
        }

        fn num_labels(&self, _: usize) -> usize {
            0
        }

        fn row_into(&self, _: usize, rows: &mut ScoreRows) {
            rows.push_log_row(0);
        }

        fn update(&mut self, _: usize, _: usize) {}

        fn label(&self, _: usize) -> usize {
            0
        }
    }

    impl ChromaticModel for NoLabels {
        fn color_classes(&self) -> Vec<Vec<usize>> {
            vec![vec![0]]
        }

        fn dependency_graph(&self) -> Vec<Vec<usize>> {
            vec![Vec::new()]
        }
    }

    #[test]
    #[should_panic(expected = "row width must be positive")]
    fn zero_batch_stride_panics() {
        // The gather refuses a zero-width row rather than drawing from
        // nothing.
        ChromaticEngine::new(FloatPipeline::new(), 1, 1).sweep(&mut NoLabels, 0);
    }
}
