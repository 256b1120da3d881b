//! The sweep core both Gibbs engines are built on, and the sequential
//! engine. A `Lane` runs the gather → PG → SD flow into its `Tally`; a
//! `Chain` reports each sweep to the recorder and drives both engines'
//! runs.

use std::sync::atomic::{AtomicU64, Ordering};

use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::fusion::StagePhases;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{GibbsModel, ScoreRows};
use coopmc_obs::health::{ConvergenceController, Decision, NoControl};
use coopmc_obs::journal::SweepSample;
use coopmc_obs::profile::Kernel;
use coopmc_obs::{Event, NoopRecorder, Recorder};
use coopmc_rng::HwRng;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler};

use crate::parallel::DEFAULT_BATCH_ROWS;
use crate::pipeline::{PgBatch, ProbabilityPipeline};

pub use coopmc_kernels::cost::PU_CYCLES;

/// Cumulative statistics of an engine run: deterministic counts and
/// modeled hardware cycles only.
///
/// Wall times are the recorder's business: a journaling recorder receives
/// each sweep's PG/SD/PU split as a `SweepSample`, and
/// `coopmc_obs::journal::phase_percent` turns those into the Table II
/// breakdown.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Completed full sweeps.
    pub iterations: u64,
    /// Variables resampled (clamped variables are skipped).
    pub updates: u64,
    /// Resampled variables whose label changed.
    pub flips: u64,
    /// Draws that hit the all-zero-mass uniform fallback (the Fig. 2 flush
    /// regime).
    pub uniform_fallbacks: u64,
    /// Datapath operation tally across the run.
    pub ops: OpCounts,
    /// Total sampler cycles (hardware model accounting).
    pub sd_cycles: u64,
    /// Total PG datapath cycles (operation tally priced at the per-op
    /// latencies of `coopmc_kernels::cost`, serialized per shared ALU).
    pub pg_cycles: u64,
}

impl RunStats {
    /// Total simulated hardware cycles (PG + SD + a [`PU_CYCLES`]-cycle PU
    /// per update), the per-workload analogue of the Table IV cycle
    /// accounting measured on the actual executed chain rather than the
    /// closed-form model.
    pub fn simulated_hw_cycles(&self) -> u64 {
        self.pg_cycles + self.sd_cycles + PU_CYCLES * self.updates
    }

    /// Add one completed sweep's tally.
    fn add_sweep(&mut self, sweep: &Tally) {
        self.iterations += 1;
        self.updates += sweep.updates;
        self.flips += sweep.flips;
        self.uniform_fallbacks += sweep.uniform_fallbacks;
        self.ops.merge(&sweep.ops);
        self.sd_cycles += sweep.sd_cycles;
        // `sequential_cycles` is linear in the op counts, so pricing the
        // sweep's merged tally equals summing per-draw prices.
        self.pg_cycles += sweep.ops.sequential_cycles();
    }
}

/// What one lane did over one chunk of work. Both engines account for a
/// sweep through it: the sequential engine's chunk is its whole sweep; the
/// chromatic engine keeps one per pool slot plus one for the
/// coordinator's commits, and merges them after each class barrier.
///
/// Counts and modeled cycles are integer adds and always kept. The wall
/// times are differences of [`Recorder::now_ns`] readings, so under the
/// [`NoopRecorder`] they are constant zeros and no clock is read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Variables committed.
    pub(crate) updates: u64,
    /// Committed variables whose label changed.
    pub(crate) flips: u64,
    /// Draws that hit the uniform fallback.
    pub(crate) uniform_fallbacks: u64,
    /// PG datapath operations of every draw.
    pub(crate) ops: OpCounts,
    /// Modeled sampler cycles.
    pub(crate) sd_cycles: u64,
    /// Batched PG calls.
    pub(crate) pg_batches: u64,
    /// Rows evaluated through batched PG calls.
    pub(crate) pg_batch_rows: u64,
    /// DyNorm/exp-kernel observations (merged only when journaling).
    pub(crate) telemetry: PgTelemetry,
    /// Wall time gathering scores, ns.
    pub(crate) gather_ns: u64,
    /// Wall time in the PG datapath, ns.
    pub(crate) pg_ns: u64,
    /// Wall time in SD, ns.
    pub(crate) sd_ns: u64,
    /// Wall time in PU, ns.
    pub(crate) pu_ns: u64,
    /// The fused datapath's stage split of `pg_ns` (profiling only).
    pub(crate) phases: StagePhases,
}

impl Tally {
    /// Account one draw: its PG op tally and the sampler's result.
    pub(crate) fn draw(&mut self, ops: &OpCounts, sample: &SampleResult) {
        self.ops.merge(ops);
        self.sd_cycles += sample.cycles;
        self.uniform_fallbacks += u64::from(sample.fallback);
    }

    /// Fold a PG buffer's stage accumulator in and zero it for the next
    /// chunk. A detached accumulator (`None`: not profiling) is left alone.
    pub(crate) fn take_phases(&mut self, phases: &mut Option<StagePhases>) {
        if let Some(p) = phases {
            self.phases.merge(p);
            *p = StagePhases::default();
        }
    }

    /// Add another lane's tally.
    pub(crate) fn merge(&mut self, other: &Tally) {
        self.updates += other.updates;
        self.flips += other.flips;
        self.uniform_fallbacks += other.uniform_fallbacks;
        self.ops.merge(&other.ops);
        self.sd_cycles += other.sd_cycles;
        self.pg_batches += other.pg_batches;
        self.pg_batch_rows += other.pg_batch_rows;
        self.telemetry.merge(&other.telemetry);
        self.gather_ns += other.gather_ns;
        self.pg_ns += other.pg_ns;
        self.sd_ns += other.sd_ns;
        self.pu_ns += other.pu_ns;
        self.phases.merge(&other.phases);
    }

    /// Report the chunk, which ended at `end_ns`, as one
    /// [`Event::Kernel`] per kernel on `lane` (nothing unless profiling):
    /// its wall time and its modeled cycles. One event per kernel keeps
    /// ring traffic proportional to chunks, not variables.
    ///
    /// The PG kernels `pg.normalize`, `pg.dynorm` and `pg.exp_batch` carry
    /// the op tally's [`OpCounts::stage_cycles`], whose sum is
    /// [`OpCounts::sequential_cycles`], so the ledger's modeled total
    /// matches the journal's `pg_cycles`. SD is the sampler's own latency
    /// tally and PU is [`PU_CYCLES`] per committed update, matching
    /// [`RunStats::simulated_hw_cycles`].
    pub(crate) fn flush_profile<Rec: Recorder>(&self, rec: &Rec, lane: usize, end_ns: u64) {
        if !rec.profiling() {
            return;
        }
        let phases = &self.phases;
        let [normalize, dynorm, exp] = self.ops.stage_cycles();
        for (kernel, dur_ns, cycles) in [
            (Kernel::PgGather, self.gather_ns, 0),
            (Kernel::PgNormalize, phases.normalize_ns, normalize),
            (Kernel::PgDynorm, phases.dynorm_ns, dynorm),
            (Kernel::PgExpBatch, phases.exp_ns, exp),
            (Kernel::SdSampleRows, self.sd_ns, self.sd_cycles),
            (Kernel::PuUpdate, self.pu_ns, PU_CYCLES * self.updates),
        ] {
            rec.record(Event::Kernel {
                lane,
                kernel,
                end_ns,
                dur_ns,
                cycles,
            });
        }
    }
}

/// One lane's hot-path buffers and running tally: the sequential engine
/// owns one, the chromatic engine one per pool slot. Once a warm-up sweep
/// has grown them to the model's rows, a lane allocates nothing.
///
/// Rows are gathered with [`GibbsModel::row_into`] onto one stride, which
/// PG reads in place with one
/// [`ProbabilityPipeline::generate_rows_into`] call.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// The current stride's rows.
    rows: ScoreRows,
    /// Variables owning the stride's rows, in gather order.
    vars: Vec<usize>,
    /// PG output of the last stride.
    batch: PgBatch,
    /// Per-row draws of the last stride.
    draws: Vec<SampleResult>,
    /// Sampler working memory.
    sd: SampleScratch,
    /// `(var, label)` draws awaiting the class barrier's commit.
    pub(crate) out: Vec<(usize, usize)>,
    /// What this lane did since its chunk began.
    pub(crate) tally: Tally,
    /// Clock reading at the last phase boundary.
    t: u64,
}

impl Lane {
    /// Empty buffers, with the PG stage accumulator attached when
    /// profiling.
    pub(crate) fn new(profiling: bool) -> Self {
        let mut lane = Self::default();
        lane.batch.phases = profiling.then(StagePhases::default);
        lane
    }

    /// Start a chunk at clock reading `t`. A draw reads nothing else not
    /// overwritten first, so a lane a panic left mid-chunk draws correctly.
    fn begin(&mut self, t: u64) {
        self.tally = Tally::default();
        self.rows.clear();
        self.vars.clear();
        self.out.clear();
        self.t = t;
    }

    /// Nanoseconds since the last phase boundary, which moves to now.
    fn lap(&mut self, rec: &impl Recorder) -> u64 {
        let last = std::mem::replace(&mut self.t, rec.now_ns());
        self.t - last
    }

    /// Append `var`'s score row to the stride.
    fn gather<M: GibbsModel + ?Sized>(&mut self, model: &M, var: usize, rec: &impl Recorder) {
        model.row_into(var, &mut self.rows);
        self.tally.gather_ns += self.lap(rec);
    }

    /// Evaluate the stride's rows with one `generate_rows_into` call, which
    /// gives each row the result it would get alone.
    fn pg(&mut self, pipeline: &impl ProbabilityPipeline, rec: &impl Recorder) {
        pipeline.generate_rows_into(&self.rows, &mut self.batch);
        self.tally.pg_ns += self.lap(rec);
    }

    /// End the chunk at its last phase boundary: fold the PG stage
    /// accumulator into the tally and report it to the profiler as
    /// `lane`'s.
    pub(crate) fn finish(&mut self, rec: &impl Recorder, lane: usize) {
        self.tally.take_phases(&mut self.batch.phases);
        self.tally.flush_profile(rec, lane, self.t);
    }

    /// A chromatic chunk: gather the free variables of `vars` from the
    /// class snapshot in `model` and draw them in strides of up to
    /// [`DEFAULT_BATCH_ROWS`] rows of one width, each row with its own
    /// `rng(var)`. A row has one entry per label, so a stride breaks
    /// before a variable of another label count is gathered. The draws
    /// wait in `out` for the class barrier; their order cannot reach the
    /// chain, since each variable appears once.
    pub(crate) fn strides<M: GibbsModel + ?Sized, R: HwRng>(
        &mut self,
        model: &M,
        vars: &[usize],
        pipeline: &impl ProbabilityPipeline,
        sampler: &impl Sampler,
        rng: impl Fn(usize) -> R,
        rec: &impl Recorder,
    ) {
        self.begin(rec.now_ns());
        for &var in vars {
            if model.is_clamped(var) {
                continue;
            }
            let full = self.vars.len() == DEFAULT_BATCH_ROWS;
            if full || model.num_labels(var) != self.rows.width() {
                self.draw_stride(pipeline, sampler, &rng, rec);
            }
            self.gather(model, var, rec);
            self.vars.push(var);
        }
        self.draw_stride(pipeline, sampler, &rng, rec);
    }

    /// Draw the stride's rows, if any, each with its variable's RNG, and
    /// empty the stride.
    fn draw_stride<R: HwRng>(
        &mut self,
        pipeline: &impl ProbabilityPipeline,
        sampler: &impl Sampler,
        rng: &impl Fn(usize) -> R,
        rec: &impl Recorder,
    ) {
        let rows = self.vars.len();
        if rows == 0 {
            return;
        }
        self.pg(pipeline, rec);
        let vars = &self.vars;
        sampler.sample_rows_into(
            self.batch.weights(),
            self.rows.width(),
            |row| rng(vars[row]),
            &mut self.draws,
            &mut self.sd,
        );
        self.tally.sd_ns += self.lap(rec);
        let tally = &mut self.tally;
        tally.pg_batches += 1;
        tally.pg_batch_rows += rows as u64;
        for ((&var, sample), ops) in self.vars.iter().zip(&self.draws).zip(&self.batch.ops) {
            self.out.push((var, sample.label));
            tally.draw(ops, sample);
        }
        if rec.enabled() {
            tally.telemetry.merge(&self.batch.telemetry);
        }
        self.rows.clear();
        self.vars.clear();
    }
}

/// What both engines keep around their sweeps: the recorder and the
/// journal's sweep counter.
#[derive(Debug)]
pub(crate) struct Chain<Rec> {
    pub(crate) recorder: Rec,
    /// 1-based journal iteration of the last sweep, monotone for the
    /// engine's lifetime, so repeated runs on one engine keep a valid
    /// journal.
    iteration: AtomicU64,
}

impl<Rec: Recorder> Chain<Rec> {
    pub(crate) fn new(recorder: Rec) -> Self {
        Self {
            recorder,
            iteration: AtomicU64::new(0),
        }
    }

    /// The journal iteration of the last sweep.
    pub(crate) fn iteration(&self) -> u64 {
        self.iteration.load(Ordering::Relaxed)
    }

    /// One sweep between two clock readings, reported as
    /// [`Event::SweepStart`] and [`Event::SweepEnd`]. `body` resamples
    /// `model` from the start reading (flushing lane 0's profile itself)
    /// and returns the sweep's tally and the pool's part of its journal
    /// record (empty unless journaling). After the end reading, `stat`
    /// reads the model statistic the journal record carries, so the
    /// sweep's wall time excludes it. Returns the tally and the statistic.
    pub(crate) fn sweep<M: ?Sized>(
        &self,
        model: &mut M,
        body: impl FnOnce(&mut M, u64) -> (Tally, SweepSample),
        stat: impl FnOnce(&M) -> Option<f64>,
    ) -> (Tally, Option<f64>) {
        let rec = &self.recorder;
        let start_ns = rec.now_ns();
        rec.record(Event::SweepStart { start_ns });
        let (tally, pool) = body(model, start_ns);
        let end_ns = rec.now_ns();
        let stat = stat(model);
        let iteration = self.iteration.fetch_add(1, Ordering::Relaxed) + 1;
        let sample = rec.enabled().then(|| SweepSample {
            iteration,
            start_ns,
            wall_ns: end_ns.saturating_sub(start_ns),
            updates: tally.updates,
            flips: tally.flips,
            uniform_fallbacks: tally.uniform_fallbacks,
            // Table II's PG includes gathering the scores.
            pg_ns: tally.gather_ns + tally.pg_ns,
            sd_ns: tally.sd_ns,
            pu_ns: tally.pu_ns,
            pg_cycles: tally.ops.sequential_cycles(),
            sd_cycles: tally.sd_cycles,
            pu_cycles: PU_CYCLES * tally.updates,
            pg_batches: tally.pg_batches,
            pg_batch_rows: tally.pg_batch_rows,
            norm_max: tally.telemetry.norm_max,
            exp_in_min: tally.telemetry.exp_in_min,
            exp_in_max: tally.telemetry.exp_in_max,
            stat,
            ..pool
        });
        rec.record(Event::SweepEnd {
            end_ns,
            sample: sample.as_ref(),
        });
        (tally, stat)
    }

    /// Run up to `max_sweeps` sweeps of `body`, which gets the model, the
    /// run-local sweep index and the sweep's start reading. After each,
    /// `stat_fn`'s statistic goes into the sweep's journal record and,
    /// with the sweep's counts, to `controller`, which may end the run.
    pub(crate) fn drive<M: ?Sized>(
        &self,
        model: &mut M,
        max_sweeps: u64,
        mut body: impl FnMut(&mut M, u64, u64) -> (Tally, SweepSample),
        mut stat_fn: impl FnMut(&M) -> Option<f64>,
        controller: &mut (impl ConvergenceController + ?Sized),
    ) -> RunStats {
        let mut stats = RunStats::default();
        for it in 0..max_sweeps {
            let sweep = |m: &mut M, start| body(m, it, start);
            let (tally, stat) = self.sweep(model, sweep, &mut stat_fn);
            stats.add_sweep(&tally);
            let decision = controller.observe_sweep(
                self.iteration(),
                tally.updates,
                tally.flips,
                tally.uniform_fallbacks,
                stat,
            );
            if decision == Decision::Stop {
                break;
            }
        }
        stats
    }
}

/// The sequential sweep: every variable in index order through PG and SD
/// on one RNG stream, each draw committed at once, all on one lane. Each
/// row is evaluated by a one-row `generate_rows_into` call.
#[derive(Debug)]
struct Scan<P, S, R> {
    pipeline: P,
    sampler: S,
    rng: R,
    lane: Lane,
}

impl<P: ProbabilityPipeline, S: Sampler, R: HwRng> Scan<P, S, R> {
    /// One sweep from clock reading `start`, reported as lane 0's chunk.
    fn sweep<M: GibbsModel + ?Sized>(
        &mut self,
        model: &mut M,
        rec: &impl Recorder,
        start: u64,
    ) -> (Tally, SweepSample) {
        let (lane, rng) = (&mut self.lane, &mut self.rng);
        lane.begin(start);
        for var in 0..model.num_variables() {
            if model.is_clamped(var) {
                continue;
            }
            let old_label = model.label(var);
            model.begin_resample(var);
            lane.rows.clear();
            lane.gather(model, var, rec);
            lane.pg(&self.pipeline, rec);
            let sample = self
                .sampler
                .sample_into(lane.batch.weights(), rng, &mut lane.sd);
            lane.tally.sd_ns += lane.lap(rec);
            model.update(var, sample.label);
            lane.tally.pu_ns += lane.lap(rec);
            let tally = &mut lane.tally;
            tally.draw(&lane.batch.ops[0], &sample);
            tally.updates += 1;
            tally.flips += u64::from(sample.label != old_label);
            if rec.enabled() {
                tally.telemetry.merge(&lane.batch.telemetry);
            }
        }
        lane.finish(rec, 0);
        (lane.tally, SweepSample::default())
    }
}

/// Drives a [`GibbsModel`] through PG → SD → PU sweeps.
///
/// The engine owns every hot-path buffer (score rows, PG batch, sampler
/// scratch), so after a warm-up sweep has grown them to the model's label
/// count, a steady-state sweep performs **zero heap allocations**.
///
/// The engine is generic over a [`Recorder`], its only instrumentation
/// seam: every clock read goes through [`Recorder::now_ns`]. The default
/// [`NoopRecorder`] is statically dispatched into nothing — it reads no
/// clock — so the counting-allocator test in `tests/alloc_free.rs` proves
/// instrumented-but-disabled sweeps keep the zero-allocation guarantee.
/// Construct with [`GibbsEngine::with_recorder`] (typically over
/// `&TraceRecorder`, so the caller keeps ownership for export) to emit one
/// journal record per sweep.
#[derive(Debug)]
pub struct GibbsEngine<P, S, R, Rec = NoopRecorder> {
    scan: Scan<P, S, R>,
    chain: Chain<Rec>,
}

impl<P: ProbabilityPipeline, S: Sampler, R: HwRng> GibbsEngine<P, S, R> {
    /// Assemble an engine from a pipeline, a sampler and an RNG, with
    /// recording disabled (the zero-overhead [`NoopRecorder`]).
    pub fn new(pipeline: P, sampler: S, rng: R) -> Self {
        Self::with_recorder(pipeline, sampler, rng, NoopRecorder)
    }
}

impl<P: ProbabilityPipeline, S: Sampler, R: HwRng, Rec: Recorder> GibbsEngine<P, S, R, Rec> {
    /// Assemble an engine that reports every sweep to `recorder`.
    pub fn with_recorder(pipeline: P, sampler: S, rng: R, recorder: Rec) -> Self {
        let lane = Lane::new(recorder.profiling());
        Self {
            scan: Scan {
                pipeline,
                sampler,
                rng,
                lane,
            },
            chain: Chain::new(recorder),
        }
    }

    /// The pipeline.
    pub fn pipeline(&self) -> &P {
        &self.scan.pipeline
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.chain.recorder
    }

    /// The 1-based iteration number journal records carry; monotone across
    /// repeated `run` calls on the same engine.
    pub fn journal_iteration(&self) -> u64 {
        self.chain.iteration()
    }

    /// One full sweep over every variable.
    pub fn sweep(&mut self, model: &mut dyn GibbsModel, stats: &mut RunStats) {
        let (chain, scan) = (&self.chain, &mut self.scan);
        let (tally, _) = chain.sweep(model, |m, t| scan.sweep(m, &chain.recorder, t), |_| None);
        stats.add_sweep(&tally);
    }

    /// Run `iterations` full sweeps.
    pub fn run(&mut self, model: &mut dyn GibbsModel, iterations: u64) -> RunStats {
        self.run_controlled(model, iterations, |_| None, &mut NoControl)
    }

    /// Run up to `max_sweeps` sweeps, consulting `controller` after each.
    ///
    /// After every sweep, `stat_fn` extracts the chain's scalar statistic
    /// from the model (return `None` to run the flip/fallback detectors
    /// without moment tracking); the statistic goes into the sweep's
    /// journal record (when journaling) and to the controller together
    /// with the sweep's update/flip/fallback counts. The run ends early
    /// when the controller returns [`Decision::Stop`].
    ///
    /// With [`NoControl`] and a `|_| None` statistic this is exactly
    /// [`run`](Self::run): the controller neither observes the chain's
    /// labels nor its RNG, so controlled and plain runs are bit-identical —
    /// pinned by the workspace `tests/health.rs`.
    pub fn run_controlled<M: GibbsModel + ?Sized>(
        &mut self,
        model: &mut M,
        max_sweeps: u64,
        stat_fn: impl FnMut(&M) -> Option<f64>,
        controller: &mut (impl ConvergenceController + ?Sized),
    ) -> RunStats {
        let rec = &self.chain.recorder;
        let scan = |m: &mut M, _, start| self.scan.sweep(m, rec, start);
        self.chain
            .drive(model, max_sweeps, scan, stat_fn, controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FloatPipeline, PipelineConfig};
    use coopmc_models::bn::asia;
    use coopmc_models::mrf::image_segmentation;
    use coopmc_models::GibbsModel;
    use coopmc_rng::SplitMix64;
    use coopmc_sampler::{SequentialSampler, TreeSampler};

    #[test]
    fn engine_runs_and_counts() {
        let mut app = image_segmentation(12, 12, 3);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(1));
        let stats = engine.run(&mut app.mrf, 3);
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.updates, 3 * 144);
        assert!(stats.sd_cycles > 0);
    }

    #[test]
    fn clamped_variables_are_skipped() {
        let mut net = asia();
        let d = net.node_index("dysp").unwrap();
        net.set_evidence(d, 0);
        let mut engine = GibbsEngine::new(
            FloatPipeline::new(),
            SequentialSampler::new(),
            SplitMix64::new(2),
        );
        let stats = engine.run(&mut net, 10);
        assert_eq!(stats.updates, 10 * 7, "evidence node must not be resampled");
        assert_eq!(net.label(d), 0);
    }

    /// A journaling recorder whose clock advances one tick per read, so a
    /// sweep's phase accounting is exact and deterministic.
    #[derive(Default)]
    struct TickClock {
        ticks: std::sync::atomic::AtomicU64,
        sweeps: std::sync::Mutex<Vec<SweepSample>>,
    }

    impl Recorder for TickClock {
        fn enabled(&self) -> bool {
            true
        }

        fn now_ns(&self) -> u64 {
            self.ticks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        }

        fn record(&self, event: Event<'_>) {
            if let Event::SweepEnd {
                sample: Some(s), ..
            } = event
            {
                self.sweeps.lock().unwrap().push(s.clone());
            }
        }
    }

    #[test]
    fn every_clock_read_goes_through_the_recorder() {
        let mut net = asia();
        net.set_evidence(net.node_index("dysp").unwrap(), 0);
        let clock = TickClock::default();
        let mut engine = GibbsEngine::with_recorder(
            FloatPipeline::new(),
            TreeSampler::new(),
            SplitMix64::new(3),
            &clock,
        );
        let stats = engine.run(&mut net, 2);
        let sweeps = clock.sweeps.lock().unwrap().clone();
        assert_eq!(sweeps.len(), 2);
        for s in &sweeps {
            // Seven free variables, one tick per phase boundary: gather and
            // the datapath make up PG, then SD and PU.
            assert_eq!(s.updates, 7);
            assert_eq!((s.pg_ns, s.sd_ns, s.pu_ns), (14, 7, 7));
            assert_eq!(s.wall_ns, 4 * 7 + 1, "one read opens the sweep");
        }
        // Start read, four boundaries per update, one read closing each sweep.
        assert_eq!(
            clock.ticks.load(std::sync::atomic::Ordering::Relaxed),
            2 * (1 + 4 * 7 + 1)
        );
        let journal_updates: u64 = sweeps.iter().map(|s| s.updates).sum();
        assert_eq!(journal_updates, stats.updates);
        let journal_cycles: u64 = sweeps
            .iter()
            .map(|s| s.pg_cycles + s.sd_cycles + s.pu_cycles)
            .sum();
        assert_eq!(journal_cycles, stats.simulated_hw_cycles());

        // A log-domain MRF row takes the same four boundaries through its
        // one-row batched call, which the journal does not count as a
        // stride.
        let mut app = image_segmentation(4, 4, 3);
        let clock = TickClock::default();
        let mut engine = GibbsEngine::with_recorder(
            FloatPipeline::new(),
            TreeSampler::new(),
            SplitMix64::new(3),
            &clock,
        );
        engine.run(&mut app.mrf, 1);
        let sweep = clock.sweeps.lock().unwrap()[0].clone();
        assert_eq!((sweep.pg_ns, sweep.sd_ns, sweep.pu_ns), (32, 16, 16));
        assert_eq!((sweep.pg_batches, sweep.pg_batch_rows), (0, 0));
    }

    #[test]
    fn gibbs_reduces_mrf_energy() {
        let mut app = image_segmentation(16, 16, 6);
        let before = app.mrf.energy();
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(5));
        engine.run(&mut app.mrf, 10);
        let after = app.mrf.energy();
        assert!(after < before, "energy must drop: {before} -> {after}");
    }

    #[test]
    fn hardware_cycle_accounting_accumulates() {
        let mut app = image_segmentation(10, 10, 8);
        let mut engine = GibbsEngine::new(
            PipelineConfig::coopmc(64, 8).build(),
            TreeSampler::new(),
            SplitMix64::new(6),
        );
        let stats = engine.run(&mut app.mrf, 2);
        assert!(stats.pg_cycles > 0, "LUT/add ops must be priced");
        // 2-label tree sampler: 5 cycles per draw.
        assert_eq!(stats.sd_cycles, stats.updates * 5);
        assert_eq!(
            stats.simulated_hw_cycles(),
            stats.pg_cycles + stats.sd_cycles + 4 * stats.updates
        );
    }

    #[test]
    fn controlled_run_with_no_control_matches_plain_run() {
        use coopmc_obs::health::NoControl;
        let plain = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run(&mut app.mrf, 5);
            app.mrf.labels()
        };
        let controlled = {
            let mut app = image_segmentation(12, 12, 44);
            let mut engine =
                GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(8));
            engine.run_controlled(&mut app.mrf, 5, |_| None, &mut NoControl);
            app.mrf.labels()
        };
        assert_eq!(plain, controlled);
    }

    #[test]
    fn controlled_run_stops_when_the_controller_says_so() {
        use coopmc_obs::health::{ConvergenceController, Decision};
        struct StopAfter(u64);
        impl ConvergenceController for StopAfter {
            fn observe_sweep(
                &mut self,
                it: u64,
                _: u64,
                _: u64,
                _: u64,
                _: Option<f64>,
            ) -> Decision {
                if it >= self.0 {
                    Decision::Stop
                } else {
                    Decision::Continue
                }
            }
        }
        let mut app = image_segmentation(10, 10, 45);
        let mut engine =
            GibbsEngine::new(FloatPipeline::new(), TreeSampler::new(), SplitMix64::new(9));
        let stats = engine.run_controlled(
            &mut app.mrf,
            100,
            |m| Some(-(m.num_variables() as f64)),
            &mut StopAfter(3),
        );
        assert_eq!(stats.iterations, 3, "must stop at the controller's word");
    }

    #[test]
    fn profiled_run_attributes_kernels_and_stays_bit_identical() {
        use coopmc_obs::SpanProfiler;
        let base = {
            let mut app = image_segmentation(10, 10, 31);
            let mut engine = GibbsEngine::new(
                PipelineConfig::coopmc(64, 8).build(),
                TreeSampler::new(),
                SplitMix64::new(7),
            );
            engine.run(&mut app.mrf, 2);
            app.mrf.labels()
        };
        let prof = SpanProfiler::new(1);
        let (labels, stats) = {
            let mut app = image_segmentation(10, 10, 31);
            let mut engine = GibbsEngine::with_recorder(
                PipelineConfig::coopmc(64, 8).build(),
                TreeSampler::new(),
                SplitMix64::new(7),
                &prof,
            );
            let stats = engine.run(&mut app.mrf, 2);
            (app.mrf.labels(), stats)
        };
        assert_eq!(base, labels, "profiling must be chain-invisible");

        let reports = prof.kernel_reports();
        let modeled: u64 = reports.iter().map(|r| r.modeled_cycles).sum();
        assert_eq!(
            modeled,
            stats.simulated_hw_cycles(),
            "kernel attribution must conserve the modeled cycle total"
        );
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("sweep span");
        assert_eq!(sweep.calls, 2);
        assert_eq!(sweep.unclosed, 0);
        for k in [
            Kernel::PgGather,
            Kernel::PgNormalize,
            Kernel::PgDynorm,
            Kernel::PgExpBatch,
            Kernel::SdSampleRows,
            Kernel::PuUpdate,
        ] {
            let row = reports
                .iter()
                .find(|r| r.kernel == k)
                .unwrap_or_else(|| panic!("missing {} row", k.name()));
            assert!(row.calls > 0 || row.modeled_cycles > 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut app = image_segmentation(10, 10, 7);
            let mut engine = GibbsEngine::new(
                FloatPipeline::new(),
                TreeSampler::new(),
                SplitMix64::new(seed),
            );
            engine.run(&mut app.mrf, 3);
            app.mrf.labels()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
