//! The generic Gibbs inference engine, and the per-lane tally both engines
//! account a sweep through.

use coopmc_kernels::cost::{
    OpCounts, ADD_CYCLES, DIV_CYCLES, EXP_APPROX_CYCLES, LUT_CYCLES, MUL_CYCLES, TREE_LAYER_CYCLES,
};
use coopmc_kernels::fusion::StagePhases;
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_obs::journal::{ColorSample, SweepSample};
use coopmc_obs::profile::Kernel;
use coopmc_obs::{NoopRecorder, Recorder};
use coopmc_rng::HwRng;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler};

use crate::pipeline::{PgOutput, ProbabilityPipeline};

/// Modeled Parameter Update cost per variable commit, in cycles.
///
/// Must stay equal to `coopmc_hw::cycles::PU_CYCLES` — the journal's
/// per-sweep `pu_cycles` and [`RunStats::simulated_hw_cycles`] both price
/// PU with this constant, and a cross-crate test pins the two together.
pub const PU_CYCLES: u64 = 4;

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
/// chromatic engine keeps one per worker slot plus one for the
/// coordinator's commits, and merges them after each class barrier.
///
/// Counts and modeled cycles are integer adds and always kept. The wall
/// times are differences of [`Recorder::now_ns`] readings, so under the
/// [`NoopRecorder`] they are constant zeros and no clock is read.
#[derive(Debug, Clone, Default)]
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

    /// Report the chunk to the kernel profiler as `lane`'s leaves and
    /// modeled cycles (nothing unless profiling). One leaf per kernel that
    /// took time keeps ring traffic proportional to chunks, not variables.
    ///
    /// The cycle split mirrors how the fused PG datapath spends its op
    /// tally: accumulator add/mul/div land in `pg.normalize`, NormTree
    /// comparators in `pg.dynorm`, TableExp/TableLog lookups and
    /// approximation-ALU calls in `pg.exp_batch` — together exactly
    /// [`OpCounts::sequential_cycles`], so the ledger's modeled total
    /// matches the journal's `pg_cycles`. SD is the sampler's own latency
    /// tally and PU is [`PU_CYCLES`] per committed update, matching
    /// [`RunStats::simulated_hw_cycles`].
    pub(crate) fn flush_profile<Rec: Recorder>(&self, rec: &Rec, lane: usize) {
        if !rec.prof_enabled() {
            return;
        }
        let (ops, phases) = (&self.ops, &self.phases);
        for (kernel, ns, cycles) in [
            (Kernel::PgGather, self.gather_ns, 0),
            (
                Kernel::PgNormalize,
                phases.normalize_ns,
                ops.add * ADD_CYCLES + ops.mul * MUL_CYCLES + ops.div * DIV_CYCLES,
            ),
            (
                Kernel::PgDynorm,
                phases.dynorm_ns,
                ops.cmp * TREE_LAYER_CYCLES,
            ),
            (
                Kernel::PgExpBatch,
                phases.exp_ns,
                ops.lut * LUT_CYCLES + ops.approx * EXP_APPROX_CYCLES,
            ),
            (Kernel::SdSampleRows, self.sd_ns, self.sd_cycles),
            (Kernel::PuUpdate, self.pu_ns, PU_CYCLES * self.updates),
        ] {
            if ns > 0 {
                rec.prof_leaf(lane, kernel, ns);
            }
            rec.prof_cycles(lane, kernel, cycles);
        }
    }

    /// Journal the sweep this tally covers, which started at `start_ns`.
    pub(crate) fn end_sweep<Rec: Recorder>(
        &self,
        rec: &Rec,
        chain: u64,
        iteration: u64,
        start_ns: u64,
        colors: Vec<ColorSample>,
    ) {
        rec.end_sweep(&SweepSample {
            chain,
            iteration,
            start_ns,
            wall_ns: rec.now_ns().saturating_sub(start_ns),
            updates: self.updates,
            flips: self.flips,
            uniform_fallbacks: self.uniform_fallbacks,
            // Table II's PG includes gathering the scores.
            pg_ns: self.gather_ns + self.pg_ns,
            sd_ns: self.sd_ns,
            pu_ns: self.pu_ns,
            pg_cycles: self.ops.sequential_cycles(),
            sd_cycles: self.sd_cycles,
            pu_cycles: PU_CYCLES * self.updates,
            pg_batches: self.pg_batches,
            pg_batch_rows: self.pg_batch_rows,
            norm_max: self.telemetry.norm_max,
            exp_in_min: self.telemetry.exp_in_min,
            exp_in_max: self.telemetry.exp_in_max,
            stat: None,
            colors,
        });
    }
}

/// Drives a [`GibbsModel`] through PG → SD → PU sweeps.
///
/// The engine owns every hot-path buffer (score vector, PG output, sampler
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
#[derive(Debug, Clone)]
pub struct GibbsEngine<P, S, R, Rec = NoopRecorder> {
    pipeline: P,
    sampler: S,
    rng: R,
    recorder: Rec,
    /// Chain identifier stamped into journal records.
    chain: u64,
    /// 1-based journal iteration, monotone for the engine's lifetime (so
    /// repeated `run` calls on one engine keep a valid journal).
    journal_iteration: u64,
    /// The current (or last completed) sweep's tally.
    tally: Tally,
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd_scratch: SampleScratch,
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
        let pg = PgOutput {
            phases: recorder.prof_enabled().then(StagePhases::default),
            ..PgOutput::new()
        };
        Self {
            pipeline,
            sampler,
            rng,
            recorder,
            chain: 0,
            journal_iteration: 0,
            tally: Tally::default(),
            scores: Vec::new(),
            pg,
            sd_scratch: SampleScratch::new(),
        }
    }

    /// Set the chain identifier stamped into journal records.
    pub fn with_chain(mut self, chain: u64) -> Self {
        self.chain = chain;
        self
    }

    /// The pipeline.
    pub fn pipeline(&self) -> &P {
        &self.pipeline
    }

    /// The recorder.
    pub fn recorder(&self) -> &Rec {
        &self.recorder
    }

    /// The 1-based iteration number journal records carry; monotone across
    /// repeated `run` calls on the same engine.
    pub fn journal_iteration(&self) -> u64 {
        self.journal_iteration
    }

    /// Resample `var`, whose work starts at clock reading `t`; returns the
    /// reading at the end of its update (`t` itself for a clamped
    /// variable). Each phase boundary is read once.
    fn step(&mut self, model: &mut dyn GibbsModel, var: usize, t: u64) -> u64 {
        if model.is_clamped(var) {
            return t;
        }
        let old_label = model.label(var);
        model.begin_resample(var);
        model.scores_into(var, &mut self.scores);
        let t_gather = self.recorder.now_ns();
        self.pipeline.generate_into(&self.scores, &mut self.pg);
        let t_pg = self.recorder.now_ns();
        let sample = self
            .sampler
            .sample_into(&self.pg.probs, &mut self.rng, &mut self.sd_scratch);
        let t_sd = self.recorder.now_ns();
        model.update(var, sample.label);
        let t_pu = self.recorder.now_ns();
        let tally = &mut self.tally;
        tally.gather_ns += t_gather - t;
        tally.pg_ns += t_pg - t_gather;
        tally.sd_ns += t_sd - t_pg;
        tally.pu_ns += t_pu - t_sd;
        tally.draw(&self.pg.ops, &sample);
        tally.updates += 1;
        tally.flips += u64::from(sample.label != old_label);
        if self.recorder.enabled() {
            tally.telemetry.merge(&self.pg.telemetry);
        }
        t_pu
    }

    /// One full sweep over every variable.
    pub fn sweep(&mut self, model: &mut dyn GibbsModel, stats: &mut RunStats) {
        self.recorder.prof_begin(0, Kernel::Sweep);
        let start_ns = self.recorder.now_ns();
        self.tally = Tally::default();
        let mut t = start_ns;
        for var in 0..model.num_variables() {
            t = self.step(model, var, t);
        }
        self.tally.take_phases(&mut self.pg.phases);
        // The sequential engine runs everything on lane 0, the coordinator.
        self.tally.flush_profile(&self.recorder, 0);
        self.recorder.prof_end(0, Kernel::Sweep);
        stats.add_sweep(&self.tally);
        self.journal_iteration += 1;
        if self.recorder.enabled() {
            self.tally.end_sweep(
                &self.recorder,
                self.chain,
                self.journal_iteration,
                start_ns,
                Vec::new(),
            );
        }
    }

    /// Run `iterations` full sweeps.
    pub fn run(&mut self, model: &mut dyn GibbsModel, iterations: u64) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..iterations {
            self.sweep(model, &mut stats);
        }
        stats
    }

    /// Run up to `max_sweeps` sweeps, consulting `controller` after each.
    ///
    /// After every sweep, `stat_fn` extracts the chain's scalar statistic
    /// from the model (return `None` to run the flip/fallback detectors
    /// without moment tracking); the statistic is forwarded to the recorder
    /// (when enabled) and handed to the controller together with the
    /// sweep's update/flip/fallback counts. The run ends early when the
    /// controller returns [`Decision::Stop`].
    ///
    /// With [`coopmc_obs::health::NoControl`] and a `|_| None` statistic
    /// this is exactly [`run`](Self::run): the controller neither observes
    /// the chain's labels nor its RNG, so controlled and plain runs are
    /// bit-identical — pinned by the workspace `tests/health.rs`.
    pub fn run_controlled<M: GibbsModel>(
        &mut self,
        model: &mut M,
        max_sweeps: u64,
        mut stat_fn: impl FnMut(&M) -> Option<f64>,
        controller: &mut (impl ConvergenceController + ?Sized),
    ) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..max_sweeps {
            self.sweep(model, &mut stats);
            let stat = stat_fn(model);
            if let (true, Some(v)) = (self.recorder.enabled(), stat) {
                self.recorder
                    .observe_stat(self.chain, self.journal_iteration, v);
            }
            let t = &self.tally;
            let decision = controller.observe_sweep(
                self.journal_iteration,
                t.updates,
                t.flips,
                t.uniform_fallbacks,
                stat,
            );
            if decision == Decision::Stop {
                break;
            }
        }
        stats
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

        fn end_sweep(&self, sample: &SweepSample) {
            self.sweeps.lock().unwrap().push(sample.clone());
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
