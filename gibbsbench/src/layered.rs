//! The traced run's layer breakdown, measured from the benchmark's own
//! copies of the engines' loops and from spans around the public calls
//! into each layer. Every series runs in lockstep, one sweep of each per
//! round, so a change in host speed hits all of them alike.

use std::time::Instant;

use coopmc_core::engine::{GibbsEngine, RunStats};
use coopmc_core::pipeline::{CoopMcPipeline, PgBatch, PgOutput, ProbabilityPipeline};
use coopmc_core::pool::WorkerPool;
use coopmc_models::mrf::GridMrf;
use coopmc_models::{GibbsModel, LabelScore};
use coopmc_obs::{SpanProfiler, TraceRecorder};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler, TreeSampler};

use crate::spans::{Layer, NoSpans, SpanCost, SpanSink, Spans};
use crate::stats::{median, self_ns_per};
use crate::workload::{
    chromatic_engine, cli_pipeline, lda_sampler, seq_engine, Instance, Workload, LUT_BITS,
    LUT_SIZE, THREADS,
};

/// Work tallied by a copy of the loop, priced as the engine prices it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Variables resampled.
    pub updates: u64,
    /// Uniform-fallback draws.
    pub fallbacks: u64,
    /// PG cycles (`OpCounts::sequential_cycles` per evaluation).
    pub pg_cycles: u64,
    /// SD cycles (`SampleResult::cycles`).
    pub sd_cycles: u64,
    /// Primitive PG operations (every `OpCounts` field summed).
    pub pg_ops: u64,
    /// `LabelScore` bytes written by the gather (traced copies only).
    pub score_bytes: u64,
}

impl Tally {
    fn pg(&mut self, ops: &coopmc_kernels::cost::OpCounts) {
        self.pg_cycles += ops.sequential_cycles();
        self.pg_ops += ops.add + ops.mul + ops.div + ops.lut + ops.approx + ops.cmp;
    }

    fn sd(&mut self, draw: &SampleResult) {
        self.sd_cycles += draw.cycles;
        self.fallbacks += u64::from(draw.fallback);
        self.updates += 1;
    }
}

/// Bytes of `LabelScore` data in one gathered row: the enum itself per
/// label plus every factor of a `Factors` label.
pub fn score_bytes(scores: &[LabelScore]) -> u64 {
    scores
        .iter()
        .map(|s| {
            let factors = match s {
                LabelScore::LogDomain(_) => 0,
                LabelScore::Factors {
                    numerators,
                    denominators,
                } => numerators.len() + denominators.len(),
            };
            (std::mem::size_of::<LabelScore>() + factors * std::mem::size_of::<f64>()) as u64
        })
        .sum()
}

/// The benchmark's copy of `GibbsEngine::step`'s loop: `begin_resample`,
/// `scores_into`, `generate_into`, `sample_into`, `update`, in the engine's
/// order and on the engine's `SplitMix64` stream, so it reproduces the
/// engine's chain label for label.
pub struct SeqCopy<S> {
    pipeline: Box<dyn ProbabilityPipeline>,
    sampler: S,
    rng: SplitMix64,
    scores: Vec<LabelScore>,
    pg: PgOutput,
    sd: SampleScratch,
    /// Work done so far.
    pub tally: Tally,
}

impl<S: Sampler> SeqCopy<S> {
    /// A copy seeded like the workload's engine.
    pub fn new(sampler: S, seed: u64) -> Self {
        Self {
            pipeline: cli_pipeline(),
            sampler,
            rng: SplitMix64::new(seed),
            scores: Vec::new(),
            pg: PgOutput::new(),
            sd: SampleScratch::new(),
            tally: Tally::default(),
        }
    }

    /// One sweep, with a span around each layer call under a sweep span.
    pub fn sweep<K: SpanSink>(&mut self, model: &mut dyn GibbsModel, spans: &mut K) {
        let sweep = spans.start();
        for var in 0..model.num_variables() {
            if model.is_clamped(var) {
                continue;
            }
            let s = spans.start();
            model.begin_resample(var);
            model.scores_into(var, &mut self.scores);
            spans.end(Layer::Gather, s);
            if K::ENABLED {
                self.tally.score_bytes += score_bytes(&self.scores);
            }
            let s = spans.start();
            self.pipeline.generate_into(&self.scores, &mut self.pg);
            spans.end(Layer::Pg, s);
            let s = spans.start();
            let draw = self
                .sampler
                .sample_into(&self.pg.probs, &mut self.rng, &mut self.sd);
            spans.end(Layer::Sd, s);
            let s = spans.start();
            model.update(var, draw.label);
            spans.end(Layer::Pu, s);
            self.tally.pg(&self.pg.ops);
            self.tally.sd(&draw);
        }
        spans.end(Layer::Sweep, sweep);
    }

    /// A ladder rung: the loop cut after the gather (`with_pg == false`)
    /// or after PG. The old label is committed back, so the chain stays
    /// where it is and a collapsed model's counts stay consistent (on LDA
    /// the rung therefore includes a PU).
    pub fn rung(&mut self, model: &mut dyn GibbsModel, with_pg: bool) {
        for var in 0..model.num_variables() {
            if model.is_clamped(var) {
                continue;
            }
            let old = model.label(var);
            model.begin_resample(var);
            model.scores_into(var, &mut self.scores);
            if with_pg {
                self.pipeline.generate_into(&self.scores, &mut self.pg);
            }
            model.update(var, old);
        }
    }
}

/// Time one call in nanoseconds.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Layer self times per update from a traced copy's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    /// `begin_resample` + `scores_into`.
    pub gather: f64,
    /// `generate_into`, or the per-row share of `generate_batch_into`.
    pub pg: f64,
    /// `sample_into`, or the per-row share of `sample_rows_into`.
    pub sd: f64,
    /// `update`.
    pub pu: f64,
}

impl LayerNs {
    fn of(spans: &Spans, cost: SpanCost, updates: u64) -> Self {
        let ns = |l| self_ns_per(spans.total_ns(l), spans.count(l), cost.self_ns, updates);
        Self {
            gather: ns(Layer::Gather),
            pg: ns(Layer::Pg),
            sd: ns(Layer::Sd),
            pu: ns(Layer::Pu),
        }
    }

    /// Sum of the four layers.
    pub fn sum(&self) -> f64 {
        self.gather + self.pg + self.sd + self.pu
    }
}

/// The layer breakdown of one workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Lockstep rounds run.
    pub sweeps: usize,
    /// Updates per sweep.
    pub variables: usize,
    /// Engine time per update (sequential engine, or the 2-thread
    /// chromatic engine), median over rounds.
    pub engine_ns: f64,
    /// Bare copy time per update.
    pub bare_ns: f64,
    /// Traced copy time per update.
    pub traced_ns: f64,
    /// Engine minus bare copy per update, median of per-round differences
    /// (sequential workloads).
    pub overhead_ns: Option<f64>,
    /// Layer self times from the traced copy.
    pub layers: LayerNs,
    /// Traced copy's work per update.
    pub tally: Tally,
    /// Untraced ladder rungs per update: gather only, then + PG
    /// (sequential workloads).
    pub rungs: Option<(f64, f64)>,
    /// Engine sweep with `&TraceRecorder` / `&SpanProfiler` over Noop,
    /// median of per-round ratios (sequential workloads).
    pub observer_ratios: Option<(f64, f64)>,
    /// 1-thread over 2-thread sweep time, pool utilization and the
    /// round trip of one empty job per worker in microseconds
    /// (chromatic workload).
    pub parallel: Option<(f64, f64, f64)>,
    /// Output checks, by name.
    pub checks: Vec<(&'static str, bool)>,
    /// The traced copy's spans.
    pub spans: Spans,
}

/// Run the sequential breakdown of `w` for `rounds` lockstep rounds.
pub fn sequential<S: Sampler>(
    w: Workload,
    seed: u64,
    rounds: usize,
    sampler: impl Fn() -> S,
    cost: SpanCost,
) -> Layers {
    let mut inst: Vec<Instance> = (0..7).map(|_| w.build(seed)).collect();
    let [a, b, c, j, p, r1, r2] = &mut inst[..] else {
        unreachable!()
    };
    let variables = a.model().num_variables();
    let journal = TraceRecorder::new();
    let profiler = SpanProfiler::new(1);
    let mut engine = seq_engine(sampler(), seed);
    let mut journaled =
        GibbsEngine::with_recorder(cli_pipeline(), sampler(), SplitMix64::new(seed), &journal);
    let mut profiled =
        GibbsEngine::with_recorder(cli_pipeline(), sampler(), SplitMix64::new(seed), &profiler);
    let mut bare = SeqCopy::new(sampler(), seed);
    let mut traced = SeqCopy::new(sampler(), seed);
    let mut ladder = SeqCopy::new(sampler(), seed);
    let (mut sa, mut sj, mut sp) = (
        RunStats::default(),
        RunStats::default(),
        RunStats::default(),
    );
    let mut spans = Spans::new();
    // Per-round sweep times of each series, indexed as below.
    const ENGINE: usize = 0;
    const BARE: usize = 1;
    const TRACED: usize = 2;
    const JOURNAL: usize = 3;
    const PROFILE: usize = 4;
    const GATHER: usize = 5;
    const PG: usize = 6;
    let mut t = [(); 7].map(|_| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        spans.next_sweep();
        t[ENGINE].push(timed(|| engine.sweep(a.model(), &mut sa)));
        t[BARE].push(timed(|| bare.sweep(b.model(), &mut NoSpans)));
        t[TRACED].push(timed(|| traced.sweep(c.model(), &mut spans)));
        t[JOURNAL].push(timed(|| journaled.sweep(j.model(), &mut sj)));
        t[PROFILE].push(timed(|| profiled.sweep(p.model(), &mut sp)));
        t[GATHER].push(timed(|| ladder.rung(r1.model(), false)));
        t[PG].push(timed(|| ladder.rung(r2.model(), true)));
    }
    let n = variables as f64;
    let per = |k: usize| median(&t[k]) / n;
    let diff = |x: usize, y: usize| {
        let d: Vec<f64> = t[x].iter().zip(&t[y]).map(|(a, b)| a - b).collect();
        median(&d) / n
    };
    let ratio = |x: usize| {
        let r: Vec<f64> = t[x].iter().zip(&t[ENGINE]).map(|(a, b)| a / b).collect();
        median(&r)
    };
    let labels = a.labels();
    let checks = vec![
        (
            "bare copy reproduces the engine's labels",
            b.labels() == labels,
        ),
        (
            "traced copy reproduces the engine's labels",
            c.labels() == labels,
        ),
        (
            "recorded engines reproduce the engine's labels",
            j.labels() == labels && p.labels() == labels,
        ),
        (
            "copy's modeled cycles match the engine's",
            (
                bare.tally.pg_cycles,
                bare.tally.sd_cycles,
                bare.tally.updates,
                bare.tally.fallbacks,
            ) == (sa.pg_cycles, sa.sd_cycles, sa.updates, sa.uniform_fallbacks),
        ),
    ];
    Layers {
        sweeps: rounds,
        variables,
        engine_ns: per(ENGINE),
        bare_ns: per(BARE),
        traced_ns: per(TRACED),
        overhead_ns: Some(diff(ENGINE, BARE)),
        layers: LayerNs::of(&spans, cost, traced.tally.updates),
        tally: traced.tally,
        rungs: Some((per(GATHER), diff(PG, GATHER))),
        observer_ratios: Some((ratio(JOURNAL), ratio(PROFILE))),
        parallel: None,
        checks,
        spans,
    }
}

/// The per-draw RNG of the chromatic copy. The engine's own derivation is
/// private, so the copy's chain differs from the engine's; its work does
/// not.
fn copy_rng(seed: u64, iteration: u64, var: usize) -> SplitMix64 {
    SplitMix64::new(
        seed ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (var as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Rows per `generate_batch_into` call, the engine's default stride.
pub const BATCH_ROWS: usize = coopmc_core::parallel::DEFAULT_BATCH_ROWS;

/// Single-thread copy of `ChromaticEngine`'s batched class loop:
/// `scores_into` → `generate_batch_into` → `sample_rows_into` per stride,
/// then `update` for the class after its draws.
pub struct ChromaticCopy {
    pipeline: CoopMcPipeline,
    seed: u64,
    scores: Vec<LabelScore>,
    rows: Vec<LabelScore>,
    vars: Vec<usize>,
    batch: PgBatch,
    draws: Vec<SampleResult>,
    sd: SampleScratch,
    out: Vec<(usize, usize)>,
    /// Work done so far.
    pub tally: Tally,
}

impl ChromaticCopy {
    /// A copy of the CLI-default datapath seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            pipeline: CoopMcPipeline::new(LUT_SIZE, LUT_BITS),
            seed,
            scores: Vec::new(),
            rows: Vec::new(),
            vars: Vec::new(),
            batch: PgBatch::new(),
            draws: Vec::new(),
            sd: SampleScratch::new(),
            out: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// One sweep over `classes` at `iteration`.
    pub fn sweep<K: SpanSink>(
        &mut self,
        mrf: &mut GridMrf,
        classes: &[Vec<usize>],
        iteration: u64,
        spans: &mut K,
    ) {
        let sweep = spans.start();
        for class in classes {
            self.out.clear();
            let mut width = 0;
            for &var in class {
                if mrf.is_clamped(var) {
                    continue;
                }
                let s = spans.start();
                mrf.scores_into(var, &mut self.scores);
                self.rows.extend(self.scores.iter().cloned());
                spans.end(Layer::Gather, s);
                if K::ENABLED {
                    self.tally.score_bytes += score_bytes(&self.scores);
                }
                width = self.scores.len();
                self.vars.push(var);
                if self.vars.len() == BATCH_ROWS {
                    self.flush(width, iteration, spans);
                }
            }
            self.flush(width, iteration, spans);
            let s = spans.start();
            for &(var, label) in &self.out {
                mrf.update(var, label);
            }
            spans.end(Layer::Pu, s);
        }
        spans.end(Layer::Sweep, sweep);
    }

    fn flush<K: SpanSink>(&mut self, width: usize, iteration: u64, spans: &mut K) {
        if self.vars.is_empty() {
            return;
        }
        let s = spans.start();
        self.pipeline
            .generate_batch_into(&self.rows, width, &mut self.batch);
        spans.end(Layer::Pg, s);
        let (seed, vars) = (self.seed, &self.vars);
        let s = spans.start();
        TreeSampler::new().sample_rows_into(
            &self.batch.probs,
            width,
            |row| copy_rng(seed, iteration, vars[row]),
            &mut self.draws,
            &mut self.sd,
        );
        spans.end(Layer::Sd, s);
        for ((ops, draw), &var) in self.batch.ops.iter().zip(&self.draws).zip(&self.vars) {
            self.tally.pg(ops);
            self.tally.sd(draw);
            self.out.push((var, draw.label));
        }
        self.rows.clear();
        self.vars.clear();
    }
}

/// Round trip of `WorkerPool::execute` with one empty job per thread, in
/// microseconds (median of `reps`).
pub fn dispatch_us(threads: usize, reps: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let round = || {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        timed(|| pool.execute(jobs)) / 1e3
    };
    for _ in 0..reps / 10 {
        round();
    }
    let times: Vec<f64> = (0..reps).map(|_| round()).collect();
    median(&times)
}

/// Run the chromatic breakdown of `w` for `rounds` lockstep rounds.
pub fn chromatic(w: Workload, seed: u64, rounds: usize, cost: SpanCost) -> Layers {
    let mut inst: Vec<Instance> = (0..4).map(|_| w.build(seed)).collect();
    let [one, two, b, c] = &mut inst[..] else {
        unreachable!()
    };
    let classes = {
        use coopmc_models::coloring::ChromaticModel;
        one.mrf().mrf.color_classes()
    };
    let variables = one.mrf().mrf.num_variables();
    let single = chromatic_engine(seed, 1);
    let pooled = chromatic_engine(seed, THREADS);
    let mut bare = ChromaticCopy::new(seed);
    let mut traced = ChromaticCopy::new(seed);
    let mut spans = Spans::new();
    let mut t = [(); 4].map(|_| Vec::with_capacity(rounds));
    let mut busy_ns = 0u64;
    for it in 0..rounds as u64 {
        spans.next_sweep();
        let start = Instant::now();
        single.sweep(&mut one.mrf().mrf, it);
        let dur = start.elapsed().as_nanos() as u64;
        spans.record(Layer::Sweep1Thread, start, dur);
        t[0].push(dur as f64);
        let busy0 = pooled.pool_busy_ns();
        let start = Instant::now();
        pooled.sweep(&mut two.mrf().mrf, it);
        let dur = start.elapsed().as_nanos() as u64;
        spans.record(Layer::Sweep2Threads, start, dur);
        t[1].push(dur as f64);
        busy_ns += pooled.pool_busy_ns() - busy0;
        t[2].push(timed(|| {
            bare.sweep(&mut b.mrf().mrf, &classes, it, &mut NoSpans)
        }));
        t[3].push(timed(|| {
            traced.sweep(&mut c.mrf().mrf, &classes, it, &mut spans)
        }));
    }
    let n = variables as f64;
    let per = |k: usize| median(&t[k]) / n;
    let wall2: f64 = t[1].iter().sum();
    let speedup: Vec<f64> = t[0].iter().zip(&t[1]).map(|(a, b)| a / b).collect();
    let checks = vec![
        (
            "labels identical at 1 and 2 threads",
            one.labels() == two.labels(),
        ),
        (
            "copy's updates == variables x sweeps",
            traced.tally.updates == (variables * rounds) as u64
                && bare.tally
                    == Tally {
                        score_bytes: 0,
                        ..traced.tally
                    },
        ),
    ];
    Layers {
        sweeps: rounds,
        variables,
        engine_ns: per(1),
        bare_ns: per(2),
        traced_ns: per(3),
        overhead_ns: None,
        layers: LayerNs::of(&spans, cost, traced.tally.updates),
        tally: traced.tally,
        rungs: None,
        observer_ratios: None,
        parallel: Some((
            median(&speedup),
            busy_ns as f64 / (THREADS as f64 * wall2),
            dispatch_us(THREADS, 2000),
        )),
        checks,
        spans,
    }
}

/// The breakdown of `w` from `seed` over `rounds` lockstep rounds, through
/// the path the workload's end-to-end phase runs.
pub fn run(w: Workload, seed: u64, rounds: usize, cost: SpanCost) -> Layers {
    match w {
        Workload::SegSeq => sequential(w, seed, rounds, TreeSampler::new, cost),
        Workload::LdaSeq => sequential(w, seed, rounds, lda_sampler, cost),
        Workload::RestoreChromatic => chromatic(w, seed, rounds, cost),
    }
}
