//! The end-to-end phase: set-up, then one chain of a fixed sweep budget
//! with observation off, fed sweep by sweep to the CLI's early stop exactly
//! as `coopmc run --early-stop-*` feeds it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coopmc_core::engine::{GibbsEngine, RunStats, PU_CYCLES};
use coopmc_core::pipeline::ProbabilityPipeline;
use coopmc_models::metrics::normalized_mse;
use coopmc_models::GibbsModel;
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{Sampler, TreeSampler};

use crate::rules::{Plateau, Target, TargetWatch, PLATEAU_TOL, PLATEAU_WINDOW};
use crate::stats::{block_rates, median};
use crate::workload::{chromatic_engine, lda_sampler, seq_engine, Instance, Workload, THREADS};

/// Blocks the timed phase is split into; `updates_per_s` is the median of
/// their rates. Between blocks, off the clock, the host reference loop runs
/// and one more set-up is timed, so `setup_s` — the median of these and the
/// first set-up — samples the host over the whole run, not one moment.
pub const BLOCKS: usize = 16;
/// Iterations of the host reference loop.
pub const REF_ITERS: u32 = 40_000;

/// Time a fixed floating-point loop the benchmark owns, in nanoseconds.
/// Its work never changes, so a slow reading marks a slow host, not a slow
/// program. It is `exp`/`ln` work because the shared host's slow spells
/// hit the floating-point units: an integer loop barely moves while the
/// workloads slow by a sixth.
pub fn host_ref_ns() -> f64 {
    let t = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..black_box(REF_ITERS) {
        let v = f64::from(i) * 1e-4;
        acc += (-v).exp() + v.ln_1p();
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), where the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Modeled hardware cycles of a run, split as Table II splits them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cycles {
    /// Probability Generation.
    pub pg: u64,
    /// Sampling from Distribution.
    pub sd: u64,
    /// Parameter Update.
    pub pu: u64,
}

impl Cycles {
    /// PG + SD + PU.
    pub fn total(&self) -> u64 {
        self.pg + self.sd + self.pu
    }

    /// The split of a sequential engine run: PG priced from the run's op
    /// tally, SD from the sampler, PU at [`PU_CYCLES`] per update.
    pub fn of_run(stats: &RunStats) -> Self {
        Self {
            pg: stats.ops.sequential_cycles(),
            sd: stats.sd_cycles,
            pu: PU_CYCLES * stats.updates,
        }
    }
}

/// The timed chain's clock, with the host reference loop and the repeated
/// set-ups run between blocks and kept off the clock.
struct Timeline<'a> {
    t0: Instant,
    paused: Duration,
    block: u64,
    /// Timed seconds at the end of each sweep.
    ends: Vec<f64>,
    ref_ns: Vec<f64>,
    setup_s: Vec<f64>,
    /// Build and construct once more, drop, and return the set-up time.
    set_up: Box<dyn FnMut() -> f64 + 'a>,
}

impl Timeline<'_> {
    fn sweep_done(&mut self, sweep: u64) {
        self.ends
            .push((self.t0.elapsed() - self.paused).as_secs_f64());
        if sweep.is_multiple_of(self.block) {
            let t = Instant::now();
            self.ref_ns.push(host_ref_ns());
            self.setup_s.push((self.set_up)());
            self.paused += t.elapsed();
        }
    }
}

/// What the timed chain's controller sees: the target watch plus the
/// sweep clock and the chain's counts.
struct Probe<'a> {
    watch: TargetWatch,
    timeline: Timeline<'a>,
    fallbacks: u64,
    health_ns: u64,
    stat_ns: u64,
}

impl ConvergenceController for Probe<'_> {
    fn observe_sweep(
        &mut self,
        iteration: u64,
        updates: u64,
        flips: u64,
        uniform_fallbacks: u64,
        stat: Option<f64>,
    ) -> Decision {
        self.fallbacks += uniform_fallbacks;
        let t = Instant::now();
        self.watch
            .observe_sweep(iteration, updates, flips, uniform_fallbacks, stat);
        self.health_ns += t.elapsed().as_nanos() as u64;
        self.timeline.sweep_done(iteration);
        Decision::Continue
    }
}

/// Result of the end-to-end phase.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Variables in the model.
    pub variables: usize,
    /// Timed sweeps (the fixed budget).
    pub sweeps: u64,
    /// Updates the chain made.
    pub updates: u64,
    /// Uniform-fallback draws.
    pub fallbacks: u64,
    /// Median set-up time over the run.
    pub setup_s: f64,
    /// Median of the block rates of the timed phase.
    pub updates_per_s: f64,
    /// Updates over the whole timed phase.
    pub mean_updates_per_s: f64,
    /// Timed seconds of the whole phase.
    pub timed_s: f64,
    /// Peak resident set after the timed phase.
    pub peak_rss_mb: Option<f64>,
    /// Objective (lower is better) before the first and after the last
    /// sweep.
    pub objective: (f64, f64),
    /// MRF: normalized MSE against the clean field, by the initial labels.
    pub nmse: Option<f64>,
    /// LDA: `exp(-log_likelihood / tokens)` at the end.
    pub perplexity: Option<f64>,
    /// First sweep at which the workload's target held.
    pub target_sweep: Option<u64>,
    /// Timed seconds to the end of that sweep.
    pub time_to_target_s: Option<f64>,
    /// First sweep at which the CLI's early stop fired.
    pub early_stop_sweep: Option<u64>,
    /// Mean per-sweep statistic time, in microseconds.
    pub stat_us: f64,
    /// Mean per-sweep `EarlyStop::observe_sweep` time, in microseconds.
    pub health_us: f64,
    /// Median host reference loop time.
    pub host_ref_ns: f64,
    /// Modeled cycles (sequential engines only) and the engine's own total.
    pub cycles: Option<(Cycles, u64)>,
}

impl E2e {
    /// Final objective as a share of the initial one.
    pub fn objective_ratio(&self) -> f64 {
        self.objective.1 / self.objective.0
    }

    /// The output checks of the end-to-end phase, by name.
    pub fn checks(&self) -> Vec<(&'static str, bool)> {
        let mut out = vec![
            (
                "updates == variables x sweeps",
                self.updates == self.variables as u64 * self.sweeps,
            ),
            ("objective improved", self.objective.1 < self.objective.0),
            ("peak rss readable", self.peak_rss_mb.is_some()),
        ];
        if let Some(nmse) = self.nmse {
            out.push(("nmse < 1", nmse < 1.0));
        }
        if let Some((parts, total)) = self.cycles {
            out.push((
                "pg + sd + pu cycles == simulated_hw_cycles",
                parts.total() == total,
            ));
        }
        out
    }
}

/// Build the workload from `seed` and construct its engine; returns both
/// and the seconds that took.
fn set_up<E>(w: Workload, seed: u64, make: impl Fn(u64) -> E) -> (Instance, E, f64) {
    let t = Instant::now();
    let (inst, engine) = (w.build(seed), make(seed));
    (inst, engine, t.elapsed().as_secs_f64())
}

/// A repeated set-up for the timeline: the pair is dropped (joining any
/// pool threads) after its time is taken.
fn set_up_again<'a, E>(
    w: Workload,
    seed: u64,
    make: impl Fn(u64) -> E + 'a,
) -> Box<dyn FnMut() -> f64 + 'a> {
    Box::new(move || set_up(w, seed, &make).2)
}

/// The per-sweep statistic the CLI feeds its controller: MRF energy or
/// LDA log-likelihood.
fn statistic(inst: &Instance) -> f64 {
    match inst {
        Instance::Mrf(app) => app.mrf.energy(),
        Instance::Lda(lda) => lda.log_likelihood(),
    }
}

/// The state a chain starts its timed phase from.
struct Start {
    labels: Vec<usize>,
    objective: f64,
    statistic: f64,
}

impl Start {
    fn of(inst: &Instance) -> Self {
        Self {
            labels: inst.labels(),
            objective: inst.objective(),
            statistic: statistic(inst),
        }
    }

    fn probe<'a>(
        &self,
        inst: &Instance,
        budget: u64,
        setup_s: f64,
        set_up: Box<dyn FnMut() -> f64 + 'a>,
    ) -> Probe<'a> {
        let target = match inst {
            Instance::Mrf(_) => Target::EarlyStop,
            Instance::Lda(_) => {
                Target::Plateau(Plateau::new(PLATEAU_WINDOW, PLATEAU_TOL, self.statistic))
            }
        };
        Probe {
            watch: TargetWatch::new(target),
            timeline: Timeline {
                t0: Instant::now(),
                paused: Duration::ZERO,
                block: (budget / BLOCKS as u64).max(1),
                ends: Vec::with_capacity(budget as usize),
                ref_ns: Vec::new(),
                setup_s: vec![setup_s],
                set_up,
            },
            fallbacks: 0,
            health_ns: 0,
            stat_ns: 0,
        }
    }
}

/// Run the end-to-end phase of `w` from `seed` with a budget of `budget`
/// sweeps.
pub fn run(w: Workload, seed: u64, budget: u64) -> E2e {
    match w {
        Workload::SegSeq => {
            let make = |s| seq_engine(TreeSampler::new(), s);
            let (inst, engine, setup_s) = set_up(w, seed, make);
            seq_phase(inst, engine, setup_s, set_up_again(w, seed, make), budget)
        }
        Workload::LdaSeq => {
            let make = |s| seq_engine(lda_sampler(), s);
            let (inst, engine, setup_s) = set_up(w, seed, make);
            seq_phase(inst, engine, setup_s, set_up_again(w, seed, make), budget)
        }
        Workload::RestoreChromatic => {
            let make = |s| chromatic_engine(s, THREADS);
            let (mut inst, engine, setup_s) = set_up(w, seed, make);
            let start = Start::of(&inst);
            let mut probe = start.probe(&inst, budget, setup_s, set_up_again(w, seed, make));
            let mut stat_ns = 0u64;
            probe.timeline.t0 = Instant::now();
            let updates = engine.run_controlled(
                &mut inst.mrf().mrf,
                budget,
                |m| {
                    let t = Instant::now();
                    let e = m.energy();
                    stat_ns += t.elapsed().as_nanos() as u64;
                    Some(e)
                },
                &mut probe,
            );
            probe.stat_ns = stat_ns;
            finish(inst, probe, &start, updates as u64, None)
        }
    }
}

/// The sequential timed chain: the CLI's `drive_gibbs` loop with the
/// sweep budget fixed.
fn seq_phase<S: Sampler>(
    mut inst: Instance,
    mut engine: GibbsEngine<Box<dyn ProbabilityPipeline>, S, SplitMix64>,
    setup_s: f64,
    set_up: Box<dyn FnMut() -> f64 + '_>,
    budget: u64,
) -> E2e {
    let start = Start::of(&inst);
    let mut probe = start.probe(&inst, budget, setup_s, set_up);
    let mut stats = RunStats::default();
    probe.timeline.t0 = Instant::now();
    for _ in 0..budget {
        let (u0, f0, fb0) = (stats.updates, stats.flips, stats.uniform_fallbacks);
        engine.sweep(inst.model(), &mut stats);
        let t = Instant::now();
        let stat = statistic(&inst);
        probe.stat_ns += t.elapsed().as_nanos() as u64;
        probe.observe_sweep(
            engine.journal_iteration(),
            stats.updates - u0,
            stats.flips - f0,
            stats.uniform_fallbacks - fb0,
            Some(stat),
        );
    }
    let cycles = Some((Cycles::of_run(&stats), stats.simulated_hw_cycles()));
    finish(inst, probe, &start, stats.updates, cycles)
}

fn finish(
    mut inst: Instance,
    probe: Probe,
    start: &Start,
    updates: u64,
    cycles: Option<(Cycles, u64)>,
) -> E2e {
    let peak_rss_mb = peak_rss_mb();
    let variables = inst.model().num_variables();
    let ends = &probe.timeline.ends;
    let sweeps = ends.len() as u64;
    let timed_s = *ends.last().expect("at least one timed sweep");
    let (nmse, perplexity) = match &inst {
        Instance::Mrf(app) => (
            Some(normalized_mse(&app.mrf.labels(), &app.clean, &start.labels)),
            None,
        ),
        Instance::Lda(lda) => (None, Some((-lda.log_likelihood() / variables as f64).exp())),
    };
    let target_sweep = probe.watch.target_sweep;
    E2e {
        variables,
        sweeps,
        updates,
        fallbacks: probe.fallbacks,
        setup_s: median(&probe.timeline.setup_s),
        updates_per_s: median(&block_rates(ends, variables as f64, BLOCKS.min(ends.len()))),
        mean_updates_per_s: updates as f64 / timed_s,
        timed_s,
        peak_rss_mb,
        objective: (start.objective, inst.objective()),
        nmse,
        perplexity,
        target_sweep,
        time_to_target_s: target_sweep.map(|s| ends[s as usize - 1]),
        early_stop_sweep: probe.watch.early_stop_sweep,
        stat_us: probe.stat_ns as f64 / 1e3 / sweeps as f64,
        health_us: probe.health_ns as f64 / 1e3 / sweeps as f64,
        host_ref_ns: median(&probe.timeline.ref_ns),
        cycles,
    }
}
