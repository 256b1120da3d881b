//! `coopmc` — command-line front end for the CoopMC reproduction.
//!
//! ```text
//! coopmc list
//! coopmc run <workload> [--pipeline SPEC] [--sampler KIND] [--sweeps N]
//!                       [--seed S] [--threads T]
//!                       [--health] [--early-stop-rhat R] [--early-stop-ess E]
//!                       [--journal-out F] [--trace-out F] [--metrics-out F]
//! coopmc hw [--labels N]
//! coopmc verify [--json] [--demo-broken] [--only SECTION]
//!               [--export-schematic DIR]
//! ```
//!
//! Every subcommand refuses an unknown flag, a flag missing its value and
//! an out-of-range value with a message and exit code 1; `run --threads`
//! takes 1..=256, and `hw --labels` takes 2..=65536 and sizes only the
//! sampler-area rows.
//!
//! Pipeline SPECs: `float32`, `fixed:<bits>`, `fixed+dn:<bits>`,
//! `coopmc:<size>x<bits>`. Sampler KINDs: `seq`, `tree`, `pipe`, `alias`.
//!
//! `--threads 1` runs the sequential engine; `--threads T > 1` runs the
//! chromatic engine on `T` threads (the caller and `T − 1` pool workers)
//! for MRF and BN workloads (LDA has no color classes). Any pipeline and
//! any sampler run on either engine.
//!
//! `--health` streams chain-health diagnostics (online ESS / rank-normalized
//! split R-hat / MCSE, anomaly detectors) while the chain runs; the
//! early-stop flags additionally end the run once rank-normalized R-hat ≤ R
//! **and** windowed ESS ≥ E (each implies `--health`; the other threshold
//! defaults to R = 1.01, E = 100). Neither journals anything by itself: the
//! engines record only for the output and profile flags. Every
//! `--journal-out` journal carries the chain's health lines, replayed from
//! its sweep records with the configuration `--health` runs, so a journal
//! holds the same health lines with or without `--health`, and a monitored
//! run's printed summary is its journal's last health line.
//!
//! Output goes to stdout through [`print_stdout`]: when stdout closes early
//! (`coopmc run … | head -1`) the printing stops and the command still
//! writes every file its flags name, exiting as it would have. Messages go
//! to stderr through [`print_stderr`] under the same rule.

use std::process::ExitCode;

use coopmc::analyze::VerifyArgs;
use coopmc::core::engine::GibbsEngine;
use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::{PipelineConfig, ProbabilityPipeline};
use coopmc::hw::accel::{case_study_table, CoreConfig};
use coopmc::hw::area::{sampler_area, SamplerKind};
use coopmc::hw::reconcile::divergence_ledger;
use coopmc::hw::roofline::roofline;
use coopmc::models::bn::{BayesNet, MarginalCounter};
use coopmc::models::coloring::ChromaticModel;
use coopmc::models::lda::Lda;
use coopmc::models::mrf::GridMrf;
use coopmc::models::workloads::{all_workloads, BuiltWorkload, ModelKind, WorkloadSpec};
use coopmc::models::GibbsModel;
use coopmc::obs::health::{ChainHealth, ConvergenceController, EarlyStop, HealthConfig, NoControl};
use coopmc::obs::{
    print_stderr, print_stdout, NoopRecorder, Recorder, SpanProfiler, TraceRecorder,
};
use coopmc::rng::SplitMix64;
use coopmc::sampler::{AliasSampler, PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};

/// Parsed `run` subcommand options.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    pipeline: PipelineConfig,
    sampler: String,
    sweeps: u64,
    seed: u64,
    threads: usize,
    health: bool,
    early_stop_rhat: Option<f64>,
    early_stop_ess: Option<f64>,
    journal_out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    flame_out: Option<String>,
    profile_out: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            workload: String::new(),
            pipeline: PipelineConfig::coopmc(64, 8),
            sampler: "tree".to_owned(),
            sweeps: 20,
            seed: 2022,
            threads: 1,
            health: false,
            early_stop_rhat: None,
            early_stop_ess: None,
            journal_out: None,
            trace_out: None,
            metrics_out: None,
            profile: false,
            flame_out: None,
            profile_out: None,
        }
    }
}

impl RunArgs {
    /// Whether chain-health monitoring runs (either requested directly or
    /// implied by an early-stop threshold).
    fn health_enabled(&self) -> bool {
        self.health || self.early_stop_rhat.is_some() || self.early_stop_ess.is_some()
    }

    /// Whether the kernel profiler runs (requested directly or implied by a
    /// profiler output file).
    fn profile_enabled(&self) -> bool {
        self.profile || self.flame_out.is_some() || self.profile_out.is_some()
    }

    /// Whether a journal, trace or metrics file is requested: the only
    /// reason to run a `TraceRecorder`.
    fn journal_enabled(&self) -> bool {
        self.journal_out.is_some() || self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Reject what the chromatic engine (`--threads > 1`) cannot run: LDA
    /// is not a chromatic model.
    fn check_threads(&self, kind: ModelKind) -> Result<(), String> {
        if self.threads > 1 && kind == ModelKind::Lda {
            Err(
                "--threads > 1 runs the chromatic engine, and LDA has no color classes; \
                 run LDA with --threads 1"
                    .to_owned(),
            )
        } else {
            Ok(())
        }
    }
}

/// Largest `coopmc:<size>` LUT. 2^20 is the last size whose TableExp step
/// (`16 / size`) lies on the Q15.16 bus grid. A larger size, often a typo,
/// would allocate ROMs of `size` `f64`s each, tens of GB for a few extra
/// digits.
const MAX_LUT_SIZE: usize = 1 << 20;

/// Parse a pipeline spec string, refusing datapath parameters the
/// pipelines cannot be built with.
fn parse_pipeline(spec: &str) -> Result<PipelineConfig, String> {
    let bits = |bits: &str, max: u32| {
        let b: u32 = bits.parse().map_err(|_| format!("bad bits in '{spec}'"))?;
        if (1..=max).contains(&b) {
            Ok(b)
        } else {
            Err(format!("bits in '{spec}' must be in 1..={max}"))
        }
    };
    if spec == "float32" {
        return Ok(PipelineConfig::float32());
    }
    if let Some(b) = spec.strip_prefix("fixed+dn:") {
        return Ok(PipelineConfig::fixed_dynorm(bits(b, 46)?));
    }
    if let Some(b) = spec.strip_prefix("fixed:") {
        return Ok(PipelineConfig::fixed(bits(b, 46)?));
    }
    if let Some(rest) = spec.strip_prefix("coopmc:") {
        let (size, b) = rest
            .split_once('x')
            .ok_or_else(|| format!("expected coopmc:<size>x<bits>, got '{spec}'"))?;
        let s: usize = size.parse().map_err(|_| format!("bad size in '{spec}'"))?;
        if !(1..=MAX_LUT_SIZE).contains(&s) {
            return Err(format!("size in '{spec}' must be in 1..={MAX_LUT_SIZE}"));
        }
        return Ok(PipelineConfig::coopmc(s, bits(b, 52)?));
    }
    Err(format!(
        "unknown pipeline '{spec}' (try float32, fixed:8, fixed+dn:8, coopmc:64x8)"
    ))
}

/// The value following `flag` in a subcommand's argument list.
fn flag_value(flag: &str, it: &mut std::slice::Iter<String>) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Largest `--threads`. The pool spawns `threads − 1` OS threads up front,
/// so a mistyped count must be refused before any of them starts.
const MAX_THREADS: usize = 256;

/// Parse the argument list of `run`.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    out.workload = it
        .next()
        .ok_or("missing workload name (see `coopmc list`)")?
        .clone();
    while let Some(flag) = it.next() {
        let mut value = || flag_value(flag, &mut it);
        match flag.as_str() {
            "--pipeline" => out.pipeline = parse_pipeline(&value()?)?,
            "--sampler" => {
                let v = value()?;
                if !["seq", "tree", "pipe", "alias"].contains(&v.as_str()) {
                    return Err(format!("unknown sampler '{v}'"));
                }
                out.sampler = v;
            }
            "--sweeps" => {
                out.sweeps = value()?
                    .parse()
                    .map_err(|_| "bad --sweeps value".to_owned())?;
                if out.sweeps == 0 {
                    return Err("--sweeps must be at least 1".to_owned());
                }
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "bad --seed value".to_owned())?
            }
            "--threads" => {
                out.threads = value()?
                    .parse()
                    .map_err(|_| "bad --threads value".to_owned())?;
                if !(1..=MAX_THREADS).contains(&out.threads) {
                    return Err(format!("--threads must be in 1..={MAX_THREADS}"));
                }
            }
            "--health" => out.health = true,
            "--early-stop-rhat" => {
                let r: f64 = value()?
                    .parse()
                    .map_err(|_| "bad --early-stop-rhat value".to_owned())?;
                if !(r.is_finite() && r >= 1.0) {
                    return Err("--early-stop-rhat must be a finite number >= 1.0".to_owned());
                }
                out.early_stop_rhat = Some(r);
            }
            "--early-stop-ess" => {
                let e: f64 = value()?
                    .parse()
                    .map_err(|_| "bad --early-stop-ess value".to_owned())?;
                if !(e.is_finite() && e > 0.0) {
                    return Err("--early-stop-ess must be a finite number > 0".to_owned());
                }
                out.early_stop_ess = Some(e);
            }
            "--journal-out" => out.journal_out = Some(value()?),
            "--trace-out" => out.trace_out = Some(value()?),
            "--metrics-out" => out.metrics_out = Some(value()?),
            "--profile" => out.profile = true,
            "--flame-out" => out.flame_out = Some(value()?),
            "--profile-out" => out.profile_out = Some(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

/// Largest `hw --labels`. The sampler-area model rounds the count up to a
/// power of two, which overflows for counts near `usize::MAX`.
const MAX_HW_LABELS: usize = 1 << 16;

/// Parse the argument list of `hw`: the label count of the sampler-area
/// rows, 64 unless `--labels` names one.
fn parse_hw_args(args: &[String]) -> Result<usize, String> {
    let mut labels = 64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--labels" => {
                labels = flag_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| "bad --labels value".to_owned())?;
                if !(2..=MAX_HW_LABELS).contains(&labels) {
                    return Err(format!("--labels must be in 2..={MAX_HW_LABELS}"));
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(labels)
}

/// The workload `name` selects: a case-insensitive exact name wins, then
/// the one name that contains `name`. No match, or several, is an error
/// naming every match.
fn find_workload(name: &str) -> Result<WorkloadSpec, String> {
    let all = all_workloads();
    if let Some(&w) = all.iter().find(|w| w.name.eq_ignore_ascii_case(name)) {
        return Ok(w);
    }
    let lower = name.to_lowercase();
    let matches: Vec<WorkloadSpec> = all
        .into_iter()
        .filter(|w| w.name.to_lowercase().contains(&lower))
        .collect();
    match matches[..] {
        [w] => Ok(w),
        [] => Err(format!("no workload matches '{name}'")),
        _ => {
            let names: Vec<&str> = matches.iter().map(|w| w.name).collect();
            Err(format!(
                "'{name}' matches several workloads: {}",
                names.join(", ")
            ))
        }
    }
}

/// A `--sampler` choice; `Sync` so the chromatic engine's pool can share it.
type BoxedSampler = Box<dyn Sampler + Sync>;

fn build_sampler(kind: &str) -> BoxedSampler {
    match kind {
        "seq" => Box::new(SequentialSampler::new()),
        "pipe" => Box::new(PipeTreeSampler::new()),
        "alias" => Box::new(AliasSampler::new()),
        _ => Box::new(TreeSampler::new()),
    }
}

fn cmd_list() -> Result<(), String> {
    let mut out = format!(
        "{:<30} {:>12} {:>8}  (paper scale)\n",
        "workload", "#variables", "#labels"
    );
    for w in all_workloads() {
        out += &format!(
            "{:<30} {:>12} {:>8}\n",
            w.name, w.paper_variables, w.paper_labels
        );
    }
    print_stdout(&out)
}

/// Write `contents` to `path`, mapping IO errors to a CLI-friendly string.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    print_stdout(&format!("wrote {path}\n"))
}

/// R-hat threshold used when only `--early-stop-ess` names a target.
const DEFAULT_STOP_RHAT: f64 = 1.01;
/// ESS budget used when only `--early-stop-rhat` names a target.
const DEFAULT_STOP_ESS: f64 = 100.0;

/// Build the convergence controller for a `--health` run on `cfg`. Without
/// an early-stop flag this is a pure monitor (never stops the chain); with
/// one, the other threshold falls back to its default.
fn build_controller(args: &RunArgs, cfg: &HealthConfig) -> EarlyStop<'static> {
    let health = ChainHealth::new(0, cfg.clone());
    let early = args.early_stop_rhat.is_some() || args.early_stop_ess.is_some();
    if early {
        EarlyStop::new(
            health,
            args.early_stop_rhat.unwrap_or(DEFAULT_STOP_RHAT),
            args.early_stop_ess.unwrap_or(DEFAULT_STOP_ESS),
        )
    } else {
        EarlyStop::monitor(health)
    }
}

/// The end-of-run health summary (the `early-stop:` line is what CI greps
/// to check the run ended inside its sweep budget).
fn report_health(ctl: &EarlyStop, budget: u64) -> String {
    let opt = |v: Option<f64>| v.map_or("n/a".to_owned(), |x| format!("{x:.4}"));
    let info = ctl.stop_info();
    let rec = ctl.health().record();
    let outcome = if info.stopped_early {
        format!(
            "early-stop: converged at sweep {} of {} (rhat {}, ess {})",
            info.iteration,
            budget,
            opt(info.rhat),
            opt(info.ess)
        )
    } else {
        format!(
            "health: ran all {budget} sweeps (rhat {}, ess {}, mcse {})",
            opt(rec.rhat),
            opt(rec.ess),
            opt(rec.mcse)
        )
    };
    format!(
        "{outcome}\nhealth: flip-rate {:.4}, events stuck/drift/fallback {}/{}/{}\n",
        rec.flip_rate, rec.events_stuck, rec.events_drift, rec.events_fallback
    )
}

/// Divergence-ledger gate for profiled CLI runs: a modeled kernel's share
/// of measured self time may differ from its share of modeled cycles by at
/// most this much. Host wall-clock shares are only loosely coupled to
/// modeled accelerator cycles, so the gate is deliberately wide — it
/// catches attribution bugs (a kernel losing its timing leaves or its cycle
/// feed), not model precision.
const PROFILE_DIVERGENCE_TOLERANCE: f64 = 0.5;

/// The engine `--threads` selects, built with the `--pipeline`,
/// `--sampler` and `--seed` of choice.
enum Engine<Rec> {
    Sequential(Box<GibbsEngine<Box<dyn ProbabilityPipeline>, BoxedSampler, SplitMix64, Rec>>),
    Chromatic(ChromaticEngine<Box<dyn ProbabilityPipeline>, BoxedSampler, Rec>),
}

impl<Rec: Recorder> Engine<Rec> {
    /// Sequential at one thread, chromatic over a `--threads` pool above.
    fn new(args: &RunArgs, rec: Rec) -> Self {
        let (pipeline, sampler) = (args.pipeline.build(), build_sampler(&args.sampler));
        let (threads, seed) = (args.threads, args.seed);
        if threads == 1 {
            let engine = GibbsEngine::with_recorder(pipeline, sampler, SplitMix64::new(seed), rec);
            Self::Sequential(Box::new(engine))
        } else {
            let engine = ChromaticEngine::with_recorder(pipeline, sampler, threads, seed, rec);
            Self::Chromatic(engine)
        }
    }

    /// Run a model with color classes; returns the variables updated.
    fn run<M: ChromaticModel + Sync>(
        self,
        model: &mut M,
        sweeps: u64,
        stat: impl FnMut(&M) -> Option<f64>,
        ctl: &mut dyn ConvergenceController,
    ) -> u64 {
        match self {
            Self::Sequential(mut e) => e.run_controlled(model, sweeps, stat, ctl).updates,
            Self::Chromatic(e) => e.run_controlled(model, sweeps, stat, ctl) as u64,
        }
    }
}

/// Run the built workload on the engine `args` selects, with `rec` as its
/// recorder, and return its result lines. Each model's closure runs after
/// every sweep; it computes the chain statistic only when the controller
/// or the journal consumes one.
fn run_workload(
    args: &RunArgs,
    built: BuiltWorkload,
    rec: impl Recorder,
    controller: Option<&mut EarlyStop<'_>>,
) -> String {
    let want_stat = controller.is_some() || rec.enabled();
    let engine = Engine::new(args, rec);
    let ctl: &mut dyn ConvergenceController = match controller {
        Some(c) => c,
        None => &mut NoControl,
    };
    match built {
        BuiltWorkload::Mrf(mut app) => {
            let e0 = app.mrf.energy();
            let stat = |m: &GridMrf| want_stat.then(|| m.energy());
            engine.run(&mut app.mrf, args.sweeps, stat, ctl);
            format!("energy: {e0:.1} -> {:.1}\n", app.mrf.energy())
        }
        BuiltWorkload::Bn(mut net) => {
            let mut counter = MarginalCounter::new(&net);
            let stat = |n: &BayesNet| {
                counter.record(n);
                want_stat.then(|| n.joint_prob().ln())
            };
            engine.run(&mut net, args.sweeps, stat, ctl);
            let mut out = format!("{:<14} {:>10}\n", "node", "P(label 0)");
            for v in 0..net.num_variables() {
                let p0 = counter.marginal(v)[0];
                out += &format!("{:<14} {p0:>10.4}\n", net.nodes()[v].name);
            }
            out
        }
        BuiltWorkload::Lda(mut lda) => {
            let ll0 = lda.log_likelihood();
            let stat = |l: &Lda| want_stat.then(|| l.log_likelihood());
            let Engine::Sequential(mut engine) = engine else {
                unreachable!("check_threads keeps LDA on one thread")
            };
            engine.run_controlled(&mut lda, args.sweeps, stat, ctl);
            format!("log-likelihood: {ll0:.0} -> {:.0}\n", lda.log_likelihood())
        }
    }
}

fn cmd_run(args: RunArgs) -> Result<(), String> {
    let spec = find_workload(&args.workload)?;
    args.check_threads(spec.kind)?;
    print_stdout(&format!(
        "running {} | pipeline {:?} | sampler {} | {} sweeps | seed {} | {} thread(s)\n",
        spec.name, args.pipeline, args.sampler, args.sweeps, args.seed, args.threads
    ))?;
    let journal = args.journal_enabled();
    let recorder = TraceRecorder::new();
    // Lane i is pool slot i; slot 0 is the coordinator's own.
    let profiler = args
        .profile_enabled()
        .then(|| SpanProfiler::new(args.threads));
    // One configuration for the controller and for the journal, which
    // replays the chain's health records from its own sweep records.
    let health = HealthConfig::default();
    let mut controller = args
        .health_enabled()
        .then(|| build_controller(&args, &health));
    let built = spec.build(args.seed);
    let ctl = controller.as_mut();
    // The recorder follows the output and profile flags alone: a health or
    // early-stop run reads the chain through its controller and keeps the
    // clockless NoopRecorder. A journaled profile runs on the journal's
    // clock, so the trace's kernel tracks line up with its sweeps.
    let report = match (&profiler, journal) {
        (Some(p), true) => run_workload(&args, built, (&recorder, p), ctl),
        (Some(p), false) => run_workload(&args, built, p, ctl),
        (None, true) => run_workload(&args, built, &recorder, ctl),
        (None, false) => run_workload(&args, built, NoopRecorder, ctl),
    };
    print_stdout(&report)?;
    if let Some(ctl) = &controller {
        print_stdout(&report_health(ctl, args.sweeps))?;
    }
    if let Some(p) = &profiler {
        if let Some(path) = &args.flame_out {
            write_output(path, &p.flamegraph())?;
        }
        if let Some(path) = &args.profile_out {
            write_output(path, &p.journal_jsonl(0))?;
        }
    }
    if let Some(path) = &args.journal_out {
        let mut journal = recorder.journal_jsonl(&health);
        if let Some(p) = &profiler {
            journal.push_str(&p.journal_jsonl(0));
        }
        write_output(path, &journal)?;
    }
    if let Some(path) = &args.trace_out {
        write_output(path, &recorder.chrome_trace_json(profiler.as_ref()))?;
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = recorder.metrics();
        if let Some(ctl) = &controller {
            metrics.extend(ctl.health().metrics());
        }
        write_output(path, &metrics.render())?;
    }
    if let Some(p) = &profiler {
        // The divergence ledger is the profiled run's exit gate: artifacts
        // above are written first so a failing run still leaves evidence.
        let ledger = divergence_ledger(&p.kernel_reports(), PROFILE_DIVERGENCE_TOLERANCE)?;
        print_stdout(&ledger.report())?;
        ledger.check()?;
    }
    Ok(())
}

/// Print the Table IV case study and the sampler areas at `labels` labels.
fn cmd_hw(labels: usize) -> Result<(), String> {
    let case_labels = CoreConfig::case_study()[0].n_labels;
    let mut out = format!(
        "end-to-end case study at {case_labels} labels (Table IV model):\n\
         {:<12} {:>12} {:>8} {:>8} {:>9}\n",
        "version", "area um2", "area%", "power%", "speedup"
    );
    for (report, area, power, speedup) in case_study_table() {
        out += &format!(
            "{:<12} {:>12.0} {:>7.0}% {:>7.0}% {:>8.2}x\n",
            report.config.name,
            report.area.total(),
            100.0 * area,
            100.0 * power,
            speedup
        );
        let r = roofline(report.cycles_per_variable);
        assert!(r.compute_bound);
    }
    out += &format!("\nsampler areas at {labels} labels:\n");
    for kind in [
        SamplerKind::Sequential,
        SamplerKind::Tree,
        SamplerKind::PipeTree,
    ] {
        out += &format!(
            "  {:<11} {:>10.0} um2\n",
            kind.name(),
            sampler_area(kind, labels, 32).total()
        );
    }
    print_stdout(&out)
}

fn usage() -> &'static str {
    "usage:\n  coopmc list\n  coopmc run <workload> [--pipeline SPEC] [--sampler seq|tree|pipe|alias] [--sweeps N] [--seed S] [--threads T] [--health] [--early-stop-rhat R] [--early-stop-ess E] [--journal-out F] [--trace-out F] [--metrics-out F] [--profile] [--flame-out F] [--profile-out F]\n  coopmc hw [--labels N]\n  coopmc verify [--json] [--demo-broken] [--only SECTION] [--export-schematic DIR]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => parse_run_args(&args[1..]).and_then(cmd_run),
        Some("hw") => parse_hw_args(&args[1..]).and_then(cmd_hw),
        Some("verify") => VerifyArgs::parse(&args[1..]).and_then(|args| args.run()),
        _ => Err(usage().to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            print_stderr(&format!("{msg}\n"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_specs_parse() {
        assert_eq!(
            parse_pipeline("float32").unwrap(),
            PipelineConfig::float32()
        );
        assert_eq!(parse_pipeline("fixed:8").unwrap(), PipelineConfig::fixed(8));
        assert_eq!(
            parse_pipeline("fixed+dn:4").unwrap(),
            PipelineConfig::fixed_dynorm(4)
        );
        assert_eq!(
            parse_pipeline("coopmc:64x8").unwrap(),
            PipelineConfig::coopmc(64, 8)
        );
        assert!(parse_pipeline("magic").is_err());
        assert!(parse_pipeline("coopmc:64").is_err());
        assert!(parse_pipeline("fixed:x").is_err());
        // The edges of every valid range parse; one step past them is
        // refused with the range named, not left to a constructor's panic.
        assert_eq!(
            parse_pipeline("fixed:46").unwrap(),
            PipelineConfig::fixed(46)
        );
        assert_eq!(
            parse_pipeline("fixed+dn:1").unwrap(),
            PipelineConfig::fixed_dynorm(1)
        );
        assert_eq!(
            parse_pipeline("coopmc:1x52").unwrap(),
            PipelineConfig::coopmc(1, 52)
        );
        assert_eq!(
            parse_pipeline("coopmc:1048576x8").unwrap(),
            PipelineConfig::coopmc(1 << 20, 8)
        );
        for (spec, range) in [
            ("fixed:0", "1..=46"),
            ("fixed:47", "1..=46"),
            ("fixed+dn:0", "1..=46"),
            ("coopmc:0x8", "1..=1048576"),
            ("coopmc:1048577x8", "1..=1048576"),
            ("coopmc:6400000000x8", "1..=1048576"),
            ("coopmc:64x0", "1..=52"),
            ("coopmc:64x53", "1..=52"),
        ] {
            let err = parse_pipeline(spec).unwrap_err();
            assert!(err.contains(spec) && err.contains(range), "{spec}: {err}");
        }
    }

    #[test]
    fn run_args_parse_with_defaults_and_flags() {
        let args: Vec<String> = [
            "BN-ASIA",
            "--sweeps",
            "100",
            "--seed",
            "7",
            "--sampler",
            "seq",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_run_args(&args).unwrap();
        assert_eq!(parsed.workload, "BN-ASIA");
        assert_eq!(parsed.sweeps, 100);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.sampler, "seq");
        assert_eq!(parsed.threads, 1);
    }

    #[test]
    fn health_flags_parse_and_imply_monitoring() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let plain = parse_run_args(&to_vec(&["w"])).unwrap();
        assert!(!plain.health_enabled());

        let health = parse_run_args(&to_vec(&["w", "--health"])).unwrap();
        assert!(health.health && health.health_enabled());
        assert_eq!(health.early_stop_rhat, None);

        let rhat = parse_run_args(&to_vec(&["w", "--early-stop-rhat", "1.05"])).unwrap();
        assert!(rhat.health_enabled(), "early-stop implies health");
        assert_eq!(rhat.early_stop_rhat, Some(1.05));

        let ess = parse_run_args(&to_vec(&["w", "--early-stop-ess", "250"])).unwrap();
        assert!(ess.health_enabled());
        assert_eq!(ess.early_stop_ess, Some(250.0));
    }

    #[test]
    fn health_flags_reject_bad_thresholds() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_run_args(&to_vec(&["w", "--early-stop-rhat", "0.9"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--early-stop-rhat", "nan"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--early-stop-ess", "0"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--early-stop-ess", "-5"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--early-stop-ess"])).is_err());
    }

    #[test]
    fn profile_flags_parse_and_imply_profiling() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let plain = parse_run_args(&to_vec(&["w"])).unwrap();
        assert!(!plain.profile_enabled());

        let prof = parse_run_args(&to_vec(&["w", "--profile"])).unwrap();
        assert!(prof.profile && prof.profile_enabled());
        assert_eq!(prof.flame_out, None);

        let flame = parse_run_args(&to_vec(&["w", "--flame-out", "f.txt"])).unwrap();
        assert!(flame.profile_enabled(), "--flame-out implies profiling");
        assert_eq!(flame.flame_out.as_deref(), Some("f.txt"));

        let out = parse_run_args(&to_vec(&["w", "--profile-out", "p.jsonl"])).unwrap();
        assert!(out.profile_enabled(), "--profile-out implies profiling");
        assert_eq!(out.profile_out.as_deref(), Some("p.jsonl"));

        assert!(parse_run_args(&to_vec(&["w", "--flame-out"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--profile-out"])).is_err());
    }

    #[test]
    fn run_args_reject_bad_input() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_run_args(&to_vec(&[])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--sampler", "magic"])).is_err());
        let err = parse_run_args(&to_vec(&["w", "--threads", "0"])).unwrap_err();
        assert!(err.contains("1..=256"), "{err}");
        // A mistyped pool size is refused before any worker is spawned.
        let err = parse_run_args(&to_vec(&["w", "--threads", "257"])).unwrap_err();
        assert!(err.contains("1..=256"), "{err}");
        assert_eq!(args(&["w", "--threads", "256"]).threads, 256);
        let err = parse_run_args(&to_vec(&["w", "--sweeps", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_run_args(&to_vec(&["w", "--pipeline", "fixed:0"])).unwrap_err();
        assert!(err.contains("1..=46"), "{err}");
        // A mistyped LUT size is refused before any table is built.
        let err = parse_run_args(&to_vec(&["w", "--pipeline", "coopmc:6400000000x8"])).unwrap_err();
        assert!(err.contains("1..=1048576"), "{err}");
        assert!(parse_run_args(&to_vec(&["w", "--sweeps"])).is_err());
        assert!(parse_run_args(&to_vec(&["w", "--whatever", "1"])).is_err());
    }

    #[test]
    fn hw_args_parse_and_refuse_bad_labels() {
        let to_vec = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_hw_args(&[]), Ok(64));
        assert_eq!(parse_hw_args(&to_vec(&["--labels", "2"])), Ok(2));
        assert_eq!(parse_hw_args(&to_vec(&["--labels", "65536"])), Ok(65536));
        for labels in ["0", "1", "65537"] {
            let err = parse_hw_args(&to_vec(&["--labels", labels])).unwrap_err();
            assert!(err.contains("2..=65536"), "{labels}: {err}");
        }
        for bad in [&["--labels", "x"][..], &["--labels"], &["--lables", "8"]] {
            assert!(parse_hw_args(&to_vec(bad)).is_err(), "{bad:?}");
        }
    }

    fn args(flags: &[&str]) -> RunArgs {
        let v: Vec<String> = flags.iter().map(|x| x.to_string()).collect();
        parse_run_args(&v).unwrap()
    }

    #[test]
    fn recorder_follows_output_and_profile_flags_only() {
        for flags in [
            &["w", "--health"][..],
            &["w", "--early-stop-rhat", "1.05"],
            &["w", "--early-stop-ess", "50", "--sweeps", "9"],
        ] {
            let a = args(flags);
            assert!(a.health_enabled());
            assert!(
                !a.journal_enabled() && !a.profile_enabled(),
                "{flags:?} must run the NoopRecorder"
            );
        }
        for out in ["--journal-out", "--trace-out", "--metrics-out"] {
            assert!(
                args(&["w", "--health", out, "f"]).journal_enabled(),
                "{out}"
            );
        }
        let profiled = args(&["w", "--health", "--profile"]);
        assert!(profiled.profile_enabled() && !profiled.journal_enabled());
    }

    /// A small many-label MRF for driver tests.
    fn small_mrf() -> coopmc::models::mrf::MrfApp {
        coopmc::models::mrf::stereo_matching(12, 8, 5)
    }

    #[test]
    fn mrf_runs_honour_the_sampler_flag() {
        let run = |sampler: &str| {
            let a = args(&["w", "--sampler", sampler, "--sweeps", "4", "--seed", "3"]);
            run_workload(&a, BuiltWorkload::Mrf(small_mrf()), NoopRecorder, None)
        };
        let mut app = small_mrf();
        let e0 = app.mrf.energy();
        GibbsEngine::new(
            PipelineConfig::coopmc(64, 8).build(),
            AliasSampler::new(),
            SplitMix64::new(3),
        )
        .run(&mut app.mrf, 4);
        let direct = format!("energy: {e0:.1} -> {:.1}\n", app.mrf.energy());
        assert_eq!(run("alias"), direct);
        assert_ne!(
            run("tree"),
            direct,
            "the sampler choice must reach the engine"
        );
    }

    #[test]
    fn bn_runs_chromatically_above_one_thread() {
        let run = |threads: &str| {
            let a = args(&["w", "--threads", threads, "--sweeps", "300"]);
            a.check_threads(ModelKind::Bn).unwrap();
            let net = coopmc::models::bn::asia();
            run_workload(&a, BuiltWorkload::Bn(net), NoopRecorder, None)
        };
        let (one, two) = (run("1"), run("2"));
        assert_eq!(two, run("3"), "chromatic chains ignore the pool size");
        assert_ne!(one, two, "two threads must leave the sequential engine");
    }

    #[test]
    fn any_pipeline_runs_chromatically() {
        let a = args(&[
            "w",
            "--pipeline",
            "float32",
            "--threads",
            "2",
            "--sweeps",
            "3",
        ]);
        a.check_threads(ModelKind::Mrf).unwrap();
        let got = run_workload(&a, BuiltWorkload::Mrf(small_mrf()), NoopRecorder, None);
        let mut app = small_mrf();
        let e0 = app.mrf.energy();
        ChromaticEngine::new(PipelineConfig::float32().build(), 2, a.seed).run(&mut app.mrf, 3);
        assert_eq!(got, format!("energy: {e0:.1} -> {:.1}\n", app.mrf.energy()));
    }

    #[test]
    fn lda_is_refused_above_one_thread() {
        assert!(args(&["w"]).check_threads(ModelKind::Lda).is_ok());
        let err = args(&["w", "--threads", "2"])
            .check_threads(ModelKind::Lda)
            .unwrap_err();
        assert!(err.contains("LDA"), "{err}");
    }

    #[test]
    fn workload_lookup_is_fuzzy() {
        assert_eq!(find_workload("bn-asia").unwrap().name, "BN-ASIA");
        assert_eq!(find_workload("stereo").unwrap().name, "MRF-Stereo Matching");
        assert!(find_workload("nonexistent-model").is_err());
        // Every name CI, the tests and the docs use resolves.
        for (arg, name) in [
            ("segmentation", "MRF-Image Segmentation"),
            ("restoration", "MRF-Image Restoration"),
            ("asia", "BN-ASIA"),
            ("bn-earthquake", "BN-EARTHQUAKE"),
            ("nips", "LDA-NIPS"),
            ("lda-nips", "LDA-NIPS"),
        ] {
            assert_eq!(find_workload(arg).unwrap().name, name, "{arg}");
        }
        // A family prefix matches several workloads: refused, each named.
        for (arg, count) in [("lda", 3), ("mrf", 4), ("bn", 3)] {
            let err = find_workload(arg).unwrap_err();
            let named = all_workloads()
                .iter()
                .filter(|w| err.contains(w.name))
                .count();
            assert_eq!(named, count, "{arg}: {err}");
        }
    }
}
