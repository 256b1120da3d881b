//! End-to-end chain-health integration: monitoring is invisible to the
//! chain (bit-identical labels, chain-visible journal fields and replayed
//! health lines with health on vs off), the early-stop controller ends an
//! easy-converging chain well inside its sweep budget with the converged
//! R-hat on record in the journal's replayed health lines, and health
//! diagnostics are thread-count independent on the chromatic engine.

use coopmc::core::engine::GibbsEngine;
use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::{CoopMcPipeline, PipelineConfig};
use coopmc::models::bn::asia;
use coopmc::models::mrf::image_segmentation;
use coopmc::models::GibbsModel;
use coopmc::obs::health::{ChainHealth, ConvergenceController, EarlyStop, HealthConfig, NoControl};
use coopmc::obs::journal::{render_health_line, validate_journal, HEALTH_SCHEMA};
use coopmc::obs::{json, TraceRecorder};
use coopmc::rng::SplitMix64;
use coopmc::sampler::TreeSampler;

/// Run a traced single-thread MRF chain, optionally under a health monitor,
/// and return the final labels plus the journal, which replays the
/// monitor's configuration either way.
fn mrf_chain(sweeps: u64, health: bool) -> (Vec<usize>, String) {
    let mut app = image_segmentation(24, 24, 11);
    let recorder = TraceRecorder::new();
    let mut engine = GibbsEngine::with_recorder(
        PipelineConfig::coopmc(1024, 16).build(),
        TreeSampler::new(),
        SplitMix64::new(9),
        &recorder,
    );
    let cfg = HealthConfig {
        refresh_stride: 1,
        ..HealthConfig::default()
    };
    let mut monitor = EarlyStop::monitor(ChainHealth::new(0, cfg.clone()));
    let mut none = NoControl;
    let ctl: &mut dyn ConvergenceController = if health { &mut monitor } else { &mut none };
    engine.run_controlled(&mut app.mrf, sweeps, |m| Some(m.energy()), ctl);
    let journal = recorder.journal_jsonl(&cfg);
    (app.mrf.labels(), journal)
}

/// The chain-visible fields of one `coopmc-journal/2` sweep line (wall-clock
/// fields are nondeterministic and excluded).
fn chain_visible(line: &str) -> (u64, u64, u64, u64, Option<f64>) {
    let v = json::parse(line).expect("journal line must be JSON");
    let int = |k: &str| v.get(k).and_then(|x| x.as_num()).unwrap() as u64;
    (
        int("iteration"),
        int("updates"),
        int("flips"),
        int("uniform_fallbacks"),
        v.get("stat").and_then(|x| x.as_num()),
    )
}

#[test]
fn health_monitoring_is_chain_invisible() {
    let (labels_off, journal_off) = mrf_chain(12, false);
    let (labels_on, journal_on) = mrf_chain(12, true);
    assert_eq!(
        labels_off, labels_on,
        "health observation leaked into the chain"
    );

    // Both journals replay their health lines from their sweep lines, so
    // the monitor changes neither a chain-visible sweep field nor a health
    // line.
    let split = |journal: &str| {
        let (health, sweeps): (Vec<&str>, Vec<&str>) =
            journal.lines().partition(|l| l.contains(HEALTH_SCHEMA));
        let sweeps: Vec<_> = sweeps.into_iter().map(chain_visible).collect();
        (health.join("\n"), sweeps)
    };
    let (health_off, sweeps_off) = split(&journal_off);
    let (health_on, sweeps_on) = split(&journal_on);
    assert_eq!(sweeps_off, sweeps_on);
    assert_eq!(sweeps_off.len(), 12);
    assert_eq!(health_off, health_on);
    assert_eq!(health_on.lines().count(), 12, "one refresh a sweep");
    validate_journal(&journal_on).expect("monitored run's journal must validate");
    validate_journal(&journal_off).expect("unmonitored run's journal must validate");
}

#[test]
fn early_stop_ends_an_easy_chain_inside_half_the_budget() {
    const BUDGET: u64 = 2000;
    let mut net = asia();
    let recorder = TraceRecorder::new();
    let mut engine = GibbsEngine::with_recorder(
        PipelineConfig::float32().build(),
        TreeSampler::new(),
        SplitMix64::new(2022),
        &recorder,
    );
    let health = ChainHealth::new(0, HealthConfig::default());
    let mut ctl = EarlyStop::new(health, 1.01, 50.0);
    engine.run_controlled(&mut net, BUDGET, |n| Some(n.joint_prob().ln()), &mut ctl);

    let info = ctl.stop_info();
    assert!(
        info.stopped_early,
        "ASIA must converge under the controller"
    );
    assert!(
        info.iteration < BUDGET / 2,
        "stopped at sweep {} of {BUDGET}: not inside half the budget",
        info.iteration
    );
    let rhat = info.rhat.expect("a stop decision carries R-hat");
    assert!(rhat <= 1.01, "stopped with R-hat {rhat} > threshold");
    assert!(info.ess.expect("a stop decision carries ESS") >= 50.0);

    // The converged diagnostics are on record in the journal: its replay
    // ends on the controller's own last record, at the stop sweep.
    let journal = recorder.journal_jsonl(&HealthConfig::default());
    validate_journal(&journal).expect("early-stopped journal must validate");
    let last = journal.lines().rfind(|l| l.contains(HEALTH_SCHEMA));
    assert_eq!(
        last,
        Some(render_health_line(ctl.health().record()).as_str())
    );
    assert_eq!(ctl.health().record().iteration, info.iteration);
    let journaled_rhat = journal
        .lines()
        .filter(|l| l.contains(HEALTH_SCHEMA))
        .filter_map(|l| json::parse(l).ok())
        .filter_map(|v| v.get("rhat").and_then(|r| r.as_num()))
        .fold(f64::INFINITY, f64::min);
    assert!(
        journaled_rhat <= 1.01,
        "journal's best R-hat {journaled_rhat} never reached the threshold"
    );
}

#[test]
fn chromatic_health_diagnostics_are_thread_count_independent() {
    let run = |threads: usize| {
        let mut app = image_segmentation(16, 16, 8);
        let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), threads, 77);
        let mut ctl = EarlyStop::monitor(ChainHealth::new(
            0,
            HealthConfig {
                refresh_stride: 1,
                ..HealthConfig::default()
            },
        ));
        engine.run_controlled(&mut app.mrf, 16, |m| Some(m.energy()), &mut ctl);
        (app.mrf.labels(), *ctl.health().record())
    };
    let (labels_1, rec_1) = run(1);
    let (labels_4, rec_4) = run(4);
    assert_eq!(labels_1, labels_4);
    assert_eq!(
        rec_1, rec_4,
        "health diagnostics must not depend on the worker-pool shape"
    );
    assert_eq!(rec_1.iteration, 16);
    assert!(rec_1.ess.is_some() && rec_1.rhat.is_some());
}
