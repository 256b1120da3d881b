//! End-to-end observability checks: an enabled recorder yields a valid,
//! reconcilable run journal and a loadable Chrome trace, and recording is
//! invisible to the chain itself (thread-count independence holds with
//! tracing on). The recorder's pool gauges hold each slot's last sweep,
//! also when engines of different sizes share it.

use coopmc::core::engine::GibbsEngine;
use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::{FixedPipeline, PipelineConfig};
use coopmc::hw::area::SamplerKind;
use coopmc::hw::reconcile::reconcile;
use coopmc::models::mrf::{image_segmentation, GridMrf};
use coopmc::models::GibbsModel;
use coopmc::obs::health::{HealthConfig, NoControl};
use coopmc::obs::journal::validate_journal;
use coopmc::obs::{json, SweepSample, TraceRecorder};
use coopmc::rng::SplitMix64;
use coopmc::sampler::TreeSampler;

/// Drive a short traced single-thread MRF chain and return the recorder.
fn traced_mrf_chain(sweeps: u64) -> (TraceRecorder, u64, usize) {
    let mut app = image_segmentation(24, 24, 11);
    let n_labels = app.mrf.num_labels(0);
    let recorder = TraceRecorder::new();
    let mut engine = GibbsEngine::with_recorder(
        PipelineConfig::coopmc(1024, 16).build(),
        TreeSampler::new(),
        SplitMix64::new(3),
        &recorder,
    );
    let energy = |m: &GridMrf| Some(m.energy());
    let stats = engine.run_controlled(&mut app.mrf, sweeps, energy, &mut NoControl);
    (recorder, stats.updates, n_labels)
}

#[test]
fn traced_chain_journal_is_valid_monotone_and_time_consistent() {
    let (recorder, updates, _) = traced_mrf_chain(5);

    let journal = recorder.journal_jsonl(&HealthConfig::default());
    let lines = validate_journal(&journal).expect("journal must self-validate");
    assert_eq!(lines, 5);
    // The run's per-sweep statistic is on every journal line.
    for line in journal.lines() {
        let v = json::parse(line).expect("journal line must be JSON");
        assert!(
            v.get("stat").and_then(|s| s.as_num()).is_some(),
            "observer stat missing from journal line: {line}"
        );
    }

    let sweeps = recorder.sweeps();
    assert_eq!(sweeps.len(), 5);
    let mut total_updates = 0;
    for (i, s) in sweeps.iter().enumerate() {
        assert_eq!(s.iteration, i as u64 + 1, "1-based, strictly increasing");
        assert_eq!(s.chain, 0);
        // Phase wall times are consistent: each phase fits in the sweep.
        for phase_ns in [s.pg_ns, s.sd_ns, s.pu_ns] {
            assert!(
                phase_ns <= s.wall_ns,
                "phase time {phase_ns}ns exceeds sweep wall {}ns",
                s.wall_ns
            );
        }
        // The CoopMC pipeline runs DyNorm + TableExp, so NormTree and
        // exp-input telemetry must be populated with a sane range.
        let (lo, hi) = (s.exp_in_min.unwrap(), s.exp_in_max.unwrap());
        assert!(lo <= hi && hi <= 0.0, "post-DyNorm exp inputs must be <= 0");
        assert!(s.norm_max.is_some());
        assert!(s.flips <= s.updates);
        total_updates += s.updates;
    }
    assert_eq!(total_updates, updates);
}

#[test]
fn traced_chain_reconciles_with_the_hw_cycle_model() {
    let (recorder, updates, n_labels) = traced_mrf_chain(4);
    let r = reconcile(&recorder.sweeps(), SamplerKind::Tree, n_labels)
        .expect("journal totals must match the closed-form cycle model");
    assert_eq!(r.updates, updates);
    assert_eq!(r.sd_actual, r.sd_expected);
    assert_eq!(r.pu_actual, r.pu_expected);
    assert!(r.pg_actual > 0);
}

#[test]
fn chrome_trace_export_loads_as_json_with_events() {
    let (recorder, _, _) = traced_mrf_chain(3);
    let trace = recorder.chrome_trace_json(None);
    let doc = json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain span events");
    for e in events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("name").is_some() && e.get("ts").is_some());
    }
}

#[test]
fn recording_does_not_perturb_the_pooled_chain() {
    // PR 1's thread-count-independence guarantee, now with the recorder ON:
    // idle/busy accounting and journal capture must stay outside the chain.
    let run = |threads: usize| {
        let mut app = image_segmentation(24, 24, 31);
        let recorder = TraceRecorder::new();
        let engine = ChromaticEngine::with_recorder(
            FixedPipeline::new(8, true),
            TreeSampler::new(),
            threads,
            2024,
            &recorder,
        );
        let updated = engine.run(&mut app.mrf, 6);
        (updated, app.mrf.labels(), recorder)
    };
    let (updated_1, labels_1, recorder_1) = run(1);
    let (updated_8, labels_8, recorder_8) = run(8);
    let (sweeps_1, sweeps_8) = (recorder_1.sweeps(), recorder_8.sweeps());
    assert_eq!(updated_1, updated_8);
    assert_eq!(labels_1, labels_8, "recording leaked into the chain");
    assert_eq!(sweeps_1.len(), 6);
    assert_eq!(sweeps_8.len(), 6);
    for (a, b) in sweeps_1.iter().zip(&sweeps_8) {
        // Chain-visible quantities agree exactly; only wall times differ.
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.flips, b.flips);
        assert_eq!(a.uniform_fallbacks, b.uniform_fallbacks);
        assert_eq!(
            (a.pg_cycles, a.sd_cycles, a.pu_cycles),
            (b.pg_cycles, b.sd_cycles, b.pu_cycles)
        );
        for c in &b.colors {
            assert!((0.0..=1.0).contains(&c.utilization));
            assert!(c.busy_ns <= c.wall_ns.saturating_mul(8));
        }
    }
    // The pool's idle/busy accounting surfaces as each recorder's own
    // gauges, one per slot of its pool.
    for (recorder, sweeps, slots) in [(recorder_1, sweeps_1, 1), (recorder_8, sweeps_8, 8)] {
        let metrics = recorder.metrics().render();
        assert_pool_gauges_hold_the_last_sweep(&metrics, &sweeps);
        let busy = metrics.matches("coopmc_pool_worker_busy_ns{").count();
        assert_eq!(busy, slots, "{metrics}");
    }
}

/// The value of `series` (a name and its label set) in the Prometheus text
/// `metrics`.
fn series_value(metrics: &str, series: &str) -> Option<f64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// Assert that every pool gauge in `metrics` holds the value of the last of
/// `sweeps` that reported its slot or color class.
fn assert_pool_gauges_hold_the_last_sweep(metrics: &str, sweeps: &[SweepSample]) {
    let slots = sweeps.iter().map(|s| s.slots.len()).max().unwrap();
    for i in 0..slots {
        let last = sweeps.iter().rev().find_map(|s| s.slots.get(i)).unwrap();
        let gauge = |name: &str| series_value(metrics, &format!("{name}{{worker=\"{i}\"}}"));
        assert_eq!(gauge("coopmc_pool_worker_jobs"), Some(last.jobs as f64));
        assert_eq!(
            gauge("coopmc_pool_worker_busy_ns"),
            Some(last.busy_ns as f64)
        );
    }
    for class in 0..2 {
        let last = sweeps
            .iter()
            .rev()
            .find_map(|s| s.colors.iter().find(|c| c.class == class))
            .unwrap();
        let series = format!("coopmc_pool_color_utilization{{color=\"{class}\"}}");
        assert_eq!(series_value(metrics, &series), Some(last.utilization));
    }
}

#[test]
fn engines_sharing_a_recorder_leave_each_slot_its_last_sweep() {
    // An 8-thread engine for 3 sweeps, then a 2-thread one for 2, on one
    // recorder, as the parallel ablation shares one across its pool sizes:
    // slots 0 and 1 end on the 2-thread run's last sweep (2 sweeps x 2
    // color classes = 4 jobs), slots 2 to 7 on the 8-thread run's (6 jobs).
    let recorder = TraceRecorder::new();
    for (threads, sweeps) in [(8, 3), (2, 2)] {
        let mut app = image_segmentation(24, 24, 31);
        let pipeline = FixedPipeline::new(8, true);
        ChromaticEngine::with_recorder(pipeline, TreeSampler::new(), threads, 7, &recorder)
            .run(&mut app.mrf, sweeps);
    }
    let sweeps = recorder.sweeps();
    let slots: Vec<usize> = sweeps.iter().map(|s| s.slots.len()).collect();
    assert_eq!(slots, [8, 8, 8, 2, 2]);
    let metrics = recorder.metrics().render();
    assert_pool_gauges_hold_the_last_sweep(&metrics, &sweeps);
    for worker in 0..8 {
        let series = format!("coopmc_pool_worker_jobs{{worker=\"{worker}\"}}");
        let jobs = if worker < 2 { 4.0 } else { 6.0 };
        assert_eq!(series_value(&metrics, &series), Some(jobs), "{series}");
    }
    assert_eq!(metrics.matches("coopmc_pool_worker_jobs{").count(), 8);
    assert!(metrics.contains("coopmc_sweeps_total 5\n"));
}
