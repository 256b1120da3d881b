//! Metric assembly and the result line.

use coopmc_core::engine::PU_CYCLES;

use crate::e2e::E2e;
use crate::layered::Layers;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(e: &E2e) -> Vec<Metric> {
    vec![
        m("updates_per_s", e.updates_per_s, "1/s"),
        m("setup_s", e.setup_s, "s"),
        m("peak_rss_mb", e.peak_rss_mb.unwrap_or(0.0), "MB"),
        m("objective_ratio", e.objective_ratio(), "ratio"),
    ]
}

/// Chain diagnostics the end-to-end phase measures but no bound gates:
/// they vary from seed to seed by more than any bound the benchmark could
/// hold (see the README's noise section).
pub fn diagnostics(e: &E2e) -> Vec<Metric> {
    let opt = |v: Option<f64>| v.unwrap_or(0.0);
    vec![
        m("mean_updates_per_s", e.mean_updates_per_s, "1/s"),
        m("time_to_target_s", opt(e.time_to_target_s), "s"),
        m(
            "sweeps_to_target",
            opt(e.target_sweep.map(|s| s as f64)),
            "sweeps",
        ),
        m(
            "early_stop_sweep",
            opt(e.early_stop_sweep.map(|s| s as f64)),
            "sweeps",
        ),
        m("nmse", opt(e.nmse), "ratio"),
        m("perplexity", opt(e.perplexity), "ppl"),
        m("timed_s", e.timed_s, "s"),
        m("sweeps", e.sweeps as f64, "sweeps"),
        m("host_ref_ns", e.host_ref_ns, "ns"),
    ]
}

/// The per-layer metrics of a traced run. A layer a workload does not run
/// reads 0.
pub fn per_layer(e: &E2e, l: &Layers, span_ns: f64, cpus: usize) -> Vec<Metric> {
    let updates = l.tally.updates.max(1) as f64;
    let (pg_cyc, sd_cyc, pu_cyc) = match e.cycles {
        Some((c, _)) => (c.pg, c.sd, c.pu),
        None => (
            l.tally.pg_cycles,
            l.tally.sd_cycles,
            PU_CYCLES * l.tally.updates,
        ),
    };
    let cycle_updates = if e.cycles.is_some() {
        e.updates as f64
    } else {
        updates
    };
    let overhead = l.overhead_ns.unwrap_or(0.0);
    let (rung_gather, rung_pg) = l.rungs.unwrap_or((0.0, 0.0));
    let (journal, profile) = l.observer_ratios.unwrap_or((0.0, 0.0));
    let (speedup, utilization, dispatch) = l.parallel.unwrap_or((0.0, 0.0, 0.0));
    let opt = |v: Option<f64>| v.unwrap_or(0.0);
    vec![
        m("engine.overhead_ns", overhead, "ns"),
        m(
            "engine.overhead_share",
            if l.overhead_ns.is_some() {
                overhead / l.engine_ns
            } else {
                0.0
            },
            "ratio",
        ),
        m("models.gather_ns", l.layers.gather, "ns"),
        m(
            "models.score_bytes",
            l.tally.score_bytes as f64 / updates,
            "B",
        ),
        m("models.update_ns", l.layers.pu, "ns"),
        m("models.stat_us", e.stat_us, "us"),
        m("pipeline.pg_ns", l.layers.pg, "ns"),
        m("pipeline.pg_ops", l.tally.pg_ops as f64 / updates, "count"),
        m("sampler.sd_ns", l.layers.sd, "ns"),
        m(
            "sampler.fallback_ratio",
            e.fallbacks as f64 / e.updates.max(1) as f64,
            "ratio",
        ),
        m("parallel.speedup", speedup, "ratio"),
        m("parallel.pool_utilization", utilization, "ratio"),
        m("parallel.dispatch_us", dispatch, "us"),
        m("obs.health_us", e.health_us, "us"),
        m("obs.journal_ratio", journal, "ratio"),
        m("obs.profile_ratio", profile, "ratio"),
        m(
            "hw.cycles_per_update",
            (pg_cyc + sd_cyc + pu_cyc) as f64 / cycle_updates,
            "cycles",
        ),
        m(
            "hw.pg_cycles_per_update",
            pg_cyc as f64 / cycle_updates,
            "cycles",
        ),
        m(
            "hw.sd_cycles_per_update",
            sd_cyc as f64 / cycle_updates,
            "cycles",
        ),
        m(
            "hw.pu_cycles_per_update",
            pu_cyc as f64 / cycle_updates,
            "cycles",
        ),
        m(
            "chain.sweeps_to_target",
            opt(e.target_sweep.map(|s| s as f64)),
            "sweeps",
        ),
        m("chain.time_to_target_s", opt(e.time_to_target_s), "s"),
        m(
            "chain.early_stop_sweep",
            opt(e.early_stop_sweep.map(|s| s as f64)),
            "sweeps",
        ),
        m("quality.nmse", opt(e.nmse), "ratio"),
        m("quality.perplexity", opt(e.perplexity), "ppl"),
        m("trace.span_ns", span_ns, "ns"),
        m("trace.overhead_ratio", l.traced_ns / l.bare_ns, "ratio"),
        m("trace.residual_ns", l.bare_ns - l.layers.sum(), "ns"),
        m("ladder.gather_ns", rung_gather, "ns"),
        m("ladder.pg_ns", rung_pg, "ns"),
        m(
            "ladder.sd_pu_ns",
            if l.rungs.is_some() {
                l.bare_ns - rung_gather - rung_pg
            } else {
                0.0
            },
            "ns",
        ),
        m("host.ref_ns", e.host_ref_ns, "ns"),
        m("host.cpus", cpus as f64, "count"),
    ]
}

/// Render a number for JSON; non-finite values become `null`, which the
/// caller counts as a failed check before printing.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(checks: &[(&'static str, bool)], metrics: &[Metric]) -> String {
    let failed = checks.iter().filter(|(_, ok)| !ok).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        checks.len(),
        failed,
        body.join(",")
    )
}
