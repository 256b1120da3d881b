//! The observation seam: a statically dispatched [`Recorder`] that the
//! engines report one closed vocabulary of [`Event`]s to, and the
//! [`TraceRecorder`] that keeps them and reduces them, when exported, to
//! the run journal (chain-health lines included), a Chrome trace and the
//! run's Prometheus metrics.
//!
//! The Gibbs engines are generic over `Rec: Recorder` and read every clock
//! through [`Recorder::now_ns`], so a run has one clock and every event
//! timestamp comes from it; no reducer reads a clock of its own. With the
//! default [`NoopRecorder`] the clock is a constant 0, every
//! [`Recorder::record`] call is an inlined empty function, and every block
//! behind [`Recorder::enabled`] or [`Recorder::profiling`] is dead code the
//! optimizer removes — which is how instrumentation coexists with the
//! warm-sweep **zero-allocation guarantee** (proved by the
//! counting-allocator tests in `coopmc-core`).
//!
//! Recorders are shared by reference (`&TraceRecorder` implements
//! `Recorder`), so the caller keeps ownership and can export the journal /
//! trace / metrics after the run. A pair `(A, B)` of recorders passes every
//! event to both members and times the run with the first one's clock.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::health::{ChainHealth, HealthConfig};
use crate::journal::{render_health_line, render_line, SweepSample};
use crate::metrics::{log2_buckets, Exposition, Histogram};
use crate::profile::{Kernel, SpanProfiler};

/// A sink for the engines' [`Event`]s.
///
/// Every method has a default body that records nothing, so a no-op
/// implementor compiles to nothing under static dispatch. A recorder that
/// journals overrides [`Recorder::enabled`], one that profiles kernels
/// [`Recorder::profiling`]; either needs a real [`Recorder::now_ns`].
pub trait Recorder: Sync {
    /// Whether this recorder journals. Engines build an
    /// [`Event::SweepEnd`]'s [`SweepSample`] and merge kernel telemetry
    /// only when it does (the branch is resolved at compile time).
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Whether this recorder profiles kernels. Engines time the PG stages
    /// and emit [`Event::Kernel`] only when it does, independently of
    /// [`Recorder::enabled`] (a run can profile without journaling and
    /// vice versa).
    #[inline]
    fn profiling(&self) -> bool {
        false
    }

    /// Nanoseconds since this recorder's epoch: the engines' only clock.
    /// A recorder that neither journals nor profiles keeps the default 0,
    /// so its engines read no clock at all.
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }

    /// Observe one event.
    #[inline]
    fn record(&self, event: Event<'_>) {
        let _ = event;
    }
}

/// What the engines report: one closed vocabulary, every timestamp read
/// from the engine's recorder with [`Recorder::now_ns`].
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A sweep begins.
    SweepStart {
        /// Clock reading at the sweep's start.
        start_ns: u64,
    },
    /// A sweep ended.
    SweepEnd {
        /// Clock reading at the sweep's end, before its model statistic.
        end_ns: u64,
        /// The sweep's journal record, when the recorder journals.
        sample: Option<&'a SweepSample>,
    },
    /// Wall time and modeled cycles a lane spent in one kernel.
    Kernel {
        /// Lane (pool slot) the kernel ran on; 0 is the coordinator.
        lane: usize,
        /// Kernel the time and cycles belong to.
        kernel: Kernel,
        /// Clock reading at the span's end.
        end_ns: u64,
        /// Measured wall time, ns; 0 attributes cycles only.
        dur_ns: u64,
        /// Modeled hardware cycles.
        cycles: u64,
    },
}

/// The zero-cost disabled recorder: every method is an inlined no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl<T: Recorder + ?Sized> Recorder for &T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn profiling(&self) -> bool {
        (**self).profiling()
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }

    #[inline]
    fn record(&self, event: Event<'_>) {
        (**self).record(event)
    }
}

/// Both members observe every event; the first member's clock times the
/// run, so put the recorder whose epoch the exports should share first.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn profiling(&self) -> bool {
        self.0.profiling() || self.1.profiling()
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }

    #[inline]
    fn record(&self, event: Event<'_>) {
        self.0.record(event);
        self.1.record(event);
    }
}

/// A sweep sample's count or duration, ns.
type Field = fn(&SweepSample) -> u64;

/// The journaling recorder: keeps sweep samples in memory and exports them
/// as a JSONL journal, a Chrome trace and Prometheus metrics.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    sweeps: Mutex<Vec<SweepSample>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder whose epoch is *now*.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            sweeps: Mutex::new(Vec::new()),
        }
    }

    /// The recorded sweep samples, in arrival order.
    pub fn sweeps(&self) -> Vec<SweepSample> {
        self.sweeps.lock().unwrap().clone()
    }

    /// Render the run journal as JSONL: one line per sweep per chain, and
    /// the chain's health lines.
    ///
    /// One [`ChainHealth`] per chain, configured by `health`, replays the
    /// chain's recorded sweeps (iteration, counts and statistic, the inputs
    /// an [`EarlyStop`](crate::EarlyStop) with this configuration saw), and
    /// each refresh's `coopmc-health/1` line follows the line of the sweep
    /// it refreshed at. Each chain's replay covers its whole recording. A
    /// replay refreshes only on a statistic, so a chain whose sweeps carry
    /// none journals its sweep lines alone.
    pub fn journal_jsonl(&self, health: &HealthConfig) -> String {
        let sweeps = self.sweeps.lock().unwrap();
        let mut out = String::new();
        let mut chains: BTreeMap<u64, ChainHealth> = BTreeMap::new();
        for s in sweeps.iter() {
            out.push_str(&render_line(s));
            out.push('\n');
            let h = chains
                .entry(s.chain)
                .or_insert_with(|| ChainHealth::new(s.chain, health.clone()));
            if h.observe_sweep(s.iteration, s.updates, s.flips, s.uniform_fallbacks, s.stat) {
                out.push_str(&render_health_line(h.record()));
                out.push('\n');
            }
        }
        out
    }

    /// Render the recorded sweeps as a Chrome-trace (`chrome://tracing` /
    /// Perfetto) JSON document: one span per sweep, per color class, and
    /// per phase, plus every span `profiler` kept in its rings.
    ///
    /// Phase spans are per-sweep aggregates laid out back-to-back inside
    /// their sweep span — their widths are exact, their internal order
    /// within the sweep is schematic (PG/SD/PU interleave per variable).
    /// Kernel spans carry the timestamps of the events that made them, so
    /// they share the sweeps' clock when the profiler and this recorder
    /// observed one engine; their lanes become thread ids `1000 + lane`,
    /// sorting after the chain rows.
    pub fn chrome_trace_json(&self, profiler: Option<&SpanProfiler>) -> String {
        let sweeps = self.sweeps.lock().unwrap();
        let mut events = Vec::new();
        for s in sweeps.iter() {
            let sweep = format!("sweep {}", s.iteration);
            events.push(render_trace_event(
                &sweep, "sweep", s.start_ns, s.wall_ns, s.chain,
            ));
            let mut cursor = s.start_ns;
            for (name, dur) in [("PG", s.pg_ns), ("SD", s.sd_ns), ("PU", s.pu_ns)] {
                events.push(render_trace_event(name, "phase", cursor, dur, s.chain));
                cursor += dur;
            }
            for c in &s.colors {
                let color = format!("color {}", c.class);
                events.push(render_trace_event(
                    &color, "pool", c.start_ns, c.wall_ns, s.chain,
                ));
            }
        }
        for (lane, kernel, start_ns, dur_ns) in profiler.map_or_else(Vec::new, |p| p.ring_spans()) {
            let tid = 1000 + lane as u64;
            events.push(render_trace_event(
                kernel.name(),
                "kernel",
                start_ns,
                dur_ns,
                tid,
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",")
        )
    }

    /// The recorded sweeps as Prometheus series: `coopmc_sweeps_total`
    /// and nine more counters summed over every sweep; four duration
    /// histograms in µs (the whole sweep, and PG, SD and PU on log2 buckets
    /// from 1 µs to ~1 s, so the Table II split shows as a distribution)
    /// filled in sweep order, so `_sum` adds in that order; and the pool
    /// gauges per color class and per worker slot, each holding the last
    /// value a sweep reported for it. A recorder that saw no sweep exposes
    /// zero counters and empty histograms.
    pub fn metrics(&self) -> Exposition {
        let sweeps = self.sweeps.lock().unwrap();
        let mut out = Exposition::new();
        out.set_counter("coopmc_sweeps_total", &[], sweeps.len() as u64);
        let counters: [(&str, Field); 9] = [
            ("coopmc_updates_total", |s| s.updates),
            ("coopmc_label_flips_total", |s| s.flips),
            ("coopmc_uniform_fallbacks_total", |s| s.uniform_fallbacks),
            ("coopmc_phase_pg_ns_total", |s| s.pg_ns),
            ("coopmc_phase_sd_ns_total", |s| s.sd_ns),
            ("coopmc_phase_pu_ns_total", |s| s.pu_ns),
            ("coopmc_modeled_pg_cycles_total", |s| s.pg_cycles),
            ("coopmc_modeled_sd_cycles_total", |s| s.sd_cycles),
            ("coopmc_modeled_pu_cycles_total", |s| s.pu_cycles),
        ];
        for (name, field) in counters {
            out.set_counter(name, &[], sweeps.iter().map(field).sum());
        }
        let sweep = [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];
        let phase = log2_buckets(0, 20);
        let histograms: [(&str, &[f64], Field); 4] = [
            ("coopmc_sweep_duration_us", &sweep, |s| s.wall_ns),
            ("coopmc_phase_pg_duration_us", &phase, |s| s.pg_ns),
            ("coopmc_phase_sd_duration_us", &phase, |s| s.sd_ns),
            ("coopmc_phase_pu_duration_us", &phase, |s| s.pu_ns),
        ];
        for (name, bounds, field) in histograms {
            let mut h = Histogram::new(bounds);
            for s in sweeps.iter() {
                h.observe(field(s) as f64 / 1_000.0);
            }
            out.set_histogram(name, &[], h);
        }
        let (mut utilization, mut busy_ns, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
        for s in sweeps.iter() {
            for c in &s.colors {
                set_last(&mut utilization, c.class as usize, c.utilization);
            }
            for (i, slot) in s.slots.iter().enumerate() {
                set_last(&mut busy_ns, i, slot.busy_ns as f64);
                set_last(&mut jobs, i, slot.jobs as f64);
            }
        }
        for (name, label, values) in [
            ("coopmc_pool_color_utilization", "color", utilization),
            ("coopmc_pool_worker_busy_ns", "worker", busy_ns),
            ("coopmc_pool_worker_jobs", "worker", jobs),
        ] {
            for (i, v) in values.into_iter().enumerate() {
                out.set_gauge(name, &[(label, &i.to_string())], v);
            }
        }
        out
    }
}

/// Set gauge `i` of `values` to `v`; gauges below `i` that no sweep set
/// yet read 0.
fn set_last(values: &mut Vec<f64>, i: usize, v: f64) {
    if values.len() <= i {
        values.resize(i + 1, 0.0);
    }
    values[i] = v;
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    crate::json::write_str(&mut out, s);
    out
}

fn render_trace_event(name: &str, cat: &str, start_ns: u64, dur_ns: u64, tid: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
        quoted(name),
        quoted(cat),
        start_ns as f64 / 1_000.0,
        dur_ns as f64 / 1_000.0,
        tid
    )
}

impl Recorder for TraceRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, event: Event<'_>) {
        if let Event::SweepEnd {
            sample: Some(sample),
            ..
        } = event
        {
            self.sweeps.lock().unwrap().push(sample.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{validate_journal, ColorSample, HEALTH_SCHEMA};

    /// The journal record of sweep `iteration` with model statistic `stat`.
    fn sample(iteration: u64, stat: f64) -> SweepSample {
        SweepSample {
            chain: 0,
            iteration,
            start_ns: iteration * 1_000,
            wall_ns: 800,
            updates: 16,
            flips: 4,
            uniform_fallbacks: 0,
            pg_ns: 400,
            sd_ns: 300,
            pu_ns: 100,
            pg_cycles: 160,
            sd_cycles: 80,
            pu_cycles: 64,
            pg_batches: 2,
            pg_batch_rows: 16,
            norm_max: Some(-0.5),
            exp_in_min: Some(-4.0),
            exp_in_max: Some(0.0),
            stat: Some(stat),
            colors: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn record_sweep(rec: &impl Recorder, s: &SweepSample) {
        let end_ns = s.start_ns + s.wall_ns;
        rec.record(Event::SweepEnd {
            end_ns,
            sample: Some(s),
        });
    }

    fn push_sweep(rec: &TraceRecorder, iteration: u64, stat: f64) {
        record_sweep(rec, &sample(iteration, stat));
    }

    /// The chain's running diagnostics are on its health lines, and only
    /// there: a sweep line carries the statistic they are computed from.
    #[test]
    fn journal_has_running_diagnostics() {
        let rec = TraceRecorder::new();
        let mut x = 10.0;
        for it in 1..=12 {
            x = x * 0.9 + (it % 3) as f64;
            push_sweep(&rec, it, x);
        }
        let cfg = HealthConfig {
            refresh_stride: 2,
            ..HealthConfig::default()
        };
        let journal = rec.journal_jsonl(&cfg);
        // 12 sweep lines and a health line at every second sweep.
        assert_eq!(validate_journal(&journal).unwrap(), 18);
        let (health, sweeps): (Vec<_>, Vec<_>) = journal
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .partition(|v| v.get("schema").unwrap().as_str() == Some(HEALTH_SCHEMA));
        assert!(
            health[0].get("ess").unwrap().is_null(),
            "too few samples yet"
        );
        let last = &health[5];
        assert!(last.get("ess").unwrap().as_num().unwrap() > 0.0);
        assert!(last.get("rhat").unwrap().as_num().unwrap() >= 1.0);
        let sweep = &sweeps[11];
        assert_eq!(sweep.get("stat").unwrap().as_num(), Some(x));
        assert!(sweep.get("ess").is_none() && sweep.get("rhat").is_none());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_phase_spans() {
        let rec = TraceRecorder::new();
        let mut s = sample(1, 1.0);
        s.colors.push(ColorSample {
            class: 0,
            start_ns: 100,
            wall_ns: 50,
            ..ColorSample::default()
        });
        record_sweep(&rec, &s);
        let doc = rec.chrome_trace_json(None);
        let v = crate::json::parse(&doc).expect("trace must parse");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 sweep + 3 phases + 1 color span.
        assert_eq!(events.len(), 5);
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"PG") && names.contains(&"SD") && names.contains(&"PU"));
        assert!(names.contains(&"color 0"));
        for e in events {
            if let Some(ph) = e.get("ph").and_then(crate::json::Value::as_str) {
                if ph == "X" {
                    assert!(e.get("dur").unwrap().as_num().unwrap() >= 0.0);
                }
            }
        }
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert_eq!(rec.now_ns(), 0);
        // Reference forwarding preserves enabled().
        let r = &TraceRecorder::new();
        assert!(Recorder::enabled(&r));
    }

    /// The profiler's ring spans merge at the timestamps of the events
    /// that made them: a pair reads one clock, so nothing is shifted.
    #[test]
    fn profiler_spans_merge_at_their_event_timestamps() {
        let (rec, prof) = (TraceRecorder::new(), SpanProfiler::new(2));
        let pair = (&rec, &prof);
        assert!(pair.enabled() && pair.profiling());
        let s = sample(1, 0.0);
        pair.record(Event::SweepStart {
            start_ns: s.start_ns,
        });
        pair.record(Event::Kernel {
            lane: 1,
            kernel: Kernel::PgGather,
            end_ns: 1_500,
            dur_ns: 200,
            cycles: 0,
        });
        record_sweep(&pair, &s);
        let doc = crate::json::parse(&rec.chrome_trace_json(Some(&prof))).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span = |name: &str| {
            let e = events
                .iter()
                .find(|e| e.get("name").and_then(crate::json::Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {name} span"));
            let num = |k: &str| e.get(k).unwrap().as_num().unwrap();
            (num("ts"), num("dur"), num("tid"))
        };
        assert_eq!(span("pg.gather"), (1.3, 0.2, 1001.0));
        assert_eq!(span("sweep"), (1.0, 0.8, 1000.0));
        assert_eq!(span("sweep 1"), (1.0, 0.8, 0.0));
    }

    #[test]
    fn metrics_counters_accumulate() {
        let rec = TraceRecorder::new();
        push_sweep(&rec, 1, 0.0);
        push_sweep(&rec, 2, 0.0);
        let text = rec.metrics().render();
        assert!(text.contains("coopmc_sweeps_total 2\n"));
        assert!(text.contains("coopmc_updates_total 32\n"));
        assert!(text.contains("coopmc_modeled_pg_cycles_total 320\n"));
        assert!(text.contains("coopmc_phase_pg_duration_us_count 2\n"));
        assert!(text.contains("coopmc_sweep_duration_us_bucket{le=\"10\"} 2\n"));
    }

    /// A recorder that saw no sweep exposes every counter at 0 and every
    /// histogram empty, and no pool gauge.
    #[test]
    fn unused_recorder_exposes_zero_counters_and_empty_histograms() {
        let text = TraceRecorder::new().metrics().render();
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        // 10 counters, 8 sweep buckets and 3 × 22 phase buckets, plus a
        // `_sum` and a `_count` for each of the 4 histograms.
        assert_eq!(samples.len(), 10 + 8 + 3 * 22 + 4 * 2, "{text}");
        for line in samples {
            assert!(line.ends_with(" 0"), "{line}");
        }
        assert_eq!(text.matches("# TYPE").count(), 14);
        assert!(!text.contains("coopmc_pool_"));
    }

    /// `_sum` adds the sweeps' durations in the order they were recorded.
    #[test]
    fn histogram_sum_adds_in_sweep_order() {
        let rec = TraceRecorder::new();
        let walls = [100, 200, 300];
        for (i, wall_ns) in walls.into_iter().enumerate() {
            let s = SweepSample {
                wall_ns,
                ..sample(i as u64 + 1, 0.0)
            };
            record_sweep(&rec, &s);
        }
        let in_order = walls.iter().fold(0.0, |sum, &ns| sum + ns as f64 / 1_000.0);
        // (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit.
        assert_eq!(in_order, 0.6000000000000001);
        let text = rec.metrics().render();
        assert!(
            text.contains(&format!("coopmc_sweep_duration_us_sum {in_order}\n")),
            "{text}"
        );
    }

    /// One `ChainHealth` per chain replays that chain's sweeps, and each
    /// refresh's line follows the line of the sweep it refreshed at.
    #[test]
    fn health_records_interleave_after_their_sweep() {
        let rec = TraceRecorder::new();
        for it in 1..=4u64 {
            for chain in [0, 1] {
                let s = SweepSample {
                    chain,
                    ..sample(it, (it * (chain + 1)) as f64)
                };
                record_sweep(&rec, &s);
            }
        }
        let cfg = HealthConfig {
            window: 8,
            refresh_stride: 2,
            ..HealthConfig::default()
        };
        let journal = rec.journal_jsonl(&cfg);
        assert_eq!(validate_journal(&journal).unwrap(), 12);
        // `s` marks a sweep line and `h` a health line, each with its chain.
        let shape: Vec<String> = journal
            .lines()
            .map(|l| {
                let v = crate::json::parse(l).unwrap();
                let kind = match v.get("schema").unwrap().as_str().unwrap() {
                    HEALTH_SCHEMA => 'h',
                    _ => 's',
                };
                format!("{kind}{}", v.get("chain").unwrap().as_num().unwrap())
            })
            .collect();
        let want = [
            "s0", "s1", "s0", "h0", "s1", "h1", "s0", "s1", "s0", "h0", "s1", "h1",
        ];
        assert_eq!(shape, want);
        // Chain 1's lines are what a `ChainHealth` fed its sweeps reports.
        let mut h = ChainHealth::new(1, cfg.clone());
        let mut replayed = Vec::new();
        for it in 1..=4u64 {
            let s = sample(it, (it * 2) as f64);
            if h.observe_sweep(it, s.updates, s.flips, s.uniform_fallbacks, s.stat) {
                replayed.push(render_health_line(h.record()));
            }
        }
        let chain1: Vec<&str> = journal
            .lines()
            .filter(|l| l.starts_with("{\"schema\":\"coopmc-health/1\",\"chain\":1,"))
            .collect();
        assert_eq!(chain1, replayed);
        // Sweeps without a statistic refresh nothing: their journal is the
        // sweep lines alone.
        let plain = TraceRecorder::new();
        for it in 1..=16u64 {
            let s = SweepSample {
                stat: None,
                ..sample(it, 0.0)
            };
            record_sweep(&plain, &s);
        }
        let journal = plain.journal_jsonl(&cfg);
        assert_eq!(validate_journal(&journal), Ok(16));
        assert!(!journal.contains(HEALTH_SCHEMA));
    }
}
