//! The span/event tracing layer: a statically dispatched [`Recorder`]
//! abstraction whose disabled form compiles to nothing.
//!
//! The Gibbs engines are generic over `Rec: Recorder`. With the default
//! [`NoopRecorder`] every recorder call is an inlined empty function and
//! every `if recorder.enabled()` block is dead code the optimizer removes —
//! which is how instrumentation coexists with the warm-sweep
//! **zero-allocation guarantee** (proved by the counting-allocator test in
//! `coopmc-core`). With a [`TraceRecorder`] the same call sites feed the
//! run journal, the global metrics registry and a Chrome-trace span log.
//!
//! Recorders are shared by reference (`&TraceRecorder` implements
//! `Recorder`), so the caller keeps ownership and can export the journal /
//! trace / metrics after the run.

use std::sync::Mutex;
use std::time::Instant;

use crate::health::{ChainHealth, HealthConfig, HealthRecord};
use crate::journal::{render_health_line, render_line, SweepSample};
use crate::metrics;
use crate::profile::Kernel;

/// A sink for sweep samples, spans and chain statistics.
///
/// All methods have empty default bodies; a no-op implementor compiles to
/// nothing under static dispatch. Implementors that actually record must
/// override [`Recorder::enabled`] to return `true` — instrumented code uses
/// it to skip aggregation work entirely when recording is off.
pub trait Recorder: Sync {
    /// Whether this recorder captures anything. Instrumented hot paths
    /// guard their aggregation behind this so a disabled recorder costs
    /// zero work (the branch is resolved at compile time).
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Nanoseconds since this recorder's epoch: the engines' only clock.
    /// A recorder that neither journals nor profiles keeps the default 0,
    /// so its engines read no clock at all.
    #[inline]
    fn now_ns(&self) -> u64 {
        0
    }

    /// Record one completed sweep.
    #[inline]
    fn end_sweep(&self, sample: &SweepSample) {
        let _ = sample;
    }

    /// Attach a model statistic (energy, log-likelihood, …) to a sweep.
    #[inline]
    fn observe_stat(&self, chain: u64, iteration: u64, stat: f64) {
        let _ = (chain, iteration, stat);
    }

    /// Record a completed span (Chrome-trace "X" event).
    #[inline]
    fn span(&self, name: &str, category: &str, start_ns: u64, dur_ns: u64, tid: u64) {
        let _ = (name, category, start_ns, dur_ns, tid);
    }

    /// Record an instantaneous event.
    #[inline]
    fn event(&self, name: &str) {
        let _ = name;
    }

    /// Record a refreshed chain-health snapshot (a `coopmc-health/1`
    /// journal line). Forwarded by the early-stop convergence controller
    /// whenever its diagnostics refresh.
    #[inline]
    fn health(&self, record: &HealthRecord) {
        let _ = record;
    }

    /// Whether kernel-level span profiling is on. Engines guard the extra
    /// per-kernel timing behind this, independently of [`Recorder::enabled`]
    /// (a run can profile without journaling and vice versa).
    #[inline]
    fn prof_enabled(&self) -> bool {
        false
    }

    /// Open a hierarchical kernel span on a worker lane.
    #[inline]
    fn prof_begin(&self, lane: usize, kernel: Kernel) {
        let _ = (lane, kernel);
    }

    /// Close the innermost kernel span on a worker lane.
    #[inline]
    fn prof_end(&self, lane: usize, kernel: Kernel) {
        let _ = (lane, kernel);
    }

    /// Record an already-timed leaf kernel span ending now.
    #[inline]
    fn prof_leaf(&self, lane: usize, kernel: Kernel, dur_ns: u64) {
        let _ = (lane, kernel, dur_ns);
    }

    /// Attribute modeled hardware cycles to `(lane, kernel)`.
    #[inline]
    fn prof_cycles(&self, lane: usize, kernel: Kernel, cycles: u64) {
        let _ = (lane, kernel, cycles);
    }
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
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }

    #[inline]
    fn end_sweep(&self, sample: &SweepSample) {
        (**self).end_sweep(sample)
    }

    #[inline]
    fn observe_stat(&self, chain: u64, iteration: u64, stat: f64) {
        (**self).observe_stat(chain, iteration, stat)
    }

    #[inline]
    fn span(&self, name: &str, category: &str, start_ns: u64, dur_ns: u64, tid: u64) {
        (**self).span(name, category, start_ns, dur_ns, tid)
    }

    #[inline]
    fn event(&self, name: &str) {
        (**self).event(name)
    }

    #[inline]
    fn health(&self, record: &HealthRecord) {
        (**self).health(record)
    }

    #[inline]
    fn prof_enabled(&self) -> bool {
        (**self).prof_enabled()
    }

    #[inline]
    fn prof_begin(&self, lane: usize, kernel: Kernel) {
        (**self).prof_begin(lane, kernel)
    }

    #[inline]
    fn prof_end(&self, lane: usize, kernel: Kernel) {
        (**self).prof_end(lane, kernel)
    }

    #[inline]
    fn prof_leaf(&self, lane: usize, kernel: Kernel, dur_ns: u64) {
        (**self).prof_leaf(lane, kernel, dur_ns)
    }

    #[inline]
    fn prof_cycles(&self, lane: usize, kernel: Kernel, cycles: u64) {
        (**self).prof_cycles(lane, kernel, cycles)
    }
}

/// One completed span for the Chrome-trace export.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: String,
    category: String,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
}

#[derive(Debug, Default)]
struct TraceInner {
    sweeps: Vec<SweepSample>,
    spans: Vec<Span>,
    /// `(chain, iteration, stat)` observations, joined to sweeps on export.
    stats: Vec<(u64, u64, f64)>,
    events: Vec<(u64, String)>,
    /// Chain-health snapshots, interleaved into the journal on export.
    health: Vec<HealthRecord>,
}

/// The enabled recorder: captures sweep samples, spans and statistics in
/// memory and exports them as a JSONL journal, a Chrome-trace file and
/// global registry metrics.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    inner: Mutex<TraceInner>,
    m_sweeps: &'static metrics::Counter,
    m_updates: &'static metrics::Counter,
    m_flips: &'static metrics::Counter,
    m_fallbacks: &'static metrics::Counter,
    m_pg_ns: &'static metrics::Counter,
    m_sd_ns: &'static metrics::Counter,
    m_pu_ns: &'static metrics::Counter,
    m_pg_cycles: &'static metrics::Counter,
    m_sd_cycles: &'static metrics::Counter,
    m_pu_cycles: &'static metrics::Counter,
    h_sweep_us: &'static metrics::Histogram,
    h_pg_us: &'static metrics::Histogram,
    h_sd_us: &'static metrics::Histogram,
    h_pu_us: &'static metrics::Histogram,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder whose epoch is *now*, pre-registering its metrics in the
    /// global registry so the recording hot path never allocates for them.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
            m_sweeps: metrics::counter("coopmc_sweeps_total"),
            m_updates: metrics::counter("coopmc_updates_total"),
            m_flips: metrics::counter("coopmc_label_flips_total"),
            m_fallbacks: metrics::counter("coopmc_uniform_fallbacks_total"),
            m_pg_ns: metrics::counter("coopmc_phase_pg_ns_total"),
            m_sd_ns: metrics::counter("coopmc_phase_sd_ns_total"),
            m_pu_ns: metrics::counter("coopmc_phase_pu_ns_total"),
            m_pg_cycles: metrics::counter("coopmc_modeled_pg_cycles_total"),
            m_sd_cycles: metrics::counter("coopmc_modeled_sd_cycles_total"),
            m_pu_cycles: metrics::counter("coopmc_modeled_pu_cycles_total"),
            h_sweep_us: metrics::histogram(
                "coopmc_sweep_duration_us",
                &[
                    10.0,
                    100.0,
                    1_000.0,
                    10_000.0,
                    100_000.0,
                    1_000_000.0,
                    10_000_000.0,
                ],
            ),
            // Per-phase latency histograms: fixed log2 buckets from 1 µs to
            // ~1 s so the Table II split is visible as a distribution, not
            // just a total.
            h_pg_us: metrics::histogram(
                "coopmc_phase_pg_duration_us",
                &metrics::log2_buckets(0, 20),
            ),
            h_sd_us: metrics::histogram(
                "coopmc_phase_sd_duration_us",
                &metrics::log2_buckets(0, 20),
            ),
            h_pu_us: metrics::histogram(
                "coopmc_phase_pu_duration_us",
                &metrics::log2_buckets(0, 20),
            ),
        }
    }

    /// The recorded sweep samples, in arrival order.
    pub fn sweeps(&self) -> Vec<SweepSample> {
        self.inner.lock().unwrap().sweeps.clone()
    }

    /// Render the run journal as JSONL, one line per sweep per chain, with
    /// any chain-health snapshots ([`Recorder::health`]) interleaved after
    /// the sweep they were refreshed at.
    ///
    /// Model statistics attached via [`Recorder::observe_stat`] are joined
    /// onto their sweeps; running ESS (≥ 4 samples) and split-chain
    /// Gelman–Rubin (≥ 8 samples) come from a per-chain incremental
    /// [`ChainHealth`] in export mode ([`HealthConfig::for_export`]), so
    /// export cost is linear in chain length instead of the quadratic
    /// full-series rescan this replaced. Per-line values are identical to
    /// the old rescan for chains up to the export window (4096 statistics);
    /// past that the diagnostics cover the trailing window only.
    pub fn journal_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        // Per-chain incremental diagnostics, fed one statistic per line.
        let mut health: std::collections::BTreeMap<u64, ChainHealth> =
            std::collections::BTreeMap::new();
        // Health snapshots not yet emitted, in arrival order per chain.
        let mut pending: std::collections::BTreeMap<
            u64,
            std::collections::VecDeque<&HealthRecord>,
        > = std::collections::BTreeMap::new();
        for r in &inner.health {
            pending.entry(r.chain).or_default().push_back(r);
        }
        for s in &inner.sweeps {
            let stat = s.stat.or_else(|| {
                inner
                    .stats
                    .iter()
                    .find(|(c, it, _)| *c == s.chain && *it == s.iteration)
                    .map(|&(_, _, v)| v)
            });
            let (mut ess, mut rhat) = (None, None);
            if let Some(v) = stat {
                let h = health
                    .entry(s.chain)
                    .or_insert_with(|| ChainHealth::new(s.chain, HealthConfig::for_export()));
                h.observe_sweep(
                    s.iteration,
                    s.updates,
                    s.flips,
                    s.uniform_fallbacks,
                    Some(v),
                );
                ess = h.record().ess;
                rhat = h.record().rhat_split;
            }
            let mut line = s.clone();
            line.stat = stat;
            out.push_str(&render_line(&line, ess, rhat));
            out.push('\n');
            if let Some(queue) = pending.get_mut(&s.chain) {
                while queue.front().is_some_and(|r| r.iteration <= s.iteration) {
                    out.push_str(&render_health_line(queue.pop_front().unwrap()));
                    out.push('\n');
                }
            }
        }
        // Health records past the last recorded sweep of their chain (or on
        // chains with no sweep lines at all) flush at the end.
        for queue in pending.values_mut() {
            for r in queue.drain(..) {
                out.push_str(&render_health_line(r));
                out.push('\n');
            }
        }
        out
    }

    /// Render every recorded span (plus synthetic per-phase child spans of
    /// each sweep) as a Chrome-trace (`chrome://tracing` / Perfetto) JSON
    /// document.
    ///
    /// Phase spans are per-sweep aggregates laid out back-to-back inside
    /// their sweep span — their widths are exact, their internal order
    /// within the sweep is schematic (PG/SD/PU interleave per variable).
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut events = Vec::new();
        for s in &inner.sweeps {
            events.push(render_trace_event(
                &format!("sweep {}", s.iteration),
                "sweep",
                s.start_ns,
                s.wall_ns,
                s.chain,
            ));
            let mut cursor = s.start_ns;
            for (name, dur) in [("PG", s.pg_ns), ("SD", s.sd_ns), ("PU", s.pu_ns)] {
                events.push(render_trace_event(name, "phase", cursor, dur, s.chain));
                cursor += dur;
            }
        }
        for sp in &inner.spans {
            events.push(render_trace_event(
                &sp.name,
                &sp.category,
                sp.start_ns,
                sp.dur_ns,
                sp.tid,
            ));
        }
        for (ts, name) in &inner.events {
            events.push(format!(
                "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":0,\"s\":\"g\"}}",
                quoted(name),
                *ts as f64 / 1_000.0
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",")
        )
    }

    /// Number of recorded sweeps.
    pub fn sweep_count(&self) -> usize {
        self.inner.lock().unwrap().sweeps.len()
    }
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

    fn end_sweep(&self, sample: &SweepSample) {
        self.m_sweeps.inc();
        self.m_updates.add(sample.updates);
        self.m_flips.add(sample.flips);
        self.m_fallbacks.add(sample.uniform_fallbacks);
        self.m_pg_ns.add(sample.pg_ns);
        self.m_sd_ns.add(sample.sd_ns);
        self.m_pu_ns.add(sample.pu_ns);
        self.m_pg_cycles.add(sample.pg_cycles);
        self.m_sd_cycles.add(sample.sd_cycles);
        self.m_pu_cycles.add(sample.pu_cycles);
        self.h_sweep_us.observe(sample.wall_ns as f64 / 1_000.0);
        self.h_pg_us.observe(sample.pg_ns as f64 / 1_000.0);
        self.h_sd_us.observe(sample.sd_ns as f64 / 1_000.0);
        self.h_pu_us.observe(sample.pu_ns as f64 / 1_000.0);
        self.inner.lock().unwrap().sweeps.push(sample.clone());
    }

    fn observe_stat(&self, chain: u64, iteration: u64, stat: f64) {
        self.inner
            .lock()
            .unwrap()
            .stats
            .push((chain, iteration, stat));
    }

    fn span(&self, name: &str, category: &str, start_ns: u64, dur_ns: u64, tid: u64) {
        self.inner.lock().unwrap().spans.push(Span {
            name: name.to_owned(),
            category: category.to_owned(),
            start_ns,
            dur_ns,
            tid,
        });
    }

    fn event(&self, name: &str) {
        let ts = self.now_ns();
        self.inner
            .lock()
            .unwrap()
            .events
            .push((ts, name.to_owned()));
    }

    fn health(&self, record: &HealthRecord) {
        self.inner.lock().unwrap().health.push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::validate_journal;

    /// Run the tests that record sweeps one at a time: each bumps the
    /// global `coopmc_updates_total` counter, which
    /// `metrics_counters_accumulate` reads exactly.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push_sweep(rec: &TraceRecorder, iteration: u64, stat: f64) {
        let sample = SweepSample {
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
            stat: None,
            colors: Vec::new(),
        };
        rec.observe_stat(0, iteration, stat);
        rec.end_sweep(&sample);
    }

    #[test]
    fn journal_has_running_diagnostics() {
        let _serial = serial();
        let rec = TraceRecorder::new();
        let mut x = 10.0;
        for it in 1..=12 {
            x = x * 0.9 + (it % 3) as f64;
            push_sweep(&rec, it, x);
        }
        let journal = rec.journal_jsonl();
        assert_eq!(validate_journal(&journal).unwrap(), 12);
        let lines: Vec<&str> = journal.lines().collect();
        let first = crate::json::parse(lines[0]).unwrap();
        assert!(first.get("ess").unwrap().is_null(), "too few samples yet");
        let last = crate::json::parse(lines[11]).unwrap();
        assert!(last.get("ess").unwrap().as_num().unwrap() > 0.0);
        assert!(last.get("rhat").unwrap().as_num().unwrap() > 0.0);
        assert_eq!(last.get("stat").unwrap().as_num(), Some(x));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_phase_spans() {
        let _serial = serial();
        let rec = TraceRecorder::new();
        push_sweep(&rec, 1, 1.0);
        rec.span("color 0", "pool", 100, 50, 3);
        rec.event("checkpoint");
        let doc = rec.chrome_trace_json();
        let v = crate::json::parse(&doc).expect("trace must parse");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 sweep + 3 phases + 1 span + 1 instant event.
        assert_eq!(events.len(), 6);
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

    #[test]
    fn metrics_counters_accumulate() {
        let _serial = serial();
        let rec = TraceRecorder::new();
        let before = metrics::counter("coopmc_updates_total").get();
        push_sweep(&rec, 1, 0.0);
        push_sweep(&rec, 2, 0.0);
        assert_eq!(metrics::counter("coopmc_updates_total").get(), before + 32);
        assert!(metrics::render().contains("coopmc_sweep_duration_us_bucket"));
        assert!(metrics::render().contains("coopmc_phase_pg_duration_us_bucket"));
    }

    /// Pin: the incremental export diagnostics reproduce the full-series
    /// rescan this PR removed — `effective_sample_size` over the chain so
    /// far and split-chain `gelman_rubin` (odd-length tail dropped,
    /// non-finite dropped) — on a fixed smooth series.
    #[test]
    fn incremental_export_matches_the_old_full_series_rescan() {
        let _serial = serial();
        use coopmc_models::diagnostics::{effective_sample_size, gelman_rubin};
        let rec = TraceRecorder::new();
        let mut x = 5.0;
        let mut series = Vec::new();
        for it in 1..=40u64 {
            x = 0.7 * x + ((it * 2_654_435_761) % 97) as f64 / 97.0;
            series.push(x);
            push_sweep(&rec, it, x);
        }
        let journal = rec.journal_jsonl();
        for (i, line) in journal.lines().enumerate() {
            let v = crate::json::parse(line).unwrap();
            let n = i + 1;
            let want_ess = (n >= 4).then(|| effective_sample_size(&series[..n]));
            let want_rhat = (n >= 8)
                .then(|| {
                    let (a, b) = series[..n].split_at(n / 2);
                    gelman_rubin(&[a.to_vec(), b[..a.len()].to_vec()])
                })
                .filter(|r| r.is_finite());
            let got_ess = v.get("ess").unwrap().as_num();
            let got_rhat = v.get("rhat").unwrap().as_num();
            match (want_ess, got_ess) {
                (None, None) => {}
                (Some(w), Some(g)) => assert!((w - g).abs() < 1e-9, "line {n}: ess {g} vs {w}"),
                other => panic!("line {n}: ess mismatch {other:?}"),
            }
            match (want_rhat, got_rhat) {
                (None, None) => {}
                (Some(w), Some(g)) => assert!((w - g).abs() < 1e-9, "line {n}: rhat {g} vs {w}"),
                other => panic!("line {n}: rhat mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn health_records_interleave_after_their_sweep() {
        let _serial = serial();
        let rec = TraceRecorder::new();
        for it in 1..=4u64 {
            push_sweep(&rec, it, it as f64);
        }
        let mut r = HealthRecord {
            chain: 0,
            iteration: 2,
            samples: 2,
            window: 2,
            flip_rate: 0.25,
            ..HealthRecord::default()
        };
        Recorder::health(&rec, &r);
        r.iteration = 9; // past the last sweep: flushed at the end
        r.samples = 9;
        r.window = 9;
        Recorder::health(&rec, &r);
        let journal = rec.journal_jsonl();
        assert_eq!(validate_journal(&journal).unwrap(), 6);
        let schemas: Vec<String> = journal
            .lines()
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("schema")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(
            schemas,
            vec![
                "coopmc-journal/1",
                "coopmc-journal/1",
                "coopmc-health/1",
                "coopmc-journal/1",
                "coopmc-journal/1",
                "coopmc-health/1",
            ]
        );
    }
}
