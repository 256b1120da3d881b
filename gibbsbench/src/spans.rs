//! Span recording done by the benchmark around its calls into each layer.
//!
//! Spans live in memory while the chain runs — per-(layer, sweep) totals
//! and counts, plus a bounded sample of raw spans — and are written out
//! once the run ends ([`Spans::to_json`]).

use std::hint::black_box;
use std::time::Instant;

/// Raw spans kept per run; later spans only reach the totals.
pub const RAW_CAP: usize = 4096;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Parent span of one sweep.
    Sweep,
    /// `models`: `begin_resample` + `scores_into`.
    Gather,
    /// `pipeline`: `generate_into` / `generate_batch_into`.
    Pg,
    /// `sampler`: `sample_into` / `sample_rows_into`.
    Sd,
    /// `models`: `update`.
    Pu,
    /// `parallel`: `ChromaticEngine::sweep` at 1 thread.
    Sweep1Thread,
    /// `parallel`: `ChromaticEngine::sweep` at 2 threads.
    Sweep2Threads,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Sweep,
        Layer::Gather,
        Layer::Pg,
        Layer::Sd,
        Layer::Pu,
        Layer::Sweep1Thread,
        Layer::Sweep2Threads,
    ];

    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sweep => "sweep",
            Layer::Gather => "models.gather",
            Layer::Pg => "pipeline.pg",
            Layer::Sd => "sampler.sd",
            Layer::Pu => "models.update",
            Layer::Sweep1Thread => "parallel.sweep_1_thread",
            Layer::Sweep2Threads => "parallel.sweep_2_threads",
        }
    }
}

/// Where a copy of the engine loop sends its spans. [`NoSpans`] makes the
/// bare copy: every call folds away, so bare and traced copies run the same
/// code apart from the clock reads.
pub trait SpanSink {
    /// Whether spans are recorded at all.
    const ENABLED: bool;
    /// Open a span.
    fn start(&self) -> Option<Instant>;
    /// Close a span of `layer` opened at `start`.
    fn end(&mut self, layer: Layer, start: Option<Instant>);
}

/// The bare copy's sink: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl SpanSink for NoSpans {
    const ENABLED: bool = false;
    #[inline(always)]
    fn start(&self) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn end(&mut self, _: Layer, _: Option<Instant>) {}
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    layer: Layer,
    sweep: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span store of one traced chain.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Per sweep: summed span nanoseconds of each layer.
    totals: Vec<[u64; LAYERS]>,
    /// Spans recorded per layer.
    counts: [u64; LAYERS],
    raw: Vec<RawSpan>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty store; the first sweep opens with [`Spans::next_sweep`].
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            totals: Vec::new(),
            counts: [0; LAYERS],
            raw: Vec::with_capacity(RAW_CAP),
        }
    }

    /// Start accounting a new sweep.
    pub fn next_sweep(&mut self) {
        self.totals.push([0; LAYERS]);
    }

    /// Summed nanoseconds of `layer` over every sweep.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.totals.iter().map(|t| t[layer as usize]).sum()
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer as usize]
    }

    /// Sweeps accounted.
    pub fn sweeps(&self) -> usize {
        self.totals.len()
    }

    /// The store as JSON: per-(layer, sweep) totals, counts and the raw
    /// sample, plus `meta` (a JSON object body) describing the run.
    pub fn to_json(&self, meta: &str) -> String {
        let mut s = format!("{{{meta},\"layers\":[");
        for (i, l) in Layer::ALL.iter().enumerate() {
            let per_sweep: Vec<String> = self.totals.iter().map(|t| t[i].to_string()).collect();
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"spans\":{},\"ns_per_sweep\":[{}]}}",
                l.name(),
                self.counts[i],
                per_sweep.join(",")
            ));
        }
        s.push_str("],\"raw\":[");
        for (i, r) in self.raw.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "[\"{}\",{},{},{}]",
                r.layer.name(),
                r.sweep,
                r.start_ns,
                r.dur_ns
            ));
        }
        s.push_str("]}");
        s
    }
}

impl SpanSink for Spans {
    const ENABLED: bool = true;

    #[inline(always)]
    fn start(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    #[inline(always)]
    fn end(&mut self, layer: Layer, start: Option<Instant>) {
        if let Some(start) = start {
            self.record(layer, start, start.elapsed().as_nanos() as u64);
        }
    }
}

impl Spans {
    /// Record a span of `layer` that began at `start` and lasted `dur_ns`.
    pub fn record(&mut self, layer: Layer, start: Instant, dur_ns: u64) {
        let sweep = self.totals.len().saturating_sub(1);
        if let Some(t) = self.totals.last_mut() {
            t[layer as usize] += dur_ns;
        }
        self.counts[layer as usize] += 1;
        if self.raw.len() < RAW_CAP {
            self.raw.push(RawSpan {
                layer,
                sweep: sweep as u32,
                start_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }
}

/// Measured cost of an empty span.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Wall time one empty span adds to a loop (open, close, record).
    pub span_ns: f64,
    /// Duration an empty span reports for itself; subtracted from every
    /// layer span to give self time.
    pub self_ns: f64,
}

/// Time empty spans: the median over `reps` rounds of `per_rep` spans.
pub fn calibrate(reps: usize, per_rep: usize) -> SpanCost {
    let mut wall = Vec::with_capacity(reps);
    let mut reported = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut spans = Spans::new();
        spans.next_sweep();
        let t = Instant::now();
        for _ in 0..per_rep {
            let s = spans.start();
            black_box(&s);
            spans.end(Layer::Gather, s);
        }
        wall.push(t.elapsed().as_nanos() as f64 / per_rep as f64);
        reported.push(spans.total_ns(Layer::Gather) as f64 / per_rep as f64);
    }
    SpanCost {
        span_ns: crate::stats::median(&wall),
        self_ns: crate::stats::median(&reported),
    }
}
