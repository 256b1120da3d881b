//! Kernel-level cycle-attribution profiler.
//!
//! [`SpanProfiler`] is a hierarchical span profiler with fixed-capacity
//! per-worker span rings, built as a [`Recorder`] over the engines' events:
//! [`Event::SweepStart`] and [`Event::SweepEnd`] open and close the `sweep`
//! span on the coordinator lane, and every [`Event::Kernel`] closes a leaf
//! span and attributes its modeled cycles. Every span is timed with the
//! events' own timestamps, so the profiler reads no clock while it records.
//! Under static dispatch the [`NoopRecorder`](crate::trace::NoopRecorder)
//! engines emit nothing, so the warm-sweep zero-allocation guarantee and
//! chain bit-identity survive (both are pinned by tests in `coopmc-core`
//! and the workspace `tests/profiling.rs`).
//!
//! The span vocabulary is closed: every instrumented site names a
//! [`Kernel`], so exports (collapsed-stack flamegraph text, the
//! `coopmc-profile/1` journal section, the Chrome-trace kernel tracks) and
//! the `coopmc_hw` divergence ledger all share one spelling of each kernel.
//!
//! Recording is allocation-free after construction: each lane owns a
//! preallocated ring of spans (spans past capacity are counted in
//! `spans_dropped`, aggregates keep accumulating), a fixed-depth span
//! stack (imbalance is counted in `unclosed`, never panics), and a
//! fixed-size per-kernel aggregate table. Modeled cycles are attributed
//! per `(lane, kernel)` through relaxed atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::journal::{render_profile_line, ProfileSample};
use crate::trace::{Event, Recorder};

/// Maximum nesting depth of open spans per lane. The engine vocabulary
/// nests at most two deep (`sweep` → kernel leaf); extra headroom keeps
/// future instrumentation from silently truncating.
pub const MAX_DEPTH: usize = 8;

/// Per-lane span-ring capacity. At ~24 bytes per span this is ~192 KiB
/// per lane; past capacity aggregates keep counting and `spans_dropped`
/// records the loss.
pub const RING_CAPACITY: usize = 8192;

/// The closed kernel vocabulary of the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Kernel {
    /// Whole-sweep root span on the coordinator lane.
    Sweep = 0,
    /// Host-side score gather (`model.row_into`) feeding the PG core.
    PgGather = 1,
    /// PG stage 1: accumulator-bus arithmetic / requantization into the
    /// accumulator format (the normalization bus of the paper's PG core).
    PgNormalize = 2,
    /// PG stage 2: DyNorm max-shift (NormTree comparators).
    PgDynorm = 3,
    /// PG stage 3: TableExp lookup / exp evaluation.
    PgExpBatch = 4,
    /// Sample-unit draws (tree walk), batched or scalar.
    SdSampleRows = 5,
    /// Parameter-update commit (`model.update`).
    PuUpdate = 6,
    /// Worker-pool dispatch: publishing a broadcast's task and passing its
    /// start barrier.
    PoolDispatch = 7,
    /// Worker-pool join: the coordinator's wait at a broadcast's end
    /// barrier.
    PoolJoin = 8,
}

/// Number of kernels in the vocabulary.
pub const N_KERNELS: usize = 9;

/// All kernels, in discriminant order.
pub const KERNELS: [Kernel; N_KERNELS] = [
    Kernel::Sweep,
    Kernel::PgGather,
    Kernel::PgNormalize,
    Kernel::PgDynorm,
    Kernel::PgExpBatch,
    Kernel::SdSampleRows,
    Kernel::PuUpdate,
    Kernel::PoolDispatch,
    Kernel::PoolJoin,
];

impl Kernel {
    /// Stable wire name used in flamegraphs, journals and traces.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sweep => "sweep",
            Kernel::PgGather => "pg.gather",
            Kernel::PgNormalize => "pg.normalize",
            Kernel::PgDynorm => "pg.dynorm",
            Kernel::PgExpBatch => "pg.exp_batch",
            Kernel::SdSampleRows => "sd.sample_rows",
            Kernel::PuUpdate => "pu.update",
            Kernel::PoolDispatch => "pool.dispatch",
            Kernel::PoolJoin => "pool.join",
        }
    }

    /// Paper phase the kernel belongs to (`root`, `pg`, `sd`, `pu`, `pool`).
    pub fn phase(self) -> &'static str {
        match self {
            Kernel::Sweep => "root",
            Kernel::PgGather | Kernel::PgNormalize | Kernel::PgDynorm | Kernel::PgExpBatch => "pg",
            Kernel::SdSampleRows => "sd",
            Kernel::PuUpdate => "pu",
            Kernel::PoolDispatch | Kernel::PoolJoin => "pool",
        }
    }

    /// Inverse of [`Kernel::name`]; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Kernel> {
        KERNELS.iter().copied().find(|k| k.name() == name)
    }
}

/// One completed span in a lane's fixed-capacity ring.
#[derive(Debug, Clone, Copy)]
struct RingSpan {
    kernel: Kernel,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-kernel running aggregate inside a lane.
#[derive(Debug, Clone, Copy, Default)]
struct KernelAgg {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

/// One open frame on a lane's span stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    kernel: Kernel,
    start_ns: u64,
    child_ns: u64,
}

/// Mutable per-lane state; one `Mutex<Lane>` per worker lane so workers
/// never contend with each other.
#[derive(Debug)]
struct Lane {
    stack: [Frame; MAX_DEPTH],
    depth: usize,
    unclosed: u64,
    dropped: u64,
    ring: Vec<RingSpan>,
    agg: [KernelAgg; N_KERNELS],
}

impl Lane {
    fn new() -> Lane {
        let frame = Frame {
            kernel: Kernel::Sweep,
            start_ns: 0,
            child_ns: 0,
        };
        Lane {
            stack: [frame; MAX_DEPTH],
            depth: 0,
            unclosed: 0,
            dropped: 0,
            ring: Vec::with_capacity(RING_CAPACITY),
            agg: [KernelAgg::default(); N_KERNELS],
        }
    }

    fn record_closed(&mut self, kernel: Kernel, start_ns: u64, dur_ns: u64, child_ns: u64) {
        let agg = &mut self.agg[kernel as usize];
        agg.calls += 1;
        agg.total_ns += dur_ns;
        agg.child_ns += child_ns;
        if self.depth > 0 {
            self.stack[self.depth - 1].child_ns += dur_ns;
        }
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(RingSpan {
                kernel,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }
}
/// Self/total attribution for one `(worker lane, kernel)` pair, plus the
/// lane's loss counters. `modeled_cycles` is the closed-form hardware cost
/// attributed to the same pair by the engines (see `coopmc_hw`).
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Lane index: 0 is the coordinator, `i > 0` is pool worker `i - 1`.
    pub worker: usize,
    /// Kernel the row describes.
    pub kernel: Kernel,
    /// Number of closed spans.
    pub calls: u64,
    /// Inclusive wall time, nanoseconds.
    pub total_ns: u64,
    /// Exclusive wall time (total minus attributed children), nanoseconds.
    pub self_ns: u64,
    /// Modeled hardware cycles attributed to this `(lane, kernel)`.
    pub modeled_cycles: u64,
    /// Spans lost to ring capacity on this lane (aggregates still count).
    pub spans_dropped: u64,
    /// Span-stack imbalance events on this lane (begin/end mismatch or
    /// still-open frames at export). Zero on a healthy run.
    pub unclosed: u64,
}

/// Hierarchical kernel-span profiler with fixed-capacity per-lane rings.
///
/// Lane *i* is pool slot *i*. Lane 0 is the coordinator: the thread
/// driving sweeps, which also runs slot 0 of every pool broadcast. Lanes
/// `1..n` are the pool's `n − 1` workers. Out-of-range lane indices clamp
/// to the last lane rather than panic.
#[derive(Debug)]
pub struct SpanProfiler {
    epoch: Instant,
    lanes: Vec<Mutex<Lane>>,
    cycles: Vec<[AtomicU64; N_KERNELS]>,
}

impl SpanProfiler {
    /// Create a profiler with `lanes` lanes, one per pool slot.
    /// All ring/stack/aggregate storage is allocated here; recording
    /// never allocates.
    pub fn new(lanes: usize) -> SpanProfiler {
        let n = lanes.max(1);
        SpanProfiler {
            epoch: Instant::now(),
            lanes: (0..n).map(|_| Mutex::new(Lane::new())).collect(),
            cycles: (0..n)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    fn lane(&self, lane: usize) -> std::sync::MutexGuard<'_, Lane> {
        let lane = &self.lanes[lane.min(self.lanes.len() - 1)];
        lane.lock().expect("profiler lane poisoned")
    }

    /// Open a span for `kernel` on `lane` at `start_ns`.
    fn begin(&self, lane: usize, kernel: Kernel, start_ns: u64) {
        let mut lane = self.lane(lane);
        if lane.depth == MAX_DEPTH {
            lane.unclosed += 1;
            return;
        }
        let depth = lane.depth;
        lane.stack[depth] = Frame {
            kernel,
            start_ns,
            child_ns: 0,
        };
        lane.depth += 1;
    }

    /// Close the innermost span on `lane` at `end_ns`; it must be
    /// `kernel`. A mismatch or an empty stack counts as imbalance instead
    /// of closing.
    fn end(&self, lane: usize, kernel: Kernel, end_ns: u64) {
        let mut lane = self.lane(lane);
        if lane.depth == 0 || lane.stack[lane.depth - 1].kernel != kernel {
            lane.unclosed += 1;
            return;
        }
        lane.depth -= 1;
        let frame = lane.stack[lane.depth];
        let dur = end_ns.saturating_sub(frame.start_ns);
        lane.record_closed(frame.kernel, frame.start_ns, dur, frame.child_ns);
    }

    /// Per-`(lane, kernel)` attribution rows, lane-major then kernel
    /// order; rows with zero calls and zero cycles are omitted.
    pub fn kernel_reports(&self) -> Vec<KernelReport> {
        let mut out = Vec::new();
        for i in 0..self.lanes.len() {
            let lane = self.lane(i);
            let unclosed = lane.unclosed + lane.depth as u64;
            let lane_start = out.len();
            for kernel in KERNELS {
                let agg = lane.agg[kernel as usize];
                let cycles = self.cycles[i][kernel as usize].load(Ordering::Relaxed);
                if agg.calls == 0 && cycles == 0 {
                    continue;
                }
                out.push(KernelReport {
                    worker: i,
                    kernel,
                    calls: agg.calls,
                    total_ns: agg.total_ns,
                    self_ns: agg.total_ns.saturating_sub(agg.child_ns),
                    modeled_cycles: cycles,
                    spans_dropped: lane.dropped,
                    unclosed,
                });
            }
            // A lane with no completed spans must still surface its
            // damage counters, or an all-imbalanced run would validate.
            if out.len() == lane_start && (unclosed > 0 || lane.dropped > 0) {
                out.push(KernelReport {
                    worker: i,
                    kernel: Kernel::Sweep,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    modeled_cycles: 0,
                    spans_dropped: lane.dropped,
                    unclosed,
                });
            }
        }
        out
    }
    /// Collapsed-stack flamegraph text (`frame;frame count` per line,
    /// counts in nanoseconds of self time). Coordinator kernels nest
    /// under `sweep`; worker-lane kernels stack under `worker-<i>`.
    /// Root self time is included, so the per-line counts sum to the
    /// total inclusive sweep time.
    pub fn flamegraph(&self) -> String {
        let mut out = String::new();
        for report in self.kernel_reports() {
            if report.calls == 0 {
                continue;
            }
            let name = report.kernel.name();
            if report.worker == 0 {
                if report.kernel == Kernel::Sweep {
                    out.push_str(&format!("sweep {}\n", report.self_ns));
                } else {
                    out.push_str(&format!("sweep;{} {}\n", name, report.self_ns));
                }
            } else {
                out.push_str(&format!(
                    "worker-{};{} {}\n",
                    report.worker - 1,
                    name,
                    report.self_ns
                ));
            }
        }
        out
    }

    /// `coopmc-profile/1` journal section: one JSONL line per
    /// `(lane, kernel)` row, validated by `coopmc-obs-check`.
    pub fn journal_jsonl(&self, chain: u64) -> String {
        let mut out = String::new();
        for report in self.kernel_reports() {
            out.push_str(&render_profile_line(&ProfileSample {
                chain,
                worker: report.worker as u64,
                kernel: report.kernel.name(),
                phase: report.kernel.phase(),
                calls: report.calls,
                total_ns: report.total_ns,
                self_ns: report.self_ns,
                modeled_cycles: report.modeled_cycles,
                spans_dropped: report.spans_dropped,
                unclosed: report.unclosed,
            }));
            out.push('\n');
        }
        out
    }

    /// Snapshot of every retained ring span as
    /// `(lane, kernel, start_ns, dur_ns)`, for Chrome-trace merging.
    pub(crate) fn ring_spans(&self) -> Vec<(usize, Kernel, u64, u64)> {
        let mut out = Vec::new();
        for i in 0..self.lanes.len() {
            for span in &self.lane(i).ring {
                out.push((i, span.kernel, span.start_ns, span.dur_ns));
            }
        }
        out
    }
}

impl Recorder for SpanProfiler {
    fn profiling(&self) -> bool {
        true
    }

    /// The profiler's clock, which times engines that run on the profiler
    /// alone; paired behind a journaling recorder it goes unread.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sweep events open and close lane 0's `sweep` span; a kernel event
    /// closes a leaf span ending at its `end_ns` (none for a zero
    /// duration) and attributes its cycles.
    fn record(&self, event: Event<'_>) {
        match event {
            Event::SweepStart { start_ns } => self.begin(0, Kernel::Sweep, start_ns),
            Event::SweepEnd { end_ns, .. } => self.end(0, Kernel::Sweep, end_ns),
            Event::Kernel {
                lane,
                kernel,
                end_ns,
                dur_ns,
                cycles,
            } => {
                if dur_ns > 0 {
                    let start_ns = end_ns.saturating_sub(dur_ns);
                    self.lane(lane).record_closed(kernel, start_ns, dur_ns, 0);
                }
                let lane = lane.min(self.cycles.len() - 1);
                self.cycles[lane][kernel as usize].fetch_add(cycles, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for kernel in KERNELS {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::from_name("pg.bogus"), None);
    }

    /// A kernel event: `kernel` ran on `lane` for `dur_ns` ending at
    /// `end_ns`, worth `cycles` modeled cycles.
    fn leaf(prof: &SpanProfiler, lane: usize, kernel: Kernel, end_ns: u64, dur_ns: u64) {
        prof.record(Event::Kernel {
            lane,
            kernel,
            end_ns,
            dur_ns,
            cycles: 0,
        });
    }

    /// A `sweep` span from `start_ns` to `end_ns` around `body`'s events.
    fn sweep(prof: &SpanProfiler, start_ns: u64, end_ns: u64, body: impl FnOnce()) {
        prof.record(Event::SweepStart { start_ns });
        body();
        prof.record(Event::SweepEnd {
            end_ns,
            sample: None,
        });
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let prof = SpanProfiler::new(1);
        sweep(&prof, 0, 10_000, || {
            leaf(&prof, 0, Kernel::PuUpdate, 5_000, 1_000);
            leaf(&prof, 0, Kernel::SdSampleRows, 9_000, 2_000);
        });

        let reports = prof.kernel_reports();
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("sweep row");
        assert_eq!(sweep.calls, 1);
        assert_eq!(sweep.total_ns, sweep.self_ns + 3_000);
        assert_eq!(sweep.unclosed, 0);
        let pu = reports
            .iter()
            .find(|r| r.kernel == Kernel::PuUpdate)
            .expect("pu row");
        assert_eq!(pu.total_ns, 1_000);
        assert_eq!(pu.self_ns, 1_000);
    }

    #[test]
    fn flamegraph_self_times_sum_to_root_total() {
        let prof = SpanProfiler::new(1);
        sweep(&prof, 0, 10_000, || {
            leaf(&prof, 0, Kernel::PgExpBatch, 4_000, 500);
            leaf(&prof, 0, Kernel::PuUpdate, 8_000, 250);
        });

        let flame = prof.flamegraph();
        let mut sum = 0u64;
        for line in flame.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("collapsed-stack line");
            assert!(stack.starts_with("sweep"), "unexpected stack {stack:?}");
            sum += count.parse::<u64>().expect("numeric count");
        }
        let sweep_total = prof
            .kernel_reports()
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("sweep row")
            .total_ns;
        assert_eq!(sum, sweep_total);
    }

    #[test]
    fn imbalance_is_counted_not_fatal() {
        let prof = SpanProfiler::new(1);
        prof.end(0, Kernel::Sweep, 0); // end with empty stack
        prof.begin(0, Kernel::Sweep, 0);
        prof.end(0, Kernel::PuUpdate, 0); // mismatched close
        let reports = prof.kernel_reports();
        let sweep = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("open sweep still reported as unclosed");
        // 2 explicit imbalances + 1 still-open frame at export.
        assert_eq!(sweep.unclosed, 3);
    }

    #[test]
    fn ring_overflow_drops_spans_but_keeps_aggregates() {
        let prof = SpanProfiler::new(1);
        let n = (RING_CAPACITY + 10) as u64;
        for i in 0..n {
            leaf(&prof, 0, Kernel::PuUpdate, i + 1, 1);
        }
        let reports = prof.kernel_reports();
        let pu = reports
            .iter()
            .find(|r| r.kernel == Kernel::PuUpdate)
            .expect("pu row");
        assert_eq!(pu.calls, n);
        assert_eq!(pu.total_ns, n);
        assert_eq!(pu.spans_dropped, 10);
        assert_eq!(prof.ring_spans().len(), RING_CAPACITY);
    }

    #[test]
    fn worker_lanes_render_worker_stacks() {
        let prof = SpanProfiler::new(3);
        leaf(&prof, 2, Kernel::PgExpBatch, 200, 123);
        let flame = prof.flamegraph();
        assert_eq!(flame, "worker-1;pg.exp_batch 123\n");
    }

    #[test]
    fn out_of_range_lane_clamps() {
        let prof = SpanProfiler::new(2);
        prof.record(Event::Kernel {
            lane: 99,
            kernel: Kernel::PuUpdate,
            end_ns: 7,
            dur_ns: 7,
            cycles: 4,
        });
        let reports = prof.kernel_reports();
        let row = reports
            .iter()
            .find(|r| r.kernel == Kernel::PuUpdate)
            .expect("clamped row");
        assert_eq!(row.worker, 1);
        assert_eq!(row.modeled_cycles, 4);
    }

    #[test]
    fn zero_duration_kernel_attributes_cycles_without_a_span() {
        let prof = SpanProfiler::new(1);
        prof.record(Event::Kernel {
            lane: 0,
            kernel: Kernel::PgDynorm,
            end_ns: 50,
            dur_ns: 0,
            cycles: 9,
        });
        let reports = prof.kernel_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].calls, reports[0].modeled_cycles), (0, 9));
        assert!(prof.ring_spans().is_empty());
    }

    #[test]
    fn journal_lines_carry_the_profile_schema() {
        let prof = SpanProfiler::new(1);
        sweep(&prof, 0, 100, || {
            prof.record(Event::Kernel {
                lane: 0,
                kernel: Kernel::SdSampleRows,
                end_ns: 50,
                dur_ns: 10,
                cycles: 5,
            });
        });
        let text = prof.journal_jsonl(0);
        assert!(text.contains("\"schema\":\"coopmc-profile/1\""));
        assert!(text.contains("\"kernel\":\"sd.sample_rows\""));
        assert!(text.contains("\"phase\":\"sd\""));
        crate::journal::validate_journal(&text).expect("profile journal validates");
    }
}
