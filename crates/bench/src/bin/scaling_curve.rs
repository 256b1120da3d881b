//! Thread-scaling curve: parallel efficiency of the chromatic engine and of
//! independent chains, derived from the worker pool's own busy accounting.
//!
//! Two modes, each swept over 1/2/4/8 threads:
//!
//! 1. **chromatic** — one [`ChromaticEngine`] + [`CoopMcPipeline`] chain on
//!    an image-segmentation MRF, profiled with a [`SpanProfiler`] so the
//!    per-lane kernel attribution ships alongside the scaling numbers.
//!    Efficiency is `pool_busy_ns / (wall_ns * threads)`; the pool counts
//!    the calling thread's slot 0 like every worker's, so the single-thread
//!    row is measured the same way as the others.
//! 2. **chains** — `threads` fully independent [`GibbsEngine`] chains, one
//!    pool slot each. This is the embarrassingly-parallel ceiling: any gap
//!    from 1.0 is dispatch overhead or host contention, not algorithm.
//!
//! Rows where `threads` exceeds `host_cpus` are marked `starved` — their
//! efficiency measures oversubscription, not the engine, and the gate in
//! `coopmc-obs-check` / CI treats them as informational.
//!
//! Emits a provenance-stamped `results/scaling_curve.json` (directory
//! overridable with `COOPMC_REPORT_DIR`) plus `results/scaling_profile.jsonl`
//! with the chromatic runs' `coopmc-profile/1` journal for obs-check. Run
//! with `cargo run --release -p coopmc-bench --bin scaling_curve`.

use std::time::Instant;

use coopmc_bench::harness::{print_or_warn, Cell, Report, Table};
use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::CoopMcPipeline;
use coopmc_core::pool::WorkerPool;
use coopmc_models::mrf::image_segmentation;
use coopmc_obs::{print_stderr, NoopRecorder, SpanProfiler};
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WIDTH: usize = 48;
const HEIGHT: usize = 48;
const MRF_SEED: u64 = 21;
const SWEEPS: u64 = 12;
const SEED: u64 = 1234;

/// One measured row of the curve.
struct Row {
    mode: &'static str,
    threads: usize,
    wall_ns: u64,
    busy_ns: u64,
}

impl Row {
    /// Busy fraction of the theoretical `threads * wall` budget.
    fn efficiency(&self) -> f64 {
        if self.wall_ns == 0 || self.threads == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.wall_ns as f64 * self.threads as f64)
    }
}

/// Chromatic-engine run at `threads`; returns the row and the profiler's
/// journal lines so the curve ships its kernel attribution.
fn run_chromatic(threads: usize) -> (Row, String) {
    let profiler = SpanProfiler::new(threads);
    let engine = ChromaticEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        threads,
        SEED,
        &profiler,
    );
    let mut app = image_segmentation(WIDTH, HEIGHT, MRF_SEED);
    let start = Instant::now();
    for it in 0..SWEEPS {
        engine.sweep(&mut app.mrf, it);
    }
    let row = Row {
        mode: "chromatic",
        threads,
        wall_ns: start.elapsed().as_nanos() as u64,
        busy_ns: engine.pool_busy_ns(),
    };
    (row, profiler.journal_jsonl(0))
}

/// `threads` independent chains, one pool slot each.
fn run_chains(threads: usize) -> Row {
    let pool = WorkerPool::new(threads);
    let start = Instant::now();
    let chain = |i: usize| {
        let mut app = image_segmentation(WIDTH, HEIGHT, MRF_SEED);
        let mut engine = GibbsEngine::new(
            CoopMcPipeline::new(64, 8),
            TreeSampler,
            SplitMix64::new(SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let stats = engine.run(&mut app.mrf, SWEEPS);
        std::hint::black_box(stats.updates);
    };
    pool.broadcast(threads, &chain, &NoopRecorder);
    let wall_ns = start.elapsed().as_nanos() as u64;
    Row {
        mode: "chains",
        threads,
        wall_ns,
        busy_ns: pool.total_busy_ns(),
    }
}

fn push_row(table: &mut Table, row: &Row, host_cpus: usize) {
    let starved = row.threads > host_cpus;
    table.row(vec![
        Cell::text(row.mode),
        Cell::int(row.threads as i64),
        Cell::num(row.wall_ns as f64 / 1e6, 2),
        Cell::num(row.busy_ns as f64 / 1e6, 2),
        Cell::num(row.efficiency(), 3),
        Cell::text(if starved { "starved" } else { "" }),
    ]);
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut table = Table::titled(
        "Parallel efficiency from pool busy accounting",
        &[
            "mode",
            "threads",
            "wall_ms",
            "busy_ms",
            "efficiency",
            "note",
        ],
    );
    let mut profile_journal = String::new();
    for threads in THREAD_COUNTS {
        let (row, journal) = run_chromatic(threads);
        profile_journal.push_str(&journal);
        push_row(&mut table, &row, host_cpus);
    }
    for threads in THREAD_COUNTS {
        let row = run_chains(threads);
        push_row(&mut table, &row, host_cpus);
    }

    let mut report = Report::new(
        "scaling_curve",
        "Scaling curve",
        "Chromatic-engine and independent-chain thread scaling, efficiency \
         from worker-pool busy/idle accounting",
    );
    report.push(table);
    report.note(&format!(
        "host_cpus = {host_cpus}; rows with threads > host_cpus are starved \
         (oversubscribed) and measure contention, not the engine"
    ));
    report.note(&format!(
        "profile_enabled = true; chromatic rows ran under a SpanProfiler \
         ({} thread counts x {} sweeps on a {}x{} MRF)",
        THREAD_COUNTS.len(),
        SWEEPS,
        WIDTH,
        HEIGHT
    ));
    report.finish();

    let dir = std::env::var("COOPMC_REPORT_DIR").unwrap_or_else(|_| "results".to_owned());
    let path = std::path::Path::new(&dir).join("scaling_profile.jsonl");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &profile_journal)) {
        Ok(()) => print_or_warn(&format!("profile journal: {}\n", path.display())),
        Err(e) => print_stderr(&format!("warning: cannot write {}: {e}\n", path.display())),
    }
}
