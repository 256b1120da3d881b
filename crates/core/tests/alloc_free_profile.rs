//! The zero-allocation guarantee of the *profiled* Gibbs hot path.
//!
//! The span profiler preallocates its per-lane rings and aggregate tables
//! at construction, so once the engine's scratch buffers are warm a fully
//! profiled sweep — sweep and kernel events, span rings, modeled-cycle
//! attribution — must allocate **nothing**. A counting `#[global_allocator]`
//! wrapper pins that for the sequential engine and for the chromatic
//! engine at 1, 2 and 4 threads (one profiler lane per pool slot), and the
//! same test then pins the chain-invisibility contract: the profiled
//! chain's labels are bit-identical to the unprofiled chain's.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measurement window.

// The counting allocator must implement the unsafe `GlobalAlloc` trait;
// every unsafe block merely forwards to `System`.
#![allow(unsafe_code)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::CoopMcPipeline;
use coopmc_models::mrf::image_segmentation;
use coopmc_models::GibbsModel;
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_obs::{Kernel, SpanProfiler};
use coopmc_rng::SplitMix64;
use coopmc_sampler::TreeSampler;

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Chromatic sweeps before the counter is armed, and in all.
const WARM_SWEEPS: u64 = 2;
const SWEEPS: u64 = 6;

/// Arms the counter once the warm-up sweeps are done.
struct ArmAfterWarmUp;

impl ConvergenceController for ArmAfterWarmUp {
    fn observe_sweep(&mut self, it: u64, _: u64, _: u64, _: u64, _: Option<f64>) -> Decision {
        if it == WARM_SWEEPS {
            ALLOCS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
        }
        Decision::Continue
    }
}

#[test]
fn warm_profiled_sweep_allocates_nothing_and_stays_chain_invisible() {
    let profiler = SpanProfiler::new(1);
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        SplitMix64::new(7),
        &profiler,
    );
    let mut stats = coopmc_core::engine::RunStats::default();

    // Warm-up: grows the engine's score/PG/sampler buffers; the profiler
    // ring is preallocated at construction and may already be dropping
    // spans, which is fine — drops are a counter bump, not an allocation.
    engine.sweep(&mut app.mrf, &mut stats);
    engine.sweep(&mut app.mrf, &mut stats);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.sweep(&mut app.mrf, &mut stats);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm profiled Gibbs sweep must not touch the heap \
         ({allocs} allocations observed)"
    );
    assert_eq!(stats.iterations, 3);

    // The profiler actually saw the sweeps: kernel aggregates are live.
    let reports = profiler.kernel_reports();
    let sweep_row = reports
        .iter()
        .find(|r| r.kernel == Kernel::Sweep)
        .expect("profiled run must report the sweep kernel");
    assert_eq!(sweep_row.calls, 3);
    assert_eq!(sweep_row.unclosed, 0);

    // Chain invisibility: the same model under an unprofiled engine lands
    // on bit-identical labels. (Sequential measurement in the same test —
    // the counter is process-global; see the module docs.)
    let mut plain_app = image_segmentation(32, 32, 21);
    let mut plain_engine = GibbsEngine::new(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        SplitMix64::new(7),
    );
    plain_engine.run(&mut plain_app.mrf, 3);
    assert_eq!(
        app.mrf.labels(),
        plain_app.mrf.labels(),
        "profiling must be chain-invisible"
    );

    // A warm profiled chromatic sweep allocates nothing either, on the
    // calling thread or on any worker.
    for threads in [1, 2, 4] {
        let profiler = SpanProfiler::new(threads);
        let mut app = image_segmentation(32, 32, 21);
        let engine = ChromaticEngine::with_recorder(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            threads,
            7,
            &profiler,
        );
        engine.run_controlled(&mut app.mrf, SWEEPS, |_| None, &mut ArmAfterWarmUp);
        ARMED.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs,
            0,
            "{} warm profiled chromatic sweeps at {threads} threads made {allocs} allocations",
            SWEEPS - WARM_SWEEPS
        );
        let reports = profiler.kernel_reports();
        let sweep_row = reports
            .iter()
            .find(|r| r.kernel == Kernel::Sweep)
            .expect("profiled run must report the sweep kernel");
        assert_eq!((sweep_row.calls, sweep_row.unclosed), (SWEEPS, 0));
        let lanes = reports.iter().map(|r| r.worker).max();
        assert_eq!(lanes, Some(threads - 1), "every pool slot has a lane");
    }
}
