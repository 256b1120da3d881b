//! The zero-allocation guarantee of the chromatic engine at every thread
//! count.
//!
//! A counting `#[global_allocator]` wrapper measures heap traffic during
//! warm sweeps of [`ChromaticEngine`] at 1, 2 and 4 threads: every color
//! class is one pool broadcast whose slots draw into lanes the first sweeps
//! have grown, so once warm a sweep must allocate **nothing**, on the
//! calling thread or on any worker. 2-label segmentation and 64-label
//! restoration log rows are pinned, and so are BN-SURVEY's factor rows,
//! whose strides break between its 3- and 2-label nodes. A 2-thread
//! restoration run through the alias sampler pins a sampler that rebuilds
//! a table per draw.
//!
//! A journaling run allocates for the journal records it keeps, but its
//! pool gauges are registered once, so it allocates as often at 1, 2 and 4
//! threads.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measurement window.

// The counting allocator must implement the unsafe `GlobalAlloc` trait;
// every unsafe block merely forwards to `System`.
#![allow(unsafe_code)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::CoopMcPipeline;
use coopmc_models::bn::survey;
use coopmc_models::coloring::ChromaticModel;
use coopmc_models::mrf::{image_restoration, image_segmentation, MrfApp};
use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_obs::{NoopRecorder, TraceRecorder};
use coopmc_sampler::{AliasSampler, Sampler, TreeSampler};

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

/// Sweeps before the counter is armed: the first grows every lane's
/// buffers.
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

/// Heap allocations during the warm sweeps of a `threads`-thread chromatic
/// run on `model` through `sampler`, and the variables it updated.
fn warm_allocs<M: ChromaticModel + Sync, S: Sampler + Sync>(
    model: &mut M,
    sampler: S,
    threads: usize,
) -> (u64, usize) {
    let engine = ChromaticEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        sampler,
        threads,
        7,
        NoopRecorder,
    );
    let updated = engine.run_controlled(model, SWEEPS, |_| None, &mut ArmAfterWarmUp);
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), updated)
}

#[test]
fn warm_chromatic_sweeps_allocate_nothing_at_any_thread_count() {
    let models: [fn() -> MrfApp; 2] = [
        || image_segmentation(32, 32, 21),
        || image_restoration(32, 24, 5),
    ];
    for build in models {
        for threads in [1, 2, 4] {
            let mut app = build();
            let (allocs, updated) = warm_allocs(&mut app.mrf, TreeSampler::new(), threads);
            assert_eq!(
                allocs,
                0,
                "{} at {threads} threads: {} warm chromatic sweeps made {allocs} allocations",
                app.name,
                SWEEPS - WARM_SWEEPS
            );
            let variables = app.mrf.width() * app.mrf.height();
            assert_eq!(updated, SWEEPS as usize * variables, "{threads} threads");
        }
    }
    for threads in [1, 2, 4] {
        let mut net = survey();
        net.set_evidence(net.node_index("residence").unwrap(), 1);
        let (allocs, updated) = warm_allocs(&mut net, TreeSampler::new(), threads);
        assert_eq!(
            allocs,
            0,
            "BN-SURVEY at {threads} threads: {} warm chromatic sweeps made {allocs} allocations",
            SWEEPS - WARM_SWEEPS
        );
        assert_eq!(updated, SWEEPS as usize * 5, "{threads} threads");
    }
    let mut app = image_restoration(32, 24, 5);
    let (allocs, _) = warm_allocs(&mut app.mrf, AliasSampler::new(), 2);
    assert_eq!(
        allocs,
        0,
        "alias sampler at 2 threads: {} warm chromatic sweeps made {allocs} allocations",
        SWEEPS - WARM_SWEEPS
    );
    let journaled = [1, 2, 4].map(|threads| {
        let recorder = TraceRecorder::new();
        let mut app = image_segmentation(32, 32, 21);
        let engine = ChromaticEngine::with_recorder(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            threads,
            7,
            &recorder,
        );
        engine.run_controlled(&mut app.mrf, SWEEPS, |_| None, &mut ArmAfterWarmUp);
        ARMED.store(false, Ordering::SeqCst);
        assert_eq!(recorder.sweeps().len(), SWEEPS as usize);
        ALLOCS.load(Ordering::SeqCst)
    });
    assert!(
        journaled.iter().all(|&a| a == journaled[0]),
        "warm journaled sweeps at 1, 2 and 4 threads made {journaled:?} allocations"
    );
}
