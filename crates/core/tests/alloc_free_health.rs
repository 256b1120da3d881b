//! The zero-allocation guarantee of the chain-health observe path.
//!
//! A counting `#[global_allocator]` wrapper measures heap traffic while a
//! warm [`GibbsEngine`] sweep feeds an [`EarlyStop`] controller refreshing
//! its full diagnostics (ESS, rank-normalized split R-hat, MCSE, detectors)
//! **every sweep** (`refresh_stride: 1`): after warm-up has grown the
//! engine's scratch and filled enough of the health ring for every
//! estimator to be live, a monitored sweep must allocate **nothing**.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measurement window.

// The counting allocator must implement the unsafe `GlobalAlloc` trait;
// every unsafe block merely forwards to `System`.
#![allow(unsafe_code)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coopmc_core::engine::{GibbsEngine, RunStats};
use coopmc_core::pipeline::FixedPipeline;
use coopmc_models::mrf::image_segmentation;
use coopmc_obs::health::{ChainHealth, ConvergenceController, EarlyStop, HealthConfig};
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

#[test]
fn warm_monitored_sweep_allocates_nothing() {
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::new(
        FixedPipeline::new(8, true),
        TreeSampler::new(),
        SplitMix64::new(7),
    );
    // Refresh every sweep, so the path that copies a refresh into the
    // metrics gauges runs each time and must stay heap-free too.
    let health = ChainHealth::new(
        0,
        HealthConfig {
            refresh_stride: 1,
            ..HealthConfig::default()
        },
    );
    let mut ctl = EarlyStop::monitor(health);
    let mut stats = RunStats::default();

    // Warm-up: grows the engine's scratch buffers and puts enough samples
    // in the health ring that ESS (>= 4), split R-hat (>= 8), MCSE and all
    // three detectors run on every refresh.
    let observe = |engine: &mut GibbsEngine<_, _, _>,
                   ctl: &mut EarlyStop,
                   app: &mut coopmc_models::mrf::MrfApp,
                   stats: &mut RunStats| {
        let (u0, f0, fb0) = (stats.updates, stats.flips, stats.uniform_fallbacks);
        engine.sweep(&mut app.mrf, stats);
        ctl.observe_sweep(
            engine.journal_iteration(),
            stats.updates - u0,
            stats.flips - f0,
            stats.uniform_fallbacks - fb0,
            Some(app.mrf.energy()),
        );
    };
    for _ in 0..16 {
        observe(&mut engine, &mut ctl, &mut app, &mut stats);
    }
    assert!(
        ctl.health().record().ess.is_some() && ctl.health().record().rhat.is_some(),
        "estimators must be live before the measurement window"
    );

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    observe(&mut engine, &mut ctl, &mut app, &mut stats);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm health-monitored sweep must not touch the heap \
         ({allocs} allocations observed)"
    );
    assert_eq!(stats.iterations, 17);
    assert_eq!(ctl.health().record().iteration, 17);
}
