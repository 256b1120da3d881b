//! The zero-allocation guarantee of the batched PG datapath.
//!
//! Same counting-allocator technique as `alloc_free.rs`, aimed at the
//! batched PG path through the `LabelScore` entry point: once a
//! warm-up call has grown the caller-owned `PgBatch` buffers (the converted
//! rows and the datapath's working memory among them) to the stride's
//! shape, every further `generate_batch_into` + `sample_rows_into` stride,
//! drawn from the batch's ROM codes as the engines draw, must allocate
//! **nothing**.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrently running sibling test would pollute
//! the measurement window.

// The counting allocator must implement the unsafe `GlobalAlloc` trait;
// every unsafe block merely forwards to `System`.
#![allow(unsafe_code)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use coopmc_core::pipeline::{CoopMcPipeline, PgBatch, ProbabilityPipeline};
use coopmc_models::LabelScore;
use coopmc_rng::SplitMix64;
use coopmc_sampler::{SampleResult, SampleScratch, Sampler, TreeSampler};

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
fn warm_batch_strides_allocate_nothing() {
    let pipeline = CoopMcPipeline::new(64, 8);
    let sampler = TreeSampler::new();
    let width = 4;
    let rows = 8;
    let scores: Vec<LabelScore> = (0..rows * width)
        .map(|i| LabelScore::LogDomain(-((i % 7) as f64) - 0.25))
        .collect();
    let mut batch = PgBatch::new();
    let mut draws: Vec<SampleResult> = Vec::new();
    let mut sd = SampleScratch::new();

    // Warm-up: grows the batch buffers and the draw vector to this shape
    // (a code-row draw uses no sampler scratch).
    for _ in 0..2 {
        pipeline.generate_batch_into(&scores, width, &mut batch);
        sampler.sample_rows_into(
            batch.weights(),
            width,
            |row| SplitMix64::new(0xBA7C4 ^ row as u64),
            &mut draws,
            &mut sd,
        );
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        pipeline.generate_batch_into(&scores, width, &mut batch);
        sampler.sample_rows_into(
            batch.weights(),
            width,
            |row| SplitMix64::new(0xBA7C4 ^ row as u64),
            &mut draws,
            &mut sd,
        );
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm batch stride must not touch the heap ({allocs} allocations observed)"
    );
    assert_eq!(batch.rows(width), rows);
    assert_eq!(draws.len(), rows);
}
