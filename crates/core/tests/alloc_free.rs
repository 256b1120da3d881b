//! The zero-allocation guarantee of the Gibbs hot path.
//!
//! A counting `#[global_allocator]` wrapper measures heap traffic during a
//! warm steady-state sweep of [`GibbsEngine`] with the fixed-point pipeline
//! and the tree sampler: after a warm-up run has grown every scratch buffer
//! (the engine's score rows, PG batch with the datapath's working memory,
//! and sampler buffers), a full sweep must allocate **nothing**. A warm
//! LDA-NIPS sweep through the CoopMC pipeline pins the count-row path
//! (count-indexed log words → LogFusion) too, as do warm 128-topic LDA
//! sweeps through every pipeline, and warm 64-label restoration sweeps pin
//! the log rows that the fixed-point and (boxed) CoopMC pipelines read in
//! place. Boxed, as the CLI builds them, the sequential, pipelined-tree and
//! alias samplers draw through the same scratch; the alias sampler keeps
//! its table there.
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
use coopmc_core::pipeline::{
    CoopMcPipeline, FixedPipeline, FloatPipeline, PipelineConfig, ProbabilityPipeline,
};
use coopmc_models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc_models::mrf::{image_restoration, image_segmentation};
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_models::GibbsModel;
use coopmc_obs::NoopRecorder;
use coopmc_rng::SplitMix64;
use coopmc_sampler::{AliasSampler, PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};

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

/// Heap allocations during one sweep of a sequential engine over a
/// 64-label restoration model, after a warm-up sweep.
fn warm_restoration_sweep_allocs(pipeline: impl ProbabilityPipeline, sampler: impl Sampler) -> u64 {
    let mut app = image_restoration(32, 24, 5);
    let mut engine = GibbsEngine::new(pipeline, sampler, SplitMix64::new(7));
    let mut stats = RunStats::default();
    engine.sweep(&mut app.mrf, &mut stats);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.sweep(&mut app.mrf, &mut stats);
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(stats.updates, 2 * 32 * 24);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warm_steady_state_sweep_allocates_nothing() {
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::new(
        FixedPipeline::new(8, true),
        TreeSampler::new(),
        SplitMix64::new(7),
    );
    let mut stats = RunStats::default();

    // Warm-up: grows the engine's score/PG/sampler buffers to this model's
    // label count.
    engine.sweep(&mut app.mrf, &mut stats);
    engine.sweep(&mut app.mrf, &mut stats);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.sweep(&mut app.mrf, &mut stats);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm Gibbs sweep must not touch the heap ({allocs} allocations observed)"
    );
    assert_eq!(stats.iterations, 3);
    assert_eq!(stats.updates, 3 * 32 * 32);

    // Same guarantee with the observability hooks compiled in but disabled:
    // an engine built explicitly with `NoopRecorder` must monomorphize the
    // instrumentation away entirely. (Sequential measurement in the same
    // test — the counter is process-global; see the module docs.)
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::with_recorder(
        FixedPipeline::new(8, true),
        TreeSampler::new(),
        SplitMix64::new(7),
        NoopRecorder,
    );
    let mut stats = RunStats::default();
    engine.sweep(&mut app.mrf, &mut stats);
    engine.sweep(&mut app.mrf, &mut stats);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.sweep(&mut app.mrf, &mut stats);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm instrumented-but-disabled sweep must not touch the heap \
         ({allocs} allocations observed)"
    );

    // The count-row path: every LDA score row is `(DT+α)(VT+β)/(ΣVT+βV)`,
    // gathered as counts whose log words the CoopMC pipeline reads from
    // its count tables.
    let nips = all_workloads()
        .into_iter()
        .find(|w| w.name == "LDA-NIPS")
        .expect("LDA-NIPS is registered");
    let BuiltWorkload::Lda(mut lda) = nips.build_scaled(1.0, 2022) else {
        panic!("LDA-NIPS builds an LDA model");
    };
    let mut engine = GibbsEngine::new(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        SplitMix64::new(2022),
    );
    let mut stats = RunStats::default();
    engine.sweep(&mut lda, &mut stats);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    engine.sweep(&mut lda, &mut stats);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "a warm LDA sweep through the CoopMC count path must not touch the heap \
         ({allocs} allocations observed)"
    );
    assert_eq!(stats.updates, 2 * lda.num_variables() as u64);

    // 128-topic count rows, Table I's label count, through every datapath
    // that reads them: CoopMC on bus words, with float log reads and the
    // f64 finish, and with float log reads and the word finish; and the
    // count rows' f64 image in the fixed-point and float pipelines.
    let corpus = synthetic_corpus(&CorpusSpec {
        n_docs: 60,
        n_vocab: 256,
        n_topics: 128,
        doc_len: 80,
        topics_per_doc: 3,
        seed: 2022,
    });
    let pipelines: [Box<dyn ProbabilityPipeline>; 5] = [
        Box::new(CoopMcPipeline::new(64, 8)),
        Box::new(CoopMcPipeline::new(100, 8)),
        Box::new(CoopMcPipeline::new(64, 20)),
        Box::new(FixedPipeline::new(8, true)),
        Box::new(FloatPipeline::new()),
    ];
    for pipeline in pipelines {
        let name = pipeline.name();
        let mut lda = Lda::new(&corpus, 128, 50.0 / 128.0, 0.01);
        lda.randomize_topics(2022);
        let mut engine = GibbsEngine::new(pipeline, TreeSampler::new(), SplitMix64::new(2022));
        let mut stats = RunStats::default();
        engine.sweep(&mut lda, &mut stats);

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        engine.sweep(&mut lda, &mut stats);
        ARMED.store(false, Ordering::SeqCst);

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs, 0,
            "a warm 128-topic LDA sweep through {name} must not touch the heap \
             ({allocs} allocations observed)"
        );
    }

    // 64-label log-domain rows, gathered into a stride that PG reads in
    // place.
    let allocs = warm_restoration_sweep_allocs(FixedPipeline::new(8, true), TreeSampler::new());
    assert_eq!(
        allocs, 0,
        "a warm restoration sweep through fixed8+dynorm must not touch the heap \
         ({allocs} allocations observed)"
    );
    let allocs =
        warm_restoration_sweep_allocs(PipelineConfig::coopmc(64, 8).build(), TreeSampler::new());
    assert_eq!(
        allocs, 0,
        "a warm restoration sweep through the boxed CoopMC pipeline must not touch \
         the heap ({allocs} allocations observed)"
    );

    // The other samplers draw through the same scratch.
    let samplers: [Box<dyn Sampler>; 3] = [
        Box::new(SequentialSampler::new()),
        Box::new(PipeTreeSampler::new()),
        Box::new(AliasSampler::new()),
    ];
    for sampler in samplers {
        let name = sampler.name();
        let allocs = warm_restoration_sweep_allocs(CoopMcPipeline::new(64, 8), sampler);
        assert_eq!(
            allocs, 0,
            "a warm restoration sweep through the {name} sampler must not touch the heap \
             ({allocs} allocations observed)"
        );
    }
}
