//! The CoopMC inference core: Probability Generation pipelines and the
//! generic Gibbs engine.
//!
//! This crate assembles the substrates into the paper's three-step flow
//! (Fig. 1):
//!
//! 1. **PG** — a [`pipeline::ProbabilityPipeline`] turns the score rows a
//!    model gathers into a [`coopmc_models::ScoreRows`] stride (log-domain
//!    or factor rows) into unnormalized probabilities, reading them in
//!    place. Variants: float reference, plain fixed point (the "without
//!    DyNorm" baseline of Fig. 2/10), and the full CoopMC datapath
//!    (DyNorm + TableExp + LogFusion).
//! 2. **SD** — any [`coopmc_sampler::Sampler`] draws the new label.
//! 3. **PU** — the model commits the label.
//!
//! The [`engine::GibbsEngine`] drives any [`coopmc_models::GibbsModel`]
//! through these steps, and the [`parallel::ChromaticEngine`] does so one
//! color class at a time over a worker pool. Both report to a
//! [`coopmc_obs::Recorder`], their only instrumentation seam: a journaling
//! recorder receives the Table II PG/SD/PU wall times, the default
//! `NoopRecorder` reads no clock. [`experiments`] holds the
//! convergence-measurement helpers shared by the examples and the
//! table/figure benches, and [`anneal`] the MAP drivers (ICM and annealed
//! Gibbs) over the same pipelines.
//!
//! # Quickstart
//!
//! ```
//! use coopmc_core::engine::GibbsEngine;
//! use coopmc_core::pipeline::PipelineConfig;
//! use coopmc_models::mrf::image_segmentation;
//! use coopmc_rng::SplitMix64;
//! use coopmc_sampler::TreeSampler;
//!
//! let mut app = image_segmentation(16, 16, 7);
//! let pipeline = PipelineConfig::coopmc(64, 8).build();
//! let mut engine = GibbsEngine::new(pipeline, TreeSampler::new(), SplitMix64::new(1));
//! let stats = engine.run(&mut app.mrf, 5);
//! assert_eq!(stats.iterations, 5);
//! ```

// `deny` rather than `forbid`: the worker pool (`pool`) contains one
// documented, locally-allowed unsafe block erasing a task's lifetime.

pub mod anneal;
pub mod engine;
pub mod experiments;
pub mod parallel;
pub mod pipeline;
pub mod pool;
