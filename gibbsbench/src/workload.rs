//! The three workloads: what each builds from the seed, and the engine it
//! runs through. See the package README for why these three.

use coopmc_core::engine::GibbsEngine;
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{CoopMcPipeline, PipelineConfig, ProbabilityPipeline};
use coopmc_models::lda::Lda;
use coopmc_models::mrf::MrfApp;
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_models::GibbsModel;
use coopmc_rng::SplitMix64;
use coopmc_sampler::{Sampler, TreeSampler};

/// LUT size of the CLI-default datapath (`coopmc:64x8`).
pub const LUT_SIZE: usize = 64;
/// LUT bits of the CLI-default datapath.
pub const LUT_BITS: u32 = 8;
/// Worker threads of restore-chromatic.
pub const THREADS: usize = 2;
/// Fewest timed sweeps a run makes, whatever `--seconds` says.
pub const MIN_SWEEPS: u64 = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MRF-Image Segmentation at Table I size through `GibbsEngine`.
    SegSeq,
    /// LDA-NIPS at 2× CI scale through `GibbsEngine` with a boxed sampler.
    LdaSeq,
    /// MRF-Image Restoration at Table I size through `ChromaticEngine`.
    RestoreChromatic,
}

/// Every workload, in the order the README lists them.
pub const ALL: [Workload; 3] = [
    Workload::SegSeq,
    Workload::LdaSeq,
    Workload::RestoreChromatic,
];

/// A workload instance built from a seed.
#[derive(Debug, Clone)]
pub enum Instance {
    /// A grid MRF with its clean field.
    Mrf(MrfApp),
    /// An LDA model over a synthetic corpus.
    Lda(Lda),
}

impl Instance {
    /// The chain statistic, oriented so that lower is better: MRF energy,
    /// or the negated LDA log-likelihood.
    pub fn objective(&self) -> f64 {
        match self {
            Instance::Mrf(app) => app.mrf.energy(),
            Instance::Lda(lda) => -lda.log_likelihood(),
        }
    }

    /// The model as the sequential engine sees it.
    pub fn model(&mut self) -> &mut dyn GibbsModel {
        match self {
            Instance::Mrf(app) => &mut app.mrf,
            Instance::Lda(lda) => lda,
        }
    }

    /// The MRF application, for the chromatic paths.
    ///
    /// # Panics
    ///
    /// Panics on an LDA instance.
    pub fn mrf(&mut self) -> &mut MrfApp {
        match self {
            Instance::Mrf(app) => app,
            Instance::Lda(_) => panic!("chromatic paths run MRF workloads only"),
        }
    }

    /// Snapshot of every label.
    pub fn labels(&self) -> Vec<usize> {
        match self {
            Instance::Mrf(app) => app.mrf.labels(),
            Instance::Lda(lda) => lda.labels(),
        }
    }
}

impl Workload {
    /// Look a workload up by its benchmark name.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SegSeq => "seg-seq",
            Workload::LdaSeq => "lda-seq",
            Workload::RestoreChromatic => "restore-chromatic",
        }
    }

    /// Registry entry and scale relative to its CI size.
    fn registry(self) -> (&'static str, f64) {
        match self {
            // 50×30 × √100 = 500×300 = 150,000 variables (Table I).
            Workload::SegSeq => ("MRF-Image Segmentation", 100.0),
            // 120 documents of 80 tokens = 9,600 tokens, 16 topics.
            Workload::LdaSeq => ("LDA-NIPS", 2.0),
            // 40×26 × √6.4 = 101×66 = 6,666 variables (Table I: 6,656).
            Workload::RestoreChromatic => ("MRF-Image Restoration", 6.4),
        }
    }

    /// Timed sweeps per second of `--seconds`: the rate each workload ran
    /// at on the reference host (2 vCPUs), so a run measures about
    /// `--seconds` there. The budget depends only on the arguments, so
    /// two commits always run the same chain for the same work.
    fn sweeps_per_second(self) -> f64 {
        match self {
            Workload::SegSeq => 12.0,
            Workload::LdaSeq => 15.0,
            Workload::RestoreChromatic => 50.0,
        }
    }

    /// The fixed sweep budget of a `seconds`-long run.
    pub fn budget(self, seconds: u64) -> u64 {
        ((self.sweeps_per_second() * seconds as f64).round() as u64).max(MIN_SWEEPS)
    }

    /// Build the workload from `seed`, as `coopmc run` builds its data.
    pub fn build(self, seed: u64) -> Instance {
        let (name, scale) = self.registry();
        let spec = all_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .expect("registry workload");
        match spec.build_scaled(scale, seed) {
            BuiltWorkload::Mrf(app) => Instance::Mrf(app),
            BuiltWorkload::Lda(lda) => Instance::Lda(lda),
            BuiltWorkload::Bn(_) => unreachable!("no BN workload is benchmarked"),
        }
    }
}

/// The CLI-default datapath, boxed as `PipelineConfig::build` returns it.
pub fn cli_pipeline() -> Box<dyn ProbabilityPipeline> {
    PipelineConfig::coopmc(LUT_SIZE, LUT_BITS).build()
}

/// A sequential workload's engine: the CLI-default datapath, `sampler`
/// and a `SplitMix64` seeded with the workload seed, as `coopmc run`
/// builds it.
pub fn seq_engine<S: Sampler>(
    sampler: S,
    seed: u64,
) -> GibbsEngine<Box<dyn ProbabilityPipeline>, S, SplitMix64> {
    GibbsEngine::new(cli_pipeline(), sampler, SplitMix64::new(seed))
}

/// The boxed `TreeSampler` lda-seq draws with, as the CLI's `--sampler`
/// switch builds it; seg-seq uses an unboxed `TreeSampler`.
pub fn lda_sampler() -> Box<dyn Sampler> {
    Box::new(TreeSampler::new())
}

/// restore-chromatic's engine at `threads` worker threads.
pub fn chromatic_engine(seed: u64, threads: usize) -> ChromaticEngine<CoopMcPipeline> {
    ChromaticEngine::new(CoopMcPipeline::new(LUT_SIZE, LUT_BITS), threads, seed)
}
