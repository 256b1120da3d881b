//! End-to-end contracts of the kernel-level span profiler.
//!
//! Four claims, each load-bearing for the observability story:
//!
//! 1. **Golden chains.** With profiling off, the float, CoopMC and
//!    chromatic chains land on the exact label checksums recorded before
//!    the profiler existed — the instrumentation hooks cost nothing and
//!    change nothing when disabled. BN chromatic goldens (ASIA, and SURVEY
//!    with its 3- and 2-label nodes) and sequential factor-row goldens
//!    (LDA-NIPS, BN-ASIA and 128-topic LDA) pin the factor-row path
//!    through every pipeline, 64-label restoration and 8-connected stereo
//!    goldens pin the wide log-domain rows through every engine,
//!    `coopmc:64x52` goldens pin rows whose codes are too wide to sum
//!    exactly, and sampler goldens pin the sequential, pipelined-tree and
//!    alias samplers' draws.
//! 2. **Chain invisibility.** With profiling *on*, the chains are
//!    bit-identical to the profile-off chains.
//! 3. **Flamegraph accounting.** The collapsed-stack self times of a real
//!    profiled run sum to the measured wall time of the sweeps (within
//!    5%): no kernel time is double-counted or lost.
//! 4. **Divergence ledger.** The modeled-vs-measured ledger reconciles a
//!    real run at the CLI's shipping tolerance and still *fails* at an
//!    absurdly tight one — the gate is live, not decorative.

use std::time::Instant;

use coopmc::core::engine::{GibbsEngine, RunStats};
use coopmc::core::parallel::{hogwild_mrf_sweeps, ChromaticEngine};
use coopmc::core::pipeline::{CoopMcPipeline, FixedPipeline, FloatPipeline, ProbabilityPipeline};
use coopmc::hw::reconcile::divergence_ledger;
use coopmc::models::bn::{asia, survey};
use coopmc::models::lda::{synthetic_corpus, CorpusSpec, Lda};
use coopmc::models::mrf::{image_restoration, image_segmentation, stereo_matching, Connectivity};
use coopmc::models::workloads::{all_workloads, BuiltWorkload};
use coopmc::models::GibbsModel;
use coopmc::obs::{Kernel, NoopRecorder, SpanProfiler};
use coopmc::rng::SplitMix64;
use coopmc::sampler::{AliasSampler, PipeTreeSampler, Sampler, SequentialSampler, TreeSampler};

/// FNV-1a over the chain's final labels: the golden-checksum fingerprint.
fn label_checksum(labels: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        h ^= l as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Sequential chain labels for `pipeline`, optionally profiled.
fn seq_labels<P: coopmc::core::pipeline::ProbabilityPipeline>(
    pipeline: P,
    seed: u64,
    sweeps: u64,
    profiler: Option<&SpanProfiler>,
    dims: (usize, usize, u64),
) -> Vec<usize> {
    let mut app = image_segmentation(dims.0, dims.1, dims.2);
    let mut stats = RunStats::default();
    match profiler {
        Some(p) => {
            let mut engine =
                GibbsEngine::with_recorder(pipeline, TreeSampler::new(), SplitMix64::new(seed), p);
            for _ in 0..sweeps {
                engine.sweep(&mut app.mrf, &mut stats);
            }
        }
        None => {
            let mut engine = GibbsEngine::new(pipeline, TreeSampler::new(), SplitMix64::new(seed));
            for _ in 0..sweeps {
                engine.sweep(&mut app.mrf, &mut stats);
            }
        }
    }
    app.mrf.labels().to_vec()
}

/// Chromatic chain labels, optionally profiled.
fn chromatic_labels(profiler: Option<&SpanProfiler>) -> Vec<usize> {
    let mut app = image_segmentation(20, 16, 21);
    match profiler {
        Some(p) => {
            let engine = ChromaticEngine::with_recorder(
                CoopMcPipeline::new(64, 8),
                TreeSampler::new(),
                3,
                909,
                p,
            );
            for it in 0..6 {
                engine.sweep(&mut app.mrf, it);
            }
        }
        None => {
            let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), 3, 909);
            for it in 0..6 {
                engine.sweep(&mut app.mrf, it);
            }
        }
    }
    app.mrf.labels().to_vec()
}

#[test]
fn profile_off_chains_match_pre_profiler_goldens() {
    // Recorded on the commit immediately before the profiler landed; any
    // drift means the hooks are not free when disabled.
    let float = seq_labels(FloatPipeline::new(), 1, 3, None, (12, 12, 3));
    assert_eq!(
        label_checksum(&float),
        0xbfe7_fcc6_87a4_364f,
        "float chain drifted"
    );
    let coopmc = seq_labels(CoopMcPipeline::new(64, 8), 1, 3, None, (12, 12, 3));
    assert_eq!(
        label_checksum(&coopmc),
        0xe515_724a_477e_41fe,
        "coopmc chain drifted"
    );
    let chromatic = chromatic_labels(None);
    assert_eq!(
        label_checksum(&chromatic),
        0xe21b_a970_2601_ecbe,
        "chromatic chain drifted"
    );
}

#[test]
fn bn_chromatic_chain_matches_its_golden_at_every_thread_count() {
    // Factor-domain rows through the chromatic engine, recorded before the
    // engine sent them through its batch strides.
    for threads in 1..=3 {
        let mut net = asia();
        net.set_evidence(net.node_index("dysp").unwrap(), 0);
        let engine = ChromaticEngine::new(CoopMcPipeline::new(64, 8), threads, 909);
        // FNV-1a folded over every sweep's labels, so any drift mid-run shows.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for it in 0..200 {
            engine.sweep(&mut net, it);
            for l in net.labels() {
                h ^= l as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
        assert_eq!(
            h, 0x5cb0_2e46_e1a0_f44a,
            "BN chain drifted at {threads} threads"
        );
    }
}

/// FNV-1a folded over every sweep's labels of a sequential `pipeline` +
/// `sampler` chain.
fn seq_sweep_checksum(
    pipeline: impl ProbabilityPipeline,
    sampler: impl Sampler,
    model: &mut dyn GibbsModel,
    seed: u64,
    sweeps: u64,
) -> u64 {
    let mut engine = GibbsEngine::new(pipeline, sampler, SplitMix64::new(seed));
    let mut stats = RunStats::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..sweeps {
        engine.sweep(model, &mut stats);
        for l in model.labels() {
            h ^= l as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

#[test]
fn sequential_factor_row_chains_match_their_goldens() {
    // Every LDA and BN score row is a factor row: these chains run the
    // TableLog → LogFusion path end to end.
    assert_eq!(
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            &mut lda_nips(),
            2022,
            8
        ),
        0xd36d_b615_b7a8_b072,
        "LDA-NIPS sequential chain drifted"
    );
    assert_eq!(
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            &mut asia_dysp0(),
            909,
            2000
        ),
        0xae2a_4b69_7ab2_0389,
        "BN-ASIA sequential chain drifted"
    );
}

/// LDA-NIPS at CI scale.
fn lda_nips() -> Lda {
    let nips = all_workloads()
        .into_iter()
        .find(|w| w.name == "LDA-NIPS")
        .expect("LDA-NIPS is registered");
    let BuiltWorkload::Lda(lda) = nips.build_scaled(1.0, 2022) else {
        panic!("LDA-NIPS builds an LDA model");
    };
    lda
}

/// BN-ASIA with `dysp = 0`.
fn asia_dysp0() -> coopmc::models::bn::BayesNet {
    let mut net = asia();
    net.set_evidence(net.node_index("dysp").unwrap(), 0);
    net
}

#[test]
fn factor_row_chains_match_their_goldens_through_every_pipeline() {
    // Factor rows through the direct fixed-point datapath and the float
    // reference, sequentially; and SURVEY's 3- and 2-label factor rows
    // through the chromatic engine's strides, whose widths break between
    // nodes. Recorded before factor rows were gathered as flat strides.
    assert_eq!(
        seq_sweep_checksum(
            FixedPipeline::new(8, true),
            TreeSampler::new(),
            &mut lda_nips(),
            2022,
            8
        ),
        0xb727_d521_e588_6953,
        "LDA-NIPS fixed8+dynorm sequential chain drifted"
    );
    assert_eq!(
        seq_sweep_checksum(
            FloatPipeline::new(),
            TreeSampler::new(),
            &mut lda_nips(),
            2022,
            8
        ),
        0xe37a_de4a_5ffa_6759,
        "LDA-NIPS float sequential chain drifted"
    );
    assert_eq!(
        seq_sweep_checksum(
            FixedPipeline::new(8, true),
            TreeSampler::new(),
            &mut asia_dysp0(),
            909,
            2000
        ),
        0xccac_183a_9155_17d7,
        "BN-ASIA fixed8+dynorm sequential chain drifted"
    );
    assert_eq!(
        seq_sweep_checksum(
            FloatPipeline::new(),
            TreeSampler::new(),
            &mut asia_dysp0(),
            909,
            2000
        ),
        0x13ce_2d9e_9e30_10a9,
        "BN-ASIA float sequential chain drifted"
    );
    for threads in 1..=3 {
        assert_eq!(
            survey_chromatic_checksum(CoopMcPipeline::new(64, 8), threads),
            0x1274_b0d2_0c56_6204,
            "SURVEY coopmc chromatic chain drifted at {threads} threads"
        );
        assert_eq!(
            survey_chromatic_checksum(FixedPipeline::new(8, true), threads),
            0x661d_0944_0233_51a4,
            "SURVEY fixed8+dynorm chromatic chain drifted at {threads} threads"
        );
    }
}

/// A 128-topic LDA model, Table I's label count, over a corpus of LDA-NIPS's
/// CI-scale shape (60 documents of 80 tokens, 256 words) with 128 planted
/// topics.
fn lda_128_topics() -> Lda {
    let corpus = synthetic_corpus(&CorpusSpec {
        n_docs: 60,
        n_vocab: 256,
        n_topics: 128,
        doc_len: 80,
        topics_per_doc: 3,
        seed: 2022,
    });
    let mut lda = Lda::new(&corpus, 128, 50.0 / 128.0, 0.01);
    lda.randomize_topics(2022 ^ 0x1DA);
    lda
}

#[test]
fn wide_lda_chains_match_their_goldens_through_every_pipeline() {
    // 128-label factor rows through the sequential engine: CoopMC on bus
    // words (64x8), with float log reads and the f64 finish (100x8), and
    // with float log reads and the word finish (64x20); the direct
    // fixed-point datapath; and the float reference. Recorded before LDA
    // gathered its rows as counts.
    let cases: [(Box<dyn ProbabilityPipeline>, u64); 5] = [
        (Box::new(CoopMcPipeline::new(64, 8)), 0xcc2d_d4b8_3e12_bae9),
        (Box::new(CoopMcPipeline::new(100, 8)), 0x25fa_a7fd_43ca_a1b3),
        (Box::new(CoopMcPipeline::new(64, 20)), 0x8cd8_3448_71ef_4756),
        (Box::new(FixedPipeline::new(8, true)), 0x8268_5b00_a2b8_448b),
        (Box::new(FloatPipeline::new()), 0xb0c1_b299_3fd6_2103),
    ];
    for (pipeline, want) in cases {
        let name = pipeline.name();
        let got = seq_sweep_checksum(pipeline, TreeSampler::new(), &mut lda_128_topics(), 2022, 4);
        assert_eq!(got, want, "128-topic LDA {name} chain drifted");
    }
}

/// FNV-1a folded over every sweep's labels of a 300-sweep chromatic chain
/// on SURVEY with `residence = 1`.
fn survey_chromatic_checksum<P: ProbabilityPipeline>(pipeline: P, threads: usize) -> u64 {
    let mut net = survey();
    net.set_evidence(net.node_index("residence").unwrap(), 1);
    let engine = ChromaticEngine::new(pipeline, threads, 909);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for it in 0..300 {
        engine.sweep(&mut net, it);
        for l in net.labels() {
            h ^= l as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// FNV-1a folded over every sweep's labels of a chromatic chain on
/// `image_restoration(40, 26, 2022)`.
fn restore_chromatic_checksum<P: ProbabilityPipeline, S: Sampler + Sync>(
    pipeline: P,
    sampler: S,
    threads: usize,
    sweeps: u64,
) -> u64 {
    let mut mrf = image_restoration(40, 26, 2022).mrf;
    let engine = ChromaticEngine::with_recorder(pipeline, sampler, threads, 909, NoopRecorder);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for it in 0..sweeps {
        engine.sweep(&mut mrf, it);
        for l in mrf.labels() {
            h ^= l as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

#[test]
fn wide_mrf_chains_match_their_goldens() {
    // 64-label restoration (occlusion mask included) and 8-connected
    // 16-label stereo rows through every engine, recorded before the
    // engines gathered MRF rows as flat log-domain strides.
    for threads in 1..=3 {
        assert_eq!(
            restore_chromatic_checksum(CoopMcPipeline::new(64, 8), TreeSampler::new(), threads, 30),
            0x7514_12ee_a180_8c8b,
            "restoration chromatic chain drifted at {threads} threads"
        );
    }
    assert_eq!(
        restore_chromatic_checksum(FixedPipeline::new(8, true), TreeSampler::new(), 2, 10),
        0x453e_c039_43b0_cc93,
        "restoration fixed8+dynorm chromatic chain drifted"
    );
    assert_eq!(
        restore_chromatic_checksum(FloatPipeline::new(), TreeSampler::new(), 2, 10),
        0xe8d7_bbfb_7307_a3dc,
        "restoration float chromatic chain drifted"
    );

    let mut restore = image_restoration(40, 26, 2022).mrf;
    assert_eq!(
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            &mut restore,
            7,
            10
        ),
        0xb9ef_16ce_628a_e8a8,
        "restoration sequential chain drifted"
    );
    let mut stereo = stereo_matching(48, 32, 5)
        .mrf
        .with_connectivity(Connectivity::Eight);
    assert_eq!(
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 8),
            TreeSampler::new(),
            &mut stereo,
            7,
            10
        ),
        0x8a11_dd04_7826_0799,
        "8-connected stereo sequential chain drifted"
    );

    let mut hogwild = image_restoration(40, 26, 2022).mrf;
    hogwild_mrf_sweeps(&mut hogwild, &CoopMcPipeline::new(64, 8), 5, 1, 3);
    assert_eq!(
        label_checksum(&hogwild.labels()),
        0x2a8b_c4b1_77eb_f563,
        "restoration hogwild chain drifted"
    );
}

#[test]
fn restoration_chains_past_the_code_gate_match_their_goldens() {
    // `coopmc:64x52` reads its ROM on bus words, but a 64-label row of
    // 52-bit codes is too wide for exact code sums (52 + 6 > 53 bits), so
    // every draw takes the f64 path; so does a 16-label LDA count row.
    // Chromatic chains at every thread count, sequential restoration
    // chains through the tree and alias samplers, and LDA-NIPS.
    let golden = [
        0x3004_985c_1c53_dddd,
        0x3004_985c_1c53_dddd,
        0x3004_985c_1c53_dddd,
        0x1221_68c2_a1c6_b002,
        0x5bd8_1894_519c_a9ab,
        0xa83e_65ad_fc34_a37d,
    ];
    let got = [
        restore_chromatic_checksum(CoopMcPipeline::new(64, 52), TreeSampler::new(), 1, 10),
        restore_chromatic_checksum(CoopMcPipeline::new(64, 52), TreeSampler::new(), 2, 10),
        restore_chromatic_checksum(CoopMcPipeline::new(64, 52), TreeSampler::new(), 3, 10),
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 52),
            TreeSampler::new(),
            &mut image_restoration(40, 26, 2022).mrf,
            7,
            10,
        ),
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 52),
            AliasSampler::new(),
            &mut image_restoration(40, 26, 2022).mrf,
            7,
            10,
        ),
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 52),
            TreeSampler::new(),
            &mut lda_nips(),
            2022,
            8,
        ),
    ];
    assert_eq!(got, golden, "coopmc:64x52 restoration chains drifted");
}

/// The chains a sampler golden pins: a sequential 64-label restoration
/// chain, a sequential BN-ASIA chain and a 2-thread chromatic restoration
/// chain.
fn sampler_checksums<S: Sampler + Sync + Copy>(sampler: S) -> [u64; 3] {
    let mut restore = image_restoration(40, 26, 2022).mrf;
    [
        seq_sweep_checksum(CoopMcPipeline::new(64, 8), sampler, &mut restore, 7, 10),
        seq_sweep_checksum(
            CoopMcPipeline::new(64, 8),
            sampler,
            &mut asia_dysp0(),
            909,
            2000,
        ),
        restore_chromatic_checksum(CoopMcPipeline::new(64, 8), sampler, 2, 10),
    ]
}

#[test]
fn every_sampler_chain_matches_its_golden() {
    // Recorded while each sampler still wrote out its own draw. On these
    // chains the sequential scan and the pipelined tree select the label
    // TreeSampler selects for every threshold, so their sequential pins
    // equal the TreeSampler goldens above.
    assert_eq!(
        sampler_checksums(SequentialSampler::new()),
        [
            0xb9ef_16ce_628a_e8a8,
            0xae2a_4b69_7ab2_0389,
            0x387f_4796_97b3_6c5c
        ],
        "sequential-sampler chains drifted"
    );
    assert_eq!(
        sampler_checksums(PipeTreeSampler::new()),
        [
            0xb9ef_16ce_628a_e8a8,
            0xae2a_4b69_7ab2_0389,
            0x387f_4796_97b3_6c5c
        ],
        "pipelined-tree chains drifted"
    );
    assert_eq!(
        sampler_checksums(AliasSampler::new()),
        [
            0x8683_c1fd_6016_4992,
            0x24fa_7b21_02f9_4177,
            0xa924_60b1_3142_518d
        ],
        "alias-sampler chains drifted"
    );
}

#[test]
fn profile_on_chains_are_bit_identical_to_profile_off() {
    let p = SpanProfiler::new(1);
    let on = seq_labels(CoopMcPipeline::new(64, 8), 1, 3, Some(&p), (12, 12, 3));
    let off = seq_labels(CoopMcPipeline::new(64, 8), 1, 3, None, (12, 12, 3));
    assert_eq!(on, off, "sequential profiling must be chain-invisible");
    assert!(p.kernel_reports().iter().any(|r| r.kernel == Kernel::Sweep));

    let p = SpanProfiler::new(4);
    let on = chromatic_labels(Some(&p));
    let off = chromatic_labels(None);
    assert_eq!(on, off, "chromatic profiling must be chain-invisible");
}

#[test]
fn flamegraph_self_times_sum_to_measured_wall_within_5_percent() {
    let profiler = SpanProfiler::new(1);
    let mut app = image_segmentation(48, 48, 21);
    let mut engine = GibbsEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        SplitMix64::new(5),
        &profiler,
    );
    let mut stats = RunStats::default();
    // Every span the engine opens lives inside a sweep, so walling the
    // whole sweep loop leaves only the loop's own bookkeeping unspanned.
    let start = Instant::now();
    for _ in 0..7 {
        engine.sweep(&mut app.mrf, &mut stats);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;

    // Collapsed-stack lines are "<stack> <self_ns>"; summing every line's
    // self time reconstructs the inclusive root total.
    let flame_ns: f64 = profiler
        .flamegraph()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("malformed flamegraph line: {l}"))
        })
        .sum();
    let rel = (flame_ns - wall_ns).abs() / wall_ns;
    assert!(
        rel < 0.05,
        "flamegraph self-times ({flame_ns:.0} ns) diverge {:.1}% from the \
         measured wall ({wall_ns:.0} ns)",
        rel * 100.0
    );
}

#[test]
fn divergence_ledger_reconciles_a_real_run_and_the_gate_is_live() {
    let profiler = SpanProfiler::new(1);
    let mut app = image_segmentation(32, 32, 21);
    let mut engine = GibbsEngine::with_recorder(
        CoopMcPipeline::new(64, 8),
        TreeSampler::new(),
        SplitMix64::new(9),
        &profiler,
    );
    let mut stats = RunStats::default();
    for _ in 0..5 {
        engine.sweep(&mut app.mrf, &mut stats);
    }
    let reports = profiler.kernel_reports();

    // The CLI's shipping tolerance must reconcile every gated kernel.
    let ledger = divergence_ledger(&reports, 0.5).expect("ledger must build from a real run");
    ledger
        .check()
        .expect("a real run must reconcile at the shipping tolerance");
    assert!(ledger.report().contains("[not gated]"));

    // And the gate actually fires: no real measurement aligns to 1e-9.
    let tight = divergence_ledger(&reports, 1e-9).expect("ledger must build");
    assert!(
        tight.check().is_err(),
        "an absurdly tight tolerance must fail — otherwise the gate is decorative"
    );
}
