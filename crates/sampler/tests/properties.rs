//! Property-based tests: the three sampler micro-architectures are
//! statistically identical implementations of CDF-inversion sampling
//! (deterministic generator harness from `coopmc-testkit`).

use coopmc_rng::{HwRng, SplitMix64};
use coopmc_sampler::{
    AliasSampler, PipeTreeSampler, SampleScratch, Sampler, SequentialSampler, TreeSampler, TreeSum,
    Weights,
};
use coopmc_testkit::{check, Gen};

fn arb_probs(g: &mut Gen) -> Vec<f64> {
    loop {
        let v = g.vec_f64(1, 130, 0.0, 10.0);
        if v.iter().sum::<f64>() > 0.0 {
            return v;
        }
    }
}

#[test]
fn tree_equals_sequential() {
    check("tree_equals_sequential", 256, |g| {
        let probs = arb_probs(g);
        let total: f64 = probs.iter().sum();
        let t = g.f64_in(0.0, 0.9999) * total;
        let seq = SequentialSampler::new()
            .sample_with_threshold(&probs, t)
            .label;
        let tree = TreeSampler::new().sample_with_threshold(&probs, t).label;
        let pipe = PipeTreeSampler::new()
            .sample_with_threshold(&probs, t)
            .label;
        assert_eq!(seq, tree);
        assert_eq!(seq, pipe);
    });
}

#[test]
fn selected_label_has_mass() {
    check("selected_label_has_mass", 256, |g| {
        let probs = arb_probs(g);
        let mut rng = SplitMix64::new(g.u64());
        for s in [
            &TreeSampler::new() as &dyn Sampler,
            &SequentialSampler::new(),
        ] {
            let l = s.sample(&probs, &mut rng).label;
            assert!(probs[l] > 0.0, "label {l} has zero weight");
        }
    });
}

/// Rows ending in zero weights, at the threshold one ulp below the serial
/// total, where the tree's own sums can fall short of it and the walk can
/// run into the zeros: the tree samplers pick the sequential scan's label,
/// which has mass.
#[test]
fn trailing_zero_weights_are_not_selected_one_ulp_below_the_total() {
    check(
        "trailing_zero_weights_are_not_selected_one_ulp_below_the_total",
        256,
        |g| {
            let mut probs = arb_probs(g);
            let zeros = g.usize_in(1, 4);
            probs.extend(std::iter::repeat_n(0.0, zeros));
            let t = probs.iter().sum::<f64>().next_down();
            let seq = SequentialSampler::new()
                .sample_with_threshold(&probs, t)
                .label;
            assert!(probs[seq] > 0.0, "label {seq} has zero weight");
            let tree = TreeSampler::new().sample_with_threshold(&probs, t).label;
            let pipe = PipeTreeSampler::new()
                .sample_with_threshold(&probs, t)
                .label;
            assert_eq!((tree, pipe), (seq, seq), "{} labels, t = {t}", probs.len());
        },
    );
}

#[test]
fn tree_sum_is_consistent() {
    check("tree_sum_is_consistent", 256, |g| {
        let probs = arb_probs(g);
        let tree = TreeSum::build(&probs);
        let total: f64 = probs.iter().sum();
        assert!((tree.total() - total).abs() < 1e-9 * total.max(1.0));
        for level in 1..=tree.depth() {
            let width = tree.leaf_count() >> level;
            for i in 0..width {
                let parent = tree.node(level, i);
                let kids = tree.node(level - 1, 2 * i) + tree.node(level - 1, 2 * i + 1);
                assert!((parent - kids).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn latency_laws() {
    check("latency_laws", 256, |g| {
        let n = g.usize_in(2, 4096);
        let seq = SequentialSampler::new();
        let tree = TreeSampler::new();
        assert_eq!(seq.latency_cycles(n), 2 * n as u64 + 1);
        let depth = n.next_power_of_two().trailing_zeros() as u64;
        assert_eq!(tree.latency_cycles(n), 2 * depth + 3);
        assert!(tree.latency_cycles(n) <= seq.latency_cycles(n));
    });
}

#[test]
fn alias_table_encodes_exactly() {
    check("alias_table_encodes_exactly", 128, |g| {
        let probs = {
            let v = g.vec_f64(2, 64, 0.0, 10.0);
            if v.iter().sum::<f64>() <= 1e-6 {
                return;
            }
            v
        };
        let table = coopmc_sampler::AliasTable::build(&probs);
        let total: f64 = probs.iter().sum();
        let encoded = table.encoded_distribution();
        for (p, e) in probs.iter().zip(&encoded) {
            assert!((p / total - e).abs() < 1e-9, "want {} got {e}", p / total);
        }
    });
}

#[test]
fn threshold_segment_consistency() {
    check("threshold_segment_consistency", 256, |g| {
        let probs = g.vec_f64(2, 40, 0.01, 5.0);
        let i = g.index(probs.len());
        let frac = g.f64_in(0.0, 0.999);
        let before: f64 = probs[..i].iter().sum();
        let t = before + probs[i] * frac;
        let got = TreeSampler::new().sample_with_threshold(&probs, t).label;
        assert_eq!(got, i);
    });
}

/// `sample_into` (the scratch-reusing hot-path API) draws exactly the same
/// label stream as the allocating `sample` under identical RNG state.
#[test]
fn sample_into_matches_sample() {
    check("sample_into_matches_sample", 128, |g| {
        let probs = arb_probs(g);
        let seed = g.u64();
        let mut scratch = SampleScratch::new();
        let samplers: [Box<dyn Sampler>; 3] = [
            Box::new(TreeSampler::new()),
            Box::new(SequentialSampler::new()),
            Box::new(PipeTreeSampler::new()),
        ];
        for s in &samplers {
            let mut rng_a = SplitMix64::new(seed);
            let mut rng_b = SplitMix64::new(seed);
            for _ in 0..16 {
                let plain = s.sample(&probs, &mut rng_a);
                let scratched = s.sample_into(&probs, &mut rng_b, &mut scratch);
                assert_eq!(plain, scratched, "{} diverged", s.name());
            }
        }
    });
}

/// A deterministic empirical check that the tree sampler's draws follow the
/// distribution (Kolmogorov–Smirnov-style max deviation on the CDF).
#[test]
fn empirical_cdf_deviation_small() {
    let probs: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    let total: f64 = probs.iter().sum();
    let mut rng = SplitMix64::new(2024);
    let sampler = TreeSampler::new();
    let draws = 60_000;
    let mut counts = vec![0u64; probs.len()];
    for _ in 0..draws {
        counts[sampler.sample(&probs, &mut rng).label] += 1;
    }
    let mut cdf_err: f64 = 0.0;
    let mut emp = 0.0;
    let mut exact = 0.0;
    for (c, p) in counts.iter().zip(&probs) {
        emp += *c as f64 / draws as f64;
        exact += p / total;
        cdf_err = cdf_err.max((emp - exact).abs());
    }
    assert!(cdf_err < 0.01, "max CDF deviation {cdf_err}");
}

/// Every sampler micro-architecture, boxed.
fn all_samplers() -> [Box<dyn Sampler>; 4] {
    [
        Box::new(SequentialSampler::new()),
        Box::new(TreeSampler::new()),
        Box::new(PipeTreeSampler::new()),
        Box::new(AliasSampler::new()),
    ]
}

/// Fraction bits of the code rows below: the ROM word widths from 0 to
/// the widest `bit_lut`.
const CODE_BITS: [u32; 7] = [0, 1, 8, 16, 24, 46, 52];

/// `2^-bits` as an exact `f64`.
fn ulp(bits: u32) -> f64 {
    1.0 / (1u64 << bits) as f64
}

/// Whether `width` codes of `bits` fraction bits sum exactly: `bits +
/// ⌈log₂ width⌉ ≤ 53`.
fn sums_exactly(width: usize, bits: u32) -> bool {
    bits + width.next_power_of_two().trailing_zeros() <= 53
}

/// A width of up to 130 labels for `bits`-bit codes. Now and then it is
/// one label, the widest row whose sums stay exact (up to 130 labels: 128
/// at 46 fraction bits, 2 at 52, where the sums reach 2^53), or the
/// narrowest row whose sums need 54 bits (at 46 and 52 fraction bits, the
/// only ones where it fits in 130 labels).
fn code_width(g: &mut Gen, bits: u32) -> usize {
    let widest_exact = (1usize << (53 - bits).min(8)).min(130);
    match g.index(6) {
        0 => 1,
        1 => widest_exact,
        2 if widest_exact < 130 => widest_exact + 1,
        _ => g.usize_in(1, 131),
    }
}

/// `n` ROM-style codes at `bits` fraction bits, each in `[0, 2^bits]`:
/// zero-weight labels and full-scale codes among random ones, and now and
/// then an all-zero row.
fn arb_codes(g: &mut Gen, n: usize, bits: u32) -> Vec<u64> {
    let one = 1u64 << bits;
    let all_zero = g.index(8) == 0;
    (0..n)
        .map(|_| match g.index(5) {
            _ if all_zero => 0,
            0 => 0,
            1 => one,
            2 => one.saturating_sub(1),
            _ => g.u64() % (one + 1),
        })
        .collect()
}

/// Each `width`-code row's sum: the totals PG hands SD.
fn row_totals(codes: &[u64], width: usize) -> Vec<u64> {
    codes.chunks(width).map(|row| row.iter().sum()).collect()
}

/// The codes' exact `f64` image.
fn image(codes: &[u64], bits: u32) -> Vec<f64> {
    codes.iter().map(|&c| c as f64 * ulp(bits)).collect()
}

/// A batch of code rows with their totals draws, row for row, what its
/// exact `f64` image draws, at every width up to 130 labels, rows past
/// the exact-sum gate included: the same `SampleResult` from the same RNG
/// state, for every sampler, and the RNG left in the same state (the
/// all-zero fallback included).
#[test]
fn code_rows_draw_what_their_f64_image_draws() {
    check("code_rows_draw_what_their_f64_image_draws", 64, |g| {
        let mut scratch = SampleScratch::new();
        for bits in CODE_BITS {
            let (width, rows) = (code_width(g, bits), g.usize_in(1, 4));
            let codes = arb_codes(g, width * rows, bits);
            let totals = row_totals(&codes, width);
            let probs = image(&codes, bits);
            let batch = Weights::from_codes(&codes, &totals, bits);
            let exact = sums_exactly(width, bits);
            assert!(batch.rows(width).all(|row| row.codes().is_some() == exact));
            let seed = g.u64();
            let rng_for = |row: usize| SplitMix64::new(seed ^ row as u64);
            for s in &all_samplers() {
                let at = format!("{} at {bits} bits, {rows}x{width}", s.name());
                let mut coded = Vec::new();
                s.sample_rows_into(batch, width, rng_for, &mut coded, &mut scratch);
                for (row, want_probs) in probs.chunks_exact(width).enumerate() {
                    let (mut a, mut b) = (rng_for(row), rng_for(row));
                    let weights = batch.rows(width).nth(row).expect("a row");
                    for draw in 0..6 {
                        let got = s.sample_into(weights, &mut a, &mut scratch);
                        let want = s.sample_into(want_probs, &mut b, &mut scratch);
                        assert_eq!(got, want, "{at}, row {row}, draw {draw}");
                        if draw == 0 {
                            assert_eq!(coded[row], want, "{at}, batched row {row}");
                        }
                    }
                    assert_eq!(a.next_u64(), b.next_u64(), "{at}: RNG state");
                }
            }
        }
    });
}

/// At thresholds on every prefix sum (each a left-subtree sum on the walk
/// to its label), one code unit and half a unit below them and at random
/// points, a code row with its total selects what its exact `f64` image
/// selects, at every width up to 130 labels.
#[test]
fn code_rows_select_what_their_f64_image_selects_at_subtree_sums() {
    check(
        "code_rows_select_what_their_f64_image_selects_at_subtree_sums",
        64,
        |g| {
            for bits in CODE_BITS {
                let width = code_width(g, bits);
                let codes = arb_codes(g, width, bits);
                let total: u64 = codes.iter().sum();
                if total == 0 {
                    continue;
                }
                let probs = image(&codes, bits);
                let totals = [total];
                let weights = Weights::from_codes(&codes, &totals, bits);
                let mut thresholds: Vec<f64> = codes
                    .iter()
                    .scan(0u64, |prefix, &c| {
                        let at = *prefix;
                        *prefix += c;
                        Some(at)
                    })
                    .flat_map(|p| [p as f64, p as f64 - 1.0, p as f64 - 0.5])
                    .map(|t| t * ulp(bits))
                    .collect();
                thresholds.push((total - 1) as f64 * ulp(bits));
                thresholds.extend((0..8).map(|_| g.unit_f64() * total as f64 * ulp(bits)));
                // The images' serial sum: the code total where the codes sum
                // exactly, the f64 total the image path validates otherwise.
                let image_total: f64 = probs.iter().sum();
                for t in thresholds
                    .into_iter()
                    .filter(|t| (0.0..image_total).contains(t))
                {
                    for s in &all_samplers() {
                        assert_eq!(
                            s.sample_with_threshold(weights, t),
                            s.sample_with_threshold(&probs, t),
                            "{} at {bits} bits, {width} labels, t = {t}",
                            s.name()
                        );
                    }
                }
            }
        },
    );
}

/// Codes are read only while `bits + ⌈log₂ width⌉ ≤ 53`: one label wider
/// (54), the row is drawn from its images and its validated `f64` sum. A
/// total that disagrees with the codes shows which one a draw read: PG's
/// total of zero falls back to a uniform label, the images' sum does not.
#[test]
fn rows_past_exact_code_sums_take_the_f64_path() {
    for (bits, widest) in [(52u32, 2usize), (50, 8), (46, 128)] {
        for (width, read) in [(widest, true), (widest + 1, false)] {
            let codes = vec![1u64 << bits; width];
            let weights = Weights::from_codes(&codes, &[0], bits);
            let at = format!("{bits} bits, {width} labels");
            assert_eq!(weights.codes().is_some(), read, "{at}");
            let mut rng = SplitMix64::new(3);
            let draw = TreeSampler::new().sample_into(weights, &mut rng, &mut SampleScratch::new());
            assert_eq!(draw.fallback, read, "{at}");
        }
    }
}

/// A batch of codes carries exactly one total per row.
#[test]
#[should_panic(expected = "one total per row")]
fn code_batches_carry_one_total_per_row() {
    let codes = [1u64, 2, 3, 4];
    let _ = Weights::from_codes(&codes, &[3, 7, 0], 0).rows(2).count();
}
