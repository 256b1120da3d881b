//! Sampling-from-Distribution (SD) micro-architectures.
//!
//! Step 2 of the CoopMC computational flow draws a new label with probability
//! proportional to the `P_x` vector produced by Probability Generation. The
//! paper (§III-D) compares three hardware designs, all modelled here
//! bit-faithfully with cycle-accurate latency accounting:
//!
//! - [`SequentialSampler`] — the prior-art cumulative scan, `2N + 1` cycles
//!   per sample.
//! - [`TreeSampler`] — the paper's contribution: *TreeSum* adder tree,
//!   *ThresholdGen*, and *TraverseTree* comparator walk (Fig. 8),
//!   `2⌈log₂N⌉ + 3` cycles per sample.
//! - [`PipeTreeSampler`] — TreeSampler with inter-layer shift registers:
//!   identical latency, but a steady-state throughput of one sample per
//!   cycle.
//!
//! All three implement the same sampling rule — threshold
//! `T = total · u, u ∼ U[0,1)`, new label = smallest `n` with
//! `A_x(n) > T` — so they are *statistically identical*; they differ only in
//! time and area. The code keeps that split: a micro-architecture defines
//! only its `f64` CDF inversion ([`Sampler::select`]) and its cycle model,
//! and every draw runs the one provided skeleton, [`Sampler::sample_into`]:
//! the total mass, the all-zero fallback, ThresholdGen, then the inversion.
//! The equivalence is tested exhaustively in this crate.
//!
//! SD reads a distribution as [`Weights`]: `f64` weights or, where PG read
//! them off its ROM, integer codes with their total. The skeleton inverts
//! code rows itself, on exact integer sums (no per-weight validation: a
//! code cannot be negative or NaN), drawing exactly the label the codes'
//! `f64` images draw; a row too wide for exact sums is drawn from those
//! images.
//!
//! # Example
//!
//! ```
//! use coopmc_rng::SplitMix64;
//! use coopmc_sampler::{Sampler, TreeSampler};
//!
//! let sampler = TreeSampler::new();
//! let mut rng = SplitMix64::new(7);
//! let probs = [0.1, 0.7, 0.2];
//! let result = sampler.sample(&probs, &mut rng);
//! assert!(result.label < 3);
//! assert_eq!(result.cycles, 2 * 2 + 3); // 3 labels pad to a depth-2 tree
//! ```

mod alias;
mod pipe;
mod sequential;
mod tree;

pub use alias::{AliasSampler, AliasTable};
pub use pipe::PipeTreeSampler;
pub use sequential::SequentialSampler;
pub use tree::{TreeSampler, TreeSum};

use coopmc_rng::HwRng;

use alias::Vose;

/// Outcome of drawing one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleResult {
    /// The sampled label index.
    pub label: usize,
    /// Latency of this draw in cycles.
    pub cycles: u64,
    /// Whether the draw hit the all-zero-mass uniform fallback (the Fig. 2
    /// flush regime) instead of a real CDF inversion.
    pub fallback: bool,
}

/// Reusable per-draw working memory for [`Sampler::sample_into`].
///
/// The scratch owns whatever buffers a sampler micro-architecture needs to
/// rebuild per draw: the flat [`TreeSum`] node buffer for the tree
/// samplers, the table and Vose's work lists for the alias sampler, and
/// the `f64` images of a code row too wide to draw in code units. Once
/// warmed to the largest distribution seen, subsequent draws through the
/// same scratch perform **zero heap allocations** — the property the Gibbs
/// engine's hot path relies on.
///
/// A scratch is plain data: create one per sampling thread and pass it to
/// every draw on that thread. It is not tied to a particular sampler; the
/// same scratch can serve different `Sampler` impls interchangeably.
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    /// Reusable adder-tree storage for the tree-based samplers.
    pub(crate) tree: TreeSum,
    /// Reusable alias table and work lists for the alias sampler.
    pub(crate) vose: Vose,
    /// The exact images of a code row past [`Weights::codes`]' gate.
    images: Vec<f64>,
}

impl SampleScratch {
    /// Create an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A distribution's weights as SD reads them: `f64` weights, or PG's ROM
/// codes with their total.
///
/// Codes with `frac_bits` fraction bits stand for the weights
/// `codes[i] · 2^-frac_bits`, their exact images. Where they sum exactly
/// ([`Weights::codes`]), the draw skeleton takes the total PG hands over
/// and inverts the row in code units; otherwise it draws from the images
/// with their validated `f64` sum. Either way it picks what the images
/// pick, bit for bit. Any `f64` slice converts into weights.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a>(Form<'a>);

/// What [`Weights`] carry.
#[derive(Debug, Clone, Copy)]
enum Form<'a> {
    /// `f64` weights.
    Probs(&'a [f64]),
    /// Row-major codes, each row's code total, and the codes' fraction bits.
    Codes {
        codes: &'a [u64],
        totals: &'a [u64],
        frac_bits: u32,
    },
}

impl<'a> Weights<'a> {
    /// Row-major integer codes with `frac_bits` fraction bits and one total
    /// per row, as PG's TableExp and TreeSum hand them over: the weights
    /// `codes[i] · 2^-frac_bits`. The caller guarantees that each total is
    /// its row's code sum; [`Weights::rows`] splits the rows, and a
    /// distribution drawn whole carries one total.
    #[inline]
    pub fn from_codes(codes: &'a [u64], totals: &'a [u64], frac_bits: u32) -> Self {
        Self(Form::Codes {
            codes,
            totals,
            frac_bits,
        })
    }

    /// The `f64` weights, unless the weights are codes.
    pub fn probs(&self) -> Option<&'a [f64]> {
        match self.0 {
            Form::Probs(probs) => Some(probs),
            Form::Codes { .. } => None,
        }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        match self.0 {
            Form::Probs(probs) => probs.len(),
            Form::Codes { codes, .. } => codes.len(),
        }
    }

    /// True for weights over no labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer codes and their fraction bits, when the weights are
    /// codes and `frac_bits + ⌈log₂ len⌉ ≤ 53`. Codes of weights at most 1
    /// then have partial sums of at most `2^53`, exact in `f64` in any
    /// order, so the codes give the total and the label their images give.
    #[inline]
    pub fn codes(&self) -> Option<(&'a [u64], u32)> {
        let Form::Codes {
            codes, frac_bits, ..
        } = self.0
        else {
            return None;
        };
        let depth = codes.len().next_power_of_two().trailing_zeros();
        let room = f64::MANTISSA_DIGITS.checked_sub(frac_bits)?;
        (depth <= room).then_some((codes, frac_bits))
    }

    /// Each label's weight as an `f64`: the `f64` weights themselves, or
    /// each code's exact image `code · 2^-frac_bits`.
    pub fn images(self) -> impl Iterator<Item = f64> + 'a {
        let (probs, codes, ulp) = match self.0 {
            Form::Probs(probs) => (probs, &[][..], 0.0),
            Form::Codes {
                codes, frac_bits, ..
            } => (&[][..], codes, coopmc_fixed::unsigned_resolution(frac_bits)),
        };
        let images = codes.iter().map(move |&c| c as f64 * ulp);
        probs.iter().copied().chain(images)
    }

    /// The `width`-label rows of a row-major batch, each with its share of
    /// the codes and its total.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, the length is not a multiple of `width`, or
    /// codes do not carry one total per row.
    pub fn rows(self, width: usize) -> impl Iterator<Item = Weights<'a>> {
        assert!(width > 0, "row width must be positive");
        assert_eq!(
            self.len() % width,
            0,
            "batch length must be a multiple of the row width"
        );
        let rows = self.len() / width;
        if let Form::Codes { totals, .. } = self.0 {
            assert_eq!(totals.len(), rows, "code weights carry one total per row");
        }
        (0..rows).map(move |row| {
            let at = row * width..(row + 1) * width;
            Weights(match self.0 {
                Form::Probs(probs) => Form::Probs(&probs[at]),
                Form::Codes {
                    codes,
                    totals,
                    frac_bits,
                } => Form::Codes {
                    codes: &codes[at],
                    totals: &totals[row..=row],
                    frac_bits,
                },
            })
        })
    }
}

/// Weights without codes, from any `f64` slice.
impl<'a, T: AsRef<[f64]> + ?Sized> From<&'a T> for Weights<'a> {
    fn from(probs: &'a T) -> Self {
        Self(Form::Probs(probs.as_ref()))
    }
}

/// `weights` as one draw reads them, with their total mass: `f64` weights
/// with their validated serial sum, codes that sum exactly
/// ([`Weights::codes`]) with the total PG handed over, and codes past that
/// gate as their exact images, written to `images`, with the images'
/// validated sum (PG's total is not read).
///
/// # Panics
///
/// Panics if the weights are empty, if codes drawn as one distribution do
/// not carry exactly one total, or if an `f64` weight is negative or
/// non-finite.
#[inline]
fn resolve<'w>(weights: Weights<'w>, images: &'w mut Vec<f64>) -> (Weights<'w>, f64) {
    let (totals, frac_bits) = match weights.0 {
        Form::Probs(probs) => return (weights, validate(probs)),
        Form::Codes {
            totals, frac_bits, ..
        } => (totals, frac_bits),
    };
    assert!(
        !weights.is_empty(),
        "sampler requires a non-empty distribution"
    );
    let &[total] = totals else {
        panic!("code weights drawn as one distribution carry one total");
    };
    if weights.codes().is_some() {
        let total = total as f64 * coopmc_fixed::unsigned_resolution(frac_bits);
        return (weights, total);
    }
    images.clear();
    images.extend(weights.images());
    let images: &'w [f64] = images;
    (Weights::from(images), validate(images))
}

/// A discrete-distribution sampler micro-architecture.
///
/// The weights are **unnormalized, non-negative** — exactly what the PG
/// step hands over; no hardware normalizes the vector. If every weight is
/// zero (the low-precision flush failure mode of Fig. 2), the sampler falls
/// back to a uniform random label, matching the paper's description of that
/// degenerate regime.
///
/// A micro-architecture implements [`Sampler::select`], its CDF inversion
/// of `f64` weights, plus [`Sampler::latency_cycles`] and [`Sampler::name`].
/// Every draw runs the provided skeleton [`Sampler::sample_into`].
pub trait Sampler {
    /// The CDF inversion of `f64` weights: the smallest label `n` whose
    /// cumulative mass `A(n)` exceeds `t ∈ [0, total)`, else the last label
    /// with mass. `scratch` holds whatever the micro-architecture rebuilds
    /// per draw. Codes that sum exactly never reach it (see
    /// [`Sampler::draw`]); wider code rows reach it as their images.
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize;

    /// Latency in cycles of one sample for an `n`-label distribution.
    fn latency_cycles(&self, n: usize) -> u64;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Steady-state throughput in samples per cycle for an `n`-label
    /// distribution (`1 / latency` unless pipelined).
    fn throughput(&self, n: usize) -> f64 {
        1.0 / self.latency_cycles(n) as f64
    }

    /// Draw a label from `weights`, whose total mass `total` is positive:
    /// ThresholdGen, then the inversion, in code units on codes that sum
    /// exactly ([`Weights::codes`]) and by [`Sampler::select`] on `f64`
    /// weights. The skeleton hands over only those two forms: a code row
    /// past the gate arrives as its images.
    fn draw(
        &self,
        weights: Weights<'_>,
        total: f64,
        rng: &mut dyn HwRng,
        scratch: &mut SampleScratch,
    ) -> usize {
        // ThresholdGen: total mass times a uniform draw from the PRNG.
        invert(self, weights, total * rng.next_f64(), scratch)
    }

    /// Draw one label from `weights` (an `f64` slice, or [`Weights`] of ROM
    /// codes and their total), reusing `scratch` for any per-draw working
    /// memory; a warmed scratch makes the draw allocation-free.
    ///
    /// The one draw path: take the total mass (PG's code total where
    /// [`Weights::codes`] hands the codes out; otherwise the validated
    /// `f64` sum of the weights, or of the codes' images written into
    /// `scratch`), fall back to a uniform label if it is zero, otherwise
    /// [`Sampler::draw`]. Codes and their `f64` images draw the same label
    /// from the same RNG state.
    ///
    /// Requires `Self: Sized` so the trait stays object-safe; a `Box<dyn
    /// Sampler>` is sized and draws through it.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty, are codes without exactly one
    /// total, or contain a negative or non-finite `f64` weight.
    fn sample_into<'a>(
        &self,
        weights: impl Into<Weights<'a>>,
        rng: &mut dyn HwRng,
        scratch: &mut SampleScratch,
    ) -> SampleResult
    where
        Self: Sized,
    {
        draw_once(self, weights.into(), rng, scratch)
    }

    /// Draw one label from `probs` through a fresh scratch: the
    /// [`Sampler::sample_into`] skeleton for callers outside a hot loop,
    /// trait objects included.
    ///
    /// # Panics
    ///
    /// Same contract as [`Sampler::sample_into`].
    fn sample(&self, probs: &[f64], rng: &mut dyn HwRng) -> SampleResult {
        draw_once(self, probs.into(), rng, &mut SampleScratch::new())
    }

    /// Draw one label per `width`-wide row of a row-major batch of weights
    /// (the SD half of the batched color-class path), pushing one
    /// [`SampleResult`] per row into `results` (cleared first). A batch of
    /// codes hands each row its codes and its total.
    ///
    /// `rng_for_row` supplies each row's RNG — the chromatic engine
    /// derives one per variable from `(seed, iteration, var)` — so the
    /// draws are **bit-identical** to calling [`Sampler::sample_into`]
    /// once per row with the same RNGs, and independent of how rows were
    /// grouped into batches. The per-draw working memory in `scratch` is
    /// reused across rows, keeping a warmed batch draw allocation-free.
    ///
    /// # Panics
    ///
    /// Per row, the same contract as [`Sampler::sample_into`];
    /// additionally panics if `width == 0`, the batch length is not a
    /// multiple of `width`, or codes do not carry one total per row.
    fn sample_rows_into<'a, F, R>(
        &self,
        weights: impl Into<Weights<'a>>,
        width: usize,
        mut rng_for_row: F,
        results: &mut Vec<SampleResult>,
        scratch: &mut SampleScratch,
    ) where
        Self: Sized,
        F: FnMut(usize) -> R,
        R: HwRng,
    {
        results.clear();
        for (row, weights) in weights.into().rows(width).enumerate() {
            let mut rng = rng_for_row(row);
            results.push(self.sample_into(weights, &mut rng, scratch));
        }
    }

    /// Deterministic core: the inversion [`Sampler::draw`] runs, with an
    /// explicit threshold `t ∈ [0, total)`. Exposed so different
    /// micro-architectures, and the code and `f64` forms of one
    /// distribution, can be proven equivalent under the same threshold.
    ///
    /// # Panics
    ///
    /// Same contract as [`Sampler::sample_into`]; additionally `t` must be
    /// in `[0, total)`.
    fn sample_with_threshold<'a>(&self, weights: impl Into<Weights<'a>>, t: f64) -> SampleResult
    where
        Self: Sized,
    {
        let mut images = Vec::new();
        let (weights, total) = resolve(weights.into(), &mut images);
        assert!(
            (0.0..total.max(f64::MIN_POSITIVE)).contains(&t),
            "threshold out of range"
        );
        SampleResult {
            label: invert(self, weights, t, &mut SampleScratch::new()),
            cycles: self.latency_cycles(weights.len()),
            fallback: false,
        }
    }
}

/// Forwards what a micro-architecture defines, so a boxed sampler draws
/// through the one skeleton with the boxed `draw` and `select`.
impl<S: Sampler + ?Sized> Sampler for Box<S> {
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize {
        (**self).select(probs, t, scratch)
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        (**self).latency_cycles(n)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn throughput(&self, n: usize) -> f64 {
        (**self).throughput(n)
    }

    fn draw(
        &self,
        weights: Weights<'_>,
        total: f64,
        rng: &mut dyn HwRng,
        scratch: &mut SampleScratch,
    ) -> usize {
        (**self).draw(weights, total, rng, scratch)
    }
}

/// The draw skeleton behind [`Sampler::sample_into`] and
/// [`Sampler::sample`]: the total mass, the all-zero fallback, then
/// [`Sampler::draw`].
fn draw_once<S: Sampler + ?Sized>(
    sampler: &S,
    weights: Weights<'_>,
    rng: &mut dyn HwRng,
    scratch: &mut SampleScratch,
) -> SampleResult {
    // The images' buffer leaves the scratch while the draw holds both.
    let mut images = std::mem::take(&mut scratch.images);
    let (weights, total) = resolve(weights, &mut images);
    let fallback = total == 0.0;
    let label = if fallback {
        rng.uniform_index(weights.len())
    } else {
        sampler.draw(weights, total, rng, scratch)
    };
    let cycles = sampler.latency_cycles(weights.len());
    scratch.images = images;
    SampleResult {
        label,
        cycles,
        fallback,
    }
}

/// The inversion behind [`Sampler::draw`] and
/// [`Sampler::sample_with_threshold`]. On codes, the first label whose
/// running code sum exceeds `⌊t · 2^frac_bits⌋`: for an integer sum `P`,
/// `P > t · 2^frac_bits ⟺ P > ⌊t · 2^frac_bits⌋`, and the sums are the
/// exact partial sums `select` compares on the images, so the label is
/// `select`'s. The running sums never fall, so that label is the number
/// of sums at or below the threshold, counted without a data-dependent
/// exit branch (the last label when none exceeds it).
#[inline]
fn invert<S: Sampler + ?Sized>(
    sampler: &S,
    weights: Weights<'_>,
    t: f64,
    scratch: &mut SampleScratch,
) -> usize {
    let Some((codes, frac_bits)) = weights.codes() else {
        let probs = weights
            .probs()
            .expect("codes past the gate arrive as images");
        return sampler.select(probs, t, scratch);
    };
    let t_code = (t * (1u64 << frac_bits) as f64) as u64;
    let (mut sum, mut below) = (0u64, 0usize);
    for &code in codes {
        sum += code;
        below += usize::from(sum <= t_code);
    }
    below.min(codes.len() - 1)
}

/// Validate a probability vector and return its total mass.
///
/// # Panics
///
/// Panics if `probs` is empty or has a negative/non-finite element.
pub(crate) fn validate(probs: &[f64]) -> f64 {
    assert!(
        !probs.is_empty(),
        "sampler requires a non-empty distribution"
    );
    let mut total = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        assert!(p.is_finite() && p >= 0.0, "invalid weight {p} at index {i}");
        total += p;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_rng::SplitMix64;

    fn samplers() -> Vec<Box<dyn Sampler>> {
        vec![
            Box::new(SequentialSampler::new()),
            Box::new(TreeSampler::new()),
            Box::new(PipeTreeSampler::new()),
            Box::new(AliasSampler::new()),
        ]
    }

    #[test]
    fn all_samplers_agree_under_same_threshold() {
        let probs = [0.05, 0.3, 0.0, 0.15, 0.25, 0.25];
        let total: f64 = probs.iter().sum();
        for k in 0..200 {
            let t = total * (k as f64 + 0.5) / 200.5;
            let labels: Vec<usize> = samplers()
                .iter()
                .map(|s| s.sample_with_threshold(&probs, t).label)
                .collect();
            assert!(
                labels.windows(2).all(|w| w[0] == w[1]),
                "disagreement at t={t}: {labels:?}"
            );
        }
    }

    #[test]
    fn threshold_boundaries_select_correct_label() {
        // A = [0.2, 0.5, 1.0]: T < 0.2 -> 0; 0.2 <= T < 0.5 -> 1; else 2.
        let probs = [0.2, 0.3, 0.5];
        for s in samplers() {
            assert_eq!(s.sample_with_threshold(&probs, 0.0).label, 0);
            assert_eq!(s.sample_with_threshold(&probs, 0.1999).label, 0);
            assert_eq!(s.sample_with_threshold(&probs, 0.2).label, 1);
            assert_eq!(s.sample_with_threshold(&probs, 0.4999).label, 1);
            assert_eq!(s.sample_with_threshold(&probs, 0.5).label, 2);
            assert_eq!(s.sample_with_threshold(&probs, 0.9999).label, 2);
        }
    }

    #[test]
    fn zero_weight_labels_are_never_selected() {
        let probs = [0.0, 0.4, 0.0, 0.6, 0.0];
        let mut rng = SplitMix64::new(11);
        for s in samplers() {
            for _ in 0..500 {
                let l = s.sample(&probs, &mut rng).label;
                assert!(
                    l == 1 || l == 3,
                    "{} selected zero-weight label {l}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn all_zero_distribution_falls_back_to_uniform() {
        let probs = [0.0; 8];
        for s in samplers() {
            let mut rng = SplitMix64::new(5);
            let mut seen = [false; 8];
            for _ in 0..400 {
                seen[s.sample(&probs, &mut rng).label] = true;
            }
            assert!(
                seen.iter().all(|&b| b),
                "{} missed labels: {seen:?}",
                s.name()
            );
        }
    }

    #[test]
    fn empirical_distribution_matches_weights_chi_square() {
        let probs = [1.0, 2.0, 3.0, 4.0];
        let total: f64 = probs.iter().sum();
        let draws = 40_000;
        for s in samplers() {
            let mut rng = SplitMix64::new(77);
            let mut counts = [0u64; 4];
            for _ in 0..draws {
                counts[s.sample(&probs, &mut rng).label] += 1;
            }
            let chi2: f64 = probs
                .iter()
                .zip(&counts)
                .map(|(&p, &c)| {
                    let e = draws as f64 * p / total;
                    (c as f64 - e).powi(2) / e
                })
                .sum();
            // 3 dof, 0.999 quantile ~ 16.3; generous deterministic bound.
            assert!(
                chi2 < 20.0,
                "{}: chi2 = {chi2}, counts {counts:?}",
                s.name()
            );
        }
    }

    #[test]
    fn single_label_distribution() {
        let mut rng = SplitMix64::new(1);
        for s in samplers() {
            assert_eq!(s.sample(&[3.0], &mut rng).label, 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_distribution_panics() {
        let mut rng = SplitMix64::new(1);
        SequentialSampler::new().sample(&[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        let mut rng = SplitMix64::new(1);
        TreeSampler::new().sample(&[0.5, -0.1], &mut rng);
    }

    #[test]
    fn latency_ordering_matches_paper() {
        // Fig. 9: tree latency beats sequential for larger N, speedup grows.
        let seq = SequentialSampler::new();
        let tree = TreeSampler::new();
        let s64 = seq.latency_cycles(64) as f64 / tree.latency_cycles(64) as f64;
        let s128 = seq.latency_cycles(128) as f64 / tree.latency_cycles(128) as f64;
        assert!(
            s64 > 8.0 && s64 < 10.0,
            "64-label speedup {s64} (paper: 8.7x)"
        );
        assert!(s128 > s64, "speedup must grow with label count");
    }

    #[test]
    fn batched_row_draws_match_per_row_draws() {
        // 5 rows of width 4, including an all-zero row (uniform fallback).
        let flat = [
            0.1, 0.7, 0.2, 0.0, //
            0.0, 0.0, 0.0, 0.0, //
            0.25, 0.25, 0.25, 0.25, //
            1.0, 0.0, 0.0, 3.0, //
            0.4, 0.3, 0.2, 0.1,
        ];
        let rng_for = |row: usize| SplitMix64::new(0xFEED ^ (row as u64).wrapping_mul(0x9E37));
        let sampler = TreeSampler::new();
        let mut results = Vec::new();
        let mut scratch = SampleScratch::new();
        sampler.sample_rows_into(&flat, 4, rng_for, &mut results, &mut scratch);
        assert_eq!(results.len(), 5);
        let mut scalar_scratch = SampleScratch::new();
        for (row, chunk) in flat.chunks_exact(4).enumerate() {
            let mut rng = rng_for(row);
            let want = sampler.sample_into(chunk, &mut rng, &mut scalar_scratch);
            assert_eq!(results[row], want, "row {row}");
        }
        assert!(results[1].fallback, "all-zero row must hit the fallback");
    }

    #[test]
    #[should_panic(expected = "multiple of the row width")]
    fn batched_row_draws_reject_ragged_batches() {
        let mut results = Vec::new();
        let mut scratch = SampleScratch::new();
        TreeSampler::new().sample_rows_into(
            &[0.5, 0.5, 0.5],
            2,
            |row| SplitMix64::new(row as u64),
            &mut results,
            &mut scratch,
        );
    }

    #[test]
    fn pipelined_throughput_is_one_per_cycle() {
        let pipe = PipeTreeSampler::new();
        assert_eq!(pipe.throughput(64), 1.0);
        let tree = TreeSampler::new();
        assert!(tree.throughput(64) < 1.0);
    }
}
