//! Vose alias-table sampler — the software baseline of LightLDA-class
//! systems (the paper's references \[31\], \[32\]).
//!
//! Where the hardware TreeSampler spends `O(log N)` cycles per draw with no
//! preprocessing, the alias method spends `O(N)` once to build a table and
//! then draws in `O(1)`. That trade-off only pays when many draws reuse one
//! distribution — which Gibbs sampling violates (the distribution changes
//! after every update). Having the baseline executable makes that argument
//! measurable (see the `samplers` criterion bench).

use coopmc_rng::HwRng;

use crate::{validate, SampleScratch, Sampler, SequentialSampler, Weights};

/// A built alias table over a fixed distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AliasTable {
    /// Acceptance threshold per column, scaled to [0, 1].
    prob: Vec<f64>,
    /// Alias (overflow) label per column.
    alias: Vec<usize>,
}

/// Vose's construction with its working memory: the table it fills and its
/// two work lists, kept between builds so that a warm build allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vose {
    table: AliasTable,
    small: Vec<usize>,
    large: Vec<usize>,
}

impl Vose {
    /// Fill the table over `weights` (their `f64` images, for codes), whose
    /// total mass `total` is positive, in `O(N)`.
    fn build(&mut self, weights: Weights<'_>, total: f64) -> &AliasTable {
        let Self {
            table,
            small,
            large,
        } = self;
        let n = weights.len();
        // The scaled weights are the work values; a column's value is final
        // once it leaves the small list.
        let work = &mut table.prob;
        work.clear();
        work.extend(weights.images().map(|p| p * n as f64 / total));
        table.alias.clear();
        table.alias.resize(n, 0);
        small.clear();
        large.clear();
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            table.alias[s] = l;
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // No donor left: numerical residue pins these columns at 1.
        for &i in large.iter().chain(small.iter()) {
            work[i] = 1.0;
            table.alias[i] = i;
        }
        table
    }
}

impl AliasTable {
    /// Build the table in `O(N)` (Vose's algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty, contains invalid weights, or sums to
    /// zero.
    pub fn build(probs: &[f64]) -> Self {
        let total = validate(probs);
        assert!(total > 0.0, "alias table needs positive total mass");
        let mut vose = Vose::default();
        vose.build(probs.into(), total);
        vose.table
    }

    /// Number of columns (labels).
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no columns: only the default table, since
    /// [`AliasTable::build`] refuses an empty distribution.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one label in `O(1)`.
    pub fn sample(&self, rng: &mut dyn HwRng) -> usize {
        let i = rng.uniform_index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// The exact distribution this table encodes (for verification):
    /// column acceptance mass plus received alias mass, normalized.
    pub fn encoded_distribution(&self) -> Vec<f64> {
        let n = self.prob.len();
        let mut mass = vec![0.0; n];
        for i in 0..n {
            mass[i] += self.prob[i];
            mass[self.alias[i]] += 1.0 - self.prob[i];
        }
        for m in &mut mass {
            *m /= n as f64;
        }
        mass
    }
}

/// One-shot alias sampler implementing the common [`Sampler`] interface:
/// builds the table, draws once. Its cycle model charges the full `O(N)`
/// construction to every draw — the honest cost in a Gibbs loop where the
/// distribution is fresh each time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasSampler;

impl AliasSampler {
    /// Create an alias sampler.
    pub fn new() -> Self {
        Self
    }
}

impl Sampler for AliasSampler {
    /// The alias method is not a CDF-inversion sampler; an explicit
    /// threshold maps through the CDF so cross-sampler equivalence tests
    /// still hold.
    fn select(&self, probs: &[f64], t: f64, scratch: &mut SampleScratch) -> usize {
        SequentialSampler.select(probs, t, scratch)
    }

    /// Build the table in `scratch` from the weights, codes as their
    /// images, then draw from it.
    fn draw(
        &self,
        weights: Weights<'_>,
        total: f64,
        rng: &mut dyn HwRng,
        scratch: &mut SampleScratch,
    ) -> usize {
        scratch.vose.build(weights, total).sample(rng)
    }

    fn latency_cycles(&self, n: usize) -> u64 {
        // Vose construction touches every column roughly three times
        // (scale, partition, pair), then a 2-cycle draw.
        3 * n as u64 + 2
    }

    fn name(&self) -> &'static str {
        "alias"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopmc_rng::SplitMix64;

    #[test]
    fn encoded_distribution_matches_input() {
        let probs = [0.1, 0.4, 0.2, 0.3];
        let table = AliasTable::build(&probs);
        let enc = table.encoded_distribution();
        for (p, e) in probs.iter().zip(&enc) {
            assert!((p - e).abs() < 1e-12, "encoded {enc:?}");
        }
    }

    #[test]
    fn handles_degenerate_and_uniform_inputs() {
        // one-hot
        let one_hot = AliasTable::build(&[0.0, 1.0, 0.0]);
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(one_hot.sample(&mut rng), 1);
        }
        // uniform
        let uni = AliasTable::build(&[1.0; 8]);
        let enc = uni.encoded_distribution();
        assert!(enc.iter().all(|&e| (e - 0.125).abs() < 1e-12));
    }

    #[test]
    fn chi_square_against_weights() {
        let probs = [5.0, 1.0, 3.0, 1.0];
        let total: f64 = probs.iter().sum();
        let table = AliasTable::build(&probs);
        let mut rng = SplitMix64::new(9);
        let draws = 40_000;
        let mut counts = [0u64; 4];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let chi2: f64 = probs
            .iter()
            .zip(&counts)
            .map(|(&p, &c)| {
                let e = draws as f64 * p / total;
                (c as f64 - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 20.0, "chi2 {chi2}, counts {counts:?}");
    }

    #[test]
    fn sampler_interface_works_and_charges_build_cost() {
        let s = AliasSampler::new();
        let mut rng = SplitMix64::new(3);
        let r = s.sample(&[0.5, 0.5], &mut rng);
        assert!(r.label < 2);
        assert_eq!(s.latency_cycles(64), 3 * 64 + 2);
        assert_eq!(r.cycles, 8);
    }

    #[test]
    fn unnormalized_weights_are_fine() {
        let table = AliasTable::build(&[10.0, 30.0]);
        let enc = table.encoded_distribution();
        assert!((enc[0] - 0.25).abs() < 1e-12);
        assert!((enc[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scratch_draws_match_fresh_tables() {
        // A scratch reused across rows of different lengths holds the table
        // `build` returns, so every draw consumes the RNG as a fresh
        // table's does.
        let rows: [&[f64]; 4] = [
            &[0.1, 0.4, 0.2, 0.3],
            &[5.0, 0.0, 1.0, 2.0, 0.5, 0.25],
            &[1.0, 3.0],
            &[0.3; 7],
        ];
        let sampler = AliasSampler::new();
        let mut scratch = SampleScratch::new();
        let (mut fresh, mut reused) = (SplitMix64::new(4), SplitMix64::new(4));
        for probs in rows.iter().cycle().take(80) {
            let want = AliasTable::build(probs).sample(&mut fresh);
            let got = sampler.sample_into(probs, &mut reused, &mut scratch);
            assert_eq!(got.label, want);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_distribution_panics() {
        let _ = AliasTable::build(&[]);
    }
}
