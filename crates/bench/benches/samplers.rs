//! Microbenchmarks for the three sampler micro-architectures, plus the
//! modelled-hardware cycle counts they correspond to (Fig. 9's
//! software-side companion).
//!
//! Run with `cargo bench -p coopmc-bench --bench samplers`.

use coopmc_bench::harness::{black_box, Harness};
use coopmc_rng::SplitMix64;
use coopmc_sampler::{
    AliasSampler, AliasTable, PipeTreeSampler, SampleScratch, Sampler, SequentialSampler,
    TreeSampler, Weights,
};

fn bench_samplers(h: &Harness) {
    for n in [4usize, 16, 64, 128] {
        let probs: Vec<f64> = (1..=n).map(|i| i as f64).collect();

        let s = SequentialSampler::new();
        let mut rng = SplitMix64::new(1);
        h.run(&format!("sampler_draw/sequential/{n}"), || {
            s.sample(black_box(&probs), &mut rng)
        });

        let s = TreeSampler::new();
        let mut rng = SplitMix64::new(1);
        h.run(&format!("sampler_draw/tree/{n}"), || {
            s.sample(black_box(&probs), &mut rng)
        });

        // tree sampler with a caller-held scratch: the warm Gibbs-loop cost
        let s = TreeSampler::new();
        let mut rng = SplitMix64::new(1);
        let mut scratch = SampleScratch::new();
        h.run(&format!("sampler_draw/tree_scratch/{n}"), || {
            s.sample_into(black_box(&probs), &mut rng, &mut scratch)
        });

        // the same weights carried as integer codes with 0 fraction bits
        // and their total: the code-unit scan a ROM row draws through, the
        // same for every CDF-inversion sampler
        if matches!(n, 16 | 64) {
            let codes: Vec<u64> = (1..=n as u64).collect();
            let total = [codes.iter().sum::<u64>()];
            let mut rng = SplitMix64::new(1);
            h.run(&format!("sampler_draw/tree_codes/{n}"), || {
                let weights = Weights::from_codes(black_box(&codes), black_box(&total), 0);
                s.sample_into(weights, &mut rng, &mut scratch)
            });
        }

        // alias method: full rebuild per draw (the honest Gibbs-loop cost)
        let s = AliasSampler::new();
        let mut rng = SplitMix64::new(1);
        h.run(&format!("sampler_draw/alias_rebuild/{n}"), || {
            s.sample(black_box(&probs), &mut rng)
        });

        // alias method: amortized draws from a static distribution
        let table = AliasTable::build(&probs);
        let mut rng = SplitMix64::new(1);
        h.run(&format!("sampler_draw/alias_amortized/{n}"), || {
            table.sample(&mut rng)
        });
    }
}

fn bench_pipelined_batches(h: &Harness) {
    let probs: Vec<f64> = (1..=64).map(|i| i as f64).collect();
    let batch: Vec<&[f64]> = (0..32).map(|_| probs.as_slice()).collect();
    let s = PipeTreeSampler::new();
    let mut rng = SplitMix64::new(2);
    h.run("sampler_batch64/pipe_tree_batch32", || {
        s.sample_batch(black_box(&batch), &mut rng)
    });
}

fn main() {
    let h = Harness::new();
    bench_samplers(&h);
    bench_pipelined_batches(&h);
}
