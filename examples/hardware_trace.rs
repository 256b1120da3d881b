//! Watch the hardware work: drive the structural (netlist-level) circuits
//! of the paper's micro-architecture diagrams cycle by cycle and check them
//! against the behavioral models — PG core (Fig. 6), NormTree (Fig. 3) and
//! the pipelined TreeSampler (Fig. 8).
//!
//! Run with: `cargo run --release --example hardware_trace`

use coopmc::kernels::dynorm::dynorm_apply;
use coopmc::kernels::exp::{ExpKernel, TableExp};
use coopmc::sampler::{Sampler, TreeSampler};
use coopmc::sim::circuits::{NormTreeCircuit, PgCoreCircuit, TreeSamplerCircuit};

fn main() {
    // --- Fig. 6: the fused PG core, 4 lanes x 3 factors, 64x8 TableExp ---
    println!("PG core (4 lanes, 3 log-domain factors each, TableExp 64x8):");
    let mut core = PgCoreCircuit::new(4, 3, 64, 8);
    let factors = vec![
        vec![-4.0, -3.0, -2.0],
        vec![-1.0, -1.0, -0.5],
        vec![-2.0, -0.25, -1.0],
        vec![-6.0, -5.0, -4.0],
    ];
    let structural = core.evaluate(&factors);
    let mut scores: Vec<f64> = factors.iter().map(|f| f.iter().sum()).collect();
    println!("  lane scores (log domain): {scores:?}");
    dynorm_apply(&mut scores, 4);
    let table = TableExp::new(64, 8);
    let behavioral: Vec<f64> = scores.iter().map(|&s| table.exp(s)).collect();
    println!("  structural outputs:       {structural:?}");
    println!("  behavioral reference:     {behavioral:?}");
    assert_eq!(structural, behavioral);
    let census = core.descriptor().census();
    println!(
        "  netlist census: {} adders, {} comparators, {} LUT ROMs\n",
        census.adders, census.comparators, census.luts
    );

    // --- Fig. 3: pipelined NormTree streaming one vector per cycle ---
    println!("pipelined NormTree (8 lanes) streaming maxima:");
    let mut tree = NormTreeCircuit::new(8);
    let depth = tree.depth();
    let vectors: Vec<Vec<f64>> = (0..6)
        .map(|k| (0..8).map(|i| -(((i * 5 + k * 3) % 13) as f64)).collect())
        .collect();
    let mut outs = Vec::new();
    for v in &vectors {
        outs.push(tree.step(v));
    }
    for _ in 0..depth {
        outs.push(tree.step(&[f64::MIN; 8]));
    }
    for (k, v) in vectors.iter().enumerate() {
        let want = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  cycle {k}: vector max {want:>5}  tree output {:>5}",
            outs[k + depth - 1]
        );
        assert_eq!(outs[k + depth - 1], want);
    }

    // --- Fig. 8: pipelined TreeSampler, one sample per cycle ---
    println!("\npipelined TreeSampler (16 labels), one fresh draw per cycle:");
    let n_labels = 16;
    let mut sampler = TreeSamplerCircuit::pipelined(n_labels);
    let behavioral = TreeSampler::new();
    let latency = sampler.latency();
    println!("  latency: {latency} cycles; steady-state throughput: 1 label/cycle");
    let pairs: Vec<(Vec<f64>, f64)> = (0..8)
        .map(|k| {
            let probs: Vec<f64> = (0..n_labels)
                .map(|i| 1.0 + ((i * 3 + k) % 7) as f64)
                .collect();
            let total: f64 = probs.iter().sum();
            (probs, total * (k as f64 + 0.5) / 8.5)
        })
        .collect();
    let mut labels = Vec::new();
    for (p, t) in &pairs {
        labels.push(sampler.step(p, *t));
    }
    let (lp, lt) = pairs.last().unwrap().clone();
    for _ in 0..latency {
        labels.push(sampler.step(&lp, lt));
    }
    for (k, (p, t)) in pairs.iter().enumerate() {
        let want = behavioral.sample_with_threshold(p, *t).label;
        let got = labels[k + latency];
        println!("  draw {k}: threshold {t:>7.2} -> label {got:>2} (behavioral: {want:>2})");
        assert_eq!(got, want);
    }
    println!("\nall structural outputs match the behavioral models exactly.");
}
