//! Medical diagnosis with the ASIA chest-clinic Bayesian network: query
//! posteriors under evidence, with Gibbs estimates cross-checked against
//! exact variable-elimination inference.
//!
//! Run with: `cargo run --release --example medical_diagnosis`

use coopmc::core::engine::{GibbsEngine, RunStats};
use coopmc::core::pipeline::PipelineConfig;
use coopmc::models::bn::{asia, exact_marginal, MarginalCounter};
use coopmc::obs::journal::phase_percent;
use coopmc::obs::TraceRecorder;
use coopmc::rng::SplitMix64;
use coopmc::sampler::TreeSampler;

fn main() {
    let mut net = asia();

    // A patient who visited Asia and presents with dyspnoea.
    let asia_ix = net.node_index("asia").unwrap();
    let dysp_ix = net.node_index("dysp").unwrap();
    net.set_evidence(asia_ix, 0);
    net.set_evidence(dysp_ix, 0);
    println!("evidence: visited Asia = yes, dyspnoea = yes\n");

    // Exact posteriors by variable elimination.
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "node", "exact P(yes)", "gibbs P(yes)", "error"
    );
    let targets = ["tub", "lung", "bronc", "either", "xray", "smoke"];

    // Gibbs estimate through the full CoopMC datapath, journaled for the
    // PG/SD/PU wall-time split.
    let journal = TraceRecorder::new();
    let mut engine = GibbsEngine::with_recorder(
        PipelineConfig::coopmc(128, 16).build(),
        TreeSampler::new(),
        SplitMix64::new(2024),
        &journal,
    );
    let mut counter = MarginalCounter::new(&net);
    let mut stats = RunStats::default();
    let burn_in = 500u64;
    for it in 0..10_000u64 {
        engine.sweep(&mut net, &mut stats);
        if it >= burn_in {
            counter.record(&net);
        }
    }

    for name in targets {
        let ix = net.node_index(name).unwrap();
        let exact = exact_marginal(&net, ix)[0];
        let gibbs = counter.marginal(ix)[0];
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>10.4}",
            name,
            exact,
            gibbs,
            (exact - gibbs).abs()
        );
    }

    let (pg, sd, pu) = phase_percent(&journal.sweeps()).expect("journaled sweeps");
    println!(
        "\n{} sweeps through the CoopMC datapath; breakdown PG {pg:.0}% SD {sd:.0}% PU {pu:.0}%",
        10_000
    );
    println!("(compare Table II: BN workloads are SD-dominated on CPUs)");
}
