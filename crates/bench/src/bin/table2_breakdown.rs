//! Regenerates **Table II**: runtime percentage breakdown (PG / SD / PU)
//! of every workload, measured on this machine's software Gibbs engine with
//! the vanilla float datapath and sequential sampler (the CPU baseline the
//! paper profiles).

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_bench::seeds;
use coopmc_core::engine::GibbsEngine;
use coopmc_core::pipeline::PipelineConfig;
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_obs::journal::phase_percent;
use coopmc_obs::TraceRecorder;
use coopmc_rng::SplitMix64;
use coopmc_sampler::SequentialSampler;

fn main() {
    let mut report = Report::new(
        "table2_breakdown",
        "Table II",
        "runtime percentage breakdown of benchmark workloads",
    );
    let mut table = Table::new(&[
        "Workload",
        "PG%",
        "SD%",
        "PU%",
        "paper PG%",
        "paper SD%",
        "paper PU%",
    ]);
    for spec in all_workloads() {
        // The journal carries each sweep's PG/SD/PU wall time.
        let journal = TraceRecorder::new();
        let mut engine = GibbsEngine::with_recorder(
            PipelineConfig::float32().build(),
            SequentialSampler::new(),
            SplitMix64::new(seeds::CHAIN),
            &journal,
        );
        let iters = match spec.kind {
            coopmc_models::workloads::ModelKind::Bn => 2000,
            _ => 8,
        };
        match spec.build(seeds::WORKLOAD) {
            BuiltWorkload::Mrf(mut app) => engine.run(&mut app.mrf, iters),
            BuiltWorkload::Bn(mut net) => engine.run(&mut net, iters),
            BuiltWorkload::Lda(mut lda) => engine.run(&mut lda, iters),
        };
        let (pg, sd, pu) = phase_percent(&journal.sweeps()).expect("journaled sweeps");
        let (ppg, psd, ppu) = spec.paper_breakdown;
        table.row(vec![
            Cell::text(spec.name),
            Cell::unit(pg, 1, "%"),
            Cell::unit(sd, 1, "%"),
            Cell::unit(pu, 1, "%"),
            Cell::unit(ppg, 1, "%"),
            Cell::unit(psd, 1, "%"),
            Cell::unit(ppu, 1, "%"),
        ]);
    }
    report.push(table);
    report.note(
        "Table II. Measured on this host's software engine; absolute splits \
         differ from the paper's CPU, but PG+SD should dominate everywhere \
         and PU should be small.",
    );
    report.finish();
}
