//! Microbenchmarks for the PG kernels: exp variants, DyNorm, and the fused
//! versus direct factor datapaths.
//!
//! Run with `cargo bench -p coopmc-bench --bench kernels`.

use coopmc_bench::harness::{black_box, Harness};
use coopmc_fixed::QFormat;
use coopmc_kernels::dynorm::dynorm_apply;
use coopmc_kernels::exp::{ExpKernel, FixedExp, FloatExp, TableExp};
use coopmc_kernels::fusion::{DirectDatapath, LogFusion, RowCodes};
use coopmc_kernels::log::TableLog;
use coopmc_kernels::telemetry::PgTelemetry;

fn bench_exp_kernels(h: &Harness) {
    let inputs: Vec<f64> = (0..256).map(|i| -(i as f64) * 0.0625).collect();
    let float = FloatExp::new();
    let fixed = FixedExp::new(16);
    let table = TableExp::new(1024, 32);
    h.run("exp_kernel/float", || {
        inputs.iter().map(|&x| float.exp(black_box(x))).sum::<f64>()
    });
    h.run("exp_kernel/fixed_approx_16", || {
        inputs.iter().map(|&x| fixed.exp(black_box(x))).sum::<f64>()
    });
    h.run("exp_kernel/table_1024x32", || {
        inputs.iter().map(|&x| table.exp(black_box(x))).sum::<f64>()
    });
}

fn bench_dynorm(h: &Harness) {
    for n in [16usize, 64, 256] {
        let base: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
        let mut v = base.clone();
        h.run(&format!("dynorm/{n}"), || {
            v.copy_from_slice(&base);
            dynorm_apply(black_box(&mut v), 8)
        });
    }
}

fn bench_factor_datapaths(h: &Harness) {
    // One 64-label row: columns `0.1 + 0.01·l` and 0.5 over 0.9.
    let width = 64;
    let numerators: Vec<f64> = (0..width)
        .map(|l| 0.1 + 0.01 * l as f64)
        .chain(vec![0.5; width])
        .collect();
    let denominators = vec![0.9; width];
    let row = (&numerators[..], &denominators[..]);
    let direct = DirectDatapath::new(QFormat::baseline32());
    let fused = LogFusion::new(
        TableLog::new(1024, 16),
        TableExp::new(1024, 16),
        QFormat::baseline32(),
    );
    let (mut stage, mut probs, mut ops) = (RowCodes::new(), Vec::new(), Vec::new());
    let mut telemetry = PgTelemetry::new();
    h.run("factor_datapath/direct_mul_div", || {
        probs.clear();
        direct.evaluate_factors_into(black_box(row), width, &mut probs)
    });
    h.run("factor_datapath/logfusion_lut", || {
        fused.evaluate_factor_rows_into(
            black_box([row]),
            width,
            &mut stage,
            &mut probs,
            &mut ops,
            &mut telemetry,
            None,
        );
        ops[0]
    });
}

fn main() {
    let h = Harness::new();
    bench_exp_kernels(&h);
    bench_dynorm(&h);
    bench_factor_datapaths(&h);
}
