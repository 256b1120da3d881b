//! **Ablation**: LogFusion cycle advantage versus factor-sequence depth —
//! the §III-C DSP argument ("a 32-bit multiplication needs four cycles, but
//! only 1 cycle for 32-bit addition; even accounting for log and exp
//! conversions, log-domain computation is still faster").

use coopmc_bench::harness::{Cell, Report, Table};
use coopmc_fixed::{unsigned_resolution, QFormat};
use coopmc_kernels::cost::{ADD_CYCLES, DIV_CYCLES, LUT_CYCLES, MUL_CYCLES};
use coopmc_kernels::exp::TableExp;
use coopmc_kernels::fusion::{DirectDatapath, LogFusion, RowCodes};
use coopmc_kernels::log::TableLog;
use coopmc_kernels::telemetry::PgTelemetry;

fn main() {
    let mut report = Report::new(
        "ablation_logfusion_depth",
        "Ablation",
        "LogFusion gain vs multiply/divide sequence depth",
    );
    let mut table = Table::new(&[
        "#factors",
        "direct cycles",
        "fused cycles",
        "gain",
        "direct val",
        "fused val",
    ]);
    let fusion = LogFusion::new(
        TableLog::new(1024, 24),
        TableExp::new(1024, 24),
        QFormat::baseline32(),
    );
    let direct = DirectDatapath::new(QFormat::baseline32());
    for depth in [1usize, 2, 4, 8, 16, 32] {
        // cycle model: (depth-1) muls + 1 div directly, vs depth log-LUT
        // lookups + adds + 1 exp lookup fused.
        let direct_cycles = (depth as u64 - 1) * MUL_CYCLES + DIV_CYCLES;
        let fused_cycles = depth as u64 * (ADD_CYCLES + LUT_CYCLES) + LUT_CYCLES;
        // numeric check on a representative expression
        let nums: Vec<f64> = (0..depth - 1).map(|i| 0.4 + 0.02 * i as f64).collect();
        let row = (
            if nums.is_empty() {
                &[0.5][..]
            } else {
                &nums[..]
            },
            &[0.7][..],
        );
        let (mut dval, mut stage, mut probs, mut ops) =
            (Vec::new(), RowCodes::new(), Vec::new(), Vec::new());
        direct.evaluate_factors_into(row, 1, &mut dval);
        let tel = &mut PgTelemetry::new();
        fusion.evaluate_factor_rows_into([row], 1, &mut stage, &mut probs, &mut ops, tel, None);
        // The fused datapath runs on bus words: its value is the ROM
        // code's exact image.
        let (codes, _, bits) = stage.codes().expect("a word-path datapath");
        let (dval, fval) = (dval[0], codes[0] as f64 * unsigned_resolution(bits));
        table.row(vec![
            Cell::int(depth as i64),
            Cell::int(direct_cycles as i64),
            Cell::int(fused_cycles as i64),
            Cell::unit(direct_cycles as f64 / fused_cycles as f64, 2, "x"),
            Cell::num(dval, 8),
            Cell::num(fval, 8),
        ]);
    }
    report.push(table);
    report.note(
        "§III-C. The gain grows with factor depth; note the direct datapath \
         underflowing to 0 at large depths (fixed-point products of \
         probabilities), which LogFusion+DyNorm avoids entirely. Fused \
         values are relative (DyNorm rescales the vector).",
    );
    report.finish();
}
