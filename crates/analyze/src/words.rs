//! The `pg-words` gate: the word operations CoopMC's PG datapath runs on
//! the Q15.16 accumulator bus, checked by running them. The fused
//! quantizers, the slice quantizer's packed and per-value paths included,
//! must match the `Fixed` round-trip and a half-away-from-zero
//! reference; every row of a batched PG pass, as the integer ROM codes and
//! row total it hands to SD, must match the same row evaluated alone on
//! the `f64` reference datapath; and count rows read through count-indexed
//! log words must match their `f64` images on the factor path.
//! [`verify_pg_words`] runs them all for the `pg-words` section of
//! `coopmc-verify`.

use coopmc_fixed::{round_ties_away, Fixed, QFormat, Rounding};
use coopmc_kernels::cost::OpCounts;
use coopmc_kernels::exp::TableExp;
use coopmc_kernels::fusion::{CountTables, LogFusion, RowCodes};
use coopmc_kernels::log::{TableLog, LOG_ZERO};
use coopmc_kernels::telemetry::PgTelemetry;

use crate::netcheck::Severity;
use crate::verify::Finding;

/// Exhaustive equivalence of the fused quantizers the batched kernels
/// apply: `requantize_nearest`, the bus word of `quantize_nearest_raw` and
/// the words of the slice quantizer `quantize_nearest_raw_into` (packed on
/// Q15.16 and Q5.10, value by value on the 62-bit Q31.31) against the
/// two-step `Fixed` round-trip, and `round_ties_away` against an
/// independent half-away reference — over dense half-ulp grids plus the
/// edge cases (NaN, infinities, saturation band).
fn quantizer_checks(findings: &mut Vec<Finding>) -> usize {
    let mut checks = 0;

    checks += 1;
    let fmts = [
        QFormat::baseline32(),
        QFormat::new(5, 10).expect("valid format"),
        QFormat::new(31, 31).expect("valid format"),
    ];
    let (mut xs, mut words) = (Vec::new(), Vec::new());
    'requant: for fmt in fmts {
        let res = fmt.resolution();
        let max = fmt.max_raw() as f64;
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            -1e300,
        ];
        let grid = (-65_536i64..=65_536).map(|k| k as f64 * res / 2.0);
        let sat_band = (-512i64..=512).map(|k| (max + k as f64) * res);
        let neg_band = (-512i64..=512).map(|k| (k as f64 - max) * res);
        xs.clear();
        xs.extend(grid.chain(sat_band).chain(neg_band).chain(specials));
        words.clear();
        fmt.quantize_nearest_raw_into(&xs, &mut words);
        for (&x, &slice_word) in xs.iter().zip(&words) {
            let fused = fmt.requantize_nearest(x);
            let fixed = Fixed::from_f64(x, fmt, Rounding::Nearest);
            let two_step = fixed.to_f64();
            // The bus word the batched kernels quantize to, a value or a
            // slice at a time, is the same Fixed word.
            let word = fmt.quantize_nearest_raw(x);
            if fused.to_bits() != two_step.to_bits()
                || word != fixed.raw()
                || slice_word != fixed.raw()
            {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "requantize-equivalence".into(),
                    message: format!(
                        "requantize_nearest({x:e}) = {fused:e} (word {word}, slice word \
                         {slice_word}) but the Fixed round-trip gives {two_step:e} (word {}) \
                         ({fmt:?})",
                        fixed.raw()
                    ),
                    provenance: vec![format!(
                        "bit patterns: fused {:#018x}, round-trip {:#018x}",
                        fused.to_bits(),
                        two_step.to_bits()
                    )],
                    bound: None,
                    limit: None,
                });
                break 'requant;
            }
        }
    }

    checks += 1;
    let half_away = |x: f64| -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        if x >= 0.0 {
            (x + 0.5).floor()
        } else {
            -((-x + 0.5).floor())
        }
    };
    for k in -131_072i64..=131_072 {
        // Half-integers hit every tie; the ±0.25 offsets hit both rounding
        // directions. All values are exact in f64, so the reference's
        // `+ 0.5` is exact too.
        for x in [k as f64 / 2.0, k as f64 / 2.0 + 0.25, k as f64 / 2.0 - 0.25] {
            let got = round_ties_away(x);
            let want = half_away(x);
            // Value equality: the reference produces -0.0 for negative
            // inputs rounding to zero, which is not part of the contract.
            if got != want {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "round-ties-equivalence".into(),
                    message: format!(
                        "round_ties_away({x}) = {got} but half-away-from-zero gives {want}"
                    ),
                    provenance: vec![],
                    bound: Some(got),
                    limit: Some(want),
                });
                return checks;
            }
        }
    }
    checks
}

/// Row isolation of the batched PG pass: `evaluate_log_score_rows_into`
/// on the CLI default datapath runs DyNorm row by row on bus words, then
/// reads every row's ROM codes and their total in one pass per row. The
/// check is a bounded-exhaustive differential — every row of a batch must
/// be bit-identical to that row evaluated alone on the `f64` reference
/// datapath (the same ROM as a `TableExp::with_range` table, which has no
/// distance address), across a grid of score patterns and row widths and
/// a stride that reads every ROM address: its codes must be the reference
/// probabilities times `2^bit_lut` (a `row-isolation` finding otherwise),
/// and its total must be the sum of those codes, the exact integer total
/// SD draws with, with no `f64` probability written beside them (a
/// `row-codes` finding otherwise). This is deliberately labeled a check,
/// not a bit-level theorem.
fn row_isolation_checks(findings: &mut Vec<Finding>) -> usize {
    let datapath = |exp| LogFusion::new(TableLog::new(64, 8), exp, QFormat::baseline32());
    let fusion = datapath(TableExp::new(64, 8));
    let reference = datapath(TableExp::with_range(64, 8, 16.0));
    let patterns: [&[f64]; 5] = [
        &[-5.0, -2.5, -9.75, -2.5],
        &[0.0, -1024.0, -0.5, -3.0],
        &[64.0, 0.25, -7.0, -1e6],
        &[-1.0, -1.0, -1.0, -1.0],
        &[LOG_ZERO, -15.99, -16.0, f64::NAN],
    ];
    let (mut stage, mut probs, mut alone, mut ops) =
        (RowCodes::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference_stage = RowCodes::new();
    let mut strides: Vec<Vec<&[f64]>> = [2usize, 4]
        .iter()
        .flat_map(|&width| {
            (1..=patterns.len())
                .map(move |rows| patterns[..rows].iter().map(|p| &p[..width]).collect())
        })
        .collect();
    // Every address of the ROM, the flush code included: label k sits k
    // addresses (0.25 nats each) below its row's maximum.
    let sweep: Vec<f64> = (0..=64).map(|k| -0.25 * k as f64).collect();
    strides.push(vec![&sweep, &sweep]);
    for stride in &strides {
        let (rows, width) = (stride.len(), stride[0].len());
        let batch = stride.concat();
        let mut telemetry = PgTelemetry::new();
        fusion.evaluate_log_score_rows_into(
            &batch,
            width,
            &mut stage,
            &mut probs,
            &mut ops,
            &mut telemetry,
            None,
        );
        let (codes, totals, bits) = stage.codes().unwrap_or((&[], &[], 0));
        let scale = (1u64 << bits) as f64;
        for (row, pat) in stride.iter().enumerate() {
            let mut telemetry = PgTelemetry::new();
            reference.evaluate_log_score_rows_into(
                pat,
                width,
                &mut reference_stage,
                &mut alone,
                &mut ops,
                &mut telemetry,
                None,
            );
            let got = codes.get(row * width..(row + 1) * width).unwrap_or(&[]);
            let images: Vec<f64> = got.iter().map(|&c| c as f64 / scale).collect();
            if images.len() != width
                || images
                    .iter()
                    .zip(&alone)
                    .any(|(g, w)| g.to_bits() != w.to_bits())
            {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "row-isolation".into(),
                    message: format!(
                        "evaluate_log_score_rows_into: the codes of row {row} of a {rows}×{width} \
                         batch are not that row's probabilities on the f64 reference datapath \
                         times 2^bit_lut"
                    ),
                    provenance: vec![
                        format!("batch row codes: {got:?} at {bits} bits"),
                        format!("alone: {alone:?}"),
                    ],
                    bound: None,
                    limit: None,
                });
                return 1;
            }
            let total = totals.get(row).copied();
            let want = alone.iter().map(|&w| (w * scale) as u64).sum::<u64>();
            if total != Some(want) || !probs.is_empty() {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "row-codes".into(),
                    message: format!(
                        "evaluate_log_score_rows_into: row {row} of a {rows}×{width} batch \
                         hands SD the total {total:?}, not its codes' sum {want}, or writes \
                         f64 probabilities beside its codes"
                    ),
                    provenance: vec![
                        format!("batch row codes: {got:?}"),
                        format!("f64 probabilities written: {}", probs.len()),
                    ],
                    bound: None,
                    limit: None,
                });
                return 1;
            }
        }
    }
    1
}

/// One count row: its counts, `width` to a column, its number of
/// numerator columns, and each column's `(constant, bound)`.
type CountRow = (Vec<u32>, usize, Vec<(f64, u32)>);

/// Count-row words: strides of count rows run through
/// `evaluate_count_rows_into`, which reads each factor's log word from a
/// table by count, and their `f64` images (each count plus its column's
/// constant) through `evaluate_factor_rows_into`. Every probability,
/// code, row total, op tally and telemetry value must agree bit for bit,
/// on the CLI
/// default (64x8: bus tables and the word finish) and on configurations
/// without bus tables (64x20: float log reads and the word finish; 100x8:
/// float log reads and the `f64` finish). The strides hold LDA-shaped
/// rows (`(DT+α)(VT+β) / (ΣVT+βV)` with α = 50/16, β = 0.01, βV = 2.56) at
/// widths 1, 16 and 128, counts of 0 and of each column's bound among
/// them, and edge rows whose zero constants read LOG_ZERO at count 0 and
/// whose +∞ constants saturate the bus. One `CountTables` serves every
/// configuration, as one PG batch may; any difference is a `count-words`
/// error.
fn count_word_checks(findings: &mut Vec<Finding>) -> usize {
    let datapath = |size, bit| {
        let exp = TableExp::new(size, bit);
        LogFusion::new(TableLog::new(size, bit), exp, QFormat::baseline32())
    };
    let configs = [
        ("64x8", datapath(64, 8)),
        ("64x20", datapath(64, 20)),
        ("100x8", datapath(100, 8)),
    ];
    let lda = |width: usize, seed: usize| -> CountRow {
        let columns = vec![(50.0 / 16.0, 80), (0.01, 300), (2.56, 9600)];
        let counts = (0..3 * width)
            .map(|i| {
                let bound = columns[i / width].1;
                match (i * 7919 + seed * 104_729) % 11 {
                    0 => 0,
                    1 => bound,
                    k => {
                        (i as u32)
                            .wrapping_mul(2_654_435_761)
                            .wrapping_add(k as u32)
                            % (bound + 1)
                    }
                }
            })
            .collect();
        (counts, 2, columns)
    };
    let edges = |width: usize| -> [CountRow; 2] {
        [
            (vec![0; 3 * width], 1, vec![(0.0, 4), (0.0, 4), (0.5, 4)]),
            (
                vec![2; 3 * width],
                2,
                vec![(f64::INFINITY, 2), (f64::INFINITY, 2), (0.0, 2)],
            ),
        ]
    };
    let mut strides: Vec<(usize, Vec<CountRow>)> = [1, 16, 128]
        .into_iter()
        .map(|width| (width, (0..3).map(|seed| lda(width, seed)).collect()))
        .collect();
    strides.extend([1, 16].map(|width| (width, edges(width).to_vec())));
    let mut tables = CountTables::new();
    let (mut stage, mut probs, mut ops) = (RowCodes::new(), Vec::new(), Vec::new());
    for (name, fusion) in &configs {
        for (width, rows) in &strides {
            let count_rows = rows
                .iter()
                .map(|(counts, n, columns)| (&counts[..], *n, columns.iter().copied()));
            let mut telemetry = PgTelemetry::new();
            fusion.evaluate_count_rows_into(
                count_rows,
                *width,
                &mut tables,
                &mut stage,
                &mut probs,
                &mut ops,
                &mut telemetry,
                None,
            );
            let got = outputs(&probs, &stage, &ops, &telemetry);
            let images: Vec<(Vec<f64>, Vec<f64>)> =
                rows.iter()
                    .map(|(counts, n, columns)| {
                        let values = counts.chunks(*width).zip(columns).flat_map(|(c, &(k, _))| {
                            c.iter().map(move |&count| f64::from(count) + k)
                        });
                        let mut numerators: Vec<f64> = values.collect();
                        let denominators = numerators.split_off(n * width);
                        (numerators, denominators)
                    })
                    .collect();
            let mut telemetry = PgTelemetry::new();
            fusion.evaluate_factor_rows_into(
                images.iter().map(|(n, d)| (&n[..], &d[..])),
                *width,
                &mut stage,
                &mut probs,
                &mut ops,
                &mut telemetry,
                None,
            );
            let want = outputs(&probs, &stage, &ops, &telemetry);
            if got != want {
                findings.push(Finding {
                    severity: Severity::Error,
                    check: "count-words".into(),
                    message: format!(
                        "evaluate_count_rows_into on {name}: a stride of {} count rows of width \
                         {width} differs from its f64 image on the factor path",
                        rows.len()
                    ),
                    provenance: vec![format!("count path: {got:?}"), format!("image: {want:?}")],
                    bound: None,
                    limit: None,
                });
                return 1;
            }
        }
    }
    1
}

/// An evaluation's codes, each row's total and their fraction bits.
type Codes = Option<(Vec<u64>, Vec<u64>, u32)>;

/// An evaluation's outputs as bits: probabilities, codes with their row
/// totals, op tallies and telemetry.
fn outputs(
    probs: &[f64],
    stage: &RowCodes,
    ops: &[OpCounts],
    telemetry: &PgTelemetry,
) -> (Vec<u64>, Codes, Vec<OpCounts>, [Option<u64>; 3]) {
    let t = telemetry;
    let codes = stage.codes();
    (
        probs.iter().map(|p| p.to_bits()).collect(),
        codes.map(|(codes, totals, bits)| (codes.to_vec(), totals.to_vec(), bits)),
        ops.to_vec(),
        [t.norm_max, t.exp_in_min, t.exp_in_max].map(|v| v.map(f64::to_bits)),
    )
}

/// Run the fused-quantizer, row-isolation and count-word checks. Returns
/// `(checks, findings)` for the `pg-words` section of the verify report.
pub fn verify_pg_words() -> (usize, Vec<Finding>) {
    let mut findings = Vec::new();
    let checks = quantizer_checks(&mut findings)
        + row_isolation_checks(&mut findings)
        + count_word_checks(&mut findings);
    (checks, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizer_and_row_checks_pass_clean() {
        let (checks, findings) = verify_pg_words();
        assert_eq!(checks, 4);
        assert!(
            findings.is_empty(),
            "clean words must verify: {findings:#?}"
        );
    }
}
