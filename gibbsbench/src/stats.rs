//! Order statistics and the metric arithmetic every run shares.

/// Median of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Per-item self time of a layer: the summed span durations minus the
/// calibrated cost an empty span reports for itself, once per span.
pub fn self_ns_per(total_ns: u64, spans: u64, empty_span_ns: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        (total_ns as f64 - spans as f64 * empty_span_ns) / items as f64
    }
}

/// Rates of a run split into `blocks` contiguous blocks of sweeps:
/// `ends[i]` is the timed clock at the end of sweep `i + 1`, `per_sweep`
/// the work one sweep does. Blocks are the same length; a remainder joins
/// the last block.
///
/// # Panics
///
/// Panics if `blocks == 0` or there are fewer sweeps than blocks.
pub fn block_rates(ends: &[f64], per_sweep: f64, blocks: usize) -> Vec<f64> {
    assert!(blocks > 0 && ends.len() >= blocks, "need a sweep per block");
    let len = ends.len() / blocks;
    (0..blocks)
        .map(|b| {
            let first = b * len;
            let last = if b + 1 == blocks {
                ends.len() - 1
            } else {
                first + len - 1
            };
            let start = if first == 0 { 0.0 } else { ends[first - 1] };
            (last + 1 - first) as f64 * per_sweep / (ends[last] - start)
        })
        .collect()
}
