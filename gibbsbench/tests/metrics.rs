//! The metric arithmetic, and the metric names against `BENCHMARK.json`.

use gibbsbench::report::{result_line, Metric};
use gibbsbench::stats::{block_rates, median, self_ns_per};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn span_self_time_per_update() {
    // 10 spans of a layer summing to 1000 ns, each reporting 20 ns of
    // its own: 800 ns of self time over 4 updates.
    assert_eq!(self_ns_per(1000, 10, 20.0, 4), 200.0);
    assert_eq!(self_ns_per(1000, 10, 20.0, 0), 0.0);
}

#[test]
fn block_rates_split_the_timed_clock() {
    // Eight sweeps of 1 s, except sweep 3 which took 5 s; four blocks of
    // two sweeps at 100 updates per sweep.
    let mut ends = Vec::new();
    let mut t = 0.0;
    for s in 1..=8 {
        t += if s == 3 { 5.0 } else { 1.0 };
        ends.push(t);
    }
    assert_eq!(
        block_rates(&ends, 100.0, 4),
        [100.0, 200.0 / 6.0, 100.0, 100.0]
    );
    // A remainder joins the last block: 3 blocks of 2, 2 and 4 sweeps.
    assert_eq!(block_rates(&ends, 100.0, 3), [100.0, 200.0 / 6.0, 100.0]);
}

#[test]
fn result_line_counts_failed_checks() {
    let metrics = [Metric {
        name: "setup_s",
        value: 0.5,
        unit: "s",
    }];
    let ok = result_line(&[("a", true), ("b", true)], &metrics);
    assert_eq!(
        ok,
        r#"{"correct":true,"attempted":2,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
    );
    let bad = result_line(&[("a", true), ("b", false)], &metrics);
    assert!(bad.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#));
}

#[test]
fn non_finite_values_never_reach_the_line_as_numbers() {
    let metrics = [Metric {
        name: "x",
        value: f64::NAN,
        unit: "s",
    }];
    assert!(result_line(&[], &metrics).contains(r#""value":null"#));
}
