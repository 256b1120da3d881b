//! Counters, gauges and histograms rendered in the Prometheus text
//! exposition format.
//!
//! Metrics are a reducer over what a run recorded, built when they are
//! written: [`TraceRecorder::metrics`](crate::TraceRecorder::metrics) sums
//! its sweep samples and [`ChainHealth::metrics`](crate::ChainHealth::metrics)
//! reports its last refresh, each into an [`Exposition`] that
//! [`Exposition::render`] turns into text.
//!
//! Metric identity is `name` plus an ordered label set, mirroring the
//! Prometheus data model: `coopmc_pool_worker_busy_ns{worker="3"}`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// A histogram with fixed, caller-supplied bucket upper bounds plus the
/// implicit `+Inf` bucket, tracking count and sum like Prometheus.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// One count per finite bound plus the `+Inf` slot.
    buckets: Vec<u64>,
    /// Sum of observations, added in observation order.
    sum: f64,
}

impl Histogram {
    /// Build a histogram with the given finite bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.sum += v;
    }
}

/// One series' value.
#[derive(Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Metric identity: name plus ordered label pairs.
type Key = (String, Vec<(String, String)>);

/// A set of named series, sorted by name and then label set, with
/// Prometheus text exposition. Setting a series twice keeps the second
/// value.
#[derive(Debug, Default)]
pub struct Exposition {
    series: BTreeMap<Key, Metric>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the counter `name{labels}`.
    pub fn set_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.series
            .insert(key_of(name, labels), Metric::Counter(value));
    }

    /// Set the gauge `name{labels}`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.series
            .insert(key_of(name, labels), Metric::Gauge(value));
    }

    /// Set the histogram `name{labels}`.
    pub fn set_histogram(&mut self, name: &str, labels: &[(&str, &str)], value: Histogram) {
        self.series
            .insert(key_of(name, labels), Metric::Histogram(value));
    }

    /// Add every series of `other`, replacing any this one already holds.
    pub fn extend(&mut self, other: Exposition) {
        self.series.extend(other.series);
    }

    /// Render every series in the Prometheus text exposition format. A
    /// `# TYPE` header is emitted exactly once per metric family, followed
    /// by one sample line per series; label values are escaped per the
    /// exposition format (`\` → `\\`, `"` → `\"`, newline → `\n`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for ((name, labels), metric) in &self.series {
            if name != family {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                family = name;
            }
            let series = render_labels(labels);
            let _ = match metric {
                Metric::Counter(c) => writeln!(out, "{name}{series} {c}"),
                Metric::Gauge(g) => writeln!(out, "{name}{series} {g}"),
                Metric::Histogram(h) => {
                    let mut cum = 0;
                    for (i, c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = h.bounds.get(i).map_or("+Inf".to_owned(), f64::to_string);
                        let mut with_le = labels.clone();
                        with_le.push(("le".to_owned(), le));
                        let _ = writeln!(out, "{name}_bucket{} {cum}", render_labels(&with_le));
                    }
                    // The `+Inf` bucket's cumulative count is every observation.
                    let _ = writeln!(out, "{name}_sum{series} {}", h.sum);
                    writeln!(out, "{name}_count{series} {cum}")
                }
            };
        }
        out
    }
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> Key {
    (
        name.to_owned(),
        labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect(),
    )
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Fixed power-of-two histogram bounds `2^lo, 2^(lo+1), …, 2^hi` —
/// logarithmic coverage for latency-style distributions where one linear
/// bucket width can't span microseconds to seconds.
///
/// # Panics
///
/// Panics unless `lo < hi`.
pub fn log2_buckets(lo: i32, hi: i32) -> Vec<f64> {
    assert!(lo < hi, "log2 bucket range must be non-empty");
    (lo..=hi).map(|p| (p as f64).exp2()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram with `bounds` that observed `values` in order.
    fn observed(bounds: &[f64], values: &[f64]) -> Histogram {
        let mut h = Histogram::new(bounds);
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut e = Exposition::new();
        e.set_counter("test_total", &[], 5);
        e.set_gauge("test_level", &[("shard", "a")], 2.5);
        let text = e.render();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 5"));
        assert!(text.contains("test_level{shard=\"a\"} 2.5"));
        // Setting a series again keeps the later value.
        e.set_gauge("test_level", &[("shard", "a")], 4.0);
        assert!(e.render().contains("test_level{shard=\"a\"} 4\n"));
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = observed(&[1.0, 10.0, 100.0], &[0.5, 5.0, 5.0, 50.0, 500.0]);
        assert!((h.sum - 560.5).abs() < 1e-9);
        assert_eq!(h.buckets, [1, 2, 1, 1]);
        let mut e = Exposition::new();
        e.set_histogram("lat", &[], h);
        let text = e.render();
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"10\"} 3"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_count 5"));
    }

    #[test]
    fn histogram_edge_values_land_in_the_le_bucket() {
        // Prometheus buckets are `v <= bound`: a value exactly on a bound
        // belongs to that bound's bucket, not the next one.
        let mut h = observed(&[1.0, 2.0, 4.0], &[1.0, 2.0, 4.0]);
        assert_eq!(h.buckets, [1, 1, 1, 0]);
        // Just past an edge spills into the next bucket.
        h.observe(1.0000000001);
        assert_eq!(h.buckets, [1, 2, 1, 0]);
    }

    #[test]
    fn histogram_underflow_and_overflow_buckets() {
        // Below every bound (including negative and zero): first bucket.
        // Above every bound: the +Inf bucket.
        let h = observed(&[10.0, 100.0], &[-5.0, 0.0, 9.9, 101.0, f64::MAX]);
        assert_eq!(h.buckets, [3, 0, 2]);
    }

    #[test]
    fn histogram_le_exposition_is_cumulative_and_ordered() {
        let mut e = Exposition::new();
        let h = observed(&[1.0, 2.0, 4.0], &[0.5, 1.0, 2.0, 3.0, 8.0]);
        e.set_histogram("edges", &[], h);
        let text = e.render();
        // `le` lines appear in ascending bound order, ending at +Inf, with
        // cumulative counts.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("edges_bucket"))
            .collect();
        assert_eq!(
            lines,
            vec![
                "edges_bucket{le=\"1\"} 2",
                "edges_bucket{le=\"2\"} 3",
                "edges_bucket{le=\"4\"} 4",
                "edges_bucket{le=\"+Inf\"} 5",
            ]
        );
        assert!(text.contains("edges_count 5"));
    }

    #[test]
    fn log2_buckets_are_exact_powers_and_strictly_increasing() {
        let b = log2_buckets(0, 4);
        assert_eq!(b, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        let wide = log2_buckets(-2, 20);
        assert_eq!(wide[0], 0.25);
        assert_eq!(*wide.last().unwrap(), 1_048_576.0);
        assert!(wide.windows(2).all(|w| w[0] < w[1]));
        // Power-of-two values sit exactly on their own edge bucket.
        let h = observed(&log2_buckets(0, 3), &[4.0]);
        assert_eq!(h.buckets, [0, 0, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn log2_buckets_reject_empty_range() {
        let _ = log2_buckets(3, 3);
    }

    #[test]
    fn label_sets_are_distinct_series() {
        let mut e = Exposition::new();
        e.set_counter("c", &[("w", "0")], 1);
        e.set_counter("c", &[("w", "1")], 2);
        e.set_gauge("other", &[], 1.0);
        let text = e.render();
        assert!(text.contains("c{w=\"0\"} 1"));
        assert!(text.contains("c{w=\"1\"} 2"));
        // One TYPE header per family, however many series it holds.
        assert_eq!(text.matches("# TYPE c counter").count(), 1);
        assert_eq!(text.matches("# TYPE other gauge").count(), 1);
        assert_eq!(text.matches("# TYPE").count(), 2);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.set_counter("esc", &[("path", "a\\b\"c\nd")], 1);
        let text = e.render();
        assert!(
            text.contains(r#"esc{path="a\\b\"c\nd"} 1"#),
            "escaped series line missing in:\n{text}"
        );
        // The raw newline must never reach the exposition output: every
        // sample stays on one physical line.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "sample split across lines: {line:?}"
            );
        }
    }
}
