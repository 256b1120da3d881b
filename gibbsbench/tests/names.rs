//! The metrics a run prints are the ones `BENCHMARK.json` declares.

use gibbsbench::e2e::E2e;
use gibbsbench::layered::Layers;
use gibbsbench::report::{end_to_end, per_layer};

/// The `"name"` values of one top-level section of `BENCHMARK.json`.
fn names(spec: &str, section: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn printed_metrics_match_the_declared_ones() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let e2e = E2e::default();
    let printed: Vec<String> = end_to_end(&e2e).iter().map(|m| m.name.to_owned()).collect();
    assert_eq!(printed, names(&spec, "end_to_end"));
    let printed: Vec<String> = per_layer(&e2e, &Layers::default(), 0.0, 1)
        .iter()
        .map(|m| m.name.to_owned())
        .collect();
    assert_eq!(printed, names(&spec, "per_layer"));
}
