//! Hot-path throughput: scalar versus batched PG, and pooled chromatic
//! sweeps across thread counts.
//!
//! Two measurements on a 128×128 MRF:
//!
//! 1. Scalar `generate_into` (reusing caller buffers) for the fixed-point
//!    and CoopMC pipelines, versus the lane-packed `generate_batch_into`,
//!    which evaluates a whole color-class slice (8 / 64 rows) per call.
//!    One more scalar CoopMC row (`generate_into/lda16`) evaluates a
//!    16-topic LDA-NIPS token row, so the gate also sees the factor path
//!    (TableLog → LogFusion), and `generate_log_rows_into/restore64`
//!    evaluates 8 flat 64-label image-restoration rows per call in place,
//!    the chromatic engine's MRF stride.
//! 2. The persistent-pool [`ChromaticEngine`] at 1/2/4/8 threads. Rows
//!    with more threads than `host_cpus` are marked `"starved": true`.
//!
//! Emits `BENCH_hotpath.json` (samples/sec) at the repo root. Run with
//! `cargo bench -p coopmc-bench --bench hot_path`.

use coopmc_bench::harness::{black_box, git_commit, json_array, Harness, JsonObject, Measurement};
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{
    CoopMcPipeline, FixedPipeline, PgBatch, PgOutput, ProbabilityPipeline,
};
use coopmc_models::mrf::{image_restoration, image_segmentation};
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_models::{GibbsModel, LabelScore};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
const WIDTH: usize = 128;
const HEIGHT: usize = 128;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn pg_row(name: &str, api: &str, m: &Measurement) -> String {
    JsonObject::new()
        .string("pipeline", name)
        .string("api", api)
        .number("median_ns", m.median_ns())
        .number("samples_per_sec", m.per_second())
        .render()
}

/// A batched-PG row: one call evaluates `rows` variables, so the per-row
/// time (directly comparable with the scalar rows above) is the per-call
/// median divided by the stride.
fn pg_batch_row(name: &str, api: &str, rows: usize, m: &Measurement) -> String {
    JsonObject::new()
        .string("pipeline", name)
        .string("api", api)
        .number("batch_rows", rows as f64)
        .number("median_ns", m.median_ns() / rows as f64)
        .number("samples_per_sec", m.per_second() * rows as f64)
        .render()
}

fn bench_pg(h: &Harness, rows: &mut Vec<String>) {
    let app = image_segmentation(WIDTH, HEIGHT, 2022);
    let var = WIDTH * (HEIGHT / 2) + WIDTH / 2;
    let mut scores: Vec<LabelScore> = Vec::new();
    app.mrf.scores_into(var, &mut scores);

    let fixed = FixedPipeline::new(8, true);
    let coopmc = CoopMcPipeline::new(64, 8);

    let mut out = PgOutput::new();
    let m = h.run("pg/fixed8/generate_into", || {
        black_box(&fixed).generate_into(&scores, &mut out);
        out.probs[0]
    });
    rows.push(pg_row("fixed8_dynorm", "generate_into", &m));

    let mut out = PgOutput::new();
    let m = h.run("pg/coopmc64x8/generate_into", || {
        black_box(&coopmc).generate_into(&scores, &mut out);
        out.probs[0]
    });
    rows.push(pg_row("coopmc64x8", "generate_into", &m));

    // One LDA-NIPS token: 16 factor rows `(DT+α)(VT+β)/(ΣVT+βV)`.
    let nips = all_workloads()
        .into_iter()
        .find(|w| w.name == "LDA-NIPS")
        .expect("LDA-NIPS is registered");
    let BuiltWorkload::Lda(lda) = nips.build_scaled(1.0, 2022) else {
        panic!("LDA-NIPS builds an LDA model");
    };
    let mut lda_scores: Vec<LabelScore> = Vec::new();
    lda.scores_into(lda.num_variables() / 2, &mut lda_scores);
    let mut out = PgOutput::new();
    let m = h.run("pg/coopmc64x8/generate_into/lda16", || {
        black_box(&coopmc).generate_into(&lda_scores, &mut out);
        out.probs[0]
    });
    rows.push(pg_row("coopmc64x8", "generate_into/lda16", &m));

    // Batched lane-packed evaluation: one call covers a whole color-class
    // slice of same-width variables (here: consecutive pixels of the center
    // row, all 2-label log-domain).
    let width = scores.len();
    for &batch_rows in &[8usize, 64] {
        let mut flat: Vec<LabelScore> = Vec::with_capacity(batch_rows * width);
        let mut tmp: Vec<LabelScore> = Vec::new();
        for r in 0..batch_rows {
            app.mrf.scores_into(var + r, &mut tmp);
            flat.extend(tmp.iter().cloned());
        }
        let mut batch = PgBatch::new();
        let m = h.run(
            &format!("pg/coopmc64x8/generate_batch_into/{batch_rows}"),
            || {
                black_box(&coopmc).generate_batch_into(black_box(&flat), width, &mut batch);
                batch.probs[0]
            },
        );
        let api = format!("generate_batch_into/rows={batch_rows}");
        rows.push(pg_batch_row("coopmc64x8", &api, batch_rows, &m));
    }

    // One chromatic stride of image restoration: 8 consecutive center-row
    // pixels' 64-label log-domain rows, gathered flat and read in place.
    let restore = image_restoration(WIDTH, HEIGHT, 2022).mrf;
    let stride = 8;
    let mut logs: Vec<f64> = Vec::with_capacity(stride * 64);
    for r in 0..stride {
        assert!(restore.log_scores_into(var + r, &mut logs));
    }
    let mut batch = PgBatch::new();
    let m = h.run("pg/coopmc64x8/generate_log_rows_into/restore64", || {
        black_box(&coopmc).generate_log_rows_into(black_box(&logs), 64, &mut batch);
        batch.probs[0]
    });
    let api = "generate_log_rows_into/restore64";
    rows.push(pg_batch_row("coopmc64x8", api, stride, &m));
}

fn bench_sweeps(h: &Harness, host_cpus: usize, rows: &mut Vec<String>) {
    let n_vars = (WIDTH * HEIGHT) as f64;
    for threads in THREAD_COUNTS {
        let engine = ChromaticEngine::new(FixedPipeline::new(8, true), threads, 11);
        let mut app = image_segmentation(WIDTH, HEIGHT, 2022);
        let mut it = 0u64;
        let m = h.run(&format!("sweep/pooled/{threads}t"), || {
            it += 1;
            engine.sweep(&mut app.mrf, it)
        });
        rows.push(
            JsonObject::new()
                .string("engine", "pooled")
                .number("threads", threads as f64)
                .number("median_sweep_ns", m.median_ns())
                .number("samples_per_sec", m.per_second() * n_vars)
                .raw("starved", (threads > host_cpus).to_string())
                .render(),
        );
    }
}

fn main() {
    let h = Harness::quick();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host_cpus = {host_cpus}");
    if host_cpus < *THREAD_COUNTS.iter().max().unwrap() {
        println!(
            "note: host exposes {host_cpus} CPU(s); thread counts above that are \
             starved — their rows are emitted with \"starved\": true and measure \
             dispatch overhead, not scaling"
        );
    }

    println!("\n== PG: generate_into vs generate_batch_into (128x128 MRF scores) ==");
    let mut pg_rows = Vec::new();
    bench_pg(&h, &mut pg_rows);

    println!("\n== Chromatic sweep: worker pool ==");
    let mut sweep_rows = Vec::new();
    bench_sweeps(&h, host_cpus, &mut sweep_rows);

    let doc = JsonObject::new()
        .string("schema", "coopmc-bench-hotpath/1")
        .string("version", env!("CARGO_PKG_VERSION"))
        .string("git_commit", &git_commit())
        .string("bench", "hot_path")
        .string("model", &format!("image_segmentation_{WIDTH}x{HEIGHT}"))
        .number("variables", (WIDTH * HEIGHT) as f64)
        .number("host_cpus", host_cpus as f64)
        // The bench always measures the raw hot path (no ChainHealth
        // observation, no span profiler); the gate refuses to compare
        // against a baseline whose flags differ.
        .raw("health_enabled", "false".to_owned())
        .raw("profile_enabled", "false".to_owned())
        .raw("pg", json_array(&pg_rows))
        .raw("sweeps", json_array(&sweep_rows))
        .render();
    std::fs::write(JSON_PATH, doc + "\n").expect("write BENCH_hotpath.json");
    println!("wrote {JSON_PATH}");
}
