//! Hot-path throughput: PG over one row versus a stride of rows, and
//! pooled chromatic sweeps across thread counts.
//!
//! Two measurements on a 128×128 MRF:
//!
//! 1. `generate_rows_into`, the one PG entry point both engines call, for
//!    the fixed-point and CoopMC pipelines: over one gathered row (the
//!    sequential scan's call) and over a whole color-class slice of 8 / 64
//!    rows (the chromatic stride, through the batched datapath). One
//!    more CoopMC row evaluates a 16-topic LDA-NIPS token row, so the gate
//!    also sees the factor path (TableLog → LogFusion), and another 8
//!    gathered 64-label image-restoration rows, the chromatic engine's MRF
//!    stride. The JSON rows keep their baseline keys: `generate_into`
//!    (one row), `generate_into/lda16`, `generate_batch_into/rows={8,64}`
//!    and `generate_log_rows_into/restore64`, named after the calls the
//!    engines made when the baseline was recorded.
//! 2. The persistent-pool [`ChromaticEngine`] at 1/2/4/8 threads. Rows
//!    with more threads than `host_cpus` are marked `"starved": true`.
//!
//! Emits `BENCH_hotpath.json` (samples/sec) at the repo root. Run with
//! `cargo bench -p coopmc-bench --bench hot_path`.

use coopmc_bench::harness::{black_box, git_commit, json_array, Harness, JsonObject, Measurement};
use coopmc_core::parallel::ChromaticEngine;
use coopmc_core::pipeline::{CoopMcPipeline, FixedPipeline, PgBatch, ProbabilityPipeline};
use coopmc_models::mrf::{image_restoration, image_segmentation};
use coopmc_models::workloads::{all_workloads, BuiltWorkload};
use coopmc_models::{GibbsModel, ScoreRows};

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

/// The score rows of `vars`, gathered onto one stride.
fn gather(model: &dyn GibbsModel, vars: impl IntoIterator<Item = usize>) -> ScoreRows {
    let mut rows = ScoreRows::new();
    for var in vars {
        model.row_into(var, &mut rows);
    }
    rows
}

fn bench_pg(h: &Harness, rows: &mut Vec<String>) {
    let app = image_segmentation(WIDTH, HEIGHT, 2022);
    let var = WIDTH * (HEIGHT / 2) + WIDTH / 2;
    let row = gather(&app.mrf, [var]);

    let fixed = FixedPipeline::new(8, true);
    let coopmc = CoopMcPipeline::new(64, 8);

    let mut out = PgBatch::new();
    let m = h.run("pg/fixed8/one_row", || {
        black_box(&fixed).generate_rows_into(black_box(&row), &mut out);
        out.probs[0]
    });
    rows.push(pg_row("fixed8_dynorm", "generate_into", &m));

    let mut out = PgBatch::new();
    let m = h.run("pg/coopmc64x8/one_row", || {
        black_box(&coopmc).generate_rows_into(black_box(&row), &mut out);
        out.weights().images().next()
    });
    rows.push(pg_row("coopmc64x8", "generate_into", &m));

    // One LDA-NIPS token: a 16-topic count row `(DT+α)(VT+β)/(ΣVT+βV)`.
    let nips = all_workloads()
        .into_iter()
        .find(|w| w.name == "LDA-NIPS")
        .expect("LDA-NIPS is registered");
    let BuiltWorkload::Lda(lda) = nips.build_scaled(1.0, 2022) else {
        panic!("LDA-NIPS builds an LDA model");
    };
    let token = gather(&lda, [lda.num_variables() / 2]);
    let mut out = PgBatch::new();
    let m = h.run("pg/coopmc64x8/one_row/lda16", || {
        black_box(&coopmc).generate_rows_into(black_box(&token), &mut out);
        out.weights().images().next()
    });
    rows.push(pg_row("coopmc64x8", "generate_into/lda16", &m));

    // Batched evaluation: one call covers a whole color-class slice of
    // same-width variables (here: consecutive pixels of the center row,
    // all 2-label log-domain).
    for &batch_rows in &[8usize, 64] {
        let stride = gather(&app.mrf, var..var + batch_rows);
        let mut batch = PgBatch::new();
        let m = h.run(&format!("pg/coopmc64x8/stride/{batch_rows}"), || {
            black_box(&coopmc).generate_rows_into(black_box(&stride), &mut batch);
            batch.weights().images().next()
        });
        let api = format!("generate_batch_into/rows={batch_rows}");
        rows.push(pg_batch_row("coopmc64x8", &api, batch_rows, &m));
    }

    // One chromatic stride of image restoration: 8 consecutive center-row
    // pixels' 64-label log-domain rows.
    let restore = image_restoration(WIDTH, HEIGHT, 2022).mrf;
    let stride = 8;
    let restore_rows = gather(&restore, var..var + stride);
    let mut batch = PgBatch::new();
    let m = h.run("pg/coopmc64x8/stride/restore64", || {
        black_box(&coopmc).generate_rows_into(black_box(&restore_rows), &mut batch);
        batch.weights().images().next()
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

    println!("\n== PG: one row vs a stride per call (128x128 MRF scores) ==");
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
