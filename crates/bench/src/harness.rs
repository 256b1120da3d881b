//! A small self-contained timing harness for the `benches/` targets.
//!
//! The container this repo builds in is offline, so the benches cannot pull
//! an external benchmarking framework; this module provides the pieces they
//! need: optimizer-barrier [`black_box`], automatic iteration calibration,
//! multi-sample measurement with median reporting, and throughput
//! conversion. Deterministic-ish and dependency-free by design.

use std::time::{Duration, Instant};

use coopmc_obs::{json, print_stderr, print_stdout, Exposition};

/// Re-export of the optimizer barrier: forces the compiler to materialize
/// `x` without letting it optimize the producing computation away.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One benchmark measurement: several timed samples of a calibrated
/// iteration count.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `"tree_sample/n=64"`.
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Nanoseconds per iteration, one entry per sample.
    pub samples_ns: Vec<f64>,
}

impl Measurement {
    /// Median nanoseconds per iteration.
    pub fn median_ns(&self) -> f64 {
        let mut s = self.samples_ns.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    }

    /// Best (minimum) nanoseconds per iteration.
    pub fn min_ns(&self) -> f64 {
        self.samples_ns
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }

    /// Iterations per second at the median sample.
    pub fn per_second(&self) -> f64 {
        1e9 / self.median_ns()
    }

    /// Print a one-line `name  median  (min)` report.
    pub fn report(&self) {
        print_or_warn(&format!(
            "{:<44} {:>12}  (min {:>10})\n",
            self.name,
            format_ns(self.median_ns()),
            format_ns(self.min_ns())
        ));
    }
}

/// Print `text` to stdout under [`print_stdout`]'s rule. A bench binary
/// goes on to write its files whatever stdout does: a closed stdout drops
/// the text, and any other write error is a warning on stderr.
pub fn print_or_warn(text: &str) {
    if let Err(e) = print_stdout(text) {
        print_stderr(&format!("warning: {e}\n"));
    }
}

/// Human-readable time per iteration.
fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Benchmark runner with calibrated per-sample iteration counts.
#[derive(Debug, Clone)]
pub struct Harness {
    warmup: Duration,
    sample_time: Duration,
    samples: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Standard settings: 50 ms warm-up, 9 samples of ≈40 ms each.
    pub fn new() -> Self {
        Self {
            warmup: Duration::from_millis(50),
            sample_time: Duration::from_millis(40),
            samples: 9,
        }
    }

    /// Faster, less precise settings for long-running workloads.
    pub fn quick() -> Self {
        Self {
            warmup: Duration::from_millis(10),
            sample_time: Duration::from_millis(15),
            samples: 5,
        }
    }

    /// Time `f`, returning the calibrated multi-sample measurement and
    /// printing a one-line report.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Warm-up + calibration: count how many iterations fit the warm-up
        // window, then scale to the per-sample target.
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters = ((self.sample_time.as_secs_f64() / per_iter).ceil() as u64).clamp(1, u64::MAX);

        let samples_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        let m = Measurement {
            name: name.to_owned(),
            iters,
            samples_ns,
        };
        m.report();
        m
    }
}

/// Minimal JSON writer for benchmark emission (the repo is offline: no
/// serde). Only what `BENCH_*.json` files need — objects, arrays, strings,
/// and finite numbers.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_owned(), json_str(value)));
        self
    }

    /// Add a finite-number field.
    pub fn number(mut self, key: &str, value: f64) -> Self {
        assert!(value.is_finite(), "JSON numbers must be finite");
        self.fields.push((key.to_owned(), json_num(value)));
        self
    }

    /// Add an already-rendered JSON value (object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Render to a JSON object string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Render a list of rendered JSON values as an array.
pub fn json_array(values: &[String]) -> String {
    format!("[{}]", values.join(", "))
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// `v` as a JSON number (`null` if non-finite).
fn json_num(v: f64) -> String {
    let mut out = String::new();
    json::write_num(&mut out, v);
    out
}

/// `v` with `decimals` digits after the point, or as `{:.3e}` when it is
/// nonzero but smaller in magnitude than one unit of the last digit.
fn render_num(v: f64, decimals: usize) -> String {
    if v != 0.0 && v.abs() < 10f64.powi(-(decimals as i32)) {
        format!("{v:.3e}")
    } else {
        format!("{v:.decimals$}")
    }
}

/// One cell of a [`Table`] row.
///
/// Text cells render left-aligned; numeric cells right-aligned with a fixed
/// number of decimals, except that a nonzero value below that resolution
/// prints in scientific notation with 4 significant digits rather than as
/// zero. In the JSON emission, text cells become strings and numeric cells
/// become numbers (non-finite values become `null`).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Left-aligned text.
    Text(String),
    /// Right-aligned number rendered with the given decimal count.
    Num(f64, usize),
    /// Right-aligned number rendered with the given decimal count and a
    /// unit suffix (e.g. `"%"`, `"x"`, `" um2"`) appended on stdout only.
    Unit(f64, usize, &'static str),
    /// Right-aligned integer.
    Int(i64),
}

impl Cell {
    /// Text cell from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// Number cell with `decimals` digits after the point.
    pub fn num(v: f64, decimals: usize) -> Self {
        Cell::Num(v, decimals)
    }

    /// Number cell rendered with a trailing unit on stdout.
    pub fn unit(v: f64, decimals: usize, suffix: &'static str) -> Self {
        Cell::Unit(v, decimals, suffix)
    }

    /// Integer cell.
    pub fn int(v: i64) -> Self {
        Cell::Int(v)
    }

    /// Stdout rendering (no padding).
    fn render_text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v, d) => render_num(*v, *d),
            Cell::Unit(v, d, suffix) => format!("{}{suffix}", render_num(*v, *d)),
            Cell::Int(v) => format!("{v}"),
        }
    }

    /// JSON value rendering.
    fn render_json(&self) -> String {
        match self {
            Cell::Text(s) => json_str(s),
            Cell::Num(v, _) | Cell::Unit(v, _, _) => json_num(*v),
            Cell::Int(v) => format!("{v}"),
        }
    }

    fn is_text(&self) -> bool {
        matches!(self, Cell::Text(_))
    }
}

/// A column-aligned results table collected by a [`Report`].
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: Option<String>,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(columns: &[&str]) -> Self {
        Self {
            title: None,
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// New table with a title line printed above the header row.
    pub fn titled(title: &str, columns: &[&str]) -> Self {
        Self {
            title: Some(title.to_owned()),
            ..Self::new(columns)
        }
    }

    /// Append a row. Shorter rows are padded with empty text cells; extra
    /// cells are a caller bug and panic.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert!(
            cells.len() <= self.columns.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.columns.len()
        );
        let mut cells = cells;
        cells.resize(self.columns.len(), Cell::text(""));
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the aligned stdout view.
    fn render_stdout(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render_text).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(i, (c, w))| {
                if i == 0 {
                    format!("{c:<w$}")
                } else {
                    format!("{c:>w$}")
                }
            })
            .collect();
        out.push_str(header.join("  ").trim_end());
        out.push('\n');
        for (row, cells) in self.rows.iter().zip(&rendered) {
            let line: Vec<String> = row
                .iter()
                .zip(cells)
                .zip(&widths)
                .enumerate()
                .map(|(i, ((cell, text), w))| {
                    if cell.is_text() && i == 0 {
                        format!("{text:<w$}")
                    } else {
                        format!("{text:>w$}")
                    }
                })
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out
    }

    /// Render the JSON view.
    fn render_json(&self) -> String {
        let columns: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Cell::render_json).collect();
                json_array(&cells)
            })
            .collect();
        let title = match &self.title {
            Some(t) => json_str(t),
            None => "null".to_owned(),
        };
        format!(
            "{{\"title\": {title}, \"columns\": {}, \"rows\": {}}}",
            json_array(&columns),
            json_array(&rows)
        )
    }
}

/// Schema identifier embedded in every report JSON file.
pub const REPORT_SCHEMA: &str = "coopmc-report/1";

/// Resolve the git commit to stamp into emitted artifacts: the
/// `COOPMC_GIT_COMMIT` env var if set (CI passes it), else
/// `git rev-parse --short HEAD`, else `"unknown"`.
pub fn git_commit() -> String {
    if let Ok(c) = std::env::var("COOPMC_GIT_COMMIT") {
        let c = c.trim().to_owned();
        if !c.is_empty() {
            return c;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A structured experiment report: the shared replacement for the ad-hoc
/// `println!` dumping the regeneration bins used to do.
///
/// Collect tables and notes, then call [`Report::finish`] once: it prints
/// the banner, every table and every note to stdout **and** writes the same
/// content as `results/<id>.json` (directory overridable with
/// `COOPMC_REPORT_DIR`) with schema/version/git-commit provenance, so runs
/// are diffable across machines and commits.
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    title: String,
    description: String,
    tables: Vec<Table>,
    notes: Vec<String>,
    metrics: Option<String>,
}

impl Report {
    /// New report. `id` names the JSON file (`results/<id>.json`); `title`
    /// is the paper artifact ("Table II", "Figure 10", ...).
    pub fn new(id: &str, title: &str, description: &str) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            description: description.to_owned(),
            tables: Vec::new(),
            notes: Vec::new(),
            metrics: None,
        }
    }

    /// Attach a finished table.
    pub fn push(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Attach a free-form note (printed after the tables; the paper
    /// cross-reference goes here).
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_owned());
        self
    }

    /// Embed `metrics` in the JSON emission (key `"metrics"`) as
    /// Prometheus text, so a bin that drove an instrumented engine ships
    /// its phase counters and pool gauges alongside its tables.
    pub fn attach_metrics(&mut self, metrics: &Exposition) -> &mut Self {
        self.metrics = Some(metrics.render());
        self
    }

    /// Render the stdout view (banner, tables, notes).
    pub fn render_stdout(&self) -> String {
        let mut out = String::new();
        out.push_str("================================================================\n");
        out.push_str(&format!("{}: {}\n", self.title, self.description));
        out.push_str("================================================================\n");
        for table in &self.tables {
            out.push('\n');
            out.push_str(&table.render_stdout());
        }
        for note in &self.notes {
            out.push_str(&format!("\npaper reference: {note}\n"));
        }
        out
    }

    /// Render the JSON emission, including provenance fields.
    pub fn render_json(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::render_json).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let mut obj = JsonObject::new()
            .string("schema", REPORT_SCHEMA)
            .string("id", &self.id)
            .string("title", &self.title)
            .string("description", &self.description)
            .string("version", env!("CARGO_PKG_VERSION"))
            .string("git_commit", &git_commit())
            .raw("tables", json_array(&tables))
            .raw("notes", json_array(&notes));
        if let Some(m) = &self.metrics {
            obj = obj.string("metrics", m);
        }
        obj.render()
    }

    /// Print the report to stdout and write `results/<id>.json`.
    ///
    /// The output directory defaults to `results/` under the current
    /// directory and can be overridden with `COOPMC_REPORT_DIR`. A failure
    /// to write the JSON file is reported on stderr but does not kill the
    /// bin — the stdout view already happened. Printing goes through
    /// [`print_or_warn`], so the JSON file is written whatever stdout does.
    pub fn finish(&self) {
        print_or_warn(&self.render_stdout());
        let dir = std::env::var("COOPMC_REPORT_DIR").unwrap_or_else(|_| "results".to_owned());
        let path = std::path::Path::new(&dir).join(format!("{}.json", self.id));
        let write = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.render_json() + "\n"));
        match write {
            Ok(()) => print_or_warn(&format!("\nreport JSON: {}\n", path.display())),
            Err(e) => print_stderr(&format!("warning: cannot write {}: {e}\n", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_stats() {
        let h = Harness {
            warmup: Duration::from_millis(2),
            sample_time: Duration::from_millis(1),
            samples: 3,
        };
        let m = h.run("noop", || 1 + 1);
        assert!(m.iters >= 1);
        assert_eq!(m.samples_ns.len(), 3);
        assert!(m.median_ns() >= m.min_ns());
        assert!(m.per_second() > 0.0);
    }

    #[test]
    fn json_rendering() {
        let obj = JsonObject::new()
            .string("name", "a \"b\"")
            .number("x", 2.0)
            .number("y", 2.5)
            .raw("list", json_array(&["1".into(), "2".into()]));
        assert_eq!(
            obj.render(),
            "{\"name\": \"a \\\"b\\\"\", \"x\": 2, \"y\": 2.5, \"list\": [1, 2]}"
        );
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 us");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
    }

    #[test]
    fn table_aligns_columns_to_content() {
        let mut t = Table::new(&["name", "v"]);
        t.row(vec![Cell::text("a-long-label"), Cell::num(1.25, 2)]);
        t.row(vec![Cell::text("b"), Cell::unit(50.0, 0, "%")]);
        let s = t.render_stdout();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "name             v");
        assert_eq!(lines[1], "a-long-label  1.25");
        assert_eq!(lines[2], "b              50%");
    }

    #[test]
    fn values_below_the_printed_resolution_render_in_scientific_notation() {
        let mut t = Table::new(&["v"]);
        t.row(vec![Cell::num(1.2e-10, 9)]);
        t.row(vec![Cell::num(3.7e-12, 9)]);
        t.row(vec![Cell::num(0.0, 9)]);
        t.row(vec![Cell::num(0.001234, 3)]);
        t.row(vec![Cell::unit(-1.604e-28, 4, "x")]);
        let s = t.render_stdout();
        let cells: Vec<&str> = s.lines().skip(1).map(str::trim).collect();
        assert_eq!(
            cells,
            [
                "1.200e-10",
                "3.700e-12",
                "0.000000000",
                "0.001",
                "-1.604e-28x"
            ]
        );
        // The JSON keeps the plain numbers.
        assert!(t
            .render_json()
            .contains("[[0.00000000012], [0.0000000000037], [0], "));
    }

    #[test]
    fn report_json_has_provenance_and_round_trips() {
        let mut report = Report::new("unit_test", "Table T", "a test");
        let mut t = Table::titled("sub", &["k", "x"]);
        t.row(vec![Cell::text("row"), Cell::num(f64::NAN, 1)]);
        report.push(t).note("compare against nothing");
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"coopmc-report/1\""));
        assert!(json.contains("\"git_commit\": \""));
        assert!(json.contains("\"version\": \""));
        // NaN must not leak into the JSON.
        assert!(json.contains("null"));
        assert!(!json.contains("NaN"));
        let parsed = coopmc_obs::json::parse(&json).expect("report JSON parses");
        assert!(parsed.get("tables").is_some());
        assert_eq!(parsed.get("id").unwrap().as_str(), Some("unit_test"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(vec![Cell::int(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.render_json().contains("[1, \"\", \"\"]"));
    }
}
