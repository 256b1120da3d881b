//! The bench binaries print under the workspace's rule: a stdout or stderr
//! whose reader is gone drops the text, never the exit code, and a table
//! binary still writes its report JSON.

use std::process::{Command, Stdio};

use coopmc_bench::harness::REPORT_SCHEMA;
use coopmc_obs::json::{self, Value};

/// The exit code of `cmd` when its stdout, or with `on_stderr` its stderr,
/// is a pipe whose reader is already gone.
fn exit_code_with_a_closed_pipe(cmd: &mut Command, on_stderr: bool) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    if on_stderr {
        cmd.stdout(Stdio::null()).stderr(writer);
    } else {
        cmd.stdout(writer).stderr(Stdio::null());
    }
    cmd.status().expect("spawn the bench binary").code()
}

/// `bench_gate` exits 2 on a usage error it cannot report, and 0 when the
/// committed baseline, gated against itself, passes unprinted.
#[test]
fn bench_gate_keeps_its_exit_codes() {
    let gate = || Command::new(env!("CARGO_BIN_EXE_bench_gate"));
    assert_eq!(exit_code_with_a_closed_pipe(&mut gate(), true), Some(2));
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let mut passing = gate();
    passing.args([baseline, baseline]);
    assert_eq!(exit_code_with_a_closed_pipe(&mut passing, false), Some(0));
}

/// A table binary whose report cannot be printed exits 0 and still writes
/// `<id>.json` under `COOPMC_REPORT_DIR`.
#[test]
fn table_binaries_write_their_report_with_a_closed_stdout() {
    for (id, bin) in [
        ("table1_workloads", env!("CARGO_BIN_EXE_table1_workloads")),
        ("table3_area", env!("CARGO_BIN_EXE_table3_area")),
    ] {
        let dir = std::env::temp_dir().join(format!("coopmc-closed-{}-{id}", std::process::id()));
        let mut cmd = Command::new(bin);
        cmd.env("COOPMC_REPORT_DIR", &dir);
        let code = exit_code_with_a_closed_pipe(&mut cmd, false);
        let report = std::fs::read_to_string(dir.join(format!("{id}.json")));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(code, Some(0), "{id}");
        let report = report.unwrap_or_else(|e| panic!("{id} wrote no report JSON: {e}"));
        let doc = json::parse(report.trim()).expect("report JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(REPORT_SCHEMA)
        );
    }
}
