//! End-to-end tests of the `coopmc-verify` gate binary: exit codes and
//! diagnostics, exactly as CI consumes them.
//!
//! The `--json` and `--demo-broken --json` reports are pinned byte for byte
//! by the goldens under `tests/golden/`. Regenerate them with
//! `COOPMC_BLESS=1 cargo test -p coopmc-analyze --test gate`.

use std::path::PathBuf;
use std::process::Command;

use coopmc_testkit::assert_golden;

/// Run the gate binary with `args` and compare its stdout with the golden
/// `name`.
fn assert_report_golden(args: &[&str], name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .args(args)
        .output()
        .expect("run coopmc-verify");
    let stdout = String::from_utf8(out.stdout).expect("the report is UTF-8");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    assert_golden(&dir, name, &stdout);
}

#[test]
fn gate_passes_on_the_current_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .output()
        .expect("run coopmc-verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gate must pass on the in-tree configuration:\n{stdout}"
    );
    assert!(stdout.contains("PASSED"));
    assert!(stdout.contains("netlist-ranges"));
    assert!(stdout.contains("datapath-contracts"));
    assert!(stdout.contains("error-propagation"));
    assert!(stdout.contains("pipeline-schedules"));
    assert!(stdout.contains("pg-words"));
    assert!(stdout.contains("chromatic-schedules"));
}

#[test]
fn gate_emits_structured_json_for_ci() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .arg("--json")
        .output()
        .expect("run coopmc-verify --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "gate must pass:\n{stdout}");
    let json = stdout.trim();
    assert!(json.starts_with("{\"schema_version\":1,\"status\":\"passed\""));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"sections\":["));
    for title in coopmc_analyze::verify::SECTION_TITLES {
        assert!(
            json.contains(&format!("\"title\":\"{title}\"")),
            "missing section {title} in JSON output"
        );
    }
}

#[test]
fn json_report_matches_its_golden() {
    assert_report_golden(&["--json"], "coopmc-verify.json");
}

#[test]
fn broken_json_report_matches_its_golden() {
    assert_report_golden(
        &["--demo-broken", "--json"],
        "coopmc-verify-demo-broken.json",
    );
}

#[test]
fn gate_fails_on_a_broken_config_with_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .arg("--demo-broken")
        .output()
        .expect("run coopmc-verify --demo-broken");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "gate must fail on the broken demo config:\n{stdout}"
    );
    // The diagnostic names the violated contract and the concrete numbers.
    assert!(stdout.contains("lut-covers-dynorm-range"));
    assert!(stdout.contains("demo-broken"));
    assert!(stdout.contains("FAILED"));
    // The error-propagation demo names the dominant error source, the
    // schedule demo flags the under-claimed formula and the broken II.
    assert!(stdout.contains("lut-step"));
    assert!(stdout.contains("under-claims"));
    assert!(stdout.contains("II = 1"));
}

#[test]
fn broken_json_carries_bounds_limits_and_provenance() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .args(["--demo-broken", "--json"])
        .output()
        .expect("run coopmc-verify --demo-broken --json");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    assert!(json.starts_with("{\"schema_version\":1,\"status\":\"failed\""));
    assert!(json.contains("\"check\":\"error-tv-bound\""));
    assert!(json.contains("\"limit\":0.02"));
    assert!(json.contains("\"check\":\"tree-latency\""));
    assert!(json.contains("\"check\":\"pipe-tree-ii\""));
    // Wire-level provenance survives into the artifact.
    assert!(json.contains("\"provenance\":[\"lut-step"));
    // Every other seeded-defect family is a named finding CI greps for.
    for check in [
        "lut-covers-dynorm-range",
        "batched-pg-latency",
        "census-drift",
    ] {
        let key = format!("\"check\":\"{check}\"");
        assert!(json.contains(&key), "missing {check}");
    }
}

#[test]
fn only_flag_restricts_the_sweep_to_one_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .args(["--only", "pg-words", "--json"])
        .output()
        .expect("run coopmc-verify --only pg-words --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "pg-words section must pass:\n{stdout}"
    );
    let json = stdout.trim();
    assert!(json.contains("\"title\":\"pg-words\""));
    // Exactly one section runs.
    assert_eq!(json.matches("\"title\":").count(), 1);
    // The big sweeps are skipped.
    assert!(!json.contains("descriptor-drift"));
}

#[test]
fn only_flag_rejects_unknown_sections_with_the_vocabulary() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .args(["--only", "no-such-section"])
        .output()
        .expect("run coopmc-verify --only no-such-section");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-section"));
    assert!(stderr.contains("pg-words"), "must list valid sections");
}

#[test]
fn unknown_flags_are_refused_by_name() {
    for flag in ["--demo-brokn", "--jsn"] {
        let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
            .arg(flag)
            .output()
            .expect("run coopmc-verify with a mistyped flag");
        assert!(!out.status.success(), "{flag} must fail the gate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} must run no sweep");
    }
}
