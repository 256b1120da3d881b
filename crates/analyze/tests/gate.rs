//! End-to-end tests of the `coopmc-verify` gate binary: exit codes and
//! diagnostics, exactly as CI consumes them.

use std::process::Command;

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
    assert!(stdout.contains("lane-datapath"));
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
    // The lane-datapath demo reports both seeded defects with bit/lane
    // provenance: the slipped guard mask bleeds lane 3 into lane 4, the
    // un-spread verdict emits a non-mask select byte.
    assert!(stdout.contains("depend on foreign input lanes"));
    assert!(stdout.contains("lane 4"));
    assert!(stdout.contains("non-mask byte"));
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
    // The two seeded lane defects are named findings CI can grep for.
    assert!(json.contains("\"check\":\"lane-isolation\""));
    assert!(json.contains("\"check\":\"lane-overflow\""));
    assert!(json.contains("\"check\":\"lane-mask\""));
    assert!(json.contains("carry into bit 32 (lane 4 boundary)"));
}

#[test]
fn only_flag_restricts_the_sweep_to_one_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-verify"))
        .args(["--only", "lane-datapath", "--json"])
        .output()
        .expect("run coopmc-verify --only lane-datapath --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "lane section must pass:\n{stdout}");
    let json = stdout.trim();
    assert!(json.contains("\"title\":\"lane-datapath\""));
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
    assert!(stderr.contains("lane-datapath"), "must list valid sections");
}

/// The acceptance guarantee of the lane section: every primitive the
/// batched exp address path is built on has a lane theorem.
#[test]
fn lane_theorems_cover_every_batch_primitive() {
    let proved = coopmc_analyze::bitflow::proved_primitives();
    for p in coopmc_kernels::exp::TableExp::BATCH_LANE_PRIMITIVES {
        assert!(
            proved.contains(p),
            "primitive {} used by the batched TableExp read has no lane theorem",
            p.name()
        );
    }
}
