//! `coopmc-obs-check` end-to-end on `coopmc-profile/1` lines: the real
//! binary accepts a journal whose profile rows are well-formed (alone or
//! interleaved with sweep/health lines) and rejects corrupted fixtures —
//! unknown kernel names, self time exceeding total time, span-stack
//! imbalance, and negative counts — with a pointed diagnostic on stderr.

use std::path::PathBuf;
use std::process::Command;

use coopmc_obs::journal::render_profile_line;
use coopmc_obs::ProfileSample;

/// A well-formed profile row for `kernel` on lane `worker`.
fn sample(worker: u64, kernel: coopmc_obs::Kernel) -> ProfileSample {
    ProfileSample {
        chain: 0,
        worker,
        kernel: kernel.name(),
        phase: kernel.phase(),
        calls: 4,
        total_ns: 9000,
        self_ns: 7500,
        modeled_cycles: 1200,
        spans_dropped: 0,
        unclosed: 0,
    }
}

/// A valid profile journal covering the coordinator and one worker lane.
fn valid_journal() -> String {
    use coopmc_obs::Kernel;
    [
        sample(0, Kernel::Sweep),
        sample(0, Kernel::PuUpdate),
        sample(1, Kernel::PgGather),
        sample(1, Kernel::PgNormalize),
        sample(1, Kernel::SdSampleRows),
    ]
    .iter()
    .map(|s| render_profile_line(s) + "\n")
    .collect()
}

/// Write `contents` to a uniquely named fixture file and return its path.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "coopmc-profile-check-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("fixture must be writable");
    path
}

/// Run the real `coopmc-obs-check` binary on `journal`, returning
/// (exit-success, stdout, stderr).
fn check(name: &str, journal: &str) -> (bool, String, String) {
    let path = fixture(name, journal);
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc-obs-check"))
        .arg(&path)
        .output()
        .expect("coopmc-obs-check must run");
    let _ = std::fs::remove_file(&path);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn accepts_a_valid_profile_journal() {
    let (ok, stdout, stderr) = check("valid", &valid_journal());
    assert!(ok, "valid profile journal must pass: {stderr}");
    assert!(stdout.contains("OK (5 journal lines)"), "{stdout}");
}

#[test]
fn accepts_profile_lines_interleaved_with_sweep_lines() {
    // A real `--journal-out` file mixes sweep samples and the appended
    // profile section; the checker must dispatch per line on `schema`.
    let sweep = "{\"schema\":\"coopmc-journal/2\",\"chain\":0,\"iteration\":1,\
                 \"start_ns\":0,\"wall_ns\":100,\"updates\":4,\"flips\":2,\
                 \"uniform_fallbacks\":0,\"pg_ns\":40,\"sd_ns\":30,\"pu_ns\":20,\
                 \"pg_cycles\":400,\"sd_cycles\":300,\"pu_cycles\":16,\
                 \"pg_batches\":1,\"pg_batch_rows\":4,\"norm_max\":null,\
                 \"exp_in_min\":null,\"exp_in_max\":null,\"stat\":null}\n";
    let journal = format!("{sweep}{}", valid_journal());
    let (ok, _, stderr) = check("interleaved", &journal);
    assert!(ok, "mixed journal must pass: {stderr}");
}

#[test]
fn rejects_an_unknown_kernel_name() {
    let bad = render_profile_line(&sample(0, coopmc_obs::Kernel::Sweep))
        .replace("\"sweep\"", "\"warp.shuffle\"");
    let (ok, _, stderr) = check("unknown-kernel", &(bad + "\n"));
    assert!(!ok, "unknown kernel must fail");
    assert!(stderr.contains("unknown kernel 'warp.shuffle'"), "{stderr}");
}

#[test]
fn rejects_self_time_exceeding_total_time() {
    let mut s = sample(0, coopmc_obs::Kernel::Sweep);
    s.self_ns = s.total_ns + 1;
    let (ok, _, stderr) = check("self-over-total", &(render_profile_line(&s) + "\n"));
    assert!(!ok, "self > total must fail");
    assert!(stderr.contains("exceeds total-time"), "{stderr}");
}

#[test]
fn rejects_span_stack_imbalance() {
    let mut s = sample(1, coopmc_obs::Kernel::PgGather);
    s.unclosed = 3;
    let (ok, _, stderr) = check("unclosed", &(render_profile_line(&s) + "\n"));
    assert!(!ok, "unclosed spans must fail");
    assert!(stderr.contains("span-stack imbalance"), "{stderr}");
}

#[test]
fn rejects_negative_durations() {
    let bad = render_profile_line(&sample(0, coopmc_obs::Kernel::Sweep))
        .replace("\"self_ns\":7500", "\"self_ns\":-7500");
    let (ok, _, stderr) = check("negative", &(bad + "\n"));
    assert!(!ok, "negative duration must fail");
    assert!(stderr.contains("non-negative"), "{stderr}");
}

#[test]
fn rejects_a_phase_mismatch() {
    let bad = render_profile_line(&sample(1, coopmc_obs::Kernel::PgGather))
        .replace("\"phase\":\"pg\"", "\"phase\":\"pu\"");
    let (ok, _, stderr) = check("phase-mismatch", &(bad + "\n"));
    assert!(!ok, "phase mismatch must fail");
    assert!(stderr.contains("belongs to phase 'pg'"), "{stderr}");
}
