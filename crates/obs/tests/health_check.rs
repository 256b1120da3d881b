//! `coopmc-obs-check` end-to-end: the real binary accepts a journal whose
//! health lines are well-formed and rejects corrupted fixtures — out-of-range
//! diagnostics (R-hat below 1, negative ESS, ESS exceeding the window) and
//! non-monotone health iterations — with a pointed diagnostic on stderr. A
//! closed stdout or stderr changes none of its exit codes.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use coopmc_obs::health::HealthRecord;
use coopmc_obs::journal::render_health_line;

/// A well-formed health record `iter` sweeps in.
fn record(iter: u64) -> HealthRecord {
    HealthRecord {
        chain: 0,
        iteration: iter,
        samples: iter,
        window: iter.min(64),
        mean: 12.5,
        variance: 3.25,
        ess: Some(6.0),
        rhat: Some(1.021),
        rhat_split: Some(0.997),
        mcse: Some(0.74),
        flip_rate: 0.31,
        events_stuck: 0,
        events_drift: 1,
        events_fallback: 0,
    }
}

/// A valid two-line health journal.
fn valid_journal() -> String {
    format!(
        "{}\n{}\n",
        render_health_line(&record(8)),
        render_health_line(&record(16))
    )
}

/// Write `contents` to a uniquely named fixture file and return its path.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "coopmc-obs-check-{}-{name}.jsonl",
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
fn valid_health_journal_passes() {
    let (ok, stdout, stderr) = check("valid", &valid_journal());
    assert!(ok, "valid journal rejected: {stderr}");
    assert!(stdout.contains("OK (2 journal lines)"), "stdout: {stdout}");
}

#[test]
fn rhat_below_one_fails_the_check() {
    let corrupted = valid_journal().replace("\"rhat\":1.021", "\"rhat\":0.92");
    assert_ne!(
        corrupted,
        valid_journal(),
        "corruption must hit the fixture"
    );
    let (ok, _, stderr) = check("low-rhat", &corrupted);
    assert!(!ok, "R-hat 0.92 must fail a rank-normalized health line");
    assert!(
        stderr.contains("INVALID") && stderr.contains("rhat"),
        "stderr: {stderr}"
    );
}

#[test]
fn negative_ess_fails_the_check() {
    let corrupted = valid_journal().replace("\"ess\":6", "\"ess\":-6");
    let (ok, _, stderr) = check("neg-ess", &corrupted);
    assert!(!ok, "negative ESS must fail");
    assert!(stderr.contains("ess"), "stderr: {stderr}");
}

#[test]
fn ess_beyond_the_window_fails_the_check() {
    // ESS is a sample count: it cannot exceed the samples in the window.
    let corrupted = valid_journal().replace("\"ess\":6", "\"ess\":4096");
    let (ok, _, stderr) = check("huge-ess", &corrupted);
    assert!(!ok, "ESS 4096 over a 16-sample window must fail");
    assert!(stderr.contains("ess"), "stderr: {stderr}");
}

#[test]
fn non_monotone_health_iterations_fail_the_check() {
    let backwards = format!(
        "{}\n{}\n",
        render_health_line(&record(16)),
        render_health_line(&record(8))
    );
    let (ok, _, stderr) = check("backwards", &backwards);
    assert!(
        !ok,
        "health iterations must be strictly increasing per chain"
    );
    assert!(stderr.contains("iteration"), "stderr: {stderr}");
}

/// The exit code of `coopmc-obs-check <args>` when its stdout, or with
/// `on_stderr` its stderr, is a pipe whose reader is already gone.
fn exit_code_with_a_closed_pipe(args: &[&OsStr], on_stderr: bool) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_coopmc-obs-check"));
    cmd.args(args);
    if on_stderr {
        cmd.stdout(Stdio::null()).stderr(writer);
    } else {
        cmd.stdout(writer).stderr(Stdio::null());
    }
    cmd.status().expect("coopmc-obs-check must run").code()
}

/// Usage and read errors keep their exit codes, 2 and 1, when the message
/// cannot be printed.
#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    assert_eq!(exit_code_with_a_closed_pipe(&[], true), Some(2));
    let missing = OsStr::new("/nonexistent.jsonl");
    assert_eq!(exit_code_with_a_closed_pipe(&[missing], true), Some(1));
}

/// A valid journal passes when its verdict cannot be printed.
#[test]
fn a_closed_stdout_keeps_the_exit_code() {
    let path = fixture("closed-stdout", &valid_journal());
    let code = exit_code_with_a_closed_pipe(&[path.as_os_str()], false);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(0));
}
