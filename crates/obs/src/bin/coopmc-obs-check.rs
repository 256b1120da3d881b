//! Validate a CoopMC run journal (JSONL) against the `coopmc-journal/2`
//! sweep schema, the `coopmc-health/1` chain-health schema (every journal
//! interleaves its chains' health lines with their sweep lines) and the
//! `coopmc-profile/1` profile schema (the per-run lines a `--profile` run
//! appends). CI runs this on the journals of short traced, monitored and
//! profiled runs.
//!
//! Usage: `coopmc-obs-check <journal.jsonl> [more.jsonl ...]`
//! Exits non-zero with a diagnostic on the first invalid file: 2 without
//! arguments, 1 for a file that cannot be read or does not validate. A
//! closed stdout or stderr drops the text, never the exit code.

use std::process::ExitCode;

use coopmc_obs::journal::validate_journal;
use coopmc_obs::{print_stderr, print_stdout};

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        print_stderr("usage: coopmc-obs-check <journal.jsonl> [more.jsonl ...]\n");
        return ExitCode::from(2);
    }
    for path in &paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: cannot read: {e}"))
            .and_then(|text| validate_journal(&text).map_err(|e| format!("{path}: INVALID: {e}")))
            .and_then(|lines| print_stdout(&format!("{path}: OK ({lines} journal lines)\n")));
        if let Err(msg) = checked {
            print_stderr(&format!("{msg}\n"));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
