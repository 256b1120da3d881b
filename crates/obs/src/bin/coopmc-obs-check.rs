//! Validate a CoopMC run journal (JSONL) against the `coopmc-journal/1`
//! sweep schema, the `coopmc-health/1` chain-health schema (lines of the
//! two kinds may interleave) and the `coopmc-profile/1` profile schema (the
//! per-run lines a `--profile` run appends). CI runs this on the journals
//! of short traced, monitored and profiled runs.
//!
//! Usage: `coopmc-obs-check <journal.jsonl> [more.jsonl ...]`
//! Exits non-zero with a diagnostic on the first invalid file.

use std::process::ExitCode;

use coopmc_obs::journal::validate_journal;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: coopmc-obs-check <journal.jsonl> [more.jsonl ...]");
        return ExitCode::from(2);
    }
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        match validate_journal(&text) {
            Ok(lines) => println!("{path}: OK ({lines} journal lines)"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
