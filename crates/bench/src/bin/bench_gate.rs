//! Regression gate for `BENCH_hotpath.json` PG-kernel rows.
//!
//! Usage: `coopmc-bench-gate <baseline.json> <candidate.json>` (the cargo
//! bin is `bench_gate`). Compares every `pg` row of the committed baseline
//! against the freshly measured candidate, matching rows by
//! `(pipeline, api)`. Exits nonzero when
//!
//! * a baseline `pg` row is missing from the candidate,
//! * any candidate `pg` row's `samples_per_sec` dropped more than
//!   [`TOLERANCE`] below its baseline value, or
//! * the two documents' `health_enabled` flags differ (a run measured with
//!   chain-health monitoring on is not comparable to one measured without;
//!   documents predating the flag count as `false`), or
//! * the two documents' `profile_enabled` flags differ (same reasoning:
//!   the span profiler adds per-call overhead, so profiled and unprofiled
//!   throughput numbers must never be gated against each other).
//!
//! Sweep rows are informational only: they depend on `host_cpus` and are
//! already marked `"starved"` when oversubscribed, so they are not gated.
//!
//! Exit codes: 0 when the gate passes, 1 when it fails, 2 for a usage
//! error, an unreadable document or a stdout that refuses writes. A closed
//! stdout or stderr drops the text, never the exit code.

use std::process::ExitCode;

use coopmc_obs::json::{parse, Value};
use coopmc_obs::{print_stderr, print_stdout};

/// Allowed fractional throughput regression before the gate fails (15%).
const TOLERANCE: f64 = 0.15;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(text.trim()).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Whether the document's rows were measured with chain-health monitoring
/// enabled. Documents from before the flag existed count as `false`.
fn health_enabled(doc: &Value) -> bool {
    matches!(doc.get("health_enabled"), Some(Value::Bool(true)))
}

/// Whether the document's rows were measured with the span profiler armed.
/// Profiling adds ring writes and phase timestamps to every hot-path call,
/// so profiled and unprofiled runs are not throughput-comparable. Documents
/// from before the flag existed count as `false`.
fn profile_enabled(doc: &Value) -> bool {
    matches!(doc.get("profile_enabled"), Some(Value::Bool(true)))
}

/// Extract `(pipeline/api, samples_per_sec)` for every `pg` row.
fn pg_rows(doc: &Value, path: &str) -> Result<Vec<(String, f64)>, String> {
    let rows = doc
        .get("pg")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"pg\" array"))?;
    rows.iter()
        .map(|row| {
            let pipeline = row
                .get("pipeline")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: pg row without \"pipeline\""))?;
            let api = row
                .get("api")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: pg row without \"api\""))?;
            let per_sec = row
                .get("samples_per_sec")
                .and_then(Value::as_num)
                .ok_or_else(|| format!("{path}: pg row without \"samples_per_sec\""))?;
            Ok((format!("{pipeline}/{api}"), per_sec))
        })
        .collect()
}

fn run(baseline_path: &str, candidate_path: &str) -> Result<bool, String> {
    let baseline_doc = load(baseline_path)?;
    let candidate_doc = load(candidate_path)?;
    let (base_health, cand_health) = (
        health_enabled(&baseline_doc),
        health_enabled(&candidate_doc),
    );
    if base_health != cand_health {
        return Err(format!(
            "health_enabled mismatch: baseline {base_health}, candidate {cand_health} — \
             rows measured under different health settings are not comparable"
        ));
    }
    let (base_prof, cand_prof) = (
        profile_enabled(&baseline_doc),
        profile_enabled(&candidate_doc),
    );
    if base_prof != cand_prof {
        return Err(format!(
            "profile_enabled mismatch: baseline {base_prof}, candidate {cand_prof} — \
             rows measured under different profiler settings are not comparable"
        ));
    }
    let baseline = pg_rows(&baseline_doc, baseline_path)?;
    let candidate = pg_rows(&candidate_doc, candidate_path)?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: empty \"pg\" array"));
    }

    let mut ok = true;
    let mut out = format!(
        "{:<48} {:>14} {:>14} {:>8}  verdict\n",
        "pg row", "baseline/s", "candidate/s", "delta"
    );
    for (key, base) in &baseline {
        match candidate.iter().find(|(k, _)| k == key) {
            None => {
                ok = false;
                out += &format!("{key:<48} {base:>14.0} {:>14} {:>8}  MISSING\n", "-", "-");
            }
            Some((_, new)) => {
                let delta = new / base - 1.0;
                let fail = delta < -TOLERANCE;
                ok &= !fail;
                out += &format!(
                    "{key:<48} {base:>14.0} {new:>14.0} {:>7.1}%  {}\n",
                    delta * 100.0,
                    if fail { "FAIL" } else { "ok" }
                );
            }
        }
    }
    for (key, _) in &candidate {
        if !baseline.iter().any(|(k, _)| k == key) {
            out += &format!("{key:<48} (new row, not gated)\n");
        }
    }
    if ok {
        out += &format!(
            "\nbench gate: all pg rows within {:.0}%\n",
            TOLERANCE * 100.0
        );
    }
    print_stdout(&out)?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, candidate] = match args.as_slice() {
        [b, c] => [b.clone(), c.clone()],
        _ => {
            print_stderr("usage: bench_gate <baseline.json> <candidate.json>\n");
            return ExitCode::from(2);
        }
    };
    match run(&baseline, &candidate) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            print_stderr(&format!(
                "\nbench gate: FAILED — pg throughput regressed more than {:.0}% \
                 (or a baseline row vanished)\n",
                TOLERANCE * 100.0
            ));
            ExitCode::FAILURE
        }
        Err(e) => {
            print_stderr(&format!("bench gate: {e}\n"));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &str) -> Value {
        parse(&format!("{{\"pg\": [{rows}]}}")).unwrap()
    }

    #[test]
    fn extracts_keyed_rows() {
        let d = doc(
            "{\"pipeline\": \"a\", \"api\": \"x\", \"samples_per_sec\": 10.0}, \
             {\"pipeline\": \"b\", \"api\": \"y\", \"samples_per_sec\": 20.0}",
        );
        let rows = pg_rows(&d, "t").unwrap();
        assert_eq!(rows[0], ("a/x".to_owned(), 10.0));
        assert_eq!(rows[1], ("b/y".to_owned(), 20.0));
    }

    #[test]
    fn missing_fields_are_reported() {
        let d = doc("{\"pipeline\": \"a\", \"samples_per_sec\": 1}");
        assert!(pg_rows(&d, "t").unwrap_err().contains("\"api\""));
        assert!(pg_rows(&parse("{}").unwrap(), "t").is_err());
    }

    #[test]
    fn health_flag_defaults_to_false_and_reads_true() {
        assert!(!health_enabled(&parse("{}").unwrap()));
        assert!(!health_enabled(
            &parse("{\"health_enabled\": false}").unwrap()
        ));
        assert!(health_enabled(
            &parse("{\"health_enabled\": true}").unwrap()
        ));
    }

    #[test]
    fn profile_flag_defaults_to_false_and_reads_true() {
        assert!(!profile_enabled(&parse("{}").unwrap()));
        assert!(!profile_enabled(
            &parse("{\"profile_enabled\": false}").unwrap()
        ));
        assert!(profile_enabled(
            &parse("{\"profile_enabled\": true}").unwrap()
        ));
    }

    #[test]
    fn mismatched_profile_flags_refuse_to_compare() {
        let row = "{\"pipeline\": \"a\", \"api\": \"x\", \"samples_per_sec\": 10}";
        let dir = std::env::temp_dir();
        let base = dir.join(format!("bench-gate-prof-base-{}.json", std::process::id()));
        let cand = dir.join(format!("bench-gate-prof-cand-{}.json", std::process::id()));
        // Baseline predates the flag entirely; candidate measured with the
        // profiler armed — the gate must refuse rather than compare.
        std::fs::write(&base, format!("{{\"pg\": [{row}]}}")).unwrap();
        std::fs::write(
            &cand,
            format!("{{\"profile_enabled\": true, \"pg\": [{row}]}}"),
        )
        .unwrap();
        let err = run(base.to_str().unwrap(), cand.to_str().unwrap()).unwrap_err();
        assert!(err.contains("profile_enabled mismatch"), "{err}");
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&cand);
    }

    #[test]
    fn mismatched_health_flags_refuse_to_compare() {
        let row = "{\"pipeline\": \"a\", \"api\": \"x\", \"samples_per_sec\": 10}";
        let dir = std::env::temp_dir();
        let base = dir.join(format!("bench-gate-base-{}.json", std::process::id()));
        let cand = dir.join(format!("bench-gate-cand-{}.json", std::process::id()));
        // Baseline predates the flag entirely; candidate measured with
        // health on — the gate must refuse rather than compare.
        std::fs::write(&base, format!("{{\"pg\": [{row}]}}")).unwrap();
        std::fs::write(
            &cand,
            format!("{{\"health_enabled\": true, \"pg\": [{row}]}}"),
        )
        .unwrap();
        let err = run(base.to_str().unwrap(), cand.to_str().unwrap()).unwrap_err();
        assert!(err.contains("health_enabled mismatch"), "{err}");
        // Matching flags (both absent/false): the gate compares normally.
        assert!(run(base.to_str().unwrap(), base.to_str().unwrap()).unwrap());
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&cand);
    }
}
