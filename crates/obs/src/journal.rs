//! The run journal: one JSONL record per sweep per chain.
//!
//! Every enabled recorder emits the same schema (`coopmc-journal/2`),
//! whether the sweep came from the sequential [`GibbsEngine`], the
//! chromatic worker-pool engine or a bench harness — so regression tooling
//! can diff runs across engines, precision configs and PRs. Each line
//! carries the Table II phase split (wall time *and* modeled hardware
//! cycles), the DyNorm/TableExp kernel telemetry of §III, the sweep's
//! label flips, uniform fallbacks and model statistic, and per-color
//! worker-pool utilization. The chain's convergence diagnostics are not
//! on the sweep lines: they are the interleaved `coopmc-health/1` lines,
//! one series per chain.
//!
//! [`GibbsEngine`]: ../../coopmc_core/engine/struct.GibbsEngine.html

use crate::health::HealthRecord;
use crate::json::{self, Value};

/// Schema identifier embedded in every journal line.
pub const SCHEMA: &str = "coopmc-journal/2";

/// Schema identifier of chain-health records interleaved into the journal.
pub const HEALTH_SCHEMA: &str = "coopmc-health/1";

/// Schema identifier of kernel-profile records appended to the journal.
pub const PROFILE_SCHEMA: &str = "coopmc-profile/1";

/// Per-color-class worker-pool sample within one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColorSample {
    /// Color-class index within the sweep.
    pub class: u64,
    /// Clock reading at the class's dispatch (not journaled; it places the
    /// class's Chrome-trace span).
    pub start_ns: u64,
    /// Wall time of the class barrier (dispatch → last commit), ns.
    pub wall_ns: u64,
    /// Summed worker busy time inside the barrier, ns.
    pub busy_ns: u64,
    /// `busy / (wall × threads)` — 1.0 means no worker ever idled.
    pub utilization: f64,
}

/// One journal record: everything observed about one sweep of one chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSample {
    /// Chain identifier (0 for single-chain runs).
    pub chain: u64,
    /// 1-based sweep index; strictly increasing within a chain.
    pub iteration: u64,
    /// Nanoseconds since the recorder epoch at sweep start.
    pub start_ns: u64,
    /// Wall time of the whole sweep, ns.
    pub wall_ns: u64,
    /// Variables resampled this sweep.
    pub updates: u64,
    /// Resampled variables whose label changed.
    pub flips: u64,
    /// Draws that hit the all-zero-mass uniform fallback (the Fig. 2
    /// flush regime).
    pub uniform_fallbacks: u64,
    /// Wall time in Probability Generation, ns.
    pub pg_ns: u64,
    /// Wall time in Sampling-from-Distribution, ns.
    pub sd_ns: u64,
    /// Wall time in Parameter Update, ns.
    pub pu_ns: u64,
    /// Modeled PG datapath cycles this sweep.
    pub pg_cycles: u64,
    /// Modeled sampler cycles this sweep.
    pub sd_cycles: u64,
    /// Modeled PU cycles this sweep (`PU_CYCLES × updates`).
    pub pu_cycles: u64,
    /// The chromatic engine's PG strides (`generate_rows_into` calls) this
    /// sweep, one-row strides included; 0 for the sequential engine.
    pub pg_batches: u64,
    /// Total rows evaluated through those strides this sweep.
    pub pg_batch_rows: u64,
    /// Largest NormTree maximum observed across the sweep's PG calls
    /// (`None` when no DyNorm datapath ran).
    pub norm_max: Option<f64>,
    /// Smallest exp-kernel input observed (post-normalization).
    pub exp_in_min: Option<f64>,
    /// Largest exp-kernel input observed (post-normalization).
    pub exp_in_max: Option<f64>,
    /// Model statistic after this sweep (MRF energy, BN log joint, LDA
    /// log-likelihood), when the run computed one.
    pub stat: Option<f64>,
    /// Per-color worker-pool utilization (chromatic engine only).
    pub colors: Vec<ColorSample>,
    /// Every pool slot's cumulative totals at the sweep's end, slot 0
    /// first (chromatic engine only; not journaled, they feed the pool
    /// gauges).
    pub slots: Vec<WorkerStats>,
}

/// A snapshot of one pool slot's cumulative accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Nanoseconds this slot has spent running tasks.
    pub busy_ns: u64,
    /// Tasks this slot has run (one per broadcast it took part in).
    pub jobs: u64,
}

/// The Table II runtime breakdown `(PG%, SD%, PU%)` of journaled sweeps:
/// each phase's share of the summed `pg_ns` / `sd_ns` / `pu_ns`. `None`
/// when the sweeps carry no phase time (no sweeps, or a clockless
/// recorder).
pub fn phase_percent(sweeps: &[SweepSample]) -> Option<(f64, f64, f64)> {
    let (pg, sd, pu) = sweeps.iter().fold((0u64, 0u64, 0u64), |(pg, sd, pu), s| {
        (pg + s.pg_ns, sd + s.sd_ns, pu + s.pu_ns)
    });
    let total = (pg + sd + pu) as f64;
    (total > 0.0).then(|| {
        let pct = |ns: u64| 100.0 * ns as f64 / total;
        (pct(pg), pct(sd), pct(pu))
    })
}

/// Render one journal line (no trailing newline).
pub fn render_line(s: &SweepSample) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    out.push_str("\"schema\":");
    json::write_str(&mut out, SCHEMA);
    for (key, v) in [
        ("chain", s.chain),
        ("iteration", s.iteration),
        ("start_ns", s.start_ns),
        ("wall_ns", s.wall_ns),
        ("updates", s.updates),
        ("flips", s.flips),
        ("uniform_fallbacks", s.uniform_fallbacks),
        ("pg_ns", s.pg_ns),
        ("sd_ns", s.sd_ns),
        ("pu_ns", s.pu_ns),
        ("pg_cycles", s.pg_cycles),
        ("sd_cycles", s.sd_cycles),
        ("pu_cycles", s.pu_cycles),
        ("pg_batches", s.pg_batches),
        ("pg_batch_rows", s.pg_batch_rows),
    ] {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
    for (key, v) in [
        ("norm_max", s.norm_max),
        ("exp_in_min", s.exp_in_min),
        ("exp_in_max", s.exp_in_max),
        ("stat", s.stat),
    ] {
        out.push_str(&format!(",\"{key}\":"));
        json::write_opt_num(&mut out, v);
    }
    out.push_str(",\"colors\":[");
    for (i, c) in s.colors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"class\":{},\"wall_ns\":{},\"busy_ns\":{},\"utilization\":",
            c.class, c.wall_ns, c.busy_ns
        ));
        json::write_num(&mut out, c.utilization);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Render one chain-health record as its `coopmc-health/1` journal line
/// (no trailing newline). Health lines carry the streaming diagnostics a
/// [`crate::health::ChainHealth`] refreshed at that iteration; they are
/// interleaved with the sweep lines of the same chain.
pub fn render_health_line(r: &HealthRecord) -> String {
    let mut out = String::with_capacity(320);
    out.push('{');
    out.push_str("\"schema\":");
    json::write_str(&mut out, HEALTH_SCHEMA);
    for (key, v) in [
        ("chain", r.chain),
        ("iteration", r.iteration),
        ("samples", r.samples),
        ("window", r.window),
        ("events_stuck", r.events_stuck),
        ("events_drift", r.events_drift),
        ("events_fallback", r.events_fallback),
    ] {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
    for (key, v) in [
        ("mean", r.mean),
        ("variance", r.variance),
        ("flip_rate", r.flip_rate),
    ] {
        out.push_str(&format!(",\"{key}\":"));
        json::write_num(&mut out, v);
    }
    for (key, v) in [
        ("ess", r.ess),
        ("rhat", r.rhat),
        ("rhat_split", r.rhat_split),
        ("mcse", r.mcse),
    ] {
        out.push_str(&format!(",\"{key}\":"));
        json::write_opt_num(&mut out, v);
    }
    out.push('}');
    out
}

/// Check what every journal line carries: the `schema` tag `schema`, a
/// numeric `chain`, and each of `counts` as a non-negative integer.
fn check_header(v: &Value, schema: &str, counts: &[&str]) -> Result<(), String> {
    let tag = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema' field")?;
    if tag != schema {
        return Err(format!("schema '{tag}' is not '{schema}'"));
    }
    v.get("chain")
        .and_then(Value::as_num)
        .ok_or("missing numeric 'chain'")?;
    for &key in counts {
        let n = v
            .get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("missing numeric '{key}'"))?;
        if n < 0.0 || n != n.trunc() {
            return Err(format!("'{key}' must be a non-negative integer, got {n}"));
        }
    }
    Ok(())
}

/// The fields a health line must carry as non-negative integers.
const HEALTH_COUNTS: [&str; 6] = [
    "iteration",
    "samples",
    "window",
    "events_stuck",
    "events_drift",
    "events_fallback",
];

/// Validate one parsed `coopmc-health/1` line: structural checks plus the
/// diagnostic range rules — rank-normalized `rhat` must be ≥ 1, `ess` must
/// be non-negative and can never exceed the samples it was computed from,
/// `mcse` and `variance` must be non-negative and `flip_rate` must be a
/// fraction. (`rhat_split` is the classic unclamped estimator and is only
/// required to be a number or null.)
pub fn validate_health_line(v: &Value) -> Result<(), String> {
    check_header(v, HEALTH_SCHEMA, &HEALTH_COUNTS)?;
    if v.get("iteration").and_then(Value::as_num) == Some(0.0) {
        return Err("'iteration' is 1-based and must be positive".to_owned());
    }
    let samples = v.get("samples").and_then(Value::as_num).unwrap_or(0.0);
    let window = v.get("window").and_then(Value::as_num).unwrap_or(0.0);
    if window > samples {
        return Err(format!("'window' {window} exceeds 'samples' {samples}"));
    }
    for key in ["mean", "variance", "flip_rate"] {
        v.get(key)
            .and_then(Value::as_num)
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("missing finite numeric '{key}'"))?;
    }
    let num_or_null = |key: &str| -> Result<Option<f64>, String> {
        match v.get(key) {
            Some(field) if field.is_null() => Ok(None),
            Some(field) => field
                .as_num()
                .map(Some)
                .ok_or_else(|| format!("'{key}' must be a number or null")),
            None => Err(format!("missing '{key}'")),
        }
    };
    if let Some(ess) = num_or_null("ess")? {
        if ess < 0.0 {
            return Err(format!("'ess' must be non-negative, got {ess}"));
        }
        if ess > window {
            return Err(format!(
                "'ess' {ess} exceeds the window of {window} samples"
            ));
        }
    }
    if let Some(rhat) = num_or_null("rhat")? {
        if rhat < 1.0 {
            return Err(format!("rank-normalized 'rhat' must be >= 1.0, got {rhat}"));
        }
    }
    num_or_null("rhat_split")?;
    if let Some(mcse) = num_or_null("mcse")? {
        if mcse < 0.0 {
            return Err(format!("'mcse' must be non-negative, got {mcse}"));
        }
    }
    let fr = v.get("flip_rate").and_then(Value::as_num).unwrap_or(0.0);
    if !(0.0..=1.0).contains(&fr) {
        return Err(format!("'flip_rate' {fr} outside [0, 1]"));
    }
    let var = v.get("variance").and_then(Value::as_num).unwrap_or(0.0);
    if var < 0.0 {
        return Err(format!("'variance' must be non-negative, got {var}"));
    }
    Ok(())
}

/// One `(worker lane, kernel)` attribution row of the `coopmc-profile/1`
/// journal section, rendered by [`render_profile_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSample {
    /// Chain identifier (0 for single-chain runs).
    pub chain: u64,
    /// Lane index: 0 is the coordinator, `i > 0` is pool worker `i - 1`.
    pub worker: u64,
    /// Kernel wire name (one of the [`crate::profile::Kernel`] names).
    pub kernel: &'static str,
    /// Phase the kernel belongs to (`root`, `pg`, `sd`, `pu`, `pool`).
    pub phase: &'static str,
    /// Number of closed spans.
    pub calls: u64,
    /// Inclusive wall time, ns.
    pub total_ns: u64,
    /// Exclusive wall time, ns (`self_ns ≤ total_ns`).
    pub self_ns: u64,
    /// Modeled hardware cycles attributed to this row.
    pub modeled_cycles: u64,
    /// Ring-capacity span losses on this lane.
    pub spans_dropped: u64,
    /// Span-stack imbalance events on this lane (0 on a healthy run).
    pub unclosed: u64,
}

/// Render one `coopmc-profile/1` journal line (no trailing newline).
pub fn render_profile_line(s: &ProfileSample) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    out.push_str("\"schema\":");
    json::write_str(&mut out, PROFILE_SCHEMA);
    out.push_str(&format!(",\"chain\":{},\"worker\":{}", s.chain, s.worker));
    out.push_str(",\"kernel\":");
    json::write_str(&mut out, s.kernel);
    out.push_str(",\"phase\":");
    json::write_str(&mut out, s.phase);
    for (key, v) in [
        ("calls", s.calls),
        ("total_ns", s.total_ns),
        ("self_ns", s.self_ns),
        ("modeled_cycles", s.modeled_cycles),
        ("spans_dropped", s.spans_dropped),
        ("unclosed", s.unclosed),
    ] {
        out.push_str(&format!(",\"{key}\":{v}"));
    }
    out.push('}');
    out
}

/// The fields a profile line must carry as non-negative integers.
const PROFILE_COUNTS: [&str; 7] = [
    "worker",
    "calls",
    "total_ns",
    "self_ns",
    "modeled_cycles",
    "spans_dropped",
    "unclosed",
];

/// Validate one parsed `coopmc-profile/1` line: the kernel name must be in
/// the profiler vocabulary with its matching phase, every count must be a
/// non-negative integer (negative durations are impossible by
/// construction and rejected here), self time can never exceed total
/// time, and `unclosed` must be zero — a nonzero value means the span
/// stack was imbalanced during the run.
pub fn validate_profile_line(v: &Value) -> Result<(), String> {
    check_header(v, PROFILE_SCHEMA, &PROFILE_COUNTS)?;
    let name = v
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or("missing string 'kernel'")?;
    let kernel = crate::profile::Kernel::from_name(name)
        .ok_or_else(|| format!("unknown kernel '{name}'"))?;
    let phase = v
        .get("phase")
        .and_then(Value::as_str)
        .ok_or("missing string 'phase'")?;
    if phase != kernel.phase() {
        return Err(format!(
            "kernel '{name}' belongs to phase '{}', got '{phase}'",
            kernel.phase()
        ));
    }
    let total = v.get("total_ns").and_then(Value::as_num).unwrap_or(0.0);
    let self_ns = v.get("self_ns").and_then(Value::as_num).unwrap_or(0.0);
    if self_ns > total {
        return Err(format!(
            "self-time {self_ns} exceeds total-time {total} for kernel '{name}'"
        ));
    }
    let unclosed = v.get("unclosed").and_then(Value::as_num).unwrap_or(0.0);
    if unclosed != 0.0 {
        return Err(format!(
            "span-stack imbalance: {unclosed} unclosed spans on worker lane for kernel '{name}'"
        ));
    }
    Ok(())
}

/// The fields a journal line must carry as non-negative integers.
const REQUIRED_COUNTS: [&str; 14] = [
    "iteration",
    "start_ns",
    "wall_ns",
    "updates",
    "flips",
    "uniform_fallbacks",
    "pg_ns",
    "sd_ns",
    "pu_ns",
    "pg_cycles",
    "sd_cycles",
    "pu_cycles",
    "pg_batches",
    "pg_batch_rows",
];

/// The fields that must be present as a finite number **or** `null`.
const NULLABLE_NUMS: [&str; 4] = ["norm_max", "exp_in_min", "exp_in_max", "stat"];

/// Validate one parsed journal line against the `coopmc-journal/2` schema.
///
/// Checks the schema tag, that every required count field is present and a
/// non-negative integer-valued number, that nullable numeric fields are
/// numbers or `null`, and that `colors` (if present) is an array of
/// well-formed color samples with `0 ≤ utilization ≤ 1`.
pub fn validate_line(v: &Value) -> Result<(), String> {
    check_header(v, SCHEMA, &REQUIRED_COUNTS)?;
    if v.get("iteration").and_then(Value::as_num) == Some(0.0) {
        return Err("'iteration' is 1-based and must be positive".to_owned());
    }
    for key in NULLABLE_NUMS {
        match v.get(key) {
            Some(field) if field.is_null() || field.as_num().is_some() => {}
            Some(_) => return Err(format!("'{key}' must be a number or null")),
            None => return Err(format!("missing '{key}'")),
        }
    }
    if let Some(colors) = v.get("colors") {
        let arr = colors.as_arr().ok_or("'colors' must be an array")?;
        for (i, c) in arr.iter().enumerate() {
            for key in ["class", "wall_ns", "busy_ns"] {
                c.get(key)
                    .and_then(Value::as_num)
                    .filter(|&n| n >= 0.0)
                    .ok_or_else(|| format!("colors[{i}].{key} must be a non-negative number"))?;
            }
            let u = c
                .get("utilization")
                .and_then(Value::as_num)
                .ok_or_else(|| format!("colors[{i}].utilization must be a number"))?;
            if !(0.0..=1.0).contains(&u) {
                return Err(format!("colors[{i}].utilization {u} outside [0, 1]"));
            }
        }
    }
    Ok(())
}

/// Validate a whole JSONL journal: every line parses, sweep lines pass
/// [`validate_line`], interleaved `coopmc-health/1` lines pass
/// [`validate_health_line`], appended `coopmc-profile/1` lines pass
/// [`validate_profile_line`], and iteration numbers are strictly
/// increasing within each chain (sweep and health lines track
/// monotonicity independently — a health record shares the iteration of
/// the sweep that refreshed it; profile lines are per-run aggregates with
/// no iteration). Returns the number of validated lines.
pub fn validate_journal(text: &str) -> Result<usize, String> {
    let mut last_iter: std::collections::BTreeMap<(u64, bool), u64> =
        std::collections::BTreeMap::new();
    let mut lines = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema == PROFILE_SCHEMA {
            validate_profile_line(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            lines += 1;
            continue;
        }
        let is_health = schema == HEALTH_SCHEMA;
        if is_health {
            validate_health_line(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        } else {
            validate_line(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        let chain = v.get("chain").and_then(Value::as_num).unwrap_or(0.0) as u64;
        let iter = v.get("iteration").and_then(Value::as_num).unwrap_or(0.0) as u64;
        if let Some(&prev) = last_iter.get(&(chain, is_health)) {
            if iter <= prev {
                return Err(format!(
                    "line {}: iteration {iter} not greater than previous {prev} on chain {chain}",
                    lineno + 1
                ));
            }
        }
        last_iter.insert((chain, is_health), iter);
        lines += 1;
    }
    if lines == 0 {
        return Err("journal is empty".to_owned());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_percent_splits_summed_phase_time() {
        assert_eq!(phase_percent(&[]), None);
        let mut a = sample(1);
        (a.pg_ns, a.sd_ns, a.pu_ns) = (300, 100, 0);
        let mut b = sample(2);
        (b.pg_ns, b.sd_ns, b.pu_ns) = (300, 200, 100);
        assert_eq!(phase_percent(&[a.clone(), b]), Some((60.0, 30.0, 10.0)));
        (a.pg_ns, a.sd_ns) = (0, 0);
        assert_eq!(
            phase_percent(&[a]),
            None,
            "a clockless journal has no split"
        );
    }

    fn sample(iter: u64) -> SweepSample {
        SweepSample {
            chain: 0,
            iteration: iter,
            start_ns: iter * 1000,
            wall_ns: 900,
            updates: 64,
            flips: 7,
            uniform_fallbacks: 0,
            pg_ns: 500,
            sd_ns: 300,
            pu_ns: 100,
            pg_cycles: 640,
            sd_cycles: 320,
            pu_cycles: 256,
            pg_batches: 8,
            pg_batch_rows: 64,
            norm_max: Some(-1.5),
            exp_in_min: Some(-8.0),
            exp_in_max: Some(0.0),
            stat: Some(-123.0),
            colors: vec![ColorSample {
                class: 0,
                start_ns: iter * 1000,
                wall_ns: 450,
                busy_ns: 400,
                utilization: 0.888,
            }],
            slots: vec![WorkerStats {
                busy_ns: 400,
                jobs: 1,
            }],
        }
    }

    #[test]
    fn rendered_lines_validate() {
        let text = format!("{}\n{}\n", render_line(&sample(1)), render_line(&sample(2)),);
        assert_eq!(validate_journal(&text).unwrap(), 2);
        // The chain's diagnostics live on its health lines alone.
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert!(v.get("ess").is_none() && v.get("rhat").is_none(), "{line}");
        }
    }

    #[test]
    fn non_monotone_iterations_are_rejected() {
        let text = format!("{}\n{}\n", render_line(&sample(2)), render_line(&sample(2)),);
        let err = validate_journal(&text).unwrap_err();
        assert!(err.contains("not greater"), "{err}");
    }

    #[test]
    fn independent_chains_have_independent_monotonicity() {
        let a = sample(5);
        let mut b = sample(3);
        b.chain = 1;
        let text = format!("{}\n{}\n", render_line(&a), render_line(&b));
        assert_eq!(validate_journal(&text).unwrap(), 2);
    }

    #[test]
    fn schema_violations_are_caught() {
        let bad = r#"{"schema":"coopmc-journal/2","chain":0,"iteration":1}"#;
        let v = crate::json::parse(bad).unwrap();
        assert!(validate_line(&v).is_err());
        let wrong_schema = r#"{"schema":"other/9"}"#;
        let v = crate::json::parse(wrong_schema).unwrap();
        assert!(validate_line(&v).unwrap_err().contains("schema"));
        // A whole line of the old sweep schema, `ess` and `rhat` included.
        let old = render_line(&sample(1))
            .replace(SCHEMA, "coopmc-journal/1")
            .replace(",\"colors\"", ",\"ess\":3.4,\"rhat\":1.01,\"colors\"");
        let err = validate_journal(&old).unwrap_err();
        assert!(err.contains("'coopmc-journal/2'"), "{err}");
    }

    #[test]
    fn bad_utilization_is_rejected() {
        let mut s = sample(1);
        s.colors[0].utilization = 1.5;
        let v = crate::json::parse(&render_line(&s)).unwrap();
        assert!(validate_line(&v).unwrap_err().contains("utilization"));
    }

    #[test]
    fn empty_journal_is_an_error() {
        assert!(validate_journal("\n\n").is_err());
    }

    fn health(iter: u64) -> HealthRecord {
        HealthRecord {
            chain: 0,
            iteration: iter,
            samples: iter + 63,
            window: 64,
            mean: -10.0,
            variance: 2.5,
            ess: Some(12.5),
            rhat: Some(1.02),
            rhat_split: Some(0.997),
            mcse: Some(0.45),
            flip_rate: 0.31,
            events_stuck: 0,
            events_drift: 1,
            events_fallback: 0,
        }
    }

    #[test]
    fn health_lines_render_and_validate_interleaved() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            render_line(&sample(1)),
            render_line(&sample(2)),
            render_health_line(&health(2)),
            render_health_line(&health(4)),
        );
        assert_eq!(validate_journal(&text).unwrap(), 4);
    }

    #[test]
    fn health_line_iterations_are_monotone_per_chain() {
        let text = format!(
            "{}\n{}\n",
            render_health_line(&health(5)),
            render_health_line(&health(5)),
        );
        assert!(validate_journal(&text).unwrap_err().contains("not greater"));
    }

    #[test]
    fn out_of_range_health_diagnostics_are_rejected() {
        // Rank-normalized R-hat below 1 is impossible.
        let mut h = health(3);
        h.rhat = Some(0.95);
        let v = crate::json::parse(&render_health_line(&h)).unwrap();
        assert!(validate_health_line(&v).unwrap_err().contains("rhat"));
        // Negative ESS.
        let mut h = health(3);
        h.ess = Some(-2.0);
        let v = crate::json::parse(&render_health_line(&h)).unwrap();
        assert!(validate_health_line(&v).unwrap_err().contains("ess"));
        // ESS exceeding the window it was computed from.
        let mut h = health(300);
        h.ess = Some(1000.0);
        let v = crate::json::parse(&render_health_line(&h)).unwrap();
        assert!(validate_health_line(&v).unwrap_err().contains("exceeds"));
        // The classic split estimator may legitimately dip below 1.
        let v = crate::json::parse(&render_health_line(&health(3))).unwrap();
        validate_health_line(&v).expect("rhat_split < 1 is allowed");
    }

    fn profile(kernel: &'static str, phase: &'static str) -> ProfileSample {
        ProfileSample {
            chain: 0,
            worker: 1,
            kernel,
            phase,
            calls: 12,
            total_ns: 5000,
            self_ns: 4200,
            modeled_cycles: 640,
            spans_dropped: 0,
            unclosed: 0,
        }
    }

    #[test]
    fn profile_lines_render_validate_and_interleave() {
        let text = format!(
            "{}\n{}\n{}\n",
            render_line(&sample(1)),
            render_profile_line(&profile("pg.exp_batch", "pg")),
            render_profile_line(&profile("sd.sample_rows", "sd")),
        );
        assert_eq!(validate_journal(&text).unwrap(), 3);
    }

    #[test]
    fn profile_self_exceeding_total_is_rejected() {
        let mut p = profile("pu.update", "pu");
        p.self_ns = p.total_ns + 1;
        let v = crate::json::parse(&render_profile_line(&p)).unwrap();
        let err = validate_profile_line(&v).unwrap_err();
        assert!(err.contains("self-time"), "{err}");
    }

    #[test]
    fn profile_unknown_kernel_is_rejected() {
        let p = profile("pg.bogus", "pg");
        let v = crate::json::parse(&render_profile_line(&p)).unwrap();
        let err = validate_profile_line(&v).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
    }

    #[test]
    fn profile_phase_mismatch_is_rejected() {
        let p = profile("pg.dynorm", "sd");
        let v = crate::json::parse(&render_profile_line(&p)).unwrap();
        let err = validate_profile_line(&v).unwrap_err();
        assert!(err.contains("phase"), "{err}");
    }

    #[test]
    fn profile_imbalance_and_negative_durations_are_rejected() {
        let mut p = profile("sweep", "root");
        p.unclosed = 2;
        let v = crate::json::parse(&render_profile_line(&p)).unwrap();
        let err = validate_profile_line(&v).unwrap_err();
        assert!(err.contains("span-stack imbalance"), "{err}");

        let line = render_profile_line(&profile("sweep", "root")).replace("5000", "-5000");
        let v = crate::json::parse(&line).unwrap();
        let err = validate_profile_line(&v).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn health_diagnostics_may_be_null_while_warming_up() {
        let mut h = health(1);
        h.ess = None;
        h.rhat = None;
        h.rhat_split = None;
        h.mcse = None;
        let v = crate::json::parse(&render_health_line(&h)).unwrap();
        validate_health_line(&v).unwrap();
    }
}
