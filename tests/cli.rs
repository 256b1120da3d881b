//! Chain invisibility through the `coopmc` binary: the observation flags
//! (`--health`, `--journal-out`, `--profile`, and every output at once)
//! change what a run reports about itself, never the chain. Every workload
//! family prints the same final objective (or marginals) with no flag and
//! under each of them, and an early-stop run stops at the same sweep
//! whether or not it writes a journal. A profiled, traced chromatic run
//! puts every kernel span inside a journaled sweep. The sampler flag, by
//! contrast, reaches the chain at any thread count. A 4-thread health run's
//! `--metrics-out` keeps the series, order and non-wall-time values it was
//! recorded with.

use std::process::Command;

use coopmc::core::parallel::ChromaticEngine;
use coopmc::core::pipeline::CoopMcPipeline;
use coopmc::models::bn::{BayesNet, MarginalCounter};
use coopmc::models::workloads::{all_workloads, BuiltWorkload};
use coopmc::obs::health::NoControl;
use coopmc::obs::json::{self, Value};
use coopmc::obs::NoopRecorder;
use coopmc::sampler::{AliasSampler, PipeTreeSampler, Sampler, SequentialSampler};

/// Run `coopmc run <args>` and return its stdout.
fn coopmc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc"))
        .arg("run")
        .args(args)
        .output()
        .expect("spawn coopmc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A profiled run exits nonzero when its divergence ledger trips. That
    // gate judges host timing, not the chain, so it may not fail this test.
    assert!(
        out.status.success() || stderr.starts_with("divergence ledger failed"),
        "coopmc run {args:?} failed: {stderr}"
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The lines a run prints about its chain: what follows the header, up to
/// the health summary, file notices or the profiler's ledger.
fn chain_report(stdout: &str) -> String {
    let tail = ["health:", "early-stop:", "wrote ", "divergence ledger"];
    stdout
        .lines()
        .skip(1)
        .take_while(|l| !tail.iter().any(|t| l.starts_with(t)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A temporary file path unique to this process and `name`.
fn temp_path(name: &str) -> String {
    let name = format!("coopmc-cli-{}-{name}", std::process::id());
    std::env::temp_dir().join(name).display().to_string()
}

/// Assert that `coopmc run <args>` prints the same chain report, containing
/// `objective`, under no flag, `--health`, `--journal-out`, `--profile`,
/// and `--profile` with the journal, trace and metrics outputs at once.
/// Returns the Chrome trace the last run wrote.
fn assert_flags_are_chain_invisible(tag: &str, args: &str, objective: &str) -> String {
    let args: Vec<&str> = args.split_whitespace().collect();
    let plain = chain_report(&coopmc(&args));
    assert!(
        plain.contains(objective),
        "{args:?} printed no {objective}: {plain}"
    );
    let journal = temp_path(&format!("{tag}.jsonl"));
    let trace = temp_path(&format!("{tag}.trace.json"));
    let metrics = temp_path(&format!("{tag}.prom"));
    for flags in [
        &["--health"][..],
        &["--journal-out", &journal],
        &["--profile"],
        &[
            "--profile",
            "--journal-out",
            &journal,
            "--trace-out",
            &trace,
            "--metrics-out",
            &metrics,
        ],
    ] {
        let run: Vec<&str> = args.iter().chain(flags).copied().collect();
        assert_eq!(chain_report(&coopmc(&run)), plain, "{run:?}");
    }
    let written = std::fs::read_to_string(&journal).expect("journal written");
    assert!(written.contains("coopmc-journal/2") && written.contains("coopmc-profile/1"));
    let prom = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(prom.contains("coopmc_sweeps_total"));
    let written_trace = std::fs::read_to_string(&trace).expect("trace written");
    for path in [journal, trace, metrics] {
        std::fs::remove_file(path).ok();
    }
    written_trace
}

#[test]
fn sequential_mrf_chain_ignores_observation_flags() {
    let args = "segmentation --sweeps 3 --seed 4";
    assert_flags_are_chain_invisible("mrf1", args, "energy:");
}

#[test]
fn chromatic_mrf_chain_ignores_observation_flags() {
    let args = "segmentation --sweeps 3 --seed 4 --threads 2";
    let trace = assert_flags_are_chain_invisible("mrf2", args, "energy:");
    // The profiler and the journal observe one engine on one clock, so
    // every kernel span of the trace lies inside a journaled sweep.
    let doc = json::parse(&trace).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let spans = |cat: &str| -> Vec<(f64, f64)> {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some(cat))
            .map(|e| {
                let num = |k: &str| e.get(k).and_then(Value::as_num).unwrap();
                (num("ts"), num("ts") + num("dur"))
            })
            .collect()
    };
    let (sweeps, kernels) = (spans("sweep"), spans("kernel"));
    assert_eq!(sweeps.len(), 3);
    assert!(!kernels.is_empty(), "a profiled trace has kernel spans");
    // One nanosecond of slack absorbs the microsecond float rendering.
    let inside = |&(s, e): &(f64, f64)| {
        sweeps
            .iter()
            .any(|&(start, end)| start <= s + 1e-3 && e <= end + 1e-3)
    };
    for span in &kernels {
        assert!(
            inside(span),
            "kernel span {span:?} outside every sweep {sweeps:?}"
        );
    }
}

#[test]
fn bn_marginals_ignore_observation_flags() {
    assert_flags_are_chain_invisible("bn", "bn-asia --sweeps 300", "dysp");
}

#[test]
fn lda_chain_ignores_observation_flags() {
    assert_flags_are_chain_invisible("lda", "nips --sweeps 2", "log-likelihood:");
}

#[test]
fn early_stop_lands_on_the_same_sweep_with_or_without_outputs() {
    let cmd = "bn-asia --pipeline float32 --sweeps 2000 --early-stop-rhat 1.01 --early-stop-ess 50";
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let stop_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("early-stop:"))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no early-stop line in: {stdout}"))
    };
    let plain = coopmc(&args);
    let journal = temp_path("early.jsonl");
    let journaled: Vec<&str> = args
        .iter()
        .copied()
        .chain(["--journal-out", &journal])
        .collect();
    let recorded = coopmc(&journaled);
    std::fs::remove_file(&journal).ok();
    assert_eq!(stop_line(&plain), stop_line(&recorded));
    assert_eq!(chain_report(&plain), chain_report(&recorded));
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `coopmc-health/1` lines of the journal `coopmc run <args>` writes:
/// how many there are, and the FNV-1a checksum of those lines, each ending
/// in a newline.
fn health_lines(tag: &str, args: &str) -> (usize, u64) {
    let journal = temp_path(&format!("{tag}.jsonl"));
    let args: Vec<&str> = args
        .split_whitespace()
        .chain(["--journal-out", &journal])
        .collect();
    coopmc(&args);
    let written = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(&journal).ok();
    let health: String = written
        .lines()
        .filter(|l| l.contains("\"coopmc-health/1\""))
        .map(|l| format!("{l}\n"))
        .collect();
    (health.lines().count(), fnv1a(health.as_bytes()))
}

/// Health lines carry no wall time, so a journal's are deterministic. These
/// are the lines the CLI wrote when they were pinned: a monitored stereo
/// chain, the early-stopped BN-ASIA chain (stopped at sweep 424) and a
/// 2-thread chromatic stereo chain. Every journal replays its chain's
/// health with the configuration `--health` runs, so the journal-only runs
/// of the same chains (BN-ASIA's to sweep 424) write the same lines.
#[test]
fn journal_health_lines_keep_their_pinned_values() {
    for (tag, args, lines, checksum) in [
        (
            "pin-stereo",
            "stereo --sweeps 20 --health",
            2,
            0x2f3a_fd01_065c_4d3c,
        ),
        (
            "pin-asia",
            "bn-asia --pipeline float32 --sweeps 2000 --early-stop-rhat 1.01 --early-stop-ess 50",
            53,
            0x306b_0164_32e5_9632,
        ),
        (
            "pin-stereo2",
            "stereo --sweeps 30 --threads 2 --health",
            3,
            0x4326_947d_55e5_41ed,
        ),
        (
            "only-stereo",
            "stereo --sweeps 20",
            2,
            0x2f3a_fd01_065c_4d3c,
        ),
        (
            "only-asia",
            "bn-asia --pipeline float32 --sweeps 424",
            53,
            0x306b_0164_32e5_9632,
        ),
        (
            "only-stereo2",
            "stereo --sweeps 30 --threads 2",
            3,
            0x4326_947d_55e5_41ed,
        ),
    ] {
        assert_eq!(health_lines(tag, args), (lines, checksum), "{args}");
    }
}

/// Every subcommand, handed a stdout whose reader is already gone, stops
/// printing and finishes its work: exit 0 and no panic, and `run` still
/// writes its journal.
#[test]
fn a_closed_stdout_stops_the_printing_not_the_command() {
    let journal = temp_path("closed-stdout.jsonl");
    for args in [
        &["list"][..],
        &["hw"],
        &["verify"],
        &["run", "bn-asia", "--sweeps", "1", "--journal-out", &journal],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_coopmc"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn coopmc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let written = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(&journal).ok();
    assert_eq!(coopmc::obs::journal::validate_journal(&written), Ok(1));
}

/// Commands that print to stderr, handed a stderr whose reader is already
/// gone, exit as they would have, without a panic: a failed `run` with 1,
/// and `verify` with 0 after writing its schematics.
#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    let schematics = temp_path("closed-stderr-schematics");
    for (args, code) in [
        (&["run", "nonexistent-model"][..], 1),
        (&["run", "bn-asia", "--threads", "0"], 1),
        (&["verify", "--export-schematic", &schematics], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_coopmc"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("spawn coopmc");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
    let written = std::fs::read_dir(&schematics).map_or(0, |dir| dir.count());
    std::fs::remove_dir_all(&schematics).ok();
    assert!(written > 0, "verify wrote no schematics");
}

/// A stdout that refuses writes for any other reason ends the command with
/// exit 1 and a message.
#[cfg(target_os = "linux")]
#[test]
fn a_failing_stdout_exits_1_with_a_message() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_coopmc"))
        .arg("list")
        .stdout(full)
        .output()
        .expect("spawn coopmc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("stdout") && !stderr.contains("panicked"),
        "{stderr}"
    );
}

#[test]
fn any_sampler_runs_chromatically() {
    // Each `--sampler` reaches the chromatic engine: the marginals ignore
    // the pool size and match a `ChromaticEngine` built with that sampler.
    let samplers: [(&str, Box<dyn Sampler + Sync>); 3] = [
        ("seq", Box::new(SequentialSampler::new())),
        ("pipe", Box::new(PipeTreeSampler::new())),
        ("alias", Box::new(AliasSampler::new())),
    ];
    let (seed, sweeps) = (11, 300);
    let report = |sampler: &str, threads: &str| {
        let cmd = format!(
            "bn-asia --sampler {sampler} --threads {threads} --sweeps {sweeps} --seed {seed}"
        );
        chain_report(&coopmc(&cmd.split_whitespace().collect::<Vec<_>>()))
    };
    let spec = all_workloads()
        .into_iter()
        .find(|w| w.name == "BN-ASIA")
        .expect("BN-ASIA is registered");
    for (name, sampler) in samplers {
        let two = report(name, "2");
        assert_eq!(two, report(name, "3"), "--sampler {name}");

        let BuiltWorkload::Bn(mut net) = spec.build(seed) else {
            unreachable!("BN-ASIA builds a Bayesian network")
        };
        let mut counter = MarginalCounter::new(&net);
        let engine = ChromaticEngine::with_recorder(
            CoopMcPipeline::new(64, 8),
            sampler,
            2,
            seed,
            NoopRecorder,
        );
        let record = |n: &BayesNet| {
            counter.record(n);
            None
        };
        engine.run_controlled(&mut net, sweeps, record, &mut NoControl);
        let mut direct = format!("{:<14} {:>10}", "node", "P(label 0)");
        for (v, node) in net.nodes().iter().enumerate() {
            direct += &format!("\n{:<14} {:>10.4}", node.name, counter.marginal(v)[0]);
        }
        assert_eq!(two, direct, "--sampler {name}");
    }
    assert_ne!(report("alias", "2"), report("tree", "2"));
}

/// `coopmc run stereo --sweeps 10 --threads 4 --health --metrics-out F` as
/// recorded when the exposition came from a process-global registry: every
/// series in order, each with its value unless that value depends on wall
/// time (`_`). Kept values: every counter but `*_ns_total`, every
/// histogram `_count`, `coopmc_pool_worker_jobs` and every
/// `coopmc_health_*` series. `coopmc_health_flip_rate` is the latest
/// sweep's, the 0.1987 the run prints after sweep 10.
const STEREO_METRICS: &str = r#"# TYPE coopmc_health_ess gauge
coopmc_health_ess{chain="0"} 3.688154611267233
# TYPE coopmc_health_events_total counter
coopmc_health_events_total{chain="0",kind="fallback_spike"} 0
coopmc_health_events_total{chain="0",kind="flip_rate_drift"} 1
coopmc_health_events_total{chain="0",kind="stuck_chain"} 0
# TYPE coopmc_health_flip_rate gauge
coopmc_health_flip_rate{chain="0"} 0.1986812402804693
# TYPE coopmc_health_mcse gauge
coopmc_health_mcse{chain="0"} 188.35584060257676
# TYPE coopmc_health_rhat gauge
coopmc_health_rhat{chain="0"} 2.0596820996222176
# TYPE coopmc_health_rhat_split gauge
coopmc_health_rhat_split{chain="0"} 1.5650484525958743
# TYPE coopmc_label_flips_total counter
coopmc_label_flips_total 3706
# TYPE coopmc_modeled_pg_cycles_total counter
coopmc_modeled_pg_cycles_total 737280
# TYPE coopmc_modeled_pu_cycles_total counter
coopmc_modeled_pu_cycles_total 61440
# TYPE coopmc_modeled_sd_cycles_total counter
coopmc_modeled_sd_cycles_total 168960
# TYPE coopmc_phase_pg_duration_us histogram
coopmc_phase_pg_duration_us_bucket{le="1"} _
coopmc_phase_pg_duration_us_bucket{le="2"} _
coopmc_phase_pg_duration_us_bucket{le="4"} _
coopmc_phase_pg_duration_us_bucket{le="8"} _
coopmc_phase_pg_duration_us_bucket{le="16"} _
coopmc_phase_pg_duration_us_bucket{le="32"} _
coopmc_phase_pg_duration_us_bucket{le="64"} _
coopmc_phase_pg_duration_us_bucket{le="128"} _
coopmc_phase_pg_duration_us_bucket{le="256"} _
coopmc_phase_pg_duration_us_bucket{le="512"} _
coopmc_phase_pg_duration_us_bucket{le="1024"} _
coopmc_phase_pg_duration_us_bucket{le="2048"} _
coopmc_phase_pg_duration_us_bucket{le="4096"} _
coopmc_phase_pg_duration_us_bucket{le="8192"} _
coopmc_phase_pg_duration_us_bucket{le="16384"} _
coopmc_phase_pg_duration_us_bucket{le="32768"} _
coopmc_phase_pg_duration_us_bucket{le="65536"} _
coopmc_phase_pg_duration_us_bucket{le="131072"} _
coopmc_phase_pg_duration_us_bucket{le="262144"} _
coopmc_phase_pg_duration_us_bucket{le="524288"} _
coopmc_phase_pg_duration_us_bucket{le="1048576"} _
coopmc_phase_pg_duration_us_bucket{le="+Inf"} _
coopmc_phase_pg_duration_us_sum _
coopmc_phase_pg_duration_us_count 10
# TYPE coopmc_phase_pg_ns_total counter
coopmc_phase_pg_ns_total _
# TYPE coopmc_phase_pu_duration_us histogram
coopmc_phase_pu_duration_us_bucket{le="1"} _
coopmc_phase_pu_duration_us_bucket{le="2"} _
coopmc_phase_pu_duration_us_bucket{le="4"} _
coopmc_phase_pu_duration_us_bucket{le="8"} _
coopmc_phase_pu_duration_us_bucket{le="16"} _
coopmc_phase_pu_duration_us_bucket{le="32"} _
coopmc_phase_pu_duration_us_bucket{le="64"} _
coopmc_phase_pu_duration_us_bucket{le="128"} _
coopmc_phase_pu_duration_us_bucket{le="256"} _
coopmc_phase_pu_duration_us_bucket{le="512"} _
coopmc_phase_pu_duration_us_bucket{le="1024"} _
coopmc_phase_pu_duration_us_bucket{le="2048"} _
coopmc_phase_pu_duration_us_bucket{le="4096"} _
coopmc_phase_pu_duration_us_bucket{le="8192"} _
coopmc_phase_pu_duration_us_bucket{le="16384"} _
coopmc_phase_pu_duration_us_bucket{le="32768"} _
coopmc_phase_pu_duration_us_bucket{le="65536"} _
coopmc_phase_pu_duration_us_bucket{le="131072"} _
coopmc_phase_pu_duration_us_bucket{le="262144"} _
coopmc_phase_pu_duration_us_bucket{le="524288"} _
coopmc_phase_pu_duration_us_bucket{le="1048576"} _
coopmc_phase_pu_duration_us_bucket{le="+Inf"} _
coopmc_phase_pu_duration_us_sum _
coopmc_phase_pu_duration_us_count 10
# TYPE coopmc_phase_pu_ns_total counter
coopmc_phase_pu_ns_total _
# TYPE coopmc_phase_sd_duration_us histogram
coopmc_phase_sd_duration_us_bucket{le="1"} _
coopmc_phase_sd_duration_us_bucket{le="2"} _
coopmc_phase_sd_duration_us_bucket{le="4"} _
coopmc_phase_sd_duration_us_bucket{le="8"} _
coopmc_phase_sd_duration_us_bucket{le="16"} _
coopmc_phase_sd_duration_us_bucket{le="32"} _
coopmc_phase_sd_duration_us_bucket{le="64"} _
coopmc_phase_sd_duration_us_bucket{le="128"} _
coopmc_phase_sd_duration_us_bucket{le="256"} _
coopmc_phase_sd_duration_us_bucket{le="512"} _
coopmc_phase_sd_duration_us_bucket{le="1024"} _
coopmc_phase_sd_duration_us_bucket{le="2048"} _
coopmc_phase_sd_duration_us_bucket{le="4096"} _
coopmc_phase_sd_duration_us_bucket{le="8192"} _
coopmc_phase_sd_duration_us_bucket{le="16384"} _
coopmc_phase_sd_duration_us_bucket{le="32768"} _
coopmc_phase_sd_duration_us_bucket{le="65536"} _
coopmc_phase_sd_duration_us_bucket{le="131072"} _
coopmc_phase_sd_duration_us_bucket{le="262144"} _
coopmc_phase_sd_duration_us_bucket{le="524288"} _
coopmc_phase_sd_duration_us_bucket{le="1048576"} _
coopmc_phase_sd_duration_us_bucket{le="+Inf"} _
coopmc_phase_sd_duration_us_sum _
coopmc_phase_sd_duration_us_count 10
# TYPE coopmc_phase_sd_ns_total counter
coopmc_phase_sd_ns_total _
# TYPE coopmc_pool_color_utilization gauge
coopmc_pool_color_utilization{color="0"} _
coopmc_pool_color_utilization{color="1"} _
# TYPE coopmc_pool_worker_busy_ns gauge
coopmc_pool_worker_busy_ns{worker="0"} _
coopmc_pool_worker_busy_ns{worker="1"} _
coopmc_pool_worker_busy_ns{worker="2"} _
coopmc_pool_worker_busy_ns{worker="3"} _
# TYPE coopmc_pool_worker_jobs gauge
coopmc_pool_worker_jobs{worker="0"} 20
coopmc_pool_worker_jobs{worker="1"} 20
coopmc_pool_worker_jobs{worker="2"} 20
coopmc_pool_worker_jobs{worker="3"} 20
# TYPE coopmc_sweep_duration_us histogram
coopmc_sweep_duration_us_bucket{le="10"} _
coopmc_sweep_duration_us_bucket{le="100"} _
coopmc_sweep_duration_us_bucket{le="1000"} _
coopmc_sweep_duration_us_bucket{le="10000"} _
coopmc_sweep_duration_us_bucket{le="100000"} _
coopmc_sweep_duration_us_bucket{le="1000000"} _
coopmc_sweep_duration_us_bucket{le="10000000"} _
coopmc_sweep_duration_us_bucket{le="+Inf"} _
coopmc_sweep_duration_us_sum _
coopmc_sweep_duration_us_count 10
# TYPE coopmc_sweeps_total counter
coopmc_sweeps_total 10
# TYPE coopmc_uniform_fallbacks_total counter
coopmc_uniform_fallbacks_total 0
# TYPE coopmc_updates_total counter
coopmc_updates_total 15360
"#;

#[test]
fn metrics_exposition_keeps_its_series_and_their_values() {
    let path = temp_path("stereo.prom");
    let args = "stereo --sweeps 10 --threads 4 --health --metrics-out";
    let args: Vec<&str> = args.split_whitespace().chain([path.as_str()]).collect();
    coopmc(&args);
    let written = std::fs::read_to_string(&path).expect("metrics written");
    std::fs::remove_file(&path).ok();
    let got: Vec<&str> = written.lines().collect();
    let want: Vec<&str> = STEREO_METRICS.lines().collect();
    assert_eq!(got.len(), want.len(), "series changed:\n{written}");
    for (got, want) in got.iter().zip(want) {
        match want.strip_suffix(" _") {
            Some(series) => assert_eq!(got.rsplit_once(' ').map(|(s, _)| s), Some(series)),
            None => assert_eq!(*got, want),
        }
    }
}
