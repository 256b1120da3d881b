//! `gibbsbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints a table of everything it measured, then,
//! as the last line, one JSON object with the run's checks and metrics:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use std::process::ExitCode;

use gibbsbench::e2e;
use gibbsbench::layered;
use gibbsbench::report::{self, Metric};
use gibbsbench::spans;
use gibbsbench::workload::{Workload, THREADS};

/// Directory, relative to the working directory, the span trace is
/// written to.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    format!("unknown workload {value} (seg-seq, lda-seq, restore-chromatic)")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gibbsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = w.budget(args.seconds);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "gibbsbench {} | seed {} | {budget} sweeps | host cpus {cpus}{}",
        w.name(),
        args.seed,
        if w == Workload::RestoreChromatic && cpus < THREADS {
            " | starved"
        } else {
            ""
        }
    );
    let e2e = e2e::run(w, args.seed, budget);
    let mut checks = e2e.checks();
    let e2e_metrics = report::end_to_end(&e2e);
    table("end to end", &e2e_metrics);
    table("diagnostics", &report::diagnostics(&e2e));
    let metrics = if args.trace {
        let cost = spans::calibrate(15, 100_000);
        let rounds = (budget / 12).max(4) as usize;
        let layers = layered::run(w, args.seed, rounds, cost);
        checks.extend(layers.checks.iter().copied());
        let path = format!("{OUT_DIR}/gibbsbench-{}-seed{}.json", w.name(), args.seed);
        let meta = format!(
            "\"workload\":\"{}\",\"seed\":{},\"rounds\":{},\"variables\":{},\"span_ns\":{},\"span_self_ns\":{}",
            w.name(),
            args.seed,
            layers.sweeps,
            layers.variables,
            cost.span_ns,
            cost.self_ns
        );
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, layers.spans.to_json(&meta)));
        if let Err(err) = &written {
            eprintln!("gibbsbench: cannot write {path}: {err}");
        }
        checks.push(("span trace written", written.is_ok()));
        let metrics = report::per_layer(&e2e, &layers, cost.span_ns, cpus);
        table("per layer", &metrics);
        metrics
    } else {
        e2e_metrics
    };
    checks.push((
        "every metric finite",
        metrics.iter().all(|x| x.value.is_finite()),
    ));
    for (name, ok) in &checks {
        println!("check {:<48} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    println!("{}", report::result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
