//! A seed other than the ones the benchmark was tuned on passes every
//! output check, on short chains of every workload.

use gibbsbench::workload::{Workload, ALL};
use gibbsbench::{e2e, layered, spans};

fn assert_all_ok(w: Workload, checks: &[(&'static str, bool)]) {
    for (name, ok) in checks {
        assert!(ok, "{}: check failed: {name}", w.name());
    }
}

#[test]
fn second_seed_passes_every_output_check() {
    let cost = spans::calibrate(3, 1000);
    for w in ALL {
        let e2e = e2e::run(w, 7, 4);
        assert_eq!(e2e.sweeps, 4);
        assert_all_ok(w, &e2e.checks());
        let layers = layered::run(w, 7, 2, cost);
        assert_all_ok(w, &layers.checks);
        assert_eq!(layers.spans.sweeps(), 2);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_gibbsbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "seg-seq",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "seg-seq", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "seg-seq",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
