//! `coopmc-obs`: one observation seam for the CoopMC reproduction, and
//! the reducers that turn what it sees into a run journal, a Chrome trace,
//! Prometheus metrics, a kernel profile and chain-health diagnostics.
//!
//! Everything is `std`-only (the build container is offline):
//!
//! 1. **Seam** ([`trace`]) — the engines report to a statically dispatched
//!    [`Recorder`]: two flags (journaling, profiling), one clock
//!    ([`Recorder::now_ns`]) and one closed [`Event`] vocabulary of three
//!    variants (sweep start, sweep end with its journal record, kernel
//!    time). The disabled form, [`NoopRecorder`], reads no clock and
//!    compiles to nothing, so the warm-sweep zero-allocation guarantee
//!    survives instrumentation (proved by the counting-allocator tests in
//!    `coopmc-core`). A pair `(A, B)` feeds both members one stream on
//!    one clock.
//! 2. **Journal, trace and metrics** ([`journal`], [`TraceRecorder`],
//!    [`metrics`]) — one JSONL record per sweep per chain
//!    (`coopmc-journal/2`) with the Table II phase split in wall time and
//!    modeled cycles, DyNorm/TableExp telemetry, the sweep's flips,
//!    fallbacks and statistic and worker-pool utilization, interleaved
//!    with the `coopmc-health/1` lines a [`ChainHealth`] replayed over
//!    those records makes, the chain's one diagnostic series; a
//!    Chrome-trace export; and counters,
//!    gauges and histograms in Prometheus text exposition
//!    ([`Exposition`]). All three are reduced from the recorded run when
//!    they are written; the crate keeps no process-global state.
//! 3. **Profiling** ([`profile`]) — a hierarchical kernel-span profiler
//!    ([`SpanProfiler`]) with fixed-capacity per-worker span rings,
//!    per-`(lane, kernel)` self/total attribution and modeled-cycle
//!    tallies, exported as collapsed-stack flamegraph text, a
//!    `coopmc-profile/1` journal section and the Chrome trace's kernel
//!    tracks.
//! 4. **Health** ([`health`]) — streaming ESS / R-hat / MCSE and anomaly
//!    detectors that count their firings, whose diagnostics
//!    [`ChainHealth::metrics`] reports as Prometheus series, and the
//!    early-stop controller, which only decides: it reduces the same
//!    sweep counts and statistic the journal records, and the journal
//!    replays its health lines from them.
//! 5. **Printing** ([`print_stdout`], [`print_stderr`]) — the rule every
//!    binary of the workspace prints by: a closed stdout or stderr ends
//!    the printing, not the command.
//!
//! The `coopmc-obs-check` binary validates a journal file against the
//! schemas; CI runs it on a freshly traced chain.

use std::io::{ErrorKind, Write};

pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use health::{
    ChainHealth, ConvergenceController, Decision, EarlyStop, HealthConfig, HealthEventKind,
    HealthRecord, NoControl, StopInfo,
};
pub use journal::{
    ColorSample, ProfileSample, SweepSample, WorkerStats, HEALTH_SCHEMA, PROFILE_SCHEMA, SCHEMA,
};
pub use metrics::{log2_buckets, Exposition};
pub use profile::{Kernel, KernelReport, SpanProfiler};
pub use trace::{Event, NoopRecorder, Recorder, TraceRecorder};

/// Write `text` to stdout. A closed stdout (`BrokenPipe`, as when a reader
/// such as `head` has exited) ends the printing, not the command: the text
/// is dropped and the command goes on with its other work. Any other write
/// error is returned as the message for stderr.
pub fn print_stdout(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

/// Write `text` to stderr under [`print_stdout`]'s rule: a closed stderr
/// ends the printing, not the command, whose exit code stays what it would
/// have been. stderr is where a write error would be reported, so every
/// write error drops the text.
pub fn print_stderr(text: &str) {
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(text.as_bytes()).and_then(|()| err.flush());
}
