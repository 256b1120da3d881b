//! The `coopmc-verify` gate: statically verify every in-tree netlist,
//! datapath configuration, error budget, pipeline schedule, PG word
//! operation and chromatic schedule. Exits nonzero on any contract
//! violation, so CI can run it as a hard gate.
//!
//! `--json` emits the structured report (contract names, bound versus
//! limit, wire provenance) instead of text — CI archives it as an
//! artifact. `--demo-broken` verifies deliberately broken configurations
//! instead, demonstrating (and letting CI assert) that the gate actually
//! fails. `--only SECTION` restricts the sweep to one named section (for
//! local iteration; CI keeps running everything). `--export-schematic DIR`
//! additionally writes the canonical circuits' graphviz/JSON schematics
//! into `DIR`. The flags combine (`--only` is ignored by `--demo-broken`).
//! An unknown flag, or a flag missing its value, exits 1 with a message:
//! the parser is [`coopmc_analyze::VerifyArgs`], shared with
//! `coopmc verify`.

use std::process::ExitCode;

use coopmc_analyze::VerifyArgs;
use coopmc_obs::print_stderr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match VerifyArgs::parse(&args).and_then(|args| args.run()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            print_stderr(&format!("{msg}\n"));
            ExitCode::FAILURE
        }
    }
}
