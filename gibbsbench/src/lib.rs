//! `gibbsbench`: the layered end-to-end benchmark of the CoopMC Gibbs
//! engine. `cargo run --release -- --workload NAME --seed N --seconds S
//! --trace 0|1` runs one workload; the README says what each measures.

pub mod e2e;
pub mod layered;
pub mod report;
pub mod rules;
pub mod spans;
pub mod stats;
pub mod workload;
