//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the CoopMC
//! paper (see `DESIGN.md` §4 for the index) and prints the same rows or
//! series the paper reports. Run them with
//! `cargo run -p coopmc-bench --release --bin <name>`.

pub mod harness;

/// Standard seeds used across the regeneration binaries, so every run is
/// reproducible.
pub mod seeds {
    /// Workload-generation seed.
    pub const WORKLOAD: u64 = 2022;
    /// Golden-reference chain seed.
    pub const GOLDEN: u64 = 7001;
    /// Measured-chain seed.
    pub const CHAIN: u64 = 101;
}
