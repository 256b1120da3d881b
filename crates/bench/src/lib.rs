//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the CoopMC
//! paper (see `DESIGN.md` §4 for the index) and prints the same rows or
//! series the paper reports. Run them with
//! `cargo run -p coopmc-bench --release --bin <name>`.

pub mod harness;

/// Print a report header with the experiment id and a short description.
pub fn header(id: &str, description: &str) {
    println!("================================================================");
    println!("{id}: {description}");
    println!("================================================================");
}

/// Format a floating value in a fixed-width cell.
pub fn cell(v: f64, width: usize, decimals: usize) -> String {
    format!("{v:>width$.decimals$}")
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats_width_and_precision() {
        assert_eq!(cell(12.345, 8, 2), "   12.35");
    }
}
