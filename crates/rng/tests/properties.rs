//! Property-based tests for the hardware RNG substrate (deterministic
//! generator harness from `coopmc-testkit`).

use coopmc_rng::{HwRng, SplitMix64};
use coopmc_testkit::check;

#[test]
fn unit_interval_for_all_generators() {
    check("unit_interval_for_all_generators", 64, |g| {
        let mut r = SplitMix64::new(g.u64());
        for _ in 0..50 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    });
}

#[test]
fn uniform_index_in_range() {
    check("uniform_index_in_range", 128, |g| {
        let seed = g.u64();
        let n = g.usize_in(1, 10_000);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..20 {
            assert!(rng.uniform_index(n) < n);
        }
    });
}

#[test]
fn determinism_and_stream_separation() {
    check("determinism_and_stream_separation", 128, |g| {
        let s1 = g.u64();
        let s2 = g.u64();
        if s1 == s2 {
            return;
        }
        // A seed is SplitMix64's stream: equal seeds replay, distinct
        // seeds diverge.
        let run = |seed: u64| -> Vec<u64> {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(run(s1), run(s1));
        assert_ne!(run(s1), run(s2));
    });
}
