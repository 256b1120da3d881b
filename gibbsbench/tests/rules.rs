//! The sweep at which each target rule fires on synthetic statistic traces.

use coopmc_obs::health::{ConvergenceController, Decision};
use coopmc_rng::{HwRng, SplitMix64};
use gibbsbench::rules::{cli_early_stop, Plateau, Target, TargetWatch};

#[test]
fn plateau_fires_once_the_last_two_windows_agree() {
    // Climbs by 1 per sweep to 50, then stays. With W = 4 and tol = 0.01
    // the window means first differ by ≤ 0.5 at sweep 56 (49.75 vs 50).
    let mut rule = Plateau::new(4, 0.01, 0.0);
    let fired = (1..=200u64).find(|&s| rule.observe(s.min(50) as f64));
    assert_eq!(fired, Some(56));
}

#[test]
fn plateau_waits_for_two_full_windows() {
    let mut rule = Plateau::new(8, 0.5, 0.0);
    let fired = (1..=100u64).find(|_| rule.observe(1.0));
    assert_eq!(fired, Some(16));
}

#[test]
fn a_chain_still_climbing_misses_the_plateau() {
    let mut rule = Plateau::new(32, 0.01, 0.0);
    assert!((1..=2000u64).all(|s| !rule.observe(s as f64)));
}

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64()).collect()
}

#[test]
fn watch_records_the_first_early_stop_and_never_stops_the_chain() {
    let trace = noise(600, 11);
    let mut direct = cli_early_stop();
    let expected = trace.iter().enumerate().find_map(|(i, &v)| {
        let it = i as u64 + 1;
        (direct.observe_sweep(it, 100, 10, 0, Some(v)) == Decision::Stop).then_some(it)
    });
    let mut watch = TargetWatch::new(Target::EarlyStop);
    for (i, &v) in trace.iter().enumerate() {
        let d = watch.observe_sweep(i as u64 + 1, 100, 10, 0, Some(v));
        assert_eq!(d, Decision::Continue, "the budget is fixed");
    }
    let fired = expected.expect("white noise converges within 600 sweeps");
    assert!(fired > 16, "early stop honours its minimum of 16 sweeps");
    assert_eq!(watch.early_stop_sweep, Some(fired));
    assert_eq!(watch.target_sweep, Some(fired));
}

#[test]
fn a_trend_never_satisfies_the_early_stop() {
    let mut watch = TargetWatch::new(Target::EarlyStop);
    for s in 1..=400u64 {
        watch.observe_sweep(s, 100, 10, 0, Some(s as f64));
    }
    assert_eq!(watch.early_stop_sweep, None);
    assert_eq!(watch.target_sweep, None);
}

#[test]
fn plateau_target_is_independent_of_the_early_stop() {
    let mut watch = TargetWatch::new(Target::Plateau(Plateau::new(4, 0.01, 0.0)));
    for s in 1..=100u64 {
        watch.observe_sweep(s, 100, 10, 0, Some(s.min(50) as f64));
    }
    assert_eq!(watch.target_sweep, Some(56));
}
