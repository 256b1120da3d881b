//! Property-based tests for the CoopMC kernels (deterministic generator
//! harness from `coopmc-testkit`).

use coopmc_fixed::QFormat;
use coopmc_kernels::dynorm::{dynorm_apply, NormTree};
use coopmc_kernels::exp::{ExpKernel, FixedExp, FloatExp, TableExp};
use coopmc_kernels::fusion::{DirectDatapath, LogFusion, RowCodes};
use coopmc_kernels::log::{FloatLog, LogKernel, TableLog};
use coopmc_kernels::telemetry::PgTelemetry;
use coopmc_testkit::{check, Gen};

fn arb_scores(g: &mut Gen) -> Vec<f64> {
    g.vec_f64(1, 65, -60.0, 0.0)
}

#[test]
fn dynorm_invariants() {
    check("dynorm_invariants", 256, |g| {
        let mut v = arb_scores(g);
        let pipes = g.usize_in(1, 17);
        let orig = v.clone();
        let r = dynorm_apply(&mut v, pipes);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max - 0.0).abs() < 1e-12);
        assert_eq!(
            r.max,
            orig.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
        for (a, b) in orig.iter().zip(&v) {
            assert!(((a - r.max) - b).abs() < 1e-12);
        }
    });
}

#[test]
fn normtree_matches_iterator_max() {
    check("normtree_matches_iterator_max", 256, |g| {
        let v = arb_scores(g);
        let width = g.usize_in(1, 33);
        let (m, _, _) = NormTree::new(width).max(&v);
        let naive = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m, naive);
    });
}

#[test]
fn table_exp_bounds() {
    check("table_exp_bounds", 256, |g| {
        let t = TableExp::new(1 << g.u32_in(2, 11), g.u32_in(1, 33));
        let x = g.f64_in(-40.0, 0.0);
        let y = t.exp(x);
        assert!((0.0..=1.0).contains(&y));
        // monotone: a smaller (more negative) input never yields more.
        let y2 = t.exp(x - 1.0);
        assert!(y2 <= y + 1e-12);
    });
}

#[test]
fn table_exp_error_bound() {
    check("table_exp_error_bound", 256, |g| {
        let size = 1usize << g.u32_in(4, 11);
        let bits = g.u32_in(4, 33);
        let x = g.f64_in(-15.9, 0.0);
        let t = TableExp::new(size, bits);
        let err = (t.exp(x) - x.exp()).abs();
        let bound = t.step_lut() + 1.0 / (1u64 << bits) as f64;
        assert!(err <= bound, "err {err} > bound {bound}");
    });
}

#[test]
fn fixed_exp_grid() {
    check("fixed_exp_grid", 256, |g| {
        let bits = g.u32_in(1, 25);
        let x = g.f64_in(-30.0, 0.0);
        let k = FixedExp::new(bits);
        let y = k.exp(x);
        let step = 1.0 / (1u64 << bits) as f64;
        assert!(y == 0.0 || y >= step - 1e-15);
        let scaled = y / step;
        assert!((scaled - scaled.round()).abs() < 1e-9, "output off-grid");
    });
}

#[test]
fn table_log_error_bound() {
    check("table_log_error_bound", 256, |g| {
        let size = 1usize << g.u32_in(6, 11);
        let x = g.f64_in(0.001, 100.0);
        let t = TableLog::new(size, 24);
        let err = (t.log(x) - x.ln()).abs();
        // Mantissa step is 1/size; d(ln m)/dm <= 1 on [1,2).
        assert!(err <= 1.0 / size as f64 + 1e-6, "err {err}");
    });
}

#[test]
fn fusion_preserves_ratios() {
    check("fusion_preserves_ratios", 128, |g| {
        let ps = g.vec_f64(2, 10, 0.01, 1.0);
        let fusion = LogFusion::new(
            FloatLog::new(),
            FloatExp::new(),
            QFormat::new(15, 30).unwrap(),
        );
        let (mut out, mut probs, mut ops) = (RowCodes::new(), Vec::new(), Vec::new());
        let tel = &mut PgTelemetry::new();
        fusion.evaluate_factor_rows_into(
            [(&ps[..], &[][..])],
            ps.len(),
            &mut out,
            &mut probs,
            &mut ops,
            tel,
            None,
        );
        for i in 1..ps.len() {
            let want = ps[i] / ps[0];
            let got = probs[i] / probs[0];
            assert!((got - want).abs() / want < 1e-4, "want {want} got {got}");
        }
    });
}

#[test]
fn faults_stay_in_range() {
    check("faults_stay_in_range", 256, |g| {
        use coopmc_kernels::faults::{FaultInjector, FaultModel};
        use coopmc_rng::SplitMix64;
        let value = g.unit_f64();
        let seed = g.u64();
        let rate = g.unit_f64();
        let bit = g.u32_in(0, 16);
        let fmt = QFormat::probability(16).unwrap();
        let mut rng = SplitMix64::new(seed);
        for model in [
            FaultModel::BitFlip { rate },
            FaultModel::StuckAtOne { bit },
            FaultModel::StuckAtZero { bit },
        ] {
            let inj = FaultInjector::new(model, fmt);
            let v = inj.corrupt(value, &mut rng);
            assert!(v >= 0.0 && v <= fmt.max_value(), "{model:?} produced {v}");
        }
    });
}

#[test]
fn stuck_faults_idempotent() {
    check("stuck_faults_idempotent", 256, |g| {
        use coopmc_kernels::faults::{FaultInjector, FaultModel};
        use coopmc_rng::SplitMix64;
        let value = g.unit_f64();
        let bit = g.u32_in(0, 16);
        let fmt = QFormat::probability(16).unwrap();
        let model = if g.bool() {
            FaultModel::StuckAtOne { bit }
        } else {
            FaultModel::StuckAtZero { bit }
        };
        let inj = FaultInjector::new(model, fmt);
        let mut rng = SplitMix64::new(1);
        let once = inj.corrupt(value, &mut rng);
        let twice = inj.corrupt(once, &mut rng);
        assert_eq!(once, twice);
    });
}

#[test]
fn direct_and_fused_agree_on_argmax() {
    check("direct_and_fused_agree_on_argmax", 128, |g| {
        let ps = g.vec_f64(2, 8, 0.05, 1.0);
        // Only require agreement when the winner is unambiguous at the
        // direct datapath's resolution.
        let mut sorted = ps.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        if sorted[0] - sorted[1] <= 0.02 {
            return;
        }
        // One row: columns `p` and 0.5 over 0.9.
        let numerators = [&ps[..], &vec![0.5; ps.len()]].concat();
        let row = (&numerators[..], &vec![0.9; ps.len()][..]);
        let mut direct = Vec::new();
        DirectDatapath::new(QFormat::baseline32()).evaluate_factors_into(
            row,
            ps.len(),
            &mut direct,
        );
        let (mut out, mut probs, mut ops) = (RowCodes::new(), Vec::new(), Vec::new());
        LogFusion::new(
            TableLog::new(1024, 24),
            TableExp::new(1024, 24),
            QFormat::new(15, 24).unwrap(),
        )
        .evaluate_factor_rows_into(
            [row],
            ps.len(),
            &mut out,
            &mut probs,
            &mut ops,
            &mut PgTelemetry::new(),
            None,
        );
        // The datapath runs on bus words: the codes' images are its
        // probabilities.
        let (codes, _, bits) = out.codes().expect("a word-path row");
        assert!(probs.is_empty());
        let fused: Vec<f64> = codes
            .iter()
            .map(|&c| c as f64 / (1u64 << bits) as f64)
            .collect();
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(argmax(&direct), argmax(&fused));
    });
}
