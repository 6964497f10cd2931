//! Property tests for the VPU kernels and the mixed-precision engine.

use bfp_arith::matrix::MatF32;
use bfp_arith::stats::ErrorStats;
use bfp_transformer::{Datapath, Engine, MixedEngine, RefEngine, Vpu};
use proptest::prelude::*;

fn moderate_f32() -> impl Strategy<Value = f32> {
    (-50.0f32..50.0).prop_map(|v| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exp_is_positive_and_monotone(a in -80.0f32..80.0, b in -80.0f32..80.0) {
        let mut vpu = Vpu::new();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (elo, ehi) = (vpu.exp(lo), vpu.exp(hi));
        prop_assert!(elo >= 0.0);
        // Truncating hardware can tie at adjacent representables but must
        // never invert the order by more than an ulp-scale wobble.
        prop_assert!(ehi >= elo * 0.999_999, "exp({lo})={elo} > exp({hi})={ehi}");
    }

    #[test]
    fn softmax_rows_are_distributions(
        row in proptest::collection::vec(-20.0f32..20.0, 1..80)
    ) {
        let mut vpu = Vpu::new();
        let mut v = row.clone();
        vpu.softmax_row(&mut v);
        let sum: f64 = v.iter().map(|&x| x as f64).sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(v.iter().all(|&x| (0.0..=1.0001).contains(&x)));
        // Order preservation: argmax of the logits stays argmax.
        let argmax_in = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let max_out = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert!((v[argmax_in] - v[max_out]).abs() < 1e-6);
    }

    #[test]
    fn onchip_and_host_softmax_agree(
        row in proptest::collection::vec(-15.0f32..15.0, 2..60)
    ) {
        let mut v1 = row.clone();
        let mut v2 = row.clone();
        Vpu::new().softmax_row(&mut v1);
        Vpu::new().onchip().softmax_row(&mut v2);
        for (a, b) in v1.iter().zip(&v2) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gelu_is_monotone_above_one(a in 1.0f32..40.0, d in 0.01f32..10.0) {
        // GELU is monotone for x >= ~-0.75; check the clean region.
        let mut vpu = Vpu::new();
        let lo = vpu.gelu(a);
        let hi = vpu.gelu(a + d);
        prop_assert!(hi >= lo - 1e-4, "gelu({a})={lo} vs gelu({})={hi}", a + d);
    }

    #[test]
    fn recip_inverts_mul(x in moderate_f32()) {
        prop_assume!(x.abs() > 1e-3);
        let mut vpu = Vpu::new();
        let r = vpu.recip(x);
        let prod = vpu.mul(x, r);
        prop_assert!((prod - 1.0).abs() < 1e-5, "x*recip(x) = {prod}");
    }

    #[test]
    fn layernorm_output_is_normalised(
        row in proptest::collection::vec(-30.0f32..30.0, 8..96)
    ) {
        // Constant rows have zero variance; eps keeps them finite but not
        // unit-variance, so require some spread.
        let spread = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - row.iter().cloned().fold(f32::INFINITY, f32::min);
        prop_assume!(spread > 0.5);
        let n = row.len();
        let gamma = vec![1.0f32; n];
        let beta = vec![0.0f32; n];
        let mut v = row.clone();
        Vpu::new().layernorm_row(&mut v, &gamma, &beta, 1e-6);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        prop_assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn engine_matmul_keeps_sqnr_on_smooth_inputs(
        seed in 0u64..500,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
    ) {
        let a = MatF32::from_fn(m, k, |i, j| ((seed as f32) * 0.01 + i as f32 * 0.3 + j as f32 * 0.7).sin());
        let b = MatF32::from_fn(k, n, |i, j| ((seed as f32) * 0.02 - i as f32 * 0.5 + j as f32 * 0.2).cos());
        let got = MixedEngine::new().matmul(&a, &b);
        let want = RefEngine.matmul(&a, &b);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        if s.signal_energy > 1e-3 {
            prop_assert!(s.sqnr_db() > 25.0, "SQNR {}", s.sqnr_db());
        }
    }
}

// The sharded-kernel equivalence cases run matrices big enough to actually
// fork worker threads (the engine only shards batches past its break-even
// size), so they get a smaller case budget than the scalar properties.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_batched_kernels_bit_match_scalar_kernels(
        rows in 52usize..72,
        cols in 80usize..112,
        seed in 0u64..1_000_000,
    ) {
        // Scalar oracle: the per-row / per-element Vpu kernels, exactly as
        // the engine called them before batching and sharding existed.
        let src = MatF32::from_fn(rows, cols, |i, j| {
            ((seed as f32) * 1e-5 + i as f32 * 0.83 + j as f32 * 0.29).sin() * 4.0
        });
        let gamma: Vec<f32> = (0..cols).map(|j| 1.0 + (j as f32 * 0.13).cos() * 0.2).collect();
        let beta: Vec<f32> = (0..cols).map(|j| (j as f32 * 0.21).sin() * 0.1).collect();
        let eps = 1e-5f32;

        let mut vpu = Vpu::new();
        let mut want_sm = src.clone();
        for r in 0..rows {
            let row = &mut want_sm.data_mut()[r * cols..(r + 1) * cols];
            vpu.softmax_row(row);
        }
        let mut want_gelu = src.clone();
        for v in want_gelu.data_mut().iter_mut() {
            *v = vpu.gelu(*v);
        }
        let mut want_ln = src.clone();
        for r in 0..rows {
            let row = &mut want_ln.data_mut()[r * cols..(r + 1) * cols];
            vpu.layernorm_row(row, &gamma, &beta, eps);
        }

        for threads in [1usize, 3, bfp_arith::fork::host_threads()] {
            let mut e = MixedEngine::new().with_threads(threads);
            let mut sm = src.clone();
            e.softmax_rows(&mut sm);
            let mut ge = src.clone();
            e.gelu(&mut ge);
            let mut ln = src.clone();
            e.layernorm(&mut ln, &gamma, &beta, eps);
            for (got, want) in [(&sm, &want_sm), (&ge, &want_gelu), (&ln, &want_ln)] {
                for (p, q) in got.data().iter().zip(want.data()) {
                    prop_assert_eq!(p.to_bits(), q.to_bits(), "threads={}", threads);
                }
            }
        }
    }
}
