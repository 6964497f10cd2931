//! Numerical-fidelity integration tests: the paper's accuracy argument is
//! that bfp8 linear + fp32 non-linear preserves pre-trained fp32 model
//! behaviour without retraining. With no ImageNet checkpoints available,
//! we verify the numerical backbone of that claim: bounded datapath error
//! at every level, from scalars to whole encoders.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
use bfp_arith::matrix::MatF32;
use bfp_arith::stats::ErrorStats;
use bfp_arith::ulp::ulp_distance;
use bfp_transformer::{Datapath, MixedEngine, RefEngine, VitConfig, VitModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn scalar_datapaths_stay_within_two_ulp() {
    let mul = HwFp32Mul::new(MulVariant::DropLsp);
    let add = HwFp32Add::new(AddVariant::Exact48);
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..50_000 {
        let x: f32 = rng.gen_range(-1e6..1e6);
        let y: f32 = rng.gen_range(-1e6..1e6);
        if (x * y).is_finite() && (x * y).abs() > 1e-20 {
            assert!(ulp_distance(mul.mul(x, y), x * y) <= 2, "{x} * {y}");
        }
        let s = x + y;
        if s != 0.0 && s.abs() > 1e-20 {
            assert!(ulp_distance(add.add(x, y), s) <= 1, "{x} + {y}");
        }
    }
}

#[test]
fn deeper_models_degrade_gracefully() {
    // Quantization noise compounds across blocks but must not explode:
    // SQNR decreases roughly linearly in depth, not catastrophically.
    let mut prev_sqnr = f64::INFINITY;
    for depth in [1usize, 2, 4] {
        let cfg = VitConfig {
            depth,
            ..VitConfig::tiny_test()
        };
        let model = VitModel::new_random(cfg, 31);
        let x = model.synthetic_input(17);
        let want = model.forward(&mut RefEngine, &x);
        let got = model.forward(&mut MixedEngine::new(), &x);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        assert!(
            s.sqnr_db() > 10.0,
            "depth {depth}: SQNR {:.1} dB must stay usable",
            s.sqnr_db()
        );
        assert!(
            s.sqnr_db() < prev_sqnr + 3.0,
            "fidelity should not improve with depth (depth {depth})"
        );
        prev_sqnr = s.sqnr_db();
    }
}

#[test]
fn logit_ranking_is_preserved() {
    // Argmax agreement between fp32 and mixed outputs on many random
    // inputs — the proxy for "no accuracy loss without retraining".
    let model = VitModel::new_random(VitConfig::tiny_test(), 77);
    let mut agree = 0;
    let total = 20;
    for seed in 0..total {
        let x = model.synthetic_input(seed as u64);
        let want = model.forward(&mut RefEngine, &x);
        let got = model.forward(&mut MixedEngine::new(), &x);
        // Use the class-token row (row 0) as the logit vector.
        let argmax = |m: &MatF32| {
            m.row(0)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        if argmax(&want) == argmax(&got) {
            agree += 1;
        }
    }
    assert!(
        agree >= total - 1,
        "argmax agreement {agree}/{total}; mixed precision must track fp32"
    );
}

#[test]
fn attention_probabilities_remain_normalized() {
    // After bfp8 QK^T noise and the VPU softmax, attention rows must still
    // be valid probability distributions.
    let mut vpu = bfp_transformer::Vpu::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let mut row: Vec<f32> = (0..64).map(|_| rng.gen_range(-8.0..8.0)).collect();
        vpu.softmax_row(&mut row);
        let sum: f64 = row.iter().map(|&v| v as f64).sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax sum {sum}");
        assert!(row.iter().all(|&v| (0.0..=1.0001).contains(&v)));
    }
}

#[test]
fn block_size_ablation_monotone_on_heterogeneous_data() {
    // Smaller blocks isolate outliers better: SQNR(4) >= SQNR(8) >= SQNR(16)
    // on data with strong local dynamic range.
    use bfp_arith::quant::Quantizer;
    let m = MatF32::from_fn(64, 64, |i, j| {
        let v = ((i * 13 + j * 29) % 101) as f32 / 101.0 - 0.5;
        if (i / 4) % 3 == 0 {
            v * 200.0
        } else {
            v
        }
    });
    let sqnr = |b: usize| {
        Quantizer::with_block(b)
            .quantize(&m)
            .unwrap()
            .fidelity(&m)
            .sqnr_db()
    };
    let (s4, s8, s16) = (sqnr(4), sqnr(8), sqnr(16));
    assert!(s4 >= s8 && s8 >= s16, "SQNR {s4:.1} / {s8:.1} / {s16:.1}");
}
