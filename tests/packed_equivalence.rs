//! The fast-path equivalence contract, property-tested: the packed serial
//! kernel, the block-row-parallel kernel, the naive reference kernel, and
//! the `bfp-pu` cycle simulator must produce bit-identical `f32` outputs
//! on the same quantized operands — for every shape (including
//! non-multiples of the block size) and every mix of block exponents.
//! A weight's resident pack (filled once in its `Linear`) must likewise
//! never change a bit against packing both operands per call.

use bfp_arith::abft::{AbftOptions, AbftPacked};
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{EpilogueCtx, PackedBfp};
use bfp_arith::quant::{Quantizer, RoundMode};
use bfp_core::{packed_matmul, ParallelPolicy};
use bfp_pu::unit::{grid_from_matrix, Fidelity, ProcessingUnit, UnitConfig};
use bfp_transformer::{CompiledVitPlan, Engine, MixedEngine, VitConfig, VitModel};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix whose 8×8 tiles land on very
/// different block exponents (`spread` decades apart), so the exponent
/// alignment chain truncates — the path where any evaluation-order
/// difference between kernels would surface as a bit difference.
fn tiered(rows: usize, cols: usize, seed: u64, spread: u32) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        let mut z = seed
            .wrapping_add((i * cols + j + 1) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let base = (z % 8192) as f32 / 1024.0 - 4.0;
        let tier = ((i / 8) + (j / 8)) % (spread as usize + 1);
        base * (tier as f32 * 6.0).exp2()
    })
}

/// A [`MixedEngine`] that keeps the trait's default `matmul_weight`, so
/// every weight GEMM is `Engine::matmul(x, lin.w())`: both operands packed
/// per call (`PackedBfp::quantize_pack_rhs`), no layer's pack consulted.
struct PerCall(MixedEngine);

impl Engine for PerCall {
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.0.matmul(a, b)
    }
    fn softmax_rows(&mut self, m: &mut MatF32) {
        self.0.softmax_rows(m)
    }
    fn gelu(&mut self, m: &mut MatF32) {
        self.0.gelu(m)
    }
    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
        self.0.layernorm(m, gamma, beta, eps)
    }
}

fn bits_eq(a: &MatF32, b: &MatF32) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The cycle simulator's answer: quantize, run the stepped (per-DSP-clock)
/// simulation on one processing unit, convert the wide output grid to f32
/// exactly the way the platform layer does.
fn cycle_sim_product(qa: &bfp_arith::quant::BfpMatrix, qb: &bfp_arith::quant::BfpMatrix, rows: usize, cols: usize) -> MatF32 {
    let mut unit = ProcessingUnit::new(UnitConfig {
        fidelity: Fidelity::Stepped,
        ..Default::default()
    });
    let grid = unit.matmul_grid(&grid_from_matrix(qa), &grid_from_matrix(qb));
    MatF32::from_fn(rows, cols, |i, j| {
        let w = &grid[i / 8][j / 8];
        (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// naive == packed serial == packed parallel == cycle simulator,
    /// bit-for-bit, across ragged shapes and mixed block exponents.
    #[test]
    fn all_gemm_paths_agree_bitwise(
        m in 1usize..34,
        k in 1usize..34,
        n in 1usize..34,
        seed in any::<u64>(),
        spread in 0u32..3,
    ) {
        let a = tiered(m, k, seed, spread);
        let b = tiered(k, n, seed ^ 0x5DEE_CE66, spread);
        let q = Quantizer::paper();
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());

        let naive = qa.try_matmul(&qb).unwrap();
        let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
        let packed = pa.matmul(&pb).unwrap();
        prop_assert!(bits_eq(&packed, &naive), "packed kernel diverged");

        for policy in [ParallelPolicy::Serial, ParallelPolicy::Threads(3)] {
            let par = packed_matmul(&pa, &pb, policy).unwrap();
            prop_assert!(bits_eq(&par, &naive), "parallel kernel diverged ({policy:?})");
        }

        let sim = cycle_sim_product(&qa, &qb, m, n);
        prop_assert!(bits_eq(&sim, &naive), "cycle simulator diverged");
    }

    /// The ABFT-checked kernel is part of the same contract: bit-identical
    /// to the unchecked packed kernel on healthy hardware for every shape,
    /// every rounding mode, and every scale regime — operands scaled down
    /// into the subnormal range and up to the edge of f32 overflow — with
    /// the checksum invariant verifying clean throughout. This is the
    /// "no false positives, no silent drift" half of the ABFT story; the
    /// fault_tolerance suite covers the detection half.
    #[test]
    fn abft_kernel_is_bit_exact_and_provably_clean(
        m in 1usize..34,
        k in 1usize..34,
        n in 1usize..34,
        seed in any::<u64>(),
        spread in 0u32..3,
        round_ix in 0usize..3,
        scale_exp in -140i32..57,
    ) {
        let round = [
            RoundMode::NearestEven,
            RoundMode::Truncate,
            RoundMode::Stochastic,
        ][round_ix];
        let scale = (scale_exp as f32).exp2();
        let mut a = tiered(m, k, seed, spread);
        let mut b = tiered(k, n, seed ^ 0x0DD_BA11, spread);
        for v in a.data_mut().iter_mut().chain(b.data_mut().iter_mut()) {
            *v *= scale;
        }
        let q = Quantizer {
            round,
            ..Quantizer::paper()
        };
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());

        let packed = PackedBfp::pack_lhs(&qa).matmul(&PackedBfp::pack_rhs(&qb)).unwrap();
        let (ca, cb) = (AbftPacked::pack_lhs(&qa), AbftPacked::pack_rhs(&qb));
        let (checked, report) = ca.matmul(&cb).unwrap();

        prop_assert!(report.clean(), "healthy hardware flagged: {report:?}");
        prop_assert_eq!(report.chains, (m.div_ceil(8) * n.div_ceil(8)) as u64);
        prop_assert!(report.checks >= report.chains, "every chain ends in a verify");
        prop_assert!(bits_eq(&checked, &packed), "checked kernel diverged");
    }

    /// A weight's resident pack is invisible to numerics: the GEMM that
    /// fills it and the GEMM that borrows it are bit-identical to packing
    /// both operands per call.
    #[test]
    fn weight_plan_cache_never_changes_bits(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let a = tiered(m, k, seed, 2);
        let mut lin = VitModel::new_random(VitConfig::tiny_test(), 0).blocks[0].fc1.clone();
        *lin.w_mut() = tiered(k, n, seed ^ 0xA5A5, 2);
        let mut e = MixedEngine::new();
        let per_call = e.matmul(&a, lin.w());
        let cold = e.matmul_weight(&a, &lin);
        prop_assert!(bits_eq(&cold, &per_call));
        // Second pass borrows the pack; the bits must not move.
        let warm = e.matmul_weight(&a, &lin);
        prop_assert!(bits_eq(&warm, &cold));
        let stats = e.plan_cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}

/// DeiT's sequence length is ragged (197 = 24·8 + 5), and so are this K
/// and N: the fused quantize-pack, the AVX2 chain kernel behind `matmul`,
/// the sharded kernel and the fused drains all agree with the naive
/// reference and the stepped cycle simulator on a shape with padded tiles
/// on every edge.
#[test]
fn ragged_deit_shape_agrees_across_every_gemm_path() {
    let (m, k, n) = (197, 72, 131);
    let a = tiered(m, k, 0xD317, 2);
    let b = tiered(k, n, 0x5EED, 2);
    let q = Quantizer::paper();
    let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
    let naive = qa.try_matmul(&qb).unwrap();
    assert!(bits_eq(&cycle_sim_product(&qa, &qb, m, n), &naive), "cycle simulator diverged");

    // Operands packed through both routes: the scalar quantizer composed
    // with the packer, and the fused quantize-pack (the lane tile
    // quantiser on an AVX2 host) that the engine and `bfp-serve` run.
    let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
    assert_eq!(PackedBfp::quantize_pack_lhs(&q, &a).unwrap(), pa, "fused quantize-pack diverged (lhs)");
    assert_eq!(PackedBfp::quantize_pack_rhs(&q, &b).unwrap(), pb, "fused quantize-pack diverged (rhs)");
    assert!(bits_eq(&pa.matmul(&pb).unwrap(), &naive), "packed kernel diverged");
    for threads in [2, 3] {
        let par = pa.matmul_parallel(&pb, threads).unwrap();
        assert!(bits_eq(&par, &naive), "sharded kernel diverged ({threads} threads)");
    }

    let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).sin()).collect();
    let composed = MatF32::from_fn(m, n, |i, j| (naive.get(i, j) + bias[j]).max(0.0));
    let drain = |tile: &mut [f32], ctx: &EpilogueCtx| {
        for i in 0..ctx.imax {
            for (j, v) in tile[i * ctx.b..][..ctx.jmax].iter_mut().enumerate() {
                *v = (*v + bias[ctx.c0 + j]).max(0.0);
            }
        }
    };
    let fused = pa.matmul_epilogue(&pb, drain).unwrap();
    assert!(bits_eq(&fused, &composed), "fused drain diverged");
    // The drain's f32 output packed for the next GEMM, as the compiled
    // plan's fc1→fc2 edge does: the planes the scalar quantizer makes of
    // the composed matrix.
    let want = PackedBfp::pack_lhs(&q.quantize(&composed).unwrap());
    assert_eq!(PackedBfp::quantize_pack_lhs(&q, &fused).unwrap(), want, "drain → pack edge diverged");

    // The checked kernel `bfp-serve` runs: the same bits under a clean
    // report, one mid-chain or final check per truncation event — and the
    // same bits again after one accumulator upset, repaired in place.
    let (ca, cb) = (AbftPacked::pack_lhs(&qa), AbftPacked::pack_rhs(&qb));
    let (checked, report) = ca.matmul(&cb).unwrap();
    assert!(bits_eq(&checked, &naive), "checked kernel diverged");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.chains, 25 * 17);
    assert!(report.checks > report.chains, "the tiered operands truncate mid-chain");
    let mut upset = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
        if (bi, bj) != (24, 16) {
            return 0;
        }
        acc[9] ^= 1 << 9;
        1
    };
    let mut opts = AbftOptions { no_verify: false, tamper: Some(&mut upset) };
    let (repaired, upset_report) = ca.matmul_with(&cb, &mut opts).unwrap();
    assert!(bits_eq(&repaired, &naive), "repair left wrong bits");
    assert_eq!((upset_report.tampered, upset_report.detections), (1, 1));
    assert_eq!(upset_report.corrected_elements, 1);
    assert!(upset_report.uncorrected.is_empty());
    assert_eq!(upset_report.checks, report.checks);
}

/// The lane-parallel exact VPU kernels under tier-1: one encoder block at
/// DeiT's sequence length — on the hand-wired path and on the compiled
/// plan, whose fused GELU drain hands the VPU 64-element tiles — against
/// `baseline_scalar`, whose VPU enumerates partial products and so stays
/// on the scalar kernels by construction. Same bits, same census.
#[test]
fn exact_block_at_seq_197_matches_the_scalar_vpu_in_bits_and_census() {
    let cfg = VitConfig { dim: 64, depth: 1, heads: 2, mlp_ratio: 4, seq: 197 };
    let model = VitModel::new_random(cfg, 13);
    let x = model.synthetic_input(5);
    let block = &model.blocks[0];

    let mut scalar = MixedEngine::baseline_scalar();
    let want = block.forward(&mut scalar, &x);
    let want_census = scalar.take_census();
    assert!(want_census.gelu.fp_mul > 0 && want_census.softmax.host_div > 0);

    let planned = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
    for (path, mut engine) in [("hand-wired", MixedEngine::new()), ("compiled plan", planned)] {
        let got = block.forward(&mut engine, &x);
        assert!(bits_eq(&got, &want), "{path}: block output diverged from the scalar VPU");
        assert_eq!(engine.take_census(), want_census, "{path}: census diverged");
    }
}

/// Whole-model determinism under resident packs: the same ViT forward pass
/// on one engine, borrowing the model's packs, matches a fresh engine that
/// packs every operand per call, run after run.
#[test]
fn cached_engine_model_forward_is_bit_stable() {
    let model = VitModel::new_random(VitConfig::tiny_test(), 7);
    let x = model.synthetic_input(9);
    let mut cached = MixedEngine::new();
    let first = model.forward(&mut cached, &x);
    for _ in 0..2 {
        let again = model.forward(&mut cached, &x);
        assert!(bits_eq(&again, &first), "warm forward drifted");
        let mut fresh = PerCall(MixedEngine::new());
        let reference = model.forward(&mut fresh, &x);
        assert!(bits_eq(&reference, &first), "resident packs changed model output");
        assert_eq!(fresh.0.plan_cache_stats().hits, 0, "the per-call route consulted a pack");
    }
    let stats = cached.plan_cache_stats();
    assert!(stats.hits > 0, "expected borrowed packs, got {stats:?}");
}
