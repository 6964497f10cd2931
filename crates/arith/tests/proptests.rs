//! Property-based tests for the core arithmetic invariants.

use bfp_arith::bfp::{BfpBlock, BlockAcc, BLOCK};
use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::PackedBfp;
use bfp_arith::quant::{Quantizer, RoundMode};
use bfp_arith::softfp::SoftFp32;
use bfp_arith::stats::ErrorStats;
use bfp_arith::ulp::ulp_distance;
use proptest::prelude::*;

/// Finite, normal-range f32 values (the domain the FTZ datapath covers).
fn normal_f32() -> impl Strategy<Value = f32> {
    // Exponent range chosen so products and sums stay normal.
    (any::<u32>(), -30i32..30, any::<bool>()).prop_map(|(frac, e, neg)| {
        let bits = (((e + 127) as u32) << 23) | (frac & 0x7f_ffff);
        let v = f32::from_bits(bits);
        if neg {
            -v
        } else {
            v
        }
    })
}

fn tile() -> impl Strategy<Value = [[f32; BLOCK]; BLOCK]> {
    proptest::array::uniform8(proptest::array::uniform8(-100.0f32..100.0))
}

/// The full finite-input domain the quantizer must handle identically on
/// both epilogues: ordinary values, exact zeros, subnormals (FTZ'd by the
/// datapath but legal quantizer inputs), and values adjacent to the f32
/// overflow boundary (stressing the shared-exponent search).
fn quantizable_f32() -> impl Strategy<Value = f32> {
    (0u32..8, any::<u32>(), any::<bool>()).prop_map(|(kind, bits, neg)| {
        let v = match kind {
            // Ordinary magnitudes across a wide exponent span.
            0..=4 => {
                let e = 67 + (bits >> 23) % 120; // biased exponents 67..187
                f32::from_bits((e << 23) | (bits & 0x7f_ffff))
            }
            5 => 0.0,
            // Subnormal (or zero) bit patterns — FTZ'd by the datapath but
            // legal quantizer inputs.
            6 => f32::from_bits(bits & 0x7f_ffff),
            // Non-finite-adjacent magnitudes near the f32 overflow bound.
            _ => f32::MAX * (0.25 + (bits % 1024) as f32 / 1365.0),
        };
        if neg {
            -v
        } else {
            v
        }
    })
}

fn round_mode() -> impl Strategy<Value = RoundMode> {
    (0u32..3).prop_map(|k| match k {
        0 => RoundMode::NearestEven,
        1 => RoundMode::Truncate,
        _ => RoundMode::Stochastic,
    })
}

proptest! {
    #[test]
    fn softfp_roundtrip_is_identity(x in normal_f32()) {
        prop_assert_eq!(SoftFp32::unpack(x).pack().to_bits(), x.to_bits());
    }

    #[test]
    fn slices_always_reassemble(x in normal_f32()) {
        let u = SoftFp32::unpack(x);
        let r = SoftFp32::from_slices(u.sign, u.exp, u.slices());
        prop_assert_eq!(r, u);
    }

    #[test]
    fn exact_mul_with_rne_is_ieee(x in normal_f32(), y in normal_f32()) {
        let m = HwFp32Mul { variant: MulVariant::Exact, round: NormRound::NearestEven };
        let ieee = x * y;
        // Stay away from overflow/underflow where FTZ semantics differ.
        prop_assume!(ieee.is_finite() && ieee.abs() >= 1e-30 && ieee.abs() <= 1e30);
        prop_assert_eq!(m.mul(x, y).to_bits(), ieee.to_bits());
    }

    #[test]
    fn hw_mul_truncation_within_two_ulp(x in normal_f32(), y in normal_f32()) {
        let m = HwFp32Mul::new(MulVariant::DropLsp);
        let ieee = x * y;
        prop_assume!(ieee.is_finite() && ieee.abs() >= 1e-30 && ieee.abs() <= 1e30);
        prop_assert!(ulp_distance(m.mul(x, y), ieee) <= 2);
    }

    #[test]
    fn hw_mul_sign_symmetry(x in normal_f32(), y in normal_f32()) {
        let m = HwFp32Mul::new(MulVariant::DropLsp);
        prop_assert_eq!(m.mul(x, y).to_bits(), m.mul(-x, -y).to_bits());
        prop_assert_eq!(m.mul(-x, y).to_bits(), (-m.mul(x, y)).to_bits());
    }

    #[test]
    fn hw_mul_commutes(x in normal_f32(), y in normal_f32()) {
        let m = HwFp32Mul::new(MulVariant::DropLsp);
        prop_assert_eq!(m.mul(x, y).to_bits(), m.mul(y, x).to_bits());
    }

    #[test]
    fn hw_add_within_one_ulp(x in normal_f32(), y in normal_f32()) {
        let a = HwFp32Add::new(AddVariant::Exact48);
        let ieee = x + y;
        prop_assume!(ieee.is_finite());
        if ieee == 0.0 {
            prop_assert_eq!(a.add(x, y), 0.0);
        } else {
            prop_assume!(ieee.abs() >= 1e-30);
            prop_assert!(ulp_distance(a.add(x, y), ieee) <= 1,
                "{} + {} = {} (hw {})", x, y, ieee, a.add(x, y));
        }
    }

    #[test]
    fn hw_add_commutes(x in normal_f32(), y in normal_f32()) {
        let a = HwFp32Add::new(AddVariant::Exact48);
        prop_assert_eq!(a.add(x, y).to_bits(), a.add(y, x).to_bits());
    }

    #[test]
    fn hw_add_identity(x in normal_f32()) {
        let a = HwFp32Add::new(AddVariant::Exact48);
        prop_assert_eq!(a.add(x, 0.0).to_bits(), x.to_bits());
        let t = HwFp32Add::new(AddVariant::Truncate24);
        prop_assert_eq!(t.add(x, 0.0).to_bits(), x.to_bits());
    }

    #[test]
    fn hw_sub_self_is_zero(x in normal_f32()) {
        let a = HwFp32Add::new(AddVariant::Exact48);
        prop_assert_eq!(a.sub(x, x), 0.0);
    }

    #[test]
    fn bfp_quantize_error_bounded_by_half_step(t in tile()) {
        let b = BfpBlock::quantize(&t);
        let step = (b.exp as f64).exp2();
        let back = b.to_f32();
        for i in 0..BLOCK {
            for j in 0..BLOCK {
                let err = (back[i][j] as f64 - t[i][j] as f64).abs();
                prop_assert!(err <= step / 2.0 + 1e-9,
                    "({},{}) err {} > {}", i, j, err, step / 2.0);
            }
        }
    }

    #[test]
    fn bfp_quantize_mantissas_in_symmetric_range(t in tile()) {
        let b = BfpBlock::quantize(&t);
        for row in &b.man {
            for &m in row {
                prop_assert!((-127..=127).contains(&(m as i32)));
            }
        }
    }

    #[test]
    fn bfp_matmul_tracks_f64_reference(ta in tile(), tb in tile()) {
        let (a, b) = (BfpBlock::quantize(&ta), BfpBlock::quantize(&tb));
        // Reference product of the *quantized* inputs is exact in f64.
        let da = a.to_f32();
        let db = b.to_f32();
        let got = a.matmul(&b).to_f32();
        for i in 0..BLOCK {
            for j in 0..BLOCK {
                let want: f64 = (0..BLOCK).map(|k| da[i][k] as f64 * db[k][j] as f64).sum();
                prop_assert!((got[i][j] as f64 - want).abs() <= want.abs() * 1e-6 + 1e-6);
            }
        }
    }

    #[test]
    fn bfp_accumulation_order_alignment_is_monotone(ta in tile(), tb in tile(), tc in tile()) {
        // Accumulating does not lose more than alignment truncation allows:
        // result within 1 LSB-of-largest-exponent per added block.
        let a = BfpBlock::quantize(&ta).matmul(&BfpBlock::quantize(&tb));
        let c = BfpBlock::quantize(&tc).matmul(&BfpBlock::quantize(&tb));
        let mut acc = BlockAcc::new();
        acc.add(&a).unwrap();
        acc.add(&c).unwrap();
        let got = acc.value().to_f32();
        let fa = a.to_f32();
        let fc = c.to_f32();
        let lsb = (acc.value().exp as f64).exp2();
        for i in 0..BLOCK {
            for j in 0..BLOCK {
                let want = fa[i][j] as f64 + fc[i][j] as f64;
                prop_assert!((got[i][j] as f64 - want).abs() <= 2.0 * lsb + want.abs() * 1e-6);
            }
        }
    }

    #[test]
    fn matrix_quantized_matmul_sqnr_floor(
        seed in 0u64..1000,
        rows in 1usize..24,
        inner in 1usize..24,
        cols in 1usize..24,
    ) {
        // Smooth inputs: the bfp8 pipeline keeps > 25 dB SQNR vs f32.
        let a = MatF32::from_fn(rows, inner, |i, j| {
            ((seed as f32) * 0.01 + i as f32 * 0.31 + j as f32 * 0.17).sin()
        });
        let b = MatF32::from_fn(inner, cols, |i, j| {
            ((seed as f32) * 0.02 - i as f32 * 0.23 + j as f32 * 0.11).cos()
        });
        let q = Quantizer::paper();
        let got = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
        let want = a.matmul(&b);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        // Cancellation-dominated outputs (RMS far below the operand scale)
        // legitimately lose *relative* accuracy — absolute noise is set by
        // the inputs, not the output. Enforce the SQNR floor only where the
        // output carries signal at the operand scale.
        let rms = (s.signal_energy / s.count as f64).sqrt();
        if rms > 0.5 {
            prop_assert!(s.sqnr_db() > 25.0, "SQNR {} at rms {rms}", s.sqnr_db());
        }
    }

    #[test]
    fn fused_quantize_pack_equals_composed_path(
        rows in 1usize..22,
        cols in 1usize..22,
        round in round_mode(),
        values in proptest::collection::vec(quantizable_f32(), 22 * 22),
    ) {
        // The fused f32 → block-major epilogue must be indistinguishable
        // from quantize-then-pack for BOTH sides, on every rounding mode,
        // across the whole finite input domain (subnormals, zero tiles,
        // near-overflow magnitudes) — including which error it reports.
        let m = MatF32::from_fn(rows, cols, |i, j| values[i * 22 + j]);
        let q = Quantizer { round, ..Quantizer::paper() };
        let fused = PackedBfp::quantize_pack_lhs(&q, &m);
        let composed = q.quantize(&m).map(|qm| PackedBfp::pack_lhs(&qm));
        match (fused, composed) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err())),
        }
        let fused = PackedBfp::quantize_pack_rhs(&q, &m);
        let composed = q.quantize(&m).map(|qm| PackedBfp::pack_rhs(&qm));
        match (fused, composed) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err())),
        }
    }

    #[test]
    fn reference_tile_scan_matches_optimized_scan(
        rows in 1usize..22,
        cols in 1usize..22,
        values in proptest::collection::vec(quantizable_f32(), 22 * 22),
    ) {
        // The kept pre-optimisation scan (`quantize_reference`, replayed by
        // the scalar baseline engine) and the row-slice scan must agree on
        // every tile of every finite input.
        let m = MatF32::from_fn(rows, cols, |i, j| values[i * 22 + j]);
        let q = Quantizer::paper();
        match (q.quantize(&m), q.quantize_reference(&m)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(PackedBfp::pack_lhs(&a), PackedBfp::pack_lhs(&b));
            }
            (a, b) => prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err())),
        }
    }
}
