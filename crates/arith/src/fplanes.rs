//! Lane-parallel twin of the paper's fp32 datapath: four
//! [`HwFp32Mul`]`::new(DropLsp)` / [`HwFp32Add`]`::new(Exact48)` operations
//! (both truncating) per AVX2 instruction stream, bit for bit.
//!
//! The scalar emulation in [`crate::fpmul`] / [`crate::fpadd`] is an integer
//! unpack → shift → `leading_zeros` → pack chain per operation. Both
//! datapaths are bounded-width integer arithmetic inside a 48-bit window,
//! and 48 bits fit the 53-bit significand of an f64 — so every intermediate
//! below is an *exact* IEEE f64 operation, and the only rounding the
//! hardware does (truncation to 24 bits) is one bit mask. A lane holds an
//! fp32 value widened to f64; values stay f64 between operations.
//!
//! **Multiply.** With `xh`/`yh` the operands with their low mantissa slice
//! `man(0)` cleared and `yl = y − yh` (exactly `man_y(0)`'s contribution),
//! the LSP-dropped product `x·y − xl·yl` equals `x·yh + xh·yl`: a 24×16-bit
//! and a 16×8-bit product whose sum is the ≤48-bit integer `full` of
//! [`HwFp32Mul::mul_soft`] times a power of two — three exact f64
//! operations. Clearing the low 29 fraction bits of the result *is*
//! `full >> shift` (the 2⁴⁷-carry case included: f64 normalises for us).
//! The sign is `sx ^ sy` OR-ed back, never the f64 sign (`0·(−3)` comes out
//! of the two-term sum as `+0`).
//!
//! **Add.** `e = max(exp_x, exp_y)` (clamped ≥ 1 so an all-zero pair still
//! names a window), `q = 2^(e−174)` is the LSB of the 48-bit accumulator
//! window with the larger hidden bit at bit 47. `trunc(x/q) + trunc(y/q)`
//! are integers below 2⁴⁹ — `trunc` is `(man << 24) >> shift`, and
//! `shift ≥ 48 → 0` falls out — their f64 sum is exact, so is `·q`, and
//! the same 29-bit mask is `normalize_to_24`. Exact cancellation gives
//! `+0` and `(−0)+(−0) = −0` because IEEE round-to-nearest addition has the
//! same two rules as [`HwFp32Add::add_soft`].
//!
//! Both end in [`SoftFp32::pack`](crate::softfp::SoftFp32::pack)'s clamps:
//! `|r| < 2⁻¹²⁶ → ±0`, `|r| ≥ 2¹²⁸ → ±inf`. [`lane::import`] is
//! [`SoftFp32::unpack`](crate::softfp::SoftFp32::unpack)'s subnormal flush.
//!
//! The lane operations take **finite** inputs: NaN/infinity resolution is
//! control logic in the scalar model (`mul_special`/`add_special`) and stays
//! there — callers check their group's regime first and send anything else
//! down the scalar path. An operation may *produce* ±inf (saturation); such a
//! value must not feed another lane operation. No fused multiply-add
//! anywhere: the exactness argument is per IEEE operation.
//!
//! The scalar types remain the bit oracle and the hardware-faithful model;
//! [`mul_slices`] / [`add_slices`] are the safe entry points tests and
//! benches compare against them.

use crate::fpadd::{AddVariant, HwFp32Add};
use crate::fpmul::{HwFp32Mul, MulVariant};

/// f32 elements per lane vector.
pub const LANES: usize = 4;

/// True when this host can run the lane datapath: x86-64 with AVX2
/// detected at run time.
#[inline]
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `out[i] = HwFp32Mul::new(DropLsp).mul(x[i], y[i])`, four at a time on
/// the lane datapath where the host has it and all four pairs are finite;
/// the scalar multiplier everywhere else. Bit-identical either way.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn mul_slices(x: &[f32], y: &[f32], out: &mut [f32]) {
    let hw = HwFp32Mul::new(MulVariant::DropLsp);
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: AVX2 was just detected.
        unsafe { mul_slices_avx2(x, y, out, &hw) };
        return;
    }
    binop_scalar(x, y, out, |a, b| hw.mul(a, b));
}

/// `out[i] = HwFp32Add::new(Exact48).add(x[i], y[i])`; see [`mul_slices`].
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn add_slices(x: &[f32], y: &[f32], out: &mut [f32]) {
    let hw = HwFp32Add::new(AddVariant::Exact48);
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: AVX2 was just detected.
        unsafe { add_slices_avx2(x, y, out, &hw) };
        return;
    }
    binop_scalar(x, y, out, |a, b| hw.add(a, b));
}

fn binop_scalar(x: &[f32], y: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(x.len(), out.len(), "operand length");
    assert_eq!(y.len(), out.len(), "operand length");
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o = f(a, b);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_slices_avx2(x: &[f32], y: &[f32], out: &mut [f32], hw: &HwFp32Mul) {
    // SAFETY: the caller detected AVX2.
    binop_lanes(
        x,
        y,
        out,
        |a, b| unsafe { lane::mul(a, b) },
        |a, b| hw.mul(a, b),
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_slices_avx2(x: &[f32], y: &[f32], out: &mut [f32], hw: &HwFp32Add) {
    // SAFETY: the caller detected AVX2.
    binop_lanes(
        x,
        y,
        out,
        |a, b| unsafe { lane::add(a, b) },
        |a, b| hw.add(a, b),
    );
}

/// Groups of four finite pairs through `vector`, everything else (a group
/// with a NaN/infinite operand, the slice remainder) through `scalar`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn binop_lanes(
    x: &[f32],
    y: &[f32],
    out: &mut [f32],
    vector: impl Fn(lane::F64x4, lane::F64x4) -> lane::F64x4,
    scalar: impl Fn(f32, f32) -> f32,
) {
    assert_eq!(x.len(), out.len(), "operand length");
    assert_eq!(y.len(), out.len(), "operand length");
    let groups = out
        .chunks_exact_mut(LANES)
        .zip(x.chunks_exact(LANES).zip(y.chunks_exact(LANES)));
    for (o, (a, b)) in groups {
        // SAFETY: every chunk is exactly `LANES` f32s.
        let (va, vb) = unsafe { (lane::load(a.as_ptr()), lane::load(b.as_ptr())) };
        if unsafe { lane::all_finite(va) && lane::all_finite(vb) } {
            let r = vector(unsafe { lane::import(va) }, unsafe { lane::import(vb) });
            // SAFETY: `o` is exactly `LANES` f32s.
            unsafe { lane::store(o.as_mut_ptr(), lane::export(r)) };
        } else {
            binop_scalar(a, b, o, &scalar);
        }
    }
    let done = out.len() - out.len() % LANES;
    binop_scalar(&x[done..], &y[done..], &mut out[done..], scalar);
}

/// The lane operations themselves. Every function is `#[inline(always)]`
/// and carries no `target_feature` of its own, so it folds into a caller
/// compiled with AVX2 enabled.
///
/// # Safety
/// Every function here must only be reached on a host with AVX2 (check
/// [`available`]), from a function compiled with
/// `#[target_feature(enable = "avx2")]`. Unless stated otherwise lane
/// inputs must be finite values produced by [`import`](lane::import) or
/// by another lane operation.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // one contract, stated on the module
pub mod lane {
    use std::arch::x86_64::*;

    /// Four fp32 values widened to f64, one per lane.
    pub type F64x4 = __m256d;
    /// Four fp32 values in memory format.
    pub type F32x4 = __m128;

    const SIGN: u64 = 1 << 63;
    const EXP_FIELD: u64 = 0x7ff << 52;
    /// Clears `man(0)`: the low 8 of the 24 mantissa bits sit at f64
    /// fraction bits 29..=36 (everything below is zero in a lane value).
    const CLEAR_MAN0: u64 = !((1 << 37) - 1);
    /// Truncates to 24 significant bits (drops fraction bits 0..=28) and
    /// drops the sign.
    const TRUNC24_ABS: u64 = !((1 << 29) - 1) & !SIGN;
    /// 2⁻¹²⁶, the smallest magnitude `pack` does not flush.
    const TINY: u64 = (1023 - 126) << 52;
    /// 2¹²⁸, the smallest magnitude `pack` saturates.
    const HUGE: u64 = (1023 + 128) << 52;
    /// The adder window: `q = me · 2⁻⁴⁷`, `1/q = 2⁴⁷ / me` for the
    /// power of two `me = 2^(e−127)`, both by exponent-field arithmetic.
    const WINDOW: i64 = 47 << 52;
    const WINDOW_INV: i64 = ((2 * 1023 + 47u64) << 52) as i64;

    #[inline(always)]
    unsafe fn bits(v: u64) -> F64x4 {
        _mm256_castsi256_pd(_mm256_set1_epi64x(v as i64))
    }

    /// Four consecutive f32s.
    ///
    /// # Safety
    /// `p` must be valid for reading four f32s (any alignment).
    #[inline(always)]
    pub unsafe fn load(p: *const f32) -> F32x4 {
        _mm_loadu_ps(p)
    }

    /// # Safety
    /// `p` must be valid for writing four f32s (any alignment).
    #[inline(always)]
    pub unsafe fn store(p: *mut f32, v: F32x4) {
        _mm_storeu_ps(p, v)
    }

    /// The same f32 in all four lanes.
    #[inline(always)]
    pub unsafe fn splat(x: f32) -> F32x4 {
        _mm_set1_ps(x)
    }

    /// True when no lane is NaN or infinite (any f32 input).
    #[inline(always)]
    pub unsafe fn all_finite(x: F32x4) -> bool {
        all_abs_le(x, f32::MAX)
    }

    /// True when every lane has `|x| ≤ bound`; a NaN lane fails (any f32
    /// input).
    #[inline(always)]
    pub unsafe fn all_abs_le(x: F32x4, bound: f32) -> bool {
        let abs = _mm_andnot_ps(_mm_set1_ps(-0.0), x);
        _mm_movemask_ps(_mm_cmple_ps(abs, _mm_set1_ps(bound))) == 0b1111
    }

    /// True when every lane lies in `[lo, hi]` (lane values, ±inf allowed).
    #[inline(always)]
    pub unsafe fn all_within(v: F64x4, lo: f64, hi: f64) -> bool {
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, _mm256_set1_pd(lo));
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(v, _mm256_set1_pd(hi));
        _mm256_movemask_pd(_mm256_and_pd(ge, le)) == 0b1111
    }

    /// Widen to lane format with `SoftFp32::unpack`'s flush: a subnormal
    /// becomes a zero of its sign. Infinities pass through unchanged.
    #[inline(always)]
    pub unsafe fn import(x: F32x4) -> F64x4 {
        let v = _mm256_cvtps_pd(x);
        let normal = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_andnot_pd(bits(SIGN), v), bits(TINY));
        _mm256_and_pd(v, _mm256_or_pd(normal, bits(SIGN)))
    }

    /// Back to memory format. Exact: a lane value is an fp32 value.
    #[inline(always)]
    pub unsafe fn export(v: F64x4) -> F32x4 {
        _mm256_cvtpd_ps(v)
    }

    /// `SoftFp32::pack` on a truncated magnitude: flush below 2⁻¹²⁶,
    /// saturate from 2¹²⁸, attach the sign (which survives both).
    #[inline(always)]
    unsafe fn pack(mag: F64x4, sign: F64x4) -> F64x4 {
        let mag = _mm256_and_pd(mag, _mm256_cmp_pd::<_CMP_GE_OQ>(mag, bits(TINY)));
        let over = _mm256_cmp_pd::<_CMP_GE_OQ>(mag, bits(HUGE));
        _mm256_or_pd(_mm256_blendv_pd(mag, bits(EXP_FIELD), over), sign)
    }

    /// `HwFp32Mul { DropLsp, Truncate }::mul` per lane.
    #[inline(always)]
    pub unsafe fn mul(x: F64x4, y: F64x4) -> F64x4 {
        let sign = _mm256_and_pd(_mm256_xor_pd(x, y), bits(SIGN));
        let xh = _mm256_and_pd(x, bits(CLEAR_MAN0));
        let yh = _mm256_and_pd(y, bits(CLEAR_MAN0));
        let yl = _mm256_sub_pd(y, yh);
        // x·y − xl·yl = x·yh + xh·yl; 40-bit + 24-bit products, 48-bit sum.
        let full = _mm256_add_pd(_mm256_mul_pd(x, yh), _mm256_mul_pd(xh, yl));
        pack(_mm256_and_pd(full, bits(TRUNC24_ABS)), sign)
    }

    /// `HwFp32Add { Exact48, Truncate }::add` per lane.
    #[inline(always)]
    pub unsafe fn add(x: F64x4, y: F64x4) -> F64x4 {
        // me = 2^(max(exp_x, exp_y, 1) − 127): the larger exponent field
        // alone, zeros (exp 0) lifted to the smallest normal's.
        let ex = _mm256_and_pd(x, bits(EXP_FIELD));
        let ey = _mm256_and_pd(y, bits(EXP_FIELD));
        let me = _mm256_castpd_si256(_mm256_max_pd(_mm256_max_pd(ex, ey), bits(TINY)));
        let q = _mm256_castsi256_pd(_mm256_sub_epi64(me, _mm256_set1_epi64x(WINDOW)));
        let q_inv = _mm256_castsi256_pd(_mm256_sub_epi64(_mm256_set1_epi64x(WINDOW_INV), me));
        const TO_ZERO: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let tx = _mm256_round_pd::<TO_ZERO>(_mm256_mul_pd(x, q_inv));
        let ty = _mm256_round_pd::<TO_ZERO>(_mm256_mul_pd(y, q_inv));
        let sum = _mm256_mul_pd(_mm256_add_pd(tx, ty), q);
        pack(
            _mm256_and_pd(sum, bits(TRUNC24_ABS)),
            _mm256_and_pd(sum, bits(SIGN)),
        )
    }

    /// `HwFp32Add::sub`: the sign flip through the XOR gate, then [`add`].
    #[inline(always)]
    pub unsafe fn sub(x: F64x4, y: F64x4) -> F64x4 {
        add(x, _mm256_xor_pd(y, bits(SIGN)))
    }

    /// The exponent unit's `x · 2^k` (`Vpu::scale_exp2`) for any `k`: a
    /// zero keeps its sign, underflow flushes to **+0**, overflow
    /// saturates to ±inf.
    #[inline(always)]
    pub unsafe fn scale_exp2(x: F64x4, k: __m128i) -> F64x4 {
        // |k| ≥ 280 already decides under/overflow for every fp32
        // exponent, and keeps 2^k a normal f64.
        let k = _mm_max_epi32(_mm_min_epi32(k, _mm_set1_epi32(300)), _mm_set1_epi32(-300));
        let pow = _mm256_slli_epi64::<52>(_mm256_add_epi64(
            _mm256_cvtepi32_epi64(k),
            _mm256_set1_epi64x(1023),
        ));
        let r = _mm256_mul_pd(x, _mm256_castsi256_pd(pow));
        let mag = _mm256_andnot_pd(bits(SIGN), r);
        let normal = _mm256_cmp_pd::<_CMP_GE_OQ>(mag, bits(TINY));
        let zero_in = _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_setzero_pd());
        let sign = _mm256_and_pd(_mm256_and_pd(r, bits(SIGN)), _mm256_or_pd(normal, zero_in));
        let over = _mm256_cmp_pd::<_CMP_GE_OQ>(mag, bits(HUGE));
        let mag = _mm256_blendv_pd(_mm256_and_pd(mag, normal), bits(EXP_FIELD), over);
        _mm256_or_pd(mag, sign)
    }

    /// `v as i32` for integer-valued lanes (the `kf as i32` of `Vpu::exp`).
    #[inline(always)]
    pub unsafe fn to_i32(v: F64x4) -> __m128i {
        _mm256_cvttpd_epi32(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_fall_back_on_non_finite_groups_and_remainders() {
        let x = [
            1.5f32,
            f32::NAN,
            2.0,
            f32::INFINITY,
            3.0,
            -0.0,
            1e-40,
            7.0,
            9.0,
        ];
        let y = [
            2.0f32,
            1.0,
            f32::NEG_INFINITY,
            0.0,
            -3.0,
            0.0,
            5.0,
            1e38,
            0.5,
        ];
        let (hm, ha) = (
            HwFp32Mul::new(MulVariant::DropLsp),
            HwFp32Add::new(AddVariant::Exact48),
        );
        let mut got = [0f32; 9];
        mul_slices(&x, &y, &mut got);
        for i in 0..9 {
            assert_eq!(
                got[i].to_bits(),
                hm.mul(x[i], y[i]).to_bits(),
                "mul lane {i}"
            );
        }
        add_slices(&x, &y, &mut got);
        for i in 0..9 {
            assert_eq!(
                got[i].to_bits(),
                ha.add(x[i], y[i]).to_bits(),
                "add lane {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "operand length")]
    fn slices_reject_ragged_operands() {
        mul_slices(&[1.0; 4], &[1.0; 3], &mut [0.0; 4]);
    }
}
