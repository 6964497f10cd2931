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
//! **Two widths.** [`lane`] runs four lanes per AVX2 instruction stream
//! (`F64x4`), [`lane8`] eight per AVX-512 one (`F64x8`): the same functions
//! and the same IEEE operations, `lane8`'s compares and selects in k-masks.
//! [`Width`] names both ([`Ymm`], [`Zmm`]), so code written once over
//! `W: Width` compiles to either, and [`tier`] is the widest this host
//! runs — the one run-time choice.
//!
//! The scalar types remain the bit oracle and the hardware-faithful model;
//! [`mul_slices`] / [`add_slices`] run one tier's lanes and are the safe
//! entry points tests compare against them.

use std::fmt;

use crate::fpadd::{AddVariant, HwFp32Add};
use crate::fpmul::{HwFp32Mul, MulVariant};

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

/// A width of the lane datapath a host can run, narrowest first: a host
/// that runs a tier runs every tier below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// No lanes: the scalar datapath.
    Scalar,
    /// [`lane`], four lanes: AVX2.
    Avx2,
    /// [`lane8`], eight lanes: AVX2 and AVX-512 F, DQ and VL.
    Avx512,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2 (4 lanes)",
            Tier::Avx512 => "avx512 (8 lanes)",
        })
    }
}

/// The widest [`Tier`] this host runs, by run-time CPU detection.
#[inline]
pub fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            return Tier::Avx512;
        }
        return Tier::Avx2;
    }
    Tier::Scalar
}

/// `out[i] = HwFp32Mul::new(DropLsp).mul(x[i], y[i])`, a vector at a time
/// on `tier`'s lanes where all its pairs are finite, the scalar multiplier
/// everywhere else. Bit-identical on every tier.
///
/// # Panics
/// Panics if the three slices differ in length, or if the host cannot run
/// `tier` (it is above [`tier()`]).
pub fn mul_slices(tier: Tier, x: &[f32], y: &[f32], out: &mut [f32]) {
    binop(tier, BinOp::Mul, x, y, out);
}

/// `out[i] = HwFp32Add::new(Exact48).add(x[i], y[i])`; see [`mul_slices`].
///
/// # Panics
/// As [`mul_slices`].
pub fn add_slices(tier: Tier, x: &[f32], y: &[f32], out: &mut [f32]) {
    binop(tier, BinOp::Add, x, y, out);
}

#[derive(Clone, Copy)]
enum BinOp {
    Mul,
    Add,
}

impl BinOp {
    fn scalar(self, x: f32, y: f32) -> f32 {
        match self {
            BinOp::Mul => HwFp32Mul::new(MulVariant::DropLsp).mul(x, y),
            BinOp::Add => HwFp32Add::new(AddVariant::Exact48).add(x, y),
        }
    }
}

fn binop(on: Tier, op: BinOp, x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "operand length");
    assert_eq!(y.len(), out.len(), "operand length");
    assert!(on <= tier(), "this host cannot run the {on} tier");
    let done = match on {
        // SAFETY (both arms): the host runs the tier, asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { binop_avx512(op, x, y, out) },
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { binop_avx2(op, x, y, out) },
        _ => 0,
    };
    for i in done..out.len() {
        out[i] = op.scalar(x[i], y[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn binop_avx2(op: BinOp, x: &[f32], y: &[f32], out: &mut [f32]) -> usize {
    binop_lanes::<Ymm>(op, x, y, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
unsafe fn binop_avx512(op: BinOp, x: &[f32], y: &[f32], out: &mut [f32]) -> usize {
    binop_lanes::<Zmm>(op, x, y, out)
}

/// Whole vectors of finite pairs through `W`'s lanes, a vector with a
/// NaN/infinite operand through the scalar op; returns the elements done
/// (all but the `< W::LANES` remainder).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn binop_lanes<W: Width>(op: BinOp, x: &[f32], y: &[f32], out: &mut [f32]) -> usize {
    let groups = out
        .chunks_exact_mut(W::LANES)
        .zip(x.chunks_exact(W::LANES).zip(y.chunks_exact(W::LANES)));
    for (o, (a, b)) in groups {
        // SAFETY: every chunk is exactly `W::LANES` f32s.
        let (va, vb) = unsafe { (W::load(a.as_ptr()), W::load(b.as_ptr())) };
        if unsafe { W::all_abs_le(va, f32::MAX) && W::all_abs_le(vb, f32::MAX) } {
            let (va, vb) = unsafe { (W::import(va), W::import(vb)) };
            let r = match op {
                BinOp::Mul => unsafe { W::mul(va, vb) },
                BinOp::Add => unsafe { W::add(va, vb) },
            };
            // SAFETY: `o` is exactly `W::LANES` f32s.
            unsafe { W::store(o.as_mut_ptr(), W::export(r)) };
        } else {
            for ((o, &a), &b) in o.iter_mut().zip(a).zip(b) {
                *o = op.scalar(a, b);
            }
        }
    }
    out.len() - out.len() % W::LANES
}

/// One width of the lane datapath, [`Ymm`] or [`Zmm`]: every function
/// forwards to the width's module ([`lane`] or [`lane8`]) or intrinsic,
/// under that module's contract — a caller compiled with the width's
/// features, on a host that has them.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // the modules' contract
pub trait Width {
    /// f32 elements per vector.
    const LANES: usize;
    /// Lane values: fp32 values widened to f64.
    type V: Copy;
    /// f32s in memory format.
    type F: Copy;
    /// One i32 per lane.
    type I: Copy;
    unsafe fn load(p: *const f32) -> Self::F;
    unsafe fn store(p: *mut f32, v: Self::F);
    unsafe fn splat(x: f32) -> Self::F;
    unsafe fn gather(p: *const f32, stride: usize) -> Self::F;
    unsafe fn all_abs_le(x: Self::F, bound: f32) -> bool;
    unsafe fn all_within(v: Self::V, lo: f64, hi: f64) -> bool;
    unsafe fn import(x: Self::F) -> Self::V;
    /// `x` in a lane register's low half, bit for bit, for the host and
    /// the comparator, which read values as stored; and back.
    unsafe fn raw(x: Self::F) -> Self::V;
    unsafe fn unraw(v: Self::V) -> Self::F;
    unsafe fn export(v: Self::V) -> Self::F;
    unsafe fn mul(x: Self::V, y: Self::V) -> Self::V;
    unsafe fn add(x: Self::V, y: Self::V) -> Self::V;
    unsafe fn sub(x: Self::V, y: Self::V) -> Self::V;
    unsafe fn scale_exp2(x: Self::V, k: Self::I) -> Self::V;
    unsafe fn to_i32(v: Self::V) -> Self::I;
    /// The comparator's `x > y ? x : y` per lane, `y` on a tie (±0
    /// included) and when either is NaN.
    unsafe fn max(x: Self::F, y: Self::F) -> Self::F;
    /// The host's correctly rounded IEEE divide `a / b`, lane for lane.
    unsafe fn div(a: Self::F, b: Self::F) -> Self::F;
}

macro_rules! width {
    ($(#[$doc:meta])* $name:ident = $m:ident, $lanes:expr, $v:ty, $f:ty, $i:ty, $div:ident,
     $max:ident, $raw:ident($to_pd:ident), $unraw:ident($low:ident)) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[derive(Debug, Clone, Copy)]
        pub struct $name;

        #[cfg(target_arch = "x86_64")]
        impl Width for $name {
            const LANES: usize = $lanes;
            type V = $v;
            type F = $f;
            type I = $i;
            forward!($m:
                load(p: *const f32) -> $f;
                store(p: *mut f32, v: $f) -> ();
                splat(x: f32) -> $f;
                gather(p: *const f32, stride: usize) -> $f;
                all_abs_le(x: $f, bound: f32) -> bool;
                all_within(v: $v, lo: f64, hi: f64) -> bool;
                import(x: $f) -> $v;
                export(v: $v) -> $f;
                mul(x: $v, y: $v) -> $v;
                add(x: $v, y: $v) -> $v;
                sub(x: $v, y: $v) -> $v;
                scale_exp2(x: $v, k: $i) -> $v;
                to_i32(v: $v) -> $i;
            );
            #[inline(always)]
            unsafe fn div(a: $f, b: $f) -> $f {
                std::arch::x86_64::$div(a, b)
            }
            #[inline(always)]
            unsafe fn raw(x: $f) -> $v {
                std::arch::x86_64::$raw(std::arch::x86_64::$to_pd(x))
            }
            #[inline(always)]
            unsafe fn unraw(v: $v) -> $f {
                std::arch::x86_64::$unraw(std::arch::x86_64::$low(v))
            }
            #[inline(always)]
            unsafe fn max(x: $f, y: $f) -> $f {
                std::arch::x86_64::$max(x, y)
            }
        }
    };
}

/// `Width` functions that call the width module's function of that name.
macro_rules! forward {
    ($m:ident: $($f:ident($($a:ident: $t:ty),*) -> $r:ty;)*) => {
        $(
            #[inline(always)]
            unsafe fn $f($($a: $t),*) -> $r {
                $m::$f($($a),*)
            }
        )*
    };
}

width!(
    /// [`lane`]'s four lanes: the [`Tier::Avx2`] width.
    Ymm = lane, 4, lane::F64x4, lane::F32x4, std::arch::x86_64::__m128i, _mm_div_ps,
    _mm_max_ps, _mm256_zextpd128_pd256(_mm_castps_pd),
    _mm_castpd_ps(_mm256_castpd256_pd128)
);
width!(
    /// [`lane8`]'s eight lanes: the [`Tier::Avx512`] width.
    Zmm = lane8, 8, lane8::F64x8, lane8::F32x8, std::arch::x86_64::__m256i, _mm256_div_ps,
    _mm256_max_ps, _mm512_zextpd256_pd512(_mm256_castps_pd),
    _mm256_castpd_ps(_mm512_castpd512_pd256)
);

/// The lane operations four lanes wide. Every function is
/// `#[inline(always)]` and carries no `target_feature` of its own, so it
/// folds into a caller compiled with AVX2 enabled.
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

    pub(super) const SIGN: u64 = 1 << 63;
    pub(super) const EXP_FIELD: u64 = 0x7ff << 52;
    /// Clears `man(0)`: the low 8 of the 24 mantissa bits sit at f64
    /// fraction bits 29..=36 (everything below is zero in a lane value).
    pub(super) const CLEAR_MAN0: u64 = !((1 << 37) - 1);
    /// Truncates to 24 significant bits (drops fraction bits 0..=28) and
    /// drops the sign.
    pub(super) const TRUNC24_ABS: u64 = !((1 << 29) - 1) & !SIGN;
    /// 2⁻¹²⁶, the smallest magnitude `pack` does not flush.
    pub(super) const TINY: u64 = (1023 - 126) << 52;
    /// 2¹²⁸, the smallest magnitude `pack` saturates.
    pub(super) const HUGE: u64 = (1023 + 128) << 52;
    /// The adder window: `q = me · 2⁻⁴⁷`, `1/q = 2⁴⁷ / me` for the
    /// power of two `me = 2^(e−127)`, both by exponent-field arithmetic.
    pub(super) const WINDOW: i64 = 47 << 52;
    pub(super) const WINDOW_INV: i64 = ((2 * 1023 + 47u64) << 52) as i64;

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

    /// Lane `i` reads `p[i·stride]`: a column of four rows.
    ///
    /// # Safety
    /// `p` must be valid for reading those four f32s.
    #[inline(always)]
    pub unsafe fn gather(p: *const f32, stride: usize) -> F32x4 {
        let s = stride as i64;
        _mm256_i64gather_ps::<4>(p, _mm256_set_epi64x(3 * s, 2 * s, s, 0))
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

/// The lane operations eight lanes wide: [`lane`]'s functions on `F64x8`
/// vectors, the same IEEE operations in the same order, the compares and
/// selects in k-masks. Every function is `#[inline(always)]` and carries
/// no `target_feature` of its own.
///
/// # Safety
/// Every function here must only be reached on a host with AVX2 and
/// AVX-512 F, DQ and VL (check [`tier`]), from a function compiled with
/// `#[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]`; the
/// lane inputs are [`lane`]'s.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // one contract, stated on the module
pub mod lane8 {
    use std::arch::x86_64::*;

    use super::lane::{CLEAR_MAN0, EXP_FIELD, HUGE, SIGN, TINY, TRUNC24_ABS, WINDOW, WINDOW_INV};

    /// Eight fp32 values widened to f64, one per lane.
    pub type F64x8 = __m512d;
    /// Eight fp32 values in memory format.
    pub type F32x8 = __m256;

    #[inline(always)]
    unsafe fn bits(v: u64) -> F64x8 {
        _mm512_castsi512_pd(_mm512_set1_epi64(v as i64))
    }

    /// Eight consecutive f32s.
    ///
    /// # Safety
    /// `p` must be valid for reading eight f32s (any alignment).
    #[inline(always)]
    pub unsafe fn load(p: *const f32) -> F32x8 {
        _mm256_loadu_ps(p)
    }

    /// # Safety
    /// `p` must be valid for writing eight f32s (any alignment).
    #[inline(always)]
    pub unsafe fn store(p: *mut f32, v: F32x8) {
        _mm256_storeu_ps(p, v)
    }

    /// The same f32 in all eight lanes.
    #[inline(always)]
    pub unsafe fn splat(x: f32) -> F32x8 {
        _mm256_set1_ps(x)
    }

    /// Eight f32s `stride` apart, as [`lane::gather`](super::lane::gather).
    ///
    /// # Safety
    /// `p` must be valid for reading those eight f32s.
    #[inline(always)]
    pub unsafe fn gather(p: *const f32, stride: usize) -> F32x8 {
        let s = stride as i64;
        let at = _mm512_set_epi64(7 * s, 6 * s, 5 * s, 4 * s, 3 * s, 2 * s, s, 0);
        _mm512_i64gather_ps::<4>(at, p)
    }

    /// True when every lane has `|x| ≤ bound`; a NaN lane fails (any f32
    /// input).
    #[inline(always)]
    pub unsafe fn all_abs_le(x: F32x8, bound: f32) -> bool {
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        _mm256_cmp_ps_mask::<_CMP_LE_OQ>(abs, _mm256_set1_ps(bound)) == 0xff
    }

    /// True when every lane lies in `[lo, hi]` (lane values, ±inf allowed).
    #[inline(always)]
    pub unsafe fn all_within(v: F64x8, lo: f64, hi: f64) -> bool {
        let ge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v, _mm512_set1_pd(lo));
        _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(ge, v, _mm512_set1_pd(hi)) == 0xff
    }

    /// Widen to lane format with `SoftFp32::unpack`'s flush: a subnormal
    /// becomes a zero of its sign. Infinities pass through unchanged.
    #[inline(always)]
    pub unsafe fn import(x: F32x8) -> F64x8 {
        let v = _mm512_cvtps_pd(x);
        let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_abs_pd(v), bits(TINY));
        _mm512_mask_mov_pd(_mm512_and_pd(v, bits(SIGN)), normal, v)
    }

    /// Back to memory format. Exact: a lane value is an fp32 value.
    #[inline(always)]
    pub unsafe fn export(v: F64x8) -> F32x8 {
        _mm512_cvtpd_ps(v)
    }

    /// `SoftFp32::pack` on a truncated magnitude: flush below 2⁻¹²⁶,
    /// saturate from 2¹²⁸, attach the sign (which survives both).
    #[inline(always)]
    unsafe fn pack(mag: F64x8, sign: F64x8) -> F64x8 {
        let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(mag, bits(TINY));
        let over = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(mag, bits(HUGE));
        let mag = _mm512_mask_mov_pd(_mm512_maskz_mov_pd(normal, mag), over, bits(EXP_FIELD));
        _mm512_or_pd(mag, sign)
    }

    /// `HwFp32Mul { DropLsp, Truncate }::mul` per lane.
    #[inline(always)]
    pub unsafe fn mul(x: F64x8, y: F64x8) -> F64x8 {
        let sign = _mm512_and_pd(_mm512_xor_pd(x, y), bits(SIGN));
        let xh = _mm512_and_pd(x, bits(CLEAR_MAN0));
        let yh = _mm512_and_pd(y, bits(CLEAR_MAN0));
        let yl = _mm512_sub_pd(y, yh);
        // x·y − xl·yl = x·yh + xh·yl; 40-bit + 24-bit products, 48-bit sum.
        let full = _mm512_add_pd(_mm512_mul_pd(x, yh), _mm512_mul_pd(xh, yl));
        pack(_mm512_and_pd(full, bits(TRUNC24_ABS)), sign)
    }

    /// `HwFp32Add { Exact48, Truncate }::add` per lane.
    #[inline(always)]
    pub unsafe fn add(x: F64x8, y: F64x8) -> F64x8 {
        // me = 2^(max(exp_x, exp_y, 1) − 127), as in `lane::add`.
        let ex = _mm512_and_pd(x, bits(EXP_FIELD));
        let ey = _mm512_and_pd(y, bits(EXP_FIELD));
        let me = _mm512_castpd_si512(_mm512_max_pd(_mm512_max_pd(ex, ey), bits(TINY)));
        let q = _mm512_castsi512_pd(_mm512_sub_epi64(me, _mm512_set1_epi64(WINDOW)));
        let q_inv = _mm512_castsi512_pd(_mm512_sub_epi64(_mm512_set1_epi64(WINDOW_INV), me));
        const TO_ZERO: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let tx = _mm512_roundscale_pd::<TO_ZERO>(_mm512_mul_pd(x, q_inv));
        let ty = _mm512_roundscale_pd::<TO_ZERO>(_mm512_mul_pd(y, q_inv));
        let sum = _mm512_mul_pd(_mm512_add_pd(tx, ty), q);
        pack(
            _mm512_and_pd(sum, bits(TRUNC24_ABS)),
            _mm512_and_pd(sum, bits(SIGN)),
        )
    }

    /// `HwFp32Add::sub`: the sign flip through the XOR gate, then [`add`].
    #[inline(always)]
    pub unsafe fn sub(x: F64x8, y: F64x8) -> F64x8 {
        add(x, _mm512_xor_pd(y, bits(SIGN)))
    }

    /// The exponent unit's `x · 2^k` (`Vpu::scale_exp2`) for any `k`, as
    /// [`lane::scale_exp2`](super::lane::scale_exp2).
    #[inline(always)]
    pub unsafe fn scale_exp2(x: F64x8, k: __m256i) -> F64x8 {
        let k = _mm256_max_epi32(
            _mm256_min_epi32(k, _mm256_set1_epi32(300)),
            _mm256_set1_epi32(-300),
        );
        let pow = _mm512_slli_epi64::<52>(_mm512_add_epi64(
            _mm512_cvtepi32_epi64(k),
            _mm512_set1_epi64(1023),
        ));
        let r = _mm512_mul_pd(x, _mm512_castsi512_pd(pow));
        let mag = _mm512_abs_pd(r);
        let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(mag, bits(TINY));
        let zero_in = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(x, _mm512_setzero_pd());
        let sign = _mm512_maskz_and_pd(normal | zero_in, r, bits(SIGN));
        let over = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(mag, bits(HUGE));
        let mag = _mm512_mask_mov_pd(_mm512_maskz_mov_pd(normal, mag), over, bits(EXP_FIELD));
        _mm512_or_pd(mag, sign)
    }

    /// `v as i32` for integer-valued lanes (the `kf as i32` of `Vpu::exp`).
    #[inline(always)]
    pub unsafe fn to_i32(v: F64x8) -> __m256i {
        _mm512_cvttpd_epi32(v)
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
        let mut tiers = vec![Tier::Scalar];
        tiers.extend(
            [Tier::Avx2, Tier::Avx512]
                .into_iter()
                .filter(|&t| t <= tier()),
        );
        for on in tiers {
            let mut got = [0f32; 9];
            mul_slices(on, &x, &y, &mut got);
            for i in 0..9 {
                let want = hm.mul(x[i], y[i]);
                assert_eq!(got[i].to_bits(), want.to_bits(), "{on} mul lane {i}");
            }
            add_slices(on, &x, &y, &mut got);
            for i in 0..9 {
                let want = ha.add(x[i], y[i]);
                assert_eq!(got[i].to_bits(), want.to_bits(), "{on} add lane {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand length")]
    fn slices_reject_ragged_operands() {
        mul_slices(Tier::Scalar, &[1.0; 4], &[1.0; 3], &mut [0.0; 4]);
    }
}
