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
//! **Native widths.** A datapath that *is* IEEE f32 — the fast nonlinear
//! unit — needs no twin: [`native8`] ([`NativeYmm`], eight lanes per AVX2
//! vector) and [`native16`] ([`NativeZmm`], sixteen per AVX-512 one) are
//! [`Width`]s whose import and export are identities and whose operations
//! are the IEEE f32 operations per lane, with no fused multiply-add.
//! Their `scale_exp2` keeps the scalar exponent unit's three early returns
//! as muxes, so it equals it on every f32 and every integer `k`.
//!
//! The scalar types remain the bit oracle and the hardware-faithful model;
//! [`mul_slices`] / [`add_slices`] run one tier's lanes and are the safe
//! entry points tests compare against them.

use std::fmt;

use crate::fpadd::{AddVariant, HwFp32Add};
use crate::fpmul::{HwFp32Mul, MulVariant};

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

/// One width of a lane datapath, [`Ymm`] or [`Zmm`] (fp32 widened to f64),
/// [`NativeYmm`] or [`NativeZmm`] (native f32): every function forwards to
/// the width's module ([`lane`], [`lane8`], [`native8`], [`native16`]) or
/// intrinsic, under that module's contract — a caller compiled with the
/// width's features, on a host that has them.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // the modules' contract
pub trait Width {
    /// f32 elements per vector.
    const LANES: usize;
    /// Lane values: fp32 values widened to f64, or the f32s themselves.
    type V: Copy;
    /// f32s in memory format.
    type F: Copy;
    /// `LANES` consecutive f32s from `p`, valid for reading them (any
    /// alignment); [`Width::store`] writes them back.
    unsafe fn load(p: *const f32) -> Self::F;
    unsafe fn store(p: *mut f32, v: Self::F);
    unsafe fn splat(x: f32) -> Self::F;
    unsafe fn all_abs_le(x: Self::F, bound: f32) -> bool;
    unsafe fn all_within(v: Self::V, lo: f32, hi: f32) -> bool;
    unsafe fn import(x: Self::F) -> Self::V;
    /// `x` in a lane register's low half, bit for bit, for the host and
    /// the comparator, which read values as stored; and back.
    unsafe fn raw(x: Self::F) -> Self::V;
    unsafe fn unraw(v: Self::V) -> Self::F;
    unsafe fn export(v: Self::V) -> Self::F;
    unsafe fn mul(x: Self::V, y: Self::V) -> Self::V;
    unsafe fn add(x: Self::V, y: Self::V) -> Self::V;
    unsafe fn sub(x: Self::V, y: Self::V) -> Self::V;
    /// `x · 2^k` for integer-valued lanes `k`, `|k| < 2³¹`.
    unsafe fn scale_exp2(x: Self::V, k: Self::V) -> Self::V;
    unsafe fn floor(v: Self::V) -> Self::V;
    /// Entry `j = min(trunc s, 63)` of a 64-entry ROM, and `j` as a lane
    /// value, for `s ≥ 0`; the saturation is unsigned, so no lane content
    /// can address outside the table.
    unsafe fn rom(table: &[f32; 64], s: Self::V) -> (Self::V, Self::V);
    /// The comparator's `x > y ? x : y` per lane, `y` on a tie (±0
    /// included) and when either is NaN.
    unsafe fn max(x: Self::F, y: Self::F) -> Self::F;
    /// The host's correctly rounded IEEE divide `a / b`, lane for lane.
    unsafe fn div(a: Self::F, b: Self::F) -> Self::F;
}

/// A width that reads a column: lane `i` loads `p[i·stride]`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // the modules' contract
pub trait Gather: Width {
    unsafe fn gather(p: *const f32, stride: usize) -> Self::F;
}

macro_rules! width {
    ($(#[$doc:meta])* $name:ident = $m:ident, $lanes:expr, $v:ty, $f:ty,
     [$load:ident, $store:ident, $splat:ident, $div:ident, $max:ident],
     $raw:ident($to_pd:ident), $unraw:ident($low:ident)) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[derive(Debug, Clone, Copy)]
        pub struct $name;

        #[cfg(target_arch = "x86_64")]
        impl Width for $name {
            const LANES: usize = $lanes;
            type V = $v;
            type F = $f;
            forward!($m:
                all_abs_le(x: $f, bound: f32) -> bool;
                all_within(v: $v, lo: f32, hi: f32) -> bool;
                import(x: $f) -> $v;
                export(v: $v) -> $f;
                mul(x: $v, y: $v) -> $v;
                add(x: $v, y: $v) -> $v;
                sub(x: $v, y: $v) -> $v;
                scale_exp2(x: $v, k: $v) -> $v;
                floor(v: $v) -> $v;
                rom(table: &[f32; 64], s: $v) -> ($v, $v);
            );
            direct!(
                load(p: *const f32) -> $f = $load;
                store(p: *mut f32, v: $f) -> () = $store;
                splat(x: f32) -> $f = $splat;
                div(a: $f, b: $f) -> $f = $div;
                max(x: $f, y: $f) -> $f = $max;
            );
            #[inline(always)]
            unsafe fn raw(x: $f) -> $v {
                std::arch::x86_64::$raw(std::arch::x86_64::$to_pd(x))
            }
            #[inline(always)]
            unsafe fn unraw(v: $v) -> $f {
                std::arch::x86_64::$unraw(std::arch::x86_64::$low(v))
            }
        }

        #[cfg(target_arch = "x86_64")]
        impl Gather for $name {
            forward!($m: gather(p: *const f32, stride: usize) -> $f;);
        }
    };
}

/// A native width: `Width` over `$m`'s functions and one intrinsic per
/// operation, whose lane values are the f32s.
macro_rules! native {
    ($(#[$doc:meta])* $name:ident = $m:ident, $lanes:expr, $f:ty,
     [$load:ident, $store:ident, $splat:ident, $mul:ident, $add:ident, $sub:ident, $div:ident,
      $max:ident]) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        #[derive(Debug, Clone, Copy)]
        pub struct $name;

        #[cfg(target_arch = "x86_64")]
        impl Width for $name {
            const LANES: usize = $lanes;
            type V = $f;
            type F = $f;
            /// `all_within(x, −bound, bound)`: a NaN lane fails both.
            #[inline(always)]
            unsafe fn all_abs_le(x: $f, bound: f32) -> bool {
                $m::all_within(x, -bound, bound)
            }
            forward!($m:
                all_within(v: $f, lo: f32, hi: f32) -> bool;
                scale_exp2(x: $f, k: $f) -> $f;
                floor(v: $f) -> $f;
                rom(table: &[f32; 64], s: $f) -> ($f, $f);
            );
            direct!(
                load(p: *const f32) -> $f = $load;
                store(p: *mut f32, v: $f) -> () = $store;
                splat(x: f32) -> $f = $splat;
                mul(x: $f, y: $f) -> $f = $mul;
                add(x: $f, y: $f) -> $f = $add;
                sub(x: $f, y: $f) -> $f = $sub;
                div(a: $f, b: $f) -> $f = $div;
                max(x: $f, y: $f) -> $f = $max;
            );
            identity!($f: import, export, raw, unraw);
        }
    };
}

/// `Width` functions that return their operand: a native width's lane
/// values are its f32s as stored.
macro_rules! identity {
    ($f:ty: $($name:ident),*) => {
        $(
            #[inline(always)]
            unsafe fn $name(x: $f) -> $f {
                x
            }
        )*
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

/// `Width` functions that are one intrinsic each.
macro_rules! direct {
    ($($f:ident($($a:ident: $t:ty),*) -> $r:ty = $intr:ident;)*) => {
        $(
            #[inline(always)]
            unsafe fn $f($($a: $t),*) -> $r {
                std::arch::x86_64::$intr($($a),*)
            }
        )*
    };
}

width!(
    /// [`lane`]'s four lanes: the [`Tier::Avx2`] width.
    Ymm = lane, 4, lane::F64x4, lane::F32x4,
    [_mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps, _mm_div_ps, _mm_max_ps],
    _mm256_zextpd128_pd256(_mm_castps_pd), _mm_castpd_ps(_mm256_castpd256_pd128)
);
width!(
    /// [`lane8`]'s eight lanes: the [`Tier::Avx512`] width.
    Zmm = lane8, 8, lane8::F64x8, lane8::F32x8,
    [_mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_div_ps, _mm256_max_ps],
    _mm512_zextpd256_pd512(_mm256_castps_pd), _mm256_castpd_ps(_mm512_castpd512_pd256)
);
native!(
    /// [`native8`]'s eight f32 lanes: the native width on [`Tier::Avx2`].
    NativeYmm = native8, 8, std::arch::x86_64::__m256,
    [_mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_mul_ps, _mm256_add_ps,
     _mm256_sub_ps, _mm256_div_ps, _mm256_max_ps]
);
native!(
    /// [`native16`]'s sixteen f32 lanes: the native width on
    /// [`Tier::Avx512`].
    NativeZmm = native16, 16, std::arch::x86_64::__m512,
    [_mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_mul_ps, _mm512_add_ps,
     _mm512_sub_ps, _mm512_div_ps, _mm512_max_ps]
);

/// The lane operations four lanes wide. Every function is
/// `#[inline(always)]` and carries no `target_feature` of its own, so it
/// folds into a caller compiled with AVX2 enabled.
///
/// # Safety
/// Every function here must only be reached on a host with AVX2 (check
/// [`tier`]), from a function compiled with
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
    pub unsafe fn all_within(v: F64x4, lo: f32, hi: f32) -> bool {
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, _mm256_set1_pd(lo.into()));
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(v, _mm256_set1_pd(hi.into()));
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
    pub unsafe fn scale_exp2(x: F64x4, k: F64x4) -> F64x4 {
        // |k| ≥ 280 already decides under/overflow for every fp32
        // exponent, and keeps 2^k a normal f64.
        let k = _mm256_cvttpd_epi32(k);
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

    /// `⌊v⌋`, exact on a lane value.
    #[inline(always)]
    pub unsafe fn floor(v: F64x4) -> F64x4 {
        _mm256_floor_pd(v)
    }

    /// [`Width::rom`](super::Width::rom).
    #[inline(always)]
    pub unsafe fn rom(table: &[f32; 64], s: F64x4) -> (F64x4, F64x4) {
        let j = _mm_min_epu32(_mm256_cvttpd_epi32(s), _mm_set1_epi32(63));
        let entry = _mm_i32gather_ps::<4>(table.as_ptr(), j);
        (_mm256_cvtps_pd(entry), _mm256_cvtepi32_pd(j))
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
    pub unsafe fn all_within(v: F64x8, lo: f32, hi: f32) -> bool {
        let ge = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v, _mm512_set1_pd(lo.into()));
        _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(ge, v, _mm512_set1_pd(hi.into())) == 0xff
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
    pub unsafe fn scale_exp2(x: F64x8, k: F64x8) -> F64x8 {
        let k = _mm256_max_epi32(
            _mm256_min_epi32(_mm512_cvttpd_epi32(k), _mm256_set1_epi32(300)),
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

    /// `⌊v⌋`, exact on a lane value.
    #[inline(always)]
    pub unsafe fn floor(v: F64x8) -> F64x8 {
        _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(v)
    }

    /// [`Width::rom`](super::Width::rom).
    #[inline(always)]
    pub unsafe fn rom(table: &[f32; 64], s: F64x8) -> (F64x8, F64x8) {
        let j = _mm256_min_epu32(_mm512_cvttpd_epi32(s), _mm256_set1_epi32(63));
        let entry = _mm256_i32gather_ps::<4>(table.as_ptr(), j);
        (_mm512_cvtps_pd(entry), _mm512_cvtepi32_pd(j))
    }
}

/// The native widths' operations beyond one intrinsic, eight lanes wide
/// ([`NativeYmm`]); the rest are the IEEE f32 instructions themselves.
///
/// # Safety
/// Every function here must only be reached on a host with AVX2, from a
/// function compiled with `#[target_feature(enable = "avx2")]`. Any f32
/// is a lane value.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // one contract, stated on the module
pub mod native8 {
    use std::arch::x86_64::*;

    /// True when every lane lies in `[lo, hi]`; a NaN lane fails.
    #[inline(always)]
    pub unsafe fn all_within(v: __m256, lo: f32, hi: f32) -> bool {
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_set1_ps(lo));
        let le = _mm256_cmp_ps::<_CMP_LE_OQ>(v, _mm256_set1_ps(hi));
        _mm256_movemask_ps(_mm256_and_ps(ge, le)) == 0xff
    }

    /// The exponent unit's `x · 2^k` (`vpu::scale_exp2`) on any f32: the
    /// integer add on the exponent field, with the scalar's three early
    /// returns (zero in, FTZ underflow to +0, overflow saturating by the
    /// sign of `x > 0`) as muxes in its priority order.
    #[inline(always)]
    pub unsafe fn scale_exp2(x: __m256, k: __m256) -> __m256 {
        let bits = _mm256_castps_si256(x);
        let field = _mm256_and_si256(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(0xff));
        let e = _mm256_add_epi32(field, _mm256_cvttps_epi32(k));
        let kept = _mm256_and_si256(bits, _mm256_set1_epi32(0x807f_ffffu32 as i32));
        let scaled = _mm256_castsi256_ps(_mm256_or_si256(kept, _mm256_slli_epi32::<23>(e)));
        let zero = _mm256_setzero_ps();
        let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
        let (neg_inf, inf) = (
            _mm256_set1_ps(f32::NEG_INFINITY),
            _mm256_set1_ps(f32::INFINITY),
        );
        let inf = _mm256_blendv_ps(neg_inf, inf, positive);
        let over = _mm256_castsi256_ps(_mm256_cmpgt_epi32(e, _mm256_set1_epi32(254)));
        let under = _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(1), e));
        let r = _mm256_andnot_ps(under, _mm256_blendv_ps(scaled, inf, over));
        _mm256_blendv_ps(r, x, _mm256_cmp_ps::<_CMP_EQ_OQ>(x, zero))
    }

    #[inline(always)]
    pub unsafe fn floor(v: __m256) -> __m256 {
        _mm256_floor_ps(v)
    }

    /// [`Width::rom`](super::Width::rom).
    #[inline(always)]
    pub unsafe fn rom(table: &[f32; 64], s: __m256) -> (__m256, __m256) {
        let j = _mm256_min_epu32(_mm256_cvttps_epi32(s), _mm256_set1_epi32(63));
        let entry = _mm256_i32gather_ps::<4>(table.as_ptr(), j);
        (entry, _mm256_cvtepi32_ps(j))
    }
}

/// [`native8`]'s functions sixteen lanes wide ([`NativeZmm`]), the
/// compares and selects in k-masks.
///
/// # Safety
/// As [`lane8`]: a host with AVX2 and AVX-512 F, DQ and VL, a caller
/// compiled with those features. Any f32 is a lane value.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)] // one contract, stated on the module
pub mod native16 {
    use std::arch::x86_64::*;

    /// True when every lane lies in `[lo, hi]`; a NaN lane fails.
    #[inline(always)]
    pub unsafe fn all_within(v: __m512, lo: f32, hi: f32) -> bool {
        let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, _mm512_set1_ps(lo));
        _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(ge, v, _mm512_set1_ps(hi)) == 0xffff
    }

    /// [`native8::scale_exp2`](super::native8::scale_exp2).
    #[inline(always)]
    pub unsafe fn scale_exp2(x: __m512, k: __m512) -> __m512 {
        let bits = _mm512_castps_si512(x);
        let field = _mm512_and_si512(_mm512_srli_epi32::<23>(bits), _mm512_set1_epi32(0xff));
        let e = _mm512_add_epi32(field, _mm512_cvttps_epi32(k));
        let kept = _mm512_and_si512(bits, _mm512_set1_epi32(0x807f_ffffu32 as i32));
        let scaled = _mm512_castsi512_ps(_mm512_or_si512(kept, _mm512_slli_epi32::<23>(e)));
        let zero = _mm512_setzero_ps();
        let positive = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, zero);
        let (neg_inf, inf) = (
            _mm512_set1_ps(f32::NEG_INFINITY),
            _mm512_set1_ps(f32::INFINITY),
        );
        let inf = _mm512_mask_blend_ps(positive, neg_inf, inf);
        let over = _mm512_cmpgt_epi32_mask(e, _mm512_set1_epi32(254));
        let under = _mm512_cmplt_epi32_mask(e, _mm512_set1_epi32(1));
        let r = _mm512_maskz_mov_ps(!under, _mm512_mask_mov_ps(scaled, over, inf));
        _mm512_mask_mov_ps(r, _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(x, zero), x)
    }

    #[inline(always)]
    pub unsafe fn floor(v: __m512) -> __m512 {
        _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(v)
    }

    /// [`Width::rom`](super::Width::rom).
    #[inline(always)]
    pub unsafe fn rom(table: &[f32; 64], s: __m512) -> (__m512, __m512) {
        let j = _mm512_min_epu32(_mm512_cvttps_epi32(s), _mm512_set1_epi32(63));
        let entry = _mm512_i32gather_ps::<4>(j, table.as_ptr());
        (entry, _mm512_cvtepi32_ps(j))
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
