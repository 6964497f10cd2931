//! The GELU / exp / softmax kernels on the fast unit ([`Unit`]), eight
//! elements per AVX2 vector, bit for bit.
//!
//! Identity is by construction, not by envelope. The scalar kernels are
//! native `f32` `*`, `+`, `-`, `/`, `floor`, one `as i32` on a value in
//! `[0, 64]` and one table read; `vmulps`, `vaddps`, `vsubps`, `vdivps`,
//! `vroundps`, `vcvttps2dq` and `vgatherdps` are those IEEE operations per
//! lane. Nothing here may fuse a multiply with an add (`p = (1 + rl) +
//! h·rl` is three roundings in `Unit::exp`): only `avx2` is enabled, and
//! no multiply-add intrinsic is used.
//!
//! Only the straight-line regime runs here. A group of eight elements is
//! vectorised only when every lane takes none of the scalar kernels'
//! data-dependent branches (`tanh`'s ±15 clamp, `exp`'s
//! range clamps; the compares are ordered, so a NaN lane fails); any other
//! group, and every remainder, calls the scalar function per element.
//! Whatever the scalar kernel computes *in order* keeps its order: softmax
//! carries several rows at once, each through its own scalar max scan and
//! running sum, and never re-associates within a row. The callers charge
//! [`super::fast::cost`] per element either way, so
//! [`OpCount`](super::OpCount) cannot tell the routes apart.
//!
//! # Safety
//! Every function here requires AVX2; the two callers are the `Fast` arms
//! of [`Vpu::gelu_slice`](super::Vpu::gelu_slice) and
//! [`Vpu::softmax_rows_batch`](super::Vpu::softmax_rows_batch), which
//! detect it first.

use std::arch::x86_64::*;

use super::fast::{Unit, EXP2_LUT, LN2_OVER_64};
use super::{Datapath, GELU_A, GELU_C, GELU_LANE_MAX_ABS};

/// f32 elements per vector.
const LANES: usize = 8;

/// The fast `exp` clamps outside `[-87, 88]`.
const EXP_MIN: f32 = -87.0;
const EXP_MAX: f32 = 88.0;

/// Rows whose max scans and running sums advance together: each chain is
/// one dependent scalar operation per element (≈ 4 cycles), so eight
/// independent rows keep the FP ports busy where one row would wait.
const ROWS_IN_FLIGHT: usize = 8;

/// Which route each group of eight took, per test thread: the tests
/// assert that in-regime inputs really run on the lanes.
#[cfg(test)]
pub(super) mod route {
    use std::cell::Cell;

    thread_local! {
        pub static LANE_GROUPS: Cell<u64> = const { Cell::new(0) };
        pub static SCALAR_GROUPS: Cell<u64> = const { Cell::new(0) };
    }

    /// `(lane groups, scalar groups)` since the last call.
    pub fn take() -> (u64, u64) {
        (LANE_GROUPS.take(), SCALAR_GROUPS.take())
    }
}

#[inline(always)]
#[cfg_attr(not(test), allow(unused_variables))]
fn tally(on_lanes: bool) {
    #[cfg(test)]
    if on_lanes {
        route::LANE_GROUPS.set(route::LANE_GROUPS.get() + 1);
    } else {
        route::SCALAR_GROUPS.set(route::SCALAR_GROUPS.get() + 1);
    }
}

#[inline(always)]
unsafe fn splat(c: f32) -> __m256 {
    _mm256_set1_ps(c)
}

/// [`scale_exp2`](super::scale_exp2) per lane: the integer exponent add, with the scalar's
/// three early returns (zero in, FTZ underflow, saturating overflow) as
/// muxes in the scalar's priority order.
#[inline(always)]
unsafe fn scale2k8(x: __m256, k: __m256i) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let field = _mm256_and_si256(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(0xff));
    let e = _mm256_add_epi32(field, k);
    let kept = _mm256_and_si256(bits, _mm256_set1_epi32(0x807f_ffffu32 as i32));
    let scaled = _mm256_castsi256_ps(_mm256_or_si256(kept, _mm256_slli_epi32::<23>(e)));
    let zero = _mm256_setzero_ps();
    // `if x > 0.0 { +inf } else { −inf }`, as the scalar spells it.
    let inf = _mm256_blendv_ps(
        splat(f32::NEG_INFINITY),
        splat(f32::INFINITY),
        _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero),
    );
    let over = _mm256_castsi256_ps(_mm256_cmpgt_epi32(e, _mm256_set1_epi32(254)));
    let under = _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(1), e));
    let r = _mm256_andnot_ps(under, _mm256_blendv_ps(scaled, inf, over));
    _mm256_blendv_ps(r, x, _mm256_cmp_ps::<_CMP_EQ_OQ>(x, zero))
}

/// The fast `exp` for arguments inside `[EXP_MIN, EXP_MAX]`.
#[inline(always)]
unsafe fn exp8(x: __m256) -> __m256 {
    let t = _mm256_mul_ps(x, splat(std::f32::consts::LOG2_E));
    let kf = _mm256_floor_ps(t);
    let f = _mm256_sub_ps(t, kf);
    let s = _mm256_mul_ps(f, splat(64.0));
    // `rom_address`: the saturation is unsigned, so no lane content
    // can address outside the 64-entry table.
    let j = _mm256_min_epu32(_mm256_cvttps_epi32(s), _mm256_set1_epi32(63));
    let r = _mm256_sub_ps(s, _mm256_cvtepi32_ps(j));
    let rl = _mm256_mul_ps(r, splat(LN2_OVER_64));
    let h = _mm256_mul_ps(splat(0.5), rl);
    let p = _mm256_add_ps(_mm256_add_ps(splat(1.0), rl), _mm256_mul_ps(h, rl));
    // SAFETY: every lane of `j` is in 0..=63 and the table has 64 entries.
    let rom = _mm256_i32gather_ps::<4>(EXP2_LUT.as_ptr(), j);
    scale2k8(_mm256_mul_ps(rom, p), _mm256_cvttps_epi32(kf))
}

/// The fast GELU for `|x| ≤ GELU_LANE_MAX_ABS`, where `|u| ≤ 12.5` keeps
/// `tanh` off its clamps and `|2u| ≤ 25` inside `exp8`'s range.
#[inline(always)]
unsafe fn gelu8(x: __m256) -> __m256 {
    let one = splat(1.0);
    let x2 = _mm256_mul_ps(x, x);
    let x3 = _mm256_mul_ps(x2, x);
    let ax3 = _mm256_mul_ps(x3, splat(GELU_A));
    let inner = _mm256_add_ps(x, ax3);
    let u = _mm256_mul_ps(inner, splat(GELU_C));
    // tanh(u) = 1 − 2 / (e^{2u} + 1)
    let e = exp8(_mm256_mul_ps(splat(2.0), u));
    let d = _mm256_add_ps(e, one);
    let q = _mm256_div_ps(splat(2.0), d);
    let t = _mm256_sub_ps(one, q);
    let one_t = _mm256_add_ps(one, t);
    let hx = _mm256_mul_ps(splat(0.5), x);
    _mm256_mul_ps(hx, one_t)
}

/// The fast GELU over a slice.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gelu_slice(data: &mut [f32]) {
    let scalar = |g: &mut [f32]| g.iter_mut().for_each(|v| *v = Unit.gelu(*v));
    let mut groups = data.chunks_exact_mut(LANES);
    for g in &mut groups {
        // SAFETY (load and store): `g` holds eight elements.
        let x = _mm256_loadu_ps(g.as_ptr());
        let abs = _mm256_andnot_ps(splat(-0.0), x);
        let in_regime = _mm256_cmp_ps::<_CMP_LE_OQ>(abs, splat(GELU_LANE_MAX_ABS));
        let on_lanes = _mm256_movemask_ps(in_regime) == 0xff;
        if on_lanes {
            _mm256_storeu_ps(g.as_mut_ptr(), gelu8(x));
        } else {
            scalar(g);
        }
        tally(on_lanes);
    }
    scalar(groups.into_remainder());
}

/// Softmax's `v ← exp(v − max)` over one row.
#[inline(always)]
unsafe fn shifted_exp_row(row: &mut [f32], max: f32) {
    let scalar = |g: &mut [f32]| g.iter_mut().for_each(|v| *v = Unit.exp(*v - max));
    let mut groups = row.chunks_exact_mut(LANES);
    for g in &mut groups {
        // SAFETY (load and store): `g` holds eight elements.
        let shifted = _mm256_sub_ps(_mm256_loadu_ps(g.as_ptr()), splat(max));
        let in_regime = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GE_OQ>(shifted, splat(EXP_MIN)),
            _mm256_cmp_ps::<_CMP_LE_OQ>(shifted, splat(EXP_MAX)),
        );
        let on_lanes = _mm256_movemask_ps(in_regime) == 0xff;
        if on_lanes {
            _mm256_storeu_ps(g.as_mut_ptr(), exp8(shifted));
        } else {
            scalar(g);
        }
        tally(on_lanes);
    }
    scalar(groups.into_remainder());
}

/// The fast softmax over `R` rows at once. The max scan and the sum
/// are the scalar kernel's own loops, one independent chain per row, each
/// in its row's element order; only the element-wise passes between and
/// after them run on the lanes.
#[inline(always)]
unsafe fn softmax_block<const R: usize>(block: &mut [f32], cols: usize) {
    debug_assert_eq!(block.len(), R * cols);
    let mut max = [0f32; R];
    for (r, m) in max.iter_mut().enumerate() {
        *m = block[r * cols];
    }
    for j in 1..cols {
        for (r, m) in max.iter_mut().enumerate() {
            let v = block[r * cols + j];
            if v > *m {
                *m = v;
            }
        }
    }
    for (row, &m) in block.chunks_exact_mut(cols).zip(&max) {
        shifted_exp_row(row, m);
    }
    let mut sum = [0f32; R];
    for j in 0..cols {
        for (r, s) in sum.iter_mut().enumerate() {
            *s += block[r * cols + j];
        }
    }
    for (row, &s) in block.chunks_exact_mut(cols).zip(&sum) {
        let inv = 1.0 / s;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// The fast softmax over every `cols`-wide row of `data`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn softmax_rows(data: &mut [f32], cols: usize) {
    let mut blocks = data.chunks_exact_mut(ROWS_IN_FLIGHT * cols);
    for block in &mut blocks {
        softmax_block::<ROWS_IN_FLIGHT>(block, cols);
    }
    for row in blocks.into_remainder().chunks_exact_mut(cols) {
        softmax_block::<1>(row, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avx2() -> bool {
        bfp_arith::fplanes::available()
    }

    #[target_feature(enable = "avx2")]
    unsafe fn scaled(x: [f32; 8], k: i32) -> [f32; 8] {
        let mut out = [0f32; 8];
        let v = scale2k8(_mm256_loadu_ps(x.as_ptr()), _mm256_set1_epi32(k));
        _mm256_storeu_ps(out.as_mut_ptr(), v);
        out
    }

    /// `exp8` where the softmax pass would use it, the scalar kernel
    /// elsewhere, checked against the scalar `exp` in bits: returns whether
    /// the group ran on the lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_group(x: [f32; 8]) -> bool {
        let mut got = x;
        route::take();
        shifted_exp_row(&mut got, 0.0);
        for (g, x) in got.iter().zip(x) {
            assert_eq!(g.to_bits(), Unit.exp(x).to_bits(), "exp({x:e})");
        }
        route::take() == (1, 0)
    }

    #[test]
    fn scale2k_lanes_equal_the_scalar_exponent_unit() {
        if !avx2() {
            return;
        }
        // Every early return of the scalar: zeros of both signs, FTZ
        // underflow, saturation by sign — and NaN, whose `x > 0.0` is
        // false. None is reachable from `exp8`'s regime (its operand is
        // in [1, 2.01) and |k| ≤ 126), so this direct comparison is the
        // only guard the three muxes have.
        let xs = [
            [0.0, -0.0, 1.0, -1.0, 1.5, -0.75, 1.999_999_9, 2.000_745],
            [
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::MAX,
                -f32::MAX,
                1e-40,
                -1e-40,
                f32::NAN,
                -f32::NAN,
            ],
            [
                3e-20,
                -7e20,
                1e38,
                -2e-38,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1.0,
                0.5,
            ],
        ];
        for k in -400..=400 {
            for x in xs {
                // SAFETY: AVX2 was detected above.
                let got = unsafe { scaled(x, k) };
                for i in 0..8 {
                    let want = crate::vpu::scale_exp2(x[i], k);
                    assert_eq!(got[i].to_bits(), want.to_bits(), "{:e} · 2^{k}", x[i]);
                }
            }
        }
    }

    #[test]
    fn exp_lanes_equal_the_scalar_kernel_across_the_unclamped_range() {
        if !avx2() {
            return;
        }
        let mut args: Vec<f32> = vec![-87.0, 88.0, -0.0, 0.0, 1e-30, -1e-30, 0.5, -0.5];
        // Fractions that round up to 1.0: the saturated ROM address.
        args.extend([-1e-9, 1e-9, -f32::EPSILON / 4.0, -f32::MIN_POSITIVE, -1e-40]);
        args.extend([86.99999, 87.99999, -86.99999, 0.346_573_6, -0.346_573_6]);
        args.extend((0..=175_000).map(|k| (-87.0 + k as f32 * 0.001).min(88.0)));
        // Exact multiples of ln2/64 and their neighbours: ROM address edges.
        for k in -8000..=8000 {
            let x = k as f32 * LN2_OVER_64;
            args.extend([
                x,
                f32::from_bits(x.to_bits() + 1),
                f32::from_bits(x.to_bits().max(1) - 1),
            ]);
        }
        args.retain(|x| (EXP_MIN..=EXP_MAX).contains(x));
        while !args.len().is_multiple_of(LANES) {
            args.push(0.0);
        }
        for x in args.chunks_exact(LANES) {
            let x: [f32; 8] = x.try_into().expect("eight lanes");
            // SAFETY: AVX2 was detected above.
            assert!(unsafe { exp_group(x) }, "in range: {x:?}");
        }
    }

    #[test]
    fn exp_groups_outside_the_range_take_the_scalar_kernel() {
        if !avx2() {
            return;
        }
        let below = f32::from_bits(EXP_MIN.to_bits() + 1);
        let above = f32::from_bits(EXP_MAX.to_bits() + 1);
        for o in [
            below,
            above,
            -88.0,
            89.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            for lane in 0..LANES {
                let mut x = [0.25f32; 8];
                x[lane] = o;
                // SAFETY: AVX2 was detected above.
                assert!(!unsafe { exp_group(x) }, "{o:e} in lane {lane}");
            }
        }
    }

    /// Every f32 pattern in [−88, 89] — one past each clamp — in groups of
    /// eight consecutive patterns: bit-equal to the scalar kernel, and on
    /// the lanes exactly when the whole group is inside [−87, 88].
    #[test]
    #[ignore = "≈ 2.3·10⁹ patterns: release sweep, run by CI's envelope step"]
    fn exp_lanes_equal_the_scalar_kernel_on_every_pattern_in_range() {
        if !avx2() {
            return;
        }
        let sweep = |lo: u32, hi: u32| {
            let mut base = lo;
            while base <= hi {
                let mut x = [0f32; 8];
                for (i, v) in x.iter_mut().enumerate() {
                    *v = f32::from_bits((base + i as u32).min(hi));
                }
                // SAFETY: AVX2 was detected above.
                let on_lanes = unsafe { exp_group(x) };
                let inside = x.iter().all(|v| (EXP_MIN..=EXP_MAX).contains(v));
                assert_eq!(on_lanes, inside, "route of {x:?}");
                base += LANES as u32;
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| sweep(0.0f32.to_bits(), 89.0f32.to_bits()));
            s.spawn(|| sweep((-0.0f32).to_bits(), (-88.0f32).to_bits()));
        });
    }
}
