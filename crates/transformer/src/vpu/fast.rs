//! The fast nonlinear unit, selected by [`super::NonlinearMode::Fast`]:
//! the LUT-seeded, range-reduced datapath [`Unit`] that the kernels of
//! [`Datapath`] run on.
//!
//! On the exact [`Vpu`](super::Vpu) every fp32 operation goes through the
//! bit-level hardware emulation (`HwFp32Mul`/`HwFp32Add`) — faithful, and
//! the reason GELU dominated the fast path's wall clock (~50 % of the toy
//! encoder's fast-path time before this unit). [`Unit`] models the
//! *optimised* VPU the paper's future-work section points at: a pipelined
//! unit built from
//!
//! * **range reduction** on the exponent unit (`x·log2e` split into an
//!   integer scale `k` and a fraction `f ∈ [0, 1)`),
//! * a **64-entry `2^(j/64)` ROM** ([`EXP2_LUT`], contents pinned as bit
//!   patterns) addressed by the top 6 fraction bits,
//! * a **degree-2 polynomial** on the ≤ 2⁻⁶ residual (truncation error
//!   `(r·ln2)³/6 ≤ 2.1·10⁻¹⁰`, below half an fp32 ulp), and
//! * **LUT-seeded Newton–Raphson** reciprocal / reciprocal-square-root
//!   steps instead of host round-trips.
//!
//! In this simulation the arithmetic runs on native f32 (the pipelined
//! unit rounds once per op, like the host FPU) — which is also why the
//! fast path is fast in software: no per-op bit-level emulation. Only the
//! primitives live here; `exp` is this unit's own, the ROM body
//! `kernels::rom_exp`, and GELU, `tanh`, softmax, LayerNorm and `1/√x` are
//! the same [`Datapath`] kernels the exact datapath runs, so the two paths
//! differ by per-op rounding, never by algorithm. The batched entry points
//! run those bodies on native f32 lanes (`bfp_arith::fplanes`' native
//! widths: sixteen elements per AVX-512 vector, eight per AVX2 one), whose
//! operations are these IEEE operations per lane, bit for bit; a group
//! outside its body's regime, and every remainder, runs the scalar body.
//! The resulting envelopes are proven by sweep in
//! `crates/transformer/tests/nonlinear_ulp.rs` and documented in
//! `DESIGN.md`.
//!
//! [`cost`] charges each kernel's hardware op mix (multiplies, adds,
//! exponent-unit ops, table lookups). Multiplies by powers of two (2, ½,
//! 64) are exponent-unit ops, not multiplier ops — the same accounting
//! convention `Vpu::scale_exp2` established. The mix is priced in
//! `bfp_platform::nonlinear` and cross-checked against live engine
//! censuses in `bfp_core::vpucost`.

use super::{kernels, Datapath};

/// `2^(j/64)` for `j ∈ 0..64`, pinned as IEEE-754 bit patterns: these are
/// the ROM contents a synthesised unit would carry, so the table cannot
/// drift with the host libm.
pub const EXP2_LUT: [f32; 64] = {
    const BITS: [u32; 64] = [
        0x3f800000, 0x3f8164d2, 0x3f82cd87, 0x3f843a29, 0x3f85aac3, 0x3f871f62, 0x3f88980f,
        0x3f8a14d5, 0x3f8b95c2, 0x3f8d1adf, 0x3f8ea43a, 0x3f9031dc, 0x3f91c3d3, 0x3f935a2b,
        0x3f94f4f0, 0x3f96942d, 0x3f9837f0, 0x3f99e046, 0x3f9b8d3a, 0x3f9d3eda, 0x3f9ef532,
        0x3fa0b051, 0x3fa27043, 0x3fa43516, 0x3fa5fed7, 0x3fa7cd94, 0x3fa9a15b, 0x3fab7a3a,
        0x3fad583f, 0x3faf3b79, 0x3fb123f6, 0x3fb311c4, 0x3fb504f3, 0x3fb6fd92, 0x3fb8fbaf,
        0x3fbaff5b, 0x3fbd08a4, 0x3fbf179a, 0x3fc12c4d, 0x3fc346cd, 0x3fc5672a, 0x3fc78d75,
        0x3fc9b9be, 0x3fcbec15, 0x3fce248c, 0x3fd06334, 0x3fd2a81e, 0x3fd4f35b, 0x3fd744fd,
        0x3fd99d16, 0x3fdbfbb8, 0x3fde60f5, 0x3fe0ccdf, 0x3fe33f89, 0x3fe5b907, 0x3fe8396a,
        0x3feac0c7, 0x3fed4f30, 0x3fefe4ba, 0x3ff28177, 0x3ff5257d, 0x3ff7d0df, 0x3ffa83b3,
        0x3ffd3e0c,
    ];
    let mut t = [0.0f32; 64];
    let mut j = 0;
    while j < 64 {
        t[j] = f32::from_bits(BITS[j]);
        j += 1;
    }
    t
};

/// `ln 2 / 64`: converts the ≤ 6-bit residual index fraction back to the
/// natural-log domain for the degree-2 polynomial.
pub(super) const LN2_OVER_64: f32 = core::f32::consts::LN_2 / 64.0;

/// The fast unit as a [`Datapath`]: native f32 operations, this
/// module's ROM-based `exp`, on-unit reciprocals (native division here;
/// the unit runs the LUT-seeded NR steps [`cost::recip`] charges) and the
/// NR `1/√x` from a seed ROM. It counts nothing: the pipeline's cost is
/// data-independent, so the batched callers charge [`cost`] per element.
#[derive(Debug, Clone, Copy)]
pub struct Unit;

impl Datapath for Unit {
    #[inline]
    fn mul(&mut self, a: f32, b: f32) -> f32 {
        a * b
    }

    #[inline]
    fn add(&mut self, a: f32, b: f32) -> f32 {
        a + b
    }

    #[inline]
    fn sub(&mut self, a: f32, b: f32) -> f32 {
        a - b
    }

    /// `e^x` by range reduction, the 64-entry ROM and a degree-2
    /// residual polynomial. Clamp thresholds mirror the exact kernel
    /// exactly, so the two paths agree bit-for-bit on the saturated regions.
    #[inline]
    fn exp(&mut self, x: f32) -> f32 {
        kernels::rom_exp(self, x)
    }

    /// Charged as the NR reciprocal: lut + 4 fp_mul + 2 fp_add.
    #[inline]
    fn div(&mut self, a: f32, b: f32) -> f32 {
        a / b
    }

    #[inline]
    fn row_recip(&mut self, sum: f32) -> Option<f32> {
        Some(1.0 / sum)
    }
}

/// Per-element / per-row hardware op-mix formulas for the fast kernels.
///
/// The fast unit is a pipeline: every lane evaluates the full kernel and
/// the range clamps are output muxes, so **clamped elements are charged
/// the full mix too** — unlike the exact path, whose software early-outs
/// skip the ops they never executed. Batched callers charge these
/// formulas once per slice; the live census therefore matches the
/// analytical census *exactly* in Fast mode (pinned in `bfp_core`).
pub mod cost {
    use crate::vpu::OpCount;

    /// One [`Unit`](super::Unit) `exp`: range reduction (1 mul + 3 adds),
    /// ROM lookup, degree-2 residual poly (2 muls + 2 adds), ROM product
    /// (1 mul), power-of-two scales on the exponent unit (3).
    pub const fn exp() -> OpCount {
        OpCount {
            fp_mul: 4,
            fp_add: 6,
            exp_adjust: 3,
            cmp: 0,
            lut: 1,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// The LUT-seeded 2-step Newton–Raphson reciprocal the unit runs for
    /// every `1/x` (software uses the native divide, which is at least as
    /// accurate as two NR steps).
    pub const fn recip() -> OpCount {
        OpCount {
            fp_mul: 4,
            fp_add: 2,
            exp_adjust: 0,
            cmp: 0,
            lut: 1,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// One `tanh`: exp + reciprocal + 2 adds + 2 exponent-unit
    /// doublings.
    pub const fn tanh() -> OpCount {
        OpCount {
            fp_mul: exp().fp_mul + recip().fp_mul,
            fp_add: exp().fp_add + recip().fp_add + 2,
            exp_adjust: exp().exp_adjust + 2,
            cmp: 0,
            lut: exp().lut + recip().lut,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// One GELU: tanh + 5 own muls + 2 own adds + the ½x
    /// exponent-unit halving.
    pub const fn gelu() -> OpCount {
        OpCount {
            fp_mul: tanh().fp_mul + 5,
            fp_add: tanh().fp_add + 2,
            exp_adjust: tanh().exp_adjust + 1,
            cmp: 0,
            lut: tanh().lut,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// One `rsqrt`: seed ROM + 3 NR steps of 3 muls, 1 add and
    /// one exponent-unit halving each.
    pub const fn rsqrt() -> OpCount {
        OpCount {
            fp_mul: 9,
            fp_add: 3,
            exp_adjust: 3,
            cmp: 0,
            lut: 1,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// One fast softmax over a length-`n` row: max reduction, per-element
    /// shift + exp + accumulate, one reciprocal, `n` normalising muls.
    pub const fn softmax_row(n: u64) -> OpCount {
        OpCount {
            fp_mul: n * (exp().fp_mul + 1) + recip().fp_mul,
            fp_add: n * (exp().fp_add + 2) + recip().fp_add,
            exp_adjust: n * exp().exp_adjust,
            cmp: n.saturating_sub(1),
            lut: n * exp().lut + recip().lut,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// One fast LayerNorm over a length-`n` row: the exact kernel's
    /// sum/centre/affine mix with the NR rsqrt replacing the host
    /// round-trip.
    pub const fn layernorm_row(n: u64) -> OpCount {
        OpCount {
            fp_mul: 3 * n + 2 + rsqrt().fp_mul,
            fp_add: 4 * n + 1 + rsqrt().fp_add,
            exp_adjust: rsqrt().exp_adjust,
            cmp: 0,
            lut: rsqrt().lut,
            host_div: 0,
            host_sqrt: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_is_the_rounded_exp2_lattice() {
        for (j, &v) in EXP2_LUT.iter().enumerate() {
            let want = (j as f64 / 64.0).exp2();
            let rel = ((v as f64 - want) / want).abs();
            assert!(rel < 6e-8, "LUT[{j}] = {v} vs {want}");
        }
        // Monotone, anchored at 1.0, just below 2.0.
        assert_eq!(EXP2_LUT[0], 1.0);
        assert!(EXP2_LUT.windows(2).all(|w| w[0] < w[1]));
        assert!(EXP2_LUT.iter().all(|&v| v < 2.0));
    }

    #[test]
    fn fast_exp_tracks_libm() {
        // The single-constant range reduction `x·log2e` rounds once at the
        // scale of |t|, so the relative error grows linearly with |x|:
        // tight (≲4 ulp) near zero, ~ln2·ulp(|t|) at the range edges —
        // the same profile the exact kernel shows (its bound is 1e-5).
        for k in -2000..=2000 {
            let x = k as f32 * 0.043;
            let got = Unit.exp(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            // worst case ln2 · ½ulp(t) with t = x·log2e: ≈ 1.2e-7·|x|.
            let bound = 5e-7 + 1.3e-7 * x.abs() as f64;
            assert!(rel < bound, "exp({x}): {got} vs {want} rel {rel}");
        }
        assert_eq!(Unit.exp(1000.0), f32::INFINITY);
        assert_eq!(Unit.exp(-1000.0), 0.0);
    }

    #[test]
    fn fast_tanh_and_gelu_track_libm() {
        for k in -400..=400 {
            let x = k as f32 * 0.04;
            let t = Unit.tanh(x) as f64;
            assert!((t - (x as f64).tanh()).abs() < 1e-6, "tanh({x}) = {t}");
            let g = Unit.gelu(x) as f64;
            let xx = x as f64;
            let want = 0.5 * xx * (1.0 + (0.7978845608 * (xx + 0.044715 * xx * xx * xx)).tanh());
            assert!((g - want).abs() < 1e-5, "gelu({x}) = {g} vs {want}");
        }
    }

    #[test]
    fn fast_rsqrt_tracks_libm_over_the_normal_range() {
        for k in -120..=120 {
            let x = (k as f32 * 0.7).exp2();
            let got = Unit.rsqrt(x) as f64;
            let want = 1.0 / (x as f64).sqrt();
            let rel = ((got - want) / want).abs();
            assert!(rel < 2e-6, "rsqrt({x}): {got} vs {want} rel {rel}");
        }
        assert_eq!(Unit.rsqrt(0.0), f32::INFINITY);
    }

    #[test]
    fn fast_softmax_row_normalises() {
        let mut row: Vec<f32> = (0..33).map(|k| (k as f32 * 0.47).sin() * 6.0).collect();
        Unit.softmax_row(&mut row);
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "sum {s}");
        assert!(row.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn exp_saturates_the_rom_address_for_tiny_arguments() {
        // For these arguments the fraction of `x·log2e` rounds up to
        // exactly 1.0, so the ROM address is 64 of 64 before saturation.
        let tiny = [
            1e-9,
            -1e-9,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            0.0,
            -0.0,
            -f32::EPSILON / 4.0,
        ];
        for x in tiny {
            let got = Unit.exp(x);
            assert!(got.is_finite() && got > 0.0, "exp({x:e}) = {got}");
            let ulps = (got.to_bits() as i64 - 1.0f32.to_bits() as i64).abs();
            assert!(ulps <= 8, "exp({x:e}) = {got} is {ulps} ulp from 1.0");
        }
        // The saturated address lands 4 ulp under 1.0.
        assert_eq!(Unit.exp(-1e-9).to_bits(), 0x3f7f_fffc);
    }

    #[test]
    fn cost_formulas_are_consistent() {
        assert_eq!(cost::gelu().lut, 2);
        assert_eq!(cost::gelu().host_div + cost::gelu().host_sqrt, 0);
        let sm = cost::softmax_row(16);
        assert_eq!(sm.host_div, 0);
        assert_eq!(sm.lut, 17);
        let ln = cost::layernorm_row(16);
        assert_eq!(ln.host_div + ln.host_sqrt, 0);
        assert_eq!(ln.lut, 1);
    }
}
