//! fp32 multiplication built from int8 partial products (paper Eqn. 5).
//!
//! The 24-bit signed-magnitude mantissas of the two operands are split into
//! three unsigned 8-bit slices each. Their product is the sum of nine partial
//! products `man_x(i) * man_y(j) << 8(i+j)`. To fit the 8-row systolic array
//! the hardware **omits the least-significant partial product** (`i = j = 0`,
//! shift 0) and accumulates the remaining eight down the DSP cascade, one per
//! PE row (Fig. 5 b). The final mantissa is renormalised and truncated.
//!
//! [`MulVariant::Exact`] keeps all nine products (reference behaviour);
//! [`MulVariant::DropLsp`] reproduces the hardware. The difference is bounded
//! by tests and characterised by the ablation gates in
//! `tests/repro_numbers.rs`.

use crate::softfp::{SoftFp32, BIAS, FRAC_BITS};

/// Which partial products enter the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MulVariant {
    /// All nine `slice × slice` products: bit-exact integer mantissa product.
    Exact,
    /// Drop the `i = j = 0` product, as the 8-row array does (paper §II-D).
    #[default]
    DropLsp,
}

/// How the 48-bit product is reduced back to a 24-bit mantissa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormRound {
    /// Truncate the shifted-out bits (what the paper's hardware does).
    #[default]
    Truncate,
    /// Round to nearest, ties to even (IEEE-like; ablation only).
    NearestEven,
}

/// One `slice × slice` term of the mantissa product, for introspection and
/// for mapping onto PE rows in the cycle simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialProduct {
    /// Slice index of the X operand (0 = least significant).
    pub i: u8,
    /// Slice index of the Y operand.
    pub j: u8,
    /// The raw 16-bit product `man_x(i) * man_y(j)`.
    pub value: u16,
    /// Left shift applied before summation: `8 * (i + j)`.
    pub shift: u8,
}

impl PartialProduct {
    /// The term's contribution to the 48-bit product.
    pub fn contribution(self) -> u64 {
        (self.value as u64) << self.shift
    }
}

/// Hardware-faithful fp32 multiplier.
///
/// ```
/// use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
/// use bfp_arith::ulp::ulp_distance;
///
/// let hw = HwFp32Mul::new(MulVariant::DropLsp);   // the 8-row datapath
/// assert_eq!(hw.mul(1.5, -2.0), -3.0);            // exact when exact
/// let (x, y) = (1.234_5678f32, 7.654_321f32);
/// assert!(ulp_distance(hw.mul(x, y), x * y) <= 2); // ≤2 ulp always
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HwFp32Mul {
    /// Partial-product selection.
    pub variant: MulVariant,
    /// Mantissa reduction rounding.
    pub round: NormRound,
}

impl HwFp32Mul {
    /// A multiplier with the given variant and hardware truncation.
    pub fn new(variant: MulVariant) -> Self {
        HwFp32Mul {
            variant,
            round: NormRound::Truncate,
        }
    }

    /// All nine partial products of two unpacked operands, LSB-first by
    /// shift. This is exactly the set of terms the PE rows compute.
    pub fn partial_products(a: SoftFp32, b: SoftFp32) -> Vec<PartialProduct> {
        let xs = a.slices();
        let ys = b.slices();
        let mut out = Vec::with_capacity(9);
        for i in 0..3u8 {
            for j in 0..3u8 {
                out.push(PartialProduct {
                    i,
                    j,
                    value: (xs[i as usize] as u16) * (ys[j as usize] as u16),
                    shift: 8 * (i + j),
                });
            }
        }
        out.sort_by_key(|p| (p.shift, p.i));
        out
    }

    /// Multiply two unpacked values on the sliced datapath.
    ///
    /// The nine partial products of Eqn. 5 sum to the exact 48-bit integer
    /// mantissa product, and `u64` addition is associative — so instead of
    /// materialising (and sorting) the term list per call, the fast path
    /// computes the full product with one widening multiply and, for
    /// [`MulVariant::DropLsp`], subtracts the single omitted `i = j = 0`
    /// term. Bit-identical to summing [`HwFp32Mul::partial_products`]
    /// (pinned by [`HwFp32Mul::mul_soft_via_partials`] and its proptest),
    /// but free of the per-multiply heap allocation that dominated the VPU
    /// kernels' wall clock.
    #[inline]
    pub fn mul_soft(&self, a: SoftFp32, b: SoftFp32) -> SoftFp32 {
        let sign = a.sign ^ b.sign; // the one XOR gate of §II-B
        if a.is_zero() || b.is_zero() {
            return SoftFp32 {
                sign,
                exp: 0,
                man: 0,
            };
        }
        let mut full: u64 = a.man as u64 * b.man as u64;
        if self.variant == MulVariant::DropLsp {
            // The omitted partial product is man_x(0)·man_y(0) at shift 0.
            full -= (a.man & 0xff) as u64 * (b.man & 0xff) as u64;
        }
        self.normalise_product(sign, a.exp, b.exp, full)
    }

    /// The introspective twin of [`HwFp32Mul::mul_soft`]: enumerate the
    /// partial-product terms the PE rows compute (the pre-optimisation
    /// implementation) and sum them. Kept as the per-row oracle for the
    /// fast path and as the scalar-baseline op for perf comparisons.
    pub fn mul_soft_via_partials(&self, a: SoftFp32, b: SoftFp32) -> SoftFp32 {
        let sign = a.sign ^ b.sign;
        if a.is_zero() || b.is_zero() {
            return SoftFp32 {
                sign,
                exp: 0,
                man: 0,
            };
        }
        let mut full: u64 = 0;
        for p in Self::partial_products(a, b) {
            if self.variant == MulVariant::DropLsp && p.i == 0 && p.j == 0 {
                continue;
            }
            full += p.contribution();
        }
        self.normalise_product(sign, a.exp, b.exp, full)
    }

    /// Shared renormalisation tail of the two product paths.
    #[inline]
    fn normalise_product(&self, sign: bool, ea: i32, eb: i32, full: u64) -> SoftFp32 {
        debug_assert!(
            full >= 1 << 46,
            "product of normalised mantissas below 2^46"
        );
        debug_assert!(full < 1 << 48);

        // Renormalise the [2^46, 2^48) product into a 24-bit mantissa.
        let mut exp = ea + eb - BIAS;
        let shift = if full >> 47 != 0 {
            exp += 1;
            FRAC_BITS + 1
        } else {
            FRAC_BITS
        };
        let mut man = (full >> shift) as u32;
        if self.round == NormRound::NearestEven {
            let rem = full & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            if rem > half || (rem == half && man & 1 == 1) {
                man += 1;
                if man >> 24 != 0 {
                    man >>= 1;
                    exp += 1;
                }
            }
        }
        SoftFp32 { sign, exp, man }
    }

    /// Multiply two `f32` values via [`HwFp32Mul::mul_soft_via_partials`]
    /// (the pre-optimisation scalar path; baseline benchmarking only).
    pub fn mul_via_partials(&self, x: f32, y: f32) -> f32 {
        if x.is_nan() || y.is_nan() {
            return f32::NAN;
        }
        let sign = (x.is_sign_negative()) ^ (y.is_sign_negative());
        if x.is_infinite() || y.is_infinite() {
            if x == 0.0 || y == 0.0 {
                return f32::NAN;
            }
            return if sign {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            };
        }
        self.mul_soft_via_partials(SoftFp32::unpack(x), SoftFp32::unpack(y))
            .pack()
    }

    /// Multiply two `f32` values. IEEE special cases (NaN, inf, zero) are
    /// resolved by control logic before the array is engaged, exactly like
    /// the hardware's controller short-circuits them.
    #[inline]
    pub fn mul(&self, x: f32, y: f32) -> f32 {
        // One finiteness gate on the hot path; NaN/inf resolution stays
        // out of line (see `mul_special`).
        if x.is_finite() && y.is_finite() {
            return self
                .mul_soft(SoftFp32::unpack(x), SoftFp32::unpack(y))
                .pack();
        }
        Self::mul_special(x, y)
    }

    /// NaN/infinity resolution, exactly as the original inline checks did.
    #[cold]
    fn mul_special(x: f32, y: f32) -> f32 {
        if x.is_nan() || y.is_nan() {
            return f32::NAN;
        }
        // At least one operand is infinite here.
        if x == 0.0 || y == 0.0 {
            return f32::NAN; // inf × 0
        }
        if (x.is_sign_negative()) ^ (y.is_sign_negative()) {
            f32::NEG_INFINITY
        } else {
            f32::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ulp::ulp_distance;

    fn exact() -> HwFp32Mul {
        HwFp32Mul::new(MulVariant::Exact)
    }
    fn hw() -> HwFp32Mul {
        HwFp32Mul::new(MulVariant::DropLsp)
    }

    #[test]
    fn exact_products_match_ieee_when_representable() {
        // Products of small powers of two and short mantissas are exact in
        // fp32, so truncation never fires and the result must equal IEEE.
        let cases = [
            (1.5f32, -2.25f32, -3.375f32),
            (0.5, 0.5, 0.25),
            (3.0, 7.0, 21.0),
            (1024.0, -0.125, -128.0),
            (1.0, 1.0, 1.0),
        ];
        for (x, y, want) in cases {
            assert_eq!(exact().mul(x, y), want, "{x} * {y}");
            assert_eq!(hw().mul(x, y), want, "{x} * {y} (DropLsp)");
        }
    }

    #[test]
    fn fast_product_path_matches_partial_product_enumeration() {
        // The optimised mul_soft must agree bit-for-bit with the term-list
        // oracle for both variants and both rounding modes, across a spread
        // of mantissa patterns (incl. all-ones low slices, where the
        // DropLsp subtraction is largest).
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let muls = [
            HwFp32Mul::new(MulVariant::Exact),
            HwFp32Mul::new(MulVariant::DropLsp),
            HwFp32Mul {
                variant: MulVariant::DropLsp,
                round: NormRound::NearestEven,
            },
        ];
        for _ in 0..20_000 {
            let x = f32::from_bits(next() & 0x7fff_ffff | ((next() & 1) << 31));
            let y = f32::from_bits(next() & 0x7fff_ffff | ((next() & 1) << 31));
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            for m in &muls {
                let fast = m.mul(x, y);
                let slow = m.mul_via_partials(x, y);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "{x} * {y} ({:?}/{:?}): {fast} vs {slow}",
                    m.variant,
                    m.round
                );
            }
        }
        // Edge mantissas: hidden-bit-only, all-ones, low-slice extremes.
        for &xb in &[
            0x3f80_0000u32,
            0x3fff_ffff,
            0x3f80_00ff,
            0x7f7f_ffff,
            0x0080_0000,
        ] {
            for &yb in &[
                0x3f80_0000u32,
                0x3fff_ffff,
                0x3f80_00ff,
                0x7f7f_ffff,
                0x0080_0000,
            ] {
                let (x, y) = (f32::from_bits(xb), f32::from_bits(yb));
                for m in &muls {
                    assert_eq!(m.mul(x, y).to_bits(), m.mul_via_partials(x, y).to_bits());
                }
            }
        }
    }

    #[test]
    fn nine_partial_products_reconstruct_integer_product() {
        let a = SoftFp32::unpack(1.234_567_8e3);
        let b = SoftFp32::unpack(-9.876_543e-4);
        let sum: u64 = HwFp32Mul::partial_products(a, b)
            .into_iter()
            .map(|p| p.contribution())
            .sum();
        assert_eq!(sum, a.man as u64 * b.man as u64);
    }

    #[test]
    fn partial_products_are_nine_with_expected_shifts() {
        let a = SoftFp32::unpack(1.5);
        let b = SoftFp32::unpack(2.5);
        let pps = HwFp32Mul::partial_products(a, b);
        assert_eq!(pps.len(), 9);
        let mut shifts: Vec<u8> = pps.iter().map(|p| p.shift).collect();
        shifts.dedup();
        assert_eq!(shifts, vec![0, 8, 16, 24, 32]);
    }

    #[test]
    fn truncation_is_within_one_ulp_of_ieee() {
        // Deterministic pseudo-random sweep (no rand dependency needed here).
        let mut state = 0x1234_5678_u32;
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            f32::from_bits(0x3f00_0000 | (state >> 9)) * if state & 1 == 0 { 1.0 } else { -1.0 }
        };
        for _ in 0..20_000 {
            let (x, y) = (next(), next());
            let ieee = x * y;
            let got = exact().mul(x, y);
            assert!(
                ulp_distance(got, ieee) <= 1,
                "{x} * {y}: got {got}, ieee {ieee}"
            );
        }
    }

    #[test]
    fn drop_lsp_is_within_two_ulp_of_ieee() {
        let mut state = 0x8765_4321_u32;
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            f32::from_bits(0x3f00_0000 | (state >> 9)) * if state & 1 == 0 { 1.0 } else { -1.0 }
        };
        for _ in 0..20_000 {
            let (x, y) = (next(), next());
            let ieee = x * y;
            let got = hw().mul(x, y);
            assert!(
                ulp_distance(got, ieee) <= 2,
                "{x} * {y}: got {got}, ieee {ieee}"
            );
        }
    }

    #[test]
    fn nearest_even_matches_ieee_on_exact_datapath() {
        let m = HwFp32Mul {
            variant: MulVariant::Exact,
            round: NormRound::NearestEven,
        };
        let mut state = 0xdead_beef_u32;
        let mut next = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            f32::from_bits(0x3f00_0000 | (state >> 9)) * if state & 1 == 0 { 1.0 } else { -1.0 }
        };
        for _ in 0..20_000 {
            let (x, y) = (next(), next());
            // With all nine products and RNE, the sliced multiplier *is* an
            // IEEE multiplier (for normal/normal -> normal cases).
            let ieee = x * y;
            if ieee.is_finite() && ieee != 0.0 && ieee.abs() >= f32::MIN_POSITIVE {
                assert_eq!(m.mul(x, y), ieee, "{x} * {y}");
            }
        }
    }

    #[test]
    fn special_cases() {
        assert!(hw().mul(f32::NAN, 1.0).is_nan());
        assert!(hw().mul(f32::INFINITY, 0.0).is_nan());
        assert_eq!(hw().mul(f32::INFINITY, -2.0), f32::NEG_INFINITY);
        assert_eq!(hw().mul(0.0, -3.5).to_bits(), (-0.0f32).to_bits());
        assert_eq!(hw().mul(-0.0, -3.5), 0.0);
    }

    #[test]
    fn overflow_saturates_underflow_flushes() {
        assert_eq!(hw().mul(f32::MAX, 2.0), f32::INFINITY);
        assert_eq!(hw().mul(f32::MAX, -2.0), f32::NEG_INFINITY);
        assert_eq!(hw().mul(f32::MIN_POSITIVE, 0.5), 0.0);
    }

    #[test]
    fn signs_combine_via_xor() {
        assert!(hw().mul(2.0, 3.0) > 0.0);
        assert!(hw().mul(-2.0, 3.0) < 0.0);
        assert!(hw().mul(2.0, -3.0) < 0.0);
        assert!(hw().mul(-2.0, -3.0) > 0.0);
    }
}
