//! IEEE-754 half precision (fp16) emulation — the comparison format for the
//! paper's premise that non-linear Transformer operations "require large
//! dynamic range and high precision" (§I), and the format of the ViA
//! accelerator in Table III.
//!
//! fp16 has a 5-bit exponent (max finite value 65504) and an 11-bit
//! significand. The `extension_motivation` reproduction test shows how that
//! fails a softmax: `e^x` overflows fp16 for logits above ~11, while fp32
//! shrugs. Conversions round to nearest-even; subnormals are supported on
//! conversion (they matter for the underflow behaviour of `exp`).

/// Convert `f32` to fp16 bits (round-to-nearest-even, IEEE semantics).
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        return sign | 0x7c00 | if frac != 0 { 0x200 } else { 0 };
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if e >= -14 {
        // Normal fp16: 10 fraction bits from 23, RNE.
        let mut h = ((e + 15) as u32) << 10 | (frac >> 13);
        let rem = frac & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
            h += 1; // may carry into the exponent, which is correct
        }
        return sign | h as u16;
    }
    if e >= -25 {
        // Subnormal fp16.
        let sig = 0x80_0000 | frac; // explicit hidden bit
        let shift = (-14 - e + 13) as u32;
        let mut h = sig >> shift;
        let rem = sig & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && h & 1 == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    sign // underflow -> signed zero
}

/// Convert fp16 bits to `f32` (exact).
pub fn f32_from_f16(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (frac << 13) // inf / nan
    } else if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: shift the MSB up to the hidden-bit position
            // (bit 10) and rebias.
            let lead = frac.leading_zeros() - 21;
            let e = 127 - 14 - lead;
            sign | (e << 23) | (((frac << lead) & 0x3ff) << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

/// Round-trip an `f32` through fp16 (the "compute in fp16" model: every
/// intermediate value is stored at half precision).
#[inline]
pub fn as_f16(x: f32) -> f32 {
    f32_from_f16(f16_from_f32(x))
}

/// fp16 arithmetic by convert–compute–convert (correct for single ops
/// because fp32 is more than twice as precise as fp16).
pub mod ops {
    use super::as_f16;

    /// fp16 addition.
    pub fn add(a: f32, b: f32) -> f32 {
        as_f16(as_f16(a) + as_f16(b))
    }

    /// fp16 multiplication.
    pub fn mul(a: f32, b: f32) -> f32 {
        as_f16(as_f16(a) * as_f16(b))
    }

    /// fp16 exponential.
    pub fn exp(a: f32) -> f32 {
        as_f16(as_f16(a).exp())
    }

    /// fp16 division.
    pub fn div(a: f32, b: f32) -> f32 {
        as_f16(as_f16(a) / as_f16(b))
    }
}

/// Row softmax computed entirely in fp16 (no max subtraction — the naive
/// kernel that overflows, and even with max subtraction, loses mass).
pub fn softmax_row_f16(row: &mut [f32]) {
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = ops::exp(*v);
        sum = ops::add(sum, *v);
    }
    for v in row.iter_mut() {
        *v = ops::div(*v, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_fp16_values() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -0.09375, 1024.0] {
            assert_eq!(as_f16(x), x, "fp16-exact value {x} must round-trip");
        }
    }

    #[test]
    fn conversion_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16; RNE
        // picks the even (1.0).
        let x = 1.0 + 2f32.powi(-11);
        assert_eq!(as_f16(x), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 (odd mantissa) and
        // 1+2^-9 (even mantissa); RNE picks the even side.
        let x = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(as_f16(x), 1.0 + 2f32.powi(-9));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(as_f16(70000.0), f32::INFINITY);
        assert_eq!(as_f16(-1e8), f32::NEG_INFINITY);
        assert_eq!(as_f16(65504.0), 65504.0, "largest finite fp16");
    }

    #[test]
    fn subnormals_convert_both_ways() {
        let tiny = 2f32.powi(-24); // smallest positive subnormal fp16
        assert_eq!(as_f16(tiny), tiny);
        // Exactly halfway between 0 and the smallest subnormal: RNE picks
        // the even side (zero).
        assert_eq!(as_f16(tiny / 2.0), 0.0);
        assert_eq!(as_f16(tiny * 0.75), tiny, "above halfway rounds up");
        assert_eq!(as_f16(2f32.powi(-26)), 0.0, "below half-subnormal flushes");
    }

    #[test]
    fn nan_propagates() {
        assert!(as_f16(f32::NAN).is_nan());
    }

    #[test]
    fn exhaustive_f16_roundtrip() {
        // Every finite fp16 bit pattern must round-trip bit-exactly
        // through f32 and back.
        for h in 0u16..=0xffff {
            let exp = (h >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // inf/nan compare differently
            }
            let x = f32_from_f16(h);
            let back = f16_from_f32(x);
            // -0 and +0 keep their signs; everything else is exact.
            assert_eq!(back, h, "pattern {h:#06x} -> {x} -> {back:#06x}");
        }
    }

    #[test]
    fn softmax_overflows_in_fp16_for_large_logits() {
        // Logits of magnitude ~12 are routine in attention; e^12 = 162k
        // overflows fp16 -> the naive fp16 softmax produces NaN (inf/inf).
        let mut row = vec![12.0f32, 11.0, 10.0];
        softmax_row_f16(&mut row);
        assert!(
            row.iter().any(|v| v.is_nan()),
            "fp16 softmax must break on large logits: {row:?}"
        );
        // The fp32 reference handles the same row fine.
        let mut m = crate::matrix::MatF32::from_vec(1, 3, vec![12.0, 11.0, 10.0]);
        let mut sum = 0f64;
        for j in 0..3 {
            sum += (m.get(0, j) as f64).exp();
        }
        for j in 0..3 {
            let v = ((m.get(0, j) as f64).exp() / sum) as f32;
            m.set(0, j, v);
            assert!(v.is_finite());
        }
    }

    #[test]
    fn fp16_ops_roundtrip_through_the_format() {
        // Single ops computed in f32 then rounded are correctly-rounded
        // fp16 results (f32 is more than 2x as precise).
        assert_eq!(ops::add(1.0, 1.0), 2.0);
        assert_eq!(ops::mul(1.5, 2.0), 3.0);
        assert_eq!(ops::div(1.0, 3.0), as_f16(1.0 / 3.0));
        // Results land exactly on fp16 grid points.
        let v = ops::mul(1.2345, 6.789);
        assert_eq!(as_f16(v), v);
        let e = ops::exp(2.0);
        assert_eq!(as_f16(e), e);
    }

    #[test]
    fn fp16_ops_lose_precision_vs_fp32() {
        // Accumulating 2048 values of 1.0 in fp16 stalls at 2048 (ulp = 2
        // there), demonstrating the accumulation error LayerNorm suffers.
        let mut acc = 0.0f32;
        for _ in 0..4096 {
            acc = ops::add(acc, 1.0);
        }
        assert!(acc < 4096.0 / 2.0 + 100.0, "fp16 sum stalls: {acc}");
    }
}
