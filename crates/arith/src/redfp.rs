//! Parameterised reduced-precision floating point: the design-space the
//! paper's conclusion opens ("the fp32 format is often overly precise for
//! many machine learning systems ... we plan to delve deeper into
//! high-precision floating-point optimization").
//!
//! A [`RedFp`] format keeps `exp_bits` of exponent range and `man_bits` of
//! explicit mantissa; [`RedFp::quantize`] rounds a value into it
//! (round-to-nearest-even, saturate to ±inf on exponent overflow, flush
//! to zero on underflow). Its arithmetic — every operand and result
//! rounded into the format — is its `Datapath` implementation in
//! `bfp_transformer::vpu`, where the nonlinear kernels run over it.
//! Presets cover the industry formats between fp16 and fp32, so the
//! `extension_futurework` reproduction test can sweep "how much precision
//! do the non-linear layers actually need?".

/// A floating-point format with reduced exponent/mantissa widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedFp {
    /// Exponent field width in bits (≤ 8).
    pub exp_bits: u32,
    /// Explicit mantissa (fraction) bits (≤ 23).
    pub man_bits: u32,
}

impl RedFp {
    /// IEEE single precision (identity).
    pub const FP32: RedFp = RedFp {
        exp_bits: 8,
        man_bits: 23,
    };
    /// NVIDIA TF32: fp32 range, 10-bit mantissa.
    pub const TF32: RedFp = RedFp {
        exp_bits: 8,
        man_bits: 10,
    };
    /// bfloat16: fp32 range, 7-bit mantissa.
    pub const BF16: RedFp = RedFp {
        exp_bits: 8,
        man_bits: 7,
    };
    /// IEEE half precision.
    pub const FP16: RedFp = RedFp {
        exp_bits: 5,
        man_bits: 10,
    };
    /// A "fp24"-style middle ground: fp32 range, 16-bit mantissa.
    pub const FP24: RedFp = RedFp {
        exp_bits: 8,
        man_bits: 16,
    };

    /// All presets, widest first (for sweeps).
    pub const PRESETS: [(&'static str, RedFp); 5] = [
        ("fp32", RedFp::FP32),
        ("fp24", RedFp::FP24),
        ("tf32", RedFp::TF32),
        ("bf16", RedFp::BF16),
        ("fp16", RedFp::FP16),
    ];

    /// Largest finite magnitude of the format.
    pub fn max_value(&self) -> f32 {
        let e_max = (1i32 << (self.exp_bits - 1)) - 1; // unbiased
        let frac = 2.0 - 2f32.powi(-(self.man_bits as i32));
        frac * (e_max as f32).exp2()
    }

    /// Smallest positive *normal* magnitude.
    pub fn min_normal(&self) -> f32 {
        let e_min = 2 - (1i32 << (self.exp_bits - 1));
        (e_min as f32).exp2()
    }

    /// Round a value into the format: RNE on the mantissa, saturate on
    /// exponent overflow, flush to (signed) zero below the normal range.
    pub fn quantize(&self, x: f32) -> f32 {
        if x.is_nan() || x.is_infinite() || x == 0.0 {
            return x;
        }
        // Mantissa rounding via bit arithmetic (exact RNE at any width).
        let bits = x.to_bits();
        let drop = 23 - self.man_bits;
        let rounded = if drop == 0 {
            bits
        } else {
            let half = 1u32 << (drop - 1);
            let mask = (1u32 << drop) - 1;
            let rem = bits & mask;
            let base = bits & !mask;
            if rem > half || (rem == half && (base >> drop) & 1 == 1) {
                // May carry into the exponent field, which is exactly the
                // right behaviour.
                base + (1 << drop)
            } else {
                base
            }
        };
        let v = f32::from_bits(rounded);
        // Exponent clamping.
        if v.abs() > self.max_value() {
            return if v > 0.0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
        }
        if v.abs() < self.min_normal() {
            return if v.is_sign_negative() { -0.0 } else { 0.0 };
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_preset_is_identity() {
        for &x in &[1.0f32, -3.25159, 6.02e23, 1.6e-19] {
            assert_eq!(RedFp::FP32.quantize(x), x);
        }
    }

    #[test]
    fn bf16_keeps_seven_fraction_bits() {
        let f = RedFp::BF16;
        // 1 + 2^-7 survives; 1 + 2^-8 rounds to the even neighbour (1.0).
        assert_eq!(f.quantize(1.0 + 2f32.powi(-7)), 1.0 + 2f32.powi(-7));
        assert_eq!(f.quantize(1.0 + 2f32.powi(-8)), 1.0);
        // 1 + 3·2^-8 ties between mantissa 0x01 (odd) and 0x02 (even):
        // RNE picks the even side, 1 + 2^-6.
        assert_eq!(f.quantize(1.0 + 3.0 * 2f32.powi(-8)), 1.0 + 2f32.powi(-6));
    }

    #[test]
    fn fp16_preset_rounds_normals_to_the_nearest_half_precision_value() {
        // A normal fp16 keeps 10 fraction bits: the low 13 of the f32
        // mantissa are zero, and the rounding moves at most half an fp16
        // ulp (2^-11 relative to the leading bit).
        let f = RedFp::FP16;
        for k in 1..500 {
            let x = (k as f32 * 0.37).sin() * 100.0;
            if x.abs() >= f.min_normal() {
                let q = f.quantize(x);
                assert_eq!(q.to_bits() & 0x1fff, 0, "{x} -> {q} is off the fp16 grid");
                let half_ulp = 2f32.powi(x.abs().log2().floor() as i32 - 11);
                assert!((q - x).abs() <= half_ulp, "{x} -> {q}");
            }
        }
    }

    #[test]
    fn range_limits() {
        assert_eq!(RedFp::FP16.max_value(), 65504.0);
        assert_eq!(RedFp::FP16.min_normal(), 2f32.powi(-14));
        assert_eq!(RedFp::FP16.quantize(70000.0), f32::INFINITY);
        // bf16 shares fp32's exponent range: huge values survive.
        assert!(RedFp::BF16.quantize(1e38).is_finite());
        assert!((RedFp::BF16.quantize(1e38) - 1e38).abs() < 1e36);
    }
}
