//! Parameterised reduced-precision floating point: the design-space the
//! paper's conclusion opens ("the fp32 format is often overly precise for
//! many machine learning systems ... we plan to delve deeper into
//! high-precision floating-point optimization").
//!
//! A [`RedFp`] format keeps `exp_bits` of exponent range and `man_bits` of
//! explicit mantissa; values are emulated by rounding every operation
//! result back into the format (round-to-nearest-even, saturate to ±inf on
//! exponent overflow, flush to zero on underflow). Presets cover the
//! industry formats between fp16 and fp32, so the `extension_futurework`
//! reproduction test can sweep "how much precision do the non-linear
//! layers actually need?".

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

    /// Addition in the format.
    pub fn add(&self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) + self.quantize(b))
    }

    /// Multiplication in the format.
    pub fn mul(&self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) * self.quantize(b))
    }

    /// Exponential in the format.
    pub fn exp(&self, a: f32) -> f32 {
        self.quantize(self.quantize(a).exp())
    }

    /// Division in the format.
    pub fn div(&self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) / self.quantize(b))
    }

    /// Numerically-standard row softmax computed entirely in this format
    /// (with max subtraction — the *well-implemented* kernel, so failures
    /// are inherent to the format, not to a naive implementation).
    pub fn softmax_row(&self, row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = self.exp(self.add(*v, -max));
            sum = self.add(sum, *v);
        }
        for v in row.iter_mut() {
            *v = self.div(*v, sum);
        }
    }

    /// Row LayerNorm computed entirely in this format.
    ///
    /// # Panics
    /// Panics if `gamma`/`beta` lengths differ from the row length.
    pub fn layernorm_row(&self, row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let n = row.len();
        assert_eq!(gamma.len(), n);
        assert_eq!(beta.len(), n);
        if n == 0 {
            return;
        }
        let inv_n = self.quantize(1.0 / n as f32);
        let mut sum = 0.0;
        for &v in row.iter() {
            sum = self.add(sum, v);
        }
        let mean = self.mul(sum, inv_n);
        let mut var_sum = 0.0;
        for v in row.iter_mut() {
            let d = self.add(*v, -mean);
            *v = d;
            var_sum = self.add(var_sum, self.mul(d, d));
        }
        let var = self.mul(var_sum, inv_n);
        let inv = self.quantize(1.0 / self.quantize(self.add(var, eps)).sqrt());
        for (j, v) in row.iter_mut().enumerate() {
            *v = self.add(self.mul(self.mul(*v, inv), gamma[j]), beta[j]);
        }
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
    fn fp16_preset_matches_halffp_on_normals() {
        let f = RedFp::FP16;
        for k in 1..500 {
            let x = (k as f32 * 0.37).sin() * 100.0;
            if x.abs() >= f.min_normal() {
                assert_eq!(
                    f.quantize(x),
                    crate::halffp::as_f16(x),
                    "RedFp fp16 must agree with the bit-level fp16 model at {x}"
                );
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

    #[test]
    fn softmax_quality_degrades_monotonically_with_mantissa() {
        let logits: Vec<f32> = (0..64).map(|k| (k as f32 * 0.41).sin() * 5.0).collect();
        let mut reference = logits.clone();
        RedFp::FP32.softmax_row(&mut reference);
        let mut prev_err = 0.0f32;
        for (name, f) in [
            ("fp24", RedFp::FP24),
            ("tf32", RedFp::TF32),
            ("bf16", RedFp::BF16),
        ] {
            let mut row = logits.clone();
            f.softmax_row(&mut row);
            let err = row
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max);
            assert!(
                err >= prev_err,
                "{name}: error must not shrink with fewer bits"
            );
            prev_err = err;
        }
        // bf16 softmax stays *usable* on in-range logits (range matters
        // more than mantissa here) ...
        assert!(prev_err < 1e-2);
    }

    #[test]
    fn fp16_softmax_breaks_where_bf16_survives() {
        // The dynamic-range story: logits ~ 15 (e^15 = 3.3e6) overflow
        // fp16's 65504 even after a *shifted* kernel? No — shifted values
        // are <= 0, so exp <= 1. The failure is underflow: shifted logits
        // below ln(2^-14) ~ -9.7 flush to zero and lose all tail mass.
        let mut row: Vec<f32> = (0..32).map(|k| -(k as f32)).collect(); // 0..-31
        let mut reference = row.clone();
        RedFp::FP32.softmax_row(&mut reference);
        let mut f16row = row.clone();
        RedFp::FP16.softmax_row(&mut f16row);
        RedFp::BF16.softmax_row(&mut row);
        // In fp16 every entry beyond position ~10 is exactly zero.
        assert_eq!(f16row[20], 0.0);
        assert!(reference[20] > 0.0);
        // bf16 keeps the tail alive thanks to its 8-bit exponent.
        assert!(row[20] > 0.0, "bf16 preserves tail mass");
    }

    #[test]
    fn layernorm_needs_mantissa_not_range() {
        // Complementary story: LayerNorm accuracy tracks mantissa width.
        let n = 384;
        let gamma = vec![1.0f32; n];
        let beta = vec![0.0f32; n];
        let src: Vec<f32> = (0..n)
            .map(|j| (j as f32 * 0.17).sin() * 2.0 + 0.3)
            .collect();
        let run = |f: RedFp| {
            let mut row = src.clone();
            f.layernorm_row(&mut row, &gamma, &beta, 1e-6);
            row
        };
        let reference = run(RedFp::FP32);
        let err = |row: &[f32]| {
            row.iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max)
        };
        let e_fp24 = err(&run(RedFp::FP24));
        let e_bf16 = err(&run(RedFp::BF16));
        assert!(e_fp24 < e_bf16, "more mantissa -> better LayerNorm");
        assert!(
            e_bf16 < 0.2,
            "bf16 LayerNorm is degraded but not broken: {e_bf16}"
        );
    }
}
