//! Per-tensor symmetric int8 quantization — the baseline the paper's int8
//! design variant (Fig. 6) would compute, and the scheme whose accuracy
//! shortfalls on Transformers motivate bfp8 in the first place
//! (§I: non-linear layers and outlier-heavy activations "are highly
//! susceptible to quantization error").
//!
//! One scale for the whole tensor means a single outlier crushes the
//! resolution of everything else; bfp8's per-8×8-block exponents localise
//! that damage. The `extension_motivation` reproduction test quantifies
//! the gap.

use crate::error::ArithError;
use crate::int8::round_i8_rne;
use crate::matrix::MatF32;
use crate::stats::ErrorStats;

/// A per-tensor symmetrically quantized int8 matrix: `value ≈ scale × q`.
#[derive(Debug, Clone)]
pub struct Int8Tensor {
    rows: usize,
    cols: usize,
    /// Dequantization scale (`max|x| / 127`).
    pub scale: f32,
    data: Vec<i8>,
}

impl Int8Tensor {
    /// Quantize with the symmetric per-tensor scheme.
    pub fn quantize(m: &MatF32) -> Result<Int8Tensor, ArithError> {
        let mut max_abs = 0f32;
        for (idx, &v) in m.data().iter().enumerate() {
            if !v.is_finite() {
                return Err(ArithError::NonFinite {
                    at: (idx / m.cols(), idx % m.cols()),
                });
            }
            max_abs = max_abs.max(v.abs());
        }
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        let data = m
            .data()
            .iter()
            .map(|&v| round_i8_rne((v / scale) as f64))
            .collect();
        Ok(Int8Tensor {
            rows: m.rows(),
            cols: m.cols(),
            scale,
            data,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantized element.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.cols + j]
    }

    /// Dequantize back to f32.
    pub fn dequantize(&self) -> MatF32 {
        MatF32::from_fn(self.rows, self.cols, |i, j| {
            self.get(i, j) as f32 * self.scale
        })
    }

    /// int8 GEMM with i32 accumulation, rescaled to f32 — what the int8
    /// systolic design computes.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Int8Tensor) -> MatF32 {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimensions");
        let s = self.scale * rhs.scale;
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0i32;
                for k in 0..self.cols {
                    acc += self.get(i, k) as i32 * rhs.get(k, j) as i32;
                }
                out.set(i, j, acc as f32 * s);
            }
        }
        out
    }

    /// Quantization fidelity against the original.
    pub fn fidelity(&self, original: &MatF32) -> ErrorStats {
        let mut s = ErrorStats::new();
        s.push_slices(self.dequantize().data(), original.data());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Quantizer;

    fn uniform(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| ((i * cols + j) % 255) as f32 - 127.0)
    }

    /// A Transformer-like activation: mostly small values, with a few
    /// channels carrying large outliers (the pattern Bondarenko et al.
    /// document). The outliers are *localised*, which is precisely what
    /// per-block exponents exploit and per-tensor scales cannot.
    fn outliers(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| {
            let base = ((i * 31 + j * 7) % 89) as f32 / 89.0 - 0.5;
            if i < 8 {
                base * 80.0
            } else {
                base
            }
        })
    }

    #[test]
    fn exact_for_integer_range() {
        let m = uniform(16, 16);
        let q = Int8Tensor::quantize(&m).unwrap();
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn matmul_matches_reference_for_exact_inputs() {
        let a = uniform(8, 12);
        let b = uniform(12, 8);
        let (qa, qb) = (
            Int8Tensor::quantize(&a).unwrap(),
            Int8Tensor::quantize(&b).unwrap(),
        );
        let got = qa.matmul(&qb);
        let want = a.matmul(&b);
        for i in 0..8 {
            for j in 0..8 {
                let rel = (got.get(i, j) - want.get(i, j)).abs() / want.get(i, j).abs().max(1.0);
                assert!(
                    rel < 1e-5,
                    "({i},{j}): {} vs {}",
                    got.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }

    #[test]
    fn zero_matrix() {
        let q = Int8Tensor::quantize(&MatF32::zeros(4, 4)).unwrap();
        assert_eq!(q.dequantize(), MatF32::zeros(4, 4));
    }

    #[test]
    fn rejects_non_finite() {
        let mut m = uniform(4, 4);
        m.set(1, 2, f32::NAN);
        assert!(Int8Tensor::quantize(&m).is_err());
    }

    #[test]
    fn outliers_crush_per_tensor_int8_but_not_bfp8() {
        // The paper's motivation, as a test: on outlier-heavy activations
        // per-block bfp8 keeps much more signal than per-tensor int8.
        // Whole-tensor SQNR is dominated by the (well-quantized) outlier
        // energy under both schemes, so the discriminating measurement is
        // fidelity over the *small-valued* region, where per-tensor int8
        // has spent all its resolution on the outliers.
        let m = outliers(64, 64);
        let di = Int8Tensor::quantize(&m).unwrap().dequantize();
        let db = Quantizer::paper().quantize(&m).unwrap().dequantize();
        let mut int8 = crate::stats::ErrorStats::new();
        let mut bfp8 = crate::stats::ErrorStats::new();
        for i in 8..64 {
            for j in 0..64 {
                int8.push(di.get(i, j), m.get(i, j));
                bfp8.push(db.get(i, j), m.get(i, j));
            }
        }
        assert!(
            bfp8.sqnr_db() > int8.sqnr_db() + 20.0,
            "bfp8 {:.1} dB must crush int8 {:.1} dB on the non-outlier region",
            bfp8.sqnr_db(),
            int8.sqnr_db()
        );
    }

    #[test]
    fn smooth_data_is_comparable_for_both() {
        // Without outliers the two schemes are close — int8 is fine for
        // the workloads it was designed for.
        let m = MatF32::from_fn(32, 32, |i, j| ((i + j) as f32 * 0.13).sin());
        let int8 = Int8Tensor::quantize(&m).unwrap().fidelity(&m);
        let bfp8 = Quantizer::paper().quantize(&m).unwrap().fidelity(&m);
        assert!((bfp8.sqnr_db() - int8.sqnr_db()).abs() < 12.0);
    }
}
