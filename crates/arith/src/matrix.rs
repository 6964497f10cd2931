//! A minimal row-major `f32` matrix used as the reference datatype across
//! the workspace (quantizer input, transformer activations, benchmarks).
//!
//! Deliberately small: just the operations the reproduction needs, with
//! dimension checks that panic early instead of producing garbage. It
//! carries no derived state: a form derived from a matrix (a weight's
//! packed bfp8 planes) belongs to whoever owns the matrix.

/// Row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatF32 {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        MatF32 { rows, cols, data }
    }

    /// 64-bit content hash over shape and exact `f32` bit patterns
    /// (NaN-payload sensitive): a fingerprint for comparing results
    /// without keeping them. One 64-bit multiply per two `f32`s.
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            h = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        };
        eat(self.rows as u64);
        eat(self.cols as u64);
        let mut chunks = self.data.chunks_exact(2);
        for pair in &mut chunks {
            eat((pair[0].to_bits() as u64) << 32 | pair[1].to_bits() as u64);
        }
        if let [last] = chunks.remainder() {
            eat(last.to_bits() as u64);
        }
        h
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// One row as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Reference (IEEE f32) matrix multiply, used as ground truth in the
    /// fidelity experiments. Accumulates in `f64` to keep the reference
    /// itself from dominating the error budget.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &MatF32) -> MatF32 {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimensions: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0f64;
                for k in 0..self.cols {
                    acc += self.get(i, k) as f64 * rhs.get(k, j) as f64;
                }
                out.set(i, j, acc as f32);
            }
        }
        out
    }

    /// Transpose, in 8×8 tiles so that neither the rows read nor the rows
    /// written fall out of cache between visits.
    pub fn transpose(&self) -> MatF32 {
        let (rows, cols) = (self.rows, self.cols);
        let mut data = vec![0f32; rows * cols];
        for i0 in (0..rows).step_by(8) {
            let i1 = (i0 + 8).min(rows);
            for j0 in (0..cols).step_by(8) {
                let j1 = (j0 + 8).min(cols);
                for i in i0..i1 {
                    let src = &self.data[i * cols + j0..i * cols + j1];
                    for (j, &v) in (j0..j1).zip(src) {
                        data[j * rows + i] = v;
                    }
                }
            }
        }
        MatF32::from_vec(cols, rows, data)
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = MatF32::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = MatF32::from_fn(3, 3, |i, j| (i * 3 + j) as f32 + 1.0);
        let id = MatF32::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = MatF32::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = MatF32::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = MatF32::from_fn(2, 4, |i, j| (i + j) as f32);
        let b = MatF32::from_fn(4, 3, |i, j| (i as f32) - (j as f32));
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        // c[0][0] = sum_k a[0][k]*b[k][0] = 0*0 + 1*1 + 2*2 + 3*3 = 14
        assert_eq!(c.get(0, 0), 14.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = MatF32::zeros(2, 3);
        let b = MatF32::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = MatF32::from_fn(3, 5, |i, j| (i * 7 + j * 13) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn norms() {
        let m = MatF32::from_vec(1, 2, vec![3.0, -4.0]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.frobenius(), 5.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_checks_length() {
        MatF32::from_vec(2, 2, vec![1.0; 3]);
    }
}
