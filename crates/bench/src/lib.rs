//! Shared workload generator for the reproduction binaries: a
//! deterministic (seedable, dependency-free) operand matrix, so every
//! run regenerates identically across runs and machines.

use bfp_arith::matrix::MatF32;

/// A smooth activation-like matrix (bounded, no outliers).
pub fn smooth_matrix(rows: usize, cols: usize, seed: u32) -> MatF32 {
    let s = seed as f32;
    MatF32::from_fn(rows, cols, |i, j| {
        ((i as f32 * 0.31 + j as f32 * 0.17 + s * 0.01).sin()) * 1.5
    })
}
