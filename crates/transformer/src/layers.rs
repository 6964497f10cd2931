//! Parameterised layers: linear projections and LayerNorm parameters.

use bfp_arith::matrix::MatF32;
use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::Engine;

/// A dense projection `y = x W + b` with `W: in × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in_features × out_features`.
    pub w: MatF32,
    /// Bias, `out_features` long.
    pub b: Vec<f32>,
}

impl Linear {
    /// Random initialisation (uniform `±1/√in`, the usual fan-in scale) —
    /// the reproduction has no trained checkpoints, and Table IV's
    /// op/latency split depends only on shapes.
    pub fn new_random(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let scale = 1.0 / (in_features as f32).sqrt();
        let w = MatF32::from_fn(in_features, out_features, |_, _| {
            rng.gen_range(-scale..scale)
        });
        let b = (0..out_features)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Linear { w, b }
    }

    /// Forward through an engine. The GEMM runs on the engine (bfp8 on the
    /// accelerator); the bias add is fused into the output DMA and is not
    /// part of the paper's op accounting.
    pub fn forward<E: Engine>(&self, e: &mut E, x: &MatF32) -> MatF32 {
        let mut y = e.matmul(x, &self.w);
        let cols = y.cols().max(1);
        for row in y.data_mut().chunks_exact_mut(cols) {
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.w.cols()
    }
}

/// LayerNorm affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNormParams {
    /// Scale.
    pub gamma: Vec<f32>,
    /// Shift.
    pub beta: Vec<f32>,
    /// Stabiliser added to the variance.
    pub eps: f32,
}

impl LayerNormParams {
    /// Identity-ish initialisation (γ near 1, β near 0).
    pub fn new_random(dim: usize, rng: &mut StdRng) -> Self {
        LayerNormParams {
            gamma: (0..dim)
                .map(|_| 1.0 + rng.gen_range(-0.05..0.05f32))
                .collect(),
            beta: (0..dim).map(|_| rng.gen_range(-0.05..0.05f32)).collect(),
            eps: 1e-6,
        }
    }

    /// Apply through an engine.
    pub fn forward<E: Engine>(&self, e: &mut E, x: &mut MatF32) {
        e.layernorm(x, &self.gamma, &self.beta, self.eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RefEngine;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new_random(4, 6, &mut rng);
        let x = MatF32::from_fn(3, 4, |i, j| (i + j) as f32);
        let mut e = RefEngine;
        let y = lin.forward(&mut e, &x);
        assert_eq!((y.rows(), y.cols()), (3, 6));
        // Zero input leaves only the bias.
        let z = lin.forward(&mut e, &MatF32::zeros(2, 4));
        for j in 0..6 {
            assert!((z.get(0, j) - lin.b[j]).abs() < 1e-7);
        }
    }

    #[test]
    fn init_scale_is_fan_in_bounded() {
        let mut rng = StdRng::seed_from_u64(11);
        let lin = Linear::new_random(64, 64, &mut rng);
        let bound = 1.0 / 8.0;
        assert!(lin.w.max_abs() <= bound);
        assert!(lin.w.max_abs() > bound * 0.5, "init should fill the range");
    }

    #[test]
    fn layernorm_params_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let ln = LayerNormParams::new_random(16, &mut rng);
        let mut x = MatF32::from_fn(2, 16, |i, j| (i * 16 + j) as f32);
        let mut e = RefEngine;
        ln.forward(&mut e, &mut x);
        let mean: f64 = x.row(0).iter().map(|&v| v as f64).sum::<f64>() / 16.0;
        // gamma/beta are near identity, so the mean lands near beta's mean.
        assert!(mean.abs() < 0.2, "mean {mean}");
    }
}
