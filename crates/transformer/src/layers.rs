//! Parameterised layers: linear projections and LayerNorm parameters.
//!
//! A [`Linear`] owns its weight *and* the one form derived from it: the
//! weight quantize-packed as a bfp8 GEMM RHS. The paper's point about bfp8
//! is that a trained weight needs no retraining — its bfp8 form is a
//! constant of the model, converted once and left in HBM — so the pack is
//! filled once, where the weight lives, and borrowed by every engine that
//! multiplies by it.

use std::sync::OnceLock;

use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::PackedBfp;
use bfp_arith::quant::Quantizer;
use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::Engine;

/// A dense projection `y = x W + b` with `W: in × out`.
///
/// The weight is private because the type keeps a condition over it: the
/// resident pack, when present, is `quantize_pack_rhs(quantizer, w)`.
/// [`Linear::w_mut`] is the only way to change the weight and drops the
/// pack. The pack is a pure function of quantizer and weight, so threads
/// racing to fill it are benign — one result is kept, all are equal.
#[derive(Debug, Clone)]
pub struct Linear {
    w: MatF32,
    /// Bias, `out_features` long.
    pub b: Vec<f32>,
    pack: OnceLock<(Quantizer, PackedBfp)>,
}

/// How [`Linear::packed_rhs`] came by a weight's packed RHS.
#[derive(Debug)]
pub(crate) enum WeightPack<'a> {
    /// The pack was already resident under an equal quantizer.
    Resident(&'a PackedBfp),
    /// This call packed the weight and left the pack resident.
    Filled(&'a PackedBfp),
    /// This call packed the weight for itself: the slot holds another
    /// quantizer's pack, or another thread's equal fill landed first.
    PerCall(PackedBfp),
}

impl WeightPack<'_> {
    pub(crate) fn get(&self) -> &PackedBfp {
        match self {
            WeightPack::Resident(p) | WeightPack::Filled(p) => p,
            WeightPack::PerCall(p) => p,
        }
    }
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
        Linear {
            w,
            b,
            pack: OnceLock::new(),
        }
    }

    /// Weight matrix, `in_features × out_features`.
    pub fn w(&self) -> &MatF32 {
        &self.w
    }

    /// Mutable weight. Drops the resident pack: the next GEMM against
    /// this layer packs the edited weight.
    pub fn w_mut(&mut self) -> &mut MatF32 {
        self.pack.take();
        &mut self.w
    }

    /// The weight as a packed bfp8 RHS under `q`. The first successful
    /// call fills the resident pack; a pack error is returned, never
    /// stored, so a repaired weight packs cleanly.
    pub(crate) fn packed_rhs(&self, q: &Quantizer) -> Result<WeightPack<'_>, ArithError> {
        if let Some((have, pack)) = self.pack.get() {
            if have == q {
                return Ok(WeightPack::Resident(pack));
            }
        }
        let fresh = PackedBfp::quantize_pack_rhs(q, &self.w)?;
        Ok(match self.pack.set((*q, fresh)) {
            Ok(()) => WeightPack::Filled(&self.pack.get().expect("filled on the line above").1),
            Err((_, fresh)) => WeightPack::PerCall(fresh),
        })
    }

    /// Forward through an engine. The GEMM runs on the engine (bfp8 on the
    /// accelerator); the bias add is fused into the output DMA and is not
    /// part of the paper's op accounting.
    pub fn forward<E: Engine>(&self, e: &mut E, x: &MatF32) -> MatF32 {
        let mut y = e.matmul_weight(x, self);
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
        assert!(lin.w().max_abs() <= bound);
        assert!(lin.w().max_abs() > bound * 0.5, "init should fill the range");
    }

    /// The slot's own rules, below what an engine can observe (the five
    /// model-level rules are pinned in `engine::tests::weight_pack_*`).
    #[test]
    fn pack_slot_fills_once_borrows_after_and_is_dropped_by_w_mut() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Linear>();
        let mut lin = Linear::new_random(24, 40, &mut StdRng::seed_from_u64(5));
        let (q8, q5) = (Quantizer::paper(), Quantizer::with_man_bits(5));
        let want = PackedBfp::quantize_pack_rhs(&q8, lin.w()).unwrap();

        let first = lin.packed_rhs(&q8).unwrap();
        assert!(matches!(first, WeightPack::Filled(p) if *p == want));
        let again = lin.packed_rhs(&q8).unwrap();
        assert!(matches!(again, WeightPack::Resident(p) if std::ptr::eq(p, first.get())));
        // An unequal quantizer gets its own planes and leaves the slot be.
        let narrow = lin.packed_rhs(&q5).unwrap();
        assert!(matches!(narrow, WeightPack::PerCall(_)));
        assert_eq!(narrow.get(), &PackedBfp::quantize_pack_rhs(&q5, lin.w()).unwrap());
        let twin = lin.clone();
        assert!(matches!(twin.packed_rhs(&q8).unwrap(), WeightPack::Resident(p) if *p == want));

        // A poisoned weight: the error is returned each time, never kept.
        let v = lin.w().get(0, 0);
        lin.w_mut().set(0, 0, f32::INFINITY);
        assert!(lin.packed_rhs(&q8).is_err() && lin.packed_rhs(&q8).is_err());
        lin.w_mut().set(0, 0, v);
        assert!(matches!(lin.packed_rhs(&q8).unwrap(), WeightPack::Filled(p) if *p == want));
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
