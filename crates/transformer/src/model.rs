//! The ViT/DeiT encoder: pre-norm blocks of attention + MLP, generic over
//! the execution engine.
//!
//! The model covers exactly what Table IV counts — "all 12 blocks of a
//! DeiT-Small model": per block, LayerNorm → attention → residual,
//! LayerNorm → fc1 → GELU → fc2 → residual. Patch embedding and the
//! classifier head are outside the census, matching the paper; residual
//! adds are elementwise memory-side operations not charged to the array.

use bfp_arith::cancel::CancelToken;
use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attention::Attention;
use crate::config::VitConfig;
use crate::engine::Engine;
use crate::layers::{LayerNormParams, Linear};

/// One pre-norm Transformer encoder block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNormParams,
    /// Multi-head self-attention.
    pub attn: Attention,
    /// Pre-MLP LayerNorm.
    pub ln2: LayerNormParams,
    /// MLP expansion.
    pub fc1: Linear,
    /// MLP contraction.
    pub fc2: Linear,
}

impl Block {
    /// Random-initialised block.
    pub fn new_random(cfg: &VitConfig, rng: &mut StdRng) -> Self {
        Block {
            ln1: LayerNormParams::new_random(cfg.dim, rng),
            attn: Attention::new_random(cfg, rng),
            ln2: LayerNormParams::new_random(cfg.dim, rng),
            fc1: Linear::new_random(cfg.dim, cfg.hidden(), rng),
            fc2: Linear::new_random(cfg.hidden(), cfg.dim, rng),
        }
    }

    /// Forward one block: the only walk of the encoder block in the
    /// crate. Each step is an engine op, so the engine — not a second copy
    /// of this sequence — answers which kernel runs it: the defaults
    /// compose `Linear::forward` with the VPU calls (the bit-identity
    /// oracle, and what every plan-less engine runs), and a
    /// [`MixedEngine`](crate::MixedEngine) carrying a fusing plan runs the
    /// same steps on the fused drains.
    pub fn forward<E: Engine>(&self, e: &mut E, x: &MatF32) -> MatF32 {
        // Attention branch.
        let h = normed(e, "ln1", &self.ln1, x);
        let ctx = self.attn.context(e, &h);
        let x = e.linear_residual("wo", &self.attn.wo, &ctx, x);
        // MLP branch.
        let h = normed(e, "ln2", &self.ln2, &x);
        let mid = e.linear_gelu("fc1", &self.fc1, &h);
        e.linear_residual("fc2", &self.fc2, &mid, &x)
    }
}

/// LayerNorm of a copy of `x`, as the node `name`.
fn normed<E: Engine>(e: &mut E, name: &str, ln: &LayerNormParams, x: &MatF32) -> MatF32 {
    e.node(name, |e| {
        let mut h = x.clone();
        ln.forward(e, &mut h);
        h
    })
}

/// A stack of encoder blocks (the part of DeiT the paper's census covers).
#[derive(Debug, Clone)]
pub struct VitModel {
    /// Architecture.
    pub cfg: VitConfig,
    /// The encoder blocks.
    pub blocks: Vec<Block>,
}

impl VitModel {
    /// Build a model with reproducible random weights.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new_random(cfg: VitConfig, seed: u64) -> Self {
        cfg.validate().expect("valid configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = (0..cfg.depth)
            .map(|_| Block::new_random(&cfg, &mut rng))
            .collect();
        VitModel { cfg, blocks }
    }

    /// Forward `x` (`seq × dim`) through every block.
    ///
    /// # Panics
    /// Panics if `x` does not match the configured sequence/width.
    pub fn forward<E: Engine>(&self, e: &mut E, x: &MatF32) -> MatF32 {
        self.try_forward(e, x, &CancelToken::new())
            .expect("unbounded token never cancels")
    }

    /// Deadline-aware [`VitModel::forward`]: polls `cancel` between encoder
    /// blocks (the natural preemption points of the pipelined schedule) and
    /// abandons the pass with [`ArithError::Cancelled`] once the token
    /// fires, so a serving runtime can stop a request that has already
    /// missed its deadline instead of finishing a useless inference.
    ///
    /// # Panics
    /// Panics if `x` does not match the configured sequence/width.
    pub fn try_forward<E: Engine>(
        &self,
        e: &mut E,
        x: &MatF32,
        cancel: &CancelToken,
    ) -> Result<MatF32, ArithError> {
        assert_eq!(x.rows(), self.cfg.seq, "sequence length");
        assert_eq!(x.cols(), self.cfg.dim, "embedding width");
        let mut h = x.clone();
        for b in &self.blocks {
            cancel.check()?;
            h = b.forward(e, &h);
        }
        Ok(h)
    }

    /// A deterministic synthetic input in the typical post-embedding
    /// activation range.
    pub fn synthetic_input(&self, seed: u64) -> MatF32 {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        MatF32::from_fn(self.cfg.seq, self.cfg.dim, |_, _| {
            rng.gen_range(-1.0..1.0f32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MixedEngine, RefEngine};
    use bfp_arith::stats::ErrorStats;

    #[test]
    fn forward_preserves_shape() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 0);
        let x = model.synthetic_input(1);
        let y = model.forward(&mut RefEngine, &x);
        assert_eq!((y.rows(), y.cols()), (model.cfg.seq, model.cfg.dim));
        assert!(y.max_abs().is_finite());
    }

    #[test]
    fn forward_is_deterministic() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 5);
        let x = model.synthetic_input(2);
        let a = model.forward(&mut RefEngine, &x);
        let b = model.forward(&mut RefEngine, &x);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let m1 = VitModel::new_random(VitConfig::tiny_test(), 1);
        let m2 = VitModel::new_random(VitConfig::tiny_test(), 2);
        let x = m1.synthetic_input(3);
        assert_ne!(
            m1.forward(&mut RefEngine, &x),
            m2.forward(&mut RefEngine, &x)
        );
    }

    #[test]
    fn mixed_precision_tracks_fp32_end_to_end() {
        // The paper's core accuracy claim: bfp8 linear + fp32 non-linear
        // preserves model behaviour without retraining. Through two full
        // blocks the outputs must stay strongly correlated with fp32.
        let model = VitModel::new_random(VitConfig::tiny_test(), 7);
        let x = model.synthetic_input(8);
        let want = model.forward(&mut RefEngine, &x);
        let mut mixed = MixedEngine::new();
        let got = model.forward(&mut mixed, &x);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        assert!(s.sqnr_db() > 15.0, "end-to-end fidelity: {s}");
        // Cosine similarity as a scale-free check.
        let dot: f64 = got
            .data()
            .iter()
            .zip(want.data())
            .map(|(&g, &w)| g as f64 * w as f64)
            .sum();
        let cos = dot / (got.frobenius() * want.frobenius());
        assert!(cos > 0.99, "cosine {cos}");
    }

    #[test]
    fn cancelled_token_aborts_forward() {
        use bfp_arith::error::ArithError;
        let model = VitModel::new_random(VitConfig::tiny_test(), 3);
        let x = model.synthetic_input(4);
        let token = CancelToken::new();
        token.cancel();
        let err = model
            .try_forward(&mut RefEngine, &x, &token)
            .expect_err("cancelled before the first block");
        assert_eq!(err, ArithError::Cancelled { expired: false });
        // A live token is transparent: same bits as the panicking path.
        let ok = model
            .try_forward(&mut RefEngine, &x, &CancelToken::new())
            .unwrap();
        assert_eq!(ok, model.forward(&mut RefEngine, &x));
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn wrong_input_shape_panics() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 0);
        let x = MatF32::zeros(1, model.cfg.dim);
        let _ = model.forward(&mut RefEngine, &x);
    }
}
