//! Compiled execution plans for the transformer block.
//!
//! The core crate's planner (`bfp_core::planner`) pattern-matches the
//! lowered graph IR and decides, per node, whether a GEMM should carry a
//! fused epilogue (bias, bias+GELU, bias+residual) and whether a group of
//! GEMMs sharing one normalized activation should share a single packed
//! LHS. The transformer crate cannot depend on `bfp-core` (the dependency
//! points the other way), so the engine consumes the planner's verdict in
//! this distilled form: a [`CompiledVitPlan`] that either fuses every
//! pattern the arithmetic layer proves bit-exact or fuses nothing. Every
//! block in a ViT/DeiT tower has the same shape, so the plan is uniform
//! across blocks; the per-node fused/standalone record stays with the
//! planner's `FusePlan` and is bridged into drift attribution by
//! `bfp_core::attribute_plan_drift`.
//!
//! The block is written once, in `Block::forward`, against the engine's
//! `linears` / `linear_gelu` / `linear_residual` ops. A fusing plan on
//! [`MixedEngine`](crate::MixedEngine) makes those three ops run the fused
//! kernels in `bfp_arith::packed`; without one they run their composed
//! defaults, the bit-identity oracle. A plan decides which kernels run,
//! never where a weight's pack comes from: both borrow it from the
//! `Linear` that owns it.

/// The planner's verdict for one transformer block, uniform across the
/// tower: [`CompiledVitPlan::fuse_all`] runs the six projection GEMMs of a
/// block through fused drains over a shared q/k/v pack;
/// [`CompiledVitPlan::unfused`] is exactly a plan-less engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledVitPlan {
    fused: bool,
}

impl CompiledVitPlan {
    /// Every fusion the arithmetic layer supports: q/k/v bias drains over
    /// one shared packed LHS, `wo` and `fc2` bias+residual drains, the
    /// `fc1` bias+GELU drain. This is what the core planner emits for
    /// DeiT shapes.
    pub fn fuse_all() -> Self {
        Self { fused: true }
    }

    /// A plan that fuses nothing: every op runs its composed default.
    pub fn unfused() -> Self {
        Self { fused: false }
    }

    /// Whether the engine's block ops run the fused kernels.
    pub(crate) fn fuses(self) -> bool {
        self.fused
    }

    /// Number of GEMMs per block the plan runs through a fused kernel
    /// (fusion "hits" on a clean run). The per-head score/context GEMMs
    /// are never fused and count as neither hit nor miss.
    pub fn fused_gemms_per_block(&self) -> u64 {
        if self.fused {
            6
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_all_counts_six_fused_gemms() {
        assert_eq!(CompiledVitPlan::fuse_all().fused_gemms_per_block(), 6);
        assert_eq!(CompiledVitPlan::unfused().fused_gemms_per_block(), 0);
    }
}
