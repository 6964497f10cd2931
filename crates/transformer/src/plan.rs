//! Compiled execution plans for the transformer block.
//!
//! The core crate's planner (`bfp_core::planner`) pattern-matches the
//! lowered graph IR and decides, per node, whether a GEMM should carry a
//! fused epilogue (bias, bias+GELU, bias+residual) and whether a group of
//! GEMMs sharing one normalized activation should share a single packed
//! LHS. The transformer crate cannot depend on `bfp-core` (the dependency
//! points the other way), so the engine consumes the planner's verdict in
//! this distilled form: a [`CompiledVitPlan`] of four per-pattern switches.
//! Every block in a ViT/DeiT tower has the same shape, so the plan is
//! uniform across blocks; the per-node fused/standalone record stays with
//! the planner's `FusePlan` and is bridged into bench output by the e2e
//! harness.
//!
//! Installing a plan on [`MixedEngine`](crate::MixedEngine) reroutes
//! `Block::forward` through the fused kernels in `bfp_arith::packed`;
//! the hand-wired path stays untouched and serves as the bit-identity
//! oracle. A plan decides which kernels run, never where a weight's pack
//! comes from: both paths borrow it from the `Linear` that owns it.

/// Per-pattern fusion switches for one transformer block, uniform across
/// the tower. All-off ([`CompiledVitPlan::unfused`]) routes every operator
/// through the composed quantize→pack→GEMM→VPU passes (bit-identical to
/// the hand-wired path by construction — it *is* the hand-wired sequence,
/// driven from the planner loop); all-on ([`CompiledVitPlan::fuse_all`])
/// enables every fused kernel the arithmetic layer proves bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledVitPlan {
    /// Quantize-pack the post-LN1 activation once and feed the same
    /// `PackedBfp` to the q/k/v projections, each with a fused bias
    /// epilogue (kills two of the three identical LHS packs).
    pub fuse_qkv: bool,
    /// Fold the attention-output projection's bias add and the first
    /// residual add into the GEMM drain.
    pub fuse_wo_residual: bool,
    /// Fold bias+GELU into the fc1 GEMM drain while the output tile is
    /// hot. The drain writes f32 and fc2 quantize-packs it: the planner's
    /// `BiasGeluRequant` prices the paper's on-chip converter on the FPGA
    /// clock, and the host runs the same edge as drain → lane quantiser.
    pub fuse_fc1_gelu: bool,
    /// Fold fc2's bias add and the second residual add into its GEMM
    /// drain.
    pub fuse_fc2_residual: bool,
}

impl CompiledVitPlan {
    /// Every fusion the arithmetic layer supports. This is what the core
    /// planner emits for DeiT shapes.
    pub fn fuse_all() -> Self {
        Self {
            fuse_qkv: true,
            fuse_wo_residual: true,
            fuse_fc1_gelu: true,
            fuse_fc2_residual: true,
        }
    }

    /// A plan that fuses nothing: the planner loop drives the composed
    /// passes. Useful as the A in fused-vs-unfused A/B runs.
    pub fn unfused() -> Self {
        Self {
            fuse_qkv: false,
            fuse_wo_residual: false,
            fuse_fc1_gelu: false,
            fuse_fc2_residual: false,
        }
    }

    /// Number of GEMMs per block expected to run through a fused kernel
    /// under this plan (fusion "hits"); the per-head score/context GEMMs
    /// always run composed and count as misses.
    pub fn fused_gemms_per_block(&self) -> u64 {
        let mut n = 0;
        if self.fuse_qkv {
            n += 3;
        }
        if self.fuse_wo_residual {
            n += 1;
        }
        if self.fuse_fc1_gelu {
            n += 1;
        }
        if self.fuse_fc2_residual {
            n += 1;
        }
        n
    }
}

impl Default for CompiledVitPlan {
    fn default() -> Self {
        Self::fuse_all()
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

    #[test]
    fn default_is_fuse_all() {
        assert_eq!(CompiledVitPlan::default(), CompiledVitPlan::fuse_all());
    }
}
