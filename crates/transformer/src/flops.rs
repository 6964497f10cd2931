//! Analytical operation census (the inputs to Table IV), derived from the
//! architecture alone and cross-checked against the live counts of
//! [`crate::engine::MixedEngine`].

use crate::config::VitConfig;
use crate::engine::OpCensus;
use crate::vpu::{cost, fast, NonlinearMode};

/// Exact operation census of a forward pass through all encoder blocks of
/// `cfg` — the same accounting [`crate::engine::MixedEngine`] performs live
/// (in its default [`NonlinearMode::Exact`] configuration).
pub fn analytical_census(cfg: &VitConfig) -> OpCensus {
    analytical_census_mode(cfg, NonlinearMode::Exact)
}

/// The census for either nonlinear kernel family. `Fast` swaps in the
/// LUT/polynomial unit's per-element mixes ([`fast::cost`]): host
/// divisions and square roots vanish, ROM lookups appear, and the live
/// engine's counts match this *exactly* in both modes — the fast batched
/// kernels charge these very formulas.
pub fn analytical_census_mode(cfg: &VitConfig, mode: NonlinearMode) -> OpCensus {
    let s = cfg.seq as u64;
    let d = cfg.dim as u64;
    let h = cfg.heads as u64;
    let hidden = cfg.hidden() as u64;
    let depth = cfg.depth as u64;

    // GEMM MACs per block: QKV + output projections (4·S·D²), attention
    // scores and weighted sum (2·S²·D), and the MLP (2·S·D·hidden).
    let macs_per_block = 4 * s * d * d + 2 * s * s * d + 2 * s * d * hidden;

    let (sm, g, ln) = match mode {
        NonlinearMode::Exact => (cost::softmax_row(s), cost::gelu(), cost::layernorm_row(d)),
        NonlinearMode::Fast => (
            fast::cost::softmax_row(s),
            fast::cost::gelu(),
            fast::cost::layernorm_row(d),
        ),
    };
    // Softmax: one row of length S per (head, query row). GELU: every
    // element of the MLP hidden activation. LayerNorm: two per block, one
    // row of length D per token.
    let softmax = sm.times(h * s);
    let gelu = g.times(s * hidden);
    let layernorm = ln.times(2 * s);

    let mut census = OpCensus::default();
    for _ in 0..depth {
        census.matmul_macs += macs_per_block;
        census.softmax.merge(&softmax);
        census.gelu.merge(&gelu);
        census.layernorm.merge(&layernorm);
    }
    census
}

/// The numbers Table IV prints for DeiT-Small, kept verbatim so the
/// reproduction tests can show paper-vs-ours side by side.
pub mod paper_table4 {
    /// bfp8 MatMul OPs ("2465M").
    pub const BFP8_MATMUL_OPS: f64 = 2465.0e6;
    /// fp32 LayerNorm FLOPs ("6.383M").
    pub const LAYERNORM_FLOPS: f64 = 6.383e6;
    /// fp32 SoftMax FLOPs ("145.3M").
    pub const SOFTMAX_FLOPS: f64 = 145.3e6;
    /// fp32 GELU FLOPs ("50.84M").
    pub const GELU_FLOPS: f64 = 50.84e6;
    /// Latencies in milliseconds, same row order.
    pub const LATENCY_MS: [f64; 4] = [1.201, 0.425, 9.686, 3.389];
    /// Operation proportions (%), same row order.
    pub const OPS_PERCENT: [f64; 4] = [98.649, 0.043, 0.969, 0.339];
    /// Latency proportions (%).
    pub const LATENCY_PERCENT: [f64; 4] = [8.170, 2.891, 65.887, 23.053];

    /// Effective bfp8 throughput implied by the table (OPs / latency):
    /// 2465 M / 1.201 ms = 2052 GOPS — the measured system throughput.
    pub fn implied_bfp_gops() -> f64 {
        BFP8_MATMUL_OPS / (LATENCY_MS[0] * 1e-3) / 1e9
    }

    /// Effective fp32 throughput implied by each non-linear row (≈15
    /// GFLOPS for all three).
    pub fn implied_fp32_gflops() -> [f64; 3] {
        [
            LAYERNORM_FLOPS / (LATENCY_MS[1] * 1e-3) / 1e9,
            SOFTMAX_FLOPS / (LATENCY_MS[2] * 1e-3) / 1e9,
            GELU_FLOPS / (LATENCY_MS[3] * 1e-3) / 1e9,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MixedEngine;
    use crate::model::VitModel;

    #[test]
    fn analytical_census_matches_live_execution() {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 3);
        let x = model.synthetic_input(4);
        let mut e = MixedEngine::new();
        let _ = model.forward(&mut e, &x);
        let live = e.census();
        let analytic = analytical_census(&cfg);
        assert_eq!(live.matmul_macs, analytic.matmul_macs, "GEMM MACs");
        assert_eq!(live.softmax, analytic.softmax, "softmax ops");
        assert_eq!(live.gelu, analytic.gelu, "gelu ops");
        assert_eq!(live.layernorm, analytic.layernorm, "layernorm ops");
    }

    #[test]
    fn fast_analytical_census_matches_live_fast_execution() {
        use crate::vpu::NonlinearMode;
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 3);
        let x = model.synthetic_input(4);
        let mut e = MixedEngine::fast_nonlinear();
        let _ = model.forward(&mut e, &x);
        let live = e.census();
        let analytic = analytical_census_mode(&cfg, NonlinearMode::Fast);
        assert_eq!(live.softmax, analytic.softmax, "softmax ops");
        assert_eq!(live.gelu, analytic.gelu, "gelu ops");
        assert_eq!(live.layernorm, analytic.layernorm, "layernorm ops");
        // The fast unit never leaves the array and does use its ROMs.
        assert_eq!(live.host_ops(), 0);
        assert!(live.gelu.lut > 0 && live.softmax.lut > 0);
    }

    #[test]
    fn deit_small_macs_match_architecture_arithmetic() {
        let c = analytical_census(&VitConfig::deit_small());
        // 12 × (4·197·384² + 2·197²·384 + 2·197·384·1536) MACs.
        let per_block: u64 = 4 * 197 * 384 * 384 + 2 * 197 * 197 * 384 + 2 * 197 * 384 * 1536;
        assert_eq!(c.matmul_macs, 12 * per_block);
        // ≈ 4.54 G MACs ≈ 9.08 G OPs. (The paper prints 2465 M OPs for the
        // same partition; EXPERIMENTS.md discusses the discrepancy. The
        // *proportions* conclusion is insensitive to it.)
        assert!((c.matmul_macs as f64 - 4.54e9).abs() / 4.54e9 < 0.01);
    }

    #[test]
    fn fp32_fraction_is_percent_scale_for_deit_small() {
        let c = analytical_census(&VitConfig::deit_small());
        let f = c.fp32_fraction();
        // The paper reports 1.35%; our richer kernels land in the same
        // low-percent band.
        assert!(f > 0.005 && f < 0.05, "fp32 fraction {f}");
    }

    #[test]
    fn layernorm_is_the_cheapest_fp32_kind() {
        // Table IV's ordering is softmax > gelu > layernorm; with our
        // kernel decompositions GELU's tanh costs more per element than the
        // paper's (unpublished) kernel, so gelu and softmax swap while
        // LayerNorm stays firmly smallest. EXPERIMENTS.md discusses this.
        let c = analytical_census(&VitConfig::deit_small());
        assert!(c.softmax.flops() > c.layernorm.flops());
        assert!(c.gelu.flops() > c.layernorm.flops());
        // And every attention weight still costs one host division.
        assert_eq!(c.softmax.host_div, 12 * 6 * 197 * 197);
    }

    #[test]
    fn paper_implied_throughputs() {
        assert!((paper_table4::implied_bfp_gops() - 2052.46).abs() < 1.0);
        for g in paper_table4::implied_fp32_gflops() {
            assert!((g - 15.0).abs() < 0.05, "implied fp32 {g}");
        }
    }

    #[test]
    fn census_scales_linearly_with_depth() {
        let base = VitConfig::tiny_test();
        let double = VitConfig {
            depth: base.depth * 2,
            ..base
        };
        let c1 = analytical_census(&base);
        let c2 = analytical_census(&double);
        assert_eq!(c2.matmul_macs, 2 * c1.matmul_macs);
        assert_eq!(c2.softmax.flops(), 2 * c1.softmax.flops());
    }
}
