//! Bridge between the live VPU op census (`bfp_transformer::OpCount`)
//! and the platform's nonlinear-unit pricing (`bfp_platform::nonlinear`),
//! plus the cycle cross-check tying the two together.
//!
//! The transformer crate counts what the simulated kernels *did*; the
//! platform crate prices what a hardware op mix *costs*. This module is
//! the only place the two vocabularies meet: [`op_mix`] converts field
//! for field, and [`nonlinear_cycles`] prices a whole census the way the
//! latency model prices GEMMs. The tests pin the invariant that makes
//! the telemetry counters trustworthy: pricing the *analytical* census
//! equals pricing the *measured* one, in both nonlinear modes.

use bfp_platform::nonlinear::{NonlinearUnit, VpuOpMix};
use bfp_transformer::{OpCensus, OpCount};

/// Convert a live VPU op count into the platform's pricing vocabulary.
pub fn op_mix(count: &OpCount) -> VpuOpMix {
    VpuOpMix {
        fp_mul: count.fp_mul,
        fp_add: count.fp_add,
        exp_adjust: count.exp_adjust,
        cmp: count.cmp,
        lut: count.lut,
        host_div: count.host_div,
        host_sqrt: count.host_sqrt,
    }
}

/// Total nonlinear-unit cycles to drain a census's softmax + GELU +
/// LayerNorm work on `unit`. The three kinds run back to back (they are
/// separated by GEMMs in the model graph, so their pipelines cannot
/// overlap each other).
pub fn nonlinear_cycles(unit: &NonlinearUnit, census: &OpCensus) -> f64 {
    unit.cycles(&op_mix(&census.softmax))
        + unit.cycles(&op_mix(&census.gelu))
        + unit.cycles(&op_mix(&census.layernorm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_transformer::{
        analytical_census_mode, MixedEngine, NonlinearMode, VitConfig, VitModel,
    };

    fn live_census(mode: NonlinearMode) -> OpCensus {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 3);
        let x = model.synthetic_input(4);
        let mut e = MixedEngine::new().with_nonlinear(mode);
        let _ = model.forward(&mut e, &x);
        e.census()
    }

    #[test]
    fn conversion_is_field_for_field() {
        let c = OpCount {
            fp_mul: 1,
            fp_add: 2,
            exp_adjust: 3,
            cmp: 4,
            lut: 5,
            host_div: 6,
            host_sqrt: 7,
        };
        let m = op_mix(&c);
        assert_eq!(
            (m.fp_mul, m.fp_add, m.exp_adjust, m.cmp, m.lut),
            (1, 2, 3, 4, 5)
        );
        assert_eq!((m.host_div, m.host_sqrt), (6, 7));
    }

    #[test]
    fn modelled_cycles_match_between_analytical_and_live_census() {
        // The cross-check that keeps the engine's fast-op-mix telemetry
        // honest: the cycle model sees identical mixes whether fed the
        // closed-form census or the one the engine actually counted.
        let unit = NonlinearUnit::recommended();
        let cfg = VitConfig::tiny_test();
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let analytic = analytical_census_mode(&cfg, mode);
            let live = live_census(mode);
            let ca = nonlinear_cycles(&unit, &analytic);
            let cl = nonlinear_cycles(&unit, &live);
            assert_eq!(ca, cl, "mode {mode:?}: {ca} vs {cl}");
            assert!(ca > 0.0);
        }
    }

    #[test]
    fn fast_mode_prices_far_below_exact_mode() {
        // Exact-mode softmax ships one host division per attention
        // weight; fast mode never leaves the array. The priced gap is the
        // hardware argument for the fast unit.
        let unit = NonlinearUnit::recommended();
        let cfg = VitConfig::tiny_test();
        let exact = analytical_census_mode(&cfg, NonlinearMode::Exact);
        let fast = analytical_census_mode(&cfg, NonlinearMode::Fast);
        let (ce, cf) = (
            nonlinear_cycles(&unit, &exact),
            nonlinear_cycles(&unit, &fast),
        );
        assert!(
            ce > 50.0 * cf,
            "host round-trips dominate exact mode: {ce} vs {cf}"
        );
        assert_eq!(fast.host_ops(), 0);
    }
}
