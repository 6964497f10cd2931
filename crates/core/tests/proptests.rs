//! Property tests for the compiler and scheduler layers.

use bfp_arith::matrix::MatF32;
use bfp_core::{compile_gemm, lower_vit, schedule};
use bfp_platform::{System, SystemConfig};
use bfp_pu::isa::Interpreter;
use bfp_pu::unit::ProcessingUnit;
use bfp_transformer::VitConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compiled_gemm_equals_reference_for_integer_inputs(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0usize..50,
    ) {
        let a = MatF32::from_fn(m, k, |i, j| (((i * 3 + j * 7 + seed) % 15) as f32) - 7.0);
        let b = MatF32::from_fn(k, n, |i, j| (((i * 11 + j + seed) % 13) as f32) - 6.0);
        let c = compile_gemm(&a, &b);
        let mut env = c.env.clone();
        let res = Interpreter::new(ProcessingUnit::default()).run(&c.program, &mut env);
        prop_assert_eq!(c.assemble(&res.drained), a.matmul(&b));
    }

    #[test]
    fn schedule_invariants_hold_for_random_configs(
        dim_mult in 1usize..6,
        depth in 1usize..6,
        heads in 1usize..4,
        seq in 4usize..64,
        arrays in 1usize..16,
    ) {
        let cfg = VitConfig {
            dim: 16 * dim_mult * heads,
            depth,
            heads,
            mlp_ratio: 4,
            seq,
        };
        prop_assume!(cfg.validate().is_ok());
        let g = lower_vit(&cfg);
        prop_assert!(g.is_topological());
        let sys = System {
            cfg: SystemConfig { units: arrays, arrays_per_unit: 1 },
            ..System::paper()
        };
        let s = schedule(&g, &sys);
        prop_assert!(s.makespan_cycles > 0.0);
        prop_assert!(s.makespan_cycles <= s.serial_cycles + s.switch_cycles + 1e-6);
        prop_assert!(s.speedup() <= arrays as f64 + 1e-9);
        // Level cycle totals plus switches reconstruct the makespan.
        let level_sum: f64 = s.levels.iter().map(|l| l.cycles).sum();
        prop_assert!((level_sum + s.switch_cycles - s.makespan_cycles).abs() < 1e-6);
    }
}
