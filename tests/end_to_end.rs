//! Cross-crate integration: the same GEMM computed along every path the
//! repository offers must agree bit-for-bit, and the full accelerator
//! pipeline must hold its fidelity and accounting invariants.

use bfp_core::prelude::*;
use bfp_core::{compile_gemm, Accelerator};
use bfp_pu::isa::Interpreter;
use bfp_pu::unit::{grid_from_matrix, Fidelity, UnitConfig};
use bfp_transformer::{Datapath, Engine, MixedEngine};

fn smooth(rows: usize, cols: usize, phase: f32) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        ((i as f32 * 0.19 + j as f32 * 0.41 + phase).sin()) * 1.5
    })
}

/// Every execution path — functional block matmul, single-unit controller,
/// stepped DSP-clock simulation, ISA program, and the 30-array parallel
/// card — produces the *identical* f32 output.
#[test]
fn five_execution_paths_agree_bitwise() {
    let a = smooth(40, 24, 0.0);
    let b = smooth(24, 32, 1.0);
    let q = Quantizer::paper();
    let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());

    // Path 1: functional blocked matmul.
    let p1 = qa.matmul(&qb);

    // Path 2: single processing unit, functional fidelity.
    let mut unit = ProcessingUnit::default();
    let grid = unit.matmul_grid(&grid_from_matrix(&qa), &grid_from_matrix(&qb));
    let p2 = MatF32::from_fn(40, 32, |i, j| {
        let w = &grid[i / 8][j / 8];
        (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32
    });

    // Path 3: stepped (per-DSP-clock) simulation.
    let mut unit = ProcessingUnit::new(UnitConfig {
        fidelity: Fidelity::Stepped,
        ..Default::default()
    });
    let grid = unit.matmul_grid(&grid_from_matrix(&qa), &grid_from_matrix(&qb));
    let p3 = MatF32::from_fn(40, 32, |i, j| {
        let w = &grid[i / 8][j / 8];
        (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32
    });

    // Path 4: compiled ISA program through the interpreter.
    let compiled = compile_gemm(&a, &b);
    let mut env = compiled.env.clone();
    let res = Interpreter::new(ProcessingUnit::default()).run(&compiled.program, &mut env);
    let p4 = compiled.assemble(&res.drained);

    // Path 5: the parallel card.
    let (p5, _) = System::paper().matmul_f32(&a, &b);

    assert_eq!(p1, p2, "functional vs unit");
    assert_eq!(p2, p3, "functional vs stepped");
    assert_eq!(p3, p4, "stepped vs compiled ISA");
    assert_eq!(p4, p5, "ISA vs parallel card");
}

#[test]
fn mixed_engine_matmul_equals_unit_matmul() {
    // The transformer engine and the PU controller share one datapath.
    let a = smooth(16, 40, 2.0);
    let b = smooth(40, 16, 3.0);
    let mut engine = MixedEngine::new();
    let from_engine = engine.matmul(&a, &b);

    let q = Quantizer::paper();
    let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
    assert_eq!(from_engine, qa.matmul(&qb));
}

#[test]
fn accelerator_inference_is_deterministic_and_accounted() {
    let acc = Accelerator::u280();
    let model = VitModel::new_random(VitConfig::tiny_test(), 99);
    let x = model.synthetic_input(5);
    let (out1, rep1) = acc.infer(&model, &x);
    let (out2, rep2) = acc.infer(&model, &x);
    assert_eq!(out1, out2, "simulation must be deterministic");
    assert_eq!(rep1.census, rep2.census);
    // Census cross-checks the analytical model.
    let analytic = bfp_transformer::analytical_census(&model.cfg);
    assert_eq!(rep1.census.matmul_macs, analytic.matmul_macs);
    assert_eq!(rep1.census.softmax, analytic.softmax);
}

#[test]
fn gemm_report_throughput_is_bounded_by_peak() {
    let acc = Accelerator::u280();
    let a = smooth(512, 128, 0.5);
    let b = smooth(128, 256, 1.5);
    let (_, report) = acc.gemm(&a, &b);
    let peak = 30.0 * 76.8; // 30 arrays x Eqn. 7 peak
    assert!(report.gops() > 0.0);
    assert!(
        report.gops() < peak,
        "measured {} must stay under peak {peak}",
        report.gops()
    );
}

#[test]
fn fp32_streams_on_unit_match_vpu_scalars() {
    // The unit's vector mode and the VPU's scalar ops share the multiplier.
    let xs: Vec<f32> = (0..97).map(|k| (k as f32 * 0.21).sin() * 3.0).collect();
    let ys: Vec<f32> = (0..97).map(|k| (k as f32 * 0.17).cos() * 2.0).collect();
    let mut unit = ProcessingUnit::default();
    let stream = unit.fp_mul_stream(&xs, &ys);
    let mut vpu = bfp_transformer::Vpu::new();
    for k in 0..97 {
        assert_eq!(
            stream[k].to_bits(),
            vpu.mul(xs[k], ys[k]).to_bits(),
            "element {k}"
        );
    }
}
