//! Integration tests for the beyond-the-paper extensions (DESIGN.md's
//! extension inventory): each one exercised across crate boundaries.

use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_arith::stats::ErrorStats;
use bfp_platform::{bfp8_pass_intensity, fp32_stream_intensity, Roofline, System};
use bfp_pu::trace::trace_pass;
use bfp_transformer::{
    DeitConfig, DeitModel, Image, Int8Engine, MixedEngine, RefEngine, VitConfig, VitModel,
};

#[test]
fn full_deit_pipeline_on_the_accelerator() {
    // image -> patches -> bfp8 GEMMs -> VPU non-linearities -> logits.
    let cfg = DeitConfig::tiny_test();
    let model = DeitModel::new_random(cfg, 5);
    let img = Image::synthetic(3, cfg.img, cfg.img, 2);
    let mut mixed = MixedEngine::new();
    let logits = model.forward(&mut mixed, &img);
    assert_eq!(logits.len(), cfg.classes);
    let census = mixed.take_census();
    assert!(census.matmul_macs > 0);
    assert!(
        census.softmax.host_div > 0,
        "prototype softmax divides on the host"
    );
}

#[test]
fn three_engines_rank_as_the_paper_argues() {
    // fp32 reference > bfp8 mixed ≈ close; per-tensor int8 trails on
    // outlier-heavy models.
    let mut model = VitModel::new_random(VitConfig::tiny_test(), 13);
    for blk in &mut model.blocks {
        let w = blk.fc1.w_mut();
        for i in 0..w.rows() {
            for j in (0..w.cols()).step_by(17) {
                let v = w.get(i, j);
                w.set(i, j, v * 24.0);
            }
        }
    }
    let x = model.synthetic_input(3);
    let want = model.forward(&mut RefEngine, &x);
    let sqnr = |got: &MatF32| {
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        s.sqnr_db()
    };
    let bfp = sqnr(&model.forward(&mut MixedEngine::new(), &x));
    let int8 = sqnr(&model.forward(&mut Int8Engine::new(), &x));
    assert!(bfp > int8, "bfp8 {bfp:.1} dB vs int8 {int8:.1} dB");
}

#[test]
fn host_free_inference_through_the_accelerator_stack() {
    let model = VitModel::new_random(VitConfig::tiny_test(), 8);
    let x = model.synthetic_input(1);
    let mut chip = MixedEngine::host_free();
    let _ = model.forward(&mut chip, &x);
    assert_eq!(chip.take_census().host_ops(), 0);
}

#[test]
fn requantized_chain_matches_reference_shape() {
    // (A·B)·C with the on-chip requantizer between layers.
    let a = MatF32::from_fn(24, 16, |i, j| ((i + j) as f32 * 0.1).sin());
    let b = MatF32::from_fn(16, 24, |i, j| ((i * 2 + j) as f32 * 0.07).cos());
    let c = MatF32::from_fn(24, 8, |i, j| ((i as f32 - j as f32) * 0.05).sin());
    let q = Quantizer::paper();
    let chained = q
        .quantize(&a)
        .unwrap()
        .matmul_requant(&q.quantize(&b).unwrap())
        .matmul(&q.quantize(&c).unwrap());
    let want = a.matmul(&b).matmul(&c);
    let mut s = ErrorStats::new();
    s.push_slices(chained.data(), want.data());
    assert!(s.sqnr_db() > 20.0, "{s}");
}

#[test]
fn roofline_agrees_with_the_memory_model_regime() {
    // The roofline's verdicts (bfp8 compute bound, fp32 memory bound)
    // must match what the calibrated HBM model measures.
    let sys = System::paper();
    let rb = Roofline::bfp8(sys.cfg, sys.freq_hz);
    let rf = Roofline::fp32(sys.cfg, sys.freq_hz);
    // bfp8: measured within 15% of compute peak at Nx=64.
    let bfp_meas = sys.measured_bfp_gops(64) * 1e9;
    assert!(bfp_meas > 0.85 * rb.attainable(bfp8_pass_intensity(64)));
    // fp32: measured well below the compute peak, consistent with a
    // memory-bound mode.
    let fp_meas = sys.measured_fp32_gflops(128) * 1e9;
    assert!(fp_meas < 0.5 * rf.peak_ops_per_sec);
    assert!(fp_meas <= rf.attainable(fp32_stream_intensity()) * 4.0);
}

#[test]
fn trace_outputs_agree_with_the_untraced_pass() {
    use bfp_arith::bfp::BfpBlock;
    use bfp_pu::array::{stream_pass, SystolicArray};
    let x = BfpBlock {
        exp: 0,
        man: [[3; 8]; 8],
    };
    let y = BfpBlock {
        exp: 0,
        man: [[-2; 8]; 8],
    };
    let trace = trace_pass(&y, &y, &[x]);
    let mut arr = SystolicArray::new();
    arr.load_y(&y, &y);
    let (res, cycles) = stream_pass(&mut arr, &[x]);
    assert_eq!(trace.cycles.len() as u64, cycles);
    // Z[i][c] appears at the bottom of column c at cycle i + 7 + c:
    // Z[7][7] lands at cycle 21 (and is overwritten by drain zeros after).
    let want = res[0].0[7][7];
    let got = trace.cycles[21].bottom[7].lane1;
    assert_eq!(got, want);
}
