//! The paper's headline numbers, asserted as tests: if a refactor breaks a
//! reproduction target, CI catches it here. The last three tests are the
//! design ablations of EXPERIMENTS.md's "Ablations" table; run them with
//! `--nocapture` to print its rows.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_arith::stats::ErrorStats;
use bfp_core::LatencyModel;
use bfp_platform::{paper_ours_row, ArrayParams, DesignVariant, PuCostModel, System, U280};
use bfp_pu::throughput;
use bfp_transformer::{analytical_census, VitConfig};

const F300: f64 = 300.0e6;

#[test]
fn abstract_claim_2_052_tops_bfp8() {
    let sys = System::paper();
    let gops = sys.measured_bfp_gops(64);
    assert!(
        (gops - 2052.06).abs() / 2052.06 < 0.005,
        "measured {gops} GOPS"
    );
}

#[test]
fn abstract_claim_33_88_gflops_fp32() {
    let sys = System::paper();
    assert!((sys.theoretical_fp32_gflops(128) - 33.88).abs() < 0.005);
}

#[test]
fn abstract_claim_over_95_percent_of_8bit_peak() {
    // "over 95% of the theoretical maximum 8-bit throughput": Eqn. 9 at
    // N_X = 64 sustains 97.15% of the allocated arrays' peak.
    let u = throughput::bfp_throughput(64, F300) / throughput::bfp_peak_ops(F300);
    assert!(u > 0.95, "utilization {u}");
}

#[test]
fn abstract_claim_1_19x_ff_vs_int8() {
    let int8 = DesignVariant::Int8.assessed_usage();
    let bfp8 = DesignVariant::Bfp8Only.assessed_usage();
    assert_eq!(int8.dsp, bfp8.dsp, "same number of DSPs");
    assert!(
        (bfp8.ff / int8.ff - 1.19).abs() < 0.01,
        "1.19x more flip-flops"
    );
}

#[test]
fn abstract_claim_savings_vs_individual_units() {
    let multi = DesignVariant::MultiMode.assessed_usage();
    let indiv = DesignVariant::Individual.assessed_usage();
    assert!(
        (1.0 - multi.dsp / indiv.dsp - 0.200).abs() < 1e-3,
        "20.0% DSP saving"
    );
    assert!(
        (1.0 - multi.ff / indiv.ff - 0.612).abs() < 1e-3,
        "61.2% FF saving"
    );
    assert!(
        (1.0 - multi.lut / indiv.lut - 0.436).abs() < 1e-3,
        "43.6% LUT saving"
    );
}

#[test]
fn table2_unit_totals() {
    let t = PuCostModel::unit_total(Default::default());
    assert_eq!((t.lut, t.ff, t.bram, t.dsp), (7348.0, 10329.0, 57.5, 72.0));
}

#[test]
fn table3_ours_row() {
    let ours = System::paper().table3_row();
    let paper = paper_ours_row();
    assert_eq!(ours.dsp, paper.dsp, "2163 DSPs");
    assert!((ours.lut_k - paper.lut_k).abs() < 0.5);
    assert!((ours.ff_k.unwrap() - paper.ff_k.unwrap()).abs() < 0.5);
    assert!((ours.bram.unwrap() - paper.bram.unwrap()).abs() < 0.5);
    assert!((ours.gops_per_dsp() - 0.95).abs() < 0.01, "0.95 GOPS/DSP");
}

#[test]
fn section_iid_quoted_utilization_97_15_percent() {
    let ratio: f64 = 8.0 * 64.0 / (8.0 * 64.0 + 15.0);
    assert!((ratio - 0.9715).abs() < 1e-4);
    let model = throughput::bfp_throughput(64, F300) / throughput::bfp_peak_ops(F300);
    assert!((model - ratio).abs() < 1e-12);
}

#[test]
fn table4_latency_column_reproduces_from_paper_ops() {
    use bfp_transformer::flops::paper_table4 as p;
    let m = LatencyModel::paper();
    // bfp8 row: 2465M OPs / 2052.06 GOPS = 1.201 ms.
    let bfp_ms = p::BFP8_MATMUL_OPS / m.bfp_ops_per_sec * 1e3;
    assert!((bfp_ms - p::LATENCY_MS[0]).abs() < 0.001, "{bfp_ms}");
    // Non-linear rows: FLOPs / 15 GFLOPS.
    for (flops, want_ms) in [
        (p::LAYERNORM_FLOPS, p::LATENCY_MS[1]),
        (p::SOFTMAX_FLOPS, p::LATENCY_MS[2]),
        (p::GELU_FLOPS, p::LATENCY_MS[3]),
    ] {
        let ms = flops / m.fp32_flops_per_sec * 1e3;
        assert!((ms - want_ms).abs() / want_ms < 0.002, "{ms} vs {want_ms}");
    }
}

#[test]
fn table4_conclusion_fp32_dominates_latency() {
    let census = analytical_census(&VitConfig::deit_small());
    let b = LatencyModel::paper().breakdown(&census);
    // Paper: 1.35% of ops -> 92.45% of latency. Ours (richer kernels):
    // low-percent ops share, strong-majority latency share.
    assert!(b.fp32_ops_percent() < 5.0);
    assert!(b.fp32_latency_percent() > 60.0);
    assert!(b.latency_percent(0) < 35.0, "bfp8 latency share is small");
}

#[test]
fn fig7_shapes() {
    let sys = System::paper();
    // Monotone rising curves, measured under theoretical, bfp8 gap small,
    // fp32 gap large.
    let mut prev = 0.0;
    for nx in [8, 16, 32, 64] {
        let m = sys.measured_bfp_gops(nx);
        assert!(m > prev);
        assert!(m <= sys.theoretical_bfp_gops(nx));
        prev = m;
    }
    assert!(sys.measured_bfp_gops(64) / sys.theoretical_bfp_gops(64) > 0.85);
    assert!(sys.measured_fp32_gflops(128) / sys.theoretical_fp32_gflops(128) < 0.55);
}

#[test]
fn footnote_hbm_channel_budget() {
    // "Each multi-mode unit has 2 256-bit AXI channels connected to HBM":
    // 15 units x 2 = 30 channels <= the U280's 32.
    let cfg = System::paper().cfg;
    assert_eq!(cfg.units * cfg.arrays_per_unit, 30);
    assert!(cfg.units * 2 <= U280::HBM_CHANNELS);
}

/// 100 000 operand pairs, both of each pair with a magnitude in
/// `[0.25, 16)` and a random sign: the ablations' fixed sample.
fn sample_pairs() -> Vec<(f32, f32)> {
    let mut state = 0x1357_9bdfu32;
    (0..100_000)
        .map(|_| {
            let mut next = || {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                f32::from_bits(
                    0x3e80_0000u32.wrapping_add((state % 6) << 23) | ((state >> 9) & 0x7f_ffff),
                ) * if state & 1 == 0 { 1.0 } else { -1.0 }
            };
            (next(), next())
        })
        .collect()
}

/// `(max ulp, mean ulp, exact %)` as EXPERIMENTS.md prints them.
fn ulp_row(stats: &ErrorStats) -> (u64, String, String) {
    (
        stats.max_ulp,
        format!("{:.3}", stats.mean_ulp()),
        format!("{:.1}", stats.exact_fraction() * 100.0),
    )
}

#[test]
fn ablation_fp32_mul_variants() {
    // Dropping the least-significant partial product (8 rows instead of
    // 9) costs almost nothing on top of truncation; the truncating
    // normaliser is the error source, and it stays within 1 ulp.
    let pairs = sample_pairs();
    for (name, variant, round, want) in [
        (
            "exact products + truncate",
            MulVariant::Exact,
            NormRound::Truncate,
            (1, "0.500", "50.0"),
        ),
        (
            "drop LSP + truncate (paper)",
            MulVariant::DropLsp,
            NormRound::Truncate,
            (1, "0.501", "49.9"),
        ),
        (
            "exact products + RNE",
            MulVariant::Exact,
            NormRound::NearestEven,
            (0, "0.000", "100.0"),
        ),
        (
            "drop LSP + RNE",
            MulVariant::DropLsp,
            NormRound::NearestEven,
            (1, "0.001", "99.9"),
        ),
    ] {
        let m = HwFp32Mul { variant, round };
        let mut stats = ErrorStats::new();
        for &(x, y) in &pairs {
            stats.push(m.mul(x, y), x * y);
        }
        println!("ablation fp32 mul, {name}: {stats}");
        let (max_ulp, mean, exact) = ulp_row(&stats);
        assert_eq!((max_ulp, mean.as_str(), exact.as_str()), want, "{name}");
    }
}

#[test]
fn ablation_fp32_add_variants() {
    // The 48-bit PSU/ACC window keeps fp32 add within 1 ulp; a literal
    // 24-bit Eqn. 6 alignment loses up to 128 ulp under cancellation.
    let pairs = sample_pairs();
    for (name, variant, want) in [
        (
            "48-bit align (paper datapath)",
            AddVariant::Exact48,
            (1, "0.230", "77.0"),
        ),
        (
            "literal 24-bit Eqn. 6",
            AddVariant::Truncate24,
            (128, "0.609", "54.5"),
        ),
    ] {
        let a = HwFp32Add::new(variant);
        let mut stats = ErrorStats::new();
        for &(x, y) in &pairs {
            stats.push(a.add(x, y), x + y);
        }
        println!("ablation fp32 add, {name}: {stats}");
        let (max_ulp, mean, exact) = ulp_row(&stats);
        assert_eq!((max_ulp, mean.as_str(), exact.as_str()), want, "{name}");
    }
}

#[test]
fn ablation_block_size() {
    // Outlier-structured 128x128 input: 8x8 keeps 4x4's SQNR at 3.6x its
    // DSP count, 16x16 loses 4.6 dB. The modelled unit is the array that
    // matches the block.
    let m = MatF32::from_fn(128, 128, |i, j| {
        let base = ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5;
        if (i / 8 + j / 8) % 7 == 0 {
            base * 50.0
        } else {
            base
        }
    });
    for (block, want_sqnr, want_unit) in [
        (4usize, "45.78", (5426.0, 8211.0, 32.5, 20.0)),
        (8, "45.77", (7348.0, 10329.0, 57.5, 72.0)),
        (16, "41.14", (13167.0, 16869.0, 107.5, 272.0)),
    ] {
        let sqnr = Quantizer::with_block(block)
            .quantize(&m)
            .unwrap()
            .fidelity(&m)
            .sqnr_db();
        let unit = PuCostModel::unit_total(ArrayParams {
            rows: block,
            cols: block,
        });
        println!("ablation block {block}x{block}: SQNR {sqnr:.2} dB | modelled unit: {unit}");
        assert_eq!(format!("{sqnr:.2}"), want_sqnr, "{block}x{block}");
        assert_eq!(
            (unit.lut.round(), unit.ff.round(), unit.bram, unit.dsp),
            want_unit,
            "{block}x{block}"
        );
    }
}
