//! The paper's evaluation and this repository's extension studies, as
//! tests: each one computes a table or figure, prints it, and asserts the
//! numbers the docs quote in the form they are printed, so a refactor that
//! moves a reproduced number fails here. Print every table with
//!
//! ```sh
//! cargo test --release --test repro_numbers -- --nocapture --test-threads 1
//! ```
//!
//! or one group by name filter: `table1`…`table4`, `fig6`, `fig7`,
//! `ablation` (EXPERIMENTS.md's "Ablations" table) and `extension`
//! (its "Extension results").

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::{Quantizer, RoundMode};
use bfp_arith::redfp::RedFp;
use bfp_arith::softfp::SoftFp32;
use bfp_arith::stats::ErrorStats;
use bfp_arith::{BfpBlock, Int8Tensor};
use bfp_core::{fmt_si, lower_vit, schedule, LatencyModel, Table};
use bfp_platform::{
    paper_ours_row, prior_works, ArrayParams, DesignVariant, PuCostModel, RelatedWork, ResourceVec,
    System, U280,
};
use bfp_pu::throughput;
use bfp_pu::unit::ProcessingUnit;
use bfp_transformer::{
    analytical_census, reference, Datapath, MixedEngine, RefEngine, VitConfig, VitModel, Vpu,
};

const F300: f64 = 300.0e6;

/// Prints `rows` as a table under `|`-separated column `headers`.
fn print_table<R: AsRef<[String]>>(title: &str, headers: &str, rows: &[R]) {
    let mut t = Table::new(title, &headers.split('|').collect::<Vec<_>>());
    for row in rows {
        t.row(row.as_ref());
    }
    print!("{}", t.render());
}

/// Largest `|got - want|` over two equally long slices.
fn max_abs_err(got: &[f32], want: &[f32]) -> f32 {
    got.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0f32, f32::max)
}

#[test]
fn abstract_claim_2_052_tops_bfp8() {
    let sys = System::paper();
    let gops = sys.measured_bfp_gops(64);
    assert_eq!(format!("{gops:.2}"), "2051.99");
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
fn section_iid_quoted_utilization_97_15_percent() {
    let ratio: f64 = 8.0 * 64.0 / (8.0 * 64.0 + 15.0);
    assert!((ratio - 0.9715).abs() < 1e-4);
    let model = throughput::bfp_throughput(64, F300) / throughput::bfp_peak_ops(F300);
    assert!((model - ratio).abs() < 1e-12);
}

#[test]
fn footnote_hbm_channel_budget() {
    // "Each multi-mode unit has 2 256-bit AXI channels connected to HBM":
    // 15 units x 2 = 30 channels <= the U280's 32.
    let cfg = System::paper().cfg;
    assert_eq!(cfg.units * cfg.arrays_per_unit, 30);
    assert!(cfg.units * 2 <= U280::HBM_CHANNELS);
}

#[test]
fn table1_shared_basic_ops() {
    // Each basic operation of the table, exercised on the datapath models.
    let (x, y) = (1.618034f32, -2.714282f32);
    let pps = HwFp32Mul::partial_products(SoftFp32::unpack(x), SoftFp32::unpack(y));
    let shifts: Vec<_> = pps.iter().map(|p| p.shift).collect();
    let product = HwFp32Mul::new(MulVariant::DropLsp).mul(x, y);
    println!(
        "fp32 mul decomposes into {} int8 partial products (shifts {shifts:?});\n\
         the 8-row array retains 8 of them: {x:.6} x {y:.6} = {product:.6}",
        pps.len()
    );
    assert_eq!(shifts, [0, 8, 8, 16, 16, 16, 24, 24, 32]);
    assert_eq!(format!("{product:.6}"), "-4.391800");

    let a = BfpBlock {
        exp: 2,
        man: [[3; 8]; 8],
    };
    let b = BfpBlock {
        exp: -1,
        man: [[5; 8]; 8],
    };
    let prod = a.matmul(&b);
    let sum = a.add(&b);
    println!(
        "bfp8 MatMul: exp {} + {} = {}; 8x8x8 int8 MACs -> wide mantissa {}",
        a.exp, b.exp, prod.exp, prod.man[0][0]
    );
    println!(
        "bfp8 add:    align shift {} -> mantissa {} at exp {}\n",
        a.exp - b.exp,
        sum.man[0][0],
        sum.exp
    );
    assert_eq!((prod.exp, prod.man[0][0]), (1, 120));
    assert_eq!((sum.exp, sum.man[0][0]), (2, 3));

    let mut t = Table::new(
        "Table I: Shared Basic Operations Between bfp8 and fp32",
        &["Basic Operation", "bfp8 MatMul", "fp32 mul", "fp32 add"],
    );
    t.row_str(&["8-bit MAC", "yes", "yes", "-"]);
    t.row_str(&["Align & shift", "yes", "-", "yes"]);
    t.row_str(&["Partial sum add", "yes", "yes", "-"]);
    t.row_str(&["Mantissa add", "-", "-", "yes"]);
    t.row_str(&["Normalize", "yes", "yes", "yes"]);
    print!("{}", t.render());
}

/// The fp32 layout converter's part of Table II's "Buffer & Layout
/// Converter" row, as (LUT, FF); the buffers' BRAM wrappers take the rest
/// of its LUTs. With the controller it is what a pure-bfp8 unit would not
/// need.
const LAYOUT_CONVERTER_LUT_FF: (f64, f64) = (300.0, 764.0);

#[test]
fn table2_unit_totals() {
    let components = PuCostModel::components(Default::default());
    let t = PuCostModel::unit_total(Default::default());
    let row = |name: &str, u: ResourceVec| {
        [
            name.to_string(),
            format!("{:.0}", u.lut),
            format!("{:.0}", u.ff),
            format!("{:.1}", u.bram),
            format!("{:.0}", u.dsp),
        ]
    };
    let mut rows: Vec<_> = components.iter().map(|c| row(c.name, c.usage)).collect();
    rows.push(row("Total", t));
    print_table(
        "Table II (modelled): one processing unit with support modules",
        "Component|LUT|FF|BRAM|DSP",
        &rows,
    );
    assert_eq!((t.lut, t.ff, t.bram, t.dsp), (7348.0, 10329.0, 57.5, 72.0));

    // Multi-mode overhead relative to the unit (paper: 10.23% LUT,
    // 11.77% FF).
    let ctrl = components
        .iter()
        .find(|c| c.name == "Controller")
        .expect("Table II has a Controller row")
        .usage;
    let (conv_lut, conv_ff) = LAYOUT_CONVERTER_LUT_FF;
    let lut = format!("{:.2}", 100.0 * (conv_lut + ctrl.lut) / t.lut);
    let ff = format!("{:.2}", 100.0 * (conv_ff + ctrl.ff) / t.ff);
    println!("multi-mode overhead modules: {lut}% LUT, {ff}% FF");
    assert_eq!((lut.as_str(), ff.as_str()), ("10.23", "11.77"));
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

/// Prints both panels of Fig. 6; the two `abstract_claim_*` tests above
/// gate the ratios the abstract quotes from it.
#[test]
fn fig6_design_variants() {
    let int8 = DesignVariant::Int8.assessed_usage();
    let bfp8 = DesignVariant::Bfp8Only.assessed_usage();
    let multi = DesignVariant::MultiMode.assessed_usage();
    let cells = |v: DesignVariant, u: ResourceVec, prec: usize, unit: &str| {
        let [lut, ff, dsp] = [u.lut, u.ff, u.dsp].map(|x| format!("{x:.prec$}{unit}"));
        [v.name().to_string(), lut, ff, dsp]
    };
    let abs = DesignVariant::ALL.map(|v| cells(v, v.assessed_usage(), 0, ""));
    let norm =
        DesignVariant::ALL.map(|v| cells(v, v.assessed_usage().normalized_to(&int8), 2, "x"));
    print_table("Fig. 6, absolute (modelled)", "Design|LUT|FF|DSP", &abs);
    print_table(
        "Fig. 6, normalised to int8 (the y-axis)",
        "Design|LUT|FF|DSP",
        &norm,
    );
    assert_eq!(format!("{:.2}", multi.lut / bfp8.lut), "2.94");
}

#[test]
fn fig7_shapes() {
    let sys = System::paper();
    let row = |x: usize, cycles: u64, theo: f64, meas: f64, prec: usize| {
        [
            x.to_string(),
            cycles.to_string(),
            format!("{theo:.prec$}"),
            format!("{meas:.prec$}"),
            format!("{:.0}%", 100.0 * meas / theo),
        ]
    };
    let left = [8usize, 16, 32, 64].map(|nx| {
        // One Y-stationary pass, cycle by cycle: Eqn. 9's count.
        let mut unit = ProcessingUnit::default();
        let xs = vec![
            BfpBlock {
                exp: 0,
                man: [[1; 8]; 8]
            };
            nx
        ];
        unit.load_y_pair(&xs[0], &xs[0]);
        unit.stream_x(&xs);
        let cycles = unit.stats().cycles;
        assert_eq!(cycles, throughput::bfp_pass_cycles(nx), "Eqn. 9, N_X {nx}");
        let (theo, meas) = (sys.theoretical_bfp_gops(nx), sys.measured_bfp_gops(nx));
        row(nx, cycles, theo, meas, 1)
    });
    let header = "compute cycles (sim)|theoretical|measured|ratio";
    print_table(
        "Fig. 7 left: bfp8 MatMul, GOPS",
        &format!("N_X|{header}"),
        &left,
    );
    assert_eq!(
        left,
        [
            ["8", "79", "1866.5", "1183.4", "63%"],
            ["16", "143", "2062.3", "1560.9", "76%"],
            ["32", "271", "2176.5", "1857.2", "85%"],
            ["64", "527", "2238.4", "2052.0", "92%"],
        ]
    );

    let right = [8usize, 16, 32, 64, 128].map(|l| {
        // One burst on one lane set, cycle by cycle: Eqn. 10's count.
        let mut unit = ProcessingUnit::default();
        let xs = vec![1.5f32; 4 * l];
        let _ = unit.fp_mul_stream(&xs, &xs);
        let cycles = unit.stats().cycles;
        assert_eq!(cycles, throughput::fp32_burst_cycles(l), "Eqn. 10, L {l}");
        let (theo, meas) = (sys.theoretical_fp32_gflops(l), sys.measured_fp32_gflops(l));
        row(l, cycles, theo, meas, 2)
    });
    print_table(
        "Fig. 7 right: fp32 mul, GFLOPS",
        &format!("L_fp|{header}"),
        &right,
    );
    assert_eq!(
        right,
        [
            ["8", "16", "18.00", "4.90", "27%"],
            ["16", "24", "24.00", "8.62", "36%"],
            ["32", "40", "28.80", "13.91", "48%"],
            ["64", "72", "32.00", "14.62", "46%"],
            ["128", "136", "33.88", "15.00", "44%"],
        ]
    );

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

/// One Table III row as the paper prints it; GOPS/DSP is recomputed.
fn related_cells(r: &RelatedWork) -> Vec<String> {
    let opt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.1}"));
    vec![
        r.work.to_string(),
        r.data_format.to_string(),
        r.application.to_string(),
        if r.needs_retraining { "Yes" } else { "No" }.to_string(),
        r.platform.to_string(),
        format!("{:.1}", r.lut_k),
        opt(r.ff_k),
        opt(r.bram),
        r.dsp.to_string(),
        r.freq_mhz.to_string(),
        format!("{:.2}", r.gops),
        format!("{:.2}", r.gops_per_dsp()),
    ]
}

#[test]
fn table3_ours_row() {
    let ours = System::paper().table3_row();
    let prior = prior_works();
    let rows: Vec<_> = prior.iter().chain([&ours]).map(related_cells).collect();
    print_table(
        "Table III (prior rows as published; ours computed by the model)",
        "Work|Format|Application|Retrain|Platform|LUT(k)|FF(k)|BRAM|DSP|MHz|GOPS|GOPS/DSP",
        &rows,
    );
    assert_eq!(
        related_cells(&ours)[5..],
        ["410.6", "602.7", "1353.0", "2163", "300", "2051.99", "0.95"]
    );
    // Two printed prior efficiencies disagree with their own rows' quotient
    // (1.24 and 0.59 in print); the table carries the computed values.
    for (work, want) in [("Fan et al. [19]", "1.10"), ("Auto-ViT-Acc [21]", "0.79")] {
        let r = prior.iter().find(|r| r.work == work).unwrap();
        assert_eq!(format!("{:.2}", r.gops_per_dsp()), want, "{work}");
    }
    let best_transformer_prior = prior
        .iter()
        .filter(|r| r.application == "Transformer")
        .map(|r| r.gops)
        .fold(0.0f64, f64::max);
    assert!(
        ours.gops > best_transformer_prior,
        "beats every prior Transformer row"
    );

    let paper = paper_ours_row();
    assert_eq!(ours.dsp, paper.dsp, "2163 DSPs");
    assert!((ours.lut_k - paper.lut_k).abs() < 0.5);
    assert!((ours.ff_k.unwrap() - paper.ff_k.unwrap()).abs() < 0.5);
    assert!((ours.bram.unwrap() - paper.bram.unwrap()).abs() < 0.5);
    assert!((ours.gops_per_dsp() - 0.95).abs() < 0.01, "0.95 GOPS/DSP");
}

#[test]
fn table4_latency_column_reproduces_from_paper_ops() {
    use bfp_transformer::flops::paper_table4 as p;
    let m = LatencyModel::paper();
    let names = ["bfp8 MatMul", "fp32 LayerNorm", "fp32 SoftMax", "fp32 GELU"];
    let ops = [
        p::BFP8_MATMUL_OPS,
        p::LAYERNORM_FLOPS,
        p::SOFTMAX_FLOPS,
        p::GELU_FLOPS,
    ];
    let lat_s = [
        ops[0] / m.bfp_ops_per_sec,
        ops[1] / m.fp32_flops_per_sec,
        ops[2] / m.fp32_flops_per_sec,
        ops[3] / m.fp32_flops_per_sec,
    ];
    let (total_ops, total_s) = (ops.iter().sum::<f64>(), lat_s.iter().sum::<f64>());
    let rows = [0, 1, 2, 3].map(|i| {
        [
            names[i].to_string(),
            fmt_si(ops[i]),
            format!("{:.3}", 100.0 * ops[i] / total_ops),
            format!("{:.3}", p::OPS_PERCENT[i]),
            format!("{:.3}", lat_s[i] * 1e3),
            format!("{:.3}", p::LATENCY_MS[i]),
            format!("{:.3}", 100.0 * lat_s[i] / total_s),
            format!("{:.3}", p::LATENCY_PERCENT[i]),
        ]
    });
    print_table(
        "Table IV, variant 1: the paper's op counts x the modelled throughputs",
        "Partition|OPs/FLOPs|Ops %|paper %|Latency ms|paper ms|Lat %|paper %",
        &rows,
    );
    assert_eq!(
        rows.map(|r| r[4].clone()),
        ["1.201", "0.426", "9.687", "3.389"]
    );

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
    let rows: Vec<_> = (b.rows.iter().enumerate())
        .map(|(i, row)| {
            [
                row.name.to_string(),
                fmt_si(row.ops),
                format!("{:.2}", b.ops_percent(i)),
                format!("{:.2}", row.latency_s * 1e3),
                format!("{:.1}", b.latency_percent(i)),
            ]
        })
        .collect();
    print_table(
        "Table IV, variant 2: the census of our DeiT-Small",
        "Partition|OPs/FLOPs|Ops %|Latency ms|Lat %",
        &rows,
    );
    assert_eq!(
        rows,
        [
            ["bfp8 MatMul", "9.081G", "98.33", "4.43", "30.0"],
            ["fp32 LayerNorm", "12.723M", "0.14", "0.85", "5.8"],
            ["fp32 SoftMax", "47.502M", "0.51", "3.17", "21.5"],
            ["fp32 GELU", "94.409M", "1.02", "6.29", "42.7"],
        ]
    );
    let (ops_pct, lat_pct) = (
        format!("{:.2}", b.fp32_ops_percent()),
        format!("{:.2}", b.fp32_latency_percent()),
    );
    println!("fp32: {ops_pct}% of ops, {lat_pct}% of latency (paper: 1.35% / 92.45%)");
    assert_eq!((ops_pct.as_str(), lat_pct.as_str()), ("1.67", "69.96"));

    // Paper: 1.35% of ops -> 92.45% of latency. Ours (richer kernels):
    // low-percent ops share, strong-majority latency share.
    assert!(b.fp32_ops_percent() < 5.0);
    assert!(b.fp32_latency_percent() > 60.0);
    assert!(b.latency_percent(0) < 35.0, "bfp8 latency share is small");
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

#[test]
fn extension_motivation() {
    // §I, linear layers: on activations with a few hot channels per-block
    // bfp8 keeps more signal than per-tensor int8.
    let act = MatF32::from_fn(197, 384, |i, j| {
        let base = (i as f32 * 0.31 + j as f32 * 0.17).sin() * 0.5;
        if j % 96 == 7 {
            base * 60.0
        } else {
            base
        }
    });
    let s_int8 = Int8Tensor::quantize(&act).unwrap().fidelity(&act);
    let s_bfp = Quantizer::paper().quantize(&act).unwrap().fidelity(&act);
    let rows = [
        ("int8 per-tensor", &s_int8),
        ("bfp8 per-block (ours)", &s_bfp),
    ]
    .map(|(name, s)| {
        let (db, rel) = (s.sqnr_db(), s.max_rel);
        [name.to_string(), format!("{db:.1}"), format!("{rel:.2e}")]
    });
    print_table(
        "Activation quantization (197x384, hot outlier channels)",
        "Scheme|SQNR (dB)|max rel err",
        &rows,
    );
    let gain = format!("{:.1}", s_bfp.sqnr_db() - s_int8.sqnr_db());
    println!("bfp8 keeps {gain} dB more signal");
    assert_eq!((rows[0][1].as_str(), rows[1][1].as_str()), ("31.3", "41.1"));
    assert_eq!(gain, "9.8");

    // Task level: the hot channels carry no task signal (the classifier
    // ignores them), yet per-tensor int8 spends its resolution on them.
    let (samples, feats, classes) = (256, 384, 10);
    let acts = MatF32::from_fn(samples, feats, |i, j| {
        if j % 96 == 7 {
            (i as f32 * 0.05).sin() * 30.0
        } else {
            ((i as f32 * 0.77 + j as f32 * 0.41).sin() + (i as f32 * 0.13 - j as f32 * 0.23).cos())
                * 0.35
        }
    });
    let w = MatF32::from_fn(feats, classes, |i, j| {
        if i % 96 == 7 {
            0.0
        } else {
            (i as f32 * 0.19 + j as f32 * 1.3).sin() * 0.1
        }
    });
    let want = acts.matmul(&w);
    let int8 = Int8Tensor::quantize(&acts)
        .unwrap()
        .matmul(&Int8Tensor::quantize(&w).unwrap());
    let q = Quantizer::paper();
    let bfp = q.quantize(&acts).unwrap().matmul(&q.quantize(&w).unwrap());
    let argmax = |m: &MatF32, i: usize| {
        (0..classes)
            .max_by(|&a, &b| m.get(i, a).partial_cmp(&m.get(i, b)).unwrap())
            .unwrap()
    };
    let agreement = |got: &MatF32| {
        let hits = (0..samples)
            .filter(|&i| argmax(got, i) == argmax(&want, i))
            .count();
        format!("{:.1}", 100.0 * hits as f64 / samples as f64)
    };
    let (int8_top1, bfp_top1) = (agreement(&int8), agreement(&bfp));
    println!("top-1 agreement with f32: int8 {int8_top1}%, bfp8 {bfp_top1}%");
    assert_eq!((int8_top1.as_str(), bfp_top1.as_str()), ("91.0", "98.0"));

    // §I, non-linear layers: fp16 softmax overflows e^x (65504) on routine
    // attention logits in [0, 15]; the fp32 VPU tracks the reference.
    let logits: Vec<f32> = (0..197)
        .map(|k| ((k as f32 * 0.61).sin() + 1.0) * 7.5)
        .collect();
    // The naive kernel (no max subtraction), every operation in fp16.
    let mut fp16 = RedFp::FP16;
    let mut f16_row = logits.clone();
    let mut f16_row_sum = 0f32;
    for v in f16_row.iter_mut() {
        *v = fp16.exp(*v);
        f16_row_sum = fp16.add(f16_row_sum, *v);
    }
    for v in f16_row.iter_mut() {
        *v = fp16.div(*v, f16_row_sum);
    }
    let nan_logits: Vec<f32> = logits
        .iter()
        .zip(&f16_row)
        .filter(|(_, v)| v.is_nan())
        .map(|(&l, _)| l)
        .collect();
    let mut vpu_row = logits.clone();
    Vpu::new().softmax_row(&mut vpu_row);
    let mut ref_row = MatF32::from_vec(1, logits.len(), logits.clone());
    reference::softmax_rows(&mut ref_row);
    let vpu_err = format!("{:.2e}", max_abs_err(&vpu_row, ref_row.data()));
    println!(
        "softmax over 197 logits: fp16 {}/197 NaN; fp32 VPU max |err| {vpu_err}",
        nan_logits.len()
    );
    assert_eq!(nan_logits.len(), 66);
    assert!(nan_logits.iter().all(|&l| l > 65504f32.ln()));
    assert_eq!(vpu_err, "1.45e-7");

    // LayerNorm's first pass: an fp16 running sum stalls once its ulp
    // exceeds the addend.
    let (mut f16_sum, mut f32_sum) = (0f32, 0f32);
    for _ in 0..4096 {
        f16_sum = fp16.add(f16_sum, 1.0);
        f32_sum += 1.0;
    }
    println!("sum of 4096 ones: fp16 {f16_sum}, fp32 {f32_sum}");
    assert_eq!((f16_sum, f32_sum), (2048.0, 4096.0));
}

#[test]
fn extension_futurework() {
    // §V, on-chip division: Newton-Raphson reciprocals replace the host
    // round-trip of every softmax row.
    let logits: Vec<f32> = (0..197).map(|k| (k as f32 * 0.57).sin() * 8.0).collect();
    let mut want = MatF32::from_vec(1, logits.len(), logits.clone());
    reference::softmax_rows(&mut want);
    let (mut host, mut chip) = (Vpu::new(), Vpu::new());
    let (mut row_host, mut row_chip) = (logits.clone(), logits);
    host.softmax_row(&mut row_host);
    chip.onchip().softmax_row(&mut row_chip);
    let (host_count, chip_count) = (host.take_count(), chip.take_count());
    let rows = [
        ("paper prototype (host div)", host_count, &row_host),
        ("on-chip NR reciprocal", chip_count, &row_chip),
    ]
    .map(|(name, count, row)| {
        [
            name.to_string(),
            count.fp_mul.to_string(),
            count.fp_add.to_string(),
            count.host_ops().to_string(),
            format!("{:.2e}", max_abs_err(row, want.data())),
        ]
    });
    print_table(
        "Softmax over 197 logits: host division vs on-chip Newton-Raphson",
        "Kernel|hw muls|hw adds|host ops|max err vs f64",
        &rows,
    );
    let extra_muls = chip_count.fp_mul as i64 - host_count.fp_mul as i64;
    assert_eq!((host_count.host_ops(), chip_count.host_ops()), (197, 0));
    assert_eq!(extra_muls, 203);
    assert_eq!(
        (rows[0][4].as_str(), rows[1][4].as_str()),
        ("1.38e-7", "1.38e-7")
    );

    // §V, "fp32 is often overly precise": the non-linear kernels across
    // reduced formats. The LayerNorm input has +-110 outlier channels whose
    // squares overflow fp16's range.
    let n = 384;
    let (gamma, beta) = (vec![1.0f32; n], vec![0.0f32; n]);
    let ln_src: Vec<f32> = (0..n)
        .map(|j| match (j % 64 == 7, j % 128 == 7) {
            (true, true) => 110.0,
            (true, false) => -110.0,
            _ => (j as f32 * 0.21).sin() * 3.0 + 0.5,
        })
        .collect();
    let sm_src: Vec<f32> = (0..n).map(|j| (j as f32 * 0.37).cos() * 6.0).collect();
    let mut ln_ref = MatF32::from_vec(1, n, ln_src.clone());
    reference::layernorm_rows(&mut ln_ref, &gamma, &beta, 1e-6);
    let mut sm_ref = MatF32::from_vec(1, n, sm_src.clone());
    reference::softmax_rows(&mut sm_ref);
    let rows = RedFp::PRESETS.map(|(name, mut f)| {
        let (mut sm, mut ln) = (sm_src.clone(), ln_src.clone());
        f.softmax_row(&mut sm);
        f.layernorm_row(&mut ln, &gamma, &beta, 1e-6);
        [
            name.to_string(),
            f.exp_bits.to_string(),
            f.man_bits.to_string(),
            format!("{:.2e}", max_abs_err(&sm, sm_ref.data())),
            format!("{:.2e}", max_abs_err(&ln, ln_ref.data())),
        ]
    });
    print_table(
        "Non-linear kernels across formats (max abs error vs f64 reference)",
        "Format|exp bits|man bits|softmax err|layernorm err",
        &rows,
    );
    assert_eq!(
        rows,
        [
            ["fp32", "8", "23", "1.86e-9", "1.91e-6"],
            ["fp24", "8", "16", "9.75e-7", "3.43e-4"],
            ["tf32", "8", "10", "4.75e-5", "7.10e-2"],
            ["bf16", "8", "7", "8.69e-4", "1.18e-1"],
            ["fp16", "5", "10", "5.89e-5", "7.94e0"],
        ]
    );
}

#[test]
fn extension_timeline() {
    // The DeiT-Small operator DAG scheduled onto the 30-array card, against
    // Table IV's throughput-division estimate.
    let cfg = VitConfig::deit_small();
    let sys = System::paper();
    let s = schedule(&lower_vit(&cfg), &sys);
    let ms = |cycles: f64| format!("{:.3} ms", cycles / sys.freq_hz * 1e3);
    let share = |cycles: f64| format!("{cycles:.0} ({:.1}%)", 100.0 * cycles / s.makespan_cycles);
    let rows = [
        ("levels", s.levels.len().to_string()),
        ("makespan", ms(s.makespan_cycles)),
        ("bfp8-level cycles", share(s.bfp_cycles)),
        ("fp32-level cycles", share(s.fp32_cycles)),
        ("mode-switch cycles", format!("{:.0}", s.switch_cycles)),
        ("serial (1 array)", ms(s.serial_cycles)),
        ("speedup", format!("{:.1}x", s.speedup())),
    ]
    .map(|(metric, value)| [metric.to_string(), value]);
    print_table("DeiT-Small on 30 arrays", "Metric|Value", &rows);

    let makespan = s.seconds(sys.freq_hz);
    let estimate = LatencyModel::from_system(&sys)
        .breakdown(&analytical_census(&cfg))
        .total_latency_s();
    let line = format!(
        "schedule {:.3} ms vs Table IV estimate {:.3} ms ({:+.1}%)",
        makespan * 1e3,
        estimate * 1e3,
        100.0 * (makespan / estimate - 1.0)
    );
    println!("{line}");
    assert_eq!(
        line,
        "schedule 15.554 ms vs Table IV estimate 14.735 ms (+5.6%)"
    );
    assert_eq!(rows[3][1], "3092679 (66.3%)");
}

#[test]
fn extension_casestudy() {
    // Table IV's split across the DeiT family and along sequence length:
    // softmax work is O(seq^2), so the fp32 share grows with seq.
    let model = LatencyModel::paper();
    // The last cell of a row is the fp32 latency share.
    let row = |label: String, cfg: VitConfig| {
        let census = analytical_census(&cfg);
        let b = model.breakdown(&census);
        [
            label,
            fmt_si(census.bfp_ops() as f64),
            fmt_si(census.softmax.flops() as f64),
            fmt_si(census.fp32_flops() as f64),
            format!("{:.3}", b.total_latency_s() * 1e3),
            format!("{:.2}", b.fp32_ops_percent()),
            format!("{:.2}", b.fp32_latency_percent()),
        ]
    };
    let header = "bfp8 OPs|softmax FLOPs|fp32 FLOPs|total ms|fp32 ops %|fp32 latency %";
    let fp32_share = |rows: &[[String; 7]]| rows.iter().map(|r| r[6].clone()).collect::<Vec<_>>();

    let family = [
        ("DeiT-Tiny", VitConfig::deit_tiny()),
        ("DeiT-Small", VitConfig::deit_small()),
        ("DeiT-Base", VitConfig::deit_base()),
    ]
    .map(|(name, cfg)| row(format!("{name} (dim {})", cfg.dim), cfg));
    print_table("Model sweep (seq 197)", &format!("Model|{header}"), &family);
    assert_eq!(fp32_share(&family), ["81.20", "69.96", "54.80"]);

    let seqs = [64usize, 197, 384, 784, 1568].map(|seq| {
        let cfg = VitConfig {
            seq,
            ..VitConfig::deit_small()
        };
        row(seq.to_string(), cfg)
    });
    print_table(
        "Sequence-length sweep (DeiT-Small)",
        &format!("seq|{header}"),
        &seqs,
    );
    assert_eq!(
        fp32_share(&seqs),
        ["66.10", "69.96", "73.68", "78.32", "82.52"]
    );
}

#[test]
fn extension_bitwidth() {
    // Mantissa width and rounding mode through a whole encoder, against
    // fp32: a mid-size encoder is deep enough for the error to accumulate.
    let cfg = VitConfig {
        dim: 64,
        depth: 4,
        heads: 4,
        mlp_ratio: 4,
        seq: 32,
    };
    let model = VitModel::new_random(cfg, 99);
    let x = model.synthetic_input(17);
    let want = model.forward(&mut RefEngine, &x);
    let run = |q: Quantizer| -> (f64, f64) {
        let got = model.forward(&mut MixedEngine::with_quantizer(q), &x);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        let dot: f64 = got
            .data()
            .iter()
            .zip(want.data())
            .map(|(&g, &w)| g as f64 * w as f64)
            .sum();
        (s.sqnr_db(), dot / (got.frobenius() * want.frobenius()))
    };

    let mut sqnr = Vec::new();
    let rows = [8, 7, 6, 5, 4].map(|bits| {
        let (db, cos) = run(Quantizer::with_man_bits(bits));
        sqnr.push(db);
        [
            format!("bfp{bits}"),
            format!("{db:.1}"),
            format!("{cos:.6}"),
        ]
    });
    print_table(
        "bfp mantissa width through a 64-dim, 4-block encoder (8x8 blocks, RNE)",
        "format|SQNR dB|cosine",
        &rows,
    );
    assert_eq!(
        rows,
        [
            ["bfp8", "39.4", "0.999943"],
            ["bfp7", "32.6", "0.999727"],
            ["bfp6", "26.1", "0.998774"],
            ["bfp5", "19.8", "0.994770"],
            ["bfp4", "10.5", "0.959425"],
        ]
    );
    // dB per mantissa bit above the bfp5 cliff.
    let per_bit = (sqnr[0] - sqnr[3]) / 3.0;
    println!("{per_bit:.1} dB per mantissa bit from bfp5 to bfp8");
    assert_eq!(format!("{per_bit:.1}"), "6.5");

    let rows = [
        ("nearest-even (paper)", RoundMode::NearestEven),
        ("stochastic", RoundMode::Stochastic),
        ("truncate", RoundMode::Truncate),
    ]
    .map(|(name, round)| {
        let (db, cos) = run(Quantizer {
            round,
            ..Quantizer::default()
        });
        let behind = (sqnr[0] - db) / per_bit;
        [
            name.to_string(),
            format!("{db:.1}"),
            format!("{cos:.6}"),
            format!("{behind:.1}"),
        ]
    });
    print_table(
        "Rounding mode (8-bit mantissas)",
        "mode|SQNR dB|cosine|bits behind RNE",
        &rows,
    );
    assert_eq!(
        rows,
        [
            ["nearest-even (paper)", "39.4", "0.999943", "0.0"],
            ["stochastic", "36.2", "0.999879", "0.5"],
            ["truncate", "28.3", "0.999418", "1.7"],
        ]
    );
}
