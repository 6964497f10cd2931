//! `bfpacc` — command-line driver for the modelled accelerator.
//!
//! ```text
//! bfpacc gemm <M> <K> <N>          run an MxKxN bfp8 GEMM on the card
//! bfpacc infer <tiny|small|base>   Table-IV style report for a DeiT model
//! bfpacc sweep                     measured-vs-theoretical throughput (Fig. 7)
//! bfpacc trace                     cycle trace of one systolic pass
//! bfpacc info                      system configuration, resources, host chain tier
//! ```

use bfp_core::{fmt_si, Accelerator, LatencyModel, Table};
use bfp_platform::{System, U280};
use bfp_pu::trace::trace_pass;
use bfp_transformer::{analytical_census, VitConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "gemm" => gemm(&args[1..]),
        "infer" => infer(&args[1..]),
        "sweep" => sweep(),
        "trace" => trace(),
        "info" => info(),
        _ => help(),
    }
}

fn help() {
    println!(
        "bfpacc — bfp8/fp32 multi-mode accelerator (modelled Alveo U280)\n\n\
         USAGE:\n  bfpacc gemm <M> <K> <N>          run an MxKxN bfp8 GEMM\n  \
         bfpacc infer <tiny|small|base>   DeiT workload/latency report\n  \
         bfpacc sweep                     Fig. 7 throughput sweeps\n  \
         bfpacc trace                     systolic cycle trace\n  \
         bfpacc info                      system configuration"
    );
}

fn parse_dim(s: Option<&String>, name: &str) -> usize {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: missing or invalid <{name}>; see `bfpacc help`");
        std::process::exit(2);
    })
}

fn gemm(args: &[String]) {
    use bfp_arith::matrix::MatF32;
    use bfp_arith::stats::ErrorStats;
    let m = parse_dim(args.first(), "M");
    let k = parse_dim(args.get(1), "K");
    let n = parse_dim(args.get(2), "N");
    let a = MatF32::from_fn(m, k, |i, j| {
        ((i as f32 * 0.13 + j as f32 * 0.29).sin()) * 1.5
    });
    let b = MatF32::from_fn(k, n, |i, j| {
        ((i as f32 * 0.17 - j as f32 * 0.11).cos()) * 0.8
    });
    let acc = Accelerator::u280();
    let start = std::time::Instant::now();
    let (out, report) = acc.gemm(&a, &b);
    let wall = start.elapsed().as_secs_f64();
    let mut fidelity = ErrorStats::new();
    fidelity.push_slices(out.data(), a.matmul(&b).data());
    println!("bfp8 GEMM {m}x{k}x{n} on 30 simulated arrays");
    println!("  simulation wall time : {wall:.3} s");
    println!("  modelled device time : {:.3} us", report.seconds * 1e6);
    println!("  modelled throughput  : {:.1} GOPS", report.gops());
    println!("  fidelity vs f32      : {fidelity}");
}

fn infer(args: &[String]) {
    let cfg = match args.first().map(String::as_str) {
        Some("tiny") => VitConfig::deit_tiny(),
        Some("base") => VitConfig::deit_base(),
        _ => VitConfig::deit_small(),
    };
    println!(
        "DeiT (dim {}, depth {}, heads {}, seq {}) — analytical Table IV report\n",
        cfg.dim, cfg.depth, cfg.heads, cfg.seq
    );
    let census = analytical_census(&cfg);
    let b = LatencyModel::paper().breakdown(&census);
    let mut t = Table::new(
        "",
        &["Partition", "OPs/FLOPs", "Ops %", "Latency ms", "Lat %"],
    );
    for (i, row) in b.rows.iter().enumerate() {
        t.row(&[
            row.name.to_string(),
            fmt_si(row.ops),
            format!("{:.3}", b.ops_percent(i)),
            format!("{:.3}", row.latency_s * 1e3),
            format!("{:.3}", b.latency_percent(i)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nfp32: {:.2}% of ops, {:.2}% of latency; host ops {}; total {:.3} ms",
        b.fp32_ops_percent(),
        b.fp32_latency_percent(),
        fmt_si(b.host_ops),
        b.total_latency_s() * 1e3
    );
}

fn sweep() {
    let sys = System::paper();
    println!("bfp8 MatMul (GOPS, 30 arrays):");
    for nx in [8usize, 16, 32, 64] {
        println!(
            "  N_X={nx:>3}: theoretical {:>7.1}, measured {:>7.1}",
            sys.theoretical_bfp_gops(nx),
            sys.measured_bfp_gops(nx)
        );
    }
    println!("fp32 ops (GFLOPS):");
    for l in [8usize, 32, 128] {
        println!(
            "  L={l:>4}: theoretical {:>6.2}, measured {:>6.2}",
            sys.theoretical_fp32_gflops(l),
            sys.measured_fp32_gflops(l)
        );
    }
}

fn trace() {
    use bfp_arith::bfp::BfpBlock;
    let x = BfpBlock {
        exp: 0,
        man: [[1; 8]; 8],
    };
    let t = trace_pass(&x, &x, &[x]);
    print!("{}", t.render());
}

fn info() {
    let sys = System::paper();
    println!(
        "Modelled platform: AMD Alveo U280 @ {:.0} MHz",
        sys.freq_hz / 1e6
    );
    println!(
        "  processing units : {} x {} arrays = {} arrays",
        sys.cfg.units,
        sys.cfg.arrays_per_unit,
        sys.cfg.total_arrays()
    );
    println!(
        "  device           : {} LUT, {} FF, {} BRAM18, {} DSP",
        U280::LUT,
        U280::FF,
        U280::BRAM18,
        U280::DSP
    );
    println!("  design usage     : {}", sys.resources());
    println!(
        "  headline         : {:.1} GOPS bfp8 measured, {:.2} GFLOPS fp32 theoretical",
        sys.measured_bfp_gops(64),
        sys.theoretical_fp32_gflops(128)
    );
    println!(
        "  host bfp8 chain  : {} (avx-vnni, avx2 or i64)",
        bfp_arith::packed::chain_tier()
    );
}
