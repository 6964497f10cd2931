//! Throughput sweep (the data behind Fig. 7), plus a live parallel GEMM on
//! the 30-array card model to show measured throughput emerging from the
//! cycle counts rather than from the closed-form equations.
//!
//! ```sh
//! cargo run --release --example throughput_sweep
//! ```

use bfp_arith::matrix::MatF32;
use bfp_arith::packed::PackedBfp;
use bfp_arith::quant::Quantizer;
use bfp_core::{packed_matmul, ParallelPolicy, Table};
use bfp_platform::System;

fn main() {
    let sys = System::paper();

    let mut t = Table::new(
        "bfp8 MatMul: stream length vs throughput (GOPS, 30 arrays)",
        &[
            "N_X",
            "theoretical (Eqn 9)",
            "measured (incl. HBM)",
            "ratio",
        ],
    );
    for nx in [4usize, 8, 16, 32, 48, 64] {
        let theo = sys.theoretical_bfp_gops(nx);
        let meas = sys.measured_bfp_gops(nx);
        t.row(&[
            nx.to_string(),
            format!("{theo:.1}"),
            format!("{meas:.1}"),
            format!("{:.1}%", 100.0 * meas / theo),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(
        "\nfp32 ops: stream length vs throughput (GFLOPS, 30 arrays)",
        &[
            "L_fp",
            "theoretical (Eqn 10)",
            "measured (incl. HBM)",
            "ratio",
        ],
    );
    for l in [4usize, 8, 16, 32, 64, 96, 128] {
        let theo = sys.theoretical_fp32_gflops(l);
        let meas = sys.measured_fp32_gflops(l);
        t.row(&[
            l.to_string(),
            format!("{theo:.2}"),
            format!("{meas:.2}"),
            format!("{:.1}%", 100.0 * meas / theo),
        ]);
    }
    print!("{}", t.render());

    // A real GEMM through the parallel card simulation.
    println!("\nlive parallel GEMM (1024 x 384 x 768) across 30 simulated arrays...");
    let a = MatF32::from_fn(1024, 384, |i, j| ((i + j) as f32 * 0.001).sin());
    let b = MatF32::from_fn(384, 768, |i, j| ((i * 3 + j) as f32 * 0.002).cos());
    let start = std::time::Instant::now();
    let (_, stats) = sys.matmul_f32(&a, &b);
    let host = start.elapsed().as_secs_f64();
    let modelled = stats.seconds(sys.freq_hz);
    println!("  simulation wall time : {host:.2} s");
    println!("  modelled device time : {:.1} us", modelled * 1e6);
    println!(
        "  modelled throughput  : {:.1} GOPS (critical path {} cycles)",
        stats.total_bfp_ops() as f64 / modelled / 1e9,
        stats.critical_cycles() as u64,
    );

    // The same GEMM on the host's fast functional path: naive reference
    // kernel vs the packed (and optionally threaded) kernel. Outputs are
    // bit-identical; only the wall clock moves.
    println!("\nhost functional kernels on the same 1024 x 384 x 768 GEMM:");
    let q = Quantizer::paper();
    let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
    let start = std::time::Instant::now();
    let naive = qa.try_matmul(&qb).unwrap();
    let naive_s = start.elapsed().as_secs_f64();
    let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
    let start = std::time::Instant::now();
    let fast = packed_matmul(&pa, &pb, ParallelPolicy::Auto).unwrap();
    let fast_s = start.elapsed().as_secs_f64();
    assert!(
        naive
            .data()
            .iter()
            .zip(fast.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "kernels must agree bit-for-bit"
    );
    println!("  naive reference kernel: {:.1} ms", naive_s * 1e3);
    println!(
        "  packed kernel         : {:.1} ms — {:.1}x wall-clock speedup, bit-identical",
        fast_s * 1e3,
        naive_s / fast_s
    );
}
