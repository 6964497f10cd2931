//! `bfpacc` — command-line driver for the modelled accelerator.
//!
//! ```text
//! bfpacc info    system configuration, resources, host chain tier
//! ```
//!
//! GEMMs, inference reports, throughput sweeps and cycle traces are the
//! `quickstart`, `deit_inference`, `throughput_sweep` and
//! `systolic_trace` examples and the `table4` / `fig7` reproduction
//! binaries.

use bfp_platform::{System, U280};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("info") => info(),
        _ => help(),
    }
}

fn help() {
    println!(
        "bfpacc — bfp8/fp32 multi-mode accelerator (modelled Alveo U280)\n\n\
         USAGE:\n  bfpacc info    system configuration\n\n\
         GEMMs, inference reports, sweeps and traces: see the examples\n\
         (`cargo run --release --example quickstart`, ...)."
    );
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
        "  host bfp8 chain  : {} (avx512-vnni, avx2 or i64)",
        bfp_arith::packed::chain_tier()
    );
}
