//! Inject → detect → retry → degrade, end to end.
//!
//! Installs an uncorrectable two-bit BRAM upset plus a transient PSU
//! flip, runs a DeiT-shaped GEMM through the resilient executor, and
//! prints the resulting `FaultReport`.
//!
//! ```text
//! cargo run --release --features faults --example fault_demo
//! ```

use bfp_arith::matrix::MatF32;
use bfp_core::Accelerator;
use bfp_faults::{FaultPlan, FaultSpec};

fn main() {
    let (m, k, n) = (197, 384, 64); // one DeiT-Small attention-head projection
    let a = MatF32::from_fn(m, k, |i, j| {
        (((i * 31 + j * 7) % 1024) as f32 / 128.0) - 4.0
    });
    let b = MatF32::from_fn(k, n, |i, j| {
        (((i * 13 + j * 17) % 1024) as f32 / 128.0) - 4.0
    });
    let exact = a.matmul(&b);

    // A latched double-bit upset in the operand BRAM word every Y preload
    // reads (SECDED detects it on every access but cannot repair it), and
    // a one-shot flip of a high PSU accumulator bit.
    let plan = FaultPlan::new()
        .with(FaultSpec::BramFlip {
            bram: 0,
            addr: 0,
            bits: vec![3, 7],
        })
        .with(FaultSpec::PsuFlip {
            nth: 0,
            row: 0,
            col: 0,
            bit: 44,
        });

    let _session = bfp_faults::install(plan);
    let acc = Accelerator::u280();
    let (out, report) = acc
        .gemm_resilient(&a, &b)
        .expect("recovery handles every injected fault");

    let worst = out
        .data()
        .iter()
        .zip(exact.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0f32, f32::max);

    println!("{}", report.stats.faults);
    println!(
        "output: {}x{}, worst |error| vs fp32 = {worst:.4} \
         (within the bfp8 quantization envelope)",
        out.rows(),
        out.cols()
    );
    assert!(report.stats.faults.fp32_fallbacks > 0);
}
