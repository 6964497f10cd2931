//! The programmable fp32 vector unit in action: softmax, GELU and
//! LayerNorm built from nothing but hardware multiply/add (sliced,
//! truncating) plus host-side division — and a custom non-linearity (SiLU)
//! to demonstrate the run-time programmability the paper argues for.
//!
//! ```sh
//! cargo run --release --example nonlinear_vpu
//! ```

use bfp_arith::matrix::MatF32;
use bfp_transformer::reference;
use bfp_transformer::{Datapath, Vpu};

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn main() {
    let mut vpu = Vpu::new();

    // --- softmax -----------------------------------------------------
    let logits: Vec<f32> = (0..197).map(|k| (k as f32 * 0.37).sin() * 6.0).collect();
    let mut hw = logits.clone();
    vpu.softmax_row(&mut hw);
    let mut reference_row = MatF32::from_vec(1, logits.len(), logits.clone());
    reference::softmax_rows(&mut reference_row);
    let c = vpu.take_count();
    println!("softmax over {} logits:", logits.len());
    println!(
        "  max |hw - ref| = {:.2e}",
        max_abs_diff(&hw, reference_row.data())
    );
    println!(
        "  ops: {} hw muls, {} hw adds, {} comparator ops, {} HOST divisions",
        c.fp_mul, c.fp_add, c.cmp, c.host_div
    );

    // --- GELU ----------------------------------------------------------
    let xs: Vec<f32> = (-40..=40).map(|k| k as f32 * 0.1).collect();
    let hw: Vec<f32> = xs.iter().map(|&x| vpu.gelu(x)).collect();
    let rf: Vec<f32> = xs.iter().map(|&x| reference::gelu_tanh(x)).collect();
    let c = vpu.take_count();
    println!("\nGELU over {} points:", xs.len());
    println!("  max |hw - ref| = {:.2e}", max_abs_diff(&hw, &rf));
    println!(
        "  ops: {} hw muls, {} hw adds, {} HOST divisions",
        c.fp_mul, c.fp_add, c.host_div
    );

    // --- LayerNorm -------------------------------------------------------
    let n = 384;
    let gamma = vec![1.0f32; n];
    let beta = vec![0.0f32; n];
    let src: Vec<f32> = (0..n)
        .map(|j| (j as f32 * 0.21).sin() * 3.0 + 1.0)
        .collect();
    let mut hw = src.clone();
    vpu.layernorm_row(&mut hw, &gamma, &beta, 1e-6);
    let mut rf = MatF32::from_vec(1, n, src);
    reference::layernorm_rows(&mut rf, &gamma, &beta, 1e-6);
    let c = vpu.take_count();
    println!("\nLayerNorm over a {n}-wide row:");
    println!("  max |hw - ref| = {:.2e}", max_abs_diff(&hw, rf.data()));
    println!(
        "  ops: {} hw muls, {} hw adds, {} HOST div, {} HOST sqrt",
        c.fp_mul, c.fp_add, c.host_div, c.host_sqrt
    );

    // --- a NEW non-linearity, programmed after "tape-out" ---------------
    // SiLU(x) = x * sigmoid(x) — the paper's motivation: new activations
    // (GLU variants, LLaMA's SiLU) keep appearing, so the unit must be
    // programmable rather than hard-wired.
    let silu = |vpu: &mut Vpu, x: f32| -> f32 {
        let e = vpu.exp(-x);
        let d = vpu.add(e, 1.0);
        let s = vpu.div_host(1.0, d);
        vpu.mul(x, s)
    };
    let hw: Vec<f32> = xs.iter().map(|&x| silu(&mut vpu, x)).collect();
    let rf: Vec<f32> = xs.iter().map(|&x| x * (1.0 / (1.0 + (-x).exp()))).collect();
    println!("\nSiLU (programmed post-hoc from the same primitive ops):");
    println!("  max |hw - ref| = {:.2e}", max_abs_diff(&hw, &rf));
    println!("\nok: every value above came off the sliced/truncating datapath models");
}
