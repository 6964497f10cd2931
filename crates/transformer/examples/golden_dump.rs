//! One-shot dump of the nonlinear kernels' output bits (golden capture):
//! the exact VPU with both division policies, the fast unit, and the
//! reduced-precision formats' rows. `tests/nonlinear_ulp.rs` pins them.
use bfp_arith::redfp::RedFp;
use bfp_transformer::engine::DivisionPolicy;
use bfp_transformer::vpu::fast;
use bfp_transformer::{Datapath, NonlinearMode, Vpu};

fn hex_row(name: &str, row: &[f32]) {
    print!("{name}: ");
    for v in row {
        print!("0x{:08x},", v.to_bits());
    }
    println!();
}

/// FNV-1a over a row's bit patterns: one word pins a 384-wide row.
fn digest(row: &[f32]) -> u64 {
    row.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn main() {
    let xs: [f32; 16] = [
        -8.5,
        -3.2,
        -1.0,
        -0.125,
        -1.0e-6,
        -0.0,
        0.0,
        1.0e-6,
        0.33,
        1.0,
        2.7,
        5.0,
        9.1,
        f32::from_bits(0x0000_0001), // smallest subnormal
        f32::from_bits(0x7f7f_ffff), // f32::MAX
        -87.2,
    ];
    let mut vpu = Vpu::new();
    print!("gelu: ");
    for &x in &xs {
        print!("0x{:08x},", vpu.gelu(x).to_bits());
    }
    println!();
    print!("gelu_onchip: ");
    for &x in &xs {
        print!("0x{:08x},", vpu.onchip().gelu(x).to_bits());
    }
    println!();
    print!("exp: ");
    for &x in &xs {
        print!("0x{:08x},", vpu.exp(x).to_bits());
    }
    println!();
    print!("tanh: ");
    for &x in &xs {
        print!("0x{:08x},", vpu.tanh(x).to_bits());
    }
    println!();
    print!("rsqrt: ");
    for &x in &xs {
        if x >= 0.0 {
            print!("0x{:08x},", vpu.onchip().rsqrt_nr(x).to_bits());
        } else {
            print!("skip,");
        }
    }
    println!();
    // A softmax row and a layernorm row, both division policies.
    let row: Vec<f32> = (0..11).map(|k| (k as f32 * 0.61).sin() * 4.0).collect();
    for (name, div) in [
        ("host", DivisionPolicy::Host),
        ("chip", DivisionPolicy::OnChip),
    ] {
        let mut r = row.clone();
        vpu.softmax_rows_batch(&mut r, 11, div, NonlinearMode::Exact);
        print!("softmax_{name}: ");
        for v in &r {
            print!("0x{:08x},", v.to_bits());
        }
        println!();
    }
    let gamma: Vec<f32> = (0..11).map(|j| 1.0 + j as f32 * 0.01).collect();
    let beta: Vec<f32> = (0..11).map(|j| (j as f32 * 0.3).cos()).collect();
    for (name, div) in [
        ("host", DivisionPolicy::Host),
        ("chip", DivisionPolicy::OnChip),
    ] {
        let mut r = row.clone();
        vpu.layernorm_rows_batch(&mut r, 11, &gamma, &beta, 1e-6, div, NonlinearMode::Exact);
        print!("layernorm_{name}: ");
        for v in &r {
            print!("0x{:08x},", v.to_bits());
        }
        println!();
    }
    print!("tanh_onchip: ");
    for &x in &xs {
        print!("0x{:08x},", vpu.onchip().tanh(x).to_bits());
    }
    println!();
    hex_row("fast_exp", &xs.map(|x| fast::Unit.exp(x)));
    hex_row("fast_tanh", &xs.map(|x| fast::Unit.tanh(x)));
    hex_row("fast_gelu", &xs.map(|x| fast::Unit.gelu(x)));
    print!("fast_rsqrt: ");
    for &x in &xs {
        if x >= 0.0 {
            print!("0x{:08x},", fast::Unit.rsqrt(x).to_bits());
        } else {
            print!("skip,");
        }
    }
    println!();
    let mut r = row.clone();
    fast::Unit.softmax_row(&mut r);
    hex_row("fast_softmax", &r);
    let mut r = row.clone();
    fast::Unit.layernorm_row(&mut r, &gamma, &beta, 1e-6);
    hex_row("fast_layernorm", &r);
    // The format sweep's rows (`extension_futurework`'s inputs), digested.
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
    for (name, mut f) in RedFp::PRESETS {
        let (mut sm, mut ln) = (sm_src.clone(), ln_src.clone());
        f.softmax_row(&mut sm);
        f.layernorm_row(&mut ln, &gamma, &beta, 1e-6);
        println!(
            "redfp_{name}: softmax 0x{:016x}, layernorm 0x{:016x}",
            digest(&sm),
            digest(&ln)
        );
    }
}
