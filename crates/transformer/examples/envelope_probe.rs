//! One-shot measurement of fast-vs-exact kernel envelopes (tuning aid for
//! the pinned bounds in `tests/nonlinear_ulp.rs` and `DESIGN.md`).
//!
//! For each kernel × oracle datapath it prints the *envelope frontier*:
//! for candidate `max_ulp` caps, the smallest `abs_floor` that admits
//! every sample. Pick a (max_ulp, abs_floor) pair on the frontier and pin
//! it with headroom.
use bfp_arith::ulp::ulp_distance;
use bfp_arith::{AddVariant, MulVariant};
use bfp_transformer::engine::DivisionPolicy;
use bfp_transformer::vpu::fast;
use bfp_transformer::{Datapath, NonlinearMode, Vpu};

const DATAPATHS: [(MulVariant, AddVariant); 4] = [
    (MulVariant::DropLsp, AddVariant::Exact48),
    (MulVariant::Exact, AddVariant::Exact48),
    (MulVariant::DropLsp, AddVariant::Truncate24),
    (MulVariant::Exact, AddVariant::Truncate24),
];

const CAND_ULP: [u64; 7] = [4, 16, 64, 256, 1024, 16384, 262144];

fn frontier(name: &str, pairs: &[(u64, f64)]) {
    print!("{name}: n={}", pairs.len());
    for cap in CAND_ULP {
        let floor = pairs
            .iter()
            .filter(|(u, _)| *u > cap)
            .map(|(_, a)| *a)
            .fold(0.0f64, f64::max);
        print!("  ulp<={cap}->floor {floor:.3e}");
    }
    println!();
}

fn sweep(
    name: &str,
    lo_exp: i32,
    hi_exp: i32,
    both_signs: bool,
    f: impl Fn(&mut Vpu, f32) -> (f32, f32),
) {
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let mut pairs = Vec::new();
        let mut record = |vpu: &mut Vpu, x: f32| {
            let (got, want) = f(vpu, x);
            if got.is_finite() || want.is_finite() {
                pairs.push((ulp_distance(got, want), (got as f64 - want as f64).abs()));
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "nonfinite mismatch at {x:e}");
            }
        };
        for e in lo_exp..=hi_exp {
            for m in 0..64u32 {
                let mag =
                    f32::from_bits((((e + 127) as u32) << 23) | ((m * 0x0002_0821) & 0x007f_ffff));
                record(&mut vpu, mag);
                if both_signs {
                    record(&mut vpu, -mag);
                }
            }
        }
        let mut specials = vec![0.0f32, f32::from_bits(1), f32::MAX];
        if both_signs {
            specials.extend([-0.0, f32::from_bits(0x8000_0001), f32::MIN]);
        }
        for x in specials {
            record(&mut vpu, x);
        }
        frontier(&format!("{name} {mv:?}/{av:?}"), &pairs);
    }
}

fn main() {
    sweep("exp  ", -126, 6, true, |v, x| (fast::Unit.exp(x), v.exp(x)));
    sweep("tanh ", -126, 4, true, |v, x| {
        (fast::Unit.tanh(x), v.onchip().tanh(x))
    });
    sweep("tanhH", -126, 4, true, |v, x| {
        (fast::Unit.tanh(x), v.tanh(x))
    });
    sweep("gelu ", -126, 5, true, |v, x| {
        (fast::Unit.gelu(x), v.onchip().gelu(x))
    });
    sweep("geluH", -126, 5, true, |v, x| {
        (fast::Unit.gelu(x), v.gelu(x))
    });
    sweep("rsqrt", -126, 127, false, |v, x| {
        (fast::Unit.rsqrt(x), v.onchip().rsqrt_nr(x))
    });

    // Row kernels: softmax + layernorm over synthetic rows.
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let mut pairs = Vec::new();
        for n in [7usize, 33, 197] {
            for seed in 0..8 {
                for scale in [0.5f32, 4.0, 20.0] {
                    let row: Vec<f32> = (0..n)
                        .map(|k| ((k + seed * 31) as f32 * 0.61).sin() * scale)
                        .collect();
                    let mut a = row.clone();
                    let mut b = row.clone();
                    fast::Unit.softmax_row(&mut a);
                    vpu.softmax_rows_batch(&mut b, n, DivisionPolicy::OnChip, NonlinearMode::Exact);
                    for (g, w) in a.iter().zip(&b) {
                        pairs.push((ulp_distance(*g, *w), (*g as f64 - *w as f64).abs()));
                    }
                }
            }
        }
        frontier(&format!("softmax {mv:?}/{av:?}"), &pairs);
        let mut pairs = Vec::new();
        for n in [8usize, 48, 384] {
            for seed in 0..8 {
                let gamma: Vec<f32> = (0..n).map(|j| 1.0 + j as f32 * 0.01).collect();
                let beta: Vec<f32> = (0..n).map(|j| (j as f32 * 0.3).cos()).collect();
                let row: Vec<f32> = (0..n)
                    .map(|k| ((k + seed * 17) as f32 * 0.37).sin() * 5.0 + 2.0)
                    .collect();
                let mut a = row.clone();
                let mut b = row.clone();
                fast::Unit.layernorm_row(&mut a, &gamma, &beta, 1e-6);
                vpu.layernorm_rows_batch(
                    &mut b,
                    n,
                    &gamma,
                    &beta,
                    1e-6,
                    DivisionPolicy::OnChip,
                    NonlinearMode::Exact,
                );
                for (g, w) in a.iter().zip(&b) {
                    pairs.push((ulp_distance(*g, *w), (*g as f64 - *w as f64).abs()));
                }
            }
        }
        frontier(&format!("layernorm {mv:?}/{av:?}"), &pairs);
    }
}
