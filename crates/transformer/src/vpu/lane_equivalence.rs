//! The three exact batch entry points against the per-element scalar
//! kernels, in bits **and** [`OpCount`]: whatever a call mixes of lane
//! groups, out-of-regime groups and remainders, nothing observable may
//! differ. On a host without AVX2 both sides are the scalar kernels.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};

use super::{NonlinearMode, OpCount, Vpu};
use crate::engine::DivisionPolicy::{Host, OnChip};
use NonlinearMode::Exact;

/// Lengths around every group width (16 / 8 / 4), the 64-element fused
/// tile, a DeiT row and a DeiT shard.
fn lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=17).collect();
    v.extend([63, 64, 65, 197, 197 * 8]);
    v
}

fn uniform(seed: u64, n: usize, amp: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * amp
        })
        .collect()
}

/// Values on and beyond the edge of every kernel's straight-line regime.
fn outliers() -> Vec<f32> {
    let six_up = f32::from_bits(6.0f32.to_bits() + 1);
    vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x0000_0001),
        f32::from_bits(0x807f_ffff),
        6.0,
        -6.0,
        six_up,
        -six_up,
        1e30,
        -1e30,
        1e-30,
        0.0,
        -0.0,
        f32::MAX,
        f32::MIN_POSITIVE,
        -1e4,
        88.5,
        7.5,
        -9.0,
        25.0,
    ]
}

/// `base` with outlier `k` planted at every `stride`-th position from
/// `phase`: groups with and without an out-of-regime lane in one slice.
fn planted(base: &[f32], k: usize, stride: usize, phase: usize) -> Vec<f32> {
    let out = outliers();
    let mut v = base.to_vec();
    for i in (phase..v.len()).step_by(stride) {
        v[i] = out[(k + i / stride) % out.len()];
    }
    v
}

fn assert_same(what: &str, got: &[f32], want: &[f32], got_count: OpCount, want_count: OpCount) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} of {}: batch {g:e}, scalar {w:e}",
            got.len()
        );
    }
    assert_eq!(
        got_count,
        want_count,
        "{what}: op counts (len {})",
        got.len()
    );
}

fn check_gelu(proto: &Vpu, what: &str, src: &[f32]) {
    let (mut batch, mut scalar) = (proto.fresh(), proto.fresh());
    let mut got = src.to_vec();
    batch.gelu_slice(&mut got, Host, Exact);
    let want: Vec<f32> = src.iter().map(|&x| scalar.gelu(x)).collect();
    assert_same(what, &got, &want, batch.count, scalar.count);
}

fn check_softmax(proto: &Vpu, what: &str, src: &[f32], cols: usize) {
    let (mut batch, mut scalar) = (proto.fresh(), proto.fresh());
    let mut got = src.to_vec();
    batch.softmax_rows_batch(&mut got, cols, Host, Exact);
    let mut want = src.to_vec();
    for row in want.chunks_exact_mut(cols) {
        scalar.softmax_row(row);
    }
    assert_same(what, &got, &want, batch.count, scalar.count);
}

fn check_layernorm(proto: &Vpu, what: &str, src: &[f32], gamma: &[f32], beta: &[f32]) {
    let cols = gamma.len();
    let (mut batch, mut scalar) = (proto.fresh(), proto.fresh());
    let mut got = src.to_vec();
    batch.layernorm_rows_batch(&mut got, cols, gamma, beta, 1e-6, Host, Exact);
    let mut want = src.to_vec();
    for row in want.chunks_exact_mut(cols) {
        scalar.layernorm_row(row, gamma, beta, 1e-6);
    }
    assert_same(what, &got, &want, batch.count, scalar.count);
}

#[test]
fn gelu_slice_equals_the_scalar_kernel_in_bits_and_counts() {
    let vpu = Vpu::new();
    for n in lengths() {
        let base = uniform(n as u64 + 1, n, 5.0);
        check_gelu(&vpu, "in regime", &base);
        for k in 0..outliers().len() {
            check_gelu(&vpu, "planted", &planted(&base, k, 5, k % 5));
            check_gelu(&vpu, "sparse", &planted(&base, k, 23, k));
        }
    }
    // Every outlier alone in an otherwise vectorisable slice, in every
    // lane of every vector of the 16-element group.
    let base = uniform(7, 32, 2.0);
    for (k, &o) in outliers().iter().enumerate() {
        for lane in 0..16 {
            let mut v = base.clone();
            v[lane] = o;
            check_gelu(&vpu, &format!("outlier {k} in lane {lane}"), &v);
        }
    }
}

#[test]
fn softmax_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    let vpu = Vpu::new();
    for cols in lengths().into_iter().filter(|&c| c > 0 && c <= 197) {
        let base = uniform(cols as u64, 3 * cols, 8.0);
        check_softmax(&vpu, "in regime", &base, cols);
        check_softmax(&vpu, "all equal", &vec![0.731; 3 * cols], cols);
        check_softmax(
            &vpu,
            "wide spread",
            &uniform(cols as u64, 3 * cols, 120.0),
            cols,
        );
        for k in 0..outliers().len() {
            check_softmax(&vpu, "planted", &planted(&base, k, 7, k % 7), cols);
        }
        // The named rows: a −1e4 outlier (exp clamps to 0), +Inf as the
        // maximum, −Inf below it, NaN anywhere.
        for (name, o) in [
            ("-1e4 outlier", -1e4),
            ("+inf", f32::INFINITY),
            ("-inf", f32::NEG_INFINITY),
            ("nan", f32::NAN),
        ] {
            for at in [0, cols / 2, cols - 1] {
                let mut v = base.clone();
                v[cols + at] = o;
                check_softmax(&vpu, name, &v, cols);
            }
        }
    }
    check_softmax(&vpu, "shard", &uniform(99, 197 * 8, 4.0), 197);
}

#[test]
fn layernorm_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    let vpu = Vpu::new();
    for cols in lengths().into_iter().filter(|&c| c > 0 && c <= 197) {
        let gamma: Vec<f32> = uniform(3, cols, 0.1).iter().map(|g| 1.0 + g).collect();
        let beta = uniform(4, cols, 0.1);
        let base = uniform(cols as u64, 3 * cols, 3.0);
        check_layernorm(&vpu, "in regime", &base, &gamma, &beta);
        check_layernorm(&vpu, "all equal", &vec![-2.5; 3 * cols], &gamma, &beta);
        check_layernorm(&vpu, "tiny", &uniform(5, 3 * cols, 1e-30), &gamma, &beta);
        check_layernorm(&vpu, "huge", &uniform(6, 3 * cols, 3e37), &gamma, &beta);
        if cols >= 3 {
            // A finite mean whose distance to an element is not: the
            // centre pass saturates, and a square of ±inf is control logic.
            let mut v = base.clone();
            v[cols..cols + 3].copy_from_slice(&[f32::MAX, -f32::MAX, -f32::MAX]);
            v[cols + 3..2 * cols].fill(0.0);
            check_layernorm(&vpu, "overflowing centre", &v, &gamma, &beta);
        }
        for k in 0..outliers().len() {
            let v = planted(&base, k, 7, k % 7);
            check_layernorm(&vpu, "planted data", &v, &gamma, &beta);
            check_layernorm(
                &vpu,
                "planted gamma",
                &base,
                &planted(&gamma, k, 5, k % 5),
                &beta,
            );
            check_layernorm(
                &vpu,
                "planted beta",
                &base,
                &gamma,
                &planted(&beta, k, 5, k % 5),
            );
        }
    }
    let gamma = vec![1.25; 384];
    let beta = vec![-0.5; 384];
    check_layernorm(&vpu, "shard", &uniform(98, 384 * 8, 2.0), &gamma, &beta);
}

#[test]
fn only_the_paper_datapath_selects_the_lanes() {
    assert_eq!(Vpu::new().lane_datapath(), bfp_arith::fplanes::available());
    let mut scalar_arm = vec![("via_partials".to_string(), Vpu::via_partials())];
    for mul in [MulVariant::Exact, MulVariant::DropLsp] {
        for add in [AddVariant::Exact48, AddVariant::Truncate24] {
            let vpu = Vpu::with_datapath(mul, add);
            if (mul, add) == (MulVariant::DropLsp, AddVariant::Exact48) {
                assert_eq!(vpu.lane_datapath(), Vpu::new().lane_datapath());
            } else {
                scalar_arm.push((format!("{mul:?}/{add:?}"), vpu));
            }
        }
    }
    let rne = NormRound::NearestEven;
    scalar_arm.push((
        "rounding multiplier".into(),
        Vpu {
            mul: HwFp32Mul {
                variant: MulVariant::DropLsp,
                round: rne,
            },
            ..Vpu::new()
        },
    ));
    scalar_arm.push((
        "rounding adder".into(),
        Vpu {
            add: HwFp32Add {
                variant: AddVariant::Exact48,
                round: rne,
            },
            ..Vpu::new()
        },
    ));

    let data = planted(&uniform(11, 197, 4.0), 0, 29, 3);
    let gamma = vec![1.1; 197];
    let beta = vec![0.2; 197];
    for (name, vpu) in &scalar_arm {
        assert!(
            !vpu.lane_datapath(),
            "{name} must stay on the scalar kernels"
        );
        check_gelu(vpu, name, &data);
        check_softmax(vpu, name, &data, 197);
        check_layernorm(vpu, name, &data, &gamma, &beta);
    }

    // `via_partials` is the same datapath by another route: its scalar
    // arm must reproduce what the lane arm computes.
    let (mut lanes, mut partials) = (Vpu::new(), Vpu::via_partials());
    let (mut a, mut b) = (data.clone(), data.clone());
    lanes.gelu_slice(&mut a, Host, Exact);
    partials.gelu_slice(&mut b, Host, Exact);
    assert_same("via_partials gelu", &a, &b, lanes.count, partials.count);
    let (mut a, mut b) = (data.clone(), data.clone());
    lanes.softmax_rows_batch(&mut a, 197, Host, Exact);
    partials.softmax_rows_batch(&mut b, 197, Host, Exact);
    lanes.layernorm_rows_batch(&mut a, 197, &gamma, &beta, 1e-6, Host, Exact);
    partials.layernorm_rows_batch(&mut b, 197, &gamma, &beta, 1e-6, Host, Exact);
    assert_same("via_partials rows", &a, &b, lanes.count, partials.count);
}

#[test]
fn onchip_division_stays_on_its_scalar_kernels() {
    let data = planted(&uniform(12, 3 * 65, 4.0), 3, 31, 5);
    let gamma = vec![0.9; 65];
    let beta = vec![0.05; 65];
    let (mut batch, mut scalar) = (Vpu::new(), Vpu::new());

    let mut got = data.clone();
    batch.gelu_slice(&mut got, OnChip, Exact);
    let want: Vec<f32> = data.iter().map(|&x| scalar.gelu_onchip(x)).collect();
    assert_same("gelu", &got, &want, batch.count, scalar.count);

    let (mut got, mut want) = (data.clone(), data.clone());
    batch.softmax_rows_batch(&mut got, 65, OnChip, Exact);
    want.chunks_exact_mut(65)
        .for_each(|r| scalar.softmax_row_onchip(r));
    assert_same("softmax", &got, &want, batch.count, scalar.count);

    let clean = uniform(13, 3 * 65, 4.0);
    let (mut got, mut want) = (clean.clone(), clean);
    batch.layernorm_rows_batch(&mut got, 65, &gamma, &beta, 1e-6, OnChip, Exact);
    want.chunks_exact_mut(65)
        .for_each(|r| scalar.layernorm_row_onchip(r, &gamma, &beta, 1e-6));
    assert_same("layernorm", &got, &want, batch.count, scalar.count);
}
