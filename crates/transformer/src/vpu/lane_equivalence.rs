//! The batch entry points of both kernel families against the
//! per-element scalar kernels, in bits **and** [`OpCount`]: whatever a call
//! mixes of lane groups, lock-step row blocks, out-of-regime groups and
//! remainders, nothing observable may differ — and the route counters show
//! that in-regime inputs did take the lanes, so nothing passes by falling
//! back. On a host without AVX2 both sides are the scalar kernels.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};
use bfp_arith::packed::EpilogueCtx;

use super::{fast, NonlinearMode, OpCount, Vpu};
use crate::engine::DivisionPolicy::{Host, OnChip};
use NonlinearMode::{Exact, Fast};

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

/// [`outliers`] plus the edges of the fast kernels' own branches: `exp`'s
/// clamps at −87 and 88, GELU's lane bound from inside, and the `x` on
/// either side of `u = ±15`, where `tanh` clamps.
fn fast_outliers() -> Vec<f32> {
    let six_down = f32::from_bits(6.0f32.to_bits() - 1);
    let u = |x: f32| (x + x * x * x * 0.044_715) * 0.797_884_6;
    let mut clamped = 6.4f32;
    while u(clamped) <= 15.0 {
        clamped = f32::from_bits(clamped.to_bits() + 1);
    }
    let unclamped = f32::from_bits(clamped.to_bits() - 1);
    let mut v = outliers();
    v.extend([-87.0, -87.0001, 88.0, six_down, -six_down]);
    v.extend([clamped, unclamped, -clamped, -unclamped]);
    v
}

/// `base` with outlier `k` planted at every `stride`-th position from
/// `phase`: groups with and without an out-of-regime lane in one slice.
fn planted(base: &[f32], k: usize, stride: usize, phase: usize) -> Vec<f32> {
    planted_from(&outliers(), base, k, stride, phase)
}

fn planted_from(out: &[f32], base: &[f32], k: usize, stride: usize, phase: usize) -> Vec<f32> {
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

fn check_fast_gelu(what: &str, src: &[f32]) {
    let mut vpu = Vpu::new();
    let mut got = src.to_vec();
    vpu.gelu_slice(&mut got, Host, Fast);
    let want: Vec<f32> = src.iter().map(|&x| fast::gelu(x)).collect();
    let charged = fast::cost::gelu().times(src.len() as u64);
    assert_same(what, &got, &want, vpu.count, charged);
}

fn check_fast_softmax(what: &str, src: &[f32], cols: usize) {
    let mut vpu = Vpu::new();
    let mut got = src.to_vec();
    vpu.softmax_rows_batch(&mut got, cols, Host, Fast);
    let mut want = src.to_vec();
    want.chunks_exact_mut(cols).for_each(fast::softmax_row);
    let charged = fast::cost::softmax_row(cols as u64).times((src.len() / cols) as u64);
    assert_same(what, &got, &want, vpu.count, charged);
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

const AMPLITUDES: [f32; 5] = [1e-3, 1.0, 6.0, 8.0, 100.0];

#[test]
fn fast_gelu_slice_equals_the_scalar_kernel_in_bits_and_counts() {
    let out = fast_outliers();
    for n in lengths() {
        for amp in AMPLITUDES {
            let base = uniform(n as u64 + 1, n, amp);
            check_fast_gelu("uniform", &base);
            for k in 0..out.len() {
                check_fast_gelu("planted", &planted_from(&out, &base, k, 5, k % 5));
                check_fast_gelu("sparse", &planted_from(&out, &base, k, 23, k));
            }
        }
    }
    // Every outlier alone in an otherwise vectorisable slice, in every
    // lane of two vectors.
    let base = uniform(7, 24, 2.0);
    for (k, &o) in out.iter().enumerate() {
        for lane in 0..16 {
            let mut v = base.clone();
            v[lane] = o;
            check_fast_gelu(&format!("outlier {k} in lane {lane}"), &v);
        }
    }
    check_fast_gelu("fc1 activations", &uniform(3, 197 * 1536, 3.0));
}

#[test]
fn fast_gelu_tile_equals_the_scalar_kernel_and_leaves_the_padding_alone() {
    let out = fast_outliers();
    let b = 8;
    for (imax, jmax) in [(8, 8), (8, 5), (3, 8), (5, 3), (1, 1), (0, 8)] {
        for k in 0..out.len() {
            let src = planted_from(&out, &uniform(k as u64, b * b, 4.0), k, 11, k % 11);
            let ctx = EpilogueCtx {
                r0: 0,
                c0: 0,
                imax,
                jmax,
                b,
            };
            let mut vpu = Vpu::new();
            let mut got = src.clone();
            vpu.gelu_tile(&mut got, &ctx, Host, Fast);
            let want: Vec<f32> = (0..b * b)
                .map(|at| match (at / b < imax, at % b < jmax) {
                    (true, true) => fast::gelu(src[at]),
                    _ => src[at],
                })
                .collect();
            let charged = fast::cost::gelu().times((imax * jmax) as u64);
            assert_same(
                &format!("tile {imax}×{jmax}"),
                &got,
                &want,
                vpu.count,
                charged,
            );
        }
    }
}

#[test]
fn fast_softmax_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    let out = fast_outliers();
    // 11 rows: one block of eight rows in flight, three single rows.
    for cols in lengths().into_iter().filter(|&c| c > 0 && c <= 197) {
        for amp in AMPLITUDES {
            let base = uniform(cols as u64, 11 * cols, amp);
            check_fast_softmax("uniform", &base, cols);
            for k in 0..out.len() {
                check_fast_softmax("planted", &planted_from(&out, &base, k, 7, k % 7), cols);
            }
        }
        check_fast_softmax("all equal", &vec![0.731; 11 * cols], cols);
    }

    // A row whose maximum is exactly 0, so `v − max` is `v`: each edge of
    // `exp`'s lower clamp in every lane of two vectors, in a row of the
    // eight-row block and in a single row.
    let negative: Vec<f32> = uniform(5, 9 * 19, 40.0).iter().map(|v| -v.abs()).collect();
    let below = f32::from_bits((-87.0f32).to_bits() + 1);
    let above = f32::from_bits((-87.0f32).to_bits() - 1);
    for o in [-87.0, below, above, -87.0001, -88.0, -1e4, -0.0] {
        for row in [3, 8] {
            for lane in 1..17 {
                let mut v = negative.clone();
                v[row * 19] = 0.0;
                v[row * 19 + lane] = o;
                check_fast_softmax(&format!("{o:e} at lane {lane} of row {row}"), &v, 19);
            }
        }
    }

    // Maxima that are NaN, infinite, or a ±0 tie (first one wins) in both
    // orders; the other elements are below zero.
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let heads = [
        [nan, -1.0, -1.0],
        [-1.0, nan, -1.0],
        [inf, -1.0, -1.0],
        [-1.0, inf, inf],
        [-inf, -1.0, -1.0],
        [-inf, -inf, -inf],
        [-1.0, nan, inf],
        [0.0, -0.0, -1.0],
        [-0.0, 0.0, -1.0],
        [-0.0, -0.0, 0.0],
    ];
    for head in heads {
        for row in [3, 8] {
            for at in [0, 7, 16] {
                let mut v: Vec<f32> = negative.iter().map(|x| x - 0.5).collect();
                v[row * 19 + at..][..3].copy_from_slice(&head);
                check_fast_softmax(&format!("{head:?} at {at} of row {row}"), &v, 19);
            }
        }
    }

    check_fast_softmax("all −inf", &vec![-inf; 9 * 19], 19);

    check_fast_softmax("attention scores", &uniform(9, 197 * 197, 4.0), 197);
}

#[test]
fn row_blocks_equal_the_scalar_kernels_in_bits_and_counts() {
    let vpu = Vpu::new();
    for rows in [4, 7, 8, 12, 16, 29, 45, 99] {
        for cols in [1, 3, 4, 5, 8, 17, 64, 197, 384] {
            let gamma: Vec<f32> = uniform(3, cols, 0.1).iter().map(|g| 1.0 + g).collect();
            let beta = uniform(4, cols, 0.1);
            for amp in [1e-30, 1e-3, 1.0, 8.0, 120.0, 3e37] {
                let what = format!("{rows}×{cols} at {amp:e}");
                let base = uniform((rows * cols) as u64, rows * cols, amp);
                check_softmax(&vpu, &what, &base, cols);
                check_layernorm(&vpu, &what, &base, &gamma, &beta);
            }
        }
    }
}

#[test]
fn a_row_block_with_an_outlier_falls_back_without_moving_its_neighbours() {
    let vpu = Vpu::new();
    // 45 rows: two blocks of 16, one of 8, one of 4, one single row.
    let rows = 45;
    let mut out = outliers();
    out.extend([1e29, -1e29, 7e28, -3e38]);
    for cols in [5, 64, 197] {
        let gamma: Vec<f32> = uniform(3, cols, 0.1).iter().map(|g| 1.0 + g).collect();
        let beta = uniform(4, cols, 0.1);
        let base = uniform(cols as u64, rows * cols, 3.0);
        for (k, &o) in out.iter().enumerate() {
            let mut v = base.clone();
            v[(k * 7 % rows) * cols + k * 3 % cols] = o;
            let what = format!("{o:e} in row {} of {rows}×{cols}", k * 7 % rows);
            check_softmax(&vpu, &what, &v, cols);
            check_layernorm(&vpu, &what, &v, &gamma, &beta);
            check_layernorm(&vpu, "gamma", &base, &planted(&gamma, k, 5, k % 5), &beta);
            check_layernorm(&vpu, "beta", &base, &gamma, &planted(&beta, k, 5, k % 5));
        }

        // Sums whose bits depend on the adder's special cases: rows of −0
        // (0 + −0 is +0), subnormals among the smallest normals (flushed
        // on the way in), partial sums that saturate, and both infinities.
        // β = −0 lets the sign and the last bits of a tiny `v − mean`
        // through to the output, where any other β would absorb them.
        let silent = vec![-0.0; cols];
        let minus_zero = vec![-0.0; 16 * cols];
        check_layernorm(&vpu, "all −0", &minus_zero, &gamma, &silent);
        check_softmax(&vpu, "all −0", &minus_zero, cols);
        let grain: Vec<f32> = uniform(21, 16 * cols, 3e-38)
            .iter()
            .map(|v| v.abs())
            .collect();
        check_layernorm(&vpu, "subnormal mix", &grain, &gamma, &silent);
        let huge: Vec<f32> = uniform(22, 16 * cols, 3e38)
            .iter()
            .map(|v| v.abs())
            .collect();
        check_layernorm(&vpu, "saturating sums", &huge, &gamma, &beta);
        let mut both = uniform(23, 16 * cols, 2.0);
        both[5 * cols] = f32::INFINITY;
        both[5 * cols + cols - 1] = f32::NEG_INFINITY;
        check_layernorm(&vpu, "+inf then −inf", &both, &gamma, &beta);

        if cols >= 3 {
            // The overflowing centre of the per-row test, inside a block.
            let mut v = uniform(24, 16 * cols, 3.0);
            v[5 * cols..5 * cols + 3].copy_from_slice(&[f32::MAX, -f32::MAX, -f32::MAX]);
            v[5 * cols + 3..6 * cols].fill(0.0);
            check_layernorm(&vpu, "overflowing centre", &v, &gamma, &beta);
        }
    }
}

#[test]
#[cfg(target_arch = "x86_64")]
fn in_regime_deit_shapes_take_the_lanes_and_outliers_do_not() {
    use super::{fast_lanes, lanes};
    if !bfp_arith::fplanes::available() {
        return;
    }
    let mut vpu = Vpu::new();
    let (seq, dim, hidden) = (197, 384, 1536);

    // Fast: every whole group of eight on the lanes …
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    let mut scores = uniform(2, seq * seq, 4.0);
    fast_lanes::route::take();
    vpu.gelu_slice(&mut fc1, Host, Fast);
    assert_eq!(fast_lanes::route::take(), ((seq * hidden / 8) as u64, 0));
    vpu.softmax_rows_batch(&mut scores, seq, Host, Fast);
    assert_eq!(fast_lanes::route::take(), ((seq * (seq / 8)) as u64, 0));
    // … and none of them when each holds an element outside the regime.
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    for (group, v) in fc1.iter_mut().step_by(8).enumerate() {
        *v = [7.0, f32::NAN][group % 2];
    }
    vpu.gelu_slice(&mut fc1, Host, Fast);
    assert_eq!(fast_lanes::route::take(), (0, (seq * hidden / 8) as u64));
    let mut scores = uniform(2, seq * seq, 4.0);
    for row in scores.chunks_exact_mut(seq) {
        row.iter_mut().step_by(8).for_each(|v| *v = -1e4);
    }
    vpu.softmax_rows_batch(&mut scores, seq, Host, Fast);
    assert_eq!(fast_lanes::route::take(), (0, (seq * (seq / 8)) as u64));

    // Exact: 197 rows are 12 blocks of 16, one of 4 and a single row, so
    // 196 of 197 sums (softmax) and 392 of 394 (LayerNorm) are lock-step …
    let (gamma, beta) = (vec![1.1; dim], vec![0.2; dim]);
    let mut scores = uniform(2, seq * seq, 4.0);
    let mut tokens = uniform(3, seq * dim, 2.0);
    lanes::route::take();
    vpu.softmax_rows_batch(&mut scores, seq, Host, Exact);
    assert_eq!(lanes::route::take(), (196, 1));
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Exact);
    assert_eq!(lanes::route::take(), (392, 2));
    // … and none when every block holds an operand outside the sums' regime.
    let mut scores = uniform(2, seq * seq, 4.0);
    let mut tokens = uniform(3, seq * dim, 2.0);
    scores
        .iter_mut()
        .step_by(4 * seq)
        .for_each(|v| *v = f32::NAN);
    tokens.iter_mut().step_by(4 * dim).for_each(|v| *v = 1e29);
    vpu.softmax_rows_batch(&mut scores, seq, Host, Exact);
    assert_eq!(lanes::route::take(), (0, 197));
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Exact);
    assert_eq!(lanes::route::take(), (0, 394));
}

/// Every f32 through the fast GELU batch route (the lanes for `|x| ≤ 6`,
/// the scalar kernel beyond), 2¹⁶ consecutive patterns per call.
#[test]
#[ignore = "2³² patterns: release sweep, run by CI's envelope step"]
fn fast_gelu_route_equals_the_scalar_kernel_on_every_f32() {
    let sweep = |chunks: std::ops::Range<u32>| {
        let mut vpu = Vpu::new();
        for hi in chunks {
            let src: Vec<f32> = (0..1u32 << 16)
                .map(|lo| f32::from_bits(hi << 16 | lo))
                .collect();
            let mut got = src.clone();
            vpu.gelu_slice(&mut got, Host, Fast);
            for (g, x) in got.iter().zip(&src) {
                assert_eq!(g.to_bits(), fast::gelu(*x).to_bits(), "gelu({x:e})");
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| sweep(0..1 << 15));
        s.spawn(|| sweep(1 << 15..1 << 16));
    });
}
