//! The batch entry points of both kernel families against the
//! per-element scalar kernels, in bits **and** [`OpCount`]: whatever a call
//! mixes of element groups, row groups, out-of-regime groups and
//! remainders, nothing observable may differ — and the route counters show
//! that in-regime inputs did take the lanes, so nothing passes by falling
//! back. Both families' tests run once per lane tier the host has (AVX-512
//! and AVX2), asserting that the tier's vectors ran. On a host without
//! AVX2 both sides are the scalar kernels.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant, NormRound};
use bfp_arith::packed::EpilogueCtx;

#[cfg(target_arch = "x86_64")]
use super::lanes::tests::route::take_widths;
#[cfg(target_arch = "x86_64")]
use super::lanes::tests::{element_group, element_groups, exec_tiers, groups, on_tier, widths};
use super::{fast, Datapath, NonlinearMode, OpCount, Vpu};
use crate::engine::DivisionPolicy::{Host, OnChip};
#[cfg(target_arch = "x86_64")]
use bfp_arith::fplanes::Tier;
use NonlinearMode::{Exact, Fast};

/// Lengths around every group width (64 / 32 / 8 / 4), the 64-element
/// fused tile, a DeiT row and a DeiT shard.
fn lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=17).collect();
    v.extend([31, 32, 33, 63, 64, 65, 197, 197 * 8]);
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

/// `f()` once on every lane tier this host has, asserting that the
/// tier's vectors ran and no other's: groups of `F64x8` on AVX-512
/// (whose 4-element groups are `F64x4`), of `F64x4` alone on AVX2. Once
/// on the scalar kernels on a host without AVX2.
fn on_exec_tiers(f: impl Fn()) {
    #[cfg(target_arch = "x86_64")]
    {
        let tiers = exec_tiers();
        for &tier in &tiers {
            take_widths();
            on_tier(tier, &f);
            let (zmm, ymm) = take_widths();
            match tier {
                Tier::Avx512 => assert!(zmm > 0, "no group ran on eight lanes"),
                _ => assert!(zmm == 0 && ymm > 0, "{tier}: {zmm} zmm, {ymm} ymm groups"),
            }
        }
        if !tiers.is_empty() {
            return;
        }
    }
    f();
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
    let want: Vec<f32> = src.iter().map(|&x| fast::Unit.gelu(x)).collect();
    let charged = fast::cost::gelu().times(src.len() as u64);
    assert_same(what, &got, &want, vpu.count, charged);
}

fn check_fast_layernorm(what: &str, src: &[f32], gamma: &[f32], beta: &[f32]) {
    let cols = gamma.len();
    let mut vpu = Vpu::new();
    let mut got = src.to_vec();
    vpu.layernorm_rows_batch(&mut got, cols, gamma, beta, 1e-6, Host, Fast);
    let mut want = src.to_vec();
    want.chunks_exact_mut(cols)
        .for_each(|r| fast::Unit.layernorm_row(r, gamma, beta, 1e-6));
    let charged = fast::cost::layernorm_row(cols as u64).times((src.len() / cols) as u64);
    assert_same(what, &got, &want, vpu.count, charged);
}

fn check_fast_softmax(what: &str, src: &[f32], cols: usize) {
    let mut vpu = Vpu::new();
    let mut got = src.to_vec();
    vpu.softmax_rows_batch(&mut got, cols, Host, Fast);
    let mut want = src.to_vec();
    want.chunks_exact_mut(cols)
        .for_each(|r| fast::Unit.softmax_row(r));
    let charged = fast::cost::softmax_row(cols as u64).times((src.len() / cols) as u64);
    assert_same(what, &got, &want, vpu.count, charged);
}

#[test]
fn gelu_slice_equals_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
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
        // lane of the 64-element group's first two `F64x8` vectors (of the
        // 32-element group's first four `F64x4`).
        let base = uniform(7, 64, 2.0);
        for (k, &o) in outliers().iter().enumerate() {
            for lane in 0..16 {
                let mut v = base.clone();
                v[lane] = o;
                check_gelu(&vpu, &format!("outlier {k} in lane {lane}"), &v);
            }
        }
    });
}

#[test]
fn softmax_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
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
    });
}

#[test]
fn layernorm_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
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
    });
}

#[test]
#[cfg(target_arch = "x86_64")]
fn only_the_paper_datapath_selects_the_lanes() {
    use super::lanes::Lane;
    on_exec_tiers(|| {
        assert!(Vpu::new().on_lanes());
        let mut scalar_arm = vec![("via_partials".to_string(), Vpu::via_partials())];
        for mul in [MulVariant::Exact, MulVariant::DropLsp] {
            for add in [AddVariant::Exact48, AddVariant::Truncate24] {
                let vpu = Vpu::with_datapath(mul, add);
                if (mul, add) == (MulVariant::DropLsp, AddVariant::Exact48) {
                    assert!(vpu.on_lanes());
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
            assert!(!vpu.on_lanes(), "{name} must stay on the scalar kernels");
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
    });
}

#[test]
fn onchip_division_stays_on_its_scalar_kernels() {
    let data = planted(&uniform(12, 3 * 65, 4.0), 3, 31, 5);
    let gamma = vec![0.9; 65];
    let beta = vec![0.05; 65];
    let (mut batch, mut scalar) = (Vpu::new(), Vpu::new());

    let mut got = data.clone();
    batch.gelu_slice(&mut got, OnChip, Exact);
    let want: Vec<f32> = data.iter().map(|&x| scalar.onchip().gelu(x)).collect();
    assert_same("gelu", &got, &want, batch.count, scalar.count);

    let (mut got, mut want) = (data.clone(), data.clone());
    batch.softmax_rows_batch(&mut got, 65, OnChip, Exact);
    want.chunks_exact_mut(65)
        .for_each(|r| scalar.onchip().softmax_row(r));
    assert_same("softmax", &got, &want, batch.count, scalar.count);

    let clean = uniform(13, 3 * 65, 4.0);
    let (mut got, mut want) = (clean.clone(), clean);
    batch.layernorm_rows_batch(&mut got, 65, &gamma, &beta, 1e-6, OnChip, Exact);
    want.chunks_exact_mut(65)
        .for_each(|r| scalar.onchip().layernorm_row(r, &gamma, &beta, 1e-6));
    assert_same("layernorm", &got, &want, batch.count, scalar.count);
}

const AMPLITUDES: [f32; 5] = [1e-3, 1.0, 6.0, 8.0, 100.0];

#[test]
fn fast_gelu_slice_equals_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
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
        // lane of its first group (one 16-lane vector, two 8-lane ones).
        let base = uniform(7, 24, 2.0);
        for (k, &o) in out.iter().enumerate() {
            for lane in 0..16 {
                let mut v = base.clone();
                v[lane] = o;
                check_fast_gelu(&format!("outlier {k} in lane {lane}"), &v);
            }
        }
        check_fast_gelu("fc1 activations", &uniform(3, 197 * 1536, 3.0));
    });
}

#[test]
fn fast_gelu_tile_equals_the_scalar_kernel_and_leaves_the_padding_alone() {
    on_exec_tiers(|| {
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
                        (true, true) => fast::Unit.gelu(src[at]),
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
    });
}

#[test]
fn fast_softmax_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
        let out = fast_outliers();
        // 11 rows: one block of eight interleaved row chains, three single
        // rows.
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
        // `exp`'s lower clamp in every lane of the row's 16-element group and
        // in its remainder, in a row of the eight-row block and in a single
        // row.
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
    });
}

#[test]
fn fast_layernorm_rows_equal_the_scalar_kernel_in_bits_and_counts() {
    on_exec_tiers(|| {
        let out = fast_outliers();
        for cols in lengths().into_iter().filter(|&c| c > 0 && c <= 197) {
            let gamma: Vec<f32> = uniform(3, cols, 0.1).iter().map(|g| 1.0 + g).collect();
            let beta = uniform(4, cols, 0.1);
            for amp in AMPLITUDES {
                let base = uniform(cols as u64, 11 * cols, amp);
                check_fast_layernorm("uniform", &base, &gamma, &beta);
                // One outlier in every row, each in another column.
                for k in 0..out.len() {
                    let mut v = base.clone();
                    for (r, row) in v.chunks_exact_mut(cols).enumerate() {
                        row[(7 * r + k) % cols] = out[(k + r) % out.len()];
                    }
                    check_fast_layernorm("an outlier per row", &v, &gamma, &beta);
                }
            }
            // Zeros of both signs (β = −0 lets a −0 through), and ±0, NaN and
            // |v| > 2⁴⁰ planted in γ and β.
            let minus_zero = vec![-0.0; cols];
            check_fast_layernorm("all +0", &vec![0.0; 11 * cols], &gamma, &beta);
            check_fast_layernorm("all −0", &vec![-0.0; 11 * cols], &gamma, &minus_zero);
            let base = uniform(cols as u64 + 7, 11 * cols, 3.0);
            for (k, o) in [0.0, -0.0, f32::NAN, 2.2e12, -3e20].into_iter().enumerate() {
                let mut g = gamma.clone();
                g[k % cols] = o;
                check_fast_layernorm("planted gamma", &base, &g, &beta);
                let mut b = beta.clone();
                b[(3 * k) % cols] = o;
                check_fast_layernorm("planted beta", &base, &gamma, &b);
            }
        }
        let (gamma, beta) = (vec![1.25; 384], vec![-0.5; 384]);
        check_fast_layernorm("DeiT tokens", &uniform(98, 197 * 384, 2.0), &gamma, &beta);
    });
}

#[test]
fn row_blocks_equal_the_scalar_kernels_in_bits_and_counts() {
    on_exec_tiers(|| {
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
    });
}

#[test]
fn a_row_block_with_an_outlier_falls_back_without_moving_its_neighbours() {
    on_exec_tiers(|| {
        let vpu = Vpu::new();
        // 45 rows: row groups of 32, 8 and 4, and one single row.
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
    });
}

#[test]
#[cfg(target_arch = "x86_64")]
fn in_regime_deit_shapes_take_the_lanes_and_outliers_do_not() {
    for tier in exec_tiers() {
        on_tier(tier, || {
            fast_deit_shapes_take_the_lanes(tier);
            exact_deit_shapes_take_the_lanes(tier);
        });
    }
}

/// The fast half of [`in_regime_deit_shapes_take_the_lanes_and_outliers_do_not`]
/// on the lanes' `tier`: every whole group of 128 elements (AVX-512) or 64
/// (AVX2), then of half as many, of 16 and of 8, runs on the native lanes,
/// and no row pass takes a lane: the max scan and the sums run every row as
/// scalar chains.
#[cfg(target_arch = "x86_64")]
fn fast_deit_shapes_take_the_lanes(tier: Tier) {
    use super::lanes::tests::route;
    let mut vpu = Vpu::new();
    let (seq, dim, hidden) = (197, 384, 1536);
    let per = |n: usize| element_groups::<fast::Unit>(tier, n);
    // GELU: 197·1536 is 2 364 groups of 128, or 4 728 of 64. Softmax's
    // exponentials: 197 = 128 + 64 + 5, two groups per row (three of 64 on
    // AVX2), five elements on the scalar body. LayerNorm's centre and
    // affine passes: 384 is three groups per row (six on AVX2).
    let split = match tier {
        Tier::Avx512 => (2364, 2, 3),
        _ => (4728, 3, 6),
    };
    assert_eq!((per(seq * hidden), per(seq), per(dim)), split, "{tier}");
    let rows = seq as u64;
    let (gamma, beta) = (vec![1.1; dim], vec![0.2; dim]);
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    let mut scores = uniform(2, seq * seq, 4.0);
    let mut tokens = uniform(3, seq * dim, 2.0);
    route::take_groups();
    route::take_rows();
    vpu.gelu_slice(&mut fc1, Host, Fast);
    assert_eq!(route::take_groups(), (per(seq * hidden), 0), "{tier}");
    vpu.softmax_rows_batch(&mut scores, seq, Host, Fast);
    assert_eq!(route::take_groups(), (rows * per(seq), 0), "{tier}");
    assert_eq!(route::take_rows(), (0, 2 * rows), "{tier}");
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Fast);
    assert_eq!(route::take_groups(), (2 * rows * per(dim), 0), "{tier}");
    assert_eq!(route::take_rows(), (0, 2 * rows), "{tier}");

    // … and none of them when every eighth element is outside the regime:
    // beyond GELU's |x| ≤ 6 or NaN, a softmax element whose `v − max` is
    // below −87, a LayerNorm operand above 2⁴⁰ (centred, still above it).
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    for (k, v) in fc1.iter_mut().step_by(8).enumerate() {
        *v = [7.0, f32::NAN][k % 2];
    }
    vpu.gelu_slice(&mut fc1, Host, Fast);
    assert_eq!(route::take_groups(), (0, per(seq * hidden)), "{tier}");
    let mut scores = uniform(2, seq * seq, 4.0);
    for row in scores.chunks_exact_mut(seq) {
        row.iter_mut().step_by(8).for_each(|v| *v = -1e4);
    }
    vpu.softmax_rows_batch(&mut scores, seq, Host, Fast);
    assert_eq!(route::take_groups(), (0, rows * per(seq)), "{tier}");
    let mut tokens = uniform(3, seq * dim, 2.0);
    tokens.iter_mut().step_by(8).for_each(|v| *v = 2.2e12);
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Fast);
    assert_eq!(route::take_groups(), (0, 2 * rows * per(dim)), "{tier}");
    route::take_rows();
}

/// The exact half of [`in_regime_deit_shapes_take_the_lanes_and_outliers_do_not`]
/// on the lanes' `tier`: every whole group of 64 (AVX-512) or 32 (AVX2),
/// then of half as many, of 8 and of 4 runs on the tier's vectors — GELU
/// 197·1536 / 64 groups, softmax three of 64 and one of 4 per 197-wide
/// row, LayerNorm 384 / 64 per row in each of its two passes …
#[cfg(target_arch = "x86_64")]
fn exact_deit_shapes_take_the_lanes(tier: Tier) {
    use super::lanes::tests::route;
    let mut vpu = Vpu::new();
    let (seq, dim, hidden) = (197, 384, 1536);
    // The element passes' and the scalar body's groups for `calls` rows
    // of `n` elements each, and the tier's widths for those and for
    // `row_runs` row passes over `seq` rows.
    let runs = |calls: u64, n: usize, fallbacks: u64, row_runs: u64| {
        let (zmm, ymm) = widths(tier, n, false);
        let (row_zmm, row_ymm) = widths(tier, seq, true);
        let total = calls * groups(tier, n, false);
        assert_eq!(
            route::take_groups(),
            (total - fallbacks, fallbacks),
            "{tier}"
        );
        let want = (
            calls * zmm + row_runs * row_zmm,
            calls * ymm + row_runs * row_ymm,
        );
        assert_eq!(route::take_widths(), want, "{tier}");
    };
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    route::take_groups();
    route::take_widths();
    vpu.gelu_slice(&mut fc1, Host, Exact);
    runs(1, seq * hidden, 0, 0);

    // … 197 rows are six row groups of 32, one of 4 and a single row, so
    // each row pass (softmax's max and sum, LayerNorm's two sums) runs 196
    // of 197 rows on the lanes; softmax's exponentials and LayerNorm's
    // centre and affine passes run row by row, and the divides on the
    // host …
    let (gamma, beta) = (vec![1.1; dim], vec![0.2; dim]);
    let mut scores = uniform(2, seq * seq, 4.0);
    let mut tokens = uniform(3, seq * dim, 2.0);
    route::take_rows();
    vpu.softmax_rows_batch(&mut scores, seq, Host, Exact);
    assert_eq!(route::take_rows(), (2 * 196, 2), "{tier}");
    runs(seq as u64, seq, 0, 2);
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Exact);
    assert_eq!(route::take_rows(), (392, 2), "{tier}");
    runs(2 * seq as u64, dim, 0, 2);

    // … and none when every row group holds an operand outside the
    // regime: a NaN fails the max and, through the exponentials, the sum;
    // 1e29 fails the sum and, squared, the sum of squares.
    let mut scores = uniform(2, seq * seq, 4.0);
    let mut tokens = uniform(3, seq * dim, 2.0);
    scores
        .iter_mut()
        .step_by(4 * seq)
        .for_each(|v| *v = f32::NAN);
    tokens.iter_mut().step_by(4 * dim).for_each(|v| *v = 1e29);
    vpu.softmax_rows_batch(&mut scores, seq, Host, Exact);
    assert_eq!(route::take_rows(), (0, 2 * 197), "{tier}");
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Exact);
    assert_eq!(route::take_rows(), (0, 394), "{tier}");
    route::take_groups();
    route::take_widths();

    // A planted outlier sends exactly its own group to the scalar body:
    // GELU beyond |x| = 6, a softmax element whose `v − max` is below −87,
    // and a LayerNorm operand above 2⁴⁰, which fails the centre pass's
    // bound and, centred, the affine pass's.
    let mut fc1 = uniform(1, seq * hidden, 3.0);
    fc1[1000] = 7.0;
    vpu.gelu_slice(&mut fc1, Host, Exact);
    runs(1, seq * hidden, 1, 0);
    let mut scores = uniform(2, seq * seq, 4.0);
    scores[5 * seq + 40] = -1e4;
    vpu.softmax_rows_batch(&mut scores, seq, Host, Exact);
    runs(seq as u64, seq, 1, 2);
    let mut tokens = uniform(3, seq * dim, 2.0);
    tokens[7 * dim + 100] = 2.2e12;
    vpu.layernorm_rows_batch(&mut tokens, dim, &gamma, &beta, 1e-6, Host, Exact);
    runs(2 * seq as u64, dim, 2, 2);
    assert_eq!(route::take_rows(), (4 * 196, 4), "{tier}");
}

/// The engine's VPU shards cut on the lanes' row groups: run shard by
/// shard on this thread, on every lane tier, a two-shard softmax or
/// LayerNorm of DeiT's 197 rows, and of the 21 rows of a small batch,
/// sends as many rows to the scalar kernels as the serial call, with the
/// serial call's bits and counts.
#[test]
#[cfg(target_arch = "x86_64")]
fn vpu_shards_keep_the_serial_lock_step_split() {
    use super::lanes::tests::route;
    use crate::engine::vpu_shard_groups;
    assert_eq!(vpu_shard_groups(197, 2), [96, 101]);
    assert_eq!(vpu_shard_groups(21, 2), [21]);
    let (gamma, beta) = (vec![1.1; 384], vec![0.2; 384]);
    for tier in exec_tiers() {
        for rows in [197, 21] {
            for (cols, softmax) in [(197, true), (384, false)] {
                let run = |vpu: &mut Vpu, m: &mut [f32]| {
                    on_tier(tier, || {
                        if softmax {
                            vpu.softmax_rows_batch(m, cols, Host, Exact);
                        } else {
                            vpu.layernorm_rows_batch(m, cols, &gamma, &beta, 1e-6, Host, Exact);
                        }
                    })
                };
                let src = uniform(rows as u64, rows * cols, 4.0);
                let (mut serial, mut vpu) = (src.clone(), Vpu::new());
                route::take_rows();
                run(&mut vpu, &mut serial);
                let want = route::take_rows();
                assert_eq!(want.1, 2, "{rows}x{cols} on {tier}");
                let (mut sharded, mut count) = (src, OpCount::default());
                let mut rest = &mut sharded[..];
                for groups in vpu_shard_groups(rows, 2) {
                    let (shard, tail) = std::mem::take(&mut rest).split_at_mut(groups * cols);
                    rest = tail;
                    let mut vpu = Vpu::new();
                    run(&mut vpu, shard);
                    count.merge(&vpu.count);
                }
                assert_eq!(route::take_rows(), want, "{rows}x{cols} on {tier}");
                assert_same("sharded", &sharded, &serial, count, vpu.count);
            }
        }
    }
}

/// Every f32 through the fast GELU batch route (the native lanes for
/// `|x| ≤ 6`, the scalar kernel beyond), 2¹⁶ consecutive patterns per
/// call, on every lane tier.
#[test]
#[cfg(target_arch = "x86_64")]
#[ignore = "2³² patterns per tier: release sweep, run by CI's envelope step"]
fn fast_gelu_route_equals_the_scalar_kernel_on_every_f32() {
    let sweep = |tier: Tier, chunks: std::ops::Range<u32>| {
        let mut vpu = Vpu::new();
        let mut src = vec![0f32; 1 << 16];
        for hi in chunks {
            for (lo, x) in src.iter_mut().enumerate() {
                *x = f32::from_bits(hi << 16 | lo as u32);
            }
            let mut got = src.clone();
            on_tier(tier, || vpu.gelu_slice(&mut got, Host, Fast));
            for (g, x) in got.iter().zip(&src) {
                let want = fast::Unit.gelu(*x).to_bits();
                assert_eq!(g.to_bits(), want, "gelu({x:e}) on {tier}");
            }
        }
    };
    for tier in exec_tiers() {
        std::thread::scope(|s| {
            s.spawn(|| sweep(tier, 0..1 << 15));
            s.spawn(|| sweep(tier, 1 << 15..1 << 16));
        });
    }
}

/// The exact GELU body on the lanes against [`Vpu::gelu`], in bits and
/// counts on every lane tier: every 97th f32 pattern of `|x| ≤ 6` in both
/// signs (2.2·10⁷), all of them on the lanes, then the regime's edges.
#[test]
#[cfg(target_arch = "x86_64")]
#[ignore = "2.2·10⁷ patterns: release sweep, run by CI's envelope step"]
fn exact_gelu_lanes_equal_the_scalar_kernel_on_a_dense_sweep() {
    for tier in exec_tiers() {
        exact_gelu_sweep_on(tier);
    }
}

#[cfg(target_arch = "x86_64")]
fn exact_gelu_sweep_on(tier: Tier) {
    use super::lanes::tests::route;
    let six = 6.0f32.to_bits();
    // Calls of 2¹⁶ patterns: 1 024 groups of 64 or 2 048 of 32 each, then
    // the last call's.
    let patterns = (six / 97 + 1) as usize;
    let groups = patterns / (1 << 16) * groups(tier, 1 << 16, false) as usize
        + groups(tier, patterns % (1 << 16), false) as usize;
    let sweep = |sign: u32| {
        let (mut batch, mut scalar) = (Vpu::new(), Vpu::new());
        let mut bits = (0..=six).step_by(97).map(|b| b | sign).peekable();
        route::take_groups();
        on_tier(tier, || {
            while bits.peek().is_some() {
                let src: Vec<f32> = bits.by_ref().take(1 << 16).map(f32::from_bits).collect();
                let mut got = src.clone();
                batch.gelu_slice(&mut got, Host, Exact);
                for (g, &x) in got.iter().zip(&src) {
                    assert_eq!(
                        g.to_bits(),
                        scalar.gelu(x).to_bits(),
                        "gelu({x:e}) on {tier}"
                    );
                }
            }
        });
        assert_eq!(batch.count, scalar.count);
        assert_eq!(route::take_groups(), (groups as u64, 0));
        let (zmm, ymm) = route::take_widths();
        assert_eq!(zmm + ymm, groups as u64);
        assert_eq!(zmm > 0, tier == Tier::Avx512, "{tier}: {zmm} zmm groups");
    };
    std::thread::scope(|s| {
        s.spawn(|| sweep(0));
        s.spawn(|| sweep(1 << 31));
    });

    // A group of each edge: ±6, ±0 and subnormals run on the lanes,
    // ±(6 + 1 ulp) does not.
    let edges = [
        (6.0, true),
        (-6.0, true),
        (0.0, true),
        (-0.0, true),
        (f32::from_bits(1), true),
        (f32::from_bits(0x807f_ffff), true),
        (f32::MIN_POSITIVE, true),
        (f32::from_bits(six + 1), false),
        (-f32::from_bits(six + 1), false),
    ];
    let n = element_group(tier);
    for (x, lanes) in edges {
        on_tier(tier, || {
            check_gelu(&Vpu::new(), &format!("edge {x:e} on {tier}"), &vec![x; n])
        });
        assert_eq!(route::take_groups(), (lanes as u64, !lanes as u64), "{x:e}");
        assert_eq!(route::take_widths(), widths(tier, n, false));
    }
}
