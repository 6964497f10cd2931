//! The lane datapath (`bfp_arith::fplanes`) against its scalar oracle,
//! `HwFp32Mul::new(DropLsp)` / `HwFp32Add::new(Exact48)`, bit for bit: a
//! seeded sweep plus directed cases that each pin one rule of the
//! datapath. On a host without AVX2 both sides are the scalar code and
//! the file passes vacuously.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fplanes::{add_slices, mul_slices};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant};

fn hw_mul(x: f32, y: f32) -> f32 {
    HwFp32Mul::new(MulVariant::DropLsp).mul(x, y)
}

fn hw_add(x: f32, y: f32) -> f32 {
    HwFp32Add::new(AddVariant::Exact48).add(x, y)
}

/// Run `cases` through a slice entry point in both operand orders —
/// padded to whole vectors so every finite case takes the lane path — and
/// compare with the scalar oracle. Returns the lane results in case order.
fn check(
    what: &str,
    cases: &[(f32, f32)],
    slices: fn(&[f32], &[f32], &mut [f32]),
    oracle: fn(f32, f32) -> f32,
) -> Vec<f32> {
    let mut x: Vec<f32> = cases.iter().map(|c| c.0).collect();
    let mut y: Vec<f32> = cases.iter().map(|c| c.1).collect();
    while !x.len().is_multiple_of(4) {
        x.push(1.0);
        y.push(1.0);
    }
    assert!(
        x.iter().chain(&y).all(|v| v.is_finite()),
        "directed cases must be finite to reach the lanes"
    );
    let mut fwd = vec![0f32; x.len()];
    let mut rev = vec![0f32; x.len()];
    slices(&x, &y, &mut fwd);
    slices(&y, &x, &mut rev);
    for i in 0..cases.len() {
        let (a, b) = cases[i];
        assert_eq!(
            fwd[i].to_bits(),
            oracle(a, b).to_bits(),
            "{what}: {a:e} ({:#010x}) op {b:e} ({:#010x}): lanes {:e}, scalar {:e}",
            a.to_bits(),
            b.to_bits(),
            fwd[i],
            oracle(a, b)
        );
        assert_eq!(
            rev[i].to_bits(),
            oracle(b, a).to_bits(),
            "{what} (swapped): {b:e} op {a:e}: lanes {:e}, scalar {:e}",
            rev[i],
            oracle(b, a)
        );
    }
    fwd.truncate(cases.len());
    fwd
}

fn check_mul(cases: &[(f32, f32)]) -> Vec<f32> {
    check("mul", cases, mul_slices, hw_mul)
}

fn check_add(cases: &[(f32, f32)]) -> Vec<f32> {
    check("add", cases, add_slices, hw_add)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const NEG_ZERO: u32 = 0x8000_0000;
const INF: u32 = 0x7f80_0000;
const NEG_INF: u32 = 0xff80_0000;

/// `sign · 1.frac · 2^(exp − 127)` from its three fields.
fn fp(sign: u32, exp: u32, frac: u32) -> f32 {
    f32::from_bits((sign << 31) | (exp << 23) | (frac & 0x7f_ffff))
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One operand pair of the sweep. Four families: uniform bit patterns
/// (NaN, infinities and subnormals included — those groups exercise the
/// fallback), exponent gaps 0..=59 around the 48-bit window, same-exponent
/// opposite-sign near-cancellation, and exponents within 30 of either end
/// of the range (subnormal inputs, flushed and saturated results).
fn sweep_pair(rng: &mut SplitMix64) -> (f32, f32) {
    let (a, b) = (rng.next(), rng.next());
    let (sx, sy) = ((a >> 63) as u32, (b >> 63) as u32);
    let (fx, fy) = (a as u32, b as u32);
    match (a >> 40) % 4 {
        0 => (f32::from_bits(fx), f32::from_bits(fy)),
        1 => {
            let gap = ((b >> 40) % 60) as u32;
            let ex = 60 + ((a >> 48) % 190) as u32;
            (fp(sx, ex, fx), fp(sy, ex - gap, fy))
        }
        2 => {
            let ex = 1 + ((a >> 48) % 254) as u32;
            let flip = 1u32 << ((b >> 40) % 23);
            (fp(sx, ex, fx), fp(1 - sx, ex, fx ^ (flip - 1) & fy))
        }
        _ => {
            let end = |r: u64| {
                let e = (r % 31) as u32;
                if r & (1 << 20) == 0 {
                    e
                } else {
                    254 - e
                }
            };
            (fp(sx, end(a >> 41), fx), fp(sy, end(b >> 41), fy))
        }
    }
}

fn sweep(seed: u64, pairs: usize) {
    const BATCH: usize = 4096;
    let mut rng = SplitMix64(seed);
    let (mut x, mut y) = (vec![0f32; BATCH], vec![0f32; BATCH]);
    let (mut prod, mut sum) = (vec![0f32; BATCH], vec![0f32; BATCH]);
    for _ in 0..pairs.div_ceil(BATCH) {
        for i in 0..BATCH {
            (x[i], y[i]) = sweep_pair(&mut rng);
        }
        mul_slices(&x, &y, &mut prod);
        add_slices(&x, &y, &mut sum);
        for i in 0..BATCH {
            let (a, b) = (x[i], y[i]);
            assert_eq!(
                prod[i].to_bits(),
                hw_mul(a, b).to_bits(),
                "{:#010x} * {:#010x}",
                a.to_bits(),
                b.to_bits()
            );
            assert_eq!(
                sum[i].to_bits(),
                hw_add(a, b).to_bits(),
                "{:#010x} + {:#010x}",
                a.to_bits(),
                b.to_bits()
            );
        }
    }
}

#[test]
fn seeded_sweep_matches_the_scalar_datapath() {
    // 10⁷ pairs optimised; an unoptimised build walks a tenth of them.
    sweep(
        0x5eed_0001,
        if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        },
    );
}

#[test]
#[ignore = "heavy: 10⁸ pairs; CI runs it in release with -- --ignored"]
fn heavy_seeded_sweep_matches_the_scalar_datapath() {
    sweep(0x5eed_0002, 100_000_000);
}

#[test]
fn add_truncates_the_aligned_operand_at_every_window_gap() {
    // All-ones mantissas make every shifted-out bit a one, so a wrong
    // truncation point or a rounding adder shows. Gap 47 keeps exactly
    // the small operand's hidden bit, 48 and beyond contribute nothing.
    let mut cases = Vec::new();
    for gap in [0u32, 1, 23, 24, 47, 48, 49, 200] {
        for (sx, sy) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            cases.push((fp(sx, 230, 0x7f_ffff), fp(sy, 230 - gap, 0x7f_ffff)));
            cases.push((fp(sx, 230, 0x00_0001), fp(sy, 230 - gap, 0x55_5555)));
        }
    }
    check_add(&cases);
    let big = fp(0, 230, 0);
    let got = check_add(&[
        (big, fp(1, 230 - 47, 0x7f_ffff)),
        (big, fp(1, 230 - 48, 0x7f_ffff)),
        (big, fp(1, 30, 0x7f_ffff)),
    ]);
    // 2^103·(2^24 − 2^-23·k): only gap 47 still borrows from the window.
    assert_eq!(got[0].to_bits(), fp(0, 229, 0x7f_ffff).to_bits());
    assert_eq!(got[1].to_bits(), big.to_bits());
    assert_eq!(got[2].to_bits(), big.to_bits());
}

#[test]
fn add_zero_and_cancellation_signs_follow_the_adder() {
    let got = check_add(&[
        (1.5, -1.5),
        (-1.5, 1.5),
        (-0.0, -0.0),
        (0.0, -0.0),
        (-0.0, 0.0),
        (0.0, 0.0),
        (-0.0, 2.5),
        (fp(0, 1, 0x12_3456), fp(1, 1, 0x12_3456)),
        (fp(0, 254, 0x7f_ffff), fp(1, 254, 0x7f_ffff)),
    ]);
    assert_eq!(
        bits(&got),
        [0, 0, NEG_ZERO, 0, 0, 0, 2.5f32.to_bits(), 0, 0],
        "exact cancellation is +0; only (−0)+(−0) keeps the minus"
    );
}

#[test]
fn subnormal_operands_are_flushed_on_entry() {
    let sub = f32::from_bits(0x007f_ffff); // largest subnormal
    let tiny = f32::from_bits(1);
    let got = check_add(&[
        (sub, 1.0),
        (sub, f32::MIN_POSITIVE),
        (-sub, -tiny),
        (sub, -tiny),
        (sub, sub),
        (-sub, f32::MIN_POSITIVE),
    ]);
    assert_eq!(
        bits(&got),
        [
            1.0f32.to_bits(),
            f32::MIN_POSITIVE.to_bits(),
            NEG_ZERO,
            0,
            0,
            f32::MIN_POSITIVE.to_bits()
        ]
    );
    let got = check_mul(&[
        (sub, 3.0),
        (-sub, 3.0),
        (sub, -1e38),
        (-tiny, -1e38),
        (sub, sub),
    ]);
    assert_eq!(bits(&got), [0, NEG_ZERO, NEG_ZERO, 0, 0]);
}

#[test]
fn results_below_the_smallest_normal_flush_and_keep_their_sign() {
    let min = f32::MIN_POSITIVE; // 2^-126
    let got = check_add(&[
        (fp(1, 1, 0x40_0000), min), // −1.5m + m = −0.5m
        (fp(0, 2, 0), fp(1, 1, 1)), // 2m − m(1+ulp): one ulp under
        (fp(0, 2, 0), fp(1, 1, 0)), // 2m − m = m exactly
        (fp(1, 2, 1), min),         // −2m(1+ulp) + m: one ulp over
        (fp(0, 1, 0x7f_ffff), fp(1, 1, 0x7f_fffe)),
    ]);
    assert_eq!(
        bits(&got),
        [NEG_ZERO, 0, min.to_bits(), fp(1, 1, 2).to_bits(), 0]
    );
    let h = fp(0, 64, 0); // 2^-63
    let got = check_mul(&[
        (h, h),                    // 2^-126 exactly
        (fp(1, 63, 0x7f_ffff), h), // one ulp under, negative
        (fp(0, 63, 0x7f_ffff), h),
        (fp(1, 64, 1), h), // one ulp over
        (min, 0.5),
        (fp(0, 1, 0x7f_ffff), fp(1, 126, 0x7f_ffff)), // (2−ulp)(1−ulp/2)m: still ≥ m
    ]);
    assert_eq!(
        bits(&got),
        [
            min.to_bits(),
            NEG_ZERO,
            0,
            fp(1, 1, 1).to_bits(),
            0,
            hw_mul(fp(0, 1, 0x7f_ffff), fp(1, 126, 0x7f_ffff)).to_bits()
        ]
    );
    assert!(got[5] < 0.0 && got[5].is_normal());
}

#[test]
fn results_saturate_from_two_pow_128() {
    let max = f32::MAX; // 2^128 − 2^104
    let got = check_add(&[
        (max, fp(0, 230, 0x7f_ffff)), // + just under 2^104: truncates back to MAX
        (max, fp(0, 231, 0)),         // + 2^104 = 2^128
        (-max, fp(1, 231, 0)),
        (max, max),
        (max, fp(0, 254, 0)),
        (-max, -max),
    ]);
    assert_eq!(bits(&got), [max.to_bits(), INF, NEG_INF, INF, INF, NEG_INF]);
    let h = fp(0, 191, 0); // 2^64
    let got = check_mul(&[
        (h, h),                     // 2^128 exactly
        (fp(0, 190, 0x7f_ffff), h), // one ulp under
        (fp(1, 190, 0x7f_ffff), h),
        (max, -2.0),
        (max, 1.0),
        (fp(0, 190, 0x7f_ffff), fp(0, 191, 1)), // (2−ulp)(1+ulp)·2^127 ≥ 2^128
    ]);
    assert_eq!(
        bits(&got),
        [
            INF,
            max.to_bits(),
            (-max).to_bits(),
            NEG_INF,
            max.to_bits(),
            INF
        ]
    );
}

#[test]
fn mul_zero_signs_come_from_the_xor_gate() {
    let got = check_mul(&[
        (0.0, -3.0),
        (-0.0, -0.0),
        (-0.0, 3.0),
        (0.0, 3.0),
        (3.0, -0.0),
        (-0.0, 0.0),
        (0.0, fp(1, 1, 0x7f_ffff)),
    ]);
    assert_eq!(
        bits(&got),
        [NEG_ZERO, 0, NEG_ZERO, 0, NEG_ZERO, NEG_ZERO, NEG_ZERO]
    );
}

#[test]
fn mul_carry_boundary_and_dropped_partial_product() {
    // Largest dropped term: man(0)·man(0) = 255·255, alone and on top
    // of full mantissas.
    check_mul(&[
        (fp(0, 127, 0xff), fp(0, 127, 0xff)),
        (fp(0, 127, 0x7f_ffff), fp(1, 127, 0x7f_ffff)),
        (fp(0, 127, 0x7f_ffff), fp(0, 127, 0xff)),
        (fp(0, 127, 0xff), fp(0, 127, 0)),
    ]);
    // Walk mantissa products across 2^47 (the normalise-carry boundary):
    // every man_x with man(0) = 0xff against the three man_y around
    // 2^47 / man_x — and prove the walk contains products that only the
    // dropped term pulls back under the carry.
    let mut cases = Vec::new();
    let mut pulled_under = 0;
    for k in 0..1u64 << 15 {
        let mx = (1 << 23) | (k << 8) | 0xff;
        let my0 = (1u64 << 47).div_ceil(mx);
        for my in my0 - 1..=my0 + 1 {
            let full = mx * my;
            if full >= 1 << 47 && full - 0xff * (my & 0xff) < 1 << 47 {
                pulled_under += 1;
            }
            cases.push((fp(0, 100, mx as u32), fp(1, 140, my as u32)));
        }
    }
    assert!(
        pulled_under > 16,
        "the walk must straddle the carry on the dropped term"
    );
    check_mul(&cases);
}

#[test]
fn round_magic_round_trips_floor_through_the_truncating_adder() {
    // `Vpu::exp` rounds t to an integer as (t + 0.5 + M) − M with
    // M = 1.5·2^23: the add pushes the fraction off the mantissa, the
    // truncating adder floors it (toward −inf for negative t, because
    // the sum's magnitude shrinks), the subtract is exact.
    const MAGIC: f32 = 12_582_912.0;
    let ts = [
        2.7f32, -2.3, 0.49999997, -0.5, 126.99999, -125.5, 1e-30, -1e-30,
    ];
    let pairs: Vec<(f32, f32)> = ts.iter().map(|&t| (hw_add(t, 0.5), MAGIC)).collect();
    let shifted = check_add(&pairs);
    let back: Vec<(f32, f32)> = shifted.iter().map(|&s| (s, -MAGIC)).collect();
    let kf = check_add(&back);
    assert_eq!(kf, [3.0, -2.0, 0.0, 0.0, 127.0, -125.0, 0.0, 0.0]);
}
