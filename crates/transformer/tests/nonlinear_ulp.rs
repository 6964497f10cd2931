//! The fast nonlinear kernels' error contract, in two halves:
//!
//! 1. **Oracle-twin goldens** — the `NonlinearMode::Exact` path must stay
//!    bit-identical to the pre-fast-path implementation. The hex vectors
//!    below were captured from the exact kernels before the fast path
//!    existed (`examples/golden_dump.rs`); any drift here is a silent
//!    change to the bit-level hardware model and fails the suite. The
//!    same dump pins the on-chip `tanh`, every fast-unit kernel and the
//!    reduced-precision formats' softmax and LayerNorm rows.
//!
//! 2. **Envelope sweeps** — every fast kernel carries a pinned
//!    [`UlpEnvelope`] against the exact oracle, and the envelope must
//!    hold across *every* oracle datapath rounding configuration
//!    (multiplier `Exact`/`DropLsp` × adder `Exact48`/`Truncate24`),
//!    including subnormals, ±0, clamp boundaries, and near-overflow.
//!    The pinned constants come from `examples/envelope_probe.rs`
//!    measurements with headroom; the documented table lives in
//!    DESIGN.md. Quick sweeps sample a strict subset of the probe grid;
//!    the `#[ignore]`d heavy sweeps (run in release in CI) use denser
//!    grids against 2x-relaxed envelopes.

use bfp_arith::redfp::RedFp;
use bfp_arith::ulp::{EnvelopeStats, UlpEnvelope};
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

// ---------------------------------------------------------------------------
// Pinned envelopes (see DESIGN.md "Fast nonlinear kernels" table).
// Measured worst cases in parentheses; pins carry ~1.5-2x headroom.
// The adder variant dominates the oracle's own rounding, so envelopes key
// on it; the multiplier variant measured no difference.
// ---------------------------------------------------------------------------

fn env_exp(add: AddVariant) -> UlpEnvelope {
    match add {
        AddVariant::Exact48 => UlpEnvelope::new(192, 0.0), // (92 ulp)
        AddVariant::Truncate24 => UlpEnvelope::new(256, 2.0e-3), // (256, 1.46e-3)
    }
}

fn env_tanh(add: AddVariant) -> UlpEnvelope {
    match add {
        AddVariant::Exact48 => UlpEnvelope::new(16, 2.0e-6), // (4, 1.44e-6)
        AddVariant::Truncate24 => UlpEnvelope::new(16, 2.0e-3), // (4, 1.59e-3)
    }
}

fn env_gelu(add: AddVariant) -> UlpEnvelope {
    match add {
        AddVariant::Exact48 => UlpEnvelope::new(16, 1.5e-6), // (4, 7.8e-7)
        AddVariant::Truncate24 => UlpEnvelope::new(16, 8.0e-4), // (4, 5.42e-4)
    }
}

fn env_rsqrt(_add: AddVariant) -> UlpEnvelope {
    UlpEnvelope::new(8, 1.0e-18) // (4, 2.7e-19): identical algorithm, subnormal tail only
}

fn env_softmax(add: AddVariant) -> UlpEnvelope {
    match add {
        AddVariant::Exact48 => UlpEnvelope::new(512, 5.0e-7), // (256, 4.2e-7)
        AddVariant::Truncate24 => UlpEnvelope::new(64, 8.0e-4), // (16, 3.6e-4)
    }
}

fn env_layernorm(_add: AddVariant) -> UlpEnvelope {
    UlpEnvelope::new(4096, 1.0e-4) // (1024, 5.3e-5) on either adder
}

/// Heavy sweeps run denser grids than the probe measured; give the pinned
/// envelope 2x slack there so the tight pins stay meaningful in the docs.
fn relax(env: UlpEnvelope) -> UlpEnvelope {
    UlpEnvelope::new(env.max_ulp * 2, env.abs_floor * 2.0)
}

// ---------------------------------------------------------------------------
// Sweep machinery
// ---------------------------------------------------------------------------

/// Stratified magnitudes: `per_binade` mantissa samples in every binade of
/// `[2^lo_exp, 2^hi_exp]`. With `per_binade` 16 this is a strict subset of
/// the 64-sample probe grid that measured the pinned envelopes.
fn grid(lo_exp: i32, hi_exp: i32, per_binade: u32) -> Vec<f32> {
    let stride = 0x0002_0821u32 * (64 / per_binade);
    let mut out = Vec::new();
    for e in lo_exp..=hi_exp {
        for m in 0..per_binade {
            out.push(f32::from_bits(
                (((e + 127) as u32) << 23) | ((m * stride) & 0x007f_ffff),
            ));
        }
    }
    out
}

fn check_scalar(
    name: &str,
    inputs: &[f32],
    env_of: impl Fn(AddVariant) -> UlpEnvelope,
    heavy: bool,
    f: impl Fn(&mut Vpu, f32) -> (f32, f32),
) {
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let env = if heavy { relax(env_of(av)) } else { env_of(av) };
        let mut stats = EnvelopeStats::new();
        for &x in inputs {
            let (got, want) = f(&mut vpu, x);
            assert!(
                stats.record(got, want, &env),
                "{name} {mv:?}/{av:?} x={x:e} ({:#010x}): fast {got:e} ({:#010x}) \
                 vs exact {want:e} ({:#010x}) outside {env:?}",
                x.to_bits(),
                got.to_bits(),
                want.to_bits(),
            );
        }
        assert_eq!(stats.violations, 0);
        assert!(stats.samples as usize == inputs.len());
    }
}

fn with_signs(mags: Vec<f32>) -> Vec<f32> {
    let mut v: Vec<f32> = mags.iter().flat_map(|&m| [m, -m]).collect();
    v.extend([0.0, -0.0]);
    v
}

// ---------------------------------------------------------------------------
// Envelope sweeps: scalar kernels, quick (every datapath, subnormals to
// near-overflow, clamp boundaries, ±0)
// ---------------------------------------------------------------------------

#[test]
fn exp_envelope_holds_across_round_modes() {
    let mut xs = with_signs(grid(-126, 6, 16));
    xs.extend([
        87.99,
        88.0,
        88.01,
        100.0,
        -86.99,
        -87.0,
        -87.01,
        -100.0,
        f32::from_bits(1), // smallest subnormal: e^x rounds to 1
        f32::MAX,          // clamp to +inf
        f32::MIN,          // clamp to 0
    ]);
    check_scalar("exp", &xs, env_exp, false, |v, x| {
        (fast::Unit.exp(x), v.exp(x))
    });
}

#[test]
fn tanh_envelope_holds_across_round_modes() {
    let mut xs = with_signs(grid(-126, 4, 16));
    xs.extend([
        14.99,
        15.0,
        15.01,
        -14.99,
        -15.0,
        -15.01,
        f32::MAX,
        f32::MIN,
    ]);
    // Both the on-chip oracle (NR reciprocal) and the host-division oracle.
    check_scalar("tanh/onchip", &xs, env_tanh, false, |v, x| {
        (fast::Unit.tanh(x), v.onchip().tanh(x))
    });
    check_scalar("tanh/host", &xs, env_tanh, false, |v, x| {
        (fast::Unit.tanh(x), v.tanh(x))
    });
}

#[test]
fn gelu_envelope_holds_across_round_modes() {
    let mut xs = with_signs(grid(-126, 5, 16));
    xs.extend([f32::MAX, f32::MIN, f32::from_bits(1), -f32::from_bits(1)]);
    check_scalar("gelu/onchip", &xs, env_gelu, false, |v, x| {
        (fast::Unit.gelu(x), v.onchip().gelu(x))
    });
    check_scalar("gelu/host", &xs, env_gelu, false, |v, x| {
        (fast::Unit.gelu(x), v.gelu(x))
    });
}

#[test]
fn rsqrt_envelope_holds_across_round_modes() {
    let mut xs = grid(-126, 127, 16);
    xs.extend([0.0, f32::from_bits(1), f32::MAX]);
    check_scalar("rsqrt", &xs, env_rsqrt, false, |v, x| {
        (fast::Unit.rsqrt(x), v.onchip().rsqrt_nr(x))
    });
}

// ---------------------------------------------------------------------------
// Envelope sweeps: row kernels
// ---------------------------------------------------------------------------

fn softmax_rows_within(
    seeds: std::ops::Range<usize>,
    sizes: &[usize],
    scales: &[f32],
    heavy: bool,
) {
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let base = env_softmax(av);
        let env = if heavy { relax(base) } else { base };
        for &n in sizes {
            for seed in seeds.clone() {
                for &scale in scales {
                    let row: Vec<f32> = (0..n)
                        .map(|k| ((k + seed * 31) as f32 * 0.61).sin() * scale)
                        .collect();
                    let mut a = row.clone();
                    let mut b = row.clone();
                    fast::Unit.softmax_row(&mut a);
                    vpu.softmax_rows_batch(&mut b, n, DivisionPolicy::OnChip, NonlinearMode::Exact);
                    for (g, w) in a.iter().zip(&b) {
                        assert!(
                            env.admits(*g, *w),
                            "softmax {mv:?}/{av:?} n={n} seed={seed} scale={scale}: \
                             {g:e} vs {w:e} outside {env:?}"
                        );
                    }
                }
            }
        }
    }
}

fn layernorm_rows_within(seeds: std::ops::Range<usize>, sizes: &[usize], heavy: bool) {
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let base = env_layernorm(av);
        let env = if heavy { relax(base) } else { base };
        for &n in sizes {
            for seed in seeds.clone() {
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
                    assert!(
                        env.admits(*g, *w),
                        "layernorm {mv:?}/{av:?} n={n} seed={seed}: \
                         {g:e} vs {w:e} outside {env:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn softmax_row_envelope_holds_across_round_modes() {
    softmax_rows_within(0..8, &[7, 33, 197], &[0.5, 4.0, 20.0], false);
}

#[test]
fn layernorm_row_envelope_holds_across_round_modes() {
    layernorm_rows_within(0..8, &[8, 48, 384], false);
}

// ---------------------------------------------------------------------------
// Clamp-region contract: the fast kernels must agree with the exact path
// *bit for bit* where the hardware saturates (the envelope treats any
// non-finite mismatch as a violation, but the saturated finite regions
// deserve an explicit pin too).
// ---------------------------------------------------------------------------

#[test]
fn clamp_regions_are_bit_identical_to_exact() {
    let mut vpu = Vpu::new();
    for x in [88.001f32, 200.0, f32::MAX] {
        assert_eq!(fast::Unit.exp(x).to_bits(), vpu.exp(x).to_bits());
        assert_eq!(fast::Unit.exp(x), f32::INFINITY);
    }
    for x in [-87.001f32, -200.0, f32::MIN] {
        assert_eq!(fast::Unit.exp(x).to_bits(), vpu.exp(x).to_bits());
        assert_eq!(fast::Unit.exp(x), 0.0);
    }
    for x in [15.001f32, 1.0e4, f32::MAX] {
        assert_eq!(fast::Unit.tanh(x).to_bits(), vpu.onchip().tanh(x).to_bits());
        assert_eq!(
            fast::Unit.tanh(-x).to_bits(),
            vpu.onchip().tanh(-x).to_bits()
        );
    }
    // GELU passes large positives through and flushes large negatives to
    // a signed zero; both ends must match the oracle exactly.
    for x in [9.1f32, 64.0, f32::MAX] {
        assert_eq!(fast::Unit.gelu(x).to_bits(), vpu.onchip().gelu(x).to_bits());
        assert_eq!(
            fast::Unit.gelu(-x).to_bits(),
            vpu.onchip().gelu(-x).to_bits()
        );
    }
    assert_eq!(fast::Unit.rsqrt(0.0), f32::INFINITY);
    assert_eq!(vpu.onchip().rsqrt_nr(0.0), f32::INFINITY);
}

// ---------------------------------------------------------------------------
// Heavy sweeps (release CI): dense stratified grids + a deterministic LCG
// walk over raw bit patterns. 2x-relaxed envelopes (see `relax`).
// ---------------------------------------------------------------------------

#[test]
#[ignore = "heavy sweep: run in release (CI ulp-suite job)"]
fn heavy_exp_envelope_dense_grid() {
    let xs = with_signs(grid(-126, 6, 64));
    check_scalar("exp", &xs, env_exp, true, |v, x| {
        (fast::Unit.exp(x), v.exp(x))
    });
}

#[test]
#[ignore = "heavy sweep: run in release (CI ulp-suite job)"]
fn heavy_tanh_gelu_envelope_dense_grid() {
    let mut xs = with_signs(grid(-126, 4, 64));
    xs.extend([14.999f32, -14.999]);
    check_scalar("tanh/onchip", &xs, env_tanh, true, |v, x| {
        (fast::Unit.tanh(x), v.onchip().tanh(x))
    });
    let xs = with_signs(grid(-126, 5, 64));
    check_scalar("gelu/onchip", &xs, env_gelu, true, |v, x| {
        (fast::Unit.gelu(x), v.onchip().gelu(x))
    });
}

#[test]
#[ignore = "heavy sweep: run in release (CI ulp-suite job)"]
fn heavy_rsqrt_envelope_dense_grid() {
    let xs = grid(-126, 127, 64);
    check_scalar("rsqrt", &xs, env_rsqrt, true, |v, x| {
        (fast::Unit.rsqrt(x), v.onchip().rsqrt_nr(x))
    });
}

#[test]
#[ignore = "heavy sweep: run in release (CI ulp-suite job)"]
fn heavy_exp_gelu_lcg_bit_patterns() {
    // Deterministic LCG over raw f32 bit patterns: catches anything the
    // stratified grids' fixed mantissa stride could systematically miss.
    let mut state = 0x243f_6a88u32; // pi fraction bits; fixed seed
    let mut n = 0u32;
    for (mv, av) in DATAPATHS {
        let mut vpu = Vpu::with_datapath(mv, av);
        let (eexp, egelu) = (relax(env_exp(av)), relax(env_gelu(av)));
        while n < 200_000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let x = f32::from_bits(state);
            if x.is_nan() {
                continue; // NaN propagation is outside the kernel contract
            }
            n += 1;
            let (g, w) = (fast::Unit.exp(x), vpu.exp(x));
            assert!(
                eexp.admits(g, w),
                "exp {mv:?}/{av:?} x={x:e}: {g:e} vs {w:e}"
            );
            let (g, w) = (fast::Unit.gelu(x), vpu.onchip().gelu(x));
            assert!(
                egelu.admits(g, w),
                "gelu {mv:?}/{av:?} x={x:e}: {g:e} vs {w:e}"
            );
        }
        n = 0;
    }
}

#[test]
#[ignore = "heavy sweep: run in release (CI ulp-suite job)"]
fn heavy_row_kernel_envelopes() {
    softmax_rows_within(
        0..32,
        &[3, 7, 33, 64, 197, 384],
        &[0.25, 1.0, 4.0, 20.0, 64.0],
        true,
    );
    layernorm_rows_within(0..32, &[3, 8, 48, 197, 384], true);
}

// ---------------------------------------------------------------------------
// Oracle-twin goldens: Exact mode vs pre-PR captured bits
// ---------------------------------------------------------------------------

const GOLDEN_XS: [f32; 16] = [
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

const GOLDEN_GELU_HOST: [u32; 16] = [
    0x80000000, 0xbaf50000, 0xbe229e8c, 0xbd6688ca, 0xb50637b5, 0x80000000, 0x00000000, 0x350637c3,
    0x3e54a63c, 0x3f57585a, 0x402c3b2f, 0x409fffff, 0x4111999a, 0x00000000, 0x7f7fffff, 0x80000000,
];

const GOLDEN_GELU_ONCHIP: [u32; 16] = [
    0x80000000, 0xbaf50666, 0xbe229e8c, 0xbd6688cc, 0xb50637b6, 0x80000000, 0x00000000, 0x350637c3,
    0x3e54a63c, 0x3f57585a, 0x402c3b2f, 0x409fffff, 0x4111999a, 0x00000000, 0x7f7fffff, 0x80000000,
];

const GOLDEN_EXP: [u32; 16] = [
    0x39555a27, 0x3d26f642, 0x3ebc5aa0, 0x3f61eb51, 0x3f7fffef, 0x3f800000, 0x3f800000, 0x3f800008,
    0x3fb20b2e, 0x402df849, 0x416e1361, 0x431469c1, 0x460bed2b, 0x3f800000, 0x7f800000, 0x00000000,
];

const GOLDEN_TANH: [u32; 16] = [
    0xbf800000, 0xbf7f2694, 0xbf42f7d8, 0xbdfeace0, 0xb5900000, 0x00000000, 0x00000000, 0x35800000,
    0x3ea31528, 0x3f42f7d5, 0x3f7db2aa, 0x3f7ffa0c, 0x3f7fffff, 0x00000000, 0x3f800000, 0xbf800000,
];

/// `None` marks negative inputs, where rsqrt is undefined (the exact
/// kernel host-escapes them; the fast kernel panics by contract).
const GOLDEN_RSQRT: [Option<u32>; 16] = [
    None,
    None,
    None,
    None,
    None,
    Some(0x7f800000), // -0.0 -> +inf (rsqrt treats both zeros as zero)
    Some(0x7f800000),
    Some(0x447a0000),
    Some(0x3fded1c3),
    Some(0x3f7ffffe),
    Some(0x3f1bcbf0),
    Some(0x3ee4f92e),
    Some(0x3ea9b9f2),
    Some(0x7f800000),
    Some(0x9ff02cf4), // NR seed overshoots at the range edge; pinned as-is
    None,
];

const GOLDEN_SOFTMAX_HOST: [u32; 11] = [
    0x3c0c3a34, 0x3dad58c4, 0x3ebb871e, 0x3ed1543a, 0x3de7ba58, 0x3c4a2c45, 0x3a9a94ad, 0x397195e0,
    0x392dda21, 0x3a01bbf9, 0x3b875623,
];

const GOLDEN_SOFTMAX_CHIP: [u32; 11] = [
    0x3c0c3a33, 0x3dad58c3, 0x3ebb871d, 0x3ed15439, 0x3de7ba57, 0x3c4a2c44, 0x3a9a94ac, 0x397195de,
    0x392dda20, 0x3a01bbf9, 0x3b875622,
];

const GOLDEN_LAYERNORM: [u32; 11] = [
    0x3f8118ff, 0x3fe7b051, 0x400f068d, 0x40058598, 0x3fad29bc, 0x3e6175b1, 0xbf7c73d4, 0xbff4709b,
    0xc01241c8, 0xc001f3f6, 0xbfa30450,
];

const GOLDEN_TANH_ONCHIP: [u32; 16] = [
    0xbf7ffffc, 0xbf7f2694, 0xbf42f7d6, 0xbdfeacd0, 0xb5800000, 0x34000000, 0x34000000, 0x35800000,
    0x3ea3152a, 0x3f42f7d5, 0x3f7db2aa, 0x3f7ffa0c, 0x3f7fffff, 0x34000000, 0x3f800000, 0xbf800000,
];

// The fast unit's kernels on the same inputs and rows.

const GOLDEN_FAST_EXP: [u32; 16] = [
    0x39555a1f, 0x3d26f643, 0x3ebc5ab2, 0x3f61eb50, 0x3f7fffec, 0x3f800000, 0x3f800000, 0x3f800008,
    0x3fb20b3f, 0x402df854, 0x416e1362, 0x431469c5, 0x460bed2b, 0x3f800000, 0x7f800000, 0x00000000,
];

const GOLDEN_FAST_TANH: [u32; 16] = [
    0xbf800000, 0xbf7f2694, 0xbf42f7d4, 0xbdfeacd0, 0xb5900000, 0x00000000, 0x00000000, 0x35800000,
    0x3ea31526, 0x3f42f7d5, 0x3f7db2aa, 0x3f7ffa0d, 0x3f800000, 0x00000000, 0x3f800000, 0xbf800000,
];

const GOLDEN_FAST_GELU: [u32; 16] = [
    0x80000000, 0xbaf50ccd, 0xbe229e90, 0xbd6688cc, 0xb50637b5, 0x80000000, 0x00000000, 0x350637c3,
    0x3e54a63c, 0x3f57585c, 0x402c3b2f, 0x409fffff, 0x4111999a, 0x00000000, 0x7f7fffff, 0x80000000,
];

/// `None` where the input is negative (the fast rsqrt panics there).
const GOLDEN_FAST_RSQRT: [Option<u32>; 16] = [
    None,
    None,
    None,
    None,
    None,
    Some(0x7f800000),
    Some(0x7f800000),
    Some(0x447a0001),
    Some(0x3fded1c4),
    Some(0x3f7fffff),
    Some(0x3f1bcbf1),
    Some(0x3ee4f92d),
    Some(0x3ea9b9f1),
    Some(0x7f800000),
    Some(0x1f7ffffe),
    None,
];

const GOLDEN_FAST_SOFTMAX: [u32; 11] = [
    0x3c0c3a33, 0x3dad58be, 0x3ebb8717, 0x3ed15434, 0x3de7ba50, 0x3c4a2c40, 0x3a9a94b0, 0x397195cf,
    0x392dda14, 0x3a01bbf8, 0x3b875622,
];

const GOLDEN_FAST_LAYERNORM: [u32; 11] = [
    0x3f8118ff, 0x3fe7b052, 0x400f068e, 0x40058598, 0x3fad29bd, 0x3e6175ad, 0xbf7c73d8, 0xbff4709c,
    0xc01241c9, 0xc001f3f8, 0xbfa30451,
];

/// `(format, softmax digest, layernorm digest)` of the reduced-precision
/// rows on `extension_futurework`'s 384-wide inputs (see [`digest`]).
const GOLDEN_REDFP: [(&str, u64, u64); 5] = [
    ("fp32", 0xcfe16979a2ecb07e, 0x15c6fb3ce8da8abc),
    ("fp24", 0x996831d7c1c58e28, 0x7af601bf2a3809eb),
    ("tf32", 0x65c3a62e083b2854, 0x2c072a6574a48ff9),
    ("bf16", 0x564c3d30ea5c7d33, 0xbe52e18906fdc369),
    ("fp16", 0xb7db5e721141d303, 0x6ab05ef9aa8b9b25),
];

/// FNV-1a over a row's bit patterns: one word pins a 384-wide row.
fn digest(row: &[f32]) -> u64 {
    row.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn golden_row() -> Vec<f32> {
    (0..11).map(|k| (k as f32 * 0.61).sin() * 4.0).collect()
}

#[test]
fn exact_scalar_kernels_match_pre_fast_path_goldens() {
    let mut vpu = Vpu::new();
    for (i, &x) in GOLDEN_XS.iter().enumerate() {
        assert_eq!(vpu.gelu(x).to_bits(), GOLDEN_GELU_HOST[i], "gelu x={x:e}");
        assert_eq!(
            vpu.onchip().gelu(x).to_bits(),
            GOLDEN_GELU_ONCHIP[i],
            "gelu_onchip x={x:e}"
        );
        assert_eq!(vpu.exp(x).to_bits(), GOLDEN_EXP[i], "exp x={x:e}");
        assert_eq!(vpu.tanh(x).to_bits(), GOLDEN_TANH[i], "tanh x={x:e}");
        if let Some(bits) = GOLDEN_RSQRT[i] {
            assert_eq!(vpu.onchip().rsqrt_nr(x).to_bits(), bits, "rsqrt x={x:e}");
        }
    }
}

#[test]
fn exact_batched_kernels_match_pre_fast_path_goldens() {
    // The batched entry points in Exact mode must hit the same scalar
    // kernels — byte for byte — regardless of how dispatch was hoisted.
    let mut vpu = Vpu::new();
    for (div, golden) in [
        (DivisionPolicy::Host, &GOLDEN_SOFTMAX_HOST),
        (DivisionPolicy::OnChip, &GOLDEN_SOFTMAX_CHIP),
    ] {
        let mut r = golden_row();
        vpu.softmax_rows_batch(&mut r, 11, div, NonlinearMode::Exact);
        let bits: Vec<u32> = r.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&bits[..], &golden[..], "softmax {div:?}");
    }
    let gamma: Vec<f32> = (0..11).map(|j| 1.0 + j as f32 * 0.01).collect();
    let beta: Vec<f32> = (0..11).map(|j| (j as f32 * 0.3).cos()).collect();
    for div in [DivisionPolicy::Host, DivisionPolicy::OnChip] {
        let mut r = golden_row();
        vpu.layernorm_rows_batch(&mut r, 11, &gamma, &beta, 1e-6, div, NonlinearMode::Exact);
        let bits: Vec<u32> = r.iter().map(|v| v.to_bits()).collect();
        // Host and OnChip layernorm agreed bitwise on this row at capture.
        assert_eq!(&bits[..], &GOLDEN_LAYERNORM[..], "layernorm {div:?}");
    }
    let mut g = GOLDEN_XS.to_vec();
    vpu.gelu_slice(&mut g, DivisionPolicy::Host, NonlinearMode::Exact);
    let bits: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
    assert_eq!(&bits[..], &GOLDEN_GELU_HOST[..], "gelu_slice host");
    let mut g = GOLDEN_XS.to_vec();
    vpu.gelu_slice(&mut g, DivisionPolicy::OnChip, NonlinearMode::Exact);
    let bits: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
    assert_eq!(&bits[..], &GOLDEN_GELU_ONCHIP[..], "gelu_slice onchip");
}

#[test]
fn onchip_tanh_and_fast_kernels_match_their_goldens() {
    let mut vpu = Vpu::new();
    for (i, &x) in GOLDEN_XS.iter().enumerate() {
        let onchip = vpu.onchip().tanh(x).to_bits();
        assert_eq!(onchip, GOLDEN_TANH_ONCHIP[i], "tanh_onchip x={x:e}");
        assert_eq!(
            fast::Unit.exp(x).to_bits(),
            GOLDEN_FAST_EXP[i],
            "fast exp x={x:e}"
        );
        assert_eq!(
            fast::Unit.tanh(x).to_bits(),
            GOLDEN_FAST_TANH[i],
            "fast tanh x={x:e}"
        );
        assert_eq!(
            fast::Unit.gelu(x).to_bits(),
            GOLDEN_FAST_GELU[i],
            "fast gelu x={x:e}"
        );
        if let Some(want) = GOLDEN_FAST_RSQRT[i] {
            assert_eq!(fast::Unit.rsqrt(x).to_bits(), want, "fast rsqrt x={x:e}");
        }
    }
    let mut r = golden_row();
    fast::Unit.softmax_row(&mut r);
    assert_eq!(bits(&r), GOLDEN_FAST_SOFTMAX, "fast softmax row");
    let mut r = golden_row();
    vpu.softmax_rows_batch(&mut r, 11, DivisionPolicy::Host, NonlinearMode::Fast);
    assert_eq!(bits(&r), GOLDEN_FAST_SOFTMAX, "fast softmax batch");
    let gamma: Vec<f32> = (0..11).map(|j| 1.0 + j as f32 * 0.01).collect();
    let beta: Vec<f32> = (0..11).map(|j| (j as f32 * 0.3).cos()).collect();
    let mut r = golden_row();
    fast::Unit.layernorm_row(&mut r, &gamma, &beta, 1e-6);
    assert_eq!(bits(&r), GOLDEN_FAST_LAYERNORM, "fast layernorm row");
    let mut r = golden_row();
    let (div, mode) = (DivisionPolicy::Host, NonlinearMode::Fast);
    vpu.layernorm_rows_batch(&mut r, 11, &gamma, &beta, 1e-6, div, mode);
    assert_eq!(bits(&r), GOLDEN_FAST_LAYERNORM, "fast layernorm batch");
}

#[test]
fn reduced_precision_rows_match_their_goldens() {
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
    for ((name, mut f), (want_name, want_sm, want_ln)) in
        RedFp::PRESETS.into_iter().zip(GOLDEN_REDFP)
    {
        assert_eq!(name, want_name);
        let (mut sm, mut ln) = (sm_src.clone(), ln_src.clone());
        f.softmax_row(&mut sm);
        f.layernorm_row(&mut ln, &gamma, &beta, 1e-6);
        assert_eq!(digest(&sm), want_sm, "{name} softmax row");
        assert_eq!(digest(&ln), want_ln, "{name} layernorm row");
    }
}
