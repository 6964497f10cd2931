//! The fused quantize-pack (`PackedBfp::quantize_pack_{lhs,rhs}`, on an
//! AVX2 host the lane tile quantiser) against its oracle, the composed
//! scalar route `PackedBfp::quantize_{lhs,rhs}`: a seeded sweep of 10⁶
//! tiles (10⁷ in release) — exponents, mantissa planes and errors, both
//! operand sides. The directed cases sit beside the kernel in
//! `packed.rs`. On a host without AVX2 both sides run the scalar tile
//! loop and the file passes vacuously.

use bfp_arith::matrix::MatF32;
use bfp_arith::{PackedBfp, Quantizer};

const TILES: usize = if cfg!(debug_assertions) { 1_000_000 } else { 10_000_000 };

/// splitmix64: the sweep depends on nothing but this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Fill the 8×8 tile of `m` at block `(bi, bj)` (clipped) in one of the
/// styles that stress a different part of the quantiser.
fn fill_tile(m: &mut MatF32, bi: usize, bj: usize, rng: &mut Rng) {
    let style = rng.below(8);
    // The tile's largest exponent field: anywhere, normal or subnormal.
    let top = rng.below(255) as u32;
    let width = 1 + rng.below(12) as u32;
    let threshold = [0x7e_ffffu32, 0x7f_0000, 0x7f_0001, 0x7f_ffff, 0][rng.below(5) as usize];
    for i in bi * 8..(bi * 8 + 8).min(m.rows()) {
        for j in bj * 8..(bj * 8 + 8).min(m.cols()) {
            let r = rng.next();
            let sign = (r as u32) & 0x8000_0000;
            let bits = match style {
                // Exponent fields in a window below `top`, random fractions.
                0 | 1 => top.saturating_sub((r >> 40) as u32 % width) << 23 | (r as u32 & 0x7f_ffff),
                // Integers and half-integers at a power-of-two scale: ties.
                2 => {
                    let k = ((r >> 8) % 255) as f32 - 127.0 + if r & 1 == 0 { 0.5 } else { 0.0 };
                    (k * f32::from_bits(top.clamp(20, 200) << 23)).to_bits() & 0x7fff_ffff
                }
                // Maxima around the 127.5 threshold.
                3 => top << 23 | if r & 6 == 0 { threshold } else { (r >> 8) as u32 & 0x7f_ffff },
                // Mostly zeros of either sign.
                4 => {
                    if r.is_multiple_of(7) {
                        top << 23 | (r >> 8) as u32 & 0x7f_ffff
                    } else {
                        0
                    }
                }
                // Any finite bit pattern.
                _ => {
                    let b = (r >> 16) as u32 & 0x7fff_ffff;
                    if b >= 0x7f80_0000 {
                        b - 0x0100_0000
                    } else {
                        b
                    }
                }
            };
            m.set(i, j, f32::from_bits(sign | bits));
        }
    }
}

#[test]
fn quantize_pack_equals_the_composed_route_on_a_seeded_sweep() {
    let q = Quantizer::paper();
    let mut rng = Rng(0x5EED_B1F8);
    let (mut tiles, mut errors, mut round) = (0usize, 0usize, 0u64);
    while tiles < TILES {
        // Mostly whole tiles; one matrix in four ragged on both edges.
        let (rows, cols) = if round % 4 == 3 {
            (57 + rng.below(8) as usize, 121 + rng.below(8) as usize)
        } else {
            (64, 128)
        };
        let mut m = MatF32::zeros(rows, cols);
        for bi in 0..rows.div_ceil(8) {
            for bj in 0..cols.div_ceil(8) {
                fill_tile(&mut m, bi, bj, &mut rng);
            }
        }
        // One matrix in sixteen carries non-finite values: the error and
        // its coordinates must match too.
        if round % 16 == 5 {
            for _ in 0..1 + rng.below(3) {
                let (i, j) = (rng.below(rows as u64) as usize, rng.below(cols as u64) as usize);
                m.set(i, j, [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3) as usize]);
            }
        }
        let (got, want) = if round.is_multiple_of(2) {
            (PackedBfp::quantize_pack_lhs(&q, &m), PackedBfp::quantize_lhs(&q, &m))
        } else {
            (PackedBfp::quantize_pack_rhs(&q, &m), PackedBfp::quantize_rhs(&q, &m))
        };
        assert!(got == want, "round {round} ({rows}x{cols}): quantize-pack diverged from the composed route");
        errors += want.is_err() as usize;
        tiles += rows.div_ceil(8) * cols.div_ceil(8);
        round += 1;
    }
    assert!(errors > 0 && errors < round as usize / 8, "{errors} of {round} matrices errored");
}
