//! The exact GELU / softmax / LayerNorm batch kernels on the lane
//! datapath ([`bfp_arith::fplanes`]): their element-wise passes run as
//! compiled vector programs on the executor of [`super::prog`]; what
//! stays here is the accumulator path and the host's share.
//!
//! The order-dependent reductions (softmax's `sum`, LayerNorm's `sum` and
//! `var_sum`) run one **row per lane**: a block of 16 rows (then at most
//! one of 8 and one of 4) advances through its columns in lock step,
//! every lane adding its own row's next element to its own accumulator,
//! so each sum keeps its row's element order and the adder's bits hold.
//! Four accumulator vectors in flight hide the lane adder's ≈ 40-cycle
//! dependency (measured on 197- and 384-wide rows, ns per element: scalar
//! adder 10.8–11.2, then 4.4 / 2.3 / 1.55–1.6 / 1.45–1.65 at 4 / 8 / 16 /
//! 24 rows per step, the regime check included). A block's sums run in
//! lock step only when every operand is at most [`SUM_MAX_ABS`] in
//! magnitude (NaN fails), so no lane value is ever non-finite; any other
//! block, and the last `< 4` rows, sum through the scalar adder row by
//! row. The max scan, the per-row mean, variance, `sqrt` and divides stay
//! scalar.
//!
//! # Safety
//! Every function here requires AVX2; the callers are the batch entry
//! points that just checked [`Vpu::lane_datapath`].

use std::arch::x86_64::{
    _mm_movehl_ps, _mm_movelh_ps, _mm_set_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
};

use bfp_arith::fplanes::lane;
use bfp_arith::fplanes::LANES;

use super::prog::{run, Bind, AFFINE, CENTRE, GELU, SHIFTED_EXP};
use super::{Datapath, Vpu};

/// Rows per lock-step block: four accumulator vectors of four rows each.
const BLOCK_ROWS: usize = 4 * LANES;

/// The lock-step sums' regime: operands of at most 2⁹⁶ in magnitude in
/// rows of fewer than 2³¹ elements. The truncating adder never grows a
/// magnitude, so every partial sum stays below 2¹²⁷ and no accumulator
/// lane can saturate — a saturated lane could not feed the next add. (The
/// squares of LayerNorm's bounded centre pass are below 2⁸³, softmax's
/// exponentials at most 1.)
const SUM_MAX_ABS: f32 = 79_228_162_514_264_337_593_543_950_336.0;
const SUM_MAX_COLS: usize = 1 << 31;

/// Rows whose sum ran in lock step / through the scalar adder, per test
/// thread: the tests assert that in-regime shapes really take the blocks.
#[cfg(test)]
pub(super) mod route {
    use std::cell::Cell;

    thread_local! {
        pub static LOCKSTEP_ROWS: Cell<u64> = const { Cell::new(0) };
        pub static SCALAR_ROWS: Cell<u64> = const { Cell::new(0) };
    }

    /// `(lock-step rows, scalar rows)` since the last call.
    pub fn take() -> (u64, u64) {
        (LOCKSTEP_ROWS.take(), SCALAR_ROWS.take())
    }
}

/// The [`Vpu`]'s GELU over a slice.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gelu_slice(vpu: &mut Vpu, data: &mut [f32]) {
    run(vpu, &GELU, data, &[], &mut []);
}

/// True when every element has `|x| ≤ bound` (NaN fails).
#[inline(always)]
unsafe fn all_abs_le(data: &[f32], bound: f32) -> bool {
    let mut groups = data.chunks_exact(4 * LANES);
    let mut ok = true;
    for g in &mut groups {
        for i in 0..4 {
            // SAFETY: `g` holds 16 elements.
            ok &= lane::all_abs_le(lane::load(g.as_ptr().add(i * LANES)), bound);
        }
    }
    ok && groups.remainder().iter().all(|v| v.abs() <= bound)
}

/// The element-order sums of `4·G` rows of bounded operands, one row per
/// lane: `sums[r] = (…((0 + row_r[0]) + row_r[1]) + …)` on the lane adder.
#[inline(always)]
unsafe fn sum_rows_lockstep<const G: usize>(block: &[f32], cols: usize, sums: &mut [f32]) {
    debug_assert_eq!(block.len(), G * LANES * cols);
    debug_assert_eq!(sums.len(), G * LANES);
    let mut acc = [lane::import(lane::splat(0.0)); G];
    let whole = cols - cols % LANES;
    for j in (0..whole).step_by(LANES) {
        // 4×4 transposes: `columns[g][k]` holds column `j + k` of rows
        // `4g..4g + 4`.
        let mut columns = [[lane::splat(0.0); LANES]; G];
        for (g, columns) in columns.iter_mut().enumerate() {
            // SAFETY: rows `4g..4g + 4` of the block hold columns `j..j + 4`.
            let p = block.as_ptr().add(g * LANES * cols + j);
            let (r0, r1) = (lane::load(p), lane::load(p.add(cols)));
            let (r2, r3) = (lane::load(p.add(2 * cols)), lane::load(p.add(3 * cols)));
            let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpackhi_ps(r0, r1));
            let (t2, t3) = (_mm_unpacklo_ps(r2, r3), _mm_unpackhi_ps(r2, r3));
            *columns = [
                _mm_movelh_ps(t0, t2),
                _mm_movehl_ps(t2, t0),
                _mm_movelh_ps(t1, t3),
                _mm_movehl_ps(t3, t1),
            ];
        }
        // Column after column, the `G` accumulators side by side: adjacent
        // adds are independent, so the chains overlap.
        for k in 0..LANES {
            for (acc, columns) in acc.iter_mut().zip(&columns) {
                *acc = lane::add(*acc, lane::import(columns[k]));
            }
        }
    }
    for j in whole..cols {
        for (g, acc) in acc.iter_mut().enumerate() {
            let at = |r: usize| block[(g * LANES + r) * cols + j];
            *acc = lane::add(*acc, lane::import(_mm_set_ps(at(3), at(2), at(1), at(0))));
        }
    }
    for (g, acc) in acc.into_iter().enumerate() {
        // SAFETY: `sums` holds `4·G` elements.
        lane::store(sums.as_mut_ptr().add(g * LANES), lane::export(acc));
    }
}

/// `sums[r]` = the element-order sum of row `r` of `block`, as the scalar
/// kernels accumulate it: 16, 8 or 4 rows of bounded operands in lock
/// step, anything else through the scalar adder row by row.
#[inline(always)]
unsafe fn row_sums(vpu: &mut Vpu, block: &[f32], cols: usize, sums: &mut [f32]) {
    let rows = sums.len();
    debug_assert_eq!(block.len(), rows * cols);
    let lockstep = rows >= LANES && cols < SUM_MAX_COLS && all_abs_le(block, SUM_MAX_ABS);
    if lockstep {
        match rows {
            16 => sum_rows_lockstep::<4>(block, cols, sums),
            8 => sum_rows_lockstep::<2>(block, cols, sums),
            4 => sum_rows_lockstep::<1>(block, cols, sums),
            _ => unreachable!("blocks hold 16, 8, 4 or 1 rows"),
        }
        vpu.count.fp_add += (rows * cols) as u64;
    } else {
        for (row, sum) in block.chunks_exact(cols).zip(sums.iter_mut()) {
            *sum = 0.0;
            for &v in row {
                *sum = vpu.add(*sum, v);
            }
        }
    }
    #[cfg(test)]
    {
        let tally = if lockstep {
            &route::LOCKSTEP_ROWS
        } else {
            &route::SCALAR_ROWS
        };
        tally.set(tally.get() + rows as u64);
    }
}

/// Split the next block off `rest`: 16 rows while they last, then at most
/// one block of 8 and one of 4, then single rows.
fn next_block<'a>(rest: &mut &'a mut [f32], cols: usize) -> Option<&'a mut [f32]> {
    let rows = match rest.len() / cols {
        0 => return None,
        1..=3 => 1,
        4..=7 => 4,
        8..=15 => 8,
        _ => BLOCK_ROWS,
    };
    rest.split_off_mut(..rows * cols)
}

/// The [`Vpu`]'s softmax over every `cols`-wide row of `data`: the max scan
/// and the exponentials row by row, the sums a block at a time.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn softmax_rows(vpu: &mut Vpu, data: &mut [f32], cols: usize) {
    let mut rest = data;
    while let Some(block) = next_block(&mut rest, cols) {
        for row in block.chunks_exact_mut(cols) {
            let mut max = row[0];
            for &v in &row[1..] {
                vpu.count.cmp += 1;
                if v > max {
                    max = v;
                }
            }
            run(vpu, &SHIFTED_EXP, row, &[Bind::Splat(max)], &mut []);
        }
        let mut sums = [0f32; BLOCK_ROWS];
        let sums = &mut sums[..block.len() / cols];
        row_sums(vpu, block, cols, sums);
        vpu.count.host_div += block.len() as u64;
        for (row, &sum) in block.chunks_exact_mut(cols).zip(sums.iter()) {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// The [`Vpu`]'s LayerNorm over every `cols`-wide row of `data`: centre
/// and affine passes row by row, `sum` and `var_sum` a block at a time
/// (the squares wait in a `16·cols` scratch).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn layernorm_rows(
    vpu: &mut Vpu,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    assert_eq!(gamma.len(), cols, "gamma length");
    assert_eq!(beta.len(), cols, "beta length");
    let inv_n = 1.0 / cols as f32;
    let mut squares = vec![0f32; data.len().min(BLOCK_ROWS * cols)];
    let mut rest = data;
    while let Some(block) = next_block(&mut rest, cols) {
        let squares = &mut squares[..block.len()];
        let mut sums = [0f32; BLOCK_ROWS];
        let sums = &mut sums[..block.len() / cols];
        row_sums(vpu, block, cols, sums);
        let rows = block
            .chunks_exact_mut(cols)
            .zip(squares.chunks_exact_mut(cols));
        for ((row, sq), &sum) in rows.zip(sums.iter()) {
            let mean = vpu.mul(sum, inv_n);
            run(vpu, &CENTRE, row, &[Bind::Splat(mean)], &mut [sq]);
        }
        row_sums(vpu, squares, cols, sums);
        for (row, &var_sum) in block.chunks_exact_mut(cols).zip(sums.iter()) {
            let var = vpu.mul(var_sum, inv_n);
            let ve = vpu.add(var, eps);
            let sd = vpu.sqrt_host(ve);
            let inv = vpu.div_host(1.0, sd);
            let binds = [Bind::Splat(inv), Bind::Slice(gamma), Bind::Slice(beta)];
            run(vpu, &AFFINE, row, &binds, &mut []);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::arch::x86_64::{_mm_set1_epi32, _mm_storeu_ps};

    #[test]
    fn scale_exp2_lanes_equal_the_exponent_unit() {
        if !bfp_arith::fplanes::available() {
            return;
        }
        #[target_feature(enable = "avx2")]
        unsafe fn scaled(x: [f32; 4], k: i32) -> [f32; 4] {
            let v = lane::scale_exp2(lane::import(lane::load(x.as_ptr())), _mm_set1_epi32(k));
            let mut out = [0f32; 4];
            _mm_storeu_ps(out.as_mut_ptr(), lane::export(v));
            out
        }
        let mut vpu = Vpu::new();
        // Zeros and normals: a lane value is never subnormal.
        let xs = [
            [0.0, -0.0, 1.0, -1.0],
            [1.5, -0.75, f32::MIN_POSITIVE, -f32::MIN_POSITIVE],
            [f32::MAX, -f32::MAX, 1.999_999_9, -1.175_494_5e-38],
            [3.0e-20, -7.0e20, 1.0e38, -2.0e-38],
        ];
        let ks = (-300..=300).chain([-100_000, 100_000, -2047, 2047]);
        for k in ks {
            for x in xs {
                // SAFETY: AVX2 was detected above.
                let got = unsafe { scaled(x, k) };
                for i in 0..4 {
                    let want = vpu.scale_exp2(x[i], k);
                    assert_eq!(got[i].to_bits(), want.to_bits(), "{:e} · 2^{k}", x[i]);
                }
            }
        }
    }
}
