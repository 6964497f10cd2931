//! The exact GELU / softmax / LayerNorm kernels on the lane datapath
//! ([`bfp_arith::fplanes`]): the same operation sequences as
//! [`Vpu::gelu`], [`Vpu::softmax_row`] and [`Vpu::layernorm_row`], four
//! elements per vector and several independent vectors in flight (one lane
//! operation is a chain of dependent FP instructions, so a single vector
//! leaves the ports idle).
//!
//! Only the straight-line regime runs here. The scalar kernels branch on
//! data (`exp`'s range clamps, `tanh`'s ±15 clamp, NaN/infinity
//! resolution); a group of elements is vectorised only when every lane
//! provably takes none of those branches and no intermediate can leave the
//! finite range. Any other group — and every slice remainder — calls the
//! scalar kernel per element. A vectorised group charges the analytic
//! per-element mix ([`cost`]) the scalar kernel would have counted, a
//! scalar group counts itself, so [`OpCount`](super::OpCount) is the same
//! number either way.
//!
//! The order-dependent reductions (softmax's `sum`, LayerNorm's `sum` and
//! `var_sum`) run one **row per lane**: a block of 16 rows (then at most
//! one of 8 and one of 4) advances through its columns in lock step, every
//! lane adding its own row's next element to its own accumulator, so each
//! sum keeps its row's element order and the adder's bits hold. Four
//! accumulator vectors in flight hide the lane adder's ≈ 40-cycle
//! dependency (measured on 197- and 384-wide rows, ns per element: scalar
//! adder 10.8–11.2, then 4.4 / 2.3 / 1.55–1.6 / 1.45–1.65 at 4 / 8 / 16 /
//! 24 rows per step, the regime check included). A block's
//! sums run in lock step only when every operand is at most
//! [`SUM_MAX_ABS`] in magnitude (NaN fails), so no lane value is ever
//! non-finite; any other block, and the last `< 4` rows, sum through the
//! scalar adder row by row.
//!
//! # Safety
//! Every function here requires AVX2; the callers are the batch entry
//! points that just checked [`Vpu::lane_datapath`].

use std::arch::x86_64::{
    _mm_div_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_set_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
};

use bfp_arith::fplanes::lane::{self, F64x4};
use bfp_arith::fplanes::LANES;

use super::{cost, OpCount, Vpu, EXP2_POLY, GELU_A, GELU_C, GELU_LANE_MAX_ABS, ROUND_MAGIC};

/// `Vpu::exp` clamps outside `[-87, 88]`; inside, `e^x ≤ 1.7e38` is finite
/// until the closing exponent adjust.
const EXP_MIN: f64 = -87.0;
const EXP_MAX: f64 = 88.0;

/// LayerNorm's straight-line regime: with every operand at most 2⁴⁰ in
/// magnitude the centre pass stays below 2⁴¹ (squares below 2⁸², a final
/// value) and the affine pass below 2⁴⁰·2⁴⁰·2⁴⁰ + 2⁴⁰ < 2¹²⁸.
const LAYERNORM_MAX_ABS: f32 = 1_099_511_627_776.0;

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

/// `Lanes::$op`: `lane::$op` on each of the `N` vectors. (A macro, not a
/// closure-taking helper: a closure here would be a separate function
/// without AVX2 enabled, and the intrinsics could not inline into it.)
macro_rules! lanewise {
    ($($op:ident),*) => {$(
        #[inline(always)]
        unsafe fn $op(self, o: Self) -> Self {
            let mut out = self.0;
            for i in 0..N {
                out[i] = lane::$op(self.0[i], o.0[i]);
            }
            Lanes(out)
        }
    )*};
}

/// `N` independent lane vectors (`4·N` elements) advanced in lock step.
#[derive(Clone, Copy)]
struct Lanes<const N: usize>([F64x4; N]);

impl<const N: usize> Lanes<N> {
    const ELEMS: usize = N * LANES;

    /// True when every element of the group has `|x| ≤ bound` (NaN fails).
    #[inline(always)]
    unsafe fn all_abs_le(group: &[f32], bound: f32) -> bool {
        debug_assert_eq!(group.len(), Self::ELEMS);
        let mut ok = true;
        for i in 0..N {
            // SAFETY: `group` holds `4·N` elements.
            ok &= lane::all_abs_le(lane::load(group.as_ptr().add(i * LANES)), bound);
        }
        ok
    }

    #[inline(always)]
    unsafe fn all_within(self, lo: f64, hi: f64) -> bool {
        let mut ok = true;
        for v in self.0 {
            ok &= lane::all_within(v, lo, hi);
        }
        ok
    }

    #[inline(always)]
    unsafe fn load(group: &[f32]) -> Self {
        debug_assert_eq!(group.len(), Self::ELEMS);
        // SAFETY (both loads): `group` holds `4·N` elements.
        let mut out = [lane::import(lane::load(group.as_ptr())); N];
        for (i, v) in out.iter_mut().enumerate().skip(1) {
            *v = lane::import(lane::load(group.as_ptr().add(i * LANES)));
        }
        Lanes(out)
    }

    #[inline(always)]
    unsafe fn store(self, group: &mut [f32]) {
        debug_assert_eq!(group.len(), Self::ELEMS);
        for (i, v) in self.0.into_iter().enumerate() {
            // SAFETY: `group` holds `4·N` elements.
            lane::store(group.as_mut_ptr().add(i * LANES), lane::export(v));
        }
    }

    #[inline(always)]
    unsafe fn splat(c: f32) -> Self {
        Lanes([lane::import(lane::splat(c)); N])
    }

    lanewise!(mul, add, sub);

    /// `Vpu::div_host(numer, self)`: the host's IEEE divide, which the
    /// packed `divps` is lane for lane.
    #[inline(always)]
    unsafe fn div_host_into(self, numer: f32) -> Self {
        let mut out = self.0;
        for v in out.iter_mut() {
            *v = lane::import(_mm_div_ps(lane::splat(numer), lane::export(*v)));
        }
        Lanes(out)
    }

    /// `Vpu::scale_exp2(self, k as i32)` for integer-valued `k`.
    #[inline(always)]
    unsafe fn scale_exp2(self, k: Self) -> Self {
        let mut out = self.0;
        for i in 0..N {
            out[i] = lane::scale_exp2(self.0[i], lane::to_i32(k.0[i]));
        }
        Lanes(out)
    }
}

/// [`Vpu::exp`] for arguments inside `[EXP_MIN, EXP_MAX]`.
#[inline(always)]
unsafe fn exp<const N: usize>(x: Lanes<N>) -> Lanes<N> {
    let magic = Lanes::splat(ROUND_MAGIC);
    let t = x.mul(Lanes::splat(std::f32::consts::LOG2_E));
    let th = t.add(Lanes::splat(0.5));
    let shifted = th.add(magic);
    let kf = shifted.sub(magic);
    let f = t.sub(kf);
    let mut p = Lanes::splat(EXP2_POLY[5]);
    for c in EXP2_POLY[..5].iter().rev() {
        p = p.mul(f).add(Lanes::splat(*c));
    }
    p.scale_exp2(kf)
}

/// [`Vpu::gelu`] for `|x| ≤ GELU_LANE_MAX_ABS`.
#[inline(always)]
unsafe fn gelu<const N: usize>(x: Lanes<N>) -> Lanes<N> {
    let one = Lanes::splat(1.0);
    let x2 = x.mul(x);
    let x3 = x2.mul(x);
    let ax3 = x3.mul(Lanes::splat(GELU_A));
    let inner = x.add(ax3);
    let u = inner.mul(Lanes::splat(GELU_C));
    // tanh(u) = 1 − 2 / (e^{2u} + 1), clamps out of reach.
    let two_u = u.mul(Lanes::splat(2.0));
    let d = exp(two_u).add(one);
    let t = one.sub(d.div_host_into(2.0));
    let one_t = one.add(t);
    x.mul(Lanes::splat(0.5)).mul(one_t)
}

/// One vectorised element-wise kernel, instantiable at any number of
/// vectors in flight.
trait GroupKernel {
    /// What the scalar kernel counts per element.
    fn per_elem(&self) -> OpCount;

    /// Transform the `4·N` elements of `g` in place, or return false
    /// (leaving `g` untouched) when a lane is outside the kernel's regime.
    unsafe fn lanes<const N: usize>(&self, g: &mut [f32]) -> bool;

    /// The scalar kernel, element by element; counts itself.
    fn scalar(&self, vpu: &mut Vpu, g: &mut [f32]);
}

/// Run `k` over the leading whole groups of `4·N` elements and return the
/// remainder: in-regime groups on the lanes (tallied in `vectorised`),
/// the others through the scalar kernel.
#[inline(always)]
unsafe fn whole_groups<'a, const N: usize>(
    vpu: &mut Vpu,
    data: &'a mut [f32],
    k: &impl GroupKernel,
    vectorised: &mut u64,
) -> &'a mut [f32] {
    let mut groups = data.chunks_exact_mut(Lanes::<N>::ELEMS);
    for g in &mut groups {
        if k.lanes::<N>(g) {
            *vectorised += Lanes::<N>::ELEMS as u64;
        } else {
            k.scalar(vpu, g);
        }
    }
    groups.into_remainder()
}

/// Groups of 16 elements (four vectors in flight), then at most one of 8
/// and one of 4, then the last `< 4` elements on the scalar kernel.
/// Vectorised elements are charged `per_elem`; scalar ones count
/// themselves.
#[inline(always)]
unsafe fn widest_first(vpu: &mut Vpu, data: &mut [f32], k: &impl GroupKernel) {
    let mut vectorised = 0;
    let rest = whole_groups::<4>(vpu, data, k, &mut vectorised);
    let rest = whole_groups::<2>(vpu, rest, k, &mut vectorised);
    let rest = whole_groups::<1>(vpu, rest, k, &mut vectorised);
    k.scalar(vpu, rest);
    vpu.count.merge(&k.per_elem().times(vectorised));
}

struct Gelu;

impl GroupKernel for Gelu {
    fn per_elem(&self) -> OpCount {
        cost::gelu()
    }

    #[inline(always)]
    unsafe fn lanes<const N: usize>(&self, g: &mut [f32]) -> bool {
        if !Lanes::<N>::all_abs_le(g, GELU_LANE_MAX_ABS) {
            return false;
        }
        gelu(Lanes::<N>::load(g)).store(g);
        true
    }

    fn scalar(&self, vpu: &mut Vpu, g: &mut [f32]) {
        for v in g.iter_mut() {
            *v = vpu.gelu(*v);
        }
    }
}

/// [`Vpu::gelu`] over a slice.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gelu_slice(vpu: &mut Vpu, data: &mut [f32]) {
    widest_first(vpu, data, &Gelu);
}

/// Softmax's `v ← exp(v − max)` for a finite `max`.
struct ShiftedExp {
    max: f32,
}

impl GroupKernel for ShiftedExp {
    fn per_elem(&self) -> OpCount {
        OpCount {
            fp_add: cost::exp().fp_add + 1,
            ..cost::exp()
        }
    }

    #[inline(always)]
    unsafe fn lanes<const N: usize>(&self, g: &mut [f32]) -> bool {
        if !Lanes::<N>::all_abs_le(g, f32::MAX) {
            return false;
        }
        let shifted = Lanes::<N>::load(g).sub(Lanes::splat(self.max));
        if !shifted.all_within(EXP_MIN, EXP_MAX) {
            return false;
        }
        exp(shifted).store(g);
        true
    }

    fn scalar(&self, vpu: &mut Vpu, g: &mut [f32]) {
        for v in g.iter_mut() {
            let shifted = vpu.s(*v, self.max);
            *v = vpu.exp(shifted);
        }
    }
}

/// True when every element has `|x| ≤ bound` (NaN fails).
#[inline(always)]
unsafe fn all_abs_le(data: &[f32], bound: f32) -> bool {
    let mut groups = data.chunks_exact(Lanes::<4>::ELEMS);
    let mut ok = true;
    for g in &mut groups {
        ok &= Lanes::<4>::all_abs_le(g, bound);
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
                *sum = vpu.a(*sum, v);
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

/// [`Vpu::softmax_row`] over every `cols`-wide row of `data`: the max scan
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
            let k = ShiftedExp { max };
            if max.is_finite() {
                widest_first(vpu, row, &k);
            } else {
                k.scalar(vpu, row);
            }
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

/// `v ← v − mean`, `sq ← (v − mean)²` for one group of bounded operands.
#[inline(always)]
unsafe fn centre_group<const N: usize>(g: &mut [f32], sq: &mut [f32], mean: f32) -> bool {
    if !Lanes::<N>::all_abs_le(g, LAYERNORM_MAX_ABS) {
        return false;
    }
    let d = Lanes::<N>::load(g).sub(Lanes::splat(mean));
    d.store(g);
    d.mul(d).store(sq);
    true
}

/// `v ← v·inv·γ + β` for one group of bounded operands.
#[inline(always)]
unsafe fn affine_group<const N: usize>(
    g: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    inv: f32,
) -> bool {
    let bounded = |s: &[f32]| unsafe { Lanes::<N>::all_abs_le(s, LAYERNORM_MAX_ABS) };
    if !(bounded(g) && bounded(gamma) && bounded(beta)) {
        return false;
    }
    let nrm = Lanes::<N>::load(g).mul(Lanes::splat(inv));
    nrm.mul(Lanes::load(gamma)).add(Lanes::load(beta)).store(g);
    true
}

/// [`Vpu::layernorm_row`] over every `cols`-wide row of `data`: centre
/// and affine passes row by row in groups of 8, `sum` and `var_sum` a
/// block at a time (the squares wait in a `16·cols` scratch).
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
    const W: usize = 2;
    let inv_n = 1.0 / cols as f32;
    let mut squares = vec![0f32; data.len().min(BLOCK_ROWS * cols)];
    let mut rest = data;
    while let Some(block) = next_block(&mut rest, cols) {
        let squares = &mut squares[..block.len()];
        let mut sums = [0f32; BLOCK_ROWS];
        let sums = &mut sums[..block.len() / cols];
        row_sums(vpu, block, cols, sums);

        let mut vectorised = 0u64;
        let rows = block
            .chunks_exact_mut(cols)
            .zip(squares.chunks_exact_mut(cols));
        for ((row, sq), &sum) in rows.zip(sums.iter()) {
            let mean = vpu.m(sum, inv_n);
            let mean_ok = mean.abs() <= LAYERNORM_MAX_ABS;
            for (g, sq) in row.chunks_mut(W * LANES).zip(sq.chunks_mut(W * LANES)) {
                if g.len() == W * LANES && mean_ok && centre_group::<W>(g, sq, mean) {
                    vectorised += g.len() as u64;
                } else {
                    for (v, q) in g.iter_mut().zip(sq.iter_mut()) {
                        let d = vpu.s(*v, mean);
                        *v = d;
                        *q = vpu.m(d, d);
                    }
                }
            }
        }
        vpu.count.fp_add += vectorised;
        vpu.count.fp_mul += vectorised;

        row_sums(vpu, squares, cols, sums);

        let mut vectorised = 0u64;
        for (row, &var_sum) in block.chunks_exact_mut(cols).zip(sums.iter()) {
            let var = vpu.m(var_sum, inv_n);
            let ve = vpu.a(var, eps);
            let sd = vpu.sqrt_host(ve);
            let inv = vpu.div_host(1.0, sd);
            let inv_ok = inv.abs() <= LAYERNORM_MAX_ABS;
            let groups = row
                .chunks_mut(W * LANES)
                .zip(gamma.chunks(W * LANES).zip(beta.chunks(W * LANES)));
            for (g, (gm, bt)) in groups {
                if g.len() == W * LANES && inv_ok && affine_group::<W>(g, gm, bt, inv) {
                    vectorised += g.len() as u64;
                } else {
                    for ((v, &gm), &bt) in g.iter_mut().zip(gm).zip(bt) {
                        let nrm = vpu.m(*v, inv);
                        let scaled = vpu.m(nrm, gm);
                        *v = vpu.a(scaled, bt);
                    }
                }
            }
        }
        vpu.count.fp_mul += 2 * vectorised;
        vpu.count.fp_add += vectorised;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::arch::x86_64::{_mm_set1_epi32, _mm_storeu_ps};

    /// One lane kernel applied to four f32s.
    #[target_feature(enable = "avx2")]
    unsafe fn on_lanes(x: [f32; 4], f: impl Fn(Lanes<1>) -> Lanes<1>) -> [f32; 4] {
        let mut out = x;
        f(Lanes::<1>::load(&x)).store(&mut out);
        out
    }

    #[test]
    fn exp_lanes_equal_the_scalar_kernel_across_the_whole_unclamped_range() {
        if !bfp_arith::fplanes::available() {
            return;
        }
        let mut vpu = Vpu::new();
        let mut args: Vec<f32> = vec![-87.0, 88.0, -0.0, 0.0, 1e-30, -1e-30, 0.5, -0.5];
        args.extend([
            86.99999,
            87.99999,
            -86.99999,
            87.5,
            -86.5,
            0.346_573_6,
            -0.346_573_6,
        ]);
        args.extend((0..=175_000).map(|k| (-87.0 + k as f32 * 0.001).min(88.0)));
        while !args.len().is_multiple_of(4) {
            args.push(0.0);
        }
        for x in args.chunks_exact(4) {
            let x: [f32; 4] = x.try_into().expect("four lanes");
            // SAFETY: AVX2 was detected above.
            let got = unsafe { on_lanes(x, |v| exp(v)) };
            for i in 0..4 {
                assert_eq!(got[i].to_bits(), vpu.exp(x[i]).to_bits(), "exp({:e})", x[i]);
            }
        }
        assert_eq!(
            vpu.take_count(),
            cost::exp().times(args.len() as u64),
            "all in range"
        );
    }

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
