//! The kernel bodies of [`super::kernels`] on lanes ([`bfp_arith::fplanes`]):
//! a bundle [`Lanes`] of `G` vectors of one width, compiled inside one
//! `#[target_feature]` entry per tier to straight-line code with `G`
//! independent vectors interleaved. A [`Lane`] datapath names its widths:
//! the exact host-division [`Vpu`] runs on fp32 values widened to f64
//! (`Ymm`, `Zmm`), the fast [`Unit`] on native f32 (`NativeYmm`,
//! `NativeZmm`, twice the lanes per vector).
//!
//! [`elements`] puts an element in each lane (GELU, and the softmax and
//! LayerNorm passes over whole row blocks, a row's statistic splatted):
//! groups of eight vectors of the tier's width, then of four, then of one
//! (two on AVX2), then one vector of the narrower width — 64, 32, 8 and 4
//! elements on AVX-512 for the `Vpu`, 128, 64, 16 and 8 for the `Unit`.
//! [`rows`] steps across each row's columns in its element order (the max
//! scan and the row sums): the `Vpu` gathers a column of [`ROW_GROUP`]
//! rows per step, then of 8, then of 4; its other rows, and every row of
//! the `Unit` (whose gathers cost more than its scalar steps), run the
//! scalar body eight rows interleaved. The scalar body also takes every
//! remainder and every group outside its body's regime — an operand beyond
//! [`Body::BOUND`] (NaN fails), a failed [`Ops::clamp`] — its lanes' work
//! discarded. Each datapath charges its own cost ([`Lane::charge`]): the
//! `Vpu` a completed group's counted mix ([`mix`]) per element, or per row
//! and step, where a scalar element counts itself; the `Unit` counts
//! nothing, and its callers charge `fast::cost` per element. Bits and
//! [`OpCount`] do not depend on the route.

use std::marker::PhantomData;

use bfp_arith::fpadd::AddVariant;
use bfp_arith::fplanes::{self, Gather, NativeYmm, NativeZmm, Tier, Width, Ymm, Zmm};
use bfp_arith::fpmul::{MulVariant, NormRound};

use super::fast::{Unit, EXP2_LUT};
use super::kernels::{self, mix, Affine, Body, Centre, Gelu, Max, Ops, ShiftedExp, Sum};
use super::{Datapath, OpCount, Vpu};

/// Rows per row group: four `F64x8` vectors, eight `F64x4`. The engine
/// cuts its VPU shards on multiples of it, so a cut never splits a group.
pub(crate) const ROW_GROUP: usize = 32;

/// Vectors per element group on AVX2.
const AVX2_GROUP: usize = 8;

/// Rows the scalar row body runs interleaved: each is one dependent
/// operation per element, so eight independent chains keep the ports busy
/// where one row would wait on its own latency.
const CHAINS: usize = 8;

/// Rows this long or longer stay on the scalar body (the row sum's regime).
const ROW_MAX_COLS: usize = 1 << 31;

/// A scalar datapath whose kernel bodies also run on lanes: its scalar
/// instantiation is the bit oracle the lanes equal.
pub(super) trait Lane: Datapath + Sized {
    /// Its lane widths on the AVX2 and the AVX-512 tier.
    type Ymm: Width;
    type Zmm: Width;
    /// Its `exp` body, on any instantiation.
    fn exp_body<O: Ops + ?Sized>(o: &mut O, x: O::V) -> O::V;
    /// Whether its lanes may run at all.
    fn on_lanes(&self) -> bool {
        true
    }
    /// Charges the op mix of lane groups it ran.
    fn charge(&mut self, _mix: OpCount) {}
    /// Row pass `K`'s lane groups on `tier` from row 0: none by default.
    /// Returns the rows they took.
    ///
    /// # Safety
    /// The frame's pointers hold its rows, and the host runs `tier`.
    unsafe fn row_lanes<K: Body<2, 1>>(&mut self, _frame: &RowFrame, _tier: Tier) -> usize {
        0
    }
}

impl Lane for Vpu {
    type Ymm = Ymm;
    type Zmm = Zmm;

    #[inline(always)]
    fn exp_body<O: Ops + ?Sized>(o: &mut O, x: O::V) -> O::V {
        kernels::exp(o, x)
    }

    /// Only the paper datapath, the one the f64 lanes are a twin of: every
    /// other configuration stays on the scalar kernels, the bit oracle
    /// either way.
    fn on_lanes(&self) -> bool {
        !self.via_partials
            && self.mul.variant == MulVariant::DropLsp
            && self.mul.round == NormRound::Truncate
            && self.add.variant == AddVariant::Exact48
            && self.add.round == NormRound::Truncate
    }

    fn charge(&mut self, mix: OpCount) {
        self.count.merge(&mix);
    }

    /// Column gathers of its row groups, charged per row and step.
    unsafe fn row_lanes<K: Body<2, 1>>(&mut self, frame: &RowFrame, tier: Tier) -> usize {
        let mut at = 0;
        let ran = match tier {
            Tier::Avx512 if frame.cols < ROW_MAX_COLS => frame.groups_avx512::<K>(self, &mut at),
            Tier::Avx2 if frame.cols < ROW_MAX_COLS => frame.groups_avx2::<K>(self, &mut at),
            _ => 0,
        };
        let steps = frame.cols - usize::from(K::INIT.is_none());
        self.charge(mix::<K, 2, 1>().times(ran * steps as u64));
        at
    }
}

/// Its costs are charged by the batch callers, per element.
impl Lane for Unit {
    type Ymm = NativeYmm;
    type Zmm = NativeZmm;

    #[inline(always)]
    fn exp_body<O: Ops + ?Sized>(o: &mut O, x: O::V) -> O::V {
        kernels::rom_exp(o, x)
    }
}

/// GELU over `data`, element by element.
pub(super) fn gelu<D: Lane>(d: &mut D, data: &mut [f32]) {
    let cols = data.len();
    elements::<D, Gelu, 1, 1>(d, data, cols, &[], [&[]; 2], &mut []);
}

/// Softmax over every `cols`-wide row of `data`, a pass over the whole
/// block at a time: the max scan, the shifted exponentials, the sum, then
/// the row reciprocal's multiplies or the divisions.
pub(super) fn softmax<D: Lane>(d: &mut D, data: &mut [f32], cols: usize) {
    let mut stats = vec![0f32; data.len() / cols];
    rows::<D, Max>(d, data, cols, &mut stats);
    elements::<D, ShiftedExp, 2, 1>(d, data, cols, &stats, [&[]; 2], &mut []);
    rows::<D, Sum>(d, data, cols, &mut stats);
    for (row, &sum) in data.chunks_exact_mut(cols).zip(&stats) {
        super::normalise(d, row, sum);
    }
}

/// LayerNorm over every `cols`-wide row of `data`, a pass over the whole
/// block at a time: sum, centre, sum of squares, affine; each row's mean,
/// variance and `1/sd` on the scalar datapath between them.
pub(super) fn layernorm<D: Lane>(
    d: &mut D,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    let inv_n = 1.0 / cols as f32;
    let mut stats = vec![0f32; data.len() / cols];
    let mut squares = vec![0f32; data.len()];
    rows::<D, Sum>(d, data, cols, &mut stats);
    for s in stats.iter_mut() {
        *s = d.mul(*s, inv_n);
    }
    elements::<D, Centre, 2, 2>(d, data, cols, &stats, [&[]; 2], &mut squares);
    rows::<D, Sum>(d, &squares, cols, &mut stats);
    for s in stats.iter_mut() {
        let var = d.mul(*s, inv_n);
        let ve = d.add(var, eps);
        *s = d.rsqrt(ve);
    }
    elements::<D, Affine, 4, 1>(d, data, cols, &stats, [gamma, beta], &mut []);
}

/// `G` vectors of `W`, as datapath `D`'s lanes: each operation is the lane
/// datapath's on every vector, `exp` is `D`'s body, and [`Ops::clamp`]
/// fails the group (`ok`) instead of clamping — unless the body's operand
/// bound keeps every clamp in range ([`Body::CLAMPS_IN_BOUND`]).
///
/// Invariant: a `Lanes<D, W, G>` exists only on a host that runs `W`.
pub(super) struct Lanes<D, W, const G: usize> {
    ok: bool,
    clamps: bool,
    width: PhantomData<(D, W)>,
}

impl<D, W: Width, const G: usize> Lanes<D, W, G> {
    /// A bundle for body `K`.
    ///
    /// # Safety
    /// The host runs `W`, and the caller is compiled with its features.
    #[inline(always)]
    unsafe fn new<K: Body<I, O>, const I: usize, const O: usize>() -> Self {
        Lanes {
            ok: true,
            clamps: !K::CLAMPS_IN_BOUND,
            width: PhantomData,
        }
    }
}

/// `f` on every vector of `a` and `b`. A loop, not `array::from_fn`: a
/// closure would be a function without the tier's features, which the
/// lane operations must not be compiled into.
macro_rules! each {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $f:expr) => {{
        let (mut r, b) = ($a, $b);
        for i in 0..G {
            let ($x, $y) = (r[i], b[i]);
            // SAFETY: the host runs `W`, by the type's invariant.
            r[i] = unsafe { $f };
        }
        r
    }};
}

impl<D: Lane, W: Width, const G: usize> Ops for Lanes<D, W, G> {
    type V = [W::V; G];

    #[inline(always)]
    fn c(&self, x: f32) -> Self::V {
        // SAFETY: as in `each!`.
        [unsafe { W::import(W::splat(x)) }; G]
    }

    #[inline(always)]
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V {
        each!(a, b, |x, y| W::mul(x, y))
    }

    #[inline(always)]
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V {
        each!(a, b, |x, y| W::add(x, y))
    }

    #[inline(always)]
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V {
        each!(a, b, |x, y| W::sub(x, y))
    }

    #[inline(always)]
    fn exp(&mut self, x: Self::V) -> Self::V {
        D::exp_body(self, x)
    }

    /// The host's IEEE divide on the values in memory format.
    #[inline(always)]
    fn div(&mut self, a: Self::V, b: Self::V) -> Self::V {
        each!(a, b, |x, y| W::import(W::div(W::export(x), W::export(y))))
    }

    #[inline(always)]
    fn scale_exp2(&mut self, x: Self::V, k: Self::V) -> Self::V {
        each!(x, k, |x, k| W::scale_exp2(x, k))
    }

    #[inline(always)]
    fn floor(&mut self, x: Self::V) -> Self::V {
        each!(x, x, |x, _y| W::floor(x))
    }

    #[inline(always)]
    fn rom(&mut self, s: Self::V) -> [Self::V; 2] {
        let [mut entry, mut j] = [s; 2];
        for i in 0..G {
            // SAFETY: as in `each!`.
            (entry[i], j[i]) = unsafe { W::rom(&EXP2_LUT, s[i]) };
        }
        [entry, j]
    }

    /// On raw operands ([`Body::RAW`]).
    #[inline(always)]
    fn max(&mut self, max: Self::V, v: Self::V) -> Self::V {
        each!(max, v, |max, v| W::raw(W::max(W::unraw(v), W::unraw(max))))
    }

    #[inline(always)]
    fn clamp(&mut self, x: Self::V, lo: f32, hi: f32, _: f32, _: f32) -> Option<Self::V> {
        if self.clamps {
            for v in x {
                // SAFETY: as in `each!`.
                self.ok &= unsafe { W::all_within(v, lo, hi) };
            }
        }
        None
    }
}

/// `v` as body `K` takes its operands.
#[inline(always)]
unsafe fn take<W: Width, K: Body<I, O>, const I: usize, const O: usize>(v: W::F) -> W::V {
    if K::RAW {
        W::raw(v)
    } else {
        W::import(v)
    }
}

/// A result of body `K` in memory format.
#[inline(always)]
unsafe fn give<W: Width, K: Body<I, O>, const I: usize, const O: usize>(v: W::V) -> W::F {
    if K::RAW {
        W::unraw(v)
    } else {
        W::export(v)
    }
}

/// The tier `d`'s lanes take: the host's, or the one a test forced; none
/// if `d` runs no lanes.
fn tier<D: Lane>(d: &D) -> Tier {
    if !d.on_lanes() {
        return Tier::Scalar;
    }
    #[cfg(test)]
    if let Some(tier) = tests::route::FORCED.get() {
        return tier;
    }
    fplanes::tier()
}

/// An element pass's operands: operand 0 of element `j` of row `r` is
/// `data[r·cols + j]`, operand 1 the row's `stat[r]`, operands 2 and 3
/// the column's `col[0][j]` and `col[1][j]`; result 0 goes back to `data`,
/// result 1 to `out[r·cols + j]`.
struct Frame {
    data: *mut f32,
    out: *mut f32,
    stat: *const f32,
    col: [*const f32; 2],
    rows: usize,
    cols: usize,
}

impl Frame {
    /// Operand `k` of element `j` of row `r`.
    ///
    /// # Safety
    /// `r < rows`, `j < cols`, and the body reads operand `k`.
    #[inline(always)]
    unsafe fn operand(&self, k: usize, r: usize, j: usize) -> *const f32 {
        match k {
            0 => self.data.add(r * self.cols + j),
            1 => self.stat.add(r),
            _ => self.col[k - 2].add(j),
        }
    }

    /// The scalar body on elements `lo..hi` of row `r`.
    ///
    /// # Safety
    /// `r < rows`, `hi ≤ cols`.
    unsafe fn scalar<D: Datapath, K: Body<I, O>, const I: usize, const O: usize>(
        &self,
        d: &mut D,
        r: usize,
        lo: usize,
        hi: usize,
    ) {
        for j in lo..hi {
            let mut x = [0f32; I];
            for (k, x) in x.iter_mut().enumerate() {
                *x = *self.operand(k, r, j);
            }
            let y = K::run(d, x);
            let at = r * self.cols + j;
            *self.data.add(at) = y[0];
            if O > 1 {
                *self.out.add(at) = y[1];
            }
        }
    }

    /// Row `r`'s whole groups of `G` vectors of `W` from column `*j` on,
    /// each on the lanes or the scalar body; returns the elements the
    /// lanes ran.
    ///
    /// # Safety
    /// The host runs `W` and the caller is compiled with its features;
    /// `r < rows`, and `stat[r]` is within the body's bound if it reads
    /// one.
    #[inline(always)]
    unsafe fn groups<D, W, const G: usize, K, const I: usize, const O: usize>(
        &self,
        d: &mut D,
        r: usize,
        j: &mut usize,
    ) -> u64
    where
        D: Lane,
        W: Width,
        K: Body<I, O>,
    {
        let step = G * W::LANES;
        let stat = match I > 1 {
            true => *self.stat.add(r),
            false => 0.0,
        };
        let stat = take::<W, K, I, O>(W::splat(stat));
        let mut ran = 0;
        while *j + step <= self.cols {
            let mut ok = true;
            let mut x = [[stat; G]; I];
            for (k, x) in x.iter_mut().enumerate().filter(|&(k, _)| k != 1) {
                for (i, x) in x.iter_mut().enumerate() {
                    let v = W::load(self.operand(k, r, *j + i * W::LANES));
                    ok &= W::all_abs_le(v, K::BOUND);
                    *x = take::<W, K, I, O>(v);
                }
            }
            if ok {
                let mut lanes = Lanes::<D, W, G>::new::<K, I, O>();
                let y = K::run(&mut lanes, x);
                ok = lanes.ok;
                if ok {
                    let at = r * self.cols + *j;
                    for (&p, y) in [self.data, self.out].iter().zip(&y) {
                        for (i, &v) in y.iter().enumerate() {
                            W::store(p.add(at + i * W::LANES), give::<W, K, I, O>(v));
                        }
                    }
                }
            }
            match ok {
                true => ran += step as u64,
                false => self.scalar::<D, K, I, O>(d, r, *j, *j + step),
            }
            #[cfg(test)]
            tests::route::tally::<W>(false, ok, step);
            *j += step;
        }
        ran
    }

    /// Every row: its groups of `G` vectors of `W`, then of `G2`, then of
    /// `G3`, then of one `H`; the rest, and a row whose statistic is outside
    /// the regime, on the scalar body. Returns the elements the lanes ran.
    ///
    /// # Safety
    /// As [`Frame::groups`], for each width.
    #[inline(always)]
    unsafe fn run<
        D,
        W,
        const G: usize,
        const G2: usize,
        const G3: usize,
        H,
        K,
        const I: usize,
        const O: usize,
    >(
        &self,
        d: &mut D,
    ) -> u64
    where
        D: Lane,
        W: Width,
        H: Width,
        K: Body<I, O>,
    {
        let mut ran = 0;
        for r in 0..self.rows {
            let mut j = 0;
            if I < 2 || (*self.stat.add(r)).abs() <= K::BOUND {
                ran += self.groups::<D, W, G, K, I, O>(d, r, &mut j);
                ran += self.groups::<D, W, G2, K, I, O>(d, r, &mut j);
                ran += self.groups::<D, W, G3, K, I, O>(d, r, &mut j);
                ran += self.groups::<D, H, 1, K, I, O>(d, r, &mut j);
            }
            self.scalar::<D, K, I, O>(d, r, j, self.cols);
        }
        ran
    }

    /// The AVX-512 tier: groups of eight, four and one `D::Zmm`, then one
    /// `D::Ymm`.
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn run_avx512<D: Lane, K: Body<I, O>, const I: usize, const O: usize>(
        &self,
        d: &mut D,
    ) -> u64 {
        self.run::<D, D::Zmm, 8, 4, 1, D::Ymm, K, I, O>(d)
    }

    /// The AVX2 tier: groups of [`AVX2_GROUP`] `D::Ymm`, then half as many,
    /// then two, then one.
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2<D: Lane, K: Body<I, O>, const I: usize, const O: usize>(
        &self,
        d: &mut D,
    ) -> u64 {
        self.run::<D, D::Ymm, AVX2_GROUP, { AVX2_GROUP / 2 }, 2, D::Ymm, K, I, O>(d)
    }
}

/// Element pass `K` over the `cols`-wide rows of `data`, operands and
/// results as [`Frame`] binds them (`stat` one per row if `I > 1`, `col`
/// `cols` each if `I > 2`, `out` as long as `data` if `O > 1`), on the
/// tier `d` takes; `d` charges the elements its lanes ran.
///
/// # Panics
/// Panics if `data` is not whole rows, or an operand's length is wrong.
pub(super) fn elements<D: Lane, K: Body<I, O>, const I: usize, const O: usize>(
    d: &mut D,
    data: &mut [f32],
    cols: usize,
    stat: &[f32],
    col: [&[f32]; 2],
    out: &mut [f32],
) {
    if data.is_empty() {
        return;
    }
    assert!(cols > 0 && data.len().is_multiple_of(cols), "whole rows");
    let rows = data.len() / cols;
    assert!(I < 2 || stat.len() == rows, "one statistic per row");
    assert!(
        I < 3 || col[..I - 2].iter().all(|c| c.len() == cols),
        "column operands"
    );
    assert!(O < 2 || out.len() == data.len(), "output length");
    let frame = Frame {
        data: data.as_mut_ptr(),
        out: out.as_mut_ptr(),
        stat: stat.as_ptr(),
        col: col.map(<[f32]>::as_ptr),
        rows,
        cols,
    };
    // SAFETY: the frame's pointers hold what `rows × cols` elements read
    // (asserted above), and the host runs the tier, detected or forced by
    // a test to one the host runs.
    let ran = unsafe {
        match tier(d) {
            Tier::Avx512 => frame.run_avx512::<D, K, I, O>(d),
            Tier::Avx2 => frame.run_avx2::<D, K, I, O>(d),
            Tier::Scalar => {
                for r in 0..rows {
                    frame.scalar::<D, K, I, O>(d, r, 0, cols);
                }
                0
            }
        }
    };
    d.charge(mix::<K, I, O>().times(ran));
}

/// A row pass's operands: `rows` rows of `cols` at `data`, each row's last
/// accumulator to `out`.
pub(super) struct RowFrame {
    data: *const f32,
    out: *mut f32,
    rows: usize,
    cols: usize,
}

impl RowFrame {
    /// The scalar body on rows `lo..hi`, [`CHAINS`] rows interleaved, then
    /// one at a time.
    ///
    /// # Safety
    /// `hi ≤ rows`.
    unsafe fn scalar<D: Datapath, K: Body<2, 1>>(&self, d: &mut D, lo: usize, hi: usize) {
        let mut r = lo;
        while r + CHAINS <= hi {
            self.chains::<D, K, CHAINS>(d, r);
            r += CHAINS;
        }
        for r in r..hi {
            self.chains::<D, K, 1>(d, r);
        }
    }

    /// The scalar body on the `R` rows from row `at`, a column at a time:
    /// one chain per row, each in its row's element order.
    ///
    /// # Safety
    /// `at + R ≤ rows`.
    #[inline(always)]
    unsafe fn chains<D: Datapath, K: Body<2, 1>, const R: usize>(&self, d: &mut D, at: usize) {
        let row = |r: usize| self.data.add((at + r) * self.cols);
        let (mut acc, first) = match K::INIT {
            Some(c) => ([c; R], 0),
            None => (std::array::from_fn(|r| *row(r)), 1),
        };
        for j in first..self.cols {
            for (r, acc) in acc.iter_mut().enumerate() {
                [*acc] = K::run(d, [*acc, *row(r).add(j)]);
            }
        }
        for (r, acc) in acc.into_iter().enumerate() {
            *self.out.add(at + r) = acc;
        }
    }

    /// Column `j` of the `G · W::LANES` rows from row `at`, as body `K`
    /// takes it; `ok` false if an element is outside the regime.
    ///
    /// # Safety
    /// As [`RowFrame::groups`], `at` its group's first row.
    #[inline(always)]
    unsafe fn column<W: Gather, const G: usize, K: Body<2, 1>>(
        &self,
        at: usize,
        j: usize,
        ok: &mut bool,
    ) -> [W::V; G] {
        let mut v = [take::<W, K, 2, 1>(W::splat(0.0)); G];
        for (i, v) in v.iter_mut().enumerate() {
            let col = W::gather(
                self.data.add((at + i * W::LANES) * self.cols + j),
                self.cols,
            );
            *ok &= W::all_abs_le(col, K::BOUND);
            *v = take::<W, K, 2, 1>(col);
        }
        v
    }

    /// The whole groups of `G` vectors of `W` rows from row `*at` on, each
    /// on the lanes or the scalar body; returns the rows the lanes ran.
    ///
    /// # Safety
    /// The host runs `W` and the caller is compiled with its features.
    #[inline(always)]
    unsafe fn groups<W: Gather, const G: usize, K: Body<2, 1>>(
        &self,
        vpu: &mut Vpu,
        at: &mut usize,
    ) -> u64 {
        let step = G * W::LANES;
        let mut ran = 0;
        while *at + step <= self.rows {
            let mut ok = true;
            let (mut acc, first) = match K::INIT {
                Some(c) => ([take::<W, K, 2, 1>(W::splat(c)); G], 0),
                None => (self.column::<W, G, K>(*at, 0, &mut ok), 1),
            };
            let mut lanes = Lanes::<Vpu, W, G>::new::<K, 2, 1>();
            for j in first..self.cols {
                if !ok {
                    break;
                }
                let v = self.column::<W, G, K>(*at, j, &mut ok);
                [acc] = K::run(&mut lanes, [acc, v]);
                ok &= lanes.ok;
            }
            if ok {
                for (i, &v) in acc.iter().enumerate() {
                    W::store(self.out.add(*at + i * W::LANES), give::<W, K, 2, 1>(v));
                }
                ran += step as u64;
            } else {
                self.scalar::<Vpu, K>(vpu, *at, *at + step);
            }
            #[cfg(test)]
            tests::route::tally::<W>(true, ok, step);
            *at += step;
        }
        ran
    }

    /// The AVX-512 tier: groups of four `F64x8` (32 rows), then one, then
    /// one `F64x4`.
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn groups_avx512<K: Body<2, 1>>(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        let ran =
            self.groups::<Zmm, { ROW_GROUP / 8 }, K>(vpu, at) + self.groups::<Zmm, 1, K>(vpu, at);
        ran + self.groups::<Ymm, 1, K>(vpu, at)
    }

    /// The AVX2 tier: groups of eight `F64x4` (32 rows), then two, then one.
    #[target_feature(enable = "avx2")]
    unsafe fn groups_avx2<K: Body<2, 1>>(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        let ran =
            self.groups::<Ymm, { ROW_GROUP / 4 }, K>(vpu, at) + self.groups::<Ymm, 2, K>(vpu, at);
        ran + self.groups::<Ymm, 1, K>(vpu, at)
    }
}

/// Row pass `K` over every `cols`-wide row of `data`: `out[r]` is row
/// `r`'s last accumulator, from [`Body::INIT`]; `d`'s row lanes first
/// ([`Lane::row_lanes`]), then the scalar body.
///
/// # Panics
/// Panics unless `data` is `out.len()` rows of `cols > 0`.
pub(super) fn rows<D: Lane, K: Body<2, 1>>(d: &mut D, data: &[f32], cols: usize, out: &mut [f32]) {
    assert!(cols > 0 && data.len() == out.len() * cols, "whole rows");
    let frame = RowFrame {
        data: data.as_ptr(),
        out: out.as_mut_ptr(),
        rows: out.len(),
        cols,
    };
    // SAFETY: `data` holds `rows` rows of `cols`, `out` `rows` values; the
    // host runs the tier, detected or forced by a test to one it runs.
    let at = unsafe { d.row_lanes::<K>(&frame, tier(d)) };
    // SAFETY: as above.
    unsafe { frame.scalar::<D, K>(d, at, frame.rows) };
    #[cfg(test)]
    tests::route::scalar_rows(frame.rows - at);
}

#[cfg(test)]
pub(super) mod tests {
    use super::{elements, fplanes, kernels, mix, rows, Body, Lane, Tier, Unit, Vpu, Width};
    use super::{NativeYmm, NativeZmm, Ymm, Zmm, AVX2_GROUP, ROW_GROUP};
    use crate::vpu::kernels::{Affine, Centre, Divide, Gelu, Max, ShiftedExp, Sum};
    use crate::vpu::{cost, fast, Datapath, OpCount};
    use proptest::prelude::*;

    /// Which route each group took, per test thread: the tests assert that
    /// in-regime shapes really run on the lanes, on the tier they forced.
    pub(in crate::vpu) mod route {
        use std::cell::Cell;
        use std::thread::LocalKey;

        use bfp_arith::fplanes::{Tier, Width};

        thread_local! {
            /// Element groups on the lanes / sent to the scalar body.
            pub static LANE_GROUPS: Cell<u64> = const { Cell::new(0) };
            pub static SCALAR_GROUPS: Cell<u64> = const { Cell::new(0) };
            /// Rows of a row pass on the lanes / on the scalar body.
            pub static LANE_ROWS: Cell<u64> = const { Cell::new(0) };
            pub static SCALAR_ROWS: Cell<u64> = const { Cell::new(0) };
            /// Groups of zmm / ymm vectors, either mode, either route.
            pub static ZMM_GROUPS: Cell<u64> = const { Cell::new(0) };
            pub static YMM_GROUPS: Cell<u64> = const { Cell::new(0) };
            /// The tier the lanes take on this thread instead of the host's.
            pub static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
        }

        fn add(t: &'static LocalKey<Cell<u64>>, n: u64) {
            t.set(t.get() + n);
        }

        /// Counts a group of `n` items on vectors of `W` that ran on the
        /// lanes (`ok`) or the scalar body; rows count singly.
        pub fn tally<W: Width>(rows: bool, ok: bool, n: usize) {
            let zmm = std::mem::size_of::<W::V>() == 64;
            match rows {
                true => add([&SCALAR_ROWS, &LANE_ROWS][usize::from(ok)], n as u64),
                false => add([&SCALAR_GROUPS, &LANE_GROUPS][usize::from(ok)], 1),
            }
            add([&YMM_GROUPS, &ZMM_GROUPS][usize::from(zmm)], 1);
        }

        /// Counts `n` rows a row pass left to the scalar body.
        pub fn scalar_rows(n: usize) {
            add(&SCALAR_ROWS, n as u64);
        }

        /// `(element groups on the lanes, groups on the scalar body)`.
        pub fn take_groups() -> (u64, u64) {
            (LANE_GROUPS.take(), SCALAR_GROUPS.take())
        }

        /// `(rows on the lanes, rows on the scalar body)` of row passes.
        pub fn take_rows() -> (u64, u64) {
            (LANE_ROWS.take(), SCALAR_ROWS.take())
        }

        /// `(groups of F64x8, groups of F64x4)`.
        pub fn take_widths() -> (u64, u64) {
            (ZMM_GROUPS.take(), YMM_GROUPS.take())
        }
    }

    /// Elements per group of the widest element pass on `tier`: eight
    /// `F64x8`, or [`AVX2_GROUP`] `F64x4`.
    pub(in crate::vpu) fn element_group(tier: Tier) -> usize {
        match tier {
            Tier::Avx512 => 64,
            _ => 4 * AVX2_GROUP,
        }
    }

    /// The lanes' `(F64x8, F64x4)` groups over `n` elements, or rows
    /// (`rows`), on `tier`: the widest groups, then (elements only) of
    /// half as many, then of 8, then of 4.
    pub(in crate::vpu) fn widths(tier: Tier, n: usize, rows: bool) -> (u64, u64) {
        let wide = if rows { ROW_GROUP } else { element_group(tier) };
        let half = if rows { wide } else { wide / 2 };
        let [wide, half, eights, fours] = [n / wide, n % wide / half, n % half / 8, n % 8 / 4];
        let [wide, half, eights, fours] = [wide, half, eights, fours].map(|g| g as u64);
        match tier {
            Tier::Avx512 => (wide + half + eights, fours),
            Tier::Avx2 => (0, wide + half + eights + fours),
            Tier::Scalar => (0, 0),
        }
    }

    /// The lanes' groups over `n` elements or rows on `tier`.
    pub(in crate::vpu) fn groups(tier: Tier, n: usize, rows: bool) -> u64 {
        let (zmm, ymm) = widths(tier, n, rows);
        zmm + ymm
    }

    /// [`widths`] of `D`'s element passes over `n` elements: a native
    /// vector holds twice the lanes of an exact one, so each of the fast
    /// unit's groups holds twice the elements (its row passes take none).
    pub(in crate::vpu) fn element_widths<D: Lane>(tier: Tier, n: usize) -> (u64, u64) {
        widths(tier, n / (<D::Ymm as Width>::LANES / 4), false)
    }

    /// The groups of [`element_widths`].
    pub(in crate::vpu) fn element_groups<D: Lane>(tier: Tier, n: usize) -> u64 {
        let (zmm, ymm) = element_widths::<D>(tier, n);
        zmm + ymm
    }

    /// Every lane tier this host runs, fastest first (none without AVX2).
    pub(in crate::vpu) fn exec_tiers() -> Vec<Tier> {
        let host = fplanes::tier();
        [Tier::Avx512, Tier::Avx2]
            .into_iter()
            .filter(|&t| t <= host)
            .collect()
    }

    /// `f()` with the lanes on `tier` on this thread.
    ///
    /// # Panics
    /// Panics if the host cannot run `tier`.
    pub(in crate::vpu) fn on_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
        assert!(tier <= fplanes::tier(), "this host cannot run {tier}");
        let was = route::FORCED.replace(Some(tier));
        let r = f();
        route::FORCED.set(was);
        r
    }

    /// The op mix of body `K`, as the counting instantiation reads it.
    fn of<K: Body<I, O>, const I: usize, const O: usize>() -> OpCount {
        mix::<K, I, O>()
    }

    #[test]
    fn every_body_counts_its_kernels_cost_formula() {
        let mut exp = OpCount::default();
        kernels::exp(&mut exp, ());
        assert_eq!(exp, cost::exp());
        assert_eq!(of::<Gelu, 1, 1>(), cost::gelu());
        for n in [1u64, 5, 197, 384] {
            // Softmax: the max scan's n − 1 steps, then n elements of the
            // exponentials, steps of the sum and divides.
            let mut softmax = of::<Max, 2, 1>().times(n - 1);
            for mix in [
                of::<ShiftedExp, 2, 1>(),
                of::<Sum, 2, 1>(),
                of::<Divide, 2, 1>(),
            ] {
                softmax.merge(&mix.times(n));
            }
            assert_eq!(softmax, cost::softmax_row(n), "softmax of {n}");
            // LayerNorm: the per-row mean, variance, `+ eps` and `1/sd` on
            // the scalar datapath, then its two sums and two passes.
            let mut vpu = Vpu::new();
            let mean = vpu.mul(3.0, 0.25);
            let var = vpu.mul(mean, 0.25);
            let ve = vpu.add(var, 1e-6);
            vpu.rsqrt(ve);
            let mut layernorm = vpu.count;
            for mix in [of::<Sum, 2, 1>(), of::<Centre, 2, 2>(), of::<Sum, 2, 1>()] {
                layernorm.merge(&mix.times(n));
            }
            layernorm.merge(&of::<Affine, 4, 1>().times(n));
            assert_eq!(layernorm, cost::layernorm_row(n), "layernorm of {n}");
        }
    }

    /// Element pass `K` over `data` (one row) on `d`'s lanes on `tier`: the
    /// output and the `(lane, scalar)` groups, after asserting that every
    /// group ran on the tier's vectors.
    fn on_lanes<D: Lane, K: Body<1, 1>>(
        d: &mut D,
        tier: Tier,
        data: &[f32],
    ) -> (Vec<f32>, (u64, u64)) {
        let mut out = data.to_vec();
        route::take_groups();
        route::take_widths();
        on_tier(tier, || {
            elements::<D, K, 1, 1>(d, &mut out, data.len(), &[], [&[]; 2], &mut [])
        });
        let want = element_widths::<D>(tier, data.len());
        assert_eq!(route::take_widths(), want, "{tier}");
        (out, route::take_groups())
    }

    /// A datapath's own `exp` as an element pass: its unclamped range on
    /// the lanes.
    struct Exp;

    impl Body<1, 1> for Exp {
        const BOUND: f32 = f32::MAX;

        fn run<D: kernels::Ops + ?Sized>(d: &mut D, [x]: [D::V; 1]) -> [D::V; 1] {
            [d.exp(x)]
        }
    }

    #[test]
    fn the_lane_exp_equals_the_scalar_kernel_across_the_whole_unclamped_range() {
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
        let want: Vec<u32> = args.iter().map(|&x| vpu.exp(x).to_bits()).collect();
        for tier in exec_tiers() {
            let mut vpu = Vpu::new();
            let (got, route) = on_lanes::<Vpu, Exp>(&mut vpu, tier, &args);
            for ((g, w), &x) in got.iter().zip(&want).zip(&args) {
                assert_eq!(g.to_bits(), *w, "exp({x:e}) on {tier}");
            }
            assert_eq!(vpu.count, cost::exp().times(args.len() as u64));
            assert_eq!(route, (groups(tier, args.len(), false), 0), "all in range");
        }
    }

    /// The fast unit's ROM `exp` on its native lanes against [`Unit`]'s, in
    /// bits, where every group runs on the lanes: the unclamped range and
    /// its ends, the arguments whose fraction rounds up to 1.0 (the
    /// saturated ROM address), and every multiple of ln2/64 in range with
    /// its neighbours (the ROM address edges).
    #[test]
    fn the_native_rom_exp_equals_the_fast_unit_across_the_unclamped_range() {
        let mut args: Vec<f32> = vec![-87.0, 88.0, -0.0, 0.0, 1e-30, -1e-30, 0.5, -0.5];
        args.extend([-1e-9, 1e-9, -f32::EPSILON / 4.0, -f32::MIN_POSITIVE, -1e-40]);
        args.extend([86.99999, 87.99999, -86.99999, 0.346_573_6, -0.346_573_6]);
        args.extend((0..=175_000).map(|k| (-87.0 + k as f32 * 0.001).min(88.0)));
        for k in -8000..=8000 {
            let x = k as f32 * fast::LN2_OVER_64;
            let (up, down) = (x.to_bits() + 1, x.to_bits().max(1) - 1);
            args.extend([x, f32::from_bits(up), f32::from_bits(down)]);
        }
        args.retain(|x| (-87.0..=88.0).contains(x));
        args.truncate(args.len() / 8 * 8);
        for tier in exec_tiers() {
            let (got, route) = on_lanes::<Unit, Exp>(&mut Unit, tier, &args);
            for (g, &x) in got.iter().zip(&args) {
                assert_eq!(g.to_bits(), Unit.exp(x).to_bits(), "exp({x:e}) on {tier}");
            }
            let all = element_groups::<Unit>(tier, args.len());
            assert_eq!(route, (all, 0), "all in range on {tier}");
        }
    }

    #[test]
    fn native_exp_groups_outside_the_range_take_the_scalar_body() {
        let below = f32::from_bits((-87.0f32).to_bits() + 1);
        let above = f32::from_bits(88.0f32.to_bits() + 1);
        let out = [
            below,
            above,
            -88.0,
            89.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for tier in exec_tiers() {
            for o in out {
                // Sixteen elements: one group of a 16-lane vector on
                // AVX-512, of two 8-lane ones on AVX2.
                for lane in 0..16 {
                    let mut x = [0.25f32; 16];
                    x[lane] = o;
                    let (got, route) = on_lanes::<Unit, Exp>(&mut Unit, tier, &x);
                    for (g, &x) in got.iter().zip(&x) {
                        assert_eq!(g.to_bits(), Unit.exp(x).to_bits(), "exp({x:e}) on {tier}");
                    }
                    assert_eq!(route, (0, 1), "{o:e} in lane {lane} on {tier}");
                }
            }
        }
    }

    /// Every f32 pattern in [−88, 89] — one past each clamp — through the
    /// native ROM `exp`, a group of consecutive patterns per call on every
    /// tier: bit-equal to [`Unit`]'s, and on the lanes exactly when the
    /// whole group is inside [−87, 88].
    #[test]
    #[ignore = "≈ 2.3·10⁹ patterns per tier: release sweep, run by CI's envelope step"]
    fn native_rom_exp_equals_the_fast_unit_on_every_pattern_in_range() {
        for tier in exec_tiers() {
            let n = element_group(tier) * 2;
            let sweep = |lo: u32, hi: u32| {
                let mut x = vec![0f32; n];
                for base in (lo..=hi).step_by(n) {
                    for (i, v) in x.iter_mut().enumerate() {
                        *v = f32::from_bits((base + i as u32).min(hi));
                    }
                    let (got, route) = on_lanes::<Unit, Exp>(&mut Unit, tier, &x);
                    for (g, &x) in got.iter().zip(&x) {
                        assert_eq!(g.to_bits(), Unit.exp(x).to_bits(), "exp({x:e}) on {tier}");
                    }
                    let inside = x.iter().all(|v| (-87.0..=88.0).contains(v));
                    assert_eq!(route, (inside as u64, !inside as u64), "{x:?} on {tier}");
                }
            };
            std::thread::scope(|s| {
                s.spawn(|| sweep(0.0f32.to_bits(), 89.0f32.to_bits()));
                s.spawn(|| sweep((-0.0f32).to_bits(), (-88.0f32).to_bits()));
            });
        }
    }

    /// The fast unit's ROM `exp` on the exact datapath: the ROM address,
    /// `floor` and their lane twins on the f64 widths.
    struct RomExp;

    impl Body<1, 1> for RomExp {
        const BOUND: f32 = f32::MAX;

        fn run<D: kernels::Ops + ?Sized>(d: &mut D, [x]: [D::V; 1]) -> [D::V; 1] {
            [kernels::rom_exp(d, x)]
        }
    }

    #[test]
    fn the_rom_exp_body_on_the_exact_lanes_equals_its_scalar_instantiation() {
        let mut args: Vec<f32> = (0..=17_500).map(|k| -87.0 + k as f32 * 0.01).collect();
        args.extend([
            -1e-9,
            1e-9,
            -1e-40,
            0.0,
            -0.0,
            88.0,
            -87.0,
            88.5,
            -90.0,
            f32::NAN,
        ]);
        let mut scalar = Vpu::new();
        let want: Vec<f32> = args
            .iter()
            .map(|&x| RomExp::run(&mut scalar, [x])[0])
            .collect();
        for tier in exec_tiers() {
            let mut vpu = Vpu::new();
            let (got, (lanes, _)) = on_lanes::<Vpu, RomExp>(&mut vpu, tier, &args);
            for ((g, w), x) in got.iter().zip(&want).zip(&args) {
                assert_eq!(g.to_bits(), w.to_bits(), "exp({x:e}) on {tier}");
            }
            assert_eq!(vpu.count, scalar.count, "{tier}");
            assert!(lanes > 0, "{tier}");
        }
    }

    /// SiLU `x / (1 + e^(−x))`, written once like every kernel body.
    struct Silu;

    impl Body<1, 1> for Silu {
        const BOUND: f32 = f32::MAX;

        fn run<D: kernels::Ops + ?Sized>(d: &mut D, [x]: [D::V; 1]) -> [D::V; 1] {
            let neg = d.mul(x, d.c(-1.0));
            let e = d.exp(neg);
            let den = d.add(e, d.c(1.0));
            let r = d.div(d.c(1.0), den);
            [d.mul(x, r)]
        }
    }

    #[test]
    fn a_brand_new_activation_compiles_from_the_same_isa() {
        // The run-time-programmability claim: SiLU never existed when the
        // "hardware" was built, yet its body, written once in the same
        // operations, runs on the scalar datapath and on every tier's lanes.
        let src: Vec<f32> = (-30..=30).map(|k| k as f32 * 0.2).collect();
        for tier in exec_tiers() {
            let mut batch = Vpu::new();
            let (got, route) = on_lanes::<Vpu, Silu>(&mut batch, tier, &src);
            let count = batch.count;
            // 61 elements: on AVX-512 a group of four `F64x8` (32), three
            // of one (8) and one of an `F64x4` (4); on AVX2 groups of 32,
            // 16, 8 and 4. The last element runs the scalar body.
            let split = match tier {
                Tier::Avx512 => (5, (4, 1)),
                _ => (4, (0, 4)),
            };
            assert_eq!((groups(tier, 61, false), widths(tier, 61, false)), split);
            assert_eq!(route, (split.0, 0), "{tier}");
            let mut vpu = Vpu::new();
            for (&g, &x) in got.iter().zip(&src) {
                let want = x as f64 / (1.0 + (-x as f64).exp());
                assert!((g as f64 - want).abs() < 2e-5, "silu({x}): {g} vs {want}");
                let [scalar] = Silu::run(&mut vpu, [x]);
                assert_eq!(g.to_bits(), scalar.to_bits(), "silu({x}) on {tier}");
            }
            assert_eq!(count, vpu.count);
            assert_eq!(count, of::<Silu, 1, 1>().times(61));
            assert_eq!(count.host_div, src.len() as u64);
        }
    }

    /// `x + y` element-wise, `y` a column operand.
    struct AddColumn;

    impl Body<3, 1> for AddColumn {
        const BOUND: f32 = f32::MAX;

        fn run<D: kernels::Ops + ?Sized>(d: &mut D, [x, _, y]: [D::V; 3]) -> [D::V; 1] {
            [d.add(x, y)]
        }
    }

    /// The pairs of `bfp-arith`'s `add_truncates_the_aligned_operand_at_
    /// every_window_gap` at exponent 201 (2⁷⁴, inside the row sum's
    /// regime), both signs each: all-ones mantissas make every bit the
    /// 48-bit window shifts out a one, so an adder that rounds its aligned
    /// operand instead of truncating shows. 68 of them: row groups of 32,
    /// 32 and 4.
    fn window_gap_pairs() -> Vec<(f32, f32)> {
        let fp = |s: u32, e: u32, m: u32| f32::from_bits(s << 31 | e << 23 | m);
        let big = fp(0, 201, 0);
        let mut pairs = vec![
            (big, fp(1, 201 - 47, 0x7f_ffff)),
            (big, fp(1, 201 - 48, 0x7f_ffff)),
            (big, fp(1, 1, 0x7f_ffff)),
            (-big, fp(0, 201 - 47, 0x7f_ffff)),
        ];
        for gap in [0, 1, 23, 24, 47, 48, 49, 200] {
            for (sx, sy) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                pairs.push((fp(sx, 201, 0x7f_ffff), fp(sy, 201 - gap, 0x7f_ffff)));
                pairs.push((fp(sx, 201, 0x00_0001), fp(sy, 201 - gap, 0x55_5555)));
            }
        }
        pairs
    }

    /// Row pass `K` of `d` over `data` on `tier` against `oracle` row by
    /// row on `scalar`, in bits.
    fn row_pass<D: Lane, K: Body<2, 1>>(
        (d, scalar): (&mut D, &mut D),
        tier: Tier,
        data: &[f32],
        cols: usize,
        oracle: fn(&mut D, &[f32]) -> f32,
    ) {
        let mut got = vec![0f32; data.len() / cols];
        on_tier(tier, || rows::<D, K>(d, data, cols, &mut got));
        for (r, (g, row)) in got.iter().zip(data.chunks_exact(cols)).enumerate() {
            let want = oracle(scalar, row);
            assert_eq!(g.to_bits(), want.to_bits(), "row {r} {row:?} on {tier}");
        }
    }

    /// Row pass `K` over `data` on `tier` against `oracle` row by row: the
    /// same bits, the count of `oracle` on a fresh [`Vpu`], and `(rows on
    /// the lanes, rows on the scalar body)`, which it returns.
    fn check_rows<K: Body<2, 1>>(
        tier: Tier,
        data: &[f32],
        cols: usize,
        oracle: fn(&mut Vpu, &[f32]) -> f32,
    ) -> (u64, u64) {
        let (mut batch, mut scalar) = (Vpu::new(), Vpu::new());
        route::take_rows();
        route::take_widths();
        row_pass::<Vpu, K>((&mut batch, &mut scalar), tier, data, cols, oracle);
        let rows = data.len() / cols;
        assert_eq!(route::take_widths(), widths(tier, rows, true), "{tier}");
        assert_eq!(batch.count, scalar.count, "{tier}");
        route::take_rows()
    }

    fn sum<D: Datapath>(d: &mut D, row: &[f32]) -> f32 {
        row.iter().fold(0.0, |s, &v| d.add(s, v))
    }

    fn max<D: Datapath>(d: &mut D, row: &[f32]) -> f32 {
        let mut max = row[0];
        for &v in &row[1..] {
            d.count_cmp();
            if v > max {
                max = v;
            }
        }
        max
    }

    #[test]
    fn interleaved_row_chains_equal_the_row_by_row_scalar_on_both_datapaths() {
        // Rows around the eight interleaved chains and the 32-row groups;
        // every fifth row from the third holds one element outside a pass's
        // regime (a NaN, or 1e30 > 2⁹⁶ for the sum), so the `Vpu`'s failed
        // row groups run the chains too.
        let mut tiers = vec![Tier::Scalar];
        tiers.extend(exec_tiers());
        for tier in tiers {
            for rows in [1, 7, 8, 9, 33, 197] {
                for cols in [1, 2, 5, 197] {
                    let mut data: Vec<f32> = (0..rows * cols).map(|k| (k as f32).sin()).collect();
                    for r in (2..rows).step_by(5) {
                        data[r * cols + r % cols] = [f32::NAN, 1e30][r % 2];
                    }
                    check_rows::<Max>(tier, &data, cols, max);
                    check_rows::<Sum>(tier, &data, cols, sum);
                    let unit = (&mut Unit, &mut Unit);
                    row_pass::<Unit, Max>(unit, tier, &data, cols, max);
                    let unit = (&mut Unit, &mut Unit);
                    row_pass::<Unit, Sum>(unit, tier, &data, cols, sum);
                    assert_eq!(route::take_widths(), (0, 0), "{tier}: no gathers");
                    let what = format!("{rows}×{cols} on {tier}");
                    assert_eq!(route::take_rows(), (0, 2 * rows as u64), "{what}");
                }
            }
        }
    }

    #[test]
    fn the_adder_truncates_at_every_window_gap_in_both_modes() {
        let pairs = window_gap_pairs();
        let (xs, ys): (Vec<f32>, Vec<f32>) = pairs.iter().copied().unzip();
        // Rows `[x, y]`, and `[x, y, −x]`: summed in another order, the
        // last is `(−x + y) + x`, whose truncation differs.
        let twos: Vec<f32> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        let threes: Vec<f32> = pairs.iter().flat_map(|&(x, y)| [x, y, -x]).collect();
        for tier in exec_tiers() {
            let (mut vpu, mut got) = (Vpu::new(), xs.clone());
            route::take_groups();
            on_tier(tier, || {
                elements::<Vpu, AddColumn, 3, 1>(
                    &mut vpu,
                    &mut got,
                    xs.len(),
                    &[0.0],
                    [&ys, &[]],
                    &mut [],
                )
            });
            let n = xs.len();
            assert_eq!(route::take_groups(), (groups(tier, n, false), 0), "{tier}");
            let mut scalar = Vpu::new();
            for ((g, &x), &y) in got.iter().zip(&xs).zip(&ys) {
                let want = scalar.add(x, y);
                assert_eq!(g.to_bits(), want.to_bits(), "{x:e} + {y:e} on {tier}");
            }
            assert_eq!(vpu.count, scalar.count);
            let rows = pairs.len() as u64;
            assert_eq!(check_rows::<Sum>(tier, &twos, 2, sum), (rows, 0));
            assert_eq!(check_rows::<Sum>(tier, &threes, 3, sum), (rows, 0));
        }
    }

    #[test]
    fn row_max_compares_the_elements_as_stored() {
        let (nan, inf, tiny) = (f32::NAN, f32::INFINITY, f32::from_bits(1));
        let sub = |b: u32| f32::from_bits(b);
        // A 32-row group the comparator runs: subnormals alone, the
        // largest neither first nor last (imported, they would all tie at
        // zero), ±0 ties in both orders (the first wins), infinities.
        let mut rows = vec![
            [
                sub(3),
                sub(0x7f_0000),
                sub(0x7f_ffff),
                -sub(0x7f_ffff),
                tiny,
            ],
            [-sub(5), -sub(2), -tiny, -sub(0x40_0000), -sub(9)],
            [0.0, -0.0, -0.0, 0.0, -1.0],
            [-0.0, 0.0, 0.0, -0.0, -1.0],
            [-0.0, -0.0, -tiny, -2.0, -0.0],
            [-inf, -1.0, -inf, 2.5, 2.5],
            [-inf, -inf, -inf, -inf, -inf],
            [1.0, inf, -inf, inf, 3.0],
        ];
        rows.extend((0..24).map(|r| [r as f32, -(r as f32), 0.5, 1e30, -1e30]));
        // An 8-row group with a NaN head and a 4-row group with a NaN
        // inside: the scalar scan (a NaN head stays the max, a later NaN
        // never wins). Then one row on the scalar body.
        rows.push([nan, 1.0, inf, -1.0, 2.0]);
        rows.extend([[1.0, 2.0, 3.0, 4.0, 5.0]; 7]);
        rows.push([1.0, nan, 3.0, nan, -5.0]);
        rows.extend([[-0.0, 0.0, tiny, 0.0, -0.0]; 4]);
        let data = rows.concat();
        for tier in exec_tiers() {
            assert_eq!(check_rows::<Max>(tier, &data, 5, max), (32, 13));
        }
    }

    #[test]
    fn a_row_group_outside_the_sum_regime_runs_the_scalar_adder() {
        let cols = 7;
        let base: Vec<f32> = (0..45 * cols).map(|k| (k as f32 * 0.37).sin()).collect();
        // 45 rows: groups of 32, 8 and 4, one row on the scalar body.
        for (at, bad) in [(3, 1e29), (40, f32::NAN), (43, -f32::INFINITY), (44, 1e30)] {
            let mut data = base.clone();
            data[at * cols + 5] = bad;
            let scalar_rows = match at {
                0..32 => 32,
                32..40 => 8,
                40..44 => 4,
                _ => 0,
            } + 1;
            for tier in exec_tiers() {
                let route = check_rows::<Sum>(tier, &data, cols, sum);
                assert_eq!(
                    route,
                    (45 - scalar_rows, scalar_rows),
                    "{bad:e} in row {at}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_lane_exp_matches_the_kernel_for_any_operands(
            xs in proptest::collection::vec(-100.0f32..100.0, 1..80)
        ) {
            for tier in exec_tiers() {
                let mut batch = Vpu::new();
                let (got, _) = on_lanes::<Vpu, Exp>(&mut batch, tier, &xs);
                let mut vpu = Vpu::new();
                for (g, &x) in got.iter().zip(&xs) {
                    prop_assert_eq!(g.to_bits(), vpu.exp(x).to_bits(), "exp({:e})", x);
                }
                prop_assert_eq!(batch.count, vpu.count);
            }
        }

        #[test]
        fn the_native_rom_exp_matches_the_fast_unit_for_any_operands(
            xs in proptest::collection::vec(-100.0f32..100.0, 1..300)
        ) {
            for tier in exec_tiers() {
                let (got, _) = on_lanes::<Unit, Exp>(&mut Unit, tier, &xs);
                for (g, &x) in got.iter().zip(&xs) {
                    prop_assert_eq!(g.to_bits(), Unit.exp(x).to_bits(), "exp({:e})", x);
                }
            }
        }
    }

    /// `x[i] · 2^k` on `W`'s lanes, a vector at a time; `k` reaches the
    /// lanes as an imported splat, exact for `|k| < 2²⁴`.
    #[inline(always)]
    unsafe fn scaled<W: Width>(x: &[f32], k: i32) -> Vec<f32> {
        let k = W::import(W::splat(k as f32));
        let mut out = x.to_vec();
        for v in out.chunks_exact_mut(W::LANES) {
            let r = W::scale_exp2(W::import(W::load(v.as_ptr())), k);
            W::store(v.as_mut_ptr(), W::export(r));
        }
        out
    }

    #[target_feature(enable = "avx2")]
    unsafe fn scaled_avx2<W: Width>(x: &[f32], k: i32) -> Vec<f32> {
        scaled::<W>(x, k)
    }

    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn scaled_avx512<W: Width>(x: &[f32], k: i32) -> Vec<f32> {
        scaled::<W>(x, k)
    }

    /// [`scaled`] on `tier`'s exact or `native` width.
    fn scaled_on(tier: Tier, native: bool, x: &[f32], k: i32) -> Vec<f32> {
        assert!(tier <= fplanes::tier() && tier > Tier::Scalar, "{tier}");
        // SAFETY: the host runs `tier`, asserted above.
        unsafe {
            match (tier, native) {
                (Tier::Avx512, false) => scaled_avx512::<Zmm>(x, k),
                (Tier::Avx512, true) => scaled_avx512::<NativeZmm>(x, k),
                (_, false) => scaled_avx2::<Ymm>(x, k),
                (_, true) => scaled_avx2::<NativeYmm>(x, k),
            }
        }
    }

    #[test]
    fn scale_exp2_lanes_equal_the_exponent_unit() {
        let mut vpu = Vpu::new();
        // Zeros and normals: a lane value is never subnormal.
        let xs = [
            [0.0, -0.0, 1.0, -1.0],
            [1.5, -0.75, f32::MIN_POSITIVE, -f32::MIN_POSITIVE],
            [f32::MAX, -f32::MAX, 1.999_999_9, -1.175_494_5e-38],
            [3.0e-20, -7.0e20, 1.0e38, -2.0e-38],
        ]
        .concat();
        let ks = (-300..=300).chain([-100_000, 100_000, -2047, 2047]);
        for k in ks {
            let want: Vec<f32> = xs.iter().map(|&x| vpu.scale_exp2(x, k)).collect();
            for tier in exec_tiers() {
                for ((g, w), x) in scaled_on(tier, false, &xs, k).iter().zip(&want).zip(&xs) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{x:e} · 2^{k} on {tier}");
                }
            }
        }
    }

    #[test]
    fn native_scale_exp2_lanes_equal_the_scalar_exponent_unit() {
        // Every early return of the scalar: zeros of both signs, FTZ
        // underflow, saturation by sign — and NaN, whose `x > 0.0` is false,
        // subnormals and infinities. None is reachable from the ROM `exp`'s
        // regime (its operand is in [1, 2.01) and |k| ≤ 126), so this direct
        // comparison is the only guard the three muxes have.
        let xs = [
            [0.0, -0.0, 1.0, -1.0, 1.5, -0.75, 1.999_999_9, 2.000_745],
            [
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::MAX,
                -f32::MAX,
                1e-40,
                -1e-40,
                0.5,
                3.0,
            ],
            [f32::NAN, -f32::NAN, 3e-20, -7e20, 1e38, -2e-38, 1.0, 0.25],
            [
                f32::INFINITY,
                f32::NEG_INFINITY,
                -1e-45,
                1e-45,
                7.0,
                -7.0,
                1e-30,
                -1e30,
            ],
        ]
        .concat();
        for k in -400..=400 {
            for tier in exec_tiers() {
                for (g, &x) in scaled_on(tier, true, &xs, k).iter().zip(&xs) {
                    let want = crate::vpu::scale_exp2(x, k);
                    assert_eq!(g.to_bits(), want.to_bits(), "{x:e} · 2^{k} on {tier}");
                }
            }
        }
    }
}
