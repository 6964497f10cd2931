//! The exact host-division kernels of [`Vpu`] on the lane datapath
//! ([`bfp_arith::fplanes`]): the bodies of [`super::kernels`] on a bundle
//! [`Lanes<W, G>`] of `G` vectors of width `W`, compiled inside one
//! `#[target_feature]` entry per tier to straight-line code with `G`
//! independent vectors interleaved.
//!
//! [`elements`] puts an element in each lane (GELU, and the softmax and
//! LayerNorm passes over whole row blocks, a row's statistic splatted):
//! groups of 64 elements on AVX-512 (eight `F64x8`) or 32 on AVX2 (eight
//! `F64x4`), then of half as many, then of 8, then of 4. [`rows`] puts a
//! row in each lane and
//! steps across the columns in the row's element order (the max scan and
//! the row sums): groups of [`ROW_GROUP`] rows, then of 8, then of 4. The
//! scalar body on the [`Vpu`] takes the rest, and every group outside its
//! body's regime — an operand beyond [`Body::BOUND`] (NaN fails), a failed
//! [`Ops::clamp`] — its lanes' work discarded. A completed group is
//! charged its body's counted mix ([`mix`]) per element, or per row and
//! step; a scalar element counts itself. Bits and [`OpCount`] do not
//! depend on the route.
//!
//! [`OpCount`]: super::OpCount

use std::marker::PhantomData;

use bfp_arith::fplanes::{self, Tier, Width, Ymm, Zmm};

use super::kernels::{self, mix, Body, Ops};
use super::Vpu;

/// Rows per row group: four `F64x8` vectors, eight `F64x4`. The engine
/// cuts its VPU shards on multiples of it, so a cut never splits a group.
pub(crate) const ROW_GROUP: usize = 32;

/// `F64x4` vectors per element group on AVX2.
const AVX2_GROUP: usize = 8;

/// Rows this long or longer stay on the scalar body (the row sum's regime).
const ROW_MAX_COLS: usize = 1 << 31;

/// `G` vectors of `W`, as a datapath: each operation is the lane
/// datapath's on every vector, and [`Ops::clamp`] fails the group (`ok`)
/// instead of clamping — unless the body's operand bound keeps every clamp
/// in range ([`Body::CLAMPS_IN_BOUND`]).
///
/// Invariant: a `Lanes<W, G>` exists only on a host that runs `W`.
pub(super) struct Lanes<W, const G: usize> {
    ok: bool,
    clamps: bool,
    width: PhantomData<W>,
}

impl<W: Width, const G: usize> Lanes<W, G> {
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

impl<W: Width, const G: usize> Ops for Lanes<W, G> {
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
        kernels::exp(self, x)
    }

    /// The host's IEEE divide on the values in memory format.
    #[inline(always)]
    fn div(&mut self, a: Self::V, b: Self::V) -> Self::V {
        each!(a, b, |x, y| W::import(W::div(W::export(x), W::export(y))))
    }

    #[inline(always)]
    fn scale_exp2(&mut self, x: Self::V, k: Self::V) -> Self::V {
        each!(x, k, |x, k| W::scale_exp2(x, W::to_i32(k)))
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
                self.ok &= unsafe { W::all_within(v, lo.into(), hi.into()) };
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

/// The lanes' tier: the host's, or the one a test forced.
fn exec_tier() -> Tier {
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
    unsafe fn scalar<K: Body<I, O>, const I: usize, const O: usize>(
        &self,
        vpu: &mut Vpu,
        r: usize,
        lo: usize,
        hi: usize,
    ) {
        for j in lo..hi {
            let mut x = [0f32; I];
            for (k, x) in x.iter_mut().enumerate() {
                *x = *self.operand(k, r, j);
            }
            let y = K::run(vpu, x);
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
    unsafe fn groups<W: Width, const G: usize, K: Body<I, O>, const I: usize, const O: usize>(
        &self,
        vpu: &mut Vpu,
        r: usize,
        j: &mut usize,
    ) -> u64 {
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
                let mut lanes = Lanes::<W, G>::new::<K, I, O>();
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
                false => self.scalar::<K, I, O>(vpu, r, *j, *j + step),
            }
            #[cfg(test)]
            tests::route::tally(false, ok, step, W::LANES == 8);
            *j += step;
        }
        ran
    }

    /// Every row: its groups of `G` vectors of `W`, then of `G2` (half as
    /// many), then of the 8 elements of `G8` vectors and of the 4 of one
    /// `F64x4`; the rest, and a row whose statistic is outside the regime,
    /// on the scalar body. Returns the elements the lanes ran.
    ///
    /// # Safety
    /// As [`Frame::groups`], for each width.
    #[inline(always)]
    unsafe fn run<
        W: Width,
        const G: usize,
        const G2: usize,
        const G8: usize,
        K,
        const I: usize,
        const O: usize,
    >(
        &self,
        vpu: &mut Vpu,
    ) -> u64
    where
        K: Body<I, O>,
    {
        let mut ran = 0;
        for r in 0..self.rows {
            let mut j = 0;
            if I < 2 || (*self.stat.add(r)).abs() <= K::BOUND {
                ran += self.groups::<W, G, K, I, O>(vpu, r, &mut j);
                ran += self.groups::<W, G2, K, I, O>(vpu, r, &mut j);
                ran += self.groups::<W, G8, K, I, O>(vpu, r, &mut j);
                ran += self.groups::<Ymm, 1, K, I, O>(vpu, r, &mut j);
            }
            self.scalar::<K, I, O>(vpu, r, j, self.cols);
        }
        ran
    }

    /// The AVX-512 tier: groups of eight `F64x8` (64 elements), then four,
    /// then one, then one `F64x4`.
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn run_avx512<K: Body<I, O>, const I: usize, const O: usize>(&self, v: &mut Vpu) -> u64 {
        self.run::<Zmm, 8, 4, 1, K, I, O>(v)
    }

    /// The AVX2 tier: groups of [`AVX2_GROUP`] `F64x4` (32 elements), then
    /// half as many, then two, then one.
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2<K: Body<I, O>, const I: usize, const O: usize>(&self, v: &mut Vpu) -> u64 {
        self.run::<Ymm, AVX2_GROUP, { AVX2_GROUP / 2 }, 2, K, I, O>(v)
    }
}

/// Element pass `K` over the `cols`-wide rows of `data`, operands and
/// results as [`Frame`] binds them (`stat` one per row if `I > 1`, `col`
/// `cols` each if `I > 2`, `out` as long as `data` if `O > 1`), on the
/// host's tier, charged per element.
///
/// # Panics
/// Panics if `data` is not whole rows, or an operand's length is wrong.
pub(super) fn elements<K: Body<I, O>, const I: usize, const O: usize>(
    vpu: &mut Vpu,
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
        match exec_tier() {
            Tier::Avx512 => frame.run_avx512::<K, I, O>(vpu),
            Tier::Avx2 => frame.run_avx2::<K, I, O>(vpu),
            Tier::Scalar => {
                for r in 0..rows {
                    frame.scalar::<K, I, O>(vpu, r, 0, cols);
                }
                0
            }
        }
    };
    vpu.count.merge(&mix::<K, I, O>().times(ran));
}

/// A row pass's operands: `rows` rows of `cols` at `data`, each row's last
/// accumulator to `out`.
struct RowFrame {
    data: *const f32,
    out: *mut f32,
    rows: usize,
    cols: usize,
}

impl RowFrame {
    /// The scalar body on rows `lo..hi`.
    ///
    /// # Safety
    /// `hi ≤ rows`.
    unsafe fn scalar<K: Body<2, 1>>(&self, vpu: &mut Vpu, lo: usize, hi: usize) {
        for r in lo..hi {
            let row = std::slice::from_raw_parts(self.data.add(r * self.cols), self.cols);
            let (mut acc, first) = match K::INIT {
                Some(c) => (c, 0),
                None => (row[0], 1),
            };
            for &v in &row[first..] {
                [acc] = K::run(vpu, [acc, v]);
            }
            *self.out.add(r) = acc;
        }
    }

    /// Column `j` of the `G · W::LANES` rows from row `at`, as body `K`
    /// takes it; `ok` false if an element is outside the regime.
    ///
    /// # Safety
    /// As [`RowFrame::groups`], `at` its group's first row.
    #[inline(always)]
    unsafe fn column<W: Width, const G: usize, K: Body<2, 1>>(
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
    unsafe fn groups<W: Width, const G: usize, K: Body<2, 1>>(
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
            let mut lanes = Lanes::<W, G>::new::<K, 2, 1>();
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
                self.scalar::<K>(vpu, *at, *at + step);
            }
            #[cfg(test)]
            tests::route::tally(true, ok, step, W::LANES == 8);
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
/// `r`'s last accumulator, from [`Body::INIT`]. Charged per row and step.
///
/// # Panics
/// Panics unless `data` is `out.len()` rows of `cols > 0`.
pub(super) fn rows<K: Body<2, 1>>(vpu: &mut Vpu, data: &[f32], cols: usize, out: &mut [f32]) {
    assert!(cols > 0 && data.len() == out.len() * cols, "whole rows");
    let frame = RowFrame {
        data: data.as_ptr(),
        out: out.as_mut_ptr(),
        rows: out.len(),
        cols,
    };
    let mut at = 0;
    // SAFETY: `data` holds `rows` rows of `cols`, `out` `rows` values; the
    // host runs the tier, detected or forced by a test to one it runs.
    let ran = unsafe {
        match exec_tier() {
            Tier::Avx512 if cols < ROW_MAX_COLS => frame.groups_avx512::<K>(vpu, &mut at),
            Tier::Avx2 if cols < ROW_MAX_COLS => frame.groups_avx2::<K>(vpu, &mut at),
            _ => 0,
        }
    };
    // SAFETY: as above.
    unsafe { frame.scalar::<K>(vpu, at, frame.rows) };
    #[cfg(test)]
    tests::route::scalar_rows(frame.rows - at);
    let steps = cols - usize::from(K::INIT.is_none());
    vpu.count.merge(&mix::<K, 2, 1>().times(ran * steps as u64));
}

#[cfg(test)]
pub(super) mod tests {
    use super::{elements, fplanes, kernels, mix, rows, Body, Tier, Vpu, Width, Ymm, Zmm};
    use super::{AVX2_GROUP, ROW_GROUP};
    use crate::vpu::cost;
    use crate::vpu::kernels::{Affine, Centre, Divide, Gelu, Max, ShiftedExp, Sum};
    use crate::vpu::{Datapath, OpCount};
    use proptest::prelude::*;

    /// Which route each group took, per test thread: the tests assert that
    /// in-regime shapes really run on the lanes, on the tier they forced.
    pub(in crate::vpu) mod route {
        use std::cell::Cell;
        use std::thread::LocalKey;

        use bfp_arith::fplanes::Tier;

        thread_local! {
            /// Element groups on the lanes / sent to the scalar body.
            pub static LANE_GROUPS: Cell<u64> = const { Cell::new(0) };
            pub static SCALAR_GROUPS: Cell<u64> = const { Cell::new(0) };
            /// Rows of a row pass on the lanes / on the scalar body.
            pub static LANE_ROWS: Cell<u64> = const { Cell::new(0) };
            pub static SCALAR_ROWS: Cell<u64> = const { Cell::new(0) };
            /// Groups of `F64x8` / `F64x4` vectors, either mode, either route.
            pub static ZMM_GROUPS: Cell<u64> = const { Cell::new(0) };
            pub static YMM_GROUPS: Cell<u64> = const { Cell::new(0) };
            /// The tier the lanes take on this thread instead of the host's.
            pub static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
        }

        fn add(t: &'static LocalKey<Cell<u64>>, n: u64) {
            t.set(t.get() + n);
        }

        /// Counts a group of `n` items on `F64x8` or `F64x4` vectors that ran
        /// on the lanes (`ok`) or the scalar body; rows count singly.
        pub fn tally(rows: bool, ok: bool, n: usize, zmm: bool) {
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

    /// Element pass `K` over `data` (one row) on `tier`: the output, the
    /// count and the `(lane, scalar)` groups, after asserting that every
    /// group ran on the tier's vectors.
    fn on_lanes<K: Body<1, 1>>(tier: Tier, data: &[f32]) -> (Vec<f32>, OpCount, (u64, u64)) {
        let mut vpu = Vpu::new();
        let mut out = data.to_vec();
        route::take_groups();
        route::take_widths();
        on_tier(tier, || {
            elements::<K, 1, 1>(&mut vpu, &mut out, data.len(), &[], [&[]; 2], &mut [])
        });
        assert_eq!(
            route::take_widths(),
            widths(tier, data.len(), false),
            "{tier}"
        );
        (out, vpu.count, route::take_groups())
    }

    /// The [`Vpu`]'s `exp` as an element pass: its unclamped range on the
    /// lanes.
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
            let (got, count, route) = on_lanes::<Exp>(tier, &args);
            for ((g, w), &x) in got.iter().zip(&want).zip(&args) {
                assert_eq!(g.to_bits(), *w, "exp({x:e}) on {tier}");
            }
            assert_eq!(count, cost::exp().times(args.len() as u64));
            assert_eq!(route, (groups(tier, args.len(), false), 0), "all in range");
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
            let (got, count, route) = on_lanes::<Silu>(tier, &src);
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
        let mut got = vec![0f32; data.len() / cols];
        route::take_rows();
        route::take_widths();
        on_tier(tier, || rows::<K>(&mut batch, data, cols, &mut got));
        assert_eq!(
            route::take_widths(),
            widths(tier, got.len(), true),
            "{tier}"
        );
        for (r, (g, row)) in got.iter().zip(data.chunks_exact(cols)).enumerate() {
            let want = oracle(&mut scalar, row);
            assert_eq!(g.to_bits(), want.to_bits(), "row {r} {row:?} on {tier}");
        }
        assert_eq!(batch.count, scalar.count, "{tier}");
        route::take_rows()
    }

    fn sum(vpu: &mut Vpu, row: &[f32]) -> f32 {
        row.iter().fold(0.0, |s, &v| vpu.add(s, v))
    }

    fn max(vpu: &mut Vpu, row: &[f32]) -> f32 {
        let mut max = row[0];
        for &v in &row[1..] {
            vpu.count_cmp();
            if v > max {
                max = v;
            }
        }
        max
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
                elements::<AddColumn, 3, 1>(
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
                let (got, count, _) = on_lanes::<Exp>(tier, &xs);
                let mut vpu = Vpu::new();
                for (g, &x) in got.iter().zip(&xs) {
                    prop_assert_eq!(g.to_bits(), vpu.exp(x).to_bits(), "exp({:e})", x);
                }
                prop_assert_eq!(count, vpu.count);
            }
        }
    }

    /// `x[i] · 2^k` on `W`'s lanes, a vector at a time; `k` reaches the
    /// lanes as `to_i32` of an imported splat, exact for `|k| < 2²⁴`.
    #[inline(always)]
    unsafe fn scaled<W: Width>(x: &[f32], k: i32) -> Vec<f32> {
        let k = W::to_i32(W::import(W::splat(k as f32)));
        let mut out = x.to_vec();
        for v in out.chunks_exact_mut(W::LANES) {
            let r = W::scale_exp2(W::import(W::load(v.as_ptr())), k);
            W::store(v.as_mut_ptr(), W::export(r));
        }
        out
    }

    #[target_feature(enable = "avx2")]
    unsafe fn scaled_avx2(x: &[f32], k: i32) -> Vec<f32> {
        scaled::<Ymm>(x, k)
    }

    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn scaled_avx512(x: &[f32], k: i32) -> Vec<f32> {
        scaled::<Zmm>(x, k)
    }

    type Scaled = fn(&[f32], i32) -> Vec<f32>;

    #[test]
    fn scale_exp2_lanes_equal_the_exponent_unit() {
        let host = fplanes::tier();
        // SAFETY (both closures): each is listed only where the host runs
        // its tier.
        let mut tiers: Vec<(Tier, Scaled)> = Vec::new();
        if host >= Tier::Avx2 {
            tiers.push((Tier::Avx2, |x, k| unsafe { scaled_avx2(x, k) }));
        }
        if host >= Tier::Avx512 {
            tiers.push((Tier::Avx512, |x, k| unsafe { scaled_avx512(x, k) }));
        }
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
            for (tier, scaled) in &tiers {
                for ((g, w), x) in scaled(&xs, k).iter().zip(&want).zip(&xs) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{x:e} · 2^{k} on {tier}");
                }
            }
        }
    }
}
