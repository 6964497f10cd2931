//! The nonlinear kernel bodies, each written once over [`Ops`], the
//! operations of an fp32 vector datapath on a value type, and instantiated
//! three times: on one `f32` for every scalar [`Datapath`] (the blanket
//! impl below; on the [`Vpu`](super::Vpu) and the fast unit, the bit
//! oracles); on a bundle of lane vectors (`lanes::Lanes`, x86-64: fp32
//! widened to f64 for the `Vpu`, native f32 for the fast unit); and on
//! [`OpCount`], which counts each operation once — a body's op mix, the
//! charge of an exact lane group. The two `exp`s ([`exp`], the fast unit's
//! [`rom_exp`]), `tanh` and GELU are functions; the softmax and LayerNorm
//! passes are [`Body`] types, which the scalar row kernels and the lane
//! drivers both run.
//!
//! A body's data-dependent branches are [`Ops::clamp`]s. A scalar datapath
//! takes them per value; a bundle never clamps: a lane outside the range
//! (or NaN) fails its group, which then runs the scalar body instead.

use super::fast::{EXP2_LUT, LN2_OVER_64};
use super::{Datapath, OpCount, EXP2_POLY, GELU_A, GELU_C, GELU_LANE_MAX_ABS, ROUND_MAGIC};

/// The operations a kernel body is written in, over values of type `V`.
pub(crate) trait Ops {
    /// One fp32 value, a bundle of lanes, or nothing (counting).
    type V: Copy;
    /// The constant `x` as an operand.
    fn c(&self, x: f32) -> Self::V;
    /// `a × b` on the multiplier.
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// `a + b` on the adder.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// `a − b` on the adder.
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// The datapath's own `e^x`.
    fn exp(&mut self, x: Self::V) -> Self::V;
    /// The division step `a / b`.
    fn div(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// The exponent unit's `x · 2^k`, `k` integer-valued.
    fn scale_exp2(&mut self, x: Self::V, k: Self::V) -> Self::V;
    /// `⌊x⌋`, the fast unit's magic-constant round.
    fn floor(&mut self, x: Self::V) -> Self::V;
    /// The fast unit's `2^(j/64)` ROM ([`EXP2_LUT`]) at the top six bits of
    /// `s = 64·f ∈ [0, 64]`: `[entry, j]` for `j = min(⌊s⌋, 63)`. Where `f`
    /// rounds up to exactly 1.0 (`|x|` below ½ulp(1) in `exp`), the address
    /// saturates at the last entry and `s − j` carries the final 1/64 step,
    /// still inside the polynomial's range.
    fn rom(&mut self, s: Self::V) -> [Self::V; 2];
    /// The comparator's `v > max ? v : max`, on values as stored.
    fn max(&mut self, max: Self::V, v: Self::V) -> Self::V;
    /// A regime guard: `Some(above)` where `x > hi`, `Some(below)` where
    /// `x < lo`, `None` inside (and for NaN) on a scalar datapath. A bundle
    /// returns `None` and fails its group unless every lane is in
    /// `[lo, hi]`.
    fn clamp(&mut self, x: Self::V, lo: f32, hi: f32, below: f32, above: f32) -> Option<Self::V>;
}

/// Every scalar datapath, its operations counted as it counts them.
impl<D: Datapath + ?Sized> Ops for D {
    type V = f32;

    #[inline(always)]
    fn c(&self, x: f32) -> f32 {
        x
    }

    #[inline(always)]
    fn mul(&mut self, a: f32, b: f32) -> f32 {
        Datapath::mul(self, a, b)
    }

    #[inline(always)]
    fn add(&mut self, a: f32, b: f32) -> f32 {
        Datapath::add(self, a, b)
    }

    #[inline(always)]
    fn sub(&mut self, a: f32, b: f32) -> f32 {
        Datapath::sub(self, a, b)
    }

    #[inline(always)]
    fn exp(&mut self, x: f32) -> f32 {
        Datapath::exp(self, x)
    }

    #[inline(always)]
    fn div(&mut self, a: f32, b: f32) -> f32 {
        Datapath::div(self, a, b)
    }

    #[inline(always)]
    fn scale_exp2(&mut self, x: f32, k: f32) -> f32 {
        self.count_exp_adjust();
        super::scale_exp2(x, k as i32)
    }

    /// Uncounted, like [`Ops::rom`]: only the fast unit's `exp` uses them,
    /// and the fast unit counts nothing.
    #[inline(always)]
    fn floor(&mut self, x: f32) -> f32 {
        x.floor()
    }

    #[inline(always)]
    fn rom(&mut self, s: f32) -> [f32; 2] {
        let j = (s as i32).min(63);
        [EXP2_LUT[j as usize], j as f32]
    }

    #[inline(always)]
    fn max(&mut self, max: f32, v: f32) -> f32 {
        self.count_cmp();
        if v > max {
            v
        } else {
            max
        }
    }

    #[inline(always)]
    fn clamp(&mut self, x: f32, lo: f32, hi: f32, below: f32, above: f32) -> Option<f32> {
        if x > hi {
            Some(above)
        } else if x < lo {
            Some(below)
        } else {
            None
        }
    }
}

/// The counting instantiation: each operation adds one to its class, the
/// `exp` is the exact one ([`exp`]) and the division the host's, so a body
/// run on it yields its op mix on the host-division [`Vpu`](super::Vpu)
/// inside the regime.
impl Ops for OpCount {
    type V = ();

    fn c(&self, _: f32) {}

    fn mul(&mut self, _: (), _: ()) {
        self.fp_mul += 1;
    }

    fn add(&mut self, _: (), _: ()) {
        self.fp_add += 1;
    }

    fn sub(&mut self, _: (), _: ()) {
        self.fp_add += 1;
    }

    fn exp(&mut self, x: ()) {
        exp(self, x)
    }

    fn div(&mut self, _: (), _: ()) {
        self.host_div += 1;
    }

    fn scale_exp2(&mut self, _: (), _: ()) {
        self.exp_adjust += 1;
    }

    /// Uncounted, as on a scalar datapath.
    fn floor(&mut self, _: ()) {}

    fn rom(&mut self, _: ()) -> [(); 2] {
        [(); 2]
    }

    fn max(&mut self, _: (), _: ()) {
        self.cmp += 1;
    }

    fn clamp(&mut self, _: (), _: f32, _: f32, _: f32, _: f32) -> Option<()> {
        None
    }
}

/// `exp` clamps outside `[-87, 88]`; inside, `e^x ≤ 1.7e38` is finite until
/// the closing exponent adjust.
const EXP_MIN: f32 = -87.0;
const EXP_MAX: f32 = 88.0;

/// `e^x` on the exact datapath: range reduction `x = k ln2 + f ln2` with
/// the truncating adder's rounding trick, a degree-5 Horner polynomial for
/// `2^f`, the exponent unit's `2^k`. 6 multiplies, 9 adds, 1 exponent
/// adjust ([`cost::exp`](super::cost::exp)).
#[inline(always)]
pub(crate) fn exp<D: Ops + ?Sized>(d: &mut D, x: D::V) -> D::V {
    // Control logic clamps the representable range.
    if let Some(y) = d.clamp(x, EXP_MIN, EXP_MAX, 0.0, f32::INFINITY) {
        return y;
    }
    let t = d.mul(x, d.c(std::f32::consts::LOG2_E));
    // floor(t + 0.5) = round(t) with the *truncating* adder: the magic
    // constant pushes the fraction off the mantissa, and truncation floors
    // it.
    let th = d.add(t, d.c(0.5));
    let shifted = d.add(th, d.c(ROUND_MAGIC));
    let kf = d.sub(shifted, d.c(ROUND_MAGIC));
    let f = d.sub(t, kf);
    // Horner: 2^f ≈ Σ c_i f^i.
    let mut p = d.c(EXP2_POLY[5]);
    for c in EXP2_POLY[..5].iter().rev() {
        let pf = d.mul(p, f);
        p = d.add(pf, d.c(*c));
    }
    d.scale_exp2(p, kf)
}

/// `e^x` on the fast unit: range reduction `x·log2e = k + f` on the
/// exponent unit, the 64-entry `2^(j/64)` ROM at the top six bits of `f`,
/// a degree-2 polynomial on the ≤ 2⁻⁶ residual (truncation error
/// `(r·ln2)³/6 ≤ 2.1·10⁻¹⁰`), the exponent unit's `2^k`; clamped as
/// [`exp`]. The unit charges [`fast::cost::exp`](super::fast::cost::exp),
/// whose scales by 64 and ½ are exponent-unit operations.
#[inline(always)]
pub(crate) fn rom_exp<D: Ops + ?Sized>(d: &mut D, x: D::V) -> D::V {
    if let Some(y) = d.clamp(x, EXP_MIN, EXP_MAX, 0.0, f32::INFINITY) {
        return y;
    }
    let t = d.mul(x, d.c(std::f32::consts::LOG2_E));
    let kf = d.floor(t);
    let f = d.sub(t, kf); // f ∈ [0, 1]
    let s = d.mul(f, d.c(64.0));
    let [entry, j] = d.rom(s);
    let r = d.sub(s, j); // r ∈ [0, 1] in 1/64 units
    let rl = d.mul(r, d.c(LN2_OVER_64));
    let h = d.mul(d.c(0.5), rl);
    let one_rl = d.add(d.c(1.0), rl);
    let hrl = d.mul(h, rl);
    let p = d.add(one_rl, hrl); // 2^r to < 2⁻³¹
    let y = d.mul(entry, p);
    d.scale_exp2(y, kf)
}

/// `tanh(u) = 1 − 2 / (e^{2u} + 1)`, saturated beyond `|u| > 15`.
#[inline(always)]
pub(crate) fn tanh<D: Ops + ?Sized>(d: &mut D, u: D::V) -> D::V {
    if let Some(t) = d.clamp(u, -15.0, 15.0, -1.0, 1.0) {
        return t;
    }
    let two_u = d.mul(u, d.c(2.0));
    let e = d.exp(two_u);
    let den = d.add(e, d.c(1.0));
    let q = d.div(d.c(2.0), den);
    d.sub(d.c(1.0), q)
}

/// Tanh-form GELU `0.5·x·(1 + tanh(C·(x + A·x³)))`.
#[inline(always)]
pub(crate) fn gelu<D: Ops + ?Sized>(d: &mut D, x: D::V) -> D::V {
    let x2 = d.mul(x, x);
    let x3 = d.mul(x2, x);
    let ax3 = d.mul(x3, d.c(GELU_A));
    let inner = d.add(x, ax3);
    let u = d.mul(inner, d.c(GELU_C));
    let t = tanh(d, u);
    let one_t = d.add(d.c(1.0), t);
    let hx = d.mul(x, d.c(0.5));
    d.mul(hx, one_t)
}

/// One pass of a kernel: `I` operands of an element (or of a row's step)
/// to `O` results.
pub(crate) trait Body<const I: usize, const O: usize> {
    /// The regime's operand bound: a lane group runs only if every operand
    /// it reads is at most this in magnitude (NaN fails).
    const BOUND: f32;
    /// The operands as stored rather than imported (the comparator's).
    const RAW: bool = false;
    /// True when operands within [`Self::BOUND`] keep every [`Ops::clamp`]
    /// of the body in range, so a bundle need not check them: the bound
    /// alone is the group check.
    const CLAMPS_IN_BOUND: bool = false;
    /// A row step's accumulator start: `Some(c)` before the first column,
    /// or (`None`) the row's first element before the rest.
    const INIT: Option<f32> = None;
    /// The body on `x`.
    fn run<D: Ops + ?Sized>(d: &mut D, x: [D::V; I]) -> [D::V; O];
}

/// The body's op mix per element, or per row step.
pub(crate) fn mix<K: Body<I, O>, const I: usize, const O: usize>() -> OpCount {
    let mut count = OpCount::default();
    K::run(&mut count, [(); I]);
    count
}

/// GELU element-wise, where neither clamp can fire: `|u| = C·|x + A·x³| ≤
/// 12.5` at `|x| = 6`, and `|2u| ≤ 25`.
pub(crate) struct Gelu;

impl Body<1, 1> for Gelu {
    const BOUND: f32 = GELU_LANE_MAX_ABS;
    const CLAMPS_IN_BOUND: bool = true;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [x]: [D::V; 1]) -> [D::V; 1] {
        [gelu(d, x)]
    }
}

/// Softmax's max scan step `max ← v > max ? v : max`, from the row's first
/// element on, comparing the elements as stored.
pub(crate) struct Max;

impl Body<2, 1> for Max {
    const BOUND: f32 = f32::INFINITY;
    const RAW: bool = true;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [max, v]: [D::V; 2]) -> [D::V; 1] {
        [d.max(max, v)]
    }
}

/// The row sum's regime: operands of at most 2⁹⁶ in magnitude in rows
/// shorter than 2³¹ (`lanes::ROW_MAX_COLS`), so no partial sum of the
/// truncating adder reaches 2¹²⁷ and no lane saturates, which could not
/// feed the next add. (Softmax sums values of at most 1, LayerNorm squares
/// below 2⁸³.)
const SUM_MAX_ABS: f32 = 79_228_162_514_264_337_593_543_950_336.0;

/// The element-order row sum's step `sum ← sum + v`, from 0.
pub(crate) struct Sum;

impl Body<2, 1> for Sum {
    const BOUND: f32 = SUM_MAX_ABS;
    const INIT: Option<f32> = Some(0.0);

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [sum, v]: [D::V; 2]) -> [D::V; 1] {
        [d.add(sum, v)]
    }
}

/// Softmax's `v ← exp(v − max)`, inside `exp`'s unclamped range.
pub(crate) struct ShiftedExp;

impl Body<2, 1> for ShiftedExp {
    const BOUND: f32 = f32::MAX;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [v, max]: [D::V; 2]) -> [D::V; 1] {
        let shifted = d.sub(v, max);
        [d.exp(shifted)]
    }
}

/// Softmax's `v ← v / sum`.
pub(crate) struct Divide;

impl Body<2, 1> for Divide {
    const BOUND: f32 = f32::INFINITY;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [v, sum]: [D::V; 2]) -> [D::V; 1] {
        [d.div(v, sum)]
    }
}

/// LayerNorm's straight-line regime: with every operand at most 2⁴⁰ in
/// magnitude the centre pass stays below 2⁴¹ (squares below 2⁸², a final
/// value) and the affine pass below 2⁴⁰·2⁴⁰·2⁴⁰ + 2⁴⁰ < 2¹²⁸.
const LAYERNORM_MAX_ABS: f32 = 1_099_511_627_776.0;

/// LayerNorm's centre pass: `v − mean` and its square.
pub(crate) struct Centre;

impl Body<2, 2> for Centre {
    const BOUND: f32 = LAYERNORM_MAX_ABS;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [v, mean]: [D::V; 2]) -> [D::V; 2] {
        let x = d.sub(v, mean);
        [x, d.mul(x, x)]
    }
}

/// LayerNorm's affine pass `v·inv·γ + β`.
pub(crate) struct Affine;

impl Body<4, 1> for Affine {
    const BOUND: f32 = LAYERNORM_MAX_ABS;

    #[inline(always)]
    fn run<D: Ops + ?Sized>(d: &mut D, [v, inv, gamma, beta]: [D::V; 4]) -> [D::V; 1] {
        let nrm = d.mul(v, inv);
        let scaled = d.mul(nrm, gamma);
        [d.add(scaled, beta)]
    }
}
