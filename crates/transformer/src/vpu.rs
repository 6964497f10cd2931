//! The Transformer's nonlinear kernels — GELU, `tanh`, softmax, LayerNorm
//! and the Newton–Raphson `1/√x` — written once, as the default methods
//! of [`Datapath`], over the fp32 vector datapath they run on. The paper
//! runs every nonlinear layer as an fp32 vector program on one
//! reconfigured array (§III-B), and its §V extensions change only the
//! division step or the number format; so do the four datapaths here:
//!
//! * [`Vpu`], the paper's prototype: the array's hardware fp32 multiply
//!   (sliced, LSP-dropped, truncating) and add (48-bit align path), the
//!   exponent unit's integer exponent adjustment, and — exactly as the
//!   paper concedes — **division and square root on the host CPU** ("the
//!   division operations in fp32 ... are executed on the host CPU due to
//!   lack of support", §III-B);
//! * [`OnChip`], the same datapath with §V's Newton–Raphson reciprocal
//!   and `1/√x` on the array in place of the host round-trip;
//! * [`fast::Unit`], the optimised LUT/polynomial unit, in native f32;
//! * [`RedFp`], a reduced-precision format (fp24 … fp16) that rounds
//!   every result, for the §V format sweep.
//!
//! A datapath supplies only its primitives: `mul`/`add`/`sub`, its own
//! `exp`, the division step, the per-row reciprocal and `1/√x`. The exact
//! datapaths count their operations; those counts drive the Table IV
//! latency split and are cross-checked against the analytical census in
//! [`crate::flops`].
//!
//! The kernel bodies themselves (both `exp`s, `tanh`, GELU and the softmax
//! and LayerNorm passes) live in `kernels`, generic over the value they
//! compute on: the default methods run them on one `f32`, and on an AVX2
//! host the batch kernels of the paper datapath and of the fast unit run
//! the same bodies on bundles of lane vectors (`lanes`: fp32 widened to
//! f64 for the first, native f32 for the second), bit- and count-identical.

use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
use bfp_arith::packed::EpilogueCtx;
use bfp_arith::redfp::RedFp;

use crate::engine::DivisionPolicy;

pub mod fast;
mod kernels;
#[cfg(test)]
mod lane_equivalence;
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes;

use kernels::{Affine, Body, Centre, Divide, Max, ShiftedExp, Sum};

/// Selects which nonlinear kernel family the batched VPU entry points
/// run.
///
/// `Exact` runs the kernels on the bit-level emulated hardware datapath
/// ([`Vpu`], or its [`OnChip`] view) — every multiply and add goes
/// through `HwFp32Mul`/`HwFp32Add`, and it is the oracle the fast unit's
/// ULP envelopes are proven against. `Fast` runs them on the optimised
/// LUT/polynomial nonlinear unit ([`fast::Unit`]: range reduction +
/// 64-entry `2^f` ROM + degree-2 residual polynomial + NR
/// reciprocal/rsqrt), which in simulation evaluates in native f32; its
/// per-element hardware op mixes are in [`fast::cost`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NonlinearMode {
    /// Bit-exact emulated hardware kernels (the oracle path).
    #[default]
    Exact,
    /// LUT/polynomial fast kernels with tested ULP envelopes.
    Fast,
}

impl NonlinearMode {
    /// Stable lowercase label for telemetry and bench reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            NonlinearMode::Exact => "exact",
            NonlinearMode::Fast => "fast",
        }
    }
}

/// Operation counters for VPU execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Hardware fp32 multiplies.
    pub fp_mul: u64,
    /// Hardware fp32 adds (incl. subtractions).
    pub fp_add: u64,
    /// Exponent-unit integer adjustments (2^k scaling; not FLOPs).
    pub exp_adjust: u64,
    /// Comparator operations (max reductions; not FLOPs).
    pub cmp: u64,
    /// ROM/LUT lookups of the fast nonlinear unit (not FLOPs).
    pub lut: u64,
    /// Divisions delegated to the host CPU.
    pub host_div: u64,
    /// Square roots delegated to the host CPU.
    pub host_sqrt: u64,
}

impl OpCount {
    /// Floating-point operations executed on the array.
    pub fn flops(&self) -> u64 {
        self.fp_mul + self.fp_add
    }

    /// Operations delegated to the host.
    pub fn host_ops(&self) -> u64 {
        self.host_div + self.host_sqrt
    }

    /// Accumulate another counter.
    pub fn merge(&mut self, o: &OpCount) {
        self.fp_mul += o.fp_mul;
        self.fp_add += o.fp_add;
        self.exp_adjust += o.exp_adjust;
        self.cmp += o.cmp;
        self.lut += o.lut;
        self.host_div += o.host_div;
        self.host_sqrt += o.host_sqrt;
    }

    /// This mix repeated `k` times (per-element formula × element count).
    pub const fn times(&self, k: u64) -> OpCount {
        OpCount {
            fp_mul: self.fp_mul * k,
            fp_add: self.fp_add * k,
            exp_adjust: self.exp_adjust * k,
            cmp: self.cmp * k,
            lut: self.lut * k,
            host_div: self.host_div * k,
            host_sqrt: self.host_sqrt * k,
        }
    }
}

/// Tanh-form GELU: `0.5·x·(1 + tanh(C·(x + A·x³)))` with `C = √(2/π)`.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044_715;

/// An fp32 vector datapath, and the nonlinear kernels written once over
/// it. An implementation supplies the primitives; the kernels are the
/// default methods, so every datapath runs the same operation sequence
/// and they differ only in how each primitive rounds and what it counts.
pub trait Datapath {
    /// `a × b`.
    fn mul(&mut self, a: f32, b: f32) -> f32;
    /// `a + b`.
    fn add(&mut self, a: f32, b: f32) -> f32;
    /// `a − b`.
    fn sub(&mut self, a: f32, b: f32) -> f32;
    /// `e^x`, by the datapath's own range reduction and polynomial.
    fn exp(&mut self, x: f32) -> f32;
    /// The division step `a / b`.
    fn div(&mut self, a: f32, b: f32) -> f32;
    /// The reciprocal a softmax row is multiplied by once its sum is
    /// known; `None` (the default) divides every element by the sum.
    fn row_recip(&mut self, _sum: f32) -> Option<f32> {
        None
    }
    /// `1/√x`, LayerNorm's normaliser: [`Self::rsqrt_nr`] by default.
    fn rsqrt(&mut self, x: f32) -> f32 {
        self.rsqrt_nr(x)
    }
    /// Counts one comparator operation (softmax's max reduction).
    fn count_cmp(&mut self) {}
    /// Counts one exponent-unit operation ([`Self::rsqrt_nr`]'s seed).
    fn count_exp_adjust(&mut self) {}

    /// `tanh(u) = 1 − 2 / (e^{2u} + 1)`, saturated beyond `|u| > 15`.
    fn tanh(&mut self, u: f32) -> f32 {
        kernels::tanh(self, u)
    }

    /// Tanh-form GELU.
    fn gelu(&mut self, x: f32) -> f32 {
        kernels::gelu(self, x)
    }

    /// `1/√x` on the array: a magic-constant seed (an exponent-unit
    /// operation) refined by three Newton–Raphson steps
    /// `y ← y·(1.5 − 0.5·x·y²)`.
    ///
    /// # Panics
    /// Panics on negative input (LayerNorm variances are non-negative); a
    /// NaN, the variance of a row holding one, gives NaN.
    fn rsqrt_nr(&mut self, x: f32) -> f32 {
        assert!(x >= 0.0 || x.is_nan(), "rsqrt of a negative value");
        if x == 0.0 {
            return f32::INFINITY;
        }
        self.count_exp_adjust();
        let mut y = f32::from_bits(0x5f37_59dfu32.wrapping_sub(x.to_bits() >> 1));
        for _ in 0..3 {
            let y2 = self.mul(y, y);
            let xy2 = self.mul(x, y2);
            let h = self.mul(xy2, 0.5);
            let e = self.sub(1.5, h);
            y = self.mul(y, e);
        }
        y
    }

    /// Row-wise softmax: comparator max-reduction, subtract, exp, sum, then
    /// one reciprocal or a division per element.
    fn softmax_row(&mut self, row: &mut [f32]) {
        if row.is_empty() {
            return;
        }
        let mut max = row[0];
        for &v in &row[1..] {
            [max] = Max::run(self, [max, v]);
        }
        let mut sum = 0f32;
        for v in row.iter_mut() {
            [*v] = ShiftedExp::run(self, [*v, max]);
            [sum] = Sum::run(self, [sum, *v]);
        }
        normalise(self, row, sum);
    }

    /// Row-wise LayerNorm: mean and variance on the adder, `1/√·`, then
    /// the affine on the multiplier.
    ///
    /// # Panics
    /// Panics if `gamma`/`beta` lengths differ from the row length.
    fn layernorm_row(&mut self, row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let n = row.len();
        assert_eq!(gamma.len(), n, "gamma length");
        assert_eq!(beta.len(), n, "beta length");
        if n == 0 {
            return;
        }
        let inv_n = 1.0 / n as f32; // compile-time constant in hardware
        let mut sum = 0f32;
        for &v in row.iter() {
            [sum] = Sum::run(self, [sum, v]);
        }
        let mean = self.mul(sum, inv_n);
        let mut var_sum = 0f32;
        for v in row.iter_mut() {
            let [d, d2] = Centre::run(self, [*v, mean]);
            *v = d;
            [var_sum] = Sum::run(self, [var_sum, d2]);
        }
        let var = self.mul(var_sum, inv_n);
        let ve = self.add(var, eps);
        let inv = self.rsqrt(ve);
        for (j, v) in row.iter_mut().enumerate() {
            [*v] = Affine::run(self, [*v, inv, gamma[j], beta[j]]);
        }
    }
}

/// The vector processing unit: the paper's exact datapath, host division
/// included, with operation accounting.
///
/// ```
/// use bfp_transformer::{Datapath, Vpu};
///
/// let mut vpu = Vpu::new();
/// let mut row = vec![1.0f32, 2.0, 3.0];
/// vpu.softmax_row(&mut row);
/// let sum: f32 = row.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-5);
/// assert_eq!(vpu.count.host_div, 3);  // the prototype divides on the host
///
/// // The same kernel on the on-chip view keeps everything on the array:
/// let mut row = vec![1.0f32, 2.0, 3.0];
/// vpu.take_count();
/// vpu.onchip().softmax_row(&mut row);
/// assert_eq!(vpu.count.host_div, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Vpu {
    mul: HwFp32Mul,
    add: HwFp32Add,
    /// Route multiplies through the partial-product enumeration reference
    /// path instead of the closed-form fast path (baseline measurements).
    via_partials: bool,
    /// Cumulative operation counts.
    pub count: OpCount,
}

impl Default for Vpu {
    fn default() -> Self {
        Self::new()
    }
}

/// Newton–Raphson steps of [`Vpu::recip`].
const RECIP_STEPS: u32 = 3;

/// Magic constant: adding then subtracting `1.5 × 2^23` rounds an fp32 with
/// |x| < 2^22 to the nearest integer using only the adder.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Degree-5 Taylor coefficients of `2^f` (accurate to ~3e-9 on |f| ≤ 0.5).
const EXP2_POLY: [f32; 6] = [
    1.0,
    std::f32::consts::LN_2,
    0.240_226_5,
    0.055_504_11,
    0.009_618_13,
    0.001_333_36,
];

/// The straight-line regime of both GELU kernels (exact and fast), where
/// their lanes run: `|u| = C·|x + A·x³| ≤ 12.5` at `|x| = 6`, so neither
/// `tanh`'s ±15 clamp nor `exp`'s range clamps (`|2u| ≤ 25`) can fire and
/// every intermediate is far inside the finite range.
const GELU_LANE_MAX_ABS: f32 = 6.0;

impl Vpu {
    /// A VPU with the paper's datapath settings (LSP-dropped truncating
    /// multiplier, 48-bit-aligned truncating adder).
    pub fn new() -> Self {
        Vpu {
            mul: HwFp32Mul::new(MulVariant::DropLsp),
            add: HwFp32Add::new(AddVariant::Exact48),
            via_partials: false,
            count: OpCount::default(),
        }
    }

    /// A VPU with an explicit datapath rounding selection (the multiplier
    /// variant and adder alignment width). The envelope tests verify the
    /// fast kernels' documented bounds against **every** oracle rounding
    /// configuration, not only the paper default.
    pub fn with_datapath(mul: MulVariant, add: AddVariant) -> Self {
        Vpu {
            mul: HwFp32Mul::new(mul),
            add: HwFp32Add::new(add),
            ..Self::new()
        }
    }

    /// The same datapath, but every multiply runs the explicit
    /// partial-product *enumeration* ([`HwFp32Mul::mul_via_partials`])
    /// instead of the closed-form fast path. Bit-identical outputs, much
    /// slower — this is the "before" baseline of `MixedEngine::baseline_scalar`.
    pub fn via_partials() -> Self {
        Vpu {
            via_partials: true,
            ..Self::new()
        }
    }

    /// A worker clone: identical datapath configuration, zeroed counters.
    /// The sharded batch kernels give one to each thread and merge the
    /// resulting [`OpCount`]s deterministically in shard order.
    pub fn fresh(&self) -> Vpu {
        Vpu {
            count: OpCount::default(),
            ..self.clone()
        }
    }

    /// Reset the counters, returning the previous values.
    pub fn take_count(&mut self) -> OpCount {
        std::mem::take(&mut self.count)
    }

    /// Host division.
    #[inline]
    pub fn div_host(&mut self, a: f32, b: f32) -> f32 {
        self.count.host_div += 1;
        a / b
    }

    /// Host square root.
    #[inline]
    pub fn sqrt_host(&mut self, a: f32) -> f32 {
        self.count.host_sqrt += 1;
        a.sqrt()
    }

    /// Scale by `2^k` through the exponent unit (an int8 add on the
    /// exponent field — free of the multiplier array).
    #[inline]
    pub fn scale_exp2(&mut self, x: f32, k: i32) -> f32 {
        self.count.exp_adjust += 1;
        scale_exp2(x, k)
    }

    // ------------------------------------------------------------------
    // Future-work extension (paper §V: "The vector processing unit is
    // also being optimized to improve non-linear function performance"):
    // division *on the array*, via Newton–Raphson iterations built only
    // from hardware multiply/add — eliminating the host round-trip the
    // prototype needed. [`OnChip`] runs the kernels on it.
    // ------------------------------------------------------------------

    /// Reciprocal `1/x` on the array: exponent-negation initial guess
    /// (an EU operation) refined by three Newton–Raphson steps
    /// `y ← y·(2 − x·y)`, which reach < 1e-6 relative error over the full
    /// normal range.
    ///
    /// Cost: 6 muls and 3 adds, plus one exponent adjust.
    pub fn recip(&mut self, x: f32) -> f32 {
        if x == 0.0 {
            return if x.is_sign_negative() {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            };
        }
        // Initial guess: flip the exponent around 2^0 and seed the
        // mantissa via the classic bit trick (exponent-field arithmetic,
        // done by the EU — not a multiplier op).
        self.count.exp_adjust += 1;
        let mut y = f32::from_bits(0x7EEF_311Du32.wrapping_sub(x.abs().to_bits()));
        if x < 0.0 {
            y = -y;
        }
        for _ in 0..RECIP_STEPS {
            let xy = self.mul(x, y);
            let e = self.sub(2.0, xy);
            y = self.mul(y, e);
        }
        y
    }

    /// Division on the array: `a × recip(b)`.
    pub fn div_onchip(&mut self, a: f32, b: f32) -> f32 {
        let r = self.recip(b);
        self.mul(a, r)
    }

    /// The on-chip view of this VPU: the same datapath and counters, with
    /// the Newton–Raphson division and `1/√x` in place of the host's.
    pub fn onchip(&mut self) -> OnChip<'_> {
        OnChip(self)
    }

    // ------------------------------------------------------------------
    // Batched slice kernels: the per-batch entry points the engine (and
    // its row-sharded parallel path) drives. The `(NonlinearMode,
    // DivisionPolicy)` match happens once per batch here, and the
    // host-division `Exact` arm and the `Fast` arm run one pass sequence
    // (`lanes`) over their datapath, the `Vpu` or the fast unit: the
    // kernel bodies on the datapath's lanes where the host and the datapath
    // allow, on its scalar kernels everywhere else — the same bits and
    // counts as the scalar kernels row by row. The fast unit counts
    // nothing; its arm charges the analytic op mix per element, since the
    // unit is a pipeline whose cost is data-independent.
    // ------------------------------------------------------------------

    /// Softmax over every `cols`-wide row of `data` (a whole matrix or a
    /// disjoint row-shard of one).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `cols`.
    pub fn softmax_rows_batch(
        &mut self,
        data: &mut [f32],
        cols: usize,
        division: DivisionPolicy,
        mode: NonlinearMode,
    ) {
        if cols == 0 {
            return;
        }
        assert_eq!(data.len() % cols, 0, "batch must hold whole rows");
        match (mode, division) {
            (NonlinearMode::Exact, DivisionPolicy::Host) => lanes::softmax(self, data, cols),
            (NonlinearMode::Exact, DivisionPolicy::OnChip) => {
                let mut chip = self.onchip();
                for row in data.chunks_exact_mut(cols) {
                    chip.softmax_row(row);
                }
            }
            // The fast unit never leaves the array; DivisionPolicy is moot.
            (NonlinearMode::Fast, _) => {
                let rows = (data.len() / cols) as u64;
                self.count
                    .merge(&fast::cost::softmax_row(cols as u64).times(rows));
                lanes::softmax(&mut fast::Unit, data, cols);
            }
        }
    }

    /// Element-wise GELU over a slice (any tile of a matrix; GELU has no
    /// row structure, so shards may cut anywhere).
    pub fn gelu_slice(&mut self, data: &mut [f32], division: DivisionPolicy, mode: NonlinearMode) {
        match (mode, division) {
            (NonlinearMode::Exact, DivisionPolicy::Host) => lanes::gelu(self, data),
            (NonlinearMode::Exact, DivisionPolicy::OnChip) => {
                let mut chip = self.onchip();
                for v in data.iter_mut() {
                    *v = chip.gelu(*v);
                }
            }
            (NonlinearMode::Fast, _) => {
                self.count
                    .merge(&fast::cost::gelu().times(data.len() as u64));
                lanes::gelu(&mut fast::Unit, data);
            }
        }
    }

    /// GELU drain over one hot GEMM strip (see [`EpilogueCtx`]: a chain
    /// call's tiles side by side, 8×32 on the AVX-512 VNNI tier). A
    /// full-width strip (the common case — every model dimension here is
    /// a multiple of the block) takes a single slice call over its
    /// contiguous valid region, 256 elements for an 8×32 strip; only a
    /// ragged right-edge strip pays one call per row. GELU is
    /// element-independent and the VPU op cost is per-element, so
    /// strip-order evaluation is bit- and count-identical to the composed
    /// whole-matrix pass either way.
    #[inline]
    pub fn gelu_tile(
        &mut self,
        tile: &mut [f32],
        ctx: &EpilogueCtx,
        division: DivisionPolicy,
        mode: NonlinearMode,
    ) {
        if ctx.jmax == ctx.b {
            self.gelu_slice(&mut tile[..ctx.imax * ctx.b], division, mode);
        } else {
            for i in 0..ctx.imax {
                self.gelu_slice(&mut tile[i * ctx.b..][..ctx.jmax], division, mode);
            }
        }
    }

    /// LayerNorm over every `cols`-wide row of `data`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `cols`, or if
    /// `gamma`/`beta` lengths differ from `cols`.
    #[allow(clippy::too_many_arguments)]
    pub fn layernorm_rows_batch(
        &mut self,
        data: &mut [f32],
        cols: usize,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        division: DivisionPolicy,
        mode: NonlinearMode,
    ) {
        if cols == 0 {
            return;
        }
        assert_eq!(data.len() % cols, 0, "batch must hold whole rows");
        match (mode, division) {
            (NonlinearMode::Exact, DivisionPolicy::Host) => {
                lanes::layernorm(self, data, cols, gamma, beta, eps)
            }
            (NonlinearMode::Exact, DivisionPolicy::OnChip) => {
                let mut chip = self.onchip();
                for row in data.chunks_exact_mut(cols) {
                    chip.layernorm_row(row, gamma, beta, eps);
                }
            }
            (NonlinearMode::Fast, _) => {
                let rows = (data.len() / cols) as u64;
                self.count
                    .merge(&fast::cost::layernorm_row(cols as u64).times(rows));
                lanes::layernorm(&mut fast::Unit, data, cols, gamma, beta, eps);
            }
        }
    }
}

/// Softmax's last step on a row that sums to `sum`: `d`'s row reciprocal
/// times each element, or each divided by the sum.
fn normalise<D: Datapath + ?Sized>(d: &mut D, row: &mut [f32], sum: f32) {
    match d.row_recip(sum) {
        Some(inv) => row.iter_mut().for_each(|v| *v = d.mul(*v, inv)),
        None => row
            .iter_mut()
            .for_each(|v| [*v] = Divide::run(d, [*v, sum])),
    }
}

/// Without lanes, each pass sequence is its datapath's scalar kernel.
#[cfg(not(target_arch = "x86_64"))]
mod lanes {
    use super::Datapath;

    pub(super) fn gelu<D: Datapath>(d: &mut D, data: &mut [f32]) {
        data.iter_mut().for_each(|v| *v = d.gelu(*v));
    }

    pub(super) fn softmax<D: Datapath>(d: &mut D, data: &mut [f32], cols: usize) {
        data.chunks_exact_mut(cols).for_each(|r| d.softmax_row(r));
    }

    pub(super) fn layernorm<D: Datapath>(
        d: &mut D,
        data: &mut [f32],
        cols: usize,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) {
        for row in data.chunks_exact_mut(cols) {
            d.layernorm_row(row, gamma, beta, eps);
        }
    }
}

impl Datapath for Vpu {
    /// Hardware multiply.
    #[inline]
    fn mul(&mut self, a: f32, b: f32) -> f32 {
        self.count.fp_mul += 1;
        if self.via_partials {
            self.mul.mul_via_partials(a, b)
        } else {
            self.mul.mul(a, b)
        }
    }

    /// Hardware add.
    #[inline]
    fn add(&mut self, a: f32, b: f32) -> f32 {
        self.count.fp_add += 1;
        self.add.add(a, b)
    }

    /// Hardware subtract (sign flip through the XOR gate + add).
    #[inline]
    fn sub(&mut self, a: f32, b: f32) -> f32 {
        self.count.fp_add += 1;
        self.add.sub(a, b)
    }

    /// `e^x` by range reduction (`x = k ln2 + f ln2`) and a degree-5
    /// polynomial for `2^f`: 6 multiplies, 9 adds, 1 exponent adjust.
    fn exp(&mut self, x: f32) -> f32 {
        kernels::exp(self, x)
    }

    fn div(&mut self, a: f32, b: f32) -> f32 {
        self.div_host(a, b)
    }

    /// `1/√x` on the host: a square root and a division.
    fn rsqrt(&mut self, x: f32) -> f32 {
        let sd = self.sqrt_host(x);
        self.div_host(1.0, sd)
    }

    fn count_cmp(&mut self) {
        self.count.cmp += 1;
    }

    fn count_exp_adjust(&mut self) {
        self.count.exp_adjust += 1;
    }
}

/// A [`Vpu`] with §V's on-chip division ([`Vpu::onchip`]): the same exact
/// `mul`/`add`/`sub`/`exp`, with the Newton–Raphson reciprocal and
/// [`Datapath::rsqrt_nr`] on the array in place of the host's division
/// and square root. Its operations count on the `Vpu`.
pub struct OnChip<'a>(&'a mut Vpu);

impl Datapath for OnChip<'_> {
    fn mul(&mut self, a: f32, b: f32) -> f32 {
        self.0.mul(a, b)
    }

    fn add(&mut self, a: f32, b: f32) -> f32 {
        self.0.add(a, b)
    }

    fn sub(&mut self, a: f32, b: f32) -> f32 {
        self.0.sub(a, b)
    }

    fn exp(&mut self, x: f32) -> f32 {
        self.0.exp(x)
    }

    fn div(&mut self, a: f32, b: f32) -> f32 {
        self.0.div_onchip(a, b)
    }

    fn row_recip(&mut self, sum: f32) -> Option<f32> {
        Some(self.0.recip(sum))
    }

    fn count_cmp(&mut self) {
        self.0.count_cmp();
    }

    fn count_exp_adjust(&mut self) {
        self.0.count_exp_adjust();
    }
}

/// A reduced-precision format as a datapath: every operand and result
/// rounded into the format, the division and `1/√x` included, and no
/// operation counted.
impl Datapath for RedFp {
    fn mul(&mut self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) * self.quantize(b))
    }

    fn add(&mut self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) + self.quantize(b))
    }

    /// `a + (−b)`: the format's rounding is sign-symmetric.
    fn sub(&mut self, a: f32, b: f32) -> f32 {
        self.add(a, -b)
    }

    fn exp(&mut self, x: f32) -> f32 {
        self.quantize(self.quantize(x).exp())
    }

    fn div(&mut self, a: f32, b: f32) -> f32 {
        self.quantize(self.quantize(a) / self.quantize(b))
    }

    fn rsqrt(&mut self, x: f32) -> f32 {
        self.quantize(1.0 / self.quantize(x).sqrt())
    }
}

/// Scale by `2^k` on the exponent unit: an integer add on the exponent
/// field, flushing to zero on underflow and saturating to ±inf on
/// overflow. Uncounted; [`Vpu::scale_exp2`] counts it.
#[inline]
pub(crate) fn scale_exp2(x: f32, k: i32) -> f32 {
    if x == 0.0 {
        return x;
    }
    let bits = x.to_bits();
    let e = ((bits >> 23) & 0xff) as i32 + k;
    if e <= 0 {
        return 0.0; // FTZ underflow
    }
    if e >= 255 {
        return if x > 0.0 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
    }
    f32::from_bits((bits & 0x807f_ffff) | ((e as u32) << 23))
}

/// Per-element / per-row operation-count formulas for the kernels on a
/// host-division [`Vpu`] (used by the analytical census and verified
/// against live counts).
pub mod cost {
    use super::OpCount;

    /// Cost of one exact `exp` (in range, on a [`Vpu`](super::Vpu)): 1
    /// range-reduction multiply + 5 Horner multiplies; 4 rounding adds + 5
    /// Horner adds.
    pub const fn exp() -> OpCount {
        OpCount {
            fp_mul: 6,
            fp_add: 9,
            exp_adjust: 1,
            cmp: 0,
            lut: 0,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// Cost of one exact GELU with host division: 6 own muls + 2 own
    /// adds, plus tanh (1 mul, 2 adds, 1 host div) around one exp.
    pub const fn gelu() -> OpCount {
        OpCount {
            fp_mul: 6 + 1 + exp().fp_mul,
            fp_add: 2 + 2 + exp().fp_add,
            exp_adjust: 1,
            cmp: 0,
            lut: 0,
            host_div: 1,
            host_sqrt: 0,
        }
    }

    /// Cost of one softmax over a length-`n` row.
    pub const fn softmax_row(n: u64) -> OpCount {
        OpCount {
            fp_mul: n * exp().fp_mul,
            fp_add: n * (exp().fp_add + 2), // subtract max + running sum
            exp_adjust: n,
            cmp: n.saturating_sub(1),
            lut: 0,
            host_div: n,
            host_sqrt: 0,
        }
    }

    /// Cost of one LayerNorm over a length-`n` row: sum (n adds), mean
    /// (1 mul), centre (n adds), squares (n muls), variance sum (n adds),
    /// variance (1 mul), +eps (1 add), affine (2n muls + n adds).
    pub const fn layernorm_row(n: u64) -> OpCount {
        OpCount {
            fp_mul: 3 * n + 2,
            fp_add: 4 * n + 1,
            exp_adjust: 0,
            cmp: 0,
            lut: 0,
            host_div: 1,
            host_sqrt: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bfp_arith::matrix::MatF32;

    #[test]
    fn exp_tracks_reference() {
        let mut vpu = Vpu::new();
        for k in -500..=440 {
            let x = k as f32 * 0.17;
            let got = vpu.exp(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            // ~10 truncating hardware ops at ≤2 ulp each bound the error.
            assert!(rel < 1e-5, "exp({x}): {got} vs {want} rel {rel}");
        }
    }

    #[test]
    fn exp_cost_formula_matches_live_count() {
        let mut vpu = Vpu::new();
        let _ = vpu.exp(1.234);
        assert_eq!(vpu.take_count(), cost::exp());
    }

    #[test]
    fn exp_extremes_clamp() {
        let mut vpu = Vpu::new();
        assert_eq!(vpu.exp(1000.0), f32::INFINITY);
        assert_eq!(vpu.exp(-1000.0), 0.0);
    }

    #[test]
    fn tanh_tracks_reference() {
        let mut vpu = Vpu::new();
        for k in -60..=60 {
            let x = k as f32 * 0.25;
            let got = vpu.tanh(x) as f64;
            let want = (x as f64).tanh();
            assert!((got - want).abs() < 2e-6, "tanh({x}): {got} vs {want}");
        }
    }

    #[test]
    fn gelu_tracks_reference_kernel() {
        let mut vpu = Vpu::new();
        for k in -50..=50 {
            let x = k as f32 * 0.1;
            let got = vpu.gelu(x);
            let want = reference::gelu_tanh(x);
            assert!((got - want).abs() < 1e-4, "gelu({x}): {got} vs {want}");
        }
    }

    #[test]
    fn gelu_cost_formula_matches_live_count() {
        let mut vpu = Vpu::new();
        let _ = vpu.gelu(0.7);
        assert_eq!(vpu.take_count(), cost::gelu());
    }

    #[test]
    fn softmax_matches_reference() {
        let mut vpu = Vpu::new();
        let mut row: Vec<f32> = (0..17).map(|k| (k as f32 * 0.61).sin() * 4.0).collect();
        let mut want = MatF32::from_vec(1, 17, row.clone());
        reference::softmax_rows(&mut want);
        vpu.softmax_row(&mut row);
        for j in 0..17 {
            assert!(
                (row[j] - want.get(0, j)).abs() < 1e-5,
                "j={j}: {} vs {}",
                row[j],
                want.get(0, j)
            );
        }
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_cost_formula_matches_live_count() {
        let mut vpu = Vpu::new();
        let mut row = vec![0.3f32; 23];
        vpu.softmax_row(&mut row);
        assert_eq!(vpu.take_count(), cost::softmax_row(23));
    }

    #[test]
    fn layernorm_matches_reference() {
        let mut vpu = Vpu::new();
        let n = 48;
        let gamma: Vec<f32> = (0..n).map(|j| 1.0 + j as f32 * 0.01).collect();
        let beta: Vec<f32> = (0..n).map(|j| (j as f32 * 0.3).cos()).collect();
        let src: Vec<f32> = (0..n)
            .map(|j| (j as f32 * 0.37).sin() * 5.0 + 2.0)
            .collect();
        let mut got = src.clone();
        vpu.layernorm_row(&mut got, &gamma, &beta, 1e-6);
        let mut want = MatF32::from_vec(1, n, src);
        reference::layernorm_rows(&mut want, &gamma, &beta, 1e-6);
        for j in 0..n {
            assert!(
                (got[j] - want.get(0, j)).abs() < 2e-4,
                "j={j}: {} vs {}",
                got[j],
                want.get(0, j)
            );
        }
    }

    #[test]
    fn layernorm_cost_formula_matches_live_count() {
        let mut vpu = Vpu::new();
        let n = 31;
        let mut row = vec![1.0f32; n];
        let gamma = vec![1.0f32; n];
        let beta = vec![0.0f32; n];
        vpu.layernorm_row(&mut row, &gamma, &beta, 1e-6);
        assert_eq!(vpu.take_count(), cost::layernorm_row(n as u64));
    }

    #[test]
    fn scale_exp2_is_exact() {
        let mut vpu = Vpu::new();
        assert_eq!(vpu.scale_exp2(1.5, 3), 12.0);
        assert_eq!(vpu.scale_exp2(-0.75, -1), -0.375);
        assert_eq!(vpu.scale_exp2(1.0, 300), f32::INFINITY);
        assert_eq!(vpu.scale_exp2(1.0, -300), 0.0);
        assert_eq!(vpu.scale_exp2(0.0, 10), 0.0);
    }

    #[test]
    fn recip_converges_over_the_normal_range() {
        let mut vpu = Vpu::new();
        for k in -60..=60 {
            if k == 0 {
                continue;
            }
            let x = (k as f32 * 0.77).exp2() * if k % 2 == 0 { 1.0 } else { -1.3 };
            let got = vpu.recip(x) as f64;
            let want = 1.0 / x as f64;
            let rel = ((got - want) / want).abs();
            assert!(rel < 2e-6, "recip({x}): {got} vs {want} rel {rel}");
        }
        assert_eq!(vpu.recip(0.0), f32::INFINITY);
        assert_eq!(vpu.recip(-0.0), f32::NEG_INFINITY);
    }

    #[test]
    fn div_onchip_matches_host_division() {
        let mut vpu = Vpu::new();
        for k in 1..200 {
            let a = (k as f32 * 0.37).sin() * 40.0;
            let b = (k as f32 * 0.53).cos() * 7.0 + 8.0;
            let got = vpu.div_onchip(a, b) as f64;
            let want = (a / b) as f64;
            assert!(
                (got - want).abs() <= want.abs() * 3e-6 + 1e-9,
                "{a}/{b}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn rsqrt_onchip_converges() {
        let mut vpu = Vpu::new();
        for k in -40..=40 {
            let x = (k as f32 * 0.61).exp2();
            let got = vpu.onchip().rsqrt_nr(x) as f64;
            let want = 1.0 / (x as f64).sqrt();
            let rel = ((got - want) / want).abs();
            assert!(rel < 2e-6, "rsqrt({x}): {got} vs {want} rel {rel}");
        }
        assert_eq!(vpu.onchip().rsqrt_nr(0.0), f32::INFINITY);
    }

    #[test]
    fn onchip_softmax_matches_host_softmax_and_needs_no_host() {
        let mut host = Vpu::new();
        let mut chip = Vpu::new();
        let src: Vec<f32> = (0..33).map(|k| (k as f32 * 0.47).sin() * 6.0).collect();
        let mut a = src.clone();
        let mut b = src.clone();
        host.softmax_row(&mut a);
        chip.onchip().softmax_row(&mut b);
        for j in 0..33 {
            assert!((a[j] - b[j]).abs() < 1e-5, "j={j}: {} vs {}", a[j], b[j]);
        }
        assert_eq!(host.count.host_div, 33);
        assert_eq!(
            chip.count.host_div, 0,
            "on-chip kernel must not touch the host"
        );
        // And it is cheaper in total off-array work while adding only a
        // handful of multiplies.
        assert!(chip.count.fp_mul > host.count.fp_mul);
        assert!(chip.count.fp_mul < host.count.fp_mul + 40);
    }

    #[test]
    fn onchip_layernorm_matches_host_variant() {
        let n = 48;
        let gamma: Vec<f32> = (0..n).map(|j| 1.0 + j as f32 * 0.002).collect();
        let beta: Vec<f32> = (0..n).map(|j| (j as f32 * 0.1).sin() * 0.1).collect();
        let src: Vec<f32> = (0..n)
            .map(|j| (j as f32 * 0.29).cos() * 4.0 - 1.0)
            .collect();
        let mut host = Vpu::new();
        let mut chip = Vpu::new();
        let mut a = src.clone();
        let mut b = src.clone();
        host.layernorm_row(&mut a, &gamma, &beta, 1e-6);
        chip.onchip().layernorm_row(&mut b, &gamma, &beta, 1e-6);
        for j in 0..n {
            assert!((a[j] - b[j]).abs() < 5e-5, "j={j}: {} vs {}", a[j], b[j]);
        }
        assert_eq!(chip.count.host_sqrt + chip.count.host_div, 0);
    }

    #[test]
    fn division_goes_to_host() {
        let mut vpu = Vpu::new();
        let mut row = vec![1.0f32, 2.0, 3.0];
        vpu.softmax_row(&mut row);
        assert_eq!(
            vpu.count.host_div, 3,
            "every softmax output is a host division"
        );
    }

    // The reduced-precision formats through the same kernels.

    #[test]
    fn redfp_softmax_quality_degrades_monotonically_with_mantissa() {
        let logits: Vec<f32> = (0..64).map(|k| (k as f32 * 0.41).sin() * 5.0).collect();
        let mut reference = logits.clone();
        let mut fp32 = RedFp::FP32;
        fp32.softmax_row(&mut reference);
        let mut prev_err = 0.0f32;
        for (name, mut f) in [
            ("fp24", RedFp::FP24),
            ("tf32", RedFp::TF32),
            ("bf16", RedFp::BF16),
        ] {
            let mut row = logits.clone();
            f.softmax_row(&mut row);
            let err = row
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max);
            assert!(
                err >= prev_err,
                "{name}: error must not shrink with fewer bits"
            );
            prev_err = err;
        }
        // bf16 softmax stays *usable* on in-range logits (range matters
        // more than mantissa here) ...
        assert!(prev_err < 1e-2);
    }

    #[test]
    fn redfp_fp16_softmax_breaks_where_bf16_survives() {
        // The dynamic-range story: shifted logits are <= 0, so exp <= 1
        // never overflows; the failure is underflow: shifted logits below
        // ln(2^-14) ~ -9.7 flush to zero and lose all tail mass.
        let (mut fp32, mut fp16, mut bf16) = (RedFp::FP32, RedFp::FP16, RedFp::BF16);
        let mut row: Vec<f32> = (0..32).map(|k| -(k as f32)).collect(); // 0..-31
        let mut reference = row.clone();
        fp32.softmax_row(&mut reference);
        let mut f16row = row.clone();
        fp16.softmax_row(&mut f16row);
        bf16.softmax_row(&mut row);
        // In fp16 every entry beyond position ~10 is exactly zero.
        assert_eq!(f16row[20], 0.0);
        assert!(reference[20] > 0.0);
        // bf16 keeps the tail alive thanks to its 8-bit exponent.
        assert!(row[20] > 0.0, "bf16 preserves tail mass");
    }

    #[test]
    fn redfp_layernorm_needs_mantissa_not_range() {
        // Complementary story: LayerNorm accuracy tracks mantissa width.
        let n = 384;
        let gamma = vec![1.0f32; n];
        let beta = vec![0.0f32; n];
        let src: Vec<f32> = (0..n)
            .map(|j| (j as f32 * 0.17).sin() * 2.0 + 0.3)
            .collect();
        let run = |mut f: RedFp| {
            let mut row = src.clone();
            f.layernorm_row(&mut row, &gamma, &beta, 1e-6);
            row
        };
        let reference = run(RedFp::FP32);
        let err = |row: &[f32]| {
            row.iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max)
        };
        let e_fp24 = err(&run(RedFp::FP24));
        let e_bf16 = err(&run(RedFp::BF16));
        assert!(e_fp24 < e_bf16, "more mantissa -> better LayerNorm");
        assert!(
            e_bf16 < 0.2,
            "bf16 LayerNorm is degraded but not broken: {e_bf16}"
        );
    }
}
