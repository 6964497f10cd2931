//! The exact VPU's kernels as vector programs: the fp32 vector unit's
//! instruction set, a builder, the compiled programs of the exact
//! host-division batch kernels of [`Vpu`], and the executor that runs them
//! on the lane datapath ([`bfp_arith::fplanes`]).
//!
//! The paper makes its vector unit run-time programmable because nonlinear
//! functions keep changing (§III-B). Here a function's operation sequence
//! is data: [`compile_exp`] and [`compile_gelu`] emit the multiplies, adds,
//! exponent adjust and host division of the [`Vpu`]'s `exp` and GELU in
//! the same order on the same operands, so inside its regime a program
//! computes the scalar kernel's bits, and its op mix, read off its
//! instructions, is the kernel's [`cost`](super::cost) formula.
//!
//! **Two addressing modes.** [`run`] puts an element in each lane;
//! [`run_rows`] puts a row in each lane and steps across the columns, each
//! lane carrying its row's accumulator in the row's element order. Exact
//! softmax is [`ROW_MAX`] → [`SHIFTED_EXP`] → [`ROW_SUM`] → [`DIVIDE`],
//! exact LayerNorm [`ROW_SUM`] → [`CENTRE`] → [`ROW_SUM`] → [`AFFINE`];
//! the per-row mean, variance, `sqrt` and `1/sd` stay scalar.
//!
//! **The executor** ([`Frame::exec`]) is written once over the lane width
//! ([`Width`]) and runs on the host's [`fplanes::tier`], over groups of
//! [`MAX_GROUP`] = 32 elements or rows, then of 8 and of 4; the scalar
//! kernel takes the last `< 4`. On AVX-512 a 32-group is four `F64x8`
//! vectors and an 8-group one, on AVX2 eight and two `F64x4`; a 4-group is
//! one `F64x4` on both. Each instruction runs over the whole group before
//! the next, in a register file on the stack, so several vectors are in
//! flight and a row sum's accumulators hide the adder's latency. A group
//! runs only inside its program's regime: every element it reads and
//! every splat at most the program's bound in magnitude (NaN fails), every
//! `Within` guard met, rows shorter than [`ROW_MAX_COLS`]. Any other group
//! runs the scalar kernel, its lanes' work discarded. A completed group is
//! charged the op mix per element, or per row and step, and a scalar
//! element counts itself: [`OpCount`] and the group boundaries are the
//! same on every tier.
//!
//! **Operands.** An arithmetic program imports its operands through the
//! array's unpack ([`Width::import`], which flushes subnormals); one of host
//! and comparator operations alone keeps them as stored ([`Width::raw`]).
//!
//! # Safety
//! The executor's register file is not initialised, so it relies on what
//! [`VBuilder`] checks of every program: at most [`MAX_REGS`] registers,
//! and no read of a register before the inputs' binding or the
//! instruction that writes it. `VProgram`'s fields are private to this
//! module, so every program passed those checks.

use std::mem::MaybeUninit;
use std::sync::LazyLock;

use bfp_arith::fplanes::{self, Tier, Width, Ymm, Zmm};

use super::{Datapath, OpCount, Vpu, EXP2_POLY, GELU_A, GELU_C, GELU_LANE_MAX_ABS, ROUND_MAGIC};

/// The executor's largest group, of elements or of rows: four `F64x8`
/// vectors, eight `F64x4`. The engine cuts its VPU shards on multiples of
/// it, so a cut never splits a group.
pub(crate) const MAX_GROUP: usize = 32;

/// A vector register: one value per element of a group.
type VReg = usize;

/// The executor's register file: no program may use more registers.
const MAX_REGS: usize = 32;

/// The most inputs or outputs a program binds.
const MAX_IO: usize = 4;

/// One vector-unit instruction.
#[derive(Debug, Clone, Copy)]
enum VInstr {
    /// `dst = a + b` on the hardware adder.
    Add { a: VReg, b: VReg, dst: VReg },
    /// `dst = a − b`: the sign flip through the XOR gate, then the adder.
    Sub { a: VReg, b: VReg, dst: VReg },
    /// `dst = a × b` on the hardware multiplier.
    Mul { a: VReg, b: VReg, dst: VReg },
    /// `dst = a + imm`.
    AddI { a: VReg, imm: f32, dst: VReg },
    /// `dst = imm − a`.
    RSubI { a: VReg, imm: f32, dst: VReg },
    /// `dst = a × imm`.
    MulI { a: VReg, imm: f32, dst: VReg },
    /// The exponent unit's `dst = a · 2^k`, `k` integer-valued.
    ScaleExp2 { a: VReg, k: VReg, dst: VReg },
    /// `dst = a / b` on the host: the prototype's division.
    HostDiv { a: VReg, b: VReg, dst: VReg },
    /// `dst = imm / a` on the host.
    HostDivI { imm: f32, a: VReg, dst: VReg },
    /// The comparator's `dst = b > a ? b : a`.
    Max { a: VReg, b: VReg, dst: VReg },
    /// Regime guard, no operation: a group with an element of `a` outside
    /// `[lo, hi]` leaves the program for the scalar kernel.
    Within { a: VReg, lo: f32, hi: f32 },
}

impl VInstr {
    /// The registers the instruction reads.
    fn reads(&self) -> [VReg; 2] {
        match *self {
            VInstr::Add { a, b, .. }
            | VInstr::Sub { a, b, .. }
            | VInstr::Mul { a, b, .. }
            | VInstr::HostDiv { a, b, .. }
            | VInstr::Max { a, b, .. } => [a, b],
            VInstr::ScaleExp2 { a, k, .. } => [a, k],
            VInstr::AddI { a, .. }
            | VInstr::RSubI { a, .. }
            | VInstr::MulI { a, .. }
            | VInstr::HostDivI { a, .. }
            | VInstr::Within { a, .. } => [a, a],
        }
    }
}

/// A compiled program, its regime and its scalar kernel.
pub(super) struct VProgram {
    /// Instructions in order.
    code: Vec<VInstr>,
    /// Registers `0..inputs` are bound by the caller: register 0 to the
    /// data the program transforms, the others to a slice or a splat each.
    inputs: usize,
    /// Registers stored after the code ran: the first back to the data,
    /// the others to the caller's output slices.
    outputs: Vec<VReg>,
    /// The regime's operand bound: every bound element and splat is at
    /// most this in magnitude (NaN fails), or the group runs `scalar`.
    bound: f32,
    /// What the code costs per element, or per row and step.
    mix: OpCount,
    /// Row mode's accumulator start: `Some(c)` before every column, or
    /// (`None`) the row's first element before the rest.
    init: Option<f32>,
    /// A program without array arithmetic: its registers hold the values as
    /// stored, not imported.
    raw: bool,
    /// The scalar kernel on one element (one step of a row), inputs to
    /// outputs; it counts its own operations.
    scalar: fn(&mut Vpu, &[f32], &mut [f32]),
}

/// Emits a program in single-assignment form: every instruction that
/// produces a value writes a fresh register, and reads only registers
/// written before it — which the executor's register file relies on.
struct VBuilder {
    code: Vec<VInstr>,
    inputs: usize,
    next: VReg,
}

impl VBuilder {
    /// A program whose registers `0..inputs` are bound by the caller.
    fn new(inputs: usize) -> Self {
        assert!((1..=MAX_IO).contains(&inputs), "1 to {MAX_IO} inputs");
        VBuilder {
            code: Vec::new(),
            inputs,
            next: inputs,
        }
    }

    fn push(&mut self, instr: VInstr) {
        let defined = |r: &VReg| *r < self.next;
        assert!(
            instr.reads().iter().all(defined),
            "{instr:?} reads an unwritten register"
        );
        self.code.push(instr);
    }

    fn emit(&mut self, instr: impl FnOnce(VReg) -> VInstr) -> VReg {
        let dst = self.next;
        self.push(instr(dst));
        self.next += 1;
        dst
    }

    fn add(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(|dst| VInstr::Add { a, b, dst })
    }

    fn sub(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(|dst| VInstr::Sub { a, b, dst })
    }

    fn mul(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(|dst| VInstr::Mul { a, b, dst })
    }

    fn add_i(&mut self, a: VReg, imm: f32) -> VReg {
        self.emit(|dst| VInstr::AddI { a, imm, dst })
    }

    fn rsub_i(&mut self, a: VReg, imm: f32) -> VReg {
        self.emit(|dst| VInstr::RSubI { a, imm, dst })
    }

    fn mul_i(&mut self, a: VReg, imm: f32) -> VReg {
        self.emit(|dst| VInstr::MulI { a, imm, dst })
    }

    fn scale_exp2(&mut self, a: VReg, k: VReg) -> VReg {
        self.emit(|dst| VInstr::ScaleExp2 { a, k, dst })
    }

    fn host_div(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(|dst| VInstr::HostDiv { a, b, dst })
    }

    fn host_div_i(&mut self, imm: f32, a: VReg) -> VReg {
        self.emit(|dst| VInstr::HostDivI { imm, a, dst })
    }

    fn max(&mut self, a: VReg, b: VReg) -> VReg {
        self.emit(|dst| VInstr::Max { a, b, dst })
    }

    fn within(&mut self, a: VReg, lo: f32, hi: f32) {
        self.push(VInstr::Within { a, lo, hi });
    }

    /// The finished element program: it stores `outputs` (the first back
    /// to the data) and runs in the regime `bound`, `scalar` everywhere
    /// else.
    fn finish(
        self,
        outputs: &[VReg],
        bound: f32,
        scalar: fn(&mut Vpu, &[f32], &mut [f32]),
    ) -> VProgram {
        assert!(self.next <= MAX_REGS, "{} registers", self.next);
        assert!(outputs.iter().all(|&r| r < self.next), "unwritten output");
        assert!(
            (1..=MAX_IO).contains(&outputs.len()),
            "1 to {MAX_IO} outputs"
        );
        let mix = mix(&self.code);
        let raw = mix.flops() + mix.exp_adjust == 0;
        assert!(
            raw || mix.cmp == 0,
            "the comparator beside array arithmetic"
        );
        VProgram {
            mix,
            init: None,
            code: self.code,
            inputs: self.inputs,
            outputs: outputs.to_vec(),
            bound,
            raw,
            scalar,
        }
    }
}

/// The op mix of `code`, one count per instruction.
fn mix(code: &[VInstr]) -> OpCount {
    let mut count = OpCount::default();
    for instr in code {
        match instr {
            VInstr::Add { .. }
            | VInstr::Sub { .. }
            | VInstr::AddI { .. }
            | VInstr::RSubI { .. } => count.fp_add += 1,
            VInstr::Mul { .. } | VInstr::MulI { .. } => count.fp_mul += 1,
            VInstr::ScaleExp2 { .. } => count.exp_adjust += 1,
            VInstr::HostDiv { .. } | VInstr::HostDivI { .. } => count.host_div += 1,
            VInstr::Max { .. } => count.cmp += 1,
            VInstr::Within { .. } => {}
        }
    }
    count
}

/// `Vpu::exp` clamps outside `[-87, 88]`; inside, `e^x ≤ 1.7e38` is finite
/// until the closing exponent adjust.
const EXP_MIN: f32 = -87.0;
const EXP_MAX: f32 = 88.0;

/// LayerNorm's straight-line regime: with every operand at most 2⁴⁰ in
/// magnitude the centre pass stays below 2⁴¹ (squares below 2⁸², a final
/// value) and the affine pass below 2⁴⁰·2⁴⁰·2⁴⁰ + 2⁴⁰ < 2¹²⁸.
const LAYERNORM_MAX_ABS: f32 = 1_099_511_627_776.0;

/// The row sum's regime: operands of at most 2⁹⁶ in magnitude in rows
/// shorter than 2³¹, so no partial sum of the truncating adder reaches
/// 2¹²⁷ and no lane saturates, which could not feed the next add. (Softmax
/// sums values of at most 1, LayerNorm squares below 2⁸³.)
const SUM_MAX_ABS: f32 = 79_228_162_514_264_337_593_543_950_336.0;
const ROW_MAX_COLS: usize = 1 << 31;

/// `e^x` for register `x` inside `[EXP_MIN, EXP_MAX]`, as `Vpu::exp`
/// computes it: range reduction with the truncating adder's rounding
/// trick, degree-5 Horner, the exponent unit's scaling.
fn compile_exp(b: &mut VBuilder, x: VReg) -> VReg {
    let t = b.mul_i(x, std::f32::consts::LOG2_E);
    let th = b.add_i(t, 0.5);
    let shifted = b.add_i(th, ROUND_MAGIC);
    let kf = b.add_i(shifted, -ROUND_MAGIC);
    let f = b.sub(t, kf);
    let mut p = b.mul_i(f, EXP2_POLY[5]);
    p = b.add_i(p, EXP2_POLY[4]);
    for c in EXP2_POLY[..4].iter().rev() {
        let pf = b.mul(p, f);
        p = b.add_i(pf, *c);
    }
    b.scale_exp2(p, kf)
}

/// GELU for register `x` inside `|x| ≤ GELU_LANE_MAX_ABS`, as `Vpu::gelu`
/// computes it with the host division: 13 multiplies, 13 adds, one
/// exponent adjust and one host division.
fn compile_gelu(b: &mut VBuilder, x: VReg) -> VReg {
    let x2 = b.mul(x, x);
    let x3 = b.mul(x2, x);
    let ax3 = b.mul_i(x3, GELU_A);
    let inner = b.add(x, ax3);
    let u = b.mul_i(inner, GELU_C);
    // tanh(u) = 1 − 2 / (e^{2u} + 1), its ±15 clamps out of reach.
    let two_u = b.mul_i(u, 2.0);
    let e = compile_exp(b, two_u);
    let d = b.add_i(e, 1.0);
    let q = b.host_div_i(2.0, d);
    let t = b.rsub_i(q, 1.0);
    let one_t = b.add_i(t, 1.0);
    let hx = b.mul_i(x, 0.5);
    b.mul(hx, one_t)
}

/// The [`Vpu`]'s GELU element-wise.
pub(super) static GELU: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(1);
    let y = compile_gelu(&mut b, 0);
    b.finish(&[y], GELU_LANE_MAX_ABS, |vpu, x, y| y[0] = vpu.gelu(x[0]))
});

/// Softmax's max scan, a row per lane: the comparator's `v > max` select
/// on the elements as stored, from the row's first element on.
pub(super) static ROW_MAX: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(2);
    let max = b.max(0, 1);
    b.finish(&[max], f32::INFINITY, |vpu, x, y| {
        vpu.count_cmp();
        y[0] = if x[1] > x[0] { x[1] } else { x[0] };
    })
});

/// Softmax's `v ← exp(v − max)`, the row's `max` in register 1.
pub(super) static SHIFTED_EXP: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(2);
    let shifted = b.sub(0, 1);
    b.within(shifted, EXP_MIN, EXP_MAX);
    let y = compile_exp(&mut b, shifted);
    b.finish(&[y], f32::MAX, |vpu, x, y| {
        let shifted = vpu.sub(x[0], x[1]);
        y[0] = vpu.exp(shifted);
    })
});

/// The element-order sum of a row, a row per lane: `0 + v₀ + v₁ + …` on
/// the adder.
pub(super) static ROW_SUM: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(2);
    let sum = b.add(0, 1);
    let step = b.finish(&[sum], SUM_MAX_ABS, |vpu, x, y| y[0] = vpu.add(x[0], x[1]));
    VProgram {
        init: Some(0.0),
        ..step
    }
});

/// Softmax's `v ← v / sum` on the host, the row's `sum` in register 1.
pub(super) static DIVIDE: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(2);
    let q = b.host_div(0, 1);
    b.finish(&[q], f32::INFINITY, |vpu, x, y| {
        y[0] = vpu.div_host(x[0], x[1])
    })
});

/// LayerNorm's centre pass, the row's `mean` in register 1: `v ← v − mean`
/// and, to the second output, `(v − mean)²`.
pub(super) static CENTRE: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(2);
    let d = b.sub(0, 1);
    let sq = b.mul(d, d);
    b.finish(&[d, sq], LAYERNORM_MAX_ABS, |vpu, x, y| {
        y[0] = vpu.sub(x[0], x[1]);
        y[1] = vpu.mul(y[0], y[0]);
    })
});

/// LayerNorm's affine pass `v ← v·inv·γ + β`: the row's `inv` in
/// register 1, `γ` and `β` in registers 2 and 3.
pub(super) static AFFINE: LazyLock<VProgram> = LazyLock::new(|| {
    let mut b = VBuilder::new(4);
    let nrm = b.mul(0, 1);
    let scaled = b.mul(nrm, 2);
    let y = b.add(scaled, 3);
    b.finish(&[y], LAYERNORM_MAX_ABS, |vpu, x, y| {
        let nrm = vpu.mul(x[0], x[1]);
        let scaled = vpu.mul(nrm, x[2]);
        y[0] = vpu.add(scaled, x[3]);
    })
});

/// Which route each group took, per test thread: the tests assert that
/// in-regime shapes really run their programs, on the tier they forced.
#[cfg(test)]
pub(super) mod route {
    use std::cell::Cell;
    use std::thread::LocalKey;

    use bfp_arith::fplanes::Tier;

    thread_local! {
        /// Element groups the program ran / sent to the scalar kernel.
        pub static PROGRAM_GROUPS: Cell<u64> = const { Cell::new(0) };
        pub static SCALAR_GROUPS: Cell<u64> = const { Cell::new(0) };
        /// Rows a row program ran on the lanes / on the scalar kernel.
        pub static LANE_ROWS: Cell<u64> = const { Cell::new(0) };
        pub static SCALAR_ROWS: Cell<u64> = const { Cell::new(0) };
        /// Groups of `F64x8` / `F64x4` vectors, either mode, either route.
        pub static ZMM_GROUPS: Cell<u64> = const { Cell::new(0) };
        pub static YMM_GROUPS: Cell<u64> = const { Cell::new(0) };
        /// The tier the executor takes on this thread instead of the host's.
        pub static FORCED: Cell<Option<Tier>> = const { Cell::new(None) };
    }

    /// Counts `n` items of a group on `F64x8` or `F64x4` vectors that ran
    /// its program (`ok`) or the scalar kernel; rows count singly.
    pub fn tally(rows: bool, ok: bool, n: usize, zmm: bool) {
        let add = |t: &'static LocalKey<Cell<u64>>, n| t.set(t.get() + n);
        match rows {
            true => add([&SCALAR_ROWS, &LANE_ROWS][usize::from(ok)], n as u64),
            false => add([&SCALAR_GROUPS, &PROGRAM_GROUPS][usize::from(ok)], 1),
        }
        add([&YMM_GROUPS, &ZMM_GROUPS][usize::from(zmm)], 1);
    }

    /// `(element groups the program ran, groups on the scalar kernel)`.
    pub fn take_groups() -> (u64, u64) {
        (PROGRAM_GROUPS.take(), SCALAR_GROUPS.take())
    }

    /// `(rows on the lanes, rows on the scalar kernel)` of row programs.
    pub fn take_rows() -> (u64, u64) {
        (LANE_ROWS.take(), SCALAR_ROWS.take())
    }

    /// `(groups of F64x8, groups of F64x4)`.
    pub fn take_widths() -> (u64, u64) {
        (ZMM_GROUPS.take(), YMM_GROUPS.take())
    }
}

/// The executor's tier: the host's, or the one a test forced.
fn exec_tier() -> Tier {
    #[cfg(test)]
    if let Some(tier) = route::FORCED.get() {
        return tier;
    }
    fplanes::tier()
}

/// A register file of `MAX_REGS` registers of `G` vectors of `W`.
type Regs<W, const G: usize> = *mut [<W as Width>::V; G];

/// What a program's input register reads: a slice as long as the data, or
/// one value for every element (a row's `max`, `sum`, `mean` or `inv`).
#[derive(Clone, Copy)]
pub(super) enum Bind<'a> {
    Slice(&'a [f32]),
    Splat(f32),
}

/// An input register's source as the executor reads it: a slice, or one
/// value for every element.
#[derive(Clone, Copy)]
enum Src {
    At(*const f32),
    Splat(f32),
}

/// One run's operands: item `r` (an element or a row) reads element
/// `r·cols + j` of a slice in `src` at step `j`, and writes `dst` at `r`.
struct Frame<'a> {
    prog: &'a VProgram,
    /// Elements, or rows.
    len: usize,
    /// The row length: 1 in element mode.
    cols: usize,
    /// Row mode: register 0 carries the accumulator; it is read once, from
    /// a splat or the rows' first column, and the steps start at `first`.
    carry: bool,
    first: usize,
    src: [Src; MAX_IO],
    dst: [*mut f32; MAX_IO],
}

impl Frame<'_> {
    /// `v` in a register, as the program takes its operands.
    #[inline(always)]
    unsafe fn take<W: Width>(&self, v: W::F) -> W::V {
        if self.prog.raw {
            W::raw(v)
        } else {
            W::import(v)
        }
    }

    /// A register's value in memory format.
    #[inline(always)]
    unsafe fn give<W: Width>(&self, v: W::V) -> W::F {
        if self.prog.raw {
            W::unraw(v)
        } else {
            W::export(v)
        }
    }

    /// Slice input `r` into its register from element `at`, items `cols`
    /// apart in row mode; false if an element is outside the regime.
    ///
    /// # Safety
    /// As [`Frame::group`].
    #[inline(always)]
    unsafe fn load<W: Width, const G: usize, const ROWS: bool>(
        &self,
        r: VReg,
        at: usize,
        regs: Regs<W, G>,
    ) -> bool {
        let Src::At(p) = self.src[r] else {
            return true;
        };
        let mut ok = true;
        for i in 0..G {
            // SAFETY: the group's items are in every slice.
            let v = match ROWS {
                true => W::gather(p.add(at + i * W::LANES * self.cols), self.cols),
                false => W::load(p.add(at + i * W::LANES)),
            };
            ok &= W::all_abs_le(v, self.prog.bound);
            (*regs.add(r))[i] = self.take::<W>(v);
        }
        ok
    }

    /// The program on the group of `G` vectors of `W` at item `at` (row
    /// mode if `ROWS`); false, storing nothing, outside the regime.
    ///
    /// # Safety
    /// As [`Frame::groups`]; `at + W::LANES·G ≤ len`; `regs` points to a
    /// register file of `MAX_REGS` registers, its splat inputs bound.
    #[inline(always)]
    unsafe fn group<W: Width, const G: usize, const ROWS: bool>(
        &self,
        at: usize,
        regs: Regs<W, G>,
    ) -> bool {
        let prog = self.prog;
        let mut ok = true;
        if ROWS {
            match self.src[0] {
                Src::Splat(c) => *regs = [self.take::<W>(W::splat(c)); G],
                Src::At(_) => ok = self.load::<W, G, ROWS>(0, at * self.cols, regs),
            }
        }
        let cols = if ROWS { self.cols } else { 1 };
        for j in if ROWS { self.first } else { 0 }..cols {
            for r in usize::from(ROWS)..prog.inputs {
                ok &= self.load::<W, G, ROWS>(r, at * cols + j, regs);
            }
            if !ok || !self.exec::<W, G>(regs) {
                return false;
            }
            if ROWS {
                *regs = *regs.add(prog.outputs[0]);
            }
        }
        for (&r, &p) in prog.outputs.iter().zip(&self.dst) {
            let r = if ROWS { 0 } else { r };
            for i in 0..G {
                // SAFETY: every output holds `len` items.
                W::store(p.add(at + i * W::LANES), self.give::<W>((*regs.add(r))[i]));
            }
        }
        true
    }

    /// The program's code over the `G` vectors of `W` in `regs`; false
    /// when a `Within` guard fails.
    ///
    /// # Safety
    /// As [`Frame::group`], every input bound.
    #[inline(always)]
    unsafe fn exec<W: Width, const G: usize>(&self, regs: Regs<W, G>) -> bool {
        // `set!(dst, |i| v)` writes `v` to vector `i` of register `dst` for
        // every `i`; `reg!(r)` reads register `r`.
        // SAFETY (every register access): the program passed `VBuilder`'s
        // checks, so each index is below `MAX_REGS` and each register read
        // was written first, by the binding or by an earlier instruction.
        macro_rules! reg {
            ($r:expr) => {
                (*regs.add($r))
            };
        }
        macro_rules! set {
            ($dst:expr, |$i:ident| $v:expr) => {
                for $i in 0..G {
                    reg!($dst)[$i] = $v;
                }
            };
        }
        for instr in &self.prog.code {
            match *instr {
                VInstr::Add { a, b, dst } => set!(dst, |i| W::add(reg!(a)[i], reg!(b)[i])),
                VInstr::Sub { a, b, dst } => set!(dst, |i| W::sub(reg!(a)[i], reg!(b)[i])),
                VInstr::Mul { a, b, dst } => set!(dst, |i| W::mul(reg!(a)[i], reg!(b)[i])),
                VInstr::AddI { a, imm: c, dst } => {
                    let c = W::import(W::splat(c));
                    set!(dst, |i| W::add(reg!(a)[i], c));
                }
                VInstr::RSubI { a, imm: c, dst } => {
                    let c = W::import(W::splat(c));
                    set!(dst, |i| W::sub(c, reg!(a)[i]));
                }
                VInstr::MulI { a, imm: c, dst } => {
                    let c = W::import(W::splat(c));
                    set!(dst, |i| W::mul(reg!(a)[i], c));
                }
                VInstr::ScaleExp2 { a, k, dst } => {
                    set!(dst, |i| W::scale_exp2(reg!(a)[i], W::to_i32(reg!(k)[i])));
                }
                VInstr::HostDiv { a, b, dst } => {
                    set!(dst, |i| {
                        let (a, b) = (self.give::<W>(reg!(a)[i]), self.give::<W>(reg!(b)[i]));
                        self.take::<W>(W::div(a, b))
                    });
                }
                VInstr::HostDivI { imm: c, a, dst } => {
                    let c = W::splat(c);
                    set!(dst, |i| self
                        .take::<W>(W::div(c, self.give::<W>(reg!(a)[i]))));
                }
                VInstr::Max { a, b, dst } => {
                    set!(dst, |i| {
                        let (a, b) = (self.give::<W>(reg!(a)[i]), self.give::<W>(reg!(b)[i]));
                        self.take::<W>(W::max(b, a))
                    });
                }
                VInstr::Within { a, lo, hi } => {
                    let mut inside = true;
                    for i in 0..G {
                        inside &= W::all_within(reg!(a)[i], lo.into(), hi.into());
                    }
                    if !inside {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The whole groups of `G` vectors of `W` from item `*at` on, each
    /// through the program or the scalar kernel; returns the items the
    /// program ran.
    ///
    /// # Safety
    /// The host runs `W` and the caller is compiled with its features.
    #[inline(always)]
    unsafe fn groups<W: Width, const G: usize>(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        let step = G * W::LANES;
        // Not zeroed: 8 KiB per call was ≈ 10% of a 64-element drain.
        let mut file = MaybeUninit::<[[W::V; G]; MAX_REGS]>::uninit();
        let regs = file.as_mut_ptr().cast::<[W::V; G]>();
        // Splats are bound once: no instruction writes an input register.
        for (r, src) in self.src[..self.prog.inputs].iter().enumerate() {
            if let Src::Splat(v) = *src {
                *regs.add(r) = [self.take::<W>(W::splat(v)); G];
            }
        }
        let mut ran = 0;
        while *at + step <= self.len {
            let ok = match self.carry {
                true => self.group::<W, G, true>(*at, regs),
                false => self.group::<W, G, false>(*at, regs),
            };
            if ok {
                ran += step as u64;
            } else {
                self.scalar(vpu, *at, *at + step);
            }
            #[cfg(test)]
            route::tally(self.carry, ok, step, W::LANES == 8);
            *at += step;
        }
        ran
    }

    /// The AVX2 tier's groups: eight `F64x4` vectors (32 elements, two to
    /// a 64-element drain tile), then two, then one. A tail of eight runs
    /// as two vectors: one vector at a time is a single dependent chain,
    /// which made 8-element calls ≈ 2× slower.
    #[target_feature(enable = "avx2")]
    unsafe fn groups_avx2(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        let mut ran = self.groups::<Ymm, { MAX_GROUP / 4 }>(vpu, at);
        ran += self.groups::<Ymm, 2>(vpu, at);
        ran + self.groups::<Ymm, 1>(vpu, at)
    }

    /// The AVX-512 tier's groups: four `F64x8` vectors, then one, then one
    /// `F64x4` — the AVX2 tier's boundaries. A tail of eight is one
    /// `F64x8` rather than two `F64x4`: one thread, ns per element over
    /// four interleaved rounds, 49–60 against 59–64 in 8-element calls and
    /// 23–26 against 26–28 in 40-element ones.
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn groups_avx512(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        let mut ran = self.groups::<Zmm, { MAX_GROUP / 8 }>(vpu, at);
        ran += self.groups::<Zmm, 1>(vpu, at);
        ran + self.groups::<Ymm, 1>(vpu, at)
    }

    /// The program's scalar kernel on items `lo..hi`.
    ///
    /// # Safety
    /// Every pointer of the frame is valid for `len` items; `hi ≤ len`.
    unsafe fn scalar(&self, vpu: &mut Vpu, lo: usize, hi: usize) {
        let prog = self.prog;
        let (ins, outs) = (prog.inputs, prog.outputs.len());
        let (mut x, mut y) = ([0f32; MAX_IO], [0f32; MAX_IO]);
        // SAFETY (reads and writes): item `r < len` is in every slice.
        let read = |src: Src, at: usize| match src {
            Src::At(p) => *p.add(at),
            Src::Splat(v) => v,
        };
        for r in lo..hi {
            if self.carry {
                x[0] = read(self.src[0], r * self.cols);
            }
            for j in self.first..self.cols {
                for k in usize::from(self.carry)..ins {
                    x[k] = read(self.src[k], r * self.cols + j);
                }
                (prog.scalar)(vpu, &x[..ins], &mut y[..outs]);
                if self.carry {
                    x[0] = y[0];
                }
            }
            let out = if self.carry { &x } else { &y };
            for (&p, &v) in self.dst[..outs].iter().zip(out) {
                *p.add(r) = v;
            }
        }
    }

    /// Every item, whole groups on the executor's tier, charged the op mix
    /// per item and step, the rest on the scalar kernel.
    ///
    /// # Safety
    /// Every pointer of the frame is valid for `len` items.
    unsafe fn run(&self, vpu: &mut Vpu, lanes: bool) {
        let mut at = 0;
        // SAFETY: the host runs the tier, detected or forced by a test to
        // one the host runs.
        let ran = match exec_tier() {
            Tier::Avx512 if lanes => self.groups_avx512(vpu, &mut at),
            Tier::Avx2 if lanes => self.groups_avx2(vpu, &mut at),
            _ => 0,
        };
        self.scalar(vpu, at, self.len);
        #[cfg(test)]
        route::SCALAR_ROWS
            .set(route::SCALAR_ROWS.get() + (self.len - at) as u64 * u64::from(self.carry));
        let steps = self.cols - self.first;
        vpu.count.merge(&self.prog.mix.times(ran * steps as u64));
    }
}

/// Run element program `prog` over `data`: register 0 reads `data` and the
/// next ones `binds`; the first output goes back to `data`, the others to
/// `outs`.
pub(super) fn run(
    vpu: &mut Vpu,
    prog: &VProgram,
    data: &mut [f32],
    binds: &[Bind],
    outs: &mut [&mut [f32]],
) {
    assert_eq!(1 + binds.len(), prog.inputs, "program inputs");
    assert_eq!(1 + outs.len(), prog.outputs.len(), "program outputs");
    let len = data.len();
    let data = data.as_mut_ptr();
    let mut frame = Frame {
        prog,
        len,
        cols: 1,
        carry: false,
        first: 0,
        src: [Src::At(data); MAX_IO],
        dst: [data; MAX_IO],
    };
    let mut splats_ok = true;
    for (src, bind) in frame.src[1..].iter_mut().zip(binds) {
        *src = match *bind {
            Bind::Slice(v) => {
                assert_eq!(v.len(), len, "operand length");
                Src::At(v.as_ptr())
            }
            Bind::Splat(v) => {
                splats_ok &= v.abs() <= prog.bound;
                Src::Splat(v)
            }
        };
    }
    for (dst, out) in frame.dst[1..].iter_mut().zip(outs.iter_mut()) {
        assert_eq!(out.len(), len, "output length");
        *dst = out.as_mut_ptr();
    }
    // SAFETY: every slice the frame points into holds `len` elements.
    unsafe { frame.run(vpu, splats_ok) };
}

/// Run `prog` over every `cols`-wide row of `data` in row mode, a row per
/// lane and a column per step: register 0 is the row's accumulator, from
/// the program's `init`, register 1 its next element, and the output the
/// next accumulator; `out[r]` is row `r`'s last.
///
/// # Panics
/// Panics unless `prog` maps two inputs to one output and `data` is
/// `out.len()` rows of `cols > 0`.
pub(super) fn run_rows(vpu: &mut Vpu, prog: &VProgram, data: &[f32], cols: usize, out: &mut [f32]) {
    assert!(
        prog.inputs == 2 && prog.outputs.len() == 1,
        "not a row step"
    );
    assert!(cols > 0 && data.len() == out.len() * cols, "whole rows");
    let init = prog.init;
    let rows = Src::At(data.as_ptr());
    let frame = Frame {
        prog,
        len: out.len(),
        cols,
        carry: true,
        first: usize::from(init.is_none()),
        src: [init.map_or(rows, Src::Splat), rows, rows, rows],
        dst: [out.as_mut_ptr(); MAX_IO],
    };
    // SAFETY: `data` holds `len` rows of `cols`, `out` `len` values.
    unsafe { frame.run(vpu, cols < ROW_MAX_COLS) };
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::vpu::cost;
    use proptest::prelude::*;

    /// The executor's groups over `n` elements or rows: 32, then 8, then
    /// 4 each.
    pub(in crate::vpu) fn groups(n: usize) -> u64 {
        (n / 32 + n % 32 / 8 + n % 8 / 4) as u64
    }

    /// [`route::take_widths`] after a run over `n` elements or rows on
    /// `tier`.
    pub(in crate::vpu) fn widths(tier: Tier, n: usize) -> (u64, u64) {
        match tier {
            Tier::Avx512 => ((n / 32 + n % 32 / 8) as u64, (n % 8 / 4) as u64),
            Tier::Avx2 => (0, groups(n)),
            Tier::Scalar => (0, 0),
        }
    }

    /// Every executor tier this host runs, fastest first (none without
    /// AVX2).
    pub(in crate::vpu) fn exec_tiers() -> Vec<Tier> {
        let host = fplanes::tier();
        [Tier::Avx512, Tier::Avx2]
            .into_iter()
            .filter(|&t| t <= host)
            .collect()
    }

    /// `f()` with the executor on `tier` on this thread.
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

    #[test]
    #[should_panic(expected = "reads an unwritten register")]
    fn malformed_programs_are_rejected() {
        let mut b = VBuilder::new(2);
        let y = b.add(0, 1);
        b.mul(y, y + 1);
    }

    #[test]
    fn every_program_charges_its_kernels_cost_formula() {
        assert_eq!(GELU.mix, cost::gelu());
        for n in [1u64, 5, 197, 384] {
            // Softmax: the max scan's n − 1 compares, then n elements of
            // each element program and n steps of the sum.
            let mut softmax = ROW_MAX.mix.times(n - 1);
            for prog in [&SHIFTED_EXP, &ROW_SUM, &DIVIDE] {
                softmax.merge(&prog.mix.times(n));
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
            for prog in [&ROW_SUM, &CENTRE, &ROW_SUM, &AFFINE] {
                layernorm.merge(&prog.mix.times(n));
            }
            assert_eq!(layernorm, cost::layernorm_row(n), "layernorm of {n}");
        }
    }

    /// `prog` over `data` on the executor's `tier`: the output, the count
    /// and the `(program, scalar)` groups, after asserting that every
    /// group ran on the tier's vectors.
    fn on_lanes(tier: Tier, prog: &VProgram, data: &[f32]) -> (Vec<f32>, OpCount, (u64, u64)) {
        let mut vpu = Vpu::new();
        let mut out = data.to_vec();
        route::take_groups();
        route::take_widths();
        on_tier(tier, || run(&mut vpu, prog, &mut out, &[], &mut []));
        assert_eq!(route::take_widths(), widths(tier, data.len()), "{tier}");
        (out, vpu.count, route::take_groups())
    }

    /// The [`Vpu`]'s `exp` as a program: its unclamped range on the lanes.
    fn exp_program() -> VProgram {
        let mut b = VBuilder::new(1);
        b.within(0, EXP_MIN, EXP_MAX);
        let y = compile_exp(&mut b, 0);
        b.finish(&[y], f32::MAX, |vpu, x, y| y[0] = vpu.exp(x[0]))
    }

    #[test]
    fn compiled_exp_equals_the_scalar_kernel_across_the_whole_unclamped_range() {
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
            let (got, count, route) = on_lanes(tier, &exp_program(), &args);
            for ((g, w), &x) in got.iter().zip(&want).zip(&args) {
                assert_eq!(g.to_bits(), *w, "exp({x:e}) on {tier}");
            }
            assert_eq!(count, cost::exp().times(args.len() as u64));
            assert_eq!(route, (groups(args.len()), 0), "all in range");
        }
    }

    #[test]
    fn a_brand_new_activation_compiles_from_the_same_isa() {
        // The run-time-programmability claim: SiLU never existed when the
        // "hardware" was built, yet it compiles to the same instructions and
        // runs on the same executor. silu(x) = x / (1 + e^(−x)).
        let mut b = VBuilder::new(1);
        let neg = b.mul_i(0, -1.0);
        b.within(neg, EXP_MIN, EXP_MAX);
        let e = compile_exp(&mut b, neg);
        let d = b.add_i(e, 1.0);
        let r = b.host_div_i(1.0, d);
        let y = b.mul(0, r);
        let silu = b.finish(&[y], f32::MAX, |vpu, x, y| {
            let neg = vpu.mul(x[0], -1.0);
            let e = vpu.exp(neg);
            let d = vpu.add(e, 1.0);
            let r = vpu.div_host(1.0, d);
            y[0] = vpu.mul(x[0], r);
        });
        let src: Vec<f32> = (-30..=30).map(|k| k as f32 * 0.2).collect();
        for tier in exec_tiers() {
            let (got, count, route) = on_lanes(tier, &silu, &src);
            // 61 elements: groups of 32, 3 × 8 and 4, one on the scalar
            // kernel.
            assert_eq!(route, (groups(src.len()), 0), "{tier}");
            assert_eq!(groups(src.len()), 5);
            let mut vpu = Vpu::new();
            for (&g, &x) in got.iter().zip(&src) {
                let want = x as f64 / (1.0 + (-x as f64).exp());
                assert!((g as f64 - want).abs() < 2e-5, "silu({x}): {g} vs {want}");
                let mut scalar = [0f32];
                (silu.scalar)(&mut vpu, &[x], &mut scalar);
                assert_eq!(g.to_bits(), scalar[0].to_bits(), "silu({x}) on {tier}");
            }
            assert_eq!(count, vpu.count);
            assert_eq!(count.host_div, src.len() as u64);
        }
    }

    /// `x + y` element-wise on the adder.
    fn add_program() -> VProgram {
        let mut b = VBuilder::new(2);
        let s = b.add(0, 1);
        b.finish(&[s], f32::MAX, |vpu, x, y| y[0] = vpu.add(x[0], x[1]))
    }

    /// The pairs of `bfp-arith`'s `add_truncates_the_aligned_operand_at_
    /// every_window_gap` at exponent 201 (2⁷⁴, inside the row sum's
    /// regime), both signs each: all-ones mantissas make every bit the
    /// 48-bit window shifts out a one, so an adder that rounds its aligned
    /// operand instead of truncating shows. 68 of them: groups of 32, 32
    /// and 4.
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

    /// Row program `prog` over `data` on `tier` against `oracle` row by
    /// row: the same bits, the count of `oracle` on a fresh [`Vpu`], and
    /// `(rows on the lanes, rows on the scalar kernel)`, which it returns.
    fn check_rows(
        tier: Tier,
        prog: &VProgram,
        data: &[f32],
        cols: usize,
        oracle: fn(&mut Vpu, &[f32]) -> f32,
    ) -> (u64, u64) {
        let (mut batch, mut scalar) = (Vpu::new(), Vpu::new());
        let mut got = vec![0f32; data.len() / cols];
        route::take_rows();
        route::take_widths();
        on_tier(tier, || run_rows(&mut batch, prog, data, cols, &mut got));
        assert_eq!(route::take_widths(), widths(tier, got.len()), "{tier}");
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
            let add = add_program();
            on_tier(tier, || {
                run(&mut vpu, &add, &mut got, &[Bind::Slice(&ys)], &mut [])
            });
            assert_eq!(route::take_groups(), (groups(xs.len()), 0), "{tier}");
            let mut scalar = Vpu::new();
            for ((g, &x), &y) in got.iter().zip(&xs).zip(&ys) {
                let want = scalar.add(x, y);
                assert_eq!(g.to_bits(), want.to_bits(), "{x:e} + {y:e} on {tier}");
            }
            assert_eq!(vpu.count, scalar.count);
            let rows = pairs.len() as u64;
            assert_eq!(check_rows(tier, &ROW_SUM, &twos, 2, sum), (rows, 0));
            assert_eq!(check_rows(tier, &ROW_SUM, &threes, 3, sum), (rows, 0));
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
        // never wins). Then one row on the scalar kernel.
        rows.push([nan, 1.0, inf, -1.0, 2.0]);
        rows.extend([[1.0, 2.0, 3.0, 4.0, 5.0]; 7]);
        rows.push([1.0, nan, 3.0, nan, -5.0]);
        rows.extend([[-0.0, 0.0, tiny, 0.0, -0.0]; 4]);
        let data = rows.concat();
        for tier in exec_tiers() {
            assert_eq!(check_rows(tier, &ROW_MAX, &data, 5, max), (32, 13));
        }
    }

    #[test]
    fn a_row_group_outside_the_sum_regime_runs_the_scalar_adder() {
        let cols = 7;
        let base: Vec<f32> = (0..45 * cols).map(|k| (k as f32 * 0.37).sin()).collect();
        // 45 rows: groups of 32, 8 and 4, one row on the scalar kernel.
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
                let route = check_rows(tier, &ROW_SUM, &data, cols, sum);
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
        fn compiled_exp_matches_kernel_for_any_operands(
            xs in proptest::collection::vec(-100.0f32..100.0, 1..80)
        ) {
            for tier in exec_tiers() {
                let (got, count, _) = on_lanes(tier, &exp_program(), &xs);
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
        let host = bfp_arith::fplanes::tier();
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
