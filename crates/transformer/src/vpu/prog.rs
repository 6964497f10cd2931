//! The exact VPU's element-wise passes as vector programs: the fp32 vector
//! unit's instruction set, a builder, the compiled programs the batch
//! entry points of [`super::lanes`] run, and the executor that runs them
//! on the lane datapath ([`bfp_arith::fplanes`]).
//!
//! The paper makes its vector unit run-time programmable because nonlinear
//! functions keep changing (§III-B). Here a function's operation sequence
//! is data: [`compile_exp`] and [`compile_gelu`] emit the multiplies, adds,
//! exponent adjust and host division of the [`Vpu`]'s `exp` and GELU in
//! the same order on the same operands, so inside its regime a program
//! computes the scalar kernel's bits, and its per-element op mix, read off
//! its instructions, is the kernel's [`cost`](super::cost) formula.
//!
//! **The executor.** A program runs over groups of eight `F64x4` vectors
//! (32 elements, so two groups tile the 64-element drain), then over
//! groups of two and of one, then the scalar kernel takes the last `< 4`
//! elements.
//! Each instruction runs over the whole group before the next one starts,
//! its operands and result in a register file on the stack (eight vectors
//! in flight keep the ports busy where one lane operation's dependent
//! chain would leave them idle). A group runs only inside its program's
//! regime: every bound element and splat at most the program's bound in
//! magnitude, checked before the lanes take them in (NaN fails), and every
//! `Within` guard met. Any other group calls the program's scalar kernel
//! per element. A completed group is charged the program's op mix per
//! element, and a scalar element counts itself, so
//! [`OpCount`] is the same number either way.
//!
//! # Safety
//! The executor requires AVX2; its callers are the batch entry points
//! that just checked [`Vpu::lane_datapath`]. Its register file is not
//! initialised, so it relies on what [`VBuilder`] checks of every program:
//! at most [`MAX_REGS`] registers, and no read of a register before the
//! inputs' binding or the instruction that writes it. `VProgram`'s fields
//! are private to this module, so every program passed those checks.

use std::arch::x86_64::_mm_div_ps;
use std::mem::MaybeUninit;
use std::sync::LazyLock;

use bfp_arith::fplanes::lane::{self, F64x4};
use bfp_arith::fplanes::LANES;

use super::{Datapath, OpCount, Vpu, EXP2_POLY, GELU_A, GELU_C, GELU_LANE_MAX_ABS, ROUND_MAGIC};

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
    /// `dst = imm / a` on the host: the prototype's division.
    HostDivI { imm: f32, a: VReg, dst: VReg },
    /// Regime guard, no operation: a group with an element of `a` outside
    /// `[lo, hi]` leaves the program for the scalar kernel.
    Within { a: VReg, lo: f32, hi: f32 },
}

impl VInstr {
    /// The registers the instruction reads.
    fn reads(&self) -> [VReg; 2] {
        match *self {
            VInstr::Add { a, b, .. } | VInstr::Sub { a, b, .. } | VInstr::Mul { a, b, .. } => {
                [a, b]
            }
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
    /// What the code costs per element.
    mix: OpCount,
    /// The scalar kernel on one element, inputs to outputs; it counts its
    /// own operations.
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

    fn host_div_i(&mut self, imm: f32, a: VReg) -> VReg {
        self.emit(|dst| VInstr::HostDivI { imm, a, dst })
    }

    fn within(&mut self, a: VReg, lo: f32, hi: f32) {
        self.push(VInstr::Within { a, lo, hi });
    }

    /// The finished program: it stores `outputs` (the first back to the
    /// data) and runs in the regime `bound`, `scalar` everywhere else.
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
        VProgram {
            mix: mix(&self.code),
            code: self.code,
            inputs: self.inputs,
            outputs: outputs.to_vec(),
            bound,
            scalar,
        }
    }
}

/// The per-element op mix of `code`, one count per instruction.
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
            VInstr::HostDivI { .. } => count.host_div += 1,
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
/// in-regime shapes really run their programs.
#[cfg(test)]
pub(super) mod route {
    use std::cell::Cell;

    thread_local! {
        pub static PROGRAM_GROUPS: Cell<u64> = const { Cell::new(0) };
        pub static SCALAR_GROUPS: Cell<u64> = const { Cell::new(0) };
    }

    /// `(groups the program ran, groups sent to the scalar kernel)` since
    /// the last call, of either width.
    pub fn take_groups() -> (u64, u64) {
        (PROGRAM_GROUPS.take(), SCALAR_GROUPS.take())
    }
}

/// Vectors per wide group: 32 elements, two to a 64-element drain tile.
/// A call's tail then runs in groups of two vectors: one vector at a time
/// is a single dependent chain, which made 8-element calls ≈ 2× slower.
const WIDE: usize = 8;

/// An immediate in lane format. (A function, not a closure: a closure
/// would be compiled without AVX2, and the intrinsics could not inline.)
#[inline(always)]
unsafe fn imm(c: f32) -> F64x4 {
    lane::import(lane::splat(c))
}

/// What a program's input register reads: a slice as long as the data, or
/// one value for every element (a row's `max`, `mean` or `inv`).
#[derive(Clone, Copy)]
pub(super) enum Bind<'a> {
    Slice(&'a [f32]),
    Splat(f32),
}

/// An input register's source as the executor reads it: a slice, or a
/// splat in lane format and as the scalar kernel takes it.
#[derive(Clone, Copy)]
enum Src {
    At(*const f32),
    Splat(F64x4, f32),
}

/// One run's operands: input registers read `src`, outputs go to `dst`.
struct Frame<'a> {
    prog: &'a VProgram,
    len: usize,
    src: [Src; MAX_IO],
    dst: [*mut f32; MAX_IO],
}

impl Frame<'_> {
    /// Run the program on the group of `G` vectors at element `at`, or
    /// return false, storing nothing, when it is outside the regime.
    ///
    /// # Safety
    /// AVX2; `at + 4·G ≤ len`; `regs` points to a register file of
    /// `MAX_REGS` registers, initialised or not.
    #[inline(always)]
    unsafe fn group<const G: usize>(&self, at: usize, regs: *mut [F64x4; G]) -> bool {
        let prog = self.prog;
        let mut ok = true;
        for (r, src) in self.src[..prog.inputs].iter().enumerate() {
            match *src {
                Src::At(p) => {
                    for i in 0..G {
                        // SAFETY: `at + 4·G ≤ len`, the length of every slice.
                        let v = lane::load(p.add(at + i * LANES));
                        ok &= lane::all_abs_le(v, prog.bound);
                        (*regs.add(r))[i] = lane::import(v);
                    }
                }
                Src::Splat(v, _) => *regs.add(r) = [v; G],
            }
        }
        if !ok {
            return false;
        }
        // SAFETY (every register access below): the program passed
        // `VBuilder`'s checks, so each index is below `MAX_REGS` and each
        // register read was written first, by the binding above or by an
        // earlier instruction.
        for instr in &prog.code {
            match *instr {
                VInstr::Add { a, b, dst } => {
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::add((*regs.add(a))[i], (*regs.add(b))[i]);
                    }
                }
                VInstr::Sub { a, b, dst } => {
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::sub((*regs.add(a))[i], (*regs.add(b))[i]);
                    }
                }
                VInstr::Mul { a, b, dst } => {
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::mul((*regs.add(a))[i], (*regs.add(b))[i]);
                    }
                }
                VInstr::AddI { a, imm: c, dst } => {
                    let c = imm(c);
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::add((*regs.add(a))[i], c);
                    }
                }
                VInstr::RSubI { a, imm: c, dst } => {
                    let c = imm(c);
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::sub(c, (*regs.add(a))[i]);
                    }
                }
                VInstr::MulI { a, imm: c, dst } => {
                    let c = imm(c);
                    for i in 0..G {
                        (*regs.add(dst))[i] = lane::mul((*regs.add(a))[i], c);
                    }
                }
                VInstr::ScaleExp2 { a, k, dst } => {
                    for i in 0..G {
                        (*regs.add(dst))[i] =
                            lane::scale_exp2((*regs.add(a))[i], lane::to_i32((*regs.add(k))[i]));
                    }
                }
                // The host's IEEE divide, which the packed `divps` is lane
                // for lane.
                VInstr::HostDivI { imm: c, a, dst } => {
                    let c = lane::splat(c);
                    for i in 0..G {
                        (*regs.add(dst))[i] =
                            lane::import(_mm_div_ps(c, lane::export((*regs.add(a))[i])));
                    }
                }
                VInstr::Within { a, lo, hi } => {
                    let mut inside = true;
                    for i in 0..G {
                        inside &= lane::all_within((*regs.add(a))[i], lo.into(), hi.into());
                    }
                    if !inside {
                        return false;
                    }
                }
            }
        }
        for (&r, &p) in prog.outputs.iter().zip(&self.dst) {
            for i in 0..G {
                // SAFETY: as for the loads.
                lane::store(p.add(at + i * LANES), lane::export((*regs.add(r))[i]));
            }
        }
        true
    }

    /// The whole groups of `G` vectors from element `*at` on, each through
    /// the program or the scalar kernel; returns the elements the program
    /// ran.
    #[inline(always)]
    unsafe fn groups<const G: usize>(&self, vpu: &mut Vpu, at: &mut usize) -> u64 {
        // Not zeroed: 8 KiB per call was ≈ 10% of a 64-element drain.
        let mut file = MaybeUninit::<[[F64x4; G]; MAX_REGS]>::uninit();
        let regs = file.as_mut_ptr().cast::<[F64x4; G]>();
        let mut ran = 0;
        while *at + G * LANES <= self.len {
            let ok = self.group::<G>(*at, regs);
            if ok {
                ran += (G * LANES) as u64;
            } else {
                self.scalar(vpu, *at, *at + G * LANES);
            }
            #[cfg(test)]
            {
                let tally = if ok {
                    &route::PROGRAM_GROUPS
                } else {
                    &route::SCALAR_GROUPS
                };
                tally.set(tally.get() + 1);
            }
            *at += G * LANES;
        }
        ran
    }

    /// The program's scalar kernel on elements `lo..hi`.
    ///
    /// # Safety
    /// `hi ≤ len`.
    unsafe fn scalar(&self, vpu: &mut Vpu, lo: usize, hi: usize) {
        let (ins, outs) = (self.prog.inputs, self.prog.outputs.len());
        let (mut x, mut y) = ([0f32; MAX_IO], [0f32; MAX_IO]);
        for j in lo..hi {
            // SAFETY (reads and writes): `j < len`.
            for (x, src) in x.iter_mut().zip(&self.src[..ins]) {
                *x = match *src {
                    Src::At(p) => *p.add(j),
                    Src::Splat(_, v) => v,
                };
            }
            (self.prog.scalar)(vpu, &x[..ins], &mut y[..outs]);
            for (&p, &y) in self.dst[..outs].iter().zip(&y) {
                *p.add(j) = y;
            }
        }
    }
}

/// Run `prog` over `data`: register 0 reads `data` and the next ones
/// `binds`; the first output is stored back to `data`, the others to
/// `outs`. Completed groups are charged the program's op mix.
///
/// # Safety
/// The host has AVX2 and the caller is compiled with it.
#[inline(always)]
pub(super) unsafe fn run(
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
                Src::Splat(imm(v), v)
            }
        };
    }
    for (dst, out) in frame.dst[1..].iter_mut().zip(outs.iter_mut()) {
        assert_eq!(out.len(), len, "output length");
        *dst = out.as_mut_ptr();
    }
    let mut at = 0;
    let mut ran = 0;
    // SAFETY: every slice the frame points into holds `len` elements
    // (asserted above), and `groups` stops at the last whole group.
    if splats_ok {
        ran += frame.groups::<WIDE>(vpu, &mut at);
        ran += frame.groups::<2>(vpu, &mut at);
        ran += frame.groups::<1>(vpu, &mut at);
    }
    frame.scalar(vpu, at, len);
    vpu.count.merge(&prog.mix.times(ran));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpu::cost;
    use bfp_arith::fplanes::available;
    use proptest::prelude::*;

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
        let shifted_exp = OpCount {
            fp_add: cost::exp().fp_add + 1,
            ..cost::exp()
        };
        assert_eq!(SHIFTED_EXP.mix, shifted_exp);
        // Per element LayerNorm is the two passes plus its two sums' adds.
        let mut per_elem = CENTRE.mix;
        per_elem.merge(&AFFINE.mix);
        per_elem.fp_add += 2;
        let (row, fixed) = (cost::layernorm_row(1), cost::layernorm_row(0));
        assert_eq!(
            (per_elem.fp_mul, per_elem.fp_add),
            (row.fp_mul - fixed.fp_mul, row.fp_add - fixed.fp_add)
        );
    }

    /// The executor's groups over `n` elements: 32, then 8, then 4 each.
    fn groups(n: usize) -> u64 {
        (n / 32 + n % 32 / 8 + n % 8 / 4) as u64
    }

    /// `prog` over `data` on the executor: the output, the count and the
    /// `(program, scalar)` groups.
    fn on_lanes(prog: &VProgram, data: &[f32]) -> (Vec<f32>, OpCount, (u64, u64)) {
        #[target_feature(enable = "avx2")]
        unsafe fn exec(vpu: &mut Vpu, prog: &VProgram, data: &mut [f32]) {
            run(vpu, prog, data, &[], &mut []);
        }
        let mut vpu = Vpu::new();
        let mut out = data.to_vec();
        route::take_groups();
        // SAFETY: every caller detected AVX2.
        unsafe { exec(&mut vpu, prog, &mut out) };
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
        if !available() {
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
        let (got, count, route) = on_lanes(&exp_program(), &args);
        for (g, &x) in got.iter().zip(&args) {
            assert_eq!(g.to_bits(), vpu.exp(x).to_bits(), "exp({x:e})");
        }
        assert_eq!(count, cost::exp().times(args.len() as u64));
        assert_eq!(route, (groups(args.len()), 0), "all in range");
    }

    #[test]
    fn a_brand_new_activation_compiles_from_the_same_isa() {
        // The run-time-programmability claim: SiLU never existed when the
        // "hardware" was built, yet it compiles to the same instructions and
        // runs on the same executor. silu(x) = x / (1 + e^(−x)).
        if !available() {
            return;
        }
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
        let (got, count, route) = on_lanes(&silu, &src);
        // 61 elements: groups of 32, 3 × 8 and 4, one on the scalar kernel.
        assert_eq!(route, (groups(src.len()), 0));
        assert_eq!(groups(src.len()), 5);
        let mut vpu = Vpu::new();
        for (&g, &x) in got.iter().zip(&src) {
            let want = x as f64 / (1.0 + (-x as f64).exp());
            assert!((g as f64 - want).abs() < 2e-5, "silu({x}): {g} vs {want}");
            let mut scalar = [0f32];
            (silu.scalar)(&mut vpu, &[x], &mut scalar);
            assert_eq!(g.to_bits(), scalar[0].to_bits(), "silu({x})");
        }
        assert_eq!(count, vpu.count);
        assert_eq!(count.host_div, src.len() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn compiled_exp_matches_kernel_for_any_operands(
            xs in proptest::collection::vec(-100.0f32..100.0, 1..80)
        ) {
            if available() {
                let (got, count, _) = on_lanes(&exp_program(), &xs);
                let mut vpu = Vpu::new();
                for (g, &x) in got.iter().zip(&xs) {
                    prop_assert_eq!(g.to_bits(), vpu.exp(x).to_bits(), "exp({:e})", x);
                }
                prop_assert_eq!(count, vpu.count);
            }
        }
    }
}
