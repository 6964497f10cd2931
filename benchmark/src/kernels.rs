//! Kernel probes: each layer's public kernels timed alone, from outside,
//! at the shapes the four workloads execute (DeiT-Small: seq 197, dim
//! 384, hidden 1536, head dim 64). Single-threaded unless the metric
//! says otherwise, median of [`REPS`] calls.

use std::hint::black_box;
use std::time::Instant;

use bfp_arith::cancel::CancelToken;
use bfp_arith::fpadd::{AddVariant, HwFp32Add};
use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{EpilogueCtx, PackedBfp};
use bfp_arith::quant::Quantizer;
use bfp_arith::AbftPacked;
use bfp_core::prelude::System;
use bfp_core::{lower_vit, packed_matmul, plan_fusion, Accelerator, ParallelPolicy};
use bfp_serve::{ArrayBackend, ArrayFaultPlan, NonlinearMode, ServeOp, SimArrayBackend};
use bfp_telemetry::Tracer;
use bfp_transformer::{DeitConfig, DivisionPolicy, Vpu};

use crate::metrics::Metrics;
use crate::stats::{median, SplitMix64};
use crate::{nproc, SEQ};

pub const REPS: usize = 15;

const DIM: usize = 384;
const HIDDEN: usize = 1536;
const HEAD_DIM: usize = 64;

/// Activation-like operand: uniform in `[-scale, scale)`.
pub fn random_matrix(rows: usize, cols: usize, scale: f32, rng: &mut SplitMix64) -> MatF32 {
    MatF32::from_fn(rows, cols, |_, _| rng.symmetric(scale))
}

/// One [`SimArrayBackend`] at the operating point `Server::simulated`
/// gives each of its arrays.
fn sim_backend() -> SimArrayBackend {
    let sys = System::paper();
    let gops = sys.measured_bfp_gops(64) / sys.cfg.total_arrays().max(1) as f64;
    SimArrayBackend::new(gops, ArrayFaultPlan::None)
}

struct Probe<'a> {
    tracer: &'a Tracer,
}

impl Probe<'_> {
    /// Median seconds over [`REPS`] calls of `once`, which returns the
    /// instants around the part of it that counts; each is one span.
    fn median_of(&self, span: &str, mut once: impl FnMut() -> (Instant, Instant)) -> f64 {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let (t0, t1) = once();
                self.tracer.complete_between(span, "kernel", t0, t1);
                (t1 - t0).as_secs_f64()
            })
            .collect();
        median(&samples)
    }

    /// Median wall time of `f` in seconds.
    fn time(&self, span: &str, mut f: impl FnMut()) -> f64 {
        self.median_of(span, || {
            let t0 = Instant::now();
            f();
            (t0, Instant::now())
        })
    }
}

/// Measure every workload-independent per-layer metric.
pub fn run(seed: u64, tracer: &Tracer, out: &mut Metrics) {
    let _span = tracer.span("kernels", "kernel");
    let p = Probe { tracer };
    let mut rng = SplitMix64(seed ^ 0x6b65_726e);
    let q = Quantizer::paper();

    let x_dim = random_matrix(SEQ, DIM, 1.0, &mut rng);
    let x_hidden = random_matrix(SEQ, HIDDEN, 1.0, &mut rng);
    let w_proj = random_matrix(DIM, DIM, 0.05, &mut rng);
    let w_fc1 = random_matrix(DIM, HIDDEN, 0.05, &mut rng);
    let w_fc2 = random_matrix(HIDDEN, DIM, 0.05, &mut rng);
    let q_head = random_matrix(SEQ, HEAD_DIM, 1.0, &mut rng);
    let kt_head = random_matrix(HEAD_DIM, SEQ, 1.0, &mut rng);
    let probs = random_matrix(SEQ, SEQ, 0.01, &mut rng);
    let v_head = random_matrix(SEQ, HEAD_DIM, 1.0, &mut rng);

    // --- bfp-arith: quantize-pack ------------------------------------
    let ms = 1e3;
    let pack_lhs = |m: &MatF32| PackedBfp::quantize_pack_lhs(&q, m).expect("finite operand");
    let pack_rhs = |m: &MatF32| PackedBfp::quantize_pack_rhs(&q, m).expect("finite operand");
    let pack_lhs_dim_s = p.time("pack_lhs.197x384", || drop(black_box(pack_lhs(&x_dim))));
    out.set("arith.packed.pack_lhs_ms.197x384", pack_lhs_dim_s * ms);
    let t = p.time("pack_lhs.197x1536", || drop(black_box(pack_lhs(&x_hidden))));
    out.set("arith.packed.pack_lhs_ms.197x1536", t * ms);
    let pack_rhs_proj_s = p.time("pack_rhs.384x384", || drop(black_box(pack_rhs(&w_proj))));
    out.set("arith.packed.pack_rhs_ms.384x384", pack_rhs_proj_s * ms);
    let t = p.time("pack_rhs.384x1536", || drop(black_box(pack_rhs(&w_fc1))));
    out.set("arith.packed.pack_rhs_ms.384x1536", t * ms);

    // --- bfp-arith: packed GEMM and fused drains ----------------------
    let gemm = |name: &str, a: &PackedBfp, b: &PackedBfp| {
        p.time(name, || {
            drop(black_box(a.matmul(b).expect("compatible operands")))
        })
    };
    let (pa_dim, pa_hidden) = (pack_lhs(&x_dim), pack_lhs(&x_hidden));
    let (pb_proj, pb_fc1, pb_fc2) = (pack_rhs(&w_proj), pack_rhs(&w_fc1), pack_rhs(&w_fc2));
    let gemm_proj_s = gemm("gemm.197x384x384", &pa_dim, &pb_proj);
    out.set("arith.packed.gemm_ms.197x384x384", gemm_proj_s * ms);
    let gemm_fc1_s = gemm("gemm.197x384x1536", &pa_dim, &pb_fc1);
    out.set("arith.packed.gemm_ms.197x384x1536", gemm_fc1_s * ms);
    out.set(
        "arith.packed.gemm_gflop_eq_s",
        2.0 * (SEQ * DIM * HIDDEN) as f64 / gemm_fc1_s / 1e9,
    );
    let t = gemm("gemm.197x1536x384", &pa_hidden, &pb_fc2);
    out.set("arith.packed.gemm_ms.197x1536x384", t * ms);
    let t = gemm("gemm.197x64x197", &pack_lhs(&q_head), &pack_rhs(&kt_head));
    out.set("arith.packed.gemm_ms.197x64x197", t * ms);
    let t = gemm("gemm.197x197x64", &pack_lhs(&probs), &pack_rhs(&v_head));
    out.set("arith.packed.gemm_ms.197x197x64", t * ms);

    // The drains the engine fuses into the GEMM, rebuilt from the same
    // public pieces: bias add, then GELU on the hot tile, or bias plus
    // residual.
    let bias_fc1: Vec<f32> = (0..HIDDEN).map(|_| rng.symmetric(0.02)).collect();
    let bias_fc2: Vec<f32> = (0..DIM).map(|_| rng.symmetric(0.02)).collect();
    let add_bias = |tile: &mut [f32], ctx: &EpilogueCtx, bias: &[f32]| {
        for i in 0..ctx.imax {
            for (j, v) in tile[i * ctx.b..][..ctx.jmax].iter_mut().enumerate() {
                *v += bias[ctx.c0 + j];
            }
        }
    };
    for (mode, name) in [
        (
            NonlinearMode::Fast,
            "arith.packed.fused_drain_ms.fc1_gelu_fast",
        ),
        (
            NonlinearMode::Exact,
            "arith.packed.fused_drain_ms.fc1_gelu_exact",
        ),
    ] {
        let mut vpu = Vpu::new();
        let t = p.time(&format!("fused_drain.fc1_gelu_{}", mode.as_str()), || {
            let y = pa_dim.matmul_epilogue(&pb_fc1, |tile, ctx| {
                add_bias(tile, ctx, &bias_fc1);
                for i in 0..ctx.imax {
                    vpu.gelu_slice(
                        &mut tile[i * ctx.b..][..ctx.jmax],
                        DivisionPolicy::Host,
                        mode,
                    );
                }
            });
            drop(black_box(y.expect("compatible operands")));
        });
        out.set(name, t * ms);
    }
    let t = p.time("fused_drain.fc2_residual", || {
        let y = pa_hidden.matmul_epilogue(&pb_fc2, |tile, ctx| {
            add_bias(tile, ctx, &bias_fc2);
            for i in 0..ctx.imax {
                for (j, v) in tile[i * ctx.b..][..ctx.jmax].iter_mut().enumerate() {
                    *v += x_dim.get(ctx.r0 + i, ctx.c0 + j);
                }
            }
        });
        drop(black_box(y.expect("compatible operands")));
    });
    out.set("arith.packed.fused_drain_ms.fc2_residual", t * ms);

    // --- bfp-arith: checksum-protected (ABFT) path --------------------
    let abft_pack_s = p.time("abft.pack.197x384x384", || {
        black_box(AbftPacked::quantize_pack_lhs(&q, &x_dim).expect("finite operand"));
        black_box(AbftPacked::quantize_pack_rhs(&q, &w_proj).expect("finite operand"));
    });
    out.set("arith.abft.pack_ms.197x384x384", abft_pack_s * ms);
    let abft_a = AbftPacked::quantize_pack_lhs(&q, &x_dim).expect("finite operand");
    let abft_b = AbftPacked::quantize_pack_rhs(&q, &w_proj).expect("finite operand");
    let abft_gemm_s = p.time("abft.gemm.197x384x384", || {
        let (y, report) = abft_a.matmul(&abft_b).expect("compatible operands");
        assert!(report.clean(), "ABFT flagged a fault-free GEMM");
        drop(black_box(y));
    });
    out.set("arith.abft.gemm_ms.197x384x384", abft_gemm_s * ms);
    out.set(
        "arith.abft.overhead_ratio",
        (abft_pack_s + abft_gemm_s) / (pack_lhs_dim_s + pack_rhs_proj_s + gemm_proj_s),
    );

    // --- bfp-arith: the emulated hardware fp32 multiplier and adder ---
    const SCALAR_OPS: usize = 1 << 17;
    let operands: Vec<f32> = (0..SCALAR_OPS + 1).map(|_| rng.symmetric(4.0)).collect();
    let mul = HwFp32Mul::new(MulVariant::DropLsp);
    let t = p.time("fp32.mul", || {
        let mut acc = 0.0f32;
        for w in operands.windows(2) {
            acc += mul.mul(black_box(w[0]), w[1]);
        }
        black_box(acc);
    });
    out.set("arith.fp32.mul_ns", t * 1e9 / SCALAR_OPS as f64);
    let add = HwFp32Add::new(AddVariant::Exact48);
    let t = p.time("fp32.add", || {
        let mut acc = 0.0f32;
        for w in operands.windows(2) {
            acc += add.add(black_box(w[0]), w[1]);
        }
        black_box(acc);
    });
    out.set("arith.fp32.add_ns", t * 1e9 / SCALAR_OPS as f64);

    // --- bfp-transformer: VPU kernels, exact emulation against fast ---
    let scores = random_matrix(SEQ, SEQ, 4.0, &mut rng);
    let pre_gelu = random_matrix(SEQ, HIDDEN, 3.0, &mut rng);
    let gamma: Vec<f32> = (0..DIM).map(|_| 1.0 + rng.symmetric(0.1)).collect();
    let beta: Vec<f32> = (0..DIM).map(|_| rng.symmetric(0.1)).collect();
    for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
        let mut vpu = Vpu::new();
        let tag = mode.as_str();
        // Each call gets a fresh copy made outside the timed region.
        let mut time_on_copy =
            |span: String, src: &MatF32, f: &mut dyn FnMut(&mut Vpu, &mut [f32])| {
                let s = p.median_of(&span, || {
                    let mut m = src.clone();
                    let t0 = Instant::now();
                    f(&mut vpu, m.data_mut());
                    let t1 = Instant::now();
                    black_box(m);
                    (t0, t1)
                });
                s * 1e9 / (src.rows() * src.cols()) as f64
            };
        let ns = time_on_copy(format!("vpu.softmax.{tag}"), &scores, &mut |vpu, d| {
            vpu.softmax_rows_batch(d, SEQ, DivisionPolicy::Host, mode)
        });
        out.set(&format!("transformer.vpu.softmax_ns_elem.{tag}"), ns);
        let ns = time_on_copy(format!("vpu.gelu.{tag}"), &pre_gelu, &mut |vpu, d| {
            vpu.gelu_slice(d, DivisionPolicy::Host, mode)
        });
        out.set(&format!("transformer.vpu.gelu_ns_elem.{tag}"), ns);
        let ns = time_on_copy(format!("vpu.layernorm.{tag}"), &x_dim, &mut |vpu, d| {
            vpu.layernorm_rows_batch(d, DIM, &gamma, &beta, 1e-6, DivisionPolicy::Host, mode)
        });
        out.set(&format!("transformer.vpu.layernorm_ns_elem.{tag}"), ns);
    }

    // --- bfp-core: planner, threaded GEMM, cycle simulator ------------
    let vit = DeitConfig::deit_small().vit;
    let sys = System::paper();
    let t = p.time("planner.plan", || {
        let graph = lower_vit(&vit);
        let plan = plan_fusion(&graph, &sys);
        black_box(plan.compiled_vit_plan(&graph, &sys));
    });
    out.set("core.planner.plan_ms", t * ms);
    let timing = plan_fusion(&lower_vit(&vit), &sys).timing;
    out.set("core.planner.cycles.unfused", timing.unfused_cycles);
    out.set("core.planner.cycles.fused", timing.fused_cycles);
    out.set(
        "core.planner.cycles.double_buffered",
        timing.double_buffered_cycles,
    );

    let threaded = |policy| {
        p.time("fastgemm.197x384x1536", || {
            drop(black_box(
                packed_matmul(&pa_dim, &pb_fc1, policy).expect("compatible operands"),
            ))
        })
    };
    let serial_s = threaded(ParallelPolicy::Serial);
    let sharded_s = threaded(ParallelPolicy::Threads(nproc()));
    out.set(
        "core.fastgemm.speedup_nproc.197x384x1536",
        serial_s / sharded_s,
    );

    let acc = Accelerator::u280();
    let a64 = random_matrix(64, 64, 1.0, &mut rng);
    let b64 = random_matrix(64, 64, 1.0, &mut rng);
    let mut cycles = Vec::new();
    let t = p.time("pu.sim.64x64x64", || {
        let (_, report) = acc.try_gemm(&a64, &b64).expect("finite operands");
        cycles.push(report.stats.critical_cycles());
    });
    assert!(
        cycles.iter().all(|c| *c == cycles[0]),
        "simulated cycles differ between calls"
    );
    out.set("pu.sim.cycles.64x64x64", cycles[0]);
    out.set("pu.sim.cycles_per_host_s", cycles[0] / t);

    // --- bfp-serve: one array's backend, closed loop ------------------
    let mut backend = sim_backend();
    for (name, b, op, mode) in [
        ("proj_gemm", &w_proj, ServeOp::Gemm, NonlinearMode::Exact),
        (
            "proj_gelu_exact",
            &w_proj,
            ServeOp::GemmGelu,
            NonlinearMode::Exact,
        ),
        (
            "proj_gelu_fast",
            &w_proj,
            ServeOp::GemmGelu,
            NonlinearMode::Fast,
        ),
        (
            "fc1_gelu_exact",
            &w_fc1,
            ServeOp::GemmGelu,
            NonlinearMode::Exact,
        ),
    ] {
        let t = p.time(&format!("backend.execute.{name}"), || {
            let (y, tel) = backend
                .execute(&x_dim, b, op, mode, &CancelToken::new())
                .expect("fault-free execution");
            assert_eq!(
                tel.faults.detected, 0,
                "fault-free backend reported a fault"
            );
            drop(black_box(y));
        });
        out.set(&format!("serve.backend.execute_ms.{name}"), t * ms);
    }
}
