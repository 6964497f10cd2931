//! The execution surface the runtime schedules onto: one backend per
//! array, plus the simulated implementation with scripted per-array
//! fault injection.
//!
//! Why not the hook-based injector in `bfp-faults`? Its session is
//! process-global (one plan for every thread), so it cannot model "array
//! 3 is failing while arrays 0–2 are clean" under the fleet's concurrent
//! workers. The serving runtime instead scripts faults *per backend*,
//! through the ABFT kernel's tamper seam ([`bfp_arith::AbftOptions`]):
//! an [`ArrayFaultPlan`] decides whether an execution is corrupted, the
//! checksum invariant detects the corruption, and the report says
//! whether the kernel could repair it in place. An execution with
//! *uncorrected* detections must be discarded; a corrected one is
//! bit-exact and servable, but still flags the array for the health
//! state machine. That split is what makes the zero-wrong-bit guarantee
//! structural rather than probabilistic — nothing suspect is ever
//! answered, and nothing detected escapes the strike accounting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bfp_arith::cancel::CancelToken;
use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::EpilogueCtx;
use bfp_arith::quant::Quantizer;
use bfp_arith::{AbftOptions, AbftPacked};
use bfp_core::op_mix;
use bfp_core::prelude::{DivisionPolicy, Engine, MixedEngine, NonlinearMode, Vpu};
use bfp_core::resilient::abft_fault_report;
use bfp_faults::FaultReport;
use bfp_platform::nonlinear::NonlinearUnit;

/// What one request asks an array to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeOp {
    /// The bare bfp8 GEMM (`a × b`).
    #[default]
    Gemm,
    /// The fused serving shape: bfp8 GEMM with a GELU epilogue on the
    /// VPU. This is the op the brownout ladder degrades — at tier ≥ 1
    /// the epilogue runs the fast LUT/polynomial kernels instead of the
    /// bit-exact emulated datapath.
    GemmGelu,
}

impl ServeOp {
    /// Stable lowercase label for telemetry and bench reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ServeOp::Gemm => "gemm",
            ServeOp::GemmGelu => "gemm_gelu",
        }
    }
}

/// What one execution reports back besides its output.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Fault events during this execution. `detected > 0` means the
    /// array misbehaved (health strike); the output must be discarded
    /// only when `faults.uncorrected_detections() > 0` — ABFT-corrected
    /// chains are bit-exact.
    pub faults: FaultReport,
    /// Modelled array-occupancy seconds at the calibrated operating
    /// point (independent of host scheduling noise).
    pub modelled_s: f64,
}

/// One array's execution engine. `execute` runs `op` under a
/// cancel/deadline token, with nonlinear epilogues in `mode`;
/// implementations must *flag* corrupted outputs via `Telemetry::faults`
/// (`detected`, and `abft_corrections` for repairs) rather than
/// silently returning them, and must be bit-exact for the mode they ran
/// in (see [`reference_bits`]).
pub trait ArrayBackend: Send {
    /// Execute `op` over `a × b`, honouring `cancel` between phases.
    fn execute(
        &mut self,
        a: &MatF32,
        b: &MatF32,
        op: ServeOp,
        mode: NonlinearMode,
        cancel: &CancelToken,
    ) -> Result<(MatF32, Telemetry), ArithError>;
}

/// The expected bits of a fault-free execution of `op` in `mode`: the
/// quantized bfp8 GEMM, plus (for [`ServeOp::GemmGelu`]) the engine's
/// GELU in the given nonlinear mode. This is the oracle the serving
/// tests and benches compare completed responses against — "bit-exact
/// for the mode it ran in" means equal to *this*, bit for bit.
pub fn reference_bits(a: &MatF32, b: &MatF32, op: ServeOp, mode: NonlinearMode) -> MatF32 {
    let q = Quantizer::paper();
    let mut out = q
        .quantize(a)
        .expect("reference operand quantizes")
        .try_matmul(&q.quantize(b).expect("reference operand quantizes"))
        .expect("reference GEMM executes");
    if op == ServeOp::GemmGelu {
        MixedEngine::new()
            .with_nonlinear(mode)
            .with_threads(1)
            .gelu(&mut out);
    }
    out
}

/// Scripted per-array fault behaviour for [`SimArrayBackend`].
///
/// The two fault shapes map onto ABFT's correction boundary: a
/// [`ArrayFaultPlan::Transient`] upset perturbs a single accumulator
/// element (an SEU the checksums localize and repair in place), while a
/// [`ArrayFaultPlan::Latched`] defect smears across several rows and
/// columns of the chain (a persistent datapath fault the row×column
/// intersection cannot disentangle — detected, never corrected).
#[derive(Debug, Clone, Default)]
pub enum ArrayFaultPlan {
    /// Fault-free array.
    #[default]
    None,
    /// Latched defect: every execution faults while the flag is `true`.
    /// Clearing the flag models a repair (e.g. partial reconfiguration),
    /// after which quarantine probes start passing.
    Latched(Arc<AtomicBool>),
    /// Transient burst: the next `n` executions fault, then the array
    /// is clean again.
    Transient(Arc<AtomicU64>),
}

impl ArrayFaultPlan {
    /// A latched plan plus the shared switch that heals it.
    pub fn latched() -> (Self, Arc<AtomicBool>) {
        let flag = Arc::new(AtomicBool::new(true));
        (ArrayFaultPlan::Latched(flag.clone()), flag)
    }

    /// A transient plan faulting the next `n` executions.
    pub fn transient(n: u64) -> Self {
        ArrayFaultPlan::Transient(Arc::new(AtomicU64::new(n)))
    }

    /// Whether the next execution faults (consumes one transient credit).
    fn fires(&self) -> bool {
        match self {
            ArrayFaultPlan::None => false,
            ArrayFaultPlan::Latched(flag) => flag.load(Ordering::Relaxed),
            ArrayFaultPlan::Transient(left) => left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok(),
        }
    }
}

/// Simulated array: the packed bfp8 fast path (bit-identical to the
/// cycle simulator) plus scripted fault injection, a fused VPU drain
/// for nonlinear epilogues, and a modelled occupancy clock.
pub struct SimArrayBackend {
    quantizer: Quantizer,
    /// Sustained GEMM throughput of this single array, GOPS.
    gops: f64,
    plan: ArrayFaultPlan,
    /// Nonlinear-unit pricing for the epilogue's modelled seconds.
    vpu_unit: NonlinearUnit,
}

impl SimArrayBackend {
    /// Build an array running the paper's quantizer at `gops` sustained
    /// throughput, under `plan`.
    pub fn new(gops: f64, plan: ArrayFaultPlan) -> Self {
        SimArrayBackend {
            quantizer: Quantizer::paper(),
            gops,
            plan,
            vpu_unit: NonlinearUnit::recommended(),
        }
    }
}

impl ArrayBackend for SimArrayBackend {
    fn execute(
        &mut self,
        a: &MatF32,
        b: &MatF32,
        op: ServeOp,
        mode: NonlinearMode,
        cancel: &CancelToken,
    ) -> Result<(MatF32, Telemetry), ArithError> {
        cancel.check()?;
        let pa = AbftPacked::quantize_pack_lhs(&self.quantizer, a)?;
        let pb = AbftPacked::quantize_pack_rhs(&self.quantizer, b)?;
        cancel.check()?;

        let fire = self.plan.fires();
        let latched = matches!(self.plan, ArrayFaultPlan::Latched(_));
        // Scripted corruption of the first output chain's accumulator,
        // applied between accumulation and the committed-value verify —
        // exactly where a real upset in the PSU bank would land.
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if !fire || (bi, bj) != (0, 0) || acc.len() < 19 {
                return 0;
            }
            if latched {
                // Persistent datapath defect: three elements across
                // distinct rows and columns — uncorrectable by design.
                acc[0] += 1 << 12;
                acc[9] += 1 << 13;
                acc[18] += 1 << 14;
                3
            } else {
                // Single-event upset: one accumulator bit, localized by
                // the row×column intersection and repaired in place.
                acc[0] ^= 1 << 12;
                1
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        // The GELU epilogue runs fused at the GEMM drain: each
        // verified-clean output chain passes through the VPU while the
        // tile is hot instead of being materialised and re-read. GELU is
        // element-independent and the VPU kernel has no cross-tile
        // state, so the bits equal the composed GEMM→GELU pass
        // ([`reference_bits`]) exactly; chains with uncorrected
        // detections keep their raw GEMM bits, which the runtime
        // discards anyway.
        let mut vpu = Vpu::new();
        let (out, r) = if op == ServeOp::GemmGelu {
            let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                vpu.gelu_tile(tile, ctx, DivisionPolicy::Host, mode)
            };
            pa.matmul_with_epilogue(&pb, &mut opts, &mut epi)?
        } else {
            pa.matmul_with(&pb, &mut opts)?
        };
        cancel.check()?;

        let macs = a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
        let mut modelled_s = if self.gops > 0.0 {
            2.0 * macs as f64 / (self.gops * 1e9)
        } else {
            0.0
        };

        // Epilogue occupancy is only billed for servable outputs — an
        // execution with uncorrected detections is discarded by the
        // runtime, so its drain work is written off, exactly as the
        // composed path skipped the VPU pass entirely.
        let faults = abft_fault_report(&r);
        if op == ServeOp::GemmGelu && faults.uncorrected_detections() == 0 {
            modelled_s += self.vpu_unit.cycles(&op_mix(&vpu.count)) / self.vpu_unit.freq_hz;
        }
        Ok((out, Telemetry { faults, modelled_s }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_transformer::vpu::fast::Unit;
    use bfp_transformer::Datapath;

    fn mats() -> (MatF32, MatF32) {
        let a = MatF32::from_fn(16, 16, |i, j| ((i * 7 + j * 5) % 3) as f32 - 1.0);
        let b = MatF32::from_fn(16, 16, |i, j| ((i * 3 + j * 11) % 3) as f32 - 1.0);
        (a, b)
    }

    #[test]
    fn clean_backend_matches_reference_bits() {
        let (a, b) = mats();
        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        let (out, t) = be
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        let q = Quantizer::paper();
        let want = q
            .quantize(&a)
            .unwrap()
            .try_matmul(&q.quantize(&b).unwrap())
            .unwrap();
        assert_eq!(out, want);
        assert!(t.faults.is_clean());
        assert!(t.modelled_s > 0.0);
    }

    #[test]
    fn latched_plan_always_flags_until_healed() {
        let (a, b) = mats();
        let (plan, heal) = ArrayFaultPlan::latched();
        let mut be = SimArrayBackend::new(100.0, plan);
        for _ in 0..3 {
            let (_, t) = be
                .execute(
                    &a,
                    &b,
                    ServeOp::Gemm,
                    NonlinearMode::Exact,
                    &CancelToken::new(),
                )
                .unwrap();
            assert_eq!(t.faults.detected, 1, "latched faults are always flagged");
        }
        heal.store(false, Ordering::Relaxed);
        let (out, t) = be
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        assert!(t.faults.is_clean());
        let mut clean = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        let (want, _) = clean
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(out, want, "healed array is bit-clean again");
    }

    #[test]
    fn transient_plan_faults_exactly_n_times() {
        let (a, b) = mats();
        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::transient(2));
        let mut flagged = 0;
        for _ in 0..5 {
            let (_, t) = be
                .execute(
                    &a,
                    &b,
                    ServeOp::Gemm,
                    NonlinearMode::Exact,
                    &CancelToken::new(),
                )
                .unwrap();
            flagged += t.faults.detected;
        }
        assert_eq!(flagged, 2);
    }

    #[test]
    fn transient_upsets_are_corrected_bit_exact() {
        let (a, b) = mats();
        let mut clean = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        let (want, _) = clean
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();

        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::transient(1));
        let (out, t) = be
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(t.faults.detected, 1, "the upset is flagged");
        assert_eq!(t.faults.abft_corrections, 1, "and repaired in place");
        assert_eq!(
            t.faults.uncorrected_detections(),
            0,
            "a corrected output is servable"
        );
        assert_eq!(out, want, "correction restores the exact bits");
    }

    #[test]
    fn latched_defects_stay_uncorrected() {
        let (a, b) = mats();
        let (plan, _heal) = ArrayFaultPlan::latched();
        let mut be = SimArrayBackend::new(100.0, plan);
        let (_, t) = be
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(t.faults.detected, 1);
        assert_eq!(t.faults.abft_corrections, 0, "multi-element smear");
        assert!(
            t.faults.uncorrected_detections() > 0,
            "the runtime must discard this output"
        );
    }

    #[test]
    fn gelu_epilogue_is_bit_exact_for_the_mode_it_ran_in() {
        let (a, b) = mats();
        // A ragged pair too: its right-edge strips take the epilogue's
        // per-row arm, the rest one call per strip.
        let ragged = (
            MatF32::from_fn(13, 16, |i, j| ((i * 7 + j * 5) % 5) as f32 - 2.0),
            MatF32::from_fn(16, 11, |i, j| ((i * 3 + j * 11) % 7) as f32 * 0.25 - 0.75),
        );
        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            for (a, b) in [(&a, &b), (&ragged.0, &ragged.1)] {
                let (out, t) = be
                    .execute(a, b, ServeOp::GemmGelu, mode, &CancelToken::new())
                    .unwrap();
                let want = reference_bits(a, b, ServeOp::GemmGelu, mode);
                assert_eq!(out, want, "mode {mode:?}");
                assert!(t.faults.is_clean());
                if mode == NonlinearMode::Fast {
                    // An oracle that shares no code with the batched fast
                    // route (AVX2 lanes where the host has them): the plain
                    // GEMM bits through the scalar kernel, one at a time.
                    let mut scalar = reference_bits(a, b, ServeOp::Gemm, mode);
                    for v in scalar.data_mut() {
                        *v = Unit.gelu(*v);
                    }
                    assert_eq!(out, scalar, "fast drain vs the scalar kernel");
                }
                // Tile order prices exactly like one pass over the matrix.
                let (_, gemm) = be
                    .execute(a, b, ServeOp::Gemm, mode, &CancelToken::new())
                    .unwrap();
                let mut vpu = Vpu::new();
                let mut whole = reference_bits(a, b, ServeOp::Gemm, mode);
                vpu.gelu_slice(whole.data_mut(), DivisionPolicy::Host, mode);
                let drain_s = be.vpu_unit.cycles(&op_mix(&vpu.count)) / be.vpu_unit.freq_hz;
                assert_eq!(t.modelled_s, gemm.modelled_s + drain_s, "mode {mode:?}");
            }
        }
        // The two modes really are different computations on these bits.
        let exact = reference_bits(&a, &b, ServeOp::GemmGelu, NonlinearMode::Exact);
        let fast = reference_bits(&a, &b, ServeOp::GemmGelu, NonlinearMode::Fast);
        assert_ne!(exact, fast, "fast GELU is a distinct (cheaper) kernel");
    }

    #[test]
    fn fast_epilogue_prices_below_exact() {
        let (a, b) = mats();
        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        let (_, gemm) = be
            .execute(
                &a,
                &b,
                ServeOp::Gemm,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        let (_, exact) = be
            .execute(
                &a,
                &b,
                ServeOp::GemmGelu,
                NonlinearMode::Exact,
                &CancelToken::new(),
            )
            .unwrap();
        let (_, fast) = be
            .execute(
                &a,
                &b,
                ServeOp::GemmGelu,
                NonlinearMode::Fast,
                &CancelToken::new(),
            )
            .unwrap();
        assert!(
            exact.modelled_s > gemm.modelled_s,
            "the epilogue costs time"
        );
        assert!(fast.modelled_s > gemm.modelled_s);
        assert!(
            fast.modelled_s < exact.modelled_s,
            "fast mode must shrink the epilogue: {} vs {}",
            fast.modelled_s,
            exact.modelled_s
        );
    }

    #[test]
    fn cancelled_token_aborts_execution() {
        let (a, b) = mats();
        let mut be = SimArrayBackend::new(100.0, ArrayFaultPlan::None);
        let token = CancelToken::new();
        token.cancel();
        let err = be
            .execute(&a, &b, ServeOp::Gemm, NonlinearMode::Exact, &token)
            .unwrap_err();
        assert_eq!(err, ArithError::Cancelled { expired: false });
    }
}
