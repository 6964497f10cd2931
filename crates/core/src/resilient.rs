//! Graceful degradation: execute GEMMs one output block-row at a time on
//! the checksum-protected kernel, with capped-backoff retry and per-row
//! fp32 fallback.
//!
//! The pipeline mirrors what a radiation-tolerant deployment of the card
//! would do in firmware:
//!
//! 1. **Verify** — every block-row runs on the checked packed kernel
//!    ([`bfp_arith::AbftPacked`]): each output chain carries an exact
//!    row/column checksum invariant, so any numeric corruption —
//!    including silent DSP/PSU upsets with no ECC coverage — is detected
//!    at chain granularity, and single-element faults are *corrected
//!    algebraically in place* without re-execution.
//! 2. **Detect** — after each output block-row, read the delta of the
//!    hardware protection counters (ECC/TMR uncorrected events are
//!    hardware-visible, and some — a shared-exponent double-bit upset —
//!    move data and checksums together) and reject non-finite outputs.
//! 3. **Retry** — a detected-but-uncorrected block-row is re-executed
//!    after a capped exponential backoff (transient upsets de-assert;
//!    `nth`-triggered plan entries have already fired, so replays are
//!    clean).
//! 4. **Fall back** — a block-row that stays faulty across all retries
//!    (a persistent defect: stuck lane, latched BRAM cell) is recomputed
//!    in fp32 on the vector path, and the degradation is counted.
//!
//! Every action is accounted in a [`FaultReport`], which callers surface
//! through [`crate::GemmReport`] / `SystemStats`. [`abft_fault_report`]
//! is the one place a checksum report becomes fault accounting; the
//! serving backend uses it too.

use bfp_arith::abft::{AbftOptions, AbftPacked, AbftReport};
use bfp_arith::cancel::CancelToken;
use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_faults::{FaultCounters, FaultReport};
use bfp_pu::CycleStats;

/// How hard the recovery layer tries before degrading precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Re-executions allowed per block-row after a detected fault.
    pub max_retries: u32,
    /// Backoff before the first retry, in cycles.
    pub backoff_base_cycles: u64,
    /// Ceiling for the exponential backoff, in cycles.
    pub backoff_cap_cycles: u64,
    /// Recompute irrecoverable block-rows (and unquantizable layers) in
    /// fp32 instead of returning an error.
    pub fp32_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base_cycles: 32,
            backoff_cap_cycles: 256,
            fp32_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery: the checksums still verify and repair in place, but a
    /// fault they cannot repair is immediately a typed error — no retry,
    /// no fp32 fallback.
    pub fn strict() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            fp32_fallback: false,
            ..Self::default()
        }
    }

    /// Backoff before retry number `attempt` (zero-based), capped.
    ///
    /// `base << attempt` is computed with explicit saturation: a shift
    /// that would push any set bit out of the u64 yields `u64::MAX` (then
    /// the cap), never a silently wrapped small value — a wrapped backoff
    /// of 0 cycles would turn a capped retry loop into a hot spin.
    pub fn backoff(&self, attempt: u32) -> u64 {
        if self.backoff_base_cycles == 0 {
            // 0 << n is 0 for every n; without this case the saturation
            // guard below would misreport u64::MAX for large attempts.
            return 0;
        }
        // The top set bit of `base` sits at 63 - leading_zeros; shifting
        // by more than leading_zeros loses bits, so saturate there.
        let shifted = if attempt > self.backoff_base_cycles.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base_cycles << attempt
        };
        shifted.min(self.backoff_cap_cycles)
    }
}

/// Outcome of a resilient GEMM: the (possibly partially degraded) result
/// plus everything that happened along the way.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The output matrix. Block-rows that fell back are fp32-exact;
    /// healthy ones are the usual dequantized bfp8 product.
    pub out: MatF32,
    /// Fault and recovery accounting for the whole GEMM.
    pub report: FaultReport,
    /// Modelled cycle statistics across all block-row executions
    /// (retries included — recovery work costs real cycles).
    pub stats: CycleStats,
}

/// How one checked-kernel report counts as faults: every invariant
/// mismatch is a detection, in-place repairs are ABFT corrections —
/// distinct from `fp32_fallbacks`, because a corrected chain never left
/// the bfp8 path — and elements perturbed through the kernel's tamper
/// seam are injected events.
pub fn abft_fault_report(r: &AbftReport) -> FaultReport {
    FaultReport {
        counters: FaultCounters {
            injected: r.tampered,
            ..FaultCounters::default()
        },
        detected: r.detections,
        abft_detections: r.detections,
        abft_corrections: r.corrections(),
        ..FaultReport::default()
    }
}

/// Execute `a × b` in bfp8 with the full verify → detect → retry →
/// fall-back pipeline, one output block-row at a time.
///
/// Returns a typed error only when recovery is disabled by `policy` (or
/// for dimension mismatches, which no amount of retrying fixes).
pub fn resilient_matmul(
    a: &MatF32,
    b: &MatF32,
    quantizer: &Quantizer,
    policy: &RecoveryPolicy,
) -> Result<ResilientOutcome, ArithError> {
    resilient_matmul_with(a, b, quantizer, policy, &CancelToken::new())
}

/// [`resilient_matmul`] with a cooperative cancel/deadline token.
///
/// The token is polled at every block-row boundary and before every
/// backoff retry — the executor's natural preemption points — so a
/// serving runtime can revoke a GEMM whose deadline has passed (or whose
/// array is being drained for quarantine) without waiting for the whole
/// product. A fired token surfaces as [`ArithError::Cancelled`]; rows
/// already committed are discarded with the partial output.
pub fn resilient_matmul_with(
    a: &MatF32,
    b: &MatF32,
    quantizer: &Quantizer,
    policy: &RecoveryPolicy,
    cancel: &CancelToken,
) -> Result<ResilientOutcome, ArithError> {
    if a.cols() != b.rows() {
        return Err(ArithError::DimensionMismatch {
            got: format!("lhs {}x{}, rhs {}x{}", a.rows(), a.cols(), b.rows(), b.cols()),
            expected: "lhs cols == rhs rows".into(),
        });
    }

    // Layer-level degradation: operands the quantizer rejects (non-finite
    // values) can never run on the bfp8 path, so the whole layer falls
    // back to fp32 — the same policy `MixedEngine` applies.
    let packed = AbftPacked::quantize_pack_lhs(quantizer, a)
        .and_then(|pa| Ok((pa, AbftPacked::quantize_pack_rhs(quantizer, b)?)));
    let (pa, pb) = match packed {
        Ok(p) => p,
        Err(err) if !policy.fp32_fallback => return Err(err),
        Err(_) => {
            let report = FaultReport {
                detected: 1,
                fp32_fallbacks: 1,
                ..FaultReport::default()
            };
            let stats = CycleStats::default();
            return Ok(ResilientOutcome {
                out: a.matmul(b),
                report,
                stats,
            });
        }
    };

    let blk = pa.packed().block();
    let (mb, _) = pa.packed().grid();
    let (k, n) = (a.cols(), b.cols());
    let mut report = FaultReport::default();
    let mut out = MatF32::zeros(a.rows(), n);
    let mut stats = CycleStats::default();
    let mem = bfp_platform::MemParams::paper_calibrated();

    for bi in 0..mb {
        cancel.check()?;
        let r0 = bi * blk;
        let r1 = ((bi + 1) * blk).min(a.rows());
        let mut attempt = 0u32;
        loop {
            let buf = &mut out.data_mut()[r0 * n..r1 * n];
            let before = bfp_faults::counters();
            let r = pa.matmul_rows_into(&pb, bi, bi + 1, buf, &mut AbftOptions::default());
            let delta = bfp_faults::counters() - before;
            report.counters.merge(&delta);
            report.merge(&abft_fault_report(&r));
            let hw_uncorrected = delta.uncorrected() > 0;
            if hw_uncorrected && r.detections == 0 {
                // Hardware flagged an event the checksums cannot see
                // (e.g. a shared-exponent double-bit upset perturbs data
                // and checksum paths consistently): still a detection.
                report.detected += 1;
            }

            // Modelled cost of this strip: the plain Eqn. 9 pass plus the
            // checksum-maintenance overhead, prorated to one block-row.
            let strip = crate::scheduler::gemm_cycles_one_array(r1 - r0, k, n, &mem)
                + crate::scheduler::abft_overhead_cycles(r1 - r0, k, n);
            stats.cycles += strip.ceil() as u64;
            stats.bfp_ops += 2 * ((r1 - r0) * k * n) as u64;

            let faulty =
                !r.uncorrected.is_empty() || hw_uncorrected || !buf.iter().all(|v| v.is_finite());
            if !faulty {
                break;
            }

            if attempt < policy.max_retries {
                // A retry burns backoff cycles; don't start one the
                // deadline can no longer afford.
                cancel.check()?;
                report.retries += 1;
                report.backoff_cycles += policy.backoff(attempt);
                attempt += 1;
                continue;
            }

            // Retries exhausted: persistent defect. Degrade this
            // block-row to fp32 on the vector path.
            if !policy.fp32_fallback {
                return Err(ArithError::UncorrectedFault { block_row: bi });
            }
            report.fp32_fallbacks += 1;
            let rows = MatF32::from_vec(r1 - r0, k, a.data()[r0 * k..r1 * k].to_vec());
            buf.copy_from_slice(rows.matmul(b).data());
            break;
        }
    }

    Ok(ResilientOutcome { out, report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_pu::unit::{grid_from_matrix, Fidelity, ProcessingUnit, UnitConfig};

    fn ramp(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| ((i * cols + j) % 13) as f32 - 6.0)
    }

    #[test]
    fn clean_run_matches_plain_quantized_matmul() {
        let a = ramp(24, 16);
        let b = ramp(16, 24);
        let q = Quantizer::paper();
        let got = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
        assert!(got.report.is_clean(), "{}", got.report);
        assert_eq!(got.out, a.matmul(&b), "exact integer inputs stay exact");
        assert!(got.stats.cycles > 0);
    }

    #[test]
    fn ladder_matches_the_stepped_cycle_simulator_bitwise() {
        // Non-integer operands on a ragged shape, so every block carries
        // a real shared exponent and the alignment chain truncates.
        let a = MatF32::from_fn(21, 40, |i, j| ((i * 7 + j * 3) as f32 * 0.37).sin() * 2.5);
        let b = MatF32::from_fn(40, 19, |i, j| ((i * 5 + j * 11) as f32 * 0.23).cos() * 0.8);
        let q = Quantizer::paper();
        let got = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
        assert!(got.report.is_clean(), "{}", got.report);

        let cfg = UnitConfig {
            fidelity: Fidelity::Stepped,
            ..UnitConfig::default()
        };
        let wide = ProcessingUnit::new(cfg).matmul_grid(
            &grid_from_matrix(&q.quantize(&a).unwrap()),
            &grid_from_matrix(&q.quantize(&b).unwrap()),
        );
        for (i, j) in (0..a.rows()).flat_map(|i| (0..b.cols()).map(move |j| (i, j))) {
            let w = &wide[i / 8][j / 8];
            let want = (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32;
            assert_eq!(got.out.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
        }
    }

    #[test]
    fn abft_path_handles_ragged_shapes() {
        // Partial final block-row and a non-multiple-of-8 N exercise the
        // shard clamping in the checked kernel.
        let a = ramp(13, 24);
        let b = ramp(24, 10);
        let q = Quantizer::paper();
        let got = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
        assert!(got.report.is_clean(), "{}", got.report);
        assert_eq!(got.out, a.matmul(&b));
    }

    #[test]
    fn dimension_mismatch_is_typed_not_panicking() {
        let q = Quantizer::paper();
        let err = resilient_matmul(&ramp(8, 8), &ramp(16, 8), &q, &RecoveryPolicy::default())
            .unwrap_err();
        assert!(matches!(err, ArithError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_finite_layer_falls_back_to_fp32() {
        let mut a = ramp(16, 8);
        a.set(0, 0, f32::NAN);
        let b = ramp(8, 8);
        let q = Quantizer::paper();
        let got = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
        assert_eq!(got.report.fp32_fallbacks, 1);
        assert_eq!(got.report.detected, 1);
        // Clean rows still compute; the NaN propagates exactly as fp32.
        assert_eq!(got.out.get(8, 0), a.matmul(&b).get(8, 0));
    }

    #[test]
    fn strict_policy_surfaces_the_error_instead() {
        let mut a = ramp(16, 8);
        a.set(0, 0, f32::INFINITY);
        let q = Quantizer::paper();
        let err = resilient_matmul(&a, &ramp(8, 8), &q, &RecoveryPolicy::strict()).unwrap_err();
        assert!(matches!(err, ArithError::NonFinite { at: (0, 0) }));
    }

    #[test]
    fn abft_fault_report_counts_detections_repairs_and_tampering() {
        let f = abft_fault_report(&AbftReport {
            detections: 3,
            corrected_elements: 1,
            corrected_checksums: 1,
            tampered: 4,
            ..AbftReport::default()
        });
        assert_eq!(f.counters.injected, 4);
        assert_eq!((f.detected, f.abft_detections), (3, 3));
        assert_eq!((f.abft_corrections, f.uncorrected_detections()), (2, 1));
        assert!(abft_fault_report(&AbftReport::default()).is_clean());
    }

    #[test]
    fn cancelled_token_aborts_between_tiles() {
        let a = ramp(24, 16);
        let b = ramp(16, 24);
        let q = Quantizer::paper();
        let token = CancelToken::new();
        token.cancel();
        let err = resilient_matmul_with(&a, &b, &q, &RecoveryPolicy::default(), &token)
            .expect_err("cancelled before the first tile");
        assert_eq!(err, ArithError::Cancelled { expired: false });
        // A live token changes nothing.
        let got = resilient_matmul_with(&a, &b, &q, &RecoveryPolicy::default(), &CancelToken::new())
            .unwrap();
        assert_eq!(got.out, a.matmul(&b));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(0), 32);
        assert_eq!(p.backoff(1), 64);
        assert_eq!(p.backoff(2), 128);
        assert_eq!(p.backoff(3), 256);
        assert_eq!(p.backoff(10), 256, "capped");
        assert_eq!(p.backoff(200), 256, "shift saturates");
    }

    #[test]
    fn backoff_saturates_at_the_cap_boundary_instead_of_overflowing() {
        // Uncapped policy: the doubling itself must saturate. The top set
        // bit of base=3 is at position 1, so attempt 62 is the last exact
        // shift and 63 is the first that would lose a bit.
        let p = RecoveryPolicy {
            backoff_base_cycles: 3,
            backoff_cap_cycles: u64::MAX,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(62), 3u64 << 62, "last exact doubling");
        assert_eq!(p.backoff(63), u64::MAX, "first lossy shift saturates");
        assert_eq!(p.backoff(u32::MAX), u64::MAX, "never wraps");

        // base << attempt exceeding u64 still lands exactly on the cap.
        let p = RecoveryPolicy {
            backoff_base_cycles: 1 << 40,
            backoff_cap_cycles: 1 << 50,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(9), 1 << 49);
        assert_eq!(p.backoff(10), 1 << 50, "reaches the cap exactly");
        assert_eq!(p.backoff(11), 1 << 50);
        assert_eq!(p.backoff(64), 1 << 50, "saturated shift is capped");

        // A zero base never backs off, no matter how many retries: the
        // saturation guard must not turn 0 << n into u64::MAX.
        let p = RecoveryPolicy {
            backoff_base_cycles: 0,
            backoff_cap_cycles: u64::MAX,
            ..RecoveryPolicy::default()
        };
        for attempt in [0, 1, 63, 64, 65, u32::MAX] {
            assert_eq!(p.backoff(attempt), 0, "attempt {attempt}");
        }
    }
}
