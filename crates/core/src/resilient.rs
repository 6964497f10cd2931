//! Graceful degradation: execute GEMMs one output block-row at a time on
//! the checksum-protected kernel, with backoff retry and per-row fp32
//! fallback.
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
//! 3. **Retry** — a detected-but-uncorrected block-row is re-executed up
//!    to twice, after a backoff of 32 and then 64 cycles (transient
//!    upsets de-assert; `nth`-triggered plan entries have already fired,
//!    so replays are clean).
//! 4. **Fall back** — a block-row that stays faulty across all retries
//!    (a persistent defect: stuck lane, latched BRAM cell) is recomputed
//!    in fp32 on the vector path, and the degradation is counted.
//!
//! The ladder is fixed and always ends in fp32, so a fault is never
//! returned as an error.
//!
//! Every action is accounted in a [`FaultReport`], which callers surface
//! through [`crate::GemmReport`] / `SystemStats`. [`abft_fault_report`]
//! is the one place a checksum report becomes fault accounting; the
//! serving backend uses it too.

use bfp_arith::abft::{AbftOptions, AbftPacked, AbftReport};
use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_faults::{FaultCounters, FaultReport};
use bfp_pu::CycleStats;

/// Re-executions per block-row after a detected fault.
const MAX_RETRIES: u32 = 2;

/// Backoff before the first retry, in cycles; retry `n` waits
/// `BACKOFF_BASE_CYCLES << n`.
const BACKOFF_BASE_CYCLES: u64 = 32;

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
/// Returns a typed error only for dimension mismatches, which no amount
/// of retrying fixes.
pub fn resilient_matmul(
    a: &MatF32,
    b: &MatF32,
    quantizer: &Quantizer,
) -> Result<ResilientOutcome, ArithError> {
    if a.cols() != b.rows() {
        return Err(ArithError::DimensionMismatch {
            got: format!(
                "lhs {}x{}, rhs {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
            expected: "lhs cols == rhs rows".into(),
        });
    }

    // Layer-level degradation: operands the quantizer rejects (non-finite
    // values) can never run on the bfp8 path, so the whole layer falls
    // back to fp32 — the same policy `MixedEngine` applies.
    let packed = AbftPacked::quantize_pack_lhs(quantizer, a)
        .and_then(|pa| Ok((pa, AbftPacked::quantize_pack_rhs(quantizer, b)?)));
    let Ok((pa, pb)) = packed else {
        let report = FaultReport {
            detected: 1,
            fp32_fallbacks: 1,
            ..FaultReport::default()
        };
        return Ok(ResilientOutcome {
            out: a.matmul(b),
            report,
            stats: CycleStats::default(),
        });
    };

    let blk = pa.packed().block();
    let (mb, _) = pa.packed().grid();
    let (k, n) = (a.cols(), b.cols());
    let mut report = FaultReport::default();
    let mut out = MatF32::zeros(a.rows(), n);
    let mut stats = CycleStats::default();
    let mem = bfp_platform::MemParams::paper_calibrated();

    for bi in 0..mb {
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

            if attempt < MAX_RETRIES {
                report.retries += 1;
                report.backoff_cycles += BACKOFF_BASE_CYCLES << attempt;
                attempt += 1;
                continue;
            }

            // Retries exhausted: persistent defect. Degrade this
            // block-row to fp32 on the vector path.
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
        let got = resilient_matmul(&a, &b, &q).unwrap();
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
        let got = resilient_matmul(&a, &b, &q).unwrap();
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
        let got = resilient_matmul(&a, &b, &q).unwrap();
        assert!(got.report.is_clean(), "{}", got.report);
        assert_eq!(got.out, a.matmul(&b));
    }

    #[test]
    fn dimension_mismatch_is_typed_not_panicking() {
        let q = Quantizer::paper();
        let err = resilient_matmul(&ramp(8, 8), &ramp(16, 8), &q).unwrap_err();
        assert!(matches!(err, ArithError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_finite_layer_falls_back_to_fp32() {
        let mut a = ramp(16, 8);
        a.set(0, 0, f32::NAN);
        let b = ramp(8, 8);
        let q = Quantizer::paper();
        let got = resilient_matmul(&a, &b, &q).unwrap();
        assert_eq!(got.report.fp32_fallbacks, 1);
        assert_eq!(got.report.detected, 1);
        // Clean rows still compute; the NaN propagates exactly as fp32.
        assert_eq!(got.out.get(8, 0), a.matmul(&b).get(8, 0));
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
}
