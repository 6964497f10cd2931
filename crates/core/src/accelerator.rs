//! The top-level accelerator facade: one object that owns the modelled
//! card, executes GEMMs and whole Transformer models in mixed precision,
//! and reports the paper's metrics (throughput, latency split, fidelity).

use bfp_arith::matrix::MatF32;
use bfp_arith::stats::ErrorStats;
use bfp_platform::{System, SystemStats};
use bfp_transformer::{MixedEngine, OpCensus, RefEngine, VitModel};

use crate::latency::{Breakdown, LatencyModel};
use crate::resilient::resilient_matmul;
use bfp_arith::error::ArithError;
use bfp_arith::quant::Quantizer;

/// A modelled Alveo U280 running the multi-mode processing system.
#[derive(Debug, Clone)]
pub struct Accelerator {
    system: System,
    latency: LatencyModel,
}

impl Default for Accelerator {
    fn default() -> Self {
        Self::u280()
    }
}

impl Accelerator {
    /// The paper's deployment (15 units × 2 arrays, 300 MHz, calibrated
    /// memory model).
    pub fn u280() -> Self {
        let system = System::paper();
        let latency = LatencyModel::from_system(&system);
        Accelerator { system, latency }
    }

    /// The underlying system model.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// bfp8 GEMM on the modelled card (quantize → parallel block MatMul
    /// across arrays → dequantize), with execution statistics.
    ///
    /// # Panics
    /// Panics where [`Accelerator::try_gemm`] would return an error:
    /// non-finite inputs or an inner-dimension mismatch.
    pub fn gemm(&self, a: &MatF32, b: &MatF32) -> (MatF32, GemmReport) {
        self.try_gemm(a, b).unwrap_or_else(|e| panic!("gemm: {e}"))
    }

    /// Fallible [`Accelerator::gemm`]: the errors of
    /// [`System::try_matmul_f32`] (non-finite operands, dimension
    /// mismatches) propagate as typed errors instead of panicking the
    /// batch path.
    pub fn try_gemm(&self, a: &MatF32, b: &MatF32) -> Result<(MatF32, GemmReport), ArithError> {
        let (out, stats) = self.system.try_matmul_f32(a, b)?;
        Ok((out, self.gemm_report(a, b, stats)))
    }

    /// One GEMM's report: its statistics, timed at the card's clock.
    fn gemm_report(&self, a: &MatF32, b: &MatF32, stats: SystemStats) -> GemmReport {
        let seconds = stats.seconds(self.system.freq_hz);
        let macs = (a.rows() * a.cols() * b.cols()) as u64;
        GemmReport {
            stats,
            seconds,
            macs,
        }
    }

    /// Fault-tolerant bfp8 GEMM: each output block-row runs on the
    /// checksum-protected kernel, repairs single-element upsets in place,
    /// retries what it cannot repair twice with backoff, and degrades to
    /// fp32 if a defect persists (see [`crate::resilient`]).
    ///
    /// Recovery is firmware-serialised onto one array, so throughput is
    /// not comparable to [`Accelerator::gemm`]; the point of the report
    /// is the [`bfp_faults::FaultReport`] in `report.stats.faults`.
    pub fn gemm_resilient(
        &self,
        a: &MatF32,
        b: &MatF32,
    ) -> Result<(MatF32, GemmReport), ArithError> {
        let outcome = resilient_matmul(a, b, &Quantizer::paper())?;
        let mut stats = SystemStats::default();
        stats.per_array.push(outcome.stats);
        // Backoff stalls the card just like memory overhead does.
        stats.mem_overhead_cycles = outcome.report.backoff_cycles as f64;
        stats.faults = outcome.report;
        Ok((outcome.out, self.gemm_report(a, b, stats)))
    }

    /// Run a Transformer forward pass in mixed precision and produce the
    /// full inference report (census, Table IV-style breakdown, fidelity
    /// versus the fp32 reference).
    pub fn infer(&self, model: &VitModel, input: &MatF32) -> (MatF32, InferenceReport) {
        let mut mixed = MixedEngine::new();
        let output = model.forward(&mut mixed, input);
        let census = mixed.take_census();
        let breakdown = self.latency.breakdown(&census);

        let mut reference = RefEngine;
        let ref_out = model.forward(&mut reference, input);
        let mut fidelity = ErrorStats::new();
        fidelity.push_slices(output.data(), ref_out.data());

        (
            output,
            InferenceReport {
                census,
                breakdown,
                fidelity,
            },
        )
    }

    /// Latency breakdown for a census without executing (architecture-only
    /// estimates, e.g. full DeiT-Small without waiting for the simulation).
    pub fn estimate(&self, census: &OpCensus) -> Breakdown {
        self.latency.breakdown(census)
    }
}

/// Statistics of one accelerated GEMM.
#[derive(Debug, Clone)]
pub struct GemmReport {
    /// Per-array and memory statistics.
    pub stats: SystemStats,
    /// Modelled wall-clock seconds.
    pub seconds: f64,
    /// MAC count of the GEMM.
    pub macs: u64,
}

impl GemmReport {
    /// Achieved throughput in GOPS (2 ops per MAC).
    pub fn gops(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            2.0 * self.macs as f64 / self.seconds / 1e9
        }
    }
}

/// Everything the paper reports about one inference.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// The executed operation census.
    pub census: OpCensus,
    /// Table IV-style latency breakdown.
    pub breakdown: Breakdown,
    /// Output fidelity versus the fp32 reference engine.
    pub fidelity: ErrorStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_transformer::VitConfig;

    #[test]
    fn gemm_end_to_end() {
        let acc = Accelerator::u280();
        let a = MatF32::from_fn(32, 32, |i, j| ((i + j) % 9) as f32 - 4.0);
        let b = MatF32::from_fn(32, 32, |i, j| ((i * 3 + j) % 7) as f32 - 3.0);
        let (out, report) = acc.gemm(&a, &b);
        assert_eq!(out, a.matmul(&b));
        assert!(report.seconds > 0.0);
        assert!(report.gops() > 0.0);
    }

    #[test]
    fn try_gemm_propagates_guardrail_errors() {
        let acc = Accelerator::u280();
        let mut a = MatF32::from_fn(16, 16, |i, j| (i + j) as f32);
        let b = MatF32::from_fn(16, 16, |i, j| i as f32 - j as f32);
        assert!(matches!(
            acc.try_gemm(&a, &MatF32::zeros(8, 8)),
            Err(ArithError::DimensionMismatch { .. })
        ));
        a.set(1, 2, f32::NAN);
        assert!(matches!(
            acc.try_gemm(&a, &b),
            Err(ArithError::NonFinite { at: (1, 2) })
        ));
    }

    #[test]
    fn inference_report_is_complete() {
        let acc = Accelerator::u280();
        let model = VitModel::new_random(VitConfig::tiny_test(), 11);
        let x = model.synthetic_input(12);
        let (out, report) = acc.infer(&model, &x);
        assert_eq!(out.rows(), model.cfg.seq);
        assert!(report.census.matmul_macs > 0);
        assert_eq!(report.breakdown.rows.len(), 4);
        assert!(report.breakdown.total_latency_s() > 0.0);
        assert!(
            report.fidelity.sqnr_db() > 15.0,
            "fidelity {}",
            report.fidelity
        );
    }

    #[test]
    fn estimate_matches_infer_breakdown() {
        let acc = Accelerator::u280();
        let model = VitModel::new_random(VitConfig::tiny_test(), 1);
        let x = model.synthetic_input(2);
        let (_, report) = acc.infer(&model, &x);
        let est = acc.estimate(&report.census);
        assert_eq!(est.total_latency_s(), report.breakdown.total_latency_s());
    }

    #[test]
    fn deit_small_estimate_shows_fp32_latency_dominance() {
        // Architecture-only: no execution needed for the Table IV shape.
        let acc = Accelerator::u280();
        let census = bfp_transformer::analytical_census(&VitConfig::deit_small());
        let b = acc.estimate(&census);
        assert!(b.fp32_ops_percent() < 5.0);
        assert!(b.fp32_latency_percent() > 60.0);
    }
}
