//! Fault-event accounting shared across the stack.

use std::fmt;
use std::ops::Sub;

/// Raw injection/protection event counts, as observed by the hardware
/// model hooks. Snapshots are cheap to take ([`crate::counters`]) and
/// subtract, so recovery code works in deltas around each tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total fault activations (every perturbation, corrected or not).
    pub injected: u64,
    /// BRAM single-bit upsets repaired by the SECDED model.
    pub ecc_corrected: u64,
    /// BRAM multi-bit upsets detected but not correctable.
    pub ecc_uncorrected: u64,
    /// Exponent-unit glitches voted out by TMR.
    pub tmr_corrected: u64,
    /// Persistent exponent-unit defects that defeated the TMR vote.
    pub tmr_uncorrected: u64,
    /// Values driven by a stuck-at lane.
    pub stuck_lane_hits: u64,
    /// Cascade partials dropped on a broken PCIN route.
    pub dropped_partials: u64,
}

impl FaultCounters {
    /// Events the protection layer flagged but could not repair. These
    /// are the *detected* faults recovery must act on.
    pub fn uncorrected(&self) -> u64 {
        self.ecc_uncorrected + self.tmr_uncorrected
    }

    /// Whether any event at all was recorded.
    pub fn any(&self) -> bool {
        self.injected != 0
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrected += other.ecc_uncorrected;
        self.tmr_corrected += other.tmr_corrected;
        self.tmr_uncorrected += other.tmr_uncorrected;
        self.stuck_lane_hits += other.stuck_lane_hits;
        self.dropped_partials += other.dropped_partials;
    }
}

impl FaultCounters {
    /// Element-wise saturating delta. Unlike [`Sub`], which panics in
    /// debug builds when a "later" snapshot is behind an "earlier" one,
    /// this clamps each field at zero — the right behaviour for fleet
    /// bookkeeping where a counter reset (array re-admission after
    /// quarantine) can legally move a baseline past a stale snapshot.
    pub fn saturating_delta(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            injected: self.injected.saturating_sub(earlier.injected),
            ecc_corrected: self.ecc_corrected.saturating_sub(earlier.ecc_corrected),
            ecc_uncorrected: self.ecc_uncorrected.saturating_sub(earlier.ecc_uncorrected),
            tmr_corrected: self.tmr_corrected.saturating_sub(earlier.tmr_corrected),
            tmr_uncorrected: self.tmr_uncorrected.saturating_sub(earlier.tmr_uncorrected),
            stuck_lane_hits: self.stuck_lane_hits.saturating_sub(earlier.stuck_lane_hits),
            dropped_partials: self.dropped_partials.saturating_sub(earlier.dropped_partials),
        }
    }
}

impl Sub for FaultCounters {
    type Output = FaultCounters;

    fn sub(self, rhs: FaultCounters) -> FaultCounters {
        FaultCounters {
            injected: self.injected - rhs.injected,
            ecc_corrected: self.ecc_corrected - rhs.ecc_corrected,
            ecc_uncorrected: self.ecc_uncorrected - rhs.ecc_uncorrected,
            tmr_corrected: self.tmr_corrected - rhs.tmr_corrected,
            tmr_uncorrected: self.tmr_uncorrected - rhs.tmr_uncorrected,
            stuck_lane_hits: self.stuck_lane_hits - rhs.stuck_lane_hits,
            dropped_partials: self.dropped_partials - rhs.dropped_partials,
        }
    }
}

/// End-to-end fault story for one GEMM / inference: what the hardware
/// model saw plus what the recovery layer did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Hardware-level events during the covered execution.
    pub counters: FaultCounters,
    /// Faults the detection layer acted on (uncorrected events plus
    /// numeric-guardrail trips).
    pub detected: u64,
    /// Tile re-executions after a detected fault.
    pub retries: u64,
    /// Idle cycles spent in capped exponential backoff before retries.
    pub backoff_cycles: u64,
    /// ABFT checksum mismatches observed (corrected or not). Distinct
    /// from `detected`, which also counts guardrail trips and hardware
    /// uncorrected events.
    pub abft_detections: u64,
    /// ABFT mismatches repaired algebraically in place (single-element
    /// row×column localization), with no retry and no fp32 degradation.
    pub abft_corrections: u64,
    /// Layers degraded from bfp8 to fp32 vector-program execution.
    pub fp32_fallbacks: u64,
}

impl FaultReport {
    /// Whether the execution was completely clean: nothing injected,
    /// nothing detected, no recovery taken.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Accumulate another report (e.g. per-layer into per-inference).
    pub fn merge(&mut self, other: &FaultReport) {
        self.counters.merge(&other.counters);
        self.detected += other.detected;
        self.retries += other.retries;
        self.backoff_cycles += other.backoff_cycles;
        self.abft_detections += other.abft_detections;
        self.abft_corrections += other.abft_corrections;
        self.fp32_fallbacks += other.fp32_fallbacks;
    }

    /// Field-wise saturating delta against an earlier snapshot (see
    /// [`FaultCounters::saturating_delta`]).
    pub fn saturating_delta(&self, earlier: &FaultReport) -> FaultReport {
        FaultReport {
            counters: self.counters.saturating_delta(&earlier.counters),
            detected: self.detected.saturating_sub(earlier.detected),
            retries: self.retries.saturating_sub(earlier.retries),
            backoff_cycles: self.backoff_cycles.saturating_sub(earlier.backoff_cycles),
            abft_detections: self.abft_detections.saturating_sub(earlier.abft_detections),
            abft_corrections: self
                .abft_corrections
                .saturating_sub(earlier.abft_corrections),
            fp32_fallbacks: self.fp32_fallbacks.saturating_sub(earlier.fp32_fallbacks),
        }
    }

    /// Detected events still standing after in-place ABFT correction —
    /// the faults a caller must actually discard/retry over.
    pub fn uncorrected_detections(&self) -> u64 {
        self.detected.saturating_sub(self.abft_corrections)
    }
}

/// Per-array fault bookkeeping for a fleet of accelerator arrays.
///
/// The hardware counters are cumulative for the life of a process; a
/// serving runtime instead wants "what happened on array `i` since I
/// last looked" to drive its health state machine. The ledger keeps one
/// baseline [`FaultReport`] per array; [`FleetLedger::take_delta`]
/// returns the events since the previous call and advances the baseline,
/// and [`FleetLedger::reset`] re-zeros one array's history (used when an
/// array is re-admitted after quarantine so old strikes don't count
/// against it twice).
#[derive(Debug, Clone)]
pub struct FleetLedger {
    baselines: Vec<FaultReport>,
    totals: Vec<FaultReport>,
}

impl FleetLedger {
    /// A ledger for `arrays` arrays, all baselines zero.
    pub fn new(arrays: usize) -> Self {
        FleetLedger {
            baselines: vec![FaultReport::default(); arrays],
            totals: vec![FaultReport::default(); arrays],
        }
    }

    /// Number of arrays tracked.
    pub fn arrays(&self) -> usize {
        self.baselines.len()
    }

    /// Record `snapshot` (a cumulative report for array `array`) and
    /// return the saturating delta since the previous snapshot. The
    /// delta is also folded into the array's lifetime total.
    ///
    /// # Panics
    /// Panics if `array` is out of range.
    pub fn take_delta(&mut self, array: usize, snapshot: &FaultReport) -> FaultReport {
        let delta = snapshot.saturating_delta(&self.baselines[array]);
        self.baselines[array] = *snapshot;
        self.totals[array].merge(&delta);
        delta
    }

    /// Fold a per-execution delta (already relative, e.g. one GEMM's
    /// [`FaultReport`]) straight into array `array`'s lifetime total.
    ///
    /// # Panics
    /// Panics if `array` is out of range.
    pub fn record_delta(&mut self, array: usize, delta: &FaultReport) {
        self.totals[array].merge(delta);
    }

    /// Lifetime total for one array.
    ///
    /// # Panics
    /// Panics if `array` is out of range.
    pub fn total(&self, array: usize) -> &FaultReport {
        &self.totals[array]
    }

    /// Forget one array's history (baseline and total), e.g. on
    /// re-admission after a quarantine probe passes.
    ///
    /// # Panics
    /// Panics if `array` is out of range.
    pub fn reset(&mut self, array: usize) {
        self.baselines[array] = FaultReport::default();
        self.totals[array] = FaultReport::default();
    }

    /// Fleet-wide merged total across all arrays.
    pub fn fleet_total(&self) -> FaultReport {
        let mut all = FaultReport::default();
        for t in &self.totals {
            all.merge(t);
        }
        all
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "faults: {} injected ({} ecc-corrected, {} ecc-uncorrected, \
             {} tmr-corrected, {} tmr-uncorrected, {} stuck, {} dropped) | \
             recovery: {} detected, {} retries ({} backoff cycles), \
             {} abft detections ({} abft-corrected), {} fp32 fallbacks",
            c.injected,
            c.ecc_corrected,
            c.ecc_uncorrected,
            c.tmr_corrected,
            c.tmr_uncorrected,
            c.stuck_lane_hits,
            c.dropped_partials,
            self.detected,
            self.retries,
            self.backoff_cycles,
            self.abft_detections,
            self.abft_corrections,
            self.fp32_fallbacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_merge() {
        let a = FaultCounters {
            injected: 5,
            ecc_corrected: 2,
            ecc_uncorrected: 1,
            ..Default::default()
        };
        let b = FaultCounters {
            injected: 2,
            ecc_corrected: 1,
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.injected, 3);
        assert_eq!(d.uncorrected(), 1);

        let mut r = FaultReport::default();
        assert!(r.is_clean());
        r.merge(&FaultReport {
            counters: a,
            detected: 1,
            retries: 1,
            ..Default::default()
        });
        assert!(!r.is_clean());
        assert_eq!(r.counters.injected, 5);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn saturating_delta_clamps_instead_of_panicking() {
        let behind = FaultCounters {
            injected: 3,
            ecc_corrected: 1,
            ..Default::default()
        };
        let ahead = FaultCounters {
            injected: 1,
            ecc_corrected: 4,
            ..Default::default()
        };
        // `behind - ahead` would underflow on ecc_corrected.
        let d = behind.saturating_delta(&ahead);
        assert_eq!(d.injected, 2);
        assert_eq!(d.ecc_corrected, 0);

        let r = FaultReport {
            counters: behind,
            detected: 2,
            ..Default::default()
        };
        let base = FaultReport {
            detected: 5,
            retries: 1,
            ..Default::default()
        };
        let rd = r.saturating_delta(&base);
        assert_eq!(rd.detected, 0);
        assert_eq!(rd.retries, 0);
        assert_eq!(rd.counters.injected, 3);
    }

    #[test]
    fn abft_fields_thread_through_merge_delta_and_display() {
        let mut r = FaultReport::default();
        r.merge(&FaultReport {
            detected: 3,
            abft_detections: 3,
            abft_corrections: 2,
            ..Default::default()
        });
        assert_eq!(r.abft_detections, 3);
        assert_eq!(r.abft_corrections, 2);
        assert_eq!(r.uncorrected_detections(), 1);
        assert!(!r.is_clean());

        let d = r.saturating_delta(&FaultReport {
            abft_detections: 1,
            abft_corrections: 5,
            ..Default::default()
        });
        assert_eq!(d.abft_detections, 2);
        assert_eq!(d.abft_corrections, 0);

        let s = r.to_string();
        assert!(s.contains("3 abft detections"), "{s}");
        assert!(s.contains("(2 abft-corrected)"), "{s}");
    }

    #[test]
    fn fleet_ledger_tracks_per_array_deltas() {
        let mut ledger = FleetLedger::new(2);
        assert_eq!(ledger.arrays(), 2);

        let snap1 = FaultReport {
            detected: 2,
            retries: 1,
            ..Default::default()
        };
        let d = ledger.take_delta(0, &snap1);
        assert_eq!(d.detected, 2);

        let snap2 = FaultReport {
            detected: 5,
            retries: 1,
            ..Default::default()
        };
        let d = ledger.take_delta(0, &snap2);
        assert_eq!(d.detected, 3);
        assert_eq!(d.retries, 0);
        assert_eq!(ledger.total(0).detected, 5);
        // Array 1 untouched.
        assert!(ledger.total(1).is_clean());

        ledger.record_delta(1, &FaultReport {
            fp32_fallbacks: 1,
            ..Default::default()
        });
        assert_eq!(ledger.fleet_total().fp32_fallbacks, 1);
        assert_eq!(ledger.fleet_total().detected, 5);

        // Reset forgives history and rebases: a stale cumulative snapshot
        // after reset yields the full snapshot as delta, not underflow.
        ledger.reset(0);
        assert!(ledger.total(0).is_clean());
        let d = ledger.take_delta(0, &snap1);
        assert_eq!(d.detected, 2);
    }
}
