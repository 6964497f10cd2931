//! Deterministic fault injection and accounting for the bfp8 pipeline.
//!
//! The paper argues bfp8 numerics on a DSP48E2 array are robust enough
//! for production Transformer serving; this crate supplies the fault
//! model needed to demonstrate that claim end to end. It provides:
//!
//! * [`FaultPlan`] — a deterministic, seedable set of [`FaultSpec`]s
//!   (bit-flips in DSP48 P registers, BRAM operand/PSU words and
//!   shared-exponent fields, stuck-at systolic lanes, dropped cascade
//!   partials), installed for the duration of a [`FaultGuard`].
//! * [`ecc`] — a real SECDED Hamming(13,8) codec modelling the BRAM
//!   protection: single-bit upsets are corrected, double-bit upsets are
//!   detected but not corrected. The exponent unit is protected by TMR
//!   majority voting instead (see [`hook::eu_align_exp`]).
//! * [`hook`] — the injection points called from `bfp-dsp48` / `bfp-pu`
//!   behind their `faults` cargo feature. With the feature off the call
//!   sites do not exist; with it on but no plan installed, each hook is
//!   a single relaxed atomic load.
//! * [`FaultReport`] / [`FaultCounters`] — corrected vs. uncorrected
//!   event accounting plus the recovery counters (retries, ABFT
//!   corrections, fp32 fallbacks) filled in by `bfp-core`.
//!
//! Injection is deterministic: every spec carries its own access
//! counter, so "the `nth` access of this site" always means the same
//! event in a single-threaded run, regardless of wall-clock timing.
//! Under the sharded multi-array executor the *count* of injected
//! events is still exact; only their thread attribution can vary.

mod ecc_impl;
mod plan;
mod report;
mod session;

pub mod hook;

pub use plan::{FaultPlan, FaultSpec};
pub use report::{FaultCounters, FaultReport, FleetLedger};
pub use session::{active, counters, install, FaultGuard};

/// SECDED Hamming(13,8) codec used for the BRAM ECC model.
pub mod ecc {
    pub use crate::ecc_impl::{decode, encode, Decoded, CODEWORD_BITS};
}
