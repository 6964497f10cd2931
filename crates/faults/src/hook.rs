//! Injection points called from the hardware model crates.
//!
//! Call sites in `bfp-dsp48` / `bfp-pu` are compiled only under their
//! `faults` cargo feature, so the default build carries zero overhead.
//! With the feature on but no session installed, every hook returns its
//! input after one relaxed atomic load.

use std::sync::atomic::Ordering;

use crate::ecc_impl::{decode, encode, Decoded};
use crate::plan::FaultSpec;
use crate::session::{active, with_state, FaultState};

/// Flip `bit` in `v`, used for P-register and PSU word upsets.
fn flip(v: i64, bit: u8) -> i64 {
    v ^ (1i64 << (bit as u32 % 64))
}

/// Pass a stored byte through the SECDED model with `bits` upset in its
/// codeword. Single-bit upsets decode back to the stored value
/// (corrected); multi-bit upsets return the corrupted payload
/// (detected, uncorrected).
fn ecc_read(state: &FaultState, byte: u8, bits: &[u8]) -> u8 {
    if bits.is_empty() {
        return byte;
    }
    let mut cw = encode(byte);
    for &b in bits {
        cw ^= 1 << (b as u16 % 13);
    }
    state.counters.injected.fetch_add(1, Ordering::Relaxed);
    match decode(cw) {
        Decoded::Clean(v) => v,
        Decoded::Corrected(v) => {
            state.counters.ecc_corrected.fetch_add(1, Ordering::Relaxed);
            v
        }
        Decoded::Uncorrected(v) => {
            state
                .counters
                .ecc_uncorrected
                .fetch_add(1, Ordering::Relaxed);
            v
        }
    }
}

/// P-register commit in a DSP48 slice: may flip one accumulator bit.
#[inline]
pub fn dsp_p_commit(p: i64) -> i64 {
    if !active() {
        return p;
    }
    with_state(|state| {
        let mut out = p;
        for (i, spec) in state.specs.iter().enumerate() {
            if let FaultSpec::DspPRegFlip { nth, bit } = spec {
                let idx = state.hits[i].fetch_add(1, Ordering::Relaxed);
                if idx == *nth {
                    state.counters.injected.fetch_add(1, Ordering::Relaxed);
                    out = flip(out, *bit);
                }
            }
        }
        out
    })
    .unwrap_or(p)
}

/// Cascade partial entering slice `row`: may be dropped (PCIN ⇒ 0).
#[inline]
pub fn cascade_pcin(row: usize, pcin: i64) -> i64 {
    if !active() {
        return pcin;
    }
    with_state(|state| {
        let mut out = pcin;
        for (i, spec) in state.specs.iter().enumerate() {
            if let FaultSpec::DroppedPartial { nth, row: r } = spec {
                if *r == row {
                    let idx = state.hits[i].fetch_add(1, Ordering::Relaxed);
                    if idx == *nth {
                        state.counters.injected.fetch_add(1, Ordering::Relaxed);
                        state
                            .counters
                            .dropped_partials
                            .fetch_add(1, Ordering::Relaxed);
                        out = 0;
                    }
                }
            }
        }
        out
    })
    .unwrap_or(pcin)
}

/// Systolic column drain lane: may be stuck at a constant.
#[inline]
pub fn array_lane(col: usize, lane: u8, v: i64) -> i64 {
    if !active() {
        return v;
    }
    with_state(|state| {
        let mut out = v;
        for spec in &state.specs {
            if let FaultSpec::StuckLane {
                col: c,
                lane: l,
                value,
            } = spec
            {
                if *c == col && *l == lane {
                    state.counters.injected.fetch_add(1, Ordering::Relaxed);
                    state
                        .counters
                        .stuck_lane_hits
                        .fetch_add(1, Ordering::Relaxed);
                    out = *value;
                }
            }
        }
        out
    })
    .unwrap_or(v)
}

/// Operand-BRAM byte read, through the SECDED ECC model.
#[inline]
pub fn bram_read(bram: usize, addr: usize, byte: u8) -> u8 {
    if !active() {
        return byte;
    }
    with_state(|state| {
        let mut out = byte;
        for spec in &state.specs {
            match spec {
                FaultSpec::BramFlip {
                    bram: b,
                    addr: a,
                    bits,
                } if *b == bram && *a == addr => {
                    out = ecc_read(state, out, bits);
                }
                FaultSpec::BramRawFlip {
                    bram: b,
                    addr: a,
                    mask,
                } if *b == bram && *a == addr && *mask != 0 => {
                    state.counters.injected.fetch_add(1, Ordering::Relaxed);
                    out ^= mask;
                }
                _ => {}
            }
        }
        out
    })
    .unwrap_or(byte)
}

/// Shared-exponent BRAM byte read, through the SECDED ECC model.
#[inline]
pub fn exp_read(addr: usize, byte: u8) -> u8 {
    if !active() {
        return byte;
    }
    with_state(|state| {
        let mut out = byte;
        for spec in &state.specs {
            match spec {
                FaultSpec::ExponentFlip { addr: a, bits } if *a == addr => {
                    out = ecc_read(state, out, bits);
                }
                FaultSpec::ExponentRawFlip { addr: a, mask } if *a == addr && *mask != 0 => {
                    state.counters.injected.fetch_add(1, Ordering::Relaxed);
                    out ^= mask;
                }
                _ => {}
            }
        }
        out
    })
    .unwrap_or(byte)
}

/// PSU accumulator word read: may flip one bit of cell (`row`, `col`).
#[inline]
pub fn psu_read(row: usize, col: usize, v: i64) -> i64 {
    if !active() {
        return v;
    }
    with_state(|state| {
        let mut out = v;
        for (i, spec) in state.specs.iter().enumerate() {
            if let FaultSpec::PsuFlip {
                nth,
                row: r,
                col: c,
                bit,
            } = spec
            {
                if *r == row && *c == col {
                    let idx = state.hits[i].fetch_add(1, Ordering::Relaxed);
                    if idx == *nth {
                        state.counters.injected.fetch_add(1, Ordering::Relaxed);
                        out = flip(out, *bit);
                    }
                }
            }
        }
        out
    })
    .unwrap_or(v)
}

/// Exponent-unit alignment result, protected by TMR majority voting.
/// A transient glitch perturbs one replica and is voted out; a
/// persistent defect corrupts all three and defeats the vote.
#[inline]
pub fn eu_align_exp(exp: i32) -> i32 {
    if !active() {
        return exp;
    }
    with_state(|state| {
        let mut out = exp;
        for (i, spec) in state.specs.iter().enumerate() {
            if let FaultSpec::ExponentUnitGlitch {
                nth,
                delta,
                persistent,
            } = spec
            {
                let idx = state.hits[i].fetch_add(1, Ordering::Relaxed);
                if idx == *nth {
                    state.counters.injected.fetch_add(1, Ordering::Relaxed);
                    // TMR vote: replicas r0..r2 each recompute the
                    // alignment; the glitch lands on one replica, a
                    // persistent defect on all three.
                    let replicas = if *persistent {
                        [out + delta, out + delta, out + delta]
                    } else {
                        [out + delta, out, out]
                    };
                    let voted = majority3(replicas);
                    if voted == out {
                        state.counters.tmr_corrected.fetch_add(1, Ordering::Relaxed);
                    } else {
                        state
                            .counters
                            .tmr_uncorrected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    out = voted;
                }
            }
        }
        out
    })
    .unwrap_or(exp)
}

/// Two-of-three majority vote; falls back to the first replica when all
/// three disagree (cannot happen with a single fault source).
fn majority3(r: [i32; 3]) -> i32 {
    if r[0] == r[1] || r[0] == r[2] {
        r[0]
    } else if r[1] == r[2] {
        r[1]
    } else {
        r[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, FaultSpec};
    use crate::session::{counters, install};

    #[test]
    fn hooks_are_identity_without_session() {
        assert_eq!(dsp_p_commit(42), 42);
        assert_eq!(cascade_pcin(3, -7), -7);
        assert_eq!(array_lane(0, 1, 99), 99);
        assert_eq!(bram_read(0, 0, 0xAB), 0xAB);
        assert_eq!(exp_read(5, 0x12), 0x12);
        assert_eq!(psu_read(1, 1, 1 << 40), 1 << 40);
        assert_eq!(eu_align_exp(-9), -9);
    }

    #[test]
    fn empty_plan_is_identity() {
        let _g = install(FaultPlan::none());
        assert_eq!(dsp_p_commit(42), 42);
        assert_eq!(bram_read(0, 0, 0xAB), 0xAB);
        assert!(!counters().any());
    }

    #[test]
    fn p_reg_flip_fires_once_at_nth() {
        let _g = install(FaultPlan::new().with(FaultSpec::DspPRegFlip { nth: 2, bit: 0 }));
        assert_eq!(dsp_p_commit(8), 8);
        assert_eq!(dsp_p_commit(8), 8);
        assert_eq!(dsp_p_commit(8), 9); // third access: bit 0 flipped
        assert_eq!(dsp_p_commit(8), 8);
        assert_eq!(counters().injected, 1);
    }

    #[test]
    fn single_bit_bram_upset_is_corrected() {
        let _g = install(FaultPlan::new().with(FaultSpec::BramFlip {
            bram: 2,
            addr: 7,
            bits: vec![5],
        }));
        assert_eq!(bram_read(2, 7, 0x5A), 0x5A); // corrected back
        assert_eq!(bram_read(2, 8, 0x5A), 0x5A); // other addr untouched
        let c = counters();
        assert_eq!(c.ecc_corrected, 1);
        assert_eq!(c.ecc_uncorrected, 0);
    }

    #[test]
    fn double_bit_bram_upset_is_detected_not_corrected() {
        let _g = install(FaultPlan::new().with(FaultSpec::BramFlip {
            bram: 0,
            addr: 0,
            bits: vec![3, 9],
        }));
        let got = bram_read(0, 0, 0x5A);
        assert_ne!(got, 0x5A);
        let c = counters();
        assert_eq!(c.ecc_uncorrected, 1);
        assert_eq!(c.uncorrected(), 1);
    }

    #[test]
    fn raw_flips_corrupt_without_ecc_counters() {
        let _g = install(
            FaultPlan::new()
                .with(FaultSpec::BramRawFlip {
                    bram: 1,
                    addr: 4,
                    mask: 0b0001_0100,
                })
                .with(FaultSpec::ExponentRawFlip { addr: 2, mask: 0x80 }),
        );
        assert_eq!(bram_read(1, 4, 0x0F), 0x0F ^ 0b0001_0100);
        assert_eq!(bram_read(1, 5, 0x0F), 0x0F); // other addr untouched
        assert_eq!(exp_read(2, 0x01), 0x81);
        let c = counters();
        // Raw upsets are invisible to the protection counters: injected
        // ticks, nothing is corrected or flagged.
        assert_eq!(c.injected, 2);
        assert_eq!(c.ecc_corrected + c.ecc_uncorrected, 0);
        assert_eq!(c.tmr_corrected + c.tmr_uncorrected, 0);
    }

    #[test]
    fn tmr_votes_out_transient_but_not_persistent() {
        {
            let _g = install(FaultPlan::new().with(FaultSpec::ExponentUnitGlitch {
                nth: 0,
                delta: 4,
                persistent: false,
            }));
            assert_eq!(eu_align_exp(10), 10);
            assert_eq!(counters().tmr_corrected, 1);
        }
        {
            let _g = install(FaultPlan::new().with(FaultSpec::ExponentUnitGlitch {
                nth: 0,
                delta: 4,
                persistent: true,
            }));
            assert_eq!(eu_align_exp(10), 14);
            assert_eq!(counters().tmr_uncorrected, 1);
        }
    }

    #[test]
    fn stuck_lane_and_dropped_partial() {
        let _g = install(
            FaultPlan::new()
                .with(FaultSpec::StuckLane {
                    col: 3,
                    lane: 1,
                    value: -5,
                })
                .with(FaultSpec::DroppedPartial { nth: 1, row: 2 }),
        );
        assert_eq!(array_lane(3, 1, 100), -5);
        assert_eq!(array_lane(3, 0, 100), 100);
        assert_eq!(cascade_pcin(2, 77), 77);
        assert_eq!(cascade_pcin(2, 77), 0); // second step dropped
        let c = counters();
        assert_eq!(c.stuck_lane_hits, 1);
        assert_eq!(c.dropped_partials, 1);
    }
}
