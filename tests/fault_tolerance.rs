//! Fault-injection properties and the end-to-end degradation story.
//!
//! Everything here needs the injection hooks compiled in:
//!
//! ```text
//! cargo test --features faults --test fault_tolerance
//! ```
#![cfg(feature = "faults")]

use std::sync::Mutex;

use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_arith::AbftPacked;
use bfp_core::resilient::{resilient_matmul, RecoveryPolicy, ResilientOutcome};
use bfp_core::Accelerator;
use bfp_faults::{FaultPlan, FaultSpec};
use bfp_pu::unit::{grid_from_matrix, Fidelity, ProcessingUnit, UnitConfig};
use proptest::prelude::*;

/// Serialises every test in this binary: baseline (no-session) runs must
/// not observe another test's installed plan. Lock order is always this
/// mutex first, then the crate's session lock via `install`.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random matrix from a seed (SplitMix64 mix).
fn seeded(rows: usize, cols: usize, seed: u64) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        let mut z = seed
            .wrapping_add((i * cols + j + 1) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        // Uniform in [-4, 4).
        (z % 8192) as f32 / 1024.0 - 4.0
    })
}

/// Quantize and multiply on one processing unit at the given fidelity,
/// dequantizing the wide output — the raw datapath, no recovery.
fn unit_product(a: &MatF32, b: &MatF32, fidelity: Fidelity) -> MatF32 {
    let q = Quantizer::paper();
    let ga = grid_from_matrix(&q.quantize(a).unwrap());
    let gb = grid_from_matrix(&q.quantize(b).unwrap());
    let mut unit = ProcessingUnit::new(UnitConfig {
        fidelity,
        ..UnitConfig::default()
    });
    let wide = unit.matmul_grid(&ga, &gb);
    MatF32::from_fn(a.rows(), b.cols(), |i, j| {
        let w = &wide[i / 8][j / 8];
        (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32
    })
}

fn bits_eq(x: &MatF32, y: &MatF32) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The empty plan is bit-identical to an uninstrumented run: the
    /// hooks are live (`active()` is true) but must not perturb a single
    /// bit, and the counters must stay at zero.
    #[test]
    fn none_plan_is_bit_identical(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in any::<u64>(),
    ) {
        let _x = lock();
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0xDEAD_BEEF);
        let baseline = unit_product(&a, &b, Fidelity::Stepped);

        let guard = bfp_faults::install(FaultPlan::none());
        let faulted = unit_product(&a, &b, Fidelity::Stepped);
        let counters = bfp_faults::counters();
        drop(guard);

        prop_assert!(bits_eq(&baseline, &faulted));
        prop_assert_eq!(counters.injected, 0);
    }

    /// A single flipped codeword bit in an operand BRAM is always
    /// repaired by the SECDED model: numerics are unchanged and no
    /// uncorrected event is ever reported.
    #[test]
    fn corrected_ecc_never_changes_numerics(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in any::<u64>(),
        bram in 0usize..16, addr in 0usize..16, bit in 0u8..13,
    ) {
        let _x = lock();
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x5A5A_5A5A);
        let baseline = unit_product(&a, &b, Fidelity::Stepped);

        let plan = FaultPlan::new().with(FaultSpec::BramFlip {
            bram,
            addr,
            bits: vec![bit],
        });
        let guard = bfp_faults::install(plan);
        let faulted = unit_product(&a, &b, Fidelity::Stepped);
        let counters = bfp_faults::counters();
        drop(guard);

        prop_assert!(bits_eq(&baseline, &faulted));
        prop_assert_eq!(counters.ecc_uncorrected, 0);
        // If the upset cell was ever read, the correction was counted.
        prop_assert_eq!(counters.injected > 0, counters.ecc_corrected > 0);
    }

    /// A double-bit (uncorrectable) BRAM upset is always either detected
    /// by the recovery pipeline or harmless (the cell was never read);
    /// either way the final output stays inside the bfp8 quantization
    /// error envelope of the fp32 product.
    #[test]
    fn uncorrected_faults_detected_or_bounded(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in any::<u64>(),
        bram in 0usize..16, addr in 0usize..16, b1 in 0u8..13, b2 in 0u8..13,
    ) {
        prop_assume!(b1 != b2);
        let _x = lock();
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x0F0F_0F0F);
        let q = Quantizer::paper();
        let exact = a.matmul(&b);
        // Envelope: the healthy datapath's worst elementwise error.
        let healthy = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
        let envelope = exact
            .data()
            .iter()
            .zip(healthy.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0f32, f32::max);

        let plan = FaultPlan::new().with(FaultSpec::BramFlip {
            bram,
            addr,
            bits: vec![b1, b2],
        });
        let guard = bfp_faults::install(plan);
        let outcome = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
        drop(guard);

        // Detected whenever it actually perturbed a read…
        if outcome.report.counters.ecc_uncorrected > 0 {
            prop_assert!(outcome.report.detected > 0, "{}", outcome.report);
        }
        // …and bounded regardless: degraded tiles are fp32-exact, clean
        // tiles carry ordinary quantization error.
        for (got, want) in outcome.out.data().iter().zip(exact.data()) {
            prop_assert!(
                (got - want).abs() <= envelope + 1e-4,
                "error {} exceeds envelope {envelope}",
                (got - want).abs()
            );
        }
    }
}

/// The acceptance story: an uncorrectable BRAM upset during a DeiT-shaped
/// GEMM (one attention-head projection, 197×384 × 384×64) is detected by
/// the ECC model, the tile is retried with backoff, the persistent fault
/// defeats every retry, the layer degrades to fp32, every step lands in
/// the `FaultReport`, and the output stays within the bfp8 envelope.
#[test]
fn deit_layer_survives_uncorrected_bram_fault() {
    let _x = lock();
    let (m, k, n) = (197, 384, 64);
    let a = seeded(m, k, 0xD1E7);
    let b = seeded(k, n, 0xD1E7 ^ 0xFFFF);
    let exact = a.matmul(&b);
    let q = Quantizer::paper();
    let healthy = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
    let envelope = exact
        .data()
        .iter()
        .zip(healthy.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0f32, f32::max);

    // Two flipped bits in the word every Y-preload reads: detected by
    // SECDED on every access but never correctable.
    let plan = FaultPlan::new().with(FaultSpec::BramFlip {
        bram: 0,
        addr: 0,
        bits: vec![3, 7],
    });
    let guard = bfp_faults::install(plan);
    let acc = Accelerator::u280();
    let policy = RecoveryPolicy::default();
    let (out, report) = acc.gemm_resilient(&a, &b, &policy).unwrap();
    drop(guard);

    let f = &report.stats.faults;
    assert!(f.counters.ecc_uncorrected > 0, "{f}");
    assert!(f.detected > 0, "{f}");
    assert!(f.retries > 0, "{f}");
    assert!(f.backoff_cycles > 0, "{f}");
    assert!(f.fp32_fallbacks > 0, "{f}");
    let ecc = f.counters.ecc_corrected + f.counters.ecc_uncorrected;
    assert_eq!(f.counters.injected, ecc, "every event is an ECC event");

    for (got, want) in out.data().iter().zip(exact.data()) {
        assert!(
            (got - want).abs() <= envelope + 1e-4,
            "degraded output must stay in the bfp8 envelope"
        );
    }
}

/// Run the ladder on fixed 24×16 · 16×16 inputs while one-shot flips of
/// accumulator bit 44 hit `cells` of the first output chain. Returns the
/// outcome and the healthy quantized product.
fn ladder_under_psu_flips(
    cells: &[(usize, usize)],
    policy: &RecoveryPolicy,
) -> (Result<ResilientOutcome, ArithError>, MatF32) {
    let _x = lock();
    let a = seeded(24, 16, 0xBEEF);
    let b = seeded(16, 16, 0xFEED);
    let q = Quantizer::paper();
    let plan = cells.iter().fold(FaultPlan::new(), |plan, &(row, col)| {
        plan.with(FaultSpec::PsuFlip {
            nth: 0,
            row,
            col,
            bit: 44,
        })
    });
    let guard = bfp_faults::install(plan);
    let got = resilient_matmul(&a, &b, &q, policy);
    drop(guard);
    let healthy = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
    (got, healthy)
}

/// Two transient PSU upsets in one chain, on different rows and columns:
/// the row×column intersection cannot localize them, so the chain is
/// detected but not corrected. The flips are one-shot, so one backoff
/// retry replays the block-row clean — no fp32 degradation.
#[test]
fn transient_psu_flip_heals_with_one_retry() {
    let (got, healthy) = ladder_under_psu_flips(&[(0, 0), (1, 1)], &RecoveryPolicy::default());
    let outcome = got.unwrap();
    let r = &outcome.report;
    assert_eq!(r.abft_detections, 1, "{r}");
    assert_eq!(r.abft_corrections, 0, "not localizable: {r}");
    assert_eq!(r.retries, 1, "{r}");
    assert_eq!(r.backoff_cycles, 32, "one base backoff: {r}");
    assert_eq!(r.fp32_fallbacks, 0, "transient faults heal on replay: {r}");
    // Healed means the output equals the healthy quantized product.
    assert!(bits_eq(&outcome.out, &healthy));
}

/// With recovery disabled, the same uncorrectable chain is a typed error
/// naming the block-row, not a retry and not an fp32 fallback.
#[test]
fn strict_policy_reports_the_uncorrected_block_row() {
    let (got, _) = ladder_under_psu_flips(&[(0, 0), (1, 1)], &RecoveryPolicy::strict());
    let err = got.unwrap_err();
    assert_eq!(err, ArithError::UncorrectedFault { block_row: 0 });
}

/// A single transient PSU upset never needs a retry: the checksum
/// invariant localizes the flipped accumulator element via the
/// row×column intersection and repairs it in place.
#[test]
fn abft_corrects_transient_psu_flip_in_place() {
    let (got, healthy) = ladder_under_psu_flips(&[(0, 0)], &RecoveryPolicy::default());
    let outcome = got.unwrap();
    let r = &outcome.report;
    assert!(r.abft_detections > 0, "{r}");
    assert!(r.abft_corrections > 0, "{r}");
    assert_eq!(r.detected, r.abft_detections, "{r}");
    assert_eq!(r.uncorrected_detections(), 0, "corrected output is servable: {r}");
    assert_eq!(r.retries, 0, "in-place repair needs no re-execution: {r}");
    assert_eq!(r.fp32_fallbacks, 0, "{r}");
    assert!(bits_eq(&outcome.out, &healthy), "repair restores the exact bits");
}

/// A persistent multi-bit BRAM defect defeats ABFT's single-fault
/// correction model, so the default mode walks the full ladder: detect,
/// retry with backoff, and finally degrade the affected rows to fp32 —
/// with the output still inside the bfp8 quantization envelope.
#[test]
fn abft_escalates_persistent_bram_fault_to_fp32() {
    let _x = lock();
    let a = seeded(24, 16, 0xB4A0);
    let b = seeded(16, 16, 0xB4A0 ^ 0xFFFF);
    let q = Quantizer::paper();
    let exact = a.matmul(&b);
    let healthy = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
    let envelope = exact
        .data()
        .iter()
        .zip(healthy.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0f32, f32::max);

    // Double-bit upset in the first word of BRAM 0: SECDED flags it on
    // every read, the corrupted payload breaks the checksum invariant
    // across multiple columns, and no retry can outlast it.
    let plan = FaultPlan::new().with(FaultSpec::BramFlip {
        bram: 0,
        addr: 0,
        bits: vec![3, 7],
    });
    let guard = bfp_faults::install(plan);
    let outcome = resilient_matmul(&a, &b, &q, &RecoveryPolicy::default()).unwrap();
    drop(guard);

    let r = &outcome.report;
    assert!(r.counters.ecc_uncorrected > 0, "{r}");
    assert!(r.detected > 0, "{r}");
    assert!(r.retries > 0, "{r}");
    assert!(r.backoff_cycles > 0, "{r}");
    assert!(r.fp32_fallbacks > 0, "{r}");

    for (got, want) in outcome.out.data().iter().zip(exact.data()) {
        assert!(
            (got - want).abs() <= envelope + 1e-4,
            "degraded output must stay in the bfp8 envelope"
        );
    }
}

/// A single persistent raw flip in operand BRAM 0 under the checked
/// kernel is never silent corruption: the output is either bit-equal to
/// the clean product or the report names the chains it could not repair.
#[test]
fn abft_never_accepts_a_persistent_raw_bram_flip_silently() {
    let _x = lock();
    let q = Quantizer::paper();
    let a = MatF32::from_fn(16, 16, |i, j| ((i * 31 + j * 7) % 13) as f32 - 6.0);
    let b = MatF32::from_fn(16, 16, |i, j| ((i * 17 + j * 5) % 11) as f32 - 5.0);
    let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
    let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
    let (golden, clean) = pa.matmul(&pb).unwrap();
    assert!(clean.clean(), "{clean:?}");

    let plan = FaultPlan::new().with(FaultSpec::BramRawFlip {
        bram: 0,
        addr: 0,
        mask: 0x10,
    });
    let guard = bfp_faults::install(plan);
    let (out, r) = pa.matmul(&pb).unwrap();
    drop(guard);

    assert!(
        bits_eq(&out, &golden) || !r.uncorrected.is_empty(),
        "corrupted output accepted with no uncorrected chains: {r:?}"
    );
    // Today's report: three invariant mismatches, two resolved by checksum
    // resyncs, and chain (0, 0) left for the caller to retry or fall back.
    assert_eq!(r.detections, 3, "{r:?}");
    assert_eq!(r.corrected_checksums, 2, "{r:?}");
    assert_eq!(r.uncorrected, vec![(0, 0)], "{r:?}");
}

/// `System::matmul_blocks` snapshots the fault counters into
/// `SystemStats`, so even the plain (non-resilient) parallel path reports
/// what it absorbed.
#[test]
fn system_stats_carry_fault_counters() {
    let _x = lock();
    let sys = bfp_platform::System::paper();
    let a = seeded(32, 16, 0xACE);
    let b = seeded(16, 16, 0xCAFE);

    // Corrected-only plan: numerics stay exact, counters still tick. The
    // functional path reads PSU words through the drain hook, so use a
    // low-bit PSU flip — visible in counters, negligible numerically…
    let plan = FaultPlan::new().with(FaultSpec::PsuFlip {
        nth: 0,
        row: 0,
        col: 0,
        bit: 0,
    });
    let guard = bfp_faults::install(plan);
    let (_, stats) = sys.matmul_f32(&a, &b);
    drop(guard);

    assert!(stats.faults.counters.injected > 0);
}
