//! Block-row-parallel packed GEMM: the multi-core twin of
//! [`bfp_arith::packed::PackedBfp::matmul`].
//!
//! Every (bi, bj) output tile of the bfp datapath owns an independent
//! exponent-alignment chain — no partial result ever crosses a block-row
//! boundary — so the output grid can be sharded by block-rows across OS
//! threads and recomposed without changing a single bit. This mirrors how
//! [`bfp_platform::System`] shards the *cycle simulation* across modelled
//! arrays; here the same axis parallelises the *fast functional* kernel.
//!
//! Determinism: each shard writes a disjoint slice of the output buffer
//! and shares nothing else, so the result is independent of scheduling
//! and thread count, and identical to the serial kernel. The
//! cross-check proptests at the workspace root pin
//! `parallel == serial == naive == cycle simulator`.

use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{max_shards, PackedBfp};
use bfp_arith::quant::Quantizer;

/// How to shard a packed GEMM across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Deterministic single-thread execution (the serial kernel, always).
    Serial,
    /// Shard block-rows across up to `n` threads when the shape is large
    /// enough to amortise fork/join; small shapes fall back to serial.
    Threads(usize),
    /// `Threads(available_parallelism())`.
    Auto,
}

impl ParallelPolicy {
    /// The thread budget this policy resolves to on this host.
    pub fn threads(self) -> usize {
        match self {
            ParallelPolicy::Serial => 1,
            ParallelPolicy::Threads(n) => n.max(1),
            ParallelPolicy::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Host hardware thread count (what [`ParallelPolicy::Auto`] resolves to).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread count [`packed_matmul`] actually uses for a GEMM with `mb`
/// block-rows and `macs` scalar MACs under `policy`: the policy's budget
/// clamped so that (a) the GEMM forks into at most [`max_shards`] shards
/// (each carries enough work to repay the fork/join), (b) the kernel
/// never runs more threads than the host has cores — an explicit
/// `Threads(n)` larger than the machine only adds context-switch overhead
/// on the same silicon — and (c) at most one thread per block-row.
pub fn effective_threads(policy: ParallelPolicy, mb: usize, macs: u64) -> usize {
    policy
        .threads()
        .min(host_parallelism())
        .min(max_shards(macs))
        .min(mb.max(1))
}

/// Packed GEMM with block-row sharding under `policy`. Bit-identical to
/// [`PackedBfp::matmul`] (and therefore to `BfpMatrix::try_matmul` and the
/// cycle simulator) for every policy.
pub fn packed_matmul(
    a: &PackedBfp,
    b: &PackedBfp,
    policy: ParallelPolicy,
) -> Result<MatF32, ArithError> {
    a.check_compatible(b)?;
    let (mb, _) = a.grid();
    let macs = a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    let threads = effective_threads(policy, mb, macs);
    if threads <= 1 {
        return a.matmul(b);
    }
    // The shard mechanism itself lives next to the kernel in bfp-arith so
    // the transformer engine can reuse it; this layer owns only the policy
    // (thread budget + fork/join threshold).
    a.matmul_parallel(b, threads)
}

/// Quantize two `f32` matrices and multiply them on the packed fast path
/// (the functional counterpart of [`bfp_platform::System::try_matmul_f32`],
/// without cycle accounting).
pub fn fast_matmul_f32(
    q: &Quantizer,
    a: &MatF32,
    b: &MatF32,
    policy: ParallelPolicy,
) -> Result<MatF32, ArithError> {
    let pa = PackedBfp::quantize_lhs(q, a)?;
    let pb = PackedBfp::quantize_rhs(q, b)?;
    packed_matmul(&pa, &pb, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_arith::packed::PARALLEL_MIN_SHARD_MACS;

    fn spiky(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| {
            let base = ((i * 29 + j * 11) % 17) as f32 - 8.0;
            match (i / 8 + j / 8) % 3 {
                0 => base * 512.0,
                1 => base * 0.002,
                _ => base,
            }
        })
    }

    fn assert_bits_eq(a: &MatF32, b: &MatF32) {
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_and_naive() {
        let q = Quantizer::paper();
        // 336·320·320 ≈ 34 M MACs, four shards' worth of
        // PARALLEL_MIN_SHARD_MACS, so a multi-core host really forks.
        let a = spiky(336, 320);
        let b = spiky(320, 320);
        assert_eq!(
            effective_threads(ParallelPolicy::Threads(2), 42, 336 * 320 * 320),
            2.min(host_parallelism())
        );
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let naive = qa.try_matmul(&qb).unwrap();
        let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
        for policy in [
            ParallelPolicy::Serial,
            ParallelPolicy::Threads(2),
            ParallelPolicy::Threads(5),
            ParallelPolicy::Threads(64),
            ParallelPolicy::Auto,
        ] {
            let got = packed_matmul(&pa, &pb, policy).unwrap();
            assert_bits_eq(&got, &naive);
        }
    }

    #[test]
    fn small_shapes_fall_back_to_serial_and_stay_exact() {
        let q = Quantizer::paper();
        let a = spiky(16, 24);
        let b = spiky(24, 8);
        let got = fast_matmul_f32(&q, &a, &b, ParallelPolicy::Auto).unwrap();
        let want = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
        assert_bits_eq(&got, &want);
    }

    #[test]
    fn odd_block_row_counts_shard_cleanly() {
        let q = Quantizer::paper();
        // 197 rows -> 25 block rows, not divisible by typical thread counts;
        // also a non-multiple-of-8 logical edge in both dimensions.
        let a = spiky(197, 96);
        let b = spiky(96, 131);
        let got = fast_matmul_f32(&q, &a, &b, ParallelPolicy::Threads(7)).unwrap();
        let want = q
            .quantize(&a)
            .unwrap()
            .try_matmul(&q.quantize(&b).unwrap())
            .unwrap();
        assert_bits_eq(&got, &want);
    }

    #[test]
    fn dimension_errors_are_typed() {
        let q = Quantizer::paper();
        let a = PackedBfp::quantize_lhs(&q, &spiky(16, 16)).unwrap();
        let b = PackedBfp::quantize_rhs(&q, &spiky(8, 8)).unwrap();
        assert!(matches!(
            packed_matmul(&a, &b, ParallelPolicy::Auto),
            Err(ArithError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn policy_thread_budgets() {
        assert_eq!(ParallelPolicy::Serial.threads(), 1);
        assert_eq!(ParallelPolicy::Threads(0).threads(), 1);
        assert_eq!(ParallelPolicy::Threads(6).threads(), 6);
        assert!(ParallelPolicy::Auto.threads() >= 1);
    }

    #[test]
    fn effective_threads_respects_every_clamp() {
        // DeiT-Small MLP shape: 197·384·1536 ≈ 116 M MACs, 25 block rows.
        // The per-shard minimum caps at 14 threads regardless of the policy
        // budget.
        let macs = 197u64 * 384 * 1536;
        let host = ParallelPolicy::Auto.threads();
        let t = effective_threads(ParallelPolicy::Threads(64), 25, macs);
        assert!(t <= 14, "per-shard MAC minimum: {t}");
        assert!(t <= host, "never oversubscribe the host: {t} > {host}");
        assert!(t <= 25, "never more threads than block rows");
        // Below two shards' worth of work everything degenerates to serial,
        // even with an explicit multi-thread budget — a per-head attention
        // product above all; a projection GEMM (197·384·384 ≈ 29 M) forks.
        let two_shards = 2 * PARALLEL_MIN_SHARD_MACS;
        assert_eq!(effective_threads(ParallelPolicy::Threads(8), 25, two_shards - 1), 1);
        assert_eq!(effective_threads(ParallelPolicy::Threads(8), 25, 197 * 64 * 197), 1);
        assert_eq!(effective_threads(ParallelPolicy::Threads(2), 25, two_shards), 2.min(host));
        assert_eq!(effective_threads(ParallelPolicy::Threads(2), 25, 197 * 384 * 384), 2.min(host));
        assert_eq!(effective_threads(ParallelPolicy::Serial, 25, macs), 1);
        // A shape with a single block row cannot shard.
        assert_eq!(effective_threads(ParallelPolicy::Auto, 1, macs), 1);
    }
}
