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
//!
//! The shard mechanism lives next to the kernel
//! ([`PackedBfp::matmul_epilogue_parallel`] on [`bfp_arith::fork`]), so the
//! transformer engine runs the same one; this layer owns only the policy.

use bfp_arith::error::ArithError;
use bfp_arith::fork;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{EpilogueCtx, PackedBfp, PARALLEL_MIN_SHARD_MACS};

/// How to shard a packed GEMM across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Deterministic single-thread execution (the serial kernel, always).
    Serial,
    /// Shard block-rows across up to `n` threads when the shape is large
    /// enough to amortise fork/join; small shapes fall back to serial.
    Threads(usize),
    /// `Threads(`[`fork::host_threads`]`())`.
    Auto,
}

impl ParallelPolicy {
    /// The thread budget this policy resolves to on this host.
    pub fn threads(self) -> usize {
        match self {
            ParallelPolicy::Serial => 1,
            ParallelPolicy::Threads(n) => n.max(1),
            ParallelPolicy::Auto => fork::host_threads(),
        }
    }
}

/// Packed GEMM with block-row sharding under `policy`: the policy's budget
/// through [`fork::shards`], every shard carrying at least
/// [`PARALLEL_MIN_SHARD_MACS`]. Bit-identical to [`PackedBfp::matmul`]
/// (and therefore to `BfpMatrix::try_matmul` and the cycle simulator) for
/// every policy.
pub fn packed_matmul(
    a: &PackedBfp,
    b: &PackedBfp,
    policy: ParallelPolicy,
) -> Result<MatF32, ArithError> {
    let macs = a.rows() as u64 * a.cols() as u64 * b.cols() as u64;
    let shards = fork::shards(policy.threads(), macs, PARALLEL_MIN_SHARD_MACS);
    let noop = |_: &mut [f32], _: &EpilogueCtx| {};
    a.matmul_epilogue_parallel(b, &mut vec![noop; shards])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_arith::quant::Quantizer;

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
        // 336·320·320 ≈ 34 M MACs, well over two shards' worth of
        // PARALLEL_MIN_SHARD_MACS, so a multi-core host really forks.
        let a = spiky(336, 320);
        let b = spiky(320, 320);
        assert_eq!(
            fork::shards(2, 336 * 320 * 320, PARALLEL_MIN_SHARD_MACS),
            2.min(fork::host_threads())
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

    /// Quantize and pack both operands, then run [`packed_matmul`].
    fn quantized_matmul(a: &MatF32, b: &MatF32, policy: ParallelPolicy) -> MatF32 {
        let q = Quantizer::paper();
        let pa = PackedBfp::quantize_lhs(&q, a).unwrap();
        let pb = PackedBfp::quantize_rhs(&q, b).unwrap();
        packed_matmul(&pa, &pb, policy).unwrap()
    }

    #[test]
    fn small_shapes_fall_back_to_serial_and_stay_exact() {
        let q = Quantizer::paper();
        let a = spiky(16, 24);
        let b = spiky(24, 8);
        let got = quantized_matmul(&a, &b, ParallelPolicy::Auto);
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
        let got = quantized_matmul(&a, &b, ParallelPolicy::Threads(7));
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
        assert_eq!(ParallelPolicy::Auto.threads(), fork::host_threads());
    }
}
