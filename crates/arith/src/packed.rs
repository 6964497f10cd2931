//! Packed-layout bfp GEMM: the fast execution path of the bfp8 datapath.
//!
//! [`crate::quant::BfpMatrix`] keeps its tiles as a `Vec` of per-block
//! heap allocations and its reference kernel re-walks that grid on every
//! one of the O((M/b)·(K/b)·(N/b)) block visits. [`PackedBfp`] stores the
//! same quantized data in two flat, contiguous buffers:
//!
//! * one `i8` mantissa plane, **block-contiguous** — all `b×b` mantissas
//!   of a tile sit next to each other, tiles laid out row-major over the
//!   grid;
//! * one `i8` shared-exponent plane, one entry per tile.
//!
//! The right-hand operand is additionally stored **block-transposed**
//! (within every tile, column `j` of the original becomes a contiguous
//! run), so the innermost int8 dot product of the kernel reads both
//! operands at unit stride — exactly the access pattern the systolic
//! array's column cascade realises in hardware, and the pattern LLVM
//! auto-vectorises.
//!
//! The kernel itself ([`PackedBfp::matmul`] and its fused variants, all
//! one tile driver) runs each (bi, bj) output tile's whole
//! exponent-alignment chain in one place: no wide scratch tile is written
//! and re-read, and no block is ever copied out of the grid. For the
//! paper's 8×8 blocks the chain keeps its accumulator in registers as i32
//! for the entire K loop. On an AVX-512 VNNI host a plain chain runs on
//! `chain_quad_vnni512` (`vpdpbusd` on zmm, four output tiles per call,
//! u8-offset RHS, the steps where no tile's exponent moves accumulated
//! directly) and an ABFT-checked one of [`crate::abft`] on
//! `chain_pair_vnni512` (two tiles per call); on any other AVX2 host both
//! run `chain_i32_avx2` (`vpmaddwd`, one body for plain and checked
//! chains, a `const CHECKED: bool`). Every other case takes the i64 chain
//! loop, which is also every register kernel's bit oracle.
//! `ChainKernel::select` is the only place a tier is chosen. A chain
//! call's tiles leave as one row-major strip (8×32 for a quad): one drain
//! call, one epilogue call, one copy per strip row into the output.
//! Whichever runs, the result is **bit-identical** to
//! [`crate::quant::BfpMatrix::try_matmul`] and therefore to the `bfp-pu`
//! cycle simulator — the integer tile products are exact, so the kernels
//! change evaluation order only where integer addition is associative.
//! The equivalence is pinned by unit tests here and by the cross-check
//! proptests at the workspace root.
//!
//! Every (bi, bj) accumulation chain is independent, so block-rows can be
//! computed concurrently without changing a single output bit:
//! [`PackedBfp::matmul_epilogue_parallel`] shards them through
//! [`crate::fork`], and its callers pick the shard count.

use crate::bfp::shift_right_trunc;
use crate::error::ArithError;
use crate::matrix::MatF32;
use crate::quant::{BfpMatrix, Quantizer, RoundMode, TileSrc};

/// Which operand side a [`PackedBfp`] is laid out for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackSide {
    /// Left operand: tiles stored row-major (rows contiguous).
    Lhs,
    /// Right operand: tiles stored block-transposed (columns contiguous).
    Rhs,
}

/// A quantized matrix in the packed, kernel-ready layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBfp {
    rows: usize,
    cols: usize,
    block: usize,
    block_rows: usize,
    block_cols: usize,
    side: PackSide,
    /// Per-tile shared exponents, grid row-major.
    exps: Vec<i8>,
    /// Block-contiguous mantissa plane; tile `(bi, bj)` occupies
    /// `[(bi·block_cols + bj)·b², …)`. Within a tile: row-major for
    /// [`PackSide::Lhs`], transposed (column-major) for [`PackSide::Rhs`].
    man: Vec<i8>,
}

impl PackedBfp {
    /// Pack a quantized matrix as a left operand.
    pub fn pack_lhs(m: &BfpMatrix) -> PackedBfp {
        Self::pack(m, PackSide::Lhs)
    }

    /// Pack a quantized matrix as a right operand (block-transposed).
    pub fn pack_rhs(m: &BfpMatrix) -> PackedBfp {
        Self::pack(m, PackSide::Rhs)
    }

    /// Quantize and pack in one step.
    pub fn quantize_lhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Ok(Self::pack_lhs(&q.quantize(m)?))
    }

    /// Quantize and pack the right operand in one step.
    pub fn quantize_rhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Ok(Self::pack_rhs(&q.quantize(m)?))
    }

    /// Fused quantize-and-pack for the left operand: f32 straight to the
    /// block-major i8 mantissa plane, no intermediate [`BfpMatrix`].
    ///
    /// Bit-identical (including error values and which error fires first)
    /// to [`PackedBfp::quantize_lhs`]: tiles are visited in the same order
    /// and each runs the scalar tile loop the composed path runs, or — the
    /// paper's configuration on an AVX2 host — the lane kernel
    /// (`quantize_tile_avx2`) pinned to that loop. The composed path stays
    /// scalar as the reference the equivalence tests pin this one against.
    pub fn quantize_pack_lhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Self::quantize_pack(q, m, PackSide::Lhs, 1)
    }

    /// [`PackedBfp::quantize_pack_lhs`] split into `shards` block-row
    /// ranges run through [`crate::fork::join`] (the caller picks the
    /// count with [`crate::fork::shards`] and [`PACK_MIN_SHARD_ELEMS`]).
    /// Each shard quantises a disjoint range of both planes, so the result
    /// is the serial pack's for any count: the same planes and, when tiles
    /// fail, the error of the first failing tile in tile order.
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn quantize_pack_lhs_parallel(
        q: &Quantizer,
        m: &MatF32,
        shards: usize,
    ) -> Result<PackedBfp, ArithError> {
        Self::quantize_pack(q, m, PackSide::Lhs, shards)
    }

    /// Fused quantize-and-pack for the right operand (block-transposed);
    /// see [`PackedBfp::quantize_pack_lhs`].
    pub fn quantize_pack_rhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Self::quantize_pack(q, m, PackSide::Rhs, 1)
    }

    fn quantize_pack(
        q: &Quantizer,
        m: &MatF32,
        side: PackSide,
        shards: usize,
    ) -> Result<PackedBfp, ArithError> {
        assert!(shards > 0, "at least one shard");
        let b = q.block;
        let br = m.rows().div_ceil(b);
        let bc = m.cols().div_ceil(b);
        let bb = b * b;
        let kernel = TileQuantizer::select(q);
        let mut exps = vec![0i8; br * bc];
        let mut man = vec![0i8; br * bc * bb];
        // Tiles per shard: whole block-rows, so shard `s` starts at tile
        // `s · per` and owns its own runs of both planes.
        let per = (br.div_ceil(shards) * bc).max(1);
        let mut workers: Vec<_> = man
            .chunks_mut(per * bb)
            .zip(exps.chunks_mut(per))
            .enumerate()
            .map(|(s, (man, exps))| (s * per, man, exps, Ok(())))
            .collect();
        crate::fork::join(&mut workers, |(t0, man, exps, res)| {
            *res = (man.chunks_exact_mut(bb).zip(exps.iter_mut()).enumerate()).try_for_each(
                |(i, (dst, exp))| {
                    let t = *t0 + i;
                    let tile = TileSrc::of(m, t / bc * b, t % bc * b, b);
                    *exp = kernel.quantize(q, &tile, side, dst)?;
                    Ok(())
                },
            );
        });
        // Each shard stopped at its first failing tile, so the first shard
        // that failed holds the first failing tile in tile order.
        workers.into_iter().try_for_each(|(.., res)| res)?;
        Ok(PackedBfp {
            rows: m.rows(),
            cols: m.cols(),
            block: b,
            block_rows: br,
            block_cols: bc,
            side,
            exps,
            man,
        })
    }

    fn pack(m: &BfpMatrix, side: PackSide) -> PackedBfp {
        let b = m.block();
        let (br, bc) = m.grid();
        let bb = b * b;
        let mut exps = Vec::with_capacity(br * bc);
        let mut man = vec![0i8; br * bc * bb];
        for bi in 0..br {
            for bj in 0..bc {
                let g = m.block_at(bi, bj);
                exps.push(g.exp);
                let dst = &mut man[(bi * bc + bj) * bb..(bi * bc + bj + 1) * bb];
                match side {
                    PackSide::Lhs => dst.copy_from_slice(&g.man),
                    PackSide::Rhs => {
                        // Block-transpose: column j becomes run j.
                        for j in 0..b {
                            for i in 0..b {
                                dst[j * b + i] = g.man[i * b + j];
                            }
                        }
                    }
                }
            }
        }
        PackedBfp {
            rows: m.rows(),
            cols: m.cols(),
            block: b,
            block_rows: br,
            block_cols: bc,
            side,
            exps,
            man,
        }
    }

    /// Logical (unpadded) row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (unpadded) column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block side length.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Grid dimensions in blocks `(block_rows, block_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.block_rows, self.block_cols)
    }

    /// Which side this packing is for.
    pub fn side(&self) -> PackSide {
        self.side
    }

    /// Approximate heap footprint in bytes (mantissas + exponents).
    pub fn bytes(&self) -> usize {
        self.man.len() + self.exps.len()
    }

    /// The block-contiguous mantissa plane (see struct docs for layout).
    /// Exposed for the checksum-augmented kernel in [`crate::abft`].
    pub(crate) fn man_plane(&self) -> &[i8] {
        &self.man
    }

    /// The per-tile shared-exponent plane, grid row-major.
    pub(crate) fn exp_plane(&self) -> &[i8] {
        &self.exps
    }

    /// Dequantize back to `f32`, one pass per block (padding discarded).
    /// Bit-identical to [`BfpMatrix::dequantize`] on the same data.
    pub fn dequantize(&self) -> MatF32 {
        let b = self.block;
        let bb = b * b;
        let cols = self.cols;
        let mut out = MatF32::zeros(self.rows, self.cols);
        let data = out.data_mut();
        for bi in 0..self.block_rows {
            let imax = b.min(self.rows - bi * b);
            for bj in 0..self.block_cols {
                let jmax = b.min(self.cols - bj * b);
                let tile = &self.man[(bi * self.block_cols + bj) * bb..][..bb];
                let scale = (self.exps[bi * self.block_cols + bj] as f64).exp2();
                for i in 0..imax {
                    let dst = &mut data[(bi * b + i) * cols + bj * b..][..jmax];
                    match self.side {
                        PackSide::Lhs => {
                            for (j, o) in dst.iter_mut().enumerate() {
                                *o = (tile[i * b + j] as f64 * scale) as f32;
                            }
                        }
                        PackSide::Rhs => {
                            for (j, o) in dst.iter_mut().enumerate() {
                                *o = (tile[j * b + i] as f64 * scale) as f32;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Validate that `self · rhs` is a well-formed packed GEMM.
    pub fn check_compatible(&self, rhs: &PackedBfp) -> Result<(), ArithError> {
        if self.side != PackSide::Lhs || rhs.side != PackSide::Rhs {
            return Err(ArithError::DimensionMismatch {
                got: format!("lhs packed {:?}, rhs packed {:?}", self.side, rhs.side),
                expected: "lhs packed Lhs, rhs packed Rhs".into(),
            });
        }
        if self.cols != rhs.rows {
            return Err(ArithError::DimensionMismatch {
                got: format!(
                    "lhs {}x{}, rhs {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
                expected: "lhs cols == rhs rows".into(),
            });
        }
        if self.block != rhs.block {
            return Err(ArithError::DimensionMismatch {
                got: format!("block {} vs {}", self.block, rhs.block),
                expected: "matching block sizes".into(),
            });
        }
        Ok(())
    }

    /// Packed GEMM: bit-identical to [`BfpMatrix::try_matmul`] on the same
    /// quantized operands, with zero per-block copies.
    pub fn matmul(&self, rhs: &PackedBfp) -> Result<MatF32, ArithError> {
        self.matmul_epilogue(rhs, |_: &mut [f32], _: &EpilogueCtx| {})
    }
}

/// Fewest scalar MACs one shard of a forked packed GEMM should carry (the
/// `min_per_shard` its callers pass to [`crate::fork::shards`]), so a GEMM
/// forks from 2 M MACs up and stays serial below that.
///
/// Measured on the 2-vCPU reference box (AVX-512 VNNI) against the pool
/// [`crate::fork::join`] runs on (≈ 1 µs per fork): serial ÷ two-shard
/// time, median (q1–q3) of 300–5000 interleaved pairs; a range is the
/// spread of medians over two to six runs:
///
/// | shape | MACs | serial ÷ two shards |
/// |---|---|---|
/// | 197×384×8 | 0.6 M | 1.60–1.74 (q1 ≥ 1.27) |
/// | 197×384×16 | 1.2 M | 1.70–1.78 (q1 ≥ 1.41) |
/// | 197×64×98 | 1.2 M | 0.91–1.36 (q1 0.80–1.12) |
/// | 197×64×197, a head's Q·Kᵀ | 2.5 M | 1.00–1.23 (q1 0.86–1.04) |
/// | 197×197×64, a head's P·V | 2.5 M | 1.20–1.71 (q1 0.88–1.52) |
/// | 197×384×32 … 192 | 2.4–14.5 M | 1.22–1.65 |
/// | 197×384×384, a projection | 29 M | 1.39–1.55 |
/// | 197×384×1536, 197×1536×384, the MLP | 116 M | 1.82–1.89 (1.53–1.61 cycling 24 weights) |
///
/// A long reduction wins from well under 1 M MACs; the short `K = 64`
/// ones DeiT-Small's attention issues are the weakest case: level at
/// 1.2 M, and at 2.5 M ahead in five runs of six (Q·Kᵀ) and in all six
/// (P·V). So a shard carries 1 M: both per-head products fork, the level
/// 1.2 M shape does not. Not measured on a host with more than two cores.
pub const PARALLEL_MIN_SHARD_MACS: u64 = 1_000_000;

/// Fewest f32 elements one shard of a forked activation quantize-pack
/// ([`PackedBfp::quantize_pack_lhs_parallel`]) should carry, so a pack
/// forks from 12 288 elements up.
///
/// Measured like [`PARALLEL_MIN_SHARD_MACS`] (paper quantizer, lane tile
/// kernel, 3000 interleaved pairs, two runs):
///
/// | LHS | elements | serial | serial ÷ two shards |
/// |---|---|---|---|
/// | 64×64 | 4.1 k | 2.6–2.9 µs | 0.85–0.87 |
/// | 128×64 | 8.2 k | 4.6–5.1 µs | 0.95–1.04 |
/// | 197×64, a head's Q | 12.6 k | 7.1–8.0 µs | 1.13–1.23 (q1 ≥ 1.10) |
/// | 128×128 | 16.4 k | 8.8–9.8 µs | 1.15–1.31 |
/// | 197×197, a head's P | 38.8 k | 23 µs | 1.42–1.44 |
/// | 197×384, q/k/v, proj, fc1 | 75.6 k | 40–43 µs | 1.56–1.62 |
/// | 197×1536, fc2 | 302.6 k | 169 µs | 1.59 |
///
/// 12.6 k is the first size that wins outside its spread, so a shard is
/// 6 144 and every activation DeiT-Small packs as a left operand forks.
pub const PACK_MIN_SHARD_ELEMS: u64 = 6_144;

/// Geometry of one hot output buffer as seen by a fused epilogue: `imax`
/// rows `b` apart, anchored at `(r0, c0)` of the logical output matrix,
/// whose `imax × jmax` top-left region holds real (unpadded) elements —
/// one strip per chain call (the call's tiles side by side) from the
/// packed GEMM, one tile from the ABFT-checked one.
#[derive(Debug, Clone, Copy)]
pub struct EpilogueCtx {
    /// Absolute output row of the buffer's first element.
    pub r0: usize,
    /// Absolute output column of the buffer's first element.
    pub c0: usize,
    /// Valid rows in this buffer (`<= block`).
    pub imax: usize,
    /// Valid columns in this buffer (`<= b`).
    pub jmax: usize,
    /// The buffer's row stride: `n · block` for a strip of `n` tiles
    /// (`block` for a single tile).
    pub b: usize,
}

impl PackedBfp {
    /// Packed GEMM with a fused epilogue: each chain call's output tiles
    /// are dequantized side by side into one strip (four 8×8 tiles on the
    /// AVX-512 VNNI tier, one tile elsewhere; see [`EpilogueCtx`]), handed
    /// to `epi` while still L1-hot, and only then written to the f32
    /// output.
    ///
    /// The GEMM bits entering the epilogue are identical to
    /// [`PackedBfp::matmul`]'s output (same accumulation chain, same
    /// `(acc · 2^exp) as f32` dequantize), so an element-wise epilogue —
    /// bias add, activation, residual add — produces exactly the bits the
    /// composed GEMM-then-separate-pass pipeline produces, without
    /// materialising the intermediate matrix twice. Strips are visited in
    /// `(bi, bj)` row-major order.
    ///
    /// `K = 0` chains still run the epilogue over an all-zero strip, just
    /// as the composed path applies its element passes to the zero matrix.
    pub fn matmul_epilogue<E>(&self, rhs: &PackedBfp, mut epi: E) -> Result<MatF32, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
    {
        self.check_compatible(rhs)?;
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        self.fused_rows(rhs, 0, self.block_rows, &mut epi, out.data_mut());
        Ok(out)
    }

    /// The sharded packed GEMM: [`PackedBfp::matmul_epilogue`] with one
    /// block-row shard per epilogue in `epis`, run through
    /// [`crate::fork::join`] (the caller picks the count with
    /// [`crate::fork::shards`]; a plain GEMM passes no-op closures). Each
    /// shard owns its epilogue, so stateful ones — op-counting VPU
    /// emulations — never race; with more epilogues than block-rows the
    /// extras stay unused. Bit-identical to the serial kernel for any
    /// shard count because every `(bi, bj)` chain is independent and each
    /// shard owns a disjoint output slice.
    ///
    /// # Panics
    /// Panics if `epis` is empty.
    pub fn matmul_epilogue_parallel<E>(
        &self,
        rhs: &PackedBfp,
        epis: &mut [E],
    ) -> Result<MatF32, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx) + Send,
    {
        self.check_compatible(rhs)?;
        assert!(!epis.is_empty(), "at least one epilogue");
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        let per = self.block_rows.div_ceil(epis.len());
        let mut shards: Vec<_> = out
            .data_mut()
            .chunks_mut((per * self.block * rhs.cols).max(1))
            .zip(epis)
            .enumerate()
            .map(|(s, (buf, epi))| (s * per, buf, epi))
            .collect();
        crate::fork::join(&mut shards, |(lo, buf, epi)| {
            let hi = (*lo + per).min(self.block_rows);
            self.fused_rows(rhs, *lo, hi, *epi, buf)
        });
        Ok(out)
    }

    /// The one tile driver behind every packed GEMM, on the chain kernel
    /// [`ChainKernel::select`] picks for this call.
    fn fused_rows<E>(
        &self,
        rhs: &PackedBfp,
        bi_lo: usize,
        bi_hi: usize,
        epi: &mut E,
        out_rows: &mut [f32],
    ) where
        E: FnMut(&mut [f32], &EpilogueCtx),
    {
        let kernel = ChainKernel::select(self.block, self.block_cols, false);
        self.fused_rows_on(kernel, rhs, bi_lo, bi_hi, epi, out_rows)
    }

    /// Computes output tiles `bi_lo..bi_hi` in `(bi, bj)` row-major order,
    /// one chain call at a time: runs the call's exponent-alignment chains
    /// on `kernel` (`Vnni512` runs four adjacent tiles per call, the others
    /// one), drains its `n` tiles into one `imax × n·b` row-major strip,
    /// applies `epi` once to the hot strip, then copies each strip row's
    /// valid region into `out_rows`, the row-major f32 buffer whose first
    /// row is output row `bi_lo·b` and whose rows are the full logical
    /// width. Every kernel produces the same aligned integers, and the lane
    /// drains the register kernels use are the scalar drain's IEEE
    /// operations, so the choice never changes a bit.
    fn fused_rows_on<E>(
        &self,
        kernel: ChainKernel,
        rhs: &PackedBfp,
        bi_lo: usize,
        bi_hi: usize,
        epi: &mut E,
        out_rows: &mut [f32],
    ) where
        E: FnMut(&mut [f32], &EpilogueCtx),
    {
        let b = self.block;
        let bb = b * b;
        let kb = self.block_cols;
        let mut prod = vec![0i32; bb];
        let mut acc64 = vec![0i64; bb];
        // A register chain's LHS block-row staging, filled once per `bi` and
        // reused by all chains of the row (≤ 24 KB at DeiT's K ≤ 1536).
        let mut xs = vec![0i32; kernel.staged_words(kb)];
        #[cfg(target_arch = "x86_64")]
        let mut acc32 = [[0i32; 64]; 4];
        // A chain call computes at most four tiles.
        let mut strip = vec![0f32; 4 * bb];
        for bi in bi_lo..bi_hi {
            let imax = b.min(self.rows - bi * b);
            let x = &self.man[bi * kb * bb..][..kb * bb];
            kernel.stage_lhs(x, &mut xs);
            let out_block = &mut out_rows[(bi - bi_lo) * b * rhs.cols..];
            let mut bj = 0;
            while bj < rhs.block_cols {
                // How many tiles from `bj` on this call computed, and their
                // exponents.
                let (n, exps) = match kernel {
                    #[cfg(target_arch = "x86_64")]
                    ChainKernel::Avx2I32 | ChainKernel::Vnni512 => {
                        let x_exps = &self.exps[bi * kb..][..kb];
                        let plain = &mut ChainSums::default();
                        kernel.chain_i32::<false>(x, &xs, x_exps, rhs, bj, plain, &mut acc32)
                    }
                    ChainKernel::I64 => {
                        let exp = self.chain_i64(rhs, bi, bj, &mut prod, &mut acc64);
                        (1, [exp, None, None, None])
                    }
                };
                let (c0, stride) = (bj * b, n * b);
                let hot = &mut strip[..imax * stride];
                match kernel {
                    #[cfg(target_arch = "x86_64")]
                    ChainKernel::Avx2I32 | ChainKernel::Vnni512 => {
                        kernel.drain_i32(hot, &acc32[..n], &exps[..n])
                    }
                    ChainKernel::I64 => drain(hot, acc64.iter().map(|&a| a as f64), exps[0]),
                }
                let ctx = EpilogueCtx {
                    r0: bi * b,
                    c0,
                    imax,
                    jmax: stride.min(rhs.cols - c0),
                    b: stride,
                };
                epi(hot, &ctx);
                for (dst, src) in out_block.chunks_mut(rhs.cols).zip(hot.chunks_exact(stride)) {
                    dst[c0..][..ctx.jmax].copy_from_slice(&src[..ctx.jmax]);
                }
                bj += n;
            }
        }
    }

    /// One `(bi, bj)` exponent-alignment chain on an i64 accumulator: any
    /// block size, any `K`. This is [`BfpMatrix::try_matmul`]'s chain on
    /// the packed planes — the generic-block path, the path of hosts
    /// without AVX2, and the bit oracle of both register chains. Leaves the
    /// aligned sums in `acc` and returns their shared exponent (`None`
    /// for `K = 0`).
    fn chain_i64(
        &self,
        rhs: &PackedBfp,
        bi: usize,
        bj: usize,
        prod: &mut [i32],
        acc: &mut [i64],
    ) -> Option<i32> {
        let b = self.block;
        let bb = b * b;
        let kb = self.block_cols;
        let nb = rhs.block_cols;
        let mut acc_exp = None;
        acc.fill(0);
        for bk in 0..kb {
            let x = &self.man[(bi * kb + bk) * bb..][..bb];
            let y = &rhs.man[(bk * nb + bj) * bb..][..bb];
            let pexp = self.exps[bi * kb + bk] as i32 + rhs.exps[bk * nb + bj] as i32;
            match (<&[i8; 64]>::try_from(x), <&[i8; 64]>::try_from(y)) {
                (Ok(x), Ok(y)) => tile8_product(x, y, prod.try_into().expect("b == 8 tile")),
                _ => {
                    for i in 0..b {
                        let xr = &x[i * b..][..b];
                        for j in 0..b {
                            prod[i * b + j] = dot_i8(xr, &y[j * b..][..b]);
                        }
                    }
                }
            }
            // The chain merge, i64 width. The first product meets a zero
            // accumulator at its own exponent, so it needs no arm of its own.
            let cur = acc_exp.unwrap_or(pexp);
            if pexp >= cur {
                let sh = (pexp - cur) as u32;
                for (a, &p) in acc.iter_mut().zip(prod.iter()) {
                    *a = shift_right_trunc(*a, sh) + p as i64;
                }
            } else {
                let sh = (cur - pexp) as u32;
                for (a, &p) in acc.iter_mut().zip(prod.iter()) {
                    *a += shift_right_trunc(p as i64, sh);
                }
            }
            acc_exp = Some(cur.max(pexp));
        }
        acc_exp
    }
}

/// Tile steps (`K/8`) from which the i32 chain could overflow. One 8×8
/// tile product is at most 8·128·128 = 2¹⁷ in magnitude and an arithmetic
/// right shift never grows magnitude, so after `n` chain steps
/// `|acc| ≤ n·2¹⁷`: every chain shorter than 2¹⁴ steps (K < 131 072) fits
/// i32 exactly. Longer chains take the i64 loop.
///
/// The bound holds for the VNNI chains too, offset included. A merged
/// row product is `c + Σ x·(y + 128)` from the row correction
/// `c = −128·Σₖ x[i][k]`, `|c| ≤ 128·8·128 = 2¹⁷`, and each `vpdpbusd`
/// adds less than `4·255·128 < 2¹⁷`, so no intermediate reaches 2¹⁸ and
/// the non-saturating `vpdpbusd` never wraps; each row ends as the exact
/// tile product, so `|acc| ≤ n·2¹⁷` is unchanged. Their per-lane
/// `vpsravd` sign-fills for counts ≥ 32, as `shift_right_trunc` does for
/// every shift ≥ 32 of a value that fits i32.
///
/// [`chain_quad_vnni512`]'s direct stretches are exact under the same
/// bound although their partial sums may leave i32. Inside a stretch the
/// accumulators take `Σ x·(y + 128)` without the corrections, which wait
/// in a register of their own, so a partial sum can pass 2³¹. But
/// `vpdpbusd` is the wrapping form and every operation up to the stretch's
/// fold is an addition mod 2³². The fold adds the corrections before any
/// `vpsravd` of the accumulators and before the drain, so every value that
/// is shifted or drained is congruent mod 2³² to the true sum, and that
/// sum lies inside i32 by `|acc| ≤ n·2¹⁷`: it is the true sum.
const I32_CHAIN_MAX_KB: usize = 1 << 14;

/// The same bound for a checked chain, whose checksum lanes grow eight
/// times faster than a data row: a lane is the sum of a row or column of
/// eight accumulators, so `|chk| ≤ 8·n·2¹⁷ = n·2²⁰` (per step: a pack-time
/// lane entry sums eight mantissas, `|xc| ≤ 2¹⁰`, and the checksum product
/// is `|cp| ≤ 8·2¹⁰·2⁷ = 2²⁰`). Chains shorter than 2¹¹ steps (K < 16 384)
/// keep the lanes inside i32.
///
/// The offset does not move it. [`chain_pair_vnni512`] grows `cp` from the
/// u8 RHS `y + 128`, starting from `−128·Σₖ xc[k]` (`|·| ≤ 2²⁰`) and adding
/// `Σ xc·(y + 128)` (`< 8·2¹⁰·2⁸ = 2²¹`), so no intermediate reaches 2²²
/// and the non-saturating `vpdpwssd` never wraps; the step ends as the
/// exact `cp`, and the lanes grow by `|cp| ≤ 2²⁰` as before.
const CHECKED_CHAIN_MAX_KB: usize = 1 << 11;

/// The kernel that runs a call's `(bi, bj)` alignment chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainKernel {
    /// The scalar i64 loops, plain and checked: any block, `K` and host.
    I64,
    /// [`chain_i32_avx2`]: the paper's `b == 8` on an AVX2 host, plain or
    /// checked. Only [`ChainKernel::select`] produces it, which is the
    /// proof of AVX2 its `unsafe` callers cite.
    #[cfg(target_arch = "x86_64")]
    Avx2I32,
    /// `b == 8` chains on an AVX2 + AVX-512 F, BW and VNNI host: plain
    /// ones on [`chain_quad_vnni512`], four output tiles per call, checked
    /// ones on [`chain_pair_vnni512`], two. Only [`ChainKernel::select`]
    /// produces it, which is the proof of those features its `unsafe`
    /// callers cite.
    #[cfg(target_arch = "x86_64")]
    Vnni512,
}

impl ChainKernel {
    /// The fastest kernel for `block`-sized tiles and chains of `kb` steps,
    /// `checked` or plain, on this host (runtime feature detection, once
    /// per call). Checked and plain chains take the same tier; a checked
    /// chain's lanes bound it to shorter chains. A host with AVX-VNNI but
    /// no AVX-512 runs the AVX2 tier.
    pub(crate) fn select(block: usize, kb: usize, checked: bool) -> ChainKernel {
        #[cfg(target_arch = "x86_64")]
        {
            let max_kb = if checked {
                CHECKED_CHAIN_MAX_KB
            } else {
                I32_CHAIN_MAX_KB
            };
            if block == 8 && kb < max_kb && is_x86_feature_detected!("avx2") {
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vnni")
                {
                    return ChainKernel::Vnni512;
                }
                return ChainKernel::Avx2I32;
            }
        }
        ChainKernel::I64
    }

    /// Words of LHS scratch [`ChainKernel::stage_lhs`] fills for a
    /// block-row of `kb` tile steps.
    pub(crate) fn staged_words(self, kb: usize) -> usize {
        match self {
            ChainKernel::I64 => 0,
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Avx2I32 => kb * 32,
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Vnni512 => kb * 8,
        }
    }

    /// Stage an LHS block-row `x` (row-major 8×8 tiles) for this kernel's
    /// row product: i16 k-pairs for `Avx2I32`, the row corrections for
    /// `Vnni512` (which broadcasts its k-quads from the plane itself). The
    /// i64 loop reads the plane itself.
    pub(crate) fn stage_lhs(self, x: &[i8], xs: &mut [i32]) {
        match self {
            ChainKernel::I64 => {}
            // SAFETY: `Avx2I32` is only selected after detecting AVX2.
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Avx2I32 => unsafe { widen_k_pairs_avx2(x, xs) },
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Vnni512 => row_corrections(x, xs),
        }
    }

    /// Stage what a checked chain's lanes take from an LHS block-row `x`
    /// and its pack-time column-sum lanes `xc` (eight i16 per tile step),
    /// into [`ChainSums::xc`]. Per step for `Avx2I32` the lane's four
    /// k-pairs `(xc[2n], xc[2n+1])`, its ninth row (its ninth column reads
    /// [`ChainKernel::stage_lhs`]'s k-pairs); for `Vnni512`
    /// [`VNNI_LANE_WORDS`] words: the offset term `−128·Σₖ xc[k]`, per
    /// k-quad `q` the pairs `(xc[4q], xc[4q+2])` and `(xc[4q+1], xc[4q+3])`
    /// that meet the quad's even and odd bytes, then the four registers of
    /// the ninth column's LHS side, the rows' i16 k-pairs in `rchk`'s order.
    pub(crate) fn stage_lanes(self, x: &[i8], xc: &[i16], out: &mut Vec<i32>) {
        let pair = |a: i16, b: i16| (a as u16 as i32) | (b as i32) << 16;
        out.clear();
        match self {
            ChainKernel::I64 => {}
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Avx2I32 => {
                for c in xc.chunks_exact(8) {
                    out.extend((0..4).map(|n| pair(c[2 * n], c[2 * n + 1])));
                }
            }
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Vnni512 => {
                out.resize(xc.len() / 8 * VNNI_LANE_WORDS, 0);
                let steps = out.chunks_exact_mut(VNNI_LANE_WORDS);
                for (c, out) in xc.chunks_exact(8).zip(steps) {
                    out[0] = -128 * c.iter().map(|&v| v as i32).sum::<i32>();
                    out[1..5].copy_from_slice(&[
                        pair(c[0], c[2]),
                        pair(c[1], c[3]),
                        pair(c[4], c[6]),
                        pair(c[5], c[7]),
                    ]);
                }
                // SAFETY: `Vnni512` is only selected after detecting AVX-512
                // F and BW.
                unsafe { ninth_column_pairs_avx512(x, out) }
            }
        }
    }

    /// The chains from output tile `(·, bj)` on, `CHECKED` or plain: one
    /// tile on `Avx2I32`; on `Vnni512` the pair `(·, bj)`, `(·, bj + 1)`
    /// of a checked call and the four tiles from `(·, bj)` on of a plain
    /// one (fewer at the grid's right edge). `x` is the LHS block-row and
    /// `xs` what [`ChainKernel::stage_lhs`] left for it; `sums` carries a
    /// checked call's lanes in and out. Leaves tile `t`'s sums in `acc[t]`
    /// and returns how many tiles it computed and their exponents.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn chain_i32<const CHECKED: bool>(
        self,
        x: &[i8],
        xs: &[i32],
        x_exps: &[i8],
        rhs: &PackedBfp,
        bj: usize,
        sums: &mut ChainSums<'_>,
        acc: &mut [[i32; 64]; 4],
    ) -> (usize, [Option<i32>; 4]) {
        // SAFETY: only `select` produces a register kernel, and only after
        // detecting the features it needs.
        unsafe {
            match self {
                ChainKernel::Avx2I32 => {
                    let exp = chain_i32_avx2::<CHECKED>(xs, x_exps, rhs, bj, sums, &mut acc[0]);
                    (1, [exp, None, None, None])
                }
                ChainKernel::Vnni512 if CHECKED => {
                    let [a, b, ..] = acc;
                    let (n, [ea, eb]) = chain_pair_vnni512(x, xs, x_exps, rhs, bj, sums, [a, b]);
                    (n, [ea, eb, None, None])
                }
                ChainKernel::Vnni512 => chain_quad_vnni512(x, xs, x_exps, rhs, bj, acc),
                ChainKernel::I64 => unreachable!("the i64 chain is `PackedBfp::chain_i64`"),
            }
        }
    }

    /// [`drain`] of a register chain call's i32 sums on this kernel's
    /// lanes, eight at a time on `Vnni512`, four on `Avx2I32`: tile `t`'s
    /// sums `acc[t]` at exponent `exps[t]` into columns `8t..8t + 8` of the
    /// row-major `strip`, whose rows are `8·acc.len()` wide. Both are the
    /// scalar drain's IEEE operations, so the bits are its bits.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn drain_i32(self, strip: &mut [f32], acc: &[[i32; 64]], exps: &[Option<i32>]) {
        // SAFETY: only `select` produces a register kernel, and only after
        // detecting AVX2 (and AVX-512 F for `Vnni512`).
        unsafe {
            match self {
                ChainKernel::Vnni512 => drain_lanes512(strip, acc, exps),
                ChainKernel::Avx2I32 => drain_lanes(strip, acc, exps),
                ChainKernel::I64 => unreachable!("the i64 chain drains through `drain`"),
            }
        }
    }

    /// [`drain`] of a chain's wide sums on this kernel: through
    /// [`ChainKernel::drain_i32`] on a register kernel when every sum fits
    /// i32, else the scalar loop.
    pub(crate) fn drain_wide(self, tile: &mut [f32], acc: &[i64], exp: Option<i32>) {
        #[cfg(target_arch = "x86_64")]
        if self != ChainKernel::I64 {
            let mut narrow = [0i32; 64];
            let mut fits = acc.len() == 64;
            for (n, &a) in narrow.iter_mut().zip(acc) {
                *n = a as i32;
                fits &= *n as i64 == a;
            }
            if fits {
                return self.drain_i32(tile, &[narrow], &[exp]);
            }
        }
        drain(tile, acc.iter().map(|&a| a as f64), exp)
    }
}

/// The chain body a bfp8 (`b == 8`) GEMM, `checked` or plain, runs on this
/// host, as `ChainKernel::select` picks it: `"avx512-vnni (4 tiles)"` for a
/// plain chain and `"avx512-vnni (2 tiles)"` for a checked one, else
/// `"avx2"` or `"i64"`.
pub fn chain_tier(checked: bool) -> &'static str {
    match ChainKernel::select(8, 1, checked) {
        ChainKernel::I64 => "i64",
        #[cfg(target_arch = "x86_64")]
        ChainKernel::Avx2I32 => "avx2",
        #[cfg(target_arch = "x86_64")]
        ChainKernel::Vnni512 if checked => "avx512-vnni (2 tiles)",
        #[cfg(target_arch = "x86_64")]
        ChainKernel::Vnni512 => "avx512-vnni (4 tiles)",
    }
}

/// Dequantize one chain's aligned sums, `(acc · 2^exp) as f32`; a chain
/// without steps (`K = 0`, `exp` is `None`) is all zeros, as the reference
/// kernel leaves them. The i64 tier's drain, and the oracle of
/// [`drain_lanes`].
#[inline(always)]
fn drain(tile: &mut [f32], acc: impl Iterator<Item = f64>, exp: Option<i32>) {
    let Some(exp) = exp else {
        return tile.fill(0.0);
    };
    let scale = (exp as f64).exp2();
    for (o, a) in tile.iter_mut().zip(acc) {
        *o = (a * scale) as f32;
    }
}

/// [`drain`] on lanes for a register chain call's i32 sums, four at a
/// time: tile `t`'s sums `acc[t]` at exponent `exps[t]` into columns
/// `8t..8t + 8` of every row of the row-major `strip`, whose rows are
/// `8·acc.len()` wide. Per tile `vcvtdq2pd`, `vmulpd` by its own `2^exp`,
/// `vcvtpd2ps`. These are the scalar drain's IEEE operations — an exact
/// widening, a product that is exact (`|acc·2^exp|` stays inside f64's
/// normal range for every `i8 + i8` exponent), one round-to-nearest-even
/// narrowing to f32 — so the bits are its bits, subnormal and overflowing
/// results included.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn drain_lanes(strip: &mut [f32], acc: &[[i32; 64]], exps: &[Option<i32>]) {
    use std::arch::x86_64::*;
    let stride = strip_stride(strip, acc, exps);
    for (t, (a, &exp)) in acc.iter().zip(exps).enumerate() {
        let Some(exp) = exp else {
            zero_columns(strip, stride, t);
            continue;
        };
        let scale = _mm256_set1_pd((exp as f64).exp2());
        for (row, a) in strip.chunks_exact_mut(stride).zip(a.chunks_exact(8)) {
            for h in [0, 4] {
                // SAFETY: a 16-byte load inside the row's eight sums and a
                // 16-byte store inside the row's columns `8t..8t + 8`,
                // which `8t + 8 <= stride` keeps in the row.
                unsafe {
                    let wide = _mm256_cvtepi32_pd(_mm_loadu_si128(a.as_ptr().add(h).cast()));
                    let narrow = _mm256_cvtpd_ps(_mm256_mul_pd(wide, scale));
                    _mm_storeu_ps(row.as_mut_ptr().add(8 * t + h), narrow);
                }
            }
        }
    }
}

/// [`drain_lanes`] eight at a time on zmm: `vcvtdq2pd`, `vmulpd` by each
/// tile's `2^exp`, `vcvtpd2ps`, the same IEEE operations, so the same
/// bits. The scale is built from its bits: every `i8 + i8` exponent is a
/// normal f64.
///
/// # Safety
/// Callers must have verified AVX-512 F support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f")]
#[inline]
unsafe fn drain_lanes512(strip: &mut [f32], acc: &[[i32; 64]], exps: &[Option<i32>]) {
    use std::arch::x86_64::*;
    let stride = strip_stride(strip, acc, exps);
    for (t, (a, &exp)) in acc.iter().zip(exps).enumerate() {
        let Some(exp) = exp else {
            zero_columns(strip, stride, t);
            continue;
        };
        assert!((-1022..=1023).contains(&exp), "a normal scale");
        let scale = _mm512_set1_pd(f64::from_bits(((exp + 1023) as u64) << 52));
        for (row, a) in strip.chunks_exact_mut(stride).zip(a.chunks_exact(8)) {
            // SAFETY: a 32-byte load of the row's eight sums and a 32-byte
            // store of the row's columns `8t..8t + 8`, which `8t + 8 <=
            // stride` keeps in the row.
            unsafe {
                let wide = _mm512_cvtepi32_pd(_mm256_loadu_si256(a.as_ptr().cast()));
                let narrow = _mm512_cvtpd_ps(_mm512_mul_pd(wide, scale));
                _mm256_storeu_ps(row.as_mut_ptr().add(8 * t), narrow);
            }
        }
    }
}

/// `8·acc.len()`, the row stride of a lane drain's strip, once the strip
/// is at most eight whole rows of it and every tile has an exponent.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn strip_stride(strip: &[f32], acc: &[[i32; 64]], exps: &[Option<i32>]) -> usize {
    let stride = 8 * acc.len();
    assert!(
        acc.len() == exps.len()
            && stride > 0
            && strip.len().is_multiple_of(stride)
            && strip.len() <= 8 * stride,
        "whole rows of a strip, one exponent per tile"
    );
    stride
}

/// A `K = 0` tile's columns `8t..8t + 8` of every strip row: zeros, as
/// [`drain`] leaves them.
#[cfg(target_arch = "x86_64")]
fn zero_columns(strip: &mut [f32], stride: usize, t: usize) {
    for row in strip.chunks_exact_mut(stride) {
        row[8 * t..][..8].fill(0.0);
    }
}

/// Widen LHS mantissas to i16 and store them as the i32 k-pairs the AVX2
/// chain broadcasts: `xp[n] = (x[2n], x[2n+1])`, low half first. Tiles are
/// `[i][k]` row-major, so pair `p` of row `i` of tile `t` is
/// `xp[t·32 + i·4 + p]`.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_k_pairs_avx2(x: &[i8], xp: &mut [i32]) {
    use std::arch::x86_64::*;
    assert_eq!(x.len(), xp.len() * 2);
    for (src, dst) in x.chunks_exact(16).zip(xp.chunks_exact_mut(8)) {
        // SAFETY: one 16-byte load and one 32-byte store, each exactly
        // covering its chunk.
        unsafe {
            let v = _mm256_cvtepi8_epi16(_mm_loadu_si128(src.as_ptr() as *const __m128i));
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v);
        }
    }
}

/// The VNNI chain's row corrections of an LHS block-row `x` (row-major
/// 8×8 tiles): `c[t·8 + i] = −128·Σₖ x[t][i][k]`, the value every row-`i`
/// product of tile step `t` starts from, so that `c + Σ x·(y + 128)` is
/// the tile product `Σ x·y` — the PE's packed-MAC fix-up, a per-row
/// constant because the offset sits on the RHS.
#[cfg(target_arch = "x86_64")]
fn row_corrections(x: &[i8], c: &mut [i32]) {
    assert_eq!(x.len(), c.len() * 8);
    for (row, c) in x.chunks_exact(8).zip(c.iter_mut()) {
        *c = -128 * row.iter().map(|&v| v as i32).sum::<i32>();
    }
}

/// Words [`ChainKernel::stage_lanes`] stages per tile step for
/// [`chain_pair_vnni512`]'s lanes: five broadcast words, then four
/// 16-word registers.
#[cfg(target_arch = "x86_64")]
const VNNI_LANE_WORDS: usize = 5 + 4 * 16;

/// Fills the ninth-column registers of every step of `out`
/// ([`ChainKernel::stage_lanes`]'s `Vnni512` layout) from the LHS block-row
/// `x`: register `p` holds k-pair `p` of row `i`, `(x[i][2p], x[i][2p+1])`
/// as i16, in dwords `2i` and `2i + 1`, one for each tile of the pair.
///
/// # Safety
/// Callers must have verified AVX-512 F and BW support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw")]
unsafe fn ninth_column_pairs_avx512(x: &[i8], out: &mut [i32]) {
    use std::arch::x86_64::*;
    assert_eq!(x.len() / 64 * VNNI_LANE_WORDS, out.len());
    // Widened, a half-tile holds pair `p` of its row `i` in dword `4i + p`.
    let by_row = _mm512_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28);
    for (x, step) in x
        .chunks_exact(64)
        .zip(out.chunks_exact_mut(VNNI_LANE_WORDS))
    {
        let regs = &mut step[5..];
        // SAFETY: two 32-byte loads tiling the 64-byte tile and four 64-byte
        // stores tiling the step's 64 register words.
        unsafe {
            let xp = x.as_ptr() as *const __m256i;
            let lo = _mm512_cvtepi8_epi16(_mm256_loadu_si256(xp));
            let hi = _mm512_cvtepi8_epi16(_mm256_loadu_si256(xp.add(1)));
            for (p, reg) in regs.chunks_exact_mut(16).enumerate() {
                let idx = _mm512_add_epi32(by_row, _mm512_set1_epi32(p as i32));
                _mm512_storeu_epi32(reg.as_mut_ptr(), _mm512_permutex2var_epi32(lo, idx, hi));
            }
        }
    }
}

/// The checksum side of a checked register chain: in, the operands'
/// pack-time lanes; out, per output tile of the call (the second only on
/// the pair kernel), the lanes of the accumulator it returns. The plain
/// chain never touches it.
#[derive(Default)]
pub(crate) struct ChainSums<'a> {
    /// Column sums of the LHS block-row's tiles and what else its lanes
    /// take from the block-row, as [`ChainKernel::stage_lanes`] staged them
    /// for this kernel.
    pub xc: &'a [i32],
    /// Row sums of every RHS tile, eight per tile, grid row-major.
    pub yc: &'a [i16],
    /// Column sums (`chk`) and row sums of each returned accumulator.
    pub chk: [[i32; 8]; 2],
    pub rchk: [[i32; 8]; 2],
    /// Truncation events verified on the way, per tile.
    pub checks: [u64; 2],
    /// A verification of the tile failed: what the call returned for it is
    /// unusable. The caller replays that chain on the scalar loop, which
    /// localises.
    pub mismatch: [bool; 2],
    /// Test-only seam, per tile: before step `.0`, add `.2` to accumulator
    /// element `.1`.
    #[cfg(test)]
    pub upset: [Option<(usize, usize, i32)>; 2],
}

/// The register-resident `b == 8` chain: the whole K-loop of one `(·, bj)`
/// output tile with the 8×8 accumulator held in eight ymm registers as
/// i32 (row `i` in register `i`), the host twin of the PSU's aligned
/// accumulator.
///
/// Per tile step the RHS tile is sign-extended and transposed in registers
/// from its canonical `[j][k]` plane into four k-pair vectors
/// `P_p[j] = (y[j][2p], y[j][2p+1])` (4 `vpmovsxbw` + 8 unpacks); then each
/// output row is 4 `vpbroadcastd` of the row's k-pairs, 4 `vpmaddwd` and
/// 3 `vpaddd` — no horizontal add, no product store. The merge is the
/// alignment chain of [`PackedBfp::chain_i64`] at i32 width: with
/// `d = pexp − acc_exp`, a new maximum (`d > 0`, rare once the chain has
/// seen a few tiles, so the branch predicts) first shifts the accumulator
/// rows right by `d`; every step then adds `prod >> max(−d, 0)`. `vpsrad`
/// by a register count sign-fills for counts ≥ 32, which is what
/// `shift_right_trunc` returns for every shift ≥ 32 of a value that fits
/// i32, and `kb <` [`I32_CHAIN_MAX_KB`] keeps every sum inside i32, so the
/// sums are the i64 chain's exactly.
///
/// `CHECKED` carries the ABFT invariant of [`crate::abft`] in two more
/// registers, the way the device rides it in an augmented PE row and
/// column: `chk`, the accumulator's column sums, grows by a **ninth LHS
/// row** — the pack-time lane `xc` through the same row product — and
/// `rchk`, its row sums, by a **ninth RHS column** — the tile's k-pairs
/// against the lane `yc`, 4 `vpmaddwd` + 3 `vphaddd`. At a truncation
/// event (`d ≠ 0`) whatever is about to lose bits — the accumulator for
/// `d > 0`, the product for `d < 0` — is first compared with its lanes
/// (column sums by vertical adds, row sums by one `vphaddd` tree, one
/// `vptest`), then truncated and the lanes resynchronised from the
/// truncated rows: the scalar kernel's steps. A mismatch ends the chain
/// with [`ChainSums::mismatch`] set; `kb <` [`CHECKED_CHAIN_MAX_KB`] keeps
/// the lanes inside i32.
///
/// The in-lane unpacks leave output column `[0, 2, 4, 6, 1, 3, 5, 7][l]`
/// in lane `l`, and both `vphaddd` trees are paired to leave `rchk`'s rows
/// in the same order; one `vpermd` per register at the final store
/// restores natural order. Returns the chain's exponent, `None` for
/// `K = 0`.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chain_i32_avx2<const CHECKED: bool>(
    xp: &[i32],
    x_exps: &[i8],
    rhs: &PackedBfp,
    bj: usize,
    sums: &mut ChainSums<'_>,
    acc_out: &mut [i32; 64],
) -> Option<i32> {
    use std::arch::x86_64::*;

    // The helpers below are `#[inline(always)]` and carry no
    // `target_feature` of their own, so they fold into this function;
    // nothing else can name them.

    /// One output row: the row's four k-pairs against the transposed tile.
    #[inline(always)]
    unsafe fn row_product(x: &[i32], p: &[__m256i; 4]) -> __m256i {
        let m0 = _mm256_madd_epi16(_mm256_set1_epi32(x[0]), p[0]);
        let m1 = _mm256_madd_epi16(_mm256_set1_epi32(x[1]), p[1]);
        let m2 = _mm256_madd_epi16(_mm256_set1_epi32(x[2]), p[2]);
        let m3 = _mm256_madd_epi16(_mm256_set1_epi32(x[3]), p[3]);
        _mm256_add_epi32(_mm256_add_epi32(m0, m1), _mm256_add_epi32(m2, m3))
    }

    /// One step's checksum products from the pack-time lanes: `cp`, the
    /// LHS lane of step `bk` as a ninth row, and `rp`, the tile's k-pairs
    /// against the RHS lane of tile `yt`, rows in lane order
    /// `[0, 2, 4, 6, 1, 3, 5, 7]`. Called after the row products, so their
    /// k-pair broadcasts stay loads instead of shuffles of `rp`'s operands.
    #[inline(always)]
    unsafe fn ninth_row_and_column(
        sums: &ChainSums<'_>,
        bk: usize,
        yt: usize,
        x: &[i32; 32],
        p: &[__m256i; 4],
    ) -> (__m256i, __m256i) {
        let yc = &sums.yc[yt * 8..][..8];
        let cp = row_product(&sums.xc[bk * 4..][..4], p);
        // SAFETY: one 16-byte load of the lane's eight i16 and four 32-byte
        // loads tiling the 32 k-pairs, two rows each.
        let yc = _mm256_broadcastsi128_si256(_mm_loadu_si128(yc.as_ptr() as *const __m128i));
        let xr = x.as_ptr() as *const __m256i;
        let m01 = _mm256_madd_epi16(_mm256_loadu_si256(xr), yc);
        let m23 = _mm256_madd_epi16(_mm256_loadu_si256(xr.add(1)), yc);
        let m45 = _mm256_madd_epi16(_mm256_loadu_si256(xr.add(2)), yc);
        let m67 = _mm256_madd_epi16(_mm256_loadu_si256(xr.add(3)), yc);
        (
            cp,
            _mm256_hadd_epi32(_mm256_hadd_epi32(m01, m23), _mm256_hadd_epi32(m45, m67)),
        )
    }

    /// Column and row sums of eight rows, both in lane order
    /// `[0, 2, 4, 6, 1, 3, 5, 7]`.
    #[inline(always)]
    unsafe fn sums_of(r: &[__m256i; 8]) -> (__m256i, __m256i) {
        let cols = _mm256_add_epi32(
            _mm256_add_epi32(_mm256_add_epi32(r[0], r[1]), _mm256_add_epi32(r[2], r[3])),
            _mm256_add_epi32(_mm256_add_epi32(r[4], r[5]), _mm256_add_epi32(r[6], r[7])),
        );
        // Each half holds its four rows' sums over the low lane, then over
        // the high lane.
        let even = _mm256_hadd_epi32(_mm256_hadd_epi32(r[0], r[2]), _mm256_hadd_epi32(r[4], r[6]));
        let odd = _mm256_hadd_epi32(_mm256_hadd_epi32(r[1], r[3]), _mm256_hadd_epi32(r[5], r[7]));
        let rows = _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(even, odd),
            _mm256_permute2x128_si256::<0x31>(even, odd),
        );
        (cols, rows)
    }

    /// Whether `rows` sum to the lanes `chk` (columns) and `rchk` (rows).
    #[inline(always)]
    unsafe fn lanes_hold(chk: __m256i, rchk: __m256i, rows: &[__m256i; 8]) -> bool {
        let (cols, sums) = sums_of(rows);
        let bad = _mm256_or_si256(_mm256_xor_si256(cols, chk), _mm256_xor_si256(sums, rchk));
        _mm256_testz_si256(bad, bad) != 0
    }

    let kb = x_exps.len();
    let nb = rhs.block_cols;
    let max_kb = if CHECKED {
        CHECKED_CHAIN_MAX_KB
    } else {
        I32_CHAIN_MAX_KB
    };
    assert!(kb < max_kb, "chain too long for i32 accumulators");
    let zero = _mm256_setzero_si256();
    let mut acc = [zero; 8];
    let (mut chk, mut rchk, mut checks) = (zero, zero, 0u64);
    let mut acc_exp = None;
    for bk in 0..kb {
        let x: &[i32; 32] = xp[bk * 32..][..32].try_into().expect("8×4 k-pairs");
        let y: &[i8; 64] = rhs.man[(bk * nb + bj) * 64..][..64]
            .try_into()
            .expect("8×8 tile");
        let pexp = x_exps[bk] as i32 + rhs.exps[bk * nb + bj] as i32;
        let cur = acc_exp.unwrap_or(pexp);
        let d = pexp - cur;
        acc_exp = Some(cur.max(pexp));
        #[cfg(test)]
        if let Some((_, e, delta)) = sums.upset[0].filter(|u| CHECKED && u.0 == bk) {
            let mut row = [0i32; 8];
            // SAFETY: one 32-byte store and load over the 8-element array.
            unsafe {
                _mm256_storeu_si256(row.as_mut_ptr() as *mut __m256i, acc[e / 8]);
                row[(e % 8) >> 1 | (e % 2) << 2] += delta;
                acc[e / 8] = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
            }
        }
        // SAFETY: four 16-byte loads inside the 64-byte tile.
        let (r01, r23, r45, r67) = unsafe {
            let yp = y.as_ptr() as *const __m128i;
            (
                _mm256_cvtepi8_epi16(_mm_loadu_si128(yp)),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(yp.add(1))),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(yp.add(2))),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(yp.add(3))),
            )
        };
        // r_ab holds run a in its low lane and run b in its high lane, four
        // k-pairs each; two unpack levels gather pair p of all eight runs.
        let lo0123 = _mm256_unpacklo_epi32(r01, r23);
        let hi0123 = _mm256_unpackhi_epi32(r01, r23);
        let lo4567 = _mm256_unpacklo_epi32(r45, r67);
        let hi4567 = _mm256_unpackhi_epi32(r45, r67);
        let p = [
            _mm256_unpacklo_epi64(lo0123, lo4567),
            _mm256_unpackhi_epi64(lo0123, lo4567),
            _mm256_unpacklo_epi64(hi0123, hi4567),
            _mm256_unpackhi_epi64(hi0123, hi4567),
        ];
        if CHECKED {
            checks += (d != 0) as u64;
        }
        if d > 0 {
            if CHECKED && !lanes_hold(chk, rchk, &acc) {
                sums.mismatch[0] = true;
                return None;
            }
            let sh = _mm_cvtsi32_si128(d);
            for a in acc.iter_mut() {
                *a = _mm256_sra_epi32(*a, sh);
            }
            if CHECKED {
                (chk, rchk) = sums_of(&acc);
            }
        }
        let sh_prod = _mm_cvtsi32_si128((-d).max(0));
        // This step's checksum products, or for a product that lost bits
        // the sums of what was merged.
        let (mut cp, mut rp) = (zero, zero);
        if CHECKED && d < 0 {
            // The product is about to lose bits: hold all of it, verify it
            // against its own lanes, then merge the truncated rows and
            // their sums.
            let mut prod = [zero; 8];
            for (i, t) in prod.iter_mut().enumerate() {
                *t = row_product(&x[i * 4..][..4], &p);
            }
            (cp, rp) = ninth_row_and_column(sums, bk, bk * nb + bj, x, &p);
            if !lanes_hold(cp, rp, &prod) {
                sums.mismatch[0] = true;
                return None;
            }
            for (a, t) in acc.iter_mut().zip(prod.iter_mut()) {
                *t = _mm256_sra_epi32(*t, sh_prod);
                *a = _mm256_add_epi32(*a, *t);
            }
            (cp, rp) = sums_of(&prod);
        } else {
            for (i, a) in acc.iter_mut().enumerate() {
                let prod = row_product(&x[i * 4..][..4], &p);
                // The chain merge, i32 width.
                *a = _mm256_add_epi32(*a, _mm256_sra_epi32(prod, sh_prod));
            }
            if CHECKED {
                (cp, rp) = ninth_row_and_column(sums, bk, bk * nb + bj, x, &p);
            }
        }
        if CHECKED {
            chk = _mm256_add_epi32(chk, cp);
            rchk = _mm256_add_epi32(rchk, rp);
        }
    }
    let natural = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (i, a) in acc.iter().enumerate() {
        // SAFETY: eight 32-byte stores tiling the 64-element array.
        unsafe {
            _mm256_storeu_si256(
                acc_out.as_mut_ptr().add(i * 8) as *mut __m256i,
                _mm256_permutevar8x32_epi32(*a, natural),
            );
        }
    }
    if CHECKED {
        // SAFETY: one 32-byte store over each 8-element array.
        unsafe {
            let (chk, rchk) = (
                _mm256_permutevar8x32_epi32(chk, natural),
                _mm256_permutevar8x32_epi32(rchk, natural),
            );
            _mm256_storeu_si256(sums.chk[0].as_mut_ptr() as *mut __m256i, chk);
            _mm256_storeu_si256(sums.rchk[0].as_mut_ptr() as *mut __m256i, rchk);
        }
        sums.checks[0] = checks;
        sums.mismatch[0] = false;
    }
    acc_exp
}

/// The checked register chain on zmm: the whole K-loop of the two
/// adjacent output tiles `A = (·, bj)` and `B = (·, bj + 1)` side by side,
/// row `i` of both accumulators in zmm register `i` as i32, with
/// `vpdpbusd`'s 64 MACs per instruction, and both tiles' ABFT lanes. The
/// plain chain is [`chain_quad_vnni512`], which shares its row product,
/// lane layout and per-lane merge.
///
/// `vpdpbusd` multiplies u8 by i8, so the RHS is the u8 side: per tile
/// step A's and B's canonical `[j][k]` tiles — adjacent 64-byte tiles of
/// the plane — are two zmm loads; two `vshufps` gather k-quad `q` of all
/// sixteen runs, `P_q = (y[j][4q..4q+4])`, and two `vpxord` of `0x80`
/// turn them into `y + 128`. Each output row then starts from a broadcast
/// of its row correction `c = −128·Σₖ x[i][k]`, staged once per block-row
/// by [`row_corrections`], and runs two `vpdpbusd` of its i8 k-quads,
/// broadcast straight from the LHS plane: `c + Σ x·(y + 128) = Σ x·y`.
///
/// The merge is [`chain_i32_avx2`]'s alignment chain, branch-free per
/// lane: each tile keeps its own exponent, and `vpsravd` shifts by a count
/// vector holding A's `max(−d, 0)` in A's lanes and B's in B's (B's lanes
/// are 2 and 3 of every 128-bit lane, mask `0xCCCC`). The rare step where
/// either `d > 0` first shifts the accumulators by the same kind of
/// vector of `max(d, 0)`. `vpsravd` sign-fills for counts ≥ 32, which is
/// `shift_right_trunc` on a value that fits i32, and the exactness
/// argument at [`I32_CHAIN_MAX_KB`] bounds every sum, so the sums are the
/// i64 chain's exactly. A lone last tile (odd `nb`) pairs with a zero
/// register, whose lanes stay zero and are never returned.
///
/// Both tiles' ABFT lanes ride in two more registers. `chk`,
/// the column sums, is laid out like a data row and grows by a **ninth
/// LHS row**: the pack-time lane `xc` in i16 k-pairs against the even and
/// odd bytes of `P_q` (`vpand`, `vpsrlw`, four `vpdpwssd`), started from
/// the staged offset term `−128·Σₖ xc[k]`. `rchk`, the row sums, holds row
/// `i` of tile `t` in dword `2i + t` and grows by a **ninth RHS column**:
/// each row's i16 k-pairs (staged per block-row by
/// [`ChainKernel::stage_lanes`]) against its tile's lane `yc` (four
/// `vpermd`), four `vpdpwssd`. A step where either tile has `d ≠ 0`
/// verifies, for that tile, whatever is about to lose bits — the
/// accumulator for `d > 0`, the product for `d < 0` — against its lanes
/// before it truncates (column sums by vertical adds, row sums by a
/// `vshufps`/`vshufi32x4` tree), as [`chain_i32_avx2`] and the scalar
/// kernel do; the other tile's lanes keep their checksum products. The
/// lanes then follow the truncated values, the scalar kernel's
/// resynchronisation, in two parts: an accumulator shift takes the shifted
/// rows' sums at once, and a product's truncated rows go to eight
/// registers `trunc` whose sums are taken at the tile's next accumulator
/// check and at the end, one tree instead of one per step. A tile whose
/// check fails is marked in [`ChainSums::mismatch`] and the chain runs on
/// for its partner; `kb <` [`CHECKED_CHAIN_MAX_KB`] keeps the lanes
/// inside i32.
///
/// `vshufps` leaves A's column `[0, 1, 4, 5, 2, 3, 6, 7]`-interleaved
/// with B's; one `vpermd` per row at the final store puts A's row in the
/// low half and B's in the high half. Stores tile `t`'s sums in
/// `acc_out[t]` and returns how many tiles it computed (2, or 1 for a lone
/// last tile) and their exponents, `None` for `K = 0`.
///
/// # Safety
/// Callers must have verified AVX2 and AVX-512 F, BW and VNNI support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
unsafe fn chain_pair_vnni512(
    x: &[i8],
    corr: &[i32],
    x_exps: &[i8],
    rhs: &PackedBfp,
    bj: usize,
    sums: &mut ChainSums<'_>,
    acc_out: [&mut [i32; 64]; 2],
) -> (usize, [Option<i32>; 2]) {
    use std::arch::x86_64::*;

    // The helpers below are `#[inline(always)]` and carry no
    // `target_feature` of their own, so they fold into this function.

    /// Tile A's dwords in a column-ordered register (a data row, `chk`) and
    /// in a row-ordered one (`rchk`); B's are the rest.
    const COLS_A: u16 = 0x3333;
    const ROWS_A: u16 = 0x5555;

    /// The dwords of the tiles `on` picks, in a register whose tile-A
    /// dwords are `a`.
    #[inline(always)]
    fn lanes_of(on: [bool; 2], a: u16) -> u16 {
        (if on[0] { a } else { 0 }) | (if on[1] { !a } else { 0 })
    }

    /// Per 128-bit lane `(r A, r B, s A, s B)`: the lane's share of two
    /// rows' sums, by the data path's own two `vshufps`.
    #[inline(always)]
    unsafe fn row_pair(r: __m512i, s: __m512i) -> __m512i {
        let (r, s) = (_mm512_castsi512_ps(r), _mm512_castsi512_ps(s));
        _mm512_add_epi32(
            _mm512_castps_si512(_mm512_shuffle_ps::<0b10_00_10_00>(r, s)),
            _mm512_castps_si512(_mm512_shuffle_ps::<0b11_01_11_01>(r, s)),
        )
    }

    /// Adjacent 128-bit lanes added, `u`'s pairs low and `v`'s high.
    #[inline(always)]
    unsafe fn fold(u: __m512i, v: __m512i) -> __m512i {
        _mm512_add_epi32(
            _mm512_shuffle_i32x4::<0b10_00_10_00>(u, v),
            _mm512_shuffle_i32x4::<0b11_01_11_01>(u, v),
        )
    }

    /// Column sums of eight rows (column order) and their row sums (row
    /// `i` of tile `t` in dword `2i + t`).
    #[inline(always)]
    unsafe fn sums_of(r: &[__m512i; 8]) -> (__m512i, __m512i) {
        let cols = _mm512_add_epi32(
            _mm512_add_epi32(_mm512_add_epi32(r[0], r[1]), _mm512_add_epi32(r[2], r[3])),
            _mm512_add_epi32(_mm512_add_epi32(r[4], r[5]), _mm512_add_epi32(r[6], r[7])),
        );
        let rows = fold(
            fold(row_pair(r[0], r[1]), row_pair(r[2], r[3])),
            fold(row_pair(r[4], r[5]), row_pair(r[6], r[7])),
        );
        (cols, rows)
    }

    /// The dwords where the column and row sums of `rows` miss the lanes
    /// `chk` and `rchk`.
    #[inline(always)]
    unsafe fn misses(rows: &[__m512i; 8], chk: __m512i, rchk: __m512i) -> (u16, u16) {
        let (cols, sums) = sums_of(rows);
        (
            _mm512_cmpneq_epi32_mask(cols, chk),
            _mm512_cmpneq_epi32_mask(sums, rchk),
        )
    }

    let kb = x_exps.len();
    let nb = rhs.block_cols;
    assert!(kb < CHECKED_CHAIN_MAX_KB, "chain too long for i32 lanes");
    assert_eq!((x.len(), corr.len()), (kb * 64, kb * 8));
    let pair = bj + 1 < nb;
    let tiles = 1 + pair as usize;
    let zero = _mm512_setzero_si512();
    let flip = _mm512_set1_epi8(-128);
    let even_bytes = _mm512_set1_epi16(0xFF);
    // `rchk`'s dword `2i + t` gathers k-pair `p` of tile `t`'s lane `yc`
    // from the lanes of both tiles (`4t + p`).
    let y_pairs = _mm512_setr_epi32(0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4);
    let mut acc = [zero; 8];
    let mut exps = [None; 2];
    // The lanes are `chk`, `rchk` plus the sums of `trunc`:
    // the lanes grow by each step's checksum products, except where a tile
    // verified its product and merged it truncated, which `trunc` collects
    // until the tile's next accumulator check or the end, where its sums
    // are taken.
    let (mut chk, mut rchk) = (zero, zero);
    let mut trunc = [zero; 8];
    let mut checks = [0u64; 2];
    // The dwords of failed checks, column- and row-ordered.
    let (mut bad_cols, mut bad_rows) = (0u16, 0u16);
    for bk in 0..kb {
        let t = bk * nb + bj;
        let y = &rhs.man[t * 64..][..tiles * 64];
        let xt = &x[bk * 64..][..64];
        let c = &corr[bk * 8..][..8];
        let xe = x_exps[bk] as i32;
        let pexp_a = xe + rhs.exps[t] as i32;
        // A lone tile's zero partner walks A's exponents.
        let pexp_b = if pair {
            xe + rhs.exps[t + 1] as i32
        } else {
            pexp_a
        };
        let cur_a = exps[0].unwrap_or(pexp_a);
        let cur_b = exps[1].unwrap_or(pexp_b);
        let (da, db) = (pexp_a - cur_a, pexp_b - cur_b);
        exps = [Some(cur_a.max(pexp_a)), Some(cur_b.max(pexp_b))];
        #[cfg(test)]
        for (tile, u) in sums.upset.iter().enumerate() {
            if let Some((_, e, delta)) = u.filter(|u| u.0 == bk) {
                let (i, j) = (e / 8, e % 8);
                let mut row = [0i32; 16];
                // SAFETY: one 64-byte store and load over the 16-element array.
                unsafe {
                    _mm512_storeu_epi32(row.as_mut_ptr(), acc[i]);
                    row[j / 2 * 4 + tile * 2 + j % 2] += delta;
                    acc[i] = _mm512_loadu_epi32(row.as_ptr());
                }
            }
        }
        // SAFETY: one 64-byte load per tile of `y`, which holds `tiles`.
        let (ya, yb) = unsafe {
            let yp = y.as_ptr() as *const f32;
            let yb = if pair {
                _mm512_loadu_ps(yp.add(16))
            } else {
                _mm512_setzero_ps()
            };
            (_mm512_loadu_ps(yp), yb)
        };
        // Each 128-bit lane holds two runs as (quad 0, quad 1) pairs; the
        // even and odd dwords are quads 0 and 1, A's in dwords 0, 1 and
        // B's in dwords 2, 3 of every lane.
        let p0 = _mm512_castps_si512(_mm512_shuffle_ps::<0b10_00_10_00>(ya, yb));
        let p1 = _mm512_castps_si512(_mm512_shuffle_ps::<0b11_01_11_01>(ya, yb));
        let (p0, p1) = (_mm512_xor_si512(p0, flip), _mm512_xor_si512(p1, flip));
        // This step's checksum products.
        checks[0] += (da != 0) as u64;
        checks[1] += (db != 0) as u64;
        let xl = &sums.xc[bk * VNNI_LANE_WORDS..][..VNNI_LANE_WORDS];
        let mut cp = _mm512_set1_epi32(xl[0]);
        for (q, p) in [p0, p1].into_iter().enumerate() {
            let lo = _mm512_and_si512(p, even_bytes);
            let hi = _mm512_srli_epi16::<8>(p);
            cp = _mm512_dpwssd_epi32(cp, lo, _mm512_set1_epi32(xl[1 + 2 * q]));
            cp = _mm512_dpwssd_epi32(cp, hi, _mm512_set1_epi32(xl[2 + 2 * q]));
        }
        // SAFETY: one 16-byte load of each tile's eight-entry lane.
        let yc = unsafe {
            let yc = sums.yc[t * 8..][..tiles * 8].as_ptr() as *const __m128i;
            let yb = if pair {
                _mm_loadu_si128(yc.add(1))
            } else {
                _mm_setzero_si128()
            };
            _mm512_castsi256_si512(_mm256_set_m128i(yb, _mm_loadu_si128(yc)))
        };
        let mut rp = zero;
        for (p, xs) in xl[5..].chunks_exact(16).enumerate() {
            // SAFETY: one 64-byte load of the 16-word register.
            let xs = unsafe { _mm512_loadu_epi32(xs.as_ptr()) };
            let idx = _mm512_add_epi32(y_pairs, _mm512_set1_epi32(p as i32));
            rp = _mm512_dpwssd_epi32(rp, xs, _mm512_permutexvar_epi32(idx, yc));
        }
        if da > 0 || db > 0 {
            let grow = [da > 0, db > 0];
            let (cols, rows) = (lanes_of(grow, COLS_A), lanes_of(grow, ROWS_A));
            // The growing tile's accumulator, less `trunc`, against the
            // lanes.
            let mut rest = acc;
            for (r, e) in rest.iter_mut().zip(&trunc) {
                *r = _mm512_sub_epi32(*r, *e);
            }
            let (c, r) = misses(&rest, chk, rchk);
            (bad_cols, bad_rows) = (bad_cols | c & cols, bad_rows | r & rows);
            let sh = _mm512_mask_set1_epi32(_mm512_set1_epi32(da.max(0)), 0xCCCC, db.max(0));
            for a in acc.iter_mut() {
                *a = _mm512_srav_epi32(*a, sh);
            }
            let (c, r) = sums_of(&acc);
            chk = _mm512_mask_blend_epi32(cols, chk, c);
            rchk = _mm512_mask_blend_epi32(rows, rchk, r);
            for e in trunc.iter_mut() {
                *e = _mm512_mask_mov_epi32(*e, cols, zero);
            }
        }
        let sh = _mm512_mask_set1_epi32(_mm512_set1_epi32((-da).max(0)), 0xCCCC, (-db).max(0));
        let xq = xt.as_ptr() as *const i32;
        let row_product = |i: usize| {
            // SAFETY: dwords `2i` and `2i + 1` of the 64-byte tile `xt`,
            // row `i`'s two k-quads.
            let (q0, q1) = unsafe {
                (
                    xq.add(2 * i).read_unaligned(),
                    xq.add(2 * i + 1).read_unaligned(),
                )
            };
            let half = _mm512_dpbusd_epi32(_mm512_set1_epi32(c[i]), p0, _mm512_set1_epi32(q0));
            _mm512_dpbusd_epi32(half, p1, _mm512_set1_epi32(q1))
        };
        if da < 0 || db < 0 {
            // A product is about to lose bits: hold both tiles', verify the
            // falling tile's against its checksum products, then merge the
            // truncated rows, and collect the falling tile's in `trunc`.
            let fall = [da < 0, db < 0];
            let (cols, rows) = (lanes_of(fall, COLS_A), lanes_of(fall, ROWS_A));
            let mut prod = [zero; 8];
            for (i, t) in prod.iter_mut().enumerate() {
                *t = row_product(i);
            }
            let (c, r) = misses(&prod, cp, rp);
            (bad_cols, bad_rows) = (bad_cols | c & cols, bad_rows | r & rows);
            for ((a, e), t) in acc.iter_mut().zip(trunc.iter_mut()).zip(prod) {
                let t = _mm512_srav_epi32(t, sh);
                *a = _mm512_add_epi32(*a, t);
                *e = _mm512_mask_add_epi32(*e, cols, *e, t);
            }
            cp = _mm512_maskz_mov_epi32(!cols, cp);
            rp = _mm512_maskz_mov_epi32(!rows, rp);
        } else {
            for (i, a) in acc.iter_mut().enumerate() {
                // The chain merge, i32 width; no lane gets here with a
                // product shift.
                *a = _mm512_add_epi32(*a, row_product(i));
            }
        }
        chk = _mm512_add_epi32(chk, cp);
        rchk = _mm512_add_epi32(rchk, rp);
    }
    let natural = _mm512_setr_epi32(0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15);
    let [out_a, out_b] = acc_out;
    for (i, a) in acc.iter().enumerate() {
        let rows = _mm512_permutexvar_epi32(natural, *a);
        let (row_a, row_b) = (&mut out_a[i * 8..][..8], &mut out_b[i * 8..][..8]);
        // SAFETY: one 32-byte store over each tile's eight-element row `i`.
        unsafe {
            let (row_a, row_b) = (row_a.as_mut_ptr(), row_b.as_mut_ptr());
            _mm256_storeu_si256(row_a as *mut __m256i, _mm512_castsi512_si256(rows));
            _mm256_storeu_si256(row_b as *mut __m256i, _mm512_extracti64x4_epi64::<1>(rows));
        }
    }
    let (c, r) = sums_of(&trunc);
    let (chk, rchk) = (_mm512_add_epi32(chk, c), _mm512_add_epi32(rchk, r));
    let by_row = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
    let (mut cols, mut rows) = ([0i32; 16], [0i32; 16]);
    // SAFETY: one 64-byte store over each 16-element array.
    unsafe {
        _mm512_storeu_epi32(cols.as_mut_ptr(), _mm512_permutexvar_epi32(natural, chk));
        _mm512_storeu_epi32(rows.as_mut_ptr(), _mm512_permutexvar_epi32(by_row, rchk));
    }
    for t in 0..2 {
        sums.chk[t].copy_from_slice(&cols[t * 8..][..8]);
        sums.rchk[t].copy_from_slice(&rows[t * 8..][..8]);
    }
    let bad = |cols: u16, rows: u16| bad_cols & cols | bad_rows & rows != 0;
    sums.checks = checks;
    sums.mismatch = [bad(COLS_A, ROWS_A), bad(!COLS_A, !ROWS_A)];
    (tiles, exps)
}

/// Tile steps one [`chain_quad_vnni512`] pass schedules at a time, so the
/// schedule is a fixed stack array (1 KiB, written only as far as a pass
/// reaches) of at most one word per step; DeiT's chains (`kb ≤ 192`) take
/// one pass. A stretch that a pass boundary cuts folds at the boundary.
#[cfg(target_arch = "x86_64")]
const QUAD_PASS_STEPS: usize = 256;

/// The plain register chain on zmm: the whole K-loop of the four adjacent
/// output tiles `A, B, C, D = (·, bj) … (·, bj + 3)`, as two of
/// [`chain_pair_vnni512`]'s pair registers per row — `(A, B)` and
/// `(C, D)`, the same lane layout — so sixteen accumulators. Like the
/// paper's PE array, which broadcasts one operand along a PE row and
/// reuses it across the row's columns, each row's correction broadcast and
/// its two LHS k-quad broadcasts feed both pairs.
///
/// **Schedule.** Before any mantissa is read, one pass over the exponent
/// planes alone fixes every step's alignment shifts (as Zhao et al. fix
/// theirs ahead of the mantissa datapath): running maxima give each
/// tile's `e = acc_exp − pexp`, clamped to ±64 (every count ≥ 32
/// sign-fills alike), and byte `t` of the step's schedule word holds tile
/// `t`'s. A word of 0 means all four tiles are at `d = 0`: nothing shifts.
///
/// **Direct stretches.** Each maximal run of zero words runs as a direct
/// loop: `vpdpbusd` straight into the accumulators, the stretch's row
/// corrections summed in one ymm register and folded in at the stretch's
/// end. [`I32_CHAIN_MAX_KB`] holds the argument that the wrapping partial
/// sums are exact.
///
/// **Merge steps.** Every other step runs [`chain_pair_vnni512`]'s
/// per-lane merge on both pairs: a fresh row product from the correction,
/// shifted right by `max(e, 0)` with `vpsravd` and added. The counts are
/// decoded on lanes from one broadcast of the word (`vpsllvd` lifts tile
/// `t`'s byte to the top of its dwords, `vpsrad` brings it down signed).
/// A step where some running maximum grows (a negative byte, found by a
/// mask test of the word) first shifts that tile's accumulator by `−e`.
///
/// Tiles past the grid's right edge are zero registers, loaded under a
/// zero mask so nothing past the plane is read; their schedule bytes copy
/// the last real tile's and their lanes are never returned. Stores tile
/// `t`'s sums in `acc_out[t]` and returns how many tiles it computed (1 to
/// 4) and their exponents, `None` for `K = 0`.
///
/// # Safety
/// Callers must have verified AVX2 and AVX-512 F, BW and VNNI support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
unsafe fn chain_quad_vnni512(
    x: &[i8],
    corr: &[i32],
    x_exps: &[i8],
    rhs: &PackedBfp,
    bj: usize,
    acc_out: &mut [[i32; 64]; 4],
) -> (usize, [Option<i32>; 4]) {
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// Step `bk`'s RHS k-quads of both pairs, `[p0, p1]` of `(A, B)` then
    /// of `(C, D)`, as u8 (`y + 128`): [`chain_pair_vnni512`]'s two
    /// `vshufps` per pair. `y` points at tile A of the step; `load[t]`
    /// masks tile `t + 1`.
    ///
    /// # Safety
    /// Tile A and every tile a full mask loads lie inside the RHS plane.
    #[inline(always)]
    unsafe fn rhs_quads(y: *const f32, load: [__mmask16; 3]) -> [__m512i; 4] {
        let flip = _mm512_set1_epi8(-128);
        // SAFETY: the caller's promise; a zero mask reads nothing.
        let (ya, yb, yc, yd) = unsafe {
            (
                _mm512_loadu_ps(y),
                _mm512_maskz_loadu_ps(load[0], y.wrapping_add(16)),
                _mm512_maskz_loadu_ps(load[1], y.wrapping_add(32)),
                _mm512_maskz_loadu_ps(load[2], y.wrapping_add(48)),
            )
        };
        let (p0, p1) = (shuffle_even(ya, yb), shuffle_odd(ya, yb));
        let (q0, q1) = (shuffle_even(yc, yd), shuffle_odd(yc, yd));
        [p0, p1, q0, q1].map(|p| _mm512_xor_si512(p, flip))
    }

    /// Quad 0 (`even`) or quad 1 (`odd`) of every run of two tiles: per
    /// 128-bit lane, the first tile's two runs, then the second's.
    #[inline(always)]
    unsafe fn shuffle_even(u: __m512, v: __m512) -> __m512i {
        _mm512_castps_si512(_mm512_shuffle_ps::<0b10_00_10_00>(u, v))
    }
    #[inline(always)]
    unsafe fn shuffle_odd(u: __m512, v: __m512) -> __m512i {
        _mm512_castps_si512(_mm512_shuffle_ps::<0b11_01_11_01>(u, v))
    }

    /// Row `i`'s two k-quads of the 64-byte LHS tile at `xt`, broadcast.
    ///
    /// # Safety
    /// `xt` points at a whole LHS tile and `i < 8`.
    #[inline(always)]
    unsafe fn lhs_quads(xt: *const i32, i: usize) -> (__m512i, __m512i) {
        // SAFETY: dwords `2i` and `2i + 1` of the tile the caller names.
        unsafe {
            (
                _mm512_set1_epi32(xt.add(2 * i).read_unaligned()),
                _mm512_set1_epi32(xt.add(2 * i + 1).read_unaligned()),
            )
        }
    }

    let kb = x_exps.len();
    let nb = rhs.block_cols;
    assert!(kb < I32_CHAIN_MAX_KB, "chain too long for i32 accumulators");
    assert_eq!((x.len(), corr.len()), (kb * 64, kb * 8));
    assert!(
        bj < nb && rhs.man.len() == kb * nb * 64 && rhs.exps.len() == kb * nb,
        "a tile of the RHS"
    );
    let tiles = (nb - bj).min(4);
    let load = [1, 2, 3].map(|t| if t < tiles { !0 } else { 0 });
    // Wrapping: a `K = 0` plane is empty and `pexp` never runs.
    let y_exps = rhs.exps.as_ptr().wrapping_add(bj);
    // Step `bk`'s four product exponents, one per dword.
    let pexp = |bk: usize| {
        let y = if tiles == 4 {
            // SAFETY: step `bk`'s four tiles of the exponent plane (the
            // assert above).
            unsafe { y_exps.add(bk * nb).cast::<i32>().read_unaligned() }
        } else {
            let y = &rhs.exps[bk * nb + bj..][..tiles];
            i32::from_le_bytes([0, 1, 2, 3].map(|t| y[t.min(tiles - 1)] as u8))
        };
        let x = _mm_set1_epi32(x_exps[bk] as i32);
        _mm_add_epi32(x, _mm_cvtepi8_epi32(_mm_cvtsi32_si128(y)))
    };
    // The low byte of each dword.
    let low_bytes = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    let (floor, ceil) = (_mm_set1_epi32(-64), _mm_set1_epi32(64));
    let yman = rhs.man.as_ptr();
    let zero = _mm512_setzero_si512();
    // Shifts lifting schedule byte `t` to the top of tile `t`'s dwords:
    // A's and C's are dwords 0 and 1 of every 128-bit lane, B's and D's 2
    // and 3.
    let lift = [
        _mm512_setr_epi32(
            24, 24, 16, 16, 24, 24, 16, 16, 24, 24, 16, 16, 24, 24, 16, 16,
        ),
        _mm512_setr_epi32(8, 8, 0, 0, 8, 8, 0, 0, 8, 8, 0, 0, 8, 8, 0, 0),
    ];
    // Row `i` of tiles A and B, and of C and D.
    let (mut ab, mut cd) = ([zero; 8], [zero; 8]);
    // The running maxima; the first product meets a zero accumulator at
    // its own exponent.
    let mut max = if kb > 0 { pexp(0) } else { _mm_setzero_si128() };
    let mut words = [MaybeUninit::<u32>::uninit(); QUAD_PASS_STEPS + 1];
    // Stretches, direct steps and merge steps, for the tests' route
    // counters: kept in registers, published once per call.
    #[cfg(test)]
    let mut counts = [0u64; 3];
    let mut k0 = 0;
    while k0 < kb {
        let steps = (kb - k0).min(QUAD_PASS_STEPS);
        for (s, word) in words[..steps].iter_mut().enumerate() {
            let p = pexp(k0 + s);
            let e = _mm_min_epi32(_mm_max_epi32(_mm_sub_epi32(max, p), floor), ceil);
            max = _mm_max_epi32(max, p);
            word.write(_mm_cvtsi128_si32(_mm_shuffle_epi8(e, low_bytes)) as u32);
        }
        // A non-zero sentinel ends the pass's last stretch.
        words[steps].write(1);
        // SAFETY: words `0..=steps` were just written, and `MaybeUninit<u32>`
        // has `u32`'s layout.
        let sched = unsafe { &*(&words[..=steps] as *const [MaybeUninit<u32>] as *const [u32]) };
        let mut s = 0;
        while s < steps {
            if sched[s] == 0 {
                let mut csum = _mm256_setzero_si256();
                #[cfg(test)]
                let start = s;
                while sched[s] == 0 {
                    let bk = k0 + s;
                    // SAFETY: step `bk`'s tiles of both planes (the asserts
                    // above) and its eight corrections.
                    let ([p0, p1, q0, q1], xt, c) = unsafe {
                        (
                            rhs_quads(yman.add((bk * nb + bj) * 64).cast(), load),
                            x.as_ptr().add(bk * 64).cast::<i32>(),
                            _mm256_loadu_si256(corr.as_ptr().add(bk * 8).cast()),
                        )
                    };
                    for (i, (ab, cd)) in ab.iter_mut().zip(&mut cd).enumerate() {
                        let (x0, x1) = lhs_quads(xt, i);
                        *ab = _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(*ab, p0, x0), p1, x1);
                        *cd = _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(*cd, q0, x0), q1, x1);
                    }
                    csum = _mm256_add_epi32(csum, c);
                    s += 1;
                }
                #[cfg(test)]
                {
                    counts[0] += 1;
                    counts[1] += (s - start) as u64;
                }
                // The fold: every accumulator holds its true sum again.
                let mut c = [0i32; 8];
                // SAFETY: one 32-byte store over the eight-element array.
                unsafe { _mm256_storeu_si256(c.as_mut_ptr().cast(), csum) };
                for ((ab, cd), &c) in ab.iter_mut().zip(&mut cd).zip(&c) {
                    let c = _mm512_set1_epi32(c);
                    (*ab, *cd) = (_mm512_add_epi32(*ab, c), _mm512_add_epi32(*cd, c));
                }
                continue;
            }
            let (bk, word) = (k0 + s, sched[s]);
            #[cfg(test)]
            {
                counts[2] += 1;
            }
            let w = _mm512_set1_epi32(word as i32);
            let mut sh = lift.map(|l| _mm512_srai_epi32::<24>(_mm512_sllv_epi32(w, l)));
            if word & 0x8080_8080 != 0 {
                // A running maximum grows: that tile's accumulator loses
                // `−e` bits first.
                for (acc, sh) in [&mut ab, &mut cd].into_iter().zip(&mut sh) {
                    let grow = _mm512_max_epi32(_mm512_sub_epi32(zero, *sh), zero);
                    for a in acc.iter_mut() {
                        *a = _mm512_srav_epi32(*a, grow);
                    }
                    *sh = _mm512_max_epi32(*sh, zero);
                }
            }
            // SAFETY: step `bk`'s tiles of both planes (the asserts above).
            let ([p0, p1, q0, q1], xt) = unsafe {
                (
                    rhs_quads(yman.add((bk * nb + bj) * 64).cast(), load),
                    x.as_ptr().add(bk * 64).cast::<i32>(),
                )
            };
            let c = &corr[bk * 8..][..8];
            for (i, (ab, cd)) in ab.iter_mut().zip(&mut cd).enumerate() {
                let (x0, x1) = lhs_quads(xt, i);
                let c = _mm512_set1_epi32(c[i]);
                // The chain merge, i32 width, per lane.
                let prod = _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(c, p0, x0), p1, x1);
                *ab = _mm512_add_epi32(*ab, _mm512_srav_epi32(prod, sh[0]));
                let prod = _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(c, q0, x0), q1, x1);
                *cd = _mm512_add_epi32(*cd, _mm512_srav_epi32(prod, sh[1]));
            }
            s += 1;
        }
        k0 += steps;
    }
    #[cfg(test)]
    route::add(counts);
    let natural = _mm512_setr_epi32(0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15);
    let [a, b, c, d] = acc_out;
    for (acc, [lo, hi]) in [ab, cd].iter().zip([[a, b], [c, d]]) {
        for (i, r) in acc.iter().enumerate() {
            let rows = _mm512_permutexvar_epi32(natural, *r);
            let (lo, hi) = (&mut lo[i * 8..][..8], &mut hi[i * 8..][..8]);
            // SAFETY: one 32-byte store over each tile's eight-element row.
            unsafe {
                _mm256_storeu_si256(lo.as_mut_ptr().cast(), _mm512_castsi512_si256(rows));
                _mm256_storeu_si256(hi.as_mut_ptr().cast(), _mm512_extracti64x4_epi64::<1>(rows));
            }
        }
    }
    let mut exps = [0i32; 4];
    // SAFETY: one 16-byte store over the four-element array.
    unsafe { _mm_storeu_si128(exps.as_mut_ptr().cast(), max) };
    (tiles, exps.map(|e| (kb > 0).then_some(e)))
}

/// Direct stretches and merge steps [`chain_quad_vnni512`] ran, per test
/// thread: the tests assert that their operands reach both.
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) mod route {
    use std::cell::Cell;

    thread_local! {
        static STRETCHES: Cell<u64> = const { Cell::new(0) };
        static DIRECT_STEPS: Cell<u64> = const { Cell::new(0) };
        static MERGE_STEPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Adds one call's `[stretches, direct steps, merge steps]`.
    pub(super) fn add([stretches, direct, merges]: [u64; 3]) {
        STRETCHES.set(STRETCHES.get() + stretches);
        DIRECT_STEPS.set(DIRECT_STEPS.get() + direct);
        MERGE_STEPS.set(MERGE_STEPS.get() + merges);
    }

    /// `(stretches, direct steps, merge steps)` since the last call.
    pub(crate) fn take() -> (u64, u64, u64) {
        (STRETCHES.take(), DIRECT_STEPS.take(), MERGE_STEPS.take())
    }
}

/// The kernel that quantises a call's tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TileQuantizer {
    /// [`Quantizer::quantize_tile_scalar`]: any quantizer, any host.
    Scalar,
    /// [`quantize_tile_avx2`]: the paper's quantizer on an AVX2 host. Only
    /// [`TileQuantizer::select`] produces it, which is the proof of AVX2
    /// its `unsafe` caller cites.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl TileQuantizer {
    /// The fastest tile quantiser for `q` on this host (runtime feature
    /// detection, once per call): the lane kernel covers 8×8 tiles of
    /// 8-bit round-to-nearest-even mantissas, the scalar loop the rest.
    pub(crate) fn select(q: &Quantizer) -> TileQuantizer {
        #[cfg(target_arch = "x86_64")]
        if q.block == 8
            && q.man_bits == 8
            && q.round == RoundMode::NearestEven
            && is_x86_feature_detected!("avx2")
        {
            return TileQuantizer::Avx2;
        }
        TileQuantizer::Scalar
    }

    /// Quantise one tile into `man` (its zeroed `block²` slot of a packed
    /// plane, in `side`'s layout) and return its shared exponent. A tile
    /// the lane kernel declines runs the scalar loop, so results, errors
    /// and error coordinates are the scalar loop's on every input.
    #[inline]
    pub(crate) fn quantize(
        self,
        q: &Quantizer,
        t: &TileSrc,
        side: PackSide,
        man: &mut [i8],
    ) -> Result<i8, ArithError> {
        #[cfg(target_arch = "x86_64")]
        if self == TileQuantizer::Avx2 {
            let man: &mut [i8; 64] = man.try_into().expect("b == 8 tile slot");
            // SAFETY: `Avx2` is only selected after detecting AVX2.
            if let Some(exp) = unsafe { quantize_tile_avx2(t, side, man) } {
                return Ok(exp);
            }
        }
        q.quantize_tile_scalar(t, side, man, false)
    }
}

/// Shared exponent of an 8×8 tile of 8-bit round-to-nearest-even mantissas
/// from the bits of its block maximum `|v|`, or `None` outside the regime
/// where the lane kernel is proven (zero, subnormal or non-finite maximum,
/// exponent outside ±120).
///
/// The exponent is the smallest one at which the maximum still rounds,
/// half away from zero, to at most 127 (`Quantizer::exp_for_max_abs`). A
/// normal maximum `2^(E−127)·(1 + F/2²³)` scaled by `2^−(E−133)` is
/// `64·(1 + F/2²³)`, in [64, 128): it rounds above 127 exactly when it is
/// at least 127.5, that is `F ≥ 127·2¹⁶`, and then one more step halves
/// it to just under 64; one step fewer doubles either case past 127. So
/// the exponent is a function of `E` and the top seven fraction bits, and
/// neither `log2` nor `exp2` is needed to find it.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn exp_from_max_bits(max_bits: u32) -> Option<i32> {
    let biased = (max_bits >> 23) as i32;
    if biased == 0 || biased == 255 {
        return None;
    }
    let exp = biased - 133 + ((max_bits & 0x7f_ffff) >= 0x7f_0000) as i32;
    (-120..=120).contains(&exp).then_some(exp)
}

/// The lane twin of [`Quantizer::quantize_tile_scalar`] for the paper's
/// quantizer (8×8 tiles, 8-bit mantissas, round to nearest even), the host
/// counterpart of the streaming fp32→bfp8 converter on the PU's output
/// path: block maximum, shared exponent, align, round, all 64 mantissas in
/// final packed order. Returns the exponent, or `None` for a tile it
/// declines — the caller then runs the scalar loop, which also owns every
/// error.
///
/// The block maximum is taken over `bits & 0x7fff_ffff`, which orders
/// magnitudes and puts every NaN and infinity at or above `0x7f80_0000`,
/// so [`exp_from_max_bits`] declines a tile holding one.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_tile_avx2(t: &TileSrc, side: PackSide, man: &mut [i8; 64]) -> Option<i8> {
    // SAFETY: the caller verified AVX2; the helpers ask nothing else.
    unsafe {
        let rows = tile_lanes::load(t);
        let max_bits = tile_lanes::max_abs_bits(&rows);
        if max_bits == 0 {
            // All-zero tile: canonical exponent 0, mantissas stay 0.
            return Some(0);
        }
        let exp = exp_from_max_bits(max_bits)?;
        tile_lanes::round_into(&rows, exp, side, man);
        Some(exp as i8)
    }
}

/// The steps of [`quantize_tile_avx2`]. `#[inline(always)]` and without a
/// `target_feature` of their own, so they fold into an AVX2 caller; every
/// function here requires that its caller has verified AVX2 support.
/// Plain loops, no closures: a closure would be a function of its own
/// without AVX2, and the intrinsics inside it would stay calls.
#[cfg(target_arch = "x86_64")]
mod tile_lanes {
    use super::{PackSide, TileSrc};
    use std::arch::x86_64::*;

    /// The tile as eight rows of eight lanes. A ragged tile goes through a
    /// zero-padded stack copy, so its padding quantises to the zeros the
    /// scalar loop leaves there.
    #[inline(always)]
    pub(super) unsafe fn load(t: &TileSrc) -> [__m256; 8] {
        if t.imax == 8 && t.jmax == 8 {
            // SAFETY: the caller verified AVX2.
            return unsafe { load_rows(t.data, t.stride) };
        }
        let mut padded = [0f32; 64];
        for i in 0..t.imax {
            padded[i * 8..][..t.jmax].copy_from_slice(&t.data[i * t.stride..][..t.jmax]);
        }
        // SAFETY: as above.
        unsafe { load_rows(&padded, 8) }
    }

    #[inline(always)]
    unsafe fn load_rows(data: &[f32], stride: usize) -> [__m256; 8] {
        assert!(
            data.len() >= 7 * stride + 8,
            "tile source shorter than eight rows"
        );
        let mut rows = [_mm256_setzero_ps(); 8];
        for (i, r) in rows.iter_mut().enumerate() {
            // SAFETY: a 32-byte load of elements `i·stride .. i·stride + 8`,
            // which the assert above puts inside `data` for every `i < 8`.
            *r = unsafe { _mm256_loadu_ps(data.as_ptr().add(i * stride)) };
        }
        rows
    }

    /// Bits of the largest `|v|` in the tile: a `vpmaxud` tree.
    #[inline(always)]
    pub(super) unsafe fn max_abs_bits(rows: &[__m256; 8]) -> u32 {
        let abs = _mm256_set1_epi32(0x7fff_ffff);
        let mut mag = [abs; 8];
        for (m, r) in mag.iter_mut().zip(rows) {
            *m = _mm256_and_si256(_mm256_castps_si256(*r), abs);
        }
        let m = _mm256_max_epu32(
            _mm256_max_epu32(
                _mm256_max_epu32(mag[0], mag[1]),
                _mm256_max_epu32(mag[2], mag[3]),
            ),
            _mm256_max_epu32(
                _mm256_max_epu32(mag[4], mag[5]),
                _mm256_max_epu32(mag[6], mag[7]),
            ),
        );
        let m = _mm_max_epu32(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
        let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b01_00_11_10>(m));
        let m = _mm_max_epu32(m, _mm_shuffle_epi32::<0b10_11_00_01>(m));
        _mm_cvtsi128_si32(m) as u32
    }

    /// Align, round and store all 64 mantissas against `exp` (within ±120,
    /// so the scale `2^−exp`, built from bits, is a normal f32).
    ///
    /// `vmulps` by a power of two is exact unless the product falls below
    /// 2⁻¹²⁶, where the exact value and whatever the multiply returns both
    /// round to 0, so `vcvtps2dq` (nearest even under the default MXCSR) is
    /// `round_i8_rne` of the scalar loop's f64 product. Two saturating
    /// packs (`vpackssdw`, `vpacksswb`) narrow to bytes and `vpmaxsb`
    /// clamps `−128` to `−127` as `Quantizer::round_elem` does — against
    /// the tile's own exponent no product passes 127.5 and neither fires. The
    /// packs leave each register as the 4×4 byte blocks `rows 0–3 | 4–7` ×
    /// `cols 0–3 | 4–7`: one `vpermd` per register interleaves them
    /// row-major for [`PackSide::Lhs`]; for [`PackSide::Rhs`] a `vpshufb`
    /// transposes each 4×4 block in place and `vpunpck{l,h}dq` plus two
    /// `vperm2i128` join the column halves, so run `j` is column `j`.
    #[inline(always)]
    pub(super) unsafe fn round_into(
        rows: &[__m256; 8],
        exp: i32,
        side: PackSide,
        man: &mut [i8; 64],
    ) {
        let scale = _mm256_set1_ps(f32::from_bits(((127 - exp) as u32) << 23));
        let mut q = [_mm256_setzero_si256(); 8];
        for (q, r) in q.iter_mut().zip(rows) {
            *q = _mm256_cvtps_epi32(_mm256_mul_ps(*r, scale));
        }
        let top = _mm256_packs_epi16(
            _mm256_packs_epi32(q[0], q[1]),
            _mm256_packs_epi32(q[2], q[3]),
        );
        let bottom = _mm256_packs_epi16(
            _mm256_packs_epi32(q[4], q[5]),
            _mm256_packs_epi32(q[6], q[7]),
        );
        let floor = _mm256_set1_epi8(-127);
        let (top, bottom) = (_mm256_max_epi8(top, floor), _mm256_max_epi8(bottom, floor));
        let (lo, hi) = match side {
            PackSide::Lhs => {
                let row_major = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
                (
                    _mm256_permutevar8x32_epi32(top, row_major),
                    _mm256_permutevar8x32_epi32(bottom, row_major),
                )
            }
            PackSide::Rhs => {
                let t4x4 = _mm256_broadcastsi128_si256(_mm_setr_epi8(
                    0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
                ));
                // Dword `c` of a lane is now column `c` (low lane) or
                // `4 + c` (high lane) of the register's four rows.
                let (top, bottom) = (
                    _mm256_shuffle_epi8(top, t4x4),
                    _mm256_shuffle_epi8(bottom, t4x4),
                );
                let c0145 = _mm256_unpacklo_epi32(top, bottom);
                let c2367 = _mm256_unpackhi_epi32(top, bottom);
                (
                    _mm256_permute2x128_si256::<0x20>(c0145, c2367),
                    _mm256_permute2x128_si256::<0x31>(c0145, c2367),
                )
            }
        };
        // SAFETY: two 32-byte stores tiling the 64-byte slot.
        unsafe {
            _mm256_storeu_si256(man.as_mut_ptr() as *mut __m256i, lo);
            _mm256_storeu_si256(man.as_mut_ptr().add(32) as *mut __m256i, hi);
        }
    }
}

/// The i64 chain's 8×8 tile product, `out[i·8+j] = Σₖ x[i·8+k]·y[j·8+k]`
/// (both operands unit-stride in `k` thanks to the block-transposed RHS).
/// Widening to `i16` first keeps the inner products in the shape SIMD
/// integer-MAC instructions (`pmaddwd` and friends) digest, so the
/// auto-vectoriser can use them when the target features allow.
#[inline(always)]
fn tile8_product(x: &[i8; 64], y: &[i8; 64], out: &mut [i32; 64]) {
    let mut yw = [0i16; 64];
    for (w, &v) in yw.iter_mut().zip(y.iter()) {
        *w = v as i16;
    }
    for i in 0..8 {
        let mut xr = [0i16; 8];
        for (w, &v) in xr.iter_mut().zip(&x[i * 8..i * 8 + 8]) {
            *w = v as i16;
        }
        for j in 0..8 {
            let yr = &yw[j * 8..j * 8 + 8];
            let mut s = 0i32;
            for k in 0..8 {
                s += xr[k] as i32 * yr[k] as i32;
            }
            out[i * 8 + j] = s;
        }
    }
}

/// Unit-stride int8 dot product; the paper-shaped 8-element case lowers to
/// a fixed-size loop LLVM fully vectorises.
#[inline(always)]
pub(crate) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    if let (Ok(x8), Ok(y8)) = (<&[i8; 8]>::try_from(x), <&[i8; 8]>::try_from(y)) {
        let mut s = 0i32;
        for k in 0..8 {
            s += x8[k] as i32 * y8[k] as i32;
        }
        s
    } else {
        x.iter()
            .zip(y.iter())
            .map(|(&a, &b)| a as i32 * b as i32)
            .sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An operand built straight from mantissas and exponents, for values
    /// the quantizer never emits (−128) and exact control of the chain (`b == 8`;
    /// `man(bi, bj, t)` is element `t` of the tile as stored). Test support.
    pub(crate) fn raw(
        side: PackSide,
        (rows, cols): (usize, usize),
        exp: impl Fn(usize, usize) -> i8,
        man: impl Fn(usize, usize, usize) -> i8,
    ) -> PackedBfp {
        let (br, bc) = (rows.div_ceil(8), cols.div_ceil(8));
        let mut p = PackedBfp {
            rows,
            cols,
            block: 8,
            block_rows: br,
            block_cols: bc,
            side,
            exps: Vec::new(),
            man: Vec::new(),
        };
        for bi in 0..br {
            for bj in 0..bc {
                p.exps.push(exp(bi, bj));
                p.man.extend((0..64).map(|t| man(bi, bj, t)));
            }
        }
        p
    }

    fn wave(rows: usize, cols: usize, seed: u32) -> MatF32 {
        let s = seed as f32;
        MatF32::from_fn(rows, cols, |i, j| {
            ((i as f32 * 0.37 + j as f32 * 0.23 + s).sin()) * (1.0 + ((i * cols + j) % 11) as f32)
        })
    }

    /// A matrix whose tiles land on very different block exponents, so the
    /// alignment chain truncates (the path where evaluation-order bugs
    /// would show up as bit differences).
    fn spiky(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| {
            let base = ((i * 31 + j * 7) % 13) as f32 - 6.0;
            match (i / 8 + j / 8) % 3 {
                0 => base * 1024.0,
                1 => base * 0.001,
                _ => base,
            }
        })
    }

    fn assert_bits_eq(a: &MatF32, b: &MatF32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    b.get(i, j).to_bits(),
                    "({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_reference_kernel() {
        let q = Quantizer::paper();
        for (m, k, n, seed) in [(16, 16, 16, 1), (24, 40, 8, 2), (64, 32, 48, 3)] {
            let a = wave(m, k, seed);
            let b = wave(k, n, seed + 10);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let want = qa.try_matmul(&qb).unwrap();
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn packed_matmul_non_multiple_of_block_shapes() {
        let q = Quantizer::paper();
        for (m, k, n) in [(11, 13, 7), (1, 9, 17), (8, 1, 1), (23, 24, 25)] {
            let a = wave(m, k, 5);
            let b = wave(k, n, 6);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
        }
    }

    #[test]
    fn packed_matmul_mixed_block_exponents_truncate_identically() {
        let q = Quantizer::paper();
        let a = spiky(24, 32);
        let b = spiky(32, 16);
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let got = PackedBfp::pack_lhs(&qa)
            .matmul(&PackedBfp::pack_rhs(&qb))
            .unwrap();
        assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
    }

    #[test]
    fn packed_matmul_generic_block_sizes() {
        for blk in [4usize, 8, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
        }
    }

    #[test]
    fn dequantize_matches_grid_dequantize() {
        let q = Quantizer::paper();
        let m = spiky(27, 13);
        let qm = q.quantize(&m).unwrap();
        let want = qm.dequantize();
        assert_bits_eq(&PackedBfp::pack_lhs(&qm).dequantize(), &want);
        assert_bits_eq(&PackedBfp::pack_rhs(&qm).dequantize(), &want);
    }

    #[test]
    fn side_and_shape_mismatches_are_typed_errors() {
        let q = Quantizer::paper();
        let a = PackedBfp::quantize_lhs(&q, &wave(16, 16, 1)).unwrap();
        let b = PackedBfp::quantize_rhs(&q, &wave(16, 16, 2)).unwrap();
        // Wrong sides.
        assert!(matches!(
            b.matmul(&b),
            Err(ArithError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.matmul(&a.clone()),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // Inner-dimension mismatch.
        let skinny = PackedBfp::quantize_rhs(&q, &wave(8, 8, 3)).unwrap();
        assert!(matches!(
            a.matmul(&skinny),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // Block-size mismatch.
        let other = PackedBfp::quantize_rhs(&Quantizer::with_block(4), &wave(16, 8, 4)).unwrap();
        assert!(matches!(
            a.matmul(&other),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // And the happy path still works.
        assert!(a.matmul(&b).is_ok());
    }

    #[test]
    fn fused_quantize_pack_matches_composed_path() {
        use crate::quant::RoundMode;
        for round in [
            RoundMode::NearestEven,
            RoundMode::Truncate,
            RoundMode::Stochastic,
        ] {
            let q = Quantizer {
                round,
                ..Quantizer::paper()
            };
            for (r, c, seed) in [(16, 16, 1), (11, 29, 2), (8, 8, 3), (1, 1, 4), (40, 7, 5)] {
                let m = wave(r, c, seed);
                assert_eq!(
                    PackedBfp::quantize_pack_lhs(&q, &m).unwrap(),
                    PackedBfp::quantize_lhs(&q, &m).unwrap(),
                    "lhs {r}x{c} {round:?}"
                );
                assert_eq!(
                    PackedBfp::quantize_pack_rhs(&q, &m).unwrap(),
                    PackedBfp::quantize_rhs(&q, &m).unwrap(),
                    "rhs {r}x{c} {round:?}"
                );
            }
        }
    }

    #[test]
    fn fused_quantize_pack_handles_zero_tiles_and_spiky_exponents() {
        let q = Quantizer::paper();
        let mut m = spiky(24, 24);
        // Zero out a whole tile plus a partial edge region.
        for i in 8..16 {
            for j in 0..8 {
                m.set(i, j, 0.0);
            }
        }
        assert_eq!(
            PackedBfp::quantize_pack_lhs(&q, &m).unwrap(),
            PackedBfp::quantize_lhs(&q, &m).unwrap()
        );
        assert_eq!(
            PackedBfp::quantize_pack_rhs(&q, &m).unwrap(),
            PackedBfp::quantize_rhs(&q, &m).unwrap()
        );
    }

    #[test]
    fn fused_quantize_pack_reports_identical_errors() {
        let q = Quantizer::paper();
        let mut m = wave(17, 19, 7);
        m.set(9, 13, f32::NAN);
        let want = format!("{:?}", q.quantize(&m).unwrap_err());
        assert_eq!(
            format!("{:?}", PackedBfp::quantize_pack_lhs(&q, &m).unwrap_err()),
            want
        );
        assert_eq!(
            format!("{:?}", PackedBfp::quantize_pack_rhs(&q, &m).unwrap_err()),
            want
        );
    }

    #[test]
    fn fused_quantize_pack_matmul_is_bit_identical() {
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 17);
        let got = PackedBfp::quantize_pack_lhs(&q, &a)
            .unwrap()
            .matmul(&PackedBfp::quantize_pack_rhs(&q, &b).unwrap())
            .unwrap();
        let want = q
            .quantize(&a)
            .unwrap()
            .try_matmul(&q.quantize(&b).unwrap())
            .unwrap();
        assert_bits_eq(&got, &want);
    }

    #[test]
    fn deit_gemms_fork_where_the_shard_minimum_says() {
        use crate::fork::{host_threads, shards};
        let at =
            |budget, (m, k, n): (u64, u64, u64)| shards(budget, m * k * n, PARALLEL_MIN_SHARD_MACS);
        let two = 2.min(host_threads());
        // Just under two shards' worth stays serial, whatever the budget.
        assert_eq!(
            shards(64, 2 * PARALLEL_MIN_SHARD_MACS - 1, PARALLEL_MIN_SHARD_MACS),
            1
        );
        // Every DeiT-Small GEMM forks at budget 2: both per-head attention
        // products, the q/k/v and output projections, and the MLP pair.
        for gemm in [
            (197, 64, 197),
            (197, 197, 64),
            (197, 384, 384),
            (197, 384, 1536),
            (197, 1536, 384),
        ] {
            assert_eq!(at(2, gemm), two, "{gemm:?}");
        }
        // A per-head product carries two shards; the MLP's 116 M MACs 116.
        assert_eq!(at(64, (197, 64, 197)), two);
        let mlp = at(128, (197, 384, 1536));
        assert!(mlp <= 116 && mlp <= host_threads(), "{mlp}");
    }

    #[test]
    fn deit_activation_packs_fork_where_the_shard_minimum_says() {
        use crate::fork::{host_threads, shards};
        let at = |budget, (m, k): (u64, u64)| shards(budget, m * k, PACK_MIN_SHARD_ELEMS);
        let two = 2.min(host_threads());
        assert_eq!(at(64, (128, 64)), 1);
        // A head's Q and P, the q/k/v, proj and fc1 input, fc2's input.
        for lhs in [(197, 64), (197, 197), (197, 384), (197, 1536)] {
            assert_eq!(at(2, lhs), two, "{lhs:?}");
        }
    }

    #[test]
    fn sharded_quantize_pack_is_the_serial_pack() {
        let q = Quantizer::paper();
        for (r, c) in [
            (0, 0),
            (0, 16),
            (5, 0),
            (1, 1),
            (9, 17),
            (197, 64),
            (197, 384),
            (64, 1536),
        ] {
            let m = spiky(r, c);
            let want = PackedBfp::quantize_pack_lhs(&q, &m).unwrap();
            for shards in [1, 2, 3, 7, 64] {
                let got = PackedBfp::quantize_pack_lhs_parallel(&q, &m, shards).unwrap();
                assert_eq!(got, want, "{r}x{c} on {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_quantize_pack_reports_the_first_failing_tile() {
        // Tiles fail in several block-rows, so several shards fail; the
        // error is the serial pack's, from the first failing tile in tile
        // order — also when a later shard finishes first.
        let mut m = spiky(64, 64);
        for (r, c) in [(45, 20), (60, 3), (13, 50), (30, 9)] {
            m.set(r, c, f32::NAN);
        }
        let q = Quantizer::paper();
        let want = PackedBfp::quantize_pack_lhs(&q, &m).unwrap_err();
        // Tile (1, 6) comes first in tile order.
        assert!(
            matches!(want, ArithError::NonFinite { at: (13, 50) }),
            "{want:?}"
        );
        for shards in [2, 3, 8] {
            let got = PackedBfp::quantize_pack_lhs_parallel(&q, &m, shards).unwrap_err();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    /// The composed oracle for the fused kernels: full GEMM, then the same
    /// element-wise epilogue applied over the materialised matrix.
    fn composed_epilogue(
        pa: &PackedBfp,
        pb: &PackedBfp,
        epi: impl Fn(f32, usize, usize) -> f32,
    ) -> MatF32 {
        let out = pa.matmul(pb).unwrap();
        MatF32::from_fn(out.rows(), out.cols(), |i, j| epi(out.get(i, j), i, j))
    }

    #[test]
    fn fused_epilogue_matches_composed_pass() {
        let q = Quantizer::paper();
        let bias: Vec<f32> = (0..131).map(|j| (j as f32 * 0.3).sin()).collect();
        for (m, k, n) in [
            (40, 24, 17),
            (8, 8, 8),
            (11, 13, 7),
            (1, 9, 16),
            (197, 72, 131),
        ] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
            let want = composed_epilogue(&pa, &pb, |v, _i, j| (v + bias[j]).tanh());
            let got = pa
                .matmul_epilogue(&pb, |tile: &mut [f32], ctx: &EpilogueCtx| {
                    for i in 0..ctx.imax {
                        let row = &mut tile[i * ctx.b..][..ctx.jmax];
                        for (j, v) in row.iter_mut().enumerate() {
                            *v = (*v + bias[ctx.c0 + j]).tanh();
                        }
                    }
                })
                .unwrap();
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn fused_epilogue_parallel_is_bit_identical() {
        let q = Quantizer::paper();
        for (m, k, n) in [(40, 24, 17), (197, 72, 131)] {
            let pa = PackedBfp::quantize_pack_lhs(&q, &spiky(m, k)).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &spiky(k, n)).unwrap();
            let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                for i in 0..ctx.imax {
                    for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                        *v = v.mul_add(0.5, 1.0);
                    }
                }
            };
            let want = composed_epilogue(&pa, &pb, |v, _, _| v.mul_add(0.5, 1.0));
            let plain = pa.matmul(&pb).unwrap();
            let noop = |_: &mut [f32], _: &EpilogueCtx| {};
            // 3 and 5 shards cut 5 and 25 block-rows unevenly.
            for shards in [1usize, 2, 3, 5, 64] {
                let got = pa.matmul_epilogue_parallel(&pb, &mut vec![epi; shards]);
                assert_bits_eq(&got.unwrap(), &want);
                let got = pa.matmul_epilogue_parallel(&pb, &mut vec![noop; shards]);
                assert_bits_eq(&got.unwrap(), &plain);
            }
            assert!(matches!(
                pb.matmul_epilogue_parallel(&pb, &mut [noop; 4]),
                Err(ArithError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn fused_generic_block_sizes_match_composed() {
        for blk in [4usize, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
            let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                for i in 0..ctx.imax {
                    for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                        *v *= 2.0;
                    }
                }
            };
            let composed = composed_epilogue(&pa, &pb, |v, _, _| v * 2.0);
            let got = pa.matmul_epilogue(&pb, epi).unwrap();
            assert_bits_eq(&got, &composed);
        }
    }

    /// Every tier's strips, on spiky operands whose tiles in one chain call
    /// carry different exponents: one epilogue call per chain call (per
    /// `(bi, ⌈nb/4⌉)` strip on `Vnni512`), a row stride of the call's
    /// `n·b` with the valid columns inside it, regions that cover the
    /// output exactly once, and — through a position-stamping epilogue —
    /// the reference kernel's bits under the same element pass.
    #[test]
    fn strips_drain_once_per_chain_call_and_cover_the_output() {
        // `(block, M, K, N)`. N = 197 is six quads and a lone tile, N = 64
        // two quads, N = 9..=31 ragged strips; M = 197 ends on a five-row
        // block-row.
        let mut cases = vec![
            (8, 197, 40, 197),
            (8, 197, 24, 64),
            (8, 197, 0, 40),
            (4, 197, 21, 37),
            (16, 19, 40, 45),
            (16, 19, 0, 45),
        ];
        cases.extend((9..=31).map(|n| (8, 13, 16, n)));
        for (blk, m, k, n) in cases {
            let q = Quantizer::with_block(blk);
            let (qa, qb) = (
                q.quantize(&spiky(m, k)).unwrap(),
                q.quantize(&spiky(k, n)).unwrap(),
            );
            let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
            let stamp = |v: f32, r: usize, c: usize| v.mul_add(0.5, (r * n + c) as f32);
            let reference = qa.try_matmul(&qb).unwrap();
            let want = MatF32::from_fn(m, n, |r, c| stamp(reference.get(r, c), r, c));
            let nb = pb.block_cols;
            let mut tiers = if blk == 8 {
                register_tiers(pa.block_cols)
            } else {
                Vec::new()
            };
            tiers.push(ChainKernel::I64);
            for tier in tiers {
                let width = if tier == ChainKernel::Vnni512 { 4 } else { 1 };
                let (mut calls, mut cover) = (0, vec![0u8; m * n]);
                let mut epi = |strip: &mut [f32], ctx: &EpilogueCtx| {
                    calls += 1;
                    let tiles = width.min(nb - ctx.c0 / blk);
                    assert_eq!(ctx.b, tiles * blk, "{tier:?}: the strip's row stride");
                    assert!(ctx.jmax <= ctx.b && ctx.imax <= blk, "{tier:?}: {ctx:?}");
                    assert_eq!(strip.len(), ctx.imax * ctx.b, "{tier:?}: whole strip rows");
                    for i in 0..ctx.imax {
                        for (j, v) in strip[i * ctx.b..][..ctx.jmax].iter_mut().enumerate() {
                            let (r, c) = (ctx.r0 + i, ctx.c0 + j);
                            cover[r * n + c] += 1;
                            *v = stamp(*v, r, c);
                        }
                    }
                };
                let mut got = MatF32::zeros(m, n);
                pa.fused_rows_on(tier, &pb, 0, pa.block_rows, &mut epi, got.data_mut());
                let strips = pa.block_rows * nb.div_ceil(width);
                assert_eq!(calls, strips, "{tier:?}: one epilogue call per chain call");
                assert!(
                    cover.iter().all(|&c| c == 1),
                    "{tier:?}: every element once"
                );
                assert_bits_eq(&got, &want);
            }
        }
    }

    /// Plain GEMM forced onto one chain kernel.
    fn matmul_on(kernel: ChainKernel, pa: &PackedBfp, pb: &PackedBfp) -> MatF32 {
        let mut out = MatF32::zeros(pa.rows, pb.cols);
        let mut noop = |_: &mut [f32], _: &EpilogueCtx| {};
        pa.fused_rows_on(kernel, pb, 0, pa.block_rows, &mut noop, out.data_mut());
        out
    }

    /// Every register tier this host's CPU flags allow for plain chains of
    /// `kb` steps, fastest first.
    pub(crate) fn register_tiers(kb: usize) -> Vec<ChainKernel> {
        tiers_below(kb, I32_CHAIN_MAX_KB)
    }

    /// Every register tier this host's CPU flags allow for checked chains
    /// of `kb` steps, fastest first.
    pub(crate) fn checked_tiers(kb: usize) -> Vec<ChainKernel> {
        tiers_below(kb, CHECKED_CHAIN_MAX_KB)
    }

    fn tiers_below(kb: usize, max_kb: usize) -> Vec<ChainKernel> {
        let mut tiers = Vec::new();
        if kb < max_kb && is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vnni")
            {
                tiers.push(ChainKernel::Vnni512);
            }
            tiers.push(ChainKernel::Avx2I32);
        }
        tiers
    }

    /// Every chain of `pa · pb` on every register tier of this host, every
    /// tile a chain call returns integer for integer against the i64 loop,
    /// and the plain GEMM's tier is the fastest of them. Returns the tiers
    /// that ran, the plain GEMM's first; empty when the host has none.
    fn assert_chains_agree(pa: &PackedBfp, pb: &PackedBfp) -> Vec<ChainKernel> {
        assert_eq!((pa.block, pb.block), (8, 8));
        let kb = pa.block_cols;
        let tiers = register_tiers(kb);
        let selected = ChainKernel::select(8, kb, false);
        assert_eq!(selected, tiers.first().copied().unwrap_or(ChainKernel::I64));
        let (mut acc32, mut prod, mut acc64) = ([[0i32; 64]; 4], [0i32; 64], [0i64; 64]);
        for &tier in &tiers {
            let mut xs = vec![0i32; tier.staged_words(kb)];
            for bi in 0..pa.block_rows {
                let x = &pa.man[bi * kb * 64..][..kb * 64];
                tier.stage_lhs(x, &mut xs);
                let mut bj = 0;
                while bj < pb.block_cols {
                    let x_exps = &pa.exps[bi * kb..][..kb];
                    let plain = &mut ChainSums::default();
                    let (n, exps) =
                        tier.chain_i32::<false>(x, &xs, x_exps, pb, bj, plain, &mut acc32);
                    let width = if tier == ChainKernel::Vnni512 { 4 } else { 1 };
                    assert_eq!(n, width.min(pb.block_cols - bj));
                    for (t, acc) in acc32[..n].iter().enumerate() {
                        let bj = bj + t;
                        let want = pa.chain_i64(pb, bi, bj, &mut prod, &mut acc64);
                        assert_eq!(exps[t], want, "{tier:?}: exponent of chain ({bi},{bj})");
                        let wide: Vec<i64> = acc.iter().map(|&a| a as i64).collect();
                        assert_eq!(wide, acc64, "{tier:?}: sums of chain ({bi},{bj})");
                    }
                    bj += n;
                }
            }
        }
        tiers
    }

    #[test]
    fn tile8_product_is_the_dot_product_of_every_row_and_run() {
        let x: [i8; 64] = std::array::from_fn(|t| (t as i32 * 37 % 256 - 128) as i8);
        let y: [i8; 64] = std::array::from_fn(|t| (t as i32 * 91 % 256 - 128) as i8);
        let mut out = [0i32; 64];
        tile8_product(&x, &y, &mut out);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(out[i * 8 + j], dot_i8(&x[i * 8..][..8], &y[j * 8..][..8]));
            }
        }
    }

    #[test]
    fn chain_kernels_agree_on_ragged_shapes() {
        let q = Quantizer::paper();
        let shapes = [
            (197, 72, 131),
            (13, 21, 9),
            (8, 5, 8),
            (3, 1, 2),
            (5, 0, 7),
            (197, 64, 197),
        ];
        for (m, k, n) in shapes {
            let (a, b) = (spiky(m, k), spiky(k, n));
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
            let want = qa.try_matmul(&qb).unwrap();
            assert_bits_eq(&pa.matmul(&pb).unwrap(), &want);
            assert_bits_eq(&matmul_on(ChainKernel::I64, &pa, &pb), &want);
            assert_chains_agree(&pa, &pb);
        }
    }

    #[test]
    fn chain_kernels_agree_on_every_shift_regime() {
        // Product exponents along K that move the running maximum up by 0,
        // 1, 31, 32, 63 and 73 (the accumulator is shifted), then fall
        // below it by 0, 1, 31, 32, 63, 100 and 200 (the product is
        // shifted), then rise by one more.
        let even = [
            -100, -100, -99, -68, -36, 27, 100, 100, 99, 69, 68, 37, 0, -100, 101,
        ];
        // A second RHS whose odd column tiles walk against the even ones:
        // down by 1, 32, 31, 63 and 60 while the even tiles rise, then up
        // by 1, 31, 32, 63 and 1 while they hold and fall. A tile pair then
        // shifts one tile's accumulator and the other's product in the same
        // step, both ways round.
        let odd = [
            0, 0, -1, -32, -31, -63, -60, 1, 32, 64, 127, 128, -72, 60, 129,
        ];
        // Two more walks for the third and fourth tile of a quad: one that
        // rises by 1, 32, 32 and 1 on steps where the others do not, and
        // one that holds in long runs and rises twice.
        let third = [
            40, -40, 40, 41, 41, 20, 73, 73, 73, 10, 105, 105, -10, 60, 106,
        ];
        let fourth = [
            -20, -20, -20, -20, 12, 12, 12, 12, 12, 75, 75, 75, 75, 70, 75,
        ];
        let kb = even.len();
        let scaled = |e: i32, v: i32| v as f32 * (e as f32).exp2();
        let signed = |i: usize, j: usize| ((i * 37 + j * 11) % 201) as i32 - 100;
        let a = MatF32::from_fn(21, kb * 8, |i, k| {
            let v = if k % 8 == 0 { 100 } else { signed(i, k) };
            scaled(even[k / 8] / 2, v)
        });
        let q = Quantizer::paper();
        let qa = q.quantize(&a).unwrap();
        let pa = PackedBfp::pack_lhs(&qa);
        // Step by step, which side a walk shifts: 1 the accumulator, −1
        // the product.
        let sides = |e: &[i32]| {
            let mut max = e[0];
            let mut side = |&p: &i32| {
                let d = p - max;
                max = max.max(p);
                d.signum()
            };
            e.iter().map(&mut side).collect::<Vec<_>>()
        };
        // 19 columns: a tile pair and a lone last tile, or three tiles of a
        // quad. 40, 48 and 55: a quad and a tail of one, two and three.
        let cases = [
            (19, [even, even, even, even]),
            (19, [even, odd, even, odd]),
            (40, [even, odd, third, fourth]),
            (48, [even, odd, third, fourth]),
            (55, [even, odd, third, fourth]),
        ];
        let _ = route::take();
        for (n, walks) in cases {
            let b = MatF32::from_fn(kb * 8, n, |k, j| {
                let v = if k % 8 == 0 { -100 } else { signed(j, k) };
                let e = walks[j / 8 % 4][k / 8];
                scaled(e - even[k / 8] / 2, v)
            });
            let qb = q.quantize(&b).unwrap();
            let pb = PackedBfp::pack_rhs(&qb);
            let nb = pb.block_cols;
            // The operands really carry the intended exponent walks.
            let pexp = |bj: usize| -> Vec<i32> {
                (0..kb)
                    .map(|bk| pa.exps[bk] as i32 + pb.exps[bk * nb + bj] as i32)
                    .collect()
            };
            let walk = |e: &[i32]| e.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>();
            for bj in 0..nb {
                assert_eq!(walk(&pexp(bj)), walk(&walks[bj % 4]));
            }
            if walks[1] == odd {
                // A pair's tiles shift opposite sides in some step, both ways
                // round.
                let split: Vec<_> = sides(&pexp(0)).into_iter().zip(sides(&pexp(1))).collect();
                assert!(split.contains(&(1, -1)) && split.contains(&(-1, 1)));
            }
            if walks[3] == fourth {
                // The four tiles of a quad shift on different steps.
                let quad: Vec<_> = (0..4).map(|bj| sides(&pexp(bj))).collect();
                for (t, u) in quad.iter().enumerate() {
                    assert!(quad[t + 1..].iter().all(|v| v != u), "tile {t}");
                }
            }
            let want = qa.try_matmul(&qb).unwrap();
            assert_bits_eq(&pa.matmul(&pb).unwrap(), &want);
            assert_bits_eq(&matmul_on(ChainKernel::I64, &pa, &pb), &want);
            assert_chains_agree(&pa, &pb);
        }
        if register_tiers(kb).first() == Some(&ChainKernel::Vnni512) {
            let (stretches, direct, merges) = route::take();
            assert!(stretches > 0 && direct > 0 && merges > 0);
        }
    }

    #[test]
    fn quad_stretches_fold_at_every_boundary() {
        // RHS exponents along K, one walk per quad tile, and the stretches
        // and merge steps the schedule makes of them. Steps 0–2 hold (a
        // stretch at the start), 3 rises and 4 falls (merges), 5 holds
        // alone (a 1-step stretch), 6 rises, 7–8 hold (a stretch at the
        // end).
        let walk = [0, 0, 0, 5, 2, 5, 9, 9, 9];
        // The same with one tile dipping at step 5: that step merges too.
        let dip = [0, 0, 0, 5, 2, 4, 9, 9, 9];
        let flat = [3; 9];
        let cases = [
            ([walk; 4], (3, 6, 3)),
            ([walk, walk, dip, walk], (2, 5, 4)),
            // The whole chain one stretch.
            ([flat; 4], (1, 9, 0)),
        ];
        let tiers = register_tiers(9);
        for (walks, (stretches, direct, merges)) in cases {
            let pa = raw(
                PackSide::Lhs,
                (16, 72),
                |_, bk| -(bk as i8),
                |bi, bk, t| ((bi * 131 + bk * 17 + t * 29) % 255) as i8,
            );
            // Columns 0–31 the quad, 32–39 a lone tail tile on `walk`.
            let pb = raw(
                PackSide::Rhs,
                (72, 40),
                |bk, bj| (walks.get(bj).unwrap_or(&walk)[bk] + bk as i32) as i8,
                |bk, bj, t| ((bk * 53 + bj * 7 + t * 91) % 256) as i8,
            );
            let _ = route::take();
            assert_chains_agree(&pa, &pb);
            if tiers.first() == Some(&ChainKernel::Vnni512) {
                // Two block-rows, each one quad and one lone tile.
                let (s, d, m) = route::take();
                let (ls, ld, lm) = (3, 6, 3);
                assert_eq!(
                    (s, d, m),
                    (2 * (stretches + ls), 2 * (direct + ld), 2 * (merges + lm)),
                    "{walks:?}"
                );
            }
        }
    }

    /// One synthetic pass over all chains of `pa · pb` on the real quad
    /// kernel's RHS walk, `PAIRS` pair registers per call: per step the
    /// call's tiles loaded and shuffled to u8 k-quads (the walk clamps at
    /// the right edge), then per row either two `vpdpbusd` into each
    /// accumulator (`MERGE` false; with `BROADCAST` false the LHS operands
    /// stay in registers) or a product from the row's correction, shifted
    /// by a count the compiler cannot see is zero and added (`MERGE`).
    /// Returns a fold of the accumulators.
    ///
    /// # Safety
    /// Callers must have verified AVX-512 F, BW and VNNI support.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vnni")]
    unsafe fn synthetic_chains<const PAIRS: usize, const MERGE: bool, const BROADCAST: bool>(
        pa: &PackedBfp,
        corr: &[i32],
        pb: &PackedBfp,
    ) -> i32 {
        use std::arch::x86_64::*;
        let (kb, nb) = (pa.block_cols, pb.block_cols);
        let zero = _mm512_setzero_si512();
        let flip = _mm512_set1_epi8(-128);
        let sh = std::hint::black_box(zero);
        let regs = (
            _mm512_set1_epi32(0x0102_0304),
            _mm512_set1_epi32(0x0506_0708),
        );
        let mut out = zero;
        for bi in 0..pa.block_rows {
            let x = &pa.man[bi * kb * 64..][..kb * 64];
            let c = &corr[bi * kb * 8..][..kb * 8];
            for bj in (0..nb).step_by(2 * PAIRS) {
                let mut acc = [[zero; 8]; PAIRS];
                for bk in 0..kb {
                    let tile = |t: usize| {
                        let y = &pb.man[(bk * nb + (bj + t).min(nb - 1)) * 64..][..64];
                        // SAFETY: one 64-byte load of the 64-byte tile.
                        unsafe { _mm512_loadu_ps(y.as_ptr().cast()) }
                    };
                    let mut p = [[zero; 2]; PAIRS];
                    for (n, p) in p.iter_mut().enumerate() {
                        let (u, v) = (tile(2 * n), tile(2 * n + 1));
                        let q0 = _mm512_shuffle_ps::<0b10_00_10_00>(u, v);
                        let q1 = _mm512_shuffle_ps::<0b11_01_11_01>(u, v);
                        *p = [q0, q1].map(|q| _mm512_xor_si512(_mm512_castps_si512(q), flip));
                    }
                    let xq = &x[bk * 64..][..64];
                    for i in 0..8 {
                        let (x0, x1) = if BROADCAST {
                            let q = |n: usize| {
                                let q: [i8; 4] = xq[n * 4..][..4].try_into().unwrap();
                                i32::from_le_bytes(q.map(|b| b as u8))
                            };
                            (_mm512_set1_epi32(q(2 * i)), _mm512_set1_epi32(q(2 * i + 1)))
                        } else {
                            regs
                        };
                        for (acc, p) in acc.iter_mut().zip(&p) {
                            acc[i] = if MERGE {
                                let prod = _mm512_set1_epi32(c[bk * 8 + i]);
                                let prod = _mm512_dpbusd_epi32(prod, p[0], x0);
                                let prod = _mm512_dpbusd_epi32(prod, p[1], x1);
                                _mm512_add_epi32(acc[i], _mm512_srav_epi32(prod, sh))
                            } else {
                                let a = _mm512_dpbusd_epi32(acc[i], p[0], x0);
                                _mm512_dpbusd_epi32(a, p[1], x1)
                            };
                        }
                    }
                }
                for a in acc.iter().flatten() {
                    out = _mm512_xor_si512(out, *a);
                }
            }
        }
        _mm512_reduce_add_epi32(out)
    }

    /// Every chain of `pa · pb` on the `Vnni512` plain body, without the
    /// drain, epilogue or row copy. Returns a fold of the sums.
    #[cfg(target_arch = "x86_64")]
    fn chains_alone(pa: &PackedBfp, pb: &PackedBfp) -> i32 {
        let (kernel, kb) = (ChainKernel::Vnni512, pa.block_cols);
        let mut xs = vec![0i32; kernel.staged_words(kb)];
        let (mut acc, mut fold) = ([[0i32; 64]; 4], 0);
        for bi in 0..pa.block_rows {
            let x = &pa.man[bi * kb * 64..][..kb * 64];
            let x_exps = &pa.exps[bi * kb..][..kb];
            kernel.stage_lhs(x, &mut xs);
            let mut bj = 0;
            while bj < pb.block_cols {
                let plain = &mut ChainSums::default();
                bj += kernel
                    .chain_i32::<false>(x, &xs, x_exps, pb, bj, plain, &mut acc)
                    .0;
                fold ^= acc[0][0];
            }
        }
        fold
    }

    /// The chain's roofline on this host: GMAC/s per DeiT-Small shape of
    /// the real plain GEMM (one thread, strip drains and row copies
    /// included) and of its chains alone, beside four synthetic loops over
    /// the same RHS walk — `vpdpbusd` with register LHS operands, the pair
    /// merge, the quad merge and the quad's direct loop — timed
    /// interleaved, median of 25 rounds, on uniform operands. Every GMAC/s
    /// column counts `8·⌈M/8⌉·K·N` MACs. Then the share of the quad body's
    /// steps that ran direct, and `real ÷ chains`, the real GEMM's rate
    /// over its chains': the share of the GEMM's time its chains take, 1
    /// when the drains, epilogue calls and row copies cost nothing. Run it
    /// with `cargo test --release -p bfp-arith --lib chain_roofline --
    /// --ignored --nocapture`.
    #[test]
    #[ignore = "release timing probe; prints a table"]
    #[cfg(target_arch = "x86_64")]
    fn chain_roofline_probe() {
        if register_tiers(1).first() != Some(&ChainKernel::Vnni512) {
            println!("no AVX-512 VNNI: nothing to probe");
            return;
        }
        let q = Quantizer::paper();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        println!(
            "GMAC/s: shape | real | chains alone | reg operands | pair merge | quad merge \
             | quad direct | direct steps | real ÷ chains"
        );
        for (m, k, n) in [
            (197, 384, 384),
            (197, 384, 1536),
            (197, 1536, 384),
            (197, 64, 197),
            (197, 197, 64),
        ] {
            let a = MatF32::from_fn(m, k, |_, _| uniform());
            let b = MatF32::from_fn(k, n, |_, _| uniform());
            let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
            let mut corr = vec![0i32; pa.man.len() / 8];
            row_corrections(&pa.man, &mut corr);
            let macs = (pa.block_rows * 8 * k * n) as f64;
            let mut secs = vec![Vec::new(); 6];
            let _ = route::take();
            for _ in 0..25 {
                for (v, secs) in secs.iter_mut().enumerate() {
                    let t = std::time::Instant::now();
                    // SAFETY: `register_tiers` saw AVX-512 F, BW and VNNI.
                    let fold = unsafe {
                        match v {
                            0 => pa.matmul(&pb).unwrap().get(0, 0) as i32,
                            1 => chains_alone(&pa, &pb),
                            2 => synthetic_chains::<2, false, false>(&pa, &corr, &pb),
                            3 => synthetic_chains::<1, true, true>(&pa, &corr, &pb),
                            4 => synthetic_chains::<2, true, true>(&pa, &corr, &pb),
                            _ => synthetic_chains::<2, false, true>(&pa, &corr, &pb),
                        }
                    };
                    std::hint::black_box(fold);
                    secs.push(t.elapsed().as_secs_f64());
                }
            }
            let gmacs: Vec<f64> = secs
                .iter_mut()
                .map(|secs| {
                    secs.sort_by(f64::total_cmp);
                    macs / secs[secs.len() / 2] / 1e9
                })
                .collect();
            let (_, direct, merges) = route::take();
            let share = direct as f64 / (direct + merges) as f64;
            let cols: Vec<String> = gmacs.iter().map(|g| format!("{g:.0}")).collect();
            println!(
                "{m}x{k}x{n} | {} | {:.0}% | {:.2}",
                cols.join(" | "),
                100.0 * share,
                gmacs[0] / gmacs[1]
            );
        }
    }

    #[test]
    fn i32_chain_holds_worst_case_growth() {
        // Equal exponents and extreme mantissas: every step adds ±2¹⁷ (or
        // −127·128·8) and nothing is ever shifted away. 2048 steps, and
        // the longest chain the i32 kernel accepts, whose sum 16383·2¹⁷ =
        // 2³¹ − 2¹⁷ is the bound itself.
        // On the VNNI tier an all-(−128) RHS has u8 offset 0: the whole
        // product is the row correction. 32 columns are a quad, whose chain
        // is all direct stretches, one per schedule pass: with `y = 127`
        // their partial sums without the corrections wrap i32 before the
        // fold.
        for kb in [2048, I32_CHAIN_MAX_KB - 1] {
            for (x, y) in [(-128i8, -128i8), (-128, 127), (127, 127)] {
                let pa = raw(PackSide::Lhs, (8, kb * 8), |_, _| 3, |_, _, _| x);
                let pb = raw(PackSide::Rhs, (kb * 8, 32), |_, _| -5, |_, _, _| y);
                let _ = route::take();
                let tiers = assert_chains_agree(&pa, &pb);
                if tiers.first() == Some(&ChainKernel::Vnni512) {
                    let passes = kb.div_ceil(QUAD_PASS_STEPS) as u64;
                    assert_eq!(route::take(), (passes, kb as u64, 0));
                    // At the bound the partial sums of the last pass's
                    // stretch (a row's true product `t` per step so far,
                    // then `u` without its correction) really leave i32.
                    let (t, u) = (8 * x as i64 * y as i64, 8 * x as i64 * (y as i64 + 128));
                    let wraps = (0..kb).any(|k| {
                        let start = k / QUAD_PASS_STEPS * QUAD_PASS_STEPS;
                        let partial = start as i64 * t + (k + 1 - start) as i64 * u;
                        partial != partial as i32 as i64
                    });
                    assert_eq!(wraps, (x, y, kb) == (-128, 127, I32_CHAIN_MAX_KB - 1));
                }
                if !tiers.is_empty() {
                    let sum = kb as f64 * 8.0 * x as f64 * y as f64;
                    let out = pa.matmul(&pb).unwrap();
                    assert!(out.data().iter().all(|&v| v == (sum * 0.25) as f32));
                }
            }
        }
    }

    #[test]
    fn i32_chain_hands_over_to_i64_at_its_bound() {
        if is_x86_feature_detected!("avx2") {
            // Plain and checked chains take the fastest tier the CPU has.
            let plain = register_tiers(I32_CHAIN_MAX_KB - 1)[0];
            assert_eq!(ChainKernel::select(8, I32_CHAIN_MAX_KB - 1, false), plain);
            let names = if plain == ChainKernel::Vnni512 {
                ("avx512-vnni (4 tiles)", "avx512-vnni (2 tiles)")
            } else {
                ("avx2", "avx2")
            };
            assert_eq!((chain_tier(false), chain_tier(true)), names);
            let longest_checked = CHECKED_CHAIN_MAX_KB - 1;
            assert_eq!(checked_tiers(longest_checked)[0], plain);
            assert_eq!(ChainKernel::select(8, longest_checked, true), plain);
            assert_eq!(ChainKernel::select(16, 4, false), ChainKernel::I64);
        }
        assert_eq!(
            ChainKernel::select(8, I32_CHAIN_MAX_KB, false),
            ChainKernel::I64
        );
        assert_eq!(
            ChainKernel::select(8, CHECKED_CHAIN_MAX_KB, true),
            ChainKernel::I64
        );
        // Chains of 2¹⁴ steps, a quad wide, whose every product is 2¹⁷:
        // 2³¹ does not fit i32, the i64 loop the dispatch picks returns it
        // exactly.
        let kb = I32_CHAIN_MAX_KB;
        let pa = raw(PackSide::Lhs, (8, kb * 8), |_, _| 0, |_, _, _| -128);
        let pb = raw(PackSide::Rhs, (kb * 8, 32), |_, _| 0, |_, _, _| -128);
        let out = pa.matmul(&pb).unwrap();
        assert!(out.data().iter().all(|&v| v == 2147483648.0));
        // And on quantized operands it is still the reference kernel's bits.
        let q = Quantizer::paper();
        let (a, b) = (spiky(8, kb * 8), spiky(kb * 8, 32));
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let got = PackedBfp::pack_lhs(&qa)
            .matmul(&PackedBfp::pack_rhs(&qb))
            .unwrap();
        assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn lane_drain_is_the_scalar_drain_bit_for_bit() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        // The i32 edges, small sums, and sums with more than f32's 24
        // significant bits, so that narrowing rounds.
        let edges = [
            0,
            1,
            -1,
            i32::MIN,
            i32::MAX,
            i32::MIN + 1,
            (1 << 24) + 1,
            -(1 << 25) - 3,
            12345,
            -131072,
            0x5555_5555,
        ];
        let acc: [i32; 64] = std::array::from_fn(|t| match edges.get(t) {
            Some(&e) => e,
            None => (t as i32).wrapping_mul(0x2f6b_1d33).rotate_left(t as u32),
        });
        let (mut subnormal, mut inf) = (false, false);
        let zmm = is_x86_feature_detected!("avx512f");
        // Every `i8 + i8` exponent, and `K = 0`; a lone tile and a strip of
        // four whose tiles hold different sums at different exponents.
        for exp in (-256..=254).map(Some).chain([None]) {
            for n in [1, 4] {
                let tiles: Vec<[i32; 64]> = (0..n)
                    .map(|t| {
                        let mut a = acc;
                        a.rotate_left(9 * t);
                        a
                    })
                    .collect();
                let exps: Vec<_> = (0..n)
                    .map(|t| exp.map(|e| (e + 256 + 131 * t as i32) % 511 - 256))
                    .collect();
                for rows in [8, 5, 1] {
                    let stride = 8 * n;
                    let mut scalar = [f32::NAN; 256];
                    for (t, (a, &e)) in tiles.iter().zip(&exps).enumerate() {
                        let mut tile = [f32::NAN; 64];
                        drain(&mut tile[..rows * 8], a.iter().map(|&a| a as f64), e);
                        for i in 0..rows {
                            scalar[i * stride + 8 * t..][..8].copy_from_slice(&tile[i * 8..][..8]);
                        }
                    }
                    let mut lanes = [f32::NAN; 256];
                    // SAFETY: AVX2 was detected above.
                    unsafe { drain_lanes(&mut lanes[..rows * stride], &tiles, &exps) };
                    assert_eq!(
                        lanes.map(f32::to_bits),
                        scalar.map(f32::to_bits),
                        "{exps:?}"
                    );
                    if zmm {
                        let mut lanes = [f32::NAN; 256];
                        // SAFETY: AVX-512 F was detected above.
                        unsafe { drain_lanes512(&mut lanes[..rows * stride], &tiles, &exps) };
                        assert_eq!(
                            lanes.map(f32::to_bits),
                            scalar.map(f32::to_bits),
                            "{exps:?}"
                        );
                    }
                    subnormal |= scalar.iter().any(|v| v.is_subnormal());
                    inf |= scalar.contains(&f32::INFINITY) && scalar.contains(&f32::NEG_INFINITY);
                }
            }
        }
        assert!(subnormal && inf, "the drain reaches both ends of f32");
    }

    /// Whether this host runs the lane tile quantiser at all.
    fn lanes() -> bool {
        TileQuantizer::select(&Quantizer::paper()) != TileQuantizer::Scalar
    }

    /// `quantize_tile_avx2` called directly: `None` when it declines the
    /// tile, when `q` is not its quantizer, or when the host lacks AVX2.
    fn lane_tile(q: &Quantizer, t: &TileSrc, side: PackSide) -> Option<(i8, [i8; 64])> {
        #[cfg(target_arch = "x86_64")]
        if TileQuantizer::select(q) == TileQuantizer::Avx2 {
            let mut man = [0i8; 64];
            // SAFETY: `select` returned the AVX2 kernel, so the host has AVX2.
            return unsafe { quantize_tile_avx2(t, side, &mut man) }.map(|e| (e, man));
        }
        None
    }

    /// [`tile_lanes::round_into`] against a chosen exponent instead of the
    /// tile's own — the only way to reach the saturating packs and the
    /// clamp. Returns the mantissas.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_round_at(vals: &[f32; 64], exp: i32, side: PackSide) -> [i8; 64] {
        let t = TileSrc {
            data: vals,
            stride: 8,
            r0: 0,
            c0: 0,
            imax: 8,
            jmax: 8,
        };
        let mut man = [0i8; 64];
        // SAFETY: the caller verified AVX2.
        unsafe { tile_lanes::round_into(&tile_lanes::load(&t), exp, side, &mut man) };
        man
    }

    /// What `lane_round_at` must return: `Quantizer::round_elem` per element.
    fn scalar_round_at(vals: &[f32; 64], exp: i32, side: PackSide) -> [i8; 64] {
        let q = Quantizer::paper();
        let mut man = [0i8; 64];
        for (t, &v) in vals.iter().enumerate() {
            man[if side == PackSide::Lhs {
                t
            } else {
                t % 8 * 8 + t / 8
            }] = q.round_elem(v, (-exp as f64).exp2(), t / 8, t % 8, 127);
        }
        man
    }

    /// One tile source on every route and both sides: the scalar tile loop
    /// is the oracle; `TileQuantizer::quantize` (what quantize-pack runs) and
    /// the lane kernel called directly must return its exponent, mantissas
    /// and error. Returns the oracle's result and whether the lane kernel
    /// took the tile itself.
    fn tile_routes_agree(q: &Quantizer, t: &TileSrc) -> (Result<i8, ArithError>, bool) {
        let (mut out, mut took) = (Ok(0), false);
        for side in [PackSide::Lhs, PackSide::Rhs] {
            let mut man = [0i8; 64];
            let want = q
                .quantize_tile_scalar(t, side, &mut man, false)
                .map(|e| (e, man));
            let mut man = [0i8; 64];
            let got = TileQuantizer::select(q)
                .quantize(q, t, side, &mut man)
                .map(|e| (e, man));
            assert_eq!(got, want, "dispatch vs scalar loop, {side:?}");
            if let Some(got) = lane_tile(q, t, side) {
                took = true;
                assert_eq!(Ok(got), want, "lane kernel vs scalar loop, {side:?}");
            }
            out = want.map(|(e, _)| e);
        }
        (out, took)
    }

    /// [`tile_routes_agree`] for a full tile, plus the composed
    /// `quantize_{lhs,rhs}` and the whole-matrix `quantize_pack_{lhs,rhs}`
    /// on the tile as an 8×8 matrix.
    fn tile_on_every_route(q: &Quantizer, vals: &[f32; 64]) -> (Result<i8, ArithError>, bool) {
        let m = MatF32::from_vec(8, 8, vals.to_vec());
        assert_packs_like_composed(q, &m);
        let (out, took) = tile_routes_agree(q, &TileSrc::of(&m, 0, 0, 8));
        assert_eq!(out, q.quantize(&m).map(|g| g.block_at(0, 0).exp));
        (out, took)
    }

    fn assert_packs_like_composed(q: &Quantizer, m: &MatF32) {
        let shape = (m.rows(), m.cols());
        assert_eq!(
            PackedBfp::quantize_pack_lhs(q, m),
            PackedBfp::quantize_lhs(q, m),
            "lhs {shape:?}"
        );
        assert_eq!(
            PackedBfp::quantize_pack_rhs(q, m),
            PackedBfp::quantize_rhs(q, m),
            "rhs {shape:?}"
        );
    }

    #[test]
    fn tile_quantizer_matches_the_exponent_search_at_every_block_maximum() {
        // The block maximum at every f32 exponent field (subnormals
        // included) × fractions around the 127.5 threshold × both signs,
        // at a moving position among smaller values, ties and zeros.
        let q = Quantizer::paper();
        let others = [
            0.0,
            0.5,
            -0.25,
            0.996,
            -1.0,
            1.5 / 127.0,
            -62.5 / 127.0,
            -0.0,
        ];
        for biased in 0u32..=254 {
            for frac in [
                0u32, 1, 0x40_0000, 0x7e_ffff, 0x7f_0000, 0x7f_0001, 0x7f_ffff,
            ] {
                let max_bits = biased << 23 | frac;
                if max_bits == 0 {
                    continue;
                }
                for sign in [0u32, 0x8000_0000] {
                    let max = f32::from_bits(sign | max_bits);
                    let at = (biased as usize * 7 + frac as usize % 61) % 64;
                    let vals: [f32; 64] =
                        std::array::from_fn(|t| if t == at { max } else { max * others[t % 8] });
                    let (exp, took) = tile_on_every_route(&q, &vals);
                    let exp = exp.unwrap() as i32;
                    let proven = biased != 0 && (-120..=120).contains(&exp);
                    assert_eq!(
                        exp_from_max_bits(max_bits),
                        proven.then_some(exp),
                        "{max_bits:#x}"
                    );
                    assert_eq!(took, proven && lanes(), "{max_bits:#x}");
                }
            }
        }
    }

    #[test]
    fn tile_quantizer_rounds_every_tie_to_even() {
        // k + 0.5 for every k in [−128, 127], 32 to a tile beside 127.0,
        // which sets exponent 0 — except where ±127.5 is present: a maximum
        // of its own, exactly on the threshold, one exponent up.
        let q = Quantizer::paper();
        let ties: Vec<f32> = (-128..=127).map(|k| k as f32 + 0.5).collect();
        for chunk in ties.chunks(32) {
            let vals: [f32; 64] = std::array::from_fn(|t| {
                if t % 2 == 0 {
                    chunk[t / 2]
                } else {
                    127.0 - (t / 2) as f32
                }
            });
            let (exp, took) = tile_on_every_route(&q, &vals);
            assert_eq!(exp, Ok(chunk.iter().any(|v| v.abs() == 127.5) as i8));
            assert_eq!(took, lanes());
        }
        // All of them against exponent 0, where they are ties: −127.5
        // rounds to −128, which is clamped to −127.
        #[cfg(target_arch = "x86_64")]
        if lanes() {
            for (chunk, side) in ties
                .chunks(64)
                .zip([PackSide::Lhs, PackSide::Rhs].into_iter().cycle())
            {
                let vals: [f32; 64] = chunk.try_into().unwrap();
                // SAFETY: `lanes()` saw the AVX2 kernel selected.
                let got = unsafe { lane_round_at(&vals, 0, side) };
                assert_eq!(got, scalar_round_at(&vals, 0, side));
                assert!(!got.contains(&-128));
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn tile_quantizer_saturates_and_clamps_like_round_elem() {
        // Against an exponent smaller than the tile's own, products pass
        // ±127.5: the packs saturate, −128 becomes −127 and +127 stays —
        // `round_i8_rne` and `round_elem`, element for element.
        if !lanes() {
            return;
        }
        let mags = [
            127.4, 127.5, 127.6, 128.0, 128.5, 200.7, 255.5, 256.0, 32767.5, 32768.0, 7.0e4, 1.0e6,
        ];
        let vals: [f32; 64] = std::array::from_fn(|t| {
            let v = if t < 48 {
                mags[t % 12]
            } else {
                t as f32 - 55.5
            };
            if t % 2 == 0 {
                v
            } else {
                -v
            }
        });
        for side in [PackSide::Lhs, PackSide::Rhs] {
            for exp in [0, 1, 3, -2] {
                // SAFETY: `lanes()` saw the AVX2 kernel selected.
                let got = unsafe { lane_round_at(&vals, exp, side) };
                assert_eq!(got, scalar_round_at(&vals, exp, side), "{side:?} exp {exp}");
                assert!(got.iter().all(|&m| m != -128));
            }
            // SAFETY: as above.
            let man = unsafe { lane_round_at(&vals, 0, side) };
            let at = |t: usize| match side {
                PackSide::Lhs => t,
                PackSide::Rhs => t % 8 * 8 + t / 8,
            };
            let clamped: Vec<usize> = (0..64).filter(|&t| vals[t] <= -127.5).collect();
            assert!(
                clamped.len() > 20 && clamped.iter().all(|&t| man[at(t)] == -127),
                "every product at or below −127.5 clamps to −127"
            );
        }
    }

    #[test]
    fn tile_quantizer_handles_zeros_subnormals_and_the_edges_of_its_regime() {
        let q = Quantizer::paper();
        // All-zero tiles, either sign of zero: exponent 0, taken.
        for zero in [
            [0.0f32; 64],
            [-0.0; 64],
            std::array::from_fn(|t| if t % 3 == 0 { -0.0 } else { 0.0 }),
        ] {
            assert_eq!(tile_on_every_route(&q, &zero), (Ok(0), lanes()));
        }
        // Signed zeros beside real values.
        let vals: [f32; 64] = std::array::from_fn(|t| [0.0, -0.0, 3.25, -1e-3][t % 4]);
        assert_eq!(tile_on_every_route(&q, &vals), (Ok(-5), lanes()));
        // Subnormals only: the scalar loop's, with its exponent clamp.
        let vals: [f32; 64] = std::array::from_fn(|t| f32::from_bits(1 + t as u32 * 0x1_0101));
        assert_eq!(tile_on_every_route(&q, &vals), (Ok(-128), false));
        // exp = E − 133 (+1 at the threshold): −121 | −120 … 120 | 121.
        let edges = [
            (12u32, 0u32, -121, false),
            (12, 0x7f_0000, -120, true),
            (13, 0, -120, true),
        ];
        let edges = edges.into_iter().chain([
            (253, 0, 120, true),
            (253, 0x7f_0000, 121, false),
            (254, 0, 121, false),
        ]);
        for (biased, frac, exp, proven) in edges {
            let max = f32::from_bits(biased << 23 | frac);
            let vals: [f32; 64] = std::array::from_fn(|t| max * (1.0 - t as f32 / 40.0));
            assert_eq!(
                tile_on_every_route(&q, &vals),
                (Ok(exp), proven && lanes()),
                "{biased} {frac:#x}"
            );
        }
    }

    #[test]
    fn tile_quantizer_reports_non_finite_values_like_the_scalar_scan() {
        let q = Quantizer::paper();
        let base: [f32; 64] = std::array::from_fn(|t| ((t * 37) % 101) as f32 - 50.0);
        for pos in 0..64 {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN] {
                let mut vals = base;
                vals[pos] = bad;
                let at = ArithError::NonFinite {
                    at: (pos / 8, pos % 8),
                };
                assert_eq!(tile_on_every_route(&q, &vals), (Err(at), false));
                // A second one: the first in row-major order is reported.
                vals[63 - pos] = f32::INFINITY;
                let first = pos.min(63 - pos);
                let at = ArithError::NonFinite {
                    at: (first / 8, first % 8),
                };
                assert_eq!(tile_on_every_route(&q, &vals), (Err(at), false));
            }
        }
        // In the ragged tiles of a matrix, at absolute coordinates.
        let m = wave(13, 11, 3);
        for (r, c) in [(0, 8), (7, 10), (8, 0), (12, 7), (8, 8), (12, 10), (10, 9)] {
            let mut bad = m.clone();
            bad.set(r, c, f32::NAN);
            assert_packs_like_composed(&q, &bad);
            let want = Err(ArithError::NonFinite { at: (r, c) });
            assert_eq!(PackedBfp::quantize_pack_rhs(&q, &bad), want);
        }
    }

    #[test]
    fn tile_quantizer_ignores_whatever_lies_outside_a_ragged_tile() {
        // Nothing promises zeros past `imax` or `jmax` of a tile source:
        // NaNs and huge values there must neither be reported nor move the
        // exponent or a mantissa.
        let q = Quantizer::paper();
        for (imax, jmax) in [(5, 3), (8, 3), (5, 8), (1, 1), (7, 7)] {
            let buf: [f32; 64] = std::array::from_fn(|t| {
                if t / 8 < imax && t % 8 < jmax {
                    (6.0 - t as f32 * 0.05) * if t % 2 == 0 { 1.0 } else { -1.0 }
                } else {
                    [f32::NAN, 3.0e38, f32::INFINITY, -7.0e4][t % 4]
                }
            });
            let t = TileSrc {
                data: &buf,
                stride: 8,
                r0: 16,
                c0: 24,
                imax,
                jmax,
            };
            let (exp, took) = tile_routes_agree(&q, &t);
            assert_eq!((exp, took), (Ok(-4), lanes()), "{imax}x{jmax}");
            // The padding of the slot is zero, as the scalar loop leaves it.
            let (_, man) = lane_tile(&q, &t, PackSide::Rhs).unwrap_or((0, [0; 64]));
            assert!((0..64).all(|s| (s % 8 < imax && s / 8 < jmax) || man[s] == 0));
            // And a NaN inside the valid region keeps its coordinates.
            let mut bad = buf;
            bad[(imax - 1) * 8 + jmax - 1] = f32::NAN;
            let t = TileSrc { data: &bad, ..t };
            let at = ArithError::NonFinite {
                at: (16 + imax - 1, 24 + jmax - 1),
            };
            assert_eq!(tile_routes_agree(&q, &t), (Err(at), false));
        }
    }

    #[test]
    fn tile_quantizer_leaves_every_other_quantizer_to_the_scalar_loop() {
        use crate::quant::RoundMode;
        let others = [
            Quantizer {
                round: RoundMode::Truncate,
                ..Quantizer::paper()
            },
            Quantizer {
                round: RoundMode::Stochastic,
                ..Quantizer::paper()
            },
            Quantizer::with_man_bits(4),
            Quantizer::with_block(4),
            Quantizer::with_block(16),
        ];
        for q in others {
            assert_eq!(TileQuantizer::select(&q), TileQuantizer::Scalar, "{q:?}");
            for m in [spiky(37, 29), wave(16, 24, 2)] {
                assert_packs_like_composed(&q, &m);
            }
        }
    }

    #[test]
    fn quantize_pack_matches_composed_on_deit_and_degenerate_shapes() {
        let q = Quantizer::paper();
        for (r, c) in [
            (197, 197),
            (197, 72),
            (72, 131),
            (5, 3),
            (0, 8),
            (8, 0),
            (1, 197),
        ] {
            assert_packs_like_composed(&q, &spiky(r, c));
            assert_packs_like_composed(&q, &wave(r, c, 11));
            let p = PackedBfp::quantize_pack_rhs(&q, &wave(r, c, 11)).unwrap();
            assert_eq!(
                (p.rows(), p.cols(), p.grid()),
                (r, c, (r.div_ceil(8), c.div_ceil(8)))
            );
        }
    }

    #[test]
    fn accessors_report_layout() {
        let q = Quantizer::paper();
        let p = PackedBfp::quantize_rhs(&q, &wave(10, 20, 9)).unwrap();
        assert_eq!((p.rows(), p.cols()), (10, 20));
        assert_eq!(p.block(), 8);
        assert_eq!(p.grid(), (2, 3));
        assert_eq!(p.side(), PackSide::Rhs);
        assert_eq!(p.bytes(), 2 * 3 * 64 + 6);
    }
}
