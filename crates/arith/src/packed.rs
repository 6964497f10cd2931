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
//! for the entire K loop: `chain_pair_vnni512` (`vpdpbusd` on zmm, two
//! output tiles per register, u8-offset RHS) on an AVX-512 VNNI host,
//! `chain_i32_avx2` (`vpmaddwd`) on any other AVX2 host; every other case
//! takes the i64 chain loop, which is also both register kernels' bit
//! oracle. `ChainKernel::select` is the only place a tier is chosen.
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

/// Geometry of one hot output tile as seen by a fused epilogue: the tile
/// is anchored at `(r0, c0)` of the logical output matrix and only its
/// `imax × jmax` top-left region holds real (unpadded) elements.
#[derive(Debug, Clone, Copy)]
pub struct EpilogueCtx {
    /// Absolute output row of the tile's first element.
    pub r0: usize,
    /// Absolute output column of the tile's first element.
    pub c0: usize,
    /// Valid rows in this tile (`<= block`).
    pub imax: usize,
    /// Valid columns in this tile (`<= block`).
    pub jmax: usize,
    /// Block side length; the tile buffer is `block × block` row-major.
    pub b: usize,
}

impl PackedBfp {
    /// Packed GEMM with a fused per-tile epilogue: each output tile is
    /// dequantized into a `b×b` scratch buffer, handed to `epi` while
    /// still register/L1-hot, and only then written to the f32 output.
    ///
    /// The GEMM bits entering the epilogue are identical to
    /// [`PackedBfp::matmul`]'s output (same accumulation chain, same
    /// `(acc · 2^exp) as f32` dequantize), so an element-wise epilogue —
    /// bias add, activation, residual add — produces exactly the bits the
    /// composed GEMM-then-separate-pass pipeline produces, without
    /// materialising the intermediate matrix twice. Tiles are visited in
    /// the same `(bi, bj)` row-major order as the serial kernel.
    ///
    /// `K = 0` chains still run the epilogue over an all-zero tile, just
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

    /// Computes output tiles `bi_lo..bi_hi` in `(bi, bj)` row-major order:
    /// runs each tile's exponent-alignment chain on `kernel` (`Vnni512`
    /// runs two adjacent tiles per call, the others one), dequantizes
    /// it into a `b×b` scratch buffer, applies `epi` to the hot tile, then
    /// copies its valid region into `out_rows`, the row-major f32 buffer
    /// whose first row is output row `bi_lo·b` and whose rows are the full
    /// logical width. Every kernel produces the same aligned integers, and
    /// the lane drain the register kernels use is the scalar drain's IEEE
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
        let mut acc32 = [[0i32; 64]; 2];
        let mut tile = vec![0f32; bb];
        for bi in bi_lo..bi_hi {
            let imax = b.min(self.rows - bi * b);
            let x = &self.man[bi * kb * bb..][..kb * bb];
            kernel.stage_lhs(x, &mut xs);
            let mut bj = 0;
            while bj < rhs.block_cols {
                // How many tiles from `bj` on this call computed, and their
                // exponents.
                let (n, exps) = match kernel {
                    #[cfg(target_arch = "x86_64")]
                    ChainKernel::Avx2I32 | ChainKernel::Vnni512 => {
                        let x_exps = &self.exps[bi * kb..][..kb];
                        kernel.chain_i32(x, &xs, x_exps, rhs, bj, &mut acc32)
                    }
                    ChainKernel::I64 => {
                        let exp = self.chain_i64(rhs, bi, bj, &mut prod, &mut acc64);
                        (1, [exp, None])
                    }
                };
                for (t, &exp) in exps[..n].iter().enumerate() {
                    let hot = &mut tile[..imax * b];
                    match kernel {
                        // SAFETY: `select` produces a register kernel only
                        // after detecting AVX2.
                        #[cfg(target_arch = "x86_64")]
                        ChainKernel::Avx2I32 | ChainKernel::Vnni512 => unsafe {
                            drain_lanes(hot, &acc32[t], exp)
                        },
                        ChainKernel::I64 => drain(hot, acc64.iter().map(|&a| a as f64), exp),
                    }
                    let c0 = (bj + t) * b;
                    let ctx = EpilogueCtx {
                        r0: bi * b,
                        c0,
                        imax,
                        jmax: b.min(rhs.cols - c0),
                        b,
                    };
                    epi(&mut tile, &ctx);
                    for i in 0..ctx.imax {
                        let dst = &mut out_rows[(ctx.r0 + i - bi_lo * b) * rhs.cols + ctx.c0..];
                        dst[..ctx.jmax].copy_from_slice(&tile[i * b..][..ctx.jmax]);
                    }
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
/// The bound holds for [`chain_pair_vnni512`] too, offset included: its
/// row product is `c + Σ x·(y + 128)` from the row correction
/// `c = −128·Σₖ x[i][k]`, `|c| ≤ 128·8·128 = 2¹⁷`, and each `vpdpbusd`
/// adds less than `4·255·128 < 2¹⁷`, so no intermediate reaches 2¹⁸ and
/// the non-saturating `vpdpbusd` never wraps; each row ends as the exact
/// tile product, so `|acc| ≤ n·2¹⁷` is unchanged. Its per-lane `vpsravd`
/// sign-fills for counts ≥ 32, as `shift_right_trunc` does for every
/// shift ≥ 32 of a value that fits i32.
const I32_CHAIN_MAX_KB: usize = 1 << 14;

/// The same bound for a checked chain, whose checksum lanes grow eight
/// times faster than a data row: a lane is the sum of a row or column of
/// eight accumulators, so `|chk| ≤ 8·n·2¹⁷ = n·2²⁰` (per step: a pack-time
/// lane entry sums eight mantissas, `|xc| ≤ 2¹⁰`, and the checksum product
/// is `|cp| ≤ 8·2¹⁰·2⁷ = 2²⁰`). Chains shorter than 2¹¹ steps (K < 16 384)
/// keep the lanes inside i32.
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
    /// [`chain_pair_vnni512`]: plain `b == 8` chains, two output tiles per
    /// call, on an AVX2 + AVX-512 F, BW and VNNI host. Only
    /// [`ChainKernel::select`] produces it, which is the proof of those
    /// features its `unsafe` callers cite.
    #[cfg(target_arch = "x86_64")]
    Vnni512,
}

impl ChainKernel {
    /// The fastest kernel for `block`-sized tiles and chains of `kb` steps,
    /// `checked` or plain, on this host (runtime feature detection, once
    /// per call). The checked chain's i16 lanes do not fit `vpdpbusd`'s
    /// u8 × i8 operands, so only plain chains take the VNNI tier. A host
    /// with AVX-VNNI but no AVX-512 runs the AVX2 tier.
    pub(crate) fn select(block: usize, kb: usize, checked: bool) -> ChainKernel {
        #[cfg(target_arch = "x86_64")]
        {
            let max_kb = if checked {
                CHECKED_CHAIN_MAX_KB
            } else {
                I32_CHAIN_MAX_KB
            };
            if block == 8 && kb < max_kb && is_x86_feature_detected!("avx2") {
                if !checked
                    && is_x86_feature_detected!("avx512f")
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

    /// The plain chains from output tile `(·, bj)` on: one tile on
    /// `Avx2I32`, the pair `(·, bj)`, `(·, bj + 1)` on `Vnni512` (or the
    /// lone last one). `x` is the LHS block-row and `xs` what
    /// [`ChainKernel::stage_lhs`] left for it. Leaves tile `t`'s sums in
    /// `acc[t]` and returns how many tiles it computed and their exponents.
    #[cfg(target_arch = "x86_64")]
    fn chain_i32(
        self,
        x: &[i8],
        xs: &[i32],
        x_exps: &[i8],
        rhs: &PackedBfp,
        bj: usize,
        acc: &mut [[i32; 64]; 2],
    ) -> (usize, [Option<i32>; 2]) {
        // SAFETY: only `select` produces a register kernel, and only after
        // detecting the features it needs.
        unsafe {
            match self {
                ChainKernel::Avx2I32 => {
                    let mut plain = ChainSums::default();
                    let exp = chain_i32_avx2::<false>(xs, x_exps, rhs, bj, &mut plain, &mut acc[0]);
                    (1, [exp, None])
                }
                ChainKernel::Vnni512 => chain_pair_vnni512(x, xs, x_exps, rhs, bj, acc),
                ChainKernel::I64 => unreachable!("the i64 chain is `PackedBfp::chain_i64`"),
            }
        }
    }
}

/// The chain tier a plain bfp8 (`b == 8`) GEMM runs on this host, as
/// `ChainKernel::select` picks it: `"avx512-vnni"`, `"avx2"` or `"i64"`.
pub fn chain_tier() -> &'static str {
    match ChainKernel::select(8, 1, false) {
        ChainKernel::I64 => "i64",
        #[cfg(target_arch = "x86_64")]
        ChainKernel::Avx2I32 => "avx2",
        #[cfg(target_arch = "x86_64")]
        ChainKernel::Vnni512 => "avx512-vnni",
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

/// [`drain`] on lanes for a register chain's i32 sums, four at a time:
/// `vcvtdq2pd`, `vmulpd` by `2^exp`, `vcvtpd2ps`. These are the scalar
/// drain's IEEE operations — an exact widening, a product that is exact
/// (`|acc·2^exp|` stays inside f64's normal range for every `i8 + i8`
/// exponent), one round-to-nearest-even narrowing to f32 — so the bits
/// are its bits, subnormal and overflowing results included.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn drain_lanes(tile: &mut [f32], acc: &[i32; 64], exp: Option<i32>) {
    use std::arch::x86_64::*;
    let Some(exp) = exp else {
        return tile.fill(0.0);
    };
    assert!(
        tile.len().is_multiple_of(4) && tile.len() <= 64,
        "whole rows of a tile"
    );
    let scale = _mm256_set1_pd((exp as f64).exp2());
    for (o, a) in tile.chunks_exact_mut(4).zip(acc.chunks_exact(4)) {
        // SAFETY: one 16-byte load and one 16-byte store, each exactly
        // covering its four-element chunk.
        unsafe {
            let wide = _mm256_cvtepi32_pd(_mm_loadu_si128(a.as_ptr() as *const __m128i));
            _mm_storeu_ps(o.as_mut_ptr(), _mm256_cvtpd_ps(_mm256_mul_pd(wide, scale)));
        }
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

/// The checksum side of a checked register chain: in, the operands'
/// pack-time lanes; out, the lanes of the accumulator the chain returns.
/// The plain chain never touches it.
#[derive(Default)]
pub(crate) struct ChainSums<'a> {
    /// Column sums of the LHS block-row's tiles, eight per tile step.
    pub xc: &'a [i16],
    /// Row sums of every RHS tile, eight per tile, grid row-major.
    pub yc: &'a [i16],
    /// Column sums (`chk`) and row sums of the returned accumulator.
    pub chk: [i32; 8],
    pub rchk: [i32; 8],
    /// Truncation events verified on the way.
    pub checks: u64,
    /// A verification failed: the chain stopped there and returned nothing
    /// usable. The caller replays it on the scalar loop, which localises.
    pub mismatch: bool,
    /// Test-only seam: before step `.0`, add `.2` to accumulator element `.1`.
    #[cfg(test)]
    pub upset: Option<(usize, usize, i32)>,
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
pub(crate) unsafe fn chain_i32_avx2<const CHECKED: bool>(
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
    /// LHS lane of tile `xt` as a ninth row, and `rp`, the tile's k-pairs
    /// against the RHS lane of tile `yt`, rows in lane order
    /// `[0, 2, 4, 6, 1, 3, 5, 7]`. Called after the row products, so their
    /// k-pair broadcasts stay loads instead of shuffles of `rp`'s operands.
    #[inline(always)]
    unsafe fn ninth_row_and_column(
        sums: &ChainSums<'_>,
        xt: usize,
        yt: usize,
        x: &[i32; 32],
        p: &[__m256i; 4],
    ) -> (__m256i, __m256i) {
        let xc = &sums.xc[xt * 8..][..8];
        let yc = &sums.yc[yt * 8..][..8];
        let pair = |n: usize| (xc[2 * n] as u16 as i32) | (xc[2 * n + 1] as i32) << 16;
        let cp = row_product(&[pair(0), pair(1), pair(2), pair(3)], p);
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
        if let Some((_, e, delta)) = sums.upset.filter(|u| CHECKED && u.0 == bk) {
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
                sums.mismatch = true;
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
                sums.mismatch = true;
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
            _mm256_storeu_si256(sums.chk.as_mut_ptr() as *mut __m256i, chk);
            _mm256_storeu_si256(sums.rchk.as_mut_ptr() as *mut __m256i, rchk);
        }
        sums.checks = checks;
        sums.mismatch = false;
    }
    acc_exp
}

/// The plain register chain on zmm: the whole K-loop of the two adjacent
/// output tiles `A = (·, bj)` and `B = (·, bj + 1)` side by side, row `i`
/// of both accumulators in zmm register `i` as i32, with `vpdpbusd`'s 64
/// MACs per instruction.
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
    acc_out: &mut [[i32; 64]; 2],
) -> (usize, [Option<i32>; 2]) {
    use std::arch::x86_64::*;
    let kb = x_exps.len();
    let nb = rhs.block_cols;
    assert!(kb < I32_CHAIN_MAX_KB, "chain too long for i32 accumulators");
    assert_eq!((x.len(), corr.len()), (kb * 64, kb * 8));
    let pair = bj + 1 < nb;
    let tiles = 1 + pair as usize;
    let zero = _mm512_setzero_si512();
    let flip = _mm512_set1_epi8(-128);
    let mut acc = [zero; 8];
    let mut exps = [None; 2];
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
        if da > 0 || db > 0 {
            let sh = _mm512_mask_set1_epi32(_mm512_set1_epi32(da.max(0)), 0xCCCC, db.max(0));
            for a in acc.iter_mut() {
                *a = _mm512_srav_epi32(*a, sh);
            }
        }
        let sh = _mm512_mask_set1_epi32(_mm512_set1_epi32((-da).max(0)), 0xCCCC, (-db).max(0));
        let xq = xt.as_ptr() as *const i32;
        for (i, a) in acc.iter_mut().enumerate() {
            // SAFETY: dwords `2i` and `2i + 1` of the 64-byte tile `xt`,
            // row `i`'s two k-quads.
            let (q0, q1) = unsafe {
                (
                    xq.add(2 * i).read_unaligned(),
                    xq.add(2 * i + 1).read_unaligned(),
                )
            };
            let half = _mm512_dpbusd_epi32(_mm512_set1_epi32(c[i]), p0, _mm512_set1_epi32(q0));
            let prod = _mm512_dpbusd_epi32(half, p1, _mm512_set1_epi32(q1));
            // The chain merge, i32 width, per lane.
            *a = _mm512_add_epi32(*a, _mm512_srav_epi32(prod, sh));
        }
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
    (tiles, exps)
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
            if let Some((exp, saturated)) = unsafe { quantize_tile_avx2(t, side, man) } {
                q.saturation.check(saturated)?;
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
/// final packed order. Returns the exponent and the clamp count, or `None`
/// for a tile it declines — the caller then runs the scalar loop, which
/// also owns every error.
///
/// The block maximum is taken over `bits & 0x7fff_ffff`, which orders
/// magnitudes and puts every NaN and infinity at or above `0x7f80_0000`,
/// so [`exp_from_max_bits`] declines a tile holding one.
///
/// # Safety
/// Callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_tile_avx2(t: &TileSrc, side: PackSide, man: &mut [i8; 64]) -> Option<(i8, u64)> {
    // SAFETY: the caller verified AVX2; the helpers ask nothing else.
    unsafe {
        let rows = tile_lanes::load(t);
        let max_bits = tile_lanes::max_abs_bits(&rows);
        if max_bits == 0 {
            // All-zero tile: canonical exponent 0, mantissas stay 0.
            return Some((0, 0));
        }
        let exp = exp_from_max_bits(max_bits)?;
        Some((exp as i8, tile_lanes::round_into(&rows, exp, side, man)))
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
    /// so the scale `2^−exp`, built from bits, is a normal f32); returns
    /// the clamp count.
    ///
    /// `vmulps` by a power of two is exact unless the product falls below
    /// 2⁻¹²⁶, where the exact value and whatever the multiply returns both
    /// round to 0, so `vcvtps2dq` (nearest even under the default MXCSR) is
    /// `round_i8_rne` of the scalar loop's f64 product. Two saturating
    /// packs (`vpackssdw`, `vpacksswb`) narrow to bytes; `−128` is counted
    /// and clamped to `−127` as `Quantizer::round_elem` does — against the
    /// tile's own exponent no product passes 127.5 and neither fires. The
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
    ) -> u64 {
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
        let below = _mm256_movemask_epi8(_mm256_cmpgt_epi8(floor, top)) as u32 as u64
            | (_mm256_movemask_epi8(_mm256_cmpgt_epi8(floor, bottom)) as u32 as u64) << 32;
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
        below.count_ones() as u64
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
        let strict = Quantizer {
            saturation: crate::guard::SaturationPolicy::Limit(0),
            ..Quantizer::paper()
        };
        for q in [Quantizer::paper(), strict] {
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

    /// Plain GEMM forced onto one chain kernel.
    fn matmul_on(kernel: ChainKernel, pa: &PackedBfp, pb: &PackedBfp) -> MatF32 {
        let mut out = MatF32::zeros(pa.rows, pb.cols);
        let mut noop = |_: &mut [f32], _: &EpilogueCtx| {};
        pa.fused_rows_on(kernel, pb, 0, pa.block_rows, &mut noop, out.data_mut());
        out
    }

    /// Every register tier this host's CPU flags allow for plain chains of
    /// `kb` steps, fastest first.
    fn register_tiers(kb: usize) -> Vec<ChainKernel> {
        let mut tiers = Vec::new();
        if kb < I32_CHAIN_MAX_KB && is_x86_feature_detected!("avx2") {
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
        let (mut acc32, mut prod, mut acc64) = ([[0i32; 64]; 2], [0i32; 64], [0i64; 64]);
        for &tier in &tiers {
            let mut xs = vec![0i32; tier.staged_words(kb)];
            for bi in 0..pa.block_rows {
                let x = &pa.man[bi * kb * 64..][..kb * 64];
                tier.stage_lhs(x, &mut xs);
                let mut bj = 0;
                while bj < pb.block_cols {
                    let x_exps = &pa.exps[bi * kb..][..kb];
                    let (n, exps) = tier.chain_i32(x, &xs, x_exps, pb, bj, &mut acc32);
                    let pairs = tier == ChainKernel::Vnni512;
                    assert_eq!(n, 1 + (pairs && bj + 1 < pb.block_cols) as usize);
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
        // 19 columns: a tile pair and a lone last tile.
        for walks in [[even, even], [even, odd]] {
            let b = MatF32::from_fn(kb * 8, 19, |k, j| {
                let v = if k % 8 == 0 { -100 } else { signed(j, k) };
                let e = walks[j / 8 % 2][k / 8];
                scaled(e - even[k / 8] / 2, v)
            });
            let qb = q.quantize(&b).unwrap();
            let pb = PackedBfp::pack_rhs(&qb);
            // The operands really carry the intended exponent walks.
            let pexp = |bj: usize| -> Vec<i32> {
                (0..kb)
                    .map(|bk| pa.exps[bk] as i32 + pb.exps[bk * 3 + bj] as i32)
                    .collect()
            };
            let walk = |e: &[i32]| e.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>();
            for bj in 0..3 {
                assert_eq!(walk(&pexp(bj)), walk(&walks[bj % 2]));
            }
            if walks[1] == odd {
                // Step by step, which side each tile of the pair shifts:
                // 1 the accumulator, −1 the product.
                let sides = |e: Vec<i32>| {
                    let mut max = e[0];
                    let mut side = |p: i32| {
                        let d = p - max;
                        max = max.max(p);
                        d.signum()
                    };
                    e.into_iter().map(&mut side).collect::<Vec<_>>()
                };
                let split: Vec<_> = sides(pexp(0)).into_iter().zip(sides(pexp(1))).collect();
                assert!(split.contains(&(1, -1)) && split.contains(&(-1, 1)));
            }
            let want = qa.try_matmul(&qb).unwrap();
            assert_bits_eq(&pa.matmul(&pb).unwrap(), &want);
            assert_bits_eq(&matmul_on(ChainKernel::I64, &pa, &pb), &want);
            assert_chains_agree(&pa, &pb);
        }
    }

    #[test]
    fn i32_chain_holds_worst_case_growth() {
        // Equal exponents and extreme mantissas: every step adds ±2¹⁷ (or
        // −127·128·8) and nothing is ever shifted away. 2048 steps, and
        // the longest chain the i32 kernel accepts, whose sum 16383·2¹⁷ =
        // 2³¹ − 2¹⁷ is the bound itself.
        // On the VNNI tier an all-(−128) RHS has u8 offset 0: the whole
        // product is the row correction.
        for kb in [2048, I32_CHAIN_MAX_KB - 1] {
            for (x, y) in [(-128i8, -128i8), (-128, 127), (127, 127)] {
                let pa = raw(PackSide::Lhs, (8, kb * 8), |_, _| 3, |_, _, _| x);
                let pb = raw(PackSide::Rhs, (kb * 8, 8), |_, _| -5, |_, _, _| y);
                if !assert_chains_agree(&pa, &pb).is_empty() {
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
            // Plain chains take the fastest tier the CPU has, checked ones
            // the AVX2 tier whatever else it has.
            let plain = register_tiers(I32_CHAIN_MAX_KB - 1)[0];
            assert_eq!(ChainKernel::select(8, I32_CHAIN_MAX_KB - 1, false), plain);
            assert_eq!(
                chain_tier(),
                if plain == ChainKernel::Vnni512 {
                    "avx512-vnni"
                } else {
                    "avx2"
                }
            );
            let longest_checked = CHECKED_CHAIN_MAX_KB - 1;
            assert_eq!(
                ChainKernel::select(8, longest_checked, true),
                ChainKernel::Avx2I32
            );
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
        // One chain of 2¹⁴ steps whose every product is 2¹⁷: 2³¹ does not
        // fit i32, the i64 loop the dispatch picks returns it exactly.
        let kb = I32_CHAIN_MAX_KB;
        let pa = raw(PackSide::Lhs, (8, kb * 8), |_, _| 0, |_, _, _| -128);
        let pb = raw(PackSide::Rhs, (kb * 8, 8), |_, _| 0, |_, _, _| -128);
        let out = pa.matmul(&pb).unwrap();
        assert!(out.data().iter().all(|&v| v == 2147483648.0));
        // And on quantized operands it is still the reference kernel's bits.
        let q = Quantizer::paper();
        let (a, b) = (spiky(8, kb * 8), spiky(kb * 8, 8));
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
        // Every `i8 + i8` exponent, and `K = 0`.
        for exp in (-256..=254).map(Some).chain([None]) {
            for rows in [8, 5, 1] {
                let (mut lanes, mut scalar) = ([f32::NAN; 64], [f32::NAN; 64]);
                // SAFETY: AVX2 was detected above.
                unsafe { drain_lanes(&mut lanes[..rows * 8], &acc, exp) };
                drain(&mut scalar[..rows * 8], acc.iter().map(|&a| a as f64), exp);
                assert_eq!(lanes.map(f32::to_bits), scalar.map(f32::to_bits), "{exp:?}");
                subnormal |= scalar.iter().any(|v| v.is_subnormal());
                inf |= scalar.contains(&f32::INFINITY) && scalar.contains(&f32::NEG_INFINITY);
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
    fn lane_tile(q: &Quantizer, t: &TileSrc, side: PackSide) -> Option<(i8, [i8; 64], u64)> {
        #[cfg(target_arch = "x86_64")]
        if TileQuantizer::select(q) == TileQuantizer::Avx2 {
            let mut man = [0i8; 64];
            // SAFETY: `select` returned the AVX2 kernel, so the host has AVX2.
            return unsafe { quantize_tile_avx2(t, side, &mut man) }.map(|(e, sat)| (e, man, sat));
        }
        None
    }

    /// [`tile_lanes::round_into`] against a chosen exponent instead of the
    /// tile's own — the only way to reach the saturating packs and the
    /// clamp. Returns the mantissas and the clamp count.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_round_at(vals: &[f32; 64], exp: i32, side: PackSide) -> ([i8; 64], u64) {
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
        let saturated =
            unsafe { tile_lanes::round_into(&tile_lanes::load(&t), exp, side, &mut man) };
        (man, saturated)
    }

    /// What `lane_round_at` must return: `Quantizer::round_elem` per element.
    fn scalar_round_at(vals: &[f32; 64], exp: i32, side: PackSide) -> ([i8; 64], u64) {
        let q = Quantizer::paper();
        let (mut man, mut saturated) = ([0i8; 64], 0);
        for (t, &v) in vals.iter().enumerate() {
            let (m, sat) = q.round_elem(v, (-exp as f64).exp2(), t / 8, t % 8, 127);
            saturated += sat as u64;
            man[if side == PackSide::Lhs {
                t
            } else {
                t % 8 * 8 + t / 8
            }] = m;
        }
        (man, saturated)
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
            if let Some((exp, man, saturated)) = lane_tile(q, t, side) {
                took = true;
                assert_eq!(Ok((exp, man)), want, "lane kernel vs scalar loop, {side:?}");
                assert_eq!(
                    saturated, 0,
                    "nothing passes 127.5 at the tile's own exponent"
                );
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
        // rounds to −128, which is clamped and counted.
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
                assert_eq!(got.1, vals.contains(&-127.5) as u64);
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn tile_quantizer_saturates_clamps_and_counts_like_round_elem() {
        // Against an exponent smaller than the tile's own, products pass
        // ±127.5: the packs saturate, −128 becomes −127 and is counted,
        // +127 is not — `round_i8_rne` and `round_elem`, element for element.
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
                assert!(got.0.iter().all(|&m| m != -128));
            }
            // SAFETY: as above.
            let (_, saturated) = unsafe { lane_round_at(&vals, 0, side) };
            let clamped = vals.iter().filter(|&&v| v <= -127.5).count() as u64;
            assert!(
                clamped > 20 && saturated == clamped,
                "every product at or below −127.5"
            );
        }
    }

    #[test]
    fn tile_quantizer_handles_zeros_subnormals_and_the_edges_of_its_regime() {
        let limit0 = Quantizer {
            saturation: crate::guard::SaturationPolicy::Limit(0),
            ..Quantizer::paper()
        };
        for q in [Quantizer::paper(), limit0] {
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
            let (_, man, _) = lane_tile(&q, &t, PackSide::Rhs).unwrap_or((0, [0; 64], 0));
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
