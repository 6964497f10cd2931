//! Matrix-level bfp quantization: tile an arbitrary `f32` matrix into
//! square bfp blocks, and run full matrix multiplies through the block
//! datapath (quantize → int8 block MatMul → aligned accumulation).
//!
//! The paper fixes the block at 8×8; other sizes (4, 16, …) are supported
//! here for the block-size ablation, since the accuracy-vs-hardware
//! trade-off of the block size is one of the design choices DESIGN.md calls
//! out.

use crate::bfp::{shift_right_trunc, BfpBlock, BLOCK};
use crate::error::ArithError;
use crate::int8::{mix_hash, round_i8_rne, round_i8_stochastic, round_i8_trunc};
use crate::matrix::MatF32;
use crate::packed::PackSide;
use crate::stats::ErrorStats;

/// Mantissa rounding used during quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundMode {
    /// Round to nearest, ties to even (the quantizer unit's default).
    #[default]
    NearestEven,
    /// Truncate toward zero (cheaper hardware; ablation).
    Truncate,
    /// Stochastic rounding: round up with probability equal to the
    /// fractional part (deterministic hash source) — unbiased in
    /// expectation.
    Stochastic,
}

/// Configurable bfp quantizer.
///
/// ```
/// use bfp_arith::matrix::MatF32;
/// use bfp_arith::quant::Quantizer;
///
/// let m = MatF32::from_fn(16, 16, |i, j| (i as f32 - j as f32) * 0.25);
/// let q = Quantizer::paper().quantize(&m).unwrap();
/// assert_eq!(q.grid(), (2, 2));                    // 8x8 tiles
/// assert!(q.fidelity(&m).sqnr_db() > 40.0);        // 8-bit mantissas
/// let back = q.dequantize();
/// assert_eq!(back.rows(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    /// Square block side length (8 in the paper).
    pub block: usize,
    /// Mantissa rounding mode.
    pub round: RoundMode,
    /// Mantissa width in bits, 2..=8 (8 in the paper's bfp8; smaller
    /// widths support the SqueezeBlock-style bitwidth ablation).
    pub man_bits: u32,
}

impl Default for Quantizer {
    fn default() -> Self {
        Quantizer {
            block: BLOCK,
            round: RoundMode::NearestEven,
            man_bits: 8,
        }
    }
}

impl Quantizer {
    /// The paper's configuration: 8×8 blocks, 8-bit mantissas, RNE.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A quantizer with a custom block size.
    ///
    /// # Panics
    /// Panics if `block` is 0.
    pub fn with_block(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        Quantizer {
            block,
            ..Self::default()
        }
    }

    /// A quantizer with a custom mantissa width (still stored in i8).
    ///
    /// # Panics
    /// Panics unless `2 <= man_bits <= 8`.
    pub fn with_man_bits(man_bits: u32) -> Self {
        assert!(
            (2..=8).contains(&man_bits),
            "mantissa width must be 2..=8 bits"
        );
        Quantizer {
            man_bits,
            ..Self::default()
        }
    }

    /// Largest representable mantissa magnitude (symmetric clamp).
    pub fn max_mag(&self) -> i32 {
        (1 << (self.man_bits - 1)) - 1
    }

    /// Quantize a matrix, zero-padding the bottom/right edges to a whole
    /// number of blocks (padding mantissas are exactly zero, so they never
    /// perturb products).
    pub fn quantize(&self, m: &MatF32) -> Result<BfpMatrix, ArithError> {
        self.quantize_with(m, false)
    }

    /// [`Quantizer::quantize`] through the reference tile scan
    /// (`Quantizer::tile_exp_reference`). Bit-identical output; this is
    /// the measured pre-optimisation epilogue the scalar baseline replays.
    pub fn quantize_reference(&self, m: &MatF32) -> Result<BfpMatrix, ArithError> {
        self.quantize_with(m, true)
    }

    fn quantize_with(&self, m: &MatF32, reference_scan: bool) -> Result<BfpMatrix, ArithError> {
        let b = self.block;
        let block_rows = m.rows().div_ceil(b);
        let block_cols = m.cols().div_ceil(b);
        let mut blocks = Vec::with_capacity(block_rows * block_cols);
        for bi in 0..block_rows {
            for bj in 0..block_cols {
                blocks.push(self.quantize_tile(m, bi * b, bj * b, reference_scan)?);
            }
        }
        Ok(BfpMatrix {
            rows: m.rows(),
            cols: m.cols(),
            block: b,
            block_rows,
            block_cols,
            blocks,
        })
    }

    /// Scan a tile's valid region and derive its shared exponent. `Ok(None)`
    /// means an all-zero tile (canonical exponent 0, zero mantissas). Rows
    /// are walked in (i, j) order, so the first non-finite element is the
    /// one reported, at its absolute position; the f32 max converts exactly
    /// to f64, so the exponent search is exact too.
    fn tile_exp(&self, t: &TileSrc) -> Result<Option<i8>, ArithError> {
        let mut max_abs = 0f32;
        for i in 0..t.imax {
            let row = &t.data[i * t.stride..][..t.jmax];
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(ArithError::NonFinite {
                        at: (t.r0 + i, t.c0 + j),
                    });
                }
                max_abs = max_abs.max(v.abs());
            }
        }
        let max_abs = max_abs as f64;
        if max_abs == 0.0 {
            return Ok(None);
        }
        self.exp_for_max_abs(max_abs).map(Some)
    }

    /// The pre-optimisation tile scan: every position of the `block²` tile
    /// behind its own bounds branches, and an f64 running max. Kept
    /// runnable as the oracle [`Quantizer::tile_exp`] is pinned against and
    /// as the epilogue the scalar baseline engine replays, so "before" numbers
    /// stay measurable on today's tree. Bit-identical to the slice scan
    /// (the f32 max converts exactly to f64 and the (i, j) error order
    /// matches).
    fn tile_exp_reference(&self, t: &TileSrc) -> Result<Option<i8>, ArithError> {
        let b = self.block;
        let mut max_abs = 0f64;
        for i in 0..b {
            for j in 0..b {
                if i < t.imax && j < t.jmax {
                    let v = t.data[i * t.stride + j];
                    if !v.is_finite() {
                        return Err(ArithError::NonFinite {
                            at: (t.r0 + i, t.c0 + j),
                        });
                    }
                    max_abs = max_abs.max((v as f64).abs());
                }
            }
        }
        if max_abs == 0.0 {
            return Ok(None);
        }
        self.exp_for_max_abs(max_abs).map(Some)
    }

    /// Shared exponent for a tile whose largest magnitude is `max_abs`
    /// (non-zero): the smallest exponent whose rounded mantissa for
    /// `max_abs` still fits the symmetric clamp.
    fn exp_for_max_abs(&self, max_abs: f64) -> Result<i8, ArithError> {
        let mag = self.max_mag() as f64;
        let mut exp = (max_abs.log2().floor() as i32) - (self.man_bits as i32 - 2);
        while (max_abs * (-exp as f64).exp2()).round() > mag {
            exp += 1;
        }
        while exp > i8::MIN as i32 + 1 && (max_abs * (-(exp - 1) as f64).exp2()).round() <= mag {
            exp -= 1;
        }
        if exp > i8::MAX as i32 {
            return Err(ArithError::ExponentOverflow { exp });
        }
        Ok(exp.max(i8::MIN as i32) as i8)
    }

    /// Round one element at absolute position `(r, c)` against a tile scale;
    /// returns the mantissa clamped to `±clamp`, silently, as the
    /// hardware does.
    #[inline]
    pub(crate) fn round_elem(&self, v: f32, scale: f64, r: usize, c: usize, clamp: i8) -> i8 {
        let scaled = v as f64 * scale;
        let q = match self.round {
            RoundMode::NearestEven => round_i8_rne(scaled),
            RoundMode::Truncate => round_i8_trunc(scaled),
            RoundMode::Stochastic => {
                round_i8_stochastic(scaled, mix_hash(r, c, (scaled as f32).to_bits()))
            }
        };
        q.clamp(-clamp, clamp)
    }

    /// Round a scanned tile's valid region against its shared exponent
    /// into `man` (a zeroed `block²` slot: row-major for
    /// [`PackSide::Lhs`], transposed for [`PackSide::Rhs`]) and return
    /// the exponent.
    fn round_tile(&self, scanned: Option<i8>, t: &TileSrc, side: PackSide, man: &mut [i8]) -> i8 {
        // All-zero tile: canonical exponent 0, mantissas stay 0.
        let Some(exp) = scanned else { return 0 };
        let b = self.block;
        let scale = (-(exp as i32) as f64).exp2();
        let clamp = self.max_mag() as i8;
        for i in 0..t.imax {
            let row = &t.data[i * t.stride..][..t.jmax];
            for (j, &v) in row.iter().enumerate() {
                man[match side {
                    PackSide::Lhs => i * b + j,
                    PackSide::Rhs => j * b + i,
                }] = self.round_elem(v, scale, t.r0 + i, t.c0 + j, clamp);
            }
        }
        exp
    }

    /// The one scalar tile loop: scan (the slice scan, or the reference
    /// scan [`Quantizer::quantize_reference`] asks for), shared exponent,
    /// rounding walk and clamp of one tile, mantissas into `man`
    /// (zeroed on entry; an all-zero tile and the padding leave it
    /// untouched) in `side`'s layout. Returns the tile's exponent.
    /// [`Quantizer::quantize`] and the fused quantize-pack both run this,
    /// so they cannot drift apart bit-wise, and it is the bit and error
    /// oracle — and the fallback — of the AVX2 tile quantiser in
    /// [`crate::packed`].
    pub(crate) fn quantize_tile_scalar(
        &self,
        t: &TileSrc,
        side: PackSide,
        man: &mut [i8],
        reference_scan: bool,
    ) -> Result<i8, ArithError> {
        let scanned = if reference_scan {
            self.tile_exp_reference(t)?
        } else {
            self.tile_exp(t)?
        };
        Ok(self.round_tile(scanned, t, side, man))
    }

    fn quantize_tile(
        &self,
        m: &MatF32,
        r0: usize,
        c0: usize,
        reference_scan: bool,
    ) -> Result<GenBlock, ArithError> {
        let t = TileSrc::of(m, r0, c0, self.block);
        let mut man = vec![0i8; self.block * self.block];
        let exp = self.quantize_tile_scalar(&t, PackSide::Lhs, &mut man, reference_scan)?;
        Ok(GenBlock { exp, man })
    }
}

/// One tile of an f32 matrix as the tile quantisers read it: `data[0]` is
/// the tile's element (0, 0), rows lie `stride` apart, and only the
/// `imax × jmax` top-left region is real. `(r0, c0)` is the tile's anchor
/// in the logical matrix: errors and the stochastic-rounding hash use
/// absolute positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileSrc<'a> {
    pub data: &'a [f32],
    pub stride: usize,
    pub r0: usize,
    pub c0: usize,
    pub imax: usize,
    pub jmax: usize,
}

impl<'a> TileSrc<'a> {
    /// The `b × b` tile of `m` anchored at `(r0, c0)`, clipped to the matrix.
    pub(crate) fn of(m: &'a MatF32, r0: usize, c0: usize, b: usize) -> TileSrc<'a> {
        TileSrc {
            data: &m.data()[r0 * m.cols() + c0..],
            stride: m.cols(),
            r0,
            c0,
            imax: b.min(m.rows() - r0),
            jmax: b.min(m.cols() - c0),
        }
    }
}

/// One quantized tile of generic side length (mantissas row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenBlock {
    /// Shared exponent.
    pub exp: i8,
    /// `block × block` row-major int8 mantissas.
    pub man: Vec<i8>,
}

/// A matrix quantized into a grid of bfp blocks.
#[derive(Debug, Clone)]
pub struct BfpMatrix {
    rows: usize,
    cols: usize,
    block: usize,
    block_rows: usize,
    block_cols: usize,
    /// Row-major grid of blocks.
    blocks: Vec<GenBlock>,
}

impl BfpMatrix {
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

    /// Access a block of the grid.
    pub fn block_at(&self, bi: usize, bj: usize) -> &GenBlock {
        assert!(
            bi < self.block_rows && bj < self.block_cols,
            "block index out of range"
        );
        &self.blocks[bi * self.block_cols + bj]
    }

    /// Convert one grid tile to the hardware's fixed 8×8 [`BfpBlock`].
    ///
    /// # Panics
    /// Panics if this matrix was not quantized with `block == 8`.
    pub fn block8_at(&self, bi: usize, bj: usize) -> BfpBlock {
        assert_eq!(self.block, BLOCK, "block8_at requires 8x8 quantization");
        let g = self.block_at(bi, bj);
        let mut man = [[0i8; BLOCK]; BLOCK];
        for i in 0..BLOCK {
            man[i].copy_from_slice(&g.man[i * BLOCK..(i + 1) * BLOCK]);
        }
        BfpBlock { exp: g.exp, man }
    }

    /// Dequantize back to `f32` (padding is discarded).
    ///
    /// Walks the grid once per *block*, not per element: each tile's
    /// exponent is decoded to a scale a single time and its `b×b` mantissas
    /// are written in one pass per row segment.
    pub fn dequantize(&self) -> MatF32 {
        let b = self.block;
        let cols = self.cols;
        let mut out = MatF32::zeros(self.rows, self.cols);
        let data = out.data_mut();
        for bi in 0..self.block_rows {
            let imax = b.min(self.rows - bi * b);
            for bj in 0..self.block_cols {
                let jmax = b.min(self.cols - bj * b);
                let g = &self.blocks[bi * self.block_cols + bj];
                let scale = (g.exp as f64).exp2();
                for i in 0..imax {
                    let src = &g.man[i * b..][..jmax];
                    let dst = &mut data[(bi * b + i) * cols + bj * b..][..jmax];
                    for (o, &m) in dst.iter_mut().zip(src.iter()) {
                        *o = (m as f64 * scale) as f32;
                    }
                }
            }
        }
        out
    }

    /// Full matrix multiply through the bfp datapath: per-tile int8 MatMul
    /// with exponent addition, partial tiles combined by aligned wide
    /// accumulation (the shifter + ACC path), final result dequantized.
    ///
    /// This is the functional twin of what the cycle simulator in `bfp-pu`
    /// computes; the two are cross-checked in integration tests.
    ///
    /// # Panics
    /// Panics on dimension or block-size mismatch; production callers
    /// should prefer [`BfpMatrix::try_matmul`].
    pub fn matmul(&self, rhs: &BfpMatrix) -> MatF32 {
        self.try_matmul(rhs)
            .unwrap_or_else(|e| panic!("matmul: {e}"))
    }

    /// Fallible twin of [`BfpMatrix::matmul`]: dimension and block-size
    /// mismatches come back as typed errors instead of panics.
    pub fn try_matmul(&self, rhs: &BfpMatrix) -> Result<MatF32, ArithError> {
        self.check_compatible(rhs)?;
        let b = self.block;
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        let mut wide = vec![0i64; b * b];
        for bi in 0..self.block_rows {
            for bj in 0..rhs.block_cols {
                // Accumulate over the K dimension with exponent alignment.
                let mut acc_exp = 0i32;
                let mut acc: Vec<i64> = vec![0; b * b];
                let mut first = true;
                for bk in 0..self.block_cols {
                    let x = self.block_at(bi, bk);
                    let y = rhs.block_at(bk, bj);
                    let pexp = x.exp as i32 + y.exp as i32;
                    // int8 tile MatMul into the wide buffer.
                    for i in 0..b {
                        for j in 0..b {
                            let mut s = 0i32;
                            for k in 0..b {
                                s += x.man[i * b + k] as i32 * y.man[k * b + j] as i32;
                            }
                            wide[i * b + j] = s as i64;
                        }
                    }
                    if first {
                        acc.copy_from_slice(&wide);
                        acc_exp = pexp;
                        first = false;
                    } else if pexp >= acc_exp {
                        let sh = (pexp - acc_exp) as u32;
                        for (a, &w) in acc.iter_mut().zip(wide.iter()) {
                            *a = shift_right_trunc(*a, sh) + w;
                        }
                        acc_exp = pexp;
                    } else {
                        let sh = (acc_exp - pexp) as u32;
                        for (a, &w) in acc.iter_mut().zip(wide.iter()) {
                            *a += shift_right_trunc(w, sh);
                        }
                    }
                }
                let scale = (acc_exp as f64).exp2();
                for i in 0..b {
                    for j in 0..b {
                        let (r, c) = (bi * b + i, bj * b + j);
                        if r < out.rows() && c < out.cols() {
                            out.set(r, c, (acc[i * b + j] as f64 * scale) as f32);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn check_compatible(&self, rhs: &BfpMatrix) -> Result<(), ArithError> {
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

    /// Quantization fidelity against the original matrix.
    pub fn fidelity(&self, original: &MatF32) -> ErrorStats {
        let deq = self.dequantize();
        let mut stats = ErrorStats::new();
        stats.push_slices(deq.data(), original.data());
        stats
    }

    /// Chained matrix multiply: like [`BfpMatrix::matmul`], but the output
    /// stays in the bfp8 domain — each output tile is requantized by the
    /// on-chip quantizer unit (round-half-away shift of the wide mantissas)
    /// instead of being dequantized to f32. This is the path a compiler
    /// uses between back-to-back linear layers.
    ///
    /// # Panics
    /// Panics on dimension or block-size mismatch; production callers
    /// should prefer [`BfpMatrix::try_matmul_requant`].
    pub fn matmul_requant(&self, rhs: &BfpMatrix) -> BfpMatrix {
        self.try_matmul_requant(rhs)
            .unwrap_or_else(|e| panic!("matmul_requant: {e}"))
    }

    /// Fallible twin of [`BfpMatrix::matmul_requant`].
    pub fn try_matmul_requant(&self, rhs: &BfpMatrix) -> Result<BfpMatrix, ArithError> {
        self.check_compatible(rhs)?;
        let b = self.block;
        let mut blocks = Vec::with_capacity(self.block_rows * rhs.block_cols);
        let mut wide = vec![0i64; b * b];
        for bi in 0..self.block_rows {
            for bj in 0..rhs.block_cols {
                let mut acc_exp = 0i32;
                let mut acc: Vec<i64> = vec![0; b * b];
                let mut first = true;
                for bk in 0..self.block_cols {
                    let x = self.block_at(bi, bk);
                    let y = rhs.block_at(bk, bj);
                    let pexp = x.exp as i32 + y.exp as i32;
                    for i in 0..b {
                        for j in 0..b {
                            let mut s = 0i32;
                            for k in 0..b {
                                s += x.man[i * b + k] as i32 * y.man[k * b + j] as i32;
                            }
                            wide[i * b + j] = s as i64;
                        }
                    }
                    if first {
                        acc.copy_from_slice(&wide);
                        acc_exp = pexp;
                        first = false;
                    } else if pexp >= acc_exp {
                        let sh = (pexp - acc_exp) as u32;
                        for (a, &w) in acc.iter_mut().zip(wide.iter()) {
                            *a = shift_right_trunc(*a, sh) + w;
                        }
                        acc_exp = pexp;
                    } else {
                        let sh = (acc_exp - pexp) as u32;
                        for (a, &w) in acc.iter_mut().zip(wide.iter()) {
                            *a += shift_right_trunc(w, sh);
                        }
                    }
                }
                blocks.push(requantize_wide(&acc, acc_exp, b));
            }
        }
        Ok(BfpMatrix {
            rows: self.rows,
            cols: rhs.cols,
            block: b,
            block_rows: self.block_rows,
            block_cols: rhs.block_cols,
            blocks,
        })
    }
}

/// Requantize a wide-mantissa tile into a [`GenBlock`] (the quantizer
/// unit's shift-and-round datapath, mirroring `WideBlock::requantize`).
fn requantize_wide(man: &[i64], exp: i32, b: usize) -> GenBlock {
    let max_abs = man.iter().map(|&v| v.abs()).max().unwrap_or(0);
    if max_abs == 0 {
        return GenBlock {
            exp: 0,
            man: vec![0; b * b],
        };
    }
    let mut s = 0u32;
    while rounded_shift_i64(max_abs, s) > 127 {
        s += 1;
    }
    let out_exp = (exp + s as i32).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
    GenBlock {
        exp: out_exp,
        man: man
            .iter()
            .map(|&v| rounded_shift_i64(v, s).clamp(-127, 127) as i8)
            .collect(),
    }
}

/// `round(v / 2^s)`, half away from zero (the quantizer's shift-round).
fn rounded_shift_i64(v: i64, s: u32) -> i64 {
    if s == 0 {
        return v;
    }
    if s >= 62 {
        return 0;
    }
    let half = 1i64 << (s - 1);
    if v >= 0 {
        (v + half) >> s
    } else {
        -((-v + half) >> s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| ((i * cols + j) % 23) as f32 - 11.0)
    }

    #[test]
    fn reference_and_slice_tile_scans_agree() {
        // The optimized row-slice scan must match the kept reference scan
        // on every tile — exponents, mantissas, and the position of the
        // first non-finite error.
        let q = Quantizer::paper();
        for (rows, cols) in [(16, 16), (17, 23), (1, 7), (8, 64), (3, 3)] {
            let m = MatF32::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 7) as f32 * 0.37).sin() * ((i + j) as f32).exp2().min(1e30)
            });
            let fast = q.quantize(&m).unwrap();
            let reference = q.quantize_reference(&m).unwrap();
            assert_eq!(fast.dequantize(), reference.dequantize());
        }
        // Zero tiles and non-finite errors behave identically too.
        let mut m = MatF32::from_fn(20, 20, |_, _| 0.0);
        m.set(13, 17, f32::NAN);
        let fast = q.quantize(&m).unwrap_err();
        let reference = q.quantize_reference(&m).unwrap_err();
        assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
    }

    #[test]
    fn quantize_dequantize_exact_for_small_integers() {
        let m = ramp(16, 16);
        let q = Quantizer::paper().quantize(&m).unwrap();
        assert_eq!(q.dequantize(), m, "integers within ±127 are exact at exp 0");
    }

    #[test]
    fn grid_shape_includes_padding() {
        let m = ramp(10, 13);
        let q = Quantizer::paper().quantize(&m).unwrap();
        assert_eq!(q.grid(), (2, 2));
        assert_eq!(q.rows(), 10);
        assert_eq!(q.cols(), 13);
    }

    #[test]
    fn padded_region_is_zero_mantissa() {
        let m = ramp(9, 9);
        let q = Quantizer::paper().quantize(&m).unwrap();
        let edge = q.block_at(1, 1);
        // Only element (0,0) of the bottom-right block is real data.
        for idx in 1..64 {
            if idx % 8 != 0 && idx / 8 != 0 {
                assert_eq!(edge.man[idx], 0);
            }
        }
    }

    #[test]
    fn matmul_matches_reference_for_exact_inputs() {
        let a = ramp(16, 24);
        let b = ramp(24, 8);
        let qa = Quantizer::paper().quantize(&a).unwrap();
        let qb = Quantizer::paper().quantize(&b).unwrap();
        let got = qa.matmul(&qb);
        let want = a.matmul(&b);
        // Inputs are exact under quantization; per-tile products are exact;
        // alignment may truncate only when exponents differ — here all
        // blocks share exp 0, so the result is exact.
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_non_multiple_dimensions() {
        let a = ramp(11, 13);
        let b = ramp(13, 7);
        let qa = Quantizer::paper().quantize(&a).unwrap();
        let qb = Quantizer::paper().quantize(&b).unwrap();
        let got = qa.matmul(&qb);
        assert_eq!(got.rows(), 11);
        assert_eq!(got.cols(), 7);
        let want = a.matmul(&b);
        for i in 0..11 {
            for j in 0..7 {
                assert_eq!(got.get(i, j), want.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_quantization_noise_is_bounded() {
        // Smooth random-ish values: the bfp8 result should track the f32
        // reference within the usual 8-bit SQNR envelope (> 30 dB).
        let a = MatF32::from_fn(32, 32, |i, j| (i as f32 * 0.37 + j as f32 * 0.11).sin());
        let b = MatF32::from_fn(32, 32, |i, j| (i as f32 * 0.13 - j as f32 * 0.29).cos());
        let qa = Quantizer::paper().quantize(&a).unwrap();
        let qb = Quantizer::paper().quantize(&b).unwrap();
        let got = qa.matmul(&qb);
        let want = a.matmul(&b);
        let mut stats = ErrorStats::new();
        stats.push_slices(got.data(), want.data());
        assert!(stats.sqnr_db() > 30.0, "SQNR too low: {stats}");
    }

    #[test]
    fn smaller_blocks_quantize_more_accurately() {
        // A matrix with strong per-region dynamic range: smaller blocks
        // isolate the outliers and get better SQNR.
        let m = MatF32::from_fn(32, 32, |i, j| {
            let base = ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5;
            if (i / 4 + j / 4) % 5 == 0 {
                base * 100.0
            } else {
                base
            }
        });
        let q4 = Quantizer::with_block(4).quantize(&m).unwrap().fidelity(&m);
        let q16 = Quantizer::with_block(16).quantize(&m).unwrap().fidelity(&m);
        assert!(
            q4.sqnr_db() > q16.sqnr_db(),
            "4x4 ({:.1} dB) should beat 16x16 ({:.1} dB)",
            q4.sqnr_db(),
            q16.sqnr_db()
        );
    }

    #[test]
    fn truncate_mode_never_beats_rne() {
        let m = MatF32::from_fn(24, 24, |i, j| ((i * j) as f32 * 0.013).sin() * 3.0);
        let rne = Quantizer {
            round: RoundMode::NearestEven,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap()
        .fidelity(&m);
        let trunc = Quantizer {
            round: RoundMode::Truncate,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap()
        .fidelity(&m);
        assert!(rne.sqnr_db() >= trunc.sqnr_db());
    }

    #[test]
    fn non_finite_input_is_reported_with_position() {
        let mut m = ramp(8, 8);
        m.set(2, 5, f32::INFINITY);
        let err = Quantizer::paper().quantize(&m).unwrap_err();
        assert_eq!(err, ArithError::NonFinite { at: (2, 5) });
    }

    #[test]
    fn block8_view_matches_generic_block() {
        let m = ramp(8, 8);
        let q = Quantizer::paper().quantize(&m).unwrap();
        let b8 = q.block8_at(0, 0);
        let g = q.block_at(0, 0);
        assert_eq!(b8.exp, g.exp);
        assert_eq!(b8.man[3][4], g.man[3 * 8 + 4]);
    }

    #[test]
    #[should_panic(expected = "8x8")]
    fn block8_view_requires_block_eight() {
        let m = ramp(8, 8);
        let q = Quantizer::with_block(4).quantize(&m).unwrap();
        let _ = q.block8_at(0, 0);
    }

    #[test]
    fn narrower_mantissas_monotonically_lose_sqnr() {
        let m = MatF32::from_fn(32, 32, |i, j| ((i * 3 + j * 5) as f32 * 0.07).sin() * 2.0);
        let mut prev = f64::INFINITY;
        for bits in (3..=8).rev() {
            let s = Quantizer::with_man_bits(bits)
                .quantize(&m)
                .unwrap()
                .fidelity(&m);
            assert!(
                s.sqnr_db() < prev,
                "{bits}-bit SQNR {:.1} should be below the next width up",
                s.sqnr_db()
            );
            // Roughly 6 dB per bit: sanity-check the envelope.
            assert!(
                s.sqnr_db() > 6.0 * (bits as f64 - 2.0) - 6.0,
                "{bits} bits: {s}"
            );
            prev = s.sqnr_db();
        }
    }

    #[test]
    fn mantissa_clamp_respects_width() {
        let m = MatF32::from_fn(8, 8, |i, j| (i * 8 + j) as f32 - 31.0);
        let q = Quantizer::with_man_bits(4).quantize(&m).unwrap();
        let max = q
            .block_at(0, 0)
            .man
            .iter()
            .map(|&v| (v as i32).abs())
            .max()
            .unwrap();
        assert!(max <= 7, "4-bit mantissas stay within ±7, got {max}");
        assert!(max >= 4, "range should be used");
    }

    #[test]
    #[should_panic(expected = "2..=8")]
    fn mantissa_width_bounds_checked() {
        Quantizer::with_man_bits(9);
    }

    #[test]
    fn stochastic_rounding_is_unbiased_where_rne_is_not() {
        // A constant tile at 30% of a quantization step: RNE collapses
        // every element the same way (systematic bias); stochastic rounding
        // preserves the mean. Values ~100.3 give a step of 1 (exp 0).
        let step_frac = 0.3f32;
        let m = MatF32::from_fn(64, 64, |_, _| 100.0 + step_frac);
        let rne = Quantizer {
            round: RoundMode::NearestEven,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap()
        .dequantize();
        let sto = Quantizer {
            round: RoundMode::Stochastic,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap()
        .dequantize();

        let mean = |x: &MatF32| x.data().iter().map(|&v| v as f64).sum::<f64>() / 4096.0;
        let rne_bias = (mean(&rne) - (100.0 + step_frac as f64)).abs();
        let sto_bias = (mean(&sto) - (100.0 + step_frac as f64)).abs();
        assert!(
            rne_bias > 0.25,
            "RNE is systematically biased here: {rne_bias}"
        );
        assert!(
            sto_bias < 0.05,
            "stochastic rounding stays unbiased: {sto_bias}"
        );
        // And it is deterministic (hash-based, not RNG-state-based).
        let sto2 = Quantizer {
            round: RoundMode::Stochastic,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap()
        .dequantize();
        assert_eq!(sto, sto2);
    }

    #[test]
    fn stochastic_rounding_stays_within_one_step() {
        let m = MatF32::from_fn(16, 16, |i, j| ((i * 16 + j) as f32 * 0.37).sin() * 5.0);
        let q = Quantizer {
            round: RoundMode::Stochastic,
            ..Quantizer::default()
        }
        .quantize(&m)
        .unwrap();
        let step = (q.block_at(0, 0).exp as f64).exp2();
        let back = q.dequantize();
        for (a, b) in back.data().iter().zip(m.data()) {
            assert!((*a as f64 - *b as f64).abs() <= step + 1e-9);
        }
    }

    #[test]
    fn requantized_chain_tracks_f32_chain() {
        // A*B*C with on-chip requantization between the GEMMs stays close
        // to the f32 reference chain.
        let a = MatF32::from_fn(16, 16, |i, j| ((i * 3 + j) as f32 * 0.11).sin());
        let b = MatF32::from_fn(16, 16, |i, j| ((i + j * 5) as f32 * 0.07).cos());
        let c = MatF32::from_fn(16, 16, |i, j| ((i as f32 * 2.0 - j as f32) * 0.05).sin());
        let q = Quantizer::paper();
        let (qa, qb, qc) = (
            q.quantize(&a).unwrap(),
            q.quantize(&b).unwrap(),
            q.quantize(&c).unwrap(),
        );
        let chained = qa.matmul_requant(&qb).matmul(&qc);
        let reference = a.matmul(&b).matmul(&c);
        let mut s = ErrorStats::new();
        s.push_slices(chained.data(), reference.data());
        assert!(s.sqnr_db() > 25.0, "chained requantized GEMM: {s}");
    }

    #[test]
    fn requantize_roundtrip_is_stable() {
        // Requantizing exact small-integer products loses nothing.
        let a = ramp(16, 16);
        let b = ramp(16, 16);
        let q = Quantizer::paper();
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let exact = qa.matmul(&qb);
        let req = qa.matmul_requant(&qb).dequantize();
        // Requantization keeps 8 bits per block: the step is at most
        // 2·max/127, so the half-step rounding error is ≤ max/127 — use a
        // two-step margin.
        let bound = exact.max_abs() / 63.0;
        for i in 0..16 {
            for j in 0..16 {
                assert!(
                    (req.get(i, j) - exact.get(i, j)).abs() <= bound,
                    "({i},{j}): {} vs {}",
                    req.get(i, j),
                    exact.get(i, j)
                );
            }
        }
    }

    #[test]
    fn matmul_with_mixed_block_exponents_aligns() {
        // Left half large values, right half small values: different K-tiles
        // produce different product exponents, exercising the alignment path.
        let a = MatF32::from_fn(8, 16, |_, j| if j < 8 { 1000.0 } else { 0.001 });
        let b = MatF32::from_fn(16, 8, |i, _| if i < 8 { 0.5 } else { 2.0 });
        let qa = Quantizer::paper().quantize(&a).unwrap();
        let qb = Quantizer::paper().quantize(&b).unwrap();
        let got = qa.matmul(&qb);
        let want = a.matmul(&b); // 8*1000*0.5 + 8*0.001*2 = 4000.016
        for i in 0..8 {
            for j in 0..8 {
                let rel = (got.get(i, j) - want.get(i, j)).abs() / want.get(i, j);
                assert!(
                    rel < 0.01,
                    "({i},{j}): got {} want {}",
                    got.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }
}
