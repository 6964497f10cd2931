//! The multi-mode processing unit: array + buffers + exponent unit + PSU
//! accumulators + controller, with cycle accounting.
//!
//! The unit executes the three workload shapes of the paper:
//!
//! * **bfp8 MatMul** — Y-stationary passes over a grid of 8×8 blocks
//!   ([`ProcessingUnit::matmul_grid`]), accumulating K-partial products in
//!   the PSU bank with exponent alignment;
//! * **fp32 multiply streams** ([`ProcessingUnit::fp_mul_stream`]) on the 4
//!   reconfigured FPU columns;
//! * **fp32 add streams** ([`ProcessingUnit::fp_add_stream`]) on the
//!   shifter + accumulator path.
//!
//! Two execution fidelities produce *identical* numerics: `Stepped` clocks
//! every DSP48 through the systolic wavefront; `Functional` uses the
//! value-level models of `bfp-arith`. The equivalence is pinned by tests;
//! `Functional` exists so model-scale workloads (a whole DeiT forward pass)
//! finish in reasonable wall time.

use bfp_arith::bfp::{BfpBlock, BlockAcc, WideBlock, BLOCK};
use bfp_arith::quant::BfpMatrix;

use crate::array::{stream_pass, SystolicArray, COLS, ROWS};
use crate::bram::{OperandBuffer, MAX_FP_STREAM, MAX_X_BLOCKS};
use crate::fpu::{run_add_stream, run_mul_stream, FP_LANES};
use crate::throughput;

/// How faithfully to execute the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Clock every DSP48 (slow, bit-exact by construction).
    Stepped,
    /// Value-level models from `bfp-arith` (fast, proven equivalent).
    #[default]
    Functional,
}

/// Unit configuration.
#[derive(Debug, Clone, Copy)]
pub struct UnitConfig {
    /// Execution fidelity.
    pub fidelity: Fidelity,
    /// Clock frequency in Hz (300 MHz on the U280 prototype).
    pub freq_hz: f64,
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig {
            fidelity: Fidelity::Functional,
            freq_hz: 300.0e6,
        }
    }
}

/// Cycle and operation counters for one workload execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleStats {
    /// Total clock cycles, including preload and pipeline fill.
    pub cycles: u64,
    /// Cycles spent preloading Y blocks.
    pub preload_cycles: u64,
    /// bfp8 operations performed (2 ops per MAC, both lanes).
    pub bfp_ops: u64,
    /// fp32 operations performed.
    pub flops: u64,
}

impl CycleStats {
    /// Wall-clock seconds at frequency `freq_hz`.
    pub fn seconds(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }

    /// Achieved bfp8 throughput in OPS.
    pub fn bfp_ops_per_sec(&self, freq_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bfp_ops as f64 / self.seconds(freq_hz)
    }

    /// Achieved fp32 throughput in FLOPS.
    pub fn flops_per_sec(&self, freq_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops as f64 / self.seconds(freq_hz)
    }
}

/// A grid of 8×8 bfp blocks (row-major tiles of a matrix).
pub type BlockGrid = Vec<Vec<BfpBlock>>;

/// One per-lane fp32 stream executor: results plus cycles consumed.
type LaneFn = fn(&[f32], &[f32]) -> (Vec<f32>, u64);

/// Convert a quantized matrix (block = 8) into the unit's tile grid.
///
/// # Panics
/// Panics if `m` was not quantized with 8×8 blocks.
pub fn grid_from_matrix(m: &BfpMatrix) -> BlockGrid {
    let (br, bc) = m.grid();
    (0..br)
        .map(|bi| (0..bc).map(|bj| m.block8_at(bi, bj)).collect())
        .collect()
}

/// The multi-mode processing unit.
///
/// ```
/// use bfp_arith::bfp::BfpBlock;
/// use bfp_pu::unit::ProcessingUnit;
///
/// let mut unit = ProcessingUnit::default();
/// let y = BfpBlock { exp: 0, man: [[2; 8]; 8] };
/// let x = BfpBlock { exp: 0, man: [[3; 8]; 8] };
/// unit.load_y_pair(&y, &y);
/// unit.stream_x(&[x]);
/// let (z1, _z2) = unit.take_psu(1)[0];
/// assert_eq!(z1.man[0][0], 8 * 3 * 2);        // one 8-term dot product
/// assert_eq!(unit.stats().cycles, 8 + 8 + 7); // Eqn. 9: preload + pass
/// ```
#[derive(Debug)]
pub struct ProcessingUnit {
    cfg: UnitConfig,
    array: SystolicArray,
    resident_y: Option<(BfpBlock, BfpBlock)>,
    /// PSU bank: per streamed-X slot, one accumulator per combined-MAC lane.
    psu: Vec<[BlockAcc; 2]>,
    /// X operand buffer (only routed through in `Stepped` fidelity, where
    /// the Fig. 4 BRAM layout is part of the modelled datapath).
    x_buf: OperandBuffer,
    /// Y operand buffer.
    y_buf: OperandBuffer,
    stats: CycleStats,
}

impl Default for ProcessingUnit {
    fn default() -> Self {
        Self::new(UnitConfig::default())
    }
}

impl ProcessingUnit {
    /// A unit with the given configuration.
    pub fn new(cfg: UnitConfig) -> Self {
        ProcessingUnit {
            cfg,
            array: SystolicArray::new(),
            resident_y: None,
            psu: vec![[BlockAcc::new(), BlockAcc::new()]; MAX_X_BLOCKS],
            x_buf: OperandBuffer::new(),
            y_buf: OperandBuffer::new(),
            stats: CycleStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> UnitConfig {
        self.cfg
    }

    /// Cumulative statistics since the last [`ProcessingUnit::take_stats`].
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Return and reset the statistics.
    pub fn take_stats(&mut self) -> CycleStats {
        std::mem::take(&mut self.stats)
    }

    // ------------------------------------------------------------------
    // bfp8 MatMul mode
    // ------------------------------------------------------------------

    /// Load a stationary Y pair (8 preload cycles; Fig. 5 a step 1).
    ///
    /// In `Stepped` fidelity the pair round-trips through the Y operand
    /// buffer's Fig. 4 layout (slot 0 / slot 1) before reaching the array
    /// registers, exactly like the hardware preload path.
    pub fn load_y_pair(&mut self, y1: &BfpBlock, y2: &BfpBlock) {
        self.array.flush();
        if self.cfg.fidelity == Fidelity::Stepped {
            self.y_buf.store_block(0, 0, y1);
            self.y_buf.store_block(1, 0, y2);
            let b1 = self.y_buf.load_block(0, 0);
            let b2 = self.y_buf.load_block(1, 0);
            self.array.load_y(&b1, &b2);
            self.resident_y = Some((b1, b2));
        } else {
            self.array.load_y(y1, y2);
            self.resident_y = Some((*y1, *y2));
        }
        self.stats.cycles += ROWS as u64;
        self.stats.preload_cycles += ROWS as u64;
    }

    /// Stream X blocks against the resident Y pair, accumulating each
    /// block's pair of products into PSU slots `0..xs.len()`.
    ///
    /// # Panics
    /// Panics if no Y pair is resident or more than [`MAX_X_BLOCKS`] blocks
    /// are streamed (the PSU buffer depth).
    pub fn stream_x(&mut self, xs: &[BfpBlock]) {
        let (y1, y2) = self.resident_y.expect("load_y_pair before stream_x");
        assert!(!xs.is_empty(), "empty X stream");
        assert!(
            xs.len() <= MAX_X_BLOCKS,
            "PSU depth limits a pass to {MAX_X_BLOCKS} blocks"
        );

        match self.cfg.fidelity {
            Fidelity::Stepped => {
                self.array.flush();
                self.array.load_y(&y1, &y2); // registers survive, reload is free
                                             // Route the X stream through the operand buffer's Fig. 4
                                             // layout: two block slots side by side, read back row by
                                             // row as the systolic feed.
                for (m, x) in xs.iter().enumerate() {
                    self.x_buf.store_block(m % 2, m / 2, x);
                }
                let from_buf: Vec<BfpBlock> = (0..xs.len())
                    .map(|m| self.x_buf.load_block(m % 2, m / 2))
                    .collect();
                // The layout is lossless unless a fault session is
                // deliberately upsetting the stored cells.
                #[cfg(feature = "faults")]
                let pristine = !bfp_faults::active();
                #[cfg(not(feature = "faults"))]
                let pristine = true;
                if pristine {
                    debug_assert_eq!(from_buf, xs, "buffer layout must be lossless");
                }
                let (products, _) = stream_pass(&mut self.array, &from_buf);
                for (m, (p1, p2)) in products.into_iter().enumerate() {
                    let e1 = xs[m].exp as i32 + y1.exp as i32;
                    let e2 = xs[m].exp as i32 + y2.exp as i32;
                    self.psu[m][0]
                        .add(&WideBlock { exp: e1, man: p1 })
                        .expect("PSU accumulator overflow");
                    self.psu[m][1]
                        .add(&WideBlock { exp: e2, man: p2 })
                        .expect("PSU accumulator overflow");
                }
            }
            Fidelity::Functional => {
                for (m, x) in xs.iter().enumerate() {
                    self.psu[m][0]
                        .add(&x.matmul(&y1))
                        .expect("PSU accumulator overflow");
                    self.psu[m][1]
                        .add(&x.matmul(&y2))
                        .expect("PSU accumulator overflow");
                }
            }
        }

        // Eqn. 9 accounting: 8 cycles per block + 7 triangle (preload is
        // charged by load_y_pair, completing the "+15").
        self.stats.cycles += (8 * xs.len() + 7) as u64;
        // 2 lanes × 8×8×8 MACs × 2 ops per streamed block.
        self.stats.bfp_ops += (xs.len() * 2 * ROWS * COLS * BLOCK * 2) as u64;
    }

    /// Drain the PSU bank: the accumulated `(lane1, lane2)` wide blocks for
    /// the first `n` slots, clearing them for the next output tile.
    pub fn take_psu(&mut self, n: usize) -> Vec<(WideBlock, WideBlock)> {
        assert!(n <= MAX_X_BLOCKS);
        // Fault model: PSU words are read out through the drain port,
        // where stored-bit upsets become visible.
        #[cfg(feature = "faults")]
        fn drain(mut w: WideBlock) -> WideBlock {
            if bfp_faults::active() {
                for (r, row) in w.man.iter_mut().enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = bfp_faults::hook::psu_read(r, c, *v);
                    }
                }
            }
            w
        }
        #[cfg(not(feature = "faults"))]
        fn drain(w: WideBlock) -> WideBlock {
            w
        }
        let mut out = Vec::with_capacity(n);
        for slot in self.psu.iter_mut().take(n) {
            out.push((drain(slot[0].value()), drain(slot[1].value())));
            slot[0].clear();
            slot[1].clear();
        }
        out
    }

    /// Drain the PSU bank through the quantizer unit: results re-enter the
    /// bfp8 domain so they can feed the X buffer of a *chained* GEMM
    /// without leaving the chip (the on-chip path a compiler uses between
    /// back-to-back linear layers).
    pub fn take_psu_requantized(&mut self, n: usize) -> Vec<(BfpBlock, BfpBlock)> {
        self.take_psu(n)
            .into_iter()
            .map(|(a, b)| (a.requantize(), b.requantize()))
            .collect()
    }

    /// Full blocked GEMM: `X (Mb×Kb) · Y (Kb×Nb)` over 8×8 tiles.
    ///
    /// Iterates Y pairs over the N dimension (two output column-tiles per
    /// pass thanks to the combined MAC), keeps each pair stationary across
    /// the whole K reduction, and streams M tiles in PSU-sized chunks.
    /// Returns the `Mb×Nb` grid of wide output blocks.
    ///
    /// # Panics
    /// Panics on ragged or mismatched grids.
    pub fn matmul_grid(&mut self, x: &BlockGrid, y: &BlockGrid) -> Vec<Vec<WideBlock>> {
        let mb = x.len();
        assert!(mb > 0, "empty X grid");
        let kb = x[0].len();
        assert!(x.iter().all(|r| r.len() == kb), "ragged X grid");
        assert_eq!(y.len(), kb, "inner tile dimension mismatch");
        let nb = y[0].len();
        assert!(y.iter().all(|r| r.len() == nb), "ragged Y grid");

        let mut out = vec![vec![WideBlock::ZERO; nb]; mb];
        for n0 in (0..nb).step_by(2) {
            let n1 = n0 + 1;
            for m0 in (0..mb).step_by(MAX_X_BLOCKS) {
                let chunk = (mb - m0).min(MAX_X_BLOCKS);
                for k in 0..kb {
                    let y1 = y[k][n0];
                    let y2 = if n1 < nb { y[k][n1] } else { BfpBlock::ZERO };
                    self.load_y_pair(&y1, &y2);
                    let xs: Vec<BfpBlock> = (0..chunk).map(|dm| x[m0 + dm][k]).collect();
                    self.stream_x(&xs);
                }
                for (dm, (z1, z2)) in self.take_psu(chunk).into_iter().enumerate() {
                    out[m0 + dm][n0] = z1;
                    if n1 < nb {
                        out[m0 + dm][n1] = z2;
                    }
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // fp32 modes
    // ------------------------------------------------------------------

    /// Element-wise fp32 multiply of two equal-length streams on the 4 FPU
    /// lanes. Streams longer than one burst (4 lanes × 128) are split into
    /// bursts, each paying the 8-cycle pipeline fill (Eqn. 10).
    pub fn fp_mul_stream(&mut self, xs: &[f32], ys: &[f32]) -> Vec<f32> {
        self.fp_stream(xs, ys, run_mul_stream)
    }

    /// Element-wise fp32 addition of two equal-length streams.
    pub fn fp_add_stream(&mut self, xs: &[f32], ys: &[f32]) -> Vec<f32> {
        self.fp_stream(xs, ys, run_add_stream)
    }

    fn fp_stream(&mut self, xs: &[f32], ys: &[f32], lane_fn: LaneFn) -> Vec<f32> {
        assert_eq!(xs.len(), ys.len(), "operand streams must pair up");
        let mut out = vec![0f32; xs.len()];
        // Burst = what the buffers hold: 4 lanes × MAX_FP_STREAM.
        let burst = FP_LANES * MAX_FP_STREAM;
        for (b, chunk) in xs.chunks(burst).enumerate() {
            let base = b * burst;
            let lane_len = chunk.len().div_ceil(FP_LANES);
            // Interleave round-robin across lanes, as the crossbar does.
            let mut lane_cycles = 0u64;
            for lane in 0..FP_LANES {
                let idx: Vec<usize> = (0..lane_len)
                    .map(|p| base + p * FP_LANES + lane)
                    .filter(|&i| i < xs.len())
                    .collect();
                if idx.is_empty() {
                    continue;
                }
                let lx: Vec<f32> = idx.iter().map(|&i| xs[i]).collect();
                let ly: Vec<f32> = idx.iter().map(|&i| ys[i]).collect();
                let (res, cyc) = lane_fn(&lx, &ly);
                lane_cycles = lane_cycles.max(cyc);
                for (&i, &v) in idx.iter().zip(&res) {
                    out[i] = v;
                }
            }
            // Lanes run in lockstep: the burst costs the longest lane.
            self.stats.cycles += lane_cycles;
            self.stats.flops += chunk.len() as u64;
        }
        out
    }
}

/// Sanity helper: sustained throughput predicted by Eqn. 9 for the stats of
/// a pure matmul workload (used by benches to plot measured vs theoretical).
pub fn theoretical_bfp_ops(n_x: usize, passes: u64, freq: f64) -> f64 {
    let _ = passes;
    throughput::bfp_throughput(n_x, freq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_arith::matrix::MatF32;
    use bfp_arith::quant::Quantizer;
    use bfp_arith::stats::ErrorStats;

    fn quantize(m: &MatF32) -> BfpMatrix {
        Quantizer::paper().quantize(m).unwrap()
    }

    fn wide_grid_to_mat(grid: &[Vec<WideBlock>], rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| {
            let w = &grid[i / 8][j / 8];
            (w.man[i % 8][j % 8] as f64 * (w.exp as f64).exp2()) as f32
        })
    }

    #[test]
    fn matmul_grid_matches_functional_bfp_matmul() {
        let a = MatF32::from_fn(24, 32, |i, j| ((i * 7 + j * 3) % 19) as f32 - 9.0);
        let b = MatF32::from_fn(32, 16, |i, j| ((i * 5 + j * 11) % 17) as f32 - 8.0);
        let (qa, qb) = (quantize(&a), quantize(&b));
        let mut unit = ProcessingUnit::default();
        let grid = unit.matmul_grid(&grid_from_matrix(&qa), &grid_from_matrix(&qb));
        let got = wide_grid_to_mat(&grid, 24, 16);
        let want = qa.matmul(&qb);
        assert_eq!(
            got, want,
            "unit result must equal the functional block matmul"
        );
        // And for these exact integer inputs, also the float reference.
        assert_eq!(got, a.matmul(&b));
    }

    #[test]
    fn stepped_and_functional_agree_bit_exactly() {
        let a = MatF32::from_fn(16, 16, |i, j| {
            ((i as f32 * 0.9 - j as f32 * 1.3).sin()) * 4.0
        });
        let b = MatF32::from_fn(16, 24, |i, j| {
            ((i as f32 * 0.3 + j as f32 * 0.7).cos()) * 2.0
        });
        let (qa, qb) = (quantize(&a), quantize(&b));
        let (ga, gb) = (grid_from_matrix(&qa), grid_from_matrix(&qb));

        let mut f_unit = ProcessingUnit::new(UnitConfig {
            fidelity: Fidelity::Functional,
            ..Default::default()
        });
        let mut s_unit = ProcessingUnit::new(UnitConfig {
            fidelity: Fidelity::Stepped,
            ..Default::default()
        });
        let gf = f_unit.matmul_grid(&ga, &gb);
        let gs = s_unit.matmul_grid(&ga, &gb);
        assert_eq!(gf, gs);
        assert_eq!(
            f_unit.stats(),
            s_unit.stats(),
            "cycle accounting must not depend on fidelity"
        );
    }

    #[test]
    fn odd_tile_counts_use_zero_lane() {
        // Nb = 3: the second lane of the last pass multiplies a zero block
        // and must not corrupt anything.
        let a = MatF32::from_fn(8, 8, |i, j| (i + j) as f32);
        let b = MatF32::from_fn(8, 24, |i, j| (i * 24 + j) as f32 % 13.0 - 6.0);
        let (qa, qb) = (quantize(&a), quantize(&b));
        let mut unit = ProcessingUnit::default();
        let grid = unit.matmul_grid(&grid_from_matrix(&qa), &grid_from_matrix(&qb));
        let got = wide_grid_to_mat(&grid, 8, 24);
        assert_eq!(got, a.matmul(&b));
    }

    #[test]
    fn cycle_accounting_matches_eqn9() {
        // One Y pair, one pass of Nx blocks: 8 (preload) + 8*Nx + 7 cycles.
        for nx in [1usize, 8, 32, 64] {
            let mut unit = ProcessingUnit::default();
            let xs = vec![BfpBlock::ZERO; nx];
            unit.load_y_pair(&BfpBlock::ZERO, &BfpBlock::ZERO);
            unit.stream_x(&xs);
            assert_eq!(
                unit.stats().cycles,
                throughput::bfp_pass_cycles(nx),
                "nx={nx}"
            );
        }
    }

    #[test]
    fn measured_throughput_approaches_eqn9() {
        let mut unit = ProcessingUnit::default();
        let xs = vec![BfpBlock::ZERO; 64];
        unit.load_y_pair(&BfpBlock::ZERO, &BfpBlock::ZERO);
        unit.stream_x(&xs);
        let stats = unit.stats();
        let freq = unit.config().freq_hz;
        let measured = stats.bfp_ops_per_sec(freq);
        let theory = throughput::bfp_throughput(64, freq);
        let rel = (measured - theory).abs() / theory;
        assert!(rel < 1e-9, "measured {measured} vs theory {theory}");
    }

    #[test]
    fn psu_depth_limit_is_enforced() {
        let mut unit = ProcessingUnit::default();
        unit.load_y_pair(&BfpBlock::ZERO, &BfpBlock::ZERO);
        let xs = vec![BfpBlock::ZERO; MAX_X_BLOCKS + 1];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unit.stream_x(&xs)));
        assert!(r.is_err());
    }

    #[test]
    fn fp_mul_stream_matches_scalar_model() {
        use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
        let hw = HwFp32Mul::new(MulVariant::DropLsp);
        let xs: Vec<f32> = (0..300).map(|k| (k as f32 * 0.37 - 50.0) * 1.01).collect();
        let ys: Vec<f32> = (0..300).map(|k| (k as f32 * -0.53 + 70.0) * 0.99).collect();
        let mut unit = ProcessingUnit::default();
        let got = unit.fp_mul_stream(&xs, &ys);
        for k in 0..300 {
            assert_eq!(got[k].to_bits(), hw.mul(xs[k], ys[k]).to_bits(), "at {k}");
        }
        assert!(unit.stats().flops == 300);
    }

    #[test]
    fn fp_mul_cycles_match_eqn10_shape() {
        // 300 muls over 4 lanes: lane length 75, one burst -> 75 + 8 cycles.
        let xs = vec![1.5f32; 300];
        let mut unit = ProcessingUnit::default();
        let _ = unit.fp_mul_stream(&xs, &xs);
        assert_eq!(unit.stats().cycles, 75 + 8);

        // 4*128 = 512 is exactly one full burst: 128 + 8.
        let xs = vec![1.5f32; 512];
        let mut unit = ProcessingUnit::default();
        let _ = unit.fp_mul_stream(&xs, &xs);
        assert_eq!(unit.stats().cycles, 136);

        // 513 spills into a second burst.
        let xs = vec![1.5f32; 513];
        let mut unit = ProcessingUnit::default();
        let _ = unit.fp_mul_stream(&xs, &xs);
        assert_eq!(unit.stats().cycles, 136 + 9);
    }

    #[test]
    fn fp_add_stream_matches_scalar_model() {
        use bfp_arith::fpadd::{AddVariant, HwFp32Add};
        let adder = HwFp32Add::new(AddVariant::Exact48);
        let xs: Vec<f32> = (0..97).map(|k| k as f32 * 1.1 - 40.0).collect();
        let ys: Vec<f32> = (0..97).map(|k| k as f32 * -0.9 + 11.0).collect();
        let mut unit = ProcessingUnit::default();
        let got = unit.fp_add_stream(&xs, &ys);
        for k in 0..97 {
            assert_eq!(got[k].to_bits(), adder.add(xs[k], ys[k]).to_bits());
        }
    }

    #[test]
    fn quantization_noise_survives_unit_path() {
        // End-to-end through the unit: SQNR stays in the 8-bit envelope.
        let a = MatF32::from_fn(32, 40, |i, j| ((i * j) as f32 * 0.01).sin());
        let b = MatF32::from_fn(40, 24, |i, j| ((i + 2 * j) as f32 * 0.05).cos());
        let (qa, qb) = (quantize(&a), quantize(&b));
        let mut unit = ProcessingUnit::default();
        let grid = unit.matmul_grid(&grid_from_matrix(&qa), &grid_from_matrix(&qb));
        let got = wide_grid_to_mat(&grid, 32, 24);
        let want = a.matmul(&b);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        assert!(s.sqnr_db() > 30.0, "{s}");
    }

    #[test]
    fn take_stats_resets() {
        let mut unit = ProcessingUnit::default();
        unit.load_y_pair(&BfpBlock::ZERO, &BfpBlock::ZERO);
        assert!(unit.take_stats().cycles > 0);
        assert_eq!(unit.stats().cycles, 0);
    }
}
