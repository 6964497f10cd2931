//! Algorithm-based fault tolerance (ABFT) for the packed bfp8 fast path.
//!
//! The classic Huang–Abraham scheme augments a matmul `C = A·B` with a
//! checksum row/column: carry `eᵀA` and `B·e` (`e` the all-ones vector)
//! through the multiply and compare against the row/column sums of `C`
//! — O(n²) checking on an O(n³) kernel. The bfp8 datapath complicates
//! this in one way: the exponent-alignment chain **truncates** the wide
//! accumulator element-wise ([`shift_right_trunc`]), and truncation does
//! not commute with summation, so a checksum carried naively through the
//! chain drifts away from the data for perfectly healthy hardware.
//!
//! This module therefore keeps the invariant *exact* (no ULP tolerance
//! anywhere) by checking and resynchronising at every truncation event:
//!
//! * Pack time: each operand tile gets a `b`-entry checksum lane —
//!   column sums of an LHS tile, row sums of an RHS tile (`i16`; at
//!   `b ≤ 16` the sums cannot overflow). Because the lanes are computed
//!   at pack time, later corruption of the stored mantissa plane breaks
//!   the invariant and **is** detected.
//! * Per tile-product step, the checksum products
//!   `cp[j] = Σₖ xc[k]·y[k,j]` and `rp[i] = Σₖ x[i,k]·yc[k]` equal the
//!   column/row sums of the exact integer tile product, so while the
//!   chain stays at one exponent the running sums `chk`/`rchk` track the
//!   accumulator exactly.
//! * At a truncation event the accumulator (or the incoming product) is
//!   verified **before** the shift — full precision, before evidence is
//!   truncated away — then the sums are resynchronised from the
//!   truncated values, which is exact by construction.
//! * After the last step the committed accumulator is verified again, so
//!   drain-path upsets are caught too.
//!
//! On a mismatch, the row×column intersection localizes the fault: one
//! bad row sum `i*` and one bad column sum `j*` with equal deltas is a
//! single corrupted element, repaired algebraically in place
//! (`acc[i*,j*] -= Δ`). Consistent rows with inconsistent columns (or
//! vice versa) means the checksum words themselves took the hit — the
//! data is clean and the sums are resynchronised. Anything else is
//! uncorrectable under the single-fault model and the chain is reported
//! so the caller can retry / fall back (`bfp_core::resilient`).
//!
//! ## Coverage
//!
//! The checksums cover the integer datapath: stored mantissas, tile
//! products, accumulators, the drain path. They are **blind to shared-
//! exponent faults** — a corrupted exponent is used consistently by both
//! the data and the checksum path, so both move together. Exponent
//! storage and alignment are covered by the SECDED/TMR models one rung
//! down the detection ladder (see DESIGN.md "Detection ladder").
//!
//! For the paper's 8×8 blocks on an AVX2 host a chain runs on registers
//! (`packed::chain_i32_avx2`, lanes as a ninth row and column) while it
//! stays clean; the scalar loop here replays any chain that does not. The
//! i16 lanes do not fit `vpdpbusd`'s u8 × i8 operands, so checked chains
//! and their unverified baseline stay on that tier on an AVX-512 VNNI host
//! too.
//!
//! With the `faults` feature the scalar loop routes operand/exponent/
//! product/accumulator accesses through the `bfp-faults` hooks, and runs
//! every chain whenever a session is installed (one relaxed atomic load
//! per GEMM otherwise), so the same deterministic `FaultPlan`s that drive
//! the cycle simulator drive this kernel. The serving runtime instead
//! scripts *per-array* faults through [`AbftOptions::tamper`], a seam
//! invoked once per output chain between accumulation and final verify.

use crate::bfp::shift_right_trunc;
use crate::error::ArithError;
use crate::matrix::MatF32;
#[cfg(target_arch = "x86_64")]
use crate::packed::{chain_i32_avx2, ChainSums};
use crate::packed::{dot_i8, ChainKernel, EpilogueCtx, PackedBfp};
use crate::quant::{BfpMatrix, Quantizer};

/// Fused per-tile epilogue for the checked kernel: applied to an output
/// tile at drain time, after the chain's final verify, and **only** when
/// the chain is clean or repaired — an uncorrected chain's bits are
/// suspect and stay raw (the caller discards/retries them anyway).
pub type AbftEpilogue<'a> = &'a mut dyn FnMut(&mut [f32], &EpilogueCtx);

/// Map a packed-plane element to its modelled BRAM site, so fault
/// campaigns can aim at real storage positions: tiles stripe across the
/// 16 mantissa BRAMs, consecutive tiles on one BRAM occupy consecutive
/// `bb`-byte lines. Both operand planes read through the same modelled
/// pool (as on the device, where X and Y buffers share the BRAM stacks).
pub fn plane_site(tile: usize, elem: usize, bb: usize) -> (usize, usize) {
    (tile % 16, (tile / 16) * bb + elem)
}

/// What one checked GEMM (or block-row shard) observed and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbftReport {
    /// Output chains (bi, bj) that ran to completion.
    pub chains: u64,
    /// Checksum-invariant verifications performed (checkpoints at
    /// truncation events plus the final per-chain check).
    pub checks: u64,
    /// Invariant mismatches observed (corrected or not).
    pub detections: u64,
    /// Single-element faults repaired algebraically in place.
    pub corrected_elements: u64,
    /// Checksum words resynchronised because the data proved clean.
    pub corrected_checksums: u64,
    /// Elements perturbed through [`AbftOptions::tamper`].
    pub tampered: u64,
    /// Chains whose mismatch could not be localized/corrected; their
    /// output is suspect and the caller must retry or fall back.
    pub uncorrected: Vec<(usize, usize)>,
}

impl AbftReport {
    /// No mismatch anywhere: output provably satisfies the invariant.
    pub fn clean(&self) -> bool {
        self.detections == 0 && self.uncorrected.is_empty()
    }

    /// Mismatches repaired in place (elements + checksum resyncs).
    pub fn corrections(&self) -> u64 {
        self.corrected_elements + self.corrected_checksums
    }

    /// Accumulate a shard's report into a whole-GEMM report.
    pub fn merge(&mut self, other: &AbftReport) {
        self.chains += other.chains;
        self.checks += other.checks;
        self.detections += other.detections;
        self.corrected_elements += other.corrected_elements;
        self.corrected_checksums += other.corrected_checksums;
        self.tampered += other.tampered;
        self.uncorrected.extend_from_slice(&other.uncorrected);
    }
}

/// Scripted corruption callback: receives `(bi, bj, acc_tile)` and
/// returns how many elements it perturbed.
pub type TamperFn<'a> = &'a mut dyn FnMut(usize, usize, &mut [i64]) -> u64;

/// Per-call knobs for the checked kernel.
#[derive(Default)]
pub struct AbftOptions<'a> {
    /// `false` skips all checksum maintenance — the unprotected
    /// baseline a chaos campaign measures silent corruption against.
    /// Inverted default via [`AbftOptions::default`]: verification on.
    pub no_verify: bool,
    /// Scripted corruption seam: called once per (bi, bj) chain after
    /// accumulation and before the committed-value verify, receiving the
    /// wide accumulator tile; returns how many elements it perturbed.
    /// This is how the serving runtime models *per-array* faults, which
    /// the process-global hook session cannot express.
    pub tamper: Option<TamperFn<'a>>,
}

impl AbftOptions<'_> {
    /// Verification disabled (baseline / unprotected runs).
    pub fn unverified() -> Self {
        AbftOptions {
            no_verify: true,
            tamper: None,
        }
    }
}

/// A packed operand carrying per-tile checksum lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftPacked {
    packed: PackedBfp,
    /// `csum[tile·b + k] = Σ_idx man[tile·b² + idx·b + k]` — column sums
    /// of an LHS tile, row sums of a (block-transposed) RHS tile. `i16`
    /// cannot overflow for `b ≤ 256`.
    csum: Vec<i16>,
}

impl AbftPacked {
    /// Wrap an already-packed operand, computing its checksum lanes.
    pub fn from_packed(packed: PackedBfp) -> AbftPacked {
        let b = packed.block();
        let bb = b * b;
        let man = packed.man_plane();
        let tiles = man.len() / bb;
        let mut csum = vec![0i16; tiles * b];
        for (tile, lane) in man.chunks_exact(bb).zip(csum.chunks_exact_mut(b)) {
            match (
                <&[i8; 64]>::try_from(tile),
                <&mut [i16; 8]>::try_from(&mut *lane),
            ) {
                // The same inlined body twice: with the paper's block its
                // shapes are compile-time constants and the sums vectorise.
                (Ok(tile), Ok(lane)) => lane_sums(tile, lane),
                _ => lane_sums(tile, lane),
            }
        }
        AbftPacked { packed, csum }
    }

    /// Pack a quantized matrix as a checksummed left operand.
    pub fn pack_lhs(m: &BfpMatrix) -> AbftPacked {
        Self::from_packed(PackedBfp::pack_lhs(m))
    }

    /// Pack a quantized matrix as a checksummed right operand.
    pub fn pack_rhs(m: &BfpMatrix) -> AbftPacked {
        Self::from_packed(PackedBfp::pack_rhs(m))
    }

    /// Fused quantize-pack-checksum for the left operand.
    pub fn quantize_pack_lhs(q: &Quantizer, m: &MatF32) -> Result<AbftPacked, ArithError> {
        Ok(Self::from_packed(PackedBfp::quantize_pack_lhs(q, m)?))
    }

    /// Fused quantize-pack-checksum for the right operand.
    pub fn quantize_pack_rhs(q: &Quantizer, m: &MatF32) -> Result<AbftPacked, ArithError> {
        Ok(Self::from_packed(PackedBfp::quantize_pack_rhs(q, m)?))
    }

    /// The underlying packed operand.
    pub fn packed(&self) -> &PackedBfp {
        &self.packed
    }

    /// Extra storage the checksum lanes cost, in bytes (2/b of the
    /// mantissa plane).
    pub fn checksum_bytes(&self) -> usize {
        self.csum.len() * 2
    }

    /// Checked GEMM with default options (verification on, no tamper).
    pub fn matmul(&self, rhs: &AbftPacked) -> Result<(MatF32, AbftReport), ArithError> {
        self.matmul_with(rhs, &mut AbftOptions::default())
    }

    /// Checked GEMM: bit-identical to [`PackedBfp::matmul`] on healthy
    /// hardware, with the checksum invariant enforced per output chain.
    pub fn matmul_with(
        &self,
        rhs: &AbftPacked,
        opts: &mut AbftOptions,
    ) -> Result<(MatF32, AbftReport), ArithError> {
        self.packed.check_compatible(&rhs.packed)?;
        let mut out = MatF32::zeros(self.packed.rows(), rhs.packed.cols());
        let (mb, _) = self.packed.grid();
        let report = self.matmul_rows_into(rhs, 0, mb, out.data_mut(), opts);
        Ok((out, report))
    }

    /// Checked GEMM with a fused per-tile epilogue applied while the
    /// drained tile is hot (see [`AbftEpilogue`]). For verified-clean
    /// chains the epilogue sees exactly the bits [`AbftPacked::matmul_with`]
    /// would have written, so an element-wise epilogue (bias, GELU) is
    /// bit-identical to running the same pass over the materialised
    /// output; uncorrected chains bypass it and keep their raw bits.
    /// `K = 0` chains run the epilogue over their zero tile, matching the
    /// composed path's pass over the zero region.
    pub fn matmul_with_epilogue(
        &self,
        rhs: &AbftPacked,
        opts: &mut AbftOptions,
        epi: AbftEpilogue,
    ) -> Result<(MatF32, AbftReport), ArithError> {
        self.packed.check_compatible(&rhs.packed)?;
        let mut out = MatF32::zeros(self.packed.rows(), rhs.packed.cols());
        let (mb, _) = self.packed.grid();
        let mut report = AbftReport::default();
        self.rows_checked(
            rhs,
            0,
            mb,
            out.data_mut(),
            opts,
            &mut report,
            &mut Some(epi),
        );
        Ok((out, report))
    }

    /// Compute output block-rows `bi_lo..bi_hi` into `out_rows` (exactly the
    /// full-width rows `bi_lo·b .. min(bi_hi·b, rows)`) under the checksum
    /// invariant. Callers shard retries at this granularity.
    ///
    /// # Panics
    /// Panics on inconsistent range/buffer; validate operands first with
    /// [`PackedBfp::check_compatible`].
    pub fn matmul_rows_into(
        &self,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
    ) -> AbftReport {
        let b = self.packed.block();
        debug_assert!(self.packed.check_compatible(&rhs.packed).is_ok());
        let (mb, _) = self.packed.grid();
        assert!(bi_lo <= bi_hi && bi_hi <= mb, "block-row range");
        let r0 = bi_lo * b;
        let rows_here = (bi_hi * b).min(self.packed.rows()).saturating_sub(r0);
        assert_eq!(
            out_rows.len(),
            rows_here * rhs.packed.cols(),
            "output shard must cover its block rows exactly"
        );
        let mut report = AbftReport::default();
        self.rows_checked(rhs, bi_lo, bi_hi, out_rows, opts, &mut report, &mut None);
        report
    }

    /// The checked kernel behind every entry point, on the chain kernel
    /// picked once for this call.
    #[allow(clippy::too_many_arguments)]
    fn rows_checked(
        &self,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
        report: &mut AbftReport,
        epi: &mut Option<AbftEpilogue>,
    ) {
        let kernel = self.chain_kernel(opts);
        self.rows_checked_on(kernel, rhs, bi_lo, bi_hi, out_rows, opts, report, epi);
    }

    /// The chain kernel a checked call runs on. A live `bfp-faults`
    /// session perturbs single operand, product and accumulator accesses,
    /// which only the scalar loop routes through the hooks, so it takes
    /// that loop. The unverified baseline keeps the checked chain's tier,
    /// so what a campaign measures against it is the lanes alone: a plain
    /// chain [`ChainKernel::select`] puts on the `Vnni512` tier runs on
    /// `Avx2I32` here.
    fn chain_kernel(&self, opts: &AbftOptions) -> ChainKernel {
        if injecting() {
            return ChainKernel::I64;
        }
        let (_, kb) = self.packed.grid();
        match ChainKernel::select(self.packed.block(), kb, !opts.no_verify) {
            #[cfg(target_arch = "x86_64")]
            ChainKernel::Vnni512 => ChainKernel::Avx2I32,
            kernel => kernel,
        }
    }

    /// Runs every `(bi, bj)` chain of the block-row range and then its
    /// tail: tamper seam, committed-value verify and repair, epilogue,
    /// drain. On [`ChainKernel::Avx2I32`] a chain runs on registers, which
    /// can only answer "clean so far": one that sees a mismatch is replayed
    /// from its first step on the scalar loop, the kernel that localises
    /// and repairs — and the bit *and report* oracle of the register one.
    #[allow(clippy::too_many_arguments)]
    fn rows_checked_on(
        &self,
        kernel: ChainKernel,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
        report: &mut AbftReport,
        epi: &mut Option<AbftEpilogue>,
    ) {
        let b = self.packed.block();
        let verify = !opts.no_verify;
        let r0 = bi_lo * b;
        let out_cols = rhs.packed.cols();
        let (_, kb) = self.packed.grid();
        let (_, nb) = rhs.packed.grid();
        let mut s = Scratch::new(b);
        #[cfg(target_arch = "x86_64")]
        assert_ne!(
            kernel,
            ChainKernel::Vnni512,
            "the checked chain has no Vnni512 tier"
        );
        // The register chain's LHS block-row, widened once per `bi`.
        let mut xp = vec![0i32; kernel.staged_words(kb)];
        for bi in bi_lo..bi_hi {
            let imax = b.min(self.packed.rows() - bi * b);
            kernel.stage_lhs(
                &self.packed.man_plane()[bi * kb * b * b..][..kb * b * b],
                &mut xp,
            );
            for bj in 0..nb {
                let jmax = b.min(rhs.packed.cols() - bj * b);
                let mut chain = None;
                #[cfg(target_arch = "x86_64")]
                if kernel == ChainKernel::Avx2I32 {
                    let clean = self.chain_on_registers(rhs, bi, bj, verify, &xp, &mut s, report);
                    chain = clean.map(|exp| (exp, false));
                }
                let (acc_exp, dirty) =
                    chain.unwrap_or_else(|| self.chain_scalar(rhs, bi, bj, verify, &mut s, report));
                let (acc, etile) = (&mut s.acc, &mut s.etile);
                let ctx = EpilogueCtx {
                    r0: bi * b,
                    c0: bj * b,
                    imax,
                    jmax,
                    b,
                };
                // Whether the tile may enter the epilogue. A `K = 0` chain
                // may: the reference kernel leaves zeros there, and a fused
                // epilogue still runs over the zero tile, as the composed
                // path's element pass covers the zero region.
                let mut chain_ok = true;
                if let Some(acc_exp) = acc_exp {
                    report.chains += 1;
                    if let Some(t) = opts.tamper.as_mut() {
                        report.tampered += t(bi, bj, acc);
                    }
                    if injecting() {
                        for i in 0..b {
                            for j in 0..b {
                                acc[i * b + j] = commit_acc(i, j, acc[i * b + j]);
                            }
                        }
                    }
                    if verify {
                        chain_ok =
                            !dirty && verify_correct(acc, b, &mut s.chk, &mut s.rchk, report);
                        if !chain_ok {
                            report.uncorrected.push((bi, bj));
                        }
                    }
                    let scale = (acc_exp as f64).exp2();
                    for i in 0..imax {
                        let tr = &mut etile[i * b..][..jmax];
                        for (o, &a) in tr.iter_mut().zip(&acc[i * b..][..b]) {
                            *o = (a as f64 * scale) as f32;
                        }
                    }
                } else {
                    for i in 0..imax {
                        etile[i * b..][..jmax].fill(0.0);
                    }
                }
                if let (Some(e), true) = (epi.as_mut(), chain_ok) {
                    e(etile, &ctx);
                }
                for i in 0..imax {
                    out_rows[(bi * b + i - r0) * out_cols + bj * b..][..jmax]
                        .copy_from_slice(&etile[i * b..][..jmax]);
                }
            }
        }
    }

    /// Chain `(bi, bj)` on [`chain_i32_avx2`], checked when `verify`. A clean
    /// run leaves its end state (accumulator, lanes) widened in `s`, books
    /// its checks and returns the chain's exponent; `None` outright: a
    /// verification failed, nothing was booked, the scalar loop replays.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    fn chain_on_registers(
        &self,
        rhs: &AbftPacked,
        bi: usize,
        bj: usize,
        verify: bool,
        xp: &[i32],
        s: &mut Scratch,
        report: &mut AbftReport,
    ) -> Option<Option<i32>> {
        let (_, kb) = self.packed.grid();
        let x_exps = &self.packed.exp_plane()[bi * kb..][..kb];
        let mut acc32 = [0i32; 64];
        let mut sums = ChainSums {
            xc: &self.csum[bi * kb * 8..][..kb * 8],
            yc: &rhs.csum,
            #[cfg(test)]
            upset: tests::mid_chain_upset(bi, bj),
            ..ChainSums::default()
        };
        // SAFETY: the caller holds `ChainKernel::Avx2I32`, which is only
        // selected after detecting AVX2.
        let exp = unsafe {
            if verify {
                chain_i32_avx2::<true>(xp, x_exps, &rhs.packed, bj, &mut sums, &mut acc32)
            } else {
                chain_i32_avx2::<false>(xp, x_exps, &rhs.packed, bj, &mut sums, &mut acc32)
            }
        };
        if sums.mismatch {
            #[cfg(test)]
            tests::REPLAYS.set(tests::REPLAYS.get() + 1);
            return None;
        }
        report.checks += sums.checks;
        for (w, &a) in s.acc.iter_mut().zip(&acc32) {
            *w = a as i64;
        }
        for j in 0..8 {
            s.chk[j] = sums.chk[j] as i64;
            s.rchk[j] = sums.rchk[j] as i64;
        }
        Some(exp)
    }

    /// Chain `(bi, bj)` on the scalar i64 loop: any block size, any `K`,
    /// any host, every access through the `bfp-faults` hooks when a
    /// session is live; checksum maintenance as documented at module
    /// level. Leaves accumulator and checksum lanes in `s` and returns the
    /// chain's exponent (`None` for `K = 0`) and `dirty`: whether a
    /// mid-chain mismatch defeated localization.
    fn chain_scalar(
        &self,
        rhs: &AbftPacked,
        bi: usize,
        bj: usize,
        verify: bool,
        s: &mut Scratch,
        report: &mut AbftReport,
    ) -> (Option<i32>, bool) {
        let b = self.packed.block();
        let bb = b * b;
        let inject = injecting();
        let (_, kb) = self.packed.grid();
        let (_, nb) = rhs.packed.grid();
        let (xman, xexp) = (self.packed.man_plane(), self.packed.exp_plane());
        let (yman, yexp) = (rhs.packed.man_plane(), rhs.packed.exp_plane());
        let Scratch {
            prod64,
            acc,
            chk,
            rchk,
            cp,
            rp,
            xbuf,
            ybuf,
            ..
        } = s;
        // The first product meets a zero accumulator at its own exponent.
        let mut acc_exp = None;
        acc.fill(0);
        chk.fill(0);
        rchk.fill(0);
        // Set once a mismatch defeats localization: lane upkeep stops.
        let mut dirty = false;
        for bk in 0..kb {
            #[cfg(test)]
            if let Some((_, e, delta)) = tests::mid_chain_upset(bi, bj).filter(|u| u.0 == bk) {
                acc[e] += delta as i64;
            }
            let xt = bi * kb + bk;
            let yt = bk * nb + bj;
            let x = tile_src(xman, xt, bb, inject, xbuf);
            let y = tile_src(yman, yt, bb, inject, ybuf);
            let pexp = exp_src(xexp, xt, inject) as i32 + exp_src(yexp, yt, inject) as i32;
            for i in 0..b {
                let xr = &x[i * b..][..b];
                for j in 0..b {
                    let p = dot_i8(xr, &y[j * b..][..b]) as i64;
                    prod64[i * b + j] = if inject { commit_prod(p) } else { p };
                }
            }
            if verify && !dirty {
                // Checksum products of the exact integer tile product,
                // from the pack-time lanes.
                let xc = &self.csum[xt * b..][..b];
                let yc = &rhs.csum[yt * b..][..b];
                for j in 0..b {
                    let yr = &y[j * b..][..b];
                    let mut s = 0i64;
                    for k in 0..b {
                        s += xc[k] as i64 * yr[k] as i64;
                    }
                    cp[j] = s;
                }
                for i in 0..b {
                    let xr = &x[i * b..][..b];
                    let mut s = 0i64;
                    for k in 0..b {
                        s += xr[k] as i64 * yc[k] as i64;
                    }
                    rp[i] = s;
                }
            }
            let cur = acc_exp.unwrap_or(pexp);
            acc_exp = Some(cur.max(pexp));
            if pexp >= cur {
                let sh = (pexp - cur) as u32;
                if sh > 0 {
                    // Truncation event: checkpoint-verify the accumulator
                    // at full precision, truncate, resync the sums
                    // exactly, then fold in the new product.
                    if verify && !dirty {
                        dirty = !verify_correct(acc, b, chk, rchk, report);
                    }
                    for a in acc.iter_mut() {
                        *a = shift_right_trunc(*a, sh);
                    }
                    if verify && !dirty {
                        sums_of(acc, b, rchk, chk);
                    }
                }
                for t in 0..bb {
                    acc[t] += prod64[t];
                }
                if verify && !dirty {
                    for j in 0..b {
                        chk[j] += cp[j];
                        rchk[j] += rp[j];
                    }
                }
            } else {
                let sh = (cur - pexp) as u32;
                // The incoming product is about to lose bits: verify it
                // first (its sums are cp/rp exactly), then accumulate the
                // truncated values and their exact sums.
                if verify && !dirty {
                    dirty = !verify_correct(prod64, b, cp, rp, report);
                }
                for i in 0..b {
                    for j in 0..b {
                        let tp = shift_right_trunc(prod64[i * b + j], sh);
                        acc[i * b + j] += tp;
                        if verify && !dirty {
                            chk[j] += tp;
                            rchk[i] += tp;
                        }
                    }
                }
            }
        }
        (acc_exp, dirty)
    }
}

/// Per-call scratch of the checked kernel, sized for block `b`.
struct Scratch {
    /// One tile step's products.
    prod64: Vec<i64>,
    /// The chain's wide accumulator tile: what the tamper seam, the final
    /// verify and the drain see, whichever kernel ran the chain.
    acc: Vec<i64>,
    /// Column / row checksums of `acc`.
    chk: Vec<i64>,
    rchk: Vec<i64>,
    /// Column / row checksum products of one step.
    cp: Vec<i64>,
    rp: Vec<i64>,
    /// Operand tiles as read through the fault hooks.
    xbuf: Vec<i8>,
    ybuf: Vec<i8>,
    /// The dequantized tile a fused epilogue works on.
    etile: Vec<f32>,
}

impl Scratch {
    fn new(b: usize) -> Scratch {
        Scratch {
            prod64: vec![0; b * b],
            acc: vec![0; b * b],
            chk: vec![0; b],
            rchk: vec![0; b],
            cp: vec![0; b],
            rp: vec![0; b],
            xbuf: vec![0; b * b],
            ybuf: vec![0; b * b],
            etile: vec![0.0; b * b],
        }
    }
}

/// `lane[k] += Σ_idx tile[idx·b + k]` with `b = lane.len()`: one tile's
/// pack-time checksum lane.
#[inline(always)]
fn lane_sums(tile: &[i8], lane: &mut [i16]) {
    for row in tile.chunks_exact(lane.len()) {
        for (s, &m) in lane.iter_mut().zip(row) {
            *s += m as i16;
        }
    }
}

/// Recompute `rows[i] = Σⱼ data[i,j]`, `cols[j] = Σᵢ data[i,j]`.
fn sums_of(data: &[i64], b: usize, rows: &mut [i64], cols: &mut [i64]) {
    rows[..b].fill(0);
    cols[..b].fill(0);
    for i in 0..b {
        let dr = &data[i * b..][..b];
        for (j, &v) in dr.iter().enumerate() {
            rows[i] += v;
            cols[j] += v;
        }
    }
}

/// Verify `chk`/`rchk` against the actual column/row sums of `data`;
/// on mismatch, localize via the row×column intersection and repair.
/// Returns `true` when the invariant holds on exit (possibly after an
/// in-place correction), `false` when the mismatch is uncorrectable
/// under the single-fault model.
fn verify_correct(
    data: &mut [i64],
    b: usize,
    chk: &mut [i64],
    rchk: &mut [i64],
    report: &mut AbftReport,
) -> bool {
    report.checks += 1;
    let mut rows = [0i64; 16];
    let mut cols = [0i64; 16];
    let mut rows_v;
    let mut cols_v;
    let (rows, cols): (&mut [i64], &mut [i64]) = if b <= 16 {
        (&mut rows[..b], &mut cols[..b])
    } else {
        rows_v = vec![0i64; b];
        cols_v = vec![0i64; b];
        (&mut rows_v, &mut cols_v)
    };
    sums_of(data, b, rows, cols);
    let mut bad_i = None;
    let mut ni = 0usize;
    let mut bad_j = None;
    let mut nj = 0usize;
    for i in 0..b {
        if rows[i] != rchk[i] {
            ni += 1;
            bad_i = Some(i);
        }
        if cols[i] != chk[i] {
            nj += 1;
            bad_j = Some(i);
        }
    }
    if ni == 0 && nj == 0 {
        return true;
    }
    report.detections += 1;
    match (bad_i, bad_j) {
        // One bad row crossing one bad column with equal deltas: a
        // single corrupted element; subtract the delta to repair it.
        (Some(i), Some(j)) if ni == 1 && nj == 1 && rows[i] - rchk[i] == cols[j] - chk[j] => {
            data[i * b + j] -= rows[i] - rchk[i];
            report.corrected_elements += 1;
            true
        }
        // Rows all consistent but columns not (or vice versa): data is
        // vouched for by the clean dimension, so the checksum words
        // themselves took the hit — resynchronise them.
        (None, Some(_)) => {
            chk[..b].copy_from_slice(&cols[..b]);
            report.corrected_checksums += 1;
            true
        }
        (Some(_), None) => {
            rchk[..b].copy_from_slice(&rows[..b]);
            report.corrected_checksums += 1;
            true
        }
        // Multiple intersections or inconsistent deltas: more than one
        // fault landed; not correctable here.
        _ => false,
    }
}

/// Whether a fault-injection session is live (one relaxed load). The
/// per-access hooks below are only consulted when it is.
#[inline(always)]
fn injecting() -> bool {
    #[cfg(feature = "faults")]
    {
        bfp_faults::active()
    }
    #[cfg(not(feature = "faults"))]
    {
        false
    }
}

/// Read a tile out of a mantissa plane, through the modelled operand
/// BRAMs when injecting.
#[inline(always)]
fn tile_src<'a>(
    man: &'a [i8],
    tile: usize,
    bb: usize,
    inject: bool,
    buf: &'a mut [i8],
) -> &'a [i8] {
    #[cfg(feature = "faults")]
    if inject {
        let src = &man[tile * bb..][..bb];
        for (e, (d, &s)) in buf.iter_mut().zip(src).enumerate() {
            let (bram, addr) = plane_site(tile, e, bb);
            *d = bfp_faults::hook::bram_read(bram, addr, s as u8) as i8;
        }
        return &buf[..bb];
    }
    let _ = (inject, buf);
    &man[tile * bb..][..bb]
}

/// Read a tile's shared exponent, through the modelled exponent BRAM
/// when injecting.
#[inline(always)]
fn exp_src(exps: &[i8], tile: usize, inject: bool) -> i8 {
    #[cfg(feature = "faults")]
    if inject {
        return bfp_faults::hook::exp_read(tile, exps[tile] as u8) as i8;
    }
    let _ = inject;
    exps[tile]
}

/// One tile-product element through the DSP48 P-register commit hook.
#[inline(always)]
fn commit_prod(p: i64) -> i64 {
    #[cfg(feature = "faults")]
    {
        bfp_faults::hook::dsp_p_commit(p)
    }
    #[cfg(not(feature = "faults"))]
    {
        p
    }
}

/// One accumulator element through the PSU read hook at drain time.
#[inline(always)]
fn commit_acc(row: usize, col: usize, v: i64) -> i64 {
    #[cfg(feature = "faults")]
    {
        bfp_faults::hook::psu_read(row, col, v)
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = (row, col);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::tests::raw;
    use crate::packed::PackSide;

    /// Test-only seam: adds `delta` to accumulator element `elem` of chain
    /// `chain` before its step `step`, in whichever kernel runs the chain —
    /// an upset of the running state, which no public seam reaches.
    #[derive(Clone, Copy)]
    pub(super) struct MidChainUpset {
        chain: (usize, usize),
        step: usize,
        elem: usize,
        delta: i32,
    }

    thread_local! {
        pub(super) static MID_CHAIN_UPSET: std::cell::Cell<Option<MidChainUpset>> =
            const { std::cell::Cell::new(None) };
        /// Chains this thread's register kernel gave up for the scalar loop
        /// to replay; a healthy run has none, however its report reads.
        pub(super) static REPLAYS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The armed mid-chain upset of chain `(bi, bj)`, as `(step, elem, delta)`.
    pub(super) fn mid_chain_upset(bi: usize, bj: usize) -> Option<(usize, usize, i32)> {
        let u = MID_CHAIN_UPSET.get().filter(|u| u.chain == (bi, bj))?;
        Some((u.step, u.elem, u.delta))
    }

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
    fn checked_kernel_is_bit_identical_and_clean_when_healthy() {
        let q = Quantizer::paper();
        for (m, k, n) in [(16, 16, 16), (24, 40, 8), (11, 13, 7), (40, 24, 17)] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let want = pa.packed().matmul(pb.packed()).unwrap();
            let (got, report) = pa.matmul(&pb).unwrap();
            assert_bits_eq(&got, &want);
            assert!(report.clean(), "{report:?}");
            assert!(report.checks >= report.chains);
        }
    }

    #[test]
    fn generic_block_sizes_hold_the_invariant() {
        for blk in [4usize, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let want = pa.packed().matmul(pb.packed()).unwrap();
            let (got, report) = pa.matmul(&pb).unwrap();
            assert_bits_eq(&got, &want);
            assert!(report.clean(), "b={blk}: {report:?}");
        }
    }

    #[test]
    fn unverified_mode_matches_packed_kernel_and_skips_checks() {
        let q = Quantizer::paper();
        let a = spiky(24, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let want = pa.packed().matmul(pb.packed()).unwrap();
        let (got, report) = pa.matmul_with(&pb, &mut AbftOptions::unverified()).unwrap();
        assert_bits_eq(&got, &want);
        assert_eq!(report.checks, 0);
        assert!(report.clean());
    }

    #[test]
    fn unverified_mode_runs_on_registers_beside_the_checked_chain() {
        let pa = AbftPacked::quantize_pack_lhs(&Quantizer::paper(), &spiky(24, 32)).unwrap();
        let checked = pa.chain_kernel(&AbftOptions::default());
        let unverified = pa.chain_kernel(&AbftOptions::unverified());
        // Whatever the plain GEMM takes (the VNNI tier, where there is
        // one), the baseline runs the checked chain's tier, not the loop.
        assert_eq!(unverified, checked);
        if is_x86_feature_detected!("avx2") {
            assert_eq!(unverified, ChainKernel::Avx2I32);
        }
    }

    #[test]
    fn tamper_single_element_is_detected_and_corrected_in_place() {
        let q = Quantizer::paper();
        let a = spiky(16, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let want = pa.packed().matmul(pb.packed()).unwrap();
        let mut fired = false;
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if bi == 0 && bj == 1 && !fired {
                fired = true;
                acc[27] ^= 1 << 17;
                1
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let (got, report) = pa.matmul_with(&pb, &mut opts).unwrap();
        assert_bits_eq(&got, &want);
        assert_eq!(report.tampered, 1);
        assert_eq!(report.detections, 1);
        assert_eq!(report.corrected_elements, 1);
        assert!(report.uncorrected.is_empty());
    }

    #[test]
    fn tamper_multi_element_is_detected_but_uncorrectable() {
        let q = Quantizer::paper();
        let a = spiky(16, 16);
        let b = spiky(16, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if bi == 0 && bj == 0 {
                // Three elements across distinct rows and columns:
                // defeats single-element localization.
                acc[0] += 1 << 12;
                acc[9] += 1 << 13;
                acc[18] += 1 << 14;
                3
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let (_, report) = pa.matmul_with(&pb, &mut opts).unwrap();
        assert_eq!(report.tampered, 3);
        assert!(report.detections > 0);
        assert_eq!(report.corrected_elements, 0);
        assert_eq!(report.uncorrected, vec![(0, 0)]);
    }

    #[test]
    fn corrupted_checksum_words_resync_without_touching_data() {
        let mut report = AbftReport::default();
        let b = 4usize;
        let mut data = vec![3i64; b * b];
        let mut chk = vec![12i64; b];
        let mut rchk = vec![12i64; b];
        // Corrupt two column-checksum words; rows stay consistent.
        chk[1] += 7;
        chk[3] -= 2;
        assert!(verify_correct(
            &mut data,
            b,
            &mut chk,
            &mut rchk,
            &mut report
        ));
        assert_eq!(report.corrected_checksums, 1);
        assert_eq!(chk, vec![12i64; b]);
        assert!(data.iter().all(|&v| v == 3));
        // And the symmetric case for the row lane.
        rchk[0] += 1;
        assert!(verify_correct(
            &mut data,
            b,
            &mut chk,
            &mut rchk,
            &mut report
        ));
        assert_eq!(report.corrected_checksums, 2);
    }

    #[test]
    fn inconsistent_intersection_is_uncorrectable() {
        let mut report = AbftReport::default();
        let b = 4usize;
        let mut data = vec![1i64; b * b];
        let mut chk = vec![4i64; b];
        let mut rchk = vec![4i64; b];
        // Two corrupted elements in the same row, different columns:
        // one bad row, two bad columns.
        data[1] += 5;
        data[2] += 9;
        assert!(!verify_correct(
            &mut data,
            b,
            &mut chk,
            &mut rchk,
            &mut report
        ));
        assert_eq!(report.detections, 1);
        assert_eq!(report.corrections(), 0);
    }

    #[test]
    fn epilogue_on_clean_chains_matches_composed_pass() {
        let q = Quantizer::paper();
        for (m, k, n) in [(16, 32, 16), (11, 13, 7), (40, 24, 17)] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let (raw, _) = pa.matmul(&pb).unwrap();
            let want =
                MatF32::from_fn(raw.rows(), raw.cols(), |i, j| (raw.get(i, j) * 0.25).tanh());
            let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                for i in 0..ctx.imax {
                    for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                        *v = (*v * 0.25).tanh();
                    }
                }
            };
            let (got, report) = pa
                .matmul_with_epilogue(&pb, &mut AbftOptions::default(), &mut epi)
                .unwrap();
            assert!(report.clean(), "{report:?}");
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn epilogue_skips_uncorrected_chains_and_runs_on_repaired_ones() {
        let q = Quantizer::paper();
        let a = spiky(16, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let (raw, _) = pa.matmul(&pb).unwrap();
        // Chain (0,0): 3-element smear — uncorrectable, epilogue must not
        // run there. Chain (1,1): single-bit flip — repaired, epilogue
        // sees the corrected bits.
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if (bi, bj) == (0, 0) {
                acc[0] += 1 << 12;
                acc[9] += 1 << 13;
                acc[18] += 1 << 14;
                3
            } else if (bi, bj) == (1, 1) {
                acc[27] ^= 1 << 17;
                1
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let mut applied = 0u64;
        let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                    *v += 1.0;
                    applied += 1;
                }
            }
        };
        let (got, report) = pa.matmul_with_epilogue(&pb, &mut opts, &mut epi).unwrap();
        assert_eq!(report.uncorrected, vec![(0, 0)]);
        assert_eq!(report.corrected_elements, 1);
        // Epilogue covered every tile except the condemned one.
        assert_eq!(applied, 16 * 16 - 64);
        for i in 0..16 {
            for j in 0..16 {
                if i < 8 && j < 8 {
                    continue; // condemned chain: raw (tampered) bits.
                }
                assert_eq!(
                    got.get(i, j).to_bits(),
                    (raw.get(i, j) + 1.0).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    /// The checked GEMM forced onto one chain kernel, with an optional
    /// `+1` epilogue that counts the elements it touched.
    fn checked_on(
        kernel: ChainKernel,
        pa: &AbftPacked,
        pb: &AbftPacked,
        opts: &mut AbftOptions,
        fused: bool,
    ) -> (MatF32, AbftReport, u64) {
        let mut out = MatF32::zeros(pa.packed.rows(), pb.packed.cols());
        let (mb, _) = pa.packed.grid();
        let mut report = AbftReport::default();
        let mut applied = 0u64;
        let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                    *v += 1.0;
                    applied += 1;
                }
            }
        };
        let mut epi: Option<AbftEpilogue> = if fused { Some(&mut epi) } else { None };
        pa.rows_checked_on(
            kernel,
            pb,
            0,
            mb,
            out.data_mut(),
            opts,
            &mut report,
            &mut epi,
        );
        (out, report, applied)
    }

    /// Runs `pa · pb` on the kernel the host selects (the register chain
    /// where there is AVX2) and on the forced scalar loop, plain and
    /// fused, whole and sharded by block-row; asserts every run agrees in
    /// bits with [`PackedBfp::matmul`] and field for field in its report.
    /// Returns that report.
    fn assert_kernels_agree(pa: &AbftPacked, pb: &AbftPacked) -> AbftReport {
        let (mb, kb) = pa.packed.grid();
        let host = ChainKernel::select(8, kb, true);
        let replays = REPLAYS.get();
        let want = pa.packed.matmul(&pb.packed).unwrap();
        let plus_one = MatF32::from_fn(want.rows(), want.cols(), |i, j| want.get(i, j) + 1.0);
        let opts = || AbftOptions::default();
        let (o, oracle, _) = checked_on(ChainKernel::I64, pa, pb, &mut opts(), false);
        assert_bits_eq(&o, &want);
        assert!(oracle.clean(), "{oracle:?}");
        for kernel in [host, ChainKernel::I64] {
            for fused in [false, true] {
                let (o, r, applied) = checked_on(kernel, pa, pb, &mut opts(), fused);
                assert_bits_eq(&o, if fused { &plus_one } else { &want });
                assert_eq!(r, oracle, "{kernel:?} fused={fused}");
                assert_eq!(
                    applied,
                    if fused {
                        (want.rows() * want.cols()) as u64
                    } else {
                        0
                    }
                );
            }
            let (o, r, _) = checked_on(kernel, pa, pb, &mut AbftOptions::unverified(), false);
            assert_bits_eq(&o, &want);
            assert_eq!(
                (r.chains, r.checks),
                (oracle.chains, 0),
                "{kernel:?} unverified"
            );
        }
        // Sharded through the public entry point, one block-row at a time.
        let mut sharded = MatF32::zeros(want.rows(), want.cols());
        let mut merged = AbftReport::default();
        let cols = want.cols();
        for bi in 0..mb {
            let rows = bi * 8..(bi * 8 + 8).min(want.rows());
            let buf = &mut sharded.data_mut()[rows.start * cols..rows.end * cols];
            merged.merge(&pa.matmul_rows_into(pb, bi, bi + 1, buf, &mut AbftOptions::default()));
        }
        assert_bits_eq(&sharded, &want);
        assert_eq!(merged, oracle, "sharded");
        assert_eq!(REPLAYS.get(), replays, "a healthy chain was replayed");
        oracle
    }

    fn raw_pair(
        (m, kb, n): (usize, usize, usize),
        x: (
            impl Fn(usize, usize) -> i8,
            impl Fn(usize, usize, usize) -> i8,
        ),
        y: (
            impl Fn(usize, usize) -> i8,
            impl Fn(usize, usize, usize) -> i8,
        ),
    ) -> (AbftPacked, AbftPacked) {
        (
            AbftPacked::from_packed(raw(PackSide::Lhs, (m, kb * 8), x.0, x.1)),
            AbftPacked::from_packed(raw(PackSide::Rhs, (kb * 8, n), y.0, y.1)),
        )
    }

    /// Mantissas over the whole i8 range, −128 included.
    fn mixed(bi: usize, bj: usize, t: usize) -> i8 {
        ((bi * 131 + bj * 71 + t * 37) % 256) as u8 as i8
    }

    #[test]
    fn register_kernel_matches_scalar_kernel_on_ragged_shapes() {
        let q = Quantizer::paper();
        let shapes = [
            (197, 72, 131),
            (13, 21, 9),
            (8, 5, 8),
            (3, 1, 2),
            (5, 0, 7),
            (16, 64, 24),
        ];
        for (m, k, n) in shapes {
            let pa = AbftPacked::quantize_pack_lhs(&q, &spiky(m, k)).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &spiky(k, n)).unwrap();
            let r = assert_kernels_agree(&pa, &pb);
            let chains = if k == 0 {
                0
            } else {
                (m.div_ceil(8) * n.div_ceil(8)) as u64
            };
            assert_eq!(r.chains, chains, "{m}x{k}x{n}");
            assert!(r.checks >= r.chains);
        }
    }

    #[test]
    fn register_kernel_matches_scalar_kernel_on_every_shift_regime() {
        // Product exponents along K that move the running maximum up by 0,
        // 1, 31, 32, 63 and 73 (the accumulator is verified and shifted),
        // then fall below it by 0, 1, 31, 32, 63, 100 and 200 (the product
        // is), then rise by one more.
        let pexp = [
            -100, -100, -99, -68, -36, 27, 100, 100, 99, 69, 68, 37, 0, -100, 101,
        ];
        let (pa, pb) = raw_pair(
            (21, pexp.len(), 19),
            (|_, bk| (pexp[bk] / 2) as i8, mixed),
            (
                |bk, _| (pexp[bk] - pexp[bk] / 2) as i8,
                |bk, bj, t| mixed(bj, bk, t + 5),
            ),
        );
        let r = assert_kernels_agree(&pa, &pb);
        // One check per step off the running maximum, one at the end.
        let mut max = pexp[0];
        let events = pexp[1..].iter().filter(|&&e| {
            let event = e != max;
            max = max.max(e);
            event
        });
        assert_eq!(r.checks, r.chains * (events.count() as u64 + 1));
        assert_eq!(r.checks, 9 * 13);
    }

    #[test]
    fn checksum_lanes_hold_worst_case_growth_and_hand_over_at_their_bound() {
        // Equal exponents and extreme mantissas: every step adds ±2¹⁷ per
        // element, 2²⁰ per lane, and nothing is shifted away until the
        // last step raises the exponent — the register kernel then
        // verifies lanes at 2046·2²⁰, the longest checked chain it takes.
        let kb = (1 << 11) - 1;
        for (x, y) in [(-128i8, -128i8), (-128, 127), (127, 127)] {
            let (pa, pb) = raw_pair(
                (8, kb, 8),
                (|_, bk| 3 + (bk == kb - 1) as i8, |_, _, _| x),
                (|_, _| -5, |_, _, _| y),
            );
            assert_eq!(assert_kernels_agree(&pa, &pb).checks, 2);
            let (pa, pb) = raw_pair(
                (8, kb, 8),
                (|_, _| 3, |_, _, _| x),
                (|_, _| -5, |_, _, _| y),
            );
            assert_eq!(assert_kernels_agree(&pa, &pb).checks, 1);
        }
        // One step more and a lane reaches 2³¹: the call runs on the
        // scalar loop, exactly.
        let kb = 1 << 11;
        assert_eq!(ChainKernel::select(8, kb, true), ChainKernel::I64);
        let (pa, pb) = raw_pair(
            (8, kb, 8),
            (|_, _| 0, |_, _, _| -128),
            (|_, _| 0, |_, _, _| -128),
        );
        let (out, r) = pa.matmul(&pb).unwrap();
        assert!(r.clean() && r.checks == 1, "{r:?}");
        assert!(out.data().iter().all(|&v| v == (kb as f32) * 131072.0));
    }

    #[test]
    fn tampered_chains_report_identically_on_both_kernels() {
        let q = Quantizer::paper();
        let pa = AbftPacked::quantize_pack_lhs(&q, &spiky(16, 32)).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &spiky(32, 16)).unwrap();
        let (raw_out, _) = pa.matmul(&pb).unwrap();
        // Chain (0,0): 3-element smear, uncorrectable, no epilogue there.
        // Chain (1,1): single-bit flip, repaired before the epilogue.
        let mut runs = Vec::new();
        for kernel in [ChainKernel::select(8, 4, true), ChainKernel::I64] {
            let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
                if (bi, bj) == (0, 0) {
                    acc[0] += 1 << 12;
                    acc[9] += 1 << 13;
                    acc[18] += 1 << 14;
                    3
                } else if (bi, bj) == (1, 1) {
                    acc[27] ^= 1 << 17;
                    1
                } else {
                    0
                }
            };
            let mut opts = AbftOptions {
                no_verify: false,
                tamper: Some(&mut tamper),
            };
            let (got, report, applied) = checked_on(kernel, &pa, &pb, &mut opts, true);
            assert_eq!(report.uncorrected, vec![(0, 0)]);
            assert_eq!((report.tampered, report.detections), (4, 2));
            assert_eq!(
                (report.corrected_elements, report.corrected_checksums),
                (1, 0)
            );
            assert_eq!(applied, 16 * 16 - 64);
            for i in 0..16 {
                for j in 0..16 {
                    if i >= 8 || j >= 8 {
                        assert_eq!(got.get(i, j).to_bits(), (raw_out.get(i, j) + 1.0).to_bits());
                    }
                }
            }
            runs.push((got, report));
        }
        assert_eq!(runs[0], runs[1]);
    }

    /// Arms [`MID_CHAIN_UPSET`] for the current test thread until dropped.
    struct Upset;

    impl Upset {
        fn arm(chain: (usize, usize), step: usize, elem: usize, delta: i32) -> Upset {
            MID_CHAIN_UPSET.set(Some(MidChainUpset {
                chain,
                step,
                elem,
                delta,
            }));
            Upset
        }
    }

    impl Drop for Upset {
        fn drop(&mut self) {
            MID_CHAIN_UPSET.set(None);
        }
    }

    #[test]
    fn mid_chain_upset_of_the_register_state_is_replayed_and_repaired() {
        // Chain (1, 2) walks 0, 0, 0, +4, −2, 0: an accumulator upset before
        // step 2 meets the accumulator check of step 3; one before step 4,
        // past every accumulator check, is left to the final verify. Either
        // way the bits must come out clean: a kernel that shifted the
        // corrupted accumulator unverified would resynchronise its lanes
        // from the damage and answer wrong bits with a clean report.
        let pexp = [0i8, 0, 0, 4, 2, 4];
        let (pa, pb) = raw_pair(
            (24, pexp.len(), 24),
            (|_, bk| pexp[bk], mixed),
            (|_, _| -3, |bk, bj, t| mixed(bj, bk, t + 11)),
        );
        let want = pa.packed.matmul(&pb.packed).unwrap();
        let clean = assert_kernels_agree(&pa, &pb);
        for (bk, elem, delta) in [(2, 27, 1 << 9), (2, 0, -77), (4, 63, 1 << 20)] {
            let _armed = Upset::arm((1, 2), bk, elem, delta);
            let replays = REPLAYS.get();
            let mut runs = Vec::new();
            for kernel in [ChainKernel::select(8, pexp.len(), true), ChainKernel::I64] {
                let (got, r, _) = checked_on(kernel, &pa, &pb, &mut AbftOptions::default(), true);
                assert_eq!(
                    (r.detections, r.corrected_elements),
                    (1, 1),
                    "{kernel:?} {r:?}"
                );
                assert!(r.uncorrected.is_empty() && r.checks == clean.checks);
                for (g, w) in got.data().iter().zip(want.data()) {
                    assert_eq!(g.to_bits(), (w + 1.0).to_bits(), "{kernel:?} step {bk}");
                }
                runs.push(r);
            }
            assert_eq!(runs[0], runs[1], "upset before step {bk}");
            let on_registers = ChainKernel::select(8, pexp.len(), true) != ChainKernel::I64;
            assert_eq!(REPLAYS.get() - replays, (on_registers && bk == 2) as u64);
        }
    }

    #[test]
    fn storage_upsets_after_pack_time_report_identically_on_both_kernels() {
        // The lanes are computed at pack time, so a later upset of a stored
        // lane word or mantissa breaks the invariant at the next product or
        // accumulator check. The register kernel meets it mid-chain, stops,
        // and the replay must book exactly what the scalar kernel books.
        let pexp = [0i8, 3, 1, 3, 2, 6, 6, 0];
        let pair = || {
            raw_pair(
                (16, pexp.len(), 16),
                (|_, bk| pexp[bk], mixed),
                (|_, _| -3, |bk, bj, t| mixed(bj, bk, t + 11)),
            )
        };
        let (clean_a, clean_b) = pair();
        let clean = assert_kernels_agree(&clean_a, &clean_b);
        // (operand, tile, entry): a lane word of either operand, then a
        // stored mantissa of either operand under its pack-time lanes.
        for (lane, rhs, tile, entry) in [
            (true, false, 2, 5),
            (true, true, 9, 0),
            (false, false, 12, 27),
            (false, true, 5, 63),
        ] {
            let (mut pa, mut pb) = pair();
            let hit = if rhs { &mut pb } else { &mut pa };
            if lane {
                hit.csum[tile * 8 + entry] += 3;
            } else {
                let stale = hit.csum.clone();
                let side = if rhs { PackSide::Rhs } else { PackSide::Lhs };
                let upset = raw(
                    side,
                    (hit.packed.rows(), hit.packed.cols()),
                    |bi, bj| hit.packed.exp_plane()[bi * hit.packed.grid().1 + bj],
                    |bi, bj, t| {
                        let at = bi * hit.packed.grid().1 + bj;
                        let flip = ((at == tile && t == entry) as i8) << 4;
                        hit.packed.man_plane()[at * 64 + t] ^ flip
                    },
                );
                *hit = AbftPacked {
                    packed: upset,
                    csum: stale,
                };
            }
            for fused in [false, true] {
                let host = ChainKernel::select(8, pexp.len(), true);
                let (got, r, _) = checked_on(host, &pa, &pb, &mut AbftOptions::default(), fused);
                let (want, oracle, _) = checked_on(
                    ChainKernel::I64,
                    &pa,
                    &pb,
                    &mut AbftOptions::default(),
                    fused,
                );
                assert!(
                    oracle.detections > 0 && oracle.checks == clean.checks,
                    "{oracle:?}"
                );
                assert_eq!(r, oracle, "lane={lane} rhs={rhs} fused={fused}");
                assert_bits_eq(&got, &want);
            }
        }
    }

    #[test]
    fn plane_site_stripes_tiles_across_brams() {
        assert_eq!(plane_site(0, 0, 64), (0, 0));
        assert_eq!(plane_site(5, 63, 64), (5, 63));
        assert_eq!(plane_site(16, 0, 64), (0, 64));
        assert_eq!(plane_site(37, 10, 64), (5, 2 * 64 + 10));
    }

    #[test]
    fn checksum_lanes_cost_a_quarter_of_mantissa_bytes_at_b8() {
        let q = Quantizer::paper();
        let p = AbftPacked::quantize_pack_lhs(&q, &spiky(16, 16)).unwrap();
        // 4 tiles × 8 lanes × 2 bytes = 64 bytes vs 256 mantissas.
        assert_eq!(p.checksum_bytes(), 64);
    }
}
