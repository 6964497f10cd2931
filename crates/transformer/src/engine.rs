//! Execution engines: the mixed-precision accelerator path versus the f32
//! reference, behind one trait so the same model code runs on both.

use std::fmt;
use std::time::{Duration, Instant};

use bfp_arith::error::ArithError;
use bfp_arith::fork;
use bfp_arith::int8quant::Int8Tensor;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{EpilogueCtx, PackedBfp, PACK_MIN_SHARD_ELEMS, PARALLEL_MIN_SHARD_MACS};
use bfp_arith::quant::Quantizer;
use bfp_telemetry::Tracer;

use crate::layers::{Linear, WeightPack};
use crate::plan::CompiledVitPlan;
use crate::reference;
use crate::vpu::{NonlinearMode, OpCount, Vpu};

/// Operation census of an inference pass, split the way Table IV splits it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// bfp8 MAC count of every GEMM (linear layers + attention matmuls).
    pub matmul_macs: u64,
    /// VPU operations attributable to softmax.
    pub softmax: OpCount,
    /// VPU operations attributable to GELU.
    pub gelu: OpCount,
    /// VPU operations attributable to LayerNorm.
    pub layernorm: OpCount,
    /// GEMMs that could not be quantized (non-finite operands) and were
    /// degraded to the fp32 reference path instead of panicking.
    pub fp32_fallbacks: u64,
}

impl OpCensus {
    /// bfp8 operations (2 per MAC: multiply + accumulate), the paper's
    /// "OPs" unit for the linear partition.
    pub fn bfp_ops(&self) -> u64 {
        2 * self.matmul_macs
    }

    /// Total fp32 FLOPs across the three non-linear kinds.
    pub fn fp32_flops(&self) -> u64 {
        self.softmax.flops() + self.gelu.flops() + self.layernorm.flops()
    }

    /// Total host-delegated operations (divisions, square roots).
    pub fn host_ops(&self) -> u64 {
        self.softmax.host_ops() + self.gelu.host_ops() + self.layernorm.host_ops()
    }

    /// Fraction of all counted operations that are fp32 (the paper's
    /// "1.35 % of workloads" figure for DeiT-Small).
    pub fn fp32_fraction(&self) -> f64 {
        let total = (self.bfp_ops() + self.fp32_flops()) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.fp32_flops() as f64 / total
        }
    }

    /// Accumulate another census.
    pub fn merge(&mut self, o: &OpCensus) {
        self.matmul_macs += o.matmul_macs;
        self.softmax.merge(&o.softmax);
        self.gelu.merge(&o.gelu);
        self.layernorm.merge(&o.layernorm);
        self.fp32_fallbacks += o.fp32_fallbacks;
    }
}

/// The operations a model needs from its execution substrate: five
/// kernels every engine implements, and the ops the block walk
/// (`Block::forward`, `Attention::context`) is written against. Each op's
/// default is the composed sequence — the bit-identity oracle — and an
/// override must be bit-identical to it.
pub trait Engine: Sized {
    /// General matrix multiply.
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32;
    /// `x · W` against a layer's weight: what [`Linear::forward`] calls.
    /// An engine that keeps a derived form of the weight with the layer
    /// ([`MixedEngine`]'s packed bfp8 RHS) overrides this to use it; the
    /// result must be bit-identical to `matmul(x, lin.w())`.
    fn matmul_weight(&mut self, x: &MatF32, lin: &Linear) -> MatF32 {
        self.matmul(x, lin.w())
    }
    /// Row-wise softmax in place.
    fn softmax_rows(&mut self, m: &mut MatF32);
    /// Element-wise GELU in place.
    fn gelu(&mut self, m: &mut MatF32);
    /// Row-wise LayerNorm in place.
    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32);
    /// Run `f` as the step of the block walk called `name`. An engine
    /// that times or traces its steps overrides this; `name` is only
    /// formatted by one that does.
    fn node<T>(&mut self, _name: impl fmt::Display, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
    /// `x · W + b` for each of `layers`, which all read the same `x`
    /// (q/k/v): an engine may quantize-pack `x` once for all of them.
    fn linears<const N: usize>(&mut self, x: &MatF32, layers: [(&str, &Linear); N]) -> [MatF32; N] {
        layers.map(|(name, lin)| self.node(name, |e| lin.forward(e, x)))
    }
    /// `gelu(x · W + b)` (fc1): an engine may apply bias and GELU in the
    /// GEMM's drain, as one node `"<name>+gelu"`.
    fn linear_gelu(&mut self, name: &str, lin: &Linear, x: &MatF32) -> MatF32 {
        composed_linear_gelu(self, name, lin, x)
    }
    /// `skip + (x · W + b)` (`wo`, `fc2`), in that operand order: an
    /// engine may fold both adds into the GEMM's drain.
    fn linear_residual(&mut self, name: &str, lin: &Linear, x: &MatF32, skip: &MatF32) -> MatF32 {
        self.node(name, |e| residual_add(skip, &lin.forward(e, x)))
    }
}

/// The default [`Engine::linear_gelu`]: the linear as node `name`, then the
/// engine's GELU as node `"gelu"`. A free function so an override can
/// replay it.
fn composed_linear_gelu<E: Engine>(e: &mut E, name: &str, lin: &Linear, x: &MatF32) -> MatF32 {
    let mut mid = e.node(name, |e| lin.forward(e, x));
    e.node("gelu", |e| e.gelu(&mut mid));
    mid
}

/// Elementwise residual add (memory-side, not an array operation).
fn residual_add(a: &MatF32, b: &MatF32) -> MatF32 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    MatF32::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) + b.get(i, j))
}

/// Pure f32/f64 reference engine (the "fp32 model as trained" baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct RefEngine;

impl Engine for RefEngine {
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
        a.matmul(b)
    }

    fn softmax_rows(&mut self, m: &mut MatF32) {
        reference::softmax_rows(m);
    }

    fn gelu(&mut self, m: &mut MatF32) {
        reference::gelu_rows(m);
    }

    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
        reference::layernorm_rows(m, gamma, beta, eps);
    }
}

/// Where [`MixedEngine`]'s GEMMs got their packed RHS. Weights are packed
/// once, by the [`Linear`] that owns them, and borrowed afterwards;
/// activation operands (the per-head attention GEMMs) are packed per call
/// and never looked up — an activation cannot repeat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// GEMMs whose RHS was served from a resident pack.
    pub hits: u64,
    /// GEMMs that quantize-packed their RHS.
    pub misses: u64,
    /// Bytes of the weight packs this engine filled (an engine that found
    /// every pack already resident reads 0).
    pub bytes: usize,
}

/// Wall-clock accumulated per execution phase by [`MixedEngine`], the
/// breakdown `benchmark/` reports (the paper's Table IV split, measured
/// on the host simulation). Residual adds and copies are not engine calls,
/// so the rest is derived by the caller as `wall − accounted()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// f32 → packed bfp8 quantization (every LHS, and each RHS not served
    /// from a resident pack).
    pub quantize_pack: Duration,
    /// Packed int8 GEMM kernel (including shard fork/join).
    pub gemm: Duration,
    /// Softmax rows on the VPU.
    pub softmax: Duration,
    /// Element-wise GELU on the VPU.
    pub gelu: Duration,
    /// LayerNorm rows on the VPU.
    pub layernorm: Duration,
}

impl PhaseTimes {
    /// Total time attributed to a phase (everything the engine saw).
    pub fn accounted(&self) -> Duration {
        self.quantize_pack + self.gemm + self.softmax + self.gelu + self.layernorm
    }

    /// Accumulate another breakdown.
    pub fn merge(&mut self, o: &PhaseTimes) {
        self.quantize_pack += o.quantize_pack;
        self.gemm += o.gemm;
        self.softmax += o.softmax;
        self.gelu += o.gelu;
        self.layernorm += o.layernorm;
    }
}

/// Minimum f32 elements per worker shard of a non-linear kernel, either
/// kernel family, so a kernel forks from twice this many elements up.
///
/// Measured on the 2-vCPU reference box against the pool
/// [`fork::join`] runs on (≈ 1 µs per fork): serial ÷ two-shard time,
/// median (q1–q3) of 200 (exact) or 1000–2000 (fast) interleaved pairs
/// by total elements; two runs give a range of medians. Exact kernels on
/// the lanes at GELU ≈ 30, softmax ≈ 25, LayerNorm ≈ 10–20 ns/elem; fast
/// at ≈ 2, 3 and 2:
///
/// | total | GELU | softmax (×197) | LayerNorm (×384) |
/// |---|---|---|---|
/// | exact 2 k | 1.75 (1.52–1.94) | 1.82 (1.65–1.96) | 1.00 (0.97–1.04) |
/// | exact 4 k | 1.93 (1.78–2.02) | 1.74 (1.59–1.79) | 1.38 (1.32–1.54) |
/// | exact 8 k | 1.91 (1.76–2.06) | 2.02 (1.76–2.11) | 1.35 (1.33–1.39) |
/// | exact 32 k | 2.03 (1.94–2.09) | 2.20 (2.12–2.22) | 1.76 (1.58–1.77) |
/// | exact DeiT | 2.03 (1.92–2.10) | 2.03 (1.91–2.16) | 1.64 (1.48–1.78) |
/// | fast 1 k | 0.74 (0.69–0.84) | 1.27 (1.21–1.33) | 0.67 (0.63–0.71) |
/// | fast 2 k | 0.80 (0.76–0.94) | 1.09 (1.03–1.19) | 1.15 (1.08–1.22) |
/// | fast 4 k | 1.19–1.46 (q1 ≥ 1.01) | 1.34–1.72 (q1 ≥ 1.14) | 1.17–1.28 (q1 ≥ 1.12) |
/// | fast 8 k | 1.34–1.46 (q1 ≥ 1.31) | 1.70–1.74 (q1 ≥ 1.63) | 1.47–1.48 (q1 ≥ 1.43) |
/// | fast 16 k | 1.31–1.42 | 1.32 | 1.41–1.48 |
/// | fast DeiT | 1.57 (1.40–1.73) | 1.66 (1.26–1.88) | 1.82 (1.49–2.06) |
///
/// (DeiT: GELU 197×1536, softmax 197×197, LayerNorm 197×384.) Both
/// families first win in every kernel, outside the spread, at 4 k total
/// elements — the exact LayerNorm of five rows is level at 2 k, the fast
/// GELU behind at 2 k — so one minimum, 2 k per shard, serves both. Every
/// attention softmax and every 197-row LayerNorm of DeiT-Small forks in
/// both modes; a single-row LayerNorm (384) never does, nor does a fused
/// drain tile (64). Hosts with more than two cores are unmeasured.
const VPU_PARALLEL_ELEMS: u64 = 2_048;

/// Where fp32 divisions and square roots execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivisionPolicy {
    /// The paper's prototype: ship them to the host CPU (§III-B).
    #[default]
    Host,
    /// The future-work extension: Newton–Raphson on the array — no host
    /// round-trips at all.
    OnChip,
}

/// The accelerator's execution model: GEMMs in bfp8 (quantize → int8 block
/// MatMul → aligned accumulate → dequantize), non-linear layers on the fp32
/// VPU kernels, with a full operation census. The engine holds no weights
/// and no packed form of one: a weight's pack lives in its [`Linear`] and
/// is borrowed per GEMM, so engines are cheap to build and any number of
/// them share one model's packs.
#[derive(Debug, Clone)]
pub struct MixedEngine {
    quantizer: Quantizer,
    vpu: Vpu,
    census: OpCensus,
    division: DivisionPolicy,
    /// Which nonlinear kernel family the VPU runs (exact oracle vs the
    /// fast LUT/polynomial unit with tested ULP envelopes).
    nonlinear: NonlinearMode,
    plan_stats: PlanCacheStats,
    /// Thread budget of the sharded GEMM and VPU kernels ([`fork::shards`]).
    /// Sharding is bit-invariant, so this trades wall-clock only.
    threads: usize,
    /// Compiled block plan; [`CompiledVitPlan::unfused`] (the default)
    /// leaves every block op on its composed default.
    vit_plan: CompiledVitPlan,
    /// GEMMs drained through a fused epilogue kernel under the plan.
    fusion_hits: u64,
    /// GEMMs the plan fuses that ran composed: a fused attempt failed
    /// (unpackable operand) and was replayed.
    fusion_misses: u64,
    /// Activation (LHS) quantize-packs attempted, and the f32 elements
    /// they read: what sharing a packed LHS saves, as a count.
    lhs_packs: u64,
    lhs_pack_elems: u64,
    phase: PhaseTimes,
    /// Attached span tracer; `None` until [`Self::attach_tracer`] is
    /// called, which keeps the block walk free of node clock reads and
    /// node-name strings.
    tracer: Option<Tracer>,
}

impl Default for MixedEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MixedEngine {
    /// Paper-configured engine (8×8 blocks, RNE quantization, host-side
    /// division).
    pub fn new() -> Self {
        MixedEngine {
            quantizer: Quantizer::paper(),
            vpu: Vpu::new(),
            census: OpCensus::default(),
            division: DivisionPolicy::Host,
            nonlinear: NonlinearMode::Exact,
            plan_stats: PlanCacheStats::default(),
            threads: fork::host_threads(),
            vit_plan: CompiledVitPlan::unfused(),
            fusion_hits: 0,
            fusion_misses: 0,
            lhs_packs: 0,
            lhs_pack_elems: 0,
            phase: PhaseTimes::default(),
            tracer: None,
        }
    }

    /// Attach a span tracer: subsequent engine calls emit phase and
    /// plan-node spans. Observation only — outputs and counts are
    /// unchanged; the counts themselves are [`Self::census`],
    /// [`Self::plan_cache_stats`] and [`Self::fusion_stats`].
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Record a completed VPU phase span (no-op unless a tracer is
    /// attached).
    #[inline]
    fn tel_phase(&self, name: &'static str, t0: Instant) {
        if let Some(tracer) = &self.tracer {
            tracer.complete_between(name, "engine", t0, Instant::now());
        }
    }

    /// The scalar baseline engine: single-threaded everywhere,
    /// every VPU multiply through the explicit partial-product enumeration
    /// ([`Vpu::via_partials`], which also keeps the VPU off the lanes).
    /// Bit-identical outputs to [`Self::new`].
    pub fn baseline_scalar() -> Self {
        MixedEngine {
            vpu: Vpu::via_partials(),
            threads: 1,
            ..Self::new()
        }
    }

    /// Set the thread budget for the sharded GEMM and VPU kernels
    /// (`0` is clamped to 1). Outputs are bit-identical for any value;
    /// the effective parallelism additionally never exceeds the host's
    /// core count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Select the nonlinear kernel family for subsequent VPU calls.
    /// [`NonlinearMode::Exact`] is bit-identical to the pre-knob engine;
    /// [`NonlinearMode::Fast`] trades a tested ULP envelope for the
    /// LUT/polynomial unit's throughput.
    pub fn with_nonlinear(mut self, mode: NonlinearMode) -> Self {
        self.nonlinear = mode;
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Return and reset the accumulated per-phase wall-clock breakdown.
    pub fn take_phase_times(&mut self) -> PhaseTimes {
        std::mem::take(&mut self.phase)
    }

    /// An engine with a custom quantizer (block-size ablations).
    pub fn with_quantizer(quantizer: Quantizer) -> Self {
        MixedEngine {
            quantizer,
            ..Self::new()
        }
    }

    /// The future-work configuration: every operation on the array,
    /// divisions included (Newton–Raphson kernels).
    pub fn host_free() -> Self {
        MixedEngine {
            division: DivisionPolicy::OnChip,
            ..Self::new()
        }
    }

    /// The census so far.
    pub fn census(&self) -> OpCensus {
        self.census
    }

    /// Return and reset the census.
    pub fn take_census(&mut self) -> OpCensus {
        std::mem::take(&mut self.census)
    }

    /// RHS resolution counters; see [`PlanCacheStats`].
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_stats
    }

    /// A weight's packed RHS under this engine's quantizer, from the
    /// layer that owns it — the one resolution every GEMM against a
    /// weight goes through, composed or fused. Counted on success
    /// only: a weight that cannot be packed sends its GEMM to a fallback.
    fn weight_pack<'l>(&mut self, lin: &'l Linear) -> Result<WeightPack<'l>, ArithError> {
        let pack = lin.packed_rhs(&self.quantizer)?;
        if let WeightPack::Filled(p) = &pack {
            self.plan_stats.bytes += p.bytes();
        }
        match &pack {
            WeightPack::Resident(_) => self.plan_stats.hits += 1,
            _ => self.plan_stats.misses += 1,
        }
        Ok(pack)
    }

    /// Shards of a packed GEMM of `macs` scalar MACs under this budget.
    fn gemm_shards(&self, macs: u64) -> usize {
        fork::shards(self.threads, macs, PARALLEL_MIN_SHARD_MACS)
    }

    /// The activation `m` quantize-packed as a GEMM's left operand, sharded
    /// by block-rows under this budget.
    fn quantize_pack_lhs(&self, m: &MatF32) -> Result<PackedBfp, ArithError> {
        let elems = (m.rows() * m.cols()) as u64;
        let shards = fork::shards(self.threads, elems, PACK_MIN_SHARD_ELEMS);
        PackedBfp::quantize_pack_lhs_parallel(&self.quantizer, m, shards)
    }

    /// Run a batched VPU kernel over `data` split into disjoint shards of
    /// whole `unit`-element groups (rows, or single elements for GELU),
    /// as many as [`fork::shards`] gives under this budget at
    /// [`VPU_PARALLEL_ELEMS`], through [`fork::join`]. Each shard gets a fresh
    /// VPU with the same datapath configuration; shards touch disjoint
    /// data, so outputs are bit-identical to the serial kernel for any
    /// shard count, and the per-shard [`OpCount`]s are merged in shard
    /// order — deterministic — into the returned delta.
    fn vpu_parallel(
        &mut self,
        data: &mut [f32],
        unit: usize,
        f: impl Fn(&mut Vpu, &mut [f32]) + Sync,
    ) -> OpCount {
        debug_assert!(unit > 0 && data.len().is_multiple_of(unit));
        let shards = fork::shards(self.threads, data.len() as u64, VPU_PARALLEL_ELEMS);
        let per = (data.len() / unit).div_ceil(shards) * unit;
        let mut workers: Vec<_> = data
            .chunks_mut(per.max(1))
            .map(|run| (self.vpu.fresh(), run))
            .collect();
        fork::join(&mut workers, |(vpu, run)| f(vpu, run));
        let mut total = OpCount::default();
        for (vpu, _) in &workers {
            total.merge(&vpu.count);
        }
        total
    }

    // ------------------------------------------------------------------
    // Compiled-plan execution: the fused kernels behind the block ops
    // (`linears`, `linear_gelu`, `linear_residual`) of the `Engine` impl.
    // ------------------------------------------------------------------

    /// Install a compiled block plan: under a fusing plan the block ops
    /// run the fused packed kernels. Outputs are bit-identical to the
    /// composed defaults (pinned by the tests below and by
    /// `bfp_arith::packed`); the plan trades wall-clock only.
    pub fn with_vit_plan(mut self, plan: CompiledVitPlan) -> Self {
        self.vit_plan = plan;
        self
    }

    /// Fusion routing counters as `(hits, misses)`: GEMMs drained through
    /// a fused epilogue kernel vs GEMMs the plan fuses that ran composed.
    /// A clean run under a fusing plan reads `(6 · blocks, 0)`; a
    /// plan-less engine `(0, 0)`.
    pub fn fusion_stats(&self) -> (u64, u64) {
        (self.fusion_hits, self.fusion_misses)
    }

    /// Activation quantize-pack counters as `(calls, f32 elements)`: every
    /// LHS operand the engine packed, on any path. Deterministic for a
    /// given model, plan and image count — timing-free evidence of what a
    /// shared packed LHS saves.
    pub fn lhs_pack_stats(&self) -> (u64, u64) {
        (self.lhs_packs, self.lhs_pack_elems)
    }

    #[inline]
    fn note_lhs_pack(&mut self, m: &MatF32) {
        self.lhs_packs += 1;
        self.lhs_pack_elems += (m.rows() * m.cols()) as u64;
    }

    /// Start timing a plan node: the clock is read only when a tracer is
    /// attached, so an unobserved forward takes no per-node clock reads.
    #[inline]
    fn node_clock(&self) -> Option<Instant> {
        self.tracer.is_some().then(Instant::now)
    }

    /// Close a plan node opened by [`Self::node_clock`] as a
    /// `plan.node.<name>` span. `name` is formatted only when there is a
    /// start time, i.e. only when a tracer is attached.
    #[inline]
    fn tel_node(&self, name: impl fmt::Display, t0: Option<Instant>) {
        if let (Some(tracer), Some(t0)) = (&self.tracer, t0) {
            tracer.complete_between(format!("plan.node.{name}"), "plan", t0, Instant::now());
        }
    }

    /// Record a GEMM's phase spans. Composed and fused GEMMs both report
    /// here, so a trace tells them apart only through the plan-node spans.
    #[inline]
    fn tel_gemm(&self, macs: u64, t0: Instant, t1: Instant, t2: Instant) {
        if let Some(tracer) = &self.tracer {
            tracer.complete_between("quantize_pack", "engine", t0, t1);
            tracer.complete_between_with("gemm", "engine", t1, t2, vec![("macs", macs)]);
        }
    }

    /// Quantize-pack an LHS operand, billing the time to the
    /// quantize_pack phase.
    fn pack_lhs_timed(&mut self, m: &MatF32) -> Result<PackedBfp, ArithError> {
        self.note_lhs_pack(m);
        let t0 = Instant::now();
        let r = self.quantize_pack_lhs(m);
        self.phase.quantize_pack += t0.elapsed();
        r
    }

    /// The composed GEMM both [`Engine::matmul`] and
    /// [`Engine::matmul_weight`] run: quantize-pack `a`, take `b` packed —
    /// from `weight`, the layer that owns `b`, when there is one; packed
    /// here, consulting nothing, when `b` is an activation — and run the
    /// (sharded) packed kernel. Bit-identical to `BfpMatrix::try_matmul`,
    /// so where the pack came from, fusing and threading change
    /// wall-clock only, never a single output bit.
    fn gemm(&mut self, a: &MatF32, b: &MatF32, weight: Option<&Linear>) -> MatF32 {
        let _mm_span = self.tracer.as_ref().map(|tracer| {
            let mut sp = tracer.span("engine.matmul", "engine");
            sp.set_arg("m", a.rows() as u64);
            sp.set_arg("k", a.cols() as u64);
            sp.set_arg("n", b.cols() as u64);
            sp
        });
        let macs = (a.rows() * a.cols() * b.cols()) as u64;
        let noop = |_: &mut [f32], _: &EpilogueCtx| {};
        let mut noops = vec![noop; self.gemm_shards(macs)];
        self.note_lhs_pack(a);
        let t0 = Instant::now();
        let packed = self.quantize_pack_lhs(a).and_then(|pa| {
            let pb = match weight {
                Some(lin) => self.weight_pack(lin)?,
                None => {
                    let pb = PackedBfp::quantize_pack_rhs(&self.quantizer, b)?;
                    self.plan_stats.misses += 1;
                    WeightPack::PerCall(pb)
                }
            };
            Ok((pa, pb))
        });
        let t1 = Instant::now();
        // A non-finite operand cannot be expressed in bfp8, and a
        // shape/side/block mismatch cannot run on the kernel: either way
        // this GEMM degrades to the fp32 reference path and is counted,
        // matching the scheduler's per-layer fallback policy — never a
        // panic of this layer's making.
        let out = packed.and_then(|(pa, pb)| pa.matmul_epilogue_parallel(pb.get(), &mut noops));
        let Ok(out) = out else {
            self.census.fp32_fallbacks += 1;
            if let Some(tracer) = &self.tracer {
                tracer.instant("engine.fp32_fallback", "engine");
            }
            return a.matmul(b);
        };
        // The gemm interval covers the packed kernel end to end: int8
        // MACs, aligned accumulate, and the dequantize epilogue.
        let t2 = Instant::now();
        self.phase.quantize_pack += t1.duration_since(t0);
        self.phase.gemm += t2.duration_since(t1);
        self.census.matmul_macs += macs;
        self.tel_gemm(macs, t0, t1, t2);
        out
    }

    /// One fused GEMM over an already-packed LHS: every hot output tile
    /// takes `drain` before it is written out, in exactly the element
    /// order of the composed `Linear::forward` (+ `residual_add` /
    /// `Engine::gelu`) sequence. The GELU drain runs per tile on a
    /// per-shard VPU; counts merge in shard order into the gelu census,
    /// matching the composed totals (GELU is element-independent, so tile
    /// order cannot change bits or counts).
    ///
    /// Accounting on success mirrors `Engine::matmul_weight`: resolving
    /// the weight's pack bills quantize_pack, the fused kernel bills gemm,
    /// MACs land in the census. On error no phase, MAC or fusion hit is
    /// recorded — the caller replays the composed oracle ops, which do
    /// their own accounting.
    fn fused_linear(
        &mut self,
        ph: &PackedBfp,
        lin: &Linear,
        drain: Drain,
    ) -> Result<MatF32, ArithError> {
        let macs = (ph.rows() * ph.cols() * lin.w().cols()) as u64;
        let (division, mode) = (self.division, self.nonlinear);
        let mut vpus: Vec<Vpu> = (0..self.gemm_shards(macs))
            .map(|_| self.vpu.fresh())
            .collect();
        let t0 = Instant::now();
        let pb = self.weight_pack(lin)?;
        let t1 = Instant::now();
        let bias = lin.b.as_slice();
        let mut epis: Vec<_> = vpus
            .iter_mut()
            .map(|vpu| {
                move |tile: &mut [f32], ctx: &EpilogueCtx| match drain {
                    Drain::Bias => bias_epi(tile, ctx, bias),
                    Drain::BiasResidual(skip) => bias_residual_epi(tile, ctx, bias, skip),
                    Drain::BiasGelu => {
                        bias_epi(tile, ctx, bias);
                        vpu.gelu_tile(tile, ctx, division, mode);
                    }
                }
            })
            .collect();
        let out = ph.matmul_epilogue_parallel(pb.get(), &mut epis)?;
        drop(epis);
        let t2 = Instant::now();
        // Only the GELU drain runs (and counts) on the shard VPUs.
        let mut delta = OpCount::default();
        for v in &vpus {
            delta.merge(&v.count);
        }
        self.census.gelu.merge(&delta);
        self.phase.quantize_pack += t1.duration_since(t0);
        self.phase.gemm += t2.duration_since(t1);
        self.census.matmul_macs += macs;
        self.fusion_hits += 1;
        self.tel_gemm(macs, t0, t1, t2);
        Ok(out)
    }

    /// The one fallback of the block ops. Without a fusing plan run
    /// `composed` and count nothing — the plan-less engine *is* the
    /// oracle. Under one run `fused`; on any error (an operand that cannot
    /// be packed) count a fusion miss and replay `composed`, whose own ops
    /// do the census and fp32-fallback accounting, so error behaviour
    /// matches the plan-less engine too.
    fn planned<T>(
        &mut self,
        fused: impl FnOnce(&mut Self) -> Result<T, ArithError>,
        composed: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.vit_plan.fuses() {
            return composed(self);
        }
        fused(self).unwrap_or_else(|_| {
            self.fusion_misses += 1;
            composed(self)
        })
    }
}

/// What a fused GEMM does to each hot output tile on its way out — the
/// `epilogue` of a planned `Gemm` op.
#[derive(Clone, Copy)]
enum Drain<'a> {
    /// `y + bias`.
    Bias,
    /// `skip + (y + bias)`.
    BiasResidual(&'a MatF32),
    /// `gelu(y + bias)` on the engine's nonlinear unit.
    BiasGelu,
}

/// Bias-add drain over one hot output tile: the element order of the
/// composed `Linear::forward` bias loop restricted to the tile.
#[inline]
fn bias_epi(tile: &mut [f32], ctx: &EpilogueCtx, bias: &[f32]) {
    let bias = &bias[ctx.c0..][..ctx.jmax];
    for i in 0..ctx.imax {
        for (v, b) in tile[i * ctx.b..][..ctx.jmax].iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Bias + residual drain: `skip + (y + bias)`, the exact operand order of
/// `Linear::forward` followed by `residual_add(skip, y)`.
#[inline]
fn bias_residual_epi(tile: &mut [f32], ctx: &EpilogueCtx, bias: &[f32], skip: &MatF32) {
    let bias = &bias[ctx.c0..][..ctx.jmax];
    for i in 0..ctx.imax {
        let row = &mut tile[i * ctx.b..][..ctx.jmax];
        let skip = &skip.row(ctx.r0 + i)[ctx.c0..][..ctx.jmax];
        for ((v, b), s) in row.iter_mut().zip(bias).zip(skip) {
            *v = s + (*v + b);
        }
    }
}

impl Engine for MixedEngine {
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.gemm(a, b, None)
    }

    fn matmul_weight(&mut self, x: &MatF32, lin: &Linear) -> MatF32 {
        self.gemm(x, lin.w(), Some(lin))
    }

    fn softmax_rows(&mut self, m: &mut MatF32) {
        let t0 = Instant::now();
        let cols = m.cols();
        if cols == 0 {
            return;
        }
        let division = self.division;
        let mode = self.nonlinear;
        let delta = self.vpu_parallel(m.data_mut(), cols, |vpu, shard| {
            vpu.softmax_rows_batch(shard, cols, division, mode)
        });
        self.census.softmax.merge(&delta);
        self.phase.softmax += t0.elapsed();
        self.tel_phase("vpu.softmax", t0);
    }

    fn gelu(&mut self, m: &mut MatF32) {
        let t0 = Instant::now();
        let division = self.division;
        let mode = self.nonlinear;
        let delta = self.vpu_parallel(m.data_mut(), 1, |vpu, shard| {
            vpu.gelu_slice(shard, division, mode)
        });
        self.census.gelu.merge(&delta);
        self.phase.gelu += t0.elapsed();
        self.tel_phase("vpu.gelu", t0);
    }

    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
        let t0 = Instant::now();
        let cols = m.cols();
        if cols == 0 {
            return;
        }
        let division = self.division;
        let mode = self.nonlinear;
        let delta = self.vpu_parallel(m.data_mut(), cols, |vpu, shard| {
            vpu.layernorm_rows_batch(shard, cols, gamma, beta, eps, division, mode)
        });
        self.census.layernorm.merge(&delta);
        self.phase.layernorm += t0.elapsed();
        self.tel_phase("vpu.layernorm", t0);
    }

    fn node<T>(&mut self, name: impl fmt::Display, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = self.node_clock();
        let out = f(self);
        self.tel_node(name, t);
        out
    }

    /// q/k/v under a plan: fused bias drains over one shared packed LHS
    /// (the CSE the planner finds on three MatMuls with an identical
    /// LayerNorm dep). The planner bills the group's pack to its first
    /// member, so `x` is packed inside the first layer's node.
    fn linears<const N: usize>(&mut self, x: &MatF32, layers: [(&str, &Linear); N]) -> [MatF32; N] {
        let mut shared = None;
        layers.map(|(name, lin)| {
            self.node(name, |e| {
                e.planned(
                    |e| match shared.get_or_insert_with(|| e.pack_lhs_timed(x)) {
                        Ok(px) => e.fused_linear(px, lin, Drain::Bias),
                        Err(err) => Err(err.clone()),
                    },
                    |e| lin.forward(e, x),
                )
            })
        })
    }

    /// fc1 under a plan drains bias+GELU to f32 and fc2 packs that with
    /// the lane quantiser: the host runs the planner's `BiasGeluRequant`
    /// edge as drain → quantize-pack (the planner prices the paper's
    /// on-chip converter; on the host the f32 round trip costs level).
    /// Only a drain that succeeded is reported as `"<name>+gelu"`.
    fn linear_gelu(&mut self, name: &str, lin: &Linear, x: &MatF32) -> MatF32 {
        self.planned(
            |e| {
                let t = e.node_clock();
                let px = e.pack_lhs_timed(x)?;
                let mid = e.fused_linear(&px, lin, Drain::BiasGelu)?;
                e.tel_node(format_args!("{name}+gelu"), t);
                Ok(mid)
            },
            |e| composed_linear_gelu(e, name, lin, x),
        )
    }

    fn linear_residual(&mut self, name: &str, lin: &Linear, x: &MatF32, skip: &MatF32) -> MatF32 {
        self.node(name, |e| {
            e.planned(
                |e| {
                    let px = e.pack_lhs_timed(x)?;
                    e.fused_linear(&px, lin, Drain::BiasResidual(skip))
                },
                |e| residual_add(skip, &lin.forward(e, x)),
            )
        })
    }
}

/// The comparison baseline: GEMMs in **per-tensor symmetric int8** (what
/// the Fig. 6 int8 design variant computes) with reference-precision
/// non-linear layers. Exists so model-level experiments can quantify the
/// accuracy cost of per-tensor scaling against bfp8's per-block exponents
/// — the paper's motivation for choosing block floating point.
#[derive(Debug, Default, Clone)]
pub struct Int8Engine {
    macs: u64,
    fallbacks: u64,
}

impl Int8Engine {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// int8 MACs executed so far.
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// GEMMs degraded to the fp32 reference path (non-finite operands).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl Engine for Int8Engine {
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
        match (Int8Tensor::quantize(a), Int8Tensor::quantize(b)) {
            (Ok(qa), Ok(qb)) => {
                self.macs += (a.rows() * a.cols() * b.cols()) as u64;
                qa.matmul(&qb)
            }
            _ => {
                self.fallbacks += 1;
                a.matmul(b)
            }
        }
    }

    fn softmax_rows(&mut self, m: &mut MatF32) {
        reference::softmax_rows(m);
    }

    fn gelu(&mut self, m: &mut MatF32) {
        reference::gelu_rows(m);
    }

    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
        reference::layernorm_rows(m, gamma, beta, eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use crate::deit::{DeitConfig, DeitModel, Image};
    use crate::vpu::cost;
    use crate::VitModel;
    use bfp_arith::stats::ErrorStats;
    use bfp_telemetry::EventKind;
    use std::collections::HashMap;

    fn bits_eq(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Attach a fresh tracer to `e`.
    fn attach(e: &mut MixedEngine) -> Tracer {
        let tracer = Tracer::new();
        e.attach_tracer(tracer.clone());
        tracer
    }

    /// Drain `tracer` and fold its `plan.node.<key>` spans per key into
    /// `(executions, total ns)`.
    fn node_spans(tracer: &Tracer) -> HashMap<String, (u64, u64)> {
        let mut out: HashMap<String, (u64, u64)> = HashMap::new();
        for ev in tracer.drain() {
            if let (Some(key), EventKind::Span { dur_ns }) =
                (ev.name.strip_prefix("plan.node."), ev.kind)
            {
                let t = out.entry(key.to_string()).or_default();
                t.0 += 1;
                t.1 += dur_ns;
            }
        }
        out
    }

    /// A [`MixedEngine`] that keeps the trait's default `matmul_weight`,
    /// so every weight GEMM runs `Engine::matmul(x, lin.w())`: both
    /// operands packed per call, no layer's pack consulted or filled.
    struct PerCall(MixedEngine);

    impl Engine for PerCall {
        fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
            self.0.matmul(a, b)
        }
        fn softmax_rows(&mut self, m: &mut MatF32) {
            self.0.softmax_rows(m)
        }
        fn gelu(&mut self, m: &mut MatF32) {
            self.0.gelu(m)
        }
        fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
            self.0.layernorm(m, gamma, beta, eps)
        }
    }

    #[test]
    fn mixed_matmul_tracks_reference() {
        let a = MatF32::from_fn(16, 24, |i, j| ((i * 5 + j) as f32 * 0.11).sin());
        let b = MatF32::from_fn(24, 8, |i, j| ((i + j * 7) as f32 * 0.07).cos());
        let mut mixed = MixedEngine::new();
        let mut reference = RefEngine;
        let got = mixed.matmul(&a, &b);
        let want = reference.matmul(&a, &b);
        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        assert!(s.sqnr_db() > 28.0, "{s}");
        assert_eq!(mixed.census().matmul_macs, 16 * 24 * 8);
    }

    #[test]
    fn census_attribution_per_kind() {
        let mut e = MixedEngine::new();
        let mut m = MatF32::from_fn(3, 5, |i, j| (i as f32) - (j as f32) * 0.5);
        e.softmax_rows(&mut m);
        let c = e.census();
        assert_eq!(c.softmax, {
            let mut want = OpCount::default();
            for _ in 0..3 {
                want.merge(&cost::softmax_row(5));
            }
            want
        });
        assert_eq!(c.gelu, OpCount::default());
        assert_eq!(c.layernorm, OpCount::default());

        let mut g = MatF32::from_fn(2, 4, |i, j| (i + j) as f32 * 0.3 - 1.0);
        e.gelu(&mut g);
        let c = e.census();
        let mut want = OpCount::default();
        for _ in 0..8 {
            want.merge(&cost::gelu());
        }
        assert_eq!(c.gelu, want);
    }

    #[test]
    fn mixed_nonlinear_tracks_reference() {
        let src = MatF32::from_fn(4, 32, |i, j| ((i * 32 + j) as f32 * 0.1).sin() * 2.0);
        let mut a = src.clone();
        let mut b = src.clone();
        let mut mixed = MixedEngine::new();
        let mut rf = RefEngine;
        mixed.softmax_rows(&mut a);
        rf.softmax_rows(&mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn fp32_fraction_is_small_for_gemm_heavy_workloads() {
        let mut e = MixedEngine::new();
        let a = MatF32::from_fn(64, 64, |i, j| ((i ^ j) as f32) * 0.01);
        let _ = e.matmul(&a, &a);
        let mut m = MatF32::from_fn(4, 16, |_, j| j as f32 * 0.2);
        e.softmax_rows(&mut m);
        let frac = e.census().fp32_fraction();
        assert!(frac > 0.0 && frac < 0.01, "fp32 fraction {frac}");
    }

    #[test]
    fn take_census_resets() {
        let mut e = MixedEngine::new();
        let a = MatF32::from_fn(8, 8, |_, _| 1.0);
        let _ = e.matmul(&a, &a);
        assert!(e.take_census().matmul_macs > 0);
        assert_eq!(e.census(), OpCensus::default());
    }

    #[test]
    fn host_free_engine_uses_no_host_ops_and_tracks_fp32() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 19);
        let x = model.synthetic_input(4);
        let want = model.forward(&mut RefEngine, &x);

        let mut chip = MixedEngine::host_free();
        let got = model.forward(&mut chip, &x);
        let census = chip.take_census();
        assert_eq!(census.host_ops(), 0, "host-free engine must never call out");

        let mut s = ErrorStats::new();
        s.push_slices(got.data(), want.data());
        assert!(s.sqnr_db() > 15.0, "host-free fidelity: {s}");

        // And it stays numerically close to the host-division engine.
        let host_out = model.forward(&mut MixedEngine::new(), &x);
        let mut d = ErrorStats::new();
        d.push_slices(got.data(), host_out.data());
        assert!(d.sqnr_db() > 40.0, "NR kernels track host division: {d}");
    }

    #[test]
    fn non_finite_gemm_degrades_to_fp32_and_is_counted() {
        let mut e = MixedEngine::new();
        let mut a = MatF32::from_fn(8, 8, |i, j| (i + j) as f32 * 0.1);
        a.set(2, 5, f32::INFINITY);
        let b = MatF32::from_fn(8, 8, |i, j| (i as f32 - j as f32) * 0.2);
        // NaN != NaN, so compare the fp32 results bit-for-bit.
        let got = e.matmul(&a, &b);
        // Falls back to the reference fp32 path instead of panicking…
        assert!(bits_eq(got.data(), a.matmul(&b).data()));
        // …and the census records the degradation, with no bfp8 MACs.
        assert_eq!(e.census().fp32_fallbacks, 1);
        assert_eq!(e.census().matmul_macs, 0);

        let mut i8e = Int8Engine::new();
        let got = i8e.matmul(&a, &b);
        assert!(bits_eq(got.data(), a.matmul(&b).data()));
        assert_eq!(i8e.fallbacks(), 1);
        assert_eq!(i8e.macs(), 0);
    }

    #[test]
    fn int8_engine_runs_and_counts() {
        let mut e = Int8Engine::new();
        let a = MatF32::from_fn(8, 8, |i, j| (i + j) as f32 * 0.1);
        let out = e.matmul(&a, &a);
        assert_eq!(e.macs(), 512);
        assert_eq!((out.rows(), out.cols()), (8, 8));
    }

    #[test]
    fn bfp8_beats_int8_on_outlier_models() {
        // Model-level version of the motivation experiment: inject hot
        // channels into the activations via large weight columns; the
        // bfp8 engine tracks fp32 better than per-tensor int8.
        let model = {
            let mut m = VitModel::new_random(VitConfig::tiny_test(), 13);
            // Make a few fc1 output channels hot: downstream activations
            // develop the outlier pattern real Transformers show.
            for blk in &mut m.blocks {
                let w = blk.fc1.w_mut();
                for i in 0..w.rows() {
                    for j in (0..w.cols()).step_by(17) {
                        w.set(i, j, w.get(i, j) * 24.0);
                    }
                }
            }
            m
        };
        let x = model.synthetic_input(3);
        let want = model.forward(&mut RefEngine, &x);
        let bfp = model.forward(&mut MixedEngine::new(), &x);
        let int8 = model.forward(&mut Int8Engine::new(), &x);
        let sqnr = |got: &MatF32| {
            let mut s = ErrorStats::new();
            s.push_slices(got.data(), want.data());
            s.sqnr_db()
        };
        let (sb, si) = (sqnr(&bfp), sqnr(&int8));
        assert!(
            sb > si,
            "bfp8 {sb:.1} dB must beat per-tensor int8 {si:.1} dB"
        );
    }

    #[test]
    fn cached_and_uncached_engines_are_bit_identical() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 29);
        let x = model.synthetic_input(5);

        let mut cached = MixedEngine::new();
        let mut uncached = PerCall(MixedEngine::new());
        // The first pass fills the model's packs, the second borrows
        // them, the per-call engine never sees one; all three outputs
        // must agree bit-for-bit.
        let first = model.forward(&mut cached, &x);
        let warm = model.forward(&mut cached, &x);
        let cold = model.forward(&mut uncached, &x);
        let stats = cached.plan_cache_stats();
        assert!(
            stats.hits > 0,
            "second pass must borrow the packs: {stats:?}"
        );
        assert_eq!(uncached.0.plan_cache_stats().hits, 0);
        assert!(bits_eq(first.data(), warm.data()));
        assert!(bits_eq(first.data(), cold.data()));
    }

    #[test]
    fn engine_matmul_is_bit_identical_to_naive_kernel() {
        let q = Quantizer::paper();
        let a = MatF32::from_fn(21, 19, |i, j| ((i * 3 + j * 5) as f32 * 0.17).sin() * 40.0);
        let b = MatF32::from_fn(19, 11, |i, j| ((i as f32 - j as f32) * 0.23).cos() * 0.02);
        let want = q.quantize(&a).unwrap().matmul(&q.quantize(&b).unwrap());
        let mut e = MixedEngine::new();
        for _ in 0..2 {
            let got = e.matmul(&a, &b);
            for (x, y) in got.data().iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // `matmul` is the activation × activation GEMM: it packs both
        // operands every call and looks nothing up.
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.bytes), (0, 2, 0));
    }

    #[test]
    fn attached_telemetry_records_spans_and_counters() {
        let mut e = MixedEngine::new();
        let tracer = attach(&mut e);
        let lin = &VitModel::new_random(VitConfig::tiny_test(), 3).blocks[0]
            .attn
            .wk;
        let a = MatF32::from_fn(16, 32, |i, j| ((i * 32 + j) as f32 * 0.01).sin());
        let _ = e.matmul_weight(&a, lin); // fills the layer's pack
        let _ = e.matmul_weight(&a, lin); // borrows it
        let mut m = MatF32::from_fn(4, 16, |i, j| (i + j) as f32 * 0.1);
        e.softmax_rows(&mut m);

        // The counts live in the engine's own census and cache stats.
        assert_eq!(e.census().matmul_macs, 2 * 16 * 32 * 32);
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        let events = tracer.drain();
        let matmuls: Vec<_> = events
            .iter()
            .filter(|e| e.name == "engine.matmul")
            .collect();
        assert_eq!(matmuls.len(), 2);
        let gemms = events.iter().filter(|e| e.name == "gemm").count();
        assert_eq!(gemms, 2);
        // Phase spans are children of their matmul span.
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.name == "quantize_pack" || e.name == "gemm")
            .collect();
        assert_eq!(phases.len(), 4);
        for p in &phases {
            let parent = p.parent.expect("phase has a parent");
            assert!(matmuls.iter().any(|m| m.id == parent));
            assert!(matches!(p.kind, EventKind::Span { .. }));
        }
        assert!(events.iter().any(|e| e.name == "vpu.softmax"));
    }

    #[test]
    fn shape_mismatched_matmul_falls_back_instead_of_engine_panicking() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Inner dimensions disagree: the packed kernel reports a typed
        // error. The engine must degrade to the counted fp32 fallback —
        // not panic with its own "matmul: …" message as it used to — so
        // the failure surface is exactly the one RefEngine has (the f32
        // matmul's own assertion).
        let a = MatF32::from_fn(8, 16, |i, j| (i + j) as f32 * 0.1);
        let b = MatF32::from_fn(24, 8, |i, j| (i as f32 - j as f32) * 0.2);
        let mut e = MixedEngine::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = e.matmul(&a, &b);
        }))
        .expect_err("inner-dimension mismatch still fails, via the fp32 path");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap_or(&"?").to_string());
        assert!(
            msg.contains("matmul inner dimensions"),
            "must be the f32 matmul's own panic, not the engine's: {msg}"
        );
        // The degradation was recorded before the fp32 path ran.
        assert_eq!(e.census().fp32_fallbacks, 1);
        assert_eq!(e.census().matmul_macs, 0);
        // And the engine stays usable afterwards.
        let ok = MatF32::from_fn(16, 8, |i, j| (i * 8 + j) as f32 * 0.01);
        let _ = e.matmul(&a, &ok);
        assert_eq!(e.census().matmul_macs, (8 * 16 * 8) as u64);
    }

    #[test]
    fn threaded_engines_are_bit_identical_to_serial() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 31);
        let x = model.synthetic_input(6);
        let want = model.forward(&mut MixedEngine::new().with_threads(1), &x);
        for threads in [2usize, 3, 8] {
            let mut e = MixedEngine::new().with_threads(threads);
            let got = model.forward(&mut e, &x);
            for (p, q) in got.data().iter().zip(want.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn baseline_scalar_engine_is_bit_identical_and_serial() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 37);
        let x = model.synthetic_input(4);
        let mut base = MixedEngine::baseline_scalar();
        assert_eq!(base.threads(), 1);
        let want = model.forward(&mut MixedEngine::new(), &x);
        let got = model.forward(&mut base, &x);
        for (p, q) in got.data().iter().zip(want.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn parallel_census_matches_serial_census() {
        // OpCounts are merged from per-shard VPUs in shard order; the
        // totals must agree exactly with the single-thread counts even
        // when the batch is large enough to actually fork.
        let n = 192; // 36 864 elements: many shards of VPU_PARALLEL_ELEMS
        assert!((n * n) as u64 >= 2 * VPU_PARALLEL_ELEMS);
        let src = MatF32::from_fn(n, n, |i, j| ((i * n + j) as f32 * 0.003).sin() * 3.0);
        let gamma = vec![1.0f32; n];
        let beta = vec![0.1f32; n];
        let run = |threads: usize| -> (OpCensus, MatF32) {
            let mut e = MixedEngine::new().with_threads(threads);
            let mut m = src.clone();
            e.softmax_rows(&mut m);
            e.gelu(&mut m);
            e.layernorm(&mut m, &gamma, &beta, 1e-6);
            (e.take_census(), m)
        };
        let (c1, m1) = run(1);
        let (c4, m4) = run(4);
        assert_eq!(c1, c4);
        for (p, q) in m1.data().iter().zip(m4.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn forked_gemms_and_fused_drains_match_one_thread() {
        // 40·512·1024 ≈ 21 M MACs is over two shards of
        // PARALLEL_MIN_SHARD_MACS, so a two-thread budget forks the
        // composed GEMM and both fused drains; the GELU drain's per-shard
        // VPU counts must all merge.
        use rand::{rngs::StdRng, SeedableRng};
        let lin = Linear::new_random(512, 1024, &mut StdRng::seed_from_u64(53));
        let x = MatF32::from_fn(40, 512, |i, j| ((i * 512 + j) as f32 * 0.013).sin() * 2.0);
        let skip = MatF32::from_fn(40, 1024, |i, j| ((i + 3 * j) as f32 * 0.007).cos());
        let macs = 40 * 512 * 1024;
        assert_eq!(
            fork::shards(2, macs, PARALLEL_MIN_SHARD_MACS),
            2.min(fork::host_threads())
        );
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let run = |threads| {
                let mut e = MixedEngine::new()
                    .with_threads(threads)
                    .with_nonlinear(mode)
                    .with_vit_plan(CompiledVitPlan::fuse_all());
                let outs = [
                    e.matmul_weight(&x, &lin),
                    e.linear_gelu("fc1", &lin, &x),
                    e.linear_residual("fc2", &lin, &x, &skip),
                ];
                (outs, e.census(), e.fusion_stats())
            };
            let (want, want_census, want_fusion) = run(1);
            let (got, census, fusion) = run(2);
            for (g, w) in got.iter().zip(&want) {
                assert!(bits_eq(g.data(), w.data()), "{mode:?}");
            }
            assert!(want_census.gelu.flops() > 0, "{mode:?}");
            assert_eq!(census, want_census, "{mode:?}");
            assert_eq!((fusion, want_fusion), ((2, 0), (2, 0)), "{mode:?}");
        }
    }

    #[test]
    fn threaded_engines_fork_deit_attention_and_norm_ops_bit_exactly() {
        // DeiT-Small's shapes for every op class the shard minimums fork
        // at budget 2: a head's Q·Kᵀ and P·V GEMMs (and their LHS packs),
        // the attention softmax, the LayerNorm, and a projection's shared
        // packed LHS under a fusing plan. Bits and every count must be
        // the one-thread engine's.
        use rand::{rngs::StdRng, SeedableRng};
        let two = 2.min(fork::host_threads());
        let forks = |work: usize, min: u64| fork::shards(2, work as u64, min) == two;
        let (seq, dim, head) = (197, 384, 64);
        assert!(forks(seq * head * seq, PARALLEL_MIN_SHARD_MACS), "Q·Kᵀ");
        assert!(forks(seq * seq * head, PARALLEL_MIN_SHARD_MACS), "P·V");
        assert!(forks(seq * head, PACK_MIN_SHARD_ELEMS), "Q pack");
        assert!(forks(seq * seq, PACK_MIN_SHARD_ELEMS), "P pack");
        assert!(forks(seq * dim, PACK_MIN_SHARD_ELEMS), "x pack");
        assert!(forks(seq * seq, VPU_PARALLEL_ELEMS), "softmax");
        assert!(forks(seq * dim, VPU_PARALLEL_ELEMS), "LayerNorm");

        let wave = |r: usize, c: usize, f: f32| {
            MatF32::from_fn(r, c, |i, j| ((i * c + j) as f32 * f).sin() * 2.0)
        };
        let (q, k, v) = (
            wave(seq, head, 0.011),
            wave(head, seq, 0.017),
            wave(seq, head, 0.023),
        );
        let x = wave(seq, dim, 0.005);
        let lin = Linear::new_random(dim, dim, &mut StdRng::seed_from_u64(71));
        let (gamma, beta) = (vec![1.25f32; dim], vec![-0.5f32; dim]);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let run = |threads| {
                let mut e = MixedEngine::new()
                    .with_threads(threads)
                    .with_nonlinear(mode)
                    .with_vit_plan(CompiledVitPlan::fuse_all());
                let mut p = e.matmul(&q, &k);
                e.softmax_rows(&mut p);
                let ctx = e.matmul(&p, &v);
                let mut h = e.linear_residual("proj", &lin, &x, &x);
                e.layernorm(&mut h, &gamma, &beta, 1e-6);
                let books = (e.census(), e.fusion_stats(), e.lhs_pack_stats());
                ([p, ctx, h], books)
            };
            let (want, want_books) = run(1);
            let (got, books) = run(2);
            for (g, w) in got.iter().zip(&want) {
                assert!(bits_eq(g.data(), w.data()), "{mode:?}");
            }
            assert_eq!(books, want_books, "{mode:?}");
            assert_eq!(want_books.1, (1, 0), "{mode:?}");
            assert_eq!(
                want_books.2,
                (3, (seq * head + seq * seq + seq * dim) as u64)
            );
        }
    }

    #[test]
    fn phase_times_cover_the_engine_calls() {
        let mut e = MixedEngine::new();
        let a = MatF32::from_fn(32, 32, |i, j| ((i ^ j) as f32) * 0.02);
        let _ = e.matmul(&a, &a);
        let mut m = MatF32::from_fn(8, 32, |i, j| (i + j) as f32 * 0.05);
        e.softmax_rows(&mut m);
        e.gelu(&mut m);
        let gamma = vec![1.0f32; 32];
        let beta = vec![0.0f32; 32];
        e.layernorm(&mut m, &gamma, &beta, 1e-6);
        let t = e.take_phase_times();
        assert!(t.softmax > Duration::ZERO);
        assert!(t.gelu > Duration::ZERO);
        assert!(t.layernorm > Duration::ZERO);
        assert!(t.accounted() >= t.softmax + t.gemm);
        // take_phase_times resets.
        assert_eq!(e.take_phase_times(), PhaseTimes::default());
    }

    #[test]
    fn compiled_plan_is_bit_identical_to_hand_wired_for_full_model() {
        // The tentpole invariant: routing `Block::forward` through the
        // compiled plan (shared q/k/v pack, fused bias / bias+GELU /
        // bias+residual drains) changes
        // wall-clock only — never an output bit, never a census count —
        // for either nonlinear family, any thread budget, and both the
        // all-on and all-off plans. Attaching a tracer only observes.
        let model = VitModel::new_random(VitConfig::tiny_test(), 11);
        let x = model.synthetic_input(12);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let mut oracle = MixedEngine::new().with_threads(1).with_nonlinear(mode);
            let want = model.forward(&mut oracle, &x);
            let want_census = oracle.census();
            for plan in [CompiledVitPlan::fuse_all(), CompiledVitPlan::unfused()] {
                let engine = |threads| {
                    MixedEngine::new()
                        .with_threads(threads)
                        .with_nonlinear(mode)
                        .with_vit_plan(plan)
                };
                for threads in [1usize, 2, 4] {
                    let mut e = engine(threads);
                    let got = model.forward(&mut e, &x);
                    for (p, q) in got.data().iter().zip(want.data()) {
                        assert_eq!(
                            p.to_bits(),
                            q.to_bits(),
                            "mode {mode:?} threads {threads} plan {plan:?}"
                        );
                    }
                    assert_eq!(
                        e.census(),
                        want_census,
                        "census must not see the plan: mode {mode:?} threads {threads} plan {plan:?}"
                    );
                }
                // A traced engine and its untraced twin: equal bits, equal
                // books, and the tracer did record.
                let (mut quiet, mut traced) = (engine(2), engine(2));
                let tracer = attach(&mut traced);
                let q = model.forward(&mut quiet, &x);
                let t = model.forward(&mut traced, &x);
                assert!(bits_eq(t.data(), q.data()), "mode {mode:?} plan {plan:?}");
                let books = |e: &MixedEngine| {
                    (
                        e.census(),
                        e.fusion_stats(),
                        e.plan_cache_stats(),
                        e.lhs_pack_stats(),
                    )
                };
                assert_eq!(books(&traced), books(&quiet), "mode {mode:?} plan {plan:?}");
                assert!(!tracer.drain().is_empty());
            }
        }
    }

    #[test]
    fn node_timing_accumulates_only_when_enabled() {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 31);
        let x = model.synthetic_input(5);

        // Unattached: the compiled path reads no node clock (so it names
        // no node either).
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        assert!(e.node_clock().is_none());
        let _ = model.forward(&mut e, &x);

        let tracer = attach(&mut e);
        assert!(e.node_clock().is_some());
        let _ = model.forward(&mut e, &x);
        let times = node_spans(&tracer);
        // Exactly the names `bfp_core::attribute_plan_drift` prices: eight
        // per block plus three per head, each once per block run. The
        // fused plan never runs a standalone `fc1` or `gelu` node.
        let mut want: Vec<String> = ["ln1", "wq", "wk", "wv", "wo", "ln2", "fc1+gelu", "fc2"]
            .map(String::from)
            .to_vec();
        for h in 0..cfg.heads {
            want.extend(["scores", "softmax", "ctx"].map(|op| format!("h{h}.{op}")));
        }
        assert_eq!(want.len(), 8 + 3 * cfg.heads);
        want.sort();
        let mut got: Vec<String> = times.keys().cloned().collect();
        got.sort();
        assert_eq!(got, want);
        for (key, &(samples, ns)) in &times {
            assert_eq!(samples, cfg.depth as u64, "{key}");
            assert!(ns > 0, "{key}");
        }
        // Draining the tracer leaves the engine observed.
        let _ = model.forward(&mut e, &x);
        assert!(!node_spans(&tracer).is_empty());

        // The one walk times every engine: plan-less, the same names with
        // `fc1` and `gelu` as nodes of their own.
        let mut planless = MixedEngine::new();
        let tracer = attach(&mut planless);
        let _ = model.forward(&mut planless, &x);
        let times = node_spans(&tracer);
        let mut got: Vec<String> = times.keys().cloned().collect();
        got.sort();
        want.retain(|n| n != "fc1+gelu");
        want.extend(["fc1", "gelu"].map(String::from));
        want.sort();
        assert_eq!(want.len(), 9 + 3 * cfg.heads);
        assert_eq!(got, want);
        assert!(times.values().all(|t| t.0 == cfg.depth as u64));
    }

    #[test]
    fn fusion_counters_split_hits_and_misses_per_plan() {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 23);
        let x = model.synthetic_input(3);
        let blocks = cfg.depth as u64;
        let hits = CompiledVitPlan::fuse_all().fused_gemms_per_block() * blocks;

        // Fusion and RHS-pack counters of one forward; sharding must move
        // neither, so every thread count books the one-thread numbers. The
        // warm-up fills the model's weight packs, so every counted forward
        // finds them resident.
        let _ = model.forward(&mut MixedEngine::new(), &x);
        let counts = |e: MixedEngine, mode, threads| {
            let mut e = e.with_nonlinear(mode).with_threads(threads);
            let _ = model.forward(&mut e, &x);
            let rhs = e.plan_cache_stats();
            (e.fusion_stats(), (rhs.hits, rhs.misses))
        };
        let engines: [fn() -> MixedEngine; 3] = [
            || MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all()),
            || MixedEngine::new().with_vit_plan(CompiledVitPlan::unfused()),
            MixedEngine::new,
        ];
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let [fused, unfused, planless] =
                engines.map(|engine| [1usize, 2].map(|threads| counts(engine(), mode, threads)));
            for row in [&fused, &unfused, &planless] {
                assert_eq!(row[0], row[1], "{mode:?}: sharding moved a counter");
            }
            // A miss is a GEMM the plan fuses that ran composed: a clean
            // run has none. The per-head GEMMs, which no plan fuses, count
            // nowhere.
            assert_eq!(fused[0].0, (hits, 0), "{mode:?}");
            // An unfused plan is exactly a plan-less engine.
            assert_eq!(unfused[0], planless[0], "{mode:?}");
            assert_eq!(planless[0].0, (0, 0), "{mode:?}");
        }
    }

    #[test]
    fn shared_qkv_pack_saves_exactly_two_lhs_packs_per_block() {
        // The deterministic twin of the old pack-time A/B: an unfused
        // plan packs exactly what the plan-less engine packs, and
        // `fuse_all` packs `2·seq·dim` fewer elements in two fewer calls
        // per block — nothing else differs.
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 43);
        let x = model.synthetic_input(8);
        let (depth, tile) = (cfg.depth as u64, (cfg.seq * cfg.dim) as u64);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            for threads in [1usize, 2] {
                let packs = |e: MixedEngine| {
                    let mut e = e.with_threads(threads).with_nonlinear(mode);
                    let _ = model.forward(&mut e, &x);
                    e.lhs_pack_stats()
                };
                let planless = packs(MixedEngine::new());
                // Per block: q, k, v, wo, fc1, fc2 and two per head.
                assert_eq!(planless.0, (6 + 2 * cfg.heads as u64) * depth);
                let planned = |plan| packs(MixedEngine::new().with_vit_plan(plan));
                assert_eq!(planned(CompiledVitPlan::unfused()), planless);
                let fused = planned(CompiledVitPlan::fuse_all());
                assert_eq!(
                    (planless.0 - fused.0, planless.1 - fused.1),
                    (2 * depth, 2 * tile * depth),
                    "{mode:?} {threads}t"
                );
            }
        }
    }

    #[test]
    fn compiled_plan_handles_extreme_scales_bit_identically() {
        // Satellite property: fused drains agree with the composed oracle
        // under subnormal-range activations and near-overflow weights —
        // the regimes where a quantize/requant shortcut would first drift.
        for (wscale, xscale) in [(1.0e3f32, 1.0f32), (1.0f32, 1.0e-38f32), (64.0, 1.0e-20)] {
            let mut model = VitModel::new_random(VitConfig::tiny_test(), 41);
            for blk in &mut model.blocks {
                for v in blk.fc1.w_mut().data_mut() {
                    *v *= wscale;
                }
            }
            let mut x = model.synthetic_input(5);
            for v in x.data_mut() {
                *v *= xscale;
            }
            for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
                let mut oracle = MixedEngine::new().with_nonlinear(mode);
                let want = model.forward(&mut oracle, &x);
                let mut e = MixedEngine::new()
                    .with_nonlinear(mode)
                    .with_threads(2)
                    .with_vit_plan(CompiledVitPlan::fuse_all());
                let got = model.forward(&mut e, &x);
                for (p, q) in got.data().iter().zip(want.data()) {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "wscale {wscale:e} xscale {xscale:e} mode {mode:?}"
                    );
                }
                assert_eq!(e.census(), oracle.census());
            }
        }
    }

    #[test]
    fn compiled_plan_matches_hand_wired_on_nonfinite_fallbacks() {
        // Every replay arm of `planned`, bit-equal to the plan-less engine
        // with equal books. A non-finite weight makes every GEMM against
        // it unquantizable: the planned ops must replay the same counted
        // fp32 fallbacks and produce the same bits as the composed ones.
        let clean = VitModel::new_random(VitConfig::tiny_test(), 17);
        let mut model = clean.clone();
        model.blocks[0].fc2.w_mut().set(0, 0, f32::INFINITY);
        let x = model.synthetic_input(9);
        let mut oracle = MixedEngine::new();
        let want = model.forward(&mut oracle, &x);
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let got = model.forward(&mut e, &x);
        for (p, q) in got.data().iter().zip(want.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        let (oc, pc) = (oracle.census(), e.census());
        assert!(oc.fp32_fallbacks > 0, "the poisoned weight must fall back");
        assert_eq!(pc, oc, "fallback accounting must match the oracle");
        // The pack error was returned, not stored: a second forward falls
        // back exactly as often, and the weight repaired through `w_mut`
        // gives the clean model's bits with no fallback at all.
        let _ = model.forward(&mut e, &x);
        assert_eq!(e.census().fp32_fallbacks, 2 * oc.fp32_fallbacks);
        let v = clean.blocks[0].fc2.w().get(0, 0);
        model.blocks[0].fc2.w_mut().set(0, 0, v);
        let (mut e, mut fresh) = (e, MixedEngine::new());
        e.take_census();
        assert!(bits_eq(
            model.forward(&mut e, &x).data(),
            clean.forward(&mut fresh, &x).data()
        ));
        assert_eq!(e.census(), fresh.census());
        assert_eq!(e.census().fp32_fallbacks, 0);

        // A non-finite fc1 bias: fc1 itself quantizes, its fused bias+GELU
        // drain hits, and the poisoned column makes the intermediate
        // unpackable — fc2 replays composed (one miss, one counted
        // fallback). Its fp32 product poisons every activation after it,
        // so each later block misses, and falls back on, all its GEMMs.
        let cfg = VitConfig::tiny_test();
        let mut model = VitModel::new_random(cfg, 17);
        model.blocks[0].fc1.b[3] = f32::INFINITY;
        let mut oracle = MixedEngine::new();
        let want = model.forward(&mut oracle, &x);
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let got = model.forward(&mut e, &x);
        for (p, q) in got.data().iter().zip(want.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(e.census(), oracle.census());
        let per_block = 6 + 2 * cfg.heads as u64;
        assert_eq!(
            oracle.census().fp32_fallbacks,
            1 + per_block * (cfg.depth as u64 - 1)
        );
        // Misses count the six planned GEMMs only, never the per-head ones.
        assert_eq!(e.fusion_stats(), (5, 1 + 6 * (cfg.depth as u64 - 1)));

        // One op at a time, planned against plan-less.
        let planned = || MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let blk = &clean.blocks[0];
        let skip = clean.synthetic_input(10);

        // A non-finite activation entering q/k/v: the shared pack fails
        // once and all three layers replay.
        let mut bad_x = x.clone();
        bad_x.set(1, 2, f32::NAN);
        let qkv = [
            ("wq", &blk.attn.wq),
            ("wk", &blk.attn.wk),
            ("wv", &blk.attn.wv),
        ];
        let (mut oracle, mut e) = (MixedEngine::new(), planned());
        let (want, got) = (oracle.linears(&bad_x, qkv), e.linears(&bad_x, qkv));
        for (g, w) in got.iter().zip(&want) {
            assert!(bits_eq(g.data(), w.data()));
        }
        assert_eq!(e.census(), oracle.census());
        assert_eq!((e.census().fp32_fallbacks, e.fusion_stats()), (3, (0, 3)));
        assert_eq!(
            e.lhs_pack_stats().0,
            1 + 3,
            "one shared attempt, then one per replay"
        );

        // A non-finite `wo` weight: one miss, and the replay still adds
        // the residual as `skip + (y + b)`.
        let mut wo = blk.attn.wo.clone();
        wo.w_mut().set(0, 0, f32::NEG_INFINITY);
        let (mut oracle, mut e) = (MixedEngine::new(), planned());
        let want = oracle.linear_residual("wo", &wo, &x, &skip);
        let got = e.linear_residual("wo", &wo, &x, &skip);
        assert!(bits_eq(got.data(), want.data()));
        let y = x.matmul(wo.w());
        let by_hand = MatF32::from_fn(y.rows(), y.cols(), |i, j| {
            skip.get(i, j) + (y.get(i, j) + wo.b[j])
        });
        assert!(bits_eq(got.data(), by_hand.data()));
        assert_eq!(e.census(), oracle.census());
        assert_eq!((e.census().fp32_fallbacks, e.fusion_stats()), (1, (0, 1)));

        // Node names on a replay: a block whose fc1 drain was replayed
        // reports `fc1` and `gelu`, never the fused kernel's name.
        let mut model = clean.clone();
        model.blocks[0].fc1.w_mut().set(0, 0, f32::INFINITY);
        let mut e = planned();
        let tracer = attach(&mut e);
        let _ = model.forward(&mut e, &x);
        let times = node_spans(&tracer);
        assert_eq!(times["fc1"].0, cfg.depth as u64);
        assert_eq!(times["gelu"].0, cfg.depth as u64);
        assert!(!times.contains_key("fc1+gelu"), "{:?}", times.keys());
    }

    #[test]
    fn compiled_plan_emits_node_spans_and_fusion_counters() {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 7);
        let x = model.synthetic_input(2);
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let tracer = attach(&mut e);
        let _ = model.forward(&mut e, &x);
        assert_eq!(e.fusion_stats(), (6 * cfg.depth as u64, 0));

        let events = tracer.drain();
        let node_names: Vec<&str> = events
            .iter()
            .filter(|ev| ev.name.starts_with("plan.node."))
            .map(|ev| ev.name.as_str())
            .collect();
        // Per block: ln1, wq, wk, wv, heads×(scores, softmax, ctx), wo,
        // ln2, fc1+gelu, fc2.
        let per_block = 8 + 3 * cfg.heads;
        assert_eq!(node_names.len(), per_block * cfg.depth);
        for want in [
            "plan.node.ln1",
            "plan.node.wq",
            "plan.node.fc1+gelu",
            "plan.node.fc2",
        ] {
            assert_eq!(
                node_names.iter().filter(|n| **n == want).count(),
                cfg.depth,
                "{want} once per block"
            );
        }
        assert_eq!(
            node_names
                .iter()
                .filter(|n| n.ends_with(".softmax"))
                .count(),
            cfg.depth * cfg.heads
        );

        // A plan-less fast-nonlinear forward emits every engine phase span,
        // each GEMM phase inside its matmul span, and the Chrome trace
        // names them all.
        let mut e = MixedEngine::new().with_nonlinear(NonlinearMode::Fast);
        e.attach_tracer(tracer.clone());
        let spans = [
            "engine.matmul",
            "quantize_pack",
            "gemm",
            "vpu.softmax",
            "vpu.gelu",
            "vpu.layernorm",
        ];
        let _ = model.forward(&mut e, &x);
        let events = tracer.drain();
        for want in spans {
            assert!(events.iter().any(|ev| ev.name == want), "no {want} span");
        }
        let matmuls: Vec<u64> = events
            .iter()
            .filter(|ev| ev.name == "engine.matmul")
            .map(|ev| ev.id)
            .collect();
        for phase in events
            .iter()
            .filter(|ev| ev.name == "quantize_pack" || ev.name == "gemm")
        {
            let parent = phase.parent.expect("phase span has a parent");
            assert!(
                matmuls.contains(&parent),
                "{} outside a matmul span",
                phase.name
            );
        }
        let _ = model.forward(&mut e, &x);
        let json = tracer.chrome_json();
        for want in spans {
            assert!(
                json.contains(&format!("\"name\": \"{want}\"")),
                "chrome trace lacks {want}"
            );
        }
    }

    /// `(hits, misses)` one call adds to the engine's RHS counters.
    fn rhs_delta(e: &mut MixedEngine, f: impl FnOnce(&mut MixedEngine)) -> (u64, u64) {
        let before = e.plan_cache_stats();
        f(e);
        let after = e.plan_cache_stats();
        (after.hits - before.hits, after.misses - before.misses)
    }

    #[test]
    fn weight_pack_counts_are_exact_from_the_first_image() {
        let cfg = DeitConfig::tiny_test();
        let model = DeitModel::new_random(cfg, 5);
        let imgs: Vec<Image> = (0..3)
            .map(|s| Image::synthetic(cfg.channels, cfg.img, cfg.img, s))
            .collect();
        // Every weight is a `Linear` (six per block, patch projection,
        // head); the only other GEMM operands are the per-head `k_hᵀ` and
        // `v_h` activations, which are packed per call and never kept.
        let linears = (6 * cfg.vit.depth + 2) as u64;
        let activations = (2 * cfg.vit.heads * cfg.vit.depth) as u64;

        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let first = rhs_delta(&mut e, |e| drop(model.forward(e, &imgs[0])));
        assert_eq!(first, (0, linears + activations));
        for img in [&imgs[1], &imgs[2], &imgs[0]] {
            let later = rhs_delta(&mut e, |e| drop(model.forward(e, img)));
            assert_eq!(later, (linears, activations));
        }
        let blocks = model.encoder.blocks.iter();
        let all = blocks
            .flat_map(|b| {
                [
                    &b.attn.wq, &b.attn.wk, &b.attn.wv, &b.attn.wo, &b.fc1, &b.fc2,
                ]
            })
            .chain([&model.patch_proj, &model.head]);
        let q = Quantizer::paper();
        let bytes: usize = all
            .map(|lin| PackedBfp::quantize_pack_rhs(&q, lin.w()).unwrap().bytes())
            .sum();
        assert_eq!(e.plan_cache_stats().bytes, bytes);

        // A second engine — plan-less this time: both routes resolve a
        // weight the same way — finds every pack resident and fills none.
        let mut second = MixedEngine::new();
        let warm = rhs_delta(&mut second, |e| drop(model.forward(e, &imgs[1])));
        assert_eq!(warm, (linears, activations));
        assert_eq!(second.plan_cache_stats().bytes, 0);
    }

    #[test]
    fn weight_pack_follows_a_mutated_weight() {
        let edit = |m: &mut VitModel| {
            let w = m.blocks[1].fc1.w_mut();
            w.set(2, 3, w.get(2, 3) * -3.0 + 0.25);
        };
        let mut model = VitModel::new_random(VitConfig::tiny_test(), 47);
        let x = model.synthetic_input(2);
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let before = model.forward(&mut e, &x);
        edit(&mut model);
        e.take_census();
        let after = model.forward(&mut e, &x);
        assert!(
            !bits_eq(after.data(), before.data()),
            "the edit must be visible"
        );

        let mut rebuilt = VitModel::new_random(VitConfig::tiny_test(), 47);
        edit(&mut rebuilt);
        let mut fresh = MixedEngine::new();
        assert!(bits_eq(
            after.data(),
            rebuilt.forward(&mut fresh, &x).data()
        ));
        assert_eq!(e.census(), fresh.census());
    }

    #[test]
    fn weight_pack_serves_two_quantizers_on_one_model() {
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 53);
        let x = model.synthetic_input(4);
        let gemms = ((6 + 2 * cfg.heads) * cfg.depth) as u64;
        for (bits, hits) in [(8, 0), (5, 0), (8, 6 * cfg.depth as u64)] {
            let q = Quantizer::with_man_bits(bits);
            let mut e = MixedEngine::with_quantizer(q);
            let got = model.forward(&mut e, &x);
            let fresh = VitModel::new_random(cfg, 53);
            let want = fresh.forward(&mut MixedEngine::with_quantizer(q), &x);
            assert!(bits_eq(got.data(), want.data()), "man_bits {bits}");
            // The 5-bit engine meets the 8-bit packs: all misses, and it
            // leaves them in place for the 8-bit engine that follows.
            let stats = e.plan_cache_stats();
            assert_eq!(
                (stats.hits, stats.misses),
                (hits, gemms - hits),
                "man_bits {bits}"
            );
        }
    }

    #[test]
    fn weight_pack_survives_a_racing_first_forward() {
        let model = VitModel::new_random(VitConfig::tiny_test(), 59);
        let x = model.synthetic_input(6);
        let (want, serial) = {
            let model = model.clone();
            let mut e = MixedEngine::new();
            let out = model.forward(&mut e, &x);
            (out, e.plan_cache_stats())
        };
        let gate = std::sync::Barrier::new(2);
        let race = || {
            let mut e = MixedEngine::new();
            gate.wait();
            let out = model.forward(&mut e, &x);
            (out, e.plan_cache_stats())
        };
        let (a, b) = std::thread::scope(|s| {
            let (ta, tb) = (s.spawn(race), s.spawn(race));
            (ta.join().expect("racer a"), tb.join().expect("racer b"))
        });
        assert!(bits_eq(a.0.data(), want.data()) && bits_eq(b.0.data(), want.data()));
        assert_eq!(
            a.1.hits + a.1.misses + b.1.hits + b.1.misses,
            2 * (serial.hits + serial.misses)
        );
    }

    #[test]
    fn census_merge_adds_fields() {
        let mut a = OpCensus {
            matmul_macs: 5,
            ..Default::default()
        };
        let b = OpCensus {
            matmul_macs: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.matmul_macs, 12);
        assert_eq!(a.bfp_ops(), 24);
    }
}
