//! Execution engines: the mixed-precision accelerator path versus the f32
//! reference, behind one trait so the same model code runs on both.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use bfp_arith::error::ArithError;
use bfp_arith::int8quant::Int8Tensor;
use bfp_arith::matrix::MatF32;
use bfp_arith::packed::{max_shards, EpilogueCtx, PackedBfp};
use bfp_arith::quant::Quantizer;
use bfp_telemetry::{Registry, Table};
#[cfg(feature = "telemetry")]
use bfp_telemetry::{Counter, Histogram, Tracer};

use crate::attention::{slice_cols, write_cols};
use crate::layers::Linear;
use crate::model::{residual_add, Block};
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

/// The operations a model needs from its execution substrate.
pub trait Engine {
    /// General matrix multiply.
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32;
    /// Row-wise softmax in place.
    fn softmax_rows(&mut self, m: &mut MatF32);
    /// Element-wise GELU in place.
    fn gelu(&mut self, m: &mut MatF32);
    /// Row-wise LayerNorm in place.
    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32);
    /// Run one encoder block through a compiled execution plan, if this
    /// engine carries one. `None` (the default for every engine without
    /// plan support) routes the caller to the hand-wired oracle sequence;
    /// `Some` must be bit-identical to that sequence.
    fn forward_block_planned(&mut self, _block: &Block, _x: &MatF32) -> Option<MatF32> {
        None
    }
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

/// Content key of a weight-plan cache entry: shape plus an FNV-1a hash of
/// the operand's exact `f32` bit patterns. Two matrices collide only if
/// they agree in shape *and* 64-bit content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    rows: usize,
    cols: usize,
    hash: u64,
}

impl PlanKey {
    fn of(m: &MatF32, epilogue: Epilogue) -> PlanKey {
        match epilogue {
            Epilogue::Fused => Self::of_fast(m),
            Epilogue::Reference => Self::of_fnv(m),
        }
    }

    fn of_fast(m: &MatF32) -> PlanKey {
        // `MatF32::content_hash` is the word-at-a-time mixer, *memoized in
        // the matrix*: a weight hashed once stays hashed until mutated, so
        // steady-state lookups cost six u64 loads instead of a full rescan
        // of the weight bytes per GEMM (which showed up in the
        // quantize/pack phase). Still bit-exact and NaN-payload sensitive;
        // the key only gates the plan cache, so the hash choice can never
        // affect output bits.
        PlanKey {
            rows: m.rows(),
            cols: m.cols(),
            hash: m.content_hash(),
        }
    }

    /// The pre-optimisation byte-wise FNV-1a hash, kept runnable so the
    /// e2e baseline engine replays the engine it measures against. Either
    /// key scheme is bit-exact and content-complete; within one engine a
    /// single scheme is used, so keys never mix.
    fn of_fnv(m: &MatF32) -> PlanKey {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(m.rows() as u64);
        eat(m.cols() as u64);
        let mut chunks = m.data().chunks_exact(2);
        for pair in &mut chunks {
            eat((pair[0].to_bits() as u64) << 32 | pair[1].to_bits() as u64);
        }
        if let [last] = chunks.remainder() {
            eat(last.to_bits() as u64);
        }
        PlanKey {
            rows: m.rows(),
            cols: m.cols(),
            hash: h,
        }
    }
}

/// Which f32 → packed-bfp8 epilogue a [`MixedEngine`] runs. The two are
/// bit-identical end to end (pinned in `bfp_arith::packed` and
/// `bfp_arith::quant` tests); [`Epilogue::Reference`] exists so the e2e
/// bench's baseline is the real pre-optimisation engine, not a hybrid that
/// already enjoys the fast scan and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// Fused single-pass quantize-and-pack, word-at-a-time plan hash.
    Fused,
    /// Composed quantize → pack with the per-element reference tile scan
    /// and the byte-wise FNV plan hash (the pre-optimisation engine).
    Reference,
}

/// One cached, executable quantization of a weight matrix: the bfp8 tiles
/// already packed in the kernel-ready block-transposed RHS layout.
#[derive(Debug, Clone)]
struct WeightPlan {
    packed: PackedBfp,
    /// Hits since the last eviction sweep (decides survival).
    hits: u64,
}

/// Observability counters for the [`MixedEngine`] weight-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// GEMMs whose RHS was served from a cached plan.
    pub hits: u64,
    /// GEMMs that quantized + packed their RHS (and cached the plan).
    pub misses: u64,
    /// Entries dropped by eviction sweeps (cold, typically activations).
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Approximate resident bytes across all plans.
    pub bytes: usize,
}

impl PlanCacheStats {
    /// Publish the counters into a metrics [`Registry`] as gauges
    /// (idempotent: re-publishing overwrites, so periodic snapshots of
    /// the same engine do not double-count).
    pub fn publish(&self, reg: &Registry) {
        reg.gauge("plan_cache_hits").set(self.hits as f64);
        reg.gauge("plan_cache_misses").set(self.misses as f64);
        reg.gauge("plan_cache_evictions").set(self.evictions as f64);
        reg.gauge("plan_cache_entries").set(self.entries as f64);
        reg.gauge("plan_cache_resident_bytes").set(self.bytes as f64);
    }
}

impl fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "weight-plan cache",
            &["hits", "misses", "evictions", "entries", "resident B"],
        );
        t.row(&[
            self.hits.to_string(),
            self.misses.to_string(),
            self.evictions.to_string(),
            self.entries.to_string(),
            self.bytes.to_string(),
        ]);
        write!(f, "{}", t.render().trim_end())
    }
}

/// Everything a [`MixedEngine`] records about itself when tracing is
/// attached: the span tracer plus registered hot-path instruments.
/// Only exists with the `telemetry` cargo feature; without it the
/// engine carries no field and no instrumentation code at all.
#[cfg(feature = "telemetry")]
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    tracer: Tracer,
    gemms: Counter,
    macs: Counter,
    fallbacks: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    saturated: Counter,
    gemm_ns: Histogram,
    quantize_pack_ns: Histogram,
    fast_mul: Counter,
    fast_add: Counter,
    fast_exp_adjust: Counter,
    fast_lut: Counter,
    fusion_hits: Counter,
    fusion_misses: Counter,
}

#[cfg(feature = "telemetry")]
impl EngineTelemetry {
    /// Bind a tracer and register the engine's instruments in `reg`.
    pub fn new(tracer: Tracer, reg: &Registry) -> Self {
        EngineTelemetry {
            tracer,
            gemms: reg.counter("engine_gemms_total"),
            macs: reg.counter("engine_macs_total"),
            fallbacks: reg.counter("engine_fp32_fallbacks_total"),
            cache_hits: reg.counter("engine_plan_cache_hits_total"),
            cache_misses: reg.counter("engine_plan_cache_misses_total"),
            saturated: reg.counter("engine_quantize_saturated_total"),
            gemm_ns: reg.histogram("engine_gemm_ns"),
            quantize_pack_ns: reg.histogram("engine_quantize_pack_ns"),
            // The fast nonlinear unit's op mix, one counter per hardware
            // resource class. Cross-checkable against the analytic cycle
            // model: `bfp_core::vpucost` prices exactly these four counts.
            fast_mul: reg.counter("engine_fast_nl_fp_mul_total"),
            fast_add: reg.counter("engine_fast_nl_fp_add_total"),
            fast_exp_adjust: reg.counter("engine_fast_nl_exp_adjust_total"),
            fast_lut: reg.counter("engine_fast_nl_lut_total"),
            // Compiled-plan routing: GEMMs drained through a fused
            // epilogue kernel vs GEMMs a plan had to run composed.
            fusion_hits: reg.counter("engine_fusion_hits_total"),
            fusion_misses: reg.counter("engine_fusion_misses_total"),
        }
    }

    /// The bound tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// Soft capacity of the weight-plan cache. A full DeiT model holds well
/// under a hundred distinct weight matrices; the headroom absorbs
/// activation churn between eviction sweeps.
const PLAN_CACHE_CAP: usize = 256;

/// Wall-clock accumulated per execution phase by [`MixedEngine`], the
/// breakdown the `e2e` bench reports (the paper's Table IV split, measured
/// on the host simulation). Residual adds and copies are not engine calls,
/// so "misc" is derived by the bench as `wall − accounted()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// f32 → packed bfp8 quantization (LHS fused pass + RHS plan misses).
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

/// Accumulated wall-clock for one named node of a compiled plan, the
/// measured side of drift attribution (predictions come from
/// `bfp_core::planner`). Collected only when node timing is enabled at
/// runtime — the accumulator is independent of the `telemetry` feature
/// so benches can attribute drift in default builds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTime {
    /// Total measured seconds across executions.
    pub seconds: f64,
    /// Number of executions folded into `seconds`.
    pub samples: u64,
}

/// Minimum f32 elements per worker shard of an **exact-mode** non-linear
/// kernel, so a kernel forks from twice this many elements up.
///
/// Measured on the 2-vCPU host (fork/join ≈ 0.09 ms): serial ÷ two-shard
/// time, median (q1–q3) of 200 interleaved pairs, by total elements, with
/// the lane kernels at GELU ≈ 28, softmax ≈ 24, LayerNorm ≈ 11.5 ns/elem
/// (row-per-lane sums):
///
/// | total | GELU | softmax (×197) | LayerNorm (×384) |
/// |---|---|---|---|
/// | 8 k | 0.97 (0.86–1.06) | 1.03 (0.93–1.10) | 0.53 (0.48–0.59) |
/// | 16 k | 1.19 (1.01–1.29) | 1.32 (1.22–1.39) | 0.74 (0.68–0.84) |
/// | 32 k | 1.35 (1.15–1.45) | 1.52 (1.38–1.59) | 0.94 (0.85–1.16) |
/// | 64 k | 1.62 (1.49–1.72) | 1.62 (1.52–1.68) | 1.31 (1.19–1.45) |
/// | 128 k | 1.73 (1.66–1.80) | 1.68 (1.62–1.74) | 1.42 (1.28–1.56) |
/// | 197×197 / 197×384 / 197×1536 | 1.74 (1.63–1.85) | 1.56 (1.47–1.62) | 1.34 (1.26–1.44) |
///
/// Kept at 16 k per shard (fork from 32 k). By the first-size-where-all-win
/// rule LayerNorm, now ≈ 3× cheaper per element, would move it to 32 k per
/// shard (it is level at 32 k total and wins from 64 k) — but that would
/// stop forking the 197×197 attention softmax (38.8 k elements, 1.56), the
/// largest exact VPU phase of a DeiT image, to spare a break-even case no
/// workload issues: every LayerNorm the models run is 197×384 (75.6 k,
/// 1.34) or a single row, which never forks. A fused drain tile (64
/// elements) never can. The scalar kernels (≈ 240 ns/elem), which other
/// datapath configurations still take, only amortise better. Hosts with
/// more than two cores are unmeasured.
const VPU_PARALLEL_ELEMS: usize = 16_384;

/// Minimum elements per shard in **fast** nonlinear mode: the same
/// protocol over the fast kernels (GELU and softmax on the AVX2 lanes at
/// ≈ 1.6–2.1 and 2.2–3.0 ns/elem, LayerNorm scalar at ≈ 1.7), where a
/// 0.09 ms fork/join is worth ≈ 50 k elements of work:
///
/// | total | GELU | softmax (×197) | LayerNorm (×384) |
/// |---|---|---|---|
/// | 64 k | 0.61 (0.56–0.68) | 0.70 (0.62–0.81) | 0.62 (0.52–0.74) |
/// | 128 k | 0.91 (0.78–1.01) | 0.86 (0.75–1.07) | 0.93 (0.77–1.08) |
/// | 256 k | 1.14 (1.02–1.27) | 1.15 (0.93–1.33) | 1.15 (0.99–1.28) |
/// | 512 k | 1.43 (1.31–1.51) | 1.25 (1.15–1.46) | 1.38 (1.27–1.46) |
/// | 1 M | 1.38 (1.27–1.54) | 1.50 (1.28–1.72) | 1.55 (1.40–1.64) |
///
/// 512 k total is the first size where every kernel wins outside its
/// spread, so a shard is 256 k. Nothing DeiT-Small issues reaches it: the
/// attention softmax (38.8 k: 0.57) and LayerNorm (75.6 k: 0.71) lose from
/// forking by a wide margin, and the one shape that would still gain, a
/// stand-alone 197×1536 GELU (302.6 k: 1.30), is fused into fc1's drain by
/// every compiled plan.
const VPU_PARALLEL_ELEMS_FAST: usize = 262_144;

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
/// VPU kernels, with a full operation census.
#[derive(Debug, Clone)]
pub struct MixedEngine {
    quantizer: Quantizer,
    vpu: Vpu,
    census: OpCensus,
    division: DivisionPolicy,
    /// Which nonlinear kernel family the VPU runs (exact oracle vs the
    /// fast LUT/polynomial unit with tested ULP envelopes).
    nonlinear: NonlinearMode,
    /// Content-keyed quantize-and-pack cache for RHS operands. Weight
    /// matrices are constant across tokens, layers, images, and batches,
    /// so their plans are built once and reused; activation operands churn
    /// and are swept out by the eviction pass.
    plans: HashMap<PlanKey, WeightPlan>,
    plan_stats: PlanCacheStats,
    cache_enabled: bool,
    /// Thread budget shared by the sharded GEMM and the sharded VPU
    /// kernels. Sharding is bit-invariant, so this trades wall-clock only.
    threads: usize,
    /// Threads the host actually has. The effective parallelism is
    /// `min(threads, host_cap)`: a budget above the core count cannot buy
    /// wall-clock, only fork/join overhead.
    host_cap: usize,
    /// Which quantize epilogue (and plan-key hash) this engine runs; see
    /// [`Epilogue`].
    epilogue: Epilogue,
    /// Compiled block plan; `None` (the default) keeps `Block::forward`
    /// on the hand-wired oracle path.
    vit_plan: Option<CompiledVitPlan>,
    /// GEMMs drained through a fused epilogue kernel under the plan.
    fusion_hits: u64,
    /// GEMMs a plan ran through the composed passes (per-head attention
    /// GEMMs, disabled patterns, and fused-kernel error replays).
    fusion_misses: u64,
    /// Activation (LHS) quantize-packs attempted, and the f32 elements
    /// they read: what sharing a packed LHS saves, as a count.
    lhs_packs: u64,
    lhs_pack_elems: u64,
    phase: PhaseTimes,
    /// Per-node wall-clock accumulators for drift attribution; `None`
    /// (the default) keeps the compiled-plan hot path free of clock
    /// reads and map lookups.
    node_times: Option<HashMap<String, NodeTime>>,
    /// Attached observability (spans + registered counters); `None`
    /// until [`Self::attach_telemetry`] is called.
    #[cfg(feature = "telemetry")]
    tel: Option<EngineTelemetry>,
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
            plans: HashMap::new(),
            plan_stats: PlanCacheStats::default(),
            cache_enabled: true,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            host_cap: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            epilogue: Epilogue::Fused,
            vit_plan: None,
            fusion_hits: 0,
            fusion_misses: 0,
            lhs_packs: 0,
            lhs_pack_elems: 0,
            phase: PhaseTimes::default(),
            node_times: None,
            #[cfg(feature = "telemetry")]
            tel: None,
        }
    }

    /// Attach a tracer and metrics registry: subsequent engine calls
    /// emit phase spans and update the registered instruments.
    #[cfg(feature = "telemetry")]
    pub fn attach_telemetry(&mut self, tracer: Tracer, reg: &Registry) {
        self.tel = Some(EngineTelemetry::new(tracer, reg));
    }

    /// Note a GEMM degraded to the fp32 reference path (no-op unless
    /// telemetry is compiled in and attached).
    #[inline]
    fn tel_fallback(&self) {
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.fallbacks.inc();
            tel.tracer.instant("engine.fp32_fallback", "engine");
        }
    }

    /// Record a completed VPU phase span (no-op unless telemetry is
    /// compiled in and attached).
    #[inline]
    fn tel_phase(&self, name: &'static str, t0: Instant) {
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.tracer.complete_between(name, "engine", t0, Instant::now());
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (name, t0);
    }

    /// The pre-optimisation execution model, kept runnable as the measured
    /// baseline of the e2e bench: single-threaded everywhere, the composed
    /// quantize→pack epilogue with the reference tile scan and byte-wise
    /// FNV plan hash, and every VPU multiply through the explicit
    /// partial-product enumeration. Bit-identical outputs to [`Self::new`].
    pub fn baseline_scalar() -> Self {
        MixedEngine {
            vpu: Vpu::via_partials(),
            threads: 1,
            epilogue: Epilogue::Reference,
            ..Self::new()
        }
    }

    /// Set the thread budget for the sharded GEMM and VPU kernels
    /// (`0` is clamped to 1). Outputs are bit-identical for any value;
    /// the effective parallelism additionally never exceeds the host's
    /// core count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Select the nonlinear kernel family for subsequent VPU calls.
    /// [`NonlinearMode::Exact`] is bit-identical to the pre-knob engine;
    /// [`NonlinearMode::Fast`] trades a tested ULP envelope for the
    /// LUT/polynomial unit's throughput.
    pub fn set_nonlinear_mode(&mut self, mode: NonlinearMode) {
        self.nonlinear = mode;
    }

    /// Builder form of [`Self::set_nonlinear_mode`].
    pub fn with_nonlinear(mut self, mode: NonlinearMode) -> Self {
        self.set_nonlinear_mode(mode);
        self
    }

    /// The configured nonlinear kernel family.
    pub fn nonlinear_mode(&self) -> NonlinearMode {
        self.nonlinear
    }

    /// The paper-configured engine with the fast nonlinear unit enabled.
    pub fn fast_nonlinear() -> Self {
        MixedEngine {
            nonlinear: NonlinearMode::Fast,
            ..Self::new()
        }
    }

    /// Builder form of [`Self::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
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

    /// Start accumulating per-node wall-clock on the compiled-plan path
    /// (for drift attribution against the planner's cycle predictions).
    /// Off by default; independent of the `telemetry` cargo feature.
    pub fn enable_node_timing(&mut self) {
        if self.node_times.is_none() {
            self.node_times = Some(HashMap::new());
        }
    }

    /// Whether per-node timing is currently accumulating.
    pub fn node_timing_enabled(&self) -> bool {
        self.node_times.is_some()
    }

    /// Drain the per-node wall-clock accumulators (empty when node
    /// timing was never enabled). Timing stays enabled afterwards.
    pub fn take_node_times(&mut self) -> HashMap<String, NodeTime> {
        match &mut self.node_times {
            Some(m) => std::mem::take(m),
            None => HashMap::new(),
        }
    }

    /// The per-phase wall-clock breakdown accumulated so far.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// An engine with the weight-plan cache disabled: every GEMM
    /// re-quantizes both operands, as the pre-cache engine did. Results
    /// are bit-identical either way; this exists for A/B benchmarking and
    /// for memory-constrained embedders.
    pub fn without_weight_cache() -> Self {
        MixedEngine {
            cache_enabled: false,
            ..Self::new()
        }
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

    /// Weight-plan cache counters (hits, misses, evictions, footprint).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let mut s = self.plan_stats;
        s.entries = self.plans.len();
        s.bytes = self.plans.values().map(|p| p.packed.bytes()).sum();
        s
    }

    /// Drop every cached weight plan (counters are kept).
    pub fn clear_weight_cache(&mut self) {
        self.plans.clear();
    }

    /// Quantize + pack an RHS operand on the configured epilogue: fused
    /// single pass normally, the composed reference path in baseline mode.
    /// The two are bit-identical (pinned in `bfp_arith::packed` tests).
    fn pack_rhs_fresh(&self, b: &MatF32) -> Result<PackedBfp, ArithError> {
        match self.epilogue {
            Epilogue::Fused => PackedBfp::quantize_pack_rhs(&self.quantizer, b),
            Epilogue::Reference => Ok(PackedBfp::pack_rhs(&self.quantizer.quantize_reference(b)?)),
        }
    }

    /// Resolve the RHS operand to a packed plan: cached when enabled and
    /// previously seen, freshly quantized + packed otherwise.
    fn rhs_plan(&mut self, b: &MatF32) -> Result<&PackedBfp, ArithError> {
        if !self.cache_enabled {
            // Stash under a reserved slot so the borrow can be returned
            // uniformly; a disabled cache holds at most this one entry.
            let packed = self.pack_rhs_fresh(b)?;
            self.plans.clear();
            let key = PlanKey {
                rows: 0,
                cols: 0,
                hash: 0,
            };
            return Ok(&self
                .plans
                .entry(key)
                .or_insert(WeightPlan { packed, hits: 0 })
                .packed);
        }
        let key = PlanKey::of(b, self.epilogue);
        if self.plans.contains_key(&key) {
            self.plan_stats.hits += 1;
            #[cfg(feature = "telemetry")]
            if let Some(tel) = &self.tel {
                tel.cache_hits.inc();
            }
            let plan = self.plans.get_mut(&key).expect("checked");
            plan.hits += 1;
            return Ok(&plan.packed);
        }
        let packed = self.pack_rhs_fresh(b)?;
        self.plan_stats.misses += 1;
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.cache_misses.inc();
        }
        if self.plans.len() >= PLAN_CACHE_CAP {
            // Sweep: keep plans that were re-used since the last sweep
            // (weights), drop one-shot entries (activations).
            let before = self.plans.len();
            self.plans.retain(|_, p| p.hits > 0);
            // If the sweep alone cannot make room (everything resident is
            // hot), evict the least-used plans in content-key order. The
            // sort key is a total order over (hits, content hash, shape) —
            // independent of the HashMap's per-instance seeding — so
            // concurrent engines fed the same workload evict identically.
            if self.plans.len() >= PLAN_CACHE_CAP {
                let mut order: Vec<(u64, PlanKey)> =
                    self.plans.iter().map(|(k, p)| (p.hits, *k)).collect();
                order.sort_unstable_by_key(|&(hits, k)| (hits, k.hash, k.rows, k.cols));
                let excess = self.plans.len() - (PLAN_CACHE_CAP - 1);
                for (_, k) in order.iter().take(excess) {
                    self.plans.remove(k);
                }
            }
            self.plan_stats.evictions += (before - self.plans.len()) as u64;
            for p in self.plans.values_mut() {
                p.hits = 0;
            }
        }
        Ok(&self
            .plans
            .entry(key)
            .or_insert(WeightPlan { packed, hits: 0 })
            .packed)
    }

    fn vpu_delta(&mut self, f: impl FnOnce(&mut Vpu)) -> OpCount {
        let before = self.vpu.count;
        f(&mut self.vpu);
        let after = self.vpu.count;
        OpCount {
            fp_mul: after.fp_mul - before.fp_mul,
            fp_add: after.fp_add - before.fp_add,
            exp_adjust: after.exp_adjust - before.exp_adjust,
            cmp: after.cmp - before.cmp,
            lut: after.lut - before.lut,
            host_div: after.host_div - before.host_div,
            host_sqrt: after.host_sqrt - before.host_sqrt,
        }
    }

    /// The thread budget clamped at the host's core count: oversubscribing
    /// buys nothing and costs fork/join per kernel call.
    fn effective_threads(&self) -> usize {
        self.threads.min(self.host_cap).max(1)
    }

    /// How many threads a non-linear kernel over `elems` f32 values gets:
    /// the (host-capped) budget, capped so every shard carries at least
    /// the break-even batch for the active kernel family (one shard → no
    /// fork at all).
    fn vpu_threads_for(&self, elems: usize) -> usize {
        let min_shard = match self.nonlinear {
            NonlinearMode::Exact => VPU_PARALLEL_ELEMS,
            NonlinearMode::Fast => VPU_PARALLEL_ELEMS_FAST,
        };
        self.effective_threads().min(elems / min_shard).max(1)
    }

    /// Publish a fast-mode nonlinear op-mix delta to the registered
    /// counters (no-op unless telemetry is compiled in and attached).
    #[inline]
    fn tel_fast_mix(&self, delta: &OpCount) {
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.fast_mul.add(delta.fp_mul);
            tel.fast_add.add(delta.fp_add);
            tel.fast_exp_adjust.add(delta.exp_adjust);
            tel.fast_lut.add(delta.lut);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = delta;
    }

    /// Run a batched VPU kernel over `data` split into `threads` disjoint
    /// shards of whole `unit`-element groups (rows, or single elements for
    /// GELU). Each worker thread gets a fresh VPU with the same datapath
    /// configuration; shards touch disjoint data, so outputs are
    /// bit-identical to the serial kernel for any thread count, and the
    /// per-shard [`OpCount`]s are merged in shard order — deterministic —
    /// into both the live VPU counter and the returned delta.
    fn vpu_parallel(
        &mut self,
        data: &mut [f32],
        unit: usize,
        threads: usize,
        f: impl Fn(&mut Vpu, &mut [f32]) + Sync,
    ) -> OpCount {
        debug_assert!(unit > 0 && data.len().is_multiple_of(unit));
        let units = data.len() / unit;
        let threads = threads.min(units.max(1));
        if threads <= 1 {
            return self.vpu_delta(|vpu| f(vpu, data));
        }
        let per = units.div_ceil(threads) * unit;
        let proto = &self.vpu;
        let f = &f;
        let deltas: Vec<OpCount> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks_mut(per)
                .map(|shard| {
                    let mut vpu = proto.fresh();
                    scope.spawn(move |_| {
                        f(&mut vpu, shard);
                        vpu.count
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("VPU shard thread panicked"))
                .collect()
        })
        .expect("VPU shard scope panicked");
        let mut total = OpCount::default();
        for d in &deltas {
            total.merge(d);
        }
        self.vpu.count.merge(&total);
        total
    }

    // ------------------------------------------------------------------
    // Compiled-plan execution: the graph planner's fused kernels.
    // ------------------------------------------------------------------

    /// Install a compiled block plan: subsequent `Block::forward` calls on
    /// this engine route through the fused packed kernels. Outputs are
    /// bit-identical to the hand-wired path for any plan (pinned by the
    /// tests below and by `bfp_arith::packed`); the plan trades wall-clock
    /// only.
    pub fn install_vit_plan(&mut self, plan: CompiledVitPlan) {
        self.vit_plan = Some(plan);
    }

    /// Builder form of [`Self::install_vit_plan`].
    pub fn with_vit_plan(mut self, plan: CompiledVitPlan) -> Self {
        self.install_vit_plan(plan);
        self
    }

    /// Remove the compiled plan: back to the hand-wired oracle path.
    pub fn clear_vit_plan(&mut self) {
        self.vit_plan = None;
    }

    /// The installed compiled plan, if any.
    pub fn vit_plan(&self) -> Option<CompiledVitPlan> {
        self.vit_plan
    }

    /// Fusion routing counters as `(hits, misses)`: GEMMs drained through
    /// a fused epilogue kernel vs GEMMs a plan ran composed.
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

    #[inline]
    fn note_fusion_hit(&mut self) {
        self.fusion_hits += 1;
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.fusion_hits.inc();
        }
    }

    #[inline]
    fn note_fusion_miss(&mut self) {
        self.fusion_misses += 1;
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.fusion_misses.inc();
        }
    }

    /// Record a completed `plan.node.<name>` span for one graph node of
    /// the compiled plan, and fold its wall-clock into the node-timing
    /// accumulators when enabled (no-op otherwise).
    #[inline]
    fn tel_node(&mut self, name: &str, t0: Instant) {
        if let Some(times) = &mut self.node_times {
            let entry = times.entry(name.to_string()).or_default();
            entry.seconds += t0.elapsed().as_secs_f64();
            entry.samples += 1;
        }
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.tracer
                .complete_between(format!("plan.node.{name}"), "plan", t0, Instant::now());
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (name, t0);
    }

    /// Process-wide saturation tally mark, for attributing a fused GEMM's
    /// share (mirrors the hand-wired `matmul` instrumentation).
    #[inline]
    fn sat_mark(&self) -> u64 {
        #[cfg(feature = "telemetry")]
        {
            bfp_arith::telemetry::saturation_count()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            0
        }
    }

    /// Record a fused GEMM's counters, histograms, and phase spans —
    /// the same instruments the hand-wired `matmul` updates, so fused
    /// and composed GEMMs are indistinguishable to dashboards except
    /// through the fusion counters.
    #[inline]
    fn tel_fused_gemm(&self, macs: u64, t0: Instant, t1: Instant, t2: Instant, sat0: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            tel.tracer.complete_between("quantize_pack", "engine", t0, t1);
            tel.tracer
                .complete_between_with("gemm", "engine", t1, t2, vec![("macs", macs)]);
            tel.gemms.inc();
            tel.macs.add(macs);
            tel.quantize_pack_ns.record_duration(t1.duration_since(t0));
            tel.gemm_ns.record_duration(t2.duration_since(t1));
            tel.saturated
                .add(bfp_arith::telemetry::saturation_count().saturating_sub(sat0));
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (macs, t0, t1, t2, sat0);
    }

    /// GEMM thread budget for `macs` scalar MACs: the (host-capped) budget,
    /// capped at [`max_shards`] (one shard → no fork at all).
    #[inline]
    fn gemm_threads_for(&self, macs: u64) -> usize {
        self.effective_threads().min(max_shards(macs))
    }

    /// Quantize-pack an LHS operand, billing the time to the
    /// quantize_pack phase.
    fn pack_lhs_timed(&mut self, m: &MatF32) -> Result<PackedBfp, ArithError> {
        self.note_lhs_pack(m);
        let t0 = Instant::now();
        let r = PackedBfp::quantize_pack_lhs(&self.quantizer, m);
        self.phase.quantize_pack += t0.elapsed();
        r
    }

    /// One fused GEMM over an already-packed LHS: every hot output tile
    /// takes `drain` before it is written out, in exactly the element
    /// order of the composed `Linear::forward` (+ `residual_add` /
    /// `Engine::gelu`) sequence. The GELU drain runs per tile on a
    /// per-shard VPU; counts merge in shard order into the live VPU and
    /// the gelu census, matching the composed totals (GELU is
    /// element-independent, so tile order cannot change bits or counts).
    ///
    /// Accounting on success mirrors `Engine::matmul`: RHS plan resolution
    /// bills quantize_pack, the fused kernel bills gemm, MACs land in the
    /// census. On error nothing is recorded — the caller replays the
    /// composed oracle ops, which do their own accounting.
    fn fused_linear(
        &mut self,
        ph: &PackedBfp,
        lin: &Linear,
        drain: Drain,
    ) -> Result<MatF32, ArithError> {
        let macs = (ph.rows() * ph.cols() * lin.w.cols()) as u64;
        let threads = self.gemm_threads_for(macs);
        let (division, mode) = (self.division, self.nonlinear);
        let mut vpus: Vec<Vpu> = (0..threads).map(|_| self.vpu.fresh()).collect();
        let sat0 = self.sat_mark();
        let t0 = Instant::now();
        let pb = self.rhs_plan(&lin.w)?;
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
        // One shard runs the serial kernel on the first epilogue.
        let out = ph.matmul_epilogue_parallel(pb, threads, &mut epis)?;
        drop(epis);
        let t2 = Instant::now();
        // Only the GELU drain runs (and counts) on the shard VPUs.
        let mut delta = OpCount::default();
        for v in &vpus {
            delta.merge(&v.count);
        }
        self.vpu.count.merge(&delta);
        self.census.gelu.merge(&delta);
        if mode == NonlinearMode::Fast {
            self.tel_fast_mix(&delta);
        }
        self.phase.quantize_pack += t1.duration_since(t0);
        self.phase.gemm += t2.duration_since(t1);
        self.census.matmul_macs += macs;
        self.note_fusion_hit();
        self.tel_fused_gemm(macs, t0, t1, t2, sat0);
        Ok(out)
    }

    /// A bias linear under a plan, wrapped in its `plan.node` span: the
    /// fused bias drain over the shared packed LHS when there is one,
    /// otherwise — and on a fused error — the composed `Linear::forward`,
    /// counted as a fusion miss.
    fn planned_linear(
        &mut self,
        ph: Option<&PackedBfp>,
        lin: &Linear,
        x: &MatF32,
        node: &str,
    ) -> MatF32 {
        let t = Instant::now();
        let fused = ph.and_then(|ph| self.fused_linear(ph, lin, Drain::Bias).ok());
        let out = fused.unwrap_or_else(|| {
            self.note_fusion_miss();
            lin.forward(self, x)
        });
        self.tel_node(node, t);
        out
    }

    /// A bias+residual linear under a plan (`wo`, `fc2`): `skip + (x·W +
    /// b)`. With `fuse`, `x` is packed by the lane quantiser and the bias
    /// and residual adds fold into the GEMM drain; otherwise — and on a
    /// pack or fused error — the composed `Linear::forward` +
    /// `residual_add`, counted as a fusion miss.
    fn planned_residual(
        &mut self,
        fuse: bool,
        lin: &Linear,
        x: &MatF32,
        skip: &MatF32,
        node: &str,
    ) -> MatF32 {
        let t = Instant::now();
        let fused = if fuse {
            let px = self.pack_lhs_timed(x);
            px.and_then(|px| self.fused_linear(&px, lin, Drain::BiasResidual(skip))).ok()
        } else {
            None
        };
        let out = fused.unwrap_or_else(|| {
            self.note_fusion_miss();
            residual_add(skip, &lin.forward(self, x))
        });
        self.tel_node(node, t);
        out
    }

    /// Double-buffered weight prefetch: quantize-pack the plans for
    /// weights this block needs *after* the attention GEMMs on a spare
    /// host thread, overlapping pack with compute. Plans are a pure
    /// function of (quantizer, weight), so a prefetched plan is
    /// bit-identical to one built inline; an errored pack is dropped and
    /// the inline path re-derives (and re-encounters) the error.
    #[allow(clippy::type_complexity)]
    fn spawn_weight_prefetch(
        &self,
        weights: &[&MatF32],
    ) -> Option<std::thread::JoinHandle<Vec<(PlanKey, Result<PackedBfp, ArithError>)>>> {
        if !self.cache_enabled || self.effective_threads() < 2 || self.epilogue != Epilogue::Fused
        {
            return None;
        }
        // Only a weight whose plan is missing is cloned for the pack
        // thread: in steady state every plan is cached and nothing is.
        let missing: Vec<(PlanKey, MatF32)> = weights
            .iter()
            .map(|w| (PlanKey::of(w, self.epilogue), *w))
            .filter(|(k, _)| !self.plans.contains_key(k))
            .map(|(k, w)| (k, w.clone()))
            .collect();
        if missing.is_empty() {
            return None;
        }
        let qz = self.quantizer;
        Some(std::thread::spawn(move || {
            missing
                .into_iter()
                .map(|(k, w)| (k, PackedBfp::quantize_pack_rhs(&qz, &w)))
                .collect()
        }))
    }

    /// Join a prefetch and install its plans, counted as plan-cache
    /// misses exactly as inline resolution would have counted them.
    #[allow(clippy::type_complexity)]
    fn absorb_weight_prefetch(
        &mut self,
        handle: Option<std::thread::JoinHandle<Vec<(PlanKey, Result<PackedBfp, ArithError>)>>>,
    ) {
        let Some(h) = handle else { return };
        // A panic in the pack thread is this engine's panic: swallowing
        // it would leave zero plans and a silently slower forward.
        let packed = h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (key, packed) in packed {
            if let Ok(packed) = packed {
                if !self.plans.contains_key(&key) {
                    self.plan_stats.misses += 1;
                    #[cfg(feature = "telemetry")]
                    if let Some(tel) = &self.tel {
                        tel.cache_misses.inc();
                    }
                    self.plans.insert(key, WeightPlan { packed, hits: 0 });
                }
            }
        }
    }

    /// Execute one encoder block through the compiled plan. Every fused
    /// kernel is bit-identical to the hand-wired sequence; any fused
    /// error replays the composed oracle ops (which do their own census
    /// and fallback accounting), so error behaviour matches the
    /// hand-wired path too.
    fn forward_block_compiled(&mut self, blk: &Block, x: &MatF32, plan: CompiledVitPlan) -> MatF32 {
        let heads = blk.attn.heads();
        let hd = blk.attn.head_dim();
        let seq = x.rows();

        let t = Instant::now();
        let mut h = x.clone();
        self.layernorm(&mut h, &blk.ln1.gamma, &blk.ln1.beta, blk.ln1.eps);
        self.tel_node("ln1", t);

        // Double-buffer: pack the weight plans needed after the attention
        // GEMMs while those GEMMs run.
        let prefetch = if plan.prefetch_weights {
            self.spawn_weight_prefetch(&[&blk.attn.wo.w, &blk.fc1.w, &blk.fc2.w])
        } else {
            None
        };

        // q/k/v: one shared packed LHS (the CSE the planner finds on
        // three MatMuls with an identical LayerNorm dep), fused bias
        // drains.
        let ph = if plan.fuse_qkv { self.pack_lhs_timed(&h).ok() } else { None };
        let q = self.planned_linear(ph.as_ref(), &blk.attn.wq, &h, "wq");
        let k = self.planned_linear(ph.as_ref(), &blk.attn.wk, &h, "wk");
        let v = self.planned_linear(ph.as_ref(), &blk.attn.wv, &h, "wv");

        // Per-head attention: composed GEMMs (the planner prices these
        // unfused — softmax consumes the whole scores matrix, so there is
        // no elementwise epilogue to fold).
        let mut concat = MatF32::zeros(seq, heads * hd);
        for hi in 0..heads {
            let qh = slice_cols(&q, hi * hd, hd);
            let kh = slice_cols(&k, hi * hd, hd);
            let vh = slice_cols(&v, hi * hd, hd);
            let t = Instant::now();
            let mut scores = self.matmul(&qh, &kh.transpose());
            self.note_fusion_miss();
            self.tel_node(&format!("h{hi}.scores"), t);
            let t = Instant::now();
            self.softmax_rows(&mut scores);
            self.tel_node(&format!("h{hi}.softmax"), t);
            let t = Instant::now();
            let ctx = self.matmul(&scores, &vh);
            self.note_fusion_miss();
            self.tel_node(&format!("h{hi}.ctx"), t);
            write_cols(&mut concat, hi * hd, &ctx);
        }

        self.absorb_weight_prefetch(prefetch);

        // Output projection + first residual.
        let res1 = self.planned_residual(plan.fuse_wo_residual, &blk.attn.wo, &concat, x, "wo");

        let t = Instant::now();
        let mut h2 = res1.clone();
        self.layernorm(&mut h2, &blk.ln2.gamma, &blk.ln2.beta, blk.ln2.eps);
        self.tel_node("ln2", t);

        // MLP. fc1 drains bias+GELU to f32 and fc2 packs that with the
        // lane quantiser: the host runs the planner's `BiasGeluRequant`
        // edge as drain → quantize-pack (the planner prices the paper's
        // on-chip converter; on the host the f32 round trip costs level).
        let t = Instant::now();
        let fused = if plan.fuse_fc1_gelu {
            let p2 = self.pack_lhs_timed(&h2);
            p2.and_then(|p2| self.fused_linear(&p2, &blk.fc1, Drain::BiasGelu)).ok()
        } else {
            None
        };
        let mid = match fused {
            Some(mid) => {
                self.tel_node("fc1+gelu", t);
                mid
            }
            None => {
                self.note_fusion_miss();
                let mut mid = blk.fc1.forward(self, &h2);
                self.tel_node("fc1", t);
                let t = Instant::now();
                self.gelu(&mut mid);
                self.tel_node("gelu", t);
                mid
            }
        };
        self.planned_residual(plan.fuse_fc2_residual, &blk.fc2, &mid, &res1, "fc2")
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
        // Packed fast path: fused-quantize the activation side, resolve
        // the RHS through the weight-plan cache, and run the (sharded)
        // packed kernel — bit-identical to `BfpMatrix::try_matmul`, so
        // caching, fusing, and threading change wall-clock only, never a
        // single output bit.
        #[cfg(feature = "telemetry")]
        let _mm_span = self.tel.as_ref().map(|tel| {
            let mut sp = tel.tracer.span("engine.matmul", "engine");
            sp.set_arg("m", a.rows() as u64);
            sp.set_arg("k", a.cols() as u64);
            sp.set_arg("n", b.cols() as u64);
            sp
        });
        #[cfg(feature = "telemetry")]
        let sat0 = bfp_arith::telemetry::saturation_count();
        self.note_lhs_pack(a);
        let t0 = Instant::now();
        let pa = match self.epilogue {
            Epilogue::Fused => PackedBfp::quantize_pack_lhs(&self.quantizer, a),
            Epilogue::Reference => self
                .quantizer
                .quantize_reference(a)
                .map(|qa| PackedBfp::pack_lhs(&qa)),
        };
        let pa = match pa {
            Ok(pa) => pa,
            // A non-finite operand cannot be expressed in bfp8; degrade
            // this GEMM to the fp32 reference path and count it, matching
            // the per-layer fallback policy of the scheduler.
            Err(_) => {
                self.census.fp32_fallbacks += 1;
                self.tel_fallback();
                return a.matmul(b);
            }
        };
        let macs = (a.rows() * a.cols() * b.cols()) as u64;
        let threads = self.gemm_threads_for(macs);
        let gemm = match self.rhs_plan(b) {
            Ok(pb) => {
                let t1 = Instant::now();
                Some((pa.matmul_parallel(pb, threads), t1))
            }
            Err(_) => None,
        };
        // Any failure past quantization (operand shape/side/block errors)
        // degrades to the counted fp32 fallback — same contract as the
        // quantization arms above, never a panic of this layer's making.
        let Some((result, t1)) = gemm else {
            self.census.fp32_fallbacks += 1;
            self.tel_fallback();
            return a.matmul(b);
        };
        let out = match result {
            Ok(out) => out,
            Err(_) => {
                self.census.fp32_fallbacks += 1;
                self.tel_fallback();
                return a.matmul(b);
            }
        };
        self.phase.quantize_pack += t1.duration_since(t0);
        self.phase.gemm += t1.elapsed();
        self.census.matmul_macs += macs;
        #[cfg(feature = "telemetry")]
        if let Some(tel) = &self.tel {
            let t2 = Instant::now();
            // The gemm interval covers the packed kernel end to end:
            // int8 MACs, aligned accumulate, and the dequantize epilogue.
            tel.tracer.complete_between("quantize_pack", "engine", t0, t1);
            tel.tracer
                .complete_between_with("gemm", "engine", t1, t2, vec![("macs", macs)]);
            tel.gemms.inc();
            tel.macs.add(macs);
            tel.quantize_pack_ns
                .record_duration(t1.duration_since(t0));
            tel.gemm_ns.record_duration(t2.duration_since(t1));
            // Saturation is a process-wide tally (the quantizer is deep
            // below this crate); the delta attributes this GEMM's share,
            // exactly under single-engine use and approximately when
            // several engines quantize concurrently.
            tel.saturated
                .add(bfp_arith::telemetry::saturation_count().saturating_sub(sat0));
        }
        out
    }

    fn softmax_rows(&mut self, m: &mut MatF32) {
        let t0 = Instant::now();
        let cols = m.cols();
        if cols == 0 {
            return;
        }
        let division = self.division;
        let mode = self.nonlinear;
        let threads = self.vpu_threads_for(m.rows() * cols);
        let delta = self.vpu_parallel(m.data_mut(), cols, threads, |vpu, shard| {
            vpu.softmax_rows_batch(shard, cols, division, mode)
        });
        self.census.softmax.merge(&delta);
        if mode == NonlinearMode::Fast {
            self.tel_fast_mix(&delta);
        }
        self.phase.softmax += t0.elapsed();
        self.tel_phase("vpu.softmax", t0);
    }

    fn gelu(&mut self, m: &mut MatF32) {
        let t0 = Instant::now();
        let division = self.division;
        let mode = self.nonlinear;
        let threads = self.vpu_threads_for(m.rows() * m.cols());
        let delta = self.vpu_parallel(m.data_mut(), 1, threads, |vpu, shard| {
            vpu.gelu_slice(shard, division, mode)
        });
        self.census.gelu.merge(&delta);
        if mode == NonlinearMode::Fast {
            self.tel_fast_mix(&delta);
        }
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
        let threads = self.vpu_threads_for(m.rows() * cols);
        let delta = self.vpu_parallel(m.data_mut(), cols, threads, |vpu, shard| {
            vpu.layernorm_rows_batch(shard, cols, gamma, beta, eps, division, mode)
        });
        self.census.layernorm.merge(&delta);
        if mode == NonlinearMode::Fast {
            self.tel_fast_mix(&delta);
        }
        self.phase.layernorm += t0.elapsed();
        self.tel_phase("vpu.layernorm", t0);
    }

    fn forward_block_planned(&mut self, block: &Block, x: &MatF32) -> Option<MatF32> {
        let plan = self.vit_plan?;
        // The reference epilogue *is* the oracle configuration; it never
        // routes through the compiled plan even if one is installed.
        if self.epilogue != Epilogue::Fused {
            return None;
        }
        Some(self.forward_block_compiled(block, x, plan))
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
    use crate::vpu::cost;
    use bfp_arith::stats::ErrorStats;

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
        use crate::config::VitConfig;
        use crate::model::VitModel;
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
        let bits_eq = |x: &MatF32, y: &MatF32| {
            x.data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        };
        let got = e.matmul(&a, &b);
        // Falls back to the reference fp32 path instead of panicking…
        assert!(bits_eq(&got, &a.matmul(&b)));
        // …and the census records the degradation, with no bfp8 MACs.
        assert_eq!(e.census().fp32_fallbacks, 1);
        assert_eq!(e.census().matmul_macs, 0);

        let mut i8e = Int8Engine::new();
        let got = i8e.matmul(&a, &b);
        assert!(bits_eq(&got, &a.matmul(&b)));
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
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let model = {
            let mut m = VitModel::new_random(VitConfig::tiny_test(), 13);
            // Make a few fc1 output channels hot: downstream activations
            // develop the outlier pattern real Transformers show.
            for blk in &mut m.blocks {
                let cols = blk.fc1.w.cols();
                for i in 0..blk.fc1.w.rows() {
                    for j in (0..cols).step_by(17) {
                        let v = blk.fc1.w.get(i, j);
                        blk.fc1.w.set(i, j, v * 24.0);
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
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let model = VitModel::new_random(VitConfig::tiny_test(), 29);
        let x = model.synthetic_input(5);

        let mut cached = MixedEngine::new();
        let mut uncached = MixedEngine::without_weight_cache();
        // Run the cached engine twice so the second pass is served from
        // the plan cache; all three outputs must agree bit-for-bit.
        let first = model.forward(&mut cached, &x);
        let warm = model.forward(&mut cached, &x);
        let cold = model.forward(&mut uncached, &x);
        let stats = cached.plan_cache_stats();
        assert!(stats.hits > 0, "second pass must hit the cache: {stats:?}");
        for ((a, b), c) in first.data().iter().zip(warm.data()).zip(cold.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
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
        assert_eq!(e.plan_cache_stats().hits, 1);
        assert_eq!(e.plan_cache_stats().misses, 1);
    }

    #[test]
    fn weight_plans_are_reused_across_tokens_and_reported() {
        let mut e = MixedEngine::new();
        let w = MatF32::from_fn(16, 16, |i, j| ((i * j) as f32 * 0.01).sin());
        for t in 0..5 {
            let x = MatF32::from_fn(4, 16, |i, j| (i + j + t) as f32 * 0.1);
            let _ = e.matmul(&x, &w);
        }
        let s = e.plan_cache_stats();
        assert_eq!(s.misses, 1, "the constant weight quantizes once: {s:?}");
        assert_eq!(s.hits, 4);
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0);
        e.clear_weight_cache();
        assert_eq!(e.plan_cache_stats().entries, 0);
    }

    #[test]
    fn plan_cache_eviction_keeps_hot_entries_bounded() {
        let mut e = MixedEngine::new();
        let x = MatF32::from_fn(2, 8, |i, j| (i + j) as f32 * 0.3);
        let hot = MatF32::from_fn(8, 8, |i, j| (i * 8 + j) as f32 * 0.05);
        // Interleave one hot weight with a churn of one-shot matrices.
        for n in 0..(3 * PLAN_CACHE_CAP as u32) {
            let _ = e.matmul(&x, &hot);
            let churn = MatF32::from_fn(8, 8, |i, j| (i * 8 + j) as f32 + n as f32 * 0.7);
            let _ = e.matmul(&x, &churn);
        }
        let s = e.plan_cache_stats();
        assert!(
            s.entries <= PLAN_CACHE_CAP + 1,
            "cache stays bounded: {s:?}"
        );
        assert!(s.evictions > 0, "churn must be swept: {s:?}");
        assert!(
            s.hits >= 3 * PLAN_CACHE_CAP as u64 - 1,
            "hot weight survives sweeps: {s:?}"
        );
    }

    #[test]
    fn plan_cache_stats_display_reports_evictions() {
        let s = PlanCacheStats {
            hits: 9,
            misses: 4,
            evictions: 3,
            entries: 2,
            bytes: 640,
        };
        let text = s.to_string();
        assert!(text.contains("evictions"), "{text}");
        assert!(text.contains("weight-plan cache"), "{text}");
        // One data row carrying the counter values, in header order.
        let row = text.lines().nth(4).expect("data row");
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        assert_eq!(cells, ["9", "4", "3", "2", "640"], "{text}");
    }

    #[test]
    fn plan_cache_stats_publish_lands_in_registry() {
        let s = PlanCacheStats {
            hits: 9,
            misses: 4,
            evictions: 3,
            entries: 2,
            bytes: 640,
        };
        let reg = Registry::new();
        s.publish(&reg);
        s.publish(&reg); // idempotent: gauges overwrite
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("plan_cache_hits 9"), "{text}");
        assert!(text.contains("plan_cache_resident_bytes 640"), "{text}");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn attached_telemetry_records_spans_and_counters() {
        use bfp_telemetry::EventKind;
        let reg = Registry::new();
        let tracer = Tracer::new();
        let mut e = MixedEngine::new();
        e.attach_telemetry(tracer.clone(), &reg);
        let a = MatF32::from_fn(16, 16, |i, j| ((i * 16 + j) as f32 * 0.01).sin());
        let _ = e.matmul(&a, &a);
        let _ = e.matmul(&a, &a); // second RHS resolve hits the cache
        let mut m = MatF32::from_fn(4, 16, |i, j| (i + j) as f32 * 0.1);
        e.softmax_rows(&mut m);

        assert_eq!(reg.counter("engine_gemms_total").get(), 2);
        assert_eq!(reg.counter("engine_macs_total").get(), 2 * 16 * 16 * 16);
        assert_eq!(reg.counter("engine_plan_cache_hits_total").get(), 1);
        assert_eq!(reg.counter("engine_plan_cache_misses_total").get(), 1);
        assert_eq!(reg.histogram("engine_gemm_ns").count(), 2);

        let events = tracer.drain();
        let matmuls: Vec<_> = events.iter().filter(|e| e.name == "engine.matmul").collect();
        assert_eq!(matmuls.len(), 2);
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

    #[cfg(feature = "telemetry")]
    #[test]
    fn fast_mix_counters_equal_census() {
        // The engine_fast_nl_* registry counters and the OpCensus are
        // accumulated by independent code paths (tel_fast_mix vs the
        // census merge); after any Fast-mode workload they must agree,
        // which is what lets operators cross-check live telemetry
        // against the modelled VPU cycle cost.
        let reg = Registry::new();
        let tracer = Tracer::new();
        let mut e = MixedEngine::fast_nonlinear().with_threads(3);
        e.attach_telemetry(tracer, &reg);
        let mut m = MatF32::from_fn(17, 33, |i, j| ((i * 33 + j) as f32 * 0.03).sin() * 4.0);
        e.softmax_rows(&mut m);
        e.gelu(&mut m);
        let gamma = vec![1.0; 33];
        let beta = vec![0.0; 33];
        e.layernorm(&mut m, &gamma, &beta, 1e-5);

        let c = e.take_census();
        let mut mix = c.softmax;
        mix.merge(&c.gelu);
        mix.merge(&c.layernorm);
        assert!(mix.lut > 0, "fast path must take LUT hits: {mix:?}");
        assert_eq!(reg.counter("engine_fast_nl_fp_mul_total").get(), mix.fp_mul);
        assert_eq!(reg.counter("engine_fast_nl_fp_add_total").get(), mix.fp_add);
        assert_eq!(
            reg.counter("engine_fast_nl_exp_adjust_total").get(),
            mix.exp_adjust
        );
        assert_eq!(reg.counter("engine_fast_nl_lut_total").get(), mix.lut);
    }

    #[test]
    fn eviction_under_all_hot_pressure_is_deterministic() {
        // Fill the cache past capacity with entries that are ALL hot at
        // sweep time: the sweep alone cannot make room and the engine
        // must choose victims. Two engines (distinct HashMap seeds) fed
        // the identical workload must evict the identical entries — the
        // content-key tie-break, observable through subsequent hit/miss
        // patterns.
        let weights: Vec<MatF32> = (0..PLAN_CACHE_CAP + 8)
            .map(|n| MatF32::from_fn(8, 8, |i, j| (i * 8 + j) as f32 * 0.01 + n as f32))
            .collect();
        let x = MatF32::from_fn(2, 8, |i, j| (i + j) as f32 * 0.1);
        let run = |e: &mut MixedEngine| -> Vec<u64> {
            // Touch every weight twice so every entry is hot, overflowing
            // the cap and forcing tie-break evictions along the way.
            for w in &weights {
                let _ = e.matmul(&x, w);
                let _ = e.matmul(&x, w);
            }
            // Probe: which of the first 16 weights survived?
            (0..16)
                .map(|i| {
                    let before = e.plan_cache_stats().hits;
                    let _ = e.matmul(&x, &weights[i]);
                    e.plan_cache_stats().hits - before
                })
                .collect()
        };
        let mut e1 = MixedEngine::new();
        let mut e2 = MixedEngine::new();
        let (p1, p2) = (run(&mut e1), run(&mut e2));
        assert_eq!(p1, p2, "survivor set must not depend on map seeding");
        let (s1, s2) = (e1.plan_cache_stats(), e2.plan_cache_stats());
        assert_eq!(s1, s2);
        assert!(s1.evictions > 0, "pressure must evict: {s1:?}");
        assert!(s1.entries < PLAN_CACHE_CAP + 1, "cache stays bounded");
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
        use crate::config::VitConfig;
        use crate::model::VitModel;
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
        use crate::config::VitConfig;
        use crate::model::VitModel;
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
    #[should_panic(expected = "pack thread blew up")]
    fn a_panicked_weight_prefetch_is_re_raised_not_swallowed() {
        let handle = std::thread::spawn(|| panic!("pack thread blew up"));
        MixedEngine::new().absorb_weight_prefetch(Some(handle));
    }

    #[test]
    fn parallel_census_matches_serial_census() {
        // OpCounts are merged from per-shard VPUs in shard order; the
        // totals must agree exactly with the single-thread counts even
        // when the batch is large enough to actually fork.
        let n = 192; // 36 864 elements: two shards of VPU_PARALLEL_ELEMS
        assert!(n * n >= 2 * VPU_PARALLEL_ELEMS);
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
        assert_eq!(e.phase_times(), PhaseTimes::default());
    }

    #[test]
    fn compiled_plan_is_bit_identical_to_hand_wired_for_full_model() {
        // The tentpole invariant: routing `Block::forward` through the
        // compiled plan (shared q/k/v pack, fused bias / bias+GELU /
        // bias+residual drains) changes
        // wall-clock only — never an output bit, never a census count —
        // for either nonlinear family, any thread budget, and both the
        // all-on and all-off plans.
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let model = VitModel::new_random(VitConfig::tiny_test(), 11);
        let x = model.synthetic_input(12);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            let mut oracle = MixedEngine::new().with_threads(1).with_nonlinear(mode);
            let want = model.forward(&mut oracle, &x);
            let want_census = oracle.census();
            for threads in [1usize, 2, 4] {
                for plan in [CompiledVitPlan::fuse_all(), CompiledVitPlan::unfused()] {
                    let mut e = MixedEngine::new()
                        .with_threads(threads)
                        .with_nonlinear(mode)
                        .with_vit_plan(plan);
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
            }
        }
    }

    #[test]
    fn node_timing_accumulates_only_when_enabled() {
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 31);
        let x = model.synthetic_input(5);

        // Off by default: the compiled path records nothing.
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        assert!(!e.node_timing_enabled());
        let _ = model.forward(&mut e, &x);
        assert!(e.take_node_times().is_empty());

        e.enable_node_timing();
        let _ = model.forward(&mut e, &x);
        let times = e.take_node_times();
        for key in ["ln1", "wq", "wk", "wv", "h0.softmax", "wo", "ln2", "fc1+gelu", "fc2"] {
            let t = times.get(key).unwrap_or_else(|| panic!("missing node {key}"));
            assert_eq!(t.samples, cfg.depth as u64, "{key}");
            assert!(t.seconds > 0.0, "{key}");
        }
        // The fused plan never runs a standalone gelu node.
        assert!(!times.contains_key("gelu"));
        // take_ drains but leaves timing armed.
        assert!(e.node_timing_enabled());
        let _ = model.forward(&mut e, &x);
        assert!(!e.take_node_times().is_empty());
    }

    #[test]
    fn fusion_counters_split_hits_and_misses_per_plan() {
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 23);
        let x = model.synthetic_input(3);
        let blocks = cfg.depth as u64;
        let per_head = 2 * cfg.heads as u64; // scores + ctx per head

        let mut fused = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        let _ = model.forward(&mut fused, &x);
        assert_eq!(
            fused.fusion_stats(),
            (
                CompiledVitPlan::fuse_all().fused_gemms_per_block() * blocks,
                per_head * blocks
            )
        );

        let mut unfused = MixedEngine::new().with_vit_plan(CompiledVitPlan::unfused());
        let _ = model.forward(&mut unfused, &x);
        // Every GEMM is a miss under the all-off plan: 6 projections plus
        // the per-head pairs, per block.
        assert_eq!(unfused.fusion_stats(), (0, (6 + per_head) * blocks));

        let mut planless = MixedEngine::new();
        let _ = model.forward(&mut planless, &x);
        assert_eq!(planless.fusion_stats(), (0, 0));
    }

    #[test]
    fn shared_qkv_pack_saves_exactly_two_lhs_packs_per_block() {
        // The deterministic twin of the old pack-time A/B: a plan that
        // does not share the q/k/v pack packs exactly what the plan-less
        // engine packs, and `fuse_all` packs `2·seq·dim` fewer elements
        // in two fewer calls per block — nothing else differs.
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 43);
        let x = model.synthetic_input(8);
        let (depth, tile) = (cfg.depth as u64, (cfg.seq * cfg.dim) as u64);
        for mode in [NonlinearMode::Exact, NonlinearMode::Fast] {
            for threads in [1usize, 2] {
                let packs = |plan: Option<CompiledVitPlan>| {
                    let mut e = MixedEngine::new().with_threads(threads).with_nonlinear(mode);
                    if let Some(plan) = plan {
                        e.install_vit_plan(plan);
                    }
                    let _ = model.forward(&mut e, &x);
                    e.lhs_pack_stats()
                };
                let planless = packs(None);
                // Per block: q, k, v, wo, fc1, fc2 and two per head.
                assert_eq!(planless.0, (6 + 2 * cfg.heads as u64) * depth);
                let unshared = CompiledVitPlan { fuse_qkv: false, ..CompiledVitPlan::fuse_all() };
                assert_eq!(packs(Some(unshared)), planless, "{mode:?} {threads}t");
                assert_eq!(packs(Some(CompiledVitPlan::unfused())), planless);
                let fused = packs(Some(CompiledVitPlan::fuse_all()));
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
        use crate::config::VitConfig;
        use crate::model::VitModel;
        for (wscale, xscale) in [(1.0e3f32, 1.0f32), (1.0f32, 1.0e-38f32), (64.0, 1.0e-20)] {
            let mut model = VitModel::new_random(VitConfig::tiny_test(), 41);
            for blk in &mut model.blocks {
                for v in blk.fc1.w.data_mut() {
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
        // A non-finite weight makes every GEMM against it unquantizable:
        // the planned path must replay the same counted fp32 fallbacks and
        // produce the same bits as the hand-wired path.
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let mut model = VitModel::new_random(VitConfig::tiny_test(), 17);
        model.blocks[0].fc2.w.set(0, 0, f32::INFINITY);
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
        assert_eq!(oracle.census().fp32_fallbacks, 1 + per_block * (cfg.depth as u64 - 1));
        assert_eq!(
            e.fusion_stats(),
            (5, 1 + 2 * cfg.heads as u64 + per_block * (cfg.depth as u64 - 1))
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn compiled_plan_emits_node_spans_and_fusion_counters() {
        use crate::config::VitConfig;
        use crate::model::VitModel;
        let cfg = VitConfig::tiny_test();
        let model = VitModel::new_random(cfg, 7);
        let x = model.synthetic_input(2);
        let reg = Registry::new();
        let tracer = Tracer::new();
        let mut e = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        e.attach_telemetry(tracer.clone(), &reg);
        let _ = model.forward(&mut e, &x);

        let (hits, misses) = e.fusion_stats();
        assert_eq!(reg.counter("engine_fusion_hits_total").get(), hits);
        assert_eq!(reg.counter("engine_fusion_misses_total").get(), misses);

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
        for want in ["plan.node.ln1", "plan.node.wq", "plan.node.fc1+gelu", "plan.node.fc2"] {
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
