//! `e2e` — phase-timed end-to-end DeiT inference bench.
//!
//! Measures images/s and the per-phase wall-clock split (quantize/pack,
//! GEMM, softmax, GELU, LayerNorm, residual/misc) for:
//!
//! * the **baseline** engine — single-threaded, composed quantize→pack
//!   epilogue, VPU multiplies through the partial-product enumeration
//!   (the pre-optimisation execution model, kept runnable on purpose);
//! * the **exact** fast path at 1, 2, 4, and 8 threads (fused epilogue,
//!   sharded GEMM + VPU kernels, closed-form multiplier, bit-exact
//!   nonlinear kernels);
//! * the **fast-nonlinear** path at the same thread counts
//!   (`NonlinearMode::Fast`: LUT/polynomial GELU–exp–rsqrt on a modelled
//!   nonlinear unit — see DESIGN.md for its tested ULP envelope).
//!
//! The fast-path engines run under the **compiled fusion plan**: the
//! core planner lowers the bench model to the graph IR, pattern-matches
//! the GEMM→bias→GELU and GEMM→bias→residual chains, and the distilled
//! [`CompiledVitPlan`] routes every block through the fused drain
//! kernels (shared q/k/v pack, requantizing fc1→fc2 edge). A dedicated
//! fused-vs-unfused A/B pair measures what the plan buys and lands in
//! the JSON's `fusion` block, together with the planner's per-node
//! decisions and priced cycle variants.
//!
//! Every exact configuration's logits are checked **bit-identical** to
//! the baseline before any number is written. Fast-nonlinear logits are
//! checked identical across thread counts (sharding stays bit-invariant)
//! and reported against the baseline as a measured error envelope
//! (max ULP / max abs / SQNR). Both thread sweeps are gated monotone:
//! more budget must never cost throughput beyond noise tolerance — the
//! regression that flat-lined the PR-6 sweep. Results land in
//! `BENCH_E2E.json` (schema `bench_e2e/v4`).
//!
//! A dedicated **drift attribution** pass re-runs the compiled plan with
//! per-node wall timing armed and calibrates the planner's cycle prices
//! against measured host seconds ([`bfp_core::attribute_plan_drift`]):
//! the JSON's `drift` block carries the calibration factor, every
//! priced-and-measured node's drift ratio, and the top mispriced nodes.
//! The bench gates coverage (every priced node measured) and the
//! documented mispricing tolerance (see DESIGN.md "Observability").
//!
//! ```sh
//! cargo run --release -p bfp-bench --bin e2e            # full run
//! cargo run --release -p bfp-bench --bin e2e -- --quick # CI smoke
//! cargo run --release -p bfp-bench --bin e2e -- --out /tmp/e.json
//! # Chrome-trace (Perfetto) export of one traced inference pass;
//! # requires the `telemetry` feature:
//! cargo run --release -p bfp-bench --features telemetry --bin e2e -- \
//!     --quick --trace-out trace.json
//! ```
//!
//! The traced pass runs *after* (and separate from) the timed sweep, so
//! `--trace-out` never perturbs the published numbers.

use std::fmt::Write as _;
use std::time::Instant;

use bfp_arith::ulp::{EnvelopeStats, UlpEnvelope};
use bfp_core::prelude::System;
use bfp_core::{lower_vit, plan_fusion, FuseDecision, FuseKind, FusePlan, Table};
use bfp_telemetry::PlanDriftReport;
use bfp_transformer::{
    CompiledVitPlan, DeitConfig, DeitModel, Image, MixedEngine, NonlinearMode, OpCensus,
    PhaseTimes, VitConfig,
};

/// Cycle-price drift tolerance on the clean bench encoder: after
/// calibration, every plan node's measured/predicted ratio must stay
/// within this factor of 1 (cycle-weighted; see DESIGN.md
/// "Observability" for the measured headroom behind the number).
const DRIFT_TOLERANCE: f64 = 16.0;

/// The bench model: a scaled-down DeiT (same shape family as the paper's
/// DeiT-Small target, sized so the full sweep finishes in seconds).
fn bench_config() -> DeitConfig {
    DeitConfig {
        vit: VitConfig {
            dim: 128,
            depth: 4,
            heads: 4,
            mlp_ratio: 4,
            seq: 17,
        },
        patch: 16,
        channels: 3,
        img: 64,
        classes: 10,
    }
}

struct E2eRow {
    label: String,
    threads: usize,
    nonlinear: NonlinearMode,
    images_per_s: f64,
    wall_ms: f64,
    phases: PhaseTimes,
    misc_ms: f64,
    /// Fused-kernel GEMMs vs composed GEMMs over the timed passes.
    fusion_hits: u64,
    fusion_misses: u64,
    /// Minimum quantize-pack phase time across all timed passes (ms).
    /// The pack work per pass is deterministic, so the minimum is the
    /// lowest-noise estimate of its true cost — the A/B reduction metric
    /// uses this rather than the best-throughput pass's (possibly noisy)
    /// phase split.
    qp_min_ms: f64,
}

impl E2eRow {
    /// Name of the phase with the largest wall-clock share.
    fn largest_phase(&self) -> &'static str {
        let p = &self.phases;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let mut best = ("quantize_pack", ms(p.quantize_pack));
        for (name, v) in [
            ("gemm", ms(p.gemm)),
            ("softmax", ms(p.softmax)),
            ("gelu", ms(p.gelu)),
            ("layernorm", ms(p.layernorm)),
            ("misc", self.misc_ms),
        ] {
            if v > best.1 {
                best = (name, v);
            }
        }
        best.0
    }
}

/// Run `passes` timed sweeps of `images` inferences on `engine` (after a
/// one-image warmup that also fills the weight-plan cache), keeping the
/// best-throughput pass — the pass least perturbed by host noise; the
/// shared runners this bench lives on swing 30%+ between identical
/// passes. Returns the best pass's throughput row, the logits of every
/// image for equivalence checking (identical across passes — the engine
/// is deterministic), and that pass's VPU op census.
fn run(
    label: &str,
    mut engine: MixedEngine,
    imgs: &[Image],
    model: &DeitModel,
    passes: usize,
) -> (E2eRow, Vec<Vec<f32>>, OpCensus) {
    std::hint::black_box(model.forward(&mut engine, &imgs[0]));
    let _ = engine.take_phase_times();
    let _ = engine.take_census();
    let threads = engine.threads();
    let mut best: Option<(E2eRow, Vec<Vec<f32>>, OpCensus)> = None;
    let mut qp_min_ms = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let (warm_hits, warm_misses) = engine.fusion_stats();
        let t0 = Instant::now();
        let logits: Vec<Vec<f32>> = imgs
            .iter()
            .map(|img| model.forward(&mut engine, img))
            .collect();
        let wall = t0.elapsed();
        let phases = engine.take_phase_times();
        let census = engine.take_census();
        let (hits, misses) = engine.fusion_stats();
        qp_min_ms = qp_min_ms.min(phases.quantize_pack.as_secs_f64() * 1e3);
        let row = E2eRow {
            label: label.to_string(),
            threads,
            nonlinear: engine.nonlinear_mode(),
            images_per_s: imgs.len() as f64 / wall.as_secs_f64(),
            wall_ms: wall.as_secs_f64() * 1e3,
            phases,
            misc_ms: (wall.saturating_sub(phases.accounted())).as_secs_f64() * 1e3,
            fusion_hits: hits - warm_hits,
            fusion_misses: misses - warm_misses,
            qp_min_ms: 0.0,
        };
        if best
            .as_ref()
            .is_none_or(|(b, _, _)| row.images_per_s > b.images_per_s)
        {
            best = Some((row, logits, census));
        }
    }
    let mut best = best.expect("at least one pass");
    best.0.qp_min_ms = qp_min_ms;
    best
}

fn assert_bit_identical(label: &str, got: &[Vec<f32>], want: &[Vec<f32>]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label}: image {i} logit count");
        for (j, (x, y)) in g.iter().zip(w).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}: image {i} logit {j} diverged from baseline: {x} vs {y}"
            );
        }
    }
}

/// Gate a thread sweep monotone-within-noise: adding budget must never
/// drop throughput below `tol` × the best seen at a smaller budget (on a
/// core-starved host every budget clamps to the same effective threads,
/// so rows must agree to within timing noise).
fn assert_monotone(sweep: &[E2eRow], tol: f64) {
    let mut best = 0.0f64;
    for r in sweep {
        assert!(
            r.images_per_s >= tol * best,
            "thread sweep regressed: {} at {:.2} img/s vs best {:.2} (tolerance {tol})",
            r.label,
            r.images_per_s,
            best
        );
        best = best.max(r.images_per_s);
    }
}

/// Measured fast-vs-baseline logit divergence for the JSON report.
struct LogitEnvelope {
    max_ulp: u64,
    max_abs: f32,
    sqnr_db: f64,
}

fn logit_envelope(fast: &[Vec<f32>], base: &[Vec<f32>]) -> LogitEnvelope {
    // The per-kernel ULP envelopes (tests/nonlinear_ulp.rs) do not
    // survive the network: bfp8 requantization snaps each GEMM input to
    // a discrete grid, so a sub-ulp nonlinear difference can flip a
    // mantissa rounding and grow by a quantization step per layer. The
    // end-to-end contract is therefore absolute + SQNR: measured
    // max_abs 2.1e-2 / 37.6 dB on the full run, gated with headroom.
    let env = UlpEnvelope::new(1 << 23, 0.05);
    let mut s = EnvelopeStats::new();
    for (g, w) in fast.iter().zip(base) {
        for (x, y) in g.iter().zip(w) {
            assert!(
                s.record(*x, *y, &env),
                "fast-nonlinear logit outside end-to-end envelope: {x} vs {y}"
            );
        }
    }
    assert!(
        s.sqnr_db() > 30.0,
        "fast-nonlinear logit SQNR too low: {:.1} dB",
        s.sqnr_db()
    );
    LogitEnvelope {
        max_ulp: s.max_ulp,
        max_abs: s.max_abs,
        sqnr_db: s.sqnr_db(),
    }
}

fn phases_json(s: &mut String, row: &E2eRow, indent: &str) {
    let p = &row.phases;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let _ = writeln!(s, "{indent}\"phases_ms\": {{");
    let _ = writeln!(s, "{indent}  \"quantize_pack\": {:.3},", ms(p.quantize_pack));
    let _ = writeln!(s, "{indent}  \"gemm\": {:.3},", ms(p.gemm));
    let _ = writeln!(s, "{indent}  \"softmax\": {:.3},", ms(p.softmax));
    let _ = writeln!(s, "{indent}  \"gelu\": {:.3},", ms(p.gelu));
    let _ = writeln!(s, "{indent}  \"layernorm\": {:.3},", ms(p.layernorm));
    let _ = writeln!(s, "{indent}  \"misc\": {:.3}", row.misc_ms);
    let _ = writeln!(s, "{indent}}},");
}

fn row_json(s: &mut String, row: &E2eRow, indent: &str, last: bool) {
    let _ = writeln!(s, "{indent}{{");
    let _ = writeln!(s, "{indent}  \"label\": \"{}\",", row.label);
    let _ = writeln!(s, "{indent}  \"threads\": {},", row.threads);
    let _ = writeln!(s, "{indent}  \"nonlinear\": \"{}\",", row.nonlinear.as_str());
    let _ = writeln!(s, "{indent}  \"fusion_hits\": {},", row.fusion_hits);
    let _ = writeln!(s, "{indent}  \"fusion_misses\": {},", row.fusion_misses);
    let _ = writeln!(s, "{indent}  \"largest_phase\": \"{}\",", row.largest_phase());
    phases_json(s, row, &format!("{indent}  "));
    let _ = writeln!(s, "{indent}  \"wall_ms\": {:.3},", row.wall_ms);
    let _ = writeln!(s, "{indent}  \"images_per_s\": {:.3}", row.images_per_s);
    let _ = write!(s, "{indent}}}{}", if last { "\n" } else { ",\n" });
}

/// Fused-vs-unfused A/B measurement: same model, same thread budget, the
/// only difference is the compiled plan. Two operating points:
///
/// * **exact** — anchors bit-identity (both sides must match the scalar
///   oracle) and the quantize-pack phase reduction; its throughput delta
///   is modest because the exact GELU dominates and fusion cannot shrink
///   it;
/// * **fastnl** — the production operating point, where the pack-cycle
///   elimination is a visible fraction of the wall clock; the throughput
///   gate runs here.
struct FusionAb {
    unfused: E2eRow,
    fused: E2eRow,
    fastnl_unfused: E2eRow,
    fastnl_fused: E2eRow,
    /// Fused/unfused img/s at the exact operating point.
    speedup_exact: f64,
    /// Fused/unfused img/s at the fast-nonlinear operating point.
    speedup_fastnl: f64,
    quantize_pack_reduction: f64,
}

fn decision_str(d: FuseDecision) -> String {
    match d {
        FuseDecision::Standalone => "standalone".into(),
        FuseDecision::FusedGemm(FuseKind::BiasGelu) => "fused_gemm:bias_gelu".into(),
        FuseDecision::FusedGemm(FuseKind::BiasGeluRequant) => {
            "fused_gemm:bias_gelu_requant".into()
        }
        FuseDecision::FusedGemm(FuseKind::BiasResidual) => "fused_gemm:bias_residual".into(),
        FuseDecision::FusedInto(i) => format!("fused_into:{i}"),
        FuseDecision::SharedPack(g) => format!("shared_pack:{g}"),
    }
}

/// The `fusion` block: the planner's verdict (per-node decisions, priced
/// cycle variants) plus the measured fused-vs-unfused A/B.
fn fusion_json(s: &mut String, plan: &FusePlan, compiled: &CompiledVitPlan, ab: &FusionAb) {
    s.push_str("  \"fusion\": {\n");
    s.push_str("    \"plan\": {\n");
    let _ = writeln!(s, "      \"fuse_qkv\": {},", compiled.fuse_qkv);
    let _ = writeln!(s, "      \"fuse_wo_residual\": {},", compiled.fuse_wo_residual);
    let _ = writeln!(s, "      \"fuse_fc1_gelu\": {},", compiled.fuse_fc1_gelu);
    let _ = writeln!(s, "      \"fuse_fc2_residual\": {},", compiled.fuse_fc2_residual);
    let _ = writeln!(s, "      \"prefetch_weights\": {},", compiled.prefetch_weights);
    let _ = writeln!(
        s,
        "      \"fused_gemms_per_block\": {}",
        compiled.fused_gemms_per_block()
    );
    s.push_str("    },\n");
    s.push_str("    \"planner\": {\n");
    let _ = writeln!(s, "      \"fused_gemms\": {},", plan.fused_gemms);
    let _ = writeln!(s, "      \"absorbed_nodes\": {},", plan.absorbed_nodes);
    let _ = writeln!(s, "      \"shared_pack_groups\": {},", plan.shared_pack_groups);
    let _ = writeln!(s, "      \"pack_reduction\": {:.3},", plan.pack_reduction());
    s.push_str("      \"timing_cycles\": {\n");
    let _ = writeln!(s, "        \"unfused\": {:.0},", plan.timing.unfused_cycles);
    let _ = writeln!(s, "        \"fused\": {:.0},", plan.timing.fused_cycles);
    let _ = writeln!(
        s,
        "        \"double_buffered\": {:.0}",
        plan.timing.double_buffered_cycles
    );
    s.push_str("      }\n");
    s.push_str("    },\n");
    s.push_str("    \"nodes\": [\n");
    for (i, n) in plan.nodes.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"name\": \"{}\", \"decision\": \"{}\"}}{}",
            n.name,
            decision_str(n.decision),
            if i + 1 == plan.nodes.len() { "\n" } else { ",\n" }
        );
    }
    s.push_str("    ],\n");
    for (key, row) in [
        ("unfused", &ab.unfused),
        ("fused", &ab.fused),
        ("fastnl_unfused", &ab.fastnl_unfused),
        ("fastnl_fused", &ab.fastnl_fused),
    ] {
        let _ = write!(s, "    \"{key}\": ");
        let mut b = String::new();
        row_json(&mut b, row, "    ", true);
        s.push_str(b.trim_start());
        s.push_str(",\n");
    }
    let _ = writeln!(
        s,
        "    \"speedup_fused_vs_unfused\": {:.3},",
        ab.speedup_fastnl
    );
    let _ = writeln!(
        s,
        "    \"speedup_fused_vs_unfused_exact\": {:.3},",
        ab.speedup_exact
    );
    let _ = writeln!(
        s,
        "    \"quantize_pack_reduction_measured\": {:.3}",
        ab.quantize_pack_reduction
    );
    s.push_str("  },\n");
}

fn op_mix_json(s: &mut String, census: &OpCensus, indent: &str) {
    let mut total = census.softmax;
    total.merge(&census.gelu);
    total.merge(&census.layernorm);
    let _ = writeln!(s, "{indent}\"op_mix\": {{");
    let _ = writeln!(s, "{indent}  \"fp_mul\": {},", total.fp_mul);
    let _ = writeln!(s, "{indent}  \"fp_add\": {},", total.fp_add);
    let _ = writeln!(s, "{indent}  \"exp_adjust\": {},", total.exp_adjust);
    let _ = writeln!(s, "{indent}  \"cmp\": {},", total.cmp);
    let _ = writeln!(s, "{indent}  \"lut\": {},", total.lut);
    let _ = writeln!(s, "{indent}  \"host_div\": {},", total.host_div);
    let _ = writeln!(s, "{indent}  \"host_sqrt\": {}", total.host_sqrt);
    let _ = writeln!(s, "{indent}}},");
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    baseline: &E2eRow,
    exact_sweep: &[E2eRow],
    fast_sweep: &[E2eRow],
    fast_census: &OpCensus,
    envelope: &LogitEnvelope,
    plan: &FusePlan,
    compiled: &CompiledVitPlan,
    ab: &FusionAb,
    drift: &PlanDriftReport,
    images: usize,
    host_threads: usize,
    quick: bool,
) -> String {
    let speedup4 = exact_sweep
        .iter()
        .find(|r| r.threads == 4)
        .map(|r| r.images_per_s / baseline.images_per_s)
        .unwrap_or(0.0);
    let best = |rows: &[E2eRow]| {
        rows.iter()
            .map(|r| r.images_per_s)
            .fold(0.0f64, f64::max)
    };
    let speedup_fast = best(fast_sweep) / best(exact_sweep);
    let fast_largest = fast_sweep
        .iter()
        .max_by(|a, b| a.images_per_s.total_cmp(&b.images_per_s))
        .map(|r| r.largest_phase())
        .unwrap_or("none");
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"bench_e2e/v4\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"images\": {images},");
    let _ = writeln!(s, "  \"host_threads\": {host_threads},");
    let _ = writeln!(s, "  \"bit_identical\": true,");
    fusion_json(&mut s, plan, compiled, ab);
    s.push_str("  \"baseline\": ");
    {
        let mut b = String::new();
        row_json(&mut b, baseline, "  ", true);
        s.push_str(b.trim_start());
    }
    s.push_str(",\n  \"sweep\": [\n");
    for (i, r) in exact_sweep.iter().enumerate() {
        row_json(&mut s, r, "    ", i + 1 == exact_sweep.len());
    }
    s.push_str("  ],\n");
    s.push_str("  \"nonlinear\": {\n");
    let _ = writeln!(s, "    \"fast_mode\": \"{}\",", NonlinearMode::Fast.as_str());
    s.push_str("    \"fast_sweep\": [\n");
    for (i, r) in fast_sweep.iter().enumerate() {
        row_json(&mut s, r, "      ", i + 1 == fast_sweep.len());
    }
    s.push_str("    ],\n");
    op_mix_json(&mut s, fast_census, "    ");
    s.push_str("    \"logit_envelope\": {\n");
    let _ = writeln!(s, "      \"max_ulp\": {},", envelope.max_ulp);
    let _ = writeln!(s, "      \"max_abs\": {:.3e},", envelope.max_abs);
    let _ = writeln!(s, "      \"sqnr_db\": {:.1}", envelope.sqnr_db);
    s.push_str("    },\n");
    let _ = writeln!(s, "    \"largest_phase_fast\": \"{fast_largest}\",");
    let _ = writeln!(s, "    \"speedup_fast_vs_exact\": {speedup_fast:.2}");
    s.push_str("  },\n");
    s.push_str("  \"drift\": ");
    s.push_str(&drift.to_json(5));
    s.push_str(",\n");
    let _ = writeln!(s, "  \"speedup_vs_baseline_at_4_threads\": {speedup4:.2}");
    s.push_str("}\n");
    s
}

/// Run one fast-path inference pass with a tracer attached and write the
/// Chrome Trace Event JSON to `path`. Compiled out without `telemetry`
/// (the flag then exits with status 2 instead of silently writing an
/// empty trace).
#[cfg(feature = "telemetry")]
fn write_trace(path: &str, model: &DeitModel, imgs: &[Image]) {
    use bfp_telemetry::{Registry, Tracer};
    let tracer = Tracer::new();
    let reg = Registry::new();
    // Trace the fast-nonlinear path: its spans include the nonlinear-unit
    // op-mix counters (engine_fast_nl_*), the numbers DESIGN.md prices.
    let mut engine = MixedEngine::fast_nonlinear().with_threads(4);
    engine.attach_telemetry(tracer.clone(), &reg);
    for img in imgs {
        std::hint::black_box(model.forward(&mut engine, img));
    }
    std::fs::write(path, tracer.chrome_json()).expect("write trace JSON");
    println!(
        "wrote {path} (Chrome trace; metrics: {} counters)",
        reg.snapshot().counters.len()
    );
}

#[cfg(not(feature = "telemetry"))]
fn write_trace(_path: &str, _model: &DeitModel, _imgs: &[Image]) {
    eprintln!(
        "--trace-out requires the telemetry feature: \
         cargo run --release -p bfp-bench --features telemetry --bin e2e -- --trace-out <file>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_E2E.json".to_string());
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1).cloned());

    let images = if quick { 2 } else { 8 };
    // Best-of-N timed passes per configuration; see `run` — the gates
    // compare configurations against each other, so each side must be a
    // low-noise estimate or the comparison gates flake on shared hosts.
    let passes = if quick { 2 } else { 3 };
    // Quick mode runs on loaded CI runners; the full run publishes the
    // checked-in numbers from a quiet host.
    let sweep_tol = if quick { 0.65 } else { 0.80 };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let cfg = bench_config();
    cfg.validate().unwrap();
    let model = DeitModel::new_random(cfg, 3);
    let imgs: Vec<Image> = (0..images)
        .map(|s| Image::synthetic(3, cfg.img, cfg.img, s as u64))
        .collect();

    // Compile the fusion plan: lower the encoder to the graph IR, let the
    // planner price and pattern-match it, and distill the verdict into
    // the switch set the engine executes.
    let graph = lower_vit(&cfg.vit);
    let sys = System::paper();
    let fuse_plan = plan_fusion(&graph, &sys);
    let compiled = fuse_plan.compiled_vit_plan(&graph, &sys);

    println!(
        "end-to-end DeiT inference, {} images, {} host threads\n\
         fusion plan: {} fused GEMMs, {} shared-pack groups, \
         {:.0}% of quantize-pack cycles eliminated\n",
        images,
        host_threads,
        fuse_plan.fused_gemms,
        fuse_plan.shared_pack_groups,
        100.0 * fuse_plan.pack_reduction(),
    );

    let (baseline, base_logits, _) = run(
        "baseline_scalar",
        MixedEngine::baseline_scalar(),
        &imgs,
        &model,
        passes,
    );
    let mut exact_sweep = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (row, logits, _) = run(
            &format!("fast_{threads}t"),
            MixedEngine::new().with_threads(threads).with_vit_plan(compiled),
            &imgs,
            &model,
            passes,
        );
        // Hard gate: the compiled fused path must not move a single
        // logit bit against the hand-wired scalar oracle.
        assert_bit_identical(&row.label, &logits, &base_logits);
        exact_sweep.push(row);
    }
    assert_monotone(&exact_sweep, sweep_tol);

    let mut fast_sweep = Vec::new();
    let mut fast_logits: Option<Vec<Vec<f32>>> = None;
    let mut fast_census = OpCensus::default();
    for threads in [1usize, 2, 4, 8] {
        let (row, logits, census) = run(
            &format!("fastnl_{threads}t"),
            MixedEngine::fast_nonlinear()
                .with_threads(threads)
                .with_vit_plan(compiled),
            &imgs,
            &model,
            passes,
        );
        // Sharding stays bit-invariant inside the fast path too: every
        // thread budget must produce the same logits.
        match &fast_logits {
            None => fast_logits = Some(logits),
            Some(first) => assert_bit_identical(&row.label, &logits, first),
        }
        fast_census = census;
        fast_sweep.push(row);
    }
    assert_monotone(&fast_sweep, sweep_tol);
    let envelope = logit_envelope(fast_logits.as_ref().unwrap(), &base_logits);

    // Fused-vs-unfused A/B pairs at the single-thread operating point:
    // same engine, same model, the only difference is the compiled plan.
    // The exact pair anchors bit-identity against the scalar oracle and
    // the quantize-pack reduction; the fastnl pair is where fusion's
    // eliminated pack cycles show as throughput, so the speedup gate
    // runs there.
    let (unfused_row, unfused_logits, _) = run(
        "exact_unfused_1t",
        MixedEngine::new().with_threads(1),
        &imgs,
        &model,
        passes,
    );
    assert_bit_identical(&unfused_row.label, &unfused_logits, &base_logits);
    let (fused_row, fused_logits, _) = run(
        "exact_fused_1t",
        MixedEngine::new().with_threads(1).with_vit_plan(compiled),
        &imgs,
        &model,
        passes,
    );
    assert_bit_identical(&fused_row.label, &fused_logits, &base_logits);
    assert_eq!(unfused_row.fusion_hits, 0, "plan-less engine never fuses");
    assert!(fused_row.fusion_hits > 0, "compiled plan must hit");

    let (fnl_unfused_row, fnl_unfused_logits, _) = run(
        "fastnl_unfused_1t",
        MixedEngine::fast_nonlinear().with_threads(1),
        &imgs,
        &model,
        passes,
    );
    // Fusion must not move a fast-nonlinear bit either: both sides of
    // the fastnl pair must match the planned fastnl sweep exactly.
    assert_bit_identical(
        &fnl_unfused_row.label,
        &fnl_unfused_logits,
        fast_logits.as_ref().unwrap(),
    );
    let (fnl_fused_row, fnl_fused_logits, _) = run(
        "fastnl_fused_1t",
        MixedEngine::fast_nonlinear()
            .with_threads(1)
            .with_vit_plan(compiled),
        &imgs,
        &model,
        passes,
    );
    assert_bit_identical(
        &fnl_fused_row.label,
        &fnl_fused_logits,
        fast_logits.as_ref().unwrap(),
    );
    assert_eq!(fnl_unfused_row.fusion_hits, 0, "plan-less engine never fuses");
    assert!(fnl_fused_row.fusion_hits > 0, "compiled plan must hit");

    let ab = FusionAb {
        speedup_exact: fused_row.images_per_s / unfused_row.images_per_s,
        speedup_fastnl: fnl_fused_row.images_per_s / fnl_unfused_row.images_per_s,
        // Min-over-passes quantize-pack times at the production operating
        // point: the pack work is nonlinear-mode independent, and the
        // minimum filters host noise out of a millisecond-scale phase.
        quantize_pack_reduction: 1.0
            - fnl_fused_row.qp_min_ms / fnl_unfused_row.qp_min_ms.max(1e-9),
        unfused: unfused_row,
        fused: fused_row,
        fastnl_unfused: fnl_unfused_row,
        fastnl_fused: fnl_fused_row,
    };

    // Drift attribution: arm per-node wall timing on a fresh compiled
    // engine, run the image set once more (after a discarded warmup
    // pass), and calibrate the planner's cycle prices against the
    // measured seconds. Single-threaded so per-node wall time is the
    // node's own cost, not a sharded slice of it.
    let mut drift_engine = MixedEngine::new().with_threads(1).with_vit_plan(compiled);
    drift_engine.enable_node_timing();
    std::hint::black_box(model.forward(&mut drift_engine, &imgs[0]));
    let _ = drift_engine.take_node_times(); // discard the cold-cache warmup
    for img in &imgs {
        std::hint::black_box(model.forward(&mut drift_engine, img));
    }
    let node_times = drift_engine.take_node_times();
    let drift = bfp_core::attribute_plan_drift(&fuse_plan, &node_times);
    print!("{}", drift.to_table().render());

    // Coverage: every priced plan node must have been measured — a gap
    // means the engine and the planner disagree about what ran.
    assert!(
        drift.unmeasured.is_empty(),
        "priced plan nodes never measured: {:?}",
        drift.unmeasured
    );
    assert!(
        drift.unpriced.is_empty(),
        "measured nodes the planner never priced: {:?}",
        drift.unpriced
    );
    assert!(drift.calibration_hz > 0.0 && drift.nodes.len() >= 5);
    // Documented mispricing tolerance (DESIGN.md "Observability"): on a
    // clean encoder every node's calibrated drift ratio stays within
    // DRIFT_TOLERANCE of 1, cycle-weighted. The model prices an FPGA
    // datapath and the measurement is a host CPU, so the bar bounds
    // *relative* mispricing after calibration, not absolute accuracy.
    assert_eq!(
        drift.fraction_within(DRIFT_TOLERANCE),
        1.0,
        "nodes outside the {DRIFT_TOLERANCE}x drift tolerance: {:?}",
        drift
            .top_mispriced(3)
            .iter()
            .map(|n| (n.sample.name.clone(), n.drift_ratio))
            .collect::<Vec<_>>()
    );

    let mut t = Table::new(
        "per-phase wall clock (ms, whole run)",
        &[
            "config", "img/s", "quant+pack", "gemm", "softmax", "gelu", "layernorm", "misc",
        ],
    );
    let ms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    for r in std::iter::once(&baseline)
        .chain(exact_sweep.iter())
        .chain(fast_sweep.iter())
        .chain([&ab.unfused, &ab.fused, &ab.fastnl_unfused, &ab.fastnl_fused])
    {
        t.row(&[
            r.label.clone(),
            format!("{:.2}", r.images_per_s),
            ms(r.phases.quantize_pack),
            ms(r.phases.gemm),
            ms(r.phases.softmax),
            ms(r.phases.gelu),
            ms(r.phases.layernorm),
            format!("{:.1}", r.misc_ms),
        ]);
    }
    print!("{}", t.render());

    let json = to_json(
        &baseline,
        &exact_sweep,
        &fast_sweep,
        &fast_census,
        &envelope,
        &fuse_plan,
        &compiled,
        &ab,
        &drift,
        images,
        host_threads,
        quick,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_E2E.json");
    println!("\nwrote {out_path}");
    println!(
        "fusion A/B: {:.2}x img/s fused vs unfused at fastnl ({:.2}x exact); \
         quantize-pack time -{:.0}%",
        ab.speedup_fastnl,
        ab.speedup_exact,
        100.0 * ab.quantize_pack_reduction
    );

    // Acceptance gates (after the report, so a failing run still shows
    // its numbers): the fused path must never cost throughput at the
    // production (fast-nonlinear) operating point and must eliminate the
    // quantize-pack round trip on fused edges. At this scaled-down bench
    // model the structural fusion win is a few percent of wall clock
    // (the pack phase it deletes is already small), so the speedup gate
    // is a no-regression floor and the quantize-pack reduction is the
    // quantitative fusion gate. Quick mode runs two images on loaded CI
    // hosts, so its bars are looser.
    let (min_speedup, min_qp) = if quick { (0.90, 0.30) } else { (1.00, 0.40) };
    assert!(
        ab.speedup_fastnl >= min_speedup,
        "fused path regressed: {:.3}x vs unfused at fastnl (floor {min_speedup})",
        ab.speedup_fastnl
    );
    assert!(
        ab.quantize_pack_reduction >= min_qp,
        "quantize-pack reduction {:.3} below floor {min_qp}",
        ab.quantize_pack_reduction
    );

    let best = |rows: &[E2eRow]| rows.iter().map(|r| r.images_per_s).fold(0.0f64, f64::max);
    println!(
        "acceptance anchors: exact fast path {:.2}x vs scalar baseline (logits bit-identical); \
         fast nonlinear {:.2}x vs exact fast path (logit SQNR {:.1} dB, max {} ulp)",
        best(&exact_sweep) / baseline.images_per_s,
        best(&fast_sweep) / best(&exact_sweep),
        envelope.sqnr_db,
        envelope.max_ulp,
    );

    if let Some(path) = trace_out {
        write_trace(&path, &model, &imgs[..imgs.len().min(2)]);
    }
}
