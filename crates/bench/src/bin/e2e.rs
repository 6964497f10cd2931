//! `e2e` — phase-timed end-to-end DeiT inference bench.
//!
//! Measures images/s and the per-phase wall-clock split (quantize/pack,
//! GEMM, softmax, GELU, LayerNorm, residual/misc) on one thread for:
//!
//! * the **baseline** engine — via-partials VPU (every multiply through
//!   the partial-product enumeration, scalar kernels only), 1 thread;
//! * the **exact** fast path, plan-less and under the compiled plan;
//! * the **fast-nonlinear** path (`NonlinearMode::Fast`: LUT/polynomial
//!   GELU–exp–rsqrt on a modelled nonlinear unit — see DESIGN.md for its
//!   tested ULP envelope), plan-less and under the compiled plan;
//!
//! plus one exact and one fast planned row at the host's thread count.
//! Every configuration is timed by duration ([`bfp_bench::time_passes`])
//! and reported as the median pass with its min–max.
//!
//! The **compiled fusion plan**: the core planner lowers the bench model
//! to the graph IR, pattern-matches the GEMM→bias→GELU and
//! GEMM→bias→residual chains, and the distilled [`CompiledVitPlan`]
//! makes the engine's block ops run the fused drain kernels over a shared
//! q/k/v pack. The JSON's `fusion` block carries the planner's per-node
//! decisions and priced cycle variants, and the plan-less / planned pairs.
//!
//! Gates, all deterministic (hard asserts; a failing run exits non-zero):
//! every exact configuration's logits **bit-identical** to the baseline;
//! every fast configuration's logits bit-identical to each other (plan
//! and sharding never move a bit) and inside the end-to-end envelope
//! against the baseline (max ULP / max abs / SQNR); and the counter
//! equalities of [`fusion_gates`] — every planned fused GEMM hit, none
//! replayed, and the plan saved exactly the two shared q/k/v packs per
//! block, counted in calls and in elements. No gate compares two wall
//! times: the planned/plan-less ratio is reported, not gated (on the host
//! clock the two run level; the planner's cycle model prices the FPGA).
//! Results land in `BENCH_E2E.json` (schema `bench_e2e/v7`).
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
//! The traced pass runs *after* (and separate from) the timed rows, so
//! `--trace-out` never perturbs the published numbers.

use std::fmt::Write as _;
use std::time::Duration;

use bfp_arith::ulp::{EnvelopeStats, UlpEnvelope};
use bfp_bench::{bench_config, min_timed, time_passes, PassTimes};
use bfp_core::prelude::System;
use bfp_core::{lower_vit, plan_fusion, FuseDecision, FuseKind, FusePlan, Table};
use bfp_telemetry::PlanDriftReport;
use bfp_transformer::{
    CompiledVitPlan, DeitModel, Image, MixedEngine, NonlinearMode, OpCensus, PhaseTimes, VitConfig,
};

/// Cycle-price drift tolerance on the clean bench encoder: after
/// calibration, every plan node's measured/predicted ratio must stay
/// within this factor of 1 (cycle-weighted; see DESIGN.md
/// "Observability" for the measured headroom behind the number).
const DRIFT_TOLERANCE: f64 = 16.0;

/// The deterministic counters of one row, taken over one pass of the
/// image set: fusion routing and activation quantize-packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowCounts {
    fusion_hits: u64,
    fusion_misses: u64,
    lhs_packs: u64,
    lhs_pack_elems: u64,
}

impl RowCounts {
    fn of(engine: &MixedEngine) -> RowCounts {
        let (fusion_hits, fusion_misses) = engine.fusion_stats();
        let (lhs_packs, lhs_pack_elems) = engine.lhs_pack_stats();
        RowCounts { fusion_hits, fusion_misses, lhs_packs, lhs_pack_elems }
    }

    fn since(self, before: RowCounts) -> RowCounts {
        RowCounts {
            fusion_hits: self.fusion_hits - before.fusion_hits,
            fusion_misses: self.fusion_misses - before.fusion_misses,
            lhs_packs: self.lhs_packs - before.lhs_packs,
            lhs_pack_elems: self.lhs_pack_elems - before.lhs_pack_elems,
        }
    }
}

struct E2eRow {
    label: String,
    threads: usize,
    nonlinear: NonlinearMode,
    /// Images per pass, and the wall time of every pass.
    images: usize,
    times: PassTimes,
    /// Phase split of the median pass.
    phases: PhaseTimes,
    counts: RowCounts,
}

impl E2eRow {
    /// Throughput of a pass that took `ms`.
    fn ips(&self, ms: f64) -> f64 {
        self.images as f64 / (ms / 1e3)
    }

    /// Throughput of the median pass.
    fn images_per_s(&self) -> f64 {
        self.ips(self.times.median_ms())
    }

    /// What the median pass spent outside the engine's phases.
    fn misc_ms(&self) -> f64 {
        self.times.median_ms() - self.phases.accounted().as_secs_f64() * 1e3
    }

    /// The median pass's wall clock by phase, in milliseconds.
    fn phase_ms(&self) -> [(&'static str, f64); 6] {
        let p = &self.phases;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        [
            ("quantize_pack", ms(p.quantize_pack)),
            ("gemm", ms(p.gemm)),
            ("softmax", ms(p.softmax)),
            ("gelu", ms(p.gelu)),
            ("layernorm", ms(p.layernorm)),
            ("misc", self.misc_ms()),
        ]
    }

    /// Name of the phase with the largest wall-clock share.
    fn largest_phase(&self) -> &'static str {
        let by_ms = |a: &(&str, f64), b: &(&str, f64)| a.1.total_cmp(&b.1);
        self.phase_ms().into_iter().max_by(by_ms).expect("six phases").0
    }
}

/// Time passes of `imgs.len()` inferences on `engine` for at least
/// `min_wall` (after a one-image warmup that also fills the weight-plan
/// cache). Returns the row — the median pass, with the spread — the logits
/// of every image for equivalence checking and the VPU op census of one
/// pass. The engine is deterministic, so logits, census and counters are
/// the same in every pass; the counters are asserted to be.
fn run(
    label: &str,
    mut engine: MixedEngine,
    imgs: &[Image],
    model: &DeitModel,
    min_wall: Duration,
) -> (E2eRow, Vec<Vec<f32>>, OpCensus) {
    std::hint::black_box(model.forward(&mut engine, &imgs[0]));
    let _ = engine.take_phase_times();
    let _ = engine.take_census();
    let threads = engine.threads();
    let nonlinear = engine.nonlinear_mode();
    let mut logits = Vec::new();
    let mut census = OpCensus::default();
    let mut per_pass: Vec<(PhaseTimes, RowCounts)> = Vec::new();
    let times = time_passes(min_wall, || {
        let before = RowCounts::of(&engine);
        logits = imgs.iter().map(|img| model.forward(&mut engine, img)).collect();
        census = engine.take_census();
        per_pass.push((engine.take_phase_times(), RowCounts::of(&engine).since(before)));
    });
    let (phases, counts) = per_pass[times.median_pass()];
    assert!(
        per_pass.iter().all(|(_, c)| *c == counts),
        "{label}: counters differ between identical passes"
    );
    let label = label.to_string();
    let row = E2eRow { label, threads, nonlinear, images: imgs.len(), times, phases, counts };
    (row, logits, census)
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

/// What the fusion gates read: the model shape, how many images the
/// counters were taken over, what the plan promises per block, and the
/// counters of each `(plan-less, planned)` pair of rows.
struct FusionCounts {
    seq: u64,
    dim: u64,
    depth: u64,
    images: u64,
    fused_gemms_per_block: u64,
    pairs: Vec<(RowCounts, RowCounts)>,
}

/// The fusion gates, as equalities over deterministic counters: a
/// plan-less engine never routes through the plan; a planned engine hits
/// every GEMM the plan fuses and misses none (no fused attempt was
/// replayed); and the plan packs exactly two activations fewer per block —
/// the shared q/k/v pack — counted both in calls and in f32 elements read.
fn fusion_gates(c: &FusionCounts) -> Result<(), String> {
    let blocks = c.depth * c.images;
    let check = |what: &str, got: i128, want: u64| {
        if got == want as i128 {
            Ok(())
        } else {
            Err(format!("{what}: counted {got}, the plan implies {want}"))
        }
    };
    for (planless, planned) in &c.pairs {
        check("plan-less fusion hits", planless.fusion_hits.into(), 0)?;
        check("plan-less fusion misses", planless.fusion_misses.into(), 0)?;
        check(
            "planned fusion hits",
            planned.fusion_hits.into(),
            c.fused_gemms_per_block * blocks,
        )?;
        check("planned fusion misses (a fused attempt replayed)", planned.fusion_misses.into(), 0)?;
        check(
            "LHS quantize-pack calls saved by the plan",
            planless.lhs_packs as i128 - planned.lhs_packs as i128,
            2 * blocks,
        )?;
        check(
            "LHS elements saved by the plan",
            planless.lhs_pack_elems as i128 - planned.lhs_pack_elems as i128,
            2 * c.seq * c.dim * blocks,
        )?;
    }
    Ok(())
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
    let phases: Vec<String> = row
        .phase_ms()
        .iter()
        .map(|(name, ms)| format!("{indent}  \"{name}\": {ms:.3}"))
        .collect();
    let _ = writeln!(s, "{indent}\"phases_ms\": {{\n{}\n{indent}}},", phases.join(",\n"));
}

fn row_json(s: &mut String, row: &E2eRow, indent: &str, last: bool) {
    let _ = writeln!(s, "{indent}{{");
    let _ = writeln!(s, "{indent}  \"label\": \"{}\",", row.label);
    let _ = writeln!(s, "{indent}  \"threads\": {},", row.threads);
    let _ = writeln!(s, "{indent}  \"nonlinear\": \"{}\",", row.nonlinear.as_str());
    let _ = writeln!(s, "{indent}  \"fusion_hits\": {},", row.counts.fusion_hits);
    let _ = writeln!(s, "{indent}  \"fusion_misses\": {},", row.counts.fusion_misses);
    let _ = writeln!(s, "{indent}  \"lhs_packs\": {},", row.counts.lhs_packs);
    let _ = writeln!(s, "{indent}  \"lhs_pack_elems\": {},", row.counts.lhs_pack_elems);
    let _ = writeln!(s, "{indent}  \"largest_phase\": \"{}\",", row.largest_phase());
    phases_json(s, row, &format!("{indent}  "));
    let t = &row.times;
    let _ = writeln!(s, "{indent}  \"passes\": {},", t.passes());
    let _ = writeln!(s, "{indent}  \"wall_ms\": {:.3},", t.median_ms());
    let _ = writeln!(s, "{indent}  \"images_per_s_min\": {:.3},", row.ips(t.max_ms()));
    let _ = writeln!(s, "{indent}  \"images_per_s_max\": {:.3},", row.ips(t.min_ms()));
    let _ = writeln!(s, "{indent}  \"images_per_s\": {:.3}", row.images_per_s());
    let _ = write!(s, "{indent}}}{}", if last { "\n" } else { ",\n" });
}

/// The plan-less / planned pairs at one thread: same engine, same model,
/// the only difference is the compiled plan. Both exact rows must match
/// the scalar oracle bit for bit and both fast rows each other; their
/// counters feed [`fusion_gates`]; their wall ratio is reported only.
struct FusionAb {
    unfused: E2eRow,
    fused: E2eRow,
    fastnl_unfused: E2eRow,
    fastnl_fused: E2eRow,
}

impl FusionAb {
    /// Planned / plan-less median img/s, exact and fast nonlinear.
    fn speedups(&self) -> (f64, f64) {
        (
            self.fused.images_per_s() / self.unfused.images_per_s(),
            self.fastnl_fused.images_per_s() / self.fastnl_unfused.images_per_s(),
        )
    }
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
    let (speedup_exact, speedup_fastnl) = ab.speedups();
    let _ = writeln!(s, "    \"speedup_fused_vs_unfused\": {speedup_fastnl:.3},");
    let _ = writeln!(s, "    \"speedup_fused_vs_unfused_exact\": {speedup_exact:.3}");
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
    cfg: &VitConfig,
    baseline: &E2eRow,
    host_rows: &[E2eRow; 2],
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
    let [exact_host, fast_host] = host_rows;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"bench_e2e/v7\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"images\": {images},");
    let _ = writeln!(s, "  \"host_threads\": {host_threads},");
    let _ = writeln!(s, "  \"min_timed_s\": {:.1},", min_timed(quick).as_secs_f64());
    let _ = writeln!(
        s,
        "  \"model\": {{\"seq\": {}, \"dim\": {}, \"heads\": {}, \"depth\": {}}},",
        cfg.seq, cfg.dim, cfg.heads, cfg.depth
    );
    let _ = writeln!(s, "  \"bit_identical\": true,");
    fusion_json(&mut s, plan, compiled, ab);
    s.push_str("  \"baseline\": ");
    {
        let mut b = String::new();
        row_json(&mut b, baseline, "  ", true);
        s.push_str(b.trim_start());
    }
    s.push_str(",\n  \"host_rows\": [\n");
    row_json(&mut s, exact_host, "    ", false);
    row_json(&mut s, fast_host, "    ", true);
    s.push_str("  ],\n");
    s.push_str("  \"nonlinear\": {\n");
    let _ = writeln!(s, "    \"fast_mode\": \"{}\",", NonlinearMode::Fast.as_str());
    op_mix_json(&mut s, fast_census, "    ");
    s.push_str("    \"logit_envelope\": {\n");
    let _ = writeln!(s, "      \"max_ulp\": {},", envelope.max_ulp);
    let _ = writeln!(s, "      \"max_abs\": {:.3e},", envelope.max_abs);
    let _ = writeln!(s, "      \"sqnr_db\": {:.1}", envelope.sqnr_db);
    s.push_str("    },\n");
    let _ = writeln!(s, "    \"largest_phase_fast\": \"{}\",", fast_host.largest_phase());
    let _ = writeln!(
        s,
        "    \"speedup_fast_vs_exact\": {:.2}",
        fast_host.images_per_s() / exact_host.images_per_s()
    );
    s.push_str("  },\n");
    s.push_str("  \"drift\": ");
    s.push_str(&drift.to_json(5));
    s.push_str(",\n");
    let _ = writeln!(
        s,
        "  \"speedup_vs_baseline\": {:.2}",
        exact_host.images_per_s() / baseline.images_per_s()
    );
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
    let min_wall = min_timed(quick);
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
    // the plan the engine executes.
    let graph = lower_vit(&cfg.vit);
    let sys = System::paper();
    let fuse_plan = plan_fusion(&graph, &sys);
    let compiled = fuse_plan.compiled_vit_plan(&graph, &sys);

    println!(
        "end-to-end DeiT inference, {} images, {} host threads, >= {:.1} s per row\n\
         fusion plan: {} fused GEMMs, {} shared-pack groups, \
         {:.0}% of quantize-pack cycles eliminated (FPGA clock)\n",
        images,
        host_threads,
        min_wall.as_secs_f64(),
        fuse_plan.fused_gemms,
        fuse_plan.shared_pack_groups,
        100.0 * fuse_plan.pack_reduction(),
    );

    let exact = |threads: usize| MixedEngine::new().with_threads(threads);
    let fast = |threads: usize| MixedEngine::fast_nonlinear().with_threads(threads);
    let timed = |label: &str, engine: MixedEngine| run(label, engine, &imgs, &model, min_wall);

    // One thread: the scalar oracle, then each nonlinear mode plan-less
    // and under the compiled plan. Hard gates: neither the fast kernels'
    // exact mode nor the plan moves a logit bit against the oracle, and
    // the plan does not move a fast-nonlinear bit either.
    let (baseline, base_logits, _) = timed("baseline_scalar", MixedEngine::baseline_scalar());
    let (unfused, logits, _) = timed("exact_unfused_1t", exact(1));
    assert_bit_identical(&unfused.label, &logits, &base_logits);
    let (fused, logits, _) = timed("exact_fused_1t", exact(1).with_vit_plan(compiled));
    assert_bit_identical(&fused.label, &logits, &base_logits);
    let (fastnl_unfused, fast_logits, _) = timed("fastnl_unfused_1t", fast(1));
    let (fastnl_fused, logits, fast_census) =
        timed("fastnl_fused_1t", fast(1).with_vit_plan(compiled));
    assert_bit_identical(&fastnl_fused.label, &logits, &fast_logits);
    let envelope = logit_envelope(&fast_logits, &base_logits);

    // The host's thread count: sharding moves neither a bit nor a counter.
    let (exact_host, logits, _) = timed("exact_fused_host", exact(host_threads).with_vit_plan(compiled));
    assert_bit_identical(&exact_host.label, &logits, &base_logits);
    assert_eq!(exact_host.counts, fused.counts, "sharding moved a counter");
    let (fast_host, logits, _) = timed("fastnl_fused_host", fast(host_threads).with_vit_plan(compiled));
    assert_bit_identical(&fast_host.label, &logits, &fast_logits);
    assert_eq!(fast_host.counts, fastnl_fused.counts, "sharding moved a counter");
    let host_rows = [exact_host, fast_host];

    let gate_counts = FusionCounts {
        seq: cfg.vit.seq as u64,
        dim: cfg.vit.dim as u64,
        depth: cfg.vit.depth as u64,
        images: images as u64,
        fused_gemms_per_block: compiled.fused_gemms_per_block(),
        pairs: vec![(unfused.counts, fused.counts), (fastnl_unfused.counts, fastnl_fused.counts)],
    };
    let ab = FusionAb { unfused, fused, fastnl_unfused, fastnl_fused };

    // Drift attribution: arm per-node wall timing on a fresh compiled
    // engine, run the image set for as long as a timed row (after a
    // discarded warmup pass) and calibrate the planner's cycle prices
    // against the mean pass — one pass alone lets a single scheduler
    // stall inside a 0.1 ms node read as a 16x mispricing.
    // Single-threaded so per-node wall time is the node's own cost, not
    // a sharded slice of it.
    let mut drift_engine = MixedEngine::new().with_threads(1).with_vit_plan(compiled);
    drift_engine.enable_node_timing();
    std::hint::black_box(model.forward(&mut drift_engine, &imgs[0]));
    let _ = drift_engine.take_node_times(); // discard the cold-cache warmup
    let passes = time_passes(min_wall, || {
        for img in &imgs {
            std::hint::black_box(model.forward(&mut drift_engine, img));
        }
    })
    .passes();
    let mut node_times = drift_engine.take_node_times();
    for t in node_times.values_mut() {
        t.seconds /= passes as f64;
        t.samples /= passes as u64;
    }
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
        "median pass: img/s (min-max over passes) and per-phase wall clock (ms)",
        &[
            "config", "img/s", "quant+pack", "gemm", "softmax", "gelu", "layernorm", "misc",
        ],
    );
    for r in [&baseline, &ab.unfused, &ab.fused, &ab.fastnl_unfused, &ab.fastnl_fused]
        .into_iter()
        .chain(&host_rows)
    {
        let (lo, hi) = (r.ips(r.times.max_ms()), r.ips(r.times.min_ms()));
        let mut cells = vec![r.label.clone(), format!("{:.1} ({lo:.1}-{hi:.1})", r.images_per_s())];
        cells.extend(r.phase_ms().iter().map(|(_, ms)| format!("{ms:.1}")));
        t.row(&cells);
    }
    print!("{}", t.render());

    let json = to_json(
        &cfg.vit,
        &baseline,
        &host_rows,
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
    let (speedup_exact, speedup_fastnl) = ab.speedups();
    println!(
        "plan on vs off, one thread (reported, not gated): {speedup_fastnl:.2}x img/s at fastnl, \
         {speedup_exact:.2}x exact"
    );

    // The fusion gates (after the report, so a failing run still shows
    // its numbers): equalities over counters, so they pass or fail the
    // same way on a loaded host.
    if let Err(why) = fusion_gates(&gate_counts) {
        panic!("fusion gate: {why}");
    }

    let [exact_host, fast_host] = &host_rows;
    println!(
        "at {host_threads} host threads: exact fast path {:.2}x vs scalar baseline (logits \
         bit-identical); fast nonlinear {:.2}x vs exact fast path (logit SQNR {:.1} dB, max {} ulp)",
        exact_host.images_per_s() / baseline.images_per_s(),
        fast_host.images_per_s() / exact_host.images_per_s(),
        envelope.sqnr_db,
        envelope.max_ulp,
    );

    if let Some(path) = trace_out {
        write_trace(&path, &model, &imgs[..imgs.len().min(2)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts a clean run of the bench encoder over 8 images books.
    fn clean() -> FusionCounts {
        let (seq, dim, heads, depth, images, fused) = (17, 128, 4, 4, 8, 6);
        let blocks = depth * images;
        // Per block: six projection packs and two per head, plan-less.
        let planless = RowCounts {
            fusion_hits: 0,
            fusion_misses: 0,
            lhs_packs: (6 + 2 * heads) * blocks,
            lhs_pack_elems: 1_000_000,
        };
        let planned = RowCounts {
            fusion_hits: fused * blocks,
            fusion_misses: 0,
            lhs_packs: planless.lhs_packs - 2 * blocks,
            lhs_pack_elems: planless.lhs_pack_elems - 2 * seq * dim * blocks,
        };
        FusionCounts {
            seq,
            dim,
            depth,
            images,
            fused_gemms_per_block: fused,
            pairs: vec![(planless, planned); 2],
        }
    }

    /// Doctor the fast-nonlinear pair of a clean run and return the
    /// gates' complaint.
    fn trips(doctor: impl Fn(&mut RowCounts, &mut RowCounts)) -> String {
        let mut c = clean();
        let (planless, planned) = &mut c.pairs[1];
        doctor(planless, planned);
        fusion_gates(&c).expect_err("a miscount must trip a gate")
    }

    #[test]
    fn clean_counts_pass_every_gate() {
        assert_eq!(fusion_gates(&clean()), Ok(()));
    }

    #[test]
    fn one_fused_gemm_short_trips_the_hit_gate() {
        let why = trips(|_, planned| planned.fusion_hits -= 1);
        assert!(why.starts_with("planned fusion hits: counted 191, the plan implies 192"), "{why}");
    }

    #[test]
    fn one_replayed_fused_attempt_trips_the_miss_gate() {
        let why = trips(|_, planned| planned.fusion_misses += 1);
        // A replay is the whole count: nothing else books a miss.
        assert!(why.starts_with("planned fusion misses"), "{why}");
        assert!(why.ends_with("counted 1, the plan implies 0"), "{why}");
    }

    #[test]
    fn one_extra_lhs_pack_trips_the_call_gate() {
        let why = trips(|_, planned| planned.lhs_packs += 1);
        assert!(why.starts_with("LHS quantize-pack calls saved"), "{why}");
    }

    #[test]
    fn an_unshared_qkv_pack_trips_the_element_gate() {
        // One block packing q and k on their own again: `2·seq·dim` more.
        let why = trips(|_, planned| planned.lhs_pack_elems += 2 * 17 * 128);
        assert!(why.starts_with("LHS elements saved"), "{why}");
    }

    #[test]
    fn a_planless_row_with_a_hit_trips_its_gate() {
        let why = trips(|planless, _| planless.fusion_hits = 1);
        assert!(why.starts_with("plan-less fusion hits: counted 1"), "{why}");
    }

    #[test]
    fn the_engines_own_counters_pass_the_gates() {
        // Gates can pass: a real plan-less / planned pair on the bench
        // encoder, one image, both nonlinear modes.
        let cfg = bench_config();
        let model = DeitModel::new_random(cfg, 3);
        let img = Image::synthetic(3, cfg.img, cfg.img, 0);
        let plan = CompiledVitPlan::fuse_all();
        let counts = |mut engine: MixedEngine| {
            let _ = model.forward(&mut engine, &img);
            RowCounts::of(&engine)
        };
        let pairs = [MixedEngine::new, MixedEngine::fast_nonlinear]
            .map(|engine| (counts(engine()), counts(engine().with_vit_plan(plan))));
        let c = FusionCounts {
            seq: cfg.vit.seq as u64,
            dim: cfg.vit.dim as u64,
            depth: cfg.vit.depth as u64,
            images: 1,
            fused_gemms_per_block: plan.fused_gemms_per_block(),
            pairs: pairs.to_vec(),
        };
        assert_eq!(fusion_gates(&c), Ok(()));
    }
}
