//! Bridge from planner predictions to serve-time drift attribution.
//!
//! The planner ([`crate::planner`]) prices every lowered graph node in
//! modelled array cycles; [`bfp_transformer::MixedEngine`] (with a
//! tracer attached) records every block-walk node as a `plan.node.<key>`
//! span, which [`node_times`] folds into host seconds per key.
//! The two sides do not speak the same names: the graph is per-block
//! (`blk3.fc1`), the engine aggregates across blocks (`fc1`), and
//! fusion rewires both — a fused MLP front half executes as one
//! `fc1+gelu` kernel, and residual adds are billed inside the GEMM
//! drain that absorbed them. This module owns that mapping: it folds a
//! [`FusePlan`]'s per-node prices and an engine's measured
//! [`NodeTime`]s onto shared canonical keys and hands the joined
//! samples to [`PlanDriftReport`] for calibration and attribution.

use std::collections::BTreeMap;
use std::collections::HashMap;

use bfp_telemetry::drift::{NodeSample, PlanDriftReport};
use bfp_telemetry::{EventKind, TraceEvent};

use crate::planner::{FuseDecision, FuseKind, FusePlan, PlanNode};

/// Accumulated wall-clock for one named node of the block walk, the
/// measured side of drift attribution (predictions come from
/// [`crate::planner`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTime {
    /// Total measured seconds across executions.
    pub seconds: f64,
    /// Number of executions folded into `seconds`.
    pub samples: u64,
}

/// Fold an engine's `plan.node.<key>` spans (from a tracer attached with
/// [`bfp_transformer::MixedEngine::attach_tracer`]) into per-key node
/// times. Every other event is ignored.
pub fn node_times(events: &[TraceEvent]) -> HashMap<String, NodeTime> {
    let mut out: HashMap<String, NodeTime> = HashMap::new();
    for ev in events {
        if let (Some(key), EventKind::Span { dur_ns }) =
            (ev.name.strip_prefix("plan.node."), &ev.kind)
        {
            let t = out.entry(key.to_string()).or_default();
            t.seconds += *dur_ns as f64 * 1e-9;
            t.samples += 1;
        }
    }
    out
}

/// Canonical drift key for one planned node: the per-block prefix is
/// stripped (predictions aggregate across blocks, exactly as the
/// engine's measurements do), residual adds fold into the GEMM that
/// executes them (`res1` → `wo`, `res2` → `fc2`), and an MLP front
/// half fused at the drain prices as the engine's single `fc1+gelu`
/// kernel.
pub fn canonical_node_key(node: &PlanNode) -> String {
    let name = node.name.as_str();
    let local = match name.split_once('.') {
        Some((head, rest)) if head.starts_with("blk") => rest,
        _ => name,
    };
    let fused_gelu = matches!(
        node.decision,
        FuseDecision::FusedGemm(FuseKind::BiasGelu | FuseKind::BiasGeluRequant)
    );
    match local {
        "res1" => "wo".to_string(),
        "res2" => "fc2".to_string(),
        "fc1" if fused_gelu => "fc1+gelu".to_string(),
        // A gelu absorbed into a GEMM drain executes inside the fused
        // fc1 kernel; its (zero-cycle) price lands on the same key.
        "gelu" if matches!(node.decision, FuseDecision::FusedInto(_)) => "fc1+gelu".to_string(),
        other => other.to_string(),
    }
}

/// Join a plan's predicted cycles with an engine's measured node times
/// onto canonical keys, returning the samples for
/// [`PlanDriftReport::new`]. Predictions sum across blocks; the
/// `measured` map (from [`node_times`]) is already block-aggregated
/// because the engine emits per-block node names without the `blk`
/// prefix.
pub fn drift_samples(plan: &FusePlan, measured: &HashMap<String, NodeTime>) -> Vec<NodeSample> {
    // BTreeMap keeps sample (and report) order deterministic.
    let mut by_key: BTreeMap<String, NodeSample> = BTreeMap::new();
    for node in &plan.nodes {
        let key = canonical_node_key(node);
        let s = by_key.entry(key.clone()).or_insert_with(|| NodeSample {
            name: key,
            ..NodeSample::default()
        });
        s.predicted_cycles += node.cycles;
        s.pack_cycles += node.pack_cycles;
    }
    for (name, t) in measured {
        let s = by_key.entry(name.clone()).or_insert_with(|| NodeSample {
            name: name.clone(),
            ..NodeSample::default()
        });
        s.measured_s += t.seconds;
        s.samples += t.samples;
    }
    by_key.into_values().collect()
}

/// Attribute predicted-vs-measured drift for one plan: the calibrated
/// cycles-per-second factor, per-node drift ratios, and coverage gaps.
pub fn attribute_plan_drift(
    plan: &FusePlan,
    measured: &HashMap<String, NodeTime>,
) -> PlanDriftReport {
    PlanDriftReport::new(drift_samples(plan, measured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_vit;
    use crate::planner::plan_fusion;
    use bfp_platform::System;
    use bfp_telemetry::Tracer;
    use bfp_transformer::{MixedEngine, VitConfig};

    /// Attach a fresh tracer to `engine`.
    fn attach(engine: &mut MixedEngine) -> Tracer {
        let tracer = Tracer::new();
        engine.attach_tracer(tracer.clone());
        tracer
    }

    fn deit_plan() -> FusePlan {
        plan_fusion(&lower_vit(&VitConfig::deit_small()), &System::paper())
    }

    #[test]
    fn canonical_keys_strip_blocks_and_follow_fusion() {
        let plan = deit_plan();
        let keys: Vec<String> = plan.nodes.iter().map(canonical_node_key).collect();
        assert!(keys.iter().any(|k| k == "ln1"));
        assert!(keys.iter().any(|k| k == "wq"));
        assert!(keys.iter().any(|k| k == "h0.softmax"));
        // The paper plan fuses the MLP front half and both residuals.
        assert!(keys.iter().any(|k| k == "fc1+gelu"));
        assert!(!keys.iter().any(|k| k == "gelu"));
        assert!(!keys.iter().any(|k| k == "res1"));
        assert!(!keys.iter().any(|k| k == "res2"));
        // No per-block keys survive.
        assert!(!keys.iter().any(|k| k.starts_with("blk")));
    }

    #[test]
    fn node_timing_of_composed_walks_reports_the_keys_unfused_nodes_price_under() {
        // The engine times the one block walk whether a GEMM ran fused or
        // composed: a plan-less engine, and a planned one whose fc1 drain
        // was replayed (unpackable weight), name `fc1` and `gelu` apart,
        // which is the key a node the planner left standalone prices at.
        use bfp_transformer::{CompiledVitPlan, VitModel};
        let cfg = VitConfig::tiny_test();
        let (graph, sys) = (lower_vit(&cfg), System::paper());
        let plan = plan_fusion(&graph, &sys);
        let standalone = |n: &PlanNode| {
            canonical_node_key(&PlanNode {
                decision: FuseDecision::Standalone,
                ..n.clone()
            })
        };
        let mut priced: Vec<String> = plan.nodes.iter().map(standalone).collect();
        priced.sort();
        priced.dedup();

        let clean = VitModel::new_random(cfg, 5);
        let mut poisoned = clean.clone();
        for blk in &mut poisoned.blocks {
            blk.fc1.w_mut().set(0, 0, f32::INFINITY);
        }
        let x = clean.synthetic_input(6);
        let replayed = MixedEngine::new().with_vit_plan(CompiledVitPlan::fuse_all());
        for (model, mut engine) in [(&clean, MixedEngine::new()), (&poisoned, replayed)] {
            let tracer = attach(&mut engine);
            let _ = model.forward(&mut engine, &x);
            let mut measured: Vec<String> = node_times(&tracer.drain()).into_keys().collect();
            measured.sort();
            assert_eq!(measured, priced);
        }

        // A clean engine under the planner's own compiled plan measures
        // exactly the plan's canonical keys: every priced node measured,
        // every measured node priced.
        let mut planned: Vec<String> = plan.nodes.iter().map(canonical_node_key).collect();
        planned.sort();
        planned.dedup();
        let mut engine = MixedEngine::new().with_vit_plan(plan.compiled_vit_plan(&graph, &sys));
        let tracer = attach(&mut engine);
        let _ = clean.forward(&mut engine, &x);
        let times = node_times(&tracer.drain());
        let mut measured: Vec<String> = times.keys().cloned().collect();
        measured.sort();
        assert_eq!(measured, planned);
        let report = attribute_plan_drift(&plan, &times);
        assert!(report.unmeasured.is_empty(), "{:?}", report.unmeasured);
        assert!(report.unpriced.is_empty(), "{:?}", report.unpriced);
    }

    /// Cycle-price drift tolerance on the clean bench encoder: after
    /// calibration, every plan node's measured/predicted ratio must stay
    /// within this factor of 1, cycle-weighted. The model prices an FPGA
    /// datapath and the measurement is a host CPU, so the bar bounds
    /// *relative* mispricing after calibration, not absolute accuracy
    /// (see DESIGN.md "Observability" for the measured headroom behind
    /// the number).
    const DRIFT_TOLERANCE: f64 = 16.0;

    /// The timing half of the drift gate, on a 4-block encoder (dim 128,
    /// 4 heads, 17 tokens) under the fused plan, one thread so a node's
    /// wall time is its own cost. The input set is repeated for at least
    /// a second and averaged per pass: in one pass a single scheduler
    /// stall inside a 0.1 ms node reads as a 16x mispricing. Wall time,
    /// so ignored by default; run it in release:
    /// `cargo test --release -p bfp-core --lib drift -- --ignored`.
    #[test]
    #[ignore = "wall-clock measurement; run in release"]
    fn bench_encoder_drift_stays_inside_the_tolerance() {
        use bfp_transformer::VitModel;
        use std::time::{Duration, Instant};
        let cfg = VitConfig {
            dim: 128,
            depth: 4,
            heads: 4,
            mlp_ratio: 4,
            seq: 17,
        };
        let (graph, sys) = (lower_vit(&cfg), System::paper());
        let plan = plan_fusion(&graph, &sys);
        let model = VitModel::new_random(cfg, 3);
        let inputs: Vec<_> = (0..8).map(|s| model.synthetic_input(s)).collect();
        let mut engine = MixedEngine::new()
            .with_threads(1)
            .with_vit_plan(plan.compiled_vit_plan(&graph, &sys));
        let tracer = attach(&mut engine);
        let _ = model.forward(&mut engine, &inputs[0]);
        let _ = tracer.drain(); // discard the cold-cache warm-up
        let (start, mut passes) = (Instant::now(), 0u32);
        while passes < 2 || start.elapsed() < Duration::from_secs(1) {
            for x in &inputs {
                std::hint::black_box(model.forward(&mut engine, x));
            }
            passes += 1;
        }
        let mut times = node_times(&tracer.drain());
        for t in times.values_mut() {
            t.seconds /= f64::from(passes);
            t.samples /= u64::from(passes);
        }
        let report = attribute_plan_drift(&plan, &times);
        print!("{}", report.to_table().render());
        println!(
            "{passes} passes, max |log2 drift| {:.2}",
            report.max_abs_log2_drift()
        );
        assert!(report.unmeasured.is_empty() && report.unpriced.is_empty());
        assert!(report.calibration_hz > 0.0 && report.nodes.len() >= 5);
        assert_eq!(
            report.fraction_within(DRIFT_TOLERANCE),
            1.0,
            "nodes outside the {DRIFT_TOLERANCE}x drift tolerance: {:?}",
            report
                .top_mispriced(3)
                .iter()
                .map(|n| (n.sample.name.clone(), n.drift_ratio))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn predictions_aggregate_across_blocks() {
        let plan = deit_plan();
        let depth = VitConfig::deit_small().depth as f64;
        let samples = drift_samples(&plan, &HashMap::new());
        let ln1 = samples.iter().find(|s| s.name == "ln1").unwrap();
        let per_block: f64 = plan
            .nodes
            .iter()
            .filter(|n| n.name == "blk0.ln1")
            .map(|n| n.cycles + n.pack_cycles)
            .sum();
        assert!(per_block > 0.0);
        assert!((ln1.total_cycles() - per_block * depth).abs() < 1e-6 * per_block * depth);
        assert_eq!(ln1.measured_s, 0.0);
    }

    #[test]
    fn measured_times_join_on_canonical_keys() {
        let plan = deit_plan();
        let mut measured = HashMap::new();
        for key in ["ln1", "wq", "fc1+gelu", "fc2"] {
            measured.insert(
                key.to_string(),
                NodeTime {
                    seconds: 0.010,
                    samples: 4,
                },
            );
        }
        // A key the planner never priced.
        measured.insert(
            "mystery".to_string(),
            NodeTime {
                seconds: 0.001,
                samples: 1,
            },
        );
        let report = attribute_plan_drift(&plan, &measured);
        assert!(report.calibration_hz > 0.0);
        assert_eq!(report.nodes.len(), 4);
        assert_eq!(report.unpriced, vec!["mystery".to_string()]);
        // Everything priced but unmeasured is reported, not dropped.
        assert!(report.unmeasured.iter().any(|n| n == "h0.softmax"));
        // Equal measured time on unequal prices: the cheap node drifts
        // high, the expensive one low, and weighted mean stays 1.
        let total: f64 = report.nodes.iter().map(|n| n.sample.total_cycles()).sum();
        let mean: f64 = report
            .nodes
            .iter()
            .map(|n| n.drift_ratio * n.sample.total_cycles())
            .sum::<f64>()
            / total;
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn proportional_measurements_attribute_cleanly() {
        // Measured seconds exactly proportional to predicted cycles →
        // every node drifts at 1.0 under any calibration.
        let plan = deit_plan();
        let samples = drift_samples(&plan, &HashMap::new());
        let mut measured = HashMap::new();
        for s in &samples {
            if s.total_cycles() > 0.0 {
                measured.insert(
                    s.name.clone(),
                    NodeTime {
                        seconds: s.total_cycles() * 1e-9,
                        samples: 1,
                    },
                );
            }
        }
        let report = attribute_plan_drift(&plan, &measured);
        assert!((report.calibration_hz - 1e9).abs() < 1.0);
        assert!(report.max_abs_log2_drift() < 1e-9);
        assert_eq!(report.fraction_within(1.01), 1.0);
        assert!(report.unpriced.is_empty());
    }
}
