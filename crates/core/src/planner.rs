//! The fusion planner: pattern-match the lowered operator graph into
//! fused-drain GEMMs and shared packed operands, priced by the roofline
//! model so the fuse-or-not decision per node is a cost comparison, not a
//! heuristic flag.
//!
//! Three patterns are recognised on the [`crate::graph`] IR:
//!
//! * **GEMM → GELU epilogue** — a `MatMul` whose *sole* consumer is a
//!   `Gelu` over exactly its output elements folds the activation into the
//!   GEMM drain: each output tile passes through the VPU while still hot
//!   instead of being materialised, re-read and re-scanned. When that
//!   GELU's own sole consumer is another `MatMul` taking it as the LHS,
//!   the drain re-quantizes straight into the consumer's packed
//!   block-major layout ([`FuseKind::BiasGeluRequant`]) and the f32
//!   intermediate never exists — the consumer's quantize-pack disappears.
//! * **GEMM → residual epilogue** — a `MatMul` whose sole consumer is a
//!   `Residual` folds the skip-add into the drain and saves the
//!   materialise round trip of the projection output.
//! * **Shared packed LHS** — `MatMul`s whose dependency lists are the same
//!   single `LayerNorm` node consume one packed copy of the normalized
//!   activation; a group of size `s` pays one pack instead of `s`.
//!
//! Pricing: fusing moves the epilogue's fp32 work onto the drain path of
//! the arrays running the GEMM, so it inherits the GEMM's parallelism
//! instead of its own. The planner fuses exactly when the pack/materialise
//! cycles saved outweigh any parallelism lost:
//!
//! ```text
//! fuse  ⇔  saved_pack + saved_materialise ≥ epi/min(gemm_par, A) − epi/min(epi_par, A)
//! ```
//!
//! with `A` the array count and cycle terms from [`crate::scheduler`].
//! For encoder shapes a GEMM's pass-group parallelism (`⌈m/8⌉·⌈n/16⌉`)
//! never trails its epilogue's, so the right side is ≤ 0 and every
//! matched edge fuses — but the rule is what the emitted [`FusePlan`]
//! records, and a future VPU-bound epilogue can flip it.
//!
//! The engine cannot see this module (the dependency points core →
//! transformer), so [`FusePlan::compiled_vit_plan`] distills the verdict
//! into the [`CompiledVitPlan`] that tells a
//! [`MixedEngine`](bfp_transformer::MixedEngine) whether its block ops run
//! the fused kernels.

use std::collections::HashMap;

use bfp_platform::System;
use bfp_transformer::CompiledVitPlan;

use crate::graph::{Graph, OpKind};
use crate::scheduler::{node_cycles, node_parallelism, quantize_pack_cycles, schedule};

/// Which fused drain a [`FuseDecision::FusedGemm`] node carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseKind {
    /// Bias + GELU applied tile-by-tile at the drain; output stays f32.
    BiasGelu,
    /// Bias + GELU at the drain, re-quantized directly into the consumer
    /// GEMM's packed block-major LHS layout (no f32 intermediate).
    BiasGeluRequant,
    /// Bias + elementwise residual add at the drain.
    BiasResidual,
}

/// The planner's verdict for one graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseDecision {
    /// Runs as lowered: own pack (for GEMMs), own pass (for fp32 ops).
    Standalone,
    /// A GEMM executing with a fused drain epilogue.
    FusedGemm(FuseKind),
    /// An fp32/residual node absorbed into the drain of GEMM `usize`
    /// (graph index); it no longer runs as its own pass.
    FusedInto(usize),
    /// A GEMM reading a packed LHS shared with group `usize`; only the
    /// group's first member pays the quantize-pack.
    SharedPack(usize),
}

/// One node of the emitted plan: the decision plus the priced cycles.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Index into the source graph's node list.
    pub index: usize,
    /// The graph node's name (`blk3.fc1` etc.).
    pub name: String,
    /// What the planner decided.
    pub decision: FuseDecision,
    /// Array cycles of the node's own work under the plan (0 for
    /// [`FuseDecision::FusedInto`] nodes — their work is billed to the
    /// host GEMM's drain).
    pub cycles: f64,
    /// Quantize-pack cycles this node still pays for its LHS under the
    /// plan (0 when eliminated by sharing or an upstream requant drain).
    pub pack_cycles: f64,
}

/// End-to-end cycle pricing of the three schedule variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanTiming {
    /// Every GEMM packs its own LHS, every epilogue runs standalone.
    pub unfused_cycles: f64,
    /// Fused drains + shared packs eliminate their pack cycles.
    pub fused_cycles: f64,
    /// Additionally overlaps the surviving packs with GEMM compute when
    /// the system has ≥ 2 arrays to double-buffer across.
    pub double_buffered_cycles: f64,
}

/// The planner's output: per-node decisions plus aggregate pricing.
#[derive(Debug, Clone)]
pub struct FusePlan {
    /// One entry per graph node, same order as the graph.
    pub nodes: Vec<PlanNode>,
    /// GEMMs carrying a fused drain epilogue.
    pub fused_gemms: usize,
    /// fp32/residual nodes absorbed into a GEMM drain.
    pub absorbed_nodes: usize,
    /// Shared-LHS pack groups (size ≥ 2).
    pub shared_pack_groups: usize,
    /// Quantize-pack cycles every GEMM would pay unfused.
    pub total_pack_cycles: f64,
    /// Pack cycles eliminated by sharing and requantizing drains.
    pub eliminated_pack_cycles: f64,
    /// The priced schedule variants.
    pub timing: PlanTiming,
}

impl FusePlan {
    /// Look up the decision for a node by name.
    pub fn decision(&self, name: &str) -> Option<FuseDecision> {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .map(|n| n.decision)
    }

    /// Fraction of quantize-pack work the plan eliminates.
    pub fn pack_reduction(&self) -> f64 {
        if self.total_pack_cycles <= 0.0 {
            return 0.0;
        }
        self.eliminated_pack_cycles / self.total_pack_cycles
    }

    /// Distill the per-node verdict into the plan the transformer engine
    /// executes: [`CompiledVitPlan::fuse_all`] when the graph carries all
    /// four patterns the engine's block ops fuse — a shared q/k/v pack, a
    /// GELU drain (`fc1`) and both residual drains — else
    /// [`CompiledVitPlan::unfused`]. The mapping is structural: a
    /// residual-fused GEMM whose dependencies include a `Gelu` is the MLP
    /// contraction (`fc2`), any other is the attention output projection
    /// (`wo`). `_sys` is unread; the signature stays because `benchmark/`
    /// calls it.
    pub fn compiled_vit_plan(&self, g: &Graph, _sys: &System) -> CompiledVitPlan {
        let (mut qkv, mut wo, mut fc1, mut fc2) = (false, false, false, false);
        for n in &self.nodes {
            match n.decision {
                FuseDecision::SharedPack(_) => qkv = true,
                FuseDecision::FusedGemm(FuseKind::BiasGelu)
                | FuseDecision::FusedGemm(FuseKind::BiasGeluRequant) => fc1 = true,
                FuseDecision::FusedGemm(FuseKind::BiasResidual) => {
                    let feeds_on_gelu = g.nodes[n.index]
                        .deps
                        .iter()
                        .any(|&d| matches!(g.nodes[d].kind, OpKind::Gelu { .. }));
                    if feeds_on_gelu {
                        fc2 = true;
                    } else {
                        wo = true;
                    }
                }
                _ => {}
            }
        }
        if qkv && wo && fc1 && fc2 {
            CompiledVitPlan::fuse_all()
        } else {
            CompiledVitPlan::unfused()
        }
    }
}

/// One streaming pass over `elems` f32 values through the 64-lane pack
/// datapath: the cost of materialising (or re-reading) an intermediate a
/// fused drain keeps on chip.
fn materialize_cycles(elems: usize) -> f64 {
    elems as f64 / 64.0
}

/// Pattern-match `g` and price every fuse candidate against `sys`.
pub fn plan_fusion(g: &Graph, sys: &System) -> FusePlan {
    let arrays = sys.cfg.total_arrays().max(1);
    let mem = &sys.mem;

    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    for (i, n) in g.nodes.iter().enumerate() {
        for &d in &n.deps {
            consumers[d].push(i);
        }
    }

    let mut decisions = vec![FuseDecision::Standalone; g.nodes.len()];
    // GEMM indices whose LHS pack an upstream requant drain eliminates.
    let mut requant_fed = vec![false; g.nodes.len()];

    // Pass 1: drain epilogues (GEMM → sole-consumer Gelu / Residual).
    for (i, node) in g.nodes.iter().enumerate() {
        let OpKind::MatMul { m, n, .. } = node.kind else {
            continue;
        };
        let [c] = consumers[i][..] else { continue };
        let epi = &g.nodes[c].kind;
        let matches_shape = match *epi {
            OpKind::Gelu { elems } | OpKind::Residual { elems } => elems == m * n,
            _ => false,
        };
        if !matches_shape {
            continue;
        }

        // Roofline pricing: the fused drain inherits the GEMM's array
        // spread; standalone, the epilogue gets its own.
        let epi_cycles = node_cycles(epi, mem);
        let gemm_par = node_parallelism(&node.kind).min(arrays).max(1) as f64;
        let epi_par = node_parallelism(epi).min(arrays).max(1) as f64;
        let parallelism_loss = (epi_cycles / gemm_par - epi_cycles / epi_par).max(0.0);

        // A requant drain additionally kills the consumer GEMM's pack.
        let requant_target = match *epi {
            OpKind::Gelu { .. } => match consumers[c][..] {
                [cc] => match g.nodes[cc].kind {
                    OpKind::MatMul { m: m2, k: k2, .. } if m2 == m && k2 == n => Some(cc),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        };
        let saved = materialize_cycles(m * n)
            + requant_target.map_or(0.0, |cc| {
                let OpKind::MatMul { m: m2, k: k2, .. } = g.nodes[cc].kind else {
                    unreachable!("requant target is a MatMul");
                };
                quantize_pack_cycles(m2, k2)
            });
        if saved < parallelism_loss {
            continue;
        }

        let kind = match *epi {
            OpKind::Residual { .. } => FuseKind::BiasResidual,
            OpKind::Gelu { .. } if requant_target.is_some() => FuseKind::BiasGeluRequant,
            OpKind::Gelu { .. } => FuseKind::BiasGelu,
            _ => unreachable!("shape-matched epilogue"),
        };
        decisions[i] = FuseDecision::FusedGemm(kind);
        decisions[c] = FuseDecision::FusedInto(i);
        if let Some(cc) = requant_target {
            requant_fed[cc] = true;
        }
    }

    // Pass 2: shared packed LHS — GEMMs whose dependency list is the same
    // single LayerNorm node read one packed activation.
    let mut by_source: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        if !matches!(node.kind, OpKind::MatMul { .. }) {
            continue;
        }
        if let [d] = node.deps[..] {
            if matches!(g.nodes[d].kind, OpKind::LayerNorm { .. }) {
                by_source.entry(d).or_default().push(i);
            }
        }
    }
    let mut groups: Vec<(usize, Vec<usize>)> = by_source
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .collect();
    groups.sort_by_key(|(src, _)| *src);
    let mut shared_pack_groups = 0;
    for (gi, (_, members)) in groups.iter().enumerate() {
        // Sharing requires one identical LHS shape across the group.
        let shapes: Vec<(usize, usize)> = members
            .iter()
            .map(|&i| match g.nodes[i].kind {
                OpKind::MatMul { m, k, .. } => (m, k),
                _ => unreachable!("group members are MatMuls"),
            })
            .collect();
        if shapes.windows(2).any(|w| w[0] != w[1]) {
            continue;
        }
        shared_pack_groups += 1;
        for &i in members {
            if decisions[i] == FuseDecision::Standalone {
                decisions[i] = FuseDecision::SharedPack(gi);
            }
        }
    }

    // Per-node pack accounting and aggregates.
    let mut seen_group: HashMap<usize, ()> = HashMap::new();
    let mut total_pack = 0.0;
    let mut eliminated = 0.0;
    let mut fused_gemms = 0;
    let mut absorbed = 0;
    let mut nodes = Vec::with_capacity(g.nodes.len());
    for (i, node) in g.nodes.iter().enumerate() {
        let decision = decisions[i];
        let own_pack = match node.kind {
            OpKind::MatMul { m, k, .. } => quantize_pack_cycles(m, k),
            _ => 0.0,
        };
        total_pack += own_pack;
        let pack_cycles = match decision {
            FuseDecision::SharedPack(gid) if seen_group.insert(gid, ()).is_some() => 0.0,
            _ if requant_fed[i] => 0.0,
            _ => own_pack,
        };
        eliminated += own_pack - pack_cycles;
        let cycles = match decision {
            FuseDecision::FusedInto(_) => {
                absorbed += 1;
                0.0
            }
            FuseDecision::FusedGemm(_) => {
                fused_gemms += 1;
                node_cycles(&node.kind, mem)
            }
            _ => node_cycles(&node.kind, mem),
        };
        nodes.push(PlanNode {
            index: i,
            name: node.name.clone(),
            decision,
            cycles,
            pack_cycles,
        });
    }

    // Price the three schedule variants. The base makespan already covers
    // the array-side work; packing is host/DMA-side and adds serially
    // unless double-buffered behind GEMM compute.
    let base = schedule(g, sys);
    let remaining = total_pack - eliminated;
    let hidden = if arrays >= 2 {
        remaining.min(base.bfp_cycles)
    } else {
        0.0
    };
    let timing = PlanTiming {
        unfused_cycles: base.makespan_cycles + total_pack,
        fused_cycles: base.makespan_cycles + remaining,
        double_buffered_cycles: base.makespan_cycles + remaining - hidden,
    };

    FusePlan {
        nodes,
        fused_gemms,
        absorbed_nodes: absorbed,
        shared_pack_groups,
        total_pack_cycles: total_pack,
        eliminated_pack_cycles: eliminated,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{lower_vit, OpNode};
    use bfp_transformer::VitConfig;

    fn deit_plan() -> (Graph, FusePlan) {
        let g = lower_vit(&VitConfig::deit_small());
        let p = plan_fusion(&g, &System::paper());
        (g, p)
    }

    #[test]
    fn deit_fuses_the_mlp_and_residual_chains() {
        let (g, p) = deit_plan();
        assert_eq!(
            p.decision("blk0.fc1"),
            Some(FuseDecision::FusedGemm(FuseKind::BiasGeluRequant)),
            "fc1 drain re-quantizes into fc2's packed LHS"
        );
        let fc1 = g.nodes.iter().position(|n| n.name == "blk0.fc1").unwrap();
        assert_eq!(p.decision("blk0.gelu"), Some(FuseDecision::FusedInto(fc1)));
        assert_eq!(
            p.decision("blk0.wo"),
            Some(FuseDecision::FusedGemm(FuseKind::BiasResidual))
        );
        assert_eq!(
            p.decision("blk0.fc2"),
            Some(FuseDecision::FusedGemm(FuseKind::BiasResidual))
        );
        // q/k/v share one packed post-LN1 activation.
        let wq = p.decision("blk0.wq").unwrap();
        assert!(matches!(wq, FuseDecision::SharedPack(_)));
        assert_eq!(p.decision("blk0.wk"), Some(wq));
        assert_eq!(p.decision("blk0.wv"), Some(wq));
        // Attention score/context GEMMs stay composed (multi-consumer or
        // softmax-fed — no matched pattern).
        assert_eq!(p.decision("blk0.h0.scores"), Some(FuseDecision::Standalone));
        assert_eq!(p.decision("blk0.h0.ctx"), Some(FuseDecision::Standalone));
        assert_eq!(p.decision("blk0.ln1"), Some(FuseDecision::Standalone));
    }

    #[test]
    fn fused_gemm_count_matches_the_engine_plan() {
        let cfg = VitConfig::deit_small();
        let (_, p) = deit_plan();
        // Per block: 3 shared-pack projections + wo + fc1 + fc2 = the six
        // fused GEMMs the engine's CompiledVitPlan::fuse_all promises.
        let not_standalone = p
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.decision,
                    FuseDecision::FusedGemm(_) | FuseDecision::SharedPack(_)
                )
            })
            .count();
        let want = CompiledVitPlan::fuse_all().fused_gemms_per_block() as usize * cfg.depth;
        assert_eq!(not_standalone, want);
        assert_eq!(p.fused_gemms, 3 * cfg.depth);
        assert_eq!(p.absorbed_nodes, 3 * cfg.depth, "gelu + res1 + res2");
        assert_eq!(p.shared_pack_groups, cfg.depth);
    }

    #[test]
    fn timing_is_monotone_and_pack_reduction_clears_the_bar() {
        let (_, p) = deit_plan();
        let t = p.timing;
        assert!(t.double_buffered_cycles <= t.fused_cycles);
        assert!(t.fused_cycles < t.unfused_cycles);
        assert!(t.double_buffered_cycles > 0.0);
        assert!(p.eliminated_pack_cycles > 0.0);
        // Shared q/k/v packs (2 of 3) plus fc2's requant-fed LHS remove
        // over 40% of all quantize-pack work.
        assert!(
            p.pack_reduction() >= 0.40,
            "pack reduction {:.3}",
            p.pack_reduction()
        );
        assert!(p.pack_reduction() < 1.0);
    }

    #[test]
    fn bridged_plan_is_fuse_all_for_deit() {
        let g = lower_vit(&VitConfig::deit_small());
        let sys = System::paper();
        let p = plan_fusion(&g, &sys);
        assert_eq!(p.compiled_vit_plan(&g, &sys), CompiledVitPlan::fuse_all());
    }

    #[test]
    fn unmatched_graphs_fuse_nothing() {
        // A lone GEMM and a GEMM feeding a wrong-sized GELU: no pattern.
        let g = Graph {
            nodes: vec![
                OpNode {
                    name: "a".into(),
                    kind: OpKind::MatMul {
                        m: 64,
                        k: 64,
                        n: 64,
                    },
                    deps: vec![],
                },
                OpNode {
                    name: "g".into(),
                    kind: OpKind::Gelu { elems: 7 },
                    deps: vec![0],
                },
            ],
        };
        let sys = System::paper();
        let p = plan_fusion(&g, &sys);
        assert!(p
            .nodes
            .iter()
            .all(|n| n.decision == FuseDecision::Standalone));
        assert_eq!(p.eliminated_pack_cycles, 0.0);
        assert_eq!(p.timing.fused_cycles, p.timing.unfused_cycles);
        assert_eq!(p.compiled_vit_plan(&g, &sys), CompiledVitPlan::unfused());
    }

    #[test]
    fn multi_consumer_gelu_blocks_requant_but_not_fusion() {
        // GEMM → GELU whose output fans out to two consumers: the GELU
        // still fuses into the drain (sole consumer of the GEMM), but the
        // drain cannot requant into a single consumer's layout.
        let g = Graph {
            nodes: vec![
                OpNode {
                    name: "mm".into(),
                    kind: OpKind::MatMul {
                        m: 16,
                        k: 32,
                        n: 24,
                    },
                    deps: vec![],
                },
                OpNode {
                    name: "act".into(),
                    kind: OpKind::Gelu { elems: 16 * 24 },
                    deps: vec![0],
                },
                OpNode {
                    name: "left".into(),
                    kind: OpKind::MatMul { m: 16, k: 24, n: 8 },
                    deps: vec![1],
                },
                OpNode {
                    name: "right".into(),
                    kind: OpKind::Residual { elems: 16 * 8 },
                    deps: vec![1, 2],
                },
            ],
        };
        let p = plan_fusion(&g, &System::paper());
        assert_eq!(
            p.decision("mm"),
            Some(FuseDecision::FusedGemm(FuseKind::BiasGelu))
        );
        assert_eq!(p.decision("act"), Some(FuseDecision::FusedInto(0)));
        // "left" still pays its own pack.
        let left = p.nodes.iter().find(|n| n.name == "left").unwrap();
        assert!(left.pack_cycles > 0.0);
        // One matched pattern of the four is not a block the engine's ops
        // fuse: the bridge is all or nothing.
        assert_eq!(
            p.compiled_vit_plan(&g, &System::paper()),
            CompiledVitPlan::unfused()
        );
    }

    #[test]
    fn planner_decisions_match_live_engine_fusion_telemetry() {
        // Satellite cross-check: run the engine under the bridged plan and
        // reconcile its fusion counters and per-node spans against the
        // planner's emitted FusePlan.
        use bfp_transformer::{MixedEngine, VitModel};

        let cfg = VitConfig::tiny_test();
        let g = lower_vit(&cfg);
        let sys = System::paper();
        let plan = plan_fusion(&g, &sys);
        let compiled = plan.compiled_vit_plan(&g, &sys);
        assert_eq!(compiled, CompiledVitPlan::fuse_all());

        let model = VitModel::new_random(cfg, 11);
        let x = model.synthetic_input(3);
        let mut e = MixedEngine::new().with_vit_plan(compiled);
        let tracer = bfp_telemetry::Tracer::new();
        e.attach_tracer(tracer.clone());

        let _ = model.forward(&mut e, &x);
        let (hits, misses) = e.fusion_stats();

        // Engine fusion hits = planner GEMMs that are not Standalone
        // (fused drains + shared-pack projections with fused bias).
        let planned_fused = plan
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.decision,
                    FuseDecision::FusedGemm(_) | FuseDecision::SharedPack(_)
                )
            })
            .count() as u64;
        assert_eq!(hits, planned_fused);
        // Every GEMM the planner fused ran fused; the GEMMs it left
        // Standalone (per-head scores/context) count nowhere.
        assert_eq!(misses, 0);

        // One plan.node.* span per graph node that still runs its own
        // pass — absorbed epilogues ride inside their GEMM's span.
        let spans = tracer
            .drain()
            .iter()
            .filter(|ev| ev.name.starts_with("plan.node."))
            .count();
        let own_pass = plan
            .nodes
            .iter()
            .filter(|n| {
                !matches!(n.decision, FuseDecision::FusedInto(_))
                    && !matches!(g.nodes[n.index].kind, OpKind::Residual { .. })
            })
            .count();
        assert_eq!(spans, own_pass);
    }
}
