//! Dependency-aware scheduling of an operator graph onto the multi-array
//! card — the "full stack acceleration" compilation layer the paper lists
//! as ongoing work.
//!
//! The scheduler performs levelled list scheduling: nodes whose
//! dependencies are satisfied run concurrently, sharing the card's arrays;
//! a level's duration is the work-conserving bound
//! `max(total_work / arrays, longest single pass)`. Costs come from the
//! same calibrated models as everything else — Eqn. 9 pass cycles plus the
//! HBM overhead for GEMMs, the Eqn. 10 burst rate for fp32 vector ops —
//! so the schedule's makespan is directly comparable to the Table IV
//! throughput-division estimate, but additionally accounts for dependency
//! stalls and mode switches.

use bfp_platform::{MemParams, System};
use bfp_pu::throughput;
use bfp_pu::MAX_X_BLOCKS;

use crate::graph::{Graph, OpKind};

/// Cycles to reconfigure an array between bfp8 and fp32 modes (the run-time
/// mode switch; a handful of control cycles).
pub const MODE_SWITCH_CYCLES: f64 = 8.0;

/// One scheduled level: concurrently running nodes.
#[derive(Debug, Clone)]
pub struct Level {
    /// Node indices running in this level.
    pub nodes: Vec<usize>,
    /// Level duration in cycles.
    pub cycles: f64,
    /// Whether the level contains bfp8 work.
    pub has_bfp: bool,
    /// Whether the level contains fp32 work.
    pub has_fp32: bool,
}

/// A complete schedule with its timing analysis.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The levels in execution order.
    pub levels: Vec<Level>,
    /// Total makespan in cycles (including mode switches).
    pub makespan_cycles: f64,
    /// Cycles attributable to bfp8 levels.
    pub bfp_cycles: f64,
    /// Cycles attributable to fp32 levels.
    pub fp32_cycles: f64,
    /// Cycles lost to mode switches.
    pub switch_cycles: f64,
    /// The serial (single-array, no-overlap) execution time, for speedup.
    pub serial_cycles: f64,
}

impl Schedule {
    /// Makespan in seconds at `freq` Hz.
    pub fn seconds(&self, freq: f64) -> f64 {
        self.makespan_cycles / freq
    }

    /// Speedup of the scheduled parallel execution over one array run
    /// serially.
    pub fn speedup(&self) -> f64 {
        self.serial_cycles / self.makespan_cycles
    }

}

/// Modelled cycle overhead of checksum protection for an `m × k × n`
/// GEMM on one array, in the same currency as
/// [`gemm_cycles_one_array`].
///
/// The per-step checksum products themselves ride in the augmented PE
/// row and column of the classic ABFT systolic arrangement — an *area*
/// cost (`2b + 1` extra PEs over `b²`, ~26% at `b = 8`), not a time
/// cost: checksum outputs emerge in the same passes as the data. What
/// does cost cycles, with the array retiring `b² = 64` MAC-equivalents
/// per cycle:
///
/// * pack-time lane generation — `b²` adds per operand tile:
///   `(mb·kb + kb·nb)` cycles;
/// * checkpoint re-summations at exponent-rescale (truncation) events —
///   a `b²`-add re-sync of the running column/row sums, budgeted at one
///   rescale every fourth accumulation step: `mb·nb·kb/4` cycles;
/// * final verification — one `b²` re-summation plus compare per output
///   chain: `mb·nb` cycles.
pub fn abft_overhead_cycles(m: usize, k: usize, n: usize) -> f64 {
    let mb = m.div_ceil(8);
    let kb = k.div_ceil(8);
    let nb = n.div_ceil(8);
    let lane_gen = (mb * kb + kb * nb) as f64;
    let checkpoints = (mb * nb) as f64 * (kb as f64 / 4.0);
    let final_verify = (mb * nb) as f64;
    lane_gen + checkpoints + final_verify
}

/// Serial cycles of one node on a single array.
pub fn node_cycles(kind: &OpKind, mem: &MemParams) -> f64 {
    match *kind {
        OpKind::MatMul { m, k, n } => gemm_cycles_one_array(m, k, n, mem),
        OpKind::Residual { .. } => 0.0, // memory-side, overlapped with DMA
        _ => {
            let flops = kind.fp32_flops() as f64;
            // Sustained fp32 rate per array at the full burst length.
            let per_cycle = (4 * 128) as f64
                / (throughput::fp32_burst_cycles(128) as f64 + mem.fp_burst_overhead(128));
            flops / per_cycle
        }
    }
}

/// Cycles for an `m × k × n` GEMM on one array: Eqn. 9 passes (Y-pair
/// stationary over N, K-reduction, PSU-chunked M) plus HBM overhead.
pub fn gemm_cycles_one_array(m: usize, k: usize, n: usize, mem: &MemParams) -> f64 {
    let mb = m.div_ceil(8);
    let kb = k.div_ceil(8);
    let nb = n.div_ceil(8);
    let n_pairs = nb.div_ceil(2);
    let mut cycles = 0.0;
    let mut m0 = 0;
    while m0 < mb {
        let chunk = (mb - m0).min(MAX_X_BLOCKS);
        let per_pass = throughput::bfp_pass_cycles(chunk) as f64 + mem.bfp_pass_overhead(chunk);
        cycles += per_pass * (n_pairs * kb) as f64;
        m0 += chunk;
    }
    cycles
}

/// Cycles to quantize-pack a `rows × cols` f32 operand into the bfp8
/// block-major layout: one shared-exponent scan pass plus one
/// round-and-pack pass, each streaming every element through the
/// 64-lane (8×8-tile) pack datapath. This is the cost a fused
/// requantizing epilogue eliminates when it writes the GEMM drain
/// straight into the next GEMM's packed layout, and what a shared-LHS
/// group saves `size − 1` times over.
pub fn quantize_pack_cycles(rows: usize, cols: usize) -> f64 {
    2.0 * (rows * cols) as f64 / 64.0
}

/// Maximum useful parallelism of a node (how many arrays can share it).
pub fn node_parallelism(kind: &OpKind) -> usize {
    match *kind {
        // Independent (M-chunk, N-pair) pass groups.
        OpKind::MatMul { m, n, .. } => m.div_ceil(8).max(1) * n.div_ceil(16).max(1),
        OpKind::Softmax { rows, .. } => rows.max(1),
        OpKind::LayerNorm { rows, .. } => rows.max(1),
        OpKind::Gelu { elems } => elems.div_ceil(512).max(1),
        OpKind::Residual { .. } => usize::MAX,
    }
}

/// Schedule a graph onto `sys`.
///
/// ```
/// use bfp_core::{lower_vit, schedule};
/// use bfp_platform::System;
/// use bfp_transformer::VitConfig;
///
/// let g = lower_vit(&VitConfig::deit_small());
/// let s = schedule(&g, &System::paper());
/// assert!(s.speedup() > 1.0);                  // 30 arrays help
/// assert!(s.fp32_cycles > s.bfp_cycles);       // Table IV's conclusion
/// ```
pub fn schedule(graph: &Graph, sys: &System) -> Schedule {
    assert!(
        graph.is_topological(),
        "graph must be topologically ordered"
    );
    let arrays = sys.cfg.total_arrays().max(1) as f64;
    let mem = &sys.mem;

    // ASAP levelling.
    let mut level_of = vec![0usize; graph.nodes.len()];
    let mut max_level = 0;
    for (i, node) in graph.nodes.iter().enumerate() {
        let l = node
            .deps
            .iter()
            .map(|&d| level_of[d] + 1)
            .max()
            .unwrap_or(0);
        level_of[i] = l;
        max_level = max_level.max(l);
    }
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (i, &l) in level_of.iter().enumerate() {
        buckets[l].push(i);
    }

    let mut levels = Vec::with_capacity(buckets.len());
    let mut serial = 0.0;
    let mut bfp_cycles = 0.0;
    let mut fp32_cycles = 0.0;
    let mut switch_cycles = 0.0;
    let mut prev_mode: Option<bool> = None; // true = bfp level

    for bucket in buckets {
        let mut total_work = 0.0;
        let mut longest_indivisible: f64 = 0.0;
        let mut has_bfp = false;
        let mut has_fp32 = false;
        for &i in &bucket {
            let kind = &graph.nodes[i].kind;
            let w = node_cycles(kind, mem);
            serial += w;
            total_work += w;
            // A node cannot finish faster than its work spread over its
            // own maximum parallelism allows.
            let par = node_parallelism(kind).min(arrays as usize).max(1) as f64;
            longest_indivisible = longest_indivisible.max(w / par);
            match kind {
                OpKind::MatMul { .. } => has_bfp = true,
                OpKind::Residual { .. } => {}
                _ => has_fp32 = true,
            }
        }
        let cycles = (total_work / arrays).max(longest_indivisible);
        // Mode switch whenever the dominant mode changes between levels.
        let mode = has_bfp && !has_fp32;
        if let Some(p) = prev_mode {
            if p != mode && (has_bfp || has_fp32) {
                switch_cycles += MODE_SWITCH_CYCLES;
            }
        }
        if has_bfp || has_fp32 {
            prev_mode = Some(mode);
        }
        if has_bfp {
            bfp_cycles += cycles;
        } else if has_fp32 {
            fp32_cycles += cycles;
        }
        levels.push(Level {
            nodes: bucket,
            cycles,
            has_bfp,
            has_fp32,
        });
    }

    let makespan: f64 = levels.iter().map(|l| l.cycles).sum::<f64>() + switch_cycles;
    Schedule {
        levels,
        makespan_cycles: makespan,
        bfp_cycles,
        fp32_cycles,
        switch_cycles,
        serial_cycles: serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::lower_vit;
    use crate::latency::LatencyModel;
    use bfp_transformer::{analytical_census, VitConfig};

    fn sys() -> System {
        System::paper()
    }

    #[test]
    fn makespan_is_between_critical_path_and_serial() {
        let g = lower_vit(&VitConfig::deit_small());
        let s = schedule(&g, &sys());
        assert!(s.makespan_cycles > 0.0);
        assert!(
            s.makespan_cycles <= s.serial_cycles,
            "parallelism must help"
        );
        assert!(s.speedup() > 1.0);
        assert!(s.speedup() <= 30.0 + 1e-9, "cannot beat the array count");
    }

    #[test]
    fn schedule_latency_is_comparable_to_table4_model() {
        // The dependency-aware estimate must land in the same regime as the
        // ops/throughput division (same models, plus stalls).
        let cfg = VitConfig::deit_small();
        let g = lower_vit(&cfg);
        let s = schedule(&g, &sys());
        let sched_ms = s.seconds(300.0e6) * 1e3;

        let census = analytical_census(&cfg);
        let table4_ms = LatencyModel::from_system(&sys())
            .breakdown(&census)
            .total_latency_s()
            * 1e3;
        assert!(
            sched_ms >= table4_ms * 0.5 && sched_ms <= table4_ms * 4.0,
            "schedule {sched_ms:.3} ms vs throughput model {table4_ms:.3} ms"
        );
    }

    #[test]
    fn fp32_levels_dominate_the_makespan() {
        // The Table IV conclusion shows up in the schedule too.
        let g = lower_vit(&VitConfig::deit_small());
        let s = schedule(&g, &sys());
        assert!(
            s.fp32_cycles > s.bfp_cycles,
            "fp32 {} vs bfp8 {} cycles",
            s.fp32_cycles,
            s.bfp_cycles
        );
    }

    #[test]
    fn levels_respect_dependencies() {
        let g = lower_vit(&VitConfig::tiny_test());
        let s = schedule(&g, &sys());
        let mut level_of = vec![0usize; g.nodes.len()];
        for (li, level) in s.levels.iter().enumerate() {
            for &n in &level.nodes {
                level_of[n] = li;
            }
        }
        for (i, node) in g.nodes.iter().enumerate() {
            for &d in &node.deps {
                assert!(level_of[d] < level_of[i], "dep {d} must precede {i}");
            }
        }
    }

    #[test]
    fn mode_switches_are_counted() {
        let g = lower_vit(&VitConfig::tiny_test());
        let s = schedule(&g, &sys());
        // Each block alternates bfp8/fp32 several times.
        assert!(s.switch_cycles >= MODE_SWITCH_CYCLES * 4.0);
    }

    #[test]
    fn single_array_schedule_equals_serial_within_granularity() {
        let g = lower_vit(&VitConfig::tiny_test());
        let one = System {
            cfg: bfp_platform::SystemConfig {
                units: 1,
                arrays_per_unit: 1,
            },
            ..System::paper()
        };
        let s = schedule(&g, &one);
        assert!((s.makespan_cycles - s.switch_cycles - s.serial_cycles).abs() < 1.0);
    }

    #[test]
    fn abft_overhead_is_a_modest_fraction_of_the_pass_model() {
        // DeiT-S attention-projection shape: the checksum maintenance must
        // stay well under the pass cycles it protects (the <10% target the
        // chaos campaign measures end to end).
        let mem = MemParams::paper_calibrated();
        let (m, k, n) = (197, 384, 384);
        let pass = gemm_cycles_one_array(m, k, n, &mem);
        let abft = abft_overhead_cycles(m, k, n);
        assert!(abft > 0.0);
        assert!(
            abft < 0.10 * pass,
            "abft overhead {abft} vs pass {pass} cycles"
        );
    }

    #[test]
    fn gemm_cost_matches_unit_accounting() {
        // One pass worth of work: the closed form equals the simulator's
        // compute cycles plus the modelled memory overhead.
        let mem = MemParams::paper_calibrated();
        let got = gemm_cycles_one_array(64, 8, 16, &mem);
        let want = throughput::bfp_pass_cycles(8) as f64 + mem.bfp_pass_overhead(8);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
}
