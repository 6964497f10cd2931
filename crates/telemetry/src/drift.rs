//! Predicted-vs-measured drift attribution for compiled plans.
//!
//! A plan prices every node in modelled accelerator cycles; the engine
//! measures every node in host wall-clock. The two live in different
//! currencies, so the comparison needs a calibration step: a single
//! cycles-per-second factor chosen so the plan's *total* predicted
//! cycles equal the *total* measured time. After calibration every
//! node's drift ratio
//!
//! ```text
//! drift = (measured_s × calibration_hz) / predicted_cycles
//! ```
//!
//! says how mispriced that node is relative to the rest of the plan:
//! `1.0` means the node consumed exactly its predicted share of the
//! run, `2.0` means the planner undercharged it twofold (it ran slower
//! than its price), `0.5` means the planner overcharged it. The
//! cycle-weighted mean of `drift` is `1.0` by construction — the
//! calibration absorbs the global scale — so the per-node spread *is*
//! the signal: a node drifting hard is one the planner would fuse (or
//! refuse to fuse) for the wrong reason.
//!
//! [`PlanDriftReport`] carries the per-node attribution, renders as a
//! [`Table`] or JSON, and answers the top-K "mispriced nodes" query the
//! drift gates read.

use crate::json;
use crate::report::Table;

use std::fmt::Write as _;

/// One node's predicted price and measured cost. The inputs to
/// [`PlanDriftReport::new`]; producers fill `predicted_cycles` /
/// `pack_cycles` from the planner and `measured_s` / `samples` from the
/// engine's node clocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSample {
    /// Canonical node key (shared between planner and engine).
    pub name: String,
    /// Array cycles of the node's own work under the plan.
    pub predicted_cycles: f64,
    /// Quantize-pack cycles the node still pays under the plan.
    pub pack_cycles: f64,
    /// Accumulated measured wall-clock seconds.
    pub measured_s: f64,
    /// Number of measured executions folded into `measured_s`.
    pub samples: u64,
}

impl NodeSample {
    /// Total predicted cycles (work + surviving pack).
    pub fn total_cycles(&self) -> f64 {
        self.predicted_cycles + self.pack_cycles
    }
}

/// One attributed node of a [`PlanDriftReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDrift {
    /// The node's sample (prediction + measurement).
    pub sample: NodeSample,
    /// Calibrated measured cycles (`measured_s × calibration_hz`).
    pub measured_cycles: f64,
    /// Mispricing ratio `measured_cycles / predicted_total_cycles`.
    pub drift_ratio: f64,
}

impl NodeDrift {
    /// `log2` of the drift ratio: symmetric mispricing magnitude
    /// (`+1` = 2× undercharged, `-1` = 2× overcharged).
    pub fn log2_drift(&self) -> f64 {
        self.drift_ratio.log2()
    }
}

/// Predicted-vs-measured attribution of one compiled plan.
#[derive(Debug, Clone, Default)]
pub struct PlanDriftReport {
    /// Calibrated cycles-per-second factor (total predicted cycles over
    /// total measured seconds across matched nodes).
    pub calibration_hz: f64,
    /// Matched nodes (prediction *and* measurement present), input order.
    pub nodes: Vec<NodeDrift>,
    /// Nodes the planner priced but the engine never measured.
    pub unmeasured: Vec<String>,
    /// Nodes the engine measured but the planner never priced.
    pub unpriced: Vec<String>,
}

impl PlanDriftReport {
    /// Attribute drift across `samples`. Nodes with a positive predicted
    /// price and a positive measurement participate in the calibration
    /// and get a drift ratio; one-sided nodes land in
    /// [`unmeasured`](Self::unmeasured) / [`unpriced`](Self::unpriced)
    /// so coverage gaps are visible instead of silently dropped.
    pub fn new(samples: Vec<NodeSample>) -> Self {
        let mut total_cycles = 0.0;
        let mut total_s = 0.0;
        for s in &samples {
            if s.total_cycles() > 0.0 && s.measured_s > 0.0 {
                total_cycles += s.total_cycles();
                total_s += s.measured_s;
            }
        }
        let hz = if total_s > 0.0 {
            total_cycles / total_s
        } else {
            0.0
        };
        let mut nodes = Vec::new();
        let mut unmeasured = Vec::new();
        let mut unpriced = Vec::new();
        for s in samples {
            match (s.total_cycles() > 0.0, s.measured_s > 0.0) {
                (true, true) => {
                    let measured_cycles = s.measured_s * hz;
                    let drift_ratio = measured_cycles / s.total_cycles();
                    nodes.push(NodeDrift {
                        sample: s,
                        measured_cycles,
                        drift_ratio,
                    });
                }
                (true, false) => unmeasured.push(s.name),
                (false, true) => unpriced.push(s.name),
                // Zero-priced, zero-measured nodes (absorbed residuals)
                // carry no signal either way.
                (false, false) => {}
            }
        }
        PlanDriftReport {
            calibration_hz: hz,
            nodes,
            unmeasured,
            unpriced,
        }
    }

    /// The `k` most mispriced nodes, by `|log2(drift)|` descending.
    pub fn top_mispriced(&self, k: usize) -> Vec<&NodeDrift> {
        let mut v: Vec<&NodeDrift> = self.nodes.iter().collect();
        v.sort_by(|a, b| {
            b.log2_drift()
                .abs()
                .total_cmp(&a.log2_drift().abs())
                .then_with(|| a.sample.name.cmp(&b.sample.name))
        });
        v.truncate(k);
        v
    }

    /// Largest `|log2(drift)|` across matched nodes (0 when empty).
    pub fn max_abs_log2_drift(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.log2_drift().abs())
            .fold(0.0, f64::max)
    }

    /// Cycle-weighted mean of `|log2(drift)|`: the plan-level mispricing
    /// magnitude, with each node weighted by its predicted share.
    pub fn weighted_mean_abs_log2_drift(&self) -> f64 {
        let total: f64 = self.nodes.iter().map(|n| n.sample.total_cycles()).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|n| n.log2_drift().abs() * n.sample.total_cycles())
            .sum::<f64>()
            / total
    }

    /// Cycle-weighted fraction of the plan whose nodes drift within
    /// `tolerance` (ratio in `[1/tolerance, tolerance]`). `1.0` for an
    /// empty report.
    pub fn fraction_within(&self, tolerance: f64) -> f64 {
        let total: f64 = self.nodes.iter().map(|n| n.sample.total_cycles()).sum();
        if total <= 0.0 {
            return 1.0;
        }
        let tol = tolerance.max(1.0);
        self.nodes
            .iter()
            .filter(|n| n.drift_ratio >= 1.0 / tol && n.drift_ratio <= tol)
            .map(|n| n.sample.total_cycles())
            .sum::<f64>()
            / total
    }

    /// Render the attribution as a text table, worst mispricing first.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "plan drift attribution — calibration {:.3e} cycles/s, \
                 {} nodes ({} unmeasured, {} unpriced)",
                self.calibration_hz,
                self.nodes.len(),
                self.unmeasured.len(),
                self.unpriced.len(),
            ),
            &[
                "node",
                "pred cycles",
                "pack cycles",
                "measured ms",
                "samples",
                "drift",
                "log2",
            ],
        );
        for n in self.top_mispriced(self.nodes.len()) {
            t.row(&[
                n.sample.name.clone(),
                format!("{:.0}", n.sample.predicted_cycles),
                format!("{:.0}", n.sample.pack_cycles),
                format!("{:.3}", n.sample.measured_s * 1e3),
                n.sample.samples.to_string(),
                format!("{:.3}", n.drift_ratio),
                format!("{:+.2}", n.log2_drift()),
            ]);
        }
        t
    }

    /// JSON rendering for bench artifacts: calibration, per-node rows
    /// (input order), and the top-`k` mispriced list.
    pub fn to_json(&self, top_k: usize) -> String {
        let mut s = String::from("{\n");
        let _ = write!(s, "      \"calibration_hz\": ");
        json::write_f64(&mut s, self.calibration_hz);
        s.push_str(",\n");
        let _ = write!(s, "      \"weighted_mean_abs_log2_drift\": ");
        json::write_f64(&mut s, self.weighted_mean_abs_log2_drift());
        s.push_str(",\n");
        let _ = write!(s, "      \"max_abs_log2_drift\": ");
        json::write_f64(&mut s, self.max_abs_log2_drift());
        s.push_str(",\n");
        let _ = writeln!(s, "      \"unmeasured\": {},", self.unmeasured.len());
        let _ = writeln!(s, "      \"unpriced\": {},", self.unpriced.len());
        s.push_str("      \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"name\": {}, \"predicted_cycles\": {:.1}, \
                 \"pack_cycles\": {:.1}, \"measured_ms\": {:.4}, \
                 \"samples\": {}, \"drift_ratio\": {:.4}}}{}",
                json::string(&n.sample.name),
                n.sample.predicted_cycles,
                n.sample.pack_cycles,
                n.sample.measured_s * 1e3,
                n.sample.samples,
                n.drift_ratio,
                if i + 1 == self.nodes.len() {
                    "\n"
                } else {
                    ",\n"
                }
            );
        }
        s.push_str("      ],\n");
        s.push_str("      \"top_mispriced\": [\n");
        let top = self.top_mispriced(top_k);
        for (i, n) in top.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"name\": {}, \"drift_ratio\": {:.4}}}{}",
                json::string(&n.sample.name),
                n.drift_ratio,
                if i + 1 == top.len() { "\n" } else { ",\n" }
            );
        }
        s.push_str("      ]\n    }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, cycles: f64, pack: f64, s: f64) -> NodeSample {
        NodeSample {
            name: name.into(),
            predicted_cycles: cycles,
            pack_cycles: pack,
            measured_s: s,
            samples: 1,
        }
    }

    #[test]
    fn calibration_makes_weighted_mean_unity() {
        // Two nodes, predictions 100 + 300 cycles, measured 2 + 2 s:
        // hz = 400 / 4 = 100 cycles/s.
        let r = PlanDriftReport::new(vec![
            sample("a", 100.0, 0.0, 2.0),
            sample("b", 300.0, 0.0, 2.0),
        ]);
        assert!((r.calibration_hz - 100.0).abs() < 1e-9);
        // a: measured 200 cycles vs 100 predicted → drift 2.0 (undercharged)
        // b: measured 200 cycles vs 300 predicted → drift 0.667
        assert!((r.nodes[0].drift_ratio - 2.0).abs() < 1e-9);
        assert!((r.nodes[1].drift_ratio - 2.0 / 3.0).abs() < 1e-9);
        // Cycle-weighted mean drift is 1 by construction.
        let total: f64 = r.nodes.iter().map(|n| n.sample.total_cycles()).sum();
        let mean: f64 = r
            .nodes
            .iter()
            .map(|n| n.drift_ratio * n.sample.total_cycles())
            .sum::<f64>()
            / total;
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn pack_cycles_count_toward_the_price() {
        let r = PlanDriftReport::new(vec![
            sample("a", 50.0, 50.0, 1.0),
            sample("b", 100.0, 0.0, 1.0),
        ]);
        assert!((r.nodes[0].sample.total_cycles() - 100.0).abs() < 1e-9);
        assert!((r.nodes[0].drift_ratio - 1.0).abs() < 1e-9);
        assert!((r.nodes[1].drift_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_gaps_are_reported_not_dropped() {
        let r = PlanDriftReport::new(vec![
            sample("ok", 100.0, 0.0, 1.0),
            sample("priced_only", 50.0, 0.0, 0.0),
            sample("measured_only", 0.0, 0.0, 0.5),
            sample("absorbed", 0.0, 0.0, 0.0),
        ]);
        assert_eq!(r.nodes.len(), 1);
        assert_eq!(r.unmeasured, vec!["priced_only".to_string()]);
        assert_eq!(r.unpriced, vec!["measured_only".to_string()]);
    }

    #[test]
    fn top_mispriced_orders_by_magnitude() {
        let r = PlanDriftReport::new(vec![
            sample("mild", 100.0, 0.0, 1.0),
            sample("over", 400.0, 0.0, 1.0),
            sample("under", 25.0, 0.0, 1.0),
        ]);
        let top = r.top_mispriced(2);
        // "under" drifts hardest (25 cycles priced, equal share measured).
        assert_eq!(top[0].sample.name, "under");
        assert!(top[0].drift_ratio > 1.0);
        assert_eq!(top[1].sample.name, "over");
        assert!(top[1].drift_ratio < 1.0);
        assert!(r.max_abs_log2_drift() >= top[0].log2_drift().abs());
    }

    #[test]
    fn tolerance_fraction_is_cycle_weighted() {
        // hz = 1000/2 = 500: "good" drifts to 0.56, "bad" to 5.0 —
        // only "bad" (10% of cycles) escapes a 4x tolerance.
        let r = PlanDriftReport::new(vec![
            sample("good", 900.0, 0.0, 1.0),
            sample("bad", 100.0, 0.0, 1.0),
        ]);
        let f = r.fraction_within(4.0);
        assert!((f - 0.9).abs() < 1e-9, "{f}");
        assert_eq!(r.fraction_within(1e9), 1.0);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = PlanDriftReport::new(vec![]);
        assert_eq!(r.calibration_hz, 0.0);
        assert_eq!(r.fraction_within(2.0), 1.0);
        assert_eq!(r.max_abs_log2_drift(), 0.0);
        assert!(r.top_mispriced(5).is_empty());
        assert!(r.to_table().is_empty());
    }

    #[test]
    fn json_is_balanced_and_carries_nodes() {
        let r = PlanDriftReport::new(vec![sample("a", 100.0, 10.0, 1.0)]);
        let j = r.to_json(3);
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert!(j.contains("\"calibration_hz\""), "{j}");
        assert!(j.contains("\"name\": \"a\""), "{j}");
        assert!(j.contains("\"top_mispriced\""), "{j}");
    }
}
