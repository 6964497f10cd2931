//! The metric names and units of `BENCHMARK.json`, and a store that
//! accepts exactly those: a run that skips a metric, names an unknown
//! one, or measures a non-number stops before it prints a result.

/// (name, unit). Measured with tracing off, on every workload; an op is
/// one image (deit_*) or one request (serve_*).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("good_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// (name, unit). Measured by the traced run; README.md says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // bfp-arith: packed bfp8 kernels at the shapes DeiT-Small executes.
    ("arith.packed.pack_lhs_ms.197x384", "ms"),
    ("arith.packed.pack_lhs_ms.197x1536", "ms"),
    ("arith.packed.pack_rhs_ms.384x384", "ms"),
    ("arith.packed.pack_rhs_ms.384x1536", "ms"),
    ("arith.packed.gemm_ms.197x384x384", "ms"),
    ("arith.packed.gemm_ms.197x384x1536", "ms"),
    ("arith.packed.gemm_ms.197x1536x384", "ms"),
    ("arith.packed.gemm_ms.197x64x197", "ms"),
    ("arith.packed.gemm_ms.197x197x64", "ms"),
    ("arith.packed.gemm_gflop_eq_s", "GFLOP/s"),
    ("arith.packed.fused_drain_ms.fc1_gelu_fast", "ms"),
    ("arith.packed.fused_drain_ms.fc1_gelu_exact", "ms"),
    ("arith.packed.fused_drain_ms.fc2_residual", "ms"),
    ("arith.abft.gemm_ms.197x384x384", "ms"),
    ("arith.abft.pack_ms.197x384x384", "ms"),
    ("arith.abft.overhead_ratio", "ratio"),
    ("arith.fp32.mul_ns", "ns"),
    ("arith.fp32.add_ns", "ns"),
    // bfp-transformer: VPU kernels, then the engine on whole images.
    ("transformer.vpu.softmax_ns_elem.exact", "ns"),
    ("transformer.vpu.softmax_ns_elem.fast", "ns"),
    ("transformer.vpu.gelu_ns_elem.exact", "ns"),
    ("transformer.vpu.gelu_ns_elem.fast", "ns"),
    ("transformer.vpu.layernorm_ns_elem.exact", "ns"),
    ("transformer.vpu.layernorm_ns_elem.fast", "ns"),
    ("transformer.engine.images_per_s", "1/s"),
    ("transformer.engine.embed_ms", "ms"),
    ("transformer.engine.block_ms_p50", "ms"),
    ("transformer.engine.head_ms", "ms"),
    ("transformer.engine.image_self_frac", "ratio"),
    ("transformer.engine.phase_ms.quantize_pack", "ms"),
    ("transformer.engine.phase_ms.gemm", "ms"),
    ("transformer.engine.phase_ms.softmax", "ms"),
    ("transformer.engine.phase_ms.gelu", "ms"),
    ("transformer.engine.phase_ms.layernorm", "ms"),
    ("transformer.engine.phase_ms.unaccounted", "ms"),
    ("transformer.engine.plan_cache_hits_img", "count"),
    ("transformer.engine.plan_cache_misses_img", "count"),
    ("transformer.engine.plan_cache_bytes", "B"),
    ("transformer.engine.fusion_hits_img", "count"),
    ("transformer.engine.fusion_misses_img", "count"),
    ("transformer.engine.logit_sqnr_db", "dB"),
    // bfp-core: planner, FPGA-clock latency model, threaded GEMM; and
    // the cycle simulator in bfp-pu behind `Accelerator`.
    ("core.planner.plan_ms", "ms"),
    ("core.planner.cycles.unfused", "cycles"),
    ("core.planner.cycles.fused", "cycles"),
    ("core.planner.cycles.double_buffered", "cycles"),
    ("core.latency.modelled_ms_per_image", "ms"),
    ("core.latency.modelled_ms.bfp8", "ms"),
    ("core.latency.modelled_ms.layernorm", "ms"),
    ("core.latency.modelled_ms.softmax", "ms"),
    ("core.latency.modelled_ms.gelu", "ms"),
    ("core.latency.fp32_latency_share", "ratio"),
    ("core.fastgemm.speedup_nproc.197x384x1536", "ratio"),
    ("pu.sim.cycles.64x64x64", "cycles"),
    ("pu.sim.cycles_per_host_s", "1/s"),
    // bfp-serve: one array's backend alone, then the server under load.
    ("serve.backend.execute_ms.proj_gemm", "ms"),
    ("serve.backend.execute_ms.proj_gelu_exact", "ms"),
    ("serve.backend.execute_ms.proj_gelu_fast", "ms"),
    ("serve.backend.execute_ms.fc1_gelu_exact", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p95", "ms"),
    ("serve.handoff_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.goodput_rps", "1/s"),
    ("serve.latency_ms_p95", "ms"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.critical_latency_ms_p95", "ms"),
    ("serve.critical_good_frac", "ratio"),
    ("serve.admitted", "count"),
    ("serve.quota_rejected", "count"),
    ("serve.deadline_rejected", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.brownout_transitions", "count"),
    ("serve.brownout_max_tier", "count"),
    ("serve.completed_fast_frac", "ratio"),
    ("serve.queue_high_water", "count"),
    ("serve.useful_frac", "ratio"),
    // The run's own validity: not targets.
    ("gen.late_ms_p95", "ms"),
    ("telemetry.records_dropped", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics that are a function of the code and the seed alone;
/// `--repeat` holds them identical across its runs.
pub const DETERMINISTIC: &[&str] = &[
    "transformer.engine.plan_cache_hits_img",
    "transformer.engine.plan_cache_misses_img",
    "transformer.engine.plan_cache_bytes",
    "transformer.engine.fusion_hits_img",
    "transformer.engine.fusion_misses_img",
    "transformer.engine.logit_sqnr_db",
    "core.planner.cycles.unfused",
    "core.planner.cycles.fused",
    "core.planner.cycles.double_buffered",
    "core.latency.modelled_ms_per_image",
    "core.latency.modelled_ms.bfp8",
    "core.latency.modelled_ms.layernorm",
    "core.latency.modelled_ms.softmax",
    "core.latency.modelled_ms.gelu",
    "core.latency.fp32_latency_share",
    "pu.sim.cycles.64x64x64",
];

/// Values for one fixed list of metrics.
pub struct Metrics {
    spec: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            spec,
            values: vec![None; spec.len()],
        }
    }

    /// # Panics
    /// Panics on a name outside the list, a second value for one name,
    /// or a value that is not a finite number.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .spec
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's list"));
        assert!(value.is_finite(), "metric {name} measured {value}");
        assert!(
            self.values[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    /// (name, value, unit) for every metric of the list.
    ///
    /// # Panics
    /// Panics if the run left one out.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.spec
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                (
                    *name,
                    v.unwrap_or_else(|| panic!("metric {name} was not measured")),
                    *unit,
                )
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for name in DETERMINISTIC {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\":")));
        }
    }

    #[test]
    fn store_prints_every_metric_once() {
        let mut m = Metrics::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let json = m.to_json();
        assert!(
            json.starts_with("{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"latency_ms_p50\"")
        );
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_skipped_metric_stops_the_run() {
        Metrics::new(END_TO_END).rows();
    }
}
