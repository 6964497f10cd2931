//! `bench` — the repo's perf-trajectory data point generator.
//!
//! Times the three bfp8 GEMM execution paths (naive reference kernel,
//! packed serial kernel, block-row-parallel kernel under
//! `ParallelPolicy::Auto`) at DeiT layer shapes, plus steady-state
//! mixed-precision inference, and emits the results as `BENCH_GEMM.json`
//! (schema `bench_gemm/v4`) so successive PRs have comparable numbers.
//! Every row is timed by duration ([`bfp_bench::time_passes`]) and
//! reported as median and min–max over passes. The only gate is bits:
//! every path, at every entry of [`THREAD_SWEEP`], must agree with the
//! reference kernel before a number is written. Whether more threads pay
//! is measured at the real shape by the repo's benchmark
//! (`core.fastgemm.speedup_nproc.197x384x1536`), not asserted here.
//!
//! ```sh
//! cargo run --release -p bfp-bench --bin bench            # full run
//! cargo run --release -p bfp-bench --bin bench -- --quick # CI smoke
//! cargo run --release -p bfp-bench --bin bench -- --out /tmp/b.json
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use bfp_arith::packed::PackedBfp;
use bfp_arith::quant::Quantizer;
use bfp_bench::{bench_config, min_timed, smooth_matrix, time_passes, PassTimes};
use bfp_core::{packed_matmul, ParallelPolicy, Table};
use bfp_transformer::{DeitModel, Image, MixedEngine};

/// GEMM shapes benchmarked: the DeiT-Small projection shape is the
/// acceptance anchor; fc1 stresses the N dimension, scores the skinny-K
/// attention shape.
const SHAPES: [(&str, usize, usize, usize); 3] = [
    ("deit_small_proj_197x384x384", 197, 384, 384),
    ("deit_small_fc1_197x384x1536", 197, 384, 1536),
    ("attn_scores_197x64x197", 197, 64, 197),
];

/// Shard counts the parallel GEMM is bit-checked at (forced through
/// `Threads(t)`, so every count exercises the fork/join machinery).
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

struct GemmRow {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive: PassTimes,
    packed: PassTimes,
    /// The sharded kernel under `ParallelPolicy::Auto`.
    parallel: PassTimes,
    quantize_pack: PassTimes,
    quantize_pack_fused: PassTimes,
}

impl GemmRow {
    /// Median of the faster packed path, serial or sharded.
    fn best_packed_ms(&self) -> f64 {
        self.packed.median_ms().min(self.parallel.median_ms())
    }

    fn speedup(&self) -> f64 {
        self.naive.median_ms() / self.best_packed_ms()
    }

    fn packed_gops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64 / 1e9 / (self.best_packed_ms() / 1e3)
    }
}

/// Time `f` for at least `min_wall`.
fn time<T>(min_wall: Duration, mut f: impl FnMut() -> T) -> PassTimes {
    time_passes(min_wall, || {
        std::hint::black_box(f());
    })
}

fn bench_gemms(min_wall: Duration) -> Vec<GemmRow> {
    let q = Quantizer::paper();
    SHAPES
        .iter()
        .map(|&(name, m, k, n)| {
            let a = smooth_matrix(m, k, 1);
            let b = smooth_matrix(k, n, 2);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));

            // Sanity: every path must agree bit-for-bit before any number
            // is reported.
            let want = qa.try_matmul(&qb).unwrap();
            let mut checks = vec![pa.matmul(&pb).unwrap()];
            for &t in &THREAD_SWEEP {
                checks.push(packed_matmul(&pa, &pb, ParallelPolicy::Threads(t)).unwrap());
            }
            checks.push(
                PackedBfp::quantize_pack_lhs(&q, &a)
                    .unwrap()
                    .matmul(&PackedBfp::quantize_pack_rhs(&q, &b).unwrap())
                    .unwrap(),
            );
            for got in checks {
                assert!(
                    got.data()
                        .iter()
                        .zip(want.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name}: fast path diverged from the reference kernel"
                );
            }

            GemmRow {
                name,
                m,
                k,
                n,
                naive: time(min_wall, || qa.try_matmul(&qb).unwrap()),
                packed: time(min_wall, || pa.matmul(&pb).unwrap()),
                parallel: time(min_wall, || {
                    packed_matmul(&pa, &pb, ParallelPolicy::Auto).unwrap()
                }),
                quantize_pack: time(min_wall, || {
                    (
                        PackedBfp::quantize_lhs(&q, &a).unwrap(),
                        PackedBfp::quantize_rhs(&q, &b).unwrap(),
                    )
                }),
                quantize_pack_fused: time(min_wall, || {
                    (
                        PackedBfp::quantize_pack_lhs(&q, &a).unwrap(),
                        PackedBfp::quantize_pack_rhs(&q, &b).unwrap(),
                    )
                }),
            }
        })
        .collect()
}

struct InferRow {
    images: usize,
    steady: PassTimes,
    /// GEMMs whose RHS was a resident weight pack / was packed per call.
    rhs_hits: u64,
    rhs_misses: u64,
}

impl InferRow {
    fn ips(&self) -> f64 {
        self.images as f64 / (self.steady.median_ms() / 1e3)
    }
}

fn bench_inference(images: usize, min_wall: Duration) -> InferRow {
    let cfg = bench_config();
    cfg.validate().unwrap();
    let model = DeitModel::new_random(cfg, 3);
    let imgs: Vec<Image> = (0..images)
        .map(|s| Image::synthetic(3, cfg.img, cfg.img, s as u64))
        .collect();

    let mut engine = MixedEngine::new();
    // One image packs the model's weights; then measure steady state —
    // that is what a serving deployment sees from the second image on.
    std::hint::black_box(model.predict(&mut engine, &imgs[0]));
    let steady = time_passes(min_wall, || {
        for img in &imgs {
            std::hint::black_box(model.predict(&mut engine, img));
        }
    });
    let stats = engine.plan_cache_stats();
    InferRow {
        images,
        steady,
        rhs_hits: stats.hits,
        rhs_misses: stats.misses,
    }
}

/// One timing as a JSON object: median and min–max over its passes.
fn times_json(t: &PassTimes) -> String {
    format!(
        "{{ \"median_ms\": {:.4}, \"min_ms\": {:.4}, \"max_ms\": {:.4}, \"passes\": {} }}",
        t.median_ms(),
        t.min_ms(),
        t.max_ms(),
        t.passes()
    )
}

fn to_json(rows: &[GemmRow], infer: &InferRow, threads: usize, quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"bench_gemm/v4\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"min_timed_s\": {:.1},", min_timed(quick).as_secs_f64());
    s.push_str("  \"gemm\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"m\": {}, \"k\": {}, \"n\": {},", r.m, r.k, r.n);
        for (key, t) in [
            ("naive", &r.naive),
            ("packed", &r.packed),
            ("parallel_auto", &r.parallel),
            ("quantize_pack", &r.quantize_pack),
            ("quantize_pack_fused", &r.quantize_pack_fused),
        ] {
            let _ = writeln!(s, "      \"{key}\": {},", times_json(t));
        }
        let _ = writeln!(s, "      \"speedup_vs_naive\": {:.2},", r.speedup());
        let _ = writeln!(s, "      \"packed_gflop_equiv_per_s\": {:.2}", r.packed_gops());
        let _ = write!(s, "    }}{}", if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"inference\": {\n");
    let _ = writeln!(s, "    \"images\": {},", infer.images);
    let _ = writeln!(s, "    \"steady\": {},", times_json(&infer.steady));
    let _ = writeln!(s, "    \"images_per_s\": {:.3},", infer.ips());
    let _ = writeln!(s, "    \"rhs_hits\": {},", infer.rhs_hits);
    let _ = writeln!(s, "    \"rhs_misses\": {}", infer.rhs_misses);
    s.push_str("  }\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_GEMM.json".to_string());

    let min_wall = min_timed(quick);
    let images = if quick { 3 } else { 8 };
    let threads = ParallelPolicy::Auto.threads();

    println!(
        "bfp8 GEMM execution paths (>= {:.1} s per row, median of passes; {} host threads)\n",
        min_wall.as_secs_f64(),
        threads
    );
    let rows = bench_gemms(min_wall);
    let mut t = Table::new(
        "GEMM kernel wall-clock, median ms (pre-quantized operands)",
        &[
            "shape",
            "naive",
            "packed",
            "parallel (auto)",
            "speedup",
            "GFLOP-eq/s",
        ],
    );
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            format!("{:.2}", r.naive.median_ms()),
            format!("{:.2}", r.packed.median_ms()),
            format!("{:.2}", r.parallel.median_ms()),
            format!("{:.1}x", r.speedup()),
            format!("{:.2}", r.packed_gops()),
        ]);
    }
    print!("{}", t.render());

    println!("\nmixed-precision inference, steady state...");
    let infer = bench_inference(images, min_wall);
    println!(
        "  {:.2} images/s   (RHS from a resident weight pack {}, packed per call {})",
        infer.ips(),
        infer.rhs_hits,
        infer.rhs_misses
    );

    let json = to_json(&rows, &infer, threads, quick);
    std::fs::write(&out_path, &json).expect("write BENCH_GEMM.json");
    println!("\nwrote {out_path}");

    let anchor = &rows[0];
    println!(
        "acceptance anchor {}: {:.1}x over the naive kernel",
        anchor.name,
        anchor.speedup()
    );
}
