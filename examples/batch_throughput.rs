//! Batched inference: latency vs throughput across mapping strategies.
//!
//! ```sh
//! cargo run --release --example batch_throughput
//! ```

use bfp_core::Accelerator;
use bfp_transformer::{DeitConfig, DeitModel, Image, MixedEngine, VitConfig};

fn main() {
    // A small DeiT so the bit-exact simulation of a 32-image batch is quick.
    let cfg = DeitConfig {
        vit: VitConfig {
            dim: 64,
            depth: 3,
            heads: 2,
            mlp_ratio: 4,
            seq: 17,
        },
        patch: 16,
        channels: 3,
        img: 64,
        classes: 10,
    };
    cfg.validate().unwrap();
    let model = DeitModel::new_random(cfg, 7);
    let acc = Accelerator::u280();

    let images: Vec<Image> = (0..32)
        .map(|s| Image::synthetic(3, cfg.img, cfg.img, s))
        .collect();

    println!("classifying a 32-image batch (bit-exact, sharded across threads)...");
    let start = std::time::Instant::now();
    let res = acc.infer_batch(&model, &images);
    println!(
        "simulation wall time: {:.2} s",
        start.elapsed().as_secs_f64()
    );

    let hist = res.predictions.iter().fold([0usize; 10], |mut h, &p| {
        h[p] += 1;
        h
    });
    println!("prediction histogram: {hist:?}");
    println!(
        "batch census: {:.2} G bfp8 ops, {:.1} M fp32 flops\n",
        res.census.bfp_ops() as f64 / 1e9,
        res.census.fp32_flops() as f64 / 1e6
    );

    let l = &res.latency;
    println!("modelled deployment latency ({} arrays):", l.arrays);
    println!(
        "  tile-parallel : {:.3} ms/image, batch {:.3} ms  (lowest latency)",
        l.tile_parallel_image_s * 1e3,
        l.tile_parallel_batch_s * 1e3
    );
    println!(
        "  image-parallel: {:.3} ms/image, batch {:.3} ms  (highest throughput)",
        l.image_parallel_image_s * 1e3,
        l.image_parallel_batch_s * 1e3
    );
    println!(
        "  best for this batch: {} at {:.0} images/s",
        l.best_strategy(),
        l.best_throughput()
    );

    // Host-side execution: the same batch through one functional engine.
    // Each weight is packed once, in the `Linear` that owns it, by
    // whichever engine meets it first — here the batch run above — and
    // every later GEMM against it, from any engine, borrows the pack.
    println!("\nhost execution:");
    let mut engine = MixedEngine::new();
    let start = std::time::Instant::now();
    let classes: Vec<usize> = images.iter().map(|im| model.predict(&mut engine, im)).collect();
    let host_s = start.elapsed().as_secs_f64();
    let stats = engine.plan_cache_stats();
    assert_eq!(classes, res.predictions, "one engine, same predictions as the batch");
    println!(
        "  {} images in {:.2} s ({:.1} images/s)",
        images.len(),
        host_s,
        images.len() as f64 / host_s
    );
    println!(
        "  GEMMs: {} borrowed a weight pack ({:.1} KiB of packs filled by this engine), {} packed an activation RHS",
        stats.hits,
        stats.bytes as f64 / 1024.0,
        stats.misses
    );
}
