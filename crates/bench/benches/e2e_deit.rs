//! End-to-end Transformer inference benches (Table IV's workload): forward
//! passes through encoder blocks on the mixed-precision engine versus the
//! f32 reference. DeiT-Tiny keeps wall time sane; the table4 binary covers
//! DeiT-Small analytically.

use bfp_core::{Accelerator, LatencyModel};
use bfp_transformer::{analytical_census, MixedEngine, RefEngine, VitConfig, VitModel};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn single_block(c: &mut Criterion) {
    let cfg = VitConfig {
        depth: 1,
        ..VitConfig::deit_tiny()
    };
    let model = VitModel::new_random(cfg, 42);
    let x = model.synthetic_input(1);

    let mut g = c.benchmark_group("deit_tiny_one_block");
    g.sample_size(10);
    g.bench_function("f32_reference", |b| {
        b.iter(|| model.forward(&mut RefEngine, black_box(&x)))
    });
    g.bench_function("mixed_precision", |b| {
        // The first forward packs the model's weights where they live;
        // the timed ones borrow the packs — the serving steady state.
        let mut e = MixedEngine::new();
        model.forward(&mut e, &x);
        b.iter(|| model.forward(&mut e, black_box(&x)))
    });
    g.finish();
}

fn latency_estimation(c: &mut Criterion) {
    // The analytical path (census + latency model) is what regenerates
    // Table IV; keep it instantaneous.
    let acc = Accelerator::u280();
    c.bench_function("table4_estimate_deit_small", |b| {
        b.iter(|| {
            let census = analytical_census(black_box(&VitConfig::deit_small()));
            let breakdown = acc.estimate(&census);
            black_box(breakdown.total_latency_s())
        })
    });

    // Print the modelled end-to-end latency for the record.
    let census = analytical_census(&VitConfig::deit_small());
    let b = LatencyModel::paper().breakdown(&census);
    println!(
        "deit-small modelled: total {:.3} ms, fp32 share {:.1}% of latency",
        b.total_latency_s() * 1e3,
        b.fp32_latency_percent()
    );
}

criterion_group!(benches, single_block, latency_estimation);
criterion_main!(benches);
