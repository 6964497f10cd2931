//! Shared workload generators for the reproduction binaries and benches:
//! deterministic (seedable, dependency-free) matrix and stream generators
//! so every table regenerates identically across runs and machines — and
//! the one duration-based timing loop `bench` and `e2e` share.

use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_transformer::{DeitConfig, VitConfig};

/// The bench model of `bench` and `e2e`: a scaled-down DeiT (same shape
/// family as the paper's DeiT-Small target, sized so a full run finishes
/// in seconds).
pub fn bench_config() -> DeitConfig {
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

/// Shortest wall time a bench configuration is timed for: long enough that
/// a scheduler stall of a few milliseconds cannot decide the median.
pub fn min_timed(quick: bool) -> Duration {
    Duration::from_millis(if quick { 300 } else { 1000 })
}

/// Wall times of the passes of one timed configuration, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTimes {
    ms: Vec<f64>,
}

impl PassTimes {
    /// How many passes ran.
    pub fn passes(&self) -> usize {
        self.ms.len()
    }

    /// Which pass took the median time (the lower middle of an even
    /// count, so the median is always a pass that ran).
    pub fn median_pass(&self) -> usize {
        let mut order: Vec<usize> = (0..self.ms.len()).collect();
        order.sort_by(|&a, &b| self.ms[a].total_cmp(&self.ms[b]));
        order[(order.len() - 1) / 2]
    }

    /// Median pass time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.ms[self.median_pass()]
    }

    /// Fastest pass in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest pass in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.ms.iter().copied().fold(0.0, f64::max)
    }
}

/// Time `pass` by duration, not by count: repeat it until `min_wall` has
/// elapsed in total and at least two passes have run, so a fast
/// configuration gets many samples and a slow one still gets a spread.
pub fn time_passes(min_wall: Duration, mut pass: impl FnMut()) -> PassTimes {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < 2 || start.elapsed() < min_wall {
        let t0 = Instant::now();
        pass();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    PassTimes { ms }
}

/// A tiny deterministic LCG (numerical-recipes constants), good enough for
/// workload shaping and fully reproducible.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u32,
}

impl Lcg {
    /// Seeded generator.
    pub fn new(seed: u32) -> Self {
        Lcg { state: seed.max(1) }
    }

    /// Next raw 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(1664525).wrapping_add(1013904223);
        self.state
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0
    }

    /// A normal-range f32 with the given binade spread (for datapath
    /// fidelity sweeps).
    pub fn next_normal_range(&mut self, binades: u32) -> f32 {
        let u = self.next_u32();
        let e = 0x3f00_0000u32.wrapping_add((u % binades.max(1)) << 23);
        let v = f32::from_bits(e | ((u >> 9) & 0x7f_ffff));
        if u & 1 == 0 {
            v
        } else {
            -v
        }
    }
}

/// A smooth activation-like matrix (bounded, no outliers).
pub fn smooth_matrix(rows: usize, cols: usize, seed: u32) -> MatF32 {
    let s = seed as f32;
    MatF32::from_fn(rows, cols, |i, j| {
        ((i as f32 * 0.31 + j as f32 * 0.17 + s * 0.01).sin()) * 1.5
    })
}

/// A Transformer-activation-like matrix: smooth base with hot outlier
/// channels every `hot_every` columns, `hot_scale`× larger.
pub fn outlier_matrix(rows: usize, cols: usize, hot_every: usize, hot_scale: f32) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        let base = ((i as f32 * 0.29 + j as f32 * 0.13).sin()) * 0.5;
        if hot_every > 0 && j % hot_every == hot_every / 2 {
            base * hot_scale
        } else {
            base
        }
    })
}

/// Pairs of operands covering `binades` binades for fp32 datapath sweeps.
pub fn operand_pairs(n: usize, binades: u32, seed: u32) -> Vec<(f32, f32)> {
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|_| {
            (
                rng.next_normal_range(binades),
                rng.next_normal_range(binades),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_passes_runs_twice_at_least_and_until_the_minimum_wall() {
        let mut calls = 0;
        let t = time_passes(Duration::ZERO, || calls += 1);
        assert_eq!((calls, t.passes()), (2, 2));
        let t = time_passes(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(3))
        });
        // The loop ends on the clock, not on a count.
        assert!(t.ms.iter().sum::<f64>() >= 19.0, "{t:?}");
        assert!(t.min_ms() >= 3.0 && t.min_ms() <= t.median_ms() && t.median_ms() <= t.max_ms());
    }

    #[test]
    fn median_is_a_pass_that_ran() {
        let t = PassTimes { ms: vec![5.0, 1.0, 9.0, 3.0] };
        assert_eq!((t.median_pass(), t.median_ms()), (3, 3.0));
        assert_eq!((t.min_ms(), t.max_ms()), (1.0, 9.0));
        let t = PassTimes { ms: vec![2.0, 7.0, 4.0] };
        assert_eq!((t.median_pass(), t.median_ms()), (2, 4.0));
    }

    #[test]
    fn lcg_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = Lcg::new(42);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = Lcg::new(42);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u32> = {
            let mut r = Lcg::new(43);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn unit_values_are_in_range() {
        let mut r = Lcg::new(7);
        for _ in 0..1000 {
            let v = r.next_unit();
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_range_values_are_finite_nonzero() {
        let mut r = Lcg::new(9);
        for _ in 0..1000 {
            let v = r.next_normal_range(8);
            assert!(v.is_finite() && v != 0.0);
        }
    }

    #[test]
    fn outlier_matrix_has_hot_channels() {
        let m = outlier_matrix(16, 96, 32, 50.0);
        // Column 16 is hot, column 0 is not.
        let hot: f32 = (0..16).map(|i| m.get(i, 16).abs()).fold(0.0, f32::max);
        let cold: f32 = (0..16).map(|i| m.get(i, 0).abs()).fold(0.0, f32::max);
        assert!(hot > 10.0 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn operand_pairs_deterministic_and_sized() {
        let a = operand_pairs(64, 6, 1);
        let b = operand_pairs(64, 6, 1);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
    }
}
