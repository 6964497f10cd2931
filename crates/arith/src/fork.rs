//! How a host kernel call splits across threads, for every sharded kernel
//! (packed GEMM, VPU kernels, the card's array simulation). The caller
//! decides *what* a shard is and keeps per-shard state in its workers;
//! this module decides *how many* shards a call is worth ([`shards`]) and
//! runs them ([`join`]). Shards touch disjoint data, so the split changes
//! wall-clock only, never a result bit.

use std::sync::OnceLock;

/// Hardware threads this host offers, read once per process (one read of
/// `available_parallelism` costs ≈ 20 µs). 1 where the host cannot say.
pub fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The one shard rule: how many shards a kernel call carrying `work` units
/// (MACs, elements) forks into under a thread `budget`. At least 1, never
/// more than the budget or the host's threads (more buys only fork/join
/// overhead), and every shard carries at least `min_per_shard` units.
///
/// # Panics
/// Panics if `min_per_shard` is 0.
pub fn shards(budget: usize, work: u64, min_per_shard: u64) -> usize {
    let whole = usize::try_from(work / min_per_shard).unwrap_or(usize::MAX);
    budget.min(host_threads()).min(whole).max(1)
}

/// Run `f` once on every worker, each on its own scoped thread, and return
/// when all have finished. A single worker runs inline, so a one-shard call
/// never forks. A worker's panic panics the caller once every worker has
/// finished (the worker's own message goes to the panic hook as usual).
///
/// Cost: an empty fork/join of two scoped threads measures ≈ 0.035–0.054 ms
/// (median of 2000, p90 ≤ 0.073 ms) on the 2-vCPU reference box
/// (Sapphire-Rapids-class Xeon, measured beside the ymm AVX-VNNI chain and
/// again beside the zmm AVX-512 VNNI chain); earlier phases of the same box
/// read ≈ 0.09 ms (p90 ≈ 0.16 ms). The per-shard minimums callers pass to
/// [`shards`] are sized against it.
pub fn join<W: Send>(workers: &mut [W], f: impl Fn(&mut W) + Sync) {
    if let [one] = workers {
        return f(one);
    }
    let f = &f;
    crossbeam::thread::scope(|scope| {
        for w in workers {
            scope.spawn(move |_| f(w));
        }
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shards_respect_budget_host_and_work() {
        let host = host_threads();
        assert!(host >= 1);
        // A zero budget still runs the call, on one shard.
        assert_eq!(shards(0, 1 << 40, 1), 1);
        // Never more shards than the host has threads.
        assert_eq!(shards(usize::MAX, u64::MAX, 1), host);
        // Less than one shard of work stays serial, whatever the budget.
        assert_eq!(shards(64, 0, 100), 1);
        assert_eq!(shards(64, 99, 100), 1);
        // Whole shards only: 2.99 shards of work is two.
        assert_eq!(shards(64, 299, 100), 2.min(host));
        assert_eq!(shards(64, 300, 100), 3.min(host));
        // The budget caps the rest.
        assert_eq!(shards(2, 1000, 100), 2.min(host));
    }

    #[test]
    fn join_runs_every_worker_once() {
        for n in [0usize, 1, 2, 5] {
            let calls = AtomicUsize::new(0);
            let mut workers: Vec<(usize, usize)> = (0..n).map(|i| (i, 0)).collect();
            join(&mut workers, |(i, hits)| {
                *hits += 1 + *i;
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), n);
            for (i, hits) in workers {
                assert_eq!(hits, 1 + i, "worker {i} of {n}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn join_re_raises_a_worker_panic() {
        let mut workers = [0usize, 1, 2];
        join(&mut workers, |i| assert_ne!(*i, 1, "shard {i}"));
    }
}
