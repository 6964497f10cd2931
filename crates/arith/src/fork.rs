//! How a host kernel call splits across threads, for every sharded kernel
//! (packed GEMM, activation quantize-pack, VPU kernels, the card's array
//! simulation). The caller decides *what* a shard is and keeps per-shard
//! state in its workers; this module decides *how many* shards a call is
//! worth ([`shards`]) and runs them ([`join`]) on one process-wide pool.
//! Shards touch disjoint data, so the split changes wall-clock only, never
//! a result bit.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

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

/// Run `f` once on every worker and return when all have finished. A
/// single worker runs inline, so a one-shard call never forks. A worker's
/// panic panics the caller once every worker has finished (the worker's
/// own message goes to the panic hook as usual).
///
/// Workers run on a process-wide pool of `host_threads() − 1` threads,
/// started by the first multi-worker join, and on the caller, which claims
/// workers like any pool thread. A join that finds the pool taken — by a
/// concurrent caller, or because it is nested inside a worker — runs its
/// workers inline, in order: it never spawns and never waits on the pool.
///
/// Cost: an empty two-worker join measures ≈ 0.7–0.9 µs median (p99
/// ≈ 1.4–1.7 µs, 2000 joins) on the 2-vCPU reference box
/// (Sapphire-Rapids-class Xeon) while the pool thread spins, ≈ 2–3 µs
/// once it has parked. A parked pool thread joins ≈ 14 µs (median) after
/// the fork, so a join with real work loses that much of its second core.
/// The per-shard minimums callers pass to [`shards`] are sized against it.
pub fn join<W: Send>(workers: &mut [W], f: impl Fn(&mut W) + Sync) {
    match workers {
        [] => return,
        [one] => return f(one),
        _ => {}
    }
    let n = workers.len();
    let shards = Shards {
        workers: workers.as_mut_ptr(),
        f: &f,
    };
    let job = Job {
        ctx: (&shards as *const Shards<'_, W, _>).cast(),
        run: shard_runner(&shards),
        n,
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    match Pool::enter() {
        Some(pool) => pool.run(&job),
        None => job.work(),
    }
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

/// How long an idle pool thread — or a caller waiting for the last pool
/// thread to let go of its job — spins before it parks on a condvar.
///
/// Derivation, on the 2-vCPU reference box: waking a parked thread
/// through a condvar takes ≈ 14 µs median, 25–40 µs p90 and 60–400 µs p99
/// from `notify` to the woken thread running (2000 wakes, 300 µs apart,
/// the waker busy), and every fork that finds its pool thread parked
/// loses that much of the second core. The gaps between consecutive joins
/// of a DeiT-Small forward on the pool (≈ 500 joins per image) measure
/// 7 µs median, 26 µs p90 and 123 µs p99, ≈ 8 ms of serial work per image
/// in all. A 100 µs bound, several p90 wakes, spans all but ≈ 1% of those
/// gaps, so about six joins per image pay a wake, and caps the spin's CPU
/// cost at the serial time between joins plus 100 µs after a forward's
/// last join.
const SPIN: Duration = Duration::from_micros(100);

/// Spin until `done` holds or [`SPIN`] runs out; whether it holds.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if done() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return done();
        }
    }
}

/// [`run_shard`] for `shards`' types, which `join`'s `impl Fn` leaves
/// unnamed.
fn shard_runner<W, F: Fn(&mut W)>(_: &Shards<'_, W, F>) -> unsafe fn(*const (), usize) {
    run_shard::<W, F>
}

/// A join's workers and closure, behind the type-erased [`Job::ctx`].
struct Shards<'a, W, F> {
    workers: *mut W,
    f: &'a F,
}

/// Run worker `i` of the [`Shards`] at `ctx`.
///
/// # Safety
/// `ctx` must point to a live `Shards<W, F>` whose `workers` holds more
/// than `i` elements, and no other call may run the same `i`.
unsafe fn run_shard<W, F: Fn(&mut W)>(ctx: *const (), i: usize) {
    // SAFETY: the caller's contract.
    unsafe {
        let shards = &*ctx.cast::<Shards<'_, W, F>>();
        (shards.f)(&mut *shards.workers.add(i));
    }
}

/// One join's shared state. It lives on the joining caller's stack, so
/// the pool hands it around as a raw [`JobPtr`] and the caller does not
/// return before every pool thread has let go of it ([`Pool::run`]).
struct Job {
    ctx: *const (),
    run: unsafe fn(*const (), usize),
    n: usize,
    /// The next unclaimed worker index; a claim is one `fetch_add`
    /// (`Relaxed`: it hands out indices and publishes no data — a worker's
    /// writes reach the caller through [`Pool::refs`] or the caller's own
    /// program order).
    next: AtomicUsize,
    /// The first panic a worker raised, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `ctx` points to a `Shards` over `W: Send` workers and an
// `F: Sync` closure (`join`'s bounds), and `Job::work` hands every worker
// index to exactly one thread, so sharing a `Job` shares `&F` and moves
// each `&mut W` to one thread.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run workers until none is left, catching each panic.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: `ctx` is a live `Shards` of `n` workers (the job is
            // retired before `join` returns) and the `fetch_add` claimed
            // `i` for this thread alone.
            let ran = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, i) }));
            if let Err(payload) = ran {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        }
    }
}

#[derive(Clone, Copy)]
struct JobPtr(*const Job);

// SAFETY: a `Job` is `Sync`, and [`Pool::run`] keeps it alive while any
// pool thread holds the pointer.
unsafe impl Send for JobPtr {}

/// The process-wide fork/join pool.
#[derive(Default)]
struct Pool {
    /// Held by the one join the pool is serving: taken with `Acquire`,
    /// released with `Release` once no pool thread can touch its job, so
    /// the next join starts after the last one is wholly done.
    busy: AtomicBool,
    /// Bumped (under `state`) each time a job is published; idle threads
    /// spin on it. `Relaxed` suffices: it publishes nothing itself — a
    /// thread that sees it move reads the job under `state`.
    epoch: AtomicU64,
    /// Pool threads holding a reference to the published job; raised
    /// under `state` while the job is published, lowered under `state`
    /// with `Release` once a thread's workers are done, which pairs with
    /// the draining caller's `Acquire` load: the caller sees every write
    /// those workers made.
    refs: AtomicUsize,
    state: Mutex<State>,
    /// Parked pool threads wait here for a new epoch.
    wake: Condvar,
    /// A draining caller waits here for `refs` to reach 0.
    drained: Condvar,
}

#[derive(Default)]
struct State {
    /// The job pool threads may join; `None` once retired.
    job: Option<JobPtr>,
    /// Pool threads parked on `wake`.
    parked: usize,
    /// A caller is parked on `drained`.
    draining: bool,
}

impl Pool {
    /// The pool, started on first use, if this host has a second thread
    /// and no other join holds it.
    fn enter() -> Option<&'static Pool> {
        static POOL: OnceLock<Pool> = OnceLock::new();
        if host_threads() < 2 {
            return None;
        }
        let mut fresh = false;
        let pool = POOL.get_or_init(|| {
            fresh = true;
            Pool::default()
        });
        if fresh {
            for _ in 1..host_threads() {
                // Detached on purpose: pool threads serve until the
                // process exits, and catch every shard's panic, so there
                // is nothing to join. A thread that cannot be spawned
                // leaves its share of every job to the caller and the
                // other threads.
                let _ = std::thread::Builder::new()
                    .name("bfp-fork".into())
                    .spawn(move || pool.serve());
            }
        }
        let free = pool
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
        free.is_ok().then_some(pool)
    }

    /// `state`, recovered if poisoned: nothing that can panic runs under
    /// it, and every update leaves it valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serve `job` with the pool and the caller, and return once no pool
    /// thread can touch it again.
    fn run(&self, job: &Job) {
        {
            let mut st = self.lock();
            st.job = Some(JobPtr(job));
            self.epoch.fetch_add(1, Ordering::Release);
            if st.parked > 0 {
                self.wake.notify_all();
            }
        }
        job.work();
        // Retire the job under the lock, so no pool thread can take a new
        // reference to it, then wait for those that hold one: the last
        // workers they claimed are still running on them.
        self.lock().job = None;
        if !spin_until(|| self.refs.load(Ordering::Acquire) == 0) {
            let mut st = self.lock();
            st.draining = true;
            while self.refs.load(Ordering::Acquire) != 0 {
                st = self
                    .drained
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.draining = false;
        }
        self.busy.store(false, Ordering::Release);
    }

    /// A pool thread's life: wait for a new job, help run it, repeat.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let st = if spin_until(|| self.epoch.load(Ordering::Relaxed) != seen) {
                self.lock()
            } else {
                let mut st = self.lock();
                st.parked += 1;
                while self.epoch.load(Ordering::Relaxed) == seen {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                st.parked -= 1;
                st
            };
            seen = self.epoch.load(Ordering::Relaxed);
            let Some(JobPtr(job)) = st.job else { continue };
            self.refs.fetch_add(1, Ordering::Relaxed);
            drop(st);
            // SAFETY: the job was published under the lock and not yet
            // retired when this thread took its reference, and `run` does
            // not return while `refs` counts it.
            unsafe { &*job }.work();
            let st = self.lock();
            if self.refs.fetch_sub(1, Ordering::Release) == 1 && st.draining {
                self.drained.notify_one();
            }
        }
    }
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

    /// `steps` steps of work the optimiser cannot fold away.
    fn spin(steps: usize) {
        for k in 0..steps {
            std::hint::black_box(k);
        }
    }

    /// `n` workers, each counting its runs; every count must end at 1.
    fn join_counted(n: usize, work: impl Fn(usize) + Sync) {
        let mut runs = vec![(0usize, 0u32); n];
        for (i, w) in runs.iter_mut().enumerate() {
            w.0 = i;
        }
        join(&mut runs, |(i, hits)| {
            work(*i);
            *hits += 1;
        });
        assert!(runs.iter().all(|&(_, hits)| hits == 1), "{runs:?}");
    }

    #[test]
    fn concurrent_joins_all_complete_and_run_every_worker_once() {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for round in 0..2000 {
                        join_counted(2 + round % 4, |i| spin(i * 50));
                    }
                });
            }
        });
    }

    #[test]
    fn a_join_nested_in_a_shard_runs_inline_and_returns() {
        // Another test may hold the pool, and then the outer join runs
        // inline too; retry until its two workers ran side by side, each
        // waiting (boundedly) for the other to start.
        for _ in 0..100 {
            let started = AtomicUsize::new(0);
            let mut outer = [(None, false, 0); 2];
            join(&mut outer, |(thread, inline, hits)| {
                let me = std::thread::current().id();
                *thread = Some(me);
                started.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                while started.load(Ordering::Relaxed) < 2
                    && t0.elapsed() < Duration::from_millis(50)
                {
                    std::hint::spin_loop();
                }
                let mut inner = [None; 4];
                join(&mut inner, |t| *t = Some(std::thread::current().id()));
                *inline = inner.iter().all(|&t| t == Some(me));
                *hits += 1;
            });
            assert!(outer.iter().all(|&(_, _, hits)| hits == 1));
            if outer[0].0 != outer[1].0 {
                // The outer join held the pool: every inner one ran inline.
                assert!(outer.iter().all(|&(_, inline, _)| inline));
                return;
            }
        }
        assert_eq!(host_threads(), 1, "the outer join never reached the pool");
    }

    #[test]
    fn the_pool_keeps_working_after_a_re_raised_panic() {
        for _ in 0..3 {
            let raised = panic::catch_unwind(|| {
                let mut workers = [0usize, 1, 2, 3];
                join(&mut workers, |i| assert_ne!(*i, 2, "shard {i}"));
            });
            assert!(raised.is_err());
            join_counted(4, |_| {});
        }
    }

    /// 10⁵ joins of 0–5 workers with random per-worker work, from two
    /// threads at once, some nested: every worker runs exactly once. Now
    /// and then a pause outlasts [`SPIN`], so pool threads park and wake,
    /// and a worker outlasts it, so a caller parks waiting for it.
    /// `cargo test --release -p bfp-arith --lib fork:: -- --ignored`
    #[test]
    #[ignore = "release stress test"]
    fn stress_joins_run_every_worker_exactly_once() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        std::thread::scope(|s| {
            for seed in 0..2u64 {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..50_000 {
                        if rng.gen_range(0..500) == 0 {
                            std::thread::sleep(2 * SPIN);
                        }
                        let n = rng.gen_range(0..6usize);
                        let spins: Vec<usize> = (0..n)
                            .map(|_| match rng.gen_range(0..500) {
                                0 => 500_000,
                                _ => rng.gen_range(0..5_000),
                            })
                            .collect();
                        let nest = rng.gen_range(0..8) == 0;
                        join_counted(n, |i| {
                            spin(spins[i]);
                            if nest {
                                join_counted(2, |_| {});
                            }
                        });
                    }
                });
            }
        });
    }
}
