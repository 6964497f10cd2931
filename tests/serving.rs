//! Serving-runtime properties: admission accounting (fleet-wide, per
//! tenant, and per priority class), tenant quotas, priority-aware
//! shedding, drain semantics, deadline enforcement, and the
//! quarantine → probe → re-admit cycle.
//!
//! These tests drive `bfp-serve`'s scripted per-array fault injection,
//! so they need no cargo feature (the hook-based injector in
//! `bfp-faults` is process-global and unrelated).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_serve::{
    ArrayFaultPlan, ArrayHealth, Backpressure, BrownoutPolicy, HealthPolicy, Priority,
    ServeConfig, ServeError, ServeRequest, ServeResponse, ServeStats, Server, TenantId,
    TenantQuota,
};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix from a seed (SplitMix64 mix).
fn seeded(rows: usize, cols: usize, seed: u64) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        let mut z = seed
            .wrapping_add((i * cols + j + 1) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        (z % 8192) as f32 / 1024.0 - 4.0
    })
}

fn request(seed: u64) -> ServeRequest {
    ServeRequest::new(seeded(16, 16, seed), seeded(16, 16, seed ^ 0xABCD_EF01))
}

/// The fault-free bfp8 reference bits for a request's GEMM.
fn reference(seed: u64) -> MatF32 {
    let q = Quantizer::paper();
    let a = q.quantize(&seeded(16, 16, seed)).unwrap();
    let b = q.quantize(&seeded(16, 16, seed ^ 0xABCD_EF01)).unwrap();
    a.try_matmul(&b).unwrap()
}

fn bits_eq(x: &MatF32, y: &MatF32) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Admission accounting is exact under random storms and policies:
    /// no request is both rejected and completed, every admitted ticket
    /// resolves exactly once, and the counter identities hold.
    #[test]
    fn no_request_is_both_rejected_and_completed(
        seed in any::<u64>(),
        capacity in 1usize..8,
        arrays in 1usize..4,
        storm in 8usize..40,
        policy in 0u8..2,
    ) {
        let backpressure = if policy == 0 {
            Backpressure::Reject
        } else {
            Backpressure::ShedOldest
        };
        let cfg = ServeConfig {
            queue_capacity: capacity,
            backpressure,
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None; arrays]);
        let mut tickets = Vec::new();
        let mut refused = 0u64;
        for s in 0..storm as u64 {
            match server.submit(request(seed ^ s)) {
                Ok(t) => tickets.push((seed ^ s, t)),
                Err(ServeError::QueueFull) => refused += 1,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        server.drain();
        let st = server.stats();
        // A rejected submission never got a ticket, so it cannot also
        // complete; the ledger identities pin this down fleet-wide.
        prop_assert_eq!(st.submitted, storm as u64);
        prop_assert_eq!(st.rejected, refused);
        prop_assert_eq!(st.admitted + st.rejected, st.submitted);
        prop_assert_eq!(st.completed + st.failed, st.admitted);
        prop_assert_eq!(st.admitted, tickets.len() as u64);
        let mut completed = 0u64;
        for (s, t) in &tickets {
            let first = t.wait();
            // Resolution is stable: waiting again returns the same answer.
            prop_assert_eq!(&t.wait(), &first);
            match first {
                Ok(resp) => {
                    completed += 1;
                    prop_assert!(bits_eq(&resp.out, &reference(*s)));
                }
                Err(ServeError::Shed) => {}
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        prop_assert_eq!(completed, st.completed);
    }
}

/// Brownout thresholds no storm can reach, so a test exercises only the
/// mechanism it targets.
fn no_brownout() -> BrownoutPolicy {
    BrownoutPolicy {
        tier1_pressure: 1e9,
        tier2_pressure: 2e9,
        ..Default::default()
    }
}

/// The accounting identity, at every level the snapshot reports.
fn assert_identities(s: &ServeStats) {
    assert_eq!(
        s.admitted,
        s.completed + s.failed + s.queued as u64 + s.in_flight as u64,
        "fleet identity broken"
    );
    assert_eq!(s.submitted, s.admitted + s.rejected, "fleet admission split");
    for ts in &s.per_tenant {
        assert_eq!(
            ts.admitted,
            ts.completed + ts.failed + ts.queued as u64 + ts.in_flight as u64,
            "tenant {} identity broken",
            ts.tenant
        );
        assert_eq!(ts.submitted, ts.admitted + ts.rejected);
    }
    for (i, ps) in s.per_priority.iter().enumerate() {
        assert_eq!(
            ps.admitted,
            ps.completed + ps.failed + ps.queued as u64 + ps.in_flight as u64,
            "priority class {i} identity broken"
        );
    }
}

#[test]
fn tenant_and_priority_identities_hold_under_concurrent_snapshots() {
    // Two tenants, all three priorities, a faulty array keeping the
    // retry path hot, and a snapshot thread hammering stats() the whole
    // time: the identity must hold in EVERY observation, not just at
    // quiescence — per tenant and per class as well as fleet-wide.
    let cfg = ServeConfig {
        queue_capacity: 256,
        max_attempts: 6,
        quotas: vec![
            (TenantId(1), TenantQuota { weight: 3, ..Default::default() }),
            (TenantId(2), TenantQuota { weight: 1, ..Default::default() }),
        ],
        brownout: no_brownout(),
        ..Default::default()
    };
    let server = Server::simulated(
        cfg,
        vec![ArrayFaultPlan::transient(12), ArrayFaultPlan::None],
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let snapshots = scope.spawn({
            let server = &server;
            let done = &done;
            move || {
                let mut seen = 0u64;
                while !done.load(Ordering::Relaxed) {
                    assert_identities(&server.stats());
                    seen += 1;
                    std::thread::yield_now();
                }
                seen
            }
        });
        let mut tickets = Vec::new();
        for s in 0..60u64 {
            let r = request(s)
                .for_tenant(TenantId(1 + s % 2))
                .with_priority(Priority::ALL[(s % 3) as usize]);
            tickets.push(server.submit(r).unwrap());
            assert_identities(&server.stats());
        }
        for t in tickets {
            t.wait().unwrap();
        }
        server.drain();
        done.store(true, Ordering::Relaxed);
        assert!(snapshots.join().unwrap() > 0, "snapshot thread observed nothing");
    });
    let s = server.stats();
    assert_identities(&s);
    assert_eq!(s.completed, 60);
    // The rollups partition the fleet totals exactly.
    let tenant_admitted: u64 = s.per_tenant.iter().map(|t| t.admitted).sum();
    let prio_admitted: u64 = s.per_priority.iter().map(|p| p.admitted).sum();
    assert_eq!(tenant_admitted, s.admitted);
    assert_eq!(prio_admitted, s.admitted);
    let tenant_completed: u64 = s.per_tenant.iter().map(|t| t.completed).sum();
    assert_eq!(tenant_completed, s.completed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Token-bucket quotas are never exceeded: however fast a tenant
    /// submits, its admissions stay within burst + rate × elapsed.
    #[test]
    fn quotas_are_never_exceeded(
        seed in any::<u64>(),
        rate in 20.0f64..400.0,
        burst in 1.0f64..6.0,
        storm in 30usize..90,
    ) {
        let burst = burst.floor();
        let cfg = ServeConfig {
            queue_capacity: 512,
            quotas: vec![(TenantId(9), TenantQuota { weight: 1, rate_rps: rate, burst })],
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None; 2]);
        let t0 = Instant::now();
        let mut admitted = 0u64;
        let mut quota_rejected = 0u64;
        for s in 0..storm as u64 {
            match server.submit(request(seed ^ s).for_tenant(TenantId(9))) {
                Ok(_) => admitted += 1,
                Err(ServeError::QuotaExceeded) => quota_rejected += 1,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        server.drain();
        // The bucket held `burst` tokens at first submit and refilled at
        // `rate` thereafter; +1.0 absorbs a refill racing the last take.
        let ceiling = burst + rate * elapsed + 1.0;
        prop_assert!(
            (admitted as f64) <= ceiling,
            "{admitted} admissions exceed the quota ceiling {ceiling:.1}"
        );
        let st = server.stats();
        prop_assert_eq!(st.quota_rejected, quota_rejected);
        let ts = st.tenant(TenantId(9)).unwrap();
        prop_assert_eq!(ts.quota_rejected, quota_rejected);
        prop_assert_eq!(ts.admitted, admitted);
        assert_identities(&st);
    }
}

#[test]
fn critical_work_survives_storms_that_shed_bulk() {
    // A shed-oldest storm of mixed priorities over a tiny queue: Bulk
    // and Standard get evicted under pressure, Critical never does —
    // every admitted Critical request completes.
    let cfg = ServeConfig {
        queue_capacity: 2,
        backpressure: Backpressure::ShedOldest,
        brownout: no_brownout(),
        ..Default::default()
    };
    let server = Server::simulated(cfg, vec![ArrayFaultPlan::None]);
    let mut critical = Vec::new();
    let mut other = Vec::new();
    for s in 0..120u64 {
        let prio = Priority::ALL[(s % 3) as usize];
        match server.submit(request(s).with_priority(prio)) {
            Ok(t) if prio == Priority::Critical => critical.push(t),
            Ok(t) => other.push(t),
            Err(ServeError::QueueFull) => {}
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    server.drain();
    for t in &critical {
        assert!(
            t.wait().is_ok(),
            "an admitted Critical request must complete, never shed"
        );
    }
    let shed_seen = other
        .iter()
        .filter(|t| t.wait() == Err(ServeError::Shed))
        .count() as u64;
    let s = server.stats();
    assert_identities(&s);
    assert_eq!(s.per_priority[Priority::Critical.index()].shed, 0);
    assert_eq!(s.shed, shed_seen);
    assert!(
        s.shed > 0,
        "the storm must actually shed lower-priority work"
    );
    assert_eq!(
        s.per_priority[Priority::Bulk.index()].shed
            + s.per_priority[Priority::Standard.index()].shed,
        s.shed
    );
}

#[test]
fn drain_returns_only_after_all_admitted_requests_resolve() {
    let server = Server::simulated(
        ServeConfig {
            queue_capacity: 256,
            ..Default::default()
        },
        vec![ArrayFaultPlan::None; 3],
    );
    let tickets: Vec<_> = (0..48)
        .map(|s| server.submit(request(s)).unwrap())
        .collect();
    server.drain();
    // Every admitted request must already be resolved — no blocking wait.
    for t in &tickets {
        assert!(
            t.try_get().is_some(),
            "drain returned with request {} still unresolved",
            t.id()
        );
    }
    let st = server.stats();
    assert_eq!(st.completed, 48);
    assert_eq!(st.failed, 0);
}

#[test]
fn deadline_missed_requests_never_occupy_an_array() {
    // Zero-budget requests expire while queued; the dispatcher must
    // resolve them without ever running the GEMM, so no array sees any
    // user work (zero completions, zero modelled busy time).
    let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None; 2]);
    let tickets: Vec<_> = (0..16)
        .map(|s| {
            server
                .submit(ServeRequest::with_budget(
                    seeded(16, 16, s),
                    seeded(16, 16, s ^ 99),
                    Duration::ZERO,
                ))
                .unwrap()
        })
        .collect();
    server.drain();
    for t in &tickets {
        assert_eq!(t.wait(), Err(ServeError::DeadlineExceeded));
    }
    let st = server.stats();
    assert_eq!(st.deadline_missed, 16);
    assert_eq!(st.completed, 0);
    for (i, a) in st.per_array.iter().enumerate() {
        assert_eq!(a.completed, 0, "array {i} completed an expired request");
        assert_eq!(
            a.modelled_busy_s, 0.0,
            "array {i} burned time on expired requests"
        );
    }
}

#[test]
fn generous_deadlines_complete_and_count_nothing_missed() {
    let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None; 2]);
    let tickets: Vec<_> = (0..8)
        .map(|s| {
            server
                .submit(ServeRequest::with_budget(
                    seeded(16, 16, s),
                    seeded(16, 16, s ^ 7),
                    Duration::from_secs(30),
                ))
                .unwrap()
        })
        .collect();
    for t in &tickets {
        assert!(t.wait().is_ok());
    }
    assert_eq!(server.stats().deadline_missed, 0);
}

/// Aggressive health policy so the quarantine cycle runs in test time.
fn fast_health() -> HealthPolicy {
    HealthPolicy {
        degrade_strikes: 1,
        quarantine_strikes: 2,
        clean_streak: 4,
        probe_interval: Duration::from_millis(5),
        probe_interval_cap: Duration::from_millis(40),
        probes_to_readmit: 2,
    }
}

fn wait_for_health(server: &Server, array: usize, want: ArrayHealth, timeout: Duration) -> bool {
    let gate = Instant::now() + timeout;
    while Instant::now() < gate {
        if server.stats().per_array[array].health == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Submit one request per seed, drain, and return the responses — each
/// already checked against the fault-free reference bits.
fn offer_burst(server: &Server, seeds: std::ops::Range<u64>, expect: &str) -> Vec<ServeResponse> {
    let tickets: Vec<_> = seeds
        .map(|s| (s, server.submit(request(s)).unwrap()))
        .collect();
    server.drain();
    tickets
        .iter()
        .map(|(s, t)| {
            let resp = t.wait().expect(expect);
            assert!(
                bits_eq(&resp.out, &reference(*s)),
                "wrong bits in a completed response"
            );
            resp
        })
        .collect()
}

#[test]
fn quarantine_probe_readmit_restores_full_throughput() {
    let (plan, heal) = ArrayFaultPlan::latched();
    let cfg = ServeConfig {
        queue_capacity: 256,
        health: fast_health(),
        ..Default::default()
    };
    let server = Server::simulated(cfg, vec![ArrayFaultPlan::None, plan]);

    // Phase 1: a storm under the fault. Every response must still carry
    // the fault-free reference bits (suspect executions are discarded,
    // retried on the clean array). One worker can drain a fixed burst of
    // these tiny requests before the other has even woken — here, before
    // the latched array has been dispatched the two requests whose
    // strikes quarantine it — so keep offering bursts, bounded in count
    // and time, until the latched array stops serving.
    let gate = Instant::now() + Duration::from_secs(5);
    for burst in 0..64 {
        for resp in offer_burst(&server, burst * 32..(burst + 1) * 32, "request survives a faulty array") {
            assert_eq!(resp.array, 0, "only the clean array may answer");
        }
        if !server.stats().per_array[1].health.serves() || Instant::now() >= gate {
            break;
        }
    }
    assert!(
        wait_for_health(&server, 1, ArrayHealth::Quarantined, Duration::from_secs(5))
            || server.stats().per_array[1].health == ArrayHealth::Probing,
        "latched faults must drive the array into quarantine"
    );
    let st = server.stats();
    assert!(st.retries > 0, "faulted executions must be retried");
    assert!(st.per_array[1].faulted_executions >= 2);
    assert_eq!(
        st.per_array[1].completed, 0,
        "a latched-faulty array must never complete a request"
    );

    // While latched, probes keep failing: the array stays out.
    std::thread::sleep(Duration::from_millis(60));
    let st = server.stats();
    assert!(st.per_array[1].probes_run > 0, "quarantine must probe");
    assert_eq!(st.per_array[1].probes_passed, 0);
    assert!(!st.per_array[1].health.serves());

    // Phase 2: repair the defect; consecutive probe passes re-admit.
    heal.store(false, Ordering::Relaxed);
    assert!(
        wait_for_health(&server, 1, ArrayHealth::Healthy, Duration::from_secs(5)),
        "healed array must be re-admitted by passing probes"
    );
    let readmitted = server.stats();
    assert!(readmitted.per_array[1].probes_passed >= 2);

    // Full throughput restored: both arrays complete fresh work (offered
    // under the same bounded-burst rule as phase 1).
    let before: Vec<u64> = readmitted.per_array.iter().map(|a| a.completed).collect();
    let gate = Instant::now() + Duration::from_secs(5);
    for burst in 0..64 {
        let first = 10_000 + burst * 64;
        offer_burst(&server, first..first + 64, "healthy fleet completes everything");
        let now = server.stats();
        let shared = before.iter().zip(&now.per_array).all(|(b, a)| a.completed > *b);
        if shared || Instant::now() >= gate {
            break;
        }
    }
    let after = server.stats();
    for (i, b) in before.iter().enumerate() {
        assert!(
            after.per_array[i].completed > *b,
            "array {i} must share the load after re-admission"
        );
    }
    // The health history tells the whole round trip.
    let hist = &after.per_array[1].history;
    assert!(hist
        .iter()
        .any(|e| e.to == ArrayHealth::Quarantined));
    assert!(hist
        .iter()
        .any(|e| e.from == ArrayHealth::Probing && e.to == ArrayHealth::Healthy));
}

#[test]
fn transient_burst_degrades_without_quarantine_loss() {
    // A short burst strikes the array but clean executions forgive it:
    // the request stream never sees an error.
    let cfg = ServeConfig {
        queue_capacity: 256,
        health: fast_health(),
        ..Default::default()
    };
    let server = Server::simulated(
        cfg,
        vec![ArrayFaultPlan::None, ArrayFaultPlan::transient(1)],
    );
    let tickets: Vec<_> = (0..32)
        .map(|s| (s, server.submit(request(s)).unwrap()))
        .collect();
    server.drain();
    for (s, t) in &tickets {
        let resp = t.wait().expect("transient faults are absorbed");
        assert!(bits_eq(&resp.out, &reference(*s)));
    }
    let st = server.stats();
    assert_eq!(st.completed, 32);
    assert!(st.degraded_executions <= 1);
}
