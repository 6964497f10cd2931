//! # bfp-serve — overload-robust multi-tenant serving over the simulated fleet
//!
//! The paper's deployment argument is that a bfp8 multi-mode card can
//! hold up *production* Transformer serving. This crate supplies the
//! runtime side of that claim: a synchronous-core, thread-pooled server
//! that owns N simulated accelerator arrays and keeps answering —
//! correctly — while individual arrays fault and while the offered load
//! exceeds capacity.
//!
//! * **Tenancy** — every [`ServeRequest`] carries a
//!   [`TenantId`] and a [`Priority`] (`Bulk` < `Standard` <
//!   `Critical`). Scheduling is strict across priority classes and
//!   deficit-weighted round robin across tenants *within* a class, so
//!   one abusive tenant cannot starve the others (weights come from
//!   [`TenantQuota`]).
//! * **Admission control** — one non-blocking path at `submit`, applied
//!   in order: shutdown, token-bucket quota ([`TenantQuota`]), brownout
//!   refusal of `Bulk` at tier 2, the early-deadline gate (a budget
//!   below the calibrated service estimate is refused as
//!   [`ServeError::DeadlineUnmeetable`] instead of queueing doomed
//!   work), then queue capacity under the configured [`Backpressure`]
//!   (reject the newcomer, or shed the oldest queued request). Shedding
//!   is priority-aware — `Critical` work is never evicted.
//! * **Brownout ladder** — under pressure the runtime sheds *quality*
//!   before *work* ([`BrownoutPolicy`]): tier 1 switches nonlinear
//!   epilogues to the fast LUT/polynomial kernels, tier 2 additionally
//!   refuses and sheds `Bulk`. Escalation is immediate, de-escalation
//!   waits out a dwell, and every transition is a trace instant.
//! * **Deadlines** — per-request budgets propagate into the engine as a
//!   [`bfp_arith::cancel::CancelToken`]; an expired request never
//!   occupies an array past the next cancellation point and fails fast
//!   with [`ServeError::DeadlineExceeded`]. A request without a budget
//!   never expires.
//! * **Fault handling** — executions run on the checksum-protected
//!   (ABFT) kernel. A detected single-element upset is *corrected in
//!   place* and served bit-exact; anything uncorrectable is *discarded*
//!   (never returned) and retried with capped backoff — on a different
//!   array while one is available, on the same array after a grace
//!   window otherwise (a fleet of one never starves a retry).
//! * **Health state machine** — per array, `Healthy → Degraded →
//!   Quarantined → Probing` (see [`ArrayHealth`]):
//!   quarantined arrays are drained and periodically re-certified by a
//!   golden self-test GEMM bit-checked against the softfp reference,
//!   then re-admitted.
//! * **Observability** — [`Server::stats`] snapshots the
//!   [`ServeStats`] counters (admission, per-tenant and
//!   per-priority rollups, brownout state, per-array health history)
//!   under one lock, so the identity
//!   `admitted == completed + failed + queued + in_flight` holds in
//!   every snapshot — fleet-wide, per tenant, and per priority class.
//!   Each request is booked once, in its (tenant, priority) cell, and
//!   every rollup is a sum of cells. Every [`ServeResponse`] carries a
//!   [`RequestTimeline`] (queue wait + per-attempt execution records)
//!   and the [`NonlinearMode`] it actually ran in, and
//!   [`Server::attach_tracer`] streams the same lifecycle as
//!   spans/instants into a [`bfp_telemetry::Tracer`] for Perfetto.
//!
//! The degradation ladder, in order: ABFT in-place correction (free) →
//! retry (same request, different array) → re-route (health-aware
//! dispatch) → fast nonlinear kernels (brownout tier 1) → shed `Bulk`
//! (tier 2) → quarantine (array level) → reject (request level, typed
//! error). Wrong bits are structurally impossible in a response: only
//! executions whose fault report carries no *uncorrected* detections
//! resolve tickets, and every completed response is bit-exact *for the
//! mode it ran in* (see [`reference_bits`]).
//!
//! ## Quickstart
//!
//! ```
//! use bfp_serve::{ArrayFaultPlan, ServeConfig, ServeRequest, Server};
//! use bfp_arith::matrix::MatF32;
//!
//! let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None; 2]);
//! let a = MatF32::from_fn(16, 16, |i, j| (i + j) as f32);
//! let b = MatF32::from_fn(16, 16, |i, j| (i as f32 - j as f32));
//! let ticket = server.submit(ServeRequest::new(a, b)).unwrap();
//! let resp = ticket.wait().unwrap();
//! assert_eq!(resp.out.rows(), 16);
//! server.drain();
//! ```
//!
//! ## Multi-tenant quickstart
//!
//! ```
//! use bfp_serve::{
//!     ArrayFaultPlan, Priority, ServeConfig, ServeOp, ServeRequest, Server, TenantId,
//!     TenantQuota,
//! };
//! use bfp_arith::matrix::MatF32;
//!
//! let cfg = ServeConfig {
//!     quotas: vec![
//!         // An interactive tenant with 4x the scheduling share…
//!         (TenantId(1), TenantQuota { weight: 4, ..Default::default() }),
//!         // …and a rate-limited batch tenant.
//!         (TenantId(2), TenantQuota { weight: 1, rate_rps: 50.0, burst: 8.0 }),
//!     ],
//!     ..Default::default()
//! };
//! let server = Server::simulated(cfg, vec![ArrayFaultPlan::None; 2]);
//! let a = MatF32::from_fn(16, 16, |i, j| (i + j) as f32 / 32.0);
//! let b = MatF32::from_fn(16, 16, |i, j| (i as f32 - j as f32) / 32.0);
//! let t = server
//!     .submit(
//!         ServeRequest::new(a, b)
//!             .for_tenant(TenantId(1))
//!             .with_priority(Priority::Critical)
//!             .with_op(ServeOp::GemmGelu),
//!     )
//!     .unwrap();
//! let resp = t.wait().unwrap();
//! assert_eq!(resp.tenant, TenantId(1));
//! server.drain();
//! let stats = server.stats();
//! assert_eq!(stats.tenant(TenantId(1)).unwrap().completed, 1);
//! ```

mod backend;
mod config;
mod error;
pub mod observatory;
mod server;
mod serving;
mod ticket;

pub use backend::{
    reference_bits, ArrayBackend, ArrayFaultPlan, ServeOp, SimArrayBackend, Telemetry,
};
pub use config::{Backpressure, BrownoutPolicy, HealthPolicy, ServeConfig, TenantQuota};
pub use error::ServeError;
pub use observatory::{Observatory, ObservatoryConfig, SHADOW_ENVELOPE};
pub use server::{ServeRequest, Server};
pub use serving::{
    ArrayHealth, ArrayServeStats, BrownoutStats, HealthEvent, Priority, PriorityServeStats,
    ServeStats, TenantId, TenantServeStats,
};
pub use ticket::{AttemptRecord, RequestTimeline, ServeResponse, Ticket};

// Re-export the observability vocabulary so downstream code does not
// need a direct bfp-telemetry / bfp-core dependency to pick a mode,
// attach a tracer, or read a flight dump.
pub use bfp_core::prelude::NonlinearMode;
pub use bfp_telemetry::{
    FlightAttempt, FlightDump, FlightRecord, ShadowSample, Tracer, TriggerReason,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_arith::matrix::MatF32;
    use std::time::{Duration, Instant};

    fn req(seed: u64) -> ServeRequest {
        let a = MatF32::from_fn(16, 16, |i, j| {
            ((i * 3 + j + seed as usize) % 5) as f32 - 2.0
        });
        let b = MatF32::from_fn(16, 16, |i, j| ((i + j * 7) % 5) as f32 - 2.0);
        ServeRequest::new(a, b)
    }

    #[test]
    fn serves_clean_requests_end_to_end() {
        let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None; 2]);
        let tickets: Vec<_> = (0..8).map(|s| server.submit(req(s)).unwrap()).collect();
        for t in &tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.attempts, 1);
            assert!(resp.modelled_s > 0.0);
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.submitted, 8);
        assert_eq!(s.admitted, 8);
        assert_eq!(s.completed, 8);
        assert_eq!(s.failed, 0);
        assert_eq!(s.serving_arrays(), 2);
    }

    #[test]
    fn reject_backpressure_returns_queue_full() {
        // Single array with a storm of submissions into a tiny queue:
        // some must be refused, and the refusals are typed.
        let cfg = ServeConfig {
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None]);
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut tickets = Vec::new();
        for s in 0..64 {
            match server.submit(req(s)) {
                Ok(t) => {
                    admitted += 1;
                    tickets.push(t);
                }
                Err(ServeError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.admitted, admitted);
        assert_eq!(s.rejected, rejected);
        assert_eq!(s.submitted, admitted + rejected);
        assert_eq!(s.completed, admitted);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn shed_oldest_admits_every_request_and_books_each_shed() {
        let cfg = ServeConfig {
            queue_capacity: 1,
            backpressure: Backpressure::ShedOldest,
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None]);
        let tickets: Vec<_> = (0..32).map(|s| server.submit(req(s)).unwrap()).collect();
        server.drain();
        let s = server.stats();
        assert_eq!(s.admitted, 32);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.completed + s.failed, s.admitted);
        assert_eq!(s.failed, s.shed);
        let shed_seen = tickets
            .iter()
            .filter(|t| t.wait() == Err(ServeError::Shed))
            .count() as u64;
        assert_eq!(shed_seen, s.shed);
    }

    #[test]
    fn zero_budget_requests_miss_their_deadline() {
        let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None]);
        let t = server
            .submit(
                ServeRequest::new(
                    MatF32::from_fn(16, 16, |_, _| 1.0),
                    MatF32::from_fn(16, 16, |_, _| 1.0),
                )
                .with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(t.wait(), Err(ServeError::DeadlineExceeded));
        let s = server.stats();
        assert_eq!(s.deadline_missed, 1);
        assert_eq!(s.failed, 1);
    }

    #[test]
    fn shutdown_fails_queued_requests_with_typed_error() {
        let mut server = Server::simulated(
            ServeConfig {
                queue_capacity: 128,
                ..Default::default()
            },
            vec![ArrayFaultPlan::None],
        );
        let tickets: Vec<_> = (0..32).map(|s| server.submit(req(s)).unwrap()).collect();
        server.shutdown();
        assert!(matches!(server.submit(req(0)), Err(ServeError::Shutdown)));
        let s = server.stats();
        assert_eq!(s.completed + s.failed, s.admitted);
        for t in tickets {
            let r = t.wait();
            assert!(
                r.is_ok() || r == Err(ServeError::Shutdown),
                "unexpected outcome: {r:?}"
            );
        }
    }

    #[test]
    fn response_timeline_records_the_lifecycle() {
        // Single array with one transient upset: ABFT localizes and
        // repairs it in place, so the very first attempt serves the
        // exact bits — no discard, no retry — while the correction
        // still strikes the array's health accounting.
        let cfg = ServeConfig {
            max_attempts: 4,
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::transient(1)]);
        let resp = server.submit(req(0)).unwrap().wait().unwrap();
        assert_eq!(resp.attempts, 1, "corrected in place, never retried");
        assert_eq!(resp.timeline.attempts.len(), 1);
        assert!(resp.timeline.queue_wait_s >= 0.0);
        assert!(resp.timeline.total_s <= resp.wall_s + 1e-9);
        let last = resp.timeline.attempts.last().unwrap();
        assert!(!last.faulted, "a corrected attempt is servable");
        assert_eq!(last.array, resp.array);
        assert!((last.modelled_s - resp.modelled_s).abs() < 1e-12);
        assert!(resp.timeline.overhead_s() >= 0.0);
        server.drain();
        let s = server.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(
            s.degraded_executions, 1,
            "the detection still counts against health"
        );
        assert_eq!(s.per_array[0].faults.abft_detections, 1);
        assert_eq!(s.per_array[0].faults.abft_corrections, 1);
    }

    #[test]
    fn uncorrectable_fault_is_discarded_and_retried_after_repair() {
        // A latched, multi-element defect defeats ABFT correction: every
        // attempt on the sick array is discarded. Repairing the array
        // (clearing the latch) lets a later retry serve cleanly, and the
        // timeline shows the discarded attempts.
        use std::sync::atomic::Ordering;
        let (plan, heal) = ArrayFaultPlan::latched();
        let cfg = ServeConfig {
            max_attempts: 64,
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![plan]);
        let ticket = server.submit(req(0)).unwrap();
        while server.stats().retries == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        heal.store(false, Ordering::Relaxed);
        let resp = ticket.wait().unwrap();
        assert!(resp.attempts >= 2, "at least one attempt was discarded");
        let (clean, discarded) = resp.timeline.attempts.split_last().unwrap();
        assert!(!clean.faulted, "the accepted attempt is clean");
        for a in discarded {
            assert!(a.faulted, "earlier attempts were discarded as faulted");
        }
        server.drain();
    }

    #[test]
    fn attached_tracer_sees_request_lifecycle_spans() {
        let tracer = bfp_telemetry::Tracer::new();
        let cfg = ServeConfig {
            max_attempts: 4,
            ..Default::default()
        };
        // Both arrays carry a transient credit, so whichever array runs
        // the very first execution flags it: at least one fault instant
        // is guaranteed regardless of worker scheduling (ABFT corrects
        // the upset, so the attempt still serves — no retry needed).
        let server = Server::simulated(
            cfg,
            vec![ArrayFaultPlan::transient(1), ArrayFaultPlan::transient(1)],
        );
        assert!(server.attach_tracer(tracer.clone()));
        assert!(!server.attach_tracer(bfp_telemetry::Tracer::new()));
        let tickets: Vec<_> = (0..4).map(|s| server.submit(req(s)).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        server.drain();
        let events = tracer.drain();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("serve.queue_wait"), 4, "one wait span per request");
        assert!(
            count("serve.execute") >= 4,
            "one execution per request (corrected upsets need no retry)"
        );
        assert!(
            count("serve.fault") >= 1,
            "the corrected upset is an instant"
        );
        assert!(count("serve.queue_depth") >= 4);
        let exec = events.iter().find(|e| e.name == "serve.execute").unwrap();
        assert!(exec.args.iter().any(|(k, _)| *k == "req"));
        assert!(exec.args.iter().any(|(k, _)| *k == "array"));
        // The trace exports as Chrome JSON.
        let json = tracer.chrome_json();
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn stats_identity_holds_under_concurrent_submit_and_drain() {
        // admitted == completed + failed + queued + in_flight must hold
        // in EVERY snapshot, including ones racing dispatch, retry
        // requeue, and resolution. A faulty array keeps the retry path
        // hot while we hammer stats() from the submitting thread.
        let cfg = ServeConfig {
            queue_capacity: 256,
            max_attempts: 4,
            ..Default::default()
        };
        let server = Server::simulated(
            cfg,
            vec![ArrayFaultPlan::transient(8), ArrayFaultPlan::None],
        );
        let check = |s: &ServeStats| {
            assert_eq!(
                s.admitted,
                s.completed + s.failed + s.queued as u64 + s.in_flight as u64,
                "identity broken: {s}"
            );
        };
        let mut tickets = Vec::new();
        for s in 0..48 {
            tickets.push(server.submit(req(s)).unwrap());
            check(&server.stats());
        }
        loop {
            let s = server.stats();
            check(&s);
            if s.completed + s.failed == s.admitted && s.queued == 0 && s.in_flight == 0 {
                break;
            }
            std::thread::yield_now();
        }
        server.drain();
        let s = server.stats();
        check(&s);
        assert_eq!(s.completed, 48);
    }

    use bfp_arith::cancel::CancelToken;
    use bfp_arith::error::ArithError;
    use std::sync::{Arc, Condvar, Mutex};

    /// A backend whose executions block until the test grants permits —
    /// turns worker scheduling into a deterministic script. Records the
    /// `a[0][0]` tag of every execution, in order.
    struct GateBackend {
        gate: Gate,
        order: ExecOrder,
        delegate: SimArrayBackend,
    }

    type Gate = Arc<(Mutex<u64>, Condvar)>;
    type ExecOrder = Arc<Mutex<Vec<u64>>>;

    impl GateBackend {
        fn fleet(n: usize) -> (Vec<Box<dyn ArrayBackend>>, Gate, ExecOrder) {
            let gate = Arc::new((Mutex::new(0u64), Condvar::new()));
            let order = Arc::new(Mutex::new(Vec::new()));
            let backends = (0..n)
                .map(|_| {
                    Box::new(GateBackend {
                        gate: gate.clone(),
                        order: order.clone(),
                        delegate: SimArrayBackend::new(100.0, ArrayFaultPlan::None),
                    }) as Box<dyn ArrayBackend>
                })
                .collect();
            (backends, gate, order)
        }

        fn release(gate: &Gate, permits: u64) {
            let (m, cv) = &**gate;
            *m.lock().unwrap() += permits;
            cv.notify_all();
        }
    }

    impl ArrayBackend for GateBackend {
        fn execute(
            &mut self,
            a: &bfp_arith::matrix::MatF32,
            b: &bfp_arith::matrix::MatF32,
            op: ServeOp,
            mode: NonlinearMode,
            cancel: &CancelToken,
        ) -> Result<(bfp_arith::matrix::MatF32, Telemetry), ArithError> {
            let (m, cv) = &*self.gate;
            let mut permits = m.lock().unwrap();
            // Failsafe so a buggy test fails instead of hanging shutdown.
            let mut patience = 500;
            while *permits == 0 && patience > 0 {
                permits = cv
                    .wait_timeout(permits, Duration::from_millis(10))
                    .unwrap()
                    .0;
                cancel.check()?;
                patience -= 1;
            }
            *permits = permits.saturating_sub(1);
            drop(permits);
            self.order.lock().unwrap().push(a.get(0, 0) as u64);
            self.delegate.execute(a, b, op, mode, cancel)
        }
    }

    /// A request whose execution order is observable via `a[0][0]`.
    fn tagged(tag: u64, priority: Priority) -> ServeRequest {
        let a = MatF32::from_fn(16, 16, |i, j| {
            if (i, j) == (0, 0) {
                tag as f32
            } else {
                ((i + j * 3) % 5) as f32 - 2.0
            }
        });
        let b = MatF32::from_fn(16, 16, |i, j| ((i * 7 + j) % 5) as f32 - 2.0);
        ServeRequest::new(a, b).with_priority(priority)
    }

    fn wait_in_flight(server: &Server, n: usize) {
        let mut spins = 0;
        while server.stats().in_flight < n {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
            assert!(spins < 5000, "worker never dispatched");
        }
    }

    /// Brownout disabled (thresholds unreachable) so queue-pressure
    /// tests exercise exactly one mechanism at a time.
    fn no_brownout() -> BrownoutPolicy {
        BrownoutPolicy {
            tier1_pressure: 1e9,
            tier2_pressure: 2e9,
            ..Default::default()
        }
    }

    /// A ladder driven by queue depth alone, held for the whole test:
    /// tier 1 from 30% full, tier 2 from `tier2_pressure`.
    fn queue_ladder(tier2_pressure: f64) -> BrownoutPolicy {
        BrownoutPolicy {
            tier1_pressure: 0.3,
            tier2_pressure,
            min_dwell: Duration::from_secs(30),
            latency_target: Duration::from_secs(30),
        }
    }

    #[test]
    fn strict_priority_then_fifo_within_a_class() {
        let (backends, gate, order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        // Occupy the single array, then queue a mix while it is held.
        let first = server.submit(tagged(100, Priority::Standard)).unwrap();
        wait_in_flight(&server, 1);
        let rest: Vec<_> = [
            tagged(1, Priority::Bulk),
            tagged(2, Priority::Bulk),
            tagged(3, Priority::Critical),
            tagged(4, Priority::Standard),
        ]
        .into_iter()
        .map(|r| server.submit(r).unwrap())
        .collect();
        GateBackend::release(&gate, 100);
        first.wait().unwrap();
        for t in &rest {
            t.wait().unwrap();
        }
        server.drain();
        assert_eq!(
            *order.lock().unwrap(),
            vec![100, 3, 4, 1, 2],
            "critical first, then standard FIFO, bulk last"
        );
    }

    #[test]
    fn dwrr_interleaves_tenants_by_weight() {
        let (backends, gate, order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            quotas: vec![
                (
                    TenantId(1),
                    TenantQuota {
                        weight: 2,
                        ..Default::default()
                    },
                ),
                (
                    TenantId(2),
                    TenantQuota {
                        weight: 1,
                        ..Default::default()
                    },
                ),
            ],
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let first = server.submit(tagged(100, Priority::Standard)).unwrap();
        wait_in_flight(&server, 1);
        // Tenant 1 (weight 2) tags 10..16, tenant 2 (weight 1) tags 20..23.
        let mut tickets = Vec::new();
        for tag in [10u64, 11, 12, 13, 14, 15] {
            tickets.push(
                server
                    .submit(tagged(tag, Priority::Standard).for_tenant(TenantId(1)))
                    .unwrap(),
            );
        }
        for tag in [20u64, 21, 22] {
            tickets.push(
                server
                    .submit(tagged(tag, Priority::Standard).for_tenant(TenantId(2)))
                    .unwrap(),
            );
        }
        GateBackend::release(&gate, 100);
        first.wait().unwrap();
        for t in &tickets {
            t.wait().unwrap();
        }
        server.drain();
        let got = order.lock().unwrap().clone();
        // After the opener, the DWRR serves 2 from tenant 1 per 1 from
        // tenant 2 until a queue drains.
        assert_eq!(
            got,
            vec![100, 10, 11, 20, 12, 13, 21, 14, 15, 22],
            "2:1 deficit-weighted interleave"
        );
    }

    #[test]
    fn quota_refuses_past_the_burst_and_refills() {
        let cfg = ServeConfig {
            quotas: vec![(
                TenantId(7),
                TenantQuota {
                    weight: 1,
                    rate_rps: 5.0,
                    burst: 1.0,
                },
            )],
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None]);
        let t7 = |s: u64| req(s).for_tenant(TenantId(7));
        // One token in the bucket: the first request is served…
        server.submit(t7(0)).unwrap().wait().unwrap();
        // …then three immediate submissions find it empty.
        for s in 1..4 {
            assert_eq!(server.submit(t7(s)).unwrap_err(), ServeError::QuotaExceeded);
        }
        // Past a refill interval the bucket holds a token again.
        std::thread::sleep(Duration::from_millis(250));
        server.submit(t7(4)).unwrap().wait().unwrap();
        server.drain();
        let s = server.stats();
        let ts = s.tenant(TenantId(7)).unwrap();
        assert_eq!(ts.quota_rejected, 3);
        assert_eq!(ts.completed, 2);
        assert_eq!(s.quota_rejected, 3);
        // Fleet identity including refusals.
        assert_eq!(s.submitted, s.admitted + s.rejected);
    }

    #[test]
    fn brownout_ladder_degrades_then_sheds_bulk() {
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 4,
            // 1/4 queued stays tier 0; 2/4 is tier 1, 3/4 is tier 2.
            brownout: queue_ladder(0.75),
            observatory: ObservatoryConfig {
                shadow_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let tracer = Tracer::new();
        assert!(server.attach_tracer(tracer.clone()));

        let gelu = |tag: u64, p: Priority| tagged(tag, p).with_op(ServeOp::GemmGelu);
        // Occupy the array, then build queue pressure: two Bulk, then
        // Standards pushing pressure through 0.25 (tier 1) and 0.75
        // (tier 2, which sheds the queued Bulk).
        let opener = server.submit(gelu(100, Priority::Standard)).unwrap();
        wait_in_flight(&server, 1);
        let b1 = server.submit(gelu(1, Priority::Bulk)).unwrap();
        let b2 = server.submit(gelu(2, Priority::Bulk)).unwrap();
        let s2 = server.submit(gelu(3, Priority::Standard)).unwrap();
        let s3 = server.submit(gelu(4, Priority::Standard)).unwrap();
        assert_eq!(server.stats().brownout.tier, 2, "pressure reached tier 2");
        assert_eq!(b1.wait(), Err(ServeError::Shed), "tier-2 entry sheds Bulk");
        assert_eq!(b2.wait(), Err(ServeError::Shed));
        // Incoming Bulk is refused at the door while at tier 2.
        assert_eq!(
            server.submit(gelu(5, Priority::Bulk)).unwrap_err(),
            ServeError::Brownout
        );
        GateBackend::release(&gate, 100);
        let opened = opener.wait().unwrap();
        let deg2 = s2.wait().unwrap();
        let deg3 = s3.wait().unwrap();
        server.drain();

        // The opener was dispatched at tier 0 (exact); the Standards
        // were dispatched under brownout and ran the fast kernels. Each
        // response is bit-exact for the mode it actually ran in.
        assert_eq!(opened.mode, NonlinearMode::Exact);
        for resp in [&deg2, &deg3] {
            assert_eq!(resp.mode, NonlinearMode::Fast);
        }
        let (a3, b3) = (
            tagged(3, Priority::Standard).a,
            tagged(3, Priority::Standard).b,
        );
        assert_eq!(
            deg2.out,
            reference_bits(&a3, &b3, ServeOp::GemmGelu, NonlinearMode::Fast),
            "degraded response is bit-exact for Fast"
        );
        assert_ne!(
            deg2.out,
            reference_bits(&a3, &b3, ServeOp::GemmGelu, NonlinearMode::Exact),
            "and genuinely differs from the exact kernel's bits"
        );

        let s = server.stats();
        assert_eq!(s.brownout.max_tier, 2);
        assert!(s.brownout.transitions >= 1);
        assert_eq!(s.brownout.sheds, 2, "both queued Bulk were shed");
        assert_eq!(s.brownout_rejected, 1);
        assert_eq!(s.per_priority[Priority::Bulk.index()].shed, 2);
        assert_eq!(s.per_priority[Priority::Critical.index()].shed, 0);
        // Transitions are visible in the trace.
        let events = tracer.drain();
        let ups: Vec<_> = events
            .iter()
            .filter(|e| e.name == "serve.brownout")
            .collect();
        assert!(!ups.is_empty(), "brownout transitions traced");
        assert!(ups[0].args.iter().any(|(k, _)| *k == "from"));
        assert!(ups[0].args.iter().any(|(k, _)| *k == "to"));
        assert!(events.iter().any(|e| e.name == "serve.brownout_tier"));

        // The shadow lane re-checked both fast completions and found
        // them inside the envelope; the escalation dumped the recorder,
        // whose ring never dropped a record.
        let obs = server.observatory();
        assert!(obs.shadow_samples() >= 2);
        assert_eq!(obs.envelope_violations(), 0);
        assert_eq!(obs.records_dropped(), 0);
        assert!(server
            .take_flight_dumps()
            .iter()
            .any(|d| d.reason == TriggerReason::BrownoutEscalation));
    }

    #[test]
    fn timeline_records_cross_array_retry() {
        // One healthy array plus one latched one: a request that first
        // lands on the sick array is discarded and retried — on the
        // *other* array — and the timeline records both attempts with
        // monotone queue-wait/total accounting.
        let (latched, _heal) = ArrayFaultPlan::latched();
        let cfg = ServeConfig {
            max_attempts: 8,
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::None, latched]);
        let mut crossed = None;
        for round in 0..10u64 {
            let tickets: Vec<_> = (0..16)
                .map(|s| server.submit(req(s + round * 16)).unwrap())
                .collect();
            for t in tickets {
                let resp = t.wait().unwrap();
                // Lifecycle invariants hold for every response.
                assert!(resp.timeline.queue_wait_s >= 0.0);
                assert!(resp.timeline.queue_wait_s <= resp.timeline.total_s + 1e-9);
                assert!(resp.timeline.total_s <= resp.wall_s + 1e-9);
                assert_eq!(resp.attempts as usize, resp.timeline.attempts.len());
                assert!(resp.timeline.overhead_s() >= 0.0);
                if resp.timeline.attempts.len() >= 2 {
                    crossed.get_or_insert(resp);
                }
            }
            if crossed.is_some() {
                break;
            }
        }
        let resp = crossed.expect("some request faulted on the latched array and retried");
        let first = resp.timeline.attempts.first().unwrap();
        let last = resp.timeline.attempts.last().unwrap();
        assert!(
            first.faulted,
            "the discarded attempt is recorded as faulted"
        );
        assert!(!last.faulted, "the accepted attempt is clean");
        assert_ne!(
            first.array, last.array,
            "the retry re-routed to a different array"
        );
        assert_eq!(last.array, resp.array);
        server.drain();
        assert!(server.stats().retries >= 1);
    }

    #[test]
    fn timeline_attempts_record_dispatch_mode_across_tier_change() {
        // The brownout tier at *dispatch* time is stamped on each
        // attempt record: an opener dispatched at tier 0 records Exact,
        // requests dispatched after queue pressure lifts the ladder to
        // tier 1 record Fast. The escalation itself fires the flight
        // recorder.
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 4,
            brownout: queue_ladder(1e9), // degrade only, never shed
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let gelu = |tag: u64| tagged(tag, Priority::Standard).with_op(ServeOp::GemmGelu);
        let opener = server.submit(gelu(1)).unwrap();
        wait_in_flight(&server, 1);
        let q1 = server.submit(gelu(2)).unwrap();
        let q2 = server.submit(gelu(3)).unwrap();
        let q3 = server.submit(gelu(4)).unwrap();
        assert_eq!(server.stats().brownout.tier, 1);
        GateBackend::release(&gate, 100);
        let r0 = opener.wait().unwrap();
        let r1 = q1.wait().unwrap();
        let r2 = q2.wait().unwrap();
        let r3 = q3.wait().unwrap();
        server.drain();

        assert_eq!(
            r0.timeline.attempts.last().unwrap().mode,
            NonlinearMode::Exact
        );
        for r in [&r1, &r2, &r3] {
            let a = r.timeline.attempts.last().unwrap();
            assert_eq!(a.mode, NonlinearMode::Fast, "dispatched under brownout");
            assert_eq!(a.mode, r.mode, "response mode mirrors the accepted attempt");
            assert_eq!(r.timeline.attempts.len(), r.attempts as usize);
            assert!(r.timeline.queue_wait_s <= r.timeline.total_s + 1e-9);
        }
        let dumps = server.take_flight_dumps();
        assert!(
            dumps
                .iter()
                .any(|d| d.reason == TriggerReason::BrownoutEscalation),
            "tier escalation fired the flight recorder: {dumps:?}"
        );
    }

    /// A backend that silently corrupts fast-mode outputs without any
    /// fault detection — numeric rot only the shadow lane can see.
    struct RotBackend {
        gate: Gate,
        delegate: SimArrayBackend,
    }

    impl ArrayBackend for RotBackend {
        fn execute(
            &mut self,
            a: &MatF32,
            b: &MatF32,
            op: ServeOp,
            mode: NonlinearMode,
            cancel: &CancelToken,
        ) -> Result<(MatF32, Telemetry), ArithError> {
            let (m, cv) = &*self.gate;
            let mut permits = m.lock().unwrap();
            let mut patience = 500;
            while *permits == 0 && patience > 0 {
                permits = cv
                    .wait_timeout(permits, Duration::from_millis(10))
                    .unwrap()
                    .0;
                cancel.check()?;
                patience -= 1;
            }
            *permits = permits.saturating_sub(1);
            drop(permits);
            let (mut out, t) = self.delegate.execute(a, b, op, mode, cancel)?;
            if mode == NonlinearMode::Fast {
                let v = out.get(0, 0);
                out.set(0, 0, v + 0.5);
            }
            Ok((out, t))
        }
    }

    #[test]
    fn shadow_lane_catches_silent_fast_mode_corruption_and_dumps() {
        // An array returns silently-wrong fast-mode bits (no ABFT
        // signal). With the shadow lane on every fast completion, the
        // exact-oracle re-run catches the envelope violation, strikes
        // the array's health, and dumps the flight recorder with the
        // offending request's timeline in it.
        let gate: Gate = Arc::new((Mutex::new(0u64), Condvar::new()));
        let backends: Vec<Box<dyn ArrayBackend>> = vec![Box::new(RotBackend {
            gate: gate.clone(),
            delegate: SimArrayBackend::new(100.0, ArrayFaultPlan::None),
        })];
        let cfg = ServeConfig {
            queue_capacity: 4,
            brownout: queue_ladder(1e9),
            observatory: ObservatoryConfig {
                shadow_every: 1,
                dump_cooldown: Duration::ZERO,
            },
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let gelu = |tag: u64| tagged(tag, Priority::Standard).with_op(ServeOp::GemmGelu);
        let opener = server.submit(gelu(1)).unwrap();
        wait_in_flight(&server, 1);
        let q1 = server.submit(gelu(2)).unwrap();
        let q2 = server.submit(gelu(3)).unwrap();
        GateBackend::release(&gate, 100);
        opener.wait().unwrap();
        let r1 = q1.wait().unwrap();
        q2.wait().unwrap();
        server.drain();

        // The corrupted response still resolves Ok — the rot is silent —
        // but the shadow lane saw it.
        assert_eq!(r1.mode, NonlinearMode::Fast);
        let obs = server.observatory();
        assert!(obs.shadow_samples() >= 2);
        assert!(
            obs.envelope_violations() >= 2,
            "both fast completions violated"
        );
        let dumps = server.take_flight_dumps();
        let dump = dumps
            .iter()
            .find(|d| d.reason == TriggerReason::EnvelopeViolation)
            .expect("an envelope violation dumped the flight recorder");
        let offender = dump
            .records
            .iter()
            .find(|r| r.id == q1.id())
            .expect("the offending request's timeline is in the dump");
        let shadow = offender
            .shadow
            .as_ref()
            .expect("its shadow sample rode along");
        assert!(shadow.violation);
        assert!(!offender.attempts.is_empty());
        assert_eq!(offender.attempts.last().unwrap().mode, "fast");
        // The dump renders as JSON and as a Perfetto-loadable trace.
        assert!(dump.to_json().contains("flight_recorder/v1"));
        let trace = dump.to_chrome_trace();
        assert!(trace.contains("traceEvents"), "{trace}");
        assert!(trace.contains("envelope_violation"), "{trace}");
    }

    #[test]
    fn admission_refusals_follow_the_documented_order() {
        // Each step fails two adjacent checks of `submit`'s order —
        // shutdown, quota, brownout tier 2, deadline gate, queue
        // capacity — and the earlier check's error must win.
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 2,
            backpressure: Backpressure::Reject,
            quotas: vec![(
                TenantId(1),
                TenantQuota {
                    weight: 1,
                    rate_rps: 0.01,
                    burst: 1.0,
                },
            )],
            // A full two-slot queue is tier 2.
            brownout: queue_ladder(0.75),
            ..Default::default()
        };
        let mut server = Server::new(cfg, backends);
        // Calibrate the deadline gate's service estimate, one request
        // at a time so the queue never fills.
        GateBackend::release(&gate, 16);
        for s in 0..16 {
            server.submit(req(s)).unwrap().wait().unwrap();
        }
        // Hold the array and fill the queue: pressure 2/2 is tier 2.
        let opener = server.submit(tagged(100, Priority::Standard)).unwrap();
        wait_in_flight(&server, 1);
        let queued: Vec<_> = (1..3)
            .map(|tag| server.submit(tagged(tag, Priority::Standard)).unwrap())
            .collect();
        let doomed = |tag: u64, p: Priority| tagged(tag, p).with_deadline(Duration::from_nanos(1));
        let t1 = TenantId(1);
        let refused = |r: ServeRequest| server.submit(r).unwrap_err();

        // Brownout before the deadline gate: tenant 1 spends its only
        // token on an unmeetable Bulk request, refused for its class.
        let bulk = Priority::Bulk;
        assert_eq!(
            refused(doomed(3, bulk).for_tenant(t1)),
            ServeError::Brownout
        );
        assert_eq!(server.stats().brownout.tier, 2);
        // Quota before brownout: its next Bulk request is over quota.
        assert_eq!(
            refused(tagged(4, bulk).for_tenant(t1)),
            ServeError::QuotaExceeded
        );
        // Deadline gate before queue capacity: the queue is full, but an
        // unmeetable budget is refused as such.
        let standard = Priority::Standard;
        assert_eq!(refused(tagged(5, standard)), ServeError::QueueFull);
        assert_eq!(refused(doomed(6, standard)), ServeError::DeadlineUnmeetable);

        GateBackend::release(&gate, 100);
        opener.wait().unwrap();
        for t in &queued {
            t.wait().unwrap();
        }
        server.drain();
        let s = server.stats();
        assert_eq!(
            (
                s.brownout_rejected,
                s.quota_rejected,
                s.deadline_rejected,
                s.rejected
            ),
            (1, 1, 1, 4)
        );
        assert_eq!(s.deadline_missed, 0, "no refused request counts as missed");

        // Shutdown before everything: even an over-quota Bulk request
        // with an unmeetable budget is refused as shut down.
        server.shutdown();
        assert_eq!(
            server
                .submit(doomed(7, Priority::Bulk).for_tenant(t1))
                .unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(server.stats().rejected, 5);
    }

    #[test]
    fn critical_is_never_shed_even_by_critical_arrivals() {
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 2,
            backpressure: Backpressure::ShedOldest,
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let opener = server.submit(tagged(100, Priority::Critical)).unwrap();
        wait_in_flight(&server, 1);
        let c1 = server.submit(tagged(1, Priority::Critical)).unwrap();
        let c2 = server.submit(tagged(2, Priority::Critical)).unwrap();
        // Queue full of Critical: neither a Bulk nor another Critical
        // arrival may evict them — both fall back to QueueFull.
        assert_eq!(
            server.submit(tagged(3, Priority::Bulk)).unwrap_err(),
            ServeError::QueueFull
        );
        assert_eq!(
            server.submit(tagged(4, Priority::Critical)).unwrap_err(),
            ServeError::QueueFull
        );
        GateBackend::release(&gate, 100);
        for t in [&opener, &c1, &c2] {
            t.wait().unwrap();
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.per_priority[Priority::Critical.index()].shed, 0);
        assert_eq!(s.per_priority[Priority::Critical.index()].completed, 3);

        // A Standard arrival does evict queued Bulk, oldest first.
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 2,
            backpressure: Backpressure::ShedOldest,
            brownout: no_brownout(),
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let opener = server.submit(tagged(100, Priority::Standard)).unwrap();
        wait_in_flight(&server, 1);
        let b1 = server.submit(tagged(1, Priority::Bulk)).unwrap();
        let b2 = server.submit(tagged(2, Priority::Bulk)).unwrap();
        let s1 = server.submit(tagged(3, Priority::Standard)).unwrap();
        assert_eq!(b1.wait(), Err(ServeError::Shed), "oldest Bulk was evicted");
        GateBackend::release(&gate, 100);
        for t in [&opener, &b2, &s1] {
            t.wait().unwrap();
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.per_priority[Priority::Bulk.index()].shed, 1);
    }

    #[test]
    fn lone_faulting_array_still_retries_its_own_work() {
        // Two arrays: one latched (every execution faults, quarantines
        // quickly), one with a transient burst. Once the latched array
        // quarantines, the transient array is the only runnable one —
        // requests it faulted on must retry on it rather than starve.
        let (latched, _heal) = ArrayFaultPlan::latched();
        let cfg = ServeConfig {
            max_attempts: 16,
            health: HealthPolicy {
                // The latched array (faulting every run) quarantines
                // fast; the single transient upset leaves the other
                // array serving.
                quarantine_strikes: 2,
                // Keep probes far away so the latched array stays out.
                probe_interval: Duration::from_secs(30),
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::simulated(cfg, vec![ArrayFaultPlan::transient(1), latched]);
        // Batches until the latched array has eaten enough work to
        // quarantine — one batch usually suffices, but worker scheduling
        // under machine load can starve it of jobs for a while, so the
        // bound is a wall-clock deadline rather than a round count.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut submitted = 0u64;
        while server.stats().serving_arrays() != 1 && Instant::now() < deadline {
            let tickets: Vec<_> = (0..8).map(|s| server.submit(req(s)).unwrap()).collect();
            submitted += 8;
            for t in tickets {
                t.wait().unwrap();
            }
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.completed, submitted, "no request starved");
        assert!(s.retries >= 1, "faulted attempts were retried");
        assert_eq!(s.serving_arrays(), 1, "the latched array is quarantined");
    }

    #[test]
    fn deadline_gate_refuses_unmeetable_budgets_once_calibrated() {
        let server = Server::simulated(ServeConfig::default(), vec![ArrayFaultPlan::None; 2]);
        // Calibrate the service estimate with a batch of clean requests.
        let tickets: Vec<_> = (0..24).map(|s| server.submit(req(s)).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        // A nanosecond budget is now provably unmeetable: refused at
        // admission instead of being queued to miss.
        let err = server
            .submit(req(0).with_deadline(Duration::from_nanos(1)))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineUnmeetable);
        server.drain();
        let s = server.stats();
        assert_eq!(s.deadline_rejected, 1);
        assert_eq!(s.deadline_missed, 0, "the doomed request never queued");
        assert_eq!(s.completed, 24);
    }

    #[test]
    fn per_tenant_and_per_priority_identities_hold_at_quiescence() {
        let cfg = ServeConfig {
            quotas: vec![
                (
                    TenantId(1),
                    TenantQuota {
                        weight: 3,
                        ..Default::default()
                    },
                ),
                (
                    TenantId(2),
                    TenantQuota {
                        weight: 1,
                        ..Default::default()
                    },
                ),
            ],
            ..Default::default()
        };
        let server = Server::simulated(
            cfg,
            vec![ArrayFaultPlan::transient(4), ArrayFaultPlan::None],
        );
        let mut tickets = Vec::new();
        for s in 0..30 {
            let tenant = TenantId(1 + s % 2);
            let prio = Priority::ALL[(s % 3) as usize];
            tickets.push(
                server
                    .submit(req(s).for_tenant(tenant).with_priority(prio))
                    .unwrap(),
            );
        }
        for t in tickets {
            t.wait().unwrap();
        }
        server.drain();
        let s = server.stats();
        assert_eq!(s.completed, 30);
        for ts in &s.per_tenant {
            assert_eq!(
                ts.admitted,
                ts.completed + ts.failed + ts.queued as u64 + ts.in_flight as u64,
                "tenant identity: {ts:?}"
            );
            assert_eq!(ts.submitted, ts.admitted + ts.rejected);
        }
        assert_eq!(s.tenant(TenantId(1)).unwrap().weight, 3);
        for (i, ps) in s.per_priority.iter().enumerate() {
            assert_eq!(
                ps.admitted,
                ps.completed + ps.failed + ps.queued as u64 + ps.in_flight as u64,
                "priority identity at {i}"
            );
        }
        let tenant_sum: u64 = s.per_tenant.iter().map(|t| t.admitted).sum();
        let prio_sum: u64 = s.per_priority.iter().map(|p| p.admitted).sum();
        assert_eq!(tenant_sum, s.admitted, "tenant rollup covers the fleet");
        assert_eq!(prio_sum, s.admitted, "priority rollup covers the fleet");
    }

    /// The fleet figures equal the per-tenant sums and the per-priority
    /// sums, and the admission identity holds at every level.
    fn check_rollups(s: &ServeStats) {
        let by_tenant = |f: fn(&TenantServeStats) -> u64| s.per_tenant.iter().map(f).sum::<u64>();
        assert_eq!(
            (
                s.submitted,
                s.admitted,
                s.rejected,
                s.quota_rejected,
                s.completed,
                s.failed,
                s.shed
            ),
            (
                by_tenant(|t| t.submitted),
                by_tenant(|t| t.admitted),
                by_tenant(|t| t.rejected),
                by_tenant(|t| t.quota_rejected),
                by_tenant(|t| t.completed),
                by_tenant(|t| t.failed),
                by_tenant(|t| t.shed)
            ),
            "fleet vs per-tenant sums: {s}"
        );
        let by_class =
            |f: fn(&PriorityServeStats) -> u64| s.per_priority.iter().map(f).sum::<u64>();
        assert_eq!(
            (
                s.admitted,
                s.completed,
                s.failed,
                s.shed,
                s.queued as u64,
                s.in_flight as u64
            ),
            (
                by_class(|p| p.admitted),
                by_class(|p| p.completed),
                by_class(|p| p.failed),
                by_class(|p| p.shed),
                by_class(|p| p.queued as u64),
                by_class(|p| p.in_flight as u64)
            ),
            "fleet vs per-priority sums: {s}"
        );
        assert_eq!(s.submitted, s.admitted + s.rejected);
        assert_eq!(
            s.admitted,
            s.completed + s.failed + s.queued as u64 + s.in_flight as u64
        );
    }

    #[test]
    fn rollups_sum_to_the_fleet_under_quota_shed_and_brownout() {
        let (backends, gate, _order) = GateBackend::fleet(1);
        let cfg = ServeConfig {
            queue_capacity: 4,
            backpressure: Backpressure::ShedOldest,
            quotas: vec![(
                TenantId(1),
                TenantQuota {
                    weight: 1,
                    rate_rps: 0.01,
                    burst: 2.0,
                },
            )],
            brownout: queue_ladder(0.75),
            ..Default::default()
        };
        let server = Server::new(cfg, backends);
        let submit = |tag: u64, tenant: u64, p: Priority| {
            let r = server.submit(tagged(tag, p).for_tenant(TenantId(tenant)));
            check_rollups(&server.stats());
            r
        };
        let opener = submit(100, 2, Priority::Standard).unwrap();
        wait_in_flight(&server, 1);
        // Tenant 1 spends its two-token burst on Bulk work; its third
        // request is over quota.
        let b1 = submit(1, 1, Priority::Bulk).unwrap();
        let b2 = submit(2, 1, Priority::Bulk).unwrap();
        assert_eq!(
            submit(3, 1, Priority::Standard).unwrap_err(),
            ServeError::QuotaExceeded
        );
        // Queue pressure climbs through tier 1 to tier 2, whose entry
        // sheds the queued Bulk and refuses new Bulk at the door.
        let s1 = submit(4, 2, Priority::Standard).unwrap();
        let mut served = vec![submit(5, 2, Priority::Standard).unwrap()];
        assert_eq!(server.stats().brownout.tier, 2);
        assert_eq!(b1.wait(), Err(ServeError::Shed));
        assert_eq!(b2.wait(), Err(ServeError::Shed));
        assert_eq!(
            submit(6, 2, Priority::Bulk).unwrap_err(),
            ServeError::Brownout
        );
        // Filling the queue makes `ShedOldest` evict the oldest Standard.
        for tag in 7..10 {
            served.push(submit(tag, 2, Priority::Standard).unwrap());
        }
        assert_eq!(s1.wait(), Err(ServeError::Shed));

        GateBackend::release(&gate, 100);
        opener.wait().unwrap();
        for t in &served {
            t.wait().unwrap();
        }
        loop {
            let s = server.stats();
            check_rollups(&s);
            if s.queued == 0 && s.in_flight == 0 {
                break;
            }
            std::thread::yield_now();
        }
        server.drain();
        let s = server.stats();
        check_rollups(&s);
        assert_eq!((s.quota_rejected, s.brownout_rejected), (1, 1));
        assert_eq!((s.shed, s.brownout.sheds), (3, 2));
        assert_eq!((s.completed, s.failed), (5, 3));
        let t1 = s.tenant(TenantId(1)).unwrap();
        assert_eq!((t1.submitted, t1.rejected, t1.shed), (3, 1, 2));
    }
}
