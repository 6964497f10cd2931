//! The serving runtime: tenancy-aware weighted-fair admission,
//! per-request deadlines, a priority brownout ladder, retry/re-route of
//! faulted executions, and the array-health state machine with
//! golden-probe re-admission.
//!
//! Concurrency shape: one `Mutex<Inner>` holds the scheduler, tenant
//! table, health states and the serving ledger; three condvars signal
//! workers (`work_cv`), blocked submitters (`space_cv`) and drainers
//! (`idle_cv`). Each array is one OS worker thread owning its
//! [`ArrayBackend`]; executions and probes run outside the lock.
//!
//! Scheduling shape: three strict priority classes (`Critical` >
//! `Standard` > `Bulk`), each a deficit-weighted round robin across
//! tenant FIFOs. Retries live in a separate queue scanned first — they
//! were already admitted, charged, and partially served, so finishing
//! them frees capacity fastest. The brownout ladder watches queue depth
//! and queue-wait EWMA: tier 1 flips nonlinear epilogues to the fast
//! kernels, tier 2 additionally sheds `Bulk` work; escalation is
//! immediate, de-escalation waits out a dwell (hysteresis).
//!
//! Accounting shape: each request is booked once, in the [`Tally`] of
//! its (tenant, priority) cell. The fleet, per-tenant and per-priority
//! figures of [`Server::stats`] are sums of cells, so they agree with
//! one another by construction.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfp_arith::cancel::CancelToken;
use bfp_arith::error::ArithError;
use bfp_arith::matrix::MatF32;
use bfp_arith::quant::Quantizer;
use bfp_arith::{AddVariant, HwFp32Add, HwFp32Mul, MulVariant};
use bfp_core::prelude::NonlinearMode;
use bfp_faults::FleetLedger;
use bfp_platform::System;
use bfp_telemetry::recorder::{FlightAttempt, FlightDump, FlightRecord, TriggerReason};
use bfp_telemetry::{ShadowSample, Tracer};

use crate::backend::{ArrayBackend, ArrayFaultPlan, ServeOp, SimArrayBackend, Telemetry};
use crate::config::{Backpressure, ServeConfig, TenantQuota};
use crate::error::ServeError;
use crate::observatory::Observatory;
use crate::serving::{
    ArrayHealth, ArrayServeStats, BrownoutStats, HealthEvent, Priority, PriorityServeStats,
    ServeStats, TenantId, TenantServeStats,
};
use crate::ticket::{AttemptRecord, RequestTimeline, ServeResponse, Ticket, TicketInner};

/// Executions that calibrate the service estimate before the
/// early-deadline admission gate activates.
const SVC_CALIBRATION_MIN: u64 = 16;
/// EWMA smoothing for the service estimate and queue-wait signals.
const EWMA_ALPHA: f64 = 0.2;

/// One request. The deadline budget (if any) starts counting when
/// `submit` is entered — time spent blocked at the admission gate
/// burns it.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Left operand.
    pub a: MatF32,
    /// Right operand.
    pub b: MatF32,
    /// Per-request deadline budget; `None` uses the config default.
    pub budget: Option<Duration>,
    /// Tenant the request is charged to (quota, weight, breaker).
    pub tenant: TenantId,
    /// Priority class (scheduling strictness and shed eligibility).
    pub priority: Priority,
    /// What to compute.
    pub op: ServeOp,
}

impl ServeRequest {
    /// A request with the config-default deadline, tenant 0,
    /// `Standard` priority, and the bare GEMM op.
    pub fn new(a: MatF32, b: MatF32) -> Self {
        ServeRequest {
            a,
            b,
            budget: None,
            tenant: TenantId::default(),
            priority: Priority::default(),
            op: ServeOp::default(),
        }
    }

    /// A request with an explicit deadline budget.
    pub fn with_budget(a: MatF32, b: MatF32, budget: Duration) -> Self {
        ServeRequest {
            budget: Some(budget),
            ..ServeRequest::new(a, b)
        }
    }

    /// Builder: charge the request to `tenant`.
    pub fn for_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Builder: run at `priority`.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: compute `op`.
    pub fn with_op(mut self, op: ServeOp) -> Self {
        self.op = op;
        self
    }

    /// Builder: replace the deadline budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

struct Job {
    id: u64,
    a: MatF32,
    b: MatF32,
    op: ServeOp,
    tenant: TenantId,
    priority: Priority,
    deadline: Option<Instant>,
    cancel: CancelToken,
    submitted_at: Instant,
    first_dispatch: Option<Instant>,
    attempts: u32,
    attempt_log: Vec<AttemptRecord>,
    not_before: Instant,
    /// Most recent shadow-lane sample for this request (fast-mode
    /// completions re-run through the exact oracle by the observatory).
    shadow: Option<ShadowSample>,
    /// Until this instant a retry prefers a *different* array than the
    /// one that faulted on it; after it, any serving array (including
    /// the faulting one) may run it — so a fleet of one, or a fleet
    /// with every other array quarantined, never starves a retry.
    avoid_until: Instant,
    last_array: Option<usize>,
    ticket: Arc<TicketInner>,
}

struct ArrayState {
    health: ArrayHealth,
    strikes: u32,
    clean_run: u32,
    probe_due: Instant,
    probe_backoff: Duration,
    probe_streak: u32,
    stats: ArrayServeStats,
}

impl ArrayState {
    fn new(now: Instant) -> Self {
        ArrayState {
            health: ArrayHealth::Healthy,
            strikes: 0,
            clean_run: 0,
            probe_due: now,
            probe_backoff: Duration::ZERO,
            probe_streak: 0,
            stats: ArrayServeStats::new(),
        }
    }
}

/// One priority class's deficit-weighted round robin across tenant
/// FIFOs. The cursor rests on one tenant with a credit of its weight;
/// each pop spends one credit, and an exhausted credit (or drained
/// queue) moves the cursor to the next tenant in id order, wrapping.
/// Over a full rotation every backlogged tenant is served in
/// proportion to its weight.
#[derive(Default)]
struct ClassSched {
    queues: BTreeMap<u64, VecDeque<Job>>,
    cursor: Option<u64>,
    credit: u32,
}

impl ClassSched {
    fn push(&mut self, job: Job) {
        self.queues.entry(job.tenant.0).or_default().push_back(job);
    }

    fn len(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    fn next_tenant_after(&self, t: Option<u64>) -> Option<u64> {
        let first = self.queues.keys().next().copied();
        match t {
            Some(t) => self
                .queues
                .range((Bound::Excluded(t), Bound::Unbounded))
                .next()
                .map(|(k, _)| *k)
                .or(first),
            None => first,
        }
    }

    fn pop(&mut self, weight_of: impl Fn(u64) -> u32) -> Option<Job> {
        let cur = match self.cursor {
            Some(t) if self.credit > 0 && self.queues.contains_key(&t) => t,
            prev => {
                let t = self.next_tenant_after(prev)?;
                self.cursor = Some(t);
                self.credit = weight_of(t).max(1);
                t
            }
        };
        self.credit -= 1;
        let q = self.queues.get_mut(&cur).expect("cursor tenant queued");
        let job = q.pop_front().expect("cursor queue non-empty");
        if q.is_empty() {
            self.queues.remove(&cur);
            self.credit = 0;
        }
        Some(job)
    }

    /// Pop the oldest queued job in this class (shed victim selection).
    fn pop_oldest(&mut self) -> Option<Job> {
        let (&t, _) = self
            .queues
            .iter()
            .min_by_key(|(_, q)| q.front().map(|j| j.submitted_at))?;
        let q = self.queues.get_mut(&t).unwrap();
        let job = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&t);
        }
        Some(job)
    }
}

enum Breaker {
    Closed,
    Open { until: Instant },
    HalfOpen { probes_left: u32 },
}

/// The serving ledger of one (tenant, priority) cell: every request is
/// booked here and nowhere else, from submission to its outcome.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    submitted: u64,
    admitted: u64,
    /// Refusals at admission, for any reason; the four counts after it
    /// break out the typed ones.
    rejected: u64,
    quota_rejected: u64,
    breaker_rejected: u64,
    deadline_rejected: u64,
    brownout_rejected: u64,
    /// Admitted requests that expired, plus refusals whose budget ran out
    /// while blocked at the gate.
    deadline_missed: u64,
    completed: u64,
    failed: u64,
    /// Admitted requests evicted from the queue; a subset of `failed`.
    shed: u64,
    in_flight: usize,
}

impl<'a> std::iter::Sum<&'a Tally> for Tally {
    fn sum<I: Iterator<Item = &'a Tally>>(cells: I) -> Tally {
        cells.fold(Tally::default(), |acc, c| Tally {
            submitted: acc.submitted + c.submitted,
            admitted: acc.admitted + c.admitted,
            rejected: acc.rejected + c.rejected,
            quota_rejected: acc.quota_rejected + c.quota_rejected,
            breaker_rejected: acc.breaker_rejected + c.breaker_rejected,
            deadline_rejected: acc.deadline_rejected + c.deadline_rejected,
            brownout_rejected: acc.brownout_rejected + c.brownout_rejected,
            deadline_missed: acc.deadline_missed + c.deadline_missed,
            completed: acc.completed + c.completed,
            failed: acc.failed + c.failed,
            shed: acc.shed + c.shed,
            in_flight: acc.in_flight + c.in_flight,
        })
    }
}

struct TenantState {
    quota: TenantQuota,
    tokens: f64,
    last_refill: Instant,
    breaker: Breaker,
    consec_bad: u32,
    /// This tenant's ledger cells, indexed by [`Priority::index`].
    cells: [Tally; 3],
}

impl TenantState {
    fn new(quota: TenantQuota, now: Instant) -> Self {
        TenantState {
            quota,
            tokens: quota.burst.max(1.0),
            last_refill: now,
            breaker: Breaker::Closed,
            consec_bad: 0,
            cells: [Tally::default(); 3],
        }
    }

    /// Refill the token bucket and try to take one token. `true` when
    /// the request is within quota (always, for unlimited tenants).
    fn take_token(&mut self, now: Instant) -> bool {
        if self.quota.rate_rps <= 0.0 {
            return true;
        }
        let dt = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.quota.rate_rps).min(self.quota.burst.max(1.0));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn refusing(&self, now: Instant) -> bool {
        match self.breaker {
            Breaker::Open { until } => now < until,
            Breaker::HalfOpen { probes_left } => probes_left == 0,
            Breaker::Closed => false,
        }
    }
}

#[derive(Default)]
struct BrownoutState {
    tier: u8,
    since: Option<Instant>,
    max_tier: u8,
    transitions: u64,
    sheds: u64,
}

struct Inner {
    classes: [ClassSched; 3],
    retryq: VecDeque<Job>,
    shutdown: bool,
    next_id: u64,
    seq: u64,
    /// Executions requeued after a detected fault.
    retries: u64,
    queue_depth_high_water: usize,
    arrays: Vec<ArrayState>,
    ledger: FleetLedger,
    tenants: BTreeMap<u64, TenantState>,
    brownout: BrownoutState,
    /// EWMA of first-dispatch queue wait, seconds (pressure signal).
    wait_ewma_s: f64,
    /// EWMA of clean execution wall time, seconds (service estimate).
    svc_ewma_s: f64,
    svc_samples: u64,
}

impl Inner {
    fn queued_len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum::<usize>() + self.retryq.len()
    }

    fn in_flight(&self) -> usize {
        self.tenants
            .values()
            .flat_map(|ts| &ts.cells)
            .map(|c| c.in_flight)
            .sum()
    }

    /// The ledger cell of `(tenant, priority)`. `submit` enters a tenant
    /// into the table before it books anything against it.
    fn cell(&mut self, tenant: TenantId, priority: Priority) -> &mut Tally {
        let ts = self.tenants.get_mut(&tenant.0).expect("tenant entered");
        &mut ts.cells[priority.index()]
    }
}

struct Shared {
    m: Mutex<Inner>,
    work_cv: Condvar,
    space_cv: Condvar,
    idle_cv: Condvar,
    cfg: ServeConfig,
    golden: Golden,
    /// Optional span tracer ([`Server::attach_tracer`]); absent, every
    /// emission site is a branch on an unset `OnceLock` and nothing else.
    tracer: OnceLock<Tracer>,
    /// The serve-time observatory: flight recorder, burn-rate trackers,
    /// and the shadow-execution lane.
    obs: Observatory,
}

/// The attached tracer, if any.
fn tr(shared: &Shared) -> Option<&Tracer> {
    shared.tracer.get()
}

/// The golden self-test GEMM: small integer matrices on which bfp8 is
/// exact, with the expected bits cross-checked at startup against a
/// scalar softfp reference ([`HwFp32Mul`]/[`HwFp32Add`] exact variants).
struct Golden {
    a: MatF32,
    b: MatF32,
    expected: MatF32,
}

impl Golden {
    fn build() -> Self {
        let a = MatF32::from_fn(16, 16, |i, j| ((i * 7 + j * 5) % 3) as f32 - 1.0);
        let b = MatF32::from_fn(16, 16, |i, j| ((i * 3 + j * 11) % 3) as f32 - 1.0);
        let q = Quantizer::paper();
        let expected = q
            .quantize(&a)
            .expect("golden operand quantizes")
            .try_matmul(&q.quantize(&b).expect("golden operand quantizes"))
            .expect("golden GEMM executes");
        // Cross-check: on these integer inputs bfp8 must agree bit-for-
        // bit with the scalar softfp reference, so a probe pass really
        // certifies exact arithmetic, not just self-consistency.
        let mul = HwFp32Mul::new(MulVariant::Exact);
        let add = HwFp32Add::new(AddVariant::Exact48);
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc = add.add(acc, mul.mul(a.get(i, k), b.get(k, j)));
                }
                assert_eq!(
                    acc.to_bits(),
                    expected.get(i, j).to_bits(),
                    "golden GEMM must be bfp8-exact at ({i},{j})"
                );
            }
        }
        Golden { a, b, expected }
    }
}

/// The serving runtime. See the crate docs for the full lifecycle; in
/// short: [`Server::submit`] → [`Ticket::wait`], [`Server::drain`] for
/// graceful quiesce, [`Server::stats`] for the observability snapshot.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a runtime over caller-supplied backends (one per array;
    /// `cfg.arrays` is overridden by `backends.len()`).
    ///
    /// # Panics
    /// Panics if `backends` is empty.
    pub fn new(mut cfg: ServeConfig, backends: Vec<Box<dyn ArrayBackend>>) -> Self {
        assert!(!backends.is_empty(), "a fleet needs at least one array");
        cfg.arrays = backends.len();
        let now = Instant::now();
        let arrays = backends.len();
        let shared = Arc::new(Shared {
            m: Mutex::new(Inner {
                classes: [
                    ClassSched::default(),
                    ClassSched::default(),
                    ClassSched::default(),
                ],
                retryq: VecDeque::new(),
                shutdown: false,
                next_id: 0,
                seq: 0,
                retries: 0,
                queue_depth_high_water: 0,
                arrays: (0..arrays).map(|_| ArrayState::new(now)).collect(),
                ledger: FleetLedger::new(arrays),
                tenants: BTreeMap::new(),
                brownout: BrownoutState::default(),
                wait_ewma_s: 0.0,
                svc_ewma_s: 0.0,
                svc_samples: 0,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            obs: Observatory::new(cfg.observatory.clone(), now),
            cfg,
            golden: Golden::build(),
            tracer: OnceLock::new(),
        });
        let workers = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("bfp-serve-{i}"))
                    .spawn(move || worker_loop(shared, i, backend))
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A fleet of [`SimArrayBackend`]s at the paper's calibrated
    /// operating point, its measured card throughput split evenly across
    /// `plans.len()` arrays.
    ///
    /// # Panics
    /// Panics if `plans` is empty.
    pub fn simulated(cfg: ServeConfig, plans: Vec<ArrayFaultPlan>) -> Self {
        let sys = System::paper();
        let per_array_gops = sys.measured_bfp_gops(64) / sys.cfg.total_arrays().max(1) as f64;
        let backends: Vec<Box<dyn ArrayBackend>> = plans
            .into_iter()
            .map(|p| Box::new(SimArrayBackend::new(per_array_gops, p)) as Box<dyn ArrayBackend>)
            .collect();
        Server::new(cfg, backends)
    }

    /// Attach a span [`Tracer`]: per-request lifecycle events (queue
    /// wait, executions, retries, faults, deadline misses, admission
    /// refusals, brownout transitions) are recorded into it from here
    /// on. One tracer per server lifetime; returns `false` if one was
    /// already attached.
    pub fn attach_tracer(&self, tracer: Tracer) -> bool {
        self.shared.tracer.set(tracer).is_ok()
    }

    /// Offer a request. `Ok(Ticket)` means admitted; the typed errors
    /// are the admission-time refusals, applied in order: shutdown,
    /// circuit breaker, quota, brownout (tier 2 refuses `Bulk`),
    /// early-deadline gate, then queue capacity under the configured
    /// [`Backpressure`].
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let cfg = &self.shared.cfg;
        let t_submit = Instant::now();
        let budget = req.budget.or(cfg.default_budget);
        let deadline = budget.map(|b| t_submit + b);
        let tenant = req.tenant;
        let priority = req.priority;
        let refuse = |inner: &mut Inner, err, counts_as_bad| {
            self.refuse(inner, tenant, priority, err, counts_as_bad)
        };

        let mut inner = self.shared.m.lock().unwrap();
        let quota = cfg.quota_for(tenant);
        let ts = inner
            .tenants
            .entry(tenant.0)
            .or_insert_with(|| TenantState::new(quota, t_submit));
        ts.cells[priority.index()].submitted += 1;
        if inner.shutdown {
            return Err(refuse(&mut inner, ServeError::Shutdown, false));
        }

        // Circuit breaker: open refuses outright; an elapsed cooldown
        // moves to half-open, where a limited number of probe
        // admissions decide whether to close or re-open.
        if cfg.breaker.trip_after > 0 {
            let ts = inner.tenants.get_mut(&tenant.0).unwrap();
            if let Breaker::Open { until } = ts.breaker {
                if t_submit >= until {
                    ts.breaker = Breaker::HalfOpen {
                        probes_left: cfg.breaker.half_open_probes.max(1),
                    };
                }
            }
            if ts.refusing(t_submit) {
                return Err(refuse(&mut inner, ServeError::CircuitOpen, false));
            }
            if let Breaker::HalfOpen {
                ref mut probes_left,
            } = ts.breaker
            {
                *probes_left -= 1;
            }
        }

        // Token-bucket quota.
        if !inner
            .tenants
            .get_mut(&tenant.0)
            .unwrap()
            .take_token(t_submit)
        {
            return Err(refuse(&mut inner, ServeError::QuotaExceeded, true));
        }

        // Brownout tier 2 refuses Bulk work at the door.
        update_brownout(&mut inner, &self.shared, t_submit);
        if inner.brownout.tier >= 2 && priority == Priority::Bulk {
            return Err(refuse(&mut inner, ServeError::Brownout, true));
        }

        // Early-deadline gate: once calibrated, a budget below the
        // service estimate can only produce a deadline miss — refuse it
        // now instead of queueing doomed work.
        if cfg.deadline_gate && inner.svc_samples >= SVC_CALIBRATION_MIN {
            if let Some(b) = budget {
                if b.as_secs_f64() < inner.svc_ewma_s {
                    return Err(refuse(&mut inner, ServeError::DeadlineUnmeetable, true));
                }
            }
        }

        if inner.queued_len() >= cfg.queue_capacity {
            match cfg.backpressure {
                Backpressure::Reject => {
                    return Err(refuse(&mut inner, ServeError::QueueFull, true));
                }
                Backpressure::ShedOldest => {
                    // Shed from the lowest non-Critical class at or
                    // below the incoming priority; Critical is never a
                    // victim. No eligible victim → refuse the newcomer.
                    let ceiling = priority.index().min(Priority::Standard.index());
                    let victim = (0..=ceiling).find_map(|c| inner.classes[c].pop_oldest());
                    match victim {
                        Some(victim) => {
                            victim.cancel.cancel();
                            if let Some(t) = tr(&self.shared) {
                                t.instant_with("serve.shed", "serve", vec![("req", victim.id)]);
                            }
                            resolve(&mut inner, &self.shared, &victim, Err(ServeError::Shed));
                        }
                        None => {
                            return Err(refuse(&mut inner, ServeError::QueueFull, true));
                        }
                    }
                }
                Backpressure::Block { timeout } => {
                    // The wait is capped by the request's own remaining
                    // deadline: burning the whole budget at the gate is
                    // a deadline miss, not an admission timeout.
                    let timeout_gate = t_submit + timeout;
                    let gate = match deadline {
                        Some(d) => timeout_gate.min(d),
                        None => timeout_gate,
                    };
                    while inner.queued_len() >= cfg.queue_capacity && !inner.shutdown {
                        let now = Instant::now();
                        if now >= gate {
                            let (err, is_reason) = if deadline.is_some_and(|d| gate == d) {
                                (ServeError::DeadlineExceeded, true)
                            } else {
                                (ServeError::AdmissionTimeout, true)
                            };
                            return Err(refuse(&mut inner, err, is_reason));
                        }
                        let (guard, _) = self
                            .shared
                            .space_cv
                            .wait_timeout(inner, gate - now)
                            .unwrap();
                        inner = guard;
                    }
                    if inner.shutdown {
                        return Err(refuse(&mut inner, ServeError::Shutdown, false));
                    }
                }
            }
        }

        let now = Instant::now();
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let id = inner.next_id;
        inner.next_id += 1;
        let ticket_inner = TicketInner::new();
        let job = Job {
            id,
            a: req.a,
            b: req.b,
            op: req.op,
            tenant,
            priority,
            deadline,
            cancel,
            submitted_at: now,
            first_dispatch: None,
            attempts: 0,
            attempt_log: Vec::new(),
            not_before: now,
            shadow: None,
            avoid_until: now,
            last_array: None,
            ticket: ticket_inner.clone(),
        };
        inner.cell(tenant, priority).admitted += 1;
        inner.classes[priority.index()].push(job);
        let depth = inner.queued_len();
        inner.queue_depth_high_water = inner.queue_depth_high_water.max(depth);
        if let Some(t) = tr(&self.shared) {
            t.counter("serve.queue_depth", "serve", depth as f64);
        }
        drop(inner);
        self.shared.work_cv.notify_all();
        Ok(Ticket::new(id, ticket_inner))
    }

    /// Book an admission refusal in the request's ledger cell, with its
    /// typed reason count, feed the breaker's consecutive-bad count
    /// (skipped for refusals that are not the tenant's doing), and emit
    /// the trace instant. Returns the error for the caller to propagate.
    fn refuse(
        &self,
        inner: &mut Inner,
        tenant: TenantId,
        priority: Priority,
        err: ServeError,
        counts_as_bad: bool,
    ) -> ServeError {
        let cell = inner.cell(tenant, priority);
        cell.rejected += 1;
        match err {
            ServeError::QuotaExceeded => cell.quota_rejected += 1,
            ServeError::CircuitOpen => cell.breaker_rejected += 1,
            ServeError::DeadlineUnmeetable => cell.deadline_rejected += 1,
            ServeError::Brownout => cell.brownout_rejected += 1,
            ServeError::DeadlineExceeded => cell.deadline_missed += 1,
            _ => {}
        }
        if counts_as_bad {
            breaker_note_bad(inner, &self.shared, tenant);
        }
        if let Some(t) = tr(&self.shared) {
            t.instant_with("serve.reject", "serve", vec![("tenant", tenant.0)]);
        }
        err
    }

    /// Block until every admitted request has resolved (the scheduler
    /// is empty and no execution is in flight). New submissions during
    /// the wait extend it.
    pub fn drain(&self) {
        let mut inner = self.shared.m.lock().unwrap();
        while !(inner.queued_len() == 0 && inner.in_flight() == 0) {
            inner = self.shared.idle_cv.wait(inner).unwrap();
        }
    }

    /// Stop accepting work, fail everything still queued with
    /// [`ServeError::Shutdown`], let in-flight executions finish, and
    /// join the workers. Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut inner = self.shared.m.lock().unwrap();
            if inner.shutdown && self.workers.is_empty() {
                return;
            }
            inner.shutdown = true;
            let victims = take_all_queued(&mut inner);
            for job in victims {
                job.cancel.cancel();
                resolve(&mut inner, &self.shared, &job, Err(ServeError::Shutdown));
            }
            if inner.in_flight() == 0 {
                self.shared.idle_cv.notify_all();
            }
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Snapshot of the runtime counters, per-tenant and per-priority
    /// rollups, brownout state, and per-array health — taken under one
    /// lock acquisition so the accounting identity
    /// `admitted == completed + failed + queued + in_flight` holds in
    /// every snapshot (fleet-wide, per tenant, and per priority), not
    /// just at quiescence. Every rollup is a sum of the same ledger
    /// cells, so the fleet figures equal the per-tenant sums and the
    /// per-priority sums.
    pub fn stats(&self) -> ServeStats {
        let now = Instant::now();
        let inner = self.shared.m.lock().unwrap();

        // Queued rollups are derived from the scheduler itself — the
        // ground truth — rather than shadow counters.
        let mut tenant_queued: BTreeMap<u64, usize> = BTreeMap::new();
        let mut prio_queued = [0usize; 3];
        for (ci, cls) in inner.classes.iter().enumerate() {
            for (t, q) in &cls.queues {
                *tenant_queued.entry(*t).or_default() += q.len();
                prio_queued[ci] += q.len();
            }
        }
        for job in &inner.retryq {
            *tenant_queued.entry(job.tenant.0).or_default() += 1;
            prio_queued[job.priority.index()] += 1;
        }

        let per_tenant = inner
            .tenants
            .iter()
            .map(|(&id, ts)| {
                let t: Tally = ts.cells.iter().sum();
                TenantServeStats {
                    tenant: TenantId(id),
                    weight: ts.quota.weight.max(1),
                    submitted: t.submitted,
                    admitted: t.admitted,
                    rejected: t.rejected,
                    quota_rejected: t.quota_rejected,
                    breaker_rejected: t.breaker_rejected,
                    completed: t.completed,
                    failed: t.failed,
                    shed: t.shed,
                    queued: tenant_queued.get(&id).copied().unwrap_or(0),
                    in_flight: t.in_flight,
                    breaker_open: ts.refusing(now),
                }
            })
            .collect();
        let per_priority = std::array::from_fn(|i| {
            let c: Tally = inner.tenants.values().map(|ts| &ts.cells[i]).sum();
            PriorityServeStats {
                admitted: c.admitted,
                completed: c.completed,
                failed: c.failed,
                shed: c.shed,
                queued: prio_queued[i],
                in_flight: c.in_flight,
            }
        });
        let fleet: Tally = inner.tenants.values().flat_map(|ts| &ts.cells).sum();

        ServeStats {
            submitted: fleet.submitted,
            admitted: fleet.admitted,
            rejected: fleet.rejected,
            shed: fleet.shed,
            completed: fleet.completed,
            failed: fleet.failed,
            deadline_missed: fleet.deadline_missed,
            retries: inner.retries,
            degraded_executions: inner
                .arrays
                .iter()
                .map(|a| a.stats.faulted_executions)
                .sum(),
            queue_depth_high_water: inner.queue_depth_high_water,
            quota_rejected: fleet.quota_rejected,
            breaker_rejected: fleet.breaker_rejected,
            deadline_rejected: fleet.deadline_rejected,
            brownout_rejected: fleet.brownout_rejected,
            queued: inner.queued_len(),
            in_flight: fleet.in_flight,
            brownout: BrownoutStats {
                tier: inner.brownout.tier,
                max_tier: inner.brownout.max_tier,
                transitions: inner.brownout.transitions,
                sheds: inner.brownout.sheds,
            },
            per_tenant,
            per_priority,
            per_array: inner
                .arrays
                .iter()
                .enumerate()
                .map(|(i, a)| ArrayServeStats {
                    health: a.health,
                    faults: *inner.ledger.total(i),
                    ..a.stats.clone()
                })
                .collect(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// The serve-time observatory (burn trackers, shadow lane, flight
    /// recorder).
    pub fn observatory(&self) -> &Observatory {
        &self.shared.obs
    }

    /// Drain the flight-recorder dumps triggered so far (burn-rate over
    /// budget, envelope violations, brownout escalations). Each dump
    /// renders as JSON (`flight_recorder/v1`) and as a Perfetto-loadable
    /// Chrome trace.
    pub fn take_flight_dumps(&self) -> Vec<FlightDump> {
        self.shared.obs.take_dumps()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fill a ticket and book the outcome into the request's ledger cell,
/// feeding the tenant's circuit breaker. No-op on a ticket that already
/// resolved (e.g. shed racing completion).
fn resolve(
    inner: &mut Inner,
    shared: &Shared,
    job: &Job,
    result: Result<ServeResponse, ServeError>,
) {
    let failure = match &result {
        Ok(_) => None,
        Err(e) => Some(e.clone()),
    };
    if !job.ticket.resolve(result) {
        return;
    }
    observe_resolution(shared, job, &failure);
    let ts = inner
        .tenants
        .get_mut(&job.tenant.0)
        .expect("tenant entered");
    let cell = &mut ts.cells[job.priority.index()];
    match failure {
        None => {
            cell.completed += 1;
            ts.consec_bad = 0;
            if matches!(ts.breaker, Breaker::HalfOpen { .. }) {
                ts.breaker = Breaker::Closed;
            }
        }
        Some(e) => {
            cell.failed += 1;
            match e {
                ServeError::DeadlineExceeded => {
                    cell.deadline_missed += 1;
                    breaker_note_bad(inner, shared, job.tenant);
                }
                ServeError::Shed => cell.shed += 1,
                ServeError::FaultsExhausted { .. } => breaker_note_bad(inner, shared, job.tenant),
                _ => {}
            }
        }
    }
}

/// Feed a resolved request into the observatory: one flight-recorder
/// ring push plus its stream's SLO burn-rate update. Deadline misses,
/// sheds, and fault exhaustion all consume error budget — shutdown
/// doesn't (the operator chose it, the stream didn't fail). No-op when
/// the observatory is disabled.
fn observe_resolution(shared: &Shared, job: &Job, failure: &Option<ServeError>) {
    if !shared.obs.enabled() {
        return;
    }
    let missed = matches!(failure, Some(ServeError::DeadlineExceeded));
    let bad = matches!(failure, Some(e) if !matches!(e, ServeError::Shutdown));
    let outcome = match failure {
        None => "ok",
        Some(ServeError::DeadlineExceeded) => "deadline_miss",
        Some(ServeError::Shed) => "shed",
        Some(ServeError::FaultsExhausted { .. }) => "faults_exhausted",
        Some(ServeError::Shutdown) => "shutdown",
        Some(_) => "error",
    };
    let record = FlightRecord {
        id: job.id,
        tenant: job.tenant.0 as usize,
        priority: job.priority.as_str().to_string(),
        start_s: shared.obs.rel_s(job.submitted_at),
        queue_wait_s: job
            .first_dispatch
            .map_or(0.0, |d| (d - job.submitted_at).as_secs_f64()),
        total_s: job.submitted_at.elapsed().as_secs_f64(),
        deadline_missed: missed,
        outcome: outcome.to_string(),
        attempts: job
            .attempt_log
            .iter()
            .map(|a| FlightAttempt {
                array: a.array,
                modelled_s: a.modelled_s,
                faulted: a.faulted,
                mode: mode_str(a.mode).to_string(),
            })
            .collect(),
        shadow: job.shadow.clone(),
    };
    shared.obs.record_completion(record, bad);
}

/// Stable lowercase label for a nonlinear mode.
fn mode_str(mode: NonlinearMode) -> &'static str {
    match mode {
        NonlinearMode::Exact => "exact",
        NonlinearMode::Fast => "fast",
    }
}

/// Feed one bad outcome (rejection or failure) into a tenant's breaker.
fn breaker_note_bad(inner: &mut Inner, shared: &Shared, tenant: TenantId) {
    let policy = &shared.cfg.breaker;
    if policy.trip_after == 0 {
        return;
    }
    let Some(ts) = inner.tenants.get_mut(&tenant.0) else {
        return;
    };
    ts.consec_bad = ts.consec_bad.saturating_add(1);
    let trip = match ts.breaker {
        Breaker::Closed => ts.consec_bad >= policy.trip_after,
        // A failed half-open probe re-opens immediately.
        Breaker::HalfOpen { .. } => true,
        Breaker::Open { .. } => false,
    };
    if trip {
        ts.breaker = Breaker::Open {
            until: Instant::now() + policy.cooldown,
        };
        ts.consec_bad = 0;
    }
}

/// Re-evaluate the brownout ladder from the pressure signals. Escalates
/// immediately; de-escalates one decision at a time only after
/// `min_dwell` at the current tier. Entering tier 2 sheds queued `Bulk`
/// work on the spot.
fn update_brownout(inner: &mut Inner, shared: &Shared, now: Instant) {
    let policy = &shared.cfg.brownout;
    let cap = shared.cfg.queue_capacity.max(1) as f64;
    let depth_pressure = inner.queued_len() as f64 / cap;
    let latency_target = policy.latency_target.as_secs_f64();
    let wait_pressure = if latency_target > 0.0 {
        inner.wait_ewma_s / latency_target
    } else {
        0.0
    };
    let pressure = depth_pressure.max(wait_pressure);
    let target: u8 = if pressure >= policy.tier2_pressure {
        2
    } else if pressure >= policy.tier1_pressure {
        1
    } else {
        0
    };
    let tier = inner.brownout.tier;
    let next = if target > tier {
        target
    } else if target < tier {
        // Hysteresis: hold the tier until it has dwelt long enough.
        let dwelt = inner
            .brownout
            .since
            .is_none_or(|s| now.saturating_duration_since(s) >= policy.min_dwell);
        if dwelt {
            target
        } else {
            tier
        }
    } else {
        tier
    };
    if next == tier {
        return;
    }
    inner.brownout.tier = next;
    inner.brownout.since = Some(now);
    inner.brownout.transitions += 1;
    inner.brownout.max_tier = inner.brownout.max_tier.max(next);
    if next > tier {
        shared.obs.trigger(
            TriggerReason::BrownoutEscalation,
            format!("tier {tier} -> {next} (pressure {:.0}%)", pressure * 100.0),
        );
    }
    if let Some(t) = tr(shared) {
        t.instant_with(
            "serve.brownout",
            "serve",
            vec![
                ("from", tier as u64),
                ("to", next as u64),
                ("pressure_pct", (pressure * 100.0) as u64),
            ],
        );
        t.counter("serve.brownout_tier", "serve", next as f64);
    }
    if next >= 2 && tier < 2 {
        shed_bulk(inner, shared);
    }
}

/// Shed every queued `Bulk` request (tier-2 brownout entry).
fn shed_bulk(inner: &mut Inner, shared: &Shared) {
    let bulk = Priority::Bulk.index();
    let mut victims: Vec<Job> = Vec::new();
    let queues = std::mem::take(&mut inner.classes[bulk].queues);
    for (_, mut q) in queues {
        victims.extend(q.drain(..));
    }
    inner.classes[bulk].cursor = None;
    inner.classes[bulk].credit = 0;
    let mut i = 0;
    while i < inner.retryq.len() {
        if inner.retryq[i].priority == Priority::Bulk {
            victims.push(inner.retryq.remove(i).unwrap());
        } else {
            i += 1;
        }
    }
    for job in victims {
        job.cancel.cancel();
        inner.brownout.sheds += 1;
        if let Some(t) = tr(shared) {
            t.instant_with(
                "serve.shed",
                "serve",
                vec![("req", job.id), ("brownout", 1)],
            );
        }
        resolve(inner, shared, &job, Err(ServeError::Shed));
        shared.space_cv.notify_one();
    }
}

/// Record a health transition.
fn transition(inner: &mut Inner, array: usize, to: ArrayHealth) {
    let from = inner.arrays[array].health;
    if from == to {
        return;
    }
    let seq = inner.seq;
    inner.seq += 1;
    let st = &mut inner.arrays[array];
    st.health = to;
    st.stats.history.push(HealthEvent { seq, from, to });
}

/// Apply one user-execution outcome to the strike machine.
fn note_execution(inner: &mut Inner, array: usize, faulted: bool, shared: &Shared) {
    let policy = &shared.cfg.health;
    let st = &mut inner.arrays[array];
    if faulted {
        st.strikes = st.strikes.saturating_add(1);
        st.clean_run = 0;
        st.stats.faulted_executions += 1;
    } else {
        st.clean_run += 1;
        if st.clean_run >= policy.clean_streak && st.strikes > 0 {
            st.strikes -= 1;
            st.clean_run = 0;
        }
    }
    let strikes = inner.arrays[array].strikes;
    let target = if strikes >= policy.quarantine_strikes {
        ArrayHealth::Quarantined
    } else if strikes >= policy.degrade_strikes {
        ArrayHealth::Degraded
    } else {
        ArrayHealth::Healthy
    };
    let current = inner.arrays[array].health;
    if target == ArrayHealth::Quarantined && current != ArrayHealth::Quarantined {
        transition(inner, array, ArrayHealth::Quarantined);
        let st = &mut inner.arrays[array];
        st.probe_backoff = policy.probe_interval;
        st.probe_due = Instant::now() + policy.probe_interval;
        st.probe_streak = 0;
    } else if target != ArrayHealth::Quarantined && current.serves() && target != current {
        transition(inner, array, target);
    }
}

/// Pull every queued job (all classes + retries) out of the scheduler.
fn take_all_queued(inner: &mut Inner) -> Vec<Job> {
    let mut out = Vec::new();
    for cls in inner.classes.iter_mut() {
        let queues = std::mem::take(&mut cls.queues);
        for (_, mut q) in queues {
            out.extend(q.drain(..));
        }
        cls.cursor = None;
        cls.credit = 0;
    }
    out.extend(inner.retryq.drain(..));
    out
}

/// Resolve every queued job whose deadline has already passed. Runs on
/// each worker wake-up so expired requests clear even when no array can
/// serve (e.g. the whole fleet quarantined).
fn sweep_expired(inner: &mut Inner, shared: &Shared, now: Instant) {
    let mut expired: Vec<Job> = Vec::new();
    for cls in inner.classes.iter_mut() {
        let mut drained: Vec<u64> = Vec::new();
        for (t, q) in cls.queues.iter_mut() {
            let mut i = 0;
            while i < q.len() {
                if q[i].deadline.is_some_and(|d| now >= d) {
                    expired.push(q.remove(i).unwrap());
                } else {
                    i += 1;
                }
            }
            if q.is_empty() {
                drained.push(*t);
            }
        }
        for t in drained {
            cls.queues.remove(&t);
        }
    }
    let mut i = 0;
    while i < inner.retryq.len() {
        if inner.retryq[i].deadline.is_some_and(|d| now >= d) {
            expired.push(inner.retryq.remove(i).unwrap());
        } else {
            i += 1;
        }
    }
    for job in expired {
        job.cancel.cancel();
        if let Some(t) = tr(shared) {
            t.instant_with("serve.deadline_miss", "serve", vec![("req", job.id)]);
        }
        resolve(inner, shared, &job, Err(ServeError::DeadlineExceeded));
        shared.space_cv.notify_one();
    }
    if inner.queued_len() == 0 && inner.in_flight() == 0 {
        shared.idle_cv.notify_all();
    }
}

/// Pick the next job for `array`: runnable retries first (oldest
/// admitted work; finishing it frees capacity fastest), then the
/// highest non-empty priority class under its DWRR. Returns the job or
/// the soonest instant a backoff expires.
fn pick_job(inner: &mut Inner, array: usize, now: Instant) -> Result<Job, Option<Instant>> {
    let serving = inner.arrays.iter().filter(|a| a.health.serves()).count();
    let mut soonest: Option<Instant> = None;
    let mut pick: Option<usize> = None;
    for (i, job) in inner.retryq.iter().enumerate() {
        if job.not_before > now {
            soonest = Some(soonest.map_or(job.not_before, |s| s.min(job.not_before)));
            continue;
        }
        // Prefer a different array than the one that faulted on the
        // job — but only until `avoid_until`: with one serving array
        // (or after the grace), the same array may retry it rather
        // than starving the request.
        if job.last_array == Some(array) && serving > 1 && now < job.avoid_until {
            soonest = Some(soonest.map_or(job.avoid_until, |s| s.min(job.avoid_until)));
            continue;
        }
        pick = Some(i);
        break;
    }
    if let Some(i) = pick {
        return Ok(inner.retryq.remove(i).unwrap());
    }
    let Inner {
        classes, tenants, ..
    } = inner;
    for cls in classes.iter_mut().rev() {
        let weight_of = |t: u64| {
            tenants
                .get(&t)
                .map(|ts| ts.quota.weight)
                .unwrap_or(1)
                .max(1)
        };
        if let Some(job) = cls.pop(weight_of) {
            return Ok(job);
        }
    }
    Err(soonest)
}

fn worker_loop(shared: Arc<Shared>, array: usize, mut backend: Box<dyn ArrayBackend>) {
    let mut inner = shared.m.lock().unwrap();
    loop {
        let now = Instant::now();
        sweep_expired(&mut inner, &shared, now);
        update_brownout(&mut inner, &shared, now);
        if inner.shutdown && inner.queued_len() == 0 {
            return;
        }

        match inner.arrays[array].health {
            ArrayHealth::Quarantined | ArrayHealth::Probing => {
                let due = inner.arrays[array].probe_due;
                if now < due {
                    let (guard, _) = shared.work_cv.wait_timeout(inner, due - now).unwrap();
                    inner = guard;
                    continue;
                }
                transition(&mut inner, array, ArrayHealth::Probing);
                inner.arrays[array].stats.probes_run += 1;
                drop(inner);
                let t0 = Instant::now();
                let probe = backend.execute(
                    &shared.golden.a,
                    &shared.golden.b,
                    ServeOp::Gemm,
                    NonlinearMode::Exact,
                    &CancelToken::new(),
                );
                let t1 = Instant::now();
                inner = shared.m.lock().unwrap();
                let policy = &shared.cfg.health;
                let passed = match probe {
                    Ok((out, t)) => {
                        inner.arrays[array].stats.modelled_busy_s += t.modelled_s;
                        let ledger = &mut inner.ledger;
                        ledger.record_delta(array, &t.faults);
                        t.faults.detected == 0 && out == shared.golden.expected
                    }
                    Err(_) => false,
                };
                if let Some(t) = tr(&shared) {
                    t.complete_between_with(
                        "serve.probe",
                        "serve",
                        t0,
                        t1,
                        vec![("array", array as u64), ("passed", passed as u64)],
                    );
                }
                if passed {
                    inner.arrays[array].stats.probes_passed += 1;
                    inner.arrays[array].probe_streak += 1;
                    if inner.arrays[array].probe_streak >= policy.probes_to_readmit {
                        // Re-admission forgives history: strikes and the
                        // fault ledger restart from zero.
                        let st = &mut inner.arrays[array];
                        st.strikes = 0;
                        st.clean_run = 0;
                        inner.ledger.reset(array);
                        transition(&mut inner, array, ArrayHealth::Healthy);
                        shared.work_cv.notify_all();
                    } else {
                        let st = &mut inner.arrays[array];
                        st.probe_due = Instant::now() + policy.probe_interval;
                        transition(&mut inner, array, ArrayHealth::Quarantined);
                    }
                } else {
                    let st = &mut inner.arrays[array];
                    st.probe_streak = 0;
                    st.probe_backoff = (st.probe_backoff * 2)
                        .max(policy.probe_interval)
                        .min(policy.probe_interval_cap);
                    st.probe_due = Instant::now() + st.probe_backoff;
                    transition(&mut inner, array, ArrayHealth::Quarantined);
                }
                continue;
            }
            ArrayHealth::Healthy | ArrayHealth::Degraded => {}
        }

        let mut job = match pick_job(&mut inner, array, now) {
            Ok(job) => job,
            Err(soonest) => {
                if inner.shutdown {
                    return;
                }
                let wait = soonest
                    .map(|s| s.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(20));
                let (guard, _) = shared
                    .work_cv
                    .wait_timeout(inner, wait.max(Duration::from_micros(100)))
                    .unwrap();
                inner = guard;
                continue;
            }
        };

        inner.cell(job.tenant, job.priority).in_flight += 1;
        // The dispatch tier decides the nonlinear mode of this attempt.
        let mode = if inner.brownout.tier >= 1 {
            NonlinearMode::Fast
        } else {
            NonlinearMode::Exact
        };
        shared.space_cv.notify_one();

        let dispatched = Instant::now();
        if job.first_dispatch.is_none() {
            job.first_dispatch = Some(dispatched);
            let wait_s = (dispatched - job.submitted_at).as_secs_f64();
            inner.wait_ewma_s = (1.0 - EWMA_ALPHA) * inner.wait_ewma_s + EWMA_ALPHA * wait_s;
            if let Some(t) = tr(&shared) {
                t.complete_between_with(
                    "serve.queue_wait",
                    "serve",
                    job.submitted_at,
                    dispatched,
                    vec![("req", job.id)],
                );
            }
        }
        drop(inner);
        job.attempts += 1;
        let outcome = backend.execute(&job.a, &job.b, job.op, mode, &job.cancel);
        let finished = Instant::now();
        // Shadow lane: off the lock, re-run a sampled clean fast-mode
        // output through the exact oracle and bound it by the pinned
        // fast-kernel envelope.
        let shadow = match &outcome {
            Ok((out, t))
                if t.faults.uncorrected_detections() == 0 && shared.obs.should_shadow(mode) =>
            {
                Some(shared.obs.shadow_sample(&job.a, &job.b, job.op, out))
            }
            _ => None,
        };
        if let Some(s) = &shadow {
            job.shadow = Some(s.clone());
        }
        if let Some(t) = tr(&shared) {
            t.complete_between_with(
                "serve.execute",
                "serve",
                dispatched,
                finished,
                vec![
                    ("req", job.id),
                    ("array", array as u64),
                    ("attempt", job.attempts as u64),
                    ("tenant", job.tenant.0),
                    ("tier", (mode == NonlinearMode::Fast) as u64),
                ],
            );
        }

        inner = shared.m.lock().unwrap();
        let (job_tenant, job_priority) = (job.tenant, job.priority);
        let wall_s = job.submitted_at.elapsed().as_secs_f64();
        let queue_wait_s = job
            .first_dispatch
            .map_or(0.0, |d| (d - job.submitted_at).as_secs_f64());
        match outcome {
            Ok((out, Telemetry { faults, modelled_s })) => {
                inner.arrays[array].stats.modelled_busy_s += modelled_s;
                inner.ledger.record_delta(array, &faults);
                // Two severities: any detection strikes the array's
                // health, but only *uncorrected* detections poison the
                // output — an ABFT-corrected execution is bit-exact and
                // servable.
                let flagged = faults.detected > 0;
                let faulted = faults.uncorrected_detections() > 0;
                job.attempt_log.push(AttemptRecord {
                    array,
                    modelled_s,
                    faulted,
                    mode,
                });
                if flagged {
                    if let Some(t) = tr(&shared) {
                        t.instant_with(
                            "serve.fault",
                            "serve",
                            vec![
                                ("req", job.id),
                                ("array", array as u64),
                                ("detected", faults.detected),
                                ("corrected", faults.abft_corrections),
                            ],
                        );
                    }
                }
                note_execution(&mut inner, array, flagged, &shared);
                // An envelope violation is numeric evidence against the
                // array, fed into health exactly like an ABFT detection,
                // and always worth a flight-recorder dump.
                if shadow.as_ref().is_some_and(|s| s.violation) {
                    let s = shadow.as_ref().unwrap();
                    note_execution(&mut inner, array, true, &shared);
                    if let Some(t) = tr(&shared) {
                        t.instant_with(
                            "serve.envelope_violation",
                            "serve",
                            vec![
                                ("req", job.id),
                                ("array", array as u64),
                                ("max_ulp", s.max_ulp),
                            ],
                        );
                    }
                }
                if !faulted {
                    // Clean execution: fold its wall time into the
                    // service estimate the deadline gate consults.
                    let svc_s = (finished - dispatched).as_secs_f64();
                    inner.svc_ewma_s = if inner.svc_samples == 0 {
                        svc_s
                    } else {
                        (1.0 - EWMA_ALPHA) * inner.svc_ewma_s + EWMA_ALPHA * svc_s
                    };
                    inner.svc_samples += 1;
                    inner.arrays[array].stats.completed += 1;
                    let resp = ServeResponse {
                        out,
                        array,
                        tenant: job.tenant,
                        priority: job.priority,
                        mode,
                        attempts: job.attempts,
                        modelled_s,
                        wall_s,
                        // Cloned, not taken: the observatory reads the
                        // attempt log again when `resolve` books the
                        // flight record.
                        timeline: RequestTimeline {
                            queue_wait_s,
                            attempts: job.attempt_log.clone(),
                            total_s: wall_s,
                        },
                    };
                    resolve(&mut inner, &shared, &job, Ok(resp));
                    // Trigger *after* resolve so the flight record of
                    // the offending request is already in the ring and
                    // lands in the dump.
                    if let Some(s) = shadow.as_ref().filter(|s| s.violation) {
                        shared.obs.trigger(
                            TriggerReason::EnvelopeViolation,
                            format!("req {} array {array} max_ulp {}", job.id, s.max_ulp),
                        );
                    }
                } else if job.attempts >= shared.cfg.max_attempts {
                    resolve(
                        &mut inner,
                        &shared,
                        &job,
                        Err(ServeError::FaultsExhausted {
                            attempts: job.attempts,
                        }),
                    );
                } else if inner.shutdown {
                    resolve(&mut inner, &shared, &job, Err(ServeError::Shutdown));
                } else if inner.brownout.tier >= 2 && job.priority == Priority::Bulk {
                    // Tier 2 is shedding Bulk: don't requeue a Bulk
                    // retry into a scheduler that just evicted its
                    // peers.
                    inner.brownout.sheds += 1;
                    if let Some(t) = tr(&shared) {
                        t.instant_with(
                            "serve.shed",
                            "serve",
                            vec![("req", job.id), ("brownout", 1)],
                        );
                    }
                    resolve(&mut inner, &shared, &job, Err(ServeError::Shed));
                } else {
                    // Discard the suspect output; retry later, elsewhere
                    // if possible. Requeue and notify without releasing
                    // the lock: the whole post-execution section is one
                    // critical section, so a concurrent `stats()` never
                    // sees the job double-counted as both queued and
                    // in-flight.
                    inner.retries += 1;
                    let backoff = shared.cfg.retry_backoff(job.attempts);
                    let now = Instant::now();
                    job.not_before = now + backoff;
                    // Grace window for preferring a different array: one
                    // further backoff past `not_before` (at least 1ms),
                    // after which the faulting array itself may retry.
                    job.avoid_until = job.not_before + backoff.max(Duration::from_millis(1));
                    job.last_array = Some(array);
                    inner.retryq.push_back(job);
                    shared.work_cv.notify_all();
                }
            }
            Err(ArithError::Cancelled { expired }) => {
                let err = if expired || job.deadline.is_some_and(|d| Instant::now() >= d) {
                    ServeError::DeadlineExceeded
                } else {
                    ServeError::Shutdown
                };
                if err == ServeError::DeadlineExceeded {
                    if let Some(t) = tr(&shared) {
                        t.instant_with("serve.deadline_miss", "serve", vec![("req", job.id)]);
                    }
                }
                resolve(&mut inner, &shared, &job, Err(err));
            }
            Err(_) => {
                // Guardrail errors (shape/finite) are deterministic: a
                // retry cannot help, so fail the request as exhausted.
                resolve(
                    &mut inner,
                    &shared,
                    &job,
                    Err(ServeError::FaultsExhausted {
                        attempts: job.attempts,
                    }),
                );
            }
        }
        inner.cell(job_tenant, job_priority).in_flight -= 1;
        update_brownout(&mut inner, &shared, Instant::now());
        if inner.queued_len() == 0 && inner.in_flight() == 0 {
            shared.idle_cv.notify_all();
        }
    }
}
