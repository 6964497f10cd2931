//! The serving workloads: DeiT-shaped GEMM requests through
//! `bfp_serve::Server` on an open loop. Rates, the latency limit and the
//! server's configuration are constants, never derived from a run's own
//! measured capacity, so a faster backend shows as lower latency and
//! higher goodput instead of being offered more load.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_serve::{
    reference_bits, ArrayFaultPlan, Backpressure, BrownoutPolicy, NonlinearMode, Priority,
    ServeConfig, ServeError, ServeOp, ServeRequest, ServeStats, Server, TenantId, TenantQuota,
    Ticket,
};

use crate::kernels::random_matrix;
use crate::metrics::Metrics;
use crate::span::{RequestSpan, Trace};
use crate::stats::{median, peak_rss_mb, percentile, SplitMix64};
use crate::{nproc, Outcome, SEQ};

/// Every request's deadline, and the limit a completion must meet —
/// timed from the instant the request was due — to count as good.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(250);

const DIM: usize = 384;
/// Distinct operand pairs per tenant; requests cycle through them. The
/// backend packs both operands on every request, so reuse shares no work.
const POOL: usize = 4;
/// Closed-loop requests that warm a fresh server (and calibrate its
/// deadline gate's service estimate) before any traffic.
const WARM_REQUESTS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// One completed response in this many is compared with `reference_bits`.
const CHECK_EVERY: usize = 16;

struct Tenant {
    name: &'static str,
    id: TenantId,
    priority: Priority,
    weight: u32,
    /// Token-bucket refill, requests/s; 0 is unlimited.
    quota_rps: f64,
    op: ServeOp,
    /// Output width: 384 (a projection) or 1536 (fc1).
    n: usize,
}

const TENANTS: [Tenant; 3] = [
    Tenant {
        name: "interactive",
        id: TenantId(1),
        priority: Priority::Critical,
        weight: 4,
        quota_rps: 0.0,
        op: ServeOp::Gemm,
        n: DIM,
    },
    Tenant {
        name: "batch",
        id: TenantId(2),
        priority: Priority::Standard,
        weight: 2,
        quota_rps: 0.0,
        op: ServeOp::GemmGelu,
        n: DIM,
    },
    Tenant {
        name: "abuser",
        id: TenantId(3),
        priority: Priority::Bulk,
        weight: 1,
        quota_rps: 2.0,
        op: ServeOp::GemmGelu,
        n: 4 * DIM,
    },
];
const CRITICAL: usize = 0;

/// Offered load per tenant, requests/s.
pub struct Scenario {
    pub rates: [f64; 3],
}

/// About a fifth of what two arrays sustain: latency is service time
/// plus hand-off, and admission control has nothing to do. Two thirds of
/// the requests are the heavier op, so the median sits in the fast part
/// of that op's latencies and not between the two ops, where a small
/// change in queueing would move it a long way.
pub const STEADY: Scenario = Scenario {
    rates: [4.0, 8.0, 0.0],
};
/// About twice what two arrays sustain with the fast kernels, a seventh
/// of it from a tenant over its quota: quota, weighted round robin,
/// shedding and the brownout ladder decide the outcome. Deep enough that
/// the queue stays full whatever the machine's speed, so latency is the
/// time to cross a full queue instead of swinging with spare capacity.
pub const OVERLOAD: Scenario = Scenario {
    rates: [20.0, 200.0, 40.0],
};

/// The one server configuration both workloads run.
fn config() -> ServeConfig {
    ServeConfig {
        arrays: nproc(),
        // Short enough to drain inside the latency limit. With 96 slots a
        // full queue takes over a second to cross, every request reaches
        // an array with its 250 ms nearly spent, is cancelled or answered
        // late, and goodput collapses from ~135 to ~40 requests/s: worth
        // fixing in the server, but a benchmark sitting in that regime
        // reads 18% apart between identical runs.
        queue_capacity: 16,
        backpressure: Backpressure::ShedOldest,
        quotas: TENANTS
            .iter()
            .map(|t| {
                let quota = TenantQuota {
                    weight: t.weight,
                    rate_rps: t.quota_rps,
                    burst: 8.0,
                };
                (t.id, quota)
            })
            .collect(),
        brownout: BrownoutPolicy {
            tier1_pressure: 0.3,
            tier2_pressure: 0.6,
            min_dwell: Duration::from_millis(25),
            latency_target: LATENCY_LIMIT,
        },
        deadline_gate: true,
        ..ServeConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub tenant: usize,
    pub operand: usize,
}

/// One stream per tenant with exponential gaps from the seed, stretched
/// so that exactly `rate × seconds` arrivals fill the window: the count
/// and the mix are the same on every seed, only the spacing differs.
/// Streams are merged by due time.
pub fn schedule(rates: &[f64; 3], seconds: f64, seed: u64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    for (tenant, &rate) in rates.iter().enumerate() {
        let count = (rate * seconds).round() as usize;
        let mut rng = SplitMix64(seed ^ (0xA11C_E000 + tenant as u64));
        let mut t = 0.0;
        let due: Vec<f64> = (0..count)
            .map(|_| {
                t += rng.exponential();
                t
            })
            .collect();
        // One more gap closes the window, so the last arrival is not
        // pinned to its end.
        let stretch = seconds / (t + rng.exponential());
        let stream = due.iter().enumerate().map(|(k, d)| Arrival {
            due_s: d * stretch,
            tenant,
            operand: k % POOL,
        });
        arrivals.extend(stream);
    }
    arrivals.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    arrivals
}

/// Operand pairs, built from the seed before the clock starts.
struct Pools {
    pairs: [Vec<(MatF32, MatF32)>; 3],
}

impl Pools {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0x0DE1_7000);
        let mut pool = |n: usize| -> Vec<(MatF32, MatF32)> {
            (0..POOL)
                .map(|_| {
                    (
                        random_matrix(SEQ, DIM, 1.0, &mut rng),
                        random_matrix(DIM, n, 0.05, &mut rng),
                    )
                })
                .collect()
        };
        Pools {
            pairs: [pool(TENANTS[0].n), pool(TENANTS[1].n), pool(TENANTS[2].n)],
        }
    }

    fn request(&self, tenant: usize, operand: usize) -> ServeRequest {
        let t = &TENANTS[tenant];
        let (a, b) = &self.pairs[tenant][operand];
        ServeRequest::new(a.clone(), b.clone())
            .for_tenant(t.id)
            .with_priority(t.priority)
            .with_op(t.op)
            .with_deadline(LATENCY_LIMIT)
    }
}

/// An answered request's times, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// From the due time to the answer.
    pub latency_s: f64,
    pub queue_wait_s: f64,
    pub service_s: f64,
    /// Ran on the fast nonlinear kernels (brownout tier ≥ 1).
    pub fast: bool,
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fate {
    Done(Done),
    /// Refused at `submit`.
    Refused(ServeError),
    /// Admitted, then shed, expired or failed.
    Dropped(ServeError),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub tenant: usize,
    pub submitted: Instant,
    /// How late the generator submitted it.
    pub lag_s: f64,
    pub fate: Fate,
}

impl Record {
    fn done(&self) -> Option<&Done> {
        match &self.fate {
            Fate::Done(d) => Some(d),
            _ => None,
        }
    }

    /// Answered within the limit, timed from when the request was due.
    pub fn good(&self) -> bool {
        self.done()
            .is_some_and(|d| d.latency_s <= LATENCY_LIMIT.as_secs_f64())
    }

    /// Ended in a way no policy of the server explains: a fault on a
    /// fault-free fleet, a shutdown, a breaker or a gate that is off.
    fn unexpected(&self) -> bool {
        match &self.fate {
            Fate::Done(_) => false,
            Fate::Refused(e) | Fate::Dropped(e) => !matches!(
                e,
                ServeError::QuotaExceeded
                    | ServeError::DeadlineUnmeetable
                    | ServeError::Brownout
                    | ServeError::QueueFull
                    | ServeError::Shed
                    | ServeError::DeadlineExceeded
            ),
        }
    }
}

/// A sampled response, kept as a hash of its bits.
struct Sample {
    tenant: usize,
    operand: usize,
    mode: NonlinearMode,
    hash: u64,
}

struct Load {
    records: Vec<Record>,
    samples: Vec<Sample>,
    submit_s: Vec<f64>,
    elapsed_s: f64,
}

/// Start a server and answer [`WARM_REQUESTS`] requests on it.
fn start(pools: &Pools) -> Server {
    let server = Server::simulated(config(), vec![ArrayFaultPlan::None; nproc()]);
    for i in 0..WARM_REQUESTS {
        server
            .submit(pools.request(i % 2, i % POOL))
            .and_then(|t| t.wait())
            .expect("an idle fault-free server answers");
    }
    server
}

/// Drive `arrivals` through `server` on an open loop: one thread sleeps
/// to each absolute due time and submits; a second only waits on tickets.
fn drive(server: &Server, pools: &Pools, arrivals: &[Arrival]) -> Load {
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, Ticket)>();
    let mut records: Vec<Option<Record>> = vec![None; arrivals.len()];
    let mut submit_s = Vec::with_capacity(arrivals.len());

    let ((resolved, samples), elapsed_s) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut resolved = Vec::new();
            let mut samples = Vec::new();
            let mut answered = 0;
            for (i, submitted, lag_s, ticket) in rx {
                let Arrival {
                    tenant, operand, ..
                } = arrivals[i];
                let fate = match ticket.wait() {
                    Ok(resp) => {
                        answered += 1;
                        if answered % CHECK_EVERY == 0 {
                            samples.push(Sample {
                                tenant,
                                operand,
                                mode: resp.mode,
                                hash: resp.out.content_hash(),
                            });
                        }
                        Fate::Done(Done {
                            latency_s: lag_s + resp.wall_s,
                            queue_wait_s: resp.timeline.queue_wait_s,
                            service_s: resp.timeline.total_s - resp.timeline.queue_wait_s,
                            fast: resp.mode == NonlinearMode::Fast,
                        })
                    }
                    Err(e) => Fate::Dropped(e),
                };
                resolved.push((
                    i,
                    Record {
                        tenant,
                        submitted,
                        lag_s,
                        fate,
                    },
                ));
            }
            (resolved, samples)
        });

        // A short lead so the first request is not already late.
        let t0 = Instant::now() + Duration::from_millis(5);
        for (i, arrival) in arrivals.iter().enumerate() {
            let request = pools.request(arrival.tenant, arrival.operand);
            let due = t0 + Duration::from_secs_f64(arrival.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submitted = Instant::now();
            let result = server.submit(request);
            submit_s.push(submitted.elapsed().as_secs_f64());
            let lag_s = submitted.saturating_duration_since(due).as_secs_f64();
            match result {
                Ok(ticket) => tx
                    .send((i, submitted, lag_s, ticket))
                    .expect("collector is alive"),
                Err(e) => {
                    records[i] = Some(Record {
                        tenant: arrival.tenant,
                        submitted,
                        lag_s,
                        fate: Fate::Refused(e),
                    })
                }
            }
        }
        drop(tx);
        server.drain();
        let elapsed_s = t0.elapsed().as_secs_f64();
        (
            collector.join().expect("collector does not panic"),
            elapsed_s,
        )
    });

    for (i, record) in resolved {
        records[i] = Some(record);
    }
    Load {
        records: records
            .into_iter()
            .map(|r| r.expect("every arrival was submitted"))
            .collect(),
        samples,
        submit_s,
        elapsed_s,
    }
}

/// Sampled responses against `reference_bits` for the mode each ran in,
/// and the server's own accounting on its final snapshot.
fn verify(
    load: &Load,
    pools: &Pools,
    before: &ServeStats,
    after: &ServeStats,
) -> Result<(), String> {
    let mut reference: HashMap<(usize, usize, bool), u64> = HashMap::new();
    for s in &load.samples {
        let t = &TENANTS[s.tenant];
        // A bare GEMM has no nonlinear epilogue: one reference serves
        // both modes.
        let fast = t.op == ServeOp::GemmGelu && s.mode == NonlinearMode::Fast;
        let want = *reference
            .entry((s.tenant, s.operand, fast))
            .or_insert_with(|| {
                let (a, b) = &pools.pairs[s.tenant][s.operand];
                reference_bits(a, b, t.op, s.mode).content_hash()
            });
        if s.hash != want {
            return Err(format!(
                "tenant {} operand {} ({}): response bits differ from reference_bits",
                t.name,
                s.operand,
                s.mode.as_str()
            ));
        }
    }
    if after.admitted
        != after.completed + after.failed + after.queued as u64 + after.in_flight as u64
    {
        return Err(format!(
            "accounting identity broken: admitted {} != completed {} + failed {} + queued {} + in_flight {}",
            after.admitted, after.completed, after.failed, after.queued, after.in_flight
        ));
    }
    let done = load.records.iter().filter_map(Record::done).count() as u64;
    if done != after.completed - before.completed {
        return Err(format!(
            "clients saw {done} answers, the server counts {}",
            after.completed - before.completed
        ));
    }
    Ok(())
}

/// Latency of every answered request that `keep` admits, milliseconds.
fn latencies_ms(records: &[Record], keep: impl Fn(&Record) -> bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| keep(r))
        .filter_map(Record::done)
        .map(|d| d.latency_s * 1e3)
        .collect()
}

fn print_outcomes(load: &Load) {
    for (i, t) in TENANTS.iter().enumerate() {
        let of = |f: &dyn Fn(&Record) -> bool| {
            load.records
                .iter()
                .filter(|r| r.tenant == i && f(r))
                .count()
        };
        println!(
            "# tenant {:<11} offered {:5}  good {:5}  late {:4}  refused {:5}  dropped {:5}",
            t.name,
            of(&|_| true),
            of(&|r| r.good()),
            of(&|r| r.done().is_some() && !r.good()),
            of(&|r| matches!(r.fate, Fate::Refused(_))),
            of(&|r| matches!(r.fate, Fate::Dropped(_))),
        );
    }
    let mut errors: BTreeMap<String, usize> = BTreeMap::new();
    for r in &load.records {
        if let Fate::Refused(e) | Fate::Dropped(e) = &r.fate {
            *errors.entry(format!("{e:?}")).or_default() += 1;
        }
    }
    println!("# errors {errors:?}");
}

/// The untraced run: end-to-end metrics only.
pub fn run(scenario: &Scenario, seed: u64, seconds: f64) -> Outcome {
    let pools = Pools::new(seed);
    let arrivals = schedule(&scenario.rates, seconds, seed);

    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t0 = Instant::now();
        server = Some(start(&pools));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("SETUP_REPS > 0");
    let before = server.stats();

    let load = drive(&server, &pools, &arrivals);
    let after = server.stats();
    print_outcomes(&load);

    let t_verify = Instant::now();
    let verdict = verify(&load, &pools, &before, &after);
    println!(
        "# verify_s {:.3} ({} responses checked)",
        t_verify.elapsed().as_secs_f64(),
        load.samples.len()
    );

    let good = load.records.iter().filter(|r| r.good()).count();
    let done_ms = latencies_ms(&load.records, |_| true);
    let mut m = Metrics::new(crate::metrics::END_TO_END);
    m.set("setup_s", median(&setup_s));
    println!(
        "# goodput_rps {:.3}  latency_ms_p95 {:.3}",
        good as f64 / load.elapsed_s,
        percentile(&done_ms, 0.95)
    );
    m.set("latency_ms_p50", percentile(&done_ms, 0.50));
    m.set("good_frac", good as f64 / load.records.len() as f64);
    m.set("peak_rss_mb", peak_rss_mb());
    let unexpected = load.records.iter().filter(|r| r.unexpected()).count();
    Outcome::new(load.records.len() as u64, unexpected as u64, verdict, m)
}

/// Closed loop on the idle server, one projection GEMM at a time, every
/// other one inside a span. Median seconds of: the client's round trip
/// without a span, with one, and the round trip minus the time the
/// request spent executing — submit, waking a worker, waking the client.
fn closed_loop_s(server: &Server, pools: &Pools, tracer: &bfp_telemetry::Tracer) -> [f64; 3] {
    let mut round_trip_s = [Vec::new(), Vec::new()];
    let mut handoff_s = Vec::new();
    for i in 0..60 {
        let _span = (i % 2 == 1).then(|| tracer.span("closed_loop_request", "serve"));
        let t0 = Instant::now();
        let ticket = server
            .submit(pools.request(CRITICAL, i % POOL))
            .expect("idle server admits");
        let timeline = ticket.wait().expect("idle server answers").timeline;
        let round_trip = t0.elapsed().as_secs_f64();
        round_trip_s[i % 2].push(round_trip);
        handoff_s.push(round_trip - (timeline.total_s - timeline.queue_wait_s));
    }
    [
        median(&round_trip_s[0]),
        median(&round_trip_s[1]),
        median(&handoff_s),
    ]
}

/// What the traced serve run hands back besides its metrics.
pub struct Traced {
    pub requests: u64,
    /// Requests that ended in an error no server policy explains.
    pub unexpected: u64,
    pub verdict: Result<(), String>,
    /// Traced ÷ untraced closed-loop round trip − 1.
    pub overhead_frac: f64,
}

/// The traced run: the same traffic, with a span per request built from
/// its response's timeline, and the server's own counters.
pub fn run_traced(
    scenario: &Scenario,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    out: &mut Metrics,
) -> Traced {
    let pools = Pools::new(seed);
    let arrivals = schedule(&scenario.rates, seconds, seed);
    let server = {
        let _s = trace.tracer.span("setup", "serve");
        start(&pools)
    };

    let [untraced_s, traced_s, handoff_s] = closed_loop_s(&server, &pools, &trace.tracer);
    out.set("serve.handoff_ms_p50", handoff_s * 1e3);

    let before = server.stats();
    let load = drive(&server, &pools, &arrivals);
    let after = server.stats();
    print_outcomes(&load);
    let verdict = verify(&load, &pools, &before, &after);

    // One span per answered request, from the times its response carries.
    for r in &load.records {
        if let Some(d) = r.done() {
            let submit_s = r
                .submitted
                .saturating_duration_since(trace.epoch)
                .as_secs_f64();
            let due_s = submit_s - r.lag_s;
            trace.requests.push(RequestSpan {
                tenant: r.tenant,
                due_s,
                submit_s,
                picked_s: submit_s + d.queue_wait_s,
                resolved_s: due_s + d.latency_s,
            });
        }
    }

    let done: Vec<&Done> = load.records.iter().filter_map(Record::done).collect();
    let queue_ms: Vec<f64> = done.iter().map(|d| d.queue_wait_s * 1e3).collect();
    let service_ms: Vec<f64> = done.iter().map(|d| d.service_s * 1e3).collect();
    out.set("serve.queue_wait_ms_p50", percentile(&queue_ms, 0.50));
    out.set("serve.queue_wait_ms_p95", percentile(&queue_ms, 0.95));
    out.set("serve.service_ms_p50", percentile(&service_ms, 0.50));
    out.set("serve.service_ms_p95", percentile(&service_ms, 0.95));
    let submit_us: Vec<f64> = load.submit_s.iter().map(|s| s * 1e6).collect();
    out.set("serve.submit_us_p50", percentile(&submit_us, 0.50));
    let good = load.records.iter().filter(|r| r.good()).count();
    out.set("serve.goodput_rps", good as f64 / load.elapsed_s);
    let done_ms = latencies_ms(&load.records, |_| true);
    out.set("serve.latency_ms_p95", percentile(&done_ms, 0.95));
    out.set("serve.latency_ms_p99", percentile(&done_ms, 0.99));
    let critical_ms = latencies_ms(&load.records, |r| r.tenant == CRITICAL);
    out.set(
        "serve.critical_latency_ms_p95",
        percentile(&critical_ms, 0.95),
    );
    let critical: Vec<&Record> = load
        .records
        .iter()
        .filter(|r| r.tenant == CRITICAL)
        .collect();
    out.set(
        "serve.critical_good_frac",
        critical.iter().filter(|r| r.good()).count() as f64 / critical.len() as f64,
    );

    let count = |now: u64, then: u64| (now - then) as f64;
    let admitted = count(after.admitted, before.admitted);
    out.set("serve.admitted", admitted);
    out.set(
        "serve.quota_rejected",
        count(after.quota_rejected, before.quota_rejected),
    );
    out.set(
        "serve.deadline_rejected",
        count(after.deadline_rejected, before.deadline_rejected),
    );
    out.set(
        "serve.deadline_missed",
        count(after.deadline_missed, before.deadline_missed),
    );
    out.set("serve.shed", count(after.shed, before.shed));
    out.set("serve.retries", count(after.retries, before.retries));
    out.set(
        "serve.brownout_transitions",
        count(after.brownout.transitions, before.brownout.transitions),
    );
    out.set(
        "serve.brownout_max_tier",
        f64::from(after.brownout.max_tier),
    );
    let fast = done.iter().filter(|d| d.fast).count();
    out.set("serve.completed_fast_frac", fast as f64 / done.len() as f64);
    out.set(
        "serve.queue_high_water",
        after.queue_depth_high_water as f64,
    );
    out.set("serve.useful_frac", done.len() as f64 / admitted);

    let late_ms: Vec<f64> = load.records.iter().map(|r| r.lag_s * 1e3).collect();
    out.set("gen.late_ms_p95", percentile(&late_ms, 0.95));
    out.set(
        "telemetry.records_dropped",
        server.observatory().records_dropped() as f64,
    );

    Traced {
        requests: load.records.len() as u64,
        unexpected: load.records.iter().filter(|r| r.unexpected()).count() as u64,
        verdict,
        overhead_frac: traced_s / untraced_s - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(&OVERLOAD.rates, 5.0, 11);
        assert_eq!(a, schedule(&OVERLOAD.rates, 5.0, 11));
        let b = schedule(&OVERLOAD.rates, 5.0, 12);
        assert_ne!(a, b);
        // Sorted by due time, inside the window, and the same count per
        // tenant on every seed: the fixed rate times the window.
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a
            .iter()
            .all(|x| (0.0..5.0).contains(&x.due_s) && x.operand < POOL));
        for (tenant, rate) in OVERLOAD.rates.iter().enumerate() {
            let count = |s: &[Arrival]| s.iter().filter(|x| x.tenant == tenant).count();
            assert_eq!(count(&a), (rate * 5.0) as usize);
            assert_eq!(count(&a), count(&b));
        }
        // A silent tenant offers nothing.
        assert!(schedule(&STEADY.rates, 5.0, 11)
            .iter()
            .all(|x| x.tenant != 2));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let submitted = Instant::now();
        let done = |lag_s: f64, wall_s: f64| Record {
            tenant: 0,
            submitted,
            lag_s,
            fate: Fate::Done(Done {
                latency_s: lag_s + wall_s,
                queue_wait_s: 0.0,
                service_s: wall_s,
                fast: false,
            }),
        };
        // Answered in 230 ms, but submitted 30 ms late: over the limit.
        assert!(done(0.0, 0.230).good());
        assert!(!done(0.030, 0.230).good());
        // Refused, shed and expired requests all miss the limit, and are
        // outcomes the server's policies explain.
        for fate in [
            Fate::Refused(ServeError::QuotaExceeded),
            Fate::Dropped(ServeError::Shed),
            Fate::Dropped(ServeError::DeadlineExceeded),
        ] {
            let r = Record {
                tenant: 2,
                submitted,
                lag_s: 0.0,
                fate,
            };
            assert!(!r.good() && !r.unexpected());
        }
        let r = Record {
            tenant: 0,
            submitted,
            lag_s: 0.0,
            fate: Fate::Dropped(ServeError::Shutdown),
        };
        assert!(r.unexpected());
        assert_eq!(latencies_ms(&[done(0.010, 0.020), r], |_| true), vec![30.0]);
    }

    #[test]
    fn requests_carry_the_limit_and_their_tenant() {
        let pools = Pools::new(3);
        let r = pools.request(2, 1);
        assert_eq!(
            (r.tenant, r.priority, r.op),
            (TenantId(3), Priority::Bulk, ServeOp::GemmGelu)
        );
        assert_eq!(r.budget, Some(LATENCY_LIMIT));
        assert_eq!((r.a.rows(), r.a.cols(), r.b.cols()), (SEQ, DIM, 4 * DIM));
        assert_eq!(Pools::new(3).pairs[0][0].0, pools.pairs[0][0].0);
    }
}
