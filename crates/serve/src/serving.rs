//! Serving-fleet observability types: array health and runtime counters.
//!
//! The server owns the policy — when an array is degraded, quarantined,
//! probed, or re-admitted — and fills these snapshots; the crate root
//! re-exports them.

use std::fmt;

use bfp_faults::FaultReport;
use bfp_telemetry::Table;

/// Identity of a serving tenant. The runtime keys quotas, weighted-fair
/// scheduling deficits, circuit breakers, and the per-tenant counters on
/// this id; tenant `0` is the implicit default for requests that never
/// set one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Request priority class. Classes are served in strict order (all
/// runnable `Critical` work dispatches before any `Standard`, which
/// dispatches before any `Bulk`); weighted fairness applies *between
/// tenants inside one class*. Shedding walks the ladder bottom-up —
/// `Bulk` first, then `Standard` — and `Critical` is never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Best-effort background work: first to be shed under pressure,
    /// refused outright at brownout tier 2.
    Bulk,
    /// The default class for ordinary traffic.
    #[default]
    Standard,
    /// Latency-critical work. Never shed, dispatched first.
    Critical,
}

impl Priority {
    /// All classes, lowest first (the shed order).
    pub const ALL: [Priority; 3] = [Priority::Bulk, Priority::Standard, Priority::Critical];

    /// Dense index: `Bulk` = 0, `Standard` = 1, `Critical` = 2.
    pub fn index(self) -> usize {
        match self {
            Priority::Bulk => 0,
            Priority::Standard => 1,
            Priority::Critical => 2,
        }
    }

    /// Stable lowercase label for telemetry and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Bulk => "bulk",
            Priority::Standard => "standard",
            Priority::Critical => "critical",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Health state of one accelerator array, as driven by the serving
/// runtime's strike/probe state machine:
///
/// ```text
///            detected-fault strikes            strikes past threshold
/// Healthy ───────────────────────▶ Degraded ───────────────────────▶ Quarantined
///    ▲                               │  clean streak                     │ probe
///    │                               ▼                                   ▼ timer
///    └───────────────────────────── Healthy          Probing ◀───────────┘
///    └── consecutive probe passes ◀────┘ (golden GEMM bit-checked vs softfp)
/// ```
///
/// `Degraded` arrays still serve (requests prefer healthier peers);
/// `Quarantined` arrays are drained and receive no user work; `Probing`
/// is the transient state while a quarantined array runs the golden
/// self-test GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayHealth {
    /// Serving normally.
    Healthy,
    /// Recent detected faults: still serving, but deprioritised and one
    /// step from quarantine.
    Degraded,
    /// Drained; receives no user requests until a probe passes.
    Quarantined,
    /// Running the golden self-test GEMM.
    Probing,
}

impl ArrayHealth {
    /// Whether user requests may be dispatched to an array in this state.
    pub fn serves(&self) -> bool {
        matches!(self, ArrayHealth::Healthy | ArrayHealth::Degraded)
    }
}

impl fmt::Display for ArrayHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrayHealth::Healthy => "healthy",
            ArrayHealth::Degraded => "degraded",
            ArrayHealth::Quarantined => "quarantined",
            ArrayHealth::Probing => "probing",
        })
    }
}

/// One transition in an array's health history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// Runtime-wide sequence number (monotonic across all arrays), so
    /// per-array histories interleave into one fleet timeline.
    pub seq: u64,
    /// State before the transition.
    pub from: ArrayHealth,
    /// State after the transition.
    pub to: ArrayHealth,
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}: {} -> {}", self.seq, self.from, self.to)
    }
}

/// Serving statistics for one array.
#[derive(Debug, Clone)]
pub struct ArrayServeStats {
    /// Current health.
    pub health: ArrayHealth,
    /// Requests completed successfully on this array.
    pub completed: u64,
    /// Executions on which a fault was detected mid-request, plus
    /// shadow-lane envelope violations. Outputs with *uncorrected*
    /// detections are discarded and re-routed; ABFT-corrected executions
    /// (see `faults.abft_corrections`) are bit-exact and served, but
    /// still count here for health tracking.
    pub faulted_executions: u64,
    /// Golden self-test probes run while quarantined.
    pub probes_run: u64,
    /// Probes that passed the bit-exact check.
    pub probes_passed: u64,
    /// Modelled busy time (seconds of array occupancy at the calibrated
    /// operating point), independent of host scheduling noise.
    pub modelled_busy_s: f64,
    /// Every health transition, in order.
    pub history: Vec<HealthEvent>,
    /// Cumulative fault events attributed to this array.
    pub faults: FaultReport,
}

impl ArrayServeStats {
    /// A fresh, healthy array.
    pub fn new() -> Self {
        ArrayServeStats {
            health: ArrayHealth::Healthy,
            completed: 0,
            faulted_executions: 0,
            probes_run: 0,
            probes_passed: 0,
            modelled_busy_s: 0.0,
            history: Vec::new(),
            faults: FaultReport::default(),
        }
    }

    /// How many times this array entered `state`.
    pub fn times_entered(&self, state: ArrayHealth) -> usize {
        self.history.iter().filter(|e| e.to == state).count()
    }
}

impl Default for ArrayServeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Serving counters for one tenant. The admission identity
/// `admitted == completed + failed + queued + in_flight` holds per
/// tenant in every snapshot, exactly as it does fleet-wide.
#[derive(Debug, Clone, Default)]
pub struct TenantServeStats {
    /// Which tenant.
    pub tenant: TenantId,
    /// Scheduling weight in force (deficit-weighted round robin).
    pub weight: u32,
    /// Requests this tenant offered to `submit`.
    pub submitted: u64,
    /// Requests accepted into the scheduler.
    pub admitted: u64,
    /// Requests refused at admission, for any reason (queue full, quota,
    /// open breaker, unmeetable deadline, brownout).
    pub rejected: u64,
    /// Rejections charged specifically to an empty token bucket.
    pub quota_rejected: u64,
    /// Rejections charged to this tenant's open circuit breaker.
    pub breaker_rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Admitted requests that ended in a typed error.
    pub failed: u64,
    /// Admitted requests evicted from the queue (backpressure or
    /// brownout shedding); a subset of `failed`.
    pub shed: u64,
    /// Requests waiting in the scheduler at snapshot time.
    pub queued: usize,
    /// Requests executing at snapshot time.
    pub in_flight: usize,
    /// Whether the tenant's circuit breaker is currently refusing work.
    pub breaker_open: bool,
}

/// Serving counters for one priority class (fleet-wide). The same
/// admission identity holds per class in every snapshot.
#[derive(Debug, Clone, Default)]
pub struct PriorityServeStats {
    /// Requests admitted at this priority.
    pub admitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Admitted requests that ended in a typed error.
    pub failed: u64,
    /// Admitted requests evicted from the queue; for
    /// [`Priority::Critical`] this must be 0 — criticals are never shed.
    pub shed: u64,
    /// Requests waiting in the scheduler at snapshot time.
    pub queued: usize,
    /// Requests executing at snapshot time.
    pub in_flight: usize,
}

/// Brownout-ladder state and accounting: the runtime sheds *quality*
/// before it sheds *work* (tier 1 switches the nonlinear kernels to the
/// fast LUT/polynomial family with proven ULP envelopes; tier 2 starts
/// refusing and shedding `Bulk` work), driven by queue-depth/latency
/// pressure with hysteresis so the ladder does not flap.
#[derive(Debug, Clone, Default)]
pub struct BrownoutStats {
    /// Ladder tier at snapshot time (0 = exact, 1 = fast nonlinear,
    /// 2 = fast nonlinear + `Bulk` shedding).
    pub tier: u8,
    /// Highest tier reached so far.
    pub max_tier: u8,
    /// Tier transitions (each one-step move counts once).
    pub transitions: u64,
    /// Queued `Bulk` requests shed by tier-2 entry or while at tier 2.
    pub sheds: u64,
}

/// Snapshot of the serving runtime's counters (`Server::stats` in
/// `bfp-serve`).
///
/// Accounting identities (checked by the runtime's tests):
/// `admitted + rejected == submitted` and, in *every* snapshot,
/// `admitted == completed + failed + queued + in_flight` — fleet-wide,
/// per tenant, and per priority class (shed requests were admitted
/// first and count under `failed` as well as `shed`).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused at admission, for any reason: shutdown, open
    /// breaker, quota, brownout, unmeetable or expired deadline, queue
    /// full, admission timeout.
    pub rejected: u64,
    /// Admitted requests evicted from the queue, by `ShedOldest`
    /// backpressure or by the brownout ladder's `Bulk` shedding; a subset
    /// of `failed`.
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Admitted requests that ended in an error (deadline, shed,
    /// shutdown, exhausted retries).
    pub failed: u64,
    /// Requests that missed their deadline — failed after admission, or
    /// (under `Block` backpressure) refused at the gate because the
    /// budget expired while blocked. The latter also count as `rejected`.
    pub deadline_missed: u64,
    /// Rejections charged to empty per-tenant token buckets.
    pub quota_rejected: u64,
    /// Rejections charged to open per-tenant circuit breakers.
    pub breaker_rejected: u64,
    /// Rejections by the early-deadline admission check (remaining
    /// budget below the calibrated service estimate: queueing the work
    /// is doomed, so it is refused up front).
    pub deadline_rejected: u64,
    /// Admissions refused because the brownout ladder is at tier 2 and
    /// the request was `Bulk`.
    pub brownout_rejected: u64,
    /// Executions retried on a different array after a detected fault.
    pub retries: u64,
    /// Executions flagged against an array's health (fleet-wide sum of
    /// per-array `faulted_executions`): every execution with a detected
    /// fault — discarded when uncorrected, served when ABFT corrected it
    /// — plus every shadow-lane envelope violation.
    pub degraded_executions: u64,
    /// Highest queue depth observed.
    pub queue_depth_high_water: usize,
    /// Requests waiting in the queue at snapshot time.
    pub queued: usize,
    /// Requests being executed at snapshot time.
    pub in_flight: usize,
    /// Brownout-ladder state and accounting.
    pub brownout: BrownoutStats,
    /// Per-tenant counters, sorted by tenant id.
    pub per_tenant: Vec<TenantServeStats>,
    /// Per-priority-class counters, indexed by [`Priority::index`].
    pub per_priority: [PriorityServeStats; 3],
    /// Per-array health and counters.
    pub per_array: Vec<ArrayServeStats>,
}

impl ServeStats {
    /// Arrays currently willing to take user work.
    pub fn serving_arrays(&self) -> usize {
        self.per_array.iter().filter(|a| a.health.serves()).count()
    }

    /// Fleet-wide modelled busy seconds.
    pub fn modelled_busy_s(&self) -> f64 {
        self.per_array.iter().map(|a| a.modelled_busy_s).sum()
    }

    /// The counters for one tenant, if it has been seen.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantServeStats> {
        self.per_tenant.iter().find(|t| t.tenant == id)
    }

    /// The counters for one priority class.
    pub fn priority(&self, p: Priority) -> &PriorityServeStats {
        &self.per_priority[p.index()]
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} submitted | {} admitted, {} rejected, {} shed | \
             {} completed, {} failed ({} deadline-missed) | \
             {} retries, {} faulted executions flagged | \
             queue high-water {} | {} queued, {} in-flight",
            self.submitted,
            self.admitted,
            self.rejected,
            self.shed,
            self.completed,
            self.failed,
            self.deadline_missed,
            self.retries,
            self.degraded_executions,
            self.queue_depth_high_water,
            self.queued,
            self.in_flight,
        )?;
        if self.brownout.max_tier > 0 || self.quota_rejected > 0 || self.breaker_rejected > 0 {
            writeln!(
                f,
                "overload: brownout tier {} (max {}, {} transitions, {} sheds) | \
                 {} quota-rejected, {} breaker-rejected, {} deadline-rejected, {} brownout-rejected",
                self.brownout.tier,
                self.brownout.max_tier,
                self.brownout.transitions,
                self.brownout.sheds,
                self.quota_rejected,
                self.breaker_rejected,
                self.deadline_rejected,
                self.brownout_rejected,
            )?;
        }
        if !self.per_tenant.is_empty() {
            let mut t = Table::new(
                "per-tenant serving state",
                &[
                    "tenant",
                    "weight",
                    "admitted",
                    "rejected",
                    "completed",
                    "failed",
                    "shed",
                    "queued",
                    "breaker",
                ],
            );
            for ts in &self.per_tenant {
                t.row(&[
                    ts.tenant.0.to_string(),
                    ts.weight.to_string(),
                    ts.admitted.to_string(),
                    ts.rejected.to_string(),
                    ts.completed.to_string(),
                    ts.failed.to_string(),
                    ts.shed.to_string(),
                    format!("{}+{}", ts.queued, ts.in_flight),
                    if ts.breaker_open { "open" } else { "closed" }.to_string(),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        if self.per_array.is_empty() {
            return Ok(());
        }
        let mut t = Table::new(
            "per-array serving state",
            &[
                "array",
                "health",
                "completed",
                "faulted",
                "probes",
                "history",
            ],
        );
        for (i, a) in self.per_array.iter().enumerate() {
            let hist: Vec<String> = a.history.iter().map(|e| e.to_string()).collect();
            t.row(&[
                i.to_string(),
                a.health.to_string(),
                a.completed.to_string(),
                a.faulted_executions.to_string(),
                format!("{}/{}", a.probes_passed, a.probes_run),
                hist.join(", "),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_and_labels() {
        assert!(Priority::Bulk < Priority::Standard);
        assert!(Priority::Standard < Priority::Critical);
        assert_eq!(Priority::default(), Priority::Standard);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::Critical.as_str(), "critical");
        assert_eq!(TenantId(7).to_string(), "tenant7");
    }

    #[test]
    fn tenant_and_priority_accessors() {
        let mut s = ServeStats::default();
        s.per_tenant.push(TenantServeStats {
            tenant: TenantId(3),
            completed: 5,
            ..Default::default()
        });
        s.per_priority[Priority::Critical.index()].admitted = 2;
        assert_eq!(s.tenant(TenantId(3)).unwrap().completed, 5);
        assert!(s.tenant(TenantId(4)).is_none());
        assert_eq!(s.priority(Priority::Critical).admitted, 2);
    }

    #[test]
    fn display_includes_overload_and_tenant_tables() {
        let mut s = ServeStats::default();
        s.brownout.max_tier = 2;
        s.brownout.tier = 1;
        s.quota_rejected = 6;
        s.per_tenant.push(TenantServeStats {
            tenant: TenantId(1),
            weight: 4,
            admitted: 10,
            completed: 8,
            ..Default::default()
        });
        let text = s.to_string();
        assert!(text.contains("brownout tier 1 (max 2"), "{text}");
        assert!(text.contains("6 quota-rejected"), "{text}");
        assert!(text.contains("per-tenant serving state"), "{text}");
    }

    #[test]
    fn health_serving_predicate() {
        assert!(ArrayHealth::Healthy.serves());
        assert!(ArrayHealth::Degraded.serves());
        assert!(!ArrayHealth::Quarantined.serves());
        assert!(!ArrayHealth::Probing.serves());
    }

    #[test]
    fn stats_display_and_rollups() {
        let mut s = ServeStats {
            submitted: 10,
            admitted: 8,
            rejected: 2,
            completed: 7,
            failed: 1,
            deadline_missed: 1,
            queue_depth_high_water: 4,
            ..Default::default()
        };
        let mut a0 = ArrayServeStats::new();
        a0.completed = 7;
        a0.modelled_busy_s = 0.5;
        let mut a1 = ArrayServeStats::new();
        a1.health = ArrayHealth::Quarantined;
        a1.history.push(HealthEvent {
            seq: 0,
            from: ArrayHealth::Healthy,
            to: ArrayHealth::Quarantined,
        });
        s.per_array = vec![a0, a1];

        assert_eq!(s.serving_arrays(), 1);
        assert!((s.modelled_busy_s() - 0.5).abs() < 1e-12);
        assert_eq!(s.per_array[1].times_entered(ArrayHealth::Quarantined), 1);
        let text = s.to_string();
        assert!(text.contains("8 admitted"));
        assert!(text.contains("0 queued, 0 in-flight"));
        assert!(text.contains("per-array serving state"));
        // Array 1's table row carries its health and history.
        let row1 = text
            .lines()
            .find(|l| l.trim_start().starts_with("1 |"))
            .expect("array 1 row");
        assert!(row1.contains("quarantined"), "{text}");
        assert!(row1.contains("healthy -> quarantined"), "{text}");
    }
}
