//! Runtime policy knobs: admission, tenancy, retries, the brownout
//! ladder, and the health state machine.

use std::time::Duration;

use crate::observatory::ObservatoryConfig;
use crate::serving::TenantId;

/// What `submit` does when the admission queue is full. All three
/// policies are priority-aware: shedding always picks a victim from the
/// lowest non-`Critical` class at or below the incoming request's
/// priority — `Critical` work is never evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Refuse the new request immediately ([`crate::ServeError::QueueFull`]).
    Reject,
    /// Admit the new request by evicting the oldest queued one of the
    /// lowest eligible priority, which resolves with
    /// [`crate::ServeError::Shed`]. Falls back to rejecting the newcomer
    /// when no eligible victim exists (e.g. everything queued is
    /// `Critical`).
    ShedOldest,
    /// Block the submitter until space frees up, for at most `timeout`
    /// — further capped by the request's own remaining deadline. A wait
    /// that exhausts `timeout` refuses with
    /// [`crate::ServeError::AdmissionTimeout`]; one that exhausts the
    /// *deadline* refuses with [`crate::ServeError::DeadlineExceeded`]
    /// and is booked as a deadline miss, not an admission timeout.
    Block {
        /// Longest a submitter may be held at the gate.
        timeout: Duration,
    },
}

/// Per-tenant admission quota and scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Deficit-weighted-round-robin share (relative to other tenants in
    /// the same priority class). Clamped to ≥ 1.
    pub weight: u32,
    /// Token-bucket refill rate, requests/second. `<= 0.0` means
    /// unlimited (no bucket is consulted).
    pub rate_rps: f64,
    /// Token-bucket capacity (burst allowance), in requests. Clamped to
    /// ≥ 1 whenever the bucket is active.
    pub burst: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1,
            rate_rps: 0.0,
            burst: 8.0,
        }
    }
}

/// Per-tenant circuit breaker: after `trip_after` consecutive
/// rejections/failures the tenant's work is refused outright
/// ([`crate::ServeError::CircuitOpen`]) for `cooldown`, then a
/// half-open window admits `half_open_probes` probe requests — one
/// success closes the breaker, one failure re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitPolicy {
    /// Consecutive bad outcomes (admission rejections or post-admission
    /// failures) that trip the breaker. `0` disables breakers entirely.
    pub trip_after: u32,
    /// How long an open breaker refuses before going half-open.
    pub cooldown: Duration,
    /// Probe admissions allowed in the half-open state.
    pub half_open_probes: u32,
}

impl Default for CircuitPolicy {
    fn default() -> Self {
        CircuitPolicy {
            trip_after: 0,
            cooldown: Duration::from_millis(50),
            half_open_probes: 1,
        }
    }
}

/// The overload brownout ladder. Pressure is
/// `max(queued / queue_capacity, queue_wait_ewma / latency_target)`;
/// tier 0 serves exact, tier 1 switches nonlinear epilogues to the fast
/// kernels, tier 2 additionally sheds `Bulk` work. Escalation is
/// immediate; de-escalation waits out `min_dwell` (hysteresis) so the
/// ladder cannot flap on queue noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutPolicy {
    /// Pressure at or above which tier 1 engages.
    pub tier1_pressure: f64,
    /// Pressure at or above which tier 2 engages.
    pub tier2_pressure: f64,
    /// Minimum time at a tier before the ladder may step *down*.
    pub min_dwell: Duration,
    /// Queue-wait target feeding the latency half of the pressure
    /// signal.
    pub latency_target: Duration,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            tier1_pressure: 0.5,
            tier2_pressure: 0.85,
            min_dwell: Duration::from_millis(20),
            latency_target: Duration::from_millis(20),
        }
    }
}

/// Strike/probe policy driving the per-array health state machine
/// (see [`crate::ArrayHealth`] for the state diagram).
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Detected-fault strikes at which an array turns `Degraded`.
    pub degrade_strikes: u32,
    /// Strikes at which it is drained into `Quarantined`.
    pub quarantine_strikes: u32,
    /// Consecutive clean executions that forgive one strike.
    pub clean_streak: u32,
    /// Delay from quarantine to the first golden probe; also the gap
    /// between consecutive passing probes.
    pub probe_interval: Duration,
    /// Cap on the probe interval as failed probes back it off (doubling).
    pub probe_interval_cap: Duration,
    /// Consecutive probe passes required to re-admit the array.
    pub probes_to_readmit: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_strikes: 2,
            quarantine_strikes: 4,
            clean_streak: 8,
            probe_interval: Duration::from_millis(10),
            probe_interval_cap: Duration::from_millis(200),
            probes_to_readmit: 2,
        }
    }
}

/// Full serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Arrays in the fleet (one worker thread each).
    pub arrays: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Behaviour when the queue is full.
    pub backpressure: Backpressure,
    /// Deadline budget applied to requests that do not carry their own.
    /// `None` means such requests never expire.
    pub default_budget: Option<Duration>,
    /// Total executions a request may consume (first try + retries)
    /// before it fails with [`crate::ServeError::FaultsExhausted`].
    pub max_attempts: u32,
    /// Base delay before a faulted request is retried (on a different
    /// array where possible); doubles per attempt.
    pub retry_backoff_base: Duration,
    /// Cap on the retry backoff.
    pub retry_backoff_cap: Duration,
    /// Health state machine policy.
    pub health: HealthPolicy,
    /// Per-tenant quotas/weights; tenants not listed use
    /// `default_quota`.
    pub quotas: Vec<(TenantId, TenantQuota)>,
    /// Quota applied to tenants absent from `quotas`.
    pub default_quota: TenantQuota,
    /// Per-tenant circuit breaker policy (disabled by default).
    pub breaker: CircuitPolicy,
    /// Overload brownout ladder.
    pub brownout: BrownoutPolicy,
    /// Refuse requests whose deadline budget is below the calibrated
    /// service estimate ([`crate::ServeError::DeadlineUnmeetable`])
    /// instead of queueing doomed work. Inactive until enough
    /// executions have calibrated the estimate.
    pub deadline_gate: bool,
    /// Serve-time observatory: flight recorder, SLO burn tracking, and
    /// the shadow-execution lane.
    pub observatory: ObservatoryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrays: 4,
            queue_capacity: 64,
            backpressure: Backpressure::Reject,
            default_budget: None,
            max_attempts: 3,
            retry_backoff_base: Duration::from_millis(1),
            retry_backoff_cap: Duration::from_millis(50),
            health: HealthPolicy::default(),
            quotas: Vec::new(),
            default_quota: TenantQuota::default(),
            breaker: CircuitPolicy::default(),
            brownout: BrownoutPolicy::default(),
            deadline_gate: true,
            observatory: ObservatoryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The quota in force for `tenant`.
    pub fn quota_for(&self, tenant: TenantId) -> TenantQuota {
        self.quotas
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }

    /// Retry delay before attempt `attempt` (1-based count of executions
    /// already consumed): `base << (attempt - 1)`, saturating at the cap.
    pub fn retry_backoff(&self, attempt: u32) -> Duration {
        if self.retry_backoff_base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(20);
        self.retry_backoff_base
            .checked_mul(1u32 << shift)
            .unwrap_or(self.retry_backoff_cap)
            .min(self.retry_backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let cfg = ServeConfig {
            retry_backoff_base: Duration::from_millis(2),
            retry_backoff_cap: Duration::from_millis(9),
            ..Default::default()
        };
        assert_eq!(cfg.retry_backoff(0), Duration::ZERO);
        assert_eq!(cfg.retry_backoff(1), Duration::from_millis(2));
        assert_eq!(cfg.retry_backoff(2), Duration::from_millis(4));
        assert_eq!(cfg.retry_backoff(3), Duration::from_millis(8));
        assert_eq!(cfg.retry_backoff(4), Duration::from_millis(9));
        assert_eq!(cfg.retry_backoff(u32::MAX), Duration::from_millis(9));
        let zero = ServeConfig {
            retry_backoff_base: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(zero.retry_backoff(5), Duration::ZERO);
    }

    #[test]
    fn quota_lookup_falls_back_to_default() {
        let cfg = ServeConfig {
            quotas: vec![(
                TenantId(3),
                TenantQuota {
                    weight: 4,
                    rate_rps: 10.0,
                    burst: 2.0,
                },
            )],
            default_quota: TenantQuota {
                weight: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(cfg.quota_for(TenantId(3)).weight, 4);
        assert_eq!(cfg.quota_for(TenantId(9)).weight, 2);
        assert_eq!(cfg.quota_for(TenantId(9)).rate_rps, 0.0);
    }
}
