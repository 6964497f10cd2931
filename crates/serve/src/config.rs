//! Runtime policy knobs: admission, tenancy, retries, the brownout
//! ladder, and the health state machine.

use std::time::Duration;

use crate::observatory::ObservatoryConfig;
use crate::serving::TenantId;

/// What `submit` does when the admission queue is full. Shedding is
/// priority-aware: it always picks a victim from the lowest
/// non-`Critical` class at or below the incoming request's priority —
/// `Critical` work is never evicted.
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
    /// Total executions a request may consume (first try + retries)
    /// before it fails with [`crate::ServeError::FaultsExhausted`].
    pub max_attempts: u32,
    /// Health state machine policy.
    pub health: HealthPolicy,
    /// Per-tenant quotas/weights; tenants not listed get
    /// [`TenantQuota::default`] (weight 1, no rate limit).
    pub quotas: Vec<(TenantId, TenantQuota)>,
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
            max_attempts: 3,
            health: HealthPolicy::default(),
            quotas: Vec::new(),
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
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ..Default::default()
        };
        assert_eq!(cfg.quota_for(TenantId(3)).weight, 4);
        assert_eq!(cfg.quota_for(TenantId(9)), TenantQuota::default());
    }
}
