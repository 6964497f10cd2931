//! The serve-time observatory: SLO burn-rate tracking per
//! tenant/priority stream, the sampled shadow-execution lane checking
//! fast-kernel outputs against the exact oracle, and the anomaly
//! flight recorder that dumps recent request timelines when a trigger
//! fires.
//!
//! The observatory lives beside the scheduler, not inside it: the
//! runtime calls [`Observatory::record_completion`] with each resolved
//! request (a non-blocking ring push plus an O(1) burn-rate bucket
//! update), and everything heavier — the exact-oracle shadow re-run,
//! dump serialization — happens off the scheduler lock or only when a
//! trigger actually fires. The newest [`MAX_PENDING_DUMPS`] dumps are
//! held in memory until the embedder drains them
//! ([`crate::Server::take_flight_dumps`]) and renders them as JSON
//! ([`FlightDump::to_json`]) or a Perfetto trace
//! ([`FlightDump::to_chrome_trace`]); older undrained dumps are dropped,
//! so a server nobody drains holds bounded memory.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_arith::ulp::{EnvelopeStats, UlpEnvelope};
use bfp_core::prelude::NonlinearMode;
use bfp_telemetry::recorder::{FlightDump, FlightRecord, FlightRecorder, TriggerReason};
use bfp_telemetry::slo::BurnTracker;
use bfp_telemetry::ShadowSample;

use crate::backend::{reference_bits, ServeOp};
use crate::serving::Priority;

/// Serve-time envelope for a fast-mode output against the exact
/// oracle. A fast `GemmGelu` differs from exact only in the GELU
/// epilogue, so the bound is the pinned fast-GELU envelope (16 ulp,
/// 1.5e-6 abs floor on the exact adder — see DESIGN "Fast nonlinear
/// kernels") with 2× headroom; a bare `Gemm` is mode-independent and
/// trivially inside it.
pub const SHADOW_ENVELOPE: UlpEnvelope = UlpEnvelope::new(32, 3.0e-6);

/// Undrained flight dumps kept; a newer dump evicts the oldest.
pub const MAX_PENDING_DUMPS: usize = 16;
/// Flight-recorder ring capacity (most recent completed requests).
const RECORDER_CAPACITY: usize = 128;
/// SLO error budget: allowed deadline-miss fraction per tenant ×
/// priority stream.
const SLO_BUDGET: f64 = 0.05;
/// Burn rate at or above which (on every window) a stream trips the
/// flight recorder.
const BURN_ALERT: f64 = 4.0;
/// Burn-rate windows, seconds. Serve benches run on second timescales,
/// so the ladder is much faster than wall-clock SLO practice.
const BURN_WINDOWS_S: [f64; 2] = [0.5, 5.0];

/// Observatory knobs, embedded in [`crate::ServeConfig`].
#[derive(Debug, Clone)]
pub struct ObservatoryConfig {
    /// Minimum spacing between flight-recorder dumps.
    pub dump_cooldown: Duration,
    /// Shadow-execute one in `shadow_every` clean fast-mode completions
    /// against the exact oracle (`0` disables the shadow lane).
    pub shadow_every: u64,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            dump_cooldown: Duration::from_millis(250),
            shadow_every: 0,
        }
    }
}

/// Shadow-lane tallies (lock-free counters). Per-sample errors travel
/// in the flight records, and a violation's `max_ulp` in its
/// `serve.envelope_violation` trace instant.
#[derive(Debug, Default)]
struct ShadowCounters {
    tick: AtomicU64,
    samples: AtomicU64,
    violations: AtomicU64,
}

/// The observatory state owned by a running [`crate::Server`].
pub struct Observatory {
    cfg: ObservatoryConfig,
    epoch: Instant,
    recorder: FlightRecorder,
    /// Burn tracker per (tenant, priority-index) stream.
    burn: Mutex<BTreeMap<(u64, usize), BurnTracker>>,
    /// Undrained dumps, oldest first, at most [`MAX_PENDING_DUMPS`].
    dumps: Mutex<VecDeque<FlightDump>>,
    shadow: ShadowCounters,
}

impl Observatory {
    /// A fresh observatory; `epoch` anchors the server clock that all
    /// burn windows and dump timestamps are expressed in.
    pub fn new(cfg: ObservatoryConfig, epoch: Instant) -> Self {
        let recorder = FlightRecorder::new(RECORDER_CAPACITY, cfg.dump_cooldown.as_secs_f64());
        Observatory {
            cfg,
            epoch,
            recorder,
            burn: Mutex::new(BTreeMap::new()),
            dumps: Mutex::new(VecDeque::new()),
            shadow: ShadowCounters::default(),
        }
    }

    /// Seconds on the server clock.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Seconds from the server epoch to `t` (0 for pre-epoch instants).
    pub fn rel_s(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Whether this clean fast-mode completion should be re-run through
    /// the exact oracle (every `shadow_every`-th ticks the lane).
    pub fn should_shadow(&self, mode: NonlinearMode) -> bool {
        if self.cfg.shadow_every == 0 || mode != NonlinearMode::Fast {
            return false;
        }
        self.shadow
            .tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.cfg.shadow_every)
    }

    /// Shadow-execute: compare a fast-mode output against the exact
    /// oracle under [`SHADOW_ENVELOPE`]. Runs the full exact reference
    /// — callers invoke it off the scheduler lock.
    pub fn shadow_sample(
        &self,
        a: &MatF32,
        b: &MatF32,
        op: ServeOp,
        fast_out: &MatF32,
    ) -> ShadowSample {
        let exact = reference_bits(a, b, op, NonlinearMode::Exact);
        let mut stats = EnvelopeStats::new();
        for (got, want) in fast_out.data().iter().zip(exact.data()) {
            stats.record(*got, *want, &SHADOW_ENVELOPE);
        }
        let sample = ShadowSample {
            max_ulp: stats.max_ulp,
            max_abs: stats.max_abs as f64,
            sqnr_db: stats.sqnr_db(),
            violation: stats.violations > 0,
        };
        self.shadow.samples.fetch_add(1, Ordering::Relaxed);
        if sample.violation {
            self.shadow.violations.fetch_add(1, Ordering::Relaxed);
        }
        sample
    }

    /// Shadow-lane envelope violations so far.
    pub fn envelope_violations(&self) -> u64 {
        self.shadow.violations.load(Ordering::Relaxed)
    }

    /// Shadow-lane samples taken so far.
    pub fn shadow_samples(&self) -> u64 {
        self.shadow.samples.load(Ordering::Relaxed)
    }

    /// Records dropped because their ring slot was contended (the push
    /// is non-blocking by design).
    pub fn records_dropped(&self) -> u64 {
        self.recorder.dropped()
    }

    /// Record one resolved request: ring push, burn-rate update for its
    /// `priority` stream, and a burn-rate trigger check. `bad` marks SLO
    /// budget consumption (deadline misses and sheds).
    pub fn record_completion(&self, record: FlightRecord, priority: Priority, bad: bool) {
        let now_s = self.now_s();
        let key = (record.tenant as u64, priority.index());
        self.recorder.push(record);
        let mut burn = self.burn.lock().unwrap();
        let tracker = burn
            .entry(key)
            .or_insert_with(|| BurnTracker::with_windows(SLO_BUDGET, &BURN_WINDOWS_S));
        tracker.record(now_s, bad);
        let alerting = tracker.alerting(BURN_ALERT, now_s);
        let burn_now = tracker.max_burn(now_s);
        drop(burn);
        if alerting {
            self.trigger(
                TriggerReason::BurnRate,
                format!("tenant {} burn {:.1}x budget", key.0, burn_now),
            );
        }
    }

    /// Fire the flight recorder (rate-limited by the dump cooldown);
    /// the dump is queued for [`Self::take_dumps`], evicting the oldest
    /// undrained one once [`MAX_PENDING_DUMPS`] are queued.
    pub fn trigger(&self, reason: TriggerReason, detail: impl Into<String>) {
        if let Some(dump) = self.recorder.trigger(reason, self.now_s(), detail) {
            let mut dumps = self.dumps.lock().unwrap();
            if dumps.len() == MAX_PENDING_DUMPS {
                dumps.pop_front();
            }
            dumps.push_back(dump);
        }
    }

    /// Dumps taken since start, drained or not: the ones evicted
    /// undrained number `dumps_taken` minus those [`Self::take_dumps`]
    /// returned.
    pub fn dumps_taken(&self) -> u64 {
        self.recorder.dumps_taken()
    }

    /// Drain the queued flight-recorder dumps, oldest first.
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().unwrap().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_telemetry::recorder::FlightAttempt;

    fn record(tenant: usize, priority: &str, missed: bool) -> FlightRecord {
        FlightRecord {
            id: 1,
            tenant,
            priority: priority.into(),
            start_s: 0.0,
            queue_wait_s: 0.0,
            total_s: 0.001,
            deadline_missed: missed,
            outcome: if missed { "deadline_miss" } else { "ok" }.into(),
            attempts: vec![FlightAttempt {
                array: 0,
                modelled_s: 0.001,
                faulted: false,
                mode: "exact".into(),
            }],
            shadow: None,
        }
    }

    #[test]
    fn sustained_misses_trip_the_burn_trigger() {
        let obs = Observatory::new(
            ObservatoryConfig {
                dump_cooldown: Duration::from_secs(3600),
                ..Default::default()
            },
            Instant::now(),
        );
        // 100% deadline misses against a 5% budget: burn 20x on every
        // window → exactly one dump (cooldown suppresses the rest).
        for _ in 0..50 {
            obs.record_completion(record(3, "standard", true), Priority::Standard, true);
        }
        let dumps = obs.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, TriggerReason::BurnRate);
        assert!(dumps[0].detail.contains("tenant 3"), "{}", dumps[0].detail);
        assert!(!dumps[0].records.is_empty());
        assert!(obs.take_dumps().is_empty(), "drained");
    }

    #[test]
    fn clean_traffic_never_triggers() {
        let obs = Observatory::new(ObservatoryConfig::default(), Instant::now());
        for _ in 0..200 {
            obs.record_completion(record(0, "critical", false), Priority::Critical, false);
        }
        assert!(obs.take_dumps().is_empty());
    }

    #[test]
    fn undrained_dumps_keep_only_the_newest() {
        let obs = Observatory::new(
            ObservatoryConfig {
                dump_cooldown: Duration::ZERO,
                ..Default::default()
            },
            Instant::now(),
        );
        let fired = MAX_PENDING_DUMPS as u64 + 5;
        for i in 0..fired {
            obs.trigger(TriggerReason::BrownoutEscalation, format!("escalation {i}"));
        }
        assert_eq!(obs.dumps_taken(), fired, "every trigger took a dump");
        let seqs: Vec<u64> = obs.take_dumps().iter().map(|d| d.seq).collect();
        let newest: Vec<u64> = (5..fired).collect();
        assert_eq!(seqs, newest, "the oldest five were evicted undrained");
        assert!(obs.take_dumps().is_empty(), "drained");
    }

    #[test]
    fn shadow_lane_samples_one_in_n_fast_requests() {
        let obs = Observatory::new(
            ObservatoryConfig {
                shadow_every: 4,
                ..Default::default()
            },
            Instant::now(),
        );
        let fast: Vec<bool> = (0..16)
            .map(|_| obs.should_shadow(NonlinearMode::Fast))
            .collect();
        assert_eq!(fast.iter().filter(|&&s| s).count(), 4);
        assert!(
            !obs.should_shadow(NonlinearMode::Exact),
            "exact never shadows"
        );
    }

    #[test]
    fn shadow_sample_accepts_fast_gelu_within_envelope() {
        let obs = Observatory::new(
            ObservatoryConfig {
                shadow_every: 1,
                ..Default::default()
            },
            Instant::now(),
        );
        let a = MatF32::from_fn(12, 8, |i, j| ((i * 5 + j * 3) % 13) as f32 * 0.21 - 1.3);
        let b = MatF32::from_fn(8, 10, |i, j| ((i * 7 + j) % 11) as f32 * 0.17 - 0.8);
        let fast = reference_bits(&a, &b, ServeOp::GemmGelu, NonlinearMode::Fast);
        let s = obs.shadow_sample(&a, &b, ServeOp::GemmGelu, &fast);
        assert!(!s.violation, "fast GELU stays inside the pinned envelope");
        assert_eq!(obs.shadow_samples(), 1);
        assert_eq!(obs.envelope_violations(), 0);

        // A corrupted output violates and is counted.
        let mut bad = fast.clone();
        let v = bad.get(0, 0);
        bad.set(0, 0, v + 1.0);
        let s = obs.shadow_sample(&a, &b, ServeOp::GemmGelu, &bad);
        assert!(s.violation);
        assert_eq!(obs.envelope_violations(), 1);
    }
}
