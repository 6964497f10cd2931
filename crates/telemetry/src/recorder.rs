//! Anomaly flight recorder: a bounded, non-blocking ring of recent
//! request records that can be dumped on a trigger.
//!
//! The recorder is a black box in the aviation sense — it continuously
//! overwrites itself with the most recent N completed requests, costing
//! one `try_lock` + move per request on the hot path, and only
//! materialises anything when a trigger fires (SLO burn-rate over
//! budget, numeric envelope violation, brownout escalation). The dump
//! pairs a JSON snapshot (schema `flight_recorder/v1`) with a
//! Perfetto/Chrome-loadable trace so the offending request's timeline
//! can be inspected visually next to its neighbours.
//!
//! Push never blocks: each slot is an independent mutex and a writer
//! that loses a `try_lock` race simply drops the record (the slot
//! holder is a request from the same recent window, so the ring stays
//! representative). Triggers are rate-limited by a cooldown so a storm
//! of violations produces one dump per window, not thousands.

use crate::chrome::ChromeTraceBuilder;
use crate::json;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One execution attempt inside a [`FlightRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightAttempt {
    /// Array the attempt ran on.
    pub array: usize,
    /// Modelled execution seconds for the attempt.
    pub modelled_s: f64,
    /// Whether the attempt was killed by a fault.
    pub faulted: bool,
    /// Nonlinear mode the attempt ran under (e.g. `"exact"`, `"fast"`).
    pub mode: String,
}

/// Numeric-health sample attached by the shadow-execution lane.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowSample {
    /// Worst ULP distance vs the exact oracle.
    pub max_ulp: u64,
    /// Worst absolute error vs the exact oracle.
    pub max_abs: f64,
    /// Signal-to-quantization-noise ratio in dB.
    pub sqnr_db: f64,
    /// True when the sample escaped the proven envelope.
    pub violation: bool,
}

/// One completed request, as remembered by the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Request id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Priority label (e.g. `"critical"`, `"bulk"`).
    pub priority: String,
    /// Admission time, seconds on the server clock.
    pub start_s: f64,
    /// Seconds spent queued before the first attempt.
    pub queue_wait_s: f64,
    /// Admission-to-completion seconds.
    pub total_s: f64,
    /// Whether the request missed its deadline.
    pub deadline_missed: bool,
    /// Terminal outcome (`"ok"`, `"shed"`, `"failed"`, ...).
    pub outcome: String,
    /// Execution attempts, in order.
    pub attempts: Vec<FlightAttempt>,
    /// Shadow-lane numeric sample, when this request was sampled.
    pub shadow: Option<ShadowSample>,
}

/// Why a dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// A tenant/priority stream burned SLO budget over threshold.
    BurnRate,
    /// The shadow lane caught an output outside its proven envelope.
    EnvelopeViolation,
    /// The server escalated to a deeper brownout tier.
    BrownoutEscalation,
}

impl TriggerReason {
    /// Stable string form used in dumps and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerReason::BurnRate => "burn_rate",
            TriggerReason::EnvelopeViolation => "envelope_violation",
            TriggerReason::BrownoutEscalation => "brownout_escalation",
        }
    }
}

/// A materialised snapshot of the ring, taken at a trigger.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What fired the trigger.
    pub reason: TriggerReason,
    /// Dump sequence number (0-based, per recorder).
    pub seq: u64,
    /// Server-clock time the trigger fired.
    pub trigger_s: f64,
    /// Free-form trigger detail (tenant, burn value, ...).
    pub detail: String,
    /// Records captured from the ring, oldest first.
    pub records: Vec<FlightRecord>,
}

/// Bounded non-blocking flight recorder.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightRecord>>>,
    cursor: AtomicU64,
    /// Records dropped because a slot lock was contended.
    dropped: AtomicU64,
    pushed: AtomicU64,
    dumps_taken: AtomicU64,
    /// Minimum seconds between dumps.
    cooldown_s: f64,
    /// Bit pattern of the last trigger time (f64), u64::MAX = never.
    last_trigger: AtomicU64,
}

impl FlightRecorder {
    /// Recorder remembering the last `capacity` requests, with at most
    /// one dump per `cooldown_s` seconds.
    pub fn new(capacity: usize, cooldown_s: f64) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            dumps_taken: AtomicU64::new(0),
            cooldown_s,
            last_trigger: AtomicU64::new(u64::MAX),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records successfully pushed since creation.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Records dropped to lock contention since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dumps taken since creation.
    pub fn dumps_taken(&self) -> u64 {
        self.dumps_taken.load(Ordering::Relaxed)
    }

    /// Remember a completed request. Never blocks: if the target slot
    /// is locked by a concurrent reader/writer, the record is dropped
    /// and counted in [`dropped`](Self::dropped).
    pub fn push(&self, record: FlightRecord) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (at % self.slots.len() as u64) as usize;
        match self.slots[slot].try_lock() {
            Ok(mut g) => {
                *g = Some(record);
                self.pushed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the ring without consuming it, oldest record first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = Vec::with_capacity(self.slots.len());
        let cur = self.cursor.load(Ordering::Relaxed);
        let n = self.slots.len() as u64;
        // Walk slots in ring order starting at the oldest.
        for off in 0..n {
            let slot = ((cur + off) % n) as usize;
            if let Ok(g) = self.slots[slot].try_lock() {
                if let Some(r) = g.as_ref() {
                    out.push(r.clone());
                }
            }
        }
        out.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        out
    }

    /// Fire a trigger at `now_s`. Returns the dump, or `None` while
    /// inside the cooldown window from the previous dump.
    pub fn trigger(
        &self,
        reason: TriggerReason,
        now_s: f64,
        detail: impl Into<String>,
    ) -> Option<FlightDump> {
        let prev = self.last_trigger.load(Ordering::Relaxed);
        if prev != u64::MAX {
            let prev_s = f64::from_bits(prev);
            if now_s - prev_s < self.cooldown_s {
                return None;
            }
        }
        // Races here at worst produce one extra dump; dumps are rare
        // and idempotent, so a CAS loop is not worth the complexity.
        self.last_trigger.store(now_s.to_bits(), Ordering::Relaxed);
        let seq = self.dumps_taken.fetch_add(1, Ordering::Relaxed);
        Some(FlightDump {
            reason,
            seq,
            trigger_s: now_s,
            detail: detail.into(),
            records: self.snapshot(),
        })
    }
}

impl FlightDump {
    /// JSON snapshot, schema `flight_recorder/v1`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"flight_recorder/v1\",\n");
        let _ = writeln!(s, "  \"reason\": {},", json::string(self.reason.as_str()));
        let _ = writeln!(s, "  \"seq\": {},", self.seq);
        let _ = write!(s, "  \"trigger_s\": ");
        json::write_f64(&mut s, self.trigger_s);
        s.push_str(",\n");
        let _ = writeln!(s, "  \"detail\": {},", json::string(&self.detail));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": {}, \"tenant\": {}, \"priority\": {}, \
                 \"start_s\": {:.6}, \"queue_wait_s\": {:.6}, \"total_s\": {:.6}, \
                 \"deadline_missed\": {}, \"outcome\": {}, \"attempts\": [",
                r.id,
                r.tenant,
                json::string(&r.priority),
                r.start_s,
                r.queue_wait_s,
                r.total_s,
                r.deadline_missed,
                json::string(&r.outcome),
            );
            for (j, a) in r.attempts.iter().enumerate() {
                let _ = write!(
                    s,
                    "{{\"array\": {}, \"modelled_s\": {:.6}, \"faulted\": {}, \"mode\": {}}}{}",
                    a.array,
                    a.modelled_s,
                    a.faulted,
                    json::string(&a.mode),
                    if j + 1 == r.attempts.len() { "" } else { ", " }
                );
            }
            s.push_str("], \"shadow\": ");
            match &r.shadow {
                Some(sh) => {
                    let _ = write!(
                        s,
                        "{{\"max_ulp\": {}, \"max_abs\": {:e}, \"sqnr_db\": {:.2}, \
                         \"violation\": {}}}",
                        sh.max_ulp, sh.max_abs, sh.sqnr_db, sh.violation
                    );
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                "}}{}",
                if i + 1 == self.records.len() { "\n" } else { ",\n" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Perfetto/Chrome-loadable trace of the captured window. Each
    /// tenant renders as a process; a request's queue wait and each
    /// execution attempt render as complete events on the attempt's
    /// array track, and the trigger itself as an instant event.
    pub fn to_chrome_trace(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        let us = |s: f64| s.max(0.0) * 1e6;
        let mut named: Vec<usize> = Vec::new();
        for r in &self.records {
            let pid = r.tenant as u64 + 1;
            if !named.contains(&r.tenant) {
                named.push(r.tenant);
                b.process_name(pid, &format!("tenant {}", r.tenant));
                b.thread_name(pid, 0, "queue");
            }
            let t0 = us(r.start_s);
            if r.queue_wait_s > 0.0 {
                b.complete(
                    &format!("req {} wait ({})", r.id, r.priority),
                    "flight.queue",
                    t0,
                    us(r.queue_wait_s),
                    pid,
                    0,
                    &[("id", r.id)],
                );
            }
            let mut at = t0 + us(r.queue_wait_s);
            for a in &r.attempts {
                let tid = a.array as u64 + 1;
                b.thread_name(pid, tid, &format!("array {}", a.array));
                let name = format!(
                    "req {} {}{}",
                    r.id,
                    a.mode,
                    if a.faulted { " FAULT" } else { "" }
                );
                b.complete(
                    &name,
                    if a.faulted { "flight.fault" } else { "flight.exec" },
                    at,
                    us(a.modelled_s),
                    pid,
                    tid,
                    &[("id", r.id), ("faulted", a.faulted as u64)],
                );
                at += us(a.modelled_s);
            }
            if r.deadline_missed {
                b.instant(
                    &format!("req {} deadline miss", r.id),
                    "flight.slo",
                    t0 + us(r.total_s),
                    pid,
                    0,
                    &[("id", r.id)],
                );
            }
            if let Some(sh) = &r.shadow {
                if sh.violation {
                    b.instant(
                        &format!("req {} envelope violation", r.id),
                        "flight.numeric",
                        t0 + us(r.total_s),
                        pid,
                        0,
                        &[("id", r.id), ("max_ulp", sh.max_ulp)],
                    );
                }
            }
        }
        b.process_name(0, "flight recorder");
        b.instant(
            &format!("TRIGGER {} ({})", self.reason.as_str(), self.detail),
            "flight.trigger",
            us(self.trigger_s),
            0,
            0,
            &[("seq", self.seq)],
        );
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, tenant: usize, start_s: f64) -> FlightRecord {
        FlightRecord {
            id,
            tenant,
            priority: "critical".into(),
            start_s,
            queue_wait_s: 0.001,
            total_s: 0.005,
            deadline_missed: id.is_multiple_of(2),
            outcome: "ok".into(),
            attempts: vec![
                FlightAttempt {
                    array: 0,
                    modelled_s: 0.002,
                    faulted: true,
                    mode: "exact".into(),
                },
                FlightAttempt {
                    array: 1,
                    modelled_s: 0.002,
                    faulted: false,
                    mode: "fast".into(),
                },
            ],
            shadow: Some(ShadowSample {
                max_ulp: 3,
                max_abs: 1e-3,
                sqnr_db: 42.0,
                violation: id == 7,
            }),
        }
    }

    #[test]
    fn ring_keeps_most_recent_capacity_records() {
        let fr = FlightRecorder::new(4, 0.0);
        for i in 0..10u64 {
            fr.push(rec(i, 0, i as f64));
        }
        assert_eq!(fr.pushed(), 10);
        assert_eq!(fr.dropped(), 0);
        let snap = fr.snapshot();
        let ids: Vec<u64> = snap.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest-first, last 4 survive");
    }

    #[test]
    fn trigger_respects_cooldown() {
        let fr = FlightRecorder::new(4, 10.0);
        fr.push(rec(1, 0, 0.5));
        let d0 = fr.trigger(TriggerReason::BurnRate, 1.0, "tenant 0");
        assert!(d0.is_some());
        assert!(fr
            .trigger(TriggerReason::EnvelopeViolation, 5.0, "x")
            .is_none());
        let d1 = fr.trigger(TriggerReason::BrownoutEscalation, 12.0, "tier 2");
        assert!(d1.is_some());
        assert_eq!(d1.unwrap().seq, 1);
        assert_eq!(fr.dumps_taken(), 2);
    }

    #[test]
    fn dump_json_matches_schema_and_balances() {
        let fr = FlightRecorder::new(8, 0.0);
        fr.push(rec(7, 2, 1.0));
        fr.push(FlightRecord {
            shadow: None,
            attempts: vec![],
            ..rec(8, 0, 2.0)
        });
        let d = fr
            .trigger(TriggerReason::EnvelopeViolation, 3.0, "req 7")
            .unwrap();
        let j = d.to_json();
        assert!(j.contains("\"schema\": \"flight_recorder/v1\""), "{j}");
        assert!(j.contains("\"reason\": \"envelope_violation\""), "{j}");
        assert!(j.contains("\"violation\": true"), "{j}");
        assert!(j.contains("\"shadow\": null"), "{j}");
        for key in "id tenant priority queue_wait_s total_s outcome attempts".split(' ') {
            assert_eq!(j.matches(&format!("\"{key}\": ")).count(), 2, "{key}: {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count(), "{j}");
    }

    #[test]
    fn chrome_trace_contains_timeline_and_trigger() {
        let fr = FlightRecorder::new(8, 0.0);
        fr.push(rec(7, 2, 1.0));
        let d = fr.trigger(TriggerReason::BurnRate, 2.0, "burn 6.0x").unwrap();
        let t = d.to_chrome_trace();
        assert!(t.contains("\"traceEvents\""), "{t}");
        assert!(t.contains("req 7 exact FAULT"), "{t}");
        assert!(t.contains("req 7 fast"), "{t}");
        assert!(t.contains("req 7 envelope violation"), "{t}");
        assert!(t.contains("TRIGGER burn_rate"), "{t}");
        assert!(t.contains("tenant 2"), "{t}");
        assert!(t.contains("\"cat\": \"flight.exec\", \"ph\": \"X\""), "{t}");
        assert_eq!(t.matches('{').count(), t.matches('}').count(), "{t}");
    }

    #[test]
    fn push_under_contention_drops_instead_of_blocking() {
        let fr = FlightRecorder::new(1, 0.0);
        let _held = fr.slots[0].lock().unwrap();
        fr.push(rec(1, 0, 0.0));
        assert_eq!(fr.dropped(), 1);
        assert_eq!(fr.pushed(), 0);
    }
}
