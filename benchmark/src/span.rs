//! The traced run's span store: `bfp_telemetry::Tracer` keeps spans in
//! memory with the span that caused each; this module turns the capture
//! into self times and a Chrome-trace file when the run ends.

use std::collections::HashMap;
use std::time::Instant;

use bfp_telemetry::{ChromeTraceBuilder, EventKind, TraceEvent, Tracer};

/// One served request as the load generator saw it, recorded after the
/// fact from the response's timeline (seconds since the trace epoch).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub tenant: usize,
    pub due_s: f64,
    pub submit_s: f64,
    pub picked_s: f64,
    pub resolved_s: f64,
}

pub struct Trace {
    pub tracer: Tracer,
    pub epoch: Instant,
    pub requests: Vec<RequestSpan>,
}

/// Per-name span statistics out of a finished trace.
pub struct SpanTimes {
    /// Full duration of every span of a name, seconds.
    pub total: HashMap<String, Vec<f64>>,
    /// Duration minus the part covered by child spans, seconds.
    pub own: HashMap<String, Vec<f64>>,
}

impl Trace {
    pub fn new() -> Self {
        let epoch = Instant::now();
        Trace {
            tracer: Tracer::new(),
            epoch,
            requests: Vec::new(),
        }
    }

    /// Drain the capture: self times per span name, and the whole run as
    /// Chrome Trace Event JSON.
    pub fn finish(&self) -> (SpanTimes, String) {
        let events = self.tracer.drain();
        (span_times(&events), self.chrome_json(&events))
    }

    fn chrome_json(&self, events: &[TraceEvent]) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(1, "benchmark");
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            b.thread_name(1, tid, &format!("thread-{tid}"));
        }
        for ev in events {
            let ts_us = ev.ts_ns as f64 / 1e3;
            match ev.kind {
                EventKind::Span { dur_ns } => b.complete(
                    &ev.name,
                    ev.cat,
                    ts_us,
                    dur_ns as f64 / 1e3,
                    1,
                    ev.tid,
                    &ev.args,
                ),
                EventKind::Instant => b.instant(&ev.name, ev.cat, ts_us, 1, ev.tid, &ev.args),
                EventKind::Counter { value } => b.counter(&ev.name, ev.cat, ts_us, 1, value),
            }
        }
        // Requests overlap, and slices on one Chrome-trace thread must
        // nest, so each request goes to the first lane that is free when
        // it falls due.
        b.process_name(2, "requests");
        let mut lane_free_at: Vec<f64> = Vec::new();
        for r in &self.requests {
            let lane = match lane_free_at.iter().position(|&t| t <= r.due_s) {
                Some(l) => l,
                None => {
                    lane_free_at.push(0.0);
                    b.thread_name(2, lane_free_at.len() as u64 - 1, "lane");
                    lane_free_at.len() - 1
                }
            };
            lane_free_at[lane] = r.resolved_s;
            let tid = lane as u64;
            let args = [("tenant", r.tenant as u64)];
            let us = |s: f64| s * 1e6;
            b.complete(
                "request",
                "serve",
                us(r.due_s),
                us(r.resolved_s - r.due_s),
                2,
                tid,
                &args,
            );
            b.complete(
                "late",
                "serve",
                us(r.due_s),
                us(r.submit_s - r.due_s),
                2,
                tid,
                &[],
            );
            b.complete(
                "queue_wait",
                "serve",
                us(r.submit_s),
                us(r.picked_s - r.submit_s),
                2,
                tid,
                &[],
            );
            b.complete(
                "service",
                "serve",
                us(r.picked_s),
                us(r.resolved_s - r.picked_s),
                2,
                tid,
                &[],
            );
        }
        b.finish()
    }
}

/// Self time of a span = its duration minus the durations of the spans
/// it caused (children never overlap: they are opened and closed in
/// sequence on the parent's thread).
pub fn span_times(events: &[TraceEvent]) -> SpanTimes {
    let dur_s = |e: &TraceEvent| match e.kind {
        EventKind::Span { dur_ns } => Some(dur_ns as f64 / 1e9),
        _ => None,
    };
    let mut child_s: HashMap<u64, f64> = HashMap::new();
    for e in events {
        if let (Some(d), Some(parent)) = (dur_s(e), e.parent) {
            *child_s.entry(parent).or_default() += d;
        }
    }
    let mut times = SpanTimes {
        total: HashMap::new(),
        own: HashMap::new(),
    };
    for e in events {
        let Some(d) = dur_s(e) else { continue };
        let covered = child_s.get(&e.id).copied().unwrap_or(0.0);
        times.total.entry(e.name.clone()).or_default().push(d);
        times
            .own
            .entry(e.name.clone())
            .or_default()
            .push((d - covered).max(0.0));
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let trace = Trace::new();
        {
            let _outer = trace.tracer.span("outer", "t");
            for _ in 0..2 {
                let _inner = trace.tracer.span("inner", "t");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let (times, json) = trace.finish();
        let outer = times.total["outer"][0];
        let inner: f64 = times.total["inner"].iter().sum();
        assert_eq!(times.total["inner"].len(), 2);
        assert!(outer >= inner && inner >= 0.004);
        assert!((times.own["outer"][0] - (outer - inner)).abs() < 1e-9);
        assert_eq!(times.own["inner"], times.total["inner"]);
        assert!(json.contains("\"traceEvents\"") && json.contains("\"outer\""));
    }

    #[test]
    fn overlapping_requests_get_their_own_lanes() {
        let mut trace = Trace::new();
        let req = |due_s: f64, resolved_s: f64| RequestSpan {
            tenant: 0,
            due_s,
            submit_s: due_s,
            picked_s: due_s,
            resolved_s,
        };
        trace.requests = vec![req(0.0, 1.0), req(0.5, 0.8), req(1.5, 2.0)];
        let (_, json) = trace.finish();
        // The second request overlaps the first (lane 1); the third
        // reuses lane 0.
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert_eq!(json.matches("\"request\"").count(), 3);
    }
}
