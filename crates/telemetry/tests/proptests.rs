//! Property tests for the telemetry substrate: span nesting in exported
//! traces.

use bfp_telemetry::{EventKind, Tracer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exported spans nest: every child's interval lies fully inside
    /// its parent's, on the same thread, for arbitrary open/close
    /// sequences (depth follows a random walk).
    #[test]
    fn span_intervals_nest(walk in proptest::collection::vec(any::<bool>(), 1..60)) {
        let t = Tracer::new();
        {
            let mut open = Vec::new();
            for &push in &walk {
                if push {
                    open.push(t.span(format!("s{}", open.len()), "test"));
                } else {
                    open.pop(); // drop closes the innermost span
                }
            }
            while open.pop().is_some() {} // close innermost-first
        }
        let events = t.drain();
        for ev in &events {
            let EventKind::Span { dur_ns } = ev.kind else { continue };
            let Some(pid) = ev.parent else { continue };
            let parent = events
                .iter()
                .find(|p| p.id == pid)
                .expect("parent span must be exported");
            let EventKind::Span { dur_ns: pdur } = parent.kind else {
                panic!("parent must be a span");
            };
            prop_assert_eq!(ev.tid, parent.tid);
            prop_assert!(ev.ts_ns >= parent.ts_ns);
            prop_assert!(ev.ts_ns + dur_ns <= parent.ts_ns + pdur);
        }
    }
}

/// Spans recorded from multiple threads export with per-thread tids and
/// still nest within each thread.
#[test]
fn multi_thread_spans_nest_per_thread() {
    let t = Tracer::new();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let _outer = t.span("outer", "test");
                for _ in 0..3 {
                    let _inner = t.span("inner", "test");
                }
            });
        }
    });
    let events = t.drain();
    assert_eq!(events.len(), 16);
    for ev in events.iter().filter(|e| e.name == "inner") {
        let parent = events
            .iter()
            .find(|p| Some(p.id) == ev.parent)
            .expect("inner span has exported parent");
        assert_eq!(parent.name, "outer");
        assert_eq!(parent.tid, ev.tid);
    }
}
