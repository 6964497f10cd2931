//! # bfp-telemetry — the observability substrate of the stack
//!
//! Every layer of the reproduction produces numbers about itself: the
//! engine times its phases, the serving runtime counts admissions and
//! deadline misses, the fault layer tallies injections. This crate is
//! the one vocabulary they all publish through, so a single snapshot —
//! or a single Perfetto timeline — covers the whole system.
//!
//! Three pieces:
//!
//! * [`Registry`] — a metrics registry with typed handles. Handle
//!   *creation* takes a short-lived lock; *recording* through a handle
//!   is lock-free (relaxed atomics), so hot paths pay one atomic RMW
//!   per observation. Three instrument kinds: monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s. Snapshots render
//!   as Prometheus-style text or JSON.
//! * [`Tracer`] / [`SpanGuard`] — a span/event tracing core with no
//!   external dependency (the workspace is offline-vendored, so the
//!   `tracing` ecosystem is out of reach by design). Each thread
//!   records into its own buffer; spans carry causally-linked parent
//!   ids from a per-thread stack. [`Tracer::chrome_json`] exports the
//!   whole capture as Chrome Trace Event JSON that opens directly in
//!   `ui.perfetto.dev` (or `chrome://tracing`).
//! * [`chrome::ChromeTraceBuilder`] — the low-level Trace Event writer,
//!   also usable standalone so *other* timebases (e.g. the cycle-level
//!   systolic waveform in `bfp_pu::trace`) can land in the same
//!   timeline as the software spans.
//!
//! On top of those sit three serve-time observatory modules:
//! [`drift`] (predicted-vs-measured plan attribution with a calibrated
//! cycles-per-second factor), [`slo`] (multi-window burn-rate tracking
//! per tenant/priority stream), and [`recorder`] (a bounded
//! non-blocking flight recorder that dumps recent request timelines as
//! JSON + Perfetto trace when a trigger fires).
//!
//! The crate is dependency-free and always safe to link. The rest of the
//! workspace records into it only once a tracer is attached
//! (`MixedEngine::attach_tracer`, `Server::attach_tracer`).
//!
//! ## Quickstart
//!
//! ```
//! use bfp_telemetry::{Registry, Tracer};
//!
//! let reg = Registry::new();
//! let served = reg.counter("requests_served_total");
//! served.inc();
//! let lat = reg.histogram("request_ns");
//! lat.record(1_200_000);
//! assert!(reg.snapshot().to_prometheus_text().contains("requests_served_total 1"));
//!
//! let tracer = Tracer::new();
//! {
//!     let _req = tracer.span("request", "serve");
//!     let _gemm = tracer.span("gemm", "engine"); // child of `request`
//! }
//! let json = tracer.chrome_json(); // open in ui.perfetto.dev
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod drift;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod slo;
pub mod trace;

pub use chrome::ChromeTraceBuilder;
pub use drift::{NodeDrift, NodeSample, PlanDriftReport};
pub use recorder::{
    FlightAttempt, FlightDump, FlightRecord, FlightRecorder, ShadowSample, TriggerReason,
};
pub use registry::{series, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use report::{fmt_si, Table};
pub use slo::BurnTracker;
pub use trace::{EventKind, SpanGuard, TraceEvent, Tracer};
