//! # bfp-telemetry — the observability substrate of the stack
//!
//! Every layer of the reproduction produces numbers about itself: the
//! engine times its phases, the serving runtime times each request's
//! queue wait and service, the systolic model emits its waveform. This
//! crate is the one timeline they all record into, so a single Perfetto
//! trace covers the whole system. Counts stay with the layer that owns
//! them (the engine's `census()`, the server's `ServeStats`, the fault
//! layer's `FaultReport`).
//!
//! Two pieces:
//!
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
//! use bfp_telemetry::Tracer;
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
pub mod report;
pub mod slo;
pub mod trace;

pub use chrome::ChromeTraceBuilder;
pub use drift::{NodeDrift, NodeSample, PlanDriftReport};
pub use recorder::{
    FlightAttempt, FlightDump, FlightRecord, FlightRecorder, ShadowSample, TriggerReason,
};
pub use report::{fmt_si, Table};
pub use slo::BurnTracker;
pub use trace::{EventKind, SpanGuard, TraceEvent, Tracer};
