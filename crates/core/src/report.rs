//! Plain-text table rendering for the reproduction tests.
//!
//! The implementation moved to `bfp_telemetry::report` so the stats
//! types below `bfp-core` in the dependency graph (platform, serve)
//! can render through the same `Table`; this module re-exports it to
//! keep `bfp_core::report::Table` / `bfp_core::Table` working.

pub use bfp_telemetry::report::*;
