//! # bfp-platform — Alveo U280 platform model
//!
//! Everything around the processing units that the paper's evaluation
//! depends on but that Rust cannot synthesise: device resource totals,
//! an analytical utilisation model calibrated to the published synthesis
//! results (Table II, Fig. 6), the HBM/AXI timing model that separates
//! measured from theoretical throughput (Fig. 7), the multi-array
//! card-level simulator, and the Table III related-work dataset.

pub mod axi;
pub mod hbm;
pub mod nonlinear;
pub mod related;
pub mod resources;
pub mod roofline;
pub mod system;
pub mod u280;

pub use axi::AxiParams;
pub use hbm::MemParams;
pub use nonlinear::{NonlinearUnit, VpuOpMix};
pub use related::{paper_ours_row, prior_works, RelatedWork};
pub use resources::{ArrayParams, Component, DesignVariant, PuCostModel, ResourceVec};
pub use roofline::{bfp8_pass_intensity, fp32_stream_intensity, Roofline};
pub use system::{System, SystemStats, SHELL};
pub use u280::{SystemConfig, U280};
