//! # bfp-core — public API of the bfp8/fp32 multi-mode accelerator
//!
//! This crate ties the reproduction together behind the interface a
//! downstream user would program against:
//!
//! * [`Accelerator`] — the modelled Alveo U280 card: mixed-precision GEMMs,
//!   whole-Transformer inference with Table IV-style latency reports;
//! * [`compiler`] — lowers GEMMs onto the processing unit's instruction
//!   set (`bfp_pu::isa`);
//! * [`latency`] — the operations→time model calibrated to the paper's
//!   measured operating points;
//! * [`report`] — plain-text table rendering used by every reproduction
//!   binary.
//!
//! ## Quickstart
//!
//! ```
//! use bfp_core::Accelerator;
//! use bfp_core::prelude::*;
//!
//! let acc = Accelerator::u280();
//! let a = MatF32::from_fn(64, 64, |i, j| ((i * j) as f32 * 0.01).sin());
//! let b = MatF32::from_fn(64, 64, |i, j| ((i + j) as f32 * 0.02).cos());
//! let (product, report) = acc.gemm(&a, &b);
//! assert_eq!(product.rows(), 64);
//! assert!(report.gops() > 0.0);
//! ```

// Index-based loops mirror the paper's (i, j, k) matrix notation and are
// clearer than iterator chains for the hardware datapath descriptions.
#![allow(clippy::needless_range_loop)]

pub mod accelerator;
pub mod compiler;
pub mod drift;
pub mod fastgemm;
pub mod graph;
pub mod latency;
pub mod planner;
pub mod report;
pub mod resilient;
pub mod scheduler;
pub mod vprog;
pub mod vpucost;

pub use accelerator::{Accelerator, GemmReport, InferenceReport};
pub use compiler::{compile_gemm, compile_gemm_blocks, CompiledGemm, DrainSlot};
pub use drift::{attribute_plan_drift, canonical_node_key, drift_samples, node_times, NodeTime};
pub use fastgemm::{packed_matmul, ParallelPolicy};
pub use graph::{lower_vit, Graph, OpKind, OpNode};
pub use latency::{Breakdown, LatencyModel, Partition};
pub use planner::{plan_fusion, FuseDecision, FuseKind, FusePlan, PlanNode, PlanTiming};
pub use report::{fmt_si, Table};
pub use resilient::{
    abft_fault_report, resilient_matmul, resilient_matmul_with, RecoveryPolicy, ResilientOutcome,
};
pub use scheduler::{abft_overhead_cycles, quantize_pack_cycles, schedule, Level, Schedule};
// Fault accounting types surface through `GemmReport`/`SystemStats`.
pub use bfp_faults::{FaultCounters, FaultReport};
pub use vprog::{
    compile_exp, compile_recip, compile_softmax, DivMode, VBuilder, VInstr, VMachine, VProgram,
};
pub use vpucost::{nonlinear_cycles, op_mix};

/// Commonly used types from across the workspace.
pub mod prelude {
    pub use bfp_arith::matrix::MatF32;
    pub use bfp_arith::quant::Quantizer;
    pub use bfp_arith::stats::ErrorStats;
    pub use bfp_platform::{System, SystemConfig, U280};
    pub use bfp_pu::unit::ProcessingUnit;
    pub use bfp_transformer::{
        DivisionPolicy, Engine, MixedEngine, NonlinearMode, OpCount, RefEngine, VitConfig,
        VitModel, Vpu,
    };
}
