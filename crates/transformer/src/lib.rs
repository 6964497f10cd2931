//! # bfp-transformer — the Transformer inference substrate
//!
//! A from-scratch ViT/DeiT encoder whose every operation routes through a
//! pluggable [`engine::Engine`]:
//!
//! * [`engine::RefEngine`] — IEEE f32 reference (the "pre-trained fp32
//!   model" the paper deploys without retraining);
//! * [`engine::MixedEngine`] — the accelerator's execution model: GEMMs in
//!   bfp8 through the quantize → int8 block MatMul → aligned-accumulate
//!   path, non-linear layers (softmax, GELU, LayerNorm) as fp32 VPU
//!   programs built only from hardware multiply/add + host division.
//!
//! [`flops::analytical_census`] reproduces the operation accounting behind
//! the paper's Table IV and is cross-checked against live engine counts.

// Index-based loops mirror the paper's (i, j, k) matrix notation and are
// clearer than iterator chains for the hardware datapath descriptions.
#![allow(clippy::needless_range_loop)]

pub mod attention;
pub mod config;
pub mod deit;
pub mod engine;
pub mod flops;
pub mod layers;
pub mod model;
pub mod plan;
pub mod reference;
pub mod vpu;

pub use attention::Attention;
pub use config::VitConfig;
pub use deit::{DeitConfig, DeitModel, Image};
pub use engine::{
    DivisionPolicy, Engine, Int8Engine, MixedEngine, OpCensus, PhaseTimes, PlanCacheStats,
    RefEngine,
};
pub use flops::{analytical_census, analytical_census_mode};
pub use layers::{LayerNormParams, Linear};
pub use model::{Block, VitModel};
pub use plan::CompiledVitPlan;
pub use vpu::{Datapath, NonlinearMode, OpCount, Vpu};
