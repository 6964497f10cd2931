//! # bfp-arith — bit-accurate low-bitwidth floating-point arithmetic
//!
//! This crate implements the two number systems used by the multi-mode
//! processing unit of *"A Case for Low Bitwidth Floating Point Arithmetic on
//! FPGA for Transformer Based DNN Inference"* (IPDPS-W 2024):
//!
//! * **bfp8** — 8-bit block floating point: an 8×8 block of values shares a
//!   single 8-bit two's-complement exponent while every element carries its
//!   own 8-bit two's-complement mantissa (paper Eqn. 1). Block matrix
//!   multiplication reduces to an int8 exponent addition plus an int8 matrix
//!   multiply (Eqn. 2); block addition aligns mantissas by the exponent
//!   difference (Eqn. 3).
//! * **sliced fp32** — IEEE-754 single precision with the sign fused into a
//!   24-bit signed-magnitude mantissa. Multiplication decomposes the mantissa
//!   into three 8-bit slices and sums nine int8 partial products with shifts
//!   (Eqn. 5); the hardware drops the least-significant partial product to
//!   fit the 8-row systolic array. Addition aligns, adds, and renormalises
//!   (Eqn. 6). Results are truncated, not rounded, as in the paper.
//!
//! Everything here is *functional* (value-level) and bit-exact with respect
//! to the datapaths modelled in `bfp-dsp48` and simulated cycle-by-cycle in
//! `bfp-pu`: the processing-unit simulator cross-checks its outputs against
//! this crate.
//!
//! ## Quick example
//!
//! ```
//! use bfp_arith::{BfpBlock, HwFp32Mul, MulVariant};
//!
//! // Quantize an 8x8 tile to bfp8 and multiply two blocks exactly.
//! let a = [[1.0f32; 8]; 8];
//! let b = [[0.5f32; 8]; 8];
//! let xa = BfpBlock::quantize(&a);
//! let xb = BfpBlock::quantize(&b);
//! let prod = xa.matmul(&xb);
//! assert!((prod.to_f32()[0][0] - 4.0).abs() < 1e-3);
//!
//! // Multiply two fp32 numbers the way the hardware does it.
//! let hw = HwFp32Mul::new(MulVariant::DropLsp);
//! let z = hw.mul(1.5f32, -2.25f32);
//! assert_eq!(z, -3.375);
//! ```

// Index-based loops mirror the paper's (i, j, k) matrix notation and are
// clearer than iterator chains for the hardware datapath descriptions.
#![allow(clippy::needless_range_loop)]

pub mod abft;
pub mod bfp;
pub mod cancel;
pub mod error;
pub mod fpadd;
pub mod fplanes;
pub mod guard;
pub mod fpmul;
pub mod halffp;
pub mod int8;
pub mod int8quant;
pub mod matrix;
pub mod packed;
pub mod quant;
pub mod redfp;
pub mod softfp;
pub mod stats;
pub mod ulp;

pub use abft::{AbftOptions, AbftPacked, AbftReport, TamperFn};
pub use bfp::{BfpBlock, BlockAcc, WideBlock, BLOCK};
pub use cancel::CancelToken;
pub use error::ArithError;
pub use fpadd::{AddVariant, HwFp32Add};
pub use guard::{GuardFlags, SaturationPolicy};
pub use fpmul::{HwFp32Mul, MulVariant, PartialProduct};
pub use int8quant::Int8Tensor;
pub use matrix::MatF32;
pub use packed::{PackSide, PackedBfp};
pub use quant::{BfpMatrix, Quantizer, RoundMode};
pub use redfp::RedFp;
pub use softfp::SoftFp32;
pub use stats::ErrorStats;
pub use ulp::ulp_distance;
