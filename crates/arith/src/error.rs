//! Error types shared across the arithmetic crate.

use std::fmt;

/// Errors produced by quantization and block arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum ArithError {
    /// A matrix dimension did not match what the operation required.
    DimensionMismatch {
        /// What the caller supplied, e.g. `"lhs 16x8, rhs 16x8"`.
        got: String,
        /// What the operation expected.
        expected: String,
    },
    /// The shared exponent of a block fell outside the 8-bit range
    /// representable by the hardware's exponent BRAM.
    ExponentOverflow {
        /// The unclamped exponent value.
        exp: i32,
    },
    /// A value that must be finite (input to quantization) was NaN or ±inf.
    NonFinite {
        /// Row/column position of the offending element.
        at: (usize, usize),
    },
    /// The 48-bit accumulator datapath would have overflowed.
    AccumulatorOverflow,
    /// A NaN was produced or encountered where the guardrails forbid it.
    NaN {
        /// Row/column position of the first NaN.
        at: (usize, usize),
    },
    /// Mantissa saturation exceeded the configured policy: more elements
    /// clamped to the representable range than the caller allows.
    Saturated {
        /// Number of elements that hit the clamp.
        count: u64,
    },
    /// The operation was abandoned at a cooperative checkpoint because
    /// its [`crate::cancel::CancelToken`] fired.
    Cancelled {
        /// `true` when a deadline expired, `false` for an explicit cancel
        /// (shutdown, shed).
        expired: bool,
    },
    /// A quantized block's round-trip error exceeded the analytic bound
    /// for its mantissa width — the signature of a corrupted shared
    /// exponent or mantissa word.
    QuantBoundExceeded {
        /// Grid position `(block_row, block_col)` of the offending block.
        block: (usize, usize),
        /// Worst observed absolute error in the block.
        observed: f64,
        /// The bound the block was required to meet.
        bound: f64,
    },
    /// A checked GEMM's output block-row stayed faulty with recovery
    /// disabled: a checksum mismatch the kernel could not repair, an
    /// ECC/TMR-uncorrected hardware event, or a non-finite output.
    UncorrectedFault {
        /// Output block-row whose chains could not be trusted.
        block_row: usize,
    },
}

impl fmt::Display for ArithError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithError::DimensionMismatch { got, expected } => {
                write!(f, "dimension mismatch: got {got}, expected {expected}")
            }
            ArithError::ExponentOverflow { exp } => {
                write!(
                    f,
                    "shared exponent {exp} exceeds the 8-bit hardware range [-128, 127]"
                )
            }
            ArithError::NonFinite { at } => {
                write!(
                    f,
                    "non-finite value at ({}, {}); quantization requires finite inputs",
                    at.0, at.1
                )
            }
            ArithError::AccumulatorOverflow => {
                write!(f, "48-bit accumulator overflow")
            }
            ArithError::NaN { at } => {
                write!(f, "NaN at ({}, {})", at.0, at.1)
            }
            ArithError::Saturated { count } => {
                write!(f, "{count} elements saturated beyond the configured policy")
            }
            ArithError::Cancelled { expired } => {
                if *expired {
                    write!(f, "deadline expired before the operation completed")
                } else {
                    write!(f, "operation cancelled")
                }
            }
            ArithError::QuantBoundExceeded {
                block,
                observed,
                bound,
            } => {
                write!(
                    f,
                    "block ({}, {}) round-trip error {observed:.3e} exceeds bound {bound:.3e}",
                    block.0, block.1
                )
            }
            ArithError::UncorrectedFault { block_row } => {
                write!(f, "uncorrected fault in output block-row {block_row}")
            }
        }
    }
}

impl std::error::Error for ArithError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ArithError::DimensionMismatch {
            got: "3x4".into(),
            expected: "8x8".into(),
        };
        assert!(e.to_string().contains("3x4"));
        assert!(e.to_string().contains("8x8"));

        let e = ArithError::ExponentOverflow { exp: 200 };
        assert!(e.to_string().contains("200"));

        let e = ArithError::NonFinite { at: (1, 2) };
        assert!(e.to_string().contains("(1, 2)"));

        assert!(ArithError::AccumulatorOverflow
            .to_string()
            .contains("48-bit"));

        let e = ArithError::UncorrectedFault { block_row: 3 };
        assert!(e.to_string().contains("block-row 3"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            ArithError::AccumulatorOverflow,
            ArithError::AccumulatorOverflow
        );
        assert_ne!(
            ArithError::ExponentOverflow { exp: 1 },
            ArithError::ExponentOverflow { exp: 2 }
        );
    }
}
