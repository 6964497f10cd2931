//! Typed request-level failures.

use std::fmt;

/// Why a request could not be answered. Every failure a caller can see
/// is one of these — suspect (faulted) outputs are never returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Refused at admission: the queue was full under
    /// [`crate::Backpressure::Reject`].
    QueueFull,
    /// Refused at admission: the tenant's token bucket was empty.
    QuotaExceeded,
    /// Refused at admission: the request's deadline budget is below the
    /// calibrated service estimate — queueing it could only produce a
    /// deadline miss.
    DeadlineUnmeetable,
    /// Refused at admission: the brownout ladder is at tier 2 and the
    /// request is `Bulk` priority.
    Brownout,
    /// Admitted, then evicted — by [`crate::Backpressure::ShedOldest`]
    /// making room for newer work, or by tier-2 brownout shedding of
    /// `Bulk` requests.
    Shed,
    /// Admitted, then the deadline budget elapsed before a clean answer
    /// was produced (while queued or mid-execution — the array is
    /// released either way).
    DeadlineExceeded,
    /// Every allowed attempt hit a detected fault; the suspect outputs
    /// were discarded rather than returned.
    FaultsExhausted {
        /// Executions consumed.
        attempts: u32,
    },
    /// The runtime shut down before the request resolved.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "admission queue full"),
            ServeError::QuotaExceeded => write!(f, "tenant quota exhausted"),
            ServeError::DeadlineUnmeetable => {
                write!(f, "deadline budget below the calibrated service estimate")
            }
            ServeError::Brownout => write!(f, "bulk work refused at brownout tier 2"),
            ServeError::Shed => write!(f, "shed from the queue to admit newer work"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::FaultsExhausted { attempts } => {
                write!(f, "all {attempts} attempts hit detected faults")
            }
            ServeError::Shutdown => write!(f, "runtime shut down"),
        }
    }
}

impl std::error::Error for ServeError {}
