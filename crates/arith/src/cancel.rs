//! Cooperative cancellation and deadline propagation.
//!
//! The serving runtime hands every request a [`CancelToken`]; long-running
//! execution paths (the resilient tile loop, the Transformer block loop)
//! poll it at natural checkpoints and abandon the work with
//! [`ArithError::Cancelled`] instead of occupying an array past the
//! request's budget. Tokens are cheap to clone (one `Arc`) and safe to
//! poll from any thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ArithError;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancel/deadline flag polled by cooperative execution loops.
///
/// A token is *cancelled* once [`CancelToken::cancel`] has been called or
/// its deadline (if any) has passed; cancellation is sticky and can never
/// be undone.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token with no deadline that only cancels explicitly.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Request cancellation. Idempotent; all clones observe it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the deadline (if any) has passed. Explicit cancellation
    /// does not make a token "expired" — only the clock does.
    pub fn expired(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether work under this token should stop (explicitly cancelled or
    /// past its deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire) || self.expired()
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left before the deadline; `None` means unbounded, and an
    /// expired token reports `Some(ZERO)`.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checkpoint: `Err(ArithError::Cancelled { .. })` once the token is
    /// cancelled, `Ok(())` otherwise. `expired` in the error records
    /// whether the deadline (rather than an explicit cancel) fired.
    pub fn check(&self) -> Result<(), ArithError> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            Err(ArithError::Cancelled {
                expired: self.expired(),
            })
        } else if self.expired() {
            Err(ArithError::Cancelled { expired: true })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.expired());
        assert_eq!(t.remaining(), None);
        assert!(t.check().is_ok());
    }

    #[test]
    fn explicit_cancel_is_sticky_and_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(!clone.expired(), "no deadline: cancel is not expiry");
        assert_eq!(clone.check(), Err(ArithError::Cancelled { expired: false }));
    }

    #[test]
    fn past_deadline_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.expired());
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        assert_eq!(t.check(), Err(ArithError::Cancelled { expired: true }));
    }

    #[test]
    fn future_deadline_is_live_with_budget() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        let rem = t.remaining().expect("bounded");
        assert!(rem > Duration::from_secs(3500));
    }
}
