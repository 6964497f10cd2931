//! The caller's handle on an in-flight request.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bfp_arith::matrix::MatF32;
use bfp_core::prelude::NonlinearMode;

use crate::error::ServeError;
use crate::serving::{Priority, TenantId};

/// One execution attempt in a request's [`RequestTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttemptRecord {
    /// Array the attempt ran on.
    pub array: usize,
    /// Modelled array-occupancy seconds of this execution.
    pub modelled_s: f64,
    /// Whether the detection layer flagged the execution (its output was
    /// discarded and the request re-routed).
    pub faulted: bool,
    /// Nonlinear mode the attempt was dispatched in (set by the
    /// brownout ladder tier at dispatch time).
    pub mode: NonlinearMode,
}

/// Where one request spent its life, attempt by attempt — the per-request
/// lifecycle record returned with the ticket's [`ServeResponse`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestTimeline {
    /// Seconds from admission until a worker first picked the request up.
    pub queue_wait_s: f64,
    /// Every execution attempt, in order; the last one is the accepted
    /// execution, earlier entries are discarded faulted runs.
    pub attempts: Vec<AttemptRecord>,
    /// Wall-clock seconds from admission to resolution.
    pub total_s: f64,
}

impl RequestTimeline {
    /// Seconds not accounted to queue wait or modelled execution:
    /// retry backoff, host scheduling, and lock hand-off.
    pub fn overhead_s(&self) -> f64 {
        let exec: f64 = self.attempts.iter().map(|a| a.modelled_s).sum();
        (self.total_s - self.queue_wait_s - exec).max(0.0)
    }
}

/// A successful answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The result — bit-identical to the fault-free path *for the
    /// nonlinear mode in `mode`* (see `bfp_serve::reference_bits`).
    pub out: MatF32,
    /// Array that produced the accepted execution.
    pub array: usize,
    /// Tenant the request was submitted under.
    pub tenant: TenantId,
    /// Priority class the request ran at.
    pub priority: Priority,
    /// Nonlinear mode of the accepted execution (the brownout tier it
    /// actually ran in).
    pub mode: NonlinearMode,
    /// Executions consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Modelled array-occupancy seconds of the accepted execution.
    pub modelled_s: f64,
    /// Wall-clock seconds from admission to resolution (queueing +
    /// retries + execution, as the submitter experiences it).
    pub wall_s: f64,
    /// Where the request spent that wall-clock, attempt by attempt.
    pub timeline: RequestTimeline,
}

pub(crate) struct TicketInner {
    slot: Mutex<Option<Result<ServeResponse, ServeError>>>,
    cv: Condvar,
}

impl TicketInner {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketInner {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Fill the slot exactly once; later calls are ignored (a request
    /// can race shed/deadline/completion, first resolution wins).
    /// Returns whether this call was the resolving one.
    pub(crate) fn resolve(&self, result: Result<ServeResponse, ServeError>) -> bool {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_some() {
            return false;
        }
        *slot = Some(result);
        self.cv.notify_all();
        true
    }
}

/// Handle returned by [`crate::Server::submit`]: wait on it for the
/// response. Dropping the ticket does not cancel the request.
#[derive(Clone)]
pub struct Ticket {
    id: u64,
    pub(crate) inner: Arc<TicketInner>,
}

impl Ticket {
    pub(crate) fn new(id: u64, inner: Arc<TicketInner>) -> Self {
        Ticket { id, inner }
    }

    /// Runtime-assigned request id (monotonic per server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request resolves.
    pub fn wait(&self) -> Result<ServeResponse, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.inner.cv.wait(slot).unwrap();
        }
        slot.clone().unwrap()
    }

    /// Block for at most `timeout`; `None` if still unresolved.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, ServeError>> {
        let slot = self.inner.slot.lock().unwrap();
        let (slot, _timed_out) = self
            .inner
            .cv
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .unwrap();
        slot.clone()
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<Result<ServeResponse, ServeError>> {
        self.inner.slot.lock().unwrap().clone()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_exactly_once() {
        let inner = TicketInner::new();
        let t = Ticket::new(7, inner.clone());
        assert!(t.try_get().is_none());
        assert!(t.wait_timeout(Duration::from_millis(1)).is_none());
        assert!(inner.resolve(Err(ServeError::Shed)));
        assert!(!inner.resolve(Err(ServeError::Shutdown)));
        assert_eq!(t.wait(), Err(ServeError::Shed));
        assert_eq!(t.id(), 7);
    }
}
