//! The completion latch behind [`crate::engine::QueryProcessor::submit`]:
//! the caller's [`QueryTicket`] and the job-side [`TicketGuard`] that
//! completes it on every exit path.

#![allow(clippy::disallowed_methods, reason = "`wait_timeout` measures its own deadline")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::error::{QueryError, Result};
use crate::parallel::{JobHandle, WorkerPool};
use crate::query::QueryAnswer;
use crate::serving::{AdmissionSlot, AsyncOutcome};
use crate::sync::{self, Condvar, Mutex, TICKET};

/// A pending asynchronously submitted query: the completion latch behind
/// [`crate::engine::QueryProcessor::submit`].
///
/// The ticket is a cheap handle to shared completion state. The submitting
/// thread is never blocked by `submit` itself; it blocks only when (and
/// if) it calls [`QueryTicket::wait`] or [`QueryTicket::wait_timeout`].
/// Dropping a ticket without awaiting it is safe — the query still runs to
/// completion on its worker (it owns a snapshot of everything it touches)
/// and the answer is discarded. The ticket can never block forever: a job
/// that is discarded without running (its pool shut down mid-burst)
/// completes the ticket with [`QueryError::AsyncQueryDropped`] from the
/// job's drop guard.
#[derive(Debug)]
pub struct QueryTicket {
    pub(super) state: Arc<TicketState>,
    /// The pool the job was queued on, for best-effort dequeue on
    /// [`QueryTicket::cancel`]. Weak: a ticket must not keep a shut-down
    /// pool's threads alive.
    pub(super) pool: Weak<WorkerPool>,
    pub(super) handle: JobHandle,
}

#[derive(Debug, Default)]
pub(super) struct TicketState {
    slot: Mutex<Option<Result<QueryAnswer>>, TICKET>,
    done: Condvar,
    /// Cheap completion flag so `is_done` never touches the mutex. Set
    /// strictly after the guard's bookkeeping, so a caller that observes
    /// the outcome also observes consistent metrics.
    finished: AtomicBool,
    /// Cooperative cancellation flag the job checks at start and between
    /// the prepare and refine halves of its query.
    cancelled: AtomicBool,
}

impl TicketState {
    /// Installs the outcome and wakes the waiters. Only
    /// [`TicketGuard::finish`] calls this, once.
    fn complete(&self, outcome: Result<QueryAnswer>) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "complete is gated by the guard's admission slot");
        *slot = Some(outcome);
        self.finished.store(true, Ordering::Release);
        drop(slot);
        self.done.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

impl QueryTicket {
    /// True once the outcome is available ([`QueryTicket::wait`] would
    /// return without blocking). A cheap atomic load — poll freely.
    pub fn is_done(&self) -> bool {
        self.state.finished.load(Ordering::Acquire)
    }

    /// Blocks until the submitted query has finished and returns its
    /// answer — or its error: a query that panicked on its worker yields
    /// [`QueryError::AsyncQueryPanicked`], a cancelled one
    /// [`QueryError::Cancelled`], one shed at its deadline
    /// [`QueryError::DeadlineExceeded`], and one whose job was discarded
    /// without running [`QueryError::AsyncQueryDropped`].
    pub fn wait(self) -> Result<QueryAnswer> {
        sync::blocking_point("QueryTicket::wait");
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.state.done.wait(slot);
        }
    }

    /// As [`QueryTicket::wait`], but gives up after `timeout`: `None`
    /// means the query is still pending and the ticket remains usable —
    /// retry, [`QueryTicket::cancel`] it, or fall back to
    /// [`QueryTicket::wait`]. The outcome is left in place (cloned out),
    /// so expiry and completion can race freely: whichever wins, a later
    /// wait sees the same answer.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryAnswer>> {
        sync::blocking_point("QueryTicket::wait_timeout");
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, timed_out) = self.state.done.wait_timeout(slot, remaining);
            slot = guard;
            if timed_out.timed_out() && slot.is_none() {
                return None;
            }
        }
    }

    /// Requests best-effort cancellation: if the job is still queued it is
    /// dequeued and never runs; if it is already running, the flag is
    /// checked between the prepare and refine halves; a query deep in its
    /// propagation runs to completion and its answer stands. Returns
    /// `false` when the ticket had already finished, `true` when the
    /// request was registered in time (the definitive outcome is whatever
    /// [`QueryTicket::wait`] returns).
    pub fn cancel(&self) -> bool {
        if self.is_done() {
            return false;
        }
        self.state.cancelled.store(true, Ordering::Release);
        if let Some(pool) = self.pool.upgrade() {
            // Dequeue if not started: dropping the removed job box fires
            // its guard, which observes the flag and completes the ticket
            // with `Cancelled`.
            pool.cancel_queued(self.handle);
        }
        true
    }
}

/// The job-side owner of a submitted query's ticket and admission slot:
/// completes the ticket on **every** exit path, releasing the slot and
/// tallying the outcome exactly once. If the job runs, its body finishes
/// the guard explicitly; if the job box is dropped without running — pool
/// shut down mid-burst, cancellation dequeue, or an unwind discarding the
/// queue — the guard's `Drop` completes the ticket with
/// [`QueryError::Cancelled`] or [`QueryError::AsyncQueryDropped`], so
/// `wait` can never block forever.
pub(super) struct TicketGuard {
    pub(super) state: Arc<TicketState>,
    pub(super) slot: AdmissionSlot,
}

impl TicketGuard {
    /// Why the job should stop now, if it should: its ticket was
    /// cancelled, or it has waited past the deadline. Polled when the job
    /// starts and once between the halves of its query.
    pub(super) fn interrupted(&self) -> Option<QueryError> {
        if self.state.is_cancelled() {
            Some(QueryError::Cancelled)
        } else if self.slot.expired() {
            Some(QueryError::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Completes the ticket (the first call only), releasing the admission
    /// slot and tallying the outcome **before** the waiters are woken, so
    /// metrics observed after `wait` returns always include this query.
    pub(super) fn finish(&mut self, outcome: Result<QueryAnswer>) {
        if self.slot.release(AsyncOutcome::of(&outcome)) {
            self.state.complete(outcome);
        }
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        let error = if self.state.is_cancelled() {
            QueryError::Cancelled
        } else if std::thread::panicking() {
            QueryError::AsyncQueryPanicked
        } else {
            QueryError::AsyncQueryDropped
        };
        self.finish(Err(error));
    }
}
