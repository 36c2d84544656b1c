//! Reply cells: where an operation's outcome travels from the handler that
//! completes it to the client that waits for it.
//!
//! A process is sequential per register, so a `(process, register)` pair
//! has at most one operation in flight and one cell can carry every outcome
//! the pair ever produces. [`Spine`](crate::Spine) allocates one
//! [`ReplyCell`] per pair when it is built; issuing an operation
//! [arms](ReplyCell::arm) the pair's cell with the operation id and hands
//! the handler a [`ReplyTo`] — the cell's `Arc` plus that id — so an
//! operation's client round trip allocates nothing.
//!
//! The handler answers with [`ReplyTo::send`]. A handle dropped unsent —
//! the process crashed and cleared its pending operations, a shutdown tore
//! its mailbox down, or the register was unknown — marks the operation
//! [`Reply::Gone`]: it can never complete, which the waiter reports as the
//! process being unavailable.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use twobit_proto::{OpId, OpOutcome};

/// What a waiter finds in a cell for the operation it asks about.
#[derive(Debug, PartialEq)]
pub(crate) enum Reply<V> {
    /// No outcome yet: the operation is still in flight.
    Pending,
    /// The operation completed (the outcome is taken out of the cell).
    Ready(OpOutcome<V>),
    /// The operation can never complete: its handle was dropped unsent.
    Gone,
}

enum State<V> {
    /// Nothing in flight: never armed, or the last outcome was taken.
    Idle,
    Waiting(OpId),
    Ready(OpId, OpOutcome<V>),
    Gone(OpId),
}

struct Inner<V> {
    state: State<V>,
    /// A waiter is blocked on the condvar: only then does a reply pay for
    /// a notify.
    parked: bool,
}

/// One `(process, register)` pair's reusable reply slot; see the module
/// docs.
pub(crate) struct ReplyCell<V> {
    inner: Mutex<Inner<V>>,
    landed: Condvar,
}

impl<V> ReplyCell<V> {
    /// An idle cell.
    pub(crate) fn new() -> Self {
        ReplyCell {
            inner: Mutex::new(Inner {
                state: State::Idle,
                parked: false,
            }),
            landed: Condvar::new(),
        }
    }

    /// Every update is a single assignment, so a cell whose lock a
    /// panicking thread held is still consistent.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the cell for `op` and returns the handle its handler answers
    /// through. Whatever the cell held before is discarded: the caller
    /// arms a pair only once its previous operation is resolved.
    pub(crate) fn arm(self: &Arc<Self>, op: OpId) -> ReplyTo<V> {
        self.lock().state = State::Waiting(op);
        ReplyTo {
            cell: Some(Arc::clone(self)),
            op,
        }
    }

    /// Moves `op` from waiting to `to`, waking a parked waiter; a no-op
    /// when the cell is no longer waiting on `op`.
    fn settle(&self, op: OpId, to: State<V>) {
        let mut g = self.lock();
        if !matches!(g.state, State::Waiting(id) if id == op) {
            return;
        }
        g.state = to;
        let wake = g.parked;
        drop(g);
        if wake {
            self.landed.notify_one();
        }
    }

    /// Takes `op`'s outcome out of the locked cell, if it is there.
    fn take(g: &mut Inner<V>, op: OpId) -> Reply<V> {
        match g.state {
            State::Waiting(id) if id == op => return Reply::Pending,
            State::Ready(id, _) | State::Gone(id) if id == op => {}
            // Taken already, or the cell has moved on: `op` can never land.
            _ => return Reply::Gone,
        }
        match std::mem::replace(&mut g.state, State::Idle) {
            State::Ready(_, outcome) => Reply::Ready(outcome),
            _ => Reply::Gone,
        }
    }

    /// `op`'s outcome if it has landed, without blocking.
    pub(crate) fn try_take(&self, op: OpId) -> Reply<V> {
        Self::take(&mut self.lock(), op)
    }

    /// Blocks up to `timeout` for `op`'s outcome; [`Reply::Pending`] when
    /// it did not land in time (the cell stays armed).
    pub(crate) fn wait(&self, op: OpId, timeout: Duration) -> Reply<V> {
        let (mut g, _) = self
            .landed
            .wait_timeout_while(self.lock(), timeout, |inner| {
                inner.parked = matches!(inner.state, State::Waiting(id) if id == op);
                inner.parked
            })
            .unwrap_or_else(PoisonError::into_inner);
        g.parked = false;
        Self::take(&mut g, op)
    }
}

/// The handler's half of an armed reply cell: answers one operation,
/// once. Dropping it unsent tells the waiter the operation died.
pub struct ReplyTo<V> {
    /// `None` once sent.
    cell: Option<Arc<ReplyCell<V>>>,
    op: OpId,
}

impl<V> std::fmt::Debug for ReplyTo<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyTo").field("op", &self.op).finish()
    }
}

impl<V> ReplyTo<V> {
    /// Delivers the operation's outcome to its waiter.
    pub fn send(mut self, outcome: OpOutcome<V>) {
        if let Some(cell) = self.cell.take() {
            cell.settle(self.op, State::Ready(self.op, outcome));
        }
    }
}

impl<V> Drop for ReplyTo<V> {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.settle(self.op, State::Gone(self.op));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn armed(op: u64) -> (Arc<ReplyCell<u64>>, ReplyTo<u64>) {
        let cell = Arc::new(ReplyCell::new());
        let reply = cell.arm(OpId::new(op));
        (cell, reply)
    }

    #[test]
    fn a_sent_outcome_is_taken_once() {
        let (cell, reply) = armed(1);
        assert_eq!(cell.try_take(OpId::new(1)), Reply::Pending);
        reply.send(OpOutcome::ReadValue(9));
        assert_eq!(
            cell.try_take(OpId::new(1)),
            Reply::Ready(OpOutcome::ReadValue(9))
        );
        assert_eq!(cell.try_take(OpId::new(1)), Reply::Gone, "taken already");
    }

    #[test]
    fn a_dropped_handle_reads_gone() {
        let (cell, reply) = armed(1);
        drop(reply);
        assert_eq!(cell.wait(OpId::new(1), Duration::from_secs(5)), Reply::Gone);
    }

    #[test]
    fn a_wait_times_out_pending_and_the_cell_stays_armed() {
        let (cell, reply) = armed(1);
        let t0 = Instant::now();
        assert_eq!(
            cell.wait(OpId::new(1), Duration::from_millis(10)),
            Reply::Pending
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
        reply.send(OpOutcome::Written);
        assert_eq!(
            cell.wait(OpId::new(1), Duration::ZERO),
            Reply::Ready(OpOutcome::Written)
        );
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_reply() {
        let (cell, reply) = armed(3);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            reply.send(OpOutcome::Written);
        });
        assert_eq!(
            cell.wait(OpId::new(3), Duration::from_secs(10)),
            Reply::Ready(OpOutcome::Written)
        );
        sender.join().unwrap();
    }

    #[test]
    fn a_stale_handle_cannot_touch_the_next_operation() {
        let cell = Arc::new(ReplyCell::<u64>::new());
        let stale = cell.arm(OpId::new(1));
        let fresh = cell.arm(OpId::new(2));
        stale.send(OpOutcome::ReadValue(1));
        assert_eq!(cell.try_take(OpId::new(1)), Reply::Gone);
        assert_eq!(cell.try_take(OpId::new(2)), Reply::Pending);
        fresh.send(OpOutcome::ReadValue(2));
        assert_eq!(
            cell.try_take(OpId::new(2)),
            Reply::Ready(OpOutcome::ReadValue(2))
        );
    }
}
