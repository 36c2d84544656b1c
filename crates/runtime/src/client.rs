//! Blocking client handles: the register API end users see.
//!
//! A [`RegisterClient`] is bound to one `(process, register)` pair. The
//! blocking [`RegisterClient::write`] / [`RegisterClient::read`] calls are
//! sugar over the split halves: [`RegisterClient::issue`] sends the
//! invocation and returns an [`OpHandle`]; [`OpHandle::wait`] blocks for
//! the outcome. Splitting lets a caller pipeline operations across
//! *different* registers while each register stays sequential — the model's
//! requirement, now enforced at the API layer: a second `issue` on a busy
//! pair returns [`ClientError::OperationInFlight`] instead of the historic
//! behaviour of panicking the process's handler.

use std::fmt;
use std::sync::Arc;

use twobit_proto::{Automaton, OpId, OpOutcome, OpTicket, Operation, ProcessId, RegisterId};

use crate::spine::Spine;

/// Errors surfaced by the blocking client API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The target process is crashed or shut down.
    ProcessUnavailable,
    /// The operation did not complete within the configured timeout —
    /// with more than `t` crashes the required quorum may never form.
    Timeout,
    /// The operation completed with an outcome of the wrong kind
    /// (indicates a bug in the automaton).
    ProtocolMismatch,
    /// This `(process, register)` pair already has an operation in flight;
    /// processes are sequential per register.
    OperationInFlight {
        /// The busy process.
        proc: ProcessId,
        /// The busy register.
        reg: RegisterId,
    },
    /// The cluster does not host this register.
    UnknownRegister(RegisterId),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::ProcessUnavailable => write!(f, "target process unavailable"),
            ClientError::Timeout => write!(f, "operation timed out"),
            ClientError::ProtocolMismatch => write!(f, "mismatched operation outcome"),
            ClientError::OperationInFlight { proc, reg } => {
                write!(f, "{proc} already has an operation in flight on {reg}")
            }
            ClientError::UnknownRegister(reg) => write!(f, "unknown register {reg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking handle to one register, bound to one process.
///
/// Clients are cheap to create and clone-free; make one per
/// `(process, register)` pair you drive. Concurrent operations on the same
/// pair — even through different clients — are rejected with
/// [`ClientError::OperationInFlight`].
pub struct RegisterClient<A: Automaton> {
    shared: Arc<Spine<A>>,
    proc: ProcessId,
    reg: RegisterId,
}

impl<A: Automaton> std::fmt::Debug for RegisterClient<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisterClient")
            .field("proc", &self.proc)
            .field("reg", &self.reg)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> RegisterClient<A> {
    pub(crate) fn new(shared: Arc<Spine<A>>, proc: ProcessId, reg: RegisterId) -> Self {
        RegisterClient { shared, proc, reg }
    }

    /// The process this client drives.
    pub fn process(&self) -> ProcessId {
        self.proc
    }

    /// The register this client drives.
    pub fn register(&self) -> RegisterId {
        self.reg
    }

    /// Issues `op` without waiting for it, returning the wait half.
    ///
    /// A previously abandoned operation on this pair (handle dropped, or
    /// its `wait` timed out) is reaped here if its outcome has since
    /// arrived; if it is still running, `issue` reports
    /// [`ClientError::OperationInFlight`].
    ///
    /// # Errors
    ///
    /// [`ClientError::OperationInFlight`] if the pair is busy;
    /// [`ClientError::ProcessUnavailable`] if the process crashed or shut
    /// down.
    pub fn issue(&mut self, op: Operation<A::Value>) -> Result<OpHandle<A>, ClientError> {
        let ticket = self.shared.issue(self.proc, self.reg, op)?;
        Ok(OpHandle {
            shared: Arc::clone(&self.shared),
            ticket,
            awaited: false,
        })
    }

    /// Writes `v` to the register (only valid on the writer's client for
    /// SWMR algorithms; the process's handler panics otherwise).
    ///
    /// # Errors
    ///
    /// [`ClientError::ProcessUnavailable`] if the process crashed or shut
    /// down; [`ClientError::Timeout`] if no quorum answered in time;
    /// [`ClientError::OperationInFlight`] if the pair is busy.
    pub fn write(&mut self, v: A::Value) -> Result<(), ClientError> {
        match self.issue(Operation::Write(v))?.wait()? {
            OpOutcome::Written => Ok(()),
            OpOutcome::ReadValue(_) => Err(ClientError::ProtocolMismatch),
        }
    }

    /// Reads the register.
    ///
    /// # Errors
    ///
    /// Same as [`RegisterClient::write`].
    pub fn read(&mut self) -> Result<A::Value, ClientError> {
        match self.issue(Operation::Read)?.wait()? {
            OpOutcome::ReadValue(v) => Ok(v),
            OpOutcome::Written => Err(ClientError::ProtocolMismatch),
        }
    }
}

/// The wait half of an issued operation.
///
/// Obtained from [`RegisterClient::issue`]. Dropping the handle without
/// waiting *abandons* the operation: it keeps running in the cluster, its
/// `(process, register)` pair stays busy, and the next
/// [`RegisterClient::issue`] on the pair reaps the outcome once it lands.
pub struct OpHandle<A: Automaton> {
    shared: Arc<Spine<A>>,
    ticket: OpTicket,
    /// Set by `wait`, which owns the reply from then on.
    awaited: bool,
}

impl<A: Automaton> fmt::Debug for OpHandle<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpHandle")
            .field("ticket", &self.ticket)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> OpHandle<A> {
    /// The operation id assigned at issue time.
    pub fn op_id(&self) -> OpId {
        self.ticket.op_id
    }

    /// The issuing process.
    pub fn process(&self) -> ProcessId {
        self.ticket.proc
    }

    /// The target register.
    pub fn register(&self) -> RegisterId {
        self.ticket.reg
    }

    /// Blocks until the operation completes (up to the cluster's configured
    /// operation timeout).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if no outcome arrived in time (the
    /// operation stays in flight and is reaped by the pair's next `issue`);
    /// [`ClientError::ProcessUnavailable`] if the process died.
    pub fn wait(mut self) -> Result<OpOutcome<A::Value>, ClientError> {
        self.awaited = true;
        self.shared.await_reply(self.ticket)
    }
}

impl<A: Automaton> Drop for OpHandle<A> {
    /// Parks the un-awaited operation so a later `issue` on the pair can
    /// reap the outcome (see the type docs).
    fn drop(&mut self) {
        if !self.awaited {
            self.shared.park(self.ticket);
        }
    }
}
