//! The backend-agnostic [`Driver`] interface: one API for the deterministic
//! simulator and the live runtime.
//!
//! Historically each execution substrate exposed its own driving API
//! (`SimBuilder::client_plan` on the simulator, `ClusterBuilder` plus
//! blocking clients on the runtime), so every workload, harness, and example
//! was written twice. A `Driver` is the common denominator: *issue* an
//! operation on a `(process, register)` pair, *poll* its completion, crash
//! processes, and extract per-register histories plus wire statistics. The
//! simulator implements `poll` by advancing virtual time; the runtime by
//! blocking on the reply cell — workload code cannot tell the difference,
//! which is exactly the point.
//!
//! Sequentiality is the paper's model (§2.1: processes are sequential), so
//! at most one operation may be in flight per `(process, register)`; a
//! second [`invoke`](Driver::invoke) yields
//! [`DriverError::OperationInFlight`]. Operations on *different* registers
//! pipeline freely — issue several tickets, then poll them in any order.
//!
//! [`Workload`] is a portable operation script executed through any
//! `Driver` (see [`Workload::run_on`] / [`Workload::run_pipelined_on`]).

use std::collections::HashMap;
use std::fmt;

use crate::history::ShardedHistory;
use crate::id::{ProcessId, RegisterId, SystemConfig};
use crate::lifecycle::Lifecycle;
use crate::op::{OpId, OpOutcome, Operation};
use crate::payload::Payload;
use crate::stats::NetStats;

/// Handle to one issued operation, returned by [`Driver::invoke`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpTicket {
    /// The invoking process.
    pub proc: ProcessId,
    /// The target register.
    pub reg: RegisterId,
    /// Backend-assigned operation id.
    pub op_id: OpId,
}

/// Errors surfaced by the [`Driver`] API.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverError {
    /// The process id is outside `0..n`.
    UnknownProcess(ProcessId),
    /// The register is not hosted by this backend.
    UnknownRegister(RegisterId),
    /// The name is not bound in this register space.
    UnknownName(String),
    /// A previous operation by this process on this register has not
    /// completed — processes are sequential *per register*.
    OperationInFlight {
        /// The busy process.
        proc: ProcessId,
        /// The busy register.
        reg: RegisterId,
    },
    /// The target process crashed (or the backend shut down).
    ProcessUnavailable(ProcessId),
    /// [`Driver::crash`] targeted a process that is not up — crashing the
    /// same process twice is a scripting error, uniformly rejected by
    /// every backend.
    AlreadyCrashed(ProcessId),
    /// [`Driver::recover`] targeted a process that is not crashed.
    NotCrashed(ProcessId),
    /// [`Driver::recover`] on a deployment whose automaton does not
    /// implement the recovery hooks (no snapshot to transfer).
    RecoveryUnsupported,
    /// The operation did not complete within the backend's time budget —
    /// with more than `t` crashes the required quorum may never form.
    Timeout,
    /// The backend went quiescent with the operation still incomplete
    /// (simulator analogue of [`DriverError::Timeout`]).
    Stalled(OpId),
    /// The operation completed with an outcome of the wrong kind
    /// (a write answered with a value, or a read with a bare ack) —
    /// indicates an automaton bug.
    ProtocolMismatch,
    /// A backend-specific failure (invariant violation, event-budget
    /// exhaustion, ...).
    Backend(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            DriverError::UnknownRegister(r) => write!(f, "unknown register {r}"),
            DriverError::UnknownName(n) => write!(f, "unknown register name {n:?}"),
            DriverError::OperationInFlight { proc, reg } => {
                write!(f, "{proc} already has an operation in flight on {reg}")
            }
            DriverError::ProcessUnavailable(p) => write!(f, "process {p} unavailable"),
            DriverError::AlreadyCrashed(p) => write!(f, "process {p} is not up"),
            DriverError::NotCrashed(p) => write!(f, "process {p} is not crashed"),
            DriverError::RecoveryUnsupported => {
                write!(f, "this deployment's automaton does not support recovery")
            }
            DriverError::Timeout => write!(f, "operation timed out"),
            DriverError::Stalled(op) => write!(f, "backend quiescent with {op} incomplete"),
            DriverError::ProtocolMismatch => write!(f, "mismatched operation outcome"),
            DriverError::Backend(d) => write!(f, "backend error: {d}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// A running register deployment that can be driven one operation at a time.
///
/// Implemented by `twobit_simnet::SimSpace` (virtual time) and
/// `twobit_reactor::ReactorNode` (real event loops, over sockets or — as
/// `twobit_reactor::Cluster` — over chaos links), all sharded. Code written against this trait —
/// workloads, equivalence tests, benchmarks — runs unchanged on every
/// backend.
pub trait Driver {
    /// The register value type.
    type Value: Payload;

    /// The system configuration (`n`, `t`).
    fn config(&self) -> SystemConfig;

    /// The registers this deployment hosts.
    fn registers(&self) -> Vec<RegisterId>;

    /// Issues `op` at `proc` on register `reg` without waiting for it.
    ///
    /// # Errors
    ///
    /// [`DriverError::OperationInFlight`] if the `(proc, reg)` pair already
    /// has an incomplete operation; [`DriverError::UnknownProcess`] /
    /// [`DriverError::UnknownRegister`] for bad addressing;
    /// [`DriverError::ProcessUnavailable`] if `proc` crashed.
    fn invoke(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<Self::Value>,
    ) -> Result<OpTicket, DriverError>;

    /// Drives the deployment until `ticket`'s operation completes and
    /// returns its outcome. Polling an already-completed ticket returns its
    /// outcome immediately; tickets may be polled in any order.
    ///
    /// # Errors
    ///
    /// [`DriverError::Timeout`] means *not yet*: the backend's time budget
    /// for one call ran out, the operation is still in flight, and the
    /// ticket stays valid — poll it again. [`DriverError::Stalled`] means
    /// it cannot complete (the simulator went quiescent, e.g. no quorum
    /// after crashes, or the ticket was superseded by a later operation on
    /// its pair); [`DriverError::ProcessUnavailable`] that its process
    /// crashed with it.
    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<Self::Value>, DriverError>;

    /// Crashes `proc`: it stops taking steps; messages to it are dropped.
    /// Reversible only through [`Driver::recover`].
    ///
    /// # Errors
    ///
    /// [`DriverError::AlreadyCrashed`] when `proc` is not up;
    /// [`DriverError::UnknownProcess`] for bad addressing.
    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError>;

    /// Recovers a crashed `proc`: the backend fetches a frame-aligned
    /// snapshot from the live peers, installs it at `proc`, has every live
    /// peer apply the rejoin, and bumps `proc`'s incarnation so stale
    /// pre-crash frames are fenced instead of delivered. On return `proc`
    /// is [`Lifecycle::Up`] and may invoke operations again; operations it
    /// left incomplete at the crash stay incomplete (the checker's crash
    /// rules cover them).
    ///
    /// # Errors
    ///
    /// [`DriverError::NotCrashed`] when `proc` is not crashed;
    /// [`DriverError::RecoveryUnsupported`] when the deployment's automaton
    /// has no recovery hooks; [`DriverError::UnknownProcess`] for bad
    /// addressing.
    fn recover(&mut self, proc: ProcessId) -> Result<(), DriverError>;

    /// The current lifecycle state of `proc` (out-of-range ids report
    /// [`Lifecycle::Crashed`]: a process that does not exist takes no
    /// steps).
    fn lifecycle(&self, proc: ProcessId) -> Lifecycle;

    /// Snapshot of the per-register operation histories recorded so far.
    fn history(&self) -> ShardedHistory<Self::Value>;

    /// Snapshot of the network statistics (aggregate and per-shard).
    fn stats(&self) -> NetStats;

    /// Blocking write: [`Driver::invoke`] + [`Driver::poll`].
    ///
    /// # Errors
    ///
    /// As for [`Driver::invoke`] / [`Driver::poll`], plus
    /// [`DriverError::ProtocolMismatch`] if the outcome is not a write ack.
    fn write(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        value: Self::Value,
    ) -> Result<(), DriverError> {
        let ticket = self.invoke(proc, reg, Operation::Write(value))?;
        match self.poll(&ticket)? {
            OpOutcome::Written => Ok(()),
            OpOutcome::ReadValue(_) => Err(DriverError::ProtocolMismatch),
        }
    }

    /// Blocking read: [`Driver::invoke`] + [`Driver::poll`].
    ///
    /// # Errors
    ///
    /// As for [`Driver::write`].
    fn read(&mut self, proc: ProcessId, reg: RegisterId) -> Result<Self::Value, DriverError> {
        let ticket = self.invoke(proc, reg, Operation::Read)?;
        match self.poll(&ticket)? {
            OpOutcome::ReadValue(v) => Ok(v),
            OpOutcome::Written => Err(DriverError::ProtocolMismatch),
        }
    }
}

/// One step of a [`Workload`]: an operation bound to a `(process, register)`
/// pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadStep<V> {
    /// The invoking process.
    pub proc: ProcessId,
    /// The target register.
    pub reg: RegisterId,
    /// The operation.
    pub op: Operation<V>,
}

/// A backend-agnostic operation script.
///
/// Steps are ordered; per `(process, register)` pair they execute
/// sequentially (the model's requirement), while
/// [`run_pipelined_on`](Workload::run_pipelined_on) overlaps steps that
/// target different pairs. Because a workload contains no backend-specific
/// code, the *same value* drives the simulator and the live runtime — the
/// backend-equivalence tests rely on this.
///
/// # Examples
///
/// ```
/// use twobit_proto::{Operation, ProcessId, RegisterId, Workload};
///
/// let w = Workload::new()
///     .step(0, RegisterId::ZERO, Operation::Write(1u64))
///     .step(1, RegisterId::ZERO, Operation::Read)
///     .step(0, RegisterId::new(1), Operation::Write(2));
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.steps()[1].proc, ProcessId::new(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Workload<V> {
    steps: Vec<WorkloadStep<V>>,
}

impl<V: Payload> Workload<V> {
    /// An empty workload.
    pub fn new() -> Self {
        Workload { steps: Vec::new() }
    }

    /// Appends one step (builder style).
    pub fn step(mut self, proc: impl Into<ProcessId>, reg: RegisterId, op: Operation<V>) -> Self {
        self.steps.push(WorkloadStep {
            proc: proc.into(),
            reg,
            op,
        });
        self
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[WorkloadStep<V>] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the workload has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Executes the script strictly sequentially: each step is invoked and
    /// polled to completion before the next begins.
    ///
    /// # Errors
    ///
    /// The first [`DriverError`] encountered.
    pub fn run_on<D: Driver<Value = V>>(&self, driver: &mut D) -> Result<(), DriverError> {
        for s in &self.steps {
            let ticket = driver.invoke(s.proc, s.reg, s.op.clone())?;
            driver.poll(&ticket)?;
        }
        Ok(())
    }

    /// Executes the script pipelined: a step is issued as soon as its
    /// `(process, register)` pair is free, waiting only when the pair's
    /// previous operation is still in flight. Remains sequential per
    /// register (as the model requires) while overlapping across shards.
    ///
    /// # Errors
    ///
    /// The first [`DriverError`] encountered.
    pub fn run_pipelined_on<D: Driver<Value = V>>(
        &self,
        driver: &mut D,
    ) -> Result<(), DriverError> {
        let mut in_flight: HashMap<(ProcessId, RegisterId), OpTicket> = HashMap::new();
        for s in &self.steps {
            if let Some(prev) = in_flight.remove(&(s.proc, s.reg)) {
                driver.poll(&prev)?;
            }
            let ticket = driver.invoke(s.proc, s.reg, s.op.clone())?;
            in_flight.insert((s.proc, s.reg), ticket);
        }
        // Drain in op-id order so the execution is deterministic.
        let mut rest: Vec<OpTicket> = in_flight.into_values().collect();
        rest.sort_by_key(|t| t.op_id);
        for ticket in rest {
            driver.poll(&ticket)?;
        }
        Ok(())
    }
}
