//! The live-backend spine: what every live deployment is, whatever moves
//! its frames.
//!
//! The paper's model is a property of *processes* — each is sequential
//! (one operation per register at a time), may crash, may recover — so the
//! table that enforces it is the same whatever carries the frames (route
//! sockets, or the chaos links of an in-process cluster): mailboxes,
//! crash flags, lifecycle records, the history recorder, the wire
//! statistics, operation ids, the operation timeout and the per-pair
//! in-flight table. A [`Spine`] owns all of it and carries the behaviour on
//! top: post-and-wake, issue, crash, the ticket half of
//! [`Driver`](twobit_proto::Driver) (`invoke`/`poll`), lifecycle, history,
//! stats. [`recover_process`](crate::recover_process) borrows it for a
//! recovery. A backend contributes the mailboxes, a wake hook, and whatever
//! carries frames between its process handlers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use twobit_cache::CacheMode;
use twobit_proto::{
    Automaton, DriverError, History, Lifecycle, LifecycleState, NetStats, OpId, OpOutcome,
    OpTicket, Operation, ProcessId, RegisterId, ShardedHistory, SystemConfig,
};

use crate::batcher::{ConfigError, FlushPolicy};
use crate::client::{ClientError, RegisterClient};
use crate::cluster::Incoming;
use crate::recorder::Recorder;
use crate::reply::{Reply, ReplyCell};

/// The knobs every live backend shares, declared once. A builder holds one
/// and writes its same-named setters into it; [`Spine::new`] validates it.
#[derive(Debug)]
pub struct DeployConfig {
    /// The hosted registers (default: `r0` alone).
    pub registers: Vec<RegisterId>,
    /// The client-side operation timeout (default 10 s): how long one
    /// `wait`/`poll` blocks, and the recovery quiesce budget.
    pub op_timeout: Duration,
    /// The links' default frame flush policy.
    pub flush: FlushPolicy,
    /// Per-link overrides of `flush`, keyed by ordered pair `(src, dst)`.
    pub flush_overrides: HashMap<(ProcessId, ProcessId), FlushPolicy>,
    /// The local read-cache mode (default [`CacheMode::Off`]).
    pub cache_mode: CacheMode,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            registers: vec![RegisterId::ZERO],
            op_timeout: Duration::from_secs(10),
            flush: FlushPolicy::default(),
            flush_overrides: HashMap::new(),
            cache_mode: CacheMode::Off,
        }
    }
}

impl DeployConfig {
    /// Checks the default flush policy and every per-link override (the
    /// error names the link).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for an unsatisfiable policy — caught before any
    /// thread exists, because a policy that panics a link would silently
    /// strand every message on that pair instead.
    ///
    /// # Panics
    ///
    /// Panics if no registers are configured.
    pub fn validate(&self) -> Result<(), ConfigError> {
        assert!(
            !self.registers.is_empty(),
            "a deployment needs at least one register"
        );
        self.flush.validate()?;
        for (link, policy) in &self.flush_overrides {
            policy.validate_for(Some(*link))?;
        }
        Ok(())
    }

    /// The flush policy of the ordered link `src → dst`.
    pub fn policy_for(&self, src: ProcessId, dst: ProcessId) -> FlushPolicy {
        self.flush_overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.flush)
    }
}

/// The per-pair in-flight table.
type InflightMap<V> = HashMap<(ProcessId, RegisterId), Slot<V>>;

/// One `(process, register)` pair's in-flight state. The API layer enforces
/// the model's per-register sequentiality with this table: a second issue
/// on a busy pair gets [`ClientError::OperationInFlight`] instead of
/// panicking the process's handler.
enum Slot<V> {
    /// A waiter owns the pair's reply (a live [`OpHandle`](crate::OpHandle),
    /// or a `poll` in progress).
    Busy,
    /// Nobody is waiting: a driver ticket between polls, a dropped handle,
    /// or a wait that timed out. The next `poll` resumes the wait, or a
    /// later issue reaps the outcome from the pair's reply cell once it
    /// lands.
    Abandoned(OpId),
    /// The pair is free; its latest outcome is kept so re-polling that
    /// ticket is idempotent (one entry per pair, replaced by the pair's
    /// next operation).
    Done(OpId, OpOutcome<V>),
}

/// State shared between a live backend, its clients, and its handles; see
/// the module docs.
pub struct Spine<A: Automaton> {
    pub(crate) cfg: SystemConfig,
    pub(crate) registers: Vec<RegisterId>,
    /// Mailbox senders, one per process (`None` = hosted on another node).
    pub(crate) inboxes: Vec<Option<Sender<Incoming<A>>>>,
    /// Called after every post to a mailbox: makes whoever drains it look.
    wake: Box<dyn Fn(ProcessId) + Send + Sync>,
    /// The hot-path crash flags the links and process handlers consult.
    pub(crate) crashed: Vec<Arc<AtomicBool>>,
    /// Lifecycle records (state + incarnation) behind the `crashed` flags;
    /// transitions are validated here.
    pub(crate) life: Mutex<Vec<LifecycleState>>,
    pub(crate) recorder: Recorder<A::Value>,
    /// Shared with the backend's process handlers and links, which update it.
    pub(crate) stats: Arc<Mutex<NetStats>>,
    op_ids: AtomicU64,
    pub(crate) op_timeout: Duration,
    inflight: Mutex<InflightMap<A::Value>>,
    /// One reply cell per `(process, register)` pair, built with the spine
    /// and reused by every operation the pair runs.
    replies: HashMap<(ProcessId, RegisterId), Arc<ReplyCell<A::Value>>>,
}

impl<A: Automaton> std::fmt::Debug for Spine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spine")
            .field("cfg", &self.cfg)
            .field("registers", &self.registers)
            .finish_non_exhaustive()
    }
}

fn to_driver_error(e: ClientError, proc: ProcessId) -> DriverError {
    match e {
        ClientError::ProcessUnavailable => DriverError::ProcessUnavailable(proc),
        ClientError::Timeout => DriverError::Timeout,
        ClientError::ProtocolMismatch => DriverError::ProtocolMismatch,
        ClientError::OperationInFlight { proc, reg } => {
            DriverError::OperationInFlight { proc, reg }
        }
        ClientError::UnknownRegister(r) => DriverError::UnknownRegister(r),
    }
}

impl<A: Automaton> Spine<A> {
    /// The spine of a `cfg.n()`-process deployment, every process up and
    /// nothing in flight. `inboxes[p]` is process `p`'s mailbox (`None`
    /// when another node hosts it); `wake(p)` runs after every post to it,
    /// and nudges whoever drains the mailbox — an event loop parked in
    /// `poll(2)` does not see a channel send.
    ///
    /// # Errors
    ///
    /// As [`DeployConfig::validate`], which also panics on an empty
    /// register list.
    pub fn new(
        cfg: SystemConfig,
        deploy: &DeployConfig,
        inboxes: Vec<Option<Sender<Incoming<A>>>>,
        wake: impl Fn(ProcessId) + Send + Sync + 'static,
        initial: A::Value,
    ) -> Result<Self, ConfigError> {
        deploy.validate()?;
        let n = cfg.n();
        let replies = (0..n)
            .flat_map(|p| {
                deploy
                    .registers
                    .iter()
                    .map(move |&r| (ProcessId::new(p), r))
            })
            .map(|pair| (pair, Arc::new(ReplyCell::new())))
            .collect();
        Ok(Spine {
            cfg,
            registers: deploy.registers.clone(),
            inboxes,
            wake: Box::new(wake),
            crashed: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            life: Mutex::new(vec![LifecycleState::new(); n]),
            recorder: Recorder::new(initial),
            stats: Arc::new(Mutex::new(NetStats::new())),
            op_ids: AtomicU64::new(0),
            op_timeout: deploy.op_timeout,
            inflight: Mutex::new(HashMap::new()),
            replies,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The hosted registers.
    pub fn registers(&self) -> &[RegisterId] {
        &self.registers
    }

    /// The per-process crash flags, for the backend's links and handlers.
    pub fn crash_flags(&self) -> &[Arc<AtomicBool>] {
        &self.crashed
    }

    /// The shared statistics, for the backend's links and handlers.
    pub fn stats_handle(&self) -> &Arc<Mutex<NetStats>> {
        &self.stats
    }

    /// Posts `msg` to `proc`'s mailbox and wakes whoever drains it; `false`
    /// when the mailbox is gone or `proc` is not hosted here.
    pub(crate) fn post(&self, proc: ProcessId, msg: Incoming<A>) -> bool {
        let posted = self
            .inboxes
            .get(proc.index())
            .and_then(Option::as_ref)
            .is_some_and(|inbox| inbox.send(msg).is_ok());
        if posted {
            (self.wake)(proc);
        }
        posted
    }

    /// The typed refusal for driving a process another node hosts: its
    /// lifecycle and its operations belong to the node hosting it.
    pub(crate) fn check_hosted(&self, proc: ProcessId) -> Result<(), DriverError> {
        if self.inboxes[proc.index()].is_none() {
            return Err(DriverError::Backend(format!(
                "process {proc} is not hosted on this node"
            )));
        }
        Ok(())
    }

    /// The reply cell of a pair that has issued an operation.
    fn reply_cell(&self, proc: ProcessId, reg: RegisterId) -> &ReplyCell<A::Value> {
        &self.replies[&(proc, reg)]
    }

    /// Whether the pair's operation can still complete. A parked operation
    /// whose reply has landed is recorded — so the history stays truthful —
    /// and remembered as [`Slot::Done`]; one whose process died with it can
    /// never complete, and its pair is free again.
    fn in_flight(&self, (proc, reg): (ProcessId, RegisterId), slot: &mut Slot<A::Value>) -> bool {
        match *slot {
            Slot::Busy => true,
            Slot::Done(..) => false,
            Slot::Abandoned(op_id) => match self.reply_cell(proc, reg).try_take(op_id) {
                Reply::Ready(outcome) => {
                    self.recorder
                        .completed(op_id, self.recorder.now(), outcome.clone());
                    *slot = Slot::Done(op_id, outcome);
                    false
                }
                Reply::Pending => true,
                Reply::Gone => false,
            },
        }
    }

    /// The first pair with an operation still in flight, if any — recovery
    /// needs a quiet deployment.
    pub(crate) fn first_in_flight(&self) -> Option<(ProcessId, RegisterId)> {
        let mut table = self.inflight.lock();
        for (key, slot) in table.iter_mut() {
            if self.in_flight(*key, slot) {
                return Some(*key);
            }
        }
        None
    }

    /// Claims the pair, arms its reply cell, posts the invocation and
    /// records it; the caller owns the reply (the pair reads
    /// [`Slot::Busy`]) until it hands the ticket to [`Spine::await_reply`]
    /// or [`Spine::park`].
    pub(crate) fn issue(
        &self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
    ) -> Result<OpTicket, ClientError> {
        let key = (proc, reg);
        // Registers are checked before anything is issued: no cell means a
        // process outside the configuration.
        let cell = self
            .replies
            .get(&key)
            .ok_or(ClientError::ProcessUnavailable)?;
        {
            let mut table = self.inflight.lock();
            if table
                .get_mut(&key)
                .is_some_and(|slot| self.in_flight(key, slot))
            {
                return Err(ClientError::OperationInFlight { proc, reg });
            }
            table.insert(key, Slot::Busy);
        }
        let op_id = OpId::new(self.op_ids.fetch_add(1, Ordering::Relaxed));
        let invoked_at = self.recorder.now();
        let invoke = Incoming::Invoke {
            reg,
            op_id,
            op: op.clone(),
            reply: cell.arm(op_id),
        };
        if !self.post(proc, invoke) {
            self.inflight.lock().remove(&key);
            return Err(ClientError::ProcessUnavailable);
        }
        self.recorder.invoked(op_id, proc, reg, op, invoked_at);
        Ok(OpTicket { proc, reg, op_id })
    }

    /// Parks an un-awaited operation: the pair stays busy until its reply
    /// is awaited again or reaped.
    pub(crate) fn park(&self, t: OpTicket) {
        self.inflight
            .lock()
            .insert((t.proc, t.reg), Slot::Abandoned(t.op_id));
    }

    /// Blocks for an issued operation's reply, up to the operation timeout
    /// — the one place a reply is awaited, so the one timeout rule: on
    /// [`ClientError::Timeout`] the operation is parked again and stays in
    /// flight.
    pub(crate) fn await_reply(&self, t: OpTicket) -> Result<OpOutcome<A::Value>, ClientError> {
        match self
            .reply_cell(t.proc, t.reg)
            .wait(t.op_id, self.op_timeout)
        {
            Reply::Ready(outcome) => {
                self.recorder
                    .completed(t.op_id, self.recorder.now(), outcome.clone());
                self.inflight
                    .lock()
                    .insert((t.proc, t.reg), Slot::Done(t.op_id, outcome.clone()));
                Ok(outcome)
            }
            Reply::Pending => {
                self.park(t);
                Err(ClientError::Timeout)
            }
            Reply::Gone => {
                self.inflight.lock().remove(&(t.proc, t.reg));
                Err(ClientError::ProcessUnavailable)
            }
        }
    }

    /// [`Driver::invoke`](twobit_proto::Driver::invoke): issues `op` and
    /// parks its reply under the returned ticket. Addressing is checked in
    /// the simulator's order: unknown process, unknown register, crashed
    /// process, process hosted elsewhere ([`DriverError::Backend`]), busy
    /// pair.
    pub fn invoke(
        &self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
    ) -> Result<OpTicket, DriverError> {
        if proc.index() >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(proc));
        }
        if !self.registers.contains(&reg) {
            return Err(DriverError::UnknownRegister(reg));
        }
        if self.crashed[proc.index()].load(Ordering::Relaxed) {
            return Err(DriverError::ProcessUnavailable(proc));
        }
        self.check_hosted(proc)?;
        let ticket = self
            .issue(proc, reg, op)
            .map_err(|e| to_driver_error(e, proc))?;
        self.park(ticket);
        Ok(ticket)
    }

    /// [`Driver::poll`](twobit_proto::Driver::poll): blocks for the
    /// ticket's reply, up to the operation timeout.
    /// [`DriverError::Stalled`] is a ticket this deployment does not know
    /// (any more): never issued here, or superseded by a later operation
    /// on its pair.
    pub fn poll(&self, ticket: &OpTicket) -> Result<OpOutcome<A::Value>, DriverError> {
        match self.inflight.lock().get_mut(&(ticket.proc, ticket.reg)) {
            Some(Slot::Done(id, outcome)) if *id == ticket.op_id => return Ok(outcome.clone()),
            // Busy while this poll waits, like a live handle.
            Some(slot) if matches!(*slot, Slot::Abandoned(id) if id == ticket.op_id) => {
                *slot = Slot::Busy;
            }
            _ => return Err(DriverError::Stalled(ticket.op_id)),
        }
        self.await_reply(*ticket)
            .map_err(|e| to_driver_error(e, ticket.proc))
    }

    /// [`Driver::crash`](twobit_proto::Driver::crash). A process another
    /// node hosts is refused with [`DriverError::Backend`], touching
    /// nothing: a flag set here would drop this node's sends to a live
    /// peer, and no recovery here could undo it.
    pub fn crash(&self, proc: ProcessId) -> Result<(), DriverError> {
        let pi = proc.index();
        if pi >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(proc));
        }
        self.check_hosted(proc)?;
        self.life.lock()[pi]
            .crash()
            .map_err(|_| DriverError::AlreadyCrashed(proc))?;
        self.crashed[pi].store(true, Ordering::Relaxed);
        // Nudge the process so it observes the flag (and drops its
        // in-flight replies) even when idle. Not a shutdown — the parked
        // process must survive for a later recovery.
        self.post(proc, Incoming::Nudge);
        Ok(())
    }

    /// The current lifecycle state of `proc` (out-of-range ids report
    /// [`Lifecycle::Crashed`], matching the `Driver` contract).
    pub fn lifecycle(&self, proc: ProcessId) -> Lifecycle {
        self.life
            .lock()
            .get(proc.index())
            .map_or(Lifecycle::Crashed, |l| l.state)
    }

    /// A blocking client bound to `proc` on `reg`.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownRegister`] if the deployment does not host
    /// `reg`.
    pub fn client(
        self: &Arc<Self>,
        proc: ProcessId,
        reg: RegisterId,
    ) -> Result<RegisterClient<A>, ClientError> {
        if !self.registers.contains(&reg) {
            return Err(ClientError::UnknownRegister(reg));
        }
        Ok(RegisterClient::new(Arc::clone(self), proc, reg))
    }

    /// Snapshot of the flat operation history recorded so far (all
    /// registers interleaved).
    pub fn history(&self) -> History<A::Value> {
        self.recorder.snapshot()
    }

    /// Snapshot of the per-register operation histories recorded so far.
    pub fn sharded_history(&self) -> ShardedHistory<A::Value> {
        self.recorder.snapshot_sharded(&self.registers)
    }

    /// Snapshot of the network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }
}
