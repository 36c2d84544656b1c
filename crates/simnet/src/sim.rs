//! The discrete-event simulation engine.
//!
//! Executes a set of [`Automaton`] processes under the `CAMP_{n,t}` model:
//! events (operation invocations, message deliveries, crashes) are processed
//! in virtual-time order; handlers run atomically and instantaneously (the
//! paper's time-complexity analysis assumes instantaneous local computation);
//! message delays are sampled from a [`DelayModel`]; ties are broken by a
//! global sequence number, making every run a deterministic function of the
//! seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use twobit_proto::{
    Automaton, Effects, History, OpId, OpRecord, Operation, ProcessId, SystemConfig, WireMessage,
};

use crate::crash::{CrashPlan, CrashPoint};
use crate::delay::DelayModel;
use crate::invariant::{InFlightMsg, InvariantViolation, SimInvariant, SimView};
use crate::workload::{ClientPlan, PlannedOp};
use crate::SimTime;
use twobit_proto::stats::NetStats;

/// Errors terminating a simulation abnormally.
#[derive(Debug)]
pub enum SimError {
    /// A registered invariant failed.
    InvariantViolated(InvariantViolation),
    /// The protocol misbehaved at the harness level (e.g. completed an
    /// operation twice, or an operation that was never invoked).
    ProtocolError(String),
    /// The event budget was exhausted — almost certainly a livelock or a
    /// runaway message storm.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// Virtual time ran past the configured horizon.
    TimeLimitExceeded {
        /// The configured limit.
        limit: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvariantViolated(v) => write!(f, "{v}"),
            SimError::ProtocolError(d) => write!(f, "protocol error: {d}"),
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit exceeded ({limit} events)")
            }
            SimError::TimeLimitExceeded { limit } => {
                write!(f, "virtual time limit exceeded (t={limit})")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::InvariantViolated(v)
    }
}

/// Outcome of a completed simulation run.
#[derive(Debug)]
pub struct SimReport<A: Automaton> {
    /// The operation history of the run (input to `twobit-lincheck`).
    pub history: History<A::Value>,
    /// Network statistics.
    pub stats: NetStats,
    /// Virtual time at which the run went quiescent.
    pub final_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Operations of *live* processes that never completed. Non-empty means
    /// the protocol stalled — expected only when more than `t` processes
    /// crashed (quorum unreachable), a liveness bug otherwise.
    pub stalled_ops: Vec<OpId>,
    /// Final automaton states (for post-mortem inspection).
    pub procs: Vec<A>,
    /// Final crash flags.
    pub crashed: Vec<bool>,
}

impl<A: Automaton> SimReport<A> {
    /// Convenience: `true` if every operation by a live process completed.
    pub fn all_live_ops_completed(&self) -> bool {
        self.stalled_ops.is_empty()
    }
}

/// Builder for a [`Simulation`].
#[derive(Debug)]
pub struct SimBuilder {
    cfg: SystemConfig,
    seed: u64,
    delay: DelayModel,
    crashes: CrashPlan,
    check_every: u64,
    max_events: u64,
    max_time: SimTime,
}

impl SimBuilder {
    /// Starts configuring a simulation of `cfg.n()` processes.
    pub fn new(cfg: SystemConfig) -> Self {
        SimBuilder {
            cfg,
            seed: 0,
            delay: DelayModel::Fixed(crate::DEFAULT_DELTA),
            crashes: CrashPlan::none(),
            check_every: 1,
            max_events: 50_000_000,
            max_time: SimTime::MAX / 4,
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the crash schedule.
    pub fn crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Checks registered invariants every `k` events (`0` disables checks;
    /// default `1` = after every event).
    pub fn check_every(mut self, k: u64) -> Self {
        self.check_every = k;
        self
    }

    /// Sets the runaway guard on the number of events.
    pub fn max_events(mut self, limit: u64) -> Self {
        self.max_events = limit;
        self
    }

    /// Sets the runaway guard on virtual time.
    pub fn max_time(mut self, limit: SimTime) -> Self {
        self.max_time = limit;
        self
    }

    /// Instantiates the processes via `make` and returns the simulation.
    ///
    /// The initial register value is taken from the automatons themselves;
    /// `initial` records it in the history for the checker.
    pub fn build_with_initial<A, F>(self, initial: A::Value, mut make: F) -> Simulation<A>
    where
        A: Automaton,
        F: FnMut(ProcessId) -> A,
    {
        let n = self.cfg.n();
        let procs: Vec<A> = (0..n).map(|i| make(ProcessId::new(i))).collect();
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p.id().index(), i, "automaton id must match its slot");
        }
        let mut sim = Simulation {
            cfg: self.cfg,
            procs,
            crashed: vec![false; n],
            fatal_step: vec![None; n],
            steps_taken: vec![0; n],
            now: 0,
            queue: BinaryHeap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(self.seed),
            delay: self.delay,
            history: History::new(initial),
            stats: NetStats::new(),
            plans: (0..n).map(|_| Vec::new()).collect(),
            plan_cursor: vec![0; n],
            plan_start: vec![0; n],
            started: false,
            outstanding: vec![None; n],
            invariants: Vec::new(),
            check_every: self.check_every,
            events: 0,
            max_events: self.max_events,
            max_time: self.max_time,
        };
        // Schedule time-based crashes now so they sort before same-instant
        // deliveries (lower seq). Step-based crashes arm `fatal_step`.
        for (p, point) in self.crashes.iter() {
            match point {
                CrashPoint::AtTime(t) => {
                    sim.push_event(t, p, EventKind::Crash);
                }
                CrashPoint::OnStep {
                    step,
                    sends_allowed,
                } => {
                    sim.fatal_step[p.index()] = Some((step, sends_allowed));
                }
            }
        }
        sim
    }

    /// Instantiates the processes via `make`, using `V::default()` as the
    /// recorded initial register value.
    pub fn build<A, F>(self, make: F) -> Simulation<A>
    where
        A: Automaton,
        A::Value: Default,
        F: FnMut(ProcessId) -> A,
    {
        self.build_with_initial(A::Value::default(), make)
    }
}

enum EventKind<A: Automaton> {
    Deliver {
        from: ProcessId,
        msg: A::Msg,
        sent_at: SimTime,
    },
    Invoke {
        op: Operation<A::Value>,
    },
    Crash,
}

struct QueuedEvent<A: Automaton> {
    at: SimTime,
    seq: u64,
    proc: ProcessId,
    kind: EventKind<A>,
}

// Total order on events: `(at, seq)` ascending — virtual time first, then
// the birth sequence number as the same-instant tie-break. Every `seq` is
// allocated at a point determined by the configuration and prior events
// (time-based crashes at build, first plan invocations at start in
// process-id order, handler sends in handler order), never by the order
// test code happened to call the builder — so two identically-configured
// simulations replay identically, whatever the insertion order.
// `BinaryHeap` is a max-heap; the comparison is reversed to pop the
// minimum.
impl<A: Automaton> PartialEq for QueuedEvent<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<A: Automaton> Eq for QueuedEvent<A> {}
impl<A: Automaton> PartialOrd for QueuedEvent<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: Automaton> Ord for QueuedEvent<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A configured, runnable simulation.
///
/// Construct with [`SimBuilder`], add [`ClientPlan`]s and invariants, then
/// call [`Simulation::run`].
pub struct Simulation<A: Automaton> {
    cfg: SystemConfig,
    procs: Vec<A>,
    crashed: Vec<bool>,
    fatal_step: Vec<Option<(u64, usize)>>,
    steps_taken: Vec<u64>,
    now: SimTime,
    queue: BinaryHeap<QueuedEvent<A>>,
    seq: u64,
    rng: StdRng,
    delay: DelayModel,
    history: History<A::Value>,
    stats: NetStats,
    plans: Vec<Vec<PlannedOp<A::Value>>>,
    plan_cursor: Vec<usize>,
    /// Virtual instant of each process's first scripted invocation
    /// (start offset + the first op's delay).
    plan_start: Vec<SimTime>,
    /// Whether the first event has been processed. First plan invocations
    /// are scheduled lazily at that point, in process-id order, so the
    /// order of `client_plan` calls never leaks into event sequence
    /// numbers (a prerequisite for byte-stable schedule replay).
    started: bool,
    /// Per process: the outstanding op (its completion schedules the next
    /// scripted one).
    outstanding: Vec<Option<OpId>>,
    invariants: Vec<Box<dyn SimInvariant<A>>>,
    check_every: u64,
    events: u64,
    max_events: u64,
    max_time: SimTime,
}

impl<A: Automaton> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cfg", &self.cfg)
            .field("now", &self.now)
            .field("crashed", &self.crashed)
            .field("queued_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> Simulation<A> {
    /// Assigns a client plan to a process. First invocations are scheduled
    /// when the simulation starts stepping, in process-id order — the
    /// order of `client_plan` calls is immaterial to the run.
    ///
    /// # Panics
    ///
    /// Panics if the process already has a plan (a replacement would break
    /// per-process sequentiality) or if the simulation has already started
    /// stepping (the new plan's first invocation would be silently late).
    pub fn client_plan(&mut self, proc: impl Into<ProcessId>, plan: ClientPlan<A::Value>) {
        let proc = proc.into();
        assert!(
            !self.started,
            "client plans must be assigned before the simulation steps"
        );
        assert!(
            self.plans[proc.index()].is_empty(),
            "process {proc} already has a client plan"
        );
        let (ops, start_at) = plan.into_parts();
        if let Some(first) = ops.first() {
            self.plan_start[proc.index()] = start_at + first.delay_before;
        }
        self.plans[proc.index()] = ops;
        self.plan_cursor[proc.index()] = 0;
    }

    /// Registers a global invariant, checked every `check_every` events.
    pub fn add_invariant(&mut self, inv: Box<dyn SimInvariant<A>>) {
        self.invariants.push(inv);
    }

    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    fn push_event(&mut self, at: SimTime, proc: ProcessId, kind: EventKind<A>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq,
            proc,
            kind,
        });
    }

    /// Schedules every plan's first invocation, in process-id order, the
    /// first time the simulation steps. Deferring this to start makes the
    /// invocation events' sequence numbers (the same-instant tie-break) a
    /// function of the process ids alone, not of `client_plan` call order.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.plans.len() {
            if !self.plans[i].is_empty() {
                self.schedule_invoke(ProcessId::new(i), self.plan_start[i]);
            }
        }
    }

    fn schedule_invoke(&mut self, proc: ProcessId, at: SimTime) {
        let cursor = self.plan_cursor[proc.index()];
        let op = self.plans[proc.index()][cursor].op.clone();
        self.push_event(at, proc, EventKind::Invoke { op });
    }

    /// Processes the next queued event. Returns `Ok(false)` when the queue
    /// is empty (quiescence).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on invariant violation, protocol misbehaviour,
    /// or when the event/time guards trip.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.ensure_started();
        let Some(ev) = self.queue.pop() else {
            return Ok(false);
        };
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.now = ev.at;
        if self.now > self.max_time {
            return Err(SimError::TimeLimitExceeded {
                limit: self.max_time,
            });
        }
        self.events += 1;
        if self.events > self.max_events {
            return Err(SimError::EventLimitExceeded {
                limit: self.max_events,
            });
        }

        let p = ev.proc;
        let pi = p.index();
        match ev.kind {
            EventKind::Crash => {
                self.crashed[pi] = true;
            }
            EventKind::Deliver { from, msg, .. } => {
                if self.crashed[pi] {
                    self.stats.record_drop_to_crashed();
                } else {
                    self.stats.record_delivery();
                    let mut fx = Effects::new();
                    self.procs[pi].on_message(from, msg, &mut fx);
                    self.finish_step(p, fx)?;
                }
            }
            EventKind::Invoke { op } => {
                if !self.crashed[pi] {
                    let op_id = OpId::new(self.history.records.len() as u64);
                    if let Some(prev) = self.outstanding[pi] {
                        return Err(SimError::ProtocolError(format!(
                            "process {p} invoked {op_id} while {prev} is outstanding"
                        )));
                    }
                    self.outstanding[pi] = Some(op_id);
                    self.history.records.push(OpRecord {
                        op_id,
                        proc: p,
                        op: op.clone(),
                        invoked_at: self.now,
                        completed: None,
                    });
                    let mut fx = Effects::new();
                    self.procs[pi].on_invoke(op_id, op, &mut fx);
                    self.finish_step(p, fx)?;
                }
            }
        }

        if self.check_every > 0 && self.events.is_multiple_of(self.check_every) {
            self.check_invariants()?;
        }
        Ok(true)
    }

    /// Processes events until the queue drains.
    ///
    /// # Errors
    ///
    /// As for [`Simulation::step`].
    pub fn run_to_quiescence(&mut self) -> Result<(), SimError> {
        while self.step()? {}
        Ok(())
    }

    /// Consumes the (quiescent or abandoned) simulation into its report.
    pub fn into_report(self) -> SimReport<A> {
        // Collect ops of live processes that never completed.
        let stalled_ops = self
            .history
            .records
            .iter()
            .filter(|r| !r.is_complete() && !self.crashed[r.proc.index()])
            .map(|r| r.op_id)
            .collect();

        SimReport {
            history: self.history,
            stats: self.stats,
            final_time: self.now,
            events: self.events,
            stalled_ops,
            procs: self.procs,
            crashed: self.crashed,
        }
    }

    /// Runs the simulation to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on invariant violation, protocol misbehaviour,
    /// or when the event/time guards trip.
    pub fn run(mut self) -> Result<SimReport<A>, SimError> {
        self.run_to_quiescence()?;
        Ok(self.into_report())
    }

    /// Applies the effects of one handler execution at process `p`,
    /// honouring a step-based crash point if armed.
    fn finish_step(
        &mut self,
        p: ProcessId,
        mut fx: Effects<A::Msg, A::Value>,
    ) -> Result<(), SimError> {
        let pi = p.index();
        self.steps_taken[pi] += 1;
        let mut sends_allowed = usize::MAX;
        let mut dies_now = false;
        if let Some((step, allowed)) = self.fatal_step[pi] {
            if self.steps_taken[pi] == step {
                sends_allowed = allowed;
                dies_now = true;
            }
        }

        for (idx, (to, msg)) in fx.drain_sends().enumerate() {
            if idx >= sends_allowed {
                break;
            }
            debug_assert!(to != p, "protocols must not send to self");
            self.stats.record_send(msg.kind(), msg.cost());
            let delay = self.delay.sample(&mut self.rng);
            let sent_at = self.now;
            self.push_event(
                self.now + delay,
                to,
                EventKind::Deliver {
                    from: p,
                    msg,
                    sent_at,
                },
            );
        }

        if dies_now {
            // The process dies inside this handler: its completions are
            // suppressed (the caller never sees a response).
            self.crashed[pi] = true;
            return Ok(());
        }

        for (op_id, outcome) in fx.drain_completions() {
            let rec = self
                .history
                .records
                .get_mut(op_id.raw() as usize)
                .ok_or_else(|| {
                    SimError::ProtocolError(format!("completion for unknown op {op_id}"))
                })?;
            if rec.completed.is_some() {
                return Err(SimError::ProtocolError(format!(
                    "op {op_id} completed twice"
                )));
            }
            if rec.proc != p {
                return Err(SimError::ProtocolError(format!(
                    "op {op_id} of {} completed by {p}",
                    rec.proc
                )));
            }
            rec.completed = Some((self.now, outcome));
            if self.outstanding[pi] != Some(op_id) {
                return Err(SimError::ProtocolError(format!(
                    "op {op_id} completed but was not outstanding at {p}"
                )));
            }
            self.outstanding[pi] = None;
            // Closed loop: schedule the next scripted op, if any.
            self.plan_cursor[pi] += 1;
            let cursor = self.plan_cursor[pi];
            if cursor < self.plans[pi].len() {
                let at = self.now + self.plans[pi][cursor].delay_before;
                self.schedule_invoke(p, at);
            }
        }
        Ok(())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Snapshot of the network statistics so far.
    pub fn net_stats(&self) -> NetStats {
        self.stats.clone()
    }

    fn check_invariants(&mut self) -> Result<(), SimError> {
        if self.invariants.is_empty() {
            return Ok(());
        }
        let inflight: Vec<InFlightMsg<'_, A::Msg>> = self
            .queue
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Deliver { from, msg, sent_at } => Some(InFlightMsg {
                    from: *from,
                    to: ev.proc,
                    msg,
                    sent_at: *sent_at,
                    deliver_at: ev.at,
                    send_seq: ev.seq,
                }),
                _ => None,
            })
            .collect();
        let view = SimView {
            now: self.now,
            procs: &self.procs,
            crashed: &self.crashed,
            inflight: &inflight,
        };
        let mut invariants = std::mem::take(&mut self.invariants);
        let mut failure = None;
        for inv in &mut invariants {
            if let Err(detail) = inv.check(&view) {
                failure = Some(InvariantViolation {
                    invariant: inv.name(),
                    at: self.now,
                    detail,
                });
                break;
            }
        }
        // Also run each automaton's local invariant checks.
        if failure.is_none() {
            for (i, a) in self.procs.iter().enumerate() {
                if self.crashed[i] {
                    continue;
                }
                if let Err(detail) = a.check_local_invariants() {
                    failure = Some(InvariantViolation {
                        invariant: "local",
                        at: self.now,
                        detail: format!("{}: {detail}", a.id()),
                    });
                    break;
                }
            }
        }
        // `view` and `inflight` borrow `self.procs`/`self.queue`; both end
        // here, freeing `self` for the reassignment below.
        let _ = view;
        drop(inflight);
        self.invariants = invariants;
        match failure {
            Some(v) => Err(v.into()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{EchoMsg, MajorityEcho, NullRegister};
    use crate::{ClientPlan, CrashPlan, CrashPoint, DelayModel, PlannedOp};

    fn cfg5() -> SystemConfig {
        SystemConfig::new(5, 2).unwrap()
    }

    #[test]
    fn null_register_runs_to_quiescence() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut sim = SimBuilder::new(cfg).build(|id| NullRegister::new(id, cfg));
        sim.client_plan(
            0,
            ClientPlan::ops([Operation::Write(7u64), Operation::Read]),
        );
        let report = sim.run().unwrap();
        assert!(report.all_live_ops_completed());
        assert_eq!(report.history.len(), 2);
        let read = &report.history.records[1];
        assert_eq!(read.read_result(), Some(&7));
        assert_eq!(report.stats.total_sent(), 0);
    }

    #[test]
    fn majority_echo_write_takes_two_delta_and_2n_minus_2_msgs() {
        let cfg = cfg5();
        let mut sim = SimBuilder::new(cfg)
            .delay(DelayModel::Fixed(1_000))
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(9u64)]));
        let report = sim.run().unwrap();
        assert!(report.all_live_ops_completed());
        let w = &report.history.records[0];
        // Broadcast (Δ) + echo (Δ): the quorum is reached at exactly 2Δ.
        assert_eq!(w.latency(), Some(2_000));
        // 4 PINGs + 4 PONGs (all peers eventually echo).
        assert_eq!(report.stats.sent_of_kind("PING"), 4);
        assert_eq!(report.stats.sent_of_kind("PONG"), 4);
        assert_eq!(report.stats.total_delivered(), 8);
    }

    #[test]
    fn plan_insertion_order_does_not_change_the_run() {
        // Two same-instant invocations on different processes: whatever
        // order the plans are assigned in, the event tie-break is the
        // process id, so the histories are identical — the byte-stability
        // schedule replay depends on.
        let run = |flipped: bool| {
            let cfg = cfg5();
            let mut sim = SimBuilder::new(cfg)
                .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
                .seed(17)
                .build(|id| MajorityEcho::new(id, cfg));
            let plans = [
                (0usize, ClientPlan::ops([Operation::Write(1u64)])),
                (1usize, ClientPlan::ops([Operation::Write(2u64)])),
            ];
            let order: Vec<usize> = if flipped { vec![1, 0] } else { vec![0, 1] };
            for i in order {
                let (p, plan) = &plans[i];
                sim.client_plan(*p, plan.clone());
            }
            let report = sim.run().unwrap();
            (
                format!("{:?}", report.history.records),
                report.final_time,
                report.events,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "before the simulation steps")]
    fn late_plan_assignment_is_rejected() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut sim = SimBuilder::new(cfg).build(|id| NullRegister::new(id, cfg));
        sim.client_plan(0, ClientPlan::ops([Operation::Write(1u64)]));
        sim.run_to_quiescence().unwrap();
        sim.client_plan(1, ClientPlan::ops([Operation::Write(2u64)]));
    }

    #[test]
    fn crash_at_time_silences_process() {
        let cfg = cfg5();
        let mut sim = SimBuilder::new(cfg)
            .delay(DelayModel::Fixed(1_000))
            .crashes(CrashPlan::none().with_crash(2, CrashPoint::AtTime(500)))
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(9u64)]));
        let report = sim.run().unwrap();
        // p2 is dead before the PING arrives: only 3 PONGs, still a quorum.
        assert!(report.all_live_ops_completed());
        assert_eq!(report.stats.sent_of_kind("PONG"), 3);
        assert_eq!(report.stats.dropped_to_crashed(), 1);
        assert!(report.crashed[2]);
    }

    #[test]
    fn write_stalls_without_quorum() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        // Crash both peers: the writer can never gather n-t = 2 acks.
        let mut sim = SimBuilder::new(cfg)
            .crashes(
                CrashPlan::none()
                    .with_crash(1, CrashPoint::AtTime(1))
                    .with_crash(2, CrashPoint::AtTime(1)),
            )
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(0, ClientPlan::ops([Operation::Write(3u64)]).starting_at(10));
        let report = sim.run().unwrap();
        assert_eq!(report.stalled_ops.len(), 1);
        assert!(!report.all_live_ops_completed());
    }

    #[test]
    fn on_step_crash_cuts_broadcast() {
        let cfg = cfg5();
        // The writer's first handler execution is the write invocation,
        // which broadcasts 4 PINGs; allow only 2 to escape.
        let mut sim = SimBuilder::new(cfg)
            .crashes(CrashPlan::none().with_crash(
                1,
                CrashPoint::OnStep {
                    step: 1,
                    sends_allowed: 2,
                },
            ))
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(9u64)]));
        let report = sim.run().unwrap();
        assert_eq!(report.stats.sent_of_kind("PING"), 2);
        // The write never completes, but its process crashed, so it is not
        // counted as stalled.
        assert!(report.all_live_ops_completed());
        assert!(report.crashed[1]);
        assert!(!report.history.records[0].is_complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = cfg5();
        let run = |seed: u64| {
            let mut sim = SimBuilder::new(cfg)
                .seed(seed)
                .delay(DelayModel::Uniform { lo: 10, hi: 2_000 })
                .build(|id| MajorityEcho::new(id, cfg));
            sim.client_plan(
                1,
                ClientPlan::ops((0..20).map(|i| Operation::Write(i as u64))),
            );
            sim.client_plan(3, ClientPlan::ops((0..20).map(|_| Operation::<u64>::Read)));
            let r = sim.run().unwrap();
            (
                r.final_time,
                r.events,
                r.stats.total_sent(),
                r.history
                    .records
                    .iter()
                    .map(|rec| (rec.invoked_at, rec.response_at()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn closed_loop_respects_delays() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut sim = SimBuilder::new(cfg).build(|id| NullRegister::new(id, cfg));
        sim.client_plan(
            0,
            ClientPlan::new(vec![
                PlannedOp::after(100, Operation::Write(1u64)),
                PlannedOp::after(50, Operation::Read),
            ])
            .starting_at(1_000),
        );
        let report = sim.run().unwrap();
        assert_eq!(report.history.records[0].invoked_at, 1_100);
        // NullRegister completes instantly, so the read fires 50 later.
        assert_eq!(report.history.records[1].invoked_at, 1_150);
    }

    #[test]
    fn invariant_violation_aborts() {
        let cfg = cfg5();
        let mut sim = SimBuilder::new(cfg)
            .delay(DelayModel::Fixed(100))
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(9u64)]));
        sim.add_invariant(Box::new((
            "no-pings-please",
            |view: &SimView<'_, MajorityEcho>| {
                if view
                    .inflight
                    .iter()
                    .any(|m| matches!(m.msg, EchoMsg::Ping(_)))
                {
                    Err("saw a PING in flight".to_string())
                } else {
                    Ok(())
                }
            },
        )));
        let err = sim.run().unwrap_err();
        match err {
            SimError::InvariantViolated(v) => {
                assert_eq!(v.invariant, "no-pings-please");
                assert!(v.detail.contains("PING"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn event_limit_guards_runaway() {
        let cfg = cfg5();
        let mut sim = SimBuilder::new(cfg)
            .max_events(3)
            .build(|id| MajorityEcho::new(id, cfg));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(1u64)]));
        match sim.run() {
            Err(SimError::EventLimitExceeded { limit: 3 }) => {}
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn channel_view_orders_by_send_seq() {
        // Verified indirectly: the invariant sees both PINGs on p1->p0? No —
        // one PING per destination. Instead check the channel() helper over
        // a two-writes run where WRITE+WRITE pings stack up on a channel.
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut sim = SimBuilder::new(cfg)
            .delay(DelayModel::Fixed(10_000))
            .build(|id| MajorityEcho::new(id, cfg));
        // Two processes write concurrently: both send a PING to p2.
        sim.client_plan(0, ClientPlan::ops([Operation::Write(1u64)]));
        sim.client_plan(1, ClientPlan::ops([Operation::Write(2u64)]).starting_at(1));
        let seen = std::rc::Rc::new(std::cell::Cell::new(false));
        let seen2 = seen.clone();
        sim.add_invariant(Box::new((
            "channel-order",
            move |view: &SimView<'_, MajorityEcho>| {
                let ch = view.channel(ProcessId::new(0), ProcessId::new(2));
                if !ch.is_empty() {
                    seen2.set(true);
                    for w in ch.windows(2) {
                        if w[0].send_seq >= w[1].send_seq {
                            return Err("channel not sorted".into());
                        }
                    }
                }
                Ok(())
            },
        )));
        sim.run().unwrap();
        assert!(seen.get(), "invariant should have observed the channel");
    }
}
