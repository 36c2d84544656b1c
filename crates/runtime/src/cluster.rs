//! The process side of a live cluster: the messages a hosted process
//! consumes ([`Incoming`]) and the one handler body every live backend runs
//! over them ([`ProcessCore`]).
//!
//! A process hosts a [`ShardSet`] — one automaton instance per register —
//! and exchanges [`Frame`]s of [`Envelope`]-wrapped messages with its
//! peers, so one cluster serves many independent registers (the paper's
//! protocol, once per register). What carries the frames — route sockets,
//! or the delayed, reordering chaos links of an in-process cluster — is
//! the reactor's business (`twobit-reactor`); a frame reaches a handler
//! whole, or is dropped whole with a crashed destination.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use twobit_cache::{cache_pair, CacheDecision, CacheMode, CacheReader, CacheWriter};
use twobit_proto::{
    Automaton, Effects, Envelope, Frame, NetStats, OpId, OpOutcome, Operation, ProcessId,
    RegisterId, ShardSet, WireMessage,
};

use crate::reply::ReplyTo;

/// One recovery's worth of per-register snapshots, shared between the
/// coordinator, the recovering process, and every live peer (the same
/// values are installed at all of them — that is the barrier).
pub type RegisterSnapshots<V> = Arc<Vec<(RegisterId, Vec<V>)>>;

/// A donor's reply to [`Incoming::SnapshotReq`]: the confirmed snapshot
/// of every hosted register, `None` when the automaton has no recovery
/// hooks.
pub type DonorSnapshots<V> = Option<Vec<(RegisterId, Vec<V>)>>;

/// Messages a process's mailbox carries, and the frames its handler takes.
pub enum Incoming<A: Automaton> {
    /// A frame of protocol messages from one peer (already carried by
    /// its link). Handled atomically: the crash flag is checked once for
    /// the whole frame.
    Frame {
        /// The sending process.
        from: ProcessId,
        /// The coalesced batch of enveloped protocol messages.
        frame: Frame<A::Msg>,
    },
    /// An operation invocation from a client handle.
    Invoke {
        /// The target register.
        reg: RegisterId,
        /// Operation id allocated by the client.
        op_id: OpId,
        /// The operation.
        op: Operation<A::Value>,
        /// Where to deliver the outcome: the pair's reply cell. Dropping
        /// it unsent tells the waiter the operation died.
        reply: ReplyTo<A::Value>,
    },
    /// Crash nudge: makes the owner of an idle process hand it a message,
    /// so it observes its crash flag. Carries no other meaning — a live
    /// process ignores it.
    Nudge,
    /// Recovery coordinator → live donor: report the confirmed snapshot of
    /// every hosted register (`None` if the automaton has no recovery
    /// hooks). Doubles as an inbox barrier: the reply proves every frame
    /// enqueued before this request has been handled.
    SnapshotReq {
        /// Where to deliver the per-register snapshots.
        reply: Sender<DonorSnapshots<A::Value>>,
    },
    /// Recovery coordinator → the crashed (parked) process: install the
    /// snapshot as the new local state of every register and rebuild the
    /// loop-local caches. Only handled while the process's crash flag is
    /// set; a live process treats it as a coordinator bug and ignores it.
    Install {
        /// The barrier state, one entry per hosted register.
        snapshots: RegisterSnapshots<A::Value>,
        /// Acked once the state is installed.
        reply: Sender<()>,
    },
    /// Recovery coordinator → every live peer: `rejoining` is back with
    /// the given barrier state; hard-reset per-peer protocol state to it
    /// (the automatons' `apply_rejoin` hook). Acked after the hook's
    /// effects have been applied, so a completion the barrier unblocks is
    /// answered before the coordinator proceeds.
    Rejoin {
        /// The recovered process.
        rejoining: ProcessId,
        /// The same barrier state installed at the recovered process.
        snapshots: RegisterSnapshots<A::Value>,
        /// Acked once the rejoin has been applied.
        reply: Sender<()>,
    },
    /// Graceful shutdown request.
    Shutdown,
}

impl<A: Automaton> std::fmt::Debug for Incoming<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Incoming::Frame { from, frame } => f
                .debug_struct("Frame")
                .field("from", from)
                .field("msgs", &frame.len())
                .finish(),
            Incoming::Invoke { reg, op_id, op, .. } => f
                .debug_struct("Invoke")
                .field("reg", reg)
                .field("op_id", op_id)
                .field("op", op)
                .finish_non_exhaustive(),
            Incoming::Nudge => f.write_str("Nudge"),
            Incoming::SnapshotReq { .. } => f.write_str("SnapshotReq"),
            Incoming::Install { snapshots, .. } => f
                .debug_struct("Install")
                .field("registers", &snapshots.len())
                .finish_non_exhaustive(),
            Incoming::Rejoin {
                rejoining,
                snapshots,
                ..
            } => f
                .debug_struct("Rejoin")
                .field("rejoining", rejoining)
                .field("registers", &snapshots.len())
                .finish_non_exhaustive(),
            Incoming::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// One in-flight invocation's loop-side state: the reply handle, plus
/// what the cache needs at completion time (the target register and, for a
/// write, the value being written — `OpOutcome::Written` does not carry
/// it).
struct PendingOp<A: Automaton> {
    reply: ReplyTo<A::Value>,
    reg: RegisterId,
    written: Option<A::Value>,
}

/// One process's handler state, and the one handler body every live
/// backend runs: [`ProcessCore::handle`] takes one [`Incoming`], runs the
/// automaton atomically, accounts and hands out the resulting envelopes,
/// and answers completions. The reactor calls it on the event loop that
/// owns the process's links, whatever kind they are, so the protocol
/// semantics (crash checks, send accounting with the deployment's tag
/// width, drop recording for crashed destinations) are identical on every
/// live deployment by construction.
///
/// A crashed process *parks* instead of going away: `handle` keeps
/// accepting messages but discards everything except a recovery
/// [`Incoming::Install`] from the coordinator (see
/// [`recover_process`](crate::recover_process)) or a teardown
/// [`Incoming::Shutdown`] — so `Driver::recover` can bring the process
/// back without rebuilding it.
///
/// `cache_mode` wires the local read cache (`twobit-cache`): the core owns
/// one writer/reader pair, publishes every locally-completed operation's
/// value *before* answering the client, and serves a read invocation from
/// the snapshot — zero protocol messages — when the gate admits it. The
/// publish-before-reply order is what makes hit counts deterministic for
/// sequential workloads, and therefore comparable across backends.
pub struct ProcessCore<A: Automaton> {
    shards: ShardSet<A>,
    crashed: Vec<Arc<AtomicBool>>,
    stats: Arc<Mutex<NetStats>>,
    cache_mode: CacheMode,
    reg_slot: HashMap<RegisterId, usize>,
    cache_w: CacheWriter<A::Value>,
    cache_r: CacheReader<A::Value>,
    pending: HashMap<OpId, PendingOp<A>>,
    /// Reused across calls; empty between them.
    fx: Effects<Envelope<A::Msg>, A::Value>,
    /// The destinations' crash flags as read once per call, so the send
    /// accounting and the delivery pass agree on every envelope's fate.
    dst_crashed: Vec<bool>,
    /// The emptied envelope vector of the last frame handled, until its
    /// owner takes it back ([`ProcessCore::take_frame_storage`]).
    frame_storage: Vec<Envelope<A::Msg>>,
}

impl<A: Automaton> std::fmt::Debug for ProcessCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessCore")
            .field("id", &self.shards.id())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> ProcessCore<A> {
    /// Wraps `shards` with the deployment's crash flags (one per process,
    /// this one's included) and shared statistics.
    pub fn new(
        shards: ShardSet<A>,
        crashed: Vec<Arc<AtomicBool>>,
        stats: Arc<Mutex<NetStats>>,
        cache_mode: CacheMode,
    ) -> Self {
        let reg_slot: HashMap<RegisterId, usize> = shards
            .registers()
            .enumerate()
            .map(|(slot, reg)| (reg, slot))
            .collect();
        let (cache_w, cache_r) = cache_pair::<A::Value>(reg_slot.len(), cache_mode);
        ProcessCore {
            shards,
            dst_crashed: vec![false; crashed.len()],
            crashed,
            stats,
            cache_mode,
            reg_slot,
            cache_w,
            cache_r,
            pending: HashMap::new(),
            fx: Effects::new(),
            frame_storage: Vec::new(),
        }
    }

    /// The process this core runs.
    pub fn id(&self) -> ProcessId {
        self.shards.id()
    }

    /// The envelope vector of the last frame this core handled, emptied:
    /// storage to decode the next frame into ([`Frame::decode_into`])
    /// without an allocation. Has no capacity when there is nothing to
    /// hand back.
    pub fn take_frame_storage(&mut self) -> Vec<Envelope<A::Msg>> {
        std::mem::take(&mut self.frame_storage)
    }

    /// Handles one mailbox message or frame. Every envelope the handler
    /// emits toward a live destination is passed to `deliver` in send
    /// order (so each ordered link sees its envelopes in order), after all
    /// of them have been accounted under one statistics lock; envelopes
    /// toward crashed destinations are counted dropped instead. `deliver`
    /// runs with no lock held.
    ///
    /// Returns `Break` on [`Incoming::Shutdown`]: the owner stops calling.
    pub fn handle(
        &mut self,
        incoming: Incoming<A>,
        mut deliver: impl FnMut(ProcessId, Envelope<A::Msg>),
    ) -> ControlFlow<()> {
        let me = self.shards.id();
        debug_assert!(self.fx.is_empty(), "effects are applied within the call");
        if self.crashed[me.index()].load(Ordering::Relaxed) {
            // Parked: crash semantics without losing the process. Every
            // in-flight client reply is dropped (ops died with the crash;
            // waiting clients read them gone), frames and fresh
            // invocations vanish unprocessed, and the only ways out are a
            // recovery installation from the coordinator — which hands the
            // process a fresh barrier state to resume from — or teardown.
            self.pending.clear();
            match incoming {
                Incoming::Shutdown => return ControlFlow::Break(()),
                Incoming::Install { snapshots, reply } => {
                    for (reg, snap) in snapshots.iter() {
                        let _ = self.shards.install_recovery(*reg, snap);
                    }
                    // The pre-crash cache could serve a value older than
                    // the barrier; start from cold like a rebooted process.
                    let (w, r) = cache_pair::<A::Value>(self.reg_slot.len(), self.cache_mode);
                    self.cache_w = w;
                    self.cache_r = r;
                    let _ = reply.send(());
                }
                _ => {}
            }
            return ControlFlow::Continue(());
        }
        // A rejoin is acked only after its effects (barrier completions)
        // have been applied below.
        let mut rejoin_ack: Option<Sender<()>> = None;
        match incoming {
            Incoming::Shutdown => return ControlFlow::Break(()),
            // Not crashed: a stray install is a coordinator bug, ignored.
            Incoming::Nudge | Incoming::Install { .. } => return ControlFlow::Continue(()),
            Incoming::SnapshotReq { reply } => {
                let snaps: DonorSnapshots<A::Value> = self
                    .shards
                    .registers()
                    .map(|reg| Some((reg, self.shards.recovery_snapshot(reg)?)))
                    .collect();
                let _ = reply.send(snaps);
                return ControlFlow::Continue(());
            }
            Incoming::Rejoin {
                rejoining,
                snapshots,
                reply,
            } => {
                for (reg, snap) in snapshots.iter() {
                    let _ = self
                        .shards
                        .apply_rejoin(*reg, rejoining, snap, &mut self.fx);
                }
                rejoin_ack = Some(reply);
            }
            Incoming::Frame { from, frame } => {
                // Atomic handling: every message of the frame runs at this
                // point of the process's timeline (crash checked above,
                // once for the whole frame). The emptied vector is kept
                // for the owner to decode its next frame into.
                let mut envs = frame.into_vec();
                for env in envs.drain(..) {
                    self.shards.on_message(from, env, &mut self.fx);
                }
                self.frame_storage = envs;
            }
            Incoming::Invoke {
                reg,
                op_id,
                op,
                reply,
            } => {
                if matches!(op, Operation::Read) && self.cache_mode != CacheMode::Off {
                    if let Some(&slot) = self.reg_slot.get(&reg) {
                        match self.cache_r.try_read(slot) {
                            CacheDecision::Hit(v) => {
                                // Served locally: no automaton invocation,
                                // no frames, no wire bytes.
                                self.stats.lock().record_cache_hit();
                                reply.send(OpOutcome::ReadValue(v));
                                return ControlFlow::Continue(());
                            }
                            CacheDecision::Miss => self.stats.lock().record_cache_miss(),
                            CacheDecision::Fallback => self.stats.lock().record_cache_fallback(),
                        }
                    }
                }
                let written = match &op {
                    Operation::Write(v) => Some(v.clone()),
                    Operation::Read => None,
                };
                if self.shards.on_invoke(reg, op_id, op, &mut self.fx).is_err() {
                    // Unknown register: validated at the client layer, so
                    // this is unreachable in practice; dropping the reply
                    // surfaces as ProcessUnavailable there.
                    return ControlFlow::Continue(());
                }
                self.pending.insert(
                    op_id,
                    PendingOp {
                        reply,
                        reg,
                        written,
                    },
                );
            }
        }
        self.apply_sends(&mut deliver);
        self.apply_completions();
        if let Some(ack) = rejoin_ack {
            let _ = ack.send(());
        }
        ControlFlow::Continue(())
    }

    /// Accounts every queued send under one statistics lock — per-message
    /// cost with the deployment's tag width, plus one drop record for the
    /// envelopes whose destination has crashed — then hands the rest to
    /// `deliver` in send order (the link's flush policy coalesces them into
    /// frames).
    fn apply_sends(&mut self, deliver: &mut impl FnMut(ProcessId, Envelope<A::Msg>)) {
        if self.fx.sends().is_empty() {
            return;
        }
        for (seen, flag) in self.dst_crashed.iter_mut().zip(&self.crashed) {
            *seen = flag.load(Ordering::Relaxed);
        }
        // Unframed-equivalent tag width, a per-deployment constant.
        let tag_bits = self.shards.routing_bits();
        {
            let mut st = self.stats.lock();
            let mut dropped = 0u64;
            for (to, env) in self.fx.sends() {
                st.record_send_for(env.reg, env.kind(), env.cost().with_routing(tag_bits));
                dropped += u64::from(self.dst_crashed[to.index()]);
            }
            if dropped > 0 {
                st.record_frame_drop_to_crashed(dropped);
            }
        }
        for (to, env) in self.fx.drain_sends() {
            if !self.dst_crashed[to.index()] {
                deliver(to, env);
            }
        }
    }

    /// Answers the clients whose operations the handler completed.
    fn apply_completions(&mut self) {
        let me = self.shards.id();
        for (op_id, outcome) in self.fx.drain_completions() {
            let Some(p) = self.pending.remove(&op_id) else {
                continue;
            };
            // Publish the confirmed snapshot BEFORE the reply: once the
            // client observes completion, the cache entry exists.
            if self.cache_mode != CacheMode::Off {
                let value = match (&outcome, p.written) {
                    (OpOutcome::ReadValue(v), _) => Some(v.clone()),
                    (OpOutcome::Written, w) => w,
                };
                if let (Some(v), Some(&slot)) = (value, self.reg_slot.get(&p.reg)) {
                    let writer_here =
                        self.shards.shard(p.reg).and_then(Automaton::swmr_writer) == Some(me);
                    self.cache_w.publish(slot, v, writer_here);
                }
            }
            p.reply.send(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::{Reply, ReplyCell};
    use twobit_core::TwoBitProcess;
    use twobit_proto::SystemConfig;

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::max_resilience(n)
    }

    /// A `ProcessCore` per process over shared crash flags and stats, and a
    /// recording `deliver`: what a backend's loop is to the core.
    struct Cores {
        cores: Vec<ProcessCore<TwoBitProcess<u64>>>,
        crashed: Vec<Arc<AtomicBool>>,
        stats: Arc<Mutex<NetStats>>,
    }

    type Sent = Vec<(ProcessId, Envelope<twobit_core::TwoBitMsg<u64>>)>;

    impl Cores {
        fn new(n: usize) -> Self {
            let c = cfg(n);
            let crashed: Vec<_> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
            let stats = Arc::new(Mutex::new(NetStats::new()));
            let cores = (0..n)
                .map(|i| {
                    let shards = ShardSet::new(ProcessId::new(i), &[RegisterId::ZERO], |_, id| {
                        TwoBitProcess::new(id, c, ProcessId::new(0), 0u64)
                    });
                    ProcessCore::new(shards, crashed.clone(), Arc::clone(&stats), CacheMode::Off)
                })
                .collect();
            Cores {
                cores,
                crashed,
                stats,
            }
        }

        /// Hands `incoming` to process `p`; returns what it delivered and
        /// whether it asked its owner to stop.
        fn handle(&mut self, p: usize, incoming: Incoming<TwoBitProcess<u64>>) -> (Sent, bool) {
            let mut sent = Vec::new();
            let flow = self.cores[p].handle(incoming, |to, env| sent.push((to, env)));
            (sent, flow.is_break())
        }

        /// Invokes `op` at process `p` as operation 7; returns what it
        /// delivered and the operation's reply cell.
        fn invoke(&mut self, p: usize, op: Operation<u64>) -> (Sent, Arc<ReplyCell<u64>>) {
            let cell = Arc::new(ReplyCell::new());
            let invoke = Incoming::Invoke {
                reg: RegisterId::ZERO,
                op_id: OpId::new(7),
                op,
                reply: cell.arm(OpId::new(7)),
            };
            (self.handle(p, invoke).0, cell)
        }
    }

    #[test]
    fn core_invoke_emits_sends_and_frames_complete_the_operation() {
        let mut net = Cores::new(3);
        let (mut in_flight, outcome) = net.invoke(0, Operation::Write(5));
        let dsts: Vec<usize> = in_flight.iter().map(|(to, _)| to.index()).collect();
        assert_eq!(dsts, [1, 2], "one WRITE per peer, in send order");
        assert_eq!(
            net.stats.lock().total_sent(),
            2,
            "accounted before delivery"
        );
        assert_eq!(
            outcome.try_take(OpId::new(7)),
            Reply::Pending,
            "no quorum yet"
        );
        // Shuttle one-message frames by hand until the network is quiet.
        let mut from = vec![ProcessId::new(0); in_flight.len()];
        while let Some((to, env)) = in_flight.pop() {
            let frame = Incoming::Frame {
                from: from.pop().unwrap(),
                frame: Frame::from_envelopes(vec![env]),
            };
            let (sent, stop) = net.handle(to.index(), frame);
            assert!(!stop);
            from.extend(sent.iter().map(|_| to));
            in_flight.extend(sent);
        }
        assert_eq!(
            outcome.try_take(OpId::new(7)),
            Reply::Ready(OpOutcome::Written)
        );
        assert!(net.stats.lock().total_sent() > 2, "the peers answered");
    }

    #[test]
    fn core_drops_sends_to_a_crashed_destination_and_counts_them_once() {
        let mut net = Cores::new(3);
        net.crashed[2].store(true, Ordering::Relaxed);
        let (sent, _outcome) = net.invoke(0, Operation::Write(5));
        let dsts: Vec<usize> = sent.iter().map(|(to, _)| to.index()).collect();
        assert_eq!(dsts, [1], "nothing is delivered toward the crashed p2");
        let st = net.stats.lock();
        assert_eq!(st.total_sent(), 2, "a dropped send is still a send");
        assert_eq!(st.dropped_to_crashed(), 1, "one message dropped, as before");
    }

    #[test]
    fn parked_core_answers_only_install_and_shutdown_reports_stop() {
        let mut net = Cores::new(3);
        net.crashed[1].store(true, Ordering::Relaxed);
        let (sent, outcome) = net.invoke(1, Operation::Read);
        assert!(sent.is_empty(), "a parked process sends nothing");
        assert_eq!(
            outcome.try_take(OpId::new(7)),
            Reply::Gone,
            "the invocation died with the crash"
        );
        let (reply, snaps) = crossbeam::channel::bounded(1);
        net.handle(1, Incoming::SnapshotReq { reply });
        assert!(snaps.try_recv().is_err(), "a parked process is no donor");
        let (reply, installed) = crossbeam::channel::bounded(1);
        let install = Incoming::Install {
            snapshots: Arc::new(vec![(RegisterId::ZERO, vec![0, 9])]),
            reply,
        };
        assert!(!net.handle(1, install).1);
        assert_eq!(installed.try_recv(), Ok(()), "the install is acked");
        // Un-crashed, it serves from the installed barrier state.
        net.crashed[1].store(false, Ordering::Relaxed);
        let (reply, snaps) = crossbeam::channel::bounded(1);
        net.handle(1, Incoming::SnapshotReq { reply });
        assert_eq!(
            snaps.try_recv(),
            Ok(Some(vec![(RegisterId::ZERO, vec![0, 9])]))
        );
        assert!(net.handle(1, Incoming::Shutdown).1, "live: stop");
        net.crashed[1].store(true, Ordering::Relaxed);
        assert!(net.handle(1, Incoming::Shutdown).1, "parked: stop");
    }
}
