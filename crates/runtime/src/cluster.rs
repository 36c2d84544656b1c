//! Cluster assembly: process threads, chaos links, crash switches, shards.
//!
//! Each process thread hosts a [`ShardSet`] — one automaton instance per
//! register — and every link carries [`Frame`]s of [`Envelope`]-wrapped
//! messages, so one cluster serves many independent registers (the paper's
//! protocol, once per register). Outbound sends are batched per destination
//! per handler execution, links coalesce batches under a [`FlushPolicy`],
//! and each frame crosses with one sampled delay and one shared routing
//! header — delivered atomically to a live process or dropped whole with a
//! crashed one. The cluster implements the backend-agnostic
//! [`Driver`] interface; blocking per-register handles come from
//! [`Cluster::client`] / [`Cluster::client_for`].

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use twobit_cache::{cache_pair, CacheDecision, CacheMode, CacheReader, CacheWriter};
use twobit_proto::{
    Automaton, BufferPool, Driver, DriverError, Effects, Envelope, Frame, History, Lifecycle,
    NetStats, OpId, OpOutcome, OpTicket, Operation, ProcessId, RegisterId, ShardSet,
    ShardedHistory, SystemConfig, WireMessage,
};
use twobit_simnet::DelayModel;

use crate::batcher::{BuildError, FlushPolicy};
use crate::client::{ClientError, RegisterClient};
use crate::link::{spawn_link, LinkConfig};
use crate::recovery::recover_process;
use crate::reply::ReplyTo;
use crate::spine::{DeployConfig, Spine};

/// One recovery's worth of per-register snapshots, shared between the
/// coordinator, the recovering process, and every live peer (the same
/// values are installed at all of them — that is the barrier).
pub type RegisterSnapshots<V> = Arc<Vec<(RegisterId, Vec<V>)>>;

/// A donor's reply to [`Incoming::SnapshotReq`]: the confirmed snapshot
/// of every hosted register, `None` when the automaton has no recovery
/// hooks.
pub type DonorSnapshots<V> = Option<Vec<(RegisterId, Vec<V>)>>;

/// Messages consumed by a process thread.
pub enum Incoming<A: Automaton> {
    /// A frame of protocol messages from one peer (already routed through
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
    /// Crash nudge: wakes an idle thread so it observes its crash flag.
    /// Carries no other meaning — a live process ignores it.
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

/// One process's outbound channels, one envelope per link item so the
/// links' [`FlushPolicy`] counts real messages (`None` on the self slot).
type OutboundLinks<M> = Vec<Option<Sender<Envelope<M>>>>;

/// The full link-channel matrix, indexed `[src][dst]`.
type LinkTxs<M> = Vec<OutboundLinks<M>>;

/// Builder for a [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    cfg: SystemConfig,
    seed: u64,
    delay: DelayModel,
    wire_codec: bool,
    deploy: DeployConfig,
}

impl ClusterBuilder {
    /// Starts configuring a cluster of `cfg.n()` processes hosting a single
    /// register (use [`ClusterBuilder::registers`] for more).
    pub fn new(cfg: SystemConfig) -> Self {
        ClusterBuilder {
            cfg,
            seed: 0,
            delay: DelayModel::Uniform { lo: 50, hi: 500 }, // 50–500µs
            wire_codec: false,
            deploy: DeployConfig::default(),
        }
    }

    /// Sets the local read-cache mode (default [`CacheMode::Off`]). Under
    /// [`CacheMode::Safe`] each process thread serves a read from its own
    /// confirmed snapshot — zero frames, zero wire bytes — when it is the
    /// register's SWMR writer (`Automaton::swmr_writer`); decisions are
    /// counted in `NetStats::cache_hits` / `cache_misses` /
    /// `cache_fallbacks`. [`CacheMode::UnsafeAblated`] drops the gate — a
    /// deliberately unsound negative control.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.deploy.cache_mode = mode;
        self
    }

    /// Routes every flushed frame through the byte-level codec
    /// ([`Frame::encode`] → [`Frame::decode`]) on its link: the cluster
    /// then delivers the *decoded* bytes, proving serialization fidelity on
    /// the live runtime, and
    /// [`NetStats::wire_bytes`](twobit_proto::NetStats::wire_bytes) reports
    /// the bytes a socket would carry. Requires a codec-capable message
    /// type — a cost-model-only message panics the link thread on the
    /// first flush (operations then time out).
    pub fn wire_codec(mut self, on: bool) -> Self {
        self.wire_codec = on;
        self
    }

    /// Sets the links' default frame flush policy (how aggressively
    /// envelopes coalesce; [`FlushPolicy::immediate`] sends every message
    /// alone on this backend, [`FlushPolicy::adaptive`] sends whatever a
    /// link thread gulped from its channel without waiting for more,
    /// [`FlushPolicy::fixed`] also holds a batch for company). Validated
    /// at build time — an unsatisfiable policy is a typed
    /// [`BuildError::Config`], not a panic inside a link thread.
    pub fn flush_policy(mut self, flush: FlushPolicy) -> Self {
        self.deploy.flush = flush;
        self
    }

    /// Overrides the flush policy for one ordered link `src → dst`,
    /// leaving every other link on the cluster-wide default — the
    /// asymmetric-topology knob (e.g. coalesce hard toward a write-heavy
    /// hub while keeping reader links latency-lean). Also validated at
    /// build time.
    pub fn flush_policy_for(
        mut self,
        src: impl Into<ProcessId>,
        dst: impl Into<ProcessId>,
        flush: FlushPolicy,
    ) -> Self {
        self.deploy
            .flush_overrides
            .insert((src.into(), dst.into()), flush);
        self
    }

    /// Seeds the per-link delay samplers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the link delay model (ticks = microseconds).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the client-side operation timeout.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.deploy.op_timeout = timeout;
        self
    }

    /// Hosts registers `r0 .. r(count-1)`.
    pub fn registers(mut self, count: usize) -> Self {
        self.deploy.registers = RegisterId::first(count);
        self
    }

    /// Hosts exactly the given registers.
    pub fn register_ids(mut self, registers: Vec<RegisterId>) -> Self {
        self.deploy.registers = registers;
        self
    }

    /// Builds and starts the cluster with one automaton per process (all
    /// hosted registers get identical per-process instances).
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy (default
    /// or per-link override); I/O never fails on this in-process backend.
    pub fn build<A, F>(self, initial: A::Value, mut make: F) -> Result<Cluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(ProcessId) -> A,
    {
        self.build_sharded(initial, move |_reg, id| make(id))
    }

    /// Builds and starts the cluster: spawns `n` process threads (each
    /// hosting one automaton per register, created by `make`) and `n(n−1)`
    /// link threads.
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy (default
    /// or per-link override) — caught here, before any thread exists,
    /// because a policy that panics a spawned link thread would silently
    /// strand every message on that pair instead.
    pub fn build_sharded<A, F>(
        self,
        initial: A::Value,
        mut make: F,
    ) -> Result<Cluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        let n = self.cfg.n();
        // Inboxes (one per process).
        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded::<Incoming<A>>()).unzip();
        // Each process thread blocks in `recv` on its own inbox: a post
        // needs no further wake.
        let shared = Arc::new(Spine::new(
            self.cfg,
            &self.deploy,
            inbox_txs.iter().cloned().map(Some).collect(),
            |_| {},
            initial,
        )?);
        let crashed = shared.crash_flags();
        let stats = shared.stats_handle();

        // Links: input channel per ordered pair (i → j). Items are single
        // envelopes — the link's flush policy decides how many coalesce
        // into a frame, so `max_batch` caps envelopes per frame and
        // `FlushPolicy::immediate` really sends each message alone.
        let tag_bits = RegisterId::routing_bits(self.deploy.registers.len());
        let mut link_txs: LinkTxs<A::Msg> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut link_threads = Vec::new();
        #[allow(clippy::needless_range_loop)] // i indexes link_txs below
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (tx, rx) = unbounded::<Envelope<A::Msg>>();
                let from = ProcessId::new(i);
                // A frame that reaches its deadline with the destination up
                // is counted delivered and lands in its inbox, tagged with
                // the sender id (the inbox may already be gone on shutdown).
                let inbox = inbox_txs[j].clone();
                let stats_d = Arc::clone(stats);
                let deliver = move |frame: Frame<A::Msg>| {
                    stats_d.lock().record_deliveries(frame.len() as u64);
                    let _ = inbox.send(Incoming::Frame { from, frame });
                };
                let seed = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i * n + j) as u64);
                // The flush closure is where batches become frames — and
                // where the shared-header routing cost, the flush reason,
                // and the observed hold are accounted, plus the byte-codec
                // round trip under `wire_codec`.
                let stats_f = Arc::clone(stats);
                let wire_codec = self.wire_codec;
                // Per-link buffer pool: encode reuses the link's last flush
                // buffers instead of allocating fresh ones per frame.
                let pool = BufferPool::new();
                let build_frame =
                    move |batch: Vec<Envelope<A::Msg>>,
                          reason: twobit_proto::FlushReason,
                          held: std::time::Duration| {
                        let frame = Frame::from_envelopes(batch);
                        {
                            let mut st = stats_f.lock();
                            st.record_frame(frame.cost(tag_bits));
                            st.record_flush(
                                reason,
                                held.as_nanos().min(u128::from(u64::MAX)) as u64,
                            );
                        }
                        if !wire_codec {
                            return frame;
                        }
                        let blob = frame
                            .encode_pooled(&pool)
                            .expect("wire_codec requires a codec-capable message type");
                        stats_f.lock().record_wire_bytes(blob.len() as u64);
                        // Zero-copy receive: decoded payloads are `Bytes`
                        // views into `blob` where the layout byte-aligns.
                        Frame::decode_shared(&blob).expect("frame byte codec must round-trip")
                    };
                // Frames reaching their deadline after the destination
                // crashed drop whole — and must still be accounted, so
                // delivered + dropped reconciles with sent like on the
                // deterministic backend.
                let stats_x = Arc::clone(stats);
                let drop_frame = move |frame: Frame<A::Msg>| {
                    stats_x
                        .lock()
                        .record_frame_drop_to_crashed(frame.len() as u64);
                };
                let link = spawn_link(
                    rx,
                    deliver,
                    LinkConfig {
                        policy: self.deploy.policy_for(from, ProcessId::new(j)),
                        delay: self.delay,
                        seed,
                        dest_crashed: Arc::clone(&crashed[j]),
                    },
                    build_frame,
                    drop_frame,
                );
                link_threads.push(link);
                link_txs[i][j] = Some(tx);
            }
        }

        // Process threads.
        let mut proc_threads = Vec::new();
        for (i, inbox_rx) in inbox_rxs.into_iter().enumerate() {
            let shards = ShardSet::new(ProcessId::new(i), &self.deploy.registers, &mut make);
            let outs: OutboundLinks<A::Msg> = link_txs[i].clone();
            let crashed = crashed.to_vec();
            let stats = Arc::clone(stats);
            let cache_mode = self.deploy.cache_mode;
            proc_threads.push(std::thread::spawn(move || {
                process_loop(shards, inbox_rx, outs, crashed, stats, cache_mode);
            }));
        }

        Ok(Cluster {
            shared,
            proc_threads,
            link_threads,
        })
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
/// and answers completions. The thread-per-process cluster wraps it in a
/// `recv` loop (`process_loop`); the reactor transport calls it directly
/// on the event loop that owns the process's links. The protocol semantics
/// (crash checks, send accounting with the deployment's tag width, drop
/// recording for crashed destinations) are therefore identical by
/// construction.
///
/// A crashed process *parks* instead of going away: `handle` keeps
/// accepting messages but discards everything except a recovery
/// [`Incoming::Install`] from the coordinator (see
/// [`recover_process`]) or a teardown
/// [`Incoming::Shutdown`] — so [`Driver::recover`] can bring the process
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

/// The body of one process thread of the in-process cluster, which hands
/// `outs` to chaos-link threads. Everything else is [`ProcessCore::handle`].
fn process_loop<A: Automaton>(
    shards: ShardSet<A>,
    inbox: Receiver<Incoming<A>>,
    outs: OutboundLinks<A::Msg>,
    crashed: Vec<Arc<AtomicBool>>,
    stats: Arc<Mutex<NetStats>>,
    cache_mode: CacheMode,
) {
    let mut core = ProcessCore::new(shards, crashed, stats, cache_mode);
    while let Ok(incoming) = inbox.recv() {
        let flow = core.handle(incoming, |to, env| {
            if let Some(tx) = outs[to.index()].as_ref() {
                let _ = tx.send(env);
            }
        });
        if flow.is_break() {
            return;
        }
    }
}

/// A running cluster of register processes (one [`ShardSet`] each).
///
/// Obtain blocking clients with [`Cluster::client`] /
/// [`Cluster::client_for`], crash processes with [`Cluster::crash`], drive
/// it backend-agnostically through [`Driver`], and tear down with
/// [`Cluster::shutdown`] (which also returns the recorded history for
/// linearizability checking).
pub struct Cluster<A: Automaton> {
    shared: Arc<Spine<A>>,
    proc_threads: Vec<JoinHandle<()>>,
    link_threads: Vec<JoinHandle<()>>,
}

impl<A: Automaton> std::fmt::Debug for Cluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("proc_threads", &self.proc_threads.len())
            .field("link_threads", &self.link_threads.len())
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> Cluster<A> {
    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.shared.config()
    }

    /// The registers this cluster hosts.
    pub fn hosted_registers(&self) -> &[RegisterId] {
        self.shared.registers()
    }

    /// Creates a client handle bound to process `proc` on the default
    /// register `r0`.
    ///
    /// # Panics
    ///
    /// Panics if `r0` is not hosted (custom
    /// [`ClusterBuilder::register_ids`] without it).
    pub fn client(&self, proc: impl Into<ProcessId>) -> RegisterClient<A> {
        self.client_for(proc, RegisterId::ZERO)
            .expect("default register r0 not hosted")
    }

    /// Creates a client handle bound to process `proc` on register `reg`.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownRegister`] if the cluster does not host `reg`.
    pub fn client_for(
        &self,
        proc: impl Into<ProcessId>,
        reg: RegisterId,
    ) -> Result<RegisterClient<A>, ClientError> {
        if !self.shared.registers().contains(&reg) {
            return Err(ClientError::UnknownRegister(reg));
        }
        Ok(RegisterClient::new(
            Arc::clone(&self.shared),
            proc.into(),
            reg,
        ))
    }

    /// Crashes process `proc`: it stops handling events; messages addressed
    /// to it are dropped. Reversible only through [`Cluster::recover`].
    ///
    /// # Errors
    ///
    /// [`DriverError::AlreadyCrashed`] when `proc` is not up;
    /// [`DriverError::UnknownProcess`] for an out-of-range id.
    pub fn crash(&self, proc: impl Into<ProcessId>) -> Result<(), DriverError> {
        self.shared.crash(proc.into())
    }

    /// Recovers a crashed process: quiesces the cluster, transfers a
    /// frame-aligned snapshot from the live peers, rejoins the quorums and
    /// bumps the incarnation — the shared live-backend recipe, see
    /// [`recover_process`].
    ///
    /// Requires a quiet cluster: no operation may be in flight on any
    /// process (blocking clients included).
    ///
    /// # Errors
    ///
    /// See [`recover_process`].
    pub fn recover(&self, proc: impl Into<ProcessId>) -> Result<(), DriverError> {
        recover_process(proc.into(), &self.shared)
    }

    /// The current lifecycle state of `proc` (out-of-range ids report
    /// [`Lifecycle::Crashed`], matching the [`Driver`] contract).
    pub fn lifecycle(&self, proc: impl Into<ProcessId>) -> Lifecycle {
        self.shared.lifecycle(proc.into())
    }

    /// Snapshot of the flat operation history recorded so far (all
    /// registers interleaved; use [`Cluster::sharded_history`] for the
    /// per-register projection the checker wants).
    pub fn history(&self) -> History<A::Value> {
        self.shared.recorder.snapshot()
    }

    /// Snapshot of the per-register operation histories recorded so far.
    pub fn sharded_history(&self) -> ShardedHistory<A::Value> {
        self.shared.sharded_history()
    }

    /// Snapshot of the network statistics.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Asks every process thread to stop.
    fn post_shutdown(&self) {
        for i in 0..self.shared.config().n() {
            self.shared.post(ProcessId::new(i), Incoming::Shutdown);
        }
    }

    /// Gracefully stops all threads and returns the final (flat) history
    /// and statistics. Take [`Cluster::sharded_history`] first if you need
    /// the per-register projection.
    pub fn shutdown(mut self) -> (History<A::Value>, NetStats) {
        self.post_shutdown();
        for h in self.proc_threads.drain(..) {
            let _ = h.join();
        }
        for h in self.link_threads.drain(..) {
            let _ = h.join();
        }
        (self.history(), self.stats())
    }
}

impl<A: Automaton> Drop for Cluster<A> {
    /// Best-effort, non-blocking teardown signal (C-DTOR-BLOCK: the
    /// blocking variant is the explicit [`Cluster::shutdown`]).
    fn drop(&mut self) {
        self.post_shutdown();
    }
}

/// Backend-agnostic driving of the live cluster, through the one ticket
/// table every live backend shares (see [`Spine`]): `invoke` issues through
/// the same per-register in-flight accounting as the blocking clients;
/// `poll` blocks (up to the configured operation timeout) for the reply.
impl<A: Automaton> Driver for Cluster<A> {
    type Value = A::Value;

    fn config(&self) -> SystemConfig {
        self.shared.config()
    }

    fn registers(&self) -> Vec<RegisterId> {
        self.shared.registers().to_vec()
    }

    fn invoke(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
    ) -> Result<OpTicket, DriverError> {
        self.shared.invoke(proc, reg, op)
    }

    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<A::Value>, DriverError> {
        self.shared.poll(ticket)
    }

    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        self.shared.crash(proc)
    }

    fn recover(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        recover_process(proc, &self.shared)
    }

    fn lifecycle(&self, proc: ProcessId) -> Lifecycle {
        self.shared.lifecycle(proc)
    }

    fn history(&self) -> ShardedHistory<A::Value> {
        self.shared.sharded_history()
    }

    fn stats(&self) -> NetStats {
        self.shared.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ConfigError;
    use crate::reply::{Reply, ReplyCell};
    use twobit_baselines::AbdProcess;
    use twobit_core::TwoBitProcess;

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

    #[test]
    fn builder_rejects_zero_max_batch_as_typed_error() {
        // Regression: a zero max_batch used to be caught by an assert!
        // inside each spawned link thread — the panic stranded every
        // message on that pair while the cluster looked healthy.
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = ClusterBuilder::new(c)
            .flush_policy(FlushPolicy {
                max_batch: 0,
                hold: Duration::ZERO,
            })
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        let Err(err) = err else {
            panic!("a zero max_batch must fail the build")
        };
        assert!(
            matches!(
                err,
                BuildError::Config(ConfigError::ZeroMaxBatch { link: None })
            ),
            "expected a typed config error, got {err}"
        );
    }

    #[test]
    fn builder_rejects_bad_per_link_override_naming_the_link() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = ClusterBuilder::new(c)
            .flush_policy_for(0, 2, FlushPolicy::fixed(0, Duration::ZERO))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        let Err(err) = err else {
            panic!("a zero max_batch override must fail the build")
        };
        match err {
            BuildError::Config(ConfigError::ZeroMaxBatch { link: Some((a, b)) }) => {
                assert_eq!((a, b), (ProcessId::new(0), ProcessId::new(2)));
            }
            other => panic!("expected a link-naming config error, got {other}"),
        }
    }

    #[test]
    fn per_link_overrides_and_adaptive_default_serve_reads_and_writes() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(31)
            .flush_policy(FlushPolicy::adaptive(
                64,
                Duration::ZERO,
                Duration::from_micros(200),
            ))
            // One asymmetric link kept latency-lean.
            .flush_policy_for(0, 1, FlushPolicy::immediate())
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        for i in 1..=5u64 {
            w.write(i).unwrap();
            assert_eq!(r.read().unwrap(), i);
        }
        let (history, stats) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
        assert_eq!(
            stats.flushes_total(),
            stats.frames_sent(),
            "every frame carries exactly one flush reason"
        );
    }

    #[test]
    fn twobit_write_then_read() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(1)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        assert_eq!(cluster.link_threads.len(), 3 * 2, "one thread per link");
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(7).unwrap();
        assert_eq!(r.read().unwrap(), 7);
        let (history, stats) = cluster.shutdown();
        assert_eq!(history.records.len(), 2);
        assert!(history
            .records
            .iter()
            .all(twobit_proto::OpRecord::is_complete));
        assert!(stats.total_sent() > 0);
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn abd_cluster_works_too() {
        let c = cfg(5);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(2)
            .build(0u64, |id| AbdProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(4);
        for i in 1..=5u64 {
            w.write(i).unwrap();
            assert_eq!(r.read().unwrap(), i);
        }
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn crash_minority_still_live() {
        let c = cfg(5); // t = 2
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(3)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(1).unwrap();
        cluster.crash(3).unwrap();
        cluster.crash(4).unwrap();
        w.write(2).unwrap();
        assert_eq!(r.read().unwrap(), 2);
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn crash_majority_times_out() {
        let c = cfg(3); // t = 1, quorum 2
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(4)
            .op_timeout(Duration::from_millis(300))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        w.write(1).unwrap();
        cluster.crash(1).unwrap();
        cluster.crash(2).unwrap();
        // The writer alone cannot reach a quorum of 2.
        assert_eq!(w.write(2), Err(crate::ClientError::Timeout));
    }

    #[test]
    fn crashed_process_client_fails() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .op_timeout(Duration::from_millis(300))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.crash(1).unwrap();
        let mut r = cluster.client(1);
        // Either the inbox is already closed or the op times out — the
        // operation must not succeed.
        assert!(r.read().is_err());
    }

    #[test]
    fn sharded_cluster_serves_independent_registers() {
        let c = cfg(3);
        let cluster = ClusterBuilder::new(c)
            .seed(5)
            .registers(4)
            // Register rk's writer is process k mod n.
            .build_sharded(0u64, |reg, id| {
                TwoBitProcess::new(id, c, ProcessId::new(reg.index() % 3), 0u64)
            })
            .unwrap();
        for k in 0..4usize {
            let reg = RegisterId::new(k);
            let mut w = cluster.client_for(k % 3, reg).unwrap();
            let mut r = cluster.client_for((k + 1) % 3, reg).unwrap();
            w.write(100 + k as u64).unwrap();
            assert_eq!(r.read().unwrap(), 100 + k as u64);
        }
        let sharded = cluster.sharded_history();
        assert_eq!(sharded.len(), 4);
        for (_, h) in sharded.iter() {
            assert_eq!(h.len(), 2);
            twobit_lincheck::check_swmr(h).unwrap();
        }
        // Per-shard wire accounting adds up to the aggregate.
        let stats = cluster.stats();
        let shard_sum: u64 = stats.shards().map(|(_, t)| t.sent).sum();
        assert_eq!(shard_sum, stats.total_sent());
        assert!(stats.routing_bits() > 0, "4 registers need shard tags");
    }

    #[test]
    fn concurrent_issue_on_same_register_is_typed_error() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(6)
            // Slow links so the first op is still in flight when the second
            // is issued.
            .delay(DelayModel::Fixed(50_000))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut a = cluster.client(0);
        let mut b = cluster.client(0);
        let handle = a.issue(Operation::Write(1)).unwrap();
        // A clone of the same process's client cannot sneak a concurrent op
        // in — the old footgun that panicked the process thread.
        match b.issue(Operation::Write(2)) {
            Err(ClientError::OperationInFlight { proc, reg }) => {
                assert_eq!(proc, ProcessId::new(0));
                assert_eq!(reg, RegisterId::ZERO);
            }
            other => panic!("expected OperationInFlight, got {other:?}"),
        }
        assert_eq!(handle.wait().unwrap(), OpOutcome::Written);
        // After completion the pair is free again.
        b.write(2).unwrap();
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn pipelined_handles_across_registers() {
        let c = cfg(3);
        let cluster = ClusterBuilder::new(c)
            .seed(7)
            .registers(3)
            .build_sharded(0u64, |_reg, id| {
                TwoBitProcess::new(id, c, ProcessId::new(0), 0u64)
            })
            .unwrap();
        // One client per register, all bound to p0: issue all three writes
        // before waiting on any (pipelining across shards).
        let mut clients: Vec<_> = (0..3)
            .map(|k| cluster.client_for(0, RegisterId::new(k)).unwrap())
            .collect();
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, cl)| cl.issue(Operation::Write(k as u64 + 1)).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap(), OpOutcome::Written);
        }
        let sharded = cluster.sharded_history();
        for (_, h) in sharded.iter() {
            twobit_lincheck::check_swmr(h).unwrap();
        }
    }

    #[test]
    fn abandoned_handle_outcome_is_reaped() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(8)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let handle = w.issue(Operation::Write(1)).unwrap();
        drop(handle); // abandon without waiting
                      // The next issue either reaps the landed outcome and proceeds, or
                      // reports the op as still in flight — never a thread panic.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match w.issue(Operation::Write(2)) {
                Ok(h) => {
                    assert_eq!(h.wait().unwrap(), OpOutcome::Written);
                    break;
                }
                Err(ClientError::OperationInFlight { .. }) => {
                    assert!(std::time::Instant::now() < deadline, "op never landed");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn safe_cache_serves_writer_co_located_reads_with_zero_traffic() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(23)
            .cache_mode(CacheMode::Safe)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(7).unwrap();
        let sent_after_write = cluster.stats().total_sent();
        // The writer's own read is served from its confirmed snapshot.
        assert_eq!(w.read().unwrap(), 7);
        let stats = cluster.stats();
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(
            stats.total_sent(),
            sent_after_write,
            "a gated hit sends no protocol messages"
        );
        // A non-writer's read runs the protocol (fallback, not a hit).
        assert_eq!(r.read().unwrap(), 7);
        let stats = cluster.stats();
        assert_eq!(stats.cache_hits(), 1, "p1's read was not served locally");
        assert!(stats.total_sent() > sent_after_write);
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn driver_interface_drives_the_cluster() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = ClusterBuilder::new(c)
            .seed(9)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        Driver::write(&mut cluster, p0, RegisterId::ZERO, 7).unwrap();
        assert_eq!(Driver::read(&mut cluster, p1, RegisterId::ZERO).unwrap(), 7);
        let sharded = Driver::history(&cluster);
        twobit_lincheck::check_swmr(sharded.shard(RegisterId::ZERO).unwrap()).unwrap();
    }
}
