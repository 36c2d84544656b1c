//! Real-socket transport: the register cluster over loopback TCP, behind
//! the same [`Driver`] API as the simulator and the in-process runtime.
//!
//! This is the first backend that is not a simulation of a network but an
//! actual one: every ordered process pair `(p_i, p_j)` gets its own TCP
//! connection carrying a stream of length-prefixed [`Frame`] blobs
//! ([`Frame::encode`] / [`Frame::decode`] — the byte-level codec the
//! message-path redesign introduced), so the bits the accounting reports
//! are the bits `write(2)` hands to the kernel. Everything above the
//! socket is shared with the in-process runtime:
//!
//! * the process threads run the *same*
//!   [`process_loop`](twobit_runtime::process_loop) (one [`ShardSet`] per
//!   process, atomic frame handling, identical crash and accounting
//!   semantics);
//! * the per-link writer threads coalesce envelopes in the *same*
//!   [`LinkBatcher`] (one shared batching state machine, static or
//!   adaptive [`FlushPolicy`], per-link overrides) as the runtime's chaos
//!   links;
//! * histories come from the *same* [`Recorder`], so
//!   `check_swmr_sharded` applies unchanged.
//!
//! What the TCP backend does **not** re-create is the chaos: delay and
//! reordering come from the real kernel scheduler and socket buffers, not
//! from a seeded sampler — runs are not reproducible, which is exactly why
//! the deterministic backends continue to exist. A message type must be
//! codec-capable (override the [`WireMessage`] codec methods) to cross
//! this backend; the paper's protocol and all baselines are.
//!
//! # Examples
//!
//! ```
//! use twobit_core::TwoBitProcess;
//! use twobit_proto::{Driver, ProcessId, RegisterId, SystemConfig};
//! use twobit_transport::TcpClusterBuilder;
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! let writer = ProcessId::new(0);
//! let mut cluster = TcpClusterBuilder::new(cfg)
//!     .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
//! cluster.write(writer, RegisterId::ZERO, 42)?;
//! assert_eq!(cluster.read(ProcessId::new(1), RegisterId::ZERO)?, 42);
//! let stats = cluster.stats();
//! assert!(stats.wire_bytes() > 0, "real bytes crossed real sockets");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use twobit_cache::CacheMode;
use twobit_proto::{
    Automaton, BufferPool, Bytes, Driver, DriverError, Envelope, Frame, Lifecycle, LifecycleState,
    NetStats, OpId, OpOutcome, OpTicket, Operation, ProcessId, RegisterId, ShardSet,
    ShardedHistory, SystemConfig, WireMessage, MAX_FRAME_BODY_BYTES,
};
use twobit_runtime::{
    process_loop, recover_process, BuildError, FlushPolicy, Incoming, LinkBatcher, OutboundLinks,
    Recorder, RecoveryParts,
};

/// Builder for a [`TcpCluster`].
#[derive(Debug)]
pub struct TcpClusterBuilder {
    cfg: SystemConfig,
    registers: Vec<RegisterId>,
    op_timeout: Duration,
    flush: FlushPolicy,
    flush_overrides: HashMap<(ProcessId, ProcessId), FlushPolicy>,
    cache_mode: CacheMode,
}

impl TcpClusterBuilder {
    /// Starts configuring a TCP cluster of `cfg.n()` processes hosting a
    /// single register (use [`TcpClusterBuilder::registers`] for more).
    pub fn new(cfg: SystemConfig) -> Self {
        TcpClusterBuilder {
            cfg,
            registers: vec![RegisterId::ZERO],
            op_timeout: Duration::from_secs(10),
            flush: FlushPolicy::default(),
            flush_overrides: HashMap::new(),
            cache_mode: CacheMode::Off,
        }
    }

    /// Sets the local read-cache mode (default [`CacheMode::Off`]) — the
    /// same knob as the other backends: each process thread serves gated
    /// reads from its confirmed snapshot with zero socket traffic, counted
    /// in `NetStats::cache_hits` / `cache_misses` / `cache_fallbacks`.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Sets the links' default frame flush policy (how aggressively
    /// envelopes coalesce before each socket write;
    /// [`FlushPolicy::immediate`] writes every message as its own frame,
    /// [`FlushPolicy::adaptive`] auto-tunes the hold per link). Validated
    /// at build time — an unsatisfiable policy is a typed
    /// [`BuildError::Config`], not a panic inside a writer thread.
    pub fn flush_policy(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    /// Overrides the flush policy for one ordered link `src → dst`,
    /// leaving every other link on the cluster-wide default. Also
    /// validated at build time.
    pub fn flush_policy_for(
        mut self,
        src: impl Into<ProcessId>,
        dst: impl Into<ProcessId>,
        flush: FlushPolicy,
    ) -> Self {
        self.flush_overrides.insert((src.into(), dst.into()), flush);
        self
    }

    /// Sets the client-side operation timeout.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Hosts registers `r0 .. r(count-1)`.
    pub fn registers(mut self, count: usize) -> Self {
        self.registers = RegisterId::first(count);
        self
    }

    /// Hosts exactly the given registers.
    pub fn register_ids(mut self, registers: Vec<RegisterId>) -> Self {
        self.registers = registers;
        self
    }

    /// Builds and starts the cluster with one automaton per process (all
    /// hosted registers get identical per-process instances).
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy;
    /// [`BuildError::Io`] for any socket error while binding the loopback
    /// listeners or wiring the `n(n−1)` connection mesh.
    pub fn build<A, F>(self, initial: A::Value, mut make: F) -> Result<TcpCluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(ProcessId) -> A,
    {
        self.build_sharded(initial, move |_reg, id| make(id))
    }

    /// Builds and starts the cluster: binds one loopback listener per
    /// process, wires one TCP connection per ordered process pair, and
    /// spawns the process / socket-writer / socket-reader threads.
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy (default
    /// or per-link override) — caught here, before any socket or thread
    /// exists, because a policy that panics a spawned writer thread would
    /// silently strand every message on that pair; [`BuildError::Io`] for
    /// any socket error during setup.
    pub fn build_sharded<A, F>(
        self,
        initial: A::Value,
        mut make: F,
    ) -> Result<TcpCluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        let n = self.cfg.n();
        assert!(
            !self.registers.is_empty(),
            "cluster needs at least one register"
        );
        self.flush.validate()?;
        for (link, policy) in &self.flush_overrides {
            policy.validate_for(Some(*link))?;
        }
        let crashed: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let stats = Arc::new(Mutex::new(NetStats::new()));
        let tag_bits = RegisterId::routing_bits(self.registers.len());

        // One loopback listener per process; the OS assigns the ports.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }

        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded::<Incoming<A>>()).unzip();

        // Wire the mesh. Connect every ordered pair first (the listeners'
        // backlogs park the connections), sending a 4-byte hello naming
        // the connecting process; then accept and sort them out per
        // destination. The write half goes to a writer thread fed by the
        // sender's process loop; the read half to a reader thread feeding
        // the destination's inbox.
        let mut link_txs: Vec<OutboundLinks<A::Msg>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        for (i, out_row) in link_txs.iter_mut().enumerate() {
            for (j, slot) in out_row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                let stream = TcpStream::connect(addrs[j])?;
                stream.set_nodelay(true)?;
                let mut hello = stream.try_clone()?;
                hello.write_all(&(i as u32).to_be_bytes())?;
                let (tx, rx) = unbounded::<Envelope<A::Msg>>();
                let policy = self
                    .flush_overrides
                    .get(&(ProcessId::new(i), ProcessId::new(j)))
                    .copied()
                    .unwrap_or(self.flush);
                let stats_w = Arc::clone(&stats);
                threads.push(std::thread::spawn(move || {
                    writer_loop(rx, stream, policy, tag_bits, stats_w);
                }));
                *slot = Some(tx);
            }
        }
        for (j, listener) in listeners.into_iter().enumerate() {
            for _ in 0..n.saturating_sub(1) {
                let (mut stream, _) = listener.accept()?;
                let mut hello = [0u8; 4];
                stream.read_exact(&mut hello)?;
                let from = ProcessId::new(u32::from_be_bytes(hello) as usize);
                let inbox = inbox_txs[j].clone();
                let my_crash = Arc::clone(&crashed[j]);
                let stats_r = Arc::clone(&stats);
                threads.push(std::thread::spawn(move || {
                    reader_loop::<A>(stream, from, inbox, my_crash, stats_r);
                }));
            }
        }

        // Process threads: the exact same loop as the in-process runtime —
        // only the `outs` now feed sockets instead of chaos links.
        for (i, inbox_rx) in inbox_rxs.into_iter().enumerate() {
            let shards = ShardSet::new(ProcessId::new(i), &self.registers, &mut make);
            let outs = link_txs[i].clone();
            let crashed = crashed.clone();
            let stats = Arc::clone(&stats);
            let cache_mode = self.cache_mode;
            threads.push(std::thread::spawn(move || {
                process_loop(shards, inbox_rx, outs, crashed, stats, cache_mode);
            }));
        }
        drop(link_txs); // writers hang up once their process thread exits

        Ok(TcpCluster {
            cfg: self.cfg,
            registers: self.registers,
            addrs,
            inbox_txs,
            crashed,
            life: Mutex::new(vec![LifecycleState::new(); n]),
            recorder: Recorder::new(initial),
            stats,
            op_ids: AtomicU64::new(0),
            op_timeout: self.op_timeout,
            pending: HashMap::new(),
            completed: HashMap::new(),
            threads,
        })
    }
}

/// Per-link socket writer: coalesce envelopes in the shared
/// [`LinkBatcher`] (the same state machine as the runtime's chaos links),
/// then write each batch as one length-prefixed frame blob.
///
/// Accounting happens **after** `write_all` succeeds — a frame recorded
/// before a failed write would leave `frames_sent`/`wire_bytes`
/// overcounted and break the `delivered + dropped + abandoned == sent`
/// reconciliation at teardown. A failed write instead abandons the link:
/// the frame's messages, anything still pending, and everything the
/// process loop sends afterwards are drained and counted as abandoned so
/// the books still balance.
fn writer_loop<M: WireMessage>(
    rx: Receiver<Envelope<M>>,
    mut stream: TcpStream,
    policy: FlushPolicy,
    tag_bits: u64,
    stats: Arc<Mutex<NetStats>>,
) {
    let mut batcher: LinkBatcher<Envelope<M>> = LinkBatcher::new(policy);
    let mut disconnected = false;
    // Per-link buffer pool: once the kernel has taken a frame's bytes the
    // buffer returns here, so a steady link stops allocating per flush.
    let pool = BufferPool::new();
    loop {
        // Gulp whatever is already queued (coalescing without holding).
        if batcher.gulp(&rx) {
            disconnected = true;
        }

        if let Some(f) = batcher.take_due(Instant::now(), disconnected) {
            let frame = Frame::from_envelopes(f.batch);
            let messages = frame.len() as u64;
            let cost = frame.cost(tag_bits);
            let blob = frame
                .encode_pooled(&pool)
                .expect("the TCP transport requires a codec-capable message type");
            if stream.write_all(&blob).is_ok() {
                // Only a write the kernel accepted whole is accounted.
                let mut st = stats.lock();
                st.record_frame(cost);
                st.record_flush(f.reason, f.held.as_nanos().min(u128::from(u64::MAX)) as u64);
                st.record_wire_bytes(blob.len() as u64);
            } else {
                // Peer gone mid-run: abandon the link, keeping every
                // in-flight and future message on it accounted.
                abandon_link(messages, &mut batcher, &rx, &stats);
                return;
            }
        }

        if disconnected {
            if !batcher.has_pending() {
                let _ = stream.shutdown(Shutdown::Write);
                return;
            }
            continue; // flush the remainder before hanging up
        }

        match batcher.flush_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(env) => batcher.push(env, Instant::now()),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => disconnected = true,
                }
            }
            None => match rx.recv() {
                Ok(env) => batcher.push(env, Instant::now()),
                Err(_) => disconnected = true,
            },
        }
    }
}

/// The failed-write path of [`writer_loop`]: records the link as
/// abandoned, then counts the failed frame's messages, the batcher's
/// remainder, and everything still arriving from the process loop as
/// abandoned — draining until the sender hangs up so the teardown
/// invariant `delivered + dropped + abandoned == sent` holds even though
/// the socket died mid-run.
fn abandon_link<M>(
    failed_frame_messages: u64,
    batcher: &mut LinkBatcher<Envelope<M>>,
    rx: &Receiver<Envelope<M>>,
    stats: &Mutex<NetStats>,
) {
    {
        let mut st = stats.lock();
        st.record_link_abandoned();
        st.record_messages_abandoned(failed_frame_messages);
        st.record_messages_abandoned(batcher.drain_remaining().len() as u64);
    }
    // Late sends stay accounted (and visible mid-run) one by one.
    while rx.recv().is_ok() {
        stats.lock().record_messages_abandoned(1);
    }
}

/// Per-link socket reader: slice the byte stream into length-prefixed
/// blobs, decode each into a frame, and deliver it to the destination's
/// inbox — or, if the destination has crashed, drop it whole (the frame's
/// atomic non-delivery, with the drop accounted like the other backends).
/// Keeps draining after a crash so the peer's writer never blocks on a
/// full socket buffer.
///
/// A poisoned stream — oversized length prefix, truncated body, corrupt
/// frame — abandons the link, but never silently: the event lands in
/// [`NetStats::links_abandoned`], because a bailed reader strands every
/// in-flight send on this link outside both `delivered` and `dropped`,
/// and the teardown reconciliation needs to know the books cannot balance
/// (a corrupt frame's message count is unknowable).
fn reader_loop<A: Automaton>(
    mut stream: TcpStream,
    from: ProcessId,
    inbox: Sender<Incoming<A>>,
    my_crash: Arc<AtomicBool>,
    stats: Arc<Mutex<NetStats>>,
) {
    loop {
        let mut prefix = [0u8; 4];
        if stream.read_exact(&mut prefix).is_err() {
            return; // clean EOF: peer flushed everything and hung up
        }
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BODY_BYTES {
            // Poisoned stream; abandon the link, accounted.
            stats.lock().record_link_abandoned();
            return;
        }
        let mut blob = vec![0u8; 4 + len as usize];
        blob[..4].copy_from_slice(&prefix);
        if stream.read_exact(&mut blob[4..]).is_err() {
            // Truncated mid-frame: the peer died between prefix and body.
            stats.lock().record_link_abandoned();
            return;
        }
        // One receive buffer per frame, shared onward: decoded payloads
        // are zero-copy `Bytes` views into it where the layout aligns.
        let blob = Bytes::from(blob);
        let Ok(frame) = Frame::<A::Msg>::decode_shared(&blob) else {
            // Corrupt frame; a byzantine-free peer never sends one.
            stats.lock().record_link_abandoned();
            return;
        };
        let messages = frame.len() as u64;
        // Deliver only to a live process loop, and record the delivery
        // only once the inbox accepted it — a process thread that already
        // returned (crash, or shutdown racing with in-flight traffic) has
        // stopped taking steps, which is exactly crash semantics, so its
        // frames drop whole and stay accounted. Keep draining either way:
        // `delivered + dropped == sent` must reconcile at teardown, and a
        // reader that bailed early would both strand unaccounted frames on
        // the socket and let the peer's writer block on a full buffer.
        let delivered = !my_crash.load(Ordering::Relaxed)
            && inbox.send(Incoming::Frame { from, frame }).is_ok();
        let mut st = stats.lock();
        if delivered {
            st.record_deliveries(messages);
        } else {
            st.record_frame_drop_to_crashed(messages);
        }
    }
}

/// A running register cluster whose links are real loopback TCP
/// connections.
///
/// Construct with [`TcpClusterBuilder`]; drive through the [`Driver`]
/// trait — the same `Workload`s, atomicity checkers and benchmarks that
/// run on `SimSpace` and `Cluster` run here unmodified. Tear down with
/// [`TcpCluster::shutdown`] (dropping the cluster also signals the
/// threads, best-effort).
pub struct TcpCluster<A: Automaton> {
    cfg: SystemConfig,
    registers: Vec<RegisterId>,
    addrs: Vec<SocketAddr>,
    inbox_txs: Vec<Sender<Incoming<A>>>,
    crashed: Vec<Arc<AtomicBool>>,
    life: Mutex<Vec<LifecycleState>>,
    recorder: Recorder<A::Value>,
    stats: Arc<Mutex<NetStats>>,
    op_ids: AtomicU64,
    op_timeout: Duration,
    /// Unpolled tickets per `(process, register)` pair.
    #[allow(clippy::type_complexity)]
    pending: HashMap<(ProcessId, RegisterId), (OpId, Receiver<OpOutcome<A::Value>>)>,
    #[allow(clippy::type_complexity)]
    /// Latest polled outcome per pair (so re-polling is idempotent).
    completed: HashMap<(ProcessId, RegisterId), (OpId, OpOutcome<A::Value>)>,
    threads: Vec<JoinHandle<()>>,
}

impl<A: Automaton> std::fmt::Debug for TcpCluster<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("cfg", &self.cfg)
            .field("registers", &self.registers)
            .field("addrs", &self.addrs)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> TcpCluster<A> {
    /// The loopback socket addresses the processes listen on, indexed by
    /// process.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Snapshot of the network statistics. With this backend
    /// [`NetStats::wire_bytes`] counts bytes actually written to sockets.
    pub fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }

    /// Gracefully stops all threads and returns the final per-register
    /// histories and statistics.
    pub fn shutdown(mut self) -> (ShardedHistory<A::Value>, NetStats) {
        for tx in &self.inbox_txs {
            let _ = tx.send(Incoming::Shutdown);
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        (
            self.recorder.snapshot_sharded(&self.registers),
            self.stats.lock().clone(),
        )
    }
}

impl<A: Automaton> Drop for TcpCluster<A> {
    /// Best-effort, non-blocking teardown signal (the blocking variant is
    /// the explicit [`TcpCluster::shutdown`]).
    fn drop(&mut self) {
        for tx in &self.inbox_txs {
            let _ = tx.send(Incoming::Shutdown);
        }
    }
}

impl<A: Automaton> Driver for TcpCluster<A> {
    type Value = A::Value;

    fn config(&self) -> SystemConfig {
        self.cfg
    }

    fn registers(&self) -> Vec<RegisterId> {
        self.registers.clone()
    }

    fn invoke(
        &mut self,
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
        if self.pending.contains_key(&(proc, reg)) {
            return Err(DriverError::OperationInFlight { proc, reg });
        }
        let op_id = OpId::new(self.op_ids.fetch_add(1, Ordering::Relaxed));
        let (reply_tx, reply_rx) = bounded(1);
        let invoked_at = self.recorder.now();
        if self.inbox_txs[proc.index()]
            .send(Incoming::Invoke {
                reg,
                op_id,
                op: op.clone(),
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(DriverError::ProcessUnavailable(proc));
        }
        self.recorder.invoked(op_id, proc, reg, op, invoked_at);
        self.pending.insert((proc, reg), (op_id, reply_rx));
        Ok(OpTicket { proc, reg, op_id })
    }

    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<A::Value>, DriverError> {
        let key = (ticket.proc, ticket.reg);
        if let Some((op_id, outcome)) = self.completed.get(&key) {
            if *op_id == ticket.op_id {
                return Ok(outcome.clone());
            }
        }
        let Some((op_id, rx)) = self.pending.get(&key) else {
            return Err(DriverError::Stalled(ticket.op_id));
        };
        if *op_id != ticket.op_id {
            let op_id = *op_id;
            return Err(DriverError::Backend(format!(
                "ticket {} superseded by {op_id}",
                ticket.op_id
            )));
        }
        match rx.recv_timeout(self.op_timeout) {
            Ok(outcome) => {
                self.recorder
                    .completed(ticket.op_id, self.recorder.now(), outcome.clone());
                self.pending.remove(&key);
                // Bounded at one entry per pair, evicted by the next poll.
                self.completed.insert(key, (ticket.op_id, outcome.clone()));
                Ok(outcome)
            }
            Err(RecvTimeoutError::Timeout) => Err(DriverError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                self.pending.remove(&key);
                Err(DriverError::ProcessUnavailable(ticket.proc))
            }
        }
    }

    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        let pi = proc.index();
        if pi >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(proc));
        }
        self.life.lock()[pi]
            .crash()
            .map_err(|_| DriverError::AlreadyCrashed(proc))?;
        self.crashed[pi].store(true, Ordering::Relaxed);
        // Nudge the thread so it observes the flag even when idle. (Not a
        // shutdown — the parked thread must survive for a later recovery.)
        let _ = self.inbox_txs[pi].send(Incoming::Nudge);
        Ok(())
    }

    fn recover(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        // The stop-the-world coordinator needs a quiesced cluster; an op
        // still in flight anywhere would keep the books open forever.
        if let Some((p, r)) = self.pending.keys().next() {
            return Err(DriverError::OperationInFlight { proc: *p, reg: *r });
        }
        let inboxes: Vec<Option<Sender<Incoming<A>>>> =
            self.inbox_txs.iter().cloned().map(Some).collect();
        recover_process(
            proc,
            &RecoveryParts {
                cfg: self.cfg,
                registers: &self.registers,
                inboxes: &inboxes,
                wake: &|_| {},
                life: &self.life,
                crashed: &self.crashed,
                stats: &self.stats,
                recorder: &self.recorder,
                quiesce_timeout: self.op_timeout,
            },
        )
    }

    fn lifecycle(&self, proc: ProcessId) -> Lifecycle {
        self.life
            .lock()
            .get(proc.index())
            .map_or(Lifecycle::Crashed, |l| l.state)
    }

    fn history(&self) -> ShardedHistory<A::Value> {
        self.recorder.snapshot_sharded(&self.registers)
    }

    fn stats(&self) -> NetStats {
        TcpCluster::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_core::TwoBitProcess;
    use twobit_runtime::ConfigError;

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::max_resilience(n)
    }

    #[test]
    fn builder_rejects_zero_max_batch_as_typed_error() {
        // Regression: a zero max_batch used to be caught by an assert!
        // inside each spawned writer thread — the panic stranded every
        // message on that pair while the cluster looked healthy.
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = TcpClusterBuilder::new(c)
            .flush_policy(FlushPolicy::fixed(0, Duration::ZERO))
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
        // Per-link overrides are validated too, naming the link.
        let err = TcpClusterBuilder::new(c)
            .flush_policy_for(1, 2, FlushPolicy::fixed(0, Duration::ZERO))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        let Err(err) = err else {
            panic!("a zero max_batch override must fail the build")
        };
        assert!(matches!(
            err,
            BuildError::Config(ConfigError::ZeroMaxBatch {
                link: Some((a, b))
            }) if (a, b) == (ProcessId::new(1), ProcessId::new(2))
        ));
    }

    /// Regression for the frame-accounting bugfix: stats used to be
    /// recorded *before* `stream.write_all`, so a failed write left
    /// `frames_sent`/`wire_bytes` overcounted and broke teardown
    /// reconciliation. Drive `writer_loop` against a peer that hangs up
    /// mid-run: only successfully written frames may be accounted as
    /// frames, everything else must land in the abandoned counters, and
    /// the sum must cover every message handed to the link.
    #[test]
    fn write_failure_mid_run_keeps_frame_accounting_reconciled() {
        use twobit_core::TwoBitMsg;

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted); // peer gone: writes will fail once the RST lands

        let stats = Arc::new(Mutex::new(NetStats::new()));
        let (tx, rx) = unbounded::<Envelope<TwoBitMsg<u64>>>();
        let stats_w = Arc::clone(&stats);
        let h = std::thread::spawn(move || {
            writer_loop(rx, stream, FlushPolicy::immediate(), 0, stats_w);
        });

        let mut sent = 0u64;
        for _ in 0..500 {
            if tx
                .send(Envelope::new(RegisterId::ZERO, TwoBitMsg::Read))
                .is_err()
            {
                break;
            }
            sent += 1;
            std::thread::sleep(Duration::from_millis(1));
            if stats.lock().links_abandoned() > 0 {
                break;
            }
        }
        // A few more sends after the failure: the dead link must keep
        // draining and accounting them instead of stranding them.
        for _ in 0..5 {
            if tx
                .send(Envelope::new(RegisterId::ZERO, TwoBitMsg::Read))
                .is_ok()
            {
                sent += 1;
            }
        }
        drop(tx);
        h.join().unwrap();

        let st = stats.lock();
        assert_eq!(st.links_abandoned(), 1, "the write failure was recorded");
        assert!(st.messages_abandoned() > 0, "failed frames were counted");
        assert_eq!(
            st.framed_messages() + st.messages_abandoned(),
            sent,
            "every message is either in a successfully written frame or abandoned"
        );
        assert_eq!(
            st.frames_sent(),
            st.flushes_total(),
            "flush reasons only cover frames that actually hit the wire"
        );
    }

    /// Regression for the silent reader bail-out: an oversized length
    /// prefix or a corrupt frame used to `return` with zero accounting,
    /// stranding in-flight sends outside both `delivered` and `dropped`.
    #[test]
    fn poisoned_streams_mark_the_link_abandoned() {
        use twobit_core::TwoBitMsg;

        let poison = |bytes: &[u8]| {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let mut attacker = TcpStream::connect(addr).unwrap();
            let (victim, _) = listener.accept().unwrap();
            let stats = Arc::new(Mutex::new(NetStats::new()));
            let (inbox_tx, inbox_rx) = unbounded::<Incoming<TwoBitProcess<u64>>>();
            let stats_r = Arc::clone(&stats);
            let crash = Arc::new(AtomicBool::new(false));
            let h = std::thread::spawn(move || {
                reader_loop::<TwoBitProcess<u64>>(
                    victim,
                    ProcessId::new(1),
                    inbox_tx,
                    crash,
                    stats_r,
                );
            });
            attacker.write_all(bytes).unwrap();
            drop(attacker);
            h.join().unwrap();
            let st = stats.lock().clone();
            let mut delivered = 0usize;
            while inbox_rx.try_recv().is_ok() {
                delivered += 1;
            }
            (st, delivered)
        };

        // Oversized length prefix.
        let huge = (MAX_FRAME_BODY_BYTES + 1).to_be_bytes();
        let (st, delivered) = poison(&huge);
        assert_eq!(st.links_abandoned(), 1, "oversized prefix is accounted");
        assert_eq!(delivered, 0);

        // Truncated body: prefix promises more than the stream carries.
        let (st, delivered) = poison(&[0, 0, 0, 16, 0xAB]);
        assert_eq!(st.links_abandoned(), 1, "truncated body is accounted");
        assert_eq!(delivered, 0);

        // Well-framed garbage: the right length, an undecodable body.
        let mut garbage = vec![0, 0, 0, 8];
        garbage.extend([0xFF; 8]);
        let (st, delivered) = poison(&garbage);
        assert_eq!(st.links_abandoned(), 1, "corrupt frame is accounted");
        assert_eq!(delivered, 0);

        // Control: a clean EOF with no traffic abandons nothing.
        let (st, delivered) = poison(&[]);
        assert_eq!(st.links_abandoned(), 0, "clean EOF is not a poisoning");
        assert_eq!(delivered, 0);
        let _ = TwoBitMsg::<u64>::Read; // keep the import honest
    }

    #[test]
    fn adaptive_flush_policy_serves_reads_and_writes_over_sockets() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .flush_policy(FlushPolicy::adaptive(
                64,
                Duration::ZERO,
                Duration::from_micros(200),
            ))
            .flush_policy_for(0, 1, FlushPolicy::immediate())
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        for i in 1..=5u64 {
            cluster.write(writer, RegisterId::ZERO, i).unwrap();
            assert_eq!(
                cluster.read(ProcessId::new(1), RegisterId::ZERO).unwrap(),
                i
            );
        }
        let (history, stats) = cluster.shutdown();
        twobit_lincheck::check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
        assert_eq!(
            stats.flushes_total(),
            stats.frames_sent(),
            "every frame that hit a socket carries exactly one flush reason"
        );
        assert_eq!(stats.links_abandoned(), 0);
        assert_eq!(
            stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
            stats.total_sent(),
            "teardown reconciliation with abandoned accounting"
        );
    }

    #[test]
    fn write_then_read_over_real_sockets() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.write(writer, RegisterId::ZERO, 7).unwrap();
        assert_eq!(
            cluster.read(ProcessId::new(1), RegisterId::ZERO).unwrap(),
            7
        );
        let stats = cluster.stats();
        assert!(stats.wire_bytes() > 0, "bytes crossed the sockets");
        assert_eq!(
            stats.control_bits(),
            2 * stats.total_sent(),
            "two control bits per message survive real serialization"
        );
        let (history, _) = cluster.shutdown();
        twobit_lincheck::check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
    }

    #[test]
    fn immediate_flush_sends_every_message_alone() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .flush_policy(FlushPolicy::immediate())
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.write(writer, RegisterId::ZERO, 1).unwrap();
        // Quiesce before comparing: process threads record sends strictly
        // before the writer threads record the matching frames, so a live
        // snapshot could observe a send whose frame is not yet flushed.
        let (_, stats) = cluster.shutdown();
        assert_eq!(
            stats.frames_sent(),
            stats.total_sent(),
            "immediate policy: one frame per message"
        );
    }

    #[test]
    fn crash_minority_stays_live_and_reconciles() {
        let c = cfg(5); // t = 2
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.write(writer, RegisterId::ZERO, 1).unwrap();
        Driver::crash(&mut cluster, ProcessId::new(3)).unwrap();
        Driver::crash(&mut cluster, ProcessId::new(4)).unwrap();
        cluster.write(writer, RegisterId::ZERO, 2).unwrap();
        assert_eq!(
            cluster.read(ProcessId::new(1), RegisterId::ZERO).unwrap(),
            2
        );
        assert!(matches!(
            cluster.invoke(ProcessId::new(4), RegisterId::ZERO, Operation::Read),
            Err(DriverError::ProcessUnavailable(_))
        ));
        let (history, stats) = cluster.shutdown();
        twobit_lincheck::check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
        assert_eq!(
            stats.total_delivered() + stats.dropped_to_crashed(),
            stats.total_sent(),
            "every sent message was delivered or dropped whole-frame"
        );
    }

    #[test]
    fn sharded_workload_is_atomic_per_register() {
        use twobit_proto::Workload;
        let c = cfg(3);
        let regs = 4usize;
        let mut cluster = TcpClusterBuilder::new(c)
            .registers(regs)
            .build_sharded(0u64, |reg, id| {
                TwoBitProcess::new(id, c, ProcessId::new(reg.index() % 3), 0u64)
            })
            .unwrap();
        let mut w = Workload::new();
        for round in 0..4u64 {
            for k in 0..regs {
                let reg = RegisterId::new(k);
                let wr = k % 3;
                w = w.step(wr, reg, Operation::Write(100 * (k as u64 + 1) + round));
                w = w.step((wr + 1) % 3, reg, Operation::Read);
            }
        }
        w.run_pipelined_on(&mut cluster).unwrap();
        let (history, stats) = cluster.shutdown();
        assert_eq!(history.len(), regs);
        twobit_lincheck::check_swmr_sharded(&history).unwrap();
        assert!(stats.frame_header_bits() > 0, "shard tags were routed");
        assert!(
            stats.frame_header_bits() <= stats.frame_header_gamma_bits(),
            "the header-mode chooser never loses to forced gamma"
        );
    }

    #[test]
    fn singleton_cluster_needs_no_sockets() {
        let c = SystemConfig::new(1, 0).unwrap();
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.write(writer, RegisterId::ZERO, 3).unwrap();
        assert_eq!(cluster.read(writer, RegisterId::ZERO).unwrap(), 3);
        let (_, stats) = cluster.shutdown();
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn bad_addresses_are_typed() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = TcpClusterBuilder::new(c)
            .registers(2)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        assert_eq!(
            cluster
                .invoke(ProcessId::new(9), RegisterId::ZERO, Operation::Read)
                .unwrap_err(),
            DriverError::UnknownProcess(ProcessId::new(9))
        );
        assert_eq!(
            cluster
                .invoke(ProcessId::new(0), RegisterId::new(7), Operation::Read)
                .unwrap_err(),
            DriverError::UnknownRegister(RegisterId::new(7))
        );
        assert_eq!(cluster.addrs().len(), 3);
    }
}
