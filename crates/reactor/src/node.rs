//! Node assembly for the reactor transport: the listen/join builder (with
//! its all-local `build` shortcut) and the [`ReactorNode`] driver.
//!
//! A *node* hosts a subset of the configuration's processes. Deployment is
//! split in two so nodes can live on different hosts:
//!
//! 1. [`ReactorNodeBuilder::listen`] binds the node's listener (port 0
//!    works — the OS-assigned address is reported by
//!    [`ListeningNode::local_addr`], which is how CI scripts exchange
//!    addresses between separately started processes);
//! 2. [`ListeningNode::join`] takes the peer map (`remote process →
//!    address`) and starts the node: the event-loop pool, with the hosted
//!    processes dealt round-robin over it, and the dialer.
//!
//! Links share sockets by *route*: one TCP connection from each sending
//! loop to each receiving loop carries every ordered link between their
//! processes, so an all-local node opens at most `pool²` connections
//! however many links it has. Node-internal routes loop through the node's
//! own listener too, so there is exactly one data path to reason about.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use twobit_cache::CacheMode;
use twobit_proto::{
    Automaton, Driver, DriverError, History, Lifecycle, NetStats, OpOutcome, OpTicket, Operation,
    ProcessId, RegisterId, ShardSet, ShardedHistory, SystemConfig,
};
use twobit_runtime::{
    recover_process, BuildError, ClientError, DeployConfig, FlushPolicy, Incoming, ProcessCore,
    RegisterClient, Spine,
};

use crate::link::{ChaosConfig, ChaosLink, InFlight};
use crate::poller::{waker_pair, Waker};
use crate::reactor::{
    dialer_loop, Carrier, Cmd, DialReq, Hosted, LinkSpec, Reactor, ReconnectPolicy, SendLink,
};

fn deploy_err(msg: String) -> BuildError {
    BuildError::Io(io::Error::new(io::ErrorKind::InvalidInput, msg))
}

/// Builder for one reactor-transport node (possibly one of several across
/// hosts). See the module docs for the listen/join split.
#[derive(Debug)]
pub struct ReactorNodeBuilder {
    cfg: SystemConfig,
    local: Vec<ProcessId>,
    pool_size: usize,
    deploy: DeployConfig,
    resend_cap: usize,
    reconnect: ReconnectPolicy,
    drain_grace: Duration,
}

impl ReactorNodeBuilder {
    /// Starts configuring a node of a `cfg.n()`-process deployment. By
    /// default the node hosts *all* processes (a single-node cluster) —
    /// call [`ReactorNodeBuilder::host`] to restrict it to a subset for a
    /// multi-host deployment — on one event loop per core available to
    /// this process (see [`ReactorNodeBuilder::pool_size`]).
    pub fn new(cfg: SystemConfig) -> Self {
        ReactorNodeBuilder {
            cfg,
            local: (0..cfg.n()).map(ProcessId::new).collect(),
            pool_size: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            deploy: DeployConfig::default(),
            resend_cap: 4096,
            reconnect: ReconnectPolicy::default(),
            drain_grace: Duration::from_secs(3),
        }
    }

    /// Restricts this node to hosting exactly `procs`; every other process
    /// must appear in the peer map given to [`ListeningNode::join`].
    pub fn host(mut self, procs: impl IntoIterator<Item = impl Into<ProcessId>>) -> Self {
        self.local = procs.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the reactor pool size: the number of event-loop threads this
    /// node's hosted processes — each with its handler, its outbound links
    /// and the receive side of its inbound ones — are dealt over, clamped
    /// to the number of hosted processes (a loop with no process would own
    /// nothing). The default is one loop per core:
    /// [`std::thread::available_parallelism`], which honours CPU affinity
    /// and cgroup quotas (1 when it cannot tell). More loops than cores
    /// only turn message delays into cross-thread hops between loops that
    /// take turns on the same cores. The node's thread count is
    /// `min(pool, hosted processes) + 1 (dialer)` regardless of link
    /// count — the property the reactor exists for. Sockets are per route,
    /// one from each loop to each loop it sends to: an all-local node opens
    /// at most `pool²` connections, not one per ordered link.
    pub fn pool_size(mut self, pool: usize) -> Self {
        self.pool_size = pool.max(1);
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

    /// Sets the client-side operation timeout.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.deploy.op_timeout = timeout;
        self
    }

    /// Sets the links' default frame flush policy — the same engine and
    /// semantics on both link kinds; the hold deadline is kept as a
    /// reactor timer.
    pub fn flush_policy(mut self, flush: FlushPolicy) -> Self {
        self.deploy.flush = flush;
        self
    }

    /// Overrides the flush policy for one ordered link `src → dst`.
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

    /// Sets the local read-cache mode (default [`CacheMode::Off`]).
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.deploy.cache_mode = mode;
        self
    }

    /// Caps the per-link resend buffer (default 4096 frames). A link whose
    /// un-acked backlog exceeds the cap is abandoned rather than allowed
    /// to grow without bound while its peer is away.
    pub fn resend_buffer(mut self, frames: usize) -> Self {
        self.resend_cap = frames.max(1);
        self
    }

    /// Sets the reconnect policy (backoff shape, attempt budget,
    /// handshake timeouts) for every link of this node.
    pub fn reconnect_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// How long a draining shutdown waits for un-acked frames to settle
    /// before force-abandoning the remainder (default 3s).
    pub fn drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// Binds the node's listener. `"127.0.0.1:0"` (or `"0.0.0.0:0"`)
    /// lets the OS pick the port; read it back with
    /// [`ListeningNode::local_addr`] before exchanging addresses with the
    /// other nodes.
    ///
    /// # Errors
    ///
    /// [`BuildError::Io`] if the bind fails.
    pub fn listen(self, addr: impl ToSocketAddrs) -> Result<ListeningNode, BuildError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(ListeningNode {
            builder: self,
            listener,
            addr,
        })
    }

    /// Builds and starts an all-local cluster — this node alone, on an
    /// ephemeral loopback port, with no peers — with one automaton per
    /// process.
    ///
    /// # Errors
    ///
    /// As [`ListeningNode::join`]; a node restricted with
    /// [`ReactorNodeBuilder::host`] has processes with neither a host nor
    /// a peer address.
    pub fn build<A, F>(self, initial: A::Value, mut make: F) -> Result<ReactorNode<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(ProcessId) -> A,
    {
        self.build_sharded(initial, move |_reg, id| make(id))
    }

    /// As [`ReactorNodeBuilder::build`], with one automaton per
    /// `(register, process)` pair.
    ///
    /// # Errors
    ///
    /// As [`ReactorNodeBuilder::build`].
    pub fn build_sharded<A, F>(
        self,
        initial: A::Value,
        make: F,
    ) -> Result<ReactorNode<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        self.listen(("127.0.0.1", 0))?
            .join(&HashMap::new(), initial, make)
    }
}

/// A node that is bound and reachable but not yet running — the state in
/// which separately started processes exchange addresses.
#[derive(Debug)]
pub struct ListeningNode {
    builder: ReactorNodeBuilder,
    listener: TcpListener,
    addr: SocketAddr,
}

impl ListeningNode {
    /// The actual bound address (with the OS-assigned port when the bind
    /// asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where this node's *peers* should dial it: the bound address, with
    /// an unspecified IP rewritten to the matching loopback (good for
    /// same-host CI; multi-host deployments should bind a concrete IP).
    fn self_dial_addr(&self) -> SocketAddr {
        match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => {
                SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), self.addr.port())
            }
            IpAddr::V6(ip) if ip.is_unspecified() => {
                SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), self.addr.port())
            }
            _ => self.addr,
        }
    }

    /// Starts the node: spawns the reactor pool (each loop owning its
    /// share of the hosted processes) and the dialer, then dials every
    /// outbound link. `peers` maps every process *not* hosted here to its
    /// node's bound address.
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy;
    /// [`BuildError::Io`] for socket errors and for deployment mistakes
    /// (duplicate/unknown hosts, peers overlapping locals, uncovered
    /// processes).
    ///
    /// # Panics
    ///
    /// Panics if no registers are configured (matching the other
    /// backends).
    pub fn join<A, F>(
        self,
        peers: &HashMap<ProcessId, SocketAddr>,
        initial: A::Value,
        make: F,
    ) -> Result<ReactorNode<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        let self_addr = self.self_dial_addr();
        let bound_addr = self.addr;
        let b = self.builder;
        let listener = self.listener;
        let n = b.cfg.n();

        // Deployment checks: locals are distinct and known, peers cover
        // exactly the complement.
        let local_set: HashSet<ProcessId> = b.local.iter().copied().collect();
        if local_set.len() != b.local.len() {
            return Err(deploy_err("duplicate process in host list".into()));
        }
        if b.local.is_empty() {
            return Err(deploy_err("node hosts no processes".into()));
        }
        for p in &b.local {
            if p.index() >= n {
                return Err(deploy_err(format!("hosted process {p} out of range")));
            }
        }
        for p in peers.keys() {
            if p.index() >= n {
                return Err(deploy_err(format!("peer process {p} out of range")));
            }
            if local_set.contains(p) {
                return Err(deploy_err(format!("{p} is both hosted here and a peer")));
            }
        }
        for i in 0..n {
            let p = ProcessId::new(i);
            if !local_set.contains(&p) && !peers.contains_key(&p) {
                return Err(deploy_err(format!(
                    "{p} has neither a host nor a peer address"
                )));
            }
        }

        listener.set_nonblocking(true)?;
        let routes = Routes {
            listener,
            self_addr,
            peers,
            reconnect: b.reconnect,
        };
        start(b, Carriers::Routes(routes), bound_addr, initial, make)
    }
}

/// The route sockets of a listen/join node.
pub(crate) struct Routes<'a> {
    /// The node's listener, which loop 0 accepts on.
    listener: TcpListener,
    /// Where routes toward this node's own processes dial.
    self_addr: SocketAddr,
    /// Where every process hosted elsewhere listens.
    peers: &'a HashMap<ProcessId, SocketAddr>,
    reconnect: ReconnectPolicy,
}

/// What carries a node's frames between its processes: route sockets, or
/// the chaos links of an in-process [`Cluster`](crate::Cluster).
pub(crate) enum Carriers<'a> {
    Routes(Routes<'a>),
    Chaos(ChaosConfig),
}

/// Starts a node whose deployment `b` describes: deals the hosted
/// processes over the event-loop pool, gives every ordered link from a
/// hosted process its carrier, and spawns the loops — plus, for route
/// sockets, the dialer, with loop 0 accepting on the listener.
///
/// # Errors
///
/// [`BuildError::Config`] for an unsatisfiable flush policy;
/// [`BuildError::Io`] when a waker cannot be made.
pub(crate) fn start<A, F>(
    b: ReactorNodeBuilder,
    carriers: Carriers<'_>,
    addr: SocketAddr,
    initial: A::Value,
    mut make: F,
) -> Result<ReactorNode<A>, BuildError>
where
    A: Automaton,
    F: FnMut(RegisterId, ProcessId) -> A,
{
    let n = b.cfg.n();
    let pool = b.pool_size.min(b.local.len());
    let tag_bits = RegisterId::routing_bits(b.deploy.registers.len());

    // Per-thread plumbing first: the spine's wake hook needs the wakers.
    let (done_tx, done_rx) = unbounded::<usize>();
    let (dial_tx, dial_rx) = unbounded::<DialReq>();
    let mut cmd_txs = Vec::with_capacity(pool);
    let mut cmd_rxs = Vec::with_capacity(pool);
    let mut wakers: Vec<Arc<Waker>> = Vec::with_capacity(pool);
    let mut wake_rxs = Vec::with_capacity(pool);
    for _ in 0..pool {
        let (ct, cr) = unbounded::<Cmd>();
        cmd_txs.push(ct);
        cmd_rxs.push(cr);
        let (w, wr) = waker_pair()?;
        wakers.push(w);
        wake_rxs.push(wr);
    }

    // Deal the hosted processes over the pool. The loop that owns a
    // process owns its handler state, its mailbox, every ordered link it
    // sends on, and the receive side of every link toward it (whose route
    // the accepting loop hands over).
    let mut owners: Vec<Option<usize>> = vec![None; n];
    let mut inboxes: Vec<Option<Sender<Incoming<A>>>> = (0..n).map(|_| None).collect();
    let mut mailboxes = Vec::with_capacity(b.local.len());
    for (k, &src) in b.local.iter().enumerate() {
        owners[src.index()] = Some(k % pool);
        let (tx, mailbox) = unbounded();
        inboxes[src.index()] = Some(tx);
        mailboxes.push(mailbox);
    }
    let owners: Arc<[Option<usize>]> = owners.into();
    // An event loop parked in `poll(2)` does not see a channel send: every
    // post to a mailbox nudges the loop that owns the process.
    let wake = {
        let (owners, wakers) = (Arc::clone(&owners), wakers.clone());
        move |p: ProcessId| {
            if let Some(owner) = owners[p.index()] {
                wakers[owner].wake();
            }
        }
    };
    let spine = Arc::new(Spine::new(
        b.cfg,
        &b.deploy,
        inboxes.clone(),
        wake,
        initial,
    )?);
    let crashed = spine.crash_flags();
    let stats = spine.stats_handle();

    let mut procs: Vec<Vec<Hosted<A>>> = (0..pool).map(|_| Vec::new()).collect();
    let mut links: Vec<Vec<SendLink<A::Msg>>> = (0..pool).map(|_| Vec::new()).collect();
    for ((k, &src), mailbox) in b.local.iter().enumerate().zip(mailboxes) {
        let slot = k % pool;
        let mut out = vec![None; n];
        for dst in (0..n).map(ProcessId::new).filter(|&dst| dst != src) {
            let policy = b.deploy.policy_for(src, dst);
            let carrier = match &carriers {
                Carriers::Routes(r) if owners[dst.index()].is_some() => Carrier::Route(r.self_addr),
                Carriers::Routes(r) => Carrier::Route(r.peers[&dst]),
                Carriers::Chaos(cfg) => {
                    Carrier::Chaos(ChaosLink::new(*cfg, src, dst, n, policy.max_batch))
                }
            };
            out[dst.index()] = Some(links[slot].len());
            links[slot].push(SendLink::new(LinkSpec { src, dst }, carrier, policy));
        }
        let shards = ShardSet::new(src, &b.deploy.registers, &mut make);
        procs[slot].push(Hosted {
            core: ProcessCore::new(
                shards,
                crashed.to_vec(),
                Arc::clone(stats),
                b.deploy.cache_mode,
            ),
            mailbox,
            out,
            retired: false,
        });
    }

    let (mut listener, reconnect) = match carriers {
        Carriers::Routes(r) => (Some(r.listener), Some(r.reconnect)),
        Carriers::Chaos(_) => (None, None),
    };
    let mut reactor_threads = Vec::with_capacity(pool);
    let parts = cmd_rxs
        .into_iter()
        .zip(wake_rxs)
        .zip(procs.into_iter().zip(links));
    for (slot, ((cmd_rx, wake_rx), (procs, links))) in parts.enumerate() {
        let mut proc_slot = vec![None; n];
        for (k, host) in procs.iter().enumerate() {
            proc_slot[host.core.id().index()] = Some(k);
        }
        let reactor: Reactor<A> = Reactor {
            slot,
            tag_bits,
            resend_cap: b.resend_cap,
            drain_grace: b.drain_grace,
            stats: Arc::clone(stats),
            crashed: crashed.to_vec(),
            owners: Arc::clone(&owners),
            cmd_rx,
            cmd_txs: cmd_txs.clone(),
            wakers: wakers.clone(),
            wake_rx,
            dial_tx: dial_tx.clone(),
            listener: listener.take(),
            procs,
            proc_slot,
            links,
            in_flight: InFlight::new(),
            inboxes: inboxes.clone(),
            done_tx: done_tx.clone(),
        };
        reactor_threads.push(std::thread::spawn(move || reactor.run()));
    }

    // The shared dialer; each loop asks it for its routes as it starts.
    let dialer = reconnect.map(|policy| {
        let cmd_txs = cmd_txs.clone();
        let wakers = wakers.clone();
        std::thread::spawn(move || dialer_loop(&dial_rx, &cmd_txs, &wakers, policy))
    });

    Ok(ReactorNode {
        spine,
        local: b.local,
        addr,
        reactor_threads,
        dial_tx: dialer.is_some().then_some(dial_tx),
        dialer,
        cmd_txs,
        wakers,
        done_rx,
        drain_grace: b.drain_grace,
        stopped: false,
    })
}

/// A running reactor-transport node: hosts some (or all) of the
/// configuration's processes over a pool of event-loop threads, one per
/// core unless [`ReactorNodeBuilder::pool_size`] says otherwise.
///
/// Implements [`Driver`] for its hosted processes; invoking on a process
/// hosted elsewhere is a typed [`DriverError::Backend`] — drive that
/// process through its own node.
pub struct ReactorNode<A: Automaton> {
    /// The live-backend state and its one `Driver` body; hosted processes'
    /// mailboxes are posted to through it, which nudges the owning loop.
    spine: Arc<Spine<A>>,
    local: Vec<ProcessId>,
    addr: SocketAddr,
    reactor_threads: Vec<JoinHandle<()>>,
    dialer: Option<JoinHandle<()>>,
    dial_tx: Option<Sender<DialReq>>,
    cmd_txs: Vec<Sender<Cmd>>,
    wakers: Vec<Arc<Waker>>,
    done_rx: Receiver<usize>,
    drain_grace: Duration,
    stopped: bool,
}

impl<A: Automaton> std::fmt::Debug for ReactorNode<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorNode")
            .field("cfg", &self.spine.config())
            .field("local", &self.local)
            .field("addr", &self.addr)
            .field("pool", &self.reactor_threads.len())
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> ReactorNode<A> {
    /// The node's bound listener address; the unspecified address
    /// `0.0.0.0:0` on a [`Cluster`](crate::Cluster), which binds nothing.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Creates a blocking client bound to process `proc` on the default
    /// register `r0`.
    ///
    /// # Panics
    ///
    /// Panics if `r0` is not hosted (custom `register_ids` without it).
    pub fn client(&self, proc: impl Into<ProcessId>) -> RegisterClient<A> {
        self.client_for(proc, RegisterId::ZERO)
            .expect("default register r0 not hosted")
    }

    /// Creates a blocking client bound to process `proc` on register `reg`.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownRegister`] if the node does not host `reg`.
    pub fn client_for(
        &self,
        proc: impl Into<ProcessId>,
        reg: RegisterId,
    ) -> Result<RegisterClient<A>, ClientError> {
        self.spine.client(proc.into(), reg)
    }

    /// Crashes process `proc`, as [`Driver::crash`] does, through a shared
    /// reference: clients on other threads keep running meanwhile.
    ///
    /// # Errors
    ///
    /// As [`Driver::crash`].
    pub fn crash(&self, proc: impl Into<ProcessId>) -> Result<(), DriverError> {
        self.spine.crash(proc.into())
    }

    /// Snapshot of the flat operation history recorded so far: every
    /// register interleaved, as `twobit_lincheck::check_swmr` takes it.
    /// The per-register projection is [`ReactorNode::sharded_history`]
    /// (which [`Driver::history`] returns).
    pub fn history(&self) -> History<A::Value> {
        self.spine.history()
    }

    /// Snapshot of the per-register operation histories recorded so far.
    pub fn sharded_history(&self) -> ShardedHistory<A::Value> {
        self.spine.sharded_history()
    }

    /// The processes hosted (and drivable) on this node.
    pub fn hosted_processes(&self) -> &[ProcessId] {
        &self.local
    }

    /// Snapshot of the network statistics. `wire_bytes` counts frame blob
    /// bytes handed to sockets (resends count again); reconnect behavior
    /// shows up in `reconnects`, `frames_resent`, `frames_deduped` and
    /// `resend_buffer_high_water`.
    pub fn stats(&self) -> NetStats {
        self.spine.stats()
    }

    /// Total OS threads this node runs: the event-loop pool (`pool_size`,
    /// clamped to the hosted process count) plus the dialer, which a
    /// [`Cluster`](crate::Cluster) does not have. Notably *not* a function
    /// of the link count, nor — past the clamp — of how many processes the
    /// node hosts: handlers run on the loops.
    pub fn thread_count(&self) -> usize {
        self.reactor_threads.len() + usize::from(self.dialer.is_some())
    }

    /// Fault injection: shuts down every established link socket on this
    /// node. Links are expected to recover through the reconnect-and-
    /// resend path — this is a *transient* failure, distinct from
    /// [`Driver::crash`] (which is permanent and silences a process).
    pub fn sever_links(&self) {
        for (tx, w) in self.cmd_txs.iter().zip(&self.wakers) {
            let _ = tx.send(Cmd::Sever);
            w.wake();
        }
    }

    /// Gracefully stops the node — drains links (bounded by the drain
    /// grace), then tears down all threads — and returns the final
    /// per-register histories and statistics.
    pub fn shutdown(mut self) -> (ShardedHistory<A::Value>, NetStats) {
        self.shutdown_inner();
        (self.spine.sharded_history(), self.spine.stats())
    }

    fn shutdown_inner(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // 1. Drain: each loop handles what its mailboxes still hold,
        //    retires its processes (so no envelope is produced after its
        //    verdict), flushes immediately and signals once its links
        //    settle (or the grace deadline forces the remainder).
        for (tx, w) in self.cmd_txs.iter().zip(&self.wakers) {
            let _ = tx.send(Cmd::Drain);
            w.wake();
        }
        let deadline = Instant::now() + self.drain_grace + Duration::from_secs(2);
        let mut done = 0usize;
        while done < self.reactor_threads.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.done_rx.recv_timeout(left) {
                Ok(_) => done += 1,
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        // 2. Stop the loops and the dialer.
        for (tx, w) in self.cmd_txs.iter().zip(&self.wakers) {
            let _ = tx.send(Cmd::Stop);
            w.wake();
        }
        for h in self.reactor_threads.drain(..) {
            let _ = h.join();
        }
        self.dial_tx = None; // the last sender: the dialer's recv errors
        if let Some(h) = self.dialer.take() {
            let _ = h.join();
        }
    }
}

impl<A: Automaton> Drop for ReactorNode<A> {
    /// Best-effort, non-blocking teardown signal (the blocking, draining
    /// variant is the explicit [`ReactorNode::shutdown`]).
    fn drop(&mut self) {
        if self.stopped {
            return;
        }
        for (tx, w) in self.cmd_txs.iter().zip(&self.wakers) {
            let _ = tx.send(Cmd::Stop);
            w.wake();
        }
    }
}

/// Drives the hosted processes through the one ticket table every live
/// backend shares (see [`Spine`]).
impl<A: Automaton> Driver for ReactorNode<A> {
    type Value = A::Value;

    fn config(&self) -> SystemConfig {
        self.spine.config()
    }

    fn registers(&self) -> Vec<RegisterId> {
        self.spine.registers().to_vec()
    }

    fn invoke(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
    ) -> Result<OpTicket, DriverError> {
        self.spine.invoke(proc, reg, op)
    }

    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<A::Value>, DriverError> {
        self.spine.poll(ticket)
    }

    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        self.spine.crash(proc)
    }

    fn recover(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        recover_process(proc, &self.spine)
    }

    fn lifecycle(&self, proc: ProcessId) -> Lifecycle {
        self.spine.lifecycle(proc)
    }

    fn history(&self) -> ShardedHistory<A::Value> {
        self.spine.sharded_history()
    }

    fn stats(&self) -> NetStats {
        self.spine.stats()
    }
}

/// The all-local spelling of [`ReactorNodeBuilder`]: every process hosted on
/// one node ([`ReactorNodeBuilder::build`] / `build_sharded`).
pub type ReactorClusterBuilder = ReactorNodeBuilder;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use twobit_core::TwoBitProcess;

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::max_resilience(n)
    }

    #[test]
    fn write_then_read_over_the_reactor() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut node = ReactorClusterBuilder::new(c)
            .pool_size(2)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        node.write(writer, RegisterId::ZERO, 7).unwrap();
        assert_eq!(node.read(ProcessId::new(1), RegisterId::ZERO).unwrap(), 7);
        assert_eq!(node.thread_count(), 2 + 1, "min(pool, hosted) + dialer");
        let (history, stats) = node.shutdown();
        twobit_lincheck::check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
        assert!(stats.wire_bytes() > 0, "bytes crossed real sockets");
        assert_eq!(stats.links_abandoned(), 0);
        assert_eq!(stats.reconnects(), 0, "no failures were injected");
        assert_eq!(
            stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
            stats.total_sent(),
            "teardown reconciliation"
        );
        assert_eq!(
            stats.frames_sent(),
            stats.flushes_total(),
            "every sealed frame carries exactly one flush reason"
        );
        assert_eq!(
            stats.control_bits(),
            2 * stats.total_sent(),
            "two control bits per message survive real serialization"
        );

        // The degenerate deployment: one process, no links, no traffic.
        let c = SystemConfig::new(1, 0).unwrap();
        let mut node = ReactorClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        node.write(writer, RegisterId::ZERO, 3).unwrap();
        assert_eq!(node.read(writer, RegisterId::ZERO).unwrap(), 3);
        let (_, stats) = node.shutdown();
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn the_default_pool_is_one_loop_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let writer = ProcessId::new(0);
        let c = cfg(5);
        let mut node = ReactorClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        assert_eq!(node.thread_count(), cores.min(5) + 1, "loops + dialer");
        node.write(writer, RegisterId::ZERO, 4).unwrap();
        assert_eq!(node.read(ProcessId::new(4), RegisterId::ZERO).unwrap(), 4);
        node.shutdown();

        let c = SystemConfig::new(1, 0).unwrap();
        let node = ReactorClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        assert_eq!(node.thread_count(), 1 + 1, "one process, one loop");
        node.shutdown();

        // A chaos cluster runs on the same pool, with no dialer: not one
        // thread per process and one per ordered link, n + n(n−1) = 25.
        let c = cfg(5);
        let cluster = crate::ClusterBuilder::new(c)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        assert_eq!(cluster.thread_count(), cores.min(5), "loops only");
        let mut w = cluster.client(writer);
        w.write(5).unwrap();
        assert_eq!(cluster.client(4).read().unwrap(), 5);
        cluster.shutdown();
    }

    #[test]
    fn builder_validates_flush_policy_and_deployment() {
        use twobit_runtime::ConfigError;
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = ReactorClusterBuilder::new(c)
            .flush_policy(FlushPolicy::fixed(0, Duration::ZERO))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        assert!(matches!(
            err,
            Err(BuildError::Config(ConfigError::ZeroMaxBatch { link: None }))
        ));
        // Per-link overrides are validated too, naming the link.
        let err = ReactorClusterBuilder::new(c)
            .flush_policy_for(1, 2, FlushPolicy::fixed(0, Duration::ZERO))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        assert!(matches!(
            err,
            Err(BuildError::Config(ConfigError::ZeroMaxBatch {
                link: Some((a, b))
            })) if (a, b) == (ProcessId::new(1), ProcessId::new(2))
        ));

        // Hosting p0 only without a peer address for p1/p2 is a typed
        // deployment error, not a hang.
        let err = ReactorNodeBuilder::new(c)
            .host([0usize])
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        assert!(matches!(err, Err(BuildError::Io(_))));
    }

    #[test]
    fn driving_a_remote_process_is_a_typed_error() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        // A node hosting p0 only, with (fake but well-formed) peer
        // addresses for p1/p2 — dials back off in the background while the
        // driver surface stays responsive for hosted processes.
        let mut peers = HashMap::new();
        // An address from TEST-NET-1: dials fail fast or time out; the
        // local driver check must not depend on them at all.
        peers.insert(ProcessId::new(1), "192.0.2.1:9".parse().unwrap());
        peers.insert(ProcessId::new(2), "192.0.2.1:10".parse().unwrap());
        let mut node = ReactorNodeBuilder::new(c)
            .host([0usize])
            .pool_size(1)
            .reconnect_policy(ReconnectPolicy {
                max_attempts: 1,
                dial_timeout: Duration::from_millis(50),
                ..ReconnectPolicy::default()
            })
            .op_timeout(Duration::from_millis(200))
            .listen(("127.0.0.1", 0))
            .unwrap()
            .join::<TwoBitProcess<u64>, _>(&peers, 0u64, |_, id| {
                TwoBitProcess::new(id, c, writer, 0u64)
            })
            .unwrap();
        assert_eq!(node.hosted_processes(), &[ProcessId::new(0)]);
        let remote = ProcessId::new(1);
        let not_hosted = |res: Result<(), DriverError>| match res {
            Err(DriverError::Backend(msg)) => {
                assert!(msg.contains("not hosted"), "got: {msg}");
            }
            other => panic!("expected a Backend error, got {other:?}"),
        };
        not_hosted(
            node.invoke(remote, RegisterId::ZERO, Operation::Read)
                .map(drop),
        );
        // Crashing it is refused the same way and touches nothing: p1's
        // lifecycle is its own node's business, and a flag set here could
        // never be recovered here.
        not_hosted(node.crash(remote));
        assert_eq!(node.lifecycle(remote), Lifecycle::Up);
        assert!(!node.spine.crash_flags()[remote.index()].load(Ordering::Relaxed));
        not_hosted(
            node.invoke(remote, RegisterId::ZERO, Operation::Read)
                .map(drop),
        );
        not_hosted(node.recover(remote));
        // Addresses outside the configuration are typed as well.
        assert_eq!(
            node.invoke(ProcessId::new(9), RegisterId::ZERO, Operation::Read)
                .unwrap_err(),
            DriverError::UnknownProcess(ProcessId::new(9))
        );
        assert_eq!(
            node.invoke(writer, RegisterId::new(7), Operation::Read)
                .unwrap_err(),
            DriverError::UnknownRegister(RegisterId::new(7))
        );
        drop(node);
    }
}
