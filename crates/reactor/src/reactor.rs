//! The reactor event loop: every hosted process of a node, with all of its
//! links, run to completion on a pool of threads (one per core by default).
//!
//! The pool is partitioned by *process*. The loop that owns process `p`
//! owns every *send link* with `src = p`, the receive side of every link
//! with `dst = p`, `p`'s mailbox, and `p`'s handler state
//! ([`ProcessCore`]): a decoded frame goes straight into the handler and
//! the handler's envelopes go straight into the same thread's
//! [`LinkBatcher`]s — no inbox hop, no envelope channel, no process
//! thread. One `poll(2)` set per loop watches its sockets plus a
//! [`Waker`](crate::poller::Waker) and — on loop 0 — the node's listener.
//! A link's [`LinkBatcher`] hold deadline becomes the poll timeout.
//!
//! A send link is one of two kinds ([`Carrier`]). A route link hands its
//! sealed frames to a socket, as below. A chaos link — every link of a
//! [`Cluster`](crate::Cluster) — seals the same way and then puts the frame
//! in the loop's deadline queue for a sampled delay (see [`crate::link`]);
//! the queue's head is one more poll deadline, and due frames run their
//! destinations' handlers right after the pass's input, before its seal.
//!
//! ## Routes
//!
//! Links do not get a socket each. A *route* runs from sending loop L to
//! receiving loop M and carries, on one TCP connection, every link `s → d`
//! where L owns `s` and M owns `d`; an all-local node opens at most `pool²`
//! of them however many links it has. Everything per link stays per link —
//! sequence numbers, the resend buffer, the batcher, the receiver's dedup
//! cursor, the lazy acks — and records and acks name their link
//! (`linkseq`'s `[src][dst][seq]` prefix). Only the carrier is shared.
//! Node-internal routes loop through the node's own listener like remote
//! ones, so there is one data path.
//!
//! Each pass services input first — it keeps reading while a zero-timeout
//! re-poll still reports ready sockets, for at most [`MAX_INPUT_ROUNDS`]
//! rounds — then seals frames and queues due acks into their routes' write
//! buffers, and only then writes each route with bytes queued, once: one
//! `write(2)` carries everything a pass sends between two loops, and
//! everything the handlers emitted toward one destination shares a frame.
//! The end of a pass is the batcher's flush point: with no hold (the
//! adaptive policy) a frame is exactly what one pass emitted toward its
//! destination, so batches grow with load and never wait on a timer. A
//! pass that found input yields its core once before it seals, and reads
//! whatever that let in: where threads outnumber cores, the thread about
//! to hand this loop work — a client answering the replies the pass just
//! completed, another loop — runs first, and its work shares the pass's
//! frames. Where the core is free, the yield returns at once.
//!
//! ## Route discovery, reconnect and resend
//!
//! A loop dials every address that has live links without a carrier,
//! through the shared [`dialer_loop`]. The [`RouteHello`] names the loop's
//! processes and those destinations; the accepting node hands the
//! connection to the loop owning the first destination, whose
//! [`RouteWelcome`] lists `(src, dst, last_delivered)` for every link the
//! connection now carries. The dialing loop attaches exactly those, prunes
//! each resend buffer to its cursor, replays the tail, and dials again for
//! destinations still uncovered. It never reads the accepting node's
//! process placement, not even when that node is its own.
//!
//! Every sealed frame gets a per-link sequence number and is retained in a
//! bounded resend buffer until the receiver's cumulative ack covers it.
//! The buffer is a byte log per link that frames are encoded straight
//! into, and the receiver decodes each frame into the envelope vector its
//! destination's previous frame left behind, so a frame allocates nothing
//! end to end.
//! Receivers ack lazily — once [`ACK_EVERY_FRAMES`] frames are owed on a
//! link or its oldest owed frame is [`ACK_MAX_DELAY`] old, at once for a
//! replay they had to dedup, and on every pass while draining — and a due
//! ack takes every other owed ack on its route along. Acks only prune the
//! resend buffer: when a route dies, every link on it is detached and the
//! loop re-dials once (exponential backoff); the welcome tells the sender
//! where the receiver actually is. A lost or late ack therefore never
//! loses or duplicates a frame. The receiver dedups anything at or below
//! its cursor, so a frame reaches the destination's handler exactly once
//! no matter how many sockets it crossed. A link whose resend buffer
//! overflows is *abandoned* alone, and an exhausted dial budget abandons
//! every link the route was meant to carry — the existing crash-adjacent
//! bookkeeping (`links_abandoned`, `messages_abandoned`) that tells the
//! teardown reconciliation the books may not balance.
//!
//! Accounting: `frames_sent` / `flushes_total` tick once at seal time, `wire_bytes` counts frame blob
//! bytes handed to a socket (link prefixes, acks and handshakes are
//! transport overhead and excluded; a replayed frame's bytes count again),
//! and deliveries tick in the call that runs the destination's handler.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use twobit_proto::linkseq::{self, LinkSeq, RouteHello, RouteWelcome, LINK_SEQ_LEN};
use twobit_proto::{Automaton, Envelope, Frame, NetStats, ProcessId, WireError, WireMessage};
use twobit_runtime::{FlushPolicy, Incoming, LinkBatcher, ProcessCore};

use crate::link::{ChaosLink, InFlight};
use crate::poller::{poll_fds, PollFd, WakeRx, Waker, POLL_IN, POLL_OUT};

/// How long a freshly accepted connection may sit without completing its
/// [`RouteHello`] before the reactor drops it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A receiver acks once it owes this many frames on a link...
const ACK_EVERY_FRAMES: u64 = 32;
/// ...or once the oldest frame it owes an ack for is this old.
const ACK_MAX_DELAY: Duration = Duration::from_millis(10);
/// Poll rounds one pass spends on input before it seals and writes
/// frames: the first waits for the next deadline, the rest are
/// zero-timeout re-polls that stop as soon as nothing is ready — the
/// first time that happens after input, only once the loop has yielded.
const MAX_INPUT_ROUNDS: usize = 4;
/// Bytes one `read(2)` can return; a shorter read means the socket is
/// empty for now.
const READ_BUF_LEN: usize = 64 * 1024;

/// How a route behaves when its connection dies (and on the initial dial).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Backoff before the first re-attempt; doubles per failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive failed attempts before the route's links are abandoned.
    pub max_attempts: u32,
    /// `connect(2)` timeout per attempt.
    pub dial_timeout: Duration,
    /// How long to wait for the peer's [`RouteWelcome`] after connecting.
    pub handshake_timeout: Duration,
}

impl Default for ReconnectPolicy {
    /// ~8s of total retry budget: enough to ride out a peer restart on a
    /// CI box without stalling teardown for long when the peer is gone.
    fn default() -> Self {
        ReconnectPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(200),
            max_attempts: 40,
            dial_timeout: Duration::from_secs(1),
            handshake_timeout: Duration::from_secs(2),
        }
    }
}

/// Backoff before re-attempt number `attempt` (1-based): exponential from
/// the base, capped.
fn backoff_for(policy: &ReconnectPolicy, attempt: u32) -> Duration {
    let doublings = attempt.saturating_sub(1).min(20);
    policy
        .base_backoff
        .saturating_mul(1u32 << doublings)
        .min(policy.max_backoff)
}

/// One ordered link this node sends on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkSpec {
    pub(crate) src: ProcessId,
    pub(crate) dst: ProcessId,
}

/// What carries a send link's sealed frames.
pub(crate) enum Carrier {
    /// A route socket to the node listening here, which hosts `dst`.
    Route(SocketAddr),
    /// This loop's chaos-frame queue (see [`crate::link`]).
    Chaos(ChaosLink),
}

/// A sealed frame parked in its link's [`ResendLog`] until acked.
struct Sealed {
    seq: u64,
    /// Where the frame's blob lies in the log, in log offsets (see
    /// [`ResendLog::head`]).
    offset: usize,
    len: usize,
    /// Message count, for abandoned-link accounting.
    msgs: u64,
    /// Whether the frame was ever handed to a socket — a replay of a
    /// transmitted frame counts in `frames_resent`, a first transmission
    /// after a reconnect does not.
    transmitted: bool,
}

/// A link's resend buffer: the blobs of its sealed-but-unacked frames
/// back to back in one byte log, which frames are encoded straight into,
/// and where each blob lies. Nothing is allocated per frame once the log
/// has grown to the link's working size.
#[derive(Default)]
struct ResendLog {
    bytes: Vec<u8>,
    /// The log offset of `bytes[0]`: advanced as acks prune frames off the
    /// front, reset whenever the log empties.
    head: usize,
    frames: VecDeque<Sealed>,
}

impl ResendLog {
    fn len(&self) -> usize {
        self.frames.len()
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Encodes `frame` onto the end of the log as frame `seq`, and returns
    /// its blob.
    fn seal<M: WireMessage>(&mut self, seq: u64, frame: &Frame<M>, transmitted: bool) -> &[u8] {
        let at = self.bytes.len();
        let len = frame
            .encode_append(&mut self.bytes)
            .expect("the reactor transport requires a codec-capable message type");
        self.frames.push_back(Sealed {
            seq,
            offset: self.head + at,
            len,
            msgs: frame.len() as u64,
            transmitted,
        });
        &self.bytes[at..]
    }

    /// Every unacked frame, oldest first, with its blob.
    fn unacked(&mut self) -> impl Iterator<Item = (&mut Sealed, &[u8])> {
        let (bytes, head) = (&self.bytes, self.head);
        self.frames.iter_mut().map(move |s| {
            let at = s.offset - head;
            let blob = &bytes[at..at + s.len];
            (s, blob)
        })
    }

    /// Drops every frame up to `seq`, which the receiver has consumed. The
    /// log is cleared when that empties it and compacted in place
    /// otherwise.
    fn prune(&mut self, seq: u64) {
        while self.frames.front().is_some_and(|s| s.seq <= seq) {
            self.frames.pop_front();
        }
        match self.frames.front() {
            None => {
                self.clear();
            }
            Some(first) => {
                self.bytes.drain(..first.offset - self.head);
                self.head = first.offset;
            }
        }
    }

    /// Drops everything; returns how many messages that was.
    fn clear(&mut self) -> u64 {
        let msgs = self.frames.drain(..).map(|s| s.msgs).sum();
        self.bytes.clear();
        self.head = 0;
        msgs
    }
}

/// Reactor-side state of one send link.
pub(crate) struct SendLink<M> {
    pub(crate) spec: LinkSpec,
    carrier: Carrier,
    pub(crate) batcher: LinkBatcher<Envelope<M>>,
    next_seq: u64,
    resend: ResendLog,
    /// The route connection currently carrying the link.
    conn: Option<usize>,
    /// A dial naming this link's destination is in flight.
    dialing: bool,
    ever_connected: bool,
    abandoned: bool,
}

impl<M> SendLink<M> {
    pub(crate) fn new(spec: LinkSpec, carrier: Carrier, policy: FlushPolicy) -> Self {
        SendLink {
            spec,
            carrier,
            batcher: LinkBatcher::new(policy),
            next_seq: 1,
            resend: ResendLog::default(),
            conn: None,
            dialing: false,
            ever_connected: false,
            abandoned: false,
        }
    }

    fn drained(&self) -> bool {
        self.abandoned || (self.resend.is_empty() && !self.batcher.has_pending())
    }

    /// Where to dial for this link: its route's address while it has
    /// neither a connection nor a dial in flight. A chaos link never dials.
    fn needs_dial(&self) -> Option<SocketAddr> {
        match self.carrier {
            Carrier::Route(addr) if !self.abandoned && self.conn.is_none() && !self.dialing => {
                Some(addr)
            }
            _ => None,
        }
    }
}

/// A pending socket write, compacting as the kernel takes bytes.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Writes as much as the socket takes right now. `WouldBlock` is a
    /// clean stop (the poll set picks up writable interest); anything else
    /// is the connection's death.
    fn write_to(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        while self.pos < self.buf.len() {
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(())
    }
}

/// What a registered connection is for.
#[derive(Clone, Copy)]
enum ConnKind {
    /// Accepted, [`RouteHello`] not yet complete.
    Handshake { since: Instant },
    /// A route this loop dialed: records out, acks in.
    Out,
    /// A route toward processes this loop owns: records in, acks out.
    In,
}

/// One non-blocking socket in the poll set.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    rbuf: Vec<u8>,
    wbuf: WriteBuf,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind) -> Self {
        Conn {
            stream,
            kind,
            rbuf: Vec::new(),
            wbuf: WriteBuf::default(),
        }
    }
}

/// Receive-side state of one ordered link toward a process this loop owns.
/// Outlives any individual connection — the cursor is what makes
/// redelivery after a reconnect detectable.
struct RecvLink {
    src: ProcessId,
    dst: ProcessId,
    /// Index of the destination in [`Reactor::procs`].
    host: usize,
    /// Highest seq handed to the destination's handler.
    delivered: u64,
    /// Highest seq the sender has been told about, by ack or welcome.
    acked: u64,
    /// When the oldest frame still owed an ack was delivered; `None` when
    /// nothing is owed or no connection could carry the ack.
    owed_since: Option<Instant>,
    /// The route connection currently carrying the link.
    conn: Option<usize>,
}

/// One hosted process as its owning loop sees it.
pub(crate) struct Hosted<A: Automaton> {
    pub(crate) core: ProcessCore<A>,
    /// Invocations, crash nudges, recovery requests and shutdown: posted
    /// by other threads, drained here after a waker nudge.
    pub(crate) mailbox: Receiver<Incoming<A>>,
    /// The send link toward each destination, as an index into
    /// [`Reactor::links`] (`None` on the self slot).
    pub(crate) out: Vec<Option<usize>>,
    /// Set by the drain (or a posted [`Incoming::Shutdown`]): no handler
    /// runs from then on.
    pub(crate) retired: bool,
}

/// A request for the shared dialer thread: connect `addr`, run the
/// [`RouteHello`]/[`RouteWelcome`] handshake, hand the socket back to
/// reactor `thread` as a [`Cmd::DialDone`].
pub(crate) struct DialReq {
    thread: usize,
    hello: RouteHello,
    addr: SocketAddr,
    attempt: u32,
    not_before: Instant,
}

/// Control messages a reactor drains (after a [`Waker`] nudge) between
/// poll rounds.
pub(crate) enum Cmd {
    /// A handshaken route socket handed from the accepting reactor to the
    /// loop that owns `hello.dsts[0]`; `carry` is whatever followed the
    /// hello in the accept buffer.
    AdoptRoute {
        hello: RouteHello,
        stream: TcpStream,
        carry: Vec<u8>,
    },
    /// The dialer finished the route dial for `hello`: a non-blocking
    /// socket plus the links the peer attached to it on success, `None`
    /// when the attempt budget ran out.
    DialDone {
        hello: RouteHello,
        result: Option<(TcpStream, RouteWelcome)>,
    },
    /// Fault injection: shut down every established socket on this thread
    /// (links then recover through the reconnect path).
    Sever,
    /// Start draining: handle what the mailboxes hold, retire the hosted
    /// processes, flush immediately, and signal `done_tx` once every owned
    /// link is drained (or the grace deadline forces abandonment).
    Drain,
    /// Exit the event loop.
    Stop,
}

/// One reactor thread's whole world. Constructed field-by-field in
/// `node.rs`, then consumed by [`Reactor::run`] on its own thread.
pub(crate) struct Reactor<A: Automaton> {
    /// This thread's index in the pool.
    pub(crate) slot: usize,
    pub(crate) tag_bits: u64,
    /// Resend-buffer overflow threshold, in frames.
    pub(crate) resend_cap: usize,
    pub(crate) drain_grace: Duration,
    pub(crate) stats: Arc<Mutex<NetStats>>,
    pub(crate) crashed: Vec<Arc<AtomicBool>>,
    /// Which loop owns each process; `None` for processes not hosted on
    /// this node. Read only to route an accepted hello.
    pub(crate) owners: Arc<[Option<usize>]>,
    pub(crate) cmd_rx: Receiver<Cmd>,
    pub(crate) cmd_txs: Vec<Sender<Cmd>>,
    pub(crate) wakers: Vec<Arc<Waker>>,
    pub(crate) wake_rx: WakeRx,
    pub(crate) dial_tx: Sender<DialReq>,
    /// The node's listener (thread 0 only), non-blocking.
    pub(crate) listener: Option<TcpListener>,
    /// The processes this loop owns.
    pub(crate) procs: Vec<Hosted<A>>,
    /// Process index → index into `procs` (`None`: owned elsewhere).
    pub(crate) proc_slot: Vec<Option<usize>>,
    /// Every send link whose `src` this loop owns.
    pub(crate) links: Vec<SendLink<A::Msg>>,
    /// Frames this loop's chaos links sealed, waiting out their delays.
    pub(crate) in_flight: InFlight<A::Msg>,
    /// The node's mailboxes, where a chaos frame goes when another loop
    /// owns its destination.
    pub(crate) inboxes: Vec<Option<Sender<Incoming<A>>>>,
    pub(crate) done_tx: Sender<usize>,
}

/// What [`Reactor::run`] keeps beside the reactor itself, so the methods
/// can borrow the reactor and these independently.
struct LoopState {
    /// The connection slab.
    conns: Vec<Option<Conn>>,
    /// Receive links, in adoption order, and their index by `(src, dst)`.
    recv_links: Vec<RecvLink>,
    recv_index: HashMap<(ProcessId, ProcessId), usize>,
    /// The poll set and the slab index behind each of its connection
    /// entries, rebuilt in place every round.
    fds: Vec<PollFd>,
    conn_ids: Vec<usize>,
    /// Where every `read(2)` lands first.
    read_buf: Box<[u8]>,
    draining: bool,
    drain_deadline: Option<Instant>,
    done_sent: bool,
}

impl<A: Automaton> Reactor<A> {
    /// The event loop. Returns when a [`Cmd::Stop`] arrives.
    pub(crate) fn run(mut self) {
        let mut st = LoopState {
            conns: Vec::new(),
            recv_links: Vec::new(),
            recv_index: HashMap::new(),
            fds: Vec::new(),
            conn_ids: Vec::new(),
            read_buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            draining: false,
            drain_deadline: None,
            done_sent: false,
        };
        self.dial_uncovered();
        loop {
            let now = Instant::now();
            Self::sweep_stale_handshakes(&mut st, now);
            // Input first: the first round waits for the next deadline,
            // the following ones only pick up what arrived meanwhile.
            let mut timeout = self.next_deadline(&st, now);
            let (mut found_input, mut yielded) = (false, false);
            for _ in 0..MAX_INPUT_ROUNDS {
                self.build_pollfds(&mut st);
                match poll_fds(&mut st.fds, timeout) {
                    // Nothing more is ready: before sealing, give the core
                    // away once (see the module docs), then look again.
                    Ok(0) if found_input && !yielded => {
                        yielded = true;
                        std::thread::yield_now();
                        continue;
                    }
                    Ok(0) => break,
                    Ok(_) => found_input = true,
                    Err(_) => {
                        // A transient poll failure (fd churn race); don't spin.
                        std::thread::sleep(Duration::from_millis(1));
                        break;
                    }
                }
                if self.service_ready(&mut st) {
                    return;
                }
                timeout = Some(Duration::ZERO);
            }
            let now = Instant::now();
            self.deliver_chaos(now);
            self.flush_all(&mut st, now);
            Self::flush_acks(&mut st, now);
            self.write_routes(&mut st);
            self.check_drained(&mut st, now);
        }
    }

    /// Rebuilds the poll set in place: waker, listener (thread 0), then
    /// every live connection — readable interest always, writable only
    /// while bytes are queued.
    fn build_pollfds(&self, st: &mut LoopState) {
        st.fds.clear();
        st.conn_ids.clear();
        st.fds.push(PollFd::new(self.wake_rx.fd(), POLL_IN));
        if let Some(l) = &self.listener {
            st.fds.push(PollFd::new(l.as_raw_fd(), POLL_IN));
        }
        for (ci, conn) in st.conns.iter().enumerate() {
            if let Some(c) = conn {
                let mut ev = POLL_IN;
                if !c.wbuf.is_empty() {
                    ev |= POLL_OUT;
                }
                st.fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
                st.conn_ids.push(ci);
            }
        }
    }

    /// Acts on one poll round's readiness; `true` means Stop.
    fn service_ready(&mut self, st: &mut LoopState) -> bool {
        if st.fds[0].readable() {
            // Disarm before draining, so a post that lands after the drain
            // re-arms (and re-signals) the waker.
            self.wake_rx.drain();
            if self.drain_cmds(st) {
                return true;
            }
            for k in 0..self.procs.len() {
                self.drain_mailbox(k);
            }
        }
        let has_listener = self.listener.is_some();
        if has_listener && st.fds[1].readable() {
            self.accept_all(st);
        }
        let base = 1 + usize::from(has_listener);
        for k in 0..st.conn_ids.len() {
            let (ci, fd) = (st.conn_ids[k], st.fds[base + k]);
            if fd.readable() {
                self.conn_readable(st, ci);
            }
            if fd.writable() && matches!(st.conns.get(ci), Some(Some(_))) {
                self.flush_conn(st, ci);
            }
        }
        false
    }

    /// The poll timeout: the earliest of any link's flush-hold deadline,
    /// the first chaos frame's delivery, any owed ack's deadline, the
    /// drain grace deadline, and any pending handshake's expiry. `None`
    /// (block forever) when nothing is scheduled — a waker nudge delivers
    /// whatever comes next.
    fn next_deadline(&self, st: &LoopState, now: Instant) -> Option<Duration> {
        let mut min: Option<Instant> = st.drain_deadline;
        let mut fold = |d: Instant| min = Some(min.map_or(d, |m| m.min(d)));
        if let Some(d) = self.in_flight.next_deadline() {
            fold(d);
        }
        for link in &self.links {
            if !link.abandoned {
                if let Some(d) = link.batcher.flush_deadline() {
                    fold(d);
                }
            }
        }
        for link in &st.recv_links {
            if let Some(since) = link.owed_since {
                fold(since + ACK_MAX_DELAY);
            }
        }
        for conn in st.conns.iter().flatten() {
            if let ConnKind::Handshake { since } = conn.kind {
                fold(since + HANDSHAKE_TIMEOUT);
            }
        }
        min.map(|d| d.saturating_duration_since(now))
    }

    /// Drops accepted connections that never completed their hello.
    fn sweep_stale_handshakes(st: &mut LoopState, now: Instant) {
        for slot in &mut st.conns {
            let stale = matches!(
                slot.as_ref().map(|c| c.kind),
                Some(ConnKind::Handshake { since }) if now.duration_since(since) >= HANDSHAKE_TIMEOUT
            );
            if stale {
                if let Some(conn) = slot.take() {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// Runs process `k`'s handler on `incoming`, right here: the envelopes
    /// it emits go straight into this loop's batchers (abandoned links
    /// account the message instead — it can never be delivered).
    fn run_handler(&mut self, k: usize, incoming: Incoming<A>) {
        let Reactor {
            procs,
            links,
            stats,
            ..
        } = self;
        let Hosted {
            core, out, retired, ..
        } = &mut procs[k];
        if *retired {
            return;
        }
        let now = Instant::now();
        let mut abandoned = 0u64;
        let flow = core.handle(incoming, |to, env| {
            let Some(li) = out[to.index()] else { return };
            let link = &mut links[li];
            if link.abandoned {
                abandoned += 1;
            } else {
                link.batcher.push(env, now);
            }
        });
        if abandoned > 0 {
            stats.lock().record_messages_abandoned(abandoned);
        }
        *retired = flow.is_break();
    }

    /// Handles everything process `k`'s mailbox holds.
    fn drain_mailbox(&mut self, k: usize) {
        while !self.procs[k].retired {
            match self.procs[k].mailbox.try_recv() {
                Ok(incoming) => self.run_handler(k, incoming),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return,
            }
        }
    }

    /// The send link `src → dst`, if this loop owns `src`.
    fn link_index(&self, src: ProcessId, dst: ProcessId) -> Option<usize> {
        let k = self.proc_slot.get(src.index()).copied().flatten()?;
        self.procs[k].out.get(dst.index()).copied().flatten()
    }

    /// Seals every due batch on every link: frame → seq → resend log →
    /// its route's write buffer (when connected).
    fn flush_all(&mut self, st: &mut LoopState, now: Instant) {
        for li in 0..self.links.len() {
            self.flush_link(st, li, now);
        }
    }

    fn flush_link(&mut self, st: &mut LoopState, li: usize, now: Instant) {
        let link = &mut self.links[li];
        if link.abandoned {
            return;
        }
        if let Carrier::Chaos(chaos) = &mut link.carrier {
            while let Some(f) = link.batcher.take_due(now, st.draining) {
                chaos.seal(li, f, self.tag_bits, &self.stats, &mut self.in_flight, now);
            }
            return;
        }
        while let Some(f) = link.batcher.take_due(now, st.draining) {
            let frame = Frame::from_envelopes(f.batch);
            let cost = frame.cost(self.tag_bits);
            let seq = link.next_seq;
            link.next_seq += 1;
            let depth = link.resend.len() + 1;
            // The peer is not acking (down longer than the buffer can
            // absorb): give the link up rather than grow unboundedly.
            let overflow = depth > self.resend_cap;
            let conn = match link.conn {
                Some(ci) if !overflow => st.conns.get_mut(ci).and_then(Option::as_mut),
                _ => None,
            };
            let LinkSpec { src, dst, .. } = link.spec;
            let blob = link.resend.seal(seq, &frame, conn.is_some());
            {
                // One lock per sealed frame.
                let mut stats = self.stats.lock();
                stats.record_frame(cost);
                stats.record_flush(f.reason, f.held.as_nanos().min(u128::from(u64::MAX)) as u64);
                stats.record_resend_buffer_depth(depth as u64);
                if let Some(conn) = conn {
                    Self::append_record(&mut stats, conn, LinkSeq { src, dst, seq }, blob);
                }
            }
            link.batcher.recycle(frame.into_vec());
            if overflow {
                self.abandon_link(li);
                return;
            }
        }
    }

    /// Hands every chaos frame whose delay has run out to its destination
    /// (see [`crate::link`]) — whole, or dropped whole when the
    /// destination has crashed or retired — and counts the deliveries and
    /// drops under one lock once the handlers have run.
    fn deliver_chaos(&mut self, now: Instant) {
        let (mut delivered, mut dropped) = (0u64, 0u64);
        while let Some((li, frame)) = self.in_flight.pop_due(now) {
            let LinkSpec { src, dst } = self.links[li].spec;
            let msgs = frame.len() as u64;
            let host = self.proc_slot[dst.index()];
            if self.crashed[dst.index()].load(Ordering::Relaxed)
                || host.is_some_and(|k| self.procs[k].retired)
            {
                dropped += msgs;
                self.links[li].batcher.recycle(frame.into_vec());
                continue;
            }
            delivered += msgs;
            let incoming = Incoming::Frame { from: src, frame };
            let Some(k) = host else {
                let owner = self.owners[dst.index()].expect("a chaos cluster hosts every process");
                if let Some(inbox) = &self.inboxes[dst.index()] {
                    if inbox.send(incoming).is_ok() {
                        self.wakers[owner].wake();
                    }
                }
                continue;
            };
            // Mailbox first, as for a frame read off a socket.
            self.drain_mailbox(k);
            self.run_handler(k, incoming);
            let storage = self.procs[k].core.take_frame_storage();
            self.links[li].batcher.recycle(storage);
        }
        if delivered + dropped > 0 {
            let mut stats = self.stats.lock();
            stats.record_deliveries(delivered);
            stats.record_frame_drop_to_crashed(dropped);
        }
    }

    /// Queues one record on a route and accounts its frame bytes (the
    /// link prefix is transport overhead, not counted).
    fn append_record(stats: &mut NetStats, conn: &mut Conn, link: LinkSeq, blob: &[u8]) {
        linkseq::encode_record(link, blob, &mut conn.wbuf.buf);
        stats.record_wire_bytes(blob.len() as u64);
    }

    /// Writes every connection with bytes queued — once per pass, however
    /// many records and acks it gathered.
    fn write_routes(&mut self, st: &mut LoopState) {
        for ci in 0..st.conns.len() {
            if st.conns[ci].as_ref().is_some_and(|c| !c.wbuf.is_empty()) {
                self.flush_conn(st, ci);
            }
        }
    }

    /// Writes a connection's queued bytes; a dead socket goes through the
    /// failure path (a re-dial for a route this loop dialed).
    fn flush_conn(&mut self, st: &mut LoopState, ci: usize) {
        let Some(conn) = st.conns.get_mut(ci).and_then(Option::as_mut) else {
            return;
        };
        let Conn { stream, wbuf, .. } = conn;
        if wbuf.write_to(stream).is_err() {
            self.close_conn(st, ci);
        }
    }

    /// Reads what the socket has into the connection's buffer; returns
    /// whether it reached EOF or an error (the caller decides what that
    /// means for the conn's kind). One `read(2)` per readiness unless it
    /// fills the buffer: a short read means the socket is empty for now,
    /// and level-triggered polling re-reports whatever lands later — EOF
    /// included, which still arrives as `Ok(0)`.
    fn read_some(st: &mut LoopState, ci: usize) -> bool {
        let Some(conn) = st.conns.get_mut(ci).and_then(Option::as_mut) else {
            return false;
        };
        loop {
            match conn.stream.read(&mut st.read_buf) {
                Ok(0) => return true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&st.read_buf[..n]);
                    if n < st.read_buf.len() {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    fn conn_readable(&mut self, st: &mut LoopState, ci: usize) {
        let Some(kind) = st.conns.get(ci).and_then(Option::as_ref).map(|c| c.kind) else {
            return;
        };
        let closed = Self::read_some(st, ci);
        match kind {
            ConnKind::Handshake { .. } => self.handshake_readable(st, ci, closed),
            ConnKind::Out => self.acks_readable(st, ci, closed),
            ConnKind::In => {
                self.deliver_buffered(st, ci);
                if closed {
                    // Clean hangup (or peer death): the links' cursors
                    // survive for the next connection.
                    self.close_conn(st, ci);
                }
            }
        }
    }

    /// A dialed route's inbound direction carries cumulative acks, each
    /// naming its link; EOF or error means the route died and must be
    /// re-dialed. An ack for a link this connection does not carry could
    /// not come from a correct peer and poisons the connection.
    fn acks_readable(&mut self, st: &mut LoopState, ci: usize, closed: bool) {
        let Some(conn) = st.conns.get_mut(ci).and_then(Option::as_mut) else {
            return;
        };
        let (mut off, mut poisoned) = (0, false);
        while let Ok(ack) = LinkSeq::decode(&conn.rbuf[off..]) {
            off += LINK_SEQ_LEN;
            match self.link_index(ack.src, ack.dst) {
                // A late ack for a link given up since: nothing to prune.
                Some(li) if self.links[li].abandoned => {}
                Some(li) if self.links[li].conn == Some(ci) => {
                    self.links[li].resend.prune(ack.seq);
                }
                _ => {
                    poisoned = true;
                    break;
                }
            }
        }
        conn.rbuf.drain(..off);
        if poisoned {
            self.stats.lock().record_link_abandoned();
        }
        if poisoned || closed {
            self.close_conn(st, ci);
        }
    }

    /// Accepts everything the listener has queued; each new socket starts
    /// in the handshake state until its [`RouteHello`] arrives.
    fn accept_all(&mut self, st: &mut LoopState) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let since = Instant::now();
            alloc_conn(
                &mut st.conns,
                Conn::new(stream, ConnKind::Handshake { since }),
            );
        }
    }

    /// Waits for a whole hello, then hands the connection to the loop that
    /// owns the first destination it names.
    fn handshake_readable(&mut self, st: &mut LoopState, ci: usize, closed: bool) {
        let Some(slot) = st.conns.get_mut(ci) else {
            return;
        };
        let Some(conn) = slot.as_mut() else { return };
        let (hello, carry) = match RouteHello::decode(&conn.rbuf) {
            Ok((hello, used)) => (hello, conn.rbuf.split_off(used)),
            Err(WireError::Truncated) if !closed => return,
            Err(WireError::Truncated) => {
                self.close_conn(st, ci);
                return;
            }
            Err(_) => {
                // Garbage where a hello should be: no link to charge it to,
                // but accounted so a poisoned setup is visible.
                self.stats.lock().record_link_abandoned();
                self.close_conn(st, ci);
                return;
            }
        };
        let stream = slot.take().expect("checked above").stream;
        let owner = hello
            .dsts
            .first()
            .and_then(|dst| self.owners.get(dst.index()).copied().flatten());
        match owner {
            // A hello for a process that does not live here: config skew
            // between nodes. Visible, not silent.
            None => {
                self.stats.lock().record_link_abandoned();
                let _ = stream.shutdown(Shutdown::Both);
            }
            Some(owner) if owner == self.slot => self.adopt_route(st, hello, stream, carry),
            Some(owner) => {
                let adopt = Cmd::AdoptRoute {
                    hello,
                    stream,
                    carry,
                };
                if self.cmd_txs[owner].send(adopt).is_ok() {
                    self.wakers[owner].wake();
                }
            }
        }
    }

    /// Takes ownership of a handshaken route: attaches every named src's
    /// link toward every named dst this loop owns (a newer connection
    /// supersedes the one a link was on, which is closed), answers with
    /// each link's resume point, then treats `carry` as the first read.
    fn adopt_route(
        &mut self,
        st: &mut LoopState,
        hello: RouteHello,
        stream: TcpStream,
        carry: Vec<u8>,
    ) {
        let mut conn = Conn::new(stream, ConnKind::In);
        conn.rbuf = carry;
        let ci = alloc_conn(&mut st.conns, conn);
        let n = self.proc_slot.len();
        let mut welcome = RouteWelcome::default();
        let mut replaced = Vec::new();
        for &dst in &hello.dsts {
            let Some(host) = self.proc_slot.get(dst.index()).copied().flatten() else {
                continue;
            };
            for &src in hello.srcs.iter().filter(|&&s| s != dst && s.index() < n) {
                let ri = *st.recv_index.entry((src, dst)).or_insert_with(|| {
                    st.recv_links.push(RecvLink {
                        src,
                        dst,
                        host,
                        delivered: 0,
                        acked: 0,
                        owed_since: None,
                        conn: None,
                    });
                    st.recv_links.len() - 1
                });
                let link = &mut st.recv_links[ri];
                replaced.extend(link.conn.replace(ci));
                // The welcome is an ack too: the sender prunes up to the cursor.
                link.acked = link.delivered;
                link.owed_since = None;
                welcome.links.push(LinkSeq {
                    src,
                    dst,
                    seq: link.delivered,
                });
            }
        }
        if let Some(conn) = st.conns[ci].as_mut() {
            conn.wbuf.buf.extend_from_slice(&welcome.encode());
        }
        for old in replaced {
            self.close_conn(st, old);
        }
        self.deliver_buffered(st, ci);
    }

    /// Slices buffered records, checks each names a link this connection
    /// carries, and dedups it against that link's cursor; each fresh frame
    /// is decoded and handled by its destination right here, and counted
    /// delivered once the handler has run — so whenever the books balance,
    /// every send a delivered frame caused is in them. Acks wait for
    /// [`Reactor::flush_acks`], except after a replay.
    fn deliver_buffered(&mut self, st: &mut LoopState, ci: usize) {
        let (mut off, mut delivered, mut dropped, mut deduped) = (0usize, 0u64, 0u64, 0u64);
        let mut poisoned = false;
        loop {
            let Some(conn) = st.conns.get_mut(ci).and_then(Option::as_mut) else {
                return;
            };
            let (head, blob) = match linkseq::split_record(&conn.rbuf[off..]) {
                Ok(Some((head, total))) => {
                    let blob = &conn.rbuf[off + LINK_SEQ_LEN..off + total];
                    off += total;
                    (head, blob)
                }
                Ok(None) => {
                    conn.rbuf.drain(..off);
                    break;
                }
                Err(_) => {
                    poisoned = true;
                    break;
                }
            };
            // A record for a link this connection does not carry could not
            // come from a correct peer.
            let Some(&ri) = st.recv_index.get(&(head.src, head.dst)) else {
                poisoned = true;
                break;
            };
            let link = &mut st.recv_links[ri];
            if link.conn != Some(ci) {
                poisoned = true;
                break;
            }
            if head.seq <= link.delivered {
                // A replayed frame this side already consumed: the whole
                // point of the cursor — ack again, deliver never.
                deduped += 1;
                link.owed_since.get_or_insert_with(Instant::now);
                continue;
            }
            // Decoded where it landed, into the envelope vector the
            // destination's last frame left behind: the record is never
            // copied out of the connection's buffer, and a frame allocates
            // nothing (byte-string payloads are copied to exactly their own
            // size rather than pinning the read they arrived in). A corrupt
            // frame from a byzantine-free peer poisons the route.
            let host = link.host;
            let storage = self.procs[host].core.take_frame_storage();
            let Ok(frame) = Frame::<A::Msg>::decode_into(blob, storage) else {
                poisoned = true;
                break;
            };
            link.delivered = head.seq;
            link.owed_since.get_or_insert_with(Instant::now);
            let msgs = frame.len() as u64;
            // Mailbox first, so a message posted before the frame arrived
            // is handled before it, as when both shared one inbox.
            self.drain_mailbox(host);
            if self.crashed[head.dst.index()].load(Ordering::Relaxed) || self.procs[host].retired {
                dropped += msgs;
            } else {
                self.run_handler(
                    host,
                    Incoming::Frame {
                        from: head.src,
                        frame,
                    },
                );
                delivered += msgs;
            }
        }
        if delivered + dropped + deduped > 0 || poisoned {
            let mut stats = self.stats.lock();
            stats.record_deliveries(delivered);
            stats.record_frame_drop_to_crashed(dropped);
            for _ in 0..deduped {
                stats.record_frame_deduped();
            }
            if poisoned {
                stats.record_link_abandoned();
            }
        }
        if poisoned {
            self.close_conn(st, ci);
        } else if deduped > 0 {
            Self::ack_route(st, ci);
        }
    }

    /// Queues the cumulative acks that are due: [`ACK_EVERY_FRAMES`] owed
    /// on a link, its oldest owed frame [`ACK_MAX_DELAY`] old, or — while
    /// draining, when the senders are waiting for exactly this — anything
    /// owed. A due ack takes every owed ack on its route along: they share
    /// the route's one write.
    fn flush_acks(st: &mut LoopState, now: Instant) {
        for ri in 0..st.recv_links.len() {
            let link = &st.recv_links[ri];
            let (Some(since), Some(ci)) = (link.owed_since, link.conn) else {
                continue;
            };
            if st.draining
                || link.delivered - link.acked >= ACK_EVERY_FRAMES
                || now >= since + ACK_MAX_DELAY
            {
                Self::ack_route(st, ci);
            }
        }
    }

    /// Queues an ack for every link on route `ci` that owes one.
    fn ack_route(st: &mut LoopState, ci: usize) {
        let Some(conn) = st.conns.get_mut(ci).and_then(Option::as_mut) else {
            return;
        };
        for link in &mut st.recv_links {
            if link.conn == Some(ci) && link.owed_since.take().is_some() {
                let ack = LinkSeq {
                    src: link.src,
                    dst: link.dst,
                    seq: link.delivered,
                };
                ack.encode_into(&mut conn.wbuf.buf);
                link.acked = link.delivered;
            }
        }
    }

    /// Closes and forgets a connection. The links it carried lose their
    /// carrier: a receiving loop waits for the peer's re-dial, a sending
    /// loop re-dials.
    fn close_conn(&mut self, st: &mut LoopState, ci: usize) {
        let Some(conn) = st.conns.get_mut(ci).and_then(Option::take) else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Both);
        match conn.kind {
            ConnKind::Handshake { .. } => {}
            ConnKind::In => {
                for link in st.recv_links.iter_mut().filter(|l| l.conn == Some(ci)) {
                    link.conn = None;
                    link.owed_since = None;
                }
            }
            ConnKind::Out => {
                for link in self.links.iter_mut().filter(|l| l.conn == Some(ci)) {
                    link.conn = None;
                }
                self.dial_uncovered();
            }
        }
    }

    /// Dials every address that has live links without a carrier and no
    /// dial in flight: one hello per address names this loop's processes
    /// and every such destination there.
    fn dial_uncovered(&mut self) {
        let mut srcs: Vec<ProcessId> = self.procs.iter().map(|h| h.core.id()).collect();
        srcs.sort_unstable();
        while let Some(addr) = self.links.iter().find_map(SendLink::needs_dial) {
            let mut dsts = Vec::new();
            for link in &mut self.links {
                if link.needs_dial() == Some(addr) {
                    link.dialing = true;
                    dsts.push(link.spec.dst);
                }
            }
            dsts.sort_unstable();
            dsts.dedup();
            let req = DialReq {
                thread: self.slot,
                hello: RouteHello {
                    srcs: srcs.clone(),
                    dsts,
                },
                addr,
                attempt: 0,
                not_before: Instant::now(),
            };
            // A failed send means the dialer is gone (tear-down racing a
            // failure): these links cannot recover, and stay marked so
            // they are not asked for again.
            if self.dial_tx.send(req).is_err() {
                return;
            }
        }
    }

    /// The dialer's verdict on the route dial for `hello`.
    fn dial_done(
        &mut self,
        st: &mut LoopState,
        hello: &RouteHello,
        result: Option<(TcpStream, RouteWelcome)>,
    ) {
        let named = |l: &SendLink<A::Msg>| hello.dsts.binary_search(&l.spec.dst).is_ok();
        for link in self.links.iter_mut().filter(|l| named(l)) {
            link.dialing = false;
        }
        let Some((stream, welcome)) = result else {
            // The budget ran out: every link the route was to carry is
            // given up.
            for li in 0..self.links.len() {
                if self.links[li].conn.is_none() && named(&self.links[li]) {
                    self.abandon_link(li);
                }
            }
            return;
        };
        let ci = alloc_conn(&mut st.conns, Conn::new(stream, ConnKind::Out));
        let conn = st.conns[ci].as_mut().expect("just registered");
        let mut replaced = Vec::new();
        {
            let mut stats = self.stats.lock();
            let mut resent = 0u64;
            for resume in &welcome.links {
                let Some(li) = self.link_index(resume.src, resume.dst) else {
                    continue;
                };
                let link = &mut self.links[li];
                if link.abandoned {
                    continue;
                }
                replaced.extend(link.conn.replace(ci));
                if link.ever_connected {
                    stats.record_reconnect();
                }
                link.ever_connected = true;
                // The peer consumed up to the cursor: those frames are
                // settled even if their acks died with the old socket, or
                // were never sent.
                link.resend.prune(resume.seq);
                let LinkSpec { src, dst, .. } = link.spec;
                for (s, blob) in link.resend.unacked() {
                    resent += u64::from(s.transmitted);
                    s.transmitted = true;
                    let seq = s.seq;
                    Self::append_record(&mut stats, conn, LinkSeq { src, dst, seq }, blob);
                }
            }
            if resent > 0 {
                stats.record_frames_resent(resent);
            }
        }
        for old in replaced {
            self.close_conn(st, old);
        }
        self.dial_uncovered();
    }

    /// Gives up on one link: everything sealed-but-unsettled and
    /// everything still pending is accounted as abandoned (the signal that
    /// teardown reconciliation may not balance — an un-acked frame might or
    /// might not have been consumed remotely). The route it was on keeps
    /// carrying the other links.
    fn abandon_link(&mut self, li: usize) {
        let link = &mut self.links[li];
        if link.abandoned {
            return;
        }
        link.abandoned = true;
        link.conn = None;
        let msgs = link.resend.clear() + link.batcher.drain_remaining().len() as u64;
        let mut stats = self.stats.lock();
        stats.record_link_abandoned();
        stats.record_messages_abandoned(msgs);
    }

    /// Handles queued control messages; `true` means Stop.
    fn drain_cmds(&mut self, st: &mut LoopState) -> bool {
        loop {
            match self.cmd_rx.try_recv() {
                Ok(Cmd::AdoptRoute {
                    hello,
                    stream,
                    carry,
                }) => self.adopt_route(st, hello, stream, carry),
                Ok(Cmd::DialDone { hello, result }) => self.dial_done(st, &hello, result),
                Ok(Cmd::Sever) => {
                    for conn in st.conns.iter().flatten() {
                        if !matches!(conn.kind, ConnKind::Handshake { .. }) {
                            // Just kill the socket; the event loop notices
                            // the EOF and runs the normal failure path.
                            let _ = conn.stream.shutdown(Shutdown::Both);
                        }
                    }
                }
                Ok(Cmd::Drain) => {
                    // Whatever was posted before the drain request is still
                    // handled; after it no handler runs, so nothing is
                    // emitted once the links report drained.
                    for k in 0..self.procs.len() {
                        self.drain_mailbox(k);
                        self.procs[k].retired = true;
                    }
                    st.draining = true;
                    if st.drain_deadline.is_none() {
                        st.drain_deadline = Some(Instant::now() + self.drain_grace);
                    }
                }
                Ok(Cmd::Stop) => return true,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// During a drain: signal `done_tx` once every owned link has settled
    /// (resend empty, nothing pending, no chaos frame in flight, all route
    /// write buffers flushed). Past the grace deadline, force-abandon
    /// what's left and signal anyway — a peer that will never ack must not
    /// hang teardown.
    fn check_drained(&mut self, st: &mut LoopState, now: Instant) {
        if !st.draining || st.done_sent {
            return;
        }
        let expired = st.drain_deadline.is_some_and(|d| now >= d);
        if expired {
            for li in 0..self.links.len() {
                if !self.links[li].drained() {
                    self.abandon_link(li);
                }
            }
            let msgs = self.in_flight.clear();
            if msgs > 0 {
                self.stats.lock().record_messages_abandoned(msgs);
            }
        }
        let links_done = self.in_flight.is_empty() && self.links.iter().all(SendLink::drained);
        let writes_done = st
            .conns
            .iter()
            .flatten()
            .all(|c| c.wbuf.is_empty() || !matches!(c.kind, ConnKind::Out));
        if expired || (links_done && writes_done) {
            st.done_sent = true;
            // Stop treating the grace deadline as a poll deadline — the
            // loop keeps serving acks until Stop, parked on the waker.
            st.drain_deadline = None;
            let _ = self.done_tx.send(self.slot);
        }
    }
}

/// Registers a connection in the first free slab slot.
fn alloc_conn(conns: &mut Vec<Option<Conn>>, conn: Conn) -> usize {
    if let Some(ci) = conns.iter().position(Option::is_none) {
        conns[ci] = Some(conn);
        ci
    } else {
        conns.push(Some(conn));
        conns.len() - 1
    }
}

/// The node's single dialer thread: every blocking connect/handshake in
/// one place, so reactor threads never block on `connect(2)`. Requests
/// carry their own backoff schedule; a failed attempt is re-queued with
/// exponential backoff until the policy's budget runs out, at which point
/// the owning reactor gets a `DialDone { result: None }` and abandons the
/// route's links. Serializing dials also keeps any one listener's accept
/// backlog shallow while the routes form.
pub(crate) fn dialer_loop(
    dial_rx: &Receiver<DialReq>,
    cmd_txs: &[Sender<Cmd>],
    wakers: &[Arc<Waker>],
    policy: ReconnectPolicy,
) {
    let mut queue: Vec<DialReq> = Vec::new();
    let reply = |thread: usize, cmd: Cmd| {
        if cmd_txs[thread].send(cmd).is_ok() {
            wakers[thread].wake();
        }
    };
    loop {
        let now = Instant::now();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].not_before > now {
                i += 1;
                continue;
            }
            let req = queue.swap_remove(i);
            match try_dial(&req, &policy) {
                Ok(done) => reply(
                    req.thread,
                    Cmd::DialDone {
                        hello: req.hello,
                        result: Some(done),
                    },
                ),
                Err(_) => {
                    let attempt = req.attempt + 1;
                    if attempt >= policy.max_attempts {
                        reply(
                            req.thread,
                            Cmd::DialDone {
                                hello: req.hello,
                                result: None,
                            },
                        );
                    } else {
                        queue.push(DialReq {
                            attempt,
                            not_before: Instant::now() + backoff_for(&policy, attempt),
                            ..req
                        });
                    }
                }
            }
        }
        let next_due = queue.iter().map(|r| r.not_before).min();
        match next_due {
            Some(t) => {
                let wait = t.saturating_duration_since(Instant::now());
                match dial_rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                    Ok(req) => queue.push(req),
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every reactor (and the node) hung up: tear-down.
                    // Pending retries die with us — their reactors are
                    // gone too, so nobody is waiting on a verdict.
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match dial_rx.recv() {
                Ok(req) => queue.push(req),
                Err(_) => return,
            },
        }
    }
}

/// One blocking dial + handshake round trip. A welcome that does not
/// answer the hello, or anything sent after it before a record could have
/// arrived, fails the attempt.
fn try_dial(req: &DialReq, policy: &ReconnectPolicy) -> io::Result<(TcpStream, RouteWelcome)> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "bad route welcome");
    let mut stream = TcpStream::connect_timeout(&req.addr, policy.dial_timeout)?;
    stream.set_nodelay(true)?;
    stream.write_all(&req.hello.encode())?;
    stream.set_read_timeout(Some(policy.handshake_timeout))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let welcome = loop {
        match RouteWelcome::decode(&buf) {
            Ok((welcome, used)) if used == buf.len() && welcome.answers(&req.hello) => {
                break welcome
            }
            Err(WireError::Truncated) => {}
            _ => return Err(bad()),
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    stream.set_read_timeout(None)?;
    stream.set_nonblocking(true)?;
    Ok((stream, welcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_caps() {
        let p = ReconnectPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            ..ReconnectPolicy::default()
        };
        assert_eq!(backoff_for(&p, 1), Duration::from_millis(1));
        assert_eq!(backoff_for(&p, 2), Duration::from_millis(2));
        assert_eq!(backoff_for(&p, 4), Duration::from_millis(8));
        assert_eq!(backoff_for(&p, 30), Duration::from_millis(100), "capped");
    }

    #[test]
    fn the_resend_log_prunes_from_the_front_and_replays_the_rest() {
        use twobit_core::TwoBitMsg;
        use twobit_proto::RegisterId;
        // A frame of `k` messages, and the blob `Frame::encode` makes of it.
        let frame = |k: u64| {
            Frame::from_envelopes(
                (0..k).map(|r| Envelope::new(RegisterId::new(r as usize), TwoBitMsg::<u64>::Read)),
            )
        };
        let blob = |k: u64| frame(k).encode().unwrap().to_vec();
        let mut log = ResendLog::default();
        for seq in 1..=4 {
            assert_eq!(log.seal(seq, &frame(seq), true), blob(seq));
        }
        log.prune(2);
        let replay: Vec<(u64, Vec<u8>)> = log.unacked().map(|(s, b)| (s.seq, b.to_vec())).collect();
        assert_eq!(replay, [(3, blob(3)), (4, blob(4))]);
        assert_eq!(
            log.bytes.len(),
            blob(3).len() + blob(4).len(),
            "compacted in place: only unacked bytes are kept"
        );
        // A frame sealed after a prune lands behind the survivors.
        log.seal(5, &frame(1), false);
        log.prune(4);
        let (sealed, bytes) = log.unacked().next().unwrap();
        assert_eq!((sealed.seq, sealed.transmitted), (5, false));
        assert_eq!(bytes, blob(1));
        log.prune(5);
        assert!(log.is_empty() && log.bytes.is_empty() && log.head == 0);
        log.seal(6, &frame(2), true);
        assert_eq!(log.clear(), 2, "clearing reports the messages it drops");
    }

    #[test]
    fn write_buf_survives_partial_writes_and_compacts() {
        // A socket pair whose reader never reads: writes eventually
        // WouldBlock, and the buffer keeps the unwritten tail.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        tx.set_nonblocking(true).unwrap();
        let (_rx, _) = listener.accept().unwrap();
        let mut tx = tx;
        let mut wbuf = WriteBuf::default();
        let chunk = vec![0xAB; 1 << 16];
        let mut queued = 0usize;
        for _ in 0..256 {
            wbuf.buf.extend_from_slice(&chunk);
            queued += chunk.len();
            wbuf.write_to(&mut tx).unwrap();
            if !wbuf.is_empty() {
                break; // the kernel buffer filled up — the case under test
            }
            queued = 0;
        }
        assert!(!wbuf.is_empty(), "socket buffers are not 16 MiB deep");
        assert!(wbuf.buf.len() - wbuf.pos <= queued);
        // Drain the peer and the remainder flushes cleanly.
        let mut rx = _rx;
        rx.set_nonblocking(true).unwrap();
        let mut sink = [0u8; 1 << 16];
        for _ in 0..10_000 {
            while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
            wbuf.write_to(&mut tx).unwrap();
            if wbuf.is_empty() {
                break;
            }
        }
        assert!(wbuf.is_empty(), "the tail flushed once the peer drained");
        assert_eq!(wbuf.pos, 0, "compacted after a full flush");
    }
}
