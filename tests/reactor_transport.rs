//! Integration tests for the reactor transport: flat thread and socket
//! counts under many links, reconnect-and-resend accounting, the two-node
//! listen/join deployment path, and the failure paths of a real socket —
//! hostile bytes, one link's fate inside a shared route, and a peer that
//! never comes back.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twobit::core::TwoBitMsg;
use twobit::lincheck::{check_swmr, check_swmr_sharded};
use twobit::proto::linkseq::{
    self, LinkSeq, RouteHello, RouteWelcome, LINK_SEQ_LEN, WELCOME_HEADER_LEN,
};
use twobit::proto::{WireError, MAX_FRAME_BODY_BYTES};
use twobit::{
    Driver, DriverError, Envelope, FlushPolicy, FlushReason, Frame, Lifecycle, ProcessId,
    ReactorClusterBuilder, ReactorNode, ReactorNodeBuilder, ReconnectPolicy, RegisterId,
    SystemConfig, TwoBitProcess,
};

/// How many OS threads this process currently runs (from
/// `/proc/self/status`); `None` off-Linux.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Satellite: the reactor's reason to exist. 16 processes × 64 shards is
/// 240 ordered links; a thread pair per link would burn 480 socket
/// threads plus 16 process threads, the reactor runs `pool + dialer`
/// regardless — handlers run on the loops that own their links.
#[test]
fn thread_count_is_flat_in_the_link_count() {
    let cfg = SystemConfig::max_resilience(16);
    let writer = ProcessId::new(0);
    let before = os_thread_count();
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(4)
        .registers(64)
        .build_sharded(0u64, |_reg, id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");
    assert_eq!(
        node.thread_count(),
        4 + 1,
        "min(pool, hosted) + dialer: not O(links), not O(processes)"
    );
    if let (Some(b), Some(a)) = (before, os_thread_count()) {
        // Real OS accounting, with slack for unrelated test-harness
        // threads (sibling tests start their own nodes meanwhile): far
        // under the 480 threads a thread pair per link would need.
        assert!(
            a.saturating_sub(b) < 60,
            "spawned {} threads for 240 links",
            a.saturating_sub(b)
        );
    }
    // The mesh actually works: traffic on a high shard and a low one.
    node.write(writer, RegisterId::ZERO, 1).unwrap();
    node.write(writer, RegisterId::new(63), 2).unwrap();
    assert_eq!(node.read(ProcessId::new(9), RegisterId::ZERO).unwrap(), 1);
    assert_eq!(
        node.read(ProcessId::new(15), RegisterId::new(63)).unwrap(),
        2
    );
    let (history, stats) = node.shutdown();
    check_swmr_sharded(&history).unwrap();
    assert_eq!(stats.links_abandoned(), 0);
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "flat-thread run reconciles exactly"
    );
}

/// How many file descriptors this process holds open (from
/// `/proc/self/fd`); `None` off-Linux.
fn os_fd_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// Satellite: sockets are per route, not per link. An all-local node at
/// `pool_size(4)` carries its n(n−1) links on 4 × 4 route connections (two
/// descriptors each, both ends being here) beside its listener and wakers,
/// for n = 16 (240 links) as for n = 64 (4032); a socket per link would
/// hold 2·n(n−1) descriptors: 480 and 8064.
#[test]
fn sockets_are_flat_in_the_link_count() {
    for n in [16, 64] {
        let cfg = SystemConfig::max_resilience(n);
        let writer = ProcessId::new(0);
        let before = os_fd_count();
        let mut node = ReactorClusterBuilder::new(cfg)
            .pool_size(4)
            .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
            .expect("reactor cluster starts");
        // A read at every process sends on every link, so once the books
        // balance every route the node will ever need is up.
        for p in 0..n {
            assert_eq!(node.read(ProcessId::new(p), RegisterId::ZERO).unwrap(), 0);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = node.stats();
            if stats.total_delivered() == stats.total_sent() {
                break;
            }
            assert!(Instant::now() < deadline, "n={n}: never quiesced");
            std::thread::sleep(Duration::from_millis(1));
        }
        if let (Some(b), Some(a)) = (before, os_fd_count()) {
            // Slack for sibling tests starting their own nodes meanwhile.
            let added = a.saturating_sub(b);
            assert!(added < 150, "{added} descriptors for {} links", n * (n - 1));
        }
        let (history, stats) = node.shutdown();
        check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
        assert_eq!(stats.links_abandoned(), 0);
        assert_eq!(stats.reconnects(), 0);
    }
}

/// Tentpole acceptance: 64 processes × 64 shards — 4032 ordered links —
/// on one box, still `pool + dialer` threads, still atomic.
#[test]
fn sixty_four_procs_sixty_four_shards_on_one_box() {
    let cfg = SystemConfig::max_resilience(64);
    let writer = ProcessId::new(0);
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(4)
        .registers(64)
        // The first operation waits for the routes to form (16 dials
        // through one serializing dialer); a slow box gets ample time.
        .op_timeout(Duration::from_secs(120))
        .drain_grace(Duration::from_secs(10))
        .build_sharded(0u64, |_reg, id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("64-process reactor cluster starts");
    assert_eq!(node.thread_count(), 4 + 1);
    node.write(writer, RegisterId::ZERO, 7).unwrap();
    assert_eq!(node.read(ProcessId::new(63), RegisterId::ZERO).unwrap(), 7);
    let (history, stats) = node.shutdown();
    check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
    assert_eq!(stats.links_abandoned(), 0, "every link drained cleanly");
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "4032-link run reconciles exactly"
    );
}

/// Satellite: reconnect accounting. Sever every live socket mid-workload
/// (a *transient* failure — contrast `Driver::crash`): links must
/// recover via redial + resend, no operation may observe a duplicate
/// delivery, and the books must still balance exactly with
/// `reconnects >= 1`.
#[test]
fn severed_links_reconnect_without_double_delivery() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let reg = RegisterId::ZERO;
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(2)
        // Small frames: plenty of distinct sequence numbers in flight.
        .flush_policy(FlushPolicy::immediate())
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");

    for round in 1..=30u64 {
        if round % 5 == 0 {
            // Kill every established socket while the next write's frames
            // race the failure notice.
            node.sever_links();
        }
        node.write(writer, reg, round).unwrap();
        let got = node
            .read(ProcessId::new((round % 2 + 1) as usize), reg)
            .unwrap();
        assert_eq!(got, round, "round {round} read the freshest write");
    }

    let (history, stats) = node.shutdown();
    let verdict = check_swmr(history.shard(reg).unwrap()).unwrap();
    assert_eq!(verdict.writes, 30, "every write completed exactly once");
    assert_eq!(verdict.reads_checked, 30);
    assert!(
        stats.reconnects() >= 1,
        "severed links recovered by reconnecting (got {})",
        stats.reconnects()
    );
    assert_eq!(
        stats.links_abandoned(),
        0,
        "transient failures recover; they do not abandon links"
    );
    assert!(
        stats.resend_buffer_high_water() >= 1,
        "sealed frames pass through the resend buffer"
    );
    // The tentpole invariant: resend epochs are counted exactly once —
    // replayed frames never double-count deliveries, deduped frames are
    // never delivered.
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "delivered + dropped + abandoned == sent across {} reconnects \
         ({} frames resent, {} deduped)",
        stats.reconnects(),
        stats.frames_resent(),
        stats.frames_deduped(),
    );
}

/// Tentpole: the cross-host deployment shape. Two nodes in one test
/// process, each hosting part of the configuration, wired by exchanging
/// bound addresses (port 0) exactly as two separate machines would.
#[test]
fn two_nodes_listen_join_and_interoperate() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let make = move |_reg: RegisterId, id: ProcessId| TwoBitProcess::new(id, cfg, writer, 0u64);

    // Bind both halves first — addresses must exist before either joins.
    let left = ReactorNodeBuilder::new(cfg)
        .host([0usize])
        .pool_size(1)
        .listen("127.0.0.1:0")
        .expect("left binds");
    let right = ReactorNodeBuilder::new(cfg)
        .host([1usize, 2])
        .pool_size(2)
        .listen("127.0.0.1:0")
        .expect("right binds");
    let left_addr = left.local_addr();
    let right_addr = right.local_addr();
    assert_ne!(left_addr.port(), 0, "the OS-assigned port is surfaced");
    assert_ne!(right_addr.port(), 0);

    let mut left = left
        .join(
            &HashMap::from([(p1, right_addr), (p2, right_addr)]),
            0u64,
            make,
        )
        .expect("left joins");
    let mut right = right
        .join(&HashMap::from([(writer, left_addr)]), 0u64, make)
        .expect("right joins");
    assert_eq!(left.thread_count(), 1 + 1, "one loop for one process");
    assert_eq!(right.thread_count(), 2 + 1);

    // Each process is driven through the node hosting it. A write needs a
    // majority (2 of 3), so completing one proves the cross-node links.
    for v in 1..=10u64 {
        left.write(writer, RegisterId::ZERO, v).unwrap();
        assert_eq!(right.read(p1, RegisterId::ZERO).unwrap(), v);
        assert_eq!(right.read(p2, RegisterId::ZERO).unwrap(), v);
    }

    // Quiesce (trailing acks settle), then shut down left first — the
    // realistic order where a peer disappears while the other drains.
    std::thread::sleep(Duration::from_millis(200));
    let (left_hist, left_stats) = left.shutdown();
    let (right_hist, right_stats) = right.shutdown();

    // Each node records the operations of *its* processes; together they
    // cover the workload.
    assert_eq!(left_hist.total_ops(), 10, "left: the writes");
    assert_eq!(right_hist.total_ops(), 20, "right: the reads");
    assert_eq!(left_stats.links_abandoned(), 0);
    assert_eq!(right_stats.links_abandoned(), 0);

    // Per-node books cannot balance (each node's sends are delivered on
    // the other), but the *deployment-wide* ledger must: every message
    // sent anywhere was delivered somewhere.
    let sent = left_stats.total_sent() + right_stats.total_sent();
    let delivered = left_stats.total_delivered() + right_stats.total_delivered();
    let dropped = left_stats.dropped_to_crashed() + right_stats.dropped_to_crashed();
    let abandoned = left_stats.messages_abandoned() + right_stats.messages_abandoned();
    assert_eq!(
        delivered + dropped + abandoned,
        sent,
        "summed across nodes: delivered + dropped + abandoned == sent"
    );
    assert!(left_stats.wire_bytes() > 0 && right_stats.wire_bytes() > 0);
}

/// `crash` stays `crash` on the reactor backend: a crashed process stops
/// answering (its frames are dropped, counted), distinct from the
/// transient sever-and-reconnect path.
#[test]
fn crash_semantics_are_preserved_alongside_reconnect() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(2)
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");
    node.write(writer, RegisterId::ZERO, 1).unwrap();
    node.crash(ProcessId::new(2)).unwrap();
    // A majority (p0, p1) survives: the register stays live.
    node.write(writer, RegisterId::ZERO, 2).unwrap();
    assert_eq!(node.read(ProcessId::new(1), RegisterId::ZERO).unwrap(), 2);
    let (history, stats) = node.shutdown();
    check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
    assert!(
        stats.dropped_to_crashed() > 0,
        "frames to the crashed process are dropped, not retried"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
    );
}

/// Satellite: the full fault gauntlet on one backend — a process crashes,
/// rejoins through the snapshot path, and crashes *again*, interleaved
/// with socket severs (transient failures the reconnect layer absorbs).
/// Crash, reconnect, and recover are three different events and the
/// accounting must keep them apart: resends never double-count, stale
/// fences are booked separately from crash drops, and the per-incarnation
/// ledgers sum exactly to `delivered + dropped + stale + abandoned ==
/// sent`.
#[test]
fn crash_recover_crash_interleaved_with_severs_reconciles() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let victim = ProcessId::new(2);
    let reg = RegisterId::ZERO;
    let mut node = ReactorClusterBuilder::new(cfg)
        // A loop per process: every link crosses loops, whatever the host.
        .pool_size(3)
        .flush_policy(FlushPolicy::immediate())
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");

    for round in 1..=24u64 {
        match round {
            4 | 14 | 20 => node.sever_links(),
            8 => node.crash(victim).unwrap(),
            12 => {
                node.recover(victim).unwrap();
                // The rejoined process serves through the protocol again.
                assert_eq!(node.read(victim, reg).unwrap(), 11);
            }
            16 => node.crash(victim).unwrap(),
            _ => {}
        }
        node.write(writer, reg, round).unwrap();
        assert_eq!(node.read(ProcessId::new(1), reg).unwrap(), round);
    }

    let (history, stats) = node.shutdown();
    let shard = history.shard(reg).unwrap();
    let verdict = check_swmr(shard).unwrap();
    assert_eq!(verdict.writes, 24, "every write completed exactly once");
    assert_eq!(
        shard.recoveries.len(),
        1,
        "one completed rejoin on the record"
    );
    assert_eq!(shard.recoveries[0].proc, victim);
    assert_eq!(shard.recoveries[0].incarnation, 1);

    assert!(stats.reconnects() >= 1, "severs forced redials");
    assert_eq!(stats.recoveries(), 1);
    assert!(
        stats.snapshot_frames() >= 1,
        "the rejoin shipped a snapshot"
    );
    assert!(
        stats.dropped_to_crashed() > 0,
        "traffic to the crashed process was dropped"
    );
    assert_eq!(
        stats.total_delivered()
            + stats.dropped_to_crashed()
            + stats.dropped_stale()
            + stats.messages_abandoned(),
        stats.total_sent(),
        "delivered + dropped + stale + abandoned == sent"
    );
    // Per-incarnation ledgers: epoch 0 (initial) and epoch 1 (post-rejoin)
    // partition the same totals.
    let ledgers = stats.incarnation_ledgers();
    assert_eq!(ledgers.len(), 2, "one ledger per incarnation epoch");
    assert_eq!(
        ledgers.iter().map(|l| l.sent).sum::<u64>(),
        stats.total_sent()
    );
    assert_eq!(
        ledgers.iter().map(|l| l.delivered).sum::<u64>(),
        stats.total_delivered()
    );
    assert!(
        ledgers[1].sent > 0,
        "the post-rejoin epoch carried real traffic"
    );
}

/// Satellite: cumulative acks must not strand a quiet link. Every link of
/// this run carries far fewer than the 32 frames that force an ack, then
/// falls silent — so each sender's resend buffer empties only because the
/// receivers also ack on a timer and on every pass of the drain. Were
/// they not to, `shutdown()` would sit out the whole drain grace and
/// write the un-acked frames off as abandoned.
#[test]
fn short_burst_then_silence_drains_with_nothing_abandoned() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let grace = Duration::from_secs(6);
    let mut node = ReactorClusterBuilder::new(cfg)
        // A loop per process: every ack crosses loops, whatever the host.
        .pool_size(3)
        .flush_policy(FlushPolicy::immediate())
        .drain_grace(grace)
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");
    for v in 1..=3u64 {
        node.write(writer, RegisterId::ZERO, v).unwrap();
        assert_eq!(node.read(ProcessId::new(1), RegisterId::ZERO).unwrap(), v);
    }
    let frames = node.stats().frames_sent();
    assert!(
        (1..32 * 6).contains(&frames),
        "{frames} frames over 6 links: no link reached the ack threshold"
    );
    let started = Instant::now();
    let (history, stats) = node.shutdown();
    assert!(
        started.elapsed() < grace / 2,
        "drained in {:?}: the acks came, the grace deadline was not needed",
        started.elapsed()
    );
    check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
    assert_eq!(stats.messages_abandoned(), 0);
    assert_eq!(stats.links_abandoned(), 0);
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.dropped_stale(),
        stats.total_sent(),
        "books balance with nothing abandoned"
    );
    // Immediate means no frame waits: every one is sealed by the size
    // bound in the pass that produced it. It does not mean one message per
    // frame here — what one pass of a loop emits onto a link shares a frame.
    assert_eq!(
        stats.flushes(FlushReason::Size),
        stats.frames_sent(),
        "immediate policy: no frame was held or left for shutdown"
    );
}

/// Under the adaptive policy a frame is what one pass of an event loop
/// gathered, and nothing waits on a timer for company. A gap-tracking hold
/// with a one-second ceiling would hold every hop of a sequential workload
/// for about gap × 64 — several milliseconds — and take far longer than
/// the bound below.
#[test]
fn a_closed_loop_never_waits_on_an_adaptive_ceiling() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let mut node = ReactorClusterBuilder::new(cfg)
        .flush_policy(FlushPolicy::adaptive(
            64,
            Duration::ZERO,
            Duration::from_secs(1),
        ))
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("reactor cluster starts");
    let started = Instant::now();
    for v in 1..=200u64 {
        node.write(writer, RegisterId::ZERO, v).unwrap();
        assert_eq!(node.read(ProcessId::new(1), RegisterId::ZERO).unwrap(), v);
    }
    let elapsed = started.elapsed();
    let (history, stats) = node.shutdown();
    check_swmr(history.shard(RegisterId::ZERO).unwrap()).unwrap();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 write+read pairs took {elapsed:?}"
    );
    let mean_hold_ns = stats.mean_observed_hold_ns();
    assert!(
        mean_hold_ns < 1e6,
        "frames were held {mean_hold_ns:.0} ns on average"
    );
}

/// The far end of the reactor's route protocol, scripted: stands in for the
/// node hosting p1 and p2. Accepts the routes the node under test dials,
/// welcomes every named link toward p1 or p2 at its cursor, acks every
/// record at once — except on the link toward `silent`, if any — and
/// counts the messages of every fresh one.
struct ScriptedPeer {
    addr: SocketAddr,
    received: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
}

type Cursors = Mutex<HashMap<(ProcessId, ProcessId), u64>>;

impl ScriptedPeer {
    fn start() -> Self {
        Self::never_acking(None)
    }

    fn never_acking(silent: Option<ProcessId>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let received = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let cursors: Arc<Cursors> = Arc::default();
        let (received_a, stop_a) = (Arc::clone(&received), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop_a.load(Ordering::SeqCst) {
                let Ok((stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                stream.set_nonblocking(false).unwrap();
                let (cursors, received) = (Arc::clone(&cursors), Arc::clone(&received_a));
                conns.push(std::thread::spawn(move || {
                    Self::serve(stream, &cursors, &received, silent);
                }));
            }
            for h in conns {
                h.join().unwrap();
            }
        });
        ScriptedPeer {
            addr,
            received,
            stop,
            acceptor,
        }
    }

    /// One inbound route, until the node hangs up.
    fn serve(
        mut stream: TcpStream,
        cursors: &Cursors,
        received: &AtomicU64,
        silent: Option<ProcessId>,
    ) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let hello = loop {
            match RouteHello::decode(&buf) {
                Ok((hello, used)) => {
                    buf.drain(..used);
                    break hello;
                }
                Err(WireError::Truncated) => match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                },
                Err(e) => panic!("the node sent a bad hello: {e}"),
            }
        };
        // Every named src toward every named dst this peer hosts.
        let mut welcome = RouteWelcome::default();
        for &dst in hello.dsts.iter().filter(|d| [1, 2].contains(&d.index())) {
            for &src in hello.srcs.iter().filter(|&&s| s != dst) {
                let seq = *cursors.lock().unwrap().entry((src, dst)).or_insert(0);
                welcome.links.push(LinkSeq { src, dst, seq });
            }
        }
        stream.write_all(&welcome.encode()).unwrap();
        loop {
            while let Some((head, total)) = linkseq::split_record(&buf).unwrap() {
                assert!(
                    welcome
                        .links
                        .iter()
                        .any(|l| (l.src, l.dst) == (head.src, head.dst)),
                    "a record for a link the route never attached"
                );
                let mut cursors = cursors.lock().unwrap();
                let cursor = cursors.get_mut(&(head.src, head.dst)).unwrap();
                if head.seq > *cursor {
                    *cursor = head.seq;
                    let frame = Frame::<TwoBitMsg<u64>>::decode(&buf[linkseq::LINK_SEQ_LEN..total])
                        .unwrap();
                    received.fetch_add(frame.len() as u64, Ordering::SeqCst);
                }
                if silent != Some(head.dst) {
                    let mut ack = Vec::new();
                    head.encode_into(&mut ack);
                    let _ = stream.write_all(&ack);
                }
                buf.drain(..total);
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Blocks until `want` messages have arrived on fresh records.
    fn await_received(&self, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.received.load(Ordering::SeqCst) < want {
            assert!(Instant::now() < deadline, "the PROCEEDs never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn finish(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.join().unwrap();
    }
}

/// A real node hosting p0 alone, with `peer` standing in for the node that
/// hosts p1 and p2; `tune` adjusts the builder.
fn node_hosting_p0_with(
    peer: &ScriptedPeer,
    tune: impl FnOnce(ReactorNodeBuilder) -> ReactorNodeBuilder,
) -> ReactorNode<TwoBitProcess<u64>> {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let peers = HashMap::from([
        (ProcessId::new(1), peer.addr),
        (ProcessId::new(2), peer.addr),
    ]);
    tune(ReactorNodeBuilder::new(cfg).host([0usize]))
        .flush_policy(FlushPolicy::immediate())
        .listen("127.0.0.1:0")
        .expect("node binds")
        .join(&peers, 0u64, move |_reg, id| {
            TwoBitProcess::new(id, cfg, writer, 0u64)
        })
        .expect("node joins")
}

fn node_hosting_p0(peer: &ScriptedPeer) -> ReactorNode<TwoBitProcess<u64>> {
    node_hosting_p0_with(peer, |b| b)
}

/// Dials the node as a route from the scripted processes `srcs` toward p0;
/// returns the socket and the links the node's welcome attached.
fn dial_route(node_addr: SocketAddr, srcs: &[usize]) -> (TcpStream, Vec<LinkSeq>) {
    let mut stream = TcpStream::connect(node_addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = RouteHello {
        srcs: srcs.iter().copied().map(ProcessId::new).collect(),
        dsts: vec![ProcessId::new(0)],
    };
    stream.write_all(&hello.encode()).unwrap();
    let mut header = [0u8; WELCOME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let count = u32::from_be_bytes(header[4..].try_into().unwrap()) as usize;
    let mut welcome = header.to_vec();
    welcome.resize(WELCOME_HEADER_LEN + count * LINK_SEQ_LEN, 0);
    stream
        .read_exact(&mut welcome[WELCOME_HEADER_LEN..])
        .unwrap();
    let (welcome, _) = RouteWelcome::decode(&welcome).unwrap();
    (stream, welcome.links)
}

/// Dials the node as a route carrying link `p1 → p0` alone; returns the
/// socket and the resume point the node's welcome names.
fn dial_p1_to_p0(node_addr: SocketAddr) -> (TcpStream, u64) {
    let (stream, links) = dial_route(node_addr, &[1]);
    assert_eq!(links.len(), 1, "one named src, one hosted dst: one link");
    assert_eq!(
        (links[0].src, links[0].dst),
        (ProcessId::new(1), ProcessId::new(0))
    );
    (stream, links[0].seq)
}

/// Records `seqs` on link `src → p0`, each one frame carrying one `READ`
/// for `r0`, as bytes.
fn read_records_from(src: usize, seqs: std::ops::RangeInclusive<u64>) -> Vec<u8> {
    let blob = Frame::from_envelopes([Envelope::new(RegisterId::ZERO, TwoBitMsg::<u64>::Read)])
        .encode()
        .unwrap();
    let mut out = Vec::new();
    for seq in seqs {
        let link = LinkSeq {
            src: ProcessId::new(src),
            dst: ProcessId::new(0),
            seq,
        };
        linkseq::encode_record(link, &blob, &mut out);
    }
    out
}

/// Records `seqs` on link `p1 → p0`.
fn read_records(seqs: std::ops::RangeInclusive<u64>) -> Vec<u8> {
    read_records_from(1, seqs)
}

/// Reads cumulative acks on `p1 → p0` until one covers `want`; they never
/// go backwards.
fn await_ack(stream: &mut TcpStream, want: u64) -> u64 {
    let mut last = 0;
    while last < want {
        let mut ack = [0u8; LINK_SEQ_LEN];
        stream
            .read_exact(&mut ack)
            .expect("the ack arrives in time");
        let ack = LinkSeq::decode(&ack).unwrap();
        assert_eq!((ack.src, ack.dst), (ProcessId::new(1), ProcessId::new(0)));
        assert!(
            ack.seq >= last,
            "acks are cumulative: {} after {last}",
            ack.seq
        );
        last = ack.seq;
    }
    last
}

/// Satellite: the ack rule, seen from the far end of a link. A scripted
/// peer plays the node hosting p1 and p2 against a real node hosting p0:
/// a short burst is acked lazily (one cumulative ack, on the timer); a
/// sever while acks are owed loses nothing, because the welcome — not the
/// acks — names the resume point; and a peer that replays frames the node
/// had consumed but not yet acked gets them deduped and acked at once,
/// each `READ` having reached p0 exactly once.
#[test]
fn owed_acks_survive_a_sever_and_replays_are_deduped() {
    let peer = ScriptedPeer::start();
    let node = node_hosting_p0(&peer);

    // A burst well short of 32 frames, then silence: one lazy ack.
    let (mut link, resume) = dial_p1_to_p0(node.local_addr());
    assert_eq!(resume, 0, "a fresh link starts from nothing");
    link.write_all(&read_records(1..=5)).unwrap();
    let written = Instant::now();
    assert_eq!(await_ack(&mut link, 5), 5);
    assert!(
        written.elapsed() >= Duration::from_millis(9),
        "acked after {:?}: five frames are no reason to ack before the 10 ms timer",
        written.elapsed()
    );

    // Three more, and the sockets die with their acks still owed.
    link.write_all(&read_records(6..=8)).unwrap();
    node.sever_links();
    let mut rest = Vec::new();
    let _ = link.read_to_end(&mut rest);

    // The welcome names what the node consumed, acked or not. Replaying
    // from below it is what a sender ignoring the welcome would do.
    let (mut link, resume) = dial_p1_to_p0(node.local_addr());
    assert!(
        (5..=8).contains(&resume),
        "resumed at {resume}: what was consumed before the sever"
    );
    let replayed = resume - 3;
    link.write_all(&read_records(4..=9)).unwrap();
    assert_eq!(await_ack(&mut link, 9), 9);

    // p0 answered every READ it handled with one PROCEED toward p1.
    peer.await_received(9);
    let (_, stats) = node.shutdown();
    drop(link);
    peer.finish();

    assert_eq!(
        stats.frames_deduped(),
        replayed,
        "every replayed frame refused"
    );
    assert!(stats.frames_deduped() > 0);
    assert_eq!(stats.total_delivered(), 9, "each READ handled exactly once");
    assert_eq!(stats.total_sent(), 9, "one PROCEED per READ");
    assert_eq!(stats.links_abandoned(), 0);
    // This node's deliveries are the peer's sends and the other way round,
    // so the deployment-wide ledger is this node's, crossed.
    assert_eq!(
        stats.total_delivered()
            + stats.dropped_to_crashed()
            + stats.dropped_stale()
            + stats.messages_abandoned(),
        stats.total_sent(),
        "delivered + dropped + stale + abandoned == sent"
    );
}

/// Reads `stream` to its end: the node hung up (a timeout instead means it
/// never did). Returns what it sent first.
fn await_hangup(stream: &mut TcpStream) -> Vec<u8> {
    let mut rest = Vec::new();
    if let Err(e) = stream.read_to_end(&mut rest) {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset,
            "the node never hung up: {e}"
        );
    }
    rest
}

/// The 16-byte link prefix of a record on `p1 → p0`.
fn p1_to_p0_prefix(seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    LinkSeq {
        src: ProcessId::new(1),
        dst: ProcessId::new(0),
        seq,
    }
    .encode_into(&mut out);
    out
}

/// Satellite: hostile bytes on a link. The peer is crash-prone, not
/// byzantine, so a record no correct sender could have produced means the
/// stream is corrupt from there on: the node must refuse the length before
/// allocating for it, hang up, and put the link on the books as abandoned
/// rather than bail out silently — while a record merely cut short by a
/// dying peer is not an offence, and none of it harms the node: the link
/// re-dials and resumes from a cursor the bad bytes never moved.
#[test]
fn hostile_bytes_close_the_connection_and_spare_the_node() {
    let peer = ScriptedPeer::start();
    let node = node_hosting_p0(&peer);
    let seq_one = p1_to_p0_prefix(1);

    // A length prefix past the frame bound.
    let oversized = [&seq_one[..], &(MAX_FRAME_BODY_BYTES + 1).to_be_bytes()].concat();
    // A well-framed record whose body is no frame.
    let garbage = [&seq_one[..], &[0, 0, 0, 8], &[0xFF; 8]].concat();
    for (bytes, what) in [(oversized, "oversized prefix"), (garbage, "corrupt frame")] {
        let before = node.stats().links_abandoned();
        let (mut link, resume) = dial_p1_to_p0(node.local_addr());
        assert_eq!(resume, 0, "{what}: nothing was ever consumed");
        link.write_all(&bytes).unwrap();
        assert!(
            await_hangup(&mut link).is_empty(),
            "{what}: hung up on, never acked"
        );
        let stats = node.stats();
        assert_eq!(stats.links_abandoned(), before + 1, "{what} is accounted");
        assert_eq!(stats.total_delivered(), 0, "{what}: nothing delivered");
    }

    // One byte short of a record, then the peer dies: nothing to deliver,
    // nothing to hold against the link.
    let (mut link, resume) = dial_p1_to_p0(node.local_addr());
    assert_eq!(resume, 0);
    let record = read_records(1..=1);
    link.write_all(&record[..record.len() - 1]).unwrap();
    drop(link);

    // The node is unharmed: the link comes back from cursor 0 and works.
    let (mut link, resume) = dial_p1_to_p0(node.local_addr());
    assert_eq!(resume, 0, "the truncated record was never consumed");
    link.write_all(&read_records(1..=3)).unwrap();
    assert_eq!(await_ack(&mut link, 3), 3);
    peer.await_received(3);
    let (_, stats) = node.shutdown();
    drop(link);
    peer.finish();
    assert_eq!(stats.total_delivered(), 3, "each READ handled exactly once");
    assert_eq!(
        stats.links_abandoned(),
        2,
        "the two poisonings, not the truncation"
    );
}

/// Satellite: one link's fate inside a shared route. p0 → p1 and p0 → p2
/// ride one connection to the scripted peer, which acks the first and
/// never the second. Under an eight-frame resend cap the ninth un-acked
/// PROCEED toward p2 gives that link up — alone: the route stays up and
/// p0 → p1 keeps delivering on it.
#[test]
fn a_resend_overflow_abandons_one_link_and_spares_its_route() {
    let p2 = ProcessId::new(2);
    let peer = ScriptedPeer::never_acking(Some(p2));
    let node = node_hosting_p0_with(&peer, |b| b.resend_buffer(8));
    let (mut route, links) = dial_route(node.local_addr(), &[1, 2]);
    assert_eq!(links.len(), 2, "p1 → p0 and p2 → p0 share the route");

    // Each READ from p2 is answered by one PROCEED frame on p0 → p2.
    for seq in 1..=8 {
        route.write_all(&read_records_from(2, seq..=seq)).unwrap();
        peer.await_received(seq);
    }
    route.write_all(&read_records_from(2, 9..=9)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.stats().links_abandoned() == 0 {
        assert!(
            Instant::now() < deadline,
            "the ninth frame never overflowed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // p0 → p1 rides the same route and is untouched.
    route.write_all(&read_records_from(1, 1..=3)).unwrap();
    peer.await_received(8 + 3);
    let (_, stats) = node.shutdown();
    drop(route);
    peer.finish();
    assert_eq!(stats.links_abandoned(), 1, "p0 → p2 alone");
    assert_eq!(stats.reconnects(), 0, "the route never went down");
    assert_eq!(stats.total_delivered(), 12, "every READ handled once");
    assert_eq!(
        stats.messages_abandoned(),
        9,
        "the nine PROCEEDs p2 never acked: locally undecidable"
    );
}

/// Satellite: a well-framed record naming a link the route's hello never
/// attached could not come from a correct peer — whether the link is
/// unknown to the node or carried by another of its routes. The node hangs
/// up, books it like any poisoned stream, and delivers nothing.
#[test]
fn a_record_on_an_unattached_link_poisons_the_route() {
    let peer = ScriptedPeer::start();
    let node = node_hosting_p0(&peer);
    // p2 → p0 is first unknown, then carried by a route of its own.
    let mut elsewhere = None;
    for what in ["an unknown link", "another route's link"] {
        let before = node.stats().links_abandoned();
        let (mut route, links) = dial_route(node.local_addr(), &[1]);
        assert_eq!(links.len(), 1, "{what}: p1 → p0 only");
        route.write_all(&read_records_from(2, 1..=1)).unwrap();
        assert!(
            await_hangup(&mut route).is_empty(),
            "{what}: hung up on, never acked"
        );
        let stats = node.stats();
        assert_eq!(
            stats.links_abandoned(),
            before + 1,
            "{what}: the poisoning is booked"
        );
        assert_eq!(stats.total_delivered(), 0, "{what}: nothing delivered");
        elsewhere = Some(dial_route(node.local_addr(), &[2]));
    }
    drop(node.shutdown());
    drop(elsewhere);
    peer.finish();
}

/// Satellite: a peer gone for good. Reconnect-and-resend makes a failed
/// socket transient only while the peer comes back; when the re-dial
/// budget runs out the links toward it are abandoned, and everything they
/// still owed — sealed and un-acked, pending, or sent afterwards — goes on
/// the books as abandoned instead of vanishing. The surviving majority
/// never notices, and the deployment-wide ledger stays exact.
#[test]
fn a_peer_gone_for_good_is_abandoned_and_the_books_still_balance() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let reg = RegisterId::ZERO;
    let make = move |_reg: RegisterId, id: ProcessId| TwoBitProcess::new(id, cfg, writer, 0u64);

    let left = ReactorNodeBuilder::new(cfg)
        .host([0usize, 1])
        // Two loops, so p0 → p2 and p1 → p2 die on two different routes.
        .pool_size(2)
        .reconnect_policy(ReconnectPolicy {
            max_attempts: 5,
            max_backoff: Duration::from_millis(5),
            ..ReconnectPolicy::default()
        })
        .listen("127.0.0.1:0")
        .expect("left binds");
    let right = ReactorNodeBuilder::new(cfg)
        .host([2usize])
        .listen("127.0.0.1:0")
        .expect("right binds");
    let (left_addr, right_addr) = (left.local_addr(), right.local_addr());
    // Right first: left's dial budget is short, so its peer must already
    // be answering hellos.
    let mut right = right
        .join(
            &HashMap::from([(writer, left_addr), (p1, left_addr)]),
            0u64,
            make,
        )
        .expect("right joins");
    let mut left = left
        .join(&HashMap::from([(p2, right_addr)]), 0u64, make)
        .expect("left joins");

    // Cross-node traffic: p2's reads need a left process in their quorum.
    left.write(writer, reg, 1).unwrap();
    assert_eq!(right.read(p2, reg).unwrap(), 1);
    left.write(writer, reg, 2).unwrap();
    assert_eq!(right.read(p2, reg).unwrap(), 2);
    left.write(writer, reg, 3).unwrap();

    // Quiesce — every message sent so far delivered — so that what left
    // abandons below is exactly what it sends from here on.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (l, r) = (left.stats(), right.stats());
        if l.total_delivered() + r.total_delivered() == l.total_sent() + r.total_sent() {
            break;
        }
        assert!(Instant::now() < deadline, "the deployment never quiesced");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A draining node acks all it consumed before it goes, so left's
    // resend buffers toward p2 are empty when the sockets die.
    let (_, right_stats) = right.shutdown();
    assert_eq!(right_stats.links_abandoned(), 0);

    // p0 and p1 are a majority: the register stays live while left's two
    // links toward p2 burn through their re-dial budget.
    for v in 4..24u64 {
        left.write(writer, reg, v).unwrap();
        assert_eq!(left.read(p1, reg).unwrap(), v);
    }
    let (left_hist, left_stats) = left.shutdown();
    let verdict = check_swmr(left_hist.shard(reg).unwrap()).unwrap();
    assert_eq!(verdict.writes, 23);
    assert_eq!(verdict.reads_checked, 20);
    assert_eq!(left_stats.links_abandoned(), 2, "p0 → p2 and p1 → p2");
    assert!(left_stats.messages_abandoned() > 0);

    use twobit::proto::NetStats;
    let sum = |f: fn(&NetStats) -> u64| f(&left_stats) + f(&right_stats);
    assert_eq!(
        sum(NetStats::total_delivered)
            + sum(NetStats::dropped_to_crashed)
            + sum(NetStats::dropped_stale)
            + sum(NetStats::messages_abandoned),
        sum(NetStats::total_sent),
        "summed across nodes: delivered + dropped + stale + abandoned == sent"
    );
}

/// Recovery needs every process on one node. Donors, rejoin targets and
/// the quiesce books are all the coordinator's own node's, so on a
/// `listen`/`join` deployment `recover` is refused at once with a typed
/// error, before any state is touched — rather than sitting out the whole
/// `op_timeout` waiting for books that only balance deployment-wide.
#[test]
fn a_cross_node_recover_is_refused_at_once_and_touches_nothing() {
    let cfg = SystemConfig::max_resilience(3);
    let writer = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let reg = RegisterId::ZERO;
    let make = move |_reg: RegisterId, id: ProcessId| TwoBitProcess::new(id, cfg, writer, 0u64);

    let left = ReactorNodeBuilder::new(cfg)
        .host([0usize, 1])
        .listen("127.0.0.1:0")
        .expect("left binds");
    let right = ReactorNodeBuilder::new(cfg)
        .host([2usize])
        .listen("127.0.0.1:0")
        .expect("right binds");
    let (left_addr, right_addr) = (left.local_addr(), right.local_addr());
    let mut left = left
        .join(&HashMap::from([(p2, right_addr)]), 0u64, make)
        .expect("left joins");
    let mut right = right
        .join(
            &HashMap::from([(writer, left_addr), (p1, left_addr)]),
            0u64,
            make,
        )
        .expect("right joins");

    left.crash(p1).unwrap();
    for v in 1..=4u64 {
        left.write(writer, reg, v).unwrap();
    }
    let started = Instant::now();
    match left.recover(p1) {
        Err(DriverError::Backend(msg)) => {
            assert!(msg.contains("p2 is hosted on another node"), "got: {msg}");
        }
        other => panic!("expected a Backend refusal, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "refused at once, not after the 10 s op timeout: {:?}",
        started.elapsed()
    );
    assert_eq!(left.lifecycle(p1), Lifecycle::Crashed);
    let stats = left.stats();
    assert_eq!(stats.recoveries(), 0);
    assert_eq!(stats.snapshot_frames(), 0);

    // Nothing was touched: p0 and p2 are still a serving majority.
    for v in 5..=8u64 {
        left.write(writer, reg, v).unwrap();
        assert_eq!(right.read(p2, reg).unwrap(), v);
    }
    let (left_hist, _) = left.shutdown();
    let (right_hist, _) = right.shutdown();
    assert_eq!(check_swmr(left_hist.shard(reg).unwrap()).unwrap().writes, 8);
    assert_eq!(right_hist.total_ops(), 4, "the reads after the refusal");
}
