//! Per-layer floors, measured from outside: each microbench times public
//! functions of one layer on the fixtures the workloads use (five
//! processes, sixteen registers, the 50/50 script, `TwoBitMsg<u64>`).
//!
//! These are floors, not a profile: a layer costs at least this much per
//! call in the live system, where cache misses and contention add to it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use twobit_core::{Parity, TwoBitMsg, TwoBitProcess};
use twobit_proto::{
    Automaton, BufferPool, Effects, Envelope, Frame, MessageCost, NetStats, OpId, OpOutcome,
    Operation, ProcessId, RegisterId, ShardSet, SystemConfig,
};
use twobit_reactor::poller::{poll_fds, PollFd, POLL_IN};
use twobit_runtime::{LinkBatcher, Recorder};

use crate::metrics::{median, Values};
use crate::script::{writer_of, Script, Step};
use crate::workloads::{live_flush_policy, N, REGISTERS};

/// Nanoseconds per call of `f`: the median of three batches of `iters`.
/// The median, not the minimum: on this kind of box a cross-thread wake-up
/// costs either ≈4 µs or ≈40 µs depending on whether the hypervisor is
/// still polling for the idle core, and the mode a batch ran in is the mode
/// the workload in the same process ran in.
fn ns_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// What the mesh needs of a process: one automaton, or a `ShardSet` of them.
trait Node {
    type Msg;
    fn invoke(&mut self, step: &Step, op_id: OpId, fx: &mut Effects<Self::Msg, u64>);
    fn deliver(&mut self, from: ProcessId, msg: Self::Msg, fx: &mut Effects<Self::Msg, u64>);
}

impl Node for TwoBitProcess<u64> {
    type Msg = TwoBitMsg<u64>;
    fn invoke(&mut self, step: &Step, op_id: OpId, fx: &mut Effects<Self::Msg, u64>) {
        self.on_invoke(op_id, step.op(), fx);
    }
    fn deliver(&mut self, from: ProcessId, msg: Self::Msg, fx: &mut Effects<Self::Msg, u64>) {
        self.on_message(from, msg, fx);
    }
}

impl Node for ShardSet<TwoBitProcess<u64>> {
    type Msg = Envelope<TwoBitMsg<u64>>;
    fn invoke(&mut self, step: &Step, op_id: OpId, fx: &mut Effects<Self::Msg, u64>) {
        self.on_invoke(step.reg, op_id, step.op(), fx)
            .expect("the script only names hosted registers");
    }
    fn deliver(&mut self, from: ProcessId, msg: Self::Msg, fx: &mut Effects<Self::Msg, u64>) {
        self.on_message(from, msg, fx);
    }
}

/// `N` nodes wired by an in-order queue: no network, no threads — the bare
/// cost of the handlers. Each operation runs until the mesh is silent.
struct Mesh<P: Node> {
    nodes: Vec<P>,
    queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
    fx: Effects<P::Msg, u64>,
    steps: u64,
    ops: u64,
}

impl<P: Node> Mesh<P> {
    fn new(nodes: Vec<P>) -> Self {
        Mesh {
            nodes,
            queue: VecDeque::new(),
            fx: Effects::new(),
            steps: 0,
            ops: 0,
        }
    }

    fn absorb(&mut self, from: ProcessId) {
        for (to, msg) in self.fx.drain_sends() {
            self.queue.push_back((from, to, msg));
        }
        self.fx.drain_completions().for_each(drop);
    }

    fn run(&mut self, step: &Step) {
        self.nodes[step.proc.index()].invoke(step, OpId::new(self.ops), &mut self.fx);
        self.ops += 1;
        self.steps += 1;
        self.absorb(step.proc);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.nodes[to.index()].deliver(from, msg, &mut self.fx);
            self.steps += 1;
            self.absorb(to);
        }
    }

    /// ns per handler call and handler calls per operation over `ops`
    /// scripted operations.
    fn time(&mut self, script: &mut Script, ops: usize) -> (f64, f64) {
        let (steps0, t) = (self.steps, Instant::now());
        for step in script.take(ops) {
            self.run(&step);
        }
        let steps = (self.steps - steps0) as f64;
        (t.elapsed().as_nanos() as f64 / steps, steps / ops as f64)
    }
}

fn cfg() -> SystemConfig {
    SystemConfig::max_resilience(N)
}

fn bare_mesh() -> Mesh<TwoBitProcess<u64>> {
    let writer = writer_of(RegisterId::ZERO, N);
    Mesh::new(
        cfg()
            .processes()
            .map(|id| TwoBitProcess::new(id, cfg(), writer, 0u64))
            .collect(),
    )
}

/// `core.*` and `shard.dispatch_ns`. `history` is how many writes the
/// "long history" variant has behind it (200k at full scale).
fn core_and_shard(seed: u64, history: usize, ops: usize, out: &mut Values) {
    let mut script = Script::new(seed, N, 1);
    let mut mesh = bare_mesh();
    // 1k operations of history (≈500 writes) before the first timing.
    for step in script.by_ref().take(history.min(1000)) {
        mesh.run(&step);
    }
    let (step_ns, steps_per_op) = mesh.time(&mut script, ops);
    out.insert("core.step_ns.h1k", step_ns);
    out.insert("core.steps_per_op", steps_per_op);

    let mut value = 1 << 40;
    for _ in 0..history {
        value += 1;
        mesh.run(&Step {
            proc: writer_of(RegisterId::ZERO, N),
            reg: RegisterId::ZERO,
            write: Some(value),
        });
    }
    out.insert("core.step_ns.h200k", mesh.time(&mut script, ops).0);

    let regs = RegisterId::first(REGISTERS);
    let mut sharded = Mesh::new(
        cfg()
            .processes()
            .map(|id| {
                ShardSet::new(id, &regs, |reg, id| {
                    TwoBitProcess::new(id, cfg(), writer_of(reg, N), 0u64)
                })
            })
            .collect(),
    );
    let mut script = Script::new(seed, N, REGISTERS);
    for step in script.by_ref().take(history.min(1000)) {
        sharded.run(&step);
    }
    let (sharded_ns, _) = sharded.time(&mut script, ops);
    out.insert("shard.dispatch_ns", sharded_ns - step_ns);
}

/// A frame's worth of envelopes: the protocol's three message shapes over
/// the sixteen registers.
fn envelopes(batch: usize, salt: usize) -> Vec<Envelope<TwoBitMsg<u64>>> {
    (0..batch)
        .map(|k| {
            let i = k + salt;
            let msg = match i % 4 {
                0 => TwoBitMsg::Write(Parity::Even, i as u64 * 7919),
                1 => TwoBitMsg::Read,
                2 => TwoBitMsg::Proceed,
                _ => TwoBitMsg::Write(Parity::Odd, i as u64 * 104_729),
            };
            Envelope::new(RegisterId::new((i * 5) % REGISTERS), msg)
        })
        .collect()
}

/// `frame.*`: `Frame::from_envelopes` + `encode_pooled`, and
/// `decode_shared`, at 1, 3 and 16 messages per frame (`reactor_paced`
/// sends ≈1 per frame, `reactor_mixed` ≈3).
fn frame_codec(iters: usize, out: &mut Values) {
    const SIZES: [(usize, [&str; 3]); 3] = [
        (
            1,
            [
                "frame.encode_ns_per_msg.b1",
                "frame.decode_ns_per_msg.b1",
                "frame.bytes_per_msg.b1",
            ],
        ),
        (
            3,
            [
                "frame.encode_ns_per_msg.b3",
                "frame.decode_ns_per_msg.b3",
                "frame.bytes_per_msg.b3",
            ],
        ),
        (
            16,
            [
                "frame.encode_ns_per_msg.b16",
                "frame.decode_ns_per_msg.b16",
                "frame.bytes_per_msg.b16",
            ],
        ),
    ];
    let pool = BufferPool::new();
    let mut checkouts = 0u64;
    for (batch, [encode, decode, bytes]) in SIZES {
        // Four rotations so every message shape leads a frame in turn.
        let batches: Vec<_> = (0..4).map(|salt| envelopes(batch, salt)).collect();
        let mut k = 0;
        let encode_ns = ns_per_iter(iters, || {
            let frame = Frame::from_envelopes(batches[k % 4].iter().cloned());
            std::hint::black_box(frame.encode_pooled(&pool).expect("TwoBitMsg has a codec"));
            k += 1;
        });
        checkouts += 3 * iters as u64;
        let blobs: Vec<_> = batches
            .iter()
            .map(|b| {
                Frame::from_envelopes(b.iter().cloned())
                    .encode()
                    .expect("TwoBitMsg has a codec")
            })
            .collect();
        let decode_ns = ns_per_iter(iters, || {
            let frame: Frame<TwoBitMsg<u64>> =
                Frame::decode_shared(&blobs[k % 4]).expect("a blob this crate just encoded");
            std::hint::black_box(frame);
            k += 1;
        });
        let wire: usize = blobs.iter().map(|b| b.len()).sum();
        out.insert(encode, encode_ns / batch as f64);
        out.insert(decode, decode_ns / batch as f64);
        out.insert(bytes, wire as f64 / (4 * batch) as f64);
    }
    out.insert(
        "frame.pool_recycle_share",
        pool.recycled() as f64 / checkouts as f64,
    );
}

/// `stats.*`: one lock take plus one `record_send_for`, alone and with a
/// second thread doing the same — every live send and delivery pays this
/// on the deployment's single `Mutex<NetStats>`.
fn stats_mutex(iters: usize, out: &mut Values) {
    fn hammer(stats: &Mutex<NetStats>, iters: usize) -> f64 {
        let cost = MessageCost::new(2, 64);
        ns_per_iter(iters, || {
            stats
                .lock()
                .expect("no thread panics holding the lock")
                .record_send_for(RegisterId::new(3), "WRITE0", cost);
        })
    }
    let stats = Arc::new(Mutex::new(NetStats::new()));
    out.insert("stats.record_ns", hammer(&stats, iters));
    let contended = std::thread::scope(|s| {
        let other = s.spawn(|| hammer(&stats, iters));
        let mine = hammer(&stats, iters);
        mine.max(other.join().expect("hammer does not panic"))
    });
    out.insert("stats.record_contended_ns", contended);
}

/// `batcher.push_take_ns_per_msg`: three pushes and the flush that takes
/// them, under the live workloads' policy.
fn batcher(iters: usize, out: &mut Values) {
    let mut b: LinkBatcher<u64> = LinkBatcher::new(live_flush_policy());
    let base = Instant::now();
    let mut k = 0u64;
    let ns = ns_per_iter(iters, || {
        let now = base + Duration::from_micros(k * 300);
        for i in 0..3 {
            b.push(k + i, now + Duration::from_micros(i));
        }
        let flush = b.take_due(now + Duration::from_micros(250), false);
        std::hint::black_box(flush.expect("the hold ceiling is 200 µs"));
        k += 1;
    });
    out.insert("batcher.push_take_ns_per_msg", ns / 3.0);
}

/// `recorder.op_ns.*`: `invoked` + `completed`, with ≈1k and `history`
/// operations already recorded.
fn recorder(history: usize, iters: usize, out: &mut Values) {
    let rec = Recorder::new(0u64);
    let mut next = 0u64;
    let mut record = |rec: &Recorder<u64>| {
        let id = OpId::new(next);
        next += 1;
        let at = rec.now();
        rec.invoked(
            id,
            ProcessId::new(1),
            RegisterId::new(2),
            Operation::Read,
            at,
        );
        rec.completed(id, at + 1, OpOutcome::ReadValue(7));
    };
    for _ in 0..history.min(1000) {
        record(&rec);
    }
    out.insert("recorder.op_ns.h1k", ns_per_iter(iters, || record(&rec)));
    for _ in 0..history {
        record(&rec);
    }
    out.insert("recorder.op_ns.h200k", ns_per_iter(iters, || record(&rec)));
}

/// `channel.hop_us`: half a ping-pong over `std::sync::mpsc` with the
/// receiver behind a `Mutex` — what the vendored `crossbeam` stand-in is.
fn channel_hop(iters: usize, out: &mut Values) {
    let (ping_tx, ping_rx) = mpsc::channel::<u64>();
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let (ping_rx, pong_rx) = (Mutex::new(ping_rx), Mutex::new(pong_rx));
    let ns = std::thread::scope(|s| {
        s.spawn(move || {
            let rx = ping_rx.lock().expect("sole user");
            while let Ok(v) = rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per_iter(iters, || {
            ping_tx.send(1).expect("echo thread is alive");
            pong_rx
                .lock()
                .expect("sole user")
                .recv()
                .expect("echo thread is alive");
        });
        drop(ping_tx);
        ns
    });
    out.insert("channel.hop_us", ns / 2.0 / 1e3);
}

/// `socket.rtt_us`: a one-byte ping-pong over a loopback TCP connection
/// with `TCP_NODELAY` — the floor under any quorum round trip here.
fn socket_rtt(iters: usize, out: &mut Values) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let ns = std::thread::scope(|s| {
        s.spawn(move || {
            let mut byte = [0u8; 1];
            while server.read_exact(&mut byte).is_ok() && server.write_all(&byte).is_ok() {}
        });
        let mut byte = [7u8; 1];
        let ns = ns_per_iter(iters, || {
            client.write_all(&byte).expect("echo thread is alive");
            client.read_exact(&mut byte).expect("echo thread is alive");
        });
        // Closing the write half ends the echo thread's read loop.
        client.shutdown(std::net::Shutdown::Both).ok();
        ns
    });
    out.insert("socket.rtt_us", ns / 1e3);
    Ok(())
}

/// `poller.wait_ns.*`: one zero-timeout `poll_fds` over as many idle
/// descriptors as `reactor_mixed` (20) and `reactor_wide` (240) have links.
fn poller(iters: usize, out: &mut Values) -> std::io::Result<()> {
    let sockets = (0..240)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut fds: Vec<PollFd> = sockets
        .iter()
        .map(|s| PollFd::new(s.as_raw_fd(), POLL_IN))
        .collect();
    for (count, name) in [(20, "poller.wait_ns.fds20"), (240, "poller.wait_ns.fds240")] {
        let set = &mut fds[..count];
        let ns = ns_per_iter(iters, || {
            let ready = poll_fds(set, Some(Duration::ZERO)).expect("poll over open sockets");
            std::hint::black_box(ready);
        });
        out.insert(name, ns);
    }
    Ok(())
}

/// Runs every microbench. `scale` divides the iteration counts and history
/// lengths (1 for a real run; the smoke test uses 100).
///
/// # Errors
///
/// A loopback socket could not be opened.
pub fn measure(seed: u64, scale: usize) -> std::io::Result<Values> {
    let mut out = Values::new();
    core_and_shard(seed, 200_000 / scale, 4_000 / scale, &mut out);
    frame_codec(20_000 / scale, &mut out);
    stats_mutex(200_000 / scale, &mut out);
    batcher(50_000 / scale, &mut out);
    recorder(200_000 / scale, 20_000 / scale, &mut out);
    channel_hop(2_000 / scale, &mut out);
    socket_rtt(1_000 / scale, &mut out)?;
    poller(2_000 / scale, &mut out)?;
    Ok(out)
}
