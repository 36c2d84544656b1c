//! Frame-transport semantics, end to end: the routing-amortization
//! acceptance bar, atomic frame delivery under crashes, and the two-bit
//! claim surviving the batching refactor on both backends.

use std::time::Duration;

use twobit::lincheck::check_swmr_sharded;
use twobit::{
    Cluster, ClusterBuilder, DelayModel, Driver, FlushPolicy, Operation, ProcessId, RegisterId,
    SpaceBuilder, SystemConfig, TwoBitProcess, Workload,
};

const N: usize = 5;

/// The shard-scaling bench's sweep: one write + `readers` reads per
/// register per round, pipelined across shards.
fn sweep_workload(shards: usize, readers: usize, rounds: u64) -> Workload<u64> {
    let mut w = Workload::new();
    for round in 0..rounds {
        for k in 0..shards {
            let reg = RegisterId::new(k);
            let writer = k % N;
            w = w.step(
                writer,
                reg,
                Operation::Write(1 + round * shards as u64 + k as u64),
            );
            for r in 1..=readers {
                w = w.step((writer + r) % N, reg, Operation::Read);
            }
        }
    }
    w
}

/// Byte-codec fidelity on the deterministic engine: with
/// `wire_codec(true)` every frame is encoded to a length-prefixed blob and
/// the *decoded* copy is what gets delivered — the run executes on real
/// bytes. The bytes must reconcile exactly with the three accounted bit
/// classes: each frame blob is a 32-bit prefix plus its body
/// (header + control + data bits) padded to a byte.
#[test]
fn simnet_wire_codec_bytes_reconcile_with_bit_accounting() {
    let cfg = SystemConfig::max_resilience(N);
    let mut sim = SpaceBuilder::new(cfg)
        .seed(42)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        .flush_hold(500)
        .wire_codec(true)
        .registers(16)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        });
    sweep_workload(16, 2, 4).run_pipelined_on(&mut sim).unwrap();
    sim.run_to_quiescence().unwrap();
    check_swmr_sharded(&sim.history()).unwrap();

    let stats = sim.stats();
    assert!(stats.wire_bytes() > 0);
    assert_eq!(
        stats.control_bits(),
        2 * stats.total_sent(),
        "exactly two control bits per message, on the wire"
    );
    // Exact reconciliation: Σ blob bytes = Σ (4-byte prefix + body padded
    // to a byte), where Σ body bits = header + control + data bits.
    let body_bits = stats.frame_header_bits() + stats.control_bits() + stats.data_bits();
    let frames = stats.frames_sent();
    let wire_bits = stats.wire_bytes() * 8;
    assert!(
        wire_bits >= body_bits + 32 * frames,
        "wire bytes cannot undercut the accounted bits: {wire_bits} < {body_bits} + 32×{frames}"
    );
    assert!(
        wire_bits < body_bits + (32 + 8) * frames,
        "per-frame overhead is bounded by the prefix plus one padding byte"
    );
}

/// The same fidelity mode on the live runtime: the cluster's links encode
/// and decode every frame, and the run stays atomic.
#[test]
fn cluster_wire_codec_stays_atomic_and_counts_bytes() {
    let cfg = SystemConfig::max_resilience(N);
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(9)
        .registers(4)
        .wire_codec(true)
        .op_timeout(Duration::from_secs(10))
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        })
        .unwrap();
    sweep_workload(4, 2, 3).run_on(&mut cluster).unwrap();
    let stats = Cluster::stats(&cluster);
    let sharded = cluster.sharded_history();
    drop(cluster);
    assert!(stats.wire_bytes() > 0, "frames crossed the links as bytes");
    assert_eq!(stats.control_bits(), 2 * stats.total_sent());
    check_swmr_sharded(&sharded).unwrap();
}

/// The PR's acceptance bar: at 64 shards / 4 readers (the bench
/// configuration behind `BENCH_frames.json`), the framed transport's
/// shared headers cost at most half the per-message shard tags of the
/// unframed transport — while every message still carries exactly two
/// control bits.
#[test]
fn framed_routing_at_most_half_of_unframed_at_64_shards() {
    let cfg = SystemConfig::max_resilience(N);
    let mut sim = SpaceBuilder::new(cfg)
        .seed(42)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        .flush_hold(500)
        .registers(64)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        });
    sweep_workload(64, 4, 4).run_pipelined_on(&mut sim).unwrap();

    let stats = sim.stats();
    // The two-bit claim is untouched by framing: exactly two control bits
    // per message, aggregate and worst-case.
    assert_eq!(stats.control_bits(), 2 * stats.total_sent());
    assert_eq!(stats.max_msg_control_bits(), 2);

    // Routing: the shared delta-encoded headers versus what per-envelope
    // 6-bit tags would have cost (same workload, same message count).
    let unframed = stats.routing_bits();
    let framed = stats.frame_header_bits();
    assert_eq!(unframed, 6 * stats.total_sent(), "⌈log₂ 64⌉ per message");
    assert!(framed > 0, "frames actually carry headers");
    assert!(
        2 * framed <= unframed,
        "framed routing {framed} must be ≤ 50% of unframed {unframed}"
    );

    // And the amortization really is batching: many messages per frame.
    assert!(
        stats.messages_per_frame() > 4.0,
        "expected real coalescing, got {:.2} msgs/frame",
        stats.messages_per_frame()
    );

    // Still an atomic register space, per register.
    check_swmr_sharded(&sim.history()).unwrap();
}

/// Crashes during a frame-heavy run: frames to crashed processes drop
/// whole (delivered + dropped always accounts for every sent message) and
/// the surviving majority keeps every register atomic.
#[test]
fn frames_drop_atomically_under_crashes_and_registers_stay_atomic() {
    let cfg = SystemConfig::max_resilience(N); // t = 2
    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        .flush_hold(500)
        .registers(16)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        });

    // Warm every register, then crash two processes with frames in flight
    // (staged sends and queued frames both exist mid-workload).
    sweep_workload(16, 2, 1).run_pipelined_on(&mut sim).unwrap();
    sim.crash(ProcessId::new(3)).unwrap();
    sim.crash(ProcessId::new(4)).unwrap();

    // Registers whose writer survives keep taking writes and reads.
    for k in 0..16usize {
        let writer = k % N;
        if writer >= 3 {
            continue; // writer crashed: leave the register read-only
        }
        let reg = RegisterId::new(k);
        sim.write(ProcessId::new(writer), reg, 9_000 + k as u64)
            .unwrap();
        assert_eq!(
            sim.read(ProcessId::new((writer + 1) % 3), reg).unwrap(),
            9_000 + k as u64
        );
    }
    sim.run_to_quiescence().unwrap();

    let stats = sim.stats();
    assert!(
        stats.dropped_to_crashed() > 0,
        "crashes saw in-flight frames"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed(),
        stats.total_sent(),
        "every message was delivered or dropped with its whole frame"
    );
    check_swmr_sharded(&sim.history()).unwrap();
}

/// The live runtime under an aggressive flush policy: envelopes coalesce
/// into frames on real threads, a crash mid-run drops frames whole, and
/// every register's history still linearizes.
#[test]
fn cluster_frames_batch_and_stay_atomic_under_crash() {
    let cfg = SystemConfig::max_resilience(N);
    let cluster = ClusterBuilder::new(cfg)
        .seed(11)
        .registers(8)
        .flush_policy(FlushPolicy::fixed(64, Duration::from_micros(200)))
        .op_timeout(Duration::from_secs(10))
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        })
        .unwrap();

    // Pipeline writes across all 8 registers (per-register writers), then
    // read each back from a neighbour.
    for round in 0..3u64 {
        let mut clients: Vec<_> = (0..8)
            .map(|k| cluster.client_for(k % N, RegisterId::new(k)).unwrap())
            .collect();
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, cl)| {
                cl.issue(Operation::Write(100 * (round + 1) + k as u64))
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        for k in 0..8usize {
            let mut r = cluster.client_for((k + 1) % N, RegisterId::new(k)).unwrap();
            assert_eq!(r.read().unwrap(), 100 * (round + 1) + k as u64);
        }
    }

    // Crash a non-writer-critical process; the rest keeps serving.
    cluster.crash(4).unwrap();
    for k in 0..8usize {
        if k % N == 4 {
            continue; // its writer just crashed
        }
        let mut w = cluster.client_for(k % N, RegisterId::new(k)).unwrap();
        w.write(7_000 + k as u64).unwrap();
    }

    let sharded = cluster.sharded_history();
    let stats = Cluster::stats(&cluster);
    drop(cluster);

    assert!(stats.frames_sent() > 0, "links spoke frames");
    // Framed-message accounting is a lower bound live: frames still in
    // flight (or dropped at a crashed link) at snapshot time are not
    // delivered, but nothing travels outside a frame.
    assert!(stats.framed_messages() <= stats.total_sent());
    assert!(stats.total_delivered() <= stats.framed_messages());
    assert_eq!(stats.control_bits(), 2 * stats.total_sent());
    assert_eq!(stats.max_msg_control_bits(), 2);
    check_swmr_sharded(&sharded).unwrap();
}
