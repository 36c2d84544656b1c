//! Frame-transport semantics, end to end: the routing-amortization
//! acceptance bar, atomic frame delivery under crashes, the two-bit claim
//! surviving the batching refactor on both backends — and the pinned count
//! table of the seeded simnet sweep (`ROWS`), with one named test per claim
//! the table carries: framed routing, adaptive vs static hold, the safe
//! read cache, the head-to-head against MWMR-ABD and Oh-RAM, and the cost
//! of arming recovery. Timings are `perfbench`'s; everything here is an
//! exact count on a fixed seed.

mod common;

use std::time::Duration;

use common::{
    hotkey_workload, readmostly_workload, sweep_workload, writer_of, zipf_workload, ADAPTIVE, N,
    STATIC,
};
use twobit::lincheck::{check_mwmr_sharded, check_swmr_sharded};
use twobit::proto::{NetStats, OpRecord};
use twobit::{
    Automaton, CacheMode, Cluster, ClusterBuilder, DelayModel, Driver, FlushPolicy, MwmrProcess,
    OhRamProcess, Operation, ProcessId, RegisterId, ShardedHistory, SpaceBuilder, SystemConfig,
    TwoBitOptions, TwoBitProcess, VirtualHold, Workload,
};

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

/// The PR's acceptance bar: at 64 shards / 4 readers (the sweep
/// configuration of the 64-shard `ROWS`, without the codec), the framed transport's
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

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    TwoBit,
    /// MWMR-ABD (*Another Look*, arXiv 1702.08176): timestamp-bearing
    /// messages, checked by `check_mwmr_sharded`.
    Mwmr,
    /// Oh-RAM (arXiv 1610.08373): one-and-a-half-round hybrid reads.
    OhRam,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// `sweep_workload(shards, readers, 4)`.
    Uniform,
    /// The same sweep on a space with recovery armed and no crash.
    Recovery,
    Zipf95,
    ReadMostly,
    HotKey,
}

/// The read-cache labels. `Off` is the paper's default automaton, whose
/// writer already reads locally; `Proto` and `Safe` both disable that
/// shortcut, so their difference is exactly what the driver-level cache
/// (`CacheMode::Safe`, on in `Safe` only) saves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cache {
    Off,
    Proto,
    Safe,
}

use Algo::{Mwmr, OhRam, TwoBit};
use Cache::{Off, Proto, Safe};
use Mix::{HotKey, ReadMostly, Recovery, Uniform, Zipf95};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    msgs: u64,
    frames: u64,
    wire_bytes: u64,
    control_bits: u64,
    /// Per-message shard tags: what routing would cost unframed.
    routing_unframed: u64,
    /// The frame headers actually sent, and the same headers forced to
    /// delta/gamma (the chooser's alternative).
    routing_framed: u64,
    routing_gamma: u64,
    cache_hits: u64,
    lat_p50_ticks: u64,
}

#[derive(Debug)]
struct Row {
    algo: Algo,
    mix: Mix,
    hold: VirtualHold,
    cache: Cache,
    shards: usize,
    /// Readers per register per round; 0 for the 95/5 mixes.
    readers: usize,
    counts: Counts,
}

const fn row(
    algo: Algo,
    mix: Mix,
    hold: VirtualHold,
    cache: Cache,
    shards: usize,
    readers: usize,
    c: [u64; 9],
) -> Row {
    let counts = Counts {
        msgs: c[0],
        frames: c[1],
        wire_bytes: c[2],
        control_bits: c[3],
        routing_unframed: c[4],
        routing_framed: c[5],
        routing_gamma: c[6],
        cache_hits: c[7],
        lat_p50_ticks: c[8],
    };
    Row {
        algo,
        mix,
        hold,
        cache,
        shards,
        readers,
        counts,
    }
}

/// The record: every seeded simnet row of the sweep, with the counts it
/// produces. A change that moves a count re-pins it here — and must still
/// pass the named relational tests below.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    //  algo    mix         hold      cache shards rd  [  msgs, frames, bytes,  ctrl, unframed, framed, gamma, hits, p50]
    row(TwoBit, Uniform,    STATIC,   Off,    1, 1, [   112,    97,   1138,    224,      0,      0,      0,   0,  2098]),
    row(TwoBit, Uniform,    STATIC,   Off,    1, 2, [   144,   120,   1264,    288,      0,      0,      0,   0,  2000]),
    row(TwoBit, Uniform,    STATIC,   Off,    1, 4, [   208,   162,   1492,    416,      0,      0,      0,   0,  1962]),
    row(TwoBit, Uniform,    STATIC,   Off,    4, 1, [   446,   186,   3746,    892,    892,   2038,   2038,   0,  1879]),
    row(TwoBit, Uniform,    STATIC,   Off,    4, 2, [   576,   224,   4020,   1152,   1152,   2578,   2578,   0,  1922]),
    row(TwoBit, Uniform,    STATIC,   Off,    4, 4, [   832,   291,   4491,   1664,   1664,   3530,   3530,   0,  1941]),
    row(TwoBit, Uniform,    STATIC,   Off,   16, 1, [  1792,   272,  12833,   3584,   7168,   7766,   7766,   0,  1757]),
    row(TwoBit, Uniform,    STATIC,   Off,   16, 2, [  2303,   316,  13356,   4606,   9212,   9276,   9276,   0,  1956]),
    row(TwoBit, Uniform,    STATIC,   Off,   16, 4, [  3328,   340,  13965,   6656,  13312,  11106,  11106,   0,  2029]),
    row(TwoBit, Uniform,    STATIC,   Off,   64, 1, [  7168,   273,  47341,  14336,  43008,  27201,  27470,   0,  1877]),
    row(TwoBit, Uniform,    STATIC,   Off,   64, 2, [  9216,   319,  48660,  18432,  55296,  31996,  32196,   0,  1956]),
    row(TwoBit, Uniform,    STATIC,   Off,   64, 4, [ 13312,   340,  50518,  26624,  79872,  38001,  38084,   0,  2029]),
    row(Mwmr,   Uniform,    STATIC,   Off,   16, 2, [  3072,   287,  18641,  19109,  12288,  10098,  10098,   0,  3696]),
    row(OhRam,  Uniform,    STATIC,   Off,   16, 2, [  4608,   242,  39677,  34007,  18432,  11652,  11652,   0,  1932]),
    row(TwoBit, Recovery,   STATIC,   Off,   16, 2, [  2303,   316,  13356,   4606,   9212,   9276,   9276,   0,  1956]),
    row(TwoBit, Zipf95,     STATIC,   Off,    1, 0, [  2784,  2298,  14852,   5568,      0,      0,      0,   0,  1722]),
    row(TwoBit, Zipf95,     STATIC,   Off,    4, 0, [  2784,  1746,  12959,   5568,   5568,  14678,  14678,   0,  1695]),
    row(TwoBit, Zipf95,     STATIC,   Off,   16, 0, [  2784,  1444,  12001,   5568,  11136,  17322,  17322,   0,  1711]),
    row(TwoBit, Zipf95,     STATIC,   Off,   64, 0, [  2784,  1171,  11354,   5568,  16704,  21342,  21342,   0,  1747]),
    row(TwoBit, ReadMostly, STATIC,   Off,   16, 0, [  2784,   815,   9268,   5568,  11136,  16994,  16994,   0,  1695]),
    row(TwoBit, ReadMostly, STATIC,   Proto, 16, 0, [  3416,   967,  10488,   6832,  13664,  20212,  20212,   0,  1770]),
    row(TwoBit, ReadMostly, STATIC,   Safe,  16, 0, [  2880,   821,   9349,   5760,  11520,  17272,  17272,  67,  1656]),
    row(TwoBit, ReadMostly, STATIC,   Off,   64, 0, [  2784,   589,   8906,   5568,  16704,  22144,  22144,   0,  1687]),
    row(TwoBit, ReadMostly, STATIC,   Proto, 64, 0, [  3416,   572,   9365,   6832,  20496,  25054,  25054,   0,  1830]),
    row(TwoBit, ReadMostly, STATIC,   Safe,  64, 0, [  3088,   570,   9087,   6176,  18528,  23536,  23536,  41,  1689]),
    row(OhRam,  ReadMostly, STATIC,   Off,   16, 0, [ 12368,  1193, 113430,  89974,  49472,  40742,  40742,   0,  1589]),
    row(TwoBit, HotKey,     STATIC,   Off,   16, 0, [  2852,  2277,  15304,   5704,  11408,  14780,  14780,   0,  1748]),
    row(TwoBit, Zipf95,     ADAPTIVE, Off,    1, 0, [  2784,  1939,  13308,   5568,      0,      0,      0,   0,  2744]),
    row(TwoBit, Zipf95,     ADAPTIVE, Off,    4, 0, [  2784,  1516,  11820,   5568,   5568,  13526,  13526,   0,  2986]),
    row(TwoBit, Zipf95,     ADAPTIVE, Off,   16, 0, [  2782,  1259,  11066,   5564,  11128,  16302,  16302,   0,  3101]),
    row(TwoBit, Zipf95,     ADAPTIVE, Off,   64, 0, [  2784,   971,  10316,   5568,  16704,  19948,  19948,   0,  3339]),
    row(TwoBit, ReadMostly, ADAPTIVE, Off,   16, 0, [  2784,   673,   8445,   5568,  11136,  15430,  15430,   0,  4039]),
    row(TwoBit, ReadMostly, ADAPTIVE, Proto, 16, 0, [  3416,   898,  10113,   6832,  13664,  19574,  19574,   0,  4587]),
    row(TwoBit, ReadMostly, ADAPTIVE, Safe,  16, 0, [  2880,   708,   8698,   5760,  11520,  16092,  16092,  67,  4214]),
    row(TwoBit, ReadMostly, ADAPTIVE, Off,   64, 0, [  2784,   521,   8494,   5568,  16704,  21036,  21036,   0,  3673]),
    row(TwoBit, ReadMostly, ADAPTIVE, Proto, 64, 0, [  3416,   527,   9083,   6832,  20496,  24354,  24354,   0,  4575]),
    row(TwoBit, ReadMostly, ADAPTIVE, Safe,  64, 0, [  3088,   468,   8395,   6176,  18528,  21734,  21734,  41,  3832]),
    row(TwoBit, HotKey,     ADAPTIVE, Off,   16, 0, [  2851,  1966,  13939,   5702,  11404,  13294,  13294,   0,  2764]),
];

/// The pinned counts of the one row with this configuration.
fn pinned(
    algo: Algo,
    mix: Mix,
    hold: VirtualHold,
    cache: Cache,
    shards: usize,
    readers: usize,
) -> Counts {
    let key = (algo, mix, hold, cache, shards, readers);
    ROWS.iter()
        .find(|r| (r.algo, r.mix, r.hold, r.cache, r.shards, r.readers) == key)
        .unwrap_or_else(|| panic!("no pinned row {key:?}"))
        .counts
}

/// Runs `row` on its deployment, holds the history to its register mode's
/// checker and the stats to the invariants every row shares, and returns
/// the counts.
fn measure(row: &Row) -> Counts {
    let workload = match row.mix {
        Uniform | Recovery => sweep_workload(row.shards, row.readers, 4),
        Zipf95 => zipf_workload(row.shards),
        ReadMostly => readmostly_workload(row.shards),
        HotKey => hotkey_workload(),
    };
    let cfg = common::cfg();
    let options = TwoBitOptions {
        writer_fast_read: row.cache == Off,
        ..TwoBitOptions::default()
    };
    let (stats, history) = match row.algo {
        TwoBit => run(row, &workload, move |reg, id| {
            TwoBitProcess::with_options(id, cfg, writer_of(reg), 0u64, options)
        }),
        Mwmr => run(row, &workload, move |_reg, id| {
            MwmrProcess::new(id, cfg, 0u64)
        }),
        OhRam => run(row, &workload, move |reg, id| {
            OhRamProcess::new(id, cfg, writer_of(reg), 0u64)
        }),
    };
    if row.algo == Mwmr {
        check_mwmr_sharded(&history).unwrap_or_else(|e| panic!("{row:?}: {e:?}"));
    } else {
        check_swmr_sharded(&history).unwrap_or_else(|e| panic!("{row:?}: {e:?}"));
    }

    let sent = stats.total_sent();
    if row.algo == TwoBit {
        assert_eq!(
            stats.control_bits(),
            2 * sent,
            "{row:?}: two bits a message"
        );
    } else {
        assert!(
            stats.control_bits() > 2 * sent,
            "{row:?}: competitors pay more"
        );
    }
    assert!(stats.wire_bytes() > 0, "{row:?}: frames crossed as bytes");
    assert_eq!(
        stats.flushes_total(),
        stats.frames_sent(),
        "{row:?}: one flush reason a frame"
    );
    assert_eq!(stats.recoveries(), 0, "{row:?}: no row crashes anything");
    if row.shards == 64 {
        assert!(
            stats.frame_header_bits() <= stats.frame_header_gamma_bits(),
            "{row:?}: the header chooser lost to forced delta/gamma"
        );
    }
    // With the cache on every read consults it exactly once, so
    // `local_read_pct = 100 · hits / reads`.
    let consulted = stats.cache_hits() + stats.cache_misses() + stats.cache_fallbacks();
    let reads = workload
        .steps()
        .iter()
        .filter(|s| s.op == Operation::Read)
        .count();
    let expected = if row.cache == Safe { reads as u64 } else { 0 };
    assert_eq!(consulted, expected, "{row:?}: cache consultations");

    let mut lats: Vec<u64> = history
        .iter()
        .flat_map(|(_, h)| h.records.iter().filter_map(OpRecord::latency))
        .collect();
    lats.sort_unstable();
    let percentile = |q: f64| lats[((lats.len() - 1) as f64 * q).round() as usize];
    let p50 = percentile(0.50);
    assert!(p50 <= percentile(0.99), "{row:?}: p50 above p99");

    Counts {
        msgs: sent,
        frames: stats.frames_sent(),
        wire_bytes: stats.wire_bytes(),
        control_bits: stats.control_bits(),
        routing_unframed: stats.routing_bits(),
        routing_framed: stats.frame_header_bits(),
        routing_gamma: stats.frame_header_gamma_bits(),
        cache_hits: stats.cache_hits(),
        lat_p50_ticks: p50,
    }
}

fn run<A: Automaton<Value = u64>>(
    row: &Row,
    workload: &Workload<u64>,
    make: impl FnMut(RegisterId, ProcessId) -> A,
) -> (NetStats, ShardedHistory<u64>) {
    let cache = if row.cache == Safe {
        CacheMode::Safe
    } else {
        CacheMode::Off
    };
    let mut sim = common::space(row.shards, row.hold, cache, row.mix == Recovery, make);
    workload
        .run_pipelined_on(&mut sim)
        .unwrap_or_else(|e| panic!("{row:?}: {e}"));
    (sim.stats(), sim.history())
}

#[test]
fn every_simnet_row_reproduces_its_committed_counts() {
    let drifted: Vec<String> = ROWS
        .iter()
        .filter_map(|row| {
            let got = measure(row);
            (got != row.counts).then(|| format!("{row:?}\n  measured {got:?}"))
        })
        .collect();
    assert!(drifted.is_empty(), "re-pin or fix:\n{}", drifted.join("\n"));
}

/// At 64 shards the shared frame headers beat per-message tags, and the
/// per-frame mode bit never loses to forced delta/gamma.
#[test]
fn framed_routing_and_the_header_chooser_win_at_64_shards() {
    for readers in [1, 2, 4] {
        let c = pinned(TwoBit, Uniform, STATIC, Off, 64, readers);
        assert!(
            c.routing_framed < c.routing_unframed,
            "{readers} readers: {c:?}"
        );
        assert!(
            c.routing_framed <= c.routing_gamma,
            "{readers} readers: {c:?}"
        );
    }
}

/// Both runs are the same deterministic workload, so the adaptive hold
/// must match or beat the static default on bytes outright.
#[test]
fn adaptive_hold_never_loses_to_static_on_wire_bytes() {
    let zipf = [1, 4, 16, 64].map(|shards| (Zipf95, Off, shards));
    let readmostly = [16, 64]
        .into_iter()
        .flat_map(|shards| [Off, Proto, Safe].map(|cache| (ReadMostly, cache, shards)));
    for (mix, cache, shards) in zipf.into_iter().chain(readmostly) {
        let adaptive = pinned(TwoBit, mix, ADAPTIVE, cache, shards, 0).wire_bytes;
        let fixed = pinned(TwoBit, mix, STATIC, cache, shards, 0).wire_bytes;
        assert!(
            adaptive <= fixed,
            "{mix:?}/{cache:?}/{shards}: adaptive {adaptive} > static {fixed} bytes"
        );
    }
}

/// The cache serves a real share of reads locally (`measure` holds
/// `local_read_pct` to `hits / reads`) and that cuts bytes against the
/// same automaton without it. Its allocation win is in `alloc_budget.rs`.
#[test]
fn safe_read_cache_beats_its_protocol_twin_on_bytes() {
    for hold in [STATIC, ADAPTIVE] {
        for shards in [16, 64] {
            let safe = pinned(TwoBit, ReadMostly, hold, Safe, shards, 0);
            let proto = pinned(TwoBit, ReadMostly, hold, Proto, shards, 0);
            assert!(safe.cache_hits > 0, "{hold:?}/{shards}: never hit");
            assert!(
                safe.wire_bytes < proto.wire_bytes,
                "{hold:?}/{shards}: safe {} >= proto {} bytes",
                safe.wire_bytes,
                proto.wire_bytes
            );
        }
    }
}

/// The paper's headline against the multi-writer competitor, under the
/// same workload, framing, hold and codec.
#[test]
fn two_bit_beats_mwmr_head_to_head() {
    let two_bit = pinned(TwoBit, Uniform, STATIC, Off, 16, 2);
    let mwmr = pinned(Mwmr, Uniform, STATIC, Off, 16, 2);
    assert!(
        two_bit.wire_bytes < mwmr.wire_bytes,
        "{two_bit:?} vs {mwmr:?}"
    );
    assert!(
        two_bit.control_bits < mwmr.control_bits,
        "{two_bit:?} vs {mwmr:?}"
    );
}

/// The trade runs both ways: on the read-mostly mix Oh-RAM's one-round
/// common-case read wins median latency, and its Θ(n²) relay round loses
/// bytes and control bits to the two-bit protocol.
#[test]
fn ohram_trades_bits_for_read_latency() {
    let two_bit = pinned(TwoBit, ReadMostly, STATIC, Off, 16, 0);
    let ohram = pinned(OhRam, ReadMostly, STATIC, Off, 16, 0);
    assert!(
        ohram.lat_p50_ticks < two_bit.lat_p50_ticks,
        "{ohram:?} vs {two_bit:?}"
    );
    assert!(
        two_bit.wire_bytes < ohram.wire_bytes,
        "{two_bit:?} vs {ohram:?}"
    );
    assert!(
        two_bit.control_bits < ohram.control_bits,
        "{two_bit:?} vs {ohram:?}"
    );
}

/// Arming the lifecycle machinery costs nothing until someone crashes:
/// within 2 % of the recovery-disabled twin's bytes (`measure` checks
/// that no row performs a recovery).
#[test]
fn arming_recovery_is_free_until_a_crash() {
    let armed = pinned(TwoBit, Recovery, STATIC, Off, 16, 2).wire_bytes;
    let twin = pinned(TwoBit, Uniform, STATIC, Off, 16, 2).wire_bytes;
    assert!(100 * armed <= 102 * twin, "{armed} > 1.02 × {twin} bytes");
}
