//! Shard-count × reader-count scaling of `RegisterSpace` under the framed
//! transport — byte-level wire codec in the loop, static-vs-adaptive
//! flush hold head to head.
//!
//! Sweeps the number of hosted registers and the number of reader processes
//! per register on a 5-process deployment, measuring wall-clock cost per
//! operation and wire traffic. Since the wire-codec redesign every frame is
//! actually encoded and decoded (`wire_codec(true)`), so alongside the
//! framed-vs-unframed routing-bit comparison each row reports
//! **bytes-on-wire**: the length-prefixed blobs a socket would carry
//! (`wire_bytes`, and `bytes_per_op`). Row sources and mixes:
//!
//! * `simnet` / `uniform` — the historical sweep: one write + `readers`
//!   reads per register per round, pipelined across shards;
//! * `simnet` / `zipf95` — workload realism: register popularity drawn
//!   from a Zipf(1.0) distribution over the shards, 95% reads / 5% writes;
//! * `simnet` / `readmostly` — the same 95/5 read-mostly mix with uniform
//!   register popularity. These rows are emitted twice more per hold as
//!   the **cache acceptance pair**: `cache: "proto"` and `cache: "safe"`
//!   both disable the automaton-level `writer_fast_read` shortcut (so
//!   every read would run the two-phase protocol), then `"safe"` turns on
//!   the gated local read cache of `twobit-cache`. The pair isolates the
//!   driver-level cache contribution — `local_read_pct` and the exact
//!   bytes/allocation savings — as first-class trajectory numbers. (The
//!   plain `cache: "off"` rows keep the paper's default algorithm, where
//!   the writer's own fast read already costs zero messages.);
//! * `simnet` / `hotkey` — the contended-hot-key row: every operation
//!   targets register r0 (readers rotating over the non-writer processes)
//!   while the other shards sit idle;
//! * `reactor` / `uniform` — the same portable workload on the live-socket
//!   backend, the event-driven reactor transport (`twobit-reactor`) over
//!   loopback TCP, every link multiplexed over a 4-thread pool: proves
//!   the byte path end to end. These rows also publish wall-clock per-op
//!   latency percentiles (`lat_p50_us`, `lat_p99_us`, from the recorder's
//!   invoke/response timestamps);
//!   simnet rows carry `null` there — their clocks are virtual — and
//!   instead publish the *virtual-time* twins `lat_p50_ticks` /
//!   `lat_p99_ticks` from the same invoke/response timestamps in
//!   simulator ticks (the live rows carry `null` in those columns);
//! * `simnet` / `recovery` — the uniform (16 shards, 2 readers) sweep on
//!   a space built with crash-recovery support enabled but **no crash
//!   injected**: the steady-state cost of the lifecycle machinery. CI
//!   asserts its `wire_bytes` stays within 1.02x of the recovery-disabled
//!   uniform twin — enabling recovery must be free until someone crashes;
//! * `simnet` / `headtohead` — the two-bit protocol versus its
//!   competitors: the **same** workload, framing, hold policy and
//!   codec-on delivery, run once with the paper's automaton
//!   (`algo: "twobit"`), once with the MWMR ABD automaton
//!   (`algo: "mwmr"`, timestamp-bearing messages, verified by
//!   `check_mwmr_sharded`), and once with the Oh-RAM hybrid-read
//!   automaton (`algo: "ohram"`, one-and-a-half-round reads, verified by
//!   `check_swmr_sharded`), so the headline bytes-on-wire and msgs/frame
//!   comparison is finally apples-to-apples. Every row carries an `algo`
//!   column (`"twobit"` everywhere else);
//! * the **latency pair**: the read-mostly static-hold 16-shard simnet
//!   row is re-run with the Oh-RAM automaton (`algo: "ohram"`,
//!   `mix: "readmostly"`) on the same deterministic workload, and the
//!   uniform reactor sweep gets an Oh-RAM twin so the live-socket clock
//!   domain (`lat_p50_us`) is populated for both algorithms too. CI
//!   asserts the trade both ways: Oh-RAM must beat two-bit on
//!   `lat_p50_ticks` for the read-mostly mix (its reads complete in one
//!   round in the common case where two-bit needs the read/confirmation
//!   exchange), while two-bit must keep winning `wire_bytes` *and*
//!   `control_bits` (the relay round is Θ(n²) messages per read — the
//!   paper's headline survives the latency competitor);
//! * `modelcheck` — explorer throughput rows from `twobit-check`: paths
//!   explored/pruned, replays, max depth, and wall time for the canonical
//!   small configurations (plus a dpor-vs-naive pair, so the reduction
//!   factor is itself a trajectory number). These rows carry no wire
//!   columns — the explorer measures schedules, not bytes.
//!
//! The zipf95, readmostly, and hotkey rows are emitted **twice**: once
//! under the static default hold (`hold: "static"`, `flush_hold(500)`) and
//! once under the adaptive auto-tuner (`hold: "adaptive"`,
//! `VirtualHold::Adaptive { floor: 0, ceil: 2000 }`), plus a static and an
//! adaptive reactor row. Every row carries the flush-reason counters
//! (`flushes_size`/`flushes_hold`/`flushes_shutdown`) and the mean
//! observed hold, so the JSON shows *why* the frames formed, not just how
//! many. CI's bench smoke job fails if the adaptive rows lose to static
//! on bytes-on-wire for the read-mostly and zipfian mixes.
//!
//! The 64-shard rows also assert the header codec v2 chooser: the
//! delta/gamma-vs-bitmap mode bit must never lose to forced delta/gamma
//! (`frame_header_bits ≤ frame_header_gamma_bits`).
//!
//! Every row also reports `allocs_per_op` — heap allocations per
//! operation, counted by a wrapping global allocator around each measured
//! run — so the zero-copy frame path and the read cache are held to an
//! allocation budget, not just a byte budget. CI's bench smoke job fails
//! if a `cache: "safe"` read-mostly row does not beat its `"off"` twin on
//! both `bytes_per_op` and `allocs_per_op`, or reports `local_read_pct`
//! of zero.
//!
//! Results land in `BENCH_frames.json` at the workspace root.
//!
//! Run with: `cargo bench --bench shard_scaling`
//! Fast mode (JSON only, no criterion sampling — what CI's bench smoke job
//! runs): `BENCH_FAST=1 cargo bench --bench shard_scaling`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twobit_baselines::{MwmrProcess, OhRamProcess};
use twobit_cache::CacheMode;
use twobit_check::{explore, scenarios, ExploreOptions, Strategy};
use twobit_core::TwoBitOptions;
use twobit_core::TwoBitProcess;
use twobit_proto::{
    Automaton, Driver, FlushReason, NetStats, Operation, ProcessId, RegisterId, RegisterSpace,
    ShardedHistory, SystemConfig, Workload,
};
use twobit_reactor::ReactorClusterBuilder;
use twobit_runtime::FlushPolicy;
use twobit_simnet::{DelayModel, SimSpace, SpaceBuilder, VirtualHold};

/// Counts heap allocations so every row can publish `allocs_per_op`. The
/// deallocation path is untouched; the counter is relaxed — we want a
/// cheap census, not a profiler.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter increment on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N: usize = 5;
const SHARD_COUNTS: [usize; 4] = [1, 4, 16, 64];
const READER_COUNTS: [usize; 3] = [1, 2, 4];
const ROUNDS: u64 = 4;
/// Operations per mixed-workload row (reads + writes).
const MIX_OPS: usize = 400;
/// Read fraction of the read-mostly mixes, in percent.
const READ_PCT: u64 = 95;
/// The static default the simnet adaptive rows are judged against, in
/// virtual ticks.
const STATIC_HOLD: u64 = 500;
/// Simnet adaptive band: floor 0 (idle links flush immediately), ceiling
/// 2000 ticks (bursty links may hold up to 4× the static default).
const ADAPTIVE: VirtualHold = VirtualHold::Adaptive {
    floor: 0,
    ceil: 2_000,
};
/// The live-socket rows run real-time holds, not virtual ticks: the static row
/// holds 20µs (the `FlushPolicy::default()` window, max_batch 64) and
/// the adaptive row tunes between 0 and this ceiling — both recorded in
/// the JSON config block so the rows are reproducible as published.
const LIVE_STATIC_HOLD_US: u64 = 20;
const LIVE_ADAPTIVE_CEIL_US: u64 = 200;

/// Which hold policy a row ran under (also its JSON label).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hold {
    Static,
    Adaptive,
}

impl Hold {
    fn label(self) -> &'static str {
        match self {
            Hold::Static => "static",
            Hold::Adaptive => "adaptive",
        }
    }

    fn virtual_hold(self) -> VirtualHold {
        match self {
            Hold::Static => VirtualHold::Static(STATIC_HOLD),
            Hold::Adaptive => ADAPTIVE,
        }
    }
}

/// One simnet configuration for every row, parameterized over the
/// automaton so the `headtohead` rows compare algorithms under *exactly*
/// the framing/hold/codec setup of the sweep rows (no duplicated builder
/// chain to drift).
fn build_space_with<A, F>(
    shards: usize,
    seed: u64,
    hold: Hold,
    cache: CacheMode,
    recovery: bool,
    make: F,
) -> RegisterSpace<SimSpace<A>>
where
    A: Automaton<Value = u64>,
    F: FnMut(RegisterId, ProcessId) -> A,
{
    let cfg = SystemConfig::max_resilience(N);
    let sim = SpaceBuilder::new(cfg)
        .seed(seed)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        // Static rows hold staged envelopes half the delay bound for
        // company; adaptive rows auto-tune per link between 0 and 2000.
        .flush_hold_policy(hold.virtual_hold())
        // Route every frame through the byte codec: the run executes on
        // decoded bytes and `wire_bytes` reports real blob sizes.
        .wire_codec(true)
        .cache_mode(cache)
        // The recovery row's knob: lifecycle machinery armed, no crash
        // injected. Everywhere else the knob is off.
        .recovery(recovery)
        .registers(shards)
        .build(0u64, make);
    let names = (0..shards).map(|k| format!("shard:{k:03}"));
    RegisterSpace::new(sim, names).expect("names fit the hosted registers")
}

fn build_space(
    shards: usize,
    seed: u64,
    hold: Hold,
    cache: CacheMode,
) -> RegisterSpace<SimSpace<TwoBitProcess<u64>>> {
    let cfg = SystemConfig::max_resilience(N);
    build_space_with(shards, seed, hold, cache, false, move |reg, id| {
        TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
    })
}

/// JSON label for a row's cache mode.
fn cache_label(cache: CacheMode) -> &'static str {
    match cache {
        CacheMode::Off => "off",
        CacheMode::Safe => "safe",
        CacheMode::UnsafeAblated => "unsafe",
    }
}

/// One write + `readers` reads per register per round, pipelined across
/// shards through the portable `Workload` abstraction.
fn sweep_workload(shards: usize, readers: usize) -> Workload<u64> {
    let mut w = Workload::new();
    for round in 0..ROUNDS {
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

/// Read-mostly skewed workload: register popularity ~ Zipf(1.0) over the
/// shards, `READ_PCT`% reads; reader processes rotate per step.
fn zipf_workload(shards: usize, ops: usize, seed: u64) -> Workload<u64> {
    // Cumulative Zipf weights (w_r = 1/rank).
    let mut cum = Vec::with_capacity(shards);
    let mut total = 0.0f64;
    for rank in 1..=shards {
        total += 1.0 / rank as f64;
        cum.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new();
    let mut next_value = 1u64;
    for i in 0..ops {
        let u: f64 = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let k = cum.partition_point(|&c| c < u).min(shards - 1);
        w = mixed_step(w, k, i, &mut next_value, &mut rng);
    }
    w
}

/// Read-mostly workload with *uniform* register popularity — the
/// read-mostly row without the zipfian skew.
fn readmostly_workload(shards: usize, ops: usize, seed: u64) -> Workload<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new();
    let mut next_value = 1u64;
    for i in 0..ops {
        let k = rng.gen_range(0usize..shards);
        w = mixed_step(w, k, i, &mut next_value, &mut rng);
    }
    w
}

/// Contended-hot-key workload: every operation lands on register r0 —
/// its writer process takes all the writes, the other four processes
/// rotate through the reads — while `shards − 1` other registers are
/// hosted but idle (so routing tags still exist and idle links matter).
fn hotkey_workload(ops: usize, seed: u64) -> Workload<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new();
    let mut next_value = 1u64;
    for i in 0..ops {
        w = mixed_step(w, 0, i, &mut next_value, &mut rng);
    }
    w
}

/// One step of the 95/5 mixed workloads: a read from a rotating process —
/// **including the register's own writer**, so the co-location gate of
/// `CacheMode::Safe` has real traffic to serve — or a write from the
/// register's writer.
fn mixed_step(
    w: Workload<u64>,
    k: usize,
    i: usize,
    next_value: &mut u64,
    rng: &mut StdRng,
) -> Workload<u64> {
    let reg = RegisterId::new(k);
    let writer = k % N;
    if rng.gen_range(0u64..100) < READ_PCT {
        let reader = (writer + i % N) % N;
        w.step(reader, reg, Operation::Read)
    } else {
        *next_value += 1;
        w.step(writer, reg, Operation::Write(*next_value))
    }
}

/// The head-to-head comparison point: shards × readers of the
/// two-bit-vs-MWMR rows.
const HEAD_TO_HEAD: (usize, usize) = (16, 2);

struct Row {
    algo: &'static str,
    source: &'static str,
    mix: &'static str,
    hold: &'static str,
    cache: &'static str,
    shards: usize,
    readers: usize,
    ops: usize,
    wall_ns_per_op: f64,
    msgs: u64,
    frames: u64,
    msgs_per_frame: f64,
    control_bits: u64,
    routing_bits_unframed: u64,
    routing_bits_framed: u64,
    routing_bits_framed_gamma: u64,
    wire_bytes: u64,
    bytes_per_op: f64,
    allocs_per_op: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_fallbacks: u64,
    local_read_pct: f64,
    flushes_size: u64,
    flushes_hold: u64,
    flushes_shutdown: u64,
    mean_hold_us: f64,
    /// Wall-clock per-operation latency percentiles in microseconds,
    /// from the recorder's invoke/response timestamps. Populated on the
    /// live-socket rows (`reactor`); `None` (JSON `null`) on
    /// simnet rows, whose timestamps are virtual ticks.
    lat_p50_us: Option<f64>,
    lat_p99_us: Option<f64>,
    /// Virtual-time per-operation latency percentiles in simulator
    /// ticks, from the same invoke/response timestamps. Populated on
    /// simnet rows; `None` (JSON `null`) on the live-socket rows, whose
    /// timestamps are wall-clock nanoseconds.
    lat_p50_ticks: Option<u64>,
    lat_p99_ticks: Option<u64>,
}

/// Sorted completed-operation latencies from a history, in whatever unit
/// the backend's recorder stamped (nanoseconds live, ticks on simnet).
fn sorted_latencies(hist: &ShardedHistory<u64>) -> Vec<u64> {
    let mut lats: Vec<u64> = hist
        .iter()
        .flat_map(|(_, shard)| {
            shard
                .records
                .iter()
                .filter_map(twobit_proto::OpRecord::latency)
        })
        .collect();
    assert!(!lats.is_empty(), "latency rows need completed operations");
    lats.sort_unstable();
    lats
}

fn percentile(lats: &[u64], q: f64) -> u64 {
    let idx = ((lats.len() - 1) as f64 * q).round() as usize;
    lats[idx]
}

/// Wall-clock p50/p99 operation latency in microseconds from a live
/// backend's history (recorder timestamps are nanoseconds since start).
fn latency_percentiles_us(hist: &ShardedHistory<u64>) -> (f64, f64) {
    let lats = sorted_latencies(hist);
    (
        percentile(&lats, 0.50) as f64 / 1_000.0,
        percentile(&lats, 0.99) as f64 / 1_000.0,
    )
}

/// Virtual-time p50/p99 operation latency in simulator ticks from a
/// simnet history — the deterministic twin of `latency_percentiles_us`,
/// published raw (ticks are already the natural unit).
fn latency_percentiles_ticks(hist: &ShardedHistory<u64>) -> (u64, u64) {
    let lats = sorted_latencies(hist);
    (percentile(&lats, 0.50), percentile(&lats, 0.99))
}

#[allow(clippy::too_many_arguments)]
fn row_from_stats(
    algo: &'static str,
    source: &'static str,
    mix: &'static str,
    hold: &'static str,
    cache: &'static str,
    shards: usize,
    readers: usize,
    ops: usize,
    wall_ns: f64,
    allocs: u64,
    stats: &NetStats,
) -> Row {
    if algo == "twobit" {
        assert_eq!(
            stats.control_bits(),
            2 * stats.total_sent(),
            "the two-bit claim must survive framing and serialization"
        );
    } else {
        // The competitors pay real control bits — MWMR for its
        // timestamps, Oh-RAM for its three-bit tags and γ-coded fields —
        // and that gap IS the comparison these rows exist to publish.
        assert!(
            stats.control_bits() > 2 * stats.total_sent(),
            "competitor rows must carry more than two control bits per message"
        );
    }
    assert_eq!(
        stats.flushes_total(),
        stats.frames_sent(),
        "every frame must carry exactly one flush reason"
    );
    if shards == 64 {
        // Header codec v2 acceptance: the per-frame mode chooser never
        // loses to always-gamma at the 64-shard row.
        assert!(
            stats.frame_header_bits() <= stats.frame_header_gamma_bits(),
            "chooser {} > forced gamma {} at {shards} shards",
            stats.frame_header_bits(),
            stats.frame_header_gamma_bits(),
        );
    }
    // Share of cache-consulted reads served locally. With the cache on,
    // every read consults it exactly once, so the denominator is the
    // row's read count; with it off all three counters are zero.
    let consulted = stats.cache_hits() + stats.cache_misses() + stats.cache_fallbacks();
    let local_read_pct = if consulted == 0 {
        0.0
    } else {
        100.0 * stats.cache_hits() as f64 / consulted as f64
    };
    Row {
        algo,
        source,
        mix,
        hold,
        cache,
        shards,
        readers,
        ops,
        wall_ns_per_op: wall_ns / ops as f64,
        msgs: stats.total_sent(),
        frames: stats.frames_sent(),
        msgs_per_frame: stats.messages_per_frame(),
        control_bits: stats.control_bits(),
        routing_bits_unframed: stats.routing_bits(),
        routing_bits_framed: stats.frame_header_bits(),
        routing_bits_framed_gamma: stats.frame_header_gamma_bits(),
        wire_bytes: stats.wire_bytes(),
        bytes_per_op: stats.wire_bytes() as f64 / ops as f64,
        allocs_per_op: allocs as f64 / ops as f64,
        cache_hits: stats.cache_hits(),
        cache_misses: stats.cache_misses(),
        cache_fallbacks: stats.cache_fallbacks(),
        local_read_pct,
        flushes_size: stats.flushes(FlushReason::Size),
        flushes_hold: stats.flushes(FlushReason::Hold),
        flushes_shutdown: stats.flushes(FlushReason::Shutdown),
        mean_hold_us: stats.mean_observed_hold_ns() / 1_000.0,
        lat_p50_us: None,
        lat_p99_us: None,
        lat_p50_ticks: None,
        lat_p99_ticks: None,
    }
}

/// Attach the virtual-time latency twins to a simnet row.
fn with_tick_latencies(mut row: Row, hist: &ShardedHistory<u64>) -> Row {
    let (p50, p99) = latency_percentiles_ticks(hist);
    row.lat_p50_ticks = Some(p50);
    row.lat_p99_ticks = Some(p99);
    row
}

fn measure(shards: usize, readers: usize) -> Row {
    let workload = sweep_workload(shards, readers);
    let mut space = build_space(shards, 42, Hold::Static, CacheMode::Off);
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(space.driver_mut())
        .expect("sweep workload runs");
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    let stats = space.driver().stats();
    let row = row_from_stats(
        "twobit",
        "simnet",
        "uniform",
        Hold::Static.label(),
        "off",
        shards,
        readers,
        workload.len(),
        wall.as_nanos() as f64,
        allocs,
        &stats,
    );
    with_tick_latencies(row, &space.driver().history())
}

/// The recovery steady-state row: the uniform (shards, readers) sweep on
/// a space with crash-recovery support enabled but no crash injected.
/// Its wire traffic is what merely *arming* the lifecycle machinery
/// costs; `assert_recovery_is_free` holds it to within 1.02x of the
/// recovery-disabled uniform twin from the sweep.
fn measure_recovery(shards: usize, readers: usize) -> Row {
    let cfg = SystemConfig::max_resilience(N);
    let workload = sweep_workload(shards, readers);
    let mut space = build_space_with(
        shards,
        42,
        Hold::Static,
        CacheMode::Off,
        true,
        move |reg, id| TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64),
    );
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(space.driver_mut())
        .expect("recovery-armed workload runs");
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    let stats = space.driver().stats();
    assert_eq!(stats.recoveries(), 0, "this row injects no crash");
    let row = row_from_stats(
        "twobit",
        "simnet",
        "recovery",
        Hold::Static.label(),
        "off",
        shards,
        readers,
        workload.len(),
        wall.as_nanos() as f64,
        allocs,
        &stats,
    );
    with_tick_latencies(row, &space.driver().history())
}

/// The three-way head-to-head: the same sweep workload, the same framing,
/// hold, and codec-on delivery — one run with the paper's automaton, one
/// with the MWMR ABD automaton (any process may write, so the identical
/// steps are legal there too), one with the Oh-RAM hybrid-read automaton.
/// Each competitor's history is pushed through its mode's checker
/// (timestamp-order for MWMR, SWMR for Oh-RAM), so every row is a
/// *verified* linearizable execution, not just traffic.
fn measure_head_to_head() -> (Row, Row, Row) {
    let (shards, readers) = HEAD_TO_HEAD;
    let workload = sweep_workload(shards, readers);

    let mut twobit = build_space(shards, 42, Hold::Static, CacheMode::Off);
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(twobit.driver_mut())
        .expect("two-bit head-to-head workload runs");
    let twobit_wall = t0.elapsed();
    let twobit_allocs = allocs_now() - a0;
    let twobit_stats = twobit.driver().stats();

    let cfg = SystemConfig::max_resilience(N);
    let mut mwmr = build_space_with(
        shards,
        42,
        Hold::Static,
        CacheMode::Off,
        false,
        move |_reg, id| MwmrProcess::new(id, cfg, 0u64),
    );
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(mwmr.driver_mut())
        .expect("MWMR head-to-head workload runs");
    let mwmr_wall = t0.elapsed();
    let mwmr_allocs = allocs_now() - a0;
    twobit_lincheck::check_mwmr_sharded(&mwmr.driver().history())
        .expect("the MWMR run must be timestamp-order linearizable");
    let mwmr_stats = mwmr.driver().stats();

    let mut ohram = build_space_with(
        shards,
        42,
        Hold::Static,
        CacheMode::Off,
        false,
        move |reg, id| OhRamProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64),
    );
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(ohram.driver_mut())
        .expect("Oh-RAM head-to-head workload runs");
    let ohram_wall = t0.elapsed();
    let ohram_allocs = allocs_now() - a0;
    twobit_lincheck::check_swmr_sharded(&ohram.driver().history())
        .expect("the Oh-RAM run must be linearizable");
    let ohram_stats = ohram.driver().stats();

    (
        with_tick_latencies(
            row_from_stats(
                "twobit",
                "simnet",
                "headtohead",
                Hold::Static.label(),
                "off",
                shards,
                readers,
                workload.len(),
                twobit_wall.as_nanos() as f64,
                twobit_allocs,
                &twobit_stats,
            ),
            &twobit.driver().history(),
        ),
        with_tick_latencies(
            row_from_stats(
                "mwmr",
                "simnet",
                "headtohead",
                Hold::Static.label(),
                "off",
                shards,
                readers,
                workload.len(),
                mwmr_wall.as_nanos() as f64,
                mwmr_allocs,
                &mwmr_stats,
            ),
            &mwmr.driver().history(),
        ),
        with_tick_latencies(
            row_from_stats(
                "ohram",
                "simnet",
                "headtohead",
                Hold::Static.label(),
                "off",
                shards,
                readers,
                workload.len(),
                ohram_wall.as_nanos() as f64,
                ohram_allocs,
                &ohram_stats,
            ),
            &ohram.driver().history(),
        ),
    )
}

/// One mixed-workload row (zipf95 / readmostly / hotkey) under the given
/// hold policy and cache mode. The `cache: "safe"` twin runs the *same*
/// deterministic workload, so its bytes/allocation deltas against `"off"`
/// are exact, not sampled.
fn measure_mix(mix: &'static str, shards: usize, hold: Hold, cache: CacheMode) -> Row {
    let workload = match mix {
        "zipf95" => zipf_workload(shards, MIX_OPS, 7),
        "readmostly" => readmostly_workload(shards, MIX_OPS, 7),
        "hotkey" => hotkey_workload(MIX_OPS, 7),
        other => unreachable!("unknown mix {other}"),
    };
    let mut space = build_space(shards, 42, hold, cache);
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(space.driver_mut())
        .expect("mixed workload runs");
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    // A cached read must be indistinguishable from a protocol read to the
    // checker: the safe rows are verified executions, same as the rest.
    if cache != CacheMode::Off {
        twobit_lincheck::check_swmr_sharded(&space.driver().history())
            .expect("cached rows must stay atomic");
    }
    let stats = space.driver().stats();
    let row = row_from_stats(
        "twobit",
        "simnet",
        mix,
        hold.label(),
        cache_label(cache),
        shards,
        0,
        workload.len(),
        wall.as_nanos() as f64,
        allocs,
        &stats,
    );
    with_tick_latencies(row, &space.driver().history())
}

/// The Oh-RAM half of the latency pair: the exact read-mostly workload of
/// the `measure_mix("readmostly", shards, hold, Off)` row — same seed,
/// same framing, same codec-on delivery — run on the Oh-RAM hybrid-read
/// automaton instead of the paper's. The history is pushed through the
/// SWMR checker before the stats are published (Oh-RAM changes the delay
/// budget of a read, not the correctness contract), so the row is a
/// verified linearizable execution. `assert_ohram_trades_bits_for_latency`
/// compares it against its two-bit twin on both axes.
fn measure_ohram_mix(shards: usize, hold: Hold) -> Row {
    let cfg = SystemConfig::max_resilience(N);
    let workload = readmostly_workload(shards, MIX_OPS, 7);
    let mut space = build_space_with(shards, 42, hold, CacheMode::Off, false, move |reg, id| {
        OhRamProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
    });
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(space.driver_mut())
        .expect("Oh-RAM read-mostly workload runs");
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    twobit_lincheck::check_swmr_sharded(&space.driver().history())
        .expect("the Oh-RAM run must be linearizable");
    let stats = space.driver().stats();
    let row = row_from_stats(
        "ohram",
        "simnet",
        "readmostly",
        hold.label(),
        "off",
        shards,
        0,
        workload.len(),
        wall.as_nanos() as f64,
        allocs,
        &stats,
    );
    with_tick_latencies(row, &space.driver().history())
}

/// The cache acceptance pair: the same deterministic read-mostly workload
/// run twice with the writer's automaton-level fast read disabled
/// (`writer_fast_read: false`, so every read would run the two-phase
/// protocol) — once with the cache off (`cache: "proto"`) and once with
/// the writer-gated local read cache (`cache: "safe"`). The delta between
/// the two rows is *exactly* what the driver-level cache saves; both
/// histories are checked atomic before their stats are published.
fn measure_cache_pair(shards: usize, hold: Hold) -> (Row, Row) {
    let cfg = SystemConfig::max_resilience(N);
    let options = TwoBitOptions {
        writer_fast_read: false,
        ..TwoBitOptions::default()
    };
    let workload = readmostly_workload(shards, MIX_OPS, 7);
    let run = |cache: CacheMode, label: &'static str| -> Row {
        let mut space = build_space_with(shards, 42, hold, cache, false, move |reg, id| {
            TwoBitProcess::with_options(id, cfg, ProcessId::new(reg.index() % N), 0u64, options)
        });
        let a0 = allocs_now();
        let t0 = Instant::now();
        workload
            .run_pipelined_on(space.driver_mut())
            .expect("cache-pair workload runs");
        let wall = t0.elapsed();
        let allocs = allocs_now() - a0;
        twobit_lincheck::check_swmr_sharded(&space.driver().history())
            .expect("cache-pair rows must stay atomic");
        let stats = space.driver().stats();
        let row = row_from_stats(
            "twobit",
            "simnet",
            "readmostly",
            hold.label(),
            label,
            shards,
            0,
            workload.len(),
            wall.as_nanos() as f64,
            allocs,
            &stats,
        );
        with_tick_latencies(row, &space.driver().history())
    };
    (run(CacheMode::Off, "proto"), run(CacheMode::Safe, "safe"))
}

/// The same portable workload on the reactor transport, the live-socket
/// backend: the bytes column is what was handed to the kernel, every link
/// multiplexed over a 4-thread event-loop pool. Published as
/// `source: "reactor"`. Parameterized over the automaton so the live-socket
/// clock domain (`lat_p50_us`) is populated for the Oh-RAM competitor under
/// *exactly* the framing and flush setup of the two-bit row.
fn measure_reactor<A, F>(
    algo: &'static str,
    shards: usize,
    readers: usize,
    hold: Hold,
    make: F,
) -> Row
where
    A: Automaton<Value = u64>,
    F: FnMut(RegisterId, ProcessId) -> A,
{
    let cfg = SystemConfig::max_resilience(N);
    let workload = sweep_workload(shards, readers);
    let policy = match hold {
        Hold::Static => {
            FlushPolicy::fixed(64, std::time::Duration::from_micros(LIVE_STATIC_HOLD_US))
        }
        Hold::Adaptive => FlushPolicy::adaptive(
            64,
            std::time::Duration::ZERO,
            std::time::Duration::from_micros(LIVE_ADAPTIVE_CEIL_US),
        ),
    };
    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(shards)
        .flush_policy(policy)
        .build_sharded(0u64, make)
        .expect("loopback reactor cluster starts");
    let a0 = allocs_now();
    let t0 = Instant::now();
    workload
        .run_pipelined_on(&mut node)
        .expect("workload runs over the reactor");
    let wall = t0.elapsed();
    let allocs = allocs_now() - a0;
    let (history, stats) = node.shutdown();
    twobit_lincheck::check_swmr_sharded(&history)
        .expect("reactor rows are verified executions, not just traffic");
    assert!(
        stats.wire_bytes() > 0,
        "reactor rows must populate bytes-on-wire"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "reactor teardown reconciliation (resend epochs counted once)"
    );
    assert_eq!(
        stats.reconnects(),
        0,
        "a healthy loopback bench run never reconnects"
    );
    let mut row = row_from_stats(
        algo,
        "reactor",
        "uniform",
        hold.label(),
        "off",
        shards,
        readers,
        workload.len(),
        wall.as_nanos() as f64,
        allocs,
        &stats,
    );
    let (p50, p99) = latency_percentiles_us(&history);
    row.lat_p50_us = Some(p50);
    row.lat_p99_us = Some(p99);
    row
}

/// One model-checking throughput row: how big the DPOR-reduced schedule
/// space of a canonical configuration is and how fast the explorer walks
/// it. Published under `source: "modelcheck"` so checker-throughput
/// regressions show up in the bench trajectory next to the wire numbers
/// (the wire columns don't apply and are omitted; CI's per-row wire
/// checks skip this source).
struct CheckRow {
    algo: &'static str,
    scenario: String,
    strategy: &'static str,
    paths_explored: u64,
    paths_pruned: u64,
    replays: u64,
    max_depth: u64,
    exhausted: bool,
    wall_ms: f64,
}

fn measure_modelcheck_one<A: Automaton>(
    algo: &'static str,
    scenario: &twobit_check::Scenario<A>,
    strategy: Strategy,
) -> CheckRow {
    let opts = ExploreOptions {
        strategy,
        ..ExploreOptions::default()
    };
    let t0 = Instant::now();
    let report = explore(scenario, &opts).expect("exploration runs");
    let wall = t0.elapsed();
    assert!(
        report.violation.is_none(),
        "the published modelcheck rows are the positive configurations: {:?}",
        report.violation
    );
    CheckRow {
        algo,
        scenario: scenario.name.clone(),
        strategy: match strategy {
            Strategy::Dpor => "dpor",
            Strategy::Naive => "naive",
        },
        paths_explored: report.stats.paths_explored,
        paths_pruned: report.stats.paths_pruned,
        replays: report.stats.replays,
        max_depth: report.stats.max_depth as u64,
        exhausted: report.exhausted,
        wall_ms: wall.as_secs_f64() * 1_000.0,
    }
}

/// The published exploration sweep: the writer-plus-concurrent-reader
/// configuration under DPOR, the single-writer configuration under both
/// strategies (so the reduction factor itself is a trajectory number),
/// the two-concurrent-writer MWMR space, and the Oh-RAM
/// writer-plus-concurrent-reader space — one throughput row per hosted
/// algorithm.
fn measure_modelcheck() -> Vec<CheckRow> {
    let out = vec![
        measure_modelcheck_one("twobit", &scenarios::twobit_swmr_wr(), Strategy::Dpor),
        measure_modelcheck_one("twobit", &scenarios::twobit_swmr_w(), Strategy::Dpor),
        measure_modelcheck_one("twobit", &scenarios::twobit_swmr_w(), Strategy::Naive),
        measure_modelcheck_one("mwmr", &scenarios::mwmr_two_writer(), Strategy::Dpor),
        measure_modelcheck_one("ohram", &scenarios::ohram_swmr_wr(), Strategy::Dpor),
    ];
    for r in &out {
        assert!(r.exhausted, "published modelcheck rows must be exhaustive");
    }
    let dpor = out
        .iter()
        .find(|r| r.strategy == "dpor" && r.scenario.contains("swmr-w/"))
        .expect("single-writer dpor row present");
    let naive = out
        .iter()
        .find(|r| r.strategy == "naive")
        .expect("single-writer naive row present");
    assert!(
        naive.paths_explored >= 4 * dpor.paths_explored,
        "DPOR reduction collapsed in the published rows: dpor={} naive={}",
        dpor.paths_explored,
        naive.paths_explored,
    );
    out
}

fn write_json(rows: &[Row], check_rows: &[CheckRow]) {
    let mut out = String::from("{\n  \"bench\": \"shard_scaling_framed\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"n\": {N}, \"rounds\": {ROUNDS}, \"mix_ops\": {MIX_OPS}, \
         \"read_pct\": {READ_PCT}, \"wire_codec\": true, \
         \"simnet_static_hold_ticks\": {STATIC_HOLD}, \
         \"simnet_adaptive_hold_ticks\": [0, 2000], \
         \"live_static_hold_us\": {LIVE_STATIC_HOLD_US}, \
         \"live_adaptive_hold_us\": [0, {LIVE_ADAPTIVE_CEIL_US}], \"max_batch\": 64, \
         \"transport\": \"frames\"}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // No unframed baseline at 1 shard (routing is free either way):
        // emit null rather than a misleading perfect ratio.
        let ratio = if r.routing_bits_unframed == 0 {
            "null".to_string()
        } else {
            format!(
                "{:.3}",
                r.routing_bits_framed as f64 / r.routing_bits_unframed as f64
            )
        };
        out.push_str(&format!(
            "    {{\"algo\": \"{}\", \"source\": \"{}\", \"mix\": \"{}\", \"hold\": \"{}\", \
             \"cache\": \"{}\", \"shards\": {}, \
             \"readers\": {}, \
             \"ops\": {}, \"wall_ns_per_op\": {:.1}, \"msgs\": {}, \"frames\": {}, \
             \"msgs_per_frame\": {:.2}, \"control_bits\": {}, \
             \"routing_bits_unframed\": {}, \"routing_bits_framed\": {}, \
             \"routing_bits_framed_gamma\": {}, \"framed_over_unframed\": {}, \
             \"wire_bytes\": {}, \"bytes_per_op\": {:.1}, \"allocs_per_op\": {:.1}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_fallbacks\": {}, \
             \"local_read_pct\": {:.1}, \
             \"flushes_size\": {}, \"flushes_hold\": {}, \"flushes_shutdown\": {}, \
             \"mean_hold_us\": {:.2}, \"lat_p50_us\": {}, \"lat_p99_us\": {}, \
             \"lat_p50_ticks\": {}, \"lat_p99_ticks\": {}}}{}\n",
            r.algo,
            r.source,
            r.mix,
            r.hold,
            r.cache,
            r.shards,
            r.readers,
            r.ops,
            r.wall_ns_per_op,
            r.msgs,
            r.frames,
            r.msgs_per_frame,
            r.control_bits,
            r.routing_bits_unframed,
            r.routing_bits_framed,
            r.routing_bits_framed_gamma,
            ratio,
            r.wire_bytes,
            r.bytes_per_op,
            r.allocs_per_op,
            r.cache_hits,
            r.cache_misses,
            r.cache_fallbacks,
            r.local_read_pct,
            r.flushes_size,
            r.flushes_hold,
            r.flushes_shutdown,
            r.mean_hold_us,
            r.lat_p50_us
                .map_or("null".to_string(), |v| format!("{v:.1}")),
            r.lat_p99_us
                .map_or("null".to_string(), |v| format!("{v:.1}")),
            r.lat_p50_ticks
                .map_or("null".to_string(), |v| v.to_string()),
            r.lat_p99_ticks
                .map_or("null".to_string(), |v| v.to_string()),
            if i + 1 == rows.len() && check_rows.is_empty() {
                ""
            } else {
                ","
            },
        ));
    }
    for (i, r) in check_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algo\": \"{}\", \"source\": \"modelcheck\", \"mix\": \"{}\", \
             \"strategy\": \"{}\", \"paths_explored\": {}, \"paths_pruned\": {}, \
             \"replays\": {}, \"max_depth\": {}, \"exhausted\": {}, \
             \"wall_ms\": {:.1}}}{}\n",
            r.algo,
            r.scenario,
            r.strategy,
            r.paths_explored,
            r.paths_pruned,
            r.replays,
            r.max_depth,
            r.exhausted,
            r.wall_ms,
            if i + 1 == check_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frames.json");
    std::fs::write(path, out).expect("write BENCH_frames.json");
    println!("wrote {path}");
}

/// The in-bench acceptance bar (CI re-checks it from the JSON): the
/// adaptive hold must match or beat the static default on bytes-on-wire
/// for the zipfian and read-mostly rows. Both runs are deterministic
/// simnet executions of the same workload, so the comparison is exact.
fn assert_adaptive_not_worse(rows: &[Row]) {
    for mix in ["zipf95", "readmostly"] {
        for r in rows.iter().filter(|r| r.mix == mix && r.hold == "adaptive") {
            let static_row = rows
                .iter()
                .find(|s| {
                    s.algo == r.algo
                        && s.mix == mix
                        && s.hold == "static"
                        && s.shards == r.shards
                        && s.cache == r.cache
                })
                .expect("every adaptive row has a static twin");
            assert!(
                r.wire_bytes <= static_row.wire_bytes,
                "adaptive loses to static on {mix}/{} shards: {} > {} wire bytes",
                r.shards,
                r.wire_bytes,
                static_row.wire_bytes,
            );
        }
    }
}

/// The read-cache acceptance bar (CI re-checks it from the JSON): every
/// `cache: "safe"` read-mostly row must serve a real share of its reads
/// locally and beat its `cache: "proto"` twin — same workload, same hold,
/// same deterministic schedule, same (fast-read-disabled) automaton — on
/// both bytes-on-wire and allocations per operation. A cache that hits
/// nothing, or whose bookkeeping costs more than the protocol traffic it
/// saves, fails the bench.
fn assert_safe_cache_pays(rows: &[Row]) {
    let safe_rows: Vec<&Row> = rows.iter().filter(|r| r.cache == "safe").collect();
    assert!(
        !safe_rows.is_empty(),
        "the trajectory must include cache-on rows"
    );
    for r in safe_rows {
        let off = rows
            .iter()
            .find(|s| {
                s.cache == "proto" && s.mix == r.mix && s.hold == r.hold && s.shards == r.shards
            })
            .expect("every safe row has a proto twin");
        assert!(
            r.local_read_pct > 0.0 && r.cache_hits > 0,
            "safe cache never hit on {}/{}/{} shards",
            r.mix,
            r.hold,
            r.shards,
        );
        assert!(
            r.wire_bytes < off.wire_bytes,
            "safe cache must cut wire bytes on {}/{}/{} shards: {} >= {}",
            r.mix,
            r.hold,
            r.shards,
            r.wire_bytes,
            off.wire_bytes,
        );
        assert!(
            r.allocs_per_op < off.allocs_per_op,
            "safe cache must cut allocations on {}/{}/{} shards: {:.1} >= {:.1}",
            r.mix,
            r.hold,
            r.shards,
            r.allocs_per_op,
            off.allocs_per_op,
        );
    }
}

/// The recovery acceptance bar (CI re-checks it from the JSON): arming
/// the crash-recovery machinery must be free until someone crashes. The
/// `mix: "recovery"` row runs the exact workload of the uniform
/// (16 shards, 2 readers) static sweep row on the same seed, so its
/// steady-state `wire_bytes` must stay within 1.02x of that
/// recovery-disabled twin.
fn assert_recovery_is_free(rows: &[Row]) {
    let rec = rows
        .iter()
        .find(|r| r.mix == "recovery")
        .expect("recovery row present");
    let twin = rows
        .iter()
        .find(|r| {
            r.source == "simnet"
                && r.mix == "uniform"
                && r.shards == rec.shards
                && r.readers == rec.readers
                && r.hold == rec.hold
                && r.cache == rec.cache
        })
        .expect("the recovery row has a recovery-disabled uniform twin");
    assert!(
        rec.wire_bytes as f64 <= twin.wire_bytes as f64 * 1.02,
        "arming recovery taxes the steady state: {} > {} * 1.02 wire bytes",
        rec.wire_bytes,
        twin.wire_bytes,
    );
}

/// The head-to-head acceptance bar (CI re-checks it from the JSON): under
/// identical workload, framing and codec-on delivery, the two-bit protocol
/// must beat its multi-writer competitor on bytes-on-wire and on control
/// bits — the paper's headline, finally measured against the MWMR
/// baseline instead of asserted beside it.
fn assert_two_bit_beats_mwmr(rows: &[Row]) {
    let of = |algo: &str| {
        rows.iter()
            .find(|r| r.mix == "headtohead" && r.algo == algo)
            .unwrap_or_else(|| panic!("missing headtohead {algo} row"))
    };
    let twobit = of("twobit");
    let mwmr = of("mwmr");
    assert!(
        twobit.wire_bytes < mwmr.wire_bytes,
        "two-bit must beat MWMR on bytes-on-wire: {} vs {}",
        twobit.wire_bytes,
        mwmr.wire_bytes
    );
    assert!(
        twobit.control_bits < mwmr.control_bits,
        "two-bit must beat MWMR on control bits: {} vs {}",
        twobit.control_bits,
        mwmr.control_bits
    );
}

/// The latency-pair acceptance bar (CI re-checks it from the JSON): on
/// the deterministic read-mostly simnet pair — same workload, same seed,
/// same framing and codec-on delivery — the Oh-RAM hybrid read must beat
/// the two-bit protocol on median virtual-tick latency (its common-case
/// read is one round where two-bit needs the read/confirmation
/// exchange), while the two-bit protocol must keep winning bytes-on-wire
/// *and* control bits (Oh-RAM's relay round is Θ(n²) messages per read).
/// Both directions failing-closed is the point: the trade is real, not a
/// strictly-dominated competitor.
fn assert_ohram_trades_bits_for_latency(rows: &[Row]) {
    let of = |algo: &str| {
        rows.iter()
            .find(|r| {
                r.algo == algo
                    && r.source == "simnet"
                    && r.mix == "readmostly"
                    && r.hold == "static"
                    && r.cache == "off"
                    && r.shards == HEAD_TO_HEAD.0
            })
            .unwrap_or_else(|| panic!("missing readmostly latency-pair {algo} row"))
    };
    let twobit = of("twobit");
    let ohram = of("ohram");
    let (t_p50, o_p50) = (
        twobit
            .lat_p50_ticks
            .expect("simnet rows carry tick latency"),
        ohram.lat_p50_ticks.expect("simnet rows carry tick latency"),
    );
    assert!(
        o_p50 < t_p50,
        "Oh-RAM must beat two-bit on read-mostly median latency: {o_p50} >= {t_p50} ticks"
    );
    assert!(
        twobit.wire_bytes < ohram.wire_bytes,
        "two-bit must keep winning bytes-on-wire: {} vs {}",
        twobit.wire_bytes,
        ohram.wire_bytes
    );
    assert!(
        twobit.control_bits < ohram.control_bits,
        "two-bit must keep winning control bits: {} vs {}",
        twobit.control_bits,
        ohram.control_bits
    );
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("register_space_shard_scaling");
    g.sample_size(10);
    for &shards in &SHARD_COUNTS {
        for &readers in &READER_COUNTS {
            g.bench_with_input(
                BenchmarkId::new(format!("shards{shards}"), format!("readers{readers}")),
                &(shards, readers),
                |b, &(shards, readers)| {
                    let workload = sweep_workload(shards, readers);
                    b.iter(|| {
                        let mut space = build_space(shards, 42, Hold::Static, CacheMode::Off);
                        workload
                            .run_pipelined_on(space.driver_mut())
                            .expect("sweep workload runs");
                        space.driver().stats().total_sent()
                    });
                },
            );
        }
    }
    g.finish();
}

fn main() {
    // BENCH_FAST=1 skips criterion sampling and emits the JSON trajectory
    // only — the mode CI's bench smoke job runs.
    let fast = std::env::var_os("BENCH_FAST").is_some();
    if !fast {
        let mut c = Criterion::default();
        bench_shard_scaling(&mut c);
    }
    // Single measured pass per point for the JSON trajectory seed.
    let mut rows: Vec<Row> = SHARD_COUNTS
        .iter()
        .flat_map(|&s| READER_COUNTS.iter().map(move |&r| measure(s, r)))
        .collect();
    for hold in [Hold::Static, Hold::Adaptive] {
        rows.extend(
            SHARD_COUNTS
                .iter()
                .map(|&s| measure_mix("zipf95", s, hold, CacheMode::Off)),
        );
        // The read-mostly rows run three times: the paper-default baseline,
        // then the proto/safe cache acceptance pair CI compares.
        for &s in &[16, 64] {
            rows.push(measure_mix("readmostly", s, hold, CacheMode::Off));
            let (proto_row, safe_row) = measure_cache_pair(s, hold);
            rows.push(proto_row);
            rows.push(safe_row);
        }
        rows.push(measure_mix("hotkey", 16, hold, CacheMode::Off));
    }
    // The Oh-RAM half of the latency pair: the 16-shard static-hold
    // read-mostly twin of the `measure_mix` row pushed above.
    rows.push(measure_ohram_mix(HEAD_TO_HEAD.0, Hold::Static));
    // The live-socket rows; the Oh-RAM twin gives both algorithms
    // wall-clock latency percentiles, not just the virtual-tick ones.
    let cfg = SystemConfig::max_resilience(N);
    for hold in [Hold::Static, Hold::Adaptive] {
        rows.push(measure_reactor("twobit", 16, 2, hold, |reg, id| {
            TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
        }));
    }
    rows.push(measure_reactor("ohram", 16, 2, Hold::Static, |reg, id| {
        OhRamProcess::new(id, cfg, ProcessId::new(reg.index() % N), 0u64)
    }));
    let (twobit_row, mwmr_row, ohram_row) = measure_head_to_head();
    rows.push(twobit_row);
    rows.push(mwmr_row);
    rows.push(ohram_row);
    rows.push(measure_recovery(16, 2));
    assert_adaptive_not_worse(&rows);
    assert_safe_cache_pays(&rows);
    assert_two_bit_beats_mwmr(&rows);
    assert_ohram_trades_bits_for_latency(&rows);
    assert_recovery_is_free(&rows);
    let check_rows = measure_modelcheck();
    write_json(&rows, &check_rows);
}
