//! The epoch-reclaimed local read cache, end to end through the facade:
//! cached reads interleave with protocol reads and remote writes, and the
//! combined histories must stay atomic on every backend and every seed.
//!
//! The safety argument lives in `docs/read-cache.md` and is model-checked
//! in `crates/check` (`twobit_swmr_cached` and its ablated negative
//! control); these tests exercise the same gate under *live* concurrency
//! and randomized simulator schedules, where the cache serves real traffic
//! rather than a scripted handful of operations.

use twobit::lincheck::check_swmr_sharded;
use twobit::{
    CacheMode, ClusterBuilder, DelayModel, Driver, Operation, ProcessId, RegisterId, SpaceBuilder,
    SystemConfig, TwoBitProcess, Workload,
};

const N: usize = 5;
const REGISTERS: usize = 2;

fn cfg() -> SystemConfig {
    SystemConfig::max_resilience(N)
}

fn writer_of(reg: RegisterId) -> ProcessId {
    ProcessId::new(reg.index() % N)
}

/// Writers keep writing and re-reading their own registers (cache hits)
/// while every other process reads through the protocol. Pipelined, so
/// the cached reads overlap remote protocol reads in real time.
fn mixed_cache_workload() -> Workload<u64> {
    let mut w = Workload::new();
    for round in 1..=8u64 {
        for k in 0..REGISTERS {
            let reg = RegisterId::new(k);
            let writer = writer_of(reg);
            w = w.step(writer, reg, Operation::Write(1000 * (k as u64 + 1) + round));
            w = w.step(writer, reg, Operation::Read);
            for other in 1..N {
                w = w.step((writer.index() + other) % N, reg, Operation::Read);
            }
        }
    }
    w
}

/// Live chaos-link cluster: cached reads race genuinely concurrent protocol
/// reads from four other processes, and the full history linearizes. The
/// writer's re-reads are served locally — the hit counter must show it.
#[test]
fn cached_reads_stay_atomic_under_live_concurrency() {
    let cfg = cfg();
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(21)
        .registers(REGISTERS)
        .cache_mode(CacheMode::Safe)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    let w = mixed_cache_workload();
    w.run_pipelined_on(&mut cluster).expect("workload runs");
    let sharded = Driver::history(&cluster);
    assert_eq!(sharded.total_ops(), w.len(), "every op completed");
    check_swmr_sharded(&sharded).expect("cached + protocol reads linearize");
    let (_, stats) = cluster.shutdown();
    assert!(
        stats.cache_hits() > 0,
        "the writer's re-reads must be served from the cache"
    );
    assert!(
        stats.cache_fallbacks() > 0,
        "non-writer reads must be refused by the gate, not served"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "cache hits bypass the network without breaking accounting"
    );
}

/// Deterministic simulator sweep: across many seeds and jittery delay
/// models, the gated cache never costs atomicity, and on every seed the
/// writer's own reads hit while remote reads fall back.
#[test]
fn cached_reads_stay_atomic_across_simulated_schedules() {
    let cfg = cfg();
    for seed in 0..20u64 {
        let mut sim = SpaceBuilder::new(cfg)
            .seed(seed)
            .registers(REGISTERS)
            .delay(DelayModel::Uniform { lo: 1, hi: 400 })
            .cache_mode(CacheMode::Safe)
            .build(0u64, |reg, id| {
                TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
            });
        let w = mixed_cache_workload();
        w.run_pipelined_on(&mut sim).expect("workload runs");
        check_swmr_sharded(&sim.history())
            .unwrap_or_else(|e| panic!("seed {seed}: not atomic: {e}"));
        let stats = sim.stats();
        assert!(stats.cache_hits() > 0, "seed {seed}: no hits");
        assert!(
            stats.cache_fallbacks() > 0,
            "seed {seed}: gate never engaged"
        );
    }
}

/// `CacheMode::Off` really is off: byte-for-byte the pre-cache behavior,
/// zero cache counters, identical history shape.
#[test]
fn off_mode_keeps_counters_at_zero() {
    let cfg = cfg();
    let mut sim = SpaceBuilder::new(cfg)
        .seed(3)
        .registers(REGISTERS)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    mixed_cache_workload().run_on(&mut sim).unwrap();
    let stats = sim.stats();
    assert_eq!(stats.cache_hits(), 0);
    assert_eq!(stats.cache_misses(), 0);
    assert_eq!(stats.cache_fallbacks(), 0);
    check_swmr_sharded(&sim.history()).unwrap();
}
