//! The deterministic deployment and workloads behind the pinned count
//! table of `frame_semantics.rs` and the allocation comparisons of
//! `alloc_budget.rs`, written once: n = 5 on seed 42, uniform 1..1000-tick
//! delays, every frame through the byte codec, and 400-op 95/5 mixes on
//! workload seed 7.

// Each test binary compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twobit::{
    Automaton, CacheMode, DelayModel, Operation, ProcessId, RegisterId, SimSpace, SpaceBuilder,
    SystemConfig, VirtualHold, Workload,
};

pub const N: usize = 5;

/// The static hold: half the delay bound.
pub const STATIC: VirtualHold = VirtualHold::Static(500);

/// The adaptive band: idle links flush at once, bursty ones may hold up
/// to 4× the static window.
pub const ADAPTIVE: VirtualHold = VirtualHold::Adaptive {
    floor: 0,
    ceil: 2_000,
};

/// Operations per mixed workload, and their read share in percent.
const MIX_OPS: usize = 400;
const READ_PCT: u64 = 95;

pub fn cfg() -> SystemConfig {
    SystemConfig::max_resilience(N)
}

/// Register rk's writer is process k mod n.
pub fn writer_of(reg: RegisterId) -> ProcessId {
    ProcessId::new(reg.index() % N)
}

/// The deployment every pinned row runs on. `recovery` arms the
/// crash-recovery machinery without injecting a crash.
pub fn space<A: Automaton<Value = u64>>(
    shards: usize,
    hold: VirtualHold,
    cache: CacheMode,
    recovery: bool,
    make: impl FnMut(RegisterId, ProcessId) -> A,
) -> SimSpace<A> {
    SpaceBuilder::new(cfg())
        .seed(42)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        .flush_hold_policy(hold)
        .wire_codec(true)
        .cache_mode(cache)
        .recovery(recovery)
        .registers(shards)
        .build(0u64, make)
}

/// One write + `readers` reads per register per round, pipelined across
/// shards.
pub fn sweep_workload(shards: usize, readers: usize, rounds: u64) -> Workload<u64> {
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

/// Read-mostly with register popularity ~ Zipf(1.0) over the shards.
pub fn zipf_workload(shards: usize) -> Workload<u64> {
    // Cumulative weights w_r = 1/rank.
    let cum: Vec<f64> = (1..=shards)
        .scan(0.0, |total, rank| {
            *total += 1.0 / rank as f64;
            Some(*total)
        })
        .collect();
    let total = cum[shards - 1];
    mixed(move |rng| {
        let u = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64 * total;
        cum.partition_point(|&c| c < u).min(shards - 1)
    })
}

/// Read-mostly with uniform register popularity.
pub fn readmostly_workload(shards: usize) -> Workload<u64> {
    mixed(move |rng| rng.gen_range(0usize..shards))
}

/// Every operation on r0; the other shards are hosted but idle.
pub fn hotkey_workload() -> Workload<u64> {
    mixed(|_| 0)
}

/// The 95/5 mixes: each step's register is drawn by `pick`, then either a
/// read from a rotating process — the register's own writer included, so
/// `CacheMode::Safe`'s co-location gate has traffic to serve — or a write
/// from the register's writer.
fn mixed(mut pick: impl FnMut(&mut StdRng) -> usize) -> Workload<u64> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut w = Workload::new();
    let mut next_value = 1u64;
    for i in 0..MIX_OPS {
        let k = pick(&mut rng);
        let reg = RegisterId::new(k);
        let writer = k % N;
        w = if rng.gen_range(0u64..100) < READ_PCT {
            w.step((writer + i % N) % N, reg, Operation::Read)
        } else {
            next_value += 1;
            w.step(writer, reg, Operation::Write(next_value))
        };
    }
    w
}
