//! Backend equivalence through the `Driver` trait: one workload definition
//! — no backend-specific code — executes on the deterministic simulator, on
//! the live chaos-link cluster and on the reactor's real sockets, and every
//! run must be atomic per register.
//!
//! This is the contract the API redesign exists to enforce: anything
//! expressible as a `Workload` means the same thing on every backend.

use std::time::{Duration, Instant};

use twobit::lincheck::{check_mwmr_sharded, check_swmr_sharded};
use twobit::{
    CacheMode, ClusterBuilder, DelayModel, Driver, DriverError, FlushPolicy, Lifecycle,
    MwmrProcess, OhRamProcess, OpOutcome, Operation, ProcessId, ReactorClusterBuilder, RegisterId,
    SpaceBuilder, SystemConfig, TwoBitProcess, VirtualHold, Workload,
};

const N: usize = 5;
const REGISTERS: usize = 4;

fn cfg() -> SystemConfig {
    SystemConfig::max_resilience(N)
}

/// Register rk's writer is process k mod n (SWMR per register; different
/// registers have different writers, which only a sharded deployment can
/// express).
fn writer_of(reg: RegisterId) -> ProcessId {
    ProcessId::new(reg.index() % N)
}

/// A mixed read/write script across 4 registers and all 5 processes.
fn workload() -> Workload<u64> {
    let mut w = Workload::new();
    for round in 0..6u64 {
        for k in 0..REGISTERS {
            let reg = RegisterId::new(k);
            let writer = writer_of(reg);
            w = w.step(writer, reg, Operation::Write(100 * (k as u64 + 1) + round));
            // Two readers per register per round.
            w = w.step((writer.index() + 1) % N, reg, Operation::Read);
            w = w.step((writer.index() + 2) % N, reg, Operation::Read);
        }
    }
    w
}

fn check_backend<D: Driver<Value = u64>>(driver: &mut D, label: &str) {
    let w = workload();
    w.run_on(driver).unwrap_or_else(|e| panic!("{label}: {e}"));
    let sharded = driver.history();
    assert_eq!(sharded.len(), REGISTERS, "{label}: register count");
    assert_eq!(sharded.total_ops(), w.len(), "{label}: op count");
    let verdicts =
        check_swmr_sharded(&sharded).unwrap_or_else(|e| panic!("{label}: not atomic: {e}"));
    for (reg, verdict) in &verdicts {
        assert_eq!(verdict.writes, 6, "{label}: {reg} writes");
        assert_eq!(verdict.reads_checked, 12, "{label}: {reg} reads");
    }
}

#[test]
fn same_workload_runs_on_simulator_backend() {
    let cfg = cfg();
    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    check_backend(&mut sim, "simnet");
}

#[test]
fn same_workload_runs_on_runtime_backend() {
    let cfg = cfg();
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    check_backend(&mut cluster, "runtime");
}

#[test]
fn same_workload_runs_on_reactor_backend() {
    let cfg = cfg();
    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    check_backend(&mut node, "reactor");
    let stats = node.stats();
    assert!(
        stats.wire_bytes() > 0,
        "reactor: the workload crossed real sockets as encoded frames"
    );
    assert_eq!(stats.reconnects(), 0, "reactor: no failures were injected");
}

/// The reactor backend and the simulator agree per register: same
/// completed operation counts, same per-register atomicity verdicts, and
/// the same written-value sequences — the reactor is an execution
/// substrate, not a semantics change.
#[test]
fn reactor_histories_match_simnet_per_register() {
    let cfg = cfg();
    let w = workload();

    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .wire_codec(true)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    w.run_on(&mut sim).unwrap();
    let sim_hist = sim.history();
    let sim_verdicts = check_swmr_sharded(&sim_hist).unwrap();

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    w.run_on(&mut node).unwrap();
    let (node_hist, node_stats) = node.shutdown();
    let node_verdicts = check_swmr_sharded(&node_hist).unwrap();

    assert_eq!(sim_hist.len(), node_hist.len(), "register count");
    assert_eq!(sim_hist.total_ops(), node_hist.total_ops(), "op count");
    for ((reg_s, v_s), (reg_r, v_r)) in sim_verdicts.iter().zip(node_verdicts.iter()) {
        assert_eq!(reg_s, reg_r);
        assert_eq!(v_s.writes, v_r.writes, "{reg_s}: write count");
        assert_eq!(v_s.reads_checked, v_r.reads_checked, "{reg_s}: read count");
    }
    for (reg, sim_shard) in sim_hist.iter() {
        let node_shard = node_hist.shard(reg).unwrap();
        let writes = |h: &twobit::History<u64>| -> Vec<u64> {
            h.records
                .iter()
                .filter_map(|r| r.op.written_value().copied())
                .collect()
        };
        assert_eq!(writes(sim_shard), writes(node_shard), "{reg}: write values");
    }
    assert_eq!(
        node_stats.total_delivered()
            + node_stats.dropped_to_crashed()
            + node_stats.messages_abandoned(),
        node_stats.total_sent(),
        "reactor: delivered + dropped + abandoned == sent"
    );
}

/// The adaptive flush policy is a transport knob, not a semantics knob:
/// the same workload under auto-tuned per-link holds (plus a per-link
/// override, exercising asymmetric configurations) must still produce
/// linearizable sharded histories on all three backends, with every frame
/// carrying a flush reason.
#[test]
fn adaptive_flush_policies_stay_linearizable_on_all_backends() {
    let cfg = cfg();

    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .flush_hold_policy(VirtualHold::Adaptive {
            floor: 0,
            ceil: 1_500,
        })
        .flush_hold_for(0, 1, VirtualHold::Static(0))
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    check_backend(&mut sim, "simnet/adaptive");
    let stats = sim.stats();
    assert_eq!(
        stats.flushes_total(),
        stats.frames_sent(),
        "simnet/adaptive: one flush reason per frame"
    );

    let adaptive = FlushPolicy::adaptive(64, Duration::ZERO, Duration::from_micros(300));
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .flush_policy(adaptive)
        .flush_policy_for(0, 1, FlushPolicy::immediate())
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    check_backend(&mut cluster, "runtime/adaptive");
    let stats = Driver::stats(&cluster);
    assert_eq!(
        stats.flushes_total(),
        stats.frames_sent(),
        "runtime/adaptive: one flush reason per frame"
    );

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .flush_policy(adaptive)
        .flush_policy_for(0, 1, FlushPolicy::immediate())
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    check_backend(&mut node, "reactor/adaptive");
    let (_, stats) = node.shutdown();
    assert_eq!(
        stats.links_abandoned(),
        0,
        "reactor/adaptive: no failed links"
    );
    assert_eq!(
        stats.flushes_total(),
        stats.frames_sent(),
        "reactor/adaptive: one flush reason per frame"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.messages_abandoned(),
        stats.total_sent(),
        "reactor/adaptive: delivered + dropped + abandoned == sent"
    );
}

/// A script whose cache decisions are fully determined: each round writes
/// a register, lets its writer re-read it (the safety gate admits exactly
/// this), then reads it from a non-writer (the gate refuses). Run
/// sequentially, every backend must make the *same* decisions.
fn cached_workload() -> Workload<u64> {
    let mut w = Workload::new();
    for round in 0..6u64 {
        for k in 0..REGISTERS {
            let reg = RegisterId::new(k);
            let writer = writer_of(reg);
            w = w.step(writer, reg, Operation::Write(100 * (k as u64 + 1) + round));
            // The writer's own read: served from its local cache.
            w = w.step(writer, reg, Operation::Read);
            // A non-writer's read: always through the protocol.
            w = w.step((writer.index() + 1) % N, reg, Operation::Read);
        }
    }
    w
}

/// The local read cache is a semantics-preserving optimization and its hit
/// accounting is part of the backend contract: simulator, chaos cluster
/// and real TCP must agree on the exact cache hit/miss/fallback counts for
/// a deterministic sequential script, all three histories must stay
/// atomic, and message accounting must still reconcile.
#[test]
fn safe_read_cache_decisions_agree_across_backends() {
    let cfg = cfg();
    // 6 rounds × 4 registers: every writer-read after the first write hits.
    let expect_hits = 6 * REGISTERS as u64;
    // Per (register, non-writer) pair the first read finds an empty slot
    // (miss), the remaining five find a gated entry (fallback).
    let expect_misses = REGISTERS as u64;
    let expect_fallbacks = 5 * REGISTERS as u64;

    let check = |label: &str, hist: &twobit::proto::ShardedHistory<u64>| {
        let verdicts =
            check_swmr_sharded(hist).unwrap_or_else(|e| panic!("{label}: not atomic: {e}"));
        for (reg, verdict) in &verdicts {
            assert_eq!(verdict.writes, 6, "{label}: {reg} writes");
            assert_eq!(verdict.reads_checked, 12, "{label}: {reg} reads");
        }
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .cache_mode(CacheMode::Safe)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    cached_workload().run_on(&mut sim).unwrap();
    check("simnet/cache", &sim.history());
    // Drain trailing quorum acks before reconciling delivery accounting.
    sim.run_to_quiescence().unwrap();
    let sim_stats = sim.stats();

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .cache_mode(CacheMode::Safe)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    cached_workload().run_on(&mut cluster).unwrap();
    check("runtime/cache", &Driver::history(&cluster));
    let rt_stats = Driver::stats(&cluster);

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .cache_mode(CacheMode::Safe)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    cached_workload().run_on(&mut node).unwrap();
    check("reactor/cache", &Driver::history(&node));
    let (_, node_stats) = node.shutdown();

    for (label, stats) in [
        ("simnet/cache", &sim_stats),
        ("runtime/cache", &rt_stats),
        ("reactor/cache", &node_stats),
    ] {
        assert_eq!(stats.cache_hits(), expect_hits, "{label}: hits");
        assert_eq!(stats.cache_misses(), expect_misses, "{label}: misses");
        assert_eq!(
            stats.cache_fallbacks(),
            expect_fallbacks,
            "{label}: fallbacks"
        );
    }
    // A cache hit is a *local* completion — accounting still reconciles.
    assert_eq!(
        sim_stats.total_delivered() + sim_stats.dropped_to_crashed(),
        sim_stats.total_sent(),
        "simnet/cache: delivered + dropped == sent"
    );
    assert_eq!(
        node_stats.total_delivered()
            + node_stats.dropped_to_crashed()
            + node_stats.messages_abandoned(),
        node_stats.total_sent(),
        "reactor/cache: delivered + dropped + abandoned == sent"
    );
}

/// MWMR workload: every register takes **three concurrent writers** per
/// round (issued back-to-back through the pipelined runner — distinct
/// `(process, register)` pairs overlap freely) plus two readers. Values
/// are globally unique so the timestamp-order checker can attribute reads.
fn mwmr_workload() -> Workload<u64> {
    let mut w = Workload::new();
    let mut value = 0u64;
    for _round in 0..3 {
        for k in 0..REGISTERS {
            let reg = RegisterId::new(k);
            for i in 0..3 {
                value += 1;
                w = w.step((k + i) % N, reg, Operation::Write(value));
            }
            w = w.step((k + 3) % N, reg, Operation::Read);
            w = w.step((k + 4) % N, reg, Operation::Read);
        }
    }
    w
}

/// Runs the MWMR workload pipelined (so the three writers per register
/// genuinely overlap) and verifies timestamp-order linearizability per
/// register.
fn check_mwmr_backend<D: Driver<Value = u64>>(driver: &mut D, label: &str) {
    let w = mwmr_workload();
    w.run_pipelined_on(driver)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let sharded = driver.history();
    assert_eq!(sharded.len(), REGISTERS, "{label}: register count");
    assert_eq!(sharded.total_ops(), w.len(), "{label}: op count");
    let verdicts =
        check_mwmr_sharded(&sharded).unwrap_or_else(|e| panic!("{label}: not linearizable: {e}"));
    for (reg, verdict) in &verdicts {
        assert_eq!(verdict.writes, 9, "{label}: {reg} writes");
        assert_eq!(verdict.reads_checked, 6, "{label}: {reg} reads");
        assert_eq!(
            verdict.write_order.len(),
            9,
            "{label}: {reg} resolved order covers every write"
        );
    }
}

/// The same MWMR workload runs identically on simnet, the in-process
/// runtime and real TCP — multi-writer registers as first-class citizens
/// of every backend, byte codec in the loop, and message accounting that
/// still reconciles at teardown.
#[test]
fn mwmr_workload_runs_on_all_three_backends() {
    let cfg = cfg();

    let mut sim = SpaceBuilder::new(cfg)
        .seed(5)
        .registers(REGISTERS)
        .wire_codec(true)
        .build(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64));
    check_mwmr_backend(&mut sim, "simnet/mwmr");
    // Drain trailing acks (quorum answers that arrive after the op
    // completed) before reconciling delivery accounting.
    sim.run_to_quiescence().unwrap();
    let sim_stats = sim.stats();
    assert!(
        sim_stats.wire_bytes() > 0,
        "simnet/mwmr: frames crossed as bytes"
    );
    let sim_hist = sim.history();

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(5)
        .registers(REGISTERS)
        .wire_codec(true)
        .build_sharded(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64))
        .unwrap();
    check_mwmr_backend(&mut cluster, "runtime/mwmr");
    let runtime_hist = Driver::history(&cluster);

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .build_sharded(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64))
        .expect("loopback reactor cluster starts");
    check_mwmr_backend(&mut node, "reactor/mwmr");
    let node_hist = Driver::history(&node);
    let (_, node_stats) = node.shutdown();
    assert!(
        node_stats.wire_bytes() > 0,
        "reactor/mwmr: real bytes on real sockets"
    );
    assert_eq!(
        node_stats.total_delivered()
            + node_stats.dropped_to_crashed()
            + node_stats.messages_abandoned(),
        node_stats.total_sent(),
        "reactor/mwmr: delivered + dropped + abandoned == sent"
    );
    assert_eq!(
        node_stats.links_abandoned(),
        0,
        "reactor/mwmr: no failed links"
    );
    assert_eq!(
        sim_stats.total_delivered() + sim_stats.dropped_to_crashed(),
        sim_stats.total_sent(),
        "simnet/mwmr: delivered + dropped == sent"
    );

    // Per-register histories agree across backends: the same writes (same
    // value multisets — interleavings legitimately differ) and the same
    // completed-op counts.
    let writes_of = |h: &twobit::History<u64>| -> Vec<u64> {
        let mut vs: Vec<u64> = h
            .records
            .iter()
            .filter_map(|r| r.op.written_value().copied())
            .collect();
        vs.sort_unstable();
        vs
    };
    for (reg, sim_shard) in sim_hist.iter() {
        let rt_shard = runtime_hist.shard(reg).unwrap();
        let node_shard = node_hist.shard(reg).unwrap();
        assert_eq!(
            writes_of(sim_shard),
            writes_of(rt_shard),
            "{reg}: sim vs runtime"
        );
        assert_eq!(
            writes_of(sim_shard),
            writes_of(node_shard),
            "{reg}: sim vs reactor"
        );
        assert_eq!(
            sim_shard.len(),
            rt_shard.len(),
            "{reg}: op counts sim vs runtime"
        );
        assert_eq!(
            sim_shard.len(),
            node_shard.len(),
            "{reg}: op counts sim vs reactor"
        );
    }
}

/// Three concurrent writers on one MWMR register — the acceptance
/// scenario — with a crash mid-run: the surviving majority keeps every
/// writer live and the history stays timestamp-order linearizable on both
/// deterministic backends.
#[test]
fn mwmr_concurrent_writers_survive_a_crash() {
    let cfg = cfg();
    let run = |driver: &mut dyn Driver<Value = u64>| {
        let reg = RegisterId::new(0);
        // Round 1: three writers overlap.
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                driver
                    .invoke(ProcessId::new(i), reg, Operation::Write(10 + i as u64))
                    .unwrap()
            })
            .collect();
        for t in &tickets {
            driver.poll(t).unwrap();
        }
        driver.crash(ProcessId::new(4)).unwrap();
        // Round 2: all three write again after the crash.
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                driver
                    .invoke(ProcessId::new(i), reg, Operation::Write(20 + i as u64))
                    .unwrap()
            })
            .collect();
        for t in &tickets {
            driver.poll(t).unwrap();
        }
        let got = driver.read(ProcessId::new(3), reg).unwrap();
        assert!(
            (20..23).contains(&got),
            "a round-2 write is freshest, got {got}"
        );
        check_mwmr_sharded(&driver.history()).unwrap();
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(9)
        .registers(1)
        .wire_codec(true)
        .build(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64));
    run(&mut sim);

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(9)
        .registers(1)
        .wire_codec(true)
        .build_sharded(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64))
        .unwrap();
    run(&mut cluster);
}

#[test]
fn pipelined_execution_is_equivalent_too() {
    let cfg = cfg();
    let w = workload();

    let mut sim = SpaceBuilder::new(cfg)
        .seed(11)
        .registers(REGISTERS)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    w.run_pipelined_on(&mut sim).unwrap();
    check_swmr_sharded(&sim.history()).unwrap();

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(11)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    w.run_pipelined_on(&mut cluster).unwrap();
    check_swmr_sharded(&Driver::history(&cluster)).unwrap();

    // Overlapping operations on real sockets share frames across shards:
    // the tags are routed, and the per-frame header-mode choice is never
    // worse than always taking the delta/gamma layout.
    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    w.run_pipelined_on(&mut node).unwrap();
    let (history, stats) = node.shutdown();
    assert_eq!(history.len(), REGISTERS);
    check_swmr_sharded(&history).unwrap();
    assert!(stats.frame_header_bits() > 0, "shard tags were routed");
    assert!(
        stats.frame_header_bits() <= stats.frame_header_gamma_bits(),
        "the header-mode chooser never loses to forced gamma"
    );
}

#[test]
fn crash_tolerance_is_portable() {
    // Crash t processes mid-workload through the same Driver calls on every
    // backend; surviving quorums must keep every register live and atomic.
    let cfg = cfg();
    let run = |driver: &mut dyn Driver<Value = u64>| {
        let reg = RegisterId::new(0);
        let writer = writer_of(reg); // p0: not crashed below
        driver.write(writer, reg, 1).unwrap();
        driver.crash(ProcessId::new(3)).unwrap();
        driver.crash(ProcessId::new(4)).unwrap();
        driver.write(writer, reg, 2).unwrap();
        assert_eq!(driver.read(ProcessId::new(1), reg).unwrap(), 2);
        // A crashed process cannot invoke.
        assert!(matches!(
            driver.invoke(ProcessId::new(4), reg, Operation::Read),
            Err(DriverError::ProcessUnavailable(_))
        ));
        check_swmr_sharded(&driver.history()).unwrap();
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(3)
        .registers(REGISTERS)
        .build(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    run(&mut sim);

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(3)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    run(&mut cluster);

    // On real sockets too, where every frame toward a crashed process is
    // dropped whole and the books still balance to the message — a loop per
    // process, so the drops happen on routes between loops on any host.
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(N)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    run(&mut node);
    let (_, stats) = node.shutdown();
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed(),
        stats.total_sent(),
        "reactor: every sent message was delivered or dropped whole-frame"
    );
}

/// One crash-recover-rejoin workload, three backends, identical per-register
/// histories. A replica crashes and rejoins mid-run (it must then serve
/// reads through the protocol again), and afterwards the *writer* crashes
/// and rejoins (the rejoin must re-admit it as the writer with a fresh
/// incarnation). The extracted history fingerprint — completed-op count,
/// written-value sequence, read results, and `(process, incarnation)`
/// recovery records — must be the same on the deterministic simulator, the
/// chaos-link cluster and the reactor's real sockets.
#[test]
fn crash_recover_rejoin_is_portable_across_all_three_backends() {
    let cfg = cfg();
    let reg = RegisterId::new(0);
    let writer = writer_of(reg); // p0
    let replica = ProcessId::new(3);

    type Fingerprint = (usize, Vec<u64>, Vec<u64>, Vec<(usize, u64)>);
    let run = |driver: &mut dyn Driver<Value = u64>, label: &str| -> Fingerprint {
        driver.write(writer, reg, 1).unwrap();

        // A replica crashes; the surviving quorum keeps the register live.
        driver.crash(replica).unwrap();
        assert_eq!(driver.lifecycle(replica), Lifecycle::Crashed, "{label}");
        driver.write(writer, reg, 2).unwrap();

        // The replica rejoins and must serve through the protocol again.
        driver.recover(replica).unwrap();
        assert_eq!(driver.lifecycle(replica), Lifecycle::Up, "{label}");
        assert_eq!(driver.read(replica, reg).unwrap(), 2, "{label}");

        // Now the writer itself crashes and rejoins: the recovery barrier
        // re-admits it as the writer with a bumped incarnation, so its next
        // write (which reuses a dead sequence number) still completes on a
        // genuine quorum.
        driver.crash(writer).unwrap();
        assert!(
            matches!(
                driver.invoke(writer, reg, Operation::Read),
                Err(DriverError::ProcessUnavailable(_))
            ),
            "{label}: a crashed process cannot invoke"
        );
        driver.recover(writer).unwrap();
        assert_eq!(driver.lifecycle(writer), Lifecycle::Up, "{label}");
        driver.write(writer, reg, 3).unwrap();
        assert_eq!(driver.read(ProcessId::new(1), reg).unwrap(), 3, "{label}");

        let hist = driver.history();
        check_swmr_sharded(&hist).unwrap_or_else(|e| panic!("{label}: not atomic: {e}"));
        let shard = hist.shard(reg).unwrap();
        let writes: Vec<u64> = shard
            .records
            .iter()
            .filter_map(|r| r.op.written_value().copied())
            .collect();
        let reads: Vec<u64> = shard
            .reads()
            .filter_map(|r| r.completed.as_ref().and_then(|(_, o)| o.read_value()))
            .copied()
            .collect();
        let recoveries: Vec<(usize, u64)> = shard
            .recoveries
            .iter()
            .map(|r| (r.proc.index(), r.incarnation))
            .collect();
        (shard.len(), writes, reads, recoveries)
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(1)
        .recovery(true)
        .build(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    let sim_fp = run(&mut sim, "simnet");
    assert_eq!(
        sim_fp,
        (
            5,
            vec![1, 2, 3],
            vec![2, 3],
            vec![(replica.index(), 1), (writer.index(), 1)]
        ),
        "simnet: expected fingerprint"
    );
    assert_eq!(
        sim.stats().recoveries(),
        2,
        "simnet: both rejoins accounted"
    );
    assert!(
        sim.stats().snapshot_frames() > 0,
        "simnet: snapshots crossed as frames"
    );

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .registers(1)
        .build_sharded(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    let rt_fp = run(&mut cluster, "runtime");
    assert_eq!(sim_fp, rt_fp, "runtime fingerprint diverges from simnet");

    // A loop per process: snapshot requests, installs and rejoins are
    // handed to other loops on any host.
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(N)
        .registers(1)
        .build_sharded(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    let reactor_fp = run(&mut node, "reactor");
    assert_eq!(
        sim_fp, reactor_fp,
        "reactor fingerprint diverges from simnet"
    );
    assert!(
        node.stats().snapshot_frames() > 0,
        "reactor: snapshots crossed real sockets"
    );
}

/// Oh-RAM workload: writes from each register's single writer plus enough
/// overlapping readers that both of the read completion rules (the uniform
/// fast quorum and the relayed minimum) see real traffic. Run pipelined so
/// reads overlap writes and each other.
fn ohram_workload() -> Workload<u64> {
    let mut w = Workload::new();
    for round in 0..6u64 {
        for k in 0..REGISTERS {
            let reg = RegisterId::new(k);
            let writer = writer_of(reg);
            w = w.step(writer, reg, Operation::Write(100 * (k as u64 + 1) + round));
            // Three readers per register per round, rotating — including
            // the writer itself reading its own register.
            w = w.step((writer.index() + 1) % N, reg, Operation::Read);
            w = w.step((writer.index() + 2) % N, reg, Operation::Read);
            w = w.step(writer.index(), reg, Operation::Read);
        }
    }
    w
}

/// Per-register history fingerprint: completed-op count, written-value
/// sequence, and the multiset of read results. Interleavings legitimately
/// differ across backends (virtual time vs real schedulers), so read
/// results are compared as sorted multisets, not sequences.
fn ohram_fingerprint(
    hist: &twobit::proto::ShardedHistory<u64>,
) -> Vec<(usize, Vec<u64>, Vec<u64>)> {
    hist.iter()
        .map(|(_, shard)| {
            let writes: Vec<u64> = shard
                .records
                .iter()
                .filter_map(|r| r.op.written_value().copied())
                .collect();
            let mut reads: Vec<u64> = shard
                .reads()
                .filter_map(|r| r.completed.as_ref().and_then(|(_, o)| o.read_value()))
                .copied()
                .collect();
            reads.sort_unstable();
            (shard.len(), writes, reads)
        })
        .collect()
}

/// The Oh-RAM automaton is a first-class citizen of every backend: the
/// same workload runs identically on the deterministic simulator, the
/// chaos-link cluster and the reactor's real sockets; every history passes the
/// SWMR atomicity checker (Oh-RAM keeps the single-writer contract); the
/// per-register fingerprints agree; and message accounting reconciles
/// *exactly* — `delivered + dropped + abandoned == sent` — even with the
/// n² relay traffic in flight at shutdown.
#[test]
fn ohram_workload_runs_on_all_three_backends() {
    let cfg = cfg();
    let w = ohram_workload();

    let check = |label: &str, hist: &twobit::proto::ShardedHistory<u64>| {
        assert_eq!(hist.len(), REGISTERS, "{label}: register count");
        assert_eq!(hist.total_ops(), w.len(), "{label}: op count");
        let verdicts =
            check_swmr_sharded(hist).unwrap_or_else(|e| panic!("{label}: not atomic: {e}"));
        for (reg, verdict) in &verdicts {
            assert_eq!(verdict.writes, 6, "{label}: {reg} writes");
            assert_eq!(verdict.reads_checked, 18, "{label}: {reg} reads");
        }
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .wire_codec(true)
        .build(0u64, |reg, id| {
            OhRamProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    w.run_pipelined_on(&mut sim).unwrap();
    check("simnet/ohram", &sim.history());
    // Drain trailing relay traffic before reconciling delivery accounting.
    sim.run_to_quiescence().unwrap();
    let sim_stats = sim.stats();
    assert_eq!(
        sim_stats.total_delivered() + sim_stats.dropped_to_crashed(),
        sim_stats.total_sent(),
        "simnet/ohram: delivered + dropped == sent"
    );
    let sim_fp = ohram_fingerprint(&sim.history());

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .registers(REGISTERS)
        .wire_codec(true)
        .build_sharded(0u64, |reg, id| {
            OhRamProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    w.run_pipelined_on(&mut cluster).unwrap();
    check("runtime/ohram", &Driver::history(&cluster));
    let rt_fp = ohram_fingerprint(&Driver::history(&cluster));

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .build_sharded(0u64, |reg, id| {
            OhRamProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    w.run_pipelined_on(&mut node).unwrap();
    check("reactor/ohram", &Driver::history(&node));
    let reactor_fp = ohram_fingerprint(&Driver::history(&node));
    let (_, node_stats) = node.shutdown();
    assert!(
        node_stats.wire_bytes() > 0,
        "reactor/ohram: real bytes on real sockets"
    );
    assert_eq!(
        node_stats.total_delivered()
            + node_stats.dropped_to_crashed()
            + node_stats.messages_abandoned(),
        node_stats.total_sent(),
        "reactor/ohram: delivered + dropped + abandoned == sent"
    );

    // Writes are fixed by the script, so the write sequences must agree
    // verbatim everywhere; read multisets must agree because every read
    // returns some written (or initial) value of a single-writer history
    // with per-script determinism in what was written.
    let writes_only = |fp: &[(usize, Vec<u64>, Vec<u64>)]| -> Vec<(usize, Vec<u64>)> {
        fp.iter().map(|(n, w, _)| (*n, w.clone())).collect()
    };
    assert_eq!(
        writes_only(&sim_fp),
        writes_only(&rt_fp),
        "runtime fingerprint diverges from simnet"
    );
    assert_eq!(
        writes_only(&sim_fp),
        writes_only(&reactor_fp),
        "reactor fingerprint diverges from simnet"
    );
}

/// Lifecycle misuse is a *typed* error on every backend — no panics, no
/// silently-accepted double crash (the reactor used to absorb a second
/// `crash` of the same process without complaint).
#[test]
fn lifecycle_errors_are_typed_and_uniform_across_backends() {
    let cfg = cfg();
    let run = |driver: &mut dyn Driver<Value = u64>, label: &str| {
        let p = ProcessId::new(4);
        let ghost = ProcessId::new(99);
        assert!(
            matches!(driver.recover(p), Err(DriverError::NotCrashed(q)) if q == p),
            "{label}: recovering an up process"
        );
        driver.crash(p).unwrap();
        assert!(
            matches!(driver.crash(p), Err(DriverError::AlreadyCrashed(q)) if q == p),
            "{label}: double crash"
        );
        assert!(
            matches!(driver.crash(ghost), Err(DriverError::UnknownProcess(q)) if q == ghost),
            "{label}: crashing an unknown process"
        );
        assert!(
            matches!(driver.recover(ghost), Err(DriverError::UnknownProcess(q)) if q == ghost),
            "{label}: recovering an unknown process"
        );
        assert_eq!(driver.lifecycle(p), Lifecycle::Crashed, "{label}");
        assert_eq!(
            driver.lifecycle(ghost),
            Lifecycle::Crashed,
            "{label}: out-of-range processes read as crashed"
        );
        // Addressing is checked before liveness, in one order everywhere.
        let nowhere = RegisterId::new(7);
        assert!(
            matches!(
                driver.invoke(p, nowhere, Operation::Read),
                Err(DriverError::UnknownRegister(r)) if r == nowhere
            ),
            "{label}: an unknown register on a crashed process"
        );
    };

    let mut sim = SpaceBuilder::new(cfg)
        .seed(1)
        .registers(1)
        .recovery(true)
        .build(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        });
    run(&mut sim, "simnet");

    let mut cluster = ClusterBuilder::new(cfg)
        .seed(1)
        .registers(1)
        .build_sharded(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .unwrap();
    run(&mut cluster, "runtime");

    let mut node = ReactorClusterBuilder::new(cfg)
        .registers(1)
        .build_sharded(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg), 0u64)
        })
        .expect("loopback reactor cluster starts");
    run(&mut node, "reactor");
}

/// `Timeout` from `poll` means *not yet*: the ticket stays valid, the
/// operation stays in flight — so a recovery is refused, typed — and once
/// the quorum answers the same ticket reads its outcome, again and again,
/// with the history holding that one completion. One rule on both live
/// link kinds (the simulator never times out: its `poll` advances virtual
/// time instead).
#[test]
fn a_timed_out_ticket_stays_pollable_on_both_live_backends() {
    let cfg = cfg();
    let reg = RegisterId::new(0);
    let writer = writer_of(reg);
    let bystander = ProcessId::new(4);
    let run = |driver: &mut dyn Driver<Value = u64>, label: &str| {
        driver.crash(bystander).unwrap();
        let ticket = driver.invoke(writer, reg, Operation::Write(7)).unwrap();
        assert_eq!(
            driver.poll(&ticket),
            Err(DriverError::Timeout),
            "{label}: the quorum is tens of milliseconds away"
        );
        assert_eq!(
            driver.recover(bystander),
            Err(DriverError::OperationInFlight { proc: writer, reg }),
            "{label}: a timed-out ticket is still in flight"
        );
        assert_eq!(driver.lifecycle(bystander), Lifecycle::Crashed, "{label}");

        let deadline = Instant::now() + Duration::from_secs(5);
        let outcome = loop {
            match driver.poll(&ticket) {
                Err(DriverError::Timeout) => {
                    assert!(Instant::now() < deadline, "{label}: the write never landed");
                }
                other => break other,
            }
        };
        assert_eq!(outcome, Ok(OpOutcome::Written), "{label}");
        assert_eq!(
            driver.poll(&ticket),
            Ok(OpOutcome::Written),
            "{label}: re-polling a completed ticket is idempotent"
        );
        let hist = driver.history();
        assert_eq!(hist.total_ops(), 1, "{label}");
        assert!(
            hist.shard(reg).unwrap().records[0].is_complete(),
            "{label}: completed exactly once, on the record"
        );
    };

    // 30 ms per frame against a 1 ms operation timeout.
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(5)
        .delay(DelayModel::Fixed(30_000))
        .op_timeout(Duration::from_millis(1))
        .build(0u64, move |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .unwrap();
    run(&mut cluster, "runtime");

    // Every frame held 20 ms against a 1 µs operation timeout.
    let mut node = ReactorClusterBuilder::new(cfg)
        .flush_policy(FlushPolicy::fixed(64, Duration::from_millis(20)))
        .op_timeout(Duration::from_micros(1))
        .build(0u64, move |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("loopback reactor cluster starts");
    run(&mut node, "reactor");
    node.shutdown();
}
