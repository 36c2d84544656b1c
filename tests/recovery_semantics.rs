//! Simulator-level semantics of the `Up → Crashed → Recovering → Up`
//! lifecycle: end-to-end rejoin in event mode, the eager stale-frame fence
//! in scheduled mode, per-incarnation message accounting, the typed
//! refusal paths, and the guarantee that merely *enabling* recovery
//! changes nothing about a crash-free run.

use twobit::lincheck::check_swmr_sharded;
use twobit::proto::ScheduleStep;
use twobit::{
    Driver, DriverError, MwmrProcess, Operation, ProcessId, RegisterId, SpaceBuilder, SystemConfig,
    TwoBitProcess,
};

fn cfg3() -> SystemConfig {
    SystemConfig::new(3, 1).unwrap()
}

const R0: RegisterId = RegisterId::ZERO;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Event-mode crash → recover → serve, with the books audited per
/// incarnation: a replica that rejoined from a quorum snapshot answers
/// reads with post-crash state on every register, the run stays atomic,
/// and `delivered + dropped + stale == sent` holds over the summed
/// ledgers with exactly one ledger per incarnation epoch.
#[test]
fn event_mode_rejoin_serves_and_reconciles_per_incarnation() {
    let cfg = cfg3();
    let r1 = RegisterId::new(1);
    let mut sim = SpaceBuilder::new(cfg)
        .seed(5)
        .registers(2)
        .recovery(true)
        .wire_codec(true)
        .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, p(0), 0u64));

    sim.write(p(0), R0, 1).unwrap();
    sim.write(p(0), r1, 10).unwrap();
    sim.crash(p(2)).unwrap();
    sim.write(p(0), R0, 2).unwrap();

    sim.recover(p(2)).unwrap();
    assert_eq!(sim.incarnation(p(2)), 1, "rejoin bumps the incarnation");
    // The rejoined replica participates in quorums again and has adopted
    // state it never saw delivered: the write issued while it was down.
    assert_eq!(sim.read(p(2), R0).unwrap(), 2);
    assert_eq!(sim.read(p(2), r1).unwrap(), 10);

    sim.run_to_quiescence().unwrap();
    let stats = sim.stats();
    assert_eq!(stats.recoveries(), 1);
    assert!(
        stats.snapshot_frames() >= 2,
        "one snapshot per register crossed as a frame (got {})",
        stats.snapshot_frames()
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.dropped_stale(),
        stats.total_sent(),
        "delivered + dropped + stale == sent"
    );
    let ledgers = stats.incarnation_ledgers();
    assert_eq!(ledgers.len(), 2, "one ledger per incarnation epoch");
    let sum = |f: fn(&twobit::proto::IncarnationLedger) -> u64| ledgers.iter().map(f).sum::<u64>();
    assert_eq!(sum(|l| l.sent), stats.total_sent());
    assert_eq!(sum(|l| l.delivered), stats.total_delivered());
    assert_eq!(sum(|l| l.dropped_to_crashed), stats.dropped_to_crashed());
    assert_eq!(sum(|l| l.dropped_stale), stats.dropped_stale());

    let hist = sim.history();
    check_swmr_sharded(&hist).unwrap();
    for (reg, shard) in hist.iter() {
        assert_eq!(shard.recoveries.len(), 1, "{reg}: the rejoin is recorded");
        assert_eq!(shard.recoveries[0].proc, p(2));
        assert_eq!(shard.recoveries[0].incarnation, 1);
    }
}

/// Scheduled-mode incarnation fence: frames the crashed writer left in
/// flight are purged as stale at its recovery (they were staged under the
/// dead incarnation and would be rejected at delivery anyway), and the
/// purge is visible in the accounting without breaking reconciliation.
#[test]
fn scheduled_recovery_fences_in_flight_frames_as_stale() {
    let cfg = cfg3();
    let mut sim = SpaceBuilder::new(cfg)
        .seed(1)
        .registers(1)
        .scheduled(true)
        .recovery(true)
        .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, p(0), 0u64));
    sim.plan_op(p(0), R0, Operation::Write(1));

    // Invoke the write: WRITE frames to both peers are now in flight.
    sim.fire(ScheduleStep::Invoke(0)).unwrap();
    let in_flight = sim.stats().total_sent();
    assert!(in_flight > 0, "the invocation staged frames");
    // The writer crashes with those frames still undelivered, then rejoins.
    sim.fire(ScheduleStep::Crash(p(0))).unwrap();
    sim.fire(ScheduleStep::Recover(p(0))).unwrap();

    assert_eq!(sim.incarnation(p(0)), 1);
    let stats = sim.stats();
    assert!(
        stats.dropped_stale() > 0,
        "the dead incarnation's frames were fenced"
    );
    assert_eq!(
        stats.total_delivered() + stats.dropped_to_crashed() + stats.dropped_stale(),
        stats.total_sent(),
        "the fence keeps the books balanced"
    );
}

/// Recovery is opt-in on the simulator: without `SpaceBuilder::recovery`
/// the `Recover` path is a typed refusal, not a silent no-op.
#[test]
fn recovery_disabled_space_refuses_recover() {
    let cfg = cfg3();
    let mut sim = SpaceBuilder::new(cfg)
        .seed(1)
        .registers(1)
        .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, p(0), 0u64));
    sim.crash(p(2)).unwrap();
    match sim.recover(p(2)) {
        Err(DriverError::Backend(msg)) => {
            assert!(msg.contains("recovery"), "useful refusal, got: {msg}");
        }
        other => panic!("expected a Backend refusal, got {other:?}"),
    }
}

/// An automaton that does not implement `recovery_snapshot` cannot be
/// rejoined — the attempt is a typed `RecoveryUnsupported`, and the failed
/// recovery leaves the process crashed rather than half-revived.
#[test]
fn automaton_without_snapshot_support_is_recovery_unsupported() {
    let cfg = cfg3();
    let mut sim = SpaceBuilder::new(cfg)
        .seed(1)
        .registers(1)
        .recovery(true)
        .build(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64));
    sim.write(p(0), R0, 1).unwrap();
    sim.crash(p(2)).unwrap();
    assert!(matches!(
        sim.recover(p(2)),
        Err(DriverError::RecoveryUnsupported)
    ));
    assert!(sim.is_crashed(p(2)), "a failed recovery does not revive");
    // The surviving majority is unaffected.
    assert_eq!(sim.read(p(1), R0).unwrap(), 1);
}

/// Enabling recovery must cost nothing when nobody crashes: a crash-free
/// run with `.recovery(true)` is byte-for-byte identical — same wire
/// bytes, same message counts, same history — to its recovery-disabled
/// twin. (`frame_semantics::arming_recovery_is_free_until_a_crash` holds
/// the codec-on sweep row to within 2 %.)
#[test]
fn recovery_knob_is_free_on_crash_free_runs() {
    let cfg = cfg3();
    let run = |recovery: bool| {
        let mut sim = SpaceBuilder::new(cfg)
            .seed(7)
            .registers(2)
            .recovery(recovery)
            .wire_codec(true)
            .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, p(0), 0u64));
        for round in 1..=4u64 {
            sim.write(p(0), R0, round).unwrap();
            sim.write(p(0), RegisterId::new(1), 10 + round).unwrap();
            assert_eq!(sim.read(p(round as usize % 3), R0).unwrap(), round);
        }
        sim.run_to_quiescence().unwrap();
        let stats = sim.stats();
        (
            stats.wire_bytes(),
            stats.total_sent(),
            stats.total_delivered(),
            stats.frames_sent(),
            sim.history(),
        )
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.0, without.0, "wire bytes");
    assert_eq!(with.1, without.1, "messages sent");
    assert_eq!(with.2, without.2, "messages delivered");
    assert_eq!(with.3, without.3, "frames");
    assert_eq!(with.4, without.4, "histories");
}
