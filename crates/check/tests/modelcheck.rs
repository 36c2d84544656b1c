//! End-to-end exploration tests: the positive scenarios hold on every
//! schedule, DPOR demonstrably prunes against naive enumeration, and
//! crash injection widens the explored space without breaking anything.
//!
//! `paths_explored` is pinned exactly in each test: an explorer that
//! checkpoints instead of replaying must, with pruning off, walk the very
//! same paths. `replays` is not pinned — cutting it is the point of that
//! work.

use twobit_check::{explore, scenarios, ExploreOptions, Strategy};

#[test]
fn exhaustive_swmr_writer_and_concurrent_reader_n3t1() {
    let report = explore(&scenarios::twobit_swmr_wr(), &ExploreOptions::default()).unwrap();
    assert!(
        report.violation.is_none(),
        "the paper's protocol linearizes on every schedule: {:?}",
        report.violation
    );
    assert!(report.exhausted, "the configuration must be fully covered");
    // The write/read interleaving space is real: many inequivalent paths,
    // and sleep sets must actually prune some enumerations.
    assert!(
        report.stats.paths_explored > 50,
        "suspiciously few paths: {:?}",
        report.stats
    );
    assert!(report.stats.replays > 0, "DFS backtracking must replay");
    assert!(report.stats.max_depth > 5, "paths are many events long");
    assert_eq!(report.stats.paths_explored, 58);
}

#[test]
fn exhaustive_swmr_with_safe_read_cache_n3t1() {
    let report = explore(&scenarios::twobit_swmr_cached(), &ExploreOptions::default()).unwrap();
    assert!(
        report.violation.is_none(),
        "the writer-gated cache stays linearizable on every schedule: {:?}",
        report.violation
    );
    assert!(report.exhausted, "the configuration must be fully covered");
    // The cached scenario adds the writer's local read on top of the
    // write/read interleaving space — it must still branch for real.
    assert!(
        report.stats.paths_explored > 50,
        "suspiciously few paths: {:?}",
        report.stats
    );
    assert_eq!(report.stats.paths_explored, 164);
}

#[test]
fn exhaustive_ohram_writer_and_concurrent_reader_n3t1() {
    let report = explore(&scenarios::ohram_swmr_wr(), &ExploreOptions::default()).unwrap();
    assert!(
        report.violation.is_none(),
        "Oh-RAM linearizes on every schedule: {:?}",
        report.violation
    );
    assert!(report.exhausted, "the configuration must be fully covered");
    // The read fans out to n servers which each relay to all n, so even
    // with the settlement cut (exploration stops once every planned op
    // completed) the space must out-branch the two-bit write/read
    // scenario. If this comes in small, the explorer is not actually
    // driving the relay round.
    assert!(
        report.stats.paths_explored > 100,
        "relay traffic must branch: {:?}",
        report.stats
    );
    assert!(report.stats.replays > 0, "DFS backtracking must replay");
    assert_eq!(report.stats.paths_explored, 291);
}

#[test]
fn exhaustive_mwmr_two_concurrent_writers_n3t1() {
    let report = explore(&scenarios::mwmr_two_writer(), &ExploreOptions::default()).unwrap();
    assert!(
        report.violation.is_none(),
        "the healthy MWMR baseline holds on every schedule: {:?}",
        report.violation
    );
    assert!(report.exhausted);
    // Two concurrent two-phase writes at n = 3 leave tens of thousands of
    // inequivalent interleavings even after DPOR; anything small means the
    // explorer stopped looking.
    assert!(
        report.stats.paths_explored > 10_000,
        "two concurrent writers must branch: {:?}",
        report.stats
    );
    assert_eq!(report.stats.paths_explored, 65_843);
}

#[test]
fn dpor_explores_fewer_paths_than_naive_with_the_same_verdict() {
    let dpor = explore(
        &scenarios::twobit_swmr_w(),
        &ExploreOptions {
            strategy: Strategy::Dpor,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    let naive = explore(
        &scenarios::twobit_swmr_w(),
        &ExploreOptions {
            strategy: Strategy::Naive,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(dpor.violation.is_none() && naive.violation.is_none());
    assert!(dpor.exhausted && naive.exhausted);
    assert!(
        dpor.stats.paths_explored < naive.stats.paths_explored,
        "DPOR must prune: dpor={:?} naive={:?}",
        dpor.stats,
        naive.stats
    );
    // The reduction is the point — require a real factor, not an
    // off-by-a-few difference.
    assert!(
        naive.stats.paths_explored >= 4 * dpor.stats.paths_explored,
        "reduction factor collapsed: dpor={:?} naive={:?}",
        dpor.stats,
        naive.stats
    );
    assert_eq!(dpor.stats.paths_explored, 1);
    assert_eq!(naive.stats.paths_explored, 306);
}

#[test]
fn crash_injection_stays_safe_within_the_fault_bound() {
    // One injected crash (= t) at any point of the single-writer run:
    // the protocol must stay safe and no live process may starve.
    let scenario = scenarios::twobit_swmr_w().crash_budget(1);
    let report = explore(&scenario, &ExploreOptions::default()).unwrap();
    assert!(
        report.violation.is_none(),
        "t = 1 crash must be tolerated: {:?}",
        report.violation
    );
    assert!(report.exhausted);
    let no_crash = explore(&scenarios::twobit_swmr_w(), &ExploreOptions::default()).unwrap();
    assert!(
        report.stats.paths_explored > no_crash.stats.paths_explored,
        "crash branches must add paths: with={:?} without={:?}",
        report.stats,
        no_crash.stats
    );
    assert_eq!(report.stats.paths_explored, 27);
}

#[test]
fn crash_budget_is_clamped_to_t() {
    // Asking for more crashes than the fault bound must not let the
    // explorer crash a majority (which would starve live processes and
    // flag phantom liveness violations).
    let scenario = scenarios::twobit_swmr_w().crash_budget(9);
    let report = explore(&scenario, &ExploreOptions::default()).unwrap();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.exhausted);
    // Clamped to t = 1: exactly the space of `crash_budget(1)`.
    assert_eq!(report.stats.paths_explored, 27);
}

#[test]
fn crash_and_rejoin_is_exhausted_and_stays_safe_n3t1() {
    // One crash plus one full recovery (snapshot adoption, rejoin
    // barrier, incarnation bump) at any pair of points in the
    // write-then-read run: every schedule must linearize and the whole
    // space must be covered.
    // The recovery step is conservatively dependent with every other step
    // (a rejoin rewrites every live process's state), so DPOR prunes little
    // here and the space is genuinely large: just over the default path
    // cap. Raise it — exhaustion is the point of this test.
    let opts = ExploreOptions {
        max_paths: 2_000_000,
        ..ExploreOptions::default()
    };
    let scenario = twobit_check::scenarios::twobit_swmr_recover();
    let report = explore(&scenario, &opts).unwrap();
    assert!(
        report.violation.is_none(),
        "crash-and-rejoin must stay linearizable: {:?}",
        report.violation
    );
    assert!(report.exhausted, "the configuration must be fully covered");
    // Recovery branches must genuinely widen the space beyond crash-only.
    let crash_only = scenarios::twobit_swmr_recover().recover_budget(0);
    let crash_report = explore(&crash_only, &opts).unwrap();
    assert!(crash_report.violation.is_none());
    assert!(
        report.stats.paths_explored > crash_report.stats.paths_explored,
        "recovery branches must add paths: with={:?} without={:?}",
        report.stats,
        crash_report.stats
    );
    assert_eq!(report.stats.paths_explored, 1_022_264);
    assert_eq!(crash_report.stats.paths_explored, 137_283);
}

#[test]
fn post_settlement_drain_is_explored_when_asked() {
    // Closing the drain gap: by default, paths end at the settlement cut
    // (every plan step responded), leaving late deliveries to the
    // randomized tier. With `drain_after_settlement` the same n = 3,
    // t = 1 scenario keeps each path open until the network is empty, so
    // every post-settlement delivery interleaving is driven against the
    // automata's local invariants — and the space must grow for real.
    let drained = explore(
        &scenarios::twobit_swmr_wr(),
        &ExploreOptions {
            drain_after_settlement: true,
            max_paths: 2_000_000,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(
        drained.violation.is_none(),
        "late deliveries must be harmless: {:?}",
        drained.violation
    );
    assert!(drained.exhausted, "the drained space must be fully covered");
    let cut = explore(&scenarios::twobit_swmr_wr(), &ExploreOptions::default()).unwrap();
    assert!(
        drained.stats.paths_explored > cut.stats.paths_explored,
        "draining must widen the space: drained={:?} cut={:?}",
        drained.stats,
        cut.stats
    );
    assert!(
        drained.stats.max_depth > cut.stats.max_depth,
        "drained paths must run longer than the settlement cut: drained={:?} cut={:?}",
        drained.stats,
        cut.stats
    );
    assert_eq!(drained.stats.paths_explored, 1_132);
}

#[test]
fn path_cap_reports_non_exhaustive() {
    let report = explore(
        &scenarios::twobit_swmr_wr(),
        &ExploreOptions {
            max_paths: 3,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(!report.exhausted);
    assert!(report.stats.paths_explored + report.stats.paths_pruned <= 3);
}
