//! Experiment E10: end-to-end run on a live chaos-link cluster.
//!
//! The same automaton that was measured on the simulator runs on the
//! reactor's event loops with chaos links (real delays, real reordering)
//! and a real crash, while client threads drive it, and the
//! client-observed history is checked for atomicity. This is the
//! whole-system smoke test: protocol + live runtime + checker.

use std::time::Duration;

use twobit_core::TwoBitProcess;
use twobit_proto::{ProcessId, SystemConfig};
use twobit_reactor::ClusterBuilder;
use twobit_simnet::DelayModel;

/// Summary of the live run.
#[derive(Clone, Debug)]
pub struct LiveSummary {
    /// Completed operations.
    pub completed: usize,
    /// Messages sent on the wire.
    pub messages: u64,
    /// Whether the client-observed history was atomic.
    pub atomic: bool,
}

/// Runs the live scenario: n processes, one writer thread, n−1 reader
/// threads, one mid-run crash (within `t`).
pub fn scenario(n: usize, writes: u64, seed: u64) -> LiveSummary {
    let cfg = SystemConfig::max_resilience(n);
    let writer = ProcessId::new(0);
    let cluster = ClusterBuilder::new(cfg)
        .seed(seed)
        .delay(DelayModel::Spiky {
            lo: 20,
            hi: 200,
            spike_ppm: 100_000,
            spike_lo: 500,
            spike_hi: 2_000,
        })
        .op_timeout(Duration::from_secs(20))
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .expect("cluster start");

    std::thread::scope(|s| {
        // Writer thread.
        let mut w = cluster.client(0);
        s.spawn(move || {
            for v in 1..=writes {
                w.write(v).expect("write failed");
            }
        });
        // Reader threads on every other live process except the victim.
        let victim = n - 1;
        for r in 1..n {
            if r == victim {
                continue;
            }
            let mut c = cluster.client(r);
            let reads = writes;
            s.spawn(move || {
                let mut last = 0u64;
                for _ in 0..reads {
                    let v = c.read().expect("read failed");
                    // Client-side regression check (reads by one client
                    // must be monotone — implied by atomicity).
                    assert!(v >= last, "monotonicity violated: {v} < {last}");
                    last = v;
                }
            });
        }
        // Crash the victim partway through (within t).
        let cluster_ref = &cluster;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cluster_ref.crash(victim).expect("victim is live");
        });
    });

    let history = cluster.history();
    let (_, stats) = cluster.shutdown();
    let atomic = twobit_lincheck::check_swmr(&history).is_ok();
    LiveSummary {
        completed: history.completed().count(),
        messages: stats.total_sent(),
        atomic,
    }
}

/// Runs E10 and renders the report.
pub fn run(n: usize, writes: u64, seed: u64) -> String {
    let s = scenario(n, writes, seed);
    assert!(s.atomic, "live history must be atomic");
    format!(
        "## E10 — Live cluster (n = {n}, chaos links, one crash)\n\n\
         completed operations: {}\nmessages sent: {}\natomic: {}\n",
        s.completed, s.messages, s.atomic
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_scenario_is_atomic() {
        let s = scenario(5, 15, 42);
        assert!(s.atomic);
        assert!(s.completed >= 15);
        assert!(s.messages > 0);
    }
}
