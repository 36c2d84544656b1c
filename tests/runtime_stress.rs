//! Live-cluster stress: the same protocols on event loops with chaos links,
//! concurrent clients and crash injection; histories re-checked post hoc.

use std::time::Duration;

use twobit::baselines::AbdProcess;
use twobit::core::TwoBitProcess;
use twobit::simnet::DelayModel;
use twobit::{ClusterBuilder, ProcessId, SystemConfig};

fn chaos() -> DelayModel {
    DelayModel::Spiky {
        lo: 10,
        hi: 150,
        spike_ppm: 150_000,
        spike_lo: 300,
        spike_hi: 1_500,
    }
}

#[test]
fn twobit_concurrent_clients_stay_atomic() {
    let n = 5;
    let cfg = SystemConfig::max_resilience(n);
    let writer = ProcessId::new(0);
    let cluster = ClusterBuilder::new(cfg)
        .seed(11)
        .delay(chaos())
        .op_timeout(Duration::from_secs(30))
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .unwrap();

    std::thread::scope(|s| {
        let mut w = cluster.client(0);
        s.spawn(move || {
            for v in 1..=40u64 {
                w.write(v).expect("write");
            }
        });
        for r in 1..n {
            let mut c = cluster.client(r);
            s.spawn(move || {
                let mut last = 0u64;
                for _ in 0..40 {
                    let v = c.read().expect("read");
                    assert!(v >= last, "per-client monotonicity: {v} < {last}");
                    last = v;
                }
            });
        }
    });

    let history = cluster.history();
    let (_, stats) = cluster.shutdown();
    assert_eq!(history.completed().count(), 40 + 4 * 40);
    twobit::lincheck::check_swmr(&history).expect("atomic");
    // Two-bit wire property holds on the live path too.
    assert_eq!(stats.max_msg_control_bits(), 2);
}

#[test]
fn abd_concurrent_clients_stay_atomic() {
    let n = 4;
    let cfg = SystemConfig::max_resilience(n);
    let writer = ProcessId::new(0);
    let cluster = ClusterBuilder::new(cfg)
        .seed(5)
        .delay(chaos())
        .op_timeout(Duration::from_secs(30))
        .build(0u64, |id| AbdProcess::new(id, cfg, writer, 0u64))
        .unwrap();
    std::thread::scope(|s| {
        let mut w = cluster.client(0);
        s.spawn(move || {
            for v in 1..=25u64 {
                w.write(v).expect("write");
            }
        });
        for r in 1..n {
            let mut c = cluster.client(r);
            s.spawn(move || {
                for _ in 0..25 {
                    c.read().expect("read");
                }
            });
        }
    });
    let history = cluster.history();
    cluster.shutdown();
    twobit::lincheck::check_swmr(&history).expect("atomic");
}

#[test]
fn crash_during_concurrent_traffic() {
    let n = 5; // t = 2
    let cfg = SystemConfig::max_resilience(n);
    let writer = ProcessId::new(0);
    let cluster = ClusterBuilder::new(cfg)
        .seed(9)
        .delay(chaos())
        .op_timeout(Duration::from_secs(30))
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
        .unwrap();
    std::thread::scope(|s| {
        let mut w = cluster.client(0);
        s.spawn(move || {
            for v in 1..=30u64 {
                w.write(v).expect("write");
            }
        });
        for r in 1..=2usize {
            let mut c = cluster.client(r);
            s.spawn(move || {
                for _ in 0..30 {
                    c.read().expect("read");
                }
            });
        }
        let cl = &cluster;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cl.crash(3).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            cl.crash(4).unwrap();
        });
    });
    let history = cluster.history();
    cluster.shutdown();
    twobit::lincheck::check_swmr(&history).expect("atomic with 2 crashes");
}

#[test]
fn per_client_reads_never_regress_under_load() {
    // A sharper client-visible corollary of atomicity: within one client,
    // successive reads are monotone in write order. Run many short rounds
    // to shake out races.
    for seed in 0..4u64 {
        let n = 3;
        let cfg = SystemConfig::max_resilience(n);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(cfg)
            .seed(seed)
            .delay(DelayModel::Uniform { lo: 5, hi: 100 })
            .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))
            .unwrap();
        std::thread::scope(|s| {
            let mut w = cluster.client(0);
            s.spawn(move || {
                for v in 1..=15u64 {
                    w.write(v).expect("write");
                }
            });
            let mut c = cluster.client(1);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..30 {
                    let v = c.read().expect("read");
                    assert!(v >= last);
                    last = v;
                }
            });
        });
        let history = cluster.history();
        cluster.shutdown();
        twobit::lincheck::check_swmr(&history).expect("atomic");
    }
}
