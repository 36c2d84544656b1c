//! The in-process cluster: every process on one node, its links chaos
//! links (see [`crate::link`]) instead of route sockets.
//!
//! [`ClusterBuilder`] deals the processes over the event-loop pool as
//! [`ListeningNode::join`](crate::ListeningNode::join) does — one loop per
//! core, each running its processes' handlers — but binds no listener and
//! starts no dialer. A sealed frame crosses a sampled delay, so frames of
//! one link overtake each other: the non-FIFO channel of the paper's
//! model, on the handler path deployments run. A [`Cluster`] is the
//! [`ReactorNode`] this builds.

use std::net::{Ipv4Addr, SocketAddr};
use std::time::Duration;

use twobit_cache::CacheMode;
use twobit_proto::{Automaton, ProcessId, RegisterId, SystemConfig};
use twobit_runtime::{BuildError, FlushPolicy};
use twobit_simnet::DelayModel;

use crate::link::ChaosConfig;
use crate::node::{start, Carriers};
use crate::{ReactorNode, ReactorNodeBuilder};

/// A running in-process cluster: a [`ReactorNode`] that hosts every
/// process and whose links are chaos links. Built by [`ClusterBuilder`].
pub type Cluster<A> = ReactorNode<A>;

/// Builder for a [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    node: ReactorNodeBuilder,
    chaos: ChaosConfig,
}

impl ClusterBuilder {
    /// Starts configuring a cluster of `cfg.n()` processes hosting a single
    /// register (use [`ClusterBuilder::registers`] for more).
    pub fn new(cfg: SystemConfig) -> Self {
        ClusterBuilder {
            node: ReactorNodeBuilder::new(cfg),
            chaos: ChaosConfig {
                delay: DelayModel::Uniform { lo: 50, hi: 500 }, // 50–500µs
                seed: 0,
                wire_codec: false,
            },
        }
    }

    /// Sets the local read-cache mode (default [`CacheMode::Off`]). Under
    /// [`CacheMode::Safe`] each process serves a read from its own
    /// confirmed snapshot — zero frames, zero wire bytes — when it is the
    /// register's SWMR writer (`Automaton::swmr_writer`); decisions are
    /// counted in `NetStats::cache_hits` / `cache_misses` /
    /// `cache_fallbacks`. [`CacheMode::UnsafeAblated`] drops the gate — a
    /// deliberately unsound negative control.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.node = self.node.cache_mode(mode);
        self
    }

    /// Routes every sealed frame through the byte-level codec
    /// (`Frame::encode_append` → `Frame::decode_into`) on its link: the
    /// cluster then delivers the *decoded* bytes, proving serialization
    /// fidelity on the live path, and
    /// [`NetStats::wire_bytes`](twobit_proto::NetStats::wire_bytes) reports
    /// the bytes a socket would carry. Requires a codec-capable message
    /// type — a cost-model-only message panics the event loop at the first
    /// seal (operations then time out).
    pub fn wire_codec(mut self, on: bool) -> Self {
        self.chaos.wire_codec = on;
        self
    }

    /// Sets the links' default frame flush policy (how aggressively
    /// envelopes coalesce; [`FlushPolicy::immediate`] sends every message
    /// alone, with a delay of its own, [`FlushPolicy::adaptive`] sends
    /// whatever one event-loop pass emitted toward a link, up to
    /// `max_batch` per frame, [`FlushPolicy::fixed`] also holds a batch
    /// for company). Validated at build time — an unsatisfiable policy is
    /// a typed [`BuildError::Config`].
    pub fn flush_policy(mut self, flush: FlushPolicy) -> Self {
        self.node = self.node.flush_policy(flush);
        self
    }

    /// Overrides the flush policy for one ordered link `src → dst`,
    /// leaving every other link on the cluster-wide default — the
    /// asymmetric-topology knob (e.g. coalesce hard toward a write-heavy
    /// hub while keeping reader links latency-lean). Also validated at
    /// build time.
    pub fn flush_policy_for(
        mut self,
        src: impl Into<ProcessId>,
        dst: impl Into<ProcessId>,
        flush: FlushPolicy,
    ) -> Self {
        self.node = self.node.flush_policy_for(src, dst, flush);
        self
    }

    /// Seeds the per-link delay samplers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.chaos.seed = seed;
        self
    }

    /// Sets the link delay model (ticks = microseconds).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.chaos.delay = delay;
        self
    }

    /// Sets the client-side operation timeout.
    pub fn op_timeout(mut self, timeout: Duration) -> Self {
        self.node = self.node.op_timeout(timeout);
        self
    }

    /// Hosts registers `r0 .. r(count-1)`.
    pub fn registers(mut self, count: usize) -> Self {
        self.node = self.node.registers(count);
        self
    }

    /// Hosts exactly the given registers.
    pub fn register_ids(mut self, registers: Vec<RegisterId>) -> Self {
        self.node = self.node.register_ids(registers);
        self
    }

    /// Builds and starts the cluster with one automaton per process (all
    /// hosted registers get identical per-process instances).
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::build_sharded`].
    pub fn build<A, F>(self, initial: A::Value, mut make: F) -> Result<Cluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(ProcessId) -> A,
    {
        self.build_sharded(initial, move |_reg, id| make(id))
    }

    /// Builds and starts the cluster: one automaton per `(register,
    /// process)` pair, created by `make`, run by one event loop per core
    /// (at most one per process).
    ///
    /// # Errors
    ///
    /// [`BuildError::Config`] for an unsatisfiable flush policy (default
    /// or per-link override), caught before any event loop exists;
    /// [`BuildError::Io`] only when an event loop's waker cannot be made.
    ///
    /// # Panics
    ///
    /// Panics if no registers are configured.
    pub fn build_sharded<A, F>(self, initial: A::Value, make: F) -> Result<Cluster<A>, BuildError>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        // A cluster binds nothing, and reports the unspecified address.
        let addr = SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0));
        start(self.node, Carriers::Chaos(self.chaos), addr, initial, make)
    }
}

#[cfg(test)]
impl ClusterBuilder {
    /// Sets the event-loop count, which a cluster otherwise takes from the
    /// cores, so a test can pin one loop (the sending loop runs every
    /// handler) or several (frames cross mailboxes).
    pub(crate) fn pool_size(mut self, pool: usize) -> Self {
        self.node = self.node.pool_size(pool);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_baselines::AbdProcess;
    use twobit_core::TwoBitProcess;
    use twobit_proto::{Driver, OpOutcome, Operation};
    use twobit_runtime::{ClientError, ConfigError};

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::max_resilience(n)
    }

    #[test]
    fn builder_rejects_zero_max_batch_as_typed_error() {
        // Regression: a zero max_batch used to be caught by an assert!
        // inside each link — the panic stranded every message on that pair
        // while the cluster looked healthy.
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = ClusterBuilder::new(c)
            .flush_policy(FlushPolicy {
                max_batch: 0,
                hold: Duration::ZERO,
            })
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        let Err(err) = err else {
            panic!("a zero max_batch must fail the build")
        };
        assert!(
            matches!(
                err,
                BuildError::Config(ConfigError::ZeroMaxBatch { link: None })
            ),
            "expected a typed config error, got {err}"
        );
    }

    #[test]
    fn builder_rejects_bad_per_link_override_naming_the_link() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let err = ClusterBuilder::new(c)
            .flush_policy_for(0, 2, FlushPolicy::fixed(0, Duration::ZERO))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64));
        let Err(err) = err else {
            panic!("a zero max_batch override must fail the build")
        };
        match err {
            BuildError::Config(ConfigError::ZeroMaxBatch { link: Some((a, b)) }) => {
                assert_eq!((a, b), (ProcessId::new(0), ProcessId::new(2)));
            }
            other => panic!("expected a link-naming config error, got {other}"),
        }
    }

    #[test]
    fn per_link_overrides_and_adaptive_default_serve_reads_and_writes() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(31)
            .flush_policy(FlushPolicy::adaptive(
                64,
                Duration::ZERO,
                Duration::from_micros(200),
            ))
            // One asymmetric link kept latency-lean.
            .flush_policy_for(0, 1, FlushPolicy::immediate())
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        for i in 1..=5u64 {
            w.write(i).unwrap();
            assert_eq!(r.read().unwrap(), i);
        }
        let history = cluster.history();
        let (_, stats) = cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
        assert_eq!(
            stats.flushes_total(),
            stats.frames_sent(),
            "every frame carries exactly one flush reason"
        );
    }

    #[test]
    fn twobit_write_then_read() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(1)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(cluster.thread_count(), cores.min(3), "no thread per link");
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(7).unwrap();
        assert_eq!(r.read().unwrap(), 7);
        let history = cluster.history();
        let (_, stats) = cluster.shutdown();
        assert_eq!(history.records.len(), 2);
        assert!(history
            .records
            .iter()
            .all(twobit_proto::OpRecord::is_complete));
        assert!(stats.total_sent() > 0);
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn abd_cluster_works_too() {
        let c = cfg(5);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(2)
            .build(0u64, |id| AbdProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(4);
        for i in 1..=5u64 {
            w.write(i).unwrap();
            assert_eq!(r.read().unwrap(), i);
        }
        let history = cluster.history();
        cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn crash_minority_still_live() {
        let c = cfg(5); // t = 2
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(3)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(1).unwrap();
        cluster.crash(3).unwrap();
        cluster.crash(4).unwrap();
        w.write(2).unwrap();
        assert_eq!(r.read().unwrap(), 2);
        let history = cluster.history();
        cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn crash_majority_times_out() {
        let c = cfg(3); // t = 1, quorum 2
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(4)
            .op_timeout(Duration::from_millis(300))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        w.write(1).unwrap();
        cluster.crash(1).unwrap();
        cluster.crash(2).unwrap();
        // The writer alone cannot reach a quorum of 2.
        assert_eq!(w.write(2), Err(ClientError::Timeout));
    }

    #[test]
    fn crashed_process_client_fails() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .op_timeout(Duration::from_millis(300))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        cluster.crash(1).unwrap();
        let mut r = cluster.client(1);
        // Either the inbox is already closed or the op times out — the
        // operation must not succeed.
        assert!(r.read().is_err());
    }

    #[test]
    fn sharded_cluster_serves_independent_registers() {
        let c = cfg(3);
        let cluster = ClusterBuilder::new(c)
            .seed(5)
            .registers(4)
            // Register rk's writer is process k mod n.
            .build_sharded(0u64, |reg, id| {
                TwoBitProcess::new(id, c, ProcessId::new(reg.index() % 3), 0u64)
            })
            .unwrap();
        for k in 0..4usize {
            let reg = RegisterId::new(k);
            let mut w = cluster.client_for(k % 3, reg).unwrap();
            let mut r = cluster.client_for((k + 1) % 3, reg).unwrap();
            w.write(100 + k as u64).unwrap();
            assert_eq!(r.read().unwrap(), 100 + k as u64);
        }
        let sharded = cluster.sharded_history();
        assert_eq!(sharded.len(), 4);
        for (_, h) in sharded.iter() {
            assert_eq!(h.len(), 2);
            twobit_lincheck::check_swmr(h).unwrap();
        }
        // Per-shard wire accounting adds up to the aggregate.
        let stats = cluster.stats();
        let shard_sum: u64 = stats.shards().map(|(_, t)| t.sent).sum();
        assert_eq!(shard_sum, stats.total_sent());
        assert!(stats.routing_bits() > 0, "4 registers need shard tags");
    }

    #[test]
    fn concurrent_issue_on_same_register_is_typed_error() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(6)
            // Slow links so the first op is still in flight when the second
            // is issued.
            .delay(DelayModel::Fixed(50_000))
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut a = cluster.client(0);
        let mut b = cluster.client(0);
        let handle = a.issue(Operation::Write(1)).unwrap();
        // A clone of the same process's client cannot sneak a concurrent op
        // in — the old footgun that panicked the process's handler.
        match b.issue(Operation::Write(2)) {
            Err(ClientError::OperationInFlight { proc, reg }) => {
                assert_eq!(proc, ProcessId::new(0));
                assert_eq!(reg, RegisterId::ZERO);
            }
            other => panic!("expected OperationInFlight, got {other:?}"),
        }
        assert_eq!(handle.wait().unwrap(), OpOutcome::Written);
        // After completion the pair is free again.
        b.write(2).unwrap();
        let history = cluster.history();
        cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn pipelined_handles_across_registers() {
        let c = cfg(3);
        let cluster = ClusterBuilder::new(c)
            .seed(7)
            .registers(3)
            .build_sharded(0u64, |_reg, id| {
                TwoBitProcess::new(id, c, ProcessId::new(0), 0u64)
            })
            .unwrap();
        // One client per register, all bound to p0: issue all three writes
        // before waiting on any (pipelining across shards).
        let mut clients: Vec<_> = (0..3)
            .map(|k| cluster.client_for(0, RegisterId::new(k)).unwrap())
            .collect();
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, cl)| cl.issue(Operation::Write(k as u64 + 1)).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap(), OpOutcome::Written);
        }
        let sharded = cluster.sharded_history();
        for (_, h) in sharded.iter() {
            twobit_lincheck::check_swmr(h).unwrap();
        }
    }

    #[test]
    fn abandoned_handle_outcome_is_reaped() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(8)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let handle = w.issue(Operation::Write(1)).unwrap();
        drop(handle); // abandon without waiting
                      // The next issue either reaps the landed outcome and proceeds, or
                      // reports the op as still in flight — never a thread panic.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match w.issue(Operation::Write(2)) {
                Ok(h) => {
                    assert_eq!(h.wait().unwrap(), OpOutcome::Written);
                    break;
                }
                Err(ClientError::OperationInFlight { .. }) => {
                    assert!(std::time::Instant::now() < deadline, "op never landed");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        let history = cluster.history();
        cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn safe_cache_serves_writer_co_located_reads_with_zero_traffic() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let cluster = ClusterBuilder::new(c)
            .seed(23)
            .cache_mode(CacheMode::Safe)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let mut w = cluster.client(0);
        let mut r = cluster.client(1);
        w.write(7).unwrap();
        let sent_after_write = cluster.stats().total_sent();
        // The writer's own read is served from its confirmed snapshot.
        assert_eq!(w.read().unwrap(), 7);
        let stats = cluster.stats();
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(
            stats.total_sent(),
            sent_after_write,
            "a gated hit sends no protocol messages"
        );
        // A non-writer's read runs the protocol (fallback, not a hit).
        assert_eq!(r.read().unwrap(), 7);
        let stats = cluster.stats();
        assert_eq!(stats.cache_hits(), 1, "p1's read was not served locally");
        assert!(stats.total_sent() > sent_after_write);
        let history = cluster.history();
        cluster.shutdown();
        twobit_lincheck::check_swmr(&history).unwrap();
    }

    #[test]
    fn driver_interface_drives_the_cluster() {
        let c = cfg(3);
        let writer = ProcessId::new(0);
        let mut cluster = ClusterBuilder::new(c)
            .seed(9)
            .build(0u64, |id| TwoBitProcess::new(id, c, writer, 0u64))
            .unwrap();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        Driver::write(&mut cluster, p0, RegisterId::ZERO, 7).unwrap();
        assert_eq!(Driver::read(&mut cluster, p1, RegisterId::ZERO).unwrap(), 7);
        let sharded = Driver::history(&cluster);
        twobit_lincheck::check_swmr(sharded.shard(RegisterId::ZERO).unwrap()).unwrap();
    }
}
