//! # twobit — atomic read/write registers from two-bit messages
//!
//! A reproduction of **Mostéfaoui & Raynal, "Two-Bit Messages are Sufficient
//! to Implement Atomic Read/Write Registers in Crash-prone Systems"**
//! (IRISA TR #2034 / PODC'16 line of work): a single-writer multi-reader
//! atomic register for asynchronous message-passing systems with up to
//! `t < n/2` crash failures, whose messages carry **two bits of control
//! information** — just their type (`WRITE0`, `WRITE1`, `READ`, `PROCEED`) —
//! grown here into a multi-register, multi-backend system.
//!
//! The public API is organized around two abstractions:
//!
//! * **[`Driver`]** — the backend-agnostic driving interface
//!   (`invoke`/`poll`/`crash`/`history`/`stats`), implemented by the
//!   deterministic simulator ([`SimSpace`]) and the live event-loop
//!   runtime ([`ReactorNode`]), over real sockets or — as an in-process
//!   [`Cluster`] — over chaos links that delay and reorder frames.
//!   Workloads, checkers, and benchmarks are written once and run on
//!   every backend.
//! * **[`RegisterSpace`]** — many independent *named* registers multiplexed
//!   over one deployment. Each register runs the paper's protocol
//!   unchanged (two control bits per message); the shard tag on the wire is
//!   accounted separately as *routing* bits (see [`proto::NetStats`]).
//!
//! ## Quickstart: one workload, two backends
//!
//! The paper's automaton ([`TwoBitProcess`]) is the default throughout,
//! but registers are pluggable: the multi-writer ABD baseline
//! ([`MwmrProcess`]) and the latency-optimal Oh-RAM hybrid read
//! ([`OhRamProcess`], one round in the common case) host on every
//! backend through the same builders. `docs/algorithms.md` lays out the
//! three protocols' round/bit/generality trade-offs, the Oh-RAM wire
//! layout, and which checker verdict applies to each mode.
//!
//! ```
//! use twobit::{
//!     Driver, Operation, ProcessId, RegisterId, SpaceBuilder, SystemConfig, TwoBitProcess,
//!     Workload,
//! };
//!
//! let cfg = SystemConfig::new(5, 2)?; // 5 processes, up to 2 crashes
//! let writer = ProcessId::new(0);
//! let r0 = RegisterId::ZERO;
//!
//! // A portable operation script — no backend-specific code.
//! let workload = Workload::new()
//!     .step(0, r0, Operation::Write(7u64))
//!     .step(3, r0, Operation::Read);
//!
//! // Run it on the deterministic simulator...
//! let mut sim = SpaceBuilder::new(cfg)
//!     .seed(42)
//!     .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, writer, 0u64));
//! workload.run_on(&mut sim)?;
//! twobit::lincheck::check_swmr_sharded(&sim.history())?;
//!
//! // ...and, unchanged, on the live event loops with chaos links.
//! let mut cluster = twobit::ClusterBuilder::new(cfg)
//!     .seed(42)
//!     .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
//! workload.run_on(&mut cluster)?;
//! twobit::lincheck::check_swmr_sharded(&Driver::history(&cluster))?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Many named registers on one cluster
//!
//! ```
//! use twobit::{ClusterBuilder, ProcessId, RegisterSpace, SystemConfig, TwoBitProcess};
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! // Each register gets its own writer (round-robin over processes), and
//! // its own independent instance of the paper's automaton.
//! let cluster = ClusterBuilder::new(cfg)
//!     .registers(4)
//!     .build_sharded(0u64, |reg, id| {
//!         TwoBitProcess::new(id, cfg, ProcessId::new(reg.index() % 3), 0u64)
//!     })?;
//! let mut space = RegisterSpace::new(cluster, ["alpha", "beta", "gamma", "delta"])?;
//!
//! space.write(1, "beta", 9)?; // p1 is beta's writer (r1)
//! assert_eq!(space.read(2, "beta")?, 9);
//!
//! // Per-register atomicity, checked not assumed:
//! twobit::lincheck::check_swmr(&space.history_of("beta").unwrap())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Multi-writer registers
//!
//! A register is declared [`RegisterMode::Swmr`] (the default — the
//! paper's protocol, one writer) or [`RegisterMode::Mwmr`]: *any* process
//! may issue `write`, served by the ABD-style multi-writer automaton
//! ([`MwmrProcess`], timestamps ⟨counter, process-id⟩). There is no global
//! write lock to lift — the model's sequentiality, and with it
//! [`ClientError::OperationInFlight`], is enforced per
//! `(process, register)` pair, so each writer owns its own in-flight slot
//! and concurrent writes from distinct processes pipeline freely.
//! Verification dispatches on the declared mode:
//! [`lincheck::check_mwmr_sharded`] checks every register as MWMR
//! (timestamp-order linearizability), [`lincheck::check_sharded_modes`]
//! routes each register of a mixed space to the right checker. For mixed
//! deployments — SWMR and MWMR registers on one cluster — host
//! [`baselines::MixedProcess`] per register
//! (`MixedProcess::for_mode(mode, ...)`):
//!
//! ```
//! use twobit::lincheck::{check_mwmr_sharded, check_sharded_modes};
//! use twobit::{
//!     MwmrProcess, Operation, RegisterMode, RegisterSpace, SpaceBuilder, SystemConfig,
//! };
//!
//! let cfg = SystemConfig::new(5, 2)?;
//! // Host the MWMR automaton and declare the register multi-writer.
//! let sim = SpaceBuilder::new(cfg)
//!     .seed(1)
//!     .wire_codec(true) // MwmrMsg is codec-capable: frames cross as bytes
//!     .build(0u64, |_reg, id| MwmrProcess::new(id, cfg, 0u64));
//! let mut space = RegisterSpace::new_with_modes(sim, [("counter", RegisterMode::Mwmr)])?;
//!
//! // Three *different* processes write concurrently — no OperationInFlight:
//! // the in-flight slot is per (process, register), i.e. per writer.
//! let t0 = space.issue(0, "counter", Operation::Write(10u64))?;
//! let t1 = space.issue(1, "counter", Operation::Write(20))?;
//! let t2 = space.issue(2, "counter", Operation::Write(30))?;
//! for t in [t0, t1, t2] {
//!     space.wait(&t)?;
//! }
//! assert!([10, 20, 30].contains(&space.read(4, "counter")?));
//!
//! // Timestamp-order linearizability, checked not assumed — per register,
//! // or dispatched by each register's declared mode.
//! check_mwmr_sharded(&space.histories())?;
//! check_sharded_modes(&space.histories(), space.modes())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Blocking clients still exist and gained pipelining: [`RegisterClient`]
//! splits into [`RegisterClient::issue`] → [`runtime::OpHandle::wait`], so
//! one caller can overlap operations on *different* registers while each
//! register stays sequential. Concurrent operations on the same
//! `(process, register)` pair are rejected with a typed
//! [`ClientError::OperationInFlight`] instead of wedging the process.
//!
//! ## The wire codec and the socket backend: the reactor transport
//!
//! The unit of exchange on every link is bytes, not clones: a frame is one
//! contiguous, length-prefixed byte blob ([`Frame::encode`] /
//! [`Frame::decode`] — layout in `docs/wire-format.md`), and every message
//! type implements a bit-exact codec through the `WireMessage`
//! `encoded_bits`/`encode_into`/`decode` methods. For the paper's
//! automaton the encoding *is* the cost model — exactly two control bits
//! per message in the byte stream. The simulator and the chaos-link
//! cluster prove fidelity on demand (`SpaceBuilder::wire_codec(true)`,
//! `ClusterBuilder::wire_codec(true)`: every frame is delivered from its
//! decoded bytes); route sockets have no other mode — sequence-numbered
//! frame blobs, each naming its ordered link, with every link between two
//! event loops sharing one TCP connection.
//!
//! That backend is the reactor ([`ReactorNodeBuilder`], crate
//! `twobit-reactor`). A thread pair per ordered link is transparent at
//! `n = 3` and untenable at `n = 64` (4032 links), so the reactor runs
//! every hosted process to completion on a pool of event-loop threads,
//! one per core by default (`poll(2)`-based, no new dependencies): the loop
//! that owns a process owns its links, decodes its frames, runs its
//! handler inline and batches what the handler sends — no process
//! threads, no channel hop per message — so a node runs
//! `min(pool_size, hosted processes) + 1` threads no matter how many
//! links it owns, and one socket per *route* (sending loop → receiving
//! loop) carries every link between two loops, written once per pass. It deploys **across hosts** (split `listen(addr)` →
//! report the bound port → `join(peer_map)`) and gives the paper's
//! reliable channels over sockets that fail, by **reconnect-and-resend**
//! — a transiently failed socket re-dials with backoff and replays
//! un-acked frames from a bounded resend buffer (receivers ack
//! cumulatively, every 32 frames or 10 ms), with sequence-number dedup on
//! the receive side, all visible in [`proto::NetStats`] (`reconnects`,
//! `frames_resent`, `frames_deduped`, `resend_buffer_high_water`).
//!
//! ```
//! use twobit::{Driver, ProcessId, RegisterId, ReactorClusterBuilder, SystemConfig, TwoBitProcess};
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! let writer = ProcessId::new(0);
//! let mut node = ReactorClusterBuilder::new(cfg)
//!     .pool_size(2) // 2 event loops (3 processes dealt over them) + 1 dialer
//!     .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
//! node.write(writer, RegisterId::ZERO, 9)?;
//! assert_eq!(node.read(ProcessId::new(2), RegisterId::ZERO)?, 9);
//! assert_eq!(node.thread_count(), 3);
//! assert!(node.stats().wire_bytes() > 0); // real bytes, real sockets
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ReactorClusterBuilder`] is [`ReactorNodeBuilder`] under its all-local
//! name: `build`/`build_sharded` start one node hosting every process on
//! an ephemeral loopback port. For multi-host deployments use
//! `ReactorNodeBuilder::new(cfg).host([..]).listen(addr)?.join(&peers,
//! ..)` and drive each process through the node that hosts it (a
//! non-hosted process is a typed `DriverError::Backend`). See
//! `docs/transport.md` for the architecture and deployment guide.
//! **Migrating from the retired thread-per-link TCP builder:** construct
//! `ReactorClusterBuilder::new(cfg)` instead — same setters.
//!
//! ## Migrating to the byte-level frame API
//!
//! * `Frame::encode()` returns the length-prefixed blob; `Frame::decode`
//!   expects the prefix included. `FrameHeader::bits()`/`encode()` now
//!   include the header-codec-v2 mode bit (delta/gamma vs span bitmap,
//!   whichever is smaller per frame); `bits_gamma()` reports the forced
//!   delta/gamma figure for comparison.
//! * `FrameDecodeError` is an alias of `proto::WireError` (the old
//!   `Truncated`/`Overflow` variants remain, with new ones alongside).
//! * Custom `WireMessage`/`Payload` impls keep compiling — the codec
//!   methods have defaults — but must override them to cross the reactor's
//!   sockets or a `wire_codec(true)` backend. See `docs/wire-format.md`.
//!
//! ## Flush semantics: load-sized batches and an optional hold
//!
//! How aggressively a link coalesces envelopes into frames is a
//! [`FlushPolicy`]: flush on **size** (`max_batch` pending), on **hold**
//! (the oldest envelope waited out the hold), or on **shutdown** —
//! every backend records which, per frame
//! ([`proto::NetStats::flushes`]), plus the observed-hold summary. A batch
//! is whatever its link gathered before the next flush point — one
//! event-loop pass — so batches grow with load and a lone message on an
//! idle link leaves at once. The hold is an optional fixed timer on top
//! ([`FlushPolicy::fixed`]); [`FlushPolicy::adaptive`] takes its floor as
//! the hold and ignores its ceiling. One shared state machine
//! ([`runtime::LinkBatcher`]) drives every send link, socket or chaos;
//! [`SpaceBuilder::flush_hold_policy`] / [`VirtualHold`] is the
//! simulator's virtual-time analogue, whose adaptive mode still tracks
//! each link's inter-arrival gap. Per-link overrides (`flush_policy_for`,
//! `flush_hold_for`) handle asymmetric topologies, and an unsatisfiable
//! policy (`max_batch == 0`) fails the build with a typed [`BuildError`]
//! instead of stranding a link's messages:
//!
//! ```
//! use std::time::Duration;
//! use twobit::{ClusterBuilder, FlushPolicy, ProcessId, SystemConfig, TwoBitProcess};
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! let writer = ProcessId::new(0);
//! let cluster = ClusterBuilder::new(cfg)
//!     // No hold: each frame is what one event-loop pass emitted toward
//!     // its destination, up to 64 messages.
//!     .flush_policy(FlushPolicy::adaptive(64, Duration::ZERO, Duration::from_micros(200)))
//!     // Keep one latency-critical link unbatched.
//!     .flush_policy_for(0, 1, FlushPolicy::immediate())
//!     .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
//! let mut w = cluster.client(0);
//! w.write(7)?;
//! let stats = cluster.stats();
//! assert_eq!(stats.flushes_total(), stats.frames_sent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Model checking: every schedule of a small configuration
//!
//! The seeded simulator and the chaos runtime *sample* schedules; the
//! model checker ([`check`], crate `twobit-check`) *enumerates* them. A
//! scheduled-mode space (`SpaceBuilder::scheduled(true)`) exposes its
//! enabled events — frame deliveries, operation invocations and
//! responses — and a pluggable [`proto::Scheduler`] picks what fires
//! next; the checker's depth-first explorer drives every
//! partial-order-inequivalent choice sequence of a small configuration,
//! with sleep-set + persistent-set DPOR pruning, bounded crash
//! injection, and a minimized replayable counterexample on failure:
//!
//! ```
//! use twobit::check::{explore, scenarios, ExploreOptions};
//!
//! // n = 3, t = 1: one write racing one read — every interleaving.
//! let report = explore(&scenarios::twobit_swmr_wr(), &ExploreOptions::default())?;
//! assert!(report.violation.is_none(), "the paper's protocol linearizes");
//! assert!(report.exhausted, "the whole space was covered");
//! assert!(report.stats.paths_explored > 0);
//! # Ok::<(), twobit::DriverError>(())
//! ```
//!
//! Counterexample schedules are plain strings (`i0 d3 r0 …`) that replay
//! verbatim through [`proto::ReplayScheduler`]. See
//! `docs/model-checking.md` for what exactly is explored, how DPOR and
//! the settlement cut keep the space finite and small, and how to add a
//! configuration.
//!
//! ## Migrating from the pre-`Driver` API
//!
//! * `ClusterBuilder::new(cfg).build(..)` and `cluster.client(p)` still
//!   work (single register `r0`). Add `.registers(k)` /
//!   `.build_sharded(..)` and `cluster.client_for(p, reg)` for shards.
//! * `SimBuilder` + `ClientPlan` remain the scripted way to drive the
//!   single-register [`Simulation`] (crash points, invariants,
//!   virtual-time reports). For interactive or backend-portable driving,
//!   build a [`SimSpace`] with [`SpaceBuilder`] and use its [`Driver`].
//! * A [`Cluster`] is the [`ReactorNode`] that [`ClusterBuilder`] builds,
//!   so `cluster.shutdown()` returns the per-register histories and the
//!   statistics, as on every reactor node. Take the flat history with
//!   `cluster.history()` *before* `shutdown()`; per-register projections
//!   come from `cluster.sharded_history()` / [`Driver::history`], checked
//!   with [`lincheck::check_swmr_sharded`].
//!
//! ## Crate map
//!
//! * [`core`] — the paper's algorithm ([`TwoBitProcess`]) and its
//!   machine-checked invariants;
//! * [`proto`] — the protocol substrate: system model, automaton interface,
//!   wire-cost accounting, the [`Driver`] trait, sharding ([`proto::ShardSet`],
//!   [`proto::Envelope`]) and [`RegisterSpace`];
//! * [`baselines`] — unbounded ABD (SWMR/MWMR) and cost-faithful emulations
//!   of the bounded baselines of Table 1;
//! * [`simnet`] — the deterministic discrete-event simulator (non-FIFO
//!   channels, crash injection, virtual time), single-register and sharded;
//! * [`cache`] — the epoch-reclaimed per-process read cache and its
//!   writer-co-location safety gate ([`CacheMode`]);
//! * [`runtime`] — what every live deployment shares: the spine, the
//!   process handler, the link batcher, blocking clients, recovery;
//! * [`reactor`] — the live runtime: hosted processes and all of their
//!   links on a fixed event-loop pool — TCP routes across hosts with
//!   reconnect-and-resend, or the chaos links of an in-process
//!   [`Cluster`];
//! * [`lincheck`] — atomicity checking, per register;
//! * [`check`] — the DPOR model checker: exhaustive schedule exploration
//!   for the deterministic backend on small configurations;
//! * [`harness`] — the experiments regenerating the paper's Table 1 and
//!   in-text claims.
//!
//! See `examples/` for more: a portable workload, a named-register KV
//! cache, crash injection, and a synchronizer probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use twobit_baselines as baselines;
pub use twobit_cache as cache;
pub use twobit_check as check;
pub use twobit_core as core;
pub use twobit_harness as harness;
pub use twobit_lincheck as lincheck;
pub use twobit_proto as proto;
pub use twobit_reactor as reactor;
pub use twobit_runtime as runtime;
pub use twobit_simnet as simnet;

pub use twobit_baselines::{
    AbdProcess, MixedMsg, MixedProcess, MwmrProcess, OhRamProcess, PhasedProcess,
};
pub use twobit_cache::{CacheDecision, CacheMode};
pub use twobit_core::{TwoBitOptions, TwoBitProcess};
pub use twobit_proto::{
    Automaton, Driver, DriverError, Effects, Envelope, FlushReason, Frame, FrameCost, FrameHeader,
    History, Lifecycle, LifecycleState, OpId, OpOutcome, OpTicket, Operation, Payload, ProcessId,
    RecoveryRecord, RegisterId, RegisterMode, RegisterSpace, ShardSet, ShardedHistory,
    SystemConfig, Workload,
};
pub use twobit_reactor::{
    Cluster, ClusterBuilder, ListeningNode, ReactorClusterBuilder, ReactorNode, ReactorNodeBuilder,
    ReconnectPolicy,
};
pub use twobit_runtime::{BuildError, ClientError, ConfigError, FlushPolicy, RegisterClient};
pub use twobit_simnet::{
    ClientPlan, CrashPlan, CrashPoint, DelayModel, SimBuilder, SimSpace, Simulation, SpaceBuilder,
    VirtualHold,
};
