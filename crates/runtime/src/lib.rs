//! Live threaded message-passing runtime for register automatons.
//!
//! Where `twobit-simnet` executes an [`Automaton`](twobit_proto::Automaton)
//! under *virtual* time for deterministic measurement, this crate runs the
//! same automaton code on real OS threads connected by `crossbeam` channels:
//! one thread per process, one *chaos link* thread per ordered process pair.
//! Links inject sampled delays (reusing
//! [`DelayModel`](twobit_simnet::DelayModel), interpreted in microseconds)
//! and therefore real reordering on the non-FIFO channels; processes can be
//! crashed at any time. Client handles offer a blocking `read`/`write` API —
//! the register abstraction the paper builds.
//!
//! Operation histories are recorded with client-side monotonic timestamps
//! and can be fed to `twobit-lincheck` for post-hoc atomicity checking, so
//! the live runtime doubles as an end-to-end stress test (experiment E10).
//!
//! What a live deployment *is*, whatever moves its frames — mailboxes, crash
//! flags, lifecycle, recorder, statistics, the per-pair in-flight table, and
//! the one `Driver` body over them — lives in [`Spine`]; [`Cluster`] adds
//! threads and chaos links, the reactor transport adds event loops and
//! sockets, and both share [`DeployConfig`] for the knobs they have in
//! common.
//!
//! # Examples
//!
//! ```
//! use twobit_core::TwoBitProcess;
//! use twobit_proto::{ProcessId, SystemConfig};
//! use twobit_runtime::ClusterBuilder;
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! let writer = ProcessId::new(0);
//! let cluster = ClusterBuilder::new(cfg)
//!     .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
//!
//! let mut w = cluster.client(writer);
//! let mut r = cluster.client(ProcessId::new(1));
//! w.write(42)?;
//! assert_eq!(r.read()?, 42);
//!
//! let (history, _stats) = cluster.shutdown();
//! twobit_lincheck::check_swmr(&history)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod cluster;
mod link;
pub mod recorder;
pub mod recovery;
mod reply;
pub mod spine;

pub use batcher::{BuildError, ConfigError, Flush, FlushPolicy, LinkBatcher};
pub use client::{ClientError, OpHandle, RegisterClient};
pub use cluster::{Cluster, ClusterBuilder, Incoming, ProcessCore, RegisterSnapshots};
pub use recorder::Recorder;
pub use recovery::recover_process;
pub use reply::ReplyTo;
pub use spine::{DeployConfig, Spine};
