//! What every live deployment of register automatons shares, whatever
//! carries its frames.
//!
//! Where `twobit-simnet` executes an [`Automaton`](twobit_proto::Automaton)
//! under *virtual* time for deterministic measurement, the live backends
//! run the same automaton code on real threads. This crate holds what they
//! have in common; `twobit-reactor` runs it on event loops, over route
//! sockets or over in-process chaos links:
//!
//! * [`Spine`] — mailboxes, crash flags, lifecycle, the history
//!   [`Recorder`], statistics, the per-pair in-flight table and the one
//!   `Driver` body over them, configured by [`DeployConfig`];
//! * [`ProcessCore`] — the one handler body a hosted process runs on each
//!   [`Incoming`] message or frame;
//! * [`LinkBatcher`] — the batching state machine every send link drives
//!   under its [`FlushPolicy`];
//! * [`RegisterClient`] — blocking `read`/`write` handles, the register
//!   abstraction the paper builds;
//! * [`recover_process`] — the stop-the-world recovery coordinator.
//!
//! Operation histories are recorded with client-side monotonic timestamps
//! and can be fed to `twobit-lincheck` for post-hoc atomicity checking, so
//! a live deployment doubles as an end-to-end stress test (experiment
//! E10).
//!
//! # Examples
//!
//! A chaos-link cluster from `twobit-reactor`, driven through this
//! crate's blocking clients:
//!
//! ```
//! use twobit_core::TwoBitProcess;
//! use twobit_proto::{ProcessId, SystemConfig};
//! use twobit_reactor::ClusterBuilder;
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
//! let history = cluster.history();
//! cluster.shutdown();
//! twobit_lincheck::check_swmr(&history)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod cluster;
pub mod recorder;
pub mod recovery;
mod reply;
pub mod spine;

pub use batcher::{BuildError, ConfigError, Flush, FlushPolicy, LinkBatcher};
pub use client::{ClientError, OpHandle, RegisterClient};
pub use cluster::{Incoming, ProcessCore, RegisterSnapshots};
pub use recorder::Recorder;
pub use recovery::recover_process;
pub use reply::ReplyTo;
pub use spine::{DeployConfig, Spine};
