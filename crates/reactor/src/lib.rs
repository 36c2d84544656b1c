//! `twobit-reactor` — the live runtime: event loops that run a node's
//! processes over cross-host TCP with reconnect-and-resend, or, in one
//! process, over chaos links that delay and reorder frames.
//!
//! A reader and a writer thread per ordered link is fine at `n = 3` and
//! ruinous at `n = 64` (4032 links → 8064 threads). This crate runs *all*
//! of a node's hosted processes, with all of their links, to completion on
//! a pool of event-loop threads — one per core by default — built on a
//! vendored `poll(2)`/`ppoll(2)` readiness poller ([`poller`]) — no `mio`,
//! no `libc` crate, no new dependencies. The loop that owns a process reads
//! its frames, runs its handler inline and batches what the handler sends,
//! so a message never changes threads inside a node. A node's thread count
//! is `min(pool_size, hosted processes) + 1 (dialer)`, independent of the
//! link count, and so is its socket count: one TCP connection per *route*
//! — from a sending loop to a receiving loop — carries every ordered link
//! between their processes (at most `pool²` connections on an all-local
//! node, not `n(n−1)`), and each pass writes each route once.
//!
//! Beyond the flat thread count, the reactor does three things a socket
//! per link does not give for free:
//!
//! * **Cross-host deployment.** The builder is split into
//!   [`ReactorNodeBuilder::listen`] (bind, possibly port 0, report the
//!   bound address) and [`ListeningNode::join`] (peer map → running
//!   node), so each process set can live in a different OS process or a
//!   different machine. [`ReactorNodeBuilder::build`] is the one-call
//!   all-local form for tests and benches ([`ReactorClusterBuilder`] names
//!   the builder in that role).
//! * **Reconnect-and-resend.** A transient socket failure is *not* a
//!   crash: the route re-dials with exponential backoff and each link on
//!   it replays un-acked frames from its bounded resend buffer, using the
//!   `linkseq` route handshake to resume exactly after the receiver's last
//!   delivered frame on that link. Receivers dedup per link by sequence
//!   number, so a frame that was delivered-but-un-acked when the socket
//!   died is never delivered twice. Crash semantics
//!   ([`twobit_proto::Driver::crash`]) are unchanged and permanent.
//! * **The paper's non-FIFO channels, on the same handler path.** A
//!   [`ClusterBuilder`] node hosts every process and binds no socket: its
//!   links are *chaos links*, which seal frames as a route link does and
//!   then hold each for a delay sampled from a seeded
//!   [`DelayModel`](twobit_simnet::DelayModel), so a later frame can
//!   overtake an earlier one on its way to the handler. A [`Cluster`] is
//!   the [`ReactorNode`] it builds.
//!
//! Frame semantics, flush policies, and the `NetStats` reconciliation
//! invariant (`delivered + dropped + abandoned == sent`, exact while
//! `links_abandoned == 0`) are the same on both link kinds; reconnect
//! activity is visible as `reconnects`, `frames_resent`,
//! `frames_deduped`, and `resend_buffer_high_water`. The `Driver` surface
//! is [`twobit_runtime::Spine`]'s, so tickets, timeouts, crash and
//! recovery mean one thing on every live deployment.
//!
//! See `docs/transport.md` for the architecture tour and deployment
//! guide.

// Unlike the rest of the workspace this crate cannot forbid unsafe_code:
// the vendored poller speaks the C ABI directly (two FFI declarations with
// SAFETY comments in `poller::sys`). Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod link;
mod node;
#[allow(unsafe_code)]
pub mod poller;
mod reactor;

pub use cluster::{Cluster, ClusterBuilder};
pub use node::{ListeningNode, ReactorClusterBuilder, ReactorNode, ReactorNodeBuilder};
pub use reactor::ReconnectPolicy;
