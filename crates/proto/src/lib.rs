//! Protocol substrate shared by every register algorithm in this workspace.
//!
//! The paper ([Mostéfaoui & Raynal 2016]) and its baselines (ABD'95 and its
//! bounded variants) are all *message-passing automatons*: deterministic state
//! machines that react to operation invocations and message receptions by
//! updating local state, sending messages, and completing operations. This
//! crate defines that common vocabulary so the same algorithm code can run
//! unchanged on the deterministic discrete-event simulator
//! (`twobit-simnet`) and on the live event loops (`twobit-runtime`,
//! `twobit-reactor`).
//!
//! Main items:
//!
//! * [`ProcessId`], [`SystemConfig`] — the `CAMP_{n,t}` system model
//!   (asynchronous message passing, up to `t < n/2` crash failures).
//! * [`Operation`], [`OpOutcome`], [`OpId`] — read/write operations on a
//!   single-writer multi-reader (SWMR) or multi-writer (MWMR) register.
//! * [`Automaton`] and [`Effects`] — the event-driven execution interface.
//! * [`WireMessage`] — per-message *control-bit* and *data-bit* accounting,
//!   the measurement at the heart of the paper's Table 1 — now with a
//!   byte-level codec (`encoded_bits` / `encode_into` / `decode` over the
//!   [`bits`] module's MSB-first bit I/O), so the two-bit claim is proved
//!   by serialization, not just asserted by accounting.
//! * [`OpRecord`], [`History`] — operation histories consumed by the
//!   linearizability checker (`twobit-lincheck`).
//! * [`Driver`] — the backend-agnostic driving interface (issue/poll/crash/
//!   history/stats) implemented by both execution substrates, so workloads
//!   are written once.
//! * [`RegisterId`], [`Envelope`], [`ShardSet`] — multiplexing many
//!   independent registers over one cluster, with shard tags accounted as
//!   *routing* (not control) bits.
//! * [`Frame`], [`FrameHeader`], [`FrameCost`] — the batching transport
//!   unit: all envelopes queued for one ordered link coalesce into one
//!   frame whose shared header carries each shard tag once (per-frame
//!   chooser between delta/gamma and bitmap tag encodings), so routing
//!   amortizes across the batch while every message keeps exactly its two
//!   control bits. [`Frame::encode`] / [`Frame::decode`] turn a frame into
//!   one contiguous, length-prefixed byte blob (see `docs/wire-format.md`)
//!   — the unit the reactor's TCP links carry.
//! * [`RegisterSpace`], [`Workload`], [`ShardedHistory`] — named registers,
//!   portable operation scripts, and per-register history projection.
//! * [`linkseq`] — per-link frame sequence numbers, the route handshake,
//!   and the record and ack framing that let many links share one socket
//!   and survive transient socket failures with resend (the reactor
//!   transport's wire extension).
//! * [`sched`] — the pluggable scheduling surface for controlled execution:
//!   [`Schedule`] tokens, [`EnabledEvent`]s, and the [`Scheduler`] trait
//!   the `twobit-check` model checker drives the simulator through.
//!
//! [Mostéfaoui & Raynal 2016]: https://hal.inria.fr/hal-01271135

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod bits;
pub mod driver;
pub mod frame;
pub mod history;
pub mod id;
pub mod lifecycle;
pub mod linkseq;
pub mod op;
pub mod payload;
pub mod pool;
pub mod sched;
pub mod shard;
pub mod snapshot;
pub mod space;
pub mod stats;
pub mod wire;

pub use automaton::{Automaton, Effects};
pub use bits::{BitReader, BitWriter, WireError};
pub use bytes::Bytes;
pub use driver::{Driver, DriverError, OpTicket, Workload, WorkloadStep};
pub use frame::{Frame, FrameCost, FrameDecodeError, FrameHeader, MAX_FRAME_BODY_BYTES};
pub use history::{History, OpRecord, RecoveryRecord, ShardedHistory};
pub use id::{ProcessId, RegisterId, SystemConfig, SystemConfigError};
pub use lifecycle::{Lifecycle, LifecycleState, WrongState};
pub use op::{OpId, OpOutcome, Operation};
pub use payload::Payload;
pub use pool::BufferPool;
pub use sched::{
    EnabledEvent, ReplayScheduler, SchedDecision, Schedule, ScheduleStep, Scheduler,
    VirtualTimeScheduler,
};
pub use shard::{ShardSet, UnknownRegister};
pub use snapshot::Snapshot;
pub use space::{RegisterMode, RegisterSpace};
pub use stats::{FlushReason, IncarnationLedger, NetStats, ShardTraffic, StatsSnapshot};
pub use wire::{Envelope, MessageCost, WireMessage};
