//! Process-local read caching with epoch-based reclamation.
//!
//! The paper makes atomic registers cheap *on the wire* — two control bits
//! per message. This crate makes the dominant operation cheap *off* the
//! wire: a per-process snapshot of each register's last locally-completed
//! value, maintained with single-writer multi-reader epoch reclamation
//! ([`epoch`]), lets a read that passes the safety gate ([`cache`]) return
//! with **zero communication** — a pinned pointer load and a clone.
//!
//! Two layers:
//!
//! * [`epoch`] — the reclamation substrate: one writer advances a global
//!   epoch; readers pin it with RAII guards; replaced values are retired
//!   and freed only once no guard can still see them. Lock-free and
//!   allocation-free on the read path. This is the workspace's only
//!   `unsafe` code, documented invariant by invariant.
//! * [`cache`] — the register cache proper: [`CacheWriter`] publishes each
//!   locally-completed operation's value, [`CacheReader`] serves a read
//!   only when the gate holds (reader co-located with the register's SWMR
//!   writer, entry confirmed by a completed operation).
//!   [`CacheMode::UnsafeAblated`] removes the gate as a negative control
//!   for the model checker.
//!
//! Every backend (`twobit-simnet`, `twobit-runtime`, `twobit-reactor`)
//! wires one pair per process and counts hits/misses/fallbacks in
//! `NetStats`. Lifecycle and the soundness argument: `docs/read-cache.md`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod epoch;

pub use cache::{cache_pair, CacheDecision, CacheMode, CacheReader, CacheWriter};
