//! The repository's benchmark: four workloads over the public `Driver`
//! API, end-to-end metrics with regression bounds, and per-layer floors
//! measured from outside. `README.md` next to this crate's manifest has
//! the tables and the layer→metric predictions; `BENCHMARK.json` at the
//! repository root is the machine-readable contract.

#![warn(missing_docs)]

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod script;
mod trace;
pub mod workloads;
