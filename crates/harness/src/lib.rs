//! Experiment harness: regenerates every quantitative claim of the paper.
//!
//! The paper's evaluation artifact is **Table 1** (six cost metrics × four
//! algorithms) plus in-text claims (Theorem 2's message counts, the 2Δ/4Δ
//! latency bounds, the P1/P2 synchronizer properties). Each experiment
//! module reproduces one of them on the deterministic simulator (or, for
//! E10, on a live chaos-link cluster) and emits a markdown/CSV report:
//!
//! | module | experiment | paper source |
//! |--------|-----------|--------------|
//! | [`table1`] | E1.1–E1.6 | Table 1 |
//! | [`latency`] | E2 latency bounds, E9 distributions | Abstract, §1, §5 |
//! | [`msgs`] | E3 exact message complexity | Theorem 2 |
//! | [`crashes`] | E4 crash tolerance & majority necessity | §2.2, Thm 1 |
//! | [`synchronizer`] | E5 P1/P2 under reordering | §3.3, §5 |
//! | [`soak`] | E6 randomized linearizability soak | Lemma 10 |
//! | [`ablation`] | E7/E12 fast-path read, read-dominated mix, line 9 ablation | Fig. 1 comment, fn. 3, §4 Claim 3 |
//! | [`wire_growth`] | E8 control-bit growth | §1, §5 |
//! | [`live`] | E10 live-runtime end-to-end | whole system |
//!
//! E11 (the negative control: a deliberately broken register caught by the
//! checkers) lives in the integration test suite
//! (`tests/negative_controls.rs`).
//!
//! Run them all via the `experiments` binary:
//! `cargo run -p twobit-harness --bin experiments -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod crashes;
pub mod latency;
pub mod live;
pub mod measure;
pub mod msgs;
pub mod report;
pub mod soak;
pub mod synchronizer;
pub mod table1;
pub mod wire_growth;

pub use measure::{Algo, OpMetrics};
pub use report::Table;

/// Δ used by all experiments (ticks); latencies are reported in Δ units.
pub const DELTA: u64 = twobit_simnet::DEFAULT_DELTA;
