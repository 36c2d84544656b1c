//! Quickstart: one workload, three backends, checked atomicity.
//!
//! The public API is organized around the backend-agnostic `Driver` trait:
//! the same workload definition (no backend-specific code) runs on the
//! deterministic discrete-event simulator, on the live event loops with
//! chaos links, *and* on a real loopback TCP cluster. Every run is
//! then checked — per register — by the linearizability checker.
//!
//! # Envelopes, frames, and the three kinds of bits
//!
//! Every protocol message is wrapped in an `Envelope` naming its target
//! register, but envelopes never cross a link alone: each ordered link
//! coalesces whatever is queued into a `Frame` — one wire unit, one
//! sampled delay, one shared routing header that delta-encodes each shard
//! tag once per frame instead of once per message. Delivery is atomic:
//! a frame reaches a live process whole, or dies whole with a crashed one.
//!
//! The stats therefore split three ways:
//!
//! * `control_bits` — the paper's claim, exactly 2 per message, untouched
//!   by sharding *and* by framing;
//! * `routing_bits` — the unframed-equivalent figure: `⌈log₂ k⌉` per
//!   message, what per-envelope shard tags *would* cost;
//! * `frame_header_bits` — the routing bits actually on the wire: the
//!   shared headers, far below `routing_bits` once frames batch (the
//!   64-shard comparison is pinned in `tests/frame_semantics.rs`).
//!
//! Since the wire-codec redesign frames are real byte blobs
//! (`Frame::encode`/`Frame::decode`, layout in `docs/wire-format.md`).
//! The simulator runs below with `wire_codec(true)` — every frame crosses
//! as encoded-then-decoded bytes — and the reactor has no other mode: its
//! `wire_bytes` are what the kernel actually carried.
//!
//! # Flush semantics: when does a frame form?
//!
//! A frame is whatever a link gathered before its next flush point: one
//! pass of an event loop (a chaos link also caps it at `max_batch`, one
//! delay draw per frame). So batches grow with load, and a lone message on
//! an idle link leaves at once. A `FlushPolicy` (both link kinds;
//! `flush_hold`/`flush_hold_policy` is the simulator's virtual-time
//! analogue) flushes on **size**
//! (`max_batch` pending), on **hold** (the oldest item waited out the
//! hold), or on **shutdown** — and the stats say which, per frame
//! (`NetStats::flushes(reason)`, plus the observed-hold summary). The hold
//! is an optional fixed timer: `FlushPolicy::fixed(max_batch, hold)`
//! waits that long for company, `FlushPolicy::adaptive(max_batch, floor,
//! ceil)` holds only its floor and never reads its ceiling. Per-link
//! overrides (`flush_policy_for` / `flush_hold_for`) tune asymmetric
//! topologies. The chaos-link cluster below runs adaptive; see
//! `docs/wire-format.md` for the full semantics and
//! `tests/frame_semantics.rs` for the simulator's static-vs-adaptive rows.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use twobit::{
    ClusterBuilder, DelayModel, Driver, FlushPolicy, Operation, ProcessId, ReactorClusterBuilder,
    RegisterId, SpaceBuilder, SystemConfig, TwoBitProcess, Workload,
};

/// Writes 1..=10 from the writer interleaved with reads from two readers —
/// a plain data structure, not code, so every backend runs it identically.
fn workload(reg: RegisterId) -> Workload<u64> {
    let mut w = Workload::new();
    for v in 1..=10u64 {
        w = w
            .step(0, reg, Operation::Write(v))
            .step(1, reg, Operation::Read)
            .step(2, reg, Operation::Read);
    }
    w
}

/// Everything below `run` is backend-independent: drive, crash, re-drive,
/// then extract history + stats through the same trait.
fn run<D: Driver<Value = u64>>(
    label: &str,
    driver: &mut D,
) -> Result<(), Box<dyn std::error::Error>> {
    let reg = RegisterId::ZERO;
    workload(reg).run_on(driver)?;

    // Crash up to t processes — the register stays live and atomic.
    driver.crash(ProcessId::new(3)).unwrap();
    driver.crash(ProcessId::new(4)).unwrap();
    driver.write(ProcessId::new(0), reg, 11)?;
    let after = driver.read(ProcessId::new(1), reg)?;

    let sharded = driver.history();
    twobit::lincheck::check_swmr_sharded(&sharded)?;
    let stats = driver.stats();
    println!(
        "{label:8} {} ops, {} msgs in {} frames ({:.1} msgs/frame, {} B on wire, \
         flushed {}×size/{}×hold/{}×shutdown, mean hold {:.0}µs), \
         read {after} after 2 crashes, max {} control bits/msg — atomic",
        sharded.total_ops(),
        stats.total_sent(),
        stats.frames_sent(),
        stats.messages_per_frame(),
        stats.wire_bytes(),
        stats.flushes(twobit::FlushReason::Size),
        stats.flushes(twobit::FlushReason::Hold),
        stats.flushes(twobit::FlushReason::Shutdown),
        stats.mean_observed_hold_ns() / 1_000.0,
        stats.max_msg_control_bits(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // CAMP_{n,t}[t < n/2]: 5 processes, at most 2 may crash.
    let cfg = SystemConfig::new(5, 2)?;
    let writer = ProcessId::new(0);

    // Backend 1: deterministic simulator (virtual time, replayable seed),
    // with the byte codec in the loop proving serialization fidelity.
    let mut sim = SpaceBuilder::new(cfg)
        .seed(7)
        .wire_codec(true)
        .build(0u64, |_reg, id| TwoBitProcess::new(id, cfg, writer, 0u64));
    run("simnet", &mut sim)?;

    // Backend 2: the live event loops with chaos links — 50–500µs delays
    // plus 2ms spikes, so frames genuinely overtake each other on their way
    // to a handler (the channels are not FIFO; the algorithm's
    // alternating-bit discipline handles that). The links run the adaptive
    // flush policy: no hold, so each frame is whatever one event-loop pass
    // emitted toward its destination.
    let mut cluster = ClusterBuilder::new(cfg)
        .seed(7)
        .delay(DelayModel::Spiky {
            lo: 50,
            hi: 500,
            spike_ppm: 100_000,
            spike_lo: 1_000,
            spike_hi: 2_000,
        })
        .flush_policy(FlushPolicy::adaptive(
            64,
            Duration::ZERO,
            Duration::from_micros(200),
        ))
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
    run("cluster", &mut cluster)?;

    // Backend 3: the reactor over real loopback TCP — one socket per pair
    // of event loops, each frame a byte blob sequence-numbered on its
    // ordered link, every process and link on a fixed event-loop pool.
    // Same workload, same checks.
    let mut node = ReactorClusterBuilder::new(cfg)
        .build(0u64, |id| TwoBitProcess::new(id, cfg, writer, 0u64))?;
    run("reactor", &mut node)?;

    println!("same workload, same checks, three execution substrates");
    Ok(())
}
