//! The stop-the-world recovery coordinator shared by every live backend.
//!
//! The deterministic simulator recovers a process by running the event
//! queue to quiescence and then transferring state synchronously — there
//! is nothing in flight by construction. The live deployments (route
//! sockets, or the chaos links of an in-process cluster) reproduce the same
//! recipe against real threads:
//!
//! 1. **Quiesce**: wait until the wire books balance
//!    (`delivered + dropped + stale + abandoned == sent`) *and* a barrier
//!    round-trip through every live process confirms the balance is
//!    stable — i.e. no frame is in a socket buffer, a chaos queue, or an
//!    unprocessed mailbox, and handling the last of them produced no new
//!    sends. The [`Incoming::SnapshotReq`] doubles as that barrier, so
//!    the snapshots it returns are exactly the frame-aligned state the
//!    paper's recovery argument needs. The event loop that owns a donor
//!    runs a frame's handler either in the very call that then counts the
//!    frame delivered (after draining the mailbox first), or — a chaos
//!    frame whose destination another loop owns — from the donor's
//!    mailbox, where the frame was posted before it was counted, ahead of
//!    any request posted later. It answers the request between two handler
//!    executions, never inside one. So the reply, from the one thread that
//!    runs the donor's handlers, proves that every frame the books call
//!    delivered to the donor has been handled and that its sends are in
//!    the books the coordinator re-reads — which is all the barrier is
//!    used for. Every request goes through the spine's `post`, which wakes
//!    the mailbox's owner, because an event loop parked in `poll(2)` does
//!    not see a channel send.
//! 2. **Select**: per register, take the longest confirmed snapshot among
//!    the live peers (a quiesced cluster agrees on a prefix; the writer's
//!    copy is the longest — Lemma 3's `w_sync[me] = max` shape).
//! 3. **Fidelity**: round-trip each snapshot through the `SNAPSHOT` byte
//!    codec ([`Snapshot::encode`] / [`Snapshot::decode`]) and account the
//!    blob in `NetStats::snapshot_frames` / `snapshot_bytes` — state
//!    transfer is accounted *separately* from protocol messages, so the
//!    `delivered + dropped + stale + abandoned == sent` reconciliation is
//!    untouched by recoveries.
//! 4. **Install** the barrier state at the parked process
//!    ([`Incoming::Install`]), then un-crash it, then have every live peer
//!    **rejoin** it ([`Incoming::Rejoin`] → the automatons' `apply_rejoin`
//!    hook, which may complete operations the barrier unblocks).
//! 5. **Bump the incarnation** and record the recovery (stats ledger +
//!    history [`RecoveryRecord`](twobit_proto::RecoveryRecord)).
//!
//! Because step 1 proves the network empty, no frame from the previous
//! incarnation can ever be delivered after the rejoin — the quiesce *is*
//! the incarnation fence on these backends. The deterministic simulator
//! (`SimSpace`) additionally exercises the adversarial case where stale
//! frames survive into the rejoin (its negative-control knob skips the
//! fence), which is where the model checker proves the fence necessary.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use twobit_proto::{Automaton, DriverError, NetStats, ProcessId, RegisterId, Snapshot};

use crate::cluster::{Incoming, RegisterSnapshots};
use crate::spine::Spine;

/// How long each individual control round-trip (snapshot request, install,
/// rejoin ack) may take before the recovery is abandoned.
const STEP_TIMEOUT: Duration = Duration::from_secs(5);

/// One control round trip: posts the request `make` builds around a fresh
/// reply channel to `q`'s mailbox (waking its owner) and awaits the answer.
fn ask<A: Automaton, T>(
    spine: &Spine<A>,
    q: ProcessId,
    what: &str,
    make: impl FnOnce(Sender<T>) -> Incoming<A>,
) -> Result<T, DriverError> {
    let (tx, rx) = bounded(1);
    if !spine.post(q, make(tx)) {
        return Err(DriverError::Backend(format!(
            "process {q} is gone (node shutting down?)"
        )));
    }
    rx.recv_timeout(STEP_TIMEOUT)
        .map_err(|_| DriverError::Backend(format!("process {q} did not answer the {what}")))
}

/// Returns `true` when every sent message is accounted as delivered,
/// dropped (to a crashed process or as stale), or abandoned — i.e. nothing
/// is in flight on any link.
fn books_balance(st: &NetStats) -> bool {
    st.total_sent()
        == st.total_delivered()
            + st.dropped_to_crashed()
            + st.dropped_stale()
            + st.messages_abandoned()
}

/// Recovers `proc` on a live backend: quiesce, snapshot, install, rejoin,
/// bump. See the module docs for the full recipe and its safety argument.
///
/// Requires a quiet deployment: an operation still in flight anywhere — a
/// driver ticket or dropped handle whose reply has not landed, a blocking
/// client mid-`wait` — would keep the books open forever, so it is
/// refused up front (a parked reply that has landed is reaped instead).
///
/// # Errors
///
/// [`DriverError::UnknownProcess`] / [`DriverError::NotCrashed`] for bad
/// targets; [`DriverError::Backend`] for a process another node hosts, or
/// when any of its peers is hosted on another node (recovery needs every
/// process on one node);
/// [`DriverError::OperationInFlight`] naming a busy pair;
/// [`DriverError::RecoveryUnsupported`] when the automaton has no
/// recovery hooks; [`DriverError::Backend`] when no live donor exists or
/// the cluster does not quiesce within the budget. On any error the
/// process is left `Crashed` (never half-recovered).
pub fn recover_process<A: Automaton>(proc: ProcessId, spine: &Spine<A>) -> Result<(), DriverError> {
    let pi = proc.index();
    if pi >= spine.cfg.n() {
        return Err(DriverError::UnknownProcess(proc));
    }
    spine.check_hosted(proc)?;
    // Donors, rejoin targets and the quiesce books are all this node's: a
    // peer hosted elsewhere would never be rejoined and keep a stale
    // `w_sync` for `proc`, and the books would never balance.
    if let Some(q) = spine.inboxes.iter().position(Option::is_none) {
        return Err(DriverError::Backend(format!(
            "cannot recover {proc}: peer {} is hosted on another node",
            ProcessId::new(q)
        )));
    }
    if let Some((proc, reg)) = spine.first_in_flight() {
        return Err(DriverError::OperationInFlight { proc, reg });
    }
    spine.life.lock()[pi]
        .begin_recovery()
        .map_err(|_| DriverError::NotCrashed(proc))?;
    match run_recovery(proc, spine) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Never half-recovered: back to Crashed, flag re-set (it may
            // have been cleared between install and a failed rejoin).
            spine.crashed[pi].store(true, Ordering::Relaxed);
            spine.life.lock()[pi].abort_recovery();
            Err(e)
        }
    }
}

fn run_recovery<A: Automaton>(proc: ProcessId, spine: &Spine<A>) -> Result<(), DriverError> {
    let pi = proc.index();
    let n = spine.cfg.n();
    let live: Vec<ProcessId> = (0..n)
        .filter(|&q| q != pi && !spine.crashed[q].load(Ordering::Relaxed))
        .map(ProcessId::new)
        .collect();
    if live.is_empty() {
        return Err(DriverError::Backend(
            "no live donor process to recover from".into(),
        ));
    }

    // Phase 1+2: quiesce with barrier, collecting the donors' snapshots.
    // Each round: wait for the books to balance, barrier through every
    // live process (the snapshot request), then confirm nothing moved —
    // handling a backlog frame can emit fresh sends, which reopen the
    // books and force another round.
    let deadline = Instant::now() + spine.op_timeout;
    let donor_snaps: Vec<Vec<(RegisterId, Vec<A::Value>)>> = loop {
        while !books_balance(&spine.stats.lock()) {
            if Instant::now() >= deadline {
                return Err(DriverError::Backend(
                    "recovery quiesce timed out: messages still in flight".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent_before = spine.stats.lock().total_sent();
        let mut replies = Vec::with_capacity(live.len());
        for &q in &live {
            let snaps = ask(spine, q, "snapshot request", |reply| {
                Incoming::SnapshotReq { reply }
            })?;
            replies.push(snaps.ok_or(DriverError::RecoveryUnsupported)?);
        }
        let st = spine.stats.lock();
        if books_balance(&st) && st.total_sent() == sent_before {
            break replies;
        }
        drop(st);
        if Instant::now() >= deadline {
            return Err(DriverError::Backend(
                "recovery quiesce timed out: the cluster kept generating traffic".into(),
            ));
        }
    };

    // Phase 2: per register, the longest confirmed snapshot wins.
    let mut barrier: Vec<(RegisterId, Vec<A::Value>)> = Vec::with_capacity(spine.registers.len());
    for &reg in &spine.registers {
        let mut best: Option<Vec<A::Value>> = None;
        for donor in &donor_snaps {
            if let Some((_, s)) = donor.iter().find(|(r, _)| *r == reg) {
                if best.as_ref().is_none_or(|b| s.len() > b.len()) {
                    best = Some(s.clone());
                }
            }
        }
        let Some(best) = best else {
            return Err(DriverError::RecoveryUnsupported);
        };
        barrier.push((reg, best));
    }

    // Phase 3: codec fidelity + accounting. The live backends all speak
    // the byte codec (sockets leave no choice; the in-process cluster
    // proves fidelity the same way), so the installed values are the ones
    // that survived encode → decode.
    let mut installed: Vec<(RegisterId, Vec<A::Value>)> = Vec::with_capacity(barrier.len());
    {
        let mut st = spine.stats.lock();
        for (reg, values) in barrier {
            let snap = Snapshot::new(reg, values);
            let blob = snap.encode().map_err(|e| {
                DriverError::Backend(format!("snapshot encode failed for {reg}: {e}"))
            })?;
            st.record_snapshot_frame(blob.len() as u64);
            let decoded = Snapshot::<A::Value>::decode(&blob).map_err(|e| {
                DriverError::Backend(format!("snapshot codec round-trip failed for {reg}: {e}"))
            })?;
            installed.push((decoded.reg, decoded.values));
        }
    }
    let snapshots: RegisterSnapshots<A::Value> = Arc::new(installed);

    // Phase 4a: install at the parked process.
    ask(spine, proc, "snapshot install", |reply| Incoming::Install {
        snapshots: Arc::clone(&snapshots),
        reply,
    })?;

    // Phase 4b: un-crash (links deliver to it again; the network is empty,
    // so the first frame it sees is post-barrier), then rejoin the peers.
    spine.crashed[pi].store(false, Ordering::Relaxed);
    for &q in &live {
        ask(spine, q, "rejoin", |reply| Incoming::Rejoin {
            rejoining: proc,
            snapshots: Arc::clone(&snapshots),
            reply,
        })?;
    }

    // Phase 5: bump the incarnation, open a fresh stats ledger, record the
    // recovery in the history.
    let incarnation = {
        let mut life = spine.life.lock();
        life[pi].complete_recovery(true);
        life[pi].incarnation
    };
    spine.stats.lock().record_recovery();
    spine
        .recorder
        .recovered(proc, spine.recorder.now(), incarnation);
    Ok(())
}
