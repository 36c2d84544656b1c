//! Chaos links: per-pair delivery threads injecting delay and reordering,
//! now speaking *frames*.
//!
//! One link thread serves one ordered process pair `p_i → p_j`. Incoming
//! items accumulate in the shared [`LinkBatcher`] under a [`FlushPolicy`]:
//! each pass gulps whatever the channel has queued (up to `max_batch`),
//! and the batch flushes once it is full or has waited out the policy's
//! hold — at once under a zero hold, so a batch is one gulp. Each flush
//! hands the batch to a caller-supplied closure — the cluster builds a
//! [`Frame`](twobit_proto::Frame) there and records its shared-header cost
//! plus the flush reason — and the result enters the delay heap as **one
//! unit** with **one** independently sampled delay (ticks of the
//! [`DelayModel`](twobit_simnet::DelayModel) interpreted as microseconds).
//! A later flush with a shorter delay genuinely overtakes an earlier one —
//! the non-FIFO channel of the paper's model, realized with real threads.
//!
//! Delivery is atomic per flushed unit: the destination's crash flag is
//! checked once at the unit's deadline — in the normal path *and* in the
//! shutdown drain — so a frame reaches a live process whole or, if the
//! process crashed first, not at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use twobit_proto::FlushReason;
use twobit_simnet::DelayModel;

use crate::batcher::{FlushPolicy, LinkBatcher};

/// A flushed unit queued on a link, ordered by delivery deadline.
struct Queued<B> {
    deadline: Instant,
    seq: u64,
    unit: B,
}

impl<B> PartialEq for Queued<B> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<B> Eq for Queued<B> {}
impl<B> PartialOrd for Queued<B> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<B> Ord for Queued<B> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// Static configuration of one link thread.
pub(crate) struct LinkConfig {
    /// When pending items coalesce into a frame (validated by the
    /// builder before this thread exists).
    pub(crate) policy: FlushPolicy,
    /// Per-frame delay sampler (ticks = microseconds).
    pub(crate) delay: DelayModel,
    /// Seed for the delay sampler.
    pub(crate) seed: u64,
    /// The destination's crash switch, checked at delivery time.
    pub(crate) dest_crashed: Arc<AtomicBool>,
}

/// Spawns the link thread for one ordered pair.
///
/// Items received on `rx` accumulate in a [`LinkBatcher`] under the
/// config's flush policy; each flush maps the batch through `flush`
/// (where the cluster builds a frame and accounts its header, the flush
/// reason, and the observed hold) and holds the result until its sampled
/// deadline, then forwards it via `deliver` — unless the destination has
/// crashed, checked **at delivery time** so a crash while a unit is in
/// flight (including during the shutdown drain) hands the whole unit to
/// `on_drop` instead (where the cluster records the drop, keeping
/// `delivered + dropped = sent` reconcilable across backends). The thread
/// exits once `rx` disconnects, the pending batch has been flushed, and
/// the heap has drained.
pub(crate) fn spawn_link<M, B, F, D>(
    rx: Receiver<M>,
    mut deliver: impl FnMut(B) + Send + 'static,
    config: LinkConfig,
    mut flush: F,
    mut on_drop: D,
) -> JoinHandle<()>
where
    M: Send + 'static,
    B: Send + 'static,
    F: FnMut(Vec<M>, FlushReason, Duration) -> B + Send + 'static,
    D: FnMut(B) + Send + 'static,
{
    let LinkConfig {
        policy,
        delay,
        seed,
        dest_crashed,
    } = config;
    std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut heap: BinaryHeap<Reverse<Queued<B>>> = BinaryHeap::new();
        let mut batcher: LinkBatcher<M> = LinkBatcher::new(policy);
        let mut seq = 0u64;
        let mut disconnected = false;
        loop {
            // Deliver everything due, checking the crash flag per unit so a
            // destination that crashed while the unit was in flight drops
            // it whole — this is the only place units leave the heap, in
            // the live path and the shutdown drain alike.
            let now = Instant::now();
            while heap.peek().is_some_and(|Reverse(q)| q.deadline <= now) {
                let Reverse(q) = heap.pop().expect("peeked");
                if dest_crashed.load(Ordering::Relaxed) {
                    on_drop(q.unit);
                } else {
                    deliver(q.unit);
                }
            }

            // Opportunistically pull whatever is already queued on the
            // channel (up to the batch bound) — coalescing without holding.
            if batcher.gulp(&rx) {
                disconnected = true;
            }

            // Flush when a policy bound is hit, or unconditionally on
            // shutdown so no message is stranded.
            if let Some(f) = batcher.take_due(Instant::now(), disconnected) {
                // One tick of the delay model = 1µs of real time.
                let micros = delay.sample(&mut rng);
                heap.push(Reverse(Queued {
                    deadline: Instant::now() + Duration::from_micros(micros),
                    seq,
                    unit: flush(f.batch, f.reason, f.held),
                }));
                seq += 1;
            }

            if disconnected {
                if heap.is_empty() && !batcher.has_pending() {
                    return;
                }
                // Drain: sleep to the next deadline, then loop so delivery
                // re-checks dest_crashed *after* the sleep.
                if let Some(Reverse(q)) = heap.peek() {
                    let d = q.deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep(d);
                }
                continue;
            }

            // Wait for the next deadline (delivery or flush) or the next
            // incoming item. With nothing pending and nothing in flight
            // this is a plain blocking recv — the no-busy-spin path.
            let next_flush = batcher.flush_deadline();
            let next_delivery = heap.peek().map(|Reverse(q)| q.deadline);
            let next_deadline = match (next_flush, next_delivery) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            match next_deadline {
                Some(deadline) => {
                    let d = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(d) {
                        Ok(m) => batcher.push(m, Instant::now()),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => disconnected = true,
                    }
                }
                None => match rx.recv() {
                    Ok(m) => batcher.push(m, Instant::now()),
                    Err(_) => disconnected = true,
                },
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;

    use super::*;
    use crossbeam::channel::{unbounded, Sender};

    /// Spawns a link whose flush unit is simply the batch itself; dropped
    /// messages (not batches) accumulate in the returned counter.
    #[allow(clippy::type_complexity)]
    fn id_link(
        policy: FlushPolicy,
        delay: DelayModel,
        seed: u64,
        crashed: Arc<AtomicBool>,
    ) -> (
        Sender<u32>,
        Receiver<Vec<u32>>,
        Arc<AtomicU32>,
        JoinHandle<()>,
    ) {
        let (tx, link_rx) = unbounded::<u32>();
        let (deliver_tx, out) = unbounded::<Vec<u32>>();
        let dropped = Arc::new(AtomicU32::new(0));
        let dropped_w = Arc::clone(&dropped);
        let h = spawn_link(
            link_rx,
            move |b| {
                let _ = deliver_tx.send(b);
            },
            LinkConfig {
                policy,
                delay,
                seed,
                dest_crashed: crashed,
            },
            |b, _reason, _held| b,
            move |b: Vec<u32>| {
                dropped_w.fetch_add(b.len() as u32, Ordering::Relaxed);
            },
        );
        (tx, out, dropped, h)
    }

    #[test]
    fn delivers_in_deadline_order_not_send_order() {
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, _dropped, h) = id_link(
            FlushPolicy::immediate(),
            DelayModel::Fixed(1_000), // 1ms
            7,
            crashed,
        );
        for i in 0..10 {
            tx.send(i).unwrap();
            // Space sends out so each crosses alone (immediate policy).
            std::thread::sleep(Duration::from_micros(200));
        }
        drop(tx);
        h.join().unwrap();
        let got: Vec<u32> = out.iter().flatten().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reorders_with_spiky_delays() {
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, _dropped, h) = id_link(
            FlushPolicy::immediate(),
            DelayModel::Spiky {
                lo: 1,
                hi: 100,
                spike_ppm: 500_000,
                spike_lo: 5_000,
                spike_hi: 20_000,
            },
            3,
            crashed,
        );
        for i in 0..200 {
            tx.send(i).unwrap();
            // Stagger sends slightly so reordering is about delays.
            std::thread::sleep(Duration::from_micros(50));
        }
        drop(tx);
        h.join().unwrap();
        let got: Vec<u32> = out.iter().flatten().collect();
        assert_eq!(got.len(), 200);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_ne!(got, sorted, "spiky delays should reorder something");
    }

    #[test]
    fn drops_to_crashed_destination() {
        let crashed = Arc::new(AtomicBool::new(true));
        let (tx, out, dropped, h) =
            id_link(FlushPolicy::immediate(), DelayModel::Fixed(100), 1, crashed);
        tx.send(1).unwrap();
        drop(tx);
        h.join().unwrap();
        assert!(out.iter().next().is_none());
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "drop was accounted");
    }

    #[test]
    fn burst_coalesces_into_one_batch() {
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, _dropped, h) = id_link(
            FlushPolicy::fixed(64, Duration::from_millis(5)),
            DelayModel::Fixed(2_000),
            5,
            crashed,
        );
        for i in 0..40 {
            tx.send(i).unwrap();
        }
        drop(tx);
        h.join().unwrap();
        let batches: Vec<Vec<u32>> = out.iter().collect();
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "nothing lost");
        assert!(
            batches.len() <= 3,
            "a burst should coalesce into few batches, got {}",
            batches.len()
        );
        // Order within each batch is the send order.
        for b in &batches {
            assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn max_batch_caps_batch_size() {
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, _dropped, h) = id_link(
            FlushPolicy::fixed(8, Duration::from_millis(5)),
            DelayModel::Fixed(1_000),
            6,
            crashed,
        );
        for i in 0..32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        h.join().unwrap();
        let batches: Vec<Vec<u32>> = out.iter().collect();
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 32);
        assert!(batches.iter().all(|b| b.len() <= 8));
    }

    #[test]
    fn batch_delivered_atomically_or_not_at_all_on_crash_during_drain() {
        // Regression for the shutdown-drain path: the destination crashes
        // while a flushed batch sits in the delay heap *after* the channel
        // has disconnected. The drain must re-check the crash flag at
        // delivery time and drop the whole batch.
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, dropped, h) = id_link(
            FlushPolicy::fixed(64, Duration::ZERO),
            // Long enough in flight that the crash flag below is set well
            // before delivery even on a loaded single-core runner.
            DelayModel::Fixed(400_000), // 400ms
            2,
            Arc::clone(&crashed),
        );
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx); // shutdown: the link is now draining
        std::thread::sleep(Duration::from_millis(10));
        crashed.store(true, Ordering::Relaxed); // crash mid-drain
        h.join().unwrap();
        assert!(
            out.iter().next().is_none(),
            "no partial delivery: the batch crashed with its destination"
        );
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            10,
            "all ten messages were accounted as dropped, none delivered"
        );
    }

    /// The trickle regression: messages arriving far apart must neither
    /// strand (waiting for company that never comes) nor busy-spin the
    /// thread. Exercises both a zero-hold fixed policy and an adaptive one
    /// on the same workload.
    #[test]
    fn trickle_workload_strands_nothing_under_static_zero_and_adaptive_holds() {
        for policy in [
            FlushPolicy::fixed(64, Duration::ZERO),
            FlushPolicy::adaptive(64, Duration::ZERO, Duration::from_micros(500)),
        ] {
            let crashed = Arc::new(AtomicBool::new(false));
            let (tx, out, dropped, h) = id_link(policy, DelayModel::Fixed(100), 13, crashed);
            let t0 = Instant::now();
            for i in 0..20 {
                tx.send(i).unwrap();
                std::thread::sleep(Duration::from_millis(2)); // idle link
            }
            drop(tx);
            h.join().unwrap();
            let got: Vec<u32> = out.iter().flatten().collect();
            assert_eq!(got.len(), 20, "no stranded messages under {policy:?}");
            assert_eq!(dropped.load(Ordering::Relaxed), 0);
            // Lone messages on an idle link flush immediately under both
            // policies: the whole trickle (20 × 2ms pacing + 100µs delays)
            // completes promptly instead of waiting out hold ceilings.
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "idle-link flushes were not delayed: {:?}",
                t0.elapsed()
            );
        }
    }

    /// A bursty sender under the adaptive policy coalesces harder than
    /// the trickle case: batches actually fill. Nothing holds them — the
    /// gulp takes whatever the channel queued since the last flush.
    #[test]
    fn adaptive_link_coalesces_bursts() {
        let crashed = Arc::new(AtomicBool::new(false));
        let (tx, out, _dropped, h) = id_link(
            FlushPolicy::adaptive(16, Duration::ZERO, Duration::from_millis(2)),
            DelayModel::Fixed(100),
            17,
            crashed,
        );
        for i in 0..64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        h.join().unwrap();
        let batches: Vec<Vec<u32>> = out.iter().collect();
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 64);
        assert!(
            batches.len() <= 8,
            "a burst coalesces under the adaptive hold, got {} batches",
            batches.len()
        );
    }
}
