//! The chaos link kind: a send link whose frames cross a sampled delay
//! instead of a route socket.
//!
//! The paper's channels are reliable but not FIFO, and the automaton is
//! built for that: it orders WRITEs by parity, not by arrival. A route
//! socket is FIFO, so over sockets an event loop never hands a handler its
//! input out of order. A chaos link does. It seals its batch exactly as a
//! socket link does — the same [`LinkBatcher`], flush policy, and frame and
//! flush accounting — but a sealed frame then skips sequence numbers, the
//! resend log and acks: it enters its loop's [`InFlight`] queue with one
//! delay drawn from the link's [`DelayModel`] (ticks read as
//! microseconds) by the link's own seeded sampler. A later frame with a
//! shorter delay overtakes an earlier one.
//!
//! At its deadline a frame reaches its destination whole or not at all.
//! The destination's crash flag is checked then (during a drain too), and
//! a crashed destination — or a retired one the sending loop owns — drops
//! the frame, counted in `dropped_to_crashed`. Otherwise the loop that owns
//! the destination runs its handler: the sending loop directly, another
//! loop through the destination's mailbox and waker (a frame posted there
//! counts as delivered). Under `wire_codec(true)` each frame is
//! encoded onto the link's own buffer and delivered from its decoded bytes,
//! and `wire_bytes` counts the blob.
//!
//! A chaos frame is one delay draw, so `max_batch` caps it: a due batch
//! that outgrew the cap is sealed as several frames. A socket link writes
//! whatever one pass gathered as one frame.
//!
//! [`LinkBatcher`]: twobit_runtime::LinkBatcher

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use twobit_proto::{Envelope, Frame, NetStats, ProcessId, WireMessage};
use twobit_runtime::Flush;
use twobit_simnet::DelayModel;

/// What a cluster's chaos links share: the delay model, the seed their
/// samplers derive from, and whether frames cross as bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChaosConfig {
    pub(crate) delay: DelayModel,
    pub(crate) seed: u64,
    pub(crate) wire_codec: bool,
}

/// One chaos link's own state.
pub(crate) struct ChaosLink {
    delay: DelayModel,
    rng: StdRng,
    /// The most messages one frame carries: the link's `max_batch`.
    max_batch: usize,
    /// Under `wire_codec(true)`, the buffer each frame is encoded onto.
    wire: Option<Vec<u8>>,
}

impl ChaosLink {
    /// The link `src → dst` of an `n`-process cluster. Its sampler is
    /// seeded with `seed·0x9E3779B97F4A7C15 + src·n + dst`, so every link
    /// draws its own reproducible delay sequence.
    pub(crate) fn new(
        cfg: ChaosConfig,
        src: ProcessId,
        dst: ProcessId,
        n: usize,
        max_batch: usize,
    ) -> Self {
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src.index() * n + dst.index()) as u64);
        ChaosLink {
            delay: cfg.delay,
            rng: StdRng::seed_from_u64(seed),
            max_batch,
            wire: cfg.wire_codec.then(Vec::new),
        }
    }

    /// Seals a due batch of link `link` as frames of at most `max_batch`
    /// messages. Each frame is accounted as a socket link accounts it
    /// (frame cost, flush reason and hold, and its blob under
    /// `wire_codec`), then waits in `queue` for its own delay.
    pub(crate) fn seal<M: WireMessage>(
        &mut self,
        link: usize,
        flush: Flush<Envelope<M>>,
        tag_bits: u64,
        stats: &Mutex<NetStats>,
        queue: &mut InFlight<M>,
        now: Instant,
    ) {
        let Flush {
            mut batch,
            reason,
            held,
        } = flush;
        let held = held.as_nanos().min(u128::from(u64::MAX)) as u64;
        while !batch.is_empty() {
            let rest = batch.split_off(self.max_batch.min(batch.len()));
            let mut frame = Frame::from_envelopes(batch);
            let cost = frame.cost(tag_bits);
            let mut blob_len = None;
            if let Some(buf) = &mut self.wire {
                let len = frame
                    .encode_append(buf)
                    .expect("wire_codec requires a codec-capable message type");
                frame = Frame::decode_into(buf, frame.into_vec())
                    .expect("frame byte codec must round-trip");
                buf.clear();
                blob_len = Some(len as u64);
            }
            {
                let mut st = stats.lock();
                st.record_frame(cost);
                st.record_flush(reason, held);
                if let Some(len) = blob_len {
                    st.record_wire_bytes(len);
                }
            }
            let delay = Duration::from_micros(self.delay.sample(&mut self.rng));
            queue.push(now + delay, link, frame);
            batch = rest;
        }
    }
}

/// One event loop's chaos frames in flight, keyed by deadline and then by
/// seal order. Empty on a socket node, where a loop pass costs it one look
/// at the first key.
pub(crate) struct InFlight<M> {
    frames: BTreeMap<(Instant, u64), (usize, Frame<M>)>,
    sealed: u64,
}

impl<M> InFlight<M> {
    pub(crate) fn new() -> Self {
        InFlight {
            frames: BTreeMap::new(),
            sealed: 0,
        }
    }

    fn push(&mut self, deadline: Instant, link: usize, frame: Frame<M>) {
        self.sealed += 1;
        self.frames.insert((deadline, self.sealed), (link, frame));
    }

    /// When the next frame is due.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.frames
            .first_key_value()
            .map(|(&(deadline, _), _)| deadline)
    }

    /// The next frame due by `now`, with the index of the link it was
    /// sealed on.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<(usize, Frame<M>)> {
        if self.next_deadline()? > now {
            return None;
        }
        self.frames.pop_first().map(|(_, due)| due)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drops every frame in flight; returns how many messages that was.
    pub(crate) fn clear(&mut self) -> u64 {
        let frames = std::mem::take(&mut self.frames).into_values();
        frames.map(|(_, frame)| frame.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    //! What a chaos link promises, one table row per behaviour. Each row
    //! runs on a two-process cluster with one event loop (the sending loop
    //! runs the destination's handler) and with two (the frame crosses the
    //! destination's mailbox): p0's handler sends bursts to p1, whose
    //! handler logs what reaches it.

    use std::sync::Arc;

    use twobit_core::TwoBitProcess;
    use twobit_proto::{Automaton, Effects, MessageCost, OpId, Operation, ProcessId, SystemConfig};
    use twobit_runtime::FlushPolicy;

    use super::*;
    use crate::ClusterBuilder;

    /// `(from, to, n)` for every message a handler got: the `n`-th sent on
    /// link `from → to`.
    type Log = Arc<Mutex<Vec<(ProcessId, ProcessId, u64)>>>;

    /// A message numbered by its link's send count.
    #[derive(Clone, Debug)]
    struct Tagged<M>(u64, M);

    impl<M: WireMessage> WireMessage for Tagged<M> {
        fn kind(&self) -> &'static str {
            self.1.kind()
        }

        fn cost(&self) -> MessageCost {
            self.1.cost()
        }
    }

    /// Runs `A`, numbering its messages per link on the way out and logging
    /// them on the way in.
    struct Tap<A> {
        inner: A,
        sent: Vec<u64>,
        log: Log,
    }

    impl<A: Automaton> Tap<A> {
        fn new(inner: A, log: &Log) -> Self {
            let sent = vec![0; inner.config().n()];
            let log = Arc::clone(log);
            Tap { inner, sent, log }
        }

        fn forward(&mut self, mut fx: Effects<A::Msg, A::Value>, out: &mut Fx<A>) {
            for (to, msg) in fx.drain_sends() {
                self.sent[to.index()] += 1;
                out.send(to, Tagged(self.sent[to.index()], msg));
            }
            for (op_id, outcome) in fx.drain_completions() {
                out.complete(op_id, outcome);
            }
        }
    }

    type Fx<A> = Effects<Tagged<<A as Automaton>::Msg>, <A as Automaton>::Value>;

    impl<A: Automaton> Automaton for Tap<A> {
        type Value = A::Value;
        type Msg = Tagged<A::Msg>;

        fn id(&self) -> ProcessId {
            self.inner.id()
        }

        fn config(&self) -> SystemConfig {
            self.inner.config()
        }

        fn on_invoke(&mut self, op_id: OpId, op: Operation<A::Value>, out: &mut Fx<A>) {
            let mut fx = Effects::new();
            self.inner.on_invoke(op_id, op, &mut fx);
            self.forward(fx, out);
        }

        fn on_message(&mut self, from: ProcessId, Tagged(n, msg): Self::Msg, out: &mut Fx<A>) {
            self.log.lock().push((from, self.id(), n));
            let mut fx = Effects::new();
            self.inner.on_message(from, msg, &mut fx);
            self.forward(fx, out);
        }

        fn state_bits(&self) -> u64 {
            self.inner.state_bits()
        }
    }

    /// `Write(k)` sends `k` messages to the next process and completes at
    /// once; a message does nothing.
    struct Burst(ProcessId, SystemConfig);

    #[derive(Clone, Debug)]
    struct Ping;

    impl WireMessage for Ping {
        fn kind(&self) -> &'static str {
            "PING"
        }

        fn cost(&self) -> MessageCost {
            MessageCost::new(2, 0)
        }
    }

    impl Automaton for Burst {
        type Value = u64;
        type Msg = Ping;

        fn id(&self) -> ProcessId {
            self.0
        }

        fn config(&self) -> SystemConfig {
            self.1
        }

        fn on_invoke(&mut self, op_id: OpId, op: Operation<u64>, fx: &mut Effects<Ping, u64>) {
            let next = ProcessId::new((self.0.index() + 1) % self.1.n());
            if let Operation::Write(k) = op {
                (0..k).for_each(|_| fx.send(next, Ping));
            }
            fx.complete_write(op_id);
        }

        fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Effects<Ping, u64>) {}

        fn state_bits(&self) -> u64 {
            0
        }
    }

    /// What p1's handler sees of the messages p0 sent.
    #[derive(Clone, Copy)]
    enum Expect {
        /// All of them, in send order.
        InOrder,
        /// All of them, some out of send order.
        Reordered,
        /// None: p1 crashes while they are in flight, and every frame is
        /// dropped whole at its deadline — during the drain that starts at
        /// once, if `in_drain`.
        Dropped { in_drain: bool },
        /// All of them, in at most `most` frames of at most `each`
        /// messages.
        Frames { most: u64, each: u64 },
        /// All of them, within this long of the first send.
        Within(Duration),
    }

    /// p0 writes once per burst, `gap` apart; a write of `k` sends `k`
    /// messages from one handler run.
    struct Row {
        policies: Vec<FlushPolicy>,
        delay: DelayModel,
        bursts: Vec<u64>,
        gap: Duration,
        expect: Expect,
    }

    fn run(row: Row) {
        let cfg = SystemConfig::max_resilience(2);
        let sent: u64 = row.bursts.iter().sum();
        for pool in [1, 2] {
            for &policy in &row.policies {
                let label = format!("{pool} loop(s), {policy:?}");
                let log = Log::default();
                let cluster = ClusterBuilder::new(cfg)
                    .pool_size(pool)
                    .seed(7)
                    .delay(row.delay)
                    .flush_policy(policy)
                    .build(0u64, |id| Tap::new(Burst(id, cfg), &log))
                    .unwrap();
                let started = Instant::now();
                let mut p0 = cluster.client(0);
                for &k in &row.bursts {
                    p0.write(k).unwrap();
                    std::thread::sleep(row.gap);
                }
                if let Expect::Dropped { .. } = row.expect {
                    cluster.crash(1).unwrap();
                }
                // Unless the drain is the point, wait for every message to
                // be delivered or dropped.
                let settled =
                    |st: &NetStats| st.total_delivered() + st.dropped_to_crashed() == sent;
                if !matches!(row.expect, Expect::Dropped { in_drain: true }) {
                    while !settled(&cluster.stats()) {
                        assert!(started.elapsed() < Duration::from_secs(10), "{label}");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let elapsed = started.elapsed();
                let (_, stats) = cluster.shutdown();
                assert_eq!(stats.total_sent(), sent, "{label}");
                assert!(settled(&stats), "{label}: each delivered or dropped once");
                assert_eq!(stats.frames_sent(), stats.flushes_total(), "{label}");
                let got: Vec<u64> = log.lock().iter().map(|&(_, _, n)| n).collect();
                let mut sorted = got.clone();
                sorted.sort_unstable();
                let all = sorted == (1..=sent).collect::<Vec<_>>();
                let held = match row.expect {
                    Expect::InOrder => all && got == sorted,
                    Expect::Reordered => all && got != sorted,
                    Expect::Dropped { .. } => got.is_empty() && stats.dropped_to_crashed() == sent,
                    Expect::Frames { most, each } => {
                        all && stats.frames_sent() <= most && stats.max_frame_messages() <= each
                    }
                    Expect::Within(bound) => all && elapsed < bound,
                };
                assert!(held, "{label}: p1 got {got:?} in {elapsed:?}; {stats:?}");
            }
        }
    }

    /// One `#[test]` per row, named for the behaviour it holds.
    macro_rules! rows {
        ($($name:ident: $row:expr,)*) => {
            $(
                #[test]
                fn $name() {
                    run($row);
                }
            )*
        };
    }

    rows! {
        // A fixed delay keeps deadlines in seal order.
        delivers_in_deadline_order_not_send_order: Row {
            policies: vec![FlushPolicy::immediate()], delay: DelayModel::Fixed(1_000),
            bursts: vec![1; 10], gap: Duration::from_micros(200), expect: Expect::InOrder,
        },
        reorders_with_spiky_delays: Row {
            policies: vec![FlushPolicy::immediate()],
            delay: DelayModel::Spiky {
                lo: 1, hi: 100, spike_ppm: 500_000, spike_lo: 5_000, spike_hi: 20_000,
            },
            bursts: vec![1; 200], gap: Duration::from_micros(50), expect: Expect::Reordered,
        },
        // The next two rows keep frames in flight long enough that the
        // crash — and in the second, the drain — begins well before their
        // deadline, even on a loaded runner.
        drops_to_crashed_destination: Row {
            policies: vec![FlushPolicy::immediate()], delay: DelayModel::Fixed(400_000),
            bursts: vec![1], gap: Duration::ZERO, expect: Expect::Dropped { in_drain: false },
        },
        batch_delivered_atomically_or_not_at_all_on_crash_during_drain: Row {
            policies: vec![FlushPolicy::fixed(64, Duration::ZERO)],
            delay: DelayModel::Fixed(400_000),
            bursts: vec![10], gap: Duration::ZERO, expect: Expect::Dropped { in_drain: true },
        },
        burst_coalesces_into_one_batch: Row {
            policies: vec![FlushPolicy::fixed(64, Duration::from_millis(5))],
            delay: DelayModel::Fixed(2_000),
            bursts: vec![40], gap: Duration::ZERO, expect: Expect::Frames { most: 3, each: 64 },
        },
        max_batch_caps_batch_size: Row {
            policies: vec![FlushPolicy::fixed(8, Duration::from_millis(5))],
            delay: DelayModel::Fixed(1_000),
            bursts: vec![32], gap: Duration::ZERO, expect: Expect::Frames { most: 32, each: 8 },
        },
        // Lone messages on an idle link leave at once under both holds.
        trickle_workload_strands_nothing_under_static_zero_and_adaptive_holds: Row {
            policies: vec![
                FlushPolicy::fixed(64, Duration::ZERO),
                FlushPolicy::adaptive(64, Duration::ZERO, Duration::from_micros(500)),
            ],
            delay: DelayModel::Fixed(100),
            bursts: vec![1; 20], gap: Duration::from_millis(2),
            expect: Expect::Within(Duration::from_secs(2)),
        },
        adaptive_link_coalesces_bursts: Row {
            policies: vec![FlushPolicy::adaptive(16, Duration::ZERO, Duration::from_millis(2))],
            delay: DelayModel::Fixed(100),
            bursts: vec![64], gap: Duration::ZERO, expect: Expect::Frames { most: 8, each: 16 },
        },
    }

    /// The non-FIFO channel of the paper's model on the handler path
    /// deployments run: two frames of one link reach the destination's
    /// handler out of the order they were sealed in (one message per
    /// frame, numbered in send order), and the protocol stays atomic.
    #[test]
    fn frames_of_one_link_reach_the_handler_out_of_seal_order() {
        let cfg = SystemConfig::max_resilience(3);
        let writer = ProcessId::new(0);
        let log = Log::default();
        let spiky = DelayModel::Spiky {
            lo: 10,
            hi: 150,
            spike_ppm: 200_000,
            spike_lo: 500,
            spike_hi: 3_000,
        };
        let cluster = ClusterBuilder::new(cfg)
            .seed(3)
            .delay(spiky)
            .flush_policy(FlushPolicy::immediate())
            .build(0u64, |id| {
                Tap::new(TwoBitProcess::new(id, cfg, writer, 0u64), &log)
            })
            .unwrap();
        std::thread::scope(|s| {
            let mut w = cluster.client(writer);
            s.spawn(move || (1..=40u64).for_each(|v| w.write(v).unwrap()));
            for r in 1..3usize {
                let mut c = cluster.client(r);
                s.spawn(move || {
                    for _ in 0..40 {
                        c.read().unwrap();
                    }
                });
            }
        });
        let sharded = cluster.sharded_history();
        cluster.shutdown();
        twobit_lincheck::check_swmr_sharded(&sharded).unwrap();
        // Each link's numbers in the order its destination's handler got them.
        let mut arrivals: std::collections::HashMap<_, Vec<u64>> = Default::default();
        for &(from, to, n) in log.lock().iter() {
            arrivals.entry((from, to)).or_default().push(n);
        }
        let overtaken = arrivals
            .values()
            .filter(|ns| ns.windows(2).any(|w| w[0] > w[1]));
        assert!(
            overtaken.count() > 0,
            "no frame overtook another on any link"
        );
    }
}
