//! The one batching state machine every real-time link shares.
//!
//! [`LinkBatcher`] is the one implementation of the pending/hold/gulp loop
//! — the chaos links (`crates/runtime/src/link.rs`) and the reactor's send
//! links both drive it, because a copy per owner drifts:
//! items accumulate in a pending batch, a whole channel backlog is gulped
//! in one pass (coalescing without holding), and the batch flushes as one
//! frame when **either** bound of its [`FlushPolicy`] is hit — `max_batch`
//! items pending, or the oldest item having waited out the hold — or
//! unconditionally on shutdown so nothing is stranded. Each flush reports
//! *why* it happened ([`FlushReason`]) and how long the batch was actually
//! held, which the backends feed into
//! [`NetStats::record_flush`](twobit_proto::NetStats::record_flush).
//!
//! The hold itself is a policy: [`HoldPolicy::Static`] is the classic
//! fixed window, [`HoldPolicy::Adaptive`] is the Nagle/delayed-ack-style
//! auto-tuner the ROADMAP asked for. Adaptive mode EWMA-tracks the link's
//! inter-arrival gap and resolves the hold per batch between a configured
//! floor and ceiling: a lone message on an idle link (gap at or beyond the
//! ceiling — waiting for company is pointless) flushes after just the
//! floor, while a bursty link (small gaps — company is imminent) holds up
//! to the ceiling and in practice flushes by *size*, i.e. converges toward
//! maximum coalescing. A fixed hold cannot do both, which is exactly the
//! delayed-ack-vs-Nagle tension RFC 896-era batching ran into on
//! asymmetric traffic.
//!
//! The batcher never blocks and never sleeps — the owning loop does the
//! waiting, using [`LinkBatcher::flush_deadline`] as its timeout. With
//! nothing pending the deadline is `None`, so a well-behaved owner parks
//! in a blocking `recv` instead of spinning; the unit tests pin this down.

use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};
use twobit_proto::{FlushReason, ProcessId};

/// How long a link holds a batch open for company.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HoldPolicy {
    /// Hold the oldest pending item at most this long, always.
    Static(Duration),
    /// Auto-tune the hold between `floor` and `ceil` from the link's
    /// observed (EWMA) inter-arrival gap: an idle link flushes after
    /// `floor` (immediately, with the default zero floor), a busy link
    /// holds toward `ceil` and lets the size bound do the flushing.
    Adaptive {
        /// Minimum hold, applied when the link looks idle. `ZERO` means a
        /// lone message flushes immediately.
        floor: Duration,
        /// Maximum hold, approached as the link gets bursty. Also the
        /// idleness threshold: an EWMA gap at or beyond `ceil` means the
        /// next message is not worth waiting for.
        ceil: Duration,
    },
}

/// When a link flushes its pending batch into one frame.
///
/// A batch flushes as soon as **either** bound is hit: it has `max_batch`
/// items, or its oldest item has waited out the [`HoldPolicy`]'s window.
/// Items already queued on the channel are drained into the batch in one
/// gulp before either bound is checked, so a burst coalesces without
/// paying the hold time; the hold only bounds how long a lone early
/// message waits for company.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush when this many items are pending (≥ 1 — validated by the
    /// builders via [`FlushPolicy::validate`]).
    pub max_batch: usize,
    /// Flush when the oldest pending item has waited out this hold.
    pub hold: HoldPolicy,
}

impl FlushPolicy {
    /// No coalescing: every item crosses the link alone, immediately.
    pub fn immediate() -> Self {
        FlushPolicy {
            max_batch: 1,
            hold: HoldPolicy::Static(Duration::ZERO),
        }
    }

    /// A fixed hold window (the pre-adaptive behaviour).
    pub fn fixed(max_batch: usize, max_hold: Duration) -> Self {
        FlushPolicy {
            max_batch,
            hold: HoldPolicy::Static(max_hold),
        }
    }

    /// An adaptive hold auto-tuned between `floor` and `ceil` (see
    /// [`HoldPolicy::Adaptive`]).
    pub fn adaptive(max_batch: usize, floor: Duration, ceil: Duration) -> Self {
        FlushPolicy {
            max_batch,
            hold: HoldPolicy::Adaptive { floor, ceil },
        }
    }

    /// Checks the policy is satisfiable — called by the cluster builders
    /// so a bad policy is a typed error at build time instead of a panic
    /// inside a spawned link thread (which would silently strand every
    /// message on that pair).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroMaxBatch`] when `max_batch` is 0 (such a batch
    /// can never fill, so nothing would ever flush);
    /// [`ConfigError::HoldFloorAboveCeil`] when an adaptive hold's floor
    /// exceeds its ceiling.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_for(None)
    }

    /// [`FlushPolicy::validate`] with the ordered link the policy applies
    /// to, for per-link override errors that name the pair.
    pub fn validate_for(&self, link: Option<(ProcessId, ProcessId)>) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch { link });
        }
        if let HoldPolicy::Adaptive { floor, ceil } = self.hold {
            if floor > ceil {
                return Err(ConfigError::HoldFloorAboveCeil { floor, ceil, link });
            }
        }
        Ok(())
    }
}

impl Default for FlushPolicy {
    /// Coalesce up to 64 items, holding the batch at most 20µs — well under
    /// the default 50–500µs link delays it amortizes against.
    fn default() -> Self {
        FlushPolicy::fixed(64, Duration::from_micros(20))
    }
}

/// A flush-policy (or other configuration) rejected at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `FlushPolicy::max_batch` was 0: the size bound can never be hit,
    /// so the link would strand every message. `link` names the ordered
    /// pair when the policy was a per-link override.
    ZeroMaxBatch {
        /// The ordered pair the offending override applied to (`None` for
        /// the cluster-wide default policy).
        link: Option<(ProcessId, ProcessId)>,
    },
    /// An adaptive hold with `floor > ceil` has no valid resolution.
    HoldFloorAboveCeil {
        /// The configured minimum hold.
        floor: Duration,
        /// The configured maximum hold, smaller than the floor.
        ceil: Duration,
        /// The ordered pair the offending override applied to (`None` for
        /// the cluster-wide default policy).
        link: Option<(ProcessId, ProcessId)>,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let link = |l: &Option<(ProcessId, ProcessId)>| match l {
            Some((a, b)) => format!(" on link {a}→{b}"),
            None => String::new(),
        };
        match self {
            ConfigError::ZeroMaxBatch { link: l } => {
                write!(
                    f,
                    "flush policy{} has max_batch = 0 (can never flush; use ≥ 1)",
                    link(l)
                )
            }
            ConfigError::HoldFloorAboveCeil {
                floor,
                ceil,
                link: l,
            } => write!(
                f,
                "adaptive hold{} has floor {floor:?} above ceil {ceil:?}",
                link(l)
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A cluster failed to build: bad configuration or (for socket-backed
/// clusters) an I/O error while wiring the mesh.
#[derive(Debug)]
pub enum BuildError {
    /// Configuration rejected before any thread or socket was created.
    Config(ConfigError),
    /// A socket operation failed during setup.
    Io(std::io::Error),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid cluster configuration: {e}"),
            BuildError::Io(e) => write!(f, "cluster setup I/O error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Config(e) => Some(e),
            BuildError::Io(e) => Some(e),
        }
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

impl From<std::io::Error> for BuildError {
    fn from(e: std::io::Error) -> Self {
        BuildError::Io(e)
    }
}

/// One flushed batch, with the decision that released it.
#[derive(Debug)]
pub struct Flush<M> {
    /// The coalesced items, in arrival order.
    pub batch: Vec<M>,
    /// Which bound released the batch.
    pub reason: FlushReason,
    /// How long the oldest item actually waited.
    pub held: Duration,
}

/// EWMA smoothing shift: new = old + (sample − old) / 2^K. K = 2 keeps a
/// quarter of each new sample — reactive enough that one long idle gap
/// immediately pushes an adaptive link back to flush-fast mode.
const EWMA_SHIFT: u32 = 2;

/// The shared batching state machine (see the module docs).
///
/// Owned by exactly one loop (a chaos-link thread or a socket-writer
/// thread); the owner alternates [`LinkBatcher::gulp`] /
/// [`LinkBatcher::take_due`] with blocking on the channel until
/// [`LinkBatcher::flush_deadline`].
pub struct LinkBatcher<M> {
    policy: FlushPolicy,
    pending: Vec<M>,
    /// When the oldest pending item arrived (`None` ⇔ `pending` empty).
    since: Option<Instant>,
    /// `since` + the hold resolved for the current batch; re-resolved on
    /// every arrival so adaptive mode reacts to fresh gap evidence.
    deadline: Option<Instant>,
    /// EWMA of inter-arrival gaps in nanoseconds (`None` until the second
    /// arrival ever — one message is no evidence of traffic, so adaptive
    /// mode starts in flush-fast mode).
    ewma_gap_ns: Option<u64>,
    last_arrival: Option<Instant>,
}

impl<M> std::fmt::Debug for LinkBatcher<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkBatcher")
            .field("policy", &self.policy)
            .field("pending", &self.pending.len())
            .field("since", &self.since)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl<M> LinkBatcher<M> {
    /// Creates an empty batcher. The policy must be valid
    /// ([`FlushPolicy::validate`]) — the builders guarantee this before
    /// any link thread exists.
    pub fn new(policy: FlushPolicy) -> Self {
        debug_assert!(policy.validate().is_ok(), "builders validate policies");
        LinkBatcher {
            policy,
            pending: Vec::new(),
            since: None,
            deadline: None,
            ewma_gap_ns: None,
            last_arrival: None,
        }
    }

    /// Adds one item, updating the adaptive gap estimate and the current
    /// batch's flush deadline.
    pub fn push(&mut self, item: M, now: Instant) {
        if let Some(last) = self.last_arrival {
            let gap = now
                .saturating_duration_since(last)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            self.ewma_gap_ns = Some(match self.ewma_gap_ns {
                None => gap,
                Some(ewma) => ewma + (gap >> EWMA_SHIFT) - (ewma >> EWMA_SHIFT),
            });
        }
        self.last_arrival = Some(now);
        if self.pending.is_empty() {
            self.since = Some(now);
        }
        self.pending.push(item);
        // Re-resolve with the freshest gap evidence; static holds resolve
        // to the same value every time.
        self.deadline = self.since.map(|s| s + self.resolve_hold());
    }

    /// Pulls whatever is already queued on `rx` (up to the batch bound) —
    /// coalescing without holding. Returns `true` once the channel has
    /// disconnected.
    pub fn gulp(&mut self, rx: &Receiver<M>) -> bool {
        while self.pending.len() < self.policy.max_batch {
            match rx.try_recv() {
                Ok(item) => self.push(item, Instant::now()),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
        false
    }

    /// Takes the pending batch if a flush is due: the size bound is hit,
    /// the hold has expired, or `shutdown` forces the remainder out.
    pub fn take_due(&mut self, now: Instant, shutdown: bool) -> Option<Flush<M>> {
        if self.pending.is_empty() {
            return None;
        }
        let reason = if self.pending.len() >= self.policy.max_batch {
            FlushReason::Size
        } else if self.deadline.is_some_and(|d| now >= d) {
            FlushReason::Hold
        } else if shutdown {
            FlushReason::Shutdown
        } else {
            return None;
        };
        let held = self
            .since
            .map(|s| now.saturating_duration_since(s))
            .unwrap_or_default();
        self.since = None;
        self.deadline = None;
        Some(Flush {
            batch: std::mem::take(&mut self.pending),
            reason,
            held,
        })
    }

    /// Hands a flushed batch's storage back once the owner is done with it
    /// (the frame is encoded): the next batch fills that allocation
    /// instead of growing a fresh one push by push. Whatever `storage`
    /// still holds is dropped. A no-op when a newer batch already has
    /// storage of its own.
    pub fn recycle(&mut self, mut storage: Vec<M>) {
        if self.pending.capacity() == 0 {
            storage.clear();
            self.pending = storage;
        }
    }

    /// When the current batch's hold expires — the owner's wait bound.
    /// `None` with nothing pending, so an idle owner blocks on its channel
    /// instead of busy-spinning.
    pub fn flush_deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The time remaining until [`LinkBatcher::flush_deadline`], saturated
    /// at zero — the timer form an event loop wants: a reactor registers
    /// this as its poll timeout instead of parking a dedicated thread per
    /// link (`None` still means "nothing pending, no timer needed").
    pub fn time_to_deadline(&self, now: Instant) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(now))
    }

    /// Whether any items are pending.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of pending items.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The hold the policy currently resolves to — static policies always
    /// answer the same, adaptive ones answer from the latest gap estimate.
    pub fn current_hold(&self) -> Duration {
        self.resolve_hold()
    }

    /// Takes whatever is pending without a flush decision — the failed-link
    /// path, where the owner accounts the items as abandoned rather than
    /// framing them.
    pub fn drain_remaining(&mut self) -> Vec<M> {
        self.since = None;
        self.deadline = None;
        std::mem::take(&mut self.pending)
    }

    fn resolve_hold(&self) -> Duration {
        match self.policy.hold {
            HoldPolicy::Static(d) => d,
            HoldPolicy::Adaptive { floor, ceil } => match self.ewma_gap_ns {
                // No gap evidence yet, or the link is idle (the expected
                // next arrival is past the ceiling): waiting is pointless.
                None => floor,
                Some(gap_ns) => {
                    let gap = Duration::from_nanos(gap_ns);
                    if gap >= ceil {
                        floor
                    } else {
                        // Busy link: wait long enough for a full batch's
                        // worth of arrivals at the observed rate, so the
                        // size bound does the flushing (max coalescing);
                        // the ceiling bounds the latency this can cost.
                        let fill = self.policy.max_batch.min(u32::MAX as usize) as u32;
                        gap.saturating_mul(fill).clamp(floor, ceil)
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn at(base: Instant, micros: u64) -> Instant {
        base + Duration::from_micros(micros)
    }

    #[test]
    fn size_bound_flushes_with_size_reason() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(3, Duration::from_millis(5)));
        let t0 = Instant::now();
        for i in 0..3 {
            b.push(i, at(t0, i));
        }
        let f = b.take_due(at(t0, 3), false).expect("size bound hit");
        assert_eq!(f.reason, FlushReason::Size);
        assert_eq!(f.batch, vec![0, 1, 2]);
        assert!(!b.has_pending());
    }

    #[test]
    fn recycled_storage_backs_the_next_batch() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(3, Duration::from_millis(5)));
        let t0 = Instant::now();
        for i in 0..3u32 {
            b.push(i, at(t0, 0));
        }
        let storage = b.take_due(at(t0, 1), false).expect("size bound hit").batch;
        let (ptr, cap) = (storage.as_ptr(), storage.capacity());
        b.recycle(storage);
        assert!(!b.has_pending(), "recycled storage arrives empty");
        b.push(9, at(t0, 2));
        // A batch that already has storage keeps it; the late hand-back is
        // simply dropped.
        b.recycle(vec![1, 2, 3]);
        let next = b.take_due(at(t0, 3), true).expect("shutdown flush").batch;
        assert_eq!(next, vec![9]);
        assert_eq!((next.as_ptr(), next.capacity()), (ptr, cap));
    }

    #[test]
    fn hold_bound_flushes_with_hold_reason_and_observed_hold() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(64, Duration::from_micros(100)));
        let t0 = Instant::now();
        b.push(7u32, t0);
        assert!(b.take_due(at(t0, 50), false).is_none(), "hold not expired");
        let f = b.take_due(at(t0, 150), false).expect("hold expired");
        assert_eq!(f.reason, FlushReason::Hold);
        assert_eq!(f.held, Duration::from_micros(150), "observed, not nominal");
    }

    #[test]
    fn shutdown_flushes_the_remainder_unconditionally() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(64, Duration::from_secs(10)));
        let t0 = Instant::now();
        b.push(1u32, t0);
        assert!(b.take_due(at(t0, 1), false).is_none());
        let f = b.take_due(at(t0, 1), true).expect("shutdown flushes");
        assert_eq!(f.reason, FlushReason::Shutdown);
        assert_eq!(f.batch, vec![1]);
    }

    #[test]
    fn idle_batcher_reports_no_deadline_so_owners_block_instead_of_spinning() {
        // The no-busy-spin contract: with nothing pending there is nothing
        // to wait for, so the owning loop must land in a blocking recv.
        // Both owner loops (chaos link, reactor event loop) key their wait
        // on flush_deadline() — None means "block indefinitely".
        let b = LinkBatcher::<u32>::new(FlushPolicy::fixed(64, Duration::ZERO));
        assert!(b.flush_deadline().is_none());
        let mut b2 = LinkBatcher::<u32>::new(FlushPolicy::adaptive(
            64,
            Duration::ZERO,
            Duration::from_micros(500),
        ));
        let t0 = Instant::now();
        b2.push(1, t0);
        let _ = b2.take_due(at(t0, 1), false).expect("floor hold expired");
        assert!(
            b2.flush_deadline().is_none(),
            "a drained batcher leaves its owner parked, even mid-conversation"
        );
    }

    #[test]
    fn time_to_deadline_is_the_timer_form_of_the_flush_deadline() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(64, Duration::from_micros(100)));
        let t0 = Instant::now();
        assert_eq!(b.time_to_deadline(t0), None, "idle: no timer to arm");
        b.push(1u32, t0);
        assert_eq!(
            b.time_to_deadline(t0),
            Some(Duration::from_micros(100)),
            "the full hold remains at arrival time"
        );
        assert_eq!(
            b.time_to_deadline(at(t0, 150)),
            Some(Duration::ZERO),
            "past the deadline the timer saturates at zero (poll returns now)"
        );
    }

    #[test]
    fn adaptive_lone_message_on_idle_link_flushes_immediately() {
        let mut b = LinkBatcher::new(FlushPolicy::adaptive(
            64,
            Duration::ZERO,
            Duration::from_micros(500),
        ));
        let t0 = Instant::now();
        // First message ever: no gap evidence → floor (zero) hold.
        b.push(1u32, t0);
        assert_eq!(b.current_hold(), Duration::ZERO);
        let f = b.take_due(t0, false).expect("zero hold is already due");
        assert_eq!(f.reason, FlushReason::Hold);

        // Warm the link into burst mode, then let it idle: the huge gap
        // pushes the EWMA past the ceiling and the next lone message
        // flushes immediately again.
        let mut t = at(t0, 1_000);
        for i in 0..16u32 {
            b.push(i, t);
            t += Duration::from_micros(10);
        }
        let _ = b.take_due(t, true);
        assert!(b.current_hold() > Duration::ZERO, "bursty link holds");
        let idle_end = t + Duration::from_secs(1);
        b.push(99, idle_end);
        assert_eq!(
            b.current_hold(),
            Duration::ZERO,
            "one second of silence resets the link to flush-fast"
        );
    }

    #[test]
    fn adaptive_bursty_link_converges_toward_max_coalescing() {
        let floor = Duration::ZERO;
        let ceil = Duration::from_micros(500);
        let mut b = LinkBatcher::new(FlushPolicy::adaptive(8, floor, ceil));
        let t0 = Instant::now();
        let mut t = t0;
        let mut sizes = Vec::new();
        let mut batch_count = 0;
        // A steady 10µs-gap stream: the resolved hold (gap × max_batch =
        // 80µs) outlives the time a batch needs to fill, so after warmup
        // every flush is size-bound (maximum coalescing), none hold-bound.
        for i in 0..64u32 {
            b.push(i, t);
            t += Duration::from_micros(10);
            if let Some(f) = b.take_due(t, false) {
                sizes.push(f.batch.len());
                if batch_count > 0 {
                    assert_eq!(f.reason, FlushReason::Size, "converged to size flushes");
                }
                batch_count += 1;
            }
        }
        assert!(
            sizes.iter().skip(1).all(|&s| s == 8),
            "steady stream fills every batch: {sizes:?}"
        );
        // And the resolved hold sits inside the configured band.
        assert!(b.current_hold() > floor && b.current_hold() <= ceil);
    }

    #[test]
    fn gulp_coalesces_a_backlog_and_reports_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5u32 {
            tx.send(i).unwrap();
        }
        let mut b = LinkBatcher::new(FlushPolicy::fixed(3, Duration::from_millis(1)));
        assert!(!b.gulp(&rx), "channel still open");
        assert_eq!(b.pending_len(), 3, "gulp respects the size bound");
        let f = b.take_due(Instant::now(), false).unwrap();
        assert_eq!(f.reason, FlushReason::Size);
        drop(tx);
        assert!(
            b.gulp(&rx),
            "a closed channel drains its backlog, then reports disconnect"
        );
        assert_eq!(b.pending_len(), 2, "the backlog survived the disconnect");
    }

    #[test]
    fn drain_remaining_empties_without_a_flush_decision() {
        let mut b = LinkBatcher::new(FlushPolicy::fixed(64, Duration::from_secs(1)));
        let t0 = Instant::now();
        b.push(1u32, t0);
        b.push(2, t0);
        assert_eq!(b.drain_remaining(), vec![1, 2]);
        assert!(!b.has_pending());
        assert!(b.flush_deadline().is_none());
    }

    #[test]
    fn validation_catches_unsatisfiable_policies() {
        assert_eq!(
            FlushPolicy::fixed(0, Duration::ZERO).validate(),
            Err(ConfigError::ZeroMaxBatch { link: None })
        );
        let bad = FlushPolicy::adaptive(4, Duration::from_micros(10), Duration::from_micros(5));
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::HoldFloorAboveCeil { .. })
        ));
        let link = Some((ProcessId::new(0), ProcessId::new(2)));
        assert_eq!(
            FlushPolicy::fixed(0, Duration::ZERO).validate_for(link),
            Err(ConfigError::ZeroMaxBatch { link })
        );
        assert!(FlushPolicy::default().validate().is_ok());
        assert!(FlushPolicy::immediate().validate().is_ok());
        let msg = ConfigError::ZeroMaxBatch { link }.to_string();
        assert!(msg.contains("p0"), "error names the link: {msg}");
    }
}
