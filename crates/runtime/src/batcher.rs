//! The one batching state machine every real-time link shares.
//!
//! [`LinkBatcher`] is the one implementation of the pending/hold loop —
//! every send link of the reactor drives it, socket and chaos kind alike:
//! items accumulate in a pending batch, and the batch flushes when
//! **either** bound of its [`FlushPolicy`] is hit — `max_batch` items
//! pending, or the oldest item having waited out the hold — or
//! unconditionally on shutdown so nothing is stranded. Each flush reports *why* it happened
//! ([`FlushReason`]) and how long the batch was actually held, which the
//! backends feed into
//! [`NetStats::record_flush`](twobit_proto::NetStats::record_flush).
//!
//! Batches are sized by load, not by a timer. The owner decides when it
//! next looks at the batch — the reactor, after one pass of its event
//! loop — and everything that arrived before that flush point is already
//! in the batch. Under load the
//! batches grow by themselves; on an idle link a lone message leaves at the
//! next flush point. Waiting longer for company buys little: in a closed
//! loop the company a held message waits for is mostly the replies that
//! the hold itself delays. The hold is therefore an optional fixed timer on
//! top ([`FlushPolicy::fixed`]); [`FlushPolicy::adaptive`] is the same
//! thing with its floor as the hold.
//!
//! The simulator is the exception: `twobit_simnet::VirtualHold::Adaptive`
//! still tracks each link's inter-arrival gap in virtual ticks and holds a
//! batch toward its ceiling, because the seeded count table of
//! `tests/frame_semantics.rs` is pinned to that behaviour.
//!
//! The batcher never blocks and never sleeps — the owning loop does the
//! waiting, using [`LinkBatcher::flush_deadline`] as its timeout. With
//! nothing pending the deadline is `None`, so a well-behaved owner parks
//! instead of spinning; the unit tests pin this down.

use std::time::{Duration, Instant};

use twobit_proto::{FlushReason, ProcessId};

/// When a link flushes its pending batch into one frame.
///
/// A batch flushes as soon as **either** bound is hit: it has `max_batch`
/// items, or its oldest item has waited out `hold`. Everything a pass of
/// the owner's loop pushed is in the batch before either bound is
/// checked, so a burst coalesces without paying the hold time; the hold
/// only bounds how long a lone early message waits for company.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush when this many items are pending (≥ 1 — validated by the
    /// builders via [`FlushPolicy::validate`]).
    pub max_batch: usize,
    /// Flush when the oldest pending item has waited this long. `ZERO`
    /// flushes at the owner's next flush point.
    pub hold: Duration,
}

impl FlushPolicy {
    /// No hold, and batches of one where the link splits them. A chaos
    /// link (`Cluster`) caps each frame at `max_batch`, so every item
    /// crosses alone, with its own delay. A socket link seals once per
    /// event-loop pass and takes everything pending, so the items one pass
    /// emits toward a link share a frame.
    pub fn immediate() -> Self {
        FlushPolicy::fixed(1, Duration::ZERO)
    }

    /// A fixed hold: a batch waits at most `max_hold` for company.
    pub fn fixed(max_batch: usize, max_hold: Duration) -> Self {
        FlushPolicy {
            max_batch,
            hold: max_hold,
        }
    }

    /// Load-sized batches with no timer: a batch is whatever the owner
    /// gathered before its next flush point (one reactor pass), so batches
    /// grow with load by themselves. `floor`
    /// is a fixed hold on top; `ceil` is not read. The same policy as
    /// `fixed(max_batch, floor)`.
    pub fn adaptive(max_batch: usize, floor: Duration, _ceil: Duration) -> Self {
        FlushPolicy::fixed(max_batch, floor)
    }

    /// Checks the policy is satisfiable — called by the node builders so a
    /// bad policy is a typed error at build time instead of a batch that
    /// can never flush (which would silently strand every message on that
    /// pair).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroMaxBatch`] when `max_batch` is 0 (such a batch
    /// can never fill, so nothing would ever flush).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_for(None)
    }

    /// [`FlushPolicy::validate`] with the ordered link the policy applies
    /// to, for per-link override errors that name the pair.
    pub fn validate_for(&self, link: Option<(ProcessId, ProcessId)>) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch { link });
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

/// The shared batching state machine (see the module docs).
///
/// Owned by exactly one reactor event loop, which alternates
/// [`LinkBatcher::push`] / [`LinkBatcher::take_due`] with waiting for
/// input until [`LinkBatcher::flush_deadline`].
pub struct LinkBatcher<M> {
    policy: FlushPolicy,
    pending: Vec<M>,
    /// When the oldest pending item arrived (`None` ⇔ `pending` empty).
    since: Option<Instant>,
}

impl<M> std::fmt::Debug for LinkBatcher<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkBatcher")
            .field("policy", &self.policy)
            .field("pending", &self.pending.len())
            .field("since", &self.since)
            .finish()
    }
}

impl<M> LinkBatcher<M> {
    /// Creates an empty batcher. The policy must be valid
    /// ([`FlushPolicy::validate`]) — the builders guarantee this before
    /// any event loop exists.
    pub fn new(policy: FlushPolicy) -> Self {
        debug_assert!(policy.validate().is_ok(), "builders validate policies");
        LinkBatcher {
            policy,
            pending: Vec::new(),
            since: None,
        }
    }

    /// Adds one item; the first item of a batch starts its hold.
    pub fn push(&mut self, item: M, now: Instant) {
        if self.pending.is_empty() {
            self.since = Some(now);
        }
        self.pending.push(item);
    }

    /// Takes the pending batch if a flush is due: the size bound is hit,
    /// the hold has expired, or `shutdown` forces the remainder out.
    pub fn take_due(&mut self, now: Instant, shutdown: bool) -> Option<Flush<M>> {
        let since = self.since?;
        let reason = if self.pending.len() >= self.policy.max_batch {
            FlushReason::Size
        } else if now >= since + self.policy.hold {
            FlushReason::Hold
        } else if shutdown {
            FlushReason::Shutdown
        } else {
            return None;
        };
        self.since = None;
        Some(Flush {
            batch: std::mem::take(&mut self.pending),
            reason,
            held: now.saturating_duration_since(since),
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
    /// `None` with nothing pending, so an idle owner blocks instead of
    /// busy-spinning.
    pub fn flush_deadline(&self) -> Option<Instant> {
        self.since.map(|s| s + self.policy.hold)
    }

    /// The time remaining until [`LinkBatcher::flush_deadline`], saturated
    /// at zero — the timer form an event loop wants: a reactor registers
    /// this as its poll timeout (`None` still means "nothing pending, no
    /// timer needed").
    pub fn time_to_deadline(&self, now: Instant) -> Option<Duration> {
        self.flush_deadline()
            .map(|d| d.saturating_duration_since(now))
    }

    /// Whether any items are pending.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Takes whatever is pending without a flush decision — the failed-link
    /// path, where the owner accounts the items as abandoned rather than
    /// framing them.
    pub fn drain_remaining(&mut self) -> Vec<M> {
        self.since = None;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // to wait for, so the owning loop must block. The reactor keys its
        // poll timeout on flush_deadline() — None means "block
        // indefinitely".
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
    fn adaptive_policy_flushes_every_batch_at_its_floor() {
        // A steady 10µs-gap stream — the traffic a gap-tracking hold would
        // stretch toward its ceiling — is due at the floor batch after
        // batch: whatever a flush point finds is the batch.
        let floor = Duration::ZERO;
        let mut b = LinkBatcher::new(FlushPolicy::adaptive(8, floor, Duration::from_micros(500)));
        let t0 = Instant::now();
        let mut t = t0;
        for pass in 0..16u32 {
            let since = t;
            for i in 0..3 {
                b.push(3 * pass + i, t);
                assert_eq!(b.flush_deadline(), Some(since + floor), "pass {pass}");
                t += Duration::from_micros(10);
            }
            let f = b.take_due(t, false).expect("due at the floor");
            assert_eq!(f.reason, FlushReason::Hold);
            assert_eq!(f.batch, vec![3 * pass, 3 * pass + 1, 3 * pass + 2]);
            assert_eq!(f.held, t - since);
            assert_eq!(b.flush_deadline(), None);
        }
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
        // The ceiling is not read, so no floor/ceil pair is unsatisfiable.
        let floor = Duration::from_micros(10);
        let inverted = FlushPolicy::adaptive(4, floor, Duration::from_micros(5));
        assert_eq!(inverted, FlushPolicy::fixed(4, floor));
        assert!(inverted.validate().is_ok());
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
