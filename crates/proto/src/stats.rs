//! Network statistics: message counts and wire bits, by message kind.
//!
//! Shared by the simulator (`twobit-simnet`) and the live runtime
//! (`twobit-runtime`). These counters are the raw measurements behind Table 1 rows 1–3
//! (#messages per write, #messages per read, message size in bits) and the
//! wire-growth experiment E8. [`StatsSnapshot`] supports windowed
//! measurement: snapshot before and after an operation (or a batch) and
//! subtract.

use std::collections::BTreeMap;

use crate::frame::FrameCost;
use crate::id::RegisterId;
use crate::wire::MessageCost;

/// Why a link's pending batch was flushed into a frame.
///
/// Every frame a backend sends results from exactly one flush decision, so
/// `flushes(Size) + flushes(Hold) + flushes(Shutdown) == frames_sent()`
/// whenever a backend records both — the counters explain *why* the frames
/// in [`NetStats::frames_sent`] formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushReason {
    /// The batch reached the policy's `max_batch` bound.
    Size,
    /// The oldest pending item's hold window expired (on the virtual-time
    /// engine: the link's flush marker fired).
    Hold,
    /// The link was shutting down and flushed unconditionally so nothing
    /// is stranded.
    Shutdown,
}

/// Per-register (shard) traffic counters inside a [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTraffic {
    /// Messages sent for this register.
    pub sent: u64,
    /// Control bits sent for this register (two per message for the paper's
    /// algorithm, regardless of how many registers share the cluster).
    pub control_bits: u64,
    /// Data bits sent for this register.
    pub data_bits: u64,
    /// Shard-tag routing bits spent addressing this register.
    pub routing_bits: u64,
}

impl ShardTraffic {
    /// Total bits this register put on the wire.
    pub fn total_bits(&self) -> u64 {
        self.control_bits + self.data_bits + self.routing_bits
    }
}

/// One recovery epoch's share of the
/// `delivered + dropped + stale + abandoned == sent` reconciliation.
///
/// A recovery epoch starts at run start (epoch 0) and a new one begins at
/// every completed [`NetStats::record_recovery`]. Each counter records the
/// events that *occurred while that epoch was current* — a message sent in
/// one epoch may be delivered (or fenced) in a later one, so the
/// reconciliation is exact over the **sum** of all epochs, while the
/// per-epoch rows show how traffic distributes across incarnations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncarnationLedger {
    /// Messages handed to the network during this epoch.
    pub sent: u64,
    /// Messages delivered during this epoch.
    pub delivered: u64,
    /// Messages dropped to crashed destinations during this epoch.
    pub dropped_to_crashed: u64,
    /// Messages fenced as stale (older incarnation/epoch) during this epoch.
    pub dropped_stale: u64,
    /// Messages abandoned with failed links during this epoch.
    pub abandoned: u64,
}

/// Running totals for one simulation (or one live-runtime session).
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    sent_by_kind: BTreeMap<&'static str, u64>,
    bits_by_kind: BTreeMap<&'static str, u64>,
    per_shard: BTreeMap<RegisterId, ShardTraffic>,
    total_sent: u64,
    total_delivered: u64,
    dropped_to_crashed: u64,
    control_bits: u64,
    data_bits: u64,
    routing_bits: u64,
    max_msg_control_bits: u64,
    max_msg_total_bits: u64,
    frames_sent: u64,
    frame_header_bits: u64,
    frame_header_gamma_bits: u64,
    framed_messages: u64,
    max_frame_messages: u64,
    wire_bytes: u64,
    flushes_size: u64,
    flushes_hold: u64,
    flushes_shutdown: u64,
    observed_hold_ns: u64,
    max_observed_hold_ns: u64,
    links_abandoned: u64,
    messages_abandoned: u64,
    reconnects: u64,
    frames_resent: u64,
    frames_deduped: u64,
    resend_buffer_high_water: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_fallbacks: u64,
    recoveries: u64,
    dropped_stale: u64,
    snapshot_frames: u64,
    snapshot_bytes: u64,
    ledgers: Vec<IncarnationLedger>,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// The current recovery epoch's ledger row, created on first touch.
    fn ledger(&mut self) -> &mut IncarnationLedger {
        if self.ledgers.is_empty() {
            self.ledgers.push(IncarnationLedger::default());
        }
        self.ledgers.last_mut().expect("just pushed")
    }

    /// Records one message handed to the network.
    pub fn record_send(&mut self, kind: &'static str, cost: MessageCost) {
        self.ledger().sent += 1;
        *self.sent_by_kind.entry(kind).or_insert(0) += 1;
        *self.bits_by_kind.entry(kind).or_insert(0) += cost.total_bits();
        self.total_sent += 1;
        self.control_bits += cost.control_bits;
        self.data_bits += cost.data_bits;
        self.routing_bits += cost.routing_bits;
        self.max_msg_control_bits = self.max_msg_control_bits.max(cost.control_bits);
        self.max_msg_total_bits = self.max_msg_total_bits.max(cost.total_bits());
    }

    /// Records one message handed to the network on behalf of register
    /// `reg`, updating both the aggregate counters and the shard's.
    pub fn record_send_for(&mut self, reg: RegisterId, kind: &'static str, cost: MessageCost) {
        self.record_send(kind, cost);
        let shard = self.per_shard.entry(reg).or_default();
        shard.sent += 1;
        shard.control_bits += cost.control_bits;
        shard.data_bits += cost.data_bits;
        shard.routing_bits += cost.routing_bits;
    }

    /// Records one frame handed to the network. Per-message control/data
    /// costs are recorded separately (via [`NetStats::record_send_for`]);
    /// this adds the frame's shared-header routing bits and the
    /// frame-shape counters.
    pub fn record_frame(&mut self, cost: FrameCost) {
        self.frames_sent += 1;
        self.frame_header_bits += cost.header_bits;
        self.frame_header_gamma_bits += cost.header_gamma_bits;
        self.framed_messages += cost.messages;
        self.max_frame_messages = self.max_frame_messages.max(cost.messages);
    }

    /// Records `n` bytes actually put on the wire by the byte-level codec
    /// (one call per encoded frame blob, length prefix included). Only
    /// populated when a backend routes sends through
    /// [`Frame::encode`](crate::Frame::encode) — the substrates' wire-codec
    /// mode and the reactor transport do; the pure in-memory paths leave it 0.
    pub fn record_wire_bytes(&mut self, n: u64) {
        self.wire_bytes += n;
    }

    /// Records one message delivered to a live process.
    pub fn record_delivery(&mut self) {
        self.total_delivered += 1;
        self.ledger().delivered += 1;
    }

    /// Records `n` messages delivered at once (a whole frame).
    pub fn record_deliveries(&mut self, n: u64) {
        self.total_delivered += n;
        self.ledger().delivered += n;
    }

    /// Records `n` messages dropped at once because their frame's
    /// destination had crashed (frames drop atomically).
    pub fn record_frame_drop_to_crashed(&mut self, n: u64) {
        self.dropped_to_crashed += n;
        self.ledger().dropped_to_crashed += n;
    }

    /// Records one message dropped because its destination had crashed.
    pub fn record_drop_to_crashed(&mut self) {
        self.dropped_to_crashed += 1;
        self.ledger().dropped_to_crashed += 1;
    }

    /// Records `n` messages fenced at delivery because their frame was
    /// staged by (or addressed to) a previous incarnation of a since-
    /// recovered process, or before the current rejoin epoch. Fenced
    /// frames drop atomically, like frames to a crashed destination, and
    /// enter the reconciliation as their own term:
    /// `delivered + dropped + stale + abandoned == sent`. Zero unless a
    /// recovery happened.
    pub fn record_dropped_stale(&mut self, n: u64) {
        self.dropped_stale += n;
        self.ledger().dropped_stale += n;
    }

    /// Records one completed crash-recovery (snapshot installed, rejoin
    /// applied, incarnation bumped) and opens the next recovery epoch in
    /// the per-incarnation ledger.
    pub fn record_recovery(&mut self) {
        self.recoveries += 1;
        // Materialize the epoch that just ended (even if it saw no
        // traffic), then open the new one.
        self.ledger();
        self.ledgers.push(IncarnationLedger::default());
    }

    /// Records one snapshot transfer of `bytes` encoded bytes (the
    /// SNAPSHOT wire message). Snapshot traffic is state transfer, not
    /// protocol messaging: it is counted here and **not** in the message
    /// send/deliver reconciliation.
    pub fn record_snapshot_frame(&mut self, bytes: u64) {
        self.snapshot_frames += 1;
        self.snapshot_bytes += bytes;
    }

    /// Records one flush decision: why the batch became a frame and how
    /// long its oldest item was actually held (nanoseconds of real time on
    /// the live backends; virtual ticks × 1000 on the simulator, matching
    /// its tick = 1µs interpretation).
    pub fn record_flush(&mut self, reason: FlushReason, held_ns: u64) {
        match reason {
            FlushReason::Size => self.flushes_size += 1,
            FlushReason::Hold => self.flushes_hold += 1,
            FlushReason::Shutdown => self.flushes_shutdown += 1,
        }
        self.observed_hold_ns += held_ns;
        self.max_observed_hold_ns = self.max_observed_hold_ns.max(held_ns);
    }

    /// Records a link abandoned mid-stream: a socket write failed, or a
    /// reader met an oversized length prefix / corrupt frame it cannot
    /// account message-by-message. While this is non-zero the
    /// `delivered + dropped + abandoned == sent` teardown reconciliation
    /// may not balance exactly (a poisoned frame's message count is
    /// unknowable); when it is zero, the reconciliation must hold.
    pub fn record_link_abandoned(&mut self) {
        self.links_abandoned += 1;
    }

    /// Records `n` messages abandoned with a failed link (counted, unlike
    /// a poisoned frame's contents): messages whose socket write failed,
    /// plus everything drained off the dead link afterwards so teardown
    /// reconciliation still balances.
    pub fn record_messages_abandoned(&mut self, n: u64) {
        self.messages_abandoned += n;
        self.ledger().abandoned += n;
    }

    /// Records one successful re-dial of a previously connected link: the
    /// transport survived a transient socket failure without losing the
    /// link. Distinct from crash semantics (a crashed *process* never
    /// comes back) and from [`NetStats::record_link_abandoned`] (a link
    /// given up on for good).
    pub fn record_reconnect(&mut self) {
        self.reconnects += 1;
    }

    /// Records `n` frames retransmitted from a resend buffer after a
    /// reconnect — frames that had already been handed to a socket once.
    /// Retransmission never touches the message counters: a message is
    /// `sent` once, and the receiver's sequence dedup guarantees it is
    /// `delivered` (or `dropped`) at most once, so resend epochs enter the
    /// `delivered + dropped + abandoned == sent` reconciliation exactly
    /// once.
    pub fn record_frames_resent(&mut self, n: u64) {
        self.frames_resent += n;
    }

    /// Records one duplicate frame discarded by the receiver's sequence
    /// dedup (its seq was at or below the link's delivery cursor). The
    /// frame's messages were already counted delivered/dropped on first
    /// receipt, so a dedup hit changes no reconciliation counter.
    pub fn record_frame_deduped(&mut self) {
        self.frames_deduped += 1;
    }

    /// Records the current depth of one link's resend buffer (un-acked
    /// sealed frames), keeping the high-water mark.
    pub fn record_resend_buffer_depth(&mut self, depth: u64) {
        self.resend_buffer_high_water = self.resend_buffer_high_water.max(depth);
    }

    /// Successful re-dials of previously connected links.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Frames retransmitted from resend buffers after reconnects.
    pub fn frames_resent(&self) -> u64 {
        self.frames_resent
    }

    /// Duplicate frames discarded by receiver-side sequence dedup.
    pub fn frames_deduped(&self) -> u64 {
        self.frames_deduped
    }

    /// Deepest any link's resend buffer ever got (un-acked sealed frames).
    pub fn resend_buffer_high_water(&self) -> u64 {
        self.resend_buffer_high_water
    }

    /// Messages sent, total.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Messages delivered to live processes.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Messages dropped at delivery because the destination crashed.
    pub fn dropped_to_crashed(&self) -> u64 {
        self.dropped_to_crashed
    }

    /// Messages fenced at delivery as stale (previous incarnation or
    /// pre-rejoin epoch). Zero unless a recovery happened.
    pub fn dropped_stale(&self) -> u64 {
        self.dropped_stale
    }

    /// Completed crash-recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// SNAPSHOT transfers performed (one per completed recovery donor
    /// stream).
    pub fn snapshot_frames(&self) -> u64 {
        self.snapshot_frames
    }

    /// Encoded bytes of all SNAPSHOT transfers (excluded from
    /// [`NetStats::wire_bytes`]: state transfer, not protocol traffic).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// The per-incarnation reconciliation ledger: row `k` covers the epoch
    /// between recovery `k-1` and recovery `k` (row 0 runs from start).
    /// Empty only when nothing was recorded at all. The sum of every
    /// column reproduces the aggregate counters exactly.
    pub fn incarnation_ledgers(&self) -> &[IncarnationLedger] {
        &self.ledgers
    }

    /// Messages sent of the given kind.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// All kinds seen, with send counts.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.sent_by_kind.iter().map(|(k, v)| (*k, *v))
    }

    /// Total control bits sent.
    pub fn control_bits(&self) -> u64 {
        self.control_bits
    }

    /// Total data bits sent.
    pub fn data_bits(&self) -> u64 {
        self.data_bits
    }

    /// Total per-message shard-tag routing bits: what addressing each
    /// message's register would cost if every envelope crossed its link
    /// alone (0 on single-register deployments). Under the framed
    /// transport these bits are *not* on the wire — the shared header is
    /// (see [`NetStats::frame_header_bits`]) — so this doubles as the
    /// unframed-equivalent comparison figure.
    pub fn routing_bits(&self) -> u64 {
        self.routing_bits
    }

    /// Frames handed to the network.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total shared-header routing bits actually sent by the framed
    /// transport — the amortized counterpart of
    /// [`NetStats::routing_bits`].
    pub fn frame_header_bits(&self) -> u64 {
        self.frame_header_bits
    }

    /// What the same frame headers would have cost with the delta/gamma
    /// mode forced (header codec v1 plus the mode bit) — the figure the
    /// per-frame chooser is asserted against: `frame_header_bits() ≤`
    /// this, always.
    pub fn frame_header_gamma_bits(&self) -> u64 {
        self.frame_header_gamma_bits
    }

    /// Bytes actually put on the wire by the byte-level codec (0 unless a
    /// backend encodes frames — see [`NetStats::record_wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Flushes recorded for the given reason.
    pub fn flushes(&self, reason: FlushReason) -> u64 {
        match reason {
            FlushReason::Size => self.flushes_size,
            FlushReason::Hold => self.flushes_hold,
            FlushReason::Shutdown => self.flushes_shutdown,
        }
    }

    /// Total flush decisions recorded — equals [`NetStats::frames_sent`]
    /// on backends that record flush reasons (every frame is one flush).
    pub fn flushes_total(&self) -> u64 {
        self.flushes_size + self.flushes_hold + self.flushes_shutdown
    }

    /// Sum of observed hold times across all recorded flushes, in
    /// nanoseconds (see [`NetStats::record_flush`] for the simulator's
    /// tick conversion).
    pub fn observed_hold_ns(&self) -> u64 {
        self.observed_hold_ns
    }

    /// Longest observed hold of any single flush, in nanoseconds.
    pub fn max_observed_hold_ns(&self) -> u64 {
        self.max_observed_hold_ns
    }

    /// Mean observed hold per flush in nanoseconds (0.0 before any flush
    /// was recorded) — the figure that shows how hard an adaptive policy
    /// actually held batches back.
    pub fn mean_observed_hold_ns(&self) -> f64 {
        let flushes = self.flushes_total();
        if flushes == 0 {
            0.0
        } else {
            self.observed_hold_ns as f64 / flushes as f64
        }
    }

    /// Links abandoned mid-stream (failed writes, poisoned frames). See
    /// [`NetStats::record_link_abandoned`] for the reconciliation caveat.
    pub fn links_abandoned(&self) -> u64 {
        self.links_abandoned
    }

    /// Messages abandoned with failed links — the countable share of
    /// abandoned traffic, included in teardown reconciliation as
    /// `delivered + dropped + abandoned == sent`.
    pub fn messages_abandoned(&self) -> u64 {
        self.messages_abandoned
    }

    /// Records one read served from the process-local register cache — no
    /// message, no frame, no wire bytes. Cache-served reads never enter
    /// the `delivered + dropped + abandoned == sent` reconciliation (they
    /// send nothing), which is exactly the point.
    pub fn record_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Records a read that consulted the local cache and found no entry
    /// for its register, falling through to the message protocol.
    pub fn record_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// Records a read that found a cached entry but whose safety gate
    /// refused to serve it (reader not co-located with the SWMR writer,
    /// or the entry not yet confirmed), falling through to the protocol.
    pub fn record_cache_fallback(&mut self) {
        self.cache_fallbacks += 1;
    }

    /// Reads served locally from the register cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Reads that found no cached entry and went to the network.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Reads whose cached entry the safety gate refused to serve.
    pub fn cache_fallbacks(&self) -> u64 {
        self.cache_fallbacks
    }

    /// Messages that travelled inside frames.
    pub fn framed_messages(&self) -> u64 {
        self.framed_messages
    }

    /// Largest number of messages coalesced into one frame.
    pub fn max_frame_messages(&self) -> u64 {
        self.max_frame_messages
    }

    /// Mean messages per frame (0.0 before any frame was sent) — the
    /// batching factor the routing amortization depends on.
    pub fn messages_per_frame(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.framed_messages as f64 / self.frames_sent as f64
        }
    }

    /// Traffic attributed to register `reg` (zeroed if the shard never sent).
    pub fn shard(&self, reg: RegisterId) -> ShardTraffic {
        self.per_shard.get(&reg).copied().unwrap_or_default()
    }

    /// All registers with attributed traffic, in id order.
    pub fn shards(&self) -> impl Iterator<Item = (RegisterId, ShardTraffic)> + '_ {
        self.per_shard.iter().map(|(r, t)| (*r, *t))
    }

    /// Largest control-bit cost of any single message (Table 1 row 3
    /// reports the worst case).
    pub fn max_msg_control_bits(&self) -> u64 {
        self.max_msg_control_bits
    }

    /// Largest total-bit cost of any single message.
    pub fn max_msg_total_bits(&self) -> u64 {
        self.max_msg_total_bits
    }

    /// Takes a snapshot for windowed measurements.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent_by_kind: self.sent_by_kind.clone(),
            total_sent: self.total_sent,
            control_bits: self.control_bits,
            data_bits: self.data_bits,
            frames_sent: self.frames_sent,
            frame_header_bits: self.frame_header_bits,
            wire_bytes: self.wire_bytes,
            cache_hits: self.cache_hits,
        }
    }
}

/// A point-in-time copy of the send counters; subtract two snapshots to get
/// the traffic of a window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    sent_by_kind: BTreeMap<&'static str, u64>,
    total_sent: u64,
    control_bits: u64,
    data_bits: u64,
    frames_sent: u64,
    frame_header_bits: u64,
    wire_bytes: u64,
    cache_hits: u64,
}

impl StatsSnapshot {
    /// Wire bytes put on the wire between `earlier` and `self`.
    pub fn wire_bytes_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.wire_bytes - earlier.wire_bytes
    }

    /// Messages sent between `earlier` and `self`.
    pub fn sent_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.total_sent - earlier.total_sent
    }

    /// Control bits sent between `earlier` and `self`.
    pub fn control_bits_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.control_bits - earlier.control_bits
    }

    /// Data bits sent between `earlier` and `self`.
    pub fn data_bits_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.data_bits - earlier.data_bits
    }

    /// Frames sent between `earlier` and `self`.
    pub fn frames_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.frames_sent - earlier.frames_sent
    }

    /// Frame header bits sent between `earlier` and `self`.
    pub fn frame_header_bits_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.frame_header_bits - earlier.frame_header_bits
    }

    /// Messages of `kind` sent between `earlier` and `self`.
    pub fn kind_since(&self, earlier: &StatsSnapshot, kind: &str) -> u64 {
        self.sent_by_kind.get(kind).copied().unwrap_or(0)
            - earlier.sent_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Cache-served reads between `earlier` and `self`.
    pub fn cache_hits_since(&self, earlier: &StatsSnapshot) -> u64 {
        self.cache_hits - earlier.cache_hits
    }

    /// Total messages in this snapshot (since run start).
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        s.record_send("WRITE0", MessageCost::new(2, 64));
        s.record_send("WRITE1", MessageCost::new(2, 64));
        s.record_send("READ", MessageCost::new(2, 0));
        s.record_delivery();
        s.record_drop_to_crashed();
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.total_delivered(), 1);
        assert_eq!(s.dropped_to_crashed(), 1);
        assert_eq!(s.sent_of_kind("WRITE0"), 1);
        assert_eq!(s.sent_of_kind("NOPE"), 0);
        assert_eq!(s.control_bits(), 6);
        assert_eq!(s.data_bits(), 128);
        assert_eq!(s.max_msg_control_bits(), 2);
        assert_eq!(s.max_msg_total_bits(), 66);
    }

    #[test]
    fn snapshots_diff() {
        let mut s = NetStats::new();
        s.record_send("A", MessageCost::new(10, 5));
        let before = s.snapshot();
        s.record_send("A", MessageCost::new(10, 5));
        s.record_send("B", MessageCost::new(1, 0));
        let after = s.snapshot();
        assert_eq!(after.sent_since(&before), 2);
        assert_eq!(after.kind_since(&before, "A"), 1);
        assert_eq!(after.kind_since(&before, "B"), 1);
        assert_eq!(after.control_bits_since(&before), 11);
        assert_eq!(after.data_bits_since(&before), 5);
    }

    #[test]
    fn sharded_sends_split_and_aggregate() {
        let mut s = NetStats::new();
        let r0 = RegisterId::new(0);
        let r1 = RegisterId::new(1);
        let cost = MessageCost::new(2, 64).with_routing(1);
        s.record_send_for(r0, "WRITE0", cost);
        s.record_send_for(r0, "READ", MessageCost::new(2, 0).with_routing(1));
        s.record_send_for(r1, "WRITE1", cost);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.routing_bits(), 3);
        assert_eq!(s.control_bits(), 6);
        let t0 = s.shard(r0);
        assert_eq!(t0.sent, 2);
        assert_eq!(t0.control_bits, 4);
        assert_eq!(t0.data_bits, 64);
        assert_eq!(t0.routing_bits, 2);
        assert_eq!(t0.total_bits(), 70);
        assert_eq!(s.shard(r1).sent, 1);
        assert_eq!(s.shard(RegisterId::new(9)), ShardTraffic::default());
        let shards: Vec<_> = s.shards().map(|(r, _)| r).collect();
        assert_eq!(shards, vec![r0, r1]);
    }

    #[test]
    fn frame_accounting_separates_header_from_per_message_routing() {
        let mut s = NetStats::new();
        let r0 = RegisterId::new(0);
        // Two messages recorded with their unframed-equivalent 6-bit tags...
        s.record_send_for(r0, "WRITE0", MessageCost::new(2, 64).with_routing(6));
        s.record_send_for(r0, "READ", MessageCost::new(2, 0).with_routing(6));
        // ...that actually travelled in one frame with a 9-bit header.
        s.record_frame(FrameCost {
            messages: 2,
            header_bits: 9,
            header_gamma_bits: 11,
            control_bits: 4,
            data_bits: 64,
            unframed_routing_bits: 12,
        });
        s.record_deliveries(2);
        s.record_wire_bytes(14);
        assert_eq!(s.routing_bits(), 12, "unframed-equivalent figure");
        assert_eq!(s.frame_header_bits(), 9, "bits actually on the wire");
        assert_eq!(s.frame_header_gamma_bits(), 11, "forced-gamma comparison");
        assert_eq!(s.wire_bytes(), 14);
        assert_eq!(s.frames_sent(), 1);
        assert_eq!(s.framed_messages(), 2);
        assert_eq!(s.max_frame_messages(), 2);
        assert!((s.messages_per_frame() - 2.0).abs() < f64::EPSILON);
        assert_eq!(s.total_delivered(), 2);
        assert_eq!(s.control_bits(), 4, "framing never touches control bits");

        let before = NetStats::new().snapshot();
        let after = s.snapshot();
        assert_eq!(after.frames_since(&before), 1);
        assert_eq!(after.frame_header_bits_since(&before), 9);
        assert_eq!(after.wire_bytes_since(&before), 14);

        s.record_frame_drop_to_crashed(3);
        assert_eq!(s.dropped_to_crashed(), 3);
    }

    #[test]
    fn flush_reasons_and_hold_summary_accumulate() {
        let mut s = NetStats::new();
        s.record_flush(FlushReason::Size, 1_000);
        s.record_flush(FlushReason::Size, 3_000);
        s.record_flush(FlushReason::Hold, 20_000);
        s.record_flush(FlushReason::Shutdown, 0);
        assert_eq!(s.flushes(FlushReason::Size), 2);
        assert_eq!(s.flushes(FlushReason::Hold), 1);
        assert_eq!(s.flushes(FlushReason::Shutdown), 1);
        assert_eq!(s.flushes_total(), 4);
        assert_eq!(s.observed_hold_ns(), 24_000);
        assert_eq!(s.max_observed_hold_ns(), 20_000);
        assert!((s.mean_observed_hold_ns() - 6_000.0).abs() < f64::EPSILON);
    }

    #[test]
    fn abandoned_counters_close_the_reconciliation() {
        let mut s = NetStats::new();
        for _ in 0..10 {
            s.record_send("A", MessageCost::new(2, 0));
        }
        s.record_deliveries(6);
        s.record_frame_drop_to_crashed(1);
        s.record_link_abandoned();
        s.record_messages_abandoned(3);
        assert_eq!(s.links_abandoned(), 1);
        assert_eq!(s.messages_abandoned(), 3);
        assert_eq!(
            s.total_delivered() + s.dropped_to_crashed() + s.messages_abandoned(),
            s.total_sent(),
            "abandoned messages keep teardown reconciliation balanced"
        );
    }

    #[test]
    fn reconnect_counters_track_resend_epochs_without_touching_reconciliation() {
        let mut s = NetStats::new();
        for _ in 0..4 {
            s.record_send("A", MessageCost::new(2, 0));
        }
        // First transmission delivers 2 messages, then the socket dies.
        s.record_deliveries(2);
        s.record_resend_buffer_depth(1);
        s.record_resend_buffer_depth(3);
        s.record_resend_buffer_depth(2);
        s.record_reconnect();
        // The replay retransmits two frames; one was already delivered and
        // is discarded by seq dedup, the other delivers the remaining 2.
        s.record_frames_resent(2);
        s.record_frame_deduped();
        s.record_deliveries(2);
        assert_eq!(s.reconnects(), 1);
        assert_eq!(s.frames_resent(), 2);
        assert_eq!(s.frames_deduped(), 1);
        assert_eq!(s.resend_buffer_high_water(), 3);
        assert_eq!(
            s.total_delivered() + s.dropped_to_crashed() + s.messages_abandoned(),
            s.total_sent(),
            "a resend epoch enters the reconciliation exactly once"
        );
    }

    #[test]
    fn fresh_stats_report_zero_flushes_and_holds() {
        let s = NetStats::new();
        assert_eq!(s.flushes_total(), 0);
        assert_eq!(s.mean_observed_hold_ns(), 0.0);
        assert_eq!(s.links_abandoned(), 0);
        assert_eq!(s.messages_abandoned(), 0);
    }

    #[test]
    fn cache_counters_accumulate_and_diff() {
        let mut s = NetStats::new();
        s.record_cache_miss();
        let before = s.snapshot();
        s.record_cache_hit();
        s.record_cache_hit();
        s.record_cache_fallback();
        assert_eq!(s.cache_hits(), 2);
        assert_eq!(s.cache_misses(), 1);
        assert_eq!(s.cache_fallbacks(), 1);
        // A cache hit sends nothing: the wire counters stay untouched.
        assert_eq!(s.total_sent(), 0);
        assert_eq!(s.wire_bytes(), 0);
        let after = s.snapshot();
        assert_eq!(after.cache_hits_since(&before), 2);
    }

    #[test]
    fn per_incarnation_ledger_partitions_the_reconciliation() {
        let mut s = NetStats::new();
        for _ in 0..5 {
            s.record_send("A", MessageCost::new(2, 0));
        }
        s.record_deliveries(3);
        s.record_frame_drop_to_crashed(1);
        s.record_recovery();
        // One pre-recovery message is fenced in the new epoch, and fresh
        // traffic flows.
        s.record_dropped_stale(1);
        for _ in 0..2 {
            s.record_send("A", MessageCost::new(2, 0));
        }
        s.record_deliveries(2);
        assert_eq!(s.recoveries(), 1);
        assert_eq!(s.dropped_stale(), 1);
        let ledgers = s.incarnation_ledgers();
        assert_eq!(ledgers.len(), 2, "one epoch per incarnation");
        assert_eq!(ledgers[0].sent, 5);
        assert_eq!(ledgers[0].delivered, 3);
        assert_eq!(ledgers[0].dropped_to_crashed, 1);
        assert_eq!(ledgers[1].sent, 2);
        assert_eq!(ledgers[1].delivered, 2);
        assert_eq!(ledgers[1].dropped_stale, 1);
        // Columns sum back to the aggregates, and the extended
        // reconciliation closes over the whole run.
        let sent: u64 = ledgers.iter().map(|l| l.sent).sum();
        let delivered: u64 = ledgers.iter().map(|l| l.delivered).sum();
        assert_eq!(sent, s.total_sent());
        assert_eq!(delivered, s.total_delivered());
        assert_eq!(
            s.total_delivered()
                + s.dropped_to_crashed()
                + s.dropped_stale()
                + s.messages_abandoned(),
            s.total_sent(),
            "stale fencing keeps the reconciliation exact"
        );
    }

    #[test]
    fn snapshot_transfer_is_counted_outside_the_message_counters() {
        let mut s = NetStats::new();
        s.record_snapshot_frame(40);
        s.record_snapshot_frame(16);
        assert_eq!(s.snapshot_frames(), 2);
        assert_eq!(s.snapshot_bytes(), 56);
        assert_eq!(s.total_sent(), 0, "state transfer is not a message");
        assert_eq!(s.wire_bytes(), 0);
    }

    #[test]
    fn kinds_iteration_sorted() {
        let mut s = NetStats::new();
        s.record_send("B", MessageCost::default());
        s.record_send("A", MessageCost::default());
        s.record_send("A", MessageCost::default());
        let kinds: Vec<_> = s.kinds().collect();
        assert_eq!(kinds, vec![("A", 2), ("B", 1)]);
    }
}
