//! Frame-based batching transport: coalesce envelopes per link with a
//! shared routing header — and a full byte-level codec.
//!
//! The per-register protocol needs only two control bits per message, but a
//! multi-register deployment adds a shard tag to every
//! [`Envelope`] — and when each envelope crosses the link
//! alone that *routing* overhead dwarfs the control bits (`⌈log₂ k⌉` bits
//! per message for a `k`-register space). A [`Frame`] coalesces every
//! envelope queued for one ordered link `(src, dst)` into a single wire
//! unit whose routing information is shared:
//!
//! * messages are grouped by register and the groups sorted by
//!   [`RegisterId`], so each shard tag appears **once per frame** instead of
//!   once per message;
//! * the tag sequence is encoded by whichever of two schemes is smaller per
//!   frame — delta/Elias-gamma gaps (sorted gaps are small) or a span
//!   bitmap (dense-but-gappy tag sets) — selected by a one-bit mode flag,
//!   see [`FrameHeader`];
//! * within a group, messages keep their send order, which is all the
//!   protocol can rely on anyway (channels are not FIFO, and registers are
//!   independent).
//!
//! A frame is a real byte blob, not just an accounting unit:
//! [`Frame::encode`] serializes the header and every message (via
//! [`WireMessage::encode_into`]) into one contiguous, length-prefixed bit
//! stream, and [`Frame::decode`] parses it back with every declared count
//! bounds-checked against the remaining input *before* any allocation.
//! [`FrameCost`] reports the amortized routing bits (`header_bits`)
//! alongside the untouched per-message control bits, plus the
//! per-message-tag figure the same messages would have cost unframed — and
//! the encoded blob reconciles bit-for-bit with that accounting on
//! multi-register deployments (see `docs/wire-format.md`; a
//! single-register space accounts 0 routing bits by convention — nothing
//! to route, like the unframed transport — while the blob still carries
//! the small self-describing header skeleton).
//!
//! # In memory
//!
//! A frame is **one flat `Vec<Envelope<M>>`, stably sorted by register** —
//! the batch `Vec` a link hands to [`Frame::from_envelopes`], reordered in
//! place. A "group" is a run of equal register ids in that vector; nothing
//! is allocated per group. The routing header is never materialised on the
//! hot path either: [`Frame::cost`], [`Frame::encoded_bits`] and the
//! encoders size and write it by walking the runs, and the decoder reads
//! it straight off the wire with a streaming cursor while it fills the
//! flat vector. [`FrameHeader`] (via [`Frame::header`]) is the owned,
//! inspectable form of the same header for tests and tools.
//!
//! Both ends can reuse their buffers, so a steady stream of frames
//! allocates nothing: [`Frame::into_vec`] hands the envelope vector back
//! to whoever batches ([`Frame::from_envelopes`]) or decodes
//! ([`Frame::decode_into`]) the next frame, and [`Frame::encode_append`]
//! writes the blob at the end of a byte buffer the caller keeps.

use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::bits::{gamma_bits, BitReader, BitWriter, WireError};
use crate::id::RegisterId;
use crate::pool::BufferPool;
use crate::wire::{Envelope, WireMessage};

/// Error type of the frame and header decoders.
///
/// Kept as an alias of the codec-wide [`WireError`] so pre-codec code
/// matching on `FrameDecodeError::Truncated` / `::Overflow` still compiles.
pub type FrameDecodeError = WireError;

/// A batch of enveloped messages for one ordered link, sharing one routing
/// header.
///
/// Frames are the transport unit of every execution substrate: the
/// deterministic simulator coalesces all envelopes staged on a link at the
/// same virtual instant, the live runtime's links coalesce under a
/// flush policy, and the reactor transport writes each frame as one
/// length-prefixed byte blob ([`Frame::encode`]). A frame is delivered
/// **atomically**: either every message in it reaches the destination (in
/// group order) or — if the destination crashed — none does.
///
/// # Examples
///
/// ```
/// use twobit_proto::{Envelope, Frame, MessageCost, RegisterId, WireMessage};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl WireMessage for Ping {
///     fn kind(&self) -> &'static str { "PING" }
///     fn cost(&self) -> MessageCost { MessageCost::new(2, 0) }
/// }
///
/// let frame = Frame::from_envelopes([
///     Envelope::new(RegisterId::new(5), Ping),
///     Envelope::new(RegisterId::new(1), Ping),
///     Envelope::new(RegisterId::new(5), Ping),
/// ]);
/// assert_eq!(frame.len(), 3);
/// assert_eq!(frame.group_count(), 2); // r1 and r5
///
/// // The shared header replaces three 3-bit shard tags (for, say, an
/// // 8-register space) with one shared tag sequence.
/// let cost = frame.cost(RegisterId::routing_bits(8));
/// assert_eq!(cost.control_bits, 6); // untouched: 2 bits per message
/// assert_eq!(cost.unframed_routing_bits, 9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame<M> {
    /// Every envelope, sorted by register id; envelopes of one register
    /// keep their send order (the sort is stable).
    envs: Vec<Envelope<M>>,
}

impl<M> Default for Frame<M> {
    fn default() -> Self {
        Frame { envs: Vec::new() }
    }
}

impl<M> Frame<M> {
    /// Builds a frame from envelopes, grouping by register (sorted) while
    /// preserving each register's internal message order. Handed a `Vec`,
    /// the frame keeps that allocation as its storage.
    pub fn from_envelopes(envelopes: impl IntoIterator<Item = Envelope<M>>) -> Self {
        let mut envs: Vec<Envelope<M>> = envelopes.into_iter().collect();
        if !envs.is_sorted_by_key(|e| e.reg) {
            envs.sort_by_key(|e| e.reg);
        }
        Frame { envs }
    }

    /// Total messages carried.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Returns `true` if the frame carries no messages.
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Number of distinct registers addressed (= shard tags in the header).
    pub fn group_count(&self) -> usize {
        self.runs().count()
    }

    /// The routing header in owned form: each addressed register with its
    /// message count, in id order. The codec itself never builds this — it
    /// walks the runs in place.
    pub fn header(&self) -> FrameHeader {
        FrameHeader {
            groups: self.runs().collect(),
        }
    }

    /// Iterates `(register, message)` pairs in wire order (groups sorted by
    /// register, send order within a group).
    pub fn iter(&self) -> impl Iterator<Item = (RegisterId, &M)> {
        self.envs.iter().map(|e| (e.reg, &e.inner))
    }

    /// Consumes the frame back into envelopes, in wire order: shorthand for
    /// `self.into_vec().into_iter()`, for receivers that have no use for
    /// the storage afterwards.
    pub fn into_envelopes(self) -> impl Iterator<Item = Envelope<M>> {
        self.into_vec().into_iter()
    }

    /// Consumes the frame into its storage: the envelopes in wire order,
    /// in the allocation the frame was built over — so a sender can hand
    /// the `Vec` back to whatever batches the next frame.
    pub fn into_vec(self) -> Vec<Envelope<M>> {
        self.envs
    }

    /// The header's groups, computed on the fly: one `(register, count)`
    /// per run of equal register ids.
    fn runs(&self) -> impl Iterator<Item = (RegisterId, u64)> + Clone + '_ {
        let mut rest = &self.envs[..];
        std::iter::from_fn(move || {
            let reg = rest.first()?.reg;
            let n = rest.iter().take_while(|e| e.reg == reg).count();
            rest = &rest[n..];
            Some((reg, n as u64))
        })
    }
}

/// Maximum frame body a decoder will accept (bytes). Generous for any batch
/// the flush policies produce; small enough that a hostile length prefix
/// cannot size a pathological allocation.
pub const MAX_FRAME_BODY_BYTES: u32 = 1 << 26; // 64 MiB

/// Largest element count a decoder pre-reserves from a declared count.
/// Declared counts are bounded by the remaining input *bits*, but decoded
/// elements are 16–24 bytes each — reserving bit-bounded counts verbatim
/// would let a small hostile blob demand allocations two orders of
/// magnitude larger than itself. Anything longer grows organically.
const DECODE_RESERVE_CAP: usize = 4096;

impl<M: WireMessage> Frame<M> {
    /// Wire cost of this frame. `per_msg_routing_bits` is the shard-tag
    /// width of the hosting space (`⌈log₂ k⌉`, see
    /// [`RegisterId::routing_bits`]); it sets the unframed comparison
    /// figure, and a width of 0 (single-register deployment) degenerates
    /// the header to 0 bits — with one register there is nothing to route,
    /// exactly as the unframed transport paid no tag, so framing never
    /// regresses the paper's headline configuration.
    pub fn cost(&self, per_msg_routing_bits: u64) -> FrameCost {
        let mut control = 0;
        let mut data = 0;
        for e in &self.envs {
            let c = e.inner.cost();
            control += c.control_bits;
            data += c.data_bits;
        }
        let messages = self.len() as u64;
        let (header_bits, header_gamma_bits) = if per_msg_routing_bits == 0 {
            (0, 0)
        } else {
            let shape = HeaderShape::of(self.runs());
            (shape.bits(), shape.bits_gamma())
        };
        FrameCost {
            messages,
            header_bits,
            header_gamma_bits,
            control_bits: control,
            data_bits: data,
            unframed_routing_bits: messages * per_msg_routing_bits,
        }
    }

    /// Exact size of [`Frame::encode`]'s body in bits (header plus every
    /// message, before byte padding and without the 32-bit length prefix).
    pub fn encoded_bits(&self) -> u64 {
        HeaderShape::of(self.runs()).bits() + self.message_bits()
    }

    fn message_bits(&self) -> u64 {
        self.envs.iter().map(|e| e.inner.encoded_bits()).sum()
    }

    /// Serializes the frame into one length-prefixed byte blob:
    ///
    /// ```text
    /// u32 BE body length · body
    /// body := header bits · message bits (wire order) · zero pad to byte
    /// ```
    ///
    /// The 32-bit prefix is stream framing (it lets a TCP reader slice the
    /// stream into frames); it is not part of the three accounted bit
    /// classes. The body reconciles exactly with [`FrameHeader::bits`] plus
    /// each message's [`WireMessage::encoded_bits`].
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] if the message type has no byte-level
    /// codec; [`WireError::Overflow`] if the body exceeds
    /// [`MAX_FRAME_BODY_BYTES`].
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut blob = Vec::new();
        self.encode_append(&mut blob)?;
        Ok(Bytes::from(blob))
    }

    /// [`Frame::encode`] into a recycled buffer checked out of `pool`: the
    /// steady-state hot path allocates nothing but the [`Bytes`] handle,
    /// and the returned blob gives the buffer back to the pool when its
    /// last view drops (after the socket write and the ack, after the
    /// simulator delivers the frame). The blob is byte-identical to
    /// [`Frame::encode`]'s.
    ///
    /// # Errors
    ///
    /// As for [`Frame::encode`].
    pub fn encode_pooled(&self, pool: &Arc<BufferPool>) -> Result<Bytes, WireError> {
        let mut buf = pool.checkout();
        buf.clear();
        self.encode_append(&mut buf)?;
        Ok(pool.freeze(buf))
    }

    /// Appends [`Frame::encode`]'s blob to the end of `buf` and returns its
    /// length — the one encode body, which [`Frame::encode`] and
    /// [`Frame::encode_pooled`] wrap. It writes a 32-bit length
    /// placeholder, the header (streamed off the register runs) and every
    /// message, then patches the real body length over the placeholder. A
    /// buffer with no capacity yet is sized exactly once up front; a warm
    /// one is written in place, so appending to a buffer that is reused —
    /// a transport's resend log — allocates nothing once it has grown to
    /// its working size. On error `buf` is left as it was.
    ///
    /// # Errors
    ///
    /// As for [`Frame::encode`].
    pub fn encode_append(&self, buf: &mut Vec<u8>) -> Result<usize, WireError> {
        let start = buf.len();
        let shape = HeaderShape::of(self.runs());
        if buf.capacity() == 0 {
            let body = (shape.bits() + self.message_bits()).div_ceil(8);
            buf.reserve_exact(usize::try_from(body).map_err(|_| WireError::Overflow)? + 4);
        }
        let mut w = BitWriter::append_to(std::mem::take(buf));
        w.put_bits(0, 32); // length-prefix placeholder, patched below
        shape.encode(self.runs(), &mut w);
        let written = self
            .envs
            .iter()
            .try_for_each(|e| e.inner.encode_into(&mut w));
        *buf = w.into_bytes();
        let body = u32::try_from(buf.len() - start - 4)
            .ok()
            .filter(|&len| len <= MAX_FRAME_BODY_BYTES)
            .ok_or(WireError::Overflow);
        match written.and(body) {
            Ok(len) => {
                buf[start..start + 4].copy_from_slice(&len.to_be_bytes());
                Ok(buf.len() - start)
            }
            Err(e) => {
                buf.truncate(start);
                Err(e)
            }
        }
    }

    /// Parses one blob produced by [`Frame::encode`] (length prefix
    /// included; the buffer must contain exactly one frame).
    ///
    /// Hardened against hostile input: the length prefix must match the
    /// buffer, the declared group and message counts are bounded by the
    /// remaining input *before* any allocation is sized from them, and the
    /// final-byte padding must be zero.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthMismatch`] if the prefix disagrees with the
    /// buffer; [`WireError::Truncated`] / [`WireError::Overflow`] /
    /// [`WireError::Malformed`] on a corrupt body;
    /// [`WireError::Unsupported`] if the message type has no codec.
    pub fn decode(blob: &[u8]) -> Result<Frame<M>, WireError> {
        Self::decode_into(blob, Vec::new())
    }

    /// [`Frame::decode`] into `storage`: the envelopes are decoded into
    /// that vector (cleared first, capacity reused) and the frame owns it.
    /// A receiver that hands each handled frame's storage back
    /// ([`Frame::into_vec`]) for the next one decodes without allocating
    /// once the vector has grown to its working size. The same hardened
    /// parse: every declared count is bounded by the input before anything
    /// is reserved, and a declared count reserves at most a fixed chunk.
    ///
    /// # Errors
    ///
    /// As for [`Frame::decode`]; `storage` is dropped.
    pub fn decode_into(blob: &[u8], storage: Vec<Envelope<M>>) -> Result<Frame<M>, WireError> {
        Self::check_prefix(blob)?;
        let mut r = BitReader::new(&blob[4..]);
        Self::decode_body(&mut r, storage)
    }

    /// [`Frame::decode`] over a shared [`Bytes`] blob: structurally the
    /// same hardened parse, but the reader remembers the backing
    /// allocation, so any byte-aligned payload a message codec pulls out
    /// via [`BitReader::get_byte_slice`] is a **zero-copy sub-view of the
    /// received blob** — the slices stay valid (and keep the blob alive)
    /// after this call returns. This is the decode path of every byte
    /// transport; `decode` remains for callers holding a plain slice.
    ///
    /// # Errors
    ///
    /// As for [`Frame::decode`].
    pub fn decode_shared(blob: &Bytes) -> Result<Frame<M>, WireError> {
        Self::check_prefix(blob)?;
        let body = blob.slice(4..);
        let mut r = BitReader::new_shared(&body);
        Self::decode_body(&mut r, Vec::new())
    }

    /// Validates the 4-byte length prefix against the buffer.
    fn check_prefix(blob: &[u8]) -> Result<(), WireError> {
        if blob.len() < 4 {
            return Err(WireError::Truncated);
        }
        let declared = u32::from_be_bytes(blob[..4].try_into().expect("4 bytes checked"));
        if declared > MAX_FRAME_BODY_BYTES {
            return Err(WireError::Overflow);
        }
        if declared as usize != blob.len() - 4 {
            return Err(WireError::LengthMismatch);
        }
        Ok(())
    }

    /// Shared decode body (everything after the length prefix), filling
    /// `envs`: the header is walked twice and stored never. The first walk
    /// validates it end to end and totals the declared messages; only then
    /// is the one flat vector sized, and the second walk — a copy of the
    /// first taken right after [`HeaderWalk::begin`], so the bitmap is
    /// validated once — names each message's register as the messages are
    /// decoded behind it.
    fn decode_body(
        r: &mut BitReader<'_>,
        mut envs: Vec<Envelope<M>>,
    ) -> Result<Frame<M>, WireError> {
        let mut walk = HeaderWalk::begin(r.clone())?;
        let mut names = walk.clone();
        // Bound the total message count by the remaining input before
        // allocating anything: every encodable message is at least one
        // bit. The sum must be overflow-checked — the per-group counts are
        // attacker-controlled u64s, and a wrapped sum would sail past the
        // bound.
        let mut declared_messages = 0u64;
        while let Some((_, count)) = walk.next_group()? {
            declared_messages = declared_messages
                .checked_add(count)
                .ok_or(WireError::Overflow)?;
        }
        *r = walk.finish();
        if declared_messages > r.remaining_bits() {
            return Err(WireError::Overflow);
        }
        // `declared ≤ remaining bits` caps it at 2²⁹, but elements are
        // wider than a bit — never let a declared count pre-reserve more
        // than a sane chunk; longer frames grow organically. Recycled
        // storage that is already large enough reserves nothing.
        envs.clear();
        envs.reserve_exact((declared_messages as usize).min(DECODE_RESERVE_CAP));
        while let Some((reg, count)) = names.next_group()? {
            for _ in 0..count {
                envs.push(Envelope::new(reg, M::decode(r)?));
            }
        }
        r.expect_zero_padding()?;
        Ok(Frame { envs })
    }
}

/// Wire cost of one [`Frame`], splitting the shared routing header from the
/// untouched per-message control and data bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameCost {
    /// Messages carried by the frame.
    pub messages: u64,
    /// Bits of the shared routing header as actually encoded — the
    /// *amortized* routing cost of the whole frame, with the per-frame
    /// delta/gamma-vs-bitmap chooser applied.
    pub header_bits: u64,
    /// What the header would cost with the delta/gamma mode forced — the
    /// pre-chooser (header codec v1) comparison figure. Always ≥
    /// `header_bits`.
    pub header_gamma_bits: u64,
    /// Sum of the inner messages' control bits (two per message for the
    /// paper's algorithm — framing never touches them).
    pub control_bits: u64,
    /// Sum of the inner messages' data bits.
    pub data_bits: u64,
    /// What the same messages' shard tags would cost if each envelope
    /// crossed the link alone (`messages × ⌈log₂ k⌉`) — the figure
    /// `header_bits` is compared against.
    pub unframed_routing_bits: u64,
}

impl FrameCost {
    /// Total bits the frame puts on the wire.
    pub fn total_bits(&self) -> u64 {
        self.header_bits + self.control_bits + self.data_bits
    }

    /// Routing bits saved versus sending every envelope alone (0 when the
    /// header is not smaller).
    pub fn routing_bits_saved(&self) -> u64 {
        self.unframed_routing_bits.saturating_sub(self.header_bits)
    }
}

/// The shared routing header of a [`Frame`]: the addressed registers (in id
/// order) with their message counts.
///
/// The wire encoding starts with the gamma-coded group count; a non-empty
/// header then carries one **mode bit** selecting whichever of two tag
/// encodings is smaller for this frame (ROADMAP "Header codec v2"):
///
/// ```text
/// γ(d+1)  ·  mode  ·  body            (mode/body absent when d = 0)
///
/// mode 0 (delta/gamma):
///   γ(tag₀+1) γ(c₀)  ·  γ(tag₁−tag₀) γ(c₁)  ·  …
/// mode 1 (span bitmap):
///   γ(tag₀+1) γ(span)  ·  bitmap[span]  ·  γ(c₀) … γ(c_{d−1})
/// ```
///
/// where `d` is the group count, `tagᵢ` the sorted register ids, `cᵢ` the
/// per-group message counts, `span = tag_{d−1} − tag₀ + 1`, and
/// `γ(x) = 2⌊log₂ x⌋ + 1` bits. Sorted gaps gamma-code in one bit for
/// adjacent shards — near-optimal for dense runs — while the bitmap wins
/// when tags are regular but gapped (`≈ γ(gap)` per tag otherwise). The
/// encoder computes both sizes and picks the smaller, so the chosen
/// encoding never exceeds forced-gamma by more than the mode bit, and
/// [`FrameHeader::bits_gamma`] exposes the forced-gamma figure for
/// comparison.
///
/// # Examples
///
/// ```
/// use twobit_proto::{Frame, FrameHeader};
/// # use twobit_proto::{Envelope, MessageCost, RegisterId, WireMessage};
/// # #[derive(Clone, Debug)]
/// # struct P;
/// # impl WireMessage for P {
/// #     fn kind(&self) -> &'static str { "P" }
/// #     fn cost(&self) -> MessageCost { MessageCost::new(2, 0) }
/// # }
/// let frame = Frame::from_envelopes(
///     (0..64usize).map(|k| Envelope::new(RegisterId::new(k), P)),
/// );
/// let header = frame.header();
/// let bytes = header.encode();
/// assert_eq!(FrameHeader::decode(&bytes)?, header);
/// // 64 adjacent shard tags cost far less than 64 × 6 unframed bits.
/// assert!(header.bits() < 64 * 6 / 2);
/// # Ok::<(), twobit_proto::FrameDecodeError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameHeader {
    /// `(register, message count)` per group, sorted by register id.
    pub groups: Vec<(RegisterId, u64)>,
}

impl FrameHeader {
    /// Exact size of the encoded header in bits (before byte padding), with
    /// the per-frame mode chooser applied.
    ///
    /// # Panics
    ///
    /// As for a malformed hand-built header — see [`FrameHeader::encode`].
    pub fn bits(&self) -> u64 {
        self.shape().bits()
    }

    /// Size of the header with the delta/gamma mode forced — what the
    /// pre-chooser codec would emit plus the mode bit. The chooser's
    /// [`FrameHeader::bits`] never exceeds this.
    pub fn bits_gamma(&self) -> u64 {
        self.shape().bits_gamma()
    }

    fn shape(&self) -> HeaderShape {
        HeaderShape::of(self.groups.iter().copied())
    }

    /// Encodes the header into `w` (no byte padding; the caller finishes
    /// the stream).
    ///
    /// # Panics
    ///
    /// Panics on a header violating the type's invariant (register ids not
    /// strictly increasing, or a zero message count) — constructible only
    /// by hand or via deserialization; [`Frame::header`] always upholds it.
    pub fn encode_into(&self, w: &mut BitWriter) {
        self.shape().encode(self.groups.iter().copied(), w);
    }

    /// Encodes the header into a [`Bytes`] blob (final byte zero-padded) —
    /// the same wire type [`Frame::encode`] returns, so the whole codec
    /// speaks `Bytes`.
    ///
    /// # Panics
    ///
    /// As for [`FrameHeader::encode_into`].
    pub fn encode(&self) -> Bytes {
        let mut w = BitWriter::new();
        self.encode_into(&mut w);
        Bytes::from(w.into_bytes())
    }

    /// Decodes a header from the front of `r`, leaving the cursor after
    /// its last code (where it was, on error).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the stream ends mid-code;
    /// [`WireError::Overflow`] if a count exceeds what the remaining input
    /// could hold or a tag leaves its domain; [`WireError::Malformed`] on a
    /// non-canonical bitmap.
    pub fn decode_from(r: &mut BitReader<'_>) -> Result<FrameHeader, WireError> {
        let mut walk = HeaderWalk::begin(r.clone())?;
        // The walk has bounded the group count by the remaining input; the
        // reserve cap keeps even a bit-plausible count from pre-sizing an
        // allocation much larger than the blob that declared it.
        let mut groups = Vec::with_capacity((walk.left as usize).min(DECODE_RESERVE_CAP));
        while let Some(group) = walk.next_group()? {
            groups.push(group);
        }
        *r = walk.finish();
        Ok(FrameHeader { groups })
    }

    /// Decodes a header previously produced by [`FrameHeader::encode`].
    ///
    /// # Errors
    ///
    /// As for [`FrameHeader::decode_from`].
    pub fn decode(bytes: &[u8]) -> Result<FrameHeader, WireError> {
        let mut r = BitReader::new(bytes);
        Self::decode_from(&mut r)
    }

    /// Total message count across all groups.
    pub fn messages(&self) -> u64 {
        self.groups.iter().map(|&(_, c)| c).sum()
    }
}

/// What one walk over a header's groups learns — enough to size both tag
/// encodings, pick the smaller, and write it. Shared by the owned
/// [`FrameHeader`] and by [`Frame`], which feeds it the register runs of
/// its flat storage without building a header first.
#[derive(Clone, Copy, Debug, Default)]
struct HeaderShape {
    groups: u64,
    /// First and last register tag (meaningless when `groups == 0`).
    first: u64,
    last: u64,
    /// Size of the delta/gamma body (mode 0), sans count prefix and mode
    /// bit.
    gamma_body: u64,
    /// Σ γ(count): the part of the span-bitmap body (mode 1) that depends
    /// on more than the first and last tag.
    count_bits: u64,
}

impl HeaderShape {
    /// # Panics
    ///
    /// Panics if `groups` violates the header invariant: strictly
    /// increasing register ids, every count ≥ 1.
    fn of(groups: impl Iterator<Item = (RegisterId, u64)>) -> Self {
        let mut shape = HeaderShape::default();
        let mut prev: Option<RegisterId> = None;
        for (reg, count) in groups {
            assert!(count >= 1, "frame header groups must carry messages");
            let count_bits = gamma_bits(count);
            shape.gamma_body += gamma_bits(Self::tag_code(prev, reg)) + count_bits;
            shape.count_bits += count_bits;
            if prev.is_none() {
                shape.first = reg.index() as u64;
            }
            shape.last = reg.index() as u64;
            shape.groups += 1;
            prev = Some(reg);
        }
        shape
    }

    /// The gamma code of a group's register tag: the first tag absolute
    /// (offset by one so tag 0 is encodable), every later one as its gap
    /// from the previous tag.
    ///
    /// # Panics
    ///
    /// Panics unless register ids are strictly increasing — violable only
    /// through [`FrameHeader`]'s public field or deserialization, since
    /// frames always sort.
    fn tag_code(prev: Option<RegisterId>, reg: RegisterId) -> u64 {
        match prev {
            None => reg.index() as u64 + 1,
            Some(p) => reg
                .index()
                .checked_sub(p.index())
                .filter(|&gap| gap > 0)
                .expect("frame header groups must have strictly increasing register ids")
                as u64,
        }
    }

    fn span(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Size of the span-bitmap body (mode 1), sans count prefix and mode
    /// bit.
    fn bitmap_body(&self) -> u64 {
        gamma_bits(self.first + 1) + gamma_bits(self.span()) + self.span() + self.count_bits
    }

    fn bits(&self) -> u64 {
        let prefix = gamma_bits(self.groups + 1);
        if self.groups == 0 {
            prefix
        } else {
            prefix + 1 + self.gamma_body.min(self.bitmap_body())
        }
    }

    fn bits_gamma(&self) -> u64 {
        let prefix = gamma_bits(self.groups + 1);
        if self.groups == 0 {
            prefix
        } else {
            prefix + 1 + self.gamma_body
        }
    }

    /// Writes the header for `groups` — the same sequence this shape was
    /// measured from — in whichever mode is smaller (gamma on a tie).
    fn encode(&self, groups: impl Iterator<Item = (RegisterId, u64)> + Clone, w: &mut BitWriter) {
        w.put_gamma(self.groups + 1);
        if self.groups == 0 {
            return;
        }
        if self.gamma_body <= self.bitmap_body() {
            w.put_bit(false); // mode 0: delta/gamma
            let mut prev: Option<RegisterId> = None;
            for (reg, count) in groups {
                w.put_gamma(Self::tag_code(prev, reg));
                w.put_gamma(count);
                prev = Some(reg);
            }
        } else {
            w.put_bit(true); // mode 1: span bitmap
            w.put_gamma(self.first + 1);
            w.put_gamma(self.span());
            // Each tag is its gap's worth of zeros closed by a one.
            let mut prev: Option<RegisterId> = None;
            for (reg, _) in groups.clone() {
                let mut zeros = prev.map_or(0, |p| Self::tag_code(Some(p), reg) - 1);
                while zeros >= 64 {
                    w.put_bits(0, 64);
                    zeros -= 64;
                }
                w.put_bits(1, zeros as u32 + 1);
                prev = Some(reg);
            }
            for (_, count) in groups {
                w.put_gamma(count);
            }
        }
    }
}

/// Streaming parse of one routing header: yields each group's
/// `(register, count)` straight off the wire, with every domain and bound
/// check the format needs, and stores nothing. Both the owned
/// [`FrameHeader::decode_from`] and the allocation-free
/// [`Frame::decode`] paths are this walk.
#[derive(Clone)]
struct HeaderWalk<'a> {
    /// Groups not yet yielded.
    left: u64,
    /// Reads the γ(count) codes — and in gamma mode the tag codes in front
    /// of them. Once `left == 0` it rests on the header's last bit.
    r: BitReader<'a>,
    tags: TagCursor<'a>,
}

/// Where a [`HeaderWalk`] finds the next group's register tag.
#[derive(Clone)]
enum TagCursor<'a> {
    /// Mode 0: a γ-coded gap ahead of each count; `prev` is the last tag.
    Gamma { prev: Option<u64> },
    /// Mode 1: the set bits of the (already validated) span bitmap, read
    /// by a cursor of their own; `next` is the tag of its next unread bit.
    Bitmap { bits: BitReader<'a>, next: u64 },
}

impl<'a> HeaderWalk<'a> {
    /// Reads the group count and the mode, and in bitmap mode validates
    /// the whole bitmap, so that a walk that starts has a well-formed tag
    /// sequence ahead of it.
    fn begin(mut r: BitReader<'a>) -> Result<Self, WireError> {
        let d = r.get_gamma()?.checked_sub(1).ok_or(WireError::Overflow)?;
        // Domain check before trusting d with anything: every group needs
        // at least two more bits (a tag code and a count code), so a count
        // the remaining input cannot possibly hold is malformed — not
        // merely truncated — input.
        if d > r.remaining_bits() / 2 {
            return Err(WireError::Overflow);
        }
        if d == 0 || !r.get_bit()? {
            let tags = TagCursor::Gamma { prev: None };
            return Ok(HeaderWalk { left: d, r, tags });
        }
        let first = r.get_gamma()?.checked_sub(1).ok_or(WireError::Overflow)?;
        let span = r.get_gamma()?;
        if span < d || span > r.remaining_bits() {
            return Err(WireError::Overflow);
        }
        let last = first.checked_add(span - 1).ok_or(WireError::Overflow)?;
        if last > u64::from(u32::MAX) {
            return Err(WireError::Overflow);
        }
        let bits = r.clone();
        // Canonical bitmap: both ends set (the span is tight) and exactly
        // d bits set. Checked in the order a bit-by-bit scan that stops at
        // the (d+1)-th set bit would trip over them.
        let (mut ones, mut left, mut chunk) = (0u64, span, 0u64);
        while left > 0 {
            let width = left.min(64) as u32;
            chunk = r.get_bits(width)?;
            if left == span && chunk >> (width - 1) == 0 {
                return Err(WireError::Malformed("bitmap span not tight"));
            }
            ones += u64::from(chunk.count_ones());
            left -= u64::from(width);
        }
        if ones > d {
            return Err(WireError::Malformed("bitmap popcount != group count"));
        }
        if chunk & 1 == 0 {
            return Err(WireError::Malformed("bitmap span not tight"));
        }
        if ones != d {
            return Err(WireError::Malformed("bitmap popcount != group count"));
        }
        let tags = TagCursor::Bitmap { bits, next: first };
        Ok(HeaderWalk { left: d, r, tags })
    }

    /// The next group, or `None` once all declared groups were yielded.
    fn next_group(&mut self) -> Result<Option<(RegisterId, u64)>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let tag = match &mut self.tags {
            TagCursor::Gamma { prev } => {
                // γ codes are ≥ 1: a zero gap (a repeated register) or a
                // zero count below is unrepresentable, not just rejected.
                let code = self.r.get_gamma()?;
                let tag = match *prev {
                    None => code.checked_sub(1).ok_or(WireError::Overflow)?,
                    Some(p) => p.checked_add(code).ok_or(WireError::Overflow)?,
                };
                if tag > u64::from(u32::MAX) {
                    return Err(WireError::Overflow);
                }
                *prev = Some(tag);
                tag
            }
            TagCursor::Bitmap { bits, next } => {
                let tag = *next + bits.skip_zeros()?;
                bits.get_bit()?;
                *next = tag + 1;
                tag
            }
        };
        let count = self.r.get_gamma()?;
        Ok(Some((RegisterId::new(tag as usize), count)))
    }

    /// The reader, resting just past the header. Call once
    /// [`HeaderWalk::next_group`] has returned `None`.
    fn finish(self) -> BitReader<'a> {
        debug_assert_eq!(self.left, 0, "header walk abandoned early");
        self.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MessageCost;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Tag(u64);

    impl WireMessage for Tag {
        fn kind(&self) -> &'static str {
            "TAG"
        }
        fn cost(&self) -> MessageCost {
            MessageCost::new(2, 64)
        }
        fn encoded_bits(&self) -> u64 {
            2 + 64
        }
        fn encode_into(&self, w: &mut BitWriter) -> Result<(), WireError> {
            w.put_bits(0b01, 2);
            w.put_bits(self.0, 64);
            Ok(())
        }
        fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
            if r.get_bits(2)? != 0b01 {
                return Err(WireError::Malformed("bad Tag tag"));
            }
            Ok(Tag(r.get_bits(64)?))
        }
    }

    fn env(reg: usize, v: u64) -> Envelope<Tag> {
        Envelope::new(RegisterId::new(reg), Tag(v))
    }

    #[test]
    fn grouping_sorts_tags_and_preserves_order_within_register() {
        let frame = Frame::from_envelopes([env(5, 0), env(1, 1), env(5, 2), env(1, 3), env(3, 4)]);
        assert_eq!(frame.len(), 5);
        assert_eq!(frame.group_count(), 3);
        let wire: Vec<(usize, u64)> = frame.iter().map(|(r, m)| (r.index(), m.0)).collect();
        assert_eq!(wire, vec![(1, 1), (1, 3), (3, 4), (5, 0), (5, 2)]);
        // Round trip back to envelopes in the same wire order.
        let back: Vec<(usize, u64)> = frame
            .into_envelopes()
            .map(|e| (e.reg.index(), e.inner.0))
            .collect();
        assert_eq!(back, vec![(1, 1), (1, 3), (3, 4), (5, 0), (5, 2)]);
    }

    #[test]
    fn header_roundtrips_and_bits_is_exact() {
        let frame = Frame::from_envelopes([env(0, 0), env(0, 1), env(7, 2), env(63, 3)]);
        let header = frame.header();
        assert_eq!(
            header.groups,
            vec![
                (RegisterId::new(0), 2),
                (RegisterId::new(7), 1),
                (RegisterId::new(63), 1),
            ]
        );
        let bytes = header.encode();
        assert_eq!(FrameHeader::decode(&bytes).unwrap(), header);
        // Every encoded bit is accounted for: the byte length is the bit
        // length rounded up.
        assert_eq!(bytes.len() as u64, header.bits().div_ceil(8));
        assert_eq!(header.messages(), 4);
    }

    #[test]
    fn empty_frame() {
        let frame: Frame<Tag> = Frame::from_envelopes([]);
        assert!(frame.is_empty());
        assert_eq!(frame.len(), 0);
        let header = frame.header();
        assert_eq!(header.bits(), 1); // γ(0+1) alone, no mode bit
        assert_eq!(FrameHeader::decode(&header.encode()).unwrap(), header);
        assert_eq!(frame.cost(6).total_bits(), 1);
    }

    #[test]
    fn cost_splits_header_from_untouched_control() {
        let frame = Frame::from_envelopes((0..10).map(|k| env(k, k as u64)));
        let cost = frame.cost(RegisterId::routing_bits(64));
        assert_eq!(cost.messages, 10);
        assert_eq!(
            cost.control_bits, 20,
            "2 control bits per message, untouched"
        );
        assert_eq!(cost.data_bits, 640);
        assert_eq!(cost.unframed_routing_bits, 60);
        assert_eq!(cost.header_bits, frame.header().bits());
        assert_eq!(cost.header_gamma_bits, frame.header().bits_gamma());
        assert!(cost.header_bits <= cost.header_gamma_bits);
        assert_eq!(
            cost.total_bits(),
            cost.header_bits + cost.control_bits + cost.data_bits
        );
        // Ten adjacent tags delta-encode to well under ten 6-bit tags.
        assert!(cost.header_bits < cost.unframed_routing_bits);
        assert_eq!(
            cost.routing_bits_saved(),
            cost.unframed_routing_bits - cost.header_bits
        );
    }

    #[test]
    fn sixty_four_adjacent_shards_amortize_below_half() {
        // The acceptance shape: one message per register, 64 registers.
        let frame = Frame::from_envelopes((0..64).map(|k| env(k, 0)));
        let cost = frame.cost(RegisterId::routing_bits(64));
        assert_eq!(cost.unframed_routing_bits, 64 * 6);
        assert!(
            2 * cost.header_bits <= cost.unframed_routing_bits,
            "header {} vs unframed {}",
            cost.header_bits,
            cost.unframed_routing_bits
        );
    }

    #[test]
    fn chooser_picks_bitmap_for_regularly_gapped_tags() {
        // Every fourth register: gamma pays γ(4) = 5 bits per gap, the
        // bitmap pays 4 — the v2 mode exists exactly for this shape.
        let sparse = Frame::from_envelopes((0..32).map(|k| env(4 * k, 0))).header();
        assert!(
            sparse.bits() < sparse.bits_gamma(),
            "bitmap mode must win on gapped-regular tags: {} vs {}",
            sparse.bits(),
            sparse.bits_gamma()
        );
        assert_eq!(FrameHeader::decode(&sparse.encode()).unwrap(), sparse);

        // Dense adjacent tags: gamma gaps are 1 bit each, bitmap cannot
        // beat that; the chooser must fall back to gamma (= forced gamma).
        let dense = Frame::from_envelopes((0..32).map(|k| env(k, 0))).header();
        assert_eq!(dense.bits(), dense.bits_gamma());
        assert_eq!(FrameHeader::decode(&dense.encode()).unwrap(), dense);
    }

    #[test]
    fn chooser_never_exceeds_forced_gamma() {
        // A grab bag of shapes: dense, gapped, huge gaps, repeated counts.
        let shapes: Vec<Vec<usize>> = vec![
            (0..64).collect(),
            (0..64).map(|k| 4 * k).collect(),
            vec![0, 1_000_000],
            vec![7],
            (0..10).map(|k| k * k).collect(),
        ];
        for tags in shapes {
            let header = Frame::from_envelopes(tags.iter().map(|&t| env(t, 0))).header();
            assert!(
                header.bits() <= header.bits_gamma(),
                "chooser lost to forced gamma on {tags:?}"
            );
            let bytes = header.encode();
            assert_eq!(FrameHeader::decode(&bytes).unwrap(), header, "{tags:?}");
            assert_eq!(bytes.len() as u64, header.bits().div_ceil(8), "{tags:?}");
        }
    }

    #[test]
    fn frame_blob_roundtrips_and_reconciles_with_cost() {
        let frame = Frame::from_envelopes([env(0, 7), env(3, 9), env(0, 8), env(9, 1)]);
        let blob = frame.encode().unwrap();
        assert_eq!(Frame::<Tag>::decode(&blob).unwrap(), frame);
        // The blob is the 4-byte prefix plus the body, whose bit length is
        // exactly header + Σ message bits.
        let body_bits = frame.encoded_bits();
        assert_eq!(blob.len() as u64, 4 + body_bits.div_ceil(8));
        // And the accounting reconciles: body bits = FrameCost's header +
        // control + data, since Tag's codec is exactly its cost.
        let cost = frame.cost(RegisterId::routing_bits(16));
        assert_eq!(body_bits, cost.total_bits());
        let declared = u32::from_be_bytes(blob[..4].try_into().unwrap());
        assert_eq!(declared as usize, blob.len() - 4);
    }

    #[test]
    fn empty_frame_encodes_to_one_body_byte() {
        let frame: Frame<Tag> = Frame::default();
        let blob = frame.encode().unwrap();
        assert_eq!(blob.len(), 5); // 4-byte prefix + γ(1) padded to a byte
        assert_eq!(Frame::<Tag>::decode(&blob).unwrap(), frame);
    }

    #[test]
    fn decode_rejects_garbage() {
        // No room for even the length prefix.
        assert_eq!(Frame::<Tag>::decode(&[]), Err(WireError::Truncated));
        // Prefix promising more body than the buffer holds.
        assert_eq!(
            Frame::<Tag>::decode(&[0, 0, 0, 9, 0xFF]),
            Err(WireError::LengthMismatch)
        );
        // A stream that is all zeros never terminates a gamma code.
        assert_eq!(FrameHeader::decode(&[0x00]), Err(WireError::Truncated));
        // Empty input can't even hold γ(1).
        assert_eq!(FrameHeader::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn decode_rejects_message_count_beyond_input_before_allocating() {
        // A syntactically valid header claiming 2⁴⁰ messages in one group:
        // the frame decoder must bound the count against the remaining
        // body *before* sizing any allocation from it.
        let mut w = BitWriter::new();
        FrameHeader {
            groups: vec![(RegisterId::new(0), 1 << 40)],
        }
        .encode_into(&mut w);
        let body = w.into_bytes();
        let mut blob = (body.len() as u32).to_be_bytes().to_vec();
        blob.extend_from_slice(&body);
        assert_eq!(Frame::<Tag>::decode(&blob), Err(WireError::Overflow));
    }

    #[test]
    fn decode_rejects_wrapping_message_count_sum() {
        // Two groups declaring 2⁶³ messages each: the naive sum wraps to 0
        // and would sail past a wrapping total bound, then panic sizing an
        // allocation. Both the per-group bound and the checked sum must
        // reject this as a typed error.
        let mut w = BitWriter::new();
        w.put_gamma(3); // d = 2
        w.put_bit(false); // delta/gamma mode
        w.put_gamma(1); // tag 0
        w.put_gamma(1u64 << 63); // count: 2⁶³
        w.put_gamma(1); // gap to tag 1
        w.put_gamma(1u64 << 63); // count: 2⁶³ (sum wraps to 0)
        let body = w.into_bytes();
        let mut blob = (body.len() as u32).to_be_bytes().to_vec();
        blob.extend_from_slice(&body);
        assert_eq!(Frame::<Tag>::decode(&blob), Err(WireError::Overflow));
        // The bare header itself is syntactically fine (counts are only
        // bounded against a message section, which a standalone header
        // does not have) — the frame decoder is where the bound lives.
        assert!(FrameHeader::decode(&body).is_ok());
    }

    #[test]
    fn decode_caps_pre_reserved_capacity() {
        // A bit-plausible group count (d ≈ remaining/2) must not
        // pre-reserve gigabytes: the reserve cap bounds the initial
        // allocation while truncated input still fails with a typed error.
        let mut w = BitWriter::new();
        w.put_gamma(100_000 + 1); // d = 100k groups, nothing behind them
        let mut body = w.into_bytes();
        body.resize(body.len() + 100_000, 0); // enough "remaining" bits
        assert!(matches!(
            FrameHeader::decode(&body),
            Err(WireError::Truncated | WireError::Overflow)
        ));
    }

    #[test]
    fn decode_rejects_oversized_length_prefix_without_allocating() {
        // A hostile prefix declaring a multi-gigabyte body is rejected on
        // the prefix alone.
        let blob = [0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(Frame::<Tag>::decode(&blob), Err(WireError::Overflow));
    }

    #[test]
    fn decode_rejects_nonzero_padding() {
        // Two messages: 8 header bits + 132 message bits = 140, leaving 4
        // genuine padding bits in the final body byte.
        let frame = Frame::from_envelopes([env(0, 5), env(0, 6)]);
        let blob = frame.encode().unwrap();
        assert_eq!(frame.encoded_bits() % 8, 4, "test needs unaligned body");
        let mut tampered = blob.to_vec();
        // The message ends mid-byte; flip the last (padding) bit.
        *tampered.last_mut().unwrap() |= 1;
        assert_eq!(
            Frame::<Tag>::decode(&tampered),
            Err(WireError::Malformed("non-zero padding bit"))
        );
    }

    #[test]
    fn decode_rejects_absurd_group_count_without_allocating() {
        // A crafted header whose group count claims 2⁶² groups must come
        // back as a typed error, not a capacity-overflow panic: the count
        // is bounded by what the remaining input could possibly hold.
        let mut w = BitWriter::new();
        w.put_gamma(1u64 << 62);
        let bytes = w.into_bytes();
        assert_eq!(FrameHeader::decode(&bytes), Err(WireError::Overflow));
    }

    #[test]
    fn decode_rejects_overfull_bitmap_before_accumulating_span_tags() {
        // Mode-1 header: d = 1 but an all-ones bitmap over a large span.
        // The decoder must bail at the second set bit, not collect a
        // span-sized tag vector first and fail on the final popcount.
        let span = 4_000u64;
        let mut w = BitWriter::new();
        w.put_gamma(2); // d = 1
        w.put_bit(true); // bitmap mode
        w.put_gamma(1); // first = 0
        w.put_gamma(span);
        for _ in 0..span {
            w.put_bit(true);
        }
        w.put_gamma(1); // count for the one declared group
        let bytes = w.into_bytes();
        assert_eq!(
            FrameHeader::decode(&bytes),
            Err(WireError::Malformed("bitmap popcount != group count"))
        );
    }

    #[test]
    fn decode_rejects_bitmap_span_beyond_input() {
        // Mode-1 header declaring a 2³⁰-bit bitmap in a few bytes.
        let mut w = BitWriter::new();
        w.put_gamma(2); // d = 1
        w.put_bit(true); // bitmap mode
        w.put_gamma(1); // first = 0
        w.put_gamma(1 << 30); // span
        let bytes = w.into_bytes();
        assert_eq!(FrameHeader::decode(&bytes), Err(WireError::Overflow));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn encode_rejects_unsorted_hand_built_header() {
        // `groups` is a public field, so a hand-built header can violate
        // the sorted invariant; encode must fail loudly, not underflow.
        let bad = FrameHeader {
            groups: vec![(RegisterId::new(5), 1), (RegisterId::new(1), 1)],
        };
        let _ = bad.encode();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bits_rejects_duplicate_registers() {
        // A duplicate register (gap 0) must not wrap into a gigantic gamma
        // length.
        let bad = FrameHeader {
            groups: vec![(RegisterId::new(3), 1), (RegisterId::new(3), 2)],
        };
        let _ = bad.bits();
    }

    #[test]
    fn singleton_frame_header_is_small() {
        let frame = Frame::from_envelopes([env(0, 1)]);
        // γ(2) + mode + γ(1) + γ(1) = 3 + 1 + 1 + 1.
        assert_eq!(frame.header().bits(), 6);
    }

    #[test]
    fn pooled_encode_is_byte_identical_and_recycles_its_buffer() {
        let pool = BufferPool::new();
        let frame = Frame::from_envelopes([env(0, 7), env(3, 9), env(0, 8)]);
        let fresh = frame.encode().unwrap();
        let pooled = frame.encode_pooled(&pool).unwrap();
        assert_eq!(pooled, fresh, "pooled blob must be byte-identical");
        assert_eq!(Frame::<Tag>::decode(&pooled).unwrap(), frame);
        // The buffer is still owned by the blob...
        assert_eq!(pool.available(), 0);
        drop(pooled);
        // ...and rejoins the pool when the last view drops, so the next
        // frame encodes into it.
        assert_eq!(pool.available(), 1);
        let again = frame.encode_pooled(&pool).unwrap();
        assert_eq!(again, fresh);
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn append_encode_and_decode_into_reuse_their_buffers() {
        let frame = Frame::from_envelopes([env(0, 7), env(3, 9), env(0, 8)]);
        let fresh = frame.encode().unwrap();
        let mut log = b"earlier".to_vec();
        let len = frame.encode_append(&mut log).unwrap();
        assert_eq!(len, fresh.len());
        assert_eq!(&log[..7], b"earlier", "what the buffer held stays");
        assert_eq!(log[7..], fresh[..], "the appended blob is encode's");

        let storage = Vec::with_capacity(8);
        let ptr = storage.as_ptr();
        let decoded = Frame::<Tag>::decode_into(&log[7..], storage).unwrap();
        assert_eq!(decoded, frame);
        let storage = decoded.into_vec();
        assert_eq!(storage.as_ptr(), ptr, "decoded into the storage handed in");
        // Recycled storage that still holds envelopes is cleared first.
        let again = Frame::<Tag>::decode_into(&fresh, storage).unwrap();
        assert_eq!(again, frame);
    }

    #[test]
    fn a_failed_append_leaves_the_buffer_as_it_was() {
        // `Ping` has no byte codec: the encode fails after the header.
        #[derive(Clone, Debug, PartialEq)]
        struct Ping;
        impl WireMessage for Ping {
            fn kind(&self) -> &'static str {
                "PING"
            }
            fn cost(&self) -> MessageCost {
                MessageCost::new(2, 0)
            }
        }
        let frame = Frame::from_envelopes([Envelope::new(RegisterId::new(1), Ping)]);
        let mut log = vec![1, 2, 3];
        assert_eq!(
            frame.encode_append(&mut log),
            Err(WireError::Unsupported("PING"))
        );
        assert_eq!(log, [1, 2, 3]);
    }

    /// A message with a byte-string payload whose wire layout lands the raw
    /// bytes on a byte boundary: 6 header bits (singleton frame) + 2 tag
    /// bits + 7 filler bits + γ(17) = 9 length bits = 24. Exists to pin the
    /// zero-copy decode path deterministically; the property tests cover
    /// arbitrary (mostly unaligned) layouts.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Blob(Bytes);

    impl WireMessage for Blob {
        fn kind(&self) -> &'static str {
            "BLOB"
        }
        fn cost(&self) -> MessageCost {
            MessageCost::new(2, 8 * self.0.len() as u64)
        }
        fn encoded_bits(&self) -> u64 {
            2 + 7 + crate::Payload::encoded_bits(&self.0)
        }
        fn encode_into(&self, w: &mut BitWriter) -> Result<(), WireError> {
            w.put_bits(0b11, 2);
            w.put_bits(0, 7);
            crate::Payload::encode_into(&self.0, w)
        }
        fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
            if r.get_bits(2)? != 0b11 {
                return Err(WireError::Malformed("bad Blob tag"));
            }
            r.get_bits(7)?;
            Ok(Blob(<Bytes as crate::Payload>::decode(r)?))
        }
    }

    #[test]
    fn shared_decode_hands_out_zero_copy_payload_views() {
        let payload = Bytes::copy_from_slice(&[0xC0u8; 16]);
        let frame = Frame::from_envelopes([Envelope::new(RegisterId::new(0), Blob(payload))]);
        // Raw payload bytes start exactly 24 bits into the body.
        assert_eq!(frame.encoded_bits(), 24 + 8 * 16);
        let blob = frame.encode().unwrap();

        let decoded = Frame::<Blob>::decode_shared(&blob).unwrap();
        assert_eq!(decoded, frame);
        let (_, msg) = decoded.iter().next().unwrap();
        let base = blob.as_ptr() as usize;
        let p = msg.0.as_ptr() as usize;
        assert_eq!(
            p,
            base + 4 + 3,
            "payload must be a view of the blob: prefix (4) + aligned body offset (3)"
        );
        // The slice keeps the blob's allocation alive on its own.
        let view = decoded.iter().next().unwrap().1 .0.clone();
        drop(decoded);
        drop(blob);
        assert_eq!(&view[..], &[0xC0u8; 16]);

        // The plain-slice decoder parses the same blob but must copy.
        let blob2 = frame.encode().unwrap();
        let copied = Frame::<Blob>::decode(&blob2).unwrap();
        assert_eq!(copied, frame);
        let q = copied.iter().next().unwrap().1 .0.as_ptr() as usize;
        let base2 = blob2.as_ptr() as usize;
        assert!(
            q < base2 || q >= base2 + blob2.len(),
            "unshared decode cannot view the blob"
        );
    }
}
