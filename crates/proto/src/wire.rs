//! Wire-level cost accounting for protocol messages.
//!
//! The central quantitative claim of the paper is about *control information*:
//! the proposed algorithm's four message types (`WRITE0`, `WRITE1`, `READ`,
//! `PROCEED`) carry **no control information beyond their type**, so two bits
//! suffice; previous bounded algorithms need `O(n⁵)` (bounded ABD) or `O(n³)`
//! (Attiya) control bits, and unbounded ABD carries ever-growing sequence
//! numbers. Every algorithm message type in this workspace implements
//! [`WireMessage`] so the experiment harness can measure exactly those
//! quantities (Table 1 row 3; experiments E1.3 and E8).

use serde::{Deserialize, Serialize};

use crate::bits::{BitReader, BitWriter, WireError};
use crate::id::RegisterId;

/// Cost of one message on the wire, split into control, data and routing
/// bits.
///
/// *Control* bits are what the paper's Table 1 measures: protocol information
/// beyond the data value (type tags, sequence numbers, timestamps). *Routing*
/// bits address a register when many registers share one cluster — they
/// address a register, not a point in any register's protocol, so they are
/// accounted separately to keep the two-bit claim crisp. Under the framed
/// transport the per-message field stays 0 and routing is accounted once per
/// [`Frame`](crate::Frame) header; per-message tags are still recorded
/// separately as the *unframed-equivalent* comparison figure (see
/// [`NetStats`](crate::NetStats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessageCost {
    /// Bits of control information: the message type tag plus any sequence
    /// numbers, timestamps, identifiers or padding the protocol requires.
    pub control_bits: u64,
    /// Bits of the data value carried, if any.
    pub data_bits: u64,
    /// Bits of the shard tag addressing the target register (0 on
    /// single-register deployments).
    pub routing_bits: u64,
}

impl MessageCost {
    /// Creates a cost record with no routing overhead.
    pub fn new(control_bits: u64, data_bits: u64) -> Self {
        MessageCost {
            control_bits,
            data_bits,
            routing_bits: 0,
        }
    }

    /// Returns this cost with `routing_bits` of shard-tag overhead.
    pub fn with_routing(self, routing_bits: u64) -> Self {
        MessageCost {
            routing_bits,
            ..self
        }
    }

    /// Total bits on the wire for this message.
    pub fn total_bits(&self) -> u64 {
        self.control_bits + self.data_bits + self.routing_bits
    }
}

/// A protocol message whose wire cost can be measured — and, for
/// codec-capable types, serialized bit-exactly.
///
/// `kind` gives a small set of human-readable type names used for message
/// counting (Table 1 rows 1–2); `cost` reports the control/data split
/// (Table 1 row 3). Implementations must be cheap: the simulator calls them
/// for every message sent.
///
/// # The byte-level codec
///
/// The three codec methods turn the cost *model* into bytes on a wire:
/// [`encode_into`](WireMessage::encode_into) appends the message to a
/// [`BitWriter`] as a self-delimiting bit string,
/// [`decode`](WireMessage::decode) parses it back, and
/// [`encoded_bits`](WireMessage::encoded_bits) reports the exact bit count
/// `encode_into` produces. They have defaults so cost-model-only message
/// types (test probes, emulation internals) keep compiling, but the
/// defaults **fail at runtime** with [`WireError::Unsupported`] — only
/// types overriding all three can cross a byte transport (the reactor)
/// or run under the substrates' encode–decode fidelity mode.
///
/// Contract for implementors:
///
/// * `decode(encode_into(m)) == m` for every value (round trip);
/// * `encoded_bits(m)` equals the exact number of bits `encode_into(m)`
///   writes;
/// * for the paper's automaton the encoding *is* the cost:
///   `encoded_bits == cost().control_bits + cost().data_bits`, with the
///   type tag spending exactly two bits. Baseline algorithms whose modeled
///   control fields have no fixed width (unbounded sequence numbers)
///   serialize them as self-delimiting gamma codes, so their wire size can
///   exceed the modeled bit count — that gap is measurement, not error.
pub trait WireMessage: Clone + std::fmt::Debug + Send + 'static {
    /// Human-readable message type name (e.g. `"WRITE0"`, `"READ"`).
    fn kind(&self) -> &'static str;

    /// Control/data bit cost of this message instance.
    fn cost(&self) -> MessageCost;

    /// Exact size, in bits, of this message's [`WireMessage::encode_into`]
    /// output. The default mirrors the modeled cost (control + data bits),
    /// which is correct only for codecs whose encoding is bit-for-bit the
    /// model — override it together with `encode_into`.
    fn encoded_bits(&self) -> u64 {
        let c = self.cost();
        c.control_bits + c.data_bits
    }

    /// Appends this message to `w` as a self-delimiting bit string.
    ///
    /// # Errors
    ///
    /// The default returns [`WireError::Unsupported`]: the type carries
    /// only modeled costs and cannot cross a byte transport.
    fn encode_into(&self, _w: &mut BitWriter) -> Result<(), WireError> {
        Err(WireError::Unsupported(self.kind()))
    }

    /// Parses one message from the front of `r` (the inverse of
    /// [`WireMessage::encode_into`]).
    ///
    /// # Errors
    ///
    /// The default returns [`WireError::Unsupported`]; implementations
    /// surface [`WireError::Truncated`] / [`WireError::Overflow`] /
    /// [`WireError::Malformed`] on corrupt input.
    fn decode(_r: &mut BitReader<'_>) -> Result<Self, WireError>
    where
        Self: Sized,
    {
        Err(WireError::Unsupported("message decode"))
    }
}

/// A protocol message tagged with the register (shard) it belongs to.
///
/// When a [`RegisterSpace`](crate::RegisterSpace) multiplexes many registers
/// over one cluster, every wire message is wrapped in an `Envelope` carrying
/// a compact [`RegisterId`]. The shard tag's wire cost is **not** part of
/// the envelope: the tag width is a per-deployment constant
/// (`⌈log₂ k⌉` for a `k`-register space — see [`RegisterId::routing_bits`])
/// derived where traffic is accounted, and on the wire envelopes travel
/// inside a [`Frame`](crate::Frame) whose shared header encodes each tag
/// once per frame instead of once per message. The inner message's
/// *control* cost is untouched either way, so a two-bit-per-register
/// protocol stays two-bit per register.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope<M> {
    /// The register this message belongs to.
    pub reg: RegisterId,
    /// The register-protocol message.
    pub inner: M,
}

impl<M> Envelope<M> {
    /// Wraps `inner` for register `reg`.
    pub fn new(reg: RegisterId, inner: M) -> Self {
        Envelope { reg, inner }
    }
}

impl<M: WireMessage> WireMessage for Envelope<M> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    /// The inner message's cost; routing is accounted at the frame layer.
    fn cost(&self) -> MessageCost {
        self.inner.cost()
    }

    fn encoded_bits(&self) -> u64 {
        self.inner.encoded_bits()
    }

    /// Encodes the inner message only: the register tag never travels with
    /// the message — it lives once in the frame's shared routing header.
    /// Consequently a bare envelope cannot be *decoded* (the tag is gone);
    /// frames decode messages and re-wrap them per group instead.
    fn encode_into(&self, w: &mut BitWriter) -> Result<(), WireError> {
        self.inner.encode_into(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Dummy;

    impl WireMessage for Dummy {
        fn kind(&self) -> &'static str {
            "DUMMY"
        }
        fn cost(&self) -> MessageCost {
            MessageCost::new(2, 64)
        }
    }

    #[test]
    fn cost_totals() {
        let c = MessageCost::new(2, 64);
        assert_eq!(c.total_bits(), 66);
        assert_eq!(MessageCost::default().total_bits(), 0);
    }

    #[test]
    fn wire_message_object() {
        let d = Dummy;
        assert_eq!(d.kind(), "DUMMY");
        assert_eq!(d.cost().control_bits, 2);
    }

    #[test]
    fn routing_bits_extend_total_only() {
        let c = MessageCost::new(2, 64).with_routing(6);
        assert_eq!(c.control_bits, 2);
        assert_eq!(c.data_bits, 64);
        assert_eq!(c.routing_bits, 6);
        assert_eq!(c.total_bits(), 72);
    }

    #[test]
    fn envelope_preserves_kind_and_control_cost() {
        let e = Envelope::new(RegisterId::new(5), Dummy);
        assert_eq!(e.kind(), "DUMMY");
        let cost = e.cost();
        assert_eq!(cost.control_bits, 2, "per-register control stays two bits");
        assert_eq!(cost.routing_bits, 0, "routing lives in the frame header");
        assert_eq!(cost.total_bits(), 2 + 64);
    }
}
