//! Wire helpers for sequenced, reconnectable ordered links that share a
//! route connection.
//!
//! The reactor transport (`twobit-reactor`) carries every ordered link
//! `s → d` whose sender lives on event loop L and whose receiver lives on
//! event loop M over one TCP connection, the *route* L → M. It extends the
//! frame byte stream with four small structures so that each link survives
//! a transient socket failure without losing or duplicating frames:
//!
//! * [`RouteHello`] — the connector's handshake, sent once right after
//!   `connect(2)`: the processes its loop hosts (`srcs`), the destinations
//!   at that address that still need a carrier (`dsts`), and a reserved
//!   word.
//! * [`RouteWelcome`] — the reply of the loop that owns `dsts[0]`: one
//!   [`LinkSeq`] `(src, dst, last_delivered)` for every named src and every
//!   named dst that loop owns. Those are the links the connection carries;
//!   the connector prunes each one's resend buffer up to its cursor and
//!   replays exactly the un-acked tail.
//! * the *record* — `[src:4][dst:4][seq:8][len:4][body:len]`, where
//!   `[len:4][body]` is the standard [`Frame::encode`](crate::Frame::encode)
//!   blob and the 16-byte prefix is a [`LinkSeq`].
//! * the *ack* — a bare [`LinkSeq`] `[src:4][dst:4][seq:8]`, cumulative per
//!   link, on the reverse direction of the same socket.
//!
//! Sequence numbers start at 1 per ordered link and never reset across
//! reconnects; 0 in a welcome means "nothing consumed yet". Everything here
//! is fixed-width big-endian — no bit-level codec — because these bytes are
//! transport overhead, not protocol messages, and are deliberately excluded
//! from the two-bit accounting. Every count a hello or welcome declares is
//! checked against the input that is actually there before anything is
//! reserved for it.

use crate::bits::WireError;
use crate::frame::MAX_FRAME_BODY_BYTES;
use crate::id::ProcessId;

/// Magic prefix of a [`RouteHello`].
pub const HELLO_MAGIC: [u8; 4] = *b"TBRH";
/// Encoded size of a [`RouteHello`] before its two process lists
/// (`magic ∥ reserved:u32 ∥ nsrcs:u32 ∥ ndsts:u32`).
const HELLO_HEADER_LEN: usize = 16;
/// Magic prefix of a [`RouteWelcome`].
pub const WELCOME_MAGIC: [u8; 4] = *b"TBRW";
/// Encoded size of a [`RouteWelcome`] before its links
/// (`magic ∥ nlinks:u32`).
pub const WELCOME_HEADER_LEN: usize = 8;
/// Encoded size of one [`LinkSeq`]: a record's prefix, an ack, and a
/// welcome entry alike.
pub const LINK_SEQ_LEN: usize = 16;
/// Most processes one hello list, or links one welcome, may name. A
/// larger count is refused outright, so a hostile handshake cannot make the
/// acceptor buffer without bound while it waits for the rest.
pub const MAX_ROUTE_ENTRIES: usize = 1 << 16;

/// A sequence number on one ordered link `src → dst`: the prefix of a
/// record, a cumulative ack, and one entry of a [`RouteWelcome`] (where
/// `seq` is the receiver's `last_delivered`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSeq {
    /// The sending process.
    pub src: ProcessId,
    /// The receiving process.
    pub dst: ProcessId,
    /// The sequence number.
    pub seq: u64,
}

impl LinkSeq {
    /// Appends the fixed [`LINK_SEQ_LEN`]-byte form
    /// (`src:u32 ∥ dst:u32 ∥ seq:u64`) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.src.index() as u32).to_be_bytes());
        out.extend_from_slice(&(self.dst.index() as u32).to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
    }

    /// Decodes the first [`LINK_SEQ_LEN`] bytes of `buf` — the ack parser.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `buf` is short.
    pub fn decode(buf: &[u8]) -> Result<LinkSeq, WireError> {
        let Some(b) = buf.get(..LINK_SEQ_LEN) else {
            return Err(WireError::Truncated);
        };
        Ok(LinkSeq {
            src: ProcessId::new(be_u32(&b[..4]) as usize),
            dst: ProcessId::new(be_u32(&b[4..8]) as usize),
            seq: u64::from_be_bytes(b[8..16].try_into().expect("8 bytes")),
        })
    }
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes(b[..4].try_into().expect("4 bytes"))
}

/// Reads a declared count at `buf[at..at + 4]`, refusing one past
/// [`MAX_ROUTE_ENTRIES`].
fn count_at(buf: &[u8], at: usize) -> Result<usize, WireError> {
    let count = be_u32(&buf[at..]) as usize;
    if count > MAX_ROUTE_ENTRIES {
        return Err(WireError::Overflow);
    }
    Ok(count)
}

/// The connector's handshake: which links the new route connection should
/// carry. Both lists are strictly ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteHello {
    /// Every process the connecting loop hosts.
    pub srcs: Vec<ProcessId>,
    /// The destinations at the dialed address still lacking a carrier; the
    /// accepting node hands the connection to the loop that owns `dsts[0]`.
    pub dsts: Vec<ProcessId>,
}

impl RouteHello {
    /// Encodes to `magic ∥ reserved:u32 ∥ nsrcs:u32 ∥ ndsts:u32 ∥ srcs ∥
    /// dsts`, each process a `u32`. The reserved word is zero.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(strictly_ascending(&self.srcs) && strictly_ascending(&self.dsts));
        let mut out =
            Vec::with_capacity(HELLO_HEADER_LEN + 4 * (self.srcs.len() + self.dsts.len()));
        out.extend_from_slice(&HELLO_MAGIC);
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&(self.srcs.len() as u32).to_be_bytes());
        out.extend_from_slice(&(self.dsts.len() as u32).to_be_bytes());
        for p in self.srcs.iter().chain(&self.dsts) {
            out.extend_from_slice(&(p.index() as u32).to_be_bytes());
        }
        out
    }

    /// Decodes a hello from the front of `buf`; returns it with the number
    /// of bytes it took.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] while the header or the declared lists are
    /// not all there (nothing is reserved until they are),
    /// [`WireError::Overflow`] for a list longer than
    /// [`MAX_ROUTE_ENTRIES`], [`WireError::Malformed`] on a bad magic, a
    /// non-zero reserved word, or a list that is not strictly ascending.
    pub fn decode(buf: &[u8]) -> Result<(RouteHello, usize), WireError> {
        if buf.len() < HELLO_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[..4] != HELLO_MAGIC {
            return Err(WireError::Malformed("route hello magic"));
        }
        if buf[4..8] != [0u8; 4] {
            return Err(WireError::Malformed("route hello reserved word"));
        }
        let (nsrcs, ndsts) = (count_at(buf, 8)?, count_at(buf, 12)?);
        let total = HELLO_HEADER_LEN + 4 * (nsrcs + ndsts);
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        let list = |from: usize, count: usize| -> Result<Vec<ProcessId>, WireError> {
            let ids: Vec<ProcessId> = buf[from..from + 4 * count]
                .chunks_exact(4)
                .map(|b| ProcessId::new(be_u32(b) as usize))
                .collect();
            if !strictly_ascending(&ids) {
                return Err(WireError::Malformed(
                    "route hello list not strictly ascending",
                ));
            }
            Ok(ids)
        };
        let srcs = list(HELLO_HEADER_LEN, nsrcs)?;
        let dsts = list(HELLO_HEADER_LEN + 4 * nsrcs, ndsts)?;
        Ok((RouteHello { srcs, dsts }, total))
    }
}

fn strictly_ascending(ids: &[ProcessId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The accepting loop's handshake reply: the links the connection now
/// carries, each with the receiver's resume point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteWelcome {
    /// One entry per attached link; `seq` is the highest frame sequence
    /// number the receiver has consumed on it (0 = none). The connector
    /// prunes that link's resend buffer up to and including it and replays
    /// the rest.
    pub links: Vec<LinkSeq>,
}

impl RouteWelcome {
    /// Encodes to `magic ∥ nlinks:u32 ∥ links`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WELCOME_HEADER_LEN + LINK_SEQ_LEN * self.links.len());
        out.extend_from_slice(&WELCOME_MAGIC);
        out.extend_from_slice(&(self.links.len() as u32).to_be_bytes());
        for link in &self.links {
            link.encode_into(&mut out);
        }
        out
    }

    /// Decodes a welcome from the front of `buf`; returns it with the
    /// number of bytes it took.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] while the header or the declared links are
    /// not all there (nothing is reserved until they are),
    /// [`WireError::Overflow`] for more than [`MAX_ROUTE_ENTRIES`] links,
    /// [`WireError::Malformed`] on a bad magic.
    pub fn decode(buf: &[u8]) -> Result<(RouteWelcome, usize), WireError> {
        if buf.len() < WELCOME_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[..4] != WELCOME_MAGIC {
            return Err(WireError::Malformed("route welcome magic"));
        }
        let count = count_at(buf, 4)?;
        let total = WELCOME_HEADER_LEN + LINK_SEQ_LEN * count;
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        let links = buf[WELCOME_HEADER_LEN..total]
            .chunks_exact(LINK_SEQ_LEN)
            .map(LinkSeq::decode)
            .collect::<Result<_, _>>()?;
        Ok((RouteWelcome { links }, total))
    }

    /// Whether this is a well-formed answer to `hello`: it attaches the
    /// first named destination (the one the connection was routed by), and
    /// only links from a named src to a named dst.
    pub fn answers(&self, hello: &RouteHello) -> bool {
        let named = |l: &LinkSeq| {
            l.src != l.dst
                && hello.srcs.binary_search(&l.src).is_ok()
                && hello.dsts.binary_search(&l.dst).is_ok()
        };
        hello
            .dsts
            .first()
            .is_some_and(|&first| self.links.iter().any(|l| l.dst == first))
            && self.links.iter().all(named)
    }
}

/// Appends one record (`[src][dst][seq] ∥ blob`) for `link` to `out`.
/// `blob` must be a length-prefixed frame blob from
/// [`Frame::encode`](crate::Frame::encode) /
/// [`Frame::encode_append`](crate::Frame::encode_append).
pub fn encode_record(link: LinkSeq, blob: &[u8], out: &mut Vec<u8>) {
    out.reserve(LINK_SEQ_LEN + blob.len());
    link.encode_into(out);
    out.extend_from_slice(blob);
}

/// Tries to split one record off the front of `buf` — the record splitter.
///
/// Returns `Ok(None)` when more bytes are needed, or
/// `Ok(Some((link, total)))` where `total` is the record's full length —
/// the frame blob is `&buf[LINK_SEQ_LEN..total]` (length prefix included,
/// ready for [`Frame::decode`](crate::Frame::decode)).
///
/// # Errors
///
/// [`WireError::Overflow`] when the blob's declared body length exceeds
/// [`MAX_FRAME_BODY_BYTES`] — the poisoned-stream guard, checked before
/// any buffer is sized from attacker-controlled input.
pub fn split_record(buf: &[u8]) -> Result<Option<(LinkSeq, usize)>, WireError> {
    if buf.len() < LINK_SEQ_LEN + 4 {
        return Ok(None);
    }
    let body_len = be_u32(&buf[LINK_SEQ_LEN..]);
    if body_len > MAX_FRAME_BODY_BYTES {
        return Err(WireError::Overflow);
    }
    let total = LINK_SEQ_LEN + 4 + body_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((LinkSeq::decode(buf)?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<ProcessId> {
        v.iter().copied().map(ProcessId::new).collect()
    }

    fn link(src: usize, dst: usize, seq: u64) -> LinkSeq {
        LinkSeq {
            src: ProcessId::new(src),
            dst: ProcessId::new(dst),
            seq,
        }
    }

    #[test]
    fn hello_roundtrips_and_rejects_garbage() {
        let h = RouteHello {
            srcs: ids(&[3, 7]),
            dsts: ids(&[0, 1, 61]),
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), HELLO_HEADER_LEN + 4 * 5);
        assert_eq!(
            RouteHello::decode(&bytes).unwrap(),
            (h.clone(), bytes.len())
        );
        // Whatever follows the hello is not its business.
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[9, 9]);
        assert_eq!(RouteHello::decode(&longer).unwrap().1, bytes.len());
        for cut in 0..bytes.len() {
            assert_eq!(
                RouteHello::decode(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            RouteHello::decode(&bad),
            Err(WireError::Malformed(_))
        ));
        let mut dirty = bytes.clone();
        dirty[7] = 1; // the reserved word must stay zero
        assert!(matches!(
            RouteHello::decode(&dirty),
            Err(WireError::Malformed(_))
        ));
        let mut unsorted = bytes.clone();
        unsorted[HELLO_HEADER_LEN + 3] = 9; // srcs = [9, 7]
        assert!(matches!(
            RouteHello::decode(&unsorted),
            Err(WireError::Malformed(_))
        ));
        // A count past the bound is refused before the input is awaited.
        let mut huge = bytes;
        huge[8..12].copy_from_slice(&(MAX_ROUTE_ENTRIES as u32 + 1).to_be_bytes());
        assert_eq!(RouteHello::decode(&huge), Err(WireError::Overflow));
    }

    #[test]
    fn welcome_roundtrips() {
        for links in [vec![], vec![link(3, 0, 0), link(7, 1, u64::MAX)]] {
            let w = RouteWelcome { links };
            let bytes = w.encode();
            assert_eq!(RouteWelcome::decode(&bytes).unwrap(), (w, bytes.len()));
            assert_eq!(
                RouteWelcome::decode(&bytes[..bytes.len() - 1]),
                Err(WireError::Truncated)
            );
        }
        assert_eq!(RouteWelcome::decode(&[0u8; 5]), Err(WireError::Truncated));
        let mut bad = RouteWelcome {
            links: vec![link(1, 2, 7)],
        }
        .encode();
        bad[1] = 0;
        assert!(matches!(
            RouteWelcome::decode(&bad),
            Err(WireError::Malformed(_))
        ));
        let mut huge = WELCOME_MAGIC.to_vec();
        huge.extend((MAX_ROUTE_ENTRIES as u32 + 1).to_be_bytes());
        assert_eq!(RouteWelcome::decode(&huge), Err(WireError::Overflow));
    }

    #[test]
    fn a_welcome_answers_only_what_its_hello_named() {
        let hello = RouteHello {
            srcs: ids(&[0, 4]),
            dsts: ids(&[1, 4, 5]),
        };
        let answers = |links: Vec<LinkSeq>| RouteWelcome { links }.answers(&hello);
        assert!(answers(vec![link(0, 1, 0), link(4, 1, 3), link(0, 5, 0)]));
        assert!(!answers(vec![]), "attaches nothing");
        assert!(!answers(vec![link(0, 5, 0)]), "skips dsts[0]");
        assert!(!answers(vec![link(0, 1, 0), link(2, 1, 0)]), "unnamed src");
        assert!(!answers(vec![link(0, 1, 0), link(0, 3, 0)]), "unnamed dst");
        assert!(!answers(vec![link(0, 1, 0), link(4, 4, 0)]), "no self link");
    }

    #[test]
    fn records_split_incrementally() {
        // A fake 3-byte-body blob with its 4-byte length prefix.
        let blob = [0u8, 0, 0, 3, 0xAA, 0xBB, 0xCC];
        let mut wire = Vec::new();
        encode_record(link(2, 5, 41), &blob, &mut wire);
        encode_record(link(6, 5, 42), &blob, &mut wire);
        // Byte-at-a-time arrival: no record until the first is whole.
        for cut in 0..LINK_SEQ_LEN + blob.len() {
            assert_eq!(split_record(&wire[..cut]).unwrap(), None, "cut={cut}");
        }
        let (head, total) = split_record(&wire).unwrap().expect("first record whole");
        assert_eq!(head, link(2, 5, 41));
        assert_eq!(&wire[LINK_SEQ_LEN..total], &blob);
        let rest = &wire[total..];
        let (head2, total2) = split_record(rest).unwrap().expect("second record whole");
        assert_eq!(head2, link(6, 5, 42));
        assert_eq!(total2, rest.len());
    }

    #[test]
    fn acks_roundtrip() {
        let mut wire = Vec::new();
        link(9, 0, 1 << 40).encode_into(&mut wire);
        assert_eq!(wire.len(), LINK_SEQ_LEN);
        assert_eq!(LinkSeq::decode(&wire), Ok(link(9, 0, 1 << 40)));
        assert_eq!(
            LinkSeq::decode(&wire[..LINK_SEQ_LEN - 1]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn oversized_record_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        link(1, 0, 77).encode_into(&mut wire);
        wire.extend((MAX_FRAME_BODY_BYTES + 1).to_be_bytes());
        assert_eq!(split_record(&wire), Err(WireError::Overflow));
    }
}
