//! Bit-granular wire I/O: the substrate of the byte-level codec.
//!
//! The paper's headline figure is *bits*, so the wire format is specified in
//! bits, not bytes: a frame is one contiguous bit stream (routing header,
//! then every message back to back) zero-padded to a byte boundary only at
//! the very end. [`BitWriter`] and [`BitReader`] are the MSB-first cursor
//! types every [`WireMessage`](crate::WireMessage) and
//! [`Payload`](crate::Payload) codec writes to and reads from;
//! [`gamma_bits`] sizes the self-delimiting Elias-gamma codes used wherever
//! a value has no fixed width (routing gaps, group counts, sequence
//! numbers of the baselines).

use std::fmt;

use bytes::Bytes;

/// Error surfaced by the wire codec (bit I/O, header, frame, message and
/// payload decoders).
///
/// Re-exported as `FrameDecodeError` for continuity with the pre-codec API,
/// which only had the header decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The stream ended inside a code or a declared field.
    Truncated,
    /// A decoded value overflows its domain, or a declared count/length
    /// exceeds what the remaining input could possibly hold (rejected
    /// *before* any allocation is sized from it).
    Overflow,
    /// The type does not implement the byte-level codec (it only carries
    /// modeled costs). Only codec-capable messages can cross a byte
    /// transport.
    Unsupported(&'static str),
    /// The input is structurally invalid (non-canonical header, non-zero
    /// padding, bad UTF-8 payload, ...).
    Malformed(&'static str),
    /// The frame's length prefix disagrees with the buffer it arrived in.
    LengthMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire stream truncated mid-code"),
            WireError::Overflow => write!(f, "wire value out of domain or count exceeds input"),
            WireError::Unsupported(what) => {
                write!(f, "no byte-level wire codec for {what}")
            }
            WireError::Malformed(what) => write!(f, "malformed wire input: {what}"),
            WireError::LengthMismatch => {
                write!(f, "frame length prefix disagrees with buffer length")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Elias-gamma code length for `x ≥ 1`: `2⌊log₂ x⌋ + 1` bits.
///
/// # Panics
///
/// Panics if `x == 0` (gamma codes start at 1; encode `x + 1` for domains
/// containing zero).
///
/// # Examples
///
/// ```
/// use twobit_proto::bits::gamma_bits;
///
/// assert_eq!(gamma_bits(1), 1);
/// assert_eq!(gamma_bits(2), 3);
/// assert_eq!(gamma_bits(255), 15);
/// ```
pub fn gamma_bits(x: u64) -> u64 {
    assert!(x >= 1, "gamma codes start at 1");
    2 * u64::from(63 - x.leading_zeros()) + 1
}

/// MSB-first bit sink.
///
/// Whole bytes move per step: a `put_bits` call first tops up the partial
/// last byte, then appends the rest of the value as one big-endian slice —
/// never a loop over bits. The stream it produces is the one a
/// bit-at-a-time writer would (the `#[cfg(test)]` oracle in this module is
/// exactly that writer, and the property tests hold the two byte-equal).
///
/// # Examples
///
/// ```
/// use twobit_proto::bits::{BitReader, BitWriter};
///
/// let mut w = BitWriter::default();
/// w.put_bits(0b10, 2);
/// w.put_gamma(5);
/// assert_eq!(w.bit_len(), 2 + 5);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.get_bits(2).unwrap(), 0b10);
/// assert_eq!(r.get_gamma().unwrap(), 5);
/// ```
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0 ⇒ last byte full / none yet).
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates a writer whose stream starts at the end of `buf`, on a byte
    /// boundary; the bytes already there stay as they are, and the
    /// capacity is reused — the hook the frame encoder uses to append each
    /// frame to a warm buffer instead of a fresh allocation.
    pub fn append_to(buf: Vec<u8>) -> Self {
        BitWriter {
            bytes: buf,
            used: 0,
        }
    }

    /// Appends one bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends the `n` low bits of `x`, most significant first (`n ≤ 64`).
    pub fn put_bits(&mut self, x: u64, n: u32) {
        assert!(n <= 64, "at most 64 bits per call");
        if n == 0 {
            return;
        }
        let x = if n < 64 { x & ((1u64 << n) - 1) } else { x };
        let mut n = n;
        if self.used != 0 {
            let free = 8 - self.used;
            let last = self.bytes.last_mut().expect("a partial byte exists");
            if n <= free {
                *last |= (x << (free - n)) as u8;
                self.used = (self.used + n) % 8;
                return;
            }
            // The value's top `free` bits complete the partial byte.
            *last |= (x >> (n - free)) as u8;
            n -= free;
        }
        // Byte-aligned: left-justify the remaining `n` bits (shifting out
        // the ones already written) and append them as whole bytes.
        let word = (x << (64 - n)).to_be_bytes();
        self.bytes
            .extend_from_slice(&word[..n.div_ceil(8) as usize]);
        self.used = n % 8;
    }

    /// Elias gamma: `N` zeros, then the `N+1` significant bits of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`.
    pub fn put_gamma(&mut self, x: u64) {
        assert!(x >= 1, "gamma codes start at 1");
        let n = 63 - x.leading_zeros();
        if 2 * n < 64 {
            // `x < 2^(n+1)`: its own leading zeros are the unary prefix.
            self.put_bits(x, 2 * n + 1);
        } else {
            self.put_bits(0, n);
            self.put_bits(x, n + 1);
        }
    }

    /// Appends `s` whole, most significant bit of each byte first. On a
    /// byte-aligned cursor this is a single `extend_from_slice`; otherwise
    /// the bytes are shifted in eight at a time — the encode-side
    /// counterpart of [`BitReader::get_byte_slice`].
    pub fn put_bytes(&mut self, s: &[u8]) {
        if self.used == 0 {
            self.bytes.extend_from_slice(s);
            return;
        }
        self.bytes.reserve(s.len());
        let mut words = s.chunks_exact(8);
        for w in &mut words {
            self.put_bits(u64::from_be_bytes(w.try_into().expect("8-byte chunk")), 64);
        }
        for &b in words.remainder() {
            self.put_bits(u64::from(b), 8);
        }
    }

    /// Bits written so far (before the final byte's zero padding).
    pub fn bit_len(&self) -> u64 {
        if self.used == 0 {
            self.bytes.len() as u64 * 8
        } else {
            (self.bytes.len() as u64 - 1) * 8 + u64::from(self.used)
        }
    }

    /// Finishes the stream, zero-padding the last byte.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// MSB-first bit source over a byte slice.
///
/// Reads are word-granular: the reader keeps a window of up to 64 bits
/// loaded from under the cursor, serves reads out of it by shifting —
/// a gamma code's unary prefix is one `leading_zeros` — and reloads eight
/// bytes at a time when it runs dry. Bounds are checked against the input
/// before a value is handed out; nothing past the slice is ever read.
///
/// A reader built with [`BitReader::new_shared`] additionally remembers the
/// shared [`Bytes`] allocation behind its input, which lets
/// [`BitReader::get_byte_slice`] hand payload bytes out as **zero-copy
/// sub-views** of the received blob whenever the cursor happens to be
/// byte-aligned (the bit-packed format makes alignment opportunistic, not
/// guaranteed).
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
    /// The window: the `avail` input bits under the cursor, left-justified,
    /// zeros below them. `avail == 0` means "not loaded", never "at the
    /// end" — only [`BitReader::remaining_bits`] knows that.
    window: u64,
    avail: u32,
    /// The shared allocation `bytes` views, when the caller has one —
    /// `bytes` must equal `&shared[..]`.
    shared: Option<&'a Bytes>,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            window: 0,
            avail: 0,
            shared: None,
        }
    }

    /// Creates a reader over a shared buffer; byte-aligned
    /// [`BitReader::get_byte_slice`] calls then slice `backing` without
    /// copying.
    pub fn new_shared(backing: &'a Bytes) -> Self {
        BitReader {
            shared: Some(backing),
            ..BitReader::new(backing)
        }
    }

    /// The up-to-64 bits under the cursor, left-justified, with zeros where
    /// the input has ended, and how many of them are real input: `64 −
    /// (pos mod 8)` or whatever remains, whichever is less.
    fn peek(&self) -> (u64, u32) {
        let at = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        let word = match self
            .bytes
            .get(at..)
            .and_then(|tail| tail.first_chunk::<8>())
        {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => self.tail_word(at),
        };
        let valid = u64::from(64 - off).min(self.remaining_bits()) as u32;
        (word << off, valid)
    }

    /// [`BitReader::peek`]'s word when fewer than eight bytes remain from
    /// byte `at`: those bytes, then zeros.
    #[cold]
    fn tail_word(&self, at: usize) -> u64 {
        let len = self.bytes.len();
        if at >= len {
            return 0;
        }
        match self.bytes.last_chunk::<8>() {
            // The input's last eight bytes, minus the ones in front of
            // `at` (1..=7 of them, or `first_chunk` would have served).
            Some(chunk) => u64::from_be_bytes(*chunk) << (8 * (at + 8 - len)),
            // An input shorter than a word.
            None => self.bytes[at..]
                .iter()
                .enumerate()
                .fold(0, |word, (i, &b)| word | u64::from(b) << (56 - 8 * i)),
        }
    }

    /// Reloads the window from under the cursor.
    fn refill(&mut self) {
        (self.window, self.avail) = self.peek();
    }

    /// Moves the cursor past `n ≤ avail` bits of the window.
    #[inline]
    fn consume(&mut self, n: u32) {
        self.window = self.window.checked_shl(n).unwrap_or(0);
        self.avail -= n;
        self.pos += u64::from(n);
    }

    /// Moves the cursor to bit `pos`, dropping the window.
    fn seek(&mut self, pos: u64) {
        self.pos = pos;
        self.avail = 0;
    }

    /// Reads `1 ≤ n ≤ 64` bits the caller has bounds-checked.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        if n > self.avail {
            self.refill();
        }
        if n <= self.avail {
            let x = self.window >> (64 - n);
            self.consume(n);
            return x;
        }
        // The value straddles nine bytes: the window holds its top `avail`
        // bits (57..=63 of them), the next byte the rest.
        let rest = n - self.avail;
        let top = self.window >> (64 - self.avail);
        self.seek(self.pos + u64::from(n));
        let next = self.bytes[((self.pos - 1) / 8) as usize];
        (top << rest) | u64::from(next >> (8 - rest))
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, WireError> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return Err(WireError::Truncated);
            }
        }
        let bit = self.window >> 63 != 0;
        self.consume(1);
        Ok(bit)
    }

    /// Reads `n ≤ 64` bits, most significant first.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bits remain.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u64, WireError> {
        assert!(n <= 64, "at most 64 bits per call");
        if n == 0 {
            return Ok(0);
        }
        // Window bits are real input; only a read past them needs the
        // bound checked.
        if n > self.avail && u64::from(n) > self.remaining_bits() {
            // Fail without moving the cursor so callers can report cleanly.
            return Err(WireError::Truncated);
        }
        Ok(self.take(n))
    }

    /// Reads one Elias-gamma code.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] mid-code; [`WireError::Overflow`] if the
    /// unary prefix exceeds the 64-bit domain. Either way the cursor stops
    /// where a bit-by-bit reader would have: at the end of the input, or
    /// after the 64th zero.
    #[inline]
    pub fn get_gamma(&mut self) -> Result<u64, WireError> {
        if let Some(x) = self.gamma_in_window() {
            return Ok(x);
        }
        self.refill();
        if let Some(x) = self.gamma_in_window() {
            return Ok(x);
        }
        self.get_long_gamma()
    }

    /// The common case of [`BitReader::get_gamma`]: the whole code sits in
    /// the window — `n` zeros, then the `n + 1` significant bits.
    #[inline]
    fn gamma_in_window(&mut self) -> Option<u64> {
        let n = self.window.leading_zeros();
        if 2 * n >= self.avail {
            return None;
        }
        let x = (self.window << n) >> (63 - n);
        self.consume(2 * n + 1);
        Some(x)
    }

    /// [`BitReader::get_gamma`] for a code that straddles a full window or
    /// the end of the input.
    #[cold]
    fn get_long_gamma(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        // Unary prefix: the zeros in front of the value's leading one.
        let n = match self.skip_zeros() {
            Ok(n) if n <= 63 => n as u32,
            Err(e) if self.pos - start < 64 => return Err(e),
            _ => {
                self.seek(start + 64);
                return Err(WireError::Overflow);
            }
        };
        if u64::from(n + 1) > self.remaining_bits() {
            self.seek(self.bytes.len() as u64 * 8);
            return Err(WireError::Truncated);
        }
        Ok(self.take(n + 1))
    }

    /// Consumes zeros up to the next set bit (left unread) and returns how
    /// many there were — a gamma code's unary prefix, or the gap to a span
    /// bitmap's next tag — one `leading_zeros` per window.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the input ends before a set bit (with
    /// the cursor at the end).
    pub(crate) fn skip_zeros(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        loop {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    return Err(WireError::Truncated);
                }
            }
            let zeros = self.window.leading_zeros().min(self.avail);
            let found = zeros < self.avail;
            self.consume(zeros);
            if found {
                return Ok(self.pos - start);
            }
        }
    }

    /// Reads `len` whole bytes. When the cursor is byte-aligned and the
    /// reader was built with [`BitReader::new_shared`], the result is a
    /// zero-copy sub-view of the backing allocation; otherwise the bytes
    /// are copied out, eight at a time (a bit-packed stream cannot promise
    /// alignment). Either way the cursor advances exactly `8 × len` bits.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `8 × len` bits remain (the
    /// cursor does not move).
    pub fn get_byte_slice(&mut self, len: usize) -> Result<Bytes, WireError> {
        let bits = (len as u64).checked_mul(8).ok_or(WireError::Overflow)?;
        if bits > self.remaining_bits() {
            return Err(WireError::Truncated);
        }
        if self.pos.is_multiple_of(8) {
            let start = (self.pos / 8) as usize;
            self.seek(self.pos + bits);
            if let Some(backing) = self.shared {
                return Ok(backing.slice(start..start + len));
            }
            return Ok(Bytes::copy_from_slice(&self.bytes[start..start + len]));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len / 8 {
            out.extend_from_slice(&self.take(64).to_be_bytes());
        }
        for _ in 0..len % 8 {
            out.push(self.take(8) as u8);
        }
        Ok(Bytes::from(out))
    }

    /// Bits consumed so far.
    pub fn bits_read(&self) -> u64 {
        self.pos
    }

    /// Bits left in the input (final-byte padding included).
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Consumes the final-byte zero padding, rejecting a stream with a
    /// non-zero pad bit or a whole byte of slack (which would mean the
    /// declared length was wrong, not that the stream was padded).
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on non-zero padding or ≥ 8 leftover bits.
    pub fn expect_zero_padding(&mut self) -> Result<(), WireError> {
        if self.remaining_bits() >= 8 {
            return Err(WireError::Malformed("more than a byte of trailing slack"));
        }
        let (rest, valid) = self.peek();
        if rest != 0 {
            // Stop just past the offending bit, as reading it would have.
            self.seek(self.pos + u64::from(rest.leading_zeros()) + 1);
            return Err(WireError::Malformed("non-zero padding bit"));
        }
        self.seek(self.pos + u64::from(valid));
        Ok(())
    }
}

/// The codec's previous writer and reader, one loop iteration per bit:
/// kept (test builds only) as the reference the word-granular
/// [`BitWriter`]/[`BitReader`] are property-tested against — same bytes,
/// same `bit_len`, same values, same errors, same cursor after each.
#[cfg(test)]
mod oracle {
    use super::WireError;

    #[derive(Default)]
    pub(super) struct BitWriter {
        bytes: Vec<u8>,
        used: u32,
    }

    impl BitWriter {
        pub(super) fn put_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.last_mut().expect("pushed above");
                *last |= 1 << (7 - self.used);
            }
            self.used = (self.used + 1) % 8;
        }

        pub(super) fn put_bits(&mut self, x: u64, n: u32) {
            for i in (0..n).rev() {
                self.put_bit(x & (1u64 << i) != 0);
            }
        }

        pub(super) fn put_gamma(&mut self, x: u64) {
            let n = 63 - x.leading_zeros();
            for _ in 0..n {
                self.put_bit(false);
            }
            for i in (0..=n).rev() {
                self.put_bit(x & (1 << i) != 0);
            }
        }

        pub(super) fn put_bytes(&mut self, s: &[u8]) {
            for &b in s {
                self.put_bits(u64::from(b), 8);
            }
        }

        pub(super) fn bit_len(&self) -> u64 {
            if self.used == 0 {
                self.bytes.len() as u64 * 8
            } else {
                (self.bytes.len() as u64 - 1) * 8 + u64::from(self.used)
            }
        }

        pub(super) fn into_bytes(self) -> Vec<u8> {
            self.bytes
        }
    }

    pub(super) struct BitReader<'a> {
        bytes: &'a [u8],
        pos: u64,
    }

    impl<'a> BitReader<'a> {
        pub(super) fn new(bytes: &'a [u8]) -> Self {
            BitReader { bytes, pos: 0 }
        }

        pub(super) fn get_bit(&mut self) -> Result<bool, WireError> {
            let byte = self
                .bytes
                .get((self.pos / 8) as usize)
                .ok_or(WireError::Truncated)?;
            let bit = byte & (1 << (7 - self.pos % 8)) != 0;
            self.pos += 1;
            Ok(bit)
        }

        pub(super) fn get_bits(&mut self, n: u32) -> Result<u64, WireError> {
            if u64::from(n) > self.remaining_bits() {
                return Err(WireError::Truncated);
            }
            let mut x = 0u64;
            for _ in 0..n {
                x = (x << 1) | u64::from(self.get_bit()?);
            }
            Ok(x)
        }

        pub(super) fn get_gamma(&mut self) -> Result<u64, WireError> {
            let mut n = 0u32;
            while !self.get_bit()? {
                n += 1;
                if n > 63 {
                    return Err(WireError::Overflow);
                }
            }
            let mut x = 1u64;
            for _ in 0..n {
                x = (x << 1) | u64::from(self.get_bit()?);
            }
            Ok(x)
        }

        pub(super) fn get_byte_slice(&mut self, len: usize) -> Result<Vec<u8>, WireError> {
            if len as u64 * 8 > self.remaining_bits() {
                return Err(WireError::Truncated);
            }
            (0..len).map(|_| Ok(self.get_bits(8)? as u8)).collect()
        }

        pub(super) fn bits_read(&self) -> u64 {
            self.pos
        }

        pub(super) fn remaining_bits(&self) -> u64 {
            (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
        }

        pub(super) fn expect_zero_padding(&mut self) -> Result<(), WireError> {
            if self.remaining_bits() >= 8 {
                return Err(WireError::Malformed("more than a byte of trailing slack"));
            }
            while self.remaining_bits() > 0 {
                if self.get_bit()? {
                    return Err(WireError::Malformed("non-zero padding bit"));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bit(true);
        assert_eq!(w.bit_len(), 1);
        w.put_bits(0xAB, 8);
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().unwrap());
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
        assert_eq!(r.bits_read(), 9);
        assert_eq!(r.remaining_bits(), 7);
        r.expect_zero_padding().unwrap();
    }

    #[test]
    fn fixed_width_roundtrip() {
        for x in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x0123_4567_89AB_CDEF] {
            let mut w = BitWriter::new();
            w.put_bits(x, 64);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_bits(64).unwrap(), x);
        }
    }

    #[test]
    fn gamma_roundtrip_and_lengths() {
        for (x, bits) in [(1, 1), (2, 3), (3, 3), (4, 5), (7, 5), (8, 7), (255, 15)] {
            assert_eq!(gamma_bits(x), bits, "γ({x})");
            let mut w = BitWriter::new();
            w.put_gamma(x);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_gamma().unwrap(), x);
            assert_eq!(r.bits_read(), bits);
        }
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.get_bit(), Err(WireError::Truncated));
        let mut r = BitReader::new(&[0x80]);
        assert_eq!(r.get_bits(16), Err(WireError::Truncated));
        assert_eq!(r.bits_read(), 0, "failed get_bits must not consume");
        // All-zeros never terminates a gamma code.
        let mut r = BitReader::new(&[0x00]);
        assert_eq!(r.get_gamma(), Err(WireError::Truncated));
    }

    #[test]
    fn reused_buffer_writer_matches_fresh_writer() {
        let mut fresh = BitWriter::new();
        fresh.put_bits(0b101, 3);
        fresh.put_gamma(9);
        let expected = fresh.into_bytes();
        // Behind the bytes already in a buffer, the identical stream.
        let mut reused = BitWriter::append_to(vec![0xFF; 32]);
        reused.put_bits(0b101, 3);
        reused.put_gamma(9);
        let got = reused.into_bytes();
        assert_eq!(got[..32], [0xFF; 32], "the bytes already there stay");
        assert_eq!(got[32..], expected);
    }

    #[test]
    fn put_bytes_aligned_and_unaligned_agree() {
        let payload = [0xDE, 0xAD, 0xBE, 0xEF];
        let mut aligned = BitWriter::new();
        aligned.put_bytes(&payload);
        assert_eq!(aligned.into_bytes(), payload);
        // Unaligned: same bits, shifted.
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        w.put_bytes(&payload);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().unwrap());
        for &b in &payload {
            assert_eq!(r.get_bits(8).unwrap(), u64::from(b));
        }
    }

    #[test]
    fn aligned_byte_slice_is_zero_copy_into_the_backing() {
        let blob = Bytes::from(vec![0xAA, 1, 2, 3, 4]);
        let mut r = BitReader::new_shared(&blob);
        assert_eq!(r.get_bits(8).unwrap(), 0xAA);
        let slice = r.get_byte_slice(3).unwrap();
        assert_eq!(&slice[..], &[1, 2, 3]);
        let base = blob.as_ptr() as usize;
        let p = slice.as_ptr() as usize;
        assert!(
            p >= base && p + slice.len() <= base + blob.len(),
            "aligned slice must point into the original allocation"
        );
        assert_eq!(r.bits_read(), 32);
        assert_eq!(r.get_byte_slice(2), Err(WireError::Truncated));
        assert_eq!(r.bits_read(), 32, "failed slice must not consume");
    }

    #[test]
    fn unaligned_byte_slice_copies_but_reads_the_same_bytes() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.put_bytes(&[7, 8, 9]);
        let blob = Bytes::from(w.into_bytes());
        let mut r = BitReader::new_shared(&blob);
        assert!(r.get_bit().unwrap());
        let slice = r.get_byte_slice(3).unwrap();
        assert_eq!(&slice[..], &[7, 8, 9]);
        let base = blob.as_ptr() as usize;
        let p = slice.as_ptr() as usize;
        assert!(
            p < base || p >= base + blob.len(),
            "an unaligned slice cannot view the backing"
        );
    }

    #[test]
    fn unshared_reader_byte_slices_still_work() {
        let raw = [5u8, 6, 7];
        let mut r = BitReader::new(&raw);
        let s = r.get_byte_slice(3).unwrap();
        assert_eq!(&s[..], &[5, 6, 7]);
        r.expect_zero_padding().unwrap();
    }

    #[test]
    fn padding_is_policed() {
        let mut r = BitReader::new(&[0b1000_0001]);
        assert!(r.get_bit().unwrap());
        assert_eq!(
            r.expect_zero_padding(),
            Err(WireError::Malformed("non-zero padding bit"))
        );
        let mut r = BitReader::new(&[0x80, 0x00]);
        assert!(r.get_bit().unwrap());
        assert_eq!(
            r.expect_zero_padding(),
            Err(WireError::Malformed("more than a byte of trailing slack"))
        );
    }

    const ORACLE_CASES: u32 = 4_096;

    /// One step of a write script.
    #[derive(Clone, Debug)]
    enum Put {
        Bit(bool),
        Bits(u64, u32),
        Gamma(u64),
        Bytes(Vec<u8>),
    }

    fn put_op() -> impl Strategy<Value = Put> {
        prop_oneof![
            any::<bool>().prop_map(Put::Bit),
            (any::<u64>(), 0u32..=64).prop_map(|(x, n)| Put::Bits(x, n)),
            // Every magnitude, not just the (rare) huge ones `any` favours.
            (any::<u64>(), 0u32..64).prop_map(|(x, shift)| Put::Gamma((x >> shift).max(1))),
            prop::collection::vec(any::<u8>(), 0..20).prop_map(Put::Bytes),
        ]
    }

    /// One step of a read script.
    #[derive(Clone, Debug)]
    enum Get {
        Bit,
        Bits(u32),
        Gamma,
        Bytes(usize),
        Padding,
    }

    fn get_op() -> impl Strategy<Value = Get> {
        prop_oneof![
            Just(Get::Bit),
            (0u32..=64).prop_map(Get::Bits),
            Just(Get::Gamma),
            Just(Get::Gamma),
            (0usize..20).prop_map(Get::Bytes),
            Just(Get::Padding),
        ]
    }

    /// Input streams with long zero runs, so gamma prefixes reach the
    /// truncation and 64-zero overflow paths random bytes almost never do.
    fn zero_heavy_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(
            prop_oneof![Just(0u8), Just(0u8), Just(0u8), any::<u8>()],
            0..40,
        )
    }

    /// Runs `script` over `input` on both readers, comparing the result and
    /// the cursor after every step — failed steps included.
    fn read_in_lockstep(input: &[u8], script: &[Get]) -> Result<(), String> {
        let mut new = BitReader::new(input);
        let mut old = oracle::BitReader::new(input);
        for (i, op) in script.iter().enumerate() {
            match *op {
                Get::Bit => prop_assert_eq!(new.get_bit(), old.get_bit(), "step {}", i),
                Get::Bits(n) => prop_assert_eq!(new.get_bits(n), old.get_bits(n), "step {}", i),
                Get::Gamma => prop_assert_eq!(new.get_gamma(), old.get_gamma(), "step {}", i),
                Get::Bytes(len) => prop_assert_eq!(
                    new.get_byte_slice(len).map(|b| b.to_vec()),
                    old.get_byte_slice(len),
                    "step {}",
                    i
                ),
                Get::Padding => prop_assert_eq!(
                    new.expect_zero_padding(),
                    old.expect_zero_padding(),
                    "step {}",
                    i
                ),
            }
            prop_assert_eq!(new.bits_read(), old.bits_read(), "cursor after step {}", i);
            prop_assert_eq!(new.remaining_bits(), old.remaining_bits());
        }
        Ok(())
    }

    proptest! {
        // The cases are tiny; run enough of them to reach the window
        // reloads, nine-byte straddles and end-of-input corners.
        #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

        /// Word-granular writer vs the bit-at-a-time oracle: the same
        /// script yields the same `bit_len` after every step and the same
        /// bytes at the end.
        #[test]
        fn writer_matches_the_bit_at_a_time_oracle(
            script in prop::collection::vec(put_op(), 0..40),
        ) {
            let mut new = BitWriter::new();
            let mut old = oracle::BitWriter::default();
            for op in &script {
                match op {
                    Put::Bit(b) => {
                        new.put_bit(*b);
                        old.put_bit(*b);
                    }
                    Put::Bits(x, n) => {
                        new.put_bits(*x, *n);
                        old.put_bits(*x, *n);
                    }
                    Put::Gamma(x) => {
                        new.put_gamma(*x);
                        old.put_gamma(*x);
                    }
                    Put::Bytes(s) => {
                        new.put_bytes(s);
                        old.put_bytes(s);
                    }
                }
                prop_assert_eq!(new.bit_len(), old.bit_len(), "after {:?}", op);
            }
            prop_assert_eq!(new.into_bytes(), old.into_bytes());
        }

        /// Word-granular reader vs the oracle over arbitrary (zero-heavy)
        /// input: identical values, identical typed errors, identical
        /// cursor — on the failing steps too.
        #[test]
        fn reader_matches_the_oracle_on_arbitrary_input(
            input in zero_heavy_bytes(),
            script in prop::collection::vec(get_op(), 0..24),
        ) {
            read_in_lockstep(&input, &script)?;
        }

        /// The same, over well-formed streams (a write script read back by
        /// the matching read script) cut at an arbitrary byte.
        #[test]
        fn reader_matches_the_oracle_on_written_then_truncated_streams(
            script in prop::collection::vec(put_op(), 0..24),
            cut in 0usize..64,
        ) {
            let mut w = BitWriter::new();
            let mut reads = Vec::new();
            for op in &script {
                match op {
                    Put::Bit(b) => {
                        w.put_bit(*b);
                        reads.push(Get::Bit);
                    }
                    Put::Bits(x, n) => {
                        w.put_bits(*x, *n);
                        reads.push(Get::Bits(*n));
                    }
                    Put::Gamma(x) => {
                        w.put_gamma(*x);
                        reads.push(Get::Gamma);
                    }
                    Put::Bytes(s) => {
                        w.put_bytes(s);
                        reads.push(Get::Bytes(s.len()));
                    }
                }
            }
            reads.push(Get::Padding);
            let bytes = w.into_bytes();
            read_in_lockstep(&bytes, &reads)?;
            read_in_lockstep(&bytes[..cut.min(bytes.len())], &reads)?;
        }
    }

    #[test]
    fn gamma_prefix_errors_leave_the_cursor_where_the_oracle_does() {
        // 64 zeros: overflow after the 64th, whatever follows.
        let mut input = vec![0u8; 8];
        input.push(0xFF);
        read_in_lockstep(&input, &[Get::Bits(3), Get::Gamma, Get::Bit]).unwrap();
        // 63 zeros then a one: the widest legal code, here truncated.
        let mut input = vec![0u8; 7];
        input.push(0x01);
        input.extend_from_slice(&[0xAB; 7]);
        read_in_lockstep(&input, &[Get::Gamma, Get::Gamma]).unwrap();
        // ...and complete.
        input.push(0xCD);
        read_in_lockstep(&input, &[Get::Gamma, Get::Padding]).unwrap();
        let mut r = BitReader::new(&input);
        assert_eq!(
            r.get_gamma().unwrap(),
            (1 << 63) | (0xAB_ABAB_ABAB_ABABu64 << 7) | (0xCD >> 1)
        );
    }
}
