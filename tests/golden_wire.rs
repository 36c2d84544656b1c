//! Golden wire blobs: the frame format did not move.
//!
//! Every hex string below was captured from `Frame::encode` at the commit
//! *before* the codec's machinery was rewritten (bit-at-a-time writer,
//! `Vec<FrameGroup>` storage, materialised `FrameHeader`). The rewrite is
//! allowed to change how the bytes are produced, never which bytes: each
//! corpus frame must still encode to exactly its blob — through both
//! `encode` and `encode_pooled` — and each blob must still decode to its
//! frame through both `decode` and `decode_shared`.
//!
//! The corpus covers 1/3/16-message frames, both routing-header modes
//! (delta/gamma and span bitmap), the single-register header skeleton, the
//! empty frame, wide register gaps, the paper's `TwoBitMsg` next to the
//! γ-coded baselines (ABD, MWMR, Oh-RAM), and byte-string payloads landing
//! on byte-aligned and unaligned cursors.
//!
//! A mismatch prints the blob the current code produces. Do not paste it
//! back in: a changed blob is a wire-format break, which needs a format
//! version, not a new golden.

use twobit::baselines::abd::AbdMsg;
use twobit::baselines::mwmr::{MwmrMsg, Timestamp};
use twobit::baselines::ohram::OhRamMsg;
use twobit::core::msg::{Parity, TwoBitMsg};
use twobit::proto::{BufferPool, Bytes, Envelope, Frame, RegisterId, WireMessage};

fn env<M>(reg: usize, msg: M) -> Envelope<M> {
    Envelope::new(RegisterId::new(reg), msg)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Encodes `envs` both ways and checks the blob byte for byte, then decodes
/// the golden blob both ways and checks the frame; returns the decoded
/// (shared) frame and the blob for pointer-level follow-ups.
fn check<M: WireMessage + PartialEq>(
    name: &str,
    envs: Vec<Envelope<M>>,
    golden: &str,
) -> (Frame<M>, Bytes) {
    let frame = Frame::from_envelopes(envs);
    let blob = frame.encode().expect("corpus messages have codecs");
    assert_eq!(hex(&blob), golden, "{name}: Frame::encode moved the wire");
    let pool = BufferPool::new();
    for round in 0..2 {
        // Second round encodes into the recycled (dirty) buffer.
        let pooled = frame.encode_pooled(&pool).expect("codec");
        assert_eq!(hex(&pooled), golden, "{name}: encode_pooled round {round}");
    }
    assert_eq!(
        blob.len() as u64,
        4 + frame.encoded_bits().div_ceil(8),
        "{name}: encoded_bits disagrees with the blob"
    );
    let wire = Bytes::from(unhex(golden));
    assert_eq!(
        Frame::<M>::decode(&wire).expect("golden blob decodes"),
        frame,
        "{name}: decode"
    );
    let shared = Frame::<M>::decode_shared(&wire).expect("golden blob decodes (shared)");
    assert_eq!(shared, frame, "{name}: decode_shared");
    (shared, wire)
}

fn twobit_rotation(k: usize) -> TwoBitMsg<u64> {
    match k % 4 {
        0 => TwoBitMsg::Write(Parity::Even, 0x0123_4567_89AB_CDEF ^ k as u64),
        1 => TwoBitMsg::Read,
        2 => TwoBitMsg::Write(Parity::Odd, u64::MAX - k as u64),
        _ => TwoBitMsg::Proceed,
    }
}

#[test]
fn twobit_frames_of_1_3_and_16_messages_in_gamma_mode() {
    check(
        "twobit/b1",
        vec![env(
            3,
            TwoBitMsg::Write(Parity::Odd, 0x0123_4567_89AB_CDEFu64),
        )],
        GOLDEN_TWOBIT_B1,
    );
    check(
        "twobit/b3",
        vec![
            env(5, TwoBitMsg::Write(Parity::Even, 7u64)),
            env(1, TwoBitMsg::Read),
            env(5, TwoBitMsg::Proceed),
        ],
        GOLDEN_TWOBIT_B3,
    );
    // 16 messages over 7 registers, arriving out of register order.
    let frame = check(
        "twobit/b16",
        (0..16)
            .map(|k| env((k * 5) % 7, twobit_rotation(k)))
            .collect(),
        GOLDEN_TWOBIT_B16,
    )
    .0;
    let h = frame.header();
    assert_eq!(h.bits(), h.bits_gamma(), "dense tags must pick gamma mode");
}

#[test]
fn twobit_frame_in_bitmap_mode() {
    // One message on every fourth register: the span bitmap beats γ(4).
    let frame = check(
        "twobit/bitmap16",
        (0..16).map(|k| env(4 * k, twobit_rotation(k))).collect(),
        GOLDEN_TWOBIT_BITMAP16,
    )
    .0;
    let h = frame.header();
    assert!(
        h.bits() < h.bits_gamma(),
        "corpus entry must be bitmap mode"
    );
}

#[test]
fn single_register_empty_and_wide_gap_frames() {
    check(
        "twobit/single-register",
        vec![
            env(0, TwoBitMsg::Write(Parity::Even, 1u64)),
            env(0, TwoBitMsg::Write(Parity::Odd, 2u64)),
            env(0, TwoBitMsg::Read),
        ],
        GOLDEN_SINGLE_REGISTER,
    );
    check(
        "twobit/empty",
        Vec::<Envelope<TwoBitMsg<u64>>>::new(),
        GOLDEN_EMPTY,
    );
    check(
        "twobit/wide-gap",
        vec![
            env(1_000_000, TwoBitMsg::Proceed),
            env(0, TwoBitMsg::Write(Parity::Odd, u64::MAX)),
            env(70_000, TwoBitMsg::<u64>::Read),
        ],
        GOLDEN_WIDE_GAP,
    );
}

#[test]
fn gamma_coded_baseline_frames() {
    check(
        "abd/b3",
        vec![
            env(
                2,
                AbdMsg::Write {
                    seq: 41,
                    value: 9u64,
                },
            ),
            env(0, AbdMsg::ReadQuery { rid: 1 << 33 }),
            env(
                2,
                AbdMsg::ReadReply {
                    rid: 7,
                    seq: 0,
                    value: u64::MAX,
                },
            ),
        ],
        GOLDEN_ABD_B3,
    );
    let ts = |num, pid| Timestamp { num, pid };
    check(
        "mwmr/b4",
        vec![
            env(
                9,
                MwmrMsg::Update {
                    rid: 3,
                    ts: ts(12, 4),
                    value: 0xFEEDu64,
                },
            ),
            env(9, MwmrMsg::UpdateAck { rid: 3 }),
            env(4, MwmrMsg::Query { rid: 1_000_003 }),
            env(
                4,
                MwmrMsg::QueryReply {
                    rid: 0,
                    ts: ts(0, 0),
                    value: 0,
                },
            ),
        ],
        GOLDEN_MWMR_B4,
    );
    check(
        "ohram/b6",
        vec![
            env(
                1,
                OhRamMsg::Write {
                    seq: 5,
                    value: 50u64,
                },
            ),
            env(0, OhRamMsg::WriteAck { seq: 5 }),
            env(1, OhRamMsg::Read { rid: 77 }),
            env(
                3,
                OhRamMsg::ReadAck {
                    rid: 77,
                    ts: 5,
                    value: 50,
                },
            ),
            env(
                0,
                OhRamMsg::Relay {
                    reader: 2,
                    rid: 77,
                    ts: 1 << 40,
                    value: 51,
                },
            ),
            env(
                3,
                OhRamMsg::RelayAck {
                    rid: 0,
                    ts: 0,
                    value: 0,
                },
            ),
        ],
        GOLDEN_OHRAM_B6,
    );
}

#[test]
fn byte_string_payloads_at_aligned_and_unaligned_cursors() {
    let inside = |p: &Bytes, blob: &Bytes| {
        let (base, at) = (blob.as_ptr() as usize, p.as_ptr() as usize);
        at >= base && at + p.len() <= base + blob.len()
    };
    // Bitmap-mode header of 99 bits + 2 tag bits + γ(2+1) = 3 length bits:
    // the first payload starts on bit 104 — a zero-copy view of the blob.
    let (frame, wire) = check(
        "bytes/aligned",
        (0..16usize)
            .map(|k| {
                let body: Vec<u8> = (0..2 + k as u8)
                    .map(|i| i.wrapping_mul(37) ^ 0xA5)
                    .collect();
                env(4 * k, TwoBitMsg::Write(Parity::Odd, Bytes::from(body)))
            })
            .collect(),
        GOLDEN_BYTES_ALIGNED,
    );
    let (_, first) = frame.iter().next().expect("16 messages");
    let TwoBitMsg::Write(_, payload) = first else {
        panic!("corpus frame leads with a WRITE");
    };
    assert!(inside(payload, &wire), "aligned payload must view the blob");

    // 6 header bits + 2 tag bits + γ(3+1) = 5 length bits: bit 13.
    let (frame, wire) = check(
        "bytes/unaligned",
        vec![env(
            0,
            TwoBitMsg::Write(Parity::Even, Bytes::from(vec![0xDE, 0xAD, 0x42])),
        )],
        GOLDEN_BYTES_UNALIGNED,
    );
    let (_, first) = frame.iter().next().expect("one message");
    let TwoBitMsg::Write(_, payload) = first else {
        panic!("corpus frame is one WRITE");
    };
    assert!(!inside(payload, &wire), "unaligned payload must be a copy");

    check(
        "string/b3",
        vec![
            env(2, TwoBitMsg::Write(Parity::Even, "two bits".to_string())),
            env(2, TwoBitMsg::Read),
            env(1, TwoBitMsg::Write(Parity::Odd, String::new())),
        ],
        GOLDEN_STRING_B3,
    );
}

const GOLDEN_TWOBIT_B1: &str = "0000000a4250123456789abcdef0";
const GOLDEN_TWOBIT_B3: &str = "0000000b652280000000000000007c";
const GOLDEN_TWOBIT_B16: &str = "0000004910baaaaba0048d159e26af37bf7ffffffffffffffc77ffffffffffffffd5fffffffffffffff99fffffffffffffffda0048d159e26af378e0048d159e26af379f0048d159e26af37af0";
const GOLDEN_TWOBIT_BITMAP16: &str = "0000005108e0f6222222222222223fffe0091a2b3c4d5e6f7cfffffffffffffffee0091a2b3c4d5e6f5cfffffffffffffffce0091a2b3c4d5e6f3cfffffffffffffffae0091a2b3c4d5e6f1cfffffffffffffff8e0";
const GOLDEN_SINGLE_REGISTER: &str = "000000124b0000000000000000500000000000000028";
const GOLDEN_EMPTY: &str = "0000000180";
const GOLDEN_WIDE_GAP: &str = "0000001323000088b840000718685ffffffffffffffffb";
const GOLDEN_ABD_B3: &str = "0000001e6d240000000080000000402a0000000000000009623fffffffffffffffe0";
const GOLDEN_MWMR_B4: &str = "0000001c62a2a000007a1223c000000000000000220d28000000000007f76e40";
const GOLDEN_OHRAM_B6: &str = "0000003722a92268c09c000000000100000000010000000000000033060000000000000032404e604e300000000000000195c00000000000000000";
const GOLDEN_BYTES_ALIGNED: &str = "000000b608e0f6222222222222223fffeba580494b01de969603bf29352c077e518a7a580efca311c4452c077e5188e3da269603bf28c471ee99154b01df946238f74d1a8ba580efca311c7ba68de84652c077e5188e3dd346f46ba369603bf28c471ee9a37a35cc91d4b01df946238f74d1bd1ae64328fa580efca311c7ba68de8d73219444214b01df946238f74d1bd1ae643289468469603bf28c471ee9a37a35cc865128e390952c077e5188e3dd346f46b990ca251c77a8";
const GOLDEN_BYTES_UNALIGNED: &str = "000000054c26f56a10";
const GOLDEN_STRING_B3: &str = "0000000c65a60974776f206269747380";
