//! Allocation budgets of the codec's hot paths, held by `cargo test`.
//!
//! The benchmark package (`perfbench/`) reports `allocs_per_op`, but tier-1
//! never builds it. This binary installs its own counting allocator and
//! pins the steady-state figures the flat, streamed codec was built for:
//!
//! * sealing a frame the reactor's way — `Frame::from_envelopes(Vec)` +
//!   `cost` + `encode_append` onto a warm buffer — allocates nothing, and
//!   decoding into recycled storage (`decode_into`) allocates nothing: a
//!   reactor frame is free end to end (`tests/reactor_alloc.rs` holds the
//!   whole node to that);
//! * the pooled seal the simulator and a `wire_codec(true)` runtime use
//!   (`encode_pooled`) allocates nothing but the `Bytes` owner, and
//!   `decode` / `decode_shared` of a small frame allocate once (the flat
//!   vector);
//! * `ShardSet::on_message` allocates nothing;
//! * a `LinkBatcher` whose storage is handed back allocates nothing;
//! * `CacheWriter::publish` allocates nothing, from the first call on —
//!   the safe-cache rows of `frame_semantics.rs`'s pinned table beat their
//!   protocol twins on allocations only while the cache's own bookkeeping
//!   is free, which `safe_read_cache_allocates_less_than_its_protocol_twin`
//!   holds end to end;
//! * an operation's client round trip on a live backend — `invoke`, the
//!   post to the process's mailbox, the wait for its reply, `poll` —
//!   allocates nothing per operation on the client thread.
//!
//! It also holds the decoders' other promise: whatever bytes arrive —
//! random, or a valid encoding with bits flipped — `Frame::decode`,
//! `Frame::decode_into`, `Frame::decode_shared` and `FrameHeader::decode`,
//! and the reactor's
//! route decoders (`RouteHello::decode`, `RouteWelcome::decode`, the record
//! splitter and the ack parser), return a typed `WireError` or a value,
//! never panic, and never allocate more than a fixed multiple of the
//! input's length.
//!
//! Counters are per thread, so the tests of this binary can run in
//! parallel without seeing each other's allocations.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use common::{readmostly_workload, writer_of, ADAPTIVE, STATIC};
use proptest::prelude::*;
use twobit::baselines::mwmr::{MwmrMsg, Timestamp};
use twobit::cache::{cache_pair, CacheDecision, CacheMode};
use twobit::core::msg::{Parity, TwoBitMsg};
use twobit::proto::linkseq::{
    self, LinkSeq, RouteHello, RouteWelcome, HELLO_MAGIC, LINK_SEQ_LEN, WELCOME_MAGIC,
};
use twobit::proto::{
    BufferPool, Bytes, Effects, Envelope, Frame, FrameHeader, ProcessId, RegisterId, ShardSet,
    SystemConfig, WireError, WireMessage,
};
use twobit::runtime::{FlushPolicy, LinkBatcher};
use twobit::{
    ClusterBuilder, DelayModel, Driver, OpOutcome, Operation, ReactorClusterBuilder, TwoBitOptions,
    TwoBitProcess,
};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when there is nobody left to count for.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of two thread-local
// `Cell`s, which neither allocate nor have destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations and the bytes this
/// thread requested meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.get(), ALLOCATED.get());
    let out = f();
    (out, ALLOCS.get() - a0, ALLOCATED.get() - b0)
}

fn env<M>(reg: usize, msg: M) -> Envelope<M> {
    Envelope::new(RegisterId::new(reg), msg)
}

/// `k` messages spread over seven registers, out of register order.
fn batch(k: usize) -> Vec<Envelope<TwoBitMsg<u64>>> {
    (0..k)
        .map(|i| {
            let msg = match i % 3 {
                0 => TwoBitMsg::Write(Parity::Even, 0xABCD_0000 + i as u64),
                1 => TwoBitMsg::Read,
                _ => TwoBitMsg::Proceed,
            };
            env((i * 5) % 7, msg)
        })
        .collect()
}

#[test]
fn sealing_a_frame_allocates_only_the_bytes_owner() {
    for k in [1, 3, 16] {
        let pool = BufferPool::new();
        let mut envs = batch(k);
        let seal = |envs: Vec<Envelope<TwoBitMsg<u64>>>| {
            let frame = Frame::from_envelopes(envs);
            let cost = frame.cost(4);
            let blob = frame.encode_pooled(&pool).expect("TwoBitMsg has a codec");
            assert_eq!(cost.messages, k as u64);
            assert_eq!(blob.len() as u64, 4 + frame.encoded_bits().div_ceil(8));
            // The blob dies here (its buffer rejoins the pool); the
            // frame's storage goes back to whoever batches the next one.
            frame.into_vec()
        };
        // Warm-up: the pool's first buffer is sized on its first miss.
        envs = seal(envs);
        const ROUNDS: u64 = 100;
        let ((), allocs, _) = measured(|| {
            for _ in 0..ROUNDS {
                // Un-sort the batch so every round pays for the sort too.
                envs.rotate_left(1);
                envs = seal(std::mem::take(&mut envs));
            }
        });
        assert_eq!(
            allocs, ROUNDS,
            "{k}-message frame: one allocation per seal (the Bytes owner), no more"
        );
        assert_eq!(
            pool.recycled(),
            ROUNDS,
            "every encode reused the pooled buffer"
        );
    }
}

#[test]
fn appending_a_frame_to_a_warm_buffer_allocates_nothing() {
    for k in [1, 3, 16] {
        let mut envs = batch(k);
        // A window of frames appended back to back, then dropped at once —
        // a link's resend log between two acks.
        let window = |envs: &mut Vec<Envelope<TwoBitMsg<u64>>>, log: &mut Vec<u8>| {
            log.clear();
            for _ in 0..32 {
                // Un-sort the batch so every frame pays for the sort too.
                envs.rotate_left(1);
                let frame = Frame::from_envelopes(std::mem::take(envs));
                assert_eq!(frame.cost(4).messages, k as u64);
                let len = frame.encode_append(log).expect("TwoBitMsg has a codec");
                assert_eq!(len as u64, 4 + frame.encoded_bits().div_ceil(8));
                *envs = frame.into_vec();
            }
        };
        // Warm-up: the buffer grows to a window's worth once.
        let mut log = Vec::new();
        window(&mut envs, &mut log);
        let ((), allocs, _) = measured(|| {
            for _ in 0..10 {
                window(&mut envs, &mut log);
            }
        });
        assert_eq!(
            allocs, 0,
            "{k}-message frames: appending to a warm buffer allocates nothing"
        );
    }
}

#[test]
fn decoding_into_recycled_storage_allocates_nothing() {
    for k in [1, 3, 16] {
        let frame = Frame::from_envelopes(batch(k));
        let blob = frame.encode().expect("codec");
        // The first decode sizes the storage; every later one refills it.
        let mut storage = Frame::<TwoBitMsg<u64>>::decode(&blob)
            .expect("round trip")
            .into_vec();
        let ((), allocs, _) = measured(|| {
            for _ in 0..100 {
                let decoded =
                    Frame::<TwoBitMsg<u64>>::decode_into(&blob, storage).expect("round trip");
                assert_eq!(decoded, frame);
                // What a handler leaves behind: the emptied vector.
                storage = decoded.into_vec();
                storage.clear();
            }
        });
        assert_eq!(
            allocs, 0,
            "{k}-message frame: decoding into recycled storage allocates nothing"
        );
    }
}

#[test]
fn a_pool_miss_is_one_exactly_sized_allocation() {
    // A pool with nothing to give: the encoder sizes the cold buffer once
    // instead of growing it push by push.
    let pool = BufferPool::with_retention(0);
    let frame = Frame::from_envelopes(batch(16));
    let (blob, allocs, bytes) = measured(|| frame.encode_pooled(&pool).expect("codec"));
    assert_eq!(allocs, 2, "the exactly-sized buffer and the Bytes owner");
    assert!(
        bytes < 2 * blob.len() as u64 + 64,
        "{bytes} B requested for a {} B blob",
        blob.len()
    );
    assert_eq!(pool.recycled(), 0);
}

#[test]
fn decoding_a_three_message_frame_allocates_once() {
    let frame = Frame::from_envelopes(batch(3));
    let blob = frame.encode().expect("codec");
    let (decoded, allocs, _) = measured(|| Frame::<TwoBitMsg<u64>>::decode_shared(&blob));
    assert_eq!(decoded.expect("round trip"), frame);
    assert_eq!(allocs, 1, "decode_shared: the flat envelope vector only");
    let (decoded, allocs, _) = measured(|| Frame::<TwoBitMsg<u64>>::decode(&blob));
    assert_eq!(decoded.expect("round trip"), frame);
    assert_eq!(allocs, 1, "decode: the flat envelope vector only");
    // Sixteen messages over seven registers: still one vector, no header.
    let frame = Frame::from_envelopes(batch(16));
    let blob = frame.encode().expect("codec");
    let (decoded, allocs, _) = measured(|| Frame::<TwoBitMsg<u64>>::decode_shared(&blob));
    assert_eq!(decoded.expect("round trip"), frame);
    assert_eq!(allocs, 1);
}

#[test]
fn shard_dispatch_allocates_nothing_in_steady_state() {
    let cfg = SystemConfig::new(3, 1).expect("n=3, t=1");
    let writer = ProcessId::new(0);
    let registers: Vec<RegisterId> = (0..16).map(RegisterId::new).collect();
    let mut set = ShardSet::new(ProcessId::new(1), &registers, |_reg, id| {
        TwoBitProcess::new(id, cfg, writer, 0u64)
    });
    let mut fx = Effects::new();
    let reader = ProcessId::new(2);
    // A READ is answered with a PROCEED on the spot and leaves no state
    // behind, so the exchange can repeat forever.
    let mut exchange = |set: &mut ShardSet<TwoBitProcess<u64>>, round: usize| {
        set.on_message(reader, env(round % 16, TwoBitMsg::Read), &mut fx);
        let sent = fx.drain_sends().count();
        assert_eq!(sent, 1, "READ → PROCEED");
    };
    for round in 0..64 {
        exchange(&mut set, round);
    }
    let ((), allocs, _) = measured(|| {
        for round in 0..1_000 {
            exchange(&mut set, round);
        }
    });
    assert_eq!(allocs, 0, "ShardSet::on_message reuses its inner effects");
}

#[test]
fn a_batcher_whose_storage_comes_back_allocates_nothing() {
    let mut batcher = LinkBatcher::new(FlushPolicy::fixed(3, Duration::from_millis(5)));
    let pool = BufferPool::new();
    let now = Instant::now();
    let cycle = |batcher: &mut LinkBatcher<Envelope<TwoBitMsg<u64>>>| {
        for e in batch(3) {
            batcher.push(e, now);
        }
        let flush = batcher.take_due(now, false).expect("size bound hit");
        let frame = Frame::from_envelopes(flush.batch);
        let blob = frame.encode_pooled(&pool).expect("codec");
        batcher.recycle(frame.into_vec());
        blob.len()
    };
    cycle(&mut batcher);
    // `batch(3)` itself builds a vector per call: count it separately.
    let ((), per_batch, _) = measured(|| drop(batch(3)));
    const ROUNDS: u64 = 100;
    let ((), allocs, _) = measured(|| {
        for _ in 0..ROUNDS {
            cycle(&mut batcher);
        }
    });
    assert_eq!(
        allocs,
        ROUNDS * (per_batch + 1),
        "push/take/recycle add nothing to the Bytes owner of each sealed frame"
    );
}

#[test]
fn publishing_to_the_read_cache_allocates_nothing() {
    const REGISTERS: usize = 64;
    for mode in [CacheMode::Safe, CacheMode::UnsafeAblated] {
        // The pair boxes its cells when it is built; nothing after that —
        // not a slot's first entry, not the first replaced one.
        let (mut writer, reader) = cache_pair::<u64>(REGISTERS, mode);
        let ((), allocs, _) = measured(|| {
            for round in 0..3u64 {
                for reg in 0..REGISTERS {
                    writer.publish(reg, round, reg % 2 == 0);
                    assert_eq!(writer.garbage_len(), 0);
                }
            }
            assert_eq!(reader.try_read(0), CacheDecision::Hit(2));
        });
        assert_eq!(allocs, 0, "{mode:?}: publish refills a spare cell");
    }
}

/// The cache's allocation win on the four read-mostly pairs of the pinned
/// table: with the writer's own fast read off on both sides, the safe run
/// allocates strictly less than the protocol run. A frame costs two
/// allocations and a local read saves only the frames it empties — two of
/// 572 on the 64-shard static row — so the counts are compared raw, not
/// as per-op averages.
#[test]
fn safe_read_cache_allocates_less_than_its_protocol_twin() {
    let cfg = common::cfg();
    let protocol_reads = TwoBitOptions {
        writer_fast_read: false,
        ..TwoBitOptions::default()
    };
    for hold in [STATIC, ADAPTIVE] {
        for shards in [16, 64] {
            let workload = readmostly_workload(shards);
            let allocs = |cache| {
                let mut sim = common::space(shards, hold, cache, false, |reg, id| {
                    TwoBitProcess::with_options(id, cfg, writer_of(reg), 0u64, protocol_reads)
                });
                measured(|| workload.run_pipelined_on(&mut sim).expect("workload runs")).1
            };
            let (proto, safe) = (allocs(CacheMode::Off), allocs(CacheMode::Safe));
            assert!(
                safe < proto,
                "{hold:?}/{shards} shards: safe {safe} >= proto {proto} allocations"
            );
        }
    }
}

/// `pairs` sequential write-then-read rounds through `driver`, after a
/// warm-up; returns the allocations the client thread made in them.
fn round_trip_allocs<D: Driver<Value = u64>>(driver: &mut D, pairs: u64) -> u64 {
    let (writer, reader, reg) = (ProcessId::new(0), ProcessId::new(1), RegisterId::ZERO);
    let round = |driver: &mut D, v: u64| {
        let t = driver
            .invoke(writer, reg, Operation::Write(v))
            .expect("invoke");
        assert_eq!(driver.poll(&t), Ok(OpOutcome::Written));
        let t = driver.invoke(reader, reg, Operation::Read).expect("invoke");
        assert_eq!(driver.poll(&t), Ok(OpOutcome::ReadValue(v)));
    };
    // Routes up, loops past their first frames.
    for v in 0..50 {
        round(driver, v);
    }
    let ((), allocs, _) = measured(|| {
        for v in 50..50 + pairs {
            round(driver, v);
        }
    });
    allocs
}

/// Each `(process, register)` pair's reply cell is built with the
/// deployment and reused, so neither live backend allocates per operation
/// on the client thread. What it still allocates is amortized: the
/// recorder's `Vec` and `HashMap` growth, and the mailbox channel's one
/// block per 31 sends.
#[test]
fn an_operation_round_trip_allocates_nothing_per_op() {
    const PAIRS: u64 = 2_000;
    let ops = 2 * PAIRS;
    let cfg = SystemConfig::new(3, 1).expect("n=3, t=1");
    let make = move |id| TwoBitProcess::new(id, cfg, ProcessId::new(0), 0u64);

    let mut node = ReactorClusterBuilder::new(cfg)
        .flush_policy(FlushPolicy::immediate())
        .build(0u64, make)
        .expect("reactor node starts");
    let allocs = round_trip_allocs(&mut node, PAIRS);
    node.shutdown();
    assert!(
        allocs < ops / 10,
        "reactor: {allocs} client-thread allocations for {ops} operations"
    );

    let mut cluster = ClusterBuilder::new(cfg)
        .delay(DelayModel::Fixed(0))
        .flush_policy(FlushPolicy::immediate())
        .build(0u64, make)
        .expect("cluster starts");
    let allocs = round_trip_allocs(&mut cluster, PAIRS);
    cluster.shutdown();
    assert!(
        allocs < ops / 10,
        "cluster: {allocs} client-thread allocations for {ops} operations"
    );
}

/// Most bytes a decoder may request for `len` input bytes: every element
/// it materialises is backed by at least one input bit (declared counts
/// are bounded by the remaining input before anything is reserved), a
/// growing vector at most doubles that, and the smallest vector holds four
/// elements.
fn decode_budget<T>(len: usize) -> u64 {
    ((2 * 8 * len + 4) * std::mem::size_of::<T>()) as u64
}

/// Feeds `blob` to every frame decoder; each must come back — `Ok` or a
/// typed error — within the allocation budget.
fn decode_within_budget<M: WireMessage>(blob: &[u8]) -> Result<(), String> {
    let budget = decode_budget::<Envelope<M>>(blob.len());
    let (plain, _, bytes) = measured(|| Frame::<M>::decode(blob));
    prop_assert!(
        bytes <= budget,
        "decode requested {bytes} B for {} input bytes (budget {budget})",
        blob.len()
    );
    let shared = Bytes::copy_from_slice(blob);
    let (viewed, _, bytes) = measured(|| Frame::<M>::decode_shared(&shared));
    prop_assert!(
        bytes <= budget,
        "decode_shared requested {bytes} B for {} input bytes (budget {budget})",
        blob.len()
    );
    // Storage a handler emptied, with room for a few envelopes already.
    let storage: Vec<Envelope<M>> = Vec::with_capacity(4);
    let (recycled, _, bytes) = measured(|| Frame::<M>::decode_into(blob, storage));
    prop_assert!(
        bytes <= budget,
        "decode_into requested {bytes} B for {} input bytes (budget {budget})",
        blob.len()
    );
    let verdict = |r: &Result<Frame<M>, WireError>| r.as_ref().map(Frame::len).map_err(|e| *e);
    prop_assert_eq!(
        verdict(&plain),
        verdict(&viewed),
        "decode and decode_shared disagree"
    );
    prop_assert_eq!(
        verdict(&plain),
        verdict(&recycled),
        "decode and decode_into disagree"
    );
    Ok(())
}

fn header_within_budget(bytes_in: &[u8]) -> Result<(), String> {
    let budget = decode_budget::<(RegisterId, u64)>(bytes_in.len());
    let (_, _, bytes) = measured(|| FrameHeader::decode(bytes_in));
    prop_assert!(
        bytes <= budget,
        "FrameHeader::decode requested {bytes} B for {} input bytes (budget {budget})",
        bytes_in.len()
    );
    Ok(())
}

/// Prefixes `body` with its own length, so the decoder gets past the
/// length check and into the part that parses hostile bits.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut blob = (body.len() as u32).to_be_bytes().to_vec();
    blob.extend_from_slice(body);
    blob
}

/// Bodies biased toward what a header parser finds plausible: short γ
/// codes up front, long zero and one runs behind them.
fn hostile_body() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), 0..6),
        prop::collection::vec(
            prop_oneof![Just(0u8), Just(0xFFu8), Just(0x55u8), any::<u8>()],
            0..200,
        ),
    )
        .prop_map(|(mut head, tail)| {
            head.extend(tail);
            head
        })
}

/// Feeds `bytes` to every decoder that faces a route socket: the hello and
/// welcome decoders within the frame decoders' allocation budget, the
/// record splitter and the ack parser without allocating at all. Whatever
/// decodes re-encodes to exactly the bytes it took.
fn route_decoders_within_budget(bytes: &[u8]) -> Result<(), String> {
    let (hello, _, requested) = measured(|| RouteHello::decode(bytes));
    let budget = decode_budget::<ProcessId>(bytes.len());
    prop_assert!(
        requested <= budget,
        "RouteHello::decode requested {requested} B for {} input bytes (budget {budget})",
        bytes.len()
    );
    if let Ok((hello, used)) = hello {
        prop_assert_eq!(hello.encode(), bytes[..used].to_vec(), "hello re-encodes");
    }
    let (welcome, _, requested) = measured(|| RouteWelcome::decode(bytes));
    let budget = decode_budget::<LinkSeq>(bytes.len());
    prop_assert!(
        requested <= budget,
        "RouteWelcome::decode requested {requested} B for {} input bytes (budget {budget})",
        bytes.len()
    );
    if let Ok((welcome, used)) = welcome {
        prop_assert_eq!(
            welcome.encode(),
            bytes[..used].to_vec(),
            "welcome re-encodes"
        );
    }
    let (record, allocs, _) = measured(|| linkseq::split_record(bytes));
    prop_assert_eq!(allocs, 0, "the record splitter allocates nothing");
    if let Ok(Some((_, total))) = record {
        prop_assert!(total <= bytes.len(), "a record longer than its input");
    }
    let (ack, allocs, _) = measured(|| LinkSeq::decode(bytes));
    prop_assert_eq!(allocs, 0, "the ack parser allocates nothing");
    if let Ok(ack) = ack {
        let mut again = Vec::new();
        ack.encode_into(&mut again);
        prop_assert_eq!(again, bytes[..LINK_SEQ_LEN].to_vec(), "ack re-encodes");
    }
    Ok(())
}

/// Bytes biased toward what a route handshake parser finds plausible: a
/// real magic, a zero reserved word and small counts up front most of the
/// time, anything behind them.
fn hostile_route_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![
            Just(HELLO_MAGIC.to_vec()),
            Just(WELCOME_MAGIC.to_vec()),
            prop::collection::vec(any::<u8>(), 0..8),
        ],
        prop_oneof![Just(vec![0u8; 4]), prop::collection::vec(any::<u8>(), 0..4)],
        (0u32..6, 0u32..6),
        prop::collection::vec(prop_oneof![Just(0u8), Just(0xFFu8), any::<u8>()], 0..120),
    )
        .prop_map(|(mut out, reserved, (a, b), tail)| {
            if out != WELCOME_MAGIC {
                out.extend(reserved);
            }
            out.extend(a.to_be_bytes());
            out.extend(b.to_be_bytes());
            out.extend(tail);
            out
        })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_or_blow_up_a_decoder(body in hostile_body()) {
        let blob = framed(&body);
        decode_within_budget::<TwoBitMsg<u64>>(&blob)?;
        decode_within_budget::<TwoBitMsg<Bytes>>(&blob)?;
        decode_within_budget::<MwmrMsg<u64>>(&blob)?;
        // Unframed too: the prefix check itself must hold up.
        decode_within_budget::<TwoBitMsg<u64>>(&body)?;
        header_within_budget(&body)?;
    }

    #[test]
    fn corrupted_frames_never_panic_or_blow_up_a_decoder(
        k in 1usize..40,
        stride in 1usize..9,
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..6),
    ) {
        let mut words: Vec<Envelope<TwoBitMsg<u64>>> = batch(k);
        for e in &mut words {
            e.reg = RegisterId::new(e.reg.index() * stride);
        }
        let payloads: Vec<Envelope<TwoBitMsg<Bytes>>> = (0..k)
            .map(|i| {
                let body = vec![i as u8; i % 11];
                env(i * stride % 23, TwoBitMsg::Write(Parity::Odd, Bytes::from(body)))
            })
            .collect();
        let counters: Vec<Envelope<MwmrMsg<u64>>> = (0..k)
            .map(|i| {
                let ts = Timestamp { num: 1 << (i % 50), pid: (i % 5) as u32 };
                env(i * stride % 23, MwmrMsg::Update { rid: i as u64, ts, value: i as u64 })
            })
            .collect();
        let corrupt = |blob: Bytes| {
            let mut blob = blob.to_vec();
            for &(at, bit) in &flips {
                // Past the length prefix, so the body is what gets parsed.
                let at = 4 + at as usize % (blob.len() - 4);
                blob[at] ^= 1 << bit;
            }
            blob
        };
        let blob = corrupt(Frame::from_envelopes(words).encode().expect("codec"));
        decode_within_budget::<TwoBitMsg<u64>>(&blob)?;
        header_within_budget(&blob[4..])?;
        let blob = corrupt(Frame::from_envelopes(payloads).encode().expect("codec"));
        decode_within_budget::<TwoBitMsg<Bytes>>(&blob)?;
        let blob = corrupt(Frame::from_envelopes(counters).encode().expect("codec"));
        decode_within_budget::<MwmrMsg<u64>>(&blob)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_or_blow_up_a_route_decoder(bytes in hostile_route_bytes()) {
        route_decoders_within_budget(&bytes)?;
    }

    #[test]
    fn corrupted_route_bytes_never_panic_or_blow_up_a_route_decoder(
        srcs in prop::collection::vec(0u16..64, 0..6),
        dsts in prop::collection::vec(0u16..64, 0..6),
        seqs in prop::collection::vec(any::<u64>(), 1..6),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..6),
    ) {
        let ids = |v: Vec<u16>| {
            let mut v: Vec<ProcessId> = v.into_iter().map(|i| ProcessId::new(i.into())).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let hello = RouteHello { srcs: ids(srcs), dsts: ids(dsts) }.encode();
        let links: Vec<LinkSeq> = seqs
            .iter()
            .enumerate()
            .map(|(i, &seq)| LinkSeq { src: ProcessId::new(i), dst: ProcessId::new(i + 1), seq })
            .collect();
        let welcome = RouteWelcome { links: links.clone() }.encode();
        let blob = Frame::from_envelopes(batch(3)).encode().expect("codec");
        let mut records = Vec::new();
        for link in links {
            linkseq::encode_record(link, &blob, &mut records);
            link.encode_into(&mut records);
        }
        for clean in [hello, welcome, records] {
            route_decoders_within_budget(&clean)?;
            let mut bytes = clean;
            for &(at, bit) in &flips {
                let at = at as usize % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            route_decoders_within_budget(&bytes)?;
        }
    }
}
