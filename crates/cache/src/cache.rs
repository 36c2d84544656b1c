//! The per-process register cache and its safety gate.
//!
//! One [`CacheWriter`]/[`CacheReader`] pair exists per process. The writer
//! half lives with the process's event loop and publishes a snapshot on
//! every *locally completed* operation (a completed write publishes the
//! written value, a completed read the value it returned); the reader half
//! lives with the invocation path and answers: *may this read be served
//! right now, with no communication at all?*
//!
//! # The safety gate
//!
//! In the paper's `CAMP_{n,t}` model a cached value at an arbitrary
//! process can never be served safely: a remote write completes against a
//! quorum that may exclude this process, so "my cache was confirmed by a
//! completed operation" is indistinguishable from "a newer write finished
//! elsewhere" — serving it risks a new/old inversion. The gate therefore
//! admits a local read only when **this process is the register's single
//! writer** (per [`Automaton::swmr_writer`]): the writer observes every
//! write before it completes, so its latest locally-completed value is
//! always current. This is the driver-level generalization of Fig. 1's
//! "the writer can directly return its value" remark (`writer_fast_read`),
//! extended to any SWMR automaton and measured in `NetStats`.
//!
//! [`CacheMode::UnsafeAblated`] removes the gate — any confirmed entry is
//! served blindly at any process. It exists as a negative control: the
//! model checker must (and does) find the resulting stale read, proving
//! the gate is load-bearing. See `docs/read-cache.md`.
//!
//! # Allocation
//!
//! Entries live in boxes, because that is what an epoch [`Slot`] swaps,
//! but publishing does not allocate: [`cache_pair`] boxes one vacant cell
//! per register (and one to swap with) up front, a publish fills a spare
//! cell and stores it, and the cell it replaced comes back as a spare once
//! no reader can still see it — at once, unless a read is in progress on
//! another thread. Only a publish that finds no spare left boxes a cell.
//!
//! [`Automaton::swmr_writer`]: https://docs.rs/twobit-proto

use std::sync::Arc;

use crate::epoch::{self, EpochWriter, ReaderHandle, Slot};

/// How (whether) a backend consults the local read cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache: every read runs the message protocol (the pre-cache
    /// behavior, and the baseline the pinned `proto` rows compare against).
    #[default]
    Off,
    /// Serve a read locally only when the safety gate holds: the reading
    /// process is the register's SWMR writer and holds a confirmed entry.
    Safe,
    /// Serve any confirmed entry at any process, ignoring the gate.
    /// **Deliberately unsound** — a negative control for the checkers.
    UnsafeAblated,
}

/// A confirmed cache entry for one register.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Whether the publishing process is this register's single writer —
    /// the gate's co-location bit, captured at publish time.
    writer_here: bool,
}

/// What the cache said about one read attempt. Each variant maps onto one
/// `NetStats` counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheDecision<V> {
    /// Serve the read locally with this value: no messages, no wire bytes.
    Hit(V),
    /// No confirmed entry for this register; run the protocol.
    Miss,
    /// An entry exists but the safety gate refused it; run the protocol.
    Fallback,
}

/// What a slot's box holds. Every cell a reader can reach is `Some`; a
/// spare one is vacant, so a replaced value is dropped when its cell is
/// reclaimed, not when the cell is next used.
type Cell<V> = Option<Entry<V>>;

/// The slots shared by the two halves of one process's cache.
#[derive(Debug)]
struct SlotTable<V: Send + Sync + 'static> {
    slots: Vec<Slot<Cell<V>>>,
}

/// Creates one process's cache: the writer half for its event loop, the
/// reader half for its invocation path. `registers` is the register-space
/// size; `mode` applies to both halves.
pub fn cache_pair<V: Clone + Send + Sync + 'static>(
    registers: usize,
    mode: CacheMode,
) -> (CacheWriter<V>, CacheReader<V>) {
    let (writer, registry) = epoch::new();
    let table = Arc::new(SlotTable {
        slots: (0..registers).map(|_| Slot::empty()).collect(),
    });
    // One cell per register for the slots to hold, one more for the swap.
    let spare = match mode {
        CacheMode::Off => Vec::new(),
        CacheMode::Safe | CacheMode::UnsafeAblated => {
            (0..=registers).map(|_| Box::new(None)).collect()
        }
    };
    (
        CacheWriter {
            table: Arc::clone(&table),
            writer,
            spare,
            mode,
        },
        CacheReader {
            table,
            reader: registry.register(),
            mode,
        },
    )
}

/// The publishing half: owned by the process event loop, updated on every
/// locally-completed operation.
#[derive(Debug)]
pub struct CacheWriter<V: Send + Sync + 'static> {
    table: Arc<SlotTable<V>>,
    writer: EpochWriter<Cell<V>>,
    /// Vacant cells for the next publishes: the ones [`cache_pair`] made,
    /// less those the slots hold, plus reclaimed ones — never more than
    /// there were at the start.
    spare: Vec<Box<Cell<V>>>,
    mode: CacheMode,
}

impl<V: Clone + Send + Sync + 'static> CacheWriter<V> {
    /// Publishes the value of a locally-completed operation on register
    /// `reg`. `writer_here` records whether this process is the register's
    /// SWMR writer (from `Automaton::swmr_writer`). Replaced snapshots are
    /// reclaimed epoch-deferred — never under a concurrent reader.
    pub fn publish(&mut self, reg: usize, value: V, writer_here: bool) {
        if self.mode == CacheMode::Off {
            return;
        }
        let entry = Some(Entry { value, writer_here });
        let cell = match self.spare.pop() {
            Some(mut cell) => {
                *cell = entry;
                cell
            }
            // Replaced cells are still pinned by a reader.
            None => Box::new(entry),
        };
        self.table.slots[reg].store(cell, &mut self.writer);
        let most = self.table.slots.len() + 1;
        self.writer.try_reclaim_with(|mut cell| {
            *cell = None;
            if self.spare.len() < most {
                self.spare.push(cell);
            }
        });
    }

    /// The configured mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Replaced-but-unreclaimed snapshots (0 in quiescence).
    pub fn garbage_len(&self) -> usize {
        self.writer.garbage_len()
    }
}

/// The serving half: owned by the invocation path; decides per read.
#[derive(Debug)]
pub struct CacheReader<V: Send + Sync + 'static> {
    table: Arc<SlotTable<V>>,
    reader: ReaderHandle,
    mode: CacheMode,
}

impl<V: Clone + Send + Sync + 'static> CacheReader<V> {
    /// Consults the cache for a read on register `reg`. Lock-free: pins an
    /// epoch, loads the slot, applies the gate, clones the value out (for
    /// `bytes::Bytes` values the clone is a reference-count bump — the
    /// read really is a pointer load).
    pub fn try_read(&self, reg: usize) -> CacheDecision<V> {
        if self.mode == CacheMode::Off {
            return CacheDecision::Miss;
        }
        let guard = self.reader.pin();
        match self.table.slots[reg].load(&guard).and_then(Option::as_ref) {
            None => CacheDecision::Miss,
            Some(entry) => {
                if entry.writer_here || self.mode == CacheMode::UnsafeAblated {
                    CacheDecision::Hit(entry.value.clone())
                } else {
                    CacheDecision::Fallback
                }
            }
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_never_serves_and_never_stores() {
        let (mut w, r) = cache_pair::<u64>(2, CacheMode::Off);
        w.publish(0, 7, true);
        assert_eq!(r.try_read(0), CacheDecision::Miss);
        assert_eq!(w.garbage_len(), 0);
    }

    #[test]
    fn safe_mode_gates_on_writer_co_location() {
        let (mut w, r) = cache_pair::<u64>(3, CacheMode::Safe);
        assert_eq!(r.try_read(0), CacheDecision::Miss, "nothing confirmed yet");
        w.publish(0, 10, true); // this process is register 0's writer
        w.publish(1, 20, false); // ...but only a reader of register 1
        assert_eq!(r.try_read(0), CacheDecision::Hit(10));
        assert_eq!(r.try_read(1), CacheDecision::Fallback, "gate refuses");
        assert_eq!(r.try_read(2), CacheDecision::Miss);
        // Later completions replace the snapshot.
        w.publish(0, 11, true);
        assert_eq!(r.try_read(0), CacheDecision::Hit(11));
    }

    #[test]
    fn ablated_mode_serves_blindly() {
        let (mut w, r) = cache_pair::<u64>(1, CacheMode::UnsafeAblated);
        w.publish(0, 99, false);
        assert_eq!(
            r.try_read(0),
            CacheDecision::Hit(99),
            "the ablation serves entries the gate would refuse — that is \
             exactly what the model checker must catch"
        );
    }

    #[test]
    fn publishes_under_a_pinned_reader_box_fresh_cells_and_keep_no_extra_spares() {
        let (mut w, r) = cache_pair::<u64>(1, CacheMode::Safe);
        assert_eq!(w.spare.len(), 2, "one cell per register, one to swap");
        let guard = r.reader.pin();
        for i in 0..5 {
            w.publish(0, i, true);
        }
        // Nothing replaced under the pin came back: the spares ran out
        // after two publishes and the other three boxed their cells.
        assert_eq!(w.spare.len(), 0);
        assert_eq!(w.garbage_len(), 4);
        drop(guard);
        w.publish(0, 9, true);
        assert_eq!(w.garbage_len(), 0, "unpinned: everything reclaimed");
        assert_eq!(w.spare.len(), 2, "the surplus cells were freed");
        assert_eq!(r.try_read(0), CacheDecision::Hit(9));
    }

    #[test]
    fn publishes_reclaim_across_threads() {
        // Writer half on one thread, reader half on another: the epoch
        // machinery keeps every served snapshot valid.
        const ROUNDS: u64 = 20_000;
        let (mut w, r) = cache_pair::<Vec<u64>>(1, CacheMode::Safe);
        w.publish(0, vec![0, 0], true);
        let reader = std::thread::spawn(move || {
            // Spin until the writer's final snapshot is visible; every
            // intermediate observation must be monotone and untorn.
            let mut last = 0;
            loop {
                match r.try_read(0) {
                    CacheDecision::Hit(v) => {
                        assert_eq!(v[0], v[1], "torn snapshot");
                        assert!(v[0] >= last, "snapshots move forward");
                        last = v[0];
                        if last == ROUNDS {
                            return;
                        }
                    }
                    other => panic!("confirmed entry vanished: {other:?}"),
                }
            }
        });
        for i in 1..=ROUNDS {
            w.publish(0, vec![i, i], true);
        }
        reader.join().expect("reader panicked");
        w.publish(0, vec![ROUNDS, ROUNDS], true);
        assert!(
            w.garbage_len() <= 1,
            "steady-state reclamation keeps garbage bounded"
        );
    }
}
