//! Single-writer multi-reader epoch-based reclamation.
//!
//! The pattern (after the `swmr-epoch` design): one **writer** owns every
//! mutation and advances a global epoch counter; any number of **readers**
//! pin the current epoch with an RAII [`Guard`] before touching shared
//! pointers and unpin on drop. A [`Slot`] replaced by the writer is not
//! freed — it is *retired* at the current epoch, and reclaimed only once
//! every active reader has pinned a strictly later epoch, at which point no
//! guard that could still observe the old pointer exists. The read path is
//! lock-free and allocation-free: a pin is two atomic stores and a load, a
//! [`Slot::load`] is one `Acquire` pointer load. The write path need not
//! allocate either: [`EpochWriter::try_reclaim_with`] hands reclaimed boxes
//! back to the caller, who may refill and store them again.
//!
//! Memory ordering: epoch transitions and pins use `SeqCst` so the writer's
//! *unlink → advance* sequence and a reader's *pin → re-check* handshake
//! fall into one total order (the standard epoch argument: a reader whose
//! slot publishes epoch `e` started its critical section after the epoch
//! reached `e`, hence after every unlink retired at an epoch `< e` — so
//! retiring garbage is safe once `min(active pins) > retire epoch`).
//!
//! This crate contains the workspace's only `unsafe` code (the pointer
//! dereference behind [`Slot::load`] and the `Box::from_raw` behind
//! reclamation); each site documents the invariant that justifies it.
//! A writer serves slots of one type `T`, so what it reclaims comes back
//! typed.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Sentinel stored in a reader's slot while it holds no guard.
const IDLE: u64 = u64::MAX;

/// State shared between the writer and every reader.
#[derive(Debug)]
struct Shared {
    /// The global epoch. Only [`EpochWriter::advance`] increments it.
    epoch: AtomicU64,
    /// Registered readers (weak, so dropped handles fall out on their own).
    /// Locked only on registration and during reclamation — never on the
    /// pin/load path.
    readers: Mutex<Vec<Weak<ReaderSlot>>>,
}

/// One reader's published pin state.
#[derive(Debug)]
struct ReaderSlot {
    /// The epoch this reader is pinned at, or [`IDLE`].
    active: AtomicU64,
}

/// Creates a connected writer/registry pair for slots holding `T`.
pub fn new<T: Send + Sync + 'static>() -> (EpochWriter<T>, ReaderRegistry) {
    let shared = Arc::new(Shared {
        epoch: AtomicU64::new(0),
        readers: Mutex::new(Vec::new()),
    });
    (
        EpochWriter {
            shared: Arc::clone(&shared),
            // Room for the one box a store retires when it is reclaimed
            // before the next: the list grows only under a pinned reader.
            garbage: Vec::with_capacity(1),
        },
        ReaderRegistry { shared },
    )
}

/// The single mutating side: advances the epoch, collects retired boxes,
/// and reclaims them once no reader can still see them.
#[derive(Debug)]
pub struct EpochWriter<T: Send + Sync + 'static> {
    shared: Arc<Shared>,
    /// Retired allocations, tagged with the epoch they were unlinked at.
    garbage: Vec<(u64, *mut T)>,
}

// SAFETY: the raw pointers in `garbage` are uniquely owned retired boxes
// (unlinked from every `Slot`, reachable only here); moving the writer to
// another thread moves that ownership with it.
unsafe impl<T: Send + Sync + 'static> Send for EpochWriter<T> {}

impl<T: Send + Sync + 'static> EpochWriter<T> {
    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Advances the global epoch. Call after unlinking (see
    /// [`Slot::store`], which does this for you).
    fn advance(&self) {
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Takes ownership of a retired allocation, to be freed once every
    /// reader has moved past the current epoch.
    fn retire(&mut self, ptr: *mut T) {
        let at = self.shared.epoch.load(Ordering::SeqCst);
        self.garbage.push((at, ptr));
    }

    /// Frees every retired allocation no pinned reader can still observe;
    /// returns how many were reclaimed. Cheap when there is no garbage.
    pub fn try_reclaim(&mut self) -> usize {
        self.try_reclaim_with(drop)
    }

    /// As [`EpochWriter::try_reclaim`], but hands each reclaimed box to
    /// `reclaimed` instead of freeing it — a writer that keeps them can
    /// store its next values without allocating.
    pub fn try_reclaim_with(&mut self, mut reclaimed: impl FnMut(Box<T>)) -> usize {
        if self.garbage.is_empty() {
            return 0;
        }
        let min_active = {
            let mut readers = self
                .shared
                .readers
                .lock()
                .expect("reader registry poisoned");
            // Drop registry entries whose handle is gone.
            readers.retain(|w| w.strong_count() > 0);
            readers
                .iter()
                .filter_map(Weak::upgrade)
                .map(|slot| slot.active.load(Ordering::SeqCst))
                .min()
                .unwrap_or(IDLE)
        };
        let before = self.garbage.len();
        // An item retired at epoch `r` is safe once every active pin is at
        // an epoch `> r`: such readers entered their critical section after
        // the unlink, so they can only see the replacement pointer.
        let mut i = 0;
        while i < self.garbage.len() {
            let (retired_at, ptr) = self.garbage[i];
            if retired_at >= min_active {
                i += 1;
                continue;
            }
            // Off the list before it is handed out, so a panicking
            // `reclaimed` cannot leave a pointer behind to be freed twice.
            self.garbage.swap_remove(i);
            // SAFETY: `ptr` came from `Box::into_raw` in `Slot::store`, was
            // unlinked there (no Slot holds it), and the epoch condition
            // above proves no guard can still dereference it — so whoever
            // receives the box owns it outright, to free or to refill. It
            // left `garbage` on the line above, so it is handed out once.
            reclaimed(unsafe { Box::from_raw(ptr) });
        }
        before - self.garbage.len()
    }

    /// Retired allocations not yet reclaimed.
    pub fn garbage_len(&self) -> usize {
        self.garbage.len()
    }
}

impl<T: Send + Sync + 'static> Drop for EpochWriter<T> {
    fn drop(&mut self) {
        // The writer owns all retired allocations; free them regardless of
        // readers — a `Guard` cannot outlive the `Slot`s it reads through,
        // and those keep the values they still expose (only *replaced*
        // values are ever in `garbage`, and a guard pinned before a
        // replacement blocks `try_reclaim`, not this drop). Dropping the
        // writer while readers are mid-guard is prevented by the owning
        // structure (`CacheWriter` / `CacheReader` share the `Shared` arc,
        // and the cache API never frees slots before both halves dropped).
        for (_, ptr) in self.garbage.drain(..) {
            // SAFETY: uniquely owned retired box, freed exactly once.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// Cloneable handle readers register through.
#[derive(Clone, Debug)]
pub struct ReaderRegistry {
    shared: Arc<Shared>,
}

impl ReaderRegistry {
    /// Registers a new logical reader. Each handle represents **one**
    /// reader at a time (guards from one handle must not overlap across
    /// threads — the handle is deliberately `!Sync`); register one handle
    /// per reading thread.
    pub fn register(&self) -> ReaderHandle {
        let slot = Arc::new(ReaderSlot {
            active: AtomicU64::new(IDLE),
        });
        self.shared
            .readers
            .lock()
            .expect("reader registry poisoned")
            .push(Arc::downgrade(&slot));
        ReaderHandle {
            slot,
            shared: Arc::clone(&self.shared),
            _single_threaded: PhantomData,
        }
    }
}

/// One registered reader: pins epochs, producing RAII [`Guard`]s.
#[derive(Debug)]
pub struct ReaderHandle {
    slot: Arc<ReaderSlot>,
    shared: Arc<Shared>,
    /// Keeps the handle `Send` but `!Sync`: one logical reader per handle.
    _single_threaded: PhantomData<std::cell::Cell<()>>,
}

impl ReaderHandle {
    /// Pins the current epoch, returning a guard that keeps every pointer
    /// loaded under it alive until the guard drops. Lock-free.
    pub fn pin(&self) -> Guard<'_> {
        let prev = self.slot.active.load(Ordering::Relaxed);
        loop {
            let e = self.shared.epoch.load(Ordering::SeqCst);
            // Publish the pin, then re-check: if the writer advanced in
            // between, the published pin may be too old to block a
            // concurrent reclamation — re-publish at the newer epoch.
            // (Nested guards only ever tighten: `e` ≥ the outer pin.)
            self.slot.active.store(e.min(prev), Ordering::SeqCst);
            if self.shared.epoch.load(Ordering::SeqCst) == e {
                return Guard {
                    slot: &self.slot,
                    restore: prev,
                };
            }
        }
    }
}

/// RAII pin on an epoch. While alive, the writer reclaims nothing retired
/// at or after the pinned epoch, so references obtained via
/// [`Slot::load`] under this guard stay valid.
#[derive(Debug)]
pub struct Guard<'r> {
    slot: &'r ReaderSlot,
    /// The slot value to restore on drop ([`IDLE`], or the enclosing
    /// guard's pin when guards nest).
    restore: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.slot.active.store(self.restore, Ordering::SeqCst);
    }
}

/// A writer-mutated, reader-shared pointer cell: the unit the cache stores
/// one register's entry in.
#[derive(Debug)]
pub struct Slot<T: Send + Sync + 'static> {
    ptr: AtomicPtr<T>,
}

impl<T: Send + Sync + 'static> Slot<T> {
    /// An empty slot.
    pub fn empty() -> Self {
        Slot {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Loads the current value under `guard`; `None` while empty. The
    /// reference lives as long as the guard: reclamation of a replaced
    /// value waits for every guard pinned no later than the replacement.
    pub fn load<'g>(&self, _guard: &'g Guard<'_>) -> Option<&'g T> {
        let p = self.ptr.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: `p` was published by `Slot::store` from
            // `Box::into_raw` (valid, aligned, initialized). It cannot be
            // freed while this guard lives: reclamation requires every
            // active pin to be *after* the retire epoch, and this load
            // happens under a pin taken before it — the guard's lifetime
            // bound keeps the reference from escaping the pin.
            Some(unsafe { &*p })
        }
    }

    /// Replaces the value (writer side), retiring the old allocation into
    /// the writer's garbage list and advancing the epoch.
    pub fn store(&self, value: Box<T>, writer: &mut EpochWriter<T>) {
        let new = Box::into_raw(value);
        let old = self.ptr.swap(new, Ordering::AcqRel);
        // Unlink first, then advance: a reader that pins the post-advance
        // epoch can only load `new`.
        writer.advance();
        if !old.is_null() {
            writer.retire(old);
        }
    }
}

impl<T: Send + Sync + 'static> Drop for Slot<T> {
    fn drop(&mut self) {
        let p = self.ptr.load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: dropping the slot means no reader can reach it any
            // more (the owning cache keeps slots alive as long as any
            // reader handle); the current pointer is uniquely owned here.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A payload that counts its drops, to observe reclamation directly.
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_sees_latest_store() {
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let reader = registry.register();
        assert!(slot.load(&reader.pin()).is_none());
        slot.store(Box::new(41), &mut w);
        slot.store(Box::new(42), &mut w);
        let guard = reader.pin();
        assert_eq!(slot.load(&guard), Some(&42));
    }

    #[test]
    fn reclamation_waits_for_active_guards() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let reader = registry.register();

        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        let guard = reader.pin();
        let held = slot.load(&guard).expect("stored");
        // Replace while a guard still references the old value.
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        assert_eq!(w.try_reclaim(), 0, "pinned epoch blocks reclamation");
        assert_eq!(w.garbage_len(), 1);
        // The old reference is still valid — this read is the whole point.
        assert_eq!(held.0.load(Ordering::SeqCst), 0);
        drop(guard);
        assert_eq!(w.try_reclaim(), 1, "unpinned: old value reclaimed");
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(w.garbage_len(), 0);
    }

    #[test]
    fn idle_readers_do_not_block_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let _reader = registry.register(); // registered, never pinned
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        assert_eq!(w.try_reclaim(), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_handles_unregister_themselves() {
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let reader = registry.register();
        slot.store(Box::new(1u64), &mut w);
        let guard = reader.pin();
        slot.store(Box::new(2u64), &mut w);
        assert_eq!(w.try_reclaim(), 0);
        drop(guard);
        drop(reader);
        assert_eq!(w.try_reclaim(), 1, "a dead handle cannot pin anything");
    }

    #[test]
    fn nested_guards_keep_the_outer_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let reader = registry.register();
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        let outer = reader.pin();
        let held = slot.load(&outer).expect("stored");
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        {
            let inner = reader.pin();
            let _ = slot.load(&inner);
            // Dropping the inner guard must not unpin the outer one.
        }
        assert_eq!(w.try_reclaim(), 0, "outer guard still pins the epoch");
        assert_eq!(held.0.load(Ordering::SeqCst), 0);
        drop(outer);
        assert_eq!(w.try_reclaim(), 1);
    }

    #[test]
    fn writer_drop_frees_outstanding_garbage() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut w, registry) = new();
        let slot = Slot::empty();
        let reader = registry.register();
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        slot.store(Box::new(Counted(Arc::clone(&drops))), &mut w);
        let _ = reader; // keep registered
        drop(w); // one retired value still in garbage
        drop(slot); // current value freed by the slot
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_readers_never_observe_freed_memory() {
        // Stress: one writer replacing values, many readers validating a
        // self-consistency stamp. Under address-sanitizer-free CI this
        // still catches gross reclamation bugs via the stamp invariant.
        let (mut w, registry) = new();
        let slot = Arc::new(Slot::empty());
        slot.store(Box::new((0u64, 0u64)), &mut w);
        let stop = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for _ in 0..4 {
            let slot = Arc::clone(&slot);
            let registry = registry.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let reader = registry.register();
                let mut last = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let guard = reader.pin();
                    let &(a, b) = slot.load(&guard).expect("never emptied");
                    assert_eq!(a, b, "torn or reclaimed value observed");
                    assert!(a >= last, "values move forward");
                    last = a;
                }
            }));
        }
        for i in 1..=10_000u64 {
            slot.store(Box::new((i, i)), &mut w);
            if i % 64 == 0 {
                w.try_reclaim();
            }
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().expect("reader panicked");
        }
        w.try_reclaim();
        assert!(w.garbage_len() <= 1, "reclamation keeps up once unpinned");
    }
}
