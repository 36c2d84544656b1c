//! Reusable encode buffers: the allocation side of the zero-copy hot path.
//!
//! [`Frame::encode`](crate::Frame::encode) builds a fresh blob per frame —
//! fine for tests, but on a busy link the allocator becomes the hot path:
//! one `Vec` per flush, freed as soon as the frame is done with. A
//! [`BufferPool`] breaks that cycle. Whoever seals frames (the simulator,
//! a benchmark) owns one pool;
//! [`Frame::encode_pooled`](crate::Frame::encode_pooled) checks a recycled
//! `Vec<u8>` out, encodes into it (capacity warm from an earlier frame of
//! similar size), and freezes it into a [`Bytes`] whose owner is a
//! [`PooledBuf`] — when the last `Bytes` view of the frame drops, the
//! buffer returns to the pool instead of the allocator. Steady state is
//! one allocation per frame on the encode side: the `Bytes` handle itself.
//! The simulator and the chaos-link runtime seal this way, because their
//! frames travel as `Bytes`. The reactor does not: it appends each frame
//! to its link's resend log with
//! [`Frame::encode_append`](crate::Frame::encode_append) and allocates
//! nothing.
//!
//! *When* that last view drops decides how many buffers a pool must
//! retain. A transport that drops the blob after its socket write has one
//! or two out at a time, which is what [`BufferPool::new`] retains for. An
//! owner that gets its blobs back in bursts must retain the burst, or it
//! frees most of it and then misses on almost every checkout until the
//! next burst; it builds its pool with [`BufferPool::with_retention`]. A
//! miss is not a growth spiral either way: the encoder sizes a cold buffer
//! exactly, once.
//!
//! The pool is deliberately tiny: a mutex-guarded free list, bounded so a
//! burst cannot pin unbounded memory. The `Bytes` owner holds only a
//! [`Weak`] pool handle, so dropping the pool (link teardown) lets in-flight
//! buffers free normally instead of resurrecting a dead free list.

use std::sync::{Arc, Mutex, Weak};

use bytes::Bytes;

/// Buffers a [`BufferPool::new`] pool retains; beyond this, returned
/// buffers are freed. Enough for an owner whose blobs die right after the
/// write that carried them.
const POOL_CAP: usize = 8;

/// A bounded free list of encode buffers for one producer of frames.
///
/// # Examples
///
/// ```
/// use twobit_proto::BufferPool;
///
/// let pool = BufferPool::new();
/// let a = pool.checkout();
/// pool.put_back(a);
/// let _b = pool.checkout(); // reuses `a`'s allocation
/// assert_eq!(pool.recycled(), 1);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Most buffers the free list holds.
    retain: usize,
    recycled: std::sync::atomic::AtomicU64,
}

impl BufferPool {
    /// Creates an empty pool behind an [`Arc`] (the handle
    /// [`Frame::encode_pooled`](crate::Frame::encode_pooled) takes),
    /// retaining a handful of buffers.
    pub fn new() -> Arc<BufferPool> {
        BufferPool::with_retention(POOL_CAP)
    }

    /// Creates an empty pool that retains up to `retain` returned buffers
    /// — for owners that get their blobs back in bursts (see the module
    /// docs). The bound is what keeps a burst from pinning memory forever;
    /// derive it from the protocol constants that size the burst.
    pub fn with_retention(retain: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            free: Mutex::new(Vec::new()),
            retain,
            recycled: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Hands out a buffer: a recycled one when the free list is non-empty,
    /// otherwise a fresh `Vec`.
    pub fn checkout(&self) -> Vec<u8> {
        let recycled = self.free.lock().expect("pool poisoned").pop();
        match recycled {
            Some(buf) => {
                self.recycled
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the free list (freed instead if the pool is at
    /// capacity).
    pub fn put_back(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().expect("pool poisoned");
        if free.len() < self.retain {
            free.push(buf);
        }
    }

    /// How many checkouts reused a pooled buffer instead of allocating —
    /// the figure the bench harness reports as recycle effectiveness.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Buffers currently sitting in the free list.
    pub fn available(&self) -> usize {
        self.free.lock().expect("pool poisoned").len()
    }

    /// Freezes a filled buffer into an immutable [`Bytes`] that returns
    /// `buf` to this pool when the last view drops.
    pub fn freeze(self: &Arc<Self>, buf: Vec<u8>) -> Bytes {
        Bytes::from_owner(PooledBuf {
            buf,
            pool: Arc::downgrade(self),
        })
    }
}

/// The owner type behind a pooled [`Bytes`]: a filled encode buffer plus a
/// weak handle to the pool it rejoins on drop.
#[derive(Debug)]
struct PooledBuf {
    buf: Vec<u8>,
    pool: Weak<BufferPool>,
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put_back(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_put_back_recycles() {
        let pool = BufferPool::new();
        assert_eq!(pool.recycled(), 0);
        let mut a = pool.checkout();
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put_back(a);
        assert_eq!(pool.available(), 1);
        let b = pool.checkout();
        assert!(b.capacity() >= cap, "allocation was reused");
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn frozen_bytes_return_their_buffer_on_last_drop() {
        let pool = BufferPool::new();
        let mut buf = pool.checkout();
        buf.extend_from_slice(&[9, 8, 7]);
        let frozen = pool.freeze(buf);
        let view = frozen.slice(1..);
        drop(frozen);
        assert_eq!(pool.available(), 0, "a view still holds the buffer");
        assert_eq!(&view[..], &[8, 7]);
        drop(view);
        assert_eq!(pool.available(), 1, "last view returned the buffer");
        // And the round trip counts as a recycle on the next checkout.
        let again = pool.checkout();
        assert!(again.capacity() >= 3);
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn dead_pool_does_not_leak_inflight_buffers() {
        let pool = BufferPool::new();
        let frozen = pool.freeze(vec![1, 2]);
        drop(pool);
        // The weak handle is dead; dropping the view frees normally.
        drop(frozen);
    }

    #[test]
    fn retention_is_what_the_owner_asked_for() {
        // A 32-frame ack window returning at once must all be kept...
        let pool = BufferPool::with_retention(32);
        for _ in 0..40 {
            pool.put_back(Vec::with_capacity(16));
        }
        assert_eq!(pool.available(), 32);
        // ...so the next window's checkouts all hit.
        for _ in 0..32 {
            assert!(pool.checkout().capacity() >= 16);
        }
        assert_eq!(pool.recycled(), 32);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..100 {
            pool.put_back(Vec::with_capacity(64));
        }
        assert!(pool.available() <= 8, "pool must stay bounded");
    }
}
