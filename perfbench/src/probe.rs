//! Process-wide probes sampled at the edges of a timed section: the
//! counting allocator and the process's CPU time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A `System` allocator that counts. The benchmark binary (and the smoke
/// test) install it with `#[global_allocator]`; where it is not installed
/// the counters stay 0.
#[derive(Debug)]
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are relaxed counter updates,
// which publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocReading {
    /// Calls to `alloc` and `realloc`.
    pub allocs: u64,
    /// Bytes handed out.
    pub allocated: u64,
    /// Bytes given back.
    pub freed: u64,
}

impl AllocReading {
    /// The counters now.
    pub fn now() -> Self {
        AllocReading {
            allocs: ALLOCS.load(Ordering::Relaxed),
            allocated: ALLOCATED.load(Ordering::Relaxed),
            freed: FREED.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently live.
    pub fn live(&self) -> i64 {
        self.allocated as i64 - self.freed as i64
    }
}

/// `struct timespec` on 64-bit Linux.
#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[cfg(target_os = "linux")]
extern "C" {
    // `std` already links the platform libc, so declaring this adds no
    // dependency (the reactor's poller does the same for `ppoll`).
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, at nanosecond
/// resolution. (`/proc/self/stat` has the same figure in 10 ms ticks: too
/// coarse for a 3 s section, where it would read the same on every run.)
/// 0 off Linux.
pub fn cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, exclusively borrowed `timespec` of the
        // layout the 64-bit Linux ABI defines; the call writes only to it.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 / 1e9;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() - before > 0.03,
            "60 ms of spinning is CPU time"
        );
    }
}
