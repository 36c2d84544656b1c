//! What a reactor node allocates per operation, on every thread.
//!
//! `tests/alloc_budget.rs` counts per thread and prices single calls; the
//! benchmark package (`perfbench/`) reports `allocs_per_op` end to end,
//! but tier-1 never builds it. This binary counts every allocation the
//! process makes — the client thread, the event loops, the dialer —
//! through one global atomic, and holds a warmed all-local node running
//! the benchmark's deployment to less than one allocation per ten
//! operations: a frame allocates nothing from seal to handler, and an
//! operation nothing on its round trip. What is left is amortized growth
//! (histories, the recorder, the mailbox channels' blocks).
//!
//! The binary has one test, so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use twobit::lincheck::check_swmr_sharded;
use twobit::{
    Driver, FlushPolicy, OpOutcome, Operation, ProcessId, ReactorClusterBuilder, RegisterId,
    SystemConfig, TwoBitProcess,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of an atomic
// counter, which neither allocates nor can fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Processes and registers of the benchmark's `reactor_mixed`.
const N: usize = 5;
const REGISTERS: usize = 16;

/// The register's single writer, as the benchmark deals them.
fn writer_of(reg: usize) -> ProcessId {
    ProcessId::new(reg % N)
}

/// `rounds` rounds of one operation on every register at once — sixteen
/// in flight, half of them writes by the register's writer, half reads by
/// a process that is not — each round invoked whole, then polled whole.
fn run_rounds<D: Driver<Value = u64>>(driver: &mut D, rounds: std::ops::Range<u64>) -> u64 {
    let mut tickets = Vec::with_capacity(REGISTERS);
    let mut ops = 0;
    for round in rounds {
        for reg in 0..REGISTERS {
            let (writer, r) = (writer_of(reg), RegisterId::new(reg));
            let write = (round + reg as u64).is_multiple_of(2);
            let (proc, op) = if write {
                (writer, Operation::Write(round + 1))
            } else {
                let offset = 1 + (round as usize + reg) % (N - 1);
                (
                    ProcessId::new((writer.index() + offset) % N),
                    Operation::Read,
                )
            };
            let ticket = driver.invoke(proc, r, op).expect("invoke");
            tickets.push((ticket, write));
        }
        for (ticket, write) in tickets.drain(..) {
            match driver.poll(&ticket).expect("operation completes") {
                OpOutcome::Written => assert!(write),
                OpOutcome::ReadValue(_) => assert!(!write),
            }
            ops += 1;
        }
    }
    ops
}

#[test]
fn a_warmed_reactor_node_allocates_nothing_per_operation() {
    let cfg = SystemConfig::max_resilience(N);
    let mut node = ReactorClusterBuilder::new(cfg)
        .pool_size(2)
        .registers(REGISTERS)
        .flush_policy(FlushPolicy::adaptive(
            64,
            Duration::ZERO,
            Duration::from_micros(200),
        ))
        .build_sharded(0u64, |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg.index()), 0u64)
        })
        .expect("reactor node starts");
    // Routes up; every link's batcher, resend log and the loops' decode
    // storage grown to their working size.
    run_rounds(&mut node, 0..250);
    let before = ALLOCS.load(Ordering::Relaxed);
    let ops = run_rounds(&mut node, 250..500);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let (history, stats) = node.shutdown();
    check_swmr_sharded(&history).expect("atomic");
    assert_eq!(stats.reconnects(), 0);
    assert!(
        allocs < ops / 10,
        "{allocs} allocations for {ops} operations ({:.2} per operation)",
        allocs as f64 / ops as f64
    );
}
