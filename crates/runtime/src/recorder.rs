//! Shared history recorder with client-side monotonic timestamps.

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;
use twobit_proto::{
    History, OpId, OpOutcome, OpRecord, Operation, ProcessId, RecoveryRecord, RegisterId,
    ShardedHistory,
};

/// Records operation invocations/responses from many client threads,
/// tagging each operation with its target register.
///
/// Public so the reactor (through [`Spine`](crate::Spine)) and the benchmark
/// record histories with the same clock and projection semantics.
pub struct Recorder<V> {
    start: Instant,
    initial: V,
    inner: Mutex<Inner<V>>,
}

impl<V: std::fmt::Debug> std::fmt::Debug for Recorder<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("initial", &self.initial)
            .finish_non_exhaustive()
    }
}

struct Inner<V> {
    records: Vec<(RegisterId, OpRecord<V>)>,
    index: HashMap<OpId, usize>,
    recoveries: Vec<RecoveryRecord>,
}

impl<V: Clone> Recorder<V> {
    /// Creates a recorder whose histories start from `initial`.
    pub fn new(initial: V) -> Self {
        Recorder {
            start: Instant::now(),
            initial,
            inner: Mutex::new(Inner {
                records: Vec::new(),
                index: HashMap::new(),
                recoveries: Vec::new(),
            }),
        }
    }

    /// Nanoseconds since the recorder was created (monotonic).
    pub fn now(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records the invocation of `op_id` by `proc` on `reg` at time `at`.
    pub fn invoked(
        &self,
        op_id: OpId,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<V>,
        at: u64,
    ) {
        let mut g = self.inner.lock();
        let idx = g.records.len();
        g.records.push((
            reg,
            OpRecord {
                op_id,
                proc,
                op,
                invoked_at: at,
                completed: None,
            },
        ));
        g.index.insert(op_id, idx);
    }

    /// Records the completion of `op_id` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `op_id` was never recorded as invoked.
    pub fn completed(&self, op_id: OpId, at: u64, outcome: OpOutcome<V>) {
        let mut g = self.inner.lock();
        let idx = *g.index.get(&op_id).expect("completion for unknown op");
        let rec = &mut g.records[idx].1;
        debug_assert!(rec.completed.is_none(), "op completed twice");
        rec.completed = Some((at, outcome));
    }

    /// Records a completed crash-recovery of `proc` at time `at`, with the
    /// process's post-recovery incarnation number. Recoveries are global
    /// events of the run — every snapshot (flat or sharded) carries them.
    pub fn recovered(&self, proc: ProcessId, at: u64, incarnation: u64) {
        self.inner.lock().recoveries.push(RecoveryRecord {
            proc,
            at,
            incarnation,
        });
    }

    /// All records flattened into one history (register tags dropped) —
    /// the single-register view, also useful for whole-run accounting.
    pub fn snapshot(&self) -> History<V> {
        let g = self.inner.lock();
        let mut h = History::new(self.initial.clone());
        h.records.extend(g.records.iter().map(|(_, r)| r.clone()));
        h.recoveries = g.recoveries.clone();
        h
    }

    /// Per-register projection over `registers` (empty shards included).
    pub fn snapshot_sharded(&self, registers: &[RegisterId]) -> ShardedHistory<V> {
        let g = self.inner.lock();
        ShardedHistory::from_tagged(
            self.initial.clone(),
            registers.iter().copied(),
            g.records.iter().cloned(),
        )
        .with_recoveries(&g.recoveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let r = Recorder::new(0u64);
        let t0 = r.now();
        r.invoked(
            OpId::new(0),
            ProcessId::new(1),
            RegisterId::ZERO,
            Operation::Write(5),
            t0,
        );
        let h = r.snapshot();
        assert_eq!(h.records.len(), 1);
        assert!(!h.records[0].is_complete());
        r.completed(OpId::new(0), t0 + 10, OpOutcome::Written);
        let h = r.snapshot();
        assert_eq!(h.records[0].completed, Some((t0 + 10, OpOutcome::Written)));
    }

    #[test]
    fn sharded_snapshot_projects_by_register() {
        let r = Recorder::new(0u64);
        let regs = [RegisterId::new(0), RegisterId::new(1)];
        let t = r.now();
        r.invoked(
            OpId::new(0),
            ProcessId::new(0),
            regs[1],
            Operation::Write(7),
            t,
        );
        r.completed(OpId::new(0), t + 1, OpOutcome::Written);
        let sh = r.snapshot_sharded(&regs);
        assert_eq!(sh.len(), 2);
        assert_eq!(sh.shard(regs[0]).unwrap().len(), 0);
        assert_eq!(sh.shard(regs[1]).unwrap().len(), 1);
    }

    #[test]
    fn clock_is_monotone() {
        let r = Recorder::new(0u64);
        let a = r.now();
        let b = r.now();
        assert!(b >= a);
    }
}
