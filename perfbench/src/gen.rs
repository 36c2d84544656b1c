//! The single-threaded load generator, written against the public
//! [`Driver`] API only.
//!
//! *Closed loop*: up to `window` operations outstanding; when the window is
//! full, or the next step's `(process, register)` slot is busy, the oldest
//! ticket is reaped first (FIFO). This is the paper's client model —
//! sequential processes that wait for replies.
//!
//! *Open loop*: arrivals evenly spaced at a fixed rate, latency measured
//! from the *intended* start, so a stall is charged to every arrival it
//! delays. `Driver` has no non-blocking poll: the deployment is built with
//! a tiny `op_timeout` and [`DriverError::Timeout`] from `poll` means "not
//! yet". An operation not complete [`DEADLINE_NS`] after its intended start
//! counts as failed.
//!
//! Time comes from a [`Clock`] so the unit tests can run the loops against
//! a fake driver with scripted service times.

use std::collections::VecDeque;
use std::time::Instant;

use twobit_proto::{Driver, DriverError, NetStats, OpTicket};

use crate::script::Step;

/// An open-loop operation this long past its intended start has failed.
pub const DEADLINE_NS: u64 = 1_000_000_000;

/// A monotonic nanosecond clock the generator can also sleep on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now(&self) -> u64;
    /// Blocks until `now() >= at`.
    fn sleep_until(&self, at: u64);
}

/// The real clock.
#[derive(Clone, Copy, Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until(&self, at: u64) {
        let now = self.now();
        if at > now {
            std::thread::sleep(std::time::Duration::from_nanos(at - now));
        }
    }
}

/// The bench-side spans of one completed operation, as clock readings:
/// `intended → invoke_start → invoke_end → done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// When the operation was due (closed loop: when it was invoked).
    pub intended: u64,
    /// `Driver::invoke` called.
    pub invoke_start: u64,
    /// `Driver::invoke` returned.
    pub invoke_end: u64,
    /// `Driver::poll` returned the outcome.
    pub done: u64,
    /// Write or read.
    pub write: bool,
}

impl Span {
    /// What a client sees: intended start to outcome in hand.
    pub fn latency(&self) -> u64 {
        self.done - self.intended
    }

    /// How late the generator issued the operation.
    pub fn lateness(&self) -> u64 {
        self.invoke_start - self.intended
    }
}

/// When a closed-loop section stops issuing.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At this clock reading.
    At(u64),
    /// After this many operations.
    Ops(usize),
}

struct InFlight {
    ticket: OpTicket,
    slot: usize,
    intended: u64,
    invoke_start: u64,
    invoke_end: u64,
    write: bool,
}

/// Drives one deployment and accumulates what it observed. The loops may be
/// called several times (warm-up, then the timed section); each call
/// returns with nothing outstanding.
pub struct Generator<'a, D, C> {
    driver: &'a mut D,
    clock: &'a C,
    registers: usize,
    busy: Vec<bool>,
    /// Completed operations, in completion order.
    pub spans: Vec<Span>,
    /// Operations that errored or missed the deadline.
    pub failed: u64,
    /// Open loop: the most arrivals ever due but not yet complete.
    pub backlog_max: usize,
    /// `(clock reading, stats)` once per [`Generator::tick_every`].
    pub ticks: Vec<(u64, NetStats)>,
    tick_every: u64,
    next_tick: u64,
}

impl<'a, D: Driver<Value = u64>, C: Clock> Generator<'a, D, C> {
    /// A generator over `driver`, with room for `capacity` spans so the
    /// timed section does not pay for growing its own log.
    pub fn new(driver: &'a mut D, clock: &'a C, capacity: usize) -> Self {
        let registers = driver.registers().len();
        let slots = driver.config().n() * registers;
        Generator {
            driver,
            clock,
            registers,
            busy: vec![false; slots],
            spans: Vec::with_capacity(capacity),
            failed: 0,
            backlog_max: 0,
            ticks: Vec::new(),
            tick_every: 0,
            next_tick: 0,
        }
    }

    /// Traced runs: snapshot `Driver::stats` every `every` nanoseconds.
    pub fn tick_every(&mut self, every: u64) {
        self.tick_every = every;
        self.next_tick = self.clock.now() + every;
    }

    /// Forgets what the warm-up recorded.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.failed = 0;
        self.backlog_max = 0;
    }

    /// The driven deployment.
    pub fn driver(&self) -> &D {
        self.driver
    }

    fn slot(&self, step: &Step) -> usize {
        step.proc.index() * self.registers + step.reg.index()
    }

    fn tick(&mut self, now: u64) {
        if self.tick_every != 0 && now >= self.next_tick {
            self.ticks.push((now, self.driver.stats()));
            self.next_tick += self.tick_every;
        }
    }

    /// Invokes `step`; `intended` is `None` in the closed loop, where an
    /// operation is due the moment it is issued.
    fn issue(&mut self, step: &Step, intended: Option<u64>) -> Option<InFlight> {
        let invoke_start = self.clock.now();
        match self.driver.invoke(step.proc, step.reg, step.op()) {
            Ok(ticket) => {
                let slot = self.slot(step);
                self.busy[slot] = true;
                Some(InFlight {
                    ticket,
                    slot,
                    intended: intended.unwrap_or(invoke_start),
                    invoke_start,
                    invoke_end: self.clock.now(),
                    write: step.write.is_some(),
                })
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn complete(&mut self, f: &InFlight, done: u64) {
        self.busy[f.slot] = false;
        self.spans.push(Span {
            intended: f.intended,
            invoke_start: f.invoke_start,
            invoke_end: f.invoke_end,
            done,
            write: f.write,
        });
    }

    /// Blocking reap for the closed loop: any error is a failure.
    fn reap(&mut self, f: &InFlight) {
        match self.driver.poll(&f.ticket) {
            Ok(_) => {
                let done = self.clock.now();
                self.complete(f, done);
            }
            Err(_) => {
                self.busy[f.slot] = false;
                self.failed += 1;
            }
        }
    }

    /// Runs the closed loop until `stop`, then reaps what is outstanding.
    pub fn closed_loop(
        &mut self,
        steps: &mut impl Iterator<Item = Step>,
        window: usize,
        stop: Stop,
    ) {
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let mut issued = 0usize;
        loop {
            let now = self.clock.now();
            let stopped = match stop {
                Stop::At(t) => now >= t,
                Stop::Ops(k) => issued >= k,
            };
            if stopped {
                break;
            }
            self.tick(now);
            let Some(step) = steps.next() else { break };
            while in_flight.len() >= window || self.busy[self.slot(&step)] {
                let Some(oldest) = in_flight.pop_front() else {
                    break;
                };
                self.reap(&oldest);
            }
            if let Some(f) = self.issue(&step, None) {
                in_flight.push_back(f);
            }
            issued += 1;
        }
        while let Some(f) = in_flight.pop_front() {
            self.reap(&f);
        }
    }

    /// Runs the open loop: one arrival every `1/rate_per_s` seconds until
    /// the clock reads `until` (or `steps` runs out), then waits for the
    /// stragglers.
    pub fn open_loop(
        &mut self,
        steps: &mut impl Iterator<Item = Step>,
        rate_per_s: u64,
        mut until: u64,
    ) {
        let gap = 1_000_000_000 / rate_per_s;
        let mut next_due = self.clock.now();
        let mut backlog: VecDeque<(u64, Step)> = VecDeque::new();
        let mut in_flight: Vec<InFlight> = Vec::new();
        loop {
            let now = self.clock.now();
            self.tick(now);
            while next_due <= now && next_due < until {
                let Some(step) = steps.next() else {
                    // Script exhausted: no further arrivals.
                    until = next_due;
                    break;
                };
                backlog.push_back((next_due, step));
                next_due += gap;
            }
            self.backlog_max = self.backlog_max.max(backlog.len() + in_flight.len());

            // Arrivals leave the backlog in order; the head waits while its
            // slot is busy (the model allows one operation per slot).
            while let Some(&(intended, step)) = backlog.front() {
                if now.saturating_sub(intended) > DEADLINE_NS {
                    self.failed += 1;
                } else if self.busy[self.slot(&step)] {
                    break;
                } else if let Some(f) = self.issue(&step, Some(intended)) {
                    in_flight.push(f);
                }
                backlog.pop_front();
            }

            if in_flight.is_empty() {
                // Idle: sleep to the next arrival — or, with the head stuck
                // behind an abandoned slot, to the head's deadline.
                let head_deadline = backlog.front().map(|&(i, _)| i + DEADLINE_NS + 1);
                let next_arrival = (next_due < until).then_some(next_due);
                match head_deadline.into_iter().chain(next_arrival).min() {
                    Some(at) => self.clock.sleep_until(at),
                    None => break,
                }
                continue;
            }

            // One pass over what is outstanding. A `Timeout` blocked for the
            // deployment's tiny `op_timeout`, so this never spins.
            let mut k = 0;
            while k < in_flight.len() {
                let polled = self.driver.poll(&in_flight[k].ticket);
                let now = self.clock.now();
                match polled {
                    Ok(_) => {
                        let f = in_flight.swap_remove(k);
                        self.complete(&f, now);
                    }
                    Err(DriverError::Timeout)
                        if now.saturating_sub(in_flight[k].intended) <= DEADLINE_NS =>
                    {
                        k += 1;
                    }
                    Err(_) => {
                        // Abandoned: the driver still holds the slot.
                        in_flight.swap_remove(k);
                        self.failed += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::rc::Rc;

    use twobit_proto::{
        Lifecycle, OpId, OpOutcome, Operation, ProcessId, RegisterId, ShardedHistory, SystemConfig,
    };

    use super::*;

    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;

    #[derive(Clone)]
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, at: u64) {
            self.0.set(self.0.get().max(at));
        }
    }

    /// A driver whose k-th invoked operation completes `service[k]` after
    /// its invoke. `poll_timeout: None` blocks like the live default;
    /// `Some(t)` answers `Timeout` after `t`, like a tiny `op_timeout`.
    struct FakeDriver {
        now: Rc<Cell<u64>>,
        registers: usize,
        invoke_cost: u64,
        service: Vec<u64>,
        poll_timeout: Option<u64>,
        pending: HashMap<(ProcessId, RegisterId), (OpId, u64)>,
        invoked: Vec<(u64, Step)>,
        poll_order: Vec<u64>,
        timeouts: u64,
        max_pending: usize,
    }

    impl FakeDriver {
        fn new(service: Vec<u64>, poll_timeout: Option<u64>) -> (Self, FakeClock) {
            let now = Rc::new(Cell::new(0));
            let driver = FakeDriver {
                now: Rc::clone(&now),
                registers: 4,
                invoke_cost: US,
                service,
                poll_timeout,
                pending: HashMap::new(),
                invoked: Vec::new(),
                poll_order: Vec::new(),
                timeouts: 0,
                max_pending: 0,
            };
            (driver, FakeClock(now))
        }
    }

    impl Driver for FakeDriver {
        type Value = u64;

        fn config(&self) -> SystemConfig {
            SystemConfig::max_resilience(3)
        }
        fn registers(&self) -> Vec<RegisterId> {
            RegisterId::first(self.registers)
        }
        fn invoke(
            &mut self,
            proc: ProcessId,
            reg: RegisterId,
            op: Operation<u64>,
        ) -> Result<OpTicket, DriverError> {
            if self.pending.contains_key(&(proc, reg)) {
                return Err(DriverError::OperationInFlight { proc, reg });
            }
            let k = self.invoked.len();
            let write = match op {
                Operation::Write(v) => Some(v),
                Operation::Read => None,
            };
            self.invoked
                .push((self.now.get(), Step { proc, reg, write }));
            self.now.set(self.now.get() + self.invoke_cost);
            let op_id = OpId::new(k as u64);
            self.pending
                .insert((proc, reg), (op_id, self.now.get() + self.service[k]));
            self.max_pending = self.max_pending.max(self.pending.len());
            Ok(OpTicket { proc, reg, op_id })
        }
        fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<u64>, DriverError> {
            let key = (ticket.proc, ticket.reg);
            let (_, done_at) = self.pending[&key];
            let now = self.now.get();
            if done_at > now {
                match self.poll_timeout {
                    Some(t) if done_at > now + t => {
                        self.now.set(now + t);
                        self.timeouts += 1;
                        return Err(DriverError::Timeout);
                    }
                    _ => self.now.set(done_at),
                }
            }
            self.pending.remove(&key);
            self.poll_order.push(ticket.op_id.raw());
            Ok(OpOutcome::Written)
        }
        fn crash(&mut self, _: ProcessId) -> Result<(), DriverError> {
            unreachable!("the generator never crashes a process")
        }
        fn recover(&mut self, _: ProcessId) -> Result<(), DriverError> {
            unreachable!("the generator never recovers a process")
        }
        fn lifecycle(&self, _: ProcessId) -> Lifecycle {
            Lifecycle::Up
        }
        fn history(&self) -> ShardedHistory<u64> {
            ShardedHistory::new(0, self.registers())
        }
        fn stats(&self) -> NetStats {
            NetStats::new()
        }
    }

    fn read(proc: usize, reg: usize) -> Step {
        Step {
            proc: ProcessId::new(proc),
            reg: RegisterId::new(reg),
            write: None,
        }
    }

    #[test]
    fn closed_loop_reaps_oldest_first_and_respects_window_and_slots() {
        // Op 1 finishes long before op 0, yet op 0 is reaped first; op 3
        // reuses op 2's slot, which forces the queue ahead of it out.
        let service = vec![900 * US, 10 * US, 50 * US, 50 * US, 50 * US];
        let (mut driver, clock) = FakeDriver::new(service, None);
        let steps = vec![read(0, 0), read(1, 0), read(2, 1), read(2, 1), read(0, 2)];
        let mut gen = Generator::new(&mut driver, &clock, 8);
        gen.closed_loop(&mut steps.into_iter(), 3, Stop::Ops(5));
        assert_eq!(gen.spans.len(), 5);
        assert_eq!(gen.failed, 0);
        // Closed loop: due when issued, so never late.
        assert!(gen.spans.iter().all(|s| s.lateness() == 0));
        // Op 1's latency includes the wait behind op 0 (FIFO reaping).
        assert!(gen.spans[1].latency() >= 900 * US);
        assert_eq!(driver.poll_order, vec![0, 1, 2, 3, 4]);
        assert!(driver.max_pending <= 3);
        // Op 3 was invoked only after op 2 (same slot) was polled.
        assert!(driver.invoked[3].0 >= driver.invoked[2].0 + 50 * US);
    }

    #[test]
    fn closed_loop_stops_at_the_clock_and_drains() {
        let (mut driver, clock) = FakeDriver::new(vec![100 * US; 1000], None);
        let mut steps = (0..).map(|k| read(k % 3, k % 4));
        let mut gen = Generator::new(&mut driver, &clock, 1000);
        gen.closed_loop(&mut steps, 2, Stop::At(5 * MS));
        assert!(gen.spans.len() > 10);
        assert_eq!(gen.failed, 0);
        assert!(
            driver.pending.is_empty(),
            "returns with nothing outstanding"
        );
    }

    #[test]
    fn open_loop_charges_latency_lateness_and_backlog_from_the_intended_start() {
        // 1000 arrivals/s. Op 0 takes 4.5 ms on slot (0,0); arrival 1 wants
        // the same slot, so it — and everything queued behind it — waits.
        let mut service = vec![100 * US; 10];
        service[0] = 4_500 * US;
        let (mut driver, clock) = FakeDriver::new(service, Some(50 * US));
        let steps = vec![
            read(0, 0),
            read(0, 0),
            read(1, 1),
            read(2, 2),
            read(1, 3),
            read(2, 0),
        ];
        let mut gen = Generator::new(&mut driver, &clock, 16);
        gen.open_loop(&mut steps.into_iter(), 1000, 6 * MS);
        assert_eq!(gen.spans.len(), 6);
        assert_eq!(gen.failed, 0);
        let by_intended = |at: u64| *gen.spans.iter().find(|s| s.intended == at).unwrap();
        let blocked = by_intended(MS);
        // Due at 1 ms, issued only once op 0 finished past 4.5 ms.
        assert!(blocked.lateness() >= 3_500 * US, "{blocked:?}");
        assert!(blocked.latency() >= blocked.lateness() + 100 * US);
        // Arrival 2 targets a free slot but queues behind the blocked head.
        let queued = by_intended(2 * MS);
        assert!(queued.lateness() >= 2_500 * US, "{queued:?}");
        // Arrivals due at 1..4 ms were all waiting, plus op 0 in flight.
        assert!(gen.backlog_max >= 5, "backlog_max {}", gen.backlog_max);
        // The last arrival came after the stall and was on time.
        assert!(by_intended(5 * MS).lateness() <= 200 * US);
    }

    #[test]
    fn open_loop_treats_timeout_as_not_yet() {
        let (mut driver, clock) = FakeDriver::new(vec![400 * US; 4], Some(50 * US));
        let steps = vec![read(0, 0), read(1, 1), read(2, 2), read(0, 3)];
        let mut gen = Generator::new(&mut driver, &clock, 8);
        gen.open_loop(&mut steps.into_iter(), 2000, 2 * MS);
        assert_eq!(gen.spans.len(), 4);
        assert_eq!(gen.failed, 0);
        for s in &gen.spans {
            // Done is noticed within one poll timeout of the service time.
            assert!(s.latency() >= 400 * US && s.latency() <= 600 * US, "{s:?}");
        }
        assert!(
            driver.timeouts >= 4,
            "each op was polled before it was done"
        );
    }

    #[test]
    fn open_loop_fails_an_operation_one_second_after_its_intended_start() {
        // Op 1 never finishes in time; a later arrival on its slot can
        // never be issued and fails at its own deadline.
        let mut service = vec![100 * US; 8];
        service[1] = 5_000 * MS;
        let (mut driver, clock) = FakeDriver::new(service, Some(50 * US));
        let steps = vec![read(0, 0), read(1, 1), read(2, 2), read(1, 1), read(0, 3)];
        let mut gen = Generator::new(&mut driver, &clock, 8);
        gen.open_loop(&mut steps.into_iter(), 1000, 5 * MS);
        assert_eq!(gen.failed, 2);
        assert_eq!(gen.spans.len(), 3);
        // The run ends once every deadline has passed, not when op 1 would.
        assert!(clock.now() < 1_100 * MS, "ended at {}", clock.now());
    }
}
