//! Deterministic sharded simulator: many registers over one simulated
//! cluster, driven interactively through the [`Driver`] interface.
//!
//! Where [`Simulation`](crate::Simulation) hosts the paper's single register
//! under scripted client plans, `SimSpace` hosts a whole
//! [`ShardSet`] per process — one automaton instance per register, wire
//! messages wrapped in [`Envelope`]s — and is driven one operation at a
//! time: [`Driver::invoke`] runs the invocation handler at the current
//! virtual instant, [`Driver::poll`] advances the delivery queue until the
//! operation completes. Runs are a deterministic function of the seed, like
//! every simulation in this workspace.
//!
//! The transport unit is the [`Frame`]: all envelopes staged on one ordered
//! link `(src, dst)` at the same virtual instant coalesce into a single
//! frame that crosses the network as one delivery event — one sampled
//! delay, one shared routing header, delivered atomically (all messages or,
//! when the destination crashed, none). Per-message control/data bits are
//! unchanged by framing; the routing saving is visible in
//! [`NetStats::frame_header_bits`](twobit_proto::NetStats::frame_header_bits)
//! versus the per-message figure in
//! [`NetStats::routing_bits`](twobit_proto::NetStats::routing_bits).
//!
//! # Examples
//!
//! ```
//! use twobit_proto::{Driver, ProcessId, RegisterId, SystemConfig};
//! use twobit_simnet::SpaceBuilder;
//! # use twobit_simnet::testutil::NullRegister;
//!
//! let cfg = SystemConfig::new(3, 1)?;
//! let mut space = SpaceBuilder::new(cfg)
//!     .seed(7)
//!     .registers(8)
//!     .build(0u64, |_reg, id| NullRegister::new(id, cfg));
//! let p0 = ProcessId::new(0);
//! space.write(p0, RegisterId::new(3), 42)?;
//! assert_eq!(space.read(p0, RegisterId::new(3))?, 42);
//! assert_eq!(space.history().len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use twobit_cache::{cache_pair, CacheDecision, CacheMode, CacheReader, CacheWriter};

/// One process's local read cache: the writer half fed by completions,
/// the reader half consulted on read invocations.
type CachePair<V> = (CacheWriter<V>, CacheReader<V>);
use twobit_proto::{
    Automaton, BufferPool, Driver, DriverError, Effects, EnabledEvent, Envelope, FlushReason,
    Frame, Lifecycle, LifecycleState, NetStats, OpId, OpOutcome, OpRecord, OpTicket, Operation,
    ProcessId, RecoveryRecord, RegisterId, SchedDecision, Schedule, ScheduleStep, Scheduler,
    ShardSet, ShardedHistory, Snapshot, SystemConfig, WireMessage,
};

use crate::delay::DelayModel;
use crate::SimTime;

/// How long a staged link waits for company before flushing, in virtual
/// ticks — the engine-side counterpart of the live links' `FlushPolicy`
/// hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtualHold {
    /// A fixed hold window (0 coalesces exactly the sends of one virtual
    /// instant — the historical `flush_hold` behaviour).
    Static(SimTime),
    /// Auto-tune the hold between `floor` and `ceil` from the link's
    /// observed (EWMA) inter-arrival gap in virtual ticks: an idle link
    /// flushes after `floor`, a busy link holds toward `ceil` so staggered
    /// operations coalesce: a busy link's hold stretches toward a fixed few
    /// arrivals' worth (`VIRTUAL_GAP_MULTIPLIER` × gap, clamped by `ceil`).
    /// The live backends dropped this rule — their adaptive `FlushPolicy`
    /// seals whatever an event-loop pass gathered, with no timer — but the engine has no pass to size a batch by, and the
    /// seeded count tables are pinned to this one.
    Adaptive {
        /// Minimum hold, applied when the link looks idle.
        floor: SimTime,
        /// Maximum hold, approached as the link gets bursty; also the
        /// idleness threshold (an EWMA gap at or beyond `ceil` means the
        /// next arrival is not worth waiting for).
        ceil: SimTime,
    },
}

impl VirtualHold {
    fn validate(&self) {
        if let VirtualHold::Adaptive { floor, ceil } = self {
            assert!(
                floor <= ceil,
                "adaptive virtual hold has floor {floor} above ceil {ceil}"
            );
        }
    }
}

/// Per-link adaptive state: the EWMA inter-arrival gap and the last
/// arrival instant, in virtual ticks (`None` before the link's first
/// arrival: one message is no evidence).
#[derive(Clone, Copy, Debug, Default)]
struct LinkGap {
    ewma: Option<SimTime>,
    last_arrival: Option<SimTime>,
}

/// How many arrivals' worth a busy adaptive link holds for, in the
/// absence of a size bound (the virtual engine frames whatever is staged
/// when the marker fires — there is no `max_batch` whose fill time the
/// hold could target, so a fixed small multiple stands in).
const VIRTUAL_GAP_MULTIPLIER: u64 = 4;

/// Builder for a [`SimSpace`].
#[derive(Debug)]
pub struct SpaceBuilder {
    cfg: SystemConfig,
    seed: u64,
    delay: DelayModel,
    registers: Vec<RegisterId>,
    max_events: u64,
    flush_hold: VirtualHold,
    hold_overrides: BTreeMap<(ProcessId, ProcessId), VirtualHold>,
    wire_codec: bool,
    scheduled: bool,
    cache_mode: CacheMode,
    recovery: bool,
    recovery_skip_incarnation_bump: bool,
}

impl SpaceBuilder {
    /// Starts configuring a sharded simulation of `cfg.n()` processes
    /// hosting a single register (use [`SpaceBuilder::registers`] for more).
    pub fn new(cfg: SystemConfig) -> Self {
        SpaceBuilder {
            cfg,
            seed: 0,
            delay: DelayModel::Fixed(crate::DEFAULT_DELTA),
            registers: vec![RegisterId::ZERO],
            max_events: 50_000_000,
            flush_hold: VirtualHold::Static(0),
            hold_overrides: BTreeMap::new(),
            wire_codec: false,
            scheduled: false,
            cache_mode: CacheMode::Off,
            recovery: false,
            recovery_skip_incarnation_bump: false,
        }
    }

    /// Enables crash-recovery (default off — the paper's base model, where
    /// crashes are permanent). When on, [`Driver::recover`] and (in
    /// scheduled mode) [`ScheduleStep::Recover`] bring a crashed process
    /// back: the space fetches the longest confirmed prefix from the live
    /// peers as a [`Snapshot`], installs it
    /// ([`Automaton::install_recovery`]), hard-resets every live peer to
    /// the snapshot barrier ([`Automaton::apply_rejoin`]), bumps the
    /// process's incarnation and fences every pre-recovery in-flight frame
    /// as stale. When off, `recover` is a typed error and no behaviour
    /// changes — a recovery-enabled space produces byte-identical traffic
    /// to a disabled one as long as no recovery actually fires.
    pub fn recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// **Negative-control ablation**: recoveries skip the incarnation bump
    /// and with it the stale-frame fence, so frames sent to (or among) the
    /// peers before the crash can still be delivered after everyone reset
    /// to the snapshot barrier. This is deliberately broken — the model
    /// checker uses it to demonstrate that the fence is load-bearing (a
    /// rejoin without it produces checkable atomicity violations). Never
    /// enable outside experiments.
    pub fn recovery_skip_incarnation_bump(mut self, on: bool) -> Self {
        self.recovery_skip_incarnation_bump = on;
        self
    }

    /// Sets the local read-cache mode (default [`CacheMode::Off`]). Under
    /// [`CacheMode::Safe`] a read is served with zero communication when
    /// the invoking process is the register's SWMR writer
    /// ([`Automaton::swmr_writer`]) and holds a confirmed snapshot; every
    /// decision is counted in
    /// [`NetStats::cache_hits`](twobit_proto::NetStats::cache_hits) /
    /// `cache_misses` / `cache_fallbacks`.
    /// [`CacheMode::UnsafeAblated`] serves any confirmed entry blindly — a
    /// deliberately unsound negative control for the model checker.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Puts the space in **scheduled mode**: no event fires until a
    /// [`Scheduler`] (or an explicit [`SimSpace::fire`]) picks it. The
    /// event heap is replaced by an open set of enabled events; operations
    /// are scripted with [`SimSpace::plan_op`] and their invocations and
    /// responses become schedulable events of their own, so a controlling
    /// scheduler decides the *real-time order* of the run's observable
    /// endpoints as well as its message interleaving. This is the surface
    /// `twobit-check` explores exhaustively; interactive
    /// [`Driver::invoke`]/[`Driver::poll`] are rejected in this mode.
    ///
    /// Scheduled-mode semantics (deliberate differences from the default
    /// event loop):
    ///
    /// * Each handler execution's sends flush immediately, one frame per
    ///   ordered link per handler — hold windows never merge two handlers'
    ///   sends, so the frame structure is a deterministic function of the
    ///   schedule alone.
    /// * Virtual time advances by exactly 1 tick per fired event, giving
    ///   every invocation/response a unique instant; sampled delays only
    ///   order the [`VirtualTimeScheduler`](twobit_proto::VirtualTimeScheduler)'s
    ///   default replay.
    /// * Crashes fire *between* events ([`ScheduleStep::Crash`]) and drop
    ///   the in-flight frames addressed to the crashed process.
    pub fn scheduled(mut self, on: bool) -> Self {
        self.scheduled = on;
        self
    }

    /// Routes every flushed frame through the byte-level codec
    /// ([`Frame::encode`] → [`Frame::decode`]): the simulation then runs on
    /// the *decoded* bytes, proving serialization fidelity end to end, and
    /// [`NetStats::wire_bytes`](twobit_proto::NetStats::wire_bytes) reports
    /// the actual bytes a socket would carry. Requires a codec-capable
    /// message type (one overriding the `WireMessage` codec methods) — a
    /// cost-model-only message surfaces as a
    /// [`DriverError::Backend`](twobit_proto::DriverError::Backend) on the
    /// first flush.
    pub fn wire_codec(mut self, on: bool) -> Self {
        self.wire_codec = on;
        self
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Hosts registers `r0 .. r(count-1)`.
    pub fn registers(mut self, count: usize) -> Self {
        self.registers = RegisterId::first(count);
        self
    }

    /// Hosts exactly the given registers.
    pub fn register_ids(mut self, registers: Vec<RegisterId>) -> Self {
        self.registers = registers;
        self
    }

    /// Sets the runaway guard on the number of delivery events.
    pub fn max_events(mut self, limit: u64) -> Self {
        self.max_events = limit;
        self
    }

    /// Sets a static flush hold window, in virtual ticks — the engine-side
    /// counterpart of the runtime links' `FlushPolicy`:
    /// envelopes staged on a link wait
    /// up to this long for company before flushing as one frame. The
    /// default of 0 coalesces exactly the sends of one virtual instant;
    /// a window of a fraction of the mean delay batches staggered
    /// operations too, amortizing the routing header much harder. Either
    /// way the channel stays a legal asynchronous channel — the hold is
    /// just extra (bounded) delay.
    pub fn flush_hold(mut self, ticks: SimTime) -> Self {
        self.flush_hold = VirtualHold::Static(ticks);
        self
    }

    /// Sets the flush hold policy, including the adaptive variant
    /// ([`VirtualHold::Adaptive`]) that auto-tunes each link's hold from
    /// its observed inter-arrival gaps (the live backends' adaptive
    /// `FlushPolicy` no longer does this; see [`VirtualHold::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics on an adaptive hold with `floor > ceil` (this builder has no
    /// fallible build step).
    pub fn flush_hold_policy(mut self, hold: VirtualHold) -> Self {
        hold.validate();
        self.flush_hold = hold;
        self
    }

    /// Overrides the hold policy for one ordered link `src → dst`,
    /// leaving every other link on the space-wide default — the
    /// asymmetric-topology knob, mirrored on the live builders as
    /// `flush_policy_for`.
    ///
    /// # Panics
    ///
    /// Panics on an adaptive hold with `floor > ceil`.
    pub fn flush_hold_for(
        mut self,
        src: impl Into<ProcessId>,
        dst: impl Into<ProcessId>,
        hold: VirtualHold,
    ) -> Self {
        hold.validate();
        self.hold_overrides.insert((src.into(), dst.into()), hold);
        self
    }

    /// Instantiates one automaton per `(register, process)` pair via `make`
    /// and returns the space. `initial` is the recorded initial value of
    /// every register.
    pub fn build<A, F>(self, initial: A::Value, mut make: F) -> SimSpace<A>
    where
        A: Automaton,
        F: FnMut(RegisterId, ProcessId) -> A,
    {
        let n = self.cfg.n();
        let nodes: Vec<ShardSet<A>> = (0..n)
            .map(|i| ShardSet::new(ProcessId::new(i), &self.registers, &mut make))
            .collect();
        let caches = (0..n)
            .map(|_| cache_pair(self.registers.len(), self.cache_mode))
            .collect();
        let reg_slot = self
            .registers
            .iter()
            .enumerate()
            .map(|(slot, reg)| (*reg, slot))
            .collect();
        SimSpace {
            cfg: self.cfg,
            tag_bits: RegisterId::routing_bits(self.registers.len()),
            registers: self.registers,
            nodes,
            life: vec![LifecycleState::new(); n],
            recovery: self.recovery,
            skip_inc_bump: self.recovery_skip_incarnation_bump,
            recovery_records: Vec::new(),
            now: 0,
            queue: BinaryHeap::new(),
            staged: BTreeMap::new(),
            spare_batches: Vec::new(),
            fx: Effects::new(),
            pool: BufferPool::new(),
            flush_hold: self.flush_hold,
            hold_overrides: self.hold_overrides,
            link_gap: BTreeMap::new(),
            wire_codec: self.wire_codec,
            seq: 0,
            rng: StdRng::seed_from_u64(self.seed),
            delay: self.delay,
            initial,
            records: Vec::new(),
            outstanding: HashMap::new(),
            stats: NetStats::new(),
            events: 0,
            max_events: self.max_events,
            scheduled: self.scheduled,
            open: Vec::new(),
            plan: Vec::new(),
            created_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            cache_mode: self.cache_mode,
            caches,
            reg_slot,
        }
    }
}

enum SpaceEventKind<M> {
    /// A frame crossing link `from → to`, due at `at`.
    Deliver {
        from: ProcessId,
        to: ProcessId,
        frame: Frame<M>,
    },
    /// A staged link's hold window expires: coalesce its envelopes into
    /// one frame and launch it. Exactly one marker is in flight per staged
    /// link.
    Flush { from: ProcessId, to: ProcessId },
}

struct SpaceEvent<M> {
    at: SimTime,
    seq: u64,
    kind: SpaceEventKind<M>,
}

// Total order on events: `(at, seq)` ascending — virtual time first, then
// the *birth* sequence number as the same-instant tie-break. `seq` is
// allocated when the event is created, and creation order is itself a
// deterministic function of the configuration and the schedule (handler
// sends flush in ascending destination order via the staged `BTreeMap`),
// never of builder-call or map-insertion order. This stability is what
// makes a recorded `Schedule` replayable byte-for-byte. `BinaryHeap` is a
// max-heap, so the comparison below is reversed to pop the minimum.
impl<M> PartialEq for SpaceEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for SpaceEvent<M> {}
impl<M> PartialOrd for SpaceEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for SpaceEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One ordered link's staged batch: when staging began, and the envelopes
/// waiting for the link's flush marker.
type StagedBatch<M> = (SimTime, Vec<Envelope<M>>);

/// Most emptied batch vectors a space keeps for reuse: a few per link of
/// the deployments it simulates, so a burst of in-flight frames cannot pin
/// its high-water mark in idle vectors.
const SPARE_BATCHES: usize = 64;

/// Lifecycle of one scheduled-mode plan step. Invocation and response are
/// *separate schedulable events*: the register's external interface is a
/// single real-time line, so the order in which completions become visible
/// relative to later invocations is itself a scheduling choice the model
/// checker must control (it decides which real-time precedences the
/// linearizability checker gets to assume).
#[derive(Clone, Debug)]
enum PlanState<V> {
    /// Not yet invoked.
    Pending,
    /// Invocation fired; the automaton is working on it.
    Invoked,
    /// The automaton completed the operation internally; the response has
    /// not yet been observed by the client.
    Ready(OpOutcome<V>),
    /// The response fired; the operation is complete in the history.
    Responded,
    /// The invoking process crashed while the operation was in flight
    /// (Invoked or Ready): the record stays incomplete in the history —
    /// the paper's consistency clause exempts, for each faulty process,
    /// its last invoked operation — and the step counts as settled so a
    /// later recovery of the process does not deadlock the plan.
    Died,
}

/// One scripted operation of a scheduled-mode run.
#[derive(Clone, Debug)]
struct PlanEntry<V> {
    proc: ProcessId,
    reg: RegisterId,
    op: Operation<V>,
    /// Plan index whose response must fire before this step may be
    /// invoked (cross-process sequencing; same-process steps are already
    /// sequential by program order).
    after: Option<usize>,
    op_id: Option<OpId>,
    state: PlanState<V>,
}

/// What one [`SimSpace::fire`] call did, for the explorer's happens-before
/// bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct FireOutcome {
    /// Birth sequence numbers of the frames the fired handler created.
    pub created: Vec<u64>,
    /// Plan steps whose operations completed internally during this fire
    /// (their [`ScheduleStep::Respond`] events are now enabled).
    pub became_ready: Vec<u64>,
}

/// A sharded, interactively-driven deterministic simulation.
///
/// Construct with [`SpaceBuilder`]; drive through the [`Driver`] trait
/// (possibly behind a [`RegisterSpace`](twobit_proto::RegisterSpace) for
/// named registers).
pub struct SimSpace<A: Automaton> {
    cfg: SystemConfig,
    registers: Vec<RegisterId>,
    /// Shard-tag width of the deployment (`⌈log₂ k⌉`), derived once at
    /// build time and used only for routing accounting.
    tag_bits: u64,
    nodes: Vec<ShardSet<A>>,
    /// Per-process lifecycle (`Up → Crashed → Recovering → Up`) and
    /// incarnation counter — the refactor of the old `crashed: Vec<bool>`.
    life: Vec<LifecycleState>,
    /// Whether [`SpaceBuilder::recovery`] enabled crash-recovery.
    recovery: bool,
    /// Negative-control ablation
    /// ([`SpaceBuilder::recovery_skip_incarnation_bump`]).
    skip_inc_bump: bool,
    /// Completed recoveries, in rejoin order (threaded into the history).
    recovery_records: Vec<RecoveryRecord>,
    now: SimTime,
    queue: BinaryHeap<SpaceEvent<A::Msg>>,
    /// Envelopes staged per ordered link (with the instant staging began),
    /// waiting for the link's flush marker to coalesce them into one
    /// [`Frame`]. A link's entry stays once it exists; an empty batch means
    /// nothing is staged.
    staged: BTreeMap<(ProcessId, ProcessId), StagedBatch<A::Msg>>,
    /// Emptied batch vectors of delivered (or encoded) frames, handed to
    /// the next link that flushes so staging refills a warm allocation;
    /// at most [`SPARE_BATCHES`].
    spare_batches: Vec<Vec<Envelope<A::Msg>>>,
    /// The effects buffer every handler execution writes into; empty
    /// between executions, its capacity reused.
    fx: Effects<Envelope<A::Msg>, A::Value>,
    /// Encode buffers of the [`SpaceBuilder::wire_codec`] round trip.
    pool: Arc<BufferPool>,
    /// How long a staged link waits for more envelopes before flushing.
    flush_hold: VirtualHold,
    /// Per-link hold overrides (asymmetric topologies).
    hold_overrides: BTreeMap<(ProcessId, ProcessId), VirtualHold>,
    /// Per-link EWMA inter-arrival state driving the adaptive hold.
    link_gap: BTreeMap<(ProcessId, ProcessId), LinkGap>,
    /// Encode–decode fidelity mode: every flushed frame crosses the
    /// byte-level codec and the *decoded* copy is what gets delivered.
    wire_codec: bool,
    seq: u64,
    rng: StdRng,
    delay: DelayModel,
    initial: A::Value,
    /// All operation records, tagged with their register; `OpId` = index.
    records: Vec<(RegisterId, OpRecord<A::Value>)>,
    outstanding: HashMap<(ProcessId, RegisterId), OpId>,
    stats: NetStats,
    events: u64,
    max_events: u64,
    /// Scheduled mode (see [`SpaceBuilder::scheduled`]): events fire only
    /// when chosen.
    scheduled: bool,
    /// Scheduled mode's open event set (replaces the heap; kept in birth
    /// order, i.e. ascending `seq`).
    open: Vec<SpaceEvent<A::Msg>>,
    /// Scheduled mode's scripted operations.
    plan: Vec<PlanEntry<A::Value>>,
    /// Frames created by the currently-firing handler (drained into the
    /// [`FireOutcome`]).
    created_scratch: Vec<u64>,
    /// Plan steps readied by the currently-firing handler.
    ready_scratch: Vec<u64>,
    /// Local read-cache mode (see [`SpaceBuilder::cache_mode`]).
    cache_mode: CacheMode,
    /// One cache pair per process: the writer half fed by completions in
    /// [`SimSpace::apply_effects`], the reader half consulted on read
    /// invocations.
    caches: Vec<CachePair<A::Value>>,
    /// Register → cache-slot index (position in `registers`).
    reg_slot: HashMap<RegisterId, usize>,
}

impl<A: Automaton> std::fmt::Debug for SimSpace<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSpace")
            .field("cfg", &self.cfg)
            .field("registers", &self.registers)
            .field("now", &self.now)
            .field("life", &self.life)
            .field("scheduled", &self.scheduled)
            .field("open_frames", &self.open.len())
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> SimSpace<A> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Delivery events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Immutable access to one `(process, register)` automaton.
    pub fn automaton(&self, proc: ProcessId, reg: RegisterId) -> Option<&A> {
        self.nodes.get(proc.index()).and_then(|n| n.shard(reg))
    }

    /// Delivers queued messages until the network is silent.
    ///
    /// # Errors
    ///
    /// [`DriverError::Backend`] on protocol misbehaviour or when the event
    /// guard trips.
    pub fn run_to_quiescence(&mut self) -> Result<(), DriverError> {
        while self.step()? {}
        Ok(())
    }

    /// Checks every live automaton's local invariants.
    ///
    /// # Errors
    ///
    /// The first violation, prefixed with the process id.
    pub fn check_local_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.life[i].state.is_up() {
                continue;
            }
            node.check_local_invariants()
                .map_err(|e| format!("p{i}: {e}"))?;
        }
        Ok(())
    }

    /// Coalesces one staged link's envelopes into a [`Frame`] and queues it
    /// as a single delivery event with one sampled delay — everything the
    /// link accumulated during its hold window shares the routing header.
    /// Under [`SpaceBuilder::wire_codec`] the frame additionally round-trips
    /// the byte codec here, and the decoded copy is what crosses the link.
    fn flush_link(&mut self, from: ProcessId, to: ProcessId) -> Result<(), DriverError> {
        let Some((staged_at, staged)) = self.staged.get_mut(&(from, to)) else {
            return Ok(());
        };
        if staged.is_empty() {
            return Ok(());
        }
        let staged_at = *staged_at;
        let envs = std::mem::replace(staged, self.spare_batches.pop().unwrap_or_default());
        let mut frame = Frame::from_envelopes(envs);
        self.stats.record_frame(frame.cost(self.tag_bits));
        // Every simulator flush is the link's hold marker firing; the
        // observed hold is the marker's window (ticks = µs → ns ×1000).
        self.stats.record_flush(
            FlushReason::Hold,
            self.now.saturating_sub(staged_at).saturating_mul(1_000),
        );
        if self.wire_codec {
            let blob = frame
                .encode_pooled(&self.pool)
                .map_err(|e| DriverError::Backend(format!("wire codec encode: {e}")))?;
            self.stats.record_wire_bytes(blob.len() as u64);
            // Zero-copy receive path: decoded payloads are `Bytes` views
            // into `blob` wherever the bit layout byte-aligns them.
            let decoded = Frame::decode_shared(&blob)
                .map_err(|e| DriverError::Backend(format!("wire codec decode: {e}")))?;
            self.recycle_batch(std::mem::replace(&mut frame, decoded).into_vec());
        }
        let delay = self.delay.sample(&mut self.rng);
        let seq = self.seq;
        self.seq += 1;
        if self.scheduled && !self.life[to.index()].state.is_up() {
            // Scheduled mode drops frames to a dead destination at birth:
            // there is no delivery event left to do it later, and an
            // undeliverable frame must not linger in the enabled set.
            self.stats.record_frame_drop_to_crashed(frame.len() as u64);
            return Ok(());
        }
        let ev = SpaceEvent {
            at: self.now + delay,
            seq,
            kind: SpaceEventKind::Deliver { from, to, frame },
        };
        if self.scheduled {
            // The frame joins the open set (in birth order) and waits for
            // a scheduler to pick it; its sampled delay only orders the
            // default virtual-time replay.
            self.created_scratch.push(seq);
            self.open.push(ev);
        } else {
            self.queue.push(ev);
        }
        Ok(())
    }

    /// Keeps an emptied batch vector for the next link flush.
    fn recycle_batch(&mut self, mut batch: Vec<Envelope<A::Msg>>) {
        if self.spare_batches.len() < SPARE_BATCHES {
            batch.clear();
            self.spare_batches.push(batch);
        }
    }

    /// Runs one delivered frame through its destination's handlers, in
    /// wire order, and applies what they emitted.
    fn deliver_frame(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        frame: Frame<A::Msg>,
    ) -> Result<(), DriverError> {
        let mut batch = frame.into_vec();
        for env in batch.drain(..) {
            self.nodes[to.index()].on_message(from, env, &mut self.fx);
        }
        self.recycle_batch(batch);
        self.apply_effects(to)
    }

    /// Processes the next queued event (a flush marker or a frame
    /// delivery). Returns `Ok(false)` at quiescence. A staged link always
    /// has its flush marker in the queue, so quiescence implies nothing is
    /// staged either.
    fn step(&mut self) -> Result<bool, DriverError> {
        let Some(ev) = self.queue.pop() else {
            debug_assert!(
                self.staged.values().all(|(_, batch)| batch.is_empty()),
                "staged links keep a marker queued"
            );
            return Ok(false);
        };
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.now = ev.at;
        match ev.kind {
            SpaceEventKind::Flush { from, to } => {
                self.flush_link(from, to)?;
            }
            SpaceEventKind::Deliver { from, to, frame } => {
                self.events += 1;
                if self.events > self.max_events {
                    return Err(DriverError::Backend(format!(
                        "event limit exceeded ({} events)",
                        self.max_events
                    )));
                }
                let pi = to.index();
                if !self.life[pi].state.is_up() {
                    // Atomic non-delivery: the whole frame is lost with its
                    // target.
                    self.stats.record_frame_drop_to_crashed(frame.len() as u64);
                } else {
                    // Atomic delivery: every message in the frame is
                    // handled at this instant, in wire order.
                    self.stats.record_deliveries(frame.len() as u64);
                    self.deliver_frame(from, to, frame)?;
                }
            }
        }
        Ok(true)
    }

    /// Stages one handler execution's sends on their links (arming each
    /// link's flush marker) and applies its completions to the records.
    /// The handlers wrote into [`SimSpace::fx`]; it is left drained, its
    /// capacity kept for the next execution.
    fn apply_effects(&mut self, p: ProcessId) -> Result<(), DriverError> {
        let mut fx = std::mem::take(&mut self.fx);
        for (to, env) in fx.drain_sends() {
            debug_assert!(to != p, "protocols must not send to self");
            // Per-message cost with the unframed-equivalent tag; the bits
            // actually on the wire are the frame header, recorded at flush.
            self.stats
                .record_send_for(env.reg, env.kind(), env.cost().with_routing(self.tag_bits));
            if self.scheduled {
                // Scheduled mode has no hold windows: stage the envelope
                // and flush every touched link right after this loop, so
                // one handler execution = one frame per ordered link.
                let (staged_at, staged) = self
                    .staged
                    .entry((p, to))
                    .or_insert_with(|| (self.now, Vec::new()));
                if staged.is_empty() {
                    *staged_at = self.now;
                }
                staged.push(env);
                continue;
            }
            // Feed the link's gap estimate on every arrival — same-instant
            // envelopes are gap-0 samples, which is what drives a bursty
            // link toward its hold ceiling.
            let now = self.now;
            let gap_state = self.link_gap.entry((p, to)).or_default();
            if let Some(last) = gap_state.last_arrival {
                let gap = now.saturating_sub(last);
                gap_state.ewma = Some(match gap_state.ewma {
                    None => gap,
                    // Keep a quarter of each new sample (EWMA α = 1/4).
                    Some(ewma) => ewma + (gap >> 2) - (ewma >> 2),
                });
            }
            gap_state.last_arrival = Some(now);
            let ewma = gap_state.ewma;
            let (staged_at, staged) = self
                .staged
                .entry((p, to))
                .or_insert_with(|| (now, Vec::new()));
            if staged.is_empty() {
                *staged_at = now;
                // First envelope on this link: arm its flush marker at the
                // end of the hold window the link's policy resolves to.
                let hold = match self
                    .hold_overrides
                    .get(&(p, to))
                    .unwrap_or(&self.flush_hold)
                {
                    VirtualHold::Static(ticks) => *ticks,
                    VirtualHold::Adaptive { floor, ceil } => match ewma {
                        // No gap evidence, or an idle link (the expected
                        // next arrival is past the ceiling): flush fast.
                        None => *floor,
                        Some(gap) if gap >= *ceil => *floor,
                        // Busy link: wait a few arrivals' worth, clamped
                        // into the configured band (see the constant for
                        // why this is not the live gap × max_batch rule).
                        Some(gap) => gap
                            .saturating_mul(VIRTUAL_GAP_MULTIPLIER)
                            .clamp(*floor, *ceil),
                    },
                };
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(SpaceEvent {
                    at: now + hold,
                    seq,
                    kind: SpaceEventKind::Flush { from: p, to },
                });
            }
            staged.push(env);
        }
        if self.scheduled {
            // Immediate flush, ascending destination order (`staged` is a
            // `BTreeMap`), so frame birth order is schedule-determined.
            let links: Vec<(ProcessId, ProcessId)> = self
                .staged
                .iter()
                .filter(|(_, (_, batch))| !batch.is_empty())
                .map(|(link, _)| *link)
                .collect();
            for (from, to) in links {
                self.flush_link(from, to)?;
            }
        }
        for (op_id, outcome) in fx.drain_completions() {
            if self.scheduled {
                // Completion makes the plan step's *response* schedulable;
                // the record is finalized only when that response fires.
                let idx = self
                    .plan
                    .iter()
                    .position(|e| e.op_id == Some(op_id))
                    .ok_or_else(|| {
                        DriverError::Backend(format!("completion for unknown {op_id}"))
                    })?;
                let entry = &mut self.plan[idx];
                if entry.proc != p {
                    return Err(DriverError::Backend(format!(
                        "{op_id} of p{} completed by p{}",
                        entry.proc.index(),
                        p.index()
                    )));
                }
                if !matches!(entry.state, PlanState::Invoked) {
                    return Err(DriverError::Backend(format!("{op_id} completed twice")));
                }
                let (reg, op) = (entry.reg, entry.op.clone());
                entry.state = PlanState::Ready(outcome.clone());
                self.ready_scratch.push(idx as u64);
                // The automaton finished the operation at this fire: the
                // snapshot is confirmed now, even though its response event
                // has not been scheduled yet.
                self.publish_completion(p, reg, &op, &outcome);
                continue;
            }
            let (reg, rec) = self
                .records
                .get_mut(op_id.raw() as usize)
                .ok_or_else(|| DriverError::Backend(format!("completion for unknown {op_id}")))?;
            if rec.completed.is_some() {
                return Err(DriverError::Backend(format!("{op_id} completed twice")));
            }
            if rec.proc != p {
                return Err(DriverError::Backend(format!(
                    "{op_id} of {} completed by {p}",
                    rec.proc
                )));
            }
            rec.completed = Some((self.now, outcome.clone()));
            let (reg, op) = (*reg, rec.op.clone());
            self.outstanding.remove(&(p, reg));
            self.publish_completion(p, reg, &op, &outcome);
        }
        self.fx = fx;
        Ok(())
    }

    /// Publishes a locally-completed operation's value into `p`'s cache: a
    /// completed write confirms the written value, a completed read the
    /// value it returned. `writer_here` is captured from the shard
    /// automaton's [`Automaton::swmr_writer`] at publish time.
    fn publish_completion(
        &mut self,
        p: ProcessId,
        reg: RegisterId,
        op: &Operation<A::Value>,
        outcome: &OpOutcome<A::Value>,
    ) {
        if self.cache_mode == CacheMode::Off {
            return;
        }
        let Some(&slot) = self.reg_slot.get(&reg) else {
            return;
        };
        let value = match (outcome, op) {
            (OpOutcome::ReadValue(v), _) | (OpOutcome::Written, Operation::Write(v)) => v.clone(),
            (OpOutcome::Written, Operation::Read) => return,
        };
        let writer_here = self.nodes[p.index()]
            .shard(reg)
            .and_then(Automaton::swmr_writer)
            == Some(p);
        self.caches[p.index()].0.publish(slot, value, writer_here);
    }

    /// Consults `proc`'s cache for a read on `reg`, counting the decision.
    /// Returns the cached value when the read may be served locally.
    fn try_serve_cached(&mut self, proc: ProcessId, reg: RegisterId) -> Option<A::Value> {
        if self.cache_mode == CacheMode::Off {
            return None;
        }
        let slot = *self.reg_slot.get(&reg)?;
        match self.caches[proc.index()].1.try_read(slot) {
            CacheDecision::Hit(v) => {
                self.stats.record_cache_hit();
                Some(v)
            }
            CacheDecision::Miss => {
                self.stats.record_cache_miss();
                None
            }
            CacheDecision::Fallback => {
                self.stats.record_cache_fallback();
                None
            }
        }
    }
}

/// Scheduled-mode surface (see [`SpaceBuilder::scheduled`]): plan
/// operations, inspect the enabled-event set, fire chosen steps, or hand
/// the whole loop to a [`Scheduler`].
impl<A: Automaton> SimSpace<A> {
    /// Scripts one operation for a scheduled run and returns its plan
    /// index. Steps of one process run in program (plan) order; use
    /// [`SimSpace::plan_op_after`] for cross-process sequencing.
    ///
    /// # Panics
    ///
    /// Panics outside scheduled mode, or on an unknown process/register —
    /// plans are authored by test code, so mistakes are programming
    /// errors, not run outcomes.
    pub fn plan_op(&mut self, proc: ProcessId, reg: RegisterId, op: Operation<A::Value>) -> usize {
        self.plan_entry(proc, reg, op, None)
    }

    /// Like [`SimSpace::plan_op`], but the step's invocation stays
    /// disabled until plan step `after`'s *response* has fired — the
    /// scenario-level way to demand real-time precedence between
    /// operations of different processes.
    ///
    /// # Panics
    ///
    /// As [`SimSpace::plan_op`]; additionally if `after` is not an
    /// existing plan index.
    pub fn plan_op_after(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
        after: usize,
    ) -> usize {
        self.plan_entry(proc, reg, op, Some(after))
    }

    fn plan_entry(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
        after: Option<usize>,
    ) -> usize {
        assert!(self.scheduled, "plan_op requires scheduled mode");
        assert!(
            proc.index() < self.cfg.n(),
            "plan_op: unknown process {proc:?}"
        );
        assert!(
            self.registers.contains(&reg),
            "plan_op: unknown register {reg:?}"
        );
        if let Some(a) = after {
            assert!(a < self.plan.len(), "plan_op_after: unknown plan step {a}");
        }
        self.plan.push(PlanEntry {
            proc,
            reg,
            op,
            after,
            op_id: None,
            state: PlanState::Pending,
        });
        self.plan.len() - 1
    }

    /// Whether plan step `idx`'s invocation may fire: still pending, its
    /// process live and done with every earlier plan step, and its
    /// explicit dependency (if any) responded.
    fn invoke_enabled(&self, idx: usize) -> bool {
        let e = &self.plan[idx];
        if !matches!(e.state, PlanState::Pending) || !self.life[e.proc.index()].state.is_up() {
            return false;
        }
        // Program order counts a died step as done: its process crashed
        // mid-operation, and after a recovery the remaining steps become
        // invokable again.
        if self.plan[..idx]
            .iter()
            .any(|o| o.proc == e.proc && !matches!(o.state, PlanState::Responded | PlanState::Died))
        {
            return false;
        }
        match e.after {
            // A died dependency can never respond; the precedence it was
            // meant to enforce is vacuous, so the dependent step unblocks.
            Some(a) => matches!(self.plan[a].state, PlanState::Responded | PlanState::Died),
            None => true,
        }
    }

    fn plan_label(e: &PlanEntry<A::Value>) -> String {
        let what = match &e.op {
            Operation::Read => "read".to_string(),
            Operation::Write(v) => format!("write({v:?})"),
        };
        format!("p{}:{what}", e.proc.index())
    }

    /// The currently fireable events: responses (ready plan steps, plan
    /// order), then invocations (enabled plan steps, plan order), then
    /// deliveries (open frames, birth order). Crashes never appear — the
    /// crash choice belongs to the scheduler ([`ScheduleStep::Crash`] is
    /// always fireable against a live process).
    ///
    /// # Panics
    ///
    /// Panics outside scheduled mode.
    pub fn enabled_events(&self) -> Vec<EnabledEvent> {
        assert!(self.scheduled, "enabled_events requires scheduled mode");
        let mut out = Vec::new();
        for (idx, e) in self.plan.iter().enumerate() {
            if matches!(e.state, PlanState::Ready(_)) && self.life[e.proc.index()].state.is_up() {
                out.push(EnabledEvent::Respond {
                    plan: idx as u64,
                    proc: e.proc,
                    label: Self::plan_label(e),
                });
            }
        }
        for (idx, e) in self.plan.iter().enumerate() {
            if self.invoke_enabled(idx) {
                out.push(EnabledEvent::Invoke {
                    plan: idx as u64,
                    proc: e.proc,
                    label: Self::plan_label(e),
                });
            }
        }
        for ev in &self.open {
            let SpaceEventKind::Deliver { from, to, frame } = &ev.kind else {
                continue;
            };
            let mut kinds: Vec<&'static str> = frame.iter().map(|(_, m)| m.kind()).collect();
            kinds.dedup();
            out.push(EnabledEvent::Deliver {
                seq: ev.seq,
                from: *from,
                to: *to,
                msgs: frame.len() as u64,
                due: ev.at,
                label: kinds.join("+"),
            });
        }
        out
    }

    /// Fires one schedule step. Each fire advances virtual time by one
    /// tick, so every invocation, response and delivery has a unique
    /// instant and the history's real-time order is exactly the firing
    /// order.
    ///
    /// # Errors
    ///
    /// [`DriverError::Backend`] outside scheduled mode, when the step is
    /// not currently fireable (strict-replay contract), or when the event
    /// guard trips.
    pub fn fire(&mut self, step: ScheduleStep) -> Result<FireOutcome, DriverError> {
        if !self.scheduled {
            return Err(DriverError::Backend(
                "fire requires scheduled mode (SpaceBuilder::scheduled)".into(),
            ));
        }
        self.events += 1;
        if self.events > self.max_events {
            return Err(DriverError::Backend(format!(
                "event limit exceeded ({} events)",
                self.max_events
            )));
        }
        self.now += 1;
        self.created_scratch.clear();
        self.ready_scratch.clear();
        match step {
            ScheduleStep::Deliver(seq) => {
                let pos = self
                    .open
                    .iter()
                    .position(|ev| ev.seq == seq)
                    .ok_or_else(|| {
                        DriverError::Backend(format!("delivery d{seq} is not enabled"))
                    })?;
                // `Vec::remove` keeps the rest of the open set in birth
                // order.
                let ev = self.open.remove(pos);
                let SpaceEventKind::Deliver { from, to, frame } = ev.kind else {
                    unreachable!("the open set holds only deliveries");
                };
                let pi = to.index();
                debug_assert!(self.life[pi].state.is_up(), "crash pruned frames to p{pi}");
                self.stats.record_deliveries(frame.len() as u64);
                self.deliver_frame(from, to, frame)?;
            }
            ScheduleStep::Invoke(plan) => {
                let idx = plan as usize;
                if idx >= self.plan.len() || !self.invoke_enabled(idx) {
                    return Err(DriverError::Backend(format!(
                        "invocation i{plan} is not enabled"
                    )));
                }
                let (proc, reg, op) = {
                    let e = &self.plan[idx];
                    (e.proc, e.reg, e.op.clone())
                };
                let op_id = OpId::new(self.records.len() as u64);
                self.records.push((
                    reg,
                    OpRecord {
                        op_id,
                        proc,
                        op: op.clone(),
                        invoked_at: self.now,
                        completed: None,
                    },
                ));
                self.outstanding.insert((proc, reg), op_id);
                {
                    let e = &mut self.plan[idx];
                    e.op_id = Some(op_id);
                    e.state = PlanState::Invoked;
                }
                let cached = if matches!(op, Operation::Read) {
                    self.try_serve_cached(proc, reg)
                } else {
                    None
                };
                if let Some(v) = cached {
                    // Cache hit: the operation is internally complete the
                    // instant it is invoked — its *response* still fires as
                    // a separate schedulable event, so the checker controls
                    // exactly when the cached value becomes visible.
                    self.plan[idx].state = PlanState::Ready(OpOutcome::ReadValue(v));
                    self.ready_scratch.push(idx as u64);
                } else {
                    self.nodes[proc.index()]
                        .on_invoke(reg, op_id, op, &mut self.fx)
                        .expect("plan_entry checked register presence");
                    self.apply_effects(proc)?;
                }
            }
            ScheduleStep::Respond(plan) => {
                let idx = plan as usize;
                let enabled = self.plan.get(idx).is_some_and(|e| {
                    matches!(e.state, PlanState::Ready(_))
                        && self.life[e.proc.index()].state.is_up()
                });
                if !enabled {
                    return Err(DriverError::Backend(format!(
                        "response r{plan} is not enabled"
                    )));
                }
                let e = &mut self.plan[idx];
                let PlanState::Ready(outcome) =
                    std::mem::replace(&mut e.state, PlanState::Responded)
                else {
                    unreachable!("checked Ready above");
                };
                let op_id = e.op_id.expect("Ready implies invoked");
                let (proc, reg) = (e.proc, e.reg);
                let rec = &mut self.records[op_id.raw() as usize].1;
                debug_assert!(rec.completed.is_none());
                rec.completed = Some((self.now, outcome));
                self.outstanding.remove(&(proc, reg));
            }
            ScheduleStep::Crash(p) => {
                self.do_crash(p)?;
            }
            ScheduleStep::Recover(p) => {
                self.do_recover(p)?;
            }
        }
        Ok(FireOutcome {
            created: std::mem::take(&mut self.created_scratch),
            became_ready: std::mem::take(&mut self.ready_scratch),
        })
    }

    /// Drops every open frame addressed to `p` (atomic non-delivery with
    /// the crash), keeping `delivered + dropped == sent` accounting exact.
    fn drop_open_frames_to(&mut self, p: ProcessId) {
        let mut dropped = 0u64;
        self.open.retain(|ev| match &ev.kind {
            SpaceEventKind::Deliver { to, frame, .. } if *to == p => {
                dropped += frame.len() as u64;
                false
            }
            _ => true,
        });
        if dropped > 0 {
            self.stats.record_frame_drop_to_crashed(dropped);
        }
    }

    /// The incarnation fence, applied eagerly: at a completed recovery
    /// every in-flight frame was staged under the previous incarnation and
    /// would be rejected on receipt, so it is dropped here instead of at
    /// its delivery event — equivalent semantics, and it keeps the model
    /// checker's enabled set free of dead choices.
    fn purge_open_frames_as_stale(&mut self) {
        let mut stale = 0u64;
        self.open.retain(|ev| match &ev.kind {
            SpaceEventKind::Deliver { frame, .. } => {
                stale += frame.len() as u64;
                false
            }
            SpaceEventKind::Flush { .. } => true,
        });
        if stale > 0 {
            self.stats.record_dropped_stale(stale);
        }
    }

    /// Shared crash path of [`Driver::crash`] and
    /// [`ScheduleStep::Crash`]: lifecycle transition, atomic frame drop,
    /// and (scheduled mode) plan-step death for the operations the crash
    /// interrupted.
    fn do_crash(&mut self, p: ProcessId) -> Result<(), DriverError> {
        let pi = p.index();
        if pi >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(p));
        }
        self.life[pi]
            .crash()
            .map_err(|_| DriverError::AlreadyCrashed(p))?;
        if self.scheduled {
            self.drop_open_frames_to(p);
            for e in &mut self.plan {
                if e.proc == p && matches!(e.state, PlanState::Invoked | PlanState::Ready(_)) {
                    e.state = PlanState::Died;
                    self.outstanding.remove(&(p, e.reg));
                }
            }
        }
        Ok(())
    }

    /// Shared recovery path of [`Driver::recover`] and
    /// [`ScheduleStep::Recover`] — one atomic rejoin:
    ///
    /// 1. (event mode only) run to quiescence, so the transfer happens on
    ///    an empty network;
    /// 2. per register, adopt the longest confirmed prefix among the live
    ///    donors as the [`Snapshot`] (round-tripping the byte codec under
    ///    [`SpaceBuilder::wire_codec`], and accounting its size as
    ///    `snapshot_bytes` either way);
    /// 3. install it at `p` and hard-reset every live peer to the barrier
    ///    ([`Automaton::apply_rejoin`] — its effects flow as ordinary
    ///    new-epoch traffic);
    /// 4. bump `p`'s incarnation and fence all pre-recovery frames as
    ///    stale (skipped together by the negative-control ablation).
    fn do_recover(&mut self, p: ProcessId) -> Result<(), DriverError> {
        let pi = p.index();
        if pi >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(p));
        }
        if !self.recovery {
            return Err(DriverError::Backend(
                "recovery is disabled for this space (enable SpaceBuilder::recovery)".into(),
            ));
        }
        if !self.life[pi].state.is_crashed() {
            return Err(DriverError::NotCrashed(p));
        }
        if !self.scheduled {
            // Quiescing first empties the network (frames to the crashed
            // process drop), so no pre-recovery frame survives the rejoin.
            self.run_to_quiescence()?;
        }
        if !(0..self.cfg.n()).any(|q| q != pi && self.life[q].state.is_up()) {
            return Err(DriverError::Backend(format!(
                "recover {p}: no live donor process"
            )));
        }
        self.life[pi]
            .begin_recovery()
            .expect("checked Crashed above");
        let registers = self.registers.clone();
        for reg in registers {
            let mut best: Option<Vec<A::Value>> = None;
            for q in 0..self.cfg.n() {
                if q == pi || !self.life[q].state.is_up() {
                    continue;
                }
                if let Some(s) = self.nodes[q].recovery_snapshot(reg) {
                    if best.as_ref().is_none_or(|b| s.len() > b.len()) {
                        best = Some(s);
                    }
                }
            }
            let Some(values) = best else {
                self.life[pi].abort_recovery();
                return Err(DriverError::RecoveryUnsupported);
            };
            let wrapped = Snapshot::new(reg, values);
            let snap = if self.wire_codec {
                let blob = wrapped
                    .encode()
                    .map_err(|e| DriverError::Backend(format!("snapshot encode: {e}")))?;
                self.stats.record_snapshot_frame(blob.len() as u64);
                Snapshot::<A::Value>::decode(&blob)
                    .map_err(|e| DriverError::Backend(format!("snapshot decode: {e}")))?
                    .values
            } else {
                self.stats
                    .record_snapshot_frame(wrapped.encoded_len_bytes());
                wrapped.values
            };
            self.nodes[pi]
                .install_recovery(reg, &snap)
                .expect("the space hosts all of its registers");
            for q in 0..self.cfg.n() {
                if q == pi || !self.life[q].state.is_up() {
                    continue;
                }
                self.nodes[q]
                    .apply_rejoin(reg, p, &snap, &mut self.fx)
                    .expect("the space hosts all of its registers");
                self.apply_effects(ProcessId::new(q))?;
            }
        }
        // Operations the crash orphaned are gone for good; the rejoined
        // process starts clean (its pre-crash cache must not serve either:
        // peers may have adopted a value it never confirmed).
        self.outstanding.retain(|(proc, _), _| *proc != p);
        self.caches[pi] = cache_pair(self.registers.len(), self.cache_mode);
        let bump = !self.skip_inc_bump;
        self.life[pi].complete_recovery(bump);
        if bump {
            self.purge_open_frames_as_stale();
        }
        self.stats.record_recovery();
        self.recovery_records.push(RecoveryRecord {
            proc: p,
            at: self.now,
            incarnation: self.life[pi].incarnation,
        });
        Ok(())
    }

    /// Hands the scheduling loop to `sched` until it stops (a
    /// [`Scheduler`] must stop on an empty enabled set). Returns the fired
    /// schedule — replaying it with [`ReplayScheduler::strict`] on a fresh
    /// identically-built space reproduces this run exactly.
    ///
    /// # Errors
    ///
    /// The first [`SimSpace::fire`] error (a scheduler prescribing an
    /// unfireable step, or the event guard tripping).
    ///
    /// [`ReplayScheduler::strict`]: twobit_proto::ReplayScheduler::strict
    pub fn run_scheduled(&mut self, sched: &mut dyn Scheduler) -> Result<Schedule, DriverError> {
        let mut fired = Schedule::new();
        loop {
            let enabled = self.enabled_events();
            match sched.decide(&enabled) {
                SchedDecision::Stop => return Ok(fired),
                SchedDecision::Fire(step) => {
                    self.fire(step)?;
                    fired.push(step);
                }
            }
        }
    }

    /// Checks that a *terminal* scheduled run (empty enabled set) starved
    /// no live process: an operation that was invoked but never completed,
    /// with no messages left to deliver, means a live process lost its
    /// quorum — impossible under the paper's `t < n/2` crash bound, so a
    /// violation of the algorithm's termination claim.
    ///
    /// # Errors
    ///
    /// A description of the starved plan step.
    pub fn check_schedule_liveness(&self) -> Result<(), String> {
        for (idx, e) in self.plan.iter().enumerate() {
            if !self.life[e.proc.index()].state.is_up() {
                continue;
            }
            // Died steps are exempt: their process crashed mid-operation
            // (and possibly recovered since) — the op is gone by rule, not
            // by starvation.
            if matches!(e.state, PlanState::Invoked) {
                return Err(format!(
                    "plan step {idx} ({}) invoked but never completed: the \
                     terminal schedule starved a live process",
                    Self::plan_label(e)
                ));
            }
        }
        Ok(())
    }

    /// Whether `p` is currently crashed (recovered processes are up again).
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.life[p.index()].state.is_crashed()
    }

    /// Whether [`SpaceBuilder::recovery`] enabled crash-recovery (a
    /// [`ScheduleStep::Recover`] on a space built without it is a typed
    /// error, so schedulers ask first).
    pub fn recovery_enabled(&self) -> bool {
        self.recovery
    }

    /// `p`'s incarnation number (0 until its first completed recovery).
    pub fn incarnation(&self, p: ProcessId) -> u64 {
        self.life[p.index()].incarnation
    }

    /// Whether every plan step has run to completion or died with its
    /// process. Once this holds, no future delivery can change the
    /// operation history — frames still in flight only touch automaton
    /// state — so a model checker may soundly cut the schedule here
    /// instead of draining the network.
    pub fn plan_settled(&self) -> bool {
        assert!(self.scheduled, "plan_settled requires scheduled mode");
        self.plan.iter().all(|e| {
            matches!(e.state, PlanState::Responded | PlanState::Died)
                || !self.life[e.proc.index()].state.is_up()
        })
    }

    /// Whether some scripted operation is still waiting but its process is
    /// down — the one situation where a future [`ScheduleStep::Recover`]
    /// re-opens a settled plan ([`SimSpace::plan_settled`] counts steps on
    /// crashed processes as settled because, absent recovery, they can
    /// never run).
    pub fn plan_waiting_on_crashed(&self) -> bool {
        assert!(
            self.scheduled,
            "plan_waiting_on_crashed requires scheduled mode"
        );
        self.plan.iter().any(|e| {
            !matches!(e.state, PlanState::Responded | PlanState::Died)
                && !self.life[e.proc.index()].state.is_up()
        })
    }
}

impl<A: Automaton> Driver for SimSpace<A> {
    type Value = A::Value;

    fn config(&self) -> SystemConfig {
        self.cfg
    }

    fn registers(&self) -> Vec<RegisterId> {
        self.registers.clone()
    }

    fn invoke(
        &mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
    ) -> Result<OpTicket, DriverError> {
        if self.scheduled {
            return Err(DriverError::Backend(
                "scheduled mode: script operations with plan_op and fire them \
                 through a Scheduler, not Driver::invoke"
                    .into(),
            ));
        }
        let pi = proc.index();
        if pi >= self.cfg.n() {
            return Err(DriverError::UnknownProcess(proc));
        }
        if !self.registers.contains(&reg) {
            return Err(DriverError::UnknownRegister(reg));
        }
        if !self.life[pi].state.is_up() {
            return Err(DriverError::ProcessUnavailable(proc));
        }
        if self.outstanding.contains_key(&(proc, reg)) {
            return Err(DriverError::OperationInFlight { proc, reg });
        }
        if matches!(op, Operation::Read) {
            if let Some(v) = self.try_serve_cached(proc, reg) {
                // Cache hit: the read completes at this very instant with
                // zero communication — no automaton invocation, no sends.
                let op_id = OpId::new(self.records.len() as u64);
                self.records.push((
                    reg,
                    OpRecord {
                        op_id,
                        proc,
                        op,
                        invoked_at: self.now,
                        completed: Some((self.now, OpOutcome::ReadValue(v))),
                    },
                ));
                return Ok(OpTicket { proc, reg, op_id });
            }
        }
        let op_id = OpId::new(self.records.len() as u64);
        self.records.push((
            reg,
            OpRecord {
                op_id,
                proc,
                op: op.clone(),
                invoked_at: self.now,
                completed: None,
            },
        ));
        self.outstanding.insert((proc, reg), op_id);
        self.nodes[pi]
            .on_invoke(reg, op_id, op, &mut self.fx)
            .expect("register presence checked above");
        self.apply_effects(proc)?;
        Ok(OpTicket { proc, reg, op_id })
    }

    fn poll(&mut self, ticket: &OpTicket) -> Result<OpOutcome<A::Value>, DriverError> {
        loop {
            let (_, rec) = self
                .records
                .get(ticket.op_id.raw() as usize)
                .ok_or(DriverError::Stalled(ticket.op_id))?;
            if let Some((_, outcome)) = &rec.completed {
                return Ok(outcome.clone());
            }
            if !self.step()? {
                return if self.life[ticket.proc.index()].state.is_up() {
                    Err(DriverError::Stalled(ticket.op_id))
                } else {
                    Err(DriverError::ProcessUnavailable(ticket.proc))
                };
            }
        }
    }

    fn crash(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        self.do_crash(proc)
    }

    fn recover(&mut self, proc: ProcessId) -> Result<(), DriverError> {
        self.do_recover(proc)
    }

    fn lifecycle(&self, proc: ProcessId) -> Lifecycle {
        self.life
            .get(proc.index())
            .map_or(Lifecycle::Crashed, |l| l.state)
    }

    fn history(&self) -> ShardedHistory<A::Value> {
        ShardedHistory::from_tagged(
            self.initial.clone(),
            self.registers.iter().copied(),
            self.records.iter().cloned(),
        )
        .with_recoveries(&self.recovery_records)
    }

    fn stats(&self) -> NetStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MajorityEcho;
    use twobit_proto::{ReplayScheduler, VirtualTimeScheduler};

    fn cfg5() -> SystemConfig {
        SystemConfig::new(5, 2).unwrap()
    }

    fn space(regs: usize, seed: u64) -> SimSpace<MajorityEcho> {
        let cfg = cfg5();
        SpaceBuilder::new(cfg)
            .seed(seed)
            .delay(DelayModel::Fixed(1_000))
            .registers(regs)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg))
    }

    #[test]
    fn shards_are_independent() {
        let mut s = space(4, 1);
        let p1 = ProcessId::new(1);
        s.write(p1, RegisterId::new(2), 9).unwrap();
        // Only r2 saw traffic: 4 PINGs + 4 PONGs.
        assert_eq!(s.stats().shard(RegisterId::new(2)).sent, 8);
        assert_eq!(s.stats().shard(RegisterId::new(0)).sent, 0);
        assert_eq!(s.stats().total_sent(), 8);
        // Unframed-equivalent routing: ⌈log₂ 4⌉ = 2 bits per message;
        // control stays intact. On the wire, each message travelled in a
        // frame whose header is recorded separately.
        assert_eq!(s.stats().routing_bits(), 16);
        assert_eq!(s.stats().frames_sent(), 8, "one frame per link crossing");
        assert_eq!(s.stats().framed_messages(), 8);
        assert!(s.stats().frame_header_bits() > 0);
        let h = s.history();
        assert_eq!(h.shard(RegisterId::new(2)).unwrap().len(), 1);
        assert_eq!(h.shard(RegisterId::new(0)).unwrap().len(), 0);
    }

    #[test]
    fn same_instant_same_link_sends_coalesce_into_one_frame() {
        let mut s = space(2, 9);
        let p0 = ProcessId::new(0);
        // Two writes on different registers issued at the same virtual
        // instant: each peer link carries both PINGs in ONE frame.
        let t0 = s
            .invoke(p0, RegisterId::new(0), Operation::Write(1))
            .unwrap();
        let t1 = s
            .invoke(p0, RegisterId::new(1), Operation::Write(2))
            .unwrap();
        s.poll(&t0).unwrap();
        s.poll(&t1).unwrap();
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        // 4 peers × (1 PING frame out + 1 PONG frame back), 2 messages each.
        assert_eq!(stats.total_sent(), 16);
        assert_eq!(stats.frames_sent(), 8);
        assert_eq!(stats.max_frame_messages(), 2);
        assert!((stats.messages_per_frame() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn frames_drop_atomically_to_crashed_destination() {
        let mut s = space(2, 12);
        let p0 = ProcessId::new(0);
        let p4 = ProcessId::new(4);
        let t0 = s
            .invoke(p0, RegisterId::new(0), Operation::Write(1))
            .unwrap();
        let t1 = s
            .invoke(p0, RegisterId::new(1), Operation::Write(2))
            .unwrap();
        // Crash p4 while the two-message frame to it is still in flight:
        // both messages vanish together, none is half-delivered.
        s.crash(p4).unwrap();
        s.poll(&t0).unwrap();
        s.poll(&t1).unwrap();
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        assert_eq!(stats.dropped_to_crashed(), 2, "whole frame dropped");
        // 8 PINGs + the 3 live peers' 2 PONGs each; p4 never replies.
        assert_eq!(stats.total_sent(), 14);
        assert_eq!(
            stats.total_delivered() + stats.dropped_to_crashed(),
            stats.total_sent(),
            "every sent message is delivered or dropped whole-frame"
        );
    }

    #[test]
    fn pipelining_across_shards_sequential_per_shard() {
        let mut s = space(2, 2);
        let p0 = ProcessId::new(0);
        let r0 = RegisterId::new(0);
        let r1 = RegisterId::new(1);
        let t0 = s.invoke(p0, r0, Operation::Write(1)).unwrap();
        // Same process, different register: pipelines.
        let t1 = s.invoke(p0, r1, Operation::Write(2)).unwrap();
        // Same register: rejected with a typed error.
        let err = s.invoke(p0, r0, Operation::Read).unwrap_err();
        assert_eq!(err, DriverError::OperationInFlight { proc: p0, reg: r0 });
        assert_eq!(s.poll(&t0).unwrap(), OpOutcome::Written);
        assert_eq!(s.poll(&t1).unwrap(), OpOutcome::Written);
        // Both writes overlapped in virtual time.
        let h = s.history();
        let w0 = &h.shard(r0).unwrap().records[0];
        let w1 = &h.shard(r1).unwrap().records[0];
        assert_eq!(w0.invoked_at, w1.invoked_at);
    }

    #[test]
    fn wire_codec_mode_runs_on_decoded_bytes() {
        let cfg = cfg5();
        let mut s = SpaceBuilder::new(cfg)
            .seed(21)
            .delay(DelayModel::Fixed(1_000))
            .registers(4)
            .wire_codec(true)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
        let p0 = ProcessId::new(0);
        s.write(p0, RegisterId::new(1), 77).unwrap();
        assert_eq!(s.read(p0, RegisterId::new(1)).unwrap(), 77);
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        assert!(stats.wire_bytes() > 0, "every frame crossed as bytes");
        assert_eq!(
            stats.total_delivered() + stats.dropped_to_crashed(),
            stats.total_sent(),
            "decoded frames deliver exactly the encoded messages"
        );
        // The protocol made progress on decoded bytes, so fidelity held.
        assert!(stats.frames_sent() > 0);
    }

    #[test]
    fn wire_codec_mode_is_deterministic_and_equivalent() {
        // Same seed, codec on vs off: identical timings, events and
        // traffic — the codec is a pass-through for semantics.
        let run = |codec: bool| {
            let cfg = cfg5();
            let mut s = SpaceBuilder::new(cfg)
                .seed(11)
                .delay(DelayModel::Fixed(1_000))
                .registers(3)
                .wire_codec(codec)
                .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
            for i in 0..3usize {
                s.write(ProcessId::new(i), RegisterId::new(i), 7).unwrap();
            }
            s.run_to_quiescence().unwrap();
            (s.now(), s.events(), s.stats().total_sent())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn every_simnet_frame_carries_a_hold_flush_reason() {
        let mut s = space(4, 6);
        let p1 = ProcessId::new(1);
        s.write(p1, RegisterId::new(2), 9).unwrap();
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        assert_eq!(
            stats.flushes(twobit_proto::FlushReason::Hold),
            stats.frames_sent(),
            "the simulator's flushes are all hold-marker firings"
        );
        assert_eq!(stats.flushes_total(), stats.frames_sent());
    }

    #[test]
    fn static_hold_window_is_observed_in_the_stats() {
        let cfg = cfg5();
        let mut s = SpaceBuilder::new(cfg)
            .seed(4)
            .delay(DelayModel::Fixed(1_000))
            .flush_hold(250)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
        s.write(ProcessId::new(0), RegisterId::ZERO, 1).unwrap();
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        assert_eq!(
            stats.max_observed_hold_ns(),
            250 * 1_000,
            "250 virtual ticks = 250µs of observed hold"
        );
    }

    #[test]
    fn adaptive_hold_is_deterministic_and_equivalent_to_itself() {
        let run = || {
            let cfg = cfg5();
            let mut s = SpaceBuilder::new(cfg)
                .seed(13)
                .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
                .flush_hold_policy(VirtualHold::Adaptive {
                    floor: 0,
                    ceil: 1_500,
                })
                .registers(3)
                .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
            for round in 0..4u64 {
                for i in 0..3usize {
                    s.write(ProcessId::new(i), RegisterId::new(i), round)
                        .unwrap();
                }
            }
            s.run_to_quiescence().unwrap();
            (
                s.now(),
                s.events(),
                s.stats().total_sent(),
                s.stats().frames_sent(),
                s.stats().observed_hold_ns(),
            )
        };
        assert_eq!(run(), run(), "adaptive holds stay a function of the seed");
    }

    #[test]
    fn adaptive_hold_coalesces_staggered_traffic_at_least_as_well_as_zero_hold() {
        let run = |hold: VirtualHold| {
            let cfg = cfg5();
            let mut s = SpaceBuilder::new(cfg)
                .seed(29)
                .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
                .flush_hold_policy(hold)
                .registers(8)
                .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
            // Staggered, busy traffic: issue every register's write and let
            // replies overlap so links see a stream, not lone messages.
            let mut tickets = Vec::new();
            for k in 0..8usize {
                tickets.push(
                    s.invoke(
                        ProcessId::new(k % 5),
                        RegisterId::new(k),
                        Operation::Write(1),
                    )
                    .unwrap(),
                );
            }
            for t in &tickets {
                s.poll(t).unwrap();
            }
            s.run_to_quiescence().unwrap();
            s.stats().frames_sent()
        };
        let zero = run(VirtualHold::Static(0));
        let adaptive = run(VirtualHold::Adaptive {
            floor: 0,
            ceil: 1_500,
        });
        assert!(
            adaptive <= zero,
            "adaptive ({adaptive} frames) must coalesce at least as hard as zero hold ({zero})"
        );
    }

    #[test]
    fn per_link_hold_override_applies_to_that_link() {
        let cfg = cfg5();
        let mut s = SpaceBuilder::new(cfg)
            .seed(3)
            .delay(DelayModel::Fixed(1_000))
            .flush_hold(0)
            // p0 → p1 holds long; every other link flushes per instant.
            .flush_hold_for(0, 1, VirtualHold::Static(400))
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
        s.write(ProcessId::new(0), RegisterId::ZERO, 5).unwrap();
        s.run_to_quiescence().unwrap();
        let stats = s.stats();
        assert_eq!(
            stats.max_observed_hold_ns(),
            400 * 1_000,
            "only the overridden link held its batch"
        );
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn inverted_adaptive_band_panics_at_the_builder() {
        let cfg = cfg5();
        let _ = SpaceBuilder::new(cfg).flush_hold_policy(VirtualHold::Adaptive {
            floor: 100,
            ceil: 50,
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut s = space(3, seed);
            for i in 0..3usize {
                s.write(ProcessId::new(i), RegisterId::new(i), 7).unwrap();
            }
            s.run_to_quiescence().unwrap();
            (s.now(), s.events(), s.stats().total_sent())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn crash_is_observed() {
        let mut s = space(1, 3);
        s.crash(ProcessId::new(2)).unwrap();
        let err = s
            .invoke(ProcessId::new(2), RegisterId::ZERO, Operation::Read)
            .unwrap_err();
        assert_eq!(err, DriverError::ProcessUnavailable(ProcessId::new(2)));
        // Minority crash: others still make progress.
        s.write(ProcessId::new(0), RegisterId::ZERO, 5).unwrap();
    }

    fn scheduled_space(cfg: SystemConfig, seed: u64) -> SimSpace<MajorityEcho> {
        SpaceBuilder::new(cfg)
            .seed(seed)
            .delay(DelayModel::Fixed(1_000))
            .scheduled(true)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg))
    }

    #[test]
    fn scheduled_mode_virtual_time_run_completes_the_plan() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = scheduled_space(cfg, 1);
        let w = s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(7));
        let r = s.plan_op_after(ProcessId::new(1), RegisterId::ZERO, Operation::Read, w);
        let fired = s.run_scheduled(&mut VirtualTimeScheduler).unwrap();
        assert!(s.enabled_events().is_empty(), "run is terminal");
        s.check_schedule_liveness().unwrap();
        // Both plan steps invoked and responded, in dependency order.
        let h = s.history();
        let recs = &h.shard(RegisterId::ZERO).unwrap().records;
        assert_eq!(recs.len(), 2);
        assert!(recs[0].completed.as_ref().unwrap().0 < recs[1].invoked_at);
        // The fired schedule starts by invoking the write (the only
        // enabled event at the start) and fires every step exactly once.
        assert_eq!(fired.steps()[0], ScheduleStep::Invoke(w as u64));
        assert!(fired.steps().contains(&ScheduleStep::Respond(r as u64)));
    }

    #[test]
    fn scheduled_mode_observes_no_hold() {
        // Scheduled mode has no hold windows: every link is flushed in the
        // step that staged it, however many steps apart its frames are.
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = scheduled_space(cfg, 1);
        // Two writes of one process: its links carry a frame for each.
        s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(7));
        s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(8));
        s.run_scheduled(&mut VirtualTimeScheduler).unwrap();
        let stats = s.stats();
        assert!(stats.frames_sent() >= 4, "{} frames", stats.frames_sent());
        assert_eq!(stats.max_observed_hold_ns(), 0);
        assert_eq!(stats.observed_hold_ns(), 0);
    }

    #[test]
    fn scheduled_runs_replay_bit_identically() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let run = |sched: &mut dyn Scheduler| {
            let mut s = scheduled_space(cfg, 5);
            s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(3));
            s.plan_op(ProcessId::new(1), RegisterId::ZERO, Operation::Read);
            let fired = s.run_scheduled(sched).unwrap();
            (fired, format!("{:?}", s.history()), s.stats().total_sent())
        };
        let (fired, hist, sent) = run(&mut VirtualTimeScheduler);
        // Strict replay of the recorded schedule reproduces the run.
        let (fired2, hist2, sent2) = run(&mut ReplayScheduler::strict(&fired));
        assert_eq!(fired, fired2);
        assert_eq!(hist, hist2);
        assert_eq!(sent, sent2);
        // And the schedule string round-trips through its text form.
        let reparsed: Schedule = fired.to_string().parse().unwrap();
        let (fired3, hist3, _) = run(&mut ReplayScheduler::strict(&reparsed));
        assert_eq!(fired, fired3);
        assert_eq!(hist, hist3);
    }

    #[test]
    fn scheduled_crash_drops_open_frames_atomically() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = scheduled_space(cfg, 2);
        let w = s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(1));
        s.fire(ScheduleStep::Invoke(w as u64)).unwrap();
        // The write's PINGs to p1 and p2 are open; crash p2.
        let before = s.enabled_events().len();
        s.fire(ScheduleStep::Crash(ProcessId::new(2))).unwrap();
        assert_eq!(s.enabled_events().len(), before - 1);
        assert!(s.is_crashed(ProcessId::new(2)));
        let stats = s.stats();
        assert!(stats.dropped_to_crashed() > 0);
        // A second crash of the same process is rejected.
        assert!(s.fire(ScheduleStep::Crash(ProcessId::new(2))).is_err());
        // Majority alive: the write still completes.
        let mut rest = VirtualTimeScheduler;
        s.run_scheduled(&mut rest).unwrap();
        s.check_schedule_liveness().unwrap();
        // At quiescence every sent message was delivered or dropped whole.
        let end = s.stats();
        assert_eq!(
            end.total_delivered() + end.dropped_to_crashed(),
            end.total_sent()
        );
    }

    #[test]
    fn scheduled_mode_rejects_unfireable_steps_and_interactive_driving() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = scheduled_space(cfg, 3);
        let w = s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(1));
        // Nothing delivered yet: no response, no such frame.
        assert!(s.fire(ScheduleStep::Respond(w as u64)).is_err());
        assert!(s.fire(ScheduleStep::Deliver(99)).is_err());
        // Interactive invoke is a different driving mode.
        assert!(s
            .invoke(ProcessId::new(0), RegisterId::ZERO, Operation::Read)
            .is_err());
    }

    #[test]
    fn scheduled_liveness_check_flags_a_starved_operation() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = scheduled_space(cfg, 4);
        let w = s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(1));
        s.fire(ScheduleStep::Invoke(w as u64)).unwrap();
        // Invoked, nothing delivered: a (non-terminal) stall.
        let err = s.check_schedule_liveness().unwrap_err();
        assert!(err.contains("plan step 0"), "{err}");
    }

    fn cached_space(mode: CacheMode, seed: u64) -> SimSpace<MajorityEcho> {
        let cfg = cfg5();
        SpaceBuilder::new(cfg)
            .seed(seed)
            .delay(DelayModel::Fixed(1_000))
            .registers(2)
            .cache_mode(mode)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg))
    }

    #[test]
    fn cache_off_counts_nothing() {
        let mut s = space(2, 8);
        let p0 = ProcessId::new(0);
        s.write(p0, RegisterId::ZERO, 3).unwrap();
        s.read(p0, RegisterId::ZERO).unwrap();
        let stats = s.stats();
        assert_eq!(stats.cache_hits(), 0);
        assert_eq!(stats.cache_misses(), 0);
        assert_eq!(stats.cache_fallbacks(), 0);
    }

    #[test]
    fn safe_cache_without_a_swmr_writer_never_serves() {
        // MajorityEcho is multi-writer (`swmr_writer` is None), so the
        // safety gate refuses every confirmed entry: reads after a local
        // completion are fallbacks, never hits.
        let mut s = cached_space(CacheMode::Safe, 17);
        let p0 = ProcessId::new(0);
        assert_eq!(s.read(p0, RegisterId::ZERO).unwrap(), 0);
        s.write(p0, RegisterId::ZERO, 5).unwrap();
        assert_eq!(s.read(p0, RegisterId::ZERO).unwrap(), 5);
        let stats = s.stats();
        assert_eq!(stats.cache_hits(), 0, "the gate must refuse");
        assert_eq!(stats.cache_misses(), 1, "first read found nothing");
        assert_eq!(stats.cache_fallbacks(), 1, "second read was gated");
    }

    #[test]
    fn ablated_cache_serves_blindly_with_zero_traffic() {
        let mut s = cached_space(CacheMode::UnsafeAblated, 17);
        let p0 = ProcessId::new(0);
        s.write(p0, RegisterId::ZERO, 5).unwrap();
        let sent_after_write = s.stats().total_sent();
        assert_eq!(s.read(p0, RegisterId::ZERO).unwrap(), 5);
        let stats = s.stats();
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(
            stats.total_sent(),
            sent_after_write,
            "a cache hit sends nothing"
        );
        // The hit left a completed record at a single instant.
        let h = s.history();
        let rec = &h.shard(RegisterId::ZERO).unwrap().records[1];
        assert_eq!(rec.completed.as_ref().unwrap().0, rec.invoked_at);
    }

    #[test]
    fn scheduled_cache_hit_still_fires_a_separate_response() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let mut s = SpaceBuilder::new(cfg)
            .seed(6)
            .delay(DelayModel::Fixed(1_000))
            .scheduled(true)
            .cache_mode(CacheMode::UnsafeAblated)
            .build(0u64, |_reg, id| MajorityEcho::new(id, cfg));
        let w = s.plan_op(ProcessId::new(0), RegisterId::ZERO, Operation::Write(4));
        let r1 = s.plan_op_after(ProcessId::new(0), RegisterId::ZERO, Operation::Read, w);
        let r2 = s.plan_op_after(ProcessId::new(0), RegisterId::ZERO, Operation::Read, r1);
        s.run_scheduled(&mut VirtualTimeScheduler).unwrap();
        s.check_schedule_liveness().unwrap();
        let h = s.history();
        let recs = &h.shard(RegisterId::ZERO).unwrap().records;
        assert_eq!(recs.len(), 3);
        for rec in recs {
            assert!(rec.completed.is_some());
        }
        // The second read hit the cache (the first one's completion
        // confirmed the entry), and its response fired as its own event:
        // completion strictly after invocation in scheduled time.
        assert!(s.stats().cache_hits() >= 1);
        let hit = &recs[2];
        assert!(hit.completed.as_ref().unwrap().0 > hit.invoked_at);
        let _ = r2;
    }

    #[test]
    fn bad_addresses_are_typed() {
        let mut s = space(2, 4);
        assert_eq!(
            s.invoke(ProcessId::new(9), RegisterId::ZERO, Operation::Read)
                .unwrap_err(),
            DriverError::UnknownProcess(ProcessId::new(9))
        );
        assert_eq!(
            s.invoke(ProcessId::new(0), RegisterId::new(7), Operation::Read)
                .unwrap_err(),
            DriverError::UnknownRegister(RegisterId::new(7))
        );
    }
}
