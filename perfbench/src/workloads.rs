//! The four workloads, and how one repetition of one is run, verified and
//! turned into metric values.
//!
//! Every workload is the two-bit automaton with the read cache off and
//! builder defaults except as listed; the live ones run on loopback TCP
//! under `FlushPolicy::adaptive(64, 0, 200 µs)`. All replay the same seeded
//! 50/50 script (see [`crate::script`]) over sixteen registers.

use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use twobit_core::TwoBitProcess;
use twobit_proto::{Driver, FlushReason, NetStats, ShardedHistory, SystemConfig};
use twobit_reactor::{ReactorClusterBuilder, ReactorNode};
use twobit_runtime::FlushPolicy;
use twobit_simnet::{DelayModel, SimSpace, SpaceBuilder, VirtualHold};

use crate::gen::{Clock, Generator, Span, Stop, WallClock};
use crate::metrics::{self, percentile, Reading, Values, END_TO_END, PER_LAYER};
use crate::probe::{cpu_seconds, AllocReading};
use crate::script::{writer_of, Script};
use crate::{layers, trace};

/// Processes in every workload but `reactor_wide`.
pub const N: usize = 5;
/// Processes in `reactor_wide`: fan-out 15, 240 ordered links.
pub const WIDE_N: usize = 16;
/// Registers hosted by every deployment.
pub const REGISTERS: usize = 16;
/// Closed-loop window.
pub const WINDOW: usize = 16;
/// `reactor_paced` arrivals per second — about a fifth of what
/// `reactor_mixed` sustains on two cores, so frames go out unbatched.
pub const PACED_RATE: u64 = 2000;
/// Back-to-back repetitions per run, each on a fresh deployment.
pub const REPS: usize = 3;
/// The simulator's own seed is fixed: `--seed` varies the script only, so
/// two runs at one seed repeat every count exactly.
const SIM_SEED: u64 = 0x2b17;
/// `simnet_mixed` is sized in operations, not time, so its counts repeat:
/// this many per second a live timed section would have lasted (800 000
/// per repetition at the default 24 s run), about what one core does.
const SIM_OPS_PER_SECOND: f64 = 100_000.0;

/// The flush policy of every live workload.
pub fn live_flush_policy() -> FlushPolicy {
    FlushPolicy::adaptive(64, Duration::ZERO, Duration::from_micros(200))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Deployment {
    Reactor { n: usize },
    Simnet,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    deployment: Deployment,
    /// Open loop at [`PACED_RATE`] instead of the closed loop.
    open: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "reactor_mixed",
        why: "n=5 reactor on loopback TCP, closed loop W=16: both cores saturated with batching active; the throughput headline",
        deployment: Deployment::Reactor { n: N },
        open: false,
    },
    Workload {
        name: "reactor_paced",
        why: "same deployment, open loop at 2000 ops/s: unbatched, so latency is wake-ups plus batcher hold; shows a throughput gain that costs light-load latency",
        deployment: Deployment::Reactor { n: N },
        open: true,
    },
    Workload {
        name: "reactor_wide",
        why: "n=16 (240 links), closed loop W=16: fan-out and O(links) poller work dominate; poller changes must show here and not on reactor_mixed",
        deployment: Deployment::Reactor { n: WIDE_N },
        open: false,
    },
    Workload {
        name: "simnet_mixed",
        why: "n=5 on SimSpace with the wire codec, one thread, no sockets: pure automaton+ShardSet+codec+NetStats cost; reactor/lock/channel changes must leave it unchanged",
        deployment: Deployment::Simnet,
        open: false,
    },
];

/// How long the sections of a repetition are.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Live warm-up, after one operation on every `(process, register)`.
    pub warmup: Duration,
    /// One slice of the live timed section.
    pub slice: Duration,
    /// Slices in the timed section: each runs to its end with nothing
    /// outstanding, and the timing metrics are those of the best one.
    pub slices: usize,
    /// One `simnet_mixed` slice, in operations (its warm-up is as long).
    pub sim_slice_ops: usize,
    /// Operations of the short simnet run every traced run makes for the
    /// `simnet.*` and `attrib.*` metrics.
    pub probe_ops: usize,
    /// Divides the microbenches' iteration counts (1 for a real run).
    pub micro_scale: usize,
    /// Where the traced repetition writes `trace-<workload>.json`.
    pub trace_dir: PathBuf,
}

impl Plan {
    /// The plan of a real run measuring for `seconds` in total: the time is
    /// split evenly over the [`REPS`] repetitions, and each repetition's
    /// share into slices of about a second.
    pub fn for_seconds(seconds: u64, trace_dir: PathBuf) -> Self {
        let timed = seconds as f64 / REPS as f64;
        let slices = (timed.round() as usize).max(1);
        let slice = Duration::from_secs_f64(timed / slices as f64);
        Plan {
            warmup: Duration::from_secs(1),
            slice,
            slices,
            sim_slice_ops: (SIM_OPS_PER_SECOND * slice.as_secs_f64()) as usize,
            probe_ops: 30_000,
            micro_scale: 1,
            trace_dir,
        }
    }
}

/// One slice of a repetition's timed section.
struct Slice {
    elapsed_s: f64,
    cpu_s: f64,
    /// The operations it completed, as a range of [`Rep::spans`].
    spans: Range<usize>,
}

/// What one repetition measured, before it is reduced to metric values.
pub(crate) struct Rep {
    setup_s: f64,
    slices: Vec<Slice>,
    alloc: [AllocReading; 2],
    stats: [NetStats; 2],
    pub(crate) spans: Vec<Span>,
    failed: u64,
    backlog_max: usize,
    pub(crate) ticks: Vec<(u64, NetStats)>,
    check_s: f64,
}

fn build_reactor(n: usize, open: bool) -> Result<ReactorNode<TwoBitProcess<u64>>, String> {
    let cfg = SystemConfig::max_resilience(n);
    let mut builder = ReactorClusterBuilder::new(cfg)
        .registers(REGISTERS)
        .flush_policy(live_flush_policy());
    if open {
        // `Driver` has no non-blocking poll: with a tiny timeout,
        // `DriverError::Timeout` is the generator's "not yet".
        builder = builder.op_timeout(Duration::from_micros(50));
    }
    builder
        .build_sharded(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg, n), 0u64)
        })
        .map_err(|e| format!("reactor cluster failed to start: {e}"))
}

fn build_sim() -> SimSpace<TwoBitProcess<u64>> {
    let cfg = SystemConfig::max_resilience(N);
    SpaceBuilder::new(cfg)
        .seed(SIM_SEED)
        .delay(DelayModel::Uniform { lo: 1, hi: 1_000 })
        .flush_hold_policy(VirtualHold::Adaptive {
            floor: 0,
            ceil: 2_000,
        })
        .wire_codec(true)
        .registers(REGISTERS)
        .build(0u64, move |reg, id| {
            TwoBitProcess::new(id, cfg, writer_of(reg, N), 0u64)
        })
}

/// Set-up, warm-up and the timed section on a built deployment; the caller
/// shuts it down and hands the result to [`verify`].
fn drive<D: Driver<Value = u64>>(
    driver: &mut D,
    w: &Workload,
    plan: &Plan,
    seed: u64,
    trace: bool,
    setup_started: Instant,
) -> Rep {
    let n = driver.config().n();
    let sim = w.deployment == Deployment::Simnet;
    let clock = WallClock::start();
    let mut script = Script::new(seed, n, REGISTERS);
    let touch = script.touch_all();
    let capacity = if sim {
        plan.sim_slice_ops * plan.slices
    } else {
        // Twice what two cores have ever sustained here.
        (plan.slice.as_secs_f64() * 20_000.0) as usize * plan.slices
    };
    let mut gen = Generator::new(driver, &clock, capacity);
    // A section runs to a clock reading on the live workloads and for a
    // number of operations on simnet.
    let mut section = |gen: &mut Generator<'_, D, WallClock>, live: Duration, sim_ops: usize| {
        let until = clock.now() + live.as_nanos() as u64;
        if w.open {
            gen.open_loop(&mut script, PACED_RATE, until);
        } else if sim {
            gen.closed_loop(&mut script, WINDOW, Stop::Ops(sim_ops));
        } else {
            gen.closed_loop(&mut script, WINDOW, Stop::At(until));
        }
    };

    // One operation on every (process, register): every link carries
    // traffic before anything is timed.
    let mut touch = touch.into_iter();
    if w.open {
        gen.open_loop(&mut touch, PACED_RATE, u64::MAX);
    } else {
        gen.closed_loop(&mut touch, WINDOW, Stop::Ops(usize::MAX));
    }
    section(&mut gen, plan.warmup, plan.sim_slice_ops);
    let setup_failed = gen.failed;
    let setup_s = setup_started.elapsed().as_secs_f64();
    gen.reset();

    if trace {
        gen.tick_every(1_000_000_000);
    }
    let stats0 = gen.driver().stats();
    let alloc0 = AllocReading::now();
    let mut slices = Vec::with_capacity(plan.slices);
    for _ in 0..plan.slices {
        let (t0, cpu0, first) = (clock.now(), cpu_seconds(), gen.spans.len());
        section(&mut gen, plan.slice, plan.sim_slice_ops);
        slices.push(Slice {
            elapsed_s: (clock.now() - t0) as f64 / 1e9,
            cpu_s: cpu_seconds() - cpu0,
            spans: first..gen.spans.len(),
        });
    }
    let alloc1 = AllocReading::now();
    let stats1 = gen.driver().stats();

    Rep {
        setup_s,
        slices,
        alloc: [alloc0, alloc1],
        stats: [stats0, stats1],
        failed: gen.failed + setup_failed,
        backlog_max: gen.backlog_max,
        spans: gen.spans,
        ticks: gen.ticks,
        check_s: 0.0,
    }
}

/// The correctness gate, on the full history and the final statistics of a
/// deployment that has shut down (or, on simnet, gone quiet).
fn verify(history: &ShardedHistory<u64>, stats: &NetStats) -> Result<(), String> {
    twobit_lincheck::check_swmr_sharded(history).map_err(|v| format!("not atomic: {v}"))?;
    let settled = stats.total_delivered()
        + stats.dropped_to_crashed()
        + stats.dropped_stale()
        + stats.messages_abandoned();
    if settled != stats.total_sent() {
        return Err(format!(
            "ledger does not reconcile: delivered {} + dropped {} + stale {} + abandoned {} != sent {}",
            stats.total_delivered(),
            stats.dropped_to_crashed(),
            stats.dropped_stale(),
            stats.messages_abandoned(),
            stats.total_sent()
        ));
    }
    if stats.reconnects() != 0 {
        return Err(format!(
            "{} reconnects on a healthy loopback",
            stats.reconnects()
        ));
    }
    if stats.control_bits() != 2 * stats.total_sent() {
        return Err(format!(
            "{} control bits for {} messages: not two per message",
            stats.control_bits(),
            stats.total_sent()
        ));
    }
    Ok(())
}

/// Runs repetition `rep` of a run seeded `seed`: each repetition replays
/// its own script.
fn run_rep(w: &Workload, plan: &Plan, seed: u64, rep: usize, trace: bool) -> Result<Rep, String> {
    let seed = seed.wrapping_mul(REPS as u64).wrapping_add(rep as u64);
    let setup_started = Instant::now();
    let (mut rep, history, stats) = match w.deployment {
        Deployment::Reactor { n } => {
            let mut node = build_reactor(n, w.open)?;
            let rep = drive(&mut node, w, plan, seed, trace, setup_started);
            let (history, stats) = node.shutdown();
            (rep, history, stats)
        }
        Deployment::Simnet => {
            let mut sim = build_sim();
            let rep = drive(&mut sim, w, plan, seed, trace, setup_started);
            sim.run_to_quiescence()
                .map_err(|e| format!("simnet did not go quiet: {e}"))?;
            (rep, sim.history(), sim.stats())
        }
    };
    let check_started = Instant::now();
    verify(&history, &stats).map_err(|e| format!("{}: {e}", w.name))?;
    rep.check_s = check_started.elapsed().as_secs_f64();
    if history.total_ops() < rep.spans.len() {
        return Err(format!(
            "{}: history holds {} operations, the generator completed {}",
            w.name,
            history.total_ops(),
            rep.spans.len()
        ));
    }
    Ok(rep)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

impl Rep {
    fn ops(&self) -> f64 {
        self.spans.len() as f64
    }

    fn attempted(&self) -> u64 {
        self.spans.len() as u64 + self.failed
    }

    /// What `of` reads from each timed slice and its spans.
    fn per_slice<'a>(
        &'a self,
        of: impl Fn(&Slice, &[Span]) -> f64 + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        self.slices
            .iter()
            .map(move |s| of(s, &self.spans[s.spans.clone()]))
    }

    /// The timings are those of the repetition's best slice (see
    /// [`metrics::Pick`]). `f64::{min, max}` skip NaN, so a slice without a
    /// sample does not count and a repetition without one reads NaN.
    fn ops_per_s(&self) -> f64 {
        self.per_slice(|s, spans| spans.len() as f64 / s.elapsed_s)
            .fold(f64::NAN, f64::max)
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.per_slice(|s, spans| s.cpu_s * 1e6 / spans.len() as f64)
            .fold(f64::NAN, f64::min)
    }

    fn lat_p50_us(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.per_slice(|_, spans| {
            let kept = sorted(spans.iter().filter(|s| keep(s)).map(Span::latency));
            if kept.is_empty() {
                f64::NAN
            } else {
                us(percentile(&kept, 0.50))
            }
        })
        .fold(f64::NAN, f64::min)
    }

    /// Growth of a `NetStats` counter over the timed section.
    fn delta(&self, counter: impl Fn(&NetStats) -> u64) -> f64 {
        (counter(&self.stats[1]) - counter(&self.stats[0])) as f64
    }

    fn end_to_end(&self) -> Values {
        let ops = self.ops();
        let [a0, a1] = self.alloc;
        Values::from([
            ("setup_s", self.setup_s),
            ("ops_per_s", self.ops_per_s()),
            ("lat_p50_us", self.lat_p50_us(|_| true)),
            ("read_lat_p50_us", self.lat_p50_us(|s| !s.write)),
            ("write_lat_p50_us", self.lat_p50_us(|s| s.write)),
            ("cpu_us_per_op", self.cpu_us_per_op()),
            ("wire_bytes_per_op", self.delta(NetStats::wire_bytes) / ops),
            ("msgs_per_op", self.delta(NetStats::total_sent) / ops),
            ("allocs_per_op", (a1.allocs - a0.allocs) as f64 / ops),
            (
                "alloc_bytes_per_op",
                (a1.allocated - a0.allocated) as f64 / ops,
            ),
        ])
    }

    /// The per-layer values a (traced) repetition supplies: `NetStats`
    /// counters over the timed section and the bench-side spans.
    fn layer_counters(&self) -> Values {
        let ops = self.ops();
        let all = sorted(self.spans.iter().map(Span::latency));
        let [a0, a1] = self.alloc;
        let frames = self.delta(NetStats::frames_sent);
        let flushes = self.delta(NetStats::flushes_total);
        let share = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { part / whole };
        let p50 = |of: fn(&Span) -> u64| us(percentile(&sorted(self.spans.iter().map(of)), 0.50));
        Values::from([
            (
                "batcher.msgs_per_frame",
                share(self.delta(NetStats::framed_messages), frames),
            ),
            (
                "batcher.flush_size_share",
                share(self.delta(|s| s.flushes(FlushReason::Size)), flushes),
            ),
            (
                "batcher.flush_hold_share",
                share(self.delta(|s| s.flushes(FlushReason::Hold)), flushes),
            ),
            (
                "batcher.mean_hold_us",
                share(self.delta(NetStats::observed_hold_ns), flushes) / 1e3,
            ),
            ("reactor.frames_per_op", frames / ops),
            (
                "reactor.wire_bytes_per_frame",
                share(self.delta(NetStats::wire_bytes), frames),
            ),
            (
                "reactor.resend_high_water",
                self.stats[1].resend_buffer_high_water() as f64,
            ),
            (
                "driver.invoke_us_p50",
                p50(|s| s.invoke_end - s.invoke_start),
            ),
            ("driver.poll_wait_us_p50", p50(|s| s.done - s.invoke_end)),
            (
                "gen.late_us_p95",
                us(percentile(
                    &sorted(self.spans.iter().map(Span::lateness)),
                    0.95,
                )),
            ),
            ("gen.backlog_max", self.backlog_max as f64),
            ("lat_p95_us", us(percentile(&all, 0.95))),
            ("lat_p99_us", us(percentile(&all, 0.99))),
            ("lat_p999_us", us(percentile(&all, 0.999))),
            ("lat_max_us", us(all.last().copied().unwrap_or(0))),
            ("failed_share", self.failed as f64 / self.attempted() as f64),
            (
                "heap_growth_bytes_per_op",
                (a1.live() - a0.live()) as f64 / ops,
            ),
            ("lincheck.ns_per_op", self.check_s * 1e9 / ops),
        ])
    }
}

/// A short `simnet_mixed` of its own inside every traced run: the
/// `simnet.*` metrics, and the CPU microseconds of pure compute one
/// operation costs — the numerator of `attrib.compute_share`.
fn simnet_probe(seed: u64, ops: usize) -> Result<(Values, f64), String> {
    let mut sim = build_sim();
    let clock = WallClock::start();
    let mut script = Script::new(seed, N, REGISTERS);
    let mut gen = Generator::new(&mut sim, &clock, ops);
    let (t0, cpu0) = (clock.now(), cpu_seconds());
    gen.closed_loop(&mut script, WINDOW, Stop::Ops(ops));
    let elapsed_ns = (clock.now() - t0) as f64;
    let cpu_us_per_op = (cpu_seconds() - cpu0) * 1e6 / ops as f64;
    if gen.failed != 0 || gen.spans.len() != ops {
        return Err(format!(
            "simnet probe: {} of {ops} operations failed",
            gen.failed
        ));
    }
    let events = sim.events() as f64;
    let ticks = sorted(sim.history().iter().flat_map(|(_, h)| {
        h.completed()
            .filter_map(|r| r.latency())
            .collect::<Vec<_>>()
    }));
    let values = Values::from([
        ("simnet.event_ns", elapsed_ns / events),
        ("simnet.events_per_op", events / ops as f64),
        ("simnet.lat_p50_ticks", percentile(&ticks, 0.50) as f64),
    ]);
    Ok((values, cpu_us_per_op))
}

/// What one run of one workload reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Every metric of [`END_TO_END`] (untraced run) or of [`PER_LAYER`]
    /// (traced run), in table order.
    pub readings: Vec<Reading>,
    /// Operations attempted in the timed sections.
    pub attempted: u64,
    /// Operations that errored or missed the open-loop deadline.
    pub failed: u64,
}

/// Runs `w` once. Untraced: [`REPS`] repetitions, each on a fresh
/// deployment, reduced to the end-to-end metrics (each its
/// [`metrics::Pick`]) and their spreads.
/// Traced: one plain and one traced repetition, the microbenches and the
/// simnet probe, reduced to the per-layer metrics; the traced repetition's
/// spans and per-second `NetStats` are written under `plan.trace_dir`.
///
/// # Errors
///
/// A deployment failed to start, a repetition failed the correctness gate
/// (the violation is the message), or the trace file could not be written.
pub fn run(w: &Workload, plan: &Plan, seed: u64, trace: bool) -> Result<Report, String> {
    if !trace {
        let reps = (0..REPS)
            .map(|r| run_rep(w, plan, seed, r, false))
            .collect::<Result<Vec<_>, _>>()?;
        let values: Vec<Values> = reps.iter().map(Rep::end_to_end).collect();
        return Ok(Report {
            workload: w.name,
            readings: metrics::readings(END_TO_END, &values),
            attempted: reps.iter().map(Rep::attempted).sum(),
            failed: reps.iter().map(|r| r.failed).sum(),
        });
    }

    let plain = run_rep(w, plan, seed, 0, false)?;
    let traced = run_rep(w, plan, seed, 0, true)?;
    let mut values = traced.layer_counters();
    values.extend(layers::measure(seed, plan.micro_scale).map_err(|e| format!("microbench: {e}"))?);
    let (probe, compute_us_per_op) = simnet_probe(seed, plan.probe_ops)?;
    values.extend(probe);
    values.insert(
        "attrib.compute_share",
        compute_us_per_op / traced.cpu_us_per_op(),
    );
    values.insert(
        "trace.overhead_share.ops_per_s",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    values.insert(
        "trace.overhead_share.lat_p50_us",
        traced.lat_p50_us(|_| true) / plain.lat_p50_us(|_| true) - 1.0,
    );
    trace::write(&plan.trace_dir, w.name, seed, &traced)
        .map_err(|e| format!("writing the trace under {}: {e}", plan.trace_dir.display()))?;
    Ok(Report {
        workload: w.name,
        readings: metrics::readings(PER_LAYER, &[values]),
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed + traced.failed,
    })
}
