//! The metric tables — the one place a metric's name and unit are written
//! down — and the small statistics the report needs. `BENCHMARK.json` must
//! list exactly these names; `tests/benchmark_smoke.rs` holds the two equal.

use std::collections::BTreeMap;

/// Which of a run's readings of a metric is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The median repetition.
    Median,
    /// The lowest timed slice of any repetition.
    Lowest,
    /// The highest timed slice of any repetition.
    Highest,
}

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// How a run's readings are reduced to the reported value.
    pub pick: Pick,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        pick: Pick::Median,
    }
}

/// A timing. The host's neighbours slow this VM by a quarter for seconds at
/// a time and never speed it up, so a timing is read off the best slice of
/// the run — what the program does undisturbed — not off the median one,
/// which flips between the host's two speeds from run to run.
const fn timing(name: &'static str, unit: &'static str, pick: Pick) -> MetricDef {
    MetricDef { name, unit, pick }
}

/// What a user of the system sees; every workload reports all of them, from
/// untraced repetitions.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    timing("ops_per_s", "1/s", Pick::Highest),
    timing("lat_p50_us", "us", Pick::Lowest),
    timing("read_lat_p50_us", "us", Pick::Lowest),
    timing("write_lat_p50_us", "us", Pick::Lowest),
    timing("cpu_us_per_op", "us", Pick::Lowest),
    def("wire_bytes_per_op", "B"),
    def("msgs_per_op", "count"),
    def("allocs_per_op", "count"),
    def("alloc_bytes_per_op", "B"),
];

/// Single layers, measured from outside: microbenches on public functions,
/// counters from one traced repetition, and the informational tails.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.step_ns.h1k", "ns"),
    def("core.step_ns.h200k", "ns"),
    def("core.steps_per_op", "count"),
    def("shard.dispatch_ns", "ns"),
    def("frame.encode_ns_per_msg.b1", "ns"),
    def("frame.encode_ns_per_msg.b3", "ns"),
    def("frame.encode_ns_per_msg.b16", "ns"),
    def("frame.decode_ns_per_msg.b1", "ns"),
    def("frame.decode_ns_per_msg.b3", "ns"),
    def("frame.decode_ns_per_msg.b16", "ns"),
    def("frame.bytes_per_msg.b1", "B"),
    def("frame.bytes_per_msg.b3", "B"),
    def("frame.bytes_per_msg.b16", "B"),
    def("frame.pool_recycle_share", "share"),
    def("stats.record_ns", "ns"),
    def("stats.record_contended_ns", "ns"),
    def("batcher.push_take_ns_per_msg", "ns"),
    def("batcher.msgs_per_frame", "count"),
    def("batcher.flush_size_share", "share"),
    def("batcher.flush_hold_share", "share"),
    def("batcher.mean_hold_us", "us"),
    def("recorder.op_ns.h1k", "ns"),
    def("recorder.op_ns.h200k", "ns"),
    def("channel.hop_us", "us"),
    def("socket.rtt_us", "us"),
    def("poller.wait_ns.fds20", "ns"),
    def("poller.wait_ns.fds240", "ns"),
    def("reactor.frames_per_op", "count"),
    def("reactor.wire_bytes_per_frame", "B"),
    def("reactor.resend_high_water", "count"),
    def("driver.invoke_us_p50", "us"),
    def("driver.poll_wait_us_p50", "us"),
    def("gen.late_us_p95", "us"),
    def("gen.backlog_max", "count"),
    def("lat_p95_us", "us"),
    def("lat_p99_us", "us"),
    def("lat_p999_us", "us"),
    def("lat_max_us", "us"),
    def("failed_share", "share"),
    def("heap_growth_bytes_per_op", "B"),
    def("simnet.event_ns", "ns"),
    def("simnet.events_per_op", "count"),
    def("simnet.lat_p50_ticks", "ticks"),
    def("lincheck.ns_per_op", "ns"),
    def("attrib.compute_share", "share"),
    def("trace.overhead_share.ops_per_s", "share"),
    def("trace.overhead_share.lat_p50_us", "share"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reading {
    /// Name and unit.
    pub def: MetricDef,
    /// The value: the repetition [`MetricDef::pick`] names.
    pub value: f64,
    /// `(max − min) / median` across repetitions, where there were several.
    pub spread: Option<f64>,
}

/// Lines `values` up against `table`, which must name exactly its keys.
///
/// # Panics
///
/// Panics when a table entry was not measured or a value has no table
/// entry — both are bugs in this crate.
pub fn readings(table: &[MetricDef], reps: &[Values]) -> Vec<Reading> {
    for values in reps {
        for name in values.keys() {
            assert!(
                table.iter().any(|d| d.name == *name),
                "measured `{name}` is not in the metric table"
            );
        }
    }
    table
        .iter()
        .map(|def| {
            let per_rep: Vec<f64> = reps
                .iter()
                .map(|v| {
                    *v.get(def.name)
                        .unwrap_or_else(|| panic!("metric `{}` was not measured", def.name))
                })
                .collect();
            Reading {
                def: *def,
                value: match def.pick {
                    Pick::Median => median(&per_rep),
                    Pick::Lowest => per_rep.iter().copied().fold(f64::NAN, f64::min),
                    Pick::Highest => per_rep.iter().copied().fold(f64::NAN, f64::max),
                },
                spread: (per_rep.len() > 1).then(|| spread(&per_rep)),
            }
        })
        .collect()
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(max − min) / median`, 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_medians_and_spreads() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
    }

    #[test]
    fn readings_report_the_median_or_the_best_repetition() {
        let table = [
            def("count", "B"),
            timing("rate", "1/s", Pick::Highest),
            timing("delay", "us", Pick::Lowest),
        ];
        let reps: Vec<Values> = [1.0, 3.0, 2.0]
            .iter()
            .map(|&v| Values::from([("count", v), ("rate", v), ("delay", v)]))
            .collect();
        let values: Vec<f64> = readings(&table, &reps).iter().map(|r| r.value).collect();
        assert_eq!(values, [2.0, 3.0, 1.0]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
        }
    }
}
