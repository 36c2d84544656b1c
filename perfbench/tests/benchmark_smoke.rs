//! Drives every workload through the library entry point with two 200 ms
//! slices, untraced and traced, and holds the printed workload and metric
//! names equal to `BENCHMARK.json` — in both directions.

use std::path::{Path, PathBuf};
use std::time::Duration;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::probe::CountingAlloc;
use perfbench::report;
use perfbench::workloads::{self, Plan, WORKLOADS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn smoke_plan() -> Plan {
    Plan {
        warmup: Duration::from_millis(200),
        slice: Duration::from_millis(200),
        slices: 2,
        sim_slice_ops: 1_000,
        probe_ops: 2_000,
        micro_scale: 100,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark"),
    }
}

/// The `name`s of the flat objects in `BENCHMARK.json`'s array `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let array = &json[at..];
    let array = &array[array.find('[').expect("an array")..];
    let array = &array[..array.find(']').expect("a flat array")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find(':').expect("a value") + 1..];
            let rest = &rest[rest.find('"').expect("a string") + 1..];
            rest[..rest.find('"').expect("a closed string")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn tables_equal_benchmark_json() {
    let json = benchmark_json();
    let table = |t: &[perfbench::metrics::MetricDef]| -> Vec<String> {
        t.iter().map(|d| d.name.to_string()).collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}

#[test]
fn every_workload_runs_verified_and_prints_exactly_the_listed_metrics() {
    let json = benchmark_json();
    let plan = smoke_plan();
    for w in &WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = workloads::run(w, &plan, 7, trace)
                .unwrap_or_else(|violation| panic!("{} trace={trace}: {violation}", w.name));
            let printed: Vec<String> = report
                .readings
                .iter()
                .map(|r| r.def.name.to_string())
                .collect();
            assert_eq!(printed, names_in(&json, key), "{} trace={trace}", w.name);
            assert!(report.attempted > 0, "{}", w.name);
            assert_eq!(report.failed, 0, "{}", w.name);
            for r in &report.readings {
                assert!(
                    r.value.is_finite(),
                    "{} {} = {}",
                    w.name,
                    r.def.name,
                    r.value
                );
                assert_eq!(
                    r.spread.is_some(),
                    !trace,
                    "values reduced from repetitions carry a spread"
                );
            }
            // The table and the result line name every metric once.
            let table = report::table(&report, 7);
            let line = report::result_line(&report);
            for name in &printed {
                assert_eq!(table.matches(&format!("  {name} ")).count(), 1, "{name}");
                assert_eq!(
                    line.matches(&format!("\"{name}\": {{")).count(),
                    1,
                    "{name}"
                );
            }
            if !trace {
                let value = |name: &str| {
                    report
                        .readings
                        .iter()
                        .find(|r| r.def.name == name)
                        .expect("listed above")
                        .value
                };
                // The counting allocator is installed in this binary too.
                assert!(value("allocs_per_op") > 0.0 && value("msgs_per_op") > 0.0);
            }
        }
        let trace = plan.trace_dir.join(format!("trace-{}.json", w.name));
        let written =
            std::fs::read_to_string(&trace).expect("the traced repetition wrote its spans");
        assert!(written.contains("\"spans\"") && written.contains("\"stats\""));
    }
}
