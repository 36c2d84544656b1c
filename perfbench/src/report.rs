//! Printing a [`Report`]: a table for people, the contract's one-line JSON
//! object for the driver, and the optional appended history record.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::workloads::Report;

/// The table: one line per metric with its unit and, where several
/// repetitions were reduced to one value, `<metric>.spread`.
pub fn table(report: &Report, seed: u64) -> String {
    let mut out = format!(
        "workload {}  seed {seed}  attempted {}  failed {}\n",
        report.workload, report.attempted, report.failed
    );
    for r in &report.readings {
        write!(
            out,
            "  {:<34} {:>16.4} {:<6}",
            r.def.name, r.value, r.def.unit
        )
        .expect("writing to a String");
        if let Some(spread) = r.spread {
            write!(out, "  {}.spread {spread:.4}", r.def.name).expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

fn metrics_object(report: &Report) -> String {
    let fields: Vec<String> = report
        .readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.def.name,
                number(r.value),
                r.def.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// JSON has no NaN or infinity; a metric that came out as one is a bug
/// worth seeing, so it is printed as `null` rather than hidden as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`. A report only exists once every repetition has
/// passed the correctness gate, so `correct` is always `true` here.
pub fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_object(report)
    )
}

/// Appends one JSON line for this run to `path`: the commit, the seed, and
/// every report's values and spreads.
///
/// # Errors
///
/// The file could not be opened or written.
pub fn append_history(
    path: &Path,
    seed: u64,
    seconds: u64,
    reports: &[Report],
) -> std::io::Result<()> {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let runs: Vec<String> = reports
        .iter()
        .map(|report| {
            let spreads: Vec<String> = report
                .readings
                .iter()
                .filter_map(|r| Some(format!("\"{}\": {}", r.def.name, number(r.spread?))))
                .collect();
            format!(
                "{{\"workload\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"spreads\": {{{}}}}}",
                report.workload,
                report.attempted,
                report.failed,
                metrics_object(report),
                spreads.join(", ")
            )
        })
        .collect();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"commit\": \"{commit}\", \"seed\": {seed}, \"seconds\": {seconds}, \"runs\": [{}]}}",
        runs.join(", ")
    )
}
