//! The traced repetition's output: bench-side spans and per-second
//! `NetStats` readings, kept in memory during the run and written out once
//! it has ended. Spans inside the program are a later change.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::workloads::Rep;

/// One row per line, comma-separated, closing on a line of its own.
fn write_rows(out: &mut impl Write, rows: impl Iterator<Item = String>) -> std::io::Result<()> {
    let mut sep = "";
    for row in rows {
        write!(out, "{sep}\n{row}")?;
        sep = ",";
    }
    writeln!(out)
}

/// Writes `trace-<workload>.json` under `dir`.
///
/// Each operation is one row `[intended, invoke_start, invoke_end, done,
/// write]` of clock nanoseconds; the row index is the operation's id, and
/// its spans nest as `op = intended→done` ⊃ `gen.wait = intended→
/// invoke_start`, `driver.invoke = invoke_start→invoke_end`,
/// `driver.poll_wait = invoke_end→done`.
///
/// # Errors
///
/// The directory or file could not be written.
pub(crate) fn write(dir: &Path, workload: &str, seed: u64, rep: &Rep) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = BufWriter::new(File::create(dir.join(format!("trace-{workload}.json")))?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
    writeln!(
        out,
        "\"span_columns\": [\"intended_ns\", \"invoke_start_ns\", \"invoke_end_ns\", \"done_ns\", \"write\"],"
    )?;
    write!(out, "\"spans\": [")?;
    write_rows(
        &mut out,
        rep.spans.iter().map(|s| {
            format!(
                "[{}, {}, {}, {}, {}]",
                s.intended, s.invoke_start, s.invoke_end, s.done, s.write as u8
            )
        }),
    )?;
    writeln!(out, "],")?;
    writeln!(
        out,
        "\"stats_columns\": [\"at_ns\", \"sent\", \"delivered\", \"frames\", \"wire_bytes\", \"flushes\", \"hold_ns\"],"
    )?;
    write!(out, "\"stats\": [")?;
    write_rows(
        &mut out,
        rep.ticks.iter().map(|(at, s)| {
            format!(
                "[{at}, {}, {}, {}, {}, {}, {}]",
                s.total_sent(),
                s.total_delivered(),
                s.frames_sent(),
                s.wire_bytes(),
                s.flushes_total(),
                s.observed_hold_ns()
            )
        }),
    )?;
    writeln!(out, "]}}")?;
    out.flush()
}
