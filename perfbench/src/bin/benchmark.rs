//! The benchmark's command line.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints the metric table followed by the result
//! line; without `--workload` it runs all four, untraced then traced.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::probe::CountingAlloc;
use perfbench::report;
use perfbench::workloads::{self, Plan, Report, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 24;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    history: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        history: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                args.workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = Some(number()? != 0),
            "--history" => args.history = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Traces go under the build directory, which the repository ignores.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("benchmark")
}

fn run(args: &Args) -> Result<Vec<Report>, String> {
    let plan = Plan::for_seconds(args.seconds, trace_dir());
    let selected: Vec<&Workload> = args
        .workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
    // One named workload: one mode (untraced unless asked). All workloads:
    // both modes, so one command prints every metric there is.
    let modes = match (args.workload, args.trace) {
        (_, Some(trace)) => vec![trace],
        (Some(_), None) => vec![false],
        (None, None) => vec![false, true],
    };
    let mut reports = Vec::new();
    for w in selected {
        for &trace in &modes {
            let report = workloads::run(w, &plan, args.seed, trace)?;
            print!("{}", report::table(&report, args.seed));
            reports.push(report);
        }
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let reports = match run(&args) {
        Ok(reports) => reports,
        Err(violation) => {
            eprintln!("benchmark: FAILED: {violation}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.history {
        if let Err(e) = report::append_history(path, args.seed, args.seconds, &reports) {
            eprintln!("benchmark: appending to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let (Some(_), [report]) = (args.workload, reports.as_slice()) {
        println!("{}", report::result_line(report));
    }
    ExitCode::SUCCESS
}
