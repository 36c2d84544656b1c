//! Experiment runner CLI.
//!
//! ```text
//! experiments <command> [--n N] [--writes W] [--reads R] [--seed S] [--seeds K] [--runs M]
//!
//! commands:
//!   table1          E1: regenerate Table 1 (paper vs measured)
//!   latency-bounds  E2: write ≤ 2Δ / read ≤ 4Δ under concurrency
//!   msg-complexity  E3: exact message formulas (Theorem 2)
//!   crash-tolerance E4: ≤t crashes live+atomic; >t stalls
//!   synchronizer    E5: P1/P2 bounds under reordering
//!   soak            E6: randomized linearizability soak
//!   ablation        E7: writer fast-path & read-dominated comparison
//!   wire-growth     E8: control bits vs history length
//!   latency-dist    E9: latency distributions across algorithms
//!   live            E10: live chaos-link cluster end-to-end
//!   all             run everything with defaults
//! ```

use std::process::ExitCode;

struct Args {
    n: usize,
    writes: usize,
    reads: usize,
    seed: u64,
    seeds: u64,
    runs: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 5,
            writes: 10,
            reads: 10,
            seed: 1,
            seeds: 5,
            runs: 200,
        }
    }
}

fn parse(mut argv: std::env::Args) -> Option<(String, Args)> {
    let _bin = argv.next();
    let cmd = argv.next()?;
    let mut args = Args::default();
    let rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].as_str();
        let val = rest.get(i + 1)?;
        match key {
            "--n" => args.n = val.parse().ok()?,
            "--writes" => args.writes = val.parse().ok()?,
            "--reads" => args.reads = val.parse().ok()?,
            "--seed" => args.seed = val.parse().ok()?,
            "--seeds" => args.seeds = val.parse().ok()?,
            "--runs" => args.runs = val.parse().ok()?,
            _ => {
                eprintln!("unknown flag: {key}");
                return None;
            }
        }
        i += 2;
    }
    Some((cmd, args))
}

fn run_cmd(cmd: &str, a: &Args) -> Option<String> {
    use twobit_harness as h;
    Some(match cmd {
        "table1" => h::table1::run(a.n, a.writes, a.reads, a.seed),
        "latency-bounds" => h::latency::run_bounds(a.seeds),
        "msg-complexity" => {
            h::msgs::run(&[2, 3, 5, 8, 13], a.writes.min(5), a.reads.min(5), a.seed)
        }
        "crash-tolerance" => h::crashes::run(a.seed),
        "synchronizer" => h::synchronizer::run(4, 25, a.seeds),
        "soak" => h::soak::run(a.runs, a.seed),
        "ablation" => h::ablation::run(a.n, a.seed),
        "wire-growth" => h::wire_growth::run(a.n.min(5), a.seed),
        "latency-dist" => h::latency::run_distributions(a.n, a.writes, a.seed),
        "live" => h::live::run(a.n, 20, a.seed),
        _ => return None,
    })
}

const ALL: [&str; 10] = [
    "table1",
    "msg-complexity",
    "latency-bounds",
    "latency-dist",
    "crash-tolerance",
    "synchronizer",
    "ablation",
    "wire-growth",
    "soak",
    "live",
];

fn main() -> ExitCode {
    let Some((cmd, args)) = parse(std::env::args()) else {
        eprintln!(
            "usage: experiments <command> [--n N] [--writes W] [--reads R] [--seed S] \
             [--seeds K] [--runs M]\ncommands: {} | all",
            ALL.join(" | ")
        );
        return ExitCode::FAILURE;
    };
    if cmd == "all" {
        for c in ALL {
            match run_cmd(c, &args) {
                Some(report) => println!("{report}"),
                None => unreachable!("ALL contains only valid commands"),
            }
        }
        return ExitCode::SUCCESS;
    }
    match run_cmd(&cmd, &args) {
        Some(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown command: {cmd}");
            ExitCode::FAILURE
        }
    }
}
