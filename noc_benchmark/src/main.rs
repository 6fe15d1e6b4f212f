//! `noc_benchmark` — one run of one workload, or a comparison of two
//! sets of runs. See `README.md` beside this crate.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use noc_benchmark::compare::{compare, read_runs};
use noc_benchmark::run::{run, Options};
use noc_benchmark::workloads::{Scale, Workload};

const USAGE: &str = "usage:
  noc_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  noc_benchmark --compare A B

  --workload NAME  flood64_clean | flood128_faulty | flood128_faulty_s2 |
                   sparse128_trickle | checkpoint_cycle | paper_suite
  --seed N         benchmark seed every input derives from (default 2003)
  --seconds S      length of the measurement window (default 15)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics and trace-NAME.json
  --smoke          8x8/16x16 grids and 200 trickle rounds
  --out DIR        where a traced run writes its trace (default noc_benchmark/out)
  --compare A B    compare two files of captured run output; exit 1 unless every
                   workload x end-to-end metric agrees within its bound";

/// What the command line asks for.
enum Command {
    Run(Options),
    Compare(String, String),
    Help,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Flood64Clean,
        seed: 2003,
        seconds: 15.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("noc_benchmark/out"),
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                options.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds needs a number in 0..=600, got `{v}`"))?;
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got `{v}`")),
                };
            }
            "--smoke" => options.scale = Scale::Smoke,
            "--out" => options.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                return match (args.next(), args.next(), args.next()) {
                    (Some(a), Some(b), None) => Ok(Command::Compare(a, b)),
                    _ => Err("--compare needs exactly two files".to_string()),
                };
            }
            "-h" | "--help" => return Ok(Command::Help),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(options))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Err(message) => {
            eprintln!("noc_benchmark: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => compare_files(&a, &b),
        Ok(Command::Run(options)) => match run(&options) {
            Ok(report) => {
                println!("{}", report.detail);
                println!("{}", report.result);
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("noc_benchmark: {message}");
                ExitCode::from(1)
            }
        },
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| read_runs(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (read(a), read(b)) {
        (Ok(a), Ok(b)) => {
            let (table, pass) = compare(&a, &b);
            print!("{table}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("noc_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
