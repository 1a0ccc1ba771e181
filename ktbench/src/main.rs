//! `ktbench --workload <flood|sdet|replay> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints its result as one
//! JSON line, last on stdout. Exit status: 0 when every check passed, 1
//! when a check failed (the JSON then carries no metrics), 2 when the run
//! could not be carried out.
//!
//! `--root <dir>` names the checkout root (default `.`).

use ktbench::record::Size;
use ktbench::{run, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
        plant: false,
        root: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--root" => opts.root = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ktbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("ktbench: check failed: {p}");
            }
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ktbench: {e}");
            ExitCode::from(2)
        }
    }
}
