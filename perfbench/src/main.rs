//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its figures, one per line, then the
//! result as a single JSON line. Exits 0 when every correctness check
//! passed, 1 when one failed, 2 on a usage error.

use perfbench::{RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = workload.config(
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workload.run(&cfg) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::from(1)
        }
    }
}
