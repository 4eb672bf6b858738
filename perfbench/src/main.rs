//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `tricycle_pokec` and `fcl_pokec` (batch jobs on the in-process
//! engine) and `service_mixed` (open-loop reads and writes through the HTTP
//! server). `--trace 0` measures the end-to-end metrics; `--trace 1` runs
//! the traced composition and reports the per-layer metrics. Every input is
//! generated from `--seed`. The last line of standard output is the result
//! as one JSON object; see `README.md` for what each metric means.

mod batch;
mod common;
mod http;
mod reference;
mod report;
mod schedule;
mod service;
mod stats;
mod trace;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use agmdp_core::workflow::StructuralModelKind;

use report::{Report, END_TO_END, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let model = match args.workload.as_str() {
        "tricycle_pokec" => StructuralModelKind::TriCycLe,
        "fcl_pokec" => StructuralModelKind::Fcl,
        _ => StructuralModelKind::TriCycLe,
    };
    match args.workload.as_str() {
        "tricycle_pokec" | "fcl_pokec" if args.trace => batch::run_traced(args, model, report),
        "tricycle_pokec" | "fcl_pokec" => batch::run(args, model, report),
        "service_mixed" if args.trace => service::run_traced(args, report),
        "service_mixed" => service::run(args, report),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--generate") {
        // Child mode: `--generate <preset> <scale> <seed> <out.agb>`.
        let result = match argv.get(1..5) {
            Some([name, scale, seed, out]) => match (scale.parse(), seed.parse()) {
                (Ok(scale), Ok(seed)) => common::generate_to(name, scale, seed, Path::new(out)),
                _ => Err("bad --generate arguments".to_string()),
            },
            _ => Err("usage: --generate <preset> <scale> <seed> <out.agb>".to_string()),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --generate: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.info(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    common::provenance(&mut report);
    if let Err(e) = run(&args, &mut report) {
        // No result line: the run did not complete.
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if report
        .emit(&mut out, wanted)
        .and_then(|()| out.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "fcl_pokec",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "fcl_pokec");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(parse_args(&strings(&["--seed", "7"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--bogus", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--seed"])).is_err());
    }
}
