//! The repository benchmark. One invocation runs one workload and prints,
//! as its last line, one JSON object with the ops attempted and failed, and
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`).
//!
//! ```text
//! perfbench --workload <paper-suite|decode-cnm|decode-auto|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and the
//! layers they attribute time to.

mod common;
mod decode;
mod layers;
mod paper;
mod probes;
mod serve;

use std::process::ExitCode;

use common::{Args, Report, Tally};

const WORKLOADS: [&str; 4] = ["paper-suite", "decode-cnm", "decode-auto", "serve-mix"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}; {} cores, simulator host_threads 1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::cores()
    );
    let mut tally = Tally::default();
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-suite" => paper::run(&args, &mut tally, &mut report),
        "decode-cnm" => decode::run(&args, decode::Placement::Cnm, &mut tally, &mut report),
        "decode-auto" => decode::run(&args, decode::Placement::Auto, &mut tally, &mut report),
        "serve-mix" => serve::run(&args, &mut tally, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    println!("{}", report.to_json(&mut tally));
    ExitCode::SUCCESS
}
