//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-r20|serve-tiny|qat-tiny> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public API, with the defaults a
//! user gets (`ServeConfig::default()`, the pooled executor, the default
//! pipeline depth and backend chain). `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate traced run that times each layer
//! from outside, by calling that layer's public functions. Every run
//! checks outputs, prints a human-readable report, and ends with one JSON
//! line; it exits non-zero when any check fails.

mod models;
mod qat;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve-r20|serve-tiny|qat-tiny> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` in the working directory
/// (benchmark checkouts need not be git repositories).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().into();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn header(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "<unset>".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "perfbench workload={} seed={} seconds={} trace={}\n\
         commit: {}\n\
         nproc: {nproc}, CQ_THREADS={}, CQ_BACKEND={}\n\
         why: {}\n\
         {}",
        args.workload.name(),
        args.seed,
        args.window.as_secs(),
        u8::from(args.trace),
        commit(),
        env("CQ_THREADS"),
        env("CQ_BACKEND"),
        args.workload.why(),
        workloads::PREDICTIONS,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&args));
    let report: Report = if args.trace {
        trace::run(args.workload, args.seed, args.window)
    } else {
        workloads::end_to_end(args.workload, args.seed, args.window)
    };
    print!("{}", report.body());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed");
        ExitCode::FAILURE
    }
}
