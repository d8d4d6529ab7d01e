//! End-to-end benchmark of the adaptive-gossip system.
//!
//! ```text
//! agb-e2e-bench --workload <sim-n10k|sim-n10k-lossy|udp-overload> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer split instead. The last line
//! of standard output is the JSON result; the lines before it record the
//! machine and every metric with its unit. See `README.md` next to this
//! file for the workloads and the metric map.

mod alloc;
mod layers;
mod report;
mod sim;
mod stats;
mod udp;
mod wire;

use std::process::ExitCode;

use report::{machine_line, Report};
use sim::SimWorkload;

#[global_allocator]
static ALLOC: alloc::GatedCounter = alloc::GatedCounter;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

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
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: agb-e2e-bench --workload <sim-n10k|sim-n10k-lossy|udp-overload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let sim_workload = match args.workload.as_str() {
        "sim-n10k" => Some(SimWorkload::n10k(false)),
        "sim-n10k-lossy" => Some(SimWorkload::n10k(true)),
        "udp-overload" => None,
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let threads = if sim_workload.is_some() {
        sim::THREADS
    } else {
        1
    };
    println!(
        "{}",
        machine_line(&args.workload, args.seed, args.trace, threads)
    );
    let report: std::io::Result<Report> = match (sim_workload, args.trace) {
        (Some(w), false) => Ok(sim::run(&w, args.seed, args.seconds)),
        (Some(w), true) => sim::run_traced(&w, args.seed),
        (None, trace) => udp::run(args.seed, args.seconds, trace),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: a UDP socket failed: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", report.text());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
