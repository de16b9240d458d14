//! `cote-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines followed by one JSON
//! result line. Exits non-zero, without a result line, on bad arguments or
//! a metric that could not be measured.

use cote_perfbench::report::Report;
use cote_perfbench::{compile_paper, estimate_adhoc, finish, serve_gateway, Args, WORKLOADS};

#[global_allocator]
static ALLOC: cote_perfbench::alloc::CountingAlloc = cote_perfbench::alloc::CountingAlloc;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The CPU model `/proc/cpuinfo` reports, for the host fingerprint.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cote-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} on {} cpu(s), {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model()
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "compile-paper" => compile_paper::run(&args, &mut report),
        "estimate-adhoc" => estimate_adhoc::run(&args, &mut report),
        _ => serve_gateway::run(&args, &mut report),
    }
    println!(
        "  attempted {} failed {} (checks failed {}): error_pct {:.4} %",
        report.attempted,
        report.failed(),
        report.check_failures,
        100.0 * report.failed() as f64 / report.attempted.max(1) as f64
    );
    let line = finish(&mut report, args.trace).and_then(|()| report.json_line());
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cote-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
