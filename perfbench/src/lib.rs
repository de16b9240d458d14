//! End-to-end and per-layer benchmark of the cote workspace.
//!
//! Three workloads, each timed from outside the program by wrapping calls
//! into the public functions of `sql`, `optimizer`, `core`, `service`, `net`
//! and `gateway` and reading what those calls return:
//!
//! - [`compile_paper`]: the paper's queries compiled at the high level;
//! - [`estimate_adhoc`]: a never-repeating seeded corpus of generated
//!   statements through the SQL front-end and the estimator;
//! - [`serve_gateway`]: `ESTIMATE SQL` traffic on an open-loop ladder of
//!   rates through an in-process gateway over two backends.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans from this crate's wrappers, counts
//! allocations, and prints the per-layer metrics. Both end with one JSON
//! line (see [`report::Report::json_line`]).

pub mod alloc;
pub mod clock;
pub mod compile_paper;
pub mod estimate_adhoc;
pub mod hostspeed;
pub mod report;
pub mod serve_gateway;
pub mod stats;
pub mod trace;

use cote::TimeModel;
use cote_optimizer::{Mode, OptimizerConfig};
use report::Report;
use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Workload names.
pub const WORKLOADS: [&str; 3] = ["compile-paper", "estimate-adhoc", "serve-gateway"];

/// End-to-end metrics, printed by every untraced run, with their units.
/// Each workload defines one operation (a query compile, a statement
/// estimate, a served request); the latencies are of that operation. The
/// tail percentile is printed with them but not listed: on the serving
/// workload it is set by the host's scheduling hiccups more than by the
/// program (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("geomean_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not call reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("optimizer.enumerate_s", "s"),
    ("optimizer.nljn_s", "s"),
    ("optimizer.mgjn_s", "s"),
    ("optimizer.hsjn_s", "s"),
    ("optimizer.save_s", "s"),
    ("optimizer.other_s", "s"),
    ("optimizer.plans_generated.nljn", "count"),
    ("optimizer.plans_generated.mgjn", "count"),
    ("optimizer.plans_generated.hsjn", "count"),
    ("optimizer.plans_kept", "count"),
    ("optimizer.keep_ratio", "ratio"),
    ("optimizer.pairs", "count"),
    ("optimizer.memo_entries", "count"),
    ("optimizer.plans_per_s", "1/s"),
    ("optimizer.allocs", "count"),
    ("core.estimate_s", "s"),
    ("core.pairs", "count"),
    ("core.memo_entries", "count"),
    ("core.property_values", "count"),
    ("core.prop_probes", "count"),
    ("core.prop_compares", "count"),
    ("core.allocs", "count"),
    ("core.count_error.nljn_pct", "%"),
    ("core.count_error.mgjn_pct", "%"),
    ("core.count_error.hsjn_pct", "%"),
    ("core.time_error_pct", "%"),
    ("core.overhead_pct", "%"),
    ("sql.compile_us.p50", "us"),
    ("sql.compile_us.p99", "us"),
    ("service.hit_pct", "%"),
    ("service.queue_wait_p99_us", "us"),
    ("service.estimation_p99_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.shed", "count"),
    ("service.degraded", "count"),
    ("service.evictions", "count"),
    ("gateway.self_us.p50", "us"),
    ("gateway.self_us.p99", "us"),
    ("gateway.retries", "count"),
    ("gateway.breaker_opens", "count"),
    ("backend.handle_us.p50", "us"),
    ("backend.handle_us.p99", "us"),
    ("net.front_self_us.p50", "us"),
    ("net.front_self_us.p99", "us"),
    ("net.gen_lag_us.max", "us"),
    ("net.gen_lag_us.p99", "us"),
    ("net.late_starts", "count"),
    ("net.layer_sum_mismatches", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Push the end-to-end metrics of an untraced run from its set-up time, its
/// peak memory (read before the output checks, which may need more), its
/// throughput and its per-operation latencies in milliseconds, grouped
/// into windows of the run (rounds, seconds). `p50_ms` and `geomean_ms`
/// are medians over the windows of each window's median and geometric
/// mean, so a stretch of the run slowed by the host moves them only if it
/// covers half the windows. The tail percentile over all operations is
/// printed with its sample count.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    peak_rss_mb: f64,
    ops_per_s: f64,
    windows: &[Vec<f64>],
) {
    let mut p50s = Vec::with_capacity(windows.len());
    let mut geos = Vec::with_capacity(windows.len());
    for w in windows.iter().filter(|w| !w.is_empty()) {
        let mut w = w.clone();
        w.sort_by(f64::total_cmp);
        p50s.push(stats::median(&w).unwrap_or(f64::NAN));
        geos.push(stats::geomean(&w).unwrap_or(f64::NAN));
    }
    let median_of = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        stats::median(&v).unwrap_or(f64::NAN)
    };
    let mut all: Vec<f64> = windows.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    match stats::tail(&all, 0.99) {
        Some((tail, q)) => println!(
            "  tail p{:.2} {tail:.4} ms over n={} operations in {} window(s)",
            100.0 * q,
            all.len(),
            windows.len()
        ),
        None => println!("  no tail percentile: n={}", all.len()),
    }
    for (name, value, unit) in [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("p50_ms", median_of(p50s), "ms"),
        ("geomean_ms", median_of(geos), "ms"),
    ] {
        report.push(name, value, unit);
    }
}

/// Order a finished report's metrics as `BENCHMARK.json` lists them, fill
/// per-layer metrics of layers the workload does not call with 0, and
/// reject any metric the list does not name.
pub fn finish(report: &mut Report, trace: bool) -> Result<(), String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = report.metrics.swap_remove(i);
                if m.unit != unit {
                    return Err(format!("metric {name}: unit {} but {unit} listed", m.unit));
                }
                ordered.push(m);
            }
            None if trace => ordered.push(report::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    if let Some(m) = report.metrics.first() {
        return Err(format!("metric {} is not listed", m.name));
    }
    report.metrics = ordered;
    Ok(())
}

/// The COTE time model, calibrated (§3.5) on chain and star queries of 4–8
/// tables over the synthetic catalog plus the seed-99 warehouse queries —
/// the training set of the figure harness without its 10-table queries,
/// whose multi-second compiles would dominate set-up.
pub fn training_model(mode: Mode) -> TimeModel {
    let catalog = cote_workloads::synth::synth_catalog(mode, 10);
    let mut queries = Vec::new();
    for n in [4usize, 6, 8] {
        for p in 1..=5usize {
            let name = format!("train_{n}t_{p}p");
            queries.push(cote_workloads::linear::linear_query(&catalog, n, p, &name));
            queries.push(cote_workloads::star::star_query(&catalog, n, p, &name));
        }
    }
    let warehouse = cote_workloads::random::random(mode, 99);
    cote::calibrate_multi(
        &[
            (&catalog, &queries[..]),
            (&warehouse.catalog, &warehouse.queries[..]),
        ],
        &OptimizerConfig::high(mode),
        1,
    )
    .expect("calibration training queries compile")
    .model
}

/// Write the traced run's spans under `.bench_out/` in the working
/// directory; a failure is reported, not fatal.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path =
        PathBuf::from(".bench_out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
