//! `compile-paper`: every query of the paper workloads compiled at the high
//! level, each estimated by a calibrated COTE just before.
//!
//! Closed loop, one caller thread. Plan generation and saving dominate; the
//! estimator costs 1–3% (Fig. 2, Fig. 4). The query set is fixed; the seed
//! picks the sample the output check re-compiles at two enumeration threads.

use crate::alloc::counted;
use crate::clock::thread_cpu;
use crate::hostspeed::{HostSpeed, NOMINAL_S};
use crate::report::{repeated_setup, say, Report};
use crate::trace::Tracer;
use crate::{end_to_end, training_model, Args};
use cote::Cote;
use cote_common::Xoshiro256pp;
use cote_optimizer::{CompileStats, Mode, Optimizer, OptimizerConfig, PerMethod};
use cote_workloads::Workload;
use std::time::Instant;

/// The serial paper workloads plus the parallel ones short enough to run
/// every pass (real2-p takes minutes and linear-p repeats linear-s).
pub const WORKLOADS: [&str; 12] = [
    "linear-s", "star-s", "cycle-s", "random-s", "tpch-s", "real1-s", "real2-s", "star-p",
    "cycle-p", "random-p", "tpch-p", "real1-p",
];

/// Queries the output check re-compiles at two enumeration threads.
const CHECK_SAMPLE: usize = 6;
/// Queries on each side whose host-speed samples set a query's factor.
const SPEED_WINDOW: usize = 5;

struct Setup {
    workloads: Vec<Workload>,
    /// Calibrated estimators, serial then parallel.
    cotes: [Cote; 2],
}

fn setup() -> Setup {
    let workloads = WORKLOADS
        .iter()
        .map(|n| cote_workloads::by_name(n).expect("paper workload exists"))
        .collect();
    let cotes = [Mode::Serial, Mode::Parallel]
        .map(|mode| Cote::new(OptimizerConfig::high(mode), training_model(mode)));
    Setup { workloads, cotes }
}

/// One query's compile and estimate; times are CPU seconds of the calling
/// thread.
struct QueryRun {
    compile_s: f64,
    /// Host speed around the query: [`NOMINAL_S`] over the median of the
    /// reference-kernel samples taken near it (one before each query, one
    /// after the last).
    speed: f64,
    estimate_s: f64,
    predicted_s: f64,
    stats: CompileStats,
    best_cost: f64,
    est_counts: PerMethod,
    est_pairs: u64,
    est_memo: u64,
    est_values: u64,
    est_probes: u64,
    est_compares: u64,
    opt_allocs: u64,
    core_allocs: u64,
}

fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::Serial => 0,
        Mode::Parallel => 1,
    }
}

/// Estimate then compile every query once. Errors count as failures.
fn pass(
    s: &Setup,
    speed: &mut HostSpeed,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Vec<Option<QueryRun>> {
    let optimizers =
        [Mode::Serial, Mode::Parallel].map(|m| Optimizer::new(OptimizerConfig::high(m)));
    let mut out = Vec::new();
    let mut refs = Vec::new();
    let mut id = 0u64;
    for w in &s.workloads {
        let mi = mode_index(w.mode);
        for q in &w.queries {
            id += 1;
            report.attempted += 1;
            refs.push(speed.sample());
            let (t0, c0) = (Instant::now(), thread_cpu());
            let (est, core_allocs) = counted(|| s.cotes[mi].estimate(&w.catalog, q));
            let (t1, c1) = (Instant::now(), thread_cpu());
            let (res, opt_allocs) = counted(|| optimizers[mi].optimize_query(&w.catalog, q));
            let (t2, c2) = (Instant::now(), thread_cpu());
            if let Some(t) = tracer {
                t.record("core.estimate", id, "bench.query", t0, t1);
                t.record("optimizer.compile", id, "bench.query", t1, t2);
            }
            match (est, res) {
                (Ok(est), Ok(res)) => out.push(Some(QueryRun {
                    compile_s: (c2 - c1).as_secs_f64(),
                    speed: 1.0,
                    estimate_s: (c1 - c0).as_secs_f64(),
                    predicted_s: est.seconds,
                    best_cost: res.best_cost(),
                    stats: res.stats,
                    est_counts: est.counts,
                    est_pairs: est.detail.totals.pairs,
                    est_memo: est.detail.totals.memo_entries,
                    est_values: est.detail.totals.property_values,
                    est_probes: est.detail.totals.prop_probes,
                    est_compares: est.detail.totals.prop_compares,
                    opt_allocs,
                    core_allocs,
                })),
                (est, res) => {
                    for e in [
                        est.err().map(|e| e.to_string()),
                        res.err().map(|e| e.to_string()),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        eprintln!("compile-paper: {}: {e}", q.name);
                    }
                    report.op_failures += 1;
                    out.push(None);
                }
            }
        }
    }
    refs.push(speed.sample());
    // Each query's factor comes from the median of the samples within
    // `SPEED_WINDOW` queries of it: q09 alone runs for most of a pass, so a
    // factor from the two samples around it would let one disturbed sample
    // move the whole figure.
    for (i, r) in out.iter_mut().enumerate() {
        if let Some(r) = r {
            let lo = i.saturating_sub(SPEED_WINDOW);
            let mut near = refs[lo..(i + SPEED_WINDOW + 2).min(refs.len())].to_vec();
            near.sort_by(f64::total_cmp);
            r.speed = NOMINAL_S / crate::stats::median(&near).expect("samples around a query");
        }
    }
    out
}

/// Passes until `seconds` have elapsed, at least one.
fn passes(
    s: &Setup,
    speed: &mut HostSpeed,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Vec<Vec<Option<QueryRun>>> {
    let t0 = Instant::now();
    let mut all = Vec::new();
    loop {
        all.push(pass(s, speed, tracer, report));
        if t0.elapsed().as_secs_f64() >= seconds {
            return all;
        }
    }
}

/// Per-query median compile seconds across passes, scaled to the nominal
/// host (failed queries left out).
fn per_query_compile_s(all: &[Vec<Option<QueryRun>>]) -> Vec<f64> {
    let n = all[0].len();
    (0..n)
        .filter_map(|i| {
            let mut v: Vec<f64> = all
                .iter()
                .filter_map(|p| p[i].as_ref().map(|r| r.compile_s * r.speed))
                .collect();
            v.sort_by(f64::total_cmp);
            crate::stats::median(&v)
        })
        .collect()
}

fn pass_compile_s(all: &[Vec<Option<QueryRun>>]) -> f64 {
    let mut totals: Vec<f64> = all
        .iter()
        .map(|p| p.iter().flatten().map(|r| r.compile_s * r.speed).sum())
        .collect();
    totals.sort_by(f64::total_cmp);
    crate::stats::median(&totals).expect("at least one pass")
}

/// Mean |P̂ − P| / P in percent over queries with P > 0, per method and
/// over all (query, method) pairs.
fn count_errors(runs: &[&QueryRun]) -> ([f64; 3], f64) {
    let mut per = [(0.0, 0u64); 3];
    for r in runs {
        let actual = r.stats.plans_generated;
        let pairs = [
            (actual.nljn, r.est_counts.nljn),
            (actual.mgjn, r.est_counts.mgjn),
            (actual.hsjn, r.est_counts.hsjn),
        ];
        for (slot, (a, e)) in per.iter_mut().zip(pairs) {
            if a > 0 {
                slot.0 += (e as f64 - a as f64).abs() / a as f64;
                slot.1 += 1;
            }
        }
    }
    let pct = |(sum, n): (f64, u64)| if n == 0 { 0.0 } else { 100.0 * sum / n as f64 };
    let all = per
        .iter()
        .fold((0.0, 0), |acc, p| (acc.0 + p.0, acc.1 + p.1));
    (per.map(pct), pct(all))
}

/// Re-compile a seeded sample at two enumeration threads: best cost and
/// per-method plan counts must equal the serial walk's.
fn check(s: &Setup, first: &[Option<QueryRun>], seed: u64, report: &mut Report) {
    let flat: Vec<(&Workload, usize)> = s
        .workloads
        .iter()
        .flat_map(|w| (0..w.queries.len()).map(move |i| (w, i)))
        .collect();
    let mut rng = Xoshiro256pp::new(seed ^ 0xC0_4E11);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < CHECK_SAMPLE.min(flat.len()) {
        let i = rng.below(flat.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    for i in picked {
        let (w, qi) = flat[i];
        let Some(serial) = &first[i] else { continue };
        report.attempted += 1;
        let cfg = OptimizerConfig::high(w.mode).with_enum_threads(2);
        match Optimizer::new(cfg).optimize_query(&w.catalog, &w.queries[qi]) {
            Ok(r)
                if r.best_cost().to_bits() == serial.best_cost.to_bits()
                    && r.stats.plans_generated == serial.stats.plans_generated => {}
            Ok(r) => {
                eprintln!(
                    "compile-paper check: {} differs at 2 threads: cost {} vs {}, plans {:?} vs {:?}",
                    w.queries[qi].name,
                    r.best_cost(),
                    serial.best_cost,
                    r.stats.plans_generated,
                    serial.stats.plans_generated
                );
                report.check_failures += 1;
            }
            Err(e) => {
                eprintln!("compile-paper check: {}: {e}", w.queries[qi].name);
                report.check_failures += 1;
            }
        }
    }
}

/// Run the workload and fill `report`.
pub fn run(args: &Args, report: &mut Report) {
    let (s, setup_s) = repeated_setup(setup);
    let mut speed = HostSpeed::new();
    let all = passes(&s, &mut speed, args.seconds, None, report);
    let compile_s = pass_compile_s(&all);
    let per_query_ms: Vec<f64> = per_query_compile_s(&all).iter().map(|v| v * 1e3).collect();
    let first: Vec<&QueryRun> = all[0].iter().flatten().collect();
    let (per_method_err, count_err) = count_errors(&first);

    println!(
        "compile-paper: {} queries, {} pass(es)",
        all[0].len(),
        all.len()
    );
    let raw_s: f64 = all[0].iter().flatten().map(|r| r.compile_s).sum();
    say("compile_s (raw)", format!("{raw_s:.4}"), "s");
    say("compile_s (nominal)", format!("{compile_s:.4}"), "s");
    let geo = crate::stats::geomean(&per_query_ms).unwrap_or(0.0);
    say("compile_geomean_ms", format!("{geo:.4}"), "ms");
    say("count_error_pct", format!("{count_err:.4}"), "%");

    let traced = args.trace.then(|| {
        crate::alloc::set_counting(true);
        let tracer = Tracer::new();
        let mut ignored = Report::default();
        let traced = passes(&s, &mut speed, args.seconds, Some(&tracer), &mut ignored);
        crate::alloc::set_counting(false);
        (traced, tracer)
    });

    let rss = crate::report::peak_rss_mb();
    check(&s, &all[0], args.seed, report);

    match traced {
        None => {
            let n = per_query_ms.len() as f64;
            end_to_end(report, setup_s, rss, n / compile_s, &[per_query_ms]);
        }
        Some((traced, tracer)) => {
            let overhead = 100.0 * (pass_compile_s(&traced) - compile_s) / compile_s;
            per_layer(report, &traced, per_method_err, overhead);
            crate::write_trace(args, &tracer);
        }
    }
}

fn per_layer(report: &mut Report, all: &[Vec<Option<QueryRun>>], err: [f64; 3], overhead: f64) {
    let passes = all.len() as f64;
    let runs: Vec<&QueryRun> = all.iter().flatten().flatten().collect();
    let mut st = CompileStats::default();
    for r in &runs {
        st.add(&r.stats);
    }
    let sum = |f: &dyn Fn(&QueryRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / passes;
    let compile = sum(&|r| r.compile_s);
    let estimate = sum(&|r| r.estimate_s);
    let generated = st.plans_generated.total() as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let t = st.time;
    report.push(
        "optimizer.enumerate_s",
        t.enumeration.as_secs_f64() / passes,
        "s",
    );
    report.push("optimizer.nljn_s", t.nljn.as_secs_f64() / passes, "s");
    report.push("optimizer.mgjn_s", t.mgjn.as_secs_f64() / passes, "s");
    report.push("optimizer.hsjn_s", t.hsjn.as_secs_f64() / passes, "s");
    report.push("optimizer.save_s", t.saving.as_secs_f64() / passes, "s");
    report.push("optimizer.other_s", t.other.as_secs_f64() / passes, "s");
    report.push(
        "optimizer.plans_generated.nljn",
        per_pass(st.plans_generated.nljn),
        "count",
    );
    report.push(
        "optimizer.plans_generated.mgjn",
        per_pass(st.plans_generated.mgjn),
        "count",
    );
    report.push(
        "optimizer.plans_generated.hsjn",
        per_pass(st.plans_generated.hsjn),
        "count",
    );
    report.push("optimizer.plans_kept", per_pass(st.plans_kept), "count");
    report.push(
        "optimizer.keep_ratio",
        st.plans_kept as f64 / generated.max(1.0),
        "ratio",
    );
    report.push("optimizer.pairs", per_pass(st.pairs_enumerated), "count");
    report.push("optimizer.memo_entries", per_pass(st.memo_entries), "count");
    report.push("optimizer.plans_per_s", generated / passes / compile, "1/s");
    report.push("optimizer.allocs", sum(&|r| r.opt_allocs as f64), "count");
    report.push("core.estimate_s", estimate, "s");
    report.push("core.pairs", sum(&|r| r.est_pairs as f64), "count");
    report.push("core.memo_entries", sum(&|r| r.est_memo as f64), "count");
    report.push(
        "core.property_values",
        sum(&|r| r.est_values as f64),
        "count",
    );
    report.push("core.prop_probes", sum(&|r| r.est_probes as f64), "count");
    report.push(
        "core.prop_compares",
        sum(&|r| r.est_compares as f64),
        "count",
    );
    report.push("core.allocs", sum(&|r| r.core_allocs as f64), "count");
    report.push("core.count_error.nljn_pct", err[0], "%");
    report.push("core.count_error.mgjn_pct", err[1], "%");
    report.push("core.count_error.hsjn_pct", err[2], "%");
    let time_err = runs
        .iter()
        .map(|r| (r.predicted_s - r.compile_s).abs() / r.compile_s.max(1e-9))
        .sum::<f64>()
        / runs.len().max(1) as f64;
    report.push("core.time_error_pct", 100.0 * time_err, "%");
    report.push("core.overhead_pct", 100.0 * estimate / compile, "%");
    report.push("obs.trace_overhead_pct", overhead, "%");
}
