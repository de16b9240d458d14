//! `estimate-adhoc`: generated statements, never repeated, through the SQL
//! front-end and the estimator (§1.2's ad-hoc case, where no cache helps).
//!
//! Closed loop, one caller thread. Each operation is `cote_sql::compile`
//! plus `Cote::estimate_level_counts` at the service's advisor levels, with
//! the counts priced by the calibrated model. Plan generation never runs.
//!
//! The corpus comes in rounds. A round holds one spec per (shape, table
//! count 4..=12, serial or partitioned catalog) — 72 statements in seeded
//! order, with ORDER BY / GROUP BY rotating between rounds and seeded
//! per-table detail — so every round costs about the same and a run's mix
//! does not depend on the seed.

use crate::alloc::counted;
use crate::clock::thread_cpu;
use crate::hostspeed::{HostSpeed, NOMINAL_S};
use crate::report::{repeated_setup, Report};
use crate::trace::Tracer;
use crate::{end_to_end, training_model, Args};
use cote::{Cote, EstimateOptions};
use cote_catalog::Catalog;
use cote_common::Xoshiro256pp;
use cote_optimizer::{Mode, OptimizerConfig, PerMethod};
use cote_workloads::generators::{GraphShape, QuerySpec};
use std::collections::VecDeque;
use std::time::Instant;

/// Advisor levels of the service's default configuration.
pub const LEVELS: [usize; 3] = [1, 2, 4];
/// Rounds generated during set-up; a run that needs more builds them
/// between timed rounds. A measured round is dropped, so memory does not
/// grow with the number of statements a run gets through.
const SETUP_ROUNDS: usize = 24;
/// Statements the output check re-estimates at two enumeration threads.
const CHECK_SAMPLE: usize = 48;
/// Traced statements re-walked for the estimator's work counts: 10 rounds.
const WALK_SAMPLE: usize = 720;

/// One generated statement with its catalog.
struct Stmt {
    spec: QuerySpec,
    catalog: Catalog,
    sql: String,
    /// `cote::fingerprint` of the spec-built query.
    fingerprint: u64,
}

/// Deterministic stream of rounds for one seed.
struct Corpus {
    rng: Xoshiro256pp,
    rounds: usize,
}

impl Corpus {
    fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::new(seed ^ 0xAD_0C),
            rounds: 0,
        }
    }

    fn round(&mut self) -> Vec<Stmt> {
        let mut specs = Vec::with_capacity(72);
        // ORDER BY / GROUP BY rotate with the round, so each stratum gets
        // each combination equally often whatever the seed.
        let flags = self.rounds;
        self.rounds += 1;
        for (i, shape) in GraphShape::ALL.into_iter().enumerate() {
            for tables in 4..=12 {
                for partitioned in [false, true] {
                    let f = flags + i + tables + partitioned as usize;
                    specs.push(QuerySpec {
                        shape,
                        tables,
                        order_by: f % 2 == 1,
                        group_by: (f / 2) % 2 == 1,
                        partitioned,
                        indexes: true,
                        seed: self.rng.next_u64(),
                    });
                }
            }
        }
        // Fisher–Yates with the corpus stream: seeded order within a round.
        for i in (1..specs.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            specs.swap(i, j);
        }
        specs.into_iter().map(Stmt::new).collect()
    }
}

impl Stmt {
    fn new(spec: QuerySpec) -> Self {
        let (catalog, query) = spec.build();
        Stmt {
            sql: cote_workloads::sql::spec_to_sql(&spec),
            fingerprint: cote::fingerprint(&query),
            spec,
            catalog,
        }
    }
}

struct Setup {
    corpus: Corpus,
    /// Generated rounds not yet measured.
    rounds: VecDeque<Vec<Stmt>>,
    /// Calibrated estimators at the advisor levels, serial then parallel.
    cotes: [Cote; 2],
    speed: HostSpeed,
}

fn setup(seed: u64) -> Setup {
    let mut corpus = Corpus::new(seed);
    let rounds = (0..SETUP_ROUNDS).map(|_| corpus.round()).collect();
    let options = EstimateOptions {
        levels: LEVELS.to_vec(),
        ..Default::default()
    };
    let cotes = [Mode::Serial, Mode::Parallel].map(|mode| {
        Cote::new(OptimizerConfig::high(mode), training_model(mode)).with_options(options.clone())
    });
    Setup {
        corpus,
        rounds,
        cotes,
        speed: HostSpeed::new(),
    }
}

fn cote_for<'a>(cotes: &'a [Cote; 2], spec: &QuerySpec) -> &'a Cote {
    &cotes[spec.partitioned as usize]
}

/// One statement's outcome; times are CPU seconds of the calling thread.
struct Outcome {
    round: usize,
    spec: QuerySpec,
    total_s: f64,
    sql_s: f64,
    levels: Vec<(usize, PerMethod)>,
    allocs: u64,
}

/// Why a statement failed: an error from the program, or an output check
/// (the SQL fingerprint) that did not hold.
enum Failure {
    Error(String),
    Check(String),
}

/// Compile, estimate at every level and price one statement; returns the
/// per-level counts and the CPU seconds the SQL front-end took.
fn estimate(cote: &Cote, st: &Stmt) -> Result<(Vec<(usize, PerMethod)>, f64), Failure> {
    let c0 = thread_cpu();
    let compiled = cote_sql::compile(&st.sql, &st.catalog, "adhoc")
        .map_err(|e| Failure::Error(e.one_line(&st.sql)))?;
    let sql_s = (thread_cpu() - c0).as_secs_f64();
    if compiled.fingerprint != st.fingerprint {
        return Err(Failure::Check(format!(
            "fingerprint {:016x} of the SQL text, {:016x} of the spec-built query",
            compiled.fingerprint, st.fingerprint
        )));
    }
    let levels = cote
        .estimate_level_counts(&st.catalog, &compiled.query)
        .map_err(|e| Failure::Error(e.to_string()))?;
    let priced: f64 = levels
        .iter()
        .map(|(_, c)| cote.model().predict_seconds(c))
        .sum();
    std::hint::black_box(priced);
    Ok((levels, sql_s))
}

/// Timed rounds until `seconds` of wall time have elapsed (whole rounds, at
/// least one), each followed by a host-speed sample. Returns the outcomes
/// and each round's host-speed sample (CPU seconds of the reference kernel).
fn measure(
    s: &mut Setup,
    seconds: f64,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> (Vec<Outcome>, Vec<f64>) {
    let mut out = Vec::new();
    let mut timed = 0.0;
    let mut rounds = 0;
    let mut refs = Vec::new();
    let mut id = 0u64;
    while timed < seconds {
        let round = match s.rounds.pop_front() {
            Some(r) => r,
            None => s.corpus.round(),
        };
        let r0 = Instant::now();
        for st in &round {
            id += 1;
            report.attempted += 1;
            let cote = cote_for(&s.cotes, &st.spec);
            let (t0, c0) = (Instant::now(), thread_cpu());
            let (res, allocs) = counted(|| estimate(cote, st));
            let (t1, c1) = (Instant::now(), thread_cpu());
            if let Some(t) = tracer {
                t.record("core.estimate_sql", id, "bench.statement", t0, t1);
            }
            match res {
                Ok((levels, sql_s)) => out.push(Outcome {
                    round: rounds,
                    spec: st.spec.clone(),
                    total_s: (c1 - c0).as_secs_f64(),
                    sql_s,
                    levels,
                    allocs,
                }),
                Err(Failure::Error(e)) => {
                    eprintln!("estimate-adhoc: {}: {e}", st.sql);
                    report.op_failures += 1;
                }
                Err(Failure::Check(e)) => {
                    eprintln!("estimate-adhoc check: {}: {e}", st.sql);
                    report.check_failures += 1;
                }
            }
        }
        timed += r0.elapsed().as_secs_f64();
        rounds += 1;
        refs.push(s.speed.sample());
    }
    (out, refs)
}

/// Re-estimate a seeded sample at two enumeration threads; per-level counts
/// must equal the serial walk's.
fn check(s: &Setup, outcomes: &[Outcome], seed: u64, report: &mut Report) {
    if outcomes.is_empty() {
        return;
    }
    let mut rng = Xoshiro256pp::new(seed ^ 0xC4EC);
    for _ in 0..CHECK_SAMPLE.min(outcomes.len()) {
        let o = &outcomes[rng.below(outcomes.len() as u64) as usize];
        let st = Stmt::new(o.spec.clone());
        let base = cote_for(&s.cotes, &st.spec);
        let mut options = EstimateOptions {
            levels: LEVELS.to_vec(),
            ..Default::default()
        };
        options.enum_threads = 2;
        let par = Cote::new(base.config().clone(), base.model().clone()).with_options(options);
        report.attempted += 1;
        let got = cote_sql::compile(&st.sql, &st.catalog, "check")
            .map_err(|e| e.one_line(&st.sql))
            .and_then(|c| {
                par.estimate_level_counts(&st.catalog, &c.query)
                    .map_err(|e| e.to_string())
            });
        match got {
            Ok(levels) if levels == o.levels => {}
            Ok(levels) => {
                eprintln!(
                    "estimate-adhoc check: {}: 2 threads {levels:?}, serial {:?}",
                    st.sql, o.levels
                );
                report.check_failures += 1;
            }
            Err(e) => {
                eprintln!("estimate-adhoc check: {}: {e}", st.sql);
                report.check_failures += 1;
            }
        }
    }
}

/// Run the workload and fill `report`.
pub fn run(args: &Args, report: &mut Report) {
    let (mut s, setup_s) = repeated_setup(|| setup(args.seed));
    let (outcomes, refs) = measure(&mut s, args.seconds, None, report);
    let rounds = refs.len();
    // Every round has the same composition, so per-round figures compare.
    // Each round's CPU times are scaled by the host speed sampled after it.
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); rounds];
    for o in &outcomes {
        windows[o.round].push(o.total_s * 1e3 * NOMINAL_S / refs[o.round]);
    }
    let mut per_round: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| 1e3 * w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    per_round.sort_by(f64::total_cmp);
    let ops_per_s = crate::stats::median(&per_round).unwrap_or(f64::NAN);
    let raw_ops = outcomes.len() as f64 / outcomes.iter().map(|o| o.total_s).sum::<f64>();
    let mut sorted_refs = refs.clone();
    sorted_refs.sort_by(f64::total_cmp);
    let host_ref = crate::stats::median(&sorted_refs).unwrap_or(f64::NAN);
    println!(
        "estimate-adhoc: {} statements in {rounds} rounds; host speed {:.3} (reference kernel {:.3} ms, nominal {:.3} ms)",
        outcomes.len(),
        NOMINAL_S / host_ref,
        1e3 * host_ref,
        1e3 * NOMINAL_S
    );
    crate::report::say("estimates_per_s (raw)", format!("{raw_ops:.2}"), "1/s");
    crate::report::say(
        "estimates_per_s (nominal)",
        format!("{ops_per_s:.2}"),
        "1/s",
    );
    let mut us: Vec<f64> = outcomes.iter().map(|o| o.total_s * 1e6).collect();
    us.sort_by(f64::total_cmp);
    let p50 = crate::stats::median(&us).unwrap_or(f64::NAN);
    crate::report::say("estimate_p50_us", format!("{p50:.2}"), "us");
    if let Some((p99, _)) = crate::stats::tail(&us, 0.99) {
        crate::report::say("estimate_p99_us", format!("{p99:.2}"), "us");
    }

    if !args.trace {
        let rss = crate::report::peak_rss_mb();
        check(&s, &outcomes, args.seed, report);
        end_to_end(report, setup_s, rss, ops_per_s, &windows);
        return;
    }
    crate::alloc::set_counting(true);
    let tracer = Tracer::new();
    let mut ignored = Report::default();
    let (traced, _) = measure(&mut s, args.seconds, Some(&tracer), &mut ignored);
    crate::alloc::set_counting(false);
    check(&s, &outcomes, args.seed, report);
    let mean = |v: &[Outcome]| v.iter().map(|o| o.total_s).sum::<f64>() / v.len().max(1) as f64;
    let overhead = 100.0 * (mean(&traced) / mean(&outcomes) - 1.0);
    per_layer(report, &s, &traced, overhead);
    crate::write_trace(args, &tracer);
}

fn per_layer(report: &mut Report, s: &Setup, traced: &[Outcome], overhead: f64) {
    let n = traced.len().max(1) as f64;
    // The level-count call the loop times discards the walk's statistics;
    // `cote::estimate_query` returns them. Re-walking the first
    // `WALK_SAMPLE` statements (whole rounds, so every stratum equally) keeps
    // the traced run short.
    let sample = &traced[..traced.len().min(WALK_SAMPLE)];
    let mut walk = [0u64; 5];
    for o in sample {
        let st = Stmt::new(o.spec.clone());
        let cote = cote_for(&s.cotes, &st.spec);
        let Ok(c) = cote_sql::compile(&st.sql, &st.catalog, "adhoc") else {
            continue;
        };
        let opts = EstimateOptions {
            levels: LEVELS.to_vec(),
            ..Default::default()
        };
        if let Ok(e) = cote::estimate_query(&st.catalog, &c.query, cote.config(), &opts) {
            let t = e.totals;
            let values = [
                t.pairs,
                t.memo_entries,
                t.property_values,
                t.prop_probes,
                t.prop_compares,
            ];
            for (w, v) in walk.iter_mut().zip(values) {
                *w += v;
            }
        }
    }
    let per_stmt = |v: u64| v as f64 / sample.len().max(1) as f64;
    let mut sql_us: Vec<f64> = traced.iter().map(|o| o.sql_s * 1e6).collect();
    sql_us.sort_by(f64::total_cmp);
    let est_s: f64 = traced.iter().map(|o| o.total_s - o.sql_s).sum();
    report.push("core.estimate_s", est_s / n, "s");
    report.push("core.pairs", per_stmt(walk[0]), "count");
    report.push("core.memo_entries", per_stmt(walk[1]), "count");
    report.push("core.property_values", per_stmt(walk[2]), "count");
    report.push("core.prop_probes", per_stmt(walk[3]), "count");
    report.push("core.prop_compares", per_stmt(walk[4]), "count");
    report.push(
        "core.allocs",
        traced.iter().map(|o| o.allocs as f64).sum::<f64>() / n,
        "count",
    );
    report.push(
        "sql.compile_us.p50",
        crate::stats::median(&sql_us).unwrap_or(0.0),
        "us",
    );
    report.push(
        "sql.compile_us.p99",
        crate::stats::tail(&sql_us, 0.99).map_or(0.0, |t| t.0),
        "us",
    );
    report.push("obs.trace_overhead_pct", overhead, "%");
}
