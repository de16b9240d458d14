//! `cote serve`, `cote bench-service` and `cote bench-net`: the
//! daemon-facing subcommands.

use crate::commands::quick_cote;
use cote_common::{CoteError, Result};
use cote_net::{
    EventConfig, EventServer, FrameError, LineReader, NetBenchConfig, NetClientConfig,
    MAX_LINE_BYTES,
};
use cote_optimizer::OptimizerConfig;
use cote_query::Query;
use cote_service::{CoteService, Decision, QueryClass, ServiceConfig};
use cote_workloads::{by_name, traffic, Workload};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Flags shared by the serving subcommands.
struct ServeArgs {
    workload: Workload,
    rps: f64,
    duration: Duration,
    clients: usize,
    seed: u64,
    cfg: ServiceConfig,
    /// Event-loop front-end knobs (`--loops`, `--max-conns`, `--drain-ms`).
    net: EventConfig,
    /// `--listen ADDR`: also serve TCP/HTTP on this address.
    listen: Option<String>,
    /// `--addr HOST:PORT`: bench an already-running server instead of
    /// self-hosting one.
    addr: Option<String>,
    /// `--trace FILE`: write worker span events as JSONL (serve only).
    trace: Option<String>,
    /// `--trace-max-bytes B`: cap the trace file (0 = unlimited).
    trace_max_bytes: u64,
    /// `--connections N`: total TCP connections a bench run opens
    /// (defaults to --clients, i.e. no churn).
    connections: Option<usize>,
    /// `--json FILE`: also write the bench report as one JSON object.
    json: Option<String>,
}

fn bad(reason: String) -> CoteError {
    CoteError::InvalidQuery { reason }
}

fn parse_args(args: &[String]) -> Result<ServeArgs> {
    let mut workload = None;
    let mut rps = 500.0;
    let mut duration = Duration::from_secs(3);
    let mut clients = 8;
    let mut seed = 42;
    let mut cfg = ServiceConfig::default();
    let mut net = EventConfig::default();
    let mut listen = None;
    let mut addr = None;
    let mut trace = None;
    let mut trace_max_bytes = 0u64;
    let mut connections = None;
    let mut json = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(by_name(value("--workload")?)?),
            "--rps" => {
                rps = value("--rps")?
                    .parse()
                    .map_err(|_| bad("--rps needs a number".into()))?
            }
            "--duration" => {
                let secs: f64 = value("--duration")?
                    .parse()
                    .map_err(|_| bad("--duration needs seconds".into()))?;
                duration = Duration::from_secs_f64(secs.max(0.0));
            }
            "--clients" => {
                clients = value("--clients")?
                    .parse()
                    .map_err(|_| bad("--clients needs an integer".into()))?
            }
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|_| bad("--workers needs an integer".into()))?;
                cfg = cfg.with_workers(n);
            }
            "--cache" => {
                let n: usize = value("--cache")?
                    .parse()
                    .map_err(|_| bad("--cache needs an integer".into()))?;
                cfg = cfg.with_cache_capacity(n);
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| bad("--deadline-ms needs milliseconds".into()))?;
                cfg.deadline = Duration::from_millis(ms);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| bad("--seed needs an integer".into()))?
            }
            "--listen" => listen = Some(value("--listen")?.clone()),
            "--addr" => addr = Some(value("--addr")?.clone()),
            "--trace" => trace = Some(value("--trace")?.clone()),
            "--trace-max-bytes" => {
                trace_max_bytes = value("--trace-max-bytes")?
                    .parse()
                    .map_err(|_| bad("--trace-max-bytes needs a byte count".into()))?
            }
            "--drain-ms" => {
                let ms: u64 = value("--drain-ms")?
                    .parse()
                    .map_err(|_| bad("--drain-ms needs milliseconds".into()))?;
                net.drain_deadline = Duration::from_millis(ms);
            }
            "--loops" => {
                let n: usize = value("--loops")?
                    .parse()
                    .map_err(|_| bad("--loops needs an integer".into()))?;
                net.loops = n.max(1);
            }
            "--max-conns" => {
                let n: usize = value("--max-conns")?
                    .parse()
                    .map_err(|_| bad("--max-conns needs an integer".into()))?;
                net.max_conns = n.max(1);
            }
            "--connections" => {
                connections = Some(
                    value("--connections")?
                        .parse()
                        .map_err(|_| bad("--connections needs an integer".into()))?,
                )
            }
            "--json" => json = Some(value("--json")?.clone()),
            // Bare first argument doubles as the workload name.
            w if workload.is_none() && !w.starts_with("--") => workload = Some(by_name(w)?),
            other => return Err(bad(format!("unknown flag '{other}'"))),
        }
    }
    let workload = workload.ok_or_else(|| bad("missing --workload <name>".into()))?;
    Ok(ServeArgs {
        workload,
        rps,
        duration,
        clients: clients.max(1),
        seed,
        cfg,
        net,
        listen,
        addr,
        trace,
        trace_max_bytes,
        connections,
        json,
    })
}

/// Serve `svc` over the event-loop front-end on `listen`.
fn bind_server(
    a: &ServeArgs,
    svc: Arc<CoteService>,
    queries: Arc<Vec<Query>>,
    listen: &str,
) -> Result<EventServer> {
    let server = EventServer::bind(svc, queries, listen, a.net.clone())
        .map_err(|e| bad(format!("bind {listen}: {e}")))?;
    eprintln!("event-loop front-end: {} loops", a.net.loops);
    Ok(server)
}

fn start_service(w: &Workload, cfg: ServiceConfig) -> Result<CoteService> {
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(w, &config)?;
    eprintln!(
        "starting cote-service: {} workers, {} cache slots, {:?} deadline",
        cfg.workers, cfg.cache_capacity, cfg.deadline
    );
    Ok(CoteService::start(w.catalog.clone(), cote, cfg))
}

fn class_of(q: &Query) -> QueryClass {
    QueryClass::from_table_count(q.total_tables())
}

fn resolve_addr(s: &str) -> Result<SocketAddr> {
    s.to_socket_addrs()
        .map_err(|e| bad(format!("cannot resolve '{s}': {e}")))?
        .next()
        .ok_or_else(|| bad(format!("'{s}' resolves to no address")))
}

/// Drain the service, then check the queue-depth gauge accounting: after a
/// quiesced run it must read zero on every path (completed, shed, expired).
fn check_gauge_drained(svc: &CoteService) -> Result<()> {
    if !svc.drain(Duration::from_secs(10)) {
        return Err(bad(format!(
            "service did not drain: {} queued, {} in flight",
            svc.queue_len(),
            svc.inflight()
        )));
    }
    let depth = svc.metrics().queue_depth.get();
    if depth != 0 {
        return Err(bad(format!(
            "queue-depth gauge leaked: {depth} after drain"
        )));
    }
    eprintln!("queue-depth gauge drained to zero");
    Ok(())
}

/// `cote serve <workload> [--listen ADDR] [--trace FILE]` — the daemon.
///
/// stdin drives it interactively: each line is a 1-based query index
/// (optionally `N interactive|reporting|batch`); `done N SECS` reports a
/// real elapsed compile time back into the online recalibrator; `report`
/// prints the metrics report, `metrics` / `metrics json` expose the
/// registry (Prometheus text / JSON), `quit` (or EOF) exits. With
/// `--listen ADDR` the same service also answers the wire protocol and
/// HTTP on that address (`127.0.0.1:0` picks an ephemeral port, printed on
/// startup). `--trace FILE` streams worker span events as JSONL through
/// the size-capped writer (`--trace-max-bytes`, 0 = unlimited). Shutdown
/// gracefully drains network connections and queued estimates, then
/// writes a final metrics dump (the stdin protocol's stand-in for
/// dump-on-SIGTERM). Stdin and the network both split lines with the same
/// length-capped framing, so no input can allocate unboundedly.
pub fn serve(args: &[String]) -> Result<()> {
    let mut a = parse_args(args)?;
    cote_obs::set_tracing(a.trace.is_some());
    let mut tracer = match &a.trace {
        Some(path) => Some(
            cote_obs::BoundedTraceWriter::create(path, a.trace_max_bytes)
                .map_err(|e| bad(format!("creating {path}: {e}")))?,
        ),
        None => None,
    };
    let svc = Arc::new(start_service(&a.workload, a.cfg.clone())?);
    let queries = Arc::new(std::mem::take(&mut a.workload.queries));
    let n = queries.len();
    let mut sink_dropped = 0u64;
    let mut flush_trace =
        |svc: &CoteService, tracer: &mut Option<cote_obs::BoundedTraceWriter>| -> Result<()> {
            if let Some(w) = tracer {
                let (events, dropped) = svc.take_trace_events();
                sink_dropped += dropped;
                for e in &events {
                    w.write_event(e)
                        .map_err(|e| bad(format!("writing trace: {e}")))?;
                }
            }
            Ok(())
        };
    let server = match &a.listen {
        Some(addr) => {
            let server = bind_server(&a, Arc::clone(&svc), Arc::clone(&queries), addr)?;
            // Exact line the CI smoke job (and humans) scrape the port from.
            eprintln!("listening on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    eprintln!(
        "serving {} ({n} queries); enter <index> [class], 'report', 'metrics [json]' or 'quit'",
        a.workload.name
    );
    let stdin = std::io::stdin();
    let mut reader = LineReader::new(stdin.lock(), MAX_LINE_BYTES);
    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break, // EOF: shut down
            Err(FrameError::Oversize { limit }) => {
                eprintln!("input line exceeds {limit} bytes; ignored");
                match reader.skip_line() {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => return Err(bad(format!("stdin: {e}"))),
                }
            }
            Err(FrameError::InvalidUtf8) => {
                eprintln!("input line is not valid utf-8; ignored");
                continue;
            }
            Err(FrameError::Truncated) => break,
            Err(FrameError::Io(e)) => return Err(bad(format!("stdin: {e}"))),
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some("report") => {
                print!("{}", svc.report());
                continue;
            }
            Some("metrics") => {
                match parts.next() {
                    Some("json") => println!("{}", svc.metrics().json()),
                    _ => print!("{}", svc.metrics().prometheus_text()),
                }
                continue;
            }
            Some("done") => {
                // `done N SECS`: report a real compile time back into the
                // online recalibrator for query N's cached advice.
                let idx: Option<usize> = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|i| (1..=n).contains(i))
                    .map(|i: usize| i - 1);
                let secs: Option<f64> = parts.next().and_then(|t| t.parse().ok());
                match (idx, secs) {
                    (Some(i), Some(secs)) if secs > 0.0 => {
                        if svc.report_outcome(&queries[i], secs) {
                            println!("{}: outcome {secs:.6}s learned", queries[i].name);
                        } else {
                            println!(
                                "{}: outcome ignored (no cached advice or recal off)",
                                queries[i].name
                            );
                        }
                    }
                    _ => eprintln!("usage: done <1..={n}> <seconds>"),
                }
                continue;
            }
            Some(tok) => {
                let idx: usize = match tok.parse() {
                    Ok(i) if (1..=n).contains(&i) => i - 1,
                    _ => {
                        eprintln!("expected 1..={n}, 'done N SECS', 'report' or 'quit'");
                        continue;
                    }
                };
                let q = &queries[idx];
                let class = match parts.next() {
                    Some("interactive") => QueryClass::Interactive,
                    Some("reporting") => QueryClass::Reporting,
                    Some("batch") => QueryClass::Batch,
                    Some(other) => {
                        eprintln!("unknown class '{other}'");
                        continue;
                    }
                    None => class_of(q),
                };
                let resp = svc.submit(q, class);
                match resp.decision {
                    Decision::Admitted { advice, cached } => {
                        let src = if cached { "cache" } else { "fresh" };
                        println!(
                            "{}: {} [{src}, {:?}, class {}]",
                            q.name,
                            advice.choice.label(),
                            resp.elapsed,
                            class.name()
                        );
                        for (limit, secs) in &advice.levels {
                            println!("    level {limit:>3}: est {:.3}ms", secs * 1e3);
                        }
                    }
                    Decision::Shed { reason } => {
                        println!("{}: shed ({})", q.name, reason.name())
                    }
                    Decision::Failed { error } => println!("{}: failed: {error}", q.name),
                }
                flush_trace(&svc, &mut tracer)?;
            }
        }
    }
    if let Some(server) = server {
        eprintln!("shutting down: {}", server.shutdown().summary());
    }
    if !svc.drain(Duration::from_secs(5)) {
        eprintln!("warning: service did not fully drain before dump");
    }
    flush_trace(&svc, &mut tracer)?;
    if let Some(w) = tracer {
        let s = w.finish().map_err(|e| bad(format!("closing trace: {e}")))?;
        eprintln!(
            "trace: {} events to {} ({} bytes; {} dropped by the size cap, {} by the sink)",
            s.written,
            s.path.display(),
            s.bytes,
            s.dropped,
            sink_dropped
        );
        cote_obs::set_tracing(false);
    }
    print!("{}", svc.report());
    eprintln!("── final metrics dump ──");
    eprint!("{}", svc.metrics().prometheus_text());
    Ok(())
}

/// `cote bench-service --workload W --rps R [--duration S] [--clients N]
/// [--workers N] [--cache N] [--deadline-ms M] [--seed S]` — closed-loop
/// Poisson replay of a workload against the daemon, then a full report.
pub fn bench_service(args: &[String]) -> Result<()> {
    let a = parse_args(args)?;
    let schedule = traffic::poisson_schedule(a.workload.queries.len(), a.rps, a.duration, a.seed);
    if schedule.is_empty() {
        return Err(bad("empty schedule: check --rps and --duration".into()));
    }
    let svc = start_service(&a.workload, a.cfg)?;
    eprintln!(
        "replaying {} arrivals over {:?} from {} clients (seed {})...",
        schedule.len(),
        a.duration,
        a.clients,
        a.seed
    );
    let arrivals: Vec<(Duration, usize)> = schedule.iter().map(|x| (x.at, x.query_index)).collect();
    let report = cote_service::replay(&svc, &a.workload.queries, &arrivals, a.clients);
    println!("── bench-service: {} ──", a.workload.name);
    print!("{}", report.summary());
    println!("── service ──");
    print!("{}", svc.report());
    println!("statement cache: {}", svc.metrics().cache_stats().render());
    check_gauge_drained(&svc)
}

/// `cote bench-net --workload W --rps R [--duration S] [--clients N]
/// [--addr HOST:PORT | --listen ADDR] [service/net flags]` — open-loop
/// Poisson replay over real TCP sockets. Without `--addr` it self-hosts a
/// server on an ephemeral loopback port, benches it, then drains and
/// verifies the queue-depth gauge returns to zero.
pub fn bench_net(args: &[String]) -> Result<()> {
    let mut a = parse_args(args)?;
    let schedule = traffic::poisson_schedule(a.workload.queries.len(), a.rps, a.duration, a.seed);
    if schedule.is_empty() {
        return Err(bad("empty schedule: check --rps and --duration".into()));
    }
    // Wire indices are 1-based.
    let arrivals: Vec<(Duration, usize)> =
        schedule.iter().map(|x| (x.at, x.query_index + 1)).collect();
    let bench_cfg = NetBenchConfig {
        clients: a.clients,
        connections: a.connections.unwrap_or(a.clients),
        client: NetClientConfig::default(),
    };
    let write_json = |report: &cote_net::NetBenchReport| -> Result<()> {
        if let Some(path) = &a.json {
            std::fs::write(path, format!("{}\n", report.json()))
                .map_err(|e| bad(format!("writing {path}: {e}")))?;
            eprintln!("json report written to {path}");
        }
        Ok(())
    };

    if let Some(addr) = &a.addr {
        // Target an already-running `cote serve --listen` (same workload!).
        let addr = resolve_addr(addr)?;
        eprintln!(
            "benching {} arrivals over {:?} against {addr}: {} clients, {} connections...",
            arrivals.len(),
            a.duration,
            bench_cfg.clients,
            bench_cfg.connections.max(bench_cfg.clients),
        );
        let report = cote_net::bench_net(addr, &arrivals, &bench_cfg);
        println!("── bench-net: {} → {addr} ──", a.workload.name);
        print!("{}", report.summary());
        return write_json(&report);
    }

    let svc = Arc::new(start_service(&a.workload, a.cfg.clone())?);
    let queries = Arc::new(std::mem::take(&mut a.workload.queries));
    let listen = a.listen.clone().unwrap_or_else(|| "127.0.0.1:0".into());
    let server = bind_server(&a, Arc::clone(&svc), queries, &listen)?;
    let addr = server.local_addr();
    eprintln!(
        "benching {} arrivals over {:?} against self-hosted {addr}: {} clients, {} connections...",
        arrivals.len(),
        a.duration,
        bench_cfg.clients,
        bench_cfg.connections.max(bench_cfg.clients),
    );
    let report = cote_net::bench_net(addr, &arrivals, &bench_cfg);
    println!("── bench-net: {} → {addr} ──", a.workload.name);
    print!("{}", report.summary());
    write_json(&report)?;
    eprintln!("shutting down: {}", server.shutdown().summary());
    println!("── service ──");
    print!("{}", svc.report());
    println!("statement cache: {}", svc.metrics().cache_stats().render());
    check_gauge_drained(&svc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_and_positional_workload() {
        let a = parse_args(&args(&["linear-s", "--rps", "50", "--clients", "2"])).unwrap();
        assert_eq!(a.workload.name, "linear_s");
        assert!((a.rps - 50.0).abs() < 1e-9);
        assert_eq!(a.clients, 2);
        let a = parse_args(&args(&[
            "--workload",
            "star-p",
            "--workers",
            "3",
            "--cache",
            "128",
            "--deadline-ms",
            "10",
            "--duration",
            "0.5",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(a.cfg.workers, 3);
        assert_eq!(a.cfg.cache_capacity, 128);
        assert_eq!(a.cfg.deadline, Duration::from_millis(10));
        assert_eq!(a.duration, Duration::from_millis(500));
        assert_eq!(a.seed, 9);
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--rps", "50"])).is_err());
        assert!(parse_args(&args(&["linear-s", "--nope"])).is_err());
        assert!(parse_args(&args(&["linear-s", "--rps"])).is_err());
        // The removed thread-per-connection front-end's flags.
        for flag in [
            &["--event-loop"][..],
            &["--handlers", "2"],
            &["--pending-conns", "8"],
        ] {
            let mut v = vec!["linear-s"];
            v.extend_from_slice(flag);
            let err = parse_args(&args(&v)).err().expect("removed flag must fail");
            assert!(
                err.to_string()
                    .contains(&format!("unknown flag '{}'", flag[0])),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_net_flags() {
        let a = parse_args(&args(&[
            "linear-s",
            "--listen",
            "127.0.0.1:0",
            "--drain-ms",
            "750",
        ]))
        .unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.net.drain_deadline, Duration::from_millis(750));
        assert!(a.addr.is_none());
        let a = parse_args(&args(&["linear-s", "--addr", "127.0.0.1:7071"])).unwrap();
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:7071"));
        assert!(parse_args(&args(&["linear-s", "--listen"])).is_err());
        assert!(resolve_addr("127.0.0.1:7071").is_ok());
        assert!(resolve_addr("not an address").is_err());
    }

    #[test]
    fn bench_service_small_run_prints_report() {
        // Smoke the whole pipeline at a tiny scale.
        let a = parse_args(&args(&[
            "linear-s",
            "--rps",
            "200",
            "--duration",
            "0.3",
            "--clients",
            "2",
            "--workers",
            "2",
        ]))
        .unwrap();
        let svc = start_service(&a.workload, a.cfg).unwrap();
        let schedule =
            traffic::poisson_schedule(a.workload.queries.len(), a.rps, a.duration, a.seed);
        let arrivals: Vec<(Duration, usize)> =
            schedule.iter().map(|x| (x.at, x.query_index)).collect();
        let r = cote_service::replay(&svc, &a.workload.queries, &arrivals, a.clients);
        assert_eq!(r.submitted as usize, arrivals.len());
        assert_eq!(r.admitted + r.shed + r.failed, r.submitted);
        let report = svc.report();
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("advisor decisions"), "{report}");
        check_gauge_drained(&svc).unwrap();
    }

    #[test]
    fn parse_event_loop_and_bench_flags() {
        let a = parse_args(&args(&[
            "linear-s",
            "--loops",
            "3",
            "--max-conns",
            "99",
            "--connections",
            "500",
            "--json",
            "/tmp/bench.json",
        ]))
        .unwrap();
        assert_eq!(a.net.loops, 3);
        assert_eq!(a.net.max_conns, 99);
        assert_eq!(a.connections, Some(500));
        assert_eq!(a.json.as_deref(), Some("/tmp/bench.json"));
        let a = parse_args(&args(&["linear-s"])).unwrap();
        assert_eq!(a.net.loops, EventConfig::default().loops);
        assert_eq!(a.net.max_conns, EventConfig::default().max_conns);
        assert!(a.connections.is_none());
    }

    #[test]
    fn bench_net_self_hosted_small_run() {
        // End-to-end over loopback sockets at a tiny scale, with connection
        // churn (more connections than clients).
        bench_net(&args(&[
            "linear-s",
            "--rps",
            "150",
            "--duration",
            "0.3",
            "--clients",
            "2",
            "--workers",
            "2",
            "--connections",
            "8",
            "--drain-ms",
            "2000",
        ]))
        .unwrap();
    }
}
