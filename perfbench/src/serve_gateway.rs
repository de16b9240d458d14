//! `serve-gateway`: `ESTIMATE SQL` lines through an in-process event-loop
//! gateway over two event-loop backends (`CoteService` at its default
//! configuration), all on one served catalog.
//!
//! Open loop: Poisson arrivals on a fixed ladder of rates, sent by one
//! generator thread over two connections and read back by one receiver
//! thread, each request timed from its scheduled send. About nine in ten
//! arrivals re-send a hot statement with a fresh literal, so they hit the
//! statement cache; the rest are first-seen statements that miss, run the
//! estimator and insert.
//!
//! Every request carries its id as the literal of its last WHERE conjunct,
//! which the statement fingerprint ignores. In the traced run, timing
//! decorators around the gateway's and the backends' `WireHandler`s record
//! one span per request and layer under that id, so the layer self-times of
//! each request add up to its latency.
//!
//! Latency has no CPU-time form that would leave out time the host steals
//! from this machine's CPUs, so the end-to-end latencies come from the
//! middle rung's calm one-second windows (see [`CALM_STEAL`]).

use crate::clock::{host_steal_s, process_cpu_s};
use crate::report::{repeated_setup, say, Report};
use crate::stats::{self, Rung};
use crate::trace::Tracer;
use crate::{end_to_end, training_model, Args};
use cote::Cote;
use cote_catalog::Catalog;
use cote_common::Xoshiro256pp;
use cote_gateway::{Gateway, GatewayConfig};
use cote_net::{
    new_poller, EventConfig, EventServer, HttpRequest, Interest, NetClient, ServiceHandler,
    WireHandler, WireResponse,
};
use cote_optimizer::{Mode, OptimizerConfig};
use cote_service::{CoteService, ServiceConfig};
use cote_workloads::generators::{GraphShape, QuerySpec};
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rates of the ladder, in requests per second. The rates double
/// up to 4000; the top rung is four times that, far enough past the knee
/// of a 2-core host (8–10k rps) that it misses the limit on every run
/// rather than on some.
pub const RUNGS: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 16000.0];
/// Index of the rung whose latencies are the end-to-end ones.
pub const MIDDLE_RUNG: usize = 2;
/// Latency limit on a rung's p99 for `serve_max_rps`, in milliseconds:
/// well above the tail the host's scheduling hiccups cause at low rates
/// (up to ~50 ms), well below the seconds a growing backlog causes.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Hot statements; arrivals that are not first-seen pick one uniformly.
const HOT: usize = 64;
/// Distinct statements sent through the gateway during warm-up, so the
/// backends' statement caches start near capacity and first-seen
/// statements evict during the run.
const FILLER: usize = 4096;
/// Share of arrivals that re-send a hot statement.
const HOT_SHARE: f64 = 0.9;
/// Tables in the served catalog.
const CATALOG_TABLES: usize = 12;
/// How long a rung waits for its last responses before counting timeouts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Generator lag beyond which a send counts as a late start.
const LATE_START: Duration = Duration::from_millis(1);
/// Share of the CPUs the host may steal in a one-second window of the
/// middle rung for the window's latencies to count (calm windows steal
/// 0–3% here; contended ones 15–40%).
const CALM_STEAL: f64 = 0.05;

/// Seconds each rung runs out of `seconds`; the middle rung runs longest.
fn rung_seconds(seconds: f64) -> [f64; 5] {
    [0.1, 0.1, 0.6, 0.1, 0.1].map(|share| share * seconds)
}

/// A statement with its id literal cut out: `prefix <id> suffix`.
#[derive(Clone)]
struct Template {
    prefix: String,
    suffix: String,
}

impl Template {
    fn render(&self, id: u64) -> String {
        format!("ESTIMATE SQL {}{id}{}", self.prefix, self.suffix)
    }

    fn sql(&self, id: u64) -> String {
        format!("{}{id}{}", self.prefix, self.suffix)
    }
}

/// A connected join over `k` seeded tables of the served catalog, with
/// seeded shape, local predicates, GROUP BY and ORDER BY. The first table
/// carries the id predicate `c1 >= <id>`.
fn random_template(rng: &mut Xoshiro256pp, k: usize) -> Template {
    let mut pool: Vec<usize> = (0..CATALOG_TABLES).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let t = &pool[..k];
    let from: Vec<String> = t.iter().map(|i| format!("t{i}")).collect();
    let mut conds = Vec::new();
    let star = rng.chance(0.5);
    for j in 1..k {
        let (a, b) = if star { (t[0], t[j]) } else { (t[j - 1], t[j]) };
        conds.push(format!("t{a}.c0 = t{b}.c0"));
    }
    for &i in &t[1..] {
        match rng.below(6) {
            0 => conds.push(format!("t{i}.c1 = 7")),
            1 => conds.push(format!("t{i}.c1 <= 40")),
            2 => conds.push(format!("t{i}.c1 BETWEEN 3 AND 30")),
            _ => {}
        }
    }
    let mut prefix = format!(
        "SELECT * FROM {} WHERE {} AND t{}.c1 >= ",
        from.join(", "),
        conds.join(" AND "),
        t[0]
    );
    prefix.shrink_to_fit();
    let mut suffix = String::new();
    if rng.chance(0.3) {
        suffix.push_str(&format!(" GROUP BY t{}.c1", t[k - 1]));
    }
    if rng.chance(0.3) {
        suffix.push_str(&format!(" ORDER BY t{}.c1", t[0]));
    }
    Template { prefix, suffix }
}

/// Request id of a line, read from its id literal (0 when absent).
fn request_id(line: &str) -> u64 {
    let Some(at) = line.rfind(">= ") else {
        return 0;
    };
    line[at + 3..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .fold(0u64, |v, b| v * 10 + u64::from(b - b'0'))
}

/// One scheduled request of the ladder.
#[derive(Clone, Copy)]
struct Arrival {
    rung: usize,
    /// Offset from the rung's start.
    at: Duration,
    /// Hot template index, or `HOT + n` for the n-th first-seen statement.
    template: usize,
}

fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Xoshiro256pp::new(seed ^ 0x5E_87E);
    let mut cold = 0;
    let mut out = Vec::new();
    for (rung, (&rps, secs)) in RUNGS.iter().zip(rung_seconds(seconds)).enumerate() {
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / rps);
            if t >= secs {
                break;
            }
            let template = if rng.chance(HOT_SHARE) {
                rng.below(HOT as u64) as usize
            } else {
                cold += 1;
                HOT + cold - 1
            };
            out.push(Arrival {
                rung,
                at: Duration::from_secs_f64(t),
                template,
            });
        }
    }
    out
}

/// Times one `WireHandler` layer: a span per request under its id.
struct Timed {
    inner: Arc<dyn WireHandler>,
    name: &'static str,
    parent: &'static str,
    tracer: Arc<Tracer>,
}

impl WireHandler for Timed {
    fn handle_wire(&self, line: &str) -> WireResponse {
        let t0 = Instant::now();
        let resp = self.inner.handle_wire(line);
        let t1 = Instant::now();
        self.tracer
            .record(self.name, request_id(line), self.parent, t0, t1);
        resp
    }

    fn handle_http(&self, req: &HttpRequest) -> String {
        self.inner.handle_http(req)
    }
}

fn timed(
    inner: Arc<dyn WireHandler>,
    name: &'static str,
    parent: &'static str,
    tracer: &Option<Arc<Tracer>>,
) -> Arc<dyn WireHandler> {
    match tracer {
        Some(t) => Arc::new(Timed {
            inner,
            name,
            parent,
            tracer: Arc::clone(t),
        }),
        None => inner,
    }
}

/// The serving stack: two backends and a gateway, all event loops. Fields
/// drop in order, so the front shuts down first and the services last.
struct Stack {
    front: EventServer,
    gateway: Gateway,
    backends: Vec<EventServer>,
    services: Vec<Arc<CoteService>>,
}

impl Stack {
    fn start(catalog: &Catalog, cote: &Cote, tracer: &Option<Arc<Tracer>>) -> Stack {
        let mut services = Vec::new();
        let mut backends = Vec::new();
        for _ in 0..2 {
            let svc = Arc::new(CoteService::start(
                catalog.clone(),
                cote.clone(),
                ServiceConfig::default(),
            ));
            let handler = Arc::new(ServiceHandler::new(Arc::clone(&svc), Arc::new(Vec::new())));
            let server = EventServer::start_with(
                timed(handler, "backend.handle", "gateway.handle", tracer),
                svc.metrics().registry(),
                TcpListener::bind("127.0.0.1:0").expect("bind backend"),
                EventConfig::default(),
            )
            .expect("start backend");
            services.push(svc);
            backends.push(server);
        }
        let gateway = Gateway::start(GatewayConfig {
            backends: backends.iter().map(EventServer::local_addr).collect(),
            ..GatewayConfig::default()
        });
        let front = EventServer::start_with(
            timed(gateway.handler(), "gateway.handle", "net.client", tracer),
            gateway.registry(),
            TcpListener::bind("127.0.0.1:0").expect("bind gateway"),
            EventConfig::default(),
        )
        .expect("start gateway");
        Stack {
            front,
            gateway,
            backends,
            services,
        }
    }
}

/// Inputs shared by the untraced and traced ladders.
struct Setup {
    catalog: Catalog,
    cote: Cote,
    templates: Vec<Template>,
    arrivals: Vec<Arrival>,
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let spec = QuerySpec {
        shape: GraphShape::Chain,
        tables: CATALOG_TABLES,
        order_by: false,
        group_by: false,
        partitioned: false,
        indexes: true,
        seed,
    };
    let (catalog, _) = spec.build();
    let arrivals = schedule(seed, seconds);
    let cold = arrivals.iter().filter(|a| a.template >= HOT).count();
    // Hot and first-seen statements, all with distinct fingerprints.
    let mut rng = Xoshiro256pp::new(seed ^ 0x7E_4A7E);
    let mut seen = HashSet::new();
    let mut templates = Vec::with_capacity(HOT + cold + FILLER);
    while templates.len() < HOT + cold + FILLER {
        // Table counts cycle through 3..=7 so every seed serves the same mix.
        let t = random_template(&mut rng, 3 + templates.len() % 5);
        let fp = cote_sql::compile(&t.sql(0), &catalog, "setup")
            .expect("generated statement compiles")
            .fingerprint;
        if seen.insert(fp) {
            templates.push(t);
        }
    }
    let cote = Cote::new(
        OptimizerConfig::high(Mode::Serial),
        training_model(Mode::Serial),
    );
    Setup {
        catalog,
        cote,
        templates,
        arrivals,
    }
}

/// Warm the stack: every hot statement to each backend directly, then the
/// filler statements through the gateway, in batches on two connections.
fn warm(stack: &Stack, s: &Setup) -> Result<(), String> {
    let net = |e: cote_net::NetError| e.to_string();
    let expect_ok = |r: WireResponse| match r {
        WireResponse::Ok(_) => Ok(()),
        other => Err(format!("warm-up answered {other:?}")),
    };
    for b in &stack.backends {
        let mut c = NetClient::connect(b.local_addr()).map_err(net)?;
        for t in &s.templates[..HOT] {
            c.send_raw(&t.render(0)).map_err(net)?;
            expect_ok(c.recv().map_err(net)?)?;
        }
    }
    // The gateway's first probe sweep must have marked both backends up.
    let t0 = Instant::now();
    while stack.gateway.backends_up() < 2 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let filler = &s.templates[s.templates.len() - FILLER..];
    std::thread::scope(|scope| {
        let workers: Vec<_> = filler
            .chunks(FILLER / 2)
            .map(|part| {
                scope.spawn(move || -> Result<(), String> {
                    let mut c = NetClient::connect(stack.front.local_addr()).map_err(net)?;
                    for batch in part.chunks(64) {
                        for t in batch {
                            c.send_raw(&t.render(0)).map_err(net)?;
                        }
                        for _ in batch {
                            expect_ok(c.recv().map_err(net)?)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })
}

/// When one request was answered (nanoseconds from its rung's start) and
/// with what.
#[derive(Clone, Default)]
struct Outcome {
    done_ns: Option<u64>,
    response: String,
}

/// Responses still owed on one connection, oldest first.
type Pending = Mutex<VecDeque<usize>>;

/// Read responses from both connections, matching each to the oldest
/// request still owed on its connection, until `stop` is set.
fn receive(
    conns: [TcpStream; 2],
    pending: &[Pending; 2],
    outcomes: &Mutex<Vec<Outcome>>,
    epochs: &Mutex<Vec<Instant>>,
    arrivals: &[Arrival],
    done: &AtomicUsize,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut poller = new_poller()?;
    for (i, c) in conns.iter().enumerate() {
        poller.register(c.as_raw_fd(), i as u64, Interest::Read)?;
    }
    let mut bufs = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut events = Vec::new();
    let mut conns = conns;
    while !stop.load(Ordering::Acquire) {
        events.clear();
        poller.poll(&mut events, Some(Duration::from_millis(20)))?;
        for ev in &events {
            let i = ev.token as usize;
            // Readiness reported: one read on the blocking socket returns
            // without waiting.
            let n = conns[i].read(&mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            let now = Instant::now();
            bufs[i].extend_from_slice(&chunk[..n]);
            while let Some(end) = bufs[i].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[i].drain(..=end).collect();
                let Some(req) = pending[i].lock().expect("pending poisoned").pop_front() else {
                    continue;
                };
                let epoch = epochs.lock().expect("epochs poisoned")[arrivals[req].rung];
                let mut out = outcomes.lock().expect("outcomes poisoned");
                out[req].done_ns = Some(now.saturating_duration_since(epoch).as_nanos() as u64);
                out[req].response = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                done.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
    Ok(())
}

fn write_line(conn: &mut TcpStream, line: &str) -> std::io::Result<()> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")
}

/// One ladder: every arrival sent on schedule, rung after rung, each rung
/// drained before the next starts.
struct Ladder {
    outcomes: Vec<Outcome>,
    /// Generator lag per request (actual send − scheduled send).
    lag_ns: Vec<u64>,
    /// Client-side wall clock of each request's send, for span matching.
    sent_at: Vec<Instant>,
    done_at: Vec<Option<Instant>>,
    /// Process CPU seconds each rung used, drain included.
    cpu_s: Vec<f64>,
    /// Host steal (CPU seconds) in each one-second window of the middle
    /// rung's sends.
    middle_steal_s: Vec<f64>,
}

fn run_ladder(stack: &Stack, s: &Setup) -> Result<Ladder, String> {
    let io = |e: std::io::Error| e.to_string();
    let addr = stack.front.local_addr();
    let mut senders = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..2 {
        let c = TcpStream::connect(addr).map_err(io)?;
        c.set_nodelay(true).map_err(io)?;
        readers.push(c.try_clone().map_err(io)?);
        senders.push(c);
    }
    let readers: [TcpStream; 2] = readers.try_into().expect("two connections");
    let n = s.arrivals.len();
    let pending: [Pending; 2] = Default::default();
    let outcomes = Mutex::new(vec![Outcome::default(); n]);
    let epochs = Mutex::new(vec![Instant::now(); RUNGS.len()]);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut lag_ns = vec![0u64; n];
    let mut sent_at = vec![Instant::now(); n];
    let mut cpu_s = Vec::with_capacity(RUNGS.len());
    let mut middle_steal_s = Vec::new();
    let result = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            receive(
                readers,
                &pending,
                &outcomes,
                &epochs,
                &s.arrivals,
                &done,
                &stop,
            )
        });
        let mut send_all = || -> Result<(), String> {
            let mut sent = 0usize;
            for rung in 0..RUNGS.len() {
                let cpu0 = process_cpu_s();
                let mut steal_mark = host_steal_s();
                let epoch = Instant::now();
                epochs.lock().expect("epochs poisoned")[rung] = epoch;
                for (i, a) in s
                    .arrivals
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.rung == rung)
                {
                    // Close every middle-rung window this send moves past.
                    while rung == MIDDLE_RUNG && (middle_steal_s.len() as u64) < a.at.as_secs() {
                        let now = host_steal_s();
                        middle_steal_s.push(now - steal_mark);
                        steal_mark = now;
                    }
                    let due = epoch + a.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let t = Instant::now();
                    lag_ns[i] = t.saturating_duration_since(due).as_nanos() as u64;
                    sent_at[i] = t;
                    // The id literal is the request's index plus one; hot
                    // statements thus get a fresh literal on every send.
                    let line = s.templates[a.template].render(i as u64 + 1);
                    let conn = i % 2;
                    pending[conn].lock().expect("pending poisoned").push_back(i);
                    write_line(&mut senders[conn], &line).map_err(io)?;
                    sent += 1;
                }
                if rung == MIDDLE_RUNG {
                    middle_steal_s.push(host_steal_s() - steal_mark);
                }
                let t0 = Instant::now();
                while done.load(Ordering::Acquire) < sent && t0.elapsed() < DRAIN_TIMEOUT {
                    std::thread::sleep(Duration::from_micros(200));
                }
                cpu_s.push(process_cpu_s() - cpu0);
            }
            Ok(())
        };
        let sent = send_all();
        stop.store(true, Ordering::Release);
        let received = receiver.join().expect("receiver thread panicked");
        sent.and(received.map_err(io))
    });
    result?;
    let outcomes = outcomes.into_inner().expect("outcomes poisoned");
    let epochs = epochs.into_inner().expect("epochs poisoned");
    let done_at = outcomes
        .iter()
        .zip(&s.arrivals)
        .map(|(o, a)| o.done_ns.map(|d| epochs[a.rung] + Duration::from_nanos(d)))
        .collect();
    Ok(Ladder {
        outcomes,
        lag_ns,
        sent_at,
        done_at,
        cpu_s,
        middle_steal_s,
    })
}

/// Expected `OK` payload pieces of one template: its statement name and
/// its per-level estimates as the backend renders them.
struct Expected {
    name: String,
    levels: String,
}

/// What the backend must answer for `t`, computed in-process: the SQL
/// fingerprint and the per-level counts at the advisor levels, priced with
/// the model the backend prices with.
fn expected(s: &Setup, model: &cote::TimeModel, t: &Template) -> Result<Expected, String> {
    let compiled = cote_sql::compile(&t.sql(0), &s.catalog, "check").map_err(|e| e.to_string())?;
    let cote = s.cote.clone().with_options(cote::EstimateOptions {
        levels: ServiceConfig::default().advisor_levels,
        ..Default::default()
    });
    let mut levels = cote
        .estimate_level_counts(&s.catalog, &compiled.query)
        .map_err(|e| e.to_string())?;
    levels.sort_by_key(|&(limit, _)| std::cmp::Reverse(limit));
    let rendered: Vec<String> = levels
        .iter()
        .map(|(limit, c)| format!("[{limit},{}]", model.predict_seconds(c)))
        .collect();
    Ok(Expected {
        name: format!("\"query\":\"sql-{:016x}\"", compiled.fingerprint),
        levels: format!("\"levels\":[{}]", rendered.join(",")),
    })
}

/// Per-request verdicts: true when answered `OK` with the expected payload.
/// Mismatched payloads count as failed checks; other answers and timeouts
/// as failed operations.
fn verify(s: &Setup, model: &cote::TimeModel, ladder: &Ladder, report: &mut Report) -> Vec<bool> {
    let mut cache: Vec<Option<Result<Expected, String>>> =
        (0..s.templates.len()).map(|_| None).collect();
    let mut ok = Vec::with_capacity(ladder.outcomes.len());
    for (o, a) in ladder.outcomes.iter().zip(&s.arrivals) {
        report.attempted += 1;
        let Some(json) = o.response.strip_prefix("OK ") else {
            if o.done_ns.is_none() {
                eprintln!("serve-gateway: request timed out");
            } else if o.response.starts_with("ERR") {
                eprintln!("serve-gateway: {}", o.response);
            }
            report.op_failures += 1;
            ok.push(false);
            continue;
        };
        let want =
            cache[a.template].get_or_insert_with(|| expected(s, model, &s.templates[a.template]));
        let good = match want {
            Ok(w) => json.contains(&w.name) && json.contains(&w.levels),
            Err(_) => false,
        };
        if !good {
            if report.check_failures < 5 {
                let want = want.as_ref().map(|w| format!("{} {}", w.name, w.levels));
                eprintln!("serve-gateway check: got {json}, want {want:?}");
            }
            report.check_failures += 1;
        }
        ok.push(good);
    }
    ok
}

/// Latency of each request from its scheduled send, in ms (`None` when it
/// was never answered).
fn latency_ms(ladder: &Ladder, arrivals: &[Arrival]) -> Vec<Option<f64>> {
    ladder
        .outcomes
        .iter()
        .zip(arrivals)
        .map(|(o, a)| o.done_ns.map(|d| (d as f64 - a.at.as_nanos() as f64) / 1e6))
        .collect()
}

/// Latencies (ms) of the middle rung's answered requests in one-second
/// windows of their scheduled sends, keeping the calm windows: those in
/// which the host stole under [`CALM_STEAL`] of the CPUs. When fewer than a
/// third are calm, the third with the least steal stands in.
fn middle_windows(s: &Setup, ladder: &Ladder) -> Vec<Vec<f64>> {
    let secs = rung_seconds_of(MIDDLE_RUNG, &s.arrivals);
    let mut windows = vec![Vec::new(); secs];
    for (l, a) in latency_ms(ladder, &s.arrivals).into_iter().zip(&s.arrivals) {
        if let (Some(l), true) = (l, a.rung == MIDDLE_RUNG) {
            windows[(a.at.as_secs() as usize).min(secs - 1)].push(l);
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut by_steal: Vec<(f64, Vec<f64>)> = ladder
        .middle_steal_s
        .iter()
        .map(|st| st / cpus)
        .zip(windows)
        .collect();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    let calm = by_steal
        .iter()
        .filter(|(share, _)| *share < CALM_STEAL)
        .count();
    let keep = calm.max(secs.div_ceil(3));
    println!(
        "  serving latency over {keep} of {secs} one-second windows ({calm} with host steal < {:.0}%)",
        100.0 * CALM_STEAL
    );
    by_steal.into_iter().take(keep).map(|(_, w)| w).collect()
}

/// Whole seconds spanned by a rung's scheduled sends (at least one).
fn rung_seconds_of(rung: usize, arrivals: &[Arrival]) -> usize {
    let last = arrivals
        .iter()
        .filter(|a| a.rung == rung)
        .map(|a| a.at)
        .max();
    last.map_or(1, |d| d.as_secs() as usize + 1)
}

/// Per rung: its verdict inputs, achieved rate, requests per CPU-second and
/// sorted latencies (ms).
fn rungs(s: &Setup, ladder: &Ladder, ok: &[bool], seconds: f64) -> Vec<(Rung, f64, f64, Vec<f64>)> {
    let lat = latency_ms(ladder, &s.arrivals);
    let secs = rung_seconds(seconds);
    (0..RUNGS.len())
        .map(|r| {
            let idx: Vec<usize> = (0..s.arrivals.len())
                .filter(|&i| s.arrivals[i].rung == r)
                .collect();
            let mut ms: Vec<f64> = idx.iter().filter_map(|&i| lat[i]).collect();
            ms.sort_by(f64::total_cmp);
            let failed = idx.iter().filter(|&&i| !ok[i]).count() as u64;
            let sched: Vec<f64> = idx
                .iter()
                .map(|&i| s.arrivals[i].at.as_secs_f64())
                .collect();
            let done: Vec<f64> = idx
                .iter()
                .map(|&i| {
                    ladder.outcomes[i]
                        .done_ns
                        .map_or(f64::INFINITY, |d| d as f64 / 1e9)
                })
                .collect();
            let rung = Rung {
                rps: RUNGS[r],
                p99_ms: stats::tail(&ms, 0.99).map_or(f64::INFINITY, |t| t.0),
                failed,
                backlog_growing: stats::backlog_growing(&sched, &done, secs[r]),
            };
            let achieved = (idx.len() as u64 - failed) as f64 / secs[r];
            let per_cpu_s = (idx.len() as u64 - failed) as f64 / ladder.cpu_s[r];
            (rung, achieved, per_cpu_s, ms)
        })
        .collect()
}

/// Counters and histogram buckets of one service, for differencing.
struct SvcSnap {
    hits: u64,
    misses: u64,
    evictions: u64,
    shed: u64,
    degraded: u64,
    queue_wait: Vec<u64>,
    estimation: Vec<u64>,
    submit: Vec<u64>,
}

fn svc_snap(svc: &CoteService) -> SvcSnap {
    let m = svc.metrics();
    SvcSnap {
        hits: m.cache_hits.get(),
        misses: m.cache_misses.get(),
        evictions: m.cache_evictions.get(),
        shed: m.shed_total(),
        degraded: m.degraded.get(),
        queue_wait: m.queue_wait.snapshot().buckets().to_vec(),
        estimation: m.estimation_latency.snapshot().buckets().to_vec(),
        submit: m.e2e_latency.snapshot().buckets().to_vec(),
    }
}

/// Quantile of a log2-bucket histogram difference, in microseconds, by the
/// registry's rule: bucket `i` holds `(2^(i-1), 2^i]` ns and a rank inside
/// it is placed by linear interpolation.
fn bucket_quantile_us(buckets: &[u64], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 && seen + c >= rank {
            let hi = (1u128 << i) as f64;
            let lo = if i == 0 { 0.0 } else { hi / 2.0 };
            let k = (rank - seen) as f64;
            return (lo + (hi - lo) * (2.0 * k - 1.0) / (2.0 * c as f64)) / 1e3;
        }
        seen += c;
    }
    0.0
}

fn bucket_diff(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// One ladder's responses plus what the services and the gateway counted
/// while it ran.
struct Served {
    ladder: Ladder,
    model: cote::TimeModel,
    svc: Vec<(SvcSnap, SvcSnap)>,
    gw_retries: u64,
    gw_breaker_opens: u64,
}

/// Start and warm a stack (the part of set-up that serves).
fn start(s: &Setup, tracer: &Option<Arc<Tracer>>) -> Result<Stack, String> {
    let stack = Stack::start(&s.catalog, &s.cote, tracer);
    warm(&stack, s)?;
    Ok(stack)
}

fn serve(stack: &Stack, s: &Setup) -> Result<Served, String> {
    let model = stack.services[0].recalibrator().model();
    let gw = stack.gateway.metrics();
    let retries = || gw.failovers.get() + gw.stale_retries.get();
    let (r0, b0) = (retries(), gw.breaker_opened.get());
    let before: Vec<SvcSnap> = stack.services.iter().map(|v| svc_snap(v)).collect();
    let ladder = run_ladder(stack, s)?;
    let after = stack.services.iter().map(|v| svc_snap(v));
    Ok(Served {
        ladder,
        model,
        svc: before.into_iter().zip(after).collect(),
        gw_retries: retries() - r0,
        gw_breaker_opens: gw.breaker_opened.get() - b0,
    })
}

fn fail(report: &mut Report, what: &str, e: String) {
    eprintln!("serve-gateway: {what}: {e}");
    report.attempted += 1;
    report.op_failures += 1;
}

/// Run the workload and fill `report`.
pub fn run(args: &Args, report: &mut Report) {
    let (set, setup_s) = repeated_setup(|| {
        let s = setup(args.seed, args.seconds);
        start(&s, &None).map(|stack| (s, stack))
    });
    let (s, stack) = match set {
        Ok(v) => v,
        Err(e) => return fail(report, "set-up", e),
    };
    let served = serve(&stack, &s);
    drop(stack);
    let rss = crate::report::peak_rss_mb();
    let served = match served {
        Ok(v) => v,
        Err(e) => return fail(report, "ladder", e),
    };
    let mut ignored = Report::default();
    let sink = if args.trace {
        &mut ignored
    } else {
        &mut *report
    };
    let ok = verify(&s, &served.model, &served.ladder, sink);
    let rungs = rungs(&s, &served.ladder, &ok, args.seconds);
    println!(
        "serve-gateway: {} requests, {} first-seen statements, latency limit p99 <= {LATENCY_LIMIT_MS} ms",
        s.arrivals.len(),
        s.templates.len() - HOT - FILLER
    );
    for (r, achieved, per_cpu, ms) in &rungs {
        println!(
            "  rung {:>6} rps: n={:>6} achieved {:>9.1} rps ({:>7.0}/cpu-s) p50 {:>8.3} ms p99 {:>9.3} ms failed {} backlog {}",
            r.rps,
            ms.len(),
            achieved,
            per_cpu,
            stats::median(ms).unwrap_or(f64::NAN),
            r.p99_ms,
            r.failed,
            if r.backlog_growing { "growing" } else { "steady" }
        );
    }
    let ladder: Vec<Rung> = rungs.iter().map(|r| r.0).collect();
    let max_rps = stats::max_passing_rung(&ladder, LATENCY_LIMIT_MS).map_or(0.0, |i| rungs[i].1);
    let middle = &rungs[MIDDLE_RUNG].3;
    say(
        "serve_p50_ms",
        format!("{:.4}", stats::median(middle).unwrap_or(f64::NAN)),
        "ms",
    );
    say(
        "serve_p99_ms",
        format!("{:.4}", ladder[MIDDLE_RUNG].p99_ms),
        "ms",
    );
    say("serve_max_rps", format!("{max_rps:.1}"), "1/s");
    let failed = ok.iter().filter(|&&g| !g).count();
    say(
        "error_pct",
        format!("{:.4}", 100.0 * failed as f64 / ok.len().max(1) as f64),
        "%",
    );

    if !args.trace {
        let per_cpu = rungs[MIDDLE_RUNG].2;
        say("serve_req_per_cpu_s", format!("{per_cpu:.1}"), "1/s");
        end_to_end(
            report,
            setup_s,
            rss,
            per_cpu,
            &middle_windows(&s, &served.ladder),
        );
        return;
    }
    let tracer = Arc::new(Tracer::new());
    let traced = start(&s, &Some(Arc::clone(&tracer))).and_then(|stack| serve(&stack, &s));
    let traced = match traced {
        Ok(v) => v,
        Err(e) => return fail(report, "traced ladder", e),
    };
    verify(&s, &traced.model, &traced.ladder, report);
    let calm_p50 = |ladder: &Ladder| {
        let mut p50s: Vec<f64> = middle_windows(&s, ladder)
            .into_iter()
            .filter_map(|mut w| {
                w.sort_by(f64::total_cmp);
                stats::median(&w)
            })
            .collect();
        p50s.sort_by(f64::total_cmp);
        stats::median(&p50s).unwrap_or(f64::NAN)
    };
    let overhead = 100.0 * (calm_p50(&traced.ladder) / calm_p50(&served.ladder) - 1.0);
    per_layer(report, &s, &traced, &tracer, overhead);
    crate::write_trace(args, &tracer);
}

fn per_layer(report: &mut Report, s: &Setup, t: &Served, tracer: &Tracer, overhead: f64) {
    let n = s.arrivals.len();
    let mut gw: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut backend: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for sp in tracer.spans() {
        let Some(i) = (sp.id as usize).checked_sub(1).filter(|&i| i < n) else {
            continue;
        };
        match sp.name {
            "gateway.handle" => gw[i] = Some((sp.start_ns, sp.end_ns)),
            "backend.handle" => backend[i].push((sp.start_ns, sp.end_ns)),
            _ => {}
        }
    }
    let (mut gw_us, mut be, mut front, mut lags) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut late = 0u64;
    for i in 0..n {
        let lag = t.ladder.lag_ns[i];
        lags.push(lag as f64 / 1e3);
        if Duration::from_nanos(lag) > LATE_START {
            late += 1;
        }
        let (Some(done), Some((g0, g1))) = (t.ladder.done_at[i], gw[i]) else {
            mismatches += 1;
            continue;
        };
        let sent = tracer.ns(t.ladder.sent_at[i]);
        let done = tracer.ns(done);
        let nested = sent <= g0
            && g1 <= done
            && !backend[i].is_empty()
            && backend[i].iter().all(|&(b0, b1)| g0 <= b0 && b1 <= g1);
        if !nested {
            mismatches += 1;
            continue;
        }
        let b: u64 = backend[i].iter().map(|(b0, b1)| b1 - b0).sum();
        let front_self = (done - sent) - (g1 - g0);
        let gw_self = (g1 - g0) - b;
        // Each request's layer self-times must add up to its latency from
        // the scheduled send.
        let scheduled_total = lag + (done - sent);
        if lag + front_self + gw_self + b != scheduled_total {
            mismatches += 1;
        }
        if s.arrivals[i].rung == MIDDLE_RUNG {
            front.push(front_self as f64 / 1e3);
            gw_us.push(gw_self as f64 / 1e3);
            be.push(b as f64 / 1e3);
        }
    }
    // The SQL front-end on the served statements, timed in-process.
    let mut sql_us = Vec::new();
    for (i, a) in s
        .arrivals
        .iter()
        .enumerate()
        .filter(|(_, a)| a.rung == MIDDLE_RUNG)
    {
        let sql = s.templates[a.template].sql(i as u64 + 1);
        let t0 = Instant::now();
        let _ = std::hint::black_box(cote_sql::compile(&sql, &s.catalog, "sql"));
        sql_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let (mut hits, mut misses, mut ev, mut shed, mut deg) = (0, 0, 0, 0, 0);
    let (mut qw, mut est, mut sub) = (vec![0u64; 64], vec![0u64; 64], vec![0u64; 64]);
    for (b, a) in &t.svc {
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
        ev += a.evictions - b.evictions;
        shed += a.shed - b.shed;
        deg += a.degraded - b.degraded;
        for (acc, (x, y)) in [
            (&mut qw, (&a.queue_wait, &b.queue_wait)),
            (&mut est, (&a.estimation, &b.estimation)),
            (&mut sub, (&a.submit, &b.submit)),
        ] {
            let d = bucket_diff(x, y);
            acc.resize(d.len(), 0);
            for (s, v) in acc.iter_mut().zip(d) {
                *s += v;
            }
        }
    }
    let pct = |v: &mut Vec<f64>, q: f64| {
        v.sort_by(f64::total_cmp);
        if q == 0.5 {
            stats::median(v).unwrap_or(0.0)
        } else {
            stats::tail(v, q).map_or(0.0, |t| t.0)
        }
    };
    report.push("sql.compile_us.p50", pct(&mut sql_us, 0.5), "us");
    report.push("sql.compile_us.p99", pct(&mut sql_us, 0.99), "us");
    report.push(
        "service.hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
        "%",
    );
    report.push(
        "service.queue_wait_p99_us",
        bucket_quantile_us(&qw, 0.99),
        "us",
    );
    report.push(
        "service.estimation_p99_us",
        bucket_quantile_us(&est, 0.99),
        "us",
    );
    report.push(
        "service.submit_p99_us",
        bucket_quantile_us(&sub, 0.99),
        "us",
    );
    report.push("service.shed", shed as f64, "count");
    report.push("service.degraded", deg as f64, "count");
    report.push("service.evictions", ev as f64, "count");
    report.push("gateway.self_us.p50", pct(&mut gw_us, 0.5), "us");
    report.push("gateway.self_us.p99", pct(&mut gw_us, 0.99), "us");
    report.push("gateway.retries", t.gw_retries as f64, "count");
    report.push("gateway.breaker_opens", t.gw_breaker_opens as f64, "count");
    report.push("backend.handle_us.p50", pct(&mut be, 0.5), "us");
    report.push("backend.handle_us.p99", pct(&mut be, 0.99), "us");
    report.push("net.front_self_us.p50", pct(&mut front, 0.5), "us");
    report.push("net.front_self_us.p99", pct(&mut front, 0.99), "us");
    lags.sort_by(f64::total_cmp);
    report.push(
        "net.gen_lag_us.max",
        lags.last().copied().unwrap_or(0.0),
        "us",
    );
    report.push(
        "net.gen_lag_us.p99",
        stats::tail(&lags, 0.99).map_or(0.0, |t| t.0),
        "us",
    );
    report.push("net.late_starts", late as f64, "count");
    report.push("net.layer_sum_mismatches", mismatches as f64, "count");
    report.push("obs.trace_overhead_pct", overhead, "%");
}
