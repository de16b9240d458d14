//! Open-loop socket load generator.
//!
//! Drives a running [`EventServer`](crate::EventServer) (in process, or
//! behind `cote serve --listen` / `cote gateway`) over real TCP connections
//! from an arrival schedule (typically
//! `cote_workloads::traffic::poisson_schedule`).
//! Each client thread owns one connection at a time and paces itself to the
//! schedule's arrival times — when the server lags, later arrivals are
//! still issued on time (up to per-connection serialization), so offered
//! load stays close to the schedule and overload shows up as `BUSY`
//! responses and rising latency rather than a silently throttled generator.
//!
//! Connection churn is decoupled from concurrency: `clients` bounds the
//! *concurrent* FD budget while `connections` sets how many distinct TCP
//! connections the run opens in total (clients reconnect on a fixed request
//! cadence to hit it). That is how a single machine exercises a 10k+
//! connection run without 10k simultaneous sockets on either side of
//! loopback — connection-setup load is real, FD pressure is bounded.
//!
//! Reporting separates outcomes: RTT percentiles cover `OK` responses only,
//! with the shed/BUSY rate reported beside them (a shed is an intentionally
//! cheap fast-path answer; folding it into the latency histogram would make
//! an overloaded server look *faster*).

use crate::client::{NetClient, NetClientConfig};
use crate::proto::WireResponse;
use cote_obs::{fmt_duration, HistogramSnapshot, LogHistogram};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-generator shape: concurrency, total-connection budget, transport.
#[derive(Debug, Clone)]
pub struct NetBenchConfig {
    /// Concurrent client threads (each holds at most one open socket, so
    /// this bounds the generator's FD budget).
    pub clients: usize,
    /// Distinct TCP connections to open across the whole run; clients
    /// reconnect on a fixed request cadence to reach it. Clamped below to
    /// `clients` (each client needs at least one).
    pub connections: usize,
    /// Per-connection transport settings.
    pub client: NetClientConfig,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        Self {
            clients: 8,
            connections: 8,
            client: NetClientConfig::default(),
        }
    }
}

/// What one network bench run observed (client side).
#[derive(Debug, Clone)]
pub struct NetBenchReport {
    /// Wall-clock of the whole replay.
    pub wall: Duration,
    /// Requests sent (= schedule length minus connect failures).
    pub submitted: u64,
    /// `OK` responses.
    pub ok: u64,
    /// `OK` responses served from the statement cache.
    pub cached: u64,
    /// `BUSY` responses (admission shed, connection shed, drain).
    pub busy: u64,
    /// `ERR` responses plus transport failures (deadline expiries counted
    /// separately in `timeouts`).
    pub errors: u64,
    /// Per-operation deadline expiries ([`NetError::Timeout`]): the server
    /// was too slow, not broken — reported apart from `errors` so a
    /// latency problem doesn't read as a correctness one.
    pub timeouts: u64,
    /// Requests issued at or behind schedule.
    pub late_starts: u64,
    /// Concurrent client threads (FD budget).
    pub clients: usize,
    /// Distinct TCP connections opened over the run.
    pub conns_opened: u64,
    /// Offered rate implied by the schedule.
    pub offered_rps: f64,
    /// Client-observed RTT of `OK` responses only (send → response
    /// parsed); `BUSY`/`ERR` outcomes are counted, not timed.
    pub latency: HistogramSnapshot,
}

impl NetBenchReport {
    /// Achieved response rate.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.submitted as f64 / self.wall.as_secs_f64()
        }
    }

    /// Fraction of submitted requests answered `BUSY` (connection sheds,
    /// admission sheds, drain refusals).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.busy as f64 / self.submitted as f64
        }
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let (p50, p95, p99) = self.latency.percentiles();
        format!(
            "clients             {:>10}\n\
             connections opened  {:>10}\n\
             offered rate        {:>10.1} req/s\n\
             achieved throughput {:>10.1} req/s\n\
             wall time           {:>10.1?}\n\
             submitted           {:>10}\n\
             ok                  {:>10}  ({} cached)\n\
             busy                {:>10}  (shed rate {:.2}%)\n\
             errors              {:>10}\n\
             timeouts            {:>10}\n\
             late starts         {:>10}\n\
             ok rtt       p50 {:>9}  p95 {:>9}  p99 {:>9}  mean {:>9}  (n={})\n",
            self.clients,
            self.conns_opened,
            self.offered_rps,
            self.throughput(),
            self.wall,
            self.submitted,
            self.ok,
            self.cached,
            self.busy,
            self.shed_rate() * 100.0,
            self.errors,
            self.timeouts,
            self.late_starts,
            fmt_duration(p50),
            fmt_duration(p95),
            fmt_duration(p99),
            fmt_duration(self.latency.mean()),
            self.latency.count(),
        )
    }

    /// Machine-readable one-object JSON (the committed `BENCH_*.json`
    /// baseline format).
    pub fn json(&self) -> String {
        let (p50, p95, p99) = self.latency.percentiles();
        format!(
            "{{\"clients\":{},\"connections_opened\":{},\"offered_rps\":{:.1},\
             \"throughput_rps\":{:.1},\"wall_seconds\":{:.3},\"submitted\":{},\
             \"ok\":{},\"cached\":{},\"busy\":{},\"shed_rate\":{:.4},\
             \"errors\":{},\"timeouts\":{},\"late_starts\":{},\"ok_rtt_p50_us\":{},\
             \"ok_rtt_p95_us\":{},\"ok_rtt_p99_us\":{},\"ok_rtt_mean_us\":{}}}",
            self.clients,
            self.conns_opened,
            self.offered_rps,
            self.throughput(),
            self.wall.as_secs_f64(),
            self.submitted,
            self.ok,
            self.cached,
            self.busy,
            self.shed_rate(),
            self.errors,
            self.timeouts,
            self.late_starts,
            p50.as_micros(),
            p95.as_micros(),
            p99.as_micros(),
            self.latency.mean().as_micros(),
        )
    }
}

/// Replay `arrivals` (`(offset, 1-based query index)` pairs, offsets
/// ascending) against the server at `addr` per `cfg`. A client whose
/// connection dies reconnects on the next arrival; persistent failure
/// counts as errors rather than aborting the run.
pub fn bench_net(
    addr: SocketAddr,
    arrivals: &[(Duration, usize)],
    cfg: &NetBenchConfig,
) -> NetBenchReport {
    let clients = cfg.clients.clamp(1, arrivals.len().max(1));
    let connections = cfg.connections.max(clients);
    // Reconnect cadence per client so the run opens ~`connections` sockets:
    // each client serves ~len/clients requests across connections/clients
    // connection lifetimes.
    let requests_per_conn = (arrivals.len() / connections).max(1);
    let client_cfg = &cfg.client;

    let ok = AtomicU64::new(0);
    let cached = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let late = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    let conns_opened = AtomicU64::new(0);
    let latency = LogHistogram::default();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (ok, cached, busy, errors, timeouts, late, submitted, conns_opened, latency) = (
                &ok,
                &cached,
                &busy,
                &errors,
                &timeouts,
                &late,
                &submitted,
                &conns_opened,
                &latency,
            );
            scope.spawn(move || {
                let mut conn: Option<NetClient> = None;
                let mut on_conn = 0usize;
                // Round-robin split keeps each client's sub-schedule sorted.
                for (at, index) in arrivals.iter().skip(c).step_by(clients) {
                    let now = start.elapsed();
                    if now < *at {
                        std::thread::sleep(*at - now);
                    } else {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    if on_conn >= requests_per_conn {
                        conn = None; // cadence reconnect: churn real setups
                    }
                    if conn.is_none() {
                        conn = NetClient::connect_with(addr, client_cfg).ok();
                        if conn.is_some() {
                            conns_opened.fetch_add(1, Ordering::Relaxed);
                            on_conn = 0;
                        }
                    }
                    let Some(client) = conn.as_mut() else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    submitted.fetch_add(1, Ordering::Relaxed);
                    on_conn += 1;
                    let t0 = Instant::now();
                    match client.estimate(*index, None) {
                        Ok(WireResponse::Ok(payload)) => {
                            latency.record(t0.elapsed());
                            ok.fetch_add(1, Ordering::Relaxed);
                            if payload.contains("\"cached\":true") {
                                cached.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(WireResponse::Busy(reason)) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                            // Connection-level sheds close the socket
                            // server-side; admission sheds keep it open.
                            if reason == "connections" || reason == "draining" {
                                conn = None;
                            }
                        }
                        Ok(WireResponse::Err(_)) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            if e.is_timeout() {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            } else {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            conn = None; // reconnect on the next arrival
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    let offered_rps = match arrivals.last() {
        Some((last, _)) if !last.is_zero() => arrivals.len() as f64 / last.as_secs_f64(),
        _ => 0.0,
    };
    NetBenchReport {
        wall,
        submitted: submitted.into_inner(),
        ok: ok.into_inner(),
        cached: cached.into_inner(),
        busy: busy.into_inner(),
        errors: errors.into_inner(),
        timeouts: timeouts.into_inner(),
        late_starts: late.into_inner(),
        clients,
        conns_opened: conns_opened.into_inner(),
        offered_rps,
        latency: latency.snapshot(),
    }
}
