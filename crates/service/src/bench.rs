//! Closed-loop benchmark driver for [`CoteService`].
//!
//! Replays a pre-computed arrival schedule (e.g. a Poisson schedule from
//! `cote_workloads::traffic`) against a running service from `clients`
//! threads. Each client paces itself to the schedule's arrival times but —
//! being closed-loop — never holds more than one request open: when the
//! service lags, the client falls behind the schedule instead of piling up
//! unbounded outstanding work, which is what a real connection pool does.

use crate::request::Decision;
use crate::service::CoteService;
use cote_query::Query;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one replay run produced, on top of the service's own metrics.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Wall-clock time from first to last submission completing.
    pub wall: Duration,
    /// Requests submitted (= schedule length).
    pub submitted: u64,
    /// Responses carrying advice (fresh or cached).
    pub admitted: u64,
    /// Admitted responses served from the statement cache.
    pub cached: u64,
    /// Requests refused by admission control or deadline shedding.
    pub shed: u64,
    /// Requests that failed with an estimator error.
    pub failed: u64,
    /// Submissions that started at or behind their scheduled arrival.
    pub late_starts: u64,
    /// Client threads used.
    pub clients: usize,
    /// Offered rate implied by the schedule, requests/second.
    pub offered_rps: f64,
}

impl BenchReport {
    /// Achieved end-to-end throughput, responses/second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.submitted as f64 / self.wall.as_secs_f64()
        }
    }

    /// Human-readable summary of the run itself (pair with
    /// [`CoteService::report`] for cache/latency/advisor detail).
    pub fn summary(&self) -> String {
        format!(
            "clients             {:>10}\n\
             offered rate        {:>10.1} req/s\n\
             achieved throughput {:>10.1} req/s\n\
             wall time           {:>10.1?}\n\
             submitted           {:>10}\n\
             admitted            {:>10}  ({} cached)\n\
             shed                {:>10}\n\
             failed              {:>10}\n\
             late starts         {:>10}\n",
            self.clients,
            self.offered_rps,
            self.throughput(),
            self.wall,
            self.submitted,
            self.admitted,
            self.cached,
            self.shed,
            self.failed,
            self.late_starts,
        )
    }
}

/// Replay `arrivals` (`(arrival_offset, query_index)` pairs, offsets
/// ascending) against `service` from `clients` threads. Query classes are
/// derived from each query's table count, mirroring how a workload manager
/// would classify statements.
pub fn replay(
    service: &CoteService,
    queries: &[Query],
    arrivals: &[(Duration, usize)],
    clients: usize,
) -> BenchReport {
    let clients = clients.clamp(1, arrivals.len().max(1));
    let admitted = AtomicU64::new(0);
    let cached = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let late = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (admitted, cached, shed, failed, late) =
                (&admitted, &cached, &shed, &failed, &late);
            scope.spawn(move || {
                // Round-robin split keeps each client's sub-schedule sorted.
                for (at, qi) in arrivals.iter().skip(c).step_by(clients) {
                    let now = start.elapsed();
                    if now < *at {
                        std::thread::sleep(*at - now);
                    } else {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    let query = &queries[qi % queries.len().max(1)];
                    let class = crate::request::QueryClass::from_table_count(query.total_tables());
                    let resp = service.submit(query, class);
                    match resp.decision {
                        Decision::Admitted {
                            cached: was_cached, ..
                        } => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            if was_cached {
                                cached.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Decision::Shed { .. } => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Decision::Failed { .. } => {
                            failed.fetch_add(1, Ordering::Relaxed);
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
    BenchReport {
        wall,
        submitted: arrivals.len() as u64,
        admitted: admitted.into_inner(),
        cached: cached.into_inner(),
        shed: shed.into_inner(),
        failed: failed.into_inner(),
        late_starts: late.into_inner(),
        clients,
        offered_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use cote::{Cote, TimeModel};
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::{Mode, OptimizerConfig};
    use cote_query::QueryBlockBuilder;

    #[test]
    fn replay_accounts_for_every_arrival() {
        let mut b = Catalog::builder();
        for i in 0..4 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                500.0,
                vec![ColumnDef::uniform("c0", 500.0, 500.0)],
            ));
        }
        let cat = b.build().unwrap();
        let queries: Vec<Query> = (2..=4)
            .map(|n| {
                let mut qb = QueryBlockBuilder::new();
                for i in 0..n {
                    qb.add_table(TableId(i));
                }
                for i in 0..n - 1 {
                    qb.join(
                        ColRef::new(TableRef(i as u8), 0),
                        ColRef::new(TableRef(i as u8 + 1), 0),
                    );
                }
                Query::new(format!("q{n}"), qb.build(&cat).unwrap())
            })
            .collect();
        let cote = Cote::new(
            OptimizerConfig::high(Mode::Serial),
            TimeModel {
                c_nljn: 1e-6,
                c_mgjn: 1e-6,
                c_hsjn: 1e-6,
                intercept: 0.0,
            },
        );
        let cfg = ServiceConfig {
            workers: 2,
            max_inflight: 0,
            deadline: Duration::from_secs(5),
            ..Default::default()
        };
        let svc = CoteService::start(cat, cote, cfg);
        // 60 arrivals, 1ms apart, across 3 distinct structures. The first
        // touch of each structure is submitted alone and answered before
        // the replay starts, so no repeat arrival can race a first estimate.
        let arrivals: Vec<(Duration, usize)> = (0..60)
            .map(|i| (Duration::from_millis(i as u64), i % 3))
            .collect();
        for (_, qi) in &arrivals[..3] {
            let query = &queries[*qi];
            let class = crate::request::QueryClass::from_table_count(query.total_tables());
            let resp = svc.submit(query, class);
            assert!(
                matches!(resp.decision, Decision::Admitted { cached: false, .. }),
                "first touch of {} is a fresh estimate: {:?}",
                query.name,
                resp.decision
            );
        }
        let r = replay(&svc, &queries, &arrivals[3..], 4);
        assert_eq!(r.submitted, 57);
        assert_eq!(r.admitted + r.shed + r.failed, 57);
        assert_eq!(r.failed, 0);
        assert_eq!(r.admitted, 57, "tiny load: nothing shed");
        assert_eq!(r.cached, 57, "every repeat arrival hits the cache");
        assert!(r.throughput() > 0.0);
        let s = r.summary();
        assert!(s.contains("achieved throughput"), "{s}");
    }
}
