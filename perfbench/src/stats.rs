//! Order statistics shared by every workload: percentiles with a tail rule,
//! Python-compatible quartiles, the geometric mean, and the rung choice
//! behind `serve_max_rps`.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` (0..=1) of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail percentile a sample of `n` supports: `want` (e.g. 0.99) when at
/// least [`TAIL_SAMPLES`] samples lie beyond its nearest rank, otherwise the
/// highest percentile that still has that many beyond it. `None` when
/// `n <= TAIL_SAMPLES`, where no percentile qualifies.
pub fn tail_quantile(n: usize, want: f64) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    let want_rank = (want.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    let rank = want_rank.clamp(1, n - TAIL_SAMPLES);
    Some(rank as f64 / n as f64)
}

/// Value at [`tail_quantile`] of an ascending slice, with the quantile used.
pub fn tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let q = tail_quantile(sorted.len(), want)?;
    Some((percentile(sorted, q)?, q))
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default `exclusive`
/// method: positions `i·(n+1)/4`, linearly interpolated, and extrapolated
/// from the outermost pair when the position falls outside the data).
/// Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Geometric mean of positive values; `None` when empty or any value is not
/// positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// What one rung of the serving ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate.
    pub rps: f64,
    /// Tail latency at the rung (ms).
    pub p99_ms: f64,
    /// Requests that failed (error, BUSY, timeout or a failed check).
    pub failed: u64,
    /// Requests still outstanding grew over the rung.
    pub backlog_growing: bool,
}

impl Rung {
    /// Does the rung meet the latency limit with no failures and no growing
    /// backlog?
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && self.failed == 0 && !self.backlog_growing
    }
}

/// Index of the highest-rate rung that passes `limit_ms`, if any.
pub fn max_passing_rung(rungs: &[Rung], limit_ms: f64) -> Option<usize> {
    rungs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.passes(limit_ms))
        .max_by(|a, b| a.1.rps.total_cmp(&b.1.rps))
        .map(|(i, _)| i)
}

/// Is the number of requests outstanding (scheduled but not yet answered)
/// growing over a rung? `sched` and `done` are per-request offsets (any
/// unit) from the rung start, `end` the rung's last scheduled offset. The
/// backlog counts as growing when it is larger at `end` than at `end / 2`
/// by more than `max(10, 1%)` of the rung's requests.
pub fn backlog_growing(sched: &[f64], done: &[f64], end: f64) -> bool {
    let outstanding = |t: f64| {
        let s = sched.iter().filter(|&&x| x <= t).count() as i64;
        let d = done.iter().filter(|&&x| x <= t).count() as i64;
        s - d
    };
    let slack = (sched.len() as i64 / 100).max(10);
    outstanding(end) - outstanding(end / 2.0) > slack
}
