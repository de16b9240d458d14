//! The result line every run ends with, plus helpers the workloads share:
//! repeated set-up with a median, and peak resident memory.

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What a run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (compiles, estimates or requests).
    pub attempted: u64,
    /// Operations that errored, were refused or timed out.
    pub op_failures: u64,
    /// Output checks that did not hold.
    pub check_failures: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.op_failures + self.check_failures
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    /// Non-finite values cannot be written as JSON numbers; they make the
    /// run an error instead of a result.
    pub fn json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.check_failures == 0,
            self.attempted.max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Number of times each workload sets itself up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Run `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next, and return the last result with the median CPU seconds one set-up
/// took across all threads (stolen time left out, see [`crate::clock`]).
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = crate::clock::process_cpu_s();
        last = Some(setup());
        secs.push(crate::clock::process_cpu_s() - t0);
    }
    secs.sort_by(f64::total_cmp);
    let median = crate::stats::median(&secs).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// Peak resident set size of this process so far in MiB (`VmHWM`); NaN
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Print one human-readable metric line (ahead of the JSON line).
pub fn say(name: &str, value: impl std::fmt::Display, unit: &str) {
    println!("  {name:<28} {value:>16} {unit}");
}
