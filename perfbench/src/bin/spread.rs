//! `spread < results`: the run-to-run spread of each metric over several
//! runs of one workload, as a share of its median — the distance between
//! the first and third quartile (Python's `statistics.quantiles(n=4)`)
//! divided by the median. Reads the benchmark's JSON result lines (other
//! lines are skipped) from standard input.

use cote_perfbench::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::io::BufRead;

/// `(name, value)` pairs of one result line's `metrics` object.
fn metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = Vec::new();
    while let Some(start) = rest.find('"') {
        let end = start + 1 + rest[start + 1..].find('"')?;
        let name = &rest[start + 1..end];
        let after = &rest[end..];
        let v = after.find("\"value\": ")? + 9;
        let len = after[v..].find([',', '}'])?;
        out.push((name.to_string(), after[v..v + len].trim().parse().ok()?));
        rest = &after[v + len..];
        rest = &rest[rest.find('}')? + 1..];
    }
    Some(out)
}

fn main() {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read standard input");
        if let Some(ms) = line.starts_with('{').then(|| metrics(&line)).flatten() {
            runs += 1;
            for (name, value) in ms {
                by_name.entry(name).or_default().push(value);
            }
        }
    }
    println!("{runs} run(s)");
    for (name, mut values) in by_name {
        values.sort_by(f64::total_cmp);
        let med = median(&values).unwrap_or(f64::NAN);
        match quartiles(&values) {
            Some([q1, _, q3]) => println!(
                "  {name:<32} median {med:>14.6} spread {:>7.4}",
                (q3 - q1) / med
            ),
            None => println!("  {name:<32} median {med:>14.6}"),
        }
    }
}
