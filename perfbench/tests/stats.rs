//! The benchmark's statistics: tail percentile rule, quartiles matching
//! Python's `statistics.quantiles`, geometric mean and the rung choice
//! behind `serve_max_rps`.

use cote_perfbench::stats::{
    backlog_growing, geomean, max_passing_rung, median, percentile, quartiles, tail, tail_quantile,
    Rung,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    assert_eq!(median(&[4.0]), Some(4.0));
}

#[test]
fn tail_keeps_ten_samples_beyond() {
    // Too few samples: no percentile has ten beyond it.
    assert_eq!(tail_quantile(10, 0.99), None);
    // 11 samples: only the first rank has ten beyond it.
    assert_eq!(tail_quantile(11, 0.99), Some(1.0 / 11.0));
    // 136 samples (the paper query set): rank 126, p92.6.
    assert_eq!(tail_quantile(136, 0.99), Some(126.0 / 136.0));
    // 1000 samples: p99 itself has exactly ten beyond it.
    assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
    // 20000 samples: p99 is supported, so it is not exceeded.
    assert_eq!(tail_quantile(20_000, 0.99), Some(0.99));
    let v: Vec<f64> = (1..=136).map(f64::from).collect();
    let (value, q) = tail(&v, 0.99).unwrap();
    assert_eq!(value, 126.0);
    assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    assert!(close(q, 126.0 / 136.0));
}

#[test]
fn quartiles_match_python_statistics() {
    // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (&[0.5, 7.25, 3.0], [0.5, 3.0, 7.25]),
    ];
    for (values, want) in cases {
        let got = quartiles(values).unwrap();
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{values:?}: got {got:?}, want {want:?}");
        }
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn geomean_of_positive_values() {
    assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
    assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
    assert!(close(geomean(&[7.5]).unwrap(), 7.5));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
}

fn rung(rps: f64, p99_ms: f64, failed: u64, backlog_growing: bool) -> Rung {
    Rung {
        rps,
        p99_ms,
        failed,
        backlog_growing,
    }
}

#[test]
fn max_rung_is_the_highest_rate_that_passes() {
    let limit = 100.0;
    let ladder = [
        rung(500.0, 3.0, 0, false),
        rung(1000.0, 4.0, 0, false),
        rung(2000.0, 120.0, 0, false),
        rung(4000.0, 9.0, 0, false),
        rung(16000.0, 900.0, 0, true),
    ];
    // The highest passing rung wins even above a failing one.
    assert_eq!(max_passing_rung(&ladder, limit), Some(3));
    // Failures or a growing backlog fail a rung whatever its p99.
    let mut failing = ladder;
    failing[3].failed = 1;
    assert_eq!(max_passing_rung(&failing, limit), Some(1));
    failing[1].backlog_growing = true;
    assert_eq!(max_passing_rung(&failing, limit), Some(0));
    // A p99 exactly at the limit meets it.
    assert_eq!(
        max_passing_rung(&[rung(500.0, limit, 0, false)], limit),
        Some(0)
    );
    assert_eq!(
        max_passing_rung(&[rung(500.0, 101.0, 0, false)], limit),
        None
    );
    assert_eq!(max_passing_rung(&[], limit), None);
}

#[test]
fn backlog_grows_only_when_answers_fall_behind() {
    // 1000 requests over 1 s, each answered 1 ms after it was scheduled.
    let sched: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
    let prompt: Vec<f64> = sched.iter().map(|t| t + 0.001).collect();
    assert!(!backlog_growing(&sched, &prompt, 0.999));
    // Answers at half the arrival rate: the backlog grows all rung long.
    let slow: Vec<f64> = (0..1000).map(|i| i as f64 / 500.0).collect();
    assert!(backlog_growing(&sched, &slow, 0.999));
    // Unanswered requests count as outstanding.
    let lost: Vec<f64> = (0..1000)
        .map(|i| {
            if i >= 600 {
                f64::INFINITY
            } else {
                sched[i] + 0.001
            }
        })
        .collect();
    assert!(backlog_growing(&sched, &lost, 0.999));
}
