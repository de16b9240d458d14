//! CPU clocks. On a shared virtual machine the host may run other guests on
//! this guest's CPUs ("steal"); wall-clock time then grows for reasons
//! outside the program. The guest kernel leaves stolen time out of thread
//! CPU time, so CPU time measures the program's own work.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time the calling thread has run.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for the
    // whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere, wall-clock time since first use stands in.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed()
}

/// CPU seconds (user + system) every thread of this process has run,
/// exited threads included, from `/proc/self/stat` (10 ms ticks); NaN where
/// `/proc` does not report it.
pub fn process_cpu_s() -> f64 {
    process_cpu().map_or(f64::NAN, |d| d.as_secs_f64())
}

fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from field 3 (state).
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux architecture this runs on.
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Seconds the host has taken from this guest's CPUs since boot ("steal",
/// summed over CPUs), from `/proc/stat`; NaN where `/proc` does not report
/// it.
pub fn host_steal_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        stat.lines()
            .next()?
            .split_whitespace()
            .nth(8)?
            .parse::<f64>()
            .ok()
    });
    // USER_HZ is 100 on every Linux architecture this runs on.
    ticks.map_or(f64::NAN, |t| t / 100.0)
}
