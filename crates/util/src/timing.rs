//! Timing helpers for the network cost emulation.
//!
//! The paper's cost constants are in the 60 µs – 1.5 ms range; OS sleep
//! granularity on Linux is tens of microseconds at best. [`precise_sleep`]
//! sleeps most of the interval and spins the remainder so that emulated
//! message latencies are accurate to a few microseconds without burning a
//! whole core for long waits.

use std::time::{Duration, Instant};

/// The last stretch of a precise wait, spun rather than slept: more
/// than the OS timer slack.
pub(crate) const SPIN_SLACK: Duration = Duration::from_micros(150);

/// Sleep for `d` with microsecond-ish precision (hybrid sleep + spin).
///
/// For durations above ~200 µs the bulk is a real `thread::sleep` (leaving
/// the CPU to the other simulation threads); the final stretch is a spin
/// on `Instant::now()`.
pub fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    if d > SPIN_SLACK {
        std::thread::sleep(d - SPIN_SLACK);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Block until `cond` returns `true`, re-checking with a yield/short-
/// sleep backoff, or until the (real-time) `timeout` expires. Returns
/// whether the condition was met.
///
/// This is the replacement for "sleep a magic 30 ms and hope the other
/// thread got there": the wait names its condition, finishes as soon as
/// the condition holds, and the timeout is a deadlock guard rather than
/// a tuning constant.
pub fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    let mut spins = 0u32;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        if spins < 100 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
        spins = spins.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_sleep_zero_returns_immediately() {
        let t = Instant::now();
        precise_sleep(Duration::ZERO);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn precise_sleep_hits_target_within_tolerance() {
        for &us in &[100u64, 500, 1500] {
            let d = Duration::from_micros(us);
            // The lower bound is a hard guarantee; the upper bound is
            // load-sensitive, so accept the best of several attempts
            // (a loaded CI box can stall any single sleep).
            let mut best = Duration::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                precise_sleep(d);
                let e = t.elapsed();
                assert!(e >= d, "slept {e:?} < requested {d:?}");
                best = best.min(e);
                if best < d + Duration::from_millis(10) {
                    break;
                }
            }
            assert!(
                best < d + Duration::from_millis(10),
                "best of 5 sleeps {best:?} for request {d:?}"
            );
        }
    }

    // The strict 2 ms single-shot oversleep budget cannot be
    // guaranteed under wall time (any scheduler stall on a loaded box
    // breaks it). It runs as `clock::tests::virtual_sleep_single_shot_strict`
    // — and, for the cancellable-deadline path, as
    // `clock::tests::virtual_alarm_single_shot_strict` — on the
    // virtual backend, where a sleep/alarm is exact by construction.
}
