//! Counting semaphore (`Mutex` + [`ClockCondvar`]): a wait for a permit
//! is visible to a virtual [`Clock`], and the releaser marks the waiter
//! it wakes runnable.
//!
//! The simulated NOW uses one semaphore per host to model CPU slots: a
//! workstation normally runs one DSM process, but after an *urgent leave*
//! the migrated process is multiplexed onto another node (paper §3,
//! Figure 2c) and the two processes time-share. Acquiring a CPU slot per
//! iteration chunk reproduces the idle time the paper attributes to
//! multiplexing.

use crate::clock::{Clock, ClockCondvar};
use parking_lot::Mutex;
use std::sync::Arc;

/// A counting semaphore with RAII permits.
#[derive(Debug)]
pub struct Semaphore {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    permits: Mutex<usize>,
    cv: ClockCondvar,
}

/// RAII guard returned by [`Semaphore::acquire`]; releases on drop.
#[derive(Debug)]
pub struct Permit {
    inner: Arc<Inner>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits whose waits
    /// are accounted on `clock`.
    pub fn new(permits: usize, clock: &Clock) -> Self {
        Semaphore {
            inner: Arc::new(Inner {
                permits: Mutex::new(permits),
                cv: ClockCondvar::new(clock),
            }),
        }
    }

    /// Block until a permit is available, then take it.
    pub fn acquire(&self) -> Permit {
        let mut p = self.inner.permits.lock();
        while *p == 0 {
            p = self.inner.cv.wait(&self.inner.permits, p);
        }
        *p -= 1;
        Permit {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Take a permit if one is available without blocking.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut p = self.inner.permits.lock();
        if *p == 0 {
            None
        } else {
            *p -= 1;
            Some(Permit {
                inner: Arc::clone(&self.inner),
            })
        }
    }

    /// Add `n` permits (e.g. a host gaining CPU slots).
    pub fn release_extra(&self, n: usize) {
        let mut p = self.inner.permits.lock();
        *p += n;
        for _ in 0..n {
            self.inner.cv.notify_one();
        }
    }

    /// Current available permits (racy; for diagnostics only).
    pub fn available(&self) -> usize {
        *self.inner.permits.lock()
    }
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut p = self.inner.permits.lock();
        *p += 1;
        self.inner.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    #[test]
    fn try_acquire_exhausts() {
        let s = Semaphore::new(2, &Clock::real());
        let a = s.try_acquire();
        let b = s.try_acquire();
        assert!(a.is_some() && b.is_some());
        assert!(s.try_acquire().is_none());
        drop(a);
        assert!(s.try_acquire().is_some());
    }

    #[test]
    fn acquire_blocks_until_release() {
        let s = Semaphore::new(1, &Clock::from_env());
        let p = s.acquire();
        let s2 = s.clone();
        let flag = StdArc::new(AtomicUsize::new(0));
        let f2 = StdArc::clone(&flag);
        let h = std::thread::spawn(move || {
            let _p = s2.acquire();
            f2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            flag.load(Ordering::SeqCst),
            0,
            "acquire should still be blocked"
        );
        drop(p);
        h.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
    }

    /// Under a virtual clock a waiter is visibly blocked (time moves
    /// past it) and runnable from the release on (time does not).
    #[test]
    fn waits_are_clock_visible_and_the_release_wakes_runnable() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let s = Semaphore::new(1, &c);
        let p = s.acquire();
        let (s2, c2) = (s.clone(), c.clone());
        let waiter = c.spawn("second-process", move || {
            let _p = s2.acquire();
            c2.now()
        });
        c.sleep(Duration::from_secs(1));
        drop(p);
        c.sleep(Duration::from_secs(1));
        assert_eq!(
            waiter.join().unwrap().as_nanos(),
            1_000_000_000,
            "got the CPU at the release, not a sleep later"
        );
        assert_eq!(c.forced_advances(), 0);
    }

    #[test]
    fn mutual_exclusion_with_one_permit() {
        let s = Semaphore::new(1, &Clock::from_env());
        let counter = StdArc::new(AtomicUsize::new(0));
        let max_seen = StdArc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            let c = StdArc::clone(&counter);
            let m = StdArc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _p = s.acquire();
                    let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                    m.fetch_max(now, Ordering::SeqCst);
                    c.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "only one holder at a time"
        );
    }

    #[test]
    fn release_extra_grows_capacity() {
        let s = Semaphore::new(0, &Clock::real());
        s.release_extra(3);
        assert_eq!(s.available(), 3);
        let _a = s.acquire();
        let _b = s.acquire();
        let _c = s.acquire();
        assert!(s.try_acquire().is_none());
    }
}
