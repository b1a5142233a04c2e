//! `parking_lot::Mutex` under the name the harness's `util.spinlock_*` lanes use.

pub use parking_lot::Mutex as SpinLock;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn contended_increments_are_not_lost() {
        const THREADS: usize = 8;
        const PER: usize = 10_000;
        let l = Arc::new(SpinLock::new(0usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..PER {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), THREADS * PER);
    }

    #[test]
    fn guard_release_publishes_writes() {
        // Acquire/release ordering: a value written under the lock on
        // one thread is visible to the next acquirer on another.
        let l = Arc::new(SpinLock::new((0u64, 0u64)));
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            for i in 1..=1000u64 {
                let mut g = l2.lock();
                *g = (i, i.wrapping_mul(0x9E37_79B9));
            }
        });
        for _ in 0..1000 {
            let g = l.lock();
            assert_eq!(g.1, g.0.wrapping_mul(0x9E37_79B9));
        }
        h.join().unwrap();
    }
}
