//! DSM-level statistics: the counters behind Table 1 and §5.4.
//!
//! Network-level bytes/messages live in [`nowmp_net::NetStats`]; this
//! module counts protocol events: full-page transfers, diff transfers,
//! faults, lock/barrier operations, GCs. A single [`DsmStats`] is shared
//! by every process of a system (relaxed atomics — exact totals matter,
//! per-event ordering does not).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Shared DSM event counters.
        #[derive(Debug, Default)]
        pub struct DsmStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Point-in-time copy of [`DsmStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DsmSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl DsmStats {
            /// Snapshot all counters.
            pub fn snapshot(&self) -> DsmSnapshot {
                DsmSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl DsmSnapshot {
            /// Difference against an earlier snapshot.
            pub fn since(&self, earlier: &DsmSnapshot) -> DsmSnapshot {
                DsmSnapshot {
                    $($name: self.$name - earlier.$name,)+
                }
            }
        }
    };
}

counters! {
    /// Full pages fetched over the network (Table 1 "Pages (4k)").
    pages_fetched,
    /// Diffs fetched over the network (Table 1 "Diffs").
    diffs_fetched,
    /// Words carried by fetched diffs.
    diff_words,
    /// Read faults taken (slow path entered).
    read_faults,
    /// Write faults taken (twin creations + exclusive upgrades).
    write_faults,
    /// Twin snapshots created.
    twins_created,
    /// Lock acquisitions completed.
    lock_acquires,
    /// Barrier episodes completed (per process arrival).
    barrier_arrivals,
    /// Fork events (master-side count).
    forks,
    /// `Fork`/`JoinInit` broadcast messages forwarded by interior
    /// relays of the fork shape (zero under the flat broadcast).
    bcast_relays,
    /// `JoinArrive` aggregates forwarded upward by interior ranks of
    /// the reduce shape (zero under the flat join reduce).
    reduce_relays,
    /// `BarrierRelease` messages forwarded downward by interior ranks
    /// of the fork shape (zero under the flat barrier release).
    release_relays,
    /// Garbage collections run.
    gcs,
    /// Pages fetched specifically during GC completion (step 2).
    gc_fetch_pages,
    /// Always 0; kept because the `benchmark/` harness reads it (the
    /// pages a leave completes count in `gc_fetch_pages`).
    leave_pages_moved,
    /// Pages a creator served whole to a page collection (a GC
    /// completion) because its diff chain was larger (installed by the
    /// fetcher).
    gc_whole_pages,
    /// Always 0; kept because the `benchmark/` harness reads it.
    prefetch_issued,
    /// Always 0; see `prefetch_issued`.
    prefetch_hits,
    /// Always 0; see `prefetch_issued`.
    prefetch_wasted,
    /// Always 0; kept because the `benchmark/` harness reads it.
    piggyback_bytes,
    /// Diffs a writer pushed to subscribed readers when it closed an
    /// interval (counted as the service thread hands each `DiffPush`
    /// to the link; zero under the demand data plane).
    push_sent,
    /// Payload bytes of those `DiffPush` messages.
    push_bytes,
    /// Pushed diffs a fault applied from the early-diff store.
    push_hits,
    /// Pushed diffs dropped unapplied: still stored when the epoch
    /// ended, arrived from another epoch, or arrived after the demand
    /// path had already fetched them. `push_hits + push_wasted <=
    /// push_sent` at every point.
    push_wasted,
    /// Messages a service thread dropped unserved: an undecodable
    /// payload, a request kind sent without a reply handle, or a reply
    /// kind. Zero in every run of this workspace's own protocol.
    malformed_dropped,
    /// Requests dropped unserved as stale: a `PageReq`, `DiffReq`,
    /// `RecordsReq`, `LockReq` or `LockRelease` of another epoch than
    /// the server's, or a `LockRelease` from a process that does not
    /// hold the lock. Zero in every run of this workspace's own
    /// protocol.
    stale_dropped,
}

impl DsmStats {
    /// New shared counter block.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = DsmStats::new_shared();
        DsmStats::bump(&s.pages_fetched);
        DsmStats::add(&s.diff_words, 10);
        let a = s.snapshot();
        assert_eq!(a.pages_fetched, 1);
        assert_eq!(a.diff_words, 10);
        DsmStats::bump(&s.pages_fetched);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.pages_fetched, 1);
        assert_eq!(d.diff_words, 0);
    }

    #[test]
    fn default_is_zero() {
        let s = DsmStats::default().snapshot();
        assert_eq!(s, DsmSnapshot::default());
    }
}
