//! DSM-level statistics: the counters behind Table 1 and §5.4.
//!
//! Network-level bytes/messages live in [`nowmp_net::NetStats`]; this
//! module counts protocol events: full-page transfers, diff transfers,
//! faults, lock/barrier operations, GCs. A single [`DsmStats`] is shared
//! by every process of a system (relaxed atomics — exact totals matter,
//! per-event ordering does not).

use nowmp_net::Gpid;
use nowmp_util::{Cause, Ledger, CAUSES};
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
    /// Arrival aggregates, barrier or join, forwarded upward by
    /// interior ranks of the reduce shape (zero under the flat join
    /// reduce).
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
    /// Pages a creator served whole because their diff chain was
    /// larger, to a page collection (a GC completion) or to a
    /// current-generation fault on a page allocated this epoch
    /// (installed by the fetcher; counted in `pages_fetched` too).
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
    /// payload, a request kind sent without a reply handle, a reply
    /// kind, or a request for a diff never created. And control
    /// messages a worker's wait loop dropped: a `GcQuery`, `GcFetch`
    /// or `Commit` without a reply handle, a `JoinInit` that does not
    /// make the receiver a member, or a kind the loop does not serve.
    /// Zero in every run of this workspace's own protocol.
    malformed_dropped,
    /// Requests dropped unserved as stale: a `PageReq`, `DiffReq`,
    /// `RecordsReq`, `LockReq` or `LockRelease` of another epoch than
    /// the server's, or a `LockRelease` from a process that does not
    /// hold the lock; and a `Fork`, `GcQuery`, `GcFetch`, `Commit` or
    /// `JoinArrive` of another epoch than the worker's. Zero in every run of this
    /// workspace's own protocol.
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

/// One process's share of its virtual clock's [`Ledger`]: where the
/// virtual time of its application thread (`app-<gpid>`) and of its
/// service thread (`svc-<gpid>`) went, by [`Cause`]. Each row set sums
/// to its thread's virtual lifetime. A thread the process does not
/// have (yet, or any more) reads all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcLedger {
    /// The process.
    pub gpid: Gpid,
    /// Its application thread's rows, in [`Cause::ALL`] order.
    pub app: [u64; CAUSES],
    /// Its service thread's rows.
    pub svc: [u64; CAUSES],
}

impl ProcLedger {
    /// Split a clock's ledgers ([`nowmp_util::Clock::ledger`]) by
    /// process, in gpid order; threads of no process (a harness
    /// thread, a grace timer) are left out.
    pub fn split(ledgers: &[Ledger]) -> Vec<ProcLedger> {
        let mut procs: Vec<ProcLedger> = Vec::new();
        for l in ledgers {
            let Some((role, gpid)) = l.name.split_once("-g") else {
                continue;
            };
            let Ok(gpid) = gpid.parse().map(Gpid) else {
                continue;
            };
            let at = match procs.binary_search_by_key(&gpid, |p| p.gpid) {
                Ok(at) => at,
                Err(at) => {
                    procs.insert(
                        at,
                        ProcLedger {
                            gpid,
                            app: [0; CAUSES],
                            svc: [0; CAUSES],
                        },
                    );
                    at
                }
            };
            let rows = match role {
                "app" => &mut procs[at].app,
                "svc" => &mut procs[at].svc,
                _ => continue,
            };
            for (r, v) in rows.iter_mut().zip(l.rows) {
                *r += v;
            }
        }
        procs
    }

    /// The application thread's row of `cause`.
    pub fn app(&self, cause: Cause) -> u64 {
        self.app[cause as usize]
    }

    /// The service thread's row of `cause`.
    pub fn svc(&self, cause: Cause) -> u64 {
        self.svc[cause as usize]
    }

    /// What accrued after `earlier`, a split of the same clock; a
    /// process `earlier` lacks counts from zero.
    pub fn since(now: &[ProcLedger], earlier: &[ProcLedger]) -> Vec<ProcLedger> {
        now.iter()
            .map(|p| {
                let mut d = *p;
                if let Some(e) = earlier.iter().find(|e| e.gpid == p.gpid) {
                    for (r, v) in d.app.iter_mut().zip(e.app) {
                        *r -= v;
                    }
                    for (r, v) in d.svc.iter_mut().zip(e.svc) {
                        *r -= v;
                    }
                }
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_split_by_process_and_role() {
        let ledger = |name: &str, rows: [u64; CAUSES]| Ledger {
            name: name.into(),
            born: 0,
            end: rows.iter().sum(),
            rows,
        };
        let mut fetch = [0; CAUSES];
        fetch[Cause::Fetch as usize] = 5;
        let mut link = [0; CAUSES];
        link[Cause::Transmit as usize] = 7;
        let split = ProcLedger::split(&[
            ledger("svc-g3", link),
            ledger("app-g3", fetch),
            ledger("app-g1", fetch),
            ledger("grace-g1", link),
            ledger("main", link),
        ]);
        assert_eq!(split.len(), 2);
        assert_eq!((split[0].gpid, split[1].gpid), (Gpid(1), Gpid(3)));
        assert_eq!(split[0].app(Cause::Fetch), 5);
        assert_eq!(split[0].svc, [0; CAUSES]);
        assert_eq!(split[1].svc(Cause::Transmit), 7);
        let mut both = fetch;
        both[Cause::Transmit as usize] = 7;
        let later = ProcLedger::split(&[ledger("app-g3", both), ledger("svc-g3", link)]);
        let d = ProcLedger::since(&later, &split);
        assert_eq!(d[0].app(Cause::Transmit), 7);
        assert_eq!(d[0].app(Cause::Fetch), 0);
        assert_eq!(d[0].svc, [0; CAUSES]);
    }

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
