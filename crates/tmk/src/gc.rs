//! Garbage-collection planning.
//!
//! GC is the paper's central simplification device: "this step removes
//! all these internal data structures, and leaves each memory page
//! either valid and up-to-date, or invalid but with its owner field
//! pointing to a node with a valid copy of the page" (§4.1). The master
//! coordinates: it queries per-page applied clocks from every process,
//! determines which copies are complete, directs minimal diff fetches to
//! complete at least one copy per page, chooses owners (avoiding
//! processes about to leave — which is how *leave* handling folds into
//! GC), and commits the new epoch.

use crate::msg::PageApplied;
use crate::page::Wn;
use crate::records::RecordStore;
use crate::types::{PageId, Vc};
use nowmp_net::Gpid;
use std::collections::{BTreeMap, HashMap, HashSet};

/// All write notices per page, from the master's complete record set.
pub fn page_writes(records: &RecordStore) -> HashMap<PageId, Vec<Wn>> {
    let mut writes: HashMap<PageId, Vec<Wn>> = HashMap::new();
    for r in records.all() {
        let vcsum = r.vcsum();
        for &p in &r.pages {
            writes.entry(p).or_default().push(Wn {
                pid: r.pid,
                seq: r.seq,
                vcsum,
            });
        }
    }
    writes
}

/// The master's GC decision. Per-process maps are ordered by gpid, so
/// the master walks them — and sends its requests — in the same order
/// every run.
#[derive(Debug, Default)]
pub struct GcPlan {
    /// Owner per page after GC.
    pub dir: Vec<Gpid>,
    /// Pages each process must drop (incomplete copies).
    pub drops: BTreeMap<Gpid, Vec<PageId>>,
    /// Pages each process must complete before commit, with the write
    /// notices it may be missing.
    pub fetches: BTreeMap<Gpid, Vec<(PageId, Vec<Wn>)>>,
    /// Complete holders per page after the fetch phase (owners first).
    pub complete: Vec<Vec<Gpid>>,
}

fn applied_vc(applied: &[(crate::types::Pid, crate::types::Seq)]) -> Vc {
    let mut vc = Vc::default();
    for &(p, s) in applied {
        vc.set(p, s);
    }
    vc
}

/// Compute the GC plan.
///
/// * `total_pages` — allocated page count;
/// * `writes` — every write notice of the epoch (from [`page_writes`]);
/// * `reports` — `(process, held pages with applied clocks)` for every
///   team member, master included;
/// * `old_dir` — directory before this GC (shorter is fine; the default
///   owner is `master`);
/// * `avoid` — processes that must own nothing afterwards (leavers);
///   pages only they hold migrate to `master`.
pub fn compute_gc_plan(
    total_pages: usize,
    writes: &HashMap<PageId, Vec<Wn>>,
    reports: &[(Gpid, Vec<PageApplied>)],
    old_dir: &[Gpid],
    avoid: &HashSet<Gpid>,
    master: Gpid,
) -> GcPlan {
    // holders[page] = [(gpid, applied)]
    let mut holders: HashMap<PageId, Vec<(Gpid, Vc)>> = HashMap::new();
    for (gpid, pages) in reports {
        for pa in pages {
            holders
                .entry(pa.page)
                .or_default()
                .push((*gpid, applied_vc(&pa.applied)));
        }
    }

    let mut plan = GcPlan {
        dir: Vec::with_capacity(total_pages),
        complete: Vec::with_capacity(total_pages),
        ..GcPlan::default()
    };
    let empty: Vec<Wn> = Vec::new();

    for p in 0..total_pages as PageId {
        let wns = writes.get(&p).unwrap_or(&empty);
        let hs = holders.get(&p).map(Vec::as_slice).unwrap_or(&[]);
        let is_complete = |vc: &Vc| wns.iter().all(|w| vc.get(w.pid) >= w.seq);

        let mut complete: Vec<Gpid> = hs
            .iter()
            .filter(|(_, vc)| is_complete(vc))
            .map(|(g, _)| *g)
            .collect();
        let old_owner = old_dir.get(p as usize).copied().unwrap_or(master);

        let eligible_owner = complete
            .iter()
            .copied()
            .filter(|g| !avoid.contains(g))
            .collect::<Vec<_>>();

        let owner = if eligible_owner.contains(&old_owner) {
            old_owner
        } else if let Some(&g) = eligible_owner.first() {
            // Deterministic: prefer the complete holder with the
            // largest applied knowledge, tie-break by gpid.
            eligible_owner
                .iter()
                .copied()
                .max_by_key(|g| {
                    let sum = hs
                        .iter()
                        .find(|(h, _)| h == g)
                        .map(|(_, vc)| vc.sum())
                        .unwrap_or(0);
                    (sum, u64::MAX - g.0 as u64)
                })
                .unwrap_or(g)
        } else {
            // No eligible complete holder: someone must fetch. If nobody
            // eligible holds the page at all (it lives only on leavers,
            // or nowhere), the master does (§4.2).
            let fetcher = hs
                .iter()
                .filter(|(g, _)| !avoid.contains(g))
                .max_by_key(|(g, vc)| {
                    let coverage = wns.iter().filter(|w| vc.get(w.pid) >= w.seq).count();
                    (coverage, vc.sum(), u64::MAX - g.0 as u64)
                })
                .map_or(master, |(g, _)| *g);
            // If the page exists nowhere (never materialized), the
            // master materializes zeros on demand; no fetch needed.
            if hs.is_empty() && wns.is_empty() {
                plan.dir.push(master);
                plan.complete.push(vec![master]);
                continue;
            }
            let missing: Vec<Wn> = {
                let vc = hs
                    .iter()
                    .find(|(g, _)| *g == fetcher)
                    .map(|(_, vc)| vc.clone())
                    .unwrap_or_default();
                wns.iter()
                    .copied()
                    .filter(|w| w.seq > vc.get(w.pid))
                    .collect()
            };
            plan.fetches.entry(fetcher).or_default().push((p, missing));
            complete.push(fetcher);
            fetcher
        };

        // Drops: holders that are neither complete nor the fetcher.
        for (g, vc) in hs {
            if !is_complete(vc) && !complete.contains(g) {
                plan.drops.entry(*g).or_default().push(p);
            }
        }
        // Owner first in the complete list (useful to leave handling).
        let mut ordered = vec![owner];
        ordered.extend(complete.into_iter().filter(|g| *g != owner));
        plan.complete.push(ordered);
        plan.dir.push(owner);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pid, Seq};

    fn wn(pid: Pid, seq: Seq) -> Wn {
        Wn {
            pid,
            seq,
            vcsum: seq as u64,
        }
    }

    fn report(page: PageId, applied: &[(Pid, Seq)]) -> PageApplied {
        PageApplied {
            page,
            applied: applied.to_vec(),
        }
    }

    const M: Gpid = Gpid(1); // master
    const A: Gpid = Gpid(2);
    const B: Gpid = Gpid(3);

    #[test]
    fn untouched_pages_go_to_master() {
        let plan = compute_gc_plan(3, &HashMap::new(), &[(M, vec![])], &[], &HashSet::new(), M);
        assert_eq!(plan.dir, vec![M, M, M]);
        assert!(plan.fetches.is_empty());
        assert!(plan.drops.is_empty());
    }

    #[test]
    fn complete_holder_keeps_ownership() {
        let mut writes = HashMap::new();
        writes.insert(0, vec![wn(1, 2)]);
        let reports = vec![
            (M, vec![report(0, &[])]),       // master: stale
            (A, vec![report(0, &[(1, 2)])]), // A (pid 1) wrote it
        ];
        let plan = compute_gc_plan(1, &writes, &reports, &[A], &HashSet::new(), M);
        assert_eq!(plan.dir, vec![A]);
        // Master's stale copy must drop.
        assert_eq!(plan.drops.get(&M).unwrap(), &vec![0]);
        assert!(plan.fetches.is_empty());
        assert_eq!(plan.complete[0][0], A);
    }

    #[test]
    fn no_complete_copy_triggers_fetch_at_best_holder() {
        // Two concurrent writers; each copy misses the other's diff.
        let mut writes = HashMap::new();
        writes.insert(0, vec![wn(1, 1), wn(2, 1)]);
        let reports = vec![
            (A, vec![report(0, &[(1, 1)])]),
            (B, vec![report(0, &[(2, 1)])]),
        ];
        let plan = compute_gc_plan(1, &writes, &reports, &[M], &HashSet::new(), M);
        // One of them fetches the other's diff and becomes owner.
        assert_eq!(plan.fetches.len(), 1);
        let (fetcher, wants) = plan.fetches.iter().next().unwrap();
        assert_eq!(wants.len(), 1);
        assert_eq!(wants[0].1.len(), 1, "only the missing diff is fetched");
        assert_eq!(plan.dir[0], *fetcher);
        // The non-fetcher is incomplete and drops.
        let other = if *fetcher == A { B } else { A };
        assert_eq!(plan.drops.get(&other).unwrap(), &vec![0]);
    }

    #[test]
    fn leaver_only_pages_route_to_master() {
        let leaver = A;
        let mut writes = HashMap::new();
        writes.insert(0, vec![wn(1, 3)]);
        let reports = vec![(leaver, vec![report(0, &[(1, 3)])])];
        let avoid: HashSet<Gpid> = [leaver].into_iter().collect();
        let plan = compute_gc_plan(1, &writes, &reports, &[leaver], &avoid, M);
        assert_eq!(plan.dir, vec![M], "master takes over the leaver's page");
        let wants = plan.fetches.get(&M).unwrap();
        assert_eq!(wants[0].0, 0);
        assert_eq!(wants[0].1.len(), 1, "master fetches the missing write");
    }

    #[test]
    fn leaver_with_surviving_complete_copy_needs_no_fetch() {
        // Leaver owns the page but B also has a complete copy:
        // "exclusively owned by the leaving process" does not apply.
        let leaver = A;
        let mut writes = HashMap::new();
        writes.insert(0, vec![wn(1, 1)]);
        let reports = vec![
            (leaver, vec![report(0, &[(1, 1)])]),
            (B, vec![report(0, &[(1, 1)])]),
        ];
        let avoid: HashSet<Gpid> = [leaver].into_iter().collect();
        let plan = compute_gc_plan(1, &writes, &reports, &[leaver], &avoid, M);
        assert_eq!(
            plan.dir,
            vec![B],
            "ownership moves by directory update only"
        );
        assert!(plan.fetches.is_empty(), "no data moves");
    }

    #[test]
    fn page_writes_collects_all_notices() {
        let mut store = RecordStore::new();
        let mut vc = Vc::new(2);
        vc.set(0, 1);
        store.insert(crate::records::Record {
            pid: 0,
            seq: 1,
            vc: vc.clone(),
            pages: vec![2, 3],
        });
        vc.set(1, 1);
        store.insert(crate::records::Record {
            pid: 1,
            seq: 1,
            vc,
            pages: vec![3],
        });
        let w = page_writes(&store);
        assert_eq!(w[&2].len(), 1);
        assert_eq!(w[&3].len(), 2);
    }

    #[test]
    fn fetchers_come_out_in_ascending_gpid_order() {
        // Each page's only copy misses a notice, so its holder fetches;
        // the master sends its `GcFetch` calls in the plan's order.
        let holders = [Gpid(9), Gpid(4), Gpid(7), Gpid(2), Gpid(5)];
        let mut writes = HashMap::new();
        let mut reports = Vec::new();
        for (p, &g) in holders.iter().enumerate() {
            writes.insert(p as PageId, vec![wn(1, 1), wn(2, 1)]);
            reports.push((g, vec![report(p as PageId, &[(1, 1)])]));
        }
        let plan = compute_gc_plan(holders.len(), &writes, &reports, &[], &HashSet::new(), M);
        let fetchers: Vec<Gpid> = plan.fetches.keys().copied().collect();
        let mut ascending = holders.to_vec();
        ascending.sort();
        assert_eq!(fetchers, ascending);
    }

    #[test]
    fn deterministic_owner_choice() {
        // Same inputs must give the same plan (determinism matters for
        // reproducible experiments).
        let mut writes = HashMap::new();
        writes.insert(0, vec![wn(1, 1)]);
        let reports = vec![
            (A, vec![report(0, &[(1, 1)])]),
            (B, vec![report(0, &[(1, 1)])]),
            (M, vec![report(0, &[(1, 1)])]),
        ];
        let p1 = compute_gc_plan(1, &writes, &reports, &[], &HashSet::new(), M);
        let p2 = compute_gc_plan(1, &writes, &reports, &[], &HashSet::new(), M);
        assert_eq!(p1.dir, p2.dir);
    }
}
