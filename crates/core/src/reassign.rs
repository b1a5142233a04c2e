//! Process-id reassignment and the Figure 3 redistribution analytics.
//!
//! "The process id of the leaving process may significantly affect the
//! amount of data to be moved" (§5.3, Figure 3): with block-partitioned
//! iteration spaces, removing the *end* process shifts every surviving
//! process's block (up to ~50% of the data space moves), while removing
//! a *middle* process — keeping the survivors' relative order — moves
//! only ~30%. The closed-form overlap computation here reproduces the
//! figure analytically; `nowmp_bench::paper::fig3` also measures it on
//! a live system.

use nowmp_net::Gpid;

/// How pids are reassigned at an adaptation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassignPolicy {
    /// Survivors keep their relative order and compact down; joiners
    /// append at the end (the paper's scheme, per Figure 3b).
    ///
    /// Order stability is also what keeps the *collective* trees
    /// well-behaved across adaptations: both the fork shape and the
    /// reduce shape (`nowmp_tmk::tree`) are pure functions of the team
    /// size and the cost models, over rank order, so a compacted team
    /// re-derives a valid tree with every survivor's neighbors still
    /// in the same relative position — interior aggregators keep
    /// covering contiguous rank ranges and no collective state needs
    /// renumbering beyond the compaction itself.
    CompactKeepOrder,
    /// Joiners adopt the slots of leavers when possible (not the
    /// paper's scheme: pairs a simultaneous join+leave so nobody else's
    /// block moves; `docs/ADAPTATION.md` has its reading).
    FillGaps,
}

/// Compute the new member list.
///
/// * `old` — current team (index = pid; `old[0]` is the master);
/// * `leavers` — processes leaving (never the master);
/// * `joiners` — processes joining.
pub fn reassign(
    policy: ReassignPolicy,
    old: &[Gpid],
    leavers: &[Gpid],
    joiners: &[Gpid],
) -> Vec<Gpid> {
    debug_assert!(!leavers.contains(&old[0]), "master cannot leave");
    match policy {
        ReassignPolicy::CompactKeepOrder => {
            let mut members: Vec<Gpid> = old
                .iter()
                .copied()
                .filter(|g| !leavers.contains(g))
                .collect();
            members.extend_from_slice(joiners);
            members
        }
        ReassignPolicy::FillGaps => {
            let mut joiners = joiners.iter().copied();
            let mut members = Vec::with_capacity(old.len());
            for &g in old {
                if leavers.contains(&g) {
                    if let Some(j) = joiners.next() {
                        members.push(j); // joiner takes the leaver's slot
                    }
                    // else: slot vanishes (compaction)
                } else {
                    members.push(g);
                }
            }
            members.extend(joiners);
            members
        }
    }
}

/// Fraction of a block-partitioned data space `[0,1)` that must move
/// when the team changes from `old_n` processes to the `survivor`
/// mapping, where `survivors[r]` is the *old* pid now holding new rank
/// `r`. A process's new block is `[r/new_n, (r+1)/new_n)`; whatever part
/// of it was not already in its old block `[p/old_n, (p+1)/old_n)` has
/// to be fetched — summed over all survivors, this is the moved
/// fraction Figure 3 shades.
pub fn moved_fraction(old_n: usize, survivors: &[(usize, usize)]) -> f64 {
    let new_n = survivors.len();
    assert!(new_n > 0 && old_n > 0);
    let mut kept = 0.0_f64;
    for &(old_pid, new_rank) in survivors {
        let (olo, ohi) = (
            old_pid as f64 / old_n as f64,
            (old_pid + 1) as f64 / old_n as f64,
        );
        let (nlo, nhi) = (
            new_rank as f64 / new_n as f64,
            (new_rank + 1) as f64 / new_n as f64,
        );
        let overlap = (ohi.min(nhi) - olo.max(nlo)).max(0.0);
        kept += overlap;
    }
    1.0 - kept
}

/// Moved fraction when pid `leaver` leaves an `n`-process team under
/// [`ReassignPolicy::CompactKeepOrder`] — the Figure 3 quantity.
pub fn moved_fraction_on_leave(n: usize, leaver: usize) -> f64 {
    assert!(leaver < n && n > 1);
    let survivors: Vec<(usize, usize)> = (0..n)
        .filter(|&p| p != leaver)
        .enumerate()
        .map(|(rank, p)| (p, rank))
        .collect();
    moved_fraction(n, &survivors)
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: fn(u32) -> Gpid = Gpid;

    /// Every collective shape of an `m`-rank team: the fork and reduce
    /// shapes under the paper models, and the binomial tree both take
    /// under zero-cost models.
    fn shapes(m: usize) -> Vec<nowmp_tmk::tree::Shape> {
        use nowmp_net::{CostModel, NetModel};
        use nowmp_tmk::tree::Shapes;
        let paper = Shapes::for_team(m, &NetModel::paper_1999(), &CostModel::paper_1999());
        let free = Shapes::for_team(m, &NetModel::disabled(), &CostModel::disabled());
        vec![paper.fork, paper.reduce, free.fork]
    }

    #[test]
    fn compact_keeps_order() {
        let old = vec![G(1), G(2), G(3), G(4)];
        let members = reassign(ReassignPolicy::CompactKeepOrder, &old, &[G(3)], &[G(9)]);
        assert_eq!(members, vec![G(1), G(2), G(4), G(9)]);
    }

    #[test]
    fn compact_keeps_collective_tree_order_stable() {
        // The fork and reduce shapes are derived from the team size:
        // after any single leave under CompactKeepOrder, survivors
        // appear in the same relative order, and each re-derived shape
        // still covers exactly the compacted ranks with contiguous
        // subtrees (`Shape::subtree_size`).
        for n in 2..=12usize {
            let old: Vec<Gpid> = (0..n as u32).map(G).collect();
            for leaver in 1..n {
                let members = reassign(
                    ReassignPolicy::CompactKeepOrder,
                    &old,
                    &[G(leaver as u32)],
                    &[],
                );
                let expect: Vec<Gpid> = old
                    .iter()
                    .copied()
                    .filter(|g| g.0 != leaver as u32)
                    .collect();
                assert_eq!(members, expect, "survivor order must be preserved");
                let m = members.len();
                for shape in shapes(m) {
                    for rank in 0..m {
                        let lo = rank;
                        let hi = rank + shape.subtree_size(rank);
                        assert!(hi <= m, "subtree of rank {rank} overruns the {m}-team");
                        for &child in shape.children(rank) {
                            assert!(
                                (lo..hi).contains(&child) || rank == 0,
                                "child {child} outside rank {rank}'s contiguous range"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fill_gaps_swaps_in_joiner() {
        let old = vec![G(1), G(2), G(3), G(4)];
        let members = reassign(ReassignPolicy::FillGaps, &old, &[G(3)], &[G(9)]);
        assert_eq!(
            members,
            vec![G(1), G(2), G(9), G(4)],
            "joiner takes the leaver's slot"
        );
    }

    #[test]
    fn fill_gaps_without_joiner_compacts() {
        let old = vec![G(1), G(2), G(3)];
        let members = reassign(ReassignPolicy::FillGaps, &old, &[G(2)], &[]);
        assert_eq!(members, vec![G(1), G(3)]);
    }

    #[test]
    fn extra_joiners_append() {
        let old = vec![G(1), G(2)];
        let members = reassign(ReassignPolicy::FillGaps, &old, &[], &[G(8), G(9)]);
        assert_eq!(members, vec![G(1), G(2), G(8), G(9)]);
    }

    /// ISSUE 5 pin: the collective shapes (`nowmp_tmk::tree`) are
    /// defined over team rank order. `CompactKeepOrder` must preserve
    /// the survivors' relative order across any leave — including an
    /// interior relay's — so each shape only compacts and every rank is
    /// still covered by the broadcast after reassignment.
    #[test]
    fn fork_tree_order_stable_under_reassignment_and_host_loss() {
        let old: Vec<Gpid> = (1..=8).map(G).collect();
        for leaver in 2..=8u32 {
            let members = reassign(ReassignPolicy::CompactKeepOrder, &old, &[G(leaver)], &[]);
            // Relative order of every surviving pair is preserved.
            let pos = |g: Gpid| members.iter().position(|&m| m == g);
            for a in 1..=8u32 {
                for b in (a + 1)..=8u32 {
                    if a == leaver || b == leaver {
                        continue;
                    }
                    assert!(
                        pos(G(a)).unwrap() < pos(G(b)).unwrap(),
                        "leaver {leaver}: {a} and {b} swapped ranks"
                    );
                }
            }
            // And each compacted shape still reaches every rank exactly
            // once from the root.
            let n = members.len();
            for shape in shapes(n) {
                let mut seen = vec![false; n];
                seen[0] = true;
                let mut frontier = vec![0usize];
                while let Some(p) = frontier.pop() {
                    for &c in shape.children(p) {
                        assert!(!seen[c], "rank {c} delivered twice after leave {leaver}");
                        seen[c] = true;
                        frontier.push(c);
                    }
                }
                assert!(seen.iter().all(|&s| s), "compacted shape covers all ranks");
            }
        }
    }

    /// Joiners append at the tail under `CompactKeepOrder`, so a join
    /// grows the team without moving any existing rank's relative order
    /// either.
    #[test]
    fn fork_tree_order_stable_under_join() {
        let old: Vec<Gpid> = (1..=6).map(G).collect();
        let members = reassign(ReassignPolicy::CompactKeepOrder, &old, &[], &[G(9), G(10)]);
        assert_eq!(&members[..6], &old[..], "existing ranks untouched");
        assert_eq!(&members[6..], &[G(9), G(10)]);
    }

    #[test]
    fn figure3_end_leave_is_half() {
        // Node 7 of 8 leaves: paper says "up to 50% of the data space".
        let f = moved_fraction_on_leave(8, 7);
        assert!((f - 0.5).abs() < 1e-9, "end leave moves {f}, expected 0.5");
    }

    #[test]
    fn figure3_middle_leave_is_less() {
        // Node 3 of 8 leaves: paper says "up to 30%".
        let f = moved_fraction_on_leave(8, 3);
        assert!(
            (f - 0.2857).abs() < 1e-3,
            "middle leave moves {f}, expected ~0.286"
        );
        assert!(f < moved_fraction_on_leave(8, 7), "middle < end");
    }

    #[test]
    fn leaving_first_slave_moves_most_of_middle_choices() {
        // Monotonic: the further from the end the leaver sits, the less
        // data moves... actually the *closer to the front*, the more the
        // tail shifts; pid 1 moves more than pid 6.
        let f1 = moved_fraction_on_leave(8, 1);
        let f6 = moved_fraction_on_leave(8, 6);
        assert!(f1 > f6);
    }

    #[test]
    fn moved_fraction_bounds() {
        for n in 2..10 {
            for l in 1..n {
                let f = moved_fraction_on_leave(n, l);
                assert!((0.0..=1.0).contains(&f), "n={n} l={l} f={f}");
            }
        }
    }

    #[test]
    fn identity_mapping_moves_nothing() {
        let survivors: Vec<(usize, usize)> = (0..4).map(|p| (p, p)).collect();
        assert_eq!(moved_fraction(4, &survivors), 0.0);
    }
}
