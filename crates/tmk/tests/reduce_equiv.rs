//! ISSUE 6: equivalence of the tree join reduce with flat collection.
//!
//! The interior-aggregator protocol in `TmkCtx::arrive` (every
//! arrival, at a barrier or at the join) merges child vector clocks
//! with [`Vc::merge`] and appends child records deduplicated by
//! `(pid, seq)`. Both operations are
//! commutative over the *set* of contributions, so the root must end
//! up with exactly the flat-collection result no matter how members
//! are grouped into subtrees or in which order aggregates arrive.
//! These tests pin that down as a property over arbitrary team sizes,
//! record populations (including cross-pid records from lock
//! transfers) and arrival orders, on the reduce shape the system
//! derives from its models — the paper's, and the zero-cost models'
//! binomial tree.

use nowmp_net::{CostModel, NetModel};
use nowmp_tmk::records::{Record, RecordSet};
use nowmp_tmk::tree::{Shape, Shapes};
use nowmp_tmk::types::{Pid, Seq, Vc};
use nowmp_util::wire::{Dec, Enc, Encoding};
use proptest::prelude::*;
use std::collections::HashSet;

/// The reduce shape of an `n`-rank team: under the paper models, or
/// (`paper == false`) under the zero-cost ones.
fn reduce_shape(n: usize, paper: bool) -> Shape {
    let (net, cost) = if paper {
        (NetModel::paper_1999(), CostModel::paper_1999())
    } else {
        (NetModel::disabled(), CostModel::disabled())
    };
    Shapes::for_team(n, &net, &cost).reduce
}

/// One rank's contribution at join time: its vector clock and the
/// records it drained (its own intervals plus any it carries for other
/// pids after a lock transfer).
#[derive(Clone, Debug)]
struct Contribution {
    vc: Vc,
    records: Vec<Record>,
}

fn rec(n: usize, pid: Pid, seq: Seq, pages: Vec<u32>) -> Record {
    let mut vc = Vc::new(n);
    vc.set(pid, seq);
    Record {
        pid,
        seq,
        vc,
        pages,
    }
}

/// Mirror of the aggregation step in `TmkCtx::arrive` /
/// `TmkCtx::gather`: merge a child aggregate into an accumulator,
/// deduplicating records by `(pid, seq)`.
fn absorb(
    vc: &mut Vc,
    records: &mut Vec<Record>,
    seen: &mut HashSet<(Pid, Seq)>,
    child: (Vc, Vec<Record>),
) {
    vc.merge(&child.0);
    for r in child.1 {
        if seen.insert((r.pid, r.seq)) {
            records.push(r);
        }
    }
}

/// An aggregate's records as the parent receives them: through the
/// `RecordSet` wire form of the current generation. These clocks are
/// zero off the author's own entry, so any aggregate of two or more
/// records must take the delta-coded form (marker bit in the count).
fn over_the_wire(records: Vec<Record>) -> Vec<Record> {
    let mut e = Enc::with_encoding(64, Encoding::Runs);
    RecordSet::enc_slice(&records, &mut e);
    let wire = e.finish();
    assert_eq!(wire[3] & 0x80 != 0, records.len() >= 2, "delta form");
    let mut d = Dec::new(&wire);
    let back = RecordSet::dec_vec(&mut d).expect("aggregate decodes");
    assert!(d.is_done());
    back
}

/// Compute rank `my`'s outgoing aggregate the way the worker does:
/// start from its own contribution, absorb each child subtree's
/// aggregate as it comes off the wire. `flip` (one bit per rank)
/// permutes the order children are absorbed in, modelling arbitrary
/// arrival order.
fn tree_aggregate(
    my: usize,
    shape: &Shape,
    ranks: &[Contribution],
    flip: u64,
) -> (Vc, Vec<Record>) {
    let own = &ranks[my];
    let mut vc = own.vc.clone();
    let mut records = own.records.clone();
    let mut seen: HashSet<(Pid, Seq)> = records.iter().map(|r| (r.pid, r.seq)).collect();
    let mut kids = shape.children(my).to_vec();
    if flip >> (my % 64) & 1 == 1 {
        kids.reverse();
    }
    for child in kids {
        let (child_vc, child_records) = tree_aggregate(child, shape, ranks, flip);
        let agg = (child_vc, over_the_wire(child_records));
        absorb(&mut vc, &mut records, &mut seen, agg);
    }
    (vc, records)
}

/// Flat collection at the root: absorb every rank directly, in the
/// order given by `order`.
fn flat_collect(n: usize, ranks: &[Contribution], order: &[usize]) -> (Vc, Vec<Record>) {
    let own = &ranks[0];
    let mut vc = own.vc.clone();
    let mut records = own.records.clone();
    let mut seen: HashSet<(Pid, Seq)> = records.iter().map(|r| (r.pid, r.seq)).collect();
    for &r in order {
        absorb(
            &mut vc,
            &mut records,
            &mut seen,
            (ranks[r].vc.clone(), ranks[r].records.clone()),
        );
    }
    debug_assert_eq!(order.len(), n - 1);
    (vc, records)
}

/// Canonical bytes of a record set: sort by `(pid, seq)` (the dedup
/// key — each key maps to one immutable record, so sorting erases the
/// arrival order) and encode.
fn canonical_bytes(mut records: Vec<Record>, encoding: Encoding) -> Vec<u8> {
    records.sort_by_key(|r| (r.pid, r.seq));
    let mut e = Enc::with_encoding(64, encoding);
    RecordSet::enc_slice(&records, &mut e);
    e.finish()
}

/// Build per-rank contributions from a compact spec:
/// `intervals[r]` = number of closed intervals at rank r (each writing
/// a small page set), `transfers` = (donor, carrier) pairs where the
/// carrier also holds the donor's first record (lock-transfer shape).
fn build_ranks(n: usize, intervals: &[u8], transfers: &[(usize, usize)]) -> Vec<Contribution> {
    let mut ranks: Vec<Contribution> = (0..n)
        .map(|r| {
            let k = intervals[r] as u32;
            let mut vc = Vc::new(n);
            vc.set(r as Pid, k);
            let records = (1..=k)
                .map(|s| rec(n, r as Pid, s, vec![r as u32 * 8, r as u32 * 8 + s]))
                .collect();
            Contribution { vc, records }
        })
        .collect();
    for &(donor, carrier) in transfers {
        let donor = donor % n;
        let carrier = carrier % n;
        if donor == carrier || intervals[donor] == 0 {
            continue;
        }
        let transferred = rec(
            n,
            donor as Pid,
            1,
            vec![donor as u32 * 8, donor as u32 * 8 + 1],
        );
        ranks[carrier].vc.raise(donor as Pid, 1);
        ranks[carrier].records.push(transferred);
    }
    ranks
}

proptest! {
    /// For any team size, interval population, lock-transfer pattern
    /// and arrival order: the root of the reduce shape holds exactly the
    /// flat-collection vector clock, and the record set is
    /// byte-identical under canonical order — in both wire encodings.
    #[test]
    fn prop_tree_reduce_equals_flat_collection(
        n in 2usize..33,
        paper in any::<bool>(),
        intervals in proptest::collection::vec(0u8..4, 33..34),
        transfers in proptest::collection::vec((0usize..33, 0usize..33), 0..5),
        flip in any::<u64>(),
        order_rev in any::<bool>(),
    ) {
        let ranks = build_ranks(n, &intervals, &transfers);

        let shape = reduce_shape(n, paper);
        let (tree_vc, tree_recs) = tree_aggregate(0, &shape, &ranks, flip);
        let mut order: Vec<usize> = (1..n).collect();
        if order_rev {
            order.reverse();
        }
        let (flat_vc, flat_recs) = flat_collect(n, &ranks, &order);

        prop_assert_eq!(&tree_vc, &flat_vc, "merged vector clocks diverge");
        for enc in [Encoding::Flat, Encoding::Runs] {
            prop_assert_eq!(
                canonical_bytes(tree_recs.clone(), enc),
                canonical_bytes(flat_recs.clone(), enc),
                "record sets diverge under {:?}",
                enc
            );
        }
    }

    /// Aggregation is insensitive to the order children's aggregates
    /// arrive in at every interior rank.
    #[test]
    fn prop_tree_reduce_arrival_order_invariant(
        n in 2usize..33,
        paper in any::<bool>(),
        intervals in proptest::collection::vec(1u8..3, 33..34),
        flip_a in any::<u64>(),
        flip_b in any::<u64>(),
    ) {
        let ranks = build_ranks(n, &intervals, &[]);
        let shape = reduce_shape(n, paper);
        let (vc_a, recs_a) = tree_aggregate(0, &shape, &ranks, flip_a);
        let (vc_b, recs_b) = tree_aggregate(0, &shape, &ranks, flip_b);
        prop_assert_eq!(vc_a, vc_b);
        prop_assert_eq!(
            canonical_bytes(recs_a, Encoding::Runs),
            canonical_bytes(recs_b, Encoding::Runs)
        );
    }
}

/// Deterministic pin of the adoption bookkeeping: when rank `dead`
/// vanishes mid-join, its children detect the failed send and escalate
/// to `dead`'s parent. Replaying that parent's coverage accounting
/// (subtree ranges plus the ancestor-chain walk from
/// `system::collect_joins`), the parent must end up waiting on nothing —
/// except `dead` itself when it was a leaf, whose arrival the adaptive
/// layer restores by migrating the process.
#[test]
fn adoption_coverage_is_exact() {
    for (n, paper) in (2..=40usize).flat_map(|n| [(n, false), (n, true)]) {
        let shape = reduce_shape(n, paper);
        for dead in 1..n {
            let my = shape.parent(dead);
            let sub = shape.subtree_size(my);
            let mut remaining: HashSet<usize> = (my + 1..my + sub).collect();
            // Senders: my's surviving children, plus dead's children
            // escalating past the vanished aggregator.
            let mut senders: Vec<usize> = shape
                .children(my)
                .iter()
                .copied()
                .filter(|&c| c != dead)
                .collect();
            let dead_children = shape.children(dead);
            let dead_is_leaf = dead_children.is_empty();
            senders.extend_from_slice(dead_children);
            for s in senders {
                for r in s..s + shape.subtree_size(s) {
                    remaining.remove(&r);
                }
                let mut a = shape.parent(s);
                while a != my && a != 0 {
                    remaining.remove(&a);
                    a = shape.parent(a);
                }
            }
            if dead_is_leaf {
                assert_eq!(
                    remaining,
                    HashSet::from([dead]),
                    "n={n} dead leaf {dead}: parent {my} must wait only for its return"
                );
            } else {
                assert!(
                    remaining.is_empty(),
                    "n={n} dead={dead}: parent {my} still waits on {remaining:?}"
                );
            }
        }
    }
}
