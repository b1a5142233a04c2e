//! Collective shapes: who relays `Fork`/`JoinInit`/`BarrierRelease` to
//! whom, and who aggregates whose `JoinArrive`.
//!
//! The flat broadcast serializes `n - 1` sends on the master's link, so
//! fork latency grows linearly with the team and caps virtual-timeline
//! speedups past ~8–16 nodes (the ceiling the what-if sweep exposed). A tree
//! rooted at rank 0 has each informed rank relay onward on *its own*
//! host link. Which tree is best depends on the ratio of a message's
//! per-send link occupancy (`gap`) to the rest of a hop (`hop`: flight
//! plus the relay's own overhead) — the LogP broadcast of Karp, Sahay,
//! Santos and Schauser (1993): every informed node keeps sending to a
//! new one as soon as its link is free. With `hop = 0` that is the
//! binomial tree; the dearer a hop is relative to a send, the flatter
//! and wider the optimal tree.
//!
//! The flat collective is the degenerate schedule in which only the
//! root sends, [`Shape::star`]. A system's `ShapeBook` hands it to every
//! `Broadcast::Flat` side, so flat and treed collectives share one path.
//!
//! [`Shape::greedy`] builds that schedule, and [`Shapes::for_team`]
//! instantiates it twice from the cost models, because the two
//! collectives pay different costs:
//!
//! * the **fork shape** disseminates: `gap` = sender occupancy of a
//!   steady-state `Fork`, `hop` = latency + relay overhead. It carries
//!   `Fork`, `JoinInit` and `BarrierRelease`;
//! * the **reduce shape** is the time-reversed schedule of the join:
//!   `gap` = the relay overhead of absorbing one aggregate, `hop` =
//!   sender occupancy of a one-record `JoinArrive` + latency + relay
//!   overhead. It carries `JoinArrive` aggregation.
//!
//! The barrier's `BarrierRelease`s travel the **release shape**: the
//! fork shape when the collection side (`join_reduce`) is treed, the
//! star when it is flat.
//!
//! Ranks are numbered in preorder, visiting children in reverse send
//! order, so every subtree is the contiguous rank range `[p, p + size)`:
//! a single sender pid identifies the whole aggregate it covers. Both
//! shapes are defined over team *ranks*, which the adaptive layer keeps
//! stable across reassignment (`ReassignPolicy::CompactKeepOrder`
//! preserves survivors' relative order, so a leave only compacts the
//! tree rather than reshuffling it). A relay that vanished between team
//! formation and a fork is handled by the sender *adopting* the missing
//! child's subtree (see [`crate::system`]).

use crate::config::{Broadcast, CollectiveConfig};
use crate::msg::Msg;
use crate::records::Record;
use crate::types::{Pid, Vc};
use nowmp_net::{CostModel, NetModel};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// A collective tree over team ranks `0..n`, rooted at rank 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    parent: Vec<usize>,
    /// Per rank, its children in send order.
    children: Vec<Vec<usize>>,
    /// Per rank, the size of its subtree (itself included).
    size: Vec<usize>,
}

impl Shape {
    /// The greedy broadcast schedule over `n` ranks: every informed
    /// node sends to a new node as soon as its link is free, a send
    /// occupying the sender's link for `gap` and informing its receiver
    /// `hop` after that. The horizon is the earliest time this schedule
    /// informs `n` nodes; the shape is the first `n` nodes of the
    /// schedule's tree at that horizon, in preorder with the last-sent
    /// child first — so it fills the cheap late subtrees and trims the
    /// deep early one. With `hop = 0` that is exactly the binomial tree
    /// (rank `p` relays to `p | mask` for every `mask` below its lowest
    /// set bit, largest subtree first). `gap = 0` counts as one tick.
    pub fn greedy(n: usize, gap: Duration, hop: Duration) -> Shape {
        let gap = (gap.as_nanos() as u64).max(1);
        let hop = hop.as_nanos() as u64;
        // The unbounded schedule, node by node in the order they are
        // informed: a pending send is (when its receiver is informed,
        // sender). Each node at the horizon is some earlier node's one
        // send landing exactly then, so fewer than 2n nodes are built.
        let mut kids: Vec<Vec<usize>> = vec![Vec::new()];
        let mut sends = BinaryHeap::from([Reverse((gap + hop, 0usize))]);
        let mut horizon = 0;
        while let Some(&Reverse((at, from))) = sends.peek() {
            if kids.len() >= n && at > horizon {
                break;
            }
            sends.pop();
            let node = kids.len();
            kids.push(Vec::new());
            kids[from].push(node);
            if kids.len() == n {
                horizon = at;
            }
            sends.push(Reverse((at + gap, from)));
            sends.push(Reverse((at + gap + hop, node)));
        }
        // Preorder, last-sent child first, cut at `n` ranks.
        let mut rank = vec![usize::MAX; kids.len()];
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            if order.len() == n {
                break;
            }
            rank[v] = order.len();
            order.push(v);
            stack.extend(&kids[v]);
        }
        let mut parent = vec![0; order.len()];
        let children: Vec<Vec<usize>> = order
            .iter()
            .map(|&v| {
                kids[v]
                    .iter()
                    .map(|&c| rank[c])
                    .filter(|&c| c != usize::MAX)
                    .collect()
            })
            .collect();
        for (p, cs) in children.iter().enumerate() {
            for &c in cs {
                parent[c] = p;
            }
        }
        let mut size = vec![1; order.len()];
        for r in (1..order.len()).rev() {
            size[parent[r]] += size[r];
        }
        Shape {
            parent,
            children,
            size,
        }
    }

    /// The flat collective over `n` ranks: rank 0 exchanges with every
    /// other rank itself, sending to `1..n` in ascending order (the
    /// 1999 system's loop order; a greedy star sends in descending
    /// order).
    pub fn star(n: usize) -> Shape {
        let mut shape = Shape {
            parent: vec![0; n],
            children: vec![Vec::new(); n],
            size: vec![1; n],
        };
        if n > 0 {
            shape.children[0] = (1..n).collect();
            shape.size[0] = n;
        }
        shape
    }

    /// Ranks the shape covers.
    pub fn nprocs(&self) -> usize {
        self.parent.len()
    }

    /// Children of rank `pid`, in send order (none outside the team).
    pub fn children(&self, pid: usize) -> &[usize] {
        self.children.get(pid).map_or(&[], Vec::as_slice)
    }

    /// Parent of rank `pid`. The root (rank 0) is its own parent, and so
    /// is anything outside the team.
    pub fn parent(&self, pid: usize) -> usize {
        self.parent.get(pid).copied().unwrap_or(0)
    }

    /// Number of ranks in the subtree rooted at `pid` (inclusive): the
    /// contiguous rank range `[pid, pid + subtree_size)`. Zero outside
    /// the team.
    pub fn subtree_size(&self, pid: usize) -> usize {
        self.size.get(pid).copied().unwrap_or(0)
    }

    /// Hops from the root to the deepest rank.
    pub fn depth(&self) -> usize {
        let mut hops = vec![0usize; self.nprocs()];
        for r in 1..self.nprocs() {
            hops[r] = hops[self.parent[r]] + 1; // preorder: parent first
        }
        hops.into_iter().max().unwrap_or(0)
    }

    /// When each rank is informed if every node sends to its children
    /// back to back, each send taking `gap` of its link and landing
    /// `hop` later (`gap = 0` counts as one tick, as in
    /// [`Self::greedy`]) — the shape's own modelled schedule.
    pub fn informed(&self, gap: Duration, hop: Duration) -> Vec<Duration> {
        let gap = gap.max(Duration::from_nanos(1));
        let mut at = vec![Duration::ZERO; self.nprocs()];
        for p in 0..self.nprocs() {
            for (k, &c) in self.children[p].iter().enumerate() {
                at[c] = at[p] + gap * (k as u32 + 1) + hop;
            }
        }
        at
    }
}

/// `(gap, hop)` of the fork shape over `n` ranks: the sender occupancy
/// of a steady-state `Fork`, and latency plus the relay's overhead.
pub fn fork_costs(n: usize, net: &NetModel, cost: &CostModel) -> (Duration, Duration) {
    let (vc, records) = steady_records(n, 0..n);
    let fork = Msg::Fork {
        epoch: 1,
        fork_no: 1,
        region: 0,
        params: Vec::new(),
        vc,
        records,
        registry_delta: Vec::new(),
        alloc_slots: 0,
    };
    (
        net.sender_time(fork.to_bytes().len()),
        net.latency() + cost.relay_time(),
    )
}

/// `(gap, hop)` of the reduce shape over `n` ranks: the relay overhead
/// of absorbing one aggregate, and the sender occupancy of a one-record
/// `JoinArrive` plus latency plus the absorbing relay's overhead.
///
/// The gap leaves out the aggregator's inbound-port time per arrival
/// (`receive_time`, the mirror of the fork's `sender_time`). The port
/// and the absorbing thread are separate resources, so consecutive
/// arrivals pipeline through them and a sum double-counts. Measured
/// on `jacobi32_current` (docs/BROADCAST.md, part 7), the port-aware
/// gaps both give slower shapes: the sum (81 µs at 32 ranks) reads
/// 0.0342 s against 0.0370 for the binomial tree, and the pipelined
/// `max(receive_time, relay_overhead)` (46 µs) reads 0.0329 on every
/// seed. This gap (35 µs) reads 0.0297 or 0.0329, depending on the
/// seed. What holds an aggregator's port in that run is mostly pushed
/// page diffs, which no per-arrival term models. Each extra level
/// crosses one more such port, so the flattest of the three shapes
/// wins. The cost: with a free host model (`relay_overhead = 0`) the
/// reduce shape is a star, i.e. flat collection.
pub fn reduce_costs(n: usize, net: &NetModel, cost: &CostModel) -> (Duration, Duration) {
    let last = n.saturating_sub(1);
    let (vc, records) = steady_records(n, last..n);
    let arrive = Msg::JoinArrive {
        epoch: 1,
        pid: last as Pid,
        vc,
        records,
        partials: Vec::new(),
    };
    (
        cost.relay_time(),
        net.sender_time(arrive.to_bytes().len()) + net.latency() + cost.relay_time(),
    )
}

/// The records of ranks `authors` after a steady-state region of an
/// `n`-rank team, and the clock that covers them: each record's clock
/// is the team's clock at the fork plus its author's new interval, and
/// each notice is the author's one-page block.
fn steady_records(n: usize, authors: std::ops::Range<usize>) -> (Vc, Vec<Record>) {
    let seq = 2;
    let mut base = Vc::new(n);
    for q in 0..n {
        base.set(q as Pid, seq - 1);
    }
    let mut vc = base.clone();
    let records = authors
        .map(|r| {
            vc.set(r as Pid, seq);
            let mut own = base.clone();
            own.set(r as Pid, seq);
            Record {
                pid: r as Pid,
                seq,
                vc: own,
                pages: vec![r as u32],
            }
        })
        .collect();
    (vc, records)
}

/// Both collective shapes of one team size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shapes {
    /// `Fork` and `JoinInit` dissemination.
    pub fork: Shape,
    /// `JoinArrive` aggregation.
    pub reduce: Shape,
    /// `BarrierRelease` dissemination: the fork shape under a treed
    /// collection side, the star under a flat one.
    pub release: Shape,
}

impl Shapes {
    /// The treed shapes of an `n`-rank team under the given models — a
    /// pure function of its arguments. Zero-cost models give the
    /// binomial tree for all three; the release is the fork shape.
    pub fn for_team(n: usize, net: &NetModel, cost: &CostModel) -> Shapes {
        let (gap, hop) = fork_costs(n, net, cost);
        let (rgap, rhop) = reduce_costs(n, net, cost);
        let fork = Shape::greedy(n, gap, hop);
        Shapes {
            release: fork.clone(),
            fork,
            reduce: Shape::greedy(n, rgap, rhop),
        }
    }
}

/// A system's shapes, computed once per team size on first use: the
/// model-derived shape for a `Broadcast::Tree` side of the system's
/// [`CollectiveConfig`], the star for a `Broadcast::Flat` one.
pub(crate) struct ShapeBook {
    net: NetModel,
    cost: CostModel,
    collectives: CollectiveConfig,
    by_team: Mutex<HashMap<usize, Arc<Shapes>>>,
}

impl ShapeBook {
    /// An empty book over the system's models and collectives.
    pub(crate) fn new(net: NetModel, cost: CostModel, collectives: CollectiveConfig) -> Self {
        ShapeBook {
            net,
            cost,
            collectives,
            by_team: Mutex::new(HashMap::new()),
        }
    }

    /// The shapes of an `n`-rank team.
    pub(crate) fn get(&self, n: usize) -> Arc<Shapes> {
        let (net, cost, sides) = (&self.net, &self.cost, self.collectives);
        let side = |b, (gap, hop)| match b {
            Broadcast::Flat => Shape::star(n),
            Broadcast::Tree => Shape::greedy(n, gap, hop),
        };
        let mut by_team = self.by_team.lock();
        Arc::clone(by_team.entry(n).or_insert_with(|| {
            let fork = side(sides.fork, fork_costs(n, net, cost));
            let release = match sides.join_reduce {
                Broadcast::Flat => Shape::star(n),
                Broadcast::Tree => fork.clone(),
            };
            Arc::new(Shapes {
                fork,
                reduce: side(sides.join_reduce, reduce_costs(n, net, cost)),
                release,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAPS: [Duration; 3] = [
        Duration::ZERO,
        Duration::from_nanos(1),
        Duration::from_micros(65),
    ];

    /// The binomial tree as the bit trick defines it: rank `p` relays to
    /// `p | mask` for every `mask` below its lowest set bit, largest
    /// subtree first.
    fn bit_children(pid: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut mask = 1usize;
        while mask < n && pid & mask == 0 {
            if pid | mask < n {
                out.push(pid | mask);
            }
            mask <<= 1;
        }
        out.reverse();
        out
    }

    fn binomial(n: usize) -> Shape {
        Shape::greedy(n, Duration::ZERO, Duration::ZERO)
    }

    fn paper(n: usize) -> Shapes {
        Shapes::for_team(n, &NetModel::paper_1999(), &CostModel::paper_1999())
    }

    /// Walk the shape from the root and return each rank's hop distance,
    /// panicking on double delivery.
    fn hops(s: &Shape) -> Vec<usize> {
        let n = s.nprocs();
        let mut dist = vec![usize::MAX; n];
        dist[0] = 0;
        let mut frontier = vec![0usize];
        while let Some(p) = frontier.pop() {
            for &c in s.children(p) {
                assert_eq!(dist[c], usize::MAX, "rank {c} delivered twice (n={n})");
                dist[c] = dist[p] + 1;
                frontier.push(c);
            }
        }
        dist
    }

    /// Collect the subtree rooted at `p` by walking `children`.
    fn subtree(s: &Shape, p: usize) -> Vec<usize> {
        let mut out = vec![p];
        let mut frontier = vec![p];
        while let Some(q) = frontier.pop() {
            for &c in s.children(q) {
                out.push(c);
                frontier.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// Every shape under test: binomial, both paper shapes and the
    /// star, n ≤ 64.
    fn all_shapes() -> Vec<Shape> {
        (1..=64)
            .flat_map(|n| {
                let p = paper(n);
                [binomial(n), p.fork, p.reduce, Shape::star(n)]
            })
            .collect()
    }

    /// The star is the 1999 flat loop: the root sends to `1..n` in
    /// ascending order, so each later rank is informed strictly later.
    #[test]
    fn star_sends_to_every_rank_in_ascending_order() {
        let (gap, hop) = (Duration::from_micros(65), Duration::from_micros(100));
        for n in 1..=64 {
            let s = Shape::star(n);
            assert_eq!(s.children(0), (1..n).collect::<Vec<_>>(), "n={n}");
            assert_eq!(s.depth(), usize::from(n > 1), "n={n}");
            for at in [s.informed(gap, hop), s.informed(Duration::ZERO, hop)] {
                assert!(at.windows(2).all(|w| w[0] < w[1]), "n={n}: {at:?}");
            }
        }
    }

    #[test]
    fn hop_zero_is_exactly_the_binomial_tree() {
        for n in 1..=64 {
            for gap in GAPS {
                let s = Shape::greedy(n, gap, Duration::ZERO);
                for p in 0..n {
                    assert_eq!(s.children(p), bit_children(p, n), "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn zero_cost_models_keep_the_binomial_tree() {
        for n in 1..=64 {
            let s = Shapes::for_team(n, &NetModel::disabled(), &CostModel::disabled());
            assert_eq!(s.fork, binomial(n), "fork n={n}");
            assert_eq!(s.reduce, binomial(n), "reduce n={n}");
        }
    }

    #[test]
    fn every_rank_covered_exactly_once() {
        for s in all_shapes() {
            let dist = hops(&s);
            assert!(
                dist.iter().all(|&d| d != usize::MAX),
                "n={}: some rank never receives the fork",
                s.nprocs()
            );
        }
    }

    #[test]
    fn depth_is_log_n() {
        for n in 1..=40 {
            let dist = hops(&binomial(n));
            let max = dist.into_iter().max().unwrap_or(0);
            assert_eq!(max, binomial(n).depth(), "n={n}");
        }
        let depth = |n| binomial(n).depth();
        assert_eq!(depth(1), 0);
        assert_eq!(depth(2), 1);
        assert_eq!(depth(6), 2, "truncated teams can beat ⌈log₂ n⌉");
        assert_eq!(depth(8), 3);
        assert_eq!(depth(9), 3);
        assert_eq!(depth(32), 5);
        for n in 2..=64usize {
            assert!(depth(n) <= n.next_power_of_two().trailing_zeros() as usize);
        }
    }

    #[test]
    fn root_fanout_is_logarithmic() {
        assert_eq!(binomial(32).children(0).len(), 5);
        assert_eq!(binomial(2).children(0), [1]);
        assert!(binomial(1).children(0).is_empty());
        // Largest subtree first: the rank-16 child roots 16 further
        // ranks and is released before the rank-1 leaf.
        assert_eq!(binomial(32).children(0), [16, 8, 4, 2, 1]);
    }

    #[test]
    fn interior_node_children() {
        // Rank 4 in an 8-team relays to 6 then 5; rank 6 relays to 7.
        let s = binomial(8);
        assert_eq!(s.children(4), [6, 5]);
        assert_eq!(s.children(6), [7]);
        assert!(s.children(7).is_empty());
        assert!(s.children(1).is_empty(), "odd ranks are leaves");
        assert!(s.children(8).is_empty(), "outside the team");
    }

    #[test]
    fn truncated_teams_skip_out_of_range_children() {
        // n = 6: rank 4's nominal child 6 does not exist.
        assert_eq!(binomial(6).children(4), [5]);
        assert_eq!(hops(&binomial(6)).len(), 6);
    }

    #[test]
    fn parent_inverts_children() {
        for s in all_shapes() {
            for p in 0..s.nprocs() {
                for &c in s.children(p) {
                    assert_eq!(s.parent(c), p, "n={} child {c} of {p}", s.nprocs());
                }
            }
            assert_eq!(s.parent(0), 0, "the root is its own parent");
        }
        let s = binomial(8);
        assert_eq!((s.parent(4), s.parent(6), s.parent(7)), (0, 4, 6));
    }

    #[test]
    fn subtree_is_contiguous_rank_range() {
        // The reduce path relies on this: a single sender pid identifies
        // its whole aggregated subtree as [pid, pid + subtree_size).
        for s in all_shapes() {
            let n = s.nprocs();
            for p in 0..n {
                let size = s.subtree_size(p);
                let expect: Vec<usize> = (p..p + size).collect();
                assert_eq!(subtree(&s, p), expect, "n={n} p={p}: not contiguous");
            }
            assert_eq!(s.subtree_size(0), n);
            assert_eq!(s.subtree_size(n), 0, "outside the team");
        }
        let s = binomial(8);
        assert_eq!(s.subtree_size(4), 4); // {4,5,6,7}
        assert_eq!(binomial(6).subtree_size(4), 2); // clipped: {4,5}
        assert_eq!(binomial(32).subtree_size(16), 16);
        assert_eq!(s.subtree_size(7), 1, "odd ranks are leaves");
    }

    /// Under the 1999 constants neither shape is slower than the
    /// binomial tree in the model both are derived from.
    #[test]
    fn paper_shapes_finish_no_later_than_binomial() {
        let (net, cost) = (NetModel::paper_1999(), CostModel::paper_1999());
        for n in 1..=64 {
            let s = paper(n);
            for (shape, (gap, hop)) in [
                (&s.fork, fork_costs(n, &net, &cost)),
                (&s.reduce, reduce_costs(n, &net, &cost)),
            ] {
                let last = |s: &Shape| s.informed(gap, hop).into_iter().max();
                let (greedy, binom) = (last(shape), last(&binomial(n)));
                assert!(greedy <= binom, "n={n}: {greedy:?} > binomial {binom:?}");
            }
        }
    }

    /// The shapes ISSUE 25 measured: at 32 ranks the fork is three hops
    /// deep with root fan-out 8, the reduce two hops with the root
    /// absorbing 11 aggregates (binomial: 5 and 5 both ways).
    #[test]
    fn paper_shapes_at_32_ranks() {
        let s = paper(32);
        assert_eq!((s.fork.depth(), s.fork.children(0).len()), (3, 8));
        assert_eq!((s.reduce.depth(), s.reduce.children(0).len()), (2, 11));
    }

    #[test]
    fn book_builds_each_team_size_once() {
        let book = |c| ShapeBook::new(NetModel::paper_1999(), CostModel::paper_1999(), c);
        let tree = book(CollectiveConfig::all_tree());
        let a = tree.get(16);
        assert!(Arc::ptr_eq(&a, &tree.get(16)));
        assert_eq!(*a, paper(16));
        assert_eq!(tree.get(3).fork.nprocs(), 3);
        // A flat side is the star; the other side keeps its model shape.
        // The release follows the collection side: the star when it is
        // flat, the fork shape (whichever that is) when it is treed.
        let star = Shape::star(16);
        let flat = book(CollectiveConfig::all_flat()).get(16);
        assert_eq!(
            (&flat.fork, &flat.reduce, &flat.release),
            (&star, &star, &star)
        );
        let mixed = book(CollectiveConfig::all_tree().with_join_reduce(Broadcast::Flat)).get(16);
        assert_eq!(
            (&mixed.fork, &mixed.reduce, &mixed.release),
            (&paper(16).fork, &star, &star)
        );
        let flat_fork = book(CollectiveConfig::all_tree().with_fork(Broadcast::Flat)).get(16);
        assert_eq!(
            (&flat_fork.fork, &flat_fork.reduce, &flat_fork.release),
            (&star, &paper(16).reduce, &star)
        );
    }
}
