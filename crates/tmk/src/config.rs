//! DSM configuration.

use nowmp_util::wire::Encoding;
use std::sync::Arc;
use std::time::Duration;

/// Shape of one cluster-wide collective: how a root-anchored message
/// wave traverses the team (fork dissemination, or the collection side
/// — join reduction and barrier release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Broadcast {
    /// Master exchanges with every slave itself: `n - 1` messages
    /// serialized at the master (the original TreadMarks shape, and the
    /// A/B baseline of `paper scale`'s `flat/…` lanes) — the star
    /// [`crate::tree::Shape::star`].
    Flat,
    /// Trees over team rank order, shaped by the cost model: the master
    /// exchanges with a few children who relay/aggregate onward on
    /// their own links (see [`crate::tree`]; binomial when hops are
    /// free).
    #[default]
    Tree,
}

/// The shape of every cluster-wide collective, configured in one
/// place. The two sides of the fork/join/barrier protocol are
/// independent flat-vs-tree choices:
///
/// * `fork` — downstream `Fork`/`JoinInit` dissemination (the fork
///   shape);
/// * `join_reduce` — the collection side: every arrival, at a barrier
///   or at the join, up the reduce shape (children aggregate their
///   subtree's records + vector clocks into one `JoinArrive`), and the
///   barrier release down the release shape: the fork shape under
///   `Tree`, the star under `Flat`.
///
/// A `Flat` side is the star shape, over the same code as a `Tree` one.
///
/// `fork` doubles as the wire-compatibility switch: `Broadcast::Flat`
/// there keeps every payload byte-identical to the 1999 flat encoding
/// (the Table 1/2 calibration assumption), which is why
/// [`DsmConfig::generation_1999`] pins [`CollectiveConfig::all_flat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectiveConfig {
    /// `Fork`/`JoinInit` dissemination shape.
    pub fork: Broadcast,
    /// Collection-side shape: arrivals (barrier and join) and barrier
    /// release.
    pub join_reduce: Broadcast,
}

impl CollectiveConfig {
    /// Every collective flat: the 1999 system's shape, byte-identical
    /// wire payloads — what the Table 1/2 pins assume.
    pub fn all_flat() -> Self {
        CollectiveConfig {
            fork: Broadcast::Flat,
            join_reduce: Broadcast::Flat,
        }
    }

    /// Every collective over its model-shaped tree (the default).
    pub fn all_tree() -> Self {
        CollectiveConfig {
            fork: Broadcast::Tree,
            join_reduce: Broadcast::Tree,
        }
    }

    /// Wire encoding of every message a process produces. Follows
    /// `fork`: the flat fork is the 1999 generation, whose payload
    /// sizes [`Encoding::Flat`] keeps; the treed fork uses
    /// [`Encoding::Runs`].
    pub fn encoding(&self) -> Encoding {
        match self.fork {
            Broadcast::Flat => Encoding::Flat,
            Broadcast::Tree => Encoding::Runs,
        }
    }

    /// Whether a region's `reduction` clause rides its join: each rank's
    /// partial travels up the reduce shape in its `JoinArrive` and the
    /// master folds them, instead of the scratch-page protocol
    /// (publish, barrier, fetch every writer's diff, barrier). Follows
    /// [`Self::encoding`]: the 1999 generation keeps the scratch and
    /// its bytes, the current one rides the join. Both engines decide
    /// here.
    pub fn reduces_at_join(&self) -> bool {
        self.encoding() == Encoding::Runs
    }

    /// Builder: set the fork dissemination shape.
    pub fn with_fork(mut self, b: Broadcast) -> Self {
        self.fork = b;
        self
    }

    /// Builder: set the collection-side shape (join reduce and
    /// barrier release).
    pub fn with_join_reduce(mut self, b: Broadcast) -> Self {
        self.join_reduce = b;
        self
    }
}

/// The data plane: how the DSM hides demand-paging latency behind
/// computation (ISSUE 7). One switch with two values, because the two
/// generations are the only configurations anything runs.
///
/// [`DataPlaneConfig::Overlap`] (the default) turns on three levers:
///
/// * pipeline ([`pipeline`](Self::pipeline)) — scatter-gather requests:
///   a multi-creator diff fault sends every `DiffReq` before collecting
///   any reply, paying the max of the creators' latencies instead of
///   the sum (and a page collection, a GC and a commit likewise);
/// * push (gated on [`pipeline`](Self::pipeline) too) — the *writer
///   push*: a demand fault inside a region body marks its `PageReq`
///   or `DiffReq`, which subscribes the faulting rank, and the reply
///   acknowledges it with the server's last closed seq; from then
///   until the next commit the server sends every diff of those pages
///   it closes after that seq, unasked (`Msg::DiffPush`), and the
///   reader expects each one, the first included. A page is
///   therefore asked for once per epoch and pushed from then on; in
///   steady state no request crosses the wire after a release. Faults
///   outside a region body (the master's sequential phase, a GC fetch,
///   a checkpoint collection) never subscribe, and under `Demand`
///   nothing does, so no reader set, no push and no wait exists;
/// * whole-page completion (gated on [`pipeline`](Self::pipeline) too)
///   — a page collection's (a GC completion's) `DiffReq` that asks a
///   creator for two or more diffs of one page is marked
///   `whole_if_smaller`, and the creator
///   sends the page instead of the chain when the page is smaller; at
///   a leave that moves the leaver's pages whole. Under `Demand` the
///   chain moves, as in 1999;
/// * fresh pages made where they fault (gated on
///   [`pipeline`](Self::pipeline) too) — in a team of two or more, a
///   page allocated since the team was installed is zeros plus its
///   writers' diffs: a fault with no copy makes the zero page and asks
///   only the writers its notices name for their diffs, in one round,
///   and asks nothing when it holds no notice (`ProcCore::made_here`).
///   Its owner makes it the same way, shared, so every write to it
///   leaves a notice;
/// * cold fetches spread (gated on [`pipeline`](Self::pipeline) too) —
///   a fault on a page allocated before the last commit that it holds
///   no copy of asks one of the writers tied at the newest vcsum,
///   picked by the faulting rank, instead of the same one for every
///   reader (`ProcCore::holder`), and the other tied writers for their
///   diffs in the same round.
///
/// Under either plane a `Fork` or `BarrierRelease` carries write
/// notices and never diffs: a reader fetches (or is pushed) the diffs
/// it faults on, as in TreadMarks.
///
/// Push traffic pays the same wire and admission costs as demand
/// traffic ([`NetModel::receive_time`] et al.) — overlap hides
/// latency, it never un-charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPlaneConfig {
    /// The faithful 1999 demand-paging data plane: every fault blocks
    /// on sequential round-trips, nothing moves ahead of demand —
    /// byte-identical wire payloads, what the Table 1/2 pins assume.
    Demand,
    /// Fully overlapped data plane: pipelined requests, the writer push
    /// a region's faults subscribe to, whole-page completion.
    #[default]
    Overlap,
}

impl DataPlaneConfig {
    /// [`DataPlaneConfig::Demand`] (a function because the frozen
    /// `benchmark/` harness spells it this way).
    pub fn demand() -> Self {
        DataPlaneConfig::Demand
    }

    /// [`DataPlaneConfig::Overlap`]; see [`Self::demand`].
    pub fn overlap() -> Self {
        DataPlaneConfig::Overlap
    }

    /// Scatter-gather requests (send all, then collect), and the writer
    /// push a region's faults subscribe to.
    pub fn pipeline(self) -> bool {
        self == DataPlaneConfig::Overlap
    }
}

/// Tunable parameters of the DSM protocol.
#[derive(Clone)]
pub struct DsmConfig {
    /// Page size in bytes (power of two, ≥ 64; paper/TreadMarks: 4096).
    pub page_size: usize,
    /// Diff bytes any one process may store before a garbage collection
    /// runs at the next fork, whether or not the OpenMP dynamic switch
    /// lets the team change (TreadMarks collects when any processor's
    /// consistency memory runs low). The budget is per process: the
    /// master counts its own diffs exactly and bounds every other
    /// rank's from the write notices it holds, one page per notice, so
    /// a rank writing sparse diffs is collected early.
    pub gc_diff_threshold: usize,
    /// Deadline for any single protocol request (turns protocol
    /// deadlocks into errors instead of hangs).
    pub call_timeout: Duration,
    /// Optional hook invoked at every synchronization operation and
    /// page fault; the adaptive layer installs the migration freeze
    /// gate here ("all processes wait for the completion of the
    /// migration").
    pub throttle: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Shape of every cluster-wide collective (fork dissemination;
    /// join reduction and barrier release). Default: all tree.
    pub collectives: CollectiveConfig,
    /// Data plane: demand paging or fully overlapped (the default).
    pub dataplane: DataPlaneConfig,
}

impl std::fmt::Debug for DsmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmConfig")
            .field("page_size", &self.page_size)
            .field("gc_diff_threshold", &self.gc_diff_threshold)
            .field("call_timeout", &self.call_timeout)
            .field("throttle", &self.throttle.as_ref().map(|_| "<hook>"))
            .field("collectives", &self.collectives)
            .field("dataplane", &self.dataplane)
            .finish()
    }
}

impl DsmConfig {
    /// TreadMarks-like defaults: 4 KB pages, 8 MB diff budget.
    pub fn default_4k() -> Self {
        DsmConfig {
            page_size: 4096,
            gc_diff_threshold: 8 << 20,
            call_timeout: Duration::from_secs(120),
            throttle: None,
            collectives: CollectiveConfig::default(),
            dataplane: DataPlaneConfig::default(),
        }
    }

    /// Builder: set the data plane.
    pub fn with_dataplane(mut self, dataplane: DataPlaneConfig) -> Self {
        self.dataplane = dataplane;
        self
    }

    /// Builder: set the collective shapes.
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.collectives = collectives;
        self
    }

    /// Builder: the paper's 1999 TreadMarks generation — every
    /// collective flat (hence [`Encoding::Flat`] payloads) and the
    /// demand data plane. What the Table 1/2 calibration assumes; the
    /// one place the paper reproducers pin it.
    pub fn generation_1999(self) -> Self {
        self.with_collectives(CollectiveConfig::all_flat())
            .with_dataplane(DataPlaneConfig::demand())
    }

    /// Small pages for tests: exercises multi-page logic with tiny data.
    pub fn test_small() -> Self {
        DsmConfig {
            page_size: 256,
            gc_diff_threshold: 1 << 20,
            ..Self::default_4k()
        }
    }

    /// Slots (8-byte words) per page.
    pub fn slots_per_page(&self) -> usize {
        self.page_size / 8
    }

    /// Validate invariants; panics on nonsense configurations.
    pub fn validate(&self) {
        assert!(self.page_size >= 64, "page_size must be >= 64");
        assert!(
            self.page_size.is_power_of_two(),
            "page_size must be a power of two"
        );
        assert_eq!(
            self.page_size % 8,
            0,
            "page_size must hold whole 8-byte slots"
        );
    }
}

impl Default for DsmConfig {
    fn default() -> Self {
        Self::default_4k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        DsmConfig::default_4k().validate();
        DsmConfig::test_small().validate();
    }

    #[test]
    fn collective_builders() {
        let c = DsmConfig::default_4k();
        assert_eq!(c.collectives, CollectiveConfig::all_tree());
        let flat = DsmConfig::default_4k().with_collectives(CollectiveConfig::all_flat());
        assert_eq!(flat.collectives.fork, Broadcast::Flat);
        assert_eq!(flat.collectives.join_reduce, Broadcast::Flat);
        let mixed = DsmConfig::default_4k()
            .with_collectives(CollectiveConfig::all_tree().with_join_reduce(Broadcast::Flat));
        assert_eq!(mixed.collectives.fork, Broadcast::Tree);
        assert_eq!(mixed.collectives.join_reduce, Broadcast::Flat);
    }

    #[test]
    fn dataplane_values_are_pinned() {
        assert_eq!(
            DsmConfig::default_4k().dataplane,
            DataPlaneConfig::overlap()
        );
        assert!(DataPlaneConfig::overlap().pipeline());
        assert!(!DataPlaneConfig::demand().pipeline());
    }

    #[test]
    fn generation_1999_is_the_harness_spelling() {
        let pinned = DsmConfig::default_4k().generation_1999();
        let spelled = DsmConfig::default_4k()
            .with_collectives(CollectiveConfig::all_flat())
            .with_dataplane(DataPlaneConfig::demand());
        // `DsmConfig` holds a hook, so it has no `PartialEq`; its
        // `Debug` prints every field.
        assert_eq!(format!("{pinned:?}"), format!("{spelled:?}"));
        assert_eq!(pinned.dataplane, DataPlaneConfig::Demand);
        assert_eq!(pinned.collectives.encoding(), Encoding::Flat);
    }

    #[test]
    fn slots_per_page() {
        assert_eq!(DsmConfig::default_4k().slots_per_page(), 512);
        assert_eq!(DsmConfig::test_small().slots_per_page(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        let cfg = DsmConfig {
            page_size: 1000,
            ..DsmConfig::default_4k()
        };
        cfg.validate();
    }
}
