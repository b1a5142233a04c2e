//! Per-link traffic statistics.
//!
//! The paper's §5.4 micro-analysis hinges on the *maximum network
//! traffic per link*: on a switched Ethernet every host's link is
//! independent, so the busiest link bounds adaptation latency. We keep
//! one [`LinkStats`] per host (bytes/messages, in/out) plus global
//! counters, all updated with relaxed atomics on the send/reply paths.
//! Push traffic ([`crate::Endpoint::send_push`]) is counted like any
//! other and once more, network-wide, on its own, so a phase's
//! measurement can leave out the pushes still draining from the phase
//! before it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Mutable, shared traffic counters for one host's full-duplex link.
#[derive(Debug, Default)]
pub struct LinkStats {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    msgs_in: AtomicU64,
    msgs_out: AtomicU64,
}

impl LinkStats {
    pub(crate) fn record_out(&self, bytes: u64) {
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_in(&self, bytes: u64) {
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            msgs_in: self.msgs_in.load(Ordering::Relaxed),
            msgs_out: self.msgs_out.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of one link's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Bytes received by the host.
    pub bytes_in: u64,
    /// Bytes sent by the host.
    pub bytes_out: u64,
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
}

impl LinkSnapshot {
    /// Total bytes through the link (both directions).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Difference against an earlier snapshot (for interval measurement).
    pub fn since(&self, earlier: &LinkSnapshot) -> LinkSnapshot {
        LinkSnapshot {
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            msgs_in: self.msgs_in - earlier.msgs_in,
            msgs_out: self.msgs_out - earlier.msgs_out,
        }
    }
}

/// Network-wide statistics: global counters plus one [`LinkStats`] per
/// host. Host links are appended as hosts are added and never removed
/// (a departed workstation keeps its history).
#[derive(Debug, Default)]
pub struct NetStats {
    total_msgs: AtomicU64,
    total_bytes: AtomicU64,
    pushed_bytes: AtomicU64,
    links: parking_lot::RwLock<Vec<std::sync::Arc<LinkStats>>>,
}

impl NetStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_link(&self) -> std::sync::Arc<LinkStats> {
        let link = std::sync::Arc::new(LinkStats::default());
        self.links.write().push(std::sync::Arc::clone(&link));
        link
    }

    pub(crate) fn record_msg(&self, bytes: u64) {
        self.total_msgs.fetch_add(1, Ordering::Relaxed);
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count `bytes`, already recorded, as push traffic too.
    pub(crate) fn record_push(&self, bytes: u64) {
        self.pushed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            total_msgs: self.total_msgs.load(Ordering::Relaxed),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            pushed_bytes: self.pushed_bytes.load(Ordering::Relaxed),
            links: self.links.read().iter().map(|l| l.snapshot()).collect(),
        }
    }
}

/// Immutable snapshot of the whole network's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Messages sent network-wide.
    pub total_msgs: u64,
    /// Bytes sent network-wide (payload + headers).
    pub total_bytes: u64,
    /// Of `total_bytes`, those sent as pushes.
    pub pushed_bytes: u64,
    /// Per-host link snapshots, indexed by `HostId.0`.
    pub links: Vec<LinkSnapshot>,
}

/// Network traffic attributed to one job of a multi-tenant run.
///
/// Each job runs on its own `Network`, so a whole [`StatsSnapshot`]
/// belongs to exactly one job; this type just stamps the totals with
/// the owning job id so schedulers can merge per-tenant snapshots into
/// one accounting table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTraffic {
    /// Owning job id (0 = single-job runs).
    pub job: u32,
    /// Messages the job put on the wire.
    pub msgs: u64,
    /// Bytes the job put on the wire (payload + headers).
    pub bytes: u64,
}

impl StatsSnapshot {
    /// Attribute this snapshot's totals to `job` (see [`JobTraffic`]).
    pub fn attributed(&self, job: u32) -> JobTraffic {
        JobTraffic {
            job,
            msgs: self.total_msgs,
            bytes: self.total_bytes,
        }
    }

    /// The busiest link's total byte count — the §5.4 bottleneck metric.
    pub fn max_link_bytes(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.bytes_total())
            .max()
            .unwrap_or(0)
    }

    /// Index of the busiest link.
    pub fn max_link(&self) -> Option<usize> {
        (0..self.links.len()).max_by_key(|&i| self.links[i].bytes_total())
    }

    /// Counter difference against an earlier snapshot.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let links = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| match earlier.links.get(i) {
                Some(e) => l.since(e),
                None => *l,
            })
            .collect();
        StatsSnapshot {
            total_msgs: self.total_msgs - earlier.total_msgs,
            total_bytes: self.total_bytes - earlier.total_bytes,
            pushed_bytes: self.pushed_bytes - earlier.pushed_bytes,
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_accounting() {
        let s = NetStats::new();
        let a = s.add_link();
        let b = s.add_link();
        a.record_out(100);
        b.record_in(100);
        s.record_msg(100);
        a.record_out(50);
        b.record_in(50);
        s.record_msg(50);
        let snap = s.snapshot();
        assert_eq!(snap.total_msgs, 2);
        assert_eq!(snap.total_bytes, 150);
        assert_eq!(snap.links[0].bytes_out, 150);
        assert_eq!(snap.links[0].msgs_out, 2);
        assert_eq!(snap.links[1].bytes_in, 150);
        assert_eq!(snap.max_link_bytes(), 150);
    }

    #[test]
    fn since_subtracts() {
        let s = NetStats::new();
        let a = s.add_link();
        a.record_out(10);
        s.record_msg(10);
        let first = s.snapshot();
        a.record_out(7);
        s.record_msg(7);
        let second = s.snapshot();
        let d = second.since(&first);
        assert_eq!(d.total_bytes, 7);
        assert_eq!(d.total_msgs, 1);
        assert_eq!(d.links[0].bytes_out, 7);
        assert_eq!(d.links[0].msgs_out, 1);
    }

    #[test]
    fn since_with_new_links() {
        let s = NetStats::new();
        let a = s.add_link();
        a.record_out(10);
        s.record_msg(10);
        let first = s.snapshot();
        let b = s.add_link(); // a host joined later
        b.record_in(5);
        let second = s.snapshot();
        let d = second.since(&first);
        assert_eq!(d.links.len(), 2);
        assert_eq!(d.links[1].bytes_in, 5);
    }

    #[test]
    fn attributed_stamps_job_id() {
        let s = NetStats::new();
        let a = s.add_link();
        a.record_out(64);
        s.record_msg(64);
        let t = s.snapshot().attributed(7);
        assert_eq!(t.job, 7);
        assert_eq!(t.msgs, 1);
        assert_eq!(t.bytes, 64);
    }

    #[test]
    fn max_link_identifies_bottleneck() {
        let s = NetStats::new();
        let a = s.add_link();
        let b = s.add_link();
        let c = s.add_link();
        a.record_out(10);
        b.record_in(10);
        c.record_out(500);
        assert_eq!(s.snapshot().max_link(), Some(2));
    }
}
