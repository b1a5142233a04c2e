//! # nowmp-net
//!
//! A simulated **network of workstations** (NOW) with a switched,
//! full-duplex Ethernet — the experimental substrate of the PPoPP'99
//! paper (§5.1: 8 × 300 MHz Pentium II, 100 Mbps switched Ethernet,
//! UDP sockets, FreeBSD 2.2.6).
//!
//! We do not have a machine room of 1999 workstations, so this crate
//! provides the closest synthetic equivalent that exercises the same
//! code paths in the DSM above it:
//!
//! * [`Host`](net::Network::add_host) — a workstation: a full-duplex
//!   network link with independent per-direction accounting. A host
//!   models no processor: an urgently-migrated process *multiplexed*
//!   onto an already-busy node shares that node's links, and its
//!   compute is charged at the node's speed as if it ran alone;
//! * [`Endpoint`] — a process's mailbox. Endpoints are created on a
//!   host and can later be **re-labeled** onto another host (process
//!   migration);
//! * [`NetModel`] — the *wire* cost model: one-way latency, link
//!   bandwidth, per-message overhead. The model is enforced on the
//!   clock (senders hold their host link for the serialization time;
//!   receivers honor the propagation latency); under the free
//!   [`NetModel::disabled`] only statistics are recorded, keeping unit
//!   tests fast and deterministic;
//! * [`CostModel`] — the *host* cost model: process spawn delay,
//!   migration stream bandwidth, per-host relative speed and
//!   background-load factors, and per-kernel per-iteration compute
//!   costs calibrated to the §5.1 testbed. Both models share one
//!   canonical set of paper constants ([`cost::paper`]);
//! * [`NetStats`] — message/byte counters per host link. The paper's
//!   §5.4 key result ("the cost of adaptation is proportional to the
//!   maximum network traffic per link") is measured directly from these
//!   counters, which is why they are per-link rather than global: on a
//!   switched Ethernet "the network performance of individual links is
//!   independent of each other, so the link with the most traffic is
//!   the bottleneck".
//!
//! Messages are reliable and in-order (clock-bound
//! [`mod@nowmp_util::mailbox`]es over std's channel). The paper's
//! UDP transport implements request/reply reliability one layer up; we
//! collapse that into the simulated transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod model;
pub mod net;
pub mod stats;

pub use cost::CostModel;
pub use model::NetModel;
pub use net::{Endpoint, Incoming, NetError, Network, PendingCall, Replier};
pub use stats::{JobTraffic, LinkSnapshot, NetStats, StatsSnapshot};

use nowmp_util::wire::{Dec, Enc, Wire, WireError};

/// Identifier of a workstation (a simulated machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u16);

/// Globally unique identifier of a *process instance*.
///
/// Logical DSM process ids (ranks 0..n) are reassigned at adaptation
/// points; `Gpid`s never change for the lifetime of a process and are
/// what the transport routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gpid(pub u32);

impl Wire for HostId {
    fn enc(&self, e: &mut Enc) {
        e.put_u16(self.0);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(HostId(d.get_u16()?))
    }
}

impl Wire for Gpid {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.0);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(Gpid(d.get_u32()?))
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl std::fmt::Display for Gpid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}
