//! The wire cost model — the network and nothing but the network.
//!
//! Host-side costs (process creation, the migration image stream,
//! per-host compute speeds, per-kernel iteration costs) live in
//! [`crate::CostModel`]; both models draw their paper defaults from the
//! shared [`crate::cost::paper`] constants. Defaults follow the paper's
//! §5.1 measurements on the 1999 testbed:
//!
//! | quantity | paper | model |
//! |---|---|---|
//! | 1-byte roundtrip | 126 µs | 2 × `one_way_latency` (63 µs) |
//! | full 4 KB page transfer | 1308 µs | latency + (4 KB + headers)/bandwidth + overheads |
//!
//! `time_scale` shrinks every emulated delay uniformly so benchmark runs
//! finish in minutes while preserving every *ratio* the paper reports.

use crate::cost::paper;
use std::time::Duration;

/// Wire cost model for the simulated NOW.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Enforce delays in real time (benches/examples). When `false`, the
    /// transport only counts traffic (unit tests).
    pub emulate: bool,
    /// One-way propagation + protocol latency per message.
    pub one_way_latency: Duration,
    /// Link bandwidth in bits per second (full duplex, per direction).
    pub bandwidth_bps: f64,
    /// Fixed per-message CPU cost charged at the sender in addition to
    /// serialization (UDP/IP stack traversal, interrupt handling).
    pub per_msg_overhead: Duration,
    /// Per-message header bytes added to every payload (Ethernet + IP +
    /// UDP + protocol header).
    pub header_bytes: usize,
    /// Multiply every emulated delay by this factor (1.0 = paper speed).
    pub time_scale: f64,
}

impl NetModel {
    /// No emulation: zero delays, counters only. The right model for
    /// correctness tests.
    pub fn disabled() -> Self {
        NetModel {
            emulate: false,
            one_way_latency: Duration::ZERO,
            bandwidth_bps: f64::INFINITY,
            per_msg_overhead: Duration::ZERO,
            header_bytes: paper::HEADER_BYTES,
            time_scale: 1.0,
        }
    }

    /// The paper's 1999 testbed: switched full-duplex 100 Mbps Ethernet,
    /// 126 µs 1-byte roundtrip (the host-side 8.1 MB/s migration stream
    /// and 0.7 s spawn moved to [`crate::CostModel::paper_1999`]).
    pub fn paper_1999() -> Self {
        NetModel {
            emulate: true,
            one_way_latency: paper::ONE_WAY_LATENCY,
            bandwidth_bps: paper::BANDWIDTH_BPS,
            per_msg_overhead: paper::PER_MSG_OVERHEAD,
            header_bytes: paper::HEADER_BYTES,
            time_scale: 1.0,
        }
    }

    /// The paper model with all delays scaled by `scale` (e.g. `0.1`
    /// makes benches 10× faster while preserving ratios). `scale` is
    /// sanitized: non-finite falls back to 1.0 and the rest clamps to
    /// [0, 1e6] — `Duration::mul_f64` panics on negative or
    /// overflowing scalars.
    pub fn paper_scaled(scale: f64) -> Self {
        let scale = if scale.is_finite() {
            scale.clamp(0.0, 1e6)
        } else {
            1.0
        };
        NetModel {
            time_scale: scale,
            ..Self::paper_1999()
        }
    }

    /// Scale a duration by `time_scale`, sanitized the same way as
    /// [`NetModel::paper_scaled`]. `time_scale` is a `pub` field, so
    /// the guard must live here to cover every construction path —
    /// `Duration::mul_f64` panics on negative or overflowing scalars.
    #[inline]
    pub fn scaled(&self, d: Duration) -> Duration {
        let s = if self.time_scale.is_finite() {
            self.time_scale.clamp(0.0, 1e6)
        } else {
            1.0
        };
        if (s - 1.0).abs() < f64::EPSILON {
            d
        } else {
            d.mul_f64(s)
        }
    }

    /// Wire serialization time for a message of `payload` bytes
    /// (headers added), before scaling.
    pub fn serialize_time(&self, payload: usize) -> Duration {
        if !self.bandwidth_bps.is_finite() {
            return Duration::ZERO;
        }
        let bits = ((payload + self.header_bytes) as f64) * 8.0;
        Duration::from_secs_f64(bits / self.bandwidth_bps)
    }

    /// Total sender-side occupancy for a message: serialization plus
    /// fixed per-message overhead (scaled).
    pub fn sender_time(&self, payload: usize) -> Duration {
        self.scaled(self.serialize_time(payload) + self.per_msg_overhead)
    }

    /// Total receiver-side inbound occupancy for a message: the wire
    /// drains it for its serialization time and the receiving CPU pays
    /// the fixed per-message overhead (interrupt + dispatch) before
    /// the next converging message can be admitted (scaled). See
    /// `HostRec::receive_at` in `net.rs` for how this composes with
    /// cut-through delivery.
    pub fn receive_time(&self, payload: usize) -> Duration {
        self.scaled(self.serialize_time(payload) + self.per_msg_overhead)
    }

    /// Propagation latency (scaled).
    pub fn latency(&self) -> Duration {
        self.scaled(self.one_way_latency)
    }

    /// Round-trip time of a fetch: a small request out (16-byte
    /// header-only message), the `payload`-byte reply back. This is
    /// the delivery delay the task-backed engine charges a host per
    /// remote page fault — the wakeup deadline it parks the faulting
    /// task until.
    pub fn fetch_rtt(&self, payload: usize) -> Duration {
        self.latency() * 2 + self.sender_time(16) + self.receive_time(payload)
    }

    /// Virtual time for an `nprocs`-wide barrier: a dissemination
    /// schedule of `ceil(log2 n)` rounds, each round one header-only
    /// message exchange (gather + release ⇒ ×2). The task-backed
    /// engine uses this to place the barrier-release wakeup after the
    /// last arrival.
    pub fn barrier_time(&self, nprocs: usize) -> Duration {
        if nprocs <= 1 {
            return Duration::ZERO;
        }
        let rounds = usize::BITS - (nprocs - 1).leading_zeros();
        (self.latency() + self.sender_time(0)) * 2 * rounds
    }
}

impl Default for NetModel {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_is_free() {
        let m = NetModel::disabled();
        assert_eq!(m.sender_time(1 << 20), Duration::ZERO);
        assert_eq!(m.latency(), Duration::ZERO);
    }

    #[test]
    fn paper_roundtrip_is_126us() {
        let m = NetModel::paper_1999();
        let rtt = m.latency() * 2;
        assert_eq!(rtt, Duration::from_micros(126));
    }

    #[test]
    fn page_serialization_near_paper() {
        let m = NetModel::paper_1999();
        // 4 KB + headers at 100 Mbps ≈ 331 µs of wire time.
        let t = m.serialize_time(4096);
        assert!(
            t > Duration::from_micros(300) && t < Duration::from_micros(400),
            "{t:?}"
        );
    }

    #[test]
    fn time_scale_shrinks_everything() {
        let m = NetModel::paper_scaled(0.1);
        assert_eq!(m.latency(), Duration::from_micros(63).mul_f64(0.1));
    }

    #[test]
    fn fetch_rtt_exceeds_wire_rtt_by_message_costs() {
        let m = NetModel::paper_1999();
        let rtt = m.fetch_rtt(4096);
        assert!(rtt > m.latency() * 2, "{rtt:?}");
        assert!(rtt >= m.latency() * 2 + m.receive_time(4096), "{rtt:?}");
        assert_eq!(NetModel::disabled().fetch_rtt(4096), Duration::ZERO);
    }

    #[test]
    fn barrier_time_grows_logarithmically() {
        let m = NetModel::paper_1999();
        assert_eq!(m.barrier_time(1), Duration::ZERO);
        let b2 = m.barrier_time(2); // 1 round
        let b32 = m.barrier_time(32); // 5 rounds
        let b33 = m.barrier_time(33); // 6 rounds
        assert_eq!(b32, b2 * 5);
        assert_eq!(b33, b2 * 6);
    }
}
