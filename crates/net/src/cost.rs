//! The host-side cost model: what *computation* costs, per host.
//!
//! [`NetModel`](crate::NetModel) is purely the wire (latency, bandwidth,
//! per-message overhead). Everything a *workstation* charges lives
//! here:
//!
//! * **process creation** (`spawn_delay`, paper §5.1: 0.6–0.8 s) and the
//!   **migration image stream** (`migration_bandwidth`, paper: 8.1 MB/s
//!   through `libckpt`) — host-side costs that used to live in
//!   `NetModel`;
//! * **per-host relative speed factors** and **background-load
//!   factors** — the heterogeneous/loaded-NOW what-if knobs no real
//!   testbed could sweep;
//! * **per-kernel per-iteration compute costs**, FLOP-calibrated to the
//!   paper's testbed (§5.1: 300 MHz Pentium II). The OpenMP layer
//!   charges `region_cost × iterations / effective_speed(host)` to the
//!   cluster clock at every worksharing chunk boundary, which is what
//!   makes virtual-clock runs *quantitatively* comparable to Table 1/2
//!   rather than merely ordering-faithful.
//!
//! Shared constants with `NetModel` come from [`paper`], the single
//! source of truth for the §5.1 measurements.

use std::collections::HashMap;
use std::time::Duration;

/// The §5.1 testbed measurements — the one canonical source shared by
/// [`crate::NetModel::paper_1999`] and [`CostModel::paper_1999`].
pub mod paper {
    use std::time::Duration;

    /// One-way propagation + protocol latency (half the 126 µs 1-byte
    /// roundtrip).
    pub const ONE_WAY_LATENCY: Duration = Duration::from_micros(63);
    /// Switched full-duplex Ethernet, per direction.
    pub const BANDWIDTH_BPS: f64 = 100e6;
    /// Fixed per-message CPU cost at the sender (UDP/IP stack).
    pub const PER_MSG_OVERHEAD: Duration = Duration::from_micros(35);
    /// Ethernet + IP + UDP + protocol header bytes per message.
    pub const HEADER_BYTES: usize = 42;
    /// Checkpoint-based migration stream through `libckpt`.
    pub const MIGRATION_BANDWIDTH: f64 = 8.1e6;
    /// Process creation on a workstation (paper: 0.6–0.8 s).
    pub const SPAWN_DELAY: Duration = Duration::from_millis(700);
    /// CPU cost of receiving-and-forwarding one broadcast message at an
    /// interior fork-tree relay: one inbound stack traversal, mirroring
    /// the sender-side [`PER_MSG_OVERHEAD`] (the outbound forward
    /// additionally pays normal sender occupancy on the relay's link).
    pub const RELAY_OVERHEAD: Duration = PER_MSG_OVERHEAD;
    /// Calibrated sustained FLOP rate of one 300 MHz Pentium II on the
    /// paper's dense-loop kernels — roughly 10% of the 300 MFLOPS peak,
    /// the classic sustained fraction for memory-bound stencils on 1999
    /// SDRAM (one 8-byte load per flop at ~250 MB/s effective). All
    /// per-iteration kernel costs divide by this.
    pub const FLOPS: f64 = 30e6;
}

/// Per-host compute cost model for the simulated NOW.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Charge per-iteration compute costs to the clock at worksharing
    /// chunk boundaries. Off by default: benches on the *real* clock
    /// would otherwise sleep for every modeled FLOP. Virtual-clock
    /// what-if runs switch it on to get quantitative timelines.
    pub emulate_compute: bool,
    /// Cost of creating a new process on a host (paper: 0.6–0.8 s).
    pub spawn_delay: Duration,
    /// Bandwidth of the process-image migration stream (paper: 8.1 MB/s).
    pub migration_bandwidth: f64,
    /// Per-message CPU cost of forwarding a broadcast at an interior
    /// fork-tree relay (paper: [`paper::RELAY_OVERHEAD`]). Charged by
    /// the relaying worker on top of its normal sender-side link
    /// occupancy, so the virtual clock prices the tree's extra hops
    /// honestly instead of making relaying free.
    pub relay_overhead: Duration,
    /// Sustained FLOP rate of a speed-1.0 host (paper: [`paper::FLOPS`]).
    pub flops_per_sec: f64,
    /// Relative speed factor per host id (missing ⇒ 1.0). 2.0 = twice
    /// as fast as the reference workstation.
    pub host_speeds: Vec<f64>,
    /// Background load per host id (missing ⇒ 0.0). A load of 1.0 means
    /// one competing process: effective speed halves.
    pub host_loads: Vec<f64>,
    /// Per-iteration compute cost of each named region at speed 1.0
    /// (one "iteration" = one index of the region's worksharing loop).
    pub region_costs: HashMap<String, Duration>,
    /// Multiply every emulated delay by this factor (1.0 = paper speed).
    pub time_scale: f64,
}

impl CostModel {
    /// No emulation: zero delays, infinite speeds. The right model for
    /// correctness tests.
    pub fn disabled() -> Self {
        CostModel {
            emulate_compute: false,
            spawn_delay: Duration::ZERO,
            migration_bandwidth: f64::INFINITY,
            relay_overhead: Duration::ZERO,
            flops_per_sec: f64::INFINITY,
            host_speeds: Vec::new(),
            host_loads: Vec::new(),
            region_costs: HashMap::new(),
            time_scale: 1.0,
        }
    }

    /// The paper's 1999 testbed: homogeneous 300 MHz Pentium IIs,
    /// 8.1 MB/s migration stream, 0.7 s spawn. Compute charging stays
    /// off until a kernel profile is installed (see
    /// [`Self::with_region_cost`]).
    pub fn paper_1999() -> Self {
        CostModel {
            emulate_compute: false,
            spawn_delay: paper::SPAWN_DELAY,
            migration_bandwidth: paper::MIGRATION_BANDWIDTH,
            relay_overhead: paper::RELAY_OVERHEAD,
            flops_per_sec: paper::FLOPS,
            host_speeds: Vec::new(),
            host_loads: Vec::new(),
            region_costs: HashMap::new(),
            time_scale: 1.0,
        }
    }

    /// The paper model with all delays scaled by `scale` (sanitized the
    /// same way as [`crate::NetModel::paper_scaled`]).
    pub fn paper_scaled(scale: f64) -> Self {
        let scale = if scale.is_finite() {
            scale.clamp(0.0, 1e6)
        } else {
            1.0
        };
        CostModel {
            time_scale: scale,
            ..Self::paper_1999()
        }
    }

    /// Install a per-iteration cost for `region` and switch compute
    /// charging on (builder style).
    pub fn with_region_cost(mut self, region: &str, per_iter: Duration) -> Self {
        self.region_costs.insert(region.to_owned(), per_iter);
        self.emulate_compute = true;
        self
    }

    /// Set the relative speed factor of `host` (builder style).
    pub fn with_host_speed(mut self, host: crate::HostId, speed: f64) -> Self {
        let i = host.0 as usize;
        if self.host_speeds.len() <= i {
            self.host_speeds.resize(i + 1, 1.0);
        }
        self.host_speeds[i] = speed;
        self
    }

    /// Set the background-load factor of `host` (builder style).
    pub fn with_host_load(mut self, host: crate::HostId, load: f64) -> Self {
        let i = host.0 as usize;
        if self.host_loads.len() <= i {
            self.host_loads.resize(i + 1, 0.0);
        }
        self.host_loads[i] = load;
        self
    }

    /// Relative speed factor of `host` (1.0 when unspecified).
    pub fn speed(&self, host: crate::HostId) -> f64 {
        self.host_speeds
            .get(host.0 as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Background load of `host` (0.0 when unspecified).
    pub fn load(&self, host: crate::HostId) -> f64 {
        self.host_loads.get(host.0 as usize).copied().unwrap_or(0.0)
    }

    /// Effective speed of `host`: `speed / (1 + load)` — a static
    /// background load of 1.0 (one competing process outside the
    /// simulation) halves throughput. Processes the simulation itself
    /// places on the host do not count (see ROADMAP item 15). Clamped
    /// away from zero so charges stay finite.
    pub fn effective_speed(&self, host: crate::HostId) -> f64 {
        let s = self.speed(host) / (1.0 + self.load(host).max(0.0));
        if s.is_finite() {
            s.max(1e-9)
        } else {
            1.0
        }
    }

    /// Per-iteration compute cost of `region` at speed 1.0
    /// ([`Duration::ZERO`] when unprofiled or compute charging is off).
    pub fn region_cost(&self, region: &str) -> Duration {
        if !self.emulate_compute {
            return Duration::ZERO;
        }
        self.region_costs
            .get(region)
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Time `flops` floating-point operations take at speed 1.0
    /// (unscaled; callers divide by [`Self::effective_speed`]).
    pub fn flops_time(&self, flops: f64) -> Duration {
        if !self.flops_per_sec.is_finite() || self.flops_per_sec <= 0.0 || flops <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(flops / self.flops_per_sec)
    }

    /// Compute charge for `iters` iterations of a region with per-iter
    /// cost `per_iter`, run on `host` (scaled, speed-adjusted).
    pub fn compute_time(&self, per_iter: Duration, iters: u64, host: crate::HostId) -> Duration {
        if per_iter.is_zero() || iters == 0 {
            return Duration::ZERO;
        }
        self.scaled(
            per_iter
                .mul_f64(iters as f64)
                .div_f64(self.effective_speed(host)),
        )
    }

    /// Compute charge for an explicit FLOP count run on `host` (scaled,
    /// speed-adjusted) — what `charge_flops` costs on either engine.
    /// Zero unless compute charging is enabled.
    pub fn flops_charge(&self, flops: f64, host: crate::HostId) -> Duration {
        if !self.emulate_compute {
            return Duration::ZERO;
        }
        self.scaled(self.flops_time(flops).div_f64(self.effective_speed(host)))
    }

    /// Scale a duration by `time_scale`, sanitized the same way as
    /// [`crate::NetModel::scaled`] (the field is `pub`, so the guard
    /// must cover every construction path).
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

    /// Process creation delay (scaled).
    pub fn spawn_time(&self) -> Duration {
        self.scaled(self.spawn_delay)
    }

    /// CPU cost of forwarding one broadcast message at a fork-tree
    /// relay (scaled).
    pub fn relay_time(&self) -> Duration {
        self.scaled(self.relay_overhead)
    }

    /// Time to stream a migration image of `bytes` (scaled), excluding
    /// spawn cost.
    pub fn migration_time(&self, bytes: usize) -> Duration {
        if !self.migration_bandwidth.is_finite() {
            return Duration::ZERO;
        }
        self.scaled(Duration::from_secs_f64(
            bytes as f64 / self.migration_bandwidth,
        ))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostId;

    #[test]
    fn disabled_model_is_free() {
        let m = CostModel::disabled();
        assert_eq!(m.spawn_time(), Duration::ZERO);
        assert_eq!(m.migration_time(50 << 20), Duration::ZERO);
        assert_eq!(m.region_cost("jacobi_sweep"), Duration::ZERO);
        assert_eq!(m.flops_time(1e9), Duration::ZERO);
    }

    /// The satellite pin: both models' `paper_1999()` constructors draw
    /// the §5.1 numbers from one constants module — 63 µs one-way,
    /// 8.1 MB/s migration, 0.7 s spawn.
    #[test]
    fn paper_constants_single_source_of_truth() {
        let cost = CostModel::paper_1999();
        let net = crate::NetModel::paper_1999();
        assert_eq!(net.one_way_latency, Duration::from_micros(63));
        assert_eq!(net.one_way_latency, paper::ONE_WAY_LATENCY);
        assert_eq!(cost.migration_bandwidth, 8.1e6);
        assert_eq!(cost.migration_bandwidth, paper::MIGRATION_BANDWIDTH);
        assert_eq!(cost.spawn_delay, Duration::from_millis(700));
        assert_eq!(cost.spawn_delay, paper::SPAWN_DELAY);
        assert_eq!(net.bandwidth_bps, paper::BANDWIDTH_BPS);
        assert_eq!(net.per_msg_overhead, paper::PER_MSG_OVERHEAD);
        assert_eq!(net.header_bytes, paper::HEADER_BYTES);
    }

    #[test]
    fn migration_rate_is_8_1_mbps() {
        let m = CostModel::paper_1999();
        // Paper: Jacobi image ≈ 6.7 s at 8.1 MB/s => ~54 MB.
        let t = m.migration_time(54 * 1000 * 1000);
        assert!((t.as_secs_f64() - 6.67).abs() < 0.1, "{t:?}");
    }

    #[test]
    fn time_scale_shrinks_host_costs() {
        let m = CostModel::paper_scaled(0.1);
        assert_eq!(m.spawn_time(), Duration::from_millis(700).mul_f64(0.1));
    }

    #[test]
    fn effective_speed_combines_speed_and_load() {
        let m = CostModel::paper_1999()
            .with_host_speed(HostId(1), 2.0)
            .with_host_load(HostId(2), 1.0);
        assert_eq!(m.effective_speed(HostId(0)), 1.0);
        assert_eq!(m.effective_speed(HostId(1)), 2.0);
        assert_eq!(m.effective_speed(HostId(2)), 0.5);
        // Unknown hosts default to the reference workstation.
        assert_eq!(m.effective_speed(HostId(63)), 1.0);
    }

    #[test]
    fn compute_time_divides_by_effective_speed() {
        let m = CostModel::paper_1999()
            .with_region_cost("k", Duration::from_micros(100))
            .with_host_speed(HostId(1), 2.0);
        let per = m.region_cost("k");
        assert_eq!(per, Duration::from_micros(100));
        assert_eq!(m.compute_time(per, 10, HostId(0)), Duration::from_millis(1));
        assert_eq!(
            m.compute_time(per, 10, HostId(1)),
            Duration::from_micros(500)
        );
    }

    #[test]
    fn region_costs_gated_by_emulate_compute() {
        let mut m = CostModel::paper_1999();
        m.region_costs
            .insert("k".to_owned(), Duration::from_micros(7));
        assert_eq!(
            m.region_cost("k"),
            Duration::ZERO,
            "charging stays off until emulate_compute is set"
        );
        m.emulate_compute = true;
        assert_eq!(m.region_cost("k"), Duration::from_micros(7));
    }

    #[test]
    fn flops_time_uses_calibrated_rate() {
        let m = CostModel::paper_1999();
        let t = m.flops_time(paper::FLOPS); // one second of flops
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9, "{t:?}");
    }
}
