//! Workstation pool bookkeeping: which processes occupy which hosts,
//! and how fast each host is.
//!
//! A NOW's nodes come and go; the pool tracks occupancy so the adaptive
//! layer can place joiners on free workstations and pick multiplexing
//! targets for urgent migrations (Figure 2c: the migrated process
//! shares its new host). Since the [`nowmp_net::CostModel`] split,
//! the pool also tracks each host's *effective speed* so target
//! selection prefers fast hosts in heterogeneous what-if scenarios.
//!
//! The pool's spawn order is also the team's rank order, which the
//! **collective shapes** (`nowmp_tmk::tree`) are built over. Rank order
//! must stay stable across reassignment and host loss —
//! [`crate::ReassignPolicy::CompactKeepOrder`] keeps survivors'
//! relative order, so a leave only *compacts* the relay tree instead
//! of reshuffling interior edges (see `reassign::tests` for the pin).

use nowmp_net::{Gpid, HostId};

/// Occupancy table, indexed by `HostId`.
#[derive(Debug, Default)]
pub struct HostPool {
    occupants: Vec<Vec<Gpid>>,
    reserved: Vec<bool>,
    /// Effective speed factor per host (1.0 = the reference
    /// workstation); see [`nowmp_net::CostModel::effective_speed`].
    speeds: Vec<f64>,
}

impl HostPool {
    /// Pool over `hosts` workstations, all at the reference speed.
    pub fn new(hosts: usize) -> Self {
        HostPool {
            occupants: vec![Vec::new(); hosts],
            reserved: vec![false; hosts],
            speeds: vec![1.0; hosts],
        }
    }

    /// Register one more workstation (reference speed); returns its id.
    pub fn add_host(&mut self) -> HostId {
        self.occupants.push(Vec::new());
        self.reserved.push(false);
        self.speeds.push(1.0);
        HostId(self.occupants.len() as u16 - 1)
    }

    /// Record the effective speed of `host` (non-positive or non-finite
    /// values are clamped to a small positive epsilon).
    pub fn set_speed(&mut self, host: HostId, speed: f64) {
        let s = if speed.is_finite() {
            speed.max(1e-9)
        } else {
            1.0
        };
        self.speeds[host.0 as usize] = s;
    }

    /// Effective speed of `host`.
    pub fn speed(&self, host: HostId) -> f64 {
        self.speeds[host.0 as usize]
    }

    /// Reserve a free workstation for a process being spawned; returns
    /// `None` when every host is occupied or reserved. Among free
    /// hosts, the *fastest* wins; ties break on the lowest host id.
    pub fn reserve_free(&mut self) -> Option<HostId> {
        let host = self.free_host()?;
        self.reserved[host.0 as usize] = true;
        Some(host)
    }

    /// Clear a reservation (after the process lands, or on failure).
    pub fn unreserve(&mut self, host: HostId) {
        self.reserved[host.0 as usize] = false;
    }

    /// Number of workstations.
    pub fn len(&self) -> usize {
        self.occupants.len()
    }

    /// True when the pool has no workstations.
    pub fn is_empty(&self) -> bool {
        self.occupants.is_empty()
    }

    /// Place `gpid` on `host`.
    pub fn occupy(&mut self, host: HostId, gpid: Gpid) {
        let o = &mut self.occupants[host.0 as usize];
        debug_assert!(!o.contains(&gpid));
        o.push(gpid);
    }

    /// Remove `gpid` from `host`.
    pub fn vacate(&mut self, host: HostId, gpid: Gpid) {
        self.occupants[host.0 as usize].retain(|&g| g != gpid);
    }

    /// Occupant count of `host`.
    pub fn occupancy(&self, host: HostId) -> usize {
        self.occupants[host.0 as usize].len()
    }

    /// Host of `gpid`, if placed.
    pub fn host_of(&self, gpid: Gpid) -> Option<HostId> {
        self.occupants
            .iter()
            .position(|o| o.contains(&gpid))
            .map(|i| HostId(i as u16))
    }

    /// An unoccupied, unreserved workstation, if any. Among free hosts
    /// the fastest wins; ties break on the lowest host id (the
    /// strictly-greater comparison below keeps the first maximum, so
    /// the choice is deterministic for equal speeds).
    pub fn free_host(&self) -> Option<HostId> {
        let mut best: Option<usize> = None;
        for (i, o) in self.occupants.iter().enumerate() {
            if !o.is_empty() || self.reserved[i] {
                continue;
            }
            match best {
                Some(b) if self.speeds[i] <= self.speeds[b] => {}
                _ => best = Some(i),
            }
        }
        best.map(|i| HostId(i as u16))
    }

    /// Every unoccupied, unreserved workstation, fastest first (ties
    /// break on the lowest host id). The cluster scheduler grants from
    /// the front of this list, so multi-host placement uses the same
    /// effective-speed scoring as the single-host [`Self::free_host`].
    pub fn free_hosts(&self) -> Vec<HostId> {
        let mut free: Vec<usize> = (0..self.occupants.len())
            .filter(|&i| self.occupants[i].is_empty() && !self.reserved[i])
            .collect();
        free.sort_by(|&a, &b| {
            self.speeds[b]
                .partial_cmp(&self.speeds[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        free.into_iter().map(|i| HostId(i as u16)).collect()
    }

    /// The least-loaded workstation other than `exclude` (the urgent
    /// migration target, free or shared). "Load" is speed-aware:
    /// `(occupants + 1) / speed` estimates the slowdown the migrated
    /// process would see on each candidate, so a fast host with one
    /// occupant can beat a slow empty one. Ties break
    /// **deterministically on the lowest host id** (the strictly-less
    /// comparison keeps the first minimum).
    pub fn least_loaded_excluding(&self, exclude: HostId) -> Option<HostId> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.occupants.len() {
            if i == exclude.0 as usize {
                continue;
            }
            let cost = (self.occupants[i].len() + 1) as f64 / self.speeds[i];
            match best {
                Some((_, b)) if cost >= b => {}
                _ => best = Some((i, cost)),
            }
        }
        best.map(|(i, _)| HostId(i as u16))
    }

    /// Total processes placed.
    pub fn total_procs(&self) -> usize {
        self.occupants.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupy_vacate_cycle() {
        let mut p = HostPool::new(3);
        p.occupy(HostId(0), Gpid(1));
        p.occupy(HostId(1), Gpid(2));
        assert_eq!(p.occupancy(HostId(0)), 1);
        assert_eq!(p.host_of(Gpid(2)), Some(HostId(1)));
        assert_eq!(p.free_host(), Some(HostId(2)));
        p.vacate(HostId(1), Gpid(2));
        assert_eq!(p.free_host(), Some(HostId(1)));
        assert_eq!(p.host_of(Gpid(2)), None);
        assert_eq!(p.total_procs(), 1);
    }

    #[test]
    fn no_free_host_when_full() {
        let mut p = HostPool::new(2);
        p.occupy(HostId(0), Gpid(1));
        p.occupy(HostId(1), Gpid(2));
        assert_eq!(p.free_host(), None);
        let target = p.least_loaded_excluding(HostId(0)).unwrap();
        assert_eq!(target, HostId(1));
    }

    #[test]
    fn least_loaded_prefers_emptier() {
        let mut p = HostPool::new(3);
        p.occupy(HostId(0), Gpid(1));
        p.occupy(HostId(1), Gpid(2));
        p.occupy(HostId(1), Gpid(3));
        assert_eq!(p.least_loaded_excluding(HostId(0)), Some(HostId(2)));
        p.occupy(HostId(2), Gpid(4));
        p.occupy(HostId(2), Gpid(5));
        // Host 1 (2 occupants) vs host 2 (2): lowest index wins ties.
        assert_eq!(p.least_loaded_excluding(HostId(0)), Some(HostId(1)));
    }

    #[test]
    fn least_loaded_tie_break_is_lowest_id() {
        // Four identical candidates: the documented tie-break picks the
        // lowest id every time, independent of insertion order.
        let p = HostPool::new(5);
        for _ in 0..10 {
            assert_eq!(p.least_loaded_excluding(HostId(0)), Some(HostId(1)));
            assert_eq!(p.least_loaded_excluding(HostId(1)), Some(HostId(0)));
        }
    }

    #[test]
    fn least_loaded_is_speed_aware() {
        let mut p = HostPool::new(3);
        // Host 2 is 4x the reference speed: even with one occupant its
        // estimated slowdown (2/4 = 0.5) beats the empty host 1 (1/1).
        p.set_speed(HostId(2), 4.0);
        p.occupy(HostId(2), Gpid(9));
        assert_eq!(p.least_loaded_excluding(HostId(0)), Some(HostId(2)));
        // Drop the speed edge and the empty host wins again.
        p.set_speed(HostId(2), 1.0);
        assert_eq!(p.least_loaded_excluding(HostId(0)), Some(HostId(1)));
    }

    #[test]
    fn free_host_prefers_faster() {
        let mut p = HostPool::new(3);
        p.set_speed(HostId(1), 2.0);
        assert_eq!(p.free_host(), Some(HostId(1)));
        p.occupy(HostId(1), Gpid(1));
        // Remaining free hosts tie at speed 1.0: lowest id wins.
        assert_eq!(p.free_host(), Some(HostId(0)));
    }

    #[test]
    fn free_hosts_sorted_fastest_first() {
        let mut p = HostPool::new(5);
        p.set_speed(HostId(3), 4.0);
        p.set_speed(HostId(1), 2.0);
        p.occupy(HostId(0), Gpid(1));
        assert_eq!(
            p.free_hosts(),
            vec![HostId(3), HostId(1), HostId(2), HostId(4)]
        );
        let mut p2 = HostPool::new(2);
        assert!(p2.reserve_free().is_some());
        assert_eq!(p2.free_hosts(), vec![HostId(1)], "reserved hosts hidden");
    }

    #[test]
    fn add_host_grows_pool() {
        let mut p = HostPool::new(1);
        let h = p.add_host();
        assert_eq!(h, HostId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.speed(h), 1.0);
    }
}

#[cfg(test)]
mod reserve_tests {
    use super::*;

    #[test]
    fn reserve_hides_host_from_free_list() {
        let mut p = HostPool::new(2);
        let h = p.reserve_free().unwrap();
        assert_eq!(h, HostId(0));
        assert_eq!(p.free_host(), Some(HostId(1)));
        let h2 = p.reserve_free().unwrap();
        assert_eq!(h2, HostId(1));
        assert!(p.reserve_free().is_none());
        p.unreserve(h);
        assert_eq!(p.free_host(), Some(HostId(0)));
    }

    #[test]
    fn reserve_free_exhausted_pool_edge_cases() {
        // All hosts occupied: nothing to reserve, and the failed call
        // must not leave a stray reservation behind.
        let mut p = HostPool::new(2);
        p.occupy(HostId(0), Gpid(1));
        p.occupy(HostId(1), Gpid(2));
        assert!(p.reserve_free().is_none());
        p.vacate(HostId(1), Gpid(2));
        assert_eq!(
            p.reserve_free(),
            Some(HostId(1)),
            "vacated host is reservable again"
        );

        // All hosts reserved (none occupied): also exhausted.
        let mut p = HostPool::new(2);
        assert!(p.reserve_free().is_some());
        assert!(p.reserve_free().is_some());
        assert!(p.reserve_free().is_none());

        // Mixed: one occupied, one reserved.
        let mut p = HostPool::new(2);
        p.occupy(HostId(0), Gpid(1));
        assert_eq!(p.reserve_free(), Some(HostId(1)));
        assert!(p.reserve_free().is_none());

        // Empty pool: trivially exhausted.
        let mut p = HostPool::new(0);
        assert!(p.is_empty());
        assert!(p.reserve_free().is_none());
    }
}
