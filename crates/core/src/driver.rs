//! Scripted event sources — the paper's workstation-availability
//! "daemon".
//!
//! "How these events are generated is beyond the scope of this paper.
//! E.g., a daemon may generate events at set times according to an
//! operational schedule, or a load sensor may be employed" (§4). This
//! module provides that daemon for experiments: a schedule of
//! join/leave/checkpoint events executed by a background thread
//! against a [`ClusterShared`] handle, mimicking workstation owners
//! coming and going while the computation runs. Offsets are measured
//! on the cluster's clock: wall time on the real backend, simulated
//! time under a virtual clock (where a whole day of churn can replay
//! in milliseconds).

use crate::adapt::LeaveSel;
use crate::cluster::ClusterShared;
use nowmp_net::Gpid;
use std::sync::Arc;
use std::time::Duration;

/// One scheduled workstation-availability event.
#[derive(Debug, Clone)]
pub enum DriverEvent {
    /// A workstation frees up: spawn a process and join at the next
    /// adaptation point.
    Join,
    /// The owner of the workstation running the process currently
    /// ranked `pid` returns, granting `grace`.
    LeaveByPid {
        /// Current rank of the process asked to leave.
        pid: u16,
        /// Grace period (None = unbounded: always a normal leave).
        grace: Option<Duration>,
    },
    /// A specific process instance is asked to leave.
    LeaveByGpid {
        /// The process instance.
        gpid: Gpid,
        /// Grace period.
        grace: Option<Duration>,
    },
    /// Take a checkpoint at the next adaptation point.
    Checkpoint,
}

/// A clock schedule: `(delay from driver start, event)` pairs.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    entries: Vec<(Duration, DriverEvent)>,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an event at `at` after driver start (builder style).
    pub fn at(mut self, at: Duration, event: DriverEvent) -> Self {
        self.entries.push((at, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Handle to a running driver thread.
pub struct Driver {
    handle: Option<nowmp_util::JoinHandle<Vec<(Duration, Result<(), crate::AdaptError>)>>>,
}

impl Driver {
    /// Start a background daemon executing `schedule` against the
    /// cluster. Events fire in schedule order at their clock offsets;
    /// failures (e.g. no free host) are recorded, not fatal — a real
    /// availability daemon also races reality.
    pub fn spawn(shared: Arc<ClusterShared>, schedule: Schedule) -> Self {
        let mut entries = schedule.entries;
        entries.sort_by_key(|(d, _)| *d);
        // On the cluster clock's books from this call on: the schedule's
        // offsets count from `spawn`, not from the thread's first run.
        let handle = shared.clock().clone().spawn("nowmp-driver", move || {
            let adapt = shared.adapt();
            let clock = shared.clock().clone();
            let start = clock.now();
            let mut outcomes = Vec::with_capacity(entries.len());
            for (at, event) in entries {
                let now = clock.elapsed_since(start);
                if at > now {
                    clock.sleep(at - now);
                }
                let result = match &event {
                    DriverEvent::Join => adapt.join().map(|_| ()),
                    DriverEvent::LeaveByPid { pid, grace } => {
                        adapt.leave(LeaveSel::Pid(*pid), *grace).map(|_| ())
                    }
                    DriverEvent::LeaveByGpid { gpid, grace } => {
                        adapt.leave(LeaveSel::Gpid(*gpid), *grace).map(|_| ())
                    }
                    DriverEvent::Checkpoint => {
                        adapt.checkpoint();
                        Ok(())
                    }
                };
                outcomes.push((clock.elapsed_since(start), result));
            }
            outcomes
        });
        Driver {
            handle: Some(handle),
        }
    }

    /// Wait for the schedule to finish; returns per-event outcomes.
    pub fn join(mut self) -> Vec<(Duration, Result<(), crate::AdaptError>)> {
        self.handle
            .take()
            .expect("driver joined twice")
            .join()
            .expect("driver panicked")
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_builder_orders_entries() {
        let s = Schedule::new()
            .at(Duration::from_millis(50), DriverEvent::Join)
            .at(Duration::from_millis(10), DriverEvent::Checkpoint);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
