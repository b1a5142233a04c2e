//! The adaptation control plane: one set of books both engines drive.
//!
//! Everything §4 of the paper *decides* lives here, as plain data:
//! which workstation a joiner gets and when it may enter the team
//! (§4.1), whether a leave is retired normally or migrates first when
//! its grace period runs out (§4.2, Figure 2b–c), who the migration
//! target is, which rank everybody holds after an adaptation point,
//! and when a checkpoint is due (§4.3). What the decisions *cost* —
//! spawning and the handshake, garbage collection and team commit,
//! freezing and streaming a process image, exporting shared memory —
//! is mechanism, and stays in the engine that drives the book
//! ([`crate::Cluster`] on threads, [`crate::TaskSystem`] on resumable
//! tasks). See `docs/ADAPTATION.md` for the state diagrams.
//!
//! **The lock rule.** The thread engine keeps its book behind a plain
//! mutex the virtual clock cannot see, so no verb here waits for
//! anything: an engine decides under the lock, acts outside it, and
//! records the outcome under it again. That is why the two verbs that
//! surround a clock-visible act come in pairs — `begin_adaptation` /
//! `commit` around GC and team commit, `claim_urgent` / `migrated`
//! around the image transfer.
//!
//! Every verb is a transition that either happens or hands its input
//! back and leaves the book as it was. "Exactly one of the grace timer
//! and the adaptation point wins a leave" holds because both are verbs
//! on the same book, not because of an atomic.

use crate::cluster::ClusterConfig;
use crate::hostpool::HostPool;
use crate::log::{EventKind, EventLog};
use crate::reassign::{reassign, ReassignPolicy};
use nowmp_net::{Gpid, HostId};
use std::sync::Arc;
use std::time::Duration;

/// Selects which team member an adaptation verb applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveSel {
    /// By current team rank (resolved against the team view at request
    /// time — ranks shift at adaptation points).
    Pid(u16),
    /// By global process id (stable across reassignment).
    Gpid(Gpid),
}

/// Errors from adaptation requests — the same value for the same
/// refusal on either engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// No unoccupied workstation to spawn on.
    NoFreeHost,
    /// The team has no such rank.
    NoSuchRank(u16),
    /// The process is not a current team member.
    NotInTeam(Gpid),
    /// §4.4: "the master node … currently cannot perform a normal leave".
    MasterCannotLeave,
    /// A leave for this process is already pending.
    AlreadyLeaving(Gpid),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NoFreeHost => write!(f, "no free workstation available"),
            AdaptError::NoSuchRank(pid) => write!(f, "the team has no rank {pid}"),
            AdaptError::NotInTeam(g) => write!(f, "{g} is not a team member"),
            AdaptError::MasterCannotLeave => write!(f, "the master cannot leave"),
            AdaptError::AlreadyLeaving(g) => write!(f, "{g} already has a pending leave"),
        }
    }
}

impl std::error::Error for AdaptError {}

/// Where a requested join stands (§4.1). The workstation stays
/// reserved from the request until the commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinState {
    /// The process is being created; nobody knows its gpid yet.
    Spawning,
    /// The process exists and is setting up its connections.
    Connected(Gpid),
    /// The master has its readiness announcement: the next adaptation
    /// point seats it.
    Announced(Gpid),
}

#[derive(Debug)]
struct Join {
    host: HostId,
    state: JoinState,
}

/// Where a requested leave stands (§4.2, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeavePhase {
    /// Waiting for whichever comes first, the next adaptation point or
    /// the grace timer.
    Pending,
    /// The grace timer won: the process migrated (or is migrating) and
    /// multiplexes until the next adaptation point (Figure 2c).
    Urgent,
    /// An adaptation point has begun retiring it.
    Retiring,
}

#[derive(Debug)]
struct Leave<T> {
    gpid: Gpid,
    phase: LeavePhase,
    /// The armed grace timer; held only while `Pending`.
    timer: Option<T>,
}

/// An urgent migration the book has decided on: the engine moves the
/// process image and reports back with [`ControlPlane::migrated`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Migration<T> {
    /// Workstation the process runs on now.
    pub from: HostId,
    /// Workstation it moves to (multiplexed if occupied).
    pub to: HostId,
    /// The grace timer that lost the race, for the engine to cancel.
    pub timer: Option<T>,
}

/// What one adaptation point has to do, decided by
/// [`ControlPlane::begin_adaptation`] and recorded by
/// [`ControlPlane::commit`] once the engine has done it.
#[derive(Debug)]
pub(crate) struct Plan<T> {
    /// Fork counter at the point.
    pub fork_no: u64,
    /// Joiners to seat, with the workstation each was spawned on.
    pub joins: Vec<(Gpid, HostId)>,
    /// Members to retire (normal leaves and already-migrated ones).
    pub leaves: Vec<Gpid>,
    /// Grace timers of the leaves this point claimed, to cancel.
    pub timers: Vec<T>,
    /// Write a checkpoint after the team is re-formed (§4.3).
    pub ckpt_due: bool,
    /// The new team, in rank order.
    pub members: Vec<Gpid>,
}

/// What the engine measured while carrying out a [`Plan`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cost {
    /// Time the whole point took (GC + fetches + commit + checkpoint).
    pub took: Duration,
    /// Bytes moved network-wide, less the pushes of the region before
    /// (the §5.4 "traffic generated by the adapt event").
    pub bytes_moved: u64,
    /// Busiest link's byte delta (§5.4), pushes included: they share
    /// the wire the adaptation waits on.
    pub max_link_bytes: u64,
    /// Size and duration of the checkpoint, when the plan asked for one.
    pub ckpt: Option<(u64, Duration)>,
}

/// The adaptation books. `T` is the engine's grace-timer handle: the
/// book stores it with a pending leave and hands it back to whoever
/// decides the race, so the loser's deadline can be withdrawn.
#[derive(Debug)]
pub(crate) struct ControlPlane<T> {
    hosts: HostPool,
    /// `team[pid]` = gpid; `team[0]` is the master.
    team: Vec<Gpid>,
    /// Requested joins, oldest first.
    joins: Vec<Join>,
    /// Requested leaves, oldest first.
    leaves: Vec<Leave<T>>,
    ckpt_requested: bool,
    last_ckpt_fork: u64,
    reassign: ReassignPolicy,
    ckpt_every_forks: Option<u64>,
    log: Arc<EventLog>,
}

impl<T> ControlPlane<T> {
    /// Books for a freshly brought-up cluster: `team[i]` runs on
    /// workstation `i`, and the last checkpoint was taken at fork
    /// `last_ckpt_fork` (non-zero after a recovery).
    pub fn new(
        cfg: &ClusterConfig,
        team: Vec<Gpid>,
        log: Arc<EventLog>,
        last_ckpt_fork: u64,
    ) -> Self {
        let mut hosts = HostPool::new(cfg.hosts);
        for h in (0..cfg.hosts).map(|h| HostId(h as u16)) {
            hosts.set_speed(h, cfg.cost_model.effective_speed(h));
        }
        for (i, &g) in team.iter().enumerate() {
            hosts.occupy(HostId(i as u16), g);
        }
        ControlPlane {
            hosts,
            team,
            joins: Vec::new(),
            leaves: Vec::new(),
            ckpt_requested: false,
            last_ckpt_fork,
            reassign: cfg.reassign,
            ckpt_every_forks: cfg.ckpt_every_forks,
            log,
        }
    }

    /// Current team (index = pid).
    pub fn team(&self) -> &[Gpid] {
        &self.team
    }

    /// Workstation currently hosting `gpid`, if it is placed.
    pub fn host_of(&self, gpid: Gpid) -> Option<HostId> {
        self.hosts.host_of(gpid)
    }

    /// Workstation of a team member (`NotInTeam` for anyone else).
    pub fn member_host(&self, gpid: Gpid) -> Result<HostId, AdaptError> {
        match self.hosts.host_of(gpid) {
            Some(host) if self.team.contains(&gpid) => Ok(host),
            _ => Err(AdaptError::NotInTeam(gpid)),
        }
    }

    /// The event log the book writes to.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    // ---- joins (§4.1) ----

    /// A workstation asks to join: reserve the fastest free one. The
    /// engine creates the process there and reports back.
    pub fn request_join(&mut self) -> Result<HostId, AdaptError> {
        let host = self.hosts.reserve_free().ok_or(AdaptError::NoFreeHost)?;
        self.log.push(EventKind::JoinRequested { host });
        self.joins.push(Join {
            host,
            state: JoinState::Spawning,
        });
        Ok(host)
    }

    /// The process spawned on `host` exists and is `gpid`.
    pub fn join_connected(&mut self, host: HostId, gpid: Gpid) -> Result<(), Gpid> {
        let spawning = |j: &&mut Join| j.host == host && j.state == JoinState::Spawning;
        let join = self.joins.iter_mut().find(spawning).ok_or(gpid)?;
        join.state = JoinState::Connected(gpid);
        self.log.push(EventKind::JoinReady { gpid });
        Ok(())
    }

    /// The master holds `gpid`'s readiness announcement. Refused (and
    /// worth retrying later) while the book has not been told the
    /// process exists: announcement and spawn report are unordered.
    pub fn join_announced(&mut self, gpid: Gpid) -> Result<(), Gpid> {
        let connected = |j: &&mut Join| j.state == JoinState::Connected(gpid);
        let join = self.joins.iter_mut().find(connected).ok_or(gpid)?;
        join.state = JoinState::Announced(gpid);
        Ok(())
    }

    // ---- leaves (§4.2) ----

    /// The selected member must leave. With a grace period, `timer` is
    /// called — only once the request is accepted — to arm the engine's
    /// grace timer for the resolved process; the book keeps the handle
    /// until the race is decided. `grace = None` always ends in a
    /// normal leave. Returns the gpid the selector resolved to.
    pub fn request_leave(
        &mut self,
        sel: LeaveSel,
        grace: Option<Duration>,
        timer: impl FnOnce(Gpid, Duration) -> T,
    ) -> Result<Gpid, AdaptError> {
        let gpid = match sel {
            LeaveSel::Pid(pid) => *self
                .team
                .get(pid as usize)
                .ok_or(AdaptError::NoSuchRank(pid))?,
            LeaveSel::Gpid(g) if self.team.contains(&g) => g,
            LeaveSel::Gpid(g) => return Err(AdaptError::NotInTeam(g)),
        };
        if gpid == self.team[0] {
            return Err(AdaptError::MasterCannotLeave);
        }
        if self.leaves.iter().any(|l| l.gpid == gpid) {
            return Err(AdaptError::AlreadyLeaving(gpid));
        }
        self.log.push(EventKind::LeaveRequested { gpid, grace });
        self.leaves.push(Leave {
            gpid,
            phase: LeavePhase::Pending,
            timer: grace.map(|g| timer(gpid, g)),
        });
        Ok(gpid)
    }

    /// The grace period of `gpid`'s leave ran out (or a test forces the
    /// urgent path): `Pending → Urgent`, with the migration to carry
    /// out. `None` when there is no such pending leave — in particular
    /// when an adaptation point claimed it first.
    pub fn claim_urgent(&mut self, gpid: Gpid) -> Option<Migration<T>> {
        let pending = |l: &&mut Leave<T>| l.gpid == gpid && l.phase == LeavePhase::Pending;
        let leave = self.leaves.iter_mut().find(pending)?;
        leave.phase = LeavePhase::Urgent;
        let timer = leave.timer.take();
        let from = self.hosts.host_of(gpid).expect("a team member is placed");
        // The least-loaded other workstation, free or shared (Fig. 2c's
        // multiplexing). A pool that holds a non-master has a second one.
        let to = self
            .hosts
            .least_loaded_excluding(from)
            .expect("no workstation to migrate to");
        Some(Migration { from, to, timer })
    }

    /// `gpid`'s image has moved from `from` to `to`. A process an
    /// adaptation point retired while its image was in flight is no
    /// longer placed, and stays that way.
    pub fn migrated(&mut self, gpid: Gpid, from: HostId, to: HostId) {
        if self.hosts.host_of(gpid) == Some(from) {
            self.hosts.vacate(from, gpid);
            self.hosts.occupy(to, gpid);
        }
    }

    // ---- checkpoints (§4.3) and the adaptation point ----

    /// Write a checkpoint at the next adaptation point.
    pub fn request_checkpoint(&mut self) {
        self.ckpt_requested = true;
    }

    /// A checkpoint of the state after fork `fork_no` was written.
    pub fn checkpoint_written(&mut self, fork_no: u64, bytes: u64, took: Duration) {
        self.last_ckpt_fork = fork_no;
        self.log.push(EventKind::Checkpoint { bytes, took });
    }

    /// The computation reached an adaptation point after `fork_no`
    /// forks. Claims every leave (pending ones lose their timers to the
    /// plan, migrated ones are simply due), takes the announced joins,
    /// decides whether a checkpoint is due and assigns the new ranks.
    /// `None` when there is nothing to do and the engine has no reason
    /// of its own (`force`: a GC is due) to re-form the team.
    pub fn begin_adaptation(&mut self, fork_no: u64, force: bool) -> Option<Plan<T>> {
        let periodic = self
            .ckpt_every_forks
            .is_some_and(|k| fork_no >= self.last_ckpt_fork + k);
        let ckpt_due = self.ckpt_requested || periodic;
        let announced = |j: &Join| matches!(j.state, JoinState::Announced(_));
        if !(force || ckpt_due || !self.leaves.is_empty() || self.joins.iter().any(announced)) {
            return None;
        }
        self.ckpt_requested = false;

        let mut joins = Vec::new();
        self.joins.retain(|j| match j.state {
            JoinState::Announced(gpid) => {
                joins.push((gpid, j.host));
                false
            }
            _ => true,
        });
        let mut timers = Vec::new();
        let mut leaves = Vec::with_capacity(self.leaves.len());
        for l in &mut self.leaves {
            l.phase = LeavePhase::Retiring;
            timers.extend(l.timer.take());
            leaves.push(l.gpid);
        }
        let joiners: Vec<Gpid> = joins.iter().map(|&(g, _)| g).collect();
        let members = reassign(self.reassign, &self.team, &leaves, &joiners);
        Some(Plan {
            fork_no,
            joins,
            leaves,
            timers,
            ckpt_due,
            members,
        })
    }

    /// The engine carried `plan` out: re-place the processes, adopt the
    /// new team and log the point — `NormalLeave*`, `JoinCommitted*`,
    /// `Checkpoint?`, `Adaptation`, the order `engine_parity` holds
    /// both engines to.
    pub fn commit(&mut self, plan: Plan<T>, cost: Cost) {
        assert_eq!(plan.ckpt_due, cost.ckpt.is_some(), "checkpoint per plan");
        for &g in &plan.leaves {
            if let Some(h) = self.hosts.host_of(g) {
                self.hosts.vacate(h, g);
            }
            self.log.push(EventKind::NormalLeave { gpid: g });
        }
        self.leaves.retain(|l| l.phase != LeavePhase::Retiring);
        for &(g, h) in &plan.joins {
            self.hosts.occupy(h, g);
            self.hosts.unreserve(h);
            let pid = plan.members.iter().position(|&m| m == g);
            let pid = pid.expect("joiner seated") as u16;
            self.log.push(EventKind::JoinCommitted { gpid: g, pid });
        }
        self.team = plan.members;
        if let Some((bytes, took)) = cost.ckpt {
            self.checkpoint_written(plan.fork_no, bytes, took);
        }
        self.log.push(EventKind::Adaptation {
            fork_no: plan.fork_no,
            joins: plan.joins.len(),
            leaves: plan.leaves.len(),
            took: cost.took,
            bytes_moved: cost.bytes_moved,
            max_link_bytes: cost.max_link_bytes,
            nprocs: self.team.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowmp_net::CostModel;
    use nowmp_util::Clock;
    use parking_lot::Mutex;

    /// Books for `procs` processes (gpids 1..) on `hosts` workstations;
    /// grace timers are plain numbers.
    fn book_with(cfg: ClusterConfig) -> ControlPlane<u32> {
        let cfg = cfg.with_clock(Clock::new_virtual());
        let team = (1..=cfg.initial_procs as u32).map(Gpid).collect();
        let log = Arc::new(EventLog::with_clock(cfg.clock.clone()));
        ControlPlane::new(&cfg, team, log, 0)
    }

    fn book(hosts: usize, procs: usize) -> ControlPlane<u32> {
        book_with(ClusterConfig::test(hosts, procs))
    }

    const GRACE: Option<Duration> = Some(Duration::from_secs(3));

    /// Run a verb that must be refused: it leaves the book (log
    /// included) exactly as it was.
    fn refused<R>(b: &mut ControlPlane<u32>, verb: impl FnOnce(&mut ControlPlane<u32>) -> R) -> R {
        let before = format!("{b:?}");
        let r = verb(b);
        assert_eq!(format!("{b:?}"), before, "a refused move changes nothing");
        r
    }

    fn kinds(b: &ControlPlane<u32>) -> Vec<String> {
        let short = |k: &EventKind| match k {
            EventKind::JoinRequested { host } => format!("jreq@{host}"),
            EventKind::JoinReady { gpid } => format!("jready:{gpid}"),
            EventKind::JoinCommitted { gpid, pid } => format!("jcommit:{gpid}=pid{pid}"),
            EventKind::LeaveRequested { gpid, .. } => format!("lreq:{gpid}"),
            EventKind::NormalLeave { gpid } => format!("nleave:{gpid}"),
            EventKind::Checkpoint { bytes, .. } => format!("ckpt:{bytes}"),
            EventKind::Adaptation {
                fork_no,
                joins,
                leaves,
                nprocs,
                ..
            } => format!("adapt@{fork_no}:+{joins}-{leaves}->{nprocs}"),
            other => format!("{other:?}"),
        };
        b.log().entries().iter().map(|e| short(&e.kind)).collect()
    }

    /// A book whose one join has made `steps` moves:
    /// 0 none, 1 `Spawning`, 2 `Connected`, 3 `Announced`.
    fn join_at(steps: usize) -> (ControlPlane<u32>, HostId) {
        let mut b = book(3, 2);
        let mut host = HostId(2); // the workstation a join would get
        if steps >= 1 {
            host = b.request_join().unwrap();
        }
        if steps >= 2 {
            b.join_connected(host, Gpid(9)).unwrap();
        }
        if steps >= 3 {
            b.join_announced(Gpid(9)).unwrap();
        }
        (b, host)
    }

    #[test]
    fn join_transition_table() {
        // (state, join_connected legal, join_announced legal, seated by a point)
        for (steps, connect, announce, seated) in [
            (0, false, false, false),
            (1, true, false, false),
            (2, false, true, false),
            (3, false, false, true),
        ] {
            let (mut b, host) = join_at(steps);
            if connect {
                assert_eq!(b.join_connected(host, Gpid(9)), Ok(()));
                assert_eq!(kinds(&b).last().unwrap(), "jready:g9");
            } else {
                let r = refused(&mut b, |b| b.join_connected(host, Gpid(9)));
                assert_eq!(r, Err(Gpid(9)), "state {steps}");
            }
            let (mut b, _) = join_at(steps);
            if announce {
                assert_eq!(b.join_announced(Gpid(9)), Ok(()));
            } else {
                let r = refused(&mut b, |b| b.join_announced(Gpid(9)));
                assert_eq!(r, Err(Gpid(9)), "state {steps}");
            }
            let (mut b, _) = join_at(steps);
            if seated {
                let plan = b.begin_adaptation(0, false).unwrap();
                assert_eq!(plan.joins, vec![(Gpid(9), HostId(2))]);
                assert_eq!(plan.members, vec![Gpid(1), Gpid(2), Gpid(9)]);
            } else {
                let r = refused(&mut b, |b| b.begin_adaptation(0, false));
                assert!(r.is_none(), "state {steps}: nothing to seat yet");
            }
        }
        // The reserved workstation is taken until the commit.
        let (mut b, _) = join_at(1);
        assert_eq!(
            refused(&mut b, |b| b.request_join()),
            Err(AdaptError::NoFreeHost)
        );
    }

    /// A book whose leave of gpid 3 is: 0 absent, 1 `Pending` (timer
    /// 7), 2 `Urgent`, 3 `Retiring`.
    fn leave_at(state: usize) -> ControlPlane<u32> {
        let mut b = book(4, 3);
        if state >= 1 {
            let g = b.request_leave(LeaveSel::Pid(2), GRACE, |_, _| 7).unwrap();
            assert_eq!(g, Gpid(3));
        }
        match state {
            2 => assert!(b.claim_urgent(Gpid(3)).is_some()),
            3 => assert!(b.begin_adaptation(0, false).is_some()),
            _ => {}
        }
        b
    }

    #[test]
    fn leave_transition_table() {
        let no_timer = |_: Gpid, _: Duration| -> u32 { panic!("a refused leave arms no timer") };
        for state in 0..4 {
            // request_leave: only from "absent".
            let mut b = leave_at(state);
            if state == 0 {
                let sel = LeaveSel::Gpid(Gpid(3));
                assert_eq!(b.request_leave(sel, GRACE, |_, _| 7), Ok(Gpid(3)));
                assert_eq!(kinds(&b), vec!["lreq:g3"]);
            } else {
                for sel in [LeaveSel::Pid(2), LeaveSel::Gpid(Gpid(3))] {
                    let r = refused(&mut b, |b| b.request_leave(sel, GRACE, no_timer));
                    assert_eq!(r, Err(AdaptError::AlreadyLeaving(Gpid(3))));
                }
            }
            // claim_urgent: only from `Pending`, and it hands the timer back.
            let mut b = leave_at(state);
            if state == 1 {
                let m = b.claim_urgent(Gpid(3)).unwrap();
                let (from, to) = (HostId(2), HostId(3)); // the empty workstation
                assert_eq!(
                    m,
                    Migration {
                        from,
                        to,
                        timer: Some(7)
                    }
                );
                b.migrated(Gpid(3), from, to);
                assert_eq!(b.host_of(Gpid(3)), Some(to));
            } else {
                assert_eq!(refused(&mut b, |b| b.claim_urgent(Gpid(3))), None);
            }
            // begin_adaptation: retires a pending leave (taking its
            // timer) and a migrated one (which has none left).
            let mut b = leave_at(state);
            if state == 1 || state == 2 {
                let plan = b.begin_adaptation(0, false).unwrap();
                assert_eq!(plan.leaves, vec![Gpid(3)]);
                assert_eq!(plan.timers, if state == 1 { vec![7] } else { vec![] });
                assert_eq!(plan.members, vec![Gpid(1), Gpid(2)]);
            } else if state == 0 {
                assert!(refused(&mut b, |b| b.begin_adaptation(0, false)).is_none());
            }
        }
    }

    #[test]
    fn normal_claim_wins_once() {
        let mut b = leave_at(1);
        let plan = b.begin_adaptation(0, false).unwrap();
        assert_eq!(plan.timers, vec![7], "the point disarms the timer");
        assert!(
            b.claim_urgent(Gpid(3)).is_none(),
            "timer loses after the point's claim"
        );
        b.commit(plan, Cost::default());
        assert_eq!(b.team(), [Gpid(1), Gpid(2)]);
        assert_eq!(b.host_of(Gpid(3)), None);
        assert!(b.begin_adaptation(1, false).is_none(), "retired once");
    }

    #[test]
    fn urgent_claim_blocks_normal() {
        let mut b = leave_at(1);
        assert!(b.claim_urgent(Gpid(3)).is_some());
        assert!(b.claim_urgent(Gpid(3)).is_none(), "second expiry loses");
        let plan = b.begin_adaptation(0, false).unwrap();
        assert!(plan.timers.is_empty(), "nothing left to disarm");
        assert_eq!(plan.leaves, vec![Gpid(3)], "retired at the next point");
    }

    #[test]
    fn concurrent_claims_exactly_one_winner() {
        for _ in 0..200 {
            let b = Arc::new(Mutex::new(leave_at(1)));
            let b2 = Arc::clone(&b);
            let t = std::thread::spawn(move || b2.lock().claim_urgent(Gpid(3)).is_some());
            let plan = b.lock().begin_adaptation(0, false).unwrap();
            let urgent = t.join().unwrap();
            // The leave is retired either way; exactly one side got the timer.
            assert_eq!(plan.leaves, vec![Gpid(3)]);
            assert!(plan.timers.is_empty() == urgent, "exactly one side wins");
        }
    }

    #[test]
    fn commit_logs_leaves_joins_checkpoint_adaptation_in_order() {
        let mut b = book(8, 5);
        for _ in 0..2 {
            let host = b.request_join().unwrap();
            let g = Gpid(10 + host.0 as u32);
            b.join_connected(host, g).unwrap();
            b.join_announced(g).unwrap();
        }
        b.request_leave(LeaveSel::Pid(4), None, |_, _| 0).unwrap();
        b.request_leave(LeaveSel::Pid(1), GRACE, |_, _| 1).unwrap();
        let m = b.claim_urgent(Gpid(2)).unwrap();
        b.migrated(Gpid(2), m.from, m.to);
        b.request_leave(LeaveSel::Pid(2), GRACE, |_, _| 2).unwrap();
        b.request_checkpoint();
        let requests = kinds(&b).len();

        let plan = b.begin_adaptation(6, false).unwrap();
        assert_eq!(plan.timers, vec![2], "the one still-armed timer");
        assert!(plan.ckpt_due);
        let cost = Cost {
            ckpt: Some((4096, Duration::ZERO)),
            ..Cost::default()
        };
        b.commit(plan, cost);
        assert_eq!(
            kinds(&b)[requests..],
            [
                "nleave:g5",
                "nleave:g2",
                "nleave:g3",
                "jcommit:g15=pid2",
                "jcommit:g16=pid3",
                "ckpt:4096",
                "adapt@6:+2-3->4"
            ]
        );
        assert_eq!(b.team(), [Gpid(1), Gpid(4), Gpid(15), Gpid(16)]);
        // Leavers are gone from wherever they ran (gpid 2 had moved),
        // joiners sit on the workstations reserved for them.
        assert_eq!(b.host_of(Gpid(2)), None);
        assert_eq!(b.host_of(Gpid(15)), Some(HostId(5)));
        assert_eq!(b.request_join(), Ok(HostId(1)), "freed and unreserved");
        assert!(b.begin_adaptation(7, false).is_none(), "request consumed");
    }

    #[test]
    fn periodic_checkpoint_counts_from_the_last_one() {
        let mut b = book_with(ClusterConfig::test(2, 2).with_ckpt_every_forks(3));
        let due = |b: &mut ControlPlane<u32>, fork_no| match b.begin_adaptation(fork_no, false) {
            Some(plan) => {
                assert!(plan.ckpt_due && plan.leaves.is_empty());
                let ckpt = Some((1, Duration::ZERO));
                b.commit(
                    plan,
                    Cost {
                        ckpt,
                        ..Cost::default()
                    },
                );
                true
            }
            None => false,
        };
        let fired: Vec<u64> = (0..10).filter(|&f| due(&mut b, f)).collect();
        assert_eq!(fired, vec![3, 6, 9]);
        // An out-of-band checkpoint restarts the count...
        b.checkpoint_written(10, 1, Duration::ZERO);
        assert!(!due(&mut b, 12) && due(&mut b, 13));
        // ...and a forced point without one due writes none.
        let plan = b.begin_adaptation(14, true).unwrap();
        assert!(!plan.ckpt_due);
        b.commit(plan, Cost::default());
        assert_eq!(kinds(&b).last().unwrap(), "adapt@14:+0-0->2");
    }

    #[test]
    fn both_reassign_policies_through_the_book() {
        let members = |policy| {
            let mut b = book_with(ClusterConfig::test(5, 4).with_reassign(policy));
            b.request_leave(LeaveSel::Pid(1), None, |_, _| 0).unwrap();
            let host = b.request_join().unwrap();
            b.join_connected(host, Gpid(9)).unwrap();
            b.join_announced(Gpid(9)).unwrap();
            let plan = b.begin_adaptation(0, false).unwrap();
            b.commit(plan, Cost::default());
            b.team().to_vec()
        };
        assert_eq!(
            members(ReassignPolicy::CompactKeepOrder),
            [Gpid(1), Gpid(3), Gpid(4), Gpid(9)]
        );
        assert_eq!(
            members(ReassignPolicy::FillGaps),
            [Gpid(1), Gpid(9), Gpid(3), Gpid(4)]
        );
    }

    #[test]
    fn migration_prefers_a_free_host_only_when_told_to() {
        // The free workstation is slow: sharing a fast one costs less.
        let slow_spare = CostModel::disabled().with_host_speed(HostId(3), 0.25);
        let cfg = ClusterConfig::test(4, 3).with_cost_model(slow_spare);
        let mut b = book_with(cfg);
        b.request_leave(LeaveSel::Pid(1), GRACE, |_, _| 0).unwrap();
        let to = b.claim_urgent(Gpid(2)).unwrap().to;
        assert_eq!(to, HostId(0), "least loaded, lowest id on a tie");
    }

    #[test]
    fn migration_of_a_retired_process_places_nothing() {
        let mut b = leave_at(1);
        assert_eq!(b.member_host(Gpid(3)), Ok(HostId(2)));
        let m = b.claim_urgent(Gpid(3)).unwrap();
        let plan = b.begin_adaptation(0, false).unwrap();
        b.commit(plan, Cost::default());
        b.migrated(Gpid(3), m.from, m.to); // the image landed too late
        assert_eq!(b.host_of(Gpid(3)), None);
        assert_eq!(b.member_host(Gpid(3)), Err(AdaptError::NotInTeam(Gpid(3))));
    }
}
