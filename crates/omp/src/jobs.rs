//! Multi-tenant job streams: the NOW as a service.
//!
//! The paper runs one adaptive OpenMP program on the workstation pool.
//! This module runs a *stream* of them: jobs are described by
//! [`JobSpec`]s (program + scheduling parameters + a step driver),
//! submitted to a [`Scheduler`], and executed as concurrent tenants on
//! the shared pool. The policy side lives in [`nowmp_core::sched`]; this
//! is the execution side, which turns its [`Directive`]s into actual
//! cluster operations:
//!
//! * `Start` — bring up a per-job [`OmpSystem`] on the granted hosts.
//!   Each job gets its **own `Network` and `DsmSystem`** (hence its
//!   own page space) and its own virtual clock, so tenants are
//!   byte-level isolated and their timelines independent;
//! * `Preempt` — request that many grace leaves on the victim
//!   ([`AdaptHandle::leave`], highest pids first). The shrink commits at
//!   the victim's next adaptation point — exactly the paper's
//!   owner-returns path, driven by the scheduler instead of an owner —
//!   after which the freed hosts are reported back and granted onward;
//! * `Grow` — a join ([`OmpSystem::join_ready`]) committed at the
//!   job's next adaptation point.
//!
//! Execution is a discrete-event simulation over the jobs' virtual
//! clocks: each tenant advances one step (one call of its step driver)
//! at a time, and the global timeline interleaves tenants by their next
//! ready time. Compute/network costs inside a step are whatever the
//! per-job cost model charges; an optional contention factor stretches
//! steps by their network time multiplied by the number of co-running
//! tenants, approximating a shared backbone.
//!
//! Approximations, stated: per-job host speeds are sampled from the
//! global pool at admission, and hosts granted by later `Grow`
//! directives run at the reference speed 1.0 (exact on homogeneous
//! pools); contention is a fluid model, not per-message queueing.
//!
//! [`AdaptHandle::leave`]: nowmp_core::AdaptHandle::leave

use crate::program::OmpProgram;
use crate::system::OmpSystem;
use nowmp_core::sched::{Directive, JobId, JobParams, JobPhase, Scheduler as Policy};
use nowmp_core::{ClusterConfig, EventKind, EventLog, LeaveSel};
use nowmp_net::{Gpid, HostId, JobTraffic};
use nowmp_util::{Clock, Tick};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Duration;

type SetupFn = Box<dyn FnOnce(&mut OmpSystem)>;
type StepFn = Box<dyn FnMut(&mut OmpSystem, u64)>;

/// Everything the scheduler needs to run one job: the program, its
/// scheduling parameters, and a step driver (the master's main loop,
/// one call per outer iteration — each step is at least one adaptation
/// opportunity).
pub struct JobSpec {
    pub(crate) name: String,
    pub(crate) params: JobParams,
    pub(crate) program: OmpProgram,
    pub(crate) setup: Option<SetupFn>,
    pub(crate) steps: u64,
    pub(crate) step: Option<StepFn>,
}

impl JobSpec {
    /// A job running `program`, named `name` in logs and reports.
    pub fn new(name: impl Into<String>, program: OmpProgram) -> Self {
        JobSpec {
            name: name.into(),
            params: JobParams::default(),
            program,
            setup: None,
            steps: 0,
            step: None,
        }
    }

    /// Builder: set the scheduling priority (higher preempts lower).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.params.priority = priority;
        self
    }

    /// Builder: the job needs at least `min` and uses at most `max`
    /// processes.
    pub fn with_procs(mut self, min: usize, max: usize) -> Self {
        let p = JobParams::new(min, max);
        self.params.min_procs = p.min_procs;
        self.params.max_procs = p.max_procs;
        self
    }

    /// Builder: the job arrives `at` into the trace (before that it is
    /// invisible to admission).
    pub fn arriving_at(mut self, at: Duration) -> Self {
        self.params.arrival = at;
        self
    }

    /// Builder: run `f` once on the freshly started system (shared
    /// array allocation, initialization).
    pub fn with_setup(mut self, f: impl FnOnce(&mut OmpSystem) + 'static) -> Self {
        self.setup = Some(Box::new(f));
        self
    }

    /// Builder: the job's main loop is `steps` calls of `f(sys, iter)`;
    /// each call should contain at least one `parallel(...)` so the
    /// scheduler's grow/shrink directives can commit.
    pub fn with_steps(mut self, steps: u64, f: impl FnMut(&mut OmpSystem, u64) + 'static) -> Self {
        self.steps = steps;
        self.step = Some(Box::new(f));
        self
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's scheduling parameters.
    pub fn params(&self) -> JobParams {
        self.params
    }
}

/// A bare program is a complete (driverless) job spec — this keeps the
/// classic single-job entry point `OmpSystem::new(cfg, program)`
/// working unchanged.
impl From<OmpProgram> for JobSpec {
    fn from(program: OmpProgram) -> Self {
        JobSpec::new("main", program)
    }
}

/// Ticket for a submitted job; resolve it against the
/// [`TenancyReport`] after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle {
    id: JobId,
}

impl JobHandle {
    /// The scheduler-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }
}

/// Final accounting for one job of a tenancy run.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// The job.
    pub id: JobId,
    /// Its display name.
    pub name: String,
    /// Its scheduling parameters.
    pub params: JobParams,
    /// Arrival-to-start queueing delay.
    pub wait: Duration,
    /// Arrival-to-completion time.
    pub turnaround: Duration,
    /// Times the job was shrunk for higher-priority work.
    pub preemptions: u64,
    /// Network traffic the job put on (its share of) the wire.
    pub traffic: JobTraffic,
}

/// What a whole tenancy run produced.
pub struct TenancyReport {
    /// Completion time of the last job.
    pub makespan: Duration,
    /// Busy host-seconds over available host-seconds, `[0, makespan]`.
    pub utilization: f64,
    /// Most jobs running at once.
    pub max_concurrency: usize,
    /// Per-job accounting, in job-id order.
    pub jobs: Vec<JobStats>,
    /// The merged, job-tagged event timeline.
    pub log: EventLog,
}

impl TenancyReport {
    /// Rank-order percentile of the queueing delays (`p` in `[0,1]`).
    pub fn wait_percentile(&self, p: f64) -> Duration {
        let mut waits: Vec<Duration> = self.jobs.iter().map(|j| j.wait).collect();
        if waits.is_empty() {
            return Duration::ZERO;
        }
        waits.sort();
        let rank = ((p * waits.len() as f64).ceil() as usize).clamp(1, waits.len());
        waits[rank - 1]
    }

    /// The p99 queueing delay (the CI-gated tail metric).
    pub fn p99_wait(&self) -> Duration {
        self.wait_percentile(0.99)
    }

    /// Mean turnaround across jobs.
    pub fn mean_turnaround(&self) -> Duration {
        if self.jobs.is_empty() {
            return Duration::ZERO;
        }
        self.jobs.iter().map(|j| j.turnaround).sum::<Duration>() / self.jobs.len() as u32
    }
}

/// One running tenant: a per-job [`OmpSystem`] plus the bookkeeping
/// that maps its local workstations back onto the global pool.
struct Tenant {
    id: JobId,
    sys: OmpSystem,
    step: StepFn,
    steps: u64,
    iter: u64,
    /// Global time at which the tenant took its team.
    started_at: Duration,
    /// The tenant clock's origin tick (its virtual time zero).
    epoch: Tick,
    /// Contention stretch accumulated so far (added to local elapsed
    /// time when mapping onto the global timeline).
    stretch: Duration,
    /// Global time of the tenant's next step (or of its completion).
    ready_at: Duration,
    /// Local workstation slot -> global host granted by the scheduler.
    slots: Vec<Option<HostId>>,
    /// Granted hosts whose join has not been issued yet.
    grow_queue: VecDeque<HostId>,
    /// Requested leaves not yet committed: (leaver, local slot, global
    /// host it frees).
    shedding: Vec<(Gpid, u16, HostId)>,
    done: bool,
}

/// The cluster-level scheduler: submit [`JobSpec`]s, then [`run`] the
/// whole trace to completion under a global virtual timeline.
///
/// [`run`]: Scheduler::run
pub struct Scheduler {
    base: ClusterConfig,
    specs: Vec<Option<JobSpec>>,
    contention: f64,
}

impl Scheduler {
    /// A scheduler over the pool described by `base`: `base.hosts`
    /// workstations whose speeds come from `base.cost_model`. The rest
    /// of `base` (DSM, network, reassignment policy, ...) is the
    /// template every per-job cluster is built from; its clock is
    /// ignored (each job runs its own virtual clock).
    pub fn new(base: ClusterConfig) -> Self {
        Scheduler {
            base,
            specs: Vec::new(),
            contention: 0.0,
        }
    }

    /// Builder: stretch each step by `beta * (co-running tenants - 1) *
    /// (its network seconds)` — a fluid model of a shared backbone.
    /// Zero (the default) means fully independent links.
    pub fn with_net_contention(mut self, beta: f64) -> Self {
        self.contention = beta;
        self
    }

    /// Register a job for the trace. Its `arrival` parameter decides
    /// when it becomes visible to admission.
    pub fn submit(&mut self, spec: JobSpec) -> JobHandle {
        assert!(
            spec.params.min_procs <= self.base.hosts,
            "job {:?} wants min {} procs but the pool has {} hosts",
            spec.name,
            spec.params.min_procs,
            self.base.hosts
        );
        assert!(
            spec.step.is_some(),
            "job {:?} has no step driver (use with_steps)",
            spec.name
        );
        let id = JobId(self.specs.len() as u32);
        self.specs.push(Some(spec));
        JobHandle { id }
    }

    /// Run every submitted job to completion; returns the merged
    /// accounting. One-shot: the specs are consumed.
    pub fn run(&mut self) -> TenancyReport {
        let mut exec = Exec {
            policy: Policy::with_cost_model(self.base.hosts, &self.base.cost_model),
            base: self.base.clone(),
            specs: std::mem::take(&mut self.specs),
            contention: self.contention,
            tenants: Vec::new(),
            log: EventLog::with_clock(Clock::new_virtual()),
            names: Vec::new(),
            traffic: HashMap::new(),
            max_concurrency: 0,
        };
        exec.run()
    }
}

/// The in-flight state of one [`Scheduler::run`] call.
struct Exec {
    policy: Policy,
    base: ClusterConfig,
    specs: Vec<Option<JobSpec>>,
    contention: f64,
    tenants: Vec<Tenant>,
    log: EventLog,
    names: Vec<String>,
    traffic: HashMap<u32, JobTraffic>,
    max_concurrency: usize,
}

impl Exec {
    fn run(&mut self) -> TenancyReport {
        // Pre-register the whole trace; the policy gates admission on
        // each job's arrival time.
        let mut arrivals: BTreeSet<Duration> = BTreeSet::new();
        let mut initial = Vec::new();
        for i in 0..self.specs.len() {
            let (name, params) = {
                let s = self.specs[i].as_ref().expect("spec present before run");
                (s.name.clone(), s.params)
            };
            self.names.push(name);
            let (id, ds) = self.policy.submit(params, Duration::ZERO);
            debug_assert_eq!(id.0 as usize, i);
            self.log.push_job_at(
                id,
                params.arrival,
                EventKind::JobSubmitted {
                    priority: params.priority,
                    min_procs: params.min_procs,
                    max_procs: params.max_procs,
                },
            );
            arrivals.insert(params.arrival);
            initial.extend(ds);
        }
        self.apply(initial, Duration::ZERO);
        arrivals.remove(&Duration::ZERO);

        let mut makespan = Duration::ZERO;
        loop {
            self.max_concurrency = self.max_concurrency.max(self.policy.running());
            let next_arrival = arrivals.iter().next().copied();
            let next_step = self.tenants.iter().map(|t| t.ready_at).min();
            let now = match (next_arrival, next_step) {
                (None, None) => {
                    assert!(
                        self.policy.all_done(),
                        "trace stuck: {} job(s) queued but nothing runs or arrives",
                        self.policy.queued()
                    );
                    break;
                }
                (Some(a), None) => a,
                (None, Some(s)) => s,
                (Some(a), Some(s)) => a.min(s),
            };
            makespan = makespan.max(now);
            // Arrivals first: a preemption requested at the arrival
            // tick reaches the victim before its next step, so the
            // shrink commits at that step's adaptation point.
            if next_arrival == Some(now) {
                arrivals.remove(&now);
                let ds = self.policy.schedule(now);
                self.apply(ds, now);
                continue;
            }
            let idx = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.ready_at == now)
                .min_by_key(|(_, t)| t.id)
                .map(|(i, _)| i)
                .expect("a tenant is due");
            self.step_tenant(idx, now);
        }

        let mut jobs = Vec::new();
        for rec in self.policy.records() {
            debug_assert_eq!(rec.phase, JobPhase::Finished);
            jobs.push(JobStats {
                id: rec.id,
                name: self.names[rec.id.0 as usize].clone(),
                params: rec.params,
                wait: rec.wait().unwrap_or_default(),
                turnaround: rec.turnaround().unwrap_or_default(),
                preemptions: rec.preemptions,
                traffic: self.traffic.get(&rec.id.0).copied().unwrap_or_default(),
            });
        }
        TenancyReport {
            makespan,
            utilization: self.policy.utilization(makespan),
            max_concurrency: self.max_concurrency,
            jobs,
            log: std::mem::replace(&mut self.log, EventLog::with_clock(Clock::new_virtual())),
        }
    }

    /// Carry out scheduling directives (and whatever follow-up
    /// directives their bookkeeping produces).
    fn apply(&mut self, ds: Vec<Directive>, now: Duration) {
        let mut pending: VecDeque<Directive> = ds.into();
        while let Some(d) = pending.pop_front() {
            match d {
                Directive::Start { job, hosts } => self.start(job, hosts, now),
                Directive::Grow { job, hosts } => {
                    self.log
                        .push_job_at(job, now, EventKind::JobGrown { procs: hosts.len() });
                    let t = self.tenant_mut(job);
                    t.grow_queue.extend(hosts);
                }
                Directive::Preempt { victim, procs } => {
                    let follow = self.preempt(victim, procs, now);
                    pending.extend(follow);
                }
            }
        }
    }

    /// `Start`: build the tenant's own cluster on the granted hosts.
    fn start(&mut self, job: JobId, hosts: Vec<HostId>, now: Duration) {
        let spec = self.specs[job.0 as usize]
            .take()
            .expect("start directive for an unconsumed spec");
        let max = spec.params.max_procs;
        // Per-job cost model: local slot i runs at the global speed of
        // the i-th granted host; slots joined later default to 1.0.
        let mut cm = self.base.cost_model.clone();
        cm.host_speeds = vec![1.0; max];
        cm.host_loads = Vec::new();
        for (i, g) in hosts.iter().enumerate() {
            cm.host_speeds[i] = self.policy.pool().speed(*g);
        }
        let clock = Clock::new_virtual();
        let epoch = clock.now();
        let mut cfg = self
            .base
            .clone()
            .with_team(max, hosts.len())
            .with_clock(clock.clone())
            .with_cost_model(cm)
            .with_adaptive(true)
            .with_job(job);
        // Tenants each write their own checkpoint image.
        if let Some(p) = &self.base.ckpt_path {
            let mut per_job = p.as_os_str().to_owned();
            per_job.push(format!(".{job}"));
            cfg = cfg.with_ckpt_path(std::path::PathBuf::from(per_job));
        }
        let JobSpec {
            program,
            setup,
            steps,
            step,
            ..
        } = spec;
        let mut sys = OmpSystem::new(cfg, program);
        if let Some(f) = setup {
            f(&mut sys);
        }
        self.log.push_job_at(
            job,
            now,
            EventKind::JobStarted {
                nprocs: hosts.len(),
            },
        );
        let mut slots = vec![None; max];
        // Cluster::new seats the initial team on local hosts 0..n-1 in
        // grant order, so the slot map starts as the identity.
        for (i, g) in hosts.iter().enumerate() {
            slots[i] = Some(*g);
        }
        let elapsed = clock.elapsed_since(epoch);
        self.tenants.push(Tenant {
            id: job,
            sys,
            step: step.expect("submit() checked the driver"),
            steps,
            iter: 0,
            started_at: now,
            epoch,
            stretch: Duration::ZERO,
            ready_at: now + elapsed,
            slots,
            grow_queue: VecDeque::new(),
            shedding: Vec::new(),
            done: steps == 0,
        });
    }

    /// `Preempt`: cancel not-yet-joined grows first (they free
    /// instantly), then request grace leaves for the remainder —
    /// highest pids first, never the master, never a proc already
    /// shedding. Returns follow-up directives from instant frees.
    fn preempt(&mut self, victim: JobId, procs: usize, now: Duration) -> Vec<Directive> {
        self.log
            .push_job_at(victim, now, EventKind::JobPreempted { procs });
        let mut canceled = Vec::new();
        let t = self.tenant_mut(victim);
        let mut remaining = procs;
        while remaining > 0 {
            match t.grow_queue.pop_back() {
                Some(g) => {
                    canceled.push(g);
                    remaining -= 1;
                }
                None => break,
            }
        }
        if remaining > 0 {
            let adapt = t.sys.shared().adapt();
            let team = adapt.team();
            let already: Vec<Gpid> = t.shedding.iter().map(|(g, _, _)| *g).collect();
            for pid in (1..team.len()).rev() {
                if remaining == 0 {
                    break;
                }
                if already.contains(&team[pid]) {
                    continue;
                }
                let gpid = adapt
                    .leave(LeaveSel::Pid(pid as u16), None)
                    .expect("victim sheds a worker");
                let local = adapt.host_of(gpid).expect("leaver is placed");
                let ghost = t.slots[local.0 as usize].expect("slot maps to a granted host");
                t.shedding.push((gpid, local.0, ghost));
                remaining -= 1;
            }
        }
        debug_assert_eq!(remaining, 0, "policy never over-preempts");
        if canceled.is_empty() {
            Vec::new()
        } else {
            self.policy.released(victim, &canceled, now)
        }
    }

    /// Advance the tenant due at `now` by one step (or retire it).
    fn step_tenant(&mut self, idx: usize, now: Duration) {
        if self.tenants[idx].done {
            return self.finish_tenant(idx, now);
        }
        let active = self.tenants.iter().filter(|t| !t.done).count();
        let contention = self.contention;
        let bandwidth = self.base.net_model.bandwidth_bps;
        let t = &mut self.tenants[idx];
        // Issue pending grows; the join commits at the upcoming step's
        // adaptation point, its spawn cost lands on the tenant's clock.
        while let Some(g) = t.grow_queue.pop_front() {
            let (_, local) = t
                .sys
                .join_ready()
                .expect("granted host implies a free slot");
            t.slots[local.0 as usize] = Some(g);
        }
        let clock = t.sys.clock().clone();
        let bytes0 = t.sys.net_stats().total_bytes;
        (t.step)(&mut t.sys, t.iter);
        t.iter += 1;
        // Fluid contention: the step's wire time is stretched by the
        // co-running tenants sharing the backbone.
        if contention > 0.0 && active > 1 && bandwidth.is_finite() && bandwidth > 0.0 {
            let bytes = t.sys.net_stats().total_bytes - bytes0;
            let net_secs = bytes as f64 * 8.0 / bandwidth;
            t.stretch += Duration::from_secs_f64(contention * (active - 1) as f64 * net_secs);
        }
        t.ready_at = t.started_at + clock.elapsed_since(t.epoch) + t.stretch;
        if t.iter >= t.steps {
            t.done = true;
        }
        // Shrinks committed by this step's adaptation point free their
        // hosts now (the commit happened at the step's start).
        let team = t.sys.shared().team_view();
        let mut freed = Vec::new();
        let mut keep = Vec::new();
        for (gpid, local, ghost) in t.shedding.drain(..) {
            if team.contains(&gpid) {
                keep.push((gpid, local, ghost));
            } else {
                t.slots[local as usize] = None;
                freed.push(ghost);
            }
        }
        t.shedding = keep;
        let victim = t.id;
        if !freed.is_empty() {
            let ds = self.policy.released(victim, &freed, now);
            self.apply(ds, now);
        }
    }

    /// The tenant's last step has run: collect its stats, release its
    /// hosts and tear the per-job cluster down.
    fn finish_tenant(&mut self, idx: usize, now: Duration) {
        let t = self.tenants.swap_remove(idx);
        let job = t.id;
        self.traffic
            .insert(job.0, t.sys.net_stats().attributed(job.0));
        t.sys.shutdown();
        let ds = self.policy.finished(job, now);
        let rec = self.policy.job(job);
        self.log.push_job_at(
            job,
            now,
            EventKind::JobFinished {
                turnaround: rec.turnaround().unwrap_or_default(),
            },
        );
        self.apply(ds, now);
    }

    fn tenant_mut(&mut self, job: JobId) -> &mut Tenant {
        self.tenants
            .iter_mut()
            .find(|t| t.id == job)
            .expect("directive targets a live tenant")
    }
}
