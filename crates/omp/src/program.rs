//! The "compiled" OpenMP program: a registry of outlined parallel
//! regions.
//!
//! The paper's toolchain outlines the body of every OpenMP parallel
//! construct into a procedure (SUIF pass, §2); the master replaces the
//! construct with `Tmk_fork(procedure)`. Rust has no OpenMP frontend,
//! so the outlining is done by the programmer (README, "Writing a
//! kernel"): each region is registered under a name, and the runtime
//! dispatches fork messages to it by index. The *shape* of generated
//! code is identical — in particular, the iteration partitioning inside
//! each region is re-derived from `(pid, nprocs)` on every execution,
//! which is what makes adaptation transparent.
//!
//! A region is registered one of two ways. [`OmpProgram::region`] takes
//! a closure over the thread engine's context, which may use every
//! construct. [`OmpProgram::portable`] takes one body written generic
//! over [`nowmp_tmk::SharedMem`] (see [`portable!`](crate::portable))
//! and lowers it onto both engines: the thread engine calls it as it
//! calls any region, the task engine steps it as a
//! [`RegionTask`] ([`OmpProgram::lower`]).

use crate::ctx::OmpCtx;
use nowmp_tmk::engine::{RegionTask, Step, TaskCtx};
use nowmp_tmk::system::RegionRunner;
use nowmp_tmk::TmkCtx;
use std::sync::Arc;

type RegionFn = Arc<dyn Fn(&mut OmpCtx<'_>) + Send + Sync>;
type ThreadFin = Arc<dyn Fn(&mut OmpCtx<'_>, f64) + Send + Sync>;
type TaskBody<R> = Arc<dyn for<'a, 'b> Fn(&mut OmpCtx<'a, TaskCtx<'b>>) -> R + Send + Sync>;
type TaskFin = Arc<dyn for<'a, 'b> Fn(&mut OmpCtx<'a, TaskCtx<'b>>, f64) + Send + Sync>;

/// The shapes a portable region takes on the task engine.
#[derive(Clone)]
enum TaskForm {
    /// No synchronization before the join: one step.
    Single(TaskBody<()>),
    /// `reduction(+: x)`. Where the reduction rides the join
    /// ([`TaskCtx::reduction_rides_join`]): one step handing the body's
    /// partial to the join, and the epilogue at the master after it.
    /// Under the 1999 scratch protocol: body, barrier, fold, barrier,
    /// epilogue.
    Sum(TaskBody<f64>, TaskFin),
}

/// One region body instantiated for both engines. Built by
/// [`portable!`](crate::portable), which writes the body's name into
/// every slot, so the two lowerings cannot be different code.
pub struct Portable {
    thread: RegionFn,
    /// The thread lowering's `reduction` epilogue, which the master
    /// runs after the join when the reduction rode it.
    thread_fin: Option<ThreadFin>,
    /// `None`: wrapped by [`OmpProgram::region`], may block.
    task: Option<TaskForm>,
}

/// `reduction(+)`'s total: `0.0 + p0 + p1 + …`, in pid order. The
/// scratch protocol ([`OmpCtx::reduce_sum_f64`]) folds the same way,
/// so a total is bit-identical whichever way the partials travelled.
fn sum_in_pid_order(partials: &[f64]) -> f64 {
    partials.iter().fold(0.0, |acc, p| acc + p)
}

impl Portable {
    /// A body that needs no synchronization before the region's join.
    pub fn new(
        thread: impl Fn(&mut OmpCtx<'_>) + Send + Sync + 'static,
        task: impl for<'a, 'b> Fn(&mut OmpCtx<'a, TaskCtx<'b>>) + Send + Sync + 'static,
    ) -> Self {
        Portable {
            thread: Arc::new(thread),
            thread_fin: None,
            task: Some(TaskForm::Single(Arc::new(task))),
        }
    }

    /// A body under a `reduction(+: x)` clause (see
    /// [`portable!`](crate::portable)); the generation picks one
    /// lowering for both engines
    /// ([`nowmp_tmk::CollectiveConfig::reduces_at_join`]). On the
    /// current one every rank hands its partial to the join, which
    /// carries it up the reduce shape to the master; the master folds
    /// the team's partials in pid order and runs the epilogue in its
    /// sequential phase after the join. The 1999 generation keeps the
    /// scratch protocol: the thread engine runs `reduce_sum_f64` +
    /// `master`, the task engine three phases of one task.
    pub fn sum(
        thread: impl Fn(&mut OmpCtx<'_>) -> f64 + Send + Sync + 'static,
        thread_fin: impl Fn(&mut OmpCtx<'_>, f64) + Send + Sync + 'static,
        task: impl for<'a, 'b> Fn(&mut OmpCtx<'a, TaskCtx<'b>>) -> f64 + Send + Sync + 'static,
        task_fin: impl for<'a, 'b> Fn(&mut OmpCtx<'a, TaskCtx<'b>>, f64) + Send + Sync + 'static,
    ) -> Self {
        let thread_fin: ThreadFin = Arc::new(thread_fin);
        let fin = Arc::clone(&thread_fin);
        Portable {
            thread: Arc::new(move |ctx| {
                let local = thread(ctx);
                if ctx.dsm().reduction_rides_join() {
                    ctx.dsm().hand_to_join(local);
                } else {
                    let total = ctx.reduce_sum_f64(local);
                    ctx.master(|c| fin(c, total));
                }
            }),
            thread_fin: Some(thread_fin),
            task: Some(TaskForm::Sum(Arc::new(task), Arc::new(task_fin))),
        }
    }
}

/// One rank's execution of a portable region: the blocking calls of
/// the thread lowering unwound into phases.
struct PortableTask {
    form: TaskForm,
    phase: u8,
    total: f64,
}

impl RegionTask for PortableTask {
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Step {
        let mut ctx = OmpCtx::new(ctx);
        self.phase += 1;
        match (&self.form, self.phase) {
            (TaskForm::Single(body), _) => {
                body(&mut ctx);
                Step::Done
            }
            (TaskForm::Sum(body, _), 1) => {
                let local = body(&mut ctx);
                if ctx.dsm().reduction_rides_join() {
                    ctx.dsm().hand_to_join(local);
                    return Step::Done;
                }
                ctx.reduction_publish(local);
                Step::Barrier
            }
            (TaskForm::Sum(..), 2) => {
                self.total = ctx.reduction_fold(|a, b| a + b, 0.0);
                Step::Barrier
            }
            (TaskForm::Sum(_, fin), _) => {
                ctx.master(|c| fin(c, self.total));
                Step::Done
            }
        }
    }

    fn join_epilogue(&mut self, ctx: &mut TaskCtx<'_>, partials: &[f64]) {
        if let TaskForm::Sum(_, fin) = &self.form {
            fin(&mut OmpCtx::new(ctx), sum_in_pid_order(partials));
        }
    }
}

/// Instantiate one generic region body for both engines.
///
/// `portable!(body)` takes a `fn body<M: SharedMem>(ctx: &mut
/// OmpCtx<'_, M>)`; `portable!(body, reduction(+) => fin)` takes a body
/// that returns the rank's `f64` contribution and a `fn fin<M:
/// SharedMem>(ctx: &mut OmpCtx<'_, M>, total: f64)` that the master
/// runs with the team's sum. Register the result with
/// [`OmpProgram::portable`].
#[macro_export]
macro_rules! portable {
    ($body:path) => {
        $crate::Portable::new(|c| $body(c), |c| $body(c))
    };
    ($body:path, reduction(+) => $fin:path) => {
        $crate::Portable::sum(
            |c| $body(c),
            |c, total| $fin(c, total),
            |c| $body(c),
            |c, total| $fin(c, total),
        )
    };
}

/// A program: named, outlined parallel regions.
#[derive(Default)]
pub struct OmpProgram {
    regions: Vec<(String, Portable)>,
}

impl OmpProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parallel region under `name` (builder style).
    /// Registration order defines region ids; every process must build
    /// the identical program (they run the same binary). The body may
    /// use every construct, blocking ones included, and so runs on the
    /// thread engine only.
    pub fn region(self, name: &str, f: impl Fn(&mut OmpCtx<'_>) + Send + Sync + 'static) -> Self {
        let thread = Arc::new(f);
        let region = Portable {
            thread,
            thread_fin: None,
            task: None,
        };
        self.portable(name, region)
    }

    /// Register a region whose one body runs on both engines.
    pub fn portable(mut self, name: &str, region: Portable) -> Self {
        assert!(
            self.id_of(name).is_none(),
            "region {name:?} registered twice"
        );
        self.regions.push((name.to_owned(), region));
        self
    }

    /// Region id of `name`.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.regions
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u32)
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// One rank's task for the region `name` on the task engine (what
    /// `nowmp_core::TaskApp::kernel` returns); `None` when no region of
    /// that name is registered. Panics on a region registered with
    /// [`Self::region`]: a body that may block has no task form.
    pub fn lower(&self, name: &str) -> Option<Box<dyn RegionTask>> {
        let (_, region) = &self.regions[self.id_of(name)? as usize];
        let form = region.task.clone().unwrap_or_else(|| {
            panic!("region {name:?} may block: it runs on the thread engine only")
        });
        Some(Box::new(PortableTask {
            form,
            phase: 0,
            total: 0.0,
        }))
    }

    /// The master's sequential phase right after region `id`'s join:
    /// when its ranks handed the join `reduction` partials, fold them
    /// in pid order and run the clause's epilogue with the total. A
    /// no-op for every other region, and under the 1999 scratch
    /// protocol, whose epilogue ran inside the region.
    pub(crate) fn join_epilogue(&self, id: u32, tmk: &mut TmkCtx) {
        let partials = tmk.take_join_partials();
        let fin = self
            .regions
            .get(id as usize)
            .and_then(|(_, r)| r.thread_fin.as_ref());
        if let (false, Some(fin)) = (partials.is_empty(), fin) {
            // Sequential code is no profiled region (see `OmpSystem::seq`).
            tmk.set_iter_cost(std::time::Duration::ZERO);
            fin(&mut OmpCtx::new(tmk), sum_in_pid_order(&partials));
        }
    }
}

/// The DSM's fork dispatcher calls regions by id.
impl RegionRunner for OmpProgram {
    fn run(&self, region: u32, tmk: &mut TmkCtx) {
        let (name, region) = self
            .regions
            .get(region as usize)
            .unwrap_or_else(|| panic!("unknown region id {region}"));
        // Resolve this region's modeled per-iteration compute cost so
        // the worksharing loops can charge it at chunk boundaries
        // (zero when the cost model is disabled or unprofiled).
        let per_iter = tmk.cost_model().region_cost(name);
        tmk.set_iter_cost(per_iter);
        (region.thread)(&mut OmpCtx::new(tmk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowmp_core::RED_ARRAY;
    use nowmp_tmk::{SharedMem, SimMemory, StepOutcome};

    #[test]
    fn registration_assigns_sequential_ids() {
        let p = OmpProgram::new().region("a", |_| {}).region("b", |_| {});
        assert_eq!(p.id_of("a"), Some(0));
        assert_eq!(p.id_of("b"), Some(1));
        assert_eq!(p.id_of("c"), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    fn touch<M: SharedMem>(ctx: &mut OmpCtx<'_, M>) {
        ctx.for_static(0..4, |c, i| c.dsm().write_u64(i, i));
    }

    fn one<M: SharedMem>(_: &mut OmpCtx<'_, M>) -> f64 {
        1.0
    }

    fn keep<M: SharedMem>(ctx: &mut OmpCtx<'_, M>, total: f64) {
        ctx.dsm().write_f64(9, total);
    }

    #[test]
    fn portable_regions_lower_to_tasks_by_form() {
        let p = OmpProgram::new()
            .portable("plain", crate::portable!(touch))
            .portable("sum", crate::portable!(one, reduction(+) => keep));
        assert!(p.lower("nope").is_none());
        let mut mem = SimMemory::new(8);
        let mut registry = nowmp_tmk::shm::Registry::new();
        registry.publish(RED_ARRAY, 16, 2, nowmp_tmk::ElemKind::F64);
        let mut step = |task: &mut Box<dyn RegionTask>, pid| {
            let mut out = StepOutcome::default();
            let mut ctx = TaskCtx::new(pid, 2, &mem, &mut out).in_region(&registry, &[]);
            let step = task.step(&mut ctx);
            mem.apply_writes(&out.writes);
            (step, out.writes, out.compute_iters)
        };
        let writes = (0..2).map(|i| (i, i)).collect::<Vec<_>>();
        let mut plain = p.lower("plain").unwrap();
        assert_eq!(step(&mut plain, 0), (Step::Done, writes, 2));
        // The clause: publish, barrier, fold, barrier, master epilogue.
        let mut ranks = [p.lower("sum").unwrap(), p.lower("sum").unwrap()];
        let one = 1f64.to_bits();
        assert_eq!(step(&mut ranks[0], 0), (Step::Barrier, vec![(16, one)], 0));
        assert_eq!(step(&mut ranks[1], 1), (Step::Barrier, vec![(17, one)], 0));
        assert_eq!(step(&mut ranks[0], 0), (Step::Barrier, vec![], 0));
        assert_eq!(step(&mut ranks[1], 1), (Step::Barrier, vec![], 0));
        assert_eq!(
            step(&mut ranks[0], 0),
            (Step::Done, vec![(9, 2f64.to_bits())], 0)
        );
        assert_eq!(step(&mut ranks[1], 1), (Step::Done, vec![], 0));
    }

    #[test]
    fn a_reduction_riding_the_join_is_one_step_and_an_epilogue() {
        let p = OmpProgram::new().portable("sum", crate::portable!(one, reduction(+) => keep));
        let (mem, registry) = (SimMemory::new(8), nowmp_tmk::shm::Registry::new());
        let mut ranks = [p.lower("sum").unwrap(), p.lower("sum").unwrap()];
        for (pid, task) in ranks.iter_mut().enumerate() {
            let mut out = StepOutcome::default();
            let ctx = TaskCtx::new(pid as u16, 2, &mem, &mut out);
            let mut ctx = ctx.in_region(&registry, &[]).with_join_reduction(true);
            assert_eq!(task.step(&mut ctx), Step::Done);
            // No scratch write: the partial goes to the join.
            assert_eq!((out.writes, out.partial), (vec![], Some(1.0)));
        }
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(0, 2, &mem, &mut out).in_region(&registry, &[]);
        ranks[0].join_epilogue(&mut ctx, &[1.0, 1.0]);
        assert_eq!(out.writes, vec![(9, 2f64.to_bits())]);
    }

    #[test]
    #[should_panic(expected = "may block")]
    fn a_region_that_may_block_has_no_task_form() {
        let p = OmpProgram::new().region("b", |ctx| ctx.barrier());
        let _ = p.lower("b");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_region_panics() {
        let _ = OmpProgram::new().region("a", |_| {}).region("a", |_| {});
    }
}
