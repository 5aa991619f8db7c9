//! The scheduling algorithms: baselines, Theorem 1.1, the §3 remark
//! variant, and the private-randomness scheduler of Theorem 4.1.
//!
//! Every scheduler is a *planner*: [`Scheduler::plan`] maps `(problem,
//! sched_seed)` to a [`SchedulePlan`], and the shared
//! [`crate::plan::execute`] realizes any plan on the engine.
//! [`Scheduler::run`] is the fused convenience path — plan with the
//! scheduler's default seed, then execute.
//!
//! A scheduler *writes* planning once, as the three stages of
//! [`crate::plan::cache`] (`build_sweep_artifact → seed_artifact →
//! size_plan`); `plan`, `plan_swept` and `build_artifact` are compositions
//! the trait provides.

mod baseline;
mod private;
mod uniform;

pub use baseline::{InterleaveScheduler, SequentialScheduler};
pub use private::{PrivateDelayLaw, PrivateScheduler};
pub use uniform::{
    prime_range_overhead, uniform_length_bound, TunedUniformScheduler, UniformScheduler,
};

use crate::plan::cache::{ArtifactData, PlanArtifact, SweepArtifact, SweepData};
use crate::plan::{execute, ExecOptions, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedule::ScheduleOutcome;

/// A DAS scheduler: turns a problem instance into a [`SchedulePlan`] (and,
/// through [`Scheduler::run`], into a scheduled execution).
///
/// The schedulers of this crate implement the three stages and inherit
/// every composition. A scheduler from outside the crate cannot construct
/// artifacts; it overrides [`Scheduler::plan`] instead, and the default
/// stages route every composition to that. (Implementing neither leaves
/// `plan` and the default stages calling each other.)
///
/// Schedulers are `Send + Sync` so a trial harness can share one across
/// worker threads.
pub trait Scheduler: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The `sched_seed` that [`Scheduler::run`] plans with — the
    /// scheduler's own configured seed, so the fused path stays
    /// reproducible from the scheduler value alone. Deterministic
    /// schedulers ignore the seed and return 0.
    fn default_sched_seed(&self) -> u64 {
        0
    }

    /// Stage 1 — everything planning computes that does not depend on
    /// `sched_seed`. A trial sweep builds this once per
    /// `(problem, scheduler)` and derives each seed's plan with
    /// [`Scheduler::plan_swept`].
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`] if an algorithm violates the
    /// CONGEST model in its alone run (the measured congestion/dilation
    /// parameters come from there).
    fn build_sweep_artifact(
        &self,
        problem: &DasProblem<'_>,
    ) -> Result<SweepArtifact, ReferenceError> {
        let _ = problem;
        Ok(SweepArtifact::new(self.name(), SweepData::Replan))
    }

    /// Stage 2 — everything planning computes for one `sched_seed` that
    /// does not depend on a congestion guess. [`crate::doubling`] builds it
    /// once per search and re-sizes it per attempt via
    /// [`Scheduler::size_plan`].
    ///
    /// The default implementation serves the schedulers whose seed is pure
    /// provenance (sequential, interleave): the swept plan, re-tagged.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`], as stage 1 does.
    ///
    /// # Panics
    /// Panics if `sweep` was built by a different scheduler.
    fn seed_artifact(
        &self,
        problem: &DasProblem<'_>,
        sweep: &SweepArtifact,
        sched_seed: u64,
    ) -> Result<PlanArtifact, ReferenceError> {
        let plan = match sweep.payload(self.name()) {
            SweepData::SeedTagged(plan) => {
                let mut plan = plan.clone();
                plan.sched_seed = sched_seed;
                plan
            }
            SweepData::Replan => self.plan(problem, sched_seed)?,
            _ => unreachable!(
                "scheduler `{}` must write seed_artifact for its sweep payload",
                self.name()
            ),
        };
        Ok(PlanArtifact::new(
            self.name(),
            sched_seed,
            ArtifactData::Fixed(plan),
        ))
    }

    /// Stage 3 — sizes a [`SchedulePlan`] from a seeded artifact for a
    /// concrete congestion `guess` (an exact delay-span override in
    /// big-rounds; `None` keeps the scheduler's own sizing).
    ///
    /// The default implementation serves the schedulers with no span
    /// override, whose stage 2 is the finished plan.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`], as stage 1 does.
    ///
    /// # Panics
    /// Panics if `artifact` was built by a different scheduler.
    fn size_plan(
        &self,
        problem: &DasProblem<'_>,
        artifact: &PlanArtifact,
        guess: Option<u64>,
    ) -> Result<SchedulePlan, ReferenceError> {
        let _ = (problem, guess);
        match artifact.payload(self.name()) {
            ArtifactData::Fixed(plan) => Ok(plan.clone()),
            _ => unreachable!(
                "scheduler `{}` must write size_plan for its artifact payload",
                self.name()
            ),
        }
    }

    /// Stages 1–2 from nothing: the guess-independent artifact for
    /// `(problem, sched_seed)`.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`], as stage 1 does.
    fn build_artifact(
        &self,
        problem: &DasProblem<'_>,
        sched_seed: u64,
    ) -> Result<PlanArtifact, ReferenceError> {
        self.seed_artifact(problem, &self.build_sweep_artifact(problem)?, sched_seed)
    }

    /// Stages 2–3 from a cached [`SweepArtifact`]: the plan for one
    /// `sched_seed` of a sweep, at the scheduler's own sizing.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`], as stage 1 does.
    ///
    /// # Panics
    /// Panics if `artifact` was built by a different scheduler.
    fn plan_swept(
        &self,
        problem: &DasProblem<'_>,
        artifact: &SweepArtifact,
        sched_seed: u64,
    ) -> Result<SchedulePlan, ReferenceError> {
        self.size_plan(
            problem,
            &self.seed_artifact(problem, artifact, sched_seed)?,
            None,
        )
    }

    /// Plans the schedule — the whole chain from nothing: delays,
    /// truncations, and phase length for all algorithms of `problem`,
    /// drawing any scheduler randomness from `sched_seed`. Pure: same
    /// `(problem, sched_seed)`, same plan.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`], as stage 1 does.
    fn plan(
        &self,
        problem: &DasProblem<'_>,
        sched_seed: u64,
    ) -> Result<SchedulePlan, ReferenceError> {
        self.plan_swept(problem, &self.build_sweep_artifact(problem)?, sched_seed)
    }

    /// Schedules and executes all algorithms of `problem`: plans with
    /// [`Scheduler::default_sched_seed`] and hands the plan to
    /// [`crate::plan::execute`], fused.
    ///
    /// # Errors
    /// Propagates a [`SchedError`]: a [`ReferenceError`] from planning, or
    /// an execution failure (e.g. the engine-round cap).
    fn run(&self, problem: &DasProblem<'_>) -> Result<ScheduleOutcome, SchedError> {
        let plan = self.plan(problem, self.default_sched_seed())?;
        execute(problem, &plan, ExecOptions::default()).map(|done| done.outcome)
    }
}
