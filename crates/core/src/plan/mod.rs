//! The `SchedulePlan` intermediate representation: what a scheduler
//! *decides*, separated from the honest execution that *realizes* it.
//!
//! Every scheduler in the paper — Theorem 1.1's uniform random delays, the
//! §3 remark variant, and Theorem 4.1's private-randomness construction —
//! is really a *plan* (per-unit delays, truncations, a phase length)
//! followed by one shared execution style. This module makes that split
//! first-class:
//!
//! 1. **plan** — [`crate::Scheduler::plan`] turns a problem and a
//!    `sched_seed` into a [`SchedulePlan`]: a serializable value that can
//!    be inspected, diffed, stored, re-executed, or analyzed *without*
//!    paying for an engine run.
//! 2. **execute** — [`execute_plan`] realizes any plan on the CONGEST
//!    engine. All schedulers share this single honest executor.
//! 3. **verify** — [`crate::verify::against_references`] checks the
//!    outcome against the alone runs, as before.
//!
//! The [`analysis`] submodule composes a plan with the problem's cached
//! reference communication patterns to predict per-edge loads and late
//! messages without executing — [`crate::doubling`] uses it to reject
//! infeasible congestion guesses before paying for an engine run.

pub mod analysis;
pub mod cache;
pub mod diff;

use crate::exec::{ExecError, Executor, ExecutorConfig, ShardReport, StepExtent, Unit};
use crate::net::{run_coordinator, NetConfig};
use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedule::ScheduleOutcome;
use crate::wire::LinkTraffic;
use das_obs::{ObsConfig, ObsReport};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::TcpListener;

/// Ways a [`SchedulePlan`] can be malformed for a given problem. Plans
/// produced by the in-crate schedulers are valid by construction; this
/// protects the deserialize/execute entry points (`dasched plan` round
/// trips, hand-edited JSON) from panics, hangs, and allocation blowups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// `phase_len` is zero: no engine rounds would ever drain, so the
    /// executor would loop forever.
    ZeroPhaseLen,
    /// A unit's `stride` is zero: its step plan would not be strictly
    /// increasing.
    ZeroStride {
        /// Index of the offending unit.
        unit: usize,
    },
    /// A unit references an algorithm the problem does not have.
    UnknownAlgorithm {
        /// Index of the offending unit.
        unit: usize,
        /// The referenced algorithm index.
        algo: usize,
        /// How many algorithms the problem has.
        known: usize,
    },
    /// A unit's per-node delay vector has the wrong length.
    DelayLength {
        /// Index of the offending unit.
        unit: usize,
        /// Expected length (the node count).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A unit's per-node truncation vector has the wrong length.
    TruncLength {
        /// Index of the offending unit.
        unit: usize,
        /// Expected length (the node count).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A unit schedules a step beyond the executor's engine-round budget
    /// (or past `u64` altogether): building its step table would exhaust
    /// memory before the round cap could even trigger.
    Oversized {
        /// Index of the offending unit.
        unit: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroPhaseLen => write!(f, "plan has phase_len 0"),
            PlanError::ZeroStride { unit } => write!(f, "unit {unit} has stride 0"),
            PlanError::UnknownAlgorithm { unit, algo, known } => write!(
                f,
                "unit {unit} references algorithm {algo}, but the problem has {known}"
            ),
            PlanError::DelayLength {
                unit,
                expected,
                got,
            } => write!(
                f,
                "unit {unit} delay vector has length {got}, expected {expected}"
            ),
            PlanError::TruncLength {
                unit,
                expected,
                got,
            } => write!(
                f,
                "unit {unit} truncation vector has length {got}, expected {expected}"
            ),
            PlanError::Oversized { unit } => write!(
                f,
                "unit {unit} schedules steps beyond the engine-round budget"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Any failure on the plan → execute path: a model violation in a
/// reference run, a malformed plan, or an execution that exceeded its
/// round budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// An algorithm violated the CONGEST model in its alone run.
    Reference(ReferenceError),
    /// The plan is malformed for the problem (see [`PlanError`]).
    InvalidPlan(PlanError),
    /// The execution failed (see [`ExecError`]).
    Exec(ExecError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Reference(e) => write!(f, "reference run failed: {e}"),
            SchedError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            SchedError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Reference(e) => Some(e),
            SchedError::InvalidPlan(e) => Some(e),
            SchedError::Exec(e) => Some(e),
        }
    }
}

impl From<ReferenceError> for SchedError {
    fn from(e: ReferenceError) -> Self {
        SchedError::Reference(e)
    }
}

impl From<PlanError> for SchedError {
    fn from(e: PlanError) -> Self {
        SchedError::InvalidPlan(e)
    }
}

impl From<ExecError> for SchedError {
    fn from(e: ExecError) -> Self {
        SchedError::Exec(e)
    }
}

/// A complete scheduling decision, decoupled from execution.
///
/// A plan is a pure function of `(problem, sched_seed)` for every scheduler
/// in this crate: planning twice with the same inputs yields an identical
/// (byte-identical once serialized) plan. Executing a plan with
/// [`execute_plan`] on the problem it was planned for reproduces exactly
/// the outcome of the fused [`crate::Scheduler::run`] path.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulePlan {
    /// Name of the scheduler that produced the plan (provenance).
    pub scheduler: String,
    /// The scheduler-randomness seed the plan was drawn from.
    pub sched_seed: u64,
    /// Engine rounds per big-round.
    pub phase_len: u64,
    /// CONGEST rounds charged for pre-computation (clustering + randomness
    /// sharing for the private scheduler; 0 otherwise).
    pub precompute_rounds: u64,
    /// Predicted schedule length in engine rounds: the last step big-round
    /// boundary, `(last_step + 1) · phase_len`. The measured length equals
    /// this unless messages spill past the last step (see
    /// [`analysis::predict`] for the exact prediction).
    pub predicted_rounds: u64,
    /// The scheduled units: per-node delays, strides, truncations.
    pub units: Vec<Unit>,
}

impl SchedulePlan {
    /// Assembles a plan, deriving `predicted_rounds` from the merged step
    /// plan of `units` (earliest-wins deduplication included).
    ///
    /// # Panics
    /// Panics if `units` is malformed for the problem (wrong vector sizes
    /// or out-of-range algorithm indices).
    pub fn assemble(
        scheduler: &str,
        sched_seed: u64,
        phase_len: u64,
        precompute_rounds: u64,
        problem: &DasProblem<'_>,
        units: Vec<Unit>,
    ) -> Self {
        let phase_len = phase_len.max(1);
        let n = problem.graph().node_count();
        let predicted_rounds = StepExtent::of(n, problem.algorithms(), &units)
            .last
            .map_or(0, |b| (b + 1).saturating_mul(phase_len));
        SchedulePlan {
            scheduler: scheduler.to_string(),
            sched_seed,
            phase_len,
            precompute_rounds,
            predicted_rounds,
            units,
        }
    }

    /// Total units in the plan.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The plan's canonical JSON form (pretty-printed, keys in declaration
    /// order): equal plans serialize byte-identically.
    ///
    /// # Panics
    /// Never in practice — all plan fields are JSON-representable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan is JSON-representable")
    }

    /// Parses a plan from its JSON form.
    ///
    /// JSON well-formedness is not plan well-formedness: callers that will
    /// execute the parsed plan should also run
    /// [`SchedulePlan::validate`] against the target problem (the
    /// [`execute_plan`] entry points do so automatically).
    ///
    /// # Errors
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Checks that the plan is well-formed *for this problem*: nonzero
    /// `phase_len`, and per unit a known algorithm, full-length delay and
    /// truncation vectors, nonzero stride, and a step table that fits the
    /// default engine-round budget (a deserialized delay of `2^40` would
    /// otherwise exhaust memory building the big-round table, and a zero
    /// `phase_len` or stride would hang or panic the executor).
    ///
    /// Every deserialize/execute entry point calls this; plans assembled
    /// by the in-crate schedulers pass by construction.
    ///
    /// # Errors
    /// Returns the first [`PlanError`] found.
    pub fn validate(&self, problem: &DasProblem<'_>) -> Result<(), PlanError> {
        if self.phase_len == 0 {
            return Err(PlanError::ZeroPhaseLen);
        }
        let n = problem.graph().node_count();
        let k = problem.k();
        let budget = ExecutorConfig::default().max_engine_rounds;
        for (i, u) in self.units.iter().enumerate() {
            if u.algo >= k {
                return Err(PlanError::UnknownAlgorithm {
                    unit: i,
                    algo: u.algo,
                    known: k,
                });
            }
            if u.delay.len() != n {
                return Err(PlanError::DelayLength {
                    unit: i,
                    expected: n,
                    got: u.delay.len(),
                });
            }
            if u.trunc.len() != n {
                return Err(PlanError::TruncLength {
                    unit: i,
                    expected: n,
                    got: u.trunc.len(),
                });
            }
            if u.stride == 0 {
                return Err(PlanError::ZeroStride { unit: i });
            }
            let rounds = problem.algorithms()[u.algo].rounds();
            for v in 0..n {
                let lim = rounds.min(u.trunc[v]) as u64;
                if lim == 0 {
                    continue;
                }
                // last big-round of this unit at v, then its engine-round
                // boundary — both with overflow checks
                let fits = (lim - 1)
                    .checked_mul(u.stride)
                    .and_then(|x| x.checked_add(u.delay[v]))
                    .and_then(|last| last.checked_add(1))
                    .and_then(|bigs| bigs.checked_mul(self.phase_len))
                    .is_some_and(|engine| engine <= budget);
                if !fits {
                    return Err(PlanError::Oversized { unit: i });
                }
            }
        }
        Ok(())
    }
}

/// Where a plan's shards run.
pub(crate) enum Topology<'a> {
    /// One shard owning every node, on the calling thread.
    Fused,
    /// `config.shards` in-process worker threads.
    Sharded,
    /// One worker process per shard, joined over `listener`.
    Networked {
        /// Requested worker count (clamped to the node count).
        workers: usize,
        /// Where the workers connect.
        listener: TcpListener,
        /// Deadlines, frame limits, stop flag, live hub.
        net: &'a NetConfig,
    },
}

/// Everything one execution produced; each public entry point returns the
/// parts it promises.
pub(crate) struct Executed {
    pub(crate) outcome: ScheduleOutcome,
    /// Partition-dependent measurements (empty for [`Topology::Fused`]).
    pub(crate) shard: ShardReport,
    /// The merged recording, `None` when `obs` is off.
    pub(crate) obs: Option<ObsReport>,
    /// Coordinator-side per-worker traffic ([`Topology::Networked`] only).
    pub(crate) traffic: Vec<LinkTraffic>,
}

/// The one way a plan gets executed: validate (plans are untrusted input),
/// derive the per-algorithm seeds, run on the requested topology with the
/// plan's own `phase_len` — part of the plan's semantics, so it always
/// overrides `config.phase_len` — and stamp the plan's pre-computation
/// charge on the outcome.
pub(crate) fn execute(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
    obs: &ObsConfig,
    topology: Topology<'_>,
) -> Result<Executed, SchedError> {
    plan.validate(problem)?;
    let seeds: Vec<u64> = (0..problem.k()).map(|i| problem.algo_seed(i)).collect();
    let config = config.clone().with_phase_len(plan.phase_len);
    let (g, algos) = (problem.graph(), problem.algorithms());
    let units = &plan.units;
    let (outcome, shard, obs, traffic) = match topology {
        Topology::Fused => {
            let (outcome, obs) = Executor::run_observed(g, algos, &seeds, units, &config, obs)?;
            (outcome, ShardReport::default(), obs, Vec::new())
        }
        Topology::Sharded => {
            let (outcome, shard, obs) =
                Executor::run_sharded_observed(g, algos, &seeds, units, &config, obs)?;
            (outcome, shard, obs, Vec::new())
        }
        Topology::Networked {
            workers,
            listener,
            net,
        } => {
            let (outcome, report) =
                run_coordinator(problem, plan, &config, workers, listener, net)?;
            (outcome, report.shard, None, report.traffic)
        }
    };
    let mut done = Executed {
        outcome,
        shard,
        obs,
        traffic,
    };
    done.outcome.precompute_rounds = plan.precompute_rounds;
    Ok(done)
}

/// Executes a plan on the problem's algorithms: the single shared stage 2
/// of the plan → execute → verify pipeline.
///
/// The execution is honest — per-arc FIFO queues at CONGEST bandwidth,
/// canonical machines, late messages dropped and counted — and depends
/// only on `(problem.tape_seed, plan)`: re-executing a stored plan
/// reproduces the original [`ScheduleOutcome`] exactly.
///
/// # Errors
/// Returns [`SchedError::InvalidPlan`] if the plan fails
/// [`SchedulePlan::validate`], or [`SchedError::Exec`] if the engine-round
/// cap is hit.
pub fn execute_plan(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
) -> Result<ScheduleOutcome, SchedError> {
    execute_plan_with(problem, plan, &ExecutorConfig::default())
}

/// [`execute_plan`] with an explicit executor configuration (engine
/// selection, custom round budget, message size, departure recording).
/// The phase length always comes from the plan; `config.shards` is
/// ignored — this is the fused entry.
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    execute(problem, plan, config, &ObsConfig::off(), Topology::Fused).map(|e| e.outcome)
}

/// [`execute_plan`] with observability: records metrics, load profiles,
/// and (in full mode) trace events while executing, without perturbing the
/// outcome — the [`ScheduleOutcome`] is byte-identical to
/// [`execute_plan`]'s for every `obs` setting. The report is `None` when
/// recording is disabled.
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_observed(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    obs: &ObsConfig,
) -> Result<(ScheduleOutcome, Option<ObsReport>), SchedError> {
    execute_plan_observed_with(problem, plan, obs, &ExecutorConfig::default())
}

/// [`execute_plan_observed`] with an explicit executor configuration
/// (engine selection, custom round budget).
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_observed_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    obs: &ObsConfig,
    config: &ExecutorConfig,
) -> Result<(ScheduleOutcome, Option<ObsReport>), SchedError> {
    execute(problem, plan, config, obs, Topology::Fused).map(|e| (e.outcome, e.obs))
}

/// Executes a plan on the sharded executor with `shards` worker threads
/// (see [`Executor::run_sharded`]): the outcome is byte-identical to
/// [`execute_plan`], and the returned [`ShardReport`] carries the
/// partition-dependent measurements (per-shard wall-clock, cross-shard
/// message counts).
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_sharded(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    shards: usize,
) -> Result<(ScheduleOutcome, ShardReport), SchedError> {
    execute_plan_sharded_with(
        problem,
        plan,
        &ExecutorConfig::default().with_shards(shards),
    )
}

/// [`execute_plan_sharded`] with an explicit executor configuration
/// (custom round budget); the shard count comes from `config.shards`.
/// [`crate::EngineKind::Row`] has no sharded form and is refused with
/// [`ExecError::RowIsFusedOnly`].
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_sharded_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<(ScheduleOutcome, ShardReport), SchedError> {
    execute(problem, plan, config, &ObsConfig::off(), Topology::Sharded)
        .map(|e| (e.outcome, e.shard))
}

/// [`execute_plan_sharded`] with observability: each shard records on its
/// own lane and the recordings merge into one report (see
/// [`Executor::run_sharded_observed`]). The outcome stays byte-identical
/// to [`execute_plan`] for every shard count and `obs` setting.
///
/// # Errors
/// As [`execute_plan`].
pub fn execute_plan_sharded_observed(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    shards: usize,
    obs: &ObsConfig,
) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), SchedError> {
    let config = ExecutorConfig::default().with_shards(shards);
    execute_plan_sharded_observed_with(problem, plan, obs, &config)
}

/// [`execute_plan_sharded_observed`] with an explicit executor
/// configuration (shard count, round budget).
///
/// # Errors
/// As [`execute_plan_sharded_with`].
pub fn execute_plan_sharded_observed_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    obs: &ObsConfig,
    config: &ExecutorConfig,
) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), SchedError> {
    execute(problem, plan, config, obs, Topology::Sharded).map(|e| (e.outcome, e.shard, e.obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::Scheduler;
    use crate::synthetic::{FloodBall, RelayChain};
    use crate::wire::PlanSlice;
    use crate::{
        InterleaveScheduler, PrivateScheduler, SequentialScheduler, TunedUniformScheduler,
        UniformScheduler,
    };
    use das_graph::{generators, NodeId};

    fn mixed_problem(g: &das_graph::Graph) -> DasProblem<'_> {
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = vec![
            Box::new(RelayChain::new(0, g)),
            Box::new(RelayChain::new(1, g)),
            Box::new(FloodBall::new(2, g, NodeId(0), 4)),
        ];
        DasProblem::new(g, algos, 17)
    }

    fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(SequentialScheduler),
            Box::new(InterleaveScheduler),
            Box::new(UniformScheduler::default()),
            Box::new(TunedUniformScheduler::default()),
            Box::new(PrivateScheduler::default()),
        ]
    }

    #[test]
    fn plan_then_execute_matches_fused_run_for_every_scheduler() {
        let g = generators::path(10);
        let p = mixed_problem(&g);
        for sched in all_schedulers() {
            let fused = sched.run(&p).unwrap();
            let plan = sched.plan(&p, sched.default_sched_seed()).unwrap();
            let staged = execute_plan(&p, &plan).unwrap();
            assert_eq!(fused.outputs, staged.outputs, "{}", sched.name());
            assert_eq!(fused.stats, staged.stats, "{}", sched.name());
            assert_eq!(fused.departures, staged.departures, "{}", sched.name());
            assert_eq!(
                fused.precompute_rounds,
                staged.precompute_rounds,
                "{}",
                sched.name()
            );
        }
    }

    #[test]
    fn planning_is_deterministic_and_json_stable() {
        let g = generators::path(12);
        let p = mixed_problem(&g);
        for sched in all_schedulers() {
            let a = sched.plan(&p, 12345).unwrap();
            let b = sched.plan(&p, 12345).unwrap();
            assert_eq!(a, b, "{}", sched.name());
            assert_eq!(a.to_json(), b.to_json(), "{}", sched.name());
            assert_eq!(a.scheduler, sched.name());
            assert_eq!(a.sched_seed, 12345);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// ASSIGN's columns carry exactly the shard's part of the plan:
        /// decoded, they are the plan on owned nodes and `delay = trunc =
        /// 0` everywhere else — and with one shard, the plan itself.
        #[test]
        fn plan_columns_decode_to_the_owned_part_of_the_plan(
            n in 6usize..20,
            sched_seed: u64
        ) {
            let g = generators::path(n);
            let p = mixed_problem(&g);
            for sched in all_schedulers() {
                let plan = sched.plan(&p, sched_seed).unwrap();
                for shards in [1, 2, 3, 7] {
                    let part = crate::shard::Partition::degree_balanced(&g, shards);
                    let of_node = part.of_node();
                    for shard in 0..part.shards() as u32 {
                        let slice = PlanSlice { plan: &plan, of_node, shard };
                        let decoded =
                            PlanSlice::decode(&slice.encode(), of_node, shard).unwrap();
                        let mut want = plan.clone();
                        for u in &mut want.units {
                            let foreign = of_node.iter().enumerate().filter(|&(_, &s)| s != shard);
                            for (v, _) in foreign {
                                (u.delay[v], u.trunc[v]) = (0, 0);
                            }
                        }
                        let name = sched.name();
                        proptest::prop_assert_eq!(&decoded, &want, "{name} {shard}/{shards}");
                        decoded.validate(&p).unwrap();
                        if shards == 1 {
                            proptest::prop_assert_eq!(&decoded, &plan);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_json_roundtrips_to_the_same_outcome() {
        let g = generators::path(10);
        let p = mixed_problem(&g);
        for sched in all_schedulers() {
            let plan = sched.plan(&p, 7).unwrap();
            let revived = SchedulePlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(plan, revived, "{}", sched.name());
            let a = execute_plan(&p, &plan).unwrap();
            let b = execute_plan(&p, &revived).unwrap();
            assert_eq!(a.outputs, b.outputs, "{}", sched.name());
            assert_eq!(a.stats, b.stats, "{}", sched.name());
        }
    }

    #[test]
    fn predicted_rounds_matches_clean_execution_length() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        // sequential never spills: the predicted boundary is the measured
        // schedule length
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        let outcome = execute_plan(&p, &plan).unwrap();
        assert_eq!(outcome.stats.late_messages, 0);
        assert_eq!(plan.predicted_rounds, outcome.schedule_rounds());
    }

    #[test]
    fn validate_rejects_each_malformed_plan_shape() {
        let g = generators::path(6);
        let p = mixed_problem(&g);
        let good = SequentialScheduler.plan(&p, 0).unwrap();
        assert_eq!(good.validate(&p), Ok(()));

        // phase_len 0 would make the drain loop a no-op: an infinite hang
        let mut bad = good.clone();
        bad.phase_len = 0;
        assert_eq!(bad.validate(&p), Err(PlanError::ZeroPhaseLen));
        assert!(matches!(
            execute_plan(&p, &bad),
            Err(SchedError::InvalidPlan(PlanError::ZeroPhaseLen))
        ));

        // stride 0 would trip the StepPlan strictly-increasing assert
        let mut bad = good.clone();
        bad.units[1].stride = 0;
        assert_eq!(bad.validate(&p), Err(PlanError::ZeroStride { unit: 1 }));

        // unknown algorithm index
        let mut bad = good.clone();
        bad.units[2].algo = 9;
        assert_eq!(
            bad.validate(&p),
            Err(PlanError::UnknownAlgorithm {
                unit: 2,
                algo: 9,
                known: 3
            })
        );

        // missized delay / truncation vectors
        let mut bad = good.clone();
        bad.units[0].delay.pop();
        assert_eq!(
            bad.validate(&p),
            Err(PlanError::DelayLength {
                unit: 0,
                expected: 6,
                got: 5
            })
        );
        let mut bad = good.clone();
        bad.units[0].trunc.push(1);
        assert_eq!(
            bad.validate(&p),
            Err(PlanError::TruncLength {
                unit: 0,
                expected: 6,
                got: 7
            })
        );

        // a 2^40 delay from hand-edited JSON: building the big-round table
        // would exhaust memory, so validate must reject it up front
        let mut bad = good.clone();
        bad.units[0].delay[3] = 1 << 40;
        assert_eq!(bad.validate(&p), Err(PlanError::Oversized { unit: 0 }));
        // ... and near-u64 values must not overflow the check itself
        let mut bad = good.clone();
        bad.units[0].delay[0] = u64::MAX - 1;
        bad.units[0].stride = u64::MAX / 2;
        assert_eq!(bad.validate(&p), Err(PlanError::Oversized { unit: 0 }));
    }

    #[test]
    fn malformed_json_plan_is_rejected_before_execution() {
        let g = generators::path(6);
        let p = mixed_problem(&g);
        let mut plan = UniformScheduler::default().plan(&p, 3).unwrap();
        plan.units[0].delay[2] = 1 << 50;
        let revived = SchedulePlan::from_json(&plan.to_json()).unwrap();
        let err = execute_plan(&p, &revived).unwrap_err();
        assert!(matches!(
            err,
            SchedError::InvalidPlan(PlanError::Oversized { unit: 0 })
        ));
        assert!(err.to_string().contains("invalid plan"));
    }

    #[test]
    fn sharded_execution_matches_staged_for_every_scheduler() {
        let g = generators::grid(3, 4);
        // snake route: consecutive hops are grid edges
        let route: Vec<NodeId> = (0..3u32)
            .flat_map(|row| {
                let cols: Vec<u32> = if row.is_multiple_of(2) {
                    (0..4).collect()
                } else {
                    (0..4).rev().collect()
                };
                cols.into_iter().map(move |c| NodeId(row * 4 + c))
            })
            .collect();
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = vec![
            Box::new(RelayChain::along(0, &g, route.clone())),
            Box::new(RelayChain::along(1, &g, route)),
            Box::new(FloodBall::new(2, &g, NodeId(0), 4)),
        ];
        let p = DasProblem::new(&g, algos, 17);
        for sched in all_schedulers() {
            let plan = sched.plan(&p, 11).unwrap();
            let fused = execute_plan(&p, &plan).unwrap();
            for shards in [1, 2, 5] {
                let (sharded, report) = execute_plan_sharded(&p, &plan, shards).unwrap();
                assert_eq!(
                    format!("{fused:?}"),
                    format!("{sharded:?}"),
                    "{} with {shards} shards",
                    sched.name()
                );
                assert_eq!(report.shards, shards.min(g.node_count()));
            }
        }
    }

    #[test]
    fn the_plans_phase_len_wins_over_the_configs_on_every_entry() {
        let g = generators::path(10);
        let p = mixed_problem(&g);
        let plan = UniformScheduler::default().plan(&p, 3).unwrap();
        let expected = format!("{:?}", execute_plan(&p, &plan).unwrap());
        let off = ObsConfig::off();
        let other = ExecutorConfig::default()
            .with_phase_len(plan.phase_len + 5)
            .with_shards(2);
        let fused = execute_plan_with(&p, &plan, &other).unwrap();
        assert_eq!(expected, format!("{fused:?}"));
        let (observed, _) = execute_plan_observed_with(&p, &plan, &off, &other).unwrap();
        assert_eq!(expected, format!("{observed:?}"));
        let (sharded, _) = execute_plan_sharded_with(&p, &plan, &other).unwrap();
        assert_eq!(expected, format!("{sharded:?}"));
    }

    #[test]
    fn round_cap_surfaces_through_execute_plan_with() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        let config = ExecutorConfig {
            max_engine_rounds: 2,
            ..ExecutorConfig::default()
        }
        .with_phase_len(plan.phase_len);
        let err = execute_plan_with(&p, &plan, &config).unwrap_err();
        assert!(matches!(
            err,
            SchedError::Exec(ExecError::RoundCapExceeded { cap: 2, .. })
        ));
    }

    #[test]
    fn different_sched_seeds_change_the_plan_but_not_the_references() {
        let g = generators::path(12);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..6)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 5);
        let sched = UniformScheduler::default();
        let a = sched.plan(&p, 1).unwrap();
        let b = sched.plan(&p, 2).unwrap();
        assert_ne!(a.units, b.units, "sched_seed drives the delays");
        assert_eq!(
            p.reference_runs_computed(),
            6,
            "replanning reuses the cached reference runs"
        );
    }
}
