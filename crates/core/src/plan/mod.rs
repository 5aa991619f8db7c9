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
//! 2. **execute** — [`execute`] realizes any plan on the CONGEST engine,
//!    fused, sharded or networked ([`ExecOptions`]). All schedulers share
//!    this single honest executor.
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

use crate::exec::{ExecError, Executor, ExecutorConfig, FlatSteps, ShardReport, Unit};
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
/// [`execute`] on the problem it was planned for reproduces exactly the
/// outcome of the fused [`crate::Scheduler::run`] path.
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
    /// Assembles a plan, deriving `predicted_rounds` from the step table
    /// of `units` (earliest-wins deduplication included).
    ///
    /// # Panics
    /// Panics if `units` is malformed for the problem — anything
    /// [`SchedulePlan::validate`] refuses, an oversized unit included. No
    /// scheduler in this crate produces such units.
    pub fn assemble(
        scheduler: &str,
        sched_seed: u64,
        phase_len: u64,
        precompute_rounds: u64,
        problem: &DasProblem<'_>,
        units: Vec<Unit>,
    ) -> Self {
        let mut plan = SchedulePlan {
            scheduler: scheduler.to_string(),
            sched_seed,
            phase_len: phase_len.max(1),
            precompute_rounds,
            predicted_rounds: 0,
            units,
        };
        plan.predicted_rounds = FlatSteps::build(problem, &plan)
            .unwrap_or_else(|e| panic!("assembled a malformed plan: {e}"))
            .predicted_rounds();
        plan
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
    /// [`SchedulePlan::validate`] against the target problem ([`execute`]
    /// does so automatically).
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
    /// Building the plan's step table — the one reader of a plan's units —
    /// makes these checks, so every execute and predict entry point makes
    /// them; plans assembled by the in-crate schedulers pass by
    /// construction.
    ///
    /// # Errors
    /// Returns the first [`PlanError`] found.
    pub fn validate(&self, problem: &DasProblem<'_>) -> Result<(), PlanError> {
        FlatSteps::build(problem, self).map(drop)
    }
}

/// Where a plan's shards run.
pub enum Topology<'a> {
    /// One shard owning every node, on the calling thread.
    Fused,
    /// This many in-process shard threads (clamped to the node count; 0
    /// clamps to 1). Nodes are split into degree-balanced shards (see
    /// [`crate::Partition`]); each thread steps its own nodes and drains
    /// the arcs it owns, and cross-shard messages move once per big-round.
    Sharded(usize),
    /// One worker process per shard, joined over `listener` (see
    /// [`crate::net`]).
    Networked {
        /// Requested worker count (clamped to the node count).
        workers: usize,
        /// Where the workers connect.
        listener: TcpListener,
        /// Deadlines, frame limits, stop flag.
        net: &'a NetConfig,
    },
}

impl Topology<'_> {
    /// The run identity a live hub shows on `/status`: how shards exchange
    /// messages (`local`, `in_process` or `wire`) and how many run on an
    /// `n`-node graph — the partition's clamp, not the request.
    pub(crate) fn identity(&self, n: usize) -> (&'static str, usize) {
        let clamp = |s: usize| s.clamp(1, n.max(1));
        match self {
            Topology::Fused => ("local", 1),
            Topology::Sharded(shards) => ("in_process", clamp(*shards)),
            Topology::Networked { workers, .. } => ("wire", clamp(*workers)),
        }
    }
}

/// How [`execute`] runs a plan: where (`topology`), on which budget
/// (`config`), and what it records (`obs`). The default is fused,
/// [`ExecutorConfig::default`], recording off; the builders below change
/// one part each.
///
/// Taken by value: a [`Topology::Networked`] run owns its listener.
pub struct ExecOptions<'a> {
    /// Where the plan's shards run.
    pub topology: Topology<'a>,
    /// Round budget, departure recording, the run's one live hub.
    pub config: ExecutorConfig,
    /// Observability level; never moves an outcome. A networked run
    /// records nothing (its workers carry no probe).
    pub obs: ObsConfig,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            topology: Topology::Fused,
            config: ExecutorConfig::default(),
            obs: ObsConfig::off(),
        }
    }
}

impl<'a> ExecOptions<'a> {
    /// Runs on `shards` in-process shard threads.
    pub fn sharded(shards: usize) -> Self {
        ExecOptions {
            topology: Topology::Sharded(shards),
            ..ExecOptions::default()
        }
    }

    /// Runs as the coordinator of `workers` networked workers that connect
    /// to `listener`.
    pub fn networked(workers: usize, listener: TcpListener, net: &'a NetConfig) -> Self {
        ExecOptions {
            topology: Topology::Networked {
                workers,
                listener,
                net,
            },
            ..ExecOptions::default()
        }
    }

    /// Sets the executor configuration.
    #[must_use]
    pub fn with_config(mut self, config: ExecutorConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the observability level.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Everything one execution produced.
#[derive(Debug)]
pub struct Executed {
    /// The outcome: byte-identical for every topology and `obs` setting,
    /// and to [`crate::oracle::execute_row`]'s.
    pub outcome: ScheduleOutcome,
    /// Partition-dependent measurements (empty for [`Topology::Fused`]).
    pub shard: ShardReport,
    /// The merged recording, `None` when `obs` is off or the run is
    /// networked.
    pub obs: Option<ObsReport>,
    /// Coordinator-side per-worker traffic, in shard order
    /// ([`Topology::Networked`] only).
    pub traffic: Vec<LinkTraffic>,
}

/// Executes a plan on the problem's algorithms: the single shared stage 2
/// of the plan → execute → verify pipeline, on every topology.
///
/// The execution is honest — per-arc FIFO queues at CONGEST bandwidth,
/// canonical machines, late messages dropped and counted — and depends
/// only on `(problem.tape_seed, plan)`: re-executing a stored plan
/// reproduces the original [`ScheduleOutcome`] exactly, fused, sharded or
/// networked. The plan's step table is built first, once — which checks
/// the plan, untrusted input — and handed to whichever topology runs it;
/// the plan's own `phase_len` sets the big-round, and its pre-computation
/// charge is stamped on the outcome. [`crate::oracle::execute_row`] is the
/// specification it must match byte for byte.
///
/// # Errors
/// - [`SchedError::InvalidPlan`] if the plan fails
///   [`SchedulePlan::validate`];
/// - [`SchedError::Exec`] with [`ExecError::RoundCapExceeded`] if the
///   queues have not drained by `config.max_engine_rounds` (every shard
///   abandons in lockstep);
/// - [`ExecError::Aborted`] if a black-box machine panics on a sharded
///   run (its peers leave their barriers instead of waiting forever);
/// - on a networked run, [`ExecError::Net`] before any worker is accepted
///   for a `config` the workers would not share (they run under
///   [`ExecutorConfig::default`]), and otherwise any typed network failure
///   — worker disconnect, truncated frame, handshake mismatch, deadline
///   expiry, abort.
pub fn execute(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    opts: ExecOptions<'_>,
) -> Result<Executed, SchedError> {
    execute_steps(problem, plan, &FlatSteps::build(problem, plan)?, opts)
}

/// [`execute`] with the plan's step table already built — for a caller
/// that predicted the same table first. `steps` must be
/// `FlatSteps::build(problem, plan)`'s.
///
/// # Errors
/// As [`execute`], the plan check aside.
pub(crate) fn execute_steps(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    steps: &FlatSteps,
    opts: ExecOptions<'_>,
) -> Result<Executed, SchedError> {
    let (config, obs) = (&opts.config, &opts.obs);
    if let Some(hub) = &config.live {
        let (exchange, shards) = opts.topology.identity(problem.graph().node_count());
        hub.set_run_info(exchange, shards);
    }
    let (outcome, shard, obs, traffic) = match opts.topology {
        Topology::Fused => {
            let (outcome, obs) = Executor::run_observed(problem, steps, config, obs)?;
            (outcome, ShardReport::default(), obs, Vec::new())
        }
        Topology::Sharded(shards) => {
            let (outcome, shard, obs) =
                Executor::run_sharded_observed(problem, steps, config, shards, obs)?;
            (outcome, shard, obs, Vec::new())
        }
        Topology::Networked {
            workers,
            listener,
            net,
        } => {
            refuse_unshared(config)?;
            let (outcome, shard, traffic) =
                run_coordinator(problem, plan, steps, config, workers, listener, net)?;
            (outcome, shard, None, traffic)
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

/// Networked workers execute under [`ExecutorConfig::default`] (the wire
/// carries no configuration), so a coordinator config they would not share
/// is refused rather than silently ignored.
fn refuse_unshared(config: &ExecutorConfig) -> Result<(), ExecError> {
    let shared = ExecutorConfig::default();
    if config.max_engine_rounds != shared.max_engine_rounds
        || config.record_departures != shared.record_departures
    {
        return Err(ExecError::Net {
            detail: "networked workers run under the default round budget and \
                     departure recording; this config changes one"
                .to_string(),
        });
    }
    Ok(())
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

    fn exec_fused(p: &DasProblem<'_>, plan: &SchedulePlan) -> Result<ScheduleOutcome, SchedError> {
        execute(p, plan, ExecOptions::default()).map(|done| done.outcome)
    }

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
            let staged = exec_fused(&p, &plan).unwrap();
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
            let a = exec_fused(&p, &plan).unwrap();
            let b = exec_fused(&p, &revived).unwrap();
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
        let outcome = exec_fused(&p, &plan).unwrap();
        assert_eq!(outcome.stats.late_messages, 0);
        assert_eq!(plan.predicted_rounds, outcome.schedule_rounds());
    }

    #[test]
    fn validate_rejects_each_malformed_plan_shape() {
        let g = generators::path(6);
        let p = mixed_problem(&g);
        let good = SequentialScheduler.plan(&p, 0).unwrap();
        assert_eq!(good.validate(&p), Ok(()));
        // `validate` names the fault, and every way to execute or predict a
        // plan refuses it with that same typed error — never with a panic.
        // The networked leg must refuse before it accepts a worker: none is
        // started, and a short deadline makes a wait for one fail, not hang.
        let net = NetConfig::default().with_io_timeout_ms(200);
        let refused = |edit: &dyn Fn(&mut SchedulePlan), want: PlanError| {
            let mut bad = good.clone();
            edit(&mut bad);
            assert_eq!(bad.validate(&p), Err(want.clone()));
            let want = SchedError::InvalidPlan(want);
            let row = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::oracle::execute_row(&p, &bad, &ExecutorConfig::default())
            }));
            assert_eq!(row.expect("the oracle must not panic").unwrap_err(), want);
            assert_eq!(exec_fused(&p, &bad).unwrap_err(), want);
            let sharded = execute(&p, &bad, ExecOptions::sharded(3));
            assert_eq!(sharded.unwrap_err(), want);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
            let networked = execute(&p, &bad, ExecOptions::networked(1, listener, &net));
            assert_eq!(networked.unwrap_err(), want);
            assert_eq!(analysis::predict(&p, &bad).unwrap_err(), want);
            // recording events, the pipeline predicts before it executes
            let from = crate::pipeline::PlanFrom::Given(&bad);
            let opts = ExecOptions::default().with_obs(ObsConfig::full());
            let ran = crate::pipeline::run(&p, from, opts, &mut das_obs::Stages::default());
            assert_eq!(ran.unwrap_err().error, want);
        };

        // phase_len 0 would make the drain loop a no-op: an infinite hang
        refused(&|bad| bad.phase_len = 0, PlanError::ZeroPhaseLen);
        // stride 0 would trip the step table's strictly-increasing assert
        refused(
            &|bad| bad.units[1].stride = 0,
            PlanError::ZeroStride { unit: 1 },
        );
        let unknown = PlanError::UnknownAlgorithm {
            unit: 2,
            algo: 9,
            known: 3,
        };
        refused(&|bad| bad.units[2].algo = 9, unknown);
        // missized delay / truncation vectors
        let delay = PlanError::DelayLength {
            unit: 0,
            expected: 6,
            got: 5,
        };
        refused(&|bad| _ = bad.units[0].delay.pop(), delay);
        let trunc = PlanError::TruncLength {
            unit: 0,
            expected: 6,
            got: 7,
        };
        refused(&|bad| bad.units[0].trunc.push(1), trunc);
        // a 2^40 delay from hand-edited JSON: building the big-round table
        // would exhaust memory, so validate must reject it up front
        let oversized = PlanError::Oversized { unit: 0 };
        refused(&|bad| bad.units[0].delay[3] = 1 << 40, oversized.clone());
        // the budget is inclusive: the last step's big-round may end exactly
        // on it, but not once every big-round is one engine round longer
        let budget = ExecutorConfig::default().max_engine_rounds;
        let phase_len = budget / good.predicted_rounds;
        let edge = SchedulePlan {
            phase_len,
            ..good.clone()
        };
        assert_eq!(edge.validate(&p), Ok(()));
        let past = PlanError::Oversized { unit: 2 };
        refused(&|bad| bad.phase_len = phase_len + 1, past);
        // ... and near-u64 values must not overflow the check itself
        let overflowing = |bad: &mut SchedulePlan| {
            bad.units[0].delay[0] = u64::MAX - 1;
            bad.units[0].stride = u64::MAX / 2;
        };
        refused(&overflowing, oversized);
        // a prefix of 3 rounds puts the last step at `delay + 2 · (u64::MAX
        // / 2) = delay + u64::MAX − 1`, past u64 for this unit's delays (all
        // ≥ 2). Wrapped, that would read as a small big-round that fits;
        // saturated, it must be refused, as unit 1
        let saturating = |bad: &mut SchedulePlan| {
            assert!(bad.units[1].delay.iter().all(|&d| d >= 2));
            bad.units[1].stride = u64::MAX / 2;
            bad.units[1].trunc = vec![3; 6];
        };
        refused(&saturating, PlanError::Oversized { unit: 1 });
        // of two oversized units, the first is named
        let both = |bad: &mut SchedulePlan| {
            bad.units[1].delay[0] = 1 << 40;
            bad.units[2].delay[5] = 1 << 40;
        };
        refused(&both, PlanError::Oversized { unit: 1 });
        // the first faulty unit is named, whatever its fault
        let ordered = |bad: &mut SchedulePlan| {
            bad.units[0].delay[3] = 1 << 40;
            _ = bad.units[1].delay.pop();
        };
        refused(&ordered, PlanError::Oversized { unit: 0 });
        // with several units per algorithm, a unit's reach counts the steps
        // an earlier unit supersedes: unit 3 repeats unit 0, 2^40 later
        let superseded = |bad: &mut SchedulePlan| {
            let mut late = bad.units[0].clone();
            late.delay.iter_mut().for_each(|d| *d += 1 << 40);
            bad.units.push(late);
        };
        refused(&superseded, PlanError::Oversized { unit: 3 });
    }

    #[test]
    fn malformed_json_plan_is_rejected_before_execution() {
        let g = generators::path(6);
        let p = mixed_problem(&g);
        let mut plan = UniformScheduler::default().plan(&p, 3).unwrap();
        plan.units[0].delay[2] = 1 << 50;
        let revived = SchedulePlan::from_json(&plan.to_json()).unwrap();
        let err = exec_fused(&p, &revived).unwrap_err();
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
            let fused = exec_fused(&p, &plan).unwrap();
            for shards in [1, 2, 5] {
                let sharded = execute(&p, &plan, ExecOptions::sharded(shards)).unwrap();
                assert_eq!(
                    format!("{fused:?}"),
                    format!("{:?}", sharded.outcome),
                    "{} with {shards} shards",
                    sched.name()
                );
                assert_eq!(sharded.shard.shards, shards.min(g.node_count()));
            }
        }
    }

    #[test]
    fn round_cap_surfaces_through_execute() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        let config = ExecutorConfig {
            max_engine_rounds: 2,
            ..ExecutorConfig::default()
        };
        let err = execute(&p, &plan, ExecOptions::default().with_config(config)).unwrap_err();
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
