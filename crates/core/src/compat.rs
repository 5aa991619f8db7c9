//! The pre-[`execute`] entry points, the engine selector and the doubling
//! search's old entry point, that the standalone benchmark harness still
//! calls by name. Each entry point is one [`execute`] call, one
//! [`execute_row`] call for [`EngineKind::Row`], or one [`pipeline::run`]
//! call for the search; nothing else in the workspace may use these names
//! (CI greps for it), and they go once the benchmark moves to [`execute`]
//! and [`PlanFrom::Doubling`].

use crate::doubling::{PlanCacheStats, Search};
use crate::exec::ExecutorConfig;
use crate::net::NetConfig;
use crate::oracle::execute_row;
use crate::pipeline::{self, PlanFrom};
use crate::plan::{execute, ExecOptions, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::schedulers::Scheduler;
use crate::wire::LinkTraffic;
use crate::{ShardReport, UniformScheduler};
use das_obs::{ObsConfig, ObsReport, Stages};
use std::net::TcpListener;

/// Which loop [`execute_plan_with`] runs. Outcomes are byte-identical
/// either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The row oracle, [`execute_row`].
    Row,
    /// The production loop, exactly as [`EngineKind::ColumnarBatched`].
    Columnar,
    /// The production loop.
    #[default]
    ColumnarBatched,
}

impl ExecutorConfig {
    /// Selects the loop [`execute_plan_with`] runs.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.oracle = engine == EngineKind::Row;
        self
    }

    /// Does nothing: every execution takes its phase length from the plan.
    pub fn with_phase_len(self, _phase_len: u64) -> Self {
        self
    }

    /// Sets the shard count [`execute_plan_sharded_with`] runs on.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// [`execute`], fused, under `config`; [`execute_row`] after
/// `with_engine(EngineKind::Row)`.
///
/// # Errors
/// As [`execute`].
pub fn execute_plan_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    if config.oracle {
        return execute_row(problem, plan, config);
    }
    let opts = ExecOptions::default().with_config(config.clone());
    execute(problem, plan, opts).map(|done| done.outcome)
}

/// [`execute`], fused, under `config`, recording at the level `obs` asks
/// for. Runs the production loop whatever the engine.
///
/// # Errors
/// As [`execute`].
pub fn execute_plan_observed_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    obs: &ObsConfig,
    config: &ExecutorConfig,
) -> Result<(ScheduleOutcome, Option<ObsReport>), SchedError> {
    let opts = ExecOptions::default()
        .with_config(config.clone())
        .with_obs(*obs);
    execute(problem, plan, opts).map(|done| (done.outcome, done.obs))
}

/// [`execute`] on `config.shards` in-process shards, under `config`, on
/// the production loop whatever the engine.
///
/// # Errors
/// As [`execute`].
pub fn execute_plan_sharded_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<(ScheduleOutcome, ShardReport), SchedError> {
    let opts = ExecOptions::sharded(config.shards).with_config(config.clone());
    execute(problem, plan, opts).map(|done| (done.outcome, done.shard))
}

/// What [`execute_plan_networked`] reports beside the outcome: the merged
/// [`ShardReport`] and the coordinator-side traffic per worker, in shard
/// order (`bytes_sent` = coordinator → worker).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetReport {
    /// The merged per-shard report.
    pub shard: ShardReport,
    /// Coordinator-side traffic per worker connection, in shard order.
    pub traffic: Vec<LinkTraffic>,
}

/// [`execute`] as the coordinator of `workers` networked workers.
///
/// # Errors
/// As [`execute`].
pub fn execute_plan_networked(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, NetReport), SchedError> {
    let done = execute(
        problem,
        plan,
        ExecOptions::networked(workers, listener, net),
    )?;
    let report = NetReport {
        shard: done.shard,
        traffic: done.traffic,
    };
    Ok((done.outcome, report))
}

/// The give-up cap of [`uniform_with_doubling_configured`].
#[derive(Clone, Debug, Default)]
pub struct DoublingConfig {
    /// [`PlanFrom::Doubling`]'s `cap`.
    pub cap_override: Option<u64>,
}

/// What [`uniform_with_doubling_configured`] reports.
#[derive(Debug)]
pub struct DoublingOutcome {
    /// The executed outcome.
    pub outcome: ScheduleOutcome,
    /// [`crate::doubling::SearchFacts::attempts`].
    pub attempts: u32,
    /// [`crate::doubling::SearchFacts::rejected_by_precheck`].
    pub rejected_by_precheck: u32,
    /// [`crate::doubling::SearchFacts::cache`].
    pub cache: PlanCacheStats,
}

/// [`pipeline::run`] with [`PlanFrom::Doubling`] over `base` at its own
/// seed, fused, recording at the level `obs` asks for.
///
/// # Errors
/// As [`pipeline::run`].
pub fn uniform_with_doubling_configured(
    problem: &DasProblem<'_>,
    base: &UniformScheduler,
    obs: &ObsConfig,
    cfg: &DoublingConfig,
) -> Result<(DoublingOutcome, Option<ObsReport>), SchedError> {
    let from = PlanFrom::Doubling {
        search: Search::Uniform(base),
        seed: base.default_sched_seed(),
        cap: cfg.cap_override,
    };
    let opts = ExecOptions::default().with_obs(*obs);
    let ran = pipeline::run(problem, from, opts, &mut Stages::default()).map_err(|f| f.error)?;
    let search = ran.search.expect("a doubling run reports its search");
    let outcome = DoublingOutcome {
        outcome: ran.executed.outcome,
        attempts: search.attempts,
        rejected_by_precheck: search.rejected_by_precheck,
        cache: search.cache,
    };
    Ok((outcome, obs.enabled().then_some(ran.report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{FloodBall, RelayChain};
    use crate::{Scheduler, UniformScheduler};
    use das_graph::{generators, NodeId};

    /// The standalone benchmark's path: the row engine reaches the oracle,
    /// the other two the production loop, and the phase length it sets
    /// moves nothing.
    #[test]
    fn the_benchmark_engines_reach_the_oracle_and_the_production_loop() {
        let g = generators::path(10);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = vec![
            Box::new(RelayChain::new(0, &g)),
            Box::new(RelayChain::new(1, &g)),
            Box::new(FloodBall::new(2, &g, NodeId(0), 4)),
        ];
        let p = DasProblem::new(&g, algos, 17);
        let plan = UniformScheduler::default().plan(&p, 3).unwrap();
        let defaults = ExecutorConfig::default();
        let row = format!("{:?}", execute_row(&p, &plan, &defaults).unwrap());
        let production = execute(&p, &plan, ExecOptions::default()).unwrap();
        let production = format!("{:?}", production.outcome);
        let cases = [
            (EngineKind::Row, &row),
            (EngineKind::Columnar, &production),
            (EngineKind::ColumnarBatched, &production),
        ];
        for (engine, want) in cases {
            for phase_len in [plan.phase_len, plan.phase_len + 5] {
                let config = defaults
                    .clone()
                    .with_engine(engine)
                    .with_phase_len(phase_len);
                assert_eq!(config.oracle, engine == EngineKind::Row);
                let got = execute_plan_with(&p, &plan, &config).unwrap();
                assert_eq!(want, &format!("{got:?}"), "{engine:?} at {phase_len}");
            }
        }
    }
}
