//! The pre-[`execute`] entry points that the standalone benchmark harness
//! still calls by name. Each is one [`execute`] call; nothing else in the
//! workspace may use them (CI greps for it), and they go once the
//! benchmark moves to [`execute`].

use crate::exec::ExecutorConfig;
use crate::net::NetConfig;
use crate::plan::{execute, ExecOptions, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::wire::LinkTraffic;
use crate::ShardReport;
use das_obs::{ObsConfig, ObsReport};
use std::net::TcpListener;

/// [`execute`], fused, under `config`.
///
/// # Errors
/// As [`execute`].
pub fn execute_plan_with(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    let opts = ExecOptions::default().with_config(config.clone());
    execute(problem, plan, opts).map(|done| done.outcome)
}

/// [`execute`], fused, under `config`, recording at the level `obs` asks
/// for.
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

/// [`execute`] on `config.shards` in-process shards, under `config`.
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
