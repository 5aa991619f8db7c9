//! Observed plan → execute → verify pipeline: one traced run end to end.
//!
//! [`run_traced`] plans, executes (fused or sharded), and verifies a
//! problem while assembling a single [`ObsReport`]: a `Plan`-stage span
//! carrying the prediction, the executor's per-shard recordings on the
//! `Execute` tracks, and a `Verify`-stage marker with the mismatch counts.
//! All of it is clocked on the deterministic big-round clock, so the trace
//! is a pure function of `(problem, scheduler, sched_seed)` — shard count
//! changes only which `Execute` lane an event lands on. Wall-clock stage
//! durations are added as `wall_us` args only when
//! [`ObsConfig::wall_clock`] is set.

use crate::exec::ExecutorConfig;
use crate::plan::{analysis, execute, ExecOptions, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::schedulers::Scheduler;
use crate::verify::{self, VerifyReport};
use crate::ShardReport;
use das_obs::{LiveHub, ObsConfig, ObsReport, Stage, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// Everything a traced pipeline run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// The plan that was executed.
    pub plan: SchedulePlan,
    /// The execution outcome (byte-identical to an untraced run).
    pub outcome: ScheduleOutcome,
    /// Partition-dependent measurements when `shards > 1`.
    pub shard_report: Option<ShardReport>,
    /// Output verification against the reference runs.
    pub verify: VerifyReport,
    /// The assembled observability report (empty when recording is off).
    pub report: ObsReport,
}

/// Runs the full pipeline — plan, predict, execute (`shards > 1` uses the
/// sharded executor), verify — recording one [`ObsReport`] across all
/// three stages at the level `obs` asks for.
///
/// # Errors
/// Returns [`SchedError::Reference`] if planning/prediction/verification
/// reference runs fail, [`SchedError::InvalidPlan`] for a malformed plan,
/// or [`SchedError::Exec`] if execution exceeds its round budget.
pub fn run_traced(
    problem: &DasProblem<'_>,
    scheduler: &dyn Scheduler,
    sched_seed: u64,
    shards: usize,
    obs: &ObsConfig,
) -> Result<TracedRun, SchedError> {
    run_traced_live(problem, scheduler, sched_seed, shards, obs, None)
}

/// [`run_traced`] with an optional live hub attached: the executor probes
/// publish per-shard snapshots into `live` at big-round boundaries, phase
/// transitions (`plan` → `execute` → `verify` → `done`) are mirrored into
/// it, and the final merged report replaces the incremental view at the
/// end. Serving the hub over HTTP (`das_obs::ObsServer`) while this runs
/// never changes the outcome — publication is write-only and clocked on
/// big-round barriers (`tests/obs_neutrality.rs` polls a live server
/// mid-run and asserts byte-identical outcomes).
///
/// # Errors
/// Exactly as [`run_traced`].
pub fn run_traced_live(
    problem: &DasProblem<'_>,
    scheduler: &dyn Scheduler,
    sched_seed: u64,
    shards: usize,
    obs: &ObsConfig,
    live: Option<Arc<LiveHub>>,
) -> Result<TracedRun, SchedError> {
    if let Some(hub) = &live {
        hub.set_run_info("batched", shards.max(1));
        hub.set_phase("plan");
    }
    let t_plan = Instant::now();
    let plan = scheduler.plan(problem, sched_seed)?;
    let prediction = obs
        .enabled()
        .then(|| analysis::predict(problem, &plan))
        .transpose()?;
    let plan_wall_us = t_plan.elapsed().as_micros() as u64;

    let mut report = ObsReport::new();
    if let Some(pred) = &prediction {
        report.metrics.inc("plan.units", plan.unit_count() as u64);
        report.metrics.inc("plan.phase_len", plan.phase_len);
        report
            .metrics
            .inc("plan.precompute_rounds", plan.precompute_rounds);
        report
            .metrics
            .inc("plan.predicted_rounds", plan.predicted_rounds);
        report.metrics.inc("predict.late", pred.predicted_late);
        report
            .metrics
            .inc("predict.max_arc_load", pred.max_arc_load());
        report.metrics.inc(
            "predict.peak_big_round_arc_load",
            pred.peak_big_round_arc_load,
        );
        if obs.events_enabled() {
            // The plan span covers the pre-computation charge the schedule
            // pays before its first big-round.
            let mut e =
                TraceEvent::span(Stage::Plan, 0, scheduler.name(), 0, plan.precompute_rounds)
                    .arg("units", plan.unit_count() as u64)
                    .arg("phase_len", plan.phase_len)
                    .arg("predicted_rounds", plan.predicted_rounds)
                    .arg("predicted_late", pred.predicted_late);
            if obs.wall_clock {
                e = e.arg("wall_us", plan_wall_us);
            }
            report.push_event(e);
        }
    }

    if let Some(hub) = &live {
        hub.set_phase("execute");
    }
    let t_exec = Instant::now();
    let opts = match shards {
        0 | 1 => ExecOptions::default(),
        n => ExecOptions::sharded(n),
    };
    let config = ExecutorConfig::default().with_live(live.clone());
    let done = execute(problem, &plan, opts.with_config(config).with_obs(*obs))?;
    let (outcome, exec_report) = (done.outcome, done.obs);
    let shard_report = (done.shard.shards > 0).then_some(done.shard);
    let exec_wall_us = t_exec.elapsed().as_micros() as u64;
    if let Some(er) = &exec_report {
        report.merge(er);
    }

    if let Some(hub) = &live {
        hub.set_phase("verify");
    }
    let t_verify = Instant::now();
    let verify = verify::against_references(problem, &outcome)?;
    let verify_wall_us = t_verify.elapsed().as_micros() as u64;
    if obs.enabled() {
        report
            .metrics
            .inc("verify.mismatches", verify.total_mismatches() as u64);
        report.metrics.inc("verify.nodes", verify.nodes as u64);
        if obs.wall_clock {
            report.metrics.inc("wall.plan_us", plan_wall_us);
            report.metrics.inc("wall.execute_us", exec_wall_us);
            report.metrics.inc("wall.verify_us", verify_wall_us);
        }
        if obs.events_enabled() {
            let mut e = TraceEvent::instant(
                Stage::Verify,
                0,
                if verify.all_correct() {
                    "all outputs correct"
                } else {
                    "output mismatches"
                },
                outcome.stats.engine_rounds,
            )
            .arg("mismatches", verify.total_mismatches() as u64)
            .arg("nodes", verify.nodes as u64);
            if obs.wall_clock {
                e = e.arg("wall_us", verify_wall_us);
            }
            report.push_event(e);
        }
    }

    if let Some(hub) = &live {
        // the merged report is authoritative; this also flips to `done`
        hub.publish_final(&report);
    }
    Ok(TracedRun {
        plan,
        outcome,
        shard_report,
        verify,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::RelayChain;
    use crate::{BlackBoxAlgorithm, UniformScheduler};
    use das_graph::generators;

    fn problem(g: &das_graph::Graph) -> DasProblem<'_> {
        let algos = (0..3)
            .map(|i| Box::new(RelayChain::new(i as u64, g)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, 9)
    }

    #[test]
    fn traced_run_covers_all_three_stages() {
        let g = generators::path(10);
        let p = problem(&g);
        let sched = UniformScheduler::default();
        let traced = run_traced(&p, &sched, 3, 1, &ObsConfig::full()).unwrap();
        assert!(traced.verify.all_correct());
        let m = &traced.report.metrics;
        assert_eq!(m.counter("plan.units"), 3);
        assert_eq!(m.counter("exec.delivered"), traced.outcome.stats.delivered);
        assert_eq!(m.counter("verify.mismatches"), 0);
        // one plan span, per-big-round execute events, one verify instant.
        let stages: Vec<Stage> = traced.report.events.iter().map(|e| e.stage).collect();
        assert!(stages.contains(&Stage::Plan));
        assert!(stages.contains(&Stage::Execute));
        assert!(stages.contains(&Stage::Verify));
        // no wall-clock leaks into the deterministic trace by default.
        assert!(m.counters.keys().all(|k| !k.starts_with("wall.")));
        assert!(traced
            .report
            .events
            .iter()
            .all(|e| e.args.iter().all(|(k, _)| k != "wall_us")));
    }

    #[test]
    fn traced_run_is_deterministic_and_shard_invariant() {
        let g = generators::path(12);
        let p = problem(&g);
        let sched = UniformScheduler::default();
        let fused = run_traced(&p, &sched, 7, 1, &ObsConfig::full()).unwrap();
        let again = run_traced(&p, &sched, 7, 1, &ObsConfig::full()).unwrap();
        assert_eq!(fused.report.events, again.report.events);
        assert_eq!(fused.report.metrics, again.report.metrics);
        let sharded = run_traced(&p, &sched, 7, 3, &ObsConfig::full()).unwrap();
        assert!(sharded.shard_report.is_some());
        assert_eq!(
            format!("{:?}", fused.outcome),
            format!("{:?}", sharded.outcome),
            "outcome must not depend on shard count"
        );
        // the load profile (summed over lanes) is shard-invariant too.
        assert_eq!(fused.report.profile, sharded.report.profile);
    }

    #[test]
    fn obs_off_records_nothing() {
        let g = generators::path(8);
        let p = problem(&g);
        let sched = UniformScheduler::default();
        let traced = run_traced(&p, &sched, 3, 1, &ObsConfig::off()).unwrap();
        assert!(traced.report.events.is_empty());
        assert!(traced.report.metrics.counters.is_empty());
        assert!(traced.verify.all_correct());
    }
}
