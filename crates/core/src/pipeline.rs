//! The plan → execute → verify pipeline: every entry point's one run.
//!
//! [`run`] computes the alone-run references, plans (or takes a given
//! plan), executes on any topology, and verifies, timing each stage into
//! one [`Stages`] record. When `opts.obs` records, it also assembles a
//! single [`ObsReport`]: a `Plan`-stage span carrying the prediction, the
//! executor's per-shard recordings on the `Execute` tracks, and a
//! `Verify`-stage marker with the mismatch counts. All of it is clocked on
//! the deterministic big-round clock, so the trace is a pure function of
//! `(problem, plan)` — shard count changes only which `Execute` lane an
//! event lands on. Wall-clock stage durations are added, read from the
//! stage record, only when [`das_obs::ObsConfig::wall_clock`] is set.

use crate::exec::FlatSteps;
use crate::plan::cache::SweepArtifact;
use crate::plan::{
    analysis, execute, execute_steps, ExecOptions, Executed, SchedError, SchedulePlan,
};
use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedulers::Scheduler;
use crate::verify::{self, VerifyReport};
use das_obs::{ObsReport, Stage, Stages, TraceEvent};
use std::fmt;

/// Where a run's plan comes from.
#[derive(Clone, Copy)]
pub enum PlanFrom<'a> {
    /// Planned from scratch with `seed` as the scheduler randomness.
    Scheduler {
        /// The scheduler.
        scheduler: &'a dyn Scheduler,
        /// The `sched_seed`.
        seed: u64,
    },
    /// Derived from a seed-independent planning prefix built once per
    /// sweep ([`Scheduler::build_sweep_artifact`]); byte-identical to the
    /// [`PlanFrom::Scheduler`] plan.
    Swept {
        /// The scheduler that built `artifact`.
        scheduler: &'a dyn Scheduler,
        /// The sweep's shared planning prefix.
        artifact: &'a SweepArtifact,
        /// The `sched_seed`.
        seed: u64,
    },
    /// A plan made earlier (loaded from a file, say); executed as given.
    Given(&'a SchedulePlan),
}

/// Everything one pipeline run produced.
#[derive(Debug)]
pub struct Ran {
    /// The plan that was executed.
    pub plan: SchedulePlan,
    /// The execution: its outcome (byte-identical to an unobserved run's),
    /// shard report and link traffic. Its recording has moved into
    /// `report`, so `executed.obs` is `None`.
    pub executed: Executed,
    /// Output verification against the reference runs.
    pub verify: VerifyReport,
    /// The assembled observability report (empty when recording is off).
    pub report: ObsReport,
}

/// Why a pipeline run stopped, with the plan when planning finished — a
/// run cut by the engine-round cap still has a predicted length to record.
#[derive(Debug)]
pub struct Failed {
    /// The typed cause.
    pub error: SchedError,
    /// The plan, when the failure came after planning.
    pub plan: Option<SchedulePlan>,
}

impl fmt::Display for Failed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

/// Runs the pipeline — references, plan, execute, verify — on the
/// topology, budget and observability level `opts` names. Each stage's
/// wall time lands in `stages` as soon as the stage returns, so a run that
/// fails or panics part-way leaves the stages that ran recorded. Recording
/// adds the `plan.*` and `verify.*` counters; the prediction
/// (`predict.*`) and the plan span only when `obs` records events. A
/// networked run records the plan and verify stages only (its workers
/// carry no probe).
///
/// A live hub in `opts.config.live` sees the whole run: the phases (`plan`
/// → `execute` → `verify` → `done`), the identity [`execute`] stamps, the
/// executor's per-shard snapshots at big-round boundaries, and at the end
/// the merged report, which replaces the incremental view. Serving the hub
/// over HTTP (`das_obs::ObsServer`) while this runs never changes the
/// outcome — publication is write-only and clocked on big-round barriers
/// (`tests/obs_neutrality.rs` polls a live server mid-run and asserts
/// byte-identical outcomes).
///
/// # Errors
/// [`SchedError::Reference`] if the reference runs fail, and otherwise
/// whatever [`execute`] returns; [`Failed::plan`] is set once planning
/// finished.
pub fn run(
    problem: &DasProblem<'_>,
    from: PlanFrom<'_>,
    opts: ExecOptions<'_>,
    stages: &mut Stages,
) -> Result<Ran, Failed> {
    let (obs, live) = (opts.obs, opts.config.live.clone());
    let phase = |name: &str| {
        if let Some(hub) = &live {
            hub.set_phase(name);
        }
    };
    let unplanned = |e: ReferenceError| Failed {
        error: e.into(),
        plan: None,
    };
    phase("plan");
    Stages::time(&mut stages.references_us, || problem.references()).map_err(unplanned)?;
    let plan = Stages::time(&mut stages.plan_us, || match from {
        PlanFrom::Scheduler { scheduler, seed } => scheduler.plan(problem, seed),
        PlanFrom::Swept {
            scheduler,
            artifact,
            seed,
        } => scheduler.plan_swept(problem, artifact, seed),
        PlanFrom::Given(plan) => Ok(plan.clone()),
    })
    .map_err(unplanned)?;
    let failed = |error: SchedError| Failed {
        error,
        plan: Some(plan.clone()),
    };

    let mut report = ObsReport::new();
    if obs.enabled() {
        let m = &mut report.metrics;
        m.inc("plan.units", plan.unit_count() as u64);
        m.inc("plan.phase_len", plan.phase_len);
        m.inc("plan.precompute_rounds", plan.precompute_rounds);
        m.inc("plan.predicted_rounds", plan.predicted_rounds);
    }
    // Traced, the prediction and the execution read one step table; else
    // `execute` builds it inside its own stage.
    let mut steps = None;
    if obs.events_enabled() {
        let table = FlatSteps::build(problem, &plan).map_err(|e| failed(e.into()))?;
        let pred = analysis::predict_steps(problem, &table).map_err(failed)?;
        steps = Some(table);
        let m = &mut report.metrics;
        m.inc("predict.late", pred.predicted_late);
        m.inc("predict.max_arc_load", pred.max_arc_load());
        m.inc(
            "predict.peak_big_round_arc_load",
            pred.peak_big_round_arc_load,
        );
        // The plan span covers the pre-computation charge the schedule
        // pays before its first big-round.
        let name = plan.scheduler.as_str();
        let mut e = TraceEvent::span(Stage::Plan, 0, name, 0, plan.precompute_rounds)
            .arg("units", plan.unit_count() as u64)
            .arg("phase_len", plan.phase_len)
            .arg("predicted_rounds", plan.predicted_rounds)
            .arg("predicted_late", pred.predicted_late);
        if obs.wall_clock {
            e = e.arg("wall_us", stages.plan_us);
        }
        report.push_event(e);
    }

    phase("execute");
    let executed = Stages::time(&mut stages.execute_us, || match &steps {
        Some(steps) => execute_steps(problem, &plan, steps, opts),
        None => execute(problem, &plan, opts),
    });
    let mut executed = executed.map_err(failed)?;
    if let Some(er) = executed.obs.take() {
        report.merge(&er);
    }

    phase("verify");
    let outcome = &executed.outcome;
    let verify = Stages::time(&mut stages.verify_us, || {
        verify::against_references(problem, outcome)
    });
    let verify = verify.map_err(|e| failed(e.into()))?;
    if obs.enabled() {
        let m = &mut report.metrics;
        m.inc("verify.mismatches", verify.total_mismatches() as u64);
        m.inc("verify.nodes", verify.nodes as u64);
        if obs.wall_clock {
            m.inc("wall.references_us", stages.references_us);
            m.inc("wall.plan_us", stages.plan_us);
            m.inc("wall.execute_us", stages.execute_us);
            m.inc("wall.verify_us", stages.verify_us);
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
                e = e.arg("wall_us", stages.verify_us);
            }
            report.push_event(e);
        }
    }

    if let Some(hub) = &live {
        // the merged report is authoritative; this also flips to `done`
        hub.publish_final(&report);
    }
    Ok(Ran {
        plan,
        executed,
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
    use das_obs::ObsConfig;

    fn full() -> ExecOptions<'static> {
        ExecOptions::default().with_obs(ObsConfig::full())
    }

    fn traced(p: &DasProblem<'_>, seed: u64, opts: ExecOptions<'_>) -> Ran {
        let scheduler = &UniformScheduler::default();
        let from = PlanFrom::Scheduler { scheduler, seed };
        run(p, from, opts, &mut Stages::default()).unwrap()
    }

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
        let traced = traced(&p, 3, full());
        assert!(traced.verify.all_correct());
        let m = &traced.report.metrics;
        assert_eq!(m.counter("plan.units"), 3);
        assert_eq!(
            m.counter("exec.delivered"),
            traced.executed.outcome.stats.delivered
        );
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
        // asked for, each wall clock is its stage's record; metrics-only
        // recording does not pay for the prediction
        let mut stages = Stages::default();
        let mut obs = ObsConfig::metrics();
        obs.wall_clock = true;
        let opts = ExecOptions::default().with_obs(obs);
        let from = PlanFrom::Given(&traced.plan);
        let m = run(&p, from, opts, &mut stages).unwrap().report.metrics;
        for (key, us) in [
            ("wall.references_us", stages.references_us),
            ("wall.plan_us", stages.plan_us),
            ("wall.execute_us", stages.execute_us),
            ("wall.verify_us", stages.verify_us),
        ] {
            assert!(us > 0 && m.counter(key) == us, "{key}: {stages:?}");
        }
        assert!(m.counters.keys().all(|k| !k.starts_with("predict.")));
    }

    #[test]
    fn traced_run_is_deterministic_and_shard_invariant() {
        let g = generators::path(12);
        let p = problem(&g);
        let fused = traced(&p, 7, full());
        let again = traced(&p, 7, full());
        assert_eq!(fused.report.events, again.report.events);
        assert_eq!(fused.report.metrics, again.report.metrics);
        let sharded = traced(&p, 7, ExecOptions::sharded(3).with_obs(ObsConfig::full()));
        assert_eq!(sharded.executed.shard.shards, 3);
        assert_eq!(
            format!("{:?}", fused.executed.outcome),
            format!("{:?}", sharded.executed.outcome),
            "outcome must not depend on shard count"
        );
        // the load profile (summed over lanes) is shard-invariant too.
        assert_eq!(fused.report.profile, sharded.report.profile);
        // a given plan replays the run it came from, trace included
        let from = PlanFrom::Given(&fused.plan);
        let given = run(&p, from, full(), &mut Stages::default()).unwrap();
        assert_eq!(fused.report.events, given.report.events);
        assert_eq!(fused.report.metrics, given.report.metrics);
    }

    #[test]
    fn obs_off_records_nothing() {
        let g = generators::path(8);
        let p = problem(&g);
        let traced = traced(&p, 3, ExecOptions::default());
        assert!(traced.report.events.is_empty());
        assert!(traced.report.metrics.counters.is_empty());
        assert!(traced.verify.all_correct());
    }
}
