//! # das-bench
//!
//! The experiment harness: workload builders, result tables, the parallel
//! [`TrialRunner`], and the runners behind the `benches/e*.rs` benchmarks —
//! one per experiment in `EXPERIMENTS.md` (E1–E10). Each bench prints the
//! paper-style table before timing a representative configuration with
//! criterion, so `cargo bench` regenerates every table and series.
//! Seed sweeps fan across threads through [`TrialRunner`] and can be
//! serialized to `BENCH_<experiment>.json` artifacts.
//!
//! Trials follow the staged pipeline ([`run_trial`]): plan with the
//! trial's `sched_seed`, execute the plan, verify **exactly once**, and
//! record — including the plan's predicted length, so artifacts track the
//! plan-vs-reality gap. Because a sweep varies only scheduler randomness,
//! the problem's reference runs are computed once and shared by every
//! trial.

#![warn(missing_docs)]

pub mod runner;
pub mod table;
pub mod workloads;

pub use runner::{
    DoublingSummary, NetSummary, ShardSummary, SummaryStats, SweepSummary, TrialAggregate,
    TrialRecord, TrialRunner,
};
pub use table::Table;

use das_core::verify::{self, VerifyReport};
use das_core::{
    doubling, execute_plan, execute_plan_networked, execute_plan_observed,
    execute_plan_observed_with, execute_plan_sharded, execute_plan_with, run_worker, DasProblem,
    DoublingConfig, EngineKind, ExecError, ExecutorConfig, NetConfig, SchedError, ScheduleOutcome,
    SchedulePlan, Scheduler, ShardReport, SweepArtifact, UniformScheduler,
};
use das_obs::{ObsConfig, ObsReport};
use std::sync::atomic::{AtomicU64, Ordering};

/// One measured scheduler run.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Scheduler name.
    pub name: &'static str,
    /// Schedule length (rounds).
    pub schedule: u64,
    /// Pre-computation rounds.
    pub precompute: u64,
    /// Late (dropped) messages.
    pub late: u64,
    /// Fraction of (algorithm, node) outputs matching the alone runs.
    pub correctness: f64,
}

impl Measured {
    /// Total rounds.
    pub fn total(&self) -> u64 {
        self.schedule + self.precompute
    }
}

/// Runs a scheduler on a problem and verifies it exactly once, returning
/// the verification report alongside the outcome so callers can reuse it
/// (e.g. to record a trial) instead of verifying again.
///
/// # Panics
/// Panics if the workload violates the CONGEST model (a bug in the
/// workload, not the scheduler).
pub fn measure(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
) -> (Measured, ScheduleOutcome, VerifyReport) {
    let outcome = scheduler.run(problem).expect("workload is model-valid");
    let report = verify::against_references(problem, &outcome).expect("references computable");
    (
        Measured {
            name: scheduler.name(),
            schedule: outcome.schedule_rounds(),
            precompute: outcome.precompute_rounds,
            late: outcome.stats.late_messages,
            correctness: report.correctness_rate(),
        },
        outcome,
        report,
    )
}

/// Builds the per-trial record from an outcome and the [`VerifyReport`]
/// of its (single) verification. `predicted` is the plan's predicted
/// schedule length when the trial went through the staged pipeline.
pub fn record_trial(
    seed: u64,
    outcome: &ScheduleOutcome,
    report: &VerifyReport,
    predicted: Option<u64>,
) -> TrialRecord {
    TrialRecord {
        seed,
        schedule: outcome.schedule_rounds(),
        predicted,
        precompute: outcome.precompute_rounds,
        late: outcome.stats.late_messages,
        correctness: report.correctness_rate(),
        truncated: false,
        shard: None,
        obs: None,
        doubling: None,
        sweep: None,
        net: None,
    }
}

/// One full trial through the staged pipeline: plan with `sched_seed`,
/// execute the plan, verify exactly once, and record — with the plan's
/// predicted length threaded into the record.
///
/// An execution that hits the engine-round cap is recorded as a
/// `truncated` (failed) trial instead of crashing the sweep.
///
/// All trials of a sweep share the problem's cached reference runs: only
/// the scheduler randomness varies.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
) -> TrialRecord {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    let result = execute_plan(problem, &plan).map(|o| (o, None));
    finish_trial(problem, &plan, sched_seed, result)
}

/// [`run_trial`] on an explicit engine (`row` or `batched`).
/// The engine choice is a pure execution detail: every recorded
/// schedule-quality field is byte-identical across engines.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_with_engine(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    engine: EngineKind,
) -> TrialRecord {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    let cfg = ExecutorConfig::default()
        .with_phase_len(plan.phase_len)
        .with_engine(engine);
    let result = execute_plan_with(problem, &plan, &cfg).map(|o| (o, None));
    finish_trial(problem, &plan, sched_seed, result)
}

/// [`run_trial`] with observability: the execution runs through
/// [`execute_plan_observed`] at the level `obs` asks for, the record
/// carries the deterministic [`das_obs::ObsSummary`] (persisted into the
/// `BENCH_*.json` artifact), and the full [`ObsReport`] is returned for
/// export. With `obs` off this is exactly [`run_trial`]: the recorded
/// outcome fields are byte-identical either way.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_observed(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    obs: &ObsConfig,
) -> (TrialRecord, Option<ObsReport>) {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    match execute_plan_observed(problem, &plan, obs) {
        Ok((outcome, report)) => {
            let mut rec = finish_trial(problem, &plan, sched_seed, Ok((outcome, None)));
            rec.obs = report.as_ref().map(|r| r.summary());
            (rec, report)
        }
        Err(e) => (finish_trial(problem, &plan, sched_seed, Err(e)), None),
    }
}

/// [`run_trial_observed`] on an explicit engine — the combination
/// `bench_smoke --engine` threads through: observed execution whose
/// recorded outcome fields stay byte-identical across engines and obs
/// levels.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_observed_with_engine(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    obs: &ObsConfig,
    engine: EngineKind,
) -> (TrialRecord, Option<ObsReport>) {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    let cfg = ExecutorConfig::default().with_engine(engine);
    match execute_plan_observed_with(problem, &plan, obs, &cfg) {
        Ok((outcome, report)) => {
            let mut rec = finish_trial(problem, &plan, sched_seed, Ok((outcome, None)));
            rec.obs = report.as_ref().map(|r| r.summary());
            (rec, report)
        }
        Err(e) => (finish_trial(problem, &plan, sched_seed, Err(e)), None),
    }
}

/// One full trial of the congestion-*oblivious* pipeline: run the uniform
/// scheduler through the doubling search (the trial's `sched_seed`
/// becoming the shared seed), verify the final outcome exactly once, and
/// record — with the search's [`DoublingSummary`] (attempts, fallback,
/// plan-cache counters) threaded into the record.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_doubling(
    scheduler: &UniformScheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    cfg: &DoublingConfig,
) -> TrialRecord {
    let sched = scheduler.clone().with_seed(sched_seed);
    let (result, _) =
        doubling::uniform_with_doubling_configured(problem, &sched, &ObsConfig::off(), cfg)
            .expect("workload is model-valid");
    let report =
        verify::against_references(problem, &result.outcome).expect("references computable");
    let mut rec = record_trial(sched_seed, &result.outcome, &report, None);
    rec.doubling = Some(DoublingSummary::of(&result));
    rec
}

/// Plans a whole seed sweep from **one** shared artifact: builds the
/// scheduler's seed-independent planning prefix once per
/// `(problem, scheduler)` ([`das_core::Scheduler::build_sweep_artifact`])
/// and derives each trial's plan from it
/// ([`das_core::Scheduler::plan_swept`]) — the stages a per-seed `plan()`
/// is composed of, without repeating the shared one (for the private
/// scheduler, the whole Lemma 4.2 carve).
///
/// The planner is `Sync`; [`TrialRunner`] closures can share one across
/// the rayon pool. Cache hits are counted with a relaxed atomic — the
/// total is thread-count-independent because every derived plan counts
/// exactly once.
pub struct SweepPlanner<'a> {
    scheduler: &'a dyn Scheduler,
    artifact: SweepArtifact,
    hits: AtomicU64,
}

impl<'a> SweepPlanner<'a> {
    /// Builds the shared artifact for `(problem, scheduler)` eagerly, so
    /// every subsequent [`SweepPlanner::plan`] is a cache hit.
    ///
    /// # Panics
    /// Panics if the workload violates the CONGEST model.
    pub fn new(scheduler: &'a dyn Scheduler, problem: &DasProblem<'_>) -> Self {
        let artifact = scheduler
            .build_sweep_artifact(problem)
            .expect("workload is model-valid");
        SweepPlanner {
            scheduler,
            artifact,
            hits: AtomicU64::new(0),
        }
    }

    /// Derives the plan for one `sched_seed` from the shared artifact.
    ///
    /// # Panics
    /// Panics if the workload violates the CONGEST model.
    pub fn plan(&self, problem: &DasProblem<'_>, sched_seed: u64) -> SchedulePlan {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.scheduler
            .plan_swept(problem, &self.artifact, sched_seed)
            .expect("workload is model-valid")
    }

    /// The scheduler the sweep plans for.
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler
    }

    /// Plans derived from the shared artifact so far.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Folds the sweep-cache counters into an observability metrics
    /// registry (`sweep.plan_cache_hits`, `sweep.shared_artifacts`), so
    /// exported [`ObsReport`]s carry the plan-sharing stats next to the
    /// engine's `exec.*` counters.
    pub fn export_metrics(&self, metrics: &mut das_obs::MetricsRegistry) {
        metrics.inc("sweep.plan_cache_hits", self.cache_hits());
        metrics.inc("sweep.shared_artifacts", 1);
    }
}

/// [`run_trial`], planned through a sweep-shared artifact: the scheduler's
/// seed-independent planning prefix is built once by the
/// [`SweepPlanner`] and only the per-seed remainder runs here. The
/// recorded outcome fields are byte-identical to [`run_trial`]'s; the
/// record additionally carries the [`SweepSummary`] marker.
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_swept(
    planner: &SweepPlanner<'_>,
    problem: &DasProblem<'_>,
    sched_seed: u64,
) -> TrialRecord {
    let plan = planner.plan(problem, sched_seed);
    let result = execute_plan(problem, &plan).map(|o| (o, None));
    let mut rec = finish_trial(problem, &plan, sched_seed, result);
    rec.sweep = Some(SweepSummary { shared: true });
    rec
}

/// [`run_trial`], executed on the sharded executor with `shards` workers.
/// The recorded outcome fields are byte-identical to [`run_trial`]'s; the
/// record additionally carries the partition-dependent [`ShardSummary`]
/// (per-shard wall-clock, cross-shard message counts).
///
/// # Panics
/// Panics if the workload violates the CONGEST model.
pub fn run_trial_sharded(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    shards: usize,
) -> TrialRecord {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    let result = execute_plan_sharded(problem, &plan, shards).map(|(o, r)| (o, Some(r)));
    finish_trial(problem, &plan, sched_seed, result)
}

/// [`run_trial`], executed over the networked coordinator/worker path on
/// localhost: one coordinator (this thread) plus `workers` worker threads
/// speaking the framed TCP protocol, exactly as separate processes would.
/// The recorded outcome fields are byte-identical to [`run_trial`]'s; the
/// record additionally carries the [`ShardSummary`] and the per-worker
/// coordinator-side traffic ([`NetSummary`]).
///
/// # Panics
/// Panics if the workload violates the CONGEST model, or on a localhost
/// networking failure (which, unlike the round cap, is an environment
/// problem rather than a schedule property).
pub fn run_trial_networked(
    scheduler: &dyn Scheduler,
    problem: &DasProblem<'_>,
    sched_seed: u64,
    workers: usize,
) -> TrialRecord {
    let plan = scheduler
        .plan(problem, sched_seed)
        .expect("workload is model-valid");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net = NetConfig::default();
    let result = std::thread::scope(|scope| {
        let effective = workers.min(problem.graph().node_count()).max(1);
        let handles: Vec<_> = (0..effective)
            .map(|_| {
                let addr = addr.clone();
                let net = net.clone();
                scope.spawn(move || run_worker(problem, &addr, &net))
            })
            .collect();
        let result = execute_plan_networked(problem, &plan, workers, listener, &net);
        for h in handles {
            // on a cap error both sides return the same typed error; only
            // the coordinator's copy feeds the record
            let _ = h.join().expect("worker thread");
        }
        result
    });
    match result {
        Ok((outcome, report)) => {
            let mut rec = finish_trial(
                problem,
                &plan,
                sched_seed,
                Ok((outcome, Some(report.shard.clone()))),
            );
            rec.net = Some(NetSummary::of(&report));
            rec
        }
        Err(e) => finish_trial(problem, &plan, sched_seed, Err(e)),
    }
}

/// Turns an execution result into the trial record: verify-and-record on
/// success, a `truncated` failure record when the engine-round cap was
/// hit. Split out so the cap path is unit-testable without building a
/// diverging schedule.
fn finish_trial(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    sched_seed: u64,
    result: Result<(ScheduleOutcome, Option<ShardReport>), SchedError>,
) -> TrialRecord {
    match result {
        Ok((outcome, shard_report)) => {
            let report =
                verify::against_references(problem, &outcome).expect("references computable");
            let mut rec = record_trial(sched_seed, &outcome, &report, Some(plan.predicted_rounds));
            rec.shard = shard_report.map(|r| ShardSummary::of(&r));
            rec
        }
        Err(SchedError::Exec(ExecError::RoundCapExceeded { cap, .. })) => TrialRecord {
            seed: sched_seed,
            schedule: cap,
            predicted: Some(plan.predicted_rounds),
            precompute: plan.precompute_rounds,
            late: 0,
            correctness: 0.0,
            truncated: true,
            shard: None,
            obs: None,
            doubling: None,
            sweep: None,
            net: None,
        },
        Err(e) => panic!("trial failed to execute: {e}"),
    }
}

/// Success rate of a scheduler over repeated trials: the empirical version
/// of the paper's "with high probability".
///
/// Trials are fanned across threads by [`TrialRunner`]; `run` receives the
/// trial index `0..trials` (experiments derive their own seeds from it),
/// and the result is independent of the thread count.
pub fn success_rate<F>(trials: u64, run: F) -> f64
where
    F: Fn(u64) -> bool + Send + Sync,
{
    if trials == 0 {
        return 0.0;
    }
    let ok = TrialRunner::new(0, trials)
        .run_indexed(run)
        .into_iter()
        .filter(|&ok| ok)
        .count();
    ok as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{SequentialScheduler, UniformScheduler};
    use das_graph::generators;

    #[test]
    fn measure_reports_correct_run() {
        let g = generators::path(8);
        let p = workloads::stacked_relays(&g, 4, 1);
        let (m, outcome, report) = measure(&SequentialScheduler, &p);
        assert_eq!(m.name, "sequential");
        assert_eq!(m.late, 0);
        assert_eq!(m.correctness, 1.0);
        assert_eq!(m.total(), m.schedule);
        // the report is reusable without re-verifying
        let rec = record_trial(0, &outcome, &report, None);
        assert_eq!(rec.schedule, m.schedule);
        assert_eq!(rec.predicted, None);
    }

    #[test]
    fn run_trial_records_prediction_and_matches_fused_run() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        let rec = run_trial(&UniformScheduler::default(), &p, 99);
        let fused = UniformScheduler::default().with_seed(99).run(&p).unwrap();
        assert_eq!(rec.schedule, fused.schedule_rounds());
        assert_eq!(rec.late, fused.stats.late_messages);
        let predicted = rec.predicted.expect("staged trials carry a prediction");
        if rec.late == 0 {
            assert!(predicted <= rec.schedule, "prediction is the step boundary");
        }
    }

    #[test]
    fn sharded_trial_matches_sequential_and_records_shard_fields() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        let seq = run_trial(&UniformScheduler::default(), &p, 7);
        let sharded = run_trial_sharded(&UniformScheduler::default(), &p, 7, 3);
        // outcome fields are partition-independent
        assert_eq!(seq.schedule, sharded.schedule);
        assert_eq!(seq.late, sharded.late);
        assert_eq!(seq.correctness, sharded.correctness);
        let summary = sharded.shard.expect("sharded trials carry shard data");
        assert_eq!(summary.shards, 3);
        assert_eq!(summary.per_shard_ms.len(), 3);
        assert!(
            summary.per_shard_delivered.iter().sum::<u64>() > 0,
            "relays deliver messages"
        );
        assert!(seq.shard.is_none());
    }

    #[test]
    fn networked_trial_matches_sequential_and_records_traffic() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        let seq = run_trial(&UniformScheduler::default(), &p, 7);
        let networked = run_trial_networked(&UniformScheduler::default(), &p, 7, 3);
        // outcome fields are partition- and transport-independent
        assert_eq!(seq.schedule, networked.schedule);
        assert_eq!(seq.late, networked.late);
        assert_eq!(seq.correctness, networked.correctness);
        let shard = networked.shard.expect("networked trials carry shard data");
        assert_eq!(shard.shards, 3);
        let net = networked.net.expect("networked trials carry traffic");
        assert_eq!(net.workers, 3);
        assert_eq!(net.per_worker_bytes_sent.len(), 3);
        assert!(net.frames_sent > 0 && net.frames_received > 0);
        assert!(net.bytes_sent > 0 && net.bytes_received > 0);
        assert!(seq.net.is_none());
    }

    #[test]
    fn observed_trial_is_neutral_and_persists_the_summary() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        let plain = run_trial(&UniformScheduler::default(), &p, 13);
        let (off, off_report) =
            run_trial_observed(&UniformScheduler::default(), &p, 13, &ObsConfig::off());
        assert!(off_report.is_none());
        assert_eq!(plain, off, "obs-off trials are exactly unobserved trials");
        let (full, full_report) =
            run_trial_observed(&UniformScheduler::default(), &p, 13, &ObsConfig::full());
        // outcome fields never move; only the obs summary is added
        assert_eq!(plain.schedule, full.schedule);
        assert_eq!(plain.late, full.late);
        assert_eq!(plain.correctness, full.correctness);
        match full_report {
            Some(r) => {
                let summary = full.obs.expect("recording enabled");
                assert_eq!(summary, r.summary());
                assert!(summary.messages > 0, "relays deliver messages");
            }
            None => assert!(full.obs.is_none(), "recording compiled out"),
        }
    }

    #[test]
    fn doubling_trial_records_the_search() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 16, 1); // forces several attempts
        let rec = run_trial_doubling(
            &UniformScheduler::default(),
            &p,
            5,
            &DoublingConfig::default(),
        );
        // every outcome field is what the replan-from-scratch search (the
        // reference path, since removed) recorded for this trial
        let want = TrialRecord {
            seed: 5,
            schedule: 168,
            predicted: None,
            precompute: 244,
            late: 0,
            correctness: 1.0,
            truncated: false,
            shard: None,
            obs: None,
            doubling: Some(DoublingSummary {
                attempts: 3,
                rejected_by_precheck: 2,
                final_guess: 33,
                wasted_rounds: 244,
                fell_back: false,
                artifact_builds: 1,
                replan_cache_hits: 2,
            }),
            sweep: None,
            net: None,
        };
        assert_eq!(rec, want);
    }

    #[test]
    fn swept_trials_share_one_artifact_and_stay_byte_neutral() {
        use das_core::PrivateScheduler;
        let g = generators::path(16);
        let p = workloads::stacked_relays(&g, 6, 1);
        let schedulers: Vec<Box<dyn das_core::Scheduler>> = vec![
            Box::new(UniformScheduler::default()),
            Box::new(PrivateScheduler::default()),
        ];
        for sched in &schedulers {
            let planner = SweepPlanner::new(sched.as_ref(), &p);
            let runner = TrialRunner::new(42, 8);
            let swept = runner.run_trials(|seed| run_trial_swept(&planner, &p, seed));
            let plain = runner.run_trials(|seed| run_trial(sched.as_ref(), &p, seed));
            assert_eq!(planner.cache_hits(), 8);
            for (s, mut pl) in swept.into_iter().zip(plain) {
                assert_eq!(s.sweep, Some(SweepSummary { shared: true }));
                // the sweep marker is the ONLY field allowed to differ
                pl.sweep = s.sweep;
                assert_eq!(
                    s,
                    pl,
                    "{}: sweep sharing moved an outcome field",
                    sched.name()
                );
            }
        }
    }

    #[test]
    fn sweep_planner_exports_cache_stats_into_obs_metrics() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 4, 1);
        let sched = UniformScheduler::default();
        let planner = SweepPlanner::new(&sched, &p);
        let _ = run_trial_swept(&planner, &p, 3);
        let mut metrics = das_obs::MetricsRegistry::new();
        planner.export_metrics(&mut metrics);
        assert_eq!(metrics.counter("sweep.plan_cache_hits"), 1);
        assert_eq!(metrics.counter("sweep.shared_artifacts"), 1);
    }

    #[test]
    fn round_cap_records_a_truncated_trial_instead_of_crashing() {
        use das_core::{ExecError, SchedError, Scheduler};
        let g = generators::path(8);
        let p = workloads::stacked_relays(&g, 3, 1);
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        let rec = finish_trial(
            &p,
            &plan,
            5,
            Err(SchedError::Exec(ExecError::RoundCapExceeded {
                cap: 4,
                big_round: 4,
            })),
        );
        assert!(rec.truncated);
        assert!(!rec.success());
        assert_eq!(rec.schedule, 4);
        assert_eq!(rec.correctness, 0.0);
        assert_eq!(rec.late, 0);
        assert_eq!(rec.seed, 5);
    }

    #[test]
    fn sweep_reuses_reference_runs_across_trials() {
        // the E1 shape: one problem, many trials varying only sched_seed —
        // the k reference runs are computed exactly once
        let g = generators::path(16);
        let p = workloads::stacked_relays(&g, 5, 7);
        let runner = TrialRunner::new(42, 12);
        let agg = runner.aggregate("reuse_check", "uniform", |seed| {
            run_trial(&UniformScheduler::default(), &p, seed)
        });
        assert_eq!(agg.trials, 12);
        assert_eq!(
            p.reference_runs_computed(),
            5,
            "reference runs must be shared across the sweep, not recomputed per trial"
        );
    }

    #[test]
    fn success_rate_counts() {
        assert_eq!(success_rate(10, |t| t % 2 == 0), 0.5);
        assert_eq!(success_rate(0, |_| true), 0.0);
    }
}
