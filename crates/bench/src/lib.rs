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
//! A trial ([`run_trial`]) is one [`das_core::pipeline::run`] — the same
//! plan → execute → verify pipeline the CLI and the serve daemon run: plan
//! with the trial's `sched_seed`, execute the plan, verify **exactly
//! once** — plus the record, including the plan's predicted length, so
//! artifacts track the plan-vs-reality gap. Because a sweep varies only
//! scheduler randomness, the problem's reference runs are computed once
//! and shared by every trial.

#![warn(missing_docs)]

pub mod runner;
pub mod table;
pub mod workloads;

pub use runner::{
    DoublingSummary, NetSummary, ShardSummary, SummaryStats, TrialAggregate, TrialRecord,
    TrialRunner,
};
pub use table::Table;

use das_core::pipeline::{self, Failed, PlanFrom, Ran};
use das_core::verify::{self, VerifyReport};
use das_core::{
    doubling, net, DasProblem, DoublingConfig, ExecError, ExecOptions, NetConfig, SchedError,
    ScheduleOutcome, Scheduler, SweepArtifact, UniformScheduler,
};
use das_obs::{ObsConfig, ObsReport, Stages};

/// Where a trial's plan executes. Every arm yields the byte-identical
/// [`ScheduleOutcome`]; they differ in wall-clock and in which
/// partition-dependent summaries the record carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialExecutor {
    /// Fused: one shard on the calling thread.
    Fused,
    /// This many in-process shard threads (0 clamps to 1).
    Sharded(usize),
    /// One coordinator (the calling thread) plus this many worker threads
    /// (0 clamps to 1) speaking the framed TCP protocol on localhost,
    /// exactly as separate processes would. Has no recording: `obs` is
    /// ignored.
    Networked(usize),
}

/// Everything that defines one trial.
#[derive(Clone, Copy)]
pub struct TrialSpec<'a> {
    /// The scheduler under test.
    pub scheduler: &'a dyn Scheduler,
    /// The problem; a sweep shares one, so its reference runs are computed
    /// once.
    pub problem: &'a DasProblem<'a>,
    /// The scheduler randomness — the only thing a sweep varies.
    pub sched_seed: u64,
    /// The seed-independent planning prefix
    /// ([`Scheduler::build_sweep_artifact`]) to derive the plan from, built
    /// once per sweep; `None` plans from scratch. The plan is byte-identical
    /// either way.
    pub sweep: Option<&'a SweepArtifact>,
    /// Where the plan executes.
    pub executor: TrialExecutor,
    /// Observability level of the execution; never moves an outcome.
    pub obs: ObsConfig,
}

impl<'a> TrialSpec<'a> {
    /// The plain trial: planned from scratch, executed fused on the
    /// production loop, unobserved.
    pub fn new(scheduler: &'a dyn Scheduler, problem: &'a DasProblem<'a>, sched_seed: u64) -> Self {
        TrialSpec {
            scheduler,
            problem,
            sched_seed,
            sweep: None,
            executor: TrialExecutor::Fused,
            obs: ObsConfig::off(),
        }
    }
}

/// What one trial produced.
#[derive(Debug)]
pub struct Trial {
    /// The artifact record.
    pub record: TrialRecord,
    /// The outcome the record was made from; `None` for a truncated trial.
    pub outcome: Option<ScheduleOutcome>,
    /// The execution's full recording, when `obs` recorded one (its
    /// deterministic summary is in the record).
    pub obs: Option<ObsReport>,
}

/// One full trial through [`pipeline::run`]: plan with `sched_seed`
/// (from the sweep's artifact when there is one), execute the plan on
/// `executor`, verify exactly once, and record — with the plan's predicted
/// length threaded into the record.
///
/// An execution that hits the engine-round cap is recorded as a
/// `truncated` (failed) trial instead of crashing the sweep.
///
/// # Panics
/// Panics if the workload violates the CONGEST model, or on a localhost
/// networking failure (which, unlike the round cap, is an environment
/// problem rather than a schedule property).
pub fn run_trial(spec: &TrialSpec<'_>) -> Trial {
    let (problem, scheduler, seed) = (spec.problem, spec.scheduler, spec.sched_seed);
    let from = match spec.sweep {
        Some(artifact) => PlanFrom::Swept {
            scheduler,
            artifact,
            seed,
        },
        None => PlanFrom::Scheduler { scheduler, seed },
    };
    // networked workers carry no probe
    let obs = match spec.executor {
        TrialExecutor::Networked(_) => ObsConfig::off(),
        _ => spec.obs,
    };
    let run = |opts: ExecOptions<'_>| {
        pipeline::run(problem, from, opts.with_obs(obs), &mut Stages::default())
    };
    let result = match spec.executor {
        TrialExecutor::Fused => run(ExecOptions::default()),
        TrialExecutor::Sharded(n) => run(ExecOptions::sharded(n)),
        TrialExecutor::Networked(n) => {
            // on a cap error both sides return the same typed error; only
            // the coordinator's copy feeds the record
            let net = NetConfig::default();
            net::on_localhost(problem, n.max(1), &net, run)
                .expect("bind localhost")
                .0
        }
    };
    finish_trial(seed, obs.enabled(), result)
}

/// Turns a pipeline result into the trial: the record on success, with
/// the shard and traffic summaries of the topologies that produce them and
/// the recording when `recorded`, or a `truncated` failure record when the
/// engine-round cap was hit. Split out so the cap path is unit-testable
/// without building a diverging schedule.
fn finish_trial(sched_seed: u64, recorded: bool, result: Result<Ran, Failed>) -> Trial {
    match result {
        Ok(ran) => {
            let outcome = ran.executed.outcome;
            let record = TrialRecord {
                predicted: Some(ran.plan.predicted_rounds),
                // a fused run has no shards, only a networked one has links
                shard: (ran.executed.shard.shards > 0)
                    .then(|| ShardSummary::of(&ran.executed.shard)),
                net: (!ran.executed.traffic.is_empty())
                    .then(|| NetSummary::of(&ran.executed.traffic)),
                obs: recorded.then(|| ran.report.summary()),
                ..outcome_record(sched_seed, &outcome, &ran.verify)
            };
            Trial {
                record,
                outcome: Some(outcome),
                obs: recorded.then_some(ran.report),
            }
        }
        Err(Failed {
            error: SchedError::Exec(ExecError::RoundCapExceeded { cap, .. }),
            plan: Some(plan),
        }) => Trial {
            record: TrialRecord {
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
                net: None,
            },
            outcome: None,
            obs: None,
        },
        Err(failed) => panic!("trial failed to execute: {failed}"),
    }
}

/// The record of a verified outcome.
fn outcome_record(seed: u64, outcome: &ScheduleOutcome, verify: &VerifyReport) -> TrialRecord {
    TrialRecord {
        seed,
        schedule: outcome.schedule_rounds(),
        predicted: None,
        precompute: outcome.precompute_rounds,
        late: outcome.stats.late_messages,
        correctness: verify.correctness_rate(),
        truncated: false,
        shard: None,
        obs: None,
        doubling: None,
        net: None,
    }
}

/// One full trial of the congestion-*oblivious* pipeline: run the uniform
/// scheduler through the doubling search (the trial's `sched_seed`
/// becoming the shared seed), verify the final outcome exactly once, and
/// record — with the search's [`DoublingSummary`] (attempts, fallback,
/// plan-cache counters) threaded into the record. A search over plans on
/// a concrete scheduler, so not a [`TrialSpec`].
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
    let verify =
        verify::against_references(problem, &result.outcome).expect("references computable");
    TrialRecord {
        doubling: Some(DoublingSummary::of(&result)),
        ..outcome_record(sched_seed, &result.outcome, &verify)
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
    use das_core::{PrivateScheduler, SequentialScheduler};
    use das_graph::generators;

    #[test]
    fn run_trial_records_prediction_and_matches_fused_run() {
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        let sched = UniformScheduler::default();
        let trial = run_trial(&TrialSpec::new(&sched, &p, 99));
        let fused = sched.with_seed(99).run(&p).unwrap();
        assert_eq!(
            format!("{:?}", trial.outcome),
            format!("{:?}", Some(fused)),
            "the trial hands back the outcome its record was made from"
        );
        let rec = trial.record;
        let predicted = rec.predicted.expect("staged trials carry a prediction");
        if rec.late == 0 {
            assert!(predicted <= rec.schedule, "prediction is the step boundary");
        }
        assert_eq!(rec.correctness, 1.0);
    }

    /// Every way to say "this trial" — executor × obs × sweep — is the same
    /// trial: identical outcome bytes and deterministic record fields, with
    /// the partition-, transport- and recording-dependent summaries present
    /// exactly on the specs that produce them.
    #[test]
    fn every_spec_agrees_on_the_outcome_and_the_deterministic_record() {
        use TrialExecutor::{Fused, Networked, Sharded};
        let g = generators::path(12);
        let p = workloads::stacked_relays(&g, 6, 1);
        // executor, then the shard and worker counts its record must report
        // (0 clamps to 1 on both multi-shard arms)
        let executors = [
            (Fused, None, None),
            (Sharded(3), Some(3), None),
            (Sharded(0), Some(1), None),
            (Networked(3), Some(3), Some(3)),
            (Networked(0), Some(1), Some(1)),
        ];
        let schedulers: [&dyn Scheduler; 2] =
            [&UniformScheduler::default(), &PrivateScheduler::default()];
        for sched in schedulers {
            let artifact = sched.build_sweep_artifact(&p).unwrap();
            let plain = TrialSpec::new(sched, &p, 7);
            let want = run_trial(&plain);
            assert_eq!(want.record.correctness, 1.0);
            for (executor, shards, workers) in executors {
                for obs in [ObsConfig::off(), ObsConfig::full()] {
                    for sweep in [None, Some(&artifact)] {
                        let ctx = format!(
                            "{} on {executor:?}, obs {:?}, swept {}",
                            sched.name(),
                            obs.mode,
                            sweep.is_some()
                        );
                        let got = run_trial(&TrialSpec {
                            sweep,
                            executor,
                            obs,
                            ..plain
                        });
                        assert_eq!(
                            format!("{:?}", got.outcome),
                            format!("{:?}", want.outcome),
                            "{ctx}"
                        );
                        let rec = got.record;
                        let shard = rec.shard.as_ref();
                        assert_eq!(shard.map(|s| s.shards), shards, "{ctx}");
                        assert_eq!(shard.map(|s| s.per_shard_ms.len()), shards, "{ctx}");
                        if let Some(s) = shard {
                            let delivered: u64 = s.per_shard_delivered.iter().sum();
                            assert!(delivered > 0, "{ctx}: relays deliver messages");
                        }
                        let net = rec.net.as_ref();
                        assert_eq!(net.map(|n| n.workers), workers, "{ctx}");
                        assert_eq!(net.map(|n| n.per_worker_bytes_sent.len()), workers);
                        if let Some(n) = net {
                            assert!(n.frames_sent > 0 && n.frames_received > 0, "{ctx}");
                            assert!(n.bytes_sent > 0 && n.bytes_received > 0, "{ctx}");
                        }
                        // networked workers carry no probe
                        let records = obs.enabled() && !matches!(executor, Networked(_));
                        assert_eq!(rec.obs.is_some(), records, "{ctx}");
                        assert_eq!(rec.obs, got.obs.as_ref().map(|r| r.summary()), "{ctx}");
                        if let Some(o) = &rec.obs {
                            assert!(o.messages > 0, "{ctx}: relays deliver messages");
                        }
                        let deterministic = TrialRecord {
                            shard: None,
                            net: None,
                            obs: None,
                            ..rec
                        };
                        assert_eq!(deterministic, want.record, "{ctx}");
                    }
                }
            }
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
            net: None,
        };
        assert_eq!(rec, want);
    }

    #[test]
    fn round_cap_records_a_truncated_trial_instead_of_crashing() {
        let g = generators::path(8);
        let p = workloads::stacked_relays(&g, 3, 1);
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        let trial = finish_trial(
            5,
            true,
            Err(Failed {
                error: SchedError::Exec(ExecError::RoundCapExceeded {
                    cap: 4,
                    big_round: 4,
                }),
                plan: Some(plan),
            }),
        );
        assert!(trial.outcome.is_none() && trial.obs.is_none());
        let rec = trial.record;
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
        let sched = UniformScheduler::default();
        let runner = TrialRunner::new(42, 12);
        let agg = runner.aggregate("reuse_check", "uniform", |seed| {
            run_trial(&TrialSpec::new(&sched, &p, seed)).record
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
