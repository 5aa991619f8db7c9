//! Removing the known-parameters assumption by doubling.
//!
//! The paper assumes nodes know constant-factor approximations of
//! `congestion` and `dilation` and defers the removal of that assumption
//! to "standard doubling techniques". This module implements the standard
//! technique: guess a congestion budget, size a schedule plan for the
//! guess, check whether it succeeds (no message arrives late — in a real
//! deployment this is an `O(D)` convergecast of a success flag, which we
//! charge), and double the guess otherwise. The total cost is dominated by
//! the last, successful attempt, so the asymptotics are unchanged.
//!
//! The guess is applied as an exact **integer delay range in big-rounds**
//! ([`Scheduler::size_plan`]'s `guess`), not as a float multiplier of the true congestion: the float route
//! rounded consecutive guesses to the same range on small instances (and
//! leaked the true congestion into the sizing, which the doubling search
//! is not supposed to know), so attempts were silently repeated instead of
//! widened. Every attempt now strictly widens the delay span — see
//! [`DoublingOutcome::attempted_ranges`].
//!
//! Failed guesses are detected by [`crate::plan::analysis::predict`] on
//! the *plan*, without running the engine: the prediction of "no late
//! messages" is exact (see the analysis module docs), so the pre-check
//! never rejects a guess that would have succeeded and the engine executes
//! exactly once — on the final, successful plan. The charged round costs
//! are unchanged: every rejected guess still pays its predicted schedule
//! length plus the detection convergecast.
//!
//! Planning work is **not** repeated per guess: a search builds the
//! guess-independent [`crate::PlanArtifact`] once
//! ([`crate::Scheduler::build_artifact`]) and re-sizes it per attempt
//! ([`crate::Scheduler::size_plan`]) — the same two stages every
//! [`crate::Scheduler::plan`] is composed of — so each failed attempt costs
//! a cheap re-sampling, not a carve/share/draw pass.
//! [`DoublingOutcome::cache`] and the `doubling.replan_cache_hits` /
//! `doubling.artifact_builds` counters record the reuse.

use crate::exec::ExecutorConfig;
use crate::plan::{analysis, execute_plan_observed_with, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::schedulers::Scheduler;
use crate::{InterleaveScheduler, PrivateScheduler, UniformScheduler};
use das_obs::{LiveHub, ObsConfig, ObsReport, Stage, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// The outcome of a doubling search.
#[derive(Debug)]
pub struct DoublingOutcome {
    /// The final schedule (the fallback baseline's when
    /// [`DoublingOutcome::fell_back`] is set).
    pub outcome: ScheduleOutcome,
    /// The congestion guess of the last attempt, scaled back to engine
    /// rounds — comparable to the true congestion the search does not
    /// know. On the fallback path this is the guess that *failed* and
    /// tripped the give-up cap, not a successful budget; check
    /// [`DoublingOutcome::fell_back`] before reading it as one.
    pub final_guess: u64,
    /// Number of attempts (including the successful one).
    pub attempts: u32,
    /// Attempts rejected by the plan-level load prediction, without an
    /// engine run. Every failed attempt is rejected this way, so this is
    /// `attempts − 1` unless the search fell back to the baseline.
    pub rejected_by_precheck: u32,
    /// Rounds burnt across all failed attempts (also charged into
    /// `outcome.precompute_rounds`).
    pub wasted_rounds: u64,
    /// The full span (in big-rounds) of the delay law each attempt
    /// actually drew from: the uniform law's prime range, or the private
    /// law's total span (all decaying blocks). Strictly increasing — the
    /// doubling regression guard.
    pub attempted_ranges: Vec<u64>,
    /// Whether the search gave up and fell back to the always-correct
    /// interleave baseline. Mirrored by the `doubling.fallback` obs
    /// counter, but available to [`ObsConfig::off`] callers and bench
    /// records too.
    pub fell_back: bool,
    /// How much planning work the artifact cache saved.
    pub cache: PlanCacheStats,
}

/// Knobs for the doubling searches — everything defaults to the production
/// configuration.
#[derive(Clone, Debug, Default)]
pub struct DoublingConfig {
    /// Overrides the give-up cap (default `k · dilation · max-degree`, a
    /// trivial congestion upper bound). Tests and experiments use a tiny
    /// cap to force the fallback path deterministically.
    pub cap_override: Option<u64>,
    /// Optional live hub: every attempt's verdict is published into it as
    /// a [`das_obs::DoublingAttempt`] (and the fallback, if taken), and
    /// the final execution streams per-shard snapshots. Publication is
    /// write-only, so the search outcome is byte-identical with or
    /// without a hub attached.
    pub live: Option<Arc<LiveHub>>,
}

impl DoublingConfig {
    /// Returns the configuration with the live hub set (builder style).
    #[must_use]
    pub fn with_live(mut self, live: Option<Arc<LiveHub>>) -> Self {
        self.live = live;
        self
    }
}

/// Planning-work accounting for one doubling search: how often the
/// guess-independent artifact was built vs re-sized, and the wall time
/// each side took. The counters are deterministic; the `*_nanos` fields
/// are wall clocks (reported only through the opt-in `wall.*` metrics and
/// never persisted into deterministic artifacts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Guess-independent artifact builds: 1 per search.
    pub artifact_builds: u64,
    /// Attempts after the first, each planned by re-sizing the artifact
    /// the first attempt's sizing already used: `attempts − 1`.
    pub replan_cache_hits: u64,
    /// Wall nanoseconds building the artifact.
    pub build_nanos: u64,
    /// Wall nanoseconds sizing plans from the artifact.
    pub size_nanos: u64,
}

/// First delay span tried, in big-rounds. Starting at 2 (not 1) keeps the
/// prime-range steps strictly increasing from the very first doubling
/// (`next_prime(1) = next_prime(2) = 2`), and matches the old float
/// sizing's first attempt exactly.
const INITIAL_RANGE: u64 = 2;

/// One attempt's facts for the observability report.
struct AttemptRecord<'a> {
    attempt: u32,
    /// The full span of the delay law the attempt drew from — the same
    /// convention for both searches (prime range / total block span).
    delay_span: u64,
    guess: u64,
    prediction: &'a analysis::LoadPrediction,
    wasted_before: u64,
    /// The planning (pre-computation) charge of the attempt's plan — the
    /// accepted attempt's span duration.
    planning_rounds: u64,
}

/// Records one doubling attempt into the report: accept/reject counters
/// with the reason, plus (in full mode) a `Plan`-track span whose
/// deterministic timestamp is the rounds already burnt by earlier failed
/// attempts. A *rejected* attempt's span lasts its charged (predicted)
/// cost; an *accepted* attempt's span covers only the planning charge —
/// its engine rounds land on the `Execute` tracks when the final plan
/// runs, so they appear exactly once on the timeline.
fn record_attempt(report: &mut Option<ObsReport>, obs: &ObsConfig, rec: AttemptRecord<'_>) {
    let Some(r) = report.as_mut() else { return };
    r.metrics.inc("doubling.attempts", 1);
    let (name, dur) = if rec.prediction.feasible() {
        r.metrics.inc("doubling.accepted", 1);
        ("attempt accepted", rec.planning_rounds)
    } else {
        r.metrics.inc("doubling.rejected_precheck", 1);
        (
            "attempt rejected: predicted late",
            rec.prediction.predicted_engine_rounds,
        )
    };
    if obs.events_enabled() {
        r.push_event(
            TraceEvent::span(Stage::Plan, 0, name, rec.wasted_before, dur)
                .arg("attempt", u64::from(rec.attempt))
                .arg("delay_span", rec.delay_span)
                .arg("congestion_guess", rec.guess)
                .arg("predicted_late", rec.prediction.predicted_late)
                // every attempt after the first re-sizes the one artifact
                .arg("reused_artifact", u64::from(rec.attempt > 1)),
        );
    }
}

/// Folds the final execution's recording, the search totals, and the
/// plan-cache accounting into the report once the search terminates.
fn finish_report(
    report: &mut Option<ObsReport>,
    obs: &ObsConfig,
    exec_report: Option<ObsReport>,
    wasted: u64,
    fell_back: bool,
    cache: &PlanCacheStats,
) {
    let Some(r) = report.as_mut() else { return };
    if let Some(er) = exec_report {
        r.merge(&er);
    }
    r.metrics.inc("doubling.wasted_rounds", wasted);
    r.metrics
        .inc("doubling.artifact_builds", cache.artifact_builds);
    r.metrics
        .inc("doubling.replan_cache_hits", cache.replan_cache_hits);
    if fell_back {
        r.metrics.inc("doubling.fallback", 1);
    }
    if obs.wall_clock {
        // Wall clocks stay quarantined behind the explicit opt-in, like
        // the pipeline's other wall.* counters.
        r.metrics
            .inc("wall.artifact_build_us", cache.build_nanos / 1_000);
        r.metrics.inc("wall.plan_size_us", cache.size_nanos / 1_000);
    }
}

/// The one doubling search behind every public entry point: builds
/// `base`'s guess-independent artifact once, then sizes it for a requested
/// span of [`INITIAL_RANGE`], doubling until the sized plan has no
/// (predicted, hence actual) late messages, and executes that plan — or the
/// always-correct interleave baseline's, once the implied congestion guess
/// exceeds the cap (`k · dilation · max-degree`, a trivial congestion upper
/// bound).
///
/// The searches differ only in `spans`, which maps an attempt's requested
/// span (and the plan sized for it) to `(reported, budgeted)`: the full span
/// of the delay law the attempt drew from, and the part of it a congestion
/// budget controls.
fn search(
    problem: &DasProblem<'_>,
    base: &dyn Scheduler,
    obs: &ObsConfig,
    cfg: &DoublingConfig,
    spans: impl Fn(u64, &SchedulePlan) -> (u64, u64),
) -> Result<(DoublingOutcome, Option<ObsReport>), SchedError> {
    let k = problem.k() as u64;
    let dilation = problem.dilation() as u64;
    let cap = cfg
        .cap_override
        .unwrap_or_else(|| (k * dilation * problem.graph().max_degree().max(1) as u64).max(1));
    let ln_n = (problem.graph().node_count().max(2) as f64).ln();
    let mut cache = PlanCacheStats::default();
    let t = Instant::now();
    let artifact = base.build_artifact(problem, base.default_sched_seed())?;
    cache.build_nanos = t.elapsed().as_nanos() as u64;
    cache.artifact_builds = 1;
    // pre-computation is independent of the congestion guess: charge it
    // once across attempts (and on the fallback)
    let pre = artifact.precompute_rounds();
    let mut requested = INITIAL_RANGE;
    let mut attempts = 0u32;
    let mut rejected = 0u32;
    let mut wasted = 0u64;
    let mut attempted_ranges = Vec::new();
    let mut detection = None;
    let mut report = obs.enabled().then(ObsReport::new);
    let (plan, final_guess, fell_back) = loop {
        attempts += 1;
        let t = Instant::now();
        let plan = base.size_plan(problem, &artifact, Some(requested))?;
        cache.size_nanos += t.elapsed().as_nanos() as u64;
        let (span, budgeted) = spans(requested, &plan);
        attempted_ranges.push(span);
        let guess = implied_congestion(budgeted, ln_n);
        let prediction = analysis::predict(problem, &plan)?;
        record_attempt(
            &mut report,
            obs,
            AttemptRecord {
                attempt: attempts,
                delay_span: span,
                guess,
                prediction: &prediction,
                wasted_before: wasted,
                planning_rounds: pre,
            },
        );
        if let Some(hub) = &cfg.live {
            hub.publish_doubling_attempt(
                guess,
                prediction.predicted_engine_rounds,
                prediction.feasible(),
            );
        }
        if prediction.feasible() {
            break (plan, guess, false);
        }
        // rejected on the plan alone; charge what the failed attempt
        // would have cost
        rejected += 1;
        wasted += prediction.predicted_engine_rounds
            + *detection.get_or_insert_with(|| detection_cost(problem));
        if guess > cap {
            if let Some(hub) = &cfg.live {
                hub.publish_doubling_fallback();
            }
            let fallback = InterleaveScheduler;
            let plan = fallback.plan(problem, fallback.default_sched_seed())?;
            break (plan, guess, true);
        }
        requested *= 2;
    };
    cache.replan_cache_hits = u64::from(attempts) - 1;
    let exec_cfg = ExecutorConfig::default().with_live(cfg.live.clone());
    let (mut outcome, exec_report) = execute_plan_observed_with(problem, &plan, obs, &exec_cfg)?;
    debug_assert!(
        fell_back || outcome.stats.late_messages == 0,
        "prediction is exact"
    );
    outcome.precompute_rounds = pre + wasted;
    finish_report(&mut report, obs, exec_report, wasted, fell_back, &cache);
    Ok((
        DoublingOutcome {
            outcome,
            final_guess,
            attempts,
            rejected_by_precheck: rejected,
            wasted_rounds: wasted,
            attempted_ranges,
            fell_back,
            cache,
        },
        report,
    ))
}

/// Runs the Theorem 1.1 scheduler without knowing `congestion`: doubles an
/// integer delay range until the planned schedule has no (predicted, hence
/// actual) late messages. Gives up (falling back to the always-correct
/// interleave baseline) once the implied congestion guess exceeds
/// `k · dilation · max-degree` — a trivial congestion upper bound — or
/// [`DoublingConfig::cap_override`].
///
/// When `obs` records, additionally returns an [`ObsReport`] carrying
/// `doubling.*` accept/reject counters, one `Plan`-track span per attempt
/// clocked on the cumulative charged rounds, and the final execution's
/// recording.
///
/// # Errors
/// Propagates a [`SchedError`] from planning or the final execution.
pub fn uniform_with_doubling_configured(
    problem: &DasProblem<'_>,
    base: &UniformScheduler,
    obs: &ObsConfig,
    cfg: &DoublingConfig,
) -> Result<(DoublingOutcome, Option<ObsReport>), SchedError> {
    // The delay range (in big-rounds) is what a congestion budget controls
    // — range · ln n engine rounds of spread for a budget of that many
    // messages. The law draws from the *prime* span, which next_prime
    // rounds up from the requested range — the reported guess and the
    // give-up check must use the span actually in force, or both
    // under-report the real delay budget.
    search(problem, base, obs, cfg, |range, _| {
        let span = das_prg::primes::next_prime(range);
        (span, span)
    })
}

/// Runs the Theorem 4.1 private scheduler without knowing `congestion`,
/// by the same doubling discipline. The clustering and sharing
/// pre-computation depend only on `dilation` (which nodes can read off
/// their own algorithms), so only the *execution* attempts repeat; the
/// pre-computation is charged once — and, through the plan artifact,
/// *computed* once too.
///
/// Same recording contract and [`DoublingConfig`] knobs as
/// [`uniform_with_doubling_configured`].
///
/// # Errors
/// Propagates a [`SchedError`] from planning or the final execution.
pub fn private_with_doubling_configured(
    problem: &DasProblem<'_>,
    base: &PrivateScheduler,
    obs: &ObsConfig,
    cfg: &DoublingConfig,
) -> Result<(DoublingOutcome, Option<ObsReport>), SchedError> {
    // Report the full span of the sized law (all decaying blocks) — the
    // same delay_span convention as the uniform search's prime range. The
    // congestion guess itself stays on the first block: only
    // first-scheduled copies pay bandwidth (Lemma 4.4), so the first block
    // is what a congestion budget controls.
    search(problem, base, obs, cfg, |block, plan| {
        let num_layers = (plan.unit_count() / problem.k()).max(1);
        (base.doubling_delay_span(block, num_layers), block)
    })
}

/// The congestion a delay span of `range` big-rounds budgets for:
/// `range · ln n` messages per edge spread over `range` big-rounds of
/// `Θ(ln n)` rounds each. Used for the give-up cap and reporting only —
/// the sizing itself is exact-integer.
fn implied_congestion(range: u64, ln_n: f64) -> u64 {
    range.saturating_mul(ln_n.ceil().max(1.0) as u64)
}

/// The charged cost of detecting a failed attempt: an `O(diameter)`
/// convergecast + broadcast of a success flag.
fn detection_cost(problem: &DasProblem<'_>) -> u64 {
    2 * das_graph::traversal::diameter_estimate(problem.graph(), das_graph::NodeId(0))
        .map(|(lb, _)| lb as u64)
        .unwrap_or(problem.graph().node_count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::RelayChain;
    use crate::verify;
    use das_graph::generators;

    /// A path instance congested enough to force several doubling
    /// attempts (16 relays stacked on 11 edges).
    fn congested_problem(g: &das_graph::Graph) -> DasProblem<'_> {
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..16)
            .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, 3)
    }

    /// The uniform search with default schedulers and knobs, unobserved.
    fn uniform(p: &DasProblem<'_>) -> DoublingOutcome {
        let (cfg, obs) = (DoublingConfig::default(), ObsConfig::off());
        uniform_with_doubling_configured(p, &UniformScheduler::default(), &obs, &cfg)
            .unwrap()
            .0
    }

    /// The private search with default schedulers and knobs, unobserved.
    fn private(p: &DasProblem<'_>) -> DoublingOutcome {
        let (cfg, obs) = (DoublingConfig::default(), ObsConfig::off());
        private_with_doubling_configured(p, &PrivateScheduler::default(), &obs, &cfg)
            .unwrap()
            .0
    }

    #[test]
    fn doubling_finds_a_working_guess() {
        let g = generators::path(10);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..8)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 3);
        let result = uniform(&p);
        let report = verify::against_references(&p, &result.outcome).unwrap();
        assert!(report.all_correct());
        assert!(result.attempts >= 1);
        assert!(!result.fell_back, "a working guess exists");
        // wasted rounds are charged
        assert_eq!(
            result.outcome.total_rounds(),
            result.outcome.schedule_rounds() + result.wasted_rounds
        );
    }

    #[test]
    fn precheck_rejects_every_failed_guess_without_an_engine_run() {
        let g = generators::path(10);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..8)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 3);
        let result = uniform(&p);
        // the successful attempt is the only one that executed: everything
        // before it was rejected on the plan alone, and the final outcome
        // is clean (the pre-check accepted it, exactly)
        assert_eq!(result.rejected_by_precheck, result.attempts - 1);
        assert_eq!(result.outcome.stats.late_messages, 0);
        // failed attempts still charge rounds
        if result.attempts > 1 {
            assert!(result.wasted_rounds > 0);
        }
    }

    #[test]
    fn private_doubling_finds_a_working_guess() {
        let g = generators::path(10);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..6)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 8);
        let result = private(&p);
        let report = verify::against_references(&p, &result.outcome).unwrap();
        assert!(report.all_correct());
        assert!(result.outcome.precompute_rounds > 0);
        assert_eq!(result.rejected_by_precheck, result.attempts - 1);
        assert!(!result.fell_back);
    }

    #[test]
    fn doubling_cost_dominated_by_final_attempt() {
        let g = generators::path(12);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..10)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 3);
        let result = uniform(&p);
        // geometric series: wasted <= O(final attempt + attempts * detection)
        let final_len = result.outcome.schedule_rounds();
        assert!(
            result.wasted_rounds <= 3 * final_len + 30 * result.attempts as u64,
            "wasted {} vs final {final_len}",
            result.wasted_rounds
        );
    }

    #[test]
    fn observed_doubling_matches_and_records_attempts() {
        let g = generators::path(12);
        let p = congested_problem(&g);
        let plain = uniform(&p);
        let (observed, report) = uniform_with_doubling_configured(
            &p,
            &UniformScheduler::default(),
            &ObsConfig::full(),
            &DoublingConfig::default(),
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", plain.outcome),
            format!("{:?}", observed.outcome),
            "recording must not perturb the doubling search"
        );
        let Some(r) = report else {
            return; // recording compiled out
        };
        assert_eq!(
            r.metrics.counter("doubling.attempts"),
            u64::from(observed.attempts)
        );
        assert_eq!(
            r.metrics.counter("doubling.rejected_precheck"),
            u64::from(observed.rejected_by_precheck)
        );
        assert_eq!(r.metrics.counter("doubling.accepted"), 1);
        assert_eq!(r.metrics.counter("doubling.fallback"), 0);
        assert_eq!(
            r.metrics.counter("doubling.wasted_rounds"),
            observed.wasted_rounds
        );
        // the cache counters mirror DoublingOutcome.cache
        assert_eq!(
            r.metrics.counter("doubling.artifact_builds"),
            observed.cache.artifact_builds
        );
        assert_eq!(
            r.metrics.counter("doubling.replan_cache_hits"),
            observed.cache.replan_cache_hits
        );
        // wall clocks stay out of the deterministic report by default
        assert!(r.metrics.counters.keys().all(|k| !k.starts_with("wall.")));
        // one Plan-track span per attempt, plus the engine's execute events
        let plan_spans = r
            .events
            .iter()
            .filter(|e| e.stage == das_obs::Stage::Plan)
            .count();
        assert_eq!(plan_spans, observed.attempts as usize);
    }

    #[test]
    fn every_attempt_strictly_widens_the_delay_range() {
        // regression for the float-factor sizing: on a small graph
        // (ln n ≈ 2.3) the old `range_factor = guess / real_c` sizing
        // mapped several consecutive guesses to the same integer range, so
        // "doubling" re-tried an identical plan. The integer sizing must
        // produce strictly increasing spans on an instance congested
        // enough to force several attempts.
        let g = generators::path(12);
        let p = congested_problem(&g);
        let result = uniform(&p);
        assert!(
            result.attempts > 1,
            "instance must force the search to actually double"
        );
        assert_eq!(result.attempted_ranges.len(), result.attempts as usize);
        for w in result.attempted_ranges.windows(2) {
            assert!(
                w[1] > w[0],
                "attempt ranges must strictly widen: {:?}",
                result.attempted_ranges
            );
        }
        let report = verify::against_references(&p, &result.outcome).unwrap();
        assert!(report.all_correct());

        let prv = private(&p);
        assert_eq!(prv.attempted_ranges.len(), prv.attempts as usize);
        for w in prv.attempted_ranges.windows(2) {
            assert!(
                w[1] > w[0],
                "private attempt spans must strictly widen: {:?}",
                prv.attempted_ranges
            );
        }
    }

    #[test]
    fn uniform_guess_derives_from_the_prime_span_actually_used() {
        // regression: the second attempt requests range 4 but draws from
        // next_prime(4) = 5 big-rounds; the reported guess (and the cap
        // check) must reflect the 5, not the 4.
        let g = generators::path(12);
        let p = congested_problem(&g);
        let ln_n = (g.node_count().max(2) as f64).ln();
        let result = uniform(&p);
        assert!(result.attempts > 1, "need a doubled attempt");
        assert_eq!(
            result.attempted_ranges[1], 5,
            "second attempt must use the prime span above range 4"
        );
        let last_span = *result.attempted_ranges.last().unwrap();
        assert_eq!(
            result.final_guess,
            implied_congestion(last_span, ln_n),
            "final_guess must be derived from the prime span in force"
        );
    }

    #[test]
    fn forced_fallback_sets_fell_back_and_stays_correct() {
        let g = generators::path(12);
        let p = congested_problem(&g);
        let cfg = DoublingConfig {
            cap_override: Some(1),
            ..DoublingConfig::default()
        };
        let (result, _) = uniform_with_doubling_configured(
            &p,
            &UniformScheduler::default(),
            &ObsConfig::off(),
            &cfg,
        )
        .unwrap();
        assert!(result.fell_back, "a cap of 1 must force the fallback");
        assert_eq!(
            result.rejected_by_precheck, result.attempts,
            "every attempt failed on the fallback path"
        );
        assert!(
            result.final_guess > 1,
            "final_guess records the guess that tripped the cap"
        );
        let report = verify::against_references(&p, &result.outcome).unwrap();
        assert!(report.all_correct(), "the interleave fallback is exact");

        let (private, _) = private_with_doubling_configured(
            &p,
            &crate::PrivateScheduler::default(),
            &ObsConfig::off(),
            &cfg,
        )
        .unwrap();
        assert!(private.fell_back);
        assert!(verify::against_references(&p, &private.outcome)
            .unwrap()
            .all_correct());
    }

    #[test]
    fn artifact_cache_hits_every_attempt_after_the_first() {
        let g = generators::path(12);
        let p = congested_problem(&g);
        let uni = uniform(&p);
        assert!(uni.attempts > 1);
        assert_eq!(uni.cache.artifact_builds, 1, "artifact built exactly once");
        assert_eq!(
            uni.cache.replan_cache_hits,
            u64::from(uni.attempts) - 1,
            "every later attempt re-sizes the cached artifact"
        );
        let prv = private(&p);
        assert_eq!(prv.cache.artifact_builds, 1);
        assert_eq!(prv.cache.replan_cache_hits, u64::from(prv.attempts) - 1);
    }
}
