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
//! The search is a way to plan: [`crate::pipeline::PlanFrom::Doubling`]
//! runs it as the plan stage of the one plan → execute → verify pipeline,
//! which executes and verifies the accepted plan like any other, on any
//! topology, and hands back the search's [`SearchFacts`] in
//! [`crate::pipeline::Ran::search`].
//!
//! The guess is applied as an exact **integer delay range in big-rounds**
//! ([`Scheduler::size_plan`]'s `guess`), not as a float multiplier of the true congestion: the float route
//! rounded consecutive guesses to the same range on small instances (and
//! leaked the true congestion into the sizing, which the doubling search
//! is not supposed to know), so attempts were silently repeated instead of
//! widened. Every attempt now strictly widens the delay span — see
//! [`SearchFacts::attempted_ranges`].
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
//! [`SearchFacts::cache`] and the `doubling.replan_cache_hits` /
//! `doubling.artifact_builds` counters record the reuse.

use crate::exec::FlatSteps;
use crate::plan::analysis::{self, LoadPrediction};
use crate::plan::{SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedulers::Scheduler;
use crate::{InterleaveScheduler, PrivateScheduler, UniformScheduler};
use das_obs::{LiveHub, ObsConfig, ObsReport, Stage, TraceEvent};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[doc(hidden)]
pub use crate::compat::{uniform_with_doubling_configured, DoublingConfig, DoublingOutcome};

/// The scheduler a doubling search re-sizes. A closed choice: the two
/// searches differ only in how an attempt's requested span maps to the
/// span it reports and the part of it a congestion budget controls.
#[derive(Clone, Copy)]
pub enum Search<'a> {
    /// Theorem 1.1's uniform scheduler, run without knowing `congestion`.
    Uniform(&'a UniformScheduler),
    /// Theorem 4.1's private scheduler. The clustering and sharing
    /// pre-computation depend only on `dilation` (which nodes can read off
    /// their own algorithms), so only the *execution* attempts repeat; the
    /// pre-computation is charged once — and, through the plan artifact,
    /// *computed* once too.
    Private(&'a PrivateScheduler),
}

/// What one doubling search did.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchFacts {
    /// The congestion guess of the last attempt, scaled back to engine
    /// rounds — comparable to the true congestion the search does not
    /// know. On the fallback path this is the guess that *failed* and
    /// tripped the give-up cap, not a successful budget; check
    /// [`SearchFacts::fell_back`] before reading it as one.
    pub final_guess: u64,
    /// Number of attempts (including the successful one).
    pub attempts: u32,
    /// Attempts rejected by the plan-level load prediction, without an
    /// engine run. Every failed attempt is rejected this way, so this is
    /// `attempts − 1` unless the search fell back to the baseline.
    pub rejected_by_precheck: u32,
    /// Rounds burnt across all failed attempts (also charged into the
    /// plan's, hence the outcome's, `precompute_rounds`).
    pub wasted_rounds: u64,
    /// The full span (in big-rounds) of the delay law each attempt
    /// actually drew from: the uniform law's prime range, or the private
    /// law's total span (all decaying blocks). Strictly increasing — the
    /// doubling regression guard.
    pub attempted_ranges: Vec<u64>,
    /// Whether the search gave up and executed the always-correct
    /// interleave baseline instead. Mirrored by the `doubling.fallback`
    /// obs counter, but available to unobserved runs and bench records
    /// too.
    pub fell_back: bool,
    /// How much planning work the artifact cache saved.
    pub cache: PlanCacheStats,
}

/// Planning-work accounting for one doubling search: how often the
/// guess-independent artifact was built vs re-sized. Both are
/// deterministic; the wall time each side took is reported only through
/// the opt-in `wall.artifact_build_us` / `wall.plan_size_us` counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Guess-independent artifact builds: 1 per search.
    pub artifact_builds: u64,
    /// Attempts after the first, each planned by re-sizing the artifact
    /// the first attempt's sizing already used: `attempts − 1`.
    pub replan_cache_hits: u64,
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
    prediction: &'a LoadPrediction,
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
fn record_attempt(r: &mut ObsReport, obs: &ObsConfig, rec: AttemptRecord<'_>) {
    if !obs.enabled() {
        return;
    }
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

impl<'a> Search<'a> {
    fn scheduler(self) -> &'a dyn Scheduler {
        match self {
            Search::Uniform(s) => s,
            Search::Private(s) => s,
        }
    }

    /// Maps an attempt's requested span (and the plan sized for it) to
    /// `(reported, budgeted)`: the full span of the delay law the attempt
    /// drew from, and the part of it a congestion budget controls.
    fn spans(self, problem: &DasProblem<'_>, requested: u64, plan: &SchedulePlan) -> (u64, u64) {
        match self {
            // The delay range (in big-rounds) is what a congestion budget
            // controls — range · ln n engine rounds of spread for a budget
            // of that many messages. The law draws from the *prime* span,
            // which next_prime rounds up from the requested range — the
            // reported guess and the give-up check must use the span
            // actually in force, or both under-report the real delay
            // budget.
            Search::Uniform(_) => {
                let span = das_prg::primes::next_prime(requested);
                (span, span)
            }
            // Report the full span of the sized law (all decaying blocks)
            // — the same delay_span convention as the uniform search's
            // prime range. The congestion guess itself stays on the first
            // block: only first-scheduled copies pay bandwidth (Lemma 4.4),
            // so the first block is what a congestion budget controls.
            Search::Private(s) => {
                let num_layers = (plan.unit_count() / problem.k()).max(1);
                (s.doubling_delay_span(requested, num_layers), requested)
            }
        }
    }

    /// Runs the search: builds the scheduler's guess-independent artifact
    /// once (seeded with `seed`), then sizes it for a requested span of
    /// [`INITIAL_RANGE`], doubling until the sized plan has no (predicted,
    /// hence actual) late messages — or, once the implied congestion guess
    /// exceeds `cap` (default `k · dilation · max-degree`, a trivial
    /// congestion upper bound), takes the always-correct interleave
    /// baseline's plan instead. Returns that plan, carrying the whole
    /// charge (the pre-computation once, plus every failed attempt); its
    /// step table, built once for the prediction and the execution; the
    /// accepted attempt's prediction (`None` on the fallback); and what
    /// the search did.
    ///
    /// Attempts are recorded into `report` at the level `obs` asks for,
    /// and published into `live` when a hub is attached.
    pub(crate) fn run(
        self,
        problem: &DasProblem<'_>,
        seed: u64,
        cap: Option<u64>,
        obs: &ObsConfig,
        live: Option<&LiveHub>,
        report: &mut ObsReport,
    ) -> Result<(SchedulePlan, FlatSteps, Option<LoadPrediction>, SearchFacts), SchedError> {
        let base = self.scheduler();
        let k = problem.k() as u64;
        let dilation = problem.dilation() as u64;
        let cap = cap
            .unwrap_or_else(|| (k * dilation * problem.graph().max_degree().max(1) as u64).max(1));
        let ln_n = (problem.graph().node_count().max(2) as f64).ln();
        let t = Instant::now();
        let artifact = base.build_artifact(problem, seed)?;
        let build_nanos = t.elapsed().as_nanos() as u64;
        let mut size_nanos = 0u64;
        // pre-computation is independent of the congestion guess: charge it
        // once across attempts (and on the fallback)
        let pre = artifact.precompute_rounds();
        let mut facts = SearchFacts {
            cache: PlanCacheStats {
                artifact_builds: 1,
                replan_cache_hits: 0,
            },
            ..SearchFacts::default()
        };
        let mut requested = INITIAL_RANGE;
        let mut detection = None;
        let (mut plan, steps, prediction) = loop {
            facts.attempts += 1;
            let t = Instant::now();
            let plan = base.size_plan(problem, &artifact, Some(requested))?;
            size_nanos += t.elapsed().as_nanos() as u64;
            let (span, budgeted) = self.spans(problem, requested, &plan);
            facts.attempted_ranges.push(span);
            let guess = implied_congestion(budgeted, ln_n);
            facts.final_guess = guess;
            let steps = FlatSteps::build(problem, &plan)?;
            let prediction = analysis::predict_steps(problem, &steps)?;
            record_attempt(
                report,
                obs,
                AttemptRecord {
                    attempt: facts.attempts,
                    delay_span: span,
                    guess,
                    prediction: &prediction,
                    wasted_before: facts.wasted_rounds,
                    planning_rounds: pre,
                },
            );
            if let Some(hub) = live {
                hub.publish_doubling_attempt(
                    guess,
                    prediction.predicted_engine_rounds,
                    prediction.feasible(),
                );
            }
            if prediction.feasible() {
                break (plan, steps, Some(prediction));
            }
            // rejected on the plan alone; charge what the failed attempt
            // would have cost
            facts.rejected_by_precheck += 1;
            facts.wasted_rounds += prediction.predicted_engine_rounds
                + *detection.get_or_insert_with(|| detection_cost(problem));
            if guess > cap {
                if let Some(hub) = live {
                    hub.publish_doubling_fallback();
                }
                facts.fell_back = true;
                let fallback = InterleaveScheduler;
                let plan = fallback.plan(problem, fallback.default_sched_seed())?;
                let steps = FlatSteps::build(problem, &plan)?;
                break (plan, steps, None);
            }
            requested *= 2;
        };
        facts.cache.replan_cache_hits = u64::from(facts.attempts) - 1;
        plan.precompute_rounds = pre + facts.wasted_rounds;
        if obs.enabled() {
            let m = &mut report.metrics;
            m.inc("doubling.wasted_rounds", facts.wasted_rounds);
            m.inc("doubling.artifact_builds", facts.cache.artifact_builds);
            m.inc("doubling.replan_cache_hits", facts.cache.replan_cache_hits);
            if facts.fell_back {
                m.inc("doubling.fallback", 1);
            }
            if obs.wall_clock {
                // Wall clocks stay quarantined behind the explicit opt-in,
                // like the pipeline's other wall.* counters.
                m.inc("wall.artifact_build_us", build_nanos / 1_000);
                m.inc("wall.plan_size_us", size_nanos / 1_000);
            }
        }
        Ok((plan, steps, prediction, facts))
    }
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
    use crate::pipeline::{self, PlanFrom, Ran};
    use crate::synthetic::RelayChain;
    use crate::ExecOptions;
    use das_graph::generators;
    use das_obs::Stages;

    /// A path instance congested enough to force several doubling
    /// attempts (16 relays stacked on 11 edges).
    fn congested_problem(g: &das_graph::Graph) -> DasProblem<'_> {
        relays(g, 16, 3)
    }

    fn relays(g: &das_graph::Graph, k: u64, tape_seed: u64) -> DasProblem<'_> {
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..k)
            .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, tape_seed)
    }

    /// One doubling run through the pipeline, with the scheduler's own
    /// seed, fused.
    fn run(p: &DasProblem<'_>, search: Search<'_>, cap: Option<u64>, obs: ObsConfig) -> Ran {
        let seed = search.scheduler().default_sched_seed();
        let from = PlanFrom::Doubling { search, seed, cap };
        let opts = ExecOptions::default().with_obs(obs);
        pipeline::run(p, from, opts, &mut Stages::default()).unwrap()
    }

    /// The uniform search with default schedulers and knobs, unobserved.
    fn uniform(p: &DasProblem<'_>) -> Ran {
        let sched = UniformScheduler::default();
        run(p, Search::Uniform(&sched), None, ObsConfig::off())
    }

    /// The private search with default schedulers and knobs, unobserved.
    fn private(p: &DasProblem<'_>) -> Ran {
        let sched = PrivateScheduler::default();
        run(p, Search::Private(&sched), None, ObsConfig::off())
    }

    fn facts(ran: &Ran) -> &SearchFacts {
        ran.search
            .as_ref()
            .expect("a doubling run reports its search")
    }

    #[test]
    fn doubling_finds_a_working_guess() {
        let g = generators::path(10);
        let p = relays(&g, 8, 3);
        let ran = uniform(&p);
        let result = facts(&ran);
        assert!(ran.verify.all_correct());
        assert!(result.attempts >= 1);
        assert!(!result.fell_back, "a working guess exists");
        // wasted rounds are charged
        let outcome = &ran.executed.outcome;
        assert_eq!(
            outcome.total_rounds(),
            outcome.schedule_rounds() + result.wasted_rounds
        );
    }

    #[test]
    fn precheck_rejects_every_failed_guess_without_an_engine_run() {
        let g = generators::path(10);
        let p = relays(&g, 8, 3);
        let ran = uniform(&p);
        let result = facts(&ran);
        // the successful attempt is the only one that executed: everything
        // before it was rejected on the plan alone, and the final outcome
        // is clean (the pre-check accepted it, exactly)
        assert_eq!(result.rejected_by_precheck, result.attempts - 1);
        assert_eq!(ran.executed.outcome.stats.late_messages, 0);
        // failed attempts still charge rounds
        if result.attempts > 1 {
            assert!(result.wasted_rounds > 0);
        }
    }

    #[test]
    fn private_doubling_finds_a_working_guess() {
        let g = generators::path(10);
        let p = relays(&g, 6, 8);
        let ran = private(&p);
        let result = facts(&ran);
        assert!(ran.verify.all_correct());
        assert!(ran.executed.outcome.precompute_rounds > 0);
        assert_eq!(result.rejected_by_precheck, result.attempts - 1);
        assert!(!result.fell_back);
    }

    #[test]
    fn doubling_cost_dominated_by_final_attempt() {
        let g = generators::path(12);
        let p = relays(&g, 10, 3);
        let ran = uniform(&p);
        let result = facts(&ran);
        // geometric series: wasted <= O(final attempt + attempts * detection)
        let final_len = ran.executed.outcome.schedule_rounds();
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
        analysis::PREDICTIONS.with(|n| n.set(0));
        let sched = UniformScheduler::default();
        let ran = run(&p, Search::Uniform(&sched), None, ObsConfig::full());
        let observed = facts(&ran);
        assert_eq!(
            analysis::PREDICTIONS.with(|n| n.get()),
            u64::from(observed.attempts),
            "a traced search predicts each attempt once, and the pipeline never again"
        );
        assert_eq!(
            format!("{:?}", plain.executed.outcome),
            format!("{:?}", ran.executed.outcome),
            "recording must not perturb the doubling search"
        );
        assert_eq!(facts(&plain), observed);
        let r = &ran.report;
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
        // the cache counters mirror SearchFacts.cache
        assert_eq!(
            r.metrics.counter("doubling.artifact_builds"),
            observed.cache.artifact_builds
        );
        assert_eq!(
            r.metrics.counter("doubling.replan_cache_hits"),
            observed.cache.replan_cache_hits
        );
        // predict.* is the accepted attempt's prediction
        assert!(r.metrics.counters.contains_key("predict.max_arc_load"));
        assert_eq!(r.metrics.counter("predict.late"), 0);
        // wall clocks stay out of the deterministic report by default
        assert!(r.metrics.counters.keys().all(|k| !k.starts_with("wall.")));
        // one Plan-track span per attempt — they replace the pipeline's own
        // plan span — plus the engine's execute events
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
        let ran = uniform(&p);
        let result = facts(&ran);
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
        assert!(ran.verify.all_correct());

        let ran = private(&p);
        let prv = facts(&ran);
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
        let ran = uniform(&p);
        let result = facts(&ran);
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
        let (uniform, private) = (UniformScheduler::default(), PrivateScheduler::default());
        let ran = run(&p, Search::Uniform(&uniform), Some(1), ObsConfig::off());
        let result = facts(&ran);
        assert!(result.fell_back, "a cap of 1 must force the fallback");
        assert_eq!(
            result.rejected_by_precheck, result.attempts,
            "every attempt failed on the fallback path"
        );
        assert!(
            result.final_guess > 1,
            "final_guess records the guess that tripped the cap"
        );
        assert!(ran.verify.all_correct(), "the interleave fallback is exact");

        let ran = run(&p, Search::Private(&private), Some(1), ObsConfig::off());
        assert!(facts(&ran).fell_back);
        assert!(ran.verify.all_correct());
    }

    #[test]
    fn artifact_cache_hits_every_attempt_after_the_first() {
        let g = generators::path(12);
        let p = congested_problem(&g);
        let ran = uniform(&p);
        let uni = facts(&ran);
        assert!(uni.attempts > 1);
        assert_eq!(uni.cache.artifact_builds, 1, "artifact built exactly once");
        assert_eq!(
            uni.cache.replan_cache_hits,
            u64::from(uni.attempts) - 1,
            "every later attempt re-sizes the cached artifact"
        );
        let ran = private(&p);
        let prv = facts(&ran);
        assert_eq!(prv.cache.artifact_builds, 1);
        assert_eq!(prv.cache.replan_cache_hits, u64::from(prv.attempts) - 1);
    }
}
