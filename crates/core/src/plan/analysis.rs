//! Content-free load analysis of a [`SchedulePlan`]: predicts per-arc
//! traffic and late messages *without* running the engine.
//!
//! The prediction replays the problem's cached reference
//! [`das_pattern::CommPattern`]s through the plan's step schedule,
//! mirroring the executor's queueing discipline exactly — same step
//! order, same per-arc FIFO at one message per engine round, same
//! late-drop rule — but moving only (algorithm, round, arc) tags instead
//! of payloads, and never stepping a machine.
//!
//! **Exactness.** As long as no message has been late, every canonical
//! machine is in exactly its alone-run state, so its sends match the
//! reference pattern message-for-message and the prediction tracks the
//! real execution precisely. The *first* late message is therefore
//! predicted exactly: `predicted_late == 0` if and only if the real
//! execution of the plan has `late_messages == 0`. Past the first late
//! message real machines diverge from their patterns, so nonzero
//! predictions are approximations of the doomed run — which is all
//! [`crate::doubling`] needs to reject an infeasible congestion guess
//! without paying for the engine.

use crate::exec::FlatSteps;
use crate::plan::{SchedError, SchedulePlan};
use crate::problem::DasProblem;

/// Predicted traffic of a plan, per arc and per big-round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadPrediction {
    /// Engine rounds per big-round, copied from the plan.
    pub phase_len: u64,
    /// Total messages predicted to be injected into each arc
    /// (`arc_load[arc.index()]`), i.e. the per-direction edge load.
    pub arc_load: Vec<u64>,
    /// Largest number of messages injected into a single arc within one
    /// big-round — the quantity the paper's phase-length choice bounds.
    pub peak_big_round_arc_load: u64,
    /// Total messages predicted to be injected during each big-round
    /// (`big_round_load[b]`), up to the last big-round with any step — the
    /// per-phase load curve `plan --diff` compares side by side.
    pub big_round_load: Vec<u64>,
    /// Messages predicted to arrive in time.
    pub predicted_delivered: u64,
    /// Messages predicted to arrive after their consumer stepped. Zero
    /// here is exact: the real run is clean iff this is zero.
    pub predicted_late: u64,
    /// Predicted schedule length in engine rounds, including any drain
    /// tail past the last step (exact for clean runs).
    pub predicted_engine_rounds: u64,
    /// Predicted maximum backlog on any arc queue.
    pub predicted_max_arc_queue: usize,
}

impl LoadPrediction {
    /// Whether the plan executes without any late message — exact, not a
    /// bound (see the module docs).
    pub fn feasible(&self) -> bool {
        self.predicted_late == 0
    }

    /// The largest total load over all arcs.
    pub fn max_arc_load(&self) -> u64 {
        self.arc_load.iter().copied().max().unwrap_or(0)
    }
}

/// A content-free message in flight: who consumes it, under which tag.
struct Tag {
    algo: u32,
    round: u32,
    dst: u32,
}

/// Predicts the traffic of `plan` on `problem` by replaying the reference
/// communication patterns through the plan's step schedule.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the plan fails
/// [`SchedulePlan::validate`] — checked first, by building its step table
/// — and [`SchedError::Reference`] if the reference runs fail.
pub fn predict(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
) -> Result<LoadPrediction, SchedError> {
    predict_steps(problem, &FlatSteps::build(problem, plan)?)
}

#[cfg(test)]
thread_local! {
    /// Predictions made on this thread, for tests that pin how often a run
    /// predicts.
    pub(crate) static PREDICTIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`predict`] on a plan whose step table is already built — for a caller
/// that executes the same table afterwards.
///
/// # Errors
/// [`SchedError::Reference`] if the reference runs fail.
pub(crate) fn predict_steps(
    problem: &DasProblem<'_>,
    steps: &FlatSteps,
) -> Result<LoadPrediction, SchedError> {
    let g = problem.graph();
    let n = g.node_count();
    let k = problem.k();
    let refs = problem.references()?;
    #[cfg(test)]
    PREDICTIONS.with(|n| n.set(n.get() + 1));
    let phase_len = steps.phase_len;

    // Reference sends grouped per (algorithm, source): (round, arc, dst),
    // sorted by round so each step can consume them with a cursor.
    let mut sends: Vec<Vec<Vec<(u32, u32, u32)>>> = vec![vec![Vec::new(); n]; k];
    for (a, r) in refs.iter().enumerate() {
        for ta in r.pattern.timed_arcs() {
            let (src, dst) = g.arc_endpoints(ta.arc);
            sends[a][src.index()].push((ta.round, ta.arc.index() as u32, dst.0));
        }
        for per_node in &mut sends[a] {
            per_node.sort_unstable();
        }
    }
    let mut cursor = vec![vec![0usize; n]; k];

    if steps.is_empty() {
        return Ok(LoadPrediction {
            phase_len,
            arc_load: vec![0; g.arc_count()],
            peak_big_round_arc_load: 0,
            big_round_load: Vec::new(),
            predicted_delivered: 0,
            predicted_late: 0,
            predicted_engine_rounds: 0,
            predicted_max_arc_queue: 0,
        });
    }
    let last_step_round = steps.last_step_round;

    let mut steps_done = vec![vec![0u32; n]; k];
    let mut queues: Vec<std::collections::VecDeque<Tag>> = Vec::with_capacity(g.arc_count());
    queues.resize_with(g.arc_count(), std::collections::VecDeque::new);
    let mut active_arcs: Vec<usize> = Vec::new();
    let mut arc_load = vec![0u64; g.arc_count()];
    let mut big_round_load = vec![0u64; last_step_round as usize + 1];
    let mut round_injections = vec![0u64; g.arc_count()];
    let mut peak_big_round_arc_load = 0u64;
    let mut predicted_delivered = 0u64;
    let mut predicted_late = 0u64;
    let mut predicted_max_arc_queue = 0usize;
    let mut engine_round = 0u64;
    let mut last_activity_round = 0u64;

    let mut b: u64 = 0;
    loop {
        // big-round `b`'s steps, in the executor's (a, v, r) order
        let mut touched: Vec<usize> = Vec::new();
        for (a, v, r) in steps.triples(b) {
            let (a, v) = (a as usize, v as usize);
            steps_done[a][v] = r + 1;
            let per_node = &sends[a][v];
            let c = &mut cursor[a][v];
            while *c < per_node.len() && per_node[*c].0 == r {
                let (_, arc, dst) = per_node[*c];
                *c += 1;
                let q = &mut queues[arc as usize];
                if q.is_empty() {
                    active_arcs.push(arc as usize);
                }
                q.push_back(Tag {
                    algo: a as u32,
                    round: r,
                    dst,
                });
                predicted_max_arc_queue = predicted_max_arc_queue.max(q.len());
                arc_load[arc as usize] += 1;
                big_round_load[b as usize] += 1;
                if round_injections[arc as usize] == 0 {
                    touched.push(arc as usize);
                }
                round_injections[arc as usize] += 1;
            }
        }
        for arc in touched {
            peak_big_round_arc_load = peak_big_round_arc_load.max(round_injections[arc]);
            round_injections[arc] = 0;
        }

        for _ in 0..phase_len {
            let arcs = std::mem::take(&mut active_arcs);
            for arc_idx in arcs {
                let Some(t) = queues[arc_idx].pop_front() else {
                    continue;
                };
                if !queues[arc_idx].is_empty() {
                    active_arcs.push(arc_idx);
                }
                if steps_done[t.algo as usize][t.dst as usize] >= t.round + 2 {
                    predicted_late += 1;
                } else {
                    predicted_delivered += 1;
                }
                last_activity_round = engine_round + 1;
            }
            engine_round += 1;
        }

        b += 1;
        if b > last_step_round && active_arcs.is_empty() {
            break;
        }
    }

    Ok(LoadPrediction {
        phase_len,
        arc_load,
        peak_big_round_arc_load,
        big_round_load,
        predicted_delivered,
        predicted_late,
        predicted_engine_rounds: steps.schedule_rounds(last_activity_round),
        predicted_max_arc_queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{execute, ExecOptions};
    use crate::schedulers::Scheduler;
    use crate::synthetic::RelayChain;
    use crate::{BlackBoxAlgorithm, DasProblem};
    use crate::{
        InterleaveScheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler,
    };
    use das_graph::{generators, Graph};

    fn stacked_relays(g: &Graph, k: usize, tape_seed: u64) -> DasProblem<'_> {
        let algos = (0..k)
            .map(|i| Box::new(RelayChain::new(i as u64, g)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, tape_seed)
    }

    /// Measured per-arc load from the executor's departure records.
    fn measured_arc_load(g: &Graph, outcome: &crate::ScheduleOutcome) -> Vec<u64> {
        let mut load = vec![0u64; g.arc_count()];
        for map in outcome.departures.as_ref().unwrap() {
            for ta in map.keys() {
                load[ta.arc.index()] += 1;
            }
        }
        load
    }

    #[test]
    fn predicted_loads_match_execution_on_stacked_relays() {
        let g = generators::path(10);
        let p = stacked_relays(&g, 5, 23);
        for sched in [
            Box::new(SequentialScheduler) as Box<dyn Scheduler>,
            Box::new(InterleaveScheduler),
            Box::new(UniformScheduler::default()),
            Box::new(TunedUniformScheduler::default()),
        ] {
            let plan = sched.plan(&p, sched.default_sched_seed()).unwrap();
            let pred = predict(&p, &plan).unwrap();
            let outcome = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
            assert_eq!(
                pred.arc_load,
                measured_arc_load(&g, &outcome),
                "{}",
                sched.name()
            );
            assert_eq!(
                pred.predicted_late,
                outcome.stats.late_messages,
                "{}",
                sched.name()
            );
            assert_eq!(
                pred.predicted_delivered,
                outcome.stats.delivered,
                "{}",
                sched.name()
            );
            // every injected message shows up in exactly one big-round
            assert_eq!(
                pred.big_round_load.iter().sum::<u64>(),
                pred.arc_load.iter().sum::<u64>(),
                "{}",
                sched.name()
            );
            if pred.feasible() {
                assert_eq!(
                    pred.predicted_engine_rounds,
                    outcome.stats.engine_rounds,
                    "{}",
                    sched.name()
                );
                assert_eq!(
                    pred.predicted_max_arc_queue,
                    outcome.stats.max_arc_queue,
                    "{}",
                    sched.name()
                );
            }
        }
    }

    #[test]
    fn infeasible_plan_is_predicted_infeasible() {
        // two relays with zero delay on the same path must collide
        let g = generators::path(6);
        let p = stacked_relays(&g, 2, 3);
        let plan = crate::SchedulePlan::assemble(
            "collide",
            0,
            1,
            0,
            &p,
            vec![crate::Unit::global(0, 0, 6), crate::Unit::global(1, 0, 6)],
        );
        let pred = predict(&p, &plan).unwrap();
        let outcome = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
        assert!(outcome.stats.late_messages > 0);
        assert!(!pred.feasible());
    }

    #[test]
    fn feasibility_prediction_is_exact_over_random_graphs_and_plans() {
        // property test: over random gnp graphs and varied flood plans,
        // predicted feasibility always equals executed feasibility — the
        // doubling pre-check never rejects a guess that would have
        // succeeded (and never accepts one that would fail)
        use crate::synthetic::FloodBall;
        use das_graph::NodeId;
        let mut saw_feasible = false;
        let mut saw_infeasible = false;
        for case in 0u64..24 {
            let g = generators::gnp_connected(8 + (case % 3) as usize * 2, 0.35, 1000 + case);
            let n = g.node_count();
            let k = 2 + (case % 3) as usize;
            let same_source = case % 2 == 0;
            let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..k)
                .map(|a| {
                    let src = if same_source {
                        NodeId((case % n as u64) as u32)
                    } else {
                        NodeId(
                            (das_congest::util::seed_mix(case, 1000 + a as u64) % n as u64) as u32,
                        )
                    };
                    Box::new(FloodBall::new(a as u64, &g, src, 2)) as Box<dyn BlackBoxAlgorithm>
                })
                .collect();
            let p = DasProblem::new(&g, algos, 7 + case);
            // structured cases (same source): delay gap 0 always collides
            // on the source's arcs, gap >= 1 never does — so both sides of
            // the property are guaranteed to be exercised. Random-source
            // cases add unstructured overlap.
            let mut units = Vec::new();
            for a in 0..k {
                let delay = if same_source {
                    a as u64 * (case % 3)
                } else {
                    das_congest::util::seed_mix(case, a as u64) % 4
                };
                units.push(crate::Unit::global(a, delay, n));
            }
            let plan = crate::SchedulePlan::assemble("prop", case, 1, 0, &p, units);
            let pred = predict(&p, &plan).unwrap();
            let outcome = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
            assert_eq!(
                pred.feasible(),
                outcome.stats.late_messages == 0,
                "case {case}: prediction must agree with execution"
            );
            saw_feasible |= pred.feasible();
            saw_infeasible |= !pred.feasible();
        }
        assert!(saw_feasible, "property test must exercise feasible plans");
        assert!(
            saw_infeasible,
            "property test must exercise infeasible plans"
        );
    }

    #[test]
    fn empty_plan_predicts_nothing() {
        let g = generators::path(4);
        let p = stacked_relays(&g, 1, 1);
        let plan = crate::SchedulePlan::assemble(
            "empty",
            0,
            1,
            0,
            &p,
            vec![crate::Unit {
                algo: 0,
                delay: vec![0; 4],
                stride: 1,
                trunc: vec![0; 4],
            }],
        );
        let pred = predict(&p, &plan).unwrap();
        assert_eq!(pred.predicted_engine_rounds, 0);
        assert_eq!(pred.max_arc_load(), 0);
    }
}
