//! Baseline schedulers: sequential composition and time-division
//! multiplexing. Both are deterministic, interference-free, and slow —
//! the yardsticks the paper's schedulers are measured against.

use crate::exec::Unit;
use crate::plan::cache::SweepArtifact;
use crate::plan::SchedulePlan;
use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedulers::Scheduler;

/// Runs the algorithms one after another: algorithm `i` starts when
/// `i − 1` has finished. Length `Σ_i rounds(A_i)` — up to `k · dilation`.
#[derive(Clone, Debug, Default)]
pub struct SequentialScheduler;

impl Scheduler for SequentialScheduler {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn build_sweep_artifact(
        &self,
        problem: &DasProblem<'_>,
    ) -> Result<SweepArtifact, ReferenceError> {
        let n = problem.graph().node_count();
        let mut units = Vec::with_capacity(problem.k());
        let mut start = 0u64;
        for (i, algo) in problem.algorithms().iter().enumerate() {
            units.push(Unit::global(i, start, n));
            start += algo.rounds() as u64;
        }
        // The plan ignores `sched_seed` except as provenance: cache it
        // finished and let seeding rewrite the tag.
        Ok(SweepArtifact::seed_tagged(
            self.name(),
            SchedulePlan::assemble(self.name(), 0, 1, 0, problem, units),
        ))
    }
}

/// Time-division multiplexing: round-robin over the `k` algorithms, one
/// engine round each — algorithm `i` runs its round `r` in engine round
/// `r·k + i`. Length exactly `k · dilation`, never any interference.
#[derive(Clone, Debug, Default)]
pub struct InterleaveScheduler;

impl Scheduler for InterleaveScheduler {
    fn name(&self) -> &'static str {
        "interleave"
    }

    fn build_sweep_artifact(
        &self,
        problem: &DasProblem<'_>,
    ) -> Result<SweepArtifact, ReferenceError> {
        let n = problem.graph().node_count();
        let k = problem.k() as u64;
        let units = (0..problem.k())
            .map(|i| Unit {
                algo: i,
                delay: vec![i as u64; n],
                stride: k,
                trunc: vec![u32::MAX; n],
            })
            .collect::<Vec<_>>();
        Ok(SweepArtifact::seed_tagged(
            self.name(),
            SchedulePlan::assemble(self.name(), 0, 1, 0, problem, units),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{FloodBall, RelayChain};
    use crate::verify;
    use das_graph::{generators, NodeId};

    fn mixed_problem(g: &das_graph::Graph) -> DasProblem<'_> {
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = vec![
            Box::new(RelayChain::new(0, g)),
            Box::new(RelayChain::new(1, g)),
            Box::new(FloodBall::new(2, g, NodeId(0), 4)),
        ];
        DasProblem::new(g, algos, 17)
    }

    #[test]
    fn sequential_is_correct_and_sums_rounds() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        let outcome = SequentialScheduler.run(&p).unwrap();
        assert!(verify::against_references(&p, &outcome)
            .unwrap()
            .all_correct());
        assert_eq!(outcome.stats.late_messages, 0);
        // 7 + 7 + 5 rounds
        assert_eq!(outcome.schedule_rounds(), 19);
    }

    #[test]
    fn sequential_plan_predicts_its_length() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        let plan = SequentialScheduler.plan(&p, 0).unwrap();
        assert_eq!(plan.phase_len, 1);
        assert_eq!(plan.precompute_rounds, 0);
        assert_eq!(plan.predicted_rounds, 19);
        assert_eq!(plan.unit_count(), 3);
    }

    #[test]
    fn interleave_is_correct_with_k_dilation_length() {
        let g = generators::path(8);
        let p = mixed_problem(&g);
        let outcome = InterleaveScheduler.run(&p).unwrap();
        assert!(verify::against_references(&p, &outcome)
            .unwrap()
            .all_correct());
        assert_eq!(outcome.stats.late_messages, 0);
        // k = 3, dilation = 7: last step at big-round <= 2 + 6*3 = 20
        assert!(outcome.schedule_rounds() <= 3 * 7);
    }

    #[test]
    fn sequential_simulations_are_causal() {
        let g = generators::path(6);
        let p = mixed_problem(&g);
        let outcome = SequentialScheduler.run(&p).unwrap();
        let refs = p.references().unwrap();
        for (i, map) in outcome.departures.as_ref().unwrap().iter().enumerate() {
            das_pattern::verify_simulation(&g, &refs[i].pattern, map).unwrap();
        }
    }
}
