//! Verification of schedules against the alone-run ground truth.
//!
//! The DAS requirement (§2) is that *"for each algorithm, each node outputs
//! the same value as if that algorithm was run alone"*. This module checks
//! exactly that, node by node.

use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedule::ScheduleOutcome;

/// Per-algorithm verification result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// `mismatches[a]` = nodes whose output for algorithm `a` differs from
    /// the alone run.
    pub mismatches: Vec<usize>,
    /// Number of nodes.
    pub nodes: usize,
}

impl VerifyReport {
    /// Whether every node's output matches for every algorithm.
    pub fn all_correct(&self) -> bool {
        self.mismatches.iter().all(|&m| m == 0)
    }

    /// Total mismatching (algorithm, node) pairs.
    pub fn total_mismatches(&self) -> usize {
        self.mismatches.iter().sum()
    }

    /// Fraction of correct (algorithm, node) pairs.
    pub fn correctness_rate(&self) -> f64 {
        let total = self.mismatches.len() * self.nodes;
        if total == 0 {
            return 1.0;
        }
        1.0 - self.total_mismatches() as f64 / total as f64
    }
}

/// Compares a schedule's outputs with the problem's reference runs.
///
/// # Errors
/// Propagates a [`ReferenceError`] from computing the references.
pub fn against_references(
    problem: &DasProblem<'_>,
    outcome: &ScheduleOutcome,
) -> Result<VerifyReport, ReferenceError> {
    let refs = problem.references()?;
    assert_eq!(
        outcome.outputs.len(),
        refs.len(),
        "outcome covers a different number of algorithms"
    );
    let nodes = problem.graph().node_count();
    let mismatches = refs
        .iter()
        .zip(outcome.outputs.iter())
        .map(|(r, got)| {
            r.outputs
                .iter()
                .zip(got)
                .filter(|(want, have)| want.as_deref() != *have)
                .count()
        })
        .collect();
    Ok(VerifyReport { mismatches, nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Unit;
    use crate::plan::{execute, ExecOptions, SchedulePlan};
    use crate::synthetic::RelayChain;
    use das_graph::generators;

    #[test]
    fn clean_schedule_verifies() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            9,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 2, 6)];
        let plan = SchedulePlan::assemble("hand-built", 0, 1, 0, &p, units);
        let outcome = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
        let report = against_references(&p, &outcome).unwrap();
        assert!(report.all_correct());
        assert_eq!(report.correctness_rate(), 1.0);
    }

    #[test]
    fn colliding_schedule_fails_verification() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            9,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let plan = SchedulePlan::assemble("hand-built", 0, 1, 0, &p, units);
        let outcome = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
        let report = against_references(&p, &outcome).unwrap();
        assert!(!report.all_correct());
        assert!(report.total_mismatches() > 0);
        assert!(report.correctness_rate() < 1.0);
    }
}
