//! The DAS problem instance: a network plus the algorithms to co-schedule.

use crate::algorithm::BlackBoxAlgorithm;
use crate::reference::{run_alone, ReferenceError, ReferenceRun};
use das_graph::Graph;
use das_pattern::{das_parameters, DasParameters};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A Distributed Algorithm Scheduling instance: the network, the `k`
/// black-box algorithms, and the **tape seed** fixing all their random
/// tapes.
///
/// The seed domain is split in two:
///
/// * the `tape_seed` held here fixes the algorithms' random tapes — and
///   therefore the reference (alone) runs, the measured congestion and
///   dilation, and the ground-truth outputs;
/// * the scheduler's own randomness is a separate per-run `sched_seed`,
///   passed to [`crate::Scheduler::plan`].
///
/// Because the reference runs depend only on the tape seed, a trial sweep
/// that varies only the scheduler seed (the common experiment shape) can
/// share one `DasProblem` and pay for the `k` alone runs exactly once;
/// [`DasProblem::reference_runs_computed`] counts them so tests can pin
/// that property.
///
/// Reference runs are computed lazily and cached: they provide the
/// ground-truth outputs as well as the measured `congestion` and
/// `dilation` the schedulers are parameterized by (the paper assumes nodes
/// know constant-factor approximations of both; see [`crate::doubling`]
/// for removing that assumption).
pub struct DasProblem<'g> {
    graph: &'g Graph,
    algorithms: Vec<Box<dyn BlackBoxAlgorithm>>,
    tape_seed: u64,
    references: OnceLock<Result<Vec<ReferenceRun>, ReferenceError>>,
    reference_runs: AtomicU64,
}

impl<'g> DasProblem<'g> {
    /// Creates a problem instance with the given tape seed.
    ///
    /// # Panics
    /// Panics if `algorithms` is empty.
    pub fn new(
        graph: &'g Graph,
        algorithms: Vec<Box<dyn BlackBoxAlgorithm>>,
        tape_seed: u64,
    ) -> Self {
        assert!(!algorithms.is_empty(), "need at least one algorithm");
        DasProblem {
            graph,
            algorithms,
            tape_seed,
            references: OnceLock::new(),
            reference_runs: AtomicU64::new(0),
        }
    }

    /// The network.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The algorithms.
    pub fn algorithms(&self) -> &[Box<dyn BlackBoxAlgorithm>] {
        &self.algorithms
    }

    /// Number of algorithms `k`.
    pub fn k(&self) -> usize {
        self.algorithms.len()
    }

    /// The seed fixing all algorithm random tapes (and nothing else —
    /// scheduler randomness is a separate `sched_seed`).
    pub fn tape_seed(&self) -> u64 {
        self.tape_seed
    }

    /// The random-tape seed of algorithm `i` (mixes the tape seed with the
    /// algorithm's AID, so tapes are independent across algorithms).
    pub fn algo_seed(&self, i: usize) -> u64 {
        das_congest::util::seed_mix(self.tape_seed, self.algorithms[i].aid().0)
    }

    /// Every algorithm's [`DasProblem::algo_seed`], in problem order.
    pub fn algo_seeds(&self) -> Vec<u64> {
        (0..self.k()).map(|i| self.algo_seed(i)).collect()
    }

    /// The declared dilation: `max_i rounds(A_i)`.
    pub fn dilation(&self) -> u32 {
        self.algorithms
            .iter()
            .map(|a| a.rounds())
            .max()
            .expect("non-empty")
    }

    /// How many reference (alone) runs this instance has computed so far —
    /// `k` after the first access to [`DasProblem::references`], and still
    /// `k` after any number of further plans/executions/verifications.
    pub fn reference_runs_computed(&self) -> u64 {
        self.reference_runs.load(Ordering::Relaxed)
    }

    /// The cached reference (alone) runs of all algorithms.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`] if some algorithm violates the
    /// CONGEST model.
    pub fn references(&self) -> Result<&[ReferenceRun], ReferenceError> {
        let computed = self.references.get_or_init(|| {
            (0..self.k())
                .map(|i| {
                    self.reference_runs.fetch_add(1, Ordering::Relaxed);
                    run_alone(self.graph, self.algorithms[i].as_ref(), self.algo_seed(i))
                })
                .collect()
        });
        match computed {
            Ok(refs) => Ok(refs),
            Err(e) => Err(e.clone()),
        }
    }

    /// The measured `congestion` and `dilation` of the instance.
    ///
    /// # Errors
    /// Propagates a [`ReferenceError`] from the reference runs.
    pub fn parameters(&self) -> Result<DasParameters, ReferenceError> {
        let refs = self.references()?;
        Ok(das_parameters(refs.iter().map(|r| &r.pattern)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::RelayChain;
    use das_graph::generators;

    fn relay_problem(g: &Graph, k: usize) -> DasProblem<'_> {
        let algos = (0..k)
            .map(|i| Box::new(RelayChain::new(i as u64, g)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, 11)
    }

    #[test]
    fn parameters_of_stacked_relays() {
        let g = generators::path(10);
        let p = relay_problem(&g, 6);
        assert_eq!(p.k(), 6);
        assert_eq!(p.dilation(), 9);
        let params = p.parameters().unwrap();
        assert_eq!(params.dilation, 9);
        assert_eq!(params.congestion, 6, "each relay loads each edge once");
        assert_eq!(params.sum(), 15);
    }

    #[test]
    fn references_cached_and_seeded() {
        let g = generators::path(5);
        let p = relay_problem(&g, 2);
        assert_eq!(p.reference_runs_computed(), 0, "references are lazy");
        let a = p.references().unwrap()[0].outputs.clone();
        let b = p.references().unwrap()[0].outputs.clone();
        assert_eq!(a, b);
        assert_ne!(p.algo_seed(0), p.algo_seed(1));
        assert_eq!(p.tape_seed(), 11);
        assert_eq!(
            p.reference_runs_computed(),
            2,
            "one alone run per algorithm"
        );
    }

    #[test]
    #[should_panic]
    fn empty_problem_panics() {
        let g = generators::path(3);
        DasProblem::new(&g, vec![], 0);
    }
}
