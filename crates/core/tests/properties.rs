//! Property-based tests of the scheduling core: for *arbitrary* random
//! workloads, clean schedules (no late messages) are exactly correct and
//! causally valid.

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    verify, BlackBoxAlgorithm, DasProblem, InterleaveScheduler, Scheduler, SequentialScheduler,
    UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random mixed workload on a random connected graph.
fn random_problem(
    n: usize,
    k: usize,
    graph_seed: u64,
    workload_seed: u64,
) -> (Graph, Vec<(u32, NodeId, NodeId)>) {
    let g = generators::gnp_connected(n, 2.5 / n as f64, graph_seed);
    // random prescribed pattern material: (round, from, to) over real edges
    let mut rng = StdRng::seed_from_u64(workload_seed);
    let mut triples = Vec::new();
    let m = g.edge_count() as u32;
    for _ in 0..(3 * k) {
        let e = das_graph::EdgeId(rng.gen_range(0..m));
        let (a, b) = g.endpoints(e);
        let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
        triples.push((rng.gen_range(0..6u32), from, to));
    }
    (g, triples)
}

fn build_algos(
    g: &Graph,
    triples: &[(u32, NodeId, NodeId)],
    k: usize,
    seed: u64,
) -> Vec<Box<dyn BlackBoxAlgorithm>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    (0..k as u64)
        .map(|i| match i % 3 {
            0 => {
                let chunk = triples.len() / k.max(1) + 1;
                let lo = (i as usize * chunk).min(triples.len().saturating_sub(1));
                let hi = ((i as usize + 1) * chunk).min(triples.len());
                Box::new(Prescribed::new(i, g, &triples[lo..hi.max(lo + 1)]))
                    as Box<dyn BlackBoxAlgorithm>
            }
            1 => Box::new(FloodBall::new(i, g, NodeId(rng.gen_range(0..n)), 4)),
            _ => {
                // a short random walk route made of adjacent hops
                let mut route = vec![NodeId(rng.gen_range(0..n))];
                for _ in 0..5 {
                    let cur = *route.last().expect("non-empty");
                    let nbrs = g.neighbors(cur);
                    let (next, _) = nbrs[rng.gen_range(0..nbrs.len())];
                    route.push(next);
                }
                Box::new(RelayChain::along(i, g, route))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Baselines are always exactly correct, on any workload.
    #[test]
    fn baselines_always_correct(gs in 0u64..500, ws in 0u64..500, k in 1usize..7) {
        let (g, triples) = random_problem(16, k, gs, ws);
        let p = DasProblem::new(&g, build_algos(&g, &triples, k, ws), ws);
        let bound = p.parameters().unwrap().trivial_lower_bound();
        for s in [
            Box::new(SequentialScheduler) as Box<dyn Scheduler>,
            Box::new(InterleaveScheduler),
        ] {
            let outcome = s.run(&p).unwrap();
            prop_assert_eq!(outcome.stats.late_messages, 0);
            prop_assert!(outcome.schedule_rounds() >= bound, "{} beat the lower bound", s.name());
            let report = verify::against_references(&p, &outcome).unwrap();
            prop_assert!(report.all_correct(), "{} failed", s.name());
        }
    }

    /// The master invariant: if no message was late, outputs are exactly
    /// the alone-run outputs and the departure times form a causally valid
    /// simulation — for any workload and any shared seed.
    #[test]
    fn clean_schedules_are_correct_and_causal(
        gs in 0u64..300, ws in 0u64..300, seed in 0u64..50, k in 1usize..6
    ) {
        let (g, triples) = random_problem(14, k, gs, ws);
        let p = DasProblem::new(&g, build_algos(&g, &triples, k, ws), ws);
        let outcome = UniformScheduler::default().with_seed(seed).run(&p).unwrap();
        if outcome.stats.late_messages == 0 {
            let report = verify::against_references(&p, &outcome).unwrap();
            prop_assert!(report.all_correct(), "clean but wrong");
            let bound = p.parameters().unwrap().trivial_lower_bound();
            prop_assert!(outcome.schedule_rounds() >= bound, "clean but below the lower bound");
            let refs = p.references().unwrap();
            for (i, map) in outcome.departures.as_ref().unwrap().iter().enumerate() {
                prop_assert!(
                    das_pattern::verify_simulation(&g, &refs[i].pattern, map).is_ok(),
                    "clean but acausal (algorithm {i})"
                );
            }
        }
    }

    /// Measured parameters are consistent: congestion/dilation of the
    /// union equal max/sum of the parts.
    #[test]
    fn parameters_compose(gs in 0u64..300, ws in 0u64..300, k in 2usize..6) {
        let (g, triples) = random_problem(14, k, gs, ws);
        let p = DasProblem::new(&g, build_algos(&g, &triples, k, ws), ws);
        let refs = p.references().unwrap();
        let params = p.parameters().unwrap();
        let max_rounds = refs.iter().map(|r| r.pattern.rounds()).max().unwrap();
        prop_assert_eq!(params.dilation, max_rounds);
        let mut loads = vec![0u64; g.edge_count()];
        for r in refs {
            for (e, l) in r.pattern.edge_loads().into_iter().enumerate() {
                loads[e] += l;
            }
        }
        prop_assert_eq!(params.congestion, loads.into_iter().max().unwrap_or(0));
    }
}
