//! Property-based equivalence: the sharded big-round-synchronous executor
//! must produce the *byte-identical* outcome of the sequential (fused)
//! `execute_plan`, for every plan, every scheduler, and every shard count —
//! and the production (batched) loop, the default everywhere, must agree
//! with the row test oracle.
//!
//! CI runs this file under `RAYON_NUM_THREADS=1` and `=8`; the sharded
//! executor uses one dedicated thread per shard, so the equality must hold
//! regardless of the ambient thread-pool width.

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    execute_plan, execute_plan_sharded, execute_plan_with, BlackBoxAlgorithm, DasProblem,
    EngineKind, ExecutorConfig, InterleaveScheduler, PrivateScheduler, Scheduler,
    SequentialScheduler, TunedUniformScheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shard counts the property sweeps, including degenerate (1) and
/// more-shards-than-useful (7 on small graphs).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A random mixed workload (prescribed / flood / relay) on `g`.
fn build_algos(g: &Graph, k: usize, seed: u64) -> Vec<Box<dyn BlackBoxAlgorithm>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    let m = g.edge_count() as u32;
    (0..k as u64)
        .map(|i| match i % 3 {
            0 => {
                let triples: Vec<(u32, NodeId, NodeId)> = (0..4)
                    .map(|_| {
                        let e = das_graph::EdgeId(rng.gen_range(0..m));
                        let (a, b) = g.endpoints(e);
                        let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                        (rng.gen_range(0..5u32), from, to)
                    })
                    .collect();
                Box::new(Prescribed::new(i, g, &triples)) as Box<dyn BlackBoxAlgorithm>
            }
            1 => Box::new(FloodBall::new(i, g, NodeId(rng.gen_range(0..n)), 3)),
            _ => {
                let mut route = vec![NodeId(rng.gen_range(0..n))];
                for _ in 0..4 {
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

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SequentialScheduler),
        Box::new(InterleaveScheduler),
        Box::new(UniformScheduler::default()),
        Box::new(TunedUniformScheduler::default()),
        Box::new(PrivateScheduler::default()),
    ]
}

/// Asserts the partition-dependent [`das_core::ShardReport`] is internally
/// consistent and agrees with the fused outcome's totals.
fn assert_shard_report_consistent(
    g: &Graph,
    fused: &das_core::ScheduleOutcome,
    report: &das_core::ShardReport,
    requested_shards: usize,
    sched: &str,
) {
    let ctx = format!("scheduler {sched}, {requested_shards} shards");
    assert_eq!(
        report.shards,
        requested_shards.min(g.node_count()),
        "{ctx}: shard count must be the request clamped to n"
    );
    assert_eq!(report.per_shard.len(), report.shards, "{ctx}");
    // every node and its degree is owned by exactly one shard
    let nodes: usize = report.per_shard.iter().map(|s| s.nodes).sum();
    assert_eq!(nodes, g.node_count(), "{ctx}: nodes must partition");
    let degree: usize = report.per_shard.iter().map(|s| s.degree).sum();
    assert_eq!(
        degree,
        2 * g.edge_count(),
        "{ctx}: owned degrees must sum to the handshake total"
    );
    // per-shard delivery sums to the (partition-independent) fused total
    let delivered: u64 = report.per_shard.iter().map(|s| s.delivered).sum();
    assert_eq!(
        delivered, fused.stats.delivered,
        "{ctx}: per-shard delivered must sum to the fused total"
    );
    // the headline cross-shard figure is exactly the per-shard sends
    let cross: u64 = report.per_shard.iter().map(|s| s.cross_sent).sum();
    assert_eq!(
        cross, report.cross_shard_messages,
        "{ctx}: cross_shard_messages must equal the per-shard sum"
    );
    if report.shards == 1 {
        assert_eq!(report.cross_shard_messages, 0, "{ctx}");
    }
    // cross-shard traffic never exceeds total traffic
    assert!(
        report.cross_shard_messages <= fused.stats.delivered + fused.stats.late_messages,
        "{ctx}: cross-shard sends cannot exceed all sends"
    );
    for (i, s) in report.per_shard.iter().enumerate() {
        assert_eq!(s.shard, i, "{ctx}: per_shard must be in shard order");
    }
}

/// Asserts row == batched == sharded bytes for every scheduler and shard
/// count on the given graph.
fn assert_equivalent(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    for sched in all_schedulers() {
        let plan = sched.plan(&p, seed).expect("model-valid workload");
        let fused = execute_plan(&p, &plan).expect("fused execution");
        let fused_bytes = format!("{fused:?}");
        // The row engine is the reference semantics: the production loop
        // (the default) must reproduce it byte for byte.
        let row_cfg = ExecutorConfig::default().with_engine(EngineKind::Row);
        let row = execute_plan_with(&p, &plan, &row_cfg).expect("row execution");
        assert_eq!(
            fused_bytes,
            format!("{row:?}"),
            "scheduler {}: batched fused diverged from the row engine",
            sched.name()
        );
        for shards in SHARD_COUNTS {
            let (sharded, report) =
                execute_plan_sharded(&p, &plan, shards).expect("sharded execution");
            assert_eq!(
                fused_bytes,
                format!("{sharded:?}"),
                "scheduler {} diverged at {} shards",
                sched.name(),
                shards
            );
            assert_shard_report_consistent(g, &fused, &report, shards, sched.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded execution is byte-identical to fused on random connected
    /// G(n, p) graphs, for every scheduler and shard count.
    #[test]
    fn sharded_matches_fused_on_gnp(gs in 0u64..200, ws in 0u64..200, k in 1usize..5) {
        let g = generators::gnp_connected(12, 2.5 / 12.0, gs);
        assert_equivalent(&g, k, ws);
    }

    /// Same property on layered graphs, whose skewed degree profile
    /// stresses the degree-balanced partitioner differently (workload
    /// randomness comes from `ws`).
    #[test]
    fn sharded_matches_fused_on_layered(ws in 0u64..400, k in 1usize..5) {
        let g = generators::layered(4, 3);
        assert_equivalent(&g, k, ws);
    }
}
