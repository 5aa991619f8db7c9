//! Property-based neutrality of the planning stages: a plan sized from a
//! *reused* [`das_core::PlanArtifact`] / [`das_core::SweepArtifact`] must
//! be **byte-identical** (canonical JSON) to a fresh chain — `plan()`, or
//! for an explicit congestion guess `size_plan` on an artifact built for
//! that one call — for every scheduler, graph, workload, congestion guess
//! and sched-seed. `plan()` is a composition of the same stages, so what
//! this pins — by sizing/seeding one artifact for shuffled lists with
//! repeats — is that no stage mutates what it reuses. (The guess-sized
//! bytes themselves and what the doubling searches make of the split are
//! pinned in `plan_golden.rs`.)

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    BlackBoxAlgorithm, DasProblem, InterleaveScheduler, PrivateScheduler, Scheduler,
    SequentialScheduler, TunedUniformScheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Congestion guesses the override sweep tries: small spans around the
/// doubling search's early attempts (including 5, a prime the uniform
/// artifact may have cached draws for) and one far past the default —
/// out of order and with repeats, all sized from one artifact.
const GUESSES: [u64; 7] = [8, 2, 64, 5, 2, 8, 5];

/// A random mixed workload (prescribed / flood / relay) on `g` — the same
/// generator the shard-equivalence property uses.
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

/// Asserts `size_plan(build_artifact(..), ..)` == `plan()` bytes for every
/// scheduler at the default sizing, and for the two guess-sized schedulers
/// across the override sweep.
fn assert_sizing_matches_scratch(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    for sched in all_schedulers() {
        let scratch = sched.plan(&p, seed).expect("model-valid workload");
        let artifact = sched.build_artifact(&p, seed).expect("artifact build");
        let sized = sched
            .size_plan(&p, &artifact, None)
            .expect("default sizing");
        assert_eq!(
            scratch.to_json(),
            sized.to_json(),
            "scheduler {} default sizing diverged from plan()",
            sched.name()
        );
    }
    // guess overrides: sizing the reused artifact for `guess` must equal
    // sizing an artifact built fresh for that one call
    let guess_sized: [Box<dyn Scheduler>; 2] = [
        Box::new(UniformScheduler::default()),
        Box::new(PrivateScheduler::default()),
    ];
    for sched in guess_sized {
        let reused = sched.build_artifact(&p, seed).expect("reused artifact");
        for guess in GUESSES {
            let fresh = sched.build_artifact(&p, seed).expect("fresh artifact");
            assert_eq!(
                sched
                    .size_plan(&p, &fresh, Some(guess))
                    .expect("fresh sizing")
                    .to_json(),
                sched
                    .size_plan(&p, &reused, Some(guess))
                    .expect("reused sizing")
                    .to_json(),
                "scheduler {} sizing diverged at guess {guess}",
                sched.name()
            );
        }
    }
}

/// Asserts `plan_swept(build_sweep_artifact(..), s)` == `plan(.., s)` bytes
/// for every scheduler across a spread of sched-seeds — one artifact, many
/// seeds, zero byte drift (the seed-sweep half of the cache contract).
fn assert_sweep_matches_scratch(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    // out of order and with repeats, all seeded from one artifact
    let sweep_seeds = [
        u64::MAX,
        seed,
        seed ^ 0x5EED,
        seed.wrapping_mul(31).wrapping_add(7),
        seed,
        0,
        u64::MAX,
    ];
    for sched in all_schedulers() {
        let artifact = sched.build_sweep_artifact(&p).expect("sweep artifact");
        for &s in &sweep_seeds {
            let scratch = sched.plan(&p, s).expect("model-valid workload");
            let swept = sched.plan_swept(&p, &artifact, s).expect("swept plan");
            assert_eq!(
                scratch.to_json(),
                swept.to_json(),
                "scheduler {} sweep-derived plan diverged at sched_seed {s}",
                sched.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Artifact sizing is byte-identical to from-scratch planning on
    /// random connected G(n, p) graphs.
    #[test]
    fn sizing_matches_scratch_on_gnp(gs in 0u64..200, ws in 0u64..200, k in 1usize..5) {
        let g = generators::gnp_connected(12, 2.5 / 12.0, gs);
        assert_sizing_matches_scratch(&g, k, ws);
    }

    /// Same property on layered graphs (skewed degrees stress the private
    /// scheduler's carve differently).
    #[test]
    fn sizing_matches_scratch_on_layered(ws in 0u64..400, k in 1usize..5) {
        let g = generators::layered(4, 3);
        assert_sizing_matches_scratch(&g, k, ws);
    }

    /// One sweep artifact serves every sched-seed byte-identically on
    /// random connected G(n, p) graphs.
    #[test]
    fn sweep_matches_scratch_on_gnp(gs in 0u64..200, ws in 0u64..200, k in 1usize..5) {
        let g = generators::gnp_connected(12, 2.5 / 12.0, gs);
        assert_sweep_matches_scratch(&g, k, ws);
    }

    /// Same sweep property on layered graphs.
    #[test]
    fn sweep_matches_scratch_on_layered(ws in 0u64..400, k in 1usize..5) {
        let g = generators::layered(4, 3);
        assert_sweep_matches_scratch(&g, k, ws);
    }
}

/// The sweep split survives the private scheduler's honest distributed
/// pre-computation (per-seed sharing re-runs the engine protocols), its
/// ablation law and its layer-count override.
#[test]
fn sweep_covers_distributed_precompute_and_overrides() {
    let g = generators::path(10);
    let p = congested_problem(&g);
    let variants = vec![
        PrivateScheduler::default().with_distributed_precompute(true),
        PrivateScheduler::default().with_delay_law(das_core::PrivateDelayLaw::UniformWide),
        PrivateScheduler::default().with_layers(4).with_seed(0xFEED),
    ];
    for sched in variants {
        let artifact = sched.build_sweep_artifact(&p).expect("sweep artifact");
        for s in [sched.default_sched_seed(), 1, 0xBEEF] {
            assert_eq!(
                sched.plan(&p, s).expect("plan").to_json(),
                sched
                    .plan_swept(&p, &artifact, s)
                    .expect("swept plan")
                    .to_json(),
                "private variant {sched:?} diverged at sched_seed {s}"
            );
        }
    }
}

/// A path instance congested enough to force several doubling attempts.
fn congested_problem(g: &Graph) -> DasProblem<'_> {
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..16)
        .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    DasProblem::new(g, algos, 3)
}
