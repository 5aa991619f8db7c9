//! The benchmark's own instances. The builders are copies of the ones in
//! `das-bench`, not imports, so a later edit there cannot move a workload.

use das_algos::bfs::HopBfs;
use das_algos::broadcast::SingleBroadcast;
use das_core::synthetic::FloodBall;
use das_core::{BlackBoxAlgorithm, DasProblem, PrivateScheduler, Scheduler, UniformScheduler};
use das_graph::{generators, Graph, NodeId};

/// Shards, networked workers and client connections are pinned here so a
/// result never depends on how many cores the box happens to have.
pub const PARALLELISM: usize = 2;

/// The seven workloads with the one-line reason each exists, in the order
/// `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "oneshot_dense",
        "message-dense mixed bundle on an expander, fused: executor and reference-runner work shows; planning is under a tenth",
    ),
    (
        "oneshot_wide",
        "step-dominated, message-sparse floods on a grid, fused: plan sizing, step dispatch and memory show; message-path work should not",
    ),
    (
        "oneshot_private",
        "private scheduler (Thm 1.3): clustering and plan sizing are 95 % of the pipeline; executor work should show nothing",
    ),
    (
        "sharded_dense",
        "the dense plan executed on 2 in-process shards, each outcome compared with fused: barriers and outboxes, the path serve runs every batch on",
    ),
    (
        "networked_dense",
        "the dense plan executed by 2 workers over localhost TCP, outcome compared with fused: the wire exchange and the row-structured worker loop",
    ),
    (
        "serve_steady",
        "open loop at 10 jobs/s, far below the knee: batches rarely fill, latency is linger plus one small batch, the floor an idle operator sees",
    ),
    (
        "serve_saturate",
        "closed loop, 2 connections x 32 outstanding: the queue never empties, the per-batch pipeline on the single executor thread sets the rate",
    ),
];

/// Which graph family an instance is built on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// `random_regular_expander(n, d, seed)`.
    Expander { n: usize, d: usize },
    /// `grid(rows, cols)`.
    Grid { rows: usize, cols: usize },
}

impl GraphSpec {
    pub fn build(self, seed: u64) -> Graph {
        match self {
            GraphSpec::Expander { n, d } => generators::random_regular_expander(n, d, seed),
            GraphSpec::Grid { rows, cols } => generators::grid(rows, cols),
        }
    }
}

/// Which algorithm bundle runs on the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bundle {
    /// HopBfs / SingleBroadcast / FloodBall by `i % 3`: boxed machines
    /// beside slabs, message-dense.
    Mixed { k: usize, depth: u32 },
    /// `k` floods from spread-out sources: step-dominated, message-sparse.
    Floods { k: usize, depth: u32 },
}

impl Bundle {
    pub fn k(self) -> usize {
        match self {
            Bundle::Mixed { k, .. } | Bundle::Floods { k, .. } => k,
        }
    }

    /// A fresh problem with nothing cached: sources are spread by a fixed
    /// multiplier and shifted by the seed, tapes hang off the seed.
    pub fn problem(self, g: &Graph, seed: u64) -> DasProblem<'_> {
        let n = g.node_count() as u64;
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = match self {
            Bundle::Mixed { k, depth } => (0..k as u64)
                .map(|i| {
                    let src = NodeId(((i * 40503 + seed) % n) as u32);
                    match i % 3 {
                        0 => Box::new(HopBfs::new(i, g, src, depth)) as Box<dyn BlackBoxAlgorithm>,
                        1 => Box::new(SingleBroadcast::new(i, g, src, depth)),
                        _ => Box::new(FloodBall::new(i, g, src, depth)),
                    }
                })
                .collect(),
            Bundle::Floods { k, depth } => (0..k as u64)
                .map(|i| {
                    let src = NodeId(((i * 2654435761 + seed) % n) as u32);
                    Box::new(FloodBall::new(i, g, src, depth)) as Box<dyn BlackBoxAlgorithm>
                })
                .collect(),
        };
        DasProblem::new(g, algos, seed)
    }
}

/// Which scheduler plans the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// Thm 1.1, shared randomness.
    Uniform,
    /// Thm 1.3, private randomness after clustering.
    Private,
}

impl Sched {
    /// The scheduler with its default seed, whatever `--seed` is. A
    /// schedule's length moves in whole phases (a tenth to a fifth of it on
    /// these instances) with the scheduler's draws, so a seeded scheduler
    /// would spread `quality_ratio` and `sched_rounds_per_s` over ten seeds
    /// by more than any bound worth having; the graph, sources and tapes
    /// the seed does drive leave both nearly still.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Sched::Uniform => Box::new(UniformScheduler::default()),
            Sched::Private => Box::new(PrivateScheduler::default()),
        }
    }
}

/// One plan → execute → verify instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instance {
    pub graph: GraphSpec,
    pub bundle: Bundle,
    pub sched: Sched,
}

/// `oneshot_dense`, and the instance `sharded_dense` / `networked_dense`
/// execute.
pub const DENSE: Instance = Instance {
    graph: GraphSpec::Expander { n: 4096, d: 6 },
    bundle: Bundle::Mixed { k: 96, depth: 5 },
    sched: Sched::Uniform,
};

/// `oneshot_wide`.
pub const WIDE: Instance = Instance {
    graph: GraphSpec::Grid { rows: 64, cols: 64 },
    bundle: Bundle::Floods { k: 128, depth: 8 },
    sched: Sched::Uniform,
};

/// `oneshot_private`.
pub const PRIVATE: Instance = Instance {
    graph: GraphSpec::Grid { rows: 48, cols: 48 },
    bundle: Bundle::Mixed { k: 48, depth: 6 },
    sched: Sched::Private,
};

/// The graph both serve workloads run their daemon on.
pub const SERVE_GRAPH: GraphSpec = GraphSpec::Grid { rows: 32, cols: 32 };
