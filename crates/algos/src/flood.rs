//! Leader election by min-id flooding — a classic low-dilation,
//! low-congestion workload (every edge carries at most `O(1)` improving
//! announcements on most graphs), available both as a standalone CONGEST
//! protocol and as a schedulable black box with a fixed round budget.

use crate::adjacency::Adjacency;
use das_congest::{util, NodeBatch};
use das_core::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
use das_graph::{Graph, NodeId};
use std::sync::Arc;

/// Schedulable leader election: flood the minimum id for a fixed number
/// of rounds (enough rounds = the graph diameter ⇒ everyone agrees on
/// node 0... unless ids are randomized by `rank_seed`, which makes the
/// leader input-dependent). Each node outputs the best (rank, id) pair it
/// has seen.
#[derive(Clone, Debug)]
pub struct LeaderElection {
    aid: Aid,
    rounds: u32,
    rank_seed: u64,
    adjacency: Arc<Adjacency>,
}

impl LeaderElection {
    /// Creates the election with the given round budget (≥ diameter for a
    /// global leader). Ranks are pseudo-random in `rank_seed` so different
    /// instances elect different leaders.
    pub fn new(aid: u64, g: &Graph, rounds: u32, rank_seed: u64) -> Self {
        assert!(rounds > 0, "need at least one round");
        LeaderElection {
            aid: Aid(aid),
            rounds,
            rank_seed,
            adjacency: Adjacency::of(g),
        }
    }

    /// The rank of node `v` under this instance's seed.
    pub fn rank(&self, v: NodeId) -> u64 {
        util::seed_mix(self.rank_seed, v.0 as u64)
    }
}

struct LeaderNode {
    adjacency: Arc<Adjacency>,
    me: NodeId,
    rounds: u32,
    round: u32,
    best: (u64, u32),
    changed: bool,
}

impl BlackBoxAlgorithm for LeaderElection {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn create_node(&self, v: NodeId, _n: usize, _seed: u64) -> Box<dyn AlgoNode> {
        Box::new(LeaderNode {
            adjacency: Arc::clone(&self.adjacency),
            me: v,
            rounds: self.rounds,
            round: 0,
            best: (self.rank(v), v.0),
            changed: true,
        })
    }
}

impl AlgoNode for LeaderNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (_, payload) in inbox {
            let rank = u64::from_le_bytes(payload[..8].try_into().expect("rank"));
            let id = u32::from_le_bytes(payload[8..12].try_into().expect("id"));
            if (rank, id) < self.best {
                self.best = (rank, id);
                self.changed = true;
            }
        }
        if self.changed && self.round < self.rounds {
            self.changed = false;
            let mut payload = [0u8; 12];
            payload[..8].copy_from_slice(&self.best.0.to_le_bytes());
            payload[8..].copy_from_slice(&self.best.1.to_le_bytes());
            for &u in self.adjacency.neighbors(self.me) {
                out.push(u, &payload);
            }
        }
        self.round += 1;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.best.0.to_le_bytes());
        out.put(&self.best.1.to_le_bytes());
    }
}

/// Standalone min-id flood protocol: a node sends only when its minimum
/// improved, so run [`Until::Quiet`](das_congest::Until::Quiet) it stops
/// on its own (for round measurements: converges in `diameter + O(1)`
/// rounds).
pub struct MinIdProtocol;

impl MinIdProtocol {
    /// One machine per node of `g`.
    pub fn machines(&self, g: &Graph) -> NodeBatch {
        NodeBatch::for_graph(g, |id, neighbors| {
            Box::new(MinIdNode {
                neighbors,
                best: id.0,
                changed: true,
            })
        })
    }
}

struct MinIdNode {
    neighbors: Vec<NodeId>,
    best: u32,
    changed: bool,
}

impl AlgoNode for MinIdNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (_, payload) in inbox {
            let v = u32::from_le_bytes(payload[..4].try_into().expect("id"));
            if v < self.best {
                self.best = v;
                self.changed = true;
            }
        }
        if std::mem::take(&mut self.changed) {
            out.push_all(&self.neighbors, &self.best.to_le_bytes());
        }
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.best.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_congest::{run_rounds, Until};
    use das_core::{run_alone, DasProblem, Scheduler, UniformScheduler};
    use das_graph::{generators, traversal};

    #[test]
    fn everyone_elects_the_min_rank_node() {
        let g = generators::grid(5, 5);
        let diam = traversal::diameter(&g).unwrap();
        let algo = LeaderElection::new(0, &g, diam + 1, 7);
        let r = run_alone(&g, &algo, 1).unwrap();
        let leader = g.nodes().min_by_key(|&v| algo.rank(v)).unwrap();
        for v in g.nodes() {
            let out = r.outputs[v.index()].as_ref().unwrap();
            let id = u32::from_le_bytes(out[8..12].try_into().unwrap());
            assert_eq!(NodeId(id), leader, "node {v}");
        }
    }

    #[test]
    fn different_seeds_different_leaders() {
        let g = generators::cycle(20);
        let a = LeaderElection::new(0, &g, 11, 1);
        let b = LeaderElection::new(1, &g, 11, 2);
        let la = g.nodes().min_by_key(|&v| a.rank(v)).unwrap();
        let lb = g.nodes().min_by_key(|&v| b.rank(v)).unwrap();
        // 1/20 chance of collision per pair; these seeds differ
        assert_ne!(la, lb);
    }

    #[test]
    fn short_budget_elects_local_leaders() {
        let g = generators::path(20);
        let algo = LeaderElection::new(0, &g, 2, 3);
        let r = run_alone(&g, &algo, 1).unwrap();
        // node 0 and node 19 can only see 2 hops; their answers may differ
        let outs: std::collections::HashSet<_> =
            r.outputs.iter().map(|o| o.clone().unwrap()).collect();
        assert!(
            outs.len() > 1,
            "2 rounds cannot reach consensus on a 20-path"
        );
    }

    #[test]
    fn protocol_converges_in_diameter_plus_constant() {
        let g = generators::gnp_connected(60, 0.06, 11);
        let diam = traversal::diameter(&g).unwrap();
        let mut batch = MinIdProtocol.machines(&g);
        let ran = run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap();
        for out in &batch.outputs() {
            assert_eq!(out.as_deref(), Some(&0u32.to_le_bytes()[..]));
        }
        assert!(ran.rounds <= diam + 3, "{} vs diameter {diam}", ran.rounds);
    }

    #[test]
    fn elections_schedule_together() {
        let g = generators::grid(5, 5);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..8)
            .map(|i| Box::new(LeaderElection::new(i, &g, 9, 100 + i)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 5);
        let outcome = UniformScheduler::default().run(&p).unwrap();
        let rep = das_core::verify::against_references(&p, &outcome).unwrap();
        assert!(rep.all_correct(), "late {}", outcome.stats.late_messages);
    }
}
