//! Leader election by min-id flooding — a classic low-dilation,
//! low-congestion workload (every edge carries at most `O(1)` improving
//! announcements on most graphs), available both as a standalone CONGEST
//! protocol and as a schedulable black box with a fixed round budget.

use crate::adjacency::Adjacency;
use das_congest::{util, Protocol, ProtocolNode, RoundContext};
use das_core::{Aid, AlgoNode, AlgoSend, BlackBoxAlgorithm};
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
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (_, payload) in inbox {
            let rank = u64::from_le_bytes(payload[..8].try_into().expect("rank"));
            let id = u32::from_le_bytes(payload[8..12].try_into().expect("id"));
            if (rank, id) < self.best {
                self.best = (rank, id);
                self.changed = true;
            }
        }
        let mut out = Vec::new();
        if self.changed && self.round < self.rounds {
            self.changed = false;
            let mut payload = self.best.0.to_le_bytes().to_vec();
            payload.extend_from_slice(&self.best.1.to_le_bytes());
            for &u in self.adjacency.neighbors(self.me) {
                out.push(AlgoSend {
                    to: u,
                    payload: payload.clone(),
                });
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        let mut v = self.best.0.to_le_bytes().to_vec();
        v.extend_from_slice(&self.best.1.to_le_bytes());
        Some(v)
    }
}

/// Standalone min-id flood protocol with self-termination (for round
/// measurements: converges in `diameter + O(1)` rounds).
pub struct MinIdProtocol;

struct MinIdNode {
    best: u32,
    changed: bool,
    quiet: bool,
}

impl Protocol for MinIdProtocol {
    fn create_node(&self, id: NodeId, _n: usize, _deg: usize) -> Box<dyn ProtocolNode> {
        Box::new(MinIdNode {
            best: id.0,
            changed: true,
            quiet: false,
        })
    }
}

impl ProtocolNode for MinIdNode {
    fn round(&mut self, ctx: &mut RoundContext<'_>) {
        for env in ctx.inbox() {
            let v = u32::from_le_bytes(env.payload[..4].try_into().expect("id"));
            if v < self.best {
                self.best = v;
                self.changed = true;
            }
        }
        if self.changed {
            self.changed = false;
            self.quiet = false;
            ctx.send_all(self.best.to_le_bytes().to_vec())
                .expect("min-id flood fits the model");
        } else {
            self.quiet = true;
        }
    }

    fn is_done(&self) -> bool {
        self.quiet
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.best.to_le_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_congest::{Engine, EngineConfig};
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
        let diam = traversal::diameter(&g).unwrap() as u64;
        let rep = Engine::new(&g, EngineConfig::default())
            .run(&MinIdProtocol)
            .unwrap();
        for out in &rep.outputs {
            assert_eq!(out.as_deref(), Some(&0u32.to_le_bytes()[..]));
        }
        assert!(
            rep.rounds <= diam + 3,
            "{} vs diameter {}",
            rep.rounds,
            diam
        );
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
