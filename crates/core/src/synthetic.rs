//! Synthetic black-box algorithms with controllable communication
//! patterns, used by tests, benchmarks, and the lower-bound instances.
//!
//! All of them propagate state through their messages, so that *any*
//! scheduling mistake (a dropped, late, or mis-ordered causal dependency)
//! changes some node's output and is caught by
//! [`crate::verify::against_references`].

use crate::algorithm::{
    Aid, AlgoNode, AlgoSend, AlgoSlab, BatchedSends, BlackBoxAlgorithm, NodeBatch,
};
use das_graph::{Graph, NodeId};
use std::sync::Arc;

fn mix(a: u64, b: u64) -> u64 {
    das_congest::util::seed_mix(a, b)
}

fn token_of(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("8-byte token"))
}

/// A token relayed along a fixed route, one hop per round; every visited
/// node folds the token into its state and re-stamps it. Dilation = route
/// length − 1, and each route edge is loaded exactly once.
#[derive(Clone, Debug)]
pub struct RelayChain {
    aid: Aid,
    /// Shared with every per-node machine: routes are immutable and `n`
    /// machines are created per run, so cloning the backing storage per
    /// machine would dominate machine-creation cost on long routes.
    route: Arc<[NodeId]>,
}

impl RelayChain {
    /// A relay along nodes `0, 1, …, n−1`; requires consecutive ids to be
    /// adjacent (e.g. on [`das_graph::generators::path`] graphs).
    ///
    /// # Panics
    /// Panics if consecutive ids are not adjacent.
    pub fn new(aid: u64, g: &Graph) -> Self {
        let route: Vec<NodeId> = g.nodes().collect();
        Self::along(aid, g, route)
    }

    /// A relay along an explicit route of adjacent nodes.
    ///
    /// # Panics
    /// Panics if the route is empty or has non-adjacent consecutive nodes.
    pub fn along(aid: u64, g: &Graph, route: Vec<NodeId>) -> Self {
        assert!(!route.is_empty(), "route must be non-empty");
        for w in route.windows(2) {
            assert!(
                g.has_edge(w[0], w[1]),
                "route hop {}-{} missing",
                w[0],
                w[1]
            );
        }
        RelayChain {
            aid: Aid(aid),
            route: route.into(),
        }
    }

    /// The route.
    pub fn route(&self) -> &[NodeId] {
        &self.route
    }
}

struct RelayNode {
    aid: u64,
    /// Positions of this node on the route (a route may revisit a node).
    positions: Vec<usize>,
    route: Arc<[NodeId]>,
    round: usize,
    state: u64,
}

impl BlackBoxAlgorithm for RelayChain {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        (self.route.len() - 1) as u32
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        let positions = self
            .route
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == v)
            .map(|(i, _)| i)
            .collect();
        Box::new(RelayNode {
            aid: self.aid.0,
            positions,
            route: Arc::clone(&self.route),
            round: 0,
            state: mix(seed, v.0 as u64),
        })
    }

    fn create_nodes(&self, nodes: &[NodeId], n: usize, seeds: &[u64]) -> NodeBatch {
        assert_eq!(nodes.len(), seeds.len(), "one seed per node");
        // Slab index of each graph node (`u32::MAX` = not in this batch),
        // then one CSR pass over the route: O(route + nodes) total, where
        // the per-node constructor pays O(route) *per machine*.
        let mut slab_of = vec![u32::MAX; n];
        for (i, &v) in nodes.iter().enumerate() {
            slab_of[v.index()] = i as u32;
        }
        let mut pos_off = vec![0u32; nodes.len() + 1];
        for &rv in self.route.iter() {
            let slab = slab_of[rv.index()];
            if slab != u32::MAX {
                pos_off[slab as usize + 1] += 1;
            }
        }
        for i in 1..pos_off.len() {
            pos_off[i] += pos_off[i - 1];
        }
        let mut cursor = pos_off.clone();
        let mut pos = vec![0u32; *pos_off.last().unwrap() as usize];
        // filled in route order, so each machine's positions are ascending
        // — the same order `create_node`'s enumerate-filter produces
        for (p, &rv) in self.route.iter().enumerate() {
            let slab = slab_of[rv.index()];
            if slab != u32::MAX {
                pos[cursor[slab as usize] as usize] = p as u32;
                cursor[slab as usize] += 1;
            }
        }
        let states = seeds
            .iter()
            .zip(nodes)
            .map(|(&s, &v)| mix(s, u64::from(v.0)))
            .collect();
        let len = nodes.len();
        NodeBatch::new(
            Box::new(RelaySlab {
                aid: self.aid.0,
                route: Arc::clone(&self.route),
                pos_off,
                pos,
                states,
                rounds: vec![0u32; len],
            }),
            len,
        )
    }
}

/// Node-contiguous relay machines: per-machine state in flat vectors and
/// route positions in one CSR table, behaviorally identical to
/// [`RelayNode`] machine-for-machine.
struct RelaySlab {
    aid: u64,
    route: Arc<[NodeId]>,
    /// CSR offsets into `pos`: machine `i`'s route positions are
    /// `pos[pos_off[i]..pos_off[i + 1]]`, ascending.
    pos_off: Vec<u32>,
    pos: Vec<u32>,
    states: Vec<u64>,
    rounds: Vec<u32>,
}

impl AlgoSlab for RelaySlab {
    fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends) {
        let mut state = self.states[i];
        for (_, payload) in inbox {
            state = mix(state, token_of(payload));
        }
        let round = self.rounds[i];
        for &p in &self.pos[self.pos_off[i] as usize..self.pos_off[i + 1] as usize] {
            let p = p as usize;
            if p as u32 == round && p + 1 < self.route.len() {
                out.push(self.route[p + 1], &mix(state, self.aid).to_le_bytes());
            }
        }
        self.states[i] = state;
        self.rounds[i] = round + 1;
        out.end_segment();
    }

    fn output(&self, i: usize) -> Option<Vec<u8>> {
        Some(self.states[i].to_le_bytes().to_vec())
    }
}

impl AlgoNode for RelayNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (_, payload) in inbox {
            self.state = mix(self.state, token_of(payload));
        }
        // The node at route position r forwards the (folded) token in
        // round r; position 0 injects it in round 0.
        let mut sends = Vec::new();
        for &pos in &self.positions {
            if pos == self.round && pos + 1 < self.route.len() {
                sends.push(AlgoSend {
                    to: self.route[pos + 1],
                    payload: mix(self.state, self.aid).to_le_bytes().to_vec(),
                });
            }
        }
        self.round += 1;
        sends
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.state.to_le_bytes().to_vec())
    }
}

/// A fixed, prescribed communication pattern: send on `(round, from, to)`
/// triples. Every node folds everything it receives into a running state
/// and stamps that state into everything it sends, so causal chains are
/// fully output-sensitive. The pattern itself is input-independent (the
/// packet-routing-like case).
#[derive(Clone, Debug)]
pub struct Prescribed {
    aid: Aid,
    rounds: u32,
    /// sends[r] = list of (from, to); shared with every per-node machine
    /// (the pattern is immutable once built).
    sends: Arc<Vec<Vec<(NodeId, NodeId)>>>,
}

impl Prescribed {
    /// Creates a prescribed-pattern algorithm from `(round, from, to)`
    /// triples. Duplicate triples are collapsed (a communication pattern
    /// is a set).
    ///
    /// # Panics
    /// Panics if any pair is not an edge of `g`.
    pub fn new(aid: u64, g: &Graph, triples: &[(u32, NodeId, NodeId)]) -> Self {
        let mut triples = triples.to_vec();
        triples.sort_unstable();
        triples.dedup();
        // +2: one round to send the last message, one to absorb it
        let rounds = triples.iter().map(|&(r, _, _)| r + 2).max().unwrap_or(1);
        let mut sends = vec![Vec::new(); rounds as usize];
        for &(r, from, to) in &triples {
            assert!(g.has_edge(from, to), "({from},{to}) is not an edge");
            sends[r as usize].push((from, to));
        }
        Prescribed {
            aid: Aid(aid),
            rounds,
            sends: Arc::new(sends),
        }
    }

    /// Total number of messages in the pattern.
    pub fn message_count(&self) -> usize {
        self.sends.iter().map(|s| s.len()).sum()
    }
}

struct PrescribedNode {
    me: NodeId,
    round: usize,
    sends: Arc<Vec<Vec<(NodeId, NodeId)>>>,
    state: u64,
}

impl BlackBoxAlgorithm for Prescribed {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        Box::new(PrescribedNode {
            me: v,
            round: 0,
            sends: Arc::clone(&self.sends),
            state: mix(seed, v.0 as u64),
        })
    }

    fn create_nodes(&self, nodes: &[NodeId], _n: usize, seeds: &[u64]) -> NodeBatch {
        assert_eq!(nodes.len(), seeds.len(), "one seed per node");
        let states = seeds
            .iter()
            .zip(nodes)
            .map(|(&s, &v)| mix(s, u64::from(v.0)))
            .collect();
        let len = nodes.len();
        NodeBatch::new(
            Box::new(PrescribedSlab {
                me: nodes.to_vec(),
                sends: Arc::clone(&self.sends),
                states,
                rounds: vec![0u32; len],
            }),
            len,
        )
    }
}

/// Node-contiguous prescribed-pattern machines. Each round's `(from, to)`
/// list is sorted ascending (built from sorted, deduplicated triples), so
/// one machine's sends are a contiguous range found by binary search —
/// in the same ascending-`to` order [`PrescribedNode`]'s linear filter
/// produces.
struct PrescribedSlab {
    me: Vec<NodeId>,
    sends: Arc<Vec<Vec<(NodeId, NodeId)>>>,
    states: Vec<u64>,
    rounds: Vec<u32>,
}

impl AlgoSlab for PrescribedSlab {
    fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends) {
        let mut state = self.states[i];
        for (from, payload) in inbox {
            state = mix(state, mix(token_of(payload), u64::from(from.0)));
        }
        let round = self.rounds[i];
        if let Some(list) = self.sends.get(round as usize) {
            let me = self.me[i];
            let lo = list.partition_point(|&(f, _)| f < me);
            let hi = lo + list[lo..].partition_point(|&(f, _)| f == me);
            for &(_, to) in &list[lo..hi] {
                out.push(to, &mix(state, u64::from(round)).to_le_bytes());
            }
        }
        self.states[i] = state;
        self.rounds[i] = round + 1;
        out.end_segment();
    }

    fn output(&self, i: usize) -> Option<Vec<u8>> {
        Some(self.states[i].to_le_bytes().to_vec())
    }
}

impl AlgoNode for PrescribedNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (from, payload) in inbox {
            self.state = mix(self.state, mix(token_of(payload), from.0 as u64));
        }
        let mut out = Vec::new();
        if let Some(list) = self.sends.get(self.round) {
            for &(from, to) in list {
                if from == self.me {
                    out.push(AlgoSend {
                        to,
                        payload: mix(self.state, self.round as u64).to_le_bytes().to_vec(),
                    });
                }
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.state.to_le_bytes().to_vec())
    }
}

/// A BFS-style flood from a source up to a given depth: the communication
/// pattern is *data-dependent* — a node cannot know in advance when or
/// from whom its first token arrives (the paper's motivating example for
/// why patterns are not known a priori). Each node outputs the round it
/// first heard the token, i.e. its BFS distance when scheduled correctly.
#[derive(Clone, Debug)]
pub struct FloodBall {
    aid: Aid,
    source: NodeId,
    depth: u32,
    /// Per-node neighbor lists (nodes know their neighbors in CONGEST);
    /// shared with every per-node machine, which indexes its own row.
    neighbors: Arc<Vec<Vec<NodeId>>>,
}

impl FloodBall {
    /// Creates a flood of the given depth from `source` on `g`.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(aid: u64, g: &Graph, source: NodeId, depth: u32) -> Self {
        assert!(depth > 0, "flood needs at least one round");
        let neighbors = g
            .nodes()
            .map(|v| g.neighbors(v).iter().map(|&(u, _)| u).collect())
            .collect();
        FloodBall {
            aid: Aid(aid),
            source,
            depth,
            neighbors: Arc::new(neighbors),
        }
    }
}

struct FloodNode {
    /// Whole-graph adjacency, shared; this machine reads row `me`.
    neighbors: Arc<Vec<Vec<NodeId>>>,
    me: usize,
    depth: u32,
    round: u32,
    heard_at: Option<u32>,
    token: u64,
    pending: bool,
}

impl BlackBoxAlgorithm for FloodBall {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        // one extra round so that nodes at distance exactly `depth` get to
        // absorb the tokens sent in round `depth - 1`
        self.depth + 1
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        let is_source = v == self.source;
        Box::new(FloodNode {
            neighbors: Arc::clone(&self.neighbors),
            me: v.index(),
            depth: self.depth,
            round: 0,
            heard_at: if is_source { Some(0) } else { None },
            token: mix(seed, self.aid.0),
            pending: is_source,
        })
    }

    fn create_nodes(&self, nodes: &[NodeId], _n: usize, seeds: &[u64]) -> NodeBatch {
        assert_eq!(nodes.len(), seeds.len(), "one seed per node");
        let len = nodes.len();
        NodeBatch::new(
            Box::new(FloodSlab {
                neighbors: Arc::clone(&self.neighbors),
                me: nodes.iter().map(|v| v.index() as u32).collect(),
                depth: self.depth,
                rounds: vec![0u32; len],
                heard_at: nodes
                    .iter()
                    .map(|&v| if v == self.source { 0 } else { u32::MAX })
                    .collect(),
                tokens: seeds.iter().map(|&s| mix(s, self.aid.0)).collect(),
                pending: nodes.iter().map(|&v| v == self.source).collect(),
            }),
            len,
        )
    }
}

/// Node-contiguous flood machines in struct-of-arrays layout
/// (`heard_at == u32::MAX` encodes "not heard yet"), behaviorally
/// identical to [`FloodNode`] machine-for-machine.
struct FloodSlab {
    neighbors: Arc<Vec<Vec<NodeId>>>,
    me: Vec<u32>,
    depth: u32,
    rounds: Vec<u32>,
    heard_at: Vec<u32>,
    tokens: Vec<u64>,
    pending: Vec<bool>,
}

impl AlgoSlab for FloodSlab {
    fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends) {
        for (_, payload) in inbox {
            if self.heard_at[i] == u32::MAX {
                self.heard_at[i] = self.rounds[i];
                self.tokens[i] = mix(token_of(payload), 1);
                self.pending[i] = true;
            }
        }
        if self.pending[i] && self.rounds[i] < self.depth {
            self.pending[i] = false;
            let payload = self.tokens[i].to_le_bytes();
            for &u in &self.neighbors[self.me[i] as usize] {
                out.push(u, &payload);
            }
        }
        self.rounds[i] += 1;
        out.end_segment();
    }

    fn output(&self, i: usize) -> Option<Vec<u8>> {
        Some(if self.heard_at[i] == u32::MAX {
            vec![0u8]
        } else {
            let mut v = Vec::with_capacity(1 + 4 + 8);
            v.push(1u8);
            v.extend_from_slice(&self.heard_at[i].to_le_bytes());
            v.extend_from_slice(&self.tokens[i].to_le_bytes());
            v
        })
    }
}

impl AlgoNode for FloodNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (_, payload) in inbox {
            if self.heard_at.is_none() {
                self.heard_at = Some(self.round);
                self.token = mix(token_of(payload), 1);
                self.pending = true;
            }
        }
        let mut out = Vec::new();
        if self.pending && self.round < self.depth {
            self.pending = false;
            for &u in &self.neighbors[self.me] {
                out.push(AlgoSend {
                    to: u,
                    payload: self.token.to_le_bytes().to_vec(),
                });
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(match self.heard_at {
            Some(r) => {
                let mut v = Vec::with_capacity(1 + 4 + 8);
                v.push(1u8);
                v.extend_from_slice(&r.to_le_bytes());
                v.extend_from_slice(&self.token.to_le_bytes());
                v
            }
            None => vec![0u8],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_alone;
    use das_graph::generators;

    #[test]
    fn relay_pattern_and_determinism() {
        let g = generators::path(8);
        let algo = RelayChain::new(3, &g);
        let a = run_alone(&g, &algo, 5).unwrap();
        let b = run_alone(&g, &algo, 5).unwrap();
        assert_eq!(a.outputs, b.outputs, "deterministic");
        let c = run_alone(&g, &algo, 6).unwrap();
        assert_ne!(a.outputs, c.outputs, "seed-sensitive");
        assert_eq!(a.pattern.message_count(), 7);
        assert_eq!(a.pattern.rounds(), 7);
    }

    #[test]
    fn relay_along_custom_route() {
        let g = generators::cycle(6);
        let route = vec![NodeId(2), NodeId(3), NodeId(4)];
        let algo = RelayChain::along(9, &g, route);
        assert_eq!(algo.rounds(), 2);
        let r = run_alone(&g, &algo, 0).unwrap();
        assert_eq!(r.pattern.message_count(), 2);
    }

    #[test]
    #[should_panic]
    fn relay_rejects_broken_route() {
        let g = generators::path(5);
        RelayChain::along(0, &g, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn prescribed_pattern_matches_spec() {
        let g = generators::grid(3, 3);
        let triples = [
            (0u32, NodeId(0), NodeId(1)),
            (1, NodeId(1), NodeId(2)),
            (1, NodeId(3), NodeId(0)),
            (4, NodeId(4), NodeId(5)),
        ];
        let algo = Prescribed::new(0, &g, &triples);
        assert_eq!(algo.rounds(), 6);
        assert_eq!(algo.message_count(), 4);
        let r = run_alone(&g, &algo, 1).unwrap();
        assert_eq!(r.pattern.message_count(), 4);
        assert_eq!(r.pattern.rounds(), 5); // sends end at round 4
    }

    #[test]
    fn prescribed_state_chains_are_causal() {
        // 0 -> 1 -> 2 with state folding: node 2's output must differ if we
        // drop the first hop (sensitivity check, done by re-running with a
        // pattern that omits it).
        let g = generators::path(3);
        let full = Prescribed::new(
            0,
            &g,
            &[(0, NodeId(0), NodeId(1)), (1, NodeId(1), NodeId(2))],
        );
        let cut = Prescribed::new(0, &g, &[(1, NodeId(1), NodeId(2))]);
        let rf = run_alone(&g, &full, 2).unwrap();
        let rc = run_alone(&g, &cut, 2).unwrap();
        assert_ne!(rf.outputs[2], rc.outputs[2]);
    }

    #[test]
    fn flood_outputs_bfs_distances() {
        let g = generators::grid(4, 4);
        let algo = FloodBall::new(1, &g, NodeId(0), 6);
        let r = run_alone(&g, &algo, 2).unwrap();
        let dist = das_graph::traversal::bfs_distances(&g, NodeId(0));
        for v in g.nodes() {
            let out = r.outputs[v.index()].as_ref().unwrap();
            assert_eq!(out[0], 1, "{v} heard the flood");
            let heard = u32::from_le_bytes(out[1..5].try_into().unwrap());
            assert_eq!(heard, dist[v.index()].unwrap(), "node {v}");
        }
    }

    #[test]
    fn flood_depth_limits_reach() {
        let g = generators::path(10);
        let algo = FloodBall::new(1, &g, NodeId(0), 3);
        let r = run_alone(&g, &algo, 2).unwrap();
        assert_eq!(r.outputs[3].as_ref().unwrap()[0], 1);
        assert_eq!(r.outputs[4].as_ref().unwrap()[0], 0, "beyond depth");
    }
}
