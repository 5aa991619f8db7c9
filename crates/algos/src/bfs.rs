//! Breadth-first search workloads (§1 item II).
//!
//! [`HopBfs`] is a single-source `h`-hop BFS as a schedulable black box —
//! the paper's running example of an algorithm whose communication pattern
//! cannot be known in advance. [`KBfsProtocol`] is a Lenzen–Peleg-style
//! combined protocol that runs `k` BFSs together in `O(k + h)` rounds by
//! pipelining distance announcements smallest-first.

use crate::adjacency::Adjacency;
use das_congest::{util, Protocol, ProtocolNode, RoundContext};
use das_core::{Aid, AlgoNode, AlgoSend, BlackBoxAlgorithm};
use das_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Single-source `h`-hop BFS: each node outputs `(distance, parent)` if it
/// is within `h` hops of the source.
#[derive(Clone, Debug)]
pub struct HopBfs {
    aid: Aid,
    source: NodeId,
    hops: u32,
    adjacency: Arc<Adjacency>,
}

impl HopBfs {
    /// Creates the BFS from `source` to depth `hops`.
    pub fn new(aid: u64, g: &Graph, source: NodeId, hops: u32) -> Self {
        assert!(hops > 0, "BFS needs at least one hop");
        HopBfs {
            aid: Aid(aid),
            source,
            hops,
            adjacency: Adjacency::of(g),
        }
    }
}

struct HopBfsNode {
    adjacency: Arc<Adjacency>,
    me: NodeId,
    hops: u32,
    round: u32,
    dist: Option<u32>,
    parent: Option<NodeId>,
    pending: bool,
}

impl BlackBoxAlgorithm for HopBfs {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.hops + 1
    }

    fn create_node(&self, v: NodeId, _n: usize, _seed: u64) -> Box<dyn AlgoNode> {
        let is_source = v == self.source;
        Box::new(HopBfsNode {
            adjacency: Arc::clone(&self.adjacency),
            me: v,
            hops: self.hops,
            round: 0,
            dist: is_source.then_some(0),
            parent: None,
            pending: is_source,
        })
    }
}

impl AlgoNode for HopBfsNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        // deterministic parent choice: smallest-id announcer of the first
        // round that reaches us
        let mut best: Option<NodeId> = None;
        for (from, _payload) in inbox {
            if self.dist.is_none() && best.is_none_or(|b| *from < b) {
                best = Some(*from);
            }
        }
        if let Some(from) = best {
            self.dist = Some(self.round);
            self.parent = Some(from);
            self.pending = true;
        }
        let mut out = Vec::new();
        if self.pending && self.round < self.hops {
            self.pending = false;
            for &u in self.adjacency.neighbors(self.me) {
                out.push(AlgoSend {
                    to: u,
                    payload: (self.dist.expect("pending implies dist") as u64)
                        .to_le_bytes()
                        .to_vec(),
                });
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.dist.map(|d| {
            let mut v = d.to_le_bytes().to_vec();
            v.extend_from_slice(&self.parent.map_or(u32::MAX, |p| p.0).to_le_bytes());
            v
        })
    }
}

/// `k` BFSs from different sources run together: every round, every node
/// announces its best not-yet-announced `(distance, source)` entry,
/// smallest first. The pipelining argument of Lenzen–Peleg gives `O(k + h)`
/// rounds. Each node outputs its distance vector to the `k` sources.
pub struct KBfsProtocol {
    /// The BFS sources.
    pub sources: Vec<NodeId>,
    /// Hop limit.
    pub hops: u32,
}

impl KBfsProtocol {
    /// Creates the combined protocol.
    pub fn new(sources: Vec<NodeId>, hops: u32) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        KBfsProtocol { sources, hops }
    }
}

struct KBfsNode {
    hops: u32,
    /// best known distance per source index
    dist: Vec<Option<u32>>,
    announced: BTreeSet<usize>,
    quiet: bool,
}

impl Protocol for KBfsProtocol {
    fn create_node(&self, id: NodeId, _n: usize, _deg: usize) -> Box<dyn ProtocolNode> {
        let dist = self
            .sources
            .iter()
            .map(|&s| (s == id).then_some(0))
            .collect();
        Box::new(KBfsNode {
            hops: self.hops,
            dist,
            announced: BTreeSet::new(),
            quiet: false,
        })
    }
}

impl ProtocolNode for KBfsNode {
    fn round(&mut self, ctx: &mut RoundContext<'_>) {
        for env in ctx.inbox() {
            if let Some((11, words)) = util::decode(&env.payload) {
                let (src, d) = util::unpack2(words[0]);
                let nd = d + 1;
                let slot = &mut self.dist[src as usize];
                if slot.is_none_or(|cur| nd < cur) {
                    *slot = Some(nd);
                    // re-announce improvements
                    self.announced.remove(&(src as usize));
                }
            }
        }
        // announce the smallest (distance, source) not yet announced
        let next = self
            .dist
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.is_some_and(|d| d < self.hops) && !self.announced.contains(&i))
            .min_by_key(|&(i, d)| (d.expect("filtered"), i));
        match next {
            Some((i, d)) => {
                self.announced.insert(i);
                self.quiet = false;
                let msg = util::encode(11, &[util::pack2(i as u32, d.expect("filtered"))]);
                ctx.send_all(msg).expect("BFS announcements fit the model");
            }
            None => self.quiet = true,
        }
    }

    fn is_done(&self) -> bool {
        self.quiet
    }

    fn output(&self) -> Option<Vec<u8>> {
        let words: Vec<u64> = self
            .dist
            .iter()
            .map(|d| d.map_or(u64::MAX, |d| d as u64))
            .collect();
        Some(util::encode(11, &words))
    }
}

/// Decodes a [`KBfsProtocol`] output into per-source distances
/// (`None` = unreached within the hop limit).
pub fn decode_kbfs_output(payload: &[u8]) -> Vec<Option<u32>> {
    let (tag, words) = util::decode(payload).expect("well-formed output");
    assert_eq!(tag, 11);
    words
        .into_iter()
        .map(|w| (w != u64::MAX).then_some(w as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_congest::{Engine, EngineConfig};
    use das_core::{run_alone, DasProblem, Scheduler, UniformScheduler};
    use das_graph::{generators, traversal};

    #[test]
    fn hop_bfs_alone_matches_bfs() {
        let g = generators::gnp_connected(30, 0.1, 4);
        let algo = HopBfs::new(0, &g, NodeId(5), 10);
        let r = run_alone(&g, &algo, 1).unwrap();
        let dist = traversal::bfs_distances(&g, NodeId(5));
        for v in g.nodes() {
            match r.outputs[v.index()].as_ref() {
                Some(out) => {
                    let d = u32::from_le_bytes(out[..4].try_into().unwrap());
                    assert_eq!(Some(d), dist[v.index()], "node {v}");
                    if v != NodeId(5) {
                        let p = u32::from_le_bytes(out[4..8].try_into().unwrap());
                        assert_eq!(dist[p as usize], Some(d - 1), "parent one closer");
                    }
                }
                None => assert!(dist[v.index()].is_none() || dist[v.index()].unwrap() > 10),
            }
        }
    }

    #[test]
    fn scheduled_bfs_bundle_is_correct() {
        let g = generators::grid(5, 5);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..6)
            .map(|i| {
                Box::new(HopBfs::new(i, &g, NodeId((i * 4 % 25) as u32), 8))
                    as Box<dyn BlackBoxAlgorithm>
            })
            .collect();
        let p = DasProblem::new(&g, algos, 9);
        let outcome = UniformScheduler::default().run(&p).unwrap();
        let rep = das_core::verify::against_references(&p, &outcome).unwrap();
        assert!(rep.all_correct(), "late {}", outcome.stats.late_messages);
    }

    #[test]
    fn k_bfs_protocol_computes_all_distances_in_k_plus_h() {
        let g = generators::grid(6, 6);
        let sources: Vec<NodeId> = (0..8).map(|i| NodeId(i * 4)).collect();
        let h = 12u32;
        let proto = KBfsProtocol::new(sources.clone(), h);
        let report = Engine::new(&g, EngineConfig::default())
            .run(&proto)
            .unwrap();
        for v in g.nodes() {
            let got = decode_kbfs_output(report.outputs[v.index()].as_ref().unwrap());
            for (i, &s) in sources.iter().enumerate() {
                let want = traversal::bfs_distances(&g, s)[v.index()].filter(|&d| d <= h);
                assert_eq!(got[i], want, "node {v} source {s}");
            }
        }
        assert!(
            report.rounds <= (sources.len() as u64 + h as u64) * 2,
            "rounds {} far above k + h",
            report.rounds
        );
    }
}
