//! Breadth-first search workloads (§1 item II).
//!
//! [`HopBfs`] is a single-source `h`-hop BFS as a schedulable black box —
//! the paper's running example of an algorithm whose communication pattern
//! cannot be known in advance. [`KBfsProtocol`] is a Lenzen–Peleg-style
//! combined protocol that runs `k` BFSs together in `O(k + h)` rounds by
//! pipelining distance announcements smallest-first.

use crate::adjacency::Adjacency;
use das_congest::{util, NodeBatch};
use das_core::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
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
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        // deterministic parent choice: smallest-id announcer of the first
        // round that reaches us
        let mut best: Option<NodeId> = None;
        for (from, _payload) in inbox {
            if self.dist.is_none() && best.is_none_or(|b| from < b) {
                best = Some(from);
            }
        }
        if let Some(from) = best {
            self.dist = Some(self.round);
            self.parent = Some(from);
            self.pending = true;
        }
        if self.pending && self.round < self.hops {
            self.pending = false;
            let payload = u64::from(self.dist.expect("pending implies dist")).to_le_bytes();
            for &u in self.adjacency.neighbors(self.me) {
                out.push(u, &payload);
            }
        }
        self.round += 1;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        if let Some(d) = self.dist {
            out.put(&d.to_le_bytes());
            out.put(&self.parent.map_or(u32::MAX, |p| p.0).to_le_bytes());
        }
    }
}

/// `k` BFSs from different sources run together: every round, every node
/// announces its best not-yet-announced `(distance, source)` entry,
/// smallest first. The pipelining argument of Lenzen–Peleg gives `O(k + h)`
/// rounds. Each node outputs its distance vector to the `k` sources. A
/// node with nothing left to announce sends nothing, so run
/// [`Until::Quiet`](das_congest::Until::Quiet) the protocol stops on its
/// own.
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

    /// One machine per node of `g`.
    pub fn machines(&self, g: &Graph) -> NodeBatch {
        NodeBatch::for_graph(g, |id, neighbors| {
            Box::new(KBfsNode {
                neighbors,
                hops: self.hops,
                dist: self
                    .sources
                    .iter()
                    .map(|&s| (s == id).then_some(0))
                    .collect(),
                announced: BTreeSet::new(),
            })
        })
    }
}

struct KBfsNode {
    neighbors: Vec<NodeId>,
    hops: u32,
    /// best known distance per source index
    dist: Vec<Option<u32>>,
    announced: BTreeSet<usize>,
}

impl AlgoNode for KBfsNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (_, payload) in inbox {
            if let Some((11, words)) = util::decode(payload) {
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
        if let Some((i, d)) = next {
            self.announced.insert(i);
            let msg = util::encode(11, &[util::pack2(i as u32, d.expect("filtered"))]);
            out.push_all(&self.neighbors, &msg);
        }
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        let words: Vec<u64> = self
            .dist
            .iter()
            .map(|d| d.map_or(u64::MAX, |d| d as u64))
            .collect();
        out.put(&util::encode(11, &words));
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
    use das_congest::{run_rounds, Until};
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
        let mut batch = proto.machines(&g);
        let ran = run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap();
        let outputs = batch.outputs();
        for v in g.nodes() {
            let got = decode_kbfs_output(outputs[v.index()].as_ref().unwrap());
            for (i, &s) in sources.iter().enumerate() {
                let want = traversal::bfs_distances(&g, s)[v.index()].filter(|&d| d <= h);
                assert_eq!(got[i], want, "node {v} source {s}");
            }
        }
        assert!(
            ran.rounds <= (sources.len() as u32 + h) * 2,
            "rounds {} far above k + h",
            ran.rounds
        );
    }
}
