//! The distributed MST step machine (filter-upcast over a fragment
//! decomposition).

use super::fragments::{capped_boruvka, FragmentDecomposition};
use super::weights::{EdgeWeights, UnionFind};
use das_core::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
use das_graph::tree::RootedTree;
use das_graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// A candidate inter-fragment edge in transit: (weight, endpoints,
/// fragment ids). Ordered by weight (weights are unique).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    w: u64,
    u: u32,
    v: u32,
    fu: u32,
    fv: u32,
}

fn encode_cand(tag: u8, c: &Cand) -> Vec<u8> {
    das_congest::util::encode(
        tag,
        &[
            c.w,
            das_congest::util::pack2(c.u, c.v),
            das_congest::util::pack2(c.fu, c.fv),
        ],
    )
}

fn decode_cand(words: &[u64]) -> Cand {
    let (u, v) = das_congest::util::unpack2(words[1]);
    let (fu, fv) = das_congest::util::unpack2(words[2]);
    Cand {
        w: words[0],
        u,
        v,
        fu,
        fv,
    }
}

const TAG_UP: u8 = 20;
const TAG_DOWN: u8 = 21;
const TAG_DONE: u8 = 22;

/// The Section 5 MST family: capped-Borůvka fragments (charged as an idle
/// round prefix; see the [module docs](super)) + fully distributed
/// pipelined filter-upcast and downcast on a BFS tree.
///
/// * `diam_cap = 0`: the filter-upcast algorithm
///   (`congestion ≈ dilation ≈ Θ̃(n)`).
/// * `diam_cap ≈ n/L`: the Kutten–Peleg-style trade-off
///   (`congestion ≈ #fragments ≈ L`, `dilation ≈ Θ̃(D + n/L + L)`).
///
/// Every node outputs a digest (XOR + count) of its incident MST edges;
/// the MST is unique because weights are.
#[derive(Clone, Debug)]
pub struct MstAlgorithm {
    aid: Aid,
    decomp: FragmentDecomposition,
    weights: EdgeWeights,
    // BFS tree structure
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    height: u32,
    // per-node owned inter-fragment candidate edges
    owned: Vec<Vec<Cand>>,
    // per-node incident fragment-tree edge weights (for the output digest)
    incident_tree: Vec<Vec<u64>>,
    t_up: u32,
    t_down: u32,
    n_nodes: usize,
}

impl MstAlgorithm {
    /// Builds the algorithm for one weight instance. `diam_cap` is the
    /// fragment diameter cap (0 = filter-upcast configuration).
    ///
    /// # Panics
    /// Panics if `g` is disconnected.
    pub fn new(aid: u64, g: &Graph, weights: EdgeWeights, diam_cap: u32) -> Self {
        let decomp = capped_boruvka(g, &weights, diam_cap);
        let tree = RootedTree::bfs(g, NodeId(0));
        let n = g.node_count();
        let mut owned: Vec<Vec<Cand>> = vec![Vec::new(); n];
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            let (fa, fb) = (decomp.fragment[a.index()], decomp.fragment[b.index()]);
            if fa != fb {
                owned[a.index()].push(Cand {
                    w: weights.weight(e),
                    u: a.0,
                    v: b.0,
                    fu: fa,
                    fv: fb,
                });
            }
        }
        let mut incident_tree: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &e in &decomp.tree_edges {
            let (a, b) = g.endpoints(e);
            incident_tree[a.index()].push(weights.weight(e));
            incident_tree[b.index()].push(weights.weight(e));
        }
        let f = decomp.count as u32;
        let h = tree.height();
        let t_up = 2 * f + 2 * h + 8;
        let t_down = f + h + 8;
        MstAlgorithm {
            aid: Aid(aid),
            parent: (0..n).map(|v| tree.parent(NodeId(v as u32))).collect(),
            children: (0..n)
                .map(|v| tree.children(NodeId(v as u32)).to_vec())
                .collect(),
            height: h,
            owned,
            incident_tree,
            t_up,
            t_down,
            decomp,
            weights,
            n_nodes: n,
        }
    }

    /// The fragment decomposition used.
    pub fn decomposition(&self) -> &FragmentDecomposition {
        &self.decomp
    }

    /// The expected output digest of node `v` given the true MST edge set
    /// (for verification).
    pub fn expected_digest(&self, g: &Graph, mst: &[das_graph::EdgeId], v: NodeId) -> Vec<u8> {
        let mut xor = 0u64;
        let mut count = 0u32;
        for &e in mst {
            let (a, b) = g.endpoints(e);
            if a == v || b == v {
                xor ^= self.weights.weight(e);
                count += 1;
            }
        }
        let mut out = xor.to_le_bytes().to_vec();
        out.extend_from_slice(&count.to_le_bytes());
        out
    }
}

struct MstNode {
    me: NodeId,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    charged: u32,
    t_up: u32,
    round: u32,
    total_rounds: u32,
    n_nodes: usize,
    // upcast state
    pending: BTreeSet<Cand>,
    uf: UnionFind,
    child_last: BTreeMap<NodeId, u64>,
    child_done: BTreeSet<NodeId>,
    sent_done: bool,
    // root's chosen fragment-graph MST edges, in emission order
    chosen: Vec<Cand>,
    emit_idx: usize,
    // downcast forwarding queue and incident results
    down_queue: Vec<Cand>,
    down_idx: usize,
    incident_xor: u64,
    incident_count: u32,
}

impl BlackBoxAlgorithm for MstAlgorithm {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.decomp.charged_rounds + self.t_up + self.t_down
    }

    fn create_node(&self, v: NodeId, _n: usize, _seed: u64) -> Box<dyn AlgoNode> {
        let mut incident_xor = 0u64;
        let mut incident_count = 0u32;
        for &w in &self.incident_tree[v.index()] {
            incident_xor ^= w;
            incident_count += 1;
        }
        Box::new(MstNode {
            me: v,
            parent: self.parent[v.index()],
            children: self.children[v.index()].clone(),
            charged: self.decomp.charged_rounds,
            t_up: self.t_up,
            round: 0,
            total_rounds: self.rounds(),
            n_nodes: self.n_nodes,
            pending: self.owned[v.index()].iter().copied().collect(),
            uf: UnionFind::new(self.n_nodes),
            child_last: BTreeMap::new(),
            child_done: BTreeSet::new(),
            sent_done: false,
            chosen: Vec::new(),
            emit_idx: 0,
            down_queue: Vec::new(),
            down_idx: 0,
            incident_xor,
            incident_count,
        })
    }
}

impl MstAlgorithm {
    /// Height of the BFS upcast tree.
    pub fn tree_height(&self) -> u32 {
        self.height
    }
}

impl MstNode {
    /// Smallest pending candidate that is safe to process: every child has
    /// either finished or already delivered something at least as heavy.
    fn next_safe(&self) -> Option<Cand> {
        let m = *self.pending.first()?;
        let safe = self.children.iter().all(|c| {
            self.child_done.contains(c) || self.child_last.get(c).is_some_and(|&lw| lw >= m.w)
        });
        safe.then_some(m)
    }
}

impl AlgoNode for MstNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (from, payload) in inbox {
            match das_congest::util::decode(payload) {
                Some((TAG_UP, words)) => {
                    let c = decode_cand(&words);
                    self.pending.insert(c);
                    self.child_last.insert(from, c.w);
                }
                Some((TAG_DONE, _)) => {
                    self.child_done.insert(from);
                }
                Some((TAG_DOWN, words)) => {
                    let c = decode_cand(&words);
                    self.down_queue.push(c);
                    if c.u == self.me.0 || c.v == self.me.0 {
                        self.incident_xor ^= c.w;
                        self.incident_count += 1;
                    }
                }
                _ => {}
            }
        }

        let mut sent = false;
        let r = self.round;
        let in_upcast = r >= self.charged && r < self.charged + self.t_up;
        let in_downcast = r >= self.charged + self.t_up && r < self.total_rounds;

        if in_upcast {
            // filter candidates (local Kruskal over fragment ids), sending
            // at most one surviving edge up per round; cycles are discarded
            // for free
            while let Some(c) = self.next_safe() {
                self.pending.remove(&c);
                if self.uf.union(c.fu, c.fv) {
                    match self.parent {
                        Some(p) => {
                            out.push(p, &encode_cand(TAG_UP, &c));
                            sent = true;
                        }
                        None => {
                            // root: this edge is in the fragment-graph MST
                            if c.u == self.me.0 || c.v == self.me.0 {
                                self.incident_xor ^= c.w;
                                self.incident_count += 1;
                            }
                            self.chosen.push(c);
                        }
                    }
                    break;
                }
            }
            // completion marker
            if !self.sent_done
                && !sent
                && self.pending.is_empty()
                && self.children.iter().all(|c| self.child_done.contains(c))
            {
                self.sent_done = true;
                if let Some(p) = self.parent {
                    out.push(p, &das_congest::util::encode(TAG_DONE, &[]));
                }
            }
        } else if in_downcast {
            // root seeds the downcast from its chosen list; everyone else
            // forwards its queue, one edge per round, to all children
            let item = if self.parent.is_none() {
                let c = self.chosen.get(self.emit_idx).copied();
                if c.is_some() {
                    self.emit_idx += 1;
                }
                c
            } else {
                let c = self.down_queue.get(self.down_idx).copied();
                if c.is_some() {
                    self.down_idx += 1;
                }
                c
            };
            if let Some(c) = item {
                let payload = encode_cand(TAG_DOWN, &c);
                for &ch in &self.children {
                    out.push(ch, &payload);
                }
            }
        }

        self.round += 1;
        let _ = self.n_nodes;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.incident_xor.to_le_bytes());
        out.put(&self.incident_count.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::weights::kruskal_mst;
    use das_core::run_alone;
    use das_graph::generators;

    fn check_mst(g: &Graph, seed: u64, cap: u32) {
        let w = EdgeWeights::random(g, seed);
        let algo = MstAlgorithm::new(0, g, w, cap);
        let mst = kruskal_mst(g, &EdgeWeights::random(g, seed));
        let r = run_alone(g, &algo, 1).unwrap();
        for v in g.nodes() {
            assert_eq!(
                r.outputs[v.index()].as_deref(),
                Some(&algo.expected_digest(g, &mst, v)[..]),
                "node {v} (seed {seed}, cap {cap})"
            );
        }
    }

    #[test]
    fn filter_upcast_computes_exact_mst() {
        check_mst(&generators::path(10), 1, 0);
        check_mst(&generators::cycle(9), 2, 0);
        check_mst(&generators::grid(5, 5), 3, 0);
        check_mst(&generators::gnp_connected(24, 0.15, 5), 4, 0);
    }

    #[test]
    fn fragment_variants_compute_exact_mst() {
        for cap in [2, 4, 16] {
            check_mst(&generators::grid(5, 5), 7, cap);
            check_mst(&generators::gnp_connected(30, 0.1, 11), 8, cap);
        }
    }

    #[test]
    fn tradeoff_congestion_shrinks_with_cap() {
        let g = generators::gnp_connected(48, 0.1, 2);
        let w = EdgeWeights::random(&g, 3);
        let small_cap = MstAlgorithm::new(0, &g, w.clone(), 1);
        let big_cap = MstAlgorithm::new(0, &g, w, 24);
        let r_small = run_alone(&g, &small_cap, 0).unwrap();
        let r_big = run_alone(&g, &big_cap, 0).unwrap();
        // bigger fragments ⇒ fewer inter-fragment edges cross the BFS tree
        assert!(
            r_big.pattern.edge_loads().iter().max().unwrap()
                < r_small.pattern.edge_loads().iter().max().unwrap(),
            "congestion should drop with larger fragments"
        );
        // …and the charged fragment phase grows with the cap
        assert!(big_cap.decomposition().charged_rounds > small_cap.decomposition().charged_rounds);
    }
}
