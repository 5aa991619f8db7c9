//! Property (4) of Lemma 4.2: each node learns a radius around it that is
//! fully contained in its cluster, via a flood from cluster boundaries.

use das_congest::{run_rounds, util, AlgoNode, Inbox, NodeBatch, OutputSink, Sends, Until};
use das_graph::{Graph, NodeId};
use std::collections::VecDeque;

const TAG_LABEL: u8 = 2;
const TAG_BOUNDARY: u8 = 3;

/// Centralized reference: for each node, the distance to the nearest
/// *boundary node* (a node with a neighbor in a different cluster), capped
/// at `cap`. A ball of this radius around the node is guaranteed to lie
/// inside the node's cluster; if no boundary exists (one big cluster) every
/// node gets `cap`.
pub fn boundary_distances_centralized(g: &Graph, center: &[NodeId], cap: u32) -> Vec<u32> {
    let n = g.node_count();
    assert_eq!(center.len(), n, "assignment sized for a different graph");
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for v in g.nodes() {
        let boundary = g
            .neighbors(v)
            .iter()
            .any(|&(u, _)| center[u.index()] != center[v.index()]);
        if boundary {
            dist[v.index()] = 0;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        if d >= cap {
            continue;
        }
        for &(u, _) in g.neighbors(v) {
            if dist[u.index()] == u32::MAX {
                dist[u.index()] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist.into_iter().map(|d| d.min(cap)).collect()
}

/// The distributed boundary-distance protocol.
///
/// Round 0: every node sends its cluster label to its neighbors.
/// Round 1: nodes seeing a different label mark themselves boundary and
/// start a flood; thereafter every node records the first round a boundary
/// message reaches it (distance = round − 1) and forwards once. Runs for
/// `cap + 2` rounds.
pub struct BoundaryProtocol {
    /// Per-node cluster key (label, center) from the carving.
    keys: Vec<(u64, u32)>,
    cap: u32,
}

impl BoundaryProtocol {
    /// Creates the protocol from a per-node center assignment and carving
    /// labels.
    pub fn new(center: &[NodeId], label_of_center: impl Fn(NodeId) -> u64, cap: u32) -> Self {
        let keys = center.iter().map(|&c| (label_of_center(c), c.0)).collect();
        BoundaryProtocol { keys, cap }
    }

    /// Rounds the protocol needs.
    pub fn rounds_needed(&self) -> u32 {
        self.cap + 2
    }

    /// One machine per node of `g`.
    pub fn machines(&self, g: &Graph) -> NodeBatch {
        NodeBatch::for_graph(g, |id, neighbors| {
            Box::new(BoundaryNode {
                neighbors,
                round: 0,
                key: self.keys[id.index()],
                cap: self.cap,
                dist: None,
                forwarded: false,
            })
        })
    }
}

struct BoundaryNode {
    neighbors: Vec<NodeId>,
    /// Rounds stepped so far.
    round: u32,
    key: (u64, u32),
    cap: u32,
    dist: Option<u32>,
    forwarded: bool,
}

impl AlgoNode for BoundaryNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        let t = self.round;
        self.round += 1;
        if t == 0 {
            let payload = util::encode(TAG_LABEL, &[self.key.0, self.key.1 as u64]);
            out.push_all(&self.neighbors, &payload);
            return;
        }
        if t == 1 {
            let foreign = inbox.iter().any(|(_, payload)| {
                matches!(util::decode(payload),
                         Some((TAG_LABEL, words)) if (words[0], words[1] as u32) != self.key)
            });
            if foreign {
                self.dist = Some(0);
                self.forwarded = true;
                out.push_all(&self.neighbors, &util::encode(TAG_BOUNDARY, &[]));
            }
            return;
        }
        let heard = inbox
            .iter()
            .any(|(_, payload)| util::peek_tag(payload) == Some(TAG_BOUNDARY));
        if heard && self.dist.is_none() {
            self.dist = Some(t - 1);
        }
        if heard && !self.forwarded && t <= self.cap {
            self.forwarded = true;
            out.push_all(&self.neighbors, &util::encode(TAG_BOUNDARY, &[]));
        }
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&util::encode(
            TAG_BOUNDARY,
            &[self.dist.unwrap_or(self.cap) as u64],
        ));
    }
}

/// Decodes a [`BoundaryProtocol`] output into the contained radius.
pub fn decode_boundary_output(payload: &[u8]) -> u32 {
    let (tag, words) = util::decode(payload).expect("boundary output is well-formed");
    assert_eq!(tag, TAG_BOUNDARY);
    words[0] as u32
}

/// Runs the distributed boundary protocol; returns (per-node contained
/// radius capped at `cap`, rounds used).
pub fn boundary_distances_distributed(
    g: &Graph,
    center: &[NodeId],
    labels: &[u64],
    cap: u32,
) -> (Vec<u32>, u64) {
    let proto = BoundaryProtocol::new(center, |c| labels[c.index()], cap);
    let mut batch = proto.machines(g);
    let ran = run_rounds(g, &mut batch, Until::exactly(proto.rounds_needed()), None)
        .expect("boundary protocol respects the model");
    let dists = batch
        .outputs()
        .iter()
        .map(|o| decode_boundary_output(o.as_ref().expect("every node outputs")).min(cap))
        .collect();
    (dists, ran.rounds.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    /// Two clusters split down the middle of a path.
    fn split_path(n: usize, split: usize) -> (Graph, Vec<NodeId>) {
        let g = generators::path(n);
        let center: Vec<NodeId> = (0..n)
            .map(|i| {
                if i < split {
                    NodeId(0)
                } else {
                    NodeId((n - 1) as u32)
                }
            })
            .collect();
        (g, center)
    }

    #[test]
    fn centralized_distances_on_split_path() {
        let (g, center) = split_path(8, 4);
        let d = boundary_distances_centralized(&g, &center, 10);
        // boundary nodes are 3 and 4
        assert_eq!(d, vec![3, 2, 1, 0, 0, 1, 2, 3]);
    }

    #[test]
    fn cap_applies() {
        let (g, center) = split_path(8, 4);
        let d = boundary_distances_centralized(&g, &center, 2);
        assert_eq!(d, vec![2, 2, 1, 0, 0, 1, 2, 2]);
    }

    #[test]
    fn single_cluster_has_no_boundary() {
        let g = generators::cycle(6);
        let center = vec![NodeId(0); 6];
        let d = boundary_distances_centralized(&g, &center, 7);
        assert_eq!(d, vec![7; 6]);
        let labels = vec![1u64; 6];
        let (dd, _) = boundary_distances_distributed(&g, &center, &labels, 7);
        assert_eq!(dd, d);
    }

    #[test]
    fn contained_ball_really_is_contained() {
        // property check on a random clustering
        let g = generators::gnp_connected(40, 0.07, 13);
        let law = crate::radius::TruncatedExponential::new(3.0, 20);
        let params = crate::carving::LayerParams::generate(40, &law, 20, 5);
        let center = crate::carving::carve_layer_centralized(&g, &params);
        let d = boundary_distances_centralized(&g, &center, 20);
        for v in g.nodes() {
            for u in das_graph::traversal::ball(&g, v, d[v.index()]) {
                assert_eq!(
                    center[u.index()],
                    center[v.index()],
                    "ball({v}, {}) leaks out of the cluster at {u}",
                    d[v.index()]
                );
            }
        }
    }

    #[test]
    fn distributed_matches_centralized() {
        for seed in 0..4u64 {
            let g = generators::gnp_connected(35, 0.08, seed);
            let law = crate::radius::TruncatedExponential::new(2.5, 16);
            let params = crate::carving::LayerParams::generate(35, &law, 16, seed + 100);
            let center = crate::carving::carve_layer_centralized(&g, &params);
            let want = boundary_distances_centralized(&g, &center, 16);
            let (got, rounds) = boundary_distances_distributed(&g, &center, &params.label, 16);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(rounds, 18);
        }
    }
}
