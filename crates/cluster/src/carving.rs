//! Single-layer ball carving (Lemma 4.2): centralized reference and the
//! distributed smallest-label flood with fake initial hop-counts.

use crate::radius::TruncatedExponential;
use das_congest::{util, Protocol, ProtocolNode, RoundContext};
use das_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Message tag for carving floods.
const TAG_CARVE: u8 = 1;

/// The per-node random draws of one carving layer: a truncated-exponential
/// radius `r(u)` and a uniform label `ℓ(u)`.
///
/// Conceptually each node draws these privately; they are generated
/// centrally from a seed so that the distributed protocol and the
/// centralized reference can be run on identical draws.
#[derive(Clone, Debug)]
pub struct LayerParams {
    /// `r(u)` per node, clamped to the horizon.
    pub radius: Vec<u32>,
    /// `ℓ(u)` per node.
    pub label: Vec<u64>,
    /// The travel horizon `H = Θ(dilation · log n)`.
    pub horizon: u32,
}

impl LayerParams {
    /// Draws the layer's radii and labels.
    pub fn generate(n: usize, law: &TruncatedExponential, horizon: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let radius = (0..n).map(|_| law.sample(&mut rng).min(horizon)).collect();
        let label = (0..n).map(|_| rng.gen::<u64>()).collect();
        LayerParams {
            radius,
            label,
            horizon,
        }
    }

    /// The cluster priority key of node `u`: clusters are won by the
    /// smallest `(label, id)` pair (the id breaks the measure-zero ties).
    pub fn key(&self, u: NodeId) -> (u64, u32) {
        (self.label[u.index()], u.0)
    }
}

/// Centralized reference carving: node `v` joins the cluster of the center
/// `w` with the smallest `(label, id)` among all `w` with
/// `dist(v, w) ≤ r(w)`. Returns the center of each node.
///
/// Every node is always assigned (its own ball contains it).
///
/// Balls are grown in `(label, id)` order, so the first ball to touch a
/// node wins it, and each BFS is **pruned** by what earlier balls already
/// cover: `reach[v]` is 1 + the largest remaining radius any earlier ball
/// had at `v` (0 = untouched). A ball arriving at `v` with no more
/// remaining radius than that can claim nothing through `v` — everything
/// it could still reach from there lies in an earlier, smaller-labeled
/// ball — so it is not expanded; a center whose own `reach` exceeds its
/// radius is skipped outright. The result is exact: an unclaimed node of
/// the current ball has a shortest path from the center free of pruned
/// nodes (a pruned node on it would put the node inside an earlier ball),
/// so it is still reached. `reach` doubles as the visited mark, because a
/// BFS reaches a node first at its largest remainder. Total work is
/// near-linear instead of `n ×` ball size.
pub fn carve_layer_centralized(g: &Graph, params: &LayerParams) -> Vec<NodeId> {
    let n = g.node_count();
    assert_eq!(params.radius.len(), n, "params sized for a different graph");
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_unstable_by_key(|&u| params.key(u));
    let mut center: Vec<Option<NodeId>> = vec![None; n];
    let mut reach = vec![0u32; n];
    let mut queue = VecDeque::new();
    for &w in &order {
        let r = params.radius[w.index()];
        if reach[w.index()] > r {
            continue;
        }
        reach[w.index()] = r.saturating_add(1);
        queue.push_back((w, r));
        while let Some((v, rem)) = queue.pop_front() {
            if center[v.index()].is_none() {
                center[v.index()] = Some(w);
            }
            // arriving at `u` leaves `rem − 1`, which beats `reach[u]`
            // exactly when `rem > reach[u]`
            for &(u, _) in g.neighbors(v) {
                if reach[u.index()] < rem {
                    reach[u.index()] = rem;
                    queue.push_back((u, rem - 1));
                }
            }
        }
    }
    center
        .into_iter()
        .map(|c| c.expect("every node is covered by its own ball"))
        .collect()
}

/// The distributed carving flood of Lemma 4.2.
///
/// Each node `u` injects a message carrying its label with fake initial
/// hop-count `H − r(u)`; in round `i` every node forwards (to all
/// neighbors) the smallest-label message it knows whose hop-count is below
/// `i`, promoting its hop-count to `i` — so waiting costs range, and a
/// message can never escape its center's ball. After `H` rounds each node
/// outputs the smallest `(label, id)` it heard: its cluster center.
///
/// Run it with [`das_congest::Engine`] configured for
/// `fixed_rounds = H + 1`; outputs decode as `(label, center)` via
/// `decode_carve_output`.
pub struct CarvingProtocol {
    params: LayerParams,
}

impl CarvingProtocol {
    /// Creates the protocol for one layer's draws.
    pub fn new(params: LayerParams) -> Self {
        CarvingProtocol { params }
    }

    /// The number of engine rounds the protocol needs: `H + 1` (one extra
    /// round to absorb messages sent in round `H`).
    pub fn rounds_needed(&self) -> u64 {
        self.params.horizon as u64 + 1
    }
}

struct CarvingNode {
    /// Own (label, id) — competes for the cluster choice from round 0.
    own_key: (u64, u32),
    /// Own initial hop-count `H − r(v)`; the own message becomes eligible
    /// for forwarding only in paper rounds `i > own_hop`.
    own_hop: u32,
    /// Smallest (label, center) among *received* messages (always eligible:
    /// a received message carries a hop-count below the current round).
    best_received: Option<(u64, u32)>,
    horizon: u32,
    /// Smallest (label, center) forwarded so far; forwarding anything
    /// larger would be useless (receivers prefer smaller).
    forwarded: Option<(u64, u32)>,
}

impl Protocol for CarvingProtocol {
    fn create_node(&self, id: NodeId, _n: usize, _deg: usize) -> Box<dyn ProtocolNode> {
        let r = self.params.radius[id.index()];
        let own_hop = self.params.horizon - r.min(self.params.horizon);
        Box::new(CarvingNode {
            own_key: (self.params.label[id.index()], id.0),
            own_hop,
            best_received: None,
            horizon: self.params.horizon,
            forwarded: None,
        })
    }
}

impl ProtocolNode for CarvingNode {
    fn round(&mut self, ctx: &mut RoundContext<'_>) {
        // Engine round t corresponds to the paper's round i = t + 1.
        let i = (ctx.round() + 1) as u32;
        for env in ctx.inbox() {
            if let Some((TAG_CARVE, words)) = util::decode(&env.payload) {
                let key = (words[1], words[2] as u32);
                if self.best_received.is_none_or(|b| key < b) {
                    self.best_received = Some(key);
                }
            }
        }
        if i > self.horizon {
            return; // absorption round only
        }
        // Candidate = smallest eligible message: received ones are always
        // eligible; the own injection only once its fake hop-count is past.
        let mut cand = self.best_received;
        if self.own_hop < i && cand.is_none_or(|c| self.own_key < c) {
            cand = Some(self.own_key);
        }
        if let Some((label, center)) = cand {
            if self.forwarded.is_none_or(|f| (label, center) < f) {
                self.forwarded = Some((label, center));
                let payload = util::encode(TAG_CARVE, &[i as u64, label, center as u64]);
                ctx.send_all(payload)
                    .expect("carving stays within the model");
            }
        }
    }

    fn output(&self) -> Option<Vec<u8>> {
        let best = match self.best_received {
            Some(b) if b < self.own_key => b,
            _ => self.own_key,
        };
        Some(util::encode(TAG_CARVE, &[best.0, best.1 as u64]))
    }
}

/// Decodes a [`CarvingProtocol`] node output into `(label, center)`.
pub fn decode_carve_output(payload: &[u8]) -> (u64, NodeId) {
    let (tag, words) = util::decode(payload).expect("carving output is well-formed");
    assert_eq!(tag, TAG_CARVE);
    (words[0], NodeId(words[1] as u32))
}

/// Runs the distributed carving on `g` and returns (per-node center,
/// rounds used).
pub fn carve_layer_distributed(
    g: &Graph,
    params: &LayerParams,
    engine_seed: u64,
) -> (Vec<NodeId>, u64) {
    let proto = CarvingProtocol::new(params.clone());
    let rounds = proto.rounds_needed();
    let cfg = das_congest::EngineConfig::default()
        .with_fixed_rounds(rounds)
        .with_record(false)
        .with_seed(engine_seed);
    let report = das_congest::Engine::new(g, cfg)
        .run(&proto)
        .expect("carving respects the CONGEST model");
    let centers = report
        .outputs
        .iter()
        .map(|o| decode_carve_output(o.as_ref().expect("every node outputs")).1)
        .collect();
    (centers, report.rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    fn params_for(g: &Graph, rate: f64, horizon: u32, seed: u64) -> LayerParams {
        let law = TruncatedExponential::new(rate, horizon);
        LayerParams::generate(g.node_count(), &law, horizon, seed)
    }

    /// The unpruned carving — a full BFS of every node's ball, first ball
    /// to touch a node wins it. The oracle the pruned production carve
    /// must match exactly.
    fn carve_layer_full_bfs(g: &Graph, params: &LayerParams) -> Vec<NodeId> {
        let n = g.node_count();
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_unstable_by_key(|&u| params.key(u));
        let mut center: Vec<Option<NodeId>> = vec![None; n];
        let mut dist = vec![u32::MAX; n];
        let mut stamp = vec![u32::MAX; n]; // last BFS that touched the node
        for (run, &w) in order.iter().enumerate() {
            let run = run as u32;
            let r = params.radius[w.index()];
            let mut queue = VecDeque::new();
            dist[w.index()] = 0;
            stamp[w.index()] = run;
            queue.push_back(w);
            while let Some(v) = queue.pop_front() {
                if center[v.index()].is_none() {
                    center[v.index()] = Some(w);
                }
                let d = dist[v.index()];
                if d == r {
                    continue;
                }
                for &(u, _) in g.neighbors(v) {
                    if stamp[u.index()] != run {
                        stamp[u.index()] = run;
                        dist[u.index()] = d + 1;
                        queue.push_back(u);
                    }
                }
            }
        }
        center.into_iter().map(|c| c.unwrap()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn pruned_carve_equals_full_ball_bfs(
            family in 0usize..4,
            size in 2usize..40,
            seed: u64,
            rate in 0.5f64..12.0,
            horizon in 1u32..30,
            shape in 0usize..5,
        ) {
            let g = match family {
                0 => generators::path(size),
                1 => generators::grid(size.min(7), 2 + size % 6),
                2 => generators::gnp_connected(size, 0.12, seed),
                _ => generators::star(size),
            };
            let n = g.node_count();
            let mut params = params_for(&g, rate, horizon, seed);
            match shape {
                // the law's own draws
                0 | 1 => {}
                // all singletons
                2 => params.radius = vec![0; n],
                // radii at and past the horizon (the reference never clamps)
                3 => {
                    for (v, r) in params.radius.iter_mut().enumerate() {
                        *r = horizon + (v as u32 % 3);
                    }
                }
                // one smallest-labeled ball covering everything
                _ => {
                    let w = (seed % n as u64) as usize;
                    params.label[w] = 0;
                    params.radius[w] = u32::MAX;
                }
            }
            proptest::prop_assert_eq!(
                carve_layer_centralized(&g, &params),
                carve_layer_full_bfs(&g, &params)
            );
        }
    }

    #[test]
    fn centralized_assigns_everyone() {
        let g = generators::grid(6, 6);
        let params = params_for(&g, 3.0, 20, 1);
        let centers = carve_layer_centralized(&g, &params);
        assert_eq!(centers.len(), 36);
        // every assigned center's ball really covers the node (note: a
        // center does not necessarily belong to its own cluster)
        for v in g.nodes() {
            let c = centers[v.index()];
            let d = das_graph::traversal::bfs_distances(&g, c)[v.index()].unwrap();
            assert!(d <= params.radius[c.index()], "{v} outside ball of {c}");
        }
    }

    #[test]
    fn members_are_within_center_radius() {
        let g = generators::gnp_connected(50, 0.06, 5);
        let params = params_for(&g, 4.0, 30, 2);
        let centers = carve_layer_centralized(&g, &params);
        for v in g.nodes() {
            let c = centers[v.index()];
            let d = das_graph::traversal::bfs_distances(&g, c)[v.index()].unwrap();
            assert!(
                d <= params.radius[c.index()],
                "{v} at distance {d} from center {c} with radius {}",
                params.radius[c.index()]
            );
        }
    }

    #[test]
    fn winner_is_min_label_covering_ball() {
        let g = generators::path(12);
        let params = params_for(&g, 3.0, 15, 3);
        let centers = carve_layer_centralized(&g, &params);
        for v in g.nodes() {
            let dist = das_graph::traversal::bfs_distances(&g, v);
            let best = g
                .nodes()
                .filter(|w| dist[w.index()].unwrap() <= params.radius[w.index()])
                .min_by_key(|&w| params.key(w))
                .unwrap();
            assert_eq!(centers[v.index()], best, "node {v}");
        }
    }

    #[test]
    fn distributed_matches_centralized() {
        for (gi, g) in [
            generators::path(20),
            generators::grid(5, 6),
            generators::gnp_connected(40, 0.08, 9),
            generators::balanced_tree(31, 2),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..5u64 {
                let params = params_for(g, 3.0, 24, seed * 31 + gi as u64);
                let want = carve_layer_centralized(g, &params);
                let (got, rounds) = carve_layer_distributed(g, &params, 7);
                assert_eq!(got, want, "graph {gi} seed {seed}");
                assert_eq!(rounds, params.horizon as u64 + 1);
            }
        }
    }

    #[test]
    fn zero_radii_make_singletons() {
        let g = generators::path(5);
        let params = LayerParams {
            radius: vec![0; 5],
            label: vec![50, 40, 30, 20, 10],
            horizon: 10,
        };
        let centers = carve_layer_centralized(&g, &params);
        for v in g.nodes() {
            assert_eq!(centers[v.index()], v);
        }
        let (dist_centers, _) = carve_layer_distributed(&g, &params, 0);
        assert_eq!(dist_centers, centers);
    }

    #[test]
    fn huge_radius_smallest_label_takes_all() {
        let g = generators::cycle(9);
        let mut params = params_for(&g, 2.0, 20, 4);
        params.radius[3] = 20;
        params.label[3] = 0; // strictly smallest
        let centers = carve_layer_centralized(&g, &params);
        for v in g.nodes() {
            assert_eq!(centers[v.index()], NodeId(3));
        }
        let (dist_centers, _) = carve_layer_distributed(&g, &params, 0);
        assert_eq!(dist_centers, centers);
    }

    #[test]
    fn output_decodes() {
        let g = generators::path(3);
        let params = params_for(&g, 2.0, 8, 5);
        let proto = CarvingProtocol::new(params.clone());
        let cfg = das_congest::EngineConfig::default().with_fixed_rounds(proto.rounds_needed());
        let rep = das_congest::Engine::new(&g, cfg).run(&proto).unwrap();
        for v in g.nodes() {
            let (label, center) = decode_carve_output(rep.outputs[v.index()].as_ref().unwrap());
            assert_eq!(label, params.label[center.index()]);
        }
    }
}
