//! Multi-layer clustering orchestration (Lemma 4.2 in full).

use crate::boundary::{boundary_distances_centralized, boundary_distances_distributed};
use crate::carving::{carve_layer_centralized, carve_layer_distributed, LayerParams};
use crate::radius::TruncatedExponential;
use das_congest::util::seed_mix;
use das_graph::{Graph, NodeId};

/// Parameters of the clustering: the radius law, the travel horizon, and
/// the number of independent layers.
#[derive(Clone, Debug)]
pub struct CarveConfig {
    /// The dilation `D` the clustering must pad for.
    pub dilation: u32,
    /// Scale `R = Θ(dilation)` of the truncated-exponential radius law.
    pub radius_rate: f64,
    /// Travel horizon `H = Θ(dilation · log n)`; also the weak-radius cap.
    pub horizon: u32,
    /// Number of independent layers, `Θ(log n)`.
    pub num_layers: usize,
}

impl CarveConfig {
    /// The paper's parameterization for a network `g` and a target
    /// dilation: rate `R = 4·max(1, D)`, horizon `H = ⌈R·(ln n + 1)⌉`, and
    /// `⌈3·log₂ n⌉` layers.
    pub fn for_dilation(g: &Graph, dilation: u32) -> Self {
        let n = g.node_count().max(2) as f64;
        let radius_rate = 4.0 * dilation.max(1) as f64;
        let horizon = (radius_rate * (n.ln() + 1.0)).ceil() as u32;
        let num_layers = (3.0 * n.log2()).ceil() as usize;
        CarveConfig {
            dilation,
            radius_rate,
            horizon,
            num_layers,
        }
    }

    /// Overrides the number of layers.
    pub fn with_num_layers(mut self, layers: usize) -> Self {
        self.num_layers = layers.max(1);
        self
    }

    /// Overrides the horizon.
    pub fn with_horizon(mut self, horizon: u32) -> Self {
        self.horizon = horizon;
        self
    }

    /// The radius law induced by the config.
    pub fn radius_law(&self) -> TruncatedExponential {
        TruncatedExponential::new(self.radius_rate, self.horizon)
    }
}

/// One clustering layer: a node-disjoint family of clusters.
///
/// Built by [`Clustering`]'s carve, which also derives the dense cluster
/// index ([`Layer::centers`], [`Layer::cluster_of`]) from `center` once;
/// treat the public vectors as read-only or the index goes stale.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Per-node cluster center.
    pub center: Vec<NodeId>,
    /// Per-node label of its cluster (the center's carving label).
    pub label: Vec<u64>,
    /// Per-node certified contained radius: `ball(v, contained_radius[v])`
    /// lies inside `v`'s cluster (property (4) of Lemma 4.2).
    pub contained_radius: Vec<u32>,
    /// The random draws that produced this layer (centers need their radii
    /// again for the randomness-sharing flood).
    pub params: LayerParams,
    /// The distinct centers, ascending — cluster `i` is `centers[i]`'s.
    centers: Vec<NodeId>,
    /// Per-node cluster index into `centers`.
    cluster_of: Vec<u32>,
}

impl Layer {
    fn new(center: Vec<NodeId>, contained_radius: Vec<u32>, params: LayerParams) -> Self {
        // mark the nodes that are somebody's center, then number the
        // marked ones in ascending id order
        let mut rank = vec![u32::MAX; center.len()];
        for c in &center {
            rank[c.index()] = 0;
        }
        let mut centers = Vec::new();
        for (v, slot) in rank.iter_mut().enumerate() {
            if *slot == 0 {
                *slot = centers.len() as u32;
                centers.push(NodeId(v as u32));
            }
        }
        let cluster_of = center.iter().map(|c| rank[c.index()]).collect();
        let label = center.iter().map(|c| params.label[c.index()]).collect();
        Layer {
            center,
            label,
            contained_radius,
            params,
            centers,
            cluster_of,
        }
    }

    /// Whether node `v` is the center of some cluster in this layer.
    ///
    /// Note that a center does not necessarily belong to its own cluster:
    /// the carving rule assigns every node (centers included) to the
    /// smallest-labeled ball covering it, which for `v` itself may be a
    /// ball other than `B(v)`.
    pub fn is_center(&self, v: NodeId) -> bool {
        self.centers.binary_search(&v).is_ok()
    }

    /// The distinct cluster centers of this layer, ascending by id.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// Per-node dense cluster index: `centers()[cluster_of()[v]]` is
    /// `center[v]`.
    pub fn cluster_of(&self) -> &[u32] {
        &self.cluster_of
    }
}

/// The full `Θ(log n)`-layer clustering of Lemma 4.2.
#[derive(Clone, Debug)]
pub struct Clustering {
    config: CarveConfig,
    layers: Vec<Layer>,
    /// CONGEST rounds consumed building it (measured when carved
    /// distributedly; the analytic cost of the same protocols when carved
    /// centrally).
    precompute_rounds: u64,
}

impl Clustering {
    /// Builds the clustering with the fast centralized reference
    /// implementations (bit-identical to the distributed protocols; see the
    /// cross-validation tests). `precompute_rounds` is set to the rounds
    /// the distributed protocols would use.
    pub fn carve_centralized(g: &Graph, config: &CarveConfig, seed: u64) -> Self {
        Self::carve(g, config, seed, false)
    }

    /// Builds the clustering by honestly running the distributed carving
    /// and boundary protocols in CONGEST rounds
    /// ([`das_congest::run_rounds`]), measuring rounds.
    pub fn carve_distributed(g: &Graph, config: &CarveConfig, seed: u64) -> Self {
        Self::carve(g, config, seed, true)
    }

    fn carve(g: &Graph, config: &CarveConfig, seed: u64, distributed: bool) -> Self {
        let n = g.node_count();
        let law = config.radius_law();
        let mut layers = Vec::with_capacity(config.num_layers);
        let mut rounds = 0u64;
        for l in 0..config.num_layers {
            let params = LayerParams::generate(n, &law, config.horizon, seed_mix(seed, l as u64));
            let (center, carve_rounds) = if distributed {
                carve_layer_distributed(g, &params)
            } else {
                (
                    carve_layer_centralized(g, &params),
                    config.horizon as u64 + 1,
                )
            };
            let (contained, boundary_rounds) = if distributed {
                boundary_distances_distributed(g, &center, &params.label, config.horizon)
            } else {
                (
                    boundary_distances_centralized(g, &center, config.horizon),
                    config.horizon as u64 + 2,
                )
            };
            rounds += carve_rounds + boundary_rounds;
            layers.push(Layer::new(center, contained, params));
        }
        Clustering {
            config: config.clone(),
            layers,
            precompute_rounds: rounds,
        }
    }

    /// The layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The configuration used.
    pub fn config(&self) -> &CarveConfig {
        &self.config
    }

    /// CONGEST rounds consumed (or chargeable) for the carving.
    pub fn precompute_rounds(&self) -> u64 {
        self.precompute_rounds
    }

    /// Indices of the layers whose cluster around `v` certifiably contains
    /// `ball(v, radius)` — the layers `v` may adopt outputs from.
    pub fn covering_layers(&self, v: NodeId, radius: u32) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contained_radius[v.index()] >= radius)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    #[test]
    fn config_defaults_scale() {
        let g = generators::grid(8, 8);
        let c = CarveConfig::for_dilation(&g, 3);
        assert_eq!(c.dilation, 3);
        assert!(c.radius_rate >= 12.0);
        assert!(c.horizon as f64 >= c.radius_rate);
        assert!(c.num_layers >= 18, "3·log2(64) = 18, got {}", c.num_layers);
    }

    #[test]
    fn layers_partition_nodes() {
        let g = generators::gnp_connected(30, 0.1, 21);
        let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(6);
        let cl = Clustering::carve_centralized(&g, &cfg, 77);
        assert_eq!(cl.layers().len(), 6);
        for layer in cl.layers() {
            // node-disjoint by construction (a map); labels match centers
            for v in g.nodes() {
                let c = layer.center[v.index()];
                assert!(layer.is_center(c));
                assert_eq!(layer.label[v.index()], layer.params.label[c.index()]);
                assert_eq!(layer.centers()[layer.cluster_of()[v.index()] as usize], c);
            }
            // the index is the sorted distinct set of `center`, and nothing else
            let mut want = layer.center.clone();
            want.sort_unstable();
            want.dedup();
            assert_eq!(layer.centers(), want);
            for v in g.nodes() {
                assert_eq!(layer.is_center(v), want.contains(&v));
            }
        }
    }

    #[test]
    fn centralized_equals_distributed() {
        let g = generators::gnp_connected(25, 0.12, 3);
        let cfg = CarveConfig::for_dilation(&g, 1)
            .with_num_layers(3)
            .with_horizon(14);
        let a = Clustering::carve_centralized(&g, &cfg, 5);
        let b = Clustering::carve_distributed(&g, &cfg, 5);
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.center, lb.center);
            assert_eq!(la.contained_radius, lb.contained_radius);
        }
        assert_eq!(a.precompute_rounds(), b.precompute_rounds());
    }

    #[test]
    fn precompute_rounds_formula() {
        let g = generators::path(10);
        let cfg = CarveConfig::for_dilation(&g, 1)
            .with_num_layers(4)
            .with_horizon(9);
        let cl = Clustering::carve_centralized(&g, &cfg, 1);
        // per layer: (H + 1) carving + (H + 2) boundary
        assert_eq!(cl.precompute_rounds(), 4 * ((9 + 1) + (9 + 2)));
    }

    #[test]
    fn padding_property_holds_often() {
        // Lemma 4.2 property (3): for each node, a constant fraction of
        // layers certifiably contain its dilation-ball.
        let g = generators::grid(7, 7);
        let dilation = 2;
        let cfg = CarveConfig::for_dilation(&g, dilation).with_num_layers(24);
        let cl = Clustering::carve_centralized(&g, &cfg, 11);
        for v in g.nodes() {
            let covered = cl.covering_layers(v, dilation).len();
            assert!(covered >= 2, "node {v} covered in only {covered}/24 layers");
        }
        // and on average a decent constant fraction
        let total: usize = g
            .nodes()
            .map(|v| cl.covering_layers(v, dilation).len())
            .sum();
        let avg = total as f64 / g.node_count() as f64;
        assert!(avg >= 5.0, "average covering layers {avg} too small");
    }

    #[test]
    fn weak_radius_bounded_by_horizon() {
        let g = generators::gnp_connected(40, 0.08, 8);
        let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(5);
        let cl = Clustering::carve_centralized(&g, &cfg, 9);
        for layer in cl.layers() {
            for v in g.nodes() {
                let c = layer.center[v.index()];
                let d = das_graph::traversal::bfs_distances(&g, c)[v.index()].unwrap();
                assert!(d <= cfg.horizon, "member {v} at distance {d} from center");
            }
        }
    }
}
