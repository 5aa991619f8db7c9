//! Measured quality of a clustering — the quantities Lemma 4.2 bounds.

use crate::layers::Clustering;
use das_graph::{traversal, Graph};

/// Aggregate quality metrics of a [`Clustering`] on its graph.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterQuality {
    /// Maximum over layers and clusters of the weak radius (distance in
    /// `G` from the center to the farthest member). Lemma 4.2 bounds the
    /// weak *diameter* by `O(dilation · log n)`, i.e. twice this.
    pub max_weak_radius: u32,
    /// Average number of clusters per layer.
    pub avg_clusters_per_layer: f64,
    /// Minimum over nodes of the number of layers whose cluster contains
    /// the node's dilation-ball (property (3) says `Θ(log n)` w.h.p.).
    pub min_covering_layers: usize,
    /// Average over nodes of the same count.
    pub avg_covering_layers: f64,
    /// Fraction of (node, layer) pairs where the node's dilation-ball is
    /// contained — the per-layer padding probability.
    pub padding_rate: f64,
}

/// Computes quality metrics; `dilation` is the ball radius that must be
/// padded.
pub fn measure(g: &Graph, clustering: &Clustering, dilation: u32) -> ClusterQuality {
    let n = g.node_count();
    let layers = clustering.layers();
    let mut max_weak_radius = 0u32;
    let mut total_clusters = 0usize;
    for layer in layers {
        let centers = layer.centers();
        total_clusters += centers.len();
        for &c in centers {
            let dist = traversal::bfs_distances(g, c);
            for v in g.nodes() {
                if layer.center[v.index()] == c {
                    max_weak_radius =
                        max_weak_radius.max(dist[v.index()].expect("member reachable"));
                }
            }
        }
    }
    let mut min_cov = usize::MAX;
    let mut total_cov = 0usize;
    for v in g.nodes() {
        let cov = clustering.covering_layers(v, dilation).len();
        min_cov = min_cov.min(cov);
        total_cov += cov;
    }
    ClusterQuality {
        max_weak_radius,
        avg_clusters_per_layer: total_clusters as f64 / layers.len() as f64,
        min_covering_layers: min_cov,
        avg_covering_layers: total_cov as f64 / n as f64,
        padding_rate: total_cov as f64 / (n * layers.len()) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::CarveConfig;
    use das_graph::generators;

    #[test]
    fn metrics_on_grid() {
        let g = generators::grid(6, 6);
        let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(16);
        let cl = Clustering::carve_centralized(&g, &cfg, 3);
        let q = measure(&g, &cl, 2);
        assert!(q.max_weak_radius <= cfg.horizon);
        assert!(q.avg_clusters_per_layer >= 1.0);
        assert!(q.padding_rate > 0.15, "padding rate {}", q.padding_rate);
        assert!(q.avg_covering_layers >= 16.0 * 0.15);
        assert!(q.min_covering_layers <= q.avg_covering_layers.ceil() as usize);
    }

    #[test]
    fn singleton_clusters_pad_radius_zero_only() {
        // With rate ~0 radii collapse to 0 and every node is its own
        // cluster; only radius-0 balls are padded at interior nodes.
        let g = generators::path(6);
        let cfg = CarveConfig {
            dilation: 1,
            radius_rate: 0.001,
            horizon: 5,
            num_layers: 2,
        };
        let cl = Clustering::carve_centralized(&g, &cfg, 1);
        let q = measure(&g, &cl, 1);
        assert_eq!(q.max_weak_radius, 0);
        assert_eq!(q.min_covering_layers, 0);
        assert_eq!(q.avg_clusters_per_layer, 6.0);
    }
}
