//! Property-based tests of the clustering invariants (Lemma 4.2/4.3) on
//! random graphs.

use das_cluster::{
    boundary_distances_centralized, carve_layer_centralized, share_layer_centralized, CarveConfig,
    Clustering, LayerParams, ShareConfig,
};
use das_graph::{generators, traversal};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Carving invariants: every node is assigned, the winning center's
    /// ball covers it, and no smaller-keyed covering center exists.
    #[test]
    fn carving_is_min_label_ball_assignment(
        n in 10usize..40, seed in 0u64..1000, rate in 1.5f64..6.0
    ) {
        let g = generators::gnp_connected(n, 3.0 / n as f64, seed);
        let horizon = 20;
        let law = das_cluster::TruncatedExponential::new(rate, horizon);
        let params = LayerParams::generate(n, &law, horizon, seed + 1);
        let centers = carve_layer_centralized(&g, &params);
        for v in g.nodes() {
            let dist = traversal::bfs_distances(&g, v);
            let winner = centers[v.index()];
            // the winner covers v
            prop_assert!(dist[winner.index()].unwrap() <= params.radius[winner.index()]);
            // no covering center has a smaller key
            for w in g.nodes() {
                if dist[w.index()].unwrap() <= params.radius[w.index()] {
                    prop_assert!(params.key(winner) <= params.key(w));
                }
            }
        }
    }

    /// The certified contained radius really is contained: the ball stays
    /// inside the node's cluster.
    #[test]
    fn contained_radius_is_sound(n in 10usize..35, seed in 0u64..1000) {
        let g = generators::gnp_connected(n, 3.0 / n as f64, seed);
        let horizon = 16;
        let law = das_cluster::TruncatedExponential::new(3.0, horizon);
        let params = LayerParams::generate(n, &law, horizon, seed + 2);
        let centers = carve_layer_centralized(&g, &params);
        let contained = boundary_distances_centralized(&g, &centers, horizon);
        for v in g.nodes() {
            for u in traversal::ball(&g, v, contained[v.index()]) {
                prop_assert_eq!(centers[u.index()], centers[v.index()]);
            }
        }
    }

    /// Contained radii are 1-Lipschitz along edges (neighbors' certified
    /// radii differ by at most 1) — the property the private scheduler's
    /// cross-neighbor synchronization argument relies on.
    #[test]
    fn contained_radius_is_lipschitz(n in 10usize..35, seed in 0u64..1000) {
        let g = generators::gnp_connected(n, 3.0 / n as f64, seed);
        let horizon = 16;
        let law = das_cluster::TruncatedExponential::new(3.0, horizon);
        let params = LayerParams::generate(n, &law, horizon, seed + 3);
        let centers = carve_layer_centralized(&g, &params);
        let contained = boundary_distances_centralized(&g, &centers, horizon);
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            let (ca, cb) = (contained[a.index()] as i64, contained[b.index()] as i64);
            prop_assert!((ca - cb).abs() <= 1, "{a}:{ca} vs {b}:{cb}");
        }
    }

    /// Sharing gives every node exactly its own center's chunks.
    #[test]
    fn sharing_is_center_consistent(n in 10usize..30, seed in 0u64..500) {
        let g = generators::gnp_connected(n, 3.0 / n as f64, seed);
        let cfg = CarveConfig::for_dilation(&g, 1).with_num_layers(2);
        let cl = Clustering::carve_centralized(&g, &cfg, seed);
        let share_cfg = ShareConfig::for_graph(&g, cfg.horizon);
        let chunks = das_cluster::share::center_chunks(n, share_cfg.chunks, seed + 9);
        for layer in cl.layers() {
            let want = share_layer_centralized(layer, &chunks);
            let (got, _, delivered) =
                das_cluster::share::share_layer_distributed(&g, layer, &chunks, &share_cfg);
            prop_assert!(delivered, "sharing under-delivered");
            prop_assert_eq!(&got, &want);
            // same-cluster members agree
            for v in g.nodes() {
                prop_assert_eq!(&got[v.index()], &chunks[layer.center[v.index()].index()]);
            }
        }
    }
}
