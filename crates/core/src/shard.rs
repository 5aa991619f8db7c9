//! Graph sharding for the big-round-synchronous sharded executor.
//!
//! A [`Partition`] assigns every node of the network to one of `S` shards.
//! The sharded executor ([`crate::Topology::Sharded`]) gives each shard
//! a worker that owns the canonical machines, inboxes, and incoming-arc
//! FIFOs of its nodes; workers run big-rounds in lockstep and exchange
//! cross-shard messages only at big-round boundaries. Because arrival
//! order within an inbox is canonicalized before every machine step, the
//! partition affects only the parallel layout — never the outcome.
//!
//! The partition is a deterministic degree-balanced greedy: nodes are
//! visited in decreasing-degree order (ties by node id) and each goes to
//! the currently lightest shard, where a node's weight is its degree plus
//! one (so isolated nodes still spread). Message work per worker is
//! proportional to the degree it owns, so balancing degree balances the
//! per-big-round load.

use das_graph::{Graph, NodeId};

/// A deterministic assignment of nodes to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    of_node: Vec<u32>,
}

impl Partition {
    /// Degree-balanced greedy partition into at most `shards` shards.
    ///
    /// The shard count is clamped to `1..=n` (an empty graph gets one
    /// empty shard), so every shard of a connected graph owns at least one
    /// node. Same graph and `shards`, same partition — no randomness, no
    /// iteration-order dependence.
    pub fn degree_balanced(g: &Graph, shards: usize) -> Self {
        let n = g.node_count();
        let s = shards.clamp(1, n.max(1));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(NodeId(v as u32))), v));
        let mut load = vec![0u64; s];
        let mut of_node = vec![0u32; n];
        for &v in &order {
            let lightest = (0..s).min_by_key(|&i| (load[i], i)).expect("s >= 1");
            of_node[v] = lightest as u32;
            load[lightest] += g.degree(NodeId(v as u32)) as u64 + 1;
        }
        Partition { shards: s, of_node }
    }

    /// Number of shards (after clamping to the node count).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `v`.
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.of_node[v.index()] as usize
    }

    /// The full node → shard assignment, indexed by node id.
    pub fn of_node(&self) -> &[u32] {
        &self.of_node
    }

    /// The nodes owned by `shard`, in ascending node order.
    pub fn nodes_of(&self, shard: usize) -> Vec<NodeId> {
        self.of_node
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s as usize == shard)
            .map(|(v, _)| NodeId(v as u32))
            .collect()
    }

    /// Whether `arc`'s endpoints live in different shards (such messages
    /// cross only at big-round boundaries).
    pub fn is_cross_arc(&self, g: &Graph, arc: das_graph::Arc) -> bool {
        let (src, dst) = g.arc_endpoints(arc);
        self.of_node[src.index()] != self.of_node[dst.index()]
    }

    /// Count of arcs whose endpoints live in different shards.
    pub fn cross_arc_count(&self, g: &Graph) -> usize {
        (0..g.arc_count())
            .filter(|&i| self.is_cross_arc(g, das_graph::Arc::from_index(i)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    fn shard_degrees(g: &Graph, p: &Partition) -> Vec<u64> {
        let mut d = vec![0u64; p.shards()];
        for v in g.nodes() {
            d[p.shard_of(v)] += g.degree(v) as u64 + 1;
        }
        d
    }

    #[test]
    fn every_node_is_assigned_and_counts_clamp() {
        let g = generators::path(10);
        let p = Partition::degree_balanced(&g, 3);
        assert_eq!(p.shards(), 3);
        assert_eq!(p.of_node().len(), 10);
        assert!(p.of_node().iter().all(|&s| (s as usize) < 3));
        let total: usize = (0..3).map(|s| p.nodes_of(s).len()).sum();
        assert_eq!(total, 10);
        // more shards than nodes clamp down
        assert_eq!(Partition::degree_balanced(&g, 64).shards(), 10);
        assert_eq!(Partition::degree_balanced(&g, 0).shards(), 1);
    }

    #[test]
    fn partition_is_deterministic() {
        let g = generators::gnp_connected(40, 0.15, 7);
        let a = Partition::degree_balanced(&g, 5);
        let b = Partition::degree_balanced(&g, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_balances_degree_on_a_grid() {
        let g = generators::grid(8, 8);
        let p = Partition::degree_balanced(&g, 4);
        let loads = shard_degrees(&g, &p);
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        // greedy keeps the spread within one node's weight (max degree + 1)
        assert!(
            max - min <= g.max_degree() as u64 + 1,
            "loads {loads:?} spread too far"
        );
    }

    #[test]
    fn star_center_does_not_capture_a_whole_shard_alone_with_leaves() {
        // the hub of a star dominates degree: greedy puts it alone first,
        // then spreads the leaves over the remaining shards
        let g = generators::star(9);
        let p = Partition::degree_balanced(&g, 3);
        let loads = shard_degrees(&g, &p);
        assert_eq!(
            loads.iter().sum::<u64>(),
            2 * g.edge_count() as u64 + g.node_count() as u64
        );
        let hub_shard = p.shard_of(das_graph::NodeId(0));
        // every other shard holds leaves
        for s in 0..3 {
            if s != hub_shard {
                assert!(!p.nodes_of(s).is_empty());
            }
        }
    }

    #[test]
    fn cross_arcs_counted_consistently() {
        let g = generators::path(6);
        let single = Partition::degree_balanced(&g, 1);
        assert_eq!(single.cross_arc_count(&g), 0);
        let p = Partition::degree_balanced(&g, 2);
        let cross = p.cross_arc_count(&g);
        assert!(cross > 0 && cross <= g.arc_count());
        // each cross edge contributes both of its arcs
        assert_eq!(cross % 2, 0);
    }
}
