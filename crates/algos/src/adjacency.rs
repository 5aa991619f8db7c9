//! Neighbor lists shared between an algorithm and its machines.

use das_graph::{Graph, NodeId};
use std::sync::Arc;

/// The graph's neighbor lists (nodes know their neighbors in CONGEST) as
/// one flat CSR, built once per algorithm. Every machine holds the `Arc`
/// and its own id instead of a copy of its row, so neither building an
/// algorithm nor creating its `n` machines allocates per node.
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// `flat[offsets[v]..offsets[v + 1]]` are `v`'s neighbors, in the
    /// graph's adjacency order.
    offsets: Box<[u32]>,
    flat: Box<[NodeId]>,
}

impl Adjacency {
    pub(crate) fn of(g: &Graph) -> Arc<Self> {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut flat = Vec::with_capacity(g.arc_count());
        offsets.push(0);
        for v in g.nodes() {
            flat.extend(g.neighbors(v).iter().map(|&(u, _)| u));
            offsets.push(flat.len() as u32);
        }
        Arc::new(Adjacency {
            offsets: offsets.into(),
            flat: flat.into(),
        })
    }

    #[inline]
    pub(crate) fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }
}
