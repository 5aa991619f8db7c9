//! Convergecast + broadcast on a rooted tree: sum all node values at the
//! root, then tell everyone. A classic low-congestion workload (each tree
//! edge carries exactly two messages) with dilation `2·height + 1`.

use das_core::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
use das_graph::tree::RootedTree;
use das_graph::{Graph, NodeId};

/// Sum-convergecast on a BFS tree followed by a broadcast of the total.
/// Node values are derived from each node's random tape (so outputs are
/// seed-sensitive); every node outputs the global sum.
#[derive(Clone, Debug)]
pub struct TreeSum {
    aid: Aid,
    height: u32,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
}

impl TreeSum {
    /// Builds the workload on the BFS tree of `g` rooted at `root`.
    ///
    /// # Panics
    /// Panics if `g` is disconnected.
    pub fn new(aid: u64, g: &Graph, root: NodeId) -> Self {
        let tree = RootedTree::bfs(g, root);
        let n = g.node_count();
        TreeSum {
            aid: Aid(aid),
            height: tree.height(),
            parent: (0..n).map(|v| tree.parent(NodeId(v as u32))).collect(),
            children: (0..n)
                .map(|v| tree.children(NodeId(v as u32)).to_vec())
                .collect(),
            depth: (0..n).map(|v| tree.depth(NodeId(v as u32))).collect(),
        }
    }
}

struct TreeSumNode {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: u32,
    height: u32,
    round: u32,
    acc: u64,
    pending_up: usize,
    total: Option<u64>,
}

impl BlackBoxAlgorithm for TreeSum {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        2 * self.height + 2
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        Box::new(TreeSumNode {
            parent: self.parent[v.index()],
            children: self.children[v.index()].clone(),
            depth: self.depth[v.index()],
            height: self.height,
            round: 0,
            acc: das_congest::util::seed_mix(seed, 0x5731) % 1_000_000,
            pending_up: self.children[v.index()].len(),
            total: None,
        })
    }
}

impl AlgoNode for TreeSumNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (from, payload) in inbox {
            let val = u64::from_le_bytes(payload[..8].try_into().expect("8-byte value"));
            if self.children.contains(&from) {
                self.acc = self.acc.wrapping_add(val);
                self.pending_up -= 1;
            } else {
                // from the parent: the global total
                self.total = Some(val);
            }
        }
        // upcast: a node at depth d has all child sums by round
        // height - d; send up at exactly that round (deterministic timing)
        let up_round = self.height - self.depth;
        if self.round == up_round {
            debug_assert_eq!(self.pending_up, 0, "child sums must have arrived");
            match self.parent {
                Some(p) => out.push(p, &self.acc.to_le_bytes()),
                None => self.total = Some(self.acc), // root
            }
        }
        // broadcast down: the root starts at round height + 1; a node at
        // depth d relays at round height + 1 + d
        if self.round == self.height + 1 + self.depth {
            if let Some(total) = self.total {
                for &c in &self.children {
                    out.push(c, &total.to_le_bytes());
                }
            }
        }
        self.round += 1;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        if let Some(t) = self.total {
            out.put(&t.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{run_alone, DasProblem, PrivateScheduler, Scheduler};
    use das_graph::generators;

    #[test]
    fn everyone_learns_the_same_sum() {
        let g = generators::grid(4, 5);
        let algo = TreeSum::new(0, &g, NodeId(0));
        let r = run_alone(&g, &algo, 8).unwrap();
        let first = r.outputs[0].as_ref().expect("root knows the sum");
        for v in g.nodes() {
            assert_eq!(r.outputs[v.index()].as_ref(), Some(first), "node {v}");
        }
    }

    #[test]
    fn congestion_is_two_per_tree_edge() {
        let g = generators::balanced_tree(15, 2);
        let algo = TreeSum::new(0, &g, NodeId(0));
        let r = run_alone(&g, &algo, 3).unwrap();
        // every edge is a tree edge here: one up + one down message
        for (e, load) in r.pattern.edge_loads().into_iter().enumerate() {
            assert_eq!(load, 2, "edge {e}");
        }
    }

    #[test]
    fn seed_changes_the_sum() {
        let g = generators::path(6);
        let algo = TreeSum::new(0, &g, NodeId(0));
        let a = run_alone(&g, &algo, 1).unwrap();
        let b = run_alone(&g, &algo, 2).unwrap();
        assert_ne!(a.outputs[0], b.outputs[0]);
    }

    #[test]
    fn schedulable_with_private_scheduler() {
        let g = generators::grid(4, 4);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..4)
            .map(|i| {
                Box::new(TreeSum::new(i, &g, NodeId((i * 5) as u32))) as Box<dyn BlackBoxAlgorithm>
            })
            .collect();
        let p = DasProblem::new(&g, algos, 13);
        let outcome = PrivateScheduler::default().run(&p).unwrap();
        let rep = das_core::verify::against_references(&p, &outcome).unwrap();
        assert!(rep.all_correct(), "late {}", outcome.stats.late_messages);
    }
}
