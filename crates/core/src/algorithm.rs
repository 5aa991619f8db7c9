//! The black-box algorithm interface (the paper's §2 execution format).
//!
//! A [`BlackBoxAlgorithm`] is a factory for per-node machines. The machines
//! and their I/O — [`AlgoNode`], the batched tier [`AlgoSlab`] /
//! [`NodeBatch`], [`Inbox`], [`Sends`] and the output arena [`Outputs`]
//! with its [`OutputSink`] — are the CONGEST model's own,
//! defined in `das_congest` and re-exported here. The *specification tier*
//! is [`AlgoNode::step`]: one virtual call per (algorithm, node, round),
//! exactly the paper's format. The *batched tier* is opt-in and exists
//! purely for throughput: [`BlackBoxAlgorithm::create_nodes`] builds a
//! whole node-contiguous [`NodeBatch`] slab at once instead of one
//! `Box<dyn AlgoNode>` per (algorithm, node), and a block of its steps
//! dispatches as one [`AlgoSlab::step_block`] call. Every batched entry
//! point has a default implementation that loops the specification tier,
//! so an algorithm that only implements `step`/`create_node` keeps working
//! unchanged — and the production loop ([`crate::execute`]) stays
//! byte-identical to the per-step row oracle
//! ([`crate::oracle::execute_row`]) by construction.

pub use das_congest::{
    AlgoNode, AlgoSlab, BatchedSends, BlockStep, Inbox, InboxBuf, InboxIter, NodeBatch, OutputRow,
    OutputSink, Outputs, Sends,
};
use das_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique algorithm identifier in a `poly(n)` range, used to index the
/// per-algorithm bucket of pseudo-random delay values (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Aid(pub u64);

impl fmt::Debug for Aid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl fmt::Display for Aid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// A black-box distributed algorithm: a factory for its per-node machines.
///
/// Factories are `Send + Sync` so a problem instance can be shared with or
/// moved across worker threads by a trial harness.
pub trait BlackBoxAlgorithm: Send + Sync {
    /// The algorithm's unique identifier.
    fn aid(&self) -> Aid;

    /// The algorithm's running time `T` when run alone (its dilation
    /// contribution). Machines are stepped exactly `T` times.
    fn rounds(&self) -> u32;

    /// Builds the machine for node `v`. `seed` fixes the node's random
    /// tape — the paper treats algorithm randomness as part of the input,
    /// sampled once before execution.
    fn create_node(&self, v: NodeId, n: usize, seed: u64) -> Box<dyn AlgoNode>;

    /// Batched tier: builds the machines for all of `nodes` at once, with
    /// `seeds[i]` the random tape of `nodes[i]` (the caller derives seeds
    /// exactly as it would for [`BlackBoxAlgorithm::create_node`]). Slab
    /// machine `i` must behave identically to
    /// `create_node(nodes[i], n, seeds[i])`. The default wraps a
    /// `create_node` loop; families override it to build contiguous state
    /// in one pass.
    fn create_nodes(&self, nodes: &[NodeId], n: usize, seeds: &[u64]) -> NodeBatch {
        assert_eq!(nodes.len(), seeds.len(), "one seed per node");
        NodeBatch::from_boxed(
            nodes
                .iter()
                .zip(seeds)
                .map(|(&v, &s)| self.create_node(v, n, s))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aid_formats() {
        assert_eq!(format!("{}", Aid(3)), "A3");
        assert_eq!(format!("{:?}", Aid(3)), "A3");
    }

    #[test]
    fn aid_ordering() {
        assert!(Aid(1) < Aid(2));
        assert_eq!(Aid(5), Aid(5));
    }
}
