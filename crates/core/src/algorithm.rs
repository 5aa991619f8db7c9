//! The black-box algorithm interface (the paper's §2 execution format).
//!
//! The contract has two tiers. The *specification tier* is
//! [`AlgoNode::step`]: one virtual call per (algorithm, node, round),
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

/// A message an algorithm asks to send to a neighbor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgoSend {
    /// Destination (must be a graph neighbor).
    pub to: NodeId,
    /// Contents (size-limited by the engine when actually transmitted).
    pub payload: Vec<u8>,
}

/// Flat, reusable send arena filled by the batched tier: payload bytes
/// live in one buffer, sends are grouped into *segments* (one segment per
/// executed step, in execution order), and nothing is allocated per send
/// once the arena has warmed up.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchedSends {
    /// One entry per send: destination, payload offset, payload length.
    meta: Vec<(NodeId, u32, u32)>,
    /// All payload bytes, back to back.
    bytes: Vec<u8>,
    /// Exclusive end index into `meta` for each closed segment.
    bounds: Vec<u32>,
}

impl BatchedSends {
    /// An empty arena.
    pub fn new() -> Self {
        BatchedSends::default()
    }

    /// Appends one send to the currently open segment.
    pub fn push(&mut self, to: NodeId, payload: &[u8]) {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(payload);
        self.meta.push((to, off, payload.len() as u32));
    }

    /// Closes the current segment (even if it received no sends). Every
    /// executed step must close exactly one segment, in execution order.
    pub fn end_segment(&mut self) {
        self.bounds.push(self.meta.len() as u32);
    }

    /// Number of closed segments.
    pub fn segments(&self) -> usize {
        self.bounds.len()
    }

    /// Total sends across all segments (open tail included).
    pub fn total_sends(&self) -> usize {
        self.meta.len()
    }

    /// Whether closed segment `i` holds no sends — a constant-time check
    /// engines use to skip validation work for send-free steps.
    pub fn segment_is_empty(&self, i: usize) -> bool {
        let start = if i == 0 { 0 } else { self.bounds[i - 1] };
        self.bounds[i] == start
    }

    /// Iterates the sends of closed segment `i` in push order.
    pub fn segment(&self, i: usize) -> impl Iterator<Item = (NodeId, &[u8])> + '_ {
        let end = self.bounds[i] as usize;
        let start = if i == 0 {
            0
        } else {
            self.bounds[i - 1] as usize
        };
        self.meta[start..end]
            .iter()
            .map(move |&(to, off, len)| (to, &self.bytes[off as usize..(off + len) as usize]))
    }

    /// Clears the arena for reuse, keeping its capacity.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.bytes.clear();
        self.bounds.clear();
    }
}

/// The per-node state machine of one algorithm — the paper's format:
/// *"when this algorithm is run alone, in each round each node knows what
/// to send in the next round"*, as a function of the node's input, its
/// random tape (fixed at creation), and the messages received so far.
///
/// The scheduler calls [`AlgoNode::step`] exactly `rounds()` times, in
/// order. Implementations must be deterministic: same construction + same
/// inboxes ⇒ same sends and output. The scheduler may deliver an
/// *incomplete* inbox if it has mis-scheduled — the machine cannot detect
/// this (it does not know its communication pattern a priori) and will
/// simply compute on; correctness is the scheduler's burden.
///
/// Machines are `Send` so whole executions can move to worker threads.
pub trait AlgoNode: Send {
    /// Executes one algorithm round: `inbox` holds the messages this node
    /// received from the previous round's sends. Returns this round's
    /// sends.
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend>;

    /// The node's output once all rounds have been stepped (`None` if this
    /// node produces no output for this algorithm).
    fn output(&self) -> Option<Vec<u8>>;
}

/// One step of a [`NodeBatch`] inside an [`AlgoSlab::step_block`] call:
/// which slab-local machine to step, the algorithm round it is at, and
/// where its (already sorted) inbox lives in the shared inbox buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockStep {
    /// Slab-local machine index (position in the `nodes` slice the slab
    /// was created from — **not** a graph [`NodeId`]).
    pub node: u32,
    /// Algorithm round this step executes (0-based; informational — slabs
    /// track their own round counters, this must match them).
    pub round: u32,
    /// Start of this step's inbox in the shared buffer.
    pub inbox_start: u32,
    /// Length of this step's inbox.
    pub inbox_len: u32,
}

/// A node-contiguous slab of machines for one algorithm: the state of all
/// machines in one place, stepped without per-node `Box<dyn>` dispatch.
///
/// The slab is the batched tier the engine drives. A whole block of steps
/// (distinct machines, one step each) dispatches as **one**
/// virtual [`AlgoSlab::step_block`] call; sends land in a flat
/// [`BatchedSends`] arena — one segment per step, in block order — so the
/// caller can validate and enqueue them in exactly the per-step engines'
/// order, which is what keeps the batched engine byte-identical.
pub trait AlgoSlab: Send {
    /// Steps machine `i` once with `inbox` and appends its sends to `out`
    /// as exactly one closed segment.
    fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends);

    /// Executes a block of steps against the shared inbox buffer,
    /// appending exactly `steps.len()` segments to `out`, in block order.
    /// Machines within a block are distinct, so execution order cannot
    /// change any machine's state trajectory. The default loops
    /// [`AlgoSlab::step_into`] (a direct call on the concrete type).
    fn step_block(
        &mut self,
        steps: &[BlockStep],
        inbox: &[(NodeId, Vec<u8>)],
        out: &mut BatchedSends,
    ) {
        for s in steps {
            let lo = s.inbox_start as usize;
            let hi = lo + s.inbox_len as usize;
            self.step_into(s.node as usize, &inbox[lo..hi], out);
        }
    }

    /// The output of machine `i` once all its rounds have been stepped.
    fn output(&self, i: usize) -> Option<Vec<u8>>;
}

/// All machines of one algorithm over a node set, built in one pass by
/// [`BlackBoxAlgorithm::create_nodes`]: a `Box<dyn AlgoSlab>` plus its
/// machine count. One heap allocation per (algorithm, node set) instead
/// of one per (algorithm, node).
pub struct NodeBatch {
    slab: Box<dyn AlgoSlab>,
    len: usize,
}

impl NodeBatch {
    /// Wraps a slab holding `len` machines.
    pub fn new(slab: Box<dyn AlgoSlab>, len: usize) -> Self {
        NodeBatch { slab, len }
    }

    /// Wraps already-built boxed machines in the default slab — the bridge
    /// for factories that only implement a per-node constructor.
    pub fn from_boxed(machines: Vec<Box<dyn AlgoNode>>) -> Self {
        let len = machines.len();
        NodeBatch::new(Box::new(BoxedSlab { machines }), len)
    }

    /// Number of machines in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no machines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Steps machine `i` once (see [`AlgoSlab::step_into`]).
    pub fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends) {
        self.slab.step_into(i, inbox, out);
    }

    /// Executes a block of steps as one virtual call (see
    /// [`AlgoSlab::step_block`]).
    pub fn step_block(
        &mut self,
        steps: &[BlockStep],
        inbox: &[(NodeId, Vec<u8>)],
        out: &mut BatchedSends,
    ) {
        self.slab.step_block(steps, inbox, out);
    }

    /// The output of machine `i`.
    pub fn output(&self, i: usize) -> Option<Vec<u8>> {
        self.slab.output(i)
    }
}

/// The default slab: one boxed [`AlgoNode`] per machine, stepped through
/// the specification tier. Used by algorithms that don't override
/// [`BlackBoxAlgorithm::create_nodes`].
struct BoxedSlab {
    machines: Vec<Box<dyn AlgoNode>>,
}

impl AlgoSlab for BoxedSlab {
    fn step_into(&mut self, i: usize, inbox: &[(NodeId, Vec<u8>)], out: &mut BatchedSends) {
        for s in self.machines[i].step(inbox) {
            out.push(s.to, &s.payload);
        }
        out.end_segment();
    }

    fn output(&self, i: usize) -> Option<Vec<u8>> {
        self.machines[i].output()
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

    #[test]
    fn batched_sends_segments_round_trip() {
        let mut out = BatchedSends::new();
        out.push(NodeId(1), &[1, 2, 3]);
        out.push(NodeId(2), &[]);
        out.end_segment();
        out.end_segment(); // empty segment
        out.push(NodeId(3), &[9]);
        out.end_segment();
        assert_eq!(out.segments(), 3);
        assert_eq!(out.total_sends(), 3);
        let s0: Vec<_> = out.segment(0).collect();
        assert_eq!(
            s0,
            vec![(NodeId(1), &[1u8, 2, 3][..]), (NodeId(2), &[][..])]
        );
        assert_eq!(out.segment(1).count(), 0);
        let s2: Vec<_> = out.segment(2).collect();
        assert_eq!(s2, vec![(NodeId(3), &[9u8][..])]);
        out.clear();
        assert_eq!(out.segments(), 0);
        assert_eq!(out.total_sends(), 0);
    }
}
