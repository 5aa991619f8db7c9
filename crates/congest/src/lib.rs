//! # das-congest
//!
//! The **CONGEST model** of distributed computing [Peleg 2000]: the
//! network is an undirected graph, computation proceeds in lockstep
//! rounds, and in each round every node may send one `O(log n)`-bit
//! message to each of its neighbors.
//!
//! This crate holds the model and nothing else:
//!
//! * machine I/O — a machine ([`AlgoNode`], or a whole slab of them,
//!   [`AlgoSlab`] / [`NodeBatch`]) reads one round's messages as a
//!   borrowed, sender-sorted [`Inbox`] and writes its sends through
//!   [`Sends`] into a [`BatchedSends`] arena, and its output through an
//!   [`OutputSink`] into an [`Outputs`] arena;
//! * the one round loop, [`run_rounds`], which runs a [`NodeBatch`] for
//!   exactly `T` rounds (optionally truncated per node) or until a round
//!   in which nobody sent, and optionally records every message's
//!   `(round, arc)`;
//! * the bandwidth, [`MESSAGE_BYTES`], and the model violations
//!   [`run_rounds`] refuses ([`ReferenceError`]): a send to a
//!   non-neighbor, two sends to one neighbor in a round, a payload over
//!   the bandwidth.
//!
//! There is no shared randomness anywhere: a machine's random tape is a
//! private seed fixed when it is built.
//!
//! ```
//! use das_congest::{run_rounds, AlgoNode, Inbox, NodeBatch, OutputSink, Sends, Until};
//! use das_graph::{generators, NodeId};
//!
//! /// Each node floods the smallest id it has seen (leader election).
//! struct MinIdNode { neighbors: Vec<NodeId>, best: u32, changed: bool }
//!
//! impl AlgoNode for MinIdNode {
//!     fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
//!         for (_, payload) in inbox {
//!             let v = u32::from_le_bytes(payload[..4].try_into().unwrap());
//!             if v < self.best { self.best = v; self.changed = true; }
//!         }
//!         if std::mem::take(&mut self.changed) {
//!             out.push_all(&self.neighbors, &self.best.to_le_bytes());
//!         }
//!     }
//!     fn output(&self, out: &mut OutputSink<'_>) { out.put(&self.best.to_le_bytes()) }
//! }
//!
//! let g = generators::path(8);
//! let mut batch = NodeBatch::from_boxed(g.nodes().map(|v| {
//!     let neighbors = g.neighbors(v).iter().map(|&(u, _)| u).collect();
//!     Box::new(MinIdNode { neighbors, best: v.0, changed: true }) as Box<dyn AlgoNode>
//! }).collect());
//! // runs until a round in which nobody sent
//! let ran = run_rounds(&g, &mut batch, Until::Quiet { limit: 100 }, None).unwrap();
//! assert_eq!(ran.rounds, 9);
//! // every node learned the minimum id, 0
//! for out in batch.outputs() {
//!     assert_eq!(out.as_deref(), Some(&0u32.to_le_bytes()[..]));
//! }
//! ```

#![warn(missing_docs)]

mod io;
mod rounds;

pub mod util;

pub use io::{
    AlgoNode, AlgoSlab, BatchedSends, BlockStep, Inbox, InboxBuf, InboxIter, NodeBatch, OutputRow,
    OutputRowIter, OutputSink, Outputs, Sends,
};
pub use rounds::{run_rounds, ReferenceError, Tally, Until, MESSAGE_BYTES};
