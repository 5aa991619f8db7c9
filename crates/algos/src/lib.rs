//! # das-algos
//!
//! Concrete distributed algorithms for the `dasched` schedulers — the
//! workloads the paper's introduction motivates and its Section 5 / Appendix
//! A study in depth:
//!
//! * [`broadcast`] — `k`-message `h`-hop broadcast (§1 item I): single
//!   broadcasts as schedulable black boxes, plus the classical combined
//!   `O(k + h)` pipelined protocol as a yardstick.
//! * [`bfs`] — `h`-hop BFS trees (§1 item II): schedulable single-source
//!   BFS, plus a Lenzen–Peleg-style combined `k`-BFS protocol.
//! * [`routing`] — packet routing along fixed paths (§1 item III), the
//!   Leighton–Maggs–Rao special case the paper generalizes.
//! * [`aggregate`] — convergecast + broadcast on a BFS tree.
//! * [`flood`] — leader election by min-id flooding.
//! * [`coloring`] — randomized (Δ+1)-coloring (data-dependent patterns).
//! * [`mst`] — the Section 5 case study: minimum spanning trees with an
//!   explicit congestion/dilation trade-off (pipelined filter-upcast, and a
//!   Kutten–Peleg-style fragment algorithm parameterized by `L`), enabling
//!   the `k`-shot MST experiment.
//! * [`distinct`] — Appendix A: `(1+ε)`-approximate counting of distinct
//!   elements in `d`-hop neighborhoods via threshold hashing, in both the
//!   shared-randomness form and the locally-shared (Bellagio
//!   derandomization) form.
//!
//! The schedulable units implement [`das_core::BlackBoxAlgorithm`]. The
//! combined classical protocols (`KBroadcastProtocol`, `KBfsProtocol`,
//! `MinIdProtocol`, `DistinctProtocol`) build [`das_congest::AlgoNode`]
//! machines instead, one per node, and run standalone in
//! [`das_congest::run_rounds`] with honest round counts.

#![warn(missing_docs)]

mod adjacency;
pub mod aggregate;
pub mod bfs;
pub mod broadcast;
pub mod coloring;
pub mod distinct;
pub mod flood;
pub mod mst;
pub mod routing;
