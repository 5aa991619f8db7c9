//! # das-pattern
//!
//! Communication patterns, time-expanded graphs, and causality — the formal
//! machinery of Section 2 of the paper.
//!
//! A `T`-round algorithm's communications form a subgraph of the
//! *time-expanded graph* `G × [T]` ([`TimeExpandedGraph`]): there is an edge
//! from copy `v_i` to copy `u_{i+1}` iff the algorithm sends a message from
//! `v` to `u` in round `i`. [`CommPattern`] captures that footprint (built
//! from the [`TimedArc`]s an alone run records), and
//! [`causality`] provides the causal-precedence relation and the checker for
//! valid *simulations* — mappings into a longer time span that preserve
//! causal precedence.
//!
//! The aggregate quantities the whole paper is parameterized by live here
//! too: [`das_parameters`] computes `congestion` and `dilation` of a set of
//! algorithms from their patterns.

#![warn(missing_docs)]

pub mod causality;
pub mod stats;

mod comm_pattern;
mod time_expanded;

pub use causality::{verify_simulation, SimulationError, SimulationMap};
pub use comm_pattern::{das_parameters, CommPattern, DasParameters, TimedArc};
pub use time_expanded::TimeExpandedGraph;
