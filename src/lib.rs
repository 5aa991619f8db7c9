//! # dasched — Near-Optimal Scheduling of Distributed Algorithms
//!
//! A full Rust implementation of the system described in
//! *"Near-Optimal Scheduling of Distributed Algorithms"* (Ghaffari,
//! PODC 2015): run many independent black-box distributed algorithms
//! together in the CONGEST model, in time
//! `O(congestion + dilation · log n)` — using only private randomness
//! after `O(dilation · log² n)` rounds of pre-computation.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `das-graph` | topologies, BFS, trees |
//! | [`congest`] | `das-congest` | the CONGEST model: machine I/O, the one round loop, the bandwidth |
//! | [`pattern`] | `das-pattern` | time-expanded graphs, congestion/dilation, causality |
//! | [`prg`] | `das-prg` | `GF(p)`, `k`-wise independence, delay laws |
//! | [`cluster`] | `das-cluster` | ball carving + in-cluster randomness sharing |
//! | [`core`] | `das-core` | the schedulers (Thm 1.1, §3 remark, Thm 4.1, baselines) |
//! | [`obs`] | `das-obs` | deterministic tracing, metrics, Perfetto/JSONL export |
//! | [`algos`] | `das-algos` | workloads: broadcast, BFS, routing, MST, distinct elements |
//! | [`lowerbound`] | `das-lowerbound` | the §3 hard-instance family and certificates |
//!
//! ## Quickstart
//!
//! ```
//! use dasched::core::{DasProblem, PrivateScheduler, Scheduler, verify};
//! use dasched::algos::bfs::HopBfs;
//! use dasched::graph::{generators, NodeId};
//!
//! // a 5x5 grid and four BFS instances from different corners
//! let g = generators::grid(5, 5);
//! let algos: Vec<Box<dyn dasched::core::BlackBoxAlgorithm>> = vec![
//!     Box::new(HopBfs::new(0, &g, NodeId(0), 8)),
//!     Box::new(HopBfs::new(1, &g, NodeId(4), 8)),
//!     Box::new(HopBfs::new(2, &g, NodeId(20), 8)),
//!     Box::new(HopBfs::new(3, &g, NodeId(24), 8)),
//! ];
//! let problem = DasProblem::new(&g, algos, 42);
//!
//! // schedule them together with only private randomness (Theorem 4.1)
//! let outcome = PrivateScheduler::default().run(&problem).unwrap();
//! let report = verify::against_references(&problem, &outcome).unwrap();
//! assert!(report.all_correct());
//! println!(
//!     "schedule: {} rounds (+{} pre-computation)",
//!     outcome.schedule_rounds(),
//!     outcome.precompute_rounds
//! );
//! ```

#![warn(missing_docs)]

pub use das_algos as algos;
pub use das_cluster as cluster;
pub use das_congest as congest;
pub use das_core as core;
pub use das_graph as graph;
pub use das_lowerbound as lowerbound;
pub use das_obs as obs;
pub use das_pattern as pattern;
pub use das_prg as prg;
