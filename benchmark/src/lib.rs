//! Standalone benchmark of the dasched workspace: seven named workloads,
//! eight end-to-end metrics (failures are the ninth number), and per-layer
//! numbers from a separate traced run. See `README.md` beside this crate.

pub mod client;
pub mod compare;
pub mod ladder;
pub mod metrics;
pub mod pipeline;
pub mod probes;
pub mod run;
pub mod serve_load;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
