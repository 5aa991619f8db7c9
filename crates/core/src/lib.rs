//! # das-core
//!
//! The paper's primary contribution: schedulers that run many independent
//! black-box distributed algorithms together in the CONGEST model, in
//! near-optimal time.
//!
//! ## The problem (Distributed Algorithm Scheduling, DAS)
//!
//! Given algorithms `A_1 … A_k` with
//! `dilation = max_i rounds(A_i)` and
//! `congestion = max_e Σ_i (messages of A_i over e)`, produce an execution
//! in which every node outputs, for every algorithm, exactly what it would
//! output if that algorithm ran alone. Trivially `max(max arc load,
//! dilation)` rounds are necessary, the max arc load being the heaviest
//! edge *direction*'s total — at least half of `congestion`
//! ([`das_pattern::DasParameters::trivial_lower_bound`]).
//!
//! ## The schedulers
//!
//! | Scheduler | Model | Length | Paper |
//! |---|---|---|---|
//! | [`SequentialScheduler`] | — | `Σ_i rounds(A_i)` | baseline |
//! | [`InterleaveScheduler`] | — | `k · dilation` | baseline |
//! | [`UniformScheduler`] | shared randomness | `O(congestion + dilation·log n)` | Thm 1.1 |
//! | [`TunedUniformScheduler`] | shared randomness | `O((congestion + dilation)·log n / log log n)` | §3 remark |
//! | [`PrivateScheduler`] | **private randomness only** | `O(congestion + dilation·log n)` after `O(dilation·log² n)` pre-computation | Thm 1.3 / 4.1 |
//!
//! Algorithms are *black boxes*: they expose only the paper's interface —
//! "in each round, each node knows what to send next, as a function of its
//! input, its (fixed) random tape, and the messages received so far"
//! ([`AlgoNode::step`]). Schedulers never read payloads; they only add a
//! small header (algorithm id + round) as the paper allows.
//!
//! ## The pipeline: plan → execute → verify
//!
//! Scheduling is staged. [`Scheduler::plan`] maps `(problem, sched_seed)`
//! to a serializable [`SchedulePlan`]; the shared [`execute`] realizes
//! any plan on the engine — fused, sharded or networked, as its
//! [`ExecOptions`] say; [`verify::against_references`] checks the
//! outcome. [`pipeline::run`] is the three together, timed stage by stage
//! and observed — what every entry point (the CLI, the bench harness, the
//! serve daemon) runs. [`Scheduler::run`] fuses the first two for
//! convenience. The
//! problem's `tape_seed` fixes only the algorithms' random tapes (and so
//! the reference runs), while scheduler randomness comes from the per-plan
//! `sched_seed` — a trial sweep varying only scheduler randomness reuses
//! one cached set of reference runs. [`plan::analysis`] predicts a plan's
//! per-edge traffic without executing it.
//!
//! ```
//! use das_core::{DasProblem, SequentialScheduler, UniformScheduler, Scheduler, verify};
//! use das_core::synthetic::RelayChain;
//! use das_graph::generators;
//!
//! let g = generators::path(16);
//! // 8 relay algorithms all hammering the same path: congestion 8, dilation 15
//! let problem = DasProblem::new(&g, (0..8).map(|i| {
//!     Box::new(RelayChain::new(i, &g)) as Box<dyn das_core::BlackBoxAlgorithm>
//! }).collect(), 42);
//!
//! let outcome = SequentialScheduler::default().run(&problem).unwrap();
//! let report = verify::against_references(&problem, &outcome).unwrap();
//! assert!(report.all_correct());
//! ```

#![warn(missing_docs)]

mod algorithm;
#[doc(hidden)]
pub mod compat;
mod exec;
mod problem;
mod reference;
mod schedule;

pub mod bellagio;
pub mod doubling;
pub mod net;
pub mod newman;
pub mod oracle;
pub mod pipeline;
pub mod plan;
pub mod schedulers;
pub mod serve;
pub mod shard;
pub mod synthetic;
pub mod verify;
pub mod wire;

pub use algorithm::{
    Aid, AlgoNode, AlgoSlab, BatchedSends, BlackBoxAlgorithm, BlockStep, Inbox, InboxBuf,
    InboxIter, NodeBatch, OutputRow, OutputSink, Outputs, Sends,
};
#[doc(hidden)]
pub use compat::*;
pub use das_congest::MESSAGE_BYTES;
pub use doubling::{PlanCacheStats, SearchFacts};
pub use exec::{ExecError, ExecStats, ExecutorConfig, ShardReport, ShardStats, Unit};
pub use net::{install_ctrl_c, plan_hash, run_worker, NetConfig, WorkerOutcome};
pub use plan::cache::{PlanArtifact, SweepArtifact};
pub use plan::{execute, ExecOptions, Executed, PlanError, SchedError, SchedulePlan, Topology};
pub use problem::DasProblem;
pub use reference::{run_alone, ReferenceError, ReferenceRun};
pub use schedule::ScheduleOutcome;
pub use schedulers::{
    prime_range_overhead, uniform_length_bound, InterleaveScheduler, PrivateDelayLaw,
    PrivateScheduler, Scheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler,
};
pub use serve::{
    admit, run_loadgen, serve, Budgets, Capacity, Hosting, JobKind, JobSpec, JobStatus,
    LoadgenConfig, LoadgenReport, Rejection, ServeConfig, ServeReport,
};
pub use shard::Partition;
pub use wire::{graph_fingerprint, problem_fingerprint, LinkTraffic, PROTOCOL_VERSION};
