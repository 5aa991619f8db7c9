//! # das-obs — deterministic observability for the scheduling pipeline
//!
//! Structured tracing and metrics for the plan → execute → verify pipeline,
//! built around one invariant: **instrumentation can never perturb the
//! schedule**. Every span and event is clocked on the deterministic
//! big-round clock (engine rounds), never on wall time; wall-clock readings
//! are allowed only as a clearly-labelled side channel (`wall_ns` event
//! args, `wall.*` counters) that no deterministic artifact includes.
//!
//! The layer has two cost tiers:
//!
//! * [`ObsMode::Off`] short-circuits every hook behind a single
//!   branch on a bool ([`ExecObs::on`]);
//! * [`ObsMode::Metrics`] keeps counters/histograms/load profiles but skips
//!   event allocation; [`ObsMode::Full`] records trace events too.
//!
//! Outputs: a [`MetricsRegistry`] (counters + fixed-bucket histograms), a
//! [`LoadProfile`] (per-round and per-edge load, generalizing the congest
//! crate's `TraceSummary`), and a [`TraceEvent`] stream exportable as JSONL,
//! Chrome `trace_events` JSON (loadable in Perfetto — one track per shard,
//! one process per pipeline stage), or a plain-text top-K hot report.
//!
//! The [`live`] module adds a *live* view of the same data: probes publish
//! snapshots into a shared [`LiveHub`] at big-round boundaries, and
//! [`http::ObsServer`] serves them over plain HTTP/1.1 while the run is in
//! flight — still without perturbing outcomes (the snapshot-at-barrier
//! invariant; see DESIGN.md).

#![warn(missing_docs)]

mod config;
mod event;
mod metrics;
mod probe;
mod profile;
mod report;

pub mod http;
pub mod live;

pub use config::{ObsConfig, ObsMode};
pub use event::{EventPhase, Stage, TraceEvent};
pub use http::ObsServer;
pub use live::{BigRoundDelta, DoublingAttempt, JobsLive, LinkLive, LiveHub};
pub use metrics::{Histogram, MetricsRegistry};
pub use probe::ExecObs;
pub use profile::{sparkline, LoadProfile};
pub use report::{ObsReport, ObsSummary, ShardLoad};
