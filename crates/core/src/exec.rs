//! The scheduled executor: drives canonical machines in big-rounds over
//! capacity-1 edges, honestly.
//!
//! The executor realizes the execution style shared by all the paper's
//! schedulers (Theorem 1.1, the §3 remark, and Lemma 4.4):
//!
//! * Time is split into **big-rounds** of `phase_len` engine rounds.
//! * Each algorithm is run by one or more [`Unit`]s — (per-node delay,
//!   per-node truncation) assignments. In the shared-randomness schedulers
//!   there is one unit per algorithm with a global delay; in the
//!   private-randomness scheduler there is one unit per (algorithm, layer)
//!   with per-cluster delays and per-node truncations.
//! * There is **one canonical machine per (algorithm, node)**; algorithm
//!   round `r` executes at the *earliest* big-round any eligible unit
//!   schedules it. This built-in deduplication is exactly Lemma 4.4's
//!   "only the first copy of each message is actually sent".
//! * Messages travel through per-arc FIFO queues at **one message per edge
//!   per direction per engine round** — the CONGEST bandwidth. If a
//!   scheduler overloads an edge, messages spill into later big-rounds and
//!   may arrive after their consumer has stepped; such *late* messages are
//!   dropped and counted, and the wrong outputs they cause are caught by
//!   [`crate::verify`]. "With high probability" claims become measured
//!   failure rates.

mod big_round;
mod columnar;

pub use big_round::ShardOutput;
pub(crate) use big_round::{big_round_loop, merge_shards, Exchange, ShardCtx};
pub(crate) use columnar::FlatSteps;

use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use big_round::{InProcess, InProcessShared, Local};
use das_obs::{ExecObs, ObsConfig, ObsReport};
use serde::{Deserialize, Serialize};

/// Ways an execution can fail outright (as opposed to producing wrong
/// outputs, which [`crate::verify`] catches after the fact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The engine-round cap was reached before all arc queues drained: the
    /// schedule is overloaded (or malformed) beyond what the configured
    /// budget tolerates. Surfaced as a typed error so a trial sweep can
    /// record the truncated attempt and move on instead of aborting.
    RoundCapExceeded {
        /// The configured cap ([`ExecutorConfig::max_engine_rounds`]).
        cap: u64,
        /// The big-round that was draining when the cap was hit.
        big_round: u64,
    },
    /// A networked worker's connection dropped (or its stream errored)
    /// while the coordinator was mid-protocol with it.
    WorkerDisconnected {
        /// Shard index of the lost worker.
        shard: usize,
        /// What the coordinator was doing when the connection died.
        detail: String,
    },
    /// A frame arrived shorter than its length prefix promised (or the
    /// prefix itself was cut off): the peer closed or corrupted the stream
    /// mid-frame.
    TruncatedFrame {
        /// Where in the protocol the short read happened.
        detail: String,
    },
    /// Coordinator and worker speak different protocol versions.
    VersionMismatch {
        /// The coordinator's [`crate::wire::PROTOCOL_VERSION`].
        coordinator: u32,
        /// The version the worker announced in its JOIN frame.
        worker: u32,
    },
    /// The plan JSON a worker received does not hash to the plan hash the
    /// coordinator announced — the plan was corrupted or substituted in
    /// transit.
    PlanHashMismatch {
        /// The hash announced in the ASSIGN frame.
        expected: u64,
        /// The hash of the plan bytes actually received.
        got: u64,
    },
    /// Coordinator and worker were launched on different problems (graph,
    /// workload, or tape seed differ), so byte-identity is impossible.
    ProblemMismatch {
        /// The coordinator's problem fingerprint.
        coordinator: u64,
        /// The worker's problem fingerprint.
        worker: u64,
    },
    /// A worker JOINed after every shard slot was already assigned: the
    /// coordinator keeps listening just long enough to turn stragglers
    /// away with a typed REJECT instead of a generic connection error.
    LateJoin {
        /// How many shard slots the run had (all taken).
        shards: usize,
    },
    /// A blocking network wait exceeded its configured deadline. Every
    /// wait on the networked path is deadline-bounded, so a dead peer
    /// surfaces as this error instead of a hang.
    NetTimeout {
        /// The protocol phase that timed out.
        during: String,
        /// The configured deadline in milliseconds.
        ms: u64,
    },
    /// The run was aborted deliberately: the coordinator was interrupted
    /// (Ctrl-C) or told this worker to stand down after another worker
    /// failed, or a shard worker of an in-process run panicked.
    Aborted {
        /// Why the run was torn down.
        detail: String,
    },
    /// A frame was about to be sent whose body exceeds the connection's
    /// limit ([`crate::NetConfig::max_frame_bytes`]). Refused before the
    /// first byte: the peer enforces the same limit by dropping the
    /// connection, which would hide the cause.
    FrameTooLarge {
        /// The frame kind's protocol name (`"ASSIGN"`, …).
        kind: &'static str,
        /// Size of the refused body.
        bytes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Any other network-layer failure (bind, connect, malformed frame
    /// kind, oversized incoming frame, encode/decode error).
    Net {
        /// Description of the failure.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::RoundCapExceeded { cap, big_round } => write!(
                f,
                "engine round cap {cap} exceeded while draining big-round \
                 {big_round}; the schedule does not drain"
            ),
            ExecError::WorkerDisconnected { shard, detail } => {
                write!(f, "worker for shard {shard} disconnected: {detail}")
            }
            ExecError::TruncatedFrame { detail } => {
                write!(f, "truncated frame: {detail}")
            }
            ExecError::VersionMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "protocol version mismatch: coordinator speaks v{coordinator}, \
                 worker speaks v{worker}"
            ),
            ExecError::PlanHashMismatch { expected, got } => write!(
                f,
                "plan hash mismatch: coordinator announced {expected:#018x} but \
                 the received plan hashes to {got:#018x}"
            ),
            ExecError::ProblemMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "problem fingerprint mismatch: coordinator {coordinator:#018x} vs \
                 worker {worker:#018x} — both sides must be launched with the \
                 same graph, workload, and seed"
            ),
            ExecError::LateJoin { shards } => write!(
                f,
                "late JOIN rejected: all {shards} shard slots are already \
                 assigned for this run"
            ),
            ExecError::NetTimeout { during, ms } => {
                write!(f, "network wait timed out after {ms} ms during {during}")
            }
            ExecError::Aborted { detail } => write!(f, "run aborted: {detail}"),
            ExecError::FrameTooLarge { kind, bytes, limit } => write!(
                f,
                "{kind} frame of {bytes} bytes exceeds the {limit} byte frame \
                 limit; not sent"
            ),
            ExecError::Net { detail } => write!(f, "network error: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The message a caught panic carried (empty when it was not a string).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// One scheduled execution of an algorithm: who runs it, when, how far.
///
/// Units are the atoms of a [`crate::plan::SchedulePlan`] and serialize as
/// part of the plan's JSON form.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Unit {
    /// Index of the algorithm in the problem.
    pub algo: usize,
    /// Per-node start delay in big-rounds.
    pub delay: Vec<u64>,
    /// Big-rounds per algorithm round (1 everywhere except the
    /// time-division baseline).
    pub stride: u64,
    /// Per-node truncation: node `v` executes only rounds `r <
    /// trunc[v]` of this unit (`u32::MAX` = no truncation). Lemma 4.4's
    /// "execute only the first h' rounds".
    pub trunc: Vec<u32>,
}

impl Unit {
    /// A unit where every node starts at the same delay, untruncated.
    pub fn global(algo: usize, delay: u64, n: usize) -> Self {
        Unit {
            algo,
            delay: vec![delay; n],
            stride: 1,
            trunc: vec![u32::MAX; n],
        }
    }
}

/// What a caller may set about one execution. The big-round length is the
/// plan's ([`crate::SchedulePlan::phase_len`]), never the caller's.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Hard cap on engine rounds.
    pub max_engine_rounds: u64,
    /// Live observability hub, if the run is being served: the one place an
    /// execution takes a hub, on every topology. It gets the run identity,
    /// write-only probe snapshots at big-round boundaries and a
    /// coordinator's worker telemetry; execution never reads it, so
    /// outcomes stay byte-identical with or without it
    /// (`tests/obs_neutrality.rs` enforces this with a polling client).
    pub live: Option<std::sync::Arc<das_obs::LiveHub>>,
    /// Whether the standalone benchmark asked for the row oracle; set and
    /// read only by `compat.rs`.
    #[doc(hidden)]
    pub oracle: bool,
    /// The standalone benchmark's shard count; set and read only by
    /// `compat.rs`.
    #[doc(hidden)]
    pub shards: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_engine_rounds: 10_000_000,
            live: None,
            oracle: false,
            shards: 1,
        }
    }
}

impl ExecutorConfig {
    /// Attaches a live observability hub for the run to publish into.
    pub fn with_live(mut self, live: Option<std::sync::Arc<das_obs::LiveHub>>) -> Self {
        self.live = live;
        self
    }
}

/// Measured execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Engine rounds the schedule took (its length).
    pub engine_rounds: u64,
    /// Big-rounds executed.
    pub big_rounds: u64,
    /// Engine rounds per big-round.
    pub phase_len: u64,
    /// Messages delivered in time.
    pub delivered: u64,
    /// Messages that arrived after their consumer had already stepped
    /// (dropped; a nonzero count usually means wrong outputs).
    pub late_messages: u64,
    /// Sends rejected for model violations under perturbed inboxes.
    pub invalid_sends: u64,
    /// Maximum backlog observed on any arc queue.
    pub max_arc_queue: usize,
}

/// Runs a scheduled execution; see the `exec` module docs at the top of
/// this file for the semantics. Reached through [`crate::plan::execute`],
/// which builds the step table — checking the plan — once and hands it
/// over.
pub(crate) struct Executor;

impl Executor {
    /// Executes a plan's step table fused — the shared big-round loop as
    /// one shard that owns every node ([`Local`] exchange) — returning
    /// outputs, stats, (optionally) the per-algorithm simulation maps, and
    /// the recording at the level `obs` asks for — `None` when recording
    /// is disabled.
    /// The outcome is byte-identical for every `obs` setting: the probe
    /// only reads executor state and never feeds back into it
    /// (`tests/obs_neutrality.rs` enforces this property-style).
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] if the queues have not
    /// drained by `config.max_engine_rounds`.
    pub(crate) fn run_observed(
        problem: &DasProblem<'_>,
        steps: &FlatSteps,
        config: &ExecutorConfig,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, Option<ObsReport>), ExecError> {
        let mut probe = ExecObs::new(obs, 0);
        probe.attach_live(config.live.clone());
        let of_node = vec![0; problem.graph().node_count()];
        let ctx = ShardCtx::new(problem, steps, config, &of_node, 1);
        let whole = big_round_loop(&ctx, 0, &mut Local, &mut probe)?;
        let (outcome, _) = ctx.merge(vec![whole]);
        Ok((outcome, probe.finish()))
    }

    /// Executes a plan's step table sharded: nodes are partitioned into
    /// `shards` degree-balanced shards (see [`Partition`]; clamped to the
    /// node count), each driven by its own worker thread running the
    /// production big-round loop. Workers step their own nodes and drain
    /// the arcs they own (an arc belongs to the shard of its *destination*
    /// node) freely within a big-round; cross-shard messages travel
    /// through per-(shard, shard) outboxes and enter the owner's queues
    /// only at the big-round boundary.
    ///
    /// The returned [`ScheduleOutcome`] is **byte-identical** to
    /// [`Executor::run_observed`]'s for every plan, shard count and `obs`
    /// setting (see `exec/big_round.rs` for why). Wall-clock and traffic
    /// measurements that *do* depend on the partition are returned
    /// separately in the [`ShardReport`]. Each shard worker carries its own
    /// probe (events land on that shard's lane/track) and the per-shard
    /// recordings merge into one report in shard order, so the report's
    /// deterministic content is independent of thread interleaving.
    ///
    /// One dedicated thread per shard is spawned (independent of any rayon
    /// pool and of `RAYON_NUM_THREADS`), so big-round barriers cannot
    /// starve.
    ///
    /// # Errors
    /// [`ExecError::RoundCapExceeded`] if the queues have not drained by
    /// `config.max_engine_rounds` — all workers observe the identical
    /// engine-round counter, so they abandon the run in lockstep;
    /// [`ExecError::Aborted`] if a worker (a black-box machine) panics —
    /// its peers leave their barriers instead of waiting forever.
    pub(crate) fn run_sharded_observed(
        problem: &DasProblem<'_>,
        steps: &FlatSteps,
        config: &ExecutorConfig,
        shards: usize,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), ExecError> {
        let part = Partition::degree_balanced(problem.graph(), shards);
        let s = part.shards();
        let ctx = ShardCtx::new(problem, steps, config, part.of_node(), s);
        let shared = InProcessShared::new(s);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..s)
                .map(|me| {
                    let (ctx, shared) = (&ctx, &shared);
                    scope.spawn(move || {
                        let mut probe = ExecObs::new(obs, me as u32);
                        probe.attach_live(config.live.clone());
                        let mut x = InProcess::new(me, shared, probe.wall_enabled());
                        let out = big_round_loop(ctx, me, &mut x, &mut probe)?;
                        probe.on_barrier_wait_ns(x.waited_ns.unwrap_or(0));
                        Ok::<_, ExecError>((out, probe.finish()))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // Workers are consumed in shard order, so the merged reports are
        // deterministic for a fixed shard count.
        let mut workers = Vec::with_capacity(s);
        let mut recordings = Vec::with_capacity(s);
        let mut failed = None;
        for (me, worked) in joined.into_iter().enumerate() {
            match worked {
                // the panicked worker names the cause; its peers only know
                // that their barrier was poisoned
                Err(panic) => {
                    return Err(ExecError::Aborted {
                        detail: format!("shard {me} panicked: {}", panic_message(&*panic)),
                    });
                }
                Ok(Err(e)) => failed = failed.or(Some(e)),
                Ok(Ok((out, recording))) => {
                    workers.push(out);
                    recordings.extend(recording);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let merged_obs = recordings.into_iter().reduce(|mut merged, r| {
            merged.merge(&r);
            merged
        });
        let (outcome, report) = ctx.merge(workers);
        Ok((outcome, report, merged_obs))
    }
}

/// Per-shard measurements from a sharded execution.
///
/// Wall-clock and traffic-split fields depend on the partition and the
/// machine, which is exactly why they live here and not in [`ExecStats`]:
/// the [`ScheduleOutcome`] stays byte-identical across shard counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Nodes owned by this shard.
    pub nodes: usize,
    /// Total degree owned by this shard (the balance target).
    pub degree: usize,
    /// Machine steps executed by this shard's worker.
    pub steps: u64,
    /// Messages delivered on arcs owned by this shard.
    pub delivered: u64,
    /// Messages this shard sent to other shards (through an outbox).
    pub cross_sent: u64,
    /// Wall-clock nanoseconds spent in step phases (nondeterministic).
    pub step_nanos: u64,
    /// Wall-clock nanoseconds spent in merge + drain phases
    /// (nondeterministic).
    pub drain_nanos: u64,
}

/// What a sharded execution reports beyond the (partition-independent)
/// [`ScheduleOutcome`]: the partition shape, cross-shard traffic, and
/// per-shard timing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardReport {
    /// Number of shards actually used (requested count clamped to `n`).
    pub shards: usize,
    /// Total messages that crossed a shard boundary (sum of
    /// [`ShardStats::cross_sent`]).
    pub cross_shard_messages: u64,
    /// Per-shard measurements, in shard order.
    pub per_shard: Vec<ShardStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::BlackBoxAlgorithm;
    use crate::plan::SchedulePlan;
    use crate::synthetic::{FloodBall, RelayChain};
    use das_graph::{generators, NodeId};

    /// `units` as a hand-built plan with big-rounds of `phase_len`.
    fn plan(p: &DasProblem<'_>, units: Vec<Unit>, phase_len: u64) -> SchedulePlan {
        SchedulePlan::assemble("hand-built", 0, phase_len, 0, p, units)
    }

    /// [`Executor::run_observed`] on `plan`'s step table, unrecorded.
    fn run(
        p: &DasProblem<'_>,
        plan: &SchedulePlan,
        config: &ExecutorConfig,
    ) -> Result<ScheduleOutcome, ExecError> {
        let steps = FlatSteps::build(p, plan).unwrap();
        Executor::run_observed(p, &steps, config, &ObsConfig::off()).map(|(outcome, _)| outcome)
    }

    /// [`Executor::run_sharded_observed`] likewise, on `shards` shards.
    fn run_sharded(
        p: &DasProblem<'_>,
        plan: &SchedulePlan,
        config: &ExecutorConfig,
        shards: usize,
    ) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
        let steps = FlatSteps::build(p, plan).unwrap();
        Executor::run_sharded_observed(p, &steps, config, shards, &ObsConfig::off())
            .map(|(outcome, report, _)| (outcome, report))
    }

    #[test]
    fn single_algorithm_zero_delay_matches_reference() {
        let g = generators::path(8);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 3);
        let units = vec![Unit::global(0, 0, 8)];
        let outcome = run(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        let reference = &p.references().unwrap()[0];
        assert_eq!(outcome.outputs[0], reference.outputs);
        assert_eq!(outcome.stats.late_messages, 0);
        // one message per round, phase 1: 7 rounds of activity
        assert_eq!(outcome.stats.delivered, 7);
    }

    #[test]
    fn two_relays_same_path_collide_with_zero_delays() {
        // both relays want the same edge in the same round; with phase 1 the
        // second message spills and arrives late
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let outcome = run(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        assert!(outcome.stats.late_messages > 0, "collision must surface");
    }

    #[test]
    fn two_relays_staggered_delays_both_correct() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        // delay the second by one big-round: the token trains never collide
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 1, 6)];
        let outcome = run(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        assert_eq!(outcome.stats.late_messages, 0);
        let refs = p.references().unwrap();
        assert_eq!(outcome.outputs[0], refs[0].outputs);
        assert_eq!(outcome.outputs[1], refs[1].outputs);
        // length: second relay starts at big-round 1, runs 5 rounds
        assert_eq!(outcome.stats.engine_rounds, 6);
    }

    #[test]
    fn departures_form_valid_simulation() {
        let g = generators::path(6);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 3);
        let units = vec![Unit::global(0, 2, 6)];
        let outcome = run(&p, &plan(&p, units, 3), &ExecutorConfig::default()).unwrap();
        let map = &outcome.departures.as_ref().unwrap()[0];
        let pattern = &p.references().unwrap()[0].pattern;
        das_pattern::verify_simulation(&g, pattern, map).unwrap();
    }

    #[test]
    fn truncation_limits_execution() {
        let g = generators::path(10);
        let p = DasProblem::new(&g, vec![Box::new(FloodBall::new(0, &g, NodeId(0), 9))], 1);
        // truncate everyone at 3 rounds: the flood stops after 3 hops
        let units = vec![Unit {
            algo: 0,
            delay: vec![0; 10],
            stride: 1,
            trunc: vec![3; 10],
        }];
        let outcome = run(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        // nodes 0..3 heard (they step rounds 0..3), beyond never stepped
        let out = &outcome.outputs[0];
        assert_eq!(out[2].as_ref().unwrap()[0], 1);
        assert_eq!(out[6].as_ref().unwrap()[0], 0);
    }

    #[test]
    fn two_units_earliest_wins_and_dedups() {
        let g = generators::path(5);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 2);
        // the same algorithm scheduled twice with different delays: the
        // canonical machine steps at the earlier one; total messages equal
        // one copy (dedup)
        let units = vec![Unit::global(0, 3, 5), Unit::global(0, 1, 5)];
        let outcome = run(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        assert_eq!(outcome.stats.delivered, 4, "one copy of each message");
        assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
    }

    #[test]
    fn round_cap_surfaces_as_typed_error_not_panic() {
        // two colliding relays need ~10 engine rounds; cap at 3
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let config = ExecutorConfig {
            max_engine_rounds: 3,
            ..ExecutorConfig::default()
        };
        let overloaded = plan(&p, units, 1);
        let err = run(&p, &overloaded, &config).unwrap_err();
        assert_eq!(
            err,
            ExecError::RoundCapExceeded {
                cap: 3,
                big_round: 3
            }
        );
        assert!(err.to_string().contains("cap 3"));
        // the sharded path reports the identical error
        let sharded_err = run_sharded(&p, &overloaded, &config, 3).unwrap_err();
        assert_eq!(sharded_err, err);
    }

    #[test]
    fn sharded_outcome_matches_sequential_byte_for_byte() {
        let g = generators::grid(4, 4);
        // snake route over the grid: left-to-right on even rows,
        // right-to-left on odd (consecutive hops are grid edges)
        let route: Vec<NodeId> = (0..4)
            .flat_map(|row: u32| {
                let cols: Vec<u32> = if row.is_multiple_of(2) {
                    (0..4).collect()
                } else {
                    (0..4).rev().collect()
                };
                cols.into_iter().map(move |c| NodeId(row * 4 + c))
            })
            .collect();
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::along(0, &g, route)) as Box<dyn BlackBoxAlgorithm>,
                Box::new(FloodBall::new(1, &g, NodeId(5), 3)),
            ],
            9,
        );
        let units = vec![Unit::global(0, 0, 16), Unit::global(1, 1, 16)];
        let (plan, config) = (plan(&p, units, 2), ExecutorConfig::default());
        let fused = run(&p, &plan, &config).unwrap();
        for shards in [1, 2, 5, 16, 64] {
            let (sharded, report) = run_sharded(&p, &plan, &config, shards).unwrap();
            assert_eq!(
                format!("{fused:?}"),
                format!("{sharded:?}"),
                "shards = {shards}"
            );
            assert_eq!(report.shards, shards.min(16));
            assert_eq!(report.per_shard.len(), report.shards);
            let sent: u64 = report.per_shard.iter().map(|s| s.cross_sent).sum();
            assert_eq!(sent, report.cross_shard_messages);
            if shards == 1 {
                assert_eq!(report.cross_shard_messages, 0);
            }
            let steps: u64 = report.per_shard.iter().map(|s| s.steps).sum();
            assert!(steps > 0, "workers actually stepped machines");
        }
    }
}
