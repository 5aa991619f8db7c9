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
pub(crate) use columnar::{FlatSteps, StepExtent};

use crate::algorithm::BlackBoxAlgorithm;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use big_round::{InProcess, InProcessShared, Local};
use das_graph::{Graph, NodeId};
use das_obs::{ExecObs, ObsConfig, ObsReport};
use das_pattern::{SimulationMap, TimedArc};
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
    /// [`EngineKind::Row`] was asked to run sharded. The row loop is the
    /// fused test oracle and has no sharded or networked form; declaring
    /// that beats silently running a different engine.
    RowIsFusedOnly {
        /// The shard count that was asked for.
        shards: usize,
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
            ExecError::RowIsFusedOnly { shards } => write!(
                f,
                "the row engine is the fused test oracle and cannot run on \
                 {shards} shards; use the batched engine"
            ),
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

/// Which loop executes a plan: the production loop or the test oracle.
/// Both produce byte-identical [`ScheduleOutcome`]s for every plan and
/// observability setting (enforced by `tests/shard_equivalence.rs`,
/// `tests/obs_neutrality.rs`, `tests/net_equivalence.rs` and the
/// `engine-equivalence` CI job); they differ only in throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The row-at-a-time reference loop: one message per active arc per
    /// engine round, heap-allocated payloads, per-message departure
    /// inserts. Kept as the executable specification every suite compares
    /// the production loop against. Fused only: asking for it sharded is
    /// [`ExecError::RowIsFusedOnly`].
    Row,
    /// Kept for source compatibility with `benchmark/src/probes.rs`; runs
    /// the production loop, exactly as [`EngineKind::ColumnarBatched`]
    /// does. Nothing else selects it.
    Columnar,
    /// The production loop (default), on every topology — fused, sharded,
    /// networked: per-arc arena queues drained in contiguous per-big-round
    /// batches, one arrival arena per shard, deferred departure recording,
    /// machines built as node-contiguous [`crate::NodeBatch`] slabs, and
    /// every algorithm's steps of a big-round dispatched as **one**
    /// virtual [`crate::AlgoSlab::step_block`] call. Sends are
    /// validated and enqueued in per-step order, which keeps the outcome
    /// byte-identical to the oracle. See `exec/big_round.rs`.
    #[default]
    ColumnarBatched,
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Engine rounds per big-round.
    pub phase_len: u64,
    /// Per-message payload limit in bytes (the scheduler's header is extra,
    /// as the paper allows).
    pub message_bytes: usize,
    /// Hard cap on engine rounds.
    pub max_engine_rounds: u64,
    /// Record message departures to build a causality-checkable
    /// [`SimulationMap`] per algorithm.
    pub record_departures: bool,
    /// Number of shards for [`Executor::run_sharded`] (clamped to the node
    /// count; [`Executor::run`] ignores it). The outcome is byte-identical
    /// for every shard count — sharding changes only the parallel layout.
    pub shards: usize,
    /// Which loop to run; outcomes are byte-identical either way (see
    /// [`EngineKind`]).
    pub engine: EngineKind,
    /// Live observability hub, if the run is being served. Probes publish
    /// write-only snapshots into it at big-round boundaries; execution
    /// never reads it, so outcomes stay byte-identical with or without it
    /// (`tests/obs_neutrality.rs` enforces this with a polling client).
    pub live: Option<std::sync::Arc<das_obs::LiveHub>>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            phase_len: 1,
            message_bytes: 40,
            max_engine_rounds: 10_000_000,
            record_departures: true,
            shards: 1,
            engine: EngineKind::default(),
            live: None,
        }
    }
}

impl ExecutorConfig {
    /// Sets the big-round length.
    pub fn with_phase_len(mut self, phase_len: u64) -> Self {
        self.phase_len = phase_len.max(1);
        self
    }

    /// Attaches a live observability hub for the run to publish into.
    pub fn with_live(mut self, live: Option<std::sync::Arc<das_obs::LiveHub>>) -> Self {
        self.live = live;
        self
    }

    /// Enables or disables departure recording.
    pub fn with_record_departures(mut self, record: bool) -> Self {
        self.record_departures = record;
        self
    }

    /// Sets the shard count for [`Executor::run_sharded`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Selects the engine implementation.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
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

/// The per-(algorithm, node) step plan: `plan[a][v]` lists the big-round of
/// each algorithm round `0, 1, 2, …` (a prefix of the rounds; truncation
/// can cut it short).
///
/// This nested table is the **row oracle's** structure and
/// [`StepPlan::build`]'s only caller in the crate is the row oracle:
/// production code lays steps out with the flat `FlatSteps` table and asks
/// `StepExtent` when it only needs the schedule's length.
#[derive(Clone, Debug)]
pub struct StepPlan {
    pub(crate) plan: Vec<Vec<Vec<u64>>>,
}

impl StepPlan {
    /// Builds the plan: round `r` of algorithm `a` at node `v` executes at
    /// the earliest big-round over all eligible units.
    ///
    /// # Panics
    /// Panics if units reference out-of-range algorithms or are missized.
    #[allow(clippy::needless_range_loop)]
    pub fn build(g: &Graph, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        let n = g.node_count();
        let mut plan: Vec<Vec<Vec<u64>>> = algos.iter().map(|_| vec![Vec::new(); n]).collect();
        // earliest[a][v][r]
        let mut earliest: Vec<Vec<Vec<Option<u64>>>> = algos
            .iter()
            .map(|a| vec![vec![None; a.rounds() as usize]; n])
            .collect();
        for u in units {
            assert!(u.algo < algos.len(), "unit for unknown algorithm");
            assert_eq!(u.delay.len(), n, "delay vector missized");
            assert_eq!(u.trunc.len(), n, "truncation vector missized");
            assert!(u.stride >= 1, "stride must be at least 1");
            let rounds = algos[u.algo].rounds();
            for v in 0..n {
                let lim = rounds.min(u.trunc[v]);
                for r in 0..lim {
                    let b = u.delay[v] + r as u64 * u.stride;
                    let slot = &mut earliest[u.algo][v][r as usize];
                    if slot.is_none_or(|cur| b < cur) {
                        *slot = Some(b);
                    }
                }
            }
        }
        for (a, per_node) in earliest.into_iter().enumerate() {
            for (v, rounds) in per_node.into_iter().enumerate() {
                let mut prev: Option<u64> = None;
                for (r, slot) in rounds.into_iter().enumerate() {
                    match slot {
                        Some(b) => {
                            assert!(
                                plan[a][v].len() == r,
                                "round {r} of algorithm {a} at node {v} scheduled \
                                 without its predecessor"
                            );
                            if let Some(p) = prev {
                                assert!(b > p, "step plan must be strictly increasing");
                            }
                            prev = Some(b);
                            plan[a][v].push(b);
                        }
                        None => break,
                    }
                }
            }
        }
        StepPlan { plan }
    }

    /// The big-rounds at which node `v` steps algorithm `a`.
    pub fn steps(&self, a: usize, v: NodeId) -> &[u64] {
        &self.plan[a][v.index()]
    }

    /// The last big-round with any step, or `None` for an empty plan.
    pub fn last_big_round(&self) -> Option<u64> {
        self.plan
            .iter()
            .flatten()
            .filter_map(|s| s.last().copied())
            .max()
    }
}

/// A message in flight (row oracle).
struct Flight {
    dst: NodeId,
    algo: u32,
    round: u32,
    from: NodeId,
    payload: Vec<u8>,
}

/// Per-arc FIFO of in-flight messages: a two-stack queue over plain `Vec`s
/// (push onto `back`, pop from `front`, refill by reversing), keeping the
/// hot path on flat storage whose allocations persist across big-rounds.
#[derive(Default)]
struct ArcFifo {
    /// Pop end, stored in reverse arrival order.
    front: Vec<Flight>,
    /// Push end, in arrival order.
    back: Vec<Flight>,
}

impl ArcFifo {
    #[inline]
    fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.front.is_empty() && self.back.is_empty()
    }

    #[inline]
    fn push_back(&mut self, f: Flight) {
        self.back.push(f);
    }

    #[inline]
    fn pop_front(&mut self) -> Option<Flight> {
        if self.front.is_empty() {
            self.front.extend(self.back.drain(..).rev());
        }
        self.front.pop()
    }
}

/// Arrival buffer for one (algorithm, node) machine: inbox entries keyed by
/// algorithm-round tag. The executor consumes tags strictly in order (step
/// `r` consumes tag `r - 1`) and drops older arrivals as late, so the live
/// tags form a window starting at the consumer's next tag. A flat ring over
/// a power-of-two array of buckets therefore replaces a `BTreeMap`, with
/// the bucket vectors reused across rounds.
#[derive(Default)]
struct TagWindow {
    /// Smallest tag the window can currently hold.
    base: u32,
    /// Ring position of `base`'s bucket.
    head: usize,
    /// Power-of-two ring of buckets (empty until the first push).
    buckets: Vec<Vec<(NodeId, Vec<u8>)>>,
}

impl TagWindow {
    /// Files one arrival under `tag`. Requires `tag >= base`, which the
    /// executor's late-drop check guarantees.
    fn push(&mut self, tag: u32, from: NodeId, payload: Vec<u8>) {
        debug_assert!(tag >= self.base, "arrival below the live window");
        let offset = (tag - self.base) as usize;
        if offset >= self.buckets.len() {
            self.grow(offset + 1);
        }
        let pos = (self.head + offset) & (self.buckets.len() - 1);
        self.buckets[pos].push((from, payload));
    }

    /// Moves the bucket for `tag` into `into` (clearing it first) and
    /// advances the window past `tag`. Buckets below `tag` must already be
    /// empty — the executor consumes tags strictly in order.
    fn take(&mut self, tag: u32, into: &mut Vec<(NodeId, Vec<u8>)>) {
        into.clear();
        debug_assert!(tag >= self.base, "tags are consumed in order");
        if self.buckets.is_empty() {
            self.base = tag + 1;
            return;
        }
        let len = self.buckets.len();
        let offset = (tag - self.base) as usize;
        if offset >= len {
            // the window never stretched to this tag: nothing is stored
            debug_assert!(self.buckets.iter().all(|b| b.is_empty()));
            self.base = tag + 1;
            self.head = 0;
            return;
        }
        let mask = len - 1;
        for i in 0..offset {
            debug_assert!(
                self.buckets[(self.head + i) & mask].is_empty(),
                "skipped a live tag"
            );
        }
        // swap rather than take, so `into`'s allocation returns to the ring
        std::mem::swap(into, &mut self.buckets[(self.head + offset) & mask]);
        self.head = (self.head + offset + 1) & mask;
        self.base = tag + 1;
    }

    fn grow(&mut self, min_len: usize) {
        let new_len = min_len.next_power_of_two().max(4);
        let mut new_buckets: Vec<Vec<(NodeId, Vec<u8>)>> = Vec::with_capacity(new_len);
        new_buckets.resize_with(new_len, Vec::new);
        let old_len = self.buckets.len();
        for (i, slot) in new_buckets.iter_mut().enumerate().take(old_len) {
            *slot = std::mem::take(&mut self.buckets[(self.head + i) & (old_len - 1)]);
        }
        self.buckets = new_buckets;
        self.head = 0;
    }
}

/// Runs a scheduled execution; see the `exec` module docs at the top of
/// this file for the semantics.
pub struct Executor;

impl Executor {
    /// Executes `units` over the problem's algorithms with the given
    /// configuration, returning outputs, stats, and (optionally) the
    /// per-algorithm simulation maps.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] if the queues have not
    /// drained by `config.max_engine_rounds`.
    ///
    /// # Panics
    /// Panics if the plan is malformed (missized vectors, zero stride,
    /// unknown algorithm) — plans from untrusted sources go through
    /// [`crate::SchedulePlan::validate`] first.
    pub fn run(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
    ) -> Result<ScheduleOutcome, ExecError> {
        Self::run_with(g, algos, seeds, units, config, &mut ExecObs::disabled())
    }

    /// Like [`Executor::run`], recording observability at the level `obs`
    /// asks for. The outcome is byte-identical to [`Executor::run`] for
    /// every `obs` setting — the probe only reads executor state and never
    /// feeds back into it (`tests/obs_neutrality.rs` enforces this
    /// property-style). Returns `None` for the report when recording is
    /// disabled.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] exactly as [`Executor::run`]
    /// does.
    ///
    /// # Panics
    /// Panics on malformed plans, as [`Executor::run`] does.
    pub fn run_observed(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, Option<ObsReport>), ExecError> {
        let mut probe = ExecObs::new(obs, 0);
        probe.attach_live(config.live.clone());
        let outcome = Self::run_with(g, algos, seeds, units, config, &mut probe)?;
        Ok((outcome, probe.finish()))
    }

    /// The fused executor; `obs` hooks are self-guarded no-ops when
    /// recording is off, so this is also [`Executor::run`]'s body. The
    /// production engines run the shared big-round loop as one shard that
    /// owns every node ([`Local`] exchange). The body below is the **row**
    /// engine — the executable specification the production loop must match
    /// byte-for-byte.
    fn run_with(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        obs: &mut ExecObs,
    ) -> Result<ScheduleOutcome, ExecError> {
        if config.engine != EngineKind::Row {
            let n = g.node_count();
            let flat = FlatSteps::build(n, algos, units);
            let ctx = ShardCtx {
                g,
                algos,
                seeds,
                config,
                flat: &flat,
                of_node: &vec![0; n],
                shards: 1,
            };
            let whole = big_round_loop(&ctx, 0, &mut Local, obs)?;
            let merged = merge_shards(n, algos.len(), config, flat.last_step_round, vec![whole]);
            return Ok(merged.0);
        }
        let n = g.node_count();
        let k = algos.len();
        assert_eq!(seeds.len(), k, "one seed per algorithm");
        let plan = StepPlan::build(g, algos, units);

        // Canonical machines and their progress.
        let mut machines: Vec<Vec<Box<dyn crate::algorithm::AlgoNode>>> = (0..k)
            .map(|a| {
                (0..n)
                    .map(|v| {
                        algos[a].create_node(
                            NodeId(v as u32),
                            n,
                            das_congest::util::seed_mix(seeds[a], v as u64),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut steps_done = vec![vec![0u32; n]; k];
        // Buffered arrivals: one flat TagWindow per (algorithm, node),
        // indexed densely at `a * n + v`.
        let mut buffers: Vec<TagWindow> = Vec::with_capacity(k * n);
        buffers.resize_with(k * n, TagWindow::default);
        let mut inbox: Vec<(NodeId, Vec<u8>)> = Vec::new();

        // Steps grouped by big-round: big-rounds are dense, so a flat Vec
        // indexed by `b` replaces a BTreeMap.
        let last_step_round = plan.last_big_round().unwrap_or(0);
        let mut by_big_round: Vec<Vec<(u32, u32, u32)>> =
            vec![Vec::new(); last_step_round as usize + 1];
        for a in 0..k {
            for v in 0..n {
                for (r, &b) in plan.plan[a][v].iter().enumerate() {
                    by_big_round[b as usize].push((a as u32, v as u32, r as u32));
                }
            }
        }

        let mut queues: Vec<ArcFifo> = Vec::with_capacity(g.arc_count());
        queues.resize_with(g.arc_count(), ArcFifo::default);
        let mut active_arcs: Vec<usize> = Vec::new();
        obs.init(g.arc_count(), config.phase_len);
        let mut stats = ExecStats {
            phase_len: config.phase_len,
            ..ExecStats::default()
        };
        let mut departures: Vec<SimulationMap> = vec![SimulationMap::new(); k];
        let mut engine_round: u64 = 0;
        let mut last_activity_round: u64 = 0;

        let mut b: u64 = 0;
        loop {
            // 1. Execute the steps scheduled at big-round b.
            if let Some(steps) = by_big_round.get(b as usize) {
                for &(a, v, r) in steps {
                    let (a, v) = (a as usize, v as usize);
                    debug_assert_eq!(steps_done[a][v], r, "steps execute in order");
                    if r == 0 {
                        inbox.clear();
                    } else {
                        buffers[a * n + v].take(r - 1, &mut inbox);
                    }
                    // canonical inbox order, matching the reference runner
                    inbox.sort();
                    obs.on_step(inbox.len());
                    let sends = machines[a][v].step(&inbox);
                    steps_done[a][v] = r + 1;
                    let me = NodeId(v as u32);
                    let mut sent_to: Vec<NodeId> = Vec::new();
                    for s in sends {
                        let valid = g.find_edge(me, s.to).is_some()
                            && s.payload.len() <= config.message_bytes
                            && !sent_to.contains(&s.to);
                        if !valid {
                            stats.invalid_sends += 1;
                            obs.on_invalid_send();
                            continue;
                        }
                        sent_to.push(s.to);
                        let edge = g.find_edge(me, s.to).expect("validated");
                        let arc = g.arc_from(edge, me);
                        let q = &mut queues[arc.index()];
                        if q.is_empty() {
                            active_arcs.push(arc.index());
                        }
                        q.push_back(Flight {
                            dst: s.to,
                            algo: a as u32,
                            round: r,
                            from: me,
                            payload: s.payload,
                        });
                        stats.max_arc_queue = stats.max_arc_queue.max(q.len());
                        obs.on_inject(arc.index(), q.len());
                    }
                }
            }

            // 2. Drain queues for phase_len engine rounds.
            for _ in 0..config.phase_len {
                let arcs = std::mem::take(&mut active_arcs);
                for arc_idx in arcs {
                    let Some(f) = queues[arc_idx].pop_front() else {
                        continue;
                    };
                    if !queues[arc_idx].is_empty() {
                        active_arcs.push(arc_idx);
                    }
                    let (a, v) = (f.algo as usize, f.dst.index());
                    if config.record_departures {
                        departures[a].insert(
                            TimedArc {
                                round: f.round,
                                arc: das_graph::Arc::from_index(arc_idx),
                            },
                            engine_round as u32,
                        );
                    }
                    let late = steps_done[a][v] >= f.round + 2;
                    if late {
                        stats.late_messages += 1;
                    } else {
                        buffers[a * n + v].push(f.round, f.from, f.payload);
                        stats.delivered += 1;
                    }
                    obs.on_deliver(engine_round, late);
                    last_activity_round = engine_round + 1;
                }
                engine_round += 1;
                if engine_round > config.max_engine_rounds {
                    return Err(ExecError::RoundCapExceeded {
                        cap: config.max_engine_rounds,
                        big_round: b,
                    });
                }
            }

            obs.end_big_round(b);
            b += 1;
            if b > last_step_round && active_arcs.is_empty() {
                break;
            }
        }

        stats.big_rounds = b;
        // Schedule length: last big-round boundary with any step, extended
        // by any drain tail.
        stats.engine_rounds = (last_step_round + 1)
            .saturating_mul(config.phase_len)
            .max(last_activity_round);

        let outputs = machines
            .iter()
            .map(|per_node| per_node.iter().map(|m| m.output()).collect())
            .collect();
        Ok(ScheduleOutcome {
            outputs,
            stats,
            departures: config.record_departures.then_some(departures),
            precompute_rounds: 0,
        })
    }

    /// Executes `units` sharded: nodes are partitioned into
    /// `config.shards` degree-balanced shards (see [`Partition`]), each
    /// driven by its own worker thread running the production big-round
    /// loop. Workers step their own nodes and drain the arcs they own (an
    /// arc belongs to the shard of its *destination* node) freely within a
    /// big-round; cross-shard messages travel through per-(shard, shard)
    /// outboxes and enter the owner's queues only at the big-round
    /// boundary.
    ///
    /// The returned [`ScheduleOutcome`] is **byte-identical** to
    /// [`Executor::run`] for every plan and shard count (see
    /// `exec/big_round.rs` for why). Wall-clock and traffic measurements
    /// that *do* depend on the partition are returned separately in the
    /// [`ShardReport`].
    ///
    /// One dedicated thread per shard is spawned (independent of any rayon
    /// pool and of `RAYON_NUM_THREADS`), so big-round barriers cannot
    /// starve.
    ///
    /// # Errors
    /// [`ExecError::RoundCapExceeded`] if the queues have not drained by
    /// `config.max_engine_rounds` — all workers observe the identical
    /// engine-round counter, so they abandon the run in lockstep;
    /// [`ExecError::RowIsFusedOnly`] for [`EngineKind::Row`];
    /// [`ExecError::Aborted`] if a worker (a black-box machine) panics —
    /// its peers leave their barriers instead of waiting forever.
    ///
    /// # Panics
    /// Panics if the plan is malformed (missized vectors, zero stride,
    /// unknown algorithm).
    pub fn run_sharded(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
    ) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
        Self::run_sharded_observed(g, algos, seeds, units, config, &ObsConfig::off())
            .map(|(outcome, report, _)| (outcome, report))
    }

    /// Like [`Executor::run_sharded`], recording observability at the level
    /// `obs` asks for: each shard worker carries its own probe (events land
    /// on that shard's lane/track) and the per-shard recordings merge into
    /// one report in shard order — so the report's deterministic content is
    /// independent of thread interleaving, and the [`ScheduleOutcome`]
    /// stays byte-identical to [`Executor::run`] for every `obs` setting.
    /// Returns `None` for the report when recording is disabled.
    ///
    /// # Errors
    /// Exactly as [`Executor::run_sharded`].
    ///
    /// # Panics
    /// Panics on malformed plans, as [`Executor::run_sharded`] does.
    pub fn run_sharded_observed(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), ExecError> {
        if config.engine == EngineKind::Row {
            return Err(ExecError::RowIsFusedOnly {
                shards: config.shards,
            });
        }
        let n = g.node_count();
        let part = Partition::degree_balanced(g, config.shards);
        let s = part.shards();
        let flat = FlatSteps::build(n, algos, units);
        let ctx = ShardCtx {
            g,
            algos,
            seeds,
            config,
            flat: &flat,
            of_node: part.of_node(),
            shards: s,
        };
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
        let (outcome, report) = merge_shards(n, algos.len(), config, flat.last_step_round, workers);
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
    use crate::problem::DasProblem;
    use crate::synthetic::{FloodBall, RelayChain};
    use das_graph::generators;

    #[test]
    fn single_algorithm_zero_delay_matches_reference() {
        let g = generators::path(8);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 3);
        let units = vec![Unit::global(0, 0, 8)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
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
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0), p.algo_seed(1)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
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
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0), p.algo_seed(1)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
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
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default().with_phase_len(3),
        )
        .unwrap();
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
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
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
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
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
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let err = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap_err();
        assert_eq!(
            err,
            ExecError::RoundCapExceeded {
                cap: 3,
                big_round: 3
            }
        );
        assert!(err.to_string().contains("cap 3"));
        // the sharded path reports the identical error
        let sharded_err =
            Executor::run_sharded(&g, p.algorithms(), &seeds, &units, &config.with_shards(3))
                .unwrap_err();
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
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let units = vec![Unit::global(0, 0, 16), Unit::global(1, 1, 16)];
        let config = ExecutorConfig::default().with_phase_len(2);
        let fused = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
        for shards in [1, 2, 5, 16, 64] {
            let (sharded, report) = Executor::run_sharded(
                &g,
                p.algorithms(),
                &seeds,
                &units,
                &config.clone().with_shards(shards),
            )
            .unwrap();
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

    #[test]
    fn row_and_columnar_engines_agree_byte_for_byte() {
        let g = generators::grid(4, 4);
        // snake route over the grid, as in the sharded byte-identity test
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
                Box::new(RelayChain::along(0, &g, route.clone())) as Box<dyn BlackBoxAlgorithm>,
                Box::new(RelayChain::along(1, &g, route)),
                Box::new(FloodBall::new(2, &g, NodeId(5), 3)),
            ],
            11,
        );
        let seeds = [p.algo_seed(0), p.algo_seed(1), p.algo_seed(2)];
        let units = vec![
            Unit::global(0, 0, 16),
            Unit::global(1, 0, 16),
            Unit::global(2, 1, 16),
        ];
        for phase_len in [1, 2, 5] {
            let base = ExecutorConfig::default().with_phase_len(phase_len);
            let row = Executor::run(
                &g,
                p.algorithms(),
                &seeds,
                &units,
                &base.clone().with_engine(EngineKind::Row),
            )
            .unwrap();
            let batched = Executor::run(
                &g,
                p.algorithms(),
                &seeds,
                &units,
                &base.clone().with_engine(EngineKind::ColumnarBatched),
            )
            .unwrap();
            assert_eq!(
                format!("{row:?}"),
                format!("{batched:?}"),
                "phase_len = {phase_len} (batched)"
            );
        }
    }

    #[test]
    fn row_and_columnar_engines_agree_on_the_round_cap_error() {
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
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let config = ExecutorConfig {
            max_engine_rounds: 3,
            ..ExecutorConfig::default()
        };
        let row = Executor::run(
            &g,
            p.algorithms(),
            &seeds,
            &units,
            &config.clone().with_engine(EngineKind::Row),
        )
        .unwrap_err();
        let batched = Executor::run(
            &g,
            p.algorithms(),
            &seeds,
            &units,
            &config.with_engine(EngineKind::ColumnarBatched),
        )
        .unwrap_err();
        assert_eq!(row, batched);
    }

    #[test]
    fn stride_spreads_steps() {
        let g = generators::path(4);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 2);
        let units = vec![Unit {
            algo: 0,
            delay: vec![0; 4],
            stride: 3,
            trunc: vec![u32::MAX; 4],
        }];
        let plan = StepPlan::build(&g, p.algorithms(), &units);
        assert_eq!(plan.steps(0, NodeId(0)), &[0, 3, 6]);
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
    }

    /// `k` floods of random depth on `g` and a random unit list over them:
    /// empty plans, several units per algorithm, `trunc = 0`, strides > 1.
    fn random_multi_unit_plan(g: &Graph, seed: u64) -> (DasProblem<'_>, Vec<Unit>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.node_count();
        let k = rng.gen_range(1..4usize);
        let algos = (0..k)
            .map(|i| {
                let depth = rng.gen_range(1..5u32);
                Box::new(FloodBall::new(i as u64, g, NodeId(0), depth))
                    as Box<dyn BlackBoxAlgorithm>
            })
            .collect();
        let units = (0..rng.gen_range(0..7usize))
            .map(|_| Unit {
                algo: rng.gen_range(0..k),
                delay: (0..n).map(|_| rng.gen_range(0..12u64)).collect(),
                stride: rng.gen_range(1..4u64),
                trunc: (0..n)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => u32::MAX,
                        _ => rng.gen_range(1..7u32),
                    })
                    .collect(),
            })
            .collect();
        (DasProblem::new(g, algos, seed), units)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn extent_and_flat_table_match_the_row_step_plan(seed: u64, n in 1usize..9) {
            let g = generators::path(n);
            let (p, units) = random_multi_unit_plan(&g, seed);
            let row = StepPlan::build(&g, p.algorithms(), &units);
            proptest::prop_assert_eq!(
                StepExtent::of(n, p.algorithms(), &units).last,
                row.last_big_round()
            );
            let flat = FlatSteps::build(n, p.algorithms(), &units);
            proptest::prop_assert_eq!(flat.is_empty(), row.last_big_round().is_none());
            for b in 0..=flat.last_step_round + 1 {
                let mut want = Vec::new();
                for (a, per_node) in row.plan.iter().enumerate() {
                    for (v, rounds) in per_node.iter().enumerate() {
                        if let Some(r) = rounds.iter().position(|&at| at == b) {
                            want.push((a as u32, v as u32, r as u32));
                        }
                    }
                }
                proptest::prop_assert_eq!(flat.triples(b).collect::<Vec<_>>(), want);
                // runs are non-empty, ascending and disjoint within an
                // algorithm, and maximal: none continues its predecessor
                let runs = flat.at(b);
                proptest::prop_assert!(runs.iter().all(|run| run.lo < run.hi));
                for pair in runs.windows(2) {
                    let (p, q) = (pair[0], pair[1]);
                    proptest::prop_assert!((p.algo, p.hi) <= (q.algo, q.lo), "{:?}", pair);
                    let continues = (p.algo, p.round, p.hi) == (q.algo, q.round, q.lo);
                    proptest::prop_assert!(!continues, "{:?} should be one run", pair);
                }
            }
        }
    }

    #[test]
    fn extent_rejects_a_non_increasing_plan_like_the_row_builder() {
        // stride 0 is the only way a unit list can repeat a big-round
        let g = generators::path(3);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 2);
        let units = vec![Unit {
            algo: 0,
            delay: vec![1; 3],
            stride: 0,
            trunc: vec![u32::MAX; 3],
        }];
        let message = |f: &dyn Fn()| {
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
            err.downcast_ref::<&str>().map(|s| s.to_string())
        };
        let row = message(&|| {
            StepPlan::build(&g, p.algorithms(), &units);
        });
        let extent = message(&|| {
            StepExtent::of(3, p.algorithms(), &units);
        });
        assert_eq!(row.as_deref(), Some("stride must be at least 1"));
        assert_eq!(extent, row);
    }
}
