//! Networked coordinator/worker execution: the sharded executor's
//! big-round barrier promoted to a real network barrier.
//!
//! The in-process sharded executor ([`crate::Executor::run_sharded`])
//! proved that a DAS execution partitions cleanly at big-round boundaries:
//! within a big-round every worker touches only its own nodes and the arcs
//! it owns, and cross-shard messages move exactly once per big-round. This
//! module runs the same protocol over TCP, one OS process per shard:
//!
//! * The **coordinator** owns the plan. It accepts one connection per
//!   shard, handshakes (protocol version + problem fingerprint), ships each
//!   worker the [`SchedulePlan`]'s columns for the nodes that worker owns
//!   ([`wire::PlanSlice`], guarded by a slice hash next to the full-plan
//!   hash) plus the shard assignment, then relays
//!   cross-shard outboxes at every big-round boundary and collects the
//!   per-shard outcomes at the end. Stragglers that JOIN after every slot
//!   is assigned are turned away with a typed REJECT
//!   ([`ExecError::LateJoin`]).
//! * A **worker** builds the identical problem locally (same graph,
//!   workload, and tape seed — enforced by the fingerprint), recomputes the
//!   same degree-balanced [`Partition`], and runs the production big-round
//!   loop (`exec/big_round.rs`) over the `Wire` exchange: the three
//!   in-process barriers become two framed round-trips (OUTBOX → INBOX,
//!   ACTIVITY → DECISION).
//!
//! ## The network-barrier invariant
//!
//! Byte-identity of the [`ScheduleOutcome`] extends verbatim from the
//! threaded path because the worker runs the *same loop* and the wire
//! preserves exactly what an exchange must (see `exec/big_round.rs`):
//!
//! * the coordinator routes each destination's INBOX by **ascending source
//!   shard**, each group in send order — the merge order of the
//!   in-process outbox sweep;
//! * the termination decision is computed from the same `(big_round,
//!   any_active)` pair the in-process protocol agrees on, against the
//!   *full* plan's last step round (a worker only holds its slice);
//! * nothing else crosses a shard boundary.
//!
//! ## Robustness
//!
//! Every blocking wait is deadline-bounded ([`NetConfig::io_timeout_ms`]):
//! a dead peer surfaces as a typed [`ExecError`] — never a hang. Worker
//! connects retry with bounded backoff; frames carry a length prefix
//! checked against [`NetConfig::max_frame_bytes`]; a coordinator Ctrl-C
//! (see [`install_ctrl_c`]) aborts all workers gracefully, and a second
//! Ctrl-C aborts the process.

use crate::exec::{
    big_round_loop, merge_shards, Exchange, ExecError, ExecStats, ExecutorConfig, FlatSteps,
    ShardCtx, ShardReport, ShardStats, StepExtent,
};
use crate::plan::{execute, SchedError, SchedulePlan, Topology};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use crate::wire::{
    self, accept_until, problem_fingerprint, Abort, Activity, ActivityTotals, Assign, Decision,
    Done, FlightGroup, FramedConn, Greeting, Hashed, Inbox, LinkTraffic, Outbox, PlanSlice, Reject,
    RoundCap, PROTOCOL_VERSION,
};
pub use crate::wire::{fnv1a, plan_hash};
use das_obs::{ExecObs, ObsConfig};
use std::borrow::Cow;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- config

/// Tunables of the networked path. Every blocking wait uses
/// `io_timeout_ms`, so no failure mode can hang either side.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Deadline for each blocking network wait (accept, read, write), in
    /// milliseconds. Also bounds the coordinator's wait for all workers to
    /// connect.
    pub io_timeout_ms: u64,
    /// How many times a worker retries its initial connect before giving
    /// up with [`ExecError::NetTimeout`].
    pub connect_retries: u32,
    /// Sleep between connect attempts, in milliseconds.
    pub connect_backoff_ms: u64,
    /// Upper bound on a single frame body, in both directions: a larger
    /// incoming length prefix is rejected before any allocation
    /// ([`ExecError::Net`]), a larger outgoing body before the first byte
    /// ([`ExecError::FrameTooLarge`]).
    pub max_frame_bytes: usize,
    /// Cooperative-shutdown flag: when set (e.g. by [`install_ctrl_c`]),
    /// the coordinator aborts all workers at the next protocol boundary
    /// and returns [`ExecError::Aborted`].
    pub stop: Option<Arc<AtomicBool>>,
    /// Optional live hub (coordinator side): per-worker cumulative totals
    /// piggybacked on `ACTIVITY` frames and per-link traffic snapshots are
    /// published into it every big-round. Publication is write-only and
    /// never adds frames or blocks the protocol, so the outcome is
    /// byte-identical with or without a hub attached.
    pub live: Option<Arc<das_obs::LiveHub>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout_ms: 30_000,
            connect_retries: 40,
            connect_backoff_ms: 250,
            max_frame_bytes: 64 << 20,
            stop: None,
            live: None,
        }
    }
}

impl NetConfig {
    /// Sets the per-wait deadline in milliseconds (clamped to ≥ 1).
    pub fn with_io_timeout_ms(mut self, ms: u64) -> Self {
        self.io_timeout_ms = ms.max(1);
        self
    }

    /// Attaches a cooperative-shutdown flag.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Attaches a live hub for coordinator-side telemetry publication.
    #[must_use]
    pub fn with_live(mut self, live: Option<Arc<das_obs::LiveHub>>) -> Self {
        self.live = live;
        self
    }

    fn io_timeout(&self) -> Duration {
        Duration::from_millis(self.io_timeout_ms.max(1))
    }

    /// Frames a connected stream under this configuration's deadline and
    /// frame limit.
    pub(crate) fn framed(&self, stream: TcpStream) -> Result<FramedConn, ExecError> {
        FramedConn::new(stream, self.io_timeout(), self.max_frame_bytes)
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst))
    }
}

/// What a networked execution reports beyond the (partition-independent)
/// [`ScheduleOutcome`]: the merged [`ShardReport`] plus coordinator-side
/// per-worker traffic, in shard order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetReport {
    /// The merged per-shard report, exactly as the in-process sharded
    /// executor returns it.
    pub shard: ShardReport,
    /// Coordinator-side traffic per worker connection, in shard order
    /// (`bytes_sent` = coordinator → worker).
    pub traffic: Vec<LinkTraffic>,
}

/// What [`run_worker`] reports once its shard completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// The shard this worker was assigned.
    pub shard: usize,
    /// Total shards in the run.
    pub shards: usize,
    /// Machine steps this worker executed.
    pub steps: u64,
    /// Messages delivered on arcs this worker owned.
    pub delivered: u64,
    /// Messages this worker sent to other shards.
    pub cross_sent: u64,
    /// Big-rounds executed (identical on every worker).
    pub big_rounds: u64,
    /// Worker-side traffic counters for the coordinator link.
    pub traffic: LinkTraffic,
}

// ---------------------------------------------------------------- Ctrl-C

static CTRL_C: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // async-signal-safe: atomic loads/stores and abort only
    if let Some(flag) = CTRL_C.get() {
        if flag.swap(true, Ordering::SeqCst) {
            // second Ctrl-C: the user wants out *now*
            std::process::abort();
        }
    }
}

/// Installs a SIGINT handler (Unix; a no-op flag elsewhere) and returns
/// the flag it sets. Wire the flag into [`NetConfig::with_stop`]: the
/// first Ctrl-C makes the coordinator abort all workers gracefully at the
/// next protocol boundary; a second Ctrl-C aborts the process.
pub fn install_ctrl_c() -> Arc<AtomicBool> {
    let flag = CTRL_C
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
    flag
}

// ---------------------------------------------------------------- coordinator

/// Executes a plan over networked workers: the networked analogue of
/// [`crate::execute_plan_sharded`], with byte-identical
/// [`ScheduleOutcome`].
///
/// The coordinator waits (deadline-bounded) for one connection per shard
/// on `listener` — `workers` is clamped to the node count exactly as the
/// in-process partition clamps shards — then drives the big-round relay
/// until every shard reports done.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the plan fails validation, or
/// [`SchedError::Exec`] with a typed [`ExecError`]: the usual
/// [`ExecError::RoundCapExceeded`] (propagated from workers in lockstep),
/// or a network failure — worker disconnect, truncated frame, handshake
/// mismatch, deadline expiry, abort.
pub fn execute_plan_networked(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, NetReport), SchedError> {
    let topology = Topology::Networked {
        workers,
        listener,
        net,
    };
    execute(
        problem,
        plan,
        &ExecutorConfig::default(),
        &ObsConfig::off(),
        topology,
    )
    .map(|e| {
        (
            e.outcome,
            NetReport {
                shard: e.shard,
                traffic: e.traffic,
            },
        )
    })
}

pub(crate) fn run_coordinator(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, NetReport), ExecError> {
    if workers == 0 {
        return Err(ExecError::Net {
            detail: "a networked run needs at least one worker".to_string(),
        });
    }
    let g = problem.graph();
    let part = Partition::degree_balanced(g, workers);
    let s = part.shards();
    let mut conns = accept_workers(problem, plan, &part, &listener, net)?;
    // Keep listening for the rest of the run: a worker that JOINs after
    // every slot is assigned gets a typed REJECT_FULL instead of a
    // connection-refused (late-JOIN doorman).
    let doorman_stop = Arc::new(AtomicBool::new(false));
    let doorman = spawn_doorman(listener, s, net.clone(), doorman_stop.clone());
    let result = coordinator_protocol(problem, plan, config, &part, &mut conns, net);
    if let Err(ref e) = result {
        // best-effort teardown so surviving workers fail fast with a
        // typed Aborted instead of waiting out their own deadlines
        let abort = Abort {
            reason: e.to_string(),
        }
        .encode();
        for c in conns.iter_mut() {
            let _ = c.send(wire::ABORT, &abort, "abort broadcast");
        }
    }
    doorman_stop.store(true, Ordering::SeqCst);
    let _ = doorman.join();
    let outcome = result?;
    // final authoritative snapshot: includes the DECISION and DONE
    // frames the mid-run barrier snapshots have not seen yet
    publish_links(net, &conns);
    let traffic: Vec<LinkTraffic> = conns.iter().map(|c| c.traffic.clone()).collect();
    debug_assert_eq!(traffic.len(), s);
    let (outcome, shard) = outcome;
    Ok((outcome, NetReport { shard, traffic }))
}

/// Accepts and handshakes one connection per shard, in shard order: reads
/// the JOIN, checks it, and replies with ASSIGN (or REJECT plus a typed
/// error on mismatch). The ASSIGN carries the worker's plan columns and
/// both hashes: the slice hash guards the shipped bytes, the full-plan hash
/// pins the run identity across all workers. Neither a stop request
/// (Ctrl-C) nor a missing worker can hang the wait.
fn accept_workers(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    part: &Partition,
    listener: &TcpListener,
    net: &NetConfig,
) -> Result<Vec<FramedConn>, ExecError> {
    let s = part.shards();
    let ours = Greeting {
        version: PROTOCOL_VERSION,
        fingerprint: problem_fingerprint(problem),
    };
    let plan_hash = plan_hash(plan);
    let deadline = Instant::now() + net.io_timeout();
    let mut conns: Vec<FramedConn> = Vec::with_capacity(s);
    let on_conn = |stream| {
        let shard = conns.len();
        let mut conn = net.framed(stream)?;
        conn.greet(wire::JOIN, &ours, "handshake (JOIN)")?;
        conn.set_worker(shard);
        // each worker gets only its own nodes' columns: O(plan/s) on the
        // wire instead of O(plan) per worker
        let slice = PlanSlice {
            plan,
            of_node: part.of_node(),
            shard: shard as u32,
        }
        .encode();
        let assign = Assign {
            shard: shard as u32,
            shards: s as u32,
            plan_hash,
            slice: Hashed(&slice),
            of_node: Cow::Borrowed(part.of_node()),
        };
        conn.send(wire::ASSIGN, &assign.encode(), "handshake (ASSIGN)")?;
        conns.push(conn);
        Ok(conns.len() == s)
    };
    if accept_until(listener, || net.stopped(), Some(deadline), on_conn)? {
        Ok(conns)
    } else if net.stopped() {
        Err(ExecError::Aborted {
            detail: "interrupted while waiting for workers".to_string(),
        })
    } else {
        Err(ExecError::NetTimeout {
            during: format!(
                "waiting for workers to connect ({} of {s} joined)",
                conns.len()
            ),
            ms: net.io_timeout_ms,
        })
    }
}

/// Owns the listener for the rest of the run and turns stragglers away:
/// any connection accepted after all shard slots are assigned gets its one
/// frame read (best-effort) and a `REJECT_FULL` reply, which workers
/// decode to [`ExecError::LateJoin`]. The thread exits promptly once
/// `stop` is set.
fn spawn_doorman(
    listener: TcpListener,
    shards: usize,
    net: NetConfig,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let full = Reject {
            code: wire::REJECT_FULL,
            ours: shards as u64,
            theirs: shards as u64,
        };
        let _ = accept_until(
            &listener,
            || stop.load(Ordering::SeqCst),
            None,
            |stream| {
                if let Ok(mut conn) = net.framed(stream) {
                    // read the straggler's JOIN so its REJECT is not lost
                    // in a half-open race; content does not matter
                    let _ = conn.recv("doorman (late JOIN)");
                    conn.reject(&full, "doorman (REJECT)");
                }
                Ok(false)
            },
        );
    })
}

/// The coordinator's relay loop plus the final merge. Mirrors
/// [`crate::Executor::run_sharded`]'s merge exactly — the outcome is
/// byte-identical.
fn coordinator_protocol(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
    part: &Partition,
    conns: &mut [FramedConn],
    net: &NetConfig,
) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
    let g = problem.graph();
    let n = g.node_count();
    let k = problem.k();
    let s = part.shards();
    let last_step_round = StepExtent::of(n, problem.algorithms(), &plan.units)
        .last
        .unwrap_or(0);

    let mut b: u64 = 0;
    loop {
        if net.stopped() {
            return Err(ExecError::Aborted {
                detail: format!("interrupted at big-round {b}"),
            });
        }
        // 1. Collect OUTBOX from every worker in ascending shard order and
        // append each group to its destination's INBOX. Reading sources in
        // ascending order reproduces the in-process merge order: per
        // destination, sources ascend and each group keeps its push order.
        let mut routed: Vec<FlightGroup> = vec![FlightGroup::default(); s];
        for (src, conn) in conns.iter_mut().enumerate() {
            let body = conn.expect(wire::OUTBOX, "collecting outboxes")?;
            let outbox = Outbox::decode(&body)?;
            expect_round("OUTBOX", outbox.big_round, b)?;
            for &(dst, flights) in outbox.groups.iter() {
                let dst = dst as usize;
                if dst >= s || dst == src {
                    return Err(ExecError::Net {
                        detail: format!("shard {src} routed a group to invalid shard {dst}"),
                    });
                }
                routed[dst].append(flights);
            }
        }
        // 2. Ship each destination its merged INBOX.
        for (conn, group) in conns.iter_mut().zip(&routed) {
            let inbox = Inbox {
                big_round: b,
                flights: group.flights(),
            };
            conn.send(wire::INBOX, &inbox.encode(), "shipping inboxes")?;
        }
        // 3. Collect post-drain activity.
        let mut any_active = false;
        for (src, conn) in conns.iter_mut().enumerate() {
            let activity = Activity::decode(&conn.expect(wire::ACTIVITY, "collecting activity")?)?;
            expect_round("ACTIVITY", activity.big_round, b)?;
            any_active |= activity.active;
            if let (Some(t), Some(hub)) = (activity.totals, &net.live) {
                hub.publish_worker_totals(
                    src as u32,
                    b,
                    t.steps,
                    t.delivered,
                    t.late,
                    t.cross_sent,
                );
            }
        }
        publish_links(net, conns);
        // 4. Broadcast the termination decision — the same predicate the
        // in-process path evaluates after its post-increment (`b + 1` here
        // is the worker's incremented big-round counter).
        let done = b + 1 > last_step_round && !any_active;
        let decision = Decision { big_round: b, done }.encode();
        for conn in conns.iter_mut() {
            conn.send(wire::DECISION, &decision, "broadcasting decision")?;
        }
        b += 1;
        if done {
            break;
        }
    }

    // Collect DONE frames and merge in shard order, exactly as the
    // in-process sharded executor merges its workers.
    let mut shards = Vec::with_capacity(s);
    for (src, conn) in conns.iter_mut().enumerate() {
        let body = conn.expect(wire::DONE, "collecting results")?;
        shards.push(Done::decode(&body, k, part.nodes_of(src))?);
    }
    Ok(merge_shards(n, k, config, last_step_round, shards))
}

/// Mirrors the per-link traffic counters into the live hub, if any.
fn publish_links(net: &NetConfig, conns: &[FramedConn]) {
    if let Some(hub) = &net.live {
        let links = conns
            .iter()
            .enumerate()
            .map(|(shard, c)| das_obs::LinkLive {
                shard,
                frames_sent: c.traffic.frames_sent,
                bytes_sent: c.traffic.bytes_sent,
                frames_received: c.traffic.frames_received,
                bytes_received: c.traffic.bytes_received,
            });
        hub.publish_links(links.collect());
    }
}

// ---------------------------------------------------------------- worker

/// Connects to a coordinator, receives a shard assignment, and runs that
/// shard of the plan to completion.
///
/// The worker must be launched on the *same problem* as the coordinator
/// (same graph spec, workload, and seed): the handshake fingerprint
/// enforces this, the received plan's hash is checked against the
/// announced one, and the shipped partition is cross-checked against a
/// local recomputation — so a drifted deployment fails typed and early
/// rather than producing divergent bytes.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the received plan fails validation for
/// the local problem; [`SchedError::Exec`] for the round cap or any
/// network failure, including [`ExecError::Aborted`] when the coordinator
/// tears the run down.
pub fn run_worker(
    problem: &DasProblem<'_>,
    connect: &str,
    net: &NetConfig,
) -> Result<WorkerOutcome, SchedError> {
    let mut conn = net.framed(connect_with_retry(connect, net)?)?;

    // JOIN → ASSIGN (or REJECT / ABORT)
    let join = Greeting {
        version: PROTOCOL_VERSION,
        fingerprint: problem_fingerprint(problem),
    };
    conn.send(wire::JOIN, &join.encode(), "handshake (JOIN)")?;
    let body = conn.expect(wire::ASSIGN, "handshake (waiting for ASSIGN)")?;
    let assign = Assign::decode(&body)?;
    let (shard, shards) = (assign.shard as usize, assign.shards as usize);
    let part = Partition::degree_balanced(problem.graph(), shards);
    if part.shards() != shards || *assign.of_node != *part.of_node() {
        return Err(SchedError::Exec(ExecError::Net {
            detail: "shipped partition disagrees with the locally recomputed \
                     degree-balanced partition"
                .to_string(),
        }));
    }
    if shard >= shards {
        return Err(SchedError::Exec(ExecError::Net {
            detail: format!("assigned shard {shard} out of range for {shards} shards"),
        }));
    }
    // only the shard's own columns are on the wire, so every step the
    // decoded plan schedules is on a node this shard owns
    let plan = PlanSlice::decode(assign.slice.0, part.of_node(), shard as u32)?;
    // received plans are untrusted, exactly like plans loaded from disk
    plan.validate(problem)?;
    // the production loop over the wire exchange; the plan slice's own
    // phase length is part of its semantics
    let g = problem.graph();
    let config = ExecutorConfig::default().with_phase_len(plan.phase_len);
    let seeds: Vec<u64> = (0..problem.k()).map(|i| problem.algo_seed(i)).collect();
    let flat = FlatSteps::build(g.node_count(), problem.algorithms(), &plan.units);
    let ctx = ShardCtx {
        g,
        algos: problem.algorithms(),
        seeds: &seeds,
        config: &config,
        flat: &flat,
        of_node: part.of_node(),
        shards,
    };
    let mut exchange = Wire {
        conn: &mut conn,
        inbox: FlightGroup::default(),
    };
    let out = big_round_loop(&ctx, shard, &mut exchange, &mut ExecObs::disabled())?;
    conn.send(wire::DONE, &out.encode(), "reporting results")?;
    Ok(WorkerOutcome {
        shard,
        shards,
        steps: out.shard.steps,
        delivered: out.stats.delivered,
        cross_sent: out.shard.cross_sent,
        big_rounds: out.big_rounds,
        traffic: conn.traffic.clone(),
    })
}

pub(crate) fn connect_with_retry(connect: &str, net: &NetConfig) -> Result<TcpStream, ExecError> {
    let started = Instant::now();
    let mut last_err = String::new();
    for attempt in 0..net.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(net.connect_backoff_ms));
        }
        let addrs = match connect.to_socket_addrs() {
            Ok(a) => a,
            Err(e) => {
                last_err = format!("resolve {connect}: {e}");
                continue;
            }
        };
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, net.io_timeout()) {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = format!("connect {addr}: {e}"),
            }
        }
    }
    Err(ExecError::NetTimeout {
        during: format!(
            "connecting to {connect} ({} attempts, last error: {last_err})",
            net.connect_retries.max(1)
        ),
        ms: started.elapsed().as_millis() as u64,
    })
}

/// The networked exchange: the in-process barriers as framed round-trips
/// through the coordinator. Frame layouts are [`crate::wire`]'s.
struct Wire<'c> {
    conn: &'c mut FramedConn,
    /// This big-round's INBOX, already merged in ascending source-shard
    /// order by the coordinator.
    inbox: FlightGroup,
}

/// Checks that a barrier frame belongs to big-round `b`.
fn expect_round(name: &str, round: u64, b: u64) -> Result<(), ExecError> {
    if round == b {
        Ok(())
    } else {
        Err(ExecError::Net {
            detail: format!("{name} for big-round {round}, expected {b}"),
        })
    }
}

impl Exchange for Wire<'_> {
    /// The first network barrier: OUTBOX up, INBOX down.
    fn exchange(
        &mut self,
        b: u64,
        staged: &mut [FlightGroup],
    ) -> Result<&[FlightGroup], ExecError> {
        let groups = staged.iter().enumerate();
        let outbox = Outbox {
            big_round: b,
            groups: groups
                .filter(|(_, group)| !group.is_empty())
                .map(|(dst, group)| (dst as u32, group.flights()))
                .collect::<Vec<_>>()
                .into(),
        };
        self.conn
            .send(wire::OUTBOX, &outbox.encode(), "sending outbox")?;
        staged.iter_mut().for_each(FlightGroup::clear);
        let body = self.conn.expect(wire::INBOX, "waiting for inbox")?;
        let inbox = Inbox::decode(&body)?;
        expect_round("INBOX", inbox.big_round, b)?;
        self.inbox.clear();
        self.inbox.append(inbox.flights);
        Ok(std::slice::from_ref(&self.inbox))
    }

    /// The second network barrier: ACTIVITY up, DECISION down. The
    /// coordinator decides against the full plan's last step round, so
    /// "not done" stands in for "some shard still has work".
    fn any_active(
        &mut self,
        b: u64,
        active: bool,
        shard: &ShardStats,
        stats: &ExecStats,
    ) -> Result<bool, ExecError> {
        let activity = Activity {
            big_round: b,
            active,
            // cumulative telemetry totals ride along for free
            totals: Some(ActivityTotals {
                steps: shard.steps,
                delivered: stats.delivered,
                late: stats.late_messages,
                cross_sent: shard.cross_sent,
            }),
        };
        self.conn
            .send(wire::ACTIVITY, &activity.encode(), "posting activity")?;
        let body = self.conn.expect(wire::DECISION, "waiting for decision")?;
        let decision = Decision::decode(&body)?;
        expect_round("DECISION", decision.big_round, b)?;
        Ok(!decision.done)
    }

    /// Every worker reaches the cap in the same big-round; each tells the
    /// coordinator and exits with the same typed error.
    fn abandon(&mut self, cap: u64, b: u64) {
        let error = RoundCap { cap, big_round: b }.encode();
        let _ = self.conn.send(wire::ERROR, &error, "reporting round cap");
    }
}
