//! Networked coordinator/worker execution: the sharded executor's
//! big-round barrier promoted to a real network barrier.
//!
//! The in-process sharded executor ([`crate::Topology::Sharded`]) proved
//! that a DAS execution partitions cleanly at big-round boundaries:
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
    ShardCtx, ShardReport, ShardStats,
};
use crate::plan::{ExecOptions, SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use crate::wire::{
    self, accept_until, problem_fingerprint, Abort, Activity, ActivityTotals, Assign, Decision,
    Done, FlightGroup, FramedConn, Greeting, Hashed, Inbox, LinkTraffic, Outbox, PlanSlice, Reject,
    RoundCap, PROTOCOL_VERSION,
};
pub use crate::wire::{fnv1a, plan_hash};
use das_obs::ExecObs;
use std::borrow::Cow;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- config

/// Connection settings of the networked path (a run's live hub is
/// [`ExecutorConfig::live`]). Every blocking wait uses `io_timeout_ms`, so
/// no failure mode can hang either side.
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
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout_ms: 30_000,
            connect_retries: 40,
            connect_backoff_ms: 250,
            max_frame_bytes: 64 << 20,
            stop: None,
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

/// The coordinator side of [`crate::Topology::Networked`]: waits
/// (deadline-bounded) for one connection per shard on `listener` —
/// `workers` is clamped to the node count exactly as the in-process
/// partition clamps shards — then drives the big-round relay until every
/// shard reports done. `steps` is `plan`'s step table. Returns the
/// outcome, the merged shard report, and the per-worker traffic in shard
/// order.
pub(crate) fn run_coordinator(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    steps: &FlatSteps,
    config: &ExecutorConfig,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, ShardReport, Vec<LinkTraffic>), ExecError> {
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
    let result = coordinator_protocol(problem, steps, config, &part, &mut conns, net);
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
    publish_links(config, &conns);
    let traffic: Vec<LinkTraffic> = conns.iter().map(|c| c.traffic.clone()).collect();
    debug_assert_eq!(traffic.len(), s);
    let (outcome, shard) = outcome;
    Ok((outcome, shard, traffic))
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
/// decode to [`ExecError::LateJoin`]. Once `stop` is set the thread turns
/// away what is already queued and exits: a straggler left in the backlog
/// would otherwise see a connection reset when the listener drops.
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
        let mut turn_away = |stream| {
            if let Ok(mut conn) = net.framed(stream) {
                // read the straggler's JOIN so its REJECT is not lost in a
                // half-open race; content does not matter
                let _ = conn.recv("doorman (late JOIN)");
                conn.reject(&full, "doorman (REJECT)");
            }
            Ok(false)
        };
        let _ = accept_until(
            &listener,
            || stop.load(Ordering::SeqCst),
            None,
            &mut turn_away,
        );
        // one pass over the backlog: a deadline of now ends the loop at the
        // first empty accept
        let _ = accept_until(&listener, || false, Some(Instant::now()), &mut turn_away);
    })
}

/// The coordinator's relay loop plus the final merge. Mirrors the
/// in-process sharded merge exactly — the outcome is byte-identical.
fn coordinator_protocol(
    problem: &DasProblem<'_>,
    steps: &FlatSteps,
    config: &ExecutorConfig,
    part: &Partition,
    conns: &mut [FramedConn],
    net: &NetConfig,
) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
    let (n, k, s) = (problem.graph().node_count(), problem.k(), part.shards());

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
            if let (Some(t), Some(hub)) = (activity.totals, &config.live) {
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
        publish_links(config, conns);
        // 4. Broadcast the termination decision — the same predicate the
        // in-process path evaluates after its post-increment (`b + 1` here
        // is the worker's incremented big-round counter).
        let done = b + 1 > steps.last_step_round && !any_active;
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
    Ok(merge_shards(n, k, steps, shards))
}

/// Mirrors the per-link traffic counters into the run's live hub, if any.
fn publish_links(config: &ExecutorConfig, conns: &[FramedConn]) {
    if let Some(hub) = &config.live {
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
    // received plans are untrusted, exactly like plans loaded from disk:
    // building the step table checks the slice
    let steps = FlatSteps::build(problem, &plan)?;
    // the production loop over the wire exchange, under the defaults the
    // coordinator checked it shares; the slice carries the phase length
    let config = ExecutorConfig::default();
    let ctx = ShardCtx::new(problem, &steps, &config, part.of_node(), shards);
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

// ---------------------------------------------------------------- localhost

/// Runs `coordinate` as the coordinator on this thread, handed networked
/// options for `workers` workers on an OS-assigned localhost port, with
/// that many honest [`run_worker`] threads (clamped to the node count, as
/// the coordinator clamps) sharing the in-memory problem — exactly as
/// separate processes would rebuild it from identical flags. Returns the
/// coordinator's result and every worker's, in spawn order.
///
/// # Errors
/// Only the localhost bind; the run's own failures are in the results.
pub fn on_localhost<T>(
    problem: &DasProblem<'_>,
    workers: usize,
    net: &NetConfig,
    coordinate: impl FnOnce(ExecOptions<'_>) -> T,
) -> std::io::Result<(T, Vec<Result<WorkerOutcome, SchedError>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    Ok(std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(problem.graph().node_count()))
            .map(|_| scope.spawn(|| run_worker(problem, &addr, net)))
            .collect();
        let result = coordinate(ExecOptions::networked(workers, listener, net));
        let joined = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (result, joined)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A straggler whose JOIN is already queued when the run ends gets its
    /// typed REJECT, not a connection reset from the dropped listener.
    #[test]
    fn doorman_turns_away_a_straggler_queued_before_stop() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let net = NetConfig::default().with_io_timeout_ms(5_000);
        let addr = listener.local_addr().expect("addr");
        let mut straggler = net
            .framed(TcpStream::connect(addr).expect("connect"))
            .expect("framed");
        let join = Greeting {
            version: PROTOCOL_VERSION,
            fingerprint: 0,
        };
        straggler
            .send(wire::JOIN, &join.encode(), "JOIN")
            .expect("JOIN");
        let stop = Arc::new(AtomicBool::new(true));
        spawn_doorman(listener, 2, net, stop)
            .join()
            .expect("doorman thread");
        let err = straggler.expect(wire::ASSIGN, "waiting for ASSIGN");
        assert_eq!(err, Err(ExecError::LateJoin { shards: 2 }));
    }
}
