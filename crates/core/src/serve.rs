//! The long-lived scheduling service: `dasched serve`.
//!
//! A serve daemon turns the one-shot plan → execute → verify pipeline into
//! an online admission problem — the paper's framing of DAS as co-running
//! many independent jobs against shared congestion and dilation budgets,
//! kept running indefinitely:
//!
//! * **Clients** connect over the same length-prefixed framed-TCP layer
//!   the networked executor uses ([`crate::net`]), handshake with
//!   HELLO/CAPS (protocol version + graph fingerprint; the server
//!   advertises its capacity), and SUBMIT jobs carrying *declared*
//!   dilation / congestion / payload budgets.
//! * **Admission** is capability-based and content-free: a job is admitted
//!   or rejected by comparing its declared budgets against the advertised
//!   [`Capacity`] — arithmetic on announced numbers only, the same class
//!   of computation as [`crate::plan::analysis::predict`]'s precheck (no
//!   payload is inspected, no execution happens). Over-budget jobs get a
//!   typed REJECTED naming the violated budget; a job the graph cannot
//!   host (a flood of depth 0 or from a node that does not exist, a relay
//!   on a graph whose consecutive node ids are not all adjacent) gets
//!   REJECTED(MALFORMED).
//! * **Batching** is work-conserving: the executor waits only for the
//!   *first* admitted job, then takes up to [`ServeConfig::batch_max`]
//!   queued jobs at once. A job that reaches an idle daemon runs
//!   immediately; under load, jobs queue while the previous batch runs,
//!   so batches fill without any timer. A batch of `k` jobs becomes one
//!   [`DasProblem`] (the job id is the algorithm id, so each job's random
//!   tape — and therefore its outputs — is independent of which other
//!   jobs share its batch). The batch is planned from scratch (every
//!   batch is a different problem) and executed on the bounded
//!   in-process sharded pool; a panic anywhere in that pipeline fails
//!   only its own batch (`ExecFailed`), never the executor.
//! * **Trust, then verify**: declared budgets are *not* trusted beyond
//!   admission. After execution the server measures each job's real
//!   dilation and congestion from its reference run and cross-checks the
//!   declaration; a lying job comes back with
//!   [`JobStatus::BudgetMismatch`] even if its outputs verified clean.
//!   Outputs themselves are checked against the alone-run references
//!   ([`crate::verify::against_references`]) — the paper's correctness
//!   criterion — so a RESULT with [`JobStatus::Ok`] carries outputs
//!   byte-identical to a one-shot run of the same job set.
//! * **Stage clock**: every batch is timed from its oldest job's
//!   admission through dispatch, instantiate, references, plan, execute,
//!   verify and answer; `GET /jobs` shows the last batch's row and the
//!   cumulative per-stage sums (daemon-side only: no frame carries them).
//!
//! [`run_loadgen`] is the deterministic counterpart: N client threads
//! submit seeded job streams, optionally re-deriving every output locally
//! to assert the byte-identity end-to-end, and report sustained jobs/sec
//! with p50/p95/p99 latency.

use crate::algorithm::OutputRow;
use crate::exec::{panic_message, ExecError};
use crate::net::{connect_with_retry, NetConfig};
use crate::pipeline::{self, PlanFrom, Ran};
use crate::plan::{ExecOptions, SchedError, Topology};
use crate::problem::DasProblem;
use crate::reference::run_alone;
use crate::schedulers::Scheduler;
use crate::synthetic::{FloodBall, RelayChain};
use crate::wire::{
    self, accept_until, graph_fingerprint, Accepted, Caps, FramedConn, Greeting, JobOutputs,
    JobResult, Rejected, Submit, PROTOCOL_VERSION,
};
use das_graph::{Graph, NodeId};
use das_obs::{micros, JobsLive, LiveHub, Stages};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often blocked serve-side waits re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

/// Per-pool capacity the server advertises in its CAPS frame and admits
/// against. Budgets are *declared* quantities — admission never inspects
/// job content, so these caps bound what the pool has agreed to carry,
/// not what a client managed to sneak in (lies are caught post-execution
/// by the measured-budget cross-check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacity {
    /// Largest declared dilation (algorithm rounds) admitted.
    pub max_dilation: u32,
    /// Largest declared per-edge congestion admitted.
    pub max_congestion: u64,
    /// Largest declared message payload, in bytes, admitted; at most
    /// [`crate::MESSAGE_BYTES`], the most the executor carries.
    pub max_payload_bytes: u32,
}

impl Default for Capacity {
    fn default() -> Self {
        Capacity {
            max_dilation: 256,
            max_congestion: 4096,
            max_payload_bytes: crate::MESSAGE_BYTES as u32,
        }
    }
}

/// The job families a serve daemon accepts. Jobs are *specifications* —
/// the server instantiates the black-box algorithm itself, so a SUBMIT
/// frame carries parameters, never code or payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// [`FloodBall`] from `source` to the given `depth`.
    Flood,
    /// [`RelayChain`] along the job-seeded route (`source`/`depth`
    /// ignored).
    Relay,
}

/// A job's declared budgets, as carried in its SUBMIT frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Declared dilation: the algorithm's round count.
    pub dilation: u32,
    /// Declared congestion: the job's maximum per-edge message load.
    pub congestion: u64,
    /// Declared maximum message payload, in bytes.
    pub payload_bytes: u32,
}

/// One submitted job: identity, family, parameters, declared budgets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen job id; becomes the algorithm id (`aid`), which makes
    /// the job's random tape — and outputs — batch-independent.
    pub job_id: u64,
    /// The job family.
    pub kind: JobKind,
    /// Source node (floods; ignored for relays).
    pub source: u32,
    /// Flood depth (floods; ignored for relays).
    pub depth: u32,
    /// The declared budgets admission checks against [`Capacity`].
    pub declared: Budgets,
}

/// Why admission refused a job: the violated budget and both numbers, as
/// shipped in the REJECTED frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// A `wire::BUDGET_*` / [`wire::MALFORMED`] code.
    pub code: u32,
    /// The job's declared value for the violated budget (for `MALFORMED`,
    /// the offending field).
    pub declared: u64,
    /// The server's capacity for it (for `MALFORMED`, that field's bound).
    pub capacity: u64,
}

/// What the daemon's graph can host, computed once per daemon: admission
/// reads these numbers, never the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hosting {
    /// Node count: a flood's source must lie below it.
    pub nodes: usize,
    /// Whether nodes `0, 1, …, n−1` form a route of adjacent nodes — the
    /// one a [`JobKind::Relay`] job runs along ([`RelayChain::new`]).
    pub relays: bool,
}

impl Hosting {
    /// Reads `g` once.
    pub fn of(g: &Graph) -> Self {
        let ids: Vec<NodeId> = g.nodes().collect();
        Hosting {
            nodes: ids.len(),
            relays: !ids.is_empty() && ids.windows(2).all(|w| g.has_edge(w[0], w[1])),
        }
    }
}

/// Content-free admission: compares the job's declared budgets against
/// the advertised capacity, after checking that the graph can host the
/// job at all — nothing else. This is deliberately the same class of
/// computation as [`crate::plan::analysis::predict`]'s feasibility
/// precheck (arithmetic over announced quantities; no payloads, no
/// execution, no engine), so rejection can never depend on job content:
/// two jobs declaring the same budgets are admitted or refused
/// identically.
///
/// # Errors
/// Returns the [`Rejection`] naming the first violated budget.
pub fn admit(spec: &JobSpec, host: &Hosting, cap: &Capacity) -> Result<(), Rejection> {
    let malformed = |declared: u64, bound: u64| {
        Err(Rejection {
            code: wire::MALFORMED,
            declared,
            capacity: bound,
        })
    };
    match spec.kind {
        JobKind::Flood if spec.source as usize >= host.nodes => {
            return malformed(spec.source as u64, host.nodes as u64);
        }
        // a flood needs at least one round
        JobKind::Flood if spec.depth == 0 => return malformed(0, 1),
        // the largest kind this graph hosts is the flood (kind 0)
        JobKind::Relay if !host.relays => return malformed(1, 0),
        _ => {}
    }
    if spec.declared.dilation > cap.max_dilation {
        return Err(Rejection {
            code: wire::BUDGET_DILATION,
            declared: spec.declared.dilation as u64,
            capacity: cap.max_dilation as u64,
        });
    }
    if spec.declared.congestion > cap.max_congestion {
        return Err(Rejection {
            code: wire::BUDGET_CONGESTION,
            declared: spec.declared.congestion,
            capacity: cap.max_congestion,
        });
    }
    if spec.declared.payload_bytes > cap.max_payload_bytes {
        return Err(Rejection {
            code: wire::BUDGET_PAYLOAD,
            declared: spec.declared.payload_bytes as u64,
            capacity: cap.max_payload_bytes as u64,
        });
    }
    Ok(())
}

/// How a job's batch execution went, as carried in its RESULT frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Outputs verified byte-identical to the job's alone run, and the
    /// measured budgets fit the declaration.
    Ok,
    /// At least one node's output diverged from the alone run.
    VerifyFailed,
    /// Outputs may be fine, but the job's *measured* dilation or
    /// congestion exceeded what it declared at admission: the declaration
    /// was a lie, caught at verify time rather than trusted.
    BudgetMismatch,
    /// The batch failed to plan or execute; no outputs.
    ExecFailed,
}

/// Tunables of the serve daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Jobs per batch: whenever the executor is free it takes at most this
    /// many queued jobs (clamped to ≥ 1) as one [`DasProblem`].
    pub batch_max: usize,
    /// Worker threads of the in-process execution pool.
    pub pool_shards: usize,
    /// Advertised per-pool admission capacity.
    pub capacity: Capacity,
    /// The tape seed every batch runs under; with job-id aids this pins
    /// every job's random tape across batches.
    pub tape_seed: u64,
    /// The scheduler seed every batch is planned with.
    pub sched_seed: u64,
    /// Connection settings; `net.stop` is the daemon's shutdown signal.
    pub net: NetConfig,
    /// Live console hub: admission counters and batch stages on `/jobs`,
    /// the pool's identity on `/status`.
    pub live: Option<Arc<LiveHub>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 4,
            pool_shards: 2,
            capacity: Capacity::default(),
            tape_seed: 42,
            sched_seed: 0,
            net: NetConfig::default(),
            live: None,
        }
    }
}

/// What a serve daemon reports once stopped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs that executed and verified clean.
    pub completed: u64,
    /// Jobs that executed but failed verify / budget cross-check /
    /// execution.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
}

/// Shared daemon counters (atomics so the reader threads, the executor,
/// and the final report all see one truth).
#[derive(Default)]
struct Counters {
    queued: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    /// The batch log `GET /jobs` shows beyond the counts (its count
    /// fields stay 0: the atomics above are the truth).
    log: Mutex<JobsLive>,
}

impl Counters {
    fn log(&self) -> MutexGuard<'_, JobsLive> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish(&self, live: Option<&LiveHub>) {
        if let Some(hub) = live {
            hub.publish_jobs(JobsLive {
                queued: self.queued.load(Ordering::SeqCst),
                admitted: self.admitted.load(Ordering::SeqCst),
                rejected: self.rejected.load(Ordering::SeqCst),
                completed: self.completed.load(Ordering::SeqCst),
                failed: self.failed.load(Ordering::SeqCst),
                batches: self.batches.load(Ordering::SeqCst),
                ..self.log().clone()
            });
        }
    }
}

/// One admitted job waiting for a batch: the spec, when it was admitted,
/// and the client's write half (ACCEPTED/REJECTED go out on the reader
/// thread, RESULT on the executor thread; the mutex serializes them).
struct PendingJob {
    spec: JobSpec,
    admitted: Instant,
    writer: Arc<Mutex<FramedConn>>,
}

struct JobQueue {
    jobs: Mutex<VecDeque<PendingJob>>,
    ready: Condvar,
}

/// Waits (interruptibly) for the next frame to start arriving: `Ok(false)`
/// means the stop flag was raised, or `deadline` (when given) passed while
/// the line was quiet. With no deadline the wait is unbounded but still
/// stops promptly on the flag — the daemon's idle state.
fn readable_before_stop(
    conn: &mut FramedConn,
    net: &NetConfig,
    deadline: Option<Instant>,
) -> Result<bool, ExecError> {
    loop {
        if net.stopped() || deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(false);
        }
        if conn.poll_readable(STOP_POLL)? {
            return Ok(true);
        }
    }
}

/// Runs the scheduling service on `listener` until the configured stop
/// flag ([`NetConfig::with_stop`]) is raised: accepts any number of
/// clients, admits or rejects their jobs against `cfg.capacity`, executes
/// admitted jobs in batches planned by `scheduler`, and streams each
/// job's RESULT back. Without a stop flag the daemon runs forever.
///
/// Outstanding admitted jobs are drained (executed and answered) before
/// the daemon returns, so a clean shutdown never drops an ACCEPTED job.
///
/// # Errors
/// Returns [`SchedError::Exec`] only for listener-level failures; client
/// and batch failures are per-connection / per-job and never take the
/// daemon down.
pub fn serve(
    g: &Graph,
    scheduler: &dyn Scheduler,
    listener: TcpListener,
    cfg: &ServeConfig,
) -> Result<ServeReport, SchedError> {
    // a listener that cannot be polled fails here, before the executor
    // thread (which only the stop flag ends) exists
    listener.set_nonblocking(true).map_err(|e| {
        SchedError::Exec(ExecError::Net {
            detail: format!("set_nonblocking: {e}"),
        })
    })?;
    let counters = Counters::default();
    let queue = JobQueue {
        jobs: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    };
    let (graph_fp, host) = (graph_fingerprint(g), Hosting::of(g));
    if let Some(hub) = &cfg.live {
        let (exchange, shards) = Topology::Sharded(cfg.pool_shards).identity(g.node_count());
        hub.set_run_info(exchange, shards);
    }
    counters.publish(cfg.live.as_deref());
    std::thread::scope(|scope| {
        let executor = scope.spawn(|| executor_loop(g, scheduler, cfg, &queue, &counters));
        let (queue, counters) = (&queue, &counters);
        let _ = accept_until(
            &listener,
            || cfg.net.stopped(),
            None,
            |stream| {
                // per-client thread: a misbehaving client costs only its own
                // connection, never the daemon
                scope.spawn(move || {
                    let _ = serve_client(graph_fp, host, stream, cfg, queue, counters);
                });
                Ok(false)
            },
        );
        // wake the executor so it drains the queue and exits
        queue.ready.notify_all();
        let _ = executor.join();
    });
    Ok(ServeReport {
        admitted: counters.admitted.load(Ordering::SeqCst),
        rejected: counters.rejected.load(Ordering::SeqCst),
        completed: counters.completed.load(Ordering::SeqCst),
        failed: counters.failed.load(Ordering::SeqCst),
        batches: counters.batches.load(Ordering::SeqCst),
    })
}

/// One client connection: HELLO/CAPS handshake, then SUBMITs until the
/// client hangs up or the daemon stops. A disconnect mid-SUBMIT (clean or
/// truncated) closes the connection without touching any counter — the
/// clipped job was never admitted.
fn serve_client(
    graph_fp: u64,
    host: Hosting,
    stream: TcpStream,
    cfg: &ServeConfig,
    queue: &JobQueue,
    counters: &Counters,
) -> Result<(), ExecError> {
    let mut reader = cfg
        .net
        .framed(stream.try_clone().map_err(|e| ExecError::Net {
            detail: format!("clone client stream: {e}"),
        })?)?;
    let writer = Arc::new(Mutex::new(cfg.net.framed(stream)?));

    // HELLO → CAPS (or REJECT): same shape as the worker handshake, but
    // against the graph fingerprint only — jobs arrive later.
    let hello_deadline = Instant::now() + Duration::from_millis(cfg.net.io_timeout_ms.max(1));
    if !readable_before_stop(&mut reader, &cfg.net, Some(hello_deadline))? {
        return Ok(());
    }
    let ours = Greeting {
        version: PROTOCOL_VERSION,
        fingerprint: graph_fp,
    };
    reader.greet(wire::HELLO, &ours, "serve handshake (HELLO)")?;
    let caps = Caps {
        version: PROTOCOL_VERSION,
        graph_fingerprint: graph_fp,
        tape_seed: cfg.tape_seed,
        batch_max: cfg.batch_max.max(1) as u32,
        pool_shards: cfg.pool_shards.max(1) as u32,
        capacity: cfg.capacity,
    };
    lock_writer(&writer).send(wire::CAPS, &caps.encode(), "serve handshake (CAPS)")?;

    loop {
        if !readable_before_stop(&mut reader, &cfg.net, None)? {
            return Ok(()); // daemon stopping
        }
        let body = reader.expect(wire::SUBMIT, "serve frame")?;
        let verdict = Submit::decode(&body)?.and_then(|spec| {
            let job_id = spec.job_id;
            match admit(&spec, &host, &cfg.capacity) {
                Ok(()) => Ok(spec),
                Err(why) => Err(Rejected { job_id, why }),
            }
        });
        match verdict {
            Err(rejected) => {
                let _ = lock_writer(&writer).send(
                    wire::REJECTED,
                    &rejected.encode(),
                    "serve (REJECTED)",
                );
                counters.rejected.fetch_add(1, Ordering::SeqCst);
            }
            Ok(spec) => {
                let job_id = spec.job_id;
                // the writer is held from the push through the ACCEPTED
                // send: the job's RESULT needs the same lock, so it cannot
                // overtake its ACCEPTED however soon the executor runs it
                // (lock order: writer, then queue; the executor never
                // holds both)
                let mut out = lock_writer(&writer);
                let queued = {
                    let mut q = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
                    q.push_back(PendingJob {
                        spec,
                        admitted: Instant::now(),
                        writer: Arc::clone(&writer),
                    });
                    q.len() as u64
                };
                queue.ready.notify_all();
                counters.admitted.fetch_add(1, Ordering::SeqCst);
                counters.queued.store(queued, Ordering::SeqCst);
                let accepted = Accepted { job_id, queued };
                let _ = out.send(wire::ACCEPTED, &accepted.encode(), "serve (ACCEPTED)");
            }
        }
        counters.publish(cfg.live.as_deref());
    }
}

fn lock_writer(writer: &Arc<Mutex<FramedConn>>) -> MutexGuard<'_, FramedConn> {
    writer.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batch executor: whenever it is free, takes up to `batch_max`
/// queued jobs as one batch, runs it through plan → execute → verify, and
/// answers every job. It waits only for the first job — never for a batch
/// to fill — so an idle daemon starts a job at once, and a busy one
/// batches whatever queued while it worked. Keeps running until the stop
/// flag is raised *and* the queue is drained, so ACCEPTED jobs are never
/// dropped on shutdown.
fn executor_loop(
    g: &Graph,
    scheduler: &dyn Scheduler,
    cfg: &ServeConfig,
    queue: &JobQueue,
    counters: &Counters,
) {
    let batch_max = cfg.batch_max.max(1);
    loop {
        let batch: Vec<PendingJob> = {
            let mut q = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            while q.is_empty() {
                if cfg.net.stopped() {
                    return;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(q, STOP_POLL)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            let take = q.len().min(batch_max);
            let batch = q.drain(..take).collect();
            counters.queued.store(q.len() as u64, Ordering::SeqCst);
            batch
        };
        execute_batch(g, scheduler, cfg, batch, counters);
        counters.batches.fetch_add(1, Ordering::SeqCst);
        counters.publish(cfg.live.as_deref());
    }
}

/// Instantiates a job's black-box algorithm. The job id is the algorithm
/// id, which pins the job's random tape (`seed_mix(tape_seed, job_id)`)
/// independently of batch composition — the lever that makes served
/// outputs byte-identical to a one-shot run of the same jobs.
pub fn instantiate(spec: &JobSpec, g: &Graph) -> Box<dyn crate::BlackBoxAlgorithm> {
    match spec.kind {
        JobKind::Flood => Box::new(FloodBall::new(
            spec.job_id,
            g,
            NodeId(spec.source),
            spec.depth,
        )),
        JobKind::Relay => Box::new(RelayChain::new(spec.job_id, g)),
    }
}

/// One batch: run its pipeline with a panic fence around it, answer every
/// job, and log where the batch's time went. `batch` is non-empty.
fn execute_batch(
    g: &Graph,
    scheduler: &dyn Scheduler,
    cfg: &ServeConfig,
    batch: Vec<PendingJob>,
    counters: &Counters,
) {
    let mut stages = Stages {
        queue_wait_us: micros(batch[0].admitted.elapsed()),
        ..Stages::default()
    };
    // a panic (a job the admission check let through, a black-box machine
    // that asserts) fails this batch only; the executor keeps serving
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_pipeline(g, scheduler, cfg, &batch, &mut stages)
    }))
    .unwrap_or_else(|panic| {
        Err(SchedError::Exec(ExecError::Aborted {
            detail: format!("batch pipeline panicked: {}", panic_message(&*panic)),
        }))
    });
    Stages::time(&mut stages.answer_us, || {
        answer_batch(&batch, run, counters)
    });
    let mut log = counters.log();
    log.last_batch_k = batch.len() as u64;
    log.last_batch = stages;
    log.stage_totals.accumulate(&stages);
}

/// Builds the batch's [`DasProblem`] and runs it through
/// [`pipeline::run`]: planned from scratch (a batch is a problem of its
/// own, so no planning stage of an earlier batch applies to it), executed
/// on the sharded pool, verified. Each stage's wall time lands in
/// `stages`.
fn run_pipeline<'g>(
    g: &'g Graph,
    scheduler: &dyn Scheduler,
    cfg: &ServeConfig,
    batch: &[PendingJob],
    stages: &mut Stages,
) -> Result<(DasProblem<'g>, Ran), SchedError> {
    let problem = Stages::time(&mut stages.instantiate_us, || {
        let algos = batch.iter().map(|j| instantiate(&j.spec, g)).collect();
        DasProblem::new(g, algos, cfg.tape_seed)
    });
    let from = PlanFrom::Scheduler {
        scheduler,
        seed: cfg.sched_seed,
    };
    let opts = ExecOptions::sharded(cfg.pool_shards);
    let ran = pipeline::run(&problem, from, opts, stages).map_err(|failed| failed.error)?;
    Ok((problem, ran))
}

/// One RESULT per job of a batch that ran, in batch order, with the
/// budgets cross-checked: each job's dilation and congestion are measured
/// from its own reference run — the declaration was only trusted for
/// admission.
fn job_results<'r>(
    batch: &[PendingJob],
    problem: &DasProblem<'_>,
    ran: &'r Ran,
) -> Vec<JobResult<'r>> {
    // the pipeline computed (and cached) the references before planning
    let refs = problem.references().expect("the pipeline ran on them");
    let k = batch.len() as u32;
    let outcome = &ran.executed.outcome;
    let stats = &outcome.stats;
    (batch.iter().enumerate())
        .map(|(i, job)| {
            let measured_dilation = problem.algorithms()[i].rounds();
            let measured_congestion = refs[i].pattern.edge_loads().into_iter().max().unwrap_or(0);
            let lied = measured_dilation > job.spec.declared.dilation
                || measured_congestion > job.spec.declared.congestion;
            let status = if lied {
                JobStatus::BudgetMismatch
            } else if ran.verify.mismatches[i] > 0 {
                JobStatus::VerifyFailed
            } else {
                JobStatus::Ok
            };
            JobResult {
                job_id: job.spec.job_id,
                status,
                schedule_rounds: stats.engine_rounds,
                batch_k: k,
                delivered: stats.delivered,
                late: stats.late_messages,
                measured_dilation,
                measured_congestion,
                outputs: JobOutputs::of(&outcome.outputs, i),
            }
        })
        .collect()
}

/// Answers every job of a batch from its pipeline's result: the per-job
/// RESULTs when it ran, [`JobStatus::ExecFailed`] for all of them (with
/// the reason logged and kept for `GET /jobs`) when it did not.
fn answer_batch(
    batch: &[PendingJob],
    run: Result<(DasProblem<'_>, Ran), SchedError>,
    counters: &Counters,
) {
    let results = match &run {
        Ok((problem, ran)) => job_results(batch, problem, ran),
        Err(e) => {
            // the whole batch failed to plan or execute: typed ExecFailed
            // per job, and the daemon keeps serving
            eprintln!("serve: batch of {} job(s) failed: {e}", batch.len());
            counters.log().last_error = e.to_string();
            batch
                .iter()
                .map(|job| JobResult {
                    job_id: job.spec.job_id,
                    status: JobStatus::ExecFailed,
                    schedule_rounds: 0,
                    batch_k: batch.len() as u32,
                    delivered: 0,
                    late: 0,
                    measured_dilation: 0,
                    measured_congestion: 0,
                    outputs: JobOutputs::none(),
                })
                .collect()
        }
    };
    for (job, result) in batch.iter().zip(&results) {
        let _ = lock_writer(&job.writer).send(wire::RESULT, &result.encode(), "serve (RESULT)");
        let tally = match result.status {
            JobStatus::Ok => &counters.completed,
            _ => &counters.failed,
        };
        tally.fetch_add(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------- loadgen

/// Tunables of the deterministic load generator.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submits.
    pub jobs_per_client: usize,
    /// Flood depth of every generated job.
    pub depth: u32,
    /// Stream seed: sources are drawn as
    /// `(job_id · 2654435761 + seed) mod n` — the same formula as the CLI
    /// `floods:K:DEPTH` workload, so a one-client stream is the same job
    /// set as a one-shot run with the same seed.
    pub seed: u64,
    /// Re-derive every RESULT's outputs locally (alone run with the
    /// server's advertised tape seed) and count byte mismatches.
    pub check: bool,
    /// When nonzero, every Nth job declares an over-capacity dilation to
    /// exercise the typed rejection path.
    pub reject_every: usize,
    /// Network tunables for the client connections.
    pub net: NetConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 2,
            jobs_per_client: 8,
            depth: 4,
            seed: 42,
            check: false,
            reject_every: 0,
            net: NetConfig::default(),
        }
    }
}

/// What one load-generator run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadgenReport {
    /// Jobs submitted across all clients.
    pub submitted: u64,
    /// Jobs that came back [`JobStatus::Ok`].
    pub completed: u64,
    /// Jobs refused at admission (REJECTED frames).
    pub rejected: u64,
    /// Jobs that came back with any non-Ok status, plus client-side
    /// protocol failures.
    pub failed: u64,
    /// Output byte mismatches found by `check` (0 when `check` is off).
    pub check_mismatches: u64,
    /// Wall-clock of the whole run, in milliseconds.
    pub wall_ms: u64,
    /// Sustained throughput: terminal answers per second.
    pub jobs_per_sec: f64,
    /// Median submit→answer latency, in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, in milliseconds.
    pub p99_ms: f64,
    /// Per-job outputs of every [`JobStatus::Ok`] RESULT, as
    /// `(job_id, per-node outputs)`, sorted by job id — for byte-identity
    /// diffs against a one-shot run.
    pub outputs: Vec<(u64, JobOutputs<'static>)>,
}

/// The generated job stream: one entry per `(client, j)` pair. Public so
/// the CLI and tests can reproduce the exact stream a loadgen run
/// submitted.
pub fn loadgen_job(g: &Graph, cfg: &LoadgenConfig, client: usize, j: usize) -> JobSpec {
    let n = g.node_count() as u64;
    let job_id = (client * cfg.jobs_per_client + j) as u64;
    let source = ((job_id.wrapping_mul(2654435761).wrapping_add(cfg.seed)) % n.max(1)) as u32;
    JobSpec {
        job_id,
        kind: JobKind::Flood,
        source,
        depth: cfg.depth,
        declared: Budgets::default(), // filled by the caller
    }
}

/// Measures a job's honest budgets from its alone run.
fn honest_budgets(g: &Graph, spec: &JobSpec, tape_seed: u64) -> Result<Budgets, ExecError> {
    let algo = instantiate(spec, g);
    let run = run_alone(
        g,
        algo.as_ref(),
        das_congest::util::seed_mix(tape_seed, spec.job_id),
    )
    .map_err(|e| ExecError::Net {
        detail: format!("loadgen reference run: {e}"),
    })?;
    Ok(Budgets {
        dilation: algo.rounds(),
        congestion: run.pattern.edge_loads().into_iter().max().unwrap_or(0),
        // both synthetic families carry one u64 per message
        payload_bytes: 8,
    })
}

/// Drives `cfg.clients` concurrent deterministic job streams against a
/// serve daemon at `connect` and measures sustained jobs/sec plus
/// latency quantiles. With `cfg.check`, every Ok RESULT's outputs are
/// re-derived locally (alone run under the server's advertised tape
/// seed) and compared byte-for-byte.
///
/// # Errors
/// Returns [`ExecError`] if any client fails to connect or handshake;
/// per-job failures are counted in the report instead.
pub fn run_loadgen(
    g: &Graph,
    connect: &str,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport, ExecError> {
    let clients = cfg.clients.max(1);
    let started = Instant::now();
    let results: Vec<Result<ClientOutcome, ExecError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || run_client(g, connect, cfg, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ExecError::Net {
                        detail: "loadgen client thread panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    let wall = started.elapsed();
    let mut report = LoadgenReport::default();
    let mut latencies: Vec<f64> = Vec::new();
    for r in results {
        let c = r?;
        report.submitted += c.submitted;
        report.completed += c.completed;
        report.rejected += c.rejected;
        report.failed += c.failed;
        report.check_mismatches += c.check_mismatches;
        latencies.extend(c.latencies_ms);
        report.outputs.extend(c.outputs);
    }
    report.outputs.sort_by_key(|(id, _)| *id);
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    report.p50_ms = quantile(0.50);
    report.p95_ms = quantile(0.95);
    report.p99_ms = quantile(0.99);
    report.wall_ms = wall.as_millis() as u64;
    let answered = report.completed + report.rejected + report.failed;
    report.jobs_per_sec = if wall.as_secs_f64() > 0.0 {
        answered as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    Ok(report)
}

struct ClientOutcome {
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    check_mismatches: u64,
    latencies_ms: Vec<f64>,
    outputs: Vec<(u64, JobOutputs<'static>)>,
}

fn run_client(
    g: &Graph,
    connect: &str,
    cfg: &LoadgenConfig,
    client: usize,
) -> Result<ClientOutcome, ExecError> {
    let mut conn = cfg.net.framed(connect_with_retry(connect, &cfg.net)?)?;

    // HELLO → CAPS
    let hello = Greeting {
        version: PROTOCOL_VERSION,
        fingerprint: graph_fingerprint(g),
    };
    conn.send(wire::HELLO, &hello.encode(), "loadgen handshake (HELLO)")?;
    let caps = Caps::decode(&conn.expect(wire::CAPS, "loadgen handshake (CAPS)")?)?;
    let (tape_seed, cap) = (caps.tape_seed, caps.capacity);

    // submit the whole stream pipelined, then collect answers
    let mut pending: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let mut expect_reject: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = ClientOutcome {
        submitted: 0,
        completed: 0,
        rejected: 0,
        failed: 0,
        check_mismatches: 0,
        latencies_ms: Vec::new(),
        outputs: Vec::new(),
    };
    for j in 0..cfg.jobs_per_client {
        let mut spec = loadgen_job(g, cfg, client, j);
        spec.declared = honest_budgets(g, &spec, tape_seed)?;
        if cfg.reject_every > 0 && (j + 1) % cfg.reject_every == 0 {
            // deliberately over-declare to exercise the typed rejection
            spec.declared.dilation = cap.max_dilation.saturating_add(1);
            expect_reject.insert(spec.job_id);
        }
        conn.send(wire::SUBMIT, &spec.encode(), "loadgen (SUBMIT)")?;
        pending.insert(spec.job_id, Instant::now());
        out.submitted += 1;
    }

    // read until every job has a terminal answer (deadline-bounded by the
    // connection's io timeout per frame)
    while !pending.is_empty() {
        let (kind, body) = conn.recv("loadgen (answers)")?;
        match kind {
            wire::ACCEPTED => {
                Accepted::decode(&body)?;
            }
            wire::REJECTED => {
                let Rejected { job_id, .. } = Rejected::decode(&body)?;
                if let Some(t) = pending.remove(&job_id) {
                    out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if expect_reject.contains(&job_id) {
                    out.rejected += 1;
                } else {
                    out.failed += 1;
                }
            }
            wire::RESULT => {
                let result = JobResult::decode(&body)?;
                let (job_id, outputs) = (result.job_id, result.outputs.into_owned());
                if let Some(t) = pending.remove(&job_id) {
                    out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if result.status == JobStatus::Ok {
                    out.completed += 1;
                    if cfg.check {
                        out.check_mismatches +=
                            check_outputs(g, cfg, client, job_id, tape_seed, outputs.row());
                    }
                    out.outputs.push((job_id, outputs));
                } else {
                    out.failed += 1;
                }
            }
            other => {
                return Err(ExecError::Net {
                    detail: format!("loadgen: unexpected frame kind {other}"),
                })
            }
        }
    }
    Ok(out)
}

/// Re-derives a job's outputs locally and counts byte mismatches against
/// what the server returned — the client-side half of the byte-identity
/// guarantee.
fn check_outputs(
    g: &Graph,
    cfg: &LoadgenConfig,
    client: usize,
    job_id: u64,
    tape_seed: u64,
    got: OutputRow<'_>,
) -> u64 {
    let j = (job_id as usize).wrapping_sub(client * cfg.jobs_per_client);
    let spec = loadgen_job(g, cfg, client, j);
    debug_assert_eq!(spec.job_id, job_id);
    let algo = instantiate(&spec, g);
    let Ok(reference) = run_alone(
        g,
        algo.as_ref(),
        das_congest::util::seed_mix(tape_seed, job_id),
    ) else {
        return got.len() as u64;
    };
    if reference.outputs.len() != got.len() {
        return got.len() as u64;
    }
    reference
        .outputs
        .iter()
        .zip(got)
        .filter(|(want, have)| want.as_deref() != *have)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(dilation: u32, congestion: u64, payload: u32) -> JobSpec {
        JobSpec {
            job_id: 7,
            kind: JobKind::Flood,
            source: 3,
            depth: 2,
            declared: Budgets {
                dilation,
                congestion,
                payload_bytes: payload,
            },
        }
    }

    #[test]
    fn admission_is_a_pure_budget_comparison() {
        let cap = Capacity {
            max_dilation: 10,
            max_congestion: 20,
            max_payload_bytes: 40,
        };
        let host = Hosting {
            nodes: 8,
            relays: true,
        };
        assert_eq!(admit(&spec(10, 20, 40), &host, &cap), Ok(()));
        assert_eq!(
            admit(&spec(11, 20, 40), &host, &cap).unwrap_err().code,
            wire::BUDGET_DILATION
        );
        assert_eq!(
            admit(&spec(10, 21, 40), &host, &cap).unwrap_err().code,
            wire::BUDGET_CONGESTION
        );
        assert_eq!(
            admit(&spec(10, 20, 41), &host, &cap).unwrap_err().code,
            wire::BUDGET_PAYLOAD
        );
        // out-of-range source is malformed, not a budget violation
        let mut bad = spec(1, 1, 1);
        bad.source = 99;
        assert_eq!(admit(&bad, &host, &cap).unwrap_err().code, wire::MALFORMED);
        // relays ignore the source field entirely
        bad.kind = JobKind::Relay;
        assert_eq!(admit(&bad, &host, &cap), Ok(()));
    }

    /// Jobs whose constructors would assert are refused before they can
    /// reach the executor: a depth-0 flood anywhere, a relay on a graph
    /// without the id-ordered route.
    #[test]
    fn jobs_the_graph_cannot_host_are_malformed() {
        let cap = Capacity::default();
        let path = Hosting::of(&das_graph::generators::path(6));
        let grid = Hosting::of(&das_graph::generators::grid(4, 4));
        assert_eq!(
            (path, grid),
            (
                Hosting {
                    nodes: 6,
                    relays: true
                },
                Hosting {
                    nodes: 16,
                    relays: false
                }
            )
        );
        let mut flat = spec(1, 1, 1);
        flat.depth = 0;
        let refused = Rejection {
            code: wire::MALFORMED,
            declared: 0,
            capacity: 1,
        };
        assert_eq!(admit(&flat, &path, &cap), Err(refused));
        let relay = JobSpec {
            kind: JobKind::Relay,
            ..spec(1, 1, 1)
        };
        assert_eq!(admit(&relay, &path, &cap), Ok(()));
        let refused = Rejection {
            code: wire::MALFORMED,
            declared: 1,
            capacity: 0,
        };
        assert_eq!(admit(&relay, &grid, &cap), Err(refused));
    }

    #[test]
    fn loadgen_stream_matches_the_cli_flood_workload_formula() {
        let g = das_graph::generators::path(16);
        let cfg = LoadgenConfig {
            clients: 1,
            jobs_per_client: 4,
            depth: 3,
            seed: 42,
            ..LoadgenConfig::default()
        };
        for i in 0..4 {
            let spec = loadgen_job(&g, &cfg, 0, i);
            assert_eq!(spec.job_id, i as u64);
            let expected = ((i as u64 * 2654435761 + 42) % 16) as u32;
            assert_eq!(spec.source, expected);
            assert_eq!(spec.depth, 3);
        }
    }

    /// The failure branch is a function of the pipeline's `Result`: every
    /// job of the batch is answered `ExecFailed`, each counts as failed,
    /// and the reason survives for `GET /jobs` instead of being dropped.
    #[test]
    fn failed_batch_answers_every_job_and_keeps_the_error() {
        let (mut client, batch) = pending_batch(&[11, 12, 13]);
        let counters = Counters::default();
        let err = SchedError::Exec(ExecError::Aborted {
            detail: "shard 1 panicked: boom".to_string(),
        });
        answer_batch(&batch, Err(err.clone()), &counters);

        for job in &batch {
            let body = client
                .expect(wire::RESULT, "test RESULT")
                .expect("one RESULT per job");
            let result = JobResult::decode(&body).expect("RESULT body");
            assert_eq!(result.job_id, job.spec.job_id);
            assert_eq!(result.status, JobStatus::ExecFailed);
        }
        assert_eq!(counters.failed.load(Ordering::SeqCst), 3);
        assert_eq!(counters.completed.load(Ordering::SeqCst), 0);
        assert_eq!(counters.log().last_error, err.to_string());
        // ... and the published snapshot carries it
        let hub = LiveHub::new();
        counters.publish(Some(&hub));
        assert!(hub.render_jobs().contains("shard 1 panicked: boom"));
    }

    struct PanickingScheduler;

    impl Scheduler for PanickingScheduler {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn plan(
            &self,
            _: &DasProblem<'_>,
            _: u64,
        ) -> Result<crate::SchedulePlan, crate::ReferenceError> {
            panic!("planner bug")
        }
    }

    /// Plans no executor accepts (a zero phase length).
    struct ZeroPhaseScheduler;

    impl Scheduler for ZeroPhaseScheduler {
        fn name(&self) -> &'static str {
            "zero-phase"
        }

        fn plan(
            &self,
            p: &DasProblem<'_>,
            seed: u64,
        ) -> Result<crate::SchedulePlan, crate::ReferenceError> {
            let mut plan = crate::UniformScheduler::default().plan(p, seed)?;
            plan.phase_len = 0;
            Ok(plan)
        }
    }

    /// A panic inside the pipeline, or a typed execution failure, is
    /// fenced to its batch: every job is answered `ExecFailed`, the reason
    /// is kept for `GET /jobs`, every stage that ran is logged and none
    /// that did not, and the caller carries on.
    #[test]
    fn a_panicking_pipeline_fails_its_batch_only() {
        let g = das_graph::generators::path(6);
        let cases: [(&dyn Scheduler, &str, usize); 2] = [
            // the plan stage never finished: it and every later one read 0
            (
                &PanickingScheduler,
                "batch pipeline panicked: planner bug",
                0,
            ),
            // planning and the (failed) execution ran, verify did not
            (&ZeroPhaseScheduler, "invalid plan", 2),
        ];
        for (scheduler, error, ran_after_references) in cases {
            let (mut client, batch) = pending_batch(&[21, 22]);
            let counters = Counters::default();
            execute_batch(&g, scheduler, &ServeConfig::default(), batch, &counters);
            for job_id in [21, 22] {
                let body = client.expect(wire::RESULT, "test RESULT").expect("RESULT");
                let result = JobResult::decode(&body).expect("RESULT body");
                assert_eq!(
                    (result.job_id, result.status),
                    (job_id, JobStatus::ExecFailed)
                );
            }
            assert_eq!(counters.failed.load(Ordering::SeqCst), 2);
            let log = counters.log();
            assert!(log.last_error.contains(error), "{}", log.last_error);
            assert_eq!(log.last_batch_k, 2);
            assert_eq!(log.stage_totals, log.last_batch);
            let s = log.last_batch;
            assert!(s.instantiate_us > 0 && s.references_us > 0 && s.answer_us > 0);
            for (i, us) in [s.plan_us, s.execute_us, s.verify_us]
                .into_iter()
                .enumerate()
            {
                assert_eq!(us > 0, i < ran_after_references, "{error}: {s:?}");
            }
        }
    }

    /// A connected client plus one pending job per id writing to it.
    fn pending_batch(ids: &[u64]) -> (FramedConn, Vec<PendingJob>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let net = NetConfig::default();
        let client = net
            .framed(TcpStream::connect(listener.local_addr().expect("addr")).expect("connect"))
            .expect("client conn");
        let mut server_side = None;
        accept_until(
            &listener,
            || false,
            None,
            |stream| {
                server_side = Some(net.framed(stream)?);
                Ok(true)
            },
        )
        .expect("accept");
        let writer = Arc::new(Mutex::new(server_side.expect("server conn")));
        let batch = ids
            .iter()
            .map(|&job_id| PendingJob {
                spec: JobSpec {
                    job_id,
                    ..spec(3, 4, 8)
                },
                admitted: Instant::now(),
                writer: writer.clone(),
            })
            .collect();
        (client, batch)
    }
}
