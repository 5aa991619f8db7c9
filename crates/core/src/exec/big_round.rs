//! The production big-round loop: one body for every execution topology.
//!
//! [`big_round_loop`] drives **one shard** of a plan — its nodes' machines,
//! their buffered arrivals (one arena), and the FIFOs of the arcs it owns
//! (an arc belongs to the shard of its *destination* node) — on the
//! columnar structures of `exec/columnar.rs`. Everything that differs between running fused, on
//! in-process worker threads, or as a networked worker process sits behind
//! an [`Exchange`], and the loop is monomorphised over it:
//!
//! * [`Local`] — one shard owns every node; no peer, no barrier. Every
//!   method is an inlined constant, so the fused path pays nothing.
//! * [`InProcess`] — worker threads of
//!   [`crate::Topology::Sharded`]: per-(src, dst) outboxes and three
//!   barriers per big-round (outboxes complete / activity posted /
//!   activity read).
//! * `Wire` (in `net.rs`) — a networked worker: OUTBOX → INBOX and
//!   ACTIVITY → DECISION round-trips through the coordinator.
//!
//! ## What an exchange decides — and what it may not
//!
//! An exchange owns exactly three decisions: **hand over** this
//! big-round's cross-shard sends and receive the flights addressed to this
//! shard *in ascending source-shard order, each source's flights in send
//! order*; **agree** on whether any shard still has work; **abandon** the
//! run in lockstep. It never sees machine state, never reorders a queue,
//! and never touches the engine-round clock — which is why every topology
//! yields the byte-identical [`ScheduleOutcome`]:
//!
//! * each shard steps its nodes in the global `(algorithm, node, round)`
//!   order of the step table, and every arc has one source node owned by
//!   one shard, so per-arc push order within a big-round is the sequential
//!   order no matter how flights travel;
//! * cross-shard flights enter the owner's queues only at the big-round
//!   boundary, before that big-round's drain, in source-shard order — the
//!   push set and per-arc order of a big-round equal the fused ones;
//! * lateness checks read only the destination's own `steps_done`;
//! * every shard advances the identical engine-round counter, so the round
//!   cap fires on all of them in the same big-round.
//!
//! Cross-shard sends are staged in one format for every exchange: the
//! flight encoding of the wire protocol ([`FlightGroup`]), so the
//! in-process path moves whole byte buffers between threads instead of one
//! heap payload per message.

use super::columnar::{
    arc_endpoint_table, build_batches, build_departures, ArrivalArena, ColFifo, FlatSteps,
};
use super::{ExecError, ExecStats, ExecutorConfig, ShardReport, ShardStats};
use crate::algorithm::{BatchedSends, BlackBoxAlgorithm, BlockStep, OutputRow, Outputs};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::wire::{Flight, FlightGroup};
use das_congest::MESSAGE_BYTES;
use das_graph::{Graph, NodeId};
use das_obs::ExecObs;
use das_pattern::{SimulationMap, TimedArc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// How one shard of a run talks to the others; see the module docs for the
/// three decisions an exchange owns and the ordering it must preserve.
pub(crate) trait Exchange {
    /// Hands over big-round `b`'s staged cross-shard flights (`staged[dst]`
    /// is bound for shard `dst`; every group comes back empty) and returns
    /// the flights addressed to this shard, ascending by source shard.
    fn exchange(&mut self, b: u64, staged: &mut [FlightGroup])
        -> Result<&[FlightGroup], ExecError>;

    /// Posts whether this shard still holds undrained arcs after big-round
    /// `b`'s drain and returns whether *any* shard still has work (over
    /// the wire that includes steps the coordinator knows are scheduled
    /// past this shard's plan slice).
    fn any_active(
        &mut self,
        b: u64,
        active: bool,
        shard: &ShardStats,
        stats: &ExecStats,
    ) -> Result<bool, ExecError>;

    /// The engine-round cap fired while draining big-round `b`. Every
    /// shard's engine-round counter is identical, so all shards get here
    /// in the same big-round — nobody is left waiting on a peer.
    fn abandon(&mut self, cap: u64, b: u64);
}

/// The fused exchange: one shard owns every node, so nothing is ever
/// staged and "any shard" is this one.
pub(crate) struct Local;

impl Exchange for Local {
    #[inline]
    fn exchange(&mut self, _b: u64, _: &mut [FlightGroup]) -> Result<&[FlightGroup], ExecError> {
        Ok(&[])
    }

    #[inline]
    fn any_active(
        &mut self,
        _b: u64,
        active: bool,
        _shard: &ShardStats,
        _stats: &ExecStats,
    ) -> Result<bool, ExecError> {
        Ok(active)
    }

    #[inline]
    fn abandon(&mut self, _cap: u64, _b: u64) {}
}

/// A barrier that can be *poisoned*: `std::sync::Barrier::wait` cannot be
/// interrupted, so one panicking shard worker would park its peers
/// forever. Here a worker that unwinds poisons the barrier (see
/// [`InProcess`]'s drop guard) and every current and future waiter leaves
/// with the panicked shard's index.
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    released: Condvar,
    parties: usize,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    panicked: Option<usize>,
}

impl PoisonBarrier {
    fn new(parties: usize) -> Self {
        PoisonBarrier {
            state: Mutex::default(),
            released: Condvar::new(),
            parties,
        }
    }

    /// Blocks until all parties arrive (`Ok`) or a shard panics (`Err`
    /// with its index).
    fn wait(&self) -> Result<(), usize> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(shard) = st.panicked {
            return Err(shard);
        }
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            self.released.notify_all();
            return Ok(());
        }
        let generation = st.generation;
        while st.generation == generation {
            if let Some(shard) = st.panicked {
                return Err(shard);
            }
            st = self.released.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }

    fn poison(&self, shard: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.panicked.get_or_insert(shard);
        self.released.notify_all();
    }
}

/// State shared by the [`InProcess`] exchanges of one sharded run.
pub(crate) struct InProcessShared {
    shards: usize,
    /// `outboxes[src * shards + dst]`: flights from shard `src` to arcs
    /// owned by shard `dst`, handed over at the first barrier.
    outboxes: Vec<Mutex<FlightGroup>>,
    barrier: PoisonBarrier,
    /// How many workers still have active arcs after the current
    /// big-round's drain (reset by worker 0 between rounds).
    active_workers: AtomicU64,
}

impl InProcessShared {
    pub(crate) fn new(shards: usize) -> Self {
        InProcessShared {
            shards,
            outboxes: (0..shards * shards).map(|_| Mutex::default()).collect(),
            barrier: PoisonBarrier::new(shards),
            active_workers: AtomicU64::new(0),
        }
    }

    fn outbox(&self, src: usize, dst: usize) -> std::sync::MutexGuard<'_, FlightGroup> {
        self.outboxes[src * self.shards + dst]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

/// The threaded exchange: one per shard worker of
/// [`crate::Topology::Sharded`].
pub(crate) struct InProcess<'s> {
    me: usize,
    shared: &'s InProcessShared,
    /// `incoming[src]`: the flights taken from `outboxes[src][me]` this
    /// big-round.
    incoming: Vec<FlightGroup>,
    /// Wall-clock nanoseconds spent in barrier waits, sampled only when
    /// asked to (`Some`): the probe's nondeterministic side channel.
    pub(crate) waited_ns: Option<u64>,
}

impl<'s> InProcess<'s> {
    pub(crate) fn new(me: usize, shared: &'s InProcessShared, sample_waits: bool) -> Self {
        InProcess {
            me,
            shared,
            incoming: (0..shared.shards).map(|_| FlightGroup::default()).collect(),
            waited_ns: sample_waits.then_some(0),
        }
    }

    fn wait(&mut self) -> Result<(), ExecError> {
        let t = self.waited_ns.is_some().then(Instant::now);
        let released = self.shared.barrier.wait();
        if let (Some(total), Some(t)) = (&mut self.waited_ns, t) {
            *total += t.elapsed().as_nanos() as u64;
        }
        released.map_err(|shard| ExecError::Aborted {
            detail: format!("shard {shard} panicked"),
        })
    }
}

impl Drop for InProcess<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.barrier.poison(self.me);
        }
    }
}

impl Exchange for InProcess<'_> {
    fn exchange(
        &mut self,
        _b: u64,
        staged: &mut [FlightGroup],
    ) -> Result<&[FlightGroup], ExecError> {
        // Buffers are swapped, never copied: the slot holds the (emptied)
        // buffer its reader left there last round.
        let (me, shared) = (self.me, self.shared);
        for (dst, group) in staged.iter_mut().enumerate() {
            if !group.is_empty() {
                std::mem::swap(group, &mut *shared.outbox(me, dst));
            }
        }
        // All outboxes for this big-round are complete.
        self.wait()?;
        for (src, taken) in self.incoming.iter_mut().enumerate() {
            taken.clear();
            if src != me {
                std::mem::swap(taken, &mut *shared.outbox(src, me));
            }
        }
        Ok(&self.incoming)
    }

    fn any_active(
        &mut self,
        _b: u64,
        active: bool,
        _shard: &ShardStats,
        _stats: &ExecStats,
    ) -> Result<bool, ExecError> {
        // Post activity, agree on it, and let worker 0 reset the counter
        // strictly after everyone has read it (barrier) and strictly
        // before anyone can post again (the next exchange barrier).
        if active {
            self.shared.active_workers.fetch_add(1, Ordering::SeqCst);
        }
        self.wait()?;
        let any_active = self.shared.active_workers.load(Ordering::SeqCst) > 0;
        self.wait()?;
        if self.me == 0 {
            self.shared.active_workers.store(0, Ordering::SeqCst);
        }
        Ok(any_active)
    }

    fn abandon(&mut self, _cap: u64, _b: u64) {}
}

/// Read-only inputs shared by every shard of one run.
pub(crate) struct ShardCtx<'e> {
    pub(crate) g: &'e Graph,
    pub(crate) algos: &'e [Box<dyn BlackBoxAlgorithm>],
    pub(crate) seeds: Vec<u64>,
    pub(crate) config: &'e ExecutorConfig,
    /// The step table and its phase length (a networked worker holds only
    /// its plan slice's).
    pub(crate) flat: &'e FlatSteps,
    /// Shard index of every node.
    pub(crate) of_node: &'e [u32],
    pub(crate) shards: usize,
}

impl<'e> ShardCtx<'e> {
    /// The inputs for running the plan whose step table is `flat` on
    /// `problem` split into `shards` shards by `of_node`.
    pub(crate) fn new(
        problem: &'e DasProblem<'_>,
        flat: &'e FlatSteps,
        config: &'e ExecutorConfig,
        of_node: &'e [u32],
        shards: usize,
    ) -> Self {
        ShardCtx {
            g: problem.graph(),
            algos: problem.algorithms(),
            seeds: problem.algo_seeds(),
            config,
            flat,
            of_node,
            shards,
        }
    }

    /// [`merge_shards`] over every shard of this run.
    pub(crate) fn merge(&self, shards: Vec<ShardOutput>) -> (ScheduleOutcome, ShardReport) {
        let (n, k) = (self.g.node_count(), self.algos.len());
        merge_shards(n, k, self.flat, shards)
    }
}

/// What one shard hands back to be merged — and, from a networked worker,
/// the DONE frame ([`crate::wire::Done`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardOutput {
    /// Owned nodes, ascending (the local index space).
    pub own: Vec<NodeId>,
    /// The owned nodes' outputs, `outputs.get(a, local)`.
    pub outputs: Outputs,
    /// Per algorithm, the engine round each message on an owned arc
    /// departed in.
    pub departures: Vec<SimulationMap>,
    /// Counters only; the merged schedule length is derived from
    /// `last_activity_round`.
    pub stats: ExecStats,
    /// The last engine round in which an owned arc delivered.
    pub last_activity_round: u64,
    /// Big-rounds executed (identical on every shard).
    pub big_rounds: u64,
    /// This shard's partition-dependent measurements.
    pub shard: ShardStats,
}

/// Pushes one message onto an owned arc queue.
#[inline]
fn inject(
    queues: &mut [ColFifo],
    active_arcs: &mut Vec<usize>,
    stats: &mut ExecStats,
    obs: &mut ExecObs,
    arc: usize,
    (algo, round, payload): (u32, u32, &[u8]),
) {
    let q = &mut queues[arc];
    if q.is_empty() {
        active_arcs.push(arc);
    }
    q.push(algo, round, payload);
    stats.max_arc_queue = stats.max_arc_queue.max(q.len());
    obs.on_inject(arc, q.len());
}

/// Runs shard `me` of the plan to completion.
///
/// Machines live in one [`crate::NodeBatch`] slab per algorithm over the
/// owned nodes; the step table hands each big-round over as runs of
/// consecutive nodes in ascending `(algorithm, node)` order, so one
/// algorithm's runs are contiguous and every machine appears at most once
/// in them (the step plan is strictly increasing), and the owned part of
/// that block executes as **one** virtual [`crate::NodeBatch::step_block`]
/// call.
///
/// Byte-identity with the row oracle holds by construction: inboxes are
/// only filled during drain phases, so taking a whole block's inboxes
/// before executing any of its steps cannot change their contents, and
/// each is handed over sender-sorted, the order the oracle sorts into
/// (senders are unique per (machine, round) in an honest run, and the
/// arena's order is total regardless); sends are validated and enqueued
/// segment-by-segment in the block's step order, which is exactly the
/// per-step order; and message `j` of an arc's per-big-round batch departs
/// at `phase_start + j`, the engine round the oracle assigns it.
///
/// # Errors
/// [`ExecError::RoundCapExceeded`] when the queues have not drained by
/// `config.max_engine_rounds`, or whatever the exchange fails with.
pub(crate) fn big_round_loop<X: Exchange>(
    ctx: &ShardCtx<'_>,
    me: usize,
    x: &mut X,
    obs: &mut ExecObs,
) -> Result<ShardOutput, ExecError> {
    let (g, config, flat) = (ctx.g, ctx.config, ctx.flat);
    let phase_len = flat.phase_len;
    let n = g.node_count();
    let k = ctx.algos.len();
    assert_eq!(ctx.seeds.len(), k, "one seed per algorithm");
    let own: Vec<NodeId> = (0..n as u32)
        .filter(|&v| ctx.of_node[v as usize] == me as u32)
        .map(NodeId)
        .collect();
    let own_n = own.len();
    let mut local_of = vec![usize::MAX; n];
    for (li, v) in own.iter().enumerate() {
        local_of[v.index()] = li;
    }
    // One slab per algorithm over the owned nodes in id order: slab-local
    // machine index == local node index `li`. Seeds mix per (algorithm,
    // node), so machine state is partition-independent.
    let mut batches = build_batches(ctx.algos, &ctx.seeds, &own, n);
    // All hot-loop per-machine state is flat and indexed `a * own_n + li`:
    // a step counter and the arena's list head, two words per machine and
    // no heap object.
    let mut steps_done = vec![0u32; k * own_n];
    let mut buffered = ArrivalArena::new(k * own_n);
    let mut sort_scratch: Vec<(u32, u32, u32)> = Vec::new();
    // Duplicate-send detection via generation stamps: O(1) per send where
    // the row oracle scans its sent-to list, which is quadratic in the
    // fan-out of a broadcast step.
    let mut sent_gen = vec![0u64; n];
    let mut gen: u64 = 0;
    // Per-block scratch: the block's [`BlockStep`] descriptors and the
    // flat send arena (the arena holds the block's inbox).
    let mut block_steps: Vec<BlockStep> = Vec::new();
    let mut sends_buf = BatchedSends::new();
    let (arc_src, arc_dst) = arc_endpoint_table(g);
    // Full-width arc array for global indexing; a shard only ever touches
    // the arcs it owns.
    let mut queues: Vec<ColFifo> = Vec::with_capacity(g.arc_count());
    queues.resize_with(g.arc_count(), ColFifo::default);
    let mut active_arcs: Vec<usize> = Vec::new();
    let mut scratch_arcs: Vec<usize> = Vec::new();
    // Cross-shard sends of the current step phase, per destination shard.
    let mut staged: Vec<FlightGroup> = (0..ctx.shards).map(|_| FlightGroup::default()).collect();
    obs.init(g.arc_count(), phase_len);
    let mut stats = ExecStats {
        phase_len,
        ..ExecStats::default()
    };
    // Departures filed per algorithm in drain order; sorted after the run.
    let mut filed: Vec<Vec<(TimedArc, u32)>> = vec![Vec::new(); k];
    let mut shard = ShardStats {
        shard: me,
        nodes: own_n,
        degree: own.iter().map(|&v| g.degree(v)).sum(),
        ..ShardStats::default()
    };
    let mut engine_round: u64 = 0;
    let mut last_activity_round: u64 = 0;
    let mut b: u64 = 0;
    loop {
        // 1. Step phase: this shard's share of each algorithm's block of
        // big-round b, in the global (algorithm, node, round) order.
        let t_step = Instant::now();
        let runs_b = flat.at(b);
        let mut i = 0usize;
        while i < runs_b.len() {
            let a = runs_b[i].algo;
            let mut j = i + 1;
            while j < runs_b.len() && runs_b[j].algo == a {
                j += 1;
            }
            // Take the block's inboxes up front, as spans of the arena's
            // bytes. This is safe because no send of this big-round can
            // reach an inbox before the next drain phase — buffered
            // arrivals are frozen during step phases — and the arena
            // reclaims nothing until the block has stepped. A machine with
            // nothing buffered never touches the arena's records.
            block_steps.clear();
            debug_assert_eq!(buffered.taken(), 0);
            for run in &runs_b[i..j] {
                let r = run.round;
                for v in run.lo..run.hi {
                    let li = local_of[v as usize];
                    if li == usize::MAX {
                        continue;
                    }
                    let idx = a as usize * own_n + li;
                    debug_assert_eq!(steps_done[idx], r, "steps execute in order");
                    let start = buffered.taken() as u32;
                    if r > 0 && !buffered.is_idle(idx) {
                        // take() appends the inbox already in canonical
                        // sender-sorted order
                        buffered.take(idx, r - 1, &mut sort_scratch);
                    }
                    let len = buffered.taken() as u32 - start;
                    obs.on_step(len as usize);
                    steps_done[idx] = r + 1;
                    shard.steps += 1;
                    block_steps.push(BlockStep {
                        node: li as u32,
                        round: r,
                        inbox_start: start,
                        inbox_len: len,
                    });
                }
            }
            i = j;
            if block_steps.is_empty() {
                continue;
            }
            sends_buf.clear();
            batches[a as usize].step_block(&block_steps, buffered.inbox(), &mut sends_buf);
            buffered.reclaim();
            // Validate and enqueue segment-by-segment, in the block's step
            // order. Send-free segments are skipped outright: `gen` is
            // consulted only by the duplicate-send check, so it need only
            // be distinct per *non-empty* segment, and plans are
            // send-sparse.
            for (si, bs) in block_steps.iter().enumerate() {
                if sends_buf.segment_is_empty(si) {
                    continue;
                }
                let from = own[bs.node as usize];
                gen += 1;
                for (to, payload) in sends_buf.segment(si) {
                    // One binary search over the sender's sorted neighbours
                    // names the edge; its endpoints are stored smaller id
                    // first, so the arc's direction is the id order.
                    let nbrs = g.neighbors(from);
                    let Ok(p) = nbrs.binary_search_by_key(&to, |&(w, _)| w) else {
                        stats.invalid_sends += 1;
                        obs.on_invalid_send();
                        continue;
                    };
                    if payload.len() > MESSAGE_BYTES || sent_gen[to.index()] == gen {
                        stats.invalid_sends += 1;
                        obs.on_invalid_send();
                        continue;
                    }
                    sent_gen[to.index()] = gen;
                    let arc = 2 * nbrs[p].1.index() + usize::from(from > to);
                    debug_assert_eq!((arc_src[arc], arc_dst[arc]), (from.0, to.0));
                    let owner = ctx.of_node[to.index()] as usize;
                    if owner == me {
                        let msg = (a, bs.round, payload);
                        inject(&mut queues, &mut active_arcs, &mut stats, obs, arc, msg);
                    } else {
                        shard.cross_sent += 1;
                        obs.on_cross_send();
                        staged[owner].push(Flight {
                            arc: arc as u32,
                            dst: to.0,
                            algo: a,
                            round: bs.round,
                            from: from.0,
                            payload,
                        });
                    }
                }
            }
        }
        shard.step_nanos += t_step.elapsed().as_nanos() as u64;

        // 2. The shard-boundary crossing, once per big-round: arrivals
        // enter the owned queues before this big-round's drain, so each
        // queue's push set (and per-arc order) equals the sequential one.
        let arrivals = x.exchange(b, &mut staged)?;
        let t_drain = Instant::now();
        for group in arrivals {
            for flight in group.flights().iter() {
                // Nothing a peer says is trusted: the arc must be owned
                // here, and what the local send path enforces per message
                // (a round the algorithm has, a payload inside the
                // bandwidth) holds for arrivals too.
                let (arc, algo) = (flight.arc as usize, flight.algo);
                let owned = arc < queues.len()
                    && ctx.of_node[arc_dst[arc] as usize] == me as u32
                    && (algo as usize) < k;
                if !owned {
                    return Err(ExecError::Net {
                        detail: format!(
                            "INBOX delivered arc {arc} (algorithm {algo}) this shard does not own"
                        ),
                    });
                }
                let (round, bytes) = (flight.round, flight.payload.len());
                if round >= ctx.algos[algo as usize].rounds() || bytes > MESSAGE_BYTES {
                    return Err(ExecError::Net {
                        detail: format!(
                            "INBOX delivered a {bytes}-byte message of round {round} \
                             (algorithm {algo}): no honest shard sends it"
                        ),
                    });
                }
                let msg = (algo, flight.round, flight.payload);
                inject(&mut queues, &mut active_arcs, &mut stats, obs, arc, msg);
            }
        }

        // 3. Drain: each active arc is visited once per big-round and
        // delivers up to phase_len queued messages as one contiguous
        // batch. Lateness reads steps_done of the destination node, which
        // this shard owns — no cross-shard progress is ever consulted.
        let phase_start = engine_round;
        std::mem::swap(&mut active_arcs, &mut scratch_arcs);
        for &arc_idx in &scratch_arcs {
            let q = &mut queues[arc_idx];
            let cnt = (q.len() as u64).min(phase_len) as usize;
            if cnt == 0 {
                continue;
            }
            let from = arc_src[arc_idx];
            let li = local_of[arc_dst[arc_idx] as usize];
            debug_assert_ne!(li, usize::MAX, "arc delivered to a foreign shard");
            let mut off = q.bytes_head;
            for j in 0..cnt {
                let m = q.meta[q.head + j];
                let payload = &q.bytes[off..off + m.len as usize];
                off += m.len as usize;
                let eng = phase_start + j as u64;
                let arc = das_graph::Arc::from_index(arc_idx);
                let ta = TimedArc {
                    round: m.round,
                    arc,
                };
                filed[m.algo as usize].push((ta, eng as u32));
                let idx = m.algo as usize * own_n + li;
                let late = steps_done[idx] >= m.round + 2;
                if late {
                    stats.late_messages += 1;
                } else {
                    buffered.push(idx, m.round, from, payload);
                    stats.delivered += 1;
                }
                obs.on_deliver(eng, late);
            }
            q.head += cnt;
            q.bytes_head = off;
            q.reclaim();
            if !q.is_empty() {
                active_arcs.push(arc_idx);
            }
            last_activity_round = last_activity_round.max(phase_start + cnt as u64);
        }
        scratch_arcs.clear();
        engine_round += phase_len;
        if engine_round > config.max_engine_rounds {
            x.abandon(config.max_engine_rounds, b);
            return Err(ExecError::RoundCapExceeded {
                cap: config.max_engine_rounds,
                big_round: b,
            });
        }
        shard.drain_nanos += t_drain.elapsed().as_nanos() as u64;
        obs.end_big_round(b);

        // 4. Termination.
        let any_active = x.any_active(b, !active_arcs.is_empty(), &shard, &stats)?;
        b += 1;
        if b > flat.last_step_round && !any_active {
            break;
        }
    }

    shard.delivered = stats.delivered;
    let outputs = Outputs::build(k, own_n, |a, li, out| batches[a].output(li, out));
    Ok(ShardOutput {
        own,
        outputs,
        departures: build_departures(filed),
        stats,
        last_activity_round,
        big_rounds: b,
        shard,
    })
}

/// Merges per-shard outputs, consumed in shard order, into the
/// partition-independent [`ScheduleOutcome`] plus the partition-dependent
/// [`ShardReport`]. `steps` is the full plan's table. A shard that owns
/// every node (the fused run) hands its outputs over as they are, and each
/// algorithm's departures are merged as sorted runs — a lone shard's run
/// moves over untouched.
pub(crate) fn merge_shards(
    n: usize,
    k: usize,
    steps: &FlatSteps,
    mut shards: Vec<ShardOutput>,
) -> (ScheduleOutcome, ShardReport) {
    let outputs = merge_outputs(n, k, &mut shards);
    let mut departures: Vec<SimulationMap> = vec![SimulationMap::new(); k];
    let mut stats = ExecStats {
        phase_len: steps.phase_len,
        ..ExecStats::default()
    };
    let mut last_activity_round = 0u64;
    let mut report = ShardReport {
        shards: shards.len(),
        cross_shard_messages: 0,
        per_shard: Vec::with_capacity(shards.len()),
    };
    for w in shards {
        stats.delivered += w.stats.delivered;
        stats.late_messages += w.stats.late_messages;
        stats.invalid_sends += w.stats.invalid_sends;
        stats.max_arc_queue = stats.max_arc_queue.max(w.stats.max_arc_queue);
        // every shard leaves the lockstep loop at the same big-round
        stats.big_rounds = w.big_rounds;
        last_activity_round = last_activity_round.max(w.last_activity_round);
        for (map, run) in departures.iter_mut().zip(w.departures) {
            *map = std::mem::take(map).merge(run);
        }
        report.cross_shard_messages += w.shard.cross_sent;
        report.per_shard.push(w.shard);
    }
    // Schedule length: last big-round boundary with any step, extended by
    // any drain tail.
    stats.engine_rounds = steps.schedule_rounds(last_activity_round);
    let outcome = ScheduleOutcome {
        outputs,
        stats,
        departures: Some(departures),
        precompute_rounds: 0,
    };
    (outcome, report)
}

/// The shards' outputs in the canonical (algorithm, node) arena. A lone
/// shard owning every node hands its arena over untouched; otherwise each
/// entry is copied from the shard owning its node — partitions interleave,
/// so the shard arenas cannot simply be concatenated. A node no shard
/// owns has no output.
fn merge_outputs(n: usize, k: usize, shards: &mut [ShardOutput]) -> Outputs {
    if let [lone] = shards {
        let whole = lone.own.len() == n && lone.own.iter().enumerate().all(|(i, v)| v.index() == i);
        if whole {
            return std::mem::take(&mut lone.outputs);
        }
    }
    // (shard, local index) of every node
    let mut owner = vec![(usize::MAX, 0); n];
    for (s, w) in shards.iter().enumerate() {
        for (li, v) in w.own.iter().enumerate() {
            owner[v.index()] = (s, li);
        }
    }
    // every shard's row of the algorithm being filled
    let (mut rows, mut rows_of) = (Vec::with_capacity(shards.len()), usize::MAX);
    Outputs::build(k, n, |a, v, out| {
        if a != rows_of {
            rows.clear();
            rows.extend(shards.iter().map(|w| w.outputs.row(a)));
            rows_of = a;
        }
        let (s, li) = owner[v];
        if let Some(bytes) = rows.get(s).and_then(|row: &OutputRow<'_>| row.get(li)) {
            out.put(bytes);
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::algorithm::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
    use crate::synthetic::FloodBall;
    use crate::{execute, DasProblem, ExecOptions, Scheduler, UniformScheduler};
    use das_graph::{generators, NodeId};

    /// One silent round; then node `v` outputs nothing if `v ≡ 0`, an empty
    /// output if `v ≡ 1` and its id if `v ≡ 2 (mod 3)`, so every shard's
    /// arena interleaves all three kinds of entry.
    struct Mixed;

    struct MixedNode(NodeId);

    impl AlgoNode for MixedNode {
        fn step(&mut self, _inbox: Inbox<'_>, _out: &mut Sends<'_>) {}

        fn output(&self, out: &mut OutputSink<'_>) {
            match self.0 .0 % 3 {
                0 => {}
                1 => out.put(&[]),
                _ => out.put(&self.0 .0.to_le_bytes()),
            }
        }
    }

    impl BlackBoxAlgorithm for Mixed {
        fn aid(&self) -> Aid {
            Aid(1)
        }

        fn rounds(&self) -> u32 {
            1
        }

        fn create_node(&self, v: NodeId, _n: usize, _seed: u64) -> Box<dyn AlgoNode> {
            Box::new(MixedNode(v))
        }
    }

    #[test]
    fn merged_outputs_equal_the_fused_arena() {
        let g = generators::grid(5, 5);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = vec![
            Box::new(FloodBall::new(0, &g, NodeId(3), 4)),
            Box::new(Mixed),
            Box::new(FloodBall::new(2, &g, NodeId(17), 2)),
        ];
        let p = DasProblem::new(&g, algos, 5);
        let plan = UniformScheduler::default().plan(&p, 7).expect("plan");
        let fused = execute(&p, &plan, ExecOptions::default())
            .expect("fused")
            .outcome;
        assert_eq!(fused.outputs.get(1, 3), None);
        assert_eq!(fused.outputs.get(1, 4), Some(&[][..]));
        assert_eq!(fused.outputs.get(1, 5), Some(&5u32.to_le_bytes()[..]));
        for shards in [2, 3] {
            let merged = execute(&p, &plan, ExecOptions::sharded(shards)).expect("sharded");
            assert_eq!(merged.shard.shards, shards);
            assert_eq!(merged.outcome.outputs, fused.outputs, "{shards} shards");
            assert_eq!(format!("{:?}", merged.outcome), format!("{fused:?}"));
        }
    }
}
