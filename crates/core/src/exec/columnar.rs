//! The columnar data structures the production big-round loop
//! (`exec/big_round.rs`) runs on.
//!
//! Semantics are identical to the row oracle in `exec.rs` — same big-round
//! clock, same per-arc FIFO order, same lateness rule — but the data layout
//! is columnar and deliveries are batched:
//!
//! * **Per-arc arena queues** ([`ColFifo`]): message metadata and payload
//!   bytes live in two flat, cache-line-aligned arenas per arc instead of a
//!   `Vec<Flight>` of heap payloads. Pushes are appends; pops advance a
//!   head index; arenas are recycled when the queue drains.
//! * **Batched per-arc delivery**: the row oracle touches every active arc
//!   once per *engine* round; the production loop touches it once per
//!   *big* round and delivers `min(phase_len, queue_len)` messages as one
//!   contiguous slice. Message `j` of the batch departs at engine round
//!   `phase_start + j` — exactly the round the row oracle would assign it,
//!   because an arc delivers at most one message per engine round and
//!   `steps_done` never changes during a drain (steps happen only in the
//!   step phase). The deterministic clock is therefore preserved.
//! * **One arrival arena per shard** ([`ArrivalArena`]): where the row
//!   oracle keeps a `TagWindow` ring per (algorithm, node), a shard keeps
//!   one flat record vector threaded into a list per machine plus one byte
//!   arena. A machine costs one word, an arrival no allocation, the
//!   common "nothing buffered" check is that word, and memory follows the
//!   messages in flight — one big-round's worth under Theorem 1.1 — not
//!   `k · n` heap objects.
//! * **Deferred departure recording** ([`build_departures`]): the row
//!   oracle pays a `BTreeMap` insert per delivered message inside the hot
//!   loop; the production loop appends flat `(algo, round, arc,
//!   engine_round)` tuples and bulk-inserts them after the run. Keys are
//!   unique (one canonical machine per (algorithm, node), deduplicated
//!   sends), so insertion order cannot matter.
//! * **Run-length step table** ([`FlatSteps`]) and **machine slabs**
//!   ([`build_batches`]): a big-round's steps stored as runs of
//!   consecutive nodes stepping the same round of the same algorithm —
//!   what per-algorithm or per-cluster delays produce — and machines built
//!   as one [`NodeBatch`] per algorithm, so an algorithm's whole block of
//!   a big-round dispatches as one virtual call.
//!
//! **Why the bytes cannot move.** An inbox is still exactly the arrivals
//! filed under the consumed tag, handed over sender-sorted: the order the
//! oracle's `inbox.sort()` produces, because senders are unique per
//! (machine, tag) in an honest run (one canonical machine per (algorithm,
//! node), duplicate sends rejected) — and arrival rank breaks ties, so the
//! order is total even when a peer lies. Expanding a big-round's runs
//! yields its steps in the oracle's ascending `(algorithm, node, round)`
//! order. Everything else — queues, clock, lateness — is untouched by
//! either structure.
//!
//! Outcome equivalence with the row oracle is enforced property-style by
//! `tests/shard_equivalence.rs`, `tests/obs_neutrality.rs` and
//! `tests/net_equivalence.rs`, and end-to-end by the `engine-equivalence`
//! CI job.

use super::Unit;
use crate::algorithm::{BlackBoxAlgorithm, NodeBatch};
use das_graph::{Graph, NodeId};
use das_pattern::{SimulationMap, TimedArc};

/// Metadata for one queued message; its payload occupies the next `len`
/// bytes of the owning queue's byte arena.
#[derive(Clone, Copy)]
pub(super) struct ColMsg {
    pub(super) algo: u32,
    pub(super) round: u32,
    pub(super) len: u32,
}

/// Per-arc columnar FIFO: metadata and payload bytes in two flat arenas,
/// aligned to a cache line so the per-round scan over active arcs never
/// splits a queue header across lines.
#[derive(Default)]
#[repr(align(64))]
pub(super) struct ColFifo {
    /// Message metadata in arrival order; `meta[head..]` is live.
    pub(super) meta: Vec<ColMsg>,
    pub(super) head: usize,
    /// Concatenated payloads in arrival order; `bytes[bytes_head..]` is
    /// live.
    pub(super) bytes: Vec<u8>,
    pub(super) bytes_head: usize,
}

impl ColFifo {
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.meta.len() - self.head
    }

    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.head == self.meta.len()
    }

    #[inline]
    pub(super) fn push(&mut self, algo: u32, round: u32, payload: &[u8]) {
        self.meta.push(ColMsg {
            algo,
            round,
            len: payload.len() as u32,
        });
        self.bytes.extend_from_slice(payload);
    }

    /// Reclaims consumed prefixes: a cheap reset once fully drained, a
    /// compaction when the dead prefix dominates a long-lived backlog, so
    /// arena growth stays proportional to the live queue.
    #[inline]
    pub(super) fn reclaim(&mut self) {
        if self.head == self.meta.len() {
            self.meta.clear();
            self.bytes.clear();
            self.head = 0;
            self.bytes_head = 0;
        } else if self.head > 64 && self.head * 2 > self.meta.len() {
            let live = self.meta.len() - self.head;
            self.meta.copy_within(self.head.., 0);
            self.meta.truncate(live);
            self.head = 0;
            let live_bytes = self.bytes.len() - self.bytes_head;
            self.bytes.copy_within(self.bytes_head.., 0);
            self.bytes.truncate(live_bytes);
            self.bytes_head = 0;
        }
    }
}

/// "No record": the end of a machine's list and of the free list.
const NIL: u32 = u32::MAX;

/// One buffered arrival of an [`ArrivalArena`].
#[derive(Clone, Copy)]
struct Arrival {
    /// The next record of the same machine's list (of the free list once
    /// consumed), or [`NIL`].
    next: u32,
    /// Algorithm round the message was sent in; step `tag + 1` consumes it.
    tag: u32,
    /// Sending node.
    from: u32,
    /// Payload span in the byte arena. A consumed record keeps `len == 0`,
    /// so a compaction has nothing to move for it.
    len: u32,
    off: usize,
}

/// Every buffered arrival of one shard: the production loop's replacement
/// for the row oracle's one `TagWindow` per (algorithm, node), which stays
/// the specification (a property test holds the two together).
///
/// A machine owns one word — the head of an intrusive list threaded
/// through a flat record vector — and nothing else, so a machine that
/// never receives costs four bytes and one that does costs no allocation:
/// [`ArrivalArena::push`] links a record (recycled through a free list)
/// and appends the payload to one byte arena; [`ArrivalArena::take`]
/// unlinks a tag's records, leaves early tags linked, and reclaims the
/// byte arena by [`ColFifo::reclaim`]'s rule. Memory follows the peak of
/// *live* messages, which Theorem 1.1's execution style keeps at about one
/// big-round's worth.
pub(super) struct ArrivalArena {
    /// First record of each machine's list, [`NIL`] when nothing is
    /// buffered for it. Lists run newest first.
    head: Vec<u32>,
    records: Vec<Arrival>,
    /// First consumed record awaiting reuse.
    free: u32,
    /// Payload bytes of the live records, with dead stretches in between.
    bytes: Vec<u8>,
    live_bytes: usize,
}

impl ArrivalArena {
    /// An empty arena for `machines` machines.
    pub(super) fn new(machines: usize) -> Self {
        ArrivalArena {
            head: vec![NIL; machines],
            records: Vec::new(),
            free: NIL,
            bytes: Vec::new(),
            live_bytes: 0,
        }
    }

    /// Whether nothing is buffered for `machine` — one word, no record
    /// memory touched.
    #[inline]
    pub(super) fn is_idle(&self, machine: usize) -> bool {
        self.head[machine] == NIL
    }

    /// Files one arrival for `machine` under `tag`. The executor's
    /// late-drop check guarantees the machine has not consumed `tag` yet.
    #[inline]
    pub(super) fn push(&mut self, machine: usize, tag: u32, from: u32, payload: &[u8]) {
        let record = Arrival {
            next: self.head[machine],
            tag,
            from,
            len: payload.len() as u32,
            // an empty payload must stay sliceable across arena resets
            off: if payload.is_empty() {
                0
            } else {
                self.bytes.len()
            },
        };
        self.bytes.extend_from_slice(payload);
        self.live_bytes += payload.len();
        let slot = self.free;
        if slot == NIL {
            self.head[machine] = self.records.len() as u32;
            self.records.push(record);
        } else {
            self.free = self.records[slot as usize].next;
            self.records[slot as usize] = record;
            self.head[machine] = slot;
        }
    }

    /// Appends `machine`'s arrivals under `tag` to `into` in canonical
    /// (sender-sorted) order and frees their records; arrivals under later
    /// tags stay linked. Payload allocations are drawn from `pool`;
    /// `scratch` is reusable sort space.
    ///
    /// Sorting happens on `(sender, arrival rank, record)` integer triples
    /// — senders are unique per (machine, tag) in an honest run (a machine
    /// sends at most one message per round to a given target), so this is
    /// exactly the canonical `(NodeId, payload)` order without ever
    /// comparing payload bytes; the rank keeps the order total regardless.
    pub(super) fn take(
        &mut self,
        machine: usize,
        tag: u32,
        into: &mut Vec<(NodeId, Vec<u8>)>,
        pool: &mut Vec<Vec<u8>>,
        scratch: &mut Vec<(u32, u32, u32)>,
    ) {
        scratch.clear();
        let (mut prev, mut cur) = (NIL, self.head[machine]);
        while cur != NIL {
            let Arrival {
                next, tag: t, from, ..
            } = self.records[cur as usize];
            if t == tag {
                if prev == NIL {
                    self.head[machine] = next;
                } else {
                    self.records[prev as usize].next = next;
                }
                // the list runs newest first: later in the walk = earlier
                // arrival = smaller rank
                scratch.push((from, !(scratch.len() as u32), cur));
            } else {
                debug_assert!(t > tag, "tags are consumed in order");
                prev = cur;
            }
            cur = next;
        }
        if scratch.is_empty() {
            return;
        }
        scratch.sort_unstable();
        for &(from, _, at) in scratch.iter() {
            let record = &mut self.records[at as usize];
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(&self.bytes[record.off..record.off + record.len as usize]);
            into.push((NodeId(from), buf));
            self.live_bytes -= record.len as usize;
            record.len = 0;
            record.next = self.free;
            self.free = at;
        }
        self.reclaim();
    }

    /// [`ColFifo::reclaim`]'s rule for a byte arena whose dead stretches
    /// are not a prefix: a cheap reset once nothing is live, a compaction
    /// (live payloads copied into a fresh buffer, every live record
    /// re-pointed, the old buffer returned) once the dead bytes outweigh
    /// both the live ones and the record table the compaction scans — so
    /// the byte arena stays within a constant factor of the live messages
    /// and the scan is paid for by the bytes it frees.
    #[inline]
    fn reclaim(&mut self) {
        if self.live_bytes == 0 {
            self.bytes.clear();
            return;
        }
        let dead = self.bytes.len() - self.live_bytes;
        if dead
            > self
                .live_bytes
                .max(self.records.len() * std::mem::size_of::<Arrival>())
        {
            let mut compact = Vec::with_capacity(self.live_bytes);
            for record in self.records.iter_mut().filter(|r| r.len > 0) {
                let live = &self.bytes[record.off..record.off + record.len as usize];
                record.off = compact.len();
                compact.extend_from_slice(live);
            }
            self.bytes = compact;
        }
    }
}

/// Returns an inbox's payload allocations to the pool instead of dropping
/// them — the columnar engine's replacement for `inbox.clear()`.
#[inline]
pub(super) fn recycle(inbox: &mut Vec<(NodeId, Vec<u8>)>, pool: &mut Vec<Vec<u8>>) {
    for (_, buf) in inbox.drain(..) {
        pool.push(buf);
    }
}

/// Checks a unit list against the problem's shape and returns whether no
/// algorithm has two units — the dominant case: every shared-randomness
/// scheduler emits at most one.
///
/// # Panics
/// Panics if units reference out-of-range algorithms, are missized, or
/// have a zero stride: the row oracle's `StepPlan::build` checks.
fn validate_units(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> bool {
    let mut seen = vec![false; algos.len()];
    let mut single = true;
    for u in units {
        assert!(u.algo < algos.len(), "unit for unknown algorithm");
        assert_eq!(u.delay.len(), n, "delay vector missized");
        assert_eq!(u.trunc.len(), n, "truncation vector missized");
        assert!(u.stride >= 1, "stride must be at least 1");
        single &= !std::mem::replace(&mut seen[u.algo], true);
    }
    single
}

/// How far the merged step schedule of a unit list reaches, computed
/// without materialising a single step — all that
/// `SchedulePlan::assemble`'s `predicted_rounds` and the networked
/// coordinator's termination round need.
///
/// Round `r` of algorithm `a` at node `v` executes at the earliest
/// big-round over all eligible units, and a unit covers the round *prefix*
/// `[0, min(rounds, trunc[v]))`. So the merged schedule at `(a, v)` has no
/// holes, its length is the longest unit prefix, it is strictly increasing
/// (`earliest[r] ≤ delay + r·stride < delay + (r+1)·stride` for every unit
/// still eligible at `r + 1`, strides being ≥ 1), and it ends at the
/// smallest `delay + (len − 1)·stride` among the units reaching that
/// length — `O(units · n)` work, no per-round table.
pub(crate) struct StepExtent {
    /// The last big-round with any step; `None` for a step-free plan.
    pub(crate) last: Option<u64>,
}

impl StepExtent {
    /// # Panics
    /// Panics on a malformed unit list, exactly as [`FlatSteps::build`]
    /// and the row oracle's `StepPlan::build` do.
    pub(crate) fn of(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        if validate_units(n, algos, units) {
            return Self::of_single_units(n, algos, units);
        }
        let k = algos.len();
        let mut len_at = vec![0u32; k * n];
        let mut end_at = vec![0u64; k * n];
        for u in units {
            let rounds = algos[u.algo].rounds();
            let lens = &mut len_at[u.algo * n..][..n];
            let ends = &mut end_at[u.algo * n..][..n];
            for v in 0..n {
                let len = rounds.min(u.trunc[v]);
                if len == 0 {
                    continue;
                }
                let e = u.delay[v] + u64::from(len - 1) * u.stride;
                if len > lens[v] || (len == lens[v] && e < ends[v]) {
                    lens[v] = len;
                    ends[v] = e;
                }
            }
        }
        let mut extent = StepExtent { last: None };
        for (&len, &e) in len_at.iter().zip(&end_at) {
            if len > 0 {
                extent.last = extent.last.max(Some(e));
            }
        }
        extent
    }

    /// The at-most-one-unit-per-algorithm case: no merging, no scratch.
    fn of_single_units(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        let mut extent = StepExtent { last: None };
        for u in units {
            let rounds = algos[u.algo].rounds();
            for v in 0..n {
                let len = rounds.min(u.trunc[v]) as u64;
                if len > 0 {
                    extent.last = extent.last.max(Some(u.delay[v] + (len - 1) * u.stride));
                }
            }
        }
        extent
    }
}

/// Consecutive nodes `lo..hi` stepping the same round of the same
/// algorithm in one big-round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StepRun {
    pub(crate) algo: u32,
    pub(crate) round: u32,
    /// First node of the run.
    pub(crate) lo: u32,
    /// One past its last node.
    pub(crate) hi: u32,
}

/// The step table, run-length encoded: per big-round, the [`StepRun`]s it
/// executes — the production replacement for the row oracle's `StepPlan`
/// and its `by_big_round` regroup. A schedule whose delays
/// are drawn per algorithm (Theorem 1.1) or per cluster (Theorem 1.3)
/// steps long stretches of consecutive node ids together, so the table is
/// sized by those stretches, not by the `k · n · rounds` steps.
///
/// Semantics are identical to the row builder: round `r` of algorithm `a`
/// at node `v` executes at the earliest big-round over all eligible units,
/// the same malformed-plan panics fire, and a big-round's runs, expanded,
/// are its steps in the same ascending `(a, v, r)` order. That order is
/// also ascending `(a, lo)`: the merged schedule at `(a, v)` is hole-free
/// and strictly increasing (see [`StepExtent`]), so a node steps an
/// algorithm at most once per big-round and the runs of one `(big-round,
/// algorithm)` are disjoint. Runs are maximal: no two of them are adjacent
/// in node space with equal `(algorithm, round)`.
pub(crate) struct FlatSteps {
    /// All runs, grouped by big-round.
    runs: Vec<StepRun>,
    /// `runs[offsets[b]..offsets[b + 1]]` holds big-round `b`'s runs.
    offsets: Vec<usize>,
    /// The last big-round with any step (0 for an empty plan).
    pub(crate) last_step_round: u64,
}

impl FlatSteps {
    /// `O(k · n + runs)` when no algorithm has two units, `O(steps)`
    /// otherwise; either way the only step-sized scratch is one
    /// algorithm's `earliest` table on the several-units path.
    pub(crate) fn build(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        validate_units(n, algos, units);
        let mut units_of: Vec<Vec<&Unit>> = vec![Vec::new(); algos.len()];
        for u in units {
            units_of[u.algo].push(u);
        }
        // Runs are emitted as they close: algorithm by algorithm, and
        // within one in ascending `hi` — which, its runs in one big-round
        // being disjoint, is ascending `lo`. The stable sort by big-round
        // below therefore leaves each big-round in `(a, lo)` order.
        let mut emitted: Vec<(u64, StepRun)> = Vec::new();
        // per round: the big-round and first node of the run still open
        let mut open: Vec<(u64, u32)> = Vec::new();
        let mut earliest: Vec<u64> = Vec::new();
        for (a, mine) in units_of.iter().enumerate() {
            let rounds = algos[a].rounds();
            open.clear();
            open.resize(rounds as usize, (u64::MAX, 0));
            let mut close = |r: usize, (b, lo): (u64, u32), hi: usize| {
                let (algo, round, hi) = (a as u32, r as u32, hi as u32);
                let run = StepRun {
                    algo,
                    round,
                    lo,
                    hi,
                };
                emitted.push((b, run));
            };
            match mine[..] {
                [] => {}
                // One unit: a node's steps are `delay + r · stride` for `r`
                // below its prefix length, so between neighbours only the
                // rounds in which they differ close or open a run.
                [u] => {
                    let (mut delay, mut len) = (0u64, 0usize);
                    for v in 0..=n {
                        // one step past the last node closes what is open
                        let (d, l) = if v < n {
                            (u.delay[v], rounds.min(u.trunc[v]) as usize)
                        } else {
                            (0, 0)
                        };
                        let kept = if d == delay { l.min(len) } else { 0 };
                        for (r, &slot) in open.iter().enumerate().take(len).skip(kept) {
                            close(r, slot, v);
                        }
                        for (r, slot) in open.iter_mut().enumerate().take(l).skip(kept) {
                            *slot = (d + r as u64 * u.stride, v as u32);
                        }
                        (delay, len) = (d, l);
                    }
                }
                // Several units: the earliest eligible big-round per
                // (node, round), then the same sweep comparing every round.
                _ => {
                    let rounds = rounds as usize;
                    earliest.clear();
                    earliest.resize(n * rounds, u64::MAX);
                    for u in mine {
                        for v in 0..n {
                            let lim = (rounds as u32).min(u.trunc[v]) as usize;
                            let row = &mut earliest[v * rounds..][..lim];
                            for (r, slot) in row.iter_mut().enumerate() {
                                *slot = (*slot).min(u.delay[v] + r as u64 * u.stride);
                            }
                        }
                    }
                    for v in 0..=n {
                        for (r, slot) in open.iter_mut().enumerate() {
                            let b = if v < n {
                                earliest[v * rounds + r]
                            } else {
                                u64::MAX
                            };
                            if slot.0 != b {
                                if slot.0 != u64::MAX {
                                    close(r, *slot, v);
                                }
                                *slot = (b, v as u32);
                            }
                        }
                    }
                }
            }
        }
        let last_step_round = emitted.iter().map(|e| e.0).max().unwrap_or(0);
        let mut offsets = vec![0usize; last_step_round as usize + 2];
        for (b, _) in &emitted {
            offsets[*b as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut runs = vec![StepRun::default(); emitted.len()];
        for (b, run) in emitted {
            runs[cursor[b as usize]] = run;
            cursor[b as usize] += 1;
        }
        FlatSteps {
            runs,
            offsets,
            last_step_round,
        }
    }

    /// Whether the plan schedules no step at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Big-round `b`'s runs (empty past the last step round).
    #[inline]
    pub(crate) fn at(&self, b: u64) -> &[StepRun] {
        let b = b as usize;
        if b + 1 >= self.offsets.len() {
            &[]
        } else {
            &self.runs[self.offsets[b]..self.offsets[b + 1]]
        }
    }

    /// Big-round `b`'s steps as `(algo, node, round)` triples, in the
    /// order the loop executes them.
    pub(crate) fn triples(&self, b: u64) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.at(b)
            .iter()
            .flat_map(|run| (run.lo..run.hi).map(move |v| (run.algo, v, run.round)))
    }
}

/// Bulk-builds the per-algorithm departure maps from the deferred flat
/// tuples. `BTreeMap`'s `FromIterator` sorts the pairs once and
/// bulk-builds each tree bottom-up — far cheaper than the row engine's
/// per-message tree insert, and exact because departure keys are unique
/// (one canonical machine per (algorithm, node), deduplicated sends).
pub(super) fn build_departures(k: usize, deferred: &[(u32, u32, u32, u32)]) -> Vec<SimulationMap> {
    let mut per_algo: Vec<Vec<(TimedArc, u32)>> = vec![Vec::new(); k];
    for &(a, round, arc, eng) in deferred {
        per_algo[a as usize].push((
            TimedArc {
                round,
                arc: das_graph::Arc::from_index(arc as usize),
            },
            eng,
        ));
    }
    per_algo
        .into_iter()
        .map(|pairs| pairs.into_iter().collect())
        .collect()
}

/// Flat `(src, dst)` node indices per arc, precomputed once so the drain
/// loop never consults the graph.
pub(super) fn arc_endpoint_table(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let arcs = g.arc_count();
    let mut src = vec![0u32; arcs];
    let mut dst = vec![0u32; arcs];
    for i in 0..arcs {
        let (s, d) = g.arc_endpoints(das_graph::Arc::from_index(i));
        src[i] = s.index() as u32;
        dst[i] = d.index() as u32;
    }
    (src, dst)
}

/// Builds one [`NodeBatch`] slab per algorithm over `nodes`, deriving each
/// machine's seed with the same per-(algorithm, node) mix every engine
/// uses — machine state is therefore independent of the engine and of the
/// partition.
pub(super) fn build_batches(
    algos: &[Box<dyn BlackBoxAlgorithm>],
    seeds: &[u64],
    nodes: &[NodeId],
    n: usize,
) -> Vec<NodeBatch> {
    let mut node_seeds = vec![0u64; nodes.len()];
    algos
        .iter()
        .zip(seeds)
        .map(|(algo, &seed)| {
            for (slot, v) in node_seeds.iter_mut().zip(nodes) {
                *slot = das_congest::util::seed_mix(seed, u64::from(v.0));
            }
            algo.create_nodes(nodes, n, &node_seeds)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TagWindow;

    fn taken(arena: &mut ArrivalArena, machine: usize, tag: u32) -> Vec<(NodeId, Vec<u8>)> {
        let mut into = Vec::new();
        arena.take(machine, tag, &mut into, &mut Vec::new(), &mut Vec::new());
        into
    }

    #[test]
    fn records_are_reused_and_dead_bytes_compacted_under_a_lingering_early_tag() {
        let mut arena = ArrivalArena::new(2);
        // machine 1 holds an early tag for the whole test
        arena.push(1, 9, 5, b"early");
        for round in 0..200u32 {
            arena.push(0, round, 3, &[round as u8; 64]);
            arena.push(0, round, 2, &[]);
            assert_eq!(
                taken(&mut arena, 0, round),
                vec![(NodeId(2), vec![]), (NodeId(3), vec![round as u8; 64])]
            );
            assert!(arena.is_idle(0) && !arena.is_idle(1));
        }
        assert_eq!(arena.records.len(), 3, "freed records are relinked");
        assert!(arena.bytes.len() < 4 * 64, "the dead stretches are gone");
        assert_eq!(
            taken(&mut arena, 1, 9),
            vec![(NodeId(5), b"early".to_vec())]
        );
        assert!(arena.bytes.is_empty(), "nothing live: the arena resets");
    }

    proptest::proptest! {
        /// The row oracle's per-machine `TagWindow` is the specification:
        /// under any interleaving of arrivals (early tags included) and
        /// in-order takes (often of empty tags) over several machines, the
        /// arena hands out the same inboxes, sender-sorted.
        #[test]
        fn arena_matches_one_tag_window_per_machine(seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut arena = ArrivalArena::new(3);
            let mut model: Vec<TagWindow> = (0..3).map(|_| TagWindow::default()).collect();
            let mut next = [0u32; 3];
            // senders are unique per (machine, tag), as in an honest run
            let mut sent = std::collections::HashSet::new();
            let (mut pool, mut scratch) = (Vec::new(), Vec::new());
            let mut got = Vec::new();
            for _ in 0..rng.gen_range(0..300) {
                let machine = rng.gen_range(0..3usize);
                if rng.gen_bool(0.6) {
                    let tag = next[machine] + rng.gen_range(0..4u32);
                    let from = rng.gen_range(0..12u32);
                    // long payloads make the dead bytes outweigh the record
                    // table, so compactions happen mid-run
                    let len = [0, 3, 120][rng.gen_range(0..3usize)];
                    let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    if sent.insert((machine, tag, from)) {
                        arena.push(machine, tag, from, &payload);
                        model[machine].push(tag, NodeId(from), payload);
                    }
                } else {
                    let tag = next[machine];
                    next[machine] += 1;
                    let mut want = Vec::new();
                    model[machine].take(tag, &mut want);
                    want.sort();
                    recycle(&mut got, &mut pool);
                    arena.take(machine, tag, &mut got, &mut pool, &mut scratch);
                    proptest::prop_assert_eq!(&got, &want);
                }
                let live: usize = arena.records.iter().map(|r| r.len as usize).sum();
                proptest::prop_assert_eq!(arena.live_bytes, live);
                proptest::prop_assert!(arena.bytes.len() >= live);
            }
        }
    }
}
