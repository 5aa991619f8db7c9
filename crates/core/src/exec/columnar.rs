//! The columnar data structures the production big-round loop
//! (`exec/big_round.rs`) runs on.
//!
//! Semantics are identical to the row oracle in `oracle.rs` — same big-round
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
//!   `k · n` heap objects. Inboxes are handed out as spans of that byte
//!   arena; no payload is copied to step a machine.
//! * **Deferred departure recording** ([`build_departures`]): the loop
//!   files `(key, engine_round)` pairs per algorithm and sorts each list
//!   once after the run, which is then the algorithm's
//!   [`SimulationMap`] as it stands. Keys are unique (one canonical
//!   machine per (algorithm, node), deduplicated sends), so filing order
//!   cannot matter.
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

use super::{ExecutorConfig, Unit};
use crate::algorithm::{BlackBoxAlgorithm, Inbox, InboxBuf, NodeBatch};
use crate::plan::{PlanError, SchedulePlan};
use crate::problem::DasProblem;
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
    /// The open block's inbox: the spans taken since the last reclaim,
    /// over the payload bytes of the live records (dead stretches in
    /// between).
    inbox: InboxBuf,
    live_bytes: usize,
}

impl ArrivalArena {
    /// An empty arena for `machines` machines.
    pub(super) fn new(machines: usize) -> Self {
        ArrivalArena {
            head: vec![NIL; machines],
            records: Vec::new(),
            free: NIL,
            inbox: InboxBuf::new(),
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
                self.inbox.bytes_mut().len()
            },
        };
        self.inbox.bytes_mut().extend_from_slice(payload);
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

    /// Appends `machine`'s arrivals under `tag` to the open block's inbox
    /// ([`ArrivalArena::inbox`]) in canonical (sender-sorted) order, as
    /// spans of the arena's bytes, and frees their records; arrivals
    /// under later tags stay linked. `scratch` is reusable sort space.
    /// The spans stay valid until the next [`ArrivalArena::reclaim`]: the
    /// caller steps the whole block that reads them first.
    ///
    /// Sorting happens on `(sender, arrival rank, record)` integer triples
    /// — senders are unique per (machine, tag) in an honest run (a machine
    /// sends at most one message per round to a given target), so this is
    /// exactly the canonical `(NodeId, payload)` order without ever
    /// comparing payload bytes; the rank keeps the order total regardless.
    pub(super) fn take(&mut self, machine: usize, tag: u32, scratch: &mut Vec<(u32, u32, u32)>) {
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
            self.inbox.push_span(NodeId(from), record.off, record.len);
            self.live_bytes -= record.len as usize;
            record.len = 0;
            record.next = self.free;
            self.free = at;
        }
    }

    /// How many messages the open block has taken so far — where the next
    /// take's land in [`ArrivalArena::inbox`].
    #[inline]
    pub(super) fn taken(&self) -> usize {
        self.inbox.len()
    }

    /// The open block's inbox: every span taken since the last reclaim.
    #[inline]
    pub(super) fn inbox(&self) -> Inbox<'_> {
        self.inbox.inbox()
    }

    /// Closes the open block — its spans are dropped — and applies
    /// [`ColFifo::reclaim`]'s rule for a byte arena whose dead stretches
    /// are not a prefix: a cheap reset once nothing is live, a compaction
    /// (live payloads copied into a fresh buffer, every live record
    /// re-pointed, the old buffer returned) once the dead bytes outweigh
    /// both the live ones and the record table the compaction scans — so
    /// the byte arena stays within a constant factor of the live messages
    /// and the scan is paid for by the bytes it frees.
    #[inline]
    pub(super) fn reclaim(&mut self) {
        // the spans go, the bytes stay: live records point into them
        let mut bytes = std::mem::take(self.inbox.bytes_mut());
        self.inbox.clear();
        if self.live_bytes == 0 {
            bytes.clear();
        } else if bytes.len() - self.live_bytes
            > self
                .live_bytes
                .max(self.records.len() * std::mem::size_of::<Arrival>())
        {
            let mut compact = Vec::with_capacity(self.live_bytes);
            for record in self.records.iter_mut().filter(|r| r.len > 0) {
                let live = &bytes[record.off..record.off + record.len as usize];
                record.off = compact.len();
                compact.extend_from_slice(live);
            }
            bytes = compact;
        }
        *self.inbox.bytes_mut() = bytes;
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
/// It is also the one reader of a plan's units: [`FlatSteps::build`]
/// makes every check [`SchedulePlan::validate`] names, and the table
/// answers every question about the schedule's length.
///
/// Semantics are identical to the row builder: round `r` of algorithm `a`
/// at node `v` executes at the earliest big-round over all eligible units,
/// and a big-round's runs, expanded, are its steps in the same ascending
/// `(a, v, r)` order. That order is also ascending `(a, lo)`: a unit
/// covers the round *prefix* `[0, min(rounds, trunc[v]))`, so the merged
/// schedule at `(a, v)` has no holes and is strictly increasing
/// (`earliest[r] ≤ delay + r·stride < delay + (r+1)·stride` for every unit
/// still eligible at `r + 1`, strides being ≥ 1); a node steps an
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
    /// Engine rounds per big-round: the plan's.
    pub(crate) phase_len: u64,
}

/// The big-round of round `r` of a unit at a node with this delay,
/// saturating at `u64::MAX` (which no budget admits).
#[inline]
fn big_round_of(delay: u64, r: usize, stride: u64) -> u64 {
    delay.saturating_add((r as u64).saturating_mul(stride))
}

/// Unit `unit`'s shape faults, in [`PlanError`]'s order.
fn check_shape(unit: usize, u: &Unit, n: usize, known: usize) -> Result<(), PlanError> {
    if u.algo >= known {
        return Err(PlanError::UnknownAlgorithm {
            unit,
            algo: u.algo,
            known,
        });
    }
    if u.delay.len() != n {
        return Err(PlanError::DelayLength {
            unit,
            expected: n,
            got: u.delay.len(),
        });
    }
    if u.trunc.len() != n {
        return Err(PlanError::TruncLength {
            unit,
            expected: n,
            got: u.trunc.len(),
        });
    }
    if u.stride == 0 {
        return Err(PlanError::ZeroStride { unit });
    }
    Ok(())
}

impl FlatSteps {
    /// Checks `plan` against `problem` and files its steps, reading each
    /// unit once.
    ///
    /// The checks come in [`PlanError`]'s order: a zero `phase_len` first,
    /// then per unit, in index order, an unknown algorithm, a missized
    /// delay or truncation vector, a zero stride, and a reach past the
    /// default engine-round budget — the first faulty unit is named,
    /// whatever its fault. A unit's reach is the saturating max over its
    /// nodes of `delay + (lim − 1)·stride`, `lim = min(rounds, trunc)`,
    /// steps an earlier unit supersedes included; it fits when `(reach +
    /// 1)·phase_len` is within the budget. No node vector is indexed
    /// before its unit's shape is checked, and the only allocation sized
    /// by a delay — `offsets` — is made once every unit fits.
    ///
    /// `O(k · n + runs)` when no algorithm has two units. Otherwise each
    /// algorithm with several units costs `O(units · n + s · n · rounds)`,
    /// `s` being its count of distinct strides (1 for every in-crate
    /// scheduler); the only step-sized scratch is one algorithm's
    /// `earliest` and `best` tables.
    ///
    /// # Errors
    /// The first [`PlanError`] found.
    pub(crate) fn build(problem: &DasProblem<'_>, plan: &SchedulePlan) -> Result<Self, PlanError> {
        let phase_len = plan.phase_len;
        if phase_len == 0 {
            return Err(PlanError::ZeroPhaseLen);
        }
        let (n, algos) = (problem.graph().node_count(), problem.algorithms());
        // a last step in big-round `b` fits iff `(b + 1)·phase_len ≤
        // budget`, that is iff `b < budget / phase_len`
        let fitting = ExecutorConfig::default().max_engine_rounds / phase_len;
        // Units are filed up to the first misshapen one: neither its node
        // vectors nor a later unit's are read, and only an earlier unit's
        // reach can outrank its fault.
        let mut misshapen = Ok(());
        let mut units_of: Vec<Vec<(usize, &Unit)>> = vec![Vec::new(); algos.len()];
        for (i, u) in plan.units.iter().enumerate() {
            misshapen = check_shape(i, u, n, algos.len());
            if misshapen.is_err() {
                break;
            }
            units_of[u.algo].push((i, u));
        }
        // the least index of a unit reaching past the budget
        let mut oversized = usize::MAX;
        // Runs are emitted as they close: algorithm by algorithm, and
        // within one in ascending `hi` — which, its runs in one big-round
        // being disjoint, is ascending `lo`. The stable sort by big-round
        // below therefore leaves each big-round in `(a, lo)` order.
        let mut emitted: Vec<(u64, StepRun)> = Vec::new();
        // per round: the big-round and first node of the run still open
        let mut open: Vec<(u64, u32)> = Vec::new();
        let (mut earliest, mut best, mut strides) = (Vec::new(), Vec::new(), Vec::new());
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
                [(i, u)] => {
                    let (mut delay, mut len, mut over) = (0u64, 0usize, false);
                    for v in 0..=n {
                        // one step past the last node closes what is open
                        let (d, l) = if v < n {
                            (u.delay[v], rounds.min(u.trunc[v]) as usize)
                        } else {
                            (0, 0)
                        };
                        over |= l > 0 && big_round_of(d, l - 1, u.stride) >= fitting;
                        let kept = if d == delay { l.min(len) } else { 0 };
                        for (r, &slot) in open.iter().enumerate().take(len).skip(kept) {
                            close(r, slot, v);
                        }
                        for (r, slot) in open.iter_mut().enumerate().take(l).skip(kept) {
                            *slot = (big_round_of(d, r, u.stride), v as u32);
                        }
                        (delay, len) = (d, l);
                    }
                    if over {
                        oversized = oversized.min(i);
                    }
                }
                // Several units: the earliest eligible big-round per
                // (node, round), then the same sweep comparing every round.
                // A unit steps round `r` at `v` in big-round `delay[v] + r ·
                // stride` iff `r` is below its prefix length `min(rounds,
                // trunc[v])`. So per stride only the least delay filed under
                // each (node, prefix length) matters, and `earliest[v][r]` is
                // `r · stride` plus the least delay of a prefix longer than
                // `r`: a suffix minimum, not a minimum per (unit, node, round).
                _ => {
                    let rounds = rounds as usize;
                    earliest.clear();
                    earliest.resize(n * rounds, u64::MAX);
                    strides.clear();
                    strides.extend(mine.iter().map(|(_, u)| u.stride));
                    strides.sort_unstable();
                    strides.dedup();
                    for &stride in &strides {
                        // `best[v · rounds + len − 1]`: the least delay of a
                        // unit of this stride covering `len` rounds at `v`
                        best.clear();
                        best.resize(n * rounds, u64::MAX);
                        for &(i, u) in mine.iter().filter(|(_, u)| u.stride == stride) {
                            let mut over = false;
                            for (v, (&d, &t)) in u.delay.iter().zip(&u.trunc).enumerate() {
                                let len = rounds.min(t as usize);
                                if len > 0 {
                                    over |= big_round_of(d, len - 1, stride) >= fitting;
                                    let slot = &mut best[v * rounds + len - 1];
                                    *slot = (*slot).min(d);
                                }
                            }
                            if over {
                                oversized = oversized.min(i);
                            }
                        }
                        for v in 0..n {
                            let bests = &best[v * rounds..][..rounds];
                            let row = &mut earliest[v * rounds..][..rounds];
                            let mut least = u64::MAX;
                            for (r, (&b, slot)) in bests.iter().zip(row).enumerate().rev() {
                                least = least.min(b);
                                if least != u64::MAX {
                                    *slot = (*slot).min(big_round_of(least, r, stride));
                                }
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
        // every filed unit precedes the misshapen one
        if oversized != usize::MAX {
            return Err(PlanError::Oversized { unit: oversized });
        }
        misshapen?;
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
        Ok(FlatSteps {
            runs,
            offsets,
            last_step_round,
            phase_len,
        })
    }

    /// Whether the plan schedules no step at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Engine rounds through the last step's big-round, `(last + 1) ·
    /// phase_len` — within the budget, as `build` checked. A step-free
    /// plan still runs big-round 0.
    fn steps_end(&self) -> u64 {
        (self.last_step_round + 1) * self.phase_len
    }

    /// [`SchedulePlan::predicted_rounds`]: the end of the last step's
    /// big-round, 0 for a step-free plan.
    pub(crate) fn predicted_rounds(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.steps_end()
        }
    }

    /// A run's schedule length: the end of the last step's big-round,
    /// extended by a drain tail whose last delivery left in engine round
    /// `last_activity_round`.
    pub(crate) fn schedule_rounds(&self, last_activity_round: u64) -> u64 {
        self.steps_end().max(last_activity_round)
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

/// Sorts each algorithm's departures, filed in drain order, into its
/// [`SimulationMap`]. Keys are unique — one canonical machine per
/// (algorithm, node), deduplicated sends — so the sorted list is the map
/// as it stands, with no tree insert per message.
pub(super) fn build_departures(filed: Vec<Vec<(TimedArc, u32)>>) -> Vec<SimulationMap> {
    filed
        .into_iter()
        .map(|mut list| {
            list.sort_unstable_by_key(|&(ta, _)| ta);
            SimulationMap::from_sorted(list)
        })
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

    /// Takes an inbox, copies it out and reclaims, as the loop does once
    /// a block has stepped.
    fn taken(arena: &mut ArrivalArena, machine: usize, tag: u32) -> Vec<(NodeId, Vec<u8>)> {
        arena.take(machine, tag, &mut Vec::new());
        let owned = arena
            .inbox()
            .iter()
            .map(|(from, p)| (from, p.to_vec()))
            .collect();
        arena.reclaim();
        owned
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
        assert!(
            arena.inbox.bytes_mut().len() < 4 * 64,
            "the dead stretches are gone"
        );
        assert_eq!(
            taken(&mut arena, 1, 9),
            vec![(NodeId(5), b"early".to_vec())]
        );
        assert!(
            arena.inbox.bytes_mut().is_empty(),
            "nothing live: the arena resets"
        );
    }

    #[test]
    fn departures_sort_like_a_map() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for len in [0usize, 1, 7, 300, 2000] {
            // distinct (round, arc) keys, filed in a random order
            let mut keys: Vec<(u32, usize)> = (0..len)
                .map(|i| (rng.gen_range(0..9u32), i * 3 + rng.gen_range(0..3usize)))
                .collect();
            keys.shuffle(&mut rng);
            let list: Vec<(TimedArc, u32)> = keys
                .iter()
                .map(|&(round, arc)| {
                    let arc = das_graph::Arc::from_index(arc);
                    (TimedArc { round, arc }, rng.gen())
                })
                .collect();
            let want: SimulationMap = list.iter().copied().collect();
            let got = build_departures(vec![list, Vec::new()]);
            assert_eq!(got, vec![want, SimulationMap::new()], "len {len}");
        }
    }

    proptest::proptest! {
        /// The row oracle's per-machine `TagWindow` is the specification:
        /// under any interleaving of arrivals (early tags included) and
        /// in-order takes (often of empty tags) over several machines, the
        /// arena hands out the same inboxes, sender-sorted — and a block of
        /// several takes reads every span intact until the block's one
        /// reclaim.
        #[test]
        fn arena_matches_one_tag_window_per_machine(seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut arena = ArrivalArena::new(3);
            let mut model: Vec<TagWindow> = (0..3).map(|_| TagWindow::default()).collect();
            let mut next = [0u32; 3];
            // senders are unique per (machine, tag), as in an honest run
            let mut sent = std::collections::HashSet::new();
            // the inboxes the open block's spans must read as
            let mut wanted = Vec::new();
            let mut scratch = Vec::new();
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
                        // arrivals come in drain phases, after the block
                        wanted.clear();
                        arena.reclaim();
                        arena.push(machine, tag, from, &payload);
                        model[machine].push(tag, NodeId(from), payload);
                    }
                } else {
                    let tag = next[machine];
                    next[machine] += 1;
                    let mut want = Vec::new();
                    model[machine].take(tag, &mut want);
                    want.sort();
                    wanted.extend(want);
                    arena.take(machine, tag, &mut scratch);
                    let got: Vec<_> = arena.inbox().iter().map(|(f, p)| (f, p.to_vec())).collect();
                    proptest::prop_assert_eq!(&got, &wanted);
                    if rng.gen_bool(0.5) {
                        wanted.clear();
                        arena.reclaim();
                    }
                }
                let live: usize = arena.records.iter().map(|r| r.len as usize).sum();
                proptest::prop_assert_eq!(arena.live_bytes, live);
                proptest::prop_assert!(arena.inbox.bytes_mut().len() >= live);
            }
        }
    }
}
