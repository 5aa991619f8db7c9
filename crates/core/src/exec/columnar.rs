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
//! * **Bitset tag windows** ([`ColWindow`]): per-(algorithm, node) arrival
//!   buffers keep the row oracle's live-tag ring discipline but store
//!   arrivals columnar (from/len metadata plus a byte arena) and track
//!   bucket occupancy in u64 bitset words, so the common "nothing buffered
//!   for this tag" check is a single word test that never touches bucket
//!   memory.
//! * **Deferred departure recording** ([`build_departures`]): the row
//!   oracle pays a `BTreeMap` insert per delivered message inside the hot
//!   loop; the production loop appends flat `(algo, round, arc,
//!   engine_round)` tuples and bulk-inserts them after the run. Keys are
//!   unique (one canonical machine per (algorithm, node), deduplicated
//!   sends), so insertion order cannot matter.
//! * **Flat step table** ([`FlatSteps`]) and **machine slabs**
//!   ([`build_batches`]): steps grouped by big-round through a counting
//!   sort, machines built as one [`NodeBatch`] per algorithm so a whole
//!   same-algorithm run dispatches as one virtual call.
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

/// One tag bucket of a [`ColWindow`]: arrivals stored columnar.
#[derive(Default)]
struct ColBucket {
    /// `(sender node, payload length)` per arrival, in arrival order.
    meta: Vec<(u32, u32)>,
    /// Concatenated payload bytes, in arrival order.
    bytes: Vec<u8>,
}

/// Columnar arrival window for one (algorithm, node) machine: the same
/// live-tag ring discipline as the row engine's `TagWindow` (tags are
/// consumed strictly in order; the window starts at the consumer's next
/// tag), with bucket occupancy mirrored into u64 bitset words.
#[derive(Default)]
pub(super) struct ColWindow {
    /// Smallest tag the window can currently hold.
    base: u32,
    /// Ring position of `base`'s bucket.
    head: usize,
    /// One occupancy bit per ring slot; a zero word clears 64 tags at once.
    occupied: Vec<u64>,
    /// Power-of-two ring of buckets (empty until the first push).
    buckets: Vec<ColBucket>,
}

impl ColWindow {
    /// Re-bases an **empty** window at `base`. The columnar engine skips a
    /// window entirely (neither `take` nor bucket access) while its
    /// buffered-arrival count is zero, which lets `base` go stale; the
    /// first push after such a skip re-enters the ring discipline here,
    /// using the consumer's next tag as the new base. The late-drop check
    /// guarantees every accepted arrival's tag is `>=` that next tag.
    #[inline]
    pub(super) fn reset_to(&mut self, base: u32) {
        debug_assert!(self.occupied.iter().all(|w| *w == 0), "window not empty");
        self.base = base;
        self.head = 0;
    }

    /// Files one arrival under `tag`. Requires `tag >= base`, which the
    /// executor's late-drop check guarantees.
    pub(super) fn push(&mut self, tag: u32, from: u32, payload: &[u8]) {
        debug_assert!(tag >= self.base, "arrival below the live window");
        let offset = (tag - self.base) as usize;
        if offset >= self.buckets.len() {
            self.grow(offset + 1);
        }
        let pos = (self.head + offset) & (self.buckets.len() - 1);
        self.occupied[pos >> 6] |= 1u64 << (pos & 63);
        let bucket = &mut self.buckets[pos];
        bucket.meta.push((from, payload.len() as u32));
        bucket.bytes.extend_from_slice(payload);
    }

    /// Moves the bucket for `tag` into `into` in canonical (sender-sorted)
    /// order and advances the window past `tag`. Payload allocations are
    /// drawn from and returned to `pool`; `scratch` is reusable sort
    /// space. The occupancy word is consulted first, so an empty tag never
    /// touches bucket memory.
    ///
    /// Sorting happens here on `(sender, offset, len)` integer triples —
    /// senders are unique per tag (a machine sends at most one message per
    /// round to a given target), so this is exactly the canonical
    /// `(NodeId, payload)` order without ever comparing payload bytes.
    pub(super) fn take(
        &mut self,
        tag: u32,
        into: &mut Vec<(NodeId, Vec<u8>)>,
        pool: &mut Vec<Vec<u8>>,
        scratch: &mut Vec<(u32, u32, u32)>,
    ) {
        if !into.is_empty() {
            recycle(into, pool);
        }
        debug_assert!(tag >= self.base, "tags are consumed in order");
        if self.buckets.is_empty() {
            self.base = tag + 1;
            return;
        }
        let len = self.buckets.len();
        let offset = (tag - self.base) as usize;
        if offset >= len {
            // the window never stretched to this tag: nothing is stored
            debug_assert!(self.occupied.iter().all(|w| *w == 0));
            self.base = tag + 1;
            self.head = 0;
            return;
        }
        let mask = len - 1;
        for i in 0..offset {
            debug_assert!(
                self.buckets[(self.head + i) & mask].meta.is_empty(),
                "skipped a live tag"
            );
        }
        let pos = (self.head + offset) & mask;
        if self.occupied[pos >> 6] & (1u64 << (pos & 63)) != 0 {
            self.occupied[pos >> 6] &= !(1u64 << (pos & 63));
            let bucket = &mut self.buckets[pos];
            scratch.clear();
            let mut off = 0u32;
            for &(from, plen) in &bucket.meta {
                scratch.push((from, off, plen));
                off += plen;
            }
            scratch.sort_unstable();
            for &(from, off, plen) in scratch.iter() {
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(&bucket.bytes[off as usize..(off + plen) as usize]);
                into.push((NodeId(from), buf));
            }
            bucket.meta.clear();
            bucket.bytes.clear();
        }
        self.head = (self.head + offset + 1) & mask;
        self.base = tag + 1;
    }

    fn grow(&mut self, min_len: usize) {
        let new_len = min_len.next_power_of_two().max(4);
        let mut new_buckets: Vec<ColBucket> = Vec::with_capacity(new_len);
        new_buckets.resize_with(new_len, ColBucket::default);
        let old_len = self.buckets.len();
        for (i, slot) in new_buckets.iter_mut().enumerate().take(old_len) {
            *slot = std::mem::take(&mut self.buckets[(self.head + i) & (old_len - 1)]);
        }
        self.buckets = new_buckets;
        self.head = 0;
        self.occupied = vec![0u64; new_len.div_ceil(64)];
        for (i, b) in self.buckets.iter().enumerate() {
            if !b.meta.is_empty() {
                self.occupied[i >> 6] |= 1u64 << (i & 63);
            }
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

/// Checks a unit list against the problem's shape and, when no algorithm
/// has two units — the dominant case: every shared-randomness scheduler
/// emits at most one — returns each algorithm's unit index
/// (`usize::MAX` = none).
///
/// # Panics
/// Panics if units reference out-of-range algorithms, are missized, or
/// have a zero stride: the row oracle's [`super::StepPlan::build`] checks.
fn validate_units(
    n: usize,
    algos: &[Box<dyn BlackBoxAlgorithm>],
    units: &[Unit],
) -> Option<Vec<usize>> {
    let mut unit_of = vec![usize::MAX; algos.len()];
    let mut single = true;
    for (i, u) in units.iter().enumerate() {
        assert!(u.algo < algos.len(), "unit for unknown algorithm");
        assert_eq!(u.delay.len(), n, "delay vector missized");
        assert_eq!(u.trunc.len(), n, "truncation vector missized");
        assert!(u.stride >= 1, "stride must be at least 1");
        if unit_of[u.algo] != usize::MAX {
            single = false;
        }
        unit_of[u.algo] = i;
    }
    single.then_some(unit_of)
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
    /// Steps in the merged schedule.
    total: usize,
}

impl StepExtent {
    /// # Panics
    /// Panics on a malformed unit list, exactly as [`FlatSteps::build`]
    /// and the row oracle's [`super::StepPlan::build`] do.
    pub(crate) fn of(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        if validate_units(n, algos, units).is_some() {
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
        let mut extent = StepExtent {
            last: None,
            total: 0,
        };
        for (&len, &e) in len_at.iter().zip(&end_at) {
            if len > 0 {
                extent.last = extent.last.max(Some(e));
                extent.total += len as usize;
            }
        }
        extent
    }

    /// The at-most-one-unit-per-algorithm case: no merging, no scratch.
    fn of_single_units(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        let mut extent = StepExtent {
            last: None,
            total: 0,
        };
        for u in units {
            let rounds = algos[u.algo].rounds();
            for v in 0..n {
                let len = rounds.min(u.trunc[v]) as u64;
                if len > 0 {
                    extent.last = extent.last.max(Some(u.delay[v] + (len - 1) * u.stride));
                    extent.total += len as usize;
                }
            }
        }
        extent
    }
}

/// The flat step table: `(algo, node, round)` triples grouped by big-round
/// through a counting sort over two flat arrays — the columnar replacement
/// for [`super::StepPlan::build`] plus the per-engine `by_big_round`
/// regroup, whose nested `Vec<Vec<Vec<..>>>` structure costs more
/// allocations than the entire drain loop on step-dense plans.
///
/// Semantics are identical to the row builder: round `r` of algorithm `a`
/// at node `v` executes at the earliest big-round over all eligible units,
/// the same malformed-plan panics fire, and triples within a big-round
/// appear in the same ascending `(a, v, r)` order (the counting sort is
/// stable). The merged schedule at `(a, v)` is hole-free and strictly
/// increasing by construction (see [`StepExtent`]), so its length is
/// simply the longest unit prefix.
pub(crate) struct FlatSteps {
    /// All step triples, grouped by big-round.
    steps: Vec<(u32, u32, u32)>,
    /// `steps[offsets[b]..offsets[b + 1]]` holds big-round `b`'s triples.
    offsets: Vec<usize>,
    /// The last big-round with any step (0 for an empty plan).
    pub(crate) last_step_round: u64,
}

impl FlatSteps {
    pub(crate) fn build(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        if let Some(unit_of) = validate_units(n, algos, units) {
            // Fast path: `earliest` is just `delay[v] + r * stride` — no
            // per-(a, v, r) scratch array needed.
            let extent = StepExtent::of_single_units(n, algos, units);
            return Self::build_single_unit(n, algos, units, &unit_of, &extent);
        }
        let k = algos.len();
        // earliest[algo_off[a] + v * rounds_a + r] = earliest big-round;
        // prefix_len[a * n + v] = the longest unit prefix there
        let mut algo_off = vec![0usize; k + 1];
        for a in 0..k {
            algo_off[a + 1] = algo_off[a] + n * algos[a].rounds() as usize;
        }
        let mut earliest = vec![u64::MAX; algo_off[k]];
        let mut prefix_len = vec![0u32; k * n];
        for u in units {
            let rounds = algos[u.algo].rounds() as usize;
            let base = algo_off[u.algo];
            for v in 0..n {
                let lim = (rounds as u32).min(u.trunc[v]);
                let len = &mut prefix_len[u.algo * n + v];
                *len = (*len).max(lim);
                let row = &mut earliest[base + v * rounds..][..rounds];
                for (r, slot) in row.iter_mut().take(lim as usize).enumerate() {
                    let b = u.delay[v] + r as u64 * u.stride;
                    if b < *slot {
                        *slot = b;
                    }
                }
            }
        }
        let mut last_step_round = 0u64;
        let mut total = 0usize;
        for a in 0..k {
            let rounds = algos[a].rounds() as usize;
            for v in 0..n {
                let len = prefix_len[a * n + v] as usize;
                if len > 0 {
                    let end = earliest[algo_off[a] + v * rounds + len - 1];
                    last_step_round = last_step_round.max(end);
                    total += len;
                }
            }
        }
        // Counting sort by big-round, stable in (a, v, r) order.
        let mut offsets = vec![0usize; last_step_round as usize + 2];
        for a in 0..k {
            let rounds = algos[a].rounds() as usize;
            let base = algo_off[a];
            for v in 0..n {
                for r in 0..prefix_len[a * n + v] as usize {
                    offsets[earliest[base + v * rounds + r] as usize + 1] += 1;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut steps = vec![(0u32, 0u32, 0u32); total];
        for a in 0..k {
            let rounds = algos[a].rounds() as usize;
            let base = algo_off[a];
            for v in 0..n {
                for r in 0..prefix_len[a * n + v] as usize {
                    let b = earliest[base + v * rounds + r] as usize;
                    steps[cursor[b]] = (a as u32, v as u32, r as u32);
                    cursor[b] += 1;
                }
            }
        }
        FlatSteps {
            steps,
            offsets,
            last_step_round,
        }
    }

    /// The one-unit-per-algorithm case of [`FlatSteps::build`]: identical
    /// output (same triples, same stable order, same extent), computed
    /// straight from each unit's `(delay, stride, trunc)` arithmetic.
    fn build_single_unit(
        n: usize,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        units: &[Unit],
        unit_of: &[usize],
        extent: &StepExtent,
    ) -> Self {
        let k = algos.len();
        let last_step_round = extent.last.unwrap_or(0);
        let total = extent.total;
        let mut offsets = vec![0usize; last_step_round as usize + 2];
        if units.iter().all(|u| u.stride == 1) {
            // Stride-1 counting via a difference array: each (a, v)
            // contributes one step to every big-round in the contiguous
            // range [delay[v], delay[v] + len), so per-round counts are the
            // running sum of O(k·n) range endpoints instead of `total`
            // individual increments.
            let mut diff = vec![0i64; last_step_round as usize + 2];
            for a in 0..k {
                if unit_of[a] == usize::MAX {
                    continue;
                }
                let u = &units[unit_of[a]];
                let rounds = algos[a].rounds();
                for v in 0..n {
                    let len = rounds.min(u.trunc[v]) as u64;
                    if len > 0 {
                        diff[u.delay[v] as usize] += 1;
                        diff[(u.delay[v] + len) as usize] -= 1;
                    }
                }
            }
            let mut run = 0i64;
            for b in 0..=last_step_round as usize {
                run += diff[b];
                offsets[b + 1] = offsets[b] + run as usize;
            }
        } else {
            for a in 0..k {
                if unit_of[a] == usize::MAX {
                    continue;
                }
                let u = &units[unit_of[a]];
                let rounds = algos[a].rounds();
                for v in 0..n {
                    let len = rounds.min(u.trunc[v]) as u64;
                    for r in 0..len {
                        offsets[(u.delay[v] + r * u.stride) as usize + 1] += 1;
                    }
                }
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
        }
        let mut cursor = offsets.clone();
        let mut steps = vec![(0u32, 0u32, 0u32); total];
        for a in 0..k {
            if unit_of[a] == usize::MAX {
                continue;
            }
            let u = &units[unit_of[a]];
            let rounds = algos[a].rounds();
            for v in 0..n {
                let len = rounds.min(u.trunc[v]) as u64;
                for r in 0..len {
                    let b = (u.delay[v] + r * u.stride) as usize;
                    steps[cursor[b]] = (a as u32, v as u32, r as u32);
                    cursor[b] += 1;
                }
            }
        }
        FlatSteps {
            steps,
            offsets,
            last_step_round,
        }
    }

    /// Whether the plan schedules no step at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Big-round `b`'s step triples (empty past the last step round).
    #[inline]
    pub(crate) fn at(&self, b: u64) -> &[(u32, u32, u32)] {
        let b = b as usize;
        if b + 1 >= self.offsets.len() {
            &[]
        } else {
            &self.steps[self.offsets[b]..self.offsets[b + 1]]
        }
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
