//! The row oracle: the executable specification of [`crate::execute`].
//!
//! [`execute_row`] runs a plan one message per active arc per engine round,
//! with heap-allocated payloads copied into an owned inbox per step, a
//! nested per-(algorithm, node) step table and departures collected into
//! maps by a plain sort — the semantics of the `exec` module docs, written
//! for clarity rather than speed. Every equivalence suite
//! compares the production loop against it byte for byte. It is fused by
//! signature (there is no sharded or networked oracle) and records no
//! observability.

use crate::algorithm::{AlgoNode, BatchedSends, BlackBoxAlgorithm, InboxBuf, Sends};
use crate::exec::{ExecStats, ExecutorConfig, Unit};
use crate::plan::{SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use das_congest::MESSAGE_BYTES;
use das_graph::{Graph, NodeId};
use das_pattern::{SimulationMap, TimedArc};

/// Executes `plan` on the row oracle: the byte-identical
/// [`ScheduleOutcome`] of [`crate::execute`] on every topology. The plan
/// is validated first (plans are untrusted input), its own `phase_len`
/// sets the big-round, and its pre-computation charge is stamped on the
/// outcome. `config.live` is ignored: the oracle records nothing.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the plan fails
/// [`SchedulePlan::validate`]; [`SchedError::Exec`] with
/// [`crate::ExecError::RoundCapExceeded`] if the queues have not drained
/// by `config.max_engine_rounds`.
pub fn execute_row(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    plan.validate(problem)?;
    let mut outcome = run(problem, plan, config)?;
    outcome.precompute_rounds = plan.precompute_rounds;
    Ok(outcome)
}

/// The row loop over a validated plan.
fn run(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, crate::ExecError> {
    let (g, algos, phase_len) = (problem.graph(), problem.algorithms(), plan.phase_len);
    let n = g.node_count();
    let k = algos.len();
    let seeds = problem.algo_seeds();
    let steps = StepPlan::build(g, algos, &plan.units);

    // Canonical machines and their progress.
    let mut machines: Vec<Vec<Box<dyn AlgoNode>>> = (0..k)
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
    let (mut inbox_buf, mut sends) = (InboxBuf::new(), BatchedSends::new());

    // Steps grouped by big-round: big-rounds are dense, so a flat Vec
    // indexed by `b` replaces a BTreeMap.
    let last_step_round = steps.last_big_round().unwrap_or(0);
    let mut by_big_round: Vec<Vec<(u32, u32, u32)>> =
        vec![Vec::new(); last_step_round as usize + 1];
    for a in 0..k {
        for v in 0..n {
            for (r, &b) in steps.plan[a][v].iter().enumerate() {
                by_big_round[b as usize].push((a as u32, v as u32, r as u32));
            }
        }
    }

    let mut queues: Vec<ArcFifo> = Vec::with_capacity(g.arc_count());
    queues.resize_with(g.arc_count(), ArcFifo::default);
    let mut active_arcs: Vec<usize> = Vec::new();
    let mut stats = ExecStats {
        phase_len,
        ..ExecStats::default()
    };
    let mut departed: Vec<Vec<(TimedArc, u32)>> = vec![Vec::new(); k];
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
                inbox_buf.clear();
                for (from, payload) in &inbox {
                    inbox_buf.push(*from, payload);
                }
                sends.clear();
                machines[a][v].step(inbox_buf.inbox(), &mut Sends::new(&mut sends));
                sends.end_segment();
                steps_done[a][v] = r + 1;
                let me = NodeId(v as u32);
                let mut sent_to: Vec<NodeId> = Vec::new();
                for (to, payload) in sends.segment(0) {
                    let valid = g.find_edge(me, to).is_some()
                        && payload.len() <= MESSAGE_BYTES
                        && !sent_to.contains(&to);
                    if !valid {
                        stats.invalid_sends += 1;
                        continue;
                    }
                    sent_to.push(to);
                    let edge = g.find_edge(me, to).expect("validated");
                    let arc = g.arc_from(edge, me);
                    let q = &mut queues[arc.index()];
                    if q.is_empty() {
                        active_arcs.push(arc.index());
                    }
                    q.push_back(Flight {
                        dst: to,
                        algo: a as u32,
                        round: r,
                        from: me,
                        payload: payload.to_vec(),
                    });
                    stats.max_arc_queue = stats.max_arc_queue.max(q.len());
                }
            }
        }

        // 2. Drain queues for phase_len engine rounds.
        for _ in 0..phase_len {
            let arcs = std::mem::take(&mut active_arcs);
            for arc_idx in arcs {
                let Some(f) = queues[arc_idx].pop_front() else {
                    continue;
                };
                if !queues[arc_idx].is_empty() {
                    active_arcs.push(arc_idx);
                }
                let (a, v) = (f.algo as usize, f.dst.index());
                let arc = das_graph::Arc::from_index(arc_idx);
                let ta = TimedArc {
                    round: f.round,
                    arc,
                };
                departed[a].push((ta, engine_round as u32));
                if steps_done[a][v] >= f.round + 2 {
                    stats.late_messages += 1;
                } else {
                    buffers[a * n + v].push(f.round, f.from, f.payload);
                    stats.delivered += 1;
                }
                last_activity_round = engine_round + 1;
            }
            engine_round += 1;
            if engine_round > config.max_engine_rounds {
                return Err(crate::ExecError::RoundCapExceeded {
                    cap: config.max_engine_rounds,
                    big_round: b,
                });
            }
        }

        b += 1;
        if b > last_step_round && active_arcs.is_empty() {
            break;
        }
    }

    stats.big_rounds = b;
    // Schedule length: last big-round boundary with any step, extended
    // by any drain tail.
    stats.engine_rounds = (last_step_round + 1)
        .saturating_mul(phase_len)
        .max(last_activity_round);

    let outputs = machines
        .iter()
        .map(|per_node| per_node.iter().map(|m| m.output()).collect())
        .collect();
    Ok(ScheduleOutcome {
        outputs,
        stats,
        departures: Some(departed.into_iter().map(SimulationMap::from_iter).collect()),
        precompute_rounds: 0,
    })
}

/// The per-(algorithm, node) step plan: `plan[a][v]` lists the big-round of
/// each algorithm round `0, 1, 2, …` (a prefix of the rounds; truncation
/// can cut it short). Production code reads a plan's units only through
/// the flat `FlatSteps` table — steps, checks and schedule length; this
/// nested table, its asserts and its length arithmetic stay the reference.
struct StepPlan {
    plan: Vec<Vec<Vec<u64>>>,
}

impl StepPlan {
    /// Builds the plan: round `r` of algorithm `a` at node `v` executes at
    /// the earliest big-round over all eligible units.
    ///
    /// # Panics
    /// Panics if units reference out-of-range algorithms or are missized.
    #[allow(clippy::needless_range_loop)]
    fn build(g: &Graph, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
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

    /// The last big-round with any step, or `None` for an empty plan.
    fn last_big_round(&self) -> Option<u64> {
        self.plan
            .iter()
            .flatten()
            .filter_map(|s| s.last().copied())
            .max()
    }
}

/// A message in flight.
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
pub(crate) struct TagWindow {
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
    pub(crate) fn push(&mut self, tag: u32, from: NodeId, payload: Vec<u8>) {
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
    pub(crate) fn take(&mut self, tag: u32, into: &mut Vec<(NodeId, Vec<u8>)>) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FlatSteps;
    use crate::plan::{execute, ExecOptions, PlanError};
    use crate::synthetic::{FloodBall, Prescribed, RelayChain};
    use das_graph::generators;

    /// `units` as a hand-built plan with big-rounds of `phase_len`.
    fn plan(p: &DasProblem<'_>, units: Vec<Unit>, phase_len: u64) -> SchedulePlan {
        SchedulePlan::assemble("hand-built", 0, phase_len, 0, p, units)
    }

    #[test]
    fn row_oracle_and_production_loop_agree_byte_for_byte() {
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
                Box::new(RelayChain::along(0, &g, route.clone())) as Box<dyn BlackBoxAlgorithm>,
                Box::new(RelayChain::along(1, &g, route)),
                Box::new(FloodBall::new(2, &g, NodeId(5), 3)),
            ],
            11,
        );
        let units = vec![
            Unit::global(0, 0, 16),
            Unit::global(1, 0, 16),
            Unit::global(2, 1, 16),
        ];
        for phase_len in [1, 2, 5] {
            let plan = plan(&p, units.clone(), phase_len);
            let row = execute_row(&p, &plan, &ExecutorConfig::default()).unwrap();
            let batched = execute(&p, &plan, ExecOptions::default()).unwrap().outcome;
            assert_eq!(
                format!("{row:?}"),
                format!("{batched:?}"),
                "phase_len = {phase_len}"
            );
        }
    }

    #[test]
    fn row_oracle_and_production_loop_agree_on_the_round_cap_error() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let plan = plan(&p, vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)], 1);
        let config = ExecutorConfig {
            max_engine_rounds: 3,
            ..ExecutorConfig::default()
        };
        let row = execute_row(&p, &plan, &config).unwrap_err();
        let opts = ExecOptions::default().with_config(config);
        assert_eq!(row, execute(&p, &plan, opts).unwrap_err());
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
        let steps = StepPlan::build(&g, p.algorithms(), &units);
        assert_eq!(steps.plan[0][0], [0, 3, 6]);
        let outcome = execute_row(&p, &plan(&p, units, 1), &ExecutorConfig::default()).unwrap();
        assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
    }

    #[test]
    fn step_plan_reports_earliest_of_overlapping_units() {
        let g = generators::path(3);
        let one_hop = Prescribed::new(0, &g, &[(0, NodeId(0), NodeId(1))]);
        let p = DasProblem::new(&g, vec![Box::new(one_hop)], 1);
        let units = vec![
            Unit::global(0, 7, 3),
            Unit {
                algo: 0,
                delay: vec![2, 9, 9],
                stride: 1,
                trunc: vec![u32::MAX; 3],
            },
        ];
        let steps = StepPlan::build(&g, p.algorithms(), &units);
        // node 0: min(7, 2) = 2; node 1: min(7, 9) = 7
        assert_eq!(steps.plan[0][0][0], 2);
        assert_eq!(steps.plan[0][1][0], 7);
        assert_eq!(steps.last_big_round(), Some(7 + 1)); // round 1 at node 1: 8
    }

    /// `k` floods of random depth on `g` and a random unit list over them.
    /// Three draws in four have the private scheduler's shape: per
    /// algorithm, several units (one per clustering layer) sharing one
    /// stride, with per-node truncations in `0..=rounds`. The rest mix
    /// strides freely: empty plans, several units per algorithm, `trunc =
    /// 0` and `u32::MAX`, strides > 1.
    fn random_multi_unit_plan(g: &Graph, seed: u64) -> (DasProblem<'_>, Vec<Unit>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.node_count();
        let k = rng.gen_range(1..4usize);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..k)
            .map(|i| {
                let depth = rng.gen_range(1..5u32);
                Box::new(FloodBall::new(i as u64, g, NodeId(0), depth))
                    as Box<dyn BlackBoxAlgorithm>
            })
            .collect();
        let units = if rng.gen_range(0..4u32) > 0 {
            let mut units = Vec::new();
            for (algo, a) in algos.iter().enumerate() {
                let stride = rng.gen_range(1..4u64);
                for _ in 0..rng.gen_range(2..6usize) {
                    units.push(Unit {
                        algo,
                        delay: (0..n).map(|_| rng.gen_range(0..12u64)).collect(),
                        stride,
                        trunc: (0..n).map(|_| rng.gen_range(0..a.rounds() + 1)).collect(),
                    });
                }
            }
            units
        } else {
            (0..rng.gen_range(0..7usize))
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
                .collect()
        };
        (DasProblem::new(g, algos, seed), units)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn extent_and_flat_table_match_the_row_step_plan(seed: u64, n in 1usize..9) {
            use rand::{Rng, SeedableRng};
            let g = generators::path(n);
            let (p, units) = random_multi_unit_plan(&g, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
            let phase_len = rng.gen_range(1..4u64);
            let row = StepPlan::build(&g, p.algorithms(), &units);
            let mut plan = SchedulePlan {
                scheduler: "random".to_string(),
                sched_seed: seed,
                phase_len,
                precompute_rounds: 0,
                predicted_rounds: 0,
                units,
            };
            let flat = FlatSteps::build(&p, &plan).unwrap();
            let last = row.last_big_round();
            proptest::prop_assert_eq!((!flat.is_empty()).then_some(flat.last_step_round), last);
            // the row plan's own arithmetic is the reference
            let predicted = last.map_or(0, |b| (b + 1) * phase_len);
            proptest::prop_assert_eq!(flat.predicted_rounds(), predicted);
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
            // One node's delay raised to at least 2^40 in a random subset of
            // the units: the first of them that steps at that node is
            // oversized, whichever algorithm it runs and whatever units
            // supersede its steps.
            let v = rng.gen_range(0..n);
            let mut want = Ok(());
            for (i, u) in plan.units.iter_mut().enumerate() {
                if rng.gen_bool(0.5) {
                    let huge = [1 << 40, rng.gen_range(1 << 40..u64::MAX), u64::MAX];
                    u.delay[v] = huge[rng.gen_range(0..3usize)];
                    let steps = p.algorithms()[u.algo].rounds().min(u.trunc[v]) > 0;
                    if steps && want.is_ok() {
                        want = Err(PlanError::Oversized { unit: i });
                    }
                }
            }
            proptest::prop_assert_eq!(FlatSteps::build(&p, &plan).map(drop), want);
        }
    }
}
