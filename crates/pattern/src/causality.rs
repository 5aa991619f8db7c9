//! Causal precedence and simulation verification (Section 2).
//!
//! In a pattern, communication `e1 = (v_i, u_{i+1})` *causally precedes*
//! `e2 = (x_j, y_{j+1})` if there is a chain of pattern communications
//! starting at `e1` and ending at `e2` where each link departs from the node
//! the previous link arrived at, no earlier than the arrival. A *simulation*
//! of an algorithm in a longer time span `T' ≥ T` re-times every
//! communication while preserving this relation; [`verify_simulation`]
//! checks that property for the schedules our schedulers emit.

use crate::comm_pattern::{CommPattern, TimedArc};
use das_graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Index;

/// A mapping from original communications to their scheduled departure
/// rounds (over the same network edge, which is how all schedulers in this
/// project re-time messages).
///
/// An ordered map stored flat: one vector of `(communication, departure)`
/// pairs sorted by communication, keys distinct. Iteration and `Debug`
/// output are those of a `BTreeMap` holding the same entries — important
/// because these maps end up inside `ScheduleOutcome`, whose byte-for-byte
/// reproducibility across thread counts is a test invariant. An executor
/// that knows its departures sorts them once and hands them over with
/// [`SimulationMap::from_sorted`]; lookups are binary searches.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SimulationMap {
    entries: Vec<(TimedArc, u32)>,
}

impl SimulationMap {
    /// An empty map.
    pub fn new() -> Self {
        SimulationMap::default()
    }

    /// Wraps entries already sorted by strictly increasing key — no
    /// search, no copy.
    ///
    /// # Panics
    /// Panics (in debug builds) if the keys are not strictly increasing.
    pub fn from_sorted(entries: Vec<(TimedArc, u32)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "keys must be strictly increasing"
        );
        SimulationMap { entries }
    }

    /// Merges two maps with disjoint keys in one linear pass; on a shared
    /// key `other`'s departure wins, as in `BTreeMap::append`.
    pub fn merge(self, other: SimulationMap) -> SimulationMap {
        if self.entries.is_empty() {
            return other;
        }
        if other.entries.is_empty() {
            return self;
        }
        let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut a, mut b) = (
            self.entries.into_iter().peekable(),
            other.entries.into_iter().peekable(),
        );
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.0.cmp(&y.0) {
                Ordering::Less => entries.extend(a.next()),
                Ordering::Greater => entries.extend(b.next()),
                Ordering::Equal => {
                    a.next();
                    entries.extend(b.next());
                }
            }
        }
        entries.extend(a);
        entries.extend(b);
        SimulationMap { entries }
    }

    /// Number of mapped communications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, key: &TimedArc) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The departure of `key`, if mapped.
    pub fn get(&self, key: &TimedArc) -> Option<&u32> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Whether `key` is mapped.
    pub fn contains_key(&self, key: &TimedArc) -> bool {
        self.find(key).is_ok()
    }

    /// Maps `key` to `departure`, returning the departure it replaces.
    pub fn insert(&mut self, key: TimedArc, departure: u32) -> Option<u32> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, departure)),
            Err(i) => {
                self.entries.insert(i, (key, departure));
                None
            }
        }
    }

    /// Unmaps `key`, returning its departure.
    pub fn remove(&mut self, key: &TimedArc) -> Option<u32> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&TimedArc, &u32)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The mapped communications in ascending order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &TimedArc> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl fmt::Debug for SimulationMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a SimulationMap {
    type Item = (&'a TimedArc, &'a u32);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (TimedArc, u32)>,
        fn(&'a (TimedArc, u32)) -> (&'a TimedArc, &'a u32),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl Index<&TimedArc> for SimulationMap {
    type Output = u32;

    fn index(&self, key: &TimedArc) -> &u32 {
        self.get(key)
            .expect("communication not in the simulation map")
    }
}

/// Builds a map from arbitrary entries; as for a `BTreeMap`, the last of
/// several entries with one key wins.
impl FromIterator<(TimedArc, u32)> for SimulationMap {
    fn from_iter<I: IntoIterator<Item = (TimedArc, u32)>>(iter: I) -> Self {
        let mut entries: Vec<(TimedArc, u32)> = iter.into_iter().collect();
        // stable: equal keys keep their input order, so the last one can
        // be kept
        entries.sort_by_key(|e| e.0);
        let mut kept: Vec<(TimedArc, u32)> = Vec::with_capacity(entries.len());
        for e in entries {
            match kept.last_mut() {
                Some(last) if last.0 == e.0 => *last = e,
                _ => kept.push(e),
            }
        }
        SimulationMap { entries: kept }
    }
}

impl<const N: usize> From<[(TimedArc, u32); N]> for SimulationMap {
    fn from(entries: [(TimedArc, u32); N]) -> Self {
        entries.into_iter().collect()
    }
}

/// Why a candidate simulation map is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulationError {
    /// An original communication has no scheduled time.
    Unmapped {
        /// The communication that was never scheduled.
        arc: TimedArc,
    },
    /// A causal pair is scheduled out of order: the predecessor arrives
    /// after the successor departs.
    OrderViolation {
        /// The causally-earlier communication.
        earlier: TimedArc,
        /// The causally-later communication.
        later: TimedArc,
        /// Scheduled departure of `earlier`.
        earlier_sched: u32,
        /// Scheduled departure of `later`.
        later_sched: u32,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Unmapped { arc } => {
                write!(f, "communication {arc:?} has no scheduled time")
            }
            SimulationError::OrderViolation {
                earlier,
                later,
                earlier_sched,
                later_sched,
            } => write!(
                f,
                "causal order violated: {earlier:?} scheduled at {earlier_sched} must arrive \
                 before {later:?} scheduled at {later_sched}"
            ),
        }
    }
}

impl Error for SimulationError {}

/// Whether `e1` causally precedes `e2` in `pattern` (reflexively false:
/// an edge does not precede itself unless through a real chain).
///
/// Runs a forward search over the pattern; intended for tests and small
/// instances — use [`verify_simulation`] to check whole schedules.
pub fn causally_precedes(g: &Graph, pattern: &CommPattern, e1: TimedArc, e2: TimedArc) -> bool {
    // Breadth-first over "reachable (node, earliest-departure-time) states".
    // State: we have arrived at node w at time t (may depart at rounds >= t).
    let (_, u1) = g.arc_endpoints(e1.arc);
    let start = (u1, e1.round + 1);
    let mut frontier = vec![start];
    let mut best: HashMap<NodeId, u32> = HashMap::new();
    best.insert(start.0, start.1);
    while let Some((w, t)) = frontier.pop() {
        for ta in pattern.timed_arcs() {
            let (src, dst) = g.arc_endpoints(ta.arc);
            if src != w || ta.round < t {
                continue;
            }
            if *ta == e2 {
                return true;
            }
            let arr = ta.round + 1;
            if best.get(&dst).is_none_or(|&b| arr < b) {
                best.insert(dst, arr);
                frontier.push((dst, arr));
            }
        }
    }
    false
}

/// Verifies that `map` is a valid simulation of `pattern`: every
/// communication is scheduled, and for every causal pair the predecessor's
/// scheduled arrival is no later than the successor's scheduled departure.
///
/// Only the *covering* pairs (`e1` arrives at the node `e2` departs from, no
/// later than `e2`'s departure) need checking — order on them implies order
/// on the full transitive closure, because schedules keep messages on their
/// original edges. Runs in `O(M log M)` for `M` messages.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_simulation(
    g: &Graph,
    pattern: &CommPattern,
    map: &SimulationMap,
) -> Result<(), SimulationError> {
    // Check everything is mapped first.
    for ta in pattern.timed_arcs() {
        if !map.contains_key(ta) {
            return Err(SimulationError::Unmapped { arc: *ta });
        }
    }

    // Group communications by node: incoming (by arrival) and outgoing
    // (by departure).
    let n = g.node_count();
    let mut incoming: Vec<Vec<TimedArc>> = vec![Vec::new(); n];
    let mut outgoing: Vec<Vec<TimedArc>> = vec![Vec::new(); n];
    for ta in pattern.timed_arcs() {
        let (src, dst) = g.arc_endpoints(ta.arc);
        incoming[dst.index()].push(*ta);
        outgoing[src.index()].push(*ta);
    }

    for v in 0..n {
        // Sort incoming by original arrival time, outgoing by original
        // departure time.
        incoming[v].sort_unstable_by_key(|ta| ta.round);
        outgoing[v].sort_unstable_by_key(|ta| ta.round);
        // Sweep outgoing edges in original-departure order, keeping the
        // max scheduled arrival over all incoming with arrival <= departure,
        // together with a witness.
        let mut i = 0;
        let mut max_arr: Option<(u32, TimedArc)> = None;
        for &out in &outgoing[v] {
            while i < incoming[v].len() && incoming[v][i].round < out.round {
                let inc = incoming[v][i];
                let sched_arr = map[&inc] + 1;
                if max_arr.is_none_or(|(m, _)| sched_arr > m) {
                    max_arr = Some((sched_arr, inc));
                }
                i += 1;
            }
            if let Some((m, witness)) = max_arr {
                let out_sched = map[&out];
                if m > out_sched {
                    return Err(SimulationError::OrderViolation {
                        earlier: witness,
                        later: out,
                        earlier_sched: map[&witness],
                        later_sched: out_sched,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Builds the identity simulation (every communication keeps its round);
/// always valid.
pub fn identity_map(pattern: &CommPattern) -> SimulationMap {
    pattern
        .timed_arcs()
        .iter()
        .map(|&ta| (ta, ta.round))
        .collect()
}

/// Builds the simulation that delays every communication by `delay` rounds;
/// always valid (a rigid shift preserves all gaps).
pub fn shifted_map(pattern: &CommPattern, delay: u32) -> SimulationMap {
    pattern
        .timed_arcs()
        .iter()
        .map(|&ta| (ta, ta.round + delay))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    /// Pattern on a path 0-1-2: round 0 send 0->1, round 1 send 1->2.
    fn relay_pattern(g: &Graph) -> CommPattern {
        let e01 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        CommPattern::from_timed_arcs(
            g.edge_count(),
            vec![
                TimedArc {
                    round: 0,
                    arc: g.arc_from(e01, NodeId(0)),
                },
                TimedArc {
                    round: 1,
                    arc: g.arc_from(e12, NodeId(1)),
                },
            ],
        )
    }

    #[test]
    fn map_prints_and_collects_like_a_btree_map() {
        use std::collections::BTreeMap;
        let ta = |round: u32, arc: usize| TimedArc {
            round,
            arc: das_graph::Arc::from_index(arc),
        };
        // unsorted, with a repeated key whose last entry must win
        let entries = [
            (ta(2, 0), 9),
            (ta(0, 3), 1),
            (ta(1, 1), 4),
            (ta(0, 3), 7),
            (ta(0, 1), 2),
        ];
        let map: SimulationMap = entries.iter().copied().collect();
        let tree: BTreeMap<TimedArc, u32> = entries.iter().copied().collect();
        assert_eq!(format!("{map:?}"), format!("{tree:?}"));
        assert_eq!(format!("{map:#?}"), format!("{tree:#?}"));
        assert_eq!(map[&ta(0, 3)], 7);
        assert!(map.iter().eq(tree.iter()));
        assert_eq!(format!("{:?}", SimulationMap::new()), "{}");
        // the sorted hand-over and the merge agree with the tree too
        let sorted: Vec<_> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(SimulationMap::from_sorted(sorted.clone()), map);
        let (lo, hi) = sorted.split_at(2);
        let merged =
            SimulationMap::from_sorted(hi.to_vec()).merge(SimulationMap::from_sorted(lo.to_vec()));
        assert_eq!(merged, map);
    }

    #[test]
    fn relay_has_causal_chain() {
        let g = generators::path(3);
        let p = relay_pattern(&g);
        let tas = p.timed_arcs();
        assert!(causally_precedes(&g, &p, tas[0], tas[1]));
        assert!(!causally_precedes(&g, &p, tas[1], tas[0]));
    }

    #[test]
    fn identity_and_shift_are_valid() {
        let g = generators::path(3);
        let p = relay_pattern(&g);
        assert!(verify_simulation(&g, &p, &identity_map(&p)).is_ok());
        assert!(verify_simulation(&g, &p, &shifted_map(&p, 10)).is_ok());
    }

    #[test]
    fn reordering_is_rejected() {
        let g = generators::path(3);
        let p = relay_pattern(&g);
        let tas = p.timed_arcs().to_vec();
        let mut map = SimulationMap::new();
        map.insert(tas[0], 5); // arrives at 6 ...
        map.insert(tas[1], 3); // ... but successor departs at 3
        let err = verify_simulation(&g, &p, &map).unwrap_err();
        assert!(matches!(err, SimulationError::OrderViolation { .. }));
        assert!(err.to_string().contains("causal order violated"));
    }

    #[test]
    fn equal_time_arrival_departure_is_allowed() {
        // predecessor arrives exactly when successor departs: allowed
        // (k_l + 1 <= j with arrival = departure is the boundary case).
        let g = generators::path(3);
        let p = relay_pattern(&g);
        let tas = p.timed_arcs().to_vec();
        let mut map = SimulationMap::new();
        map.insert(tas[0], 4); // arrives at 5
        map.insert(tas[1], 5); // departs at 5: ok
        assert!(verify_simulation(&g, &p, &map).is_ok());
        map.insert(tas[1], 4); // departs at 4 < arrival 5: bad
        assert!(verify_simulation(&g, &p, &map).is_err());
    }

    #[test]
    fn unmapped_is_rejected() {
        let g = generators::path(3);
        let p = relay_pattern(&g);
        let mut map = identity_map(&p);
        let victim = p.timed_arcs()[1];
        map.remove(&victim);
        assert_eq!(
            verify_simulation(&g, &p, &map),
            Err(SimulationError::Unmapped { arc: victim })
        );
    }

    #[test]
    fn independent_messages_may_reorder() {
        // two messages from different nodes with no causal link can be
        // scheduled in any order.
        let g = generators::path(4);
        let e01 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e23 = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        let p = CommPattern::from_timed_arcs(
            g.edge_count(),
            vec![
                TimedArc {
                    round: 0,
                    arc: g.arc_from(e01, NodeId(0)),
                },
                TimedArc {
                    round: 5,
                    arc: g.arc_from(e23, NodeId(2)),
                },
            ],
        );
        let tas = p.timed_arcs().to_vec();
        assert!(!causally_precedes(&g, &p, tas[0], tas[1]));
        let mut map = SimulationMap::new();
        map.insert(tas[0], 9);
        map.insert(tas[1], 0);
        assert!(verify_simulation(&g, &p, &map).is_ok());
    }

    #[test]
    fn causality_through_long_chain() {
        let g = generators::path(5);
        let mut tas = Vec::new();
        for i in 0..4 {
            let e = g.find_edge(NodeId(i), NodeId(i + 1)).unwrap();
            tas.push(TimedArc {
                round: i,
                arc: g.arc_from(e, NodeId(i)),
            });
        }
        let p = CommPattern::from_timed_arcs(g.edge_count(), tas.clone());
        assert!(causally_precedes(&g, &p, tas[0], tas[3]));
        // compressing the chain below its causal length must fail
        let mut map = SimulationMap::new();
        for (i, ta) in tas.iter().enumerate() {
            map.insert(*ta, (i / 2) as u32); // rounds 0,0,1,1 — too tight
        }
        assert!(verify_simulation(&g, &p, &map).is_err());
    }
}
