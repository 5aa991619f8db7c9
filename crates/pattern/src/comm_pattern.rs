//! Communication patterns and the `congestion`/`dilation` parameters.

use das_graph::{Arc, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// One communication: a message traversing `arc` in round `round`.
///
/// Corresponds to the time-expanded edge `(v_round, u_{round+1})` where
/// `(v, u)` are the arc endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimedArc {
    /// The round in which the message departs.
    pub round: u32,
    /// The directed edge it traverses.
    pub arc: Arc,
}

/// The communication pattern of one algorithm: its footprint in `G × [T]`
/// (Section 2 of the paper). Content-free: only *which* edges carry
/// messages *when*.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPattern {
    edge_count: usize,
    timed_arcs: Vec<TimedArc>,
}

impl CommPattern {
    /// Builds a pattern from timed arcs: those `das_congest::run_rounds`
    /// records for an alone run, or a synthetic workload's or the
    /// lower-bound instance generator's.
    pub fn from_timed_arcs(edge_count: usize, mut timed_arcs: Vec<TimedArc>) -> Self {
        timed_arcs.sort_unstable();
        timed_arcs.dedup();
        CommPattern {
            edge_count,
            timed_arcs,
        }
    }

    /// The timed arcs, sorted by (round, arc).
    pub fn timed_arcs(&self) -> &[TimedArc] {
        &self.timed_arcs
    }

    /// Number of messages in the pattern.
    pub fn message_count(&self) -> usize {
        self.timed_arcs.len()
    }

    /// Number of edges of the underlying graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The algorithm's running time: one past the last round that sends a
    /// message (0 for a silent algorithm).
    pub fn rounds(&self) -> u32 {
        self.timed_arcs.last().map_or(0, |ta| ta.round + 1)
    }

    /// `c_i(e)` for every edge `e`: the number of messages this algorithm
    /// sends over `e` (both directions).
    pub fn edge_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.edge_count];
        for ta in &self.timed_arcs {
            loads[ta.arc.edge.index()] += 1;
        }
        loads
    }

    /// Messages this pattern sends from node `v` in round `round`, as
    /// `(arc, destination)` pairs.
    pub fn sends_from(&self, g: &Graph, v: NodeId, round: u32) -> Vec<(Arc, NodeId)> {
        self.timed_arcs
            .iter()
            .filter(|ta| ta.round == round)
            .filter_map(|ta| {
                let (src, dst) = g.arc_endpoints(ta.arc);
                (src == v).then_some((ta.arc, dst))
            })
            .collect()
    }
}

/// The two quantities every bound in the paper is stated in, plus the
/// per-direction load the model's capacity is counted in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DasParameters {
    /// `congestion = max_e Σ_i c_i(e)`: the heaviest total per-edge load,
    /// both directions together.
    pub congestion: u64,
    /// `dilation = max_i rounds(A_i)`: the longest single running time.
    pub dilation: u32,
    /// The heaviest total load on one *arc* (edge direction). CONGEST
    /// carries one message per arc per round, so this — not
    /// `congestion`, which can be up to twice it — is the load every
    /// schedule must spend rounds on.
    pub max_arc_load: u64,
}

impl DasParameters {
    /// The trivial lower bound `max(max_arc_load, dilation)`: every
    /// schedule needs at least this many rounds, since each arc carries
    /// one message per round and the longest algorithm runs `dilation`
    /// rounds alone. (`max(congestion, dilation)` is not a bound: an edge
    /// loaded in both directions carries two messages per round.)
    pub fn trivial_lower_bound(&self) -> u64 {
        self.max_arc_load.max(self.dilation as u64)
    }

    /// `congestion + dilation`, the quantity LMR-style schedules are
    /// measured against.
    pub fn sum(&self) -> u64 {
        self.congestion + self.dilation as u64
    }
}

/// Computes the DAS parameters of a set of algorithms from their
/// communication patterns.
///
/// # Panics
/// Panics if the patterns disagree on the number of edges, or if `patterns`
/// is empty.
pub fn das_parameters<'a>(patterns: impl IntoIterator<Item = &'a CommPattern>) -> DasParameters {
    let mut patterns = patterns.into_iter().peekable();
    let edge_count = patterns
        .peek()
        .expect("need at least one pattern")
        .edge_count();
    let mut arc_loads = vec![0u64; 2 * edge_count];
    let mut dilation = 0u32;
    for p in patterns {
        assert_eq!(p.edge_count(), edge_count, "patterns over different graphs");
        dilation = dilation.max(p.rounds());
        for ta in p.timed_arcs() {
            arc_loads[ta.arc.index()] += 1;
        }
    }
    DasParameters {
        congestion: (arc_loads.chunks(2).map(|both| both[0] + both[1]).max()).unwrap_or(0),
        dilation,
        max_arc_load: arc_loads.into_iter().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::{Direction, EdgeId};

    fn ta(round: u32, e: u32, fwd: bool) -> TimedArc {
        TimedArc {
            round,
            arc: Arc::new(
                EdgeId(e),
                if fwd {
                    Direction::Forward
                } else {
                    Direction::Backward
                },
            ),
        }
    }

    #[test]
    fn from_timed_arcs_sorts_and_dedups() {
        let p =
            CommPattern::from_timed_arcs(2, vec![ta(3, 1, true), ta(0, 0, true), ta(3, 1, true)]);
        assert_eq!(p.message_count(), 2);
        assert_eq!(p.timed_arcs()[0], ta(0, 0, true));
        assert_eq!(p.rounds(), 4);
    }

    #[test]
    fn edge_loads_count_both_directions() {
        let p =
            CommPattern::from_timed_arcs(2, vec![ta(0, 0, true), ta(1, 0, false), ta(0, 1, true)]);
        assert_eq!(p.edge_loads(), vec![2, 1]);
    }

    #[test]
    fn das_parameters_aggregate() {
        let p1 = CommPattern::from_timed_arcs(2, vec![ta(0, 0, true), ta(1, 0, true)]);
        let p2 = CommPattern::from_timed_arcs(2, vec![ta(0, 0, false), ta(5, 1, true)]);
        let params = das_parameters(&[p1, p2]);
        assert_eq!(params.congestion, 3); // edge 0 carries 2 + 1
        assert_eq!(params.dilation, 6); // p2 runs 6 rounds
        assert_eq!(params.trivial_lower_bound(), 6);
        assert_eq!(params.sum(), 9);
    }

    /// Opposite directions of one edge are two channels: the edge's
    /// congestion counts both, the bound only the heavier.
    #[test]
    fn the_bound_counts_arcs_not_edges() {
        let p1 = CommPattern::from_timed_arcs(1, vec![ta(0, 0, true)]);
        let p2 = CommPattern::from_timed_arcs(1, vec![ta(0, 0, false)]);
        let params = das_parameters(&[p1, p2]);
        assert_eq!((params.congestion, params.max_arc_load), (2, 1));
        assert_eq!(params.trivial_lower_bound(), 1);
    }

    #[test]
    fn empty_pattern() {
        let p = CommPattern::from_timed_arcs(3, vec![]);
        assert_eq!(p.rounds(), 0);
        assert_eq!(p.message_count(), 0);
        assert_eq!(p.edge_loads(), vec![0, 0, 0]);
    }

    #[test]
    fn sends_from_filters_by_source_and_round() {
        let g = das_graph::generators::path(3);
        // edge 0 = {0,1}, edge 1 = {1,2}; Forward = small -> large
        let p = CommPattern::from_timed_arcs(
            g.edge_count(),
            vec![ta(0, 0, true), ta(0, 1, false), ta(1, 0, true)],
        );
        let s = p.sends_from(&g, NodeId(0), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(1));
        // node 2 sends backward over edge 1 in round 0
        let s = p.sends_from(&g, NodeId(2), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(1));
        assert!(p.sends_from(&g, NodeId(1), 0).is_empty());
    }
}
