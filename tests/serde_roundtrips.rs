//! Serialization round-trips for the data-structure types (graphs,
//! patterns, recorded arcs) — they are meant to be persisted and diffed
//! across experiment runs.

use dasched::congest::{run_rounds, Until};
use dasched::core::run_alone;
use dasched::core::synthetic::FloodBall;
use dasched::graph::{generators, Arc, Direction, EdgeId, NodeId};
use dasched::pattern::{CommPattern, TimedArc};

#[test]
fn graph_roundtrip_preserves_structure() {
    let g = generators::gnp_connected(30, 0.1, 7);
    let json = serde_json::to_string(&g).unwrap();
    let g2: dasched::graph::Graph = serde_json::from_str(&json).unwrap();
    assert_eq!(g.node_count(), g2.node_count());
    assert_eq!(g.edge_count(), g2.edge_count());
    for v in g.nodes() {
        assert_eq!(g.neighbors(v), g2.neighbors(v));
    }
    for e in g.edges() {
        assert_eq!(g.endpoints(e), g2.endpoints(e));
    }
}

#[test]
fn ids_and_arcs_roundtrip() {
    let items = (
        NodeId(7),
        EdgeId(3),
        Arc::new(EdgeId(5), Direction::Backward),
        TimedArc {
            round: 9,
            arc: Arc::new(EdgeId(1), Direction::Forward),
        },
    );
    let json = serde_json::to_string(&items).unwrap();
    let back: (NodeId, EdgeId, Arc, TimedArc) = serde_json::from_str(&json).unwrap();
    assert_eq!(items, back);
}

#[test]
fn comm_pattern_roundtrip() {
    let g = generators::grid(4, 4);
    let algo = FloodBall::new(0, &g, NodeId(5), 4);
    let pattern = run_alone(&g, &algo, 3).unwrap().pattern;
    let json = serde_json::to_string(&pattern).unwrap();
    let back: CommPattern = serde_json::from_str(&json).unwrap();
    assert_eq!(pattern, back);
    assert_eq!(pattern.edge_loads(), back.edge_loads());
}

#[test]
fn recorded_arcs_roundtrip() {
    let g = generators::path(6);
    let mut batch = dasched::algos::flood::MinIdProtocol.machines(&g);
    let mut arcs = Vec::new();
    run_rounds(&g, &mut batch, Until::Quiet { limit: 100 }, Some(&mut arcs)).unwrap();
    assert!(!arcs.is_empty());
    let json = serde_json::to_string(&arcs).unwrap();
    let back: Vec<TimedArc> = serde_json::from_str(&json).unwrap();
    assert_eq!(arcs, back);
}
