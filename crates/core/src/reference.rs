//! Alone runs: the ground truth every schedule is verified against.

use crate::algorithm::BlackBoxAlgorithm;
pub use das_congest::ReferenceError;
use das_congest::{run_rounds, Until};
use das_graph::{Graph, NodeId};
use das_pattern::CommPattern;

/// The result of running one algorithm alone: per-node outputs and the
/// communication pattern (which yields its congestion/dilation
/// contributions).
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// Per-node outputs.
    pub outputs: Vec<Option<Vec<u8>>>,
    /// The algorithm's communication pattern.
    pub pattern: CommPattern,
}

/// Runs `algo` alone on `g` for its `rounds()` rounds with per-node seeds
/// derived from `seed`, producing the reference outputs and communication
/// pattern.
///
/// # Errors
/// Returns a [`ReferenceError`] if the algorithm violates the CONGEST
/// model (sends to a non-neighbor, twice to the same neighbor in one
/// round, or more than [`crate::MESSAGE_BYTES`] bytes).
pub fn run_alone(
    g: &Graph,
    algo: &dyn BlackBoxAlgorithm,
    seed: u64,
) -> Result<ReferenceRun, ReferenceError> {
    let n = g.node_count();
    let nodes: Vec<NodeId> = (0..n).map(|v| NodeId(v as u32)).collect();
    let seeds: Vec<u64> = (0..n)
        .map(|v| das_congest::util::seed_mix(seed, v as u64))
        .collect();
    // batched construction: synthetic families share route/topology state
    // across the whole slab instead of cloning it per machine
    let mut batch = algo.create_nodes(&nodes, n, &seeds);
    let mut timed_arcs = Vec::new();
    run_rounds(
        g,
        &mut batch,
        Until::exactly(algo.rounds()),
        Some(&mut timed_arcs),
    )?;
    Ok(ReferenceRun {
        outputs: batch.outputs(),
        pattern: CommPattern::from_timed_arcs(g.edge_count(), timed_arcs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{
        Aid, AlgoNode, BatchedSends, Inbox, InboxBuf, NodeBatch, OutputSink, Sends,
    };
    use crate::synthetic::{FloodBall, Prescribed, RelayChain};
    use das_graph::generators;
    use das_pattern::TimedArc;

    /// The pre-slab reference loop: per-node boxed machines stepped through
    /// the specification tier. Kept as the oracle the batched construction
    /// path is pinned against.
    fn run_alone_boxed(g: &Graph, algo: &dyn BlackBoxAlgorithm, seed: u64) -> ReferenceRun {
        let n = g.node_count();
        let mut machines: Vec<_> = (0..n)
            .map(|v| {
                algo.create_node(
                    NodeId(v as u32),
                    n,
                    das_congest::util::seed_mix(seed, v as u64),
                )
            })
            .collect();
        let mut inboxes: Vec<Vec<(NodeId, Vec<u8>)>> = vec![Vec::new(); n];
        let (mut buf, mut out) = (InboxBuf::new(), BatchedSends::new());
        let mut timed_arcs = Vec::new();
        for round in 0..algo.rounds() {
            let mut next: Vec<Vec<(NodeId, Vec<u8>)>> = vec![Vec::new(); n];
            for v in 0..n {
                let me = NodeId(v as u32);
                let mut inbox = std::mem::take(&mut inboxes[v]);
                inbox.sort();
                buf.clear();
                for (from, payload) in &inbox {
                    buf.push(*from, payload);
                }
                out.clear();
                machines[v].step(buf.inbox(), &mut Sends::new(&mut out));
                out.end_segment();
                for (to, payload) in out.segment(0) {
                    let edge = g.find_edge(me, to).expect("synthetic sends are valid");
                    timed_arcs.push(TimedArc {
                        round,
                        arc: g.arc_from(edge, me),
                    });
                    next[to.index()].push((me, payload.to_vec()));
                }
            }
            inboxes = next;
        }
        ReferenceRun {
            outputs: NodeBatch::from_boxed(machines).outputs(),
            pattern: CommPattern::from_timed_arcs(g.edge_count(), timed_arcs),
        }
    }

    #[test]
    fn slab_reference_matches_boxed_reference_for_every_family() {
        let g = generators::path(9);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = vec![
            Box::new(RelayChain::new(0, &g)),
            Box::new(FloodBall::new(1, &g, NodeId(4), 3)),
            Box::new(Prescribed::new(
                2,
                &g,
                &[
                    (0, NodeId(0), NodeId(1)),
                    (0, NodeId(3), NodeId(2)),
                    (1, NodeId(1), NodeId(2)),
                    (2, NodeId(2), NodeId(3)),
                ],
            )),
        ];
        for (i, algo) in algos.iter().enumerate() {
            let slab = run_alone(&g, algo.as_ref(), 77 + i as u64).unwrap();
            let boxed = run_alone_boxed(&g, algo.as_ref(), 77 + i as u64);
            assert_eq!(slab.outputs, boxed.outputs, "algo {i} outputs diverge");
            assert_eq!(
                format!("{:?}", slab.pattern),
                format!("{:?}", boxed.pattern),
                "algo {i} patterns diverge"
            );
        }
    }

    #[test]
    fn reference_cache_counter_unchanged_by_batched_construction() {
        use crate::{DasProblem, Scheduler, SequentialScheduler};
        let g = generators::path(8);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..3)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 5);
        assert_eq!(p.reference_runs_computed(), 0, "references are lazy");
        for _ in 0..2 {
            let outcome = SequentialScheduler.run(&p).unwrap();
            let report = crate::verify::against_references(&p, &outcome).unwrap();
            assert!(report.all_correct());
        }
        assert_eq!(
            p.reference_runs_computed(),
            3,
            "one alone run per algorithm, cached across verifications"
        );
    }

    #[test]
    fn relay_reference_run() {
        let g = generators::path(6);
        let algo = RelayChain::new(0, &g);
        let r = run_alone(&g, &algo, 1).unwrap();
        // the token visits every edge once, left to right
        assert_eq!(r.pattern.message_count(), 5);
        assert_eq!(r.pattern.rounds(), 5);
        assert_eq!(r.pattern.edge_loads(), vec![1; 5]);
        // last node outputs the token
        assert!(r.outputs[5].is_some());
    }

    /// Node 0 breaks the model in round `at` as `kind` says: 0 addresses
    /// a non-neighbour, 1 sends twice to node 1, 2 sends node 1 one byte
    /// over [`crate::MESSAGE_BYTES`].
    struct Bad {
        kind: u8,
        at: u32,
    }
    struct BadNode {
        kind: u8,
        at: u32,
        me: NodeId,
        round: u32,
    }
    impl BlackBoxAlgorithm for Bad {
        fn aid(&self) -> Aid {
            Aid(0)
        }
        fn rounds(&self) -> u32 {
            2
        }
        fn create_node(&self, me: NodeId, _n: usize, _s: u64) -> Box<dyn AlgoNode> {
            let (kind, at) = (self.kind, self.at);
            Box::new(BadNode {
                kind,
                at,
                me,
                round: 0,
            })
        }
    }
    impl AlgoNode for BadNode {
        fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
            self.round += 1;
            if self.me != NodeId(0) || self.round - 1 != self.at {
                return;
            }
            match self.kind {
                0 => out.push(NodeId(2), &[]),
                1 => {
                    out.push(NodeId(1), &[]);
                    out.push(NodeId(1), &[]);
                }
                _ => out.push(NodeId(1), &[0; crate::MESSAGE_BYTES + 1]),
            }
        }
        fn output(&self, _out: &mut OutputSink<'_>) {}
    }

    #[test]
    fn model_violations_detected() {
        let g = generators::path(3);
        let (from, to, round) = (NodeId(0), NodeId(1), 0);
        assert_eq!(
            run_alone(&g, &Bad { kind: 0, at: 0 }, 0).unwrap_err(),
            ReferenceError::NotNeighbor {
                from,
                to: NodeId(2),
                round
            }
        );
        assert_eq!(
            run_alone(&g, &Bad { kind: 1, at: 0 }, 0).unwrap_err(),
            ReferenceError::DuplicateSend { from, to, round }
        );
        assert_eq!(
            run_alone(&g, &Bad { kind: 2, at: 0 }, 0).unwrap_err(),
            ReferenceError::MessageTooLarge {
                from,
                to,
                round,
                size: crate::MESSAGE_BYTES + 1
            }
        );
    }

    #[test]
    fn an_oversized_payload_fails_the_reference_not_the_schedule() {
        use crate::{verify, DasProblem, Scheduler, SequentialScheduler};
        // a 2-round algorithm whose one message, in round 1, is 41 bytes:
        // every executor drops it as invalid, so an alone run that kept
        // it would blame the schedule for the missing delivery
        let g = generators::path(3);
        let bad = Bad { kind: 2, at: 1 };
        let err = ReferenceError::MessageTooLarge {
            from: NodeId(0),
            to: NodeId(1),
            round: 1,
            size: 41,
        };
        assert_eq!(run_alone(&g, &bad, 0).unwrap_err(), err);
        let p = DasProblem::new(&g, vec![Box::new(bad) as Box<dyn BlackBoxAlgorithm>], 0);
        let outcome = SequentialScheduler.run(&p).unwrap();
        assert_eq!(outcome.stats.invalid_sends, 1);
        assert_eq!(verify::against_references(&p, &outcome).unwrap_err(), err);
    }
}
