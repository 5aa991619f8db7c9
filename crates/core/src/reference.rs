//! Alone runs: the ground truth every schedule is verified against.

use crate::algorithm::{BatchedSends, BlackBoxAlgorithm};
use das_graph::{Graph, NodeId};
use das_pattern::{CommPattern, TimedArc};
use std::error::Error;
use std::fmt;

/// Ways an algorithm can violate the CONGEST model in its alone run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReferenceError {
    /// A machine addressed a non-neighbor.
    NotNeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Algorithm round.
        round: u32,
    },
    /// A machine sent two messages to the same neighbor in one round.
    DuplicateSend {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Algorithm round.
        round: u32,
    },
}

impl fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReferenceError::NotNeighbor { from, to, round } => {
                write!(f, "round {round}: {from} sent to non-neighbor {to}")
            }
            ReferenceError::DuplicateSend { from, to, round } => {
                write!(f, "round {round}: {from} sent twice to {to}")
            }
        }
    }
}

impl Error for ReferenceError {}

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

/// Runs `algo` alone on `g` with per-node seeds derived from `seed`,
/// producing the reference outputs and communication pattern.
///
/// # Errors
/// Returns a [`ReferenceError`] if the algorithm violates the CONGEST
/// model (sends to a non-neighbor, or twice to the same neighbor in one
/// round).
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
    // A round's messages live flat — `(to, from, payload span)` plus one
    // byte arena — and are grouped by receiver with a stable counting sort
    // between rounds; only the inbox being stepped is materialised, into
    // payload buffers recycled from step to step — so the pool never
    // outgrows one inbox and stays in cache (a pool holding a whole
    // round's buffers measured slower than `malloc`). Nothing is
    // allocated per round, per node or per message.
    let mut sent: Vec<(u32, u32, usize, usize)> = Vec::new();
    let mut sent_bytes: Vec<u8> = Vec::new();
    // the messages being consumed: `arrived[starts[v]..starts[v + 1]]` are
    // `v`'s, as `(from, payload span)` into `arrived_bytes`
    let mut arrived: Vec<(u32, usize, usize)> = Vec::new();
    let mut arrived_bytes: Vec<u8> = Vec::new();
    let mut starts = vec![0usize; n + 2];
    let mut inbox: Vec<(NodeId, Vec<u8>)> = Vec::new();
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut sent_to: Vec<NodeId> = Vec::new();
    let mut sends = BatchedSends::new();
    let mut timed_arcs = Vec::new();

    for round in 0..algo.rounds() {
        for v in 0..n {
            let me = NodeId(v as u32);
            pool.extend(inbox.drain(..).map(|(_, buf)| buf));
            for &(from, off, len) in &arrived[starts[v]..starts[v + 1]] {
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(&arrived_bytes[off..off + len]);
                inbox.push((NodeId(from), buf));
            }
            // canonical inbox order (the scheduled executor sorts the same
            // way, so machines see identical inboxes in both runs); equal
            // entries are indistinguishable, so an unstable sort is exact
            inbox.sort_unstable();
            sends.clear();
            batch.step_into(v, &inbox, &mut sends);
            sent_to.clear();
            for (to, payload) in sends.segment(0) {
                let edge = match g.find_edge(me, to) {
                    Some(e) => e,
                    None => {
                        return Err(ReferenceError::NotNeighbor {
                            from: me,
                            to,
                            round,
                        })
                    }
                };
                if sent_to.contains(&to) {
                    return Err(ReferenceError::DuplicateSend {
                        from: me,
                        to,
                        round,
                    });
                }
                sent_to.push(to);
                timed_arcs.push(TimedArc {
                    round,
                    arc: g.arc_from(edge, me),
                });
                sent.push((to.0, me.0, sent_bytes.len(), payload.len()));
                sent_bytes.extend_from_slice(payload);
            }
        }
        // Group this round's sends by receiver for the next round: count
        // two slots up, so that after the prefix sum `starts[v + 1]` is
        // where `v`'s messages begin, and after the (stable, forward)
        // placement has advanced it, where they end.
        starts.fill(0);
        for &(to, ..) in &sent {
            starts[to as usize + 2] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        arrived.clear();
        arrived.resize(sent.len(), (0, 0, 0));
        for &(to, from, off, len) in &sent {
            arrived[starts[to as usize + 1]] = (from, off, len);
            starts[to as usize + 1] += 1;
        }
        sent.clear();
        std::mem::swap(&mut arrived_bytes, &mut sent_bytes);
        sent_bytes.clear();
    }

    Ok(ReferenceRun {
        outputs: (0..n).map(|v| batch.output(v)).collect(),
        pattern: CommPattern::from_timed_arcs(g.edge_count(), timed_arcs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{FloodBall, Prescribed, RelayChain};
    use das_graph::generators;

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
        let mut timed_arcs = Vec::new();
        for round in 0..algo.rounds() {
            let mut next: Vec<Vec<(NodeId, Vec<u8>)>> = vec![Vec::new(); n];
            for v in 0..n {
                let me = NodeId(v as u32);
                let mut inbox = std::mem::take(&mut inboxes[v]);
                inbox.sort();
                for s in machines[v].step(&inbox) {
                    let edge = g.find_edge(me, s.to).expect("synthetic sends are valid");
                    timed_arcs.push(TimedArc {
                        round,
                        arc: g.arc_from(edge, me),
                    });
                    next[s.to.index()].push((me, s.payload));
                }
            }
            inboxes = next;
        }
        ReferenceRun {
            outputs: machines.iter().map(|m| m.output()).collect(),
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

    #[test]
    fn model_violations_detected() {
        use crate::algorithm::{Aid, AlgoNode, AlgoSend, BlackBoxAlgorithm};

        struct Bad(u8);
        struct BadNode(u8, NodeId);
        impl BlackBoxAlgorithm for Bad {
            fn aid(&self) -> Aid {
                Aid(0)
            }
            fn rounds(&self) -> u32 {
                1
            }
            fn create_node(&self, v: NodeId, _n: usize, _s: u64) -> Box<dyn AlgoNode> {
                Box::new(BadNode(self.0, v))
            }
        }
        impl AlgoNode for BadNode {
            fn step(&mut self, _inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
                if self.1 != NodeId(0) {
                    return vec![];
                }
                match self.0 {
                    0 => vec![AlgoSend {
                        to: NodeId(2),
                        payload: vec![],
                    }],
                    _ => vec![
                        AlgoSend {
                            to: NodeId(1),
                            payload: vec![],
                        },
                        AlgoSend {
                            to: NodeId(1),
                            payload: vec![],
                        },
                    ],
                }
            }
            fn output(&self) -> Option<Vec<u8>> {
                None
            }
        }

        let g = generators::path(3);
        assert!(matches!(
            run_alone(&g, &Bad(0), 0),
            Err(ReferenceError::NotNeighbor { .. })
        ));
        assert!(matches!(
            run_alone(&g, &Bad(1), 0),
            Err(ReferenceError::DuplicateSend { .. })
        ));
    }
}
