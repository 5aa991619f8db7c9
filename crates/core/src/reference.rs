//! Alone runs: the ground truth every schedule is verified against.

use crate::algorithm::{BatchedSends, BlackBoxAlgorithm, BlockStep, Inbox, InboxBuf, InboxMsg};
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
    // every round is one block: all n machines step against the round's
    // mail, and their sends are checked in node order afterwards — the
    // first violation in (round, node) order is still the one reported
    let mut mail = RoundMail::new(n);
    let mut steps: Vec<BlockStep> = Vec::with_capacity(n);
    let mut sent_to: Vec<NodeId> = Vec::new();
    let mut sends = BatchedSends::new();
    let mut timed_arcs = Vec::new();

    for round in 0..algo.rounds() {
        steps.clear();
        steps.extend((0..n).map(|v| mail.step(v, round)));
        sends.clear();
        batch.step_block(&steps, mail.inbox(), &mut sends);
        for v in 0..n {
            let me = NodeId(v as u32);
            sent_to.clear();
            for (to, payload) in sends.segment(v) {
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
                mail.post(me, to, payload);
            }
        }
        mail.deliver();
    }

    Ok(ReferenceRun {
        outputs: (0..n).map(|v| batch.output(v)).collect(),
        pattern: CommPattern::from_timed_arcs(g.edge_count(), timed_arcs),
    })
}

/// One synchronous round's messages, handed to the next round's steps as
/// one block [`Inbox`]. Sends are posted flat — `(receiver, message)` plus
/// one byte arena — and grouped by receiver with a stable counting sort
/// when the round ends. Senders post in ascending node order and at most
/// once per receiver, so every receiver's messages come out sender-sorted,
/// the canonical inbox order. Nothing is allocated per round, per node or
/// per message once the buffers have warmed up.
pub(crate) struct RoundMail {
    posted: Vec<(u32, InboxMsg)>,
    posted_bytes: Vec<u8>,
    /// The messages being consumed: `arrived.msgs[starts[v]..starts[v + 1]]`
    /// are `v`'s.
    arrived: InboxBuf,
    starts: Vec<usize>,
}

impl RoundMail {
    /// Empty mail for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        RoundMail {
            posted: Vec::new(),
            posted_bytes: Vec::new(),
            arrived: InboxBuf::new(),
            starts: vec![0; n + 2],
        }
    }

    /// Posts one message for the next round.
    pub(crate) fn post(&mut self, from: NodeId, to: NodeId, payload: &[u8]) {
        let msg = InboxMsg {
            from,
            len: payload.len() as u32,
            off: self.posted_bytes.len(),
        };
        self.posted.push((to.0, msg));
        self.posted_bytes.extend_from_slice(payload);
    }

    /// Ends the round: what was posted becomes the arrivals.
    pub(crate) fn deliver(&mut self) {
        // Count two slots up, so that after the prefix sum `starts[v + 1]`
        // is where `v`'s messages begin, and after the (stable, forward)
        // placement has advanced it, where they end.
        let starts = &mut self.starts;
        starts.fill(0);
        for &(to, _) in &self.posted {
            starts[to as usize + 2] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        let arrived = &mut self.arrived.msgs;
        arrived.clear();
        arrived.resize(
            self.posted.len(),
            InboxMsg {
                from: NodeId(0),
                len: 0,
                off: 0,
            },
        );
        for &(to, msg) in &self.posted {
            arrived[starts[to as usize + 1]] = msg;
            starts[to as usize + 1] += 1;
        }
        self.posted.clear();
        std::mem::swap(&mut self.arrived.bytes, &mut self.posted_bytes);
        self.posted_bytes.clear();
    }

    /// Node `v`'s step of `round`, its arrivals picked out of
    /// [`RoundMail::inbox`].
    pub(crate) fn step(&self, v: usize, round: u32) -> BlockStep {
        let start = self.starts[v];
        BlockStep {
            node: v as u32,
            round,
            inbox_start: start as u32,
            inbox_len: (self.starts[v + 1] - start) as u32,
        }
    }

    /// Every arrival of the round, as one block's inbox.
    pub(crate) fn inbox(&self) -> Inbox<'_> {
        self.arrived.inbox()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Sends;
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
        use crate::algorithm::{Aid, AlgoNode, BlackBoxAlgorithm};

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
            fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
                if self.1 != NodeId(0) {
                    return;
                }
                match self.0 {
                    0 => out.push(NodeId(2), &[]),
                    _ => {
                        out.push(NodeId(1), &[]);
                        out.push(NodeId(1), &[]);
                    }
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
