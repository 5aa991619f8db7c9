//! The round loop's edge cases: degenerate graphs, boundary message
//! sizes, model violations and termination corners.

use das_congest::{
    run_rounds, AlgoNode, Inbox, NodeBatch, OutputSink, ReferenceError, Sends, Tally, Until,
    MESSAGE_BYTES,
};
use das_graph::{generators, Graph, GraphBuilder, NodeId};
use das_pattern::CommPattern;

fn quiet(g: &Graph, mut batch: NodeBatch) -> Result<Tally, ReferenceError> {
    run_rounds(g, &mut batch, Until::Quiet { limit: 1000 }, None)
}

/// Sends one message of a given size to every neighbor, once.
struct OneShot {
    neighbors: Vec<NodeId>,
    size: usize,
    fired: bool,
}
impl AlgoNode for OneShot {
    fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
        if !std::mem::replace(&mut self.fired, true) {
            out.push_all(&self.neighbors, &vec![0u8; self.size]);
        }
    }
    fn output(&self, _out: &mut OutputSink<'_>) {}
}

fn one_shot(g: &Graph, size: usize) -> NodeBatch {
    NodeBatch::for_graph(g, |_, neighbors| {
        Box::new(OneShot {
            neighbors,
            size,
            fired: false,
        })
    })
}

/// Sends to every neighbor every round.
struct Chatter(Vec<NodeId>);
impl AlgoNode for Chatter {
    fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
        out.push_all(&self.0, &[7]);
    }
    fn output(&self, _out: &mut OutputSink<'_>) {}
}

fn chatter(g: &Graph) -> NodeBatch {
    NodeBatch::for_graph(g, |_, neighbors| Box::new(Chatter(neighbors)))
}

/// Floods the smallest id it has seen; quiet once nothing improves.
struct MinFlood {
    neighbors: Vec<NodeId>,
    best: u32,
    changed: bool,
}
impl AlgoNode for MinFlood {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        for (_, payload) in inbox {
            let v = u32::from_le_bytes(payload[..4].try_into().unwrap());
            if v < self.best {
                self.best = v;
                self.changed = true;
            }
        }
        if std::mem::take(&mut self.changed) {
            out.push_all(&self.neighbors, &self.best.to_le_bytes());
        }
    }
    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.best.to_le_bytes());
    }
}

fn min_flood(g: &Graph) -> NodeBatch {
    NodeBatch::for_graph(g, |v, neighbors| {
        Box::new(MinFlood {
            neighbors,
            best: v.0,
            changed: true,
        })
    })
}

#[test]
fn single_node_network_terminates_immediately() {
    let g = generators::path(1);
    let ran = quiet(&g, one_shot(&g, 1)).unwrap();
    assert_eq!(
        ran,
        Tally {
            rounds: 1,
            messages: 0
        }
    );
}

#[test]
fn disconnected_components_run_independently() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1);
    b.add_edge(2, 3);
    let g = b.build();
    let ran = quiet(&g, one_shot(&g, 4)).unwrap();
    assert_eq!(ran.messages, 4); // each endpoint fires once per component
}

#[test]
fn message_at_exact_size_limit_passes() {
    let g = generators::path(2);
    let ran = quiet(&g, one_shot(&g, MESSAGE_BYTES)).unwrap();
    assert_eq!(ran.messages, 2);
}

#[test]
fn message_one_byte_over_fails() {
    let g = generators::path(2);
    let err = quiet(&g, one_shot(&g, MESSAGE_BYTES + 1)).unwrap_err();
    assert_eq!(
        err,
        ReferenceError::MessageTooLarge {
            from: NodeId(0),
            to: NodeId(1),
            round: 0,
            size: MESSAGE_BYTES + 1,
        }
    );
}

#[test]
fn zero_rounds_run_nothing() {
    let g = generators::path(3);
    let mut arcs = Vec::new();
    let ran = run_rounds(&g, &mut one_shot(&g, 1), Until::exactly(0), Some(&mut arcs)).unwrap();
    assert_eq!(
        ran,
        Tally {
            rounds: 0,
            messages: 0
        }
    );
    assert!(arcs.is_empty());
}

#[test]
fn star_hub_can_serve_every_spoke_in_one_round() {
    let g = generators::star(50);
    let ran = quiet(&g, one_shot(&g, 8)).unwrap();
    // hub sends 49, each spoke sends 1
    assert_eq!(ran.messages, 98);
    assert!(ran.rounds <= 3);
}

#[test]
fn recorded_arcs_match_graph() {
    let g = generators::cycle(5);
    let mut arcs = Vec::new();
    let until = Until::Quiet { limit: 10 };
    let ran = run_rounds(&g, &mut one_shot(&g, 1), until, Some(&mut arcs)).unwrap();
    assert_eq!(arcs.len() as u64, ran.messages);
    // every edge used exactly twice (once per direction)
    let pattern = CommPattern::from_timed_arcs(g.edge_count(), arcs);
    assert_eq!(pattern.edge_loads(), vec![2; 5]);
}

#[test]
fn a_run_that_never_goes_quiet_hits_its_limit() {
    let g = generators::path(2);
    let err = run_rounds(&g, &mut chatter(&g), Until::Quiet { limit: 3 }, None).unwrap_err();
    assert_eq!(err, ReferenceError::RoundLimit { limit: 3 });
    let err = run_rounds(&g, &mut chatter(&g), Until::Quiet { limit: 10 }, None).unwrap_err();
    assert_eq!(err, ReferenceError::RoundLimit { limit: 10 });
}

#[test]
fn exact_rounds_run_exactly() {
    let g = generators::path(2);
    let mut arcs = Vec::new();
    let ran = run_rounds(&g, &mut chatter(&g), Until::exactly(5), Some(&mut arcs)).unwrap();
    assert_eq!(
        ran,
        Tally {
            rounds: 5,
            messages: 2 * 5
        }
    );
    assert_eq!(arcs.iter().map(|a| a.round).max(), Some(4));
}

#[test]
fn min_flood_converges_on_cycle() {
    let g = generators::cycle(12);
    let mut batch = min_flood(&g);
    let mut arcs = Vec::new();
    let until = Until::Quiet { limit: 100 };
    let ran = run_rounds(&g, &mut batch, until, Some(&mut arcs)).unwrap();
    for out in batch.outputs() {
        assert_eq!(out.as_deref(), Some(&0u32.to_le_bytes()[..]));
    }
    // diameter is 6; flooding needs ~diameter+2 rounds to go quiet
    assert!(ran.rounds <= 10, "took {} rounds", ran.rounds);
    assert!(ran.messages > 0);
    assert_eq!(arcs.len() as u64, ran.messages);
    // recording is optional and changes nothing else
    assert_eq!(quiet(&g, min_flood(&g)).unwrap(), ran);
}

/// Node 0 breaks the model in a chosen way.
struct Violator {
    kind: u8,
    me: NodeId,
}
impl AlgoNode for Violator {
    fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
        if self.me != NodeId(0) {
            return;
        }
        match self.kind {
            // node 2 on a path 0-1-2
            0 => out.push(NodeId(2), &[0]),
            1 => out.push(NodeId(1), &[0; 1000]),
            _ => {
                out.push(NodeId(1), &[0]);
                out.push(NodeId(1), &[1]);
            }
        }
    }
    fn output(&self, _out: &mut OutputSink<'_>) {}
}

#[test]
fn violations_abort_the_run() {
    let g = generators::path(3);
    let run = |kind| {
        quiet(
            &g,
            NodeBatch::for_graph(&g, |me, _| Box::new(Violator { kind, me })),
        )
    };
    let (from, to, round) = (NodeId(0), NodeId(1), 0);
    assert_eq!(
        run(0),
        Err(ReferenceError::NotNeighbor {
            from,
            to: NodeId(2),
            round
        })
    );
    assert_eq!(
        run(1),
        Err(ReferenceError::MessageTooLarge {
            from,
            to,
            round,
            size: 1000
        })
    );
    assert_eq!(
        run(2),
        Err(ReferenceError::DuplicateSend { from, to, round })
    );
}

#[test]
fn violations_display_their_place() {
    let e = ReferenceError::NotNeighbor {
        from: NodeId(1),
        to: NodeId(2),
        round: 3,
    };
    assert!(e.to_string().contains("non-neighbor"));
    let e = ReferenceError::MessageTooLarge {
        from: NodeId(0),
        to: NodeId(1),
        round: 0,
        size: 100,
    };
    assert!(e.to_string().contains("100 bytes"));
    assert!(ReferenceError::RoundLimit { limit: 5 }
        .to_string()
        .contains('5'));
}

/// Outputs every round's senders, as it saw them.
struct Senders {
    neighbors: Vec<NodeId>,
    seen: Vec<u8>,
}
impl AlgoNode for Senders {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        self.seen.extend(inbox.iter().map(|(from, _)| from.0 as u8));
        // a hub's neighbours must not reach it in ascending order by luck
        out.push_all(&self.neighbors, &[]);
    }
    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.seen);
    }
}

#[test]
fn inboxes_list_senders_in_ascending_order() {
    let g = generators::star(9);
    let mut batch = NodeBatch::for_graph(&g, |_, neighbors| {
        Box::new(Senders {
            neighbors,
            seen: Vec::new(),
        })
    });
    run_rounds(&g, &mut batch, Until::exactly(3), None).unwrap();
    let spokes: Vec<u8> = (1..9).collect();
    // the hub saw every spoke in rounds 1 and 2, in id order
    let outputs = batch.outputs();
    assert_eq!(outputs[0], Some([spokes.clone(), spokes].concat()));
    for out in &outputs[1..9] {
        assert_eq!(*out, Some(vec![0, 0]));
    }
}

/// Outputs how often it was stepped.
struct Counter(u8);
impl AlgoNode for Counter {
    fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
        self.0 += 1;
        // mail to a truncated node is dropped, not an error
        out.push(NodeId(0), &[]);
    }
    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&[self.0]);
    }
}

#[test]
fn a_cap_truncates_each_machine_at_its_own_round() {
    let g = generators::star(4);
    let mut batch = NodeBatch::for_graph(&g, |_, _| Box::new(Counter(0)));
    let cap = [0, 1, 3, 2];
    let until = Until::Rounds {
        rounds: 3,
        cap: Some(&cap),
    };
    let ran = run_rounds(&g, &mut batch, until, None).unwrap();
    assert_eq!(ran.rounds, 3);
    // spokes stepped 1 + 3 + 2 times, each time sending the hub one message
    assert_eq!(ran.messages, 6);
    let steps: Vec<u8> = batch.outputs().into_iter().map(|o| o.unwrap()[0]).collect();
    assert_eq!(steps, cap.map(|c| c as u8));
}
