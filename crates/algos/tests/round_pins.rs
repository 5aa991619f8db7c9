//! Literal round and message counts of the classical combined protocols,
//! run until quiet: E10a's k-broadcast, E10b's k-BFS and the min-id flood.

use das_algos::bfs::KBfsProtocol;
use das_algos::broadcast::KBroadcastProtocol;
use das_algos::flood::MinIdProtocol;
use das_congest::{run_rounds, NodeBatch, Tally, Until};
use das_graph::{generators, Graph, NodeId};

fn until_quiet(g: &Graph, mut batch: NodeBatch) -> Tally {
    run_rounds(g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap()
}

#[test]
fn e10a_k_broadcast_on_a_path() {
    let g = generators::path(60);
    let mut got = Vec::new();
    for k in [4u32, 8, 16, 32] {
        let msgs = (0..k).map(|i| (NodeId(i), u64::from(i))).collect();
        let ran = until_quiet(&g, KBroadcastProtocol::new(msgs, 59).machines(&g));
        got.push((ran.rounds, ran.messages));
    }
    assert_eq!(got, [(60, 471), (60, 943), (60, 1887), (63, 3775)]);
}

#[test]
fn e10b_k_bfs_on_a_grid() {
    let g = generators::grid(9, 9);
    let mut got = Vec::new();
    for k in [2u32, 4, 8, 16] {
        let sources = (0..k).map(|i| NodeId(i * 5 % 81)).collect();
        let ran = until_quiet(&g, KBfsProtocol::new(sources, 16).machines(&g));
        got.push((ran.rounds, ran.messages));
    }
    assert_eq!(got, [(17, 574), (18, 1150), (19, 2302), (24, 4606)]);
}

#[test]
fn min_id_flood_on_a_thousand_nodes() {
    let g = generators::gnp_connected(1000, 0.006, 3);
    let ran = until_quiet(&g, MinIdProtocol.machines(&g));
    assert_eq!((ran.rounds, ran.messages), (7, 33_938));
}

#[test]
fn min_id_flood_alone_is_one_silent_round() {
    // its one node's first send goes to no neighbour: no message, quiet
    let g = generators::path(1);
    let ran = until_quiet(&g, MinIdProtocol.machines(&g));
    assert_eq!((ran.rounds, ran.messages), (1, 0));
}
