//! The two-tier black-box contract, proven at the trait boundary: a slab
//! built by [`BlackBoxAlgorithm::create_nodes`] must be machine-for-machine
//! indistinguishable from the per-node boxed machines of `create_node` —
//! segment for segment, byte for byte, and in the final output — both
//! through `step_into` (one machine at a time) and through `step_block`
//! (the engine's node-block dispatch), even when nodes are skipped in some
//! rounds (truncation).
//!
//! Inbox sequences are adversarial in exactly the ways the paper's
//! scheduler produces them: empty rounds, mis-scheduled/truncated subsets
//! of the neighbors (machines cannot detect incompleteness), and
//! max-size payloads.

use das_congest::util::seed_mix;
use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{Aid, AlgoNode, AlgoSend, BatchedSends, BlackBoxAlgorithm, BlockStep};
use das_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The engine's CONGEST payload cap — the "max-size payload" adversarial
/// case.
const MAX_PAYLOAD: usize = das_core::MESSAGE_BYTES;

/// A mixed pool of families on `g`: every vectorized slab override
/// (relay CSR, prescribed binary-search, flood SoA) plus a family with no
/// overrides at all, exercising the default `create_nodes` /
/// `step_block` paths.
fn build_algos(g: &Graph, seed: u64) -> Vec<Box<dyn BlackBoxAlgorithm>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    let m = g.edge_count() as u32;
    let triples: Vec<(u32, NodeId, NodeId)> = (0..6)
        .map(|_| {
            let e = das_graph::EdgeId(rng.gen_range(0..m));
            let (a, b) = g.endpoints(e);
            let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            (rng.gen_range(0..5u32), from, to)
        })
        .collect();
    let mut route = vec![NodeId(rng.gen_range(0..n))];
    for _ in 0..5 {
        let cur = *route.last().expect("non-empty");
        let nbrs = g.neighbors(cur);
        let (next, _) = nbrs[rng.gen_range(0..nbrs.len())];
        route.push(next);
    }
    vec![
        Box::new(RelayChain::along(0, g, route)),
        Box::new(Prescribed::new(1, g, &triples)),
        Box::new(FloodBall::new(2, g, NodeId(rng.gen_range(0..n)), 3)),
        Box::new(Echo::new(3, g, 4)),
    ]
}

/// A deliberately override-free family: state-folding neighbor echo whose
/// slab is the default boxed one, so these properties cover the default
/// trait implementations too.
struct Echo {
    aid: Aid,
    rounds: u32,
    neighbors: Vec<Vec<NodeId>>,
}

impl Echo {
    fn new(aid: u64, g: &Graph, rounds: u32) -> Self {
        Echo {
            aid: Aid(aid),
            rounds,
            neighbors: g
                .nodes()
                .map(|v| g.neighbors(v).iter().map(|&(u, _)| u).collect())
                .collect(),
        }
    }
}

struct EchoNode {
    neighbors: Vec<NodeId>,
    state: u64,
    round: u32,
    rounds: u32,
}

impl BlackBoxAlgorithm for Echo {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.rounds
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        Box::new(EchoNode {
            neighbors: self.neighbors[v.index()].clone(),
            state: seed_mix(seed, self.aid.0),
            round: 0,
            rounds: self.rounds,
        })
    }
}

impl AlgoNode for EchoNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (from, payload) in inbox {
            let token = u64::from_le_bytes(payload[..8].try_into().expect("8-byte token"));
            self.state = seed_mix(self.state, seed_mix(token, u64::from(from.0)));
        }
        let mut out = Vec::new();
        if self.round + 1 < self.rounds {
            for &u in &self.neighbors {
                out.push(AlgoSend {
                    to: u,
                    payload: seed_mix(self.state, u64::from(self.round))
                        .to_le_bytes()
                        .to_vec(),
                });
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.state.to_le_bytes().to_vec())
    }
}

/// A random adversarial inbox sequence for node `v`: each round an
/// arbitrary (possibly empty) subset of the neighbors — exactly how a
/// mis-scheduled executor truncates deliveries — with 8-byte tokens or
/// max-size payloads.
fn random_rounds(g: &Graph, v: NodeId, t: u32, rng: &mut StdRng) -> Vec<Vec<(NodeId, Vec<u8>)>> {
    (0..t)
        .map(|_| {
            let mut inbox: Vec<(NodeId, Vec<u8>)> = Vec::new();
            for &(u, _) in g.neighbors(v) {
                if !rng.gen_bool(0.5) {
                    continue;
                }
                let len = if rng.gen_bool(0.25) { MAX_PAYLOAD } else { 8 };
                let p: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                inbox.push((u, p));
            }
            // canonical (sorted) order, as the executor delivers
            inbox.sort();
            inbox
        })
        .collect()
}

/// The spec fold: step round by round, collecting each round's sends as
/// one segment, plus the final output.
type Segments = Vec<Vec<(NodeId, Vec<u8>)>>;

fn fold_of_step(
    m: &mut dyn AlgoNode,
    rounds: &[Vec<(NodeId, Vec<u8>)>],
) -> (Segments, Option<Vec<u8>>) {
    let segs = rounds
        .iter()
        .map(|inbox| {
            m.step(inbox)
                .into_iter()
                .map(|s| (s.to, s.payload))
                .collect()
        })
        .collect();
    (segs, m.output())
}

fn segments_of(b: &BatchedSends) -> Segments {
    (0..b.segments())
        .map(|i| b.segment(i).map(|(to, p)| (to, p.to_vec())).collect())
        .collect()
}

/// The slab's `step_into` ≡ the boxed machine's `step`, per node, on the
/// same adversarial inbox sequence.
fn assert_step_into_matches_per_node(g: &Graph, algo: &dyn BlackBoxAlgorithm, seed: u64, ws: u64) {
    let n = g.node_count();
    let nodes: Vec<NodeId> = (0..n).map(|v| NodeId(v as u32)).collect();
    let seeds: Vec<u64> = (0..n).map(|v| seed_mix(seed, v as u64)).collect();
    let t = algo.rounds();
    let mut slab = algo.create_nodes(&nodes, n, &seeds);
    let mut sends = BatchedSends::new();
    for (v, &node_seed) in seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed_mix(ws, v as u64));
        let rounds = random_rounds(g, NodeId(v as u32), t, &mut rng);
        let mut spec = algo.create_node(NodeId(v as u32), n, node_seed);
        let (expect, expect_out) = fold_of_step(spec.as_mut(), &rounds);

        for (r, inbox) in rounds.iter().enumerate() {
            sends.clear();
            slab.step_into(v, inbox, &mut sends);
            assert_eq!(
                segments_of(&sends),
                vec![expect[r].clone()],
                "aid {:?} node {v} round {r}: slab step_into diverged",
                algo.aid()
            );
        }
        assert_eq!(
            slab.output(v),
            expect_out,
            "aid {:?} node {v}: slab output diverged",
            algo.aid()
        );
    }
}

/// `step_block` over a whole node block ≡ per-node `step`, with random
/// per-round truncation (skipped nodes), empty inboxes, and max-size
/// payloads.
fn assert_step_block_matches_per_node(g: &Graph, algo: &dyn BlackBoxAlgorithm, seed: u64, ws: u64) {
    let n = g.node_count();
    let nodes: Vec<NodeId> = (0..n).map(|v| NodeId(v as u32)).collect();
    let seeds: Vec<u64> = (0..n).map(|v| seed_mix(seed, v as u64)).collect();
    let mut slab = algo.create_nodes(&nodes, n, &seeds);
    let mut spec: Vec<Box<dyn AlgoNode>> = (0..n)
        .map(|v| algo.create_node(NodeId(v as u32), n, seeds[v]))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed_mix(ws, 0xB10C));
    let mut rounds_done = vec![0u32; n];
    let mut sends = BatchedSends::new();
    for _ in 0..algo.rounds() {
        // mis-scheduled truncation: only a subset of nodes steps this round
        let stepping: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.8)).collect();
        let mut flat: Vec<(NodeId, Vec<u8>)> = Vec::new();
        let mut steps: Vec<BlockStep> = Vec::new();
        let mut inboxes: Vec<Vec<(NodeId, Vec<u8>)>> = Vec::new();
        for &v in &stepping {
            let mut inbox = random_rounds(g, NodeId(v as u32), 1, &mut rng).remove(0);
            let start = flat.len() as u32;
            flat.extend(inbox.iter().cloned());
            steps.push(BlockStep {
                node: v as u32,
                round: rounds_done[v],
                inbox_start: start,
                inbox_len: inbox.len() as u32,
            });
            rounds_done[v] += 1;
            inboxes.push(std::mem::take(&mut inbox));
        }
        sends.clear();
        slab.step_block(&steps, &flat, &mut sends);
        assert_eq!(
            sends.segments(),
            steps.len(),
            "aid {:?}: step_block must emit one segment per block step",
            algo.aid()
        );
        for (si, &v) in stepping.iter().enumerate() {
            let expect: Vec<(NodeId, Vec<u8>)> = spec[v]
                .step(&inboxes[si])
                .into_iter()
                .map(|s| (s.to, s.payload))
                .collect();
            let got: Vec<(NodeId, Vec<u8>)> =
                sends.segment(si).map(|(to, p)| (to, p.to_vec())).collect();
            assert_eq!(
                got,
                expect,
                "aid {:?} node {v}: step_block segment diverged from step",
                algo.aid()
            );
        }
    }
    for (v, machine) in spec.iter().enumerate() {
        assert_eq!(
            slab.output(v),
            machine.output(),
            "aid {:?} node {v}: outputs diverged after blocked stepping",
            algo.aid()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Slabs match boxed machines through `step_into`, for every family on
    /// random connected graphs.
    #[test]
    fn step_into_equals_per_node_step(gs in 0u64..200, ws in 0u64..200) {
        let g = generators::gnp_connected(10, 3.0 / 10.0, gs);
        for algo in build_algos(&g, gs) {
            assert_step_into_matches_per_node(&g, algo.as_ref(), gs.wrapping_add(11), ws);
        }
    }

    /// Node-block dispatch (`step_block`) matches per-node `step` under
    /// random truncation, for every family.
    #[test]
    fn step_block_equals_per_node_step(gs in 0u64..200, ws in 0u64..200) {
        let g = generators::gnp_connected(10, 3.0 / 10.0, gs);
        for algo in build_algos(&g, gs) {
            assert_step_block_matches_per_node(&g, algo.as_ref(), gs.wrapping_add(13), ws);
        }
    }
}
