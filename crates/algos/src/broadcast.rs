//! `k`-message broadcast (§1 item I).
//!
//! The schedulable unit is [`SingleBroadcast`]: one message flooded to the
//! `h`-hop neighborhood of its source. Running `k` of them together is the
//! classical `k`-broadcast problem; [`KBroadcastProtocol`] is the textbook
//! combined algorithm ("each round, forward one message you have not
//! forwarded, TTL `h`") whose `O(k + h)` round count the schedulers are
//! compared against.

use crate::adjacency::Adjacency;
use das_congest::{util, Protocol, ProtocolNode, RoundContext};
use das_core::{Aid, AlgoNode, AlgoSend, BlackBoxAlgorithm};
use das_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One source broadcasting one message to its `h`-hop neighborhood, as a
/// schedulable black box. Each node outputs a digest of the message and
/// the round it first arrived.
#[derive(Clone, Debug)]
pub struct SingleBroadcast {
    aid: Aid,
    source: NodeId,
    hops: u32,
    adjacency: Arc<Adjacency>,
}

impl SingleBroadcast {
    /// Creates the broadcast of message `aid` from `source` to `hops`
    /// hops.
    pub fn new(aid: u64, g: &Graph, source: NodeId, hops: u32) -> Self {
        assert!(hops > 0, "broadcast needs at least one hop");
        SingleBroadcast {
            aid: Aid(aid),
            source,
            hops,
            adjacency: Adjacency::of(g),
        }
    }
}

struct SingleBroadcastNode {
    adjacency: Arc<Adjacency>,
    me: NodeId,
    hops: u32,
    round: u32,
    payload: Option<u64>,
    heard_at: Option<u32>,
    pending: bool,
}

impl BlackBoxAlgorithm for SingleBroadcast {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        self.hops + 1
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        let is_source = v == self.source;
        Box::new(SingleBroadcastNode {
            adjacency: Arc::clone(&self.adjacency),
            me: v,
            hops: self.hops,
            round: 0,
            payload: is_source.then(|| das_congest::util::seed_mix(seed, self.aid.0)),
            heard_at: is_source.then_some(0),
            pending: is_source,
        })
    }
}

impl AlgoNode for SingleBroadcastNode {
    fn step(&mut self, inbox: &[(NodeId, Vec<u8>)]) -> Vec<AlgoSend> {
        for (_, payload) in inbox {
            if self.payload.is_none() {
                self.payload = Some(u64::from_le_bytes(payload[..8].try_into().expect("token")));
                self.heard_at = Some(self.round);
                self.pending = true;
            }
        }
        let mut out = Vec::new();
        if self.pending && self.round < self.hops {
            self.pending = false;
            let bytes = self.payload.expect("pending implies payload").to_le_bytes();
            for &u in self.adjacency.neighbors(self.me) {
                out.push(AlgoSend {
                    to: u,
                    payload: bytes.to_vec(),
                });
            }
        }
        self.round += 1;
        out
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.payload.map(|p| {
            let mut v = p.to_le_bytes().to_vec();
            v.extend_from_slice(&self.heard_at.expect("heard").to_le_bytes());
            v
        })
    }
}

/// The classical combined `k`-broadcast: every node, every round, forwards
/// the smallest-id message it has received but not yet forwarded (if its
/// remaining TTL allows). Runs in `O(k + h)` rounds [Topkis 1985].
///
/// Message ids are the indices `0..k`; node outputs are the XOR-fold of
/// `(id, payload)` pairs received, so completeness is checkable.
pub struct KBroadcastProtocol {
    /// (source, payload) per message.
    pub messages: Vec<(NodeId, u64)>,
    /// Hop limit `h`.
    pub hops: u32,
}

impl KBroadcastProtocol {
    /// Creates the protocol.
    pub fn new(messages: Vec<(NodeId, u64)>, hops: u32) -> Self {
        assert!(!messages.is_empty(), "need at least one message");
        KBroadcastProtocol { messages, hops }
    }

    /// The expected digest at node `v`: XOR over messages whose source is
    /// within `h` hops.
    pub fn expected_digest(&self, g: &Graph, v: NodeId) -> u64 {
        let mut acc = 0u64;
        for (i, &(src, payload)) in self.messages.iter().enumerate() {
            let d = das_graph::traversal::bfs_distances(g, src)[v.index()];
            if d.is_some_and(|d| d <= self.hops) {
                acc ^= das_congest::util::seed_mix(payload, i as u64);
            }
        }
        acc
    }
}

struct KBroadcastNode {
    hops: u32,
    /// (message id) -> (payload, hops traveled when received).
    have: Vec<Option<(u64, u32)>>,
    sent: BTreeSet<u32>,
    digest: u64,
    done_quiet: bool,
}

impl Protocol for KBroadcastProtocol {
    fn create_node(&self, id: NodeId, _n: usize, _deg: usize) -> Box<dyn ProtocolNode> {
        let mut have = vec![None; self.messages.len()];
        let mut digest = 0u64;
        for (i, &(src, payload)) in self.messages.iter().enumerate() {
            if src == id {
                have[i] = Some((payload, 0));
                digest ^= das_congest::util::seed_mix(payload, i as u64);
            }
        }
        Box::new(KBroadcastNode {
            hops: self.hops,
            have,
            sent: BTreeSet::new(),
            digest,
            done_quiet: false,
        })
    }
}

impl ProtocolNode for KBroadcastNode {
    fn round(&mut self, ctx: &mut RoundContext<'_>) {
        for env in ctx.inbox() {
            if let Some((9, words)) = util::decode(&env.payload) {
                let (id, hops) = util::unpack2(words[0]);
                let payload = words[1];
                if self.have[id as usize].is_none() {
                    self.have[id as usize] = Some((payload, hops));
                    self.digest ^= das_congest::util::seed_mix(payload, id as u64);
                }
            }
        }
        // forward the smallest-id message not yet forwarded whose TTL allows
        let next = self
            .have
            .iter()
            .enumerate()
            .find(|&(i, slot)| {
                slot.is_some_and(|(_, h)| h < self.hops) && !self.sent.contains(&(i as u32))
            })
            .map(|(i, slot)| (i as u32, slot.expect("found")));
        match next {
            Some((id, (payload, hops))) => {
                self.sent.insert(id);
                self.done_quiet = false;
                let msg = util::encode(9, &[util::pack2(id, hops + 1), payload]);
                ctx.send_all(msg).expect("broadcast fits the model");
            }
            None => self.done_quiet = true,
        }
    }

    fn is_done(&self) -> bool {
        self.done_quiet
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.digest.to_le_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_congest::{Engine, EngineConfig};
    use das_core::{run_alone, DasProblem, Scheduler, SequentialScheduler};
    use das_graph::generators;

    #[test]
    fn single_broadcast_reaches_exactly_the_ball() {
        let g = generators::grid(5, 5);
        let b = SingleBroadcast::new(7, &g, NodeId(12), 3);
        let r = run_alone(&g, &b, 3).unwrap();
        let dist = das_graph::traversal::bfs_distances(&g, NodeId(12));
        for v in g.nodes() {
            let inside = dist[v.index()].unwrap() <= 3;
            assert_eq!(r.outputs[v.index()].is_some(), inside, "node {v}");
        }
    }

    #[test]
    fn single_broadcast_schedulable() {
        let g = generators::grid(4, 4);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..5)
            .map(|i| {
                Box::new(SingleBroadcast::new(i, &g, NodeId((i * 3) as u32), 4))
                    as Box<dyn BlackBoxAlgorithm>
            })
            .collect();
        let p = DasProblem::new(&g, algos, 3);
        let outcome = SequentialScheduler.run(&p).unwrap();
        assert!(das_core::verify::against_references(&p, &outcome)
            .unwrap()
            .all_correct());
    }

    #[test]
    fn k_broadcast_pipelines_in_k_plus_h() {
        let g = generators::path(30);
        let k = 12;
        let h = 29u32;
        let messages: Vec<(NodeId, u64)> = (0..k)
            .map(|i| (NodeId(i as u32), 1000 + i as u64))
            .collect();
        let proto = KBroadcastProtocol::new(messages, h);
        let report = Engine::new(&g, EngineConfig::default())
            .run(&proto)
            .unwrap();
        // correctness: digests match the expected k-hop coverage
        for v in g.nodes() {
            let got = u64::from_le_bytes(
                report.outputs[v.index()].as_ref().unwrap()[..8]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(got, proto.expected_digest(&g, v), "node {v}");
        }
        // pipelining: O(k + h), not k * h
        assert!(
            report.rounds <= (k as u64 + h as u64) + 4,
            "rounds {} exceed k + h + slack",
            report.rounds
        );
    }

    #[test]
    fn k_broadcast_respects_ttl() {
        let g = generators::path(10);
        let proto = KBroadcastProtocol::new(vec![(NodeId(0), 5)], 3);
        let report = Engine::new(&g, EngineConfig::default())
            .run(&proto)
            .unwrap();
        let expect_in = proto.expected_digest(&g, NodeId(3));
        assert_ne!(expect_in, 0);
        let got3 = u64::from_le_bytes(report.outputs[3].as_ref().unwrap()[..8].try_into().unwrap());
        let got4 = u64::from_le_bytes(report.outputs[4].as_ref().unwrap()[..8].try_into().unwrap());
        assert_eq!(got3, expect_in);
        assert_eq!(got4, 0, "TTL 3 must not reach node 4");
    }
}
