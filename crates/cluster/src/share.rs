//! In-cluster randomness sharing (Lemma 4.3).
//!
//! Each cluster center owns `Θ(log n)` chunks of `Θ(log n)` random bits
//! (64-bit words here) — `Θ(log² n)` bits in total. The chunks flood the
//! center's ball with the same fake initial hop-count as the carving, but
//! *pipelined*: every round each node forwards the lexicographically
//! smallest `(hop, label, sub-label)` message it has not forwarded yet
//! (Lenzen's pipelining). After `H + Θ(#chunks)` rounds every node holds
//! its own center's complete seed.

use crate::layers::Layer;
use das_congest::{run_rounds, util, AlgoNode, Inbox, NodeBatch, OutputSink, Sends, Until};
use das_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

const TAG_SHARE: u8 = 4;

/// Sharing parameters.
#[derive(Clone, Debug)]
pub struct ShareConfig {
    /// Chunks per cluster (`Θ(log n)`, 64 random bits each).
    pub chunks: usize,
    /// Travel horizon `H` (same as the carving horizon).
    pub horizon: u32,
    /// Extra rounds allowed for pipelining delays (`Θ(chunks)`).
    pub slack: u32,
}

impl ShareConfig {
    /// Default: `⌈log₂ n⌉` chunks, pipelining slack `2·chunks + 4`.
    pub fn for_graph(g: &Graph, horizon: u32) -> Self {
        let chunks = (g.node_count().max(2) as f64).log2().ceil() as usize;
        ShareConfig {
            chunks,
            horizon,
            slack: 2 * chunks as u32 + 4,
        }
    }

    /// Rounds the sharing protocol needs per layer.
    pub fn rounds_needed(&self) -> u64 {
        self.horizon as u64 + self.slack as u64 + 1
    }
}

/// The shared randomness each node ends up holding, per layer:
/// `seeds[layer][node]` is the chunk vector of that node's cluster center.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedSeeds {
    /// `[layer][node] -> chunks` (empty vec if undelivered).
    pub seeds: Vec<Vec<Vec<u64>>>,
    /// Total CONGEST rounds used (or chargeable) across layers.
    pub rounds: u64,
}

impl SharedSeeds {
    /// The seed bytes of node `v` in `layer` (chunks concatenated
    /// little-endian), for feeding a PRG.
    pub fn seed_bytes(&self, layer: usize, v: NodeId) -> Vec<u8> {
        self.seeds[layer][v.index()]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }
}

/// Generates the chunk vector each node *would* publish as a center.
/// Deterministic in `(seed, node)` — this models each node's private
/// randomness, drawn before the protocol starts.
pub fn center_chunks(n: usize, chunks: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..n)
        .map(|v| {
            let mut rng = StdRng::seed_from_u64(util::seed_mix(seed, v as u64));
            (0..chunks).map(|_| rng.gen()).collect()
        })
        .collect()
}

/// Centralized reference for one layer: every node simply receives its
/// center's chunks.
pub fn share_layer_centralized(layer: &Layer, chunks_of: &[Vec<u64>]) -> Vec<Vec<u64>> {
    layer
        .center
        .iter()
        .map(|c| chunks_of[c.index()].clone())
        .collect()
}

/// The distributed pipelined sharing protocol for one layer.
pub struct SharingProtocol {
    layer: Layer,
    chunks_of: Vec<Vec<u64>>,
    config: ShareConfig,
}

impl SharingProtocol {
    /// Creates the protocol. `chunks_of[v]` is the chunk vector node `v`
    /// would publish if it is a center.
    pub fn new(layer: Layer, chunks_of: Vec<Vec<u64>>, config: ShareConfig) -> Self {
        SharingProtocol {
            layer,
            chunks_of,
            config,
        }
    }

    /// One machine per node of `g`.
    pub fn machines(&self, g: &Graph) -> NodeBatch {
        NodeBatch::for_graph(g, |id, neighbors| {
            let my_label = self.layer.label[id.index()];
            let mut pending = BTreeMap::new();
            let mut collected = BTreeMap::new();
            if self.layer.is_center(id) {
                let r = self.layer.params.radius[id.index()].min(self.layer.params.horizon);
                let h0 = self.layer.params.horizon - r;
                let label = self.layer.params.label[id.index()];
                for (sub, &data) in self.chunks_of[id.index()].iter().enumerate() {
                    pending.insert((label, sub as u32), (h0, data));
                    if my_label == label {
                        collected.insert(sub as u32, data);
                    }
                }
            }
            Box::new(SharingNode {
                neighbors,
                round: 0,
                my_label,
                horizon: self.config.horizon,
                pending,
                sent: HashSet::new(),
                collected,
                chunk_count: self.config.chunks as u32,
            })
        })
    }
}

/// Pipelining priority key: `(label, sub-label)`. At every node, the
/// messages of its *own* cluster carry the globally smallest label among
/// all messages that can reach it (any message reaching `v` comes from a
/// ball covering `v`, and `v` joined the smallest-labeled such ball), so
/// with this order own-cluster chunks are never starved — Lenzen's
/// pipelining argument then bounds the delay by the number of chunks.
type MsgKey = (u64, u32);

struct SharingNode {
    neighbors: Vec<NodeId>,
    /// Rounds stepped so far.
    round: u32,
    /// My cluster's label — I keep chunks that carry it.
    my_label: u64,
    horizon: u32,
    /// Pending messages to forward: key -> (hop, chunk data). If several
    /// copies of a chunk arrive over different paths, the smallest
    /// hop-count (= most remaining range) is kept.
    pending: BTreeMap<MsgKey, (u32, u64)>,
    /// (label, sub) already forwarded — only then are later copies
    /// redundant.
    sent: HashSet<(u64, u32)>,
    /// Collected chunks of my own cluster: sub -> data.
    collected: BTreeMap<u32, u64>,
    chunk_count: u32,
}

impl AlgoNode for SharingNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        // Round t is the paper's round i = t + 1 (as in the carving).
        self.round += 1;
        let i = self.round;
        for (_, payload) in inbox {
            if let Some((TAG_SHARE, words)) = util::decode(payload) {
                let (hop, sub) = util::unpack2(words[0]);
                let label = words[1];
                let data = words[2];
                if label == self.my_label {
                    self.collected.entry(sub).or_insert(data);
                }
                if !self.sent.contains(&(label, sub)) {
                    let entry = self.pending.entry((label, sub)).or_insert((hop, data));
                    if hop < entry.0 {
                        *entry = (hop, data);
                    }
                }
            }
        }
        // Forward the smallest-keyed pending message whose hop-count allows
        // one more hop and whose "virtual time" has come (hop < i; only a
        // center's own injections can still be in the future).
        let key = self
            .pending
            .iter()
            .find(|&(_, &(hop, _))| hop < i && hop < self.horizon)
            .map(|(&k, _)| k);
        if let Some(key @ (label, sub)) = key {
            let (hop, data) = self.pending.remove(&key).expect("key just found");
            self.sent.insert(key);
            let payload = util::encode(TAG_SHARE, &[util::pack2(hop + 1, sub), label, data]);
            out.push_all(&self.neighbors, &payload);
        }
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        let mut words = Vec::with_capacity(self.collected.len());
        for sub in 0..self.chunk_count {
            words.push(self.collected.get(&sub).copied().unwrap_or(u64::MAX));
        }
        out.put(&util::encode(TAG_SHARE, &words));
    }
}

/// Runs the distributed sharing for one layer; returns
/// `(per-node chunk vectors, rounds used, all_delivered)`.
pub fn share_layer_distributed(
    g: &Graph,
    layer: &Layer,
    chunks_of: &[Vec<u64>],
    config: &ShareConfig,
) -> (Vec<Vec<u64>>, u64, bool) {
    let proto = SharingProtocol::new(layer.clone(), chunks_of.to_vec(), config.clone());
    let mut batch = proto.machines(g);
    let rounds = u32::try_from(config.rounds_needed()).expect("a layer's sharing fits u32 rounds");
    let ran = run_rounds(g, &mut batch, Until::exactly(rounds), None)
        .expect("sharing respects the model");
    let mut all = true;
    let seeds = batch
        .outputs()
        .iter()
        .map(|o| {
            let (tag, words) = util::decode(o.as_ref().expect("every node outputs"))
                .expect("sharing output is well-formed");
            assert_eq!(tag, TAG_SHARE);
            if words.contains(&u64::MAX) {
                all = false;
            }
            words
        })
        .collect();
    (seeds, ran.rounds.into(), all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{CarveConfig, Clustering};
    use das_graph::generators;

    fn shared_on(g: &Graph, dilation: u32, seed: u64) -> bool {
        let cfg = CarveConfig::for_dilation(g, dilation).with_num_layers(3);
        let cl = Clustering::carve_centralized(g, &cfg, seed);
        let share_cfg = ShareConfig::for_graph(g, cfg.horizon);
        let chunks = center_chunks(g.node_count(), share_cfg.chunks, seed + 7);
        let mut ok = true;
        for layer in cl.layers() {
            let want = share_layer_centralized(layer, &chunks);
            let (got, rounds, delivered) = share_layer_distributed(g, layer, &chunks, &share_cfg);
            ok &= delivered && got == want;
            assert_eq!(rounds, share_cfg.rounds_needed());
        }
        ok
    }

    #[test]
    fn delivery_on_small_graphs() {
        assert!(shared_on(&generators::path(12), 2, 1));
        assert!(shared_on(&generators::grid(5, 5), 2, 2));
        assert!(shared_on(&generators::gnp_connected(30, 0.1, 4), 1, 3));
        assert!(shared_on(&generators::balanced_tree(20, 3), 2, 4));
    }

    #[test]
    fn centralized_reference_matches_centers() {
        let g = generators::grid(4, 4);
        let cfg = CarveConfig::for_dilation(&g, 1).with_num_layers(2);
        let cl = Clustering::carve_centralized(&g, &cfg, 5);
        let chunks = center_chunks(16, 4, 9);
        for layer in cl.layers() {
            let seeds = share_layer_centralized(layer, &chunks);
            for v in g.nodes() {
                assert_eq!(seeds[v.index()], chunks[layer.center[v.index()].index()]);
                assert_eq!(seeds[v.index()].len(), 4);
            }
        }
    }

    #[test]
    fn center_chunks_deterministic_and_distinct() {
        let a = center_chunks(5, 3, 42);
        let b = center_chunks(5, 3, 42);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "different nodes draw different chunks");
        let c = center_chunks(5, 3, 43);
        assert_ne!(a, c, "different seeds draw different chunks");
    }

    #[test]
    fn same_cluster_members_agree_on_seed() {
        let g = generators::gnp_connected(25, 0.15, 6);
        let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(2);
        let cl = Clustering::carve_centralized(&g, &cfg, 6);
        let share_cfg = ShareConfig::for_graph(&g, cfg.horizon);
        let chunks = center_chunks(25, share_cfg.chunks, 8);
        let layer = &cl.layers()[0];
        let (got, _, delivered) = share_layer_distributed(&g, layer, &chunks, &share_cfg);
        assert!(delivered);
        for v in g.nodes() {
            for u in g.nodes() {
                if layer.center[v.index()] == layer.center[u.index()] {
                    assert_eq!(got[v.index()], got[u.index()]);
                }
            }
        }
    }

    #[test]
    fn seed_bytes_concatenation() {
        let seeds = SharedSeeds {
            seeds: vec![vec![vec![1u64, 2u64]]],
            rounds: 0,
        };
        let bytes = seeds.seed_bytes(0, NodeId(0));
        assert_eq!(bytes.len(), 16);
        assert_eq!(&bytes[..8], &1u64.to_le_bytes());
        assert_eq!(&bytes[8..], &2u64.to_le_bytes());
    }
}
