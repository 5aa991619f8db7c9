//! Appendix A: `(1+ε)`-approximate distinct elements in `d`-hop
//! neighborhoods via threshold hashing — the paper's worked example of
//! removing shared randomness from a *Bellagio* algorithm.
//!
//! Every node holds an input string; the goal is for each node to estimate
//! the number of distinct strings within `d` hops. With a shared hash seed
//! the algorithm is classical: for each threshold `k_j = (1+ε)^j` and each
//! of `Θ(log n/ε²)` iterations, hash every string to one bit with
//! `Pr[1] = 1 − 2^{−1/k_j}`, OR-flood the bits `d` hops (bundling
//! `Θ(log n)` bits per CONGEST message), and read the count off the
//! majority transition — `O(d·log n/ε³)` rounds.
//!
//! [`estimate_shared`] runs exactly that. [`estimate_private`] removes the
//! shared seed the way Appendix A prescribes: carve clusters of radius
//! `Θ(d·log n)` (Lemma 4.2), share a seed inside each cluster (Lemma 4.3),
//! run the algorithm once per layer with per-cluster seeds — a node's
//! estimate is untouched by foreign seeds as long as its `d`-ball lies in
//! one cluster, since the OR-flood has influence radius exactly `d` — and
//! let each node adopt the estimate from a covering layer.

use das_cluster::{CarveConfig, Clustering, ShareConfig};
use das_congest::{run_rounds, util, AlgoNode, Inbox, NodeBatch, OutputSink, Sends, Until};
use das_graph::{traversal, Graph, NodeId};

/// Parameters of a distinct-elements instance.
#[derive(Clone, Debug)]
pub struct DistinctConfig {
    /// Neighborhood radius `d`.
    pub radius: u32,
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// Iterations per threshold (`Θ(log n/ε²)`); `None` = derive from `n`.
    pub iterations: Option<usize>,
}

impl DistinctConfig {
    /// Creates a config with derived iteration count.
    pub fn new(radius: u32, eps: f64) -> Self {
        assert!(radius > 0, "radius must be positive");
        assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
        DistinctConfig {
            radius,
            eps,
            iterations: None,
        }
    }

    fn thresholds(&self, n: usize) -> Vec<f64> {
        let mut ks = vec![1.0];
        while *ks.last().expect("non-empty") < n as f64 {
            ks.push(ks.last().expect("non-empty") * (1.0 + self.eps));
        }
        ks
    }

    fn iters(&self, n: usize) -> usize {
        self.iterations.unwrap_or_else(|| {
            ((4.0 * (n.max(2) as f64).ln()) / (self.eps * self.eps)).ceil() as usize
        })
    }
}

/// `Pr[h(x) = 1] = 1 − 2^{−1/k}`, evaluated by seeded hashing — the
/// paper's per-threshold binary hash. Deterministic in `(seed, x, j, i)`.
fn threshold_bit(seed: u64, x: u64, j: u64, i: u64, k: f64) -> bool {
    let h = util::seed_mix(util::seed_mix(seed, x), util::seed_mix(j, i));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0,1)
    u < 1.0 - (-1.0 / k).exp2()
}

/// The OR-flooding protocol: bundles of 64 bits, each flooded `d` hops,
/// processed sequentially. Per-node hash seeds are inputs (all equal in
/// the shared-randomness setting; per-cluster in the private setting).
pub struct DistinctProtocol {
    inputs: Vec<u64>,
    seeds: Vec<u64>,
    config: DistinctConfig,
    n: usize,
}

impl DistinctProtocol {
    /// Creates the protocol. `seeds[v]` is the hash seed node `v` uses.
    pub fn new(inputs: Vec<u64>, seeds: Vec<u64>, config: DistinctConfig) -> Self {
        assert_eq!(inputs.len(), seeds.len());
        let n = inputs.len();
        DistinctProtocol {
            inputs,
            seeds,
            config,
            n,
        }
    }

    /// Total (threshold, iteration) bit positions.
    fn total_bits(&self) -> usize {
        self.config.thresholds(self.n).len() * self.config.iters(self.n)
    }

    /// Number of 64-bit bundles.
    fn bundles(&self) -> usize {
        self.total_bits().div_ceil(64)
    }

    /// Rounds needed: one `d`-hop flood per bundle plus one readout
    /// round.
    pub fn rounds_needed(&self) -> u64 {
        self.bundles() as u64 * (self.config.radius as u64 + 1)
    }

    /// One machine per node of `g`.
    pub fn machines(&self, g: &Graph) -> NodeBatch {
        let thresholds = self.config.thresholds(self.n);
        let iters = self.config.iters(self.n);
        NodeBatch::for_graph(g, |id, neighbors| {
            let (seed, x) = (self.seeds[id.index()], self.inputs[id.index()]);
            let mut bits = Vec::with_capacity(thresholds.len() * iters);
            for (j, &k) in thresholds.iter().enumerate() {
                for i in 0..iters {
                    bits.push(threshold_bit(seed, x, j as u64, i as u64, k));
                }
            }
            Box::new(DistinctNode {
                neighbors,
                round: 0,
                acc: bits,
                radius: self.config.radius,
                thresholds: thresholds.clone(),
                iters,
                bundles: self.bundles(),
                eps: self.config.eps,
            })
        })
    }

    /// Runs the machines on `g` for [`DistinctProtocol::rounds_needed`]
    /// rounds; returns `(per-node estimates, rounds used)`.
    fn run(&self, g: &Graph) -> (Vec<f64>, u64) {
        let mut batch = self.machines(g);
        let rounds = u32::try_from(self.rounds_needed()).expect("the flood fits u32 rounds");
        let ran = run_rounds(g, &mut batch, Until::exactly(rounds), None)
            .expect("protocol fits the model");
        let est = batch
            .outputs()
            .iter()
            .map(|o| DistinctProtocol::decode_estimate(o.as_ref().expect("output")))
            .collect();
        (est, ran.rounds.into())
    }

    /// Decodes a node output into its distinct-count estimate.
    pub fn decode_estimate(payload: &[u8]) -> f64 {
        f64::from_le_bytes(payload[..8].try_into().expect("f64 estimate"))
    }
}

struct DistinctNode {
    neighbors: Vec<NodeId>,
    /// Rounds stepped so far.
    round: u64,
    /// OR-accumulated bits, starting from the node's own
    acc: Vec<bool>,
    radius: u32,
    thresholds: Vec<f64>,
    iters: usize,
    bundles: usize,
    eps: f64,
}

impl DistinctNode {
    fn bundle_mask(&self, b: usize) -> u64 {
        let mut mask = 0u64;
        for o in 0..64 {
            let idx = b * 64 + o;
            if idx < self.acc.len() && self.acc[idx] {
                mask |= 1 << o;
            }
        }
        mask
    }
}

impl AlgoNode for DistinctNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        let period = self.radius as u64 + 1;
        let t = self.round;
        self.round += 1;
        let b = (t / period) as usize;
        let step = t % period;
        // fold arrivals of the active bundle (sent in the previous round)
        for (_, payload) in inbox {
            if let Some((30, words)) = util::decode(payload) {
                let (bb, _) = util::unpack2(words[0]);
                let mask = words[1];
                let base = bb as usize * 64;
                for o in 0..64 {
                    if mask & (1 << o) != 0 {
                        let idx = base + o;
                        if idx < self.acc.len() {
                            self.acc[idx] = true;
                        }
                    }
                }
            }
        }
        if b < self.bundles && step < self.radius as u64 {
            let msg = util::encode(30, &[util::pack2(b as u32, 0), self.bundle_mask(b)]);
            out.push_all(&self.neighbors, &msg);
        }
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        // ones per threshold; estimate = first threshold where the OR
        // majority drops below 1/2
        let mut estimate = *self.thresholds.last().expect("non-empty");
        for (j, &k) in self.thresholds.iter().enumerate() {
            let ones = (0..self.iters)
                .filter(|&i| self.acc[j * self.iters + i])
                .count();
            if (ones as f64) < self.iters as f64 / 2.0 {
                estimate = k / (1.0 + self.eps / 2.0).sqrt();
                break;
            }
        }
        out.put(&estimate.to_le_bytes());
    }
}

/// Exact distinct counts per node (centralized reference).
pub fn exact_distinct(g: &Graph, inputs: &[u64], radius: u32) -> Vec<usize> {
    g.nodes()
        .map(|v| {
            let mut vals: Vec<u64> = traversal::ball(g, v, radius)
                .into_iter()
                .map(|u| inputs[u.index()])
                .collect();
            vals.sort_unstable();
            vals.dedup();
            vals.len()
        })
        .collect()
}

/// Runs the shared-randomness algorithm: one global hash seed. Returns
/// `(per-node estimates, rounds used)`.
pub fn estimate_shared(
    g: &Graph,
    inputs: &[u64],
    config: &DistinctConfig,
    shared_seed: u64,
) -> (Vec<f64>, u64) {
    DistinctProtocol::new(
        inputs.to_vec(),
        vec![shared_seed; g.node_count()],
        config.clone(),
    )
    .run(g)
}

/// Result of the private-randomness (Bellagio-derandomized) run.
#[derive(Clone, Debug)]
pub struct PrivateDistinctOutcome {
    /// Per-node estimates (`None` if no layer covered the node's ball —
    /// w.h.p. this does not happen).
    pub estimates: Vec<Option<f64>>,
    /// Total rounds: clustering + sharing + one protocol run per layer.
    pub total_rounds: u64,
    /// Fraction of nodes with at least one covering layer.
    pub coverage: f64,
}

/// Runs the Appendix A derandomization: per-cluster seeds from Lemmas
/// 4.2/4.3, one protocol run per clustering layer, outputs adopted from a
/// covering layer.
pub fn estimate_private(
    g: &Graph,
    inputs: &[u64],
    config: &DistinctConfig,
    num_layers: usize,
    seed: u64,
) -> PrivateDistinctOutcome {
    let n = g.node_count();
    let carve_cfg = CarveConfig::for_dilation(g, config.radius).with_num_layers(num_layers);
    let clustering = Clustering::carve_centralized(g, &carve_cfg, seed);
    let share_cfg = ShareConfig::for_graph(g, carve_cfg.horizon);
    let chunks = das_cluster::share::center_chunks(n, share_cfg.chunks, seed ^ 0xD157);
    let mut total_rounds =
        clustering.precompute_rounds() + num_layers as u64 * share_cfg.rounds_needed();

    let mut estimates: Vec<Option<f64>> = vec![None; n];
    for layer in clustering.layers() {
        let seeds_bytes = das_cluster::share_layer_centralized(layer, &chunks);
        // fold each node's cluster seed words into one u64 hash seed
        let seeds: Vec<u64> = seeds_bytes
            .iter()
            .map(|ws| ws.iter().fold(0u64, |acc, &w| util::seed_mix(acc, w)))
            .collect();
        let (layer_estimates, rounds) =
            DistinctProtocol::new(inputs.to_vec(), seeds, config.clone()).run(g);
        total_rounds += rounds;
        for v in g.nodes() {
            if estimates[v.index()].is_none() && layer.contained_radius[v.index()] >= config.radius
            {
                estimates[v.index()] = Some(layer_estimates[v.index()]);
            }
        }
    }
    let covered = estimates.iter().filter(|e| e.is_some()).count();
    PrivateDistinctOutcome {
        estimates,
        total_rounds,
        coverage: covered as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_graph::generators;

    fn inputs_with_duplicates(n: usize, distinct: usize, seed: u64) -> Vec<u64> {
        (0..n)
            .map(|v| util::seed_mix(seed, (v % distinct) as u64))
            .collect()
    }

    /// Fraction of nodes whose estimate is within a factor `tol` of truth.
    fn accuracy(est: &[f64], truth: &[usize], tol: f64) -> f64 {
        let ok = est
            .iter()
            .zip(truth)
            .filter(|&(&e, &t)| {
                let t = t as f64;
                e <= t * tol && e >= t / tol
            })
            .count();
        ok as f64 / est.len() as f64
    }

    #[test]
    fn exact_reference() {
        let g = generators::path(6);
        let inputs = vec![1, 1, 2, 2, 3, 3];
        let d = exact_distinct(&g, &inputs, 1);
        assert_eq!(d, vec![1, 2, 2, 2, 2, 1]);
        assert_eq!(exact_distinct(&g, &inputs, 5), vec![3; 6]);
    }

    #[test]
    fn shared_estimates_track_truth() {
        let g = generators::grid(5, 5);
        let inputs = inputs_with_duplicates(25, 12, 3);
        let config = DistinctConfig::new(2, 0.5);
        let (est, rounds) = estimate_shared(&g, &inputs, &config, 77);
        let truth = exact_distinct(&g, &inputs, 2);
        let acc = accuracy(&est, &truth, 2.5);
        assert!(acc >= 0.8, "accuracy {acc}");
        // round budget matches the O(d log n / eps^3) formula
        let proto = DistinctProtocol::new(inputs.clone(), vec![0; 25], config);
        assert_eq!(rounds, proto.rounds_needed());
    }

    #[test]
    fn estimates_grow_with_radius() {
        let g = generators::path(30);
        let inputs: Vec<u64> = (0..30).map(|v| util::seed_mix(9, v)).collect(); // all distinct
        let c_small = DistinctConfig::new(1, 0.5);
        let c_big = DistinctConfig::new(8, 0.5);
        let (e_small, _) = estimate_shared(&g, &inputs, &c_small, 4);
        let (e_big, _) = estimate_shared(&g, &inputs, &c_big, 4);
        let avg_small: f64 = e_small.iter().sum::<f64>() / 30.0;
        let avg_big: f64 = e_big.iter().sum::<f64>() / 30.0;
        assert!(avg_big > avg_small, "{avg_big} > {avg_small}");
    }

    #[test]
    fn private_matches_shared_quality() {
        let g = generators::grid(5, 5);
        let inputs = inputs_with_duplicates(25, 10, 5);
        let config = DistinctConfig::new(2, 0.5);
        let truth = exact_distinct(&g, &inputs, 2);
        let outcome = estimate_private(&g, &inputs, &config, 14, 21);
        assert!(outcome.coverage >= 0.95, "coverage {}", outcome.coverage);
        let est: Vec<f64> = outcome.estimates.iter().map(|e| e.unwrap_or(0.0)).collect();
        let acc = accuracy(&est, &truth, 2.5);
        assert!(acc >= 0.75, "accuracy {acc}");
        // total rounds include pre-computation
        assert!(outcome.total_rounds > 0);
    }
}
