//! Meta-Theorem A.1: removing shared randomness from *Bellagio*
//! (pseudo-deterministic) distributed algorithms.
//!
//! A randomized distributed algorithm parameterized by a shared seed is
//! **Bellagio** if for every input, every node outputs one *canonical*
//! value in at least 2/3 of the seed choices. For such algorithms the
//! paper's clustering machinery removes the shared-randomness assumption
//! wholesale:
//!
//! 1. carve `Θ(log n)` clustering layers padded for the algorithm's
//!    runtime `T` (Lemma 4.2);
//! 2. share a seed inside every cluster (Lemma 4.3);
//! 3. run the algorithm once per layer — each node using *its cluster's*
//!    seed, truncated at its contained radius so executions never straddle
//!    clusters;
//! 4. each node outputs the **majority vote** over the layers whose
//!    cluster contains its whole `T`-ball. Each such layer is a faithful
//!    partial simulation with a fresh seed, so each vote is canonical with
//!    probability ≥ 2/3, and the majority over `Θ(log n)` covering layers
//!    is canonical w.h.p.
//!
//! Cost: `O(T·log² n)` rounds total — the Meta-Theorem A.1 bound.

use crate::algorithm::{AlgoNode, NodeBatch};
use das_cluster::{CarveConfig, Clustering, ShareConfig};
use das_congest::util::seed_mix;
use das_congest::{run_rounds, ReferenceError, Until};
use das_graph::{Graph, NodeId};
use std::collections::HashMap;

/// A distributed algorithm family parameterized by a shared random seed.
///
/// `create_node` receives both the shared seed (the same value at every
/// node in the shared-randomness model; per-cluster after
/// derandomization) and a private tape seed.
pub trait SeededFamily {
    /// Running time `T` of the algorithm.
    fn rounds(&self) -> u32;

    /// Builds the machine for node `v`.
    fn create_node(
        &self,
        v: NodeId,
        n: usize,
        shared_seed: u64,
        private_seed: u64,
    ) -> Box<dyn AlgoNode>;

    /// Batched tier: builds the machines for all of `nodes` at once, with
    /// `shared_seeds[i]` / `private_seeds[i]` the seeds of `nodes[i]`.
    /// Slab machine `i` must behave identically to
    /// `create_node(nodes[i], n, shared_seeds[i], private_seeds[i])`. The
    /// default wraps a `create_node` loop; families override it to build
    /// contiguous state in one pass.
    fn create_nodes(
        &self,
        nodes: &[NodeId],
        n: usize,
        shared_seeds: &[u64],
        private_seeds: &[u64],
    ) -> NodeBatch {
        assert_eq!(nodes.len(), shared_seeds.len(), "one shared seed per node");
        assert_eq!(
            nodes.len(),
            private_seeds.len(),
            "one private seed per node"
        );
        NodeBatch::from_boxed(
            nodes
                .iter()
                .zip(shared_seeds.iter().zip(private_seeds))
                .map(|(&v, (&s, &p))| self.create_node(v, n, s, p))
                .collect(),
        )
    }
}

/// Runs the family alone with per-node shared-seed assignment and
/// optional per-node truncation: node `v` executes only rounds
/// `r < trunc[v]` (Lemma 4.4's partial execution). Returns per-node
/// outputs.
fn run_truncated(
    g: &Graph,
    family: &dyn SeededFamily,
    seeds: &[u64],
    trunc: Option<&[u32]>,
    private_seed: u64,
) -> Result<Vec<Option<Vec<u8>>>, ReferenceError> {
    let n = g.node_count();
    let nodes: Vec<NodeId> = (0..n).map(|v| NodeId(v as u32)).collect();
    let private_seeds: Vec<u64> = (0..n).map(|v| seed_mix(private_seed, v as u64)).collect();
    let mut batch = family.create_nodes(&nodes, n, seeds, &private_seeds);
    let until = Until::Rounds {
        rounds: family.rounds(),
        cap: trunc,
    };
    run_rounds(g, &mut batch, until, None)?;
    Ok(batch.outputs())
}

/// Runs the family in the shared-randomness model (every node holds the
/// same seed) — the baseline the derandomization is checked against.
///
/// # Errors
/// The family's first CONGEST-model violation.
pub fn run_with_global_seed(
    g: &Graph,
    family: &dyn SeededFamily,
    shared_seed: u64,
    private_seed: u64,
) -> Result<Vec<Option<Vec<u8>>>, ReferenceError> {
    run_truncated(
        g,
        family,
        &vec![shared_seed; g.node_count()],
        None,
        private_seed,
    )
}

/// Configuration of the derandomization.
#[derive(Clone, Debug)]
pub struct BellagioConfig {
    /// Number of clustering layers (`Θ(log n)` default).
    pub layers: Option<usize>,
    /// Base seed for all private draws.
    pub seed: u64,
}

impl Default for BellagioConfig {
    fn default() -> Self {
        BellagioConfig {
            layers: None,
            seed: 0xBE11A610,
        }
    }
}

/// The result of the derandomized execution.
#[derive(Clone, Debug)]
pub struct BellagioOutcome {
    /// Majority-vote outputs (`None` where no layer covered the node —
    /// w.h.p. nowhere).
    pub outputs: Vec<Option<Vec<u8>>>,
    /// Per-layer raw outputs (for inspecting vote margins).
    pub layer_outputs: Vec<Vec<Option<Vec<u8>>>>,
    /// Fraction of nodes with at least one covering layer.
    pub coverage: f64,
    /// Total CONGEST rounds: carving + sharing + one truncated run per
    /// layer (the Meta-Theorem's `O(T log² n)`).
    pub total_rounds: u64,
}

/// The planned derandomization: clustering, per-layer per-node seed
/// assignments, and the analytic round accounting — everything decided
/// before any machine steps, mirroring the core pipeline's plan/execute
/// split (see [`crate::plan`]).
#[derive(Clone, Debug)]
pub struct DerandomizationPlan {
    /// The carved clustering (step 1).
    pub clustering: Clustering,
    /// Per-layer, per-node folded cluster seeds (step 2).
    pub layer_seeds: Vec<Vec<u64>>,
    /// The private tape seed threaded into every truncated run.
    pub private_seed: u64,
    /// Runtime `T` the plan was padded for.
    pub t_rounds: u32,
    /// Total CONGEST rounds the plan charges: carving + sharing + one
    /// truncated run per layer (the Meta-Theorem's `O(T log² n)`).
    pub total_rounds: u64,
}

/// Plans the derandomization of a Bellagio family: carves the layers,
/// shares one seed per cluster, and accounts the rounds — without running
/// the family.
pub fn plan_derandomization(
    g: &Graph,
    family: &dyn SeededFamily,
    config: &BellagioConfig,
) -> DerandomizationPlan {
    let n = g.node_count();
    let t_rounds = family.rounds();

    // 1. carve, padded for the algorithm's runtime
    let mut carve_cfg = CarveConfig::for_dilation(g, t_rounds);
    if let Some(l) = config.layers {
        carve_cfg = carve_cfg.with_num_layers(l);
    }
    let clustering = Clustering::carve_centralized(g, &carve_cfg, config.seed);
    let mut total_rounds = clustering.precompute_rounds();

    // 2. share one seed per cluster
    let share_cfg = ShareConfig::for_graph(g, carve_cfg.horizon);
    let chunks =
        das_cluster::share::center_chunks(n, share_cfg.chunks, seed_mix(config.seed, 0x5EED));
    let mut layer_seeds = Vec::with_capacity(clustering.layers().len());
    for layer in clustering.layers() {
        total_rounds += share_cfg.rounds_needed();
        let seeds_words = das_cluster::share_layer_centralized(layer, &chunks);
        let seeds: Vec<u64> = seeds_words
            .iter()
            .map(|ws| ws.iter().fold(0u64, |acc, &w| seed_mix(acc, w)))
            .collect();
        total_rounds += t_rounds as u64; // alone, one round per engine round
        layer_seeds.push(seeds);
    }

    DerandomizationPlan {
        clustering,
        layer_seeds,
        private_seed: seed_mix(config.seed, 0x7A9E),
        t_rounds,
        total_rounds,
    }
}

/// Executes a derandomization plan: one truncated run per layer with the
/// planned per-cluster seeds, then the majority vote over covering layers.
///
/// # Errors
/// The family's first CONGEST-model violation in any layer's run.
pub fn execute_derandomization(
    g: &Graph,
    family: &dyn SeededFamily,
    plan: &DerandomizationPlan,
) -> Result<BellagioOutcome, ReferenceError> {
    let n = g.node_count();
    let t_rounds = plan.t_rounds;

    // 3. one truncated run per layer with per-cluster seeds
    let mut layer_outputs = Vec::with_capacity(plan.clustering.layers().len());
    for (l, layer) in plan.clustering.layers().iter().enumerate() {
        let outputs = run_truncated(
            g,
            family,
            &plan.layer_seeds[l],
            Some(&layer.contained_radius),
            plan.private_seed,
        )?;
        layer_outputs.push(outputs);
    }

    // 4. majority vote over covering layers
    let mut outputs: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut covered = 0usize;
    for v in g.nodes() {
        let covering = plan.clustering.covering_layers(v, t_rounds);
        if covering.is_empty() {
            continue;
        }
        covered += 1;
        let mut votes: HashMap<&Option<Vec<u8>>, usize> = HashMap::new();
        for &l in &covering {
            *votes.entry(&layer_outputs[l][v.index()]).or_default() += 1;
        }
        let winner = votes
            .into_iter()
            .max_by_key(|&(out, c)| (c, out.is_some() as usize))
            .map(|(out, _)| out.clone())
            .expect("non-empty covering set");
        outputs[v.index()] = winner;
    }

    Ok(BellagioOutcome {
        outputs,
        layer_outputs,
        coverage: covered as f64 / n as f64,
        total_rounds: plan.total_rounds,
    })
}

/// Derandomizes a Bellagio family per Meta-Theorem A.1: plans, then
/// executes.
///
/// # Errors
/// The family's first CONGEST-model violation.
pub fn derandomize(
    g: &Graph,
    family: &dyn SeededFamily,
    config: &BellagioConfig,
) -> Result<BellagioOutcome, ReferenceError> {
    execute_derandomization(g, family, &plan_derandomization(g, family, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Inbox, OutputSink, Sends};
    use das_graph::generators;

    /// Demo Bellagio algorithm: "is the number of distinct inputs in my
    /// `h`-ball at least `threshold`?" — one threshold hash test repeated
    /// over iterations packed into a 64-bit OR-flood. The canonical output
    /// (the true bit) is produced for most seeds when the count is away
    /// from the threshold.
    struct ThresholdTest {
        inputs: Vec<u64>,
        neighbors: Vec<Vec<NodeId>>,
        h: u32,
        threshold: f64,
        iters: u32,
    }

    impl ThresholdTest {
        fn new(g: &Graph, inputs: Vec<u64>, h: u32, threshold: f64) -> Self {
            ThresholdTest {
                inputs,
                neighbors: g
                    .nodes()
                    .map(|v| g.neighbors(v).iter().map(|&(u, _)| u).collect())
                    .collect(),
                h,
                threshold,
                iters: 48,
            }
        }
    }

    struct ThresholdNode {
        neighbors: Vec<NodeId>,
        acc: u64,
        h: u32,
        round: u32,
        iters: u32,
    }

    impl SeededFamily for ThresholdTest {
        fn rounds(&self) -> u32 {
            self.h + 1
        }

        fn create_node(
            &self,
            v: NodeId,
            _n: usize,
            shared_seed: u64,
            _private_seed: u64,
        ) -> Box<dyn AlgoNode> {
            let mut acc = 0u64;
            for i in 0..self.iters {
                let hsh = seed_mix(seed_mix(shared_seed, self.inputs[v.index()]), i as u64);
                let u = (hsh >> 11) as f64 / (1u64 << 53) as f64;
                if u < 1.0 - (-1.0 / self.threshold).exp2() {
                    acc |= 1 << i;
                }
            }
            Box::new(ThresholdNode {
                neighbors: self.neighbors[v.index()].clone(),
                acc,
                h: self.h,
                round: 0,
                iters: self.iters,
            })
        }
    }

    impl AlgoNode for ThresholdNode {
        fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
            for (_, payload) in inbox {
                self.acc |= u64::from_le_bytes(payload[..8].try_into().unwrap());
            }
            if self.round < self.h {
                for &u in &self.neighbors {
                    out.push(u, &self.acc.to_le_bytes());
                }
            }
            self.round += 1;
        }

        fn output(&self, out: &mut OutputSink<'_>) {
            // majority of the OR bits decides
            let ones = self.acc.count_ones();
            out.put(&[(ones > self.iters / 2) as u8]);
        }
    }

    fn canonical_bits(g: &Graph, inputs: &[u64], h: u32, threshold: f64) -> Vec<u8> {
        g.nodes()
            .map(|v| {
                let mut vals: Vec<u64> = das_graph::traversal::ball(g, v, h)
                    .into_iter()
                    .map(|u| inputs[u.index()])
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                (vals.len() as f64 >= threshold) as u8
            })
            .collect()
    }

    #[test]
    fn family_is_bellagio_under_global_seeds() {
        // over many seeds, most executions output the canonical bit at
        // every node with a clear count margin
        let g = generators::grid(5, 5);
        let inputs: Vec<u64> = (0..25).map(|v| seed_mix(3, (v % 12) as u64)).collect();
        let fam = ThresholdTest::new(&g, inputs.clone(), 2, 4.0);
        let canon = canonical_bits(&g, &inputs, 2, 4.0);
        let mut canonical_votes = 0usize;
        let trials = 20;
        for s in 0..trials {
            let out = run_with_global_seed(&g, &fam, 1000 + s, 7).unwrap();
            let all_canon = g
                .nodes()
                .all(|v| out[v.index()].as_deref() == Some(&canon[v.index()..=v.index()]));
            canonical_votes += all_canon as usize;
        }
        assert!(
            canonical_votes as f64 / trials as f64 >= 0.7,
            "only {canonical_votes}/{trials} seed choices were fully canonical"
        );
    }

    #[test]
    fn derandomization_recovers_canonical_outputs() {
        let g = generators::grid(5, 5);
        let inputs: Vec<u64> = (0..25).map(|v| seed_mix(3, (v % 12) as u64)).collect();
        let fam = ThresholdTest::new(&g, inputs.clone(), 2, 4.0);
        let canon = canonical_bits(&g, &inputs, 2, 4.0);
        let outcome = derandomize(&g, &fam, &BellagioConfig::default()).unwrap();
        assert!(outcome.coverage >= 0.9, "coverage {}", outcome.coverage);
        let mut ok = 0usize;
        let mut total = 0usize;
        for v in g.nodes() {
            if let Some(out) = &outcome.outputs[v.index()] {
                total += 1;
                ok += (out[0] == canon[v.index()]) as usize;
            }
        }
        assert!(
            ok as f64 / total as f64 >= 0.9,
            "majority vote canonical at only {ok}/{total} nodes"
        );
        assert!(outcome.total_rounds > 0);
    }

    #[test]
    fn staged_derandomization_matches_fused() {
        let g = generators::grid(5, 5);
        let inputs: Vec<u64> = (0..25).map(|v| seed_mix(3, (v % 12) as u64)).collect();
        let fam = ThresholdTest::new(&g, inputs, 2, 4.0);
        let cfg = BellagioConfig::default();
        let plan = plan_derandomization(&g, &fam, &cfg);
        let staged = execute_derandomization(&g, &fam, &plan).unwrap();
        let fused = derandomize(&g, &fam, &cfg).unwrap();
        assert_eq!(staged.outputs, fused.outputs);
        assert_eq!(staged.layer_outputs, fused.layer_outputs);
        assert_eq!(staged.total_rounds, fused.total_rounds);
        assert!(plan.total_rounds > 0);
    }

    #[test]
    fn cost_is_t_log_squared_shape() {
        let g = generators::grid(6, 6);
        let inputs: Vec<u64> = (0..36).map(|v| seed_mix(4, v as u64)).collect();
        let fam = ThresholdTest::new(&g, inputs, 2, 3.0);
        let outcome = derandomize(&g, &fam, &BellagioConfig::default()).unwrap();
        let n = 36f64;
        let t = fam.rounds() as f64;
        let budget = t * n.ln() * n.ln();
        let ratio = outcome.total_rounds as f64 / budget;
        // the constant is dominated by the carving (3 log2 n layers, each
        // H + boundary rounds); just pin it to a sane band
        assert!(ratio > 1.0 && ratio < 200.0, "ratio {ratio}");
    }

    /// Every node sends to node 2, which is no neighbour of node 0.
    struct Stray;
    struct StrayNode;

    impl SeededFamily for Stray {
        fn rounds(&self) -> u32 {
            1
        }

        fn create_node(&self, _: NodeId, _: usize, _: u64, _: u64) -> Box<dyn AlgoNode> {
            Box::new(StrayNode)
        }
    }

    impl AlgoNode for StrayNode {
        fn step(&mut self, _: Inbox<'_>, out: &mut Sends<'_>) {
            out.push(NodeId(2), &[1]);
        }

        fn output(&self, _out: &mut OutputSink<'_>) {}
    }

    #[test]
    fn a_send_across_a_non_edge_is_refused() {
        let g = generators::path(3);
        let err = ReferenceError::NotNeighbor {
            from: NodeId(0),
            to: NodeId(2),
            round: 0,
        };
        assert_eq!(run_with_global_seed(&g, &Stray, 1, 2).unwrap_err(), err);
        // a layer may truncate node 0 to no rounds; someone still strays
        assert!(matches!(
            derandomize(&g, &Stray, &BellagioConfig::default()),
            Err(ReferenceError::NotNeighbor { to: NodeId(2), .. })
        ));
    }
}
