//! The private-randomness scheduler of Theorem 1.3 / 4.1 — the paper's
//! main algorithmic contribution.
//!
//! Pipeline:
//!
//! 1. **Carve** `Θ(log n)` layers of clusters with weak diameter
//!    `O(dilation · log n)` (Lemma 4.2), learning per-node contained radii.
//! 2. **Share** `Θ(log² n)` random bits inside every cluster (Lemma 4.3).
//! 3. Each cluster feeds its shared bits into a `Θ(log n)`-wise
//!    independent PRG and draws, per algorithm, a delay from the
//!    **block-decay** law of Lemma 4.4 — consistent within the cluster,
//!    independent across algorithms.
//! 4. Every algorithm runs once per (layer, cluster), **truncated** at each
//!    node's contained radius; the canonical-machine executor deduplicates
//!    messages across layers, so only the first-scheduled copy of each
//!    message is transmitted. Nodes whose dilation-ball is contained in
//!    some cluster (w.h.p. all of them, in `Θ(log n)` layers) reconstruct
//!    the full alone-run behavior.
//!
//! Cost: `O(dilation · log² n)` rounds of pre-computation, then a schedule
//! of `O(congestion + dilation · log n)` rounds.

use crate::exec::Unit;
use crate::plan::cache::{
    ArtifactData, PlanArtifact, PrivateArtifact, PrivateLayer, PrivateSweep, SweepArtifact,
    SweepData,
};
use crate::plan::SchedulePlan;
use crate::problem::DasProblem;
use crate::reference::ReferenceError;
use crate::schedulers::Scheduler;
use das_cluster::{CarveConfig, Clustering, ShareConfig};
use das_congest::util::seed_mix;
use das_graph::NodeId;
use das_prg::{BlockDecay, DelayLaw, KWiseGenerator};

/// 2^61 − 1 (Mersenne prime): the PRG field. Delay draws reduce PRG values
/// modulo block sizes; with a 61-bit field the modulo bias is ≤ 2⁻⁴⁰.
const PRG_PRIME: u64 = 2_305_843_009_213_693_951;

/// How many pseudo-random words each algorithm's AID bucket reserves.
const BUCKET_WIDTH: u64 = 4;

/// Which delay law drives the per-cluster delays — Lemma 4.4's design
/// choice, exposed for the ablation experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrivateDelayLaw {
    /// The paper's non-uniform block-decay law: only the *first*-scheduled
    /// copy of each message costs bandwidth, so the delay span stays
    /// `Θ(congestion / log n)` big-rounds and the schedule is
    /// `O(congestion + dilation log n)`.
    #[default]
    BlockDecay,
    /// The "simpler solution" from the proof of Lemma 4.4: uniform delays
    /// over `Θ(congestion)` big-rounds, paying for all `Θ(log n)` copies —
    /// schedule `O((congestion + dilation) log n)`.
    UniformWide,
}

/// The Theorem 4.1 scheduler. Uses **no shared randomness**: every random
/// bit either stays private to a node or travels in messages (the sharing
/// protocol of Lemma 4.3), and the pre-computation rounds are charged to
/// the result.
#[derive(Clone, Debug)]
pub struct PrivateScheduler {
    /// Base seed for all private draws (radii, labels, cluster chunks);
    /// used as the `sched_seed` by the fused [`Scheduler::run`] path.
    pub seed: u64,
    /// Phase length multiplier: `phase_len = ⌈phase_factor · ln n⌉`.
    pub phase_factor: f64,
    /// First-block-size multiplier: `L = ⌈block_factor · C / ln n⌉`.
    pub block_factor: f64,
    /// Override the number of clustering layers (default `⌈3 log₂ n⌉`).
    pub layers: Option<usize>,
    /// Run the honest distributed pre-computation protocols on the CONGEST
    /// engine (slower); otherwise use the bit-identical centralized
    /// references and charge their analytic round cost.
    pub distributed_precompute: bool,
    /// The delay law (Lemma 4.4 block-decay by default; see
    /// [`PrivateDelayLaw`]).
    pub delay_law: PrivateDelayLaw,
}

impl Default for PrivateScheduler {
    fn default() -> Self {
        PrivateScheduler {
            seed: 0x9417A7E,
            phase_factor: 2.0,
            block_factor: 1.0,
            layers: None,
            distributed_precompute: false,
            delay_law: PrivateDelayLaw::BlockDecay,
        }
    }
}

/// The shared seed words of the Lemma 4.3 sharing step, in cluster space:
/// `layer_seeds[layer][cluster]` keys that cluster's generator, with
/// clusters indexed as in [`das_cluster::Layer::centers`].
type LayerSeeds = Vec<Vec<Vec<u64>>>;

impl PrivateScheduler {
    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of clustering layers.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Enables the honest distributed pre-computation.
    pub fn with_distributed_precompute(mut self, on: bool) -> Self {
        self.distributed_precompute = on;
        self
    }

    /// Selects the delay law (for the ablation experiment).
    pub fn with_delay_law(mut self, law: PrivateDelayLaw) -> Self {
        self.delay_law = law;
        self
    }

    /// The carve configuration for `problem`'s graph — deterministic
    /// arithmetic, shared by the carve and share halves.
    fn carve_config(&self, g: &das_graph::Graph, dilation: u32) -> CarveConfig {
        let mut carve_cfg = CarveConfig::for_dilation(g, dilation);
        if let Some(l) = self.layers {
            carve_cfg = carve_cfg.with_num_layers(l);
        }
        carve_cfg
    }

    /// Step 1 — carving (Lemma 4.2). The carve draws from the scheduler's
    /// *own* seed, never from a plan's `sched_seed`: each node's radius
    /// and label draws are private coins that exist before any scheduling
    /// randomness is negotiated, so the clustering is the
    /// sched-seed-independent half of pre-computation. That independence
    /// is what lets a seed sweep share one carve across every plan.
    fn carve(&self, problem: &DasProblem<'_>) -> Result<Clustering, ReferenceError> {
        let g = problem.graph();
        let params = problem.parameters()?;
        let carve_cfg = self.carve_config(g, params.dilation);
        Ok(if self.distributed_precompute {
            Clustering::carve_distributed(g, &carve_cfg, self.seed)
        } else {
            Clustering::carve_centralized(g, &carve_cfg, self.seed)
        })
    }

    /// Step 2 — in-cluster randomness sharing (Lemma 4.3), drawn per
    /// `sched_seed`. Returns the per-layer shared seeds and the total
    /// pre-computation charge (carve + sharing).
    fn share(
        &self,
        problem: &DasProblem<'_>,
        clustering: &Clustering,
        sched_seed: u64,
    ) -> Result<(LayerSeeds, u64), ReferenceError> {
        let g = problem.graph();
        let n = g.node_count();
        let params = problem.parameters()?;
        let mut precompute_rounds = clustering.precompute_rounds();

        let share_cfg = ShareConfig::for_graph(g, self.carve_config(g, params.dilation).horizon);
        let chunk_seed = seed_mix(sched_seed, 0xC0FFEE);
        let chunks = das_cluster::share::center_chunks(n, share_cfg.chunks, chunk_seed);
        // A cluster's generator is keyed from the seed *held at its center
        // `c`*: the seed of the cluster `c` itself belongs to,
        // `chunks[center[c]]`, which is `chunks[c]` only when `c` sits in
        // its own cluster (it need not — see `Layer::is_center`). All
        // members evaluate the same words either way, which is what the
        // schedule needs; keying from `chunks[c]` would be the faithful
        // Lemma 4.3 reading but moves every private plan (ROADMAP).
        let mut layer_seeds: LayerSeeds = Vec::with_capacity(clustering.layers().len());
        for layer in clustering.layers() {
            let seeds = if self.distributed_precompute {
                let (held, rounds, delivered) =
                    das_cluster::share::share_layer_distributed(g, layer, &chunks, &share_cfg);
                assert!(delivered, "sharing under-provisioned: raise the slack");
                precompute_rounds += rounds;
                let at = |c: &NodeId| held[c.index()].clone();
                layer.centers().iter().map(at).collect()
            } else {
                precompute_rounds += share_cfg.rounds_needed();
                let at = |c: &NodeId| chunks[layer.center[c.index()].index()].clone();
                layer.centers().iter().map(at).collect()
            };
            layer_seeds.push(seeds);
        }
        Ok((layer_seeds, precompute_rounds))
    }

    /// Step 3 — the delay law sized for `override_` (an exact first-block
    /// size in big-rounds) or, when `None`, for the measured congestion.
    /// `congestion` and `ln_n` feed only the default sizing and are
    /// ignored when `override_` is set.
    fn sized_delay_law(
        &self,
        congestion: u64,
        ln_n: f64,
        num_layers: usize,
        override_: Option<u64>,
    ) -> Box<dyn DelayLaw> {
        match self.delay_law {
            PrivateDelayLaw::BlockDecay => {
                let block_l = override_.unwrap_or_else(|| {
                    ((self.block_factor * congestion as f64) / ln_n)
                        .ceil()
                        .max(1.0) as u64
                });
                let beta = num_layers.max(2);
                let alpha = (1.0 - 1.0 / beta as f64)
                    .powi(num_layers as i32)
                    .clamp(0.2, 0.9);
                Box::new(BlockDecay::new(block_l, beta, alpha))
            }
            PrivateDelayLaw::UniformWide => {
                // spread enough that even the concentrated minimum of the
                // per-layer draws keeps per-big-round loads at O(log n):
                // range = C·(#layers)/ln n big-rounds, i.e. the simple
                // solution's Θ(C log n) span
                let range = match override_ {
                    Some(block) => block.saturating_mul(num_layers as u64).max(1),
                    None => ((self.block_factor * congestion as f64 * num_layers as f64) / ln_n)
                        .ceil()
                        .max(1.0) as u64,
                };
                Box::new(das_prg::Uniform::new(range))
            }
        }
    }

    /// The full span (in big-rounds) of the delay law sized for an exact
    /// first block of `block` over `num_layers` layers. The doubling
    /// search reports this as each attempt's `delay_span`, unifying the
    /// convention with the uniform search's prime range: both report the
    /// span the attempt's law actually draws from.
    pub fn doubling_delay_span(&self, block: u64, num_layers: usize) -> u64 {
        self.sized_delay_law(0, 1.0, num_layers, Some(block))
            .support()
    }
}

/// The raw `(r1, r2)` generator words of one layer in cluster space,
/// indexed `algo · clusters + cluster`: each cluster's shared seed feeds a
/// `Θ(log n)`-wise generator over the fixed Mersenne field, evaluated once
/// per (cluster, algorithm) — every member holds the same seed bytes, that
/// is what sharing bought us. The words are the same for every congestion
/// guess: the cacheable half of step 3/4.
fn cluster_draws(problem: &DasProblem<'_>, seeds: &[Vec<u64>]) -> Vec<(u64, u64)> {
    let n = problem.graph().node_count();
    let kk = (2.0 * (n.max(2) as f64).log2()).ceil() as usize;
    let gens: Vec<KWiseGenerator> = seeds
        .iter()
        .map(|words| {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            KWiseGenerator::from_seed_bytes(&bytes, kk, PRG_PRIME)
        })
        .collect();
    let mut draws = Vec::with_capacity(problem.k() * gens.len());
    for algo in problem.algorithms() {
        let aid = algo.aid().0;
        draws.extend(gens.iter().map(|gen| {
            (
                gen.bucket_value(aid, 0, BUCKET_WIDTH),
                gen.bucket_value(aid, 1, BUCKET_WIDTH),
            )
        }));
    }
    draws
}

/// Reduces one layer's raw per-cluster draws into one unit per algorithm
/// under the sized delay law: the law is sampled once per (cluster,
/// algorithm) and scattered to the nodes through `cluster_of`.
fn layer_units(
    draws: &[(u64, u64)],
    cluster_of: &[u32],
    trunc: &[u32],
    law: &dyn DelayLaw,
    units: &mut Vec<Unit>,
) {
    let clusters = cluster_of.iter().max().map_or(0, |&c| c as usize + 1);
    let mut cluster_delay = vec![0u64; clusters];
    for (algo, words) in draws.chunks_exact(clusters.max(1)).enumerate() {
        for (slot, &(r1, r2)) in cluster_delay.iter_mut().zip(words) {
            *slot = law.sample_from_pair(r1, r2);
        }
        units.push(Unit {
            algo,
            delay: cluster_of
                .iter()
                .map(|&c| cluster_delay[c as usize])
                .collect(),
            stride: 1,
            trunc: trunc.to_vec(),
        });
    }
}

impl Scheduler for PrivateScheduler {
    fn name(&self) -> &'static str {
        "private"
    }

    fn default_sched_seed(&self) -> u64 {
        self.seed
    }

    fn build_sweep_artifact(
        &self,
        problem: &DasProblem<'_>,
    ) -> Result<SweepArtifact, ReferenceError> {
        // 1. Only the carve is seed-independent; sharing, the chunk split,
        // and every generator draw move with the sched_seed.
        Ok(SweepArtifact::new(
            self.name(),
            SweepData::Private(PrivateSweep {
                clustering: self.carve(problem)?,
            }),
        ))
    }

    fn seed_artifact(
        &self,
        problem: &DasProblem<'_>,
        sweep: &SweepArtifact,
        sched_seed: u64,
    ) -> Result<PlanArtifact, ReferenceError> {
        let SweepData::Private(sweep) = sweep.payload(self.name()) else {
            unreachable!("private sweep artifacts carry SweepData::Private")
        };
        // 2. In-cluster sharing (Lemma 4.3), then each cluster's raw
        // generator words: nothing here depends on a congestion guess,
        // which is why the doubling search can charge it once.
        let (layer_seeds, precompute_rounds) =
            self.share(problem, &sweep.clustering, sched_seed)?;
        let layers = sweep
            .clustering
            .layers()
            .iter()
            .zip(&layer_seeds)
            .map(|(layer, seeds)| PrivateLayer {
                trunc: layer.contained_radius.clone(),
                cluster_of: layer.cluster_of().to_vec(),
                draws: cluster_draws(problem, seeds),
            })
            .collect();
        let ln_n = (problem.graph().node_count().max(2) as f64).ln();
        Ok(PlanArtifact::new(
            self.name(),
            sched_seed,
            ArtifactData::Private(PrivateArtifact {
                phase_len: (self.phase_factor * ln_n).ceil().max(1.0) as u64,
                precompute_rounds,
                layers,
            }),
        ))
    }

    fn size_plan(
        &self,
        problem: &DasProblem<'_>,
        artifact: &PlanArtifact,
        guess: Option<u64>,
    ) -> Result<SchedulePlan, ReferenceError> {
        let ArtifactData::Private(art) = artifact.payload(self.name()) else {
            unreachable!("private artifacts carry ArtifactData::Private")
        };
        // 3. The delay law: Lemma 4.4's block-decay, or (ablation) the
        // "simpler solution" uniform over Theta(congestion) big-rounds.
        let n = problem.graph().node_count();
        let params = problem.parameters()?;
        let ln_n = (n.max(2) as f64).ln();
        let law = self.sized_delay_law(params.congestion, ln_n, art.layers.len(), guess);
        // 4. One unit per (layer, algorithm): per-cluster delays from the
        // cluster's cached words, per-node truncation at the contained
        // radius.
        let mut units = Vec::with_capacity(art.layers.len() * problem.k());
        for layer in &art.layers {
            layer_units(
                &layer.draws,
                &layer.cluster_of,
                &layer.trunc,
                law.as_ref(),
                &mut units,
            );
        }
        Ok(SchedulePlan::assemble(
            self.name(),
            artifact.sched_seed(),
            art.phase_len,
            art.precompute_rounds,
            problem,
            units,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{FloodBall, RelayChain};
    use crate::verify;
    use das_graph::{generators, NodeId};

    #[test]
    fn private_schedules_relays_correctly() {
        let g = generators::path(12);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..6)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 2);
        let outcome = PrivateScheduler::default().run(&p).unwrap();
        let report = verify::against_references(&p, &outcome).unwrap();
        assert!(
            report.all_correct(),
            "mismatches {:?}, late {}",
            report.mismatches,
            outcome.stats.late_messages
        );
        assert!(outcome.precompute_rounds > 0, "pre-computation is charged");
    }

    #[test]
    fn private_schedules_floods_on_grid() {
        let g = generators::grid(5, 5);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..8)
            .map(|i| {
                Box::new(FloodBall::new(i, &g, NodeId((3 * i % 25) as u32), 4))
                    as Box<dyn crate::BlackBoxAlgorithm>
            })
            .collect();
        let p = DasProblem::new(&g, algos, 7);
        let outcome = PrivateScheduler::default().run(&p).unwrap();
        let report = verify::against_references(&p, &outcome).unwrap();
        assert!(
            report.all_correct(),
            "mismatches {:?}, late {}",
            report.mismatches,
            outcome.stats.late_messages
        );
    }

    #[test]
    fn distributed_precompute_matches_centralized() {
        let g = generators::path(10);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..3)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 4);
        let sched = PrivateScheduler::default().with_layers(4);
        let central = sched.clone().run(&p).unwrap();
        let dist = sched.with_distributed_precompute(true).run(&p).unwrap();
        assert_eq!(central.outputs, dist.outputs);
        assert_eq!(central.schedule_rounds(), dist.schedule_rounds());
        assert_eq!(central.precompute_rounds, dist.precompute_rounds);
    }

    #[test]
    fn plan_carries_precompute_layers_and_truncations() {
        let g = generators::path(12);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..4)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 2);
        let sched = PrivateScheduler::default();
        let plan = sched.plan(&p, sched.default_sched_seed()).unwrap();
        assert!(plan.precompute_rounds > 0, "pre-computation is in the plan");
        assert_eq!(
            plan.unit_count() % p.k(),
            0,
            "one unit per (layer, algorithm)"
        );
        assert!(plan.unit_count() > p.k(), "more than one layer");
        assert!(
            plan.units
                .iter()
                .any(|u| u.trunc.iter().any(|&t| t != u32::MAX)),
            "layers truncate at contained radii"
        );
    }

    #[test]
    fn a_cluster_is_keyed_from_the_seed_held_at_its_center() {
        // Pins today's keying on a center that sits outside its own
        // cluster: the generator is fed `chunks[center[c]]` (the seed `c`
        // holds), not `chunks[c]` (the seed `c` published).
        let g = generators::grid(6, 6);
        let n = g.node_count();
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..3)
            .map(|i| {
                Box::new(FloodBall::new(i, &g, NodeId(5 * i as u32), 3))
                    as Box<dyn crate::BlackBoxAlgorithm>
            })
            .collect();
        let p = DasProblem::new(&g, algos, 3);
        let sched = PrivateScheduler::default();
        let sched_seed = 77;
        let clustering = sched.carve(&p).unwrap();
        let (l, c) = clustering
            .layers()
            .iter()
            .enumerate()
            .find_map(|(l, layer)| {
                let outside = |c: &&NodeId| layer.center[c.index()] != **c;
                layer.centers().iter().find(outside).map(|&c| (l, c))
            })
            .expect("some center lies outside its own cluster");
        let layer = &clustering.layers()[l];
        let held_at_c = layer.center[c.index()];

        let params = p.parameters().unwrap();
        let horizon = sched.carve_config(&g, params.dilation).horizon;
        let chunks = das_cluster::share::center_chunks(
            n,
            ShareConfig::for_graph(&g, horizon).chunks,
            seed_mix(sched_seed, 0xC0FFEE),
        );
        assert_ne!(chunks[held_at_c.index()], chunks[c.index()]);
        let bytes: Vec<u8> = chunks[held_at_c.index()]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let kk = (2.0 * (n as f64).log2()).ceil() as usize;
        let gen = KWiseGenerator::from_seed_bytes(&bytes, kk, PRG_PRIME);
        let ln_n = (n as f64).ln();
        let law = sched.sized_delay_law(params.congestion, ln_n, clustering.layers().len(), None);

        let plan = sched.plan(&p, sched_seed).unwrap();
        let member = (0..n)
            .find(|&v| layer.center[v] == c)
            .expect("a center has members");
        for (a, algo) in p.algorithms().iter().enumerate() {
            let aid = algo.aid().0;
            let want = law.sample_from_pair(
                gen.bucket_value(aid, 0, BUCKET_WIDTH),
                gen.bucket_value(aid, 1, BUCKET_WIDTH),
            );
            assert_eq!(plan.units[l * p.k() + a].delay[member], want);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::path(9);
        let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> = (0..4)
            .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn crate::BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 4);
        let a = PrivateScheduler::default().run(&p).unwrap();
        let b = PrivateScheduler::default().run(&p).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.schedule_rounds(), b.schedule_rounds());
    }
}
