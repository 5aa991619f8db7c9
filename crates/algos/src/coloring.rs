//! Randomized (Δ+1)-coloring as a schedulable workload.
//!
//! Classic Luby-style rounds: every uncolored node proposes a random
//! color from its remaining palette; a proposal sticks if no conflicting
//! neighbor proposed the same color this round. The communication pattern
//! is *data- and randomness-dependent* (only uncolored nodes talk), which
//! makes it a good stress test for black-box scheduling: the schedulers
//! cannot predict who sends when.

use crate::adjacency::Adjacency;
use das_core::{Aid, AlgoNode, BlackBoxAlgorithm, Inbox, OutputSink, Sends};
use das_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The coloring workload: `rounds` proposal rounds over palette
/// `0..palette`. Nodes output their color (or `u32::MAX` if still
/// uncolored — increasingly unlikely as rounds grow).
#[derive(Clone, Debug)]
pub struct Coloring {
    aid: Aid,
    rounds: u32,
    palette: u32,
    adjacency: Arc<Adjacency>,
}

impl Coloring {
    /// Creates the workload with a `(max degree + 1)`-size palette.
    ///
    /// # Panics
    /// Panics if `rounds == 0`.
    pub fn new(aid: u64, g: &Graph, rounds: u32) -> Self {
        assert!(rounds > 0, "need at least one round");
        Coloring {
            aid: Aid(aid),
            rounds,
            palette: g.max_degree() as u32 + 1,
            adjacency: Adjacency::of(g),
        }
    }

    /// The palette size (max degree + 1).
    pub fn palette(&self) -> u32 {
        self.palette
    }
}

const UNCOLORED: u32 = u32::MAX;

struct ColoringNode {
    adjacency: Arc<Adjacency>,
    me: NodeId,
    rounds: u32,
    round: u32,
    color: u32,
    /// colors taken by decided neighbors
    taken: Vec<u32>,
    /// the proposal sent last round, if any
    proposed: Option<u32>,
    rng: StdRng,
    palette: u32,
}

impl BlackBoxAlgorithm for Coloring {
    fn aid(&self) -> Aid {
        self.aid
    }

    fn rounds(&self) -> u32 {
        // each proposal round needs a send + a resolution step
        self.rounds + 1
    }

    fn create_node(&self, v: NodeId, _n: usize, seed: u64) -> Box<dyn AlgoNode> {
        Box::new(ColoringNode {
            adjacency: Arc::clone(&self.adjacency),
            me: v,
            rounds: self.rounds,
            round: 0,
            color: UNCOLORED,
            taken: Vec::new(),
            proposed: None,
            rng: StdRng::seed_from_u64(seed),
            palette: self.palette,
        })
    }
}

/// payload: tag byte (0 = proposal, 1 = decided) + color u32
fn msg(tag: u8, color: u32) -> [u8; 5] {
    let mut v = [tag; 5];
    v[1..].copy_from_slice(&color.to_le_bytes());
    v
}

impl AlgoNode for ColoringNode {
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>) {
        // resolve last round's proposal against neighbor traffic
        let mut conflict = false;
        for (_, payload) in inbox {
            let tag = payload[0];
            let color = u32::from_le_bytes(payload[1..5].try_into().expect("color"));
            match tag {
                0 => {
                    if self.proposed == Some(color) {
                        conflict = true;
                    }
                }
                _ => {
                    self.taken.push(color);
                    if self.proposed == Some(color) {
                        conflict = true;
                    }
                }
            }
        }
        let mut announced = false;
        if let Some(p) = self.proposed.take() {
            if !conflict && self.color == UNCOLORED {
                self.color = p;
                // announce the decision so neighbors drop the color
                let payload = msg(1, p);
                for &u in self.adjacency.neighbors(self.me) {
                    out.push(u, &payload);
                    announced = true;
                }
            }
        }
        // propose, if still uncolored and rounds remain
        if self.color == UNCOLORED && self.round < self.rounds && !announced {
            let free: Vec<u32> = (0..self.palette)
                .filter(|c| !self.taken.contains(c))
                .collect();
            if !free.is_empty() {
                let p = free[self.rng.gen_range(0..free.len())];
                self.proposed = Some(p);
                let payload = msg(0, p);
                for &u in self.adjacency.neighbors(self.me) {
                    out.push(u, &payload);
                }
            }
        }
        self.round += 1;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&self.color.to_le_bytes());
    }
}

/// Decodes a node output into its color (`None` if uncolored).
pub fn decode_color(payload: &[u8]) -> Option<u32> {
    let c = u32::from_le_bytes(payload[..4].try_into().expect("color"));
    (c != UNCOLORED).then_some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{run_alone, DasProblem, Scheduler, UniformScheduler};
    use das_graph::generators;

    fn colors_of(g: &Graph, rounds: u32, seed: u64) -> Vec<Option<u32>> {
        let algo = Coloring::new(0, g, rounds);
        let r = run_alone(g, &algo, seed).unwrap();
        r.outputs
            .iter()
            .map(|o| decode_color(o.as_ref().unwrap()))
            .collect()
    }

    fn is_proper(g: &Graph, colors: &[Option<u32>]) -> bool {
        g.edges().all(|e| {
            let (a, b) = g.endpoints(e);
            match (colors[a.index()], colors[b.index()]) {
                (Some(ca), Some(cb)) => ca != cb,
                _ => true,
            }
        })
    }

    #[test]
    fn coloring_is_always_proper() {
        for seed in 0..5 {
            let g = generators::gnp_connected(30, 0.12, seed);
            let colors = colors_of(&g, 8, seed);
            assert!(is_proper(&g, &colors), "seed {seed}");
        }
    }

    #[test]
    fn enough_rounds_color_almost_everyone() {
        let g = generators::grid(6, 6);
        let colors = colors_of(&g, 20, 3);
        let colored = colors.iter().filter(|c| c.is_some()).count();
        assert!(colored >= 34, "only {colored}/36 colored");
    }

    #[test]
    fn colors_fit_the_palette() {
        let g = generators::gnp_connected(25, 0.15, 7);
        let algo = Coloring::new(0, &g, 12);
        let colors = colors_of(&g, 12, 7);
        for c in colors.into_iter().flatten() {
            assert!(c < algo.palette());
        }
    }

    #[test]
    fn seed_changes_the_coloring() {
        let g = generators::cycle(20);
        assert_ne!(colors_of(&g, 10, 1), colors_of(&g, 10, 2));
    }

    #[test]
    fn colorings_schedule_together_correctly() {
        let g = generators::grid(5, 5);
        let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..6)
            .map(|i| Box::new(Coloring::new(i, &g, 8)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        let p = DasProblem::new(&g, algos, 11);
        let outcome = UniformScheduler::default().run(&p).unwrap();
        let rep = das_core::verify::against_references(&p, &outcome).unwrap();
        assert!(rep.all_correct(), "late {}", outcome.stats.late_messages);
    }
}
