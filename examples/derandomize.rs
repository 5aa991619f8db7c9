//! Appendix A, end to end: take a Bellagio algorithm that assumes shared
//! randomness, (1) shrink its seed with the Newman reduction, (2) remove
//! the sharing assumption entirely with the Meta-Theorem A.1 clustering
//! machinery, and check that the canonical outputs survive both.
//!
//! ```sh
//! cargo run --release --example derandomize
//! ```

use dasched::congest::util::seed_mix;
use dasched::core::bellagio::{derandomize, run_with_global_seed, BellagioConfig, SeededFamily};
use dasched::core::newman::{bits_needed, find_subcollection, Collection};
use dasched::core::ReferenceError;
use dasched::core::{AlgoNode, Inbox, OutputSink, Sends};
use dasched::graph::{generators, traversal, Graph, NodeId};

/// The Bellagio family: "does my 2-ball contain >= `threshold` distinct
/// inputs?" via a seeded threshold-hash OR-flood (the Appendix A example,
/// reduced to one bit).
struct ThresholdTest {
    inputs: Vec<u64>,
    neighbors: Vec<Vec<NodeId>>,
    h: u32,
    threshold: f64,
    iters: u32,
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

    fn create_node(&self, v: NodeId, _n: usize, shared: u64, _priv: u64) -> Box<dyn AlgoNode> {
        let mut acc = 0u64;
        for i in 0..self.iters {
            let hsh = seed_mix(seed_mix(shared, self.inputs[v.index()]), i as u64);
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
        for (_, p) in inbox {
            self.acc |= u64::from_le_bytes(p[..8].try_into().unwrap());
        }
        if self.round < self.h {
            for &u in &self.neighbors {
                out.push(u, &self.acc.to_le_bytes());
            }
        }
        self.round += 1;
    }

    fn output(&self, out: &mut OutputSink<'_>) {
        out.put(&[(self.acc.count_ones() > self.iters / 2) as u8]);
    }
}

fn canonical(g: &Graph, inputs: &[u64], h: u32, threshold: f64) -> Vec<u8> {
    g.nodes()
        .map(|v| {
            let mut vals: Vec<u64> = traversal::ball(g, v, h)
                .into_iter()
                .map(|u| inputs[u.index()])
                .collect();
            vals.sort_unstable();
            vals.dedup();
            (vals.len() as f64 >= threshold) as u8
        })
        .collect()
}

fn main() -> Result<(), ReferenceError> {
    let g = generators::grid(6, 6);
    let n = g.node_count();
    let inputs: Vec<u64> = (0..n).map(|v| seed_mix(12, (v % 14) as u64)).collect();
    let fam = ThresholdTest {
        inputs: inputs.clone(),
        neighbors: g
            .nodes()
            .map(|v| g.neighbors(v).iter().map(|&(u, _)| u).collect())
            .collect(),
        h: 2,
        threshold: 5.0,
        iters: 48,
    };
    let canon = canonical(&g, &inputs, 2, 5.0);
    let canonical_rate = |out: &[Option<Vec<u8>>]| {
        let ok = g
            .nodes()
            .filter(|&v| out[v.index()].as_deref() == Some(&canon[v.index()..=v.index()]))
            .count();
        ok as f64 / n as f64
    };

    // 0. the family is Bellagio: most global seeds give the canonical bit
    let trials = 30u64;
    let full: Vec<u64> = (0..trials).map(|s| 500 + s).collect();
    let per_seed: Vec<f64> = full
        .iter()
        .map(|&s| run_with_global_seed(&g, &fam, s, 1).map(|out| canonical_rate(&out)))
        .collect::<Result<_, _>>()?;
    let avg = per_seed.iter().sum::<f64>() / trials as f64;
    println!(
        "Bellagio check: avg canonical-output rate over {trials} global seeds = {:.1}%",
        avg * 100.0
    );

    // 1. Newman: shrink the seed space
    let oracle = |_x: u64, s: u64| {
        let out = run_with_global_seed(&g, &fam, s, 1).expect("every seed ran above");
        canonical_rate(&out) == 1.0
    };
    let collection = Collection {
        is_canonical: &oracle,
        seeds: &full,
    };
    match find_subcollection(&collection, &[0], 8, 0.6, 50) {
        Some((idx, sub)) => println!(
            "Newman reduction: {}-seed subcollection found at canonical index {idx} \
             ({} -> {} shared bits)",
            sub.len(),
            bits_needed(full.len()),
            bits_needed(sub.len())
        ),
        None => println!("Newman reduction: no good subcollection within budget"),
    }

    // 2. Meta-Theorem A.1: remove the sharing assumption entirely
    let outcome = derandomize(&g, &fam, &BellagioConfig::default())?;
    let adopted = outcome.outputs.to_vec();
    println!(
        "Meta-Thm A.1: coverage {:.0}%, canonical rate {:.1}%, total {} rounds \
         (clustering + sharing + {} layer runs)",
        outcome.coverage * 100.0,
        canonical_rate(&adopted) * 100.0,
        outcome.total_rounds,
        outcome.layer_outputs.len()
    );
    Ok(())
}
