//! The Theorem 3.1 load and anti-concentration analysis, computed on
//! sampled instances.

use crate::instance::HardInstance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A *crossing pattern* for one algorithm: the phase in which each layer
/// is crossed (non-decreasing). The paper's proof quantifies over all such
/// patterns.
pub type CrossingPattern = Vec<u32>;

/// Samples a uniformly random non-decreasing crossing pattern over
/// `num_phases` phases (the stars-and-bars objects counted in the proof).
pub fn random_crossing_pattern(
    layers: usize,
    num_phases: u32,
    rng: &mut StdRng,
) -> CrossingPattern {
    // sample `layers` phase values and sort them
    let mut phases: Vec<u32> = (0..layers).map(|_| rng.gen_range(0..num_phases)).collect();
    phases.sort_unstable();
    phases
}

/// Whether a joint crossing pattern (one per algorithm) overloads some
/// edge in some phase: a phase of `phase_rounds` rounds can carry at most
/// `phase_rounds` messages over one edge, and an algorithm crossing layer
/// `j` in phase `t` puts one message on each edge adjacent to its members
/// of `U_j` — so the per-(layer, phase) *edge* load is the number of
/// algorithms crossing that layer in that phase that use that member.
#[allow(clippy::needless_range_loop)]
pub fn pattern_overloads(
    inst: &HardInstance,
    patterns: &[CrossingPattern],
    phase_rounds: u32,
    num_phases: u32,
) -> bool {
    let params = inst.params();
    // An edge can carry `phase_rounds` messages per phase; each crossing
    // puts 2 messages on each member's two edges (in and out), but the two
    // messages go over *different* edges — 1 message per edge per crossing.
    for j in 0..params.layers {
        // count[member][phase]
        let mut count = vec![0u32; params.eta * num_phases as usize];
        for (a, pattern) in patterns.iter().enumerate() {
            let t = pattern[j] as usize;
            for &m in inst.members(a, j) {
                let c = &mut count[m as usize * num_phases as usize + t];
                *c += 1;
                if *c > phase_rounds {
                    return true;
                }
            }
        }
    }
    false
}

/// The paper's per-(layer, phase) load `L(j, t)`: the number of algorithms
/// crossing layer `j` in phase `t` under the given joint pattern.
pub fn layer_phase_loads(
    inst: &HardInstance,
    patterns: &[CrossingPattern],
    num_phases: u32,
) -> Vec<Vec<u32>> {
    let layers = inst.params().layers;
    let mut load = vec![vec![0u32; num_phases as usize]; layers];
    for pattern in patterns {
        for (j, &t) in pattern.iter().enumerate() {
            load[j][t as usize] += 1;
        }
    }
    load
}

/// Empirical certificate for Theorem 3.1: the fraction of sampled joint
/// crossing patterns that overload some edge, at a schedule budget of
/// `num_phases` phases of `phase_rounds` rounds. The theorem's
/// union-bound argument needs this to be overwhelmingly close to 1 when
/// `num_phases · phase_rounds = o(congestion + dilation · log n / log log
/// n)`.
pub fn pattern_failure_rate(
    inst: &HardInstance,
    phase_rounds: u32,
    num_phases: u32,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = inst.params().k;
    let layers = inst.params().layers;
    let mut failures = 0usize;
    for _ in 0..trials {
        let patterns: Vec<CrossingPattern> = (0..k)
            .map(|_| random_crossing_pattern(layers, num_phases, &mut rng))
            .collect();
        if pattern_overloads(inst, &patterns, phase_rounds, num_phases) {
            failures += 1;
        }
    }
    failures as f64 / trials.max(1) as f64
}

/// The paper's benchmark quantities for an instance: `(congestion,
/// dilation, C+D, the log-factor target
/// (C + D·ln n / ln ln n))`.
pub fn targets(inst: &HardInstance) -> (u64, u32, u64, u64) {
    let c = inst.congestion();
    let d = inst.dilation();
    let n = inst.graph().node_count().max(3) as f64;
    let lnln = n.ln().ln().max(1.0);
    let target = c + ((d as f64) * n.ln() / lnln).ceil() as u64;
    (c, d, c + d as u64, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::HardInstanceParams;

    fn small_instance(seed: u64) -> HardInstance {
        HardInstance::sample(HardInstanceParams::custom(4, 40, 12, 0.2), seed)
    }

    #[test]
    fn crossing_patterns_are_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = random_crossing_pattern(6, 5, &mut rng);
            assert_eq!(p.len(), 6);
            assert!(p.windows(2).all(|w| w[0] <= w[1]));
            assert!(p.iter().all(|&t| t < 5));
        }
    }

    #[test]
    fn loads_sum_to_k_per_layer() {
        let inst = small_instance(2);
        let mut rng = StdRng::seed_from_u64(3);
        let patterns: Vec<_> = (0..12)
            .map(|_| random_crossing_pattern(4, 6, &mut rng))
            .collect();
        let loads = layer_phase_loads(&inst, &patterns, 6);
        for row in &loads {
            let total: u32 = row.iter().sum();
            assert_eq!(total, 12);
        }
    }

    #[test]
    fn generous_budget_never_overloads() {
        let inst = small_instance(4);
        // phase capacity k: even if all algorithms pile onto one phase and
        // one member, capacity suffices
        let rate = pattern_failure_rate(&inst, 12, 4, 50, 5);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn tight_budget_overloads_often() {
        // eta small and p high: members collide constantly; with capacity 1
        // per phase and few phases, overload is near-certain
        let inst = HardInstance::sample(HardInstanceParams::custom(4, 6, 12, 0.5), 6);
        let rate = pattern_failure_rate(&inst, 1, 3, 50, 7);
        assert!(rate > 0.9, "failure rate {rate}");
    }

    #[test]
    fn failure_rate_monotone_in_budget() {
        let inst = HardInstance::sample(HardInstanceParams::custom(4, 12, 16, 0.3), 8);
        let tight = pattern_failure_rate(&inst, 1, 4, 60, 9);
        let loose = pattern_failure_rate(&inst, 8, 8, 60, 9);
        assert!(tight >= loose, "tight {tight} < loose {loose}");
    }

    #[test]
    fn targets_are_consistent() {
        let inst = small_instance(10);
        let (c, d, triv, target) = targets(&inst);
        assert_eq!(d, 8);
        assert_eq!(triv, c + 8);
        assert!(target >= triv);
    }
}
