//! The result of a scheduled execution.

use crate::algorithm::Outputs;
use crate::exec::ExecStats;
use das_pattern::SimulationMap;

/// Everything a scheduler run produces.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Per-algorithm, per-node outputs: `outputs.get(a, v)`.
    pub outputs: Outputs,
    /// Execution statistics (schedule length, late messages, …).
    pub stats: ExecStats,
    /// Per-algorithm simulation maps (message → scheduled departure round);
    /// feed to [`das_pattern::verify_simulation`]. Every execution records
    /// them, so this is always `Some`: the `Option` stays because the
    /// outcome's `{:?}` bytes are pinned (CI's outcome dumps and the
    /// doubling and plan goldens hash them).
    pub departures: Option<Vec<SimulationMap>>,
    /// CONGEST rounds spent in pre-computation before the schedule ran
    /// (clustering + randomness sharing for the private scheduler; 0 for
    /// the shared-randomness and baseline schedulers).
    pub precompute_rounds: u64,
}

impl ScheduleOutcome {
    /// Schedule length in engine rounds (excluding pre-computation).
    pub fn schedule_rounds(&self) -> u64 {
        self.stats.engine_rounds
    }

    /// Total rounds including pre-computation.
    pub fn total_rounds(&self) -> u64 {
        self.stats.engine_rounds + self.precompute_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let o = ScheduleOutcome {
            outputs: Outputs::default(),
            stats: ExecStats {
                engine_rounds: 100,
                ..ExecStats::default()
            },
            departures: None,
            precompute_rounds: 40,
        };
        assert_eq!(o.schedule_rounds(), 100);
        assert_eq!(o.total_rounds(), 140);
    }
}
