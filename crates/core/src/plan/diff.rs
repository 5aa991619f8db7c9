//! Structural diff of two [`SchedulePlan`]s with a predicted-load
//! comparison: the ROADMAP's plan-diffing tool.
//!
//! The diff answers "what did the scheduler decide differently, and what
//! does that do to the load" without executing either plan: unit-by-unit
//! delay/truncation deltas come from the plans themselves, and the
//! per-phase load comparison reuses [`analysis::predict`]'s content-free
//! replay, so the whole diff costs two predictions.

use crate::plan::analysis::{self, LoadPrediction};
use crate::plan::{SchedError, SchedulePlan};
use crate::problem::DasProblem;
use std::fmt::Write as _;

/// How one unit differs between the two plans (units are compared by
/// position; plans from the same scheduler family emit units in a stable
/// order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitDiff {
    /// Unit index in both plans.
    pub unit: usize,
    /// Algorithm the unit runs in plan A / plan B (usually equal; a
    /// mismatch means the plans schedule different work at this slot).
    pub algo: (usize, usize),
    /// Nodes whose start delay differs.
    pub delay_changed: usize,
    /// Largest per-node delay shift in big-rounds, `max |delay_a - delay_b|`.
    pub max_delay_shift: u64,
    /// Nodes whose truncation differs.
    pub trunc_changed: usize,
    /// Whether the stride differs.
    pub stride_changed: bool,
}

/// A full diff of two plans for the same problem: headline scheduling
/// parameters, per-unit delay/truncation deltas, and both predicted load
/// profiles.
#[derive(Clone, Debug)]
pub struct PlanDiff {
    /// Scheduler names `(A, B)`.
    pub scheduler: (String, String),
    /// Scheduler seeds `(A, B)`.
    pub sched_seed: (u64, u64),
    /// Phase lengths `(A, B)`.
    pub phase_len: (u64, u64),
    /// Pre-computation rounds `(A, B)`.
    pub precompute_rounds: (u64, u64),
    /// Predicted schedule lengths from the plans `(A, B)`.
    pub predicted_rounds: (u64, u64),
    /// Unit counts `(A, B)`.
    pub units: (usize, usize),
    /// Units (over the common index range) that differ, in index order.
    pub unit_diffs: Vec<UnitDiff>,
    /// Predicted load of plan A (see [`analysis::predict`]).
    pub load_a: LoadPrediction,
    /// Predicted load of plan B.
    pub load_b: LoadPrediction,
}

/// Rows shown in the per-phase load table before eliding; the render says
/// how many rows were elided, so nothing is truncated silently.
const MAX_TABLE_ROWS: usize = 40;

impl PlanDiff {
    /// Diffs two plans against the same problem, predicting both loads.
    ///
    /// # Errors
    /// Returns [`SchedError::InvalidPlan`] if either plan is malformed for
    /// the problem, or [`SchedError::Reference`] if the reference runs the
    /// prediction replays fail.
    pub fn between(
        problem: &DasProblem<'_>,
        a: &SchedulePlan,
        b: &SchedulePlan,
    ) -> Result<PlanDiff, SchedError> {
        let load_a = analysis::predict(problem, a)?;
        let load_b = analysis::predict(problem, b)?;
        let mut unit_diffs = Vec::new();
        for (i, (ua, ub)) in a.units.iter().zip(&b.units).enumerate() {
            let delay_changed = ua
                .delay
                .iter()
                .zip(&ub.delay)
                .filter(|(x, y)| x != y)
                .count();
            let max_delay_shift = ua
                .delay
                .iter()
                .zip(&ub.delay)
                .map(|(&x, &y)| x.abs_diff(y))
                .max()
                .unwrap_or(0);
            let trunc_changed = ua
                .trunc
                .iter()
                .zip(&ub.trunc)
                .filter(|(x, y)| x != y)
                .count();
            let d = UnitDiff {
                unit: i,
                algo: (ua.algo, ub.algo),
                delay_changed,
                max_delay_shift,
                trunc_changed,
                stride_changed: ua.stride != ub.stride,
            };
            if d.algo.0 != d.algo.1
                || d.delay_changed > 0
                || d.trunc_changed > 0
                || d.stride_changed
            {
                unit_diffs.push(d);
            }
        }
        Ok(PlanDiff {
            scheduler: (a.scheduler.clone(), b.scheduler.clone()),
            sched_seed: (a.sched_seed, b.sched_seed),
            phase_len: (a.phase_len, b.phase_len),
            precompute_rounds: (a.precompute_rounds, b.precompute_rounds),
            predicted_rounds: (a.predicted_rounds, b.predicted_rounds),
            units: (a.unit_count(), b.unit_count()),
            unit_diffs,
            load_a,
            load_b,
        })
    }

    /// Whether the plans schedule identically (same parameters and units;
    /// provenance fields like the scheduler name may still differ).
    pub fn schedules_identically(&self) -> bool {
        self.unit_diffs.is_empty()
            && self.units.0 == self.units.1
            && self.phase_len.0 == self.phase_len.1
            && self.precompute_rounds.0 == self.precompute_rounds.1
    }

    /// Renders the diff as the plain-text report `dasched plan --diff`
    /// prints.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan diff: A = {} (seed {}) vs B = {} (seed {})",
            self.scheduler.0, self.sched_seed.0, self.scheduler.1, self.sched_seed.1
        );
        let pair = |(x, y): (u64, u64)| {
            if x == y {
                format!("{x} (unchanged)")
            } else {
                format!("{x} -> {y}")
            }
        };
        let _ = writeln!(s, "  phase_len:         {}", pair(self.phase_len));
        let _ = writeln!(s, "  precompute rounds: {}", pair(self.precompute_rounds));
        let _ = writeln!(s, "  predicted rounds:  {}", pair(self.predicted_rounds));
        let compared = self.units.0.min(self.units.1);
        let _ = writeln!(
            s,
            "  units: {} vs {} ({} compared, {} only in A, {} only in B)",
            self.units.0,
            self.units.1,
            compared,
            self.units.0 - compared,
            self.units.1 - compared,
        );
        if self.schedules_identically() {
            let _ = writeln!(s, "  the plans schedule identically");
        }
        if !self.unit_diffs.is_empty() {
            let _ = writeln!(s, "  changed units: {}", self.unit_diffs.len());
            for d in self.unit_diffs.iter().take(MAX_TABLE_ROWS) {
                let algo = if d.algo.0 == d.algo.1 {
                    format!("algo {}", d.algo.0)
                } else {
                    format!("algo {} -> {}", d.algo.0, d.algo.1)
                };
                let stride = if d.stride_changed {
                    ", stride differs"
                } else {
                    ""
                };
                let _ = writeln!(
                    s,
                    "    unit {:>4} ({algo}): {} delays differ (max shift {}), \
                     {} truncations differ{stride}",
                    d.unit, d.delay_changed, d.max_delay_shift, d.trunc_changed,
                );
            }
            if self.unit_diffs.len() > MAX_TABLE_ROWS {
                let _ = writeln!(
                    s,
                    "    ({} more changed units)",
                    self.unit_diffs.len() - MAX_TABLE_ROWS
                );
            }
        }
        let _ = writeln!(s, "  predicted load:");
        let _ = writeln!(
            s,
            "    feasible: A {} / B {}; predicted late: {} -> {}",
            if self.load_a.feasible() { "yes" } else { "no" },
            if self.load_b.feasible() { "yes" } else { "no" },
            self.load_a.predicted_late,
            self.load_b.predicted_late,
        );
        let _ = writeln!(
            s,
            "    max arc load: {} -> {}; peak big-round arc load: {} -> {}",
            self.load_a.max_arc_load(),
            self.load_b.max_arc_load(),
            self.load_a.peak_big_round_arc_load,
            self.load_b.peak_big_round_arc_load,
        );
        let rows = self
            .load_a
            .big_round_load
            .len()
            .max(self.load_b.big_round_load.len());
        if rows > 0 {
            let _ = writeln!(
                s,
                "    per-phase predicted load (messages injected per big-round):"
            );
            let _ = writeln!(
                s,
                "      {:>9} {:>8} {:>8} {:>8}",
                "big-round", "A", "B", "delta"
            );
            for b in 0..rows.min(MAX_TABLE_ROWS) {
                let la = self.load_a.big_round_load.get(b).copied().unwrap_or(0);
                let lb = self.load_b.big_round_load.get(b).copied().unwrap_or(0);
                let _ = writeln!(
                    s,
                    "      {b:>9} {la:>8} {lb:>8} {:>+8}",
                    lb as i64 - la as i64
                );
            }
            if rows > MAX_TABLE_ROWS {
                let _ = writeln!(s, "      ({} more big-rounds)", rows - MAX_TABLE_ROWS);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::Scheduler;
    use crate::synthetic::RelayChain;
    use crate::{BlackBoxAlgorithm, UniformScheduler};
    use das_graph::generators;

    fn problem(g: &das_graph::Graph, k: usize) -> DasProblem<'_> {
        let algos = (0..k)
            .map(|i| Box::new(RelayChain::new(i as u64, g)) as Box<dyn BlackBoxAlgorithm>)
            .collect();
        DasProblem::new(g, algos, 11)
    }

    #[test]
    fn identical_plans_diff_empty() {
        let g = generators::path(8);
        let p = problem(&g, 3);
        let sched = UniformScheduler::default();
        let plan = sched.plan(&p, 5).unwrap();
        let d = PlanDiff::between(&p, &plan, &plan).unwrap();
        assert!(d.schedules_identically());
        assert!(d.unit_diffs.is_empty());
        assert_eq!(d.load_a, d.load_b);
        assert!(d.render().contains("the plans schedule identically"));
    }

    #[test]
    fn different_seeds_show_delay_shifts_and_load_table() {
        let g = generators::path(10);
        let p = problem(&g, 4);
        let sched = UniformScheduler::default();
        let a = sched.plan(&p, 1).unwrap();
        let b = sched.plan(&p, 2).unwrap();
        let d = PlanDiff::between(&p, &a, &b).unwrap();
        assert_eq!(d.units, (4, 4));
        assert!(
            !d.unit_diffs.is_empty(),
            "different seeds should draw different delays"
        );
        for ud in &d.unit_diffs {
            assert_eq!(ud.algo.0, ud.algo.1);
            assert!(ud.max_delay_shift > 0);
        }
        let text = d.render();
        assert!(text.contains("changed units:"));
        assert!(text.contains("per-phase predicted load"));
        assert!(text.contains("big-round"));
    }

    #[test]
    fn unit_count_mismatch_is_reported_not_fatal() {
        let g = generators::path(6);
        let p = problem(&g, 2);
        let sched = UniformScheduler::default();
        let a = sched.plan(&p, 1).unwrap();
        let mut b = a.clone();
        b.units.pop();
        let d = PlanDiff::between(&p, &a, &b).unwrap();
        assert_eq!(d.units, (2, 1));
        assert!(!d.schedules_identically());
        assert!(d.render().contains("1 only in A"));
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let g = generators::path(6);
        let p = problem(&g, 2);
        let sched = UniformScheduler::default();
        let a = sched.plan(&p, 1).unwrap();
        let mut bad = a.clone();
        bad.phase_len = 0;
        assert!(matches!(
            PlanDiff::between(&p, &a, &bad),
            Err(SchedError::InvalidPlan(_))
        ));
    }
}
