//! Executor edge cases: degenerate plans, tiny algorithms, and stat
//! bookkeeping corners.

use das_core::synthetic::Prescribed;
use das_core::{BlackBoxAlgorithm, DasProblem, Executor, ExecutorConfig, StepPlan, Unit};
use das_graph::{generators, NodeId};

fn one_hop(g: &das_graph::Graph) -> Box<dyn BlackBoxAlgorithm> {
    Box::new(Prescribed::new(0, g, &[(0, NodeId(0), NodeId(1))]))
}

#[test]
fn single_message_algorithm_executes() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.stats.delivered, 1);
    assert_eq!(outcome.stats.late_messages, 0);
    assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
}

#[test]
fn fully_truncated_unit_executes_nothing() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit {
        algo: 0,
        delay: vec![0; 2],
        stride: 1,
        trunc: vec![0; 2],
    }];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.stats.delivered, 0);
    // machines never stepped: outputs are the initial states, not the
    // reference — visible, not silent
    assert_ne!(outcome.outputs[0], p.references().unwrap()[0].outputs);
}

#[test]
fn step_plan_reports_earliest_of_overlapping_units() {
    let g = generators::path(3);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![
        Unit::global(0, 7, 3),
        Unit {
            algo: 0,
            delay: vec![2, 9, 9],
            stride: 1,
            trunc: vec![u32::MAX; 3],
        },
    ];
    let plan = StepPlan::build(&g, p.algorithms(), &units);
    // node 0: min(7, 2) = 2; node 1: min(7, 9) = 7
    assert_eq!(plan.steps(0, NodeId(0))[0], 2);
    assert_eq!(plan.steps(0, NodeId(1))[0], 7);
    assert_eq!(plan.last_big_round(), Some(7 + 1)); // round 1 at node 1: 8
}

#[test]
fn huge_phase_len_still_counts_rounds_correctly() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default().with_phase_len(100),
    )
    .unwrap();
    // 2 algo rounds * 100 rounds per big-round
    assert_eq!(outcome.schedule_rounds(), 200);
    assert_eq!(outcome.stats.phase_len, 100);
}

#[test]
fn departures_can_be_disabled() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default().with_record_departures(false),
    )
    .unwrap();
    assert!(outcome.departures.is_none());
}

/// A black box whose node 0 panics in its second step; every other
/// machine is silent.
struct PanicsAtNodeZero;

struct Fuse {
    armed: bool,
    stepped: u32,
}

impl das_core::AlgoNode for Fuse {
    fn step(&mut self, _inbox: &[(NodeId, Vec<u8>)]) -> Vec<das_core::AlgoSend> {
        self.stepped += 1;
        assert!(!(self.armed && self.stepped == 2), "fuse blown at node 0");
        Vec::new()
    }

    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

impl BlackBoxAlgorithm for PanicsAtNodeZero {
    fn aid(&self) -> das_core::Aid {
        das_core::Aid(0)
    }

    fn rounds(&self) -> u32 {
        3
    }

    fn create_node(&self, v: NodeId, _n: usize, _seed: u64) -> Box<dyn das_core::AlgoNode> {
        Box::new(Fuse {
            armed: v == NodeId(0),
            stepped: 0,
        })
    }
}

/// A panicking machine must not wedge the sharded executor: the surviving
/// workers leave their barriers and the run returns a typed error. The
/// run happens on a helper thread so a regression fails by deadline
/// instead of hanging the suite.
#[test]
fn panicking_machine_aborts_a_sharded_run_instead_of_hanging() {
    use das_core::{execute_plan_sharded_with, ExecError, SchedError, SchedulePlan};
    use std::time::Duration;

    for shards in [2usize, 3] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = generators::path(8);
            let p = DasProblem::new(&g, vec![Box::new(PanicsAtNodeZero)], 1);
            let units = vec![Unit::global(0, 0, 8)];
            let config = ExecutorConfig::default().with_shards(shards);
            let direct =
                Executor::run_sharded(&g, p.algorithms(), &[p.algo_seed(0)], &units, &config)
                    .map(|_| ());
            let plan = SchedulePlan::assemble("hand-built", 0, 1, 0, &p, units);
            let staged = execute_plan_sharded_with(&p, &plan, &config).map(|_| ());
            let _ = tx.send((direct, staged));
        });
        let (direct, staged) = rx
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{shards}-shard run did not return within 2 s"));
        let staged = match staged.unwrap_err() {
            SchedError::Exec(e) => e,
            other => panic!("expected an execution error, got {other:?}"),
        };
        for err in [direct.unwrap_err(), staged] {
            match err {
                ExecError::Aborted { detail } => {
                    assert!(detail.contains("shard "), "{detail}");
                    assert!(
                        detail.contains("panicked: fuse blown at node 0"),
                        "{detail}"
                    );
                }
                other => panic!("expected Aborted, got {other:?}"),
            }
        }
    }
}
