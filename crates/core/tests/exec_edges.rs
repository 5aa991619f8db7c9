//! Executor edge cases: degenerate plans, tiny algorithms, and stat
//! bookkeeping corners.

use das_core::synthetic::Prescribed;
use das_core::{
    execute, BlackBoxAlgorithm, DasProblem, ExecError, ExecOptions, ExecutorConfig, SchedError,
    ScheduleOutcome, SchedulePlan, Unit,
};
use das_graph::{generators, NodeId};

fn one_hop(g: &das_graph::Graph) -> Box<dyn BlackBoxAlgorithm> {
    Box::new(Prescribed::new(0, g, &[(0, NodeId(0), NodeId(1))]))
}

/// Executes hand-built `units` fused, with big-rounds of `phase_len`.
fn run(
    p: &DasProblem<'_>,
    units: Vec<Unit>,
    phase_len: u64,
    config: ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    let plan = SchedulePlan::assemble("hand-built", 0, phase_len, 0, p, units);
    let opts = ExecOptions::default().with_config(config);
    execute(p, &plan, opts).map(|done| done.outcome)
}

#[test]
fn single_message_algorithm_executes() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = run(&p, units, 1, ExecutorConfig::default()).unwrap();
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
    let outcome = run(&p, units, 1, ExecutorConfig::default()).unwrap();
    assert_eq!(outcome.stats.delivered, 0);
    // machines never stepped: outputs are the initial states, not the
    // reference — visible, not silent
    assert_ne!(outcome.outputs[0], p.references().unwrap()[0].outputs);
}

#[test]
fn huge_phase_len_still_counts_rounds_correctly() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = run(&p, units, 100, ExecutorConfig::default()).unwrap();
    // 2 algo rounds * 100 rounds per big-round
    assert_eq!(outcome.schedule_rounds(), 200);
    assert_eq!(outcome.stats.phase_len, 100);
}

/// A black box whose node 0 panics in its second step; every other
/// machine is silent.
struct PanicsAtNodeZero;

struct Fuse {
    armed: bool,
    stepped: u32,
}

impl das_core::AlgoNode for Fuse {
    fn step(&mut self, _inbox: das_core::Inbox<'_>, _out: &mut das_core::Sends<'_>) {
        self.stepped += 1;
        assert!(!(self.armed && self.stepped == 2), "fuse blown at node 0");
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
    use std::time::Duration;

    for shards in [2usize, 3] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = generators::path(8);
            let p = DasProblem::new(&g, vec![Box::new(PanicsAtNodeZero)], 1);
            let units = vec![Unit::global(0, 0, 8)];
            let plan = SchedulePlan::assemble("hand-built", 0, 1, 0, &p, units);
            let staged = execute(&p, &plan, ExecOptions::sharded(shards)).map(|_| ());
            let _ = tx.send(staged);
        });
        let staged = rx
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{shards}-shard run did not return within 2 s"));
        match staged.unwrap_err() {
            SchedError::Exec(ExecError::Aborted { detail }) => {
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

/// Every node sends, in round 0, an oversized payload to its first
/// neighbour, one token to each neighbour, the same neighbour again and a
/// non-neighbour; round 1 folds what arrived into the output.
struct Sloppy;

struct SloppyNode {
    me: NodeId,
    n: u32,
    neighbours: Vec<NodeId>,
    state: u64,
}

impl das_core::AlgoNode for SloppyNode {
    fn step(&mut self, inbox: das_core::Inbox<'_>, out: &mut das_core::Sends<'_>) {
        for (from, payload) in inbox {
            self.state = self.state * 31 + u64::from(from.0) + u64::from(payload[0]);
        }
        if self.state != 0 {
            return;
        }
        let first = self.neighbours[0];
        out.push(first, &[7; das_core::MESSAGE_BYTES + 1]);
        for &u in &self.neighbours {
            out.push(u, &[self.me.0 as u8 + 1]);
        }
        out.push(first, &[99]);
        out.push(NodeId((self.me.0 + 2) % self.n), &[1]);
        self.state = 1;
    }

    fn output(&self) -> Option<Vec<u8>> {
        Some(self.state.to_le_bytes().to_vec())
    }
}

impl BlackBoxAlgorithm for Sloppy {
    fn aid(&self) -> das_core::Aid {
        das_core::Aid(0)
    }

    fn rounds(&self) -> u32 {
        2
    }

    fn create_node(&self, v: NodeId, n: usize, _seed: u64) -> Box<dyn das_core::AlgoNode> {
        let g = generators::path(n);
        Box::new(SloppyNode {
            me: v,
            n: n as u32,
            neighbours: g.neighbors(v).iter().map(|&(u, _)| u).collect(),
            state: 0,
        })
    }
}

/// Oversized, repeated and misaddressed sends are dropped and counted, on
/// every topology exactly as the row oracle drops them; the rest arrive.
#[test]
fn faulty_sends_are_dropped_and_counted_as_the_oracle_does() {
    let g = generators::path(5);
    let p = DasProblem::new(&g, vec![Box::new(Sloppy)], 1);
    let plan = SchedulePlan::assemble("hand-built", 0, 2, 0, &p, vec![Unit::global(0, 0, 5)]);
    let oracle = das_core::oracle::execute_row(&p, &plan, &ExecutorConfig::default()).unwrap();
    // three faulty sends per node; one token per arc arrives
    assert_eq!(oracle.stats.invalid_sends, 15);
    assert_eq!(oracle.stats.delivered, 2 * g.edge_count() as u64);
    for opts in [
        ExecOptions::default(),
        ExecOptions::sharded(2),
        ExecOptions::sharded(3),
    ] {
        let outcome = execute(&p, &plan, opts).unwrap().outcome;
        assert_eq!(format!("{outcome:?}"), format!("{oracle:?}"));
    }
}
