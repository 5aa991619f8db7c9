//! The plan → execute → verify pipeline as the benchmark drives it: every
//! layer is entered through a public function and timed from outside.

use crate::trace::Tracer;
use crate::workloads::{Bundle, Instance, PARALLELISM};
use das_core::serve::{instantiate, JobSpec};
use das_core::{
    execute_plan_networked, execute_plan_sharded_with, execute_plan_with, run_worker, verify,
    BlackBoxAlgorithm, DasProblem, EngineKind, ExecutorConfig, NetConfig, NetReport,
    ScheduleOutcome, SchedulePlan, Scheduler, ShardReport,
};
use das_graph::Graph;
use std::net::TcpListener;
use std::time::Instant;

/// Where a case's algorithms come from.
#[derive(Clone, Debug)]
pub enum Source {
    /// One of the fixed bundles.
    Bundle(Bundle),
    /// One served batch: the daemon's own `instantiate` per job.
    Jobs(Vec<JobSpec>),
}

/// Everything that fixes one problem and its plan.
pub struct Case<'g> {
    pub g: &'g Graph,
    pub source: Source,
    pub sched: Box<dyn Scheduler>,
    pub tape_seed: u64,
    pub sched_seed: u64,
}

impl<'g> Case<'g> {
    /// One of the fixed instances on its graph. The seed drives the graph,
    /// the sources and the tapes; the scheduler keeps its default seed, as
    /// it does for a user who sets none (see `Sched::build`).
    pub fn of(g: &'g Graph, inst: Instance, seed: u64) -> Case<'g> {
        let sched = inst.sched.build();
        Case {
            g,
            source: Source::Bundle(inst.bundle),
            sched_seed: sched.default_sched_seed(),
            sched,
            tape_seed: seed,
        }
    }

    /// A fresh problem with no reference run cached.
    pub fn problem(&self) -> DasProblem<'g> {
        match &self.source {
            Source::Bundle(b) => b.problem(self.g, self.tape_seed),
            Source::Jobs(jobs) => {
                let algos: Vec<Box<dyn BlackBoxAlgorithm>> =
                    jobs.iter().map(|j| instantiate(j, self.g)).collect();
                DasProblem::new(self.g, algos, self.tape_seed)
            }
        }
    }

    pub fn k(&self) -> usize {
        match &self.source {
            Source::Bundle(b) => b.k(),
            Source::Jobs(jobs) => jobs.len(),
        }
    }
}

/// Which executor a repetition goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `execute_plan_with`, batched engine, one thread.
    Fused,
    /// `execute_plan_sharded_with` on [`PARALLELISM`] shards: the path
    /// `serve` runs every batch on.
    Sharded,
    /// `execute_plan_networked` with [`PARALLELISM`] in-process
    /// `run_worker` threads on localhost TCP.
    Networked,
}

impl Path {
    /// Name of the span around the executor call.
    pub fn span(self) -> &'static str {
        match self {
            Path::Fused => "exec.fused",
            Path::Sharded => "shard.exec",
            Path::Networked => "net.exec",
        }
    }
}

/// The batched engine every path runs; the plan's phase length is part of
/// its semantics, and `execute_plan_with` does not set it by itself.
pub fn exec_config(plan: &SchedulePlan) -> ExecutorConfig {
    ExecutorConfig::default()
        .with_engine(EngineKind::ColumnarBatched)
        .with_phase_len(plan.phase_len)
        .with_shards(PARALLELISM)
}

/// Network tunables for in-process workers: a frame may carry a whole plan
/// slice, and the private scheduler's run to tens of megabytes.
pub fn net_config() -> NetConfig {
    NetConfig {
        max_frame_bytes: 1 << 30,
        ..NetConfig::default()
    }
}

/// What an executor call returned beside the outcome.
#[derive(Default)]
pub struct ExecExtra {
    pub shard: Option<ShardReport>,
    pub net: Option<NetReport>,
}

/// One executor call through `path`.
pub fn execute(
    path: Path,
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
) -> Result<(ScheduleOutcome, ExecExtra), String> {
    let cfg = exec_config(plan);
    match path {
        Path::Fused => execute_plan_with(problem, plan, &cfg)
            .map(|o| (o, ExecExtra::default()))
            .map_err(|e| e.to_string()),
        Path::Sharded => execute_plan_sharded_with(problem, plan, &cfg)
            .map(|(o, r)| {
                let extra = ExecExtra {
                    shard: Some(r),
                    net: None,
                };
                (o, extra)
            })
            .map_err(|e| e.to_string()),
        Path::Networked => {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?
                .to_string();
            let net = net_config();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..PARALLELISM.min(problem.graph().node_count()))
                    .map(|_| {
                        let (addr, net) = (addr.clone(), net.clone());
                        scope.spawn(move || run_worker(problem, &addr, &net))
                    })
                    .collect();
                let result = execute_plan_networked(problem, plan, PARALLELISM, listener, &net);
                let mut worker_err = None;
                for w in workers {
                    match w.join() {
                        Ok(Ok(_)) => {}
                        Ok(Err(e)) => worker_err = Some(format!("worker: {e}")),
                        Err(_) => worker_err = Some("worker panicked".to_string()),
                    }
                }
                match (result, worker_err) {
                    (Ok((o, r)), None) => Ok((
                        o,
                        ExecExtra {
                            shard: Some(r.shard.clone()),
                            net: Some(r),
                        },
                    )),
                    (Err(e), _) => Err(e.to_string()),
                    (Ok(_), Some(e)) => Err(e),
                }
            })
        }
    }
}

/// Byte-identity of two outcomes: outputs, statistics, departures and the
/// precompute charge.
pub fn same_outcome(a: &ScheduleOutcome, b: &ScheduleOutcome) -> bool {
    a.outputs == b.outputs
        && a.stats == b.stats
        && a.departures == b.departures
        && a.precompute_rounds == b.precompute_rounds
}

/// One full repetition's products; dropped by the caller, outside the
/// timed part.
pub struct FullRep<'g> {
    pub problem: DasProblem<'g>,
    pub plan: SchedulePlan,
    pub outcome: ScheduleOutcome,
    pub extra: ExecExtra,
    pub total_s: f64,
    pub exec_s: f64,
    /// Verified clean: every output matches its alone run and no message
    /// was late.
    pub ok: bool,
    pub mismatches: usize,
}

/// Fresh problem → references → sweep artifact → plan for the seed →
/// execute through `path` → verify against the references.
///
/// `whole` names the span around it all: `"pipeline"` for a workload's own
/// repetitions, another name for a probe that must not mix into them. The
/// span is closed on the error path too, so a failed repetition leaves the
/// tracer ready for the next one.
pub fn full_rep<'g>(
    case: &Case<'g>,
    path: Path,
    whole: &'static str,
    tr: &mut Tracer,
) -> Result<FullRep<'g>, String> {
    let t0 = Instant::now();
    let whole = tr.begin(whole);
    let layers = full_layers(case, path, tr);
    tr.end(whole);
    let mut rep = layers?;
    rep.total_s = t0.elapsed().as_secs_f64();
    Ok(rep)
}

/// The layers of [`full_rep`], one leaf span each; `total_s` is the caller's.
fn full_layers<'g>(case: &Case<'g>, path: Path, tr: &mut Tracer) -> Result<FullRep<'g>, String> {
    let problem = tr.time("problem.build", || case.problem());
    tr.time("reference", || problem.references().map(|_| ()))
        .map_err(|e| e.to_string())?;
    let artifact = tr
        .time("plan.artifact", || {
            case.sched.build_sweep_artifact(&problem)
        })
        .map_err(|e| e.to_string())?;
    let plan = tr
        .time("plan.size", || {
            case.sched.plan_swept(&problem, &artifact, case.sched_seed)
        })
        .map_err(|e| e.to_string())?;
    let t_exec = Instant::now();
    let (outcome, extra) = tr.time(path.span(), || execute(path, &problem, &plan))?;
    let exec_s = t_exec.elapsed().as_secs_f64();
    let report = tr
        .time("verify", || verify::against_references(&problem, &outcome))
        .map_err(|e| e.to_string())?;
    Ok(FullRep {
        ok: report.all_correct() && outcome.stats.late_messages == 0,
        mismatches: report.total_mismatches(),
        problem,
        plan,
        outcome,
        extra,
        total_s: 0.0,
        exec_s,
    })
}

/// One execute-only repetition's result.
pub struct ExecRep {
    pub extra: ExecExtra,
    pub total_s: f64,
    pub exec_s: f64,
    /// Verified clean *and* byte-identical to the fused outcome.
    pub ok: bool,
}

/// Execute a plan built in set-up through `path`, verify, and compare the
/// outcome with the fused one. Closes its span on the error path, as
/// [`full_rep`] does.
pub fn exec_rep(base: &FullRep<'_>, path: Path, tr: &mut Tracer) -> Result<ExecRep, String> {
    let t0 = Instant::now();
    let whole = tr.begin("pipeline");
    let layers = exec_layers(base, path, tr);
    tr.end(whole);
    let mut rep = layers?;
    rep.total_s = t0.elapsed().as_secs_f64();
    Ok(rep)
}

fn exec_layers(base: &FullRep<'_>, path: Path, tr: &mut Tracer) -> Result<ExecRep, String> {
    let t0 = Instant::now();
    let (outcome, extra) = tr.time(path.span(), || execute(path, &base.problem, &base.plan))?;
    let exec_s = t0.elapsed().as_secs_f64();
    let report = tr
        .time("verify", || {
            verify::against_references(&base.problem, &outcome)
        })
        .map_err(|e| e.to_string())?;
    let same = tr.time("compare", || same_outcome(&base.outcome, &outcome));
    Ok(ExecRep {
        extra,
        total_s: 0.0,
        exec_s,
        ok: same && report.all_correct() && outcome.stats.late_messages == 0,
    })
}

/// `schedule_rounds ÷ (congestion + dilation·log2 n)`: the paper's quality
/// measure, deterministic for a seed.
pub fn quality_ratio(rep: &FullRep<'_>) -> Result<f64, String> {
    let params = rep.problem.parameters().map_err(|e| e.to_string())?;
    let n = rep.problem.graph().node_count().max(2) as f64;
    let bound = params.congestion as f64 + params.dilation as f64 * n.log2();
    Ok(rep.outcome.schedule_rounds() as f64 / bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Bundle, GraphSpec};
    use das_core::ReferenceError;
    use das_graph::NodeId;

    /// A scheduler every plan of which fails.
    struct Refusing;

    impl Scheduler for Refusing {
        fn name(&self) -> &'static str {
            "refusing"
        }

        fn plan(&self, _: &DasProblem<'_>, _: u64) -> Result<SchedulePlan, ReferenceError> {
            Err(ReferenceError::DuplicateSend {
                from: NodeId(0),
                to: NodeId(1),
                round: 0,
            })
        }
    }

    #[test]
    fn a_failed_repetition_closes_its_span_in_a_traced_run() {
        let g = GraphSpec::Grid { rows: 4, cols: 4 }.build(1);
        let case = |sched: Box<dyn Scheduler>| Case {
            g: &g,
            source: Source::Bundle(Bundle::Floods { k: 3, depth: 2 }),
            sched_seed: 0,
            sched,
            tape_seed: 1,
        };
        let mut tr = Tracer::new(true);
        let err = full_rep(&case(Box::new(Refusing)), Path::Fused, "pipeline", &mut tr);
        assert!(err.is_err_and(|e| e.contains("sent twice")));
        // what `measured_loop` does before the next repetition; panics on an open span
        tr.set_on(false);
        tr.set_on(true);
        tr.next_op();
        let good = case(Box::<das_core::UniformScheduler>::default());
        let rep = full_rep(&good, Path::Fused, "pipeline", &mut tr).expect("a clean repetition");
        assert!(rep.ok);
        let pipelines: Vec<_> = tr.spans().iter().filter(|s| s.name == "pipeline").collect();
        assert_eq!(pipelines.len(), 2);
        assert!(
            pipelines.iter().all(|s| s.parent.is_none()),
            "the repetition after a failed one hangs off no stale parent"
        );
        assert!(exec_rep(&rep, Path::Sharded, &mut tr).is_ok_and(|r| r.ok));
    }
}
