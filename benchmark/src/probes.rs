//! The traced run's layer probes: calls into the layers the catalogue
//! reports on a workload but the workload's own repetitions never enter,
//! on the workload's own instance.

use crate::metrics::{Collector, PER_LAYER};
use crate::pipeline::{exec_config, execute, same_outcome, Case, FullRep, Path};
use crate::trace::Tracer;
use das_cluster::{CarveConfig, Clustering};
use das_core::doubling::{uniform_with_doubling_configured, DoublingConfig};
use das_core::plan::analysis::predict;
use das_core::{
    execute_plan_observed_with, execute_plan_with, verify, EngineKind, NetReport, ShardReport,
    UniformScheduler,
};
use das_obs::ObsConfig;

/// Fused executions beside a workload that runs another executor, for the
/// `*.over_fused` ratios.
const FUSED_PROBE_REPS: usize = 3;

/// Whether the catalogue reports per-layer metric `name` on `workload`.
fn reported(name: &str, workload: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.name == name && m.reported_on(workload))
}

/// Outcomes that differ from the fused one, or fail to verify, found while
/// probing; each is one failed operation.
#[derive(Default)]
pub struct ProbeTally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl ProbeTally {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!(
                "{what}: outcome differs from the fused run or fails verify"
            ));
        }
    }
}

/// The probes of a one-shot workload, whose own repetitions are the whole
/// fused pipeline: planning from scratch, `predict`, the two older engines,
/// observed execution, the step count — and clustering and doubling on the
/// one workload each that reports them. `base` is a verified repetition of
/// `case`, whose problem, plan and outcome the probes reuse.
pub fn probe_oneshot(
    workload: &str,
    case: &Case<'_>,
    base: &FullRep<'_>,
    tr: &mut Tracer,
    out: &mut Collector,
    tally: &mut ProbeTally,
) -> Result<(), String> {
    let (problem, plan) = (&base.problem, &base.plan);
    let g = problem.graph();
    // probe spans get operation ids of their own, past any repetition's
    tr.set_op(1 << 32);

    // das-core::schedulers from scratch, beside the artifact + sizing split
    let fresh = case.problem();
    fresh.references().map_err(|e| e.to_string())?;
    let scratch = tr
        .time("plan.scratch", || case.sched.plan(&fresh, case.sched_seed))
        .map_err(|e| e.to_string())?;
    tally.check("plan from scratch", scratch == *plan);
    drop((scratch, fresh));

    // das-cluster, entered directly: one layer of the carve the private
    // scheduler's artifact is built on (it carves `cluster.layers` of them)
    if reported("cluster.carve_layer_ms", workload) {
        let dilation = problem.parameters().map_err(|e| e.to_string())?.dilation;
        let carve_cfg = CarveConfig::for_dilation(g, dilation);
        out.set("cluster.layers", carve_cfg.num_layers as f64);
        let one_layer = carve_cfg.with_num_layers(1);
        let clustering = tr.time("cluster.carve_layer", || {
            Clustering::carve_centralized(g, &one_layer, case.sched_seed)
        });
        drop(clustering);
    }

    // plan::analysis
    let prediction = tr
        .time("predict", || predict(problem, plan))
        .map_err(|e| e.to_string())?;
    out.set("predict.max_arc_load", prediction.max_arc_load() as f64);
    out.set(
        "predict.feasible",
        f64::from(u8::from(prediction.feasible())),
    );
    drop(prediction);

    // das-core::exec: the two older engines against the batched one
    for (engine, span) in [
        (EngineKind::Row, "exec.row"),
        (EngineKind::Columnar, "exec.columnar"),
    ] {
        let cfg = exec_config(plan).with_engine(engine);
        let outcome = tr
            .time(span, || execute_plan_with(problem, plan, &cfg))
            .map_err(|e| e.to_string())?;
        tally.check(span, same_outcome(&outcome, &base.outcome));
    }

    // the fused executor reports no step count; the sharded one takes the
    // same steps and does
    let (outcome, extra) = execute(Path::Sharded, problem, plan)?;
    tally.check("sharded", same_outcome(&outcome, &base.outcome));
    let steps: u64 = extra
        .shard
        .map_or(0, |r| r.per_shard.iter().map(|s| s.steps).sum());
    out.set("exec.steps", steps as f64);

    // das-core::doubling: the uniform scheduler without knowing congestion
    if reported("doubling.ms", workload) {
        let doubling = tr
            .time("doubling", || {
                uniform_with_doubling_configured(
                    problem,
                    &UniformScheduler::default(),
                    &ObsConfig::off(),
                    &DoublingConfig::default(),
                )
            })
            .map_err(|e| e.to_string())?
            .0;
        let verified =
            verify::against_references(problem, &doubling.outcome).map_err(|e| e.to_string())?;
        tally.check("doubling", verified.all_correct());
        out.set("doubling.attempts", f64::from(doubling.attempts));
        out.set(
            "doubling.cache_hits",
            doubling.cache.replan_cache_hits as f64,
        );
        out.set(
            "doubling.rejected_by_precheck",
            f64::from(doubling.rejected_by_precheck),
        );
    }

    // das-obs: observing must stay cheap and outcome-neutral
    let cfg = exec_config(plan);
    for (obs, span) in [
        (ObsConfig::off(), "obs.off"),
        (ObsConfig::full(), "obs.full"),
    ] {
        let (outcome, report) = tr
            .time(span, || {
                execute_plan_observed_with(problem, plan, &obs, &cfg)
            })
            .map_err(|e| e.to_string())?;
        tally.check(span, same_outcome(&outcome, &base.outcome));
        if let Some(report) = report {
            out.set("obs.events", report.events.len() as f64);
        }
    }
    Ok(())
}

/// A few fused executions of a plan whose workload runs it through another
/// executor: the denominator of `shard.over_fused` and `net.over_fused`.
pub fn probe_fused(
    base: &FullRep<'_>,
    tr: &mut Tracer,
    tally: &mut ProbeTally,
) -> Result<(), String> {
    tr.set_op(1 << 32);
    for _ in 0..FUSED_PROBE_REPS {
        tr.next_op();
        let (outcome, _) = tr.time(Path::Fused.span(), || {
            execute(Path::Fused, &base.problem, &base.plan)
        })?;
        tally.check("fused", same_outcome(&outcome, &base.outcome));
    }
    Ok(())
}

/// The layer numbers: the median self-time of every span the run recorded,
/// the counts of `base`'s plan and outcome, and the ratios between layers.
pub fn record_layers(base: &FullRep<'_>, tr: &Tracer, out: &mut Collector) {
    for (metric, span) in [
        ("problem.build_ms", "problem.build"),
        ("reference.ms", "reference"),
        ("plan.artifact_ms", "plan.artifact"),
        ("plan.size_ms", "plan.size"),
        ("plan.scratch_ms", "plan.scratch"),
        ("cluster.carve_layer_ms", "cluster.carve_layer"),
        ("predict.ms", "predict"),
        ("exec.ms", "exec.fused"),
        ("exec.row_ms", "exec.row"),
        ("exec.columnar_ms", "exec.columnar"),
        ("shard.ms", "shard.exec"),
        ("net.ms", "net.exec"),
        ("verify.ms", "verify"),
        ("doubling.ms", "doubling"),
    ] {
        if tr.seen(span) {
            out.set(metric, tr.layer_ms(span));
        }
    }
    for (metric, over, under) in [
        ("exec.batched_over_row", "exec.fused", "exec.row"),
        ("shard.over_fused", "shard.exec", "exec.fused"),
        ("net.over_fused", "net.exec", "exec.fused"),
        ("obs.full_over_off", "obs.full", "obs.off"),
    ] {
        if tr.seen(over) && tr.seen(under) {
            out.set(metric, tr.layer_ms(over) / tr.layer_ms(under));
        }
    }
    let (problem, plan, stats) = (&base.problem, &base.plan, &base.outcome.stats);
    let k = problem.k() as f64;
    let n = problem.graph().node_count() as f64;
    let exec_ms = tr.layer_ms("exec.fused");
    out.set("reference.runs", k);
    out.set("reference.us_per_run", tr.layer_ms("reference") * 1e3 / k);
    out.set("plan.units", plan.unit_count() as f64);
    out.set("plan.json_bytes", plan.to_json().len() as f64);
    out.set("plan.predicted_rounds", plan.predicted_rounds as f64);
    out.set("plan.precompute_rounds", plan.precompute_rounds as f64);
    out.set(
        "plan.size_ns_per_algo_node",
        tr.layer_ms("plan.size") * 1e6 / (k * n),
    );
    out.set("exec.delivered", stats.delivered as f64);
    out.set("exec.late", stats.late_messages as f64);
    out.set("exec.big_rounds", stats.big_rounds as f64);
    out.set("exec.max_arc_queue", stats.max_arc_queue as f64);
    out.set(
        "exec.ns_per_msg",
        exec_ms * 1e6 / (stats.delivered.max(1) as f64),
    );
    if let Some(steps) = out.get("exec.steps") {
        out.set("exec.ns_per_step", exec_ms * 1e6 / steps.max(1.0));
    }
    out.set("verify.mismatches", base.mismatches as f64);
}

/// Partition-dependent numbers of the last sharded execution.
pub fn record_shard(r: &ShardReport, tr: &Tracer, out: &mut Collector) -> Result<(), String> {
    let steps: Vec<f64> = r.per_shard.iter().map(|s| s.steps as f64).collect();
    let total: f64 = steps.iter().sum();
    let busiest = r
        .per_shard
        .iter()
        .max_by_key(|s| s.step_nanos + s.drain_nanos)
        .ok_or("sharded run with no shard")?;
    // wall of the whole call: the spans of the sharded executor, last one
    let wall_ms = tr
        .dur_ms(Path::Sharded.span())
        .last()
        .copied()
        .unwrap_or(0.0);
    let busy_ms = (busiest.step_nanos + busiest.drain_nanos) as f64 / 1e6;
    out.set(
        "shard.step_ms_max",
        r.per_shard.iter().map(|s| s.step_nanos).max().unwrap_or(0) as f64 / 1e6,
    );
    out.set(
        "shard.drain_ms_max",
        r.per_shard.iter().map(|s| s.drain_nanos).max().unwrap_or(0) as f64 / 1e6,
    );
    out.set(
        "shard.wait_share",
        if wall_ms > 0.0 {
            (1.0 - busy_ms / wall_ms).max(0.0)
        } else {
            0.0
        },
    );
    out.set("shard.cross_msgs", r.cross_shard_messages as f64);
    let mean = total / steps.len() as f64;
    out.set(
        "shard.step_imbalance",
        if mean > 0.0 {
            steps.iter().cloned().fold(0.0, f64::max) / mean
        } else {
            1.0
        },
    );
    Ok(())
}

/// Coordinator-side wire traffic of the networked execution.
pub fn record_net(r: &NetReport, outcome: &das_core::ScheduleOutcome, out: &mut Collector) {
    let frames: u64 = r
        .traffic
        .iter()
        .map(|t| t.frames_sent + t.frames_received)
        .sum();
    let bytes: u64 = r
        .traffic
        .iter()
        .map(|t| t.bytes_sent + t.bytes_received)
        .sum();
    out.set("net.frames", frames as f64);
    out.set("net.bytes", bytes as f64);
    out.set(
        "net.bytes_per_big_round",
        bytes as f64 / outcome.stats.big_rounds.max(1) as f64,
    );
}
