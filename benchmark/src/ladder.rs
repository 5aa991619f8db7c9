//! The size ladder: the `oneshot_wide` family at three sizes, each rung in
//! a process of its own so its memory reading is its own. Not a layer, so
//! not in `BENCHMARK.json`; `--all --trace` records it in the results file.

use crate::pipeline::{execute, full_rep, Case, Path};
use crate::stats::proc_status_bytes;
use crate::trace::Tracer;
use crate::workloads::{Bundle, GraphSpec, Instance, Sched};
use serde_json::Value;

/// Repetitions per rung.
const REPS: u64 = 3;

/// The rungs: (name, instance).
pub const RUNGS: [(&str, Instance); 3] = [
    ("n1k", rung(32, 64)),
    ("n4k", rung(64, 128)),
    ("n10k", rung(100, 128)),
];

const fn rung(side: usize, k: usize) -> Instance {
    Instance {
        graph: GraphSpec::Grid {
            rows: side,
            cols: side,
        },
        bundle: Bundle::Floods { k, depth: 8 },
        sched: Sched::Uniform,
    }
}

/// Measures one rung in this process: plan sizing per (algorithm, node),
/// executor time per step, and resident bytes per (algorithm, node).
pub fn run_rung(name: &str, seed: u64) -> Result<Value, String> {
    let inst = RUNGS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, i)| *i)
        .ok_or_else(|| format!("unknown ladder rung `{name}`"))?;
    let g = inst.graph.build(seed);
    let case = Case::of(&g, inst, seed);
    let pairs = (case.k() * g.node_count()) as f64;
    let rss_before = proc_status_bytes("VmRSS:");
    let mut tr = Tracer::new(true);
    let mut last = None;
    for op in 0..REPS {
        drop(last.take());
        tr.set_op(op);
        let rep = full_rep(&case, Path::Fused, "pipeline", &mut tr)?;
        if !rep.ok {
            return Err(format!("rung {name}: a repetition failed verify"));
        }
        last = Some(rep);
    }
    let hwm = proc_status_bytes("VmHWM:");
    let rep = last.expect("REPS > 0");
    let (_, extra) = execute(Path::Sharded, &rep.problem, &rep.plan)?;
    let steps: u64 = extra
        .shard
        .map_or(0, |r| r.per_shard.iter().map(|s| s.steps).sum());
    let num = |v: f64| Value::F64(v);
    Ok(Value::Object(vec![
        ("nodes".to_string(), Value::U64(g.node_count() as u64)),
        ("algorithms".to_string(), Value::U64(case.k() as u64)),
        ("steps".to_string(), Value::U64(steps)),
        ("pipeline_ms".to_string(), num(tr.median_dur_ms("pipeline"))),
        (
            "plan_ns_per_algo_node".to_string(),
            num(tr.layer_ms("plan.size") * 1e6 / pairs),
        ),
        (
            "exec_ns_per_step".to_string(),
            num(tr.layer_ms("exec.fused") * 1e6 / steps.max(1) as f64),
        ),
        (
            "bytes_per_algo_node".to_string(),
            num(hwm.saturating_sub(rss_before) as f64 / pairs),
        ),
    ]))
}
