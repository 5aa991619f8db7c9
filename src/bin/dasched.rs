//! `dasched` — command-line front end for the scheduling toolkit.
//!
//! Run `dasched` with no arguments for every subcommand and the flags it
//! accepts (the `COMMANDS` table below, which is also what the parser
//! enforces).
//!
//! `coordinator`/`worker` run one plan across OS processes: the
//! coordinator listens, partitions, and relays cross-shard traffic at
//! big-round boundaries; each worker must be launched with the *same*
//! graph/workload/seed flags (enforced by a handshake fingerprint). The
//! outcome is byte-identical to `plan --execute` on the same flags.
//!
//! `serve` keeps a scheduling daemon alive: clients SUBMIT jobs with
//! declared budgets, admission compares them against the advertised
//! capacity (content-free — see DESIGN.md), admitted jobs are batched
//! into DAS instances, and each RESULT carries outputs byte-identical to
//! a one-shot `plan --execute` of the same jobs under the same seed.
//! `loadgen` drives a daemon with deterministic concurrent job streams
//! and reports sustained jobs/sec plus latency quantiles.
//!
//! Graph specs: `path:N`, `cycle:N`, `grid:RxC`, `gnp:N:P`, `tree:N:ARITY`,
//! `expander:N:D`, `star:N`, `hypercube:D`.
//! Workload specs: `mixed:K[:DEPTH]`, `floods:K[:DEPTH]`, `relays:K`,
//! `segments:K:SEG`, `bfs:K[:DEPTH]`, `routing:K`.

use dasched::algos::bfs::HopBfs;
use dasched::algos::broadcast::SingleBroadcast;
use dasched::algos::mst::{EdgeWeights, MstAlgorithm};
use dasched::algos::routing::RoutingInstance;
use dasched::cluster::{quality, CarveConfig, Clustering};
use dasched::core::oracle::execute_row;
use dasched::core::plan::analysis as plan_analysis;
use dasched::core::plan::diff::PlanDiff;
use dasched::core::synthetic::{FloodBall, RelayChain};
use dasched::core::{
    execute, install_ctrl_c, run_loadgen, run_traced_live, run_worker, verify, BlackBoxAlgorithm,
    Capacity, DasProblem, ExecOptions, ExecutorConfig, InterleaveScheduler, LoadgenConfig,
    NetConfig, PrivateScheduler, SchedulePlan, Scheduler, SequentialScheduler, ServeConfig,
    TunedUniformScheduler, UniformScheduler, MESSAGE_BYTES,
};
use dasched::graph::{generators, Graph, NodeId};
use dasched::lowerbound::{analysis, search, HardInstance, HardInstanceParams};
use dasched::obs::{LiveHub, ObsServer};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage(args.first().map(String::as_str)));
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand with the flags it accepts, written as usage prints
/// them and read back by [`parse_flags`]: `--name VALUE` takes one value, a
/// bare `--name` none, `--name [VALUE=default]` an optional one, `--name A
/// B` two. A flag its subcommand does not list is a usage error.
const COMMANDS: &[(&str, &str)] = &[
    ("run", "--graph SPEC --workload SPEC --scheduler NAME [--seed N]"),
    (
        "plan",
        "--graph SPEC --workload SPEC --scheduler NAME [--seed N] [--sched-seed N] [--out FILE] \
         [--in FILE] [--execute] [--shards N] [--oracle] [--dump-outcome FILE] \
         [--dump-outputs FILE]",
    ),
    ("plan", "--graph SPEC --workload SPEC --diff A.json B.json"),
    (
        "trace",
        "--graph SPEC --workload SPEC --scheduler NAME [--seed N] [--sched-seed N] [--shards N] \
         [--export chrome|jsonl|text] [--top K] [--out FILE] [--serve [ADDR=127.0.0.1:0]] \
         [--keep-open] [--dump-outcome FILE]",
    ),
    ("compare", "--graph SPEC --workload SPEC [--seed N]"),
    ("carve", "--graph SPEC --dilation D [--layers L] [--seed N]"),
    ("lowerbound", "--layers L --eta E --k K --p P [--seed N]"),
    ("mst", "--graph SPEC [--cap C] [--k K] [--seed N]"),
    (
        "coordinator",
        "--graph SPEC --workload SPEC --scheduler NAME --workers N [--seed N] [--sched-seed N] \
         [--listen ADDR] [--timeout-ms N] [--dump-outcome FILE] [--serve-obs ADDR] [--keep-open]",
    ),
    (
        "worker",
        "--graph SPEC --workload SPEC --connect HOST:PORT [--seed N] [--timeout-ms N]",
    ),
    (
        "serve",
        "--graph SPEC [--scheduler NAME] [--seed N] [--sched-seed N] [--listen ADDR] [--batch N] \
         [--pool N] [--max-dilation N] [--max-congestion N] [--max-payload N] [--serve-obs ADDR] \
         [--timeout-ms N]",
    ),
    (
        "loadgen",
        "--graph SPEC --connect HOST:PORT [--seed N] [--clients N] [--jobs N] [--depth N] [--check] \
         [--reject-every N] [--out FILE] [--dump-outputs FILE] [--timeout-ms N]",
    ),
];

const SPECS: &str = "
graph specs:    path:N  cycle:N  grid:RxC  gnp:N:P  tree:N:ARITY
                expander:N:D  star:N  hypercube:D
workload specs: mixed:K[:DEPTH]  floods:K[:DEPTH]  relays:K
                segments:K:SEG  bfs:K[:DEPTH]  routing:K
schedulers:     sequential  interleave  uniform  tuned  private";

/// A usage line's flags: each `--name` token with the value placeholders
/// that follow it.
fn flag_groups(line: &'static str) -> Vec<Vec<&'static str>> {
    let mut groups: Vec<Vec<&str>> = Vec::new();
    for token in line.split_whitespace() {
        match groups.last_mut() {
            Some(group) if !token.trim_start_matches('[').starts_with("--") => group.push(token),
            _ => groups.push(vec![token]),
        }
    }
    groups
}

/// The usage text of `cmd` — of every subcommand when `cmd` is not one.
fn usage(cmd: Option<&str>) -> String {
    let known = |name: &str| COMMANDS.iter().any(|(c, _)| *c == name);
    let only = cmd.filter(|name| known(name));
    let mut out = String::from("usage:");
    for (name, line) in COMMANDS {
        if only.is_some_and(|only| only != *name) {
            continue;
        }
        let mut row = format!("\n  dasched {name:<11}");
        for group in flag_groups(line) {
            let group = group.join(" ");
            if row.len() + group.len() > 100 {
                out += &row;
                row = format!("\n{:21}", "");
            }
            row = row + " " + &group;
        }
        out += &row;
    }
    out + "\n" + SPECS
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    let opts = parse_flags(cmd, rest)?;
    let seed = opt_u64(&opts, "seed")?.unwrap_or(42);
    match cmd.as_str() {
        "run" => cmd_run(&opts, seed),
        "plan" => cmd_plan(&opts, seed),
        "trace" => cmd_trace(&opts, seed),
        "compare" => cmd_compare(&opts, seed),
        "carve" => cmd_carve(&opts, seed),
        "lowerbound" => cmd_lowerbound(&opts, seed),
        "mst" => cmd_mst(&opts, seed),
        "coordinator" => cmd_coordinator(&opts, seed),
        "worker" => cmd_worker(&opts, seed),
        "serve" => cmd_serve(&opts, seed),
        "loadgen" => cmd_loadgen(&opts, seed),
        other => unreachable!("parse_flags knows no flags for `{other}`"),
    }
}

// ---------------------------------------------------------------- parsing

/// Parses `cmd`'s flags against its [`COMMANDS`] lines. A two-value flag
/// `--name A B` is stored as `name-a` and `name-b`.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let lines = COMMANDS.iter().filter(|(name, _)| *name == cmd);
    let accepted: Vec<Vec<&str>> = lines.flat_map(|(_, line)| flag_groups(line)).collect();
    if accepted.is_empty() {
        return Err(format!("unknown command `{cmd}`"));
    }
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let group = accepted
            .iter()
            .find(|group| group[0].trim_matches(['[', ']']) == flag)
            .ok_or_else(|| format!("unknown flag --{name} for `dasched {cmd}`"))?;
        match group[1..] {
            [] => {
                out.insert(name.to_string(), "true".to_string());
            }
            // an optional value: consume the next token only when it is
            // not another flag
            [value] if value.starts_with('[') => {
                let default = value
                    .trim_matches(['[', ']'])
                    .split_once('=')
                    .map(|(_, d)| d);
                let value = it.next_if(|v| !v.starts_with("--")).map(String::as_str);
                let value = value.or(default).unwrap_or_default();
                out.insert(name.to_string(), value.to_string());
            }
            [_] => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                out.insert(name.to_string(), value.clone());
            }
            ref values => {
                for (suffix, _) in ('a'..).zip(values) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs {} values", values.len()))?;
                    out.insert(format!("{name}-{suffix}"), value.clone());
                }
            }
        }
    }
    Ok(out)
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing --{key}"))
}

fn opt_u64(opts: &HashMap<String, String>, key: &str) -> Result<Option<u64>, String> {
    opts.get(key)
        .map(|s| s.parse().map_err(|_| format!("--{key} must be a number")))
        .transpose()
}

/// Checked `usize` flag parse: out-of-range values are a usage error, not
/// a silent truncation (`opt_u64(...)? as usize` wrapped on 32-bit hosts).
fn opt_usize(opts: &HashMap<String, String>, key: &str) -> Result<Option<usize>, String> {
    opts.get(key)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("--{key} must be a non-negative integer fitting usize"))
        })
        .transpose()
}

/// Checked `u32` flag parse; same contract as [`opt_usize`].
fn opt_u32(opts: &HashMap<String, String>, key: &str) -> Result<Option<u32>, String> {
    opts.get(key)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("--{key} must be a non-negative integer fitting u32"))
        })
        .transpose()
}

/// Parses a shard/worker count flag. Zero is rejected at parse time: the
/// partitioner would silently clamp it to 1 and the run would be
/// misreported as what the user asked for.
fn opt_count(opts: &HashMap<String, String>, key: &str) -> Result<Option<usize>, String> {
    match opt_usize(opts, key)? {
        Some(0) => Err(format!("--{key} must be >= 1")),
        v => Ok(v),
    }
}

/// Reports when a requested shard/worker count exceeds the node count and
/// will run clamped, so the console record matches reality.
fn note_clamped(key: &str, requested: usize, n: usize) {
    if requested > n {
        println!("note: --{key} {requested} exceeds n={n}; running {n} effective shard(s)");
    }
}

/// Parses a graph spec like `grid:8x8` or `gnp:100:0.05`.
fn parse_graph(spec: &str, seed: u64) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let usize_at = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad graph spec `{spec}`"))
    };
    match parts[0] {
        "path" => Ok(generators::path(usize_at(1)?)),
        "cycle" => Ok(generators::cycle(usize_at(1)?)),
        "star" => Ok(generators::star(usize_at(1)?)),
        "hypercube" => Ok(generators::hypercube(usize_at(1)?)),
        "grid" => {
            let dims: Vec<&str> = parts
                .get(1)
                .ok_or_else(|| format!("bad graph spec `{spec}`"))?
                .split('x')
                .collect();
            let r: usize = dims
                .first()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad grid spec `{spec}`"))?;
            let c: usize = dims
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad grid spec `{spec}`"))?;
            Ok(generators::grid(r, c))
        }
        "tree" => Ok(generators::balanced_tree(usize_at(1)?, usize_at(2)?)),
        "expander" => Ok(generators::random_regular_expander(
            usize_at(1)?,
            usize_at(2)?,
            seed,
        )),
        "gnp" => {
            let n = usize_at(1)?;
            let p: f64 = parts
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad gnp spec `{spec}`"))?;
            Ok(generators::gnp_connected(n, p, seed))
        }
        other => Err(format!("unknown graph kind `{other}`")),
    }
}

/// Parses a workload spec like `mixed:18` into black boxes.
fn parse_workload(
    spec: &str,
    g: &Graph,
    seed: u64,
) -> Result<Vec<Box<dyn BlackBoxAlgorithm>>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let k: usize = parts
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad workload spec `{spec}` (need KIND:K)"))?;
    if k == 0 {
        return Err("workload needs k >= 1".into());
    }
    let n = g.node_count() as u64;
    let depth: u32 = parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let src = |i: u64| NodeId(((i * 2654435761 + seed) % n) as u32);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = match parts[0] {
        "floods" => (0..k as u64)
            .map(|i| Box::new(FloodBall::new(i, g, src(i), depth)) as Box<dyn BlackBoxAlgorithm>)
            .collect(),
        "bfs" => (0..k as u64)
            .map(|i| Box::new(HopBfs::new(i, g, src(i), depth)) as Box<dyn BlackBoxAlgorithm>)
            .collect(),
        "relays" => (0..k as u64)
            .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn BlackBoxAlgorithm>)
            .collect(),
        "segments" => {
            let seg: usize = parts
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("segments needs KIND:K:SEG")?;
            if seg + 1 >= g.node_count() {
                return Err("segment longer than the path".into());
            }
            (0..k)
                .map(|i| {
                    let start = (i * 2) % (g.node_count() - seg - 1);
                    let route: Vec<NodeId> =
                        (start..=start + seg).map(|v| NodeId(v as u32)).collect();
                    Box::new(RelayChain::along(i as u64, g, route)) as Box<dyn BlackBoxAlgorithm>
                })
                .collect()
        }
        "routing" => RoutingInstance::random_shortest_paths(g, k, seed).algorithms(g),
        "mixed" => (0..k as u64)
            .map(|i| match i % 3 {
                0 => Box::new(HopBfs::new(i, g, src(i), depth)) as Box<dyn BlackBoxAlgorithm>,
                1 => Box::new(SingleBroadcast::new(i, g, src(i), depth)),
                _ => Box::new(FloodBall::new(i, g, src(i), depth)),
            })
            .collect(),
        other => return Err(format!("unknown workload kind `{other}`")),
    };
    Ok(algos)
}

fn parse_scheduler(name: &str) -> Result<Box<dyn Scheduler>, String> {
    Ok(match name {
        "sequential" => Box::new(SequentialScheduler),
        "interleave" => Box::new(InterleaveScheduler),
        "uniform" => Box::new(UniformScheduler::default()),
        "tuned" => Box::new(TunedUniformScheduler::default()),
        "private" => Box::new(PrivateScheduler::default()),
        other => return Err(format!("unknown scheduler `{other}`")),
    })
}

// ---------------------------------------------------------------- commands

fn describe(problem: &DasProblem<'_>) -> Result<String, String> {
    let params = problem.parameters().map_err(|e| e.to_string())?;
    Ok(format!(
        "n={} k={} congestion={} dilation={} (trivial LB {})",
        problem.graph().node_count(),
        problem.k(),
        params.congestion,
        params.dilation,
        params.trivial_lower_bound()
    ))
}

fn report_one(name: &str, problem: &DasProblem<'_>, s: &dyn Scheduler) -> Result<(), String> {
    let outcome = s.run(problem).map_err(|e| e.to_string())?;
    let rep = verify::against_references(problem, &outcome).map_err(|e| e.to_string())?;
    println!(
        "{name:<12} schedule {:>6} rounds  precompute {:>6}  late {:>4}  correct {:>5.1}%",
        outcome.schedule_rounds(),
        outcome.precompute_rounds,
        outcome.stats.late_messages,
        rep.correctness_rate() * 100.0
    );
    Ok(())
}

fn cmd_run(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let sched = parse_scheduler(req(opts, "scheduler")?)?;
    let problem = DasProblem::new(&g, algos, seed);
    println!("{}", describe(&problem)?);
    report_one(sched.name(), &problem, sched.as_ref())
}

fn cmd_plan(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    // usage errors surface before any planning work: the row oracle is
    // fused by signature, so there is no silent fallback to another loop
    let shards = opt_count(opts, "shards")?.unwrap_or(1);
    let oracle = opts.contains_key("oracle");
    if oracle && shards > 1 {
        return Err(format!(
            "--oracle is the fused row oracle and cannot run with --shards {shards}"
        ));
    }
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let problem = DasProblem::new(&g, algos, seed);
    if let Some(path_a) = opts.get("diff-a") {
        let path_b = opts.get("diff-b").expect("--diff parses both files");
        return diff_plans(&problem, path_a, path_b);
    }
    let plan = match opts.get("in") {
        Some(path) => {
            let plan = load_plan(&problem, path)?;
            println!("loaded plan from {path}");
            plan
        }
        None => {
            let sched = parse_scheduler(req(opts, "scheduler")?)?;
            let sched_seed =
                opt_u64(opts, "sched-seed")?.unwrap_or_else(|| sched.default_sched_seed());
            sched
                .plan(&problem, sched_seed)
                .map_err(|e| e.to_string())?
        }
    };
    println!("{}", describe(&problem)?);
    println!(
        "plan: scheduler={} sched_seed={} phase_len={} units={} precompute={} predicted={} rounds",
        plan.scheduler,
        plan.sched_seed,
        plan.phase_len,
        plan.unit_count(),
        plan.precompute_rounds,
        plan.predicted_rounds
    );
    let load = plan_analysis::predict(&problem, &plan).map_err(|e| e.to_string())?;
    println!(
        "load: delivered={} late={} peak arc load/big-round={} max queue={} -> {}",
        load.predicted_delivered,
        load.predicted_late,
        load.peak_big_round_arc_load,
        load.predicted_max_arc_queue,
        if load.feasible() {
            "feasible"
        } else {
            "infeasible"
        }
    );
    if opts.contains_key("execute") {
        run_planned(opts, oracle, shards, &problem, &plan)?;
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, plan.to_json()).map_err(|e| e.to_string())?;
            println!("wrote plan JSON to {path}");
        }
        None => println!("{}", plan.to_json()),
    }
    Ok(())
}

/// Reads a plan file for `problem` (`plan --in`, `plan --diff`). A
/// deserialized plan is untrusted: it is validated, and its
/// `predicted_rounds` is derived again from its units and phase length, as
/// [`SchedulePlan::assemble`] derives it — a hand-edited `phase_len` would
/// otherwise leave a stale prediction behind.
fn load_plan(problem: &DasProblem<'_>, path: &str) -> Result<SchedulePlan, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = SchedulePlan::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    plan.validate(problem).map_err(|e| format!("{path}: {e}"))?;
    let (name, seed, pre) = (&plan.scheduler, plan.sched_seed, plan.precompute_rounds);
    Ok(SchedulePlan::assemble(
        name,
        seed,
        plan.phase_len,
        pre,
        problem,
        plan.units,
    ))
}

/// The `plan --diff A.json B.json` tail: load both plans, diff them
/// unit-by-unit, and print the per-phase predicted-load comparison.
fn diff_plans(problem: &DasProblem<'_>, path_a: &str, path_b: &str) -> Result<(), String> {
    let a = load_plan(problem, path_a)?;
    let b = load_plan(problem, path_b)?;
    let diff = PlanDiff::between(problem, &a, &b).map_err(|e| e.to_string())?;
    print!("{}", diff.render());
    Ok(())
}

/// The `plan --execute` tail: run the plan (sharded when `--shards N > 1`,
/// with a fused-identity check and per-shard report; on the row oracle
/// with `--oracle`), verify, and honor `--dump-outcome`.
fn run_planned(
    opts: &HashMap<String, String>,
    oracle: bool,
    shards: usize,
    problem: &DasProblem<'_>,
    plan: &dasched::core::SchedulePlan,
) -> Result<(), String> {
    note_clamped("shards", shards, problem.graph().node_count());
    let t0 = std::time::Instant::now();
    let fused = if oracle {
        execute_row(problem, plan, &ExecutorConfig::default())
    } else {
        execute(problem, plan, ExecOptions::default()).map(|done| done.outcome)
    }
    .map_err(|e| e.to_string())?;
    let fused_ms = t0.elapsed().as_secs_f64() * 1e3;
    let outcome = if shards > 1 {
        let t1 = std::time::Instant::now();
        let done =
            execute(problem, plan, ExecOptions::sharded(shards)).map_err(|e| e.to_string())?;
        let (sharded, report) = (done.outcome, done.shard);
        let sharded_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "sharded: {} shards, {} cross-shard messages, wall {sharded_ms:.1} ms (fused {fused_ms:.1} ms)",
            report.shards, report.cross_shard_messages
        );
        for s in &report.per_shard {
            println!(
                "  shard {}: {} nodes (degree {}), steps {}, delivered {}, cross-sent {}, step {:.1} ms, drain {:.1} ms",
                s.shard,
                s.nodes,
                s.degree,
                s.steps,
                s.delivered,
                s.cross_sent,
                s.step_nanos as f64 / 1e6,
                s.drain_nanos as f64 / 1e6
            );
        }
        if format!("{fused:?}") != format!("{sharded:?}") {
            return Err("sharded outcome diverged from the fused execution".into());
        }
        println!("sharded outcome is byte-identical to the fused execution");
        sharded
    } else {
        println!("executed fused in {fused_ms:.1} ms");
        fused
    };
    let rep = verify::against_references(problem, &outcome).map_err(|e| e.to_string())?;
    println!(
        "executed: schedule {} rounds, precompute {}, late {}, correct {:.1}%",
        outcome.schedule_rounds(),
        outcome.precompute_rounds,
        outcome.stats.late_messages,
        rep.correctness_rate() * 100.0
    );
    if let Some(path) = opts.get("dump-outcome") {
        std::fs::write(path, format!("{outcome:?}")).map_err(|e| e.to_string())?;
        println!("wrote outcome debug dump to {path}");
    }
    if let Some(path) = opts.get("dump-outputs") {
        let entries: Vec<(u64, Vec<Option<Vec<u8>>>)> = outcome
            .outputs
            .iter()
            .enumerate()
            .map(|(i, outs)| (problem.algorithms()[i].aid().0, outs.clone()))
            .collect();
        std::fs::write(path, render_outputs(&entries)).map_err(|e| e.to_string())?;
        println!("wrote per-job outputs to {path}");
    }
    Ok(())
}

/// Canonical per-job output dump: one line per `(job, node)` pair, keyed
/// by algorithm/job id so a served run and a one-shot run of the same job
/// set diff byte-identically regardless of batching.
fn render_outputs(entries: &[(u64, Vec<Option<Vec<u8>>>)]) -> String {
    let mut out = String::new();
    for (aid, outputs) in entries {
        for (v, bytes) in outputs.iter().enumerate() {
            out.push_str(&format!("job={aid} node={v} out="));
            match bytes {
                Some(b) => {
                    for byte in b {
                        out.push_str(&format!("{byte:02x}"));
                    }
                }
                None => out.push('-'),
            }
            out.push('\n');
        }
    }
    out
}

/// `dasched trace`: one fully observed plan → execute → verify run, with
/// the assembled report exported as a Chrome `trace_events` JSON (load it
/// at <https://ui.perfetto.dev>), a JSONL event stream, or a plain-text
/// hot-spot report. Status goes to stderr so stdout stays a clean export
/// when `--out` is not given.
fn cmd_trace(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let problem = DasProblem::new(&g, algos, seed);
    let sched = parse_scheduler(req(opts, "scheduler")?)?;
    let sched_seed = opt_u64(opts, "sched-seed")?.unwrap_or_else(|| sched.default_sched_seed());
    let shards = opt_count(opts, "shards")?.unwrap_or(1);
    note_clamped("shards", shards, problem.graph().node_count());
    let top = opt_usize(opts, "top")?.unwrap_or(10);
    let export = opts.get("export").map(String::as_str).unwrap_or("chrome");

    let obs = dasched::obs::ObsConfig::full();
    if !obs.enabled() {
        return Err("das-obs was built without the `record` feature".into());
    }
    // --serve: share a live hub between the executing threads and an HTTP
    // server; snapshots publish only at big-round barriers, so the served
    // run's outcome stays byte-identical to an unserved one.
    let live = opts.get("serve").map(|_| Arc::new(LiveHub::new()));
    let server = match (opts.get("serve"), &live) {
        (Some(addr), Some(hub)) => {
            let srv =
                ObsServer::bind(addr, hub.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
            // launch contract: scripts read the bound address (port 0 is
            // resolved by the OS) from this exact stdout line
            println!("listening on {}", srv.local_addr());
            Some(srv)
        }
        _ => None,
    };
    let traced = run_traced_live(&problem, sched.as_ref(), sched_seed, shards, &obs, live)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "traced {} on {} shard(s): schedule {} rounds, precompute {}, late {}, correct {:.1}%, {} events",
        sched.name(),
        traced.shard_report.as_ref().map_or(1, |r| r.shards),
        traced.outcome.schedule_rounds(),
        traced.outcome.precompute_rounds,
        traced.outcome.stats.late_messages,
        traced.verify.correctness_rate() * 100.0,
        traced.report.events.len(),
    );
    let body = match export {
        "chrome" => traced.report.to_chrome_trace(),
        "jsonl" => traced.report.to_jsonl(),
        "text" => traced.report.hot_text(top),
        other => {
            return Err(format!(
                "unknown export format `{other}` (chrome|jsonl|text)"
            ))
        }
    };
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| e.to_string())?;
            eprintln!("wrote {export} export to {path}");
        }
        None => print!("{body}"),
    }
    if let Some(path) = opts.get("dump-outcome") {
        std::fs::write(path, format!("{:?}", traced.outcome)).map_err(|e| e.to_string())?;
        eprintln!("wrote outcome debug dump to {path}");
    }
    if let Some(srv) = &server {
        if opts.contains_key("keep-open") {
            eprintln!("run finished; serving on {} until Ctrl-C", srv.local_addr());
            let stop = install_ctrl_c();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
    drop(server);
    Ok(())
}

fn cmd_compare(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let problem = DasProblem::new(&g, algos, seed);
    println!("{}", describe(&problem)?);
    for name in ["sequential", "interleave", "uniform", "tuned", "private"] {
        let sched = parse_scheduler(name)?;
        report_one(name, &problem, sched.as_ref())?;
    }
    Ok(())
}

fn cmd_carve(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let dilation = opt_u32(opts, "dilation")?.ok_or("missing --dilation")?;
    let mut cfg = CarveConfig::for_dilation(&g, dilation);
    if let Some(l) = opt_usize(opts, "layers")? {
        cfg = cfg.with_num_layers(l);
    }
    let cl = Clustering::carve_centralized(&g, &cfg, seed);
    let q = quality::measure(&g, &cl, dilation);
    println!(
        "n={} dilation={} layers={} horizon={}",
        g.node_count(),
        dilation,
        cfg.num_layers,
        cfg.horizon
    );
    println!(
        "weak radius {} (cap {}), padding/layer {:.2}, covering layers min {} avg {:.1}",
        q.max_weak_radius,
        cfg.horizon,
        q.padding_rate,
        q.min_covering_layers,
        q.avg_covering_layers
    );
    println!(
        "clusters/layer {:.1}, pre-computation rounds {}",
        q.avg_clusters_per_layer,
        cl.precompute_rounds()
    );
    Ok(())
}

fn cmd_lowerbound(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let layers = opt_usize(opts, "layers")?.ok_or("missing --layers")?;
    let eta = opt_usize(opts, "eta")?.ok_or("missing --eta")?;
    let k = opt_usize(opts, "k")?.ok_or("missing --k")?;
    let p: f64 = req(opts, "p")?
        .parse()
        .map_err(|_| "--p must be a probability")?;
    let inst = HardInstance::sample(HardInstanceParams::custom(layers, eta, k, p), seed);
    let (c, d, trivial, target) = analysis::targets(&inst);
    println!(
        "hard instance: n={} C={c} D={d} trivial LB={trivial} log-factor target={target}",
        inst.graph().node_count()
    );
    for rounds in [1u32, 2, 4, 8] {
        let rate = analysis::pattern_failure_rate(&inst, rounds, d, 100, seed);
        println!(
            "  capacity {rounds}/edge/phase over {d} phases: {:>5.1}% of crossing patterns overload",
            rate * 100.0
        );
    }
    let best = search::best_greedy(&inst, 12);
    println!(
        "best greedy schedule: {} rounds (ratio to C+D: {:.2})",
        best.length,
        best.length as f64 / trivial as f64
    );
    Ok(())
}

fn cmd_mst(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let cap = opt_u32(opts, "cap")?.unwrap_or(0);
    let k = opt_usize(opts, "k")?.unwrap_or(1);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..k as u64)
        .map(|i| {
            Box::new(MstAlgorithm::new(
                i,
                &g,
                EdgeWeights::random(&g, seed + i),
                cap,
            )) as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    let frag = {
        let a = MstAlgorithm::new(0, &g, EdgeWeights::random(&g, seed), cap);
        (a.decomposition().count, a.decomposition().charged_rounds)
    };
    let problem = DasProblem::new(&g, algos, seed);
    println!(
        "{} | fragments {} (cap {cap}, {} charged rounds)",
        describe(&problem)?,
        frag.0,
        frag.1
    );
    report_one("uniform", &problem, &UniformScheduler::default())
}

/// Builds a [`NetConfig`] from the shared networking flags.
fn parse_net(opts: &HashMap<String, String>) -> Result<NetConfig, String> {
    let mut net = NetConfig::default();
    if let Some(ms) = opt_u64(opts, "timeout-ms")? {
        if ms == 0 {
            return Err("--timeout-ms must be >= 1".into());
        }
        net = net.with_io_timeout_ms(ms);
    }
    Ok(net)
}

/// `dasched coordinator`: plan locally, accept one TCP connection per
/// worker, relay cross-shard traffic at big-round boundaries, and verify
/// the collected outcome. Workers must be launched with the same
/// `--graph/--workload/--seed` flags; the handshake enforces it.
fn cmd_coordinator(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let problem = DasProblem::new(&g, algos, seed);
    let sched = parse_scheduler(req(opts, "scheduler")?)?;
    let sched_seed = opt_u64(opts, "sched-seed")?.unwrap_or_else(|| sched.default_sched_seed());
    let workers = opt_count(opts, "workers")?.ok_or("missing --workers")?;
    let listen = opts
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let plan = sched
        .plan(&problem, sched_seed)
        .map_err(|e| e.to_string())?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // this line is the launch contract: workers (and scripts spawning
    // them) read the bound address from it, so print it before blocking
    println!("listening on {addr}");
    println!("{}", describe(&problem)?);
    note_clamped("workers", workers, problem.graph().node_count());
    // --serve-obs: aggregate the workers' ACTIVITY-piggybacked telemetry
    // and the coordinator-side link traffic behind a live HTTP endpoint.
    let obs_hub = match opts.get("serve-obs") {
        Some(bind) => {
            let hub = Arc::new(LiveHub::new());
            hub.set_run_info("networked", workers.min(problem.graph().node_count()));
            hub.set_phase("execute");
            let srv =
                ObsServer::bind(bind, hub.clone()).map_err(|e| format!("bind {bind}: {e}"))?;
            println!("obs listening on {}", srv.local_addr());
            Some((hub, srv))
        }
        None => None,
    };
    let stop = install_ctrl_c();
    let net = parse_net(opts)?
        .with_stop(stop.clone())
        .with_live(obs_hub.as_ref().map(|(h, _)| h.clone()));
    let t0 = std::time::Instant::now();
    let net_opts = ExecOptions::networked(workers, listener, &net);
    let report = execute(&problem, &plan, net_opts).map_err(|e| e.to_string())?;
    let outcome = report.outcome;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "networked: {} worker(s), {} cross-shard messages, wall {wall_ms:.1} ms",
        report.shard.shards, report.shard.cross_shard_messages
    );
    for (s, t) in report.shard.per_shard.iter().zip(&report.traffic) {
        println!(
            "  worker {}: {} nodes, steps {}, delivered {}, cross-sent {}, \
             tx {} frames / {} B, rx {} frames / {} B",
            s.shard,
            s.nodes,
            s.steps,
            s.delivered,
            s.cross_sent,
            t.frames_sent,
            t.bytes_sent,
            t.frames_received,
            t.bytes_received
        );
    }
    let rep = verify::against_references(&problem, &outcome).map_err(|e| e.to_string())?;
    println!(
        "executed: schedule {} rounds, precompute {}, late {}, correct {:.1}%",
        outcome.schedule_rounds(),
        outcome.precompute_rounds,
        outcome.stats.late_messages,
        rep.correctness_rate() * 100.0
    );
    if let Some(path) = opts.get("dump-outcome") {
        std::fs::write(path, format!("{outcome:?}")).map_err(|e| e.to_string())?;
        println!("wrote outcome debug dump to {path}");
    }
    if let Some((hub, srv)) = &obs_hub {
        hub.set_phase("done");
        if opts.contains_key("keep-open") {
            println!(
                "run finished; obs serving on {} until Ctrl-C",
                srv.local_addr()
            );
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
    Ok(())
}

/// `dasched worker`: rebuild the problem from the same flags as the
/// coordinator, connect, and run the assigned shard to completion.
fn cmd_worker(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let algos = parse_workload(req(opts, "workload")?, &g, seed)?;
    let problem = DasProblem::new(&g, algos, seed);
    let connect = req(opts, "connect")?;
    let net = parse_net(opts)?;
    println!("connecting to {connect}");
    let out = run_worker(&problem, connect, &net).map_err(|e| e.to_string())?;
    println!(
        "worker done: shard {}/{}, steps {}, delivered {}, cross-sent {}, big-rounds {}, \
         tx {} frames / {} B, rx {} frames / {} B",
        out.shard,
        out.shards,
        out.steps,
        out.delivered,
        out.cross_sent,
        out.big_rounds,
        out.traffic.frames_sent,
        out.traffic.bytes_sent,
        out.traffic.frames_received,
        out.traffic.bytes_received
    );
    Ok(())
}

/// `dasched serve`: a long-lived scheduling daemon. Clients SUBMIT jobs
/// with declared budgets; admission is a content-free comparison against
/// the advertised capacity; admitted jobs are batched into DAS instances,
/// planned through the sweep cache, executed on the in-process pool, and
/// verified before each RESULT goes back. Runs until Ctrl-C, then drains
/// the admitted queue and prints the final counters.
fn cmd_serve(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let sched = parse_scheduler(
        opts.get("scheduler")
            .map(String::as_str)
            .unwrap_or("uniform"),
    )?;
    let sched_seed = opt_u64(opts, "sched-seed")?.unwrap_or_else(|| sched.default_sched_seed());
    let mut capacity = Capacity::default();
    if let Some(v) = opt_u32(opts, "max-dilation")? {
        capacity.max_dilation = v;
    }
    if let Some(v) = opt_u64(opts, "max-congestion")? {
        capacity.max_congestion = v;
    }
    if let Some(v) = opt_u32(opts, "max-payload")? {
        // advertising more than the executor carries would admit jobs
        // whose every larger send is then dropped as invalid
        if v as usize > MESSAGE_BYTES {
            return Err(format!(
                "--max-payload must be at most {MESSAGE_BYTES}, the executor's message size"
            ));
        }
        capacity.max_payload_bytes = v;
    }
    let listen = opts
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // launch contract, same as coordinator/trace: scripts read the bound
    // address from this exact line before connecting
    println!("listening on {addr}");
    let pool = opt_count(opts, "pool")?.unwrap_or(2);
    note_clamped("pool", pool, g.node_count());
    let obs_hub = match opts.get("serve-obs") {
        Some(bind) => {
            let hub = Arc::new(LiveHub::new());
            hub.set_run_info("serve", pool.min(g.node_count()));
            hub.set_phase("serve");
            let srv =
                ObsServer::bind(bind, hub.clone()).map_err(|e| format!("bind {bind}: {e}"))?;
            println!("obs listening on {}", srv.local_addr());
            Some((hub, srv))
        }
        None => None,
    };
    let stop = install_ctrl_c();
    let net = parse_net(opts)?
        .with_stop(stop.clone())
        .with_live(obs_hub.as_ref().map(|(h, _)| h.clone()));
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        batch_max: opt_count(opts, "batch")?.unwrap_or(defaults.batch_max),
        pool_shards: pool,
        capacity,
        tape_seed: seed,
        sched_seed,
        net,
    };
    println!(
        "serving {} jobs/batch on {} pool shard(s), capacity: dilation {} congestion {} payload {} B",
        cfg.batch_max,
        cfg.pool_shards,
        cfg.capacity.max_dilation,
        cfg.capacity.max_congestion,
        cfg.capacity.max_payload_bytes
    );
    let report =
        dasched::core::serve(&g, sched.as_ref(), listener, &cfg).map_err(|e| e.to_string())?;
    if let Some((hub, _)) = &obs_hub {
        hub.set_phase("done");
    }
    println!(
        "serve done: admitted {} rejected {} completed {} failed {} over {} batch(es)",
        report.admitted, report.rejected, report.completed, report.failed, report.batches
    );
    Ok(())
}

/// `dasched loadgen`: deterministic concurrent job streams against a serve
/// daemon. `--check` re-derives every output locally and fails on any byte
/// mismatch; `--out` writes the bench point JSON; `--dump-outputs` writes
/// the canonical per-job output lines for diffing against
/// `plan --execute --dump-outputs`.
fn cmd_loadgen(opts: &HashMap<String, String>, seed: u64) -> Result<(), String> {
    let g = parse_graph(req(opts, "graph")?, seed)?;
    let connect = req(opts, "connect")?;
    let cfg = LoadgenConfig {
        clients: opt_count(opts, "clients")?.unwrap_or(2),
        jobs_per_client: opt_count(opts, "jobs")?.unwrap_or(8),
        depth: opt_u32(opts, "depth")?.unwrap_or(6),
        seed,
        check: opts.contains_key("check"),
        reject_every: opt_usize(opts, "reject-every")?.unwrap_or(0),
        net: parse_net(opts)?,
    };
    println!(
        "loadgen: {} client(s) x {} job(s), depth {}, seed {seed} -> {connect}",
        cfg.clients, cfg.jobs_per_client, cfg.depth
    );
    let report = run_loadgen(&g, connect, &cfg).map_err(|e| e.to_string())?;
    println!(
        "loadgen done: submitted {} completed {} rejected {} failed {} in {} ms",
        report.submitted, report.completed, report.rejected, report.failed, report.wall_ms
    );
    println!(
        "throughput {:.1} jobs/s, latency p50 {:.1} ms p95 {:.1} ms p99 {:.1} ms",
        report.jobs_per_sec, report.p50_ms, report.p95_ms, report.p99_ms
    );
    if cfg.check {
        println!(
            "output check: {} byte mismatch(es)",
            report.check_mismatches
        );
    }
    if let Some(path) = opts.get("out") {
        let json = format!(
            "{{\n  \"label\": \"e01_serve\",\n  \"jobs_per_sec\": {:.3},\n  \"p50_ms\": {:.3},\n  \
             \"p95_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"submitted\": {},\n  \"completed\": {},\n  \
             \"rejected\": {},\n  \"failed\": {},\n  \"check_mismatches\": {},\n  \"wall_ms\": {}\n}}\n",
            report.jobs_per_sec,
            report.p50_ms,
            report.p95_ms,
            report.p99_ms,
            report.submitted,
            report.completed,
            report.rejected,
            report.failed,
            report.check_mismatches,
            report.wall_ms
        );
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote bench point to {path}");
    }
    if let Some(path) = opts.get("dump-outputs") {
        std::fs::write(path, render_outputs(&report.outputs)).map_err(|e| e.to_string())?;
        println!("wrote per-job outputs to {path}");
    }
    if report.failed > 0 {
        return Err(format!("{} job(s) failed", report.failed));
    }
    if report.check_mismatches > 0 {
        return Err(format!(
            "{} output byte mismatch(es) against local alone runs",
            report.check_mismatches
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--graph", "path:5", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_flags("plan", &args).unwrap();
        assert_eq!(opts["graph"], "path:5");
        assert_eq!(opt_u64(&opts, "seed").unwrap(), Some(7));
        assert_eq!(opt_u64(&opts, "nope").unwrap(), None);
        assert!(parse_flags("plan", &["--x".to_string()]).is_err());
        assert!(parse_flags("plan", &["y".to_string()]).is_err());
        // --execute is boolean: it consumes no value
        let args: Vec<String> = ["--execute", "--shards", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_flags("plan", &args).unwrap();
        assert_eq!(opts["execute"], "true");
        assert_eq!(opt_u64(&opts, "shards").unwrap(), Some(3));
    }

    /// Each subcommand takes the flags its usage lines list and no others:
    /// one flag nobody has, and one that only a sibling has, per subcommand.
    #[test]
    fn unlisted_flags_are_usage_errors() {
        let near_miss = [
            ("run", "--sched-seed"),
            ("plan", "--workers"),
            ("trace", "--execute"),
            ("compare", "--scheduler"),
            ("carve", "--workload"),
            ("lowerbound", "--graph"),
            ("mst", "--workload"),
            ("coordinator", "--shards"),
            ("worker", "--workers"),
            ("serve", "--pol"),
            ("loadgen", "--batch"),
        ];
        assert_eq!(near_miss.len() + 1, COMMANDS.len(), "plan has two lines");
        for (cmd, flag) in near_miss {
            for flag in ["--bogus", flag] {
                let args = [cmd, flag, "1"].map(String::from);
                let err = run(&args).unwrap_err();
                let expected = format!("unknown flag {flag} for `dasched {cmd}`");
                assert_eq!(err, expected);
            }
            assert!(usage(Some(cmd)).contains(&format!("dasched {cmd}")));
            assert!(!usage(Some(cmd)).contains("dasched mst") || cmd == "mst");
        }
        // `plan --execute --shard 3` used to run fused and say so
        let args = ["plan", "--execute", "--shard", "3"].map(String::from);
        assert!(run(&args).unwrap_err().contains("unknown flag --shard "));
        assert!(run(&["frobnicate".to_string()])
            .unwrap_err()
            .contains("unknown command"));
        // no subcommand to narrow to: the whole table
        assert!(usage(Some("frobnicate")).contains("dasched mst"));
        assert!(usage(None).lines().all(|line| line.len() <= 101));
    }

    #[test]
    fn serve_flag_takes_an_optional_address() {
        let mk = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_flags("trace", &args).unwrap()
        };
        // explicit address
        let opts = mk(&["--serve", "0.0.0.0:8080", "--shards", "2"]);
        assert_eq!(opts["serve"], "0.0.0.0:8080");
        assert_eq!(opt_u64(&opts, "shards").unwrap(), Some(2));
        // bare --serve followed by another flag: defaults, consumes nothing
        let opts = mk(&["--serve", "--keep-open", "--top", "5"]);
        assert_eq!(opts["serve"], "127.0.0.1:0");
        assert_eq!(opts["keep-open"], "true");
        assert_eq!(opt_u64(&opts, "top").unwrap(), Some(5));
        // bare --serve at the end of the line
        let opts = mk(&["--serve"]);
        assert_eq!(opts["serve"], "127.0.0.1:0");
        // --serve-obs is an ordinary valued flag
        let args = ["--serve-obs".to_string(), "127.0.0.1:9000".to_string()];
        let opts = parse_flags("coordinator", &args).unwrap();
        assert_eq!(opts["serve-obs"], "127.0.0.1:9000");
    }

    #[test]
    fn graph_specs() {
        assert_eq!(parse_graph("path:5", 0).unwrap().node_count(), 5);
        assert_eq!(parse_graph("grid:3x4", 0).unwrap().node_count(), 12);
        assert_eq!(parse_graph("hypercube:3", 0).unwrap().node_count(), 8);
        assert_eq!(parse_graph("tree:7:2", 0).unwrap().edge_count(), 6);
        assert!(parse_graph("gnp:20:0.2", 1).is_ok());
        assert!(parse_graph("expander:12:4", 1).is_ok());
        assert!(parse_graph("blob:3", 0).is_err());
        assert!(parse_graph("grid:3", 0).is_err());
    }

    #[test]
    fn workload_specs() {
        let g = parse_graph("grid:4x4", 0).unwrap();
        assert_eq!(parse_workload("mixed:6", &g, 1).unwrap().len(), 6);
        assert_eq!(parse_workload("floods:3:2", &g, 1).unwrap().len(), 3);
        assert_eq!(parse_workload("routing:4", &g, 1).unwrap().len(), 4);
        assert!(parse_workload("mixed:0", &g, 1).is_err());
        assert!(parse_workload("nope:3", &g, 1).is_err());
        let path = parse_graph("path:30", 0).unwrap();
        assert_eq!(parse_workload("segments:5:10", &path, 1).unwrap().len(), 5);
        assert!(parse_workload("segments:5:40", &path, 1).is_err());
    }

    #[test]
    fn schedulers_resolve() {
        for n in ["sequential", "interleave", "uniform", "tuned", "private"] {
            assert!(!parse_scheduler(n).unwrap().name().is_empty());
        }
        assert!(parse_scheduler("magic").is_err());
    }

    #[test]
    fn end_to_end_run_command() {
        let args: Vec<String> = [
            "run",
            "--graph",
            "path:12",
            "--workload",
            "relays:3",
            "--scheduler",
            "sequential",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }

    #[test]
    fn plan_command_dumps_json_that_round_trips() {
        use dasched::core::SchedulePlan;
        let dir = std::env::temp_dir().join("dasched_plan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("plan.json");
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:16",
            "--workload",
            "relays:3",
            "--scheduler",
            "uniform",
            "--sched-seed",
            "9",
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();

        // the dumped JSON re-executes to the same outcome as the fused path
        let json = std::fs::read_to_string(&out).unwrap();
        let plan = SchedulePlan::from_json(&json).unwrap();
        assert_eq!(plan.scheduler, "uniform-shared");
        assert_eq!(plan.sched_seed, 9);
        let g = parse_graph("path:16", 42).unwrap();
        let algos = parse_workload("relays:3", &g, 42).unwrap();
        let problem = DasProblem::new(&g, algos, 42);
        let replayed = execute(&problem, &plan, ExecOptions::default())
            .unwrap()
            .outcome;
        let fused = UniformScheduler::default()
            .with_seed(9)
            .run(&problem)
            .unwrap();
        assert_eq!(format!("{replayed:?}"), format!("{fused:?}"));
        std::fs::remove_file(out).unwrap();
    }

    /// A plan file's `predicted_rounds` is derived again on load: after a
    /// hand edit of `phase_len`, the stored value is stale.
    #[test]
    fn loaded_plans_predict_from_their_own_phase_len() {
        let dir = std::env::temp_dir().join("dasched_stale_prediction_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (edited, resaved) = (dir.join("edited.json"), dir.join("resaved.json"));
        let (edited, resaved) = (edited.to_str().unwrap(), resaved.to_str().unwrap());
        let read = |path: &str| SchedulePlan::from_json(&std::fs::read_to_string(path).unwrap());
        let plan = |extra: &[&str]| {
            let flags = ["plan", "--graph", "path:16", "--workload", "relays:3"];
            let args: Vec<String> = flags.iter().chain(extra).map(|s| s.to_string()).collect();
            run(&args)
        };
        plan(&["--scheduler", "uniform", "--out", edited]).unwrap();
        let mut stale = read(edited).unwrap();
        assert!(stale.phase_len > 1);
        let boundary = stale.predicted_rounds / stale.phase_len;
        stale.phase_len = 1;
        std::fs::write(edited, stale.to_json()).unwrap();
        plan(&["--in", edited, "--out", resaved]).unwrap();
        let loaded = read(resaved).unwrap();
        assert_eq!(loaded.phase_len, 1);
        assert_eq!(loaded.predicted_rounds, boundary);
        assert_ne!(loaded.predicted_rounds, stale.predicted_rounds);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn plan_execute_sharded_round_trips_through_files() {
        let dir = std::env::temp_dir().join("dasched_sharded_plan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan_file = dir.join("plan.json");
        let fused_dump = dir.join("fused.txt");
        let sharded_dump = dir.join("sharded.txt");

        // plan + execute fused (shards 1), dumping plan and outcome
        let base = [
            "plan",
            "--graph",
            "path:14",
            "--workload",
            "relays:4",
            "--scheduler",
            "uniform",
            "--sched-seed",
            "5",
        ];
        let args: Vec<String> = base
            .iter()
            .copied()
            .chain([
                "--execute",
                "--out",
                plan_file.to_str().unwrap(),
                "--dump-outcome",
                fused_dump.to_str().unwrap(),
            ])
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();

        // re-load the plan with --in and execute on 3 shards
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:14",
            "--workload",
            "relays:4",
            "--in",
            plan_file.to_str().unwrap(),
            "--execute",
            "--shards",
            "3",
            "--dump-outcome",
            sharded_dump.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();

        let fused = std::fs::read_to_string(&fused_dump).unwrap();
        let sharded = std::fs::read_to_string(&sharded_dump).unwrap();
        assert_eq!(fused, sharded, "sharded dump must match the fused dump");
        for f in [plan_file, fused_dump, sharded_dump] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn oracle_flag_is_fused_only() {
        let plan_with = |extra: &[&str]| -> Result<(), String> {
            let args: Vec<String> = [
                "plan",
                "--graph",
                "path:14",
                "--workload",
                "relays:4",
                "--scheduler",
                "uniform",
                "--execute",
            ]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect();
            run(&args)
        };
        let err = plan_with(&["--oracle", "--shards", "3"]).unwrap_err();
        assert!(err.contains("cannot run with --shards 3"), "{err}");
        // there is no engine selector left to ask
        let err = plan_with(&["--engine", "row"]).unwrap_err();
        assert!(err.contains("unknown flag --engine"), "{err}");
        plan_with(&["--oracle"]).unwrap();
        plan_with(&["--shards", "3"]).unwrap();
        // the serve daemon has one engine and no flag for it
        let serve_usage = usage(Some("serve"));
        assert!(serve_usage.contains("--pool N"), "{serve_usage}");
        assert!(!serve_usage.contains("--engine"), "{serve_usage}");
    }

    #[test]
    fn malformed_plan_file_is_rejected() {
        let dir = std::env::temp_dir().join("dasched_bad_plan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan_file = dir.join("bad_plan.json");
        // a plan for a 5-node path cannot execute on a 14-node path
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:5",
            "--workload",
            "relays:2",
            "--scheduler",
            "sequential",
            "--out",
            plan_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:14",
            "--workload",
            "relays:2",
            "--in",
            plan_file.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("delay vector"), "got: {err}");
        std::fs::remove_file(plan_file).unwrap();
    }

    #[test]
    fn diff_flag_consumes_two_values() {
        let args: Vec<String> = ["--diff", "a.json", "b.json", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_flags("plan", &args).unwrap();
        assert_eq!(opts["diff-a"], "a.json");
        assert_eq!(opts["diff-b"], "b.json");
        assert_eq!(opt_u64(&opts, "seed").unwrap(), Some(3));
        assert!(parse_flags("plan", &["--diff".to_string(), "a.json".to_string()]).is_err());
    }

    #[test]
    fn plan_diff_command_diffs_two_plan_files() {
        let dir = std::env::temp_dir().join("dasched_plan_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        for (path, sched_seed) in [(&a, "1"), (&b, "2")] {
            let args: Vec<String> = [
                "plan",
                "--graph",
                "path:14",
                "--workload",
                "relays:4",
                "--scheduler",
                "uniform",
                "--sched-seed",
                sched_seed,
                "--out",
                path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            run(&args).unwrap();
        }
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:14",
            "--workload",
            "relays:4",
            "--diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        // diffing a plan against itself also works (and reports identity)
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:14",
            "--workload",
            "relays:4",
            "--diff",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        for f in [a, b] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn trace_command_exports_all_formats() {
        let dir = std::env::temp_dir().join("dasched_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (export, shards) in [
            ("chrome", "1"),
            ("chrome", "3"),
            ("jsonl", "2"),
            ("text", "1"),
        ] {
            let out = dir.join(format!("trace_{export}_{shards}.out"));
            let args: Vec<String> = [
                "trace",
                "--graph",
                "path:14",
                "--workload",
                "relays:4",
                "--scheduler",
                "uniform",
                "--shards",
                shards,
                "--export",
                export,
                "--top",
                "5",
                "--out",
                out.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            run(&args).unwrap();
            let body = std::fs::read_to_string(&out).unwrap();
            assert!(!body.is_empty());
            if export == "chrome" {
                let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
                assert!(
                    !doc.get("traceEvents")
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .is_empty(),
                    "chrome export must carry events"
                );
            }
            std::fs::remove_file(out).unwrap();
        }
        // unknown formats are rejected
        let args: Vec<String> = [
            "trace",
            "--graph",
            "path:8",
            "--workload",
            "relays:2",
            "--scheduler",
            "uniform",
            "--export",
            "svg",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run(&args).unwrap_err().contains("unknown export format"));
    }

    #[test]
    fn zero_and_overflowing_counts_are_usage_errors() {
        let mk = |pairs: &[(&str, &str)]| {
            let mut m = HashMap::new();
            for (k, v) in pairs {
                m.insert(k.to_string(), v.to_string());
            }
            m
        };
        // --shards 0 used to be silently clamped to 1 by the partitioner
        let err = opt_count(&mk(&[("shards", "0")]), "shards").unwrap_err();
        assert!(err.contains(">= 1"), "got: {err}");
        assert_eq!(
            opt_count(&mk(&[("shards", "3")]), "shards").unwrap(),
            Some(3)
        );
        assert_eq!(opt_count(&mk(&[]), "shards").unwrap(), None);
        // values that fit the flag's type parse checked...
        assert_eq!(opt_u32(&mk(&[("cap", "8")]), "cap").unwrap(), Some(8));
        assert_eq!(opt_usize(&mk(&[("top", "10")]), "top").unwrap(), Some(10));
        // ...and values that do not are usage errors, not truncations
        let err = opt_u32(&mk(&[("cap", "4294967296")]), "cap").unwrap_err();
        assert!(err.contains("u32"), "got: {err}");
        assert!(opt_u32(&mk(&[("cap", "-1")]), "cap").is_err());
        assert!(opt_usize(&mk(&[("top", "1e9")]), "top").is_err());
        // end to end: the run command rejects --shards 0 before executing
        let args: Vec<String> = [
            "plan",
            "--graph",
            "path:8",
            "--workload",
            "relays:2",
            "--scheduler",
            "sequential",
            "--execute",
            "--shards",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--shards must be >= 1"), "got: {err}");
    }

    #[test]
    fn coordinator_rejects_missing_or_zero_workers() {
        let base = [
            "coordinator",
            "--graph",
            "path:8",
            "--workload",
            "relays:2",
            "--scheduler",
            "sequential",
        ];
        let args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        assert!(run(&args).unwrap_err().contains("missing --workers"));
        let args: Vec<String> = base
            .iter()
            .copied()
            .chain(["--workers", "0"])
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("--workers must be >= 1"));
        let args: Vec<String> = base
            .iter()
            .copied()
            .chain(["--workers", "2", "--timeout-ms", "0"])
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args)
            .unwrap_err()
            .contains("--timeout-ms must be >= 1"));
    }

    #[test]
    fn worker_requires_connect() {
        let args: Vec<String> = ["worker", "--graph", "path:8", "--workload", "relays:2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("missing --connect"));
    }

    /// Full coordinator/worker round trip in one process: the coordinator
    /// command runs on a fixed port with two worker threads driving the
    /// `worker` command against it, and the dumped outcome matches the
    /// fused `plan --execute` dump byte for byte.
    #[test]
    fn coordinator_and_worker_commands_round_trip() {
        let dir = std::env::temp_dir().join("dasched_networked_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let fused_dump = dir.join("fused.txt");
        let net_dump = dir.join("networked.txt");
        let base = [
            "--graph",
            "path:12",
            "--workload",
            "relays:3",
            "--seed",
            "11",
        ];

        let fused_args: Vec<String> = ["plan"]
            .iter()
            .copied()
            .chain(base)
            .chain([
                "--scheduler",
                "uniform",
                "--execute",
                "--dump-outcome",
                fused_dump.to_str().unwrap(),
            ])
            .map(|s| s.to_string())
            .collect();
        run(&fused_args).unwrap();

        // a pre-bound port lets the worker threads know where to connect
        // without parsing the coordinator's stdout
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let worker_args: Vec<String> = ["worker"]
            .iter()
            .copied()
            .chain(base)
            .chain(["--connect", &addr, "--timeout-ms", "20000"])
            .map(|s| s.to_string())
            .collect();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let args = worker_args.clone();
                std::thread::spawn(move || run(&args))
            })
            .collect();
        let coord_args: Vec<String> = ["coordinator"]
            .iter()
            .copied()
            .chain(base)
            .chain([
                "--scheduler",
                "uniform",
                "--workers",
                "2",
                "--listen",
                &addr,
                "--timeout-ms",
                "20000",
                "--dump-outcome",
                net_dump.to_str().unwrap(),
            ])
            .map(|s| s.to_string())
            .collect();
        run(&coord_args).unwrap();
        for h in handles {
            h.join().unwrap().unwrap();
        }

        let fused = std::fs::read_to_string(&fused_dump).unwrap();
        let networked = std::fs::read_to_string(&net_dump).unwrap();
        assert_eq!(fused, networked, "networked dump must match the fused dump");
        for f in [fused_dump, net_dump] {
            std::fs::remove_file(f).unwrap();
        }
    }

    /// The serve-path byte-identity contract, through the CLI surfaces: a
    /// loadgen run against a live daemon dumps the same per-job output
    /// lines as a one-shot `plan --execute` of the identical job set
    /// (same graph, seed, depth, and source formula), regardless of how
    /// the daemon batched the jobs.
    #[test]
    fn loadgen_dump_matches_one_shot_plan_execute_dump() {
        use dasched::core::serve as serve_daemon;
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = std::env::temp_dir().join("dasched_serve_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let served_dump = dir.join("served.txt");
        let oneshot_dump = dir.join("oneshot.txt");

        // library-side daemon on an ephemeral port (the serve *command*
        // blocks on Ctrl-C, which a unit test cannot deliver cleanly)
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let g = parse_graph("grid:3x3", 42).unwrap();
        let cfg = ServeConfig {
            batch_max: 2, // forces multi-batch execution of the 3 jobs
            tape_seed: 42,
            net: NetConfig::default().with_stop(stop.clone()),
            ..ServeConfig::default()
        };
        let daemon = {
            let g = g.clone();
            std::thread::spawn(move || {
                serve_daemon(&g, &UniformScheduler::default(), listener, &cfg).unwrap()
            })
        };

        // `loadgen --check --dump-outputs`: 1 client, 3 jobs, depth 4
        let args: Vec<String> = [
            "loadgen",
            "--graph",
            "grid:3x3",
            "--connect",
            &addr,
            "--clients",
            "1",
            "--jobs",
            "3",
            "--depth",
            "4",
            "--check",
            "--dump-outputs",
            served_dump.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        stop.store(true, Ordering::SeqCst);
        let report = daemon.join().unwrap();
        assert_eq!(report.completed, 3);
        assert!(report.batches >= 2, "batch_max 2 must split 3 jobs");

        // the identical job set as a one-shot plan --execute
        let args: Vec<String> = [
            "plan",
            "--graph",
            "grid:3x3",
            "--workload",
            "floods:3:4",
            "--scheduler",
            "uniform",
            "--seed",
            "42",
            "--execute",
            "--dump-outputs",
            oneshot_dump.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();

        let served = std::fs::read_to_string(&served_dump).unwrap();
        let oneshot = std::fs::read_to_string(&oneshot_dump).unwrap();
        assert!(!served.is_empty());
        assert_eq!(
            served, oneshot,
            "served outputs must be byte-identical to the one-shot run"
        );
        for f in [served_dump, oneshot_dump] {
            std::fs::remove_file(f).unwrap();
        }
    }

    #[test]
    fn loadgen_requires_connect_and_serve_validates_counts() {
        let args: Vec<String> = ["loadgen", "--graph", "path:8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("missing --connect"));
        let args: Vec<String> = ["serve", "--graph", "path:8", "--pool", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).unwrap_err().contains("--pool must be >= 1"));
    }

    /// Batching is work-conserving: there is no linger to tune, so the
    /// old knob is an unknown flag like any other.
    #[test]
    fn serve_has_no_linger_flag() {
        let args = ["serve", "--graph", "path:8", "--batch-wait-ms", "5"].map(String::from);
        assert_eq!(
            run(&args).unwrap_err(),
            "unknown flag --batch-wait-ms for `dasched serve`"
        );
        assert!(!usage(Some("serve")).contains("wait"));
    }

    /// CAPS may not advertise a payload budget the executor drops.
    #[test]
    fn serve_payload_budget_is_capped_by_the_message_size() {
        let serve_with = |payload: &str| {
            let args = [
                "serve",
                "--graph",
                "path:8",
                "--max-payload",
                payload,
                "--pool",
                "0",
            ];
            run(&args.map(String::from)).unwrap_err()
        };
        let err = serve_with(&(MESSAGE_BYTES + 1).to_string());
        assert!(err.contains("--max-payload must be at most 40"), "{err}");
        // at the cap the flag is accepted: the next usage error is --pool's
        let err = serve_with(&MESSAGE_BYTES.to_string());
        assert!(err.contains("--pool must be >= 1"), "{err}");
        assert_eq!(
            Capacity::default().max_payload_bytes as usize,
            MESSAGE_BYTES
        );
    }

    #[test]
    fn render_outputs_is_canonical() {
        let entries = vec![
            (0u64, vec![Some(vec![0xab, 0x01]), None]),
            (1u64, vec![None, Some(vec![])]),
        ];
        assert_eq!(
            render_outputs(&entries),
            "job=0 node=0 out=ab01\njob=0 node=1 out=-\n\
             job=1 node=0 out=-\njob=1 node=1 out=\n"
        );
    }

    #[test]
    fn end_to_end_lowerbound_command() {
        let args: Vec<String> = [
            "lowerbound",
            "--layers",
            "3",
            "--eta",
            "10",
            "--k",
            "6",
            "--p",
            "0.3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
    }
}
