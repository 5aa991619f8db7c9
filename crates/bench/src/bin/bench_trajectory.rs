//! Benchmark-trajectory point for the CI `bench-trajectory` job: runs the
//! pinned E1 and E7 configurations through the production (batched)
//! engine, measures throughput (rounds/sec), sweep plan-cache hits, and
//! peak RSS, and appends one point per configuration to
//! `BENCH_trajectory.json` (an ever-growing JSON array — the trajectory
//! CI plots across commits).
//!
//! Usage: `bench_trajectory [--out FILE] [--baseline FILE] [--budget-ms N]
//! [--tag LABEL]`
//!
//! Without `--tag`, the provenance tag defaults to the repository's short
//! commit hash (read once via `git rev-parse --short HEAD`), or
//! `untracked` when the binary runs outside a git checkout — so locally
//! appended points are attributable to a commit without extra flags.
//!
//! With `--baseline FILE` the run additionally gates: if any
//! configuration's rounds/sec lands more than 20% below the matching
//! point in the committed baseline, the binary exits nonzero and CI
//! fails. The committed baseline (`ci/bench_baseline.json`) is set well
//! below a warm local run so shared CI runners do not flake; it catches
//! order-of-magnitude regressions, not percent-level noise.

use das_bench::{workloads, SweepPlanner};
use das_core::{
    execute_plan, run_loadgen, serve, DasProblem, LoadgenConfig, NetConfig, Scheduler, ServeConfig,
    UniformScheduler,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: bench_trajectory [--out FILE] [--baseline FILE] [--budget-ms N] [--tag LABEL]";

/// How far below the baseline rounds/sec may land before the gate fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Seeds swept per configuration to exercise the sweep plan cache.
const SWEEP_SEEDS: u64 = 8;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    out: String,
    baseline: Option<String>,
    budget: Duration,
    tag: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_trajectory.json".to_string(),
        baseline: None,
        budget: Duration::from_millis(300),
        tag: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().unwrap_or_else(|| fail("--out needs a value")),
            "--baseline" => {
                args.baseline = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--baseline needs a value")),
                );
            }
            "--budget-ms" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--budget-ms needs a value"));
                let ms: u64 = v
                    .parse()
                    .unwrap_or_else(|_| fail("--budget-ms must be an integer"));
                args.budget = Duration::from_millis(ms.max(1));
            }
            "--tag" => args.tag = Some(it.next().unwrap_or_else(|| fail("--tag needs a value"))),
            other => fail(&format!("unexpected argument `{other}`")),
        }
    }
    if args.tag.is_none() {
        args.tag = Some(git_short_hash());
    }
    args
}

/// The default provenance tag: the short commit hash of the working
/// directory, read once per run, or `untracked` when `git` is missing or
/// the binary runs outside a checkout.
fn git_short_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "untracked".to_string())
}

/// One measured point on the benchmark trajectory. The schema is append-
/// only: new optional fields may be added, existing ones never change
/// meaning, so old trajectory files always stay parseable.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TrajectoryPoint {
    /// Pinned configuration label (e.g. `e07_path100_relays64`).
    label: String,
    /// Engine the throughput was measured on.
    engine: String,
    /// Schedule length of the measured plan, in rounds.
    rounds: u64,
    /// Engine throughput: schedule rounds executed per wall-clock second.
    rounds_per_sec: f64,
    /// Sweep plan-cache hits over the [`SWEEP_SEEDS`]-seed planning sweep.
    plan_cache_hits: u64,
    /// Whether the scheduler's sweep artifact shares planning (every
    /// scheduler's does; kept for the committed baseline's format).
    sweep_shared: bool,
    /// Peak resident set size of this process (kB, from `VmHWM`; 0 when
    /// `/proc` is unavailable).
    peak_rss_kb: u64,
    /// Free-form provenance tag (`--tag`, e.g. a commit hash in CI).
    #[serde(default)]
    tag: Option<String>,
}

/// Peak resident set size in kB, from `/proc/self/status` `VmHWM`.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Measures one pinned configuration: throughput on the production engine
/// (recorded under the stable name `batched`, which the baseline gate
/// matches) plus the sweep-cache counters for a [`SWEEP_SEEDS`]-seed plan
/// sweep.
fn measure(
    label: &str,
    problem: &DasProblem<'_>,
    budget: Duration,
    tag: &Option<String>,
) -> TrajectoryPoint {
    let sched = UniformScheduler::default();
    let planner = SweepPlanner::new(&sched, problem);
    for s in 0..SWEEP_SEEDS {
        let swept = planner.plan(problem, s);
        let scratch = sched.plan(problem, s).expect("model-valid workload");
        assert_eq!(
            scratch.to_json(),
            swept.to_json(),
            "{label}: swept plan must match plan() at seed {s}"
        );
    }
    let plan = planner.plan(problem, 7);

    // One calibration run sizes a repetition count that fills the budget,
    // then the batch is timed as a whole.
    let t = Instant::now();
    let out = execute_plan(problem, &plan).expect("trajectory run");
    let once = t.elapsed().max(Duration::from_nanos(1));
    let sched_rounds = out.schedule_rounds();
    let reps = (budget.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(execute_plan(problem, &plan).expect("trajectory run"));
    }
    let secs = t.elapsed().as_secs_f64() / reps as f64;

    TrajectoryPoint {
        label: label.to_string(),
        engine: "batched".to_string(),
        rounds: sched_rounds,
        rounds_per_sec: sched_rounds as f64 / secs,
        plan_cache_hits: planner.cache_hits(),
        sweep_shared: true,
        peak_rss_kb: peak_rss_kb(),
        tag: tag.clone(),
    }
}

/// Measures the serve path: an in-process daemon on an ephemeral port
/// driven by the deterministic loadgen (2 clients × 12 jobs). `rounds`
/// records jobs completed and `rounds_per_sec` the sustained jobs/sec —
/// the unit differs from the engine points, which is why the pair gets
/// its own (label, engine) row in the baseline.
fn measure_serve(tag: &Option<String>) -> TrajectoryPoint {
    let g = das_graph::generators::grid(4, 4);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind serve bench");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = ServeConfig {
        tape_seed: 42,
        net: NetConfig::default().with_stop(stop.clone()),
        ..ServeConfig::default()
    };
    let lg = LoadgenConfig {
        clients: 2,
        jobs_per_client: 12,
        depth: 4,
        seed: 42,
        ..LoadgenConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            serve(&g, &UniformScheduler::default(), listener, &cfg).expect("serve bench daemon")
        });
        let report = run_loadgen(&g, &addr, &lg).expect("serve bench loadgen");
        stop.store(true, Ordering::SeqCst);
        let daemon_report = daemon.join().expect("daemon thread");
        assert_eq!(
            daemon_report.completed, 24,
            "every benchmark job must verify clean"
        );
        report
    });
    TrajectoryPoint {
        label: "e01_serve".to_string(),
        engine: "serve".to_string(),
        rounds: report.completed,
        rounds_per_sec: report.jobs_per_sec,
        plan_cache_hits: 0,
        sweep_shared: true,
        peak_rss_kb: peak_rss_kb(),
        tag: tag.clone(),
    }
}

/// Appends `points` to the JSON array in `path` (creating it if absent).
fn append_points(path: &str, points: &[TrajectoryPoint]) {
    let mut all: Vec<TrajectoryPoint> = match std::fs::read_to_string(path) {
        Ok(body) => serde_json::from_str(&body)
            .unwrap_or_else(|e| fail(&format!("{path} is not a trajectory file: {e}"))),
        Err(_) => Vec::new(),
    };
    all.extend(points.iter().cloned());
    let body = serde_json::to_string_pretty(&all).expect("points are JSON-representable");
    std::fs::write(path, body).expect("write trajectory file");
    println!(
        "appended {} point(s) to {path} ({} total)",
        points.len(),
        all.len()
    );
}

/// The `--baseline` gate: every measured (label, engine) pair must stay
/// within [`REGRESSION_TOLERANCE`] of the last matching baseline point.
///
/// A measured pair with *no* baseline point is a failure, not a skip: a
/// new engine or configuration must be added to the baseline explicitly,
/// or it would dodge the regression gate forever. To update the baseline,
/// run `bench_trajectory --out fresh.json` locally and copy the new
/// point(s) into `ci/bench_baseline.json` (the workflow is documented in
/// EXPERIMENTS.md).
fn gate(baseline_path: &str, points: &[TrajectoryPoint]) -> bool {
    let body = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| fail(&format!("cannot read baseline {baseline_path}: {e}")));
    let baseline: Vec<TrajectoryPoint> = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("{baseline_path} is not a trajectory file: {e}")));
    let mut ok = true;
    for p in points {
        let Some(base) = baseline
            .iter()
            .rev()
            .find(|b| b.label == p.label && b.engine == p.engine)
        else {
            eprintln!(
                "gate FAILED: {} ({}, tag {}) has no baseline point in {baseline_path} — \
                 new configurations must be gated, not skipped; run bench_trajectory \
                 locally and add the fresh point to the baseline",
                p.label,
                p.engine,
                p.tag.as_deref().unwrap_or("untagged")
            );
            ok = false;
            continue;
        };
        let floor = base.rounds_per_sec * (1.0 - REGRESSION_TOLERANCE);
        if p.rounds_per_sec < floor {
            eprintln!(
                "gate FAILED: {} ({}, tag {}) at {:.0} rounds/s, below {:.0} \
                 (baseline {:.0} - {:.0}%)",
                p.label,
                p.engine,
                p.tag.as_deref().unwrap_or("untagged"),
                p.rounds_per_sec,
                floor,
                base.rounds_per_sec,
                REGRESSION_TOLERANCE * 100.0
            );
            ok = false;
        } else {
            println!(
                "gate ok: {} ({}) at {:.0} rounds/s (floor {:.0}, baseline {:.0})",
                p.label, p.engine, p.rounds_per_sec, floor, base.rounds_per_sec
            );
        }
    }
    ok
}

fn main() {
    let args = parse_args();

    // Pinned configurations — E1's smoke instance and the E7 shoot-out
    // midpoint. Changing either invalidates the whole trajectory, so they
    // are frozen here rather than taken from the command line.
    let g1 = das_graph::generators::path(120);
    let g7 = das_graph::generators::path(100);
    let e01 = workloads::segment_relays(&g1, 40, 16, 2, 7);
    let e07 = workloads::segment_relays(&g7, 64, 14, 1, 5);
    let points = vec![
        measure("e01_path120_relays40", &e01, args.budget, &args.tag),
        measure("e07_path100_relays64", &e07, args.budget, &args.tag),
        measure_serve(&args.tag),
    ];

    for p in &points {
        println!(
            "{} ({}): {:.0} rounds/s over {} rounds, {} plan-cache hits (shared={}), peak RSS {} kB",
            p.label,
            p.engine,
            p.rounds_per_sec,
            p.rounds,
            p.plan_cache_hits,
            p.sweep_shared,
            p.peak_rss_kb
        );
    }
    append_points(&args.out, &points);

    if let Some(baseline) = &args.baseline {
        if !gate(baseline, &points) {
            std::process::exit(1);
        }
    }
}
