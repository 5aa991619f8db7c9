//! Reduced-trial smoke experiment for CI: E1's representative
//! configuration with a handful of seeds through [`TrialRunner`], writing
//! `BENCH_e01_smoke.json` (fused) and `BENCH_e01_smoke_sharded.json`
//! (sharded executor) into the current directory, and printing a
//! sharded-vs-fused wall-clock comparison.
//!
//! Usage: `bench_smoke [trials] [base_seed] [--obs off|metrics|full]
//! [--engine row|batched] [--dump-outcome FILE] [--dump-doubling FILE]
//! [--wall] [--serve [ADDR]]` (defaults: 8 trials, seed 42, obs off, batched
//! engine). `--serve` binds a live [`das_obs::ObsServer`] console (an OS
//! port when ADDR is omitted, advertised on the `listening on ADDR`
//! stdout line) that streams each leg's phase and, on the legs that carry
//! a hub, per-shard load and doubling attempts — without perturbing any
//! printed or persisted output.
//!
//! `--engine` selects the production loop (`batched`) or the row test
//! oracle for the fused trials and the outcome dumps; schedule statistics
//! are byte-identical across the two (CI diffs the dumps), only wall-clock
//! may move. The sharded and networked legs always run the production loop.
//!
//! `--obs` sets the observability level for the fused trials; their
//! per-trial [`das_obs::ObsSummary`] is persisted into the BENCH artifact.
//! `--dump-outcome` writes every fused trial's `ScheduleOutcome` debug
//! dump to FILE — CI diffs those dumps between `--obs full` and
//! `--obs off` runs to enforce that recording never perturbs outcomes.
//! `--wall` opts into wall-clock reporting (the `ObsConfig::wall_clock`
//! side channel plus the printed timing splits); without it every line
//! this binary prints is deterministic, so CI can diff whole outputs
//! without flaking on timing noise.

use das_bench::{
    run_trial_doubling, run_trial_networked, run_trial_observed_with_engine, run_trial_sharded,
    run_trial_swept, workloads, SweepPlanner, TrialRunner,
};
use das_core::{
    doubling, execute_plan_observed_with, DasProblem, DoublingConfig, EngineKind, ExecutorConfig,
    Scheduler, UniformScheduler,
};
use das_obs::{LiveHub, ObsConfig, ObsServer};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shard count for the sharded leg of the smoke run.
const SMOKE_SHARDS: usize = 4;

/// Worker count for the networked (coordinator/worker over localhost TCP)
/// leg of the smoke run.
const SMOKE_WORKERS: usize = 3;

const USAGE: &str = "usage: bench_smoke [trials] [base_seed] \
                     [--obs off|metrics|full] [--engine row|batched] \
                     [--dump-outcome FILE] [--dump-doubling FILE] [--wall] \
                     [--serve [ADDR]]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    trials: u64,
    base_seed: u64,
    obs: ObsConfig,
    engine: EngineKind,
    dump_outcome: Option<String>,
    dump_doubling: Option<String>,
    wall: bool,
    serve: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 8,
        base_seed: 42,
        obs: ObsConfig::off(),
        engine: EngineKind::ColumnarBatched,
        dump_outcome: None,
        dump_doubling: None,
        wall: false,
        serve: None,
    };
    let mut positional = 0usize;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--obs" => {
                let v = it.next().unwrap_or_else(|| fail("--obs needs a value"));
                args.obs = ObsConfig::parse(&v)
                    .unwrap_or_else(|| fail("--obs must be off, metrics, or full"));
            }
            "--engine" => {
                let v = it.next().unwrap_or_else(|| fail("--engine needs a value"));
                args.engine = match v.as_str() {
                    "row" => EngineKind::Row,
                    "batched" => EngineKind::ColumnarBatched,
                    _ => fail("--engine must be row or batched"),
                };
            }
            "--dump-outcome" => {
                args.dump_outcome = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--dump-outcome needs a value")),
                );
            }
            "--dump-doubling" => {
                args.dump_doubling = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--dump-doubling needs a value")),
                );
            }
            "--wall" => args.wall = true,
            "--serve" => {
                // optional bind address: consume the next token only when
                // it cannot be another flag or a positional trial count
                args.serve = Some(match it.peek() {
                    Some(v) if !v.starts_with("--") && v.parse::<u64>().is_err() => {
                        it.next().expect("peeked")
                    }
                    _ => "127.0.0.1:0".to_string(),
                });
            }
            other => {
                let n: u64 = other
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("unexpected argument `{other}`")));
                match positional {
                    0 => args.trials = n,
                    1 => args.base_seed = n,
                    _ => fail("too many positional arguments"),
                }
                positional += 1;
            }
        }
    }
    if args.trials == 0 {
        fail("trials must be at least 1");
    }
    args
}

/// Executes every fused trial once more and writes the concatenated
/// `ScheduleOutcome` debug dumps — the artifact the obs-neutrality CI job
/// diffs between `--obs full` and `--obs off`.
fn dump_outcomes(
    path: &str,
    runner: &TrialRunner,
    problem: &DasProblem<'_>,
    obs: &ObsConfig,
    engine: EngineKind,
    live: Option<Arc<LiveHub>>,
) {
    let sched = UniformScheduler::default();
    let cfg = ExecutorConfig::default()
        .with_engine(engine)
        .with_live(live);
    let mut dump = String::new();
    for t in 0..runner.trials() {
        let seed = runner.trial_seed(t);
        let plan = sched.plan(problem, seed).expect("workload is model-valid");
        let (outcome, _) = execute_plan_observed_with(problem, &plan, obs, &cfg)
            .expect("smoke trials stay under the cap");
        dump.push_str(&format!("{outcome:?}\n"));
    }
    std::fs::write(path, dump).expect("write outcome dump");
    println!("wrote outcome dumps to {path}");
}

/// Runs every doubling trial once more and writes the search's full
/// deterministic state — outcome bytes plus the search shape, but *not*
/// the wall-clocked cache stats — so CI can compare its sha256 with the
/// committed `ci/doubling_golden.sha256` (taken from the
/// replan-from-scratch search before that path was removed).
fn dump_doubling_outcomes(
    path: &str,
    runner: &TrialRunner,
    problem: &DasProblem<'_>,
    cfg: &DoublingConfig,
) {
    let mut dump = String::new();
    for t in 0..runner.trials() {
        let seed = runner.trial_seed(t);
        let sched = UniformScheduler::default().with_seed(seed);
        let (r, _) =
            doubling::uniform_with_doubling_configured(problem, &sched, &ObsConfig::off(), cfg)
                .expect("workload is model-valid");
        dump.push_str(&format!(
            "guess={} attempts={} rejected={} wasted={} ranges={:?} fell_back={} {:?}\n",
            r.final_guess,
            r.attempts,
            r.rejected_by_precheck,
            r.wasted_rounds,
            r.attempted_ranges,
            r.fell_back,
            r.outcome,
        ));
    }
    std::fs::write(path, dump).expect("write doubling dump");
    println!("wrote doubling dumps to {path}");
}

fn main() {
    let args = parse_args();

    let g = das_graph::generators::path(120);
    let problem = workloads::segment_relays(&g, 40, 16, 2, 7);
    problem.parameters().expect("workload is model-valid");

    // --serve: live operator console over the smoke run. The hub is
    // write-only, so every leg's outputs are unchanged by its presence.
    let live = args.serve.as_ref().map(|_| Arc::new(LiveHub::new()));
    let _server = match (&args.serve, &live) {
        (Some(addr), Some(hub)) => {
            let srv = ObsServer::bind(addr, hub.clone())
                .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
            println!("listening on {}", srv.local_addr());
            let engine = match args.engine {
                EngineKind::Row => "row",
                _ => "batched",
            };
            hub.set_run_info(engine, 1);
            Some(srv)
        }
        _ => None,
    };
    let phase = |name: &str| {
        if let Some(hub) = &live {
            hub.set_phase(name);
        }
    };

    let runner = TrialRunner::new(args.base_seed, args.trials);
    phase("fused trials");
    let fused_clock = Instant::now();
    let agg = runner.aggregate("e01_smoke", "uniform", |seed| {
        run_trial_observed_with_engine(
            &UniformScheduler::default(),
            &problem,
            seed,
            &args.obs,
            args.engine,
        )
        .0
    });
    let fused_ms = fused_clock.elapsed().as_secs_f64() * 1e3;
    let path = agg.write(Path::new(".")).expect("write BENCH artifact");
    let predicted = agg
        .predicted_schedule
        .as_ref()
        .expect("staged trials carry predictions");
    println!(
        "wrote {} ({} trials, success {:.0}%, schedule mean {:.1} / p50 {} / p95 {} / max {}, predicted mean {:.1} / max {})",
        path.display(),
        agg.trials,
        agg.success_rate * 100.0,
        agg.schedule.mean,
        agg.schedule.p50,
        agg.schedule.p95,
        agg.schedule.max,
        predicted.mean,
        predicted.max,
    );
    if let Some(obs) = agg.records.first().and_then(|r| r.obs.as_ref()) {
        println!(
            "obs (trial 0): {} messages, peak round {} ({} msgs), max arc load {}, congestion p95 {}, {} events",
            obs.messages,
            obs.peak_round,
            obs.peak_round_messages,
            obs.max_arc_load,
            obs.congestion_p95,
            obs.events,
        );
    }
    assert!(
        agg.mean_correctness > 0.99,
        "smoke run produced wrong outputs (correctness {})",
        agg.mean_correctness
    );

    if let Some(dump) = &args.dump_outcome {
        phase("outcome dumps");
        dump_outcomes(
            dump,
            &runner,
            &problem,
            &args.obs,
            args.engine,
            live.clone(),
        );
    }

    // Same trials again from one shared sweep artifact: the scheduler plans
    // its seed-independent prefix once, every trial re-derives only the
    // seed-dependent tail, and the schedule-quality numbers must not move.
    phase("swept trials");
    let sweep_sched = UniformScheduler::default();
    let planner = SweepPlanner::new(&sweep_sched, &problem);
    let swept = runner.aggregate("e01_smoke_swept", "uniform", |seed| {
        run_trial_swept(&planner, &problem, seed)
    });
    let swept_path = swept
        .write(Path::new("."))
        .expect("write swept BENCH artifact");
    assert_eq!(
        (agg.schedule.max, agg.late.max, agg.success_rate),
        (swept.schedule.max, swept.late.max, swept.success_rate),
        "sweep-shared planning changed schedule statistics"
    );
    println!(
        "wrote {} (sweep cache: {} plan-cache hits over {} trials)",
        swept_path.display(),
        planner.cache_hits(),
        swept.trials,
    );

    // Same trials again through the sharded executor: the schedule-quality
    // numbers must not move (byte-identical outcomes), only wall-clock and
    // the per-shard fields may differ.
    phase("sharded trials");
    let sharded_clock = Instant::now();
    let sharded = runner.aggregate("e01_smoke_sharded", "uniform", |seed| {
        run_trial_sharded(&UniformScheduler::default(), &problem, seed, SMOKE_SHARDS)
    });
    let sharded_ms = sharded_clock.elapsed().as_secs_f64() * 1e3;
    let sharded_path = sharded
        .write(Path::new("."))
        .expect("write sharded BENCH artifact");
    assert_eq!(
        (agg.schedule.max, agg.late.max, agg.success_rate),
        (sharded.schedule.max, sharded.late.max, sharded.success_rate),
        "sharded execution changed schedule statistics"
    );
    if args.wall {
        println!(
            "wrote {} ({} shards, sharded wall {:.1} ms vs fused {:.1} ms, ratio {:.2}x)",
            sharded_path.display(),
            SMOKE_SHARDS,
            sharded_ms,
            fused_ms,
            sharded_ms / fused_ms.max(f64::EPSILON),
        );
    } else {
        println!("wrote {} ({} shards)", sharded_path.display(), SMOKE_SHARDS);
    }

    // Same trials again over the networked coordinator/worker path on
    // localhost: schedule-quality numbers must not move, and the artifact
    // additionally records per-worker coordinator-side traffic. Frame and
    // byte counts are a pure function of the plan, so this leg's printed
    // line stays CI-diffable.
    phase("networked trials");
    let networked_clock = Instant::now();
    let networked = runner.aggregate("e01_smoke_networked", "uniform", |seed| {
        run_trial_networked(&UniformScheduler::default(), &problem, seed, SMOKE_WORKERS)
    });
    let networked_ms = networked_clock.elapsed().as_secs_f64() * 1e3;
    let networked_path = networked
        .write(Path::new("."))
        .expect("write networked BENCH artifact");
    assert_eq!(
        (agg.schedule.max, agg.late.max, agg.success_rate),
        (
            networked.schedule.max,
            networked.late.max,
            networked.success_rate
        ),
        "networked execution changed schedule statistics"
    );
    let traffic = networked
        .records
        .first()
        .and_then(|r| r.net.as_ref())
        .expect("networked trials carry traffic");
    assert_eq!(traffic.workers, SMOKE_WORKERS);
    if args.wall {
        println!(
            "wrote {} ({} workers, trial-0 traffic tx {} frames / {} B, rx {} frames / {} B, wall {:.1} ms)",
            networked_path.display(),
            SMOKE_WORKERS,
            traffic.frames_sent,
            traffic.bytes_sent,
            traffic.frames_received,
            traffic.bytes_received,
            networked_ms,
        );
    } else {
        println!(
            "wrote {} ({} workers, trial-0 traffic tx {} frames / {} B, rx {} frames / {} B)",
            networked_path.display(),
            SMOKE_WORKERS,
            traffic.frames_sent,
            traffic.bytes_sent,
            traffic.frames_received,
            traffic.bytes_received,
        );
    }

    // Doubling leg: a congested instance (16 relays stacked on one short
    // path) that forces a multi-attempt search, so the plan-artifact cache
    // has attempts to save planning work on.
    phase("doubling trials");
    let dg = das_graph::generators::path(24);
    let dbl_problem = workloads::stacked_relays(&dg, 16, 7);
    let cfg = DoublingConfig::default().with_live(live.clone());
    let dbl_clock = Instant::now();
    let dbl = runner.aggregate("e01_smoke_doubling", "uniform+doubling", |seed| {
        run_trial_doubling(&UniformScheduler::default(), &dbl_problem, seed, &cfg)
    });
    let dbl_ms = dbl_clock.elapsed().as_secs_f64() * 1e3;
    let dbl_path = dbl
        .write(Path::new("."))
        .expect("write doubling BENCH artifact");
    assert!(
        dbl.mean_correctness > 0.99,
        "doubling smoke run produced wrong outputs (correctness {})",
        dbl.mean_correctness
    );
    let summaries: Vec<_> = dbl
        .records
        .iter()
        .map(|r| {
            r.doubling
                .as_ref()
                .expect("doubling trials carry a summary")
        })
        .collect();
    let hits: u64 = summaries.iter().map(|d| d.replan_cache_hits).sum();
    let builds: u64 = summaries.iter().map(|d| d.artifact_builds).sum();
    let max_attempts = summaries.iter().map(|d| d.attempts).max().unwrap_or(0);
    assert!(
        max_attempts > 1,
        "the doubling smoke instance must force a multi-attempt search"
    );
    assert!(hits > 0, "a multi-attempt search must record cache hits");
    for d in &summaries {
        assert_eq!(d.artifact_builds, 1, "the artifact is built exactly once");
    }
    if args.wall {
        println!(
            "wrote {} ({} artifact builds, {} re-size hits, max attempts {}, wall {:.1} ms)",
            dbl_path.display(),
            builds,
            hits,
            max_attempts,
            dbl_ms,
        );
        // one extra search at the base seed to surface the planning
        // wall-time split the deterministic artifact deliberately omits
        let probe_sched = UniformScheduler::default().with_seed(args.base_seed);
        let (probe, _) = doubling::uniform_with_doubling_configured(
            &dbl_problem,
            &probe_sched,
            &ObsConfig::off(),
            &cfg,
        )
        .expect("workload is model-valid");
        println!(
            "doubling planning wall (seed {}): {:.1} µs over {} build(s), {:.1} µs over {} re-size(s)",
            args.base_seed,
            probe.cache.build_nanos as f64 / 1e3,
            probe.cache.artifact_builds,
            probe.cache.size_nanos as f64 / 1e3,
            probe.cache.replan_cache_hits,
        );
    } else {
        println!(
            "wrote {} ({} artifact builds, {} re-size hits, max attempts {})",
            dbl_path.display(),
            builds,
            hits,
            max_attempts,
        );
    }

    if let Some(dump) = &args.dump_doubling {
        dump_doubling_outcomes(dump, &runner, &dbl_problem, &cfg);
    }
    phase("done");
}
