//! Reduced-trial smoke experiment for CI: E1's representative
//! configuration with a handful of seeds through [`TrialRunner`], once per
//! way of saying the same trial (fused, swept, sharded, networked) plus a
//! doubling leg, writing one `BENCH_e01_smoke*.json` per leg into the
//! current directory.
//!
//! Usage: `bench_smoke [trials] [base_seed] [--obs off|metrics|full]
//! [--dump-outcome FILE] [--dump-doubling FILE] [--wall] [--serve [ADDR]]`
//! (defaults: 8 trials, seed 42, obs off). `--serve` binds a live
//! [`das_obs::ObsServer`] console (an OS port when ADDR is omitted,
//! advertised on the `listening on ADDR` stdout line) that streams each
//! leg's phase and the doubling leg's attempts and per-shard load —
//! without perturbing any printed or persisted output.
//!
//! `--obs` sets the observability level for the fused trials; their
//! per-trial [`das_obs::ObsSummary`] is persisted into the BENCH artifact.
//! `--dump-outcome` writes every fused trial's `ScheduleOutcome` debug
//! dump (the outcome its record was made from) to FILE — CI diffs those
//! dumps between `--obs full` and
//! `--obs off` runs to enforce that recording never perturbs outcomes.
//! `--wall` opts into wall-clock reporting (the `ObsConfig::wall_clock`
//! side channel plus the printed timing splits); without it every line
//! this binary prints is deterministic, so CI can diff whole outputs
//! without flaking on timing noise.

use das_bench::{
    run_trial, run_trial_doubling, workloads, TrialAggregate, TrialExecutor, TrialRunner, TrialSpec,
};
use das_core::{doubling, DasProblem, DoublingConfig, Scheduler, UniformScheduler};
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
                     [--obs off|metrics|full] [--dump-outcome FILE] \
                     [--dump-doubling FILE] [--wall] [--serve [ADDR]]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    trials: u64,
    base_seed: u64,
    obs: ObsConfig,
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

/// The deterministic clause of one leg's `wrote FILE (…)` line: what this
/// way of running the trial adds to the plain one.
fn describe(spec: &TrialSpec<'_>, agg: &TrialAggregate) -> String {
    match (spec.executor, spec.sweep) {
        (TrialExecutor::Sharded(shards), _) => format!("{shards} shards"),
        (TrialExecutor::Networked(workers), _) => {
            let traffic = agg.records[0]
                .net
                .as_ref()
                .expect("networked trials carry traffic");
            assert_eq!(traffic.workers, workers);
            format!(
                "{workers} workers, trial-0 traffic tx {} frames / {} B, rx {} frames / {} B",
                traffic.frames_sent,
                traffic.bytes_sent,
                traffic.frames_received,
                traffic.bytes_received,
            )
        }
        (_, Some(_)) => format!("one shared sweep artifact over {} trials", agg.trials),
        (_, None) => {
            let predicted = agg
                .predicted_schedule
                .as_ref()
                .expect("staged trials carry predictions");
            format!(
                "{} trials, success {:.0}%, schedule mean {:.1} / p50 {} / p95 {} / max {}, predicted mean {:.1} / max {}",
                agg.trials,
                agg.success_rate * 100.0,
                agg.schedule.mean,
                agg.schedule.p50,
                agg.schedule.p95,
                agg.schedule.max,
                predicted.mean,
                predicted.max,
            )
        }
    }
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
            Some(srv)
        }
        _ => None,
    };
    let phase = |name: &str| {
        if let Some(hub) = &live {
            hub.set_phase(name);
        }
    };

    // One trial said four ways: the schedule-quality numbers must not move
    // (byte-identical outcomes), only wall-clock and the per-leg summaries
    // may differ. The swept leg derives every plan from one shared
    // seed-independent artifact; the networked leg's frame and byte counts
    // are a pure function of the plan, so its printed line stays
    // CI-diffable.
    let runner = TrialRunner::new(args.base_seed, args.trials);
    let sched = UniformScheduler::default();
    let artifact = sched
        .build_sweep_artifact(&problem)
        .expect("workload is model-valid");
    // `sched_seed` is set per trial
    let plain = TrialSpec::new(&sched, &problem, 0);
    let legs = [
        (
            "fused trials",
            "e01_smoke",
            TrialSpec {
                obs: args.obs,
                ..plain
            },
        ),
        (
            "swept trials",
            "e01_smoke_swept",
            TrialSpec {
                sweep: Some(&artifact),
                ..plain
            },
        ),
        (
            "sharded trials",
            "e01_smoke_sharded",
            TrialSpec {
                executor: TrialExecutor::Sharded(SMOKE_SHARDS),
                ..plain
            },
        ),
        (
            "networked trials",
            "e01_smoke_networked",
            TrialSpec {
                executor: TrialExecutor::Networked(SMOKE_WORKERS),
                ..plain
            },
        ),
    ];
    let mut fused_stats = None;
    let mut fused_ms = None;
    // the fused leg runs first and is the one `--dump-outcome` dumps
    let mut dump_outcome = args.dump_outcome.as_deref();
    for (phase_name, experiment, spec) in legs {
        phase(phase_name);
        let clock = Instant::now();
        let trials = runner.run_trials(|sched_seed| run_trial(&TrialSpec { sched_seed, ..spec }));
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let (records, outcomes): (Vec<_>, Vec<_>) =
            trials.into_iter().map(|t| (t.record, t.outcome)).unzip();
        let agg = TrialAggregate::from_records(experiment, "uniform", args.base_seed, records);
        let path = agg.write(Path::new(".")).expect("write BENCH artifact");
        assert!(
            agg.mean_correctness > 0.99,
            "{experiment} produced wrong outputs (correctness {})",
            agg.mean_correctness
        );
        let stats = (agg.schedule.max, agg.late.max, agg.success_rate);
        assert_eq!(
            *fused_stats.get_or_insert(stats),
            stats,
            "{experiment} changed schedule statistics"
        );
        let mut detail = describe(&spec, &agg);
        if args.wall {
            let fused: f64 = *fused_ms.get_or_insert(ms);
            let ratio = ms / fused.max(f64::EPSILON);
            detail += &format!(", wall {ms:.1} ms = {ratio:.2}x fused");
        }
        println!("wrote {} ({detail})", path.display());
        if let Some(obs) = &agg.records[0].obs {
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
        if let Some(dump) = dump_outcome.take() {
            let text: String = outcomes
                .iter()
                .map(|o| o.as_ref().expect("smoke trials stay under the cap"))
                .map(|o| format!("{o:?}\n"))
                .collect();
            std::fs::write(dump, text).expect("write outcome dump");
            println!("wrote outcome dumps to {dump}");
        }
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
