//! The tentpole byte-identity property, extended over the wire: a
//! coordinator plus N workers talking framed TCP on localhost must produce
//! the *byte-identical* `ScheduleOutcome` of the fused executor and the
//! in-process sharded executor, for every scheduler, on both graph
//! families, at 1 and 3 workers.
//!
//! A pinned-seed matrix (rather than proptest) keeps the socket churn
//! bounded; the seeds sweep both graph randomness and workload randomness.
//!
//! The conformance table at the bottom drives one plan through every
//! exchange of the production loop — `Local`, `InProcess` × {1, 2, 3, 7}
//! shards, `Wire` × {1, 3} workers — against the row oracle, and the
//! observed pipeline (`das_core::pipeline::run`) through the wire, and the
//! doubling search through the pipeline on every exchange.

use das_core::doubling::Search;
use das_core::net::on_localhost;
use das_core::oracle::execute_row;
use das_core::pipeline::{self, PlanFrom};
use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    execute, verify, BlackBoxAlgorithm, DasProblem, ExecError, ExecOptions, Executed,
    ExecutorConfig, InterleaveScheduler, NetConfig, PrivateScheduler, SchedError, ScheduleOutcome,
    SchedulePlan, Scheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler, Unit,
};
use das_graph::{generators, Graph, NodeId};
use das_obs::{ObsConfig, Stages};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;

const WORKER_COUNTS: [usize; 2] = [1, 3];

/// A random mixed workload (prescribed / flood / relay) on `g` — the same
/// generator the sharded-equivalence property uses.
fn build_algos(g: &Graph, k: usize, seed: u64) -> Vec<Box<dyn BlackBoxAlgorithm>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    let m = g.edge_count() as u32;
    (0..k as u64)
        .map(|i| match i % 3 {
            0 => {
                let triples: Vec<(u32, NodeId, NodeId)> = (0..4)
                    .map(|_| {
                        let e = das_graph::EdgeId(rng.gen_range(0..m));
                        let (a, b) = g.endpoints(e);
                        let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                        (rng.gen_range(0..5u32), from, to)
                    })
                    .collect();
                Box::new(Prescribed::new(i, g, &triples)) as Box<dyn BlackBoxAlgorithm>
            }
            1 => Box::new(FloodBall::new(i, g, NodeId(rng.gen_range(0..n)), 3)),
            _ => {
                let mut route = vec![NodeId(rng.gen_range(0..n))];
                for _ in 0..4 {
                    let cur = *route.last().expect("non-empty");
                    let nbrs = g.neighbors(cur);
                    let (next, _) = nbrs[rng.gen_range(0..nbrs.len())];
                    route.push(next);
                }
                Box::new(RelayChain::along(i, g, route))
            }
        })
        .collect()
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SequentialScheduler),
        Box::new(InterleaveScheduler),
        Box::new(UniformScheduler::default()),
        Box::new(TunedUniformScheduler::default()),
        Box::new(PrivateScheduler::default()),
    ]
}

/// Connection settings of every localhost run here: generous deadlines
/// for a loaded test machine.
fn net() -> NetConfig {
    NetConfig::default().with_io_timeout_ms(20_000)
}

/// Executes `plan` over the wire; both sides must succeed.
fn run_networked(p: &DasProblem<'_>, plan: &SchedulePlan, workers: usize) -> Executed {
    let (result, joined) =
        on_localhost(p, workers, &net(), |opts| execute(p, plan, opts)).expect("bind localhost");
    for w in joined {
        w.expect("worker outcome");
    }
    result.expect("networked execution")
}

/// Zeroes the wall-clock fields of a shard report so the deterministic
/// remainder can be compared byte-for-byte.
fn strip_timings(report: &das_core::ShardReport) -> das_core::ShardReport {
    let mut r = report.clone();
    for s in &mut r.per_shard {
        s.step_nanos = 0;
        s.drain_nanos = 0;
    }
    r
}

/// Asserts fused == in-process sharded == networked bytes for every
/// scheduler and worker count on the given graph.
fn assert_networked_equivalent(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    for sched in all_schedulers() {
        let plan = sched.plan(&p, seed).expect("model-valid workload");
        let fused = execute(&p, &plan, ExecOptions::default()).expect("fused execution");
        let fused_bytes = format!("{:?}", fused.outcome);
        for workers in WORKER_COUNTS {
            let sharded =
                execute(&p, &plan, ExecOptions::sharded(workers)).expect("sharded execution");
            let shard_report = sharded.shard;
            assert_eq!(
                fused_bytes,
                format!("{:?}", sharded.outcome),
                "scheduler {}: in-process sharded diverged at {workers} shards",
                sched.name()
            );
            let net_report = run_networked(&p, &plan, workers);
            assert_eq!(
                fused_bytes,
                format!("{:?}", net_report.outcome),
                "scheduler {}: networked diverged at {workers} workers",
                sched.name()
            );
            // The partition-dependent shard report must also agree with the
            // in-process sharded run (modulo wall-clock timings): same
            // partition, same protocol.
            assert_eq!(
                format!("{:?}", strip_timings(&shard_report)),
                format!("{:?}", strip_timings(&net_report.shard)),
                "scheduler {}: networked shard report diverged at {workers} workers",
                sched.name()
            );
            assert_eq!(net_report.traffic.len(), shard_report.shards);
            for t in &net_report.traffic {
                assert!(t.frames_sent > 0 && t.frames_received > 0);
            }
        }
    }
}

#[test]
fn networked_matches_fused_on_gnp() {
    for seed in [1u64, 17, 131] {
        let g = generators::gnp_connected(12, 2.5 / 12.0, seed);
        assert_networked_equivalent(&g, 3, seed.wrapping_mul(0x9e37_79b9));
    }
}

#[test]
fn networked_matches_fused_on_layered() {
    let g = generators::layered(4, 3);
    for seed in [2u64, 23, 271] {
        assert_networked_equivalent(&g, 3, seed);
    }
}

/// More workers than nodes: the coordinator clamps to the node count (the
/// partition's own clamp) and only accepts that many connections; the
/// outcome is still byte-identical.
#[test]
fn networked_clamps_workers_to_node_count() {
    let g = generators::layered(2, 2);
    let p = DasProblem::new(&g, build_algos(&g, 2, 5), 5);
    let plan = SequentialScheduler.plan(&p, 5).expect("plan");
    let fused = execute(&p, &plan, ExecOptions::default()).expect("fused");
    let n = g.node_count();
    let report = run_networked(&p, &plan, n + 10);
    assert_eq!(
        format!("{:?}", fused.outcome),
        format!("{:?}", report.outcome)
    );
    assert_eq!(report.shard.shards, n);
}

// ------------------------------------------------- exchange conformance

/// One way of reaching the production big-round loop, named by the
/// exchange it runs on.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// Fused: one shard, no peer.
    Local,
    /// In-process worker threads.
    InProcess(usize),
    /// Worker threads over localhost TCP.
    Wire(usize),
}

const EXCHANGES: [Via; 7] = [
    Via::Local,
    Via::InProcess(1),
    Via::InProcess(2),
    Via::InProcess(3),
    Via::InProcess(7),
    Via::Wire(1),
    Via::Wire(3),
];

/// Executes `plan` through `via` under `config`. Workers run under the
/// defaults (the wire carries no configuration), so `Wire` takes only
/// `config`s the coordinator does not refuse — see
/// [`the_wire_refuses_a_config_its_workers_would_not_share`]. Every worker
/// must fail exactly as the coordinator does.
fn execute_via(
    via: Via,
    p: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, SchedError> {
    let opts = match via {
        Via::Local => ExecOptions::default(),
        Via::InProcess(shards) => ExecOptions::sharded(shards),
        Via::Wire(workers) => {
            let config = config.clone();
            let (result, joined) = on_localhost(p, workers, &net(), |opts| {
                execute(p, plan, opts.with_config(config))
            })
            .expect("bind localhost");
            if let Err(e) = &result {
                for w in joined {
                    assert_eq!(w.as_ref().unwrap_err(), e, "{via:?}: worker vs coordinator");
                }
            }
            return result.map(|done| done.outcome);
        }
    };
    execute(p, plan, opts.with_config(config.clone())).map(|done| done.outcome)
}

/// Same plan, every exchange: the row oracle's bytes, and — where a probe
/// can be attached — the same merged load profile.
#[test]
fn every_exchange_reproduces_the_row_oracle() {
    let g = generators::gnp_connected(12, 2.5 / 12.0, 17);
    let p = DasProblem::new(&g, build_algos(&g, 3, 99), 99);
    let defaults = ExecutorConfig::default();
    for sched in all_schedulers() {
        let plan = sched.plan(&p, 99).expect("model-valid workload");
        let oracle = execute_row(&p, &plan, &defaults).expect("row oracle");
        let oracle_bytes = format!("{oracle:?}");
        let mut profiles = Vec::new();
        for via in EXCHANGES {
            let outcome = execute_via(via, &p, &plan, &defaults).expect("execution");
            assert_eq!(
                oracle_bytes,
                format!("{outcome:?}"),
                "scheduler {}: {via:?} diverged from the row oracle",
                sched.name()
            );
            let obs = ObsConfig::full();
            let opts = match via {
                Via::Local => ExecOptions::default(),
                Via::InProcess(shards) => ExecOptions::sharded(shards),
                // workers carry no probe, but the observed pipeline runs on
                // the wire all the same, to the oracle's verdict
                Via::Wire(workers) => {
                    let from = PlanFrom::Scheduler {
                        scheduler: sched.as_ref(),
                        seed: 99,
                    };
                    let (traced, joined) = on_localhost(&p, workers, &net(), |opts| {
                        pipeline::run(&p, from, opts.with_obs(obs), &mut Stages::default())
                    })
                    .expect("bind localhost");
                    assert!(joined.iter().all(Result::is_ok), "{joined:?}");
                    let traced = traced.expect("traced over the wire");
                    assert_eq!(oracle_bytes, format!("{:?}", traced.executed.outcome));
                    assert_eq!(Ok(traced.verify), verify::against_references(&p, &oracle));
                    continue;
                }
            };
            let observed = execute(&p, &plan, opts.with_obs(obs)).expect("observed execution");
            assert_eq!(
                oracle_bytes,
                format!("{:?}", observed.outcome),
                "{via:?} under obs"
            );
            let report = observed.obs.expect("recording is on");
            profiles.push((via, format!("{:?}", report.profile)));
        }
        for (via, profile) in &profiles[1..] {
            assert_eq!(
                &profiles[0].1,
                profile,
                "scheduler {}: {via:?} merged a different load profile",
                sched.name()
            );
        }
    }
}

/// The doubling search is a plan source like any other: on every exchange
/// it makes the same attempts, accepts the same plan and executes it to the
/// same bytes, for both searches.
#[test]
fn every_exchange_runs_the_same_doubling_search() {
    let g = generators::path(12);
    let relays: Vec<Box<dyn BlackBoxAlgorithm>> = (0..16)
        .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    let p = DasProblem::new(&g, relays, 3); // congested: several attempts
    let (uniform, private) = (UniformScheduler::default(), PrivateScheduler::default());
    let searches = [
        (Search::Uniform(&uniform), uniform.default_sched_seed()),
        (Search::Private(&private), private.default_sched_seed()),
    ];
    for (search, seed) in searches {
        let from = PlanFrom::Doubling {
            search,
            seed,
            cap: None,
        };
        let run = |opts: ExecOptions<'_>| pipeline::run(&p, from, opts, &mut Stages::default());
        let mut want = None;
        for via in [
            Via::Local,
            Via::InProcess(2),
            Via::InProcess(3),
            Via::Wire(1),
            Via::Wire(3),
        ] {
            let ran = match via {
                Via::Local => run(ExecOptions::default()),
                Via::InProcess(shards) => run(ExecOptions::sharded(shards)),
                Via::Wire(workers) => {
                    let (ran, joined) = on_localhost(&p, workers, &net(), run).expect("bind");
                    assert!(joined.iter().all(Result::is_ok), "{joined:?}");
                    ran
                }
            };
            let ran = ran.expect("doubling run");
            assert!(ran.verify.all_correct(), "{via:?}");
            let search = ran.search.expect("a doubling run reports its search");
            assert!(search.attempts > 1, "{via:?}: the instance forces doubling");
            let got = (format!("{:?}", ran.executed.outcome), search);
            match &want {
                None => want = Some(got),
                Some(want) => assert_eq!(want, &got, "{via:?}"),
            }
        }
    }
}

/// The lockstep-abandon rule lives in one place now: when the engine-round
/// cap fires, every exchange reports the *same* `RoundCapExceeded { cap,
/// big_round }` as the row oracle.
#[test]
fn every_exchange_abandons_on_the_same_round_cap() {
    let g = generators::path(6);
    let relays: Vec<Box<dyn BlackBoxAlgorithm>> = (0..2)
        .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    let p = DasProblem::new(&g, relays, 3);
    let row =
        |config: &ExecutorConfig, plan: &SchedulePlan| execute_row(&p, plan, config).unwrap_err();

    // Overloaded: two relays collide on every edge with zero delays and
    // need ~10 engine rounds; the cap allows 3. A cap is an executor
    // setting, so this leg covers the exchanges that take one.
    let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
    let overloaded = SchedulePlan::assemble("hand-built", 0, 1, 0, &p, units);
    let tight = ExecutorConfig {
        max_engine_rounds: 3,
        ..ExecutorConfig::default()
    };
    let expected = row(&tight, &overloaded);
    assert_eq!(
        expected,
        SchedError::Exec(ExecError::RoundCapExceeded {
            cap: 3,
            big_round: 3
        })
    );
    for via in EXCHANGES {
        if !matches!(via, Via::Wire(_)) {
            let err = execute_via(via, &p, &overloaded, &tight).unwrap_err();
            assert_eq!(expected, err, "{via:?}");
        }
    }

    // Over the wire the cap is the default budget. A plan that schedules
    // no step passes validation with any phase length, so one big-round
    // longer than the budget trips the cap on every exchange — including
    // each worker's ERROR frame and the coordinator's decode of it.
    let idle = vec![Unit {
        trunc: vec![0; 6],
        ..Unit::global(0, 0, 6)
    }];
    let defaults = ExecutorConfig::default();
    let too_long =
        SchedulePlan::assemble("hand-built", 0, defaults.max_engine_rounds + 1, 0, &p, idle);
    let expected = row(&defaults, &too_long);
    assert_eq!(
        expected,
        SchedError::Exec(ExecError::RoundCapExceeded {
            cap: defaults.max_engine_rounds,
            big_round: 0
        })
    );
    for via in EXCHANGES {
        let err = execute_via(via, &p, &too_long, &defaults).unwrap_err();
        assert_eq!(expected, err, "{via:?}");
    }
}

/// A config the workers would not share — they run under the defaults —
/// is refused before any worker is accepted, as a typed `Net` error. No
/// worker is started, so a coordinator that waited for one would time out
/// instead.
#[test]
fn the_wire_refuses_a_config_its_workers_would_not_share() {
    let g = generators::path(6);
    let p = DasProblem::new(&g, build_algos(&g, 2, 3), 3);
    let plan = SequentialScheduler.plan(&p, 3).expect("plan");
    let net = NetConfig::default().with_io_timeout_ms(20_000);
    let tight = ExecutorConfig {
        max_engine_rounds: 3,
        ..ExecutorConfig::default()
    };
    let started = std::time::Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let opts = ExecOptions::networked(1, listener, &net).with_config(tight);
    match execute(&p, &plan, opts).map(|done| done.outcome) {
        Err(SchedError::Exec(ExecError::Net { .. })) => {}
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
}
