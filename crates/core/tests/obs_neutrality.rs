//! The observability neutrality property: recording must NEVER perturb
//! outcomes. For every scheduler, every shard count, and every obs level,
//! the `ScheduleOutcome` must be byte-identical to the unobserved fused
//! execution — instrumentation reads the deterministic big-round clock and
//! never feeds anything back into the engine.
//!
//! CI additionally enforces this end-to-end on the bench binary: the
//! `obs-neutrality` job diffs `bench_smoke --dump-outcome` files between
//! `--obs full` and `--obs off` runs.

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    execute, BlackBoxAlgorithm, DasProblem, ExecOptions, InterleaveScheduler, PrivateScheduler,
    SchedulePlan, Scheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use das_obs::ObsConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn obs_levels() -> [ObsConfig; 3] {
    [ObsConfig::off(), ObsConfig::metrics(), ObsConfig::full()]
}

/// A random mixed workload (prescribed / flood / relay) on `g`.
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

/// The unobserved fused outcome's bytes.
fn baseline(p: &DasProblem<'_>, plan: &SchedulePlan) -> String {
    let fused = execute(p, plan, ExecOptions::default()).expect("fused execution");
    format!("{:?}", fused.outcome)
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

/// Asserts obs-on == obs-off bytes for every scheduler, obs level, and
/// shard count on the given graph.
fn assert_obs_neutral(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    for sched in all_schedulers() {
        let plan = sched.plan(&p, seed).expect("model-valid workload");
        let baseline = baseline(&p, &plan);
        for obs in obs_levels() {
            let fused =
                execute(&p, &plan, ExecOptions::default().with_obs(obs)).expect("observed fused");
            assert_eq!(
                baseline,
                format!("{:?}", fused.outcome),
                "scheduler {} diverged under fused obs {:?}",
                sched.name(),
                obs.mode
            );
            for shards in SHARD_COUNTS {
                let sharded = execute(&p, &plan, ExecOptions::sharded(shards).with_obs(obs))
                    .expect("observed sharded");
                assert_eq!(
                    baseline,
                    format!("{:?}", sharded.outcome),
                    "scheduler {} diverged under obs {:?} at {} shards",
                    sched.name(),
                    obs.mode,
                    shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Recording is outcome-neutral on random connected G(n, p) graphs,
    /// for every scheduler, obs level, and shard count.
    #[test]
    fn observation_never_perturbs_outcomes_on_gnp(gs in 0u64..200, ws in 0u64..200, k in 1usize..5) {
        let g = generators::gnp_connected(12, 2.5 / 12.0, gs);
        assert_obs_neutral(&g, k, ws);
    }

    /// Same property on layered graphs (skewed degrees stress the
    /// partitioner and hence the per-shard probes differently).
    #[test]
    fn observation_never_perturbs_outcomes_on_layered(ws in 0u64..400, k in 1usize..5) {
        let g = generators::layered(4, 3);
        assert_obs_neutral(&g, k, ws);
    }
}

/// Issues one blocking HTTP/1.1 GET against the live server and returns
/// the raw response (head + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to live server");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: live\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    buf
}

/// The tentpole neutrality leg: a live HTTP server attached to the run
/// with a client polling it *mid-execution* must leave the
/// `ScheduleOutcome` byte-identical — publication is write-only and
/// clocked on big-round barriers, so concurrent readers cannot feed
/// anything back into the engine.
#[test]
fn live_server_polling_mid_run_is_outcome_neutral() {
    use das_core::pipeline::{self, PlanFrom};
    use das_core::ExecutorConfig;
    use das_obs::{LiveHub, ObsServer, Stages};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let g = generators::gnp_connected(14, 0.3, 11);
    let p = DasProblem::new(&g, build_algos(&g, 4, 11), 11);
    let from = PlanFrom::Scheduler {
        scheduler: &UniformScheduler::default(),
        seed: 11,
    };
    let traced = |opts| pipeline::run(&p, from, opts, &mut Stages::default());
    // 20 shards on 14 nodes run as 14: `/status` shows what ran
    for (shards, exchange, ran) in [
        (1, "local", 1),
        (3, "in_process", 3),
        (20, "in_process", 14),
    ] {
        let opts = || {
            let topology = match shards {
                1 => ExecOptions::default(),
                n => ExecOptions::sharded(n),
            };
            topology.with_obs(ObsConfig::full())
        };
        let baseline = traced(opts()).expect("unserved run");
        let hub = Arc::new(LiveHub::new());
        let server = ObsServer::bind("127.0.0.1:0", hub.clone()).expect("bind live server");
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                // at least one full poll, then keep hammering until the
                // run completes — overlapping the execution when it is
                // long enough to be overlapped
                let mut polls = 0u32;
                loop {
                    for path in ["/status", "/profile", "/metrics", "/events?since=0"] {
                        let rsp = http_get(addr, path);
                        assert!(rsp.starts_with("HTTP/1.1 200"), "{path} -> {rsp}");
                    }
                    polls += 1;
                    if stop.load(Ordering::SeqCst) {
                        return polls;
                    }
                }
            })
        };
        let config = ExecutorConfig::default().with_live(Some(hub.clone()));
        let served = traced(opts().with_config(config)).expect("served run");
        stop.store(true, Ordering::SeqCst);
        let polls = poller.join().expect("poller thread");
        assert!(polls > 0, "the client must have polled at least once");
        assert_eq!(
            format!("{:?}", baseline.executed.outcome),
            format!("{:?}", served.executed.outcome),
            "live serving perturbed the outcome at {shards} shard(s)"
        );
        assert_eq!(baseline.report.events, served.report.events);
        assert_eq!(baseline.report.metrics, served.report.metrics);
        let body = http_get(addr, "/status");
        let identity = format!(r#""exchange":"{exchange}","shards":{ran},"#);
        assert!(body.contains(&identity), "{body}");
        assert!(
            body.contains("\"done\":true"),
            "hub must report done after the run: {body}"
        );
    }
}

/// Wall-clock recording is the one explicitly nondeterministic channel;
/// even with it on, outcomes must stay byte-identical (only `wall.*`
/// metrics may differ between runs).
#[test]
fn wall_clock_recording_is_outcome_neutral() {
    let g = generators::gnp_connected(12, 0.25, 7);
    let p = DasProblem::new(&g, build_algos(&g, 4, 7), 7);
    let sched = UniformScheduler::default();
    let plan = sched.plan(&p, 7).unwrap();
    let baseline = baseline(&p, &plan);
    let mut obs = ObsConfig::full();
    obs.wall_clock = true;
    for shards in SHARD_COUNTS {
        let done = execute(&p, &plan, ExecOptions::sharded(shards).with_obs(obs)).unwrap();
        assert_eq!(baseline, format!("{:?}", done.outcome));
        if let Some(r) = done.obs {
            // wall-clock lives in the wall.* side channel, never in events
            assert!(r
                .events
                .iter()
                .all(|e| e.args.iter().all(|(k, _)| k != "wall_ns")));
        }
    }
}
