//! The observability neutrality property: recording must NEVER perturb
//! outcomes. For every scheduler, every shard count, both engines (the
//! batched default and the row oracle), and every obs level, the
//! `ScheduleOutcome` must be byte-identical to the unobserved fused
//! execution — instrumentation reads the deterministic big-round clock and
//! never feeds anything back into the engine.
//!
//! CI additionally enforces this end-to-end on the bench binary: the
//! `obs-neutrality` job diffs `bench_smoke --dump-outcome` files between
//! `--obs full` and `--obs off` runs.

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    execute_plan, execute_plan_observed, execute_plan_observed_with, execute_plan_sharded_observed,
    BlackBoxAlgorithm, DasProblem, EngineKind, ExecutorConfig, InterleaveScheduler,
    PrivateScheduler, Scheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler,
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
        let baseline = format!("{:?}", execute_plan(&p, &plan).expect("fused execution"));
        for obs in obs_levels() {
            let (fused, _) = execute_plan_observed(&p, &plan, &obs).expect("observed fused");
            assert_eq!(
                baseline,
                format!("{fused:?}"),
                "scheduler {} diverged under fused obs {:?}",
                sched.name(),
                obs.mode
            );
            // The row oracle must match the batched baseline under every
            // obs level too.
            let row_cfg = ExecutorConfig::default().with_engine(EngineKind::Row);
            let (row, _) =
                execute_plan_observed_with(&p, &plan, &obs, &row_cfg).expect("observed row");
            assert_eq!(
                baseline,
                format!("{row:?}"),
                "scheduler {} row engine diverged under fused obs {:?}",
                sched.name(),
                obs.mode
            );
            for shards in SHARD_COUNTS {
                let (sharded, _, _) = execute_plan_sharded_observed(&p, &plan, shards, &obs)
                    .expect("observed sharded");
                assert_eq!(
                    baseline,
                    format!("{sharded:?}"),
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
    use das_core::{run_traced, run_traced_live};
    use das_obs::{LiveHub, ObsServer};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let g = generators::gnp_connected(14, 0.3, 11);
    let p = DasProblem::new(&g, build_algos(&g, 4, 11), 11);
    let sched = UniformScheduler::default();
    let obs = ObsConfig::full();
    for shards in [1usize, 3] {
        let baseline = run_traced(&p, &sched, 11, shards, &obs).expect("unserved run");
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
        let served =
            run_traced_live(&p, &sched, 11, shards, &obs, Some(hub.clone())).expect("served run");
        stop.store(true, Ordering::SeqCst);
        let polls = poller.join().expect("poller thread");
        assert!(polls > 0, "the client must have polled at least once");
        assert_eq!(
            format!("{:?}", baseline.outcome),
            format!("{:?}", served.outcome),
            "live serving perturbed the outcome at {shards} shard(s)"
        );
        assert_eq!(baseline.report.events, served.report.events);
        assert_eq!(baseline.report.metrics, served.report.metrics);
        let status = http_get(addr, "/status");
        assert!(
            status.contains("\"done\":true"),
            "hub must report done after the run: {status}"
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
    let baseline = format!("{:?}", execute_plan(&p, &plan).unwrap());
    let mut obs = ObsConfig::full();
    obs.wall_clock = true;
    for shards in SHARD_COUNTS {
        let (outcome, _, report) = execute_plan_sharded_observed(&p, &plan, shards, &obs).unwrap();
        assert_eq!(baseline, format!("{outcome:?}"));
        if let Some(r) = report {
            // wall-clock lives in the wall.* side channel, never in events
            assert!(r
                .events
                .iter()
                .all(|e| e.args.iter().all(|(k, _)| k != "wall_ns")));
        }
    }
}
