//! Fault injection for the live observability server: rogue HTTP clients
//! (clipped requests, slow-loris dribbles, oversized heads) hammer the
//! server *while a live-attached run executes*, and the run must complete
//! with a byte-identical outcome inside a bounded wall-clock — the server
//! reads are deadline-bounded and size-capped, and publication is
//! write-only, so no client behaviour can wedge or perturb the engine.
//!
//! A second leg drives the networked coordinator with a live hub attached
//! through its `ExecutorConfig` and asserts the run identity and the
//! per-worker telemetry (ACTIVITY-piggybacked totals and
//! coordinator-side link traffic) lands on the HTTP endpoints.

use das_core::net::on_localhost;
use das_core::pipeline::{self, PlanFrom};
use das_core::synthetic::RelayChain;
use das_core::{
    execute, BlackBoxAlgorithm, DasProblem, ExecOptions, ExecutorConfig, NetConfig, Scheduler,
    UniformScheduler,
};
use das_graph::generators;
use das_obs::{LiveHub, ObsConfig, ObsServer, Stages};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build_problem(g: &das_graph::Graph) -> DasProblem<'_> {
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..6)
        .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    DasProblem::new(g, algos, 13)
}

/// One well-formed blocking GET; returns the raw response text.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: live\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read");
    buf
}

#[test]
fn rogue_http_clients_cannot_wedge_or_perturb_a_live_run() {
    let g = generators::path(40);
    let p = build_problem(&g);
    let from = PlanFrom::Scheduler {
        scheduler: &UniformScheduler::default(),
        seed: 13,
    };
    let sharded = || ExecOptions::sharded(3).with_obs(ObsConfig::full());
    let traced = |opts| pipeline::run(&p, from, opts, &mut Stages::default());
    let baseline = traced(sharded()).expect("unserved run");

    let hub = Arc::new(LiveHub::new());
    let server = ObsServer::bind("127.0.0.1:0", hub.clone()).expect("bind");
    let addr = server.local_addr();
    let started = Instant::now();

    // Rogue 1: a clipped request — half a request line, then a hard close.
    let clipped = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /status HTT").expect("partial write");
        // dropping the stream closes it mid-head
    });
    // Rogue 2: slow-loris — one byte at a time, never finishing the head.
    // The server's read deadline (2 s) drops it; the thread gives up on
    // its own schedule either way.
    let loris = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        for b in b"GET /status" {
            if s.write_all(&[*b]).is_err() {
                break; // server already hung up — that is the point
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    // Rogue 3: an oversized head — far past the 8 KiB cap, no terminator.
    let oversized = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        let junk = vec![b'A'; 64 * 1024];
        let _ = s.write_all(b"GET /");
        let _ = s.write_all(&junk);
        let mut rsp = String::new();
        let _ = s.read_to_string(&mut rsp);
        rsp
    });

    // The live run proceeds under fire.
    let config = ExecutorConfig::default().with_live(Some(hub));
    let served = traced(sharded().with_config(config)).expect("served run");
    assert_eq!(
        format!("{:?}", baseline.executed.outcome),
        format!("{:?}", served.executed.outcome),
        "rogue clients perturbed a live run"
    );

    clipped.join().expect("clipped rogue");
    let oversized_rsp = oversized.join().expect("oversized rogue");
    assert!(
        oversized_rsp.is_empty() || oversized_rsp.starts_with("HTTP/1.1 400"),
        "an oversized head must be rejected, got: {oversized_rsp:?}"
    );
    // A well-formed client still gets clean answers after all of that.
    let status = http_get(addr, "/status");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(status.contains("\"done\":true"), "{status}");
    loris.join().expect("slow-loris rogue");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "live run under rogue fire must finish promptly"
    );
}

#[test]
fn networked_coordinator_exposes_per_worker_telemetry() {
    let g = generators::path(40);
    let p = build_problem(&g);
    let plan = UniformScheduler::default().plan(&p, 13).expect("plan");
    let fused = execute(&p, &plan, ExecOptions::default()).expect("fused");
    let baseline = format!("{:?}", fused.outcome);

    let hub = Arc::new(LiveHub::new());
    let server = ObsServer::bind("127.0.0.1:0", hub.clone()).expect("bind obs");
    let config = ExecutorConfig::default().with_live(Some(hub.clone()));
    let (report, workers) = on_localhost(&p, 3, &NetConfig::default(), |opts| {
        execute(&p, &plan, opts.with_config(config))
    })
    .expect("bind coord");
    for w in workers {
        w.expect("worker");
    }
    let report = report.expect("networked run");
    assert_eq!(baseline, format!("{:?}", report.outcome));

    let status = http_get(server.local_addr(), "/status"); // what ran: 3 wire workers
    assert!(
        status.contains(r#""exchange":"wire","shards":3,"#),
        "{status}"
    );

    // The ACTIVITY-piggybacked totals mirror the workers' final stats...
    let profile = http_get(server.local_addr(), "/profile");
    for s in &report.shard.per_shard {
        let lane = format!(
            "{{\"shard\":{},\"steps\":{},\"delivered\":{},",
            s.shard, s.steps, s.delivered
        );
        assert!(
            profile.contains(&lane),
            "lane totals for shard {} missing: {profile}",
            s.shard
        );
    }
    // ...and the coordinator-side link traffic matches the report.
    let net_body = http_get(server.local_addr(), "/net");
    assert_eq!(report.traffic.len(), 3);
    for (shard, t) in report.traffic.iter().enumerate() {
        assert!(t.bytes_sent > 0 && t.bytes_received > 0);
        let link = format!(
            "{{\"shard\":{shard},\"frames_sent\":{},\"bytes_sent\":{},",
            t.frames_sent, t.bytes_sent
        );
        assert!(
            net_body.contains(&link),
            "link for shard {shard} missing: {net_body}"
        );
    }
}
