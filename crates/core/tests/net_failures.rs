//! Fault injection for the networked path: every failure mode must
//! surface as its *typed* [`ExecError`] within the configured deadline —
//! never a hang. Each test pins a short `io_timeout_ms` and asserts both
//! the error variant and that wall-clock stayed well under a generous
//! multiple of that deadline.

use das_core::synthetic::Prescribed;
use das_core::{
    execute_plan_networked, problem_fingerprint, run_worker, wire, BlackBoxAlgorithm, DasProblem,
    ExecError, NetConfig, SchedError, Scheduler, SequentialScheduler, PROTOCOL_VERSION,
};
use das_graph::{generators, Graph};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn small_graph() -> Graph {
    generators::layered(2, 2)
}

fn build_problem(g: &Graph) -> DasProblem<'_> {
    let e = g.edges().next().expect("at least one edge");
    let (a, b) = g.endpoints(e);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> =
        vec![Box::new(Prescribed::new(0, g, &[(0, a, b), (2, b, a)]))];
    DasProblem::new(g, algos, 7)
}

// -- minimal test-side framing, hand-rolled so rogue peers can misbehave --

fn send_frame(stream: &mut TcpStream, kind: u8, body: &[u8]) {
    let mut buf = Vec::with_capacity(5 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(body);
    stream.write_all(&buf).expect("frame write");
}

fn recv_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("frame body");
    (header[4], body)
}

fn join_body(problem: &DasProblem<'_>, version: u32) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&version.to_le_bytes());
    b.extend_from_slice(&problem_fingerprint(problem).to_le_bytes());
    b
}

fn exec_err(result: Result<impl std::fmt::Debug, SchedError>) -> ExecError {
    match result {
        Err(SchedError::Exec(e)) => e,
        other => panic!("expected a typed ExecError, got {other:?}"),
    }
}

/// Kill a worker mid-big-round: the rogue handshakes correctly, sends its
/// first (empty) outbox, reads the inbox, then drops the socket while the
/// coordinator is waiting for its activity report. The coordinator must
/// return `WorkerDisconnected {{ shard: 0 }}` within the deadline.
#[test]
fn worker_killed_mid_big_round_yields_typed_disconnect() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let net = NetConfig::default().with_io_timeout_ms(2_000);
    let started = Instant::now();
    let rogue = std::thread::spawn({
        let p_fp = problem_fingerprint(&p);
        move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut join = Vec::new();
            join.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            join.extend_from_slice(&p_fp.to_le_bytes());
            send_frame(&mut s, wire::JOIN, &join);
            let (kind, _) = recv_frame(&mut s);
            assert_eq!(kind, wire::ASSIGN);
            // one well-formed empty outbox for big-round 0...
            let mut outbox = Vec::new();
            outbox.extend_from_slice(&0u64.to_le_bytes());
            outbox.extend_from_slice(&0u32.to_le_bytes());
            send_frame(&mut s, wire::OUTBOX, &outbox);
            let (kind, _) = recv_frame(&mut s);
            assert_eq!(kind, wire::INBOX);
            // ...then die mid-big-round, before reporting activity
        }
    });
    let err = exec_err(execute_plan_networked(&p, &plan, 1, listener, &net));
    rogue.join().expect("rogue thread");
    match err {
        ExecError::WorkerDisconnected { shard, .. } => assert_eq!(shard, 0),
        other => panic!("expected WorkerDisconnected, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "disconnect detection must be deadline-bounded"
    );
}

/// A peer that promises a 100-byte frame, delivers 4, and closes must
/// surface as `TruncatedFrame` — not a hang, not a generic error.
#[test]
fn truncated_frame_yields_typed_error() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let net = NetConfig::default().with_io_timeout_ms(2_000);
    let started = Instant::now();
    let rogue = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut clipped = Vec::new();
        clipped.extend_from_slice(&100u32.to_le_bytes()); // promises 100 bytes
        clipped.push(wire::JOIN);
        clipped.extend_from_slice(&[1, 2, 3, 4]); // delivers 4
        s.write_all(&clipped).expect("partial frame");
        // dropping s closes the stream mid-body
    });
    let err = exec_err(execute_plan_networked(&p, &plan, 1, listener, &net));
    rogue.join().expect("rogue thread");
    assert!(
        matches!(err, ExecError::TruncatedFrame { .. }),
        "expected TruncatedFrame, got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A coordinator announcing a slice hash that does not match the shipped
/// slice bytes must be refused by the worker with `PlanHashMismatch`.
#[test]
fn mismatched_plan_hash_yields_typed_error() {
    let g = small_graph();
    let p = build_problem(&g);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let started = Instant::now();
    let fake_coordinator = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let (kind, _) = recv_frame(&mut s);
        assert_eq!(kind, wire::JOIN);
        let bogus_plan = b"{}";
        let mut assign = Vec::new();
        assign.extend_from_slice(&0u32.to_le_bytes()); // shard
        assign.extend_from_slice(&1u32.to_le_bytes()); // shards
        assign.extend_from_slice(&0u64.to_le_bytes()); // full-plan hash
        assign.extend_from_slice(&0xdead_beefu64.to_le_bytes()); // wrong slice hash
        assign.extend_from_slice(&(bogus_plan.len() as u32).to_le_bytes());
        assign.extend_from_slice(bogus_plan);
        send_frame(&mut s, wire::ASSIGN, &assign);
        // hold the socket open so the worker's error is the hash check,
        // not a disconnect
        let mut sink = [0u8; 16];
        let _ = s.read(&mut sink);
    });
    let net = NetConfig::default().with_io_timeout_ms(2_000);
    let err = exec_err(run_worker(&p, &addr, &net));
    fake_coordinator.join().expect("fake coordinator");
    match err {
        ExecError::PlanHashMismatch { expected, got } => {
            assert_eq!(expected, 0xdead_beef);
            assert_ne!(got, expected);
        }
        other => panic!("expected PlanHashMismatch, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A worker speaking a different protocol version is rejected: the
/// coordinator returns `VersionMismatch` and the worker receives a REJECT
/// frame carrying both versions.
#[test]
fn version_mismatch_is_rejected_both_sides() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let net = NetConfig::default().with_io_timeout_ms(2_000);
    let join = join_body(&p, 999);
    let rogue = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        send_frame(&mut s, wire::JOIN, &join);
        recv_frame(&mut s)
    });
    let err = exec_err(execute_plan_networked(&p, &plan, 1, listener, &net));
    match err {
        ExecError::VersionMismatch {
            coordinator,
            worker,
        } => {
            assert_eq!(coordinator, PROTOCOL_VERSION);
            assert_eq!(worker, 999);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let (kind, body) = rogue.join().expect("rogue thread");
    assert_eq!(kind, wire::REJECT);
    let code = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
    assert_eq!(code, wire::REJECT_VERSION);
}

/// Two workers racing for a single shard slot: exactly one wins the slot
/// and completes; the straggler gets a typed `LateJoin` REJECT from the
/// doorman instead of a hang or a silent drop.
#[test]
fn late_join_after_assignment_is_rejected_typed() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let net = NetConfig::default().with_io_timeout_ms(5_000);
    let started = Instant::now();
    let results: Vec<Result<_, SchedError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let net = net.clone();
                let p = &p;
                scope.spawn(move || run_worker(p, &addr, &net))
            })
            .collect();
        execute_plan_networked(&p, &plan, 1, listener, &net).expect("one-worker run");
        workers
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let won = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(won, 1, "exactly one worker may win the slot: {results:?}");
    let loser = results
        .into_iter()
        .find_map(|r| r.err())
        .expect("one loser");
    match exec_err(Err::<(), _>(loser)) {
        ExecError::LateJoin { shards } => assert_eq!(shards, 1),
        other => panic!("expected LateJoin, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "late-JOIN rejection must be deadline-bounded"
    );
}

/// A coordinator with no workers must time out typed, not hang.
#[test]
fn missing_workers_time_out() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let net = NetConfig::default().with_io_timeout_ms(300);
    let started = Instant::now();
    let err = exec_err(execute_plan_networked(&p, &plan, 2, listener, &net));
    match err {
        ExecError::NetTimeout { during, ms } => {
            assert!(during.contains("0 of 2 joined"), "got: {during}");
            assert_eq!(ms, 300);
        }
        other => panic!("expected NetTimeout, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(280),
        "must wait out the deadline"
    );
    assert!(elapsed < Duration::from_secs(5), "must not hang");
}

/// A worker pointed at a dead address must exhaust its bounded retries and
/// return `NetTimeout`, not spin forever.
#[test]
fn worker_connect_retries_are_bounded() {
    let g = small_graph();
    let p = build_problem(&g);
    // grab a port nobody is listening on
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let mut net = NetConfig::default().with_io_timeout_ms(500);
    net.connect_retries = 3;
    net.connect_backoff_ms = 20;
    let started = Instant::now();
    let err = exec_err(run_worker(&p, &dead, &net));
    assert!(
        matches!(err, ExecError::NetTimeout { .. }),
        "expected NetTimeout, got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A coordinator whose ASSIGN claims `u32::MAX` partition entries in a
/// 40-byte frame must be refused with `TruncatedFrame` — the count is
/// checked against the bytes that remain before anything is reserved (the
/// worker used to ask the allocator for 16 GiB on the coordinator's word).
#[test]
fn lying_assign_count_is_a_truncated_frame_not_a_reservation() {
    let g = small_graph();
    let p = build_problem(&g);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake_coordinator = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let (kind, _) = recv_frame(&mut s);
        assert_eq!(kind, wire::JOIN);
        // a well-formed one-shard plan, so everything before the count holds
        let g = small_graph();
        let p = build_problem(&g);
        let plan = SequentialScheduler.plan(&p, 7).expect("plan").to_json();
        let mut assign = Vec::new();
        assign.extend_from_slice(&0u32.to_le_bytes()); // shard
        assign.extend_from_slice(&1u32.to_le_bytes()); // shards
        assign.extend_from_slice(&0u64.to_le_bytes()); // full-plan hash
        assign.extend_from_slice(&das_core::net::fnv1a(plan.as_bytes()).to_le_bytes());
        assign.extend_from_slice(&(plan.len() as u32).to_le_bytes());
        assign.extend_from_slice(plan.as_bytes());
        assign.extend_from_slice(&u32::MAX.to_le_bytes()); // partition entries
        send_frame(&mut s, wire::ASSIGN, &assign);
        let mut sink = [0u8; 16];
        let _ = s.read(&mut sink);
    });
    let net = NetConfig::default().with_io_timeout_ms(2_000);
    let err = exec_err(run_worker(&p, &addr, &net));
    fake_coordinator.join().expect("fake coordinator");
    assert!(
        matches!(err, ExecError::TruncatedFrame { .. }),
        "expected TruncatedFrame, got {err:?}"
    );
}

/// An ASSIGN over `max_frame_bytes` is refused by the *sender*, before the
/// first byte, with a typed error naming the frame, its size and the
/// limit. (It used to be shipped in full, refused by the worker, and
/// surface on the coordinator as `WorkerDisconnected` — hiding the cause.)
#[test]
fn oversized_assign_is_refused_by_the_sender_with_the_cause() {
    let g = small_graph();
    let p = build_problem(&g);
    let plan = SequentialScheduler.plan(&p, 7).expect("plan");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut net = NetConfig::default().with_io_timeout_ms(2_000);
    net.max_frame_bytes = 64; // JOIN fits, the plan slice does not
    let started = Instant::now();
    let err = std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(&p, &addr, &net));
        let err = exec_err(execute_plan_networked(&p, &plan, 1, listener, &net));
        assert!(worker.join().expect("worker thread").is_err());
        err
    });
    match err {
        ExecError::FrameTooLarge { kind, bytes, limit } => {
            assert_eq!((kind, limit), ("ASSIGN", 64));
            assert!(bytes > 64);
            let msg = err.to_string();
            assert!(msg.contains("ASSIGN frame of"), "{msg:?}");
        }
        ref other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// A coordinator relaying an INBOX flight no honest shard can send — a
/// round the algorithm does not have, or a payload over the bandwidth —
/// must be refused with the typed `Net` error where it enters, like a
/// flight for a foreign arc. (`round` used to be trusted: it became a ring
/// offset — `1 << 30` aborted the worker on a 48 GB reservation — and
/// `round + 2` overflowed at `u32::MAX`.)
#[test]
fn rogue_inbox_round_and_payload_are_refused_typed() {
    let g = small_graph();
    let p = build_problem(&g);
    let rounds = p.algorithms()[0].rounds();
    let oversized = vec![0u8; das_core::ExecutorConfig::default().message_bytes + 1];
    let cases: [(u32, &[u8]); 4] = [
        (rounds, &[]),
        (1 << 30, &[]),
        (u32::MAX, &[]),
        (0, &oversized),
    ];
    for (round, payload) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let payload = payload.to_vec();
        let rogue_coordinator = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let (kind, _) = recv_frame(&mut s);
            assert_eq!(kind, wire::JOIN);
            // an honest one-shard assignment of an honest plan...
            let g = small_graph();
            let p = build_problem(&g);
            let plan = SequentialScheduler.plan(&p, 7).expect("plan").to_json();
            let assign = wire::Assign {
                shard: 0,
                shards: 1,
                plan_hash: das_core::net::fnv1a(plan.as_bytes()),
                slice_json: wire::Hashed(plan.as_bytes()),
                of_node: vec![0u32; g.node_count()].into(),
            };
            send_frame(&mut s, wire::ASSIGN, &assign.encode());
            let (kind, _) = recv_frame(&mut s);
            assert_eq!(kind, wire::OUTBOX);
            // ...then one flight on an arc the worker does own
            let arc = das_graph::Arc::from_index(0);
            let (from, dst) = g.arc_endpoints(arc);
            let mut flights = wire::FlightGroup::default();
            flights.push(wire::Flight {
                arc: 0,
                dst: dst.0,
                algo: 0,
                round,
                from: from.0,
                payload: &payload,
            });
            let inbox = wire::Inbox {
                big_round: 0,
                flights: flights.flights(),
            };
            send_frame(&mut s, wire::INBOX, &inbox.encode());
            let mut sink = [0u8; 16];
            let _ = s.read(&mut sink);
        });
        let net = NetConfig::default().with_io_timeout_ms(2_000);
        let err = exec_err(run_worker(&p, &addr, &net));
        rogue_coordinator.join().expect("rogue coordinator");
        match err {
            ExecError::Net { ref detail } => {
                assert!(detail.contains("INBOX delivered"), "{detail:?}")
            }
            other => panic!("round {round}: expected Net, got {other:?}"),
        }
    }
}

/// Every networked error variant renders a human-oriented message.
#[test]
fn net_error_display_is_descriptive() {
    let cases = [
        (
            ExecError::WorkerDisconnected {
                shard: 2,
                detail: "connection reset".to_string(),
            },
            "worker for shard 2 disconnected",
        ),
        (
            ExecError::TruncatedFrame {
                detail: "mid-body".to_string(),
            },
            "truncated frame",
        ),
        (
            ExecError::VersionMismatch {
                coordinator: 1,
                worker: 9,
            },
            "version mismatch",
        ),
        (
            ExecError::PlanHashMismatch {
                expected: 1,
                got: 2,
            },
            "plan hash mismatch",
        ),
        (
            ExecError::NetTimeout {
                during: "x".to_string(),
                ms: 5,
            },
            "timed out",
        ),
        (ExecError::LateJoin { shards: 3 }, "late JOIN rejected"),
        (
            ExecError::Aborted {
                detail: "ctrl-c".to_string(),
            },
            "aborted",
        ),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
    }
}
