//! Fault injection for the serve path: a long-lived daemon must survive
//! misbehaving clients — disconnects mid-SUBMIT, over-budget declarations,
//! malformed jobs, and outright lies — answering each with its *typed*
//! wire response while continuing to serve everyone else, all within the
//! configured deadlines.

use das_core::{
    graph_fingerprint, serve, wire, Capacity, JobStatus, LoadgenConfig, ServeConfig, ServeReport,
    UniformScheduler, PROTOCOL_VERSION,
};
use das_graph::{generators, Graph};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_graph() -> Graph {
    generators::layered(3, 3)
}

// -- minimal test-side framing, hand-rolled so rogue clients can misbehave --

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

/// Connects and completes the HELLO → CAPS handshake, returning the open
/// stream plus the server's advertised tape seed.
fn handshake(addr: &str, g: &Graph) -> (TcpStream, u64) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut hello = Vec::new();
    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello.extend_from_slice(&graph_fingerprint(g).to_le_bytes());
    send_frame(&mut s, wire::HELLO, &hello);
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::CAPS, "expected CAPS");
    let tape_seed = u64::from_le_bytes(body[12..20].try_into().expect("8 bytes"));
    (s, tape_seed)
}

fn submit_body(
    job_id: u64,
    kind: u8,
    source: u32,
    depth: u32,
    dilation: u32,
    congestion: u64,
    payload: u32,
) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&job_id.to_le_bytes());
    b.push(kind);
    b.extend_from_slice(&source.to_le_bytes());
    b.extend_from_slice(&depth.to_le_bytes());
    b.extend_from_slice(&dilation.to_le_bytes());
    b.extend_from_slice(&congestion.to_le_bytes());
    b.extend_from_slice(&payload.to_le_bytes());
    b
}

/// Spawns a daemon on an ephemeral port; returns its address, the stop
/// flag, and the join handle yielding the final [`ServeReport`].
fn spawn_daemon(
    g: &Graph,
    cfg: ServeConfig,
) -> (
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<ServeReport>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = ServeConfig {
        net: cfg.net.with_stop(stop.clone()),
        ..cfg
    };
    let g = g.clone();
    let handle = std::thread::spawn(move || {
        serve(&g, &UniformScheduler::default(), listener, &cfg).expect("daemon")
    });
    (addr, stop, handle)
}

fn stop_and_join(
    stop: &Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ServeReport>,
) -> ServeReport {
    stop.store(true, Ordering::SeqCst);
    handle.join().expect("daemon thread")
}

/// Happy path plus the byte-identity guarantee: a multi-client loadgen run
/// completes every job, and every returned output matches the job's local
/// alone run byte-for-byte.
#[test]
fn served_outputs_are_byte_identical_to_alone_runs() {
    let g = small_graph();
    let started = Instant::now();
    let (addr, stop, handle) = spawn_daemon(&g, ServeConfig::default());
    let lg = LoadgenConfig {
        clients: 2,
        jobs_per_client: 4,
        depth: 3,
        seed: 42,
        check: true,
        ..LoadgenConfig::default()
    };
    let report = das_core::run_loadgen(&g, &addr, &lg).expect("loadgen");
    assert_eq!(report.submitted, 8);
    assert_eq!(report.completed, 8, "all jobs must verify: {report:?}");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(
        report.check_mismatches, 0,
        "served bytes must match alone runs"
    );
    assert_eq!(report.outputs.len(), 8);
    let daemon = stop_and_join(&stop, handle);
    assert_eq!(daemon.admitted, 8);
    assert_eq!(daemon.completed, 8);
    assert_eq!(daemon.rejected, 0);
    assert!(daemon.batches >= 1);
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// A client that dies mid-SUBMIT (frame header promising more bytes than it
/// delivers) costs only its own connection: no counter moves, and a clean
/// client on a fresh connection is served normally afterwards.
#[test]
fn disconnect_mid_submit_leaves_the_daemon_serving() {
    let g = small_graph();
    let started = Instant::now();
    let (addr, stop, handle) = spawn_daemon(&g, ServeConfig::default());
    {
        let (mut s, _) = handshake(&addr, &g);
        let mut clipped = Vec::new();
        clipped.extend_from_slice(&100u32.to_le_bytes()); // promises 100 bytes
        clipped.push(wire::SUBMIT);
        clipped.extend_from_slice(&[1, 2, 3, 4]); // delivers 4
        s.write_all(&clipped).expect("partial frame");
        // dropping s closes the stream mid-body
    }
    let lg = LoadgenConfig {
        clients: 1,
        jobs_per_client: 2,
        depth: 2,
        check: true,
        ..LoadgenConfig::default()
    };
    let report = das_core::run_loadgen(&g, &addr, &lg).expect("loadgen");
    assert_eq!(report.completed, 2);
    assert_eq!(report.check_mismatches, 0);
    let daemon = stop_and_join(&stop, handle);
    // the clipped SUBMIT was never admitted or rejected — it doesn't exist
    assert_eq!(daemon.admitted, 2);
    assert_eq!(daemon.rejected, 0);
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// Over-budget declarations are refused at admission with the typed code
/// naming the violated budget and both numbers — content-free, before any
/// execution. A malformed job kind gets `MALFORMED` and the connection
/// stays usable.
#[test]
fn over_budget_and_malformed_submissions_are_rejected_typed() {
    let g = small_graph();
    let started = Instant::now();
    let capacity = Capacity {
        max_dilation: 8,
        max_congestion: 64,
        max_payload_bytes: 16,
    };
    let cfg = ServeConfig {
        capacity,
        ..ServeConfig::default()
    };
    let (addr, stop, handle) = spawn_daemon(&g, cfg);
    let (mut s, _) = handshake(&addr, &g);

    // declared payload over capacity → BUDGET_PAYLOAD with both numbers
    send_frame(&mut s, wire::SUBMIT, &submit_body(1, 0, 0, 2, 3, 4, 17));
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::REJECTED);
    assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 1);
    let code = u32::from_le_bytes(body[8..12].try_into().unwrap());
    assert_eq!(code, wire::BUDGET_PAYLOAD);
    assert_eq!(u64::from_le_bytes(body[12..20].try_into().unwrap()), 17);
    assert_eq!(u64::from_le_bytes(body[20..28].try_into().unwrap()), 16);

    // declared dilation over capacity → BUDGET_DILATION
    send_frame(&mut s, wire::SUBMIT, &submit_body(2, 0, 0, 2, 9, 4, 8));
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::REJECTED);
    assert_eq!(
        u32::from_le_bytes(body[8..12].try_into().unwrap()),
        wire::BUDGET_DILATION
    );

    // unknown job kind → MALFORMED, and the connection still works
    send_frame(&mut s, wire::SUBMIT, &submit_body(3, 9, 0, 2, 3, 4, 8));
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::REJECTED);
    assert_eq!(
        u32::from_le_bytes(body[8..12].try_into().unwrap()),
        wire::MALFORMED
    );
    send_frame(&mut s, wire::SUBMIT, &submit_body(4, 0, 0, 2, 3, 4, 8));
    let (kind, _) = recv_frame(&mut s);
    assert_eq!(kind, wire::ACCEPTED, "connection must survive a rejection");

    drop(s);
    let daemon = stop_and_join(&stop, handle);
    assert_eq!(daemon.rejected, 3);
    assert_eq!(daemon.admitted, 1);
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// A job that under-declares its budgets passes content-free admission
/// (declared numbers fit) but is caught after execution: the measured
/// dilation/congestion exceed the declaration, so the RESULT comes back
/// `BudgetMismatch` — the declaration is trusted for admission, never for
/// the verdict.
#[test]
fn lying_declared_budget_is_caught_at_verify_not_admission() {
    let g = small_graph();
    let started = Instant::now();
    let (addr, stop, handle) = spawn_daemon(&g, ServeConfig::default());
    let (mut s, _) = handshake(&addr, &g);
    // depth-3 flood really runs depth+1 rounds; declaring dilation 1 is a lie
    send_frame(&mut s, wire::SUBMIT, &submit_body(0, 0, 0, 3, 1, 1, 8));
    let (kind, _) = recv_frame(&mut s);
    assert_eq!(
        kind,
        wire::ACCEPTED,
        "the lie passes content-free admission"
    );
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::RESULT);
    assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 0);
    assert_eq!(JobStatus::from_wire(body[8]), JobStatus::BudgetMismatch);
    drop(s);
    let daemon = stop_and_join(&stop, handle);
    assert_eq!(daemon.admitted, 1);
    assert_eq!(daemon.failed, 1, "a caught lie counts as a failed job");
    assert_eq!(daemon.completed, 0);
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// A daemon whose RESULT claims `u32::MAX` outputs in a 45-byte frame must
/// fail the loadgen client with `TruncatedFrame` — the count is checked
/// against the bytes that remain before anything is reserved (the client
/// used to ask the allocator for 96 GiB on the daemon's word).
#[test]
fn lying_result_count_is_a_truncated_frame_not_a_reservation() {
    let g = small_graph();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fp = graph_fingerprint(&g);
    let rogue_daemon = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let (kind, _) = recv_frame(&mut s);
        assert_eq!(kind, wire::HELLO);
        let mut caps = Vec::new();
        caps.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        caps.extend_from_slice(&fp.to_le_bytes());
        caps.extend_from_slice(&42u64.to_le_bytes()); // tape seed
        caps.extend_from_slice(&4u32.to_le_bytes()); // batch max
        caps.extend_from_slice(&2u32.to_le_bytes()); // pool shards
        caps.extend_from_slice(&256u32.to_le_bytes());
        caps.extend_from_slice(&4096u64.to_le_bytes());
        caps.extend_from_slice(&40u32.to_le_bytes());
        send_frame(&mut s, wire::CAPS, &caps);
        let (kind, submit) = recv_frame(&mut s);
        assert_eq!(kind, wire::SUBMIT);
        let mut result = submit[..8].to_vec(); // job id
        result.push(0); // status: ok
        result.extend_from_slice(&[0u8; 8 + 4 + 8 + 8 + 4 + 8]);
        result.extend_from_slice(&u32::MAX.to_le_bytes()); // outputs
        send_frame(&mut s, wire::RESULT, &result);
        let mut sink = [0u8; 16];
        let _ = s.read(&mut sink);
    });
    let cfg = LoadgenConfig {
        clients: 1,
        jobs_per_client: 1,
        depth: 2,
        net: das_core::NetConfig::default().with_io_timeout_ms(2_000),
        ..LoadgenConfig::default()
    };
    let err = das_core::run_loadgen(&g, &addr, &cfg).expect_err("a lying daemon");
    rogue_daemon.join().expect("rogue daemon");
    assert!(
        matches!(err, das_core::ExecError::TruncatedFrame { .. }),
        "expected TruncatedFrame, got {err:?}"
    );
}

/// A client speaking the wrong protocol version is turned away with the
/// standard typed REJECT carrying both versions.
#[test]
fn version_mismatch_is_rejected_at_hello() {
    let g = small_graph();
    let started = Instant::now();
    let (addr, stop, handle) = spawn_daemon(&g, ServeConfig::default());
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut hello = Vec::new();
    hello.extend_from_slice(&999u32.to_le_bytes());
    hello.extend_from_slice(&graph_fingerprint(&g).to_le_bytes());
    send_frame(&mut s, wire::HELLO, &hello);
    let (kind, body) = recv_frame(&mut s);
    assert_eq!(kind, wire::REJECT);
    assert_eq!(
        u32::from_le_bytes(body[..4].try_into().unwrap()),
        wire::REJECT_VERSION
    );
    assert_eq!(
        u64::from_le_bytes(body[4..12].try_into().unwrap()),
        PROTOCOL_VERSION as u64
    );
    drop(s);
    let daemon = stop_and_join(&stop, handle);
    assert_eq!(daemon.admitted, 0);
    assert!(started.elapsed() < Duration::from_secs(30));
}

/// The linger is a deadline from the batch's first job, not a timer that
/// restarts on every arrival: with two jobs 80 ms apart under a 100 ms
/// linger (and a batch of 4 that never fills), both RESULTs arrive within
/// 1.5 × linger of the first SUBMIT. A wait re-armed by the second
/// arrival would hold the batch until ≈ 1.8 ×.
#[test]
fn linger_is_measured_from_the_first_job_not_the_latest_wake() {
    let g = small_graph();
    let linger = Duration::from_millis(100);
    let cfg = ServeConfig {
        batch_wait_ms: linger.as_millis() as u64,
        ..ServeConfig::default()
    };
    assert_eq!(cfg.batch_max, 4, "the batch must not fill with two jobs");
    let (addr, stop, handle) = spawn_daemon(&g, cfg);
    let (mut s, _) = handshake(&addr, &g);
    let first_submit = Instant::now();
    send_frame(&mut s, wire::SUBMIT, &submit_body(0, 0, 0, 2, 3, 4, 8));
    std::thread::sleep(Duration::from_millis(80));
    send_frame(&mut s, wire::SUBMIT, &submit_body(1, 0, 1, 2, 3, 4, 8));
    let mut results = 0;
    while results < 2 {
        let (kind, body) = recv_frame(&mut s);
        if kind == wire::RESULT {
            assert_eq!(JobStatus::from_wire(body[8]), JobStatus::Ok);
            results += 1;
        } else {
            assert_eq!(kind, wire::ACCEPTED);
        }
    }
    let took = first_submit.elapsed();
    assert!(
        took < linger.mul_f64(1.5),
        "both results took {took:?}; the linger overshot"
    );
    drop(s);
    let daemon = stop_and_join(&stop, handle);
    assert_eq!(daemon.completed, 2);
    assert_eq!(daemon.batches, 1, "both jobs share the one lingering batch");
}
