//! The benchmark's own client against an in-process `serve()`.

use das_benchmark::client::{
    encode_outputs, handshake, outputs_match, parse_result, submit_body, Conn, JobStream,
    CHECK_EVERY,
};
use das_benchmark::serve_load::{closed_loop, collect, summarize, Daemon};
use das_benchmark::trace::Tracer;
use das_core::serve::{instantiate, JobStatus};
use das_core::{graph_fingerprint, run_alone, wire, PROTOCOL_VERSION};
use das_graph::generators;
use std::sync::Arc;

const TAPE_SEED: u64 = 77;

#[test]
fn hello_caps_then_submit_accepted_result_with_run_alone_outputs() {
    let g = Arc::new(generators::grid(8, 8));
    let daemon = Daemon::start(Arc::clone(&g), TAPE_SEED).unwrap();
    let stream = JobStream::new(&g, 1).unwrap();

    let mut conn = Conn::connect(&daemon.addr).unwrap();
    let caps = handshake(&mut conn, &g).unwrap();
    assert_eq!(caps.version, PROTOCOL_VERSION);
    assert_eq!(caps.graph_fp, graph_fingerprint(&g));
    assert_eq!(caps.tape_seed, TAPE_SEED);
    assert_eq!(
        (caps.batch_max, caps.pool_shards),
        (4, 2),
        "ServeConfig::default()"
    );

    let spec = stream.job(5);
    conn.send(wire::SUBMIT, &submit_body(&spec)).unwrap();

    let (kind, _) = conn.recv().unwrap();
    assert_eq!(kind, wire::ACCEPTED);
    let (kind, body) = conn.recv().unwrap();
    assert_eq!(kind, wire::RESULT);
    let (head, outputs) = parse_result(&body).unwrap();
    assert_eq!(
        (head.job_id, head.status, head.batch_k),
        (5, JobStatus::Ok, 1)
    );
    assert_eq!(head.late, 0);
    assert_eq!(head.measured_dilation, spec.declared.dilation);
    assert_eq!(head.outputs as usize, g.node_count());

    // byte-equal to the alone run under the advertised tape seed
    let algo = instantiate(&spec, &g);
    let alone = run_alone(
        &g,
        algo.as_ref(),
        das_congest::util::seed_mix(caps.tape_seed, spec.job_id),
    )
    .unwrap();
    assert_eq!(outputs, encode_outputs(&alone.outputs).as_slice());
    assert!(outputs_match(&g, &spec, caps.tape_seed, outputs));
    assert!(!outputs_match(
        &g,
        &spec,
        caps.tape_seed + 1,
        &outputs[..outputs.len() - 1]
    ));

    let report = daemon.stop().unwrap();
    assert_eq!(
        (report.admitted, report.completed, report.failed),
        (1, 1, 0)
    );
}

#[test]
fn a_corrupted_output_counts_as_a_failed_job() {
    let g = Arc::new(generators::grid(8, 8));
    let daemon = Daemon::start(Arc::clone(&g), TAPE_SEED).unwrap();
    let stream = JobStream::new(&g, 2).unwrap();
    let (caps, mut records) = collect(&g, &daemon.addr, &stream, &closed_loop(4, 0.3), 0).unwrap();
    daemon.stop().unwrap();

    let clean = summarize(&g, &stream, caps, &records, &mut Tracer::new(false)).unwrap();
    assert!(clean.sent >= 8 && clean.checked_outputs >= 1);
    assert_eq!(
        (clean.failed, clean.output_mismatches, clean.miss_share),
        (0, 0, 0.0)
    );
    assert_eq!(clean.ok, clean.sent);

    let victim = records
        .iter_mut()
        .flatten()
        .find(|r| r.kept_outputs.is_some())
        .expect("one job in CHECK_EVERY keeps its outputs");
    assert_eq!(victim.job_id % CHECK_EVERY, 0);
    let bytes = victim.kept_outputs.as_mut().unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;

    let dirty = summarize(&g, &stream, caps, &records, &mut Tracer::new(false)).unwrap();
    assert_eq!((dirty.failed, dirty.output_mismatches), (1, 1));
    assert_eq!(dirty.ok, dirty.sent - 1);
    assert!(
        dirty.miss_share > 0.0,
        "a failed job misses the latency limit too"
    );
}
