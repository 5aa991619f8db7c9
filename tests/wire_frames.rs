//! Every frame kind's byte layout, pinned three ways through the public
//! typed bodies of `das_core::wire`:
//!
//! * **golden** — `encode(x)` equals a literal byte vector captured once
//!   from the inline packers that predate `wire.rs` (driven through their
//!   real coordinator / worker / daemon / loadgen code over sockets). The
//!   one exception is ASSIGN's slice, which v3 turned from plan JSON into
//!   fixed-width columns: its literal is written out field by field in
//!   `plan_slices_are_pinned`;
//! * **round trip** — `decode(encode(x)) == x`;
//! * **prefixes** — every strict prefix of `encode(x)` decodes to
//!   `TruncatedFrame`, or, at the one documented cut of a frame with an
//!   optional tail (ACTIVITY's bare flag), to the tail-less body. Never a
//!   panic, and — the lying-count cases — never a reservation larger than
//!   the body (where a lie could only show in the allocator, the test asks
//!   it: this binary's global allocator notes the largest block a watched
//!   thread requests).

use dasched::core::serve::{Budgets, Capacity, JobKind, JobSpec, JobStatus, Rejection};
use dasched::core::synthetic::{FloodBall, RelayChain};
use dasched::core::wire::{
    self, check_greeting, fnv1a, plan_hash, Abort, Accepted, Activity, ActivityTotals, Assign,
    Caps, Decision, Done, Flight, FlightGroup, Greeting, Hashed, Inbox, JobOutputs, JobResult,
    Outbox, PlanSlice, Reject, Rejected, RoundCap, Submit,
};
use dasched::core::{
    graph_fingerprint, problem_fingerprint, BlackBoxAlgorithm, DasProblem, ExecError, ExecStats,
    Outputs, SchedulePlan, ShardStats, Unit, PROTOCOL_VERSION,
};
use dasched::graph::{generators, Arc, NodeId};
use dasched::pattern::{SimulationMap, TimedArc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

thread_local! {
    /// The largest block this thread has requested since it started being
    /// watched, `None` while it is not.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Notes a request of `size` bytes if this thread is watched.
fn note(size: usize) {
    // `try_with`: a thread being torn down may still allocate
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

/// The system allocator, noting every `alloc` and `realloc` size.
struct Watched;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the note touches only a
// thread-local `Cell`, never memory the allocator manages, and allocates
// nothing.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Watched = Watched;

/// What `f` returns, and the largest block it requested on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(Some(0));
    let out = f();
    (out, LARGEST.replace(None).unwrap_or(0))
}

/// The outputs arena holding `nested[a][v]` at `(a, v)`.
fn arena(nested: &[Vec<Option<Vec<u8>>>]) -> Outputs {
    let nodes = nested.first().map_or(0, Vec::len);
    Outputs::build(nested.len(), nodes, |a, v, out| {
        if let Some(bytes) = &nested[a][v] {
            out.put(bytes);
        }
    })
}

/// Bytes from hex digit pairs; whitespace between fields is ignored.
fn unhex(hex: &str) -> Vec<u8> {
    let hex: String = hex.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn is_truncated<T>(decoded: &Result<T, ExecError>) -> bool {
    matches!(decoded, Err(ExecError::TruncatedFrame { .. }))
}

/// The three checks of the module docs for one frame body `$x`; `$decode`
/// is the body's decoder as a closure over the bytes.
macro_rules! pinned {
    ($name:literal, $x:expr, $golden:expr, $decode:expr) => {{
        let x = $x;
        let golden = unhex($golden);
        assert_eq!(x.encode(), golden, "{}: the layout moved", $name);
        assert_eq!(
            $decode(&golden[..]).expect($name),
            x,
            "{}: round trip",
            $name
        );
        for cut in 0..golden.len() {
            let decoded = $decode(&golden[..cut]);
            assert!(
                is_truncated(&decoded),
                "{}: prefix of {cut} bytes decoded to {decoded:?}",
                $name
            );
        }
    }};
}

const GRAPH_FP: u64 = 0xb07c_c3fa_a283_2cc2;
const PROBLEM_FP: u64 = 0x523c_8f7d_4eb8_d766;

/// The two handshake fingerprints are byte layouts too (hashed, so one
/// value pins every word).
#[test]
fn fingerprints_are_pinned() {
    let g = generators::path(4);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = vec![
        Box::new(RelayChain::new(0, &g)),
        Box::new(FloodBall::new(1, &g, NodeId(1), 2)),
    ];
    let p = DasProblem::new(&g, algos, 7);
    assert_eq!(graph_fingerprint(&g), GRAPH_FP);
    assert_eq!(problem_fingerprint(&p), PROBLEM_FP);
    assert_eq!(PROTOCOL_VERSION, 3);
}

/// A two-unit plan on four nodes: one untruncated unit, one strided and
/// truncated.
fn four_node_plan() -> SchedulePlan {
    SchedulePlan {
        scheduler: "uniform".to_string(),
        sched_seed: 7,
        phase_len: 3,
        precompute_rounds: 0,
        predicted_rounds: 9,
        units: vec![
            Unit {
                algo: 0,
                delay: vec![0, 1, 2, 3],
                stride: 1,
                trunc: vec![u32::MAX; 4],
            },
            Unit {
                algo: 1,
                delay: vec![4, 5, 6, 7],
                stride: 2,
                trunc: vec![1, 2, 3, 4],
            },
        ],
    }
}

/// Shard 1's columns of [`four_node_plan`] under the partition `[0, 0, 1,
/// 1]`: the header, the unit count, then per unit `algo, stride` and nodes
/// 2 and 3's `(delay, trunc)`.
const SHARD_1_SLICE: &str = "\
    07000000756e69666f726d 0700000000000000 0300000000000000 0000000000000000 0900000000000000 \
    02000000 \
    00000000 0100000000000000 0200000000000000 ffffffff 0300000000000000 ffffffff \
    01000000 0200000000000000 0600000000000000 03000000 0700000000000000 04000000";

/// ASSIGN's plan columns: the literal layout, a decode that puts them back
/// on the owned nodes and zeros everywhere else, and every strict prefix
/// truncated. With one shard the slice is the whole plan — the bytes
/// [`plan_hash`] hashes.
#[test]
fn plan_slices_are_pinned() {
    let plan = four_node_plan();
    let of_node = [0, 0, 1, 1];
    let slice = PlanSlice {
        plan: &plan,
        of_node: &of_node,
        shard: 1,
    };
    let golden = unhex(SHARD_1_SLICE);
    assert_eq!(slice.encode(), golden, "the column layout moved");
    let mut owned_part = plan.clone();
    for u in &mut owned_part.units {
        u.delay[..2].fill(0);
        u.trunc[..2].fill(0);
    }
    assert_eq!(
        PlanSlice::decode(&golden, &of_node, 1).expect("slice"),
        owned_part
    );
    for cut in 0..golden.len() {
        let decoded = PlanSlice::decode(&golden[..cut], &of_node, 1);
        assert!(
            is_truncated(&decoded),
            "prefix of {cut} bytes decoded to {decoded:?}"
        );
    }
    let whole = PlanSlice {
        plan: &plan,
        of_node: &[0; 4],
        shard: 0,
    }
    .encode();
    assert_eq!(PlanSlice::decode(&whole, &[0; 4], 0).expect("whole"), plan);
    assert_eq!(plan_hash(&plan), fnv1a(&whole));
}

#[test]
fn handshake_frames_are_pinned() {
    pinned!(
        "JOIN",
        Greeting {
            version: 2,
            fingerprint: PROBLEM_FP
        },
        "0200000066d7b84e7d8f3c52",
        Greeting::decode
    );
    pinned!(
        "HELLO",
        Greeting {
            version: 2,
            fingerprint: GRAPH_FP
        },
        "02000000c22c83a2fac37cb0",
        Greeting::decode
    );
    let slice = unhex(SHARD_1_SLICE);
    pinned!(
        "ASSIGN",
        Assign {
            shard: 1,
            shards: 2,
            plan_hash: 0x2222,
            slice: Hashed(&slice),
            of_node: Cow::Borrowed(&[0, 0, 1, 1]),
        },
        &format!(
            "01000000 02000000 2222000000000000 4c438bd27a6221d1 77000000 {SHARD_1_SLICE} \
             04000000 00000000 00000000 01000000 01000000"
        ),
        Assign::decode
    );
    // handshake_worker's two, the doorman's, and serve_client's: one layout
    let reject = |code, ours, theirs| Reject { code, ours, theirs };
    pinned!(
        "REJECT (version)",
        reject(wire::REJECT_VERSION, 2, 9),
        "0100000002000000000000000900000000000000",
        Reject::decode
    );
    pinned!(
        "REJECT (problem)",
        reject(wire::REJECT_PROBLEM, 0x1111, 0x3333),
        "0200000011110000000000003333000000000000",
        Reject::decode
    );
    pinned!(
        "REJECT (full)",
        reject(wire::REJECT_FULL, 3, 3),
        "0300000003000000000000000300000000000000",
        Reject::decode
    );
    pinned!(
        "REJECT (serve)",
        reject(wire::REJECT_VERSION, 2, 7),
        "0100000002000000000000000700000000000000",
        Reject::decode
    );
}

/// A slice that does not hash to the announced value is refused by the
/// decoder itself — before the node list is even read.
#[test]
fn assign_guards_its_slice() {
    let slice = unhex(SHARD_1_SLICE);
    let mut body = Assign {
        shard: 1,
        shards: 2,
        plan_hash: 0,
        slice: Hashed(&slice),
        of_node: Cow::Borrowed(&[0, 0, 1, 1]),
    }
    .encode();
    body[16] ^= 1; // first byte of the slice hash
    assert!(matches!(
        Assign::decode(&body),
        Err(ExecError::PlanHashMismatch { .. })
    ));
}

#[test]
fn one_check_serves_both_handshakes() {
    let ours = Greeting {
        version: 2,
        fingerprint: 0xAA,
    };
    assert_eq!(check_greeting(&ours, &ours), Ok(()));
    // a stale version is reported before a wrong fingerprint
    let stale = Greeting {
        version: 1,
        fingerprint: 0xBB,
    };
    let reject = check_greeting(&ours, &stale).unwrap_err();
    assert_eq!(
        (reject.code, reject.ours, reject.theirs),
        (wire::REJECT_VERSION, 2, 1)
    );
    assert_eq!(
        reject.to_error(),
        ExecError::VersionMismatch {
            coordinator: 2,
            worker: 1
        }
    );
    let elsewhere = Greeting {
        version: 2,
        fingerprint: 0xBB,
    };
    let reject = check_greeting(&ours, &elsewhere).unwrap_err();
    assert_eq!(
        reject.to_error(),
        ExecError::ProblemMismatch {
            coordinator: 0xAA,
            worker: 0xBB
        }
    );
    let full = Reject {
        code: wire::REJECT_FULL,
        ours: 3,
        theirs: 3,
    };
    assert_eq!(full.to_error(), ExecError::LateJoin { shards: 3 });
    let unknown = Reject { code: 77, ..full };
    assert!(matches!(unknown.to_error(), ExecError::Net { .. }));
}

fn flight(arc: u32, dst: u32, algo: u32, round: u32, from: u32, payload: &[u8]) -> Flight<'_> {
    Flight {
        arc,
        dst,
        algo,
        round,
        from,
        payload,
    }
}

#[test]
fn barrier_frames_are_pinned() {
    // what one worker staged for shards 1 and 2 (nothing for shard 0)
    let mut staged = vec![FlightGroup::default(); 3];
    staged[1].push(flight(3, 2, 1, 4, 1, b"hi"));
    staged[1].push(flight(5, 2, 0, 0, 3, &[1, 2, 3, 4, 5, 6, 7, 8]));
    staged[2].push(flight(0, 3, 1, 2, 2, b""));
    assert!(staged[0].is_empty() && !staged[1].is_empty());
    pinned!(
        "OUTBOX",
        Outbox {
            big_round: 5,
            groups: vec![(1, staged[1].flights()), (2, staged[2].flights())].into(),
        },
        "05000000000000000200000001000000020000000300000002000000010000000400000001000000\
         02000000686905000000020000000000000000000000030000000800000001020304050607080200\
         000001000000000000000300000001000000020000000200000000000000",
        Outbox::decode
    );
    // what the coordinator routed to shard 1: appended stretches of OUTBOX
    // bodies, never re-encoded
    let mut routed = FlightGroup::default();
    routed.append(staged[1].flights());
    routed.append(staged[2].flights());
    let walked: Vec<Flight<'_>> = routed.flights().iter().collect();
    assert_eq!(walked.len(), 3);
    assert_eq!(walked[1], flight(5, 2, 0, 0, 3, &[1, 2, 3, 4, 5, 6, 7, 8]));
    let mut inbox = FlightGroup::default();
    inbox.push(flight(3, 2, 1, 4, 1, b"hi"));
    inbox.push(flight(5, 2, 0, 0, 3, &[9, 9, 9]));
    pinned!(
        "INBOX",
        Inbox {
            big_round: 0,
            flights: inbox.flights(),
        },
        "00000000000000000200000003000000020000000100000004000000010000000200000068690500\
         00000200000000000000000000000300000003000000090909",
        Inbox::decode
    );
    inbox.clear();
    pinned!(
        "INBOX (empty)",
        Inbox {
            big_round: 0,
            flights: inbox.flights(),
        },
        "000000000000000000000000",
        Inbox::decode
    );
    pinned!(
        "DECISION",
        Decision {
            big_round: 0,
            done: false
        },
        "000000000000000000",
        Decision::decode
    );
    let done = Decision {
        big_round: 9,
        done: true,
    };
    assert_eq!(Decision::decode(&done.encode()).expect("DECISION"), done);
}

/// ACTIVITY is the one frame with an optional tail: the cut after the flag
/// is a valid (older) body, every other cut is truncated.
#[test]
fn activity_tail_is_optional_but_not_divisible() {
    let full = Activity {
        big_round: 5,
        active: true,
        totals: Some(ActivityTotals {
            steps: 10,
            delivered: 7,
            late: 1,
            cross_sent: 3,
        }),
    };
    let golden =
        unhex("0500000000000000010a00000000000000070000000000000001000000000000000300000000000000");
    assert_eq!(full.encode(), golden);
    assert_eq!(Activity::decode(&golden).expect("ACTIVITY"), full);
    let bare = Activity {
        totals: None,
        ..full.clone()
    };
    assert_eq!(bare.encode(), golden[..9]);
    for cut in 0..golden.len() {
        let decoded = Activity::decode(&golden[..cut]);
        if cut == 9 {
            assert_eq!(decoded.expect("bare flag"), bare);
        } else {
            assert!(is_truncated(&decoded), "cut {cut} decoded to {decoded:?}");
        }
    }
}

#[test]
fn ending_frames_are_pinned() {
    let own = vec![NodeId(1), NodeId(3)];
    let departed = |round, arc| TimedArc {
        round,
        arc: Arc::from_index(arc),
    };
    let done = Done {
        own: own.clone(),
        outputs: arena(&[
            vec![Some(b"ab".to_vec()), None],
            vec![None, Some(Vec::new())],
        ]),
        departures: vec![
            SimulationMap::from([(departed(0, 2), 5), (departed(1, 0), 9)]),
            SimulationMap::new(),
        ],
        stats: ExecStats {
            delivered: 11,
            late_messages: 2,
            invalid_sends: 1,
            max_arc_queue: 4,
            ..ExecStats::default()
        },
        last_activity_round: 77,
        big_rounds: 8,
        shard: ShardStats {
            shard: 1,
            nodes: 2,
            degree: 3,
            steps: 20,
            delivered: 11,
            cross_sent: 6,
            step_nanos: 1234,
            drain_nanos: 5678,
        },
    };
    pinned!(
        "DONE",
        done.clone(),
        "08000000000000004d000000000000000b0000000000000002000000000000000100000000000000\
         04000000000000000100000000000000020000000000000003000000000000001400000000000000\
         0b000000000000000600000000000000d2040000000000002e160000000000000102000000616200\
         00010000000002000000000000000000000002000000050000000100000000000000090000000000\
         000000000000",
        |body| Done::decode(body, 2, own.clone())
    );
    // An honest shard writes each departure map in key order. A repeated
    // or backward (round, arc) key is refused typed, not merged: swap the
    // two departures of algorithm 0, then repeat the first.
    let golden = done.encode();
    let first = golden.len() - 8 - 24; // algorithm 1's count, two departures
    let (a, b) = (first..first + 12, first + 12..first + 24);
    let mut swapped = golden.clone();
    swapped[a.clone()].copy_from_slice(&golden[b.clone()]);
    swapped[b.clone()].copy_from_slice(&golden[a.clone()]);
    let mut repeated = golden.clone();
    repeated[b].copy_from_slice(&golden[a]);
    for rogue in [swapped, repeated] {
        match Done::decode(&rogue, 2, own.clone()) {
            Err(ExecError::Net { detail }) => assert!(detail.contains("strictly increasing")),
            other => panic!("expected a typed Net error, got {other:?}"),
        }
    }
    pinned!(
        "ERROR",
        RoundCap {
            cap: 1000,
            big_round: 5
        },
        "e8030000000000000500000000000000",
        RoundCap::decode
    );
    pinned!(
        "ABORT",
        Abort {
            reason: "network error: expected OUTBOX from shard 0, got kind 99".to_string(),
        },
        "380000006e6574776f726b206572726f723a206578706563746564204f5554424f582066726f6d20\
         736861726420302c20676f74206b696e64203939",
        Abort::decode
    );
    // the old byte-codec unit tests' inputs: a length prefix that promises
    // 100 bytes over a 5-byte string is a truncated frame, not a panic
    let mut clipped = 100u32.to_le_bytes().to_vec();
    clipped.extend_from_slice(b"short");
    assert!(is_truncated(&Abort::decode(&clipped)));
    let words = flight(7, 0xdead_beef, 0, 0x0123_4567, 0x89ab_cdef, b"payload");
    let mut group = FlightGroup::default();
    group.push(words.clone());
    assert_eq!(group.flights().iter().next(), Some(words.clone()));
    assert_eq!(Flight::decode(&words.encode()).expect("flight"), words);
}

#[test]
fn serve_frames_are_pinned() {
    pinned!(
        "CAPS",
        Caps {
            version: 2,
            graph_fingerprint: GRAPH_FP,
            tape_seed: 99,
            batch_max: 3,
            pool_shards: 2,
            capacity: Capacity {
                max_dilation: 10,
                max_congestion: 20,
                max_payload_bytes: 40,
            },
        },
        "02000000c22c83a2fac37cb0630000000000000003000000020000000a0000001400000000000000\
         28000000",
        Caps::decode
    );
    let flood = JobSpec {
        job_id: 0,
        kind: JobKind::Flood,
        source: 3,
        depth: 2,
        declared: Budgets {
            dilation: 3,
            congestion: 2,
            payload_bytes: 8,
        },
    };
    pinned!(
        "SUBMIT",
        flood.clone(),
        "000000000000000000030000000200000003000000020000000000000008000000",
        |body| Submit::decode(body).map(|verdict| verdict.expect("a known job kind"))
    );
    let relay = JobSpec {
        kind: JobKind::Relay,
        ..flood.clone()
    };
    assert_eq!(Submit::decode(&relay.encode()).expect("SUBMIT"), Ok(relay));
    // a well-framed job of an unknown kind is refusable, not a dead link
    let mut alien = flood.encode();
    alien[8] = 9;
    let refusal = Rejected {
        job_id: 0,
        why: Rejection {
            code: wire::MALFORMED,
            declared: 9,
            capacity: 1,
        },
    };
    assert_eq!(Submit::decode(&alien).expect("SUBMIT"), Err(refusal));
    pinned!(
        "ACCEPTED",
        Accepted {
            job_id: 5,
            queued: 1
        },
        "05000000000000000100000000000000",
        Accepted::decode
    );
    pinned!(
        "REJECTED",
        Rejected {
            job_id: 6,
            why: Rejection {
                code: wire::BUDGET_DILATION,
                declared: 11,
                capacity: 10,
            },
        },
        "0600000000000000010000000b000000000000000a00000000000000",
        Rejected::decode
    );
    pinned!(
        "REJECTED (malformed)",
        Rejected {
            job_id: 7,
            why: Rejection {
                code: wire::MALFORMED,
                declared: 9,
                capacity: 1,
            },
        },
        "07000000000000000400000009000000000000000100000000000000",
        Rejected::decode
    );
    let outputs = arena(&[[
        "01010000008571b3423945e7e1",
        "010000000005b2f568106e733f",
        "01010000008571b3423945e7e1",
        "0102000000e021701702724b8c",
    ]
    .map(|output| Some(unhex(output)))
    .to_vec()]);
    let ok = JobResult {
        job_id: 5,
        status: JobStatus::Ok,
        schedule_rounds: 15,
        batch_k: 1,
        delivered: 5,
        late: 0,
        measured_dilation: 3,
        measured_congestion: 2,
        outputs: JobOutputs::of(&outputs, 0),
    };
    pinned!(
        "RESULT",
        ok.clone(),
        "0500000000000000000f000000000000000100000005000000000000000000000000000000030000\
         00020000000000000004000000010d00000001010000008571b3423945e7e1010d00000001000000\
         0005b2f568106e733f010d00000001010000008571b3423945e7e1010d0000000102000000e02170\
         1702724b8c",
        JobResult::decode
    );
    pinned!(
        "RESULT (failed batch)",
        JobResult {
            job_id: 11,
            status: JobStatus::ExecFailed,
            schedule_rounds: 0,
            batch_k: 3,
            delivered: 0,
            late: 0,
            measured_dilation: 0,
            measured_congestion: 0,
            outputs: JobOutputs::none(),
        },
        "0b000000000000000300000000000000000300000000000000000000000000000000000000000000\
         00000000000000000000000000",
        JobResult::decode
    );
    for status in [JobStatus::VerifyFailed, JobStatus::BudgetMismatch] {
        let result = JobResult {
            status,
            ..ok.clone()
        };
        assert_eq!(JobResult::decode(&result.encode()).expect("RESULT"), result);
    }
    // a status byte from the future reads as a failure, never as Ok
    let mut future = ok.encode();
    future[8] = 200;
    let decoded = JobResult::decode(&future).expect("RESULT");
    assert_eq!(decoded.status, JobStatus::ExecFailed);
}

/// An element count is checked against the bytes that remain before
/// anything is reserved: a ≤ 40-byte body claiming `u32::MAX` (or
/// `u64::MAX`) entries is a truncated frame, not a 16 GiB reservation.
#[test]
fn lying_counts_reserve_nothing() {
    let max = u32::MAX.to_le_bytes();
    // ASSIGN: a valid empty slice, then a node list of u32::MAX entries
    let mut assign = Assign {
        shard: 0,
        shards: 1,
        plan_hash: 0,
        slice: Hashed(b""),
        of_node: Cow::Borrowed(&[]),
    }
    .encode();
    let at = assign.len() - 4;
    assign[at..].copy_from_slice(&max);
    assert!(is_truncated(&Assign::decode(&assign)));
    // plan slice: u32::MAX units; then one unit whose column run — 12
    // bytes for each of a million owned nodes — the body does not hold.
    // Both are refused before any node-length column is allocated.
    let empty = SchedulePlan {
        units: Vec::new(),
        ..four_node_plan()
    };
    let mut units = PlanSlice {
        plan: &empty,
        of_node: &[0],
        shard: 0,
    }
    .encode();
    let at = units.len() - 4;
    units[at..].copy_from_slice(&max);
    assert!(is_truncated(&PlanSlice::decode(&units, &[0], 0)));
    let million = vec![0u32; 1 << 20];
    units[at..].copy_from_slice(&1u32.to_le_bytes());
    units.extend_from_slice(&[0u8; 12 + 12 * 4]); // algo, stride, four nodes' columns
    assert!(is_truncated(&PlanSlice::decode(&units, &million, 0)));
    // RESULT: u32::MAX outputs
    let mut result = JobResult {
        job_id: 1,
        status: JobStatus::Ok,
        schedule_rounds: 0,
        batch_k: 1,
        delivered: 0,
        late: 0,
        measured_dilation: 0,
        measured_congestion: 0,
        outputs: JobOutputs::none(),
    }
    .encode();
    let at = result.len() - 4;
    result[at..].copy_from_slice(&max);
    assert!(is_truncated(&JobResult::decode(&result)));
    // OUTBOX: u32::MAX groups; one group of u32::MAX flights
    let mut outbox = 0u64.to_le_bytes().to_vec();
    outbox.extend_from_slice(&max);
    assert!(is_truncated(&Outbox::decode(&outbox)));
    let mut outbox = 0u64.to_le_bytes().to_vec();
    outbox.extend_from_slice(&1u32.to_le_bytes());
    outbox.extend_from_slice(&0u32.to_le_bytes());
    outbox.extend_from_slice(&max);
    assert!(is_truncated(&Outbox::decode(&outbox)));
    // INBOX: u32::MAX flights
    let mut inbox = 0u64.to_le_bytes().to_vec();
    inbox.extend_from_slice(&max);
    assert!(is_truncated(&Inbox::decode(&inbox)));
    // DONE: u64::MAX departures for the only algorithm of a node-less shard
    let mut done = vec![0u8; 14 * 8];
    done.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(is_truncated(&Done::decode(&done, 1, Vec::new())));
    // ... and more owned nodes than the body has bytes left
    let own: Vec<NodeId> = (0..1000).map(NodeId).collect();
    assert!(is_truncated(&Done::decode(&[0u8; 14 * 8], 1, own)));
    // ... and an output whose length word runs past the body: refused
    // when the word is read, before a byte of it is copied or reserved
    let mut done = vec![0u8; 14 * 8];
    done.push(1); // tag: an output follows
    done.extend_from_slice(&max);
    done.extend_from_slice(b"abc");
    let own = vec![NodeId(0), NodeId(1)];
    let (decoded, largest) = largest_allocation(|| Done::decode(&done, 2, own));
    assert!(is_truncated(&decoded), "{decoded:?}");
    assert!(
        largest <= done.len(),
        "decoding a {}-byte DONE body asked for a {largest}-byte block",
        done.len()
    );
}
