//! Process-level networked execution: a real coordinator process plus
//! real worker processes (the CI `networked-equivalence` job's in-tree
//! twin), and a process-level fault: a coordinator with no workers must
//! exit nonzero with a typed timeout within its deadline.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dasched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dasched"))
}

const BASE: &[&str] = &[
    "--graph",
    "path:12",
    "--workload",
    "relays:3",
    "--seed",
    "9",
];

/// Waits on a child under a deadline, killing it on expiry so a protocol
/// hang fails the test instead of wedging the harness.
fn wait_bounded(mut child: Child, what: &str, deadline: Duration) -> std::process::Output {
    let started = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("wait_with_output"),
            None if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{what} did not finish within {deadline:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Coordinator + N worker processes on localhost produce a
/// `--dump-outcome` byte-identical to the fused `plan --execute` dump.
#[test]
fn coordinator_and_workers_match_fused_dump_across_processes() {
    let dir = std::env::temp_dir().join("dasched_networked_process_test");
    std::fs::create_dir_all(&dir).unwrap();
    let fused_dump = dir.join("fused.txt");
    let fused = dasched()
        .args(["plan"])
        .args(BASE)
        .args(["--scheduler", "uniform", "--execute"])
        .args(["--dump-outcome", fused_dump.to_str().unwrap()])
        .output()
        .expect("run fused plan");
    assert!(fused.status.success(), "fused: {fused:?}");

    for workers in [1usize, 3] {
        let net_dump = dir.join(format!("networked_{workers}.txt"));
        // port 0 bind: read the chosen address off the coordinator's
        // first stdout line ("listening on ADDR")
        let mut coord = dasched()
            .args(["coordinator"])
            .args(BASE)
            .args(["--scheduler", "uniform"])
            .args(["--workers", &workers.to_string()])
            .args(["--listen", "127.0.0.1:0", "--timeout-ms", "30000"])
            .args(["--dump-outcome", net_dump.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn coordinator");
        let addr = {
            let stdout = coord.stdout.take().expect("piped stdout");
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read listen line");
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
                .to_string();
            // drain the rest of the pipe in the background so the
            // coordinator never blocks on a full pipe buffer
            std::thread::spawn(move || for _ in reader.lines() {});
            addr
        };
        let worker_procs: Vec<Child> = (0..workers)
            .map(|_| {
                dasched()
                    .args(["worker"])
                    .args(BASE)
                    .args(["--connect", &addr, "--timeout-ms", "30000"])
                    .stdout(Stdio::null())
                    .spawn()
                    .expect("spawn worker")
            })
            .collect();
        let coord_out = wait_bounded(coord, "coordinator", Duration::from_secs(60));
        assert!(coord_out.status.success(), "coordinator: {coord_out:?}");
        for w in worker_procs {
            let out = wait_bounded(w, "worker", Duration::from_secs(60));
            assert!(out.status.success(), "worker: {out:?}");
        }
        assert_eq!(
            std::fs::read_to_string(&fused_dump).unwrap(),
            std::fs::read_to_string(&net_dump).unwrap(),
            "{workers}-worker networked dump must match the fused dump"
        );
        std::fs::remove_file(net_dump).unwrap();
    }
    std::fs::remove_file(fused_dump).unwrap();
}

/// A private plan on a 48×48 grid runs over two worker processes under the
/// default network configuration, and its dump matches the fused one. Its
/// ASSIGN once carried the plan as JSON, 85 MB per worker against the
/// 64 MiB frame limit; the shard's own columns are ≈ 23 MB.
#[test]
fn private_plan_runs_networked_under_the_default_frame_limit() {
    const PROBLEM: &[&str] = &["--graph", "grid:48x48", "--workload", "mixed:48"];
    let dir = std::env::temp_dir().join("dasched_networked_private_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (fused_dump, net_dump) = (dir.join("fused.txt"), dir.join("networked.txt"));
    let fused = dasched()
        .args(["plan"])
        .args(PROBLEM)
        .args(["--scheduler", "private", "--execute"])
        .args(["--dump-outcome", fused_dump.to_str().unwrap()])
        .stdout(Stdio::null())
        .status()
        .expect("run fused plan");
    assert!(fused.success(), "fused: {fused:?}");
    let mut coord = dasched()
        .args(["coordinator"])
        .args(PROBLEM)
        .args(["--scheduler", "private", "--workers", "2"])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--dump-outcome", net_dump.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let mut reader = BufReader::new(coord.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    std::thread::spawn(move || for _ in reader.lines() {});
    let workers: Vec<Child> = (0..2)
        .map(|_| {
            dasched()
                .args(["worker"])
                .args(PROBLEM)
                .args(["--connect", &addr])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn worker")
        })
        .collect();
    let coord_out = wait_bounded(coord, "coordinator", Duration::from_secs(120));
    assert!(coord_out.status.success(), "coordinator: {coord_out:?}");
    for w in workers {
        let out = wait_bounded(w, "worker", Duration::from_secs(120));
        assert!(out.status.success(), "worker: {out:?}");
    }
    assert_eq!(
        std::fs::read_to_string(&fused_dump).unwrap(),
        std::fs::read_to_string(&net_dump).unwrap(),
        "the networked private dump must match the fused dump"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

/// A coordinator whose workers never show up must exit nonzero with the
/// typed timeout message, within (a generous multiple of) its deadline.
#[test]
fn coordinator_without_workers_times_out_typed() {
    let started = Instant::now();
    let child = dasched()
        .args(["coordinator"])
        .args(BASE)
        .args(["--scheduler", "sequential"])
        .args(["--workers", "2"])
        .args(["--listen", "127.0.0.1:0", "--timeout-ms", "500"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let out = wait_bounded(child, "timed-out coordinator", Duration::from_secs(30));
    assert!(!out.status.success(), "a worker-less coordinator must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("timed out") && stderr.contains("0 of 2 joined"),
        "stderr must carry the typed timeout: {stderr}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the failure must be deadline-bounded"
    );
}
