//! An in-process `serve()` daemon and the load driven against it.

use crate::client::{outputs_match, run_connection, Caps, JobRecord, JobStream, Lane, Pace};
use crate::stats::{median, quantile, Summary};
use crate::trace::Tracer;
use crate::workloads::PARALLELISM;
use das_core::serve::JobStatus;
use das_core::{serve, NetConfig, ServeConfig, ServeReport, UniformScheduler};
use das_graph::Graph;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A job slower than this, refused, or failed counts as a miss.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// A load generator later than this at its 99th percentile makes the run
/// invalid, not slow.
pub const LAG_LIMIT_MS: f64 = 5.0;

/// What `dasched serve` gives with no flags: only the tape seed and the
/// stop flag are set.
fn daemon_config(tape_seed: u64, stop: Arc<AtomicBool>) -> ServeConfig {
    ServeConfig {
        tape_seed,
        net: NetConfig::default().with_stop(stop),
        ..ServeConfig::default()
    }
}

/// A running daemon on an ephemeral localhost port.
pub struct Daemon {
    pub addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<ServeReport, String>>>,
}

impl Daemon {
    /// Binds and starts serving `g` under the CLI's default scheduler.
    pub fn start(g: Arc<Graph>, tape_seed: u64) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = daemon_config(tape_seed, Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            serve(&g, &UniformScheduler::default(), listener, &cfg).map_err(|e| e.to_string())
        });
        Ok(Daemon {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Raises the stop flag and waits for the daemon to drain and return.
    pub fn stop(mut self) -> Result<ServeReport, String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().expect("joined once").join() {
            Ok(report) => report,
            Err(_) => Err("serve thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one load phase measured, from the client side.
#[derive(Clone, Debug)]
pub struct LoadResult {
    pub caps: Caps,
    pub sent: u64,
    pub ok: u64,
    /// Jobs refused, failed, unanswered, or with outputs that differ from
    /// the local alone run.
    pub failed: u64,
    pub rejected: u64,
    pub output_mismatches: u64,
    pub checked_outputs: u64,
    /// First SUBMIT to last RESULT.
    pub wall_s: f64,
    /// RESULT minus due time, per answered job.
    pub latency_ms: Summary,
    /// The samples behind `latency_ms`, for the workload's tail percentile.
    pub latency_samples_ms: Vec<f64>,
    pub miss_share: f64,
    pub lag_p99_ms: f64,
    pub admit_us_p50: f64,
    pub wait_ms: Summary,
    pub wait_ms_p99: f64,
    /// Σ over jobs of `1 / batch_k`: the batches the jobs rode in.
    pub batches: f64,
    pub batch_k_mean: f64,
    pub result_bytes_mean: f64,
}

/// Drives `paces.len()` connections against the daemon and returns what
/// the server advertised and every connection's job records.
pub fn collect(
    g: &Graph,
    addr: &str,
    stream: &JobStream,
    paces: &[Pace],
    first_id: u64,
) -> Result<(Caps, Vec<Vec<JobRecord>>), String> {
    let lanes = paces.len() as u64;
    let start = Instant::now();
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = paces
            .iter()
            .enumerate()
            .map(|(lane, pace)| {
                scope.spawn(move || {
                    run_connection(
                        g,
                        addr,
                        stream,
                        pace,
                        Lane {
                            first_id,
                            lane: lane as u64,
                            lanes,
                        },
                        start,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect()
    });
    let mut caps = None;
    let mut records = Vec::new();
    for r in per_conn {
        let (c, lane) = r?.map_err(|e| format!("client: {e}"))?;
        caps = Some(c);
        records.push(lane);
    }
    Ok((caps.ok_or("no connections")?, records))
}

/// One load phase: [`collect`], then [`summarize`] — which checks the kept
/// outputs against local alone runs, off the timed path.
pub fn drive(
    g: &Graph,
    addr: &str,
    stream: &JobStream,
    paces: &[Pace],
    first_id: u64,
    tr: &mut Tracer,
) -> Result<LoadResult, String> {
    let (caps, records) = collect(g, addr, stream, paces, first_id)?;
    summarize(g, stream, caps, &records, tr)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Turns job records into the load's numbers and records a span per job.
/// A job counts as failed when it was refused, got no `Ok` RESULT, or its
/// kept outputs are not byte-equal to a local `run_alone`.
pub fn summarize(
    g: &Graph,
    stream: &JobStream,
    caps: Caps,
    lanes: &[Vec<JobRecord>],
    tr: &mut Tracer,
) -> Result<LoadResult, String> {
    let all: Vec<&JobRecord> = lanes.iter().flatten().collect();
    if all.is_empty() {
        return Err("the load phase sent no job".to_string());
    }
    let first_sent = all.iter().map(|r| r.sent).min().expect("non-empty");
    let last_result = all.iter().filter_map(|r| r.result).max();
    let (mut ok, mut failed, mut rejected) = (0u64, 0u64, 0u64);
    let (mut mismatches, mut checked) = (0u64, 0u64);
    let (mut latency, mut lag, mut admit_us, mut wait) = (vec![], vec![], vec![], vec![]);
    let (mut batches, mut k_sum, mut bytes, mut misses) = (0.0, 0u64, 0usize, 0u64);
    for (lane, records) in lanes.iter().enumerate() {
        for r in records {
            lag.push(ms(r.due, r.sent));
            let answered = r.result.filter(|_| !r.rejected);
            let head = r.head.filter(|h| h.status == JobStatus::Ok);
            let mut good = answered.is_some() && head.is_some();
            if let (Some(h), Some(got)) = (head, &r.kept_outputs) {
                checked += 1;
                if !outputs_match(g, &stream.job(r.job_id), caps.tape_seed, got) {
                    mismatches += 1;
                    good = false;
                }
                debug_assert_eq!(h.job_id, r.job_id);
            }
            rejected += u64::from(r.rejected);
            if good {
                ok += 1;
            } else {
                failed += 1;
            }
            let lat = r.result.map(|at| ms(r.due, at));
            if !good || lat.is_none_or(|l| l > LATENCY_LIMIT_MS) {
                misses += 1;
            }
            let (Some(at), Some(h)) = (r.result, r.head) else {
                continue;
            };
            latency.push(ms(r.due, at));
            bytes += r.result_bytes;
            batches += 1.0 / f64::from(h.batch_k.max(1));
            k_sum += u64::from(h.batch_k);
            let job = tr.push("serve.job", r.due, at, None, r.job_id, lane as u32 + 1);
            tr.push("loadgen.lag", r.due, r.sent, job, r.job_id, lane as u32 + 1);
            if let Some(acc) = r.accepted {
                admit_us.push(ms(r.sent, acc) * 1e3);
                wait.push(ms(acc, at));
                tr.push("serve.admit", r.sent, acc, job, r.job_id, lane as u32 + 1);
                tr.push("serve.wait", acc, at, job, r.job_id, lane as u32 + 1);
            }
        }
    }
    if latency.is_empty() || wait.is_empty() {
        return Err(format!("no job of {} was answered", all.len()));
    }
    Ok(LoadResult {
        caps,
        sent: all.len() as u64,
        ok,
        failed,
        rejected,
        output_mismatches: mismatches,
        checked_outputs: checked,
        wall_s: last_result.map_or(0.0, |at| ms(first_sent, at) / 1e3),
        latency_ms: Summary::of(&latency),
        miss_share: misses as f64 / all.len() as f64,
        lag_p99_ms: quantile(&lag, 0.99),
        admit_us_p50: median(&admit_us),
        wait_ms: Summary::of(&wait),
        wait_ms_p99: quantile(&wait, 0.99),
        batches,
        batch_k_mean: k_sum as f64 / latency.len() as f64,
        result_bytes_mean: bytes as f64 / latency.len() as f64,
        latency_samples_ms: latency,
    })
}

/// The two load shapes, split over [`PARALLELISM`] connections.
pub fn open_loop(total_rate_per_s: f64, for_s: f64, seed: u64) -> Vec<Pace> {
    (0..PARALLELISM as u64)
        .map(|lane| Pace::Open {
            due_s: crate::client::poisson_due_times(
                total_rate_per_s / PARALLELISM as f64,
                for_s,
                seed.wrapping_mul(0x9E37_79B9).wrapping_add(lane),
            ),
        })
        .collect()
}

pub fn closed_loop(window: usize, for_s: f64) -> Vec<Pace> {
    vec![Pace::Closed { window, for_s }; PARALLELISM]
}
