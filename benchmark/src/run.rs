//! One run of one workload: set-up, the measured part, the checks, and the
//! report. End-to-end runs time whole repetitions with tracing off; traced
//! runs wrap every call into a layer in a span and probe the layers the
//! workload's own repetitions never enter.

use crate::client::JobStream;
use crate::metrics::{Collector, RunReport};
use crate::pipeline::{exec_rep, full_rep, quality_ratio, Case, ExecExtra, FullRep, Path, Source};
use crate::probes::{
    probe_fused, probe_oneshot, record_layers, record_net, record_shard, ProbeTally,
};
use crate::serve_load::{closed_loop, drive, open_loop, Daemon, LoadResult, LAG_LIMIT_MS};
use crate::stats::{median, proc_status_bytes, quantile, Summary};
use crate::trace::{chrome_trace, Tracer};
use crate::workloads::{Instance, DENSE, PRIVATE, SERVE_GRAPH, WIDE};
use das_core::{ServeReport, UniformScheduler};
use das_graph::Graph;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Jobs per second `serve_steady` offers in total: so far below the knee
/// that two jobs in three open a batch of their own and wait out the whole
/// linger, which pins the median at linger plus one small batch.
const STEADY_RATE_PER_S: f64 = 10.0;
/// Jobs each `serve_saturate` connection keeps outstanding: the queue never
/// empties and linger never fires.
const SATURATE_WINDOW: usize = 32;
/// `serve_tail_ms` is one fixed percentile per workload, so that it is the
/// same quantity on every commit however many samples a run collects:
/// `serve_steady` offers 120 jobs in 12 s, which leaves 12 beyond p90;
/// `serve_saturate` answers over ten thousand, but a 12-second closed loop
/// meets only a handful of scheduler stalls and its p99 moved by 22 % from
/// run to run, its p95 by at most 7 %.
const STEADY_TAIL_Q: f64 = 0.90;
const SATURATE_TAIL_Q: f64 = 0.95;
/// Outstanding jobs per connection of the warm-up load.
const WARM_UP_WINDOW: usize = 4;
/// Job ids of warm-up loads start here, clear of every measured stream.
const WARM_UP_IDS: u64 = 1 << 40;
/// A run gives up after this many failed repetitions in a row.
const MAX_ERRORS: u64 = 3;

/// What the command line fixes for a run.
#[derive(Clone, Debug)]
pub struct Settings {
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    pub traced: bool,
    /// Same instances, repetitions cut to the minimum: numbers not for
    /// claims.
    pub smoke: bool,
    /// Where traces and detailed results go; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl Settings {
    /// Set-ups per end-to-end run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.smoke || self.traced {
            1
        } else {
            3
        }
    }

    fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Seconds of a daemon's warm-up load.
    fn warm_up_s(&self) -> f64 {
        if self.smoke {
            0.03
        } else {
            0.2
        }
    }

    /// Repetitions of a served batch's offline replay.
    fn replay_reps(&self) -> usize {
        if self.smoke {
            3
        } else {
            200
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Load {
    /// Open loop at [`STEADY_RATE_PER_S`], seeded exponential gaps.
    Steady,
    /// Closed loop, [`SATURATE_WINDOW`] outstanding per connection.
    Saturate,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Fresh problem → verify every repetition, fused.
    Full(Instance),
    /// Plan built once in set-up, executed through `Path` every repetition.
    ExecOnly(Instance, Path),
    Serve(Load),
}

fn kind_of(workload: &str) -> Option<Kind> {
    Some(match workload {
        "oneshot_dense" => Kind::Full(DENSE),
        "oneshot_wide" => Kind::Full(WIDE),
        "oneshot_private" => Kind::Full(PRIVATE),
        "sharded_dense" => Kind::ExecOnly(DENSE, Path::Sharded),
        "networked_dense" => Kind::ExecOnly(DENSE, Path::Networked),
        "serve_steady" => Kind::Serve(Load::Steady),
        "serve_saturate" => Kind::Serve(Load::Saturate),
        _ => return None,
    })
}

/// Cores the process may use; shards, workers and connections are pinned at
/// two, so fewer cores would measure time slicing, not the program.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload and returns its report.
///
/// # Errors
/// Returns the reason when the run could not measure anything: an unknown
/// workload, too few cores, a set-up failure, or every repetition failing.
pub fn run_workload(workload: &str, s: &Settings) -> Result<RunReport, String> {
    let kind = kind_of(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    if nproc() < crate::workloads::PARALLELISM {
        return Err(format!(
            "{} core(s) available, the benchmark needs {}",
            nproc(),
            crate::workloads::PARALLELISM
        ));
    }
    if s.seconds.is_nan() || s.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let mut run = Run::new(workload, s);
    match kind {
        Kind::Full(inst) => run.rep_workload(inst, Path::Fused, false)?,
        Kind::ExecOnly(inst, path) => run.rep_workload(inst, path, true)?,
        Kind::Serve(load) => run.serve_workload(load)?,
    }
    run.finish()
}

/// The two tracers of a run: the workload's own pipeline (on the serve
/// workloads: the replayed batch) with the probes, and the serve clients'
/// jobs.
struct Tracers {
    main: Tracer,
    serve: Tracer,
}

struct Run<'s> {
    workload: String,
    s: &'s Settings,
    out: Collector,
    tr: Tracers,
    attempted: u64,
    failed: u64,
    invalid: Option<String>,
    notes: Vec<String>,
}

/// Timings of a measured loop.
#[derive(Default)]
struct LoopTimes {
    total_s: Vec<f64>,
    exec_s: Vec<f64>,
    /// Totals of the repetitions that ran with the tracer switched off, in
    /// a traced run.
    untraced_total_s: Vec<f64>,
}

impl<'s> Run<'s> {
    fn new(workload: &str, s: &'s Settings) -> Self {
        Run {
            workload: workload.to_string(),
            s,
            out: Collector::default(),
            tr: Tracers {
                main: Tracer::new(s.traced),
                serve: Tracer::new(s.traced),
            },
            attempted: 0,
            failed: 0,
            invalid: None,
            notes: Vec::new(),
        }
    }

    fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Repeats `rep` until the time is up and the minimum count is met. In
    /// a traced run every other repetition runs with the tracer off, which
    /// measures what tracing itself costs.
    fn measured_loop(
        &mut self,
        budget_s: f64,
        min: usize,
        mut rep: impl FnMut(&mut Tracer) -> Result<(f64, f64, bool), String>,
    ) -> Result<LoopTimes, String> {
        let mut times = LoopTimes::default();
        let min_untraced = usize::from(self.s.traced && !self.s.smoke);
        let started = Instant::now();
        let mut errors_in_a_row = 0;
        let mut i = 0u64;
        while times.total_s.len() < min
            || times.untraced_total_s.len() < min_untraced
            || started.elapsed().as_secs_f64() < budget_s
        {
            let traced_rep = self.s.traced && i.is_multiple_of(2);
            self.tr.main.set_on(traced_rep);
            self.tr.main.set_op(i);
            i += 1;
            match rep(&mut self.tr.main) {
                Ok((total_s, exec_s, ok)) => {
                    errors_in_a_row = 0;
                    self.tally(ok, || "a repetition's outcome failed its check".to_string());
                    if self.s.traced && !traced_rep {
                        times.untraced_total_s.push(total_s);
                    } else {
                        times.total_s.push(total_s);
                        times.exec_s.push(exec_s);
                    }
                }
                Err(e) => {
                    errors_in_a_row += 1;
                    self.tally(false, || format!("repetition failed: {e}"));
                    if errors_in_a_row >= MAX_ERRORS {
                        return Err(format!("{MAX_ERRORS} repetitions failed in a row: {e}"));
                    }
                }
            }
        }
        self.tr.main.set_on(self.s.traced);
        Ok(times)
    }

    // ------------------------------------------------------- rep workloads

    fn rep_workload(&mut self, inst: Instance, path: Path, exec_only: bool) -> Result<(), String> {
        let s = self.s;
        let graphs: Vec<OnceLock<Graph>> = (0..s.setups()).map(|_| OnceLock::new()).collect();
        let mut setup_s = Vec::new();
        let mut ctx: Option<(Case<'_>, Option<FullRep<'_>>)> = None;
        for slot in &graphs {
            drop(ctx.take()); // the previous set-up's products go outside the timing
            let t = Instant::now();
            let g = slot.get_or_init(|| {
                self.tr
                    .main
                    .time("graph.build", || inst.graph.build(s.seed))
            });
            let case = Case::of(g, inst, s.seed);
            // one untimed repetition of everything the measured loop does
            let mut off = Tracer::new(false);
            let base = if exec_only {
                let base = full_rep(&case, Path::Fused, "pipeline", &mut off)?;
                if !base.ok {
                    return Err("the fused outcome built in set-up does not verify".to_string());
                }
                if !s.smoke {
                    exec_rep(&base, path, &mut off)?;
                }
                Some(base)
            } else {
                if !s.smoke {
                    full_rep(&case, path, "pipeline", &mut off)?;
                }
                None
            };
            setup_s.push(t.elapsed().as_secs_f64());
            ctx = Some((case, base));
        }
        let (case, mut base) = ctx.expect("at least one set-up");
        let g = case.g;
        let rss_after_setup = proc_status_bytes("VmRSS:");

        let budget = if s.traced { s.seconds * 0.5 } else { s.seconds };
        let mut last_full: Option<FullRep<'_>> = None;
        let mut last_extra = ExecExtra::default();
        let times = self.measured_loop(budget, s.min_reps(), |tr| {
            if let Some(base) = &base {
                let rep = exec_rep(base, path, tr)?;
                last_extra = rep.extra;
                Ok((rep.total_s, rep.exec_s, rep.ok))
            } else {
                drop(last_full.take()); // freed between repetitions, not inside one
                let rep = full_rep(&case, path, "pipeline", tr)?;
                let timing = (rep.total_s, rep.exec_s, rep.ok);
                last_full = Some(rep);
                Ok(timing)
            }
        })?;
        let hwm_after_loop = proc_status_bytes("VmHWM:");
        let base = match (base.take(), last_full) {
            (Some(mut base), _) => {
                // the reports the probes describe are the workload's own
                base.extra = last_extra;
                base
            }
            (None, Some(rep)) => rep,
            (None, None) => return Err("no repetition completed".to_string()),
        };
        let k = case.k() as f64;

        if !s.traced {
            let total = self.end_to_end_metrics(&setup_s, &times, &base)?;
            // Derived cells (the contract wants every metric from every
            // workload): an algorithm of the bundle is what the daemon
            // calls a job, a repetition is its batch.
            self.out.set(
                "serve_jobs_per_s",
                k * total.samples as f64 / times.total_s.iter().sum::<f64>(),
            );
            self.out
                .set_summary("serve_p50_ms", total.median * 1e3, total.scaled(1e3));
            self.out.set("serve_tail_ms", total.q3 * 1e3);
            return Ok(());
        }

        self.instance_metrics(g, k, hwm_after_loop.saturating_sub(rss_after_setup));
        self.pipeline_metrics(&times);
        let mut tally = ProbeTally::default();
        let (main, out) = (&mut self.tr.main, &mut self.out);
        match path {
            Path::Fused => probe_oneshot(&self.workload, &case, &base, main, out, &mut tally)?,
            Path::Sharded | Path::Networked => probe_fused(&base, main, &mut tally)?,
        }
        if let (Path::Sharded, Some(report)) = (path, &base.extra.shard) {
            record_shard(report, main, out)?;
        }
        if let Some(report) = &base.extra.net {
            record_net(report, &base.outcome, out);
        }
        record_layers(&base, main, out);
        self.absorb(tally);
        Ok(())
    }

    fn absorb(&mut self, tally: ProbeTally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.notes.extend(tally.notes);
    }

    /// The end-to-end metrics every workload measures the same way; returns
    /// the summary of the repetitions' wall times.
    fn end_to_end_metrics(
        &mut self,
        setup_s: &[f64],
        times: &LoopTimes,
        base: &FullRep<'_>,
    ) -> Result<Summary, String> {
        let total = Summary::of(&times.total_s);
        let out = &mut self.out;
        out.set_summary("setup_s", median(setup_s), Summary::of(setup_s));
        out.set_summary("pipeline_s", total.median, total);
        out.set(
            "sched_rounds_per_s",
            base.outcome.schedule_rounds() as f64 / median(&times.exec_s),
        );
        out.set("quality_ratio", quality_ratio(base)?);
        out.set("peak_rss_mb", proc_status_bytes("VmHWM:") as f64 / 1e6);
        Ok(total)
    }

    /// The graph and memory numbers of a traced run; `grown` is how far the
    /// repetitions pushed the high-water mark past the set-up footprint.
    fn instance_metrics(&mut self, g: &Graph, k: f64, grown: u64) {
        let n = g.node_count() as f64;
        let out = &mut self.out;
        out.set("graph.build_ms", self.tr.main.layer_ms("graph.build"));
        out.set("graph.nodes", n);
        out.set("graph.edges", g.edge_count() as f64);
        out.set("mem.bytes_per_algo_node", grown as f64 / (k * n));
    }

    /// The traced pipeline, what its layer spans leave uncovered, and what
    /// tracing cost.
    fn pipeline_metrics(&mut self, times: &LoopTimes) {
        let tr = &self.tr.main;
        let whole = tr.median_dur_ms("pipeline");
        self.out.set("pipeline.ms", whole);
        self.out.set(
            "pipeline.self_share",
            if whole > 0.0 {
                tr.layer_ms("pipeline") / whole
            } else {
                0.0
            },
        );
        // a smoke run may have no repetition with the tracer off
        let overhead = if times.untraced_total_s.is_empty() {
            0.0
        } else {
            let untraced = median(&times.untraced_total_s);
            (median(&times.total_s) - untraced) / untraced
        };
        self.out.set("trace.overhead_share", overhead);
    }

    // ----------------------------------------------------- serve workloads

    fn serve_workload(&mut self, load: Load) -> Result<(), String> {
        let s = self.s;
        let graphs: Vec<OnceLock<Arc<Graph>>> = (0..s.setups()).map(|_| OnceLock::new()).collect();
        let mut setup_s = Vec::new();
        let mut ctx: Option<(JobStream, Daemon)> = None;
        let mut warm_up_jobs = 0;
        for (i, slot) in graphs.iter().enumerate() {
            if let Some((_, daemon)) = ctx.take() {
                daemon.stop()?; // the previous daemon drains outside the timing
            }
            let t = Instant::now();
            let g = slot.get_or_init(|| {
                Arc::new(
                    self.tr
                        .main
                        .time("graph.build", || SERVE_GRAPH.build(s.seed)),
                )
            });
            let stream = JobStream::new(g, s.seed)?;
            let daemon = Daemon::start(Arc::clone(g), s.seed)?;
            let warm = drive(
                g,
                &daemon.addr,
                &stream,
                &closed_loop(WARM_UP_WINDOW, s.warm_up_s()),
                WARM_UP_IDS + ((i as u64) << 20),
                &mut Tracer::new(false),
            )?;
            if warm.failed > 0 {
                return Err(format!(
                    "{} of {} warm-up jobs failed",
                    warm.failed, warm.sent
                ));
            }
            warm_up_jobs = warm.sent;
            setup_s.push(t.elapsed().as_secs_f64());
            ctx = Some((stream, daemon));
        }
        let (stream, daemon) = ctx.expect("at least one set-up");
        let g: &Graph = last_graph(&graphs);
        let rss_after_setup = proc_status_bytes("VmRSS:");

        let paces = match load {
            Load::Steady => open_loop(STEADY_RATE_PER_S, s.seconds, s.seed),
            Load::Saturate => closed_loop(SATURATE_WINDOW, s.seconds),
        };
        let result = drive(g, &daemon.addr, &stream, &paces, 0, &mut self.tr.serve)?;
        let report = daemon.stop()?;
        self.attempted += result.sent;
        self.failed += result.failed;
        if result.failed > 0 {
            self.notes.push(format!(
                "{} of {} jobs failed ({} refused, {} of {} checked outputs differ from run_alone)",
                result.failed,
                result.sent,
                result.rejected,
                result.output_mismatches,
                result.checked_outputs
            ));
        }
        if result.lag_p99_ms > LAG_LIMIT_MS {
            self.invalid = Some(format!(
                "the load generator ran {:.3} ms late at p99 (limit {LAG_LIMIT_MS} ms)",
                result.lag_p99_ms
            ));
        }

        // One served batch, replayed offline through the calls the daemon
        // makes. It is this workload's pipeline, so it runs on the main
        // tracer and its spans are the layers.
        let case = batch_case(g, &stream, &result);
        let k = case.k() as f64;
        let mut last: Option<FullRep<'_>> = None;
        let times = self.measured_loop(0.0, s.replay_reps(), |tr| {
            drop(last.take());
            let rep = full_rep(&case, Path::Sharded, "pipeline", tr)?;
            let timing = (rep.total_s, rep.exec_s, rep.ok);
            last = Some(rep);
            Ok(timing)
        })?;
        let hwm_after_loop = proc_status_bytes("VmHWM:");
        let base = last.ok_or("no replay completed")?;

        if !s.traced {
            // `pipeline_s`, `sched_rounds_per_s` and `quality_ratio` are the
            // replayed batch's here: derived cells, as are the throughput of
            // the open loop and the median of the closed one.
            self.end_to_end_metrics(&setup_s, &times, &base)?;
            self.out
                .set("serve_jobs_per_s", result.ok as f64 / result.wall_s);
            self.out
                .set_summary("serve_p50_ms", result.latency_ms.median, result.latency_ms);
            let tail_q = match load {
                Load::Steady => STEADY_TAIL_Q,
                Load::Saturate => SATURATE_TAIL_Q,
            };
            self.out.set(
                "serve_tail_ms",
                quantile(&result.latency_samples_ms, tail_q),
            );
            return Ok(());
        }

        self.instance_metrics(g, k, hwm_after_loop.saturating_sub(rss_after_setup));
        self.pipeline_metrics(&times);
        let mut tally = ProbeTally::default();
        let (main, out) = (&mut self.tr.main, &mut self.out);
        probe_fused(&base, main, &mut tally)?;
        let shard = base.extra.shard.as_ref();
        record_shard(shard.ok_or("the replay ran unsharded")?, main, out)?;
        record_layers(&base, main, out);
        self.absorb(tally);
        let main = &self.tr.main;
        let (total_ms, build_ms) = (
            main.median_dur_ms("pipeline"),
            main.layer_ms("problem.build"),
        );
        self.serve_metrics(&result, &report, warm_up_jobs, total_ms, build_ms);
        Ok(())
    }

    /// The serve layer from the client side and `ServeReport`, and the
    /// share of a job's wait that is not its batch's own pipeline, given
    /// the replayed batch's whole and `problem.build` times.
    fn serve_metrics(
        &mut self,
        load: &LoadResult,
        report: &ServeReport,
        warm_up_jobs: u64,
        replay_total_ms: f64,
        instantiate_ms: f64,
    ) {
        let out = &mut self.out;
        out.set("serve.admit_us_p50", load.admit_us_p50);
        out.set("serve.wait_ms_p50", load.wait_ms.median);
        out.set("serve.wait_ms_p99", load.wait_ms_p99);
        out.set("serve.batches", load.batches.round());
        out.set("serve.batch_k_mean", load.batch_k_mean);
        out.set(
            "serve.admitted",
            report.admitted.saturating_sub(warm_up_jobs) as f64,
        );
        out.set("serve.rejected", report.rejected as f64);
        out.set("serve.failed", report.failed as f64);
        out.set("serve.miss_share", load.miss_share);
        out.set("serve.result_bytes_mean", load.result_bytes_mean);
        out.set("loadgen.lag_p99_ms", load.lag_p99_ms);
        out.set("loadgen.sent", load.sent as f64);
        out.set("serve.instantiate_us", instantiate_ms * 1e3);
        out.set("serve.replay_total_us", replay_total_ms * 1e3);
        out.set(
            "serve.queue_share",
            1.0 - replay_total_ms / load.wait_ms.median,
        );
    }

    // -------------------------------------------------------------- finish

    fn finish(mut self) -> Result<RunReport, String> {
        let metrics = if self.s.traced {
            self.out.set(
                "fail_share",
                self.failed as f64 / self.attempted.max(1) as f64,
            );
            self.out.per_layer(&self.workload)?
        } else {
            self.out.end_to_end(&self.workload)?
        };
        let report = RunReport {
            workload: self.workload.clone(),
            seed: self.s.seed,
            seconds: self.s.seconds,
            traced: self.s.traced,
            smoke: self.s.smoke,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            invalid: self.invalid,
            notes: self.notes,
        };
        if let Some(dir) = &self.s.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let stem = format!("{}-seed{}", report.workload, report.seed);
            if report.traced {
                let mut events = Vec::new();
                self.tr
                    .main
                    .chrome_events(1, "pipeline and layer probes", &mut events);
                self.tr.serve.chrome_events(2, "serve clients", &mut events);
                let path = dir.join(format!("trace-{stem}.json"));
                std::fs::write(&path, chrome_trace(&events))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let path = dir.join(format!("run-{stem}-trace{}.json", u8::from(report.traced)));
            let text =
                serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
            std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(report)
    }
}

/// The graph the last set-up built.
fn last_graph(graphs: &[OnceLock<Arc<Graph>>]) -> &Arc<Graph> {
    graphs
        .last()
        .and_then(OnceLock::get)
        .expect("built in set-up")
}

/// One full batch, as the daemon would form it from the head of the stream,
/// under the daemon's own scheduler and seeds. The advertised batch size is
/// used, not the observed one, so the replay's counters repeat for a seed.
fn batch_case<'g>(g: &'g Graph, stream: &JobStream, load: &LoadResult) -> Case<'g> {
    let defaults = das_core::ServeConfig::default();
    Case {
        g,
        source: Source::Jobs(
            (0..u64::from(load.caps.batch_max.max(1)))
                .map(|id| stream.job(id))
                .collect(),
        ),
        sched: Box::new(UniformScheduler::default()),
        tape_seed: load.caps.tape_seed,
        sched_seed: defaults.sched_seed,
    }
}
