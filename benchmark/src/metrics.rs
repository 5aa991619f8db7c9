//! The metric catalogue (`BENCHMARK.json` lists exactly these names) and
//! the report one run of one workload produces.

use crate::stats::Summary;
use serde_json::Value;

/// How long one run measures: `run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 12;

/// End-to-end runs of each workload in a full run (`--all`). The results
/// file holds their median and quartiles, so one busy minute on a shared box
/// cannot decide a comparison; fixed, so any two results files and ledger
/// lines are comparable.
pub const RUNS: usize = 3;

// The workload groups a metric is reported on.
const ALL: &[&str] = &[
    "oneshot_dense",
    "oneshot_wide",
    "oneshot_private",
    "sharded_dense",
    "networked_dense",
    "serve_steady",
    "serve_saturate",
];
/// Whole pipeline, fused executor.
const ONESHOT: &[&str] = &["oneshot_dense", "oneshot_wide", "oneshot_private"];
/// Every workload that times an executor call on a one-shot plan.
const EXECUTORS: &[&str] = &[
    "oneshot_dense",
    "oneshot_wide",
    "oneshot_private",
    "sharded_dense",
    "networked_dense",
];
const SERVE: &[&str] = &["serve_steady", "serve_saturate"];
/// Every workload whose traced repetitions run the whole pipeline (on the
/// serve workloads: one served batch, replayed offline).
const PIPELINES: &[&str] = &[
    "oneshot_dense",
    "oneshot_wide",
    "oneshot_private",
    "serve_steady",
    "serve_saturate",
];
/// Every workload whose own repetitions go through the sharded executor.
const SHARDED: &[&str] = &["sharded_dense", "serve_steady", "serve_saturate"];

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The workloads the metric is reported on. The driver's contract wants
    /// every end-to-end metric from every workload and none of them 0, so
    /// the other workloads print a *derived* cell (a rescaling of a number
    /// they measure anyway); `--compare` and the ledger leave those out.
    pub on: &'static [&'static str],
}

impl EndToEnd {
    pub fn reported_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

/// The eight end-to-end metrics. Failures are the ninth number: `failed` ÷
/// `attempted` in every result line, bound 0.
///
/// The bounds are what ten runs with ten seeds on a shared two-core box can
/// hold: the two-thread workloads drift by up to 16 % for minutes at a time
/// when a neighbour is busy, and resident memory moves in allocator-arena
/// steps. `--compare` prints the spread beside every pair, for claims that
/// need a finer ruler than the bound.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        on: ALL,
    },
    EndToEnd {
        name: "pipeline_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        on: ONESHOT,
    },
    EndToEnd {
        name: "sched_rounds_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        on: EXECUTORS,
    },
    EndToEnd {
        name: "quality_ratio",
        unit: "ratio",
        better: "lower",
        bound: 0.10,
        on: EXECUTORS,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        on: ALL,
    },
    EndToEnd {
        name: "serve_jobs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        on: &["serve_saturate"],
    },
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        on: &["serve_steady"],
    },
    EndToEnd {
        name: "serve_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        on: SERVE,
    },
];

/// A per-layer metric from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that must repeat exactly for a seed (✱ in the README).
    pub exact: bool,
    /// The workloads whose traced run enters the layer and measures this.
    /// The driver's contract wants every per-layer name from every
    /// workload: elsewhere the result line carries 0, "not measured here".
    pub on: &'static [&'static str],
}

impl PerLayer {
    pub fn reported_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

type On = &'static [&'static str];

const fn time(name: &'static str, unit: &'static str, on: On) -> PerLayer {
    measured(name, unit, "lower", on)
}
const fn ratio(name: &'static str, on: On) -> PerLayer {
    measured(name, "ratio", "lower", on)
}
const fn exact(name: &'static str, unit: &'static str, better: &'static str, on: On) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        on,
    }
}
const fn measured(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: On,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        on,
    }
}

/// Every per-layer metric, grouped by the module it measures.
pub const PER_LAYER: [PerLayer; 71] = [
    // das-graph (set-up only)
    time("graph.build_ms", "ms", ALL),
    exact("graph.nodes", "count", "lower", ALL),
    exact("graph.edges", "count", "lower", ALL),
    // algorithm construction (das-algos, das-core::synthetic, serve::instantiate)
    time("problem.build_ms", "ms", PIPELINES),
    // das-core::reference
    time("reference.ms", "ms", PIPELINES),
    exact("reference.runs", "count", "lower", PIPELINES),
    time("reference.us_per_run", "us", PIPELINES),
    // das-core::schedulers + plan::cache
    time("plan.artifact_ms", "ms", PIPELINES),
    time("plan.size_ms", "ms", PIPELINES),
    time("plan.scratch_ms", "ms", ONESHOT),
    exact("plan.units", "count", "lower", PIPELINES),
    exact("plan.json_bytes", "B", "lower", PIPELINES),
    exact("plan.predicted_rounds", "count", "lower", PIPELINES),
    exact("plan.precompute_rounds", "count", "lower", PIPELINES),
    time("plan.size_ns_per_algo_node", "ns", PIPELINES),
    // das-cluster
    time("cluster.carve_layer_ms", "ms", &["oneshot_private"]),
    exact("cluster.layers", "count", "lower", &["oneshot_private"]),
    // plan::analysis
    time("predict.ms", "ms", ONESHOT),
    exact("predict.max_arc_load", "count", "lower", ONESHOT),
    exact("predict.feasible", "count", "higher", ONESHOT),
    // das-core::exec, fused
    time("exec.ms", "ms", ONESHOT),
    exact("exec.steps", "count", "lower", ONESHOT),
    exact("exec.delivered", "count", "lower", ONESHOT),
    exact("exec.late", "count", "lower", ALL),
    exact("exec.big_rounds", "count", "lower", ONESHOT),
    exact("exec.max_arc_queue", "count", "lower", ONESHOT),
    time("exec.ns_per_step", "ns", ONESHOT),
    time("exec.ns_per_msg", "ns", ONESHOT),
    time("exec.row_ms", "ms", ONESHOT),
    time("exec.columnar_ms", "ms", ONESHOT),
    ratio("exec.batched_over_row", ONESHOT),
    // das-core::shard + the sharded loop
    time("shard.ms", "ms", SHARDED),
    time("shard.step_ms_max", "ms", SHARDED),
    time("shard.drain_ms_max", "ms", SHARDED),
    ratio("shard.wait_share", SHARDED),
    exact("shard.cross_msgs", "count", "lower", SHARDED),
    exact("shard.step_imbalance", "ratio", "lower", SHARDED),
    ratio("shard.over_fused", SHARDED),
    // das-core::net
    time("net.ms", "ms", &["networked_dense"]),
    exact("net.frames", "count", "lower", &["networked_dense"]),
    exact("net.bytes", "B", "lower", &["networked_dense"]),
    measured(
        "net.bytes_per_big_round",
        "B",
        "lower",
        &["networked_dense"],
    ),
    ratio("net.over_fused", &["networked_dense"]),
    // das-core::verify
    time("verify.ms", "ms", ALL),
    exact("verify.mismatches", "count", "lower", ALL),
    // das-core::doubling
    time("doubling.ms", "ms", &["oneshot_wide"]),
    exact("doubling.attempts", "count", "lower", &["oneshot_wide"]),
    exact("doubling.cache_hits", "count", "higher", &["oneshot_wide"]),
    exact(
        "doubling.rejected_by_precheck",
        "count",
        "lower",
        &["oneshot_wide"],
    ),
    // das-obs
    ratio("obs.full_over_off", ONESHOT),
    exact("obs.events", "count", "lower", ONESHOT),
    // das-core::serve, from the client side and ServeReport
    time("serve.admit_us_p50", "us", SERVE),
    time("serve.wait_ms_p50", "ms", SERVE),
    time("serve.wait_ms_p99", "ms", SERVE),
    measured("serve.batches", "count", "lower", SERVE),
    measured("serve.batch_k_mean", "count", "higher", SERVE),
    measured("serve.admitted", "count", "higher", SERVE),
    exact("serve.rejected", "count", "lower", SERVE),
    exact("serve.failed", "count", "lower", SERVE),
    ratio("serve.miss_share", SERVE),
    measured("serve.result_bytes_mean", "B", "lower", SERVE),
    time("serve.instantiate_us", "us", SERVE),
    time("serve.replay_total_us", "us", SERVE),
    ratio("serve.queue_share", SERVE),
    // load generator health
    time("loadgen.lag_p99_ms", "ms", SERVE),
    measured("loadgen.sent", "count", "higher", SERVE),
    // memory
    measured("mem.bytes_per_algo_node", "B", "lower", ONESHOT),
    // the traced pipeline itself
    time("pipeline.ms", "ms", ALL),
    ratio("pipeline.self_share", ALL),
    ratio("trace.overhead_share", ALL),
    ratio("fail_share", ALL),
];

/// One number of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and sample count, for timings that have them.
    pub spread: Option<Summary>,
    /// Whether the catalogue reports the metric on this workload. If not,
    /// the number is only there because the result line must carry every
    /// name: a derived cell (end-to-end) or a 0 (per-layer).
    pub reported: bool,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the numbers must not be used although the outputs may be
    /// correct: the load generator could not keep its own schedule.
    pub invalid: Option<String>,
    /// Anything a reader should see beside the numbers (the first error of
    /// a failed repetition).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn metric_json(m: &Metric, detailed: bool) -> (String, Value) {
        let mut fields = vec![
            ("value".to_string(), Value::F64(m.value)),
            ("unit".to_string(), Value::Str(m.unit.to_string())),
        ];
        if let Some(s) = m.spread.filter(|_| detailed) {
            fields.push(("q1".to_string(), Value::F64(s.q1)));
            fields.push(("q3".to_string(), Value::F64(s.q3)));
            fields.push(("samples".to_string(), Value::U64(s.samples as u64)));
        }
        if detailed && !m.reported {
            fields.push(("derived".to_string(), Value::Bool(true)));
        }
        (m.name.to_string(), Value::Object(fields))
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every catalogue name with all its digits.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| Self::metric_json(m, false))
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite metrics")
    }

    /// The detailed form `--all` collects and `--compare` reads: quartiles
    /// and sample counts, derived end-to-end cells marked, per-layer names
    /// the workload does not measure left out.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.reported || !self.traced)
            .map(|m| Self::metric_json(m, true))
            .collect();
        Value::Object(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "invalid".to_string(),
                self.invalid.clone().map_or(Value::Null, Value::Str),
            ),
            (
                "notes".to_string(),
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// Every metric the workload reports, by name with its unit, for a
    /// person; derived end-to-end cells are marked.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!(
            "== {} · seed {} · {} s · {kind}{}",
            self.workload,
            self.seed,
            self.seconds,
            if self.smoke {
                " · SMOKE: not for claims"
            } else {
                ""
            }
        );
        for m in self.metrics.iter().filter(|m| m.reported || !self.traced) {
            let derived = if m.reported { "" } else { " [derived]" };
            match m.spread {
                Some(s) => println!(
                    "  {:<30} {:>16.6} {:<6} (q1 {:.6}, q3 {:.6}, {} samples){derived}",
                    m.name, m.value, m.unit, s.q1, s.q3, s.samples
                ),
                None => println!("  {:<30} {:>16.6} {}{derived}", m.name, m.value, m.unit),
            }
        }
        if !self.traced {
            println!(
                "  {:<30} {:>16.6} share ({} failed of {} attempted)",
                "fail_share",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.failed,
                self.attempted
            );
        }
        if let Some(why) = &self.invalid {
            println!("  INVALID, not slow: {why}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// Collects values by name and lays them out in catalogue order.
#[derive(Default)]
pub struct Collector {
    values: Vec<(&'static str, f64, Option<Summary>)>,
}

impl Collector {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, None));
    }

    pub fn set_summary(&mut self, name: &'static str, value: f64, spread: Summary) {
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, Some(spread)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    fn metric(
        &self,
        name: &'static str,
        unit: &'static str,
        reported: bool,
    ) -> Result<Metric, String> {
        let (_, value, spread) = self
            .values
            .iter()
            .find(|(n, _, _)| *n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        Ok(Metric {
            name,
            unit,
            value: *value,
            spread: *spread,
            reported,
        })
    }

    /// Every end-to-end metric; the ones the catalogue does not report on
    /// `workload` must have been derived all the same.
    pub fn end_to_end(&self, workload: &str) -> Result<Vec<Metric>, String> {
        END_TO_END
            .iter()
            .map(|m| self.metric(m.name, m.unit, m.reported_on(workload)))
            .collect()
    }

    /// Every per-layer metric: measured where the catalogue reports it on
    /// `workload`, 0 elsewhere whatever a probe happened to see.
    pub fn per_layer(&self, workload: &str) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|m| {
                if m.reported_on(workload) {
                    self.metric(m.name, m.unit, true)
                } else {
                    Ok(Metric {
                        name: m.name,
                        unit: m.unit,
                        value: 0.0,
                        spread: None,
                        reported: false,
                    })
                }
            })
            .collect()
    }
}

/// `BENCHMARK.json`, generated from the catalogues so the file and the
/// program cannot drift apart (`tests/contract.rs` compares them).
pub fn benchmark_json() -> String {
    let s = |x: &str| Value::Str(x.to_string());
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let doc = obj(vec![
        (
            "command",
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("finite bounds") + "\n"
}
