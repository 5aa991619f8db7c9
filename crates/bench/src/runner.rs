//! Parallel deterministic trial harness.
//!
//! Experiments in this repo are sweeps over independent seeds: run a
//! scheduler many times, look at the distribution of schedule lengths and
//! the empirical success rate (the measured stand-in for the paper's
//! "with high probability"). [`TrialRunner`] fans those independent trials
//! across threads with rayon while keeping the results **bit-identical
//! regardless of thread count**: each trial's seed is derived from the base
//! seed and the trial index by a SplitMix64 step, never from any shared
//! mutable state, and results are collected in trial order.
//!
//! ```
//! use das_bench::TrialRunner;
//!
//! let runner = TrialRunner::new(42, 8);
//! let lengths = runner.run_trials(|seed| seed % 10);
//! assert_eq!(lengths.len(), 8);
//! // same base seed => same trial seeds, on any number of threads
//! assert_eq!(lengths, TrialRunner::new(42, 8).run_trials(|seed| seed % 10));
//! ```

use das_core::SearchFacts;
use das_obs::ObsSummary;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Fans independent trials of an experiment across threads, with per-trial
/// seeds derived deterministically from one base seed.
#[derive(Clone, Copy, Debug)]
pub struct TrialRunner {
    base_seed: u64,
    trials: u64,
}

impl TrialRunner {
    /// Creates a runner for `trials` trials derived from `base_seed`.
    pub fn new(base_seed: u64, trials: u64) -> Self {
        TrialRunner { base_seed, trials }
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The seed of trial `trial`: a SplitMix64 step over the base seed and
    /// the trial index. Depends only on `(base_seed, trial)`, so a sweep is
    /// reproducible trial-by-trial no matter how trials are distributed
    /// over threads.
    pub fn trial_seed(&self, trial: u64) -> u64 {
        splitmix64(self.base_seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs `run` once per trial index `0..trials` across the rayon pool,
    /// returning the results in trial order.
    pub fn run_indexed<T, F>(&self, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Send + Sync,
    {
        (0..self.trials).into_par_iter().map(run).collect()
    }

    /// Runs `run` once per trial seed across the rayon pool, returning the
    /// results in trial order.
    pub fn run_trials<T, F>(&self, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Send + Sync,
    {
        self.run_indexed(|t| run(self.trial_seed(t)))
    }

    /// Runs one [`TrialRecord`]-producing closure per trial and aggregates
    /// the distribution into a [`TrialAggregate`] for `experiment`.
    pub fn aggregate<F>(&self, experiment: &str, scheduler: &str, run: F) -> TrialAggregate
    where
        F: Fn(u64) -> TrialRecord + Send + Sync,
    {
        let records = self.run_trials(run);
        TrialAggregate::from_records(experiment, scheduler, self.base_seed, records)
    }
}

/// SplitMix64 (same step the engine uses for per-node seeds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of one trial, as recorded into the aggregate artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The trial's derived seed.
    pub seed: u64,
    /// Schedule length in engine rounds.
    pub schedule: u64,
    /// The plan's predicted schedule length (the last step boundary),
    /// when the trial went through the staged plan/execute pipeline —
    /// emitted into the artifact so the plan-vs-reality gap is tracked.
    pub predicted: Option<u64>,
    /// Pre-computation rounds.
    pub precompute: u64,
    /// Late (dropped) messages.
    pub late: u64,
    /// Fraction of (algorithm, node) outputs matching the alone runs.
    pub correctness: f64,
    /// Whether the execution hit the engine-round cap and was cut short
    /// (the schedule never drained; nothing was verified).
    #[serde(default)]
    pub truncated: bool,
    /// Per-shard timing and cross-shard traffic, when the trial ran on the
    /// sharded executor. Partition-dependent measurements only — the
    /// outcome itself is byte-identical to the sequential path.
    #[serde(default)]
    pub shard: Option<ShardSummary>,
    /// Per-trial observability summary, when the trial ran with recording
    /// enabled. All fields are deterministic integers on the big-round
    /// clock, so artifacts stay byte-identical across thread counts.
    /// Absent in older artifacts and in unobserved trials.
    #[serde(default)]
    pub obs: Option<ObsSummary>,
    /// What the doubling search did, when the trial's plan came from one.
    /// Deterministic counters only (the search's wall clocks stay out of
    /// the artifact). Absent in older artifacts and in non-doubling
    /// trials.
    #[serde(default)]
    pub doubling: Option<SearchFacts>,
    /// Coordinator-side traffic totals, when the trial ran over the
    /// networked coordinator/worker path. Absent in older artifacts and in
    /// in-process trials.
    #[serde(default)]
    pub net: Option<NetSummary>,
}

impl TrialRecord {
    /// Whether the trial succeeded: it drained within the round budget and
    /// nothing arrived late (the empirical version of the paper's w.h.p.
    /// event).
    pub fn success(&self) -> bool {
        self.late == 0 && !self.truncated
    }
}

/// Partition-dependent measurements of one sharded execution, recorded
/// into the artifact alongside the (partition-independent) outcome fields.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Number of shard workers (after clamping to the node count).
    pub shards: usize,
    /// Messages that crossed a shard boundary (exchanged at big-round
    /// boundaries through the per-(shard, shard) outboxes).
    pub cross_shard_messages: u64,
    /// Per-shard wall-clock (step + drain phases), milliseconds.
    pub per_shard_ms: Vec<f64>,
    /// Per-shard delivered-message counts.
    pub per_shard_delivered: Vec<u64>,
}

impl ShardSummary {
    /// Condenses an executor [`das_core::ShardReport`] into the artifact
    /// form.
    pub fn of(report: &das_core::ShardReport) -> Self {
        ShardSummary {
            shards: report.shards,
            cross_shard_messages: report.cross_shard_messages,
            per_shard_ms: report
                .per_shard
                .iter()
                .map(|s| (s.step_nanos + s.drain_nanos) as f64 / 1e6)
                .collect(),
            per_shard_delivered: report.per_shard.iter().map(|s| s.delivered).collect(),
        }
    }
}

/// Traffic-side measurements of one networked (coordinator/worker)
/// execution, recorded into the artifact alongside the partition-dependent
/// [`ShardSummary`]. Counted on the coordinator's side of each worker
/// link, frame headers included.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetSummary {
    /// Number of worker connections (after clamping to the node count).
    pub workers: usize,
    /// Frames the coordinator sent, summed over all workers.
    pub frames_sent: u64,
    /// Frames the coordinator received, summed over all workers.
    pub frames_received: u64,
    /// Bytes the coordinator sent, summed over all workers.
    pub bytes_sent: u64,
    /// Bytes the coordinator received, summed over all workers.
    pub bytes_received: u64,
    /// Per-worker bytes sent by the coordinator, in shard order.
    pub per_worker_bytes_sent: Vec<u64>,
    /// Per-worker bytes received by the coordinator, in shard order.
    pub per_worker_bytes_received: Vec<u64>,
}

impl NetSummary {
    /// Condenses a networked run's per-worker traffic
    /// ([`das_core::Executed::traffic`]) into the artifact form.
    pub fn of(traffic: &[das_core::LinkTraffic]) -> Self {
        NetSummary {
            workers: traffic.len(),
            frames_sent: traffic.iter().map(|t| t.frames_sent).sum(),
            frames_received: traffic.iter().map(|t| t.frames_received).sum(),
            bytes_sent: traffic.iter().map(|t| t.bytes_sent).sum(),
            bytes_received: traffic.iter().map(|t| t.bytes_received).sum(),
            per_worker_bytes_sent: traffic.iter().map(|t| t.bytes_sent).collect(),
            per_worker_bytes_received: traffic.iter().map(|t| t.bytes_received).collect(),
        }
    }
}

/// Summary of one integer-valued metric across trials. A quantile `q` is
/// the sorted value at the rounded linear index `round((len − 1) · q)` —
/// an observed value, never interpolated; of two middle values the median
/// is the upper.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl SummaryStats {
    /// Summarizes `values` (empty input gives all-zero stats).
    pub fn of(values: &[u64]) -> Self {
        if values.is_empty() {
            return SummaryStats {
                mean: 0.0,
                p50: 0,
                p95: 0,
                max: 0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        SummaryStats {
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50: rank(0.5),
            p95: rank(0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// The aggregate of a trial sweep — the JSON artifact experiments emit as
/// `BENCH_<experiment>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialAggregate {
    /// Experiment name (e.g. `e01_uniform`).
    pub experiment: String,
    /// Scheduler under test.
    pub scheduler: String,
    /// Base seed the trial seeds were derived from.
    pub base_seed: u64,
    /// Number of trials.
    pub trials: u64,
    /// Schedule-length distribution.
    pub schedule: SummaryStats,
    /// Predicted-schedule-length distribution, when every record carries
    /// a plan prediction.
    pub predicted_schedule: Option<SummaryStats>,
    /// Late-message distribution.
    pub late: SummaryStats,
    /// Fraction of trials that succeeded ([`TrialRecord::success`]):
    /// drained within the round budget (not truncated) with zero late
    /// messages.
    pub success_rate: f64,
    /// Mean output-correctness fraction across trials.
    pub mean_correctness: f64,
    /// Every trial, in trial order.
    pub records: Vec<TrialRecord>,
}

impl TrialAggregate {
    /// Aggregates `records` (in trial order) into the artifact struct.
    pub fn from_records(
        experiment: &str,
        scheduler: &str,
        base_seed: u64,
        records: Vec<TrialRecord>,
    ) -> Self {
        let schedules: Vec<u64> = records.iter().map(|r| r.schedule).collect();
        let lates: Vec<u64> = records.iter().map(|r| r.late).collect();
        let predictions: Option<Vec<u64>> = if records.is_empty() {
            None
        } else {
            records.iter().map(|r| r.predicted).collect()
        };
        let n = records.len().max(1) as f64;
        let successes = records.iter().filter(|r| r.success()).count();
        TrialAggregate {
            experiment: experiment.to_string(),
            scheduler: scheduler.to_string(),
            base_seed,
            trials: records.len() as u64,
            schedule: SummaryStats::of(&schedules),
            predicted_schedule: predictions.map(|p| SummaryStats::of(&p)),
            late: SummaryStats::of(&lates),
            success_rate: successes as f64 / n,
            mean_correctness: records.iter().map(|r| r.correctness).sum::<f64>() / n,
            records,
        }
    }

    /// The artifact's JSON form: pretty-printed with keys in declaration
    /// order, so equal aggregates serialize byte-identically.
    ///
    /// # Panics
    /// Panics if a trial recorded a non-finite correctness value.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("aggregate is JSON-representable")
    }

    /// Writes the artifact as `BENCH_<experiment>.json` under `dir`
    /// (non-filename characters in the experiment name become `_`) and
    /// returns the path.
    ///
    /// # Errors
    /// Propagates I/O errors from the write.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let safe: String = self
            .experiment
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("BENCH_{safe}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::PlanCacheStats;

    fn record(seed: u64, schedule: u64, late: u64) -> TrialRecord {
        TrialRecord {
            seed,
            schedule,
            predicted: Some(schedule),
            precompute: 0,
            late,
            correctness: 1.0,
            truncated: false,
            shard: None,
            obs: None,
            doubling: None,
            net: None,
        }
    }

    #[test]
    fn trial_seeds_depend_only_on_base_and_index() {
        let a = TrialRunner::new(7, 16);
        let b = TrialRunner::new(7, 16);
        let seeds_a: Vec<u64> = (0..16).map(|t| a.trial_seed(t)).collect();
        let seeds_b: Vec<u64> = (0..16).map(|t| b.trial_seed(t)).collect();
        assert_eq!(seeds_a, seeds_b);
        let mut dedup = seeds_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16, "trial seeds collide");
        assert_ne!(seeds_a[0], TrialRunner::new(8, 16).trial_seed(0));
    }

    #[test]
    fn run_trials_returns_in_trial_order() {
        let runner = TrialRunner::new(3, 64);
        let expected: Vec<u64> = (0..64).map(|t| runner.trial_seed(t)).collect();
        assert_eq!(runner.run_trials(|seed| seed), expected);
    }

    #[test]
    fn summary_stats_of_known_values() {
        let s = SummaryStats::of(&[4, 1, 3, 2]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 3, "index round(1.5) = 2 of the 4 sorted values");
        assert_eq!(s.p95, 4);
        assert_eq!(s.max, 4);
        assert_eq!(SummaryStats::of(&[]).max, 0);
    }

    #[test]
    fn aggregate_counts_successes() {
        let records = vec![record(1, 10, 0), record(2, 20, 3), record(3, 30, 0)];
        let agg = TrialAggregate::from_records("test", "uniform", 9, records);
        assert_eq!(agg.trials, 3);
        assert_eq!(agg.success_rate, 2.0 / 3.0);
        assert_eq!(agg.schedule.max, 30);
        assert_eq!(agg.late.max, 3);
        assert_eq!(agg.mean_correctness, 1.0);
    }

    #[test]
    fn truncated_trials_do_not_count_as_successes() {
        let mut cut = record(2, 10, 0);
        cut.truncated = true;
        assert!(!cut.success());
        let agg = TrialAggregate::from_records("t", "s", 0, vec![record(1, 10, 0), cut]);
        assert_eq!(agg.success_rate, 0.5);
    }

    #[test]
    fn pre_shard_artifacts_still_deserialize() {
        // records written before the truncated/shard fields existed
        let json = r#"{"seed":1,"schedule":10,"predicted":null,"precompute":0,"late":0,"correctness":1.0}"#;
        let r: TrialRecord = serde_json::from_str(json).unwrap();
        assert!(!r.truncated);
        assert!(r.shard.is_none());
        assert!(r.obs.is_none());
        assert!(r.doubling.is_none());
        assert!(r.success());

        // `bench_smoke 1 42`'s swept artifact as the last commit that wrote
        // a per-record `sweep` marker wrote it: the key is ignored
        let json = r#"{"experiment":"e01_smoke_swept","scheduler":"uniform","base_seed":42,
            "trials":1,
            "schedule":{"mean":240.0,"p50":240,"p95":240,"max":240},
            "predicted_schedule":{"mean":240.0,"p50":240,"p95":240,"max":240},
            "late":{"mean":0.0,"p50":0,"p95":0,"max":0},
            "success_rate":1.0,"mean_correctness":1.0,
            "records":[{"seed":13679457532755275413,"schedule":240,"predicted":240,
                "precompute":0,"late":0,"correctness":1.0,"truncated":false,"shard":null,
                "obs":null,"doubling":null,"sweep":{"shared":true},"net":null}]}"#;
        let agg: TrialAggregate = serde_json::from_str(json).unwrap();
        let rec = record(13679457532755275413, 240, 0);
        let want = TrialAggregate::from_records("e01_smoke_swept", "uniform", 42, vec![rec]);
        assert_eq!(agg, want);
    }

    #[test]
    fn doubling_summary_roundtrips_in_records() {
        let mut rec = record(1, 10, 0);
        rec.doubling = Some(SearchFacts {
            attempts: 3,
            rejected_by_precheck: 2,
            final_guess: 24,
            wasted_rounds: 90,
            attempted_ranges: vec![2, 5, 11],
            fell_back: false,
            cache: PlanCacheStats {
                artifact_builds: 1,
                replan_cache_hits: 2,
            },
        });
        let agg = TrialAggregate::from_records("t", "s", 0, vec![rec]);
        let back: TrialAggregate = serde_json::from_str(&agg.to_json()).unwrap();
        assert_eq!(back, agg);
        assert_eq!(
            back.records[0]
                .doubling
                .as_ref()
                .map(|d| d.cache.replan_cache_hits),
            Some(2)
        );
    }

    #[test]
    fn pre_obs_artifacts_still_deserialize() {
        // a record written before the obs field existed, including the
        // shard block — exactly the shape of older sharded BENCH artifacts
        let json = r#"{"seed":3,"schedule":12,"predicted":12,"precompute":0,"late":0,
            "correctness":1.0,"truncated":false,
            "shard":{"shards":2,"cross_shard_messages":4,
                     "per_shard_ms":[0.5,0.5],"per_shard_delivered":[3,3]}}"#;
        let r: TrialRecord = serde_json::from_str(json).unwrap();
        assert!(r.obs.is_none());
        assert_eq!(r.shard.as_ref().map(|s| s.shards), Some(2));
        assert!(r.success());
    }

    #[test]
    fn obs_summary_roundtrips_in_records() {
        let mut rec = record(1, 10, 0);
        rec.obs = Some(ObsSummary {
            messages: 40,
            peak_round: 2,
            ..ObsSummary::default()
        });
        let agg = TrialAggregate::from_records("t", "s", 0, vec![rec]);
        let json = agg.to_json();
        let back: TrialAggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, agg);
        assert_eq!(back.records[0].obs.as_ref().map(|o| o.messages), Some(40));
    }

    #[test]
    fn json_roundtrips_and_is_stable() {
        let agg = TrialAggregate::from_records(
            "e01_uniform",
            "uniform",
            42,
            vec![record(11, 17, 0), record(12, 19, 1)],
        );
        let json = agg.to_json();
        let back: TrialAggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, agg);
        assert_eq!(back.to_json(), json, "serialization is canonical");
    }

    #[test]
    fn write_sanitizes_the_experiment_name() {
        let agg = TrialAggregate::from_records("e/0 1", "s", 0, vec![]);
        let dir = std::env::temp_dir().join("das_bench_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = agg.write(&dir).unwrap();
        assert!(path.ends_with("BENCH_e_0_1.json"), "{}", path.display());
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, agg.to_json());
        std::fs::remove_file(path).unwrap();
    }
}
