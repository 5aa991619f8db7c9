//! Shared live-run state for the operator console.
//!
//! A [`LiveHub`] sits between the executing threads and the HTTP server
//! thread (see [`crate::http::ObsServer`]). Executor probes publish one
//! snapshot per lane per **big-round boundary** — the only points where
//! cross-shard state is exchanged anyway — so serving the hub can never
//! perturb a run: nothing is ever read back out of the hub by the engine,
//! and publication happens on the deterministic big-round clock, not on
//! wall-clock timers. See DESIGN.md, "the snapshot-at-barrier invariant".
//!
//! All state lives behind a single [`Mutex`]; each publication is one
//! short lock. Readers (the HTTP endpoints) render JSON / Prometheus text
//! under the same lock, which is fine at human polling rates.

use crate::metrics::MetricsRegistry;
use crate::report::ObsReport;
use serde::Value;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Cap on buffered live trace-event lines; older lines fall off the front
/// (clients learn the dropped range from the `since`/`next` cursors).
pub const LIVE_EVENT_RING: usize = 4096;

/// One per-lane delta published at a big-round boundary.
///
/// Everything here was already collected by the probe for its own report;
/// the delta is a cheap copy of the scratch that `end_big_round` is about
/// to fold away.
#[derive(Clone, Debug, Default)]
pub struct BigRoundDelta {
    /// Machine steps executed this big round.
    pub steps: u64,
    /// Messages delivered on time this big round.
    pub delivered: u64,
    /// Late (dropped) messages this big round.
    pub late: u64,
    /// Messages handed to other shards this big round.
    pub cross_sent: u64,
    /// `(arc, injected)` pairs for arcs touched this big round.
    pub edges: Vec<(usize, u64)>,
    /// First engine round covered by `rounds`.
    pub round_base: usize,
    /// Per-engine-round delivery counts newly finalized this big round.
    pub rounds: Vec<u64>,
    /// Newly recorded trace events, pre-rendered as JSONL lines.
    pub events: Vec<String>,
}

/// One doubling-search attempt, as shown by `GET /doubling`.
#[derive(Clone, Debug)]
pub struct DoublingAttempt {
    /// The congestion guess driving this attempt.
    pub guess: u64,
    /// Rounds the attempted plan would take.
    pub plan_rounds: u64,
    /// Whether the prediction accepted the guess.
    pub accepted: bool,
}

/// Per-link traffic totals for a networked run, as shown by `GET /net`.
///
/// Mirrors `das-core`'s `LinkTraffic` without depending on it (the
/// dependency points the other way).
#[derive(Clone, Debug, Default)]
pub struct LinkLive {
    /// Worker shard index on the far end of the link.
    pub shard: usize,
    /// Frames sent to the worker.
    pub frames_sent: u64,
    /// Payload bytes sent to the worker.
    pub bytes_sent: u64,
    /// Frames received from the worker.
    pub frames_received: u64,
    /// Payload bytes received from the worker.
    pub bytes_received: u64,
}

/// Job-admission counters for a long-lived `dasched serve` daemon, as
/// shown by `GET /jobs`. Published as one authoritative snapshot per
/// change (the [`LiveHub::publish_links`] idiom): the server owns the
/// counts, the hub only mirrors them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobsLive {
    /// Jobs admitted but not yet executed.
    pub queued: u64,
    /// Jobs that passed admission (cumulative).
    pub admitted: u64,
    /// Jobs refused at admission (cumulative).
    pub rejected: u64,
    /// Jobs executed and verified clean (cumulative).
    pub completed: u64,
    /// Jobs executed but failed verify / budget cross-check / execution
    /// (cumulative).
    pub failed: u64,
    /// Batches executed (cumulative).
    pub batches: u64,
    /// Why the most recent failed batch failed to plan or execute (the
    /// error's display form); empty while no batch has failed.
    pub last_error: String,
    /// Jobs in the most recent batch (0 before the first).
    pub last_batch_k: u64,
    /// Where the most recent batch spent its time.
    pub last_batch: BatchStages,
    /// Per-stage sums over every batch so far.
    pub stage_totals: BatchStages,
}

/// Wall-clock stages of one serve batch, in microseconds, in pipeline
/// order: the oldest job's admission → dispatch, then each step of the
/// batch up to the last RESULT sent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStages {
    /// The oldest job's wait from admission to dispatch.
    pub queue_wait_us: u64,
    /// Building the jobs' algorithms and the problem.
    pub instantiate_us: u64,
    /// The jobs' alone runs.
    pub references_us: u64,
    /// Planning the batch.
    pub plan_us: u64,
    /// Executing the plan on the pool.
    pub execute_us: u64,
    /// Verifying outputs against the alone runs.
    pub verify_us: u64,
    /// Encoding and sending every RESULT.
    pub answer_us: u64,
}

impl BatchStages {
    /// Adds `other` stage by stage.
    pub fn accumulate(&mut self, other: &BatchStages) {
        self.queue_wait_us += other.queue_wait_us;
        self.instantiate_us += other.instantiate_us;
        self.references_us += other.references_us;
        self.plan_us += other.plan_us;
        self.execute_us += other.execute_us;
        self.verify_us += other.verify_us;
        self.answer_us += other.answer_us;
    }

    /// `(name, µs)` per stage, in pipeline order, as `/jobs` renders them.
    fn fields(&self) -> impl Iterator<Item = (String, Value)> {
        [
            ("queue_wait_us", self.queue_wait_us),
            ("instantiate_us", self.instantiate_us),
            ("references_us", self.references_us),
            ("plan_us", self.plan_us),
            ("execute_us", self.execute_us),
            ("verify_us", self.verify_us),
            ("answer_us", self.answer_us),
        ]
        .into_iter()
        .map(|(name, us)| (name.into(), Value::U64(us)))
    }
}

/// Cumulative per-lane counters, keyed by lane (shard) index.
#[derive(Clone, Debug, Default)]
struct LaneTotals {
    steps: u64,
    delivered: u64,
    late: u64,
    cross_sent: u64,
    big_round: u64,
}

/// Everything the console can show, guarded by the hub's one mutex.
#[derive(Debug, Default)]
struct LiveState {
    phase: String,
    engine: String,
    shards: usize,
    big_round: u64,
    done: bool,
    lanes: Vec<Option<LaneTotals>>,
    per_edge: Vec<u64>,
    per_round: Vec<u64>,
    metrics: MetricsRegistry,
    doubling_attempts: Vec<DoublingAttempt>,
    doubling_accepted: u64,
    doubling_rejected: u64,
    doubling_fell_back: bool,
    links: Vec<LinkLive>,
    jobs: JobsLive,
    events: VecDeque<String>,
    /// Sequence number of `events.front()`.
    events_base: u64,
    /// Total events ever published (the next cursor).
    events_total: u64,
}

/// The shared live-run state: executor probes write, the HTTP server
/// reads. Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct LiveHub {
    state: Mutex<LiveState>,
}

impl LiveHub {
    /// A fresh hub in the `idle` phase.
    pub fn new() -> Self {
        let hub = LiveHub::default();
        hub.state.lock().expect("hub lock").phase = "idle".to_string();
        hub
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LiveState> {
        // A poisoned hub only ever means a *reader* panicked; publishing
        // must keep working, so recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the run phase shown by `/status` (`idle`, `plan`, `execute`,
    /// `verify`, `done`).
    pub fn set_phase(&self, phase: &str) {
        let mut s = self.lock();
        s.phase = phase.to_string();
        if phase == "done" {
            s.done = true;
        }
    }

    /// Records which engine and how many shards the run uses.
    pub fn set_run_info(&self, engine: &str, shards: usize) {
        let mut s = self.lock();
        s.engine = engine.to_string();
        s.shards = shards;
        if s.lanes.len() < shards {
            s.lanes.resize(shards, None);
        }
    }

    /// Publishes one lane's big-round delta (called by the executor probe
    /// at the big-round boundary, nowhere else).
    pub fn publish_big_round(&self, lane: u32, big_round: u64, delta: &BigRoundDelta) {
        let mut s = self.lock();
        s.big_round = s.big_round.max(big_round + 1);
        let li = lane as usize;
        if s.lanes.len() <= li {
            s.lanes.resize(li + 1, None);
        }
        let totals = s.lanes[li].get_or_insert_with(LaneTotals::default);
        totals.steps += delta.steps;
        totals.delivered += delta.delivered;
        totals.late += delta.late;
        totals.cross_sent += delta.cross_sent;
        totals.big_round = totals.big_round.max(big_round + 1);
        for &(arc, by) in &delta.edges {
            if s.per_edge.len() <= arc {
                s.per_edge.resize(arc + 1, 0);
            }
            s.per_edge[arc] += by;
        }
        for (i, &by) in delta.rounds.iter().enumerate() {
            let r = delta.round_base + i;
            if s.per_round.len() <= r {
                s.per_round.resize(r + 1, 0);
            }
            s.per_round[r] += by;
        }
        for line in &delta.events {
            if s.events.len() == LIVE_EVENT_RING {
                s.events.pop_front();
                s.events_base += 1;
            }
            s.events.push_back(line.clone());
            s.events_total += 1;
        }
    }

    /// Folds a finished probe's metrics into the live registry.
    pub fn merge_metrics(&self, metrics: &MetricsRegistry) {
        self.lock().metrics.merge(metrics);
    }

    /// Publishes one doubling-search attempt.
    pub fn publish_doubling_attempt(&self, guess: u64, plan_rounds: u64, accepted: bool) {
        let mut s = self.lock();
        if accepted {
            s.doubling_accepted += 1;
        } else {
            s.doubling_rejected += 1;
        }
        s.doubling_attempts.push(DoublingAttempt {
            guess,
            plan_rounds,
            accepted,
        });
    }

    /// Marks that the doubling search exhausted its guesses and fell back
    /// to the sequential plan.
    pub fn publish_doubling_fallback(&self) {
        self.lock().doubling_fell_back = true;
    }

    /// Publishes a networked worker's cumulative activity totals (read off
    /// the `ACTIVITY` frame by the coordinator).
    pub fn publish_worker_totals(
        &self,
        lane: u32,
        big_round: u64,
        steps: u64,
        delivered: u64,
        late: u64,
        cross_sent: u64,
    ) {
        let mut s = self.lock();
        s.big_round = s.big_round.max(big_round + 1);
        let li = lane as usize;
        if s.lanes.len() <= li {
            s.lanes.resize(li + 1, None);
        }
        s.lanes[li] = Some(LaneTotals {
            steps,
            delivered,
            late,
            cross_sent,
            big_round: big_round + 1,
        });
    }

    /// Replaces the per-link traffic snapshot (coordinator-side).
    pub fn publish_links(&self, links: Vec<LinkLive>) {
        self.lock().links = links;
    }

    /// Replaces the job-admission snapshot (serve daemon side).
    pub fn publish_jobs(&self, jobs: JobsLive) {
        self.lock().jobs = jobs;
    }

    /// Publishes the final merged report: the authoritative metrics and
    /// profile replace the incrementally accumulated ones, and the phase
    /// flips to `done`.
    pub fn publish_final(&self, report: &ObsReport) {
        let mut s = self.lock();
        s.metrics = report.metrics.clone();
        if !report.profile.per_edge.is_empty() {
            s.per_edge = report.profile.per_edge.clone();
        }
        if !report.profile.per_round.is_empty() {
            s.per_round = report.profile.per_round.clone();
        }
        for load in &report.per_shard {
            let li = load.lane as usize;
            if s.lanes.len() <= li {
                s.lanes.resize(li + 1, None);
            }
            let big_round = s.lanes[li].as_ref().map_or(0, |t| t.big_round);
            s.lanes[li] = Some(LaneTotals {
                steps: load.steps,
                delivered: load.delivered,
                late: load.late,
                cross_sent: load.cross_sent,
                big_round,
            });
        }
        s.phase = "done".to_string();
        s.done = true;
    }

    // ------------------------------------------------------------ readers

    /// `GET /status` body.
    pub fn render_status(&self) -> String {
        let s = self.lock();
        let doc = Value::Object(vec![
            ("phase".into(), Value::Str(s.phase.clone())),
            ("engine".into(), Value::Str(s.engine.clone())),
            ("shards".into(), Value::U64(s.shards as u64)),
            ("big_round".into(), Value::U64(s.big_round)),
            ("done".into(), Value::Bool(s.done)),
            ("events_total".into(), Value::U64(s.events_total)),
        ]);
        serde_json::to_string(&doc).expect("status is finite")
    }

    /// `GET /profile` body: per-shard totals plus the heaviest edges and
    /// the per-round load (bounded to the trailing `LIVE_EVENT_RING`
    /// rounds so the response stays small on long runs).
    pub fn render_profile(&self) -> String {
        let s = self.lock();
        let shards: Vec<Value> = s
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
            .map(|(i, t)| {
                Value::Object(vec![
                    ("shard".into(), Value::U64(i as u64)),
                    ("steps".into(), Value::U64(t.steps)),
                    ("delivered".into(), Value::U64(t.delivered)),
                    ("late".into(), Value::U64(t.late)),
                    ("cross_sent".into(), Value::U64(t.cross_sent)),
                    ("big_round".into(), Value::U64(t.big_round)),
                ])
            })
            .collect();
        let mut top: Vec<(usize, u64)> = s
            .per_edge
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(i, &v)| (i, v))
            .collect();
        top.sort_by_key(|&(i, v)| (std::cmp::Reverse(v), i));
        top.truncate(64);
        let top_edges: Vec<Value> = top
            .into_iter()
            .map(|(arc, load)| {
                Value::Object(vec![
                    ("arc".into(), Value::U64(arc as u64)),
                    ("load".into(), Value::U64(load)),
                ])
            })
            .collect();
        let tail_base = s.per_round.len().saturating_sub(LIVE_EVENT_RING);
        let per_round: Vec<Value> = s.per_round[tail_base..]
            .iter()
            .map(|&v| Value::U64(v))
            .collect();
        let doc = Value::Object(vec![
            ("shards".into(), Value::Array(shards)),
            ("top_edges".into(), Value::Array(top_edges)),
            ("per_round_base".into(), Value::U64(tail_base as u64)),
            ("per_round".into(), Value::Array(per_round)),
            (
                "total_load".into(),
                Value::U64(s.per_round.iter().sum::<u64>()),
            ),
        ]);
        serde_json::to_string(&doc).expect("profile is finite")
    }

    /// `GET /metrics` body (JSON form): counters plus histogram summaries.
    pub fn render_metrics_json(&self) -> String {
        let s = self.lock();
        let counters: Vec<(String, Value)> = s
            .metrics
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::U64(v)))
            .collect();
        let histograms: Vec<(String, Value)> = s
            .metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(h.total)),
                        ("sum".into(), Value::U64(h.sum)),
                        ("max".into(), Value::U64(h.max)),
                        ("p50".into(), Value::U64(h.quantile(0.5))),
                        ("p95".into(), Value::U64(h.quantile(0.95))),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("histograms".into(), Value::Object(histograms)),
        ]);
        serde_json::to_string(&doc).expect("metrics are finite")
    }

    /// `GET /metrics?format=prometheus` body.
    pub fn render_metrics_prometheus(&self) -> String {
        self.lock().metrics.to_prometheus()
    }

    /// `GET /doubling` body.
    pub fn render_doubling(&self) -> String {
        let s = self.lock();
        let attempts: Vec<Value> = s
            .doubling_attempts
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("guess".into(), Value::U64(a.guess)),
                    ("plan_rounds".into(), Value::U64(a.plan_rounds)),
                    ("accepted".into(), Value::Bool(a.accepted)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("attempts".into(), Value::Array(attempts)),
            ("accepted".into(), Value::U64(s.doubling_accepted)),
            ("rejected_precheck".into(), Value::U64(s.doubling_rejected)),
            ("fell_back".into(), Value::Bool(s.doubling_fell_back)),
        ]);
        serde_json::to_string(&doc).expect("doubling log is finite")
    }

    /// `GET /net` body: per-link coordinator↔worker traffic.
    pub fn render_net(&self) -> String {
        let s = self.lock();
        let links: Vec<Value> = s
            .links
            .iter()
            .map(|l| {
                Value::Object(vec![
                    ("shard".into(), Value::U64(l.shard as u64)),
                    ("frames_sent".into(), Value::U64(l.frames_sent)),
                    ("bytes_sent".into(), Value::U64(l.bytes_sent)),
                    ("frames_received".into(), Value::U64(l.frames_received)),
                    ("bytes_received".into(), Value::U64(l.bytes_received)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("links".into(), Value::Array(links))]);
        serde_json::to_string(&doc).expect("net view is finite")
    }

    /// `GET /jobs` body: the serve daemon's admission counters, the last
    /// batch's stage row and the cumulative stage sums.
    pub fn render_jobs(&self) -> String {
        let s = self.lock();
        let last_batch = std::iter::once(("k".into(), Value::U64(s.jobs.last_batch_k)))
            .chain(s.jobs.last_batch.fields())
            .collect();
        let doc = Value::Object(vec![
            ("queued".into(), Value::U64(s.jobs.queued)),
            ("admitted".into(), Value::U64(s.jobs.admitted)),
            ("rejected".into(), Value::U64(s.jobs.rejected)),
            ("completed".into(), Value::U64(s.jobs.completed)),
            ("failed".into(), Value::U64(s.jobs.failed)),
            ("batches".into(), Value::U64(s.jobs.batches)),
            ("last_error".into(), Value::Str(s.jobs.last_error.clone())),
            ("last_batch".into(), Value::Object(last_batch)),
            (
                "stage_totals".into(),
                Value::Object(s.jobs.stage_totals.fields().collect()),
            ),
        ]);
        serde_json::to_string(&doc).expect("jobs view is finite")
    }

    /// `GET /events?since=N` body: the buffered JSONL tail starting at
    /// sequence `since`, and the cursor to pass as the next `since`. A
    /// `since` beyond the newest sequence yields an empty body (never a
    /// clamped replay).
    pub fn render_events_since(&self, since: u64) -> (String, u64) {
        let s = self.lock();
        let start = since.max(s.events_base);
        // checked, not `as usize`: a since near u64::MAX must skip
        // everything on 32-bit targets too, not truncate into a replay
        let skip = usize::try_from(start - s.events_base).unwrap_or(usize::MAX);
        let mut body = String::new();
        for line in s.events.iter().skip(skip) {
            body.push_str(line);
            body.push('\n');
        }
        (body, s.events_total)
    }

    /// Convenience around [`crate::ShardLoad`]-bearing reports for tests.
    pub fn shard_count(&self) -> usize {
        self.lock().shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LoadProfile;
    use crate::report::ShardLoad;

    #[test]
    fn status_reflects_phase_and_round() {
        let hub = LiveHub::new();
        hub.set_run_info("batched", 3);
        hub.set_phase("execute");
        hub.publish_big_round(
            1,
            4,
            &BigRoundDelta {
                steps: 2,
                delivered: 3,
                ..BigRoundDelta::default()
            },
        );
        let v: Value = serde_json::from_str(&hub.render_status()).unwrap();
        assert_eq!(v.get("phase").and_then(Value::as_str), Some("execute"));
        assert_eq!(v.get("engine").and_then(Value::as_str), Some("batched"));
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("big_round").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn profile_accumulates_edges_and_rounds() {
        let hub = LiveHub::new();
        hub.publish_big_round(
            0,
            0,
            &BigRoundDelta {
                delivered: 2,
                edges: vec![(3, 2)],
                round_base: 0,
                rounds: vec![1, 1],
                ..BigRoundDelta::default()
            },
        );
        hub.publish_big_round(
            0,
            1,
            &BigRoundDelta {
                delivered: 1,
                edges: vec![(3, 1), (1, 4)],
                round_base: 2,
                rounds: vec![1],
                ..BigRoundDelta::default()
            },
        );
        let v: Value = serde_json::from_str(&hub.render_profile()).unwrap();
        let top = v.get("top_edges").unwrap().as_array().unwrap();
        // arc 1 carries 4, arc 3 carries 3.
        assert_eq!(top[0].get("arc").and_then(Value::as_u64), Some(1));
        assert_eq!(top[0].get("load").and_then(Value::as_u64), Some(4));
        assert_eq!(top[1].get("arc").and_then(Value::as_u64), Some(3));
        assert_eq!(top[1].get("load").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("total_load").and_then(Value::as_u64), Some(3));
        let shards = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("delivered").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn events_ring_drops_oldest_and_reports_cursor() {
        let hub = LiveHub::new();
        let lines: Vec<String> = (0..LIVE_EVENT_RING + 10)
            .map(|i| format!("{{\"i\":{i}}}"))
            .collect();
        hub.publish_big_round(
            0,
            0,
            &BigRoundDelta {
                events: lines,
                ..BigRoundDelta::default()
            },
        );
        let (body, next) = hub.render_events_since(0);
        assert_eq!(next, (LIVE_EVENT_RING + 10) as u64);
        assert_eq!(body.lines().count(), LIVE_EVENT_RING);
        assert!(body.starts_with("{\"i\":10}"));
        let (tail, _) = hub.render_events_since(next - 2);
        assert_eq!(tail.lines().count(), 2);
        let (empty, _) = hub.render_events_since(next);
        assert!(empty.is_empty());
    }

    #[test]
    fn doubling_log_renders_attempts() {
        let hub = LiveHub::new();
        hub.publish_doubling_attempt(4, 100, false);
        hub.publish_doubling_attempt(8, 60, true);
        hub.publish_doubling_fallback();
        let v: Value = serde_json::from_str(&hub.render_doubling()).unwrap();
        assert_eq!(v.get("accepted").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("rejected_precheck").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("fell_back"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempts").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn final_report_overwrites_with_authoritative_totals() {
        let hub = LiveHub::new();
        hub.publish_big_round(
            0,
            0,
            &BigRoundDelta {
                delivered: 1,
                edges: vec![(0, 1)],
                ..BigRoundDelta::default()
            },
        );
        let mut report = ObsReport::new();
        report.metrics.inc("exec.delivered", 9);
        report.profile = LoadProfile::from_parts(vec![4, 5], vec![9]);
        report.per_shard.push(ShardLoad {
            lane: 0,
            steps: 3,
            delivered: 9,
            late: 0,
            cross_sent: 0,
        });
        hub.publish_final(&report);
        let v: Value = serde_json::from_str(&hub.render_status()).unwrap();
        assert_eq!(v.get("phase").and_then(Value::as_str), Some("done"));
        let m: Value = serde_json::from_str(&hub.render_metrics_json()).unwrap();
        assert_eq!(
            m.get("counters")
                .unwrap()
                .get("exec.delivered")
                .and_then(Value::as_u64),
            Some(9)
        );
        let p: Value = serde_json::from_str(&hub.render_profile()).unwrap();
        assert_eq!(p.get("total_load").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn worker_totals_are_cumulative_overwrites() {
        let hub = LiveHub::new();
        hub.publish_worker_totals(2, 0, 5, 4, 0, 1);
        hub.publish_worker_totals(2, 1, 9, 8, 1, 2);
        let v: Value = serde_json::from_str(&hub.render_profile()).unwrap();
        let shards = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("shard").and_then(Value::as_u64), Some(2));
        assert_eq!(shards[0].get("steps").and_then(Value::as_u64), Some(9));
        assert_eq!(shards[0].get("late").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn jobs_snapshot_renders() {
        let hub = LiveHub::new();
        hub.publish_jobs(JobsLive {
            queued: 2,
            admitted: 10,
            rejected: 3,
            completed: 7,
            failed: 1,
            batches: 4,
            last_error: "execution failed: boom".to_string(),
            last_batch_k: 3,
            last_batch: BatchStages {
                queue_wait_us: 40,
                instantiate_us: 5,
                references_us: 100,
                plan_us: 60,
                execute_us: 300,
                verify_us: 20,
                answer_us: 9,
            },
            stage_totals: BatchStages {
                queue_wait_us: 1_000,
                execute_us: 1_200,
                ..BatchStages::default()
            },
        });
        let v: Value = serde_json::from_str(&hub.render_jobs()).unwrap();
        assert_eq!(v.get("queued").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("admitted").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("rejected").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("completed").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("batches").and_then(Value::as_u64), Some(4));
        assert_eq!(
            v.get("last_error").and_then(Value::as_str),
            Some("execution failed: boom")
        );
        // the last batch's row: k first, then one µs field per stage in
        // pipeline order
        let row = v.get("last_batch").unwrap();
        let Value::Object(fields) = row else {
            panic!("last_batch is an object: {row:?}")
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "k",
                "queue_wait_us",
                "instantiate_us",
                "references_us",
                "plan_us",
                "execute_us",
                "verify_us",
                "answer_us"
            ]
        );
        assert_eq!(row.get("k").and_then(Value::as_u64), Some(3));
        assert_eq!(row.get("execute_us").and_then(Value::as_u64), Some(300));
        assert_eq!(row.get("answer_us").and_then(Value::as_u64), Some(9));
        let totals = v.get("stage_totals").unwrap();
        assert_eq!(
            totals.get("queue_wait_us").and_then(Value::as_u64),
            Some(1_000)
        );
        assert_eq!(totals.get("verify_us").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn stage_sums_add_stage_by_stage() {
        let one = BatchStages {
            queue_wait_us: 1,
            instantiate_us: 2,
            references_us: 3,
            plan_us: 4,
            execute_us: 5,
            verify_us: 6,
            answer_us: 7,
        };
        let mut sum = BatchStages::default();
        sum.accumulate(&one);
        sum.accumulate(&one);
        assert_eq!(
            sum,
            BatchStages {
                queue_wait_us: 2,
                instantiate_us: 4,
                references_us: 6,
                plan_us: 8,
                execute_us: 10,
                verify_us: 12,
                answer_us: 14,
            }
        );
    }

    #[test]
    fn events_since_beyond_newest_is_empty_even_at_u64_max() {
        let hub = LiveHub::new();
        hub.publish_big_round(
            0,
            0,
            &BigRoundDelta {
                events: vec!["{\"i\":0}".to_string()],
                ..BigRoundDelta::default()
            },
        );
        let (body, next) = hub.render_events_since(u64::MAX);
        assert!(body.is_empty());
        assert_eq!(next, 1);
    }

    #[test]
    fn net_links_render() {
        let hub = LiveHub::new();
        hub.publish_links(vec![LinkLive {
            shard: 1,
            frames_sent: 10,
            bytes_sent: 300,
            frames_received: 9,
            bytes_received: 250,
        }]);
        let v: Value = serde_json::from_str(&hub.render_net()).unwrap();
        let links = v.get("links").unwrap().as_array().unwrap();
        assert_eq!(
            links[0].get("bytes_sent").and_then(Value::as_u64),
            Some(300)
        );
    }
}
