//! The executor-side recording probe.

use crate::config::{ObsConfig, DEFAULT_MAX_EVENTS};
use crate::event::{Stage, TraceEvent};
use crate::live::{BigRoundDelta, LiveHub};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::profile::LoadProfile;
use crate::report::{ObsReport, ShardLoad};
use std::sync::Arc;

/// Incremental recorder threaded through an executor run (one per shard in
/// the sharded executor).
///
/// Every hook is self-guarded: when recording is disabled each call is a
/// single predictable branch, so the executor needs no `if obs` wrappers
/// and the disabled path stays byte-identical to the uninstrumented one.
/// Nothing recorded here feeds back into execution.
#[derive(Debug)]
pub struct ExecObs {
    on: bool,
    full: bool,
    wall: bool,
    lane: u32,
    phase_len: u64,
    profile: LoadProfile,
    congestion: Histogram,
    queue_depth: Histogram,
    inbox_depth: Histogram,
    steps: u64,
    delivered: u64,
    late: u64,
    cross_sent: u64,
    invalid: u64,
    barrier_wait_ns: u64,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    // Per-big-round scratch, flushed by `end_big_round`.
    phase_inject: Vec<u64>,
    touched: Vec<usize>,
    br_steps: u64,
    br_delivered: u64,
    br_late: u64,
    br_cross: u64,
    // Live publication (write-only; never read back into execution).
    live: Option<Arc<LiveHub>>,
    published_rounds: usize,
    published_events: usize,
}

impl ExecObs {
    /// A probe that records nothing; all hooks are no-ops.
    pub fn disabled() -> Self {
        ExecObs {
            on: false,
            full: false,
            wall: false,
            lane: 0,
            phase_len: 1,
            profile: LoadProfile::new(),
            congestion: Histogram::default(),
            queue_depth: Histogram::default(),
            inbox_depth: Histogram::default(),
            steps: 0,
            delivered: 0,
            late: 0,
            cross_sent: 0,
            invalid: 0,
            barrier_wait_ns: 0,
            events: Vec::new(),
            events_dropped: 0,
            phase_inject: Vec::new(),
            touched: Vec::new(),
            br_steps: 0,
            br_delivered: 0,
            br_late: 0,
            br_cross: 0,
            live: None,
            published_rounds: 0,
            published_events: 0,
        }
    }

    /// A probe for one executor lane (`lane` = shard index, 0 when fused),
    /// recording at the level `config` asks for.
    pub fn new(config: &ObsConfig, lane: u32) -> Self {
        let mut p = ExecObs::disabled();
        if config.enabled() {
            p.on = true;
            p.full = config.events_enabled();
            p.wall = config.wall_clock;
            p.lane = lane;
        }
        p
    }

    /// Attaches a live hub: from now on `end_big_round` publishes this
    /// lane's deltas into it. Publication is write-only and happens only
    /// at big-round boundaries, so attaching a hub can never perturb the
    /// run. A `None` hub (or a disabled probe) leaves publication off.
    pub fn attach_live(&mut self, hub: Option<Arc<LiveHub>>) {
        if self.on {
            self.live = hub;
        }
    }

    /// Whether this probe records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether the caller should sample wall clocks for this probe (the
    /// nondeterministic side channel; never part of deterministic output).
    #[inline]
    pub fn wall_enabled(&self) -> bool {
        self.on && self.wall
    }

    /// Sizes per-arc scratch and records the phase length used to place
    /// big-round spans on the engine-round clock.
    pub fn init(&mut self, arcs: usize, phase_len: u64) {
        if !self.on {
            return;
        }
        self.phase_len = phase_len.max(1);
        self.phase_inject = vec![0; arcs];
        self.profile.per_edge = vec![0; arcs];
    }

    /// A machine stepped with `inbox_len` queued messages.
    #[inline]
    pub fn on_step(&mut self, inbox_len: usize) {
        if !self.on {
            return;
        }
        self.steps += 1;
        self.br_steps += 1;
        self.inbox_depth.record(inbox_len as u64);
    }

    /// A message was injected onto `arc`, leaving `queue_len` flights
    /// queued there.
    #[inline]
    pub fn on_inject(&mut self, arc: usize, queue_len: usize) {
        if !self.on {
            return;
        }
        self.profile.add_edge(arc, 1);
        self.queue_depth.record(queue_len as u64);
        if arc < self.phase_inject.len() {
            if self.phase_inject[arc] == 0 {
                self.touched.push(arc);
            }
            self.phase_inject[arc] += 1;
        }
    }

    /// A message was handed to another shard's outbox.
    #[inline]
    pub fn on_cross_send(&mut self) {
        if !self.on {
            return;
        }
        self.cross_sent += 1;
        self.br_cross += 1;
    }

    /// A message reached the head of its arc queue in `engine_round`;
    /// `late` means the consumer had already stepped past it.
    #[inline]
    pub fn on_deliver(&mut self, engine_round: u64, late: bool) {
        if !self.on {
            return;
        }
        // checked, not `as usize`: the engine-round cap keeps this small,
        // but a 32-bit target must fail loudly rather than truncate the
        // index and credit the wrong round
        let round = usize::try_from(engine_round).expect("engine round fits usize");
        self.profile.add_round(round, 1);
        if late {
            self.late += 1;
            self.br_late += 1;
        } else {
            self.delivered += 1;
            self.br_delivered += 1;
        }
    }

    /// A machine emitted a message the model forbids (non-neighbor or
    /// oversized); the executor drops it.
    #[inline]
    pub fn on_invalid_send(&mut self) {
        if !self.on {
            return;
        }
        self.invalid += 1;
    }

    /// Wall-clock nanoseconds spent waiting on a shard barrier (side
    /// channel; only sampled when [`ExecObs::wall_enabled`]).
    #[inline]
    pub fn on_barrier_wait_ns(&mut self, ns: u64) {
        if !self.on {
            return;
        }
        self.barrier_wait_ns += ns;
    }

    /// Big round `b` finished: fold this round's per-arc injections into
    /// the congestion histogram and (in full mode) emit its span.
    pub fn end_big_round(&mut self, b: u64) {
        if !self.on {
            return;
        }
        // Capture this round's per-edge injections before the fold below
        // zeroes the scratch; published (write-only) after the round's
        // events are recorded.
        let live_edges: Vec<(usize, u64)> = if self.live.is_some() {
            self.touched
                .iter()
                .map(|&arc| (arc, self.phase_inject[arc]))
                .collect()
        } else {
            Vec::new()
        };
        for &arc in &self.touched {
            self.congestion.record(self.phase_inject[arc]);
            self.phase_inject[arc] = 0;
        }
        let active = self.br_steps + self.br_delivered + self.br_late + self.br_cross > 0
            || !self.touched.is_empty();
        self.touched.clear();
        if self.full && active {
            self.push_event(
                TraceEvent::span(
                    Stage::Execute,
                    self.lane,
                    format!("big-round {b}"),
                    b * self.phase_len,
                    self.phase_len,
                )
                .arg("steps", self.br_steps)
                .arg("delivered", self.br_delivered)
                .arg("late", self.br_late)
                .arg("cross_shard", self.br_cross),
            );
            self.push_event(
                TraceEvent::counter(Stage::Execute, self.lane, "messages", b * self.phase_len)
                    .arg("delivered", self.br_delivered)
                    .arg("late", self.br_late),
            );
        }
        if let Some(hub) = &self.live {
            let delta = BigRoundDelta {
                steps: self.br_steps,
                delivered: self.br_delivered,
                late: self.br_late,
                cross_sent: self.br_cross,
                edges: live_edges,
                round_base: self.published_rounds,
                rounds: self.profile.per_round[self.published_rounds..].to_vec(),
                events: self.events[self.published_events..]
                    .iter()
                    .map(|e| serde_json::to_string(e).expect("event values are finite"))
                    .collect(),
            };
            hub.publish_big_round(self.lane, b, &delta);
            self.published_rounds = self.profile.per_round.len();
            self.published_events = self.events.len();
        }
        self.br_steps = 0;
        self.br_delivered = 0;
        self.br_late = 0;
        self.br_cross = 0;
    }

    fn push_event(&mut self, e: TraceEvent) {
        if self.events.len() < DEFAULT_MAX_EVENTS {
            self.events.push(e);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Consumes the probe into a report; `None` when recording was off.
    pub fn finish(self) -> Option<ObsReport> {
        if !self.on {
            return None;
        }
        let mut metrics = MetricsRegistry::new();
        metrics.inc("exec.steps", self.steps);
        metrics.inc("exec.delivered", self.delivered);
        metrics.inc("exec.late_messages", self.late);
        metrics.inc("exec.cross_shard_sent", self.cross_sent);
        metrics.inc("exec.invalid_sends", self.invalid);
        metrics.inc("exec.events_dropped", self.events_dropped);
        if self.wall {
            metrics.inc("wall.barrier_wait_ns", self.barrier_wait_ns);
        }
        metrics.put_histogram("exec.arc_congestion_per_phase", self.congestion);
        metrics.put_histogram("exec.queue_depth", self.queue_depth);
        metrics.put_histogram("exec.inbox_depth", self.inbox_depth);
        if let Some(hub) = &self.live {
            hub.merge_metrics(&metrics);
        }
        Some(ObsReport {
            metrics,
            profile: self.profile,
            per_shard: vec![ShardLoad {
                lane: self.lane,
                steps: self.steps,
                delivered: self.delivered,
                late: self.late,
                cross_sent: self.cross_sent,
            }],
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = ExecObs::disabled();
        p.init(4, 10);
        p.on_step(3);
        p.on_inject(0, 1);
        p.on_deliver(5, false);
        p.end_big_round(0);
        assert!(!p.enabled());
        assert!(p.finish().is_none());
    }

    #[test]
    fn full_probe_records_metrics_profile_and_events() {
        let mut p = ExecObs::new(&ObsConfig::full(), 2);
        p.init(3, 10);
        // big round 0: two steps, three injections on two arcs, one late.
        p.on_step(0);
        p.on_step(2);
        p.on_inject(1, 1);
        p.on_inject(1, 2);
        p.on_inject(2, 1);
        p.on_cross_send();
        p.on_deliver(7, false);
        p.on_deliver(8, true);
        p.end_big_round(0);
        // big round 1: idle — no span emitted.
        p.end_big_round(1);
        let r = p.finish().unwrap();
        assert_eq!(r.metrics.counter("exec.steps"), 2);
        assert_eq!(r.metrics.counter("exec.delivered"), 1);
        assert_eq!(r.metrics.counter("exec.late_messages"), 1);
        assert_eq!(r.metrics.counter("exec.cross_shard_sent"), 1);
        assert_eq!(r.metrics.counter("wall.barrier_wait_ns"), 0);
        assert!(!r.metrics.counters.contains_key("wall.barrier_wait_ns"));
        let cong = r
            .metrics
            .histogram("exec.arc_congestion_per_phase")
            .unwrap();
        assert_eq!(cong.total, 2); // arcs 1 and 2 touched this phase
        assert_eq!(cong.max, 2);
        assert_eq!(r.profile.per_edge, vec![0, 2, 1]);
        assert_eq!(r.profile.per_round[7], 1);
        assert_eq!(r.profile.per_round[8], 1);
        // one span + one counter for the active big round only.
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].name, "big-round 0");
        assert_eq!(r.events[0].ts, 0);
        assert_eq!(r.events[0].dur, 10);
        assert_eq!(r.events[0].lane, 2);
    }

    #[test]
    fn metrics_mode_skips_events() {
        let mut p = ExecObs::new(&ObsConfig::metrics(), 0);
        p.init(1, 5);
        p.on_step(0);
        p.on_inject(0, 1);
        p.on_deliver(1, false);
        p.end_big_round(0);
        let r = p.finish().unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.metrics.counter("exec.delivered"), 1);
    }

    #[test]
    fn attached_hub_sees_big_round_deltas_and_final_metrics() {
        use serde::Value;
        let hub = Arc::new(LiveHub::new());
        let mut p = ExecObs::new(&ObsConfig::full(), 1);
        p.attach_live(Some(Arc::clone(&hub)));
        p.init(3, 10);
        p.on_step(0);
        p.on_inject(2, 1);
        p.on_deliver(0, false);
        p.end_big_round(0);
        // The hub already saw big round 0 while the run is "in flight".
        let v: Value = serde_json::from_str(&hub.render_profile()).unwrap();
        let shards = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards[0].get("shard").and_then(Value::as_u64), Some(1));
        assert_eq!(shards[0].get("delivered").and_then(Value::as_u64), Some(1));
        let top = v.get("top_edges").unwrap().as_array().unwrap();
        assert_eq!(top[0].get("arc").and_then(Value::as_u64), Some(2));
        let (events, next) = hub.render_events_since(0);
        assert_eq!(next, 2); // span + counter for big round 0
        assert!(events.contains("big-round 0"));
        // finish() folds the probe's metrics into the hub.
        let report = p.finish().unwrap();
        assert_eq!(report.per_shard.len(), 1);
        assert_eq!(report.per_shard[0].lane, 1);
        let m: Value = serde_json::from_str(&hub.render_metrics_json()).unwrap();
        assert_eq!(
            m.get("counters")
                .unwrap()
                .get("exec.delivered")
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut p = ExecObs::new(&ObsConfig::full(), 0);
        p.init(1, 1);
        // an active big-round records two events: a span and a counter
        let big_rounds = DEFAULT_MAX_EVENTS as u64 / 2 + 2;
        for b in 0..big_rounds {
            p.on_step(0);
            p.end_big_round(b);
        }
        let r = p.finish().unwrap();
        assert_eq!(r.events.len(), DEFAULT_MAX_EVENTS);
        assert_eq!(r.metrics.counter("exec.events_dropped"), 4);
    }
}
