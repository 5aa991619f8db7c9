//! Schema checks for the Chrome `trace_events` export: the JSON emitted by
//! [`das_obs::ObsReport::to_chrome_trace`] for real fused and sharded runs
//! must be loadable by Perfetto / `chrome://tracing` — top-level
//! `traceEvents` array, per-event `name`/`ph`/`pid`/`tid`/`ts` fields,
//! metadata tracks naming each pipeline stage and each shard lane.

use das_core::pipeline::{self, PlanFrom, Ran};
use das_core::synthetic::RelayChain;
use das_core::{
    doubling, BlackBoxAlgorithm, DasProblem, DoublingConfig, ExecOptions, UniformScheduler,
};
use das_graph::generators;
use das_obs::{ObsConfig, Stage, Stages, TraceEvent};
use serde_json::Value;
use std::collections::BTreeSet;

/// One observed pipeline run of the uniform scheduler at seed 5.
fn traced(p: &DasProblem<'_>, opts: ExecOptions<'_>) -> Ran {
    let from = PlanFrom::Scheduler {
        scheduler: &UniformScheduler::default(),
        seed: 5,
    };
    pipeline::run(p, from, opts, &mut Stages::default()).unwrap()
}

fn problem(g: &das_graph::Graph, k: usize) -> DasProblem<'_> {
    let algos = (0..k)
        .map(|i| Box::new(RelayChain::new(i as u64, g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    DasProblem::new(g, algos, 17)
}

/// Parses the export and checks every `trace_events` schema requirement,
/// returning the parsed document for run-specific assertions.
fn check_chrome_schema(json: &str) -> Value {
    let doc: Value = serde_json::from_str(json).expect("chrome export is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a real run must emit events");
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a phase");
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "unexpected event phase {ph}"
        );
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        assert!(e.get("pid").and_then(|v| v.as_u64()).is_some());
        assert!(e.get("tid").and_then(|v| v.as_u64()).is_some());
        match ph {
            "M" => {
                // metadata events carry their payload in args.name
                let name = e.get("name").and_then(|v| v.as_str()).unwrap();
                assert!(matches!(name, "process_name" | "thread_name"));
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .is_some());
            }
            "X" => {
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_u64()).is_some());
            }
            "i" => {
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
                assert_eq!(e.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            _ => {
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
            }
        }
    }
    doc
}

/// Names of the Execute-stage (`pid == 2`) thread-name metadata tracks.
fn execute_lane_names(doc: &Value) -> BTreeSet<String> {
    doc.get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("M")
                && e.get("name").and_then(|v| v.as_str()) == Some("thread_name")
                && e.get("pid").and_then(|v| v.as_u64()) == Some(2)
        })
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn fused_run_exports_valid_chrome_trace() {
    let g = generators::path(14);
    let p = problem(&g, 4);
    let opts = ExecOptions::default().with_obs(ObsConfig::full());
    let traced = traced(&p, opts);
    let doc = check_chrome_schema(&traced.report.to_chrome_trace());
    // fused execution runs on exactly one Execute lane
    assert_eq!(
        execute_lane_names(&doc),
        BTreeSet::from(["shard-0".to_string()])
    );
}

#[test]
fn sharded_run_exports_one_track_per_shard() {
    let g = generators::path(14);
    let p = problem(&g, 4);
    let opts = ExecOptions::sharded(3).with_obs(ObsConfig::full());
    let traced = traced(&p, opts);
    let doc = check_chrome_schema(&traced.report.to_chrome_trace());
    assert_eq!(
        execute_lane_names(&doc),
        BTreeSet::from([
            "shard-0".to_string(),
            "shard-1".to_string(),
            "shard-2".to_string()
        ]),
        "each shard gets its own named track"
    );
}

/// The named `u64` argument of a trace event.
fn span_arg(e: &TraceEvent, key: &str) -> u64 {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("span `{}` missing arg `{key}`", e.name))
        .1
}

/// Regression for the doubling timeline's double-count: the *accepted*
/// attempt's `Plan`-track span must cover only the planning charge — its
/// engine rounds land on the `Execute` track when the final plan runs, so
/// a span of `predicted_engine_rounds` made them appear twice. Also pins
/// the unified `delay_span` convention: every attempt's arg equals the
/// full law span recorded in `attempted_ranges`, for both searches.
#[test]
fn doubling_attempt_spans_cover_planning_only_once() {
    let g = generators::path(12);
    let p = problem(&g, 16); // congested: forces a multi-attempt search
    let obs = ObsConfig::full();

    let cfg = DoublingConfig::default();
    let (uni, report) =
        doubling::uniform_with_doubling_configured(&p, &UniformScheduler::default(), &obs, &cfg)
            .unwrap();
    let r = report.expect("recording enabled");
    let spans: Vec<&TraceEvent> = r.events.iter().filter(|e| e.stage == Stage::Plan).collect();
    assert!(uni.attempts > 1, "instance must force the search to double");
    assert_eq!(spans.len(), uni.attempts as usize);
    for (i, e) in spans.iter().enumerate() {
        assert_eq!(
            span_arg(e, "delay_span"),
            uni.attempted_ranges[i],
            "attempt {i}'s delay_span must be the law span actually drawn from"
        );
        assert_eq!(
            span_arg(e, "reused_artifact"),
            u64::from(i > 0),
            "every attempt after the first re-sizes the cached artifact"
        );
    }
    let (rejected, accepted) = spans.split_at(spans.len() - 1);
    assert_eq!(accepted[0].name, "attempt accepted");
    assert_eq!(
        accepted[0].dur, 0,
        "uniform planning is free of pre-computation: the accepted span \
         must not re-plot the engine rounds the Execute track already shows"
    );
    for e in rejected {
        assert_eq!(e.name, "attempt rejected: predicted late");
        assert!(e.dur > 0, "rejected attempts show their charged cost");
    }
    // the report still round-trips through the Chrome exporter
    check_chrome_schema(&r.to_chrome_trace());

    let (prv, report) = doubling::private_with_doubling_configured(
        &p,
        &das_core::PrivateScheduler::default(),
        &obs,
        &cfg,
    )
    .unwrap();
    let r = report.expect("recording enabled");
    let spans: Vec<&TraceEvent> = r.events.iter().filter(|e| e.stage == Stage::Plan).collect();
    assert_eq!(spans.len(), prv.attempts as usize);
    for (i, e) in spans.iter().enumerate() {
        assert_eq!(
            span_arg(e, "delay_span"),
            prv.attempted_ranges[i],
            "private delay_span must use the same full-span convention"
        );
    }
    let accepted = spans.last().unwrap();
    assert_eq!(accepted.name, "attempt accepted");
    assert_eq!(
        accepted.dur,
        prv.outcome.precompute_rounds - prv.wasted_rounds,
        "the accepted private span covers exactly the once-charged pre-computation"
    );
}

#[test]
fn jsonl_export_is_one_valid_object_per_line() {
    let g = generators::path(12);
    let p = problem(&g, 3);
    let opts = ExecOptions::sharded(2).with_obs(ObsConfig::full());
    let traced = traced(&p, opts);
    let jsonl = traced.report.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), traced.report.events.len());
    for line in lines {
        let v: Value = serde_json::from_str(line).expect("each line is standalone JSON");
        assert!(v.get("stage").is_some());
        assert!(v.get("ts").is_some());
    }
}
