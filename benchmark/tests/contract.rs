//! `BENCHMARK.json` against the metric catalogue and the driver's limits.

use das_benchmark::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use das_benchmark::workloads::WORKLOADS;

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_committed_file_is_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `benchmark/run.sh --benchmark-json > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn the_catalogue_is_inside_the_drivers_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(is_name(n), "{n}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    for (name, why) in WORKLOADS {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: {} characters",
            why.len()
        );
    }
    for m in &END_TO_END {
        assert!(
            is_unit(m.unit) && ["lower", "higher"].contains(&m.better),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert!(
            is_unit(m.unit) && ["lower", "higher"].contains(&m.better),
            "{}",
            m.name
        );
    }
    // every metric is reported on workloads that exist, and on at least one
    let scopes = END_TO_END
        .iter()
        .map(|m| (m.name, m.on))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.on)));
    for (name, on) in scopes {
        assert!(!on.is_empty(), "{name} is reported nowhere");
        for w in on {
            assert!(
                WORKLOADS.iter().any(|(n, _)| n == w),
                "{name}: no workload {w}"
            );
        }
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
