//! `--smoke` runs of every workload: the same seed gives the same ✱
//! counters and `quality_ratio` bit for bit, another seed gives another job
//! stream and other counters. Smoke numbers are not for claims; only the
//! exact ones are looked at here.

use das_benchmark::client::JobStream;
use das_benchmark::metrics::{RunReport, PER_LAYER};
use das_benchmark::run::{run_workload, Settings};
use das_benchmark::workloads::{SERVE_GRAPH, WORKLOADS};

fn smoke(workload: &str, seed: u64, traced: bool) -> RunReport {
    let settings = Settings {
        seed,
        seconds: 0.5,
        traced,
        smoke: true,
        out_dir: None,
    };
    let report = run_workload(workload, &settings).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        report.correct(),
        "{workload} seed {seed}: {:?}",
        report.notes
    );
    report
}

/// Every exact number of one pass over all workloads, as bits.
fn exact_numbers(seed: u64) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (w, _) in WORKLOADS {
        let traced = smoke(w, seed, true);
        for m in PER_LAYER.iter().filter(|m| m.exact && m.reported_on(w)) {
            let v = traced
                .get(m.name)
                .unwrap_or_else(|| panic!("{w}: {} missing", m.name));
            out.push((format!("{w}/{}", m.name), v.to_bits()));
        }
        assert_eq!(traced.get("fail_share"), Some(0.0), "{w}");
        assert_eq!(traced.get("verify.mismatches"), Some(0.0), "{w}");
        assert_eq!(traced.get("exec.late"), Some(0.0), "{w}");
        for m in &traced.metrics {
            let listed = PER_LAYER
                .iter()
                .any(|p| p.name == m.name && p.reported_on(w));
            assert_eq!(m.reported, listed, "{w}: {}", m.name);
            assert!(
                m.reported || m.value == 0.0,
                "{w}: {} is not measured here",
                m.name
            );
        }
        let untraced = smoke(w, seed, false);
        let q = untraced.get("quality_ratio").expect("quality_ratio");
        assert!(q > 0.0 && q.is_finite());
        out.push((format!("{w}/quality_ratio"), q.to_bits()));
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{w}: an end-to-end metric is 0"
        );
    }
    out
}

#[test]
fn exact_numbers_repeat_for_a_seed_and_move_with_it() {
    let (first, again, other) = std::thread::scope(|scope| {
        let a = scope.spawn(|| exact_numbers(1));
        let b = scope.spawn(|| exact_numbers(1));
        let c = scope.spawn(|| exact_numbers(2));
        (a.join().unwrap(), b.join().unwrap(), c.join().unwrap())
    });
    for ((name, x), (_, y)) in first.iter().zip(&again) {
        assert_eq!(x, y, "{name} differs between two runs with one seed");
    }
    let moved = first
        .iter()
        .zip(&other)
        .filter(|((_, x), (_, y))| x != y)
        .count();
    assert!(moved > 0, "no exact number depends on the seed");

    let g = SERVE_GRAPH.build(1);
    let jobs = |seed| {
        let s = JobStream::new(&g, seed).unwrap();
        (0..32).map(|id| s.job(id)).collect::<Vec<_>>()
    };
    assert_eq!(jobs(1), jobs(1));
    assert_ne!(jobs(1), jobs(2), "the job stream depends on the seed");
}
