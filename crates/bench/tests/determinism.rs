//! Thread-count invariance of the parallel trial harness: same base seed
//! ⇒ byte-identical `ScheduleOutcome`s and aggregate JSON whether the
//! sweep runs on one thread (`RAYON_NUM_THREADS=1`) or the full pool.

use das_bench::{run_trial, workloads, TrialAggregate, TrialRunner, TrialSpec};
use das_core::{Scheduler, UniformScheduler};
use das_graph::generators;
use std::time::Instant;

/// Runs the reference sweep: per-trial `ScheduleOutcome` debug bytes plus
/// the serialized aggregate.
fn sweep(trials: u64) -> (Vec<String>, TrialAggregate) {
    let g = generators::path(60);
    let problem = workloads::segment_relays(&g, 12, 10, 2, 7);
    problem.parameters().expect("workload is model-valid");
    let runner = TrialRunner::new(42, trials);
    let sched = UniformScheduler::default();
    let (outcomes, records) = runner
        .run_trials(|seed| run_trial(&TrialSpec::new(&sched, &problem, seed)))
        .into_iter()
        .map(|t| (format!("{:?}", t.outcome), t.record))
        .unzip();
    let agg = TrialAggregate::from_records("determinism", "uniform", 42, records);
    (outcomes, agg)
}

/// The env-flipping runs live in one test so nothing observes the variable
/// mid-change (tests in one binary share the process environment).
#[test]
fn sweep_is_identical_across_thread_counts() {
    let (outcomes_par, agg_par) = sweep(6);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (outcomes_seq, agg_seq) = sweep(6);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        outcomes_seq, outcomes_par,
        "ScheduleOutcome depends on the thread count"
    );
    assert_eq!(
        agg_seq.to_json(),
        agg_par.to_json(),
        "aggregate JSON depends on the thread count"
    );
    assert_eq!(agg_par.trials, 6);
}

#[test]
#[ignore = "wall-clock scaling check; run explicitly with --ignored"]
fn parallel_sweep_scales_with_cores() {
    fn heavy_sweep() {
        let g = generators::path(120);
        let problem = workloads::segment_relays(&g, 40, 16, 2, 7);
        problem.parameters().expect("workload is model-valid");
        TrialRunner::new(42, 16).run_trials(|seed| {
            UniformScheduler::default()
                .with_seed(seed)
                .run(&problem)
                .expect("workload is model-valid")
                .schedule_rounds()
        });
    }

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let t = Instant::now();
    heavy_sweep();
    let sequential = t.elapsed();
    std::env::remove_var("RAYON_NUM_THREADS");
    let t = Instant::now();
    heavy_sweep();
    let parallel = t.elapsed();
    eprintln!("16-seed sweep: sequential {sequential:?}, parallel {parallel:?}");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 {
        assert!(
            parallel < sequential,
            "parallel sweep not faster on {cores} cores: {parallel:?} vs {sequential:?}"
        );
    }
}
