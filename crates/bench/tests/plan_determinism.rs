//! Determinism of the staged pipeline: planning is a pure function of
//! `(problem, sched_seed)` down to the serialized bytes, and executing a
//! fixed plan is independent of the rayon thread count.
//!
//! Lives in its own test binary because it flips `RAYON_NUM_THREADS`,
//! which must not race with other tests in the same process.

use das_bench::workloads;
use das_core::{execute, ExecOptions, PrivateScheduler, Scheduler, UniformScheduler};
use das_graph::generators;

/// Planning twice with the same `(problem, sched_seed)` yields
/// byte-identical `SchedulePlan` JSON — for a stateless scheduler and for
/// one with a pre-computation stage.
#[test]
fn planning_twice_is_byte_identical() {
    let g = generators::path(40);
    let problem = workloads::segment_relays(&g, 10, 12, 2, 7);
    for scheduler in [
        Box::new(UniformScheduler::default()) as Box<dyn Scheduler>,
        Box::new(PrivateScheduler::default()),
    ] {
        let a = scheduler.plan(&problem, 17).expect("model-valid");
        let b = scheduler.plan(&problem, 17).expect("model-valid");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{} plan is not a pure function of (problem, sched_seed)",
            scheduler.name()
        );
    }
}

/// Executing a fixed plan gives the identical outcome on one rayon thread
/// and on the full pool. The env-flipping runs live in one test so nothing
/// observes the variable mid-change.
#[test]
fn execute_is_identical_across_thread_counts() {
    let g = generators::grid(6, 6);
    let problem = workloads::mixed_bundle(&g, 9, 6, 3);
    let plan = UniformScheduler::default()
        .plan(&problem, 5)
        .expect("model-valid");

    let fused = || execute(&problem, &plan, ExecOptions::default()).map(|done| done.outcome);
    let parallel = fused();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let sequential = fused();
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "executing a fixed plan depends on the thread count"
    );
}
