//! Failure-injection tests: deliberately under-provisioned schedules must
//! *visibly* fail (late messages, output mismatches) — never silently
//! succeed. This is the contract that makes the measured success rates in
//! the experiments meaningful.

use dasched::core::synthetic::RelayChain;
use dasched::core::{
    verify, BlackBoxAlgorithm, DasProblem, Executor, ExecutorConfig, Scheduler,
    TunedUniformScheduler, UniformScheduler, Unit,
};
use dasched::graph::generators;

fn heavy_problem(g: &dasched::graph::Graph, k: usize) -> DasProblem<'_> {
    let algos = (0..k as u64)
        .map(|i| Box::new(RelayChain::new(i, g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    DasProblem::new(g, algos, 3)
}

#[test]
fn zero_delays_collide_and_are_detected() {
    let g = generators::path(12);
    let p = heavy_problem(&g, 8);
    let units: Vec<Unit> = (0..8).map(|i| Unit::global(i, 0, 12)).collect();
    let seeds: Vec<u64> = (0..8).map(|i| p.algo_seed(i)).collect();
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &seeds,
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    assert!(outcome.stats.late_messages > 0);
    let report = verify::against_references(&p, &outcome).unwrap();
    assert!(!report.all_correct(), "collisions must corrupt outputs");
}

#[test]
fn too_short_phases_degrade_gracefully_and_visibly() {
    let g = generators::path(16);
    let p = heavy_problem(&g, 12);
    // phase factor far below the Chernoff requirement
    let starved = UniformScheduler {
        shared_seed: 1,
        phase_factor: 0.2,
        range_factor: 0.2,
    };
    let outcome = starved.run(&p).unwrap();
    let report = verify::against_references(&p, &outcome).unwrap();
    // must either be outright wrong or have pushed messages late
    assert!(
        outcome.stats.late_messages > 0 || !report.all_correct(),
        "starved schedule cannot look clean"
    );

    // and the properly-provisioned scheduler fixes it
    let good = UniformScheduler::default().run(&p).unwrap();
    let good_report = verify::against_references(&p, &good).unwrap();
    assert!(good_report.all_correct());
}

#[test]
fn correctness_rate_degrades_monotonically_with_starvation() {
    let g = generators::path(16);
    let p = heavy_problem(&g, 10);
    let mut rates = Vec::new();
    for phase_factor in [0.1, 1.0, 3.0] {
        let s = TunedUniformScheduler {
            shared_seed: 5,
            phase_factor,
            range_factor: 1.0,
        };
        let outcome = s.run(&p).unwrap();
        let report = verify::against_references(&p, &outcome).unwrap();
        rates.push(report.correctness_rate());
    }
    assert!(
        rates[0] <= rates[2],
        "more phase budget cannot hurt: {rates:?}"
    );
    assert!(
        rates[2] > 0.9,
        "full budget should be near-perfect: {rates:?}"
    );
}

#[test]
fn late_messages_never_reach_machines() {
    // a schedule that forces lateness must count every dropped message
    let g = generators::path(10);
    let p = heavy_problem(&g, 6);
    let units: Vec<Unit> = (0..6).map(|i| Unit::global(i, 0, 10)).collect();
    let seeds: Vec<u64> = (0..6).map(|i| p.algo_seed(i)).collect();
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &seeds,
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    let refs = p.references().unwrap();
    let total_expected: u64 = refs.iter().map(|r| r.pattern.message_count() as u64).sum();
    // every reference message was either delivered in time or counted late
    // (the executor sends each exactly once thanks to dedup)
    assert_eq!(
        outcome.stats.delivered + outcome.stats.late_messages,
        total_expected,
        "conservation of messages"
    );
}
