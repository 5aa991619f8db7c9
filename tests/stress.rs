//! Larger-scale stress tests. Run with `cargo test -- --ignored` (they
//! take seconds to minutes; the default suite stays fast).

use dasched::congest::{run_rounds, Until};
use dasched::core::synthetic::FloodBall;
use dasched::core::{verify, BlackBoxAlgorithm, DasProblem, Scheduler, UniformScheduler};
use dasched::graph::{generators, NodeId};

#[test]
#[ignore = "stress: ~1k-node round loop"]
fn round_loop_scales_to_thousand_nodes() {
    let g = generators::gnp_connected(1000, 0.006, 3);
    let mut batch = dasched::algos::flood::MinIdProtocol.machines(&g);
    run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap();
    for out in &batch.outputs() {
        assert_eq!(out.as_deref(), Some(&0u32.to_le_bytes()[..]));
    }
}

#[test]
#[ignore = "stress: 100 algorithms on 400 nodes"]
fn uniform_scheduler_handles_hundred_algorithms() {
    let g = generators::grid(20, 20);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..100u64)
        .map(|i| {
            Box::new(FloodBall::new(i, &g, NodeId((i * 37 % 400) as u32), 6))
                as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    let p = DasProblem::new(&g, algos, 7);
    let outcome = UniformScheduler::default().run(&p).unwrap();
    let report = verify::against_references(&p, &outcome).unwrap();
    assert!(
        report.correctness_rate() > 0.999,
        "rate {} late {}",
        report.correctness_rate(),
        outcome.stats.late_messages
    );
}

#[test]
#[ignore = "stress: private scheduler on 200 nodes"]
fn private_scheduler_on_two_hundred_nodes() {
    let g = generators::gnp_connected(200, 0.02, 5);
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..20u64)
        .map(|i| {
            Box::new(FloodBall::new(i, &g, NodeId((i * 11 % 200) as u32), 4))
                as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    let p = DasProblem::new(&g, algos, 9);
    let outcome = dasched::core::PrivateScheduler::default().run(&p).unwrap();
    let report = verify::against_references(&p, &outcome).unwrap();
    assert!(
        report.all_correct(),
        "mismatches {:?} late {}",
        report.mismatches,
        outcome.stats.late_messages
    );
}
