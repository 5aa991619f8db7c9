//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **A1** — block-decay vs uniform-wide delays in the private scheduler
//!   (Lemma 4.4's non-uniform distribution is what removes the extra
//!   `log n` factor from the congestion term);
//! * **A2** — number of clustering layers vs coverage/correctness
//!   (property (3) of Lemma 4.2 needs `Θ(log n)` layers);
//! * **A3** — phase-length factor vs success rate (the Chernoff constant
//!   of Theorem 1.1).

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::{run_trial, workloads, Table, TrialRecord, TrialSpec};
use das_core::{PrivateDelayLaw, PrivateScheduler, Scheduler, UniformScheduler};
use das_graph::generators;

/// One trial of `sched` on its own default seed.
fn default_trial(sched: &dyn Scheduler, problem: &das_core::DasProblem<'_>) -> TrialRecord {
    run_trial(&TrialSpec::new(sched, problem, sched.default_sched_seed())).record
}

fn delay_law_ablation() {
    println!("\n=== A1: block-decay vs uniform-wide delays (private scheduler) ===");
    let g = generators::path(80);
    let mut t = Table::new(&["k", "C", "block-decay", "uniform-wide", "saving"]);
    for k in [32usize, 96, 192] {
        // all relays on the same 12-hop segment: congestion = k, dilation 12
        let problem = workloads::segment_relays(&g, k, 12, 0, 3);
        let params = problem.parameters().unwrap();
        let bd = default_trial(
            &PrivateScheduler::default().with_delay_law(PrivateDelayLaw::BlockDecay),
            &problem,
        );
        let uw = default_trial(
            &PrivateScheduler::default().with_delay_law(PrivateDelayLaw::UniformWide),
            &problem,
        );
        assert_eq!(bd.correctness, 1.0, "block-decay must stay correct");
        assert_eq!(uw.correctness, 1.0, "uniform-wide must stay correct");
        t.row_owned(vec![
            k.to_string(),
            params.congestion.to_string(),
            bd.schedule.to_string(),
            uw.schedule.to_string(),
            format!("{:.2}x", uw.schedule as f64 / bd.schedule as f64),
        ]);
    }
    t.print();
    println!("(Lemma 4.4: the non-uniform law drops the delay span from Theta(C) to Theta(C/log n)\n big-rounds; the saving factor grows with C, approaching log n)\n");
}

fn layers_ablation() {
    println!("=== A2: clustering layers vs dilation-ball coverage (Lemma 4.2 property 3) ===");
    // a tight radius rate (1.5 D instead of 4 D) keeps the per-layer
    // padding probability well below 1, so the Theta(log n)-layer
    // repetition is what rescues coverage
    use das_cluster::{CarveConfig, Clustering};
    let g = generators::grid(14, 14);
    let dilation = 4u32;
    let mut t = Table::new(&[
        "layers",
        "covered nodes",
        "avg covering layers",
        "padding/layer",
    ]);
    for layers in [1usize, 2, 4, 8, 16, 24] {
        let cfg = CarveConfig {
            dilation,
            radius_rate: 1.5 * dilation as f64,
            horizon: (1.5 * dilation as f64 * (196f64.ln() + 1.0)).ceil() as u32,
            num_layers: layers,
        };
        let cl = Clustering::carve_centralized(&g, &cfg, 5);
        let covered = g
            .nodes()
            .filter(|&v| !cl.covering_layers(v, dilation).is_empty())
            .count();
        let total: usize = g
            .nodes()
            .map(|v| cl.covering_layers(v, dilation).len())
            .sum();
        t.row_owned(vec![
            layers.to_string(),
            format!("{}/{}", covered, g.node_count()),
            format!("{:.1}", total as f64 / g.node_count() as f64),
            format!("{:.2}", total as f64 / (g.node_count() * layers) as f64),
        ]);
    }
    t.print();
    println!("(a node uncovered in every layer cannot adopt any output; the per-layer padding\n probability is a constant < 1, so Theta(log n) layers are needed for full coverage)\n");
}

fn phase_factor_ablation() {
    println!("=== A3: phase-length factor vs correctness (Theorem 1.1 Chernoff constant) ===");
    let g = generators::path(80);
    let problem = workloads::stacked_relays(&g, 24, 5);
    let mut t = Table::new(&["phase factor", "correct", "late", "schedule"]);
    for pf in [0.25, 0.5, 1.0, 2.0, 3.0] {
        let sched = UniformScheduler {
            shared_seed: 9,
            phase_factor: pf,
            range_factor: 1.0,
        };
        let m = default_trial(&sched, &problem);
        t.row_owned(vec![
            format!("{pf}"),
            format!("{:.1}%", m.correctness * 100.0),
            m.late.to_string(),
            m.schedule.to_string(),
        ]);
    }
    t.print();
    println!(
        "(phases shorter than the max per-phase edge load make messages spill and arrive late)\n"
    );
}

fn bench(c: &mut Criterion) {
    delay_law_ablation();
    layers_ablation();
    phase_factor_ablation();
    let g = generators::path(80);
    let problem = workloads::segment_relays(&g, 48, 12, 1, 3);
    problem.parameters().unwrap();
    c.bench_function("ablations/private_uniform_wide_k48", |b| {
        b.iter(|| {
            PrivateScheduler::default()
                .with_delay_law(PrivateDelayLaw::UniformWide)
                .run(&problem)
                .unwrap()
                .schedule_rounds()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
