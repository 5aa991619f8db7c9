//! E1 — Theorem 1.1: the shared-randomness uniform-delay scheduler
//! achieves `O(congestion + dilation · log n)` w.h.p.
//!
//! Table: schedule length vs the bound across workloads and `k`; success
//! rate over random shared seeds.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::{run_trial, workloads, Table, TrialRunner, TrialSpec};
use das_core::{uniform_length_bound, Scheduler, UniformScheduler};
use das_graph::generators;
use std::path::Path;

fn table() {
    println!("\n=== E1: Theorem 1.1 — uniform random delays with shared randomness ===");
    let mut t = Table::new(&[
        "workload", "n", "k", "C", "D", "schedule", "C+D*ln n", "ratio", "success",
    ]);
    let path = generators::path(120);
    let grid = generators::grid(12, 12);
    for (name, g, k, seg) in [
        ("segments", &path, 20usize, true),
        ("segments", &path, 60, true),
        ("segments", &path, 120, true),
        ("mixed", &grid, 16, false),
        ("mixed", &grid, 48, false),
    ] {
        let problem = if seg {
            workloads::segment_relays(g, k, 16, 2, 7)
        } else {
            workloads::mixed_bundle(g, k, 8, 7)
        };
        let params = problem.parameters().unwrap();
        let sched = UniformScheduler::default();
        let spec = TrialSpec::new(&sched, &problem, sched.default_sched_seed());
        let m = run_trial(&spec).record;
        let bound = uniform_length_bound(params.congestion, params.dilation, g.node_count());
        // 10 seeds fanned across threads; results identical per base seed
        // regardless of thread count
        let agg = TrialRunner::new(71, 10).aggregate(
            &format!("e01_uniform_{name}_k{k}"),
            "uniform",
            |sched_seed| run_trial(&TrialSpec { sched_seed, ..spec }).record,
        );
        let success = agg.success_rate;
        agg.write(Path::new(".")).expect("write BENCH artifact");
        t.row_owned(vec![
            name.into(),
            g.node_count().to_string(),
            k.to_string(),
            params.congestion.to_string(),
            params.dilation.to_string(),
            m.schedule.to_string(),
            bound.to_string(),
            format!("{:.2}", m.schedule as f64 / bound as f64),
            format!("{:.0}%", success * 100.0),
        ]);
    }
    t.print();
    println!("(paper: schedule length O(congestion + dilation*log n) w.h.p. — Thm 1.1)\n");
}

fn bench(c: &mut Criterion) {
    table();
    let g = generators::path(120);
    let problem = workloads::segment_relays(&g, 40, 16, 2, 7);
    problem.parameters().unwrap(); // warm the reference cache
    c.bench_function("e01/uniform_schedule_k40_n120", |b| {
        b.iter(|| {
            UniformScheduler::default()
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
