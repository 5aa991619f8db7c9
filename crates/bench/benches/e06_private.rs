//! E6 — Theorem 4.1 / Lemma 4.4: the full private-randomness scheduler.
//!
//! Table: pre-computation rounds vs the `O(D log² n)` budget, schedule
//! length vs `O(C + D log n)`, correctness, and the success rate over
//! seeds.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::{run_trial, workloads, Table, TrialRunner, TrialSpec};
use das_core::{uniform_length_bound, PrivateScheduler, Scheduler};
use das_graph::generators;
use std::path::Path;

fn table() {
    println!("\n=== E6: Theorem 4.1 — private-randomness scheduling ===");
    let mut t = Table::new(&[
        "workload",
        "n",
        "k",
        "C",
        "D",
        "schedule",
        "C+D*ln n",
        "precompute",
        "D*ln^2 n",
        "correct",
        "success",
    ]);
    let path = generators::path(80);
    let grid = generators::grid(9, 9);
    // the standalone benchmark's `oneshot_private` shape
    let big = generators::grid(48, 48);
    for (name, g, k, seg) in [
        ("segments", &path, 16usize, true),
        ("segments", &path, 48, true),
        ("mixed", &grid, 12, false),
        ("mixed", &grid, 36, false),
        ("mixed", &big, 48, false),
    ] {
        let problem = if seg {
            workloads::segment_relays(g, k, 12, 2, 3)
        } else {
            workloads::mixed_bundle(g, k, 6, 3)
        };
        let params = problem.parameters().unwrap();
        let sched = PrivateScheduler::default();
        let spec = TrialSpec::new(&sched, &problem, sched.default_sched_seed());
        let m = run_trial(&spec).record;
        let n = g.node_count() as f64;
        let bound = uniform_length_bound(params.congestion, params.dilation, g.node_count());
        let pre_budget = (params.dilation as f64 * n.ln() * n.ln()).ceil();
        // 5 seeds fanned across threads via the deterministic runner
        let agg = TrialRunner::new(31, 5).aggregate(
            &format!("e06_private_{name}_k{k}"),
            "private",
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
            m.precompute.to_string(),
            format!("{:.0}", pre_budget),
            format!("{:.0}%", m.correctness * 100.0),
            format!("{:.0}%", success * 100.0),
        ]);
    }
    t.print();
    println!("(paper: O(C + D log n) schedule after O(D log^2 n) pre-computation — Thm 4.1; the\n precompute/budget ratio is the constant hiding in the O(.), dominated by 3 log2 n layers)\n");
}

fn bench(c: &mut Criterion) {
    table();
    let g = generators::path(80);
    let problem = workloads::segment_relays(&g, 24, 12, 2, 3);
    problem.parameters().unwrap();
    c.bench_function("e06/private_schedule_k24_n80", |b| {
        b.iter(|| {
            PrivateScheduler::default()
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
