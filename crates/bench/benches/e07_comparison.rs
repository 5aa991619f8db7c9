//! E7 — the scheduler shoot-out (the paper's framing, §1): how the five
//! schedulers scale as the number of co-scheduled algorithms grows.
//!
//! Series: schedule length vs `k` on a pipelining-friendly workload. The
//! baselines grow like `k · dilation`; the random-delay schedulers grow
//! like `congestion + dilation · log n`.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::{run_trial, workloads, Table, TrialSpec};
use das_core::{
    InterleaveScheduler, PrivateScheduler, Scheduler, SequentialScheduler, TunedUniformScheduler,
    UniformScheduler,
};
use das_graph::generators;

fn table() {
    println!(
        "\n=== E7: scheduler comparison (schedule length vs k; + = total with precompute) ==="
    );
    let g = generators::path(100);
    let mut t = Table::new(&[
        "k",
        "C",
        "D",
        "sequential",
        "interleave",
        "uniform",
        "tuned",
        "private(+pre)",
    ]);
    for k in [8usize, 16, 32, 64, 128] {
        let problem = workloads::segment_relays(&g, k, 14, 1, 5);
        let params = problem.parameters().unwrap();
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SequentialScheduler),
            Box::new(InterleaveScheduler),
            Box::new(UniformScheduler::default()),
            Box::new(TunedUniformScheduler::default()),
            Box::new(PrivateScheduler::default()),
        ];
        let mut cells = vec![
            k.to_string(),
            params.congestion.to_string(),
            params.dilation.to_string(),
        ];
        for s in schedulers {
            let seed = s.default_sched_seed();
            let m = run_trial(&TrialSpec::new(s.as_ref(), &problem, seed)).record;
            let mark = if m.correctness == 1.0 { "" } else { "!" };
            if m.precompute > 0 {
                cells.push(format!("{}{} (+{})", m.schedule, mark, m.precompute));
            } else {
                cells.push(format!("{}{}", m.schedule, mark));
            }
        }
        t.row_owned(cells);
    }
    t.print();
    println!("('!' marks runs with output mismatches; baselines scale with k, delay schedulers with C)\n");
}

fn bench(c: &mut Criterion) {
    table();
    let g = generators::path(100);
    let problem = workloads::segment_relays(&g, 32, 14, 1, 5);
    problem.parameters().unwrap();
    for (name, sched) in [
        (
            "sequential",
            Box::new(SequentialScheduler) as Box<dyn Scheduler>,
        ),
        ("uniform", Box::new(UniformScheduler::default())),
    ] {
        c.bench_function(&format!("e07/{name}_k32"), |b| {
            b.iter(|| sched.run(&problem).unwrap().schedule_rounds())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
