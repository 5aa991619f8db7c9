//! E3 — the §3 remark: uniform delays with `Θ(log n / log log n)`-round
//! phases achieve `O((C + D) · log n / log log n)` on the hard family —
//! matching the lower bound there.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::Table;
use das_core::{verify, DasProblem, Scheduler, TunedUniformScheduler, UniformScheduler};
use das_lowerbound::{analysis, HardInstance, HardInstanceParams};

fn table() {
    println!("\n=== E3: §3 remark — log/loglog-tuned phases on hard instances ===");
    let mut t = Table::new(&[
        "scale",
        "n",
        "C+D",
        "target",
        "tuned",
        "tuned/target",
        "uniform",
        "tuned ok",
    ]);
    for scale in 0..3usize {
        let layers = 3 + scale;
        let eta = 16 << scale;
        let k = 8 << scale;
        let inst = HardInstance::sample(
            HardInstanceParams::custom(layers, eta, k, 4.0 / k as f64),
            21 + scale as u64,
        );
        let (_, _, c_plus_d, target) = analysis::targets(&inst);
        let problem = DasProblem::new(inst.graph(), inst.algorithms(), 9);
        let tuned = TunedUniformScheduler::default().run(&problem).unwrap();
        let tuned_rep = verify::against_references(&problem, &tuned).unwrap();
        let uniform = UniformScheduler::default().run(&problem).unwrap();
        t.row_owned(vec![
            scale.to_string(),
            inst.graph().node_count().to_string(),
            c_plus_d.to_string(),
            target.to_string(),
            tuned.schedule_rounds().to_string(),
            format!("{:.2}", tuned.schedule_rounds() as f64 / target as f64),
            uniform.schedule_rounds().to_string(),
            format!("{:.0}%", tuned_rep.correctness_rate() * 100.0),
        ]);
    }
    t.print();
    println!("(paper: O((C+D)*log n/log log n) rounds suffice on this family — §3 remark)\n");
}

fn bench(c: &mut Criterion) {
    table();
    let inst = HardInstance::sample(HardInstanceParams::custom(4, 32, 16, 0.25), 21);
    let problem = DasProblem::new(inst.graph(), inst.algorithms(), 9);
    problem.parameters().unwrap();
    c.bench_function("e03/tuned_schedule_hard_instance", |b| {
        b.iter(|| {
            TunedUniformScheduler::default()
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
