//! Micro-benchmarks of the substrates: CONGEST round throughput, PRG
//! evaluation, field arithmetic, carving, and the scheduled executor.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::{workloads, TrialRunner};
use das_congest::{run_rounds, AlgoNode, Inbox, NodeBatch, OutputSink, Sends, Until};
use das_core::{Scheduler, SequentialScheduler, UniformScheduler};
use das_graph::{generators, NodeId};
use das_prg::{field::PrimeField, primes, KWiseGenerator};

/// Every node floods one counter every round — the round loop's
/// worst-case load.
struct FirehoseNode {
    neighbors: Vec<NodeId>,
    t: u64,
}
impl AlgoNode for FirehoseNode {
    fn step(&mut self, _inbox: Inbox<'_>, out: &mut Sends<'_>) {
        out.push_all(&self.neighbors, &self.t.to_le_bytes());
        self.t += 1;
    }
    fn output(&self, _out: &mut OutputSink<'_>) {}
}

fn bench(c: &mut Criterion) {
    let g = generators::grid(16, 16);
    c.bench_function("micro/run_rounds_firehose_20rounds_n256", |b| {
        b.iter(|| {
            let mut batch = NodeBatch::for_graph(&g, |_, neighbors| {
                Box::new(FirehoseNode { neighbors, t: 0 })
            });
            run_rounds(&g, &mut batch, Until::exactly(20), None)
                .unwrap()
                .messages
        })
    });

    c.bench_function("micro/prime_field_mul_1e5", |b| {
        let f = PrimeField::new(2_305_843_009_213_693_951);
        b.iter(|| {
            let mut acc = 1u64;
            for x in 1..100_000u64 {
                acc = f.mul(acc, x | 1);
            }
            acc
        })
    });

    c.bench_function("micro/next_prime_1e9", |b| {
        b.iter(|| primes::next_prime(1_000_000_000))
    });

    c.bench_function("micro/kwise_k32_eval_1000", |b| {
        let gen = KWiseGenerator::from_seed_bytes(b"micro", 32, 1_000_000_007);
        b.iter(|| (0..1000u64).map(|x| gen.value(x)).sum::<u64>())
    });

    c.bench_function("micro/bfs_distances_n1024", |b| {
        let big = generators::gnp_connected(1024, 0.008, 3);
        b.iter(|| das_graph::traversal::bfs_distances(&big, NodeId(0)))
    });

    let path = generators::path(60);
    let problem = workloads::stacked_relays(&path, 8, 1);
    problem.parameters().unwrap();
    c.bench_function("micro/executor_sequential_8relays_n60", |b| {
        b.iter(|| SequentialScheduler.run(&problem).unwrap().schedule_rounds())
    });

    // Multi-seed sweep through the trial runner, 1 thread vs the full
    // pool: the gap is the parallel harness's speedup on this machine.
    let sweep_problem = workloads::segment_relays(&path, 16, 10, 2, 7);
    sweep_problem.parameters().unwrap();
    let sweep = |_| {
        TrialRunner::new(42, 16).run_trials(|seed| {
            UniformScheduler::default()
                .with_seed(seed)
                .run(&sweep_problem)
                .unwrap()
                .schedule_rounds()
        })
    };
    std::env::set_var("RAYON_NUM_THREADS", "1");
    c.bench_function("micro/runner_sweep_16seeds_1thread", |b| {
        b.iter(|| sweep(()))
    });
    std::env::remove_var("RAYON_NUM_THREADS");
    c.bench_function("micro/runner_sweep_16seeds_all_cores", |b| {
        b.iter(|| sweep(()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
