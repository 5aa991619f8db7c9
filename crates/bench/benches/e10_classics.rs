//! E10 — the classical special cases of §1: k-broadcast in `O(k + h)`,
//! k-BFS in `O(k + h)`, and LMR packet routing in `O(C + D log n)` via
//! scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use das_algos::bfs::KBfsProtocol;
use das_algos::broadcast::KBroadcastProtocol;
use das_algos::routing::RoutingInstance;
use das_bench::Table;
use das_congest::{run_rounds, Until};
use das_core::{verify, DasProblem, Scheduler, UniformScheduler};
use das_graph::{generators, NodeId};

fn broadcast_table() {
    println!("\n=== E10a: k-message broadcast pipelines in O(k + h) (§1 item I) ===");
    let g = generators::path(60);
    let h = 59u32;
    let mut t = Table::new(&["k", "h", "rounds", "k+h", "ratio"]);
    for k in [4usize, 8, 16, 32] {
        let msgs: Vec<(NodeId, u64)> = (0..k).map(|i| (NodeId(i as u32), i as u64)).collect();
        let mut batch = KBroadcastProtocol::new(msgs, h).machines(&g);
        let rep = run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap();
        t.row_owned(vec![
            k.to_string(),
            h.to_string(),
            rep.rounds.to_string(),
            (k as u64 + h as u64).to_string(),
            format!("{:.2}", rep.rounds as f64 / (k as u64 + h as u64) as f64),
        ]);
    }
    t.print();
}

fn bfs_table() {
    println!("=== E10b: k BFS trees in O(k + h) (§1 item II, Lenzen–Peleg) ===");
    let g = generators::grid(9, 9);
    let h = 16u32;
    let mut t = Table::new(&["k", "h", "rounds", "k+h", "ratio"]);
    for k in [2usize, 4, 8, 16] {
        let sources: Vec<NodeId> = (0..k).map(|i| NodeId((i * 5 % 81) as u32)).collect();
        let mut batch = KBfsProtocol::new(sources, h).machines(&g);
        let rep = run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None).unwrap();
        t.row_owned(vec![
            k.to_string(),
            h.to_string(),
            rep.rounds.to_string(),
            (k as u64 + h as u64).to_string(),
            format!("{:.2}", rep.rounds as f64 / (k as u64 + h as u64) as f64),
        ]);
    }
    t.print();
}

fn routing_table() {
    println!("=== E10c: LMR packet routing via scheduling (§1 item III) ===");
    let g = generators::grid(10, 10);
    let mut t = Table::new(&["packets", "C", "D", "schedule", "C+D*ln n", "correct"]);
    for k in [10usize, 30, 60, 120] {
        let inst = RoutingInstance::random_shortest_paths(&g, k, k as u64);
        let (c, d) = inst.parameters(&g);
        let p = DasProblem::new(&g, inst.algorithms(&g), 3);
        let outcome = UniformScheduler::default().run(&p).unwrap();
        let rep = verify::against_references(&p, &outcome).unwrap();
        let bound = c + (d as f64 * (100f64).ln()).ceil() as u64;
        t.row_owned(vec![
            k.to_string(),
            c.to_string(),
            d.to_string(),
            outcome.schedule_rounds().to_string(),
            bound.to_string(),
            format!("{:.0}%", rep.correctness_rate() * 100.0),
        ]);
    }
    t.print();
    println!(
        "(paper: packet routing admits O(C+D) schedules; random delays give O(C + D log n))\n"
    );
}

fn bench(c: &mut Criterion) {
    broadcast_table();
    bfs_table();
    routing_table();
    let g = generators::grid(9, 9);
    let sources: Vec<NodeId> = (0..8).map(|i| NodeId((i * 5 % 81) as u32)).collect();
    c.bench_function("e10/kbfs_8sources_n81", |b| {
        let proto = KBfsProtocol::new(sources.clone(), 16);
        b.iter(|| {
            let mut batch = proto.machines(&g);
            run_rounds(&g, &mut batch, Until::Quiet { limit: 1000 }, None)
                .unwrap()
                .rounds
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
