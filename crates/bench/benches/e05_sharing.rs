//! E5 — Lemma 4.3: pipelined in-cluster randomness sharing delivers
//! `Θ(log² n)` bits to every cluster member in `H + Θ(log n)` rounds per
//! layer, and the shared bits stretch into `Θ(log n)`-wise independent
//! values.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::Table;
use das_cluster::{share_layer_centralized, CarveConfig, Clustering, ShareConfig};
use das_graph::generators;
use das_prg::KWiseGenerator;

fn table() {
    println!("\n=== E5: Lemma 4.3 — in-cluster randomness sharing ===");
    let mut t = Table::new(&[
        "graph",
        "n",
        "chunks",
        "rounds/layer",
        "H",
        "H+slack",
        "delivered",
    ]);
    for (name, g) in [
        ("path", generators::path(60)),
        ("grid", generators::grid(8, 8)),
        ("gnp", generators::gnp_connected(80, 0.06, 9)),
    ] {
        let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(3);
        let cl = Clustering::carve_centralized(&g, &cfg, 13);
        let share_cfg = ShareConfig::for_graph(&g, cfg.horizon);
        let chunks = das_cluster::share::center_chunks(g.node_count(), share_cfg.chunks, 17);
        let mut all_delivered = true;
        let mut rounds = 0;
        for layer in cl.layers() {
            let want = share_layer_centralized(layer, &chunks);
            let (got, r, delivered) =
                das_cluster::share::share_layer_distributed(&g, layer, &chunks, &share_cfg);
            all_delivered &= delivered && got == want;
            rounds = r;
        }
        t.row_owned(vec![
            name.into(),
            g.node_count().to_string(),
            share_cfg.chunks.to_string(),
            rounds.to_string(),
            share_cfg.horizon.to_string(),
            share_cfg.rounds_needed().to_string(),
            if all_delivered {
                "100%".into()
            } else {
                "INCOMPLETE".to_string()
            },
        ]);
    }
    t.print();
    println!(
        "(paper: all chunks delivered within H + Theta(log n) rounds per layer — Lemma 4.3)\n"
    );
}

fn bench(c: &mut Criterion) {
    table();
    let g = generators::grid(8, 8);
    let cfg = CarveConfig::for_dilation(&g, 2).with_num_layers(1);
    let cl = Clustering::carve_centralized(&g, &cfg, 13);
    let share_cfg = ShareConfig::for_graph(&g, cfg.horizon);
    let chunks = das_cluster::share::center_chunks(64, share_cfg.chunks, 17);
    c.bench_function("e05/share_layer_distributed_n64", |b| {
        b.iter(|| {
            das_cluster::share::share_layer_distributed(&g, &cl.layers()[0], &chunks, &share_cfg).1
        })
    });
    c.bench_function("e05/kwise_generator_1000_values", |b| {
        let gen = KWiseGenerator::from_seed_bytes(b"bench-seed", 16, 2_305_843_009_213_693_951);
        b.iter(|| (0..1000u64).map(|x| gen.value(x)).sum::<u64>())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
