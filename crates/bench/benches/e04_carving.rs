//! E4 — Lemma 4.2: ball-carving clustering quality and cost.
//!
//! Table: per-layer disjointness holds by construction; measured weak
//! radius vs the `O(dilation · log n)` horizon, padding rate (fraction of
//! (node, layer) pairs whose dilation-ball is contained), min/avg covering
//! layers, and carving rounds vs the `O(dilation · log² n)` budget.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::Table;
use das_cluster::{quality, CarveConfig, Clustering};
use das_graph::generators;

fn table() {
    println!("\n=== E4: Lemma 4.2 — ball carving ===");
    let mut t = Table::new(&[
        "graph",
        "n",
        "D",
        "layers",
        "weak radius",
        "horizon",
        "padding",
        "min cover",
        "avg cover",
        "rounds",
        "rounds/(D ln^2 n)",
    ]);
    for (name, g, dilation) in [
        ("grid", generators::grid(10, 10), 3u32),
        ("gnp", generators::gnp_connected(150, 0.035, 4), 3),
        ("tree", generators::balanced_tree(127, 2), 4),
        ("grid", generators::grid(14, 14), 5),
        // the standalone benchmark's `oneshot_private` instance
        ("grid", generators::grid(48, 48), 6),
    ] {
        let cfg = CarveConfig::for_dilation(&g, dilation);
        let cl = Clustering::carve_centralized(&g, &cfg, 31);
        let q = quality::measure(&g, &cl, dilation);
        let n = g.node_count() as f64;
        let budget = (dilation as f64 * n.ln() * n.ln()).ceil();
        t.row_owned(vec![
            name.into(),
            g.node_count().to_string(),
            dilation.to_string(),
            cfg.num_layers.to_string(),
            q.max_weak_radius.to_string(),
            cfg.horizon.to_string(),
            format!("{:.2}", q.padding_rate),
            q.min_covering_layers.to_string(),
            format!("{:.1}", q.avg_covering_layers),
            cl.precompute_rounds().to_string(),
            format!("{:.1}", cl.precompute_rounds() as f64 / budget),
        ]);
    }
    t.print();
    println!("(paper: weak diameter O(D log n), Theta(log n) covering layers per node, O(D log^2 n) rounds;\n a flat rounds/(D ln^2 n) ratio across rows is the O(.) holding with a fixed constant)\n");
}

fn bench(c: &mut Criterion) {
    table();
    let g = generators::grid(10, 10);
    let cfg = CarveConfig::for_dilation(&g, 3).with_num_layers(8);
    c.bench_function("e04/carve_centralized_8layers_n100", |b| {
        b.iter(|| Clustering::carve_centralized(&g, &cfg, 31).precompute_rounds())
    });
    // one layer of the benchmark's `oneshot_private` carve: the pruned
    // BFS makes this near-linear in n (it was n × ball size)
    let big = generators::grid(48, 48);
    let cfg_big = CarveConfig::for_dilation(&big, 6).with_num_layers(1);
    c.bench_function("e04/carve_centralized_1layer_n2304", |b| {
        b.iter(|| Clustering::carve_centralized(&big, &cfg_big, 31).precompute_rounds())
    });
    let small = generators::grid(6, 6);
    let cfg_small = CarveConfig::for_dilation(&small, 2).with_num_layers(4);
    c.bench_function("e04/carve_distributed_4layers_n36", |b| {
        b.iter(|| Clustering::carve_distributed(&small, &cfg_small, 31).precompute_rounds())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
