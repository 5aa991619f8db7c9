//! E2 — Theorem 3.1 / Figure 2: the hard-instance family.
//!
//! Two tables: (a) the anti-concentration certificate — at budgets below
//! the `log n / log log n` target, essentially *all* crossing patterns
//! overload some edge; (b) the growth of best-found schedules relative to
//! `congestion + dilation` as `n` grows.

use criterion::{criterion_group, criterion_main, Criterion};
use das_bench::Table;
use das_lowerbound::{analysis, search, HardInstance, HardInstanceParams};

fn instance_for(scale: usize, seed: u64) -> HardInstance {
    // parameters chosen so k·p (expected per-edge congestion) stays ~4
    // while layers and eta grow with the scale
    let layers = 3 + scale;
    let eta = 16 << scale;
    let k = 8 << scale;
    let p = 4.0 / k as f64;
    HardInstance::sample(HardInstanceParams::custom(layers, eta, k, p), seed)
}

fn certificate_table() {
    println!("\n=== E2a: Theorem 3.1 certificate — crossing patterns overload under-budgeted schedules ===");
    let inst = instance_for(2, 5);
    let (c, d, c_plus_d, target) = analysis::targets(&inst);
    println!(
        "instance: n={} C={} D={} C+D={} log-factor target={}",
        inst.graph().node_count(),
        c,
        d,
        c_plus_d,
        target
    );
    let mut t = Table::new(&["phases", "rounds/edge", "budget", "overload rate"]);
    for (phases, rounds) in [(d, 1u32), (d, 2), (d, 4), (d, 8), (2 * d, 8)] {
        let rate = analysis::pattern_failure_rate(&inst, rounds, phases, 150, 3);
        t.row_owned(vec![
            phases.to_string(),
            rounds.to_string(),
            (phases as u64 * rounds as u64 * 2).to_string(),
            format!("{:.1}%", rate * 100.0),
        ]);
    }
    t.print();
}

fn growth_table() {
    println!("\n=== E2b: the anti-concentration quantile grows like log eta / log log eta ===");
    println!("(min per-phase edge capacity r* for which >= 5% of random crossing patterns");
    println!(" survive, with mean per-edge per-phase load held at ~1 — the quantity the");
    println!(" probabilistic-method proof of Thm 3.1 rides on. The greedy column shows the");
    println!(" *adaptive* escape available at laptop scale, where the union bound has no bite.)");
    let layers = 6usize;
    let k = 48usize;
    let p = layers as f64 / k as f64; // mean per-cell edge load ~ (k/L)*p = 1
    let mut t = Table::new(&[
        "eta",
        "n",
        "C",
        "D",
        "C+D",
        "r*",
        "oblivious len",
        "ratio",
        "ln eta/lnln eta",
        "greedy",
    ]);
    for eta in [16usize, 64, 256, 1024] {
        let inst = HardInstance::sample(
            HardInstanceParams::custom(layers, eta, k, p),
            41 + eta as u64,
        );
        let (c, d, c_plus_d, _) = analysis::targets(&inst);
        let phases = layers as u32;
        let mut r_star = 1u32;
        while analysis::pattern_failure_rate(&inst, r_star, phases, 100, 5) > 0.95 {
            r_star += 1;
        }
        // an oblivious schedule needs phases of 2*r* rounds
        let oblivious = phases as u64 * 2 * r_star as u64;
        let e = eta as f64;
        let greedy = search::best_greedy(&inst, 8);
        t.row_owned(vec![
            eta.to_string(),
            inst.graph().node_count().to_string(),
            c.to_string(),
            d.to_string(),
            c_plus_d.to_string(),
            r_star.to_string(),
            oblivious.to_string(),
            format!("{:.2}", oblivious as f64 / c_plus_d as f64),
            format!("{:.2}", e.ln() / e.ln().ln()),
            greedy.length.to_string(),
        ]);
    }
    t.print();
    println!("(paper: some instances require Omega(C + D*log n/log log n) rounds — Thm 3.1)\n");
}

fn bench(c: &mut Criterion) {
    certificate_table();
    growth_table();
    let inst = instance_for(1, 5);
    c.bench_function("e02/pattern_failure_rate_100", |b| {
        b.iter(|| analysis::pattern_failure_rate(&inst, 2, 8, 100, 3))
    });
    c.bench_function("e02/best_greedy", |b| {
        b.iter(|| search::best_greedy(&inst, 8).length)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
