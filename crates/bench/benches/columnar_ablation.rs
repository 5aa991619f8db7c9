//! Ablations of the engine work at the E7 shoot-out sizes:
//!
//! * **row vs batched** (C1, C1b) — the same `SchedulePlan` executed
//!   through the row test oracle (`EngineKind::Row`) and the production
//!   loop (`EngineKind::ColumnarBatched`: arena-allocated per-arc queues
//!   drained as contiguous slices, u64-bitset window passes, slab
//!   construction via `BlackBoxAlgorithm::create_nodes` plus node-block
//!   `step_block` dispatch, one virtual call per same-algorithm run).
//!   Outcomes are asserted byte-identical before anything is timed; the
//!   tables report rounds/sec and the speedup factor.
//! * **sweep-cache on vs off** (C2) — planning a sched-seed sweep from one
//!   shared [`das_bench::SweepPlanner`] artifact vs calling the
//!   scheduler's full `plan()` per seed. Plans are asserted
//!   byte-identical before timing.
//!
//! (C3, the three-way table with the intermediate per-step columnar
//! engine, went away with that engine: it was the batched loop with run
//! length 1.)
//!
//! `--quick` (or `CRITERION_QUICK=1`) shrinks both the table budgets and
//! the criterion sampling so CI can run this on every PR.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use das_bench::{workloads, SweepPlanner, Table};
use das_core::{
    execute_plan_with, EngineKind, ExecutorConfig, PrivateScheduler, Scheduler,
    SequentialScheduler, UniformScheduler,
};
use das_graph::generators;
use std::time::{Duration, Instant};

/// Relay counts from the E7 shoot-out.
const E7_KS: [usize; 5] = [8, 16, 32, 64, 128];

/// Wall-time budget per measured table cell.
fn budget() -> Duration {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1");
    if quick {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    }
}

/// Mean seconds per call of `f`: one calibration call sizes a repetition
/// count that fills `budget`, then the batch is timed as a whole.
fn secs_per_iter<F: FnMut()>(mut f: F, budget: Duration) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(1));
    let reps = (budget.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Times `plan` on the row oracle and on the production loop (outcomes
/// asserted byte-identical first) and returns the batched outcome plus
/// seconds per run for `(row, batched)`.
fn time_row_and_batched(
    problem: &das_core::DasProblem<'_>,
    plan: &das_core::SchedulePlan,
    k: usize,
) -> (das_core::ScheduleOutcome, f64, f64) {
    let row_cfg = ExecutorConfig::default().with_engine(EngineKind::Row);
    let bat_cfg = ExecutorConfig::default().with_engine(EngineKind::ColumnarBatched);
    let row_out = execute_plan_with(problem, plan, &row_cfg).expect("row run");
    let bat_out = execute_plan_with(problem, plan, &bat_cfg).expect("batched run");
    assert_eq!(
        format!("{row_out:?}"),
        format!("{bat_out:?}"),
        "engines must agree at k={k} before anything is timed"
    );
    let b = budget();
    let row_s = secs_per_iter(
        || {
            black_box(execute_plan_with(problem, plan, &row_cfg).expect("row run"));
        },
        b,
    );
    let bat_s = secs_per_iter(
        || {
            black_box(execute_plan_with(problem, plan, &bat_cfg).expect("batched run"));
        },
        b,
    );
    (bat_out, row_s, bat_s)
}

/// C1: the production loop against the row oracle. The oracle pays one
/// virtual call and one `Vec<AlgoSend>` allocation per black-box step and
/// one queue visit per arc per engine round; the production loop
/// dispatches each same-algorithm run of a big-round as a single
/// `step_block` call into a node-contiguous slab writing one flat
/// [`das_core::BatchedSends`] arena, and drains each arc once per
/// big-round.
fn row_vs_batched() {
    println!("\n=== C1: row oracle vs batched engine, rounds/sec at E7 sizes ===");
    let g = generators::path(100);
    let mut t = Table::new(&["k", "rounds", "row rounds/s", "batched rounds/s", "speedup"]);
    for k in E7_KS {
        let problem = workloads::segment_relays(&g, k, 14, 1, 5);
        let plan = UniformScheduler::default()
            .plan(&problem, 7)
            .expect("model-valid workload");
        let (out, row_s, bat_s) = time_row_and_batched(&problem, &plan, k);
        let rounds = out.schedule_rounds();
        t.row_owned(vec![
            k.to_string(),
            rounds.to_string(),
            format!("{:.0}", rounds as f64 / row_s),
            format!("{:.0}", rounds as f64 / bat_s),
            format!("{:.1}x", row_s / bat_s),
        ]);
    }
    t.print();
    println!(
        "(the batched engine drains per-arc queues as contiguous slices, replaces per-message\n tag-window checks with u64-bitset word passes, and removes the per-step virtual-call/alloc\n floor with one step_block call per same-algorithm run; outcomes are byte-identical)\n"
    );
}

/// The message-dense complement of [`row_vs_batched`]: floods on a
/// complete graph, where delivered messages outnumber black-box steps
/// ~20:1 and the engines' messaging layers — not step dispatch —
/// dominate the wall clock.
fn row_vs_batched_message_dense() {
    println!("=== C1b: row oracle vs batched engine, message-dense floods on complete(64) ===");
    let g = generators::complete(64);
    let mut t = Table::new(&[
        "k",
        "msgs/steps",
        "row rounds/s",
        "batched rounds/s",
        "speedup",
    ]);
    for k in [4usize, 8, 16] {
        let problem = workloads::flood_bundle(&g, k, 2, 5);
        let plan = UniformScheduler::default()
            .plan(&problem, 7)
            .expect("model-valid workload");
        let (out, row_s, bat_s) = time_row_and_batched(&problem, &plan, k);
        let rounds = out.schedule_rounds();
        let steps: u32 = problem
            .algorithms()
            .iter()
            .map(|a| a.rounds() * g.node_count() as u32)
            .sum();
        let density = out.stats.delivered as f64 / steps as f64;
        t.row_owned(vec![
            k.to_string(),
            format!("{density:.0}"),
            format!("{:.0}", rounds as f64 / row_s),
            format!("{:.0}", rounds as f64 / bat_s),
            format!("{:.1}x", row_s / bat_s),
        ]);
    }
    t.print();
    println!(
        "(this table isolates the messaging layer: arena queues, batched per-arc delivery,\n bitset windows)\n"
    );
}

fn sweep_cache_ablation() {
    println!("=== C2: sweep-cache on vs off, planning a sched-seed sweep at E7 sizes ===");
    let g = generators::path(100);
    let mut t = Table::new(&["scheduler", "k", "scratch plan", "swept plan", "speedup"]);
    for k in [32usize, 128] {
        let problem = workloads::segment_relays(&g, k, 14, 1, 5);
        let scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SequentialScheduler),
            Box::new(UniformScheduler::default()),
            Box::new(PrivateScheduler::default()),
        ];
        for sched in &scheds {
            let planner = SweepPlanner::new(sched.as_ref(), &problem);
            assert_eq!(
                sched.plan(&problem, 7).expect("plan").to_json(),
                planner.plan(&problem, 7).to_json(),
                "swept plans must match plan() at k={k} before anything is timed"
            );
            let b = budget();
            let mut s = 0u64;
            let scratch = secs_per_iter(
                || {
                    s = s.wrapping_add(1);
                    black_box(sched.plan(&problem, s).expect("plan"));
                },
                b,
            );
            let mut s = 0u64;
            let swept = secs_per_iter(
                || {
                    s = s.wrapping_add(1);
                    black_box(planner.plan(&problem, s));
                },
                b,
            );
            t.row_owned(vec![
                sched.name().to_string(),
                k.to_string(),
                format!("{:.1} µs", scratch * 1e6),
                format!("{:.1} µs", swept * 1e6),
                format!("{:.1}x", scratch / swept),
            ]);
        }
    }
    t.print();
    println!(
        "(the sweep artifact caches the sched-seed-independent planning prefix — the whole\n plan for seed-tagged schedulers, the clustering carve for the private scheduler)\n"
    );
}

fn bench(c: &mut Criterion) {
    row_vs_batched();
    row_vs_batched_message_dense();
    sweep_cache_ablation();

    // criterion samples at the E7 midpoint (k = 64) for trend tracking
    let g = generators::path(100);
    let problem = workloads::segment_relays(&g, 64, 14, 1, 5);
    let plan = UniformScheduler::default()
        .plan(&problem, 7)
        .expect("model-valid workload");
    let row_cfg = ExecutorConfig::default().with_engine(EngineKind::Row);
    let bat_cfg = ExecutorConfig::default().with_engine(EngineKind::ColumnarBatched);
    c.bench_function("columnar/e07_k64_row_engine", |b| {
        b.iter(|| {
            execute_plan_with(&problem, &plan, &row_cfg)
                .expect("row run")
                .schedule_rounds()
        })
    });
    c.bench_function("columnar/e07_k64_batched_engine", |b| {
        b.iter(|| {
            execute_plan_with(&problem, &plan, &bat_cfg)
                .expect("batched run")
                .schedule_rounds()
        })
    });

    let sched = PrivateScheduler::default();
    let planner = SweepPlanner::new(&sched, &problem);
    let mut seed = 0u64;
    c.bench_function("sweep/e07_k64_private_plan_scratch", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            sched.plan(&problem, seed).expect("plan").phase_len
        })
    });
    let mut seed = 0u64;
    c.bench_function("sweep/e07_k64_private_plan_swept", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            planner.plan(&problem, seed).phase_len
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
