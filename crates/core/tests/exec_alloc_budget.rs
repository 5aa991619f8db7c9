//! Pins "no per-machine heap object" in the production big-round loop: a
//! fused execution may allocate for structures sized by algorithms, arcs
//! and big-rounds — what it hands back included: the outputs are one arena,
//! the departures one map per algorithm — never per machine, per output,
//! per step or per delivered message. Boxed machines read and write the
//! loop's own buffers, outputs included, so they pay one box per machine
//! and nothing per message; the alone runs hand back one buffer per output
//! and allocate per round.
//!
//! One test, one thread: the counter is process-wide.

use das_algos::bfs::HopBfs;
use das_algos::broadcast::SingleBroadcast;
use das_core::synthetic::FloodBall;
use das_core::{
    execute, run_alone, BlackBoxAlgorithm, DasProblem, ExecOptions, Scheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc` and `realloc` while
/// `COUNTING` is set.
struct Counted;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter touches no memory the
// allocator manages.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counted = Counted;

/// Allocations made while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst))
}

/// Executes a uniform plan fused, departures recorded, and holds the
/// allocations to `8 · (k + arcs + big-rounds)`, plus one box per machine
/// when the algorithms build boxed machines.
fn assert_execution_within_budget(g: &Graph, algos: Vec<Box<dyn BlackBoxAlgorithm>>, boxes: u64) {
    let (k, n) = (algos.len() as u64, g.node_count() as u64);
    let p = DasProblem::new(g, algos, 11);
    let plan = UniformScheduler::default().plan(&p, 7).expect("plan");
    let (done, allocations) = counted(|| execute(&p, &plan, ExecOptions::default()));

    let outcome = done.expect("executes").outcome;
    assert_eq!(outcome.stats.late_messages, 0);
    assert!(
        outcome.stats.delivered > 4 * n,
        "the algorithms actually send"
    );
    let departed: usize = outcome.departures.iter().flatten().map(|m| m.len()).sum();
    assert_eq!(
        departed as u64, outcome.stats.delivered,
        "departures are recorded"
    );
    let outputs = outcome.outputs.iter().flatten().flatten().count() as u64;
    assert!(outputs >= k * n / 2, "the machines write outputs");
    let structural = k + g.arc_count() as u64 + outcome.stats.big_rounds;
    let budget = boxes + 8 * structural;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {outputs} outputs, {boxes} boxed machines, {k} \
         algorithms, {} arcs, {} big-rounds and {} delivered messages (budget {budget}): \
         something allocates per machine, per output, per step or per message",
        g.arc_count(),
        outcome.stats.big_rounds,
        outcome.stats.delivered,
    );
}

#[test]
fn executions_allocate_per_structure_and_alone_runs_per_output() {
    // the CLI's `floods:k` workload on a grid: slab machines
    let (k, depth, seed) = (32u64, 30u32, 11u64);
    let g = generators::grid(16, 16);
    let n = g.node_count() as u64;
    let floods = || -> Vec<Box<dyn BlackBoxAlgorithm>> {
        (0..k)
            .map(|i| {
                let src = NodeId(((i * 2654435761 + seed) % n) as u32);
                Box::new(FloodBall::new(i, &g, src, depth)) as Box<dyn BlackBoxAlgorithm>
            })
            .collect()
    };
    assert_execution_within_budget(&g, floods(), 0);

    // boxed machines (no `create_nodes` override) on a dense expander,
    // where the messages (k · arcs) dwarf the budget
    let dense = generators::random_regular_expander(256, 16, 3);
    let boxed: Vec<Box<dyn BlackBoxAlgorithm>> = (0..16u64)
        .map(|i| {
            let src = NodeId((i * 37 % 256) as u32);
            if i % 2 == 0 {
                Box::new(HopBfs::new(i, &dense, src, 4)) as Box<dyn BlackBoxAlgorithm>
            } else {
                Box::new(SingleBroadcast::new(i, &dense, src, 4))
            }
        })
        .collect();
    let machines = boxed.len() as u64 * dense.node_count() as u64;
    assert_execution_within_budget(&dense, boxed, machines);

    // alone runs: one block per round, so per output and per round only
    for (i, algo) in floods().iter().enumerate() {
        let (run, allocations) = counted(|| run_alone(&g, algo.as_ref(), i as u64));
        let run = run.expect("floods are valid CONGEST algorithms");
        let outputs = run.outputs.iter().flatten().count() as u64;
        let budget = outputs + 8 * u64::from(algo.rounds());
        let messages = run.pattern.message_count() as u64;
        assert!(
            messages > budget,
            "{messages} messages do not outweigh the budget"
        );
        assert!(
            allocations <= budget,
            "alone run {i}: {allocations} allocations for {outputs} outputs, {} rounds and \
             {messages} messages (budget {budget}): something allocates per message",
            algo.rounds(),
        );
    }
}
