//! Pins "no per-machine heap object" in the production big-round loop: a
//! fused execution may allocate for what it hands back (one output per
//! (algorithm, node)) and for structures sized by algorithms, arcs and
//! big-rounds — never per machine, per step or per delivered message.
//!
//! One test, one thread: the counter is process-wide.

use das_core::synthetic::FloodBall;
use das_core::{
    execute, BlackBoxAlgorithm, DasProblem, ExecOptions, ExecutorConfig, Scheduler,
    UniformScheduler,
};
use das_graph::{generators, NodeId};
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

#[test]
fn a_fused_execution_allocates_per_output_not_per_machine() {
    // the CLI's `floods:k` workload on a grid
    let (k, depth, seed) = (32u64, 30u32, 11u64);
    let g = generators::grid(16, 16);
    let n = g.node_count() as u64;
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..k)
        .map(|i| {
            let src = NodeId(((i * 2654435761 + seed) % n) as u32);
            Box::new(FloodBall::new(i, &g, src, depth)) as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    let p = DasProblem::new(&g, algos, seed);
    let plan = UniformScheduler::default().plan(&p, 7).expect("plan");
    // departure maps are one tree entry per delivered message by design
    let config = ExecutorConfig::default().with_record_departures(false);
    let opts = ExecOptions::default().with_config(config);

    COUNTING.store(true, Ordering::SeqCst);
    let done = execute(&p, &plan, opts);
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    let outcome = done.expect("executes").outcome;
    assert_eq!(outcome.stats.late_messages, 0);
    assert!(outcome.stats.delivered > 4 * n, "the floods actually flood");
    let outputs = outcome.outputs.iter().flatten().flatten().count() as u64;
    let structural = k + g.arc_count() as u64 + outcome.stats.big_rounds;
    let budget = outputs + 8 * structural;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {outputs} outputs, {k} algorithms, {} arcs and {} \
         big-rounds (budget {budget}): something allocates per machine, per step or per message",
        g.arc_count(),
        outcome.stats.big_rounds,
    );
}
