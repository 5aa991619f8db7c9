//! Figure 2 / Section 3: sample a hard instance, show its parameters, and
//! watch schedulers and the anti-concentration certificate at work.
//!
//! ```sh
//! cargo run --release --example hard_instance
//! ```

use dasched::core::{verify, DasProblem, Scheduler, TunedUniformScheduler, UniformScheduler};
use dasched::lowerbound::{analysis, search, HardInstance, HardInstanceParams};

fn main() {
    let params = HardInstanceParams::custom(6, 64, 32, 0.12);
    let inst = HardInstance::sample(params, 7);
    let (c, d, c_plus_d, target) = analysis::targets(&inst);
    println!(
        "hard instance: L={} eta={} k={} p={:.3}  (n={})",
        params.layers,
        params.eta,
        params.k,
        params.p,
        inst.graph().node_count()
    );
    println!("congestion={c} dilation={d}  C+D={c_plus_d}  log-factor target={target}");
    println!();

    // the Theorem 3.1 mechanism: at budgets near C+D, random
    // crossing patterns overload edges almost surely
    println!("crossing-pattern failure rates (Theorem 3.1 certificate):");
    for (rounds, phases) in [(1u32, 6u32), (1, 12), (2, 12), (4, 12), (8, 12)] {
        let budget = rounds as u64 * phases as u64 * 2;
        let rate = analysis::pattern_failure_rate(&inst, rounds, phases, 200, 3);
        println!(
            "  {phases} phases x {rounds} rounds/edge (budget ~{budget} rounds): {:.1}% of patterns overload",
            rate * 100.0
        );
    }
    println!();

    // best greedy schedule (an upper bound on OPT)
    let best = search::best_greedy(&inst, 12);
    println!(
        "best greedy schedule: {} rounds ({} phases x {} rounds) — ratio to C+D: {:.2}",
        best.length,
        best.phases_used,
        best.phase_rounds,
        best.length as f64 / c_plus_d as f64
    );
    println!();

    // and the real schedulers
    let problem = DasProblem::new(inst.graph(), inst.algorithms(), 11);
    for s in [
        Box::new(UniformScheduler::default()) as Box<dyn Scheduler>,
        Box::new(TunedUniformScheduler::default()),
    ] {
        let outcome = s.run(&problem).expect("valid instance");
        let report = verify::against_references(&problem, &outcome).expect("references");
        println!(
            "{:<14} schedule {} rounds, correct {:.1}%, ratio to C+D {:.2}",
            s.name(),
            outcome.schedule_rounds(),
            report.correctness_rate() * 100.0,
            outcome.schedule_rounds() as f64 / c_plus_d as f64
        );
    }
}
