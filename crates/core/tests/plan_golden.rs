//! Pinned plan bytes: fnv1a-64 of `SchedulePlan::to_json()` for every
//! scheduler (and the private scheduler's variants) on two small
//! instances, plus the pinned verdicts of the doubling searches.
//!
//! The first six hashes per instance were computed at the commit *before*
//! planning moved to cluster space (per-cluster draws, pruned carving,
//! table-free `predicted_rounds`), so they prove that move changed no plan
//! byte. The rest — and the doubling golden, generated from the
//! replan-from-scratch reference path that commit still had
//! (`DoublingConfig::reuse_artifact: false`) — were computed at the commit
//! *before* planning became one three-stage chain, so they prove that
//! folding the from-scratch, sized and swept paths together moved nothing. Any later planning change that moves bytes fails here,
//! by name, instead of silently moving `quality_ratio`. To re-pin after an
//! *intended* plan change, run with `--nocapture`: the failure message
//! lists every `(case, actual)` pair.

use das_core::doubling::Search;
use das_core::net::fnv1a;
use das_core::pipeline::{self, PlanFrom, Ran};
use das_core::synthetic::{FloodBall, RelayChain};
use das_core::{
    BlackBoxAlgorithm, DasProblem, ExecOptions, InterleaveScheduler, PrivateDelayLaw,
    PrivateScheduler, Scheduler, SequentialScheduler, TunedUniformScheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};
use das_obs::Stages;

const SCHED_SEED: u64 = 7;

fn floods(g: &Graph, k: u64, tape_seed: u64) -> DasProblem<'_> {
    let n = g.node_count() as u64;
    let algos = (0..k)
        .map(|i| {
            let src = NodeId(((i * 7 + 3) % n) as u32);
            Box::new(FloodBall::new(i, g, src, 3)) as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    DasProblem::new(g, algos, tape_seed)
}

/// Every pinned variant's plan JSON hash on `p`, in a fixed order.
fn hashes(p: &DasProblem<'_>) -> Vec<(&'static str, u64)> {
    let private = PrivateScheduler::default();
    let uniform = UniformScheduler::default();
    let tuned = TunedUniformScheduler::default();
    let plan = |s: &dyn Scheduler| s.plan(p, SCHED_SEED).expect("model-valid workload");
    let sized_for_guess8 = |s: &dyn Scheduler| {
        let art = s.build_artifact(p, SCHED_SEED).expect("artifact");
        s.size_plan(p, &art, Some(8)).expect("sized plan")
    };
    let doubling_guess = sized_for_guess8(&private);
    let swept = {
        let art = private.build_sweep_artifact(p).expect("sweep artifact");
        private.plan_swept(p, &art, SCHED_SEED).expect("swept plan")
    };
    [
        ("private", plan(&private)),
        (
            "private/uniform_wide",
            plan(&private.clone().with_delay_law(PrivateDelayLaw::UniformWide)),
        ),
        ("private/layers4", plan(&private.clone().with_layers(4))),
        (
            "private/distributed",
            plan(&private.clone().with_distributed_precompute(true)),
        ),
        ("private/size_plan_guess8", doubling_guess),
        ("uniform", plan(&uniform)),
        ("tuned", plan(&tuned)),
        ("sequential", plan(&SequentialScheduler)),
        ("interleave", plan(&InterleaveScheduler)),
        ("uniform/size_plan_guess8", sized_for_guess8(&uniform)),
        // tuned has no span override: sizing ignores the guess
        ("tuned/size_plan_guess8", sized_for_guess8(&tuned)),
        ("private/plan_swept", swept),
    ]
    .into_iter()
    .map(|(name, plan)| (name, fnv1a(plan.to_json().as_bytes())))
    .collect()
}

fn assert_pinned(instance: &str, p: &DasProblem<'_>, want: &[(&str, u64)]) {
    let got = hashes(p);
    let listing: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("(\"{name}\", {h:#018x}),"))
        .collect();
    assert_eq!(
        got,
        want,
        "plan bytes moved on {instance}; actual hashes:\n{}",
        listing.join("\n")
    );
}

#[test]
fn plan_bytes_are_pinned_on_a_grid() {
    let g = generators::grid(6, 6);
    assert_pinned(
        "grid(6,6)",
        &floods(&g, 5, 21),
        &[
            ("private", 0xa63f4073df0af0ea),
            ("private/uniform_wide", 0x3a60882c3e06d6ed),
            ("private/layers4", 0x667605756de4526e),
            ("private/distributed", 0xa63f4073df0af0ea),
            ("private/size_plan_guess8", 0x39adecd5d3c8607f),
            ("uniform", 0xb099ed5165b3f26e),
            ("tuned", 0xdc94bcfe6548ffd6),
            ("sequential", 0x9da1102557edb2ea),
            ("interleave", 0xf95ede5d86a82340),
            ("uniform/size_plan_guess8", 0x51e8af45d3db5c8a),
            ("tuned/size_plan_guess8", 0xdc94bcfe6548ffd6),
            ("private/plan_swept", 0xa63f4073df0af0ea),
        ],
    );
}

#[test]
fn plan_bytes_are_pinned_on_a_gnp() {
    let g = generators::gnp_connected(30, 0.12, 5);
    assert_pinned(
        "gnp_connected(30, 0.12, 5)",
        &floods(&g, 4, 9),
        &[
            ("private", 0x5e907c310782ce17),
            ("private/uniform_wide", 0xdf16ace966b3fb5e),
            ("private/layers4", 0xfe92f3f8a2a276f2),
            ("private/distributed", 0x5e907c310782ce17),
            ("private/size_plan_guess8", 0xcfad842d4c25c29d),
            ("uniform", 0x64a8b5d9da59b9f4),
            ("tuned", 0xf70f9c8b4127bc74),
            ("sequential", 0xb43d05321304c831),
            ("interleave", 0xacb146f29bdaf7d7),
            ("uniform/size_plan_guess8", 0x32e24ad0c582c398),
            ("tuned/size_plan_guess8", 0xf70f9c8b4127bc74),
            ("private/plan_swept", 0x5e907c310782ce17),
        ],
    );
}

/// One search's verdict on one line: what it decided, what it charged, and
/// a hash of everything it executed (the final `ScheduleOutcome`'s debug
/// dump: outputs, stats, departures).
fn search_line(ran: &Ran) -> String {
    let (r, outcome) = (
        ran.search.as_ref().expect("a search"),
        &ran.executed.outcome,
    );
    format!(
        "attempts={} ranges={:?} final_guess={} wasted={} fell_back={} precompute={} outcome={:#018x}",
        r.attempts,
        r.attempted_ranges,
        r.final_guess,
        r.wasted_rounds,
        r.fell_back,
        outcome.precompute_rounds,
        fnv1a(format!("{outcome:?}").as_bytes()),
    )
}

/// The uniform search, the private search and the forced fallback of each
/// on a path instance congested enough to force several attempts (16
/// relays stacked on 11 edges).
#[test]
fn doubling_searches_are_pinned() {
    let g = generators::path(12);
    let algos = (0..16)
        .map(|i| Box::new(RelayChain::new(i, &g)) as Box<dyn BlackBoxAlgorithm>)
        .collect();
    let p = DasProblem::new(&g, algos, 3);
    let (search, forced_fallback) = (None, Some(1));
    let (uniform, private) = (UniformScheduler::default(), PrivateScheduler::default());
    let run = |search, seed, cap| {
        let from = PlanFrom::Doubling { search, seed, cap };
        pipeline::run(&p, from, ExecOptions::default(), &mut Stages::default())
            .expect("model-valid workload")
    };
    let uniform = |cap| run(Search::Uniform(&uniform), uniform.default_sched_seed(), cap);
    let private = |cap| run(Search::Private(&private), private.default_sched_seed(), cap);
    let got = [
        ("uniform", search_line(&uniform(search))),
        ("private", search_line(&private(search))),
        (
            "uniform/forced_fallback",
            search_line(&uniform(forced_fallback)),
        ),
        (
            "private/forced_fallback",
            search_line(&private(forced_fallback)),
        ),
    ];
    let want = [
        ("uniform", "attempts=3 ranges=[2, 5, 11] final_guess=33 wasted=260 fell_back=false precompute=260 outcome=0xd1c25b4669f88a8a"),
        ("private", "attempts=2 ranges=[12, 15] final_guess=12 wasted=92 fell_back=false precompute=5350 outcome=0x4c6db48831d28b5f"),
        ("uniform/forced_fallback", "attempts=1 ranges=[2] final_guess=6 wasted=126 fell_back=true precompute=126 outcome=0xa07190cf069ef7a6"),
        ("private/forced_fallback", "attempts=1 ranges=[12] final_guess=6 wasted=92 fell_back=true precompute=5350 outcome=0x3a276b702769c530"),
    ];
    let listing: Vec<String> = got
        .iter()
        .map(|(name, line)| format!("(\"{name}\", \"{line}\"),"))
        .collect();
    assert!(
        got.iter().map(|(n, l)| (*n, l.as_str())).eq(want),
        "a doubling search moved; actual verdicts:\n{}",
        listing.join("\n")
    );
}
