//! Pinned plan bytes: fnv1a-64 of `SchedulePlan::to_json()` for the private
//! scheduler's variants and the uniform scheduler on two small instances.
//!
//! The hashes were computed at the commit *before* planning moved to
//! cluster space (per-cluster draws, pruned carving, table-free
//! `predicted_rounds`), so they prove that move changed no plan byte — and
//! any later planning change that moves bytes fails here, by name, instead
//! of silently moving `quality_ratio`. To re-pin after an *intended* plan
//! change, run with `--nocapture`: the failure message lists every
//! `(case, actual hash)` pair.

use das_core::net::fnv1a;
use das_core::synthetic::FloodBall;
use das_core::{
    BlackBoxAlgorithm, DasProblem, PrivateDelayLaw, PrivateScheduler, Scheduler, UniformScheduler,
};
use das_graph::{generators, Graph, NodeId};

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
    let plan = |s: &dyn Scheduler| s.plan(p, SCHED_SEED).expect("model-valid workload");
    let doubling_guess = {
        let art = private.build_artifact(p, SCHED_SEED).expect("artifact");
        private.size_plan(p, &art, Some(8)).expect("sized plan")
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
        ("uniform", plan(&UniformScheduler::default())),
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
        ],
    );
}
