//! Guess-independent planning artifacts: reuse the expensive part of
//! [`plan()`](crate::Scheduler::plan) across doubling attempts.
//!
//! The doubling search of [`crate::doubling`] re-sizes the same scheduler
//! for a sequence of congestion guesses. Most of what `plan()` computes
//! never looks at the guess: the private scheduler's carve/share
//! pre-computation (Lemmas 4.2/4.3) and its per-cluster `Θ(log n)`-wise
//! generators live over the fixed PRG field, and the raw generator words
//! each `(layer, cluster, algorithm)` draws are the same no matter how the
//! delay law is sized. Only the *law* — and the reduction of those words
//! into concrete delays — depends on the guess. This is exactly the
//! paper's "charge the pre-computation once" argument for standard
//! doubling: the instance-level decomposition is built once, and each
//! budget guess pays only for re-sampling.
//!
//! A [`PlanArtifact`] freezes that guess-independent prefix for one
//! `(problem, sched_seed)` pair. [`crate::Scheduler::build_artifact`]
//! constructs it and [`crate::Scheduler::size_plan`] turns it into a
//! [`SchedulePlan`] for a concrete guess. The split is **provably
//! invisible**: a plan sized from the artifact is byte-identical
//! (canonical JSON) to a from-scratch `plan()` with the corresponding
//! override — `tests/plan_cache_equivalence.rs` and the CI dump-diff
//! enforce it.
//!
//! Per-scheduler contents:
//!
//! * **private** — the [`Clustering`]-derived truncations and cluster
//!   index, the charged `precompute_rounds`, and the raw
//!   per-`(layer, cluster, algorithm)` generator word pairs (drawn over the
//!   fixed Mersenne field, so they are guess-independent); sizing only
//!   re-derives the delay law, reduces the cached pairs once per cluster
//!   and scatters them to the nodes.
//! * **uniform** — the phase length plus the shared [`KWiseGenerator`]
//!   and per-algorithm bucket draws at the scheduler's own default range.
//!   The uniform generator's modulus is the *prime delay span itself*
//!   (footnote 6), so draws at a different guess cannot be reused without
//!   breaking byte-identity — sizing reuses the cached draws when the
//!   guess maps to the cached modulus and rebuilds the (cheap,
//!   `Θ(log n)`-coefficient) generator otherwise. The congestion /
//!   dilation measurement feeding the default sizing is cached on the
//!   [`crate::DasProblem`] either way.
//! * **tuned / sequential / interleave** — nothing in these plans depends
//!   on a guess, so the artifact is the finished [`SchedulePlan`] itself
//!   and sizing is a clone.

use crate::plan::SchedulePlan;
use das_cluster::Clustering;
use das_prg::KWiseGenerator;

/// The cached, guess-independent prefix of one scheduler's planning work
/// for a fixed `(problem, sched_seed)` pair.
///
/// Build with [`crate::Scheduler::build_artifact`]; turn into plans with
/// [`crate::Scheduler::size_plan`]. An artifact is only meaningful for
/// the scheduler value (and problem) it was built from — sizing it with a
/// different scheduler panics.
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    scheduler: &'static str,
    sched_seed: u64,
    pub(crate) data: ArtifactData,
}

impl PlanArtifact {
    /// Wraps scheduler-specific artifact data (crate-internal: scheduler
    /// impls construct artifacts through `build_artifact`).
    pub(crate) fn new(scheduler: &'static str, sched_seed: u64, data: ArtifactData) -> Self {
        PlanArtifact {
            scheduler,
            sched_seed,
            data,
        }
    }

    /// An artifact holding a finished plan outright — the correct cache
    /// for schedulers with nothing guess-dependent to re-size.
    pub(crate) fn fixed(scheduler: &'static str, sched_seed: u64, plan: SchedulePlan) -> Self {
        PlanArtifact::new(scheduler, sched_seed, ArtifactData::Fixed(plan))
    }

    /// Name of the scheduler this artifact was built by.
    pub fn scheduler(&self) -> &'static str {
        self.scheduler
    }

    /// The `sched_seed` all plans sized from this artifact carry.
    pub fn sched_seed(&self) -> u64 {
        self.sched_seed
    }

    /// The pre-computation charge (in engine rounds) baked into every plan
    /// sized from this artifact — paid once no matter how many guesses are
    /// sized, which is the point of the cache.
    pub fn precompute_rounds(&self) -> u64 {
        match &self.data {
            ArtifactData::Fixed(plan) => plan.precompute_rounds,
            ArtifactData::Uniform(_) => 0,
            ArtifactData::Private(a) => a.precompute_rounds,
        }
    }

    /// Panics with a uniform message when a scheduler is handed an
    /// artifact it did not build.
    pub(crate) fn expect_scheduler(&self, name: &str) {
        assert_eq!(
            self.scheduler, name,
            "PlanArtifact built by `{}` cannot size plans for `{}`",
            self.scheduler, name
        );
    }
}

/// Scheduler-specific artifact payloads.
#[derive(Clone, Debug)]
pub(crate) enum ArtifactData {
    /// A finished plan: nothing the scheduler computes depends on a guess.
    Fixed(SchedulePlan),
    /// [`crate::UniformScheduler`] payload.
    Uniform(UniformArtifact),
    /// [`crate::PrivateScheduler`] payload.
    Private(PrivateArtifact),
}

/// Cached prefix for the shared-randomness uniform scheduler.
#[derive(Clone, Debug)]
pub(crate) struct UniformArtifact {
    /// `⌈phase_factor · ln n⌉` big-round length.
    pub(crate) phase_len: u64,
    /// The shared generator at the scheduler's *default* delay span. Its
    /// modulus is that span's prime, so draws transfer to a guess only
    /// when the guess maps to the same prime.
    pub(crate) gen: KWiseGenerator,
    /// Per-algorithm `(r1, r2)` bucket draws from [`UniformArtifact::gen`],
    /// in algorithm order.
    pub(crate) draws: Vec<(u64, u64)>,
}

/// Cached prefix for the private-randomness scheduler: everything up to
/// (and including) the raw generator draws; only the delay law and the
/// reduction of draws into delays remain per guess.
#[derive(Clone, Debug)]
pub(crate) struct PrivateArtifact {
    /// `⌈phase_factor · ln n⌉` big-round length.
    pub(crate) phase_len: u64,
    /// Carve + share rounds, charged once across all sized plans.
    pub(crate) precompute_rounds: u64,
    /// One entry per clustering layer (their count fixes the block-decay
    /// law's shape).
    pub(crate) layers: Vec<PrivateLayer>,
}

/// One clustering layer of a [`PrivateArtifact`], in cluster space: a
/// delay is a function of (layer, cluster, algorithm), so the raw words
/// are cached per cluster and scattered to nodes at sizing time.
#[derive(Clone, Debug)]
pub(crate) struct PrivateLayer {
    /// Per-node contained radii — each sized unit's truncation vector.
    pub(crate) trunc: Vec<u32>,
    /// Per-node dense cluster index (see [`das_cluster::Layer::cluster_of`]).
    pub(crate) cluster_of: Vec<u32>,
    /// Raw generator word pairs, indexed `algo · clusters + cluster`, drawn
    /// over the fixed Mersenne field (guess-independent).
    pub(crate) draws: Vec<(u64, u64)>,
}

/// The *seed-independent* prefix of one scheduler's planning work for a
/// fixed problem, shared across a whole **sched-seed sweep**.
///
/// Where [`PlanArtifact`] freezes the guess-independent prefix for one
/// `(problem, sched_seed)` pair, a `SweepArtifact` freezes the part of
/// planning that does not depend on the seed at all. A trial sweep builds
/// it once per `(problem, scheduler)` via
/// [`crate::Scheduler::build_sweep_artifact`] and derives every per-seed
/// plan via [`crate::Scheduler::plan_swept`]. The split is byte-invisible:
/// `plan_swept(problem, art, s)` equals `plan(problem, s)` in canonical
/// JSON for every seed `s` — `tests/plan_cache_equivalence.rs` enforces it
/// for all five schedulers.
///
/// Per-scheduler contents:
///
/// * **sequential / interleave** — the finished plan; the seed is pure
///   provenance, so re-seeding rewrites the `sched_seed` tag.
/// * **uniform / tuned** — the phase length and the delay range; the
///   `Θ(log n)`-coefficient generator and its draws are seed-dependent and
///   cheap, so each seed rebuilds them.
/// * **private** — the carved [`Clustering`] (Lemma 4.2), which draws from
///   the scheduler's *own* seed and is therefore sched-seed-independent;
///   each seed redoes only the in-cluster sharing (Lemma 4.3) and the
///   delay draws.
#[derive(Clone, Debug)]
pub struct SweepArtifact {
    scheduler: &'static str,
    pub(crate) data: SweepData,
}

impl SweepArtifact {
    /// Wraps scheduler-specific sweep data (crate-internal: scheduler
    /// impls construct sweep artifacts through `build_sweep_artifact`).
    pub(crate) fn new(scheduler: &'static str, data: SweepData) -> Self {
        SweepArtifact { scheduler, data }
    }

    /// An artifact holding a finished plan whose seed is pure provenance —
    /// re-seeding is a clone plus a `sched_seed` rewrite.
    pub(crate) fn seed_tagged(scheduler: &'static str, plan: SchedulePlan) -> Self {
        SweepArtifact::new(scheduler, SweepData::SeedTagged(plan))
    }

    /// The conservative no-cache artifact: `plan_swept` re-plans from
    /// scratch per seed, which is trivially byte-identical.
    pub(crate) fn replan(scheduler: &'static str) -> Self {
        SweepArtifact::new(scheduler, SweepData::Replan)
    }

    /// Name of the scheduler this artifact was built by.
    pub fn scheduler(&self) -> &'static str {
        self.scheduler
    }

    /// Whether the artifact actually carries shared planning work (`false`
    /// for the conservative replan form) — what a sweep harness should
    /// count as a cache hit per derived plan.
    pub fn shares_planning(&self) -> bool {
        !matches!(self.data, SweepData::Replan)
    }

    /// Panics with a uniform message when a scheduler is handed a sweep
    /// artifact it did not build.
    pub(crate) fn expect_scheduler(&self, name: &str) {
        assert_eq!(
            self.scheduler, name,
            "SweepArtifact built by `{}` cannot derive plans for `{}`",
            self.scheduler, name
        );
    }
}

/// Scheduler-specific sweep-artifact payloads.
#[derive(Clone, Debug)]
pub(crate) enum SweepData {
    /// Nothing cached: derive each seed's plan from scratch.
    Replan,
    /// A finished plan whose `sched_seed` is pure provenance.
    SeedTagged(SchedulePlan),
    /// [`crate::UniformScheduler`] / [`crate::TunedUniformScheduler`]
    /// payload: the seed-independent sizing.
    Uniform(UniformSweep),
    /// [`crate::PrivateScheduler`] payload: the carved clustering.
    Private(PrivateSweep),
}

/// Seed-independent sizing for the shared-randomness schedulers.
#[derive(Clone, Debug)]
pub(crate) struct UniformSweep {
    /// Big-round length.
    pub(crate) phase_len: u64,
    /// Requested delay range (pre-prime-rounding) in big-rounds.
    pub(crate) range: u64,
}

/// Seed-independent prefix for the private-randomness scheduler.
#[derive(Clone, Debug)]
pub(crate) struct PrivateSweep {
    /// The carved clustering (Lemma 4.2), drawn from the scheduler's own
    /// seed — identical for every plan of the sweep.
    pub(crate) clustering: Clustering,
}
