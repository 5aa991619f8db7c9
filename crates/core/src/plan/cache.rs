//! Planning artifacts: the two reusable prefixes of the planning chain.
//!
//! Planning is a chain of narrowing dependence — the carve depends on the
//! problem only (Lemma 4.2), the sharing on the seed (Lemma 4.3), the
//! delay law on the congestion guess (Lemma 4.4) — and every scheduler
//! writes it as exactly three stages:
//!
//! 1. [`crate::Scheduler::build_sweep_artifact`]`(problem)` — everything
//!    that ignores the `sched_seed`: a [`SweepArtifact`], shared by a whole
//!    seed sweep;
//! 2. [`crate::Scheduler::seed_artifact`]`(problem, &sweep, sched_seed)` —
//!    everything that ignores the congestion guess: a [`PlanArtifact`],
//!    shared by every attempt of a doubling search (the paper's "charge the
//!    pre-computation once" argument, computed once too);
//! 3. [`crate::Scheduler::size_plan`]`(problem, &artifact, guess)` — the
//!    delay law and the reduction of the cached draws into delays: a
//!    [`SchedulePlan`].
//!
//! [`crate::Scheduler::plan`], [`crate::Scheduler::plan_swept`] and
//! [`crate::Scheduler::build_artifact`] are compositions of those stages,
//! so a plan sized from a reused artifact is the plan a fresh chain gives
//! *by construction*; what `tests/plan_cache_equivalence.rs` still checks
//! is that an explicit guess equals the scheduler's own span override and
//! that no stage mutates what it reuses.
//!
//! What each scheduler caches where:
//!
//! | scheduler | stage 1 (sweep) | stage 2 (seeded) | stage 3 (sized) |
//! |---|---|---|---|
//! | sequential / interleave | the finished plan (the seed is pure provenance) | the plan, re-tagged | a clone |
//! | uniform / tuned | phase length and delay range | the shared generator at that range's prime, and its per-algorithm draws | the law; the draws reduced to delays |
//! | private | the carved [`Clustering`] (drawn from the scheduler's *own* seed) | the shared seeds' raw per-(layer, cluster, algorithm) generator words over the fixed Mersenne field, truncations, cluster index, the charged `precompute_rounds` | the law; the words reduced once per cluster and scattered to the nodes |
//!
//! The uniform generator's modulus is the *prime delay span itself*
//! (footnote 6), so its draws transfer to a guess only when the guess maps
//! to the cached prime; otherwise sizing rebuilds the (cheap,
//! `Θ(log n)`-coefficient) generator. Tuned has no span override and
//! ignores the guess.

use crate::plan::SchedulePlan;
use das_cluster::Clustering;
use das_prg::KWiseGenerator;

/// The cached, guess-independent prefix of one scheduler's planning work
/// for a fixed `(problem, sched_seed)` pair (stage 2 of the chain).
///
/// Build with [`crate::Scheduler::seed_artifact`] (or, from nothing,
/// [`crate::Scheduler::build_artifact`]); turn into plans with
/// [`crate::Scheduler::size_plan`]. An artifact is only meaningful for
/// the scheduler value (and problem) it was built from — sizing it with a
/// different scheduler panics.
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    scheduler: &'static str,
    sched_seed: u64,
    data: ArtifactData,
}

impl PlanArtifact {
    /// Wraps scheduler-specific artifact data (crate-internal: scheduler
    /// impls construct artifacts through `seed_artifact`).
    pub(crate) fn new(scheduler: &'static str, sched_seed: u64, data: ArtifactData) -> Self {
        PlanArtifact {
            scheduler,
            sched_seed,
            data,
        }
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

    /// The payload, for the scheduler `name` that built it.
    ///
    /// # Panics
    /// Panics with a uniform message when a scheduler is handed an
    /// artifact it did not build.
    pub(crate) fn payload(&self, name: &str) -> &ArtifactData {
        assert_eq!(
            self.scheduler, name,
            "PlanArtifact built by `{}` cannot size plans for `{}`",
            self.scheduler, name
        );
        &self.data
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
    /// The shared generator at the swept (scheduler's own) delay range. Its
    /// modulus is that range's prime, so draws transfer to a guess only
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
/// fixed problem (stage 1 of the chain), shared across a whole
/// **sched-seed sweep**.
///
/// A trial sweep builds it once per `(problem, scheduler)` via
/// [`crate::Scheduler::build_sweep_artifact`] and derives every per-seed
/// plan via [`crate::Scheduler::plan_swept`] (or, for a doubling search per
/// seed, every per-seed [`PlanArtifact`] via
/// [`crate::Scheduler::seed_artifact`]).
#[derive(Clone, Debug)]
pub struct SweepArtifact {
    scheduler: &'static str,
    data: SweepData,
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

    /// Name of the scheduler this artifact was built by.
    pub fn scheduler(&self) -> &'static str {
        self.scheduler
    }

    /// The payload, for the scheduler `name` that built it.
    ///
    /// # Panics
    /// Panics with a uniform message when a scheduler is handed a sweep
    /// artifact it did not build.
    pub(crate) fn payload(&self, name: &str) -> &SweepData {
        assert_eq!(
            self.scheduler, name,
            "SweepArtifact built by `{}` cannot derive plans for `{}`",
            self.scheduler, name
        );
        &self.data
    }
}

/// Scheduler-specific sweep-artifact payloads.
#[derive(Clone, Debug)]
pub(crate) enum SweepData {
    /// Nothing cached: the scheduler overrides [`crate::Scheduler::plan`]
    /// instead of writing stages (none in this crate does), and seeding
    /// calls that.
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
