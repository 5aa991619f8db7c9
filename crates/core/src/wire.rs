//! The wire format: every byte that crosses a TCP link is laid out here,
//! and nowhere else.
//!
//! A link carries **frames** — `[u32 LE body length][u8 kind][body]`
//! ([`FramedConn`]). Each frame kind is a constant below, and next to it
//! sits the one typed body that knows its layout. A body's layout *is* its
//! declaration: `encode` writes every field in declaration order, each as
//! its type's encoding, and `decode` reads them back — so the field list,
//! with its doc comments, is the protocol's frame table. The encodings:
//!
//! | field type | bytes |
//! |---|---|
//! | `u8`, `u32`, `u64` | little-endian |
//! | `bool` | `u8`, nonzero = true |
//! | `&[u8]`, `String` | `u32` length, then the bytes (a `String` is read lossily) |
//! | `Cow<[T]>` | `u32` count, then the entries |
//! | `(A, B)`, a nested struct | its parts, in order |
//! | `Option<Vec<u8>>` (a node's output) | `u8` tag, then — tag 1 — the output as bytes |
//! | [`Flights`] | `u32` count, then the [`Flight`]s |
//! | [`Hashed`] | `u64` FNV-1a of the bytes, then the bytes |
//! | `Option<ActivityTotals>` | nothing, or the totals — see *Tails* |
//!
//! [`crate::net`] and [`crate::serve`] decide who sends what when; they
//! never touch a byte.
//!
//! ## Decoding untrusted bodies
//!
//! Every read is bounds-checked and every element count is checked against
//! the bytes that remain *before* anything is reserved, so a short or lying
//! body decodes to [`ExecError::TruncatedFrame`] — never a panic, never an
//! allocation larger than the body.
//!
//! ## Tails, and why the version does not move
//!
//! Decoders ignore bytes past the last field they know. That is what lets a
//! frame grow an **optional tail** without a [`PROTOCOL_VERSION`] bump: an
//! older peer skips it, a newer peer reads it when present. [`Activity`]'s
//! cumulative totals are the one tail today. The version moves only when a
//! peer that ignores the change would misbehave — v2 did (ASSIGN ships a
//! slice, not the plan).

use crate::exec::{ExecError, ExecStats, ShardStats};
use crate::problem::DasProblem;
use crate::serve::{Budgets, Capacity, JobKind, JobSpec, JobStatus, Rejection};
use das_graph::NodeId;
use das_pattern::{SimulationMap, TimedArc};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Version of the wire protocol. A coordinator rejects workers announcing
/// any other version with [`ExecError::VersionMismatch`].
///
/// v2: ASSIGN ships a per-shard plan *slice* (guarded by its own hash next
/// to the full-plan hash) instead of the full plan, late JOINs get a typed
/// REJECT, and the serve-path frames (HELLO/CAPS/SUBMIT/…) exist.
pub const PROTOCOL_VERSION: u32 = 2;

/// The protocol name of a frame kind, for error messages.
fn kind_name(kind: u8) -> &'static str {
    const NAMES: [&str; 17] = [
        "unknown", "JOIN", "ASSIGN", "REJECT", "OUTBOX", "INBOX", "ACTIVITY", "DECISION", "DONE",
        "ERROR", "ABORT", "SUBMIT", "ACCEPTED", "REJECTED", "RESULT", "HELLO", "CAPS",
    ];
    NAMES.get(kind as usize).copied().unwrap_or(NAMES[0])
}

// ---------------------------------------------------------------- fields

/// Cursor over a received frame body. Every read is bounds-checked; a
/// short body decodes to [`ExecError::TruncatedFrame`].
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> ExecError {
        ExecError::TruncatedFrame {
            detail: format!("body ended while decoding {what}"),
        }
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], ExecError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.truncated(what))?;
        let taken = &self.buf[self.pos..end];
        self.pos = end;
        Ok(taken)
    }

    /// Checks an element count read off the wire against the bytes that
    /// remain: `count` entries of at least `min_entry` bytes each must
    /// still fit, so a lying count fails here instead of in an allocator.
    fn room_for(&self, count: u64, min_entry: usize, what: &str) -> Result<usize, ExecError> {
        let fits = (self.buf.len() - self.pos) / min_entry.max(1);
        if count <= fits as u64 {
            Ok(count as usize)
        } else {
            Err(self.truncated(what))
        }
    }
}

/// A value with a place in a frame body: how it is written and read back.
trait Field<'a>: Sized {
    /// Fewest bytes one encoded value takes — what [`ByteReader::room_for`]
    /// holds a list's count against.
    const MIN_BYTES: usize;
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError>;
}

macro_rules! int_fields {
    ($($int:ty),*) => {$(
        impl Field<'_> for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
                let bytes = r.take(Self::MIN_BYTES, what)?;
                Ok(<$int>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}
int_fields!(u8, u32, u64);

impl Field<'_> for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u8).put(w);
    }
    fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
        Ok(u8::get(r, what)? != 0)
    }
}

impl<'a> Field<'a> for &'a [u8] {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.extend_from_slice(self);
    }
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError> {
        let len = u32::get(r, what)? as usize;
        r.take(len, what)
    }
}

impl Field<'_> for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Vec<u8>) {
        self.as_bytes().put(w);
    }
    fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
        Ok(String::from_utf8_lossy(<&[u8]>::get(r, what)?).into_owned())
    }
}

impl<'a, T: Field<'a> + Clone> Field<'a> for Cow<'a, [T]> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        self.iter().for_each(|item| item.put(w));
    }
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError> {
        let count = u32::get(r, what)?;
        let mut items = Vec::with_capacity(r.room_for(count as u64, T::MIN_BYTES, what)?);
        for _ in 0..count {
            items.push(T::get(r, what)?);
        }
        Ok(Cow::Owned(items))
    }
}

impl<'a, A: Field<'a>, B: Field<'a>> Field<'a> for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError> {
        Ok((A::get(r, what)?, B::get(r, what)?))
    }
}

/// One node's output, in DONE and RESULT alike.
impl Field<'_> for Option<Vec<u8>> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            Some(bytes) => {
                1u8.put(w);
                bytes.as_slice().put(w);
            }
            None => 0u8.put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
        Ok(match u8::get(r, what)? {
            0 => None,
            _ => Some(<&[u8]>::get(r, what)?.to_vec()),
        })
    }
}

/// Gives a struct the layout "every listed field, in order".
macro_rules! layout {
    ($name:ident $(<$lt:lifetime>)? { $($field:ident: $ty:ty,)* }) => {
        impl<'a> Field<'a> for $name $(<$lt>)? {
            const MIN_BYTES: usize = 0 $(+ <$ty as Field<'a>>::MIN_BYTES)*;
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut ByteReader<'a>, _: &'static str) -> Result<Self, ExecError> {
                Ok($name {
                    $($field: Field::get(r, concat!(stringify!($name), " ", stringify!($field)))?,)*
                })
            }
        }
    };
}

/// Declares a frame body: a public struct with that layout, plus the
/// `encode` / `decode` pair every frame body has.
macro_rules! body {
    (
        $(#[$doc:meta])*
        pub struct $name:ident $(<$lt:lifetime>)? {
            $($(#[$field_doc:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name $(<$lt>)? {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        layout!($name $(<$lt>)? { $($field: $ty,)* });

        impl<'a> $name $(<$lt>)? {
            /// The frame body: every field, in declaration order.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Vec::new();
                self.put(&mut w);
                w
            }

            /// Reads a frame body (borrowing from it what the type
            /// borrows), ignoring bytes past the last field.
            ///
            /// # Errors
            /// [`ExecError::TruncatedFrame`] on a short body or a count
            /// the body cannot hold.
            pub fn decode(body: &'a [u8]) -> Result<Self, ExecError> {
                Field::get(&mut ByteReader::new(body), "")
            }
        }
    };
}

// ---------------------------------------------------------------- fingerprints

/// FNV-1a 64-bit hash, used for the plan hashes and the handshake
/// fingerprints. Stable across platforms and dependency-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A structural fingerprint of just the graph — `nodes: u64`, then `a: u32,
/// b: u32` per edge in edge order, hashed: the serve-path analogue of
/// [`problem_fingerprint`]. A serve client has no [`DasProblem`] yet — jobs
/// arrive later — so the HELLO/CAPS handshake checks only that both sides
/// were launched on the same graph spec.
pub fn graph_fingerprint(g: &das_graph::Graph) -> u64 {
    fnv1a(&graph_words(g))
}

fn graph_words(g: &das_graph::Graph) -> Vec<u8> {
    let mut w = Vec::new();
    (g.node_count() as u64).put(&mut w);
    for e in g.edges() {
        let (a, b) = g.endpoints(e);
        (a.0, b.0).put(&mut w);
    }
    w
}

/// A structural fingerprint of the problem: the graph's words, then `tape
/// seed: u64, k: u64` and per algorithm `aid: u64, rounds: u32`, hashed.
/// Coordinator and workers build their problems independently from
/// identical CLI flags; the fingerprint catches a divergence (different
/// graph, workload, or seed) at handshake time instead of as silent wrong
/// outputs.
pub fn problem_fingerprint(problem: &DasProblem<'_>) -> u64 {
    let mut w = graph_words(problem.graph());
    (problem.tape_seed(), problem.k() as u64).put(&mut w);
    for a in problem.algorithms() {
        (a.aid().0, a.rounds()).put(&mut w);
    }
    fnv1a(&w)
}

// ---------------------------------------------------------------- handshake

/// worker → coordinator: a [`Greeting`] carrying the [`problem_fingerprint`].
pub const JOIN: u8 = 1;
/// client → server: a [`Greeting`] carrying the [`graph_fingerprint`] (a
/// serve client has no problem yet, only a graph).
pub const HELLO: u8 = 15;

body! {
    /// JOIN and HELLO, the opening frame of either handshake.
    pub struct Greeting {
        /// The sender's [`PROTOCOL_VERSION`].
        pub version: u32,
        /// The sender's problem (JOIN) or graph (HELLO) fingerprint.
        pub fingerprint: u64,
    }
}

/// coordinator → worker, server → client: [`Reject`].
pub const REJECT: u8 = 3;
/// REJECT code: protocol version mismatch.
pub const REJECT_VERSION: u32 = 1;
/// REJECT code: problem (or graph) fingerprint mismatch.
pub const REJECT_PROBLEM: u32 = 2;
/// REJECT code: the worker JOINed after every shard slot was assigned.
pub const REJECT_FULL: u32 = 3;

body! {
    /// REJECT, the handshake failed: a code and the two values that
    /// disagreed, seen from the rejecting side (versions, fingerprints, or
    /// — `REJECT_FULL` — the shard count twice).
    pub struct Reject {
        /// A `REJECT_*` code.
        pub code: u32,
        /// The rejecting side's value.
        pub ours: u64,
        /// The value the greeter announced.
        pub theirs: u64,
    }
}

impl Reject {
    /// The typed error this rejection stands for — the same one on the
    /// side that sent it and the side that received it.
    pub fn to_error(&self) -> ExecError {
        match self.code {
            REJECT_VERSION => ExecError::VersionMismatch {
                coordinator: self.ours as u32,
                worker: self.theirs as u32,
            },
            REJECT_PROBLEM => ExecError::ProblemMismatch {
                coordinator: self.ours,
                worker: self.theirs,
            },
            REJECT_FULL => ExecError::LateJoin {
                shards: self.ours as usize,
            },
            other => ExecError::Net {
                detail: format!("coordinator rejected the handshake with unknown code {other}"),
            },
        }
    }
}

/// The one handshake check, for both JOIN and HELLO: versions first, then
/// fingerprints.
///
/// # Errors
/// The [`Reject`] to answer `theirs` with.
pub fn check_greeting(ours: &Greeting, theirs: &Greeting) -> Result<(), Reject> {
    let (code, ours, theirs) = if theirs.version != ours.version {
        (REJECT_VERSION, ours.version as u64, theirs.version as u64)
    } else if theirs.fingerprint != ours.fingerprint {
        (REJECT_PROBLEM, ours.fingerprint, theirs.fingerprint)
    } else {
        return Ok(());
    };
    Err(Reject { code, ours, theirs })
}

/// Bytes shipped behind their own FNV-1a hash: `encode` writes the hash,
/// `decode` recomputes it and refuses a mismatch with
/// [`ExecError::PlanHashMismatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hashed<'a>(pub &'a [u8]);

impl<'a> Field<'a> for Hashed<'a> {
    const MIN_BYTES: usize = 12;
    fn put(&self, w: &mut Vec<u8>) {
        (fnv1a(self.0), self.0).put(w);
    }
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError> {
        let (expected, bytes) = <(u64, &[u8])>::get(r, what)?;
        match fnv1a(bytes) {
            got if got == expected => Ok(Hashed(bytes)),
            got => Err(ExecError::PlanHashMismatch { expected, got }),
        }
    }
}

/// coordinator → worker: [`Assign`].
pub const ASSIGN: u8 = 2;

body! {
    /// ASSIGN, the coordinator's answer to a good JOIN.
    pub struct Assign<'a> {
        /// The shard this worker runs.
        pub shard: u32,
        /// Total shards in the run.
        pub shards: u32,
        /// FNV-1a of the *full* plan's canonical JSON: the run's identity
        /// across workers.
        pub plan_hash: u64,
        /// The worker's plan slice — the full plan restricted to the
        /// shard's nodes ([`crate::SchedulePlan::slice_for_shard`]) — as
        /// canonical JSON, guarded by its own hash.
        pub slice_json: Hashed<'a>,
        /// Shard index of every node.
        pub of_node: Cow<'a, [u32]>,
    }
}

// ---------------------------------------------------------------- flights

body! {
    /// One cross-shard message in flight (24 bytes + payload). The
    /// endpoints are implied by the arc; they ride along so a frame dump
    /// is readable on its own.
    pub struct Flight<'a> {
        /// Arc index the message travels on.
        pub arc: u32,
        /// Destination node (the arc's head).
        pub dst: u32,
        /// Algorithm index within the problem.
        pub algo: u32,
        /// Algorithm round the message was sent in.
        pub round: u32,
        /// Sending node (the arc's tail).
        pub from: u32,
        /// The message payload.
        pub payload: &'a [u8],
    }
}

/// An owned, reusable buffer of encoded [`Flight`]s in send order: what a
/// shard stages for one peer during a step phase, and — the same bytes,
/// never re-encoded — what the OUTBOX and INBOX frames carry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightGroup {
    count: u32,
    bytes: Vec<u8>,
}

impl FlightGroup {
    /// Appends one flight.
    #[inline]
    pub fn push(&mut self, flight: Flight<'_>) {
        flight.put(&mut self.bytes);
        self.count += 1;
    }

    /// Appends a copy of `flights`, already encoded, after the staged ones.
    pub fn append(&mut self, flights: Flights<'_>) {
        self.count += flights.count;
        self.bytes.extend_from_slice(flights.bytes);
    }

    /// Whether no flight is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Empties the group, keeping its allocation.
    pub fn clear(&mut self) {
        self.count = 0;
        self.bytes.clear();
    }

    /// The staged flights, borrowed.
    pub fn flights(&self) -> Flights<'_> {
        Flights {
            count: self.count,
            bytes: &self.bytes,
        }
    }
}

/// A borrowed run of encoded [`Flight`]s — a [`FlightGroup`]'s contents or
/// a stretch of a received OUTBOX / INBOX body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flights<'a> {
    count: u32,
    bytes: &'a [u8],
}

impl<'a> Flights<'a> {
    /// Decodes the flights in order. A run only ever comes from
    /// [`FlightGroup::push`] or from a `decode` that walked it, so its
    /// framing is known good.
    pub fn iter(&self) -> impl Iterator<Item = Flight<'a>> {
        let mut r = ByteReader::new(self.bytes);
        (0..self.count)
            .map(move |_| Flight::get(&mut r, "").expect("flight runs are walked when read"))
    }
}

impl<'a> Field<'a> for Flights<'a> {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Vec<u8>) {
        self.count.put(w);
        w.extend_from_slice(self.bytes);
    }
    /// Walks the flights once, so a run that decodes is a run that iterates.
    fn get(r: &mut ByteReader<'a>, what: &'static str) -> Result<Self, ExecError> {
        let count = u32::get(r, what)?;
        r.room_for(count as u64, Flight::MIN_BYTES, what)?;
        let start = r.pos;
        for _ in 0..count {
            Flight::get(r, what)?;
        }
        Ok(Flights {
            count,
            bytes: &r.buf[start..r.pos],
        })
    }
}

// ---------------------------------------------------------------- barriers

/// worker → coordinator: [`Outbox`].
pub const OUTBOX: u8 = 4;

body! {
    /// OUTBOX, the first half of the exchange barrier: the cross-shard
    /// flights the worker staged during the step phase.
    pub struct Outbox<'a> {
        /// The big-round whose step phase staged these flights.
        pub big_round: u64,
        /// `(destination shard, its flights)`, in the sender's shard order.
        pub groups: Cow<'a, [(u32, Flights<'a>)]>,
    }
}

/// coordinator → worker: [`Inbox`].
pub const INBOX: u8 = 5;

body! {
    /// INBOX, the second half of the exchange barrier.
    pub struct Inbox<'a> {
        /// The big-round being exchanged.
        pub big_round: u64,
        /// Everything bound for the receiving shard, merged by the
        /// coordinator in ascending source-shard order.
        pub flights: Flights<'a>,
    }
}

/// worker → coordinator: [`Activity`].
pub const ACTIVITY: u8 = 6;

body! {
    /// ACTIVITY, the first half of the termination barrier.
    pub struct Activity {
        /// The big-round just drained.
        pub big_round: u64,
        /// Whether the shard still holds undrained arcs after the drain.
        pub active: bool,
        /// The **optional tail**: the worker's cumulative totals, for the
        /// coordinator's live hub. A body that ends after the flag is
        /// valid (a worker that predates the tail); one that ends inside
        /// the tail is truncated.
        pub totals: Option<ActivityTotals>,
    }
}

body! {
    /// A worker's cumulative totals, piggybacked on [`Activity`].
    pub struct ActivityTotals {
        /// Machine steps executed so far.
        pub steps: u64,
        /// Messages delivered in time so far.
        pub delivered: u64,
        /// Messages dropped late so far.
        pub late: u64,
        /// Messages sent to other shards so far.
        pub cross_sent: u64,
    }
}

/// The optional tail: present exactly when the body goes on.
impl Field<'_> for Option<ActivityTotals> {
    const MIN_BYTES: usize = 0;
    fn put(&self, w: &mut Vec<u8>) {
        if let Some(totals) = self {
            totals.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
        if r.pos == r.buf.len() {
            return Ok(None);
        }
        ActivityTotals::get(r, what).map(Some)
    }
}

/// coordinator → worker: [`Decision`].
pub const DECISION: u8 = 7;

body! {
    /// DECISION, the second half of the termination barrier: the verdict
    /// for this big-round, taken against the *full* plan's last step round
    /// (a worker only holds its slice).
    pub struct Decision {
        /// The big-round decided.
        pub big_round: u64,
        /// Whether every shard leaves the loop now.
        pub done: bool,
    }
}

// ---------------------------------------------------------------- endings

/// worker → coordinator: [`Done`].
pub const DONE: u8 = 8;

/// DONE, a finished shard — the big-round loop's own output type, and the
/// one body written by hand. Fourteen `u64`s: `big_rounds,
/// last_activity_round`, the [`ExecStats`] counters `delivered,
/// late_messages, invalid_sends, max_arc_queue`, the [`ShardStats`] `shard,
/// nodes, degree, steps, delivered, cross_sent, step_nanos, drain_nanos`;
/// then one output per (algorithm, owned node), algorithm-major; then per
/// algorithm `count: u64` departures of `round: u32, arc: u32,
/// engine_round: u32`. Neither the algorithm count nor the node list
/// crosses the wire: both ends derive them from the problem and the
/// partition, and `decode` takes them.
pub use crate::exec::ShardOutput as Done;

impl Done {
    /// The frame body.
    pub fn encode(&self) -> Vec<u8> {
        let (stats, shard) = (&self.stats, &self.shard);
        let mut w = Vec::new();
        for word in [
            self.big_rounds,
            self.last_activity_round,
            stats.delivered,
            stats.late_messages,
            stats.invalid_sends,
            stats.max_arc_queue as u64,
            shard.shard as u64,
            shard.nodes as u64,
            shard.degree as u64,
            shard.steps,
            shard.delivered,
            shard.cross_sent,
            shard.step_nanos,
            shard.drain_nanos,
        ] {
            word.put(&mut w);
        }
        for output in self.outputs.iter().flatten() {
            output.put(&mut w);
        }
        for map in &self.departures {
            (map.len() as u64).put(&mut w);
            for (ta, &engine_round) in map {
                (ta.round, (ta.arc.index() as u32, engine_round)).put(&mut w);
            }
        }
        w
    }

    /// Reads a frame body for a run of `k` algorithms from the shard that
    /// owns `own`.
    ///
    /// # Errors
    /// [`ExecError::TruncatedFrame`] on a short body or a count the body
    /// cannot hold.
    pub fn decode(body: &[u8], k: usize, own: Vec<NodeId>) -> Result<Self, ExecError> {
        let r = &mut ByteReader::new(body);
        let mut word = || u64::get(r, "DONE counters");
        let (big_rounds, last_activity_round) = (word()?, word()?);
        let stats = ExecStats {
            delivered: word()?,
            late_messages: word()?,
            invalid_sends: word()?,
            max_arc_queue: word()? as usize,
            ..ExecStats::default()
        };
        let shard = ShardStats {
            shard: word()? as usize,
            nodes: word()? as usize,
            degree: word()? as usize,
            steps: word()?,
            delivered: word()?,
            cross_sent: word()?,
            step_nanos: word()?,
            drain_nanos: word()?,
        };
        let mut outputs = Vec::new();
        for _ in 0..k {
            let mut per_node =
                Vec::with_capacity(r.room_for(own.len() as u64, 1, "DONE outputs")?);
            for _ in 0..own.len() {
                per_node.push(Field::get(r, "DONE output")?);
            }
            outputs.push(per_node);
        }
        let mut departures = Vec::new();
        for _ in 0..k {
            let count = u64::get(r, "DONE departure count")?;
            let mut map = SimulationMap::new();
            for _ in 0..r.room_for(count, 12, "DONE departure count")? {
                let (round, (arc, engine_round)) = <(u32, (u32, u32))>::get(r, "DONE departure")?;
                let arc = das_graph::Arc::from_index(arc as usize);
                map.insert(TimedArc { round, arc }, engine_round);
            }
            departures.push(map);
        }
        Ok(Done {
            own,
            outputs,
            departures,
            stats,
            last_activity_round,
            big_rounds,
            shard,
        })
    }
}

/// worker → coordinator: [`RoundCap`].
pub const ERROR: u8 = 9;

body! {
    /// ERROR, the engine round cap fired. Every worker's engine-round
    /// counter is identical, so all of them send it in the same big-round.
    pub struct RoundCap {
        /// The configured cap.
        pub cap: u64,
        /// The big-round that was draining when it fired.
        pub big_round: u64,
    }
}

/// coordinator → worker: [`Abort`].
pub const ABORT: u8 = 10;

body! {
    /// ABORT, stand down: the run is being torn down because the
    /// coordinator was interrupted or another worker failed.
    pub struct Abort {
        /// Why.
        pub reason: String,
    }
}

// ---------------------------------------------------------------- serve

layout!(Capacity {
    max_dilation: u32,
    max_congestion: u64,
    max_payload_bytes: u32,
});
layout!(Budgets {
    dilation: u32,
    congestion: u64,
    payload_bytes: u32,
});
layout!(Rejection {
    code: u32,
    declared: u64,
    capacity: u64,
});

/// server → client: [`Caps`].
pub const CAPS: u8 = 16;

body! {
    /// CAPS, the server's answer to a good HELLO: what the daemon runs
    /// under and the capacity it admits against.
    pub struct Caps {
        /// The server's protocol version.
        pub version: u32,
        /// The server's graph fingerprint.
        pub graph_fingerprint: u64,
        /// The tape seed every batch runs under.
        pub tape_seed: u64,
        /// Jobs per batch.
        pub batch_max: u32,
        /// Worker threads of the execution pool.
        pub pool_shards: u32,
        /// The advertised admission capacity: `max_dilation: u32,
        /// max_congestion: u64, max_payload_bytes: u32`.
        pub capacity: Capacity,
    }
}

/// client → server: [`Submit`].
pub const SUBMIT: u8 = 11;

/// SUBMIT, one job with its declared budgets: `job_id: u64, kind: u8 (0
/// flood, 1 relay), source: u32, depth: u32`, then the declared `dilation:
/// u32, congestion: u64, payload_bytes: u32`.
pub use crate::serve::JobSpec as Submit;

impl Submit {
    /// The frame body.
    pub fn encode(&self) -> Vec<u8> {
        let kind = match self.kind {
            JobKind::Flood => 0u8,
            JobKind::Relay => 1,
        };
        let mut w = Vec::new();
        (self.job_id, kind).put(&mut w);
        (self.source, self.depth).put(&mut w);
        self.declared.put(&mut w);
        w
    }

    /// Reads a frame body. A well-framed SUBMIT of an unknown job kind is
    /// not a broken connection but a refusable job: it decodes to the
    /// [`Rejected`] (`MALFORMED`) to answer it with.
    ///
    /// # Errors
    /// [`ExecError::TruncatedFrame`] on a short body.
    pub fn decode(body: &[u8]) -> Result<Result<Self, Rejected>, ExecError> {
        let r = &mut ByteReader::new(body);
        let (job_id, kind) = <(u64, u8)>::get(r, "SUBMIT job id and kind")?;
        let (source, depth) = <(u32, u32)>::get(r, "SUBMIT source and depth")?;
        let declared = Budgets::get(r, "")?;
        let kind = match kind {
            0 => JobKind::Flood,
            1 => JobKind::Relay,
            unknown => {
                let why = Rejection {
                    code: MALFORMED,
                    declared: unknown as u64,
                    capacity: 1,
                };
                return Ok(Err(Rejected { job_id, why }));
            }
        };
        Ok(Ok(JobSpec {
            job_id,
            kind,
            source,
            depth,
            declared,
        }))
    }
}

/// server → client: [`Accepted`].
pub const ACCEPTED: u8 = 12;

body! {
    /// ACCEPTED, the job passed admission and is queued for the next batch.
    pub struct Accepted {
        /// The admitted job.
        pub job_id: u64,
        /// Jobs waiting for a batch, this one included.
        pub queued: u64,
    }
}

/// server → client: [`Rejected`].
pub const REJECTED: u8 = 13;
/// REJECTED code: declared dilation exceeds the advertised capacity.
pub const BUDGET_DILATION: u32 = 1;
/// REJECTED code: declared congestion exceeds the advertised capacity.
pub const BUDGET_CONGESTION: u32 = 2;
/// REJECTED code: declared payload exceeds the advertised capacity.
pub const BUDGET_PAYLOAD: u32 = 3;
/// REJECTED code: the SUBMIT body itself was malformed (unknown job
/// kind, out-of-range source node).
pub const MALFORMED: u32 = 4;

body! {
    /// REJECTED, admission refused the job.
    pub struct Rejected {
        /// The refused job.
        pub job_id: u64,
        /// The violated budget and both numbers: `code: u32` (`BUDGET_*`
        /// or `MALFORMED`), `declared: u64, capacity: u64`.
        pub why: Rejection,
    }
}

/// `u8`: 0 ok, 1 verify failed, 2 budget mismatch, 3 exec failed.
impl Field<'_> for JobStatus {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Vec<u8>) {
        let byte: u8 = match self {
            JobStatus::Ok => 0,
            JobStatus::VerifyFailed => 1,
            JobStatus::BudgetMismatch => 2,
            JobStatus::ExecFailed => 3,
        };
        byte.put(w);
    }
    fn get(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ExecError> {
        u8::get(r, what).map(JobStatus::from_wire)
    }
}

impl JobStatus {
    /// Decodes the wire byte (unknown values read as
    /// [`JobStatus::ExecFailed`]).
    pub fn from_wire(b: u8) -> JobStatus {
        match b {
            0 => JobStatus::Ok,
            1 => JobStatus::VerifyFailed,
            2 => JobStatus::BudgetMismatch,
            _ => JobStatus::ExecFailed,
        }
    }
}

/// server → client: [`JobResult`].
pub const RESULT: u8 = 14;

body! {
    /// RESULT, a job's outcome after its batch executed. A batch that
    /// failed to plan or execute answers with zeros and no outputs.
    pub struct JobResult<'a> {
        /// The answered job.
        pub job_id: u64,
        /// How its batch went.
        pub status: JobStatus,
        /// Schedule length of the whole batch, in engine rounds.
        pub schedule_rounds: u64,
        /// Jobs in the batch.
        pub batch_k: u32,
        /// Messages the batch delivered in time.
        pub delivered: u64,
        /// Messages the batch dropped late.
        pub late: u64,
        /// The job's dilation, measured from its reference run.
        pub measured_dilation: u32,
        /// The job's congestion, measured from its reference run.
        pub measured_congestion: u64,
        /// The job's output at every node.
        pub outputs: Cow<'a, [Option<Vec<u8>>]>,
    }
}

// ---------------------------------------------------------------- framing

/// Per-connection traffic counters (counted on the side that holds the
/// connection; frame = length prefix + kind + body).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Frames written to the peer.
    pub frames_sent: u64,
    /// Frames read from the peer.
    pub frames_received: u64,
    /// Bytes written, including frame headers.
    pub bytes_sent: u64,
    /// Bytes read, including frame headers.
    pub bytes_received: u64,
}

const FRAME_HEADER: usize = 5; // u32 body length + u8 kind

/// One framed, deadline-bounded, traffic-counted TCP connection.
pub(crate) struct FramedConn {
    stream: TcpStream,
    pub(crate) traffic: LinkTraffic,
    timeout: Duration,
    max_frame: usize,
    /// The shard on the other end, once a coordinator has assigned it one:
    /// from then on a dying link reads as that worker disconnecting.
    worker: Option<usize>,
}

impl FramedConn {
    /// Wraps a connected stream: every blocking wait on it is bounded by
    /// `timeout`, every frame body by `max_frame` bytes in either
    /// direction.
    pub(crate) fn new(
        stream: TcpStream,
        timeout: Duration,
        max_frame: usize,
    ) -> Result<Self, ExecError> {
        stream.set_nodelay(true).map_err(|e| ExecError::Net {
            detail: format!("set_nodelay: {e}"),
        })?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| ExecError::Net {
                detail: format!("set timeouts: {e}"),
            })?;
        Ok(FramedConn {
            stream,
            traffic: LinkTraffic::default(),
            timeout,
            // the length prefix is a u32
            max_frame: max_frame.min(u32::MAX as usize),
            worker: None,
        })
    }

    /// Names the worker on the other end: connection-level failures from
    /// here on surface as [`ExecError::WorkerDisconnected`] (a killed
    /// worker closes its socket); protocol-level and timeout errors pass
    /// through unchanged.
    pub(crate) fn set_worker(&mut self, shard: usize) {
        self.worker = Some(shard);
    }

    fn link_error(&self, e: ExecError) -> ExecError {
        match (e, self.worker) {
            (ExecError::Net { detail } | ExecError::TruncatedFrame { detail }, Some(shard)) => {
                ExecError::WorkerDisconnected { shard, detail }
            }
            (other, _) => other,
        }
    }

    fn io_error(&self, e: std::io::Error, during: &str) -> ExecError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ExecError::NetTimeout {
                    during: during.to_string(),
                    ms: self.timeout.as_millis() as u64,
                }
            }
            std::io::ErrorKind::UnexpectedEof => ExecError::TruncatedFrame {
                detail: format!("stream ended mid-frame during {during}"),
            },
            _ => ExecError::Net {
                detail: format!("{during}: {e}"),
            },
        }
    }

    /// Waits up to `wait` for the next frame to start arriving, without
    /// consuming anything: `Ok(true)` means bytes are ready (or the peer
    /// closed — the following [`FramedConn::recv`] will classify that),
    /// `Ok(false)` means the deadline passed quietly. The connection's
    /// configured read timeout is restored before returning, so this
    /// composes with `recv` to make a long idle wait interruptible.
    pub(crate) fn poll_readable(&mut self, wait: Duration) -> Result<bool, ExecError> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(|e| ExecError::Net {
                detail: format!("set poll timeout: {e}"),
            })?;
        let mut probe = [0u8; 1];
        let ready = match self.stream.peek(&mut probe) {
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(ExecError::Net {
                detail: format!("poll: {e}"),
            }),
        };
        self.stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| ExecError::Net {
                detail: format!("restore timeout: {e}"),
            })?;
        ready
    }

    /// Writes one frame: `[u32 LE body len][u8 kind][body]`.
    ///
    /// # Errors
    /// [`ExecError::FrameTooLarge`], before the first byte is written, for
    /// a body over the configured limit — the peer would refuse it anyway,
    /// and all this side would see of that is a dropped connection.
    pub(crate) fn send(&mut self, kind: u8, body: &[u8], during: &str) -> Result<(), ExecError> {
        if body.len() > self.max_frame {
            return Err(ExecError::FrameTooLarge {
                kind: kind_name(kind),
                bytes: body.len(),
                limit: self.max_frame,
            });
        }
        let mut header = [0u8; FRAME_HEADER];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4] = kind;
        self.stream
            .write_all(&header)
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush())
            .map_err(|e| self.link_error(self.io_error(e, during)))?;
        self.traffic.frames_sent += 1;
        self.traffic.bytes_sent += (FRAME_HEADER + body.len()) as u64;
        Ok(())
    }

    /// Answers a failed handshake — the one place a REJECT is sent.
    /// Best-effort: the typed error on this side does not depend on the
    /// peer still listening.
    pub(crate) fn reject(&mut self, reject: &Reject, during: &str) {
        let _ = self.send(REJECT, &reject.encode(), during);
    }

    /// The receiving half of either handshake: reads the peer's `kind`
    /// greeting (JOIN or HELLO) and checks it against `ours`; a mismatch
    /// is answered with its REJECT and returned as the same typed error
    /// the peer will decode.
    pub(crate) fn greet(
        &mut self,
        kind: u8,
        ours: &Greeting,
        during: &str,
    ) -> Result<(), ExecError> {
        let theirs = Greeting::decode(&self.expect(kind, during)?)?;
        check_greeting(ours, &theirs).map_err(|reject| {
            self.reject(&reject, during);
            reject.to_error()
        })
    }

    /// Reads one frame. A clean close at a frame boundary reads as a
    /// connection close ([`ExecError::Net`]); a close mid-frame reads as
    /// [`ExecError::TruncatedFrame`].
    pub(crate) fn recv(&mut self, during: &str) -> Result<(u8, Vec<u8>), ExecError> {
        self.recv_frame(during).map_err(|e| self.link_error(e))
    }

    fn recv_frame(&mut self, during: &str) -> Result<(u8, Vec<u8>), ExecError> {
        let mut header = [0u8; FRAME_HEADER];
        let mut filled = 0;
        while filled < FRAME_HEADER {
            match self.stream.read(&mut header[filled..]) {
                Ok(0) => {
                    return Err(if filled == 0 {
                        ExecError::Net {
                            detail: format!("connection closed by peer during {during}"),
                        }
                    } else {
                        ExecError::TruncatedFrame {
                            detail: format!("stream ended mid-header during {during}"),
                        }
                    });
                }
                Ok(got) => filled += got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.io_error(e, during)),
            }
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let kind = header[4];
        if len > self.max_frame {
            return Err(ExecError::Net {
                detail: format!(
                    "frame of {len} bytes exceeds the {} byte limit during {during}",
                    self.max_frame
                ),
            });
        }
        let mut body = vec![0u8; len];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => ExecError::TruncatedFrame {
                    detail: format!("stream ended mid-body during {during}"),
                },
                _ => self.io_error(e, during),
            })?;
        self.traffic.frames_received += 1;
        self.traffic.bytes_received += (FRAME_HEADER + len) as u64;
        Ok((kind, body))
    }

    /// Receives the next frame, which the protocol says is a `want`:
    /// returns its body, or the typed error a refusal frame carries in its
    /// place — REJECT (the handshake failed), ERROR (the peer hit the round
    /// cap), ABORT (the run is being torn down).
    pub(crate) fn expect(&mut self, want: u8, during: &str) -> Result<Vec<u8>, ExecError> {
        let (kind, body) = self.recv(during)?;
        if kind == want {
            return Ok(body);
        }
        Err(match kind {
            REJECT => Reject::decode(&body)?.to_error(),
            ERROR => {
                let RoundCap { cap, big_round } = RoundCap::decode(&body)?;
                ExecError::RoundCapExceeded { cap, big_round }
            }
            ABORT => ExecError::Aborted {
                detail: Abort::decode(&body).map_or_else(
                    |_| "coordinator aborted the run".to_string(),
                    |abort| abort.reason,
                ),
            },
            _ => {
                let want = kind_name(want);
                let from = self
                    .worker
                    .map_or(String::new(), |s| format!(" from shard {s}"));
                ExecError::Net {
                    detail: format!("expected {want}{from}, got frame kind {kind}"),
                }
            }
        })
    }
}

/// How often an accept loop with nothing to accept re-checks its stop flag
/// and deadline.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The one accept loop: hands every connection that arrives on `listener`
/// (switched to blocking mode) to `on_conn` until it returns `Ok(true)` —
/// the only way this returns `Ok(true)` — `stop()` turns true, or
/// `deadline` passes. The listener is polled non-blocking, so neither a
/// stop request nor a peer that never shows up can hang the loop; a failed
/// accept is the would-be peer's problem and is retried like an empty
/// backlog.
///
/// # Errors
/// The listener cannot be made non-blocking, or whatever `on_conn` fails
/// with.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    deadline: Option<Instant>,
    mut on_conn: impl FnMut(TcpStream) -> Result<bool, ExecError>,
) -> Result<bool, ExecError> {
    listener.set_nonblocking(true).map_err(|e| ExecError::Net {
        detail: format!("set_nonblocking: {e}"),
    })?;
    loop {
        if stop() {
            return Ok(false);
        }
        if let Ok((stream, _addr)) = listener.accept() {
            if stream.set_nonblocking(false).is_ok() && on_conn(stream)? {
                return Ok(true);
            }
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(false);
        }
        std::thread::sleep(ACCEPT_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a 64 test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
