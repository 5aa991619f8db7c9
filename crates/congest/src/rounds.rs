//! The synchronous round loop: every machine steps once per round against
//! the messages sent to it the round before, and every send is checked
//! against the model before it is delivered.

use crate::io::{BatchedSends, BlockStep, Inbox, InboxBuf, InboxMsg, NodeBatch};
use das_graph::{Graph, NodeId};
use das_pattern::TimedArc;
use std::error::Error;
use std::fmt;

/// The CONGEST payload cap in bytes. [`run_rounds`] refuses a longer
/// payload, and the scheduled executor drops and counts it as invalid. A
/// scheduler's header (algorithm id and round) is extra, as the paper
/// allows.
pub const MESSAGE_BYTES: usize = 40;

/// Why a [`run_rounds`] call failed: the first send, in (round, node)
/// order, that left the CONGEST model, or a run that did not go quiet in
/// time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReferenceError {
    /// A machine addressed a non-neighbor.
    NotNeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round.
        round: u32,
    },
    /// A machine sent two messages to the same neighbor in one round.
    DuplicateSend {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Round.
        round: u32,
    },
    /// A machine sent a payload longer than [`MESSAGE_BYTES`].
    MessageTooLarge {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Round.
        round: u32,
        /// Payload length in bytes.
        size: usize,
    },
    /// A run [`Until::Quiet`] still sent in its last allowed round.
    RoundLimit {
        /// The round limit.
        limit: u32,
    },
}

impl fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReferenceError::NotNeighbor { from, to, round } => {
                write!(f, "round {round}: {from} sent to non-neighbor {to}")
            }
            ReferenceError::DuplicateSend { from, to, round } => {
                write!(f, "round {round}: {from} sent twice to {to}")
            }
            ReferenceError::MessageTooLarge {
                from,
                to,
                round,
                size,
            } => write!(
                f,
                "round {round}: {from} sent {size} bytes to {to}, over the {MESSAGE_BYTES}-byte limit"
            ),
            ReferenceError::RoundLimit { limit } => {
                write!(f, "machines still sent in the last of {limit} rounds")
            }
        }
    }
}

impl Error for ReferenceError {}

/// How long [`run_rounds`] steps the machines.
#[derive(Clone, Copy, Debug)]
pub enum Until<'a> {
    /// Exactly `rounds` rounds. With a `cap`, machine `v` steps only its
    /// rounds `r < cap[v]` (a truncated execution), and mail for it after
    /// that is dropped.
    Rounds {
        /// Rounds to run.
        rounds: u32,
        /// Per-machine round cap.
        cap: Option<&'a [u32]>,
    },
    /// Until the first round in which no machine sent, which is the last
    /// round run; [`ReferenceError::RoundLimit`] if round `limit - 1`
    /// still sent.
    Quiet {
        /// Most rounds to run.
        limit: u32,
    },
}

impl Until<'_> {
    /// Exactly `rounds` rounds, every machine stepping each of them.
    pub fn exactly(rounds: u32) -> Self {
        Until::Rounds { rounds, cap: None }
    }
}

/// What a [`run_rounds`] call counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Rounds run.
    pub rounds: u32,
    /// Messages delivered.
    pub messages: u64,
}

/// Runs `batch` — machine `v` on node `v` of `g` — in lockstep rounds:
/// round `r` steps every machine against the messages sent to it in round
/// `r - 1`, inbox sorted by sender. Every send is checked, in (round,
/// node) order: the target must be a neighbour, at most one message per
/// neighbour per round, and at most [`MESSAGE_BYTES`] long. With `arcs`,
/// every delivered message's `(round, arc)` is appended to it.
///
/// # Errors
/// The first [`ReferenceError`] in (round, node) order; the machines'
/// state is then that of part-way through that round.
///
/// # Panics
/// Panics if `batch` does not hold one machine per node, or a cap does
/// not hold one round count per node.
pub fn run_rounds(
    g: &Graph,
    batch: &mut NodeBatch,
    until: Until<'_>,
    mut arcs: Option<&mut Vec<TimedArc>>,
) -> Result<Tally, ReferenceError> {
    let n = g.node_count();
    assert_eq!(batch.len(), n, "one machine per node");
    let cap = match until {
        Until::Rounds { cap, .. } => cap,
        Until::Quiet { .. } => None,
    };
    assert!(cap.is_none_or(|c| c.len() == n), "one round cap per node");
    // every round is one block: the stepping machines run against the
    // round's mail, then their sends are checked in node order
    let mut mail = RoundMail::new(n);
    let mut steps: Vec<BlockStep> = Vec::with_capacity(n);
    let mut sends = BatchedSends::new();
    // `sent[to] == stamp` once the current sender has written to `to`;
    // the stamp is fresh per (round, sender)
    let (mut sent, mut stamp) = (vec![0u64; n], 0u64);
    let mut ran = Tally {
        rounds: 0,
        messages: 0,
    };
    loop {
        let round = ran.rounds;
        match until {
            Until::Rounds { rounds, .. } if round == rounds => break,
            Until::Quiet { limit } if round == limit => {
                return Err(ReferenceError::RoundLimit { limit })
            }
            _ => {}
        }
        steps.clear();
        steps.extend(
            (0..n)
                .filter(|&v| cap.is_none_or(|c| round < c[v]))
                .map(|v| mail.step(v, round)),
        );
        sends.clear();
        batch.step_block(&steps, mail.inbox(), &mut sends);
        let before = ran.messages;
        for (i, s) in steps.iter().enumerate() {
            if sends.segment_is_empty(i) {
                continue;
            }
            let from = NodeId(s.node);
            let nbrs = g.neighbors(from);
            stamp += 1;
            for (to, payload) in sends.segment(i) {
                let Ok(p) = nbrs.binary_search_by_key(&to, |&(u, _)| u) else {
                    return Err(ReferenceError::NotNeighbor { from, to, round });
                };
                if sent[to.index()] == stamp {
                    return Err(ReferenceError::DuplicateSend { from, to, round });
                }
                if payload.len() > MESSAGE_BYTES {
                    let size = payload.len();
                    return Err(ReferenceError::MessageTooLarge {
                        from,
                        to,
                        round,
                        size,
                    });
                }
                sent[to.index()] = stamp;
                if let Some(arcs) = arcs.as_deref_mut() {
                    let arc = g.arc_from(nbrs[p].1, from);
                    arcs.push(TimedArc { round, arc });
                }
                mail.post(from, to, payload);
                ran.messages += 1;
            }
        }
        mail.deliver();
        ran.rounds += 1;
        if matches!(until, Until::Quiet { .. }) && ran.messages == before {
            break;
        }
    }
    Ok(ran)
}

/// One synchronous round's messages, handed to the next round's steps as
/// one block [`Inbox`]. Sends are posted flat — `(receiver, message)` plus
/// one byte arena — and grouped by receiver with a stable counting sort
/// when the round ends. Senders post in ascending node order and at most
/// once per receiver, so every receiver's messages come out sender-sorted,
/// the canonical inbox order. Nothing is allocated per round, per node or
/// per message once the buffers have warmed up.
struct RoundMail {
    posted: Vec<(u32, InboxMsg)>,
    posted_bytes: Vec<u8>,
    /// The messages being consumed: `arrived.msgs[starts[v]..starts[v + 1]]`
    /// are `v`'s.
    arrived: InboxBuf,
    starts: Vec<usize>,
}

impl RoundMail {
    /// Empty mail for `n` nodes.
    fn new(n: usize) -> Self {
        RoundMail {
            posted: Vec::new(),
            posted_bytes: Vec::new(),
            arrived: InboxBuf::new(),
            starts: vec![0; n + 2],
        }
    }

    /// Posts one message for the next round.
    fn post(&mut self, from: NodeId, to: NodeId, payload: &[u8]) {
        let msg = InboxMsg {
            from,
            len: payload.len() as u32,
            off: self.posted_bytes.len(),
        };
        self.posted.push((to.0, msg));
        self.posted_bytes.extend_from_slice(payload);
    }

    /// Ends the round: what was posted becomes the arrivals.
    fn deliver(&mut self) {
        // Count two slots up, so that after the prefix sum `starts[v + 1]`
        // is where `v`'s messages begin, and after the (stable, forward)
        // placement has advanced it, where they end.
        let starts = &mut self.starts;
        starts.fill(0);
        for &(to, _) in &self.posted {
            starts[to as usize + 2] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        let arrived = &mut self.arrived.msgs;
        arrived.clear();
        arrived.resize(
            self.posted.len(),
            InboxMsg {
                from: NodeId(0),
                len: 0,
                off: 0,
            },
        );
        for &(to, msg) in &self.posted {
            arrived[starts[to as usize + 1]] = msg;
            starts[to as usize + 1] += 1;
        }
        self.posted.clear();
        std::mem::swap(&mut self.arrived.bytes, &mut self.posted_bytes);
        self.posted_bytes.clear();
    }

    /// Node `v`'s step of `round`, its arrivals picked out of
    /// [`RoundMail::inbox`].
    fn step(&self, v: usize, round: u32) -> BlockStep {
        let start = self.starts[v];
        BlockStep {
            node: v as u32,
            round,
            inbox_start: start as u32,
            inbox_len: (self.starts[v + 1] - start) as u32,
        }
    }

    /// Every arrival of the round, as one block's inbox.
    fn inbox(&self) -> Inbox<'_> {
        self.arrived.inbox()
    }
}
