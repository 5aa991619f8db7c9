//! Machine I/O: how a CONGEST machine reads one round's messages and
//! writes its sends.
//!
//! The contract has two tiers and one I/O pair. The *specification tier*
//! is [`AlgoNode::step`]: one virtual call per (machine, round). The
//! *batched tier* is opt-in and exists purely for throughput: a whole
//! node-contiguous [`NodeBatch`] slab is built at once instead of one
//! `Box<dyn AlgoNode>` per node, and a block of its steps dispatches as
//! one [`AlgoSlab::step_block`] call. Every batched entry point has a
//! default implementation that loops the specification tier, so a machine
//! that only implements `step` keeps working unchanged.
//!
//! Both tiers read and write the same way. A step reads a borrowed
//! [`Inbox`] — `(sender, payload)` spans, sender-sorted, lying in the
//! engine's own arrival buffer — and writes its sends into a
//! [`BatchedSends`] arena, one segment per step. A boxed machine writes
//! through [`Sends`], which can only append to its own step's segment; a
//! slab, which holds every machine of its block, writes the block's
//! segments itself. Neither direction copies a payload into a buffer of
//! its own or allocates per message, whichever tier the machine
//! implements.
//!
//! Outputs go the same way: a machine writes its output through an
//! [`OutputSink`] into the engine's [`Outputs`] arena — one byte buffer for
//! every (algorithm, node) of a run — and never hands back a buffer of its
//! own.

use das_graph::{Graph, NodeId};
use std::convert::Infallible;
use std::fmt;

/// One message of an [`Inbox`]: its sender and where its payload lies in
/// the inbox's byte buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InboxMsg {
    pub(crate) from: NodeId,
    pub(crate) len: u32,
    pub(crate) off: usize,
}

/// What a machine received for one round: `(sender, payload)` pairs sorted
/// by sender, borrowed straight from the engine's buffers — no payload is
/// copied to hand an inbox over.
///
/// The order is the canonical one every engine agrees on: ascending
/// sender, which is total because a sender delivers at most one message
/// per round to a given machine. Inside [`AlgoSlab::step_block`] one inbox
/// holds the whole block's messages and [`Inbox::of`] cuts out each step's.
///
/// Two words — the buffer the messages lie in and their range in it,
/// packed — so that a step that is not inlined receives its inbox in two
/// registers, as it would a slice, and not through the stack.
#[derive(Clone, Copy)]
pub struct Inbox<'a> {
    buf: &'a InboxBuf,
    /// `lo << 32 | len`: the messages are `buf.msgs[lo..lo + len]`.
    span: u64,
}

impl<'a> Inbox<'a> {
    /// The messages in sender order.
    #[inline]
    pub fn iter(&self) -> InboxIter<'a> {
        let (lo, len) = ((self.span >> 32) as usize, self.span as u32 as usize);
        // an empty inbox, most steps' on a sparse plan, reads no buffer
        let msgs = if len == 0 {
            [].iter()
        } else {
            self.buf.msgs[lo..lo + len].iter()
        };
        InboxIter {
            msgs,
            buf: self.buf,
        }
    }

    /// The part of a block's inbox that `step` consumes.
    ///
    /// # Panics
    /// Panics if `step`'s messages do not all lie in this inbox.
    #[inline]
    pub fn of(&self, step: &BlockStep) -> Inbox<'a> {
        let (lo, len) = (self.span >> 32, self.span as u32);
        assert!(
            u64::from(step.inbox_start) + u64::from(step.inbox_len) <= u64::from(len),
            "a step's messages lie in its block's inbox"
        );
        Inbox {
            buf: self.buf,
            span: (lo + u64::from(step.inbox_start)) << 32 | u64::from(step.inbox_len),
        }
    }
}

impl fmt::Debug for Inbox<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Inbox<'a> {
    type Item = (NodeId, &'a [u8]);
    type IntoIter = InboxIter<'a>;

    #[inline]
    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

/// The messages of an [`Inbox`], in sender order.
#[derive(Clone)]
pub struct InboxIter<'a> {
    msgs: std::slice::Iter<'a, InboxMsg>,
    buf: &'a InboxBuf,
}

impl<'a> Iterator for InboxIter<'a> {
    type Item = (NodeId, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let m = self.msgs.next()?;
        Some((m.from, &self.buf.bytes[m.off..m.off + m.len as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.msgs.size_hint()
    }
}

impl ExactSizeIterator for InboxIter<'_> {}

/// The buffer every [`Inbox`] borrows from: messages pushed in sender
/// order, then lent out as an [`Inbox`]. Engines keep one per block —
/// the executor's arrival arena and [`crate::run_rounds`]' round mail
/// hold theirs in place, their payloads never copied into another.
#[derive(Clone, Debug, Default)]
pub struct InboxBuf {
    pub(crate) msgs: Vec<InboxMsg>,
    /// Payload bytes the messages point into (an engine may keep bytes
    /// here that no message of the current block names).
    pub(crate) bytes: Vec<u8>,
}

impl InboxBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        InboxBuf::default()
    }

    /// Appends one message; callers push in ascending sender order.
    pub fn push(&mut self, from: NodeId, payload: &[u8]) {
        self.msgs.push(InboxMsg {
            from,
            len: payload.len() as u32,
            off: self.bytes.len(),
        });
        self.bytes.extend_from_slice(payload);
    }

    /// Appends one message whose payload already lies in this buffer's
    /// bytes, at `off..off + len` — for an engine that files payloads into
    /// [`InboxBuf::bytes_mut`] as they arrive and names them once sorted.
    #[inline]
    pub fn push_span(&mut self, from: NodeId, off: usize, len: u32) {
        debug_assert!(
            off + len as usize <= self.bytes.len(),
            "a span lies in the buffer"
        );
        self.msgs.push(InboxMsg { from, len, off });
    }

    /// The payload bytes messages point into. An engine may keep bytes
    /// here that no message of the current block names, and must keep
    /// every pushed span's bytes in place until the next
    /// [`InboxBuf::clear`].
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Number of messages pushed since the last clear — where the next
    /// one lands in a block's inbox.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing was pushed since the last clear.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.bytes.clear();
    }

    /// The pushed messages as an inbox.
    #[inline]
    pub fn inbox(&self) -> Inbox<'_> {
        Inbox {
            buf: self,
            span: self.msgs.len() as u64,
        }
    }
}

/// Flat, reusable send arena every machine writes into: payload bytes live
/// in one buffer, sends are grouped into *segments* (one segment per
/// executed step, in execution order), and nothing is allocated per send
/// once the arena has warmed up.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchedSends {
    /// One entry per send: destination, payload offset, payload length.
    meta: Vec<(NodeId, u32, u32)>,
    /// All payload bytes, back to back.
    bytes: Vec<u8>,
    /// Exclusive end index into `meta` for each closed segment.
    bounds: Vec<u32>,
}

impl BatchedSends {
    /// An empty arena.
    pub fn new() -> Self {
        BatchedSends::default()
    }

    /// Appends one send to the currently open segment.
    pub fn push(&mut self, to: NodeId, payload: &[u8]) {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(payload);
        self.meta.push((to, off, payload.len() as u32));
    }

    /// Closes the current segment (even if it received no sends). Every
    /// executed step must close exactly one segment, in execution order.
    pub fn end_segment(&mut self) {
        self.bounds.push(self.meta.len() as u32);
    }

    /// Number of closed segments.
    pub fn segments(&self) -> usize {
        self.bounds.len()
    }

    /// Total sends across all segments (open tail included).
    pub fn total_sends(&self) -> usize {
        self.meta.len()
    }

    /// Whether closed segment `i` holds no sends — a constant-time check
    /// engines use to skip validation work for send-free steps.
    pub fn segment_is_empty(&self, i: usize) -> bool {
        let start = if i == 0 { 0 } else { self.bounds[i - 1] };
        self.bounds[i] == start
    }

    /// Iterates the sends of closed segment `i` in push order.
    pub fn segment(&self, i: usize) -> impl Iterator<Item = (NodeId, &[u8])> + '_ {
        let end = self.bounds[i] as usize;
        let start = if i == 0 {
            0
        } else {
            self.bounds[i - 1] as usize
        };
        self.meta[start..end]
            .iter()
            .map(move |&(to, off, len)| (to, &self.bytes[off as usize..(off + len) as usize]))
    }

    /// Clears the arena for reuse, keeping its capacity.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.bytes.clear();
        self.bounds.clear();
    }
}

/// One boxed machine's step's view of the send arena: it can append sends
/// and nothing else, so a machine can neither close, clear nor read the
/// segments of the other machines its step shares the arena with.
///
/// ```compile_fail,E0599
/// fn sloppy(out: &mut das_congest::Sends<'_>) {
///     out.end_segment(); // only the engine closes a step's segment
/// }
/// ```
pub struct Sends<'a> {
    arena: &'a mut BatchedSends,
}

impl<'a> Sends<'a> {
    /// A writer appending to `arena`'s open segment; the caller closes it
    /// once the step is done.
    pub fn new(arena: &'a mut BatchedSends) -> Self {
        Sends { arena }
    }

    /// Sends `payload` to `to` this round.
    #[inline]
    pub fn push(&mut self, to: NodeId, payload: &[u8]) {
        self.arena.push(to, payload);
    }

    /// Sends `payload` to each of `to` this round.
    pub fn push_all(&mut self, to: &[NodeId], payload: &[u8]) {
        for &u in to {
            self.arena.push(u, payload);
        }
    }
}

/// Marks an [`Outputs`] entry whose machine wrote nothing.
const NO_OUTPUT: u32 = 1 << 31;

/// Every machine's output of a run in one arena: one byte buffer, and one
/// entry per (algorithm, node) naming its bytes in it or saying that the
/// machine wrote nothing.
///
/// The layout is canonical — row-major in (algorithm, node) order, each
/// entry's bytes right after the previous entry's — so two arenas holding
/// the same outputs are equal field for field, however they were filled,
/// and `==` is a plain comparison. `{:?}` prints what the nested
/// `Vec<Vec<Option<Vec<u8>>>>` of the same outputs prints.
///
/// An arena is filled once, entry by entry in that order, by
/// [`Outputs::build`]: each entry is written through an [`OutputSink`],
/// the way a step writes its sends through [`Sends`].
///
/// ```
/// use das_congest::Outputs;
///
/// // two algorithms over three nodes; node 1 of algorithm 0 outputs nothing
/// let outs = Outputs::build(2, 3, |a, v, out| {
///     if (a, v) != (0, 1) {
///         out.put(&[a as u8, v as u8]);
///     }
/// });
/// assert_eq!(outs.get(1, 2), Some(&[1u8, 2][..]));
/// assert_eq!(outs.get(0, 1), None);
/// assert_eq!(
///     format!("{outs:?}"),
///     "[[Some([0, 0]), None, Some([0, 2])], [Some([1, 0]), Some([1, 1]), Some([1, 2])]]"
/// );
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Outputs {
    rows: usize,
    nodes: usize,
    /// Per entry, in (algorithm, node) order: where its bytes end in
    /// `bytes`, with [`NO_OUTPUT`] set when the machine wrote nothing (its
    /// bytes are then empty).
    ends: Vec<u32>,
    bytes: Vec<u8>,
}

impl Outputs {
    /// The most output bytes one arena holds, all entries together.
    pub const MAX_BYTES: usize = NO_OUTPUT as usize - 1;

    /// The arena of `rows` algorithms over `nodes` nodes whose entry
    /// `(a, v)` is what `fill(a, v, sink)` writes; `fill` is called once
    /// per entry, in (algorithm, node) order.
    ///
    /// # Panics
    /// Panics if the outputs exceed [`Outputs::MAX_BYTES`] in total.
    pub fn build(
        rows: usize,
        nodes: usize,
        mut fill: impl FnMut(usize, usize, &mut OutputSink<'_>),
    ) -> Outputs {
        let filled = Outputs::try_build(rows, nodes, |a, v, out| {
            fill(a, v, out);
            Ok::<(), Infallible>(())
        });
        match filled {
            Ok(outputs) => outputs,
            Err(never) => match never {},
        }
    }

    /// [`Outputs::build`] with a `fill` that can fail: the first error
    /// ends the build and is returned.
    ///
    /// # Errors
    /// Whatever `fill` fails with.
    ///
    /// # Panics
    /// Panics if the outputs exceed [`Outputs::MAX_BYTES`] in total.
    pub fn try_build<E>(
        rows: usize,
        nodes: usize,
        mut fill: impl FnMut(usize, usize, &mut OutputSink<'_>) -> Result<(), E>,
    ) -> Result<Outputs, E> {
        let mut ends = Vec::with_capacity(rows * nodes);
        let mut bytes = Vec::new();
        for a in 0..rows {
            for v in 0..nodes {
                let mut sink = OutputSink::new(&mut bytes);
                fill(a, v, &mut sink)?;
                let written = sink.written;
                assert!(
                    bytes.len() <= Outputs::MAX_BYTES,
                    "a run's outputs exceed {} bytes",
                    Outputs::MAX_BYTES
                );
                let end = bytes.len() as u32;
                ends.push(if written { end } else { end | NO_OUTPUT });
            }
        }
        Ok(Outputs {
            rows,
            nodes,
            ends,
            bytes,
        })
    }

    /// Number of algorithms (rows).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the arena holds no algorithm.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The output of algorithm `a` at node `v` (`None` if its machine
    /// wrote nothing).
    ///
    /// # Panics
    /// Panics if `a` or `v` is out of range.
    pub fn get(&self, a: usize, v: usize) -> Option<&[u8]> {
        self.row(a).get(v)
    }

    /// Algorithm `a`'s outputs at every node.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn row(&self, a: usize) -> OutputRow<'_> {
        assert!(a < self.rows, "algorithm {a} of {}", self.rows);
        let lo = a * self.nodes;
        OutputRow {
            start: if lo == 0 {
                0
            } else {
                span_end(self.ends[lo - 1])
            },
            ends: &self.ends[lo..lo + self.nodes],
            bytes: &self.bytes,
        }
    }

    /// Every algorithm's row, in algorithm order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OutputRow<'_>> + '_ {
        (0..self.rows).map(|a| self.row(a))
    }
}

impl fmt::Debug for Outputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where an entry's bytes end, its [`NO_OUTPUT`] mark cleared.
#[inline]
fn span_end(end: u32) -> usize {
    (end & !NO_OUTPUT) as usize
}

/// One algorithm's outputs at every node: a row of an [`Outputs`] arena.
/// Two rows are equal when they hold the same outputs, whatever arenas
/// they lie in; `{:?}` prints what the `Vec<Option<Vec<u8>>>` of the same
/// outputs prints.
#[derive(Clone, Copy)]
pub struct OutputRow<'a> {
    /// Where the row's first entry's bytes start.
    start: usize,
    ends: &'a [u32],
    bytes: &'a [u8],
}

impl<'a> OutputRow<'a> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the row covers no node.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The output at node `v` (`None` if its machine wrote nothing).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn get(&self, v: usize) -> Option<&'a [u8]> {
        let end = self.ends[v];
        let start = if v == 0 {
            self.start
        } else {
            span_end(self.ends[v - 1])
        };
        (end & NO_OUTPUT == 0).then(|| &self.bytes[start..end as usize])
    }

    /// The outputs in node order.
    pub fn iter(&self) -> OutputRowIter<'a> {
        OutputRowIter {
            start: self.start,
            ends: self.ends.iter(),
            bytes: self.bytes,
        }
    }

    /// The outputs, each copied into a buffer of its own.
    pub fn to_vec(&self) -> Vec<Option<Vec<u8>>> {
        self.iter().map(|out| out.map(<[u8]>::to_vec)).collect()
    }
}

impl fmt::Debug for OutputRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for OutputRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for OutputRow<'_> {}

impl<'a> IntoIterator for OutputRow<'a> {
    type Item = Option<&'a [u8]>;
    type IntoIter = OutputRowIter<'a>;

    fn into_iter(self) -> OutputRowIter<'a> {
        self.iter()
    }
}

/// The outputs of an [`OutputRow`], in node order.
#[derive(Clone)]
pub struct OutputRowIter<'a> {
    start: usize,
    ends: std::slice::Iter<'a, u32>,
    bytes: &'a [u8],
}

impl<'a> Iterator for OutputRowIter<'a> {
    type Item = Option<&'a [u8]>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let end = *self.ends.next()?;
        let start = std::mem::replace(&mut self.start, span_end(end));
        Some((end & NO_OUTPUT == 0).then(|| &self.bytes[start..end as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for OutputRowIter<'_> {}

/// One machine's view of the output arena while it writes its output: it
/// can append bytes and nothing else. Writing nothing means the machine
/// has no output; `put(&[])` means an empty one; several puts append.
///
/// ```compile_fail,E0599
/// fn sloppy(out: &mut das_congest::OutputSink<'_>) {
///     out.clear(); // a machine can only append to its own output
/// }
/// ```
pub struct OutputSink<'a> {
    bytes: &'a mut Vec<u8>,
    written: bool,
}

impl<'a> OutputSink<'a> {
    /// A writer appending to `bytes`.
    fn new(bytes: &'a mut Vec<u8>) -> Self {
        OutputSink {
            bytes,
            written: false,
        }
    }

    /// Appends `bytes` to this machine's output (and makes it present).
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.written = true;
    }
}

/// The per-node state machine of one algorithm — the paper's format:
/// *"when this algorithm is run alone, in each round each node knows what
/// to send in the next round"*, as a function of the node's input, its
/// random tape (fixed at creation), and the messages received so far.
///
/// A machine is stepped once per round, in order, and knows the round it
/// is at only by counting its own steps. Implementations must be deterministic: same construction + same
/// inboxes ⇒ same sends and output. The scheduler may deliver an
/// *incomplete* inbox if it has mis-scheduled — the machine cannot detect
/// this (it does not know its communication pattern a priori) and will
/// simply compute on; correctness is the scheduler's burden.
///
/// Machines are `Send` so whole executions can move to worker threads.
pub trait AlgoNode: Send {
    /// Executes one algorithm round: `inbox` holds the messages this node
    /// received from the previous round's sends, and this round's sends
    /// go to `out`.
    fn step(&mut self, inbox: Inbox<'_>, out: &mut Sends<'_>);

    /// Writes the node's output once all rounds have been stepped. Writing
    /// nothing means this node produces no output for this algorithm.
    fn output(&self, out: &mut OutputSink<'_>);
}

/// One step of a [`NodeBatch`] inside an [`AlgoSlab::step_block`] call:
/// which slab-local machine to step, the algorithm round it is at, and
/// which messages of the block's [`Inbox`] are its own ([`Inbox::of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockStep {
    /// Slab-local machine index (position in the `nodes` slice the slab
    /// was created from — **not** a graph [`NodeId`]).
    pub node: u32,
    /// Algorithm round this step executes (0-based; informational — slabs
    /// track their own round counters, this must match them).
    pub round: u32,
    /// Index of this step's first message in the block's inbox.
    pub inbox_start: u32,
    /// Length of this step's inbox.
    pub inbox_len: u32,
}

/// A node-contiguous slab of machines for one algorithm: the state of all
/// machines in one place, stepped without per-node `Box<dyn>` dispatch.
///
/// The slab is the batched tier the engine drives. A whole block of steps
/// (distinct machines, one step each) dispatches as **one**
/// virtual [`AlgoSlab::step_block`] call; sends land in a flat
/// [`BatchedSends`] arena — one segment per step, in block order — so the
/// caller can validate and enqueue them in exactly the per-step engines'
/// order, which is what keeps the batched engine byte-identical.
pub trait AlgoSlab: Send {
    /// Steps machine `i` once with `inbox` and appends its sends to `out`
    /// as exactly one closed segment.
    fn step_into(&mut self, i: usize, inbox: Inbox<'_>, out: &mut BatchedSends);

    /// Executes a block of steps against the block's inbox, appending
    /// exactly `steps.len()` segments to `out`, in block order. Machines
    /// within a block are distinct, so execution order cannot change any
    /// machine's state trajectory. The default loops
    /// [`AlgoSlab::step_into`] (a direct call on the concrete type).
    fn step_block(&mut self, steps: &[BlockStep], inbox: Inbox<'_>, out: &mut BatchedSends) {
        for s in steps {
            self.step_into(s.node as usize, inbox.of(s), out);
        }
    }

    /// Writes the output of machine `i` once all its rounds have been
    /// stepped (see [`AlgoNode::output`]).
    fn output(&self, i: usize, out: &mut OutputSink<'_>);
}

/// All machines of one algorithm over a node set, built in one pass: a
/// `Box<dyn AlgoSlab>` plus its machine count. One heap allocation per (algorithm, node set) instead
/// of one per (algorithm, node).
pub struct NodeBatch {
    slab: Box<dyn AlgoSlab>,
    len: usize,
}

impl NodeBatch {
    /// Wraps a slab holding `len` machines.
    pub fn new(slab: Box<dyn AlgoSlab>, len: usize) -> Self {
        NodeBatch { slab, len }
    }

    /// Wraps already-built boxed machines in the default slab — the bridge
    /// for factories that only implement a per-node constructor.
    pub fn from_boxed(machines: Vec<Box<dyn AlgoNode>>) -> Self {
        let len = machines.len();
        NodeBatch::new(Box::new(BoxedSlab { machines }), len)
    }

    /// One boxed machine per node of `g`: `make(v, neighbors)` builds
    /// node `v`'s, handed the ids of its neighbours.
    pub fn for_graph(
        g: &Graph,
        mut make: impl FnMut(NodeId, Vec<NodeId>) -> Box<dyn AlgoNode>,
    ) -> Self {
        NodeBatch::from_boxed(
            g.nodes()
                .map(|v| make(v, g.neighbors(v).iter().map(|&(u, _)| u).collect()))
                .collect(),
        )
    }

    /// Number of machines in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no machines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Steps machine `i` once (see [`AlgoSlab::step_into`]).
    ///
    /// # Panics
    /// Panics if the slab did not close exactly one segment.
    pub fn step_into(&mut self, i: usize, inbox: Inbox<'_>, out: &mut BatchedSends) {
        let before = out.segments();
        self.slab.step_into(i, inbox, out);
        assert_segments(out, before, 1);
    }

    /// Executes a block of steps as one virtual call (see
    /// [`AlgoSlab::step_block`]).
    ///
    /// # Panics
    /// Panics if the slab did not close exactly one segment per step:
    /// segment `i` is charged to `steps[i]`'s machine, so one segment too
    /// many or too few would charge every later send to the wrong sender.
    pub fn step_block(&mut self, steps: &[BlockStep], inbox: Inbox<'_>, out: &mut BatchedSends) {
        let before = out.segments();
        self.slab.step_block(steps, inbox, out);
        assert_segments(out, before, steps.len());
    }

    /// Writes the output of machine `i` (see [`AlgoSlab::output`]).
    pub fn output(&self, i: usize, out: &mut OutputSink<'_>) {
        self.slab.output(i, out);
    }

    /// Every machine's output, in machine order, each in a buffer of its
    /// own — for a caller that keeps one machine set's outputs apart, as
    /// an alone run does. An executor writes into one [`Outputs`] arena
    /// instead.
    pub fn outputs(&self) -> Vec<Option<Vec<u8>>> {
        // one scratch buffer for every machine, so each output is copied
        // into a buffer of its exact size, once
        let mut scratch = Vec::new();
        (0..self.len)
            .map(|i| {
                scratch.clear();
                let mut sink = OutputSink::new(&mut scratch);
                self.slab.output(i, &mut sink);
                sink.written.then(|| scratch.to_vec())
            })
            .collect()
    }
}

/// Checks that a slab closed `steps` segments on top of the `before` it
/// found — once per block, whatever the build.
fn assert_segments(out: &BatchedSends, before: usize, steps: usize) {
    assert!(
        out.segments() == before + steps,
        "a slab closed {} send segments for {steps} steps (one per step)",
        out.segments() as i64 - before as i64
    );
}

/// The default slab: one boxed [`AlgoNode`] per machine, stepped through
/// the specification tier, for machines built one by one
/// ([`NodeBatch::from_boxed`]). A boxed machine reads and writes
/// the slab's own buffers, so it costs no copy either way.
struct BoxedSlab {
    machines: Vec<Box<dyn AlgoNode>>,
}

impl AlgoSlab for BoxedSlab {
    fn step_into(&mut self, i: usize, inbox: Inbox<'_>, out: &mut BatchedSends) {
        self.machines[i].step(inbox, &mut Sends::new(out));
        out.end_segment();
    }

    fn output(&self, i: usize, out: &mut OutputSink<'_>) {
        self.machines[i].output(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps machine 0 and closes one segment too many.
    struct OverClosing;

    impl AlgoSlab for OverClosing {
        fn step_into(&mut self, _i: usize, _inbox: Inbox<'_>, out: &mut BatchedSends) {
            out.push(NodeId(1), &[1]);
            out.end_segment();
            out.end_segment();
        }

        fn output(&self, _i: usize, _out: &mut OutputSink<'_>) {}
    }

    #[test]
    #[should_panic(expected = "closed 4 send segments for 2 steps")]
    fn a_slab_closing_a_segment_too_many_is_refused() {
        let mut batch = NodeBatch::new(Box::new(OverClosing), 2);
        let steps: Vec<BlockStep> = (0..2)
            .map(|node| BlockStep {
                node,
                round: 0,
                inbox_start: 0,
                inbox_len: 0,
            })
            .collect();
        let mut out = BatchedSends::new();
        out.end_segment(); // an earlier step's segment is not counted
        batch.step_block(&steps, InboxBuf::new().inbox(), &mut out);
    }

    fn step_over(inbox_start: u32, inbox_len: u32) -> BlockStep {
        BlockStep {
            node: 0,
            round: 0,
            inbox_start,
            inbox_len,
        }
    }

    #[test]
    fn an_inbox_cuts_steps_out_of_its_own_messages_only() {
        let mut buf = InboxBuf::new();
        for (from, payload) in [(1, &b"a"[..]), (2, b""), (5, b"xyz")] {
            buf.push(NodeId(from), payload);
        }
        let block = buf.inbox();
        let tail: Vec<_> = block.of(&step_over(1, 2)).iter().collect();
        assert_eq!(tail, vec![(NodeId(2), &b""[..]), (NodeId(5), &b"xyz"[..])]);
        // a cut of a cut is relative to it
        let last: Vec<_> = block
            .of(&step_over(1, 2))
            .of(&step_over(1, 1))
            .iter()
            .collect();
        assert_eq!(last, vec![(NodeId(5), &b"xyz"[..])]);
        let reach_past =
            std::panic::catch_unwind(|| block.of(&step_over(1, 1)).of(&step_over(0, 2)));
        assert!(
            reach_past.is_err(),
            "a step's inbox cannot read its neighbours'"
        );
    }

    /// The arena holding `nested`'s outputs, written entry by entry.
    fn arena_of(nested: &[Vec<Option<Vec<u8>>>], nodes: usize) -> Outputs {
        Outputs::build(nested.len(), nodes, |a, v, out| {
            if let Some(bytes) = &nested[a][v] {
                out.put(bytes);
            }
        })
    }

    #[test]
    fn outputs_print_and_read_as_the_nested_vectors() {
        let table: Vec<Vec<Vec<Option<Vec<u8>>>>> = vec![
            vec![],
            vec![vec![], vec![]],
            vec![vec![Some(vec![])]],
            vec![
                vec![Some(vec![1, 2, 3]), None, Some(vec![]), Some(vec![255])],
                vec![None, None, None, None],
                vec![Some(vec![]), Some(vec![7; 13]), None, Some(vec![0, 0])],
            ],
        ];
        for nested in &table {
            let nodes = nested.first().map_or(0, Vec::len);
            let outs = arena_of(nested, nodes);
            assert_eq!(format!("{outs:?}"), format!("{nested:?}"));
            assert_eq!(format!("{outs:#?}"), format!("{nested:#?}"));
            assert_eq!(outs.len(), nested.len());
            for (a, per_node) in nested.iter().enumerate() {
                let row = outs.row(a);
                assert_eq!(row.to_vec(), *per_node);
                assert_eq!(format!("{row:?}"), format!("{per_node:?}"));
                for (v, want) in per_node.iter().enumerate() {
                    assert_eq!(outs.get(a, v), want.as_deref());
                    assert_eq!(row.get(v), want.as_deref());
                }
            }
        }
        // k = 0 of any width is the empty list; n = 0 rows are empty lists
        assert_eq!(format!("{:?}", Outputs::build(0, 5, |_, _, _| ())), "[]");
        assert_eq!(
            format!("{:?}", Outputs::build(2, 0, |_, _, _| ())),
            "[[], []]"
        );
    }

    #[test]
    fn an_empty_output_is_not_a_missing_one() {
        let empty = Outputs::build(1, 1, |_, _, out| out.put(&[]));
        let missing = Outputs::build(1, 1, |_, _, _| ());
        assert_eq!(empty.get(0, 0), Some(&[][..]));
        assert_eq!(missing.get(0, 0), None);
        assert_ne!(empty, missing);
        assert_ne!(empty.row(0), missing.row(0));
        // several puts append to one output
        let two = Outputs::build(1, 2, |_, v, out| {
            out.put(&[v as u8]);
            out.put(&[9]);
        });
        assert_eq!(
            two.row(0).to_vec(),
            vec![Some(vec![0, 9]), Some(vec![1, 9])]
        );
    }

    #[test]
    fn equal_rows_of_different_arenas_compare_equal() {
        let nested = vec![
            vec![Some(vec![5]), None],
            vec![Some(vec![1, 2]), Some(vec![])],
        ];
        let outs = arena_of(&nested, 2);
        let alone = arena_of(&nested[1..], 2);
        assert_eq!(outs.row(1), alone.row(0));
        assert_ne!(outs.row(0), alone.row(0));
        assert_eq!(outs.iter().count(), 2);
    }

    #[test]
    fn a_failing_fill_ends_the_build() {
        let failed = Outputs::try_build(2, 3, |a, v, out| {
            out.put(&[1]);
            if (a, v) == (1, 0) {
                Err(format!("entry {a}, {v}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(failed, Err("entry 1, 0".to_string()));
    }

    #[test]
    fn batched_sends_segments_round_trip() {
        let mut out = BatchedSends::new();
        out.push(NodeId(1), &[1, 2, 3]);
        out.push(NodeId(2), &[]);
        out.end_segment();
        out.end_segment(); // empty segment
        out.push(NodeId(3), &[9]);
        out.end_segment();
        assert_eq!(out.segments(), 3);
        assert_eq!(out.total_sends(), 3);
        let s0: Vec<_> = out.segment(0).collect();
        assert_eq!(
            s0,
            vec![(NodeId(1), &[1u8, 2, 3][..]), (NodeId(2), &[][..])]
        );
        assert_eq!(out.segment(1).count(), 0);
        let s2: Vec<_> = out.segment(2).collect();
        assert_eq!(s2, vec![(NodeId(3), &[9u8][..])]);
        out.clear();
        assert_eq!(out.segments(), 0);
        assert_eq!(out.total_sends(), 0);
    }
}
