//! The benchmark's own serve client: frame codec (`[u32 LE len][u8 kind]
//! [body]`, protocol v2 through the public `das_core::wire` constants), the
//! seeded job stream, and the open- and closed-loop load generator. The
//! crate's `FramedConn` and `loadgen` are deliberately not used: the client
//! is measured from outside, and later edits there cannot move a workload.

use crate::stats::SplitMix;
use das_core::serve::{instantiate, Budgets, JobKind, JobSpec, JobStatus};
use das_core::{graph_fingerprint, run_alone, wire, PROTOCOL_VERSION};
use das_graph::Graph;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest frame body the client accepts before allocating for it.
const MAX_FRAME: usize = 64 << 20;
/// A quiet connection is given up on after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How often a precise wait looks at its socket.
const POLL_TICK: Duration = Duration::from_micros(100);
/// `JobKind::Flood` on the wire (`JobKind::to_wire` is private).
const KIND_FLOOD: u8 = 0;
/// Flood depths, picked by job id.
pub const DEPTHS: [u32; 3] = [2, 4, 6];
/// Distinct flood sources in a stream: budgets are measured once per
/// `(source, depth)` in set-up, so no client work sits on the timed path.
pub const SOURCE_POOL: usize = 64;
/// One job in this many has its outputs kept and compared byte for byte
/// with a local `run_alone` after the load has ended.
pub const CHECK_EVERY: u64 = 8;

/// Appends little-endian fields to a frame body.
#[derive(Default)]
pub struct BodyWriter(pub Vec<u8>);

impl BodyWriter {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor over a frame body.
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "frame body too short"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// The unread remainder.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

/// Encodes one frame.
pub fn encode_frame(kind: u8, body: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(body);
}

/// A framed connection that reads whatever has arrived into its own buffer
/// and hands out complete frames, so a read deadline can pass mid-frame
/// without losing bytes.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    /// What one `read` lands in before it joins `buf`.
    scratch: Box<[u8; 1 << 16]>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            scratch: Box::new([0; 1 << 16]),
        })
    }

    pub fn send(&mut self, kind: u8, body: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(5 + body.len());
        encode_frame(kind, body, &mut frame);
        self.stream.write_all(&frame)
    }

    /// A complete frame already buffered, if any.
    fn pop(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let have = &self.buf[self.start..];
        if have.len() < 5 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(have[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the client's limit"),
            ));
        }
        if have.len() < 5 + len {
            return Ok(None);
        }
        let kind = have[4];
        let body = have[5..5 + len].to_vec();
        self.start += 5 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some((kind, body)))
    }

    /// Moves whatever has arrived into the buffer. `Ok(false)` means the
    /// read would have blocked or timed out.
    fn fill(&mut self) -> io::Result<bool> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        match self.stream.read(&mut self.scratch[..]) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&self.scratch[..n]);
                Ok(true)
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::Interrupted => Ok(false),
                _ => Err(e),
            },
        }
    }

    /// The next frame, waiting at most until `deadline`; `Ok(None)` when it
    /// passes first. A socket read timeout is counted in scheduler ticks
    /// and can overshoot by several milliseconds, so a `precise` wait polls
    /// a non-blocking socket every [`POLL_TICK`] instead: an open loop is
    /// only as punctual as this wait.
    pub fn recv_until(
        &mut self,
        deadline: Instant,
        precise: bool,
    ) -> io::Result<Option<(u8, Vec<u8>)>> {
        self.stream.set_nonblocking(precise)?;
        let frame = loop {
            if let Some(frame) = self.pop()? {
                break Some(frame);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break None;
            }
            if !precise {
                self.stream.set_read_timeout(Some(left))?;
            }
            if !self.fill()? && precise {
                std::thread::sleep(left.min(POLL_TICK));
            }
        };
        self.stream.set_nonblocking(false)?;
        Ok(frame)
    }

    /// The next frame, or an error once the connection has been quiet for
    /// the I/O timeout.
    pub fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        self.recv_until(Instant::now() + IO_TIMEOUT, false)?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "no frame within the I/O timeout")
            })
    }
}

/// What the server advertised in CAPS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Caps {
    pub version: u32,
    pub graph_fp: u64,
    pub tape_seed: u64,
    pub batch_max: u32,
    pub pool_shards: u32,
    pub max_dilation: u32,
    pub max_congestion: u64,
    pub max_payload: u32,
}

/// HELLO → CAPS.
pub fn handshake(conn: &mut Conn, g: &Graph) -> io::Result<Caps> {
    let mut w = BodyWriter::default();
    w.u32(PROTOCOL_VERSION);
    w.u64(graph_fingerprint(g));
    conn.send(wire::HELLO, &w.0)?;
    let (kind, body) = conn.recv()?;
    if kind != wire::CAPS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected CAPS, got frame kind {kind}"),
        ));
    }
    let mut r = BodyReader::new(&body);
    Ok(Caps {
        version: r.u32()?,
        graph_fp: r.u64()?,
        tape_seed: r.u64()?,
        batch_max: r.u32()?,
        pool_shards: r.u32()?,
        max_dilation: r.u32()?,
        max_congestion: r.u64()?,
        max_payload: r.u32()?,
    })
}

/// The body of the SUBMIT frame for `spec`.
pub fn submit_body(spec: &JobSpec) -> Vec<u8> {
    debug_assert_eq!(spec.kind, JobKind::Flood, "only floods are sent");
    let mut w = BodyWriter::default();
    w.u64(spec.job_id);
    w.u8(KIND_FLOOD);
    w.u32(spec.source);
    w.u32(spec.depth);
    w.u32(spec.declared.dilation);
    w.u64(spec.declared.congestion);
    w.u32(spec.declared.payload_bytes);
    w.0
}

/// The fixed part of a RESULT frame; the per-node outputs follow it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultHead {
    pub job_id: u64,
    pub status: JobStatus,
    pub schedule_rounds: u64,
    pub batch_k: u32,
    pub delivered: u64,
    pub late: u64,
    pub measured_dilation: u32,
    pub measured_congestion: u64,
    pub outputs: u32,
}

/// Splits a RESULT body into its head and the encoded outputs.
pub fn parse_result(body: &[u8]) -> io::Result<(ResultHead, &[u8])> {
    let mut r = BodyReader::new(body);
    let head = ResultHead {
        job_id: r.u64()?,
        status: JobStatus::from_wire(r.u8()?),
        schedule_rounds: r.u64()?,
        batch_k: r.u32()?,
        delivered: r.u64()?,
        late: r.u64()?,
        measured_dilation: r.u32()?,
        measured_congestion: r.u64()?,
        outputs: r.u32()?,
    };
    Ok((head, r.rest()))
}

/// Per-node outputs as RESULT carries them: `tag: u8 [, len: u32, bytes]`.
pub fn encode_outputs(outputs: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut w = BodyWriter::default();
    for out in outputs {
        match out {
            Some(bytes) => {
                w.u8(1);
                w.u32(bytes.len() as u32);
                w.0.extend_from_slice(bytes);
            }
            None => w.u8(0),
        }
    }
    w.0
}

/// The seeded job stream of one run: a pool of flood sources drawn from the
/// seed, with every `(source, depth)`'s honest budgets measured up front.
pub struct JobStream {
    sources: Vec<u32>,
    budgets: HashMap<(u32, u32), Budgets>,
}

impl JobStream {
    /// Draws the source pool and measures the budgets by one `run_alone`
    /// per distinct `(source, depth)`.
    pub fn new(g: &Graph, seed: u64) -> Result<JobStream, String> {
        let n = g.node_count() as u64;
        let mut rng = SplitMix(seed ^ 0x5e7e_5eed);
        let sources: Vec<u32> = (0..SOURCE_POOL)
            .map(|_| (rng.next_u64() % n) as u32)
            .collect();
        let mut budgets = HashMap::new();
        for &source in &sources {
            for depth in DEPTHS {
                if budgets.contains_key(&(source, depth)) {
                    continue;
                }
                let probe = JobSpec {
                    job_id: 0,
                    kind: JobKind::Flood,
                    source,
                    depth,
                    declared: Budgets::default(),
                };
                let algo = instantiate(&probe, g);
                let run = run_alone(g, algo.as_ref(), 0).map_err(|e| e.to_string())?;
                budgets.insert(
                    (source, depth),
                    Budgets {
                        dilation: algo.rounds(),
                        congestion: run.pattern.edge_loads().into_iter().max().unwrap_or(0),
                        // a flood token is one u64
                        payload_bytes: 8,
                    },
                );
            }
        }
        Ok(JobStream { sources, budgets })
    }

    /// The job with this id: source from the pool, depth by id, honest
    /// declared budgets.
    pub fn job(&self, job_id: u64) -> JobSpec {
        let source = self.sources[(job_id.wrapping_mul(2654435761) >> 7) as usize % SOURCE_POOL];
        let depth = DEPTHS[(job_id % 3) as usize];
        JobSpec {
            job_id,
            kind: JobKind::Flood,
            source,
            depth,
            declared: self.budgets[&(source, depth)],
        }
    }
}

/// How a connection paces its jobs.
#[derive(Clone, Debug, PartialEq)]
pub enum Pace {
    /// Open loop: job `i` is due `due_s[i]` seconds after the start,
    /// whatever the server is doing. Independent users.
    Open { due_s: Vec<f64> },
    /// Closed loop: keep `window` jobs outstanding until `for_s` seconds
    /// have passed, then drain. Callers that each wait for a reply.
    Closed { window: usize, for_s: f64 },
}

/// Arrival times of a Poisson process at `rate_per_s` over `for_s` seconds,
/// given its expected count: that many seeded uniform times, in order. The
/// gaps are exponential in the limit, and every seed offers the same load.
pub fn poisson_due_times(rate_per_s: f64, for_s: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let count = (rate_per_s * for_s).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..count)
        .map(|_| (1.0 - rng.next_unit()) * for_s)
        .collect();
    due.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    due
}

/// One job as the client saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub job_id: u64,
    pub due: Instant,
    pub sent: Instant,
    pub accepted: Option<Instant>,
    pub result: Option<Instant>,
    pub head: Option<ResultHead>,
    pub rejected: bool,
    pub result_bytes: usize,
    /// The encoded outputs, kept for one job in [`CHECK_EVERY`].
    pub kept_outputs: Option<Vec<u8>>,
}

/// Which job ids a connection sends: `first_id + lane`, then every
/// `lanes`-th after it.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    pub first_id: u64,
    pub lane: u64,
    pub lanes: u64,
}

/// Drives one connection's share of the load, timed from `start`.
pub fn run_connection(
    g: &Graph,
    addr: &str,
    stream: &JobStream,
    pace: &Pace,
    ids: Lane,
    start: Instant,
) -> io::Result<(Caps, Vec<JobRecord>)> {
    let mut conn = Conn::connect(addr)?;
    let caps = handshake(&mut conn, g)?;
    let mut records: Vec<JobRecord> = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    loop {
        // send everything that is due
        let now = Instant::now();
        let (may_send, wake) = match pace {
            Pace::Open { due_s } => match due_s.get(next) {
                Some(&s) => {
                    let due = start + Duration::from_secs_f64(s);
                    (due <= now, due)
                }
                None => (false, now + IO_TIMEOUT),
            },
            Pace::Closed { window, for_s } => {
                let open = now.duration_since(start).as_secs_f64() < *for_s;
                (open && outstanding < *window, now + IO_TIMEOUT)
            }
        };
        let done_sending = match pace {
            Pace::Open { due_s } => next >= due_s.len(),
            Pace::Closed { for_s, .. } => now.duration_since(start).as_secs_f64() >= *for_s,
        };
        if may_send {
            let job_id = ids.first_id + ids.lane + next as u64 * ids.lanes;
            let spec = stream.job(job_id);
            let due = match pace {
                Pace::Open { due_s } => start + Duration::from_secs_f64(due_s[next]),
                Pace::Closed { .. } => now,
            };
            conn.send(wire::SUBMIT, &submit_body(&spec))?;
            index_of.insert(job_id, records.len());
            records.push(JobRecord {
                job_id,
                due,
                sent: Instant::now(),
                accepted: None,
                result: None,
                head: None,
                rejected: false,
                result_bytes: 0,
                kept_outputs: None,
            });
            outstanding += 1;
            next += 1;
            continue;
        }
        if done_sending && outstanding == 0 {
            return Ok((caps, records));
        }
        // nothing to send: read until the next job is due
        let open_and_sending = matches!(pace, Pace::Open { .. }) && !done_sending;
        let Some((kind, body)) = conn.recv_until(wake, open_and_sending)? else {
            if open_and_sending {
                continue; // a job came due
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{outstanding} jobs unanswered within the I/O timeout"),
            ));
        };
        let at = Instant::now();
        match kind {
            wire::ACCEPTED => {
                let job_id = BodyReader::new(&body).u64()?;
                if let Some(&i) = index_of.get(&job_id) {
                    records[i].accepted = Some(at);
                }
            }
            wire::REJECTED => {
                let job_id = BodyReader::new(&body).u64()?;
                if let Some(&i) = index_of.get(&job_id) {
                    records[i].rejected = true;
                    records[i].result = Some(at);
                    outstanding -= 1;
                }
            }
            wire::RESULT => {
                let (head, outputs) = parse_result(&body)?;
                if let Some(&i) = index_of.get(&head.job_id) {
                    let rec = &mut records[i];
                    rec.result = Some(at);
                    rec.head = Some(head);
                    rec.result_bytes = 5 + body.len();
                    if head.job_id % CHECK_EVERY == 0 {
                        rec.kept_outputs = Some(outputs.to_vec());
                    }
                    outstanding -= 1;
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {other}"),
                ))
            }
        }
    }
}

/// Whether a kept RESULT's outputs are byte-equal to a local `run_alone` of
/// the same job under the tape seed the server advertised.
pub fn outputs_match(g: &Graph, spec: &JobSpec, tape_seed: u64, got: &[u8]) -> bool {
    let algo = instantiate(spec, g);
    let seed = das_congest::util::seed_mix(tape_seed, spec.job_id);
    match run_alone(g, algo.as_ref(), seed) {
        Ok(run) => encode_outputs(&run.outputs) == got,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_bodies_round_trip() {
        let mut w = BodyWriter::default();
        w.u64(7);
        w.u8(3);
        w.u32(9);
        let mut frame = Vec::new();
        encode_frame(wire::SUBMIT, &w.0, &mut frame);
        assert_eq!(&frame[..4], &13u32.to_le_bytes());
        assert_eq!(frame[4], wire::SUBMIT);
        let mut r = BodyReader::new(&frame[5..]);
        assert_eq!(
            (r.u64().unwrap(), r.u8().unwrap(), r.u32().unwrap()),
            (7, 3, 9)
        );
        assert!(
            r.u8().is_err(),
            "reading past the body is an error, not a panic"
        );
    }

    #[test]
    fn due_times_are_seeded_and_stay_inside_the_window() {
        let a = poisson_due_times(50.0, 4.0, 1);
        assert_eq!(a, poisson_due_times(50.0, 4.0, 1));
        assert_ne!(a, poisson_due_times(50.0, 4.0, 2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        assert_eq!(a.len(), 200, "every seed offers the same load");
    }

    #[test]
    fn the_job_stream_depends_on_the_seed_alone() {
        let g = das_graph::generators::grid(8, 8);
        let a = JobStream::new(&g, 1).unwrap();
        let b = JobStream::new(&g, 1).unwrap();
        let c = JobStream::new(&g, 2).unwrap();
        let jobs = |s: &JobStream| (0..40).map(|i| s.job(i)).collect::<Vec<_>>();
        assert_eq!(jobs(&a), jobs(&b));
        assert_ne!(jobs(&a), jobs(&c));
        let j = a.job(4);
        assert_eq!(j.depth, DEPTHS[1]);
        assert_eq!(
            j.declared.dilation,
            j.depth + 1,
            "a flood runs depth + 1 rounds"
        );
        assert!(j.declared.congestion >= 1);
    }
}
