//! In-memory spans around the calls into each layer, written out as a
//! Chrome-trace JSON when the workload ends. A layer's number is the median
//! self-time of its span: its duration minus what its child spans cover.

use crate::stats::median;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The repetition (or job id) all spans of one operation share.
    pub op: u64,
    /// Lane in the trace viewer: 0 is the main thread, clients come after.
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; ending it twice or out of order is a bug in the
/// benchmark and panics.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// Span recorder. Switched off it records nothing and costs one branch per
/// call, which is how the end-to-end runs carry it.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording for the following spans (the traced run turns it
    /// off on every other repetition to measure its own cost).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Sets the operation id the following spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Moves on to the next operation id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            lane: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (a client thread's job), returning
    /// its index so children can name it as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
        lane: u32,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
            parent,
            op,
            lane,
        });
        Some(idx)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time of every span, by index.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per operation, the summed self-time in milliseconds of the spans
    /// called `name`; empty when the layer was never entered.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_op: Vec<(u64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name != name {
                continue;
            }
            match per_op.iter_mut().find(|(op, _)| *op == s.op) {
                Some((_, total)) => *total += ns,
                None => per_op.push((s.op, ns)),
            }
        }
        per_op.into_iter().map(|(_, ns)| ns as f64 / 1e6).collect()
    }

    /// Whether any span called `name` was recorded.
    pub fn seen(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// The layer's number: median self-time in milliseconds, 0 if unseen.
    pub fn layer_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.self_ms(name))
    }

    /// Full durations in milliseconds of the spans called `name`.
    pub fn dur_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Median full duration in milliseconds, 0 if unseen.
    pub fn median_dur_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.dur_ms(name))
    }

    /// Appends this tracer's spans as Chrome-trace complete events; `pid`
    /// separates the tracers of one run in the viewer.
    pub fn chrome_events(&self, pid: u32, process: &str, out: &mut Vec<String>) {
        if self.spans.is_empty() {
            return;
        }
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            ));
        }
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Joins Chrome-trace events into the file Perfetto and `chrome://tracing`
/// open.
pub fn chrome_trace(events: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_groups_by_operation() {
        let mut tr = Tracer::new(true);
        for op in 0..3 {
            tr.set_op(op);
            let outer = tr.begin("outer");
            tr.time("inner", || std::thread::sleep(Duration::from_millis(2)));
            tr.time("inner", || std::thread::sleep(Duration::from_millis(2)));
            tr.end(outer);
        }
        let inner = tr.self_ms("inner");
        assert_eq!(inner.len(), 3, "two inner spans per operation are summed");
        assert!(inner.iter().all(|&ms| ms >= 4.0));
        let outer_self = tr.layer_ms("outer");
        let outer_full = median(&tr.dur_ms("outer"));
        assert!(
            outer_full >= 4.0 && outer_self < 1.0,
            "{outer_full} {outer_self}"
        );
        assert_eq!(tr.layer_ms("absent"), 0.0);
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("x");
        tr.end(id);
        assert_eq!(tr.time("y", || 7), 7);
        assert!(tr.spans().is_empty());
        let now = Instant::now();
        assert_eq!(tr.push("z", now, now, None, 0, 1), None);
    }

    #[test]
    fn chrome_trace_is_json_with_parent_links() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("a");
        tr.time("b", || ());
        tr.end(a);
        let mut events = Vec::new();
        tr.chrome_events(1, "main", &mut events);
        let text = chrome_trace(&events);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(0)
        );
    }
}
