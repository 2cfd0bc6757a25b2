//! Per-op timing and the in-memory span trace.
//!
//! Every op is timed from its first client call to its last, and every
//! call into a layer inside it (encrypt, evaluate, decrypt, requantize) is
//! timed too, because the end-to-end metrics need the client's share of
//! each op. With tracing on, each of those timings is also kept as a span:
//! a root span `op` per op and one child span per call. Spans stay in
//! memory until the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the same recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Length of the union of `children` clipped to `[start, end)`.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in iv {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_ns(start, end, children)
}

/// What one op's timing produced, whether or not spans were kept.
#[derive(Debug, Clone, Default)]
pub struct OpTiming {
    pub latency: Duration,
    /// Encrypt, decrypt and requantize time inside the op.
    pub client: Duration,
    /// Per-call durations, by span name, in call order.
    pub calls: Vec<(&'static str, Duration)>,
}

/// Call names that count as client work.
pub const CLIENT_CALLS: [&str; 3] = ["client.encrypt", "client.decrypt", "client.requantize"];

/// Times ops and, when tracing, records their spans.
pub struct Recorder {
    trace: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// An op in progress (see [`Recorder::begin`]).
pub struct OpScope {
    id: u64,
    root: Option<usize>,
    start: Instant,
    timing: OpTiming,
}

impl Recorder {
    pub fn new(trace: bool, origin: Instant) -> Self {
        Recorder {
            trace,
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts op `id`; its clock starts now.
    pub fn begin(&mut self, id: u64) -> OpScope {
        let start = Instant::now();
        let root = self.trace.then(|| {
            let s = self.ns(start);
            self.spans.push(Span {
                name: "op",
                op: id,
                parent: None,
                start_ns: s,
                end_ns: s,
            });
            self.spans.len() - 1
        });
        OpScope {
            id,
            root,
            start,
            timing: OpTiming::default(),
        }
    }

    /// Runs one layer call inside `op`, timing it as `name`.
    pub fn call<T>(&mut self, op: &mut OpScope, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let d = t1 - t0;
        if CLIENT_CALLS.contains(&name) {
            op.timing.client += d;
        }
        op.timing.calls.push((name, d));
        if self.trace {
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            self.spans.push(Span {
                name,
                op: op.id,
                parent: op.root,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// Ends `op` at its last call and returns its timing.
    pub fn end(&mut self, op: OpScope) -> OpTiming {
        let end = Instant::now();
        let end_ns = self.ns(end);
        if let Some(span) = op.root.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
        OpTiming {
            latency: end - op.start,
            ..op.timing
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Root spans with the share of each covered by its children, and its
/// self time, in nanoseconds. `spans` is one recorder's list.
pub fn op_coverage(spans: &[Span]) -> Vec<(f64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = s.parent.and_then(|p| children.get_mut(p)) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, kids)| {
            let own = self_ns(s.start_ns, s.end_ns, kids);
            let dur = s.duration_ns();
            let cov = if dur == 0 {
                1.0
            } else {
                1.0 - own as f64 / dur as f64
            };
            (cov, own)
        })
        .collect()
}

/// Writes spans as CSV (`thread,index,op,name,parent,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,index,op,name,parent,start_ns,end_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{t},{i},{},{},{parent},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // Overlapping children count once; the part past the parent's end
        // is clipped.
        let kids = [(10, 30), (20, 50), (90, 120)];
        assert_eq!(covered_ns(0, 100, &kids), 50);
        assert_eq!(self_ns(0, 100, &kids), 50);
        assert_eq!(self_ns(0, 100, &[]), 100);
        assert_eq!(self_ns(0, 100, &[(0, 100), (40, 60)]), 0);
        assert_eq!(self_ns(50, 60, &[(0, 10)]), 10);
    }

    #[test]
    fn recorder_links_children_to_their_op() {
        let mut rec = Recorder::new(true, Instant::now());
        let mut op = rec.begin(7);
        rec.call(&mut op, "client.encrypt", || ());
        rec.call(&mut op, "remote.evaluate", || ());
        let timing = rec.end(op);
        assert_eq!(timing.calls.len(), 2);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "op");
        assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.op == 7));
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(op_coverage(&spans).len(), 1);
    }

    #[test]
    fn untraced_recorder_keeps_timings_but_no_spans() {
        let mut rec = Recorder::new(false, Instant::now());
        let mut op = rec.begin(0);
        rec.call(&mut op, "client.decrypt", || ());
        let timing = rec.end(op);
        assert_eq!(timing.calls.len(), 1);
        assert!(rec.into_spans().is_empty());
    }
}
