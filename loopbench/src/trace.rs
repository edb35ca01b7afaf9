//! In-memory span recorder for the traced run.
//!
//! The harness opens one span around every call it makes into a library
//! layer. Spans carry a name, start and end (nanoseconds since the recorder
//! was created), the index of the enclosing span and the request they belong
//! to. Nothing is written while the benchmark measures; [`Tracer::write_jsonl`]
//! dumps the whole record at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name; the text before the first `.` is the layer.
    pub name: &'static str,
    /// Request the span belongs to (`None` outside requests, e.g. set-up).
    pub request: Option<usize>,
    /// Index of the enclosing span in the record.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty record whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: Option<usize>) {
        self.request = request;
    }

    /// Runs `f` inside a span called `name`; spans `f` opens become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, for each of the first `requests` requests:
    /// each span's duration minus the part of it its child spans cover.
    /// Children of one span run one after the other on this thread, so the
    /// covered part is their sum.
    pub fn self_times(&self, requests: usize) -> Vec<BTreeMap<&'static str, u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = vec![BTreeMap::new(); requests];
        for (s, covered) in self.spans.iter().zip(child_ns) {
            if let Some(slot) = s.request.and_then(|r| out.get_mut(r)) {
                *slot.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
            }
        }
        out
    }

    /// Writes the record as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.request),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_request(Some(0));
        tr.span("request", |tr| {
            tr.span("post", |tr| {
                tr.span("post.plot", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = tr.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let selfs = tr.self_times(2);
        let total: u64 = selfs[0].values().sum();
        assert_eq!(total, spans[0].duration_ns());
        assert!(selfs[0]["post.plot"] >= 2_000_000);
        assert!(selfs[0]["post"] < spans[1].duration_ns());
        assert!(selfs[1].is_empty());
    }
}
