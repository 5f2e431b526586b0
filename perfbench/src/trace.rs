//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start, end, parent span and the job or request
//! id it worked on. Spans stay in memory while the run measures and are
//! written as JSONL when it ends. A layer's host time is its spans' self
//! time: duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self time and span count of one span name.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub count: u64,
}

impl LayerTime {
    pub fn ms(self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Mean self time per span, in nanoseconds.
    pub fn mean_ns(self) -> f64 {
        crate::util::ratio(self.self_ns as f64, self.count as f64)
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(name, id, start_ns)
    }

    fn push(&mut self, name: &'static str, id: u64, start_ns: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, id);
        let out = f();
        self.exit(idx);
        out
    }

    /// Records an already-finished interval (e.g. the wait for one
    /// response line) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        let idx = self.push(name, id, start_ns);
        self.open.pop();
        self.spans[idx].end_ns = end_ns;
    }

    /// Wall time of the span at `idx`, in nanoseconds.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        self.spans[idx].end_ns - self.spans[idx].start_ns
    }

    /// Self time per span name over the subtree rooted at `root`
    /// (inclusive), or over every span when `root` is `None`. Children of
    /// one span never overlap — the traced run is single-threaded — so a
    /// span's covered time is the sum of its children's durations. The self times of a subtree add up to the
    /// root's duration exactly.
    pub fn self_times(&self, root: Option<usize>) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![root.is_none(); self.spans.len()];
        let first = root.map_or(0, |r| {
            in_tree[r] = true;
            r + 1
        });
        for (i, s) in self.spans.iter().enumerate().skip(first) {
            if let Some(p) = s.parent {
                if in_tree[p] {
                    in_tree[i] = true;
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let t = out.entry(s.name).or_default();
                t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                t.count += 1;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
