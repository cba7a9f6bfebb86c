//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Each thread owns a [`Trace`]; the threads' traces are merged after they
//! join and written out once the run ends, so recording a span is a push
//! onto a thread-local vector. A disabled trace records nothing.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the index (in the merged trace) of the span
/// that caused it, and spans of one request share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public function called, e.g. `PagedEngine::knn_with`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; `0` while the span is open.
    pub end_ns: u64,
    /// Index of the causing span within the same trace.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    /// Thread that recorded the span.
    pub thread: u32,
}

/// Spans one thread keeps; later ones are counted in
/// [`Trace::dropped`] instead, so a long traced window stays small.
pub const MAX_SPANS_PER_THREAD: usize = 100_000;

/// The spans of one thread (or, after [`Trace::absorb`], of a whole run).
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    /// A trace whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Trace {
        Trace { enabled, epoch, thread, spans: Vec::new(), dropped: 0 }
    }

    /// A trace for another thread of the same run.
    pub fn fork(&self, thread: u32) -> Trace {
        Trace::new(self.enabled, self.epoch, thread)
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans not kept because the thread reached [`MAX_SPANS_PER_THREAD`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Room for one more span; counts it as dropped when there is none.
    fn room(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        if self.spans.len() >= MAX_SPANS_PER_THREAD {
            self.dropped += 1;
            return false;
        }
        true
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished call.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) {
        if self.room() {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent, req, thread: self.thread });
        }
    }

    /// Opens a span that children can name as their parent before it ends;
    /// close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, req: u64) -> Option<usize> {
        if !self.room() {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span { name, start_ns, end_ns: 0, parent: None, req, thread: self.thread });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end_ns;
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Trace) {
        self.dropped += other.dropped;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
    /// `parent`, `req`, `thread`).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.thread
            )?;
        }
        out.flush()
    }
}
