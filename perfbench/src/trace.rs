//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own wrappers around calls into the
//! program, never from inside it. They stay in memory while the run
//! measures and are written out as JSON lines when it ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Cap on spans kept; later spans are counted, not stored.
const MAX_SPANS: usize = 1 << 21;

/// One closed span. Spans of one request or query share `id`; `parent`
/// names the span that caused this one (empty at the root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `gateway.handle`).
    pub name: &'static str,
    /// Request or query identifier shared by its spans.
    pub id: u64,
    /// Name of the enclosing span, or `""`.
    pub parent: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Thread-safe span sink.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: Mutex<u64>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: Mutex::new(0),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span sink poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            drop(spans);
            *self.dropped.lock().expect("span sink poisoned") += 1;
        }
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Write every span as one JSON object per line, then a summary line
    /// with the count of spans dropped at the cap.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        let dropped = *self.dropped.lock().expect("span sink poisoned");
        writeln!(out, "{{\"dropped_spans\":{dropped}}}")?;
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
