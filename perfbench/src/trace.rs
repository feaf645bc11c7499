//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions, written out when the run ends.
//!
//! A span has a name, start, end, parent and a rep/request id.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    id: u64,
    thread: u64,
}

/// Aggregates of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
}

impl NameTotals {
    /// Mean duration per span (ns), 0 when none were recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// An empty store with room for `capacity` spans, so recording does
    /// not allocate until that many spans exist.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// Nanoseconds since the store was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, id: u64) -> SpanId {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns, parent, id)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        let end_ns = self.now();
        self.spans.lock().expect("span store poisoned by a panic")[span].end_ns = end_ns;
    }

    /// Record a finished span from two [`Tracer::now`] readings.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        self.push(name, start_ns, end_ns, parent, id)
    }

    fn push(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        let thread = THREAD.with(|t| *t);
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            thread,
        });
        spans.len() - 1
    }

    /// Duration (ns) of one recorded span.
    pub fn duration_ns(&self, span: SpanId) -> u64 {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        spans[span].end_ns.saturating_sub(spans[span].start_ns)
    }

    /// Per-name count and total duration over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans.iter() {
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.end_ns.saturating_sub(s.start_ns);
        }
        out
    }

    /// Write every span as a Chrome trace-event document
    /// (`{"traceEvents":[…]}`, complete "X" events in microseconds).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_and_sum_spans_by_name() {
        let t = Tracer::with_capacity(4);
        let root = t.record("root", 0, 100, None, 0);
        t.record("child", 10, 40, Some(root), 0);
        t.record("child", 30, 60, Some(root), 1);
        let totals = t.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].mean_ns(), 30.0);
    }
}
