//! The benchmark's own span recorder. It wraps calls the benchmark makes
//! into the program's public functions — it adds nothing inside the
//! program — and keeps every span in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request id the benchmark assigned; 0 for work outside a request.
    pub req: u64,
    /// Layer-qualified name, e.g. `quant.blocked.768x768.r8`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Reserves a span id, so children can name their parent before the
    /// parent has ended.
    pub fn reserve(&self) -> u64 {
        // ORDERING: a unique-id counter publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval under a reserved id.
    pub fn record(&self, id: u64, parent: u64, req: u64, name: &str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span =
            Span { id, parent, req, name: name.to_owned(), start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("tracer lock poisoned by a panicking recorder").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children.
    pub fn span<T>(&self, name: &str, req: u64, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, req, name, start, Instant::now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned by a panicking recorder").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned by a panicking recorder");
        spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed over spans of that name (ms),
/// with the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (f64, usize)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = out.entry(s.name.clone()).or_default();
        entry.0 += own as f64 / 1e6;
        entry.1 += 1;
    }
    out
}

/// Spans as JSON lines, for the trace file written at the end of a run.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 1, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "forward", 0, 10_000_000),
            span(2, 1, "fc", 1_000_000, 4_000_000),
            span(3, 1, "fc", 5_000_000, 9_000_000),
        ];
        let st = self_times(&spans);
        assert_eq!(st["forward"], (3.0, 1));
        assert_eq!(st["fc"], (7.0, 2));
    }

    #[test]
    fn nested_recording() {
        let t = Tracer::default();
        let v = t.span("outer", 9, 0, |outer| t.span("inner", 9, outer, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert!(to_json_lines(&spans).lines().count() == 2);
    }
}
