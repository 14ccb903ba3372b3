//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span brackets one
//! public call (or, for strategies, one `Strategy::run` through a wrapper),
//! its parent is the span open on the same thread when it began, and all
//! spans of one job share that job's request id. Spans are kept in memory
//! and written out as JSON lines when the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.race`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span worked on.
    pub request: u64,
    /// Free-form annotation (the winning strategy of a race).
    pub note: Option<String>,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

thread_local! {
    static OPEN: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Span recorder shared by every pass of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for job `request`, nested under
    /// the span currently open on this thread. Returns `f`'s result and the
    /// span's index (for [`Tracer::annotate`]).
    pub fn span<R>(&self, name: &str, request: u64, f: impl FnOnce() -> R) -> (R, usize) {
        let parent = OPEN.with(Cell::get);
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
                note: None,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.set(Some(id)));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        OPEN.with(|open| open.set(parent));
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        (out, id)
    }

    /// Attaches `note` to span `id`.
    pub fn annotate(&self, id: usize, note: &str) {
        self.spans.lock().expect("span store poisoned")[id].note = Some(note.to_string());
    }

    /// The request id of the span open on this thread (0 outside any span).
    pub fn current_request(&self) -> u64 {
        match OPEN.with(Cell::get) {
            Some(id) => self.spans.lock().expect("span store poisoned")[id].request,
            None => 0,
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let mut line = format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.request, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                line.push_str(&format!(", \"parent\": {p}"));
            }
            if let Some(n) = &s.note {
                line.push_str(&format!(", \"note\": \"{n}\""));
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Self time (µs) of every span named `name`: its duration minus the part
/// covered by its direct children. Children of one span never overlap,
/// because every span is opened and closed on one thread.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns: HashMap<usize, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(id, s)| {
            let own = s.end_ns.saturating_sub(s.start_ns);
            own.saturating_sub(child_ns.get(&id).copied().unwrap_or(0)) as f64 / 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_subtract_from_self_time() {
        let t = Tracer::default();
        let ((), outer) = t.span("outer", 7, || {
            let ((), _) = t.span("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert_eq!(t.current_request(), 7);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].parent, None);
        let outer_self = self_times(&spans, "outer")[0];
        let outer_total = durations(&spans, "outer")[0];
        assert!(outer_self < outer_total);
        assert!(durations(&spans, "inner")[0] >= 2000.0);
    }
}
