//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as Chrome trace-event JSON (opens in Perfetto)
//! when the run ends. Spans nest strictly: a span's parent is whichever
//! span was open when it began.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder that does nothing while switched off, so the same
/// code path serves traced and untraced iterations.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switched with spans open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the most recently opened span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, on one thread, with its index and parent index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                s.name.replace('"', "'"),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Span totals of one set-up sample or one iteration, by span name.
pub type Totals = BTreeMap<String, u64>;

/// Total duration of the spans in `spans`, by name.
pub fn total_by_name(spans: &[Span]) -> Totals {
    let mut m = Totals::new();
    for s in spans {
        *m.entry(s.name.clone()).or_insert(0) += s.duration_ns();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.span("inner", || ());
        t.span("inner", || ());
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let totals = total_by_name(s);
        assert_eq!(totals["inner"], s[1].duration_ns() + s[2].duration_ns());
        let json = t.chrome_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
