//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. They are kept in memory while the run measures and
//! written once, at the end, as a Chrome trace (openable in Perfetto).

use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder was
/// created, `parent` is `0` for a root.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. A disabled recorder records nothing, so untraced runs
/// pay only a branch.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled` is the run's `--trace` flag.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn record(&mut self, name: &str, parent: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Reserves an id for a parent span whose extent is only known when
    /// its children are done; close it with [`Spans::close`].
    pub fn open(&mut self) -> (u64, Instant) {
        if !self.enabled {
            return (0, Instant::now());
        }
        let id = self.next_id;
        self.next_id += 1;
        (id, Instant::now())
    }

    /// Closes a span reserved with [`Spans::open`].
    pub fn close(&mut self, opened: (u64, Instant), name: &str, parent: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id: opened.0,
            parent,
            name: name.to_string(),
            start_ns: ns(opened.1),
            end_ns: ns(Instant::now()),
        });
    }

    /// Chrome-trace JSON: one complete (`"X"`) event per span, with the
    /// span id, parent id and self time (duration minus the time its
    /// children cover) in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let dur = s.end_ns - s.start_ns;
                let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                     \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"id\": {}, \"parent\": {}, \"self_ns\": {}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    dur as f64 / 1e3,
                    s.id,
                    s.parent,
                    self_ns
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}
