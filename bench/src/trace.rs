//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's own code, around its calls into each layer's public API;
//! they are written out once, when the workload ends.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

struct Row {
    name: u16,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    query: u32,
}

/// The recorder: a preallocated table of spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    rows: Vec<Row>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans. Staying within it means
    /// recording never allocates, so allocation counts taken around traced
    /// loops are the library's alone.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer { origin: Instant::now(), names: Vec::new(), rows: Vec::with_capacity(capacity) }
    }

    /// Opens a span; the clock is read last, after the bookkeeping.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<usize>,
    ) -> SpanId {
        let name = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        } as u16;
        debug_assert!(self.rows.len() < self.rows.capacity(), "tracer capacity exceeded");
        let id = SpanId(self.rows.len() as u32);
        self.rows.push(Row {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: parent.map_or(NONE, |p| p.0),
            query: query.map_or(NONE, |q| q as u32),
        });
        self.rows[id.0 as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes a span (the clock is read first) and returns its duration in
    /// nanoseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let row = &mut self.rows[id.0 as usize];
        row.end_ns = now;
        (now - row.start_ns) as f64
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, query);
        let value = f();
        (value, self.close(id))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The trace as one JSON document: a name table and one compact row
    /// `[name, start_ns, end_ns, parent, query]` per span (−1 = none).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let names: Vec<String> = self.names.iter().map(|n| json::quote(n)).collect();
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"query\"],\n \
             \"names\": [{}],\n \"spans\": [\n",
            json::quote(workload),
            names.join(", ")
        );
        let opt = |x: u32| if x == NONE { -1 } else { i64::from(x) };
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  [{}, {}, {}, {}, {}]{comma}",
                r.name,
                r.start_ns,
                r.end_ns,
                opt(r.parent),
                opt(r.query)
            );
        }
        out.push_str(" ]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::with_capacity(8);
        let outer = tr.open("outer", None, None);
        let ((), inner_ns) = tr.span("inner", Some(outer), Some(3), || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let outer_ns = tr.close(outer);
        assert!(outer_ns >= inner_ns);
        assert_eq!(tr.len(), 2);
        let doc = json::parse(&tr.to_json("w", 1)).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].items()[3].as_f64(), Some(0.0));
        assert_eq!(spans[1].items()[4].as_f64(), Some(3.0));
        assert_eq!(spans[0].items()[3].as_f64(), Some(-1.0));
    }
}
