//! Spans around the calls the harness makes into a layer, kept in memory
//! and written out when the run ends. Spans *inside* the program are a
//! later issue (ROADMAP, "stage spans"); until then a layer's time is what
//! can be seen from outside it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call: `{name, start_ns, end_ns, parent, op_id}`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `database.build` or `op.forall`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, ditto (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op of the timed sequence this span belongs to, if any.
    pub op_id: Option<usize>,
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. A disabled tracer records nothing and reads no
/// clock, so untraced rounds pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Count, total and self time of all spans with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: Option<usize>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span (and any span left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, None);
        let out = f();
        self.exit(open);
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time = span − children.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(children);
        }
        table
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op_id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let inner = t.enter("inner", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, Some(3));
        let table = t.layer_times();
        let (outer, inner) = (table["outer"], table["inner"]);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x", None);
        t.exit(open);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
