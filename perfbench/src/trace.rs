//! In-memory spans for the traced run, recorded around each call the
//! benchmark makes into a layer's public function and written out as JSON
//! when the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (e.g. `sql.parse_query`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (query or append batch) the span belongs to.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; nothing is written until [`Tracer::to_json`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every open span (after an operation failed midway).
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (out, self.spans[id].dur_ns() as f64 * 1e-9)
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Self time of every span: its duration minus the time its child spans
    /// cover (children of one span never overlap: the benchmark is
    /// single-threaded around its calls).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The trace as a JSON object: every span, per-name totals (count, total
    /// and self seconds), plus the given header fields and metrics.
    pub fn to_json(
        &self,
        header: &[(&str, String)],
        metrics: &BTreeMap<&'static str, f64>,
    ) -> String {
        let own = self.self_ns();
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &o) in self.spans.iter().zip(&own) {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.dur_ns();
            t.2 += o;
        }
        let mut out = String::from("{\n");
        for (k, v) in header {
            out += &format!("  {}: {v},\n", json::string(k));
        }
        out += "  \"metrics\": {";
        let m: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\n    {}: {}", json::string(k), json::number(*v)))
            .collect();
        out += &m.join(",");
        out += "\n  },\n  \"span_totals\": {";
        let t: Vec<String> = totals
            .iter()
            .map(|(k, (n, total, own))| {
                format!(
                    "\n    {}: {{\"count\": {n}, \"total_s\": {}, \"self_s\": {}}}",
                    json::string(k),
                    json::number(*total as f64 * 1e-9),
                    json::number(*own as f64 * 1e-9)
                )
            })
            .collect();
        out += &t.join(",");
        out += "\n  },\n  \"spans\": [";
        let s: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, o)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "\n    {{\"name\": {}, \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {o}}}",
                    json::string(s.name),
                    s.op,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        out += &s.join(",");
        out += "\n  ]\n}\n";
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        let _ = t.leaf("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.exit(root);
        let own = t.self_ns();
        assert_eq!(own[0] + t.spans[1].dur_ns(), t.spans[0].dur_ns());
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(own[1] >= 5_000_000);
    }
}
