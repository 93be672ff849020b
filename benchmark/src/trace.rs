//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures the layers from outside: a span is cut in
//! this package around a call into a layer's public function, never
//! inside the program. Spans nest through an explicit stack (there is
//! one client thread), carry the session that caused them and a list of
//! counts (allocations, block reads, …) taken at the same boundary, and
//! are written out once, when the run ends. When the tracer is off,
//! [`Tracer::span`] is a plain call: the untraced run reads no extra
//! clock.

use crate::alloc::GLOBAL;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u32,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    session: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            session: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` as one session: a `session` span under a fresh session
    /// id, which every span cut inside it shares.
    pub fn session<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.session += 1;
        self.span("session", f)
    }

    /// Runs `f` inside a span named `name` (allocation count attached).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            session: self.session,
            counts: Vec::new(),
        });
        self.stack.push(id);
        let allocs = GLOBAL.snapshot().allocs;
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let allocs = GLOBAL.snapshot().allocs - allocs;
        self.spans[id].counts.push(("allocs", allocs));
        self.stack.pop();
        out
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Sum of a count over every span called `name`.
    pub fn count_sum(&self, name: &str, key: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Per span name: `(calls, total ns, self ns)`, self time being the
    /// span minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as one JSON document (Chrome-trace-like, one object
    /// per span, parents by index).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{},\"counts\":{{",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.session
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.session(|t| {
            t.span("inner", |t| {
                t.count("blocks", 3);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            t.span("inner", |_| ());
        });
        t.session(|_| ());
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[..3].iter().all(|s| s.session == 1));
        assert_eq!(t.spans[3].session, 2);
        assert_eq!(t.count_sum("inner", "blocks"), 3);
        let st = t.self_times();
        let (calls, total, own) = st["session"];
        let (calls, total) = (calls - 1, total - t.spans[3].dur_ns());
        let own = own - t.spans[3].dur_ns();
        assert_eq!(calls, 1);
        let inner_total = st["inner"].1;
        assert_eq!(st["inner"].0, 2);
        assert_eq!(own, total - inner_total);
        assert!(inner_total >= 2_000_000);
        assert_eq!(t.durations("inner").len(), 2);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"session\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"blocks\":3"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", |_| 7), 7);
        t.count("k", 1);
        assert!(t.spans.is_empty());
    }
}
