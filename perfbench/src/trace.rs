//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function, recorded
//! from the benchmark's side of the boundary: name, start, end, the
//! span that caused it, the repeat ("run") it belongs to, and a few
//! numeric attributes (counts measured at the same boundary). Spans
//! stay in memory while the workload runs and are written out as JSON
//! lines when it ends; the per-layer metrics are aggregates over them.
//!
//! A disabled tracer records nothing, so untraced runs pay only for
//! the `Instant` reads the end-to-end metrics need anyway.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    run: u32,
    attrs: Vec<(&'static str, f64)>,
}

/// The span store of one benchmark process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with repeat `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.offset_ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.offset_ns(end);
        }
    }

    /// Records a completed span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let id = self.open(name, parent, start);
        self.close(id, end);
        id
    }

    /// Attaches a numeric attribute to span `id`.
    pub fn set_attr(&mut self, id: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.spans[id].attrs.push((key, value));
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of every span called `name`, in
    /// recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Attribute `key` of every span called `name` that carries it.
    pub fn attr_values(&self, name: &str, key: &str) -> Vec<f64> {
        self.named(name)
            .filter_map(|s| s.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 160);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
                 \"workload\":\"{workload}\",\"run\":\"{seed}.{}\",\"attrs\":{{",
                s.name, s.start_ns, s.end_ns, s.run
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{}", crate::json_number(*v));
            }
            out.push_str("}}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("a", None, now, now), None);
        assert!(t.durations_ms("a").is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let parent = t.open("outer", None, start);
        let child = t.record("inner", parent, start, start + Duration::from_millis(2));
        t.set_attr(child, "calls", 3.0);
        t.close(parent, start + Duration::from_millis(5));
        assert_eq!(t.durations_ms("outer"), vec![5.0]);
        assert_eq!(t.durations_ms("inner"), vec![2.0]);
        assert_eq!(t.attr_values("inner", "calls"), vec![3.0]);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
