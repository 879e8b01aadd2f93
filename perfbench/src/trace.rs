//! In-memory span tracing around calls into the library's layers.
//!
//! Spans are recorded by the benchmark itself, around each public call it
//! makes — nothing inside the crates is instrumented. A span is named
//! `<layer>.<call>` (`client.frames_for_shard`, `window.advance_to`, …);
//! the roots are the benchmark's own phases (`round`, `query`, `setup`,
//! `loadgen`, `verify`). A layer's *self time* is its spans' durations
//! minus the parts covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: name, start and end (ns since the tracer began),
/// the enclosing span, and a work count (reports, items or bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the part of its name before the dot
    /// (roots have no dot and are their own layer).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Mean duration of one call, in ns (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns, self.calls)
    }

    /// Duration per unit of work, in ns (0 when no work was recorded).
    pub fn ns_per_work(&self) -> f64 {
        ratio(self.total_ns, self.work)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Records spans while enabled; while disabled, [`span`](Self::span) is a
/// plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` carrying `work`; `f` gets the
    /// tracer back so that it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            work,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Sets the work count of the innermost open span, for calls whose
    /// work is known only afterwards (checkpoint bytes).
    pub fn set_work(&mut self, work: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].work = work;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time each span's direct children cover, by span index.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        child_ns
    }

    /// Per-name totals, including self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
            t.work += s.work;
        }
        out
    }

    /// Self time per layer, summed over the descendants of every root
    /// span named `root` (the root's own self time is listed under its
    /// name), plus the roots' total duration.
    pub fn self_time_under(&self, root: &str) -> (BTreeMap<&'static str, u64>, u64) {
        let child_ns = self.child_ns();
        // A span is under `root` when its chain of parents reaches a span
        // of that name; parents always precede children.
        let mut under = vec![false; self.spans.len()];
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
            if !under[i] {
                continue;
            }
            if s.name == root {
                wall += s.duration_ns();
            }
            *by_layer.entry(s.layer()).or_default() += s.duration_ns().saturating_sub(child_ns[i]);
        }
        (by_layer, wall)
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_lines(&mut out)?;
        out.flush()
    }

    fn write_lines(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs() {
        let mut tr = Tracer::new(false);
        let v = tr.span("round", 1, |tr| tr.span("client.x", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert!(tr.totals().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("round", 10, |tr| {
            busy(200_000);
            tr.span("client.frames", 10, |tr| {
                busy(300_000);
                tr.span("wire.frame", 0, |tr| {
                    busy(100_000);
                    tr.set_work(64);
                });
            });
        });
        tr.span("query", 0, |tr| {
            tr.span("estimate.items", 3, |_| busy(50_000))
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].work, 64);
        assert_eq!(spans[4].parent, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let totals = tr.totals();
        let client = totals["client.frames"];
        assert_eq!(client.calls, 1);
        assert_eq!(
            client.self_ns,
            client.total_ns - spans[2].duration_ns(),
            "self time drops the child's interval"
        );
        assert!(client.self_ns >= 300_000);

        let (layers, wall) = tr.self_time_under("round");
        assert_eq!(wall, spans[0].duration_ns());
        // Self times under a root tile the root exactly.
        assert_eq!(layers.values().sum::<u64>(), wall);
        assert!(!layers.contains_key("estimate"), "other roots excluded");
        assert!(layers["round"] >= 200_000);
    }

    #[test]
    fn writes_one_json_line_per_span() {
        let mut tr = Tracer::new(true);
        tr.span("round", 2, |tr| tr.span("client.x", 2, |_| ()));
        let mut bytes = Vec::new();
        tr.write_lines(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"round\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0"));
    }
}
