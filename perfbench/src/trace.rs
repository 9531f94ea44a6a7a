//! In-memory spans for the traced run: one span per call into a layer,
//! recorded by the benchmark around the public functions it calls, written
//! out as JSON Lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The run (or group, or phase) the span belongs to.
    run: String,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: code shared with the untraced run
    /// calls straight through.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested in whichever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        run: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: run.to_string(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Seconds since the tracer started.
    pub fn elapsed_s(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its direct children (spans never overlap: the traced
    /// run is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by top-level spans.
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Append every span to `path` as JSON Lines, tagged with `rep`.
    pub fn write(&self, path: &Path, rep: usize) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"rep": {rep}, "id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "run": "{}"}}"#,
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_covered_counts_roots_only() {
        let mut t = Tracer::new();
        t.span("outer", "r", |t| {
            t.span("inner", "r", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        assert!(st["inner"] >= 0.02);
        assert!(st["outer"] < st["inner"], "{st:?}");
        let total = t.covered_s();
        assert!((total - (st["outer"] + st["inner"])).abs() < 1e-6);
    }
}
