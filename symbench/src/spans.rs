//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public function: name, start, end, parent span and request
//! id. Spans stay in memory and are written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer function, as `layer.function`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request (query number) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one client thread. Tracers of several threads
/// share an origin so their spans lie on one time line.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span; returns its value and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (out, self.push(name, start_ns, end_ns, parent, request))
    }

    /// Open a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, request)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Adopt spans recorded by a helper tracer with the same origin,
    /// re-parenting its roots under `parent`.
    pub fn adopt(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The origin the spans are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Durations, in µs, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1000.0)
            .collect()
    }

    /// Children of span `parent`, as `(start, end)` pairs.
    pub fn children_of(&self, parent: usize) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `parent` covered by at least one child. Children may
/// overlap one another (parallel workers) and may stick out of the
/// parent; only their union inside the parent counts.
pub fn covered_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_cover_their_union() {
        // Children 10..40 and 30..60 overlap on 30..40, so together
        // they cover 50, not 60.
        assert_eq!(covered_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(covered_ns((0, 100), &[(10, 60), (20, 30)]), 50);
        // Disjoint children add up.
        assert_eq!(covered_ns((0, 100), &[(0, 10), (90, 100)]), 20);
        // Touching children merge without double counting.
        assert_eq!(covered_ns((0, 100), &[(0, 50), (50, 100)]), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        assert_eq!(covered_ns((10, 20), &[(0, 15), (18, 30)]), 7);
        assert_eq!(covered_ns((10, 20), &[(0, 5), (25, 30)]), 0);
        assert_eq!(covered_ns((10, 20), &[]), 0);
    }

    #[test]
    fn adopted_spans_keep_their_tree() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let root = main.push("runtime.replay", 0, 100, None, 7);
        let mut worker = Tracer::new(origin);
        let a = worker.push("websearch.fetch", 10, 40, None, 7);
        worker.push("websearch.pool", 10, 30, Some(a), 7);
        main.adopt(worker, Some(root));
        assert_eq!(main.spans()[1].parent, Some(root));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.children_of(root), vec![(10, 40)]);
    }
}
