//! In-memory span recorder for the traced run.
//!
//! A span records a name, a start, an end and the span that was open
//! when it started. Spans stay in memory until the run ends, when
//! [`Tracer::write_json`] writes them out. A disabled tracer records
//! nothing, so the same code runs traced and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.select`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder with an explicit stack of open spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its index.
    pub fn exit(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end = self.now();
        Some(id)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time((s.start, s.end), c))
            .collect()
    }

    /// Indices of `root` and every span below it.
    pub fn subtree(&self, root: usize) -> Vec<usize> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut out = vec![root];
        // Children are recorded after their parents.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if s.parent.is_some_and(|p| inside[p]) {
                inside[i] = true;
                out.push(i);
            }
        }
        out
    }

    /// Total self time per span name over the subtrees of `roots`.
    pub fn self_time_by_name(&self, roots: &[usize]) -> BTreeMap<&'static str, u64> {
        let selfs = self.self_times();
        let mut out = BTreeMap::new();
        for &r in roots {
            for i in self.subtree(r) {
                *out.entry(self.spans[i].name).or_insert(0) += selfs[i];
            }
        }
        out
    }

    /// Writes the spans as one JSON object per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Duration of `span` minus the union of the `children` intervals,
/// each clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in parts {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        // Overlapping children cover [10, 50) once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // A nested interval adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // Parts outside the parent are clipped away.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40), (50, 60)]), 3);
    }

    #[test]
    fn self_times_add_up_to_the_root_duration() {
        let mut t = Tracer::new(true);
        t.enter("op");
        t.span("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.enter("b");
        t.span("b.inner", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        t.exit();
        let root = t.exit().unwrap();
        let selfs = t.self_times();
        let total: u64 = t.subtree(root).iter().map(|&i| selfs[i]).sum();
        let s = &t.spans()[root];
        assert_eq!(total, s.end - s.start);
        let by_name = t.self_time_by_name(&[root]);
        assert_eq!(by_name.len(), 4);
        assert_eq!(by_name.values().sum::<u64>(), s.end - s.start);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("op");
        assert_eq!(t.span("a", || 7), 7);
        assert_eq!(t.exit(), None);
        assert!(t.spans().is_empty());
    }
}
