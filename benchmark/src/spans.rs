//! The benchmark's own span recorder: spans are opened and closed around
//! public calls into the program from the benchmark's code, kept in memory,
//! and written out with the result. Nothing inside the program is traced.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans against one origin clock.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open on this recorder.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the recorder was created.
    pub fn wall_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Duration of the first span called `name` (0 when absent).
pub fn dur_of(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0, Span::dur_ns)
}

/// Self time per span: its duration minus the part its direct children
/// cover. Children of one parent never overlap (the recorder nests them on
/// a stack), so the subtraction cannot go below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Sum of the durations of the spans that have no parent.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("setup", 0, 100, None),
            span("parse", 5, 25, Some(0)),
            span("build", 30, 90, Some(0)),
            span("routes", 40, 70, Some(2)),
            span("run", 100, 400, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30, 300]);
        assert_eq!(top_level_ns(&spans), 400);
        assert_eq!(dur_of(&spans, "build"), 60);
        assert_eq!(dur_of(&spans, "absent"), 0);
    }

    #[test]
    fn recorded_children_never_exceed_their_parent() {
        let mut rec = Recorder::new();
        rec.span("outer", |r| {
            r.span("a", |r| r.span("a1", |_| std::hint::black_box(17)));
            r.span("b", |_| ());
        });
        rec.span("tail", |_| ());
        let wall = rec.wall_ns();
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        let own = self_times(&spans);
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::dur_ns)
                .sum();
            assert!(children <= s.dur_ns(), "children of {} exceed it", s.name);
            assert_eq!(own[i], s.dur_ns() - children);
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert!(top_level_ns(&spans) <= wall);
    }
}
