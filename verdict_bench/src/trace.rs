//! Std-only span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the library's public functions. They stay in memory while the run
//! measures and are written out once, when it ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its recorder.
pub type SpanId = usize;

/// One timed call: name, start, end (nanoseconds since the recorder
/// was created), the span that caused it, the job it belongs to, and
/// the work it did (samples, or calls; 0 when not counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub job: u64,
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned: a traced call panicked")
    }

    /// Runs `body` inside a span named `name`; `body` receives the new
    /// span's id so it can parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        body: impl FnOnce(SpanId) -> T,
    ) -> T {
        self.span_work(name, parent, job, 0, body)
    }

    /// [`Recorder::span`] for a call that does `work` units of work.
    pub fn span_work<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        work: u64,
        body: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let start_ns = self.now_ns();
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
                work,
            });
            spans.len() - 1
        };
        let out = body(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Sets the work of a span whose amount is known only once its call
    /// returned.
    pub fn set_work(&self, id: SpanId, work: u64) {
        self.lock()[id].work = work;
    }

    pub fn finish(self) -> Trace {
        Trace::new(
            self.spans
                .into_inner()
                .expect("span recorder poisoned: a traced call panicked"),
        )
    }
}

/// The spans of a finished run, indexed by parent.
pub struct Trace {
    spans: Vec<Span>,
    children: Vec<Vec<SpanId>>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        Trace { spans, children }
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Ids of the root spans (no parent) named `name`, in start order.
    pub fn roots(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].parent.is_none() && self.spans[id].name == name)
            .collect()
    }

    /// Ids of every span named `name` below `id` (at any depth).
    pub fn descendants(&self, id: SpanId, name: &str) -> Vec<SpanId> {
        let mut out = Vec::new();
        let mut stack = self.children[id].clone();
        while let Some(c) = stack.pop() {
            if self.spans[c].name == name {
                out.push(c);
            }
            stack.extend_from_slice(&self.children[c]);
        }
        out.sort_unstable();
        out
    }

    /// Nanoseconds per unit of work over every span named `name`
    /// (0 when no such span counted work).
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (ns, work) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, work), s| {
                (ns + s.duration_ns(), work + s.work)
            });
        if work == 0 {
            0.0
        } else {
            ns as f64 / work as f64
        }
    }

    /// Nanoseconds of `id`'s interval covered by at least one direct
    /// child. Overlapping children (parallel workers) count once;
    /// grandchildren are already inside their parent's interval.
    pub fn covered_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let intervals: Vec<(u64, u64)> = self.children[id]
            .iter()
            .map(|&c| {
                let child = &self.spans[c];
                (
                    child.start_ns.clamp(span.start_ns, span.end_ns),
                    child.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        union_len(intervals)
    }

    /// The span's duration minus the part its child spans cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].duration_ns() - self.covered_ns(id)
    }

    /// Writes one tab-separated line per span:
    /// `id  parent  job  name  start_ns  end_ns  self_ns  work`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns\twork"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.job,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.work
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
            work: 0,
        }
    }

    #[test]
    fn rate_divides_total_time_by_total_work() {
        let mut a = span("dsp.welch", 0, 300, None);
        a.work = 100;
        let mut b = span("dsp.welch", 300, 400, None);
        b.work = 100;
        let trace = Trace::new(vec![a, b, span("other", 0, 50, None)]);
        assert_eq!(trace.ns_per_work("dsp.welch"), 2.0);
        assert_eq!(trace.ns_per_work("other"), 0.0);
        assert_eq!(trace.ns_per_work("missing"), 0.0);
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(5, 5), (9, 3)]), 0);
        assert_eq!(union_len(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (15, 20)]), 20);
        assert_eq!(union_len(vec![(10, 20), (0, 100), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a.1 [15,35); b [50,60).
        let trace = Trace::new(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.1", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ]);
        assert_eq!(trace.self_ns(0), 100 - 30 - 10);
        assert_eq!(trace.self_ns(1), 30 - 20);
        assert_eq!(trace.self_ns(2), 20);
        assert_eq!(trace.self_ns(3), 10);
        // The self times of a tree add up to the root's duration.
        let total: u64 = (0..4).map(|id| trace.self_ns(id)).sum();
        assert_eq!(total, 100);
        assert_eq!(trace.descendants(0, "a.1"), vec![2]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers: children overlap in [30,50).
        let trace = Trace::new(vec![
            span("job", 0, 100, None),
            span("task", 10, 50, Some(0)),
            span("task", 30, 90, Some(0)),
        ]);
        assert_eq!(trace.covered_ns(0), 80);
        assert_eq!(trace.self_ns(0), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let trace = Trace::new(vec![
            span("job", 10, 50, None),
            span("late", 40, 70, Some(0)),
            span("early", 0, 20, Some(0)),
        ]);
        assert_eq!(trace.covered_ns(0), 20);
        assert_eq!(trace.self_ns(0), 20);
    }

    #[test]
    fn recorder_nests_spans_across_threads() {
        let rec = Recorder::new();
        rec.span("job", None, 7, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| rec.span("task", Some(root), 7, |_| ()));
                }
            });
        });
        let trace = rec.finish();
        let roots = trace.roots("job");
        assert_eq!(roots.len(), 1);
        let tasks = trace.descendants(roots[0], "task");
        assert_eq!(tasks.len(), 2);
        assert!(trace.self_ns(roots[0]) <= trace.span(roots[0]).duration_ns());
        assert!(tasks.iter().all(|&c| trace.span(c).job == 7));
    }
}
