//! In-memory span recorder for the traced run.
//!
//! A span is a named interval of host time with the span that was open when
//! it began as its parent. Spans are kept in memory while the workload runs
//! and written out once at the end, so recording costs two clock reads and a
//! `Vec` push. A recorder that is off records nothing and costs a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `engine.on_wake`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the recorder is off.
pub type SpanId = Option<u32>;

/// The recorder: the spans of one workload pass.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder for `workload`; records only when `on`.
    pub fn new(workload: &'static str, on: bool) -> Spans {
        Spans { origin: Instant::now(), on, workload, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per pass");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("pass shorter than 584 years")
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.sum_ns(|s| s.name == name) as f64 * 1e-9
    }

    /// Summed duration of the spans whose name starts with `prefix`, in
    /// seconds.
    pub fn total_prefixed_s(&self, prefix: &str) -> f64 {
        self.sum_ns(|s| s.name.starts_with(prefix)) as f64 * 1e-9
    }

    fn sum_ns(&self, keep: impl Fn(&Span) -> bool) -> u64 {
        self.spans.iter().filter(|s| keep(s)).map(Span::dur_ns).sum()
    }

    /// Summed self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover. Children of one parent never overlap (spans nest on
    /// one thread), so the covered time is the sum of their durations.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// The spans as CSV, `id,parent,workload,name,start_ns,end_ns` with an
    /// empty parent for a root span, leaving out spans whose name starts
    /// with one of `skip` (per-call spans number in the millions; the
    /// summary counts them).
    pub fn to_csv(&self, skip: &[&str]) -> String {
        let mut out = String::from("id,parent,workload,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            if skip.iter().any(|p| s.name.starts_with(p)) {
                continue;
            }
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(out, "{i},{parent},{},{},{},{}", self.workload, s.name, s.start_ns, s.end_ns)
                .expect("writing to a String cannot fail");
        }
        out
    }

    /// One CSV line per span name: `workload,name,count,total_ns,self_ns`.
    pub fn summary_csv(&self) -> String {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by_name.entry(s.name).or_default();
            *e = (e.0 + 1, e.1 + s.dur_ns(), e.2 + own);
        }
        let mut out = String::from("workload,name,count,total_ns,self_ns\n");
        for (name, (count, total, own)) in by_name {
            writeln!(out, "{},{name},{count},{total},{own}", self.workload)
                .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new("w", true);
        s.spans = vec![
            span("serve", None, 0, 100),
            span("engine", Some(0), 10, 30),
            span("inner", Some(1), 12, 20),
            span("engine", Some(0), 50, 60),
        ];
        assert!((s.self_s("serve") - 70e-9).abs() < 1e-15);
        assert!((s.self_s("engine") - 22e-9).abs() < 1e-15);
        assert!((s.total_s("engine") - 30e-9).abs() < 1e-15);
        assert_eq!(
            s.summary_csv(),
            "workload,name,count,total_ns,self_ns\nw,engine,2,30,22\nw,inner,1,8,8\nw,serve,1,100,70\n"
        );
        assert_eq!(s.to_csv(&["engine", "inner"]).lines().nth(1), Some("0,,w,serve,0,100"));
    }

    #[test]
    fn nesting_records_parents_and_off_records_nothing() {
        let mut s = Spans::new("w", true);
        s.scope("outer", |s| s.scope("inner", |_| ()));
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        assert!(s.to_csv(&[]).lines().nth(2).is_some_and(|l| l.starts_with("1,0,w,inner,")));

        let mut off = Spans::new("w", false);
        off.scope("outer", |s| s.scope("inner", |_| ()));
        assert!(off.spans.is_empty());
    }
}
