//! The harness's own spans: one around every public call a traced child
//! makes, kept in memory and handed to the parent in the result line.
//! Spans nest by call order; a span's self time is its duration minus
//! the time its child spans cover.

use crate::json::{num, quote};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// runs the closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every direct child of `parent` whose
    /// name starts with `prefix`.
    pub fn child_seconds(&self, parent: usize, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name.starts_with(prefix))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// Spans as a JSON array of `[id, parent, start_ns, end_ns, name]` rows
/// (parent -1 for a root).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[{},{},{},{},{}]",
                s.id,
                s.parent.map_or(-1, |p| p as i64),
                s.start_ns,
                s.end_ns,
                quote(&s.name)
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (children of one span never overlap, since a
/// child process records them one call at a time).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.duration_ns().saturating_sub(covered[s.id]))
        .collect()
}

/// Share of `root`'s duration covered by the self time of its
/// descendants: how much of a traced wall the spans around public calls
/// account for, as opposed to the harness's own glue between them.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let self_ns = self_times_ns(spans);
    let descendant = |mut s: usize| loop {
        match spans[s].parent {
            Some(p) if p == root => return true,
            Some(p) => s = p,
            None => return false,
        }
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| descendant(s.id))
        .map(|s| self_ns[s.id])
        .sum();
    covered as f64 / spans[root].duration_ns().max(1) as f64
}

/// Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`)
/// for spans grouped by process: one `pid` per workload, complete
/// ("X") events in microseconds, with the parent id and self time in
/// each event's args.
pub fn chrome_trace(processes: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (name, spans)) in processes.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
        let self_ns = self_times_ns(spans);
        for s in spans {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"turb-bench\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{}}}}}",
                quote(&s.name),
                num(s.start_ns as f64 / 1e3),
                num(s.duration_ns() as f64 / 1e3),
                s.id,
                s.parent.map_or(-1, |p| p as i64),
                num(self_ns[s.id] as f64 / 1e3),
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_descendants() {
        // root [0,100) > a [10,60) > b [20,40); c [70,90) under root.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 40),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 20, 20]);
        assert!((coverage(&spans, 0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_exports_parseable_json() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| std::hint::black_box(1)));
        let spans = t.spans().to_vec();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            Json::parse(&spans_json(&spans))
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        let trace = chrome_trace(&[("w".to_string(), spans)]);
        let events = Json::parse(&trace).unwrap();
        assert_eq!(
            events.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
