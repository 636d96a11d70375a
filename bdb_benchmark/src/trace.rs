//! In-memory spans around calls into the layer crates.
//!
//! A span records a name, its start and end (seconds since the trace
//! began), the span that was open when it started, and a request id that
//! groups the spans of one workload item. Spans stay in memory and are
//! written out once, when the run ends.
//!
//! A layer's self time is its span's duration minus the part covered by
//! its child spans. Some work cannot be split by nesting: a workload
//! generator streams events straight into a simulator, so "simulation"
//! is only visible as the generator-plus-simulator run minus a separate
//! generator-only run. Such a span names that run as a *baseline*, and
//! its self time subtracts the baseline's duration too.

use bdb_engine::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.replay`.
    pub name: &'static str,
    /// Start, in seconds since the trace began.
    pub start: f64,
    /// End, in seconds since the trace began.
    pub end: f64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Groups the spans of one workload item.
    pub request: u64,
    /// Spans whose work this span repeated and must not claim.
    pub baselines: Vec<SpanId>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span log.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> (T, SpanId) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
            baselines: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (out, id)
    }

    /// Declares that `span` repeated the work of `baseline`.
    pub fn subtract(&mut self, span: SpanId, baseline: SpanId) {
        self.spans[span].baselines.push(baseline);
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus its
    /// children's and its baselines' durations (never below zero, since
    /// two timings of the same work jitter), summed over spans sharing a
    /// name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let baseline: f64 = span
                .baselines
                .iter()
                .map(|&b| self.spans[b].duration())
                .sum();
            let own = (span.duration() - covered - baseline).max(0.0);
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// The spans as JSON, for the trace file written at exit.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("name", Value::Str(s.name.to_owned())),
                    ("start_s", Value::Float(s.start)),
                    ("end_s", Value::Float(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request", Value::UInt(s.request)),
                    (
                        "baselines",
                        Value::Array(s.baselines.iter().map(|&b| Value::UInt(b as u64)).collect()),
                    ),
                ])
            })
            .collect();
        Value::Array(spans)
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    #[cfg(test)]
    fn with_spans(spans: Vec<Span>) -> Self {
        Trace {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            baselines: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let trace = Trace::with_spans(vec![
            span("engine.call", 0.0, 10.0, None),
            span("sim.replay", 1.0, 3.0, Some(0)),
            span("sim.replay", 4.0, 8.0, Some(0)),
        ]);
        let times = trace.self_times();
        assert_eq!(times["engine.call"], 4.0);
        assert_eq!(times["sim.replay"], 6.0);
    }

    #[test]
    fn baselines_are_subtracted_and_self_time_never_negative() {
        let mut machine = span("sim.machine", 2.0, 7.0, None);
        machine.baselines.push(0);
        let mut jittered = span("sim.extract", 7.0, 7.5, None);
        jittered.baselines.push(0);
        let trace = Trace::with_spans(vec![
            span("workloads.run", 0.0, 2.0, None),
            machine,
            jittered,
        ]);
        let times = trace.self_times();
        assert_eq!(times["workloads.run"], 2.0);
        assert_eq!(times["sim.machine"], 3.0);
        assert_eq!(times["sim.extract"], 0.0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut trace = Trace::new();
        let ((_, inner), outer) = trace.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(trace.spans()[inner].parent, Some(outer));
        assert_eq!(trace.spans()[outer].parent, None);
        assert!(trace.spans()[outer].duration() >= trace.spans()[inner].duration());
    }
}
